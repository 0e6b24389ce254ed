//! The three photonic device benchmarks (paper §IV-A).
//!
//! 1. **Waveguide bending** — steer light by 90°;
//! 2. **Waveguide crossing** — cross two guides with no crosstalk;
//! 3. **Optical isolator** — convert TM1 → TM3 forward with high
//!    efficiency while backward TM1 injection is lost to radiation
//!    (a passive reciprocal structure evaluated for directional contrast,
//!    exactly as in the paper).
//!
//! Each benchmark fixes the simulation grid, the background waveguides,
//! the design region, ports, monitors, the dense objective set and the
//! light-concentrated seed geometry.

use crate::objective::{Bound, Constraint, MainObjective, ObjectiveSpec};
use boson_fdfd::grid::{Axis, Sign, SimGrid};
use boson_fdfd::port::Port;
use boson_num::Array2;
use boson_param::sdf::{Geometry, Shape};
use serde::{Deserialize, Serialize};

/// Operating wavelength (µm).
pub const LAMBDA: f64 = 1.55;
/// Grid pitch (µm).
pub const DX: f64 = 0.05;
/// PML thickness in cells.
pub const NPML: usize = 10;

/// Angular frequency for [`LAMBDA`] (c = 1).
pub fn omega() -> f64 {
    2.0 * std::f64::consts::PI / LAMBDA
}

/// What a monitor measures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MonitorKind {
    /// Directional modal power at a port.
    Modal {
        /// Index into [`DeviceProblem::ports`].
        port: usize,
        /// Mode order at that port.
        mode: usize,
        /// Measured propagation direction.
        direction: Sign,
    },
    /// `1 − Σ(named readings)` — the radiation/loss accounting monitor.
    Residual {
        /// Names of same-excitation monitors to subtract from unity.
        subtract: Vec<String>,
    },
}

/// A named measurement taken under one excitation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorSpec {
    /// Reading name used by the objective.
    pub name: String,
    /// What is measured.
    pub kind: MonitorKind,
}

/// One independent simulation: a source plus its measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Excitation {
    /// Label ("fwd", "bwd").
    pub name: String,
    /// Index into [`DeviceProblem::ports`] of the injecting port.
    pub source_port: usize,
    /// Injected mode order.
    pub source_mode: usize,
    /// Injection direction.
    pub source_direction: Sign,
    /// Measurements for this excitation.
    pub monitors: Vec<MonitorSpec>,
}

/// A full benchmark definition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceProblem {
    /// Benchmark name ("bending", "crossing", "isolator").
    pub name: String,
    /// FDFD simulation grid.
    pub grid: SimGrid,
    /// Angular frequency.
    pub omega: f64,
    /// Solid-occupancy map (1 = silicon) for everything *outside* the
    /// design region; design-region cells are ignored.
    pub background_solid: Array2<f64>,
    /// Design-region origin `(iy0, ix0)` in grid cells.
    pub design_origin: (usize, usize),
    /// Design-region shape `(rows, cols)` in cells.
    pub design_shape: (usize, usize),
    /// All port/monitor planes.
    pub ports: Vec<Port>,
    /// Simulations to run.
    pub excitations: Vec<Excitation>,
    /// Dense objective (constraints may be stripped for sparse baselines).
    pub objective: ObjectiveSpec,
    /// Light-concentrated seed geometry in design-region local µm
    /// coordinates.
    pub seed: Geometry,
    /// Modes to solve per port.
    pub mode_count: usize,
}

fn strip_y(solid: &mut Array2<f64>, iy_lo: usize, iy_hi: usize, ix_lo: usize, ix_hi: usize) {
    for iy in iy_lo..iy_hi {
        for ix in ix_lo..ix_hi {
            solid[(iy, ix)] = 1.0;
        }
    }
}

/// Builds the 90° waveguide-bending benchmark.
///
/// 4 × 4 µm domain, 0.4 µm guides entering from the left and leaving
/// through the top, 1.4 µm square design region in the centre.
pub fn bending() -> DeviceProblem {
    let grid = SimGrid::new(80, 80, DX, NPML);
    let om = omega();
    let mut solid = Array2::zeros(80, 80);
    // Horizontal input guide: y ∈ [36, 44), x from edge to design region.
    strip_y(&mut solid, 36, 44, 0, 26);
    // Vertical output guide: x ∈ [36, 44), y from design region to edge.
    for iy in 54..80 {
        for ix in 36..44 {
            solid[(iy, ix)] = 1.0;
        }
    }
    let ports = vec![
        Port::new("in", Axis::X, 16, 26, 54),   // 0: source plane
        Port::new("out", Axis::Y, 63, 26, 54),  // 1: transmission plane
        Port::new("refl", Axis::X, 13, 26, 54), // 2: reflection plane
    ];
    let monitors = vec![
        MonitorSpec {
            name: "trans".into(),
            kind: MonitorKind::Modal {
                port: 1,
                mode: 0,
                direction: Sign::Plus,
            },
        },
        MonitorSpec {
            name: "refl".into(),
            kind: MonitorKind::Modal {
                port: 2,
                mode: 0,
                direction: Sign::Minus,
            },
        },
        MonitorSpec {
            name: "rad".into(),
            kind: MonitorKind::Residual {
                subtract: vec!["trans".into(), "refl".into()],
            },
        },
    ];
    let excitations = vec![Excitation {
        name: "fwd".into(),
        source_port: 0,
        source_mode: 0,
        source_direction: Sign::Plus,
        monitors,
    }];
    let objective = ObjectiveSpec {
        main: MainObjective::MaximizePower {
            excitation: 0,
            monitor: "trans".into(),
        },
        constraints: vec![
            Constraint {
                excitation: 0,
                monitor: "trans".into(),
                bound: Bound::AtLeast(0.9),
                weight: 1.0,
            },
            Constraint {
                excitation: 0,
                monitor: "refl".into(),
                bound: Bound::AtMost(0.05),
                weight: 0.5,
            },
            Constraint {
                excitation: 0,
                monitor: "rad".into(),
                bound: Bound::AtMost(0.15),
                weight: 0.5,
            },
        ],
    };
    // Design region: cells (26..54)², i.e. 1.4 × 1.4 µm. The seed is an
    // arc-bent guide (an abrupt 90° corner would radiate ~99 % of the
    // light — the arc starts the optimiser at ~67 % transmission).
    let seed = Geometry::new()
        .with(Shape::Segment {
            x0: 0.0,
            y0: 0.7,
            x1: 0.25,
            y1: 0.7,
            half_width: 0.2,
        })
        .with(Shape::Segment {
            x0: 0.7,
            y0: 1.15,
            x1: 0.7,
            y1: 1.4,
            half_width: 0.2,
        })
        .with_arc(0.2, 1.2, 0.5, -std::f64::consts::FRAC_PI_2, 0.0, 8, 0.2);
    DeviceProblem {
        name: "bending".into(),
        grid,
        omega: om,
        background_solid: solid,
        design_origin: (26, 26),
        design_shape: (28, 28),
        ports,
        excitations,
        objective,
        seed,
        mode_count: 1,
    }
}

/// Builds the waveguide-crossing benchmark.
///
/// Two 0.4 µm guides crossing at the centre; light must pass straight
/// through with minimal crosstalk into the vertical arms.
pub fn crossing() -> DeviceProblem {
    let grid = SimGrid::new(80, 80, DX, NPML);
    let om = omega();
    let mut solid = Array2::zeros(80, 80);
    // Horizontal guide (both sides).
    strip_y(&mut solid, 36, 44, 0, 26);
    strip_y(&mut solid, 36, 44, 54, 80);
    // Vertical guide (both sides).
    for iy in (0..26).chain(54..80) {
        for ix in 36..44 {
            solid[(iy, ix)] = 1.0;
        }
    }
    let ports = vec![
        Port::new("in", Axis::X, 16, 26, 54),     // 0
        Port::new("out", Axis::X, 63, 26, 54),    // 1
        Port::new("top", Axis::Y, 63, 26, 54),    // 2
        Port::new("bottom", Axis::Y, 16, 26, 54), // 3
        Port::new("refl", Axis::X, 13, 26, 54),   // 4
    ];
    let monitors = vec![
        MonitorSpec {
            name: "trans".into(),
            kind: MonitorKind::Modal {
                port: 1,
                mode: 0,
                direction: Sign::Plus,
            },
        },
        MonitorSpec {
            name: "refl".into(),
            kind: MonitorKind::Modal {
                port: 4,
                mode: 0,
                direction: Sign::Minus,
            },
        },
        MonitorSpec {
            name: "xtalk_top".into(),
            kind: MonitorKind::Modal {
                port: 2,
                mode: 0,
                direction: Sign::Plus,
            },
        },
        MonitorSpec {
            name: "xtalk_bottom".into(),
            kind: MonitorKind::Modal {
                port: 3,
                mode: 0,
                direction: Sign::Minus,
            },
        },
        MonitorSpec {
            name: "rad".into(),
            kind: MonitorKind::Residual {
                subtract: vec![
                    "trans".into(),
                    "refl".into(),
                    "xtalk_top".into(),
                    "xtalk_bottom".into(),
                ],
            },
        },
    ];
    let excitations = vec![Excitation {
        name: "fwd".into(),
        source_port: 0,
        source_mode: 0,
        source_direction: Sign::Plus,
        monitors,
    }];
    let objective = ObjectiveSpec {
        main: MainObjective::MaximizePower {
            excitation: 0,
            monitor: "trans".into(),
        },
        constraints: vec![
            Constraint {
                excitation: 0,
                monitor: "trans".into(),
                bound: Bound::AtLeast(0.9),
                weight: 1.0,
            },
            Constraint {
                excitation: 0,
                monitor: "refl".into(),
                bound: Bound::AtMost(0.05),
                weight: 0.5,
            },
            Constraint {
                excitation: 0,
                monitor: "xtalk_top".into(),
                bound: Bound::AtMost(0.02),
                weight: 0.5,
            },
            Constraint {
                excitation: 0,
                monitor: "xtalk_bottom".into(),
                bound: Bound::AtMost(0.02),
                weight: 0.5,
            },
        ],
    };
    let seed = Geometry::new()
        .with(Shape::Segment {
            x0: 0.0,
            y0: 0.7,
            x1: 1.4,
            y1: 0.7,
            half_width: 0.2,
        })
        .with(Shape::Segment {
            x0: 0.7,
            y0: 0.0,
            x1: 0.7,
            y1: 1.4,
            half_width: 0.2,
        });
    DeviceProblem {
        name: "crossing".into(),
        grid,
        omega: om,
        background_solid: solid,
        design_origin: (26, 26),
        design_shape: (28, 28),
        ports,
        excitations,
        objective,
        seed,
        mode_count: 1,
    }
}

/// Builds the optical-isolator benchmark (TM1 → TM3 mode conversion with
/// backward radiation).
pub fn isolator() -> DeviceProblem {
    let grid = SimGrid::new(92, 80, DX, NPML);
    let om = omega();
    let mut solid = Array2::zeros(80, 92);
    // 1.5 µm multimode guide through the whole domain (outside the design
    // region, whose cells override anyway).
    strip_y(&mut solid, 25, 55, 0, 92);
    let ports = vec![
        Port::new("in", Axis::X, 16, 14, 66),     // 0: fwd source plane
        Port::new("out", Axis::X, 75, 14, 66),    // 1: bwd source / fwd trans plane
        Port::new("refl_f", Axis::X, 13, 14, 66), // 2: fwd reflection plane
        Port::new("leak_b", Axis::X, 13, 14, 66), // 3: bwd leak plane (−x)
        Port::new("refl_b", Axis::X, 78, 14, 66), // 4: bwd reflection plane (+x)
    ];
    let fwd_monitors = vec![
        MonitorSpec {
            name: "trans3".into(),
            kind: MonitorKind::Modal {
                port: 1,
                mode: 2,
                direction: Sign::Plus,
            },
        },
        MonitorSpec {
            name: "trans1".into(),
            kind: MonitorKind::Modal {
                port: 1,
                mode: 0,
                direction: Sign::Plus,
            },
        },
        MonitorSpec {
            name: "refl".into(),
            kind: MonitorKind::Modal {
                port: 2,
                mode: 0,
                direction: Sign::Minus,
            },
        },
        MonitorSpec {
            name: "rad".into(),
            kind: MonitorKind::Residual {
                subtract: vec!["trans3".into(), "trans1".into(), "refl".into()],
            },
        },
    ];
    let bwd_monitors = vec![
        MonitorSpec {
            name: "leak0".into(),
            kind: MonitorKind::Modal {
                port: 3,
                mode: 0,
                direction: Sign::Minus,
            },
        },
        MonitorSpec {
            name: "leak2".into(),
            kind: MonitorKind::Modal {
                port: 3,
                mode: 2,
                direction: Sign::Minus,
            },
        },
        MonitorSpec {
            name: "reflb".into(),
            kind: MonitorKind::Modal {
                port: 4,
                mode: 0,
                direction: Sign::Plus,
            },
        },
        MonitorSpec {
            name: "radb".into(),
            kind: MonitorKind::Residual {
                subtract: vec!["leak0".into(), "leak2".into(), "reflb".into()],
            },
        },
    ];
    let excitations = vec![
        Excitation {
            name: "fwd".into(),
            source_port: 0,
            source_mode: 0,
            source_direction: Sign::Plus,
            monitors: fwd_monitors,
        },
        Excitation {
            name: "bwd".into(),
            source_port: 1,
            source_mode: 0,
            source_direction: Sign::Minus,
            monitors: bwd_monitors,
        },
    ];
    let objective = ObjectiveSpec {
        main: MainObjective::MinimizeContrast {
            fwd: (0, "trans3".into()),
            bwd: vec![(1, "leak0".into()), (1, "leak2".into())],
        },
        constraints: vec![
            Constraint {
                excitation: 0,
                monitor: "trans3".into(),
                bound: Bound::AtLeast(0.8),
                weight: 1.0,
            },
            Constraint {
                excitation: 0,
                monitor: "refl".into(),
                bound: Bound::AtMost(0.1),
                weight: 0.5,
            },
            Constraint {
                excitation: 0,
                monitor: "trans1".into(),
                bound: Bound::AtMost(0.1),
                weight: 0.3,
            },
            Constraint {
                excitation: 1,
                monitor: "radb".into(),
                bound: Bound::AtLeast(0.9),
                weight: 1.0,
            },
        ],
    };
    // Design region: 2.0 × 1.8 µm (ix 26..66, iy 22..58). The seed keeps
    // the multimode guide through the region, with a gentle taper to seed
    // mode mixing.
    let seed = Geometry::new()
        .with(Shape::Rect {
            x0: 0.0,
            y0: 0.15,
            x1: 2.0,
            y1: 1.65,
        })
        .with(Shape::TaperX {
            x0: 0.0,
            x1: 2.0,
            cy: 0.9,
            hw0: 0.75,
            hw1: 0.3,
        });
    DeviceProblem {
        name: "isolator".into(),
        grid,
        omega: om,
        background_solid: solid,
        design_origin: (22, 26),
        design_shape: (36, 40),
        ports,
        excitations,
        objective,
        seed,
        mode_count: 3,
    }
}

/// All three benchmarks in paper order.
pub fn all_benchmarks() -> Vec<DeviceProblem> {
    vec![crossing(), bending(), isolator()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmarks_construct() {
        for p in all_benchmarks() {
            assert!(!p.ports.is_empty());
            assert!(!p.excitations.is_empty());
            assert_eq!(p.background_solid.shape(), (p.grid.ny, p.grid.nx));
        }
    }

    #[test]
    fn design_regions_inside_interior() {
        for p in all_benchmarks() {
            let (oy, ox) = p.design_origin;
            let (h, w) = p.design_shape;
            assert!(
                oy >= p.grid.npml && oy + h <= p.grid.ny - p.grid.npml,
                "{}",
                p.name
            );
            assert!(
                ox >= p.grid.npml && ox + w <= p.grid.nx - p.grid.npml,
                "{}",
                p.name
            );
        }
    }

    #[test]
    fn ports_outside_design_region() {
        for p in all_benchmarks() {
            for port in &p.ports {
                let (oy, ox) = p.design_origin;
                let (h, w) = p.design_shape;
                let clear = match port.axis {
                    Axis::X => port.plane < ox.saturating_sub(1) || port.plane > ox + w,
                    Axis::Y => port.plane < oy.saturating_sub(1) || port.plane > oy + h,
                };
                assert!(
                    clear,
                    "{}: port {} intersects design region",
                    p.name, port.name
                );
            }
        }
    }

    #[test]
    fn monitors_reference_valid_ports() {
        for p in all_benchmarks() {
            for exc in &p.excitations {
                assert!(exc.source_port < p.ports.len());
                for m in &exc.monitors {
                    if let MonitorKind::Modal { port, mode, .. } = &m.kind {
                        assert!(*port < p.ports.len(), "{}: {}", p.name, m.name);
                        assert!(*mode < p.mode_count);
                    }
                }
            }
        }
    }

    #[test]
    fn residuals_subtract_existing_monitors() {
        for p in all_benchmarks() {
            for exc in &p.excitations {
                let names: Vec<&str> = exc.monitors.iter().map(|m| m.name.as_str()).collect();
                for m in &exc.monitors {
                    if let MonitorKind::Residual { subtract } = &m.kind {
                        for s in subtract {
                            assert!(names.contains(&s.as_str()), "{}: {}", p.name, s);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn seeds_connect_ports() {
        // The bending seed must be solid at the design-region entry points.
        let p = bending();
        assert!(p.seed.contains(0.05, 0.7), "left entry");
        assert!(p.seed.contains(0.7, 1.35), "top exit");
        assert!(!p.seed.contains(1.35, 0.05), "corner stays void");
        let c = crossing();
        assert!(c.seed.contains(0.05, 0.7) && c.seed.contains(1.35, 0.7));
        assert!(c.seed.contains(0.7, 0.05) && c.seed.contains(0.7, 1.35));
        let iso = isolator();
        assert!(iso.seed.contains(0.05, 0.9) && iso.seed.contains(1.95, 0.9));
    }

    #[test]
    fn isolator_guide_is_multimode() {
        let p = isolator();
        let modes = p.ports[0].solve_modes(
            &p.grid,
            &p.background_solid.map(|&s| 1.0 + 11.11 * s),
            p.omega,
            3,
        );
        assert!(
            modes.len() >= 3,
            "need ≥3 guided modes, got {}",
            modes.len()
        );
    }
}
