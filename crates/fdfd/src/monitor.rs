//! Field monitors: directional modal power and Poynting flux.
//!
//! Every monitor is a closed-form function of the solved `Ez` field that
//! also exposes its exact Wirtinger gradient `∂F/∂E` — the adjoint source.
//! Two kinds are provided:
//!
//! * [`ModalMonitor`] — the complex amplitude of one guided mode travelling
//!   in one direction through a port (its squared magnitude is the modal
//!   power). Direction separation uses the field and its axial
//!   central-difference derivative with the *discrete* propagation constant,
//!   so a forward-only wave registers (almost) zero backward power.
//! * [`FluxMonitor`] — time-averaged Poynting power through a grid-aligned
//!   segment (used for radiation accounting).
//!
//! Gradients follow the convention `dF = 2·Re(Σ_i g_i·dE_i)`.

use crate::grid::{Axis, Sign, SimGrid};
use crate::modes::{central_diff_factor, discrete_beta, SlabMode};
use crate::port::Port;
use boson_num::{c64, Complex64};

/// A sparse linear functional `A(E) = Σ w_k·E_k` of the field.
#[derive(Debug, Clone, Default)]
pub struct LinearForm {
    /// `(flat index, weight)` pairs; indices may repeat.
    pub weights: Vec<(usize, Complex64)>,
}

impl LinearForm {
    /// Evaluates the form on a flat field vector.
    pub fn eval(&self, e: &[Complex64]) -> Complex64 {
        self.weights.iter().map(|&(k, w)| w * e[k]).sum()
    }

    /// Adds `scale × (this form's weights)` into a dense gradient buffer.
    pub fn accumulate(&self, scale: Complex64, out: &mut [Complex64]) {
        for &(k, w) in &self.weights {
            out[k] += scale * w;
        }
    }
}

/// Directional modal amplitude monitor at a port.
#[derive(Debug, Clone)]
pub struct ModalMonitor {
    form: LinearForm,
    /// Port name this monitor was built from.
    pub port_name: String,
    /// Mode order measured.
    pub mode_order: usize,
    /// Direction of propagation measured.
    pub direction: Sign,
}

impl ModalMonitor {
    /// Builds the directional amplitude extractor for `mode` at `port`.
    ///
    /// The monitor needs the planes `plane ± 1` to exist on the grid.
    ///
    /// Derivation: writing the field near the plane as
    /// `E = (A e^{iβ_d s} + B e^{-iβ_d s})φ(t)`, the overlaps with `φ` of
    /// the field and of its axial central difference give
    /// `A = ½[∫Eφ dt + (1/(iκ))∫(∂_s E)φ dt]/N` with
    /// `κ = sin(β_d dx)/dx` and `N = ∫φ² dt`.
    ///
    /// # Panics
    ///
    /// Panics if the port (or its neighbouring planes) leaves the grid.
    pub fn new(grid: &SimGrid, port: &Port, mode: &SlabMode, direction: Sign) -> Self {
        let dt = grid.dx;
        let beta_d = discrete_beta(mode.beta, grid.dx);
        let kappa = central_diff_factor(beta_d, grid.dx);
        let norm = mode.norm_integral(dt);
        let dir = direction.as_f64();
        // Field term: (dt·φ)/(2N).
        let w_center = 0.5 * dt / norm;
        // Derivative term: (dt·φ)/(2N)·(1/(iκ))·(1/(2dx))·dir.
        let w_deriv = c64(0.0, -1.0 / kappa) * (0.5 * dt / norm) * (dir / (2.0 * grid.dx));
        let mut weights = Vec::with_capacity(3 * port.width());
        for (m, t) in (port.t_lo..port.t_hi).enumerate() {
            let phi = mode.profile[m];
            if phi == 0.0 {
                continue;
            }
            weights.push((
                port.cell_at(grid, t, 0),
                Complex64::from_real(w_center * phi),
            ));
            weights.push((port.cell_at(grid, t, 1), w_deriv * phi));
            weights.push((port.cell_at(grid, t, -1), -w_deriv * phi));
        }
        Self {
            form: LinearForm { weights },
            port_name: port.name.clone(),
            mode_order: mode.order,
            direction,
        }
    }

    /// The linear form `A(E)` this monitor reads.
    pub fn form(&self) -> &LinearForm {
        &self.form
    }

    /// Complex modal amplitude `A`.
    pub fn amplitude(&self, e: &[Complex64]) -> Complex64 {
        self.form.eval(e)
    }

    /// Modal power `|A|²` (units of the mode's power normalisation).
    pub fn power(&self, e: &[Complex64]) -> f64 {
        self.amplitude(e).norm_sqr()
    }

    /// Accumulates the Wirtinger gradient of `scale·|A|²` into `out`.
    pub fn accumulate_power_grad(&self, e: &[Complex64], scale: f64, out: &mut [Complex64]) {
        let a = self.amplitude(e);
        self.form.accumulate(a.conj() * scale, out);
    }
}

/// Poynting-flux monitor through a grid-aligned segment.
///
/// `orientation` selects which way counts as positive power flow.
#[derive(Debug, Clone)]
pub struct FluxMonitor {
    /// One term per transverse cell: `(centre, plus-neighbour, minus-neighbour)`.
    cells: Vec<(usize, usize, usize)>,
    /// `γ = i/(2·dx·ω)` — central-difference H-field factor.
    gamma: Complex64,
    /// Per-term real prefactor (includes dt, ±½ and axis sign).
    alpha: f64,
    /// Monitor label for reports.
    pub name: String,
}

impl FluxMonitor {
    /// Builds a flux monitor on the plane `plane` (x index for
    /// [`Axis::X`]), transverse window `[t_lo, t_hi)`, counting power
    /// flowing in `orientation` as positive, at angular frequency `omega`.
    ///
    /// The Poynting component along the axis reduces (for both axes, after
    /// tracking the curl signs) to
    /// `S = ½·Re(Ez · conj(γ·(E₊ − E₋)))` per cell with `γ = i/(2·dx·ω)`,
    /// positive for power flowing towards +axis.
    ///
    /// # Panics
    ///
    /// Panics if the segment or its neighbour planes leave the grid, or if
    /// `omega <= 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        grid: &SimGrid,
        axis: Axis,
        plane: usize,
        t_lo: usize,
        t_hi: usize,
        orientation: Sign,
        omega: f64,
    ) -> Self {
        assert!(t_hi > t_lo, "flux window must be non-empty");
        assert!(plane >= 1, "flux plane needs both neighbours");
        assert!(omega > 0.0, "omega must be positive");
        let port = Port::new(name, axis, plane, t_lo, t_hi);
        let cells: Vec<(usize, usize, usize)> = (t_lo..t_hi)
            .map(|t| {
                (
                    port.cell_at(grid, t, 0),
                    port.cell_at(grid, t, 1),
                    port.cell_at(grid, t, -1),
                )
            })
            .collect();
        // Per cell, h = γ(E₊-E₋) is exactly the tangential H component
        // (Hy for X planes, -Hx for Y planes), and the Poynting component
        // towards +axis is -½Re(Ez·h*) for both axes.
        Self {
            cells,
            gamma: c64(0.0, 1.0 / (2.0 * grid.dx * omega)),
            alpha: -0.5 * grid.dx * orientation.as_f64(),
            name: name.to_owned(),
        }
    }

    /// Time-averaged power through the segment (positive along
    /// `orientation`).
    pub fn power(&self, e: &[Complex64]) -> f64 {
        let mut p = 0.0;
        for &(a, bp, bm) in &self.cells {
            let h = self.gamma * (e[bp] - e[bm]);
            p += self.alpha * (e[a] * h.conj()).re;
        }
        p
    }

    /// Accumulates the Wirtinger gradient of `scale·power` into `out`.
    pub fn accumulate_power_grad(&self, e: &[Complex64], scale: f64, out: &mut [Complex64]) {
        let half = 0.5 * self.alpha * scale;
        for &(a, bp, bm) in &self.cells {
            let q = self.gamma * (e[bp] - e[bm]);
            out[a] += q.conj() * half;
            out[bp] += e[a].conj() * self.gamma * half;
            out[bm] -= e[a].conj() * self.gamma * half;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SimGrid;
    use crate::modes::SlabMode;
    use boson_num::Complex64;

    const OMEGA: f64 = 2.0 * std::f64::consts::PI / 1.55;

    fn grid() -> SimGrid {
        SimGrid::new(50, 40, 0.05, 8)
    }

    /// A uniform "mode" spanning the window (plane-wave check).
    fn flat_mode(width: usize, dt: f64, beta: f64) -> SlabMode {
        let raw: f64 = width as f64 * dt;
        let scale = (2.0 * OMEGA / (beta * raw)).sqrt();
        SlabMode {
            beta,
            neff: beta / OMEGA,
            profile: vec![scale; width],
            order: 0,
        }
    }

    /// Synthesise a discrete plane wave exp(±i β_d x) over the grid.
    fn plane_wave(g: &SimGrid, beta: f64, sign: f64) -> Vec<Complex64> {
        let bd = discrete_beta(beta, g.dx);
        (0..g.n())
            .map(|k| {
                let (ix, _) = g.coords(k);
                Complex64::cis(sign * bd * ix as f64 * g.dx)
            })
            .collect()
    }

    #[test]
    fn modal_monitor_separates_directions() {
        let g = grid();
        let beta = OMEGA; // vacuum plane wave
        let port = Port::new("p", Axis::X, 25, 0, 40);
        let mode = flat_mode(40, g.dx, beta);
        let fwd = ModalMonitor::new(&g, &port, &mode, Sign::Plus);
        let bwd = ModalMonitor::new(&g, &port, &mode, Sign::Minus);
        let e = plane_wave(&g, beta, 1.0);
        let pf = fwd.power(&e);
        let pb = bwd.power(&e);
        assert!(pf > 1e-3, "forward power should be significant, got {pf}");
        assert!(
            pb < 1e-8 * pf,
            "backward leakage {pb} vs forward {pf} (ratio {})",
            pb / pf
        );
        // And the reverse wave swaps the roles exactly.
        let e2 = plane_wave(&g, beta, -1.0);
        let pf2 = fwd.power(&e2);
        let pb2 = bwd.power(&e2);
        assert!(pb2 > 1e-3);
        assert!(pf2 < 1e-8 * pb2);
    }

    #[test]
    fn modal_power_of_unit_plane_wave_is_calibrated() {
        // For E = mode profile × e^{iβ_d x}, A should equal the profile
        // amplitude scale, giving |A|² = power of that wave.
        let g = grid();
        let beta = OMEGA;
        let port = Port::new("p", Axis::X, 25, 0, 40);
        let mode = flat_mode(40, g.dx, beta);
        let fwd = ModalMonitor::new(&g, &port, &mode, Sign::Plus);
        let bd = discrete_beta(beta, g.dx);
        let e: Vec<Complex64> = (0..g.n())
            .map(|k| {
                let (ix, iy) = g.coords(k);
                if iy < 40 {
                    Complex64::cis(bd * ix as f64 * g.dx) * mode.profile[iy]
                } else {
                    Complex64::ZERO
                }
            })
            .collect();
        let p = fwd.power(&e);
        // The wave *is* the power-normalised mode → P = 1.
        assert!((p - 1.0).abs() < 1e-6, "modal power = {p}");
    }

    #[test]
    fn flux_positive_for_forward_wave() {
        let g = grid();
        let f = FluxMonitor::new("f", &g, Axis::X, 25, 5, 35, Sign::Plus, OMEGA);
        let e = plane_wave(&g, OMEGA, 1.0);
        let p = f.power(&e);
        // S = ½·(β/ω)·width·dx for a unit plane wave, β≈ω → ½·width·dx.
        let expect = 0.5 * 30.0 * g.dx;
        assert!(p > 0.0, "flux must be positive, got {p}");
        assert!((p - expect).abs() / expect < 0.02, "flux {p} vs {expect}");
        // Reversed wave gives negative flux of the same magnitude.
        let e2 = plane_wave(&g, OMEGA, -1.0);
        let p2 = f.power(&e2);
        assert!((p + p2).abs() < 1e-9 * p.abs().max(1.0));
    }

    #[test]
    fn flux_orientation_flips_sign() {
        let g = grid();
        let fp = FluxMonitor::new("f", &g, Axis::X, 25, 5, 35, Sign::Plus, OMEGA);
        let fm = FluxMonitor::new("f", &g, Axis::X, 25, 5, 35, Sign::Minus, OMEGA);
        let e = plane_wave(&g, OMEGA, 1.0);
        assert!((fp.power(&e) + fm.power(&e)).abs() < 1e-12);
    }

    #[test]
    fn flux_works_along_y() {
        let g = grid();
        let bd = discrete_beta(OMEGA, g.dx);
        // +y travelling wave.
        let e: Vec<Complex64> = (0..g.n())
            .map(|k| {
                let (_, iy) = g.coords(k);
                Complex64::cis(bd * iy as f64 * g.dx)
            })
            .collect();
        let f = FluxMonitor::new("fy", &g, Axis::Y, 20, 5, 45, Sign::Plus, OMEGA);
        let p = f.power(&e);
        assert!(p > 0.0, "+y wave through +y monitor must be positive: {p}");
    }

    #[test]
    fn modal_grad_matches_finite_difference() {
        let g = grid();
        let port = Port::new("p", Axis::X, 25, 10, 30);
        let mode = flat_mode(20, g.dx, OMEGA);
        let mon = ModalMonitor::new(&g, &port, &mode, Sign::Plus);
        let mut e = plane_wave(&g, OMEGA, 1.0);
        // Perturb a touched cell and compare d|A|² against 2Re(g·dE).
        let mut gbuf = vec![Complex64::ZERO; g.n()];
        mon.accumulate_power_grad(&e, 1.0, &mut gbuf);
        let k = g.idx(25, 15);
        for de in [c64(1e-6, 0.0), c64(0.0, 1e-6)] {
            let p0 = mon.power(&e);
            e[k] += de;
            let p1 = mon.power(&e);
            e[k] -= de;
            let predicted = 2.0 * (gbuf[k] * de).re;
            let actual = p1 - p0;
            assert!(
                (predicted - actual).abs() < 1e-9 + 1e-4 * actual.abs(),
                "grad mismatch: predicted {predicted}, actual {actual}"
            );
        }
    }

    #[test]
    fn flux_grad_matches_finite_difference() {
        let g = grid();
        let f = FluxMonitor::new("f", &g, Axis::X, 25, 10, 30, Sign::Plus, OMEGA);
        let mut e = plane_wave(&g, OMEGA, 1.0);
        let mut gbuf = vec![Complex64::ZERO; g.n()];
        f.accumulate_power_grad(&e, 1.0, &mut gbuf);
        for &k in &[g.idx(25, 15), g.idx(26, 20), g.idx(24, 12)] {
            for de in [c64(1e-6, 0.0), c64(0.0, 1e-6)] {
                let p0 = f.power(&e);
                e[k] += de;
                let p1 = f.power(&e);
                e[k] -= de;
                let predicted = 2.0 * (gbuf[k] * de).re;
                let actual = p1 - p0;
                assert!(
                    (predicted - actual).abs() < 1e-9 + 1e-4 * actual.abs(),
                    "flux grad mismatch at {k}: {predicted} vs {actual}"
                );
            }
        }
    }

    #[test]
    fn linear_form_eval_and_accumulate() {
        let form = LinearForm {
            weights: vec![(0, c64(2.0, 0.0)), (2, c64(0.0, 1.0)), (0, c64(1.0, 0.0))],
        };
        let e = [c64(1.0, 0.0), c64(5.0, 5.0), c64(0.0, -1.0)];
        assert_eq!(
            form.eval(&e),
            c64(3.0, 0.0) + c64(0.0, 1.0) * c64(0.0, -1.0)
        );
        let mut out = vec![Complex64::ZERO; 3];
        form.accumulate(c64(1.0, 0.0), &mut out);
        assert_eq!(out[0], c64(3.0, 0.0));
        assert_eq!(out[2], c64(0.0, 1.0));
    }
}
