//! End-to-end robust-design benchmark for the BOSON-1 workspace.
//!
//! Times whole robust design runs from outside the library — compile,
//! `InverseDesigner::run` at a fixed iteration count, Monte-Carlo
//! post-fabrication evaluation at a fixed sample count — and checks every
//! run's outputs. See `README.md` in this directory.
//!
//! ```sh
//! cargo run --offline --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload bend-direct --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of a traced replay with
//! `--trace 1`. `--record` instead prints the reference-score table of
//! `src/reference.rs`.

mod reference;
mod stats;
mod trace;
mod workload;

use boson_core::runner::{InverseDesigner, RunResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workload::{Setup, Workload, MC_SAMPLES};

/// The seed-derived inputs of one run: the Monte-Carlo variation draws of
/// the post-fabrication evaluation. `--seed n` selects entry
/// `n mod MC_SEEDS.len()`; each entry has recorded reference scores.
pub const MC_SEEDS: [u64; 8] = [11, 23, 37, 41, 53, 67, 79, 97];

/// Seed of the optimiser's corner draws (fixed: the design run itself is
/// the same for every `--seed`, so its time is comparable across seeds).
pub const RUNNER_SEED: u64 = 7;

/// Relative tolerance of the reference-score check. Scores repeat
/// bit-for-bit at a fixed seed; the slack absorbs summation-order changes
/// a refactor may legitimately make.
pub const SCORE_REL_TOL: f64 = 1e-4;

/// Setups timed after each design run. `setup_s` is the median of these
/// warm setups only: the first setup of a process mostly pays first-touch
/// allocation of a fresh heap, which no later setup in it pays.
const SETUP_REPS: usize = 10;

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line.
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN/∞: a metric that could not be measured
                // reads 0 and the run is already marked incorrect.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One complete design run's products.
pub struct DesignRun {
    pub result: RunResult,
    pub prefab_score: f64,
    pub postfab_score: f64,
}

/// Runs the optimiser on a finished setup and evaluates the final mask,
/// returning the run plus the (setup→run, run→post-fab) split times.
pub fn design_and_evaluate(
    w: Workload,
    setup: &Setup,
    threads: usize,
    mc_seed: u64,
) -> (DesignRun, f64, f64) {
    let t0 = Instant::now();
    let result = design(w, setup, threads, &setup.param);
    let design_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let postfab_score = post_fab_score(setup, &result.mask, mc_seed);
    let postfab_s = t1.elapsed().as_secs_f64();
    let higher = setup.compiled.problem().objective.fom_higher_is_better();
    let last = result.trajectory.last().expect("at least one iteration");
    let run = DesignRun {
        prefab_score: stats::oriented_score(last.fom_nominal, higher),
        postfab_score,
        result,
    };
    (run, design_s, postfab_s)
}

/// `evaluate_post_fab` of `mask` at [`MC_SAMPLES`] draws from `mc_seed`,
/// as an oriented score.
pub fn post_fab_score(setup: &Setup, mask: &boson_num::Array2<f64>, mc_seed: u64) -> f64 {
    let postfab = boson_core::eval::evaluate_post_fab(
        &setup.compiled,
        &setup.chain,
        &setup.space,
        mask,
        MC_SAMPLES,
        mc_seed,
    );
    let higher = setup.compiled.problem().objective.fom_higher_is_better();
    stats::oriented_score(postfab.fom.mean, higher)
}

/// One `InverseDesigner::run` of workload `w` through parameterisation
/// `param` (the plain level set, or the benchmark's traced wrapper).
pub fn design<P>(w: Workload, setup: &Setup, threads: usize, param: &P) -> RunResult
where
    P: boson_core::runner::SeedableParam + Sync,
{
    let mut designer = InverseDesigner::new(
        &setup.compiled,
        param,
        setup.chain.clone(),
        setup.space.clone(),
        w.config(threads, RUNNER_SEED),
    );
    designer.run(setup.theta0.clone())
}

/// Checks one run's outputs: finite objectives and FoMs every iteration,
/// and both scores on their recorded references. Returns the failures.
pub fn check_run(w: Workload, mc_seed: u64, run: &DesignRun) -> Vec<String> {
    let mut errors = Vec::new();
    for rec in &run.result.trajectory {
        if !rec.objective.is_finite() || !rec.fom_nominal.is_finite() {
            errors.push(format!(
                "iteration {}: non-finite objective {} / FoM {}",
                rec.iter, rec.objective, rec.fom_nominal
            ));
        }
    }
    match reference::lookup(w, mc_seed) {
        Some((prefab, postfab)) => {
            if !stats::matches_reference(run.prefab_score, prefab, SCORE_REL_TOL) {
                errors.push(format!(
                    "prefab_score {:?} != reference {prefab:?}",
                    run.prefab_score
                ));
            }
            if !stats::matches_reference(run.postfab_score, postfab, SCORE_REL_TOL) {
                errors.push(format!(
                    "postfab_score {:?} != reference {postfab:?}",
                    run.postfab_score
                ));
            }
        }
        None => errors.push(format!("no reference for {} seed {mc_seed}", w.name())),
    }
    errors
}

/// Per-iteration (objective, FoM, factorisations) bit patterns: the
/// trajectory fingerprint repeat runs and lane counts must reproduce.
pub fn fingerprint(result: &RunResult) -> Vec<(u64, u64, usize)> {
    result
        .trajectory
        .iter()
        .map(|r| {
            (
                r.objective.to_bits(),
                r.fom_nominal.to_bits(),
                r.factorizations,
            )
        })
        .collect()
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Untraced run: whole design runs back to back for `seconds` (at least
/// one), each timed stage by stage and followed by [`SETUP_REPS`] warm
/// setups; end-to-end metrics are the medians.
///
/// Post-fab time is not among them: on the reference host it follows the
/// load of other tenants about three times as strongly as `design_s`, so
/// run medians spread by 0.2–0.4. It is inside `total_s`, and the traced
/// run reports it as `postfab_s` beside `eval.*`.
fn run_untraced(w: Workload, mc_seed: u64, seconds: f64) -> Report {
    let lanes = boson_num::pool::global().lanes();
    let start = Instant::now();
    let (mut setup_s, mut design_s, mut total_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut first: Option<Vec<(u64, u64, usize)>> = None;
    let mut scores = (f64::NAN, f64::NAN);
    while attempted == 0 || start.elapsed().as_secs_f64() < seconds {
        attempted += 1;
        let rep = catch_unwind(AssertUnwindSafe(|| {
            let t = Instant::now();
            let setup = w.setup();
            let (run, d, _) = design_and_evaluate(w, &setup, lanes, mc_seed);
            let total = t.elapsed().as_secs_f64();
            drop(setup);
            let warm: Vec<f64> = (0..SETUP_REPS)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(w.setup());
                    t.elapsed().as_secs_f64()
                })
                .collect();
            (run, d, total, warm)
        }));
        let Ok((run, d, total, warm)) = rep else {
            failed += 1;
            continue;
        };
        let mut errors = check_run(w, mc_seed, &run);
        let fp = fingerprint(&run.result);
        match &first {
            None => first = Some(fp),
            Some(f) if *f != fp => errors.push("trajectory differs from the first run".into()),
            Some(_) => {}
        }
        if !errors.is_empty() {
            for e in &errors {
                eprintln!("{}: {e}", w.name());
            }
            failed += 1;
        }
        setup_s.extend(warm);
        design_s.push(d);
        total_s.push(total);
        scores = (run.prefab_score, run.postfab_score);
    }
    eprintln!(
        "{}: {} design runs, design_s {:?}, setup_s {:?}",
        w.name(),
        design_s.len(),
        design_s,
        setup_s
    );
    let med = |xs: &[f64]| {
        if xs.is_empty() {
            f64::NAN
        } else {
            stats::median(xs)
        }
    };
    Report {
        attempted,
        failed,
        metrics: vec![
            metric("total_s", med(&total_s), "s"),
            metric("setup_s", med(&setup_s), "s"),
            metric("design_s", med(&design_s), "s"),
            metric("postfab_score", scores.1, "score"),
            metric("prefab_score", scores.0, "score"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    }
}

/// `--record`: one design run per workload and one post-fab evaluation
/// per Monte-Carlo seed, printed as the body of `reference::REFERENCE`.
fn record() {
    let lanes = boson_num::pool::global().lanes();
    for w in Workload::ALL {
        let setup = w.setup();
        let result = design(w, &setup, lanes, &setup.param);
        let higher = setup.compiled.problem().objective.fom_higher_is_better();
        let prefab = stats::oriented_score(
            result.trajectory.last().expect("iterations").fom_nominal,
            higher,
        );
        for seed in MC_SEEDS {
            println!(
                "    (\"{}\", {seed}, {:?}, {:?}),",
                w.name(),
                prefab,
                post_fab_score(&setup, &result.mask, seed)
            );
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let v = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(v.is_finite() && v >= 0.0) {
                    return Err(format!("--seconds must be a finite number >= 0, got {v}"));
                }
                seconds = Some(v);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record") {
        record();
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let mc_seed = MC_SEEDS[(args.seed % MC_SEEDS.len() as u64) as usize];
    // Untraced runs contain their own panics per design run; a panic
    // anywhere else still ends in a result line, as one failed operation.
    let report = catch_unwind(|| {
        if args.trace {
            trace::run_traced(args.workload, mc_seed)
        } else {
            run_untraced(args.workload, mc_seed, args.seconds)
        }
    })
    .unwrap_or_else(|_| Report {
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
    });
    println!("{}", report.to_json());
}
