//! lggbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path lggbench/Cargo.toml -- \
//!     --workload lgg-gradient --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one named workload for `--seconds`, checks its answers, and
//! prints a human summary followed by one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `README.md` next to this file for why each workload exists and which
//! layer metric should move which end-to-end metric.

mod chaos;
mod probe;
mod single;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("steps_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("chunk_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. A metric whose layer is
/// not on a workload's path reads 0 there (see README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plan.ns_per_step", "ns"),
    ("plan.share", "share"),
    ("plan.entries_per_step", "count"),
    ("engine.step_ns_p50", "ns"),
    ("engine.step_ns_p99", "ns"),
    ("engine.self_ns_per_step", "ns"),
    ("engine.sent_per_step", "count"),
    ("engine.rejected_per_step", "count"),
    ("engine.active_nodes_mean", "count"),
    ("scenario.parse_us", "us"),
    ("scenario.spec_build_ms", "ms"),
    ("netmodel.classify_ms", "ms"),
    ("maxflow.dinic_solve_us", "us"),
    ("engine.build_ms", "ms"),
    ("observer.enabled_overhead", "share"),
    ("guard.ns_per_step", "ns"),
    ("guard.overhead", "share"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.restore_ms", "ms"),
    ("stability.assess_us", "us"),
    ("campaign.build_us_per_trial", "us"),
    ("campaign.run_us_per_trial", "us"),
    ("parpool.efficiency", "share"),
    ("parpool.idle_share", "share"),
    ("trace.timer_ns", "ns"),
    ("trace.overhead", "share"),
];

/// The workload names. `BENCHMARK.json` lists the last two; the first two
/// run by name only (see README.md).
const WORKLOADS: &[&str] = &[
    "lgg-gradient",
    "sparse-steady",
    "long-run-guarded",
    "chaos-campaign",
];

/// One run's settings.
pub struct Config {
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    /// Scratch directory for snapshots, inside the working directory.
    pub work_dir: PathBuf,
}

/// Checked operations and metric values collected by a workload.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one checked operation; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("lggbench: CHECK FAILED: {}", what());
        }
    }

    /// Checks `observed == expected` for a pinned value.
    pub fn check_eq<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        observed: T,
        expected: T,
    ) {
        let ok = observed == expected;
        self.check(ok, || {
            format!("{what}: observed {observed:?}, expected {expected:?}")
        });
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Per-index minimum over repetitions of one sequence of timings: the
/// fastest time each position took anywhere in the run.
pub fn fastest_of(reps: &[Vec<f64>]) -> Vec<f64> {
    let len = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// A run's best case, assembled by [`fastest_of`] from its repeated
/// units (trials, or campaigns).
///
/// The shared host this benchmark was sized on runs the simulator at half
/// speed for stretches of seconds to a minute. A run's median reads
/// whichever speed dominated the run; a unit's fastest repetition reads
/// the program, as long as the host was quiet once during that part.
pub struct BestCase {
    pub wall_s: f64,
    /// Time spent stepping (and writing periodic snapshots).
    pub stepping_s: f64,
    pub steps: u64,
    pub chunks_ms: Vec<f64>,
    /// The fastest set-up batch; each batch value is a median.
    pub setup_s: f64,
}

/// Sets every end-to-end timing from the run's best case.
pub fn report_best_case(mut best: BestCase, report: &mut Report) {
    eprintln!(
        "lggbench: best case {:.4} s over {} chunks",
        best.wall_s,
        best.chunks_ms.len()
    );
    report.set("steps_per_s", best.steps as f64 / best.stepping_s);
    report.set("wall_s", best.wall_s);
    report.set("chunk_ms_p50", probe::quantile(&mut best.chunks_ms, 0.5));
    report.set("setup_s", best.setup_s);
}

/// The smallest value of `v`.
pub fn min_of(v: impl IntoIterator<Item = f64>) -> f64 {
    v.into_iter().fold(f64::INFINITY, f64::min)
}

fn usage() -> String {
    format!(
        "usage: lggbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, Config), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}\n{}", usage()));
    }
    let seconds = seconds.ok_or_else(usage)?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match trace {
        Some(0) | None => false,
        Some(1) => true,
        Some(t) => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    let work_dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok((
        workload,
        Config {
            seed: seed.ok_or_else(usage)?,
            budget: Duration::from_secs(seconds),
            trace,
            work_dir,
        },
    ))
}

fn run(workload: &str, cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    match workload {
        "chaos-campaign" => chaos::run(cfg, &mut report)?,
        name => single::run(single::Workload::by_name(name), cfg, &mut report)?,
    }
    Ok(report)
}

/// The result line: every metric of the requested level, by name and unit.
fn result_json(report: &Report, trace: bool) -> Result<String, String> {
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = *report
            .metrics
            .get(name)
            .ok_or_else(|| format!("internal: metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("internal: metric {name} is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        fields.join(", ")
    ))
}

fn main() {
    let (workload, cfg) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("lggbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&workload, &cfg).and_then(|r| result_json(&r, cfg.trace).map(|j| (r, j)));
    // Best effort: the scratch directory only ever holds this run's
    // snapshots.
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let _ = std::fs::remove_dir(".bench_work");
    match outcome {
        Ok((report, json)) => {
            let level = if cfg.trace { PER_LAYER } else { END_TO_END };
            println!(
                "workload {workload} seed {} trace {}",
                cfg.seed,
                u8::from(cfg.trace)
            );
            for &(name, unit) in level {
                println!("  {name:<28} {:>16.6} {unit}", report.metrics[name]);
            }
            println!(
                "  checks: {} attempted, {} failed",
                report.attempted, report.failed
            );
            println!("{json}");
        }
        Err(e) => {
            eprintln!("lggbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
}
