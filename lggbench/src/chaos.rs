//! The `chaos-campaign` workload: 16 chaos campaigns of 32 trials × 4000
//! steps, campaign seeds 42 to 57. The timed runs call `run_chaos` itself,
//! one call per campaign, on one thread; once per run every campaign runs
//! again at two threads and must give the same digest. The traced run
//! splits trials into their layers with a copy of `run_chaos`'s per-trial
//! path, fanned out through `parpool::run_ordered` at two threads.

use std::hint::black_box;
use std::time::Instant;

use lgg_cli::{compose_trial, run_chaos, ChaosConfig, ChaosReport, Scenario, SimOverrides};
use simqueue::{
    BudgetKind, GuardConfig, GuardOutcome, HistoryMode, InvariantGuard, NoopObserver,
    WindowAggregator,
};

use crate::probe::{err, leg, mean, median, ns_since, peak_rss_mb, quantile, secs, timer_cost_ns};
use crate::{fastest_of, min_of, report_best_case, BestCase, Config, Report};

/// The campaigns: fixed, so every seed runs the same trials and the
/// digest can be pinned. `--seed` does not enter this workload.
const FIRST_SEED: u64 = 42;
const CAMPAIGNS: u64 = 16;
/// Pinned answer: FNV-1a over the `run_chaos` digests of the campaigns in
/// seed order. Every trial of every campaign is clean.
const EXPECTED_DIGEST: &str = "b395b2b989b5d03a";
const TRIALS: usize = 32;
const TRIAL_STEPS: u64 = 4000;
/// Threads of the timed campaigns. Two threads need both vCPUs of the
/// sizing host quiet at once; see README.md.
const TIMED_THREADS: usize = 1;
/// Threads of the digest check and of the traced fan-out.
const FANOUT_THREADS: usize = 2;
/// Compositions of all campaigns per set-up batch; a batch runs before
/// every pass over the campaigns.
const SETUP_REPS: usize = 5;
/// Trials (from the front of the campaigns) the traced legs re-run.
const LEG_TRIALS: usize = 128;
/// Trials whose state the traced snapshot probe encodes and restores.
const CHECKPOINT_TRIALS: usize = 16;
const SAMPLE_EVERY: u64 = 16;

fn call_run_chaos(seed: u64, cfg: &Config) -> Result<ChaosReport, String> {
    run_chaos(&ChaosConfig {
        trials: TRIALS,
        seed,
        steps: TRIAL_STEPS,
        out_dir: cfg.work_dir.join("chaos").display().to_string(),
        inject_fault: None,
    })
    .map_err(err)
}

fn seeds() -> impl Iterator<Item = u64> {
    FIRST_SEED..FIRST_SEED + CAMPAIGNS
}

/// The digest of a pass over the campaigns.
fn pass_digest(digests: &[String]) -> String {
    format!(
        "{:016x}",
        simqueue::checkpoint::fnv1a(digests.concat().as_bytes())
    )
}

/// One `run_chaos` call: checked clean, its digest kept for the pass.
fn campaign(seed: u64, cfg: &Config, report: &mut Report) -> Result<String, String> {
    let r = call_run_chaos(seed, cfg)?;
    report.check_eq(&format!("campaign {seed} violations"), r.violations, 0);
    report.check_eq(&format!("campaign {seed} clean trials"), r.clean, TRIALS);
    Ok(r.digest)
}

fn compose(seed: u64) -> Vec<Scenario> {
    (0..TRIALS)
        .map(|i| compose_trial(seed, i, TRIAL_STEPS))
        .collect()
}

pub fn run(cfg: &Config, report: &mut Report) -> Result<(), String> {
    if cfg.trace {
        return run_traced(cfg, report);
    }
    parpool::set_thread_override(Some(TIMED_THREADS));
    let start = Instant::now();
    let (mut passes, mut setups) = (Vec::new(), Vec::new());
    while passes.is_empty() || start.elapsed() < cfg.budget {
        let mut batch: Vec<f64> = (0..SETUP_REPS)
            .map(|_| {
                let t = Instant::now();
                for seed in seeds() {
                    black_box(compose(seed));
                }
                secs(t)
            })
            .collect();
        setups.push(median(&mut batch));
        let (mut times, mut digests) = (Vec::new(), Vec::new());
        for seed in seeds() {
            let t = Instant::now();
            digests.push(campaign(seed, cfg, report)?);
            times.push(secs(t));
        }
        report.check_eq(
            &format!("campaigns digest at {TIMED_THREADS} thread(s)"),
            pass_digest(&digests).as_str(),
            EXPECTED_DIGEST,
        );
        passes.push(times);
    }
    // Peak memory of the timed passes: the two-thread check below adds a
    // worker whose stack use depends on scheduling.
    report.set("peak_rss_mb", peak_rss_mb()?);
    parpool::set_thread_override(Some(FANOUT_THREADS));
    let digests = seeds()
        .map(|seed| campaign(seed, cfg, report))
        .collect::<Result<Vec<_>, _>>()?;
    report.check_eq(
        &format!("campaigns digest at {FANOUT_THREADS} threads"),
        pass_digest(&digests).as_str(),
        EXPECTED_DIGEST,
    );
    // Every trial is checked clean, so each ran to its horizon.
    let steps = CAMPAIGNS * TRIALS as u64 * TRIAL_STEPS;
    let chunks_ms: Vec<f64> = fastest_of(&passes).iter().map(|s| s * 1e3).collect();
    let wall_s = chunks_ms.iter().sum::<f64>() / 1e3;
    eprintln!("lggbench: {} passes over the campaigns", passes.len());
    report_best_case(
        BestCase {
            wall_s,
            stepping_s: wall_s,
            steps,
            chunks_ms,
            setup_s: min_of(setups),
        },
        report,
    );
    Ok(())
}

// The traced split below re-implements `run_chaos`'s per-trial path
// (`run_trial`, `classify`, `digest_outcomes` and the guard settings in
// crates/cli/src/chaos.rs), because `run_chaos` offers no hook to time a
// trial's parts. It must track that file. Its pass digest is checked
// against the pinned one, so a copy whose outcomes drift fails.

/// `run_chaos`'s per-trial backlog budget.
const TRIAL_MAX_BACKLOG: u64 = 100_000;

/// One trial's outcome, condensed as `run_chaos` condenses it.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Clean { steps: u64, sup_total: u64 },
    Budget { kind: BudgetKind, steps: u64 },
    BuildError(String),
    Violated { step: u64, kind: &'static str },
}

/// `run_chaos`'s campaign digest: FNV-1a over outcomes in trial order.
fn digest(outcomes: &[Outcome]) -> String {
    let mut bytes = Vec::new();
    for o in outcomes {
        let (words, text): (Vec<u64>, &str) = match o {
            Outcome::Clean { steps, sup_total } => (vec![0, *steps, *sup_total], ""),
            Outcome::Budget { kind, steps } => {
                let k = match kind {
                    BudgetKind::Steps => 1,
                    BudgetKind::Backlog => 2,
                    BudgetKind::WallClock => 3,
                };
                (vec![1, k, *steps], "")
            }
            Outcome::BuildError(msg) => (vec![2], msg),
            Outcome::Violated { step, kind } => (vec![3, *step], kind),
        };
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes.extend_from_slice(text.as_bytes());
    }
    format!("{:016x}", simqueue::checkpoint::fnv1a(&bytes))
}

fn trial_guard() -> GuardConfig {
    let mut cfg = GuardConfig::checks();
    cfg.max_backlog = Some(TRIAL_MAX_BACKLOG);
    cfg
}

fn overrides() -> SimOverrides {
    SimOverrides {
        history: Some(HistoryMode::None),
        ..SimOverrides::default()
    }
}

/// What one trial did and how long its parts took.
struct TrialRun {
    outcome: Outcome,
    steps: u64,
    sent: u64,
    rejected: u64,
    spec_s: f64,
    build_s: f64,
    run_s: f64,
    assess_s: f64,
}

/// One chaos trial, as `run_chaos` runs it: spec, guard, build, guarded
/// run to the horizon. `traced` times the parts and the online verdict.
fn run_trial(sc: &Scenario, traced: bool) -> TrialRun {
    let now = || traced.then(Instant::now);
    let since = |t: Option<Instant>| t.map_or(0.0, secs);
    let t = now();
    let built = sc.traffic_spec().and_then(|spec| {
        let spec_s = since(t);
        let guard = InvariantGuard::with_inner(&spec, trial_guard(), NoopObserver);
        sc.build_with_observer(overrides(), guard)
            .map(|sim| (sim, spec_s))
    });
    let mut run = TrialRun {
        outcome: Outcome::BuildError(String::new()),
        steps: 0,
        sent: 0,
        rejected: 0,
        spec_s: 0.0,
        build_s: since(t),
        run_s: 0.0,
        assess_s: 0.0,
    };
    let (mut sim, spec_s) = match built {
        Ok(x) => x,
        Err(e) => {
            run.outcome = Outcome::BuildError(e.to_string());
            return run;
        }
    };
    run.spec_s = spec_s;
    let t = now();
    let result = sim.run_guarded(TRIAL_STEPS, None, None);
    run.run_s = since(t);
    if traced {
        let t = Instant::now();
        black_box(sim.observer().online_report());
        run.assess_s = secs(t);
    }
    run.steps = sim.time();
    run.sent = sim.metrics().sent;
    run.rejected = sim.metrics().rejected_plans;
    run.outcome = match result {
        Err(e) => Outcome::BuildError(e.to_string()),
        Ok(report) => match report.outcome {
            GuardOutcome::Completed => Outcome::Clean {
                steps: report.steps,
                sup_total: report.stability.sup_total,
            },
            GuardOutcome::BudgetExceeded(kind) => Outcome::Budget {
                kind,
                steps: report.steps,
            },
            GuardOutcome::Violated(v) => Outcome::Violated {
                step: v.step,
                kind: v.kind.as_str(),
            },
        },
    };
    run
}

/// Every campaign through the copied trial path, one `run_ordered`
/// fan-out per campaign at [`FANOUT_THREADS`].
struct Fanout {
    wall_s: f64,
    /// Per campaign: each trial's run and its wall time in ns.
    campaigns: Vec<Vec<(TrialRun, f64)>>,
}

impl Fanout {
    fn trials(&self) -> impl Iterator<Item = &(TrialRun, f64)> {
        self.campaigns.iter().flatten()
    }

    fn steps(&self) -> u64 {
        self.trials().map(|(t, _)| t.steps).sum()
    }
}

fn fan_out(campaigns: &[Vec<Scenario>], traced: bool) -> Fanout {
    parpool::set_thread_override(Some(FANOUT_THREADS));
    let start = Instant::now();
    let campaigns = campaigns
        .iter()
        .map(|scenarios| {
            parpool::run_ordered(scenarios.iter().collect(), |sc| {
                let t = Instant::now();
                let run = run_trial(sc, traced);
                (run, ns_since(t))
            })
        })
        .collect();
    Fanout {
        wall_s: secs(start),
        campaigns,
    }
}

fn check_fanout(f: &Fanout, report: &mut Report) {
    let mut digests = Vec::new();
    for (trials, seed) in f.campaigns.iter().zip(seeds()) {
        let outcomes: Vec<Outcome> = trials.iter().map(|(t, _)| t.outcome.clone()).collect();
        let clean = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Clean { .. }))
            .count();
        report.check_eq(&format!("campaign {seed} clean trials"), clean, TRIALS);
        digests.push(digest(&outcomes));
    }
    report.check_eq(
        "campaigns digest through the copied trial path",
        pass_digest(&digests).as_str(),
        EXPECTED_DIGEST,
    );
}

fn run_traced(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let timer_ns = timer_cost_ns();
    report.set("trace.timer_ns", timer_ns);
    let campaigns: Vec<Vec<Scenario>> = seeds().map(compose).collect();

    let plain = fan_out(&campaigns, false);
    check_fanout(&plain, report);
    let traced = fan_out(&campaigns, true);
    check_fanout(&traced, report);
    report.set("trace.overhead", traced.wall_s / plain.wall_s - 1.0);

    let runs: Vec<&TrialRun> = traced.trials().map(|(t, _)| t).collect();
    let busy: f64 = traced.trials().map(|(_, ns)| ns / 1e9).sum();
    let efficiency = busy / (FANOUT_THREADS as f64 * traced.wall_s);
    report.set("parpool.efficiency", efficiency);
    report.set("parpool.idle_share", 1.0 - efficiency);
    let mut build: Vec<f64> = runs.iter().map(|t| t.build_s).collect();
    let mut run: Vec<f64> = runs.iter().map(|t| t.run_s).collect();
    let mut spec: Vec<f64> = runs.iter().map(|t| t.spec_s).collect();
    let mut engine_build: Vec<f64> = runs.iter().map(|t| t.build_s - t.spec_s).collect();
    let mut assess: Vec<f64> = runs.iter().map(|t| t.assess_s).collect();
    report.set("campaign.build_us_per_trial", median(&mut build) * 1e6);
    report.set("campaign.run_us_per_trial", median(&mut run) * 1e6);
    report.set("scenario.spec_build_ms", median(&mut spec) * 1e3);
    report.set("engine.build_ms", median(&mut engine_build) * 1e3);
    report.set("stability.assess_us", median(&mut assess) * 1e6);
    let steps = traced.steps() as f64;
    report.set(
        "engine.sent_per_step",
        runs.iter().map(|t| t.sent).sum::<u64>() as f64 / steps,
    );
    report.set(
        "engine.rejected_per_step",
        runs.iter().map(|t| t.rejected).sum::<u64>() as f64 / steps,
    );
    // Chaos trials are built by `Scenario::build`, which offers no hook
    // for a timed protocol, and never parse or classify a scenario file.
    for name in [
        "plan.ns_per_step",
        "plan.share",
        "plan.entries_per_step",
        "engine.self_ns_per_step",
        "scenario.parse_us",
        "netmodel.classify_ms",
        "maxflow.dinic_solve_us",
    ] {
        report.set(name, 0.0);
    }

    // Legs on the front of the campaigns, on this thread: no observer,
    // window telemetry, the trial guard, and 1-in-16 step sampling.
    let (mut off, mut window, mut guard) = (0.0, 0.0, 0.0);
    let (mut step_ns, mut active) = (Vec::new(), Vec::new());
    let (mut encode, mut write, mut restore) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0usize;
    let dir = cfg.work_dir.join("probe");
    let front = campaigns
        .iter()
        .flatten()
        .zip(traced.trials())
        .take(LEG_TRIALS);
    for (i, (sc, (run, _))) in front.enumerate() {
        let n = run.steps;
        let mut plain = sc
            .build_with_observer(overrides(), NoopObserver)
            .map_err(err)?;
        off += leg(&mut plain, n);
        let mut win = sc
            .build_with_observer(overrides(), WindowAggregator::new(256))
            .map_err(err)?;
        window += leg(&mut win, n);
        let spec = sc.traffic_spec().map_err(err)?;
        let checks = InvariantGuard::with_inner(&spec, trial_guard(), NoopObserver);
        let mut guarded = sc.build_with_observer(overrides(), checks).map_err(err)?;
        let t = Instant::now();
        guarded.run_guarded(n, None, None).map_err(err)?;
        guard += secs(t);

        let mut sim = sc
            .build_with_observer(overrides(), NoopObserver)
            .map_err(err)?;
        while sim.time() < n {
            if sim.time().is_multiple_of(SAMPLE_EVERY) {
                active.push(sim.active_node_count() as f64);
                let t = Instant::now();
                sim.step();
                step_ns.push((ns_since(t) - timer_ns).max(0.0));
            } else {
                sim.step();
            }
        }

        if i < CHECKPOINT_TRIALS {
            let t = Instant::now();
            bytes += win.checkpoint_payload().len();
            encode.push(secs(t));
            let _ = std::fs::remove_dir_all(&dir);
            let t = Instant::now();
            win.write_checkpoint_to(&dir).map_err(err)?;
            write.push(secs(t));
            let mut back = sc
                .build_with_observer(overrides(), WindowAggregator::new(256))
                .map_err(err)?;
            let t = Instant::now();
            let from = back.resume_from_dir(&dir).map_err(err)?;
            restore.push(secs(t));
            report.check(
                from == Some(win.time()) && back.queues() == win.queues(),
                || format!("trial {i}: restored snapshot differs"),
            );
        }
    }
    let leg_steps: u64 = traced.trials().take(LEG_TRIALS).map(|(t, _)| t.steps).sum();
    report.set("observer.enabled_overhead", window / off - 1.0);
    report.set("guard.overhead", guard / off - 1.0);
    report.set("guard.ns_per_step", (guard - off) * 1e9 / leg_steps as f64);
    report.set("engine.step_ns_p50", quantile(&mut step_ns, 0.5));
    report.set("engine.step_ns_p99", quantile(&mut step_ns, 0.99));
    report.set("engine.active_nodes_mean", mean(&active));
    report.set("checkpoint.encode_ms", median(&mut encode) * 1e3);
    report.set("checkpoint.write_ms", median(&mut write) * 1e3);
    report.set("checkpoint.bytes", bytes as f64 / CHECKPOINT_TRIALS as f64);
    report.set("checkpoint.restore_ms", median(&mut restore) * 1e3);
    Ok(())
}
