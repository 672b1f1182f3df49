//! `lgg-sim`: run a JSON scenario file through the LGG simulator.
//!
//! Flags are read against the table in [`lgg_cli::args`]; every failure
//! is an [`LggError`] and exits with its code (see
//! [`LggError::exit_code`]). Besides those, `chaos` exits 9 when a trial
//! or a `--replay` hits a violation, and 1 when a `--replay` does not.

use std::fs;
use std::process::ExitCode;

use lgg_cli::args::{self, write_stdout, Args};
use lgg_cli::{
    capture_trace, check_observer_baseline, fnv1a_digest, replay_reproducer, run_bench_suite,
    run_chaos, run_scenario, run_with_checkpoints, trace_smoke_scenario, BenchReport, ChaosConfig,
    LggError, RunConfig, Scenario,
};

const TEMPLATE: &str = r#"{
  "topology": {"kind": "dumbbell", "clique": 4, "bridge": 2},
  "sources": [{"node": 0, "rate": 1}],
  "sinks":   [{"node": 9, "rate": 4}],
  "generalized": [],
  "retention": 0,
  "protocol": "lgg",
  "injection": {"kind": "exact"},
  "loss": {"kind": "none"},
  "dynamics": {"kind": "static"},
  "declaration": "truthful",
  "extraction": "max",
  "steps": 50000,
  "seed": 7,
  "track_ages": true
}"#;

fn main() -> ExitCode {
    let title = "lgg-sim — run an LGG-routing scenario from a JSON file";
    args::main(args::LGG_SIM, title, |a| match a.command() {
        "run" => run_cmd(a),
        "chaos" => chaos_cmd(a),
        "bench" => bench_cmd(a),
        "trace" => trace_cmd(a),
        _ => scenario_cmd(a),
    })
}

fn read_scenario(path: &str) -> Result<Scenario, LggError> {
    let text =
        fs::read_to_string(path).map_err(|e| LggError::io(format!("cannot read {path}"), e))?;
    Scenario::from_json(&text)
}

/// The bare path: `--template`, or run a scenario file.
fn scenario_cmd(a: &Args) -> Result<ExitCode, LggError> {
    if a.switch("--template") {
        write_stdout(format!("{TEMPLATE}\n"))?;
    } else {
        let report = run_scenario(&read_scenario(a.operand()?)?)?;
        if a.switch("--json") {
            let json = serde_json::to_string_pretty(&report).expect("serializable");
            write_stdout(format!("{json}\n"))?;
        } else {
            write_stdout(report.human())?;
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `lgg-sim run`: one [`RunConfig`] field per flag, run by
/// [`run_with_checkpoints`], which also checks the flag combinations.
fn run_cmd(a: &Args) -> Result<ExitCode, LggError> {
    let summary = run_with_checkpoints(&RunConfig {
        scenario_path: a.operand()?.to_string(),
        steps: a.uint("--steps"),
        checkpoint_every: a.uint("--checkpoint-every"),
        checkpoint_dir: a.text("--checkpoint-dir"),
        resume: a.switch("--resume"),
        trace: a.text("--trace"),
        sample_stride: a.uint("--sample-every").unwrap_or(1),
        kill_after: a.uint("--kill-after"),
        guard: a.switch("--guard"),
        guard_dump: a.text("--guard-dump"),
        inject_fault: a.uint("--inject-fault"),
        max_backlog: a.uint("--max-backlog"),
        max_wall_ms: a.uint("--max-wall-ms"),
    })?;
    if a.switch("--json") {
        write_stdout(format!(
            "{{\"steps\":{},\"resumed_from\":{},\"injected\":{},\"delivered\":{},\
             \"lost\":{},\"final_pt\":{},\"sup_pt\":{}}}\n",
            summary.steps,
            summary
                .resumed_from
                .map_or("null".to_string(), |t| t.to_string()),
            summary.injected,
            summary.delivered,
            summary.lost,
            summary.final_pt,
            summary.sup_pt
        ))?;
    } else {
        write_stdout(format!("{}\n", summary.human()))?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `lgg-sim chaos`: exits 9 when any trial violates an invariant.
/// `--replay FILE` exits 9 iff the recorded violation re-triggers at the
/// recorded step, and 1 if it does not. The printed digest is the
/// cross-thread determinism witness CI checks.
fn chaos_cmd(a: &Args) -> Result<ExitCode, LggError> {
    if let Some(file) = a.text("--replay") {
        let Some(v) = replay_reproducer(&file)? else {
            eprintln!("chaos replay: recorded violation did NOT reproduce (stale reproducer?)");
            return Ok(ExitCode::FAILURE);
        };
        write_stdout(format!(
            "chaos replay: violation reproduced — {} at step {}\n",
            v.kind, v.step
        ))?;
        return Ok(ExitCode::from(9));
    }
    let mut cfg = if a.switch("--smoke") {
        ChaosConfig::smoke()
    } else {
        ChaosConfig::default()
    };
    cfg.trials = a.count("--trials").unwrap_or(cfg.trials);
    cfg.steps = a.uint("--steps").unwrap_or(cfg.steps);
    cfg.seed = a.uint("--seed").unwrap_or(cfg.seed);
    cfg.out_dir = a.text("--out").unwrap_or(cfg.out_dir);
    cfg.inject_fault = a.uint("--inject-fault");
    let report = run_chaos(&cfg)?;
    let mut text = format!(
        "chaos: {} trials  clean {}  budget-stopped {}  build-errors {}  violations {}  digest {}\n",
        report.trials,
        report.clean,
        report.budget,
        report.build_errors,
        report.violations,
        report.digest
    );
    for r in &report.reproducers {
        text += &format!("chaos: reproducer {r}\n");
    }
    write_stdout(text)?;
    Ok(if report.violations > 0 {
        ExitCode::from(9)
    } else {
        ExitCode::SUCCESS
    })
}

/// `lgg-sim bench`: run the suite into `--out` and print its rows and
/// what they imply; with `--baseline`, fail if the disabled-observer leg
/// is more than 2% slower than the one recorded there.
fn bench_cmd(a: &Args) -> Result<ExitCode, LggError> {
    let out = a
        .text("--out")
        .unwrap_or_else(|| "BENCH_throughput.json".into());
    // Read the baseline before the suite overwrites the default --out
    // (they are usually the same file).
    let baseline = match a.text("--baseline") {
        None => None,
        Some(path) => {
            let text = fs::read_to_string(&path)
                .map_err(|e| LggError::io(format!("cannot read baseline {path}"), e))?;
            let b = serde_json::from_str::<BenchReport>(&text)
                .map_err(|e| LggError::Parse(format!("baseline {path} does not parse: {e}")))?;
            Some(b)
        }
    };
    let scenario_dir = a.text("--scenarios").unwrap_or_else(|| "scenarios".into());
    let (report, summary) = run_bench_suite(&scenario_dir, a.switch("--quick"))?;
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    fs::write(&out, format!("{json}\n"))
        .map_err(|e| LggError::io(format!("cannot write {out}"), e))?;
    let mut text = String::new();
    for r in &report.rows {
        text += &format!(
            "{:<52} {:>14.1} ns/iter  ({} iters)\n",
            r.name, r.ns_per_iter, r.iters
        );
    }
    text += &format!("{summary}wrote {out}\n");
    write_stdout(text)?;
    if let Some(baseline) = &baseline {
        check_observer_baseline(&report, baseline)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `lgg-sim trace`: the JSONL event trace to stdout or `--out`. `--smoke`
/// captures the built-in scenario twice, checks the captures are
/// byte-identical, and prints the line count and digest instead.
fn trace_cmd(a: &Args) -> Result<ExitCode, LggError> {
    let scenario = match a.operand_unless("--smoke")? {
        None => trace_smoke_scenario(),
        Some(path) => read_scenario(path)?,
    };
    let steps = a.uint("--steps").unwrap_or(scenario.steps);
    let sample_every = a.uint("--sample-every").unwrap_or(1);
    let bytes = capture_trace(&scenario, steps, sample_every)?;
    let out = a.text("--out");
    if a.switch("--smoke") {
        // Self-checking: a second capture must be byte-identical — this
        // is the determinism witness CI records.
        if capture_trace(&scenario, steps, sample_every)? != bytes {
            return Err(LggError::SelfCheck(
                "trace smoke: two captures differ; determinism is broken".into(),
            ));
        }
        let lines = bytes.iter().filter(|&&b| b == b'\n').count();
        let digest = fnv1a_digest(&bytes);
        write_stdout(format!(
            "trace smoke ok: {steps} steps, {lines} events, digest {digest}\n"
        ))?;
        if out.is_none() {
            return Ok(ExitCode::SUCCESS);
        }
    }
    match out {
        Some(file) => {
            fs::write(&file, &bytes)
                .map_err(|e| LggError::io(format!("cannot write {file}"), e))?;
            eprintln!("wrote {file}");
        }
        None => write_stdout(&bytes)?,
    }
    Ok(ExitCode::SUCCESS)
}
