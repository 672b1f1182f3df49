//! `lgg-sim`: run a JSON scenario file through the LGG simulator.

use std::fs;
use std::process::ExitCode;

use lgg_cli::{
    capture_trace, check_observer_baseline, fnv1a_digest, replay_reproducer, run_bench_suite,
    run_chaos, run_scenario, run_sweep, run_with_checkpoints, trace_smoke_scenario,
    write_sweep_into_bench, BenchReport, ChaosConfig, LggError, RunConfig, Scenario, SweepConfig,
};

/// Print a typed error and exit with its dedicated code (see
/// [`LggError::exit_code`]): scenario 2, parse 3, I/O 4, graph/model 5,
/// corrupt checkpoint 6, checkpoint version 7, checkpoint mismatch 8,
/// invariant violation 9.
fn fail(e: &LggError) -> ExitCode {
    eprintln!("{e}");
    ExitCode::from(e.exit_code())
}

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
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("bench") {
        return run_bench(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("sweep") {
        return run_sweep_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("trace") {
        return run_trace_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("run") {
        return run_run_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("chaos") {
        return run_chaos_cmd(&args[1..]);
    }
    let mut json_out = false;
    let mut path: Option<String> = None;
    for a in &args {
        match a.as_str() {
            "--json" => json_out = true,
            "--template" => {
                println!("{TEMPLATE}");
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        print_help();
        return ExitCode::FAILURE;
    };
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scenario = match Scenario::from_json(&text) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    match run_scenario(&scenario) {
        Ok(report) => {
            if json_out {
                println!("{}", serde_json::to_string_pretty(&report).expect("serializable"));
            } else {
                print!("{}", report.human());
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

/// `lgg-sim run SCENARIO.json [--steps N] [--checkpoint-every N]
/// [--checkpoint-dir D] [--resume] [--trace FILE] [--sample-every N]
/// [--kill-after N] [--guard] [--guard-dump DIR] [--max-backlog N]
/// [--max-wall-ms N] [--inject-fault STEP]`: run a scenario with
/// crash-safe checkpoints. `--resume` continues from the newest readable
/// snapshot in D and is bit-for-bit identical to an uninterrupted run,
/// including the `--trace` artifact. `--kill-after` aborts the process
/// hard after N steps (used by the CI crash-recovery smoke leg).
/// `--guard` runs under the runtime invariant monitor: a violation dumps
/// a replayable reproducer + checkpoint into the `--guard-dump` dir
/// (default `results/chaos`) and exits with code 9; `--max-backlog` /
/// `--max-wall-ms` abort gracefully with a partial stability verdict;
/// `--inject-fault` plants a synthetic conservation bug (test hook).
fn run_run_cmd(args: &[String]) -> ExitCode {
    let mut cfg = RunConfig {
        sample_stride: 1,
        ..RunConfig::default()
    };
    let mut path: Option<String> = None;
    let mut json_out = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_out = true,
            "--resume" => cfg.resume = true,
            "--steps" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => cfg.steps = Some(n),
                None => {
                    eprintln!("--steps needs a non-negative integer");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint-every" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => cfg.checkpoint_every = Some(n),
                _ => {
                    eprintln!("--checkpoint-every needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint-dir" => match it.next() {
                Some(v) => cfg.checkpoint_dir = Some(v.clone()),
                None => {
                    eprintln!("--checkpoint-dir needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match it.next() {
                Some(v) => cfg.trace = Some(v.clone()),
                None => {
                    eprintln!("--trace needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--sample-every" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => cfg.sample_stride = n,
                _ => {
                    eprintln!("--sample-every needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--kill-after" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => cfg.kill_after = Some(n),
                None => {
                    eprintln!("--kill-after needs a non-negative integer");
                    return ExitCode::FAILURE;
                }
            },
            "--guard" => cfg.guard = true,
            "--guard-dump" => match it.next() {
                Some(v) => cfg.guard_dump = Some(v.clone()),
                None => {
                    eprintln!("--guard-dump needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--inject-fault" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => cfg.inject_fault = Some(n),
                None => {
                    eprintln!("--inject-fault needs a non-negative step");
                    return ExitCode::FAILURE;
                }
            },
            "--max-backlog" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => cfg.max_backlog = Some(n),
                _ => {
                    eprintln!("--max-backlog needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--max-wall-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => cfg.max_wall_ms = Some(n),
                _ => {
                    eprintln!("--max-wall-ms needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            other if !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("unknown run flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("run needs a scenario file");
        return ExitCode::FAILURE;
    };
    cfg.scenario_path = path;
    match run_with_checkpoints(&cfg) {
        Ok(summary) => {
            if json_out {
                println!(
                    "{{\"steps\":{},\"resumed_from\":{},\"injected\":{},\"delivered\":{},\
                     \"lost\":{},\"final_pt\":{},\"sup_pt\":{}}}",
                    summary.steps,
                    summary
                        .resumed_from
                        .map_or("null".to_string(), |t| t.to_string()),
                    summary.injected,
                    summary.delivered,
                    summary.lost,
                    summary.final_pt,
                    summary.sup_pt
                );
            } else {
                println!("{}", summary.human());
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

/// `lgg-sim chaos [--smoke] [--trials N] [--steps N] [--seed N]
/// [--out DIR] [--inject-fault STEP] [--replay FILE]`: seeded adversarial
/// campaign across the fault space (topology × injection × loss × churn ×
/// liar declarations), every trial guarded, violations shrunk to minimal
/// reproducers in DIR (default `results/chaos`). Exits 9 when any trial
/// violates an invariant. `--replay FILE` re-runs one reproducer and
/// exits 9 iff the recorded violation re-triggers at the recorded step.
/// Trial count and parallelism (`LGG_THREADS`) never change outcomes —
/// the printed digest is the cross-thread determinism witness CI checks.
fn run_chaos_cmd(args: &[String]) -> ExitCode {
    let mut smoke = false;
    let mut replay: Option<String> = None;
    let mut trials: Option<usize> = None;
    let mut steps: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut inject_fault: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--replay" => match it.next() {
                Some(v) => replay = Some(v.clone()),
                None => {
                    eprintln!("--replay needs a reproducer file");
                    return ExitCode::FAILURE;
                }
            },
            "--trials" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => trials = Some(n),
                _ => {
                    eprintln!("--trials needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--steps" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => steps = Some(n),
                _ => {
                    eprintln!("--steps needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => seed = Some(n),
                None => {
                    eprintln!("--seed needs a non-negative integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => {
                    eprintln!("--out needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--inject-fault" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => inject_fault = Some(n),
                None => {
                    eprintln!("--inject-fault needs a non-negative step");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown chaos flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(file) = replay {
        return match replay_reproducer(&file) {
            Ok(Some(v)) => {
                println!(
                    "chaos replay: violation reproduced — {} at step {}",
                    v.kind, v.step
                );
                ExitCode::from(9)
            }
            Ok(None) => {
                eprintln!("chaos replay: recorded violation did NOT reproduce (stale reproducer?)");
                ExitCode::FAILURE
            }
            Err(e) => fail(&e),
        };
    }
    let mut cfg = if smoke {
        ChaosConfig::smoke()
    } else {
        ChaosConfig::default()
    };
    if let Some(n) = trials {
        cfg.trials = n;
    }
    if let Some(n) = steps {
        cfg.steps = n;
    }
    if let Some(n) = seed {
        cfg.seed = n;
    }
    if let Some(d) = out {
        cfg.out_dir = d;
    }
    cfg.inject_fault = inject_fault;
    match run_chaos(&cfg) {
        Ok(report) => {
            println!(
                "chaos: {} trials  clean {}  budget-stopped {}  build-errors {}  violations {}  digest {}",
                report.trials,
                report.clean,
                report.budget,
                report.build_errors,
                report.violations,
                report.digest
            );
            for r in &report.reproducers {
                println!("chaos: reproducer {r}");
            }
            if report.violations > 0 {
                ExitCode::from(9)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => fail(&e),
    }
}

/// `lgg-sim bench [--quick] [--out FILE] [--scenarios DIR] [--baseline FILE]`:
/// run the fixed throughput suite and write `BENCH_throughput.json`.
/// With `--baseline`, additionally fail if the disabled-observer leg
/// regressed more than 2% below the numbers recorded in FILE.
fn run_bench(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut out = String::from("BENCH_throughput.json");
    let mut scenario_dir = String::from("scenarios");
    let mut baseline: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(v) => out = v.clone(),
                None => {
                    eprintln!("--out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--scenarios" => match it.next() {
                Some(v) => scenario_dir = v.clone(),
                None => {
                    eprintln!("--scenarios needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--baseline" => match it.next() {
                Some(v) => baseline = Some(v.clone()),
                None => {
                    eprintln!("--baseline needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown bench flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Read the baseline before the suite overwrites the default --out
    // (they are usually the same file).
    let baseline = match baseline {
        None => None,
        Some(path) => {
            let parsed = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))
                .and_then(|text| {
                    serde_json::from_str::<BenchReport>(&text)
                        .map_err(|e| format!("baseline {path} does not parse: {e}"))
                });
            match parsed {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    match run_bench_suite(&scenario_dir, quick) {
        Ok(mut report) => {
            // Keep a previously recorded sweep section: the two commands
            // own disjoint parts of the same file.
            if let Ok(old) = fs::read_to_string(&out) {
                if let Ok(prev) = serde_json::from_str::<BenchReport>(&old) {
                    report.sweep = prev.sweep;
                }
            }
            let json = serde_json::to_string_pretty(&report).expect("serializable");
            if let Err(e) = fs::write(&out, format!("{json}\n")) {
                eprintln!("cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            for c in &report.cases {
                println!(
                    "{:<22} {:>7} nodes+edges  {:>12.1} steps/s  {:.3} ns/(node+edge)/step",
                    c.name,
                    c.nodes + c.edges,
                    c.throughput.steps_per_sec,
                    c.throughput.ns_per_node_edge_step
                );
            }
            if let Some(obs) = &report.observer {
                println!(
                    "observer overhead on {}: off {:.1} steps/s  ring {:.1} ({:.3} of off)  window {:.1} ({:.3} of off)",
                    obs.case,
                    obs.off.steps_per_sec,
                    obs.ring.steps_per_sec,
                    obs.ring_vs_off,
                    obs.window.steps_per_sec,
                    obs.window_vs_off
                );
            }
            if let Some(g) = &report.guard {
                println!(
                    "guard overhead on {}: off {:.1} steps/s  guarded {:.1} ({:.3} of off)",
                    g.case, g.off.steps_per_sec, g.guarded.steps_per_sec, g.guarded_vs_off
                );
            }
            println!("wrote {out}");
            if let Some(baseline) = &baseline {
                if let Err(e) = check_observer_baseline(&report, baseline) {
                    return fail(&e);
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

/// `lgg-sim trace [SCENARIO.json | --smoke] [--out FILE] [--steps N]
/// [--sample-every N]`: stream the per-step event trace as JSON Lines to
/// stdout (or FILE). `--smoke` runs the built-in 3×3 smoke scenario
/// twice, verifies the captures are byte-identical, and prints the line
/// count and FNV-1a digest instead of the trace.
fn run_trace_cmd(args: &[String]) -> ExitCode {
    let mut path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut steps: Option<u64> = None;
    let mut sample_every: u64 = 1;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => {
                    eprintln!("--out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--steps" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => steps = Some(n),
                None => {
                    eprintln!("--steps needs a non-negative integer");
                    return ExitCode::FAILURE;
                }
            },
            "--sample-every" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => sample_every = n,
                _ => {
                    eprintln!("--sample-every needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            other if !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("unknown trace flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let scenario = if smoke {
        trace_smoke_scenario()
    } else {
        let Some(path) = path else {
            eprintln!("trace needs a scenario file (or --smoke)");
            return ExitCode::FAILURE;
        };
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match Scenario::from_json(&text) {
            Ok(s) => s,
            Err(e) => return fail(&e),
        }
    };
    let steps = steps.unwrap_or(scenario.steps);
    let bytes = match capture_trace(&scenario, steps, sample_every) {
        Ok(b) => b,
        Err(e) => return fail(&e),
    };
    if smoke {
        // Self-checking: a second capture must be byte-identical — this
        // is the determinism witness CI records.
        match capture_trace(&scenario, steps, sample_every) {
            Ok(again) if again == bytes => {}
            Ok(_) => {
                eprintln!("trace smoke FAILED: two captures differ; determinism is broken");
                return ExitCode::FAILURE;
            }
            Err(e) => return fail(&e),
        }
        let lines = bytes.iter().filter(|&&b| b == b'\n').count();
        println!("trace smoke ok: {steps} steps, {lines} events, digest {}", fnv1a_digest(&bytes));
        if out.is_none() {
            return ExitCode::SUCCESS;
        }
    }
    match out {
        Some(file) => {
            if let Err(e) = fs::write(&file, &bytes) {
                eprintln!("cannot write {file}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {file}");
            ExitCode::SUCCESS
        }
        None => {
            use std::io::Write;
            let mut stdout = std::io::stdout().lock();
            if let Err(e) = stdout.write_all(&bytes) {
                eprintln!("cannot write trace to stdout: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
    }
}

/// `lgg-sim sweep [--smoke] [--out FILE] [--scenarios DIR] [--threads N]`:
/// run the 12-item scenario × seed × rate grid serially and across the
/// work-stealing pool, check bit-for-bit agreement, and record wall-clock
/// numbers in the `sweep` section of the bench file.
fn run_sweep_cmd(args: &[String]) -> ExitCode {
    let mut cfg = SweepConfig::default();
    let mut out = String::from("BENCH_throughput.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => cfg.smoke = true,
            "--out" => match it.next() {
                Some(v) => out = v.clone(),
                None => {
                    eprintln!("--out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--scenarios" => match it.next() {
                Some(v) => cfg.scenario_dir = v.clone(),
                None => {
                    eprintln!("--scenarios needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.threads = Some(n),
                _ => {
                    eprintln!("--threads needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown sweep flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    match run_sweep(&cfg) {
        Ok(report) => {
            println!(
                "sweep: {} items  serial {:.3}s  parallel {:.3}s ({} threads)  \
                 speedup x{:.2}  efficiency {:.2}  digest {}",
                report.items,
                report.serial_secs,
                report.parallel_secs,
                report.threads,
                report.speedup,
                report.per_core_efficiency,
                report.digest
            );
            if let Err(e) = write_sweep_into_bench(&out, report) {
                return fail(&e);
            }
            println!("wrote {out}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn print_help() {
    println!(
        "lgg-sim — run an LGG-routing scenario from a JSON file\n\n\
         USAGE: lgg-sim SCENARIO.json [--json]\n\
         \u{20}      lgg-sim --template   # print a starter scenario\n\
         \u{20}      lgg-sim bench [--quick] [--out FILE] [--scenarios DIR] [--baseline FILE]\n\
         \u{20}                           # throughput suite -> BENCH_throughput.json;\n\
         \u{20}                           # --baseline gates observer overhead at 2%\n\
         \u{20}      lgg-sim sweep [--smoke] [--out FILE] [--scenarios DIR] [--threads N]\n\
         \u{20}                           # parallel parameter grid, serial-vs-parallel\n\
         \u{20}                           # wall clock -> sweep section of the bench file\n\
         \u{20}      lgg-sim trace [SCENARIO.json | --smoke] [--out FILE] [--steps N] [--sample-every N]\n\
         \u{20}                           # per-step event trace as JSON Lines\n\
         \u{20}      lgg-sim run SCENARIO.json [--steps N] [--checkpoint-every N] [--checkpoint-dir D]\n\
         \u{20}                  [--resume] [--trace FILE] [--sample-every N] [--json]\n\
         \u{20}                  [--guard] [--guard-dump DIR] [--max-backlog N] [--max-wall-ms N]\n\
         \u{20}                           # long run with crash-safe snapshots; --resume\n\
         \u{20}                           # continues bit-for-bit from the newest snapshot;\n\
         \u{20}                           # --guard checks invariants every step and exits 9\n\
         \u{20}                           # on violation with a replayable reproducer\n\
         \u{20}      lgg-sim chaos [--smoke] [--trials N] [--steps N] [--seed N] [--out DIR]\n\
         \u{20}                  [--replay FILE]\n\
         \u{20}                           # seeded adversarial campaign; violations are\n\
         \u{20}                           # shrunk to minimal reproducers in results/chaos\n\n\
         The scenario format covers topology, sources/sinks/R-generalized\n\
         nodes, protocol (lgg, matching-lgg, maxflow-routing, shortest-path,\n\
         flood, random-forward), arrival processes, loss models, topology\n\
         dynamics, lying/extraction policies, steps, seed and age tracking."
    );
}
