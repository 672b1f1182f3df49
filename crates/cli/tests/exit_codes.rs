//! `lgg-sim`'s process exit codes, checked on the built binary: a bad
//! command line exits with the usage code, an unreadable input or a
//! closed stdout with the I/O code, whichever subcommand met it, a rate
//! past the classifier's bound with the model code, and `--help` on any
//! subcommand with 0.

use std::process::{Command, Stdio};

const USAGE: i32 = 64;
const IO: i32 = 4;
const MODEL: i32 = 5;

fn lgg_sim(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lgg-sim"));
    cmd.args(args).stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

fn exit_code(args: &[&str]) -> i32 {
    let status = lgg_sim(args).status().expect("spawn lgg-sim");
    status.code().expect("exited normally")
}

#[test]
fn bad_command_lines_exit_with_the_usage_code() {
    assert_eq!(exit_code(&["--no-such-flag"]), USAGE);
    assert_eq!(exit_code(&["run", "x.json", "--no-such-flag"]), USAGE);
    assert_eq!(exit_code(&["chaos", "--trials", "0"]), USAGE);
    assert_eq!(exit_code(&["trace", "--smoke", "x.json"]), USAGE);
    assert_eq!(exit_code(&[]), USAGE);
    // Flag combinations are checked before the scenario is read.
    assert_eq!(exit_code(&["run", "missing.json", "--resume"]), USAGE);
}

#[test]
fn help_on_any_subcommand_prints_its_usage_and_exits_zero() {
    for (args, usage) in [
        (&["run", "--help"][..], "usage: lgg-sim run SCENARIO.json"),
        (&["chaos", "--help"], "usage: lgg-sim chaos [--smoke]"),
        (
            &["trace", "x.json", "-h"],
            "usage: lgg-sim trace [SCENARIO.json]",
        ),
        (&["--help"], "lgg-sim SCENARIO.json"),
    ] {
        let out = lgg_sim(args).stdout(Stdio::piped()).output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
        assert!(stdout.contains(usage), "{args:?}: {stdout}");
    }
}

#[test]
fn an_unreadable_scenario_is_an_io_error_bare_and_under_run() {
    let missing = std::env::temp_dir().join("lgg-sim-exit-codes-no-such-scenario.json");
    let missing = missing.to_str().expect("utf-8 temp path");
    assert_eq!(exit_code(&[missing]), IO);
    assert_eq!(exit_code(&["run", missing]), IO);
    assert_eq!(exit_code(&["trace", missing]), IO);
}

#[test]
fn a_closed_stdout_is_an_io_error_not_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let status = lgg_sim(&["--template"])
        .stdout(writer)
        .status()
        .expect("spawn lgg-sim");
    assert_eq!(status.code(), Some(IO));
}

#[test]
fn a_guarded_kill_after_dies_between_snapshots_unless_the_guard_stops_first() {
    use std::os::unix::process::ExitStatusExt;
    let scenario = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/flapping_fabric.json"
    );
    let work = std::env::temp_dir().join(format!("lgg-sim-guarded-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let run = |extra: &[&str]| {
        let (ckpts, dump) = (work.join("ckpts"), work.join("dump"));
        let mut args = vec![
            "run",
            scenario,
            "--steps",
            "400",
            "--guard",
            "--kill-after",
            "200",
        ];
        args.extend([
            "--checkpoint-every",
            "50",
            "--checkpoint-dir",
            ckpts.to_str().unwrap(),
        ]);
        args.extend(["--guard-dump", dump.to_str().unwrap()]);
        args.extend(extra);
        lgg_sim(&args).status().expect("spawn lgg-sim")
    };
    // A planted fault before the kill step is the guard's to report (9).
    assert_eq!(run(&["--inject-fault", "120"]).code(), Some(9));
    // Without one, the run aborts at the kill step: no exit code, SIGABRT.
    assert_eq!(run(&[]).signal(), Some(6));
    std::fs::remove_dir_all(&work).expect("remove scratch output");
}

#[test]
fn a_planted_fault_under_age_tracking_is_the_guards_to_report() {
    // `lossy_sensor_field` tracks packet ages. The fault hook gives the
    // conjured packets ages too, so the guard reports the conservation
    // violation (9) instead of the engine panicking on its age FIFOs (101).
    let scenario = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/lossy_sensor_field.json"
    );
    let dump = std::env::temp_dir().join(format!("lgg-sim-aged-fault-{}", std::process::id()));
    let dump_arg = dump.to_str().expect("utf-8 temp path");
    let mut args = vec!["run", scenario, "--guard", "--inject-fault", "120"];
    args.extend(["--steps", "500", "--guard-dump", dump_arg]);
    assert_eq!(exit_code(&args), 9);
    std::fs::remove_dir_all(&dump).expect("remove the guard's dump");
}

#[test]
fn rate_sums_past_the_bound_are_a_model_error_not_a_panic() {
    // Once `negative capacity` panics (101) in the classifier's `G*`.
    let path = std::env::temp_dir().join(format!("lgg-sim-huge-rate-{}.json", std::process::id()));
    for (topology, sink_rate) in [
        (r#"{"kind":"path","n":3}"#, "18446744073709551615"),
        (r#"{"kind":"complete","n":4}"#, "2251799813685248"),
    ] {
        let scenario = format!(
            r#"{{"topology":{topology},"sources":[{{"node":0,"rate":1}}],"sinks":[{{"node":2,"rate":{sink_rate}}}],"protocol":"lgg"}}"#
        );
        std::fs::write(&path, scenario).expect("write the scenario");
        let out = lgg_sim(&[path.to_str().expect("utf-8 temp path")])
            .stderr(Stdio::piped())
            .output()
            .expect("spawn lgg-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(MODEL), "{topology}: {stderr}");
        assert!(stderr.contains("2^30 = 1073741824"), "{topology}: {stderr}");
    }
    std::fs::remove_file(&path).expect("remove the scenario");
}
