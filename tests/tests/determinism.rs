//! Cross-thread-count determinism: the work-stealing pool must never
//! change what any computation produces, only how fast it runs.
//!
//! Each test runs the same workload pinned to one worker and again across
//! several workers (via `parpool::set_thread_override`, the programmatic
//! form of `LGG_THREADS`) and requires byte-identical serialized output.
//! CI additionally re-runs this whole file under `LGG_THREADS=1` and
//! `LGG_THREADS=4` (see `scripts/ci.sh`), so the env-var path — which the
//! override takes precedence over only while a test holds it — is
//! exercised end to end as well.
//!
//! The outputs are pinned too: the FNV-1a (`simqueue::checkpoint::fnv1a`)
//! of the quick experiment suite's JSON, and the digests of the sweep grid
//! that `lgg-sim bench` times, at both of its sizes. A failure prints the
//! values the code now produces.
//!
//! The tests share one global override via a mutex: the override is
//! process-wide state, and cargo runs tests in this file concurrently.

use std::sync::{Mutex, OnceLock};

use experiments::{run_experiment, ALL_IDS};
use lgg_cli::{capture_trace, sweep_digest, trace_smoke_scenario};
use simqueue::checkpoint::fnv1a;

/// Serializes access to the process-wide thread-count override.
fn override_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs `f` with the pool pinned to `threads` workers, restoring the
/// default (env/cores) resolution afterwards.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _guard = override_lock().lock().expect("override lock");
    parpool::set_thread_override(Some(threads));
    let r = f();
    parpool::set_thread_override(None);
    r
}

/// Worker count for the multi-threaded leg: enough to force real
/// stealing and interleaving even on a single-core machine.
const WIDE: usize = 4;

#[test]
fn experiment_suite_is_thread_count_independent() {
    // Every experiment id, quick mode, serialized exactly as
    // `experiments --out` writes it.
    let run_all = || -> Vec<String> {
        ALL_IDS
            .iter()
            .map(|id| {
                let report = run_experiment(id, true).expect("known id");
                serde_json::to_string_pretty(&report).expect("serializes")
            })
            .collect()
    };
    let narrow = with_threads(1, run_all);
    let wide = with_threads(WIDE, run_all);
    for (id, (a, b)) in ALL_IDS.iter().zip(narrow.iter().zip(&wide)) {
        assert_eq!(a, b, "{id}: JSON diverged between 1 and {WIDE} threads");
    }
    // Each report followed by a newline, in `ALL_IDS` order.
    let suite: String = narrow.iter().map(|json| format!("{json}\n")).collect();
    let digest = format!("{:016x}", fnv1a(suite.as_bytes()));
    assert_eq!(
        digest, "1d20da3f46f46ea7",
        "experiment suite digest moved; now:\n{digest}"
    );
}

#[test]
fn sweep_grid_digest_is_thread_count_independent() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../scenarios");
    // `(quick, digest)`: the grid `bench --quick` times, then the full one.
    const PINNED: [(bool, &str); 2] = [(true, "b356a78b7e77739d"), (false, "4fb1e748e3edeb09")];
    let mut got = Vec::new();
    for (quick, _) in PINNED {
        let narrow = with_threads(1, || sweep_digest(dir, quick).expect("sweep runs"));
        let wide = with_threads(WIDE, || sweep_digest(dir, quick).expect("sweep runs"));
        assert_eq!(
            narrow, wide,
            "sweep digest (quick {quick}) diverged between 1 and {WIDE} threads"
        );
        got.push((quick, narrow));
    }
    let table: String = got
        .iter()
        .map(|(quick, d)| format!("    ({quick}, \"{d}\"),\n"))
        .collect();
    let pinned: Vec<(bool, String)> = PINNED.iter().map(|&(q, d)| (q, d.to_string())).collect();
    assert_eq!(got, pinned, "sweep digests moved; now:\n{table}");
}

#[test]
fn jsonl_trace_is_thread_count_independent() {
    // The event trace is an externally consumed byte stream, so its
    // determinism bar is byte equality, not just equal aggregates. A
    // single simulation never crosses threads today, but the trace runs
    // under whatever pool configuration the process has — pin it both
    // ways to lock the contract.
    let sc = trace_smoke_scenario();
    let capture = || capture_trace(&sc, sc.steps, 1).expect("smoke scenario traces");
    let narrow = with_threads(1, capture);
    let wide = with_threads(WIDE, capture);
    assert!(!narrow.is_empty());
    assert_eq!(
        narrow, wide,
        "JSONL trace bytes diverged between 1 and {WIDE} threads"
    );
}

#[test]
fn pool_reports_at_least_one_worker() {
    assert!(parpool::max_threads() >= 1);
    assert_eq!(with_threads(3, parpool::max_threads), 3);
}
