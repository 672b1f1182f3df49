#![warn(missing_docs)]

//! # lgg-cli — scenario files and the `lgg-sim` runner
//!
//! A downstream user should not need to write Rust to try LGG on their
//! network. This crate defines a JSON [`Scenario`] format covering the
//! whole model surface — topology, traffic (classic and R-generalized),
//! protocol, arrival process, loss model, topology dynamics, lying and
//! extraction policies — and a binary that runs it:
//!
//! ```text
//! lgg-sim scenario.json            # run, print a human report
//! lgg-sim scenario.json --json     # machine-readable report on stdout
//! lgg-sim --template > my.json     # start from a commented template
//! lgg-sim --help                   # every subcommand and flag
//! ```
//!
//! Both binaries, `lgg-sim` and `experiments`, read their flags against
//! one table in [`args`]. Every failure ends in an [`LggError`] and exits
//! with its [`LggError::exit_code`]: scenario 2, parse 3, I/O 4,
//! graph/model 5, corrupt checkpoint 6, checkpoint version 7, checkpoint
//! mismatch 8, invariant violation 9, usage 64. Exit 1 means the run
//! finished with a negative verdict.
//!
//! Example scenario:
//!
//! ```json
//! {
//!   "topology": {"kind": "dumbbell", "clique": 4, "bridge": 2},
//!   "sources": [{"node": 0, "rate": 1}],
//!   "sinks":   [{"node": 9, "rate": 4}],
//!   "protocol": "lgg",
//!   "loss": {"kind": "iid", "p": 0.1},
//!   "steps": 50000,
//!   "seed": 7,
//!   "track_ages": true
//! }
//! ```

pub mod args;
mod bench;
mod chaos;
mod checkpoint_cmd;
mod report;
mod scenario;
mod trace_cmd;

pub use bench::{check_observer_baseline, run_bench_suite, sweep_digest, BenchReport, BenchRow};
pub use chaos::{
    compose_trial, replay_reproducer, run_chaos, shrink, write_reproducer, ChaosConfig,
    ChaosReport, Reproducer,
};
pub use checkpoint_cmd::{run_with_checkpoints, RunConfig, RunSummary};
pub use report::{run_scenario, RunReport};
pub use scenario::{
    DeclarationSpec, DynamicsSpec, Endpoint, ExtractionSpec, GeneralizedNode, InjectionSpec,
    LossSpec, ObserverSpec, ProtocolSpec, Scenario, ScenarioObserver, TopologySpec,
};
// The workspace error type and override bag live in `simqueue`; re-export
// them so CLI-facing code keeps one import path.
pub use simqueue::{CheckpointConfig, LggError, SimOverrides};
pub use trace_cmd::{capture_trace, fnv1a_digest, trace_smoke_scenario};
