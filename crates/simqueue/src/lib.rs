#![warn(missing_docs)]

//! # simqueue — the synchronous queueing substrate
//!
//! Executes the network dynamics of Section II of *Stability of a localized
//! and greedy routing algorithm* (IPPS 2010). Time is synchronous; at each
//! step `t` the engine performs, in order:
//!
//! 1. **topology update** — a [`dynamic::TopologyProcess`] activates/deactivates
//!    links (static for the paper's core model; dynamic for Conjecture 4);
//! 2. **injection** — every node with `in(v) > 0` receives up to `in(v)`
//!    packets from its [`injection::InjectionProcess`] (exactly `in(v)` for classic
//!    sources; *at most* for pseudo-sources, Definition 5);
//! 3. **declaration** — every node publishes a queue length. Relays
//!    publish the truth; the special nodes `S ∪ D` consult a
//!    [`DeclarationPolicy`] and may lie below `R` (Definition 6(ii));
//! 4. **planning** — the routing protocol (a [`RoutingProtocol`], e.g. LGG
//!    from the `lgg-core` crate) chooses a set `E_t` of transmissions from
//!    declared queues; the engine enforces the physical constraints (≤ 1
//!    packet per link, senders cannot overdraw, inactive links carry
//!    nothing);
//! 5. **transmission & loss** — senders always delete sent packets; a
//!    [`loss::LossModel`] decides which packets vanish in flight ("this packet
//!    can be lost without any notification"); survivors join the
//!    receivers' queues;
//! 6. **extraction** — every node with `out(v) > 0` removes packets
//!    according to an [`ExtractionPolicy`], clamped to Definition 7(i):
//!    at most `min(out, q)`, and at least `min(out, q − R)` when `q > R`;
//! 7. **metrics** — the engine records the network state
//!    `P_t = Σ_v q_t(v)²` (Definition 1), queue totals, and throughput
//!    counters: the step's [`StepLedger`] is folded into [`Metrics`] and
//!    lent to the observer inside a [`trace::StepRecord`].
//!
//! Determinism: all randomness derives from a single `u64` seed split into
//! independent streams (injection, loss, topology) via SplitMix64, so any
//! run is exactly reproducible and *paired* experiments (Conjecture 1's
//! domination test) can share coin flips.
//!
//! Performance: the hot loop is allocation-free after the first step — the
//! engine reuses its plan/arrival/mask buffers, per the Rust Performance
//! Book's guidance for hot paths.

mod ages;
mod engine;
mod metrics;
mod rng;
mod stability;

pub mod checkpoint;
pub mod declare;
pub mod dynamic;
pub mod error;
pub mod guard;
pub mod injection;
pub mod loss;
pub mod protocol;
pub mod trace;

pub use ages::LatencyStats;
pub use checkpoint::CheckpointConfig;
pub use declare::{DeclarationPolicy, TruthfulDeclaration};
pub use engine::{
    ExtractionPolicy, LazyExtraction, MaxExtraction, SimOverrides, Simulation, SimulationBuilder,
};
pub use error::LggError;
pub use guard::{
    BudgetKind, FaultSpec, GuardConfig, GuardOutcome, GuardReport, InvariantGuard, Violation,
    ViolationKind,
};
pub use metrics::{HistoryMode, Metrics, Snapshot, StepLedger};
pub use protocol::{NetView, RoutingProtocol, Transmission};
pub use rng::split_seed;
pub use stability::{assess_stability, OnlineStability, StabilityReport, StabilityVerdict};
pub use trace::{
    Declaration, JsonlSink, NodeAmount, NoopObserver, SimObserver, StepRecord, TraceEvent,
    TraceRenderer, WindowAggregator, WindowStats,
};

/// The stable import surface in one line: `use simqueue::prelude::*`.
///
/// Everything here is what downstream code (CLI, experiments, external
/// users) needs for the common path — building a simulation, stepping it,
/// watching it, checkpointing it, and handling its errors. Items outside
/// the prelude are still public but are considered advanced surface.
pub mod prelude {
    pub use crate::checkpoint::CheckpointConfig;
    pub use crate::error::LggError;
    pub use crate::{
        assess_stability, FaultSpec, GuardConfig, HistoryMode, InvariantGuard, Metrics, NetView,
        RoutingProtocol, SimObserver, SimOverrides, Simulation, SimulationBuilder,
        StabilityVerdict, TraceEvent, Transmission,
    };
}
