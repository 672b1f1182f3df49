//! Runtime invariant monitor: fail loudly *during* the run, not post-hoc.
//!
//! The paper's guarantees are all statements about what the dynamics can
//! never do — packets are conserved (nothing is created; only sinks and
//! the loss model destroy), a link carries at most one packet per step
//! (Section II), R-generalized nodes may only lie below `R` (Definition
//! 6(ii)), and on certified-unsaturated networks Lemma 1 caps the whole
//! trajectory at `P_t ≤ nY² + 5nΔ²`. The engine is *supposed* to enforce
//! all of that; [`InvariantGuard`] is the independent witness that it
//! actually did, reconstructing each invariant from the
//! [`TraceEvent`](crate::TraceEvent) stream alone and latching the first
//! [`Violation`].
//!
//! The guard rides the existing [`SimObserver`] hook and wraps an inner
//! observer, so a guarded run keeps its telemetry (window aggregation,
//! JSONL traces) unchanged. Observers have no error channel back into the
//! step loop, so aborting is split in two: the guard *latches*, and the
//! [`run_guarded`](Simulation::run_guarded) driver polls the latch after
//! every step, dumps a crash-safe checkpoint of the offending state for
//! post-mortem, and surfaces the violation as
//! [`LggError::InvariantViolation`] (CLI exit code 9). Replaying the
//! scenario + seed (the engine is bit-for-bit deterministic) re-triggers
//! the same violation at the same step — that pair *is* the reproducer,
//! and `lgg-sim chaos` shrinks it further.
//!
//! Budgets ([`GuardConfig::max_steps`] / `max_backlog` / `max_wall_ms`)
//! bound runs whose interesting failure mode is "grows until OOM": the
//! driver stops gracefully with a partial verdict from the
//! [`OnlineStability`] detector instead of an error.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::engine::Simulation;
use crate::error::LggError;
use crate::metrics::Snapshot;
use crate::stability::{OnlineStability, StabilityReport};
use crate::trace::{NoopObserver, SimObserver, TraceEvent};
use netmodel::TrafficSpec;

/// Which invariant a [`Violation`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
#[non_exhaustive]
pub enum ViolationKind {
    /// Per-step packet conservation broke: the end-of-step total differs
    /// from `previous + injected − delivered − lost`.
    Conservation,
    /// A link carried more than one packet in a step, or carried a packet
    /// while inactive.
    LinkCapacity,
    /// A declaration escaped the Definition 6(ii) envelope: a non-special
    /// node lied, or a lie above the retention constant.
    DeclarationLegality,
    /// `P_t` exceeded a certified bound (Lemma 1's `nY² + 5nΔ²` on
    /// unsaturated networks).
    StateBound,
    /// The online stability detector called the trajectory diverging.
    Divergence,
}

impl ViolationKind {
    /// The kebab-case name (matches the serde encoding).
    pub fn as_str(&self) -> &'static str {
        match self {
            ViolationKind::Conservation => "conservation",
            ViolationKind::LinkCapacity => "link-capacity",
            ViolationKind::DeclarationLegality => "declaration-legality",
            ViolationKind::StateBound => "state-bound",
            ViolationKind::Divergence => "divergence",
        }
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The first invariant breach a guarded run observed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// The step whose check failed (the engine's pre-increment clock, as
    /// carried by the violating event).
    pub step: u64,
    /// Expected-vs-observed specifics, human-readable.
    pub detail: String,
}

impl From<Violation> for LggError {
    fn from(v: Violation) -> Self {
        LggError::InvariantViolation {
            kind: v.kind.as_str().into(),
            step: v.step,
            detail: v.detail,
        }
    }
}

/// A deliberate, test-only state corruption: at step `step` (before the
/// step executes) `amount` packets appear in node `node`'s queue without
/// being counted as injected. This is the fault hook the guard's
/// end-to-end detection/replay tests drive — it must break conservation,
/// and [`InvariantGuard`] must catch it at exactly `step`. Recorded in
/// reproducer files so replays re-trigger deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Step before which the corruption is applied.
    pub step: u64,
    /// Target node (wrapped modulo `n`).
    pub node: u32,
    /// Packets conjured out of thin air.
    pub amount: u64,
}

fn default_online_cap() -> usize {
    4096
}

/// What the guard checks and when it gives up. Everything is serializable
/// so a guarded run's configuration survives checkpoints and lands in
/// reproducer files verbatim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Check per-step packet conservation.
    pub conservation: bool,
    /// Check per-link capacity ≤ 1 and active-link usage.
    pub link_capacity: bool,
    /// Check Definition 6(ii) declaration legality.
    pub declaration_legality: bool,
    /// Abort when `P_t` exceeds this certified bound (Lemma 1's
    /// `nY² + 5nΔ²`; `None` when the network is not certified
    /// unsaturated — the bound only exists in that regime).
    pub pt_bound: Option<f64>,
    /// Treat a `Diverging` verdict from the online detector as a
    /// violation. Off for chaos campaigns (random scenarios legitimately
    /// overload; that is the boundary being searched, not an engine bug),
    /// on for `lgg-sim run --guard`.
    pub divergence: bool,
    /// Snapshots the online detector retains (halving buffer).
    #[serde(default = "default_online_cap")]
    pub online_cap: usize,
    /// Step budget (absolute step count, like `run_until` targets).
    pub max_steps: Option<u64>,
    /// Backlog budget: stop once total stored packets exceed this.
    pub max_backlog: Option<u64>,
    /// Wall-clock budget in milliseconds (checked every 256 steps).
    pub max_wall_ms: Option<u64>,
}

impl GuardConfig {
    /// The hard invariant checks on, divergence and budgets off.
    pub fn checks() -> Self {
        GuardConfig {
            conservation: true,
            link_capacity: true,
            declaration_legality: true,
            pt_bound: None,
            divergence: false,
            online_cap: default_online_cap(),
            max_steps: None,
            max_backlog: None,
            max_wall_ms: None,
        }
    }

    /// Everything off — the guard forwards events and costs (almost)
    /// nothing; useful as the `--guard`-less arm of overhead benches.
    pub fn disabled() -> Self {
        GuardConfig {
            conservation: false,
            link_capacity: false,
            declaration_legality: false,
            pt_bound: None,
            divergence: false,
            online_cap: default_online_cap(),
            max_steps: None,
            max_backlog: None,
            max_wall_ms: None,
        }
    }

    /// Whether any per-event check needs the event stream.
    fn any_check(&self) -> bool {
        self.conservation
            || self.link_capacity
            || self.declaration_legality
            || self.pt_bound.is_some()
            || self.divergence
    }
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig::checks()
    }
}

/// The guard's evolving state, kept separate from the inner observer so
/// checkpointing can serialize it as one JSON blob.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GuardState {
    config: GuardConfig,
    retention: u64,
    /// `special[v]`: node `v` ∈ S ∪ D (the only legal liars).
    special: Vec<bool>,
    /// Mirror of the engine's link states, reconstructed from
    /// `LinkUp`/`LinkDown` events (all links start active).
    active_edges: Vec<bool>,
    /// Per-step link usage stamps: `edge_seen[e] == t + 1` means edge `e`
    /// already carried a packet in step `t`.
    edge_seen: Vec<u64>,
    /// Total stored packets after the previous step.
    prev_total: u64,
    /// End-of-step samples checked so far.
    samples_seen: u64,
    // Per-step accumulators, reset at each `Sample`.
    step_injected: u64,
    step_delivered: u64,
    step_lost: u64,
    violation: Option<Violation>,
    online: OnlineStability,
}

/// The invariant monitor. Wraps an inner observer (default
/// [`NoopObserver`]) and forwards every event, so guarding a run does not
/// displace its telemetry.
pub struct InvariantGuard<I: SimObserver = NoopObserver> {
    state: GuardState,
    inner: I,
}

impl InvariantGuard<NoopObserver> {
    /// A guard for the network described by `spec`.
    pub fn new(spec: &TrafficSpec, config: GuardConfig) -> Self {
        InvariantGuard::with_inner(spec, config, NoopObserver)
    }
}

impl<I: SimObserver> InvariantGuard<I> {
    /// A guard forwarding every event to `inner` after checking it.
    pub fn with_inner(spec: &TrafficSpec, config: GuardConfig, inner: I) -> Self {
        let m = spec.graph.edge_count();
        let special = spec.graph.nodes().map(|v| spec.is_special(v)).collect();
        let online_cap = config.online_cap;
        InvariantGuard {
            state: GuardState {
                config,
                retention: spec.retention,
                special,
                active_edges: vec![true; m],
                edge_seen: vec![0; m],
                prev_total: 0,
                samples_seen: 0,
                step_injected: 0,
                step_delivered: 0,
                step_lost: 0,
                violation: None,
                online: OnlineStability::new(online_cap),
            },
            inner,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &GuardConfig {
        &self.state.config
    }

    /// The first violation latched, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.state.violation.as_ref()
    }

    /// The online stability detector's report over the trajectory so far
    /// — the "partial verdict" a budget-limited run reports.
    pub fn online_report(&self) -> StabilityReport {
        self.state.online.assess()
    }

    /// Aligns the conservation baseline with a simulation that starts (or
    /// resumes) with `total` packets already stored. [`Simulation::run_guarded`]
    /// calls this automatically before its first step.
    pub fn prime_backlog(&mut self, total: u64) {
        if self.state.samples_seen == 0 {
            self.state.prev_total = total;
        }
    }

    /// The wrapped inner observer.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Mutable access to the wrapped inner observer.
    pub fn inner_mut(&mut self) -> &mut I {
        &mut self.inner
    }

    /// Consumes the guard, returning the inner observer.
    pub fn into_inner(self) -> I {
        self.inner
    }

    fn latch(&mut self, kind: ViolationKind, step: u64, detail: String) {
        if self.state.violation.is_none() {
            self.state.violation = Some(Violation { kind, step, detail });
        }
    }

    fn check(&mut self, ev: TraceEvent) {
        let s = &mut self.state;
        match ev {
            TraceEvent::LinkUp { edge, .. } => {
                if let Some(a) = s.active_edges.get_mut(edge as usize) {
                    *a = true;
                }
            }
            TraceEvent::LinkDown { edge, .. } => {
                if let Some(a) = s.active_edges.get_mut(edge as usize) {
                    *a = false;
                }
            }
            TraceEvent::Injection { amount, .. } => s.step_injected += amount,
            TraceEvent::Extraction { amount, .. } => s.step_delivered += amount,
            TraceEvent::Loss { .. } => s.step_lost += 1,
            TraceEvent::Transmission { t, edge, from, .. } => {
                if s.config.link_capacity {
                    let e = edge as usize;
                    if s.active_edges.get(e) == Some(&false) {
                        self.latch(
                            ViolationKind::LinkCapacity,
                            t,
                            format!("edge {edge} carried a packet from node {from} while inactive"),
                        );
                        return;
                    }
                    if s.edge_seen.get(e) == Some(&(t + 1)) {
                        self.latch(
                            ViolationKind::LinkCapacity,
                            t,
                            format!("edge {edge} carried more than one packet in step {t}"),
                        );
                        return;
                    }
                    if let Some(stamp) = s.edge_seen.get_mut(e) {
                        *stamp = t + 1;
                    }
                }
            }
            TraceEvent::DeclarationLie {
                t,
                node,
                true_q,
                declared,
            } => {
                if s.config.declaration_legality {
                    // The event only fires when declared != true queue, so
                    // legality (Definition 6(ii)) reduces to: the liar is
                    // special, its queue is at most R, and so is the lie.
                    let r = s.retention;
                    if !s.special.get(node as usize).copied().unwrap_or(false) {
                        self.latch(
                            ViolationKind::DeclarationLegality,
                            t,
                            format!("non-special node {node} declared {declared} with queue {true_q}"),
                        );
                    } else if true_q > r {
                        self.latch(
                            ViolationKind::DeclarationLegality,
                            t,
                            format!(
                                "node {node} lied ({declared}) with queue {true_q} above retention {r}"
                            ),
                        );
                    } else if declared > r {
                        self.latch(
                            ViolationKind::DeclarationLegality,
                            t,
                            format!(
                                "node {node} declared {declared} above retention {r} (queue {true_q})"
                            ),
                        );
                    }
                }
            }
            TraceEvent::Sample {
                t,
                pt,
                total,
                max_queue,
                ..
            } => {
                if s.config.conservation {
                    let expected = s
                        .prev_total
                        .wrapping_add(s.step_injected)
                        .wrapping_sub(s.step_delivered)
                        .wrapping_sub(s.step_lost);
                    if total != expected {
                        let (p, i, d, l) =
                            (s.prev_total, s.step_injected, s.step_delivered, s.step_lost);
                        self.latch(
                            ViolationKind::Conservation,
                            t,
                            format!(
                                "total {total} != {p} + {i} injected - {d} delivered - {l} lost \
                                 = {expected}"
                            ),
                        );
                    }
                }
                let s = &mut self.state;
                if let Some(bound) = s.config.pt_bound {
                    if pt as f64 > bound {
                        self.latch(
                            ViolationKind::StateBound,
                            t,
                            format!("P_t = {pt} exceeds the certified bound {bound:.3e}"),
                        );
                    }
                }
                let s = &mut self.state;
                s.online.push(Snapshot {
                    t: t + 1,
                    pt,
                    total_packets: total,
                    max_queue,
                });
                if s.config.divergence && s.online.seen() % 128 == 0 {
                    let report = s.online.assess();
                    if report.verdict == crate::stability::StabilityVerdict::Diverging {
                        let (slope, sup) = (report.slope, report.sup_total);
                        self.latch(
                            ViolationKind::Divergence,
                            t,
                            format!(
                                "online detector: backlog diverging (slope {slope:.4}/step, \
                                 sup {sup})"
                            ),
                        );
                    }
                }
                let s = &mut self.state;
                s.prev_total = total;
                s.samples_seen += 1;
                s.step_injected = 0;
                s.step_delivered = 0;
                s.step_lost = 0;
            }
            _ => {}
        }
    }
}

impl<I: SimObserver> SimObserver for InvariantGuard<I> {
    fn enabled(&self) -> bool {
        self.state.config.any_check() || self.inner.enabled()
    }

    fn observe(&mut self, ev: TraceEvent) {
        if self.state.config.any_check() {
            self.check(ev);
        }
        self.inner.observe(ev);
    }

    fn finish(&mut self) {
        self.inner.finish();
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        let json = crate::checkpoint::json_to_bytes(&self.state);
        crate::checkpoint::wire::put_bytes(out, &json);
        let mut inner = Vec::new();
        self.inner.save_state(&mut inner);
        crate::checkpoint::wire::put_bytes(out, &inner);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        let mut r = crate::checkpoint::wire::Reader::new(bytes);
        self.state = crate::checkpoint::json_from_bytes(r.bytes()?)?;
        let inner = r.bytes()?.to_vec();
        r.done()?;
        self.inner.load_state(&inner)
    }
}

/// Which budget a [`GuardOutcome::BudgetExceeded`] run hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum BudgetKind {
    /// [`GuardConfig::max_steps`].
    Steps,
    /// [`GuardConfig::max_backlog`].
    Backlog,
    /// [`GuardConfig::max_wall_ms`].
    WallClock,
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetKind::Steps => "step budget",
            BudgetKind::Backlog => "backlog budget",
            BudgetKind::WallClock => "wall-clock budget",
        })
    }
}

/// How a guarded run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardOutcome {
    /// Reached the target step with every invariant intact.
    Completed,
    /// A budget ran out first; the report's stability assessment is the
    /// partial verdict over the trajectory so far.
    BudgetExceeded(BudgetKind),
    /// An invariant broke; the run was aborted at the violating step.
    Violated(Violation),
}

/// The result of [`Simulation::run_guarded`].
#[derive(Debug, Clone)]
pub struct GuardReport {
    /// How the run ended.
    pub outcome: GuardOutcome,
    /// Steps executed (the simulation clock at stop).
    pub steps: u64,
    /// The online detector's verdict over the observed trajectory — final
    /// for completed runs, partial for aborted ones.
    pub stability: StabilityReport,
    /// The checkpoint dumped on abort (violation or budget), when a dump
    /// directory was given.
    pub checkpoint: Option<PathBuf>,
}

/// How often the wall-clock budget is polled, in steps.
const WALL_CHECK_EVERY: u64 = 256;

impl<I: SimObserver> Simulation<InvariantGuard<I>> {
    /// Runs to `target` (absolute, like [`Simulation::run_until`]) under
    /// the installed guard: periodic checkpoints are honored, the
    /// violation latch is polled after every step, and budgets stop the
    /// run gracefully. On any abort — violation or budget — a crash-safe
    /// checkpoint of the stopped state is dumped into `dump_dir` (when
    /// given) for post-mortem inspection; the scenario + seed replayed
    /// through the same guard re-triggers a violation deterministically.
    ///
    /// `fault` is the test-only corruption hook: before executing step
    /// `fault.step`, packets are conjured via
    /// [`Simulation::corrupt_queue_for_test`], which a conservation-checking
    /// guard must catch at exactly that step.
    ///
    /// Violations are returned inside the report (not as `Err`) so the
    /// caller can dump reproducers before converting to
    /// [`LggError::InvariantViolation`]; `Err` is reserved for I/O
    /// failures while checkpointing.
    pub fn run_guarded(
        &mut self,
        target: u64,
        dump_dir: Option<&Path>,
        fault: Option<FaultSpec>,
    ) -> Result<GuardReport, LggError> {
        let started = Instant::now();
        let total0 = self.total_packets();
        self.observer_mut().prime_backlog(total0);
        let cfg = self.observer().config().clone();
        let clipped = cfg.max_steps.filter(|&m| m < target);
        let target = clipped.unwrap_or(target);
        let periodic = self
            .checkpoint_config()
            .map(|c| (c.every, c.dir.clone()));

        let mut outcome = GuardOutcome::Completed;
        while self.time() < target {
            if let Some(f) = fault {
                if self.time() == f.step {
                    self.corrupt_queue_for_test(f.node, f.amount);
                }
            }
            self.step();
            if let Some((every, dir)) = &periodic {
                if self.time() % every == 0 || self.time() == target {
                    self.write_checkpoint_to(dir)?;
                }
            }
            if let Some(v) = self.observer().violation() {
                outcome = GuardOutcome::Violated(v.clone());
                break;
            }
            if let Some(b) = cfg.max_backlog {
                if self.total_packets() > b {
                    outcome = GuardOutcome::BudgetExceeded(BudgetKind::Backlog);
                    break;
                }
            }
            if let Some(ms) = cfg.max_wall_ms {
                if self.time() % WALL_CHECK_EVERY == 0
                    && started.elapsed().as_millis() as u64 > ms
                {
                    outcome = GuardOutcome::BudgetExceeded(BudgetKind::WallClock);
                    break;
                }
            }
        }
        if matches!(outcome, GuardOutcome::Completed) && clipped.is_some() {
            outcome = GuardOutcome::BudgetExceeded(BudgetKind::Steps);
        }

        let checkpoint = match (&outcome, dump_dir) {
            (GuardOutcome::Completed, _) | (_, None) => None,
            (_, Some(dir)) => Some(self.write_checkpoint_to(dir)?),
        };
        Ok(GuardReport {
            outcome,
            steps: self.time(),
            stability: self.observer().online_report(),
            checkpoint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimulationBuilder;
    use crate::protocol::{NetView, RoutingProtocol, Transmission};
    use mgraph::generators;
    use netmodel::TrafficSpecBuilder;

    /// Minimal greedy forwarder: every node sends to any smaller-declared
    /// neighbor, budget permitting (mirrors the engine test helper).
    struct TestGreedy;
    impl RoutingProtocol for TestGreedy {
        fn name(&self) -> &'static str {
            "test-greedy"
        }
        fn plan(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>) {
            for u in view.graph.nodes() {
                let mut budget = view.declared_of(u);
                for link in view.graph.incident_links(u) {
                    if budget == 0 {
                        break;
                    }
                    if view.declared_of(link.neighbor) < view.declared_of(u)
                        && view.is_active(link.edge)
                    {
                        out.push(Transmission {
                            edge: link.edge,
                            from: u,
                        });
                        budget -= 1;
                    }
                }
            }
        }
    }

    fn spec() -> TrafficSpec {
        TrafficSpecBuilder::new(generators::path(4))
            .source(0, 1)
            .sink(3, 2)
            .build()
            .unwrap()
    }

    fn guarded_sim(config: GuardConfig) -> Simulation<InvariantGuard> {
        let spec = spec();
        let guard = InvariantGuard::new(&spec, config);
        SimulationBuilder::new(spec, Box::new(TestGreedy))
            .seed(11)
            .observer(guard)
            .build()
    }

    #[test]
    fn clean_run_has_no_violation() {
        let mut sim = guarded_sim(GuardConfig::checks());
        let report = sim.run_guarded(500, None, None).unwrap();
        assert_eq!(report.outcome, GuardOutcome::Completed);
        assert_eq!(report.steps, 500);
        assert!(sim.observer().violation().is_none());
        assert!(report.checkpoint.is_none());
    }

    #[test]
    fn injected_fault_is_caught_at_its_step() {
        let mut sim = guarded_sim(GuardConfig::checks());
        let fault = FaultSpec {
            step: 123,
            node: 1,
            amount: 3,
        };
        let report = sim.run_guarded(500, None, Some(fault)).unwrap();
        match report.outcome {
            GuardOutcome::Violated(v) => {
                assert_eq!(v.kind, ViolationKind::Conservation);
                assert_eq!(v.step, 123);
                assert!(v.detail.contains("injected"), "{}", v.detail);
            }
            other => panic!("expected violation, got {other:?}"),
        }
        // The driver stops right after the violating step.
        assert_eq!(report.steps, 124);
    }

    #[test]
    fn fault_detection_is_deterministic_across_replays() {
        let run = || {
            let mut sim = guarded_sim(GuardConfig::checks());
            let fault = FaultSpec {
                step: 77,
                node: 2,
                amount: 1,
            };
            sim.run_guarded(300, None, Some(fault)).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn violation_dumps_a_checkpoint() {
        let dir = std::env::temp_dir().join(format!("lgg_guard_dump_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sim = guarded_sim(GuardConfig::checks());
        let fault = FaultSpec {
            step: 50,
            node: 0,
            amount: 2,
        };
        let report = sim.run_guarded(200, Some(&dir), Some(fault)).unwrap();
        let path = report.checkpoint.expect("checkpoint dumped on violation");
        assert!(path.exists());
        let (t, _) = crate::checkpoint::read_snapshot(&path).unwrap();
        assert_eq!(t, report.steps);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backlog_budget_stops_gracefully_with_partial_verdict() {
        // Source rate 3 against a sink draining 1: backlog grows by
        // ~2/step, so a budget of 40 stops within a few dozen steps.
        let spec = TrafficSpecBuilder::new(generators::path(3))
            .source(0, 3)
            .sink(2, 1)
            .build()
            .unwrap();
        let mut config = GuardConfig::checks();
        config.max_backlog = Some(40);
        let guard = InvariantGuard::new(&spec, config);
        let mut sim = SimulationBuilder::new(spec, Box::new(TestGreedy))
            .seed(5)
            .observer(guard)
            .build();
        let report = sim.run_guarded(100_000, None, None).unwrap();
        assert_eq!(
            report.outcome,
            GuardOutcome::BudgetExceeded(BudgetKind::Backlog)
        );
        assert!(report.steps < 100_000);
    }

    #[test]
    fn step_budget_clips_the_target() {
        let mut config = GuardConfig::checks();
        config.max_steps = Some(60);
        let mut sim = guarded_sim(config);
        let report = sim.run_guarded(10_000, None, None).unwrap();
        assert_eq!(report.outcome, GuardOutcome::BudgetExceeded(BudgetKind::Steps));
        assert_eq!(report.steps, 60);
    }

    #[test]
    fn guard_state_round_trips_through_save_load() {
        let spec = spec();
        let mut guard = InvariantGuard::new(&spec, GuardConfig::checks());
        guard.observe(TraceEvent::Injection {
            t: 0,
            node: 0,
            amount: 1,
        });
        guard.observe(TraceEvent::Sample {
            t: 0,
            pt: 1,
            total: 1,
            max_queue: 1,
            active: 1,
        });
        let mut bytes = Vec::new();
        guard.save_state(&mut bytes);
        let mut restored = InvariantGuard::new(&spec, GuardConfig::disabled());
        restored.load_state(&bytes).unwrap();
        assert_eq!(restored.state.prev_total, 1);
        assert_eq!(restored.state.samples_seen, 1);
        assert!(restored.state.config.conservation);
    }

    #[test]
    fn illegal_declarations_are_latched() {
        let spec = spec();
        // Node 0 is a source (special), node 1 is a plain relay.
        let mut guard = InvariantGuard::new(&spec, GuardConfig::checks());
        // Legal: special node lying below R. retention is 0 here, so any
        // lie is above R — craft a spec with retention instead.
        let spec_r = TrafficSpecBuilder::new(generators::path(4))
            .source(0, 1)
            .sink(3, 2)
            .retention(5)
            .build()
            .unwrap();
        let mut guard_r = InvariantGuard::new(&spec_r, GuardConfig::checks());
        guard_r.observe(TraceEvent::DeclarationLie {
            t: 3,
            node: 0,
            true_q: 4,
            declared: 0,
        });
        assert!(guard_r.violation().is_none(), "legal lie flagged");
        // Illegal: a non-special node lying.
        guard.observe(TraceEvent::DeclarationLie {
            t: 7,
            node: 1,
            true_q: 2,
            declared: 0,
        });
        let v = guard.violation().expect("non-special lie latched");
        assert_eq!(v.kind, ViolationKind::DeclarationLegality);
        assert_eq!(v.step, 7);
        // Illegal: lying with a queue above R.
        guard_r.observe(TraceEvent::DeclarationLie {
            t: 9,
            node: 0,
            true_q: 9,
            declared: 5,
        });
        let v = guard_r.violation().expect("above-R lie latched");
        assert_eq!(v.kind, ViolationKind::DeclarationLegality);
    }

    #[test]
    fn double_link_use_is_latched() {
        let spec = spec();
        let mut guard = InvariantGuard::new(&spec, GuardConfig::checks());
        let tx = TraceEvent::Transmission {
            t: 4,
            edge: 1,
            from: 1,
            to: 2,
        };
        guard.observe(tx);
        assert!(guard.violation().is_none());
        guard.observe(tx);
        let v = guard.violation().expect("double use latched");
        assert_eq!(v.kind, ViolationKind::LinkCapacity);
        // A fresh step may reuse the link.
        let mut guard2 = InvariantGuard::new(&spec, GuardConfig::checks());
        guard2.observe(tx);
        guard2.observe(TraceEvent::Transmission {
            t: 5,
            edge: 1,
            from: 1,
            to: 2,
        });
        assert!(guard2.violation().is_none());
    }

    #[test]
    fn inactive_link_use_is_latched() {
        let spec = spec();
        let mut guard = InvariantGuard::new(&spec, GuardConfig::checks());
        guard.observe(TraceEvent::LinkDown { t: 2, edge: 0 });
        guard.observe(TraceEvent::Transmission {
            t: 2,
            edge: 0,
            from: 0,
            to: 1,
        });
        let v = guard.violation().expect("inactive-link use latched");
        assert_eq!(v.kind, ViolationKind::LinkCapacity);
        assert!(v.detail.contains("inactive"), "{}", v.detail);
    }

    #[test]
    fn pt_bound_breach_is_latched() {
        let spec = spec();
        let mut config = GuardConfig::checks();
        config.conservation = false;
        config.pt_bound = Some(100.0);
        let mut guard = InvariantGuard::new(&spec, config);
        guard.observe(TraceEvent::Sample {
            t: 12,
            pt: 99,
            total: 9,
            max_queue: 9,
            active: 1,
        });
        assert!(guard.violation().is_none());
        guard.observe(TraceEvent::Sample {
            t: 13,
            pt: 101,
            total: 10,
            max_queue: 10,
            active: 1,
        });
        let v = guard.violation().expect("bound breach latched");
        assert_eq!(v.kind, ViolationKind::StateBound);
        assert_eq!(v.step, 13);
    }

    #[test]
    fn divergence_check_latches_on_growing_backlog() {
        let spec = spec();
        let mut config = GuardConfig::checks();
        config.conservation = false;
        config.divergence = true;
        let mut guard = InvariantGuard::new(&spec, config);
        for t in 0..2048u64 {
            guard.observe(TraceEvent::Sample {
                t,
                pt: ((5 + 3 * t) as u128).pow(2),
                total: 5 + 3 * t,
                max_queue: 5 + 3 * t,
                active: 1,
            });
        }
        let v = guard.violation().expect("divergence latched");
        assert_eq!(v.kind, ViolationKind::Divergence);
    }

    #[test]
    fn disabled_guard_with_noop_inner_reports_disabled() {
        let spec = spec();
        let guard = InvariantGuard::new(&spec, GuardConfig::disabled());
        assert!(!guard.enabled());
        let guard = InvariantGuard::new(&spec, GuardConfig::checks());
        assert!(guard.enabled());
    }
}
