//! Runtime invariant monitor: fail loudly *during* the run, not post-hoc.
//!
//! The paper's guarantees are all statements about what the dynamics can
//! never do — packets are conserved (nothing is created; only sinks and
//! the loss model destroy), a link carries at most one packet per step
//! (Section II), R-generalized nodes may only lie below `R` (Definition
//! 6(ii)), and on certified-unsaturated networks Lemma 1 caps the whole
//! trajectory at `P_t ≤ nY² + 5nΔ²`. The engine is *supposed* to enforce
//! all of that; [`InvariantGuard`] is the independent witness that it
//! actually did. It re-checks each invariant against the
//! [`StepRecord`] the engine lends every observer when a step closes —
//! the step's ledger, the validated plan with its loss mask, the link
//! mask and the declarations at `S ∪ D` — and latches the first
//! [`Violation`]. Within a step the checks run in phase order
//! (declarations, then links in plan order, then conservation, the `P_t`
//! bound and divergence), so the first violation is the one a reader of
//! the step's rendered trace would meet first.
//!
//! The guard reads the record directly and renders no trace events. It
//! wraps an inner observer and forwards every record to it, so a guarded
//! run keeps its telemetry (window aggregation, JSONL traces) unchanged.
//! Observers have
//! no error channel back into the
//! step loop, so aborting is split in two: the guard *latches*, and the
//! [`run_guarded`](Simulation::run_guarded) driver polls the latch after
//! every step, dumps a crash-safe checkpoint of the offending state for
//! post-mortem, and surfaces the violation as
//! [`LggError::InvariantViolation`] (CLI exit code 9). Replaying the
//! scenario + seed (the engine is bit-for-bit deterministic) re-triggers
//! the same violation at the same step — that pair *is* the reproducer,
//! and `lgg-sim chaos` shrinks it further.
//!
//! The divergence check asks the [`OnlineStability`] detector every 128
//! steps through [`OnlineStability::diverging`]: an integer pass over the
//! retained backlog's window maxima (a small or flat backlog stops after
//! one or two windows), with the float slope fit only when the maxima allow
//! divergence. The full report is built only to word a violation, and
//! [`InvariantGuard::online_report`] still runs the full assessor.
//!
//! Budgets ([`GuardConfig::max_steps`] / `max_backlog` / `max_wall_ms`)
//! bound runs whose interesting failure mode is "grows until OOM": the
//! driver stops gracefully with a partial verdict from the
//! [`OnlineStability`] detector instead of an error.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::checkpoint::wire;
use crate::engine::Simulation;
use crate::error::LggError;
use crate::metrics::Snapshot;
use crate::stability::{OnlineStability, StabilityReport};
use crate::trace::{NoopObserver, SimObserver, StepRecord};
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
    /// Every kind, in the order of their one-byte checkpoint codes.
    const ALL: [ViolationKind; 5] = [
        ViolationKind::Conservation,
        ViolationKind::LinkCapacity,
        ViolationKind::DeclarationLegality,
        ViolationKind::StateBound,
        ViolationKind::Divergence,
    ];

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

/// Snapshots the online divergence detector retains (halving buffer).
const ONLINE_CAP: usize = 4096;

/// What the guard checks beyond the hard invariants, and when it gives
/// up. Packet conservation, link capacity and declaration legality
/// (Definition 6(ii)) are always checked.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardConfig {
    /// Abort when `P_t` exceeds this certified bound (Lemma 1's
    /// `nY² + 5nΔ²`; `None` when the network is not certified
    /// unsaturated — the bound only exists in that regime).
    pub pt_bound: Option<f64>,
    /// Treat a `Diverging` verdict from the online detector as a
    /// violation. Off for chaos campaigns (random scenarios legitimately
    /// overload; that is the boundary being searched, not an engine bug),
    /// on for `lgg-sim run --guard`.
    pub divergence: bool,
    /// Step budget (absolute step count, like `run_until` targets).
    pub max_steps: Option<u64>,
    /// Backlog budget: stop once total stored packets exceed this.
    pub max_backlog: Option<u64>,
    /// Wall-clock budget in milliseconds (checked every 256 steps).
    pub max_wall_ms: Option<u64>,
}

impl GuardConfig {
    /// The hard invariant checks only: divergence and budgets off.
    pub fn checks() -> Self {
        GuardConfig {
            pt_bound: None,
            divergence: false,
            max_steps: None,
            max_backlog: None,
            max_wall_ms: None,
        }
    }
}

/// The guard's evolving state: what a checkpoint saves. The configuration
/// is not part of it; like every component's settings, it comes from
/// whoever builds the simulation.
#[derive(Debug, Clone, PartialEq)]
struct GuardState {
    /// Total stored packets after the previous step.
    prev_total: u64,
    /// Steps checked so far.
    samples_seen: u64,
    violation: Option<Violation>,
    online: OnlineStability,
}

impl GuardState {
    /// Writes the state as a fixed-layout record: the conservation
    /// baseline and step count, the latch, then the online detector.
    fn save(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.prev_total);
        wire::put_u64(out, self.samples_seen);
        wire::put_bool(out, self.violation.is_some());
        if let Some(v) = &self.violation {
            let code = ViolationKind::ALL.iter().position(|&k| k == v.kind);
            wire::put_u32(out, code.expect("every kind has a code") as u32);
            wire::put_u64(out, v.step);
            wire::put_str(out, &v.detail);
        }
        self.online.save(out);
    }

    fn load(r: &mut wire::Reader<'_>) -> Result<Self, LggError> {
        let (prev_total, samples_seen) = (r.u64()?, r.u64()?);
        let violation = if r.bool_()? {
            let code = r.u32()?;
            let kind = *ViolationKind::ALL
                .get(code as usize)
                .ok_or_else(|| LggError::corrupt(format!("unknown violation kind {code}")))?;
            let step = r.u64()?;
            let detail = r.str_()?.to_string();
            Some(Violation { kind, step, detail })
        } else {
            None
        };
        Ok(GuardState {
            prev_total,
            samples_seen,
            violation,
            online: OnlineStability::load(r)?,
        })
    }
}

/// Whether `bytes` is a whole [`InvariantGuard`] checkpoint record: the
/// guard's state record, then its inner observer's record. The engine
/// uses it to keep guarded and unguarded snapshots apart on resume.
pub(crate) fn is_guard_record(bytes: &[u8]) -> bool {
    let whole = |bytes| -> Result<(), LggError> {
        let mut r = wire::Reader::new(bytes);
        let mut state = wire::Reader::new(r.bytes()?);
        GuardState::load(&mut state)?;
        state.done()?;
        r.bytes()?;
        r.done()
    };
    whole(bytes).is_ok()
}

/// The invariant monitor. Wraps an inner observer (default
/// [`NoopObserver`]) and forwards every event and step to it, so guarding
/// a run does not displace its telemetry.
pub struct InvariantGuard<I: SimObserver = NoopObserver> {
    config: GuardConfig,
    state: GuardState,
    retention: u64,
    /// `special[v]`: node `v` ∈ S ∪ D (the only legal liars).
    special: Vec<bool>,
    /// Per-step link usage stamps: `edge_seen[e] == t + 1` means edge `e`
    /// already carried a packet in step `t`. Stamps of past steps never
    /// match, so the array needs no clearing and no checkpointing.
    edge_seen: Vec<u64>,
    inner: I,
}

impl InvariantGuard<NoopObserver> {
    /// A guard for the network described by `spec`.
    pub fn new(spec: &TrafficSpec, config: GuardConfig) -> Self {
        InvariantGuard::with_inner(spec, config, NoopObserver)
    }
}

impl<I: SimObserver> InvariantGuard<I> {
    /// A guard around `inner`: it checks each step record, then forwards
    /// the record and every event to `inner`.
    pub fn with_inner(spec: &TrafficSpec, config: GuardConfig, inner: I) -> Self {
        InvariantGuard {
            state: GuardState {
                prev_total: 0,
                samples_seen: 0,
                violation: None,
                online: OnlineStability::new(ONLINE_CAP),
            },
            config,
            retention: spec.retention,
            special: spec.graph.nodes().map(|v| spec.is_special(v)).collect(),
            edge_seen: vec![0; spec.graph.edge_count()],
            inner,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &GuardConfig {
        &self.config
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

    /// Checks one closed step and records its sample. Once a violation is
    /// latched the hard checks stop (the latch keeps the first), but the
    /// baseline and the online detector keep following the run.
    fn check(&mut self, step: &StepRecord<'_>) {
        if self.state.violation.is_none() {
            if let Some((kind, detail)) = self.first_violation(step) {
                let step = step.ledger.t;
                self.state.violation = Some(Violation { kind, step, detail });
            }
        }
        let l = &step.ledger;
        let divergence = self.config.divergence;
        let s = &mut self.state;
        s.online.push(Snapshot {
            t: l.t + 1,
            pt: l.pt,
            total_packets: l.total,
            max_queue: l.max_queue,
        });
        // Every 128 steps; the integer-first predicate almost always says
        // no without a slope fit, and the full report only words a yes.
        let assess_now = s.online.seen().is_multiple_of(128);
        if divergence && s.violation.is_none() && assess_now && s.online.diverging() {
            let report = s.online.assess();
            let (slope, sup) = (report.slope, report.sup_total);
            s.violation = Some(Violation {
                kind: ViolationKind::Divergence,
                step: l.t,
                detail: format!(
                    "online detector: backlog diverging (slope {slope:.4}/step, sup {sup})"
                ),
            });
        }
        s.samples_seen += 1;
    }

    /// The step's first hard-check failure, in phase order.
    fn first_violation(&mut self, step: &StepRecord<'_>) -> Option<(ViolationKind, String)> {
        let l = &step.ledger;
        let t = l.t;
        // Legality (Definition 6(ii)) of a lie: the liar is special,
        // its queue is at most R, and so is the lie.
        let r = self.retention;
        for d in step.declarations.iter().filter(|d| d.declared != d.queue) {
            let (node, q, declared) = (d.node.index(), d.queue, d.declared);
            let detail = if !self.special.get(node).copied().unwrap_or(false) {
                format!("non-special node {node} declared {declared} with queue {q}")
            } else if q > r {
                format!("node {node} lied ({declared}) with queue {q} above retention {r}")
            } else if declared > r {
                format!("node {node} declared {declared} above retention {r} (queue {q})")
            } else {
                continue;
            };
            return Some((ViolationKind::DeclarationLegality, detail));
        }
        for tx in step.plan {
            let edge = tx.edge.index();
            let (Some(&up), Some(stamp)) =
                (step.active_edges.get(edge), self.edge_seen.get_mut(edge))
            else {
                continue;
            };
            let reused = *stamp == t + 1;
            *stamp = t + 1;
            if !up {
                let from = tx.from.index();
                return Some((
                    ViolationKind::LinkCapacity,
                    format!("edge {edge} carried a packet from node {from} while inactive"),
                ));
            }
            if reused {
                return Some((
                    ViolationKind::LinkCapacity,
                    format!("edge {edge} carried more than one packet in step {t}"),
                ));
            }
        }
        let (p, i, d, lost) = (self.state.prev_total, l.injected, l.delivered, l.lost);
        let expected = p.wrapping_add(i).wrapping_sub(d).wrapping_sub(lost);
        if l.total != expected {
            return Some((
                ViolationKind::Conservation,
                format!(
                    "total {} != {p} + {i} injected - {d} delivered - {lost} lost = {expected}",
                    l.total
                ),
            ));
        }
        match self.config.pt_bound {
            Some(bound) if l.pt as f64 > bound => Some((
                ViolationKind::StateBound,
                format!("P_t = {} exceeds the certified bound {bound:.3e}", l.pt),
            )),
            _ => None,
        }
    }
}

impl<I: SimObserver> SimObserver for InvariantGuard<I> {
    fn on_step(&mut self, step: &StepRecord<'_>) {
        self.check(step);
        self.state.prev_total = step.ledger.total;
        self.inner.on_step(step);
    }

    fn finish(&mut self) {
        self.inner.finish();
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        wire::put_nested(out, |out| self.state.save(out));
        wire::put_nested(out, |out| self.inner.save_state(out));
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        let mut r = wire::Reader::new(bytes);
        let mut state = wire::Reader::new(r.bytes()?);
        self.state = GuardState::load(&mut state)?;
        state.done()?;
        let inner = r.bytes()?;
        r.done()?;
        self.inner.load_state(inner)
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
    /// the installed guard: the installed policy's periodic snapshots are
    /// written (the one at `target` is the caller's, as for `run_until`),
    /// the violation latch is polled after every step, and budgets stop
    /// the run gracefully; the wall-clock budget counts from this call.
    /// On any abort — violation or budget — a crash-safe checkpoint of the
    /// stopped state is dumped into `dump_dir` (when given) for post-mortem
    /// inspection; the scenario + seed replayed through the same guard
    /// re-triggers a violation deterministically.
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

        let mut outcome = GuardOutcome::Completed;
        while self.time() < target {
            if let Some(f) = fault {
                if self.time() == f.step {
                    self.corrupt_queue_for_test(f.node, f.amount);
                }
            }
            self.step();
            self.snapshot_if_due()?;
            if let Some(v) = self.observer().violation() {
                outcome = GuardOutcome::Violated(v.clone());
                break;
            }
            // The guard keeps the total the step's ledger summed.
            if cfg
                .max_backlog
                .is_some_and(|b| self.observer().state.prev_total > b)
            {
                outcome = GuardOutcome::BudgetExceeded(BudgetKind::Backlog);
                break;
            }
            if let Some(ms) = cfg.max_wall_ms {
                if self.time() % WALL_CHECK_EVERY == 0 && started.elapsed().as_millis() as u64 > ms
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
    use crate::stability::{assess_stability, StabilityVerdict};
    use crate::trace::tests::{with_varint, Crafted};
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
        // ~2/step, so a budget of 40 stops within a few dozen steps, at
        // the first step past it.
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
            .history(crate::HistoryMode::EveryStep)
            .observer(guard)
            .build();
        let report = sim.run_guarded(100_000, None, None).unwrap();
        assert_eq!(
            report.outcome,
            GuardOutcome::BudgetExceeded(BudgetKind::Backlog)
        );
        assert!(report.steps < 100_000);
        assert_eq!(sim.observer().state.prev_total, sim.total_packets());
        let (last, before) = sim.metrics().history.split_last().unwrap();
        assert!(last.total_packets > 40);
        assert!(before.iter().all(|s| s.total_packets <= 40));
    }

    #[test]
    fn step_budget_clips_the_target() {
        let mut config = GuardConfig::checks();
        config.max_steps = Some(60);
        let mut sim = guarded_sim(config);
        let report = sim.run_guarded(10_000, None, None).unwrap();
        assert_eq!(
            report.outcome,
            GuardOutcome::BudgetExceeded(BudgetKind::Steps)
        );
        assert_eq!(report.steps, 60);
    }

    fn spec_with_retention(r: u64) -> TrafficSpec {
        TrafficSpecBuilder::new(generators::path(4))
            .source(0, 1)
            .sink(3, 2)
            .retention(r)
            .build()
            .unwrap()
    }

    fn latched<I: SimObserver>(guard: &InvariantGuard<I>) -> (ViolationKind, u64, String) {
        let v = guard.violation().expect("violation latched");
        (v.kind, v.step, v.detail.clone())
    }

    #[test]
    fn guard_state_round_trips_through_save_load() {
        let spec = spec();
        let mut guard = InvariantGuard::new(&spec, GuardConfig::checks());
        let mut step = Crafted::at(0);
        (step.ledger.injected, step.ledger.total, step.ledger.pt) = (1, 1, 1);
        step.feed(&mut guard);
        let mut step = Crafted::at(1);
        (step.ledger.total, step.ledger.pt) = (2, 4);
        step.feed(&mut guard);
        assert_eq!(
            guard.violation().map(|v| v.kind),
            Some(ViolationKind::Conservation)
        );
        let mut bytes = Vec::new();
        guard.save_state(&mut bytes);
        let mut restored = InvariantGuard::new(&spec, GuardConfig::checks());
        restored.load_state(&bytes).unwrap();
        assert_eq!(restored.state, guard.state);
        assert_eq!(restored.state.prev_total, 2);
        assert_eq!(restored.state.samples_seen, 2);
        assert_eq!(restored.online_report(), guard.online_report());
    }

    #[test]
    fn guard_snapshot_rejects_truncation_and_oversized_counts() {
        let spec = spec();
        let mut guard = InvariantGuard::new(&spec, GuardConfig::checks());
        for t in 0..100 {
            Crafted::at(t).declare(1, 2, 0).feed(&mut guard);
        }
        let mut bytes = Vec::new();
        guard.save_state(&mut bytes);
        for cut in 0..bytes.len() {
            let mut fresh = InvariantGuard::new(&spec, GuardConfig::checks());
            let err = fresh.load_state(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, LggError::CheckpointCorrupt { .. }),
                "cut {cut}: {err}"
            );
        }
        // The online detector's snapshot count follows the baseline, the
        // step count, the latched violation, and the detector's capacity,
        // stride and count seen; claim far more records than the blob holds.
        let mut outer = wire::Reader::new(&bytes);
        let (state, inner) = (outer.bytes().unwrap(), outer.bytes().unwrap());
        let mut r = wire::Reader::new(state);
        r.u64().unwrap();
        r.u64().unwrap();
        assert!(r.bool_().unwrap(), "the relay's lie is latched");
        r.u32().unwrap();
        r.u64().unwrap();
        r.str_().unwrap();
        for _ in 0..3 {
            r.u64().unwrap();
        }
        let at = state.len() - r.remaining();
        assert_eq!(r.u64().unwrap(), 100);
        let mut forged = Vec::new();
        wire::put_bytes(&mut forged, &with_varint(state, at, u64::MAX / 2));
        wire::put_bytes(&mut forged, inner);
        let mut fresh = InvariantGuard::new(&spec, GuardConfig::checks());
        let err = fresh.load_state(&forged).unwrap_err();
        assert!(matches!(err, LggError::CheckpointCorrupt { .. }), "{err}");
    }

    #[test]
    fn illegal_declarations_are_latched() {
        // Node 0 is a source (special), node 1 a plain relay; R = 5.
        let spec = spec_with_retention(5);
        let guard = || InvariantGuard::new(&spec, GuardConfig::checks());
        // Legal: a special node lying at or below R, and truthful relays.
        let mut g = guard();
        Crafted::at(3)
            .declare(0, 4, 0)
            .declare(1, 9, 9)
            .feed(&mut g);
        Crafted::at(4).declare(0, 5, 5).feed(&mut g);
        assert!(g.violation().is_none(), "legal declaration flagged");
        // Illegal: a non-special node lying.
        let mut g = guard();
        Crafted::at(7).declare(1, 2, 0).feed(&mut g);
        let (kind, step, detail) = latched(&g);
        assert_eq!((kind, step), (ViolationKind::DeclarationLegality, 7));
        assert!(detail.contains("non-special node 1"), "{detail}");
        // Illegal: lying with a queue above R.
        let mut g = guard();
        Crafted::at(9).declare(0, 9, 5).feed(&mut g);
        let (kind, _, detail) = latched(&g);
        assert_eq!(kind, ViolationKind::DeclarationLegality);
        assert!(
            detail.contains("with queue 9 above retention 5"),
            "{detail}"
        );
        // Illegal: a lie above R.
        let mut g = guard();
        Crafted::at(9).declare(0, 2, 6).feed(&mut g);
        let (kind, _, detail) = latched(&g);
        assert_eq!(kind, ViolationKind::DeclarationLegality);
        assert!(detail.contains("declared 6 above retention 5"), "{detail}");
    }

    #[test]
    fn double_link_use_is_latched() {
        let spec = spec();
        let mut guard = InvariantGuard::new(&spec, GuardConfig::checks());
        Crafted::at(4).send(1, 1).send(1, 1).feed(&mut guard);
        let (kind, step, detail) = latched(&guard);
        assert_eq!((kind, step), (ViolationKind::LinkCapacity, 4));
        assert!(detail.contains("more than one packet"), "{detail}");
        // A fresh step may reuse the link.
        let mut guard = InvariantGuard::new(&spec, GuardConfig::checks());
        Crafted::at(4).send(1, 1).feed(&mut guard);
        Crafted::at(5).send(1, 1).feed(&mut guard);
        assert!(guard.violation().is_none());
    }

    #[test]
    fn inactive_link_use_is_latched() {
        let spec = spec();
        let mut guard = InvariantGuard::new(&spec, GuardConfig::checks());
        let mut step = Crafted::at(2).send(0, 0);
        step.active_edges[0] = false;
        step.feed(&mut guard);
        let (kind, step, detail) = latched(&guard);
        assert_eq!((kind, step), (ViolationKind::LinkCapacity, 2));
        assert!(detail.contains("inactive"), "{detail}");
    }

    #[test]
    fn conservation_breach_is_latched() {
        let spec = spec();
        let mut guard = InvariantGuard::new(&spec, GuardConfig::checks());
        guard.prime_backlog(4);
        // 4 + 2 injected - 1 delivered - 1 lost = 4.
        let mut step = Crafted::at(0).send(0, 0);
        step.lost[0] = true;
        step.ledger.injected = 2;
        step.ledger.delivered = 1;
        step.ledger.lost = 1;
        step.ledger.total = 4;
        step.feed(&mut guard);
        assert!(guard.violation().is_none());
        let mut step = Crafted::at(1);
        step.ledger.total = 5;
        step.feed(&mut guard);
        let (kind, step, detail) = latched(&guard);
        assert_eq!((kind, step), (ViolationKind::Conservation, 1));
        assert_eq!(
            detail,
            "total 5 != 4 + 0 injected - 0 delivered - 0 lost = 4"
        );
    }

    #[test]
    fn checks_run_in_phase_order() {
        // One step breaking a declaration, a link and conservation: the
        // guard names the declaration; without it, the link; without
        // both, conservation; the P_t bound only when all else holds.
        let spec = spec();
        let mut config = GuardConfig::checks();
        config.pt_bound = Some(1.0);
        let first = |decl: bool, link: bool, total: u64| {
            let mut step = Crafted::at(6);
            if decl {
                step = step.declare(2, 3, 1);
            }
            if link {
                step = step.send(2, 2).send(2, 2);
            }
            (step.ledger.total, step.ledger.pt) = (total, 9);
            let mut guard = InvariantGuard::new(&spec, config.clone());
            step.feed(&mut guard);
            guard.violation().map(|v| v.kind)
        };
        assert_eq!(
            first(true, true, 3),
            Some(ViolationKind::DeclarationLegality)
        );
        assert_eq!(first(false, true, 3), Some(ViolationKind::LinkCapacity));
        assert_eq!(first(false, false, 3), Some(ViolationKind::Conservation));
        assert_eq!(first(false, false, 0), Some(ViolationKind::StateBound));
        // The first violation stays latched across later ones.
        let mut guard = InvariantGuard::new(&spec, GuardConfig::checks());
        Crafted::at(0).send(0, 0).send(0, 0).feed(&mut guard);
        Crafted::at(1).declare(1, 1, 0).feed(&mut guard);
        assert_eq!(latched(&guard).0, ViolationKind::LinkCapacity);
        assert_eq!(
            guard.state.samples_seen, 2,
            "samples follow the run after a latch"
        );
    }

    #[test]
    fn pt_bound_breach_is_latched() {
        let spec = spec();
        let mut config = GuardConfig::checks();
        config.pt_bound = Some(100.0);
        let mut guard = InvariantGuard::new(&spec, config);
        let mut step = Crafted::at(12);
        step.ledger.pt = 99;
        step.feed(&mut guard);
        assert!(guard.violation().is_none());
        let mut step = Crafted::at(13);
        step.ledger.pt = 101;
        step.feed(&mut guard);
        let (kind, step, _) = latched(&guard);
        assert_eq!((kind, step), (ViolationKind::StateBound, 13));
    }

    #[test]
    fn divergence_check_latches_on_growing_backlog() {
        let spec = spec();
        let mut config = GuardConfig::checks();
        config.divergence = true;
        let mut guard = InvariantGuard::new(&spec, config);
        let mut pushed = Vec::new();
        for t in 0..2048u64 {
            let mut step = Crafted::at(t);
            let total = 5 + 3 * t;
            // Injections account for the growth, so conservation holds.
            step.ledger.injected = if t == 0 { 5 } else { 3 };
            (step.ledger.total, step.ledger.max_queue) = (total, total);
            step.ledger.pt = (total as u128).pow(2);
            step.feed(&mut guard);
            pushed.push(Snapshot {
                t: t + 1,
                pt: step.ledger.pt,
                total_packets: total,
                max_queue: total,
            });
        }
        // The offline oracle over the same snapshots, assessed at every
        // 128-step point: the first `Diverging` names the latch step and
        // words its detail.
        let (seen, report) = (128..=pushed.len())
            .step_by(128)
            .map(|k| (k, assess_stability(&pushed[..k])))
            .find(|(_, r)| r.verdict == StabilityVerdict::Diverging)
            .expect("the oracle sees the growth");
        let (slope, sup) = (report.slope, report.sup_total);
        assert_eq!(
            latched(&guard),
            (
                ViolationKind::Divergence,
                seen as u64 - 1,
                format!("online detector: backlog diverging (slope {slope:.4}/step, sup {sup})")
            )
        );
    }
}
