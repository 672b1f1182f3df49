//! The synchronous simulation engine.
//!
//! [`Simulation::step`] is the one step pipeline: it executes the seven
//! phases documented on the crate root, organized around the
//! **active-node set** `{v : q_t(v) > 0}`.
//!
//! * An occupancy bitset (one `u64` word per 64 nodes) tracks the active
//!   set. A credit sets a node's bit; the closing metrics pass, which
//!   visits every set bit anyway, clears the bits of nodes that drained.
//!   The set therefore needs no merge, sort or separate sweep. Once per
//!   step, after injection, it is expanded into the ascending node list
//!   that [`NetView::active_nodes`] reads.
//! * Injection, declaration and extraction iterate the precomputed
//!   source, special-node and sink lists. Only special nodes may lie
//!   (Definition 6(ii)), so declarations are an overlay: an n-length
//!   vector holding `u64::MAX` ("truthful, read the queue") everywhere
//!   except at the special nodes, which phase 3 rewrites every step.
//! * The network state `P_t = Σ q²`, the total `Σ q` and the largest
//!   queue are summed over the active set in one pass at the end of the
//!   step.
//! * Plan validation marks the links and counts the sends it accepts, and
//!   the transmission loop unmarks exactly those, so no O(m + n) clear
//!   is needed.
//! * Surviving packets are credited to their receivers inside the
//!   transmission loop, with no staging.
//!
//! Cost per step is O(active + plan + n/64). The full-scan executable
//! specification of the same semantics lives in the integration-test
//! crate (`tests/src/lib.rs`) as the differential oracle: every scenario
//! file and property case must agree with it bit for bit, RNG streams
//! included.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use mgraph::NodeId;
use netmodel::{TrafficIndex, TrafficSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ages::AgeState;
use crate::checkpoint::{self, wire, CheckpointConfig};
use crate::declare::{clamp_declaration, DeclarationPolicy, TruthfulDeclaration};
use crate::dynamic::{StaticTopology, TopologyProcess};
use crate::error::LggError;
use crate::injection::{ExactInjection, InjectionProcess};
use crate::loss::{LossModel, NoLoss};
use crate::metrics::{HistoryMode, Metrics, Snapshot};
use crate::protocol::{NetView, RoutingProtocol, Transmission};
use crate::rng::{split_seed, streams};
use crate::trace::{NoopObserver, SimObserver, TraceEvent};

/// Decides how many packets an extractor removes at the end of a step.
///
/// The engine clamps the result to Definition 7(i)'s envelope:
/// `min(out, q − R) <= extracted <= min(out, q)` when `q > R`, and
/// `0 <= extracted <= min(out, q)` otherwise. Classic sinks (`R = 0`) are
/// therefore forced to extract exactly `min(out, q)` under
/// [`MaxExtraction`], matching Section II.
pub trait ExtractionPolicy {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Raw extraction amount before legality clamping.
    fn extract(&mut self, spec: &TrafficSpec, v: NodeId, q: u64, t: u64, rng: &mut StdRng)
        -> u64;

    /// Appends the policy's evolving state to `out` for a checkpoint (see
    /// [`crate::checkpoint`]). Both shipped policies are pure functions of
    /// `(spec, v, q)`, so the default writes nothing; custom stateful
    /// policies must override both hooks.
    fn save_state(&mut self, _out: &mut Vec<u8>) {}

    /// Restores state captured by [`ExtractionPolicy::save_state`].
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), LggError> {
        Ok(())
    }
}

/// Extract as much as allowed: `min(out, q)` — the classic sink behavior.
#[derive(Debug, Default, Clone, Copy)]
pub struct MaxExtraction;

impl ExtractionPolicy for MaxExtraction {
    fn name(&self) -> &'static str {
        "max"
    }

    fn extract(
        &mut self,
        spec: &TrafficSpec,
        v: NodeId,
        q: u64,
        _t: u64,
        _rng: &mut StdRng,
    ) -> u64 {
        q.min(spec.out_rate(v))
    }
}

/// Extract as *little* as Definition 7(i) allows: `min(out, q − R)` above
/// the retention threshold, nothing below — the laziest legal
/// R-pseudo-destination.
#[derive(Debug, Default, Clone, Copy)]
pub struct LazyExtraction;

impl ExtractionPolicy for LazyExtraction {
    fn name(&self) -> &'static str {
        "lazy"
    }

    fn extract(
        &mut self,
        spec: &TrafficSpec,
        v: NodeId,
        q: u64,
        _t: u64,
        _rng: &mut StdRng,
    ) -> u64 {
        if q > spec.retention {
            (q - spec.retention).min(spec.out_rate(v))
        } else {
            0
        }
    }
}

/// Clamps a raw extraction to Definition 7(i)'s envelope.
fn clamp_extraction(spec: &TrafficSpec, v: NodeId, q: u64, raw: u64) -> u64 {
    let out = spec.out_rate(v);
    let upper = q.min(out);
    let lower = if q > spec.retention {
        (q - spec.retention).min(out)
    } else {
        0
    };
    raw.clamp(lower, upper)
}

/// Queue lengths plus an occupancy bitset over them, one `u64` word per
/// 64 nodes. Bit `v` is set for every node with `q(v) > 0`: a credit from
/// an empty queue sets it. A debit leaves it alone; the step's closing
/// pass, [`QueueState::settle`], drops the bits of nodes that drained, so
/// between steps the set is exactly `{v : q(v) > 0}`.
struct QueueState {
    q: Vec<u64>,
    occupied: Vec<u64>,
}

/// What [`QueueState::settle`] sums over the active set.
struct Totals {
    /// `Σ q²`.
    pt: u128,
    /// `Σ q`.
    total: u64,
    /// The largest queue.
    max_q: u64,
    /// Nodes holding packets.
    active: usize,
}

impl QueueState {
    fn new(q: Vec<u64>) -> Self {
        let mut qs = QueueState {
            occupied: vec![!0; q.len().div_ceil(64)],
            q,
        };
        qs.settle();
        qs
    }

    /// Adds `amt` packets to node `v`'s queue.
    #[inline]
    fn credit(&mut self, v: usize, amt: u64) {
        if self.q[v] == 0 && amt > 0 {
            self.occupied[v / 64] |= 1 << (v % 64);
        }
        self.q[v] += amt;
    }

    /// Removes `amt <= q(v)` packets from node `v`'s queue.
    #[inline]
    fn debit(&mut self, v: usize, amt: u64) {
        self.q[v] -= amt;
    }

    /// Refills `out` with the nodes whose bit is set, in ascending order.
    fn fill_active(&self, out: &mut Vec<NodeId>) {
        out.clear();
        for (w, &word) in self.occupied.iter().enumerate() {
            let base = (w * 64) as u32;
            // A full word needs no bit scan.
            if word == !0 {
                out.extend((base..base + 64).map(NodeId::new));
                continue;
            }
            let mut bits = word;
            while bits != 0 {
                out.push(NodeId::new(base + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
    }

    /// Number of nodes whose bit is set.
    fn active_count(&self) -> usize {
        self.occupied.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears the bits of drained nodes (and of any padding past the last
    /// node), making the set exact, and sums the queues it covers: idle
    /// nodes add nothing to `Σ q²`, `Σ q` or the max.
    fn settle(&mut self) -> Totals {
        let mut sums = Totals {
            pt: 0,
            total: 0,
            max_q: 0,
            active: 0,
        };
        let mut add = |x: u64| {
            sums.pt += (x as u128) * (x as u128);
            sums.total += x;
            sums.max_q = sums.max_q.max(x);
            (x > 0) as u64
        };
        let q = &self.q;
        for (w, word) in self.occupied.iter_mut().enumerate() {
            let (mut bits, mut keep) = (*word, 0u64);
            // A word at least half full is summed as a plain slice,
            // without bit scans.
            let chunk = &q[(w * 64).min(q.len())..(w * 64 + 64).min(q.len())];
            if 2 * bits.count_ones() as usize >= chunk.len() {
                for (b, &x) in chunk.iter().enumerate() {
                    keep |= add(x) << b;
                }
                bits = 0;
            }
            while bits != 0 {
                let b = bits.trailing_zeros();
                keep |= add(q.get(w * 64 + b as usize).copied().unwrap_or(0)) << b;
                bits &= bits - 1;
            }
            *word = keep;
        }
        sums.active = self.active_count();
        sums
    }
}

/// Builder for [`Simulation`] with sensible classic-network defaults:
/// exact injection, no loss, static topology, truthful declarations,
/// maximal extraction.
///
/// ```
/// use simqueue::{protocol::NullProtocol, SimulationBuilder};
/// use netmodel::TrafficSpecBuilder;
///
/// let spec = TrafficSpecBuilder::new(mgraph::generators::path(3))
///     .source(0, 2)
///     .sink(2, 2)
///     .build()
///     .unwrap();
/// let mut sim = SimulationBuilder::new(spec, Box::new(NullProtocol))
///     .seed(7)
///     .build();
/// sim.run(10);
/// // Nothing routes under the null protocol: all packets sit at the source.
/// assert_eq!(sim.queues()[0], 20);
/// ```
///
/// Telemetry: [`SimulationBuilder::observer`] swaps in any
/// [`SimObserver`]; the default [`NoopObserver`] keeps the step loop
/// trace-free at zero cost.
pub struct SimulationBuilder<O: SimObserver = NoopObserver> {
    spec: TrafficSpec,
    protocol: Box<dyn RoutingProtocol>,
    injection: Box<dyn InjectionProcess>,
    loss: Box<dyn LossModel>,
    topology: Box<dyn TopologyProcess>,
    declaration: Box<dyn DeclarationPolicy>,
    extraction: Box<dyn ExtractionPolicy>,
    seed: u64,
    history: HistoryMode,
    initial_queues: Option<Vec<u64>>,
    track_ages: bool,
    observer: O,
}

impl SimulationBuilder<NoopObserver> {
    /// Starts a builder for `spec` driven by `protocol`.
    pub fn new(spec: TrafficSpec, protocol: Box<dyn RoutingProtocol>) -> Self {
        SimulationBuilder {
            spec,
            protocol,
            injection: Box::new(ExactInjection),
            loss: Box::new(NoLoss),
            topology: Box::new(StaticTopology),
            declaration: Box::new(TruthfulDeclaration),
            extraction: Box::new(MaxExtraction),
            seed: 0xC0FFEE,
            history: HistoryMode::Sampled(16),
            initial_queues: None,
            track_ages: false,
            observer: NoopObserver,
        }
    }
}

impl<O: SimObserver> SimulationBuilder<O> {
    /// Installs `observer` as the simulation's telemetry sink, replacing
    /// the current one (the type parameter changes with it, so this works
    /// from the [`NoopObserver`] default and between real observers
    /// alike).
    pub fn observer<O2: SimObserver>(self, observer: O2) -> SimulationBuilder<O2> {
        SimulationBuilder {
            spec: self.spec,
            protocol: self.protocol,
            injection: self.injection,
            loss: self.loss,
            topology: self.topology,
            declaration: self.declaration,
            extraction: self.extraction,
            seed: self.seed,
            history: self.history,
            initial_queues: self.initial_queues,
            track_ages: self.track_ages,
            observer,
        }
    }

    /// Sets the injection process.
    pub fn injection(mut self, i: Box<dyn InjectionProcess>) -> Self {
        self.injection = i;
        self
    }

    /// Sets the loss model.
    pub fn loss(mut self, l: Box<dyn LossModel>) -> Self {
        self.loss = l;
        self
    }

    /// Sets the topology process.
    pub fn topology(mut self, t: Box<dyn TopologyProcess>) -> Self {
        self.topology = t;
        self
    }

    /// Sets the declaration policy.
    pub fn declaration(mut self, d: Box<dyn DeclarationPolicy>) -> Self {
        self.declaration = d;
        self
    }

    /// Sets the extraction policy.
    pub fn extraction(mut self, e: Box<dyn ExtractionPolicy>) -> Self {
        self.extraction = e;
        self
    }

    /// Sets the master seed (all randomness derives from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the history recording mode.
    pub fn history(mut self, h: HistoryMode) -> Self {
        self.history = h;
        self
    }

    /// Starts the run from the given queue vector instead of all-empty —
    /// used by the drift experiments that warm-start above `nY²`.
    pub fn initial_queues(mut self, q: Vec<u64>) -> Self {
        self.initial_queues = Some(q);
        self
    }

    /// Enables per-packet age tracking (FIFO service discipline): the run
    /// then records true latency distributions, readable via
    /// [`Simulation::latency_stats`]. Costs one timestamp per stored
    /// packet.
    pub fn track_ages(mut self, on: bool) -> Self {
        self.track_ages = on;
        self
    }

    /// Finalizes the simulation.
    pub fn build(self) -> Simulation<O> {
        let n = self.spec.node_count();
        let m = self.spec.graph.edge_count();
        let queues = match self.initial_queues {
            Some(q) => {
                assert_eq!(q.len(), n, "initial queue vector length");
                q
            }
            None => vec![0; n],
        };
        let ages = self.track_ages.then(|| {
            let mut a = AgeState::new(n);
            a.seed(&queues);
            a
        });
        // A legal lie equals the overlay's "truthful" sentinel only if R does.
        assert!(self.spec.retention < u64::MAX, "retention u64::MAX is reserved");
        Simulation {
            ages,
            queues: QueueState::new(queues),
            declared: vec![u64::MAX; n],
            active_edges: vec![true; m],
            prev_active_edges: Vec::new(),
            plan: Vec::new(),
            lost_mask: Vec::new(),
            active: Vec::new(),
            edge_used: vec![false; m],
            sent: vec![0; n],
            traffic: TrafficIndex::new(&self.spec),
            t: 0,
            metrics: {
                let mut m = Metrics::new();
                m.link_sends = vec![0; self.spec.graph.edge_count()];
                m
            },
            rng_injection: StdRng::seed_from_u64(split_seed(self.seed, streams::INJECTION)),
            rng_loss: StdRng::seed_from_u64(split_seed(self.seed, streams::LOSS)),
            rng_topology: StdRng::seed_from_u64(split_seed(self.seed, streams::TOPOLOGY)),
            rng_policy: StdRng::seed_from_u64(split_seed(self.seed, streams::POLICY)),
            spec: self.spec,
            protocol: self.protocol,
            injection: self.injection,
            loss: self.loss,
            topology: self.topology,
            declaration: self.declaration,
            extraction: self.extraction,
            history: self.history,
            observer: self.observer,
            checkpoint: None,
        }
    }
}

/// Construction-time overrides a run driver threads into a scenario-built
/// simulation — the one bag of knobs `Scenario::build` (CLI), the sweep
/// grid, and the experiment harness all accept, so a new capability wired
/// here reaches every entry point at once.
#[derive(Default)]
pub struct SimOverrides {
    /// Replaces the scenario's master seed.
    pub seed: Option<u64>,
    /// Replaces the scenario's history mode.
    pub history: Option<HistoryMode>,
    /// Installs a custom observer in place of the scenario's telemetry
    /// section.
    pub observer: Option<Box<dyn SimObserver>>,
    /// Enables periodic crash-safe checkpointing on the built simulation
    /// (see [`Simulation::set_checkpoint`]).
    pub checkpoint: Option<CheckpointConfig>,
}

/// A running simulation of one protocol on one network.
///
/// The `O` parameter is the installed [`SimObserver`]; the default
/// [`NoopObserver`] keeps existing `Simulation` signatures valid and the
/// step loop telemetry-free.
pub struct Simulation<O: SimObserver = NoopObserver> {
    spec: TrafficSpec,
    /// Precomputed source/sink/special-node lists (ascending node order).
    traffic: TrafficIndex,
    protocol: Box<dyn RoutingProtocol>,
    injection: Box<dyn InjectionProcess>,
    loss: Box<dyn LossModel>,
    topology: Box<dyn TopologyProcess>,
    declaration: Box<dyn DeclarationPolicy>,
    extraction: Box<dyn ExtractionPolicy>,
    history: HistoryMode,

    queues: QueueState,
    /// Declaration overlay read through [`NetView::declared_of`]: `u64::MAX`
    /// ("truthful, read the queue") at relays, this step's clamped
    /// declaration at special nodes. Derived state, so not checkpointed.
    declared: Vec<u64>,
    active_edges: Vec<bool>,
    /// Last step's link states, kept only while an observer is enabled —
    /// phase 1 diffs it against `active_edges` to emit link flip events.
    prev_active_edges: Vec<bool>,
    /// The ascending active set `{v : q > 0}` as it stands after
    /// injection, refilled from the occupancy bitset every step.
    active: Vec<NodeId>,
    /// Links validation accepted a packet on this step, and packets
    /// accepted per sender. Phase 5 resets exactly the entries it
    /// executes, so both are all clear between steps.
    edge_used: Vec<bool>,
    sent: Vec<u32>,

    // Reused per-step scratch (allocation-free hot loop).
    plan: Vec<Transmission>,
    lost_mask: Vec<bool>,

    t: u64,
    metrics: Metrics,
    ages: Option<AgeState>,
    observer: O,
    rng_injection: StdRng,
    rng_loss: StdRng,
    rng_topology: StdRng,
    rng_policy: StdRng,
    /// When set, [`Simulation::run_until`] writes periodic crash-safe
    /// snapshots (see [`crate::checkpoint`]).
    checkpoint: Option<CheckpointConfig>,
}

impl<O: SimObserver> Simulation<O> {
    /// The traffic specification being simulated.
    pub fn spec(&self) -> &TrafficSpec {
        &self.spec
    }

    /// Current step count.
    pub fn time(&self) -> u64 {
        self.t
    }

    /// Current queue lengths.
    pub fn queues(&self) -> &[u64] {
        &self.queues.q
    }

    /// Current network state `P_t = Σ q²`, recomputed from the full queue
    /// vector — an independent cross-check of the per-step value, which
    /// sums over the active set only.
    pub fn network_state(&self) -> u128 {
        let q = &self.queues.q;
        q.iter().map(|&x| (x as u128) * (x as u128)).sum()
    }

    /// Total stored packets `Σ q`, recomputed from scratch.
    pub fn total_packets(&self) -> u64 {
        self.queues.q.iter().sum()
    }

    /// Test-only fault hook: conjures `amount` packets into node
    /// `v mod n`'s queue *without* counting them as injected — a
    /// deliberate conservation bug for exercising the invariant guard
    /// (see [`crate::guard`]). The engine's own bookkeeping (occupancy)
    /// is kept consistent so the corruption is invisible to
    /// everything except the conservation ledger, exactly like a real
    /// state-update bug would be. Call between steps only.
    #[doc(hidden)]
    pub fn corrupt_queue_for_test(&mut self, v: u32, amount: u64) {
        if self.queues.q.is_empty() {
            return;
        }
        let idx = (v as usize) % self.queues.q.len();
        self.queues.credit(idx, amount);
    }

    /// Number of nodes currently holding packets.
    pub fn active_node_count(&self) -> usize {
        self.queues.active_count()
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Latency distribution of retired packets, when age tracking is on
    /// (see [`SimulationBuilder::track_ages`]).
    pub fn latency_stats(&self) -> Option<&crate::LatencyStats> {
        self.ages.as_ref().map(|a| &a.stats)
    }

    /// The installed telemetry observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutable access to the observer (e.g. to drain a
    /// [`RingRecorder`](crate::RingRecorder) mid-run).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Consumes the simulation, returning the observer — after calling
    /// its [`SimObserver::finish`], since the run is over.
    pub fn into_observer(mut self) -> O {
        self.observer.finish();
        self.observer
    }

    /// Runs `steps` more steps and returns the metrics.
    pub fn run(&mut self, steps: u64) -> &Metrics {
        for _ in 0..steps {
            self.step();
        }
        &self.metrics
    }

    /// Executes one synchronous step (the seven phases documented on the
    /// crate root).
    // Kept out of line: inlined into callers' stepping loops, the step
    // measured about 7% slower on the saturated 16×16 LGG grid.
    #[inline(never)]
    pub fn step(&mut self) {
        let t = self.t;
        let spec = &self.spec;
        let g = &spec.graph;
        // One flag check per step: when the observer is disabled (the
        // NoopObserver default makes this a compile-time constant) every
        // emit site below folds away.
        let observing = self.observer.enabled();

        // 1. Topology.
        if observing {
            self.prev_active_edges.clear();
            self.prev_active_edges.extend_from_slice(&self.active_edges);
        }
        self.topology
            .update(g, t, &mut self.rng_topology, &mut self.active_edges);
        if observing {
            for e in 0..self.active_edges.len() {
                if self.active_edges[e] != self.prev_active_edges[e] {
                    self.observer.observe(if self.active_edges[e] {
                        TraceEvent::LinkUp { t, edge: e as u32 }
                    } else {
                        TraceEvent::LinkDown { t, edge: e as u32 }
                    });
                }
            }
        }

        // 2. Injection (clamped to in(v); Definition 5). Only the
        // precomputed source list is visited: a node with in(v) = 0 can
        // receive nothing and draws no randomness.
        for &v in &self.traffic.sources {
            let cap = spec.in_rate(v);
            let amt = self
                .injection
                .amount(v, t, cap, &mut self.rng_injection)
                .min(cap);
            self.queues.credit(v.index(), amt);
            self.metrics.injected += amt;
            if observing && amt > 0 {
                self.observer.observe(TraceEvent::Injection {
                    t,
                    node: v.index() as u32,
                    amount: amt,
                });
            }
            if let Some(ages) = &mut self.ages {
                ages.fifos[v.index()].extend(std::iter::repeat(t).take(amt as usize));
            }
        }

        // 3. Declaration (clamped to Definition 6(ii)). Relays are always
        // truthful and keep their overlay sentinel; only the special
        // nodes, in ascending order, consult the policy. `active` is the
        // sorted set {v : q > 0} from here through planning.
        self.queues.fill_active(&mut self.active);
        for &v in &self.traffic.specials {
            let q = self.queues.q[v.index()];
            let raw = self.declaration.declare(spec, v, q, t, &mut self.rng_policy);
            let d = clamp_declaration(spec, q, raw);
            self.declared[v.index()] = d;
            if observing && d != q {
                self.observer.observe(TraceEvent::DeclarationLie {
                    t,
                    node: v.index() as u32,
                    true_q: q,
                    declared: d,
                });
            }
        }

        // 4. Planning.
        self.plan.clear();
        {
            let view = NetView {
                graph: g,
                spec,
                declared: &self.declared,
                true_queues: &self.queues.q,
                active_edges: &self.active_edges,
                active_nodes: &self.active,
                t,
            };
            self.protocol.plan(&view, &mut self.plan);
        }

        // Validate the plan in order: one packet per link, active links
        // only, senders cannot overdraw. Invalid entries are dropped and
        // counted.
        let mut write = 0usize;
        for read in 0..self.plan.len() {
            let tx = self.plan[read];
            let e = tx.edge.index();
            let from = tx.from.index();
            let valid = e < self.edge_used.len()
                && !self.edge_used[e]
                && self.active_edges[e]
                && (self.sent[from] as u64) < self.queues.q[from]
                && {
                    let (a, b) = g.endpoints(tx.edge);
                    a == tx.from || b == tx.from
                };
            if valid {
                self.edge_used[e] = true;
                self.sent[from] += 1;
                self.plan[write] = tx;
                write += 1;
            } else {
                self.metrics.rejected_plans += 1;
                if observing {
                    self.observer.observe(TraceEvent::PlanRejected {
                        t,
                        edge: tx.edge.index() as u32,
                        from: tx.from.index() as u32,
                    });
                }
            }
        }
        self.plan.truncate(write);

        // 5. Transmission & loss. Senders always delete; receivers gain
        // only surviving packets (Section II). Survivors are credited on
        // the spot: validation bounded every sender by its queue before
        // this phase, so a debit can never consume a packet that arrived
        // this step, and a sender's ages pop from the FIFO front while
        // arrivals join at the back. Each executed entry also clears the
        // link mark and send count validation set for it.
        self.lost_mask.clear();
        self.lost_mask.resize(self.plan.len(), false);
        self.loss.apply(
            g,
            &self.plan,
            &self.queues.q,
            t,
            &mut self.rng_loss,
            &mut self.lost_mask,
        );
        self.metrics.sent += self.plan.len() as u64;
        for (&tx, &lost) in self.plan.iter().zip(&self.lost_mask) {
            let to = g.other_endpoint(tx.edge, tx.from);
            self.edge_used[tx.edge.index()] = false;
            self.sent[tx.from.index()] = 0;
            if observing {
                self.observer.observe(TraceEvent::Transmission {
                    t,
                    edge: tx.edge.index() as u32,
                    from: tx.from.index() as u32,
                    to: to.index() as u32,
                });
                if lost {
                    self.observer.observe(TraceEvent::Loss {
                        t,
                        edge: tx.edge.index() as u32,
                        from: tx.from.index() as u32,
                    });
                }
            }
            self.queues.debit(tx.from.index(), 1);
            self.metrics.link_sends[tx.edge.index()] += 1;
            if lost {
                self.metrics.lost += 1;
            } else {
                self.queues.credit(to.index(), 1);
            }
            if let Some(ages) = &mut self.ages {
                let born = ages.fifos[tx.from.index()]
                    .pop_front()
                    .expect("age/queue sync");
                if !lost {
                    ages.fifos[to.index()].push_back(born);
                }
            }
        }

        // 6. Extraction (clamped to Definition 7(i)). Every sink is
        // visited whether or not it holds packets, so policies that
        // consume randomness (sharing rng_policy with declaration) see
        // the same stream every step.
        for &v in &self.traffic.sinks {
            let q = self.queues.q[v.index()];
            let raw = self.extraction.extract(spec, v, q, t, &mut self.rng_policy);
            let amt = clamp_extraction(spec, v, q, raw);
            self.queues.debit(v.index(), amt);
            self.metrics.delivered += amt;
            if observing && amt > 0 {
                self.observer.observe(TraceEvent::Extraction {
                    t,
                    node: v.index() as u32,
                    amount: amt,
                });
            }
            if let Some(ages) = &mut self.ages {
                for _ in 0..amt {
                    let born = ages.fifos[v.index()].pop_front().expect("age/queue sync");
                    ages.stats.record(t - born);
                }
            }
        }

        // 7. Metrics, summed over the active set: idle nodes add nothing
        // to Σ q², Σ q or the max.
        self.t += 1;
        self.metrics.steps += 1;
        let Totals {
            pt,
            total,
            max_q,
            active,
        } = self.queues.settle();
        debug_assert_eq!(total, self.total_packets());
        debug_assert_eq!(pt, self.network_state());
        debug_assert_eq!(active, self.queues.q.iter().filter(|&&q| q > 0).count());
        if observing {
            self.observer.observe(TraceEvent::Sample {
                t,
                pt,
                total,
                max_queue: max_q,
                active: active as u64,
            });
        }
        self.metrics.sup_pt = self.metrics.sup_pt.max(pt);
        self.metrics.sup_total = self.metrics.sup_total.max(total);
        self.metrics.max_queue_ever = self.metrics.max_queue_ever.max(max_q);
        self.metrics.packet_steps += total as u128;
        let record = match self.history {
            HistoryMode::None => false,
            HistoryMode::EveryStep => true,
            HistoryMode::Sampled(stride) => stride > 0 && self.t % stride == 0,
        };
        if record {
            self.metrics.history.push(Snapshot {
                t: self.t,
                pt,
                total_packets: total,
                max_queue: max_q,
            });
        }
    }
}

/// Checkpoint/restore: the crash-safe persistence layer for long stability
/// runs. See [`crate::checkpoint`] for the container format; this block
/// owns the *payload* — the complete dynamic state of a simulation.
///
/// The hard guarantee: a run interrupted at any point and resumed from its
/// latest snapshot is **bit-for-bit identical** to the uninterrupted run —
/// same queues, same metrics, same RNG draws, same trace events. Anything
/// that influences a future step must therefore be captured: per-node
/// queues, the link-activity mask, all four engine RNG streams, packet
/// ages, accumulated metrics, and every component's private state (via
/// the `save_state`/`load_state` hooks on the component traits). Derived
/// state (the occupancy bitset, the declaration overlay) and per-step
/// scratch (plans, link marks) are deliberately *not* saved: restore
/// recomputes the bitset from the queues, phase 3 rewrites the overlay
/// before the next plan, and the scratch is reset to the state `build()`
/// produces.
impl<O: SimObserver> Simulation<O> {
    /// Serializes the complete dynamic state into a checkpoint payload.
    ///
    /// Takes `&mut self` because component hooks may need mutation (e.g. a
    /// buffered trace sink flushes before recording its byte count).
    pub fn checkpoint_payload(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        // Fingerprint: enough of the static configuration to reject a
        // snapshot from a different scenario with a precise error instead
        // of silently producing garbage.
        wire::put_u64(&mut out, self.spec.node_count() as u64);
        wire::put_u64(&mut out, self.spec.graph.edge_count() as u64);
        wire::put_u64(&mut out, self.spec.retention);
        wire::put_bool(&mut out, self.ages.is_some());
        wire::put_str(&mut out, self.protocol.name());
        wire::put_str(&mut out, self.injection.name());
        wire::put_str(&mut out, self.loss.name());
        wire::put_str(&mut out, self.topology.name());
        wire::put_str(&mut out, self.declaration.name());
        wire::put_str(&mut out, self.extraction.name());

        // Dynamic engine state.
        wire::put_u64(&mut out, self.t);
        wire::put_u64_slice(&mut out, &self.queues.q);
        wire::put_bool_slice(&mut out, &self.active_edges);
        wire::put_bytes(&mut out, &checkpoint::json_to_bytes(&self.metrics));
        if let Some(ages) = &self.ages {
            wire::put_bytes(&mut out, &checkpoint::json_to_bytes(&ages.stats));
            for fifo in &ages.fifos {
                let flat: Vec<u64> = fifo.iter().copied().collect();
                wire::put_u64_slice(&mut out, &flat);
            }
        }
        for rng in [
            &self.rng_injection,
            &self.rng_loss,
            &self.rng_topology,
            &self.rng_policy,
        ] {
            for w in rng.state() {
                wire::put_u64(&mut out, w);
            }
        }

        // Component-private state, one length-prefixed blob each. The
        // engine does not interpret these; empty is the stateless default.
        let mut blob = Vec::new();
        self.protocol.save_state(&mut blob);
        wire::put_bytes(&mut out, &blob);
        blob.clear();
        self.injection.save_state(&mut blob);
        wire::put_bytes(&mut out, &blob);
        blob.clear();
        self.loss.save_state(&mut blob);
        wire::put_bytes(&mut out, &blob);
        blob.clear();
        self.topology.save_state(&mut blob);
        wire::put_bytes(&mut out, &blob);
        blob.clear();
        self.declaration.save_state(&mut blob);
        wire::put_bytes(&mut out, &blob);
        blob.clear();
        self.extraction.save_state(&mut blob);
        wire::put_bytes(&mut out, &blob);
        blob.clear();
        self.observer.save_state(&mut blob);
        wire::put_bytes(&mut out, &blob);
        out
    }

    /// Restores state captured by [`Simulation::checkpoint_payload`].
    ///
    /// The simulation must have been built from the *same scenario* (same
    /// topology, components, seed). The fingerprint check
    /// catches configuration drift with a [`LggError::CheckpointMismatch`]
    /// naming the first disagreement; payload damage surfaces as
    /// [`LggError::CheckpointCorrupt`]. On any error the simulation is
    /// left in an unspecified state and must be discarded.
    pub fn restore_checkpoint_payload(&mut self, payload: &[u8]) -> Result<(), LggError> {
        let mut r = wire::Reader::new(payload);
        let n = self.spec.node_count();
        let m = self.spec.graph.edge_count();

        let mismatch = |field: &str, found: String, expected: String| {
            LggError::CheckpointMismatch {
                reason: format!("{field}: snapshot has {found}, scenario has {expected}"),
            }
        };
        let ck_n = r.u64()?;
        if ck_n != n as u64 {
            return Err(mismatch("node count", ck_n.to_string(), n.to_string()));
        }
        let ck_m = r.u64()?;
        if ck_m != m as u64 {
            return Err(mismatch("edge count", ck_m.to_string(), m.to_string()));
        }
        let ck_r = r.u64()?;
        if ck_r != self.spec.retention {
            return Err(mismatch(
                "retention",
                ck_r.to_string(),
                self.spec.retention.to_string(),
            ));
        }
        let ck_ages = r.bool_()?;
        if ck_ages != self.ages.is_some() {
            return Err(mismatch(
                "age tracking",
                ck_ages.to_string(),
                self.ages.is_some().to_string(),
            ));
        }
        for (field, expected) in [
            ("protocol", self.protocol.name()),
            ("injection", self.injection.name()),
            ("loss model", self.loss.name()),
            ("topology process", self.topology.name()),
            ("declaration policy", self.declaration.name()),
            ("extraction policy", self.extraction.name()),
        ] {
            let found = r.str_()?;
            if found != expected {
                return Err(mismatch(field, found.to_string(), expected.to_string()));
            }
        }

        self.t = r.u64()?;
        let queues = r.u64_vec()?;
        let active_edges = r.bool_vec()?;
        if queues.len() != n || active_edges.len() != m {
            return Err(LggError::corrupt("state vector length mismatch"));
        }
        self.queues = QueueState::new(queues);
        self.active_edges = active_edges;
        self.metrics = checkpoint::json_from_bytes(r.bytes()?)?;
        if let Some(ages) = &mut self.ages {
            ages.stats = checkpoint::json_from_bytes(r.bytes()?)?;
            for (v, fifo) in ages.fifos.iter_mut().enumerate() {
                *fifo = VecDeque::from(r.u64_vec()?);
                if fifo.len() as u64 != self.queues.q[v] {
                    return Err(LggError::corrupt("age FIFO length disagrees with queue"));
                }
            }
        }
        for rng in [
            &mut self.rng_injection,
            &mut self.rng_loss,
            &mut self.rng_topology,
            &mut self.rng_policy,
        ] {
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = r.u64()?;
            }
            *rng = StdRng::from_state(s);
        }
        self.protocol.load_state(r.bytes()?)?;
        self.injection.load_state(r.bytes()?)?;
        self.loss.load_state(r.bytes()?)?;
        self.topology.load_state(r.bytes()?)?;
        self.declaration.load_state(r.bytes()?)?;
        self.extraction.load_state(r.bytes()?)?;
        self.observer.load_state(r.bytes()?)?;
        r.done()?;

        // Reset per-step scratch to the exact state `build()` produces.
        self.plan.clear();
        self.lost_mask.clear();
        self.prev_active_edges.clear();
        Ok(())
    }

    /// Writes one crash-safe snapshot of the current state into `dir` and
    /// prunes old snapshots, keeping the configured count (default 2).
    pub fn write_checkpoint_to(&mut self, dir: &Path) -> Result<PathBuf, LggError> {
        let payload = self.checkpoint_payload();
        let path = checkpoint::write_atomic(dir, self.t, &payload)?;
        let keep = self.checkpoint.as_ref().map_or(2, |c| c.keep);
        checkpoint::prune(dir, keep)?;
        Ok(path)
    }

    /// Restores from the newest readable snapshot in `dir`, if any.
    ///
    /// Unreadable or corrupt snapshot files (e.g. a torn write from a
    /// crash) are skipped in favor of older ones. Returns the restored
    /// step count, or `None` when the directory holds no usable snapshot
    /// (the caller starts from step 0).
    pub fn resume_from_dir(&mut self, dir: &Path) -> Result<Option<u64>, LggError> {
        match checkpoint::load_latest(dir)? {
            Some((_, payload)) => {
                self.restore_checkpoint_payload(&payload)?;
                Ok(Some(self.t))
            }
            None => Ok(None),
        }
    }

    /// Installs (or removes) the periodic checkpoint policy used by
    /// [`Simulation::run_until`].
    pub fn set_checkpoint(&mut self, cfg: Option<CheckpointConfig>) {
        self.checkpoint = cfg;
    }

    /// The installed checkpoint policy, if any.
    pub fn checkpoint_config(&self) -> Option<&CheckpointConfig> {
        self.checkpoint.as_ref()
    }

    /// Runs until the step counter reaches `target` (absolute, not
    /// relative — resume-friendly), writing a snapshot every
    /// [`CheckpointConfig::every`] steps and once more at `target` when
    /// checkpointing is configured. Without a checkpoint config this is
    /// plain stepping and cannot fail.
    pub fn run_until(&mut self, target: u64) -> Result<&Metrics, LggError> {
        while self.t < target {
            self.step();
            let due = match &self.checkpoint {
                Some(c) if self.t % c.every == 0 || self.t == target => Some(c.dir.clone()),
                _ => None,
            };
            if let Some(dir) = due {
                self.write_checkpoint_to(&dir)?;
            }
        }
        Ok(&self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::declare::{FullRetention, RandomBelowRetention};
    use crate::injection::{BernoulliInjection, ScaledInjection};
    use crate::loss::IidLoss;
    use crate::protocol::NullProtocol;
    use mgraph::generators;
    use netmodel::TrafficSpecBuilder;

    fn path_spec() -> TrafficSpec {
        TrafficSpecBuilder::new(generators::path(3))
            .source(0, 2)
            .sink(2, 2)
            .build()
            .unwrap()
    }

    /// A minimal greedy protocol for engine tests: every node pushes over
    /// every incident link towards any strictly smaller declared queue,
    /// budget permitting (LGG without the sorted preference).
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

    #[test]
    fn null_protocol_accumulates_at_source() {
        let mut sim = SimulationBuilder::new(path_spec(), Box::new(NullProtocol)).build();
        sim.run(10);
        // Source injected 2/step and nothing moved; sink extracted nothing.
        assert_eq!(sim.queues()[0], 20);
        assert_eq!(sim.queues()[1], 0);
        assert_eq!(sim.queues()[2], 0);
        assert_eq!(sim.metrics().injected, 20);
        assert_eq!(sim.metrics().delivered, 0);
        assert_eq!(sim.metrics().sent, 0);
        assert_eq!(sim.active_node_count(), 1);
    }

    #[test]
    fn greedy_protocol_moves_and_delivers() {
        let mut sim = SimulationBuilder::new(path_spec(), Box::new(TestGreedy)).build();
        sim.run(200);
        let m = sim.metrics();
        assert!(m.delivered > 0, "sink never extracted");
        // Path capacity is 1/step but injection is 2/step: backlog grows at
        // the source, yet packets do flow.
        assert!(m.sent > 100);
        assert_eq!(m.rejected_plans, 0);
    }

    #[test]
    fn conservation_invariant() {
        // injected = stored + delivered + lost, at every scale.
        let mut sim = SimulationBuilder::new(path_spec(), Box::new(TestGreedy))
            .loss(Box::new(IidLoss::new(0.3)))
            .seed(99)
            .build();
        sim.run(500);
        let m = sim.metrics();
        let stored: u64 = sim.queues().iter().sum();
        assert_eq!(m.injected, stored + m.delivered + m.lost);
        assert!(m.lost > 0);
    }

    #[test]
    fn determinism_same_seed_same_trajectory() {
        let run = |seed| {
            let mut sim = SimulationBuilder::new(path_spec(), Box::new(TestGreedy))
                .loss(Box::new(IidLoss::new(0.2)))
                .seed(seed)
                .history(HistoryMode::EveryStep)
                .build();
            sim.run(100);
            (sim.queues().to_vec(), sim.metrics().clone())
        };
        let (q1, m1) = run(7);
        let (q2, m2) = run(7);
        let (q3, m3) = run(8);
        assert_eq!(q1, q2);
        assert_eq!(m1, m2);
        // The final queue vector alone can coincide across seeds on a short
        // path (it has very few reachable states); the full trajectory in
        // the metrics history cannot.
        assert_ne!((q3, m3), (q1, m1), "different seeds should diverge");
    }

    #[test]
    fn declaration_is_consulted_once_per_special_node_per_step() {
        // The DeclarationPolicy contract: one call per special node per
        // step, in ascending node order, and none at a relay. The policy
        // always claims 99, so every lie reported is the clamp's R = 3.
        use crate::trace::RingRecorder;
        use std::{cell::RefCell, rc::Rc};
        struct Recording(Rc<RefCell<Vec<(u64, usize)>>>);
        impl DeclarationPolicy for Recording {
            fn name(&self) -> &'static str {
                "recording"
            }
            fn declare(&mut self, _: &TrafficSpec, v: NodeId, _: u64, t: u64, _: &mut StdRng) -> u64 {
                self.0.borrow_mut().push((t, v.index()));
                99
            }
        }
        let spec = TrafficSpecBuilder::new(generators::grid2d(4, 4))
            .source(0, 2)
            .generalized(5, 1, 1)
            .sink(15, 2)
            .retention(3)
            .build()
            .unwrap();
        let calls = Rc::new(RefCell::new(Vec::new()));
        let mut sim = SimulationBuilder::new(spec, Box::new(TestGreedy))
            .declaration(Box::new(Recording(Rc::clone(&calls))))
            .observer(RingRecorder::new(usize::MAX))
            .build();
        sim.run(20);
        let expected: Vec<(u64, usize)> = (0..20)
            .flat_map(|t| [0, 5, 15].map(|v| (t, v)))
            .collect();
        assert_eq!(*calls.borrow(), expected);
        let events = sim.into_observer().take();
        assert!(events.iter().any(|e| matches!(e, TraceEvent::DeclarationLie { .. })));
        for e in events {
            if let TraceEvent::DeclarationLie { true_q, declared, .. } = e {
                assert!(true_q <= 3 && declared == 3, "lied {declared} with queue {true_q}");
            }
        }
    }

    #[test]
    fn trace_covers_every_event_kind() {
        // The event stream is part of the observable outcome: on this
        // workload it must carry injections, lies, transmissions, losses
        // and extractions, and close every step with exactly one sample.
        use crate::trace::RingRecorder;
        let spec = TrafficSpecBuilder::new(generators::grid2d(4, 4))
            .generalized(0, 3, 1)
            .generalized(15, 1, 3)
            .retention(4)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(TestGreedy))
            .declaration(Box::new(FullRetention))
            .extraction(Box::new(LazyExtraction))
            .loss(Box::new(IidLoss::new(0.2)))
            .seed(11)
            .observer(RingRecorder::new(usize::MAX))
            .build();
        sim.run(200);
        let events = sim.into_observer().take();
        let has = |f: fn(&TraceEvent) -> bool| events.iter().any(f);
        assert!(has(|e| matches!(e, TraceEvent::Injection { .. })));
        assert!(has(|e| matches!(e, TraceEvent::DeclarationLie { .. })));
        assert!(has(|e| matches!(e, TraceEvent::Transmission { .. })));
        assert!(has(|e| matches!(e, TraceEvent::Loss { .. })));
        assert!(has(|e| matches!(e, TraceEvent::Extraction { .. })));
        assert!(has(|e| matches!(e, TraceEvent::Sample { .. })));
        // One sample per step, closing each step's event group.
        let samples = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Sample { .. }))
            .count();
        assert_eq!(samples, 200);
        assert!(matches!(
            events.last(),
            Some(TraceEvent::Sample { t: 199, .. })
        ));
    }

    #[test]
    fn observer_does_not_perturb_trajectory() {
        // Observed and unobserved runs of the same seed must agree on
        // every metric — emitting events consumes no randomness.
        use crate::trace::RingRecorder;
        let base = || {
            SimulationBuilder::new(path_spec(), Box::new(TestGreedy))
                .loss(Box::new(IidLoss::new(0.2)))
                .seed(7)
                .history(HistoryMode::EveryStep)
        };
        let mut plain = base().build();
        plain.run(300);
        let mut observed = base().observer(RingRecorder::new(64)).build();
        observed.run(300);
        assert_eq!(plain.queues(), observed.queues());
        assert_eq!(plain.metrics(), observed.metrics());
        assert!(observed.observer().total_seen() > 0);
    }

    #[test]
    fn scaled_injection_is_clamped_and_counted() {
        let mut sim = SimulationBuilder::new(path_spec(), Box::new(NullProtocol))
            .injection(Box::new(ScaledInjection::new(1, 2)))
            .build();
        sim.run(10);
        // rate 2 × 1/2 = 1/step.
        assert_eq!(sim.metrics().injected, 10);
    }

    #[test]
    fn extraction_respects_queue() {
        // Sink starts seeded with 1 packet and out = 2: extracts only 1.
        let spec = path_spec();
        let mut sim = SimulationBuilder::new(spec, Box::new(NullProtocol))
            .initial_queues(vec![0, 0, 1])
            .build();
        sim.step();
        assert_eq!(sim.queues()[2], 0);
        assert_eq!(sim.metrics().delivered, 1);
    }

    #[test]
    fn lazy_extraction_retains_r_packets() {
        let spec = TrafficSpecBuilder::new(generators::path(3))
            .source(0, 1)
            .sink(2, 5)
            .retention(3)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(NullProtocol))
            .initial_queues(vec![0, 0, 10])
            .extraction(Box::new(LazyExtraction))
            .build();
        sim.step();
        // q = 10 > R = 3: must extract at least min(out, q - R) = 5; lazy
        // extracts exactly 5.
        assert_eq!(sim.queues()[2], 5);
        sim.step();
        // q = 5 > 3: extracts min(5, 2) = 2 -> 3 left.
        assert_eq!(sim.queues()[2], 3);
        sim.step();
        // q = 3 <= R: lazy extracts 0, clamp lower bound is 0.
        assert_eq!(sim.queues()[2], 3);
    }

    #[test]
    fn clamp_extraction_envelope() {
        let spec = TrafficSpecBuilder::new(generators::path(3))
            .source(0, 1)
            .sink(2, 4)
            .retention(2)
            .build()
            .unwrap();
        let d = NodeId::new(2);
        // q = 10, out = 4, R = 2: lower = min(4, 8) = 4, upper = 4.
        assert_eq!(clamp_extraction(&spec, d, 10, 0), 4);
        // q = 3, R = 2: lower = min(4,1) = 1, upper = 3.
        assert_eq!(clamp_extraction(&spec, d, 3, 0), 1);
        assert_eq!(clamp_extraction(&spec, d, 3, 99), 3);
        // q = 2 <= R: lower 0, upper 2.
        assert_eq!(clamp_extraction(&spec, d, 2, 0), 0);
        assert_eq!(clamp_extraction(&spec, d, 2, 99), 2);
    }

    #[test]
    fn invalid_plans_are_rejected_not_executed() {
        /// Plans nonsense: sends from an empty node, doubles a link, and
        /// claims a foreign endpoint.
        struct Rogue;
        impl RoutingProtocol for Rogue {
            fn name(&self) -> &'static str {
                "rogue"
            }
            fn plan(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>) {
                let e0 = mgraph::EdgeId::new(0);
                // from node 1 (empty queue at t=0 before any arrivals)
                out.push(Transmission {
                    edge: e0,
                    from: NodeId::new(1),
                });
                // duplicate link usage by the source
                out.push(Transmission {
                    edge: e0,
                    from: NodeId::new(0),
                });
                out.push(Transmission {
                    edge: e0,
                    from: NodeId::new(0),
                });
                // node 2 is not an endpoint of edge 0
                out.push(Transmission {
                    edge: e0,
                    from: NodeId::new(2),
                });
                let _ = view;
            }
        }
        let mut sim = SimulationBuilder::new(path_spec(), Box::new(Rogue)).build();
        sim.step();
        let m = sim.metrics();
        // Only the first source transmission on edge 0 is valid.
        assert_eq!(m.sent, 1);
        assert_eq!(m.rejected_plans, 3);
        // Conservation still holds.
        let stored: u64 = sim.queues().iter().sum();
        assert_eq!(m.injected, stored + m.delivered + m.lost);
    }

    #[test]
    fn queue_state_tracks_occupancy_across_words() {
        // 130 nodes: two full bitset words and a partial third.
        let mut qs = QueueState::new(vec![0; 130]);
        assert_eq!(qs.occupied.len(), 3);
        for v in [0, 63, 64, 127, 128, 129] {
            qs.credit(v, 2);
        }
        qs.debit(63, 2);
        qs.debit(128, 1);
        qs.credit(5, 0);
        // A drained node keeps its bit until the closing pass.
        assert_eq!(qs.active_count(), 6);
        let sums = qs.settle();
        assert_eq!((sums.active, sums.total, sums.max_q), (5, 9, 2));
        assert_eq!(sums.pt, 4 + 4 + 4 + 1 + 4);
        let mut seen = Vec::new();
        qs.fill_active(&mut seen);
        let want: Vec<NodeId> = [0, 64, 127, 128, 129].map(NodeId::new).to_vec();
        assert_eq!(seen, want);
        let rebuilt = QueueState::new(qs.q.clone());
        assert_eq!(rebuilt.occupied, qs.occupied);
    }

    #[test]
    fn history_modes() {
        let mut sim = SimulationBuilder::new(path_spec(), Box::new(NullProtocol))
            .history(HistoryMode::None)
            .build();
        sim.run(50);
        assert!(sim.metrics().history.is_empty());

        let mut sim = SimulationBuilder::new(path_spec(), Box::new(NullProtocol))
            .history(HistoryMode::EveryStep)
            .build();
        sim.run(50);
        assert_eq!(sim.metrics().history.len(), 50);

        let mut sim = SimulationBuilder::new(path_spec(), Box::new(NullProtocol))
            .history(HistoryMode::Sampled(10))
            .build();
        sim.run(50);
        assert_eq!(sim.metrics().history.len(), 5);
    }

    #[test]
    fn age_tracking_records_pipeline_latency() {
        // Path 0-1-2 with rate-1 source at steady state: every delivered
        // packet takes exactly 2 hops + 0 wait = sojourn 2 (born at t,
        // extracted at t+2).
        let spec = TrafficSpecBuilder::new(generators::path(3))
            .source(0, 1)
            .sink(2, 1)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(TestGreedy))
            .track_ages(true)
            .build();
        sim.run(200);
        let stats = sim.latency_stats().expect("ages on");
        assert!(stats.count > 150);
        // All sojourns equal once the pipeline fills; mean ~2.
        assert!((stats.mean() - 2.0).abs() < 0.2, "mean {}", stats.mean());
        assert!(stats.max <= 4);
        assert!(stats.quantile_upper_bound(0.99) <= 8);
    }

    #[test]
    fn age_fifos_mirror_queues_under_loss() {
        let spec = path_spec();
        let mut sim = SimulationBuilder::new(spec, Box::new(TestGreedy))
            .loss(Box::new(IidLoss::new(0.3)))
            .track_ages(true)
            .seed(5)
            .build();
        for _ in 0..300 {
            sim.step();
            let stats = sim.latency_stats().unwrap().clone();
            // delivered count matches metrics
            assert_eq!(stats.count, sim.metrics().delivered);
        }
    }

    #[test]
    fn age_tracking_off_returns_none() {
        let spec = path_spec();
        let sim = SimulationBuilder::new(spec, Box::new(NullProtocol)).build();
        assert!(sim.latency_stats().is_none());
    }

    #[test]
    fn warm_start_ages_are_seeded() {
        let spec = path_spec();
        let mut sim = SimulationBuilder::new(spec, Box::new(NullProtocol))
            .initial_queues(vec![0, 0, 3])
            .track_ages(true)
            .build();
        sim.step(); // sink extracts 2 (out = 2), born at 0, t = 0
        let stats = sim.latency_stats().unwrap();
        assert_eq!(stats.count, 2);
        assert_eq!(stats.total, 0);
    }

    #[test]
    fn link_utilization_saturates_on_bottleneck() {
        // Path at capacity: every link carries ~1 packet/step at steady
        // state.
        let spec = TrafficSpecBuilder::new(generators::path(3))
            .source(0, 1)
            .sink(2, 1)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(TestGreedy)).build();
        sim.run(1000);
        let m = sim.metrics();
        assert_eq!(m.link_sends.len(), 2);
        assert!(m.link_utilization(0) > 0.9, "{}", m.link_utilization(0));
        assert!(m.link_utilization(1) > 0.9);
        let busiest = m.busiest_links(1);
        assert_eq!(busiest.len(), 1);
        assert!(busiest[0].1 <= 1.0);
    }

    #[test]
    fn link_utilization_zero_without_traffic() {
        let spec = path_spec();
        let sim = SimulationBuilder::new(spec, Box::new(NullProtocol)).build();
        assert_eq!(sim.metrics().link_utilization(0), 0.0);
        assert_eq!(sim.metrics().busiest_links(5).len(), 2);
    }

    #[test]
    fn network_state_matches_definition() {
        let mut sim = SimulationBuilder::new(path_spec(), Box::new(NullProtocol))
            .initial_queues(vec![3, 4, 0])
            .build();
        assert_eq!(sim.network_state(), 25);
        assert_eq!(sim.total_packets(), 7);
        sim.step(); // source injects 2 -> q0 = 5; sink empty
        assert_eq!(sim.network_state(), 41);
    }

    /// A stochastically loaded scenario exercising every checkpointed
    /// subsystem: Bernoulli injection (RNG), i.i.d. loss (RNG), Markov
    /// topology (RNG + private state), randomized declaration (policy
    /// RNG), and age tracking.
    fn checkpoint_sim() -> Simulation {
        let spec = TrafficSpecBuilder::new(generators::cycle(12))
            .source(0, 2)
            .source(4, 1)
            .sink(6, 2)
            .sink(9, 1)
            .retention(3)
            .build()
            .unwrap();
        SimulationBuilder::new(spec, Box::new(TestGreedy))
            .seed(0xDECAF)
            .injection(Box::new(BernoulliInjection { p: 0.8 }))
            .loss(Box::new(IidLoss { p: 0.05 }))
            .topology(Box::new(crate::dynamic::MarkovTopology::new(
                0.02,
                0.5,
                vec![],
            )))
            .declaration(Box::new(RandomBelowRetention))
            .track_ages(true)
            .history(HistoryMode::EveryStep)
            .build()
    }

    #[test]
    fn checkpoint_round_trip_is_bit_for_bit() {
        let mut reference = checkpoint_sim();
        reference.run(137);
        let payload = reference.checkpoint_payload();
        reference.run(200);

        let mut resumed = checkpoint_sim();
        resumed.restore_checkpoint_payload(&payload).unwrap();
        assert_eq!(resumed.time(), 137);
        resumed.run(200);

        assert_eq!(resumed.queues(), reference.queues());
        assert_eq!(
            serde_json::to_string(resumed.metrics()).unwrap(),
            serde_json::to_string(reference.metrics()).unwrap()
        );
        // The strongest form: the complete serialized states agree.
        assert_eq!(resumed.checkpoint_payload(), reference.checkpoint_payload());
    }

    #[test]
    fn checkpoint_rejects_mismatched_scenario() {
        let mut source = checkpoint_sim();
        source.run(10);
        let payload = source.checkpoint_payload();

        // Different topology size.
        let spec = TrafficSpecBuilder::new(generators::cycle(10))
            .source(0, 1)
            .sink(5, 1)
            .build()
            .unwrap();
        let mut other = SimulationBuilder::new(spec, Box::new(TestGreedy)).build();
        let err = other.restore_checkpoint_payload(&payload).unwrap_err();
        assert!(matches!(err, LggError::CheckpointMismatch { .. }), "{err}");
        assert!(err.to_string().contains("node count"), "{err}");

        // Same sizes, different components.
        let mut other = checkpoint_sim();
        let boxed: Box<dyn DeclarationPolicy> = Box::new(TruthfulDeclaration);
        // Rebuild with a different declaration policy via the builder.
        let spec = TrafficSpecBuilder::new(generators::cycle(12))
            .source(0, 2)
            .source(4, 1)
            .sink(6, 2)
            .sink(9, 1)
            .retention(3)
            .build()
            .unwrap();
        let mut different = SimulationBuilder::new(spec, Box::new(TestGreedy))
            .injection(Box::new(BernoulliInjection { p: 0.8 }))
            .loss(Box::new(IidLoss { p: 0.05 }))
            .topology(Box::new(crate::dynamic::MarkovTopology::new(
                0.02,
                0.5,
                vec![],
            )))
            .declaration(boxed)
            .track_ages(true)
            .build();
        let err = different.restore_checkpoint_payload(&payload).unwrap_err();
        assert!(matches!(err, LggError::CheckpointMismatch { .. }), "{err}");
        assert!(err.to_string().contains("declaration"), "{err}");

        // Truncated payload is corrupt, not a crash.
        let err = other
            .restore_checkpoint_payload(&payload[..payload.len() / 2])
            .unwrap_err();
        assert!(matches!(err, LggError::CheckpointCorrupt { .. }), "{err}");
    }

    #[test]
    fn run_until_writes_and_resumes_snapshots() {
        let dir = std::env::temp_dir().join(format!(
            "lgg_ckpt_engine_{}_{:x}",
            std::process::id(),
            0xFEEDu32
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut reference = checkpoint_sim();
        reference.run(300);
        let want = reference.checkpoint_payload();

        let mut first = checkpoint_sim();
        first.set_checkpoint(Some(CheckpointConfig::new(50, &dir)));
        assert_eq!(first.checkpoint_config().unwrap().every, 50);
        first.run_until(140).unwrap();
        // 140 is not a multiple of 50, but run_until snapshots the final
        // step too, so resume starts exactly at 140.
        drop(first);

        let mut second = checkpoint_sim();
        second.set_checkpoint(Some(CheckpointConfig::new(50, &dir)));
        assert_eq!(second.resume_from_dir(&dir).unwrap(), Some(140));
        second.run_until(300).unwrap();
        assert_eq!(second.checkpoint_payload(), want);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
