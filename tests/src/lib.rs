//! Integration test crate (tests live in `tests/tests/`).
//!
//! The library half holds the differential oracle for `simqueue`'s step
//! pipeline: [`Oracle`] is the executable specification of one
//! synchronous step (Section II of the paper), written straight from the
//! model. Every phase is a full scan over `V` or over the plan, surviving
//! packets are staged and join their receivers only after all
//! transmissions, and `P_t`, totals and maxima are recomputed from the
//! queue vector every step: no accumulators, stamps or active lists. It
//! runs the [`reference`] components (the planners, fault models and
//! injection processes as first written) wherever a configuration has
//! one, with the same seeded RNG streams, so for one configuration it
//! must reproduce the pipeline's queues, metrics and latency statistics
//! bit for bit. It also writes its own trace, in the documented phase
//! order from its own scans, which must equal the events rendered from
//! the pipeline's step records.
//!
//! Next to it, [`EventFold`] and [`EventWindows`] rebuild from a rendered
//! `TraceEvent` stream what the observers read from the engine's step
//! records: the record of each step ([`OwnedStep`]) and the windows a
//! `WindowAggregator` keeps. The ledger tests hold the two views equal.

use std::collections::{BTreeMap, VecDeque};

use lgg_cli::{DynamicsSpec, InjectionSpec, LossSpec, ProtocolSpec, Scenario};
use lgg_core::TieBreak;
use mgraph::NodeId;
use netmodel::TrafficSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simqueue::declare::{DeclarationPolicy, TruthfulDeclaration};
use simqueue::dynamic::{StaticTopology, TopologyProcess};
use simqueue::injection::{ExactInjection, InjectionProcess};
use simqueue::loss::{LossModel, NoLoss};
use simqueue::trace::LinkLoss;
use simqueue::{
    assess_stability, split_seed, Declaration, ExtractionPolicy, HistoryMode, LatencyStats,
    MaxExtraction, Metrics, NetView, NodeAmount, RoutingProtocol, SimObserver, Simulation,
    SimulationBuilder, Snapshot, StepLedger, StepRecord, TraceEvent, TraceRenderer, Transmission,
    WindowStats,
};

pub mod reference;

use reference::{
    ReferenceBernoulli, ReferenceGilbertElliott, ReferenceIid, ReferenceLgg, ReferenceMarkov,
    ReferenceMatchingLgg,
};

/// One run's configuration. The pipeline and the oracle each consume a
/// fresh copy, so every component starts from the same state.
pub struct Parts {
    pub spec: TrafficSpec,
    pub protocol: Box<dyn RoutingProtocol>,
    pub injection: Box<dyn InjectionProcess>,
    pub loss: Box<dyn LossModel>,
    pub topology: Box<dyn TopologyProcess>,
    pub declaration: Box<dyn DeclarationPolicy>,
    pub extraction: Box<dyn ExtractionPolicy>,
    pub seed: u64,
    pub initial_queues: Option<Vec<u64>>,
    pub track_ages: bool,
}

impl Parts {
    /// `spec` under `protocol` with `SimulationBuilder`'s defaults.
    pub fn new(spec: TrafficSpec, protocol: Box<dyn RoutingProtocol>) -> Self {
        Parts {
            spec,
            protocol,
            injection: Box::new(ExactInjection),
            loss: Box::new(NoLoss),
            topology: Box::new(StaticTopology),
            declaration: Box::new(TruthfulDeclaration),
            extraction: Box::new(MaxExtraction),
            seed: 0xC0FFEE,
            initial_queues: None,
            track_ages: false,
        }
    }

    /// The components `Scenario::build` wires into its simulation.
    pub fn production(sc: &Scenario) -> Self {
        let spec = sc.traffic_spec().expect("scenario builds");
        Parts {
            protocol: sc.protocol.build(&spec, sc.seed),
            injection: sc.injection.build().expect("injection builds"),
            loss: sc.loss.build().expect("loss builds"),
            topology: sc.dynamics.build(spec.graph.edge_count()),
            declaration: sc.declaration.build(),
            extraction: sc.extraction.build(),
            seed: sc.seed,
            initial_queues: None,
            track_ages: sc.track_ages,
            spec,
        }
    }

    /// What the oracle runs for `sc`: [`Parts::production`] with every
    /// component that has a [`reference`] replaced by it.
    pub fn reference(sc: &Scenario) -> Self {
        let mut p = Parts::production(sc);
        let lgg = |tie_break| Box::new(ReferenceLgg::new(tie_break, 0, sc.seed));
        match sc.protocol {
            ProtocolSpec::Lgg => p.protocol = lgg(TieBreak::SmallestFirst),
            ProtocolSpec::LggRandom => p.protocol = lgg(TieBreak::Random),
            ProtocolSpec::LggRoundRobin => p.protocol = lgg(TieBreak::RoundRobin),
            ProtocolSpec::MatchingLgg => p.protocol = Box::<ReferenceMatchingLgg>::default(),
            _ => {}
        }
        if let InjectionSpec::Bernoulli { p: prob } = sc.injection {
            p.injection = Box::new(ReferenceBernoulli { p: prob });
        }
        match sc.loss {
            LossSpec::Iid { p: prob } => p.loss = Box::new(ReferenceIid { p: prob }),
            LossSpec::GilbertElliott {
                p_loss_good,
                p_loss_bad,
                p_g2b,
                p_b2g,
            } => {
                let ge = ReferenceGilbertElliott::new(p_loss_good, p_loss_bad, p_g2b, p_b2g);
                p.loss = Box::new(ge);
            }
            _ => {}
        }
        if let DynamicsSpec::Markov { p_fail, p_repair } = sc.dynamics {
            p.topology = Box::new(ReferenceMarkov::new(p_fail, p_repair, Vec::new()));
        }
        p
    }

    /// The step pipeline, recording every step's snapshot.
    pub fn pipeline(self) -> Simulation {
        self.builder().build()
    }

    /// A builder for [`Parts::pipeline`], to install an observer first.
    pub fn builder(self) -> SimulationBuilder {
        let mut b = SimulationBuilder::new(self.spec, self.protocol)
            .injection(self.injection)
            .loss(self.loss)
            .topology(self.topology)
            .declaration(self.declaration)
            .extraction(self.extraction)
            .seed(self.seed)
            .track_ages(self.track_ages)
            .history(HistoryMode::EveryStep);
        if let Some(q) = self.initial_queues {
            b = b.initial_queues(q);
        }
        b
    }
}

/// The full-scan reference stepper.
pub struct Oracle {
    parts: Parts,
    queues: Vec<u64>,
    declared: Vec<u64>,
    active_edges: Vec<bool>,
    /// Birth steps per node, oldest first, when ages are tracked.
    fifos: Option<Vec<VecDeque<u64>>>,
    latency: LatencyStats,
    metrics: Metrics,
    t: u64,
    /// Injection, loss, topology and policy streams: `simqueue` splits
    /// the master seed with stream tags 1, 2, 3 and 4.
    rngs: [StdRng; 4],
    /// The trace of the steps since the last [`Oracle::take_events`].
    events: Vec<TraceEvent>,
}

impl Oracle {
    pub fn new(parts: Parts) -> Self {
        let n = parts.spec.node_count();
        let m = parts.spec.graph.edge_count();
        let queues = parts.initial_queues.clone().unwrap_or_else(|| vec![0; n]);
        let fifos = parts.track_ages.then(|| {
            queues
                .iter()
                .map(|&q| std::iter::repeat_n(0, q as usize).collect())
                .collect()
        });
        let rngs = [1, 2, 3, 4].map(|tag| StdRng::seed_from_u64(split_seed(parts.seed, tag)));
        Oracle {
            parts,
            queues,
            declared: vec![0; n],
            active_edges: vec![true; m],
            fifos,
            latency: LatencyStats::default(),
            metrics: Metrics {
                link_sends: vec![0; m],
                ..Metrics::default()
            },
            t: 0,
            rngs,
            events: Vec::new(),
        }
    }

    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step();
        }
    }

    pub fn queues(&self) -> &[u64] {
        &self.queues
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn latency_stats(&self) -> Option<&LatencyStats> {
        self.fifos.as_ref().map(|_| &self.latency)
    }

    /// Drains the trace written so far, oldest first.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// One synchronous step, phase by phase.
    pub fn step(&mut self) {
        let t = self.t;
        let p = &mut self.parts;
        let spec = &p.spec;
        let g = &spec.graph;
        let [rng_inj, rng_loss, rng_topo, rng_policy] = &mut self.rngs;
        let special = |v: NodeId| spec.in_rate(v) > 0 || spec.out_rate(v) > 0;
        let ev = &mut self.events;

        // 1. Topology; a flip is any link whose state changed.
        let before = self.active_edges.clone();
        p.topology.update(g, t, rng_topo, &mut self.active_edges);
        for (e, (&was, &up)) in before.iter().zip(&self.active_edges).enumerate() {
            let edge = e as u32;
            match (was, up) {
                (false, true) => ev.push(TraceEvent::LinkUp { t, edge }),
                (true, false) => ev.push(TraceEvent::LinkDown { t, edge }),
                _ => {}
            }
        }

        // 2. Injection: every node with in(v) > 0 gains at most in(v).
        for v in g.nodes().filter(|&v| spec.in_rate(v) > 0) {
            let cap = spec.in_rate(v);
            let amt = p.injection.amount(v, t, cap, rng_inj).min(cap);
            self.queues[v.index()] += amt;
            self.metrics.injected += amt;
            if amt > 0 {
                let node = v.index() as u32;
                ev.push(TraceEvent::Injection {
                    t,
                    node,
                    amount: amt,
                });
            }
            if let Some(f) = &mut self.fifos {
                f[v.index()].extend(std::iter::repeat_n(t, amt as usize));
            }
        }

        // 3. Declaration, Definition 6(ii): relays and special nodes
        // above R tell the truth; special nodes at or below R may declare
        // anything up to R.
        for v in g.nodes() {
            let q = self.queues[v.index()];
            let raw = p.declaration.declare(spec, v, q, t, rng_policy);
            let r = spec.retention;
            let declared = if special(v) && q <= r { raw.min(r) } else { q };
            self.declared[v.index()] = declared;
            if declared != q {
                let node = v.index() as u32;
                ev.push(TraceEvent::DeclarationLie {
                    t,
                    node,
                    true_q: q,
                    declared,
                });
            }
        }

        // 4. Planning over all of V, then validation in plan order: a
        // link carries at most one packet, inactive links none, no sender
        // overdraws its queue, and links and senders must exist.
        let all: Vec<NodeId> = g.nodes().collect();
        let mut plan = Vec::new();
        p.protocol.plan(
            &NetView {
                graph: g,
                spec,
                declared: &self.declared,
                true_queues: &self.queues,
                active_edges: &self.active_edges,
                active_nodes: &all,
                t,
            },
            &mut plan,
        );
        let mut budget = self.queues.clone();
        let mut used = vec![false; g.edge_count()];
        let mut valid: Vec<Transmission> = Vec::new();
        for tx in plan {
            let e = tx.edge.index();
            let ok = e < used.len()
                && tx.from.index() < budget.len()
                && !used[e]
                && self.active_edges[e]
                && budget[tx.from.index()] > 0
                && {
                    let (a, b) = g.endpoints(tx.edge);
                    a == tx.from || b == tx.from
                };
            if ok {
                used[e] = true;
                budget[tx.from.index()] -= 1;
                valid.push(tx);
            } else {
                self.metrics.rejected_plans += 1;
                let (edge, from) = (tx.edge.index() as u32, tx.from.index() as u32);
                ev.push(TraceEvent::PlanRejected { t, edge, from });
            }
        }

        // 5. Transmission and loss: senders always delete; survivors are
        // staged and join their receivers after every send.
        let mut lost = vec![false; valid.len()];
        p.loss
            .apply(g, &valid, &self.queues, t, rng_loss, &mut lost);
        let mut arrivals = vec![0u64; self.queues.len()];
        let mut staged: Vec<Vec<u64>> = vec![Vec::new(); self.queues.len()];
        for (tx, &gone) in valid.iter().zip(&lost) {
            let to = g.other_endpoint(tx.edge, tx.from);
            let (edge, from) = (tx.edge.index() as u32, tx.from.index() as u32);
            ev.push(TraceEvent::Transmission {
                t,
                edge,
                from,
                to: to.index() as u32,
            });
            if gone {
                ev.push(TraceEvent::Loss { t, edge, from });
            }
            self.queues[tx.from.index()] -= 1;
            self.metrics.sent += 1;
            self.metrics.link_sends[tx.edge.index()] += 1;
            let born = self
                .fifos
                .as_mut()
                .map(|f| f[tx.from.index()].pop_front().unwrap());
            if gone {
                self.metrics.lost += 1;
            } else {
                arrivals[to.index()] += 1;
                staged[to.index()].extend(born);
            }
        }
        for v in 0..self.queues.len() {
            self.queues[v] += arrivals[v];
            if let Some(f) = &mut self.fifos {
                f[v].extend(staged[v].drain(..));
            }
        }

        // 6. Extraction, Definition 7(i): at most min(out, q), and at
        // least min(out, q − R) when q > R.
        for v in g.nodes().filter(|&v| spec.out_rate(v) > 0) {
            let (q, out, r) = (self.queues[v.index()], spec.out_rate(v), spec.retention);
            let raw = p.extraction.extract(spec, v, q, t, rng_policy);
            let lower = if q > r { (q - r).min(out) } else { 0 };
            let amt = raw.clamp(lower, q.min(out));
            self.queues[v.index()] -= amt;
            self.metrics.delivered += amt;
            if amt > 0 {
                let node = v.index() as u32;
                ev.push(TraceEvent::Extraction {
                    t,
                    node,
                    amount: amt,
                });
            }
            if let Some(f) = &mut self.fifos {
                for _ in 0..amt {
                    record(&mut self.latency, t - f[v.index()].pop_front().unwrap());
                }
            }
        }

        // 7. Metrics, recomputed from the queue vector.
        self.t += 1;
        let m = &mut self.metrics;
        m.steps += 1;
        let pt: u128 = self.queues.iter().map(|&q| (q as u128) * (q as u128)).sum();
        let total: u64 = self.queues.iter().sum();
        let max_q = self.queues.iter().copied().max().unwrap_or(0);
        m.sup_pt = m.sup_pt.max(pt);
        m.sup_total = m.sup_total.max(total);
        m.max_queue_ever = m.max_queue_ever.max(max_q);
        m.packet_steps += total as u128;
        let active = self.queues.iter().filter(|&&q| q > 0).count() as u64;
        ev.push(TraceEvent::Sample {
            t,
            pt,
            total,
            max_queue: max_q,
            active,
        });
        m.history.push(Snapshot {
            t: self.t,
            pt,
            total_packets: total,
            max_queue: max_q,
        });
    }
}

/// Records one sojourn in `LatencyStats`' log-2 histogram: bucket `i`
/// counts sojourns in `[2^i, 2^(i+1))`, and bucket 0 also takes 0.
fn record(s: &mut LatencyStats, sojourn: u64) {
    s.count += 1;
    s.total += sojourn as u128;
    s.max = s.max.max(sojourn);
    let i = (63 - sojourn.max(1).leading_zeros()) as usize;
    let last = s.buckets.len() - 1;
    s.buckets[i.min(last)] += 1;
}

/// Collects the events a [`TraceRenderer`] renders from every step
/// record: the pipeline's trace.
#[derive(Default)]
struct Capture {
    renderer: TraceRenderer,
    events: Vec<TraceEvent>,
}

impl SimObserver for Capture {
    fn on_step(&mut self, step: &StepRecord<'_>) {
        self.renderer.render(step, |ev| self.events.push(ev));
    }
}

/// Runs `steps` of `pipeline` on the step pipeline and of `oracle` on the
/// oracle, and requires equal queues, metrics (every step's snapshot
/// included), latency statistics and stability assessments, and the
/// trace rendered from the pipeline's step records to equal the oracle's
/// own. The two are one configuration: the same parts, or the oracle's
/// with reference components ([`Parts::reference`]).
pub fn assert_matches_oracle(pipeline: Parts, oracle: Parts, steps: u64) {
    let mut sim = pipeline.builder().observer(Capture::default()).build();
    let mut oracle = Oracle::new(oracle);
    // In chunks, so a long run's traces never pile up.
    while sim.time() < steps {
        let (from, chunk) = (sim.time(), (steps - sim.time()).min(256));
        sim.run(chunk);
        oracle.run(chunk);
        let rendered = std::mem::take(&mut sim.observer_mut().events);
        let written = oracle.take_events();
        let len = rendered.len().max(written.len());
        if let Some(i) = (0..len).find(|&i| rendered.get(i) != written.get(i)) {
            panic!(
                "trace diverged in steps {from}..{}: event {i} rendered {:?}, oracle {:?}",
                sim.time(),
                rendered.get(i),
                written.get(i)
            );
        }
    }
    assert_eq!(sim.queues(), oracle.queues(), "queue vectors diverged");
    assert_eq!(sim.metrics(), oracle.metrics(), "metrics diverged");
    assert_eq!(
        sim.latency_stats(),
        oracle.latency_stats(),
        "latency stats diverged"
    );
    assert_eq!(
        assess_stability(&sim.metrics().history),
        assess_stability(&oracle.metrics().history),
        "stability assessments diverged"
    );
}

/// A [`StepRecord`] with owned parts (all but the graph, which is the
/// spec's), so records and folds compare.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedStep {
    pub ledger: StepLedger,
    pub injected: Vec<NodeAmount>,
    pub declarations: Vec<Declaration>,
    pub rejected: Vec<Transmission>,
    pub plan: Vec<Transmission>,
    pub lost: Vec<bool>,
    pub extracted: Vec<NodeAmount>,
    pub active_edges: Vec<bool>,
}

impl OwnedStep {
    pub fn of(r: &StepRecord<'_>) -> Self {
        OwnedStep {
            ledger: r.ledger,
            injected: r.injected.to_vec(),
            declarations: r.declarations.to_vec(),
            rejected: r.rejected.to_vec(),
            plan: r.plan.to_vec(),
            lost: r.lost.to_vec(),
            extracted: r.extracted.to_vec(),
            active_edges: r.active_edges.to_vec(),
        }
    }
}

/// Folds one step's `TraceEvent`s into the step record the engine lends
/// for that step. Events carry deltas only, so the fold keeps what they
/// change: the link mask (all links start active) and the queues (to know
/// each special node's queue at phase 3, which a truthful declaration
/// does not report). Sources and sinks that moved nothing get a zero
/// slot, as in the record.
pub struct EventFold {
    sources: Vec<NodeId>,
    specials: Vec<NodeId>,
    sinks: Vec<NodeId>,
    queues: Vec<u64>,
    active_edges: Vec<bool>,
}

/// Zero-amount slots for `nodes`.
fn zero_slots(nodes: &[NodeId]) -> Vec<NodeAmount> {
    nodes
        .iter()
        .map(|&node| NodeAmount { node, amount: 0 })
        .collect()
}

/// Sets `node`'s slot in `slots` to `amount`.
fn fill_slot(slots: &mut [NodeAmount], node: u32, amount: u64) {
    slots
        .iter_mut()
        .find(|s| s.node.index() == node as usize)
        .expect("injections and extractions name sources and sinks")
        .amount = amount;
}

impl EventFold {
    /// A fold for a run of `spec` starting from `queues`.
    pub fn new(spec: &TrafficSpec, queues: Vec<u64>) -> Self {
        EventFold {
            sources: spec.sources().collect(),
            specials: spec.special_nodes().collect(),
            sinks: spec.sinks().collect(),
            queues,
            active_edges: vec![true; spec.graph.edge_count()],
        }
    }

    /// The record of the step whose events are `events` (one step's,
    /// closing with its `Sample`).
    pub fn fold(&mut self, events: &[TraceEvent]) -> OwnedStep {
        let mut step = OwnedStep {
            ledger: StepLedger::default(),
            injected: zero_slots(&self.sources),
            declarations: Vec::new(),
            rejected: Vec::new(),
            plan: Vec::new(),
            lost: Vec::new(),
            extracted: zero_slots(&self.sinks),
            active_edges: Vec::new(),
        };
        let (mut declared, mut last_to) = (false, 0);
        for &ev in events {
            // Phase 3 follows the last injection: the specials declare
            // the queues as they stand then, truthfully unless a lie
            // event says otherwise.
            let after_injection = !matches!(
                ev,
                TraceEvent::LinkUp { .. }
                    | TraceEvent::LinkDown { .. }
                    | TraceEvent::Injection { .. }
            );
            if after_injection && !declared {
                declared = true;
                step.declarations = self
                    .specials
                    .iter()
                    .map(|&node| {
                        let q = self.queues[node.index()];
                        Declaration {
                            node,
                            queue: q,
                            declared: q,
                        }
                    })
                    .collect();
            }
            let l = &mut step.ledger;
            match ev {
                TraceEvent::LinkUp { edge, .. } => self.active_edges[edge as usize] = true,
                TraceEvent::LinkDown { edge, .. } => self.active_edges[edge as usize] = false,
                TraceEvent::Injection { node, amount, .. } => {
                    self.queues[node as usize] += amount;
                    l.injected += amount;
                    fill_slot(&mut step.injected, node, amount);
                }
                TraceEvent::DeclarationLie {
                    node,
                    true_q,
                    declared,
                    ..
                } => {
                    let d = step
                        .declarations
                        .iter_mut()
                        .find(|d| d.node.index() == node as usize)
                        .expect("lie events name special nodes");
                    assert_eq!(d.queue, true_q, "lie event disagrees with the folded queue");
                    d.declared = declared;
                }
                TraceEvent::PlanRejected { edge, from, .. } => {
                    step.rejected.push(Transmission {
                        edge: mgraph::EdgeId::new(edge),
                        from: NodeId::new(from),
                    });
                    l.rejected += 1;
                }
                TraceEvent::Transmission { edge, from, to, .. } => {
                    step.plan.push(Transmission {
                        edge: mgraph::EdgeId::new(edge),
                        from: NodeId::new(from),
                    });
                    step.lost.push(false);
                    l.sent += 1;
                    self.queues[from as usize] -= 1;
                    self.queues[to as usize] += 1;
                    last_to = to as usize;
                }
                TraceEvent::Loss { .. } => {
                    *step
                        .lost
                        .last_mut()
                        .expect("a loss follows its transmission") = true;
                    l.lost += 1;
                    self.queues[last_to] -= 1;
                }
                TraceEvent::Extraction { node, amount, .. } => {
                    self.queues[node as usize] -= amount;
                    l.delivered += amount;
                    fill_slot(&mut step.extracted, node, amount);
                }
                TraceEvent::Sample {
                    t,
                    pt,
                    total,
                    max_queue,
                    active,
                } => {
                    (l.t, l.pt, l.total, l.max_queue, l.active) = (t, pt, total, max_queue, active);
                }
                _ => {}
            }
        }
        step.active_edges = self.active_edges.clone();
        step
    }
}

/// Windows folded from a captured event stream, the way the event-fed
/// window aggregator used to fold them: the one reference for
/// `WindowAggregator`. Feed events in order with [`EventWindows::push`],
/// then close with [`EventWindows::finish`].
#[derive(Clone)]
pub struct EventWindows {
    size: u64,
    open: Vec<OpenWindow>,
}

#[derive(Clone)]
struct OpenWindow {
    index: u64,
    t_end: u64,
    samples: u64,
    pt_min: u128,
    pt_max: u128,
    pt_sum: u128,
    max_queue: u64,
    active_sum: u64,
    injected: u64,
    delivered: u64,
    losses: u64,
    rejected: u64,
    link_losses: BTreeMap<u32, u64>,
    queue_histogram: Vec<u64>,
}

impl EventWindows {
    pub fn new(size: u64) -> Self {
        EventWindows {
            size,
            open: Vec::new(),
        }
    }

    pub fn push(&mut self, ev: &TraceEvent) {
        let index = ev.t() / self.size;
        if self.open.last().is_none_or(|w| w.index != index) {
            self.open.push(OpenWindow {
                index,
                t_end: 0,
                samples: 0,
                pt_min: u128::MAX,
                pt_max: 0,
                pt_sum: 0,
                max_queue: 0,
                active_sum: 0,
                injected: 0,
                delivered: 0,
                losses: 0,
                rejected: 0,
                link_losses: BTreeMap::new(),
                queue_histogram: Vec::new(),
            });
        }
        let w = self.open.last_mut().expect("just opened");
        w.t_end = w.t_end.max(ev.t());
        match *ev {
            TraceEvent::Injection { amount, .. } => w.injected += amount,
            TraceEvent::Extraction { amount, .. } => w.delivered += amount,
            TraceEvent::PlanRejected { .. } => w.rejected += 1,
            TraceEvent::Loss { edge, .. } => {
                w.losses += 1;
                *w.link_losses.entry(edge).or_default() += 1;
            }
            TraceEvent::Sample {
                pt,
                max_queue,
                active,
                ..
            } => {
                w.samples += 1;
                w.pt_min = w.pt_min.min(pt);
                w.pt_max = w.pt_max.max(pt);
                w.pt_sum += pt;
                w.max_queue = w.max_queue.max(max_queue);
                w.active_sum += active;
                let bucket = (64 - max_queue.leading_zeros()) as usize;
                if w.queue_histogram.len() <= bucket {
                    w.queue_histogram.resize(bucket + 1, 0);
                }
                w.queue_histogram[bucket] += 1;
            }
            _ => {}
        }
    }

    pub fn finish(self) -> Vec<WindowStats> {
        let size = self.size;
        self.open
            .into_iter()
            .map(|w| {
                let samples = w.samples.max(1) as f64;
                WindowStats {
                    t_start: w.index * size,
                    t_end: w.t_end,
                    samples: w.samples,
                    pt_min: if w.samples == 0 { 0 } else { w.pt_min },
                    pt_max: w.pt_max,
                    pt_mean: w.pt_sum as f64 / samples,
                    max_queue: w.max_queue,
                    mean_active: w.active_sum as f64 / samples,
                    injected: w.injected,
                    delivered: w.delivered,
                    losses: w.losses,
                    rejected: w.rejected,
                    link_losses: w
                        .link_losses
                        .into_iter()
                        .map(|(edge, lost)| LinkLoss { edge, lost })
                        .collect(),
                    queue_histogram: w.queue_histogram,
                }
            })
            .collect()
    }
}
