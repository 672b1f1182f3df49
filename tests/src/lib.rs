//! Integration test crate (tests live in `tests/tests/`).
//!
//! The library half holds the differential oracle for `simqueue`'s step
//! pipeline: [`Oracle`] is the executable specification of one
//! synchronous step (Section II of the paper), written straight from the
//! model. Every phase is a full scan over `V` or over the plan, surviving
//! packets are staged and join their receivers only after all
//! transmissions, and `P_t`, totals and maxima are recomputed from the
//! queue vector every step: no accumulators, stamps or active lists. It
//! drives the same component traits with the same seeded RNG streams, so
//! for one configuration it must reproduce the pipeline's queues, metrics
//! and latency statistics bit for bit.

use std::collections::VecDeque;

use mgraph::NodeId;
use netmodel::TrafficSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simqueue::declare::{DeclarationPolicy, TruthfulDeclaration};
use simqueue::dynamic::{StaticTopology, TopologyProcess};
use simqueue::injection::{ExactInjection, InjectionProcess};
use simqueue::loss::{LossModel, NoLoss};
use simqueue::{
    split_seed, ExtractionPolicy, HistoryMode, LatencyStats, MaxExtraction, Metrics, NetView,
    RoutingProtocol, Simulation, SimulationBuilder, Snapshot, Transmission,
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

    /// The step pipeline, recording every step's snapshot.
    pub fn pipeline(self) -> Simulation {
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
        b.build()
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

    /// One synchronous step, phase by phase.
    pub fn step(&mut self) {
        let t = self.t;
        let p = &mut self.parts;
        let spec = &p.spec;
        let g = &spec.graph;
        let [rng_inj, rng_loss, rng_topo, rng_policy] = &mut self.rngs;
        let special = |v: NodeId| spec.in_rate(v) > 0 || spec.out_rate(v) > 0;

        // 1. Topology.
        p.topology.update(g, t, rng_topo, &mut self.active_edges);

        // 2. Injection: every node with in(v) > 0 gains at most in(v).
        for v in g.nodes().filter(|&v| spec.in_rate(v) > 0) {
            let cap = spec.in_rate(v);
            let amt = p.injection.amount(v, t, cap, rng_inj).min(cap);
            self.queues[v.index()] += amt;
            self.metrics.injected += amt;
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
            self.declared[v.index()] = if special(v) && q <= r { raw.min(r) } else { q };
        }

        // 4. Planning over all of V, then validation in plan order: a
        // link carries at most one packet, inactive links none, and no
        // sender overdraws its queue.
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

/// Runs `steps` of the configuration `make` builds on both the pipeline
/// and the oracle, and requires equal queues, metrics (every step's
/// snapshot included) and latency statistics.
pub fn assert_matches_oracle(make: impl Fn() -> Parts, steps: u64) {
    let mut sim = make().pipeline();
    let mut oracle = Oracle::new(make());
    sim.run(steps);
    oracle.run(steps);
    assert_eq!(sim.queues(), oracle.queues(), "queue vectors diverged");
    assert_eq!(sim.metrics(), oracle.metrics(), "metrics diverged");
    assert_eq!(
        sim.latency_stats(),
        oracle.latency_stats(),
        "latency stats diverged"
    );
}
