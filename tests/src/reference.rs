//! The reference components: each production kernel's body from before it
//! was rewritten for speed, kept verbatim behind the public component
//! trait. Only the trait wrappers (and `save_state`, which writes the
//! same record as the production component) are new.
//!
//! [`Parts::reference`](crate::Parts::reference) puts them into the
//! oracle wherever a scenario names one, so every differential run checks
//! the planners, fault models and injection processes along with the step
//! loop. A kernel rewrite adds its frozen copy here and changes no
//! production crate for it; `tests/tests/reference.rs` holds the inputs
//! whole compositions never reach (heights near 2³², `p` at 0, 1 and
//! subnormal, saved state after every call).
//!
//! The classifier's references are functions: the dyadic bisections of
//! [`feasibility`] and [`capacity_scaling`] with the one-solve probes
//! [`is_feasible_at`] and [`is_feasible_scaled`] they call.

use lgg_core::TieBreak;
use maxflow::Algorithm;
use mgraph::{EdgeId, MultiGraph, NodeId};
use netmodel::classify::EPS_DENOMINATOR;
use netmodel::{ExtendedNetwork, Feasibility, TrafficSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use simqueue::checkpoint::wire;
use simqueue::dynamic::TopologyProcess;
use simqueue::injection::InjectionProcess;
use simqueue::loss::LossModel;
use simqueue::{NetView, RoutingProtocol, Transmission};

/// `Lgg` with the candidate scan and `sort_unstable` of its first
/// version.
pub struct ReferenceLgg {
    tie_break: TieBreak,
    threshold: u64,
    rng: StdRng,
    scratch: Vec<(u64, u32)>,
    rr: Vec<u32>,
}

impl ReferenceLgg {
    /// LGG under `tie_break` with gradient threshold `threshold`; `seed`
    /// drives the random tie-break.
    pub fn new(tie_break: TieBreak, threshold: u64, seed: u64) -> Self {
        ReferenceLgg {
            tie_break,
            threshold,
            rng: StdRng::seed_from_u64(seed),
            scratch: Vec::new(),
            rr: Vec::new(),
        }
    }
}

impl RoutingProtocol for ReferenceLgg {
    fn name(&self) -> &'static str {
        "reference-lgg"
    }

    fn plan(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>) {
        let g = view.graph;
        if self.rr.len() < g.node_count() {
            self.rr.resize(g.node_count(), 0);
        }
        // Only nodes in the active view can have a nonzero budget, so the
        // idle bulk of the network is never visited.
        for &u in view.active_nodes {
            let budget = view.queue_of(u);
            if budget == 0 {
                continue;
            }
            let h_u = view.declared_of(u);
            if h_u <= self.threshold {
                // With height <= θ no neighbor can sit more than θ below.
                continue;
            }
            self.scratch.clear();
            for link in g.incident_links(u) {
                if !view.is_active(link.edge) {
                    continue;
                }
                let h_v = view.declared_of(link.neighbor);
                if h_v + self.threshold < h_u {
                    self.scratch.push((h_v, link.edge.raw()));
                }
            }
            if self.scratch.is_empty() {
                continue;
            }
            match self.tie_break {
                TieBreak::SmallestFirst => {
                    self.scratch.sort_unstable();
                }
                TieBreak::LinkOrder => {}
                TieBreak::RoundRobin => {
                    let k = self.scratch.len();
                    let off = (self.rr[u.index()] as usize) % k;
                    self.scratch.rotate_left(off);
                    self.rr[u.index()] = self.rr[u.index()].wrapping_add(1);
                }
                TieBreak::Random => {
                    self.scratch.shuffle(&mut self.rng);
                }
            }
            let take = (budget as usize).min(self.scratch.len());
            for &(_, e) in self.scratch.iter().take(take) {
                out.push(Transmission {
                    edge: EdgeId::new(e),
                    from: u,
                });
            }
        }
    }
}

/// `MatchingLgg` with the tuple candidates and `sort_unstable_by` of its
/// first version.
#[derive(Default)]
pub struct ReferenceMatchingLgg {
    scratch: Vec<(u64, u32, u32)>,
    node_used: Vec<bool>,
}

impl RoutingProtocol for ReferenceMatchingLgg {
    fn name(&self) -> &'static str {
        "reference-matching-lgg"
    }

    fn plan(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>) {
        let g = view.graph;
        self.scratch.clear();
        if self.node_used.len() < g.node_count() {
            self.node_used.resize(g.node_count(), false);
        }

        // Collect every directed downhill candidate once, from its higher
        // endpoint. Only a node holding a packet can send, so the links of
        // the active set carry every candidate.
        for &u in view.active_nodes {
            if view.queue_of(u) == 0 {
                continue;
            }
            let hu = view.declared_of(u);
            for link in g.incident_links(u) {
                let hv = view.declared_of(link.neighbor);
                if hu > hv && view.is_active(link.edge) {
                    self.scratch.push((hu - hv, link.edge.raw(), u.raw()));
                }
            }
        }
        // Greedy max-weight matching: heaviest differential first; ties by
        // edge id for determinism.
        self.scratch
            .sort_unstable_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
        let planned = out.len();
        for &(_, e, from) in &self.scratch {
            let edge = EdgeId::new(e);
            let from = NodeId::new(from);
            let to = g.other_endpoint(edge, from);
            if self.node_used[from.index()] || self.node_used[to.index()] {
                continue;
            }
            self.node_used[from.index()] = true;
            self.node_used[to.index()] = true;
            out.push(Transmission { edge, from });
        }
        // Unmark only the matched endpoints, so the next plan starts clean
        // without touching idle nodes.
        for tx in &out[planned..] {
            self.node_used[tx.from.index()] = false;
            self.node_used[g.other_endpoint(tx.edge, tx.from).index()] = false;
        }
    }
}

/// `MarkovTopology` with the branching update of its first version.
pub struct ReferenceMarkov {
    p_fail: f64,
    p_repair: f64,
    protected: Vec<bool>,
    down: Vec<bool>,
}

impl ReferenceMarkov {
    /// All links up; links in `protected` never fail.
    pub fn new(p_fail: f64, p_repair: f64, protected: Vec<bool>) -> Self {
        ReferenceMarkov {
            p_fail,
            p_repair,
            protected,
            down: Vec::new(),
        }
    }
}

impl TopologyProcess for ReferenceMarkov {
    fn name(&self) -> &'static str {
        "reference-markov"
    }

    fn update(&mut self, graph: &MultiGraph, _t: u64, rng: &mut StdRng, active: &mut [bool]) {
        if self.down.len() < graph.edge_count() {
            self.down.resize(graph.edge_count(), false);
        }
        for e in 0..graph.edge_count() {
            let protected = self.protected.get(e).copied().unwrap_or(false);
            if protected {
                self.down[e] = false;
            } else if self.down[e] {
                if rng.random_bool(self.p_repair) {
                    self.down[e] = false;
                }
            } else if rng.random_bool(self.p_fail) {
                self.down[e] = true;
            }
            active[e] = !self.down[e];
        }
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        wire::put_bool_slice(out, &self.down);
    }
}

/// `GilbertElliottLoss` with the branching channel pass of its first
/// version.
pub struct ReferenceGilbertElliott {
    p_loss_good: f64,
    p_loss_bad: f64,
    p_g2b: f64,
    p_b2g: f64,
    bad: Vec<bool>,
}

impl ReferenceGilbertElliott {
    /// Every link starts in the good state.
    pub fn new(p_loss_good: f64, p_loss_bad: f64, p_g2b: f64, p_b2g: f64) -> Self {
        ReferenceGilbertElliott {
            p_loss_good,
            p_loss_bad,
            p_g2b,
            p_b2g,
            bad: Vec::new(),
        }
    }
}

impl LossModel for ReferenceGilbertElliott {
    fn name(&self) -> &'static str {
        "reference-gilbert-elliott"
    }

    fn apply(
        &mut self,
        graph: &MultiGraph,
        transmissions: &[Transmission],
        _queues: &[u64],
        _t: u64,
        rng: &mut StdRng,
        lost: &mut [bool],
    ) {
        if self.bad.len() < graph.edge_count() {
            self.bad.resize(graph.edge_count(), false);
        }
        for b in self.bad.iter_mut() {
            let flip = if *b {
                rng.random_bool(self.p_b2g)
            } else {
                rng.random_bool(self.p_g2b)
            };
            if flip {
                *b = !*b;
            }
        }
        for (i, tx) in transmissions.iter().enumerate() {
            let p = if self.bad[tx.edge.index()] {
                self.p_loss_bad
            } else {
                self.p_loss_good
            };
            if p > 0.0 && rng.random_bool(p) {
                lost[i] = true;
            }
        }
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        wire::put_bool_slice(out, &self.bad);
    }
}

/// `IidLoss` with one `random_bool` per transmission.
pub struct ReferenceIid {
    pub p: f64,
}

impl LossModel for ReferenceIid {
    fn name(&self) -> &'static str {
        "reference-iid"
    }

    fn apply(
        &mut self,
        _graph: &MultiGraph,
        transmissions: &[Transmission],
        _queues: &[u64],
        _t: u64,
        rng: &mut StdRng,
        lost: &mut [bool],
    ) {
        for i in 0..transmissions.len() {
            if rng.random_bool(self.p) {
                lost[i] = true;
            }
        }
    }
}

/// `PerLinkLoss` with one `random_bool` per transmission on a lossy link.
pub struct ReferencePerLink {
    pub p: Vec<f64>,
}

impl LossModel for ReferencePerLink {
    fn name(&self) -> &'static str {
        "reference-per-link"
    }

    fn apply(
        &mut self,
        _graph: &MultiGraph,
        transmissions: &[Transmission],
        _queues: &[u64],
        _t: u64,
        rng: &mut StdRng,
        lost: &mut [bool],
    ) {
        for (i, tx) in transmissions.iter().enumerate() {
            let p = self.p.get(tx.edge.index()).copied().unwrap_or(0.0);
            if p > 0.0 && rng.random_bool(p) {
                lost[i] = true;
            }
        }
    }
}

/// `AdversarialLoss` with the full sort of its first version.
pub struct ReferenceAdversarial {
    budget: usize,
    scratch: Vec<(u64, usize)>,
}

impl ReferenceAdversarial {
    /// An adversary killing up to `budget` packets per step.
    pub fn new(budget: usize) -> Self {
        ReferenceAdversarial {
            budget,
            scratch: Vec::new(),
        }
    }
}

impl LossModel for ReferenceAdversarial {
    fn name(&self) -> &'static str {
        "reference-adversarial"
    }

    fn apply(
        &mut self,
        graph: &MultiGraph,
        transmissions: &[Transmission],
        queues: &[u64],
        _t: u64,
        _rng: &mut StdRng,
        lost: &mut [bool],
    ) {
        if self.budget == 0 || transmissions.is_empty() {
            return;
        }
        self.scratch.clear();
        for (i, tx) in transmissions.iter().enumerate() {
            let to = graph.other_endpoint(tx.edge, tx.from);
            self.scratch.push((queues[to.index()], i));
        }
        self.scratch.sort_unstable();
        for &(_, i) in self.scratch.iter().take(self.budget) {
            lost[i] = true;
        }
    }
}

/// `BernoulliInjection` counting `random_bool` successes.
pub struct ReferenceBernoulli {
    pub p: f64,
}

impl InjectionProcess for ReferenceBernoulli {
    fn name(&self) -> &'static str {
        "reference-bernoulli"
    }

    fn amount(&mut self, _v: NodeId, _t: u64, cap: u64, rng: &mut StdRng) -> u64 {
        (0..cap).filter(|_| rng.random_bool(self.p)).count() as u64
    }
}

/// `OnOffInjection` with the branching update of its first version.
pub struct ReferenceOnOff {
    p_off: f64,
    p_on: f64,
    state: Vec<bool>,
}

impl ReferenceOnOff {
    /// Every source starts on.
    pub fn new(p_off: f64, p_on: f64) -> Self {
        ReferenceOnOff {
            p_off,
            p_on,
            state: Vec::new(),
        }
    }
}

impl InjectionProcess for ReferenceOnOff {
    fn name(&self) -> &'static str {
        "reference-on-off"
    }

    fn amount(&mut self, v: NodeId, _t: u64, cap: u64, rng: &mut StdRng) -> u64 {
        if self.state.len() <= v.index() {
            self.state.resize(v.index() + 1, true);
        }
        let on = &mut self.state[v.index()];
        let flip = if *on {
            rng.random_bool(self.p_off)
        } else {
            rng.random_bool(self.p_on)
        };
        if flip {
            *on = !*on;
        }
        if *on {
            cap
        } else {
            0
        }
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        wire::put_bool_slice(out, &self.state);
    }
}

/// Tests whether the spec admits a feasible flow at inflation `ε = p/q`
/// (Definition 4, exact integer arithmetic). The one line that differs
/// from the first version names the same `G*` through the rate builder.
pub fn is_feasible_at(spec: &TrafficSpec, eps_num: u64, eps_den: u64) -> bool {
    let mut ext = ExtendedNetwork::scaled(spec, (eps_den + eps_num) as i64, eps_den as i64);
    ext.solve(Algorithm::Dinic);
    ext.sources_saturated()
}

/// `classify`'s verdict by plain feasibility and a binary search over
/// dyadic rationals `p / EPS_DENOMINATOR`, capped at ε = 16.
pub fn feasibility(spec: &TrafficSpec) -> Feasibility {
    let arrival_rate = spec.arrival_rate();

    // Plain feasibility.
    let mut ext = ExtendedNetwork::feasibility(spec);
    let max_flow = ext.solve(Algorithm::Dinic) as u64;
    if !ext.sources_saturated() {
        return Feasibility::Infeasible {
            max_flow,
            arrival_rate,
        };
    }

    // ε search: find the largest p with (1 + p/q)·in feasible.
    let q = EPS_DENOMINATOR;
    if !is_feasible_at(spec, 1, q) {
        Feasibility::Saturated
    } else {
        let mut lo = 1u64; // feasible
        let mut hi = 16 * q; // cap: ε = 16
        if is_feasible_at(spec, hi, q) {
            lo = hi;
        } else {
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if is_feasible_at(spec, mid, q) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
        }
        Feasibility::Unsaturated {
            margin_num: lo,
            margin_den: q,
        }
    }
}

/// Tests feasibility with every source rate scaled to `num·in(v)/den`
/// (edges keep capacity 1, integer-scaled): the generalization of
/// [`is_feasible_at`] that also reaches **below** the nominal rate.
pub fn is_feasible_scaled(spec: &TrafficSpec, num: u64, den: u64) -> bool {
    assert!(den >= 1);
    // Reuse the ε-inflated builder: caps are (den + p)·in with p = num − den
    // when num >= den; below the nominal rate we build directly.
    if num >= den {
        return is_feasible_at(spec, num - den, den);
    }
    let mut net = maxflow::FlowNetwork::new(spec.node_count());
    for e in spec.graph.edges() {
        let (u, v) = spec.graph.endpoints(e);
        net.add_undirected(u.index(), v.index(), den as i64);
    }
    let s_star = net.add_node();
    let d_star = net.add_node();
    let mut source_arcs = Vec::new();
    for v in spec.graph.nodes() {
        if spec.in_rate(v) > 0 {
            source_arcs.push(net.add_arc(s_star, v.index(), (num * spec.in_rate(v)) as i64));
        }
        if spec.out_rate(v) > 0 {
            net.add_arc(v.index(), d_star, (den * spec.out_rate(v)) as i64);
        }
    }
    net.max_flow(s_star, d_star, Algorithm::Dinic);
    source_arcs
        .iter()
        .all(|&a| net.flow_on(a) == net.capacity_of(a))
}

/// The largest dyadic λ = p/[`EPS_DENOMINATOR`], capped at 32, such that
/// scaling every `in(v)` to `λ·in(v)` stays feasible, by binary search.
pub fn capacity_scaling(spec: &TrafficSpec) -> (u64, u64) {
    let q = EPS_DENOMINATOR;
    let cap = 32 * q;
    if is_feasible_scaled(spec, cap, q) {
        return (cap, q);
    }
    let mut lo = 0u64; // λ = 0 always feasible (empty flow)
    let mut hi = cap; // infeasible
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if is_feasible_scaled(spec, mid, q) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, q)
}
