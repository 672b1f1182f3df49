//! Algorithm 1: the Local Greedy Gradient protocol.

use mgraph::{EdgeId, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simqueue::checkpoint::wire;
use simqueue::{LggError, NetView, RoutingProtocol, Transmission};

/// How a node chooses which links to use when it has more strictly-smaller
/// neighbors than packets (`q_t(u)` of them get a packet).
///
/// Algorithm 1 prescribes "its `q_t(u)` neighbors of smallest queue
/// length" and the paper asserts the choice "has no impact on the system
/// stability" — the ablation experiments test exactly that claim by
/// swapping policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TieBreak {
    /// The paper's rule: smallest declared queues first (ties by link id).
    SmallestFirst,
    /// Keep incidence-list order among eligible links (no sorting at all).
    LinkOrder,
    /// Rotate the starting link each step (fair round-robin).
    RoundRobin,
    /// Uniformly random order among eligible links.
    Random,
}

impl TieBreak {
    /// All policies, for ablations.
    pub const ALL: [TieBreak; 4] = [
        TieBreak::SmallestFirst,
        TieBreak::LinkOrder,
        TieBreak::RoundRobin,
        TieBreak::Random,
    ];

    /// Stable short name.
    pub fn name(self) -> &'static str {
        match self {
            TieBreak::SmallestFirst => "smallest-first",
            TieBreak::LinkOrder => "link-order",
            TieBreak::RoundRobin => "round-robin",
            TieBreak::Random => "random",
        }
    }
}

/// The Local Greedy Gradient protocol (Algorithm 1).
///
/// Per node `u` and step `t`:
///
/// 1. read its own declared height `h_u` and the declared heights of all
///    link-neighbors (the only remote information used);
/// 2. keep the incident links with `h_v < h_u` that are active;
/// 3. order them per [`TieBreak`] (default: smallest `h_v` first);
/// 4. emit one transmission per link until `q_t(u)` packets are committed.
///
/// The *budget* is the node's true queue (`q ← q_t(u)` in Algorithm 1 — a
/// node knows how many packets it actually holds), while *comparisons* use
/// declared heights, because R-generalized neighbors may lie below their
/// retention constant (Definition 6(ii)) and the sender cannot tell.
///
/// ```
/// use lgg_core::Lgg;
/// use netmodel::TrafficSpecBuilder;
/// use simqueue::SimulationBuilder;
///
/// let spec = TrafficSpecBuilder::new(mgraph::generators::path(4))
///     .source(0, 1)
///     .sink(3, 2)
///     .build()
///     .unwrap();
/// let mut sim = SimulationBuilder::new(spec, Box::new(Lgg::new())).build();
/// sim.run(1000);
/// assert!(sim.metrics().delivery_ratio() > 0.9);
/// ```
#[derive(Debug)]
pub struct Lgg {
    tie_break: TieBreak,
    /// Gradient threshold θ: send only when `h_u > h_v + θ`. Algorithm 1
    /// is θ = 0; positive θ is an extension that trades residual backlog
    /// for fewer transmissions (ablation E14/benches).
    threshold: u64,
    rng: StdRng,
    /// Seed the random tie-break RNG was created from, kept so
    /// [`RoutingProtocol::reset`] can restore the exact stream.
    seed: u64,
    /// Reused candidate buffers of [`downhill_keys`]: `h_v << 32 | link`
    /// per downhill link, so integer order is (height, link id) order.
    keys: KeyBuffers,
    /// Per-node rotation offsets for round-robin.
    rr: Vec<u32>,
}

impl Lgg {
    /// LGG with the paper's smallest-first rule.
    pub fn new() -> Self {
        Self::with_tie_break(TieBreak::SmallestFirst, 0x166)
    }

    /// LGG with an explicit tie-break policy (and seed for the random one).
    pub fn with_tie_break(tie_break: TieBreak, seed: u64) -> Self {
        Lgg {
            tie_break,
            threshold: 0,
            rng: StdRng::seed_from_u64(seed),
            seed,
            keys: KeyBuffers::default(),
            rr: Vec::new(),
        }
    }

    /// LGG with a gradient threshold θ: a node sends over a link only when
    /// its declared height exceeds the neighbor's by **more than** θ
    /// (θ = 0 recovers Algorithm 1 exactly). Larger θ damps oscillation at
    /// the price of up to `θ · diameter` packets of standing backlog.
    pub fn with_threshold(theta: u64) -> Self {
        let mut lgg = Self::new();
        lgg.threshold = theta;
        lgg
    }

    /// The active tie-break policy.
    pub fn tie_break(&self) -> TieBreak {
        self.tie_break
    }

    /// The gradient threshold θ (0 for the paper's Algorithm 1).
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Algorithm 1 at node `u` (declared height `h_u > θ`, `budget`
    /// packets): keys `h_v << 32 | link` of the links with
    /// `h_v + θ < h_u`, ordered per the tie-break, the first `budget`
    /// emitted. Smallest-first with one packet needs only the smallest
    /// key, which [`lowest_downhill`] finds without a buffer or a sort.
    fn plan_node<K: PlanKey>(
        &mut self,
        view: &NetView<'_>,
        u: NodeId,
        h_u: u64,
        budget: u64,
        out: &mut Vec<Transmission>,
    ) {
        // `h_v < h_u − θ` is `h_v + θ < h_u` without overflow.
        let limit = h_u - self.threshold;
        if budget == 1 && self.tie_break == TieBreak::SmallestFirst {
            if let Some(k) = lowest_downhill::<K>(view, u, limit) {
                out.push(Transmission {
                    edge: EdgeId::new(k.low()),
                    from: u,
                });
            }
            return;
        }
        let keys = K::buffer(&mut self.keys);
        let n = downhill_keys(view, u, limit, keys, 0, |h_v, e| K::pack(h_v, e.raw()));
        let keys = &mut keys[..n];
        if keys.is_empty() {
            return;
        }
        match self.tie_break {
            TieBreak::SmallestFirst => keys.sort_unstable(),
            TieBreak::LinkOrder => {}
            TieBreak::RoundRobin => {
                let off = (self.rr[u.index()] as usize) % keys.len();
                keys.rotate_left(off);
                self.rr[u.index()] = self.rr[u.index()].wrapping_add(1);
            }
            TieBreak::Random => keys.shuffle(&mut self.rng),
        }
        let take = (budget as usize).min(keys.len());
        out.extend(keys[..take].iter().map(|&k| Transmission {
            edge: EdgeId::new(k.low()),
            from: u,
        }));
    }
}

impl Default for Lgg {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingProtocol for Lgg {
    fn name(&self) -> &'static str {
        "lgg"
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
            // Every kept `h_v` is below `h_u`, so it fits the narrow key
            // whenever `h_u` does.
            if h_u <= u64::HIGH_MAX {
                self.plan_node::<u64>(view, u, h_u, budget, out);
            } else {
                self.plan_node::<u128>(view, u, h_u, budget, out);
            }
        }
    }

    fn reset(&mut self) {
        self.rr.clear();
        // Restore the tie-break RNG too: a reset run must replay the same
        // random choices as a fresh protocol with this seed.
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        // The RNG position and round-robin offsets both shape future
        // plans; `keys` is per-call and excluded.
        for w in self.rng.state() {
            wire::put_word(out, w);
        }
        wire::put_u64(out, self.rr.len() as u64);
        for &x in &self.rr {
            wire::put_u32(out, x);
        }
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        let mut r = wire::Reader::new(bytes);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = r.word()?;
        }
        self.rng = StdRng::from_state(s);
        self.rr = r.seq(1, wire::Reader::u32)?;
        r.done()
    }
}

/// A planner's candidate key: one integer per link, `high << 32 | low`,
/// packed so that integer order is the order the planner emits in. Keys
/// are distinct within one sort (`low` is a link id, and each link is a
/// candidate once), so every correct sort yields the same order. `u64`
/// holds a `high` part up to [`PlanKey::HIGH_MAX`] = 2³² − 1 and `u128` any
/// `u64`; a planner takes the narrow key when its heights allow it, and
/// the wide one otherwise, with the same code.
pub(crate) trait PlanKey: Copy + Ord + Default {
    /// The largest `high` part the key holds.
    const HIGH_MAX: u64;
    /// Every bit set: above any key whose `high` part is below
    /// [`PlanKey::HIGH_MAX`].
    const ONES: Self;
    /// `high << 32 | low`; bits of `high` above [`PlanKey::HIGH_MAX`] are
    /// dropped, which only ever happens to slots the scan does not keep.
    fn pack(high: u64, low: u32) -> Self;
    /// The `low` part.
    fn low(self) -> u32;
    /// This key's buffer in `keys`.
    fn buffer(keys: &mut KeyBuffers) -> &mut Vec<Self>;
}

impl PlanKey for u64 {
    const HIGH_MAX: u64 = u32::MAX as u64;
    const ONES: Self = u64::MAX;

    #[inline(always)]
    fn pack(high: u64, low: u32) -> Self {
        high << 32 | u64::from(low)
    }

    #[inline(always)]
    fn low(self) -> u32 {
        self as u32
    }

    fn buffer(keys: &mut KeyBuffers) -> &mut Vec<Self> {
        &mut keys.narrow
    }
}

impl PlanKey for u128 {
    const HIGH_MAX: u64 = u64::MAX;
    const ONES: Self = u128::MAX;

    #[inline(always)]
    fn pack(high: u64, low: u32) -> Self {
        u128::from(high) << 32 | u128::from(low)
    }

    #[inline(always)]
    fn low(self) -> u32 {
        self as u32
    }

    fn buffer(keys: &mut KeyBuffers) -> &mut Vec<Self> {
        &mut keys.wide
    }
}

/// A planner's reused key buffers, one per [`PlanKey`] width. Scratch:
/// never part of a protocol's saved state.
#[derive(Debug, Default)]
pub(crate) struct KeyBuffers {
    narrow: Vec<u64>,
    wide: Vec<u128>,
}

/// The planner's scan, shared by [`Lgg`] and
/// [`MatchingLgg`](crate::interference::MatchingLgg): writes `key(h_v,
/// link)` for every incident link of `u` into `keys` from `start` on, and
/// keeps it (advances the cursor past it) only when the link is active and
/// its far end declares below `limit`. Returns the cursor after `u`'s
/// kept keys. The predicate is added to the cursor rather than branched
/// on, so the loop has no data-dependent branch.
#[inline(always)]
pub(crate) fn downhill_keys<K: PlanKey>(
    view: &NetView<'_>,
    u: NodeId,
    limit: u64,
    keys: &mut Vec<K>,
    start: usize,
    key: impl Fn(u64, EdgeId) -> K,
) -> usize {
    let links = view.graph.incident_links(u);
    let end = start + links.len();
    if keys.len() < end {
        keys.resize(end, K::default());
    }
    let slots = &mut keys[start..end];
    let (declared, active) = (view.declared, view.active_edges);
    // `NetView::declared_of` inlined over equal-length slices, so one
    // bounds check covers both loads (the engine sizes both by `n`).
    let queues = &view.true_queues[..declared.len()];
    let mut n = 0;
    for link in links {
        let v = link.neighbor.index();
        let (d, q) = (declared[v], queues[v]);
        let h_v = if d == u64::MAX { q } else { d };
        slots[n] = key(h_v, link.edge);
        n += usize::from(active[link.edge.index()] & (h_v < limit));
    }
    start + n
}

/// The smallest key `h_v << 32 | link` among the links [`downhill_keys`]
/// would keep, in one pass that writes no buffer: a link that is not kept
/// scores [`PlanKey::ONES`], which no kept key reaches (`h_v < limit ≤
/// HIGH_MAX`). Keys are distinct, so this is the first key of the sorted
/// order.
#[inline(always)]
fn lowest_downhill<K: PlanKey>(view: &NetView<'_>, u: NodeId, limit: u64) -> Option<K> {
    let (declared, active) = (view.declared, view.active_edges);
    let queues = &view.true_queues[..declared.len()];
    let mut best = K::ONES;
    for link in view.graph.incident_links(u) {
        let v = link.neighbor.index();
        let (d, q) = (declared[v], queues[v]);
        let h_v = if d == u64::MAX { q } else { d };
        let kept = active[link.edge.index()] & (h_v < limit);
        best = best.min(if kept {
            K::pack(h_v, link.edge.raw())
        } else {
            K::ONES
        });
    }
    (best != K::ONES).then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgraph::generators;
    use netmodel::{TrafficSpec, TrafficSpecBuilder};

    fn star_spec() -> TrafficSpec {
        // center 0 with 3 leaves; center is the source.
        TrafficSpecBuilder::new(generators::star(3))
            .source(0, 3)
            .sink(3, 3)
            .build()
            .unwrap()
    }

    fn plan_with(
        spec: &TrafficSpec,
        declared: Vec<u64>,
        queues: Vec<u64>,
        protocol: &mut Lgg,
    ) -> Vec<Transmission> {
        let active = vec![true; spec.graph.edge_count()];
        let nodes: Vec<NodeId> = spec.graph.nodes().collect();
        let view = NetView {
            graph: &spec.graph,
            spec,
            declared: &declared,
            true_queues: &queues,
            active_edges: &active,
            active_nodes: &nodes,
            t: 0,
        };
        let mut out = Vec::new();
        protocol.plan(&view, &mut out);
        out
    }

    #[test]
    fn sends_only_downhill() {
        let spec = star_spec();
        // center declares 5; leaves declare 7, 5, 3 -> only leaf 3 (node 3)
        // is strictly smaller.
        let txs = plan_with(&spec, vec![5, 7, 5, 3], vec![5, 7, 5, 3], &mut Lgg::new());
        let from_center: Vec<_> = txs.iter().filter(|t| t.from == NodeId::new(0)).collect();
        assert_eq!(from_center.len(), 1);
        assert_eq!(from_center[0].edge, EdgeId::new(2)); // star edge to leaf 3
                                                         // Leaf 1 (declared 7) sends to the center (declared 5).
        let from_leaf1: Vec<_> = txs.iter().filter(|t| t.from == NodeId::new(1)).collect();
        assert_eq!(from_leaf1.len(), 1);
    }

    #[test]
    fn budget_limits_transmissions() {
        let spec = star_spec();
        // center has only 2 packets but 3 smaller neighbors.
        let txs = plan_with(&spec, vec![9, 1, 2, 3], vec![2, 1, 2, 3], &mut Lgg::new());
        let from_center: Vec<_> = txs.iter().filter(|t| t.from == NodeId::new(0)).collect();
        assert_eq!(from_center.len(), 2);
        // Smallest-first: edges toward declared 1 and 2 (leaves 1 and 2 =
        // edges 0 and 1).
        let edges: Vec<_> = from_center.iter().map(|t| t.edge).collect();
        assert_eq!(edges, vec![EdgeId::new(0), EdgeId::new(1)]);
    }

    #[test]
    fn zero_queue_or_zero_height_sends_nothing() {
        let spec = star_spec();
        let txs = plan_with(&spec, vec![0, 0, 0, 0], vec![0, 0, 0, 0], &mut Lgg::new());
        assert!(txs.is_empty());
        // true queue 0 but declared 5 (lying upward is illegal, but the
        // protocol must still respect its physical budget).
        let txs = plan_with(&spec, vec![5, 0, 0, 0], vec![0, 0, 0, 0], &mut Lgg::new());
        assert!(txs.iter().all(|t| t.from != NodeId::new(0)));
    }

    #[test]
    fn parallel_links_each_carry_one() {
        let g = generators::parallel_pair(3);
        let spec = TrafficSpecBuilder::new(g)
            .source(0, 3)
            .sink(1, 3)
            .build()
            .unwrap();
        let txs = plan_with(&spec, vec![5, 0], vec![5, 0], &mut Lgg::new());
        assert_eq!(txs.len(), 3);
        let edges: std::collections::HashSet<_> = txs.iter().map(|t| t.edge).collect();
        assert_eq!(edges.len(), 3, "each parallel link used once");
    }

    #[test]
    fn equal_heights_do_not_transmit() {
        let g = generators::path(2);
        let spec = TrafficSpecBuilder::new(g)
            .source(0, 1)
            .sink(1, 1)
            .build()
            .unwrap();
        let txs = plan_with(&spec, vec![4, 4], vec![4, 4], &mut Lgg::new());
        assert!(txs.is_empty(), "strictly smaller is required");
    }

    #[test]
    fn inactive_links_are_skipped() {
        let spec = star_spec();
        let declared = vec![9, 0, 0, 0];
        let queues = vec![9, 0, 0, 0];
        let active = vec![false, true, false];
        let nodes: Vec<NodeId> = spec.graph.nodes().collect();
        let view = NetView {
            graph: &spec.graph,
            spec: &spec,
            declared: &declared,
            true_queues: &queues,
            active_edges: &active,
            active_nodes: &nodes,
            t: 0,
        };
        let mut out = Vec::new();
        Lgg::new().plan(&view, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].edge, EdgeId::new(1));
    }

    #[test]
    fn all_tie_breaks_send_same_count() {
        let spec = star_spec();
        for tb in TieBreak::ALL {
            let mut p = Lgg::with_tie_break(tb, 42);
            let txs = plan_with(&spec, vec![9, 1, 2, 3], vec![2, 1, 2, 3], &mut p);
            let from_center = txs.iter().filter(|t| t.from == NodeId::new(0)).count();
            assert_eq!(from_center, 2, "policy {} sent {}", tb.name(), from_center);
        }
    }

    #[test]
    fn round_robin_rotates() {
        let spec = star_spec();
        let mut p = Lgg::with_tie_break(TieBreak::RoundRobin, 0);
        let first = plan_with(&spec, vec![9, 0, 0, 0], vec![1, 0, 0, 0], &mut p);
        let second = plan_with(&spec, vec![9, 0, 0, 0], vec![1, 0, 0, 0], &mut p);
        assert_eq!(first.len(), 1);
        assert_eq!(second.len(), 1);
        assert_ne!(first[0].edge, second[0].edge, "round-robin must rotate");
    }

    #[test]
    fn threshold_gates_transmissions() {
        let spec = star_spec();
        // gaps to leaves: 5-3=2, 5-1=4, 5-0=5.
        let declared = vec![5, 3, 1, 0];
        let queues = vec![5, 3, 1, 0];
        let count = |theta| {
            let mut p = Lgg::with_threshold(theta);
            plan_with(&spec, declared.clone(), queues.clone(), &mut p)
                .iter()
                .filter(|t| t.from == NodeId::new(0))
                .count()
        };
        assert_eq!(count(0), 3); // Algorithm 1: all strictly-smaller neighbors
        assert_eq!(count(2), 2); // gap must exceed 2: leaves at 1 and 0
        assert_eq!(count(4), 1); // only the empty leaf
        assert_eq!(count(5), 0);
        assert_eq!(Lgg::with_threshold(3).threshold(), 3);
        assert_eq!(Lgg::new().threshold(), 0);
    }

    #[test]
    fn tie_break_names_are_distinct() {
        let names: std::collections::HashSet<_> = TieBreak::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), TieBreak::ALL.len());
    }

    #[test]
    fn reset_restores_rng_and_round_robin() {
        let spec = star_spec();
        // Random tie-break: consuming the stream then resetting must replay
        // the exact same shuffle sequence.
        let mut p = Lgg::with_tie_break(TieBreak::Random, 42);
        let fresh: Vec<_> = (0..8)
            .map(|_| plan_with(&spec, vec![9, 1, 1, 1], vec![1, 1, 1, 1], &mut p))
            .collect();
        p.reset();
        let replay: Vec<_> = (0..8)
            .map(|_| plan_with(&spec, vec![9, 1, 1, 1], vec![1, 1, 1, 1], &mut p))
            .collect();
        assert_eq!(fresh, replay);

        // Round-robin offsets also restart.
        let mut p = Lgg::with_tie_break(TieBreak::RoundRobin, 0);
        let first = plan_with(&spec, vec![9, 0, 0, 0], vec![1, 0, 0, 0], &mut p);
        let _ = plan_with(&spec, vec![9, 0, 0, 0], vec![1, 0, 0, 0], &mut p);
        p.reset();
        let again = plan_with(&spec, vec![9, 0, 0, 0], vec![1, 0, 0, 0], &mut p);
        assert_eq!(first, again);
    }
}
