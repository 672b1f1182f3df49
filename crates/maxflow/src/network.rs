//! The residual flow network shared by all three max-flow algorithms.

use mgraph::MultiGraph;

use crate::Algorithm;

/// Identifier of a directed arc inside a [`FlowNetwork`].
///
/// Arcs are created in pairs; the reverse (residual) arc of arc `i` is
/// always `i ^ 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArcId(pub(crate) u32);

impl ArcId {
    /// Raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The forward arc of the `pair`-th arc pair (pairs are numbered in
    /// insertion order of `add_arc`/`add_undirected` calls).
    #[inline]
    pub const fn pair_forward(pair: usize) -> ArcId {
        ArcId((pair * 2) as u32)
    }

    /// The paired reverse arc.
    #[inline]
    pub const fn rev(self) -> ArcId {
        ArcId(self.0 ^ 1)
    }
}

/// A directed flow network in residual representation.
///
/// Each call to [`FlowNetwork::add_arc`] (capacity `c`, reverse capacity 0)
/// or [`FlowNetwork::add_undirected`] (capacity `c` both ways) appends a
/// *pair* of arcs. Algorithms mutate only the residual capacities; original
/// capacities are retained so flows can be read back with
/// [`FlowNetwork::flow_on`] and the network re-solved after
/// [`FlowNetwork::reset`].
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    /// `head[a]` = node the arc `a` points to.
    head: Vec<u32>,
    /// Residual capacity per arc (mutated by solvers).
    residual: Vec<i64>,
    /// Original capacity per arc (immutable after construction).
    original: Vec<i64>,
    /// Arc ids leaving each node (both forward and reverse arcs).
    adj: Vec<Vec<u32>>,
}

impl FlowNetwork {
    /// Creates a network on `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            head: Vec::new(),
            residual: Vec::new(),
            original: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of arc *pairs* added so far.
    #[inline]
    pub fn arc_pair_count(&self) -> usize {
        self.head.len() / 2
    }

    /// Appends an isolated node and returns its index.
    pub fn add_node(&mut self) -> usize {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Adds a directed arc `u -> v` with capacity `cap >= 0`.
    /// Returns the id of the forward arc; its reverse has capacity 0.
    pub fn add_arc(&mut self, u: usize, v: usize, cap: i64) -> ArcId {
        self.push_pair(u, v, cap, 0)
    }

    /// Adds an undirected edge `{u, v}` with capacity `cap` in each
    /// direction — the standard reduction of an undirected capacity-`cap`
    /// edge to a directed network (opposing flows cancel in the residual
    /// representation, so at most `cap` *net* units cross the edge).
    pub fn add_undirected(&mut self, u: usize, v: usize, cap: i64) -> ArcId {
        self.push_pair(u, v, cap, cap)
    }

    fn push_pair(&mut self, u: usize, v: usize, cap_fwd: i64, cap_rev: i64) -> ArcId {
        assert!(u < self.adj.len(), "arc tail {u} out of range");
        assert!(v < self.adj.len(), "arc head {v} out of range");
        assert!(u != v, "self-loop arcs are not allowed");
        assert!(cap_fwd >= 0 && cap_rev >= 0, "negative capacity");
        let a = self.head.len() as u32;
        self.head.push(v as u32);
        self.head.push(u as u32);
        self.residual.push(cap_fwd);
        self.residual.push(cap_rev);
        self.original.push(cap_fwd);
        self.original.push(cap_rev);
        self.adj[u].push(a);
        self.adj[v].push(a + 1);
        ArcId(a)
    }

    /// The node arc `a` points to (arc ids as found in
    /// [`FlowNetwork::arcs_from`]).
    #[inline]
    pub fn head_of(&self, a: u32) -> usize {
        self.head[a as usize] as usize
    }

    /// Residual capacity of arc `a`.
    #[inline]
    pub fn res(&self, a: u32) -> i64 {
        self.residual[a as usize]
    }

    /// Pushes `amount` units along arc `a` (decreases its residual,
    /// increases the reverse's).
    #[inline]
    pub(crate) fn push(&mut self, a: u32, amount: i64) {
        debug_assert!(amount >= 0 && amount <= self.residual[a as usize]);
        self.residual[a as usize] -= amount;
        self.residual[(a ^ 1) as usize] += amount;
    }

    /// Arc ids leaving `u` (forward and residual arcs interleaved). The
    /// reverse of arc `a` is always `a ^ 1`.
    #[inline]
    pub fn arcs_from(&self, u: usize) -> &[u32] {
        &self.adj[u]
    }

    /// Net flow currently routed over the forward arc `a` (may be negative
    /// for undirected pairs when the net flow runs against `a`'s
    /// orientation).
    pub fn flow_on(&self, a: ArcId) -> i64 {
        let i = a.index() & !1; // normalize to the forward arc of the pair
        let fwd = self.original[i] - self.residual[i];
        if a.index() % 2 == 0 {
            fwd
        } else {
            -fwd
        }
    }

    /// Original capacity of arc `a`.
    pub fn capacity_of(&self, a: ArcId) -> i64 {
        self.original[a.index()]
    }

    /// Restores all residual capacities to the original ones, erasing any
    /// computed flow.
    pub fn reset(&mut self) {
        self.residual.copy_from_slice(&self.original);
    }

    /// Total net flow currently leaving `u` (outflow − inflow over all
    /// incident arc pairs). Zero at every node but `s`/`t` for a valid
    /// flow.
    pub fn net_outflow(&self, u: usize) -> i64 {
        let mut total = 0;
        for &a in &self.adj[u] {
            let i = (a as usize) & !1;
            let fwd_flow = self.original[i] - self.residual[i];
            if a as usize % 2 == 0 {
                total += fwd_flow;
            } else {
                total -= fwd_flow;
            }
        }
        total
    }

    /// Runs the selected max-flow algorithm from `s` to `t` on the current
    /// residual capacities and returns the value of the flow found.
    ///
    /// Call [`FlowNetwork::reset`] first to recompute from scratch after a
    /// previous solve.
    pub fn max_flow(&mut self, s: usize, t: usize, algo: Algorithm) -> i64 {
        assert!(s < self.node_count() && t < self.node_count() && s != t);
        match algo {
            Algorithm::EdmondsKarp => crate::edmonds_karp::solve(self, s, t),
            Algorithm::Dinic => crate::dinic::solve(self, s, t),
            Algorithm::PushRelabel => crate::push_relabel::solve(self, s, t),
            Algorithm::PushRelabelHighest => crate::push_relabel::solve_highest(self, s, t),
            Algorithm::PushRelabelNoGap => crate::push_relabel::solve_no_gap(self, s, t),
        }
    }

    /// Builds a flow network over the nodes of an undirected multigraph:
    /// node indices are preserved, every graph edge becomes an undirected
    /// unit-capacity pair (the paper's "each link can transmit at most 1
    /// packet"); attach virtual terminals to the result with
    /// [`FlowNetwork::add_node`]/[`FlowNetwork::add_arc`].
    pub fn from_multigraph_unit(g: &MultiGraph) -> Self {
        let mut net = FlowNetwork::new(g.node_count());
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            net.add_undirected(u.index(), v.index(), 1);
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arc_pairing_and_rev() {
        let mut net = FlowNetwork::new(3);
        let a = net.add_arc(0, 1, 5);
        let b = net.add_arc(1, 2, 7);
        assert_eq!(a.index(), 0);
        assert_eq!(a.rev().index(), 1);
        assert_eq!(b.index(), 2);
        assert_eq!(b.rev().rev(), b);
        assert_eq!(net.arc_pair_count(), 2);
        assert_eq!(net.capacity_of(a), 5);
        assert_eq!(net.capacity_of(a.rev()), 0);
    }

    #[test]
    fn push_updates_residuals() {
        let mut net = FlowNetwork::new(2);
        let a = net.add_arc(0, 1, 4);
        net.push(a.0, 3);
        assert_eq!(net.res(a.0), 1);
        assert_eq!(net.res(a.0 ^ 1), 3);
        assert_eq!(net.flow_on(a), 3);
        assert_eq!(net.flow_on(a.rev()), -3);
        net.reset();
        assert_eq!(net.flow_on(a), 0);
        assert_eq!(net.res(a.0), 4);
    }

    #[test]
    fn undirected_pair_has_capacity_both_ways() {
        let mut net = FlowNetwork::new(2);
        let a = net.add_undirected(0, 1, 2);
        assert_eq!(net.capacity_of(a), 2);
        assert_eq!(net.capacity_of(a.rev()), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_arc_panics() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_arc_panics() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 5, 1);
    }

    #[test]
    fn from_multigraph_preserves_indices() {
        let g = mgraph::generators::path(4);
        let net = FlowNetwork::from_multigraph_unit(&g);
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.arc_pair_count(), 3);
    }

    #[test]
    fn net_outflow_zero_without_flow() {
        let g = mgraph::generators::cycle(5);
        let net = FlowNetwork::from_multigraph_unit(&g);
        for v in 0..5 {
            assert_eq!(net.net_outflow(v), 0);
        }
    }
}
