//! The extended graph `G*` (Fig. 2 for classic networks, Fig. 4 for
//! R-generalized ones) as a flow network.
//!
//! `G*` adds a virtual source `s*` with a link of capacity `in(v)` to every
//! injector, and a virtual sink `d*` with a link of capacity `out(v)` from
//! every extractor. Every original edge keeps capacity 1 per link. All the
//! paper's feasibility notions are max-flow questions on this object.

use maxflow::{min_cut_side, Algorithm, ArcId, FlowNetwork, MinCut};
use mgraph::NodeId;

use crate::TrafficSpec;

/// The extended network `G*` together with the bookkeeping needed to read
/// per-source / per-sink flows back out.
#[derive(Debug, Clone)]
pub struct ExtendedNetwork {
    /// The underlying flow network: nodes `0..n` mirror `G`, then `s*`, `d*`.
    pub net: FlowNetwork,
    /// Index of the virtual source `s*` (= `n`).
    pub s_star: usize,
    /// Index of the virtual sink `d*` (= `n + 1`).
    pub d_star: usize,
    /// `(v, arc)` for each virtual arc `s* -> v`.
    pub source_arcs: Vec<(NodeId, ArcId)>,
    /// `(v, arc)` for each virtual arc `v -> d*`.
    pub sink_arcs: Vec<(NodeId, ArcId)>,
    /// Forward arc of the pair realizing each graph edge, indexed by edge id.
    pub edge_arcs: Vec<ArcId>,
}

impl ExtendedNetwork {
    /// Builds `G*` for plain feasibility: edge capacity 1, `s*->v` capacity
    /// `in(v)`, `v->d*` capacity `out(v)`.
    pub fn feasibility(spec: &TrafficSpec) -> Self {
        Self::scaled(spec, 1, 1)
    }

    /// Builds `G*` at the **rate** `λ = num / den`: edge capacities become
    /// `den`, source arcs `num · in(v)`, sink arcs `den · out(v)`, so the
    /// sources saturate exactly when `λ · in` is feasible. Definition 4's
    /// `ε`-inflation is the rate `1 + ε`. Integer scaling keeps the test
    /// exact — no floating point.
    pub fn scaled(spec: &TrafficSpec, num: i64, den: i64) -> Self {
        assert!(num >= 0 && den >= 1, "λ must be a non-negative rational");
        Self::build(spec, den, |in_r| num * in_r)
    }

    /// Builds `G*` with **unbounded** source arcs, whose max flow is the
    /// paper's `f*` (the best any arrival rate could hope for).
    pub fn uncapped_sources(spec: &TrafficSpec) -> Self {
        // f* <= Σ out(d), so this capacity is effectively infinite.
        let inf = spec.extraction_rate() as i64 + spec.graph.edge_count() as i64 + 1;
        Self::build(spec, 1, |_| inf)
    }

    /// `G*` with edge capacity `den`, sink arcs `den · out(v)` and source
    /// arcs `source_cap(in(v))`.
    fn build(spec: &TrafficSpec, den: i64, source_cap: impl Fn(i64) -> i64) -> Self {
        let n = spec.node_count();
        let mut net = FlowNetwork::new(n);
        let mut edge_arcs = Vec::with_capacity(spec.graph.edge_count());
        for e in spec.graph.edges() {
            let (u, v) = spec.graph.endpoints(e);
            edge_arcs.push(net.add_undirected(u.index(), v.index(), den));
        }
        let s_star = net.add_node();
        let d_star = net.add_node();
        let mut source_arcs = Vec::new();
        let mut sink_arcs = Vec::new();
        for v in spec.graph.nodes() {
            let in_r = spec.in_rate(v) as i64;
            if in_r > 0 {
                source_arcs.push((v, net.add_arc(s_star, v.index(), source_cap(in_r))));
            }
            let out_r = spec.out_rate(v) as i64;
            if out_r > 0 {
                sink_arcs.push((v, net.add_arc(v.index(), d_star, den * out_r)));
            }
        }
        ExtendedNetwork {
            net,
            s_star,
            d_star,
            source_arcs,
            sink_arcs,
            edge_arcs,
        }
    }

    /// Solves max flow `s* -> d*` and returns its value (in units of
    /// `1/den` when built via [`ExtendedNetwork::scaled`]).
    pub fn solve(&mut self, algo: Algorithm) -> i64 {
        self.net.max_flow(self.s_star, self.d_star, algo)
    }

    /// After [`ExtendedNetwork::solve`]: is every source arc saturated
    /// (`Φ(s*, s) = cap`)? This is Definition 3's feasibility condition
    /// (and Definition 4's when built at a rate `1 + ε`).
    pub fn sources_saturated(&self) -> bool {
        self.source_arcs
            .iter()
            .all(|&(_, a)| self.net.flow_on(a) == self.net.capacity_of(a))
    }

    /// After solving: the flow on the virtual arc of source `v`, i.e.
    /// `Φ(s*, v)`.
    pub fn source_flow(&self, v: NodeId) -> Option<i64> {
        self.source_arcs
            .iter()
            .find(|&&(u, _)| u == v)
            .map(|&(_, a)| self.net.flow_on(a))
    }

    /// After solving: `Φ(v, d*)`.
    pub fn sink_flow(&self, v: NodeId) -> Option<i64> {
        self.sink_arcs
            .iter()
            .find(|&&(u, _)| u == v)
            .map(|&(_, a)| self.net.flow_on(a))
    }

    /// After solving: the **minimal** minimum cut (source side found by
    /// residual BFS from `s*`).
    pub fn min_cut(&self) -> MinCut {
        min_cut_side(&self.net, self.s_star)
    }

    /// After solving: the **maximal** minimum cut — the complement of the
    /// set of nodes that can still reach `d*` in the residual network. Any
    /// minimum cut's source side lies between the minimal and maximal one,
    /// so comparing the two detects uniqueness (case 1 vs. case 2/3 of
    /// Section V).
    pub fn max_min_cut_side(&self) -> Vec<bool> {
        let n = self.net.node_count();
        let mut reaches_sink = vec![false; n];
        let mut stack = vec![self.d_star];
        reaches_sink[self.d_star] = true;
        while let Some(w) = stack.pop() {
            for &a in self.net.arcs_from(w) {
                // arc a: w -> x. x reaches d* through w iff the arc x -> w
                // (the pair's reverse from x's perspective, i.e. a ^ 1 seen
                // forward) has residual capacity.
                let x = self.net.head_of(a);
                if !reaches_sink[x] && self.net.res(a ^ 1) > 0 {
                    reaches_sink[x] = true;
                    stack.push(x);
                }
            }
        }
        reaches_sink.iter().map(|&r| !r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrafficSpecBuilder;
    use mgraph::generators;

    fn simple_spec(in_r: u64, out_r: u64) -> TrafficSpec {
        TrafficSpecBuilder::new(generators::path(3))
            .source(0, in_r)
            .sink(2, out_r)
            .build()
            .unwrap()
    }

    #[test]
    fn feasibility_network_shape() {
        let spec = simple_spec(1, 1);
        let ext = ExtendedNetwork::feasibility(&spec);
        assert_eq!(ext.s_star, 3);
        assert_eq!(ext.d_star, 4);
        assert_eq!(ext.source_arcs.len(), 1);
        assert_eq!(ext.sink_arcs.len(), 1);
        assert_eq!(ext.edge_arcs.len(), 2);
    }

    #[test]
    fn feasible_path_saturates_sources() {
        let spec = simple_spec(1, 1);
        let mut ext = ExtendedNetwork::feasibility(&spec);
        let f = ext.solve(Algorithm::Dinic);
        assert_eq!(f, 1);
        assert!(ext.sources_saturated());
        assert_eq!(ext.source_flow(mgraph::NodeId::new(0)), Some(1));
        assert_eq!(ext.sink_flow(mgraph::NodeId::new(2)), Some(1));
    }

    #[test]
    fn infeasible_when_in_exceeds_cut() {
        // Path has edge capacity 1, so in = 2 cannot be shipped.
        let spec = simple_spec(2, 5);
        let mut ext = ExtendedNetwork::feasibility(&spec);
        let f = ext.solve(Algorithm::Dinic);
        assert_eq!(f, 1);
        assert!(!ext.sources_saturated());
    }

    #[test]
    fn scaled_network_detects_slack() {
        // in = 1 over a path with two parallel routes? Use parallel_pair:
        // capacity 2 between the endpoints, in = 1 -> unsaturated with ε = 1.
        let g = generators::parallel_pair(2);
        let spec = TrafficSpecBuilder::new(g)
            .source(0, 1)
            .sink(1, 2)
            .build()
            .unwrap();
        // ε = 1 (i.e. rate 2, capacity 2·in = 2): still feasible.
        let mut ext = ExtendedNetwork::scaled(&spec, 2, 1);
        let f = ext.solve(Algorithm::Dinic);
        assert_eq!(f, 2);
        assert!(ext.sources_saturated());
        // ε = 2: capacity 3·in = 3 > edges 2 -> not saturable.
        let mut ext = ExtendedNetwork::scaled(&spec, 3, 1);
        ext.solve(Algorithm::Dinic);
        assert!(!ext.sources_saturated());
    }

    #[test]
    fn f_star_ignores_in_rates() {
        // in = 1 but the graph could carry 3 (parallel_pair(3)).
        let g = generators::parallel_pair(3);
        let spec = TrafficSpecBuilder::new(g)
            .source(0, 1)
            .sink(1, 5)
            .build()
            .unwrap();
        let mut ext = ExtendedNetwork::uncapped_sources(&spec);
        let f_star = ext.solve(Algorithm::Dinic);
        assert_eq!(f_star, 3);
    }

    #[test]
    fn min_and_max_cuts_bracket_unique_cut() {
        // Path with in=1, out=1: every edge is a min cut, so the minimal
        // and maximal cuts differ.
        let spec = simple_spec(1, 1);
        let mut ext = ExtendedNetwork::feasibility(&spec);
        ext.solve(Algorithm::Dinic);
        let min_side = ext.min_cut().side;
        let max_side = ext.max_min_cut_side();
        // minimal side ⊆ maximal side
        for i in 0..min_side.len() {
            assert!(!min_side[i] || max_side[i]);
        }
        assert!(min_side[ext.s_star]);
        assert!(!max_side[ext.d_star]);
    }

    #[test]
    fn unsaturated_network_has_source_singleton_unique_cut() {
        // Wide graph (complete K5), tiny arrival rate: the only min cut is
        // at the virtual source.
        let g = generators::complete(5);
        let spec = TrafficSpecBuilder::new(g)
            .source(0, 1)
            .sink(4, 4)
            .build()
            .unwrap();
        let mut ext = ExtendedNetwork::feasibility(&spec);
        let f = ext.solve(Algorithm::Dinic);
        assert_eq!(f, 1);
        let min_cut = ext.min_cut();
        assert!(min_cut.is_source_singleton());
        let max_side = ext.max_min_cut_side();
        assert_eq!(max_side.iter().filter(|&&b| b).count(), 1);
    }
}
