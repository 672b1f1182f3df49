//! The Section V-C induction step: splitting `G` along an interior minimum
//! cut of `G*` into two generalized networks.
//!
//! Given a minimum cut `(A, B)` of `G*` with `s* ∈ A`, `d* ∈ B` and both
//! sides meeting `G`:
//!
//! * **`B'`** — partition `B` viewed as its own R-generalized network. Every
//!   border node `v ∈ X` (nodes of `B` adjacent to `A`) becomes a pseudo-
//!   source injecting at most `|Γ_A(v)| + in(v)` per step (packets arriving
//!   over the cut plus its own injection); other traffic parameters carry
//!   over.
//! * **`A'`** — partition `A` viewed as an `R_B`-generalized network, where
//!   `R_B` bounds the packets stored in `B`. Every border node `v ∈ Y`
//!   (nodes of `A` adjacent to `B`) becomes an `R_B`-pseudo-destination
//!   extracting up to `|Γ_B(v)| + out(v)` per step (packets it can push over
//!   the cut plus its own extraction).
//!
//! The paper proves `B'` is feasible (the cut is saturated by the max flow,
//! so routing `Φ` restricted to `B` feeds the pseudo-sources exactly), then
//! bounds `B`'s backlog by some `R_B`, then repeats on `A'`. Experiment E13
//! replays that argument executably.

use maxflow::Algorithm;
use mgraph::{ops, NodeId};
use serde::{Deserialize, Serialize};

use crate::{ExtendedNetwork, TrafficSpec};

/// Result of splitting a spec along a cut: the two generalized sub-network
/// specs plus node mappings back into the original graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CutDecomposition {
    /// The `B'` spec (sink-side partition with pseudo-sources on its border).
    pub b_spec: TrafficSpec,
    /// Original node id for each node of `b_spec` (index = new id).
    pub b_nodes: Vec<NodeId>,
    /// The `A'` spec (source-side partition with pseudo-destinations on its
    /// border; its `retention` field carries `R_B`).
    pub a_spec: TrafficSpec,
    /// Original node id for each node of `a_spec`.
    pub a_nodes: Vec<NodeId>,
    /// Number of graph edges crossing the cut (`|C|` in Section V-B's
    /// counting argument).
    pub crossing_edges: usize,
}

/// Splits `spec` along the interior cut given by `side` (`true` = A side),
/// producing the `B'` and `A'` networks of Section V-C.
///
/// * `r_b` is the retention constant granted to `A'`'s pseudo-destinations
///   (the paper's bound on `B`'s backlog; experimentally, the measured
///   `sup_t` backlog of `B'`).
/// * `B'` keeps the original retention `R`.
///
/// # Panics
/// Panics if either side of the cut is empty within `G`.
pub fn decompose_at_cut(spec: &TrafficSpec, side: &[bool], r_b: u64) -> CutDecomposition {
    let g = &spec.graph;
    assert_eq!(side.len(), g.node_count(), "side mask length");
    let a_nodes: Vec<NodeId> = g.nodes().filter(|v| side[v.index()]).collect();
    let b_nodes: Vec<NodeId> = g.nodes().filter(|v| !side[v.index()]).collect();
    assert!(!a_nodes.is_empty(), "cut leaves A ∩ V(G) empty");
    assert!(!b_nodes.is_empty(), "cut leaves B ∩ V(G) empty");

    // Count, per node, the incident links crossing the cut: |Γ_A(v)| for
    // v ∈ B and |Γ_B(v)| for v ∈ A.
    let mut cross = vec![0u64; g.node_count()];
    let mut crossing_edges = 0usize;
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        if side[u.index()] != side[v.index()] {
            cross[u.index()] += 1;
            cross[v.index()] += 1;
            crossing_edges += 1;
        }
    }

    // B': border nodes inject |Γ_A(v)| + in(v); everything else carries over.
    let (b_graph, _) = ops::induced_subgraph(g, &b_nodes);
    let mut b_in = Vec::with_capacity(b_nodes.len());
    let mut b_out = Vec::with_capacity(b_nodes.len());
    for &v in &b_nodes {
        b_in.push(spec.in_rate(v) + cross[v.index()]);
        b_out.push(spec.out_rate(v));
    }
    let b_spec = TrafficSpec::new(b_graph, b_in, b_out, spec.retention);

    // A': border nodes extract |Γ_B(v)| + out(v); retention becomes R_B.
    let (a_graph, _) = ops::induced_subgraph(g, &a_nodes);
    let mut a_in = Vec::with_capacity(a_nodes.len());
    let mut a_out = Vec::with_capacity(a_nodes.len());
    for &v in &a_nodes {
        a_in.push(spec.in_rate(v));
        a_out.push(spec.out_rate(v) + cross[v.index()]);
    }
    let a_spec = TrafficSpec::new(a_graph, a_in, a_out, r_b.max(spec.retention));

    CutDecomposition {
        b_spec,
        b_nodes,
        a_spec,
        a_nodes,
        crossing_edges,
    }
}

/// Searches for an **interior** minimum cut of `G*`: a minimum cut whose
/// source side contains at least one node of `G` and whose sink side
/// contains at least one node of `G`.
///
/// Returns the side mask restricted to `G`'s nodes, or `None` if every
/// minimum cut is trivial (hugging `s*` or... note a cut at `d*` has all of
/// `G` on the source side, which *is* interior-usable only if `B ∩ V(G)`
/// non-empty, so a pure `{d*}` cut does not qualify).
///
/// Method: for each node `v` of `G`, force `v` onto the source side by
/// adding an infinite arc `s* -> v`; if the max flow is unchanged, some
/// minimum cut keeps `v` in `A` — take that network's minimal cut. To
/// guarantee `B ∩ V(G) ≠ ∅` we check the resulting side mask.
pub fn find_interior_min_cut(spec: &TrafficSpec) -> Option<Vec<bool>> {
    let n = spec.node_count();
    let mut base = ExtendedNetwork::feasibility(spec);
    let base_flow = base.solve(Algorithm::Dinic);

    let inf = spec.arrival_rate() as i64 + spec.graph.edge_count() as i64 + 1;
    for v in 0..n {
        let mut ext = ExtendedNetwork::feasibility(spec);
        ext.net.add_arc(ext.s_star, v, inf);
        let f = ext.solve(Algorithm::Dinic);
        if f != base_flow {
            continue; // forcing v into A raises the cut: v is on B in all min cuts
        }
        let cut = ext.min_cut();
        let side: Vec<bool> = cut.side[..n].to_vec();
        let a_count = side.iter().filter(|&&b| b).count();
        if a_count >= 1 && a_count < n {
            return Some(side);
        }
    }
    None
}

/// Which side of the minimum cuts of `G*` a node can sit on — the min-cut
/// *lattice* structure that drives the Section V case analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CutMembership {
    /// On the source side `A` of **every** minimum cut.
    AlwaysSource,
    /// On the sink side `B` of every minimum cut.
    AlwaysSink,
    /// On different sides depending on the cut chosen — the node sits
    /// strictly between the minimal and the maximal minimum cut.
    Either,
}

/// Classifies every node of `G` by its minimum-cut membership, using the
/// lattice fact that the minimal cut side (residual reachability from
/// `s*`) and the maximal one (complement of reachability to `d*`) bracket
/// every minimum cut.
pub fn cut_membership(spec: &TrafficSpec) -> Vec<CutMembership> {
    let mut ext = ExtendedNetwork::feasibility(spec);
    ext.solve(Algorithm::Dinic);
    let min_side = ext.min_cut().side;
    let max_side = ext.max_min_cut_side();
    (0..spec.node_count())
        .map(|v| match (min_side[v], max_side[v]) {
            (true, _) => CutMembership::AlwaysSource,
            (false, false) => CutMembership::AlwaysSink,
            (false, true) => CutMembership::Either,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify, Feasibility, TrafficSpecBuilder};
    use mgraph::generators;

    /// Dumbbell with the bridge as the saturated min cut.
    fn dumbbell_spec() -> TrafficSpec {
        TrafficSpecBuilder::new(generators::dumbbell(4, 2))
            .source(0, 1)
            .sink(9, 4)
            .build()
            .unwrap()
    }

    #[test]
    fn interior_cut_found_on_dumbbell() {
        let spec = dumbbell_spec();
        let side = find_interior_min_cut(&spec).expect("dumbbell has an interior min cut");
        let a: usize = side.iter().filter(|&&b| b).count();
        assert!(a >= 1 && a < 10);
        // Source stays in A, sink in B.
        assert!(side[0]);
        assert!(!side[9]);
        // The cut must have capacity 1 = the bridge.
        assert_eq!(mgraph::ops::cut_size(&spec.graph, &side), 1);
    }

    #[test]
    fn no_interior_cut_on_wide_unsaturated_network() {
        // K6 with slack everywhere: the only min cut is at s*.
        let spec = TrafficSpecBuilder::new(generators::complete(6))
            .source(0, 1)
            .sink(5, 5)
            .build()
            .unwrap();
        assert_eq!(find_interior_min_cut(&spec), None);
    }

    #[test]
    fn decomposition_preserves_rates_and_counts() {
        let spec = dumbbell_spec();
        let side = find_interior_min_cut(&spec).unwrap();
        let dec = decompose_at_cut(&spec, &side, 7);

        assert_eq!(dec.crossing_edges, 1);
        assert_eq!(dec.a_nodes.len() + dec.b_nodes.len(), spec.node_count());
        // B' border nodes inject the crossing degree.
        let b_arrival: u64 = dec.b_spec.in_rate.iter().sum();
        assert_eq!(b_arrival, 1); // one crossing edge, original source is in A
                                  // A' border nodes extract crossing degree + out.
        let a_extract: u64 = dec.a_spec.out_rate.iter().sum();
        assert_eq!(a_extract, 1);
        // Retention of A' is R_B.
        assert_eq!(dec.a_spec.retention, 7);
        assert_eq!(dec.b_spec.retention, 0);
    }

    #[test]
    fn decomposed_parts_are_feasible() {
        // The paper proves B' (and A') inherit feasibility from G; check it
        // on the dumbbell.
        let spec = dumbbell_spec();
        let side = find_interior_min_cut(&spec).unwrap();
        let dec = decompose_at_cut(&spec, &side, 0);
        let b_class = classify(&dec.b_spec);
        assert!(
            b_class.feasibility.is_feasible(),
            "B' should be feasible: {:?}",
            b_class.feasibility
        );
        let a_class = classify(&dec.a_spec);
        assert!(
            a_class.feasibility.is_feasible(),
            "A' should be feasible: {:?}",
            a_class.feasibility
        );
    }

    #[test]
    fn double_source_dumbbell_is_infeasible() {
        // Two sources in the left clique overload the unit bridge.
        let spec = TrafficSpecBuilder::new(generators::dumbbell(3, 4))
            .source(0, 1)
            .source(1, 1)
            .sink(9, 2)
            .build()
            .unwrap();
        let class = classify(&spec);
        assert_eq!(
            class.feasibility,
            Feasibility::Infeasible {
                max_flow: 1,
                arrival_rate: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "B ∩ V(G) empty")]
    fn decompose_rejects_empty_b() {
        let spec = dumbbell_spec();
        let side = vec![true; 10];
        decompose_at_cut(&spec, &side, 0);
    }

    #[test]
    #[should_panic(expected = "A ∩ V(G) empty")]
    fn decompose_rejects_empty_a() {
        let spec = dumbbell_spec();
        let side = vec![false; 10];
        decompose_at_cut(&spec, &side, 0);
    }

    #[test]
    fn cut_membership_on_dumbbell() {
        // Saturated dumbbell: the bridge splits min cuts; clique nodes on
        // each side are firmly on that side, bridge interior nodes can go
        // either way.
        let spec = dumbbell_spec();
        let m = cut_membership(&spec);
        assert_eq!(m.len(), 10);
        // The virtual-source cut ({s*}, rest) has value in(s) = 1 and is
        // itself minimum, so no graph node is AlwaysSource; the left
        // clique and bridge sit strictly between the minimal cut ({s*})
        // and the maximal one (everything before the bridge): Either.
        for v in 0..6 {
            assert_eq!(m[v], CutMembership::Either, "node {v}");
        }
        // The right clique can never be on the source side: the bridge is
        // the last unit of every min cut reaching that far.
        for v in 6..10 {
            assert_eq!(m[v], CutMembership::AlwaysSink, "node {v}");
        }
    }

    #[test]
    fn cut_membership_unsaturated_is_all_sink() {
        // Unique min cut at {s*}: every graph node is on the sink side of
        // it, and it is the unique cut.
        let spec = TrafficSpecBuilder::new(generators::complete(6))
            .source(0, 1)
            .sink(5, 5)
            .build()
            .unwrap();
        let m = cut_membership(&spec);
        assert!(m.iter().all(|&x| x == CutMembership::AlwaysSink));
    }

    #[test]
    fn layered_network_interior_cut_and_split() {
        // Diamond layers: width-2 min cut strictly inside when sources
        // saturate it.
        let g = generators::layered_diamond(3, 2);
        let n = g.node_count();
        let spec = TrafficSpecBuilder::new(g)
            .source(0, 2)
            .sink((n - 1) as u32, 2)
            .build()
            .unwrap();
        let class = classify(&spec);
        assert!(class.feasibility.is_feasible());
        if let Some(side) = find_interior_min_cut(&spec) {
            let dec = decompose_at_cut(&spec, &side, 3);
            assert!(classify(&dec.b_spec).feasibility.is_feasible());
            assert!(classify(&dec.a_spec).feasibility.is_feasible());
            assert_eq!(dec.crossing_edges as u64, 2);
        } else {
            panic!("saturated diamond must have an interior min cut");
        }
    }
}
