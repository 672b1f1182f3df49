//! Interference-constrained scheduling (Conjecture 5).
//!
//! The paper's core model activates all links simultaneously ("we do not
//! consider interference constraints") and its conclusion asks what
//! happens under wireless interference, where `E_t` must be a set of
//! pairwise-compatible links and an *oracle* picks the optimal such set.
//!
//! We implement the standard **node-exclusive spectrum sharing** model of
//! Wu & Srikant \[2\]: a feasible `E_t` is a *matching* (no two active links
//! share an endpoint). The oracle of Conjecture 5 is approximated by the
//! classic greedy maximum-weight matching (weight = queue differential),
//! which is a 1/2-approximation of the max-weight matching that
//! Tassiulas–Ephremides \[3\] prove throughput-optimal.

use mgraph::EdgeId;
use simqueue::{NetView, RoutingProtocol, Transmission};

use crate::lgg::{downhill_keys, KeyBuffers, PlanKey};

/// LGG under node-exclusive interference: among the links LGG would use
/// (strictly downhill in declared height), pick a greedy maximum-weight
/// matching by descending height differential, and transmit one packet on
/// each matched link.
#[derive(Debug, Default)]
pub struct MatchingLgg {
    /// Candidate keys from [`downhill_keys`], reused each step.
    keys: KeyBuffers,
    node_used: Vec<bool>,
}

impl MatchingLgg {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RoutingProtocol for MatchingLgg {
    fn name(&self) -> &'static str {
        "matching-lgg"
    }

    fn plan(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>) {
        if self.node_used.len() < view.graph.node_count() {
            self.node_used.resize(view.graph.node_count(), false);
        }
        // A weight is below its sender's height, so one pass over the
        // senders decides whether every weight fits the narrow key.
        if view
            .active_nodes
            .iter()
            .all(|&u| view.declared_of(u) <= u64::HIGH_MAX)
        {
            self.plan_with::<u64>(view, out);
        } else {
            self.plan_with::<u128>(view, out);
        }
    }
}

impl MatchingLgg {
    /// The greedy matching over keys `(HIGH_MAX − weight) << 32 | link`:
    /// ascending key order is descending weight, ties by link id.
    fn plan_with<K: PlanKey>(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>) {
        let g = view.graph;
        let keys = K::buffer(&mut self.keys);

        // Collect every directed downhill candidate once, from its higher
        // endpoint. Only a node holding a packet can send, so the links of
        // the active set carry every candidate.
        let mut n = 0;
        for &u in view.active_nodes {
            if view.queue_of(u) == 0 {
                continue;
            }
            let h_u = view.declared_of(u);
            // A kept link has `h_v < h_u`; the wrapped weight of a
            // dropped one is overwritten.
            n = downhill_keys(view, u, h_u, keys, n, |h_v, e| {
                K::pack(K::HIGH_MAX.wrapping_sub(h_u.wrapping_sub(h_v)), e.raw())
            });
        }
        let keys = &mut keys[..n];
        keys.sort_unstable();
        let planned = out.len();
        for &k in keys.iter() {
            // The sender is the endpoint that declares strictly higher.
            let edge = EdgeId::new(k.low());
            let (a, b) = g.endpoints(edge);
            let (from, to) = if view.declared_of(a) > view.declared_of(b) {
                (a, b)
            } else {
                (b, a)
            };
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

#[cfg(test)]
mod tests {
    use super::*;
    use mgraph::{generators, NodeId};
    use netmodel::TrafficSpecBuilder;
    use simqueue::{HistoryMode, SimulationBuilder};

    fn is_matching(g: &mgraph::MultiGraph, txs: &[Transmission]) -> bool {
        let mut used = vec![false; g.node_count()];
        for tx in txs {
            let (a, b) = g.endpoints(tx.edge);
            if used[a.index()] || used[b.index()] {
                return false;
            }
            used[a.index()] = true;
            used[b.index()] = true;
        }
        true
    }

    #[test]
    fn plans_are_matchings() {
        let spec = TrafficSpecBuilder::new(generators::grid2d(3, 3))
            .source(0, 1)
            .sink(8, 1)
            .build()
            .unwrap();
        let g = spec.graph.clone();
        let declared: Vec<u64> = (0..9).map(|i| (9 - i) as u64).collect();
        let queues = declared.clone();
        let active = vec![true; g.edge_count()];
        let nodes: Vec<mgraph::NodeId> = g.nodes().collect();
        let view = NetView {
            graph: &g,
            spec: &spec,
            declared: &declared,
            true_queues: &queues,
            active_edges: &active,
            active_nodes: &nodes,
            t: 0,
        };
        let mut out = Vec::new();
        MatchingLgg::new().plan(&view, &mut out);
        assert!(!out.is_empty());
        assert!(is_matching(&g, &out));
    }

    #[test]
    fn heaviest_differential_wins_conflicts() {
        // Path 0-1-2: heights 10, 5, 0. Candidates: 0->1 (w=5), 1->2 (w=5).
        // Tie broken by edge id: edge 0 (0->1) is matched; edge 1 conflicts
        // at node 1 and is skipped.
        let spec = TrafficSpecBuilder::new(generators::path(3))
            .source(0, 1)
            .sink(2, 1)
            .build()
            .unwrap();
        let g = spec.graph.clone();
        let declared = vec![10, 5, 0];
        let queues = vec![10, 5, 0];
        let active = vec![true; 2];
        let nodes: Vec<mgraph::NodeId> = g.nodes().collect();
        let view = NetView {
            graph: &g,
            spec: &spec,
            declared: &declared,
            true_queues: &queues,
            active_edges: &active,
            active_nodes: &nodes,
            t: 0,
        };
        let mut out = Vec::new();
        MatchingLgg::new().plan(&view, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].edge, EdgeId::new(0));
        assert_eq!(out[0].from, NodeId::new(0));
    }

    #[test]
    fn empty_senders_are_skipped() {
        let spec = TrafficSpecBuilder::new(generators::path(2))
            .source(0, 1)
            .sink(1, 1)
            .build()
            .unwrap();
        let g = spec.graph.clone();
        // Declared high but truly empty (legal only transiently, but the
        // scheduler must not plan it).
        let declared = vec![5, 0];
        let queues = vec![0, 0];
        let active = vec![true; 1];
        let nodes: Vec<mgraph::NodeId> = g.nodes().collect();
        let view = NetView {
            graph: &g,
            spec: &spec,
            declared: &declared,
            true_queues: &queues,
            active_edges: &active,
            active_nodes: &nodes,
            t: 0,
        };
        let mut out = Vec::new();
        MatchingLgg::new().plan(&view, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn stable_on_underloaded_path_with_interference() {
        // Matching halves the usable capacity: rate 1/2 on a path is still
        // schedulable (alternate edges odd/even steps).
        let spec = TrafficSpecBuilder::new(generators::path(4))
            .source(0, 1)
            .sink(3, 2)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(MatchingLgg::new()))
            .injection(Box::new(simqueue::injection::ScaledInjection::new(1, 2)))
            .history(HistoryMode::Sampled(8))
            .build();
        sim.run(4000);
        let report = simqueue::assess_stability(&sim.metrics().history);
        assert_eq!(report.verdict, simqueue::StabilityVerdict::Stable);
        assert!(sim.metrics().delivered > 0);
    }
}
