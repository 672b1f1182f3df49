//! The planners before the shared key kernel, kept verbatim as test
//! references: [`Lgg::plan`] and [`MatchingLgg::plan`] must emit the same
//! plan, entry for entry, on every view — including the tie-break state
//! (`rr` offsets, RNG position) they carry from one call to the next.

use mgraph::{EdgeId, MultiGraphBuilder, NodeId};
use netmodel::TrafficSpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use simqueue::{NetView, RoutingProtocol, Transmission};

use super::{Lgg, TieBreak};
use crate::interference::MatchingLgg;

/// `Lgg` with the candidate scan and `sort_unstable` of its first
/// version.
struct ReferenceLgg {
    tie_break: TieBreak,
    threshold: u64,
    rng: StdRng,
    scratch: Vec<(u64, u32)>,
    rr: Vec<u32>,
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
struct ReferenceMatchingLgg {
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

/// A random multigraph on 1–10 nodes with up to 30 links, parallel ones
/// likely.
fn random_spec(rng: &mut StdRng) -> TrafficSpec {
    let n = rng.random_range(1..=10usize);
    let mut b = MultiGraphBuilder::with_nodes(n);
    if n > 1 {
        for _ in 0..rng.random_range(0..=30) {
            let u = rng.random_range(0..n as u32);
            let v = rng.random_range(0..n as u32);
            if u != v {
                b.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
            }
        }
    }
    let g = b.build();
    TrafficSpec::new(g, vec![0; n], vec![0; n], 0)
}

/// A height drawn from a handful just above 0 or a handful around 2³²,
/// so both key widths and the width boundary are planned from.
fn random_height(rng: &mut StdRng) -> u64 {
    if rng.random_range(0..3) == 0 {
        (1u64 << 32) - 4 + rng.random_range(0..8)
    } else {
        rng.random_range(0..8)
    }
}

/// One random view of `spec`: true queues (some empty), declarations
/// (about half truthful through the `u64::MAX` overlay), a link mask and
/// an active set that holds every nonempty node and some empty ones.
struct RandomView {
    declared: Vec<u64>,
    queues: Vec<u64>,
    active_edges: Vec<bool>,
    active_nodes: Vec<NodeId>,
}

impl RandomView {
    fn new(spec: &TrafficSpec, rng: &mut StdRng) -> Self {
        let n = spec.graph.node_count();
        let queues: Vec<u64> = (0..n)
            .map(|_| {
                if rng.random_range(0..4) == 0 {
                    0
                } else {
                    random_height(rng)
                }
            })
            .collect();
        let declared = (0..n)
            .map(|_| {
                if rng.random_range(0..2) == 0 {
                    u64::MAX
                } else {
                    random_height(rng)
                }
            })
            .collect();
        let active_edges = (0..spec.graph.edge_count())
            .map(|_| rng.random_range(0..5) != 0)
            .collect();
        let active_nodes = spec
            .graph
            .nodes()
            .filter(|v| queues[v.index()] > 0 || rng.random_range(0..2) == 0)
            .collect();
        RandomView {
            declared,
            queues,
            active_edges,
            active_nodes,
        }
    }

    fn view<'a>(&'a self, spec: &'a TrafficSpec, t: u64) -> NetView<'a> {
        NetView {
            graph: &spec.graph,
            spec,
            declared: &self.declared,
            true_queues: &self.queues,
            active_edges: &self.active_edges,
            active_nodes: &self.active_nodes,
            t,
        }
    }
}

/// Plans `calls` consecutive random views of `spec` with both protocols
/// and fails at the first plan that differs.
fn same_plans(
    spec: &TrafficSpec,
    rng: &mut StdRng,
    calls: u64,
    kernel: &mut dyn RoutingProtocol,
    reference: &mut dyn RoutingProtocol,
) -> Result<(), TestCaseError> {
    for t in 0..calls {
        let v = RandomView::new(spec, rng);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        kernel.plan(&v.view(spec, t), &mut got);
        reference.plan(&v.view(spec, t), &mut want);
        prop_assert_eq!(got, want, "{} at call {}", reference.name(), t);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lgg_plans_equal_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = random_spec(&mut rng);
        let threshold = [0, 1, 3][rng.random_range(0..3)];
        for tie_break in TieBreak::ALL {
            let mut kernel = Lgg::with_tie_break(tie_break, seed);
            kernel.threshold = threshold;
            let mut reference = ReferenceLgg {
                tie_break,
                threshold,
                rng: StdRng::seed_from_u64(seed),
                scratch: Vec::new(),
                rr: Vec::new(),
            };
            same_plans(&spec, &mut rng, 4, &mut kernel, &mut reference)?;
        }
    }

    #[test]
    fn matching_lgg_plans_equal_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = random_spec(&mut rng);
        let mut reference = ReferenceMatchingLgg::default();
        same_plans(&spec, &mut rng, 4, &mut MatchingLgg::new(), &mut reference)?;
    }
}
