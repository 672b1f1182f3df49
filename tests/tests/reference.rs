//! The production kernels against their reference components
//! (`tests/src/reference.rs`) on the inputs whole compositions never
//! reach: views with heights around 2³² and the `u64::MAX` truthful
//! overlay, thresholds θ > 0 and the `LinkOrder` tie-break, probabilities
//! at 0, 1 and the smallest subnormal, `PerLinkLoss` and
//! `OnOffInjection`, protected links, and the saved state and RNG state
//! after every call. `oracle.rs` runs the same references through whole
//! compositions.
//!
//! The classifier and `capacity_scaling` against their bisections, on
//! multigraphs with bundles of parallel links, generalized nodes, and
//! radii below 1, on and beside the first grid point `1 + 1/4096`, and
//! at and around both caps.

use integration_tests::reference::{
    self, ReferenceBernoulli, ReferenceGilbertElliott, ReferenceIid, ReferenceLgg, ReferenceMarkov,
    ReferenceMatchingLgg, ReferenceOnOff, ReferencePerLink,
};
use lgg_core::interference::MatchingLgg;
use lgg_core::{Lgg, TieBreak};
use mgraph::{EdgeId, MultiGraph, MultiGraphBuilder, NodeId};
use netmodel::classify::EPS_DENOMINATOR;
use netmodel::{capacity_scaling, classify, Feasibility, TrafficSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simqueue::dynamic::{MarkovTopology, TopologyProcess};
use simqueue::injection::{BernoulliInjection, InjectionProcess, OnOffInjection};
use simqueue::loss::{GilbertElliottLoss, IidLoss, LossModel, PerLinkLoss};
use simqueue::{NetView, RoutingProtocol, Transmission};

/// A multigraph on 1–10 nodes with up to 30 links, parallel ones likely.
fn random_graph(rng: &mut StdRng) -> MultiGraph {
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
    b.build()
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

fn random_spec(rng: &mut StdRng) -> TrafficSpec {
    let g = random_graph(rng);
    let n = g.node_count();
    TrafficSpec::new(g, vec![0; n], vec![0; n], 0)
}

/// `2⁻⁵³`, the spacing of the 53-bit uniforms `random_bool` compares.
const ULP: f64 = 1.0 / (1u64 << 53) as f64;

/// A probability from the edges of the threshold identity: 0, 1, ½,
/// `1 − 2⁻⁵³`, the smallest positive subnormal, a `p` with `p·2⁵³` an
/// exact integer, one float either side of such a `p`, or a uniform draw.
fn random_p(rng: &mut StdRng) -> f64 {
    let exact = |rng: &mut StdRng| rng.random_range(0..=1u64 << 53) as f64 * ULP;
    match rng.random_range(0..9u32) {
        0 => 0.0,
        1 => 1.0,
        2 => 0.5,
        3 => 1.0 - ULP,
        4 => f64::from_bits(1),
        5 => exact(rng),
        6 => rng.random_range(0..=16u32) as f64 / 16.0,
        7 => {
            let p = exact(rng).to_bits();
            let q = if rng.random_range(0..2u32) == 0 {
                p.saturating_sub(1)
            } else {
                p + 1
            };
            f64::from_bits(q).min(1.0)
        }
        _ => rng.random::<f64>(),
    }
}

/// A plan of up to twice as many entries as links, on random links and
/// from either endpoint (loss models look at the link alone).
fn random_plan(g: &MultiGraph, rng: &mut StdRng) -> Vec<Transmission> {
    let m = g.edge_count();
    if m == 0 {
        return Vec::new();
    }
    (0..rng.random_range(0..=2 * m))
        .map(|_| {
            let edge = EdgeId::new(rng.random_range(0..m as u32));
            let (a, b) = g.endpoints(edge);
            let from = if rng.random_range(0..2u32) == 0 { a } else { b };
            Transmission { edge, from }
        })
        .collect()
}

fn random_mask(len: usize, rng: &mut StdRng) -> Vec<bool> {
    (0..len).map(|_| rng.random_range(0..2u32) == 0).collect()
}

fn saved(save: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    save(&mut out);
    out
}

/// Calls per case: enough for chains to visit both states.
const CALLS: u64 = 12;

/// Seeded from `!seed`: the streams the two models draw from.
fn twin_rngs(seed: u64) -> (StdRng, StdRng) {
    (StdRng::seed_from_u64(!seed), StdRng::seed_from_u64(!seed))
}

/// Applies both loss models to `CALLS` random plans on `g` and requires
/// equal masks, saved state and RNG state after every call.
fn same_losses(
    g: &MultiGraph,
    rng: &mut StdRng,
    seed: u64,
    kernel: &mut dyn LossModel,
    reference: &mut dyn LossModel,
) -> Result<(), TestCaseError> {
    let (mut ra, mut rb) = twin_rngs(seed);
    for t in 0..CALLS {
        let plan = random_plan(g, rng);
        let (mut got, mut want) = (vec![false; plan.len()], vec![false; plan.len()]);
        kernel.apply(g, &plan, &[], t, &mut ra, &mut got);
        reference.apply(g, &plan, &[], t, &mut rb, &mut want);
        prop_assert_eq!(&got, &want, "{} mask at call {}", reference.name(), t);
        let want_state = saved(|out| reference.save_state(out));
        prop_assert_eq!(saved(|out| kernel.save_state(out)), want_state);
        prop_assert_eq!(
            ra.state(),
            rb.state(),
            "{} rng at call {}",
            reference.name(),
            t
        );
    }
    Ok(())
}

/// Asks both processes for `n` random amounts per call and requires equal
/// amounts, saved state and RNG state after every one.
fn same_amounts(
    n: u32,
    rng: &mut StdRng,
    seed: u64,
    kernel: &mut dyn InjectionProcess,
    reference: &mut dyn InjectionProcess,
) -> Result<(), TestCaseError> {
    let (mut ra, mut rb) = twin_rngs(seed);
    for t in 0..CALLS {
        for _ in 0..n {
            let v = NodeId::new(rng.random_range(0..n));
            let cap = rng.random_range(0..=20u64);
            let got = kernel.amount(v, t, cap, &mut ra);
            let want = reference.amount(v, t, cap, &mut rb);
            prop_assert_eq!(got, want, "{} at call {}", reference.name(), t);
            let want_state = saved(|out| reference.save_state(out));
            prop_assert_eq!(saved(|out| kernel.save_state(out)), want_state);
            prop_assert_eq!(
                ra.state(),
                rb.state(),
                "{} rng at call {}",
                reference.name(),
                t
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every tie-break at θ = 0, and smallest-first at θ ∈ {1, 3}.
    #[test]
    fn lgg_plans_equal_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = random_spec(&mut rng);
        for tie_break in TieBreak::ALL {
            let mut kernel = Lgg::with_tie_break(tie_break, seed);
            let mut reference = ReferenceLgg::new(tie_break, 0, seed);
            same_plans(&spec, &mut rng, 4, &mut kernel, &mut reference)?;
        }
        for threshold in [1, 3] {
            let mut kernel = Lgg::with_threshold(threshold);
            let mut reference = ReferenceLgg::new(TieBreak::SmallestFirst, threshold, seed);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn markov_update_equals_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let (p_fail, p_repair) = (random_p(&mut rng), random_p(&mut rng));
        let protected_len = rng.random_range(0..=g.edge_count() + 2);
        let protected = if rng.random_range(0..2u32) == 0 {
            Vec::new()
        } else {
            random_mask(protected_len, &mut rng)
        };
        let mut kernel = MarkovTopology::new(p_fail, p_repair, protected.clone());
        let mut reference = ReferenceMarkov::new(p_fail, p_repair, protected);
        let (mut ra, mut rb) = twin_rngs(seed);
        for t in 0..CALLS {
            let mut got = random_mask(g.edge_count(), &mut rng);
            let mut want = got.clone();
            kernel.update(&g, t, &mut ra, &mut got);
            reference.update(&g, t, &mut rb, &mut want);
            prop_assert_eq!(&got, &want, "mask at call {}", t);
            let want_state = saved(|out| reference.save_state(out));
            prop_assert_eq!(saved(|out| kernel.save_state(out)), want_state);
            prop_assert_eq!(ra.state(), rb.state(), "rng at call {}", t);
        }
    }

    #[test]
    fn gilbert_elliott_apply_equals_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let [p_loss_good, p_loss_bad, p_g2b, p_b2g] = [(); 4].map(|_| random_p(&mut rng));
        let mut kernel = GilbertElliottLoss::new(p_loss_good, p_loss_bad, p_g2b, p_b2g);
        let mut reference = ReferenceGilbertElliott::new(p_loss_good, p_loss_bad, p_g2b, p_b2g);
        same_losses(&g, &mut rng, seed, &mut kernel, &mut reference)?;
    }

    #[test]
    fn iid_and_per_link_apply_equal_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let p = random_p(&mut rng);
        same_losses(&g, &mut rng, seed, &mut IidLoss::new(p), &mut ReferenceIid { p })?;
        // Some links past the end of `p` (loss-free), some listed.
        let ps_len = rng.random_range(0..=g.edge_count() + 2);
        let p: Vec<f64> = (0..ps_len).map(|_| random_p(&mut rng)).collect();
        let mut kernel = PerLinkLoss { p: p.clone() };
        same_losses(&g, &mut rng, seed, &mut kernel, &mut ReferencePerLink { p })?;
    }

    #[test]
    fn injection_amounts_equal_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1..=10u32);
        let p = random_p(&mut rng);
        let mut kernel = BernoulliInjection::new(p);
        same_amounts(n, &mut rng, seed, &mut kernel, &mut ReferenceBernoulli { p })?;
        let (p_off, p_on) = (random_p(&mut rng), random_p(&mut rng));
        let mut kernel = OnOffInjection::new(p_off, p_on);
        same_amounts(n, &mut rng, seed, &mut kernel, &mut ReferenceOnOff::new(p_off, p_on))?;
    }
}

/// A multigraph on 1–8 nodes whose links come in bundles of up to 1, 2,
/// 4 or 40 parallel ones, so a cut holds anything from one link to
/// hundreds.
fn bundled_graph(rng: &mut StdRng) -> MultiGraph {
    let n = rng.random_range(1..=8usize);
    let bundle = [1, 2, 4, 40][rng.random_range(0..4usize)];
    let mut b = MultiGraphBuilder::with_nodes(n);
    if n > 1 {
        for _ in 0..rng.random_range(0..=12) {
            let u = rng.random_range(0..n as u32);
            let v = rng.random_range(0..n as u32);
            if u != v {
                for _ in 0..rng.random_range(1..=bundle) {
                    b.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
                }
            }
        }
    }
    b.build()
}

/// Rates on a bundled graph, one of three kinds:
///
/// * every node a relay, source, sink or generalized node with rates
///   1–8, so radii fall below 1 as often as above it;
/// * one node `v` with `in(v) = 4096·a` and `e(∂{v}) + out(v) =
///   4096·a + t·a + δ` (`t` ≤ 2, `δ` ∈ {−1, 0, 1}), so λ* sits on or just
///   beside the grid points `1`, `1 + 1/4096`, `1 + 2/4096`;
/// * one node `v` with `in(v) = a` and `e(∂{v}) + out(v) = c·a + δ` for
///   `c` ∈ {16, 17, 31, 32, 33}, so λ* sits at or around either cap.
///
/// In the last two every other node extracts 8192, more than `v`'s links
/// could ever add, so `{v}` is the tightest cut.
fn rated_spec(rng: &mut StdRng) -> TrafficSpec {
    let g = bundled_graph(rng);
    let n = g.node_count();
    let (mut in_rate, mut out_rate) = (vec![0; n], vec![0; n]);
    let kind = rng.random_range(0..3u32);
    if kind == 0 {
        for v in 0..n {
            match rng.random_range(0..4u32) {
                0 => {}
                1 => in_rate[v] = rng.random_range(1..=8),
                2 => out_rate[v] = rng.random_range(1..=8),
                _ => {
                    in_rate[v] = rng.random_range(1..=8);
                    out_rate[v] = rng.random_range(1..=8);
                }
            }
        }
    } else {
        let v = rng.random_range(0..n);
        let a = rng.random_range(1..=3u64);
        let delta = rng.random_range(0..3u64);
        let (inj, ratio_times_inj) = if kind == 1 {
            let t = rng.random_range(0..=2u64);
            let q = EPS_DENOMINATOR;
            (q * a, q * a + t * a + delta - 1)
        } else {
            let c = [16, 17, 31, 32, 33][rng.random_range(0..5usize)];
            (a, c * a + delta - 1)
        };
        let degree = g.degree(NodeId::new(v as u32)) as u64;
        out_rate.fill(8192);
        in_rate[v] = inj;
        out_rate[v] = ratio_times_inj.saturating_sub(degree);
    }
    TrafficSpec::new(g, in_rate, out_rate, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn classification_equals_the_bisection(seed in any::<u64>()) {
        let spec = rated_spec(&mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(classify(&spec).feasibility, reference::feasibility(&spec));
        prop_assert_eq!(capacity_scaling(&spec), reference::capacity_scaling(&spec));
    }
}

/// The rated specs reach every edge the bisections have: infeasible,
/// saturated, the smallest margin, the ε = 16 cap, a radius below 1 and
/// the λ = 32 cap.
#[test]
fn rated_specs_reach_every_edge_of_the_grid() {
    let q = EPS_DENOMINATOR;
    let mut seen = [false; 6];
    for seed in 0..512 {
        let spec = rated_spec(&mut StdRng::seed_from_u64(seed));
        match reference::feasibility(&spec) {
            Feasibility::Infeasible { .. } => seen[0] = true,
            Feasibility::Saturated => seen[1] = true,
            Feasibility::Unsaturated { margin_num, .. } => {
                seen[2] |= margin_num == 1;
                seen[3] |= margin_num == 16 * q;
            }
        }
        let (lambda, _) = reference::capacity_scaling(&spec);
        seen[4] |= lambda < q;
        seen[5] |= lambda == 32 * q;
    }
    assert_eq!(seen, [true; 6]);
}
