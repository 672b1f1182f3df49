//! The RNG-driven fault models before their integer-threshold kernels,
//! kept verbatim as test references: [`MarkovTopology::update`],
//! [`GilbertElliottLoss::apply`], [`IidLoss::apply`],
//! [`PerLinkLoss::apply`], [`BernoulliInjection::amount`] and
//! [`OnOffInjection::amount`] must make the same decisions from the same
//! draws. After every call the masks and amounts, the saved state and the
//! RNG state must all be equal.

use mgraph::{EdgeId, MultiGraph, MultiGraphBuilder, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::wire;
use crate::dynamic::{MarkovTopology, TopologyProcess};
use crate::injection::{BernoulliInjection, InjectionProcess, OnOffInjection};
use crate::loss::{GilbertElliottLoss, IidLoss, LossModel, PerLinkLoss};
use crate::protocol::Transmission;

/// `MarkovTopology` with the branching update of its first version.
struct ReferenceMarkov {
    p_fail: f64,
    p_repair: f64,
    protected: Vec<bool>,
    down: Vec<bool>,
}

impl ReferenceMarkov {
    fn update(&mut self, graph: &MultiGraph, rng: &mut StdRng, active: &mut [bool]) {
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
}

/// `GilbertElliottLoss` with the branching channel pass of its first
/// version.
struct ReferenceGilbertElliott {
    p_loss_good: f64,
    p_loss_bad: f64,
    p_g2b: f64,
    p_b2g: f64,
    bad: Vec<bool>,
}

impl ReferenceGilbertElliott {
    fn apply(
        &mut self,
        graph: &MultiGraph,
        transmissions: &[Transmission],
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
}

fn reference_iid(p: f64, transmissions: &[Transmission], rng: &mut StdRng, lost: &mut [bool]) {
    for i in 0..transmissions.len() {
        if rng.random_bool(p) {
            lost[i] = true;
        }
    }
}

fn reference_per_link(
    ps: &[f64],
    transmissions: &[Transmission],
    rng: &mut StdRng,
    lost: &mut [bool],
) {
    for (i, tx) in transmissions.iter().enumerate() {
        let p = ps.get(tx.edge.index()).copied().unwrap_or(0.0);
        if p > 0.0 && rng.random_bool(p) {
            lost[i] = true;
        }
    }
}

fn reference_bernoulli(p: f64, cap: u64, rng: &mut StdRng) -> u64 {
    (0..cap).filter(|_| rng.random_bool(p)).count() as u64
}

/// `OnOffInjection` with the branching update of its first version.
struct ReferenceOnOff {
    p_off: f64,
    p_on: f64,
    state: Vec<bool>,
}

impl ReferenceOnOff {
    fn amount(&mut self, v: NodeId, cap: u64, rng: &mut StdRng) -> u64 {
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

/// A multigraph on 1–10 nodes with up to 30 links, parallel ones included.
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
        let mut reference = ReferenceMarkov { p_fail, p_repair, protected, down: Vec::new() };
        let (mut ra, mut rb) = (StdRng::seed_from_u64(!seed), StdRng::seed_from_u64(!seed));
        for t in 0..CALLS {
            let mut got = random_mask(g.edge_count(), &mut rng);
            let mut want = got.clone();
            kernel.update(&g, t, &mut ra, &mut got);
            reference.update(&g, &mut rb, &mut want);
            prop_assert_eq!(&got, &want, "mask at call {}", t);
            let want_state = saved(|out| wire::put_bool_slice(out, &reference.down));
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
        let mut reference =
            ReferenceGilbertElliott { p_loss_good, p_loss_bad, p_g2b, p_b2g, bad: Vec::new() };
        let (mut ra, mut rb) = (StdRng::seed_from_u64(!seed), StdRng::seed_from_u64(!seed));
        for t in 0..CALLS {
            let plan = random_plan(&g, &mut rng);
            let (mut got, mut want) = (vec![false; plan.len()], vec![false; plan.len()]);
            kernel.apply(&g, &plan, &[], t, &mut ra, &mut got);
            reference.apply(&g, &plan, &mut rb, &mut want);
            prop_assert_eq!(&got, &want, "mask at call {}", t);
            let want_state = saved(|out| wire::put_bool_slice(out, &reference.bad));
            prop_assert_eq!(saved(|out| kernel.save_state(out)), want_state);
            prop_assert_eq!(ra.state(), rb.state(), "rng at call {}", t);
        }
    }

    #[test]
    fn iid_and_per_link_apply_equal_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let mut iid = IidLoss::new(random_p(&mut rng));
        // Some links past the end of `p` (loss-free), some listed.
        let ps_len = rng.random_range(0..=g.edge_count() + 2);
        let mut per_link = PerLinkLoss { p: (0..ps_len).map(|_| random_p(&mut rng)).collect() };
        let (mut ra, mut rb) = (StdRng::seed_from_u64(!seed), StdRng::seed_from_u64(!seed));
        for t in 0..CALLS {
            let plan = random_plan(&g, &mut rng);
            let (mut got, mut want) = (vec![false; plan.len()], vec![false; plan.len()]);
            iid.apply(&g, &plan, &[], t, &mut ra, &mut got);
            reference_iid(iid.p, &plan, &mut rb, &mut want);
            prop_assert_eq!(&got, &want, "iid mask at call {}", t);
            prop_assert_eq!(ra.state(), rb.state(), "iid rng at call {}", t);
            let (mut got, mut want) = (vec![false; plan.len()], vec![false; plan.len()]);
            per_link.apply(&g, &plan, &[], t, &mut ra, &mut got);
            reference_per_link(&per_link.p, &plan, &mut rb, &mut want);
            prop_assert_eq!(&got, &want, "per-link mask at call {}", t);
            prop_assert_eq!(ra.state(), rb.state(), "per-link rng at call {}", t);
        }
    }

    #[test]
    fn injection_amounts_equal_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1..=10u32);
        let mut bernoulli = BernoulliInjection::new(random_p(&mut rng));
        let (p_off, p_on) = (random_p(&mut rng), random_p(&mut rng));
        let mut on_off = OnOffInjection::new(p_off, p_on);
        let mut reference = ReferenceOnOff { p_off, p_on, state: Vec::new() };
        let (mut ra, mut rb) = (StdRng::seed_from_u64(!seed), StdRng::seed_from_u64(!seed));
        for t in 0..CALLS {
            for _ in 0..n {
                let v = NodeId::new(rng.random_range(0..n));
                let cap = rng.random_range(0..=20u64);
                let got = bernoulli.amount(v, t, cap, &mut ra);
                prop_assert_eq!(got, reference_bernoulli(bernoulli.p, cap, &mut rb));
                prop_assert_eq!(ra.state(), rb.state(), "bernoulli rng at call {}", t);
                let got = on_off.amount(v, t, cap, &mut ra);
                prop_assert_eq!(got, reference.amount(v, cap, &mut rb), "on-off at call {}", t);
                let want_state = saved(|out| wire::put_bool_slice(out, &reference.state));
                prop_assert_eq!(saved(|out| on_off.save_state(out)), want_state);
                prop_assert_eq!(ra.state(), rb.state(), "on-off rng at call {}", t);
            }
        }
    }
}
