//! Property tests for the network-model layer: classification coherence,
//! ε-margin monotonicity, and decomposition bookkeeping on random graphs.

use maxflow::Algorithm;
use mgraph::generators;
use netmodel::{
    classify, decompose_at_cut, find_interior_min_cut, CutCase, ExtendedNetwork, Feasibility,
    TrafficSpec, TrafficSpecBuilder,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_spec(seed: u64, n: usize, extra: usize, in_rate: u64, out_rate: u64) -> TrafficSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::connected_random(n, extra, &mut rng);
    TrafficSpecBuilder::new(g)
        .source(0, in_rate)
        .sink((n - 1) as u32, out_rate)
        .build()
        .unwrap()
}

/// Is the `ε = eps_num / eps_den` inflation of `spec` feasible?
fn is_feasible_at(spec: &TrafficSpec, eps_num: u64, eps_den: u64) -> bool {
    let mut ext = ExtendedNetwork::scaled(spec, (eps_den + eps_num) as i64, eps_den as i64);
    ext.solve(Algorithm::Dinic);
    ext.sources_saturated()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The classifier's verdict is coherent with the raw flow values.
    #[test]
    fn classification_coherent(
        seed in 0u64..1000,
        n in 4usize..30,
        extra in 0usize..30,
        in_rate in 1u64..5,
        out_rate in 1u64..6,
    ) {
        let spec = random_spec(seed, n, extra, in_rate, out_rate);
        let class = classify(&spec);
        prop_assert_eq!(class.arrival_rate, in_rate);
        // f* never below the feasibility flow; never above Σ out.
        prop_assert!(class.f_star <= spec.extraction_rate());
        match &class.feasibility {
            Feasibility::Infeasible { max_flow, arrival_rate } => {
                prop_assert!(max_flow < arrival_rate);
                prop_assert!(class.f_star < class.arrival_rate);
            }
            Feasibility::Saturated => {
                prop_assert!(is_feasible_at(&spec, 0, 1));
                prop_assert!(!is_feasible_at(&spec, 1, netmodel::classify::EPS_DENOMINATOR));
            }
            Feasibility::Unsaturated { margin_num, margin_den } => {
                prop_assert!(*margin_num >= 1);
                // Certified margin is actually feasible...
                prop_assert!(is_feasible_at(&spec, *margin_num, *margin_den));
                // ...and maximal within the dyadic grid (unless capped).
                if *margin_num < 16 * *margin_den {
                    prop_assert!(!is_feasible_at(&spec, margin_num + 1, *margin_den));
                }
            }
        }
    }

    /// ε-feasibility is monotone: feasible at ε ⇒ feasible at every ε' < ε.
    #[test]
    fn eps_feasibility_monotone(
        seed in 0u64..500,
        n in 4usize..20,
        extra in 0usize..20,
        num in 0u64..8,
    ) {
        let spec = random_spec(seed, n, extra, 1, 3);
        let den = 4;
        if is_feasible_at(&spec, num + 1, den) {
            prop_assert!(is_feasible_at(&spec, num, den));
        }
    }

    /// Feasibility flow saturates sources exactly when classify says
    /// feasible, for all three algorithms.
    #[test]
    fn feasibility_agrees_across_algorithms(
        seed in 0u64..500,
        n in 4usize..20,
        extra in 0usize..20,
        in_rate in 1u64..5,
    ) {
        let spec = random_spec(seed, n, extra, in_rate, in_rate + 1);
        let expected = classify(&spec).feasibility.is_feasible();
        for algo in Algorithm::ALL {
            let mut ext = ExtendedNetwork::feasibility(&spec);
            ext.solve(algo);
            prop_assert_eq!(ext.sources_saturated(), expected, "algo {}", algo);
        }
    }

    /// When an interior min cut exists, decomposition bookkeeping is exact:
    /// partition covers V, added rates equal crossing links, and both parts
    /// remain feasible.
    #[test]
    fn decomposition_bookkeeping(
        seed in 0u64..400,
        n in 6usize..24,
        extra in 0usize..12,
        r_b in 0u64..10,
    ) {
        let spec = random_spec(seed, n, extra, 1, 2);
        if !classify(&spec).feasibility.is_feasible() {
            return Ok(());
        }
        let Some(side) = find_interior_min_cut(&spec) else { return Ok(()) };
        let dec = decompose_at_cut(&spec, &side, r_b);
        prop_assert_eq!(dec.a_nodes.len() + dec.b_nodes.len(), spec.node_count());
        prop_assert_eq!(
            dec.crossing_edges,
            mgraph::ops::cut_size(&spec.graph, &side)
        );
        let b_in_extra: u64 = dec.b_spec.arrival_rate()
            - dec.b_nodes.iter().map(|&v| spec.in_rate(v)).sum::<u64>();
        prop_assert_eq!(b_in_extra, dec.crossing_edges as u64);
        let a_out_extra: u64 = dec.a_spec.extraction_rate()
            - dec.a_nodes.iter().map(|&v| spec.out_rate(v)).sum::<u64>();
        prop_assert_eq!(a_out_extra, dec.crossing_edges as u64);
        prop_assert_eq!(dec.a_spec.retention, r_b.max(spec.retention));
        prop_assert!(classify(&dec.b_spec).feasibility.is_feasible());
        prop_assert!(classify(&dec.a_spec).feasibility.is_feasible());
    }

    /// Cut-case trichotomy: exactly one case reported, and an interior
    /// side mask (when given) genuinely separates G.
    #[test]
    fn cut_case_is_well_formed(
        seed in 0u64..400,
        n in 4usize..20,
        extra in 0usize..20,
        in_rate in 1u64..4,
    ) {
        let spec = random_spec(seed, n, extra, in_rate, in_rate);
        let class = classify(&spec);
        if let CutCase::Interior { side } = &class.cut_case {
            prop_assert_eq!(side.len(), spec.node_count());
            let a = side.iter().filter(|&&b| b).count();
            prop_assert!(a >= 1 && a < spec.node_count());
        }
    }

    /// Scaling in and out rates together preserves the feasibility verdict
    /// only when edges allow it; scaling *down* by dropping to rate 1 never
    /// turns a feasible network infeasible.
    #[test]
    fn reducing_rates_preserves_feasibility(
        seed in 0u64..400,
        n in 4usize..20,
        extra in 0usize..20,
        in_rate in 2u64..5,
    ) {
        let spec = random_spec(seed, n, extra, in_rate, in_rate + 1);
        if classify(&spec).feasibility.is_feasible() {
            let reduced = random_spec(seed, n, extra, in_rate - 1, in_rate + 1);
            prop_assert!(classify(&reduced).feasibility.is_feasible());
        }
    }
}
