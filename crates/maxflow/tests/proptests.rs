//! Property tests cross-checking the three max-flow algorithms against each
//! other and against the max-flow/min-cut theorem.

use proptest::prelude::*;

use maxflow::{decompose_paths, min_cut_side, Algorithm, FlowNetwork};

/// Random directed network: n nodes, arcs with small capacities.
fn random_net(
    max_n: usize,
    max_m: usize,
) -> impl Strategy<Value = (usize, Vec<(usize, usize, i64)>)> {
    (2..=max_n).prop_flat_map(move |n| {
        let arc = (0..n, 0..n.saturating_sub(1), 0i64..10).prop_map(move |(u, v, c)| {
            let v = if v >= u { v + 1 } else { v };
            (u, v, c)
        });
        (Just(n), prop::collection::vec(arc, 0..=max_m))
    })
}

fn build(n: usize, arcs: &[(usize, usize, i64)], undirected: bool) -> FlowNetwork {
    let mut net = FlowNetwork::new(n);
    for &(u, v, c) in arcs {
        if undirected {
            net.add_undirected(u, v, c);
        } else {
            net.add_arc(u, v, c);
        }
    }
    net
}

proptest! {
    /// All three algorithms agree on directed networks.
    #[test]
    fn algorithms_agree_directed((n, arcs) in random_net(12, 40)) {
        let mut values = Vec::new();
        for algo in Algorithm::ALL {
            let mut net = build(n, &arcs, false);
            values.push(net.max_flow(0, n - 1, algo));
        }
        for (v, algo) in values.iter().zip(Algorithm::ALL) {
            prop_assert_eq!(*v, values[0], "{} disagrees", algo);
        }
    }

    /// All three algorithms agree on undirected networks.
    #[test]
    fn algorithms_agree_undirected((n, arcs) in random_net(10, 30)) {
        let mut values = Vec::new();
        for algo in Algorithm::ALL {
            let mut net = build(n, &arcs, true);
            values.push(net.max_flow(0, n - 1, algo));
        }
        for (v, algo) in values.iter().zip(Algorithm::ALL) {
            prop_assert_eq!(*v, values[0], "{} disagrees", algo);
        }
    }

    /// Max-flow value equals min-cut capacity, and the cut separates s from t.
    #[test]
    fn maxflow_equals_mincut((n, arcs) in random_net(12, 40), undirected in any::<bool>()) {
        let mut net = build(n, &arcs, undirected);
        let f = net.max_flow(0, n - 1, Algorithm::Dinic);
        let cut = min_cut_side(&net, 0);
        prop_assert_eq!(cut.capacity, f);
        prop_assert!(cut.side[0]);
        prop_assert!(!cut.side[n - 1]);
        prop_assert_eq!(cut.size_a, cut.side.iter().filter(|&&b| b).count());
    }

    /// Each solver leaves a genuine flow: conservation at interior nodes,
    /// net outflow of s equals the value, capacities respected.
    #[test]
    fn solvers_leave_valid_flows((n, arcs) in random_net(10, 30), algo_idx in 0usize..5) {
        let algo = Algorithm::ALL[algo_idx];
        let mut net = build(n, &arcs, false);
        let f = net.max_flow(0, n - 1, algo);
        prop_assert!(f >= 0);
        prop_assert_eq!(net.net_outflow(0), f, "source outflow mismatch for {}", algo);
        prop_assert_eq!(net.net_outflow(n - 1), -f, "sink inflow mismatch for {}", algo);
        for v in 1..n - 1 {
            prop_assert_eq!(net.net_outflow(v), 0, "conservation at {} for {}", v, algo);
        }
        for p in 0..net.arc_pair_count() {
            let a = maxflow::ArcId::pair_forward(p);
            let fl = net.flow_on(a);
            prop_assert!(fl <= net.capacity_of(a));
            prop_assert!(-fl <= net.capacity_of(a.rev()));
        }
    }

    /// Path decomposition accounts for the full flow value with simple
    /// paths from s to t.
    #[test]
    fn decomposition_accounts_for_value((n, arcs) in random_net(10, 30), undirected in any::<bool>()) {
        let mut net = build(n, &arcs, undirected);
        let f = net.max_flow(0, n - 1, Algorithm::Dinic);
        let paths = decompose_paths(&net, 0, n - 1);
        let total: i64 = paths.iter().map(|p| p.amount).sum();
        prop_assert_eq!(total, f);
        for p in &paths {
            prop_assert!(p.amount > 0);
            prop_assert_eq!(*p.nodes.first().unwrap(), 0);
            prop_assert_eq!(*p.nodes.last().unwrap(), n - 1);
            let distinct: std::collections::HashSet<_> = p.nodes.iter().collect();
            prop_assert_eq!(distinct.len(), p.nodes.len());
        }
    }

    /// Reset fully erases a computed flow: solving twice gives the same value.
    #[test]
    fn reset_is_idempotent((n, arcs) in random_net(10, 30)) {
        let mut net = build(n, &arcs, false);
        let f1 = net.max_flow(0, n - 1, Algorithm::PushRelabel);
        net.reset();
        let f2 = net.max_flow(0, n - 1, Algorithm::Dinic);
        prop_assert_eq!(f1, f2);
    }

    /// Monotonicity: adding an arc never decreases the max flow.
    #[test]
    fn adding_arcs_is_monotone((n, arcs) in random_net(10, 25), extra_cap in 1i64..5) {
        let mut net = build(n, &arcs, false);
        let f1 = net.max_flow(0, n - 1, Algorithm::Dinic);
        let mut net2 = build(n, &arcs, false);
        net2.add_arc(0, n - 1, extra_cap);
        let f2 = net2.max_flow(0, n - 1, Algorithm::Dinic);
        prop_assert_eq!(f2, f1 + extra_cap); // direct s->t arc always adds fully
    }

    /// Scaling all capacities scales the max flow linearly.
    #[test]
    fn capacity_scaling_is_linear((n, arcs) in random_net(10, 25), k in 1i64..5) {
        let mut net = build(n, &arcs, false);
        let f1 = net.max_flow(0, n - 1, Algorithm::Dinic);
        let scaled: Vec<_> = arcs.iter().map(|&(u, v, c)| (u, v, c * k)).collect();
        let mut net2 = build(n, &scaled, false);
        let f2 = net2.max_flow(0, n - 1, Algorithm::Dinic);
        prop_assert_eq!(f2, k * f1);
    }
}
