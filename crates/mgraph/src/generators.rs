//! Topology generators for the experiment suite.
//!
//! Every family that appears in the paper's discussion or in the experiment
//! plan of `DESIGN.md` is constructible here. Random generators take an
//! explicit [`rand::Rng`] so that the whole reproduction is deterministic
//! under a single seed.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{MultiGraph, MultiGraphBuilder, NodeId};

/// Path `P_n`: nodes `0 — 1 — ... — n-1`.
pub fn path(n: usize) -> MultiGraph {
    let mut b = MultiGraphBuilder::with_nodes(n);
    for i in 1..n {
        b.add_edge(NodeId::new((i - 1) as u32), NodeId::new(i as u32))
            .expect("path edge");
    }
    b.build()
}

/// Cycle `C_n` (requires `n >= 3`).
pub fn cycle(n: usize) -> MultiGraph {
    assert!(n >= 3, "cycle needs at least 3 nodes");
    let mut b = MultiGraphBuilder::with_nodes(n);
    for i in 0..n {
        b.add_edge(NodeId::new(i as u32), NodeId::new(((i + 1) % n) as u32))
            .expect("cycle edge");
    }
    b.build()
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> MultiGraph {
    let mut b = MultiGraphBuilder::with_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(NodeId::new(i as u32), NodeId::new(j as u32))
                .expect("complete edge");
        }
    }
    b.build()
}

/// Complete bipartite graph `K_{a,b}`; the left part is `0..a`, the right
/// part `a..a+b`.
pub fn complete_bipartite(a: usize, b: usize) -> MultiGraph {
    let mut builder = MultiGraphBuilder::with_nodes(a + b);
    for i in 0..a {
        for j in 0..b {
            builder
                .add_edge(NodeId::new(i as u32), NodeId::new((a + j) as u32))
                .expect("bipartite edge");
        }
    }
    builder.build()
}

/// Star `S_n`: center node `0` joined to leaves `1..n`.
pub fn star(leaves: usize) -> MultiGraph {
    let mut b = MultiGraphBuilder::with_nodes(leaves + 1);
    for i in 1..=leaves {
        b.add_edge(NodeId::new(0), NodeId::new(i as u32))
            .expect("star edge");
    }
    b.build()
}

/// `rows × cols` 2-D grid (4-neighborhood). Node `(r, c)` has id
/// `r * cols + c`.
pub fn grid2d(rows: usize, cols: usize) -> MultiGraph {
    let mut b = MultiGraphBuilder::with_nodes(rows * cols);
    let id = |r: usize, c: usize| NodeId::new((r * cols + c) as u32);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1)).expect("grid edge");
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c)).expect("grid edge");
            }
        }
    }
    b.build()
}

/// `rows × cols` 2-D torus (grid with wraparound). Requires `rows, cols >= 3`
/// so that wrap edges are not parallel duplicates of grid edges; for smaller
/// dimensions use [`grid2d`].
pub fn torus2d(rows: usize, cols: usize) -> MultiGraph {
    assert!(rows >= 3 && cols >= 3, "torus needs both dimensions >= 3");
    let mut b = MultiGraphBuilder::with_nodes(rows * cols);
    let id = |r: usize, c: usize| NodeId::new((r * cols + c) as u32);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(id(r, c), id(r, (c + 1) % cols))
                .expect("torus edge");
            b.add_edge(id(r, c), id((r + 1) % rows, c))
                .expect("torus edge");
        }
    }
    b.build()
}

/// Complete binary tree with `levels` levels (so `2^levels - 1` nodes).
pub fn binary_tree(levels: u32) -> MultiGraph {
    let n = (1usize << levels) - 1;
    let mut b = MultiGraphBuilder::with_nodes(n);
    for i in 1..n {
        let parent = (i - 1) / 2;
        b.add_edge(NodeId::new(parent as u32), NodeId::new(i as u32))
            .expect("tree edge");
    }
    b.build()
}

/// `d`-dimensional hypercube `Q_d` on `2^d` nodes.
pub fn hypercube(d: u32) -> MultiGraph {
    let n = 1usize << d;
    let mut b = MultiGraphBuilder::with_nodes(n);
    for v in 0..n {
        for bit in 0..d {
            let w = v ^ (1 << bit);
            if w > v {
                b.add_edge(NodeId::new(v as u32), NodeId::new(w as u32))
                    .expect("hypercube edge");
            }
        }
    }
    b.build()
}

/// Two nodes joined by `k` parallel links — the smallest genuinely
/// *multi*-graph, with per-step capacity `k` between its endpoints.
pub fn parallel_pair(k: usize) -> MultiGraph {
    let mut b = MultiGraphBuilder::with_nodes(2);
    b.add_parallel_edges(NodeId::new(0), NodeId::new(1), k)
        .expect("parallel edges");
    b.build()
}

/// Dumbbell: two cliques of size `clique` joined by a path of `bridge`
/// intermediate nodes. The bridge is the bottleneck (min cut 1), which makes
/// this the canonical *saturated* topology in the experiments.
///
/// Node layout: `0..clique` is the left clique, `clique..clique+bridge` the
/// bridge, and the remainder the right clique.
pub fn dumbbell(clique: usize, bridge: usize) -> MultiGraph {
    assert!(clique >= 1);
    let n = 2 * clique + bridge;
    let mut b = MultiGraphBuilder::with_nodes(n);
    let add_clique = |b: &mut MultiGraphBuilder, lo: usize, hi: usize| {
        for i in lo..hi {
            for j in (i + 1)..hi {
                b.add_edge(NodeId::new(i as u32), NodeId::new(j as u32))
                    .expect("clique edge");
            }
        }
    };
    add_clique(&mut b, 0, clique);
    add_clique(&mut b, clique + bridge, n);
    // Chain: last-left-clique-node — bridge nodes — first-right-clique-node.
    let mut prev = clique - 1;
    for i in 0..bridge {
        let cur = clique + i;
        b.add_edge(NodeId::new(prev as u32), NodeId::new(cur as u32))
            .expect("bridge edge");
        prev = cur;
    }
    b.add_edge(
        NodeId::new(prev as u32),
        NodeId::new((clique + bridge) as u32),
    )
    .expect("bridge edge");
    b.build()
}

/// Layered "diamond" DAG-shaped graph: a single source-side node, `width`
/// parallel middle nodes, a single sink-side node, repeated `layers` times
/// in series. Gives min cut `width` with many disjoint paths — the
/// canonical *unsaturated-friendly* topology.
pub fn layered_diamond(layers: usize, width: usize) -> MultiGraph {
    assert!(layers >= 1 && width >= 1);
    // Layout per layer: 1 hub + width middles; a final hub terminates.
    let n = layers * (1 + width) + 1;
    let mut b = MultiGraphBuilder::with_nodes(n);
    for l in 0..layers {
        let hub = l * (1 + width);
        let next_hub = (l + 1) * (1 + width);
        for w in 0..width {
            let mid = hub + 1 + w;
            b.add_edge(NodeId::new(hub as u32), NodeId::new(mid as u32))
                .expect("diamond edge");
            b.add_edge(NodeId::new(mid as u32), NodeId::new(next_hub as u32))
                .expect("diamond edge");
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, m)` multigraph: `m` edges drawn uniformly with
/// replacement over unordered node pairs, so parallel edges can occur —
/// exactly the multigraph model of the paper.
pub fn gnm_multigraph<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> MultiGraph {
    assert!(n >= 2, "gnm needs at least 2 nodes");
    let mut b = MultiGraphBuilder::with_nodes(n);
    for _ in 0..m {
        let u = rng.random_range(0..n);
        let mut v = rng.random_range(0..n - 1);
        if v >= u {
            v += 1;
        }
        b.add_edge(NodeId::new(u as u32), NodeId::new(v as u32))
            .expect("gnm edge");
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)` simple graph: each unordered pair independently
/// joined with probability `p`.
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> MultiGraph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut b = MultiGraphBuilder::with_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random_bool(p) {
                b.add_edge(NodeId::new(i as u32), NodeId::new(j as u32))
                    .expect("gnp edge");
            }
        }
    }
    b.build()
}

/// Connected `G(n, m)`-style random graph: a uniform random spanning tree
/// (via a random permutation attachment) plus `extra` additional random
/// non-self-loop edges (possibly parallel).
pub fn connected_random<R: Rng + ?Sized>(n: usize, extra: usize, rng: &mut R) -> MultiGraph {
    assert!(n >= 1);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut b = MultiGraphBuilder::with_nodes(n);
    for i in 1..n {
        let parent = order[rng.random_range(0..i)];
        b.add_edge(NodeId::new(order[i] as u32), NodeId::new(parent as u32))
            .expect("tree edge");
    }
    if n >= 2 {
        for _ in 0..extra {
            let u = rng.random_range(0..n);
            let mut v = rng.random_range(0..n - 1);
            if v >= u {
                v += 1;
            }
            b.add_edge(NodeId::new(u as u32), NodeId::new(v as u32))
                .expect("extra edge");
        }
    }
    b.build()
}

/// Random geometric graph: `n` points uniform in the unit square, joined
/// when within Euclidean distance `radius`. This is the standard model of a
/// wireless sensor field, the motivating deployment of localized protocols.
pub fn random_geometric<R: Rng + ?Sized>(n: usize, radius: f64, rng: &mut R) -> MultiGraph {
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
        .collect();
    let r2 = radius * radius;
    let mut b = MultiGraphBuilder::with_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = pts[i].0 - pts[j].0;
            let dy = pts[i].1 - pts[j].1;
            if dx * dx + dy * dy <= r2 {
                b.add_edge(NodeId::new(i as u32), NodeId::new(j as u32))
                    .expect("geometric edge");
            }
        }
    }
    b.build()
}

/// Approximately `d`-regular random multigraph via the configuration model:
/// `n*d` half-edges paired uniformly at random; pairs that would form
/// self-loops are re-drawn a bounded number of times and finally dropped, so
/// the result has maximum degree `<= d`.
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> MultiGraph {
    assert!(n >= 2);
    let mut stubs: Vec<usize> = (0..n * d).map(|i| i / d).collect();
    stubs.shuffle(rng);
    let mut b = MultiGraphBuilder::with_nodes(n);
    let mut i = 0;
    while i + 1 < stubs.len() {
        let (u, v) = (stubs[i], stubs[i + 1]);
        if u != v {
            b.add_edge(NodeId::new(u as u32), NodeId::new(v as u32))
                .expect("config edge");
            i += 2;
        } else if i + 2 < stubs.len() {
            // Swap the offending stub with a later one and retry.
            stubs.swap(i + 1, i + 2);
            if stubs[i] == stubs[i + 1] {
                i += 1; // unlucky run of equal stubs: drop one half-edge
            }
        } else {
            break;
        }
    }
    b.build()
}

/// Caterpillar: a spine path of `spine` nodes, each with `legs` pendant
/// leaves. Useful as a tree with many degree-1 sinks.
pub fn caterpillar(spine: usize, legs: usize) -> MultiGraph {
    assert!(spine >= 1);
    let mut b = MultiGraphBuilder::with_nodes(spine + spine * legs);
    for i in 1..spine {
        b.add_edge(NodeId::new((i - 1) as u32), NodeId::new(i as u32))
            .expect("spine edge");
    }
    for s in 0..spine {
        for l in 0..legs {
            let leaf = spine + s * legs + l;
            b.add_edge(NodeId::new(s as u32), NodeId::new(leaf as u32))
                .expect("leg edge");
        }
    }
    b.build()
}

/// Margulis–Gabber–Galil expander on the `m × m` torus of residues:
/// node `(x, y)` connects to `(x±y, y)`, `(x±y+1, y)`, `(x, y±x)` and
/// `(x, y±x+1)` (mod `m`), giving an 8-regular multigraph with constant
/// expansion — the classic explicit expander. Expanders have no small
/// cuts, so they sit at the opposite extreme from dumbbells in the
/// stability experiments.
pub fn margulis_expander(m: usize) -> MultiGraph {
    assert!(m >= 2, "expander needs m >= 2");
    let n = m * m;
    let id = |x: usize, y: usize| NodeId::new((x % m * m + y % m) as u32);
    let mut b = MultiGraphBuilder::with_nodes(n);
    for x in 0..m {
        for y in 0..m {
            let u = id(x, y);
            // Each node adds its four "outgoing" images; the undirected
            // multigraph then realizes the standard 8-regular structure.
            for v in [
                id(x + y, y),
                id(x + y + 1, y),
                id(x, y + x),
                id(x, y + x + 1),
            ] {
                if u != v {
                    b.add_edge(u, v).expect("expander edge");
                }
            }
        }
    }
    b.build()
}

/// A three-stage folded-Clos / leaf–spine fabric: `leaves` leaf switches,
/// `spines` spine switches, every leaf connected to every spine with
/// `trunks` parallel links, plus `hosts_per_leaf` host nodes hanging off
/// each leaf. The classic datacenter substrate for the fabric example.
pub fn leaf_spine(
    leaves: usize,
    spines: usize,
    trunks: usize,
    hosts_per_leaf: usize,
) -> MultiGraph {
    let n = leaves + spines + leaves * hosts_per_leaf;
    let mut b = MultiGraphBuilder::with_nodes(n);
    for l in 0..leaves {
        for s in 0..spines {
            b.add_parallel_edges(
                NodeId::new(l as u32),
                NodeId::new((leaves + s) as u32),
                trunks,
            )
            .expect("trunk edges");
        }
        for h in 0..hosts_per_leaf {
            let host = leaves + spines + l * hosts_per_leaf + h;
            b.add_edge(NodeId::new(l as u32), NodeId::new(host as u32))
                .expect("host edge");
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(2)), 2);
        assert!(ops::is_connected(&g));
    }

    #[test]
    fn single_node_path_has_no_edges() {
        let g = path(1);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.edge_count(), 6);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(ops::is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn cycle_too_small_panics() {
        cycle(2);
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(g.degree(NodeId::new(0)), 4); // left side sees all of right
        assert_eq!(g.degree(NodeId::new(3)), 3); // right side sees all of left
    }

    #[test]
    fn star_shape() {
        let g = star(7);
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.degree(NodeId::new(0)), 7);
        for i in 1..=7 {
            assert_eq!(g.degree(NodeId::new(i)), 1);
        }
    }

    #[test]
    fn grid_shape() {
        let g = grid2d(3, 4);
        assert_eq!(g.node_count(), 12);
        // edges: 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8 = 17
        assert_eq!(g.edge_count(), 17);
        assert_eq!(g.max_degree(), 4);
        assert!(ops::is_connected(&g));
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus2d(4, 5);
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 40);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(4);
        assert_eq!(g.node_count(), 15);
        assert_eq!(g.edge_count(), 14);
        assert_eq!(g.degree(NodeId::new(0)), 2);
        assert_eq!(g.max_degree(), 3);
        assert!(ops::is_connected(&g));
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
        assert_eq!(ops::diameter(&g), Some(4));
    }

    #[test]
    fn parallel_pair_multiplicity() {
        let g = parallel_pair(6);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.edge_multiplicity(NodeId::new(0), NodeId::new(1)), 6);
    }

    #[test]
    fn dumbbell_bottleneck() {
        let g = dumbbell(4, 2);
        assert_eq!(g.node_count(), 10);
        // 2 * C(4,2) + 3 bridge edges = 12 + 3
        assert_eq!(g.edge_count(), 15);
        assert!(ops::is_connected(&g));
        // bridge interior nodes have degree 2
        assert_eq!(g.degree(NodeId::new(4)), 2);
        assert_eq!(g.degree(NodeId::new(5)), 2);
    }

    #[test]
    fn dumbbell_zero_bridge_joins_cliques_directly() {
        let g = dumbbell(3, 0);
        assert_eq!(g.node_count(), 6);
        assert!(ops::is_connected(&g));
        assert!(g.has_edge(NodeId::new(2), NodeId::new(3)));
    }

    #[test]
    fn layered_diamond_shape() {
        let g = layered_diamond(2, 3);
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.edge_count(), 12);
        assert!(ops::is_connected(&g));
        // hubs have degree width (first/last) or 2*width (middle)
        assert_eq!(g.degree(NodeId::new(0)), 3);
        assert_eq!(g.degree(NodeId::new(4)), 6);
        assert_eq!(g.degree(NodeId::new(8)), 3);
    }

    #[test]
    fn gnm_has_exact_edges_and_no_self_loops() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = gnm_multigraph(10, 25, &mut rng);
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 25);
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            assert_ne!(u, v);
        }
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(gnp(8, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(gnp(8, 1.0, &mut rng).edge_count(), 28);
    }

    #[test]
    fn connected_random_is_connected() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 5, 20, 50] {
            let g = connected_random(n, n / 2, &mut rng);
            assert_eq!(g.node_count(), n);
            assert!(ops::is_connected(&g), "n={n} not connected");
            assert!(g.edge_count() >= n.saturating_sub(1));
        }
    }

    #[test]
    fn random_geometric_radius_extremes() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = random_geometric(12, 2.0, &mut rng); // radius covers unit square
        assert_eq!(g.edge_count(), 66); // complete
        let g = random_geometric(12, 0.0, &mut rng);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn random_regular_degree_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_regular(20, 4, &mut rng);
        assert_eq!(g.node_count(), 20);
        assert!(g.max_degree() <= 4);
        // Configuration model loses only re-drawn self-loops: nearly 4-regular.
        assert!(
            g.edge_count() >= 35,
            "too many dropped stubs: {}",
            g.edge_count()
        );
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            assert_ne!(u, v);
        }
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(3, 2);
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.edge_count(), 8);
        assert!(ops::is_connected(&g));
        assert_eq!(g.degree(NodeId::new(1)), 4); // middle spine: 2 spine + 2 legs
    }

    #[test]
    fn margulis_expander_shape() {
        let g = margulis_expander(5);
        assert_eq!(g.node_count(), 25);
        assert!(ops::is_connected(&g));
        // 8-regular up to the dropped self-loop images.
        assert!(g.max_degree() <= 8);
        let mean_deg = 2.0 * g.edge_count() as f64 / g.node_count() as f64;
        assert!(mean_deg > 6.0, "mean degree {mean_deg}");
        // Expander: small diameter.
        assert!(ops::diameter(&g).unwrap() <= 4);
        // No bridges in an expander.
        assert!(ops::bridges(&g).is_empty());
    }

    #[test]
    fn leaf_spine_shape() {
        let g = leaf_spine(4, 2, 2, 3);
        assert_eq!(g.node_count(), 4 + 2 + 12);
        // trunks: 4*2*2 = 16, hosts: 12
        assert_eq!(g.edge_count(), 28);
        assert_eq!(g.edge_multiplicity(NodeId::new(0), NodeId::new(4)), 2);
        assert!(ops::is_connected(&g));
    }
}
