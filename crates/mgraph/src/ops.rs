//! Graph algorithms over [`MultiGraph`]: BFS, connectivity, components,
//! diameter, and induced subgraphs.

use std::collections::VecDeque;

use crate::{EdgeId, MultiGraph, MultiGraphBuilder, NodeId};

/// BFS hop distances from `source`. Unreachable nodes get `u32::MAX`.
///
/// Parallel edges do not affect hop distance; the traversal visits each
/// node once.
pub fn bfs_distances(g: &MultiGraph, source: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.node_count()];
    if source.index() >= g.node_count() {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for link in g.incident_links(u) {
            let v = link.neighbor;
            if dist[v.index()] == u32::MAX {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// BFS hop distances to the nearest node in `targets` (multi-source BFS).
/// Used by the shortest-path baseline protocol to route toward the closest
/// sink. Unreachable nodes get `u32::MAX`.
pub fn bfs_distances_to_set(g: &MultiGraph, targets: &[NodeId]) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.node_count()];
    let mut queue = VecDeque::new();
    for &t in targets {
        if t.index() < g.node_count() && dist[t.index()] == u32::MAX {
            dist[t.index()] = 0;
            queue.push_back(t);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for link in g.incident_links(u) {
            let v = link.neighbor;
            if dist[v.index()] == u32::MAX {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// True if the graph is connected. The empty graph and singletons are
/// connected by convention.
pub fn is_connected(g: &MultiGraph) -> bool {
    let n = g.node_count();
    if n <= 1 {
        return true;
    }
    let dist = bfs_distances(g, NodeId::new(0));
    dist.iter().all(|&d| d != u32::MAX)
}

/// Connected components as a labeling: `labels[v]` is the component index of
/// `v`, components numbered `0..k` in order of their smallest node.
pub fn components(g: &MultiGraph) -> (usize, Vec<u32>) {
    let n = g.node_count();
    let mut labels = vec![u32::MAX; n];
    let mut k = 0u32;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if labels[start] != u32::MAX {
            continue;
        }
        labels[start] = k;
        queue.push_back(NodeId::new(start as u32));
        while let Some(u) = queue.pop_front() {
            for link in g.incident_links(u) {
                let v = link.neighbor;
                if labels[v.index()] == u32::MAX {
                    labels[v.index()] = k;
                    queue.push_back(v);
                }
            }
        }
        k += 1;
    }
    (k as usize, labels)
}

/// Hop diameter of a connected graph, `None` if disconnected or empty.
///
/// Exact (all-pairs via n BFS runs); intended for the experiment-scale
/// graphs of this reproduction, not for millions of nodes.
pub fn diameter(g: &MultiGraph) -> Option<u32> {
    let n = g.node_count();
    if n == 0 {
        return None;
    }
    let mut best = 0u32;
    for v in g.nodes() {
        let dist = bfs_distances(g, v);
        for &d in &dist {
            if d == u32::MAX {
                return None;
            }
            best = best.max(d);
        }
    }
    Some(best)
}

/// The subgraph induced by `keep`, together with the mapping from old node
/// ids to new ones (`u32::MAX` for dropped nodes).
///
/// Edges with both endpoints in `keep` are preserved (with multiplicity);
/// new node ids follow the order of `keep`.
pub fn induced_subgraph(g: &MultiGraph, keep: &[NodeId]) -> (MultiGraph, Vec<u32>) {
    let mut remap = vec![u32::MAX; g.node_count()];
    for (new, &old) in keep.iter().enumerate() {
        assert!(
            remap[old.index()] == u32::MAX,
            "duplicate node {old} in induced_subgraph keep list"
        );
        remap[old.index()] = new as u32;
    }
    let mut b = MultiGraphBuilder::with_nodes(keep.len());
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        let (nu, nv) = (remap[u.index()], remap[v.index()]);
        if nu != u32::MAX && nv != u32::MAX {
            b.add_edge(NodeId::new(nu), NodeId::new(nv))
                .expect("induced edge");
        }
    }
    (b.build(), remap)
}

/// Bridges of the multigraph: edges whose removal disconnects their
/// component. A parallel pair is never a bridge (the twin keeps the
/// endpoints connected), which the multiplicity check below handles before
/// the DFS low-link pass.
///
/// Bridges are the fragile links of a topology — the Conjecture 4
/// experiments protect them to build feasibility-preserving churn.
pub fn bridges(g: &MultiGraph) -> Vec<EdgeId> {
    let n = g.node_count();
    let mut disc = vec![u32::MAX; n]; // discovery times
    let mut low = vec![u32::MAX; n];
    let mut timer = 0u32;
    let mut out = Vec::new();
    // Iterative DFS: stack of (node, parent-edge, incidence cursor).
    let mut stack: Vec<(usize, u32, usize)> = Vec::new();
    for root in 0..n {
        if disc[root] != u32::MAX {
            continue;
        }
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        stack.push((root, u32::MAX, 0));
        while let Some(&mut (u, pedge, ref mut cursor)) = stack.last_mut() {
            let links = g.incident_links(NodeId::new(u as u32));
            if *cursor < links.len() {
                let link = links[*cursor];
                *cursor += 1;
                if link.edge.raw() == pedge {
                    continue; // the tree edge we came through (by edge id,
                              // so a parallel twin still counts as back edge)
                }
                let v = link.neighbor.index();
                if disc[v] == u32::MAX {
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    stack.push((v, link.edge.raw(), 0));
                } else {
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                if let Some(&mut (p, _, _)) = stack.last_mut() {
                    low[p] = low[p].min(low[u]);
                    if low[u] > disc[p] {
                        out.push(EdgeId::new(pedge));
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// Number of edges crossing the cut defined by `side` (`true` = side A).
/// In the unit-capacity S-D-network model this is the capacity of the cut.
pub fn cut_size(g: &MultiGraph, side: &[bool]) -> usize {
    assert_eq!(side.len(), g.node_count());
    g.edges()
        .filter(|&e| {
            let (u, v) = g.endpoints(e);
            side[u.index()] != side[v.index()]
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(5);
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d = bfs_distances(&g, NodeId::new(2));
        assert_eq!(d, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable() {
        let mut b = crate::MultiGraphBuilder::with_nodes(3);
        b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let g = b.build();
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d[2], u32::MAX);
        assert!(!is_connected(&g));
    }

    #[test]
    fn multi_source_bfs_takes_nearest_target() {
        let g = generators::path(7);
        let d = bfs_distances_to_set(&g, &[NodeId::new(0), NodeId::new(6)]);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1, 0]);
    }

    #[test]
    fn multi_source_bfs_empty_targets() {
        let g = generators::path(3);
        let d = bfs_distances_to_set(&g, &[]);
        assert!(d.iter().all(|&x| x == u32::MAX));
    }

    #[test]
    fn components_labeling() {
        let mut b = crate::MultiGraphBuilder::with_nodes(5);
        b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        b.add_edge(NodeId::new(3), NodeId::new(4)).unwrap();
        let g = b.build();
        let (k, labels) = components(&g);
        assert_eq!(k, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[2], labels[3]);
    }

    #[test]
    fn diameter_known_values() {
        assert_eq!(diameter(&generators::path(6)), Some(5));
        assert_eq!(diameter(&generators::cycle(6)), Some(3));
        assert_eq!(diameter(&generators::complete(5)), Some(1));
        assert_eq!(diameter(&generators::grid2d(3, 3)), Some(4));
    }

    #[test]
    fn diameter_disconnected_is_none() {
        let b = crate::MultiGraphBuilder::with_nodes(2);
        assert_eq!(diameter(&b.build()), None);
        assert_eq!(diameter(&crate::MultiGraph::empty()), None);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = generators::complete(4);
        let keep = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let (sub, remap) = induced_subgraph(&g, &keep);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 3); // triangle among kept nodes
        assert_eq!(remap[0], u32::MAX);
        assert_eq!(remap[1], 0);
        assert_eq!(remap[3], 2);
    }

    #[test]
    fn induced_subgraph_preserves_multiplicity() {
        let g = generators::parallel_pair(3);
        let (sub, _) = induced_subgraph(&g, &[NodeId::new(0), NodeId::new(1)]);
        assert_eq!(sub.edge_count(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn induced_subgraph_rejects_duplicates() {
        let g = generators::path(3);
        induced_subgraph(&g, &[NodeId::new(0), NodeId::new(0)]);
    }

    #[test]
    fn bridges_on_path_are_all_edges() {
        let g = generators::path(5);
        let b = bridges(&g);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn cycle_has_no_bridges() {
        assert!(bridges(&generators::cycle(6)).is_empty());
        assert!(bridges(&generators::complete(5)).is_empty());
    }

    #[test]
    fn parallel_pair_is_not_a_bridge() {
        let g = generators::parallel_pair(2);
        assert!(bridges(&g).is_empty());
        let g = generators::parallel_pair(1);
        assert_eq!(bridges(&g).len(), 1);
    }

    #[test]
    fn dumbbell_bridge_path_detected() {
        // dumbbell(3, 2): cliques are bridge-free; the 3 chain edges are
        // bridges (they are the last 3 inserted edges).
        let g = generators::dumbbell(3, 2);
        let b = bridges(&g);
        assert_eq!(b.len(), 3);
        for e in b {
            // removing a bridge must disconnect the graph
            let keep: Vec<NodeId> = g.nodes().collect();
            let mut builder = crate::MultiGraphBuilder::with_nodes(g.node_count());
            for other in g.edges() {
                if other != e {
                    let (u, v) = g.endpoints(other);
                    builder.add_edge(u, v).unwrap();
                }
            }
            assert!(
                !is_connected(&builder.build()),
                "removing {e} keeps it connected"
            );
            let _ = keep;
        }
    }

    #[test]
    fn bridges_in_disconnected_graph() {
        let mut b = crate::MultiGraphBuilder::with_nodes(5);
        b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap(); // bridge
        b.add_edge(NodeId::new(2), NodeId::new(3)).unwrap(); // bridge
        b.add_edge(NodeId::new(3), NodeId::new(4)).unwrap(); // bridge
        b.add_edge(NodeId::new(2), NodeId::new(4)).unwrap(); // closes a triangle
        let g = b.build();
        let bs = bridges(&g);
        assert_eq!(bs, vec![EdgeId::new(0)]);
    }

    #[test]
    fn cut_size_on_path() {
        let g = generators::path(4);
        let side = vec![true, true, false, false];
        assert_eq!(cut_size(&g, &side), 1);
        let side = vec![true, false, true, false];
        assert_eq!(cut_size(&g, &side), 3);
    }

    #[test]
    fn cut_size_counts_parallel_edges() {
        let g = generators::parallel_pair(5);
        assert_eq!(cut_size(&g, &[true, false]), 5);
    }
}
