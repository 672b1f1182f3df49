//! Core multigraph representation: builder + immutable CSR-packed graph.

use serde::{Deserialize, Serialize};

use crate::GraphError;

/// Identifier of a node (vertex) in a [`MultiGraph`].
///
/// Node ids are dense: a graph with `n` nodes uses ids `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the raw index as `usize`, suitable for indexing side arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` index.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of an (undirected) edge in a [`MultiGraph`].
///
/// Parallel edges receive distinct ids; the id identifies a *link*, which is
/// exactly the unit of capacity in the S-D-network model (one packet per
/// link per time step).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        EdgeId(index)
    }

    /// Returns the raw index as `usize`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` index.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One entry of a node's incidence list: the link id together with the
/// neighbor reached through it.
///
/// A node incident to `k` parallel edges towards the same neighbor sees `k`
/// distinct `IncidentLink`s with the same `neighbor` but different `edge`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IncidentLink {
    /// The undirected edge realizing this link.
    pub edge: EdgeId,
    /// The node at the other end of the link.
    pub neighbor: NodeId,
}

/// Mutable construction buffer for [`MultiGraph`].
///
/// The builder accepts nodes and edges in any order and produces a packed,
/// immutable graph via [`MultiGraphBuilder::build`]. Self-loops are
/// rejected; parallel edges are allowed and preserved.
#[derive(Debug, Default, Clone)]
pub struct MultiGraphBuilder {
    num_nodes: u32,
    endpoints: Vec<(u32, u32)>,
}

impl MultiGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-populated with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "graph exceeds u32 index space");
        MultiGraphBuilder {
            num_nodes: n as u32,
            endpoints: Vec::new(),
        }
    }

    /// Adds a fresh isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.num_nodes);
        self.num_nodes = self
            .num_nodes
            .checked_add(1)
            .expect("graph exceeds u32 index space");
        id
    }

    /// Adds `k` fresh nodes, returning the id of the first one.
    pub fn add_nodes(&mut self, k: usize) -> NodeId {
        let first = NodeId(self.num_nodes);
        for _ in 0..k {
            self.add_node();
        }
        first
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.num_nodes as usize
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Adds an undirected edge between `u` and `v`, returning its id.
    ///
    /// Returns an error if either endpoint does not exist or if `u == v`
    /// (self-loops carry no routing meaning and are rejected).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeId, GraphError> {
        if u.raw() >= self.num_nodes {
            return Err(GraphError::InvalidNode(u));
        }
        if v.raw() >= self.num_nodes {
            return Err(GraphError::InvalidNode(v));
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if self.endpoints.len() >= u32::MAX as usize {
            return Err(GraphError::TooLarge);
        }
        let id = EdgeId(self.endpoints.len() as u32);
        self.endpoints.push((u.raw(), v.raw()));
        Ok(id)
    }

    /// Adds `k` parallel edges between `u` and `v`, returning the id of the
    /// first one.
    pub fn add_parallel_edges(
        &mut self,
        u: NodeId,
        v: NodeId,
        k: usize,
    ) -> Result<EdgeId, GraphError> {
        let mut first = None;
        for _ in 0..k {
            let id = self.add_edge(u, v)?;
            first.get_or_insert(id);
        }
        first.ok_or(GraphError::TooLarge)
    }

    /// Packs the accumulated nodes and edges into an immutable
    /// [`MultiGraph`] with CSR incidence lists.
    pub fn build(self) -> MultiGraph {
        let n = self.num_nodes as usize;
        let m = self.endpoints.len();

        // Counting sort of the 2m (node, link) incidences into CSR layout.
        let mut counts = vec![0u32; n + 1];
        for &(u, v) in &self.endpoints {
            counts[u as usize + 1] += 1;
            counts[v as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut incidence = vec![
            IncidentLink {
                edge: EdgeId(0),
                neighbor: NodeId(0),
            };
            2 * m
        ];
        for (e, &(u, v)) in self.endpoints.iter().enumerate() {
            let eid = EdgeId(e as u32);
            let cu = cursor[u as usize] as usize;
            incidence[cu] = IncidentLink {
                edge: eid,
                neighbor: NodeId(v),
            };
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            incidence[cv] = IncidentLink {
                edge: eid,
                neighbor: NodeId(u),
            };
            cursor[v as usize] += 1;
        }

        MultiGraph {
            offsets,
            incidence,
            endpoints: self.endpoints,
        }
    }
}

/// An immutable undirected multigraph in CSR (compressed sparse row) form.
///
/// * `offsets[v]..offsets[v+1]` indexes node `v`'s incidence list inside
///   `incidence`, so neighbor iteration is a contiguous slice scan.
/// * `endpoints[e]` stores the two endpoints of edge `e`, giving O(1)
///   endpoint lookup for loss bookkeeping and DOT export.
///
/// The structure is immutable after [`MultiGraphBuilder::build`]; dynamic
/// topologies (Conjecture 4 experiments) are modeled with per-step edge
/// *activity masks* in the simulator rather than by mutating the graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiGraph {
    offsets: Vec<u32>,
    incidence: Vec<IncidentLink>,
    endpoints: Vec<(u32, u32)>,
}

impl MultiGraph {
    /// The empty graph.
    pub fn empty() -> Self {
        MultiGraphBuilder::new().build()
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E|` (parallel edges counted separately).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterator over all edge ids `0..m`.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeId> + Clone {
        (0..self.edge_count() as u32).map(EdgeId)
    }

    /// The two endpoints of edge `e` in insertion order.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let (u, v) = self.endpoints[e.index()];
        (NodeId(u), NodeId(v))
    }

    /// Given edge `e` and one endpoint `v`, returns the other endpoint.
    ///
    /// # Panics
    /// Panics in debug builds if `v` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.endpoints(e);
        debug_assert!(v == a || v == b, "{v} is not an endpoint of {e}");
        if v == a {
            b
        } else {
            a
        }
    }

    /// The incidence list of `v`: one entry per incident link.
    ///
    /// This is the `Γ(u)` the LGG protocol iterates — with multiplicity,
    /// since each parallel link can carry its own packet.
    #[inline]
    pub fn incident_links(&self, v: NodeId) -> &[IncidentLink] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.incidence[lo..hi]
    }

    /// Degree of `v` counting multiplicities (`|Γ(v)|` in the paper).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.incident_links(v).len()
    }

    /// Maximum degree `Δ = max_v |Γ(v)|`; 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Number of parallel edges between `u` and `v`.
    pub fn edge_multiplicity(&self, u: NodeId, v: NodeId) -> usize {
        self.incident_links(u)
            .iter()
            .filter(|l| l.neighbor == v)
            .count()
    }

    /// True if at least one edge joins `u` and `v`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        // Scan the smaller incidence list.
        if self.degree(u) <= self.degree(v) {
            self.incident_links(u).iter().any(|l| l.neighbor == v)
        } else {
            self.incident_links(v).iter().any(|l| l.neighbor == u)
        }
    }

    /// Sum of all degrees (= `2|E|`), a cheap sanity invariant.
    pub fn total_degree(&self) -> usize {
        self.incidence.len()
    }

    /// Returns a builder seeded with a copy of this graph, for programmatic
    /// extension (used to build the extended graph `G*` of the paper).
    pub fn to_builder(&self) -> MultiGraphBuilder {
        MultiGraphBuilder {
            num_nodes: self.node_count() as u32,
            endpoints: self.endpoints.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> MultiGraph {
        let mut b = MultiGraphBuilder::with_nodes(3);
        b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        b.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
        b.add_edge(NodeId::new(2), NodeId::new(0)).unwrap();
        b.build()
    }

    #[test]
    fn empty_graph() {
        let g = MultiGraph::empty();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn triangle_degrees_and_endpoints() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.max_degree(), 2);
        assert_eq!(
            g.endpoints(EdgeId::new(1)),
            (NodeId::new(1), NodeId::new(2))
        );
        assert_eq!(
            g.other_endpoint(EdgeId::new(1), NodeId::new(1)),
            NodeId::new(2)
        );
        assert_eq!(
            g.other_endpoint(EdgeId::new(1), NodeId::new(2)),
            NodeId::new(1)
        );
    }

    #[test]
    fn parallel_edges_counted_with_multiplicity() {
        let mut b = MultiGraphBuilder::with_nodes(2);
        let u = NodeId::new(0);
        let v = NodeId::new(1);
        b.add_parallel_edges(u, v, 4).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(u), 4);
        assert_eq!(g.degree(v), 4);
        assert_eq!(g.edge_multiplicity(u, v), 4);
        assert_eq!(g.edge_multiplicity(v, u), 4);
        assert!(g.has_edge(u, v));
        // All four incident links point at v but carry distinct edge ids.
        let ids: std::collections::HashSet<_> =
            g.incident_links(u).iter().map(|l| l.edge).collect();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = MultiGraphBuilder::with_nodes(1);
        assert_eq!(
            b.add_edge(NodeId::new(0), NodeId::new(0)),
            Err(GraphError::SelfLoop(NodeId::new(0)))
        );
    }

    #[test]
    fn invalid_endpoints_rejected() {
        let mut b = MultiGraphBuilder::with_nodes(2);
        assert_eq!(
            b.add_edge(NodeId::new(0), NodeId::new(5)),
            Err(GraphError::InvalidNode(NodeId::new(5)))
        );
        assert_eq!(
            b.add_edge(NodeId::new(9), NodeId::new(1)),
            Err(GraphError::InvalidNode(NodeId::new(9)))
        );
    }

    #[test]
    fn isolated_nodes_have_empty_incidence() {
        let mut b = MultiGraphBuilder::with_nodes(3);
        b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let g = b.build();
        assert_eq!(g.degree(NodeId::new(2)), 0);
        assert!(g.incident_links(NodeId::new(2)).is_empty());
        assert!(!g.has_edge(NodeId::new(2), NodeId::new(0)));
    }

    #[test]
    fn total_degree_is_twice_edges() {
        let g = triangle();
        assert_eq!(g.total_degree(), 2 * g.edge_count());
    }

    #[test]
    fn to_builder_round_trip_preserves_graph() {
        let g = triangle();
        let g2 = g.to_builder().build();
        assert_eq!(g, g2);
    }

    #[test]
    fn to_builder_extension_keeps_existing_edges() {
        let g = triangle();
        let mut b = g.to_builder();
        let w = b.add_node();
        b.add_edge(NodeId::new(0), w).unwrap();
        let g2 = b.build();
        assert_eq!(g2.node_count(), 4);
        assert_eq!(g2.edge_count(), 4);
        assert_eq!(g2.degree(NodeId::new(0)), 3);
        assert_eq!(g2.degree(w), 1);
        // Original edge ids keep their endpoints.
        for e in g.edges() {
            assert_eq!(g.endpoints(e), g2.endpoints(e));
        }
    }

    #[test]
    fn serde_round_trip() {
        let g = triangle();
        let json = serde_json::to_string(&g).unwrap();
        let g2: MultiGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::new(4).to_string(), "v4");
        assert_eq!(EdgeId::new(7).to_string(), "e7");
    }

    #[test]
    fn add_nodes_returns_first_id() {
        let mut b = MultiGraphBuilder::new();
        let first = b.add_nodes(5);
        assert_eq!(first, NodeId::new(0));
        let next = b.add_nodes(3);
        assert_eq!(next, NodeId::new(5));
        assert_eq!(b.node_count(), 8);
    }
}
