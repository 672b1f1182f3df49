//! Traffic specifications: S-D-networks and R-generalized S-D-networks.

use mgraph::{MultiGraph, NodeId};
use serde::{Deserialize, Serialize};

use crate::ModelError;

/// The role a node plays under Definition 7 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// Plain relay: `in(v) = out(v) = 0`, classic forwarding behavior.
    Relay,
    /// R-generalized **source**: `in(v) > out(v)` (includes classic sources,
    /// which have `out = 0`).
    Source,
    /// R-generalized **destination**: `in(v) <= out(v)` with `out > 0`
    /// (includes classic sinks, which have `in = 0`).
    Destination,
}

/// A (possibly R-generalized) S-D-network: a multigraph plus per-node
/// injection and extraction rates and a retention constant `R`.
///
/// * `retention == 0` and disjoint `in`/`out` supports ⇒ a **classic
///   S-D-network** (Section II). The paper proves every such network is a
///   0-generalized network, and [`TrafficSpec::is_classic`] reflects that.
/// * `retention > 0` or overlapping supports ⇒ a proper **R-generalized
///   S-D-network** (Definition 8): generalized destinations may *retain* up
///   to `R` packets and may *lie* about their queue size when it is `<= R`
///   (Definition 6(ii)); generalized sources are *pseudo-sources* that
///   inject **at most** `in(v)` (Definition 5).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// The underlying multigraph `G`.
    pub graph: MultiGraph,
    /// `in(v)` per node; 0 for plain relays.
    pub in_rate: Vec<u64>,
    /// `out(v)` per node; 0 for plain relays.
    pub out_rate: Vec<u64>,
    /// The retention constant `R >= 0` of Definitions 6–8.
    pub retention: u64,
}

impl TrafficSpec {
    /// Creates a spec with explicit rate vectors.
    ///
    /// # Panics
    /// Panics if the vectors do not match the graph's node count.
    pub fn new(graph: MultiGraph, in_rate: Vec<u64>, out_rate: Vec<u64>, retention: u64) -> Self {
        assert_eq!(in_rate.len(), graph.node_count(), "in_rate length");
        assert_eq!(out_rate.len(), graph.node_count(), "out_rate length");
        TrafficSpec {
            graph,
            in_rate,
            out_rate,
            retention,
        }
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Maximum degree `Δ` of the underlying multigraph.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.graph.max_degree()
    }

    /// `in(v)`.
    #[inline]
    pub fn in_rate(&self, v: NodeId) -> u64 {
        self.in_rate[v.index()]
    }

    /// `out(v)`.
    #[inline]
    pub fn out_rate(&self, v: NodeId) -> u64 {
        self.out_rate[v.index()]
    }

    /// The paper's node trichotomy (Definition 7: source iff
    /// `in(v) > out(v)`, destination otherwise among special nodes).
    pub fn kind(&self, v: NodeId) -> NodeKind {
        let (i, o) = (self.in_rate[v.index()], self.out_rate[v.index()]);
        if i == 0 && o == 0 {
            NodeKind::Relay
        } else if i > o {
            NodeKind::Source
        } else {
            NodeKind::Destination
        }
    }

    /// Nodes with `in(v) > 0` (injectors; the set `S` for classic networks).
    pub fn sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.nodes().filter(|v| self.in_rate[v.index()] > 0)
    }

    /// Nodes with `out(v) > 0` (extractors; the set `D` for classic
    /// networks).
    pub fn sinks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.nodes().filter(|v| self.out_rate[v.index()] > 0)
    }

    /// Is `v` in the special set `S ∪ D` (any nonzero rate)? Only these
    /// nodes may retain packets and lie about their queue (Definition 6).
    #[inline]
    pub fn is_special(&self, v: NodeId) -> bool {
        self.in_rate[v.index()] > 0 || self.out_rate[v.index()] > 0
    }

    /// The special set `S ∪ D`: nodes with any nonzero rate.
    pub fn special_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.nodes().filter(|&v| self.is_special(v))
    }

    /// `|S ∪ D|`, the constant appearing in Properties 3–6.
    pub fn special_count(&self) -> usize {
        self.special_nodes().count()
    }

    /// The arrival rate `Σ_s in(s)`.
    pub fn arrival_rate(&self) -> u64 {
        self.in_rate.iter().sum()
    }

    /// The total extraction capacity `Σ_d out(d)`.
    pub fn extraction_rate(&self) -> u64 {
        self.out_rate.iter().sum()
    }

    /// `out_max = max_{v ∈ S∪D} out(v)` (Properties 3–4).
    pub fn out_max(&self) -> u64 {
        self.out_rate.iter().copied().max().unwrap_or(0)
    }

    /// True iff this is a classic S-D-network: zero retention and no node
    /// both injects and extracts.
    pub fn is_classic(&self) -> bool {
        self.retention == 0
            && self
                .graph
                .nodes()
                .all(|v| self.in_rate[v.index()] == 0 || self.out_rate[v.index()] == 0)
    }

    /// Validates that at least one source and one sink exist and that the
    /// retention constant is below `u64::MAX`.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.sources().next().is_none() || self.sinks().next().is_none() {
            return Err(ModelError::MissingTerminals);
        }
        if self.retention == u64::MAX {
            return Err(ModelError::RetentionTooLarge);
        }
        Ok(())
    }
}

/// Precomputed node lists of a [`TrafficSpec`], for hot loops that would
/// otherwise filter all of `V` every step.
///
/// The simulation engine touches sources at injection and sinks at
/// extraction on *every* step; scanning `n` nodes to find the handful with
/// nonzero rates dominates on large sparse-traffic networks. The lists are
/// in increasing node order, matching the iteration order of the naive
/// `graph.nodes().filter(...)` scans they replace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficIndex {
    /// Nodes with `in(v) > 0`, ascending.
    pub sources: Vec<NodeId>,
    /// Nodes with `out(v) > 0`, ascending.
    pub sinks: Vec<NodeId>,
    /// The special set `S ∪ D` (any nonzero rate), ascending.
    pub specials: Vec<NodeId>,
}

impl TrafficIndex {
    /// Builds the index for `spec`.
    pub fn new(spec: &TrafficSpec) -> Self {
        TrafficIndex {
            sources: spec.sources().collect(),
            sinks: spec.sinks().collect(),
            specials: spec.special_nodes().collect(),
        }
    }
}

/// Ergonomic builder for [`TrafficSpec`].
///
/// ```
/// use mgraph::generators;
/// use netmodel::TrafficSpecBuilder;
///
/// let g = generators::path(4);
/// let spec = TrafficSpecBuilder::new(g)
///     .source(0, 1)
///     .sink(3, 2)
///     .build()
///     .unwrap();
/// assert!(spec.is_classic());
/// assert_eq!(spec.arrival_rate(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TrafficSpecBuilder {
    graph: MultiGraph,
    in_rate: Vec<u64>,
    out_rate: Vec<u64>,
    retention: u64,
    touched: Vec<bool>,
    strict_classic: bool,
    error: Option<ModelError>,
}

impl TrafficSpecBuilder {
    /// Starts a spec over `graph` with all nodes as relays and `R = 0`.
    pub fn new(graph: MultiGraph) -> Self {
        let n = graph.node_count();
        TrafficSpecBuilder {
            graph,
            in_rate: vec![0; n],
            out_rate: vec![0; n],
            retention: 0,
            touched: vec![false; n],
            strict_classic: true,
            error: None,
        }
    }

    fn record(&mut self, v: u32, in_r: u64, out_r: u64) {
        if self.error.is_some() {
            return;
        }
        if (v as usize) >= self.in_rate.len() {
            self.error = Some(ModelError::UnknownNode(v));
            return;
        }
        if self.touched[v as usize] {
            self.error = Some(ModelError::DuplicateTraffic(v));
            return;
        }
        if in_r == 0 && out_r == 0 {
            self.error = Some(ModelError::ZeroRate(v));
            return;
        }
        if self.strict_classic && in_r > 0 && out_r > 0 {
            self.error = Some(ModelError::OverlappingRoles(v));
            return;
        }
        self.touched[v as usize] = true;
        self.in_rate[v as usize] = in_r;
        self.out_rate[v as usize] = out_r;
    }

    /// Declares node `v` a classic source with `in(v) = rate > 0`.
    pub fn source(mut self, v: u32, rate: u64) -> Self {
        self.record(v, rate, 0);
        self
    }

    /// Declares node `v` a classic sink with `out(v) = rate > 0`.
    pub fn sink(mut self, v: u32, rate: u64) -> Self {
        self.record(v, 0, rate);
        self
    }

    /// Declares node `v` an R-generalized node with both rates
    /// (Definition 7); lifts the classic-network restriction.
    pub fn generalized(mut self, v: u32, in_rate: u64, out_rate: u64) -> Self {
        self.strict_classic = false;
        self.record(v, in_rate, out_rate);
        self
    }

    /// Sets the retention constant `R` (Definitions 6–8); lifts the
    /// classic-network restriction if `r > 0`.
    pub fn retention(mut self, r: u64) -> Self {
        if r > 0 {
            self.strict_classic = false;
        }
        self.retention = r;
        self
    }

    /// Finalizes and validates the specification.
    pub fn build(self) -> Result<TrafficSpec, ModelError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let spec = TrafficSpec {
            graph: self.graph,
            in_rate: self.in_rate,
            out_rate: self.out_rate,
            retention: self.retention,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgraph::generators;

    fn path_spec() -> TrafficSpec {
        TrafficSpecBuilder::new(generators::path(5))
            .source(0, 2)
            .sink(4, 3)
            .build()
            .unwrap()
    }

    #[test]
    fn classic_spec_basics() {
        let spec = path_spec();
        assert!(spec.is_classic());
        assert_eq!(spec.arrival_rate(), 2);
        assert_eq!(spec.extraction_rate(), 3);
        assert_eq!(spec.out_max(), 3);
        assert_eq!(spec.special_count(), 2);
        assert_eq!(spec.kind(NodeId::new(0)), NodeKind::Source);
        assert_eq!(spec.kind(NodeId::new(2)), NodeKind::Relay);
        assert_eq!(spec.kind(NodeId::new(4)), NodeKind::Destination);
        assert_eq!(spec.sources().collect::<Vec<_>>(), vec![NodeId::new(0)]);
        assert_eq!(spec.sinks().collect::<Vec<_>>(), vec![NodeId::new(4)]);
    }

    #[test]
    fn generalized_node_kinds_follow_definition7() {
        let spec = TrafficSpecBuilder::new(generators::path(3))
            .generalized(0, 5, 2) // in > out: source
            .generalized(2, 2, 2) // in <= out: destination
            .retention(3)
            .build()
            .unwrap();
        assert!(!spec.is_classic());
        assert_eq!(spec.kind(NodeId::new(0)), NodeKind::Source);
        assert_eq!(spec.kind(NodeId::new(2)), NodeKind::Destination);
        assert_eq!(spec.retention, 3);
    }

    #[test]
    fn retention_makes_network_non_classic() {
        let spec = TrafficSpecBuilder::new(generators::path(3))
            .source(0, 1)
            .sink(2, 1)
            .retention(1)
            .build()
            .unwrap();
        assert!(!spec.is_classic());
    }

    #[test]
    fn builder_rejects_unknown_node() {
        let err = TrafficSpecBuilder::new(generators::path(2))
            .source(7, 1)
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::UnknownNode(7));
    }

    #[test]
    fn builder_rejects_duplicate() {
        let err = TrafficSpecBuilder::new(generators::path(3))
            .source(0, 1)
            .sink(0, 1)
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::DuplicateTraffic(0));
    }

    #[test]
    fn builder_rejects_zero_rate() {
        let err = TrafficSpecBuilder::new(generators::path(3))
            .source(0, 0)
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::ZeroRate(0));
    }

    #[test]
    fn builder_rejects_overlap_in_classic_mode() {
        // `generalized` before any strictness matters is fine; but a plain
        // source+sink overlap is impossible because of the duplicate check,
        // so test the direct constructor path instead.
        let g = generators::path(3);
        let spec = TrafficSpec::new(g, vec![1, 0, 1], vec![1, 0, 1], 0);
        assert!(!spec.is_classic());
    }

    #[test]
    fn builder_requires_terminals() {
        let err = TrafficSpecBuilder::new(generators::path(3))
            .source(0, 1)
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::MissingTerminals);

        let err = TrafficSpecBuilder::new(generators::path(3))
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::MissingTerminals);
    }

    #[test]
    fn builder_rejects_unbounded_retention() {
        let build = |r| {
            TrafficSpecBuilder::new(generators::path(3))
                .generalized(0, 1, 1)
                .sink(2, 1)
                .retention(r)
                .build()
        };
        assert_eq!(build(u64::MAX).unwrap_err(), ModelError::RetentionTooLarge);
        assert_eq!(build(u64::MAX - 1).unwrap().retention, u64::MAX - 1);
    }

    #[test]
    fn serde_round_trip() {
        let spec = path_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let spec2: TrafficSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, spec2);
    }

    #[test]
    #[should_panic(expected = "in_rate length")]
    fn new_checks_lengths() {
        TrafficSpec::new(generators::path(3), vec![0], vec![0, 0, 0], 0);
    }
}
