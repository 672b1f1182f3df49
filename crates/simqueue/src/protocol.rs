//! The routing-protocol interface: what a distributed algorithm sees and
//! what it may do.

use mgraph::{EdgeId, MultiGraph, NodeId};
use netmodel::TrafficSpec;

/// One planned packet transmission: a link plus the sending endpoint.
/// The receiver is the link's other endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transmission {
    /// The link carrying the packet this step.
    pub edge: EdgeId,
    /// The endpoint that sends (and loses) the packet.
    pub from: NodeId,
}

/// Everything a protocol may look at when planning step `t`.
///
/// A *localized* protocol like LGG restricts itself to `declared` values of
/// neighbors — that is the whole point of the paper. Baselines that need
/// global information (max-flow routing) may read the spec and topology;
/// the engine also exposes true queue lengths so that non-lying baselines
/// and analysis probes can be written, but honest localized protocols
/// should treat `declared` as the ground truth, since R-generalized nodes
/// are allowed to lie below their retention constant.
pub struct NetView<'a> {
    /// The (static) multigraph `G`.
    pub graph: &'a MultiGraph,
    /// The traffic specification (rates, retention).
    pub spec: &'a TrafficSpec,
    /// Declared queue length per node — what neighbors *see* — as an
    /// overlay on `true_queues`: the entry `u64::MAX` means "truthful,
    /// read the queue" (the engine writes real values at special nodes
    /// only). Read it through [`NetView::declared_of`], never directly.
    pub declared: &'a [u64],
    /// True queue length per node — for baselines/analysis only.
    pub true_queues: &'a [u64],
    /// Which links are usable this step (dynamic topologies).
    pub active_edges: &'a [bool],
    /// Nodes that can possibly send this step: a sorted, duplicate-free
    /// list guaranteed to contain every node with a nonzero true queue
    /// (nodes with empty queues may also appear — e.g. a full-scan
    /// stepper may list all of `V`). Protocols whose transmissions are
    /// budgeted by the true queue can iterate this instead of
    /// `graph.nodes()` to skip idle regions; the plans produced must be
    /// identical either way, since a node with `q = 0` has no budget.
    pub active_nodes: &'a [NodeId],
    /// The current time step.
    pub t: u64,
}

impl NetView<'_> {
    /// Declared queue of `v`: its `declared` entry, or its true queue where
    /// that entry is the `u64::MAX` "truthful" sentinel.
    #[inline]
    pub fn declared_of(&self, v: NodeId) -> u64 {
        // Both loads are unconditional so the choice compiles to a select.
        let (d, q) = (self.declared[v.index()], self.true_queues[v.index()]);
        if d == u64::MAX { q } else { d }
    }

    /// True queue of `v`.
    #[inline]
    pub fn queue_of(&self, v: NodeId) -> u64 {
        self.true_queues[v.index()]
    }

    /// Is link `e` active this step?
    #[inline]
    pub fn is_active(&self, e: EdgeId) -> bool {
        self.active_edges[e.index()]
    }
}

/// A distributed routing protocol: given the current view, emit the set
/// `E_t` of transmissions.
///
/// Contract (enforced by the engine, so violations degrade into dropped
/// plans rather than corrupting state):
///
/// * at most one transmission per link per step,
/// * a node may not send more packets than its queue holds,
/// * inactive links carry nothing.
pub trait RoutingProtocol {
    /// Stable, short name for reports and benches.
    fn name(&self) -> &'static str;

    /// Plans the transmissions for the current step, appending to `out`
    /// (which arrives empty). Implementations should not allocate per step
    /// beyond `out` growth; reusable scratch belongs in `self`.
    fn plan(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>);

    /// Resets internal state for a fresh run (default: nothing).
    fn reset(&mut self) {}

    /// Appends the protocol's evolving state to `out` for a checkpoint
    /// (see [`crate::checkpoint`], and [`crate::checkpoint::wire`] for the
    /// encoding helpers). Stateless protocols — the default — write
    /// nothing. Protocols carrying round-robin offsets, private RNGs,
    /// learned heights etc. must write all of it, or a resumed run
    /// diverges from the uninterrupted one.
    fn save_state(&mut self, _out: &mut Vec<u8>) {}

    /// Restores state captured by [`RoutingProtocol::save_state`].
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), crate::error::LggError> {
        Ok(())
    }
}

/// The trivial protocol that never transmits — useful to test that pure
/// injection/extraction bookkeeping is correct.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProtocol;

impl RoutingProtocol for NullProtocol {
    fn name(&self) -> &'static str {
        "null"
    }

    fn plan(&mut self, _view: &NetView<'_>, _out: &mut Vec<Transmission>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_protocol_plans_nothing() {
        let g = mgraph::generators::path(3);
        let spec = netmodel::TrafficSpecBuilder::new(g.clone())
            .source(0, 1)
            .sink(2, 1)
            .build()
            .unwrap();
        let declared = vec![5, 0, 0];
        let queues = vec![5, 0, 0];
        let active = vec![true; 2];
        let nodes: Vec<NodeId> = g.nodes().collect();
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
        NullProtocol.plan(&view, &mut out);
        assert!(out.is_empty());
        assert_eq!(NullProtocol.name(), "null");
        assert_eq!(view.declared_of(NodeId::new(0)), 5);
        assert_eq!(view.queue_of(NodeId::new(1)), 0);
        assert!(view.is_active(EdgeId::new(1)));
    }
}
