#![warn(missing_docs)]

//! # maxflow — flow and cut algorithms for the LGG reproduction
//!
//! The stability theory of *Stability of a localized and greedy routing
//! algorithm* (IPPS 2010) is phrased entirely in terms of maximum flows and
//! minimum cuts on the extended graph `G*`:
//!
//! * **feasibility** of an S-D-network (Def. 3) asks for an `s*`–`d*` flow
//!   saturating every `(s*, s)` link;
//! * **unsaturation** (Def. 4) asks for slack `(1+ε)·in(s)` on those links;
//! * the **induction** of Section V-C splits the network along a minimum
//!   cut of `G*`;
//! * the protocol itself "can be related to the distributed algorithm for
//!   the maximum flow problem proposed by Goldberg and Tarjan" — so the
//!   Goldberg–Tarjan **push–relabel** algorithm is implemented alongside
//!   the augmenting-path classics ([`Algorithm::EdmondsKarp`], [`Algorithm::Dinic`]) and they are
//!   cross-checked against each other in the property tests.
//!
//! The central type is [`FlowNetwork`], a directed residual network with
//! paired arcs. Undirected multigraph edges (capacity 1 per link in the
//! paper's model) enter via [`FlowNetwork::add_undirected`], using the
//! standard equivalence between an undirected edge of capacity `c` and a
//! pair of opposed directed arcs of capacity `c`.
//!
//! ```
//! use maxflow::{Algorithm, FlowNetwork};
//!
//! // s --2--> a --1--> t   plus   s --1--> t
//! let mut net = FlowNetwork::new(3);
//! let (s, a, t) = (0, 1, 2);
//! net.add_arc(s, a, 2);
//! net.add_arc(a, t, 1);
//! net.add_arc(s, t, 1);
//! assert_eq!(net.max_flow(s, t, Algorithm::PushRelabel), 2);
//! ```

mod decompose;
mod dinic;
mod edmonds_karp;
mod mincut;
mod network;
mod push_relabel;

pub use decompose::{decompose_paths, FlowPath};
pub use mincut::{min_cut_side, MinCut};
pub use network::{ArcId, FlowNetwork};

/// Selects which max-flow algorithm [`FlowNetwork::max_flow`] runs.
///
/// All three compute the same value (verified by property tests); they
/// differ in complexity and constants:
///
/// * [`Algorithm::EdmondsKarp`] — `O(V E²)`; simple reference implementation.
/// * [`Algorithm::Dinic`] — `O(V² E)` (and `O(E √V)` on unit networks,
///   which the paper's `G*` almost is); the default.
/// * [`Algorithm::PushRelabel`] — Goldberg–Tarjan FIFO push–relabel with
///   the gap heuristic, `O(V³)`; the algorithm the paper cites as the
///   centralized ancestor of LGG. [`Algorithm::PushRelabelHighest`]
///   (highest-label selection, `O(V²√E)`) and
///   [`Algorithm::PushRelabelNoGap`] (FIFO without the gap heuristic)
///   exist for the DESIGN.md §6 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// BFS augmenting paths (Edmonds–Karp).
    EdmondsKarp,
    /// Blocking flows on level graphs (Dinic).
    Dinic,
    /// FIFO push–relabel with gap heuristic (Goldberg–Tarjan).
    PushRelabel,
    /// Highest-label push–relabel with gap heuristic.
    PushRelabelHighest,
    /// FIFO push–relabel without the gap heuristic (ablation).
    PushRelabelNoGap,
}

impl Algorithm {
    /// All available algorithms, for cross-checking and benches.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::EdmondsKarp,
        Algorithm::Dinic,
        Algorithm::PushRelabel,
        Algorithm::PushRelabelHighest,
        Algorithm::PushRelabelNoGap,
    ];

    /// Short stable name for reports and bench ids.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::EdmondsKarp => "edmonds-karp",
            Algorithm::Dinic => "dinic",
            Algorithm::PushRelabel => "push-relabel",
            Algorithm::PushRelabelHighest => "push-relabel-highest",
            Algorithm::PushRelabelNoGap => "push-relabel-nogap",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_are_distinct() {
        let names: std::collections::HashSet<_> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), Algorithm::ALL.len());
        assert_eq!(Algorithm::Dinic.to_string(), "dinic");
    }
}
