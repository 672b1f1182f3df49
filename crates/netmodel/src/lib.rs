#![warn(missing_docs)]

//! # netmodel — the paper's network definitions, executable
//!
//! This crate turns Sections II, IV and V of *Stability of a localized and
//! greedy routing algorithm* (IPPS 2010) into data types:
//!
//! * [`TrafficSpec`] — an **S-D-network** (Section II) or, with a positive
//!   retention constant `R` and nodes that both inject and extract, an
//!   **R-generalized S-D-network** (Definitions 5–8). A classic
//!   S-D-network is exactly a 0-generalized one, as the paper remarks.
//! * [`ExtendedNetwork`] — the extended multigraph `G*` of Fig. 2 / Fig. 4:
//!   virtual source `s*` and sink `d*` with capacity-`in(v)` / `out(v)`
//!   links, on top of unit-capacity network edges.
//! * [`classify()`] — the feasibility trichotomy driving the paper's case
//!   analysis: **infeasible** (arrival rate exceeds every flow, Theorem 1's
//!   divergence half), **saturated** (feasible but with no slack, Section
//!   V), or **unsaturated** with an explicit margin `ε` (Definition 4,
//!   Section III), plus the min-cut *location* (cases 1–3 of Section V).
//! * [`cutdecomp`] — the Section V-C induction step: split `G` along an
//!   interior minimum cut `(A, B)` of `G*` into the generalized networks
//!   `B'` (border nodes become pseudo-sources injecting `|Γ_A(v)| + in(v)`)
//!   and `A'` (border nodes become `R_B`-pseudo-destinations extracting
//!   `|Γ_B(v)| + out(v)`).

pub mod classify;
pub mod cutdecomp;
pub mod extended;
mod spec;

pub use classify::{capacity_scaling, classify, is_feasible_at, is_feasible_scaled, CutCase, Feasibility, NetworkClass};
pub use cutdecomp::{cut_membership, decompose_at_cut, find_interior_min_cut, CutDecomposition, CutMembership};
pub use extended::ExtendedNetwork;
pub use spec::{NodeKind, TrafficIndex, TrafficSpec, TrafficSpecBuilder};

/// Errors raised while constructing or validating network specifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A node id referenced by the traffic specification does not exist.
    UnknownNode(u32),
    /// The same node was declared a source/sink twice in the builder.
    DuplicateTraffic(u32),
    /// A classic S-D-network requires disjoint sources and sinks; this node
    /// was given both `in > 0` and `out > 0` while `retention == 0` was
    /// requested through the strict builder.
    OverlappingRoles(u32),
    /// Rates must be positive where declared (`in(s) > 0`, `out(d) > 0`).
    ZeroRate(u32),
    /// The specification has no source or no sink.
    MissingTerminals,
    /// The retention constant is `u64::MAX`, which a lie could then equal;
    /// the simulation engine reserves that value for "truthful".
    RetentionTooLarge,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::UnknownNode(v) => write!(f, "unknown node id {v}"),
            ModelError::DuplicateTraffic(v) => {
                write!(f, "node {v} given traffic parameters twice")
            }
            ModelError::OverlappingRoles(v) => write!(
                f,
                "node {v} is both source and sink in a classic S-D-network"
            ),
            ModelError::ZeroRate(v) => write!(f, "node {v} declared with zero rate"),
            ModelError::MissingTerminals => {
                write!(f, "network needs at least one source and one sink")
            }
            ModelError::RetentionTooLarge => {
                write!(f, "retention must be below {}", u64::MAX)
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages() {
        assert!(ModelError::UnknownNode(3).to_string().contains('3'));
        assert!(ModelError::MissingTerminals.to_string().contains("source"));
        assert!(ModelError::OverlappingRoles(1).to_string().contains("both"));
        assert!(ModelError::ZeroRate(2).to_string().contains("zero"));
        assert!(ModelError::DuplicateTraffic(9).to_string().contains("twice"));
    }
}
