//! Feasibility classification of (R-generalized) S-D-networks.
//!
//! Implements Definitions 3 and 4 plus the case analysis of Section V:
//!
//! * **Infeasible** — no `s*`–`d*` flow saturates the source links; by the
//!   min-cut argument in Section II, *every* protocol diverges (Theorem 1's
//!   converse half).
//! * **Saturated** — feasible, but no ε-inflation is (Definition 4's
//!   complement). Stability then needs the full machinery of Sections IV–V.
//! * **Unsaturated** — a flow exists even when every `in(v)` is inflated to
//!   `(1+ε)·in(v)`; Lemma 1 applies and LGG is unconditionally stable. The
//!   classifier reports the largest dyadic margin `ε` below the capacity
//!   radius, which feeds the paper's explicit bound `Y = (5 n f*/ε + 3n) Δ²`.
//!
//! All tests are exact: a rate `λ = num/den` is handled by integer-scaling
//! edge capacities by `den` and source links by `num`. No floating point.

use maxflow::Algorithm;
use mgraph::ops::cut_size;
use serde::{Deserialize, Serialize};

use crate::{ExtendedNetwork, TrafficSpec};

/// Where the minimum cut of `G*` sits — the trichotomy of Section V.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CutCase {
    /// Case 1: the unique minimum cut is `({s*}, V ∪ {d*} \ {s*})`; the
    /// network is unsaturated (Section V-A).
    SourceSingletonUnique,
    /// Case 2: a second minimum cut sits at the virtual destination
    /// (`B = {d*}`); the network is saturated at the sinks (Section V-B).
    SinkSaturated,
    /// Case 3: an interior minimum cut `(A, B)` exists with
    /// `1 < |A|` (beyond `s*`); the induction of Section V-C applies.
    /// Carries the source side of the *maximal* such cut restricted to `G`'s
    /// nodes (`true` = in `A`).
    Interior {
        /// `side[v]` for `v` in `G` (without the virtual terminals).
        side: Vec<bool>,
    },
}

/// Feasibility verdict per Definitions 3–4, with certified slack for
/// unsaturated networks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Feasibility {
    /// Arrival rate not shippable: `max-flow < Σ in(v)`.
    Infeasible {
        /// Value of the maximum `s*`–`d*` flow with capacities `in(v)`.
        max_flow: u64,
        /// The requested arrival rate `Σ in(v)`.
        arrival_rate: u64,
    },
    /// Feasible but with zero slack: no `ε > 0` admits an inflated flow.
    Saturated,
    /// Strictly feasible (Definition 4) with certified dyadic slack.
    Unsaturated {
        /// Numerator of the certified margin `ε = margin_num / margin_den`.
        margin_num: u64,
        /// Denominator (a power of two chosen by the classifier).
        margin_den: u64,
    },
}

impl Feasibility {
    /// True for both `Saturated` and `Unsaturated`.
    pub fn is_feasible(&self) -> bool {
        !matches!(self, Feasibility::Infeasible { .. })
    }

    /// The certified margin as a float (0 when saturated/infeasible).
    pub fn margin(&self) -> f64 {
        match self {
            Feasibility::Unsaturated {
                margin_num,
                margin_den,
            } => *margin_num as f64 / *margin_den as f64,
            _ => 0.0,
        }
    }
}

/// Full classification of a network: feasibility, `f*`, and cut location.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkClass {
    /// Definition 3/4 verdict.
    pub feasibility: Feasibility,
    /// `f*`: max flow with unbounded source links (Section II).
    pub f_star: u64,
    /// Arrival rate `Σ in(v)`.
    pub arrival_rate: u64,
    /// Section V case analysis (only meaningful when feasible).
    pub cut_case: CutCase,
}

/// Denominator of the dyadic grid the classifier reports on: margins and
/// radii are multiples of `1/4096`.
pub const EPS_DENOMINATOR: u64 = 4096;

/// Classifies `spec` per Definitions 3–4 and locates the minimum cut per
/// Section V. An `Unsaturated` margin is the largest `ε = p /
/// EPS_DENOMINATOR` with `1 + ε` at most the capacity radius λ*, capped at
/// ε = 16 (far beyond any relevant slack). λ* is exact, from Dinkelbach's
/// iteration on the minimum cuts of `G*` (about two max-flow solves), so
/// the margin is feasible and the next grid point is not.
///
/// ```
/// use netmodel::{classify, Feasibility, TrafficSpecBuilder};
///
/// // A unit path loaded at exactly its capacity: feasible, zero slack.
/// let spec = TrafficSpecBuilder::new(mgraph::generators::path(4))
///     .source(0, 1)
///     .sink(3, 1)
///     .build()
///     .unwrap();
/// assert_eq!(classify(&spec).feasibility, Feasibility::Saturated);
/// ```
pub fn classify(spec: &TrafficSpec) -> NetworkClass {
    let arrival_rate = spec.arrival_rate();

    // f*: unbounded source links.
    let mut ext_fstar = ExtendedNetwork::uncapped_sources(spec);
    let f_star = ext_fstar.solve(Algorithm::Dinic) as u64;

    // Plain feasibility.
    let mut ext = ExtendedNetwork::feasibility(spec);
    let max_flow = ext.solve(Algorithm::Dinic) as u64;
    if !ext.sources_saturated() {
        return NetworkClass {
            feasibility: Feasibility::Infeasible {
                max_flow,
                arrival_rate,
            },
            f_star,
            arrival_rate,
            cut_case: cut_case_of(spec, &ext),
        };
    }

    // Feasible, so grid point q (λ = 1) is known feasible; the cap at
    // λ = 17 caps the margin at ε = 16.
    let q = EPS_DENOMINATOR;
    let margin_num = dyadic_radius(spec, 17 * q, q) - q;
    let feasibility = if margin_num == 0 {
        Feasibility::Saturated
    } else {
        Feasibility::Unsaturated {
            margin_num,
            margin_den: q,
        }
    };

    NetworkClass {
        feasibility,
        f_star,
        arrival_rate,
        cut_case: cut_case_of(spec, &ext),
    }
}

/// The **capacity-region radius** λ* of the traffic pattern, on the dyadic
/// grid: the largest λ = p/[`EPS_DENOMINATOR`] such that scaling every
/// `in(v)` to `λ·in(v)` stays feasible, capped at λ = 32. λ* > 1 on
/// unsaturated networks (= 1 + ε*), λ* = 1 on saturated ones, and λ* < 1
/// quantifies **how overloaded** an infeasible network is (e.g. λ* = 1/3
/// for a path asked to carry 3×, reported as `⌊4096/3⌋ / 4096`).
pub fn capacity_scaling(spec: &TrafficSpec) -> (u64, u64) {
    let q = EPS_DENOMINATOR;
    (dyadic_radius(spec, 32 * q, 0), q)
}

/// `⌊q·min(λ*, cap/q)⌋` for `q = EPS_DENOMINATOR`, where λ* is the least
/// cut ratio `(e(∂A) + out(A)) / in(A)` over node sets `A` with
/// `in(A) > 0` (infinite when `Σ in = 0`): by the min-cut argument of
/// Section II, `λ·in` is feasible exactly when `λ <= λ*`, so this is the
/// largest feasible grid point up to the cap. `known` is a grid point the
/// caller knows to be feasible.
///
/// Dinkelbach's iteration: start at `min(Σ out / Σ in, cap/q)` and solve
/// `G*` at that rate. If the sources saturate, the rate is `min(λ*,
/// cap/q)`; otherwise the source side of the minimum cut has a ratio
/// strictly below the rate, and the next solve runs at that ratio. Every
/// rate is at least `min(λ*, cap/q)`, so once its floor on the grid is
/// down to `known`, `known` is the answer without another solve.
fn dyadic_radius(spec: &TrafficSpec, cap: u64, known: u64) -> u64 {
    let q = EPS_DENOMINATOR;
    let (total_in, total_out) = (spec.arrival_rate(), spec.extraction_rate());
    let (mut num, mut den) = if q * total_out >= cap * total_in {
        (cap, q)
    } else {
        (total_out, total_in)
    };
    loop {
        let grid = q * num / den;
        if grid <= known {
            return known;
        }
        let mut ext = ExtendedNetwork::scaled(spec, num as i64, den as i64);
        ext.solve(Algorithm::Dinic);
        if ext.sources_saturated() {
            return grid;
        }
        let side = &ext.min_cut().side[..spec.node_count()];
        let rates = spec.graph.nodes().filter(|v| side[v.index()]);
        let (in_a, out_a) = rates.fold((0, 0), |(i, o), v| {
            (i + spec.in_rate(v), o + spec.out_rate(v))
        });
        num = cut_size(&spec.graph, side) as u64 + out_a;
        den = in_a;
    }
}

/// Locates the minimum cut of the solved feasibility network per the
/// Section V trichotomy.
fn cut_case_of(spec: &TrafficSpec, ext: &ExtendedNetwork) -> CutCase {
    let n = spec.node_count();
    let min_side = ext.min_cut().side;
    let max_side = ext.max_min_cut_side();
    let min_a = min_side.iter().filter(|&&b| b).count();
    let max_a = max_side.iter().filter(|&&b| b).count();

    if min_a == 1 && max_a == 1 {
        // Unique cut hugging s*.
        return CutCase::SourceSingletonUnique;
    }
    if max_a == n + 1 {
        // The maximal cut's source side is everything but d*: a second
        // minimum cut exists at the virtual destination.
        // If the *minimal* cut is also trivial ({s*}), no interior min cut
        // separates the network strictly — Section V-B's case.
        if min_a == 1 {
            return CutCase::SinkSaturated;
        }
        // Otherwise the minimal cut is already interior; prefer it.
        return CutCase::Interior {
            side: min_side[..n].to_vec(),
        };
    }
    // Maximal cut is interior.
    CutCase::Interior {
        side: max_side[..n].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrafficSpecBuilder;
    use mgraph::generators;

    #[test]
    fn wide_network_is_unsaturated_with_large_margin() {
        // K6, single source rate 1, sink rate 5: lots of slack.
        let spec = TrafficSpecBuilder::new(generators::complete(6))
            .source(0, 1)
            .sink(5, 5)
            .build()
            .unwrap();
        let class = classify(&spec);
        assert!(matches!(class.feasibility, Feasibility::Unsaturated { .. }));
        assert!(
            class.feasibility.margin() >= 1.0,
            "margin {}",
            class.feasibility.margin()
        );
        assert_eq!(class.cut_case, CutCase::SourceSingletonUnique);
        assert_eq!(class.f_star, 5);
        assert_eq!(class.arrival_rate, 1);
    }

    #[test]
    fn path_at_capacity_is_saturated() {
        // Path with in = 1 = edge capacity: feasible, zero slack.
        let spec = TrafficSpecBuilder::new(generators::path(4))
            .source(0, 1)
            .sink(3, 1)
            .build()
            .unwrap();
        let class = classify(&spec);
        assert_eq!(class.feasibility, Feasibility::Saturated);
        assert!(class.feasibility.is_feasible());
        assert_eq!(class.feasibility.margin(), 0.0);
    }

    #[test]
    fn overloaded_path_is_infeasible() {
        let spec = TrafficSpecBuilder::new(generators::path(4))
            .source(0, 3)
            .sink(3, 3)
            .build()
            .unwrap();
        let class = classify(&spec);
        assert_eq!(
            class.feasibility,
            Feasibility::Infeasible {
                max_flow: 1,
                arrival_rate: 3
            }
        );
        assert!(!class.feasibility.is_feasible());
        assert_eq!(class.f_star, 1);
    }

    #[test]
    fn sink_limited_network_is_saturated_at_destination() {
        // Wide graph but out(d) = in(s): the cut at d* is also minimum.
        let spec = TrafficSpecBuilder::new(generators::complete(5))
            .source(0, 2)
            .sink(4, 2)
            .build()
            .unwrap();
        let class = classify(&spec);
        assert_eq!(class.feasibility, Feasibility::Saturated);
        assert_eq!(class.cut_case, CutCase::SinkSaturated);
    }

    #[test]
    fn bottleneck_cut_is_interior() {
        // Dumbbell: source in the left clique at full bridge capacity; the
        // min cut is the bridge, strictly inside G.
        let spec = TrafficSpecBuilder::new(generators::dumbbell(4, 2))
            .source(0, 1)
            .sink(9, 4)
            .build()
            .unwrap();
        let class = classify(&spec);
        assert_eq!(class.feasibility, Feasibility::Saturated);
        match &class.cut_case {
            CutCase::Interior { side } => {
                assert_eq!(side.len(), 10);
                // Left clique on the A side, right clique on B.
                assert!(side[0] && side[1] && side[2] && side[3]);
                assert!(!side[9]);
            }
            other => panic!("expected interior cut, got {other:?}"),
        }
    }

    #[test]
    fn margin_matches_known_capacity_ratio() {
        // parallel_pair(3): capacity 3, in = 1 -> max ε = 2 exactly.
        let spec = TrafficSpecBuilder::new(generators::parallel_pair(3))
            .source(0, 1)
            .sink(1, 3)
            .build()
            .unwrap();
        let class = classify(&spec);
        match class.feasibility {
            Feasibility::Unsaturated {
                margin_num,
                margin_den,
            } => {
                assert_eq!(margin_num, 2 * margin_den); // ε = 2
            }
            other => panic!("expected unsaturated, got {other:?}"),
        }
    }

    /// Is `λ·in` feasible at `λ = num/den`?
    fn feasible(spec: &TrafficSpec, num: i64, den: i64) -> bool {
        let mut ext = ExtendedNetwork::scaled(spec, num, den);
        ext.solve(Algorithm::Dinic);
        ext.sources_saturated()
    }

    #[test]
    fn is_feasible_at_is_monotone_in_eps() {
        let spec = TrafficSpecBuilder::new(generators::parallel_pair(2))
            .source(0, 1)
            .sink(1, 2)
            .build()
            .unwrap();
        assert!(feasible(&spec, 1, 1)); // ε = 0
        assert!(feasible(&spec, 2, 1)); // ε = 1 exactly: cap 2 = 2·in
        assert!(!feasible(&spec, 5, 2)); // ε = 1.5
        assert!(!feasible(&spec, 3, 1)); // ε = 2
    }

    #[test]
    fn multi_source_multi_sink_classification() {
        // Grid with two sources and two sinks, modest rates.
        let spec = TrafficSpecBuilder::new(generators::grid2d(4, 4))
            .source(0, 1)
            .source(3, 1)
            .sink(12, 2)
            .sink(15, 2)
            .build()
            .unwrap();
        let class = classify(&spec);
        assert!(class.feasibility.is_feasible());
        assert!(class.f_star >= 2);
    }

    #[test]
    fn capacity_scaling_brackets_the_feasibility_frontier() {
        // Overloaded path at 3×: λ* = 1/3 exactly.
        let spec = TrafficSpecBuilder::new(generators::path(4))
            .source(0, 3)
            .sink(3, 3)
            .build()
            .unwrap();
        let (num, den) = capacity_scaling(&spec);
        // 1/3 is not dyadic: the certified λ* is the largest grid point
        // at or below it.
        assert!(
            3 * num <= den && den < 3 * (num + 1),
            "λ* should bracket 1/3: {num}/{den}"
        );

        // Saturated path: λ* = 1.
        let spec = TrafficSpecBuilder::new(generators::path(4))
            .source(0, 1)
            .sink(3, 1)
            .build()
            .unwrap();
        let (num, den) = capacity_scaling(&spec);
        assert_eq!(num, den);

        // parallel-pair(4) at rate 1: λ* = 4.
        let spec = TrafficSpecBuilder::new(generators::parallel_pair(4))
            .source(0, 1)
            .sink(1, 4)
            .build()
            .unwrap();
        let (num, den) = capacity_scaling(&spec);
        assert_eq!(num, 4 * den);
    }

    #[test]
    fn is_feasible_scaled_is_monotone() {
        let spec = TrafficSpecBuilder::new(generators::path(4))
            .source(0, 2)
            .sink(3, 2)
            .build()
            .unwrap();
        // λ = 1/2 feasible (effective rate 1 = cut), λ = 3/4 not.
        assert!(feasible(&spec, 1, 2));
        assert!(!feasible(&spec, 3, 4));
        assert!(feasible(&spec, 0, 1));
    }

    #[test]
    fn radius_is_the_least_cut_ratio() {
        let q = EPS_DENOMINATOR;
        // 5×5 grid, corner source at 1, far corner sink at 4: the source
        // corner's two links are the tightest cut, λ* = 2.
        let spec = TrafficSpecBuilder::new(generators::grid2d(5, 5))
            .source(0, 1)
            .sink(24, 4)
            .build()
            .unwrap();
        assert_eq!(dyadic_radius(&spec, 17 * q, q), 2 * q);
        // Capped: λ* = 8 on parallel_pair(8) but the cap is 4.
        let spec = TrafficSpecBuilder::new(generators::parallel_pair(8))
            .source(0, 1)
            .sink(1, 8)
            .build()
            .unwrap();
        assert_eq!(dyadic_radius(&spec, 4 * q, 0), 4 * q);
        // No injection: λ* is infinite, the cap is the answer.
        let spec = TrafficSpec::new(generators::path(2), vec![0, 0], vec![0, 1], 0);
        assert_eq!(capacity_scaling(&spec), (32 * q, q));
    }

    #[test]
    fn serde_round_trip() {
        let spec = TrafficSpecBuilder::new(generators::path(3))
            .source(0, 1)
            .sink(2, 1)
            .build()
            .unwrap();
        let class = classify(&spec);
        let json = serde_json::to_string(&class).unwrap();
        let back: NetworkClass = serde_json::from_str(&json).unwrap();
        assert_eq!(class, back);
    }
}
