//! The paper's explicit stability constants, computable per network.
//!
//! All bounds are evaluated in `f64` (they are astronomically loose —
//! the point of the drift experiments is to show *how* loose) with exact
//! integer inputs from the classifier.

use netmodel::{classify, Feasibility, TrafficSpec};

/// The constants of Lemma 1 / Properties 1–2 for an unsaturated network.
#[derive(Debug, Clone, PartialEq)]
pub struct UnsaturatedBounds {
    /// `ε = min_s (Φ(s*, s) − in(s))` certified by the classifier
    /// (a dyadic lower bound on the true margin).
    pub epsilon: f64,
    /// `f*`: max flow with unbounded source links.
    pub f_star: u64,
    /// `Y = (5 n f* / ε + 3 n) Δ²` (Property 2).
    pub y: f64,
    /// Property 1's per-step growth bound `5 n Δ²`.
    pub growth_bound: f64,
    /// Lemma 1's state bound `n Y² + 5 n Δ²` on `P_t`.
    pub state_bound: f64,
    /// Threshold `n Y²` above which Property 2 forces decrease.
    pub decrease_threshold: f64,
}

/// Computes the Lemma 1 constants; `None` when the network is not
/// certified unsaturated (the bounds only exist in that regime).
pub fn unsaturated_bounds(spec: &TrafficSpec) -> Option<UnsaturatedBounds> {
    let class = classify(spec);
    let (num, den) = match class.feasibility {
        Feasibility::Unsaturated {
            margin_num,
            margin_den,
        } => num_den(margin_num, margin_den, spec),
        _ => return None,
    };
    // ε in packet units: the margin is relative ((1+ε)·in), while the
    // paper's ε = min_s (Φ(s*,s) − in(s)) is absolute. With integer rates,
    // an absolute slack of margin·min_in is certified.
    let min_in = spec
        .in_rate
        .iter()
        .copied()
        .filter(|&r| r > 0)
        .min()
        .unwrap_or(0);
    let epsilon = (num as f64 / den as f64) * min_in as f64;
    if epsilon <= 0.0 {
        return None;
    }
    let n = spec.node_count() as f64;
    let delta = spec.max_degree() as f64;
    let f_star = class.f_star;
    let y = (5.0 * n * f_star as f64 / epsilon + 3.0 * n) * delta * delta;
    let growth_bound = 5.0 * n * delta * delta;
    let state_bound = n * y * y + growth_bound;
    Some(UnsaturatedBounds {
        epsilon,
        f_star,
        y,
        growth_bound,
        state_bound,
        decrease_threshold: n * y * y,
    })
}

fn num_den(num: u64, den: u64, _spec: &TrafficSpec) -> (u64, u64) {
    (num, den)
}

/// The constants of Properties 3–4 for an unsaturated **R-generalized**
/// network.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneralizedBounds {
    /// `|S ∪ D|`.
    pub special: u64,
    /// `out_max = max_{v∈S∪D} out(v)`.
    pub out_max: u64,
    /// Property 3's growth bound:
    /// `2|S∪D|(R+out_max)·out_max + Δ²(3n − 2|S∪D|) + 4|S∪D|ΔR`.
    pub growth_bound: f64,
}

/// Computes the Property 3 growth bound for any spec (it degenerates to a
/// `Θ(nΔ²)` bound when `R = 0`).
pub fn generalized_bounds(spec: &TrafficSpec) -> GeneralizedBounds {
    let n = spec.node_count() as f64;
    let delta = spec.max_degree() as f64;
    let sd = spec.special_count() as f64;
    let r = spec.retention as f64;
    let out_max = spec.out_max() as f64;
    let growth_bound = 2.0 * sd * (r + out_max) * out_max
        + delta * delta * (3.0 * n - 2.0 * sd)
        + 4.0 * sd * delta * r;
    GeneralizedBounds {
        special: spec.special_count() as u64,
        out_max: spec.out_max(),
        growth_bound,
    }
}

/// Conjecture 2's window-feasibility condition, executable: feed the
/// cyclic per-step **total** injection schedule through a token-bucket
/// deficit process `D_{t+1} = max(0, D_t + in_t − f*)`.
///
/// * the schedule is *window-feasible* iff the deficit stays bounded,
///   which for a cyclic schedule happens exactly when the per-cycle sum is
///   at most `f* · cycle_len`;
/// * the returned `max_deficit` is the peak excess the network must buffer
///   — the backlog amplitude the E7 experiment observes.
pub fn burst_deficit(cycle: &[u64], f_star: u64) -> (bool, u64) {
    if cycle.is_empty() {
        return (true, 0);
    }
    let sum: u64 = cycle.iter().sum();
    let feasible = sum <= f_star * cycle.len() as u64;
    // One warm-up cycle reaches the periodic regime; the second measures
    // the stationary peak (for infeasible schedules the deficit at the end
    // of cycle two already reflects the per-cycle growth).
    let mut deficit: u64 = 0;
    let mut max_deficit = 0;
    for _ in 0..2 {
        for &a in cycle {
            deficit = (deficit + a).saturating_sub(f_star);
            max_deficit = max_deficit.max(deficit);
        }
    }
    (feasible, max_deficit)
}

/// The divergence rate lower bound of Theorem 1's converse: an infeasible
/// network gains at least `arrival_rate − f*` stored packets per step
/// under *any* protocol (min-cut argument of Section II), assuming no
/// losses.
pub fn divergence_rate(spec: &TrafficSpec) -> Option<u64> {
    let class = classify(spec);
    match class.feasibility {
        Feasibility::Infeasible { .. } => Some(class.arrival_rate - class.f_star),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgraph::generators;
    use netmodel::TrafficSpecBuilder;

    #[test]
    fn unsaturated_bounds_exist_only_with_slack() {
        let wide = TrafficSpecBuilder::new(generators::complete(6))
            .source(0, 1)
            .sink(5, 5)
            .build()
            .unwrap();
        let b = unsaturated_bounds(&wide).expect("wide network is unsaturated");
        assert!(b.epsilon > 0.0);
        assert!(b.y > 0.0);
        assert_eq!(b.f_star, 5);
        // n = 6, Δ = 5 -> growth bound 5·6·25 = 750.
        assert_eq!(b.growth_bound, 750.0);
        assert!(b.state_bound > b.decrease_threshold);

        let saturated = TrafficSpecBuilder::new(generators::path(4))
            .source(0, 1)
            .sink(3, 1)
            .build()
            .unwrap();
        assert!(unsaturated_bounds(&saturated).is_none());

        let infeasible = TrafficSpecBuilder::new(generators::path(4))
            .source(0, 2)
            .sink(3, 2)
            .build()
            .unwrap();
        assert!(unsaturated_bounds(&infeasible).is_none());
    }

    #[test]
    fn y_scales_inversely_with_epsilon() {
        // Same topology, smaller slack -> larger Y.
        let slack2 = TrafficSpecBuilder::new(generators::parallel_pair(4))
            .source(0, 1)
            .sink(1, 4)
            .build()
            .unwrap();
        let slack1 = TrafficSpecBuilder::new(generators::parallel_pair(2))
            .source(0, 1)
            .sink(1, 2)
            .build()
            .unwrap();
        let b2 = unsaturated_bounds(&slack2).unwrap();
        let b1 = unsaturated_bounds(&slack1).unwrap();
        assert!(b2.epsilon > b1.epsilon);
        // Y also depends on Δ (= 4 vs 2) and f*; normalize those away.
        let y2_norm = b2.y / (4.0 * 4.0) - 3.0 * 2.0;
        let y1_norm = b1.y / (2.0 * 2.0) - 3.0 * 2.0;
        // y_norm = 5 n f*/ε; with f*2 = 4, f*1 = 2: ratio = (4/3)/(2/1) · ... just check ordering via ε.
        assert!(y2_norm / b2.f_star as f64 <= y1_norm / b1.f_star as f64);
    }

    #[test]
    fn generalized_bounds_reduce_when_r_zero() {
        let spec = TrafficSpecBuilder::new(generators::path(4))
            .source(0, 1)
            .sink(3, 2)
            .build()
            .unwrap();
        let g = generalized_bounds(&spec);
        assert_eq!(g.special, 2);
        assert_eq!(g.out_max, 2);
        // R = 0: growth = 2·2·(0+2)·2 + Δ²(3n−4) + 0 = 16 + 4·8 = 48.
        assert_eq!(g.growth_bound, 48.0);
    }

    #[test]
    fn generalized_bounds_grow_with_r() {
        let mk = |r| {
            TrafficSpecBuilder::new(generators::path(4))
                .source(0, 1)
                .sink(3, 2)
                .retention(r)
                .build()
                .unwrap()
        };
        let g0 = generalized_bounds(&mk(0));
        let g5 = generalized_bounds(&mk(5));
        assert!(g5.growth_bound > g0.growth_bound);
    }

    #[test]
    fn burst_deficit_feasibility_frontier() {
        // bursts of 2 for 5 steps, quiet for 5: cycle sum 10 = f*·10 at
        // f* = 1 — exactly feasible, peak deficit 5.
        let cycle: Vec<u64> = [2u64; 5].iter().chain([0u64; 5].iter()).copied().collect();
        let (ok, peak) = burst_deficit(&cycle, 1);
        assert!(ok);
        assert_eq!(peak, 5);
        // quiet only 4: cycle sum 10 > 9 -> infeasible.
        let cycle: Vec<u64> = [2u64; 5].iter().chain([0u64; 4].iter()).copied().collect();
        let (ok, _) = burst_deficit(&cycle, 1);
        assert!(!ok);
        // empty schedule trivially feasible.
        assert_eq!(burst_deficit(&[], 3), (true, 0));
        // constant at capacity: zero deficit.
        assert_eq!(burst_deficit(&[3, 3, 3], 3), (true, 0));
    }

    #[test]
    fn divergence_rate_matches_excess() {
        let spec = TrafficSpecBuilder::new(generators::path(4))
            .source(0, 3)
            .sink(3, 3)
            .build()
            .unwrap();
        assert_eq!(divergence_rate(&spec), Some(2)); // rate 3, f* = 1

        let ok = TrafficSpecBuilder::new(generators::path(4))
            .source(0, 1)
            .sink(3, 1)
            .build()
            .unwrap();
        assert_eq!(divergence_rate(&ok), None);
    }
}
