//! Instrumented runs: measuring the drift `P_{t+1} − P_t` that the paper's
//! Properties 1–4 bound.

use netmodel::TrafficSpec;
use serde::{Deserialize, Serialize};
use simqueue::{SimObserver, Simulation};

/// One measured drift sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DriftSample {
    /// Step index (the transition is `t -> t+1`).
    pub t: u64,
    /// `P_t` before the step.
    pub pt: u128,
    /// `P_{t+1} − P_t`.
    pub delta: i128,
}

/// Summary of a drift trace against a Property-1-style bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftReport {
    /// Largest positive drift observed.
    pub max_delta: i128,
    /// Smallest (most negative) drift observed.
    pub min_delta: i128,
    /// Mean drift.
    pub mean_delta: f64,
    /// Number of samples with `delta > bound` (Property 1 violations).
    pub violations: usize,
    /// The bound tested against.
    pub bound: f64,
    /// Samples taken.
    pub samples: usize,
}

/// Steps `sim` for `steps` steps, recording the exact drift of the network
/// state at every transition.
pub fn measure_drift<O: SimObserver>(sim: &mut Simulation<O>, steps: u64) -> Vec<DriftSample> {
    let mut out = Vec::with_capacity(steps as usize);
    let mut pt = sim.network_state();
    for _ in 0..steps {
        let t = sim.time();
        sim.step();
        let next = sim.network_state();
        out.push(DriftSample {
            t,
            pt,
            delta: next as i128 - pt as i128,
        });
        pt = next;
    }
    out
}

/// Checks a drift trace against an upper bound (e.g. Property 1's `5nΔ²`
/// or Property 3's generalized constant).
pub fn check_drift_bound(samples: &[DriftSample], bound: f64) -> DriftReport {
    let mut max_delta = i128::MIN;
    let mut min_delta = i128::MAX;
    let mut sum = 0f64;
    let mut violations = 0usize;
    for s in samples {
        max_delta = max_delta.max(s.delta);
        min_delta = min_delta.min(s.delta);
        sum += s.delta as f64;
        if (s.delta as f64) > bound {
            violations += 1;
        }
    }
    if samples.is_empty() {
        max_delta = 0;
        min_delta = 0;
    }
    DriftReport {
        max_delta,
        min_delta,
        mean_delta: if samples.is_empty() {
            0.0
        } else {
            sum / samples.len() as f64
        },
        violations,
        bound,
        samples: samples.len(),
    }
}

/// Property-2-style conditional drift: among samples with `P_t` above
/// `threshold`, returns `(count, max_delta)` — the paper predicts strictly
/// negative drift (`< -5nΔ²`) in that regime.
pub fn conditional_drift_above(samples: &[DriftSample], threshold: f64) -> (usize, Option<i128>) {
    let mut count = 0usize;
    let mut max_delta: Option<i128> = None;
    for s in samples {
        if (s.pt as f64) > threshold {
            count += 1;
            max_delta = Some(max_delta.map_or(s.delta, |m| m.max(s.delta)));
        }
    }
    (count, max_delta)
}

/// Empirical rendition of **Definition 9** ("infinitely bounded"): a node
/// is infinitely bounded if its queue returns below some constant `M`
/// infinitely often. On a finite run we check that the queue dips to `M`
/// or below in *every* one of `windows` equal slices of the post-warm-up
/// trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundednessCensus {
    /// The threshold `M` tested.
    pub threshold: u64,
    /// Per node: number of windows (out of `windows`) in which the queue
    /// dipped to `M` or below.
    pub dips: Vec<u32>,
    /// Windows used.
    pub windows: u32,
}

impl BoundednessCensus {
    /// Nodes that dipped below the threshold in every window — the
    /// empirically infinitely-bounded set `W` of Section V-B.
    pub fn bounded_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.dips
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == self.windows)
            .map(|(v, _)| v)
    }

    /// True iff **all** nodes are infinitely bounded at this threshold —
    /// the conclusion of the Section V-B argument ("we show that V is
    /// infinitely bounded").
    pub fn all_bounded(&self) -> bool {
        self.dips.iter().all(|&d| d == self.windows)
    }
}

/// Steps `sim` for `steps` steps (after discarding `warmup`) and censuses
/// which nodes return below `threshold` in every window (Definition 9).
pub fn census_infinitely_bounded<O: SimObserver>(
    sim: &mut Simulation<O>,
    warmup: u64,
    steps: u64,
    threshold: u64,
    windows: u32,
) -> BoundednessCensus {
    assert!(windows > 0 && steps >= windows as u64);
    sim.run(warmup);
    let n = sim.queues().len();
    let mut dips = vec![0u32; n];
    let per_window = steps / windows as u64;
    for _ in 0..windows {
        let mut dipped = vec![false; n];
        for _ in 0..per_window {
            sim.step();
            for (v, &q) in sim.queues().iter().enumerate() {
                if q <= threshold {
                    dipped[v] = true;
                }
            }
        }
        for v in 0..n {
            if dipped[v] {
                dips[v] += 1;
            }
        }
    }
    BoundednessCensus {
        threshold,
        dips,
        windows,
    }
}

/// Per-node recurrence census: Definition 9 quantifies `M` per node
/// ("∃M such that ∀t₀ ∃t > t₀ with q_t(v) <= M"), so a node with a large
/// *standing* backlog still qualifies as long as its queue keeps returning
/// to its own floor. One pass records per-window queue minima; node `v` is
/// recurrent iff every window's minimum stays within `slack` of its global
/// minimum (i.e. the floor is revisited, not drifting upward).
pub fn census_recurrent<O: SimObserver>(
    sim: &mut Simulation<O>,
    warmup: u64,
    steps: u64,
    slack: u64,
    windows: u32,
) -> BoundednessCensus {
    assert!(windows > 0 && steps >= windows as u64);
    sim.run(warmup);
    let n = sim.queues().len();
    let per_window = steps / windows as u64;
    let mut window_min = vec![vec![u64::MAX; windows as usize]; n];
    for w in 0..windows as usize {
        for _ in 0..per_window {
            sim.step();
            for (v, &q) in sim.queues().iter().enumerate() {
                window_min[v][w] = window_min[v][w].min(q);
            }
        }
    }
    let mut dips = vec![0u32; n];
    for v in 0..n {
        let floor = *window_min[v].iter().min().expect("windows > 0");
        dips[v] = window_min[v]
            .iter()
            .filter(|&&m| m <= floor.saturating_add(slack))
            .count() as u32;
    }
    BoundednessCensus {
        threshold: slack,
        dips,
        windows,
    }
}

/// One row of a queue-gradient profile: statistics of the queues at all
/// nodes sharing a hop distance to the nearest sink.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileBin {
    /// Hop distance to the nearest sink.
    pub distance: u32,
    /// Nodes at this distance.
    pub count: usize,
    /// Mean queue length.
    pub mean_queue: f64,
    /// Largest queue.
    pub max_queue: u64,
}

/// Bins the current queues by BFS distance to the nearest sink — the
/// "gradient ramp" LGG organizes its backlog into. On a stable saturated
/// network the profile decreases towards the sinks (that slope *is* the
/// routing state); unreachable nodes are skipped.
pub fn queue_profile(spec: &TrafficSpec, queues: &[u64]) -> Vec<ProfileBin> {
    assert_eq!(queues.len(), spec.node_count());
    let sinks: Vec<_> = spec.sinks().collect();
    let dist = mgraph::ops::bfs_distances_to_set(&spec.graph, &sinks);
    let max_d = dist.iter().copied().filter(|&d| d != u32::MAX).max();
    let Some(max_d) = max_d else {
        return Vec::new();
    };
    let mut bins: Vec<ProfileBin> = (0..=max_d)
        .map(|d| ProfileBin {
            distance: d,
            count: 0,
            mean_queue: 0.0,
            max_queue: 0,
        })
        .collect();
    for (v, &d) in dist.iter().enumerate() {
        if d == u32::MAX {
            continue;
        }
        let bin = &mut bins[d as usize];
        bin.count += 1;
        bin.mean_queue += queues[v] as f64;
        bin.max_queue = bin.max_queue.max(queues[v]);
    }
    for bin in &mut bins {
        if bin.count > 0 {
            bin.mean_queue /= bin.count as f64;
        }
    }
    bins.retain(|b| b.count > 0);
    bins
}

/// Warm-start queue vector that puts the network state just above a target
/// `P_t` value: piles `ceil(sqrt(target))` packets on one relay (or the
/// first node), zeros elsewhere.
pub fn warm_start_above(spec: &TrafficSpec, target: f64) -> Vec<u64> {
    let mut q = vec![0u64; spec.node_count()];
    let height = target.max(0.0).sqrt().ceil() as u64 + 1;
    // Prefer a relay so extraction does not immediately drain it.
    let node = spec
        .graph
        .nodes()
        .find(|&v| spec.in_rate(v) == 0 && spec.out_rate(v) == 0)
        .unwrap_or(mgraph::NodeId::new(0));
    q[node.index()] = height;
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lgg;
    use mgraph::generators;
    use netmodel::TrafficSpecBuilder;
    use simqueue::{HistoryMode, SimulationBuilder};

    fn spec() -> TrafficSpec {
        TrafficSpecBuilder::new(generators::complete(5))
            .source(0, 1)
            .sink(4, 4)
            .build()
            .unwrap()
    }

    #[test]
    fn drift_samples_match_engine_state() {
        let mut sim = SimulationBuilder::new(spec(), Box::new(Lgg::new()))
            .history(HistoryMode::None)
            .build();
        let samples = measure_drift(&mut sim, 50);
        assert_eq!(samples.len(), 50);
        // Reconstruct P_50 from the drift telescoping sum.
        let p0 = samples[0].pt as i128;
        let total: i128 = samples.iter().map(|s| s.delta).sum();
        assert_eq!(p0 + total, sim.network_state() as i128);
        // Time stamps are consecutive.
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.t, i as u64);
        }
    }

    #[test]
    fn property1_bound_holds_on_unsaturated_complete_graph() {
        let s = spec();
        let b = crate::bounds::unsaturated_bounds(&s).unwrap();
        let mut sim = SimulationBuilder::new(s, Box::new(Lgg::new()))
            .history(HistoryMode::None)
            .build();
        let samples = measure_drift(&mut sim, 2000);
        let report = check_drift_bound(&samples, b.growth_bound);
        assert_eq!(report.violations, 0, "max drift {}", report.max_delta);
        assert!(report.max_delta <= b.growth_bound as i128);
    }

    #[test]
    fn check_drift_bound_counts_violations() {
        let samples = vec![
            DriftSample {
                t: 0,
                pt: 0,
                delta: 5,
            },
            DriftSample {
                t: 1,
                pt: 5,
                delta: 15,
            },
            DriftSample {
                t: 2,
                pt: 20,
                delta: -3,
            },
        ];
        let r = check_drift_bound(&samples, 10.0);
        assert_eq!(r.violations, 1);
        assert_eq!(r.max_delta, 15);
        assert_eq!(r.min_delta, -3);
        assert!((r.mean_delta - 17.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_report_is_clean() {
        let r = check_drift_bound(&[], 10.0);
        assert_eq!(r.samples, 0);
        assert_eq!(r.violations, 0);
        assert_eq!(r.max_delta, 0);
        assert_eq!(r.mean_delta, 0.0);
    }

    #[test]
    fn conditional_drift_filters_by_threshold() {
        let samples = vec![
            DriftSample {
                t: 0,
                pt: 100,
                delta: -5,
            },
            DriftSample {
                t: 1,
                pt: 5,
                delta: 9,
            },
            DriftSample {
                t: 2,
                pt: 200,
                delta: -8,
            },
        ];
        let (count, max_d) = conditional_drift_above(&samples, 50.0);
        assert_eq!(count, 2);
        assert_eq!(max_d, Some(-5));
        let (count, max_d) = conditional_drift_above(&samples, 1e9);
        assert_eq!(count, 0);
        assert_eq!(max_d, None);
    }

    #[test]
    fn saturated_network_is_infinitely_bounded_everywhere() {
        // The Section V-B conclusion: on a saturated stable network, every
        // node's queue keeps returning below a constant.
        let spec = TrafficSpecBuilder::new(generators::dumbbell(4, 2))
            .source(0, 1)
            .sink(9, 4)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(Lgg::new()))
            .history(HistoryMode::None)
            .build();
        let census = census_infinitely_bounded(&mut sim, 2000, 8000, 10, 4);
        assert!(
            census.all_bounded(),
            "dips: {:?} of {}",
            census.dips,
            census.windows
        );
        assert_eq!(census.bounded_nodes().count(), 10);
    }

    #[test]
    fn diverging_source_is_not_infinitely_bounded() {
        // Infeasible path: the source queue grows forever and never dips
        // back below a small threshold after warm-up.
        let spec = TrafficSpecBuilder::new(generators::path(4))
            .source(0, 3)
            .sink(3, 3)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(Lgg::new()))
            .history(HistoryMode::None)
            .build();
        let census = census_infinitely_bounded(&mut sim, 500, 2000, 10, 4);
        assert!(!census.all_bounded());
        assert_eq!(census.dips[0], 0, "source never dips");
        // Downstream relays stay shallow: they remain bounded.
        assert!(census.bounded_nodes().any(|v| v != 0));
    }

    #[test]
    fn recurrence_census_accepts_standing_ramps() {
        // Saturated dumbbell: the source holds a large standing backlog but
        // keeps revisiting its floor — recurrent at every node.
        let spec = TrafficSpecBuilder::new(generators::dumbbell(4, 2))
            .source(0, 1)
            .sink(9, 4)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(Lgg::new()))
            .history(HistoryMode::None)
            .build();
        let census = census_recurrent(&mut sim, 2000, 8000, 3, 4);
        assert!(census.all_bounded(), "dips {:?}", census.dips);
    }

    #[test]
    fn recurrence_census_rejects_drifting_sources() {
        let spec = TrafficSpecBuilder::new(generators::path(4))
            .source(0, 3)
            .sink(3, 3)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(Lgg::new()))
            .history(HistoryMode::None)
            .build();
        let census = census_recurrent(&mut sim, 500, 4000, 3, 4);
        assert!(!census.all_bounded());
        // The overloaded source's floor rises every window: exactly one
        // window (the first, which contains the global floor) qualifies.
        assert_eq!(census.dips[0], 1);
    }

    #[test]
    fn queue_profile_shows_the_gradient_ramp() {
        // Saturated path: at steady state the queue heights decrease from
        // source to sink — the profile is (weakly) decreasing with
        // distance 0 at the sink end.
        let spec = TrafficSpecBuilder::new(generators::path(6))
            .source(0, 1)
            .sink(5, 1)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec.clone(), Box::new(Lgg::new()))
            .history(HistoryMode::None)
            .build();
        sim.run(5000);
        let profile = queue_profile(&spec, sim.queues());
        assert_eq!(profile.len(), 6);
        assert_eq!(profile[0].distance, 0);
        // Monotone (weakly) increasing mean queue with distance from sink.
        for w in profile.windows(2) {
            assert!(
                w[1].mean_queue + 1.0 >= w[0].mean_queue,
                "profile not a ramp: {profile:?}"
            );
        }
        // The far end (the source) holds the tallest queue.
        assert!(profile.last().unwrap().mean_queue >= profile[0].mean_queue);
    }

    #[test]
    fn queue_profile_handles_disconnected_nodes() {
        let mut b = mgraph::MultiGraphBuilder::with_nodes(4);
        b.add_edge(mgraph::NodeId::new(0), mgraph::NodeId::new(1))
            .unwrap();
        // nodes 2,3 disconnected
        b.add_edge(mgraph::NodeId::new(2), mgraph::NodeId::new(3))
            .unwrap();
        let spec = TrafficSpec::new(b.build(), vec![1, 0, 0, 0], vec![0, 1, 0, 0], 0);
        let profile = queue_profile(&spec, &[5, 0, 9, 9]);
        // Only the component containing the sink is binned.
        assert_eq!(profile.len(), 2);
        assert_eq!(profile[1].max_queue, 5);
    }

    #[test]
    fn warm_start_reaches_target_state() {
        let s = spec();
        let q = warm_start_above(&s, 1_000_000.0);
        let pt: u128 = q.iter().map(|&x| (x as u128) * (x as u128)).sum();
        assert!(pt as f64 > 1_000_000.0);
        // Placed on a relay (nodes 1..3 in this spec).
        let loaded: Vec<_> = q.iter().enumerate().filter(|(_, &x)| x > 0).collect();
        assert_eq!(loaded.len(), 1);
        let idx = loaded[0].0 as u32;
        assert!(idx != 0 && idx != 4);
    }

    #[test]
    fn warm_started_overloaded_state_drains_under_lgg() {
        // Pile packets high above the stationary regime: drift must be
        // negative on average while P_t is large (Property 2's regime).
        let s = spec();
        let b = crate::bounds::unsaturated_bounds(&s).unwrap();
        let q = warm_start_above(&s, 10_000.0);
        let mut sim = SimulationBuilder::new(s, Box::new(Lgg::new()))
            .initial_queues(q)
            .history(HistoryMode::None)
            .build();
        let before = sim.total_packets();
        sim.run(500);
        let after = sim.total_packets();
        assert!(
            after < before,
            "backlog should drain: before {before}, after {after} (bound ctx: Y={})",
            b.y
        );
    }
}
