//! Empirical stability assessment.
//!
//! Definition 2 calls a protocol *stable* when the number of stored packets
//! stays bounded. A finite run can only approximate that; the detector
//! splits the trajectory (after a warm-up third) into windows and compares
//! their backlog suprema:
//!
//! * **Stable** — the windowed maxima stop growing (the trajectory
//!   plateaus); reported with the observed supremum.
//! * **Diverging** — the windowed maxima grow steadily; reported with the
//!   per-step growth slope (an infeasible network run with rate `ρ > f*`
//!   should show slope ≈ `ρ − f*`, Theorem 1's converse).
//! * **Undecided** — too little data or ambiguous growth.

use serde::{Deserialize, Serialize};

use crate::checkpoint::wire;
use crate::error::LggError;
use crate::metrics::Snapshot;

/// Verdict of [`assess_stability`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StabilityVerdict {
    /// Backlog plateaued.
    Stable,
    /// Backlog grows linearly.
    Diverging,
    /// Not enough signal.
    Undecided,
}

/// Detailed stability report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilityReport {
    /// The verdict.
    pub verdict: StabilityVerdict,
    /// Supremum of total stored packets over the assessed suffix.
    pub sup_total: u64,
    /// Least-squares slope of total packets per step over the suffix.
    pub slope: f64,
    /// Windowed maxima used for the plateau test (diagnostic).
    pub window_maxima: Vec<u64>,
}

/// Windows the assessed suffix is split into for the plateau test.
const WINDOWS: usize = 4;

/// A handful of packets sloshing around is never divergence: relative
/// growth tests are meaningless below this absolute floor.
const TINY: f64 = 24.0;

/// The assessed suffix of `history`: everything after the warm-up third,
/// or `None` when there are too few points to leave `Undecided`.
fn assessed_tail(history: &[Snapshot]) -> Option<&[Snapshot]> {
    (history.len() >= 8 * WINDOWS).then(|| &history[history.len() / 3..])
}

/// Backlog maximum of window `i` of `tail` (each window `tail.len() /
/// WINDOWS` points; a remainder past the last window is not in any).
fn window_max(tail: &[Snapshot], i: usize) -> u64 {
    let w = tail.len() / WINDOWS;
    tail[i * w..(i + 1) * w]
        .iter()
        .map(|s| s.total_packets)
        .max()
        .unwrap_or(0)
}

/// Growth of the last window maximum over the first (floored at 1).
fn growth(first: u64, last: u64) -> f64 {
    last as f64 / first.max(1) as f64
}

/// The integer half of the `Diverging` rule: the last window maximum
/// clears the `2·TINY` floor, the maxima never decrease, and the last is
/// at least 1.5× the first. `Diverging` is exactly this and a positive
/// slope — growth ≥ 1.5 already rules out both `Stable` branches of
/// [`verdict`]. `max_of(i)` yields window `i`'s maximum on demand, asked
/// for the last window first, then the first, then the middle ones, so
/// a small or flat backlog is dismissed after one or two windows.
fn maxima_allow_divergence(mut max_of: impl FnMut(usize) -> u64) -> bool {
    let last = max_of(WINDOWS - 1);
    if last as f64 <= 2.0 * TINY {
        return false;
    }
    let first = max_of(0);
    if growth(first, last) < 1.5 {
        return false;
    }
    let mut prev = first;
    for i in 1..WINDOWS - 1 {
        let m = max_of(i);
        if m < prev {
            return false;
        }
        prev = m;
    }
    last >= prev
}

/// The verdict rule over a tail's window maxima, its least-squares
/// `slope` and the time span `dt` it covers.
fn verdict(maxima: &[u64; WINDOWS], slope: f64, dt: f64) -> StabilityVerdict {
    let last = maxima[WINDOWS - 1] as f64;
    // The tail's time span converts relative growth into a slope
    // significance test.
    let predicted_growth = slope * dt;
    let plateau =
        growth(maxima[0], maxima[WINDOWS - 1]) <= 1.10 && predicted_growth <= 0.05 * last.max(16.0);
    if last <= TINY || plateau {
        StabilityVerdict::Stable
    } else if maxima_allow_divergence(|i| maxima[i]) && slope > 0.0 {
        StabilityVerdict::Diverging
    } else {
        StabilityVerdict::Undecided
    }
}

/// Assesses a recorded trajectory.
///
/// `history` must be (roughly) evenly spaced snapshots. The first third is
/// discarded as warm-up; the rest is split into `WINDOWS` windows whose
/// maxima must stop growing (within a relative tolerance) for a `Stable`
/// verdict, or grow steadily for `Diverging`.
pub fn assess_stability(history: &[Snapshot]) -> StabilityReport {
    let Some(tail) = assessed_tail(history) else {
        return StabilityReport {
            verdict: StabilityVerdict::Undecided,
            sup_total: history.iter().map(|s| s.total_packets).max().unwrap_or(0),
            slope: 0.0,
            window_maxima: Vec::new(),
        };
    };
    // Least-squares slope of total_packets against t over the tail.
    let slope = least_squares_slope(tail);
    let maxima: [u64; WINDOWS] = std::array::from_fn(|i| window_max(tail, i));
    // The windows cover the tail but for a remainder shorter than one.
    let rest = &tail[WINDOWS * (tail.len() / WINDOWS)..];
    let sup_total = rest
        .iter()
        .map(|s| s.total_packets)
        .chain(maxima)
        .max()
        .unwrap_or(0);
    let dt = (tail.last().unwrap().t - tail.first().unwrap().t).max(1) as f64;
    StabilityReport {
        verdict: verdict(&maxima, slope, dt),
        sup_total,
        slope,
        window_maxima: maxima.to_vec(),
    }
}

/// Streaming counterpart of [`assess_stability`] for runs whose history
/// is too long (or too unbounded) to keep: the run guard's divergence
/// detector. Snapshots are pushed one at a time into a bounded buffer;
/// when the buffer fills it is halved and the keep-stride doubled, so
/// memory stays `O(cap)` while the retained points remain evenly spaced
/// across the whole trajectory. [`OnlineStability::assess`] then runs the
/// offline detector over the retained points — with a capacity at least
/// the trajectory length the two are *identical by construction*, and the
/// subsampled regime is covered by the agreement tests against the
/// checked-in scenarios.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineStability {
    cap: usize,
    stride: u64,
    seen: u64,
    buf: Vec<Snapshot>,
}

impl OnlineStability {
    /// A detector retaining at most `cap` snapshots (floor 64 — below
    /// that [`assess_stability`] cannot leave `Undecided` anyway).
    pub fn new(cap: usize) -> Self {
        OnlineStability {
            cap: cap.max(64),
            stride: 1,
            seen: 0,
            buf: Vec::new(),
        }
    }

    /// Feeds the next snapshot (call once per recorded step, in order).
    pub fn push(&mut self, s: Snapshot) {
        // The stride is a power of two, so `seen % stride` is a mask: the
        // guard pushes every step, and a 64-bit division there is not free.
        let kept = |seen: u64, stride: u64| seen & (stride - 1) == 0;
        if kept(self.seen, self.stride) {
            if self.buf.len() >= self.cap {
                // Halve: keep every other retained point, double the
                // stride. Kept points sat at multiples of the old stride,
                // and keeping even positions leaves exactly the multiples
                // of the doubled stride — spacing stays uniform.
                let mut i = 0usize;
                self.buf.retain(|_| {
                    let keep = i % 2 == 0;
                    i += 1;
                    keep
                });
                self.stride *= 2;
            }
            // Re-test against the (possibly doubled) stride so the point
            // pushed right after a halving does not break the spacing.
            if kept(self.seen, self.stride) {
                self.buf.push(s);
            }
        }
        self.seen += 1;
    }

    /// Snapshots pushed so far (including discarded ones).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Snapshots currently retained.
    pub fn retained(&self) -> usize {
        self.buf.len()
    }

    /// Current keep-stride (1 until the first halving).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Runs [`assess_stability`] over the retained points.
    pub fn assess(&self) -> StabilityReport {
        assess_stability(&self.buf)
    }

    /// Exactly `self.assess().verdict == StabilityVerdict::Diverging`,
    /// decided on integers first: the window maxima, the last window's
    /// first, and the float slope fit only when they allow divergence. A
    /// backlog at most `2·TINY` exits after a quarter of the tail, a
    /// plateau above it after half, and nothing is allocated.
    pub fn diverging(&self) -> bool {
        assessed_tail(&self.buf).is_some_and(|tail| {
            maxima_allow_divergence(|i| window_max(tail, i)) && least_squares_slope(tail) > 0.0
        })
    }

    /// Shorthand for `self.assess().verdict`.
    pub fn verdict(&self) -> StabilityVerdict {
        self.assess().verdict
    }

    /// Appends the detector to a checkpoint blob: capacity, stride, count
    /// seen, then the counted snapshot records, all varints.
    pub(crate) fn save(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.cap as u64);
        wire::put_u64(out, self.stride);
        wire::put_u64(out, self.seen);
        wire::put_u64(out, self.buf.len() as u64);
        for s in &self.buf {
            s.save(out);
        }
    }

    /// Reads what [`OnlineStability::save`] wrote.
    pub(crate) fn load(r: &mut wire::Reader<'_>) -> Result<Self, LggError> {
        let (cap, stride, seen) = (r.u64()?, r.u64()?, r.u64()?);
        let buf = r.seq(Snapshot::MIN_WIRE_BYTES, Snapshot::load)?;
        let n = buf.len();
        if cap < 64 || n as u64 > cap || !stride.is_power_of_two() {
            return Err(LggError::corrupt(format!(
                "online detector: {n} of {cap} snapshots at stride {stride}"
            )));
        }
        Ok(OnlineStability {
            cap: cap as usize,
            stride,
            seen,
            buf,
        })
    }
}

fn least_squares_slope(points: &[Snapshot]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let (mean_t, mean_y) = means(points);
    let mut num = 0.0;
    let mut den = 0.0;
    for s in points {
        let dt = s.t as f64 - mean_t;
        num += dt * (s.total_packets as f64 - mean_y);
        den += dt * dt;
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The means of `t` and `total_packets` over `points`, each bit for bit
/// its in-order `f64` sum divided by the count. While an exact integer
/// sum stays below 2⁵³, every term and every partial sum of the float sum
/// is an exactly representable integer, so the float sum equals the
/// integer one, which is cheaper to take; a larger sum is summed as
/// floats.
fn means(points: &[Snapshot]) -> (f64, f64) {
    let n = points.len() as f64;
    let (sum_t, sum_y) = points.iter().fold((0u128, 0u128), |(t, y), s| {
        (t + u128::from(s.t), y + u128::from(s.total_packets))
    });
    let mean = |sum: u128, field: fn(&Snapshot) -> u64| {
        if sum < 1 << f64::MANTISSA_DIGITS {
            sum as f64 / n
        } else {
            points.iter().map(|s| field(s) as f64).sum::<f64>() / n
        }
    };
    (mean(sum_t, |s| s.t), mean(sum_y, |s| s.total_packets))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snaps(values: impl Iterator<Item = u64>) -> Vec<Snapshot> {
        values
            .enumerate()
            .map(|(t, v)| Snapshot {
                t: t as u64,
                pt: (v as u128) * (v as u128),
                total_packets: v,
                max_queue: v,
            })
            .collect()
    }

    #[test]
    fn flat_trajectory_is_stable() {
        let h = snaps((0..200).map(|_| 10));
        let r = assess_stability(&h);
        assert_eq!(r.verdict, StabilityVerdict::Stable);
        assert_eq!(r.sup_total, 10);
        assert!(r.slope.abs() < 1e-9);
    }

    #[test]
    fn noisy_plateau_is_stable() {
        let h = snaps((0..400).map(|t| 50 + (t % 7)));
        let r = assess_stability(&h);
        assert_eq!(r.verdict, StabilityVerdict::Stable);
    }

    #[test]
    fn linear_growth_diverges() {
        let h = snaps((0..300).map(|t| 5 + 3 * t));
        let r = assess_stability(&h);
        assert_eq!(r.verdict, StabilityVerdict::Diverging);
        assert!((r.slope - 3.0).abs() < 0.1, "slope {}", r.slope);
    }

    #[test]
    fn slow_growth_still_diverges() {
        let h = snaps((0..2000).map(|t| 10 + t / 4));
        let r = assess_stability(&h);
        assert_eq!(r.verdict, StabilityVerdict::Diverging);
    }

    #[test]
    fn short_history_is_undecided() {
        let h = snaps((0..10).map(|_| 5));
        let r = assess_stability(&h);
        assert_eq!(r.verdict, StabilityVerdict::Undecided);
    }

    #[test]
    fn ramp_then_plateau_is_stable() {
        // Warm-up growth followed by a long plateau: the discarded first
        // third hides the ramp.
        let h = snaps((0..600).map(|t| if t < 150 { t } else { 150 }));
        let r = assess_stability(&h);
        assert_eq!(r.verdict, StabilityVerdict::Stable);
        assert_eq!(r.sup_total, 150);
    }

    #[test]
    fn tiny_fluctuations_are_stable_not_diverging() {
        // A handful of packets growing 1 -> 3 across windows must not be
        // called divergence.
        let h = snaps((0..400).map(|t| 1 + t / 150));
        let r = assess_stability(&h);
        assert_eq!(r.verdict, StabilityVerdict::Stable);
    }

    #[test]
    fn empty_history_is_undecided() {
        let r = assess_stability(&[]);
        assert_eq!(r.verdict, StabilityVerdict::Undecided);
        assert_eq!(r.sup_total, 0);
    }

    #[test]
    fn online_with_large_cap_is_exactly_offline() {
        for values in [
            (0..300).map(|t| 5 + 3 * t).collect::<Vec<u64>>(),
            (0..400).map(|t| 50 + (t % 7)).collect(),
            (0..600).map(|t| if t < 150 { t } else { 150 }).collect(),
        ] {
            let h = snaps(values.iter().copied());
            let mut online = OnlineStability::new(h.len());
            for s in &h {
                online.push(*s);
            }
            assert_eq!(online.stride(), 1);
            assert_eq!(online.assess(), assess_stability(&h));
        }
    }

    #[test]
    fn online_halving_keeps_even_spacing_and_verdict() {
        let h = snaps((0..4000).map(|t| 5 + 3 * t));
        let mut online = OnlineStability::new(256);
        for s in &h {
            online.push(*s);
        }
        assert!(online.retained() <= 256);
        assert!(online.stride() > 1);
        assert_eq!(online.seen(), 4000);
        // Retained points must be exactly the multiples of the stride.
        let report = online.assess();
        assert_eq!(report.verdict, StabilityVerdict::Diverging);
        assert!((report.slope - 3.0).abs() < 0.1, "slope {}", report.slope);
        // Spacing check via the diagnostic buffer: consecutive retained
        // points differ by exactly `stride` steps.
        let stride = online.stride();
        let mut prev = None;
        for s in &online.buf {
            if let Some(p) = prev {
                assert_eq!(s.t - p, stride);
            }
            prev = Some(s.t);
        }
    }

    #[test]
    fn online_subsampled_agrees_on_plateau() {
        let h = snaps((0..4096).map(|t| 50 + (t % 11)));
        let mut online = OnlineStability::new(128);
        for s in &h {
            online.push(*s);
        }
        assert_eq!(online.verdict(), StabilityVerdict::Stable);
        assert_eq!(assess_stability(&h).verdict, StabilityVerdict::Stable);
    }

    #[test]
    fn online_round_trips_through_serde() {
        let mut online = OnlineStability::new(64);
        for s in snaps((0..200).map(|t| t)) {
            online.push(s);
        }
        let json = serde_json::to_string(&online).unwrap();
        let back: OnlineStability = serde_json::from_str(&json).unwrap();
        assert_eq!(back, online);
    }

    /// [`assess_stability`] as first written, with three float passes over
    /// the tail: the reference the integer means are checked against.
    fn reference_assess(history: &[Snapshot]) -> StabilityReport {
        fn reference_slope(points: &[Snapshot]) -> f64 {
            let n = points.len() as f64;
            if points.len() < 2 {
                return 0.0;
            }
            let mean_t = points.iter().map(|s| s.t as f64).sum::<f64>() / n;
            let mean_y = points.iter().map(|s| s.total_packets as f64).sum::<f64>() / n;
            let mut num = 0.0;
            let mut den = 0.0;
            for s in points {
                let dt = s.t as f64 - mean_t;
                num += dt * (s.total_packets as f64 - mean_y);
                den += dt * dt;
            }
            if den == 0.0 {
                0.0
            } else {
                num / den
            }
        }
        let Some(tail) = assessed_tail(history) else {
            return StabilityReport {
                verdict: StabilityVerdict::Undecided,
                sup_total: history.iter().map(|s| s.total_packets).max().unwrap_or(0),
                slope: 0.0,
                window_maxima: Vec::new(),
            };
        };
        let sup_total = tail.iter().map(|s| s.total_packets).max().unwrap_or(0);
        let slope = reference_slope(tail);
        let maxima: [u64; WINDOWS] = std::array::from_fn(|i| window_max(tail, i));
        let dt = (tail.last().unwrap().t - tail.first().unwrap().t).max(1) as f64;
        StabilityReport {
            verdict: verdict(&maxima, slope, dt),
            sup_total,
            slope,
            window_maxima: maxima.to_vec(),
        }
    }

    proptest::proptest! {
        /// Same bits as the reference: random walks of every length, with
        /// clocks and backlogs small enough for the integer means and
        /// large enough (sums past 2⁵³) for the float fallback.
        #[test]
        fn assessment_matches_the_float_reference(
            len in 0usize..400,
            t0_bits in 0u32..62,
            y0_bits in 0u32..62,
            stride in 1u64..1000,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut y = (1u64 << y0_bits) - 1;
            let h: Vec<Snapshot> = (0..len as u64)
                .map(|i| {
                    y = y.saturating_add(rng.random_range(0..64));
                    y = y.saturating_sub(rng.random_range(0..64));
                    let t = (1u64 << t0_bits) + i * stride;
                    Snapshot { t, pt: 0, total_packets: y, max_queue: y }
                })
                .collect();
            let (got, want) = (assess_stability(&h), reference_assess(&h));
            proptest::prop_assert_eq!(got.slope.to_bits(), want.slope.to_bits());
            proptest::prop_assert_eq!(got.sup_total, want.sup_total);
            proptest::prop_assert_eq!(&got.window_maxima, &want.window_maxima);
            proptest::prop_assert_eq!(got.verdict, want.verdict);
        }
    }
}
