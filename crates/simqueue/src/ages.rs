//! Optional per-packet age tracking.
//!
//! The paper's packets are indistinct counts, which is all the stability
//! theory needs — but a downstream user evaluating LGG wants latency
//! *distributions*, not just Little's-law means. When enabled (see
//! [`crate::SimulationBuilder::track_ages`]), the engine shadows every
//! queue with a FIFO of birth timestamps:
//!
//! * injection appends the current step;
//! * each transmission carries the sender's **oldest** packet (FIFO
//!   service discipline — the model does not prescribe one, so we pick
//!   the standard choice and document it);
//! * losses drop the timestamp;
//! * extraction retires the oldest packets and records their sojourn
//!   times into a logarithmic histogram.
//!
//! The shadow FIFOs always mirror the real queue lengths exactly (an
//! invariant the property tests assert).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::checkpoint::wire;
use crate::error::LggError;

/// Buckets of the sojourn histogram: one per power of two up to 2⁴⁷.
const BUCKETS: usize = 48;

/// Latency statistics of extracted packets, with a base-2 logarithmic
/// histogram (`buckets[i]` counts sojourns in `[2^i, 2^{i+1})`, except
/// `buckets[0]` which counts 0- and 1-step sojourns).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Packets retired.
    pub count: u64,
    /// Sum of sojourn times.
    pub total: u128,
    /// Maximum sojourn time.
    pub max: u64,
    /// Log-2 histogram of sojourn times.
    pub buckets: Vec<u64>,
}

impl LatencyStats {
    pub(crate) fn new() -> Self {
        LatencyStats {
            count: 0,
            total: 0,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    pub(crate) fn record(&mut self, sojourn: u64) {
        self.count += 1;
        self.total += sojourn as u128;
        self.max = self.max.max(sojourn);
        let idx = (64 - sojourn.max(1).leading_zeros() - 1) as usize;
        let last = self.buckets.len() - 1;
        self.buckets[idx.min(last)] += 1;
    }

    /// Appends the statistics to a checkpoint blob, fields in order.
    pub(crate) fn save(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.count);
        wire::put_u128(out, self.total);
        wire::put_u64(out, self.max);
        wire::put_u64_slice(out, &self.buckets);
    }

    /// Reads what [`LatencyStats::save`] wrote.
    pub(crate) fn load(r: &mut wire::Reader<'_>) -> Result<Self, LggError> {
        let stats = LatencyStats {
            count: r.u64()?,
            total: r.u128()?,
            max: r.u64()?,
            buckets: r.u64_vec()?,
        };
        if stats.buckets.len() != BUCKETS {
            return Err(LggError::corrupt(format!(
                "latency histogram has {} buckets, not {BUCKETS}",
                stats.buckets.len()
            )));
        }
        Ok(stats)
    }

    /// Mean sojourn time of retired packets.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total as f64 / self.count as f64
    }

    /// Upper edge of the histogram bucket containing the `q`-quantile
    /// (`q` in `[0, 1]`) — a conservative percentile estimate.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        self.max
    }
}

impl Default for LatencyStats {
    fn default() -> Self {
        Self::new()
    }
}

/// The shadow age state maintained by the engine.
#[derive(Debug, Clone)]
pub(crate) struct AgeState {
    /// Birth timestamp FIFO per node, mirroring queue contents.
    pub fifos: Vec<VecDeque<u64>>,
    /// Retired-packet statistics.
    pub stats: LatencyStats,
}

impl AgeState {
    pub(crate) fn new(n: usize) -> Self {
        AgeState {
            fifos: vec![VecDeque::new(); n],
            stats: LatencyStats::new(),
        }
    }

    /// Seeds the FIFOs for warm-started queues (all born at step 0).
    pub(crate) fn seed(&mut self, queues: &[u64]) {
        for (fifo, &q) in self.fifos.iter_mut().zip(queues) {
            fifo.extend(std::iter::repeat(0).take(q as usize));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_mean() {
        let mut s = LatencyStats::new();
        for v in [1u64, 2, 3, 10] {
            s.record(v);
        }
        assert_eq!(s.count, 4);
        assert_eq!(s.total, 16);
        assert_eq!(s.max, 10);
        assert_eq!(s.mean(), 4.0);
    }

    #[test]
    fn histogram_buckets() {
        let mut s = LatencyStats::new();
        s.record(0); // clamped into bucket 0
        s.record(1); // bucket 0
        s.record(2); // bucket 1
        s.record(3); // bucket 1
        s.record(8); // bucket 3
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[2], 0);
        assert_eq!(s.buckets[3], 1);
    }

    #[test]
    fn quantiles_are_upper_bounds() {
        let mut s = LatencyStats::new();
        for _ in 0..90 {
            s.record(2);
        }
        for _ in 0..10 {
            s.record(100);
        }
        assert!(s.quantile_upper_bound(0.5) >= 2);
        assert!(s.quantile_upper_bound(0.5) <= 4);
        assert!(s.quantile_upper_bound(0.99) >= 100);
        assert_eq!(LatencyStats::new().quantile_upper_bound(0.9), 0);
    }

    #[test]
    fn wire_round_trip_checks_the_histogram() {
        let mut s = LatencyStats::new();
        s.record(5);
        s.record(1 << 40);
        let mut out = Vec::new();
        s.save(&mut out);
        let mut r = wire::Reader::new(&out);
        assert_eq!(LatencyStats::load(&mut r).unwrap(), s);
        r.done().unwrap();

        s.buckets.pop();
        let mut out = Vec::new();
        s.save(&mut out);
        let err = LatencyStats::load(&mut wire::Reader::new(&out)).unwrap_err();
        assert!(matches!(err, LggError::CheckpointCorrupt { .. }), "{err}");
    }

    #[test]
    fn seed_matches_queue_lengths() {
        let mut a = AgeState::new(3);
        a.seed(&[2, 0, 5]);
        assert_eq!(a.fifos[0].len(), 2);
        assert_eq!(a.fifos[1].len(), 0);
        assert_eq!(a.fifos[2].len(), 5);
    }
}
