//! Run metrics: the paper's network state `P_t` plus throughput counters.

use serde::{Deserialize, Serialize};

use crate::checkpoint::wire;
use crate::error::LggError;

/// How much history to keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HistoryMode {
    /// Keep only running aggregates (cheapest; long stability runs).
    None,
    /// Record a [`Snapshot`] every `stride` steps.
    Sampled(u64),
    /// Record every step (drift analysis).
    EveryStep,
}

/// One recorded point of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Time step.
    pub t: u64,
    /// Network state `P_t = Σ_v q_t(v)²` (Definition 1).
    pub pt: u128,
    /// Total stored packets `Σ_v q_t(v)`.
    pub total_packets: u64,
    /// Largest single queue.
    pub max_queue: u64,
}

impl Snapshot {
    /// Fewest bytes a snapshot takes on the wire: four one-byte varints.
    pub(crate) const MIN_WIRE_BYTES: usize = 4;

    /// Appends the snapshot to a checkpoint blob, fields in order.
    pub(crate) fn save(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.t);
        wire::put_u128(out, self.pt);
        wire::put_u64(out, self.total_packets);
        wire::put_u64(out, self.max_queue);
    }

    /// Reads what [`Snapshot::save`] wrote.
    pub(crate) fn load(r: &mut wire::Reader<'_>) -> Result<Self, LggError> {
        Ok(Snapshot {
            t: r.u64()?,
            pt: r.u128()?,
            total_packets: r.u64()?,
            max_queue: r.u64()?,
        })
    }
}

/// What one step did, filled by the engine as the step runs and folded
/// into [`Metrics`] when it closes. The same value reaches every observer
/// inside a [`StepRecord`](crate::trace::StepRecord), so the run totals,
/// the invariant guard and window telemetry all count from one ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepLedger {
    /// The step executed (the engine's pre-increment clock).
    pub t: u64,
    /// Packets injected (phase 2, after the `in(v)` clamp).
    pub injected: u64,
    /// Transmissions executed, lost ones included (phase 5).
    pub sent: u64,
    /// Packets destroyed in flight (phase 5).
    pub lost: u64,
    /// Packets extracted (phase 6, after the Definition 7(i) clamp).
    pub delivered: u64,
    /// Planned transmissions the engine rejected (phase 4).
    pub rejected: u64,
    /// `P_t = Σ q²` after the step.
    pub pt: u128,
    /// `Σ q` after the step.
    pub total: u64,
    /// The largest queue after the step.
    pub max_queue: u64,
    /// Nodes holding packets after the step.
    pub active: u64,
}

/// Aggregated metrics of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Steps executed.
    pub steps: u64,
    /// Total packets injected by sources.
    pub injected: u64,
    /// Total packets extracted by sinks ("delivered").
    pub delivered: u64,
    /// Total packets destroyed in flight by the loss model.
    pub lost: u64,
    /// Total transmissions executed (including lost ones).
    pub sent: u64,
    /// Transmissions the protocol planned but the engine rejected
    /// (overdrawn queue, duplicate link, inactive link). Zero for a
    /// well-behaved protocol.
    pub rejected_plans: u64,
    /// Supremum of `P_t` over the run.
    pub sup_pt: u128,
    /// Supremum of total stored packets over the run.
    pub sup_total: u64,
    /// Largest queue ever seen at a single node.
    pub max_queue_ever: u64,
    /// `Σ_t total_packets(t)` — by Little's law, `packet_steps /
    /// delivered` estimates the average packet latency.
    pub packet_steps: u128,
    /// Transmissions carried per link (lost ones included: the link was
    /// used). `link_sends[e] / steps` is the utilization of link `e` —
    /// saturated min-cut links sit at ≈ 1.
    pub link_sends: Vec<u64>,
    /// Recorded history per [`HistoryMode`].
    pub history: Vec<Snapshot>,
}

impl Metrics {
    pub(crate) fn new() -> Self {
        Metrics {
            steps: 0,
            injected: 0,
            delivered: 0,
            lost: 0,
            sent: 0,
            rejected_plans: 0,
            sup_pt: 0,
            sup_total: 0,
            max_queue_ever: 0,
            packet_steps: 0,
            link_sends: Vec::new(),
            history: Vec::new(),
        }
    }

    /// Adds one closed step's ledger to the run totals (everything but
    /// `link_sends` and `history`, which the engine keeps itself).
    pub(crate) fn fold(&mut self, l: &StepLedger) {
        self.steps += 1;
        self.injected += l.injected;
        self.delivered += l.delivered;
        self.lost += l.lost;
        self.sent += l.sent;
        self.rejected_plans += l.rejected;
        self.sup_pt = self.sup_pt.max(l.pt);
        self.sup_total = self.sup_total.max(l.total);
        self.max_queue_ever = self.max_queue_ever.max(l.max_queue);
        self.packet_steps += l.total as u128;
    }

    /// Appends the metrics to a checkpoint blob: the counters in field
    /// order, the per-link sends, then the counted history.
    pub(crate) fn save(&self, out: &mut Vec<u8>) {
        for x in [
            self.steps,
            self.injected,
            self.delivered,
            self.lost,
            self.sent,
            self.rejected_plans,
        ] {
            wire::put_u64(out, x);
        }
        wire::put_u128(out, self.sup_pt);
        wire::put_u64(out, self.sup_total);
        wire::put_u64(out, self.max_queue_ever);
        wire::put_u128(out, self.packet_steps);
        wire::put_u64_slice(out, &self.link_sends);
        wire::put_u64(out, self.history.len() as u64);
        for s in &self.history {
            s.save(out);
        }
    }

    /// Reads what [`Metrics::save`] wrote.
    pub(crate) fn load(r: &mut wire::Reader<'_>) -> Result<Self, LggError> {
        Ok(Metrics {
            steps: r.u64()?,
            injected: r.u64()?,
            delivered: r.u64()?,
            lost: r.u64()?,
            sent: r.u64()?,
            rejected_plans: r.u64()?,
            sup_pt: r.u128()?,
            sup_total: r.u64()?,
            max_queue_ever: r.u64()?,
            packet_steps: r.u128()?,
            link_sends: r.u64_vec()?,
            history: r.seq(Snapshot::MIN_WIRE_BYTES, Snapshot::load)?,
        })
    }

    /// Utilization of link `e`: transmissions per step over the run.
    pub fn link_utilization(&self, e: usize) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        self.link_sends.get(e).copied().unwrap_or(0) as f64 / self.steps as f64
    }

    /// The busiest links, as `(edge index, utilization)`, most-used first.
    pub fn busiest_links(&self, k: usize) -> Vec<(usize, f64)> {
        let mut order: Vec<usize> = (0..self.link_sends.len()).collect();
        order.sort_unstable_by_key(|&e| std::cmp::Reverse(self.link_sends[e]));
        order
            .into_iter()
            .take(k)
            .map(|e| (e, self.link_utilization(e)))
            .collect()
    }

    /// Fraction of injected packets that were eventually extracted.
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.injected as f64
    }

    /// Little's-law estimate of the mean time a packet spends stored.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            return f64::INFINITY;
        }
        self.packet_steps as f64 / self.delivered as f64
    }

    /// Average stored packets per step.
    pub fn mean_backlog(&self) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        self.packet_steps as f64 / self.steps as f64
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let m = Metrics::new();
        assert_eq!(m.delivery_ratio(), 0.0);
        assert!(m.mean_latency().is_infinite());
        assert_eq!(m.mean_backlog(), 0.0);
    }

    #[test]
    fn littles_law_arithmetic() {
        let mut m = Metrics::new();
        m.steps = 10;
        m.injected = 20;
        m.delivered = 10;
        m.packet_steps = 50;
        assert_eq!(m.delivery_ratio(), 0.5);
        assert_eq!(m.mean_latency(), 5.0);
        assert_eq!(m.mean_backlog(), 5.0);
    }

    #[test]
    fn wire_round_trip() {
        let mut m = Metrics::new();
        m.steps = 9;
        m.sup_pt = u128::MAX;
        m.packet_steps = 1 << 70;
        m.link_sends = vec![0, 300, u64::MAX];
        m.history.push(Snapshot {
            t: 3,
            pt: 12,
            total_packets: 4,
            max_queue: 2,
        });
        let mut out = Vec::new();
        m.save(&mut out);
        let mut r = wire::Reader::new(&out);
        assert_eq!(Metrics::load(&mut r).unwrap(), m);
        r.done().unwrap();
    }

    #[test]
    fn serde_round_trip() {
        let mut m = Metrics::new();
        m.history.push(Snapshot {
            t: 3,
            pt: 12,
            total_packets: 4,
            max_queue: 2,
        });
        let json = serde_json::to_string(&m).unwrap();
        let back: Metrics = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
