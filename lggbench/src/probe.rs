//! Measurement helpers shared by the workloads: timer calibration, the
//! timed `RoutingProtocol` wrapper, sample statistics, the outcome digest
//! and peak memory.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use simqueue::{
    LggError, Metrics, NetView, RoutingProtocol, SimObserver, Simulation, Transmission,
};

/// An error's message, for the benchmark's string errors.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Seconds to run `steps` more steps of `sim`.
pub fn leg<O: SimObserver>(sim: &mut Simulation<O>, steps: u64) -> f64 {
    let t = Instant::now();
    sim.run(steps);
    black_box(sim.metrics().sent);
    secs(t)
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Cost of one `Instant::now()` call, in nanoseconds: the median of a few
/// back-to-back batches. Sampled timings subtract it.
pub fn timer_cost_ns() -> f64 {
    const CALLS: u32 = 100_000;
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                black_box(Instant::now());
            }
            ns_since(t) / f64::from(CALLS)
        })
        .collect();
    median(&mut batches)
}

/// What the [`TimedPlan`] wrapper saw: the stepping loop sets `sampling` before a
/// sampled step and reads the plan time afterwards; `entries` counts every
/// planned transmission of every step.
#[derive(Default)]
pub struct PlanProbe {
    pub sampling: Cell<bool>,
    /// Raw plan time of the current sampled step (timer cost included).
    pub last_ns: Cell<f64>,
    pub entries: Cell<u64>,
}

/// A `RoutingProtocol` that forwards every call to `inner` and times
/// `plan` on the steps the stepping loop samples.
pub struct TimedPlan {
    pub inner: Box<dyn RoutingProtocol>,
    pub probe: Rc<PlanProbe>,
}

impl RoutingProtocol for TimedPlan {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>) {
        if self.probe.sampling.get() {
            let t = Instant::now();
            self.inner.plan(view, out);
            self.probe.last_ns.set(ns_since(t));
        } else {
            self.inner.plan(view, out);
        }
        self.probe
            .entries
            .set(self.probe.entries.get() + out.len() as u64);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        self.inner.save_state(out);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        self.inner.load_state(bytes)
    }
}

/// Median of `v` (sorts it in place).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of `v` (sorts it in place); 0 for no samples.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Outcome digest of a run: `simqueue`'s FNV-1a over every counter of the
/// final metrics, the per-link send counts and the final queues.
pub fn outcome_digest(m: &Metrics, queues: &[u64]) -> u64 {
    let mut bytes = Vec::new();
    for x in [
        m.steps,
        m.injected,
        m.delivered,
        m.lost,
        m.sent,
        m.rejected_plans,
        m.sup_total,
        m.max_queue_ever,
    ] {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    bytes.extend_from_slice(&m.sup_pt.to_le_bytes());
    bytes.extend_from_slice(&m.packet_steps.to_le_bytes());
    for &x in m.link_sends.iter().chain(queues) {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    simqueue::checkpoint::fnv1a(&bytes)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
