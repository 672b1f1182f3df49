//! Structured telemetry: typed per-step events observed from the engine.
//!
//! The engine's end-of-run [`Metrics`](crate::Metrics) answer *whether* a
//! run was stable; this module answers *when* and *where* — when a queue
//! blows past `nY²`, which link loses the packet. Each simulation
//! owns one [`SimObserver`] (default: [`NoopObserver`]) and emits a
//! [`TraceEvent`] at every state change of the seven step phases
//! documented on the crate root, in a fixed deterministic order:
//!
//! | phase | events |
//! |-------|--------|
//! | 1 topology | [`TraceEvent::LinkUp`] / [`TraceEvent::LinkDown`] per flipped link, ascending edge id |
//! | 2 injection | [`TraceEvent::Injection`] per source receiving packets, ascending node id |
//! | 3 declaration | [`TraceEvent::DeclarationLie`] per node declaring ≠ its true queue, ascending node id |
//! | 4 planning | [`TraceEvent::PlanRejected`] per dropped transmission, plan order |
//! | 5 transmission | [`TraceEvent::Transmission`] per executed send (+ [`TraceEvent::Loss`] when it vanishes), plan order |
//! | 6 extraction | [`TraceEvent::Extraction`] per sink removing packets, ascending node id |
//! | 7 metrics | one [`TraceEvent::Sample`] of the post-step state |
//!
//! The trace is part of the observable outcome: the golden-trace test
//! pins it byte for byte, and it is independent of `LGG_THREADS` like
//! every other output.
//!
//! The disabled path is free: the engine asks `observer.enabled()` once
//! per step and skips all event construction when it returns `false`.
//! [`NoopObserver::enabled`] is a constant `false` the optimizer erases,
//! so a default-built simulation runs at full speed (measured, not
//! assumed: `lgg-sim bench` has an observer-overhead section persisted in
//! `BENCH_throughput.json`, and CI fails if the disabled path regresses).

use std::collections::VecDeque;
use std::io::{self, Write};

use serde::{Deserialize, Serialize};

/// One typed engine event. `t` is the step being executed (the engine's
/// pre-increment clock): all events of step `t` share it, and the closing
/// [`TraceEvent::Sample`] describes the state *after* step `t` completed —
/// it equals the [`Snapshot`](crate::Snapshot) a history mode would record
/// as `t + 1`.
///
/// Node and edge ids are raw `u32` indices (the id spaces of `mgraph`);
/// the enum is `Copy` so observers can be fanned out without cloning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "kebab-case")]
#[non_exhaustive]
pub enum TraceEvent {
    /// Phase 1: a link became active this step.
    LinkUp {
        /// Step.
        t: u64,
        /// Edge id.
        edge: u32,
    },
    /// Phase 1: a link became inactive this step.
    LinkDown {
        /// Step.
        t: u64,
        /// Edge id.
        edge: u32,
    },
    /// Phase 2: a source injected `amount > 0` packets.
    Injection {
        /// Step.
        t: u64,
        /// Source node.
        node: u32,
        /// Packets injected (post in(v)-clamp).
        amount: u64,
    },
    /// Phase 3: a node declared a queue length different from its true
    /// one. Only R-generalized special nodes can do this (Definition
    /// 6(ii)); the engine consults the declaration policy at those nodes
    /// only and clamps what it says, so every lie event names a special
    /// node and a declared value ≤ R.
    DeclarationLie {
        /// Step.
        t: u64,
        /// Lying node.
        node: u32,
        /// Actual queue length.
        true_q: u64,
        /// Published queue length.
        declared: u64,
    },
    /// Phase 4: the protocol planned a transmission the engine rejected
    /// (link already used, inactive link, overdrawn sender, or foreign
    /// endpoint).
    PlanRejected {
        /// Step.
        t: u64,
        /// Edge of the rejected transmission.
        edge: u32,
        /// Claimed sender.
        from: u32,
    },
    /// Phase 5: a packet was sent over `edge`. Follows plan order; when
    /// the packet dies in flight a [`TraceEvent::Loss`] with the same
    /// coordinates follows immediately.
    Transmission {
        /// Step.
        t: u64,
        /// Edge carrying the packet.
        edge: u32,
        /// Sender.
        from: u32,
        /// Receiver (the other endpoint).
        to: u32,
    },
    /// Phase 5: the preceding transmission's packet was destroyed in
    /// flight by the loss model ("without any notification").
    Loss {
        /// Step.
        t: u64,
        /// Edge the packet died on.
        edge: u32,
        /// Sender that deleted it anyway.
        from: u32,
    },
    /// Phase 6: a sink extracted `amount > 0` packets.
    Extraction {
        /// Step.
        t: u64,
        /// Sink node.
        node: u32,
        /// Packets extracted (post Definition 7(i) clamp).
        amount: u64,
    },
    /// Phase 7: sampled state after the step — the paper's trajectory
    /// `P_t = Σ q²` plus the totals stability arguments bound.
    Sample {
        /// Step just executed.
        t: u64,
        /// Network state `P_t = Σ_v q(v)²` (Definition 1).
        pt: u128,
        /// Total stored packets `Σ_v q(v)`.
        total: u64,
        /// Largest single queue.
        max_queue: u64,
        /// Number of nodes holding packets.
        active: u64,
    },
}

impl TraceEvent {
    /// The step this event belongs to.
    pub fn t(&self) -> u64 {
        match *self {
            TraceEvent::LinkUp { t, .. }
            | TraceEvent::LinkDown { t, .. }
            | TraceEvent::Injection { t, .. }
            | TraceEvent::DeclarationLie { t, .. }
            | TraceEvent::PlanRejected { t, .. }
            | TraceEvent::Transmission { t, .. }
            | TraceEvent::Loss { t, .. }
            | TraceEvent::Extraction { t, .. }
            | TraceEvent::Sample { t, .. } => t,
        }
    }
}

/// Receives engine events. Implementations must be deterministic
/// functions of the event stream if they feed persisted artifacts —
/// everything else about the engine is.
///
/// The trait is dyn-safe: scenario files install observers as
/// `Box<dyn SimObserver>` through the CLI's `telemetry` section.
pub trait SimObserver {
    /// Whether the engine should construct and deliver events at all.
    /// Checked once per step; the default is `true`. Return `false` to
    /// make the whole emit path disappear ([`NoopObserver`] does).
    fn enabled(&self) -> bool {
        true
    }

    /// Receives one event. Events arrive in deterministic engine order
    /// (see the module docs for the per-phase ordering).
    fn observe(&mut self, ev: TraceEvent);

    /// Called when the run owner is done stepping — flush buffers, close
    /// windows. The engine never calls this itself (it cannot know when
    /// the caller stops stepping); run drivers do.
    fn finish(&mut self) {}

    /// Appends the observer's evolving state to `out` for a checkpoint
    /// (see [`crate::checkpoint`]). Observers that feed persisted
    /// artifacts (sinks, aggregators) must save enough to continue the
    /// artifact seamlessly after a resume; the default writes nothing.
    /// Implementations backed by buffered I/O should flush here so
    /// whatever the saved counters describe is durable.
    fn save_state(&mut self, _out: &mut Vec<u8>) {}

    /// Restores state captured by [`SimObserver::save_state`].
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), crate::error::LggError> {
        Ok(())
    }
}

/// The default observer: statically disabled, zero state, zero cost.
/// With `enabled()` a constant `false`, every emit site in the step loop
/// folds to nothing — the disabled path stays allocation-free and within
/// measurement noise of the pre-telemetry engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn observe(&mut self, _ev: TraceEvent) {}
}

impl SimObserver for Box<dyn SimObserver> {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn observe(&mut self, ev: TraceEvent) {
        (**self).observe(ev)
    }

    fn finish(&mut self) {
        (**self).finish()
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        (**self).save_state(out)
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), crate::error::LggError> {
        (**self).load_state(bytes)
    }
}

/// In-memory recorder keeping the most recent `capacity` events — the
/// "flight recorder" for tests and post-mortem debugging of instability
/// onsets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RingRecorder {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    seen: u64,
}

impl RingRecorder {
    /// A recorder holding at most `capacity` events (≥ 1).
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            capacity: capacity.max(1),
            // Grown on demand: `usize::MAX` is a valid "keep everything"
            // capacity and must not preallocate.
            buf: VecDeque::with_capacity(capacity.clamp(1, 1024)),
            seen: 0,
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number held right now (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever observed, including evicted ones.
    pub fn total_seen(&self) -> u64 {
        self.seen
    }

    /// Drains the buffer, oldest first.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }
}

impl SimObserver for RingRecorder {
    fn observe(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(ev);
        self.seen += 1;
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        let json = crate::checkpoint::json_to_bytes(self);
        crate::checkpoint::wire::put_bytes(out, &json);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), crate::error::LggError> {
        let mut r = crate::checkpoint::wire::Reader::new(bytes);
        *self = crate::checkpoint::json_from_bytes(r.bytes()?)?;
        r.done()
    }
}

/// Streams events as JSON Lines — one object per event, internally tagged
/// (`{"event":"injection","t":0,...}`) — to any [`Write`] sink. Powers
/// `lgg-sim trace <scenario> --out run.jsonl`.
///
/// Write errors are sticky: the first one is stored, later events are
/// dropped, and [`JsonlSink::take_error`] / [`JsonlSink::finish`] surface
/// it. Observers cannot return errors from `observe` (the engine step
/// loop has no error channel), so this mirrors how `std::io::stdout`
/// handles broken pipes.
pub struct JsonlSink<W: Write> {
    writer: W,
    /// Keep one [`TraceEvent::Sample`] every this many steps (1 = all).
    sample_stride: u64,
    lines: u64,
    bytes: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing every event to `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            sample_stride: 1,
            lines: 0,
            bytes: 0,
            error: None,
        }
    }

    /// Thins the per-step [`TraceEvent::Sample`] stream to steps where
    /// `t % stride == 0` (`0`/`1` keep every sample). Other event kinds
    /// are never thinned — they are sparse already.
    pub fn with_sample_stride(mut self, stride: u64) -> Self {
        self.sample_stride = stride.max(1);
        self
    }

    /// Lines successfully written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Bytes successfully written so far (including newlines). After a
    /// checkpoint restore this is the authoritative length of the trace
    /// artifact: the resume driver truncates the file here so the
    /// continued stream is byte-identical to an uninterrupted run.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Takes the first write error, if any occurred.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// The inner writer (resume drivers truncate/seek the underlying
    /// file through this).
    pub fn writer_mut(&mut self) -> &mut W {
        &mut self.writer
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> SimObserver for JsonlSink<W> {
    fn observe(&mut self, ev: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        if let TraceEvent::Sample { t, .. } = ev {
            if t % self.sample_stride != 0 {
                return;
            }
        }
        let line = serde_json::to_string(&ev).expect("trace events always serialize");
        if let Err(e) = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
        {
            self.error = Some(e);
            return;
        }
        self.lines += 1;
        self.bytes += line.len() as u64 + 1;
    }

    fn finish(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e);
            }
        }
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        // Flush first: the counters below describe durable bytes, and the
        // resume driver truncates the artifact to exactly this length.
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e);
            }
        }
        crate::checkpoint::wire::put_u64(out, self.lines);
        crate::checkpoint::wire::put_u64(out, self.bytes);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), crate::error::LggError> {
        let mut r = crate::checkpoint::wire::Reader::new(bytes);
        self.lines = r.u64()?;
        self.bytes = r.u64()?;
        r.done()
    }
}

/// Per-link loss count inside one window, `edge` ascending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkLoss {
    /// Edge id.
    pub edge: u32,
    /// Packets destroyed on that edge in the window.
    pub lost: u64,
}

/// Aggregated statistics of one window of `size` steps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// First step of the window (inclusive).
    pub t_start: u64,
    /// Last step observed in the window (inclusive).
    pub t_end: u64,
    /// [`TraceEvent::Sample`]s aggregated.
    pub samples: u64,
    /// Minimum `P_t` over the window's samples.
    pub pt_min: u128,
    /// Maximum `P_t` over the window's samples.
    pub pt_max: u128,
    /// Mean `P_t` over the window's samples.
    pub pt_mean: f64,
    /// Largest single queue seen in the window.
    pub max_queue: u64,
    /// Mean active-node count over the window's samples.
    pub mean_active: f64,
    /// Packets injected during the window.
    pub injected: u64,
    /// Packets extracted during the window.
    pub delivered: u64,
    /// Packets destroyed in flight during the window.
    pub losses: u64,
    /// Transmissions the engine rejected during the window.
    pub rejected: u64,
    /// Loss counts per link (edges with ≥ 1 loss only, ascending).
    pub link_losses: Vec<LinkLoss>,
    /// Histogram of the per-sample `max_queue`: bucket 0 counts samples
    /// with an empty network, bucket `k ≥ 1` counts samples whose largest
    /// queue `q` has `⌊log₂ q⌋ = k − 1` (so bucket 1 is q = 1, bucket 2
    /// is q ∈ [2,3], bucket 3 is q ∈ [4,7], ...).
    pub queue_histogram: Vec<u64>,
}

/// Rolls the event stream into fixed-size windows of [`WindowStats`] —
/// the stability time-series the experiments driver publishes next to
/// its end-of-run verdicts (saturation plateaus and drift slopes are
/// window phenomena, invisible in run totals).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowAggregator {
    size: u64,
    closed: Vec<WindowStats>,
    cur: Option<Accum>,
}

/// Open-window accumulator.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Accum {
    index: u64,
    t_end: u64,
    samples: u64,
    pt_min: u128,
    pt_max: u128,
    pt_sum: u128,
    max_queue: u64,
    active_sum: u64,
    injected: u64,
    delivered: u64,
    losses: u64,
    rejected: u64,
    /// Unsorted (edge, count) pairs; sorted and merged at window close.
    link_losses: Vec<(u32, u64)>,
    queue_histogram: Vec<u64>,
}

impl Accum {
    fn new(index: u64) -> Self {
        Accum {
            index,
            t_end: 0,
            samples: 0,
            pt_min: u128::MAX,
            pt_max: 0,
            pt_sum: 0,
            max_queue: 0,
            active_sum: 0,
            injected: 0,
            delivered: 0,
            losses: 0,
            rejected: 0,
            link_losses: Vec::new(),
            queue_histogram: Vec::new(),
        }
    }

    fn close(mut self, size: u64) -> WindowStats {
        self.link_losses.sort_unstable();
        let mut link_losses: Vec<LinkLoss> = Vec::new();
        for (edge, lost) in self.link_losses {
            match link_losses.last_mut() {
                Some(last) if last.edge == edge => last.lost += lost,
                _ => link_losses.push(LinkLoss { edge, lost }),
            }
        }
        let samples = self.samples.max(1) as f64;
        WindowStats {
            t_start: self.index * size,
            t_end: self.t_end,
            samples: self.samples,
            pt_min: if self.samples == 0 { 0 } else { self.pt_min },
            pt_max: self.pt_max,
            pt_mean: self.pt_sum as f64 / samples,
            max_queue: self.max_queue,
            mean_active: self.active_sum as f64 / samples,
            injected: self.injected,
            delivered: self.delivered,
            losses: self.losses,
            rejected: self.rejected,
            link_losses,
            queue_histogram: self.queue_histogram,
        }
    }
}

/// Histogram bucket for a sample whose largest queue is `q`.
fn qh_bucket(q: u64) -> usize {
    if q == 0 {
        0
    } else {
        (64 - q.leading_zeros()) as usize
    }
}

impl WindowAggregator {
    /// An aggregator with `size`-step windows (≥ 1). Window `k` covers
    /// steps `[k·size, (k+1)·size)`.
    pub fn new(size: u64) -> Self {
        WindowAggregator {
            size: size.max(1),
            closed: Vec::new(),
            cur: None,
        }
    }

    /// The configured window size.
    pub fn window_size(&self) -> u64 {
        self.size
    }

    /// Windows closed so far (call [`SimObserver::finish`] to close the
    /// trailing partial window first).
    pub fn windows(&self) -> &[WindowStats] {
        &self.closed
    }

    /// Consumes the aggregator, returning all windows (the trailing
    /// partial window is closed if `finish` was not called).
    pub fn into_windows(mut self) -> Vec<WindowStats> {
        self.finish();
        self.closed
    }

    fn accum_for(&mut self, t: u64) -> &mut Accum {
        let index = t / self.size;
        let stale = match &self.cur {
            Some(a) => a.index != index,
            None => true,
        };
        if stale {
            if let Some(a) = self.cur.take() {
                self.closed.push(a.close(self.size));
            }
            self.cur = Some(Accum::new(index));
        }
        self.cur.as_mut().expect("just installed")
    }
}

impl SimObserver for WindowAggregator {
    fn observe(&mut self, ev: TraceEvent) {
        let a = self.accum_for(ev.t());
        a.t_end = a.t_end.max(ev.t());
        match ev {
            TraceEvent::Injection { amount, .. } => a.injected += amount,
            TraceEvent::Extraction { amount, .. } => a.delivered += amount,
            TraceEvent::PlanRejected { .. } => a.rejected += 1,
            TraceEvent::Loss { edge, .. } => {
                a.losses += 1;
                match a.link_losses.last_mut() {
                    Some((e, n)) if *e == edge => *n += 1,
                    _ => a.link_losses.push((edge, 1)),
                }
            }
            TraceEvent::Sample {
                pt,
                max_queue,
                active,
                ..
            } => {
                a.samples += 1;
                a.pt_min = a.pt_min.min(pt);
                a.pt_max = a.pt_max.max(pt);
                a.pt_sum += pt;
                a.max_queue = a.max_queue.max(max_queue);
                a.active_sum += active;
                let b = qh_bucket(max_queue);
                if a.queue_histogram.len() <= b {
                    a.queue_histogram.resize(b + 1, 0);
                }
                a.queue_histogram[b] += 1;
            }
            _ => {}
        }
    }

    fn finish(&mut self) {
        if let Some(a) = self.cur.take() {
            self.closed.push(a.close(self.size));
        }
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        let json = crate::checkpoint::json_to_bytes(self);
        crate::checkpoint::wire::put_bytes(out, &json);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), crate::error::LggError> {
        let mut r = crate::checkpoint::wire::Reader::new(bytes);
        *self = crate::checkpoint::json_from_bytes(r.bytes()?)?;
        r.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: u64, pt: u128, max_queue: u64) -> TraceEvent {
        TraceEvent::Sample {
            t,
            pt,
            total: 0,
            max_queue,
            active: 1,
        }
    }

    #[test]
    fn noop_is_disabled() {
        assert!(!NoopObserver.enabled());
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut r = RingRecorder::new(3);
        for t in 0..5 {
            r.observe(sample(t, 0, 0));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_seen(), 5);
        let ts: Vec<u64> = r.events().map(|e| e.t()).collect();
        assert_eq!(ts, vec![2, 3, 4]);
        assert_eq!(r.take().len(), 3);
        assert!(r.is_empty());
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.observe(TraceEvent::Injection {
            t: 0,
            node: 3,
            amount: 2,
        });
        sink.observe(TraceEvent::Loss {
            t: 1,
            edge: 7,
            from: 2,
        });
        sink.finish();
        assert_eq!(sink.lines_written(), 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let events: Vec<TraceEvent> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(
            events,
            vec![
                TraceEvent::Injection {
                    t: 0,
                    node: 3,
                    amount: 2
                },
                TraceEvent::Loss {
                    t: 1,
                    edge: 7,
                    from: 2
                },
            ]
        );
        assert!(text.starts_with("{\"event\":\"injection\""));
    }

    #[test]
    fn jsonl_sample_stride_thins_only_samples() {
        let mut sink = JsonlSink::new(Vec::new()).with_sample_stride(4);
        for t in 0..8 {
            sink.observe(TraceEvent::Injection {
                t,
                node: 0,
                amount: 1,
            });
            sink.observe(sample(t, 1, 1));
        }
        // 8 injections + samples at t = 0 and t = 4.
        assert_eq!(sink.lines_written(), 10);
    }

    #[test]
    fn window_aggregation_math() {
        let mut w = WindowAggregator::new(4);
        for t in 0..6 {
            w.observe(TraceEvent::Injection {
                t,
                node: 0,
                amount: 2,
            });
            if t % 2 == 0 {
                w.observe(TraceEvent::Loss {
                    t,
                    edge: 1,
                    from: 0,
                });
                w.observe(TraceEvent::Loss {
                    t,
                    edge: 0,
                    from: 0,
                });
            }
            w.observe(sample(t, (t as u128 + 1) * 10, t + 1));
        }
        let windows = w.into_windows();
        assert_eq!(windows.len(), 2);
        let a = &windows[0];
        assert_eq!((a.t_start, a.t_end, a.samples), (0, 3, 4));
        assert_eq!((a.pt_min, a.pt_max), (10, 40));
        assert!((a.pt_mean - 25.0).abs() < 1e-9);
        assert_eq!(a.injected, 8);
        assert_eq!(a.losses, 4);
        // Edge counts merged and sorted ascending.
        assert_eq!(
            a.link_losses,
            vec![LinkLoss { edge: 0, lost: 2 }, LinkLoss { edge: 1, lost: 2 }]
        );
        assert_eq!(a.max_queue, 4);
        // max_queue values 1,2,3,4 → buckets 1,2,2,3.
        assert_eq!(a.queue_histogram, vec![0, 1, 2, 1]);
        let b = &windows[1];
        assert_eq!((b.t_start, b.t_end, b.samples), (4, 5, 2));
        assert_eq!(b.injected, 4);
    }

    #[test]
    fn empty_window_close_is_safe() {
        let w = WindowAggregator::new(8);
        assert!(w.into_windows().is_empty());
    }

    #[test]
    fn boxed_observer_forwards() {
        let mut boxed: Box<dyn SimObserver> = Box::new(RingRecorder::new(2));
        assert!(boxed.enabled());
        boxed.observe(sample(0, 0, 0));
        boxed.finish();
    }

    #[test]
    fn qh_buckets() {
        assert_eq!(qh_bucket(0), 0);
        assert_eq!(qh_bucket(1), 1);
        assert_eq!(qh_bucket(2), 2);
        assert_eq!(qh_bucket(3), 2);
        assert_eq!(qh_bucket(4), 3);
        assert_eq!(qh_bucket(7), 3);
        assert_eq!(qh_bucket(8), 4);
    }
}
