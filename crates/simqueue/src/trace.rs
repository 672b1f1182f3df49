//! Structured telemetry: what the engine did, step by step.
//!
//! The engine's end-of-run [`Metrics`](crate::Metrics) answer *whether* a
//! run was stable; this module answers *when* and *where* — when a queue
//! blows past `nY²`, which link loses the packet. Each simulation owns one
//! [`SimObserver`] (default: [`NoopObserver`]), and the engine tells it one
//! thing: [`SimObserver::on_step`] lends a [`StepRecord`] when a step
//! closes. The record holds the step's [`StepLedger`] (flow counts and
//! post-step totals), the per-source injections, the declarations at
//! `S ∪ D`, the rejected plan entries, the validated plan with its loss
//! mask, the per-sink extractions and the link-activity mask.
//! [`WindowAggregator`] and the [`InvariantGuard`](crate::InvariantGuard)
//! read the record directly.
//!
//! The trace is a rendering of the records. [`TraceRenderer`] turns each
//! record into [`TraceEvent`]s, one per state change of the seven step
//! phases documented on the crate root, in a fixed deterministic order;
//! [`JsonlSink`] owns one, and tests collect its output:
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
//! A flip is a diff against the previous record's link mask, which the
//! renderer keeps (and its owner checkpoints). The trace is part of the
//! observable outcome: the golden-trace test pins it byte for byte, and it
//! is independent of `LGG_THREADS` like every other output.
//!
//! Observers that do not render pay nothing for the trace: the engine
//! fills the record from its own scratch whether or not anyone reads it,
//! and a default-built simulation runs at full speed (measured, not
//! assumed: `lgg-sim bench` records the disabled path as the
//! `observer/off` row of `BENCH_throughput.json`, and CI fails if a run's
//! row is more than 2% slower than the one recorded there).

use std::io::{self, Write};

use serde::{Deserialize, Serialize};

use crate::checkpoint::wire;
use crate::error::LggError;
use crate::metrics::StepLedger;
use crate::protocol::Transmission;
use mgraph::{MultiGraph, NodeId};

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

/// One special node's declaration in phase 3: its queue when it declared
/// and the value published after the Definition 6(ii) clamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Declaration {
    /// The declaring node (a member of `S ∪ D`).
    pub node: NodeId,
    /// Its true queue length at phase 3.
    pub queue: u64,
    /// The clamped declared value.
    pub declared: u64,
}

/// Packets one source injected (phase 2) or one sink extracted (phase 6)
/// in a step; zero when it moved none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeAmount {
    /// The source or sink.
    pub node: NodeId,
    /// Packets moved, after the in(v) or Definition 7(i) clamp.
    pub amount: u64,
}

/// One executed step, lent to [`SimObserver::on_step`] when the step
/// closes. Everything in it is what the engine itself used: nothing is
/// rebuilt for the observer.
#[derive(Debug, Clone, Copy)]
pub struct StepRecord<'a> {
    /// Flow counts and post-step totals.
    pub ledger: StepLedger,
    /// The network, so a plan entry's receiver resolves through
    /// [`MultiGraph::other_endpoint`] as in phase 5.
    pub graph: &'a MultiGraph,
    /// One slot per source, ascending node id, zeros included.
    pub injected: &'a [NodeAmount],
    /// This step's declarations at `S ∪ D`, ascending node id.
    pub declarations: &'a [Declaration],
    /// The plan entries validation dropped, in plan order.
    pub rejected: &'a [Transmission],
    /// The validated plan, in execution order.
    pub plan: &'a [Transmission],
    /// `lost[i]`: the packet of `plan[i]` died in flight.
    pub lost: &'a [bool],
    /// One slot per sink, ascending node id, zeros included.
    pub extracted: &'a [NodeAmount],
    /// The link-activity mask the step ran with, indexed by edge id.
    pub active_edges: &'a [bool],
}

/// Receives engine steps. Implementations must be deterministic functions
/// of what they receive if they feed persisted artifacts — everything
/// else about the engine is.
///
/// A simulation's observer is a type parameter, so the step loop calls it
/// statically; scenario files pick theirs from one concrete enum (the
/// CLI's `ScenarioObserver`), and `InvariantGuard` wraps any other.
pub trait SimObserver {
    /// Receives every step once it closes. Observers that want
    /// [`TraceEvent`]s render them from the record with a
    /// [`TraceRenderer`]. The default does nothing.
    fn on_step(&mut self, _step: &StepRecord<'_>) {}

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
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), LggError> {
        Ok(())
    }
}

/// The default observer: zero state, zero cost. Its `on_step` is the
/// trait's empty default, which inlines to nothing in the step loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {}

/// Renders step records as [`TraceEvent`]s, in the order the module docs
/// tabulate.
///
/// It keeps the link mask of the last record it rendered, to report flips
/// as a diff; links it has not seen yet count as active, as they are in a
/// freshly built simulation. An observer that renders must checkpoint
/// that mask with its own state, or a resumed trace misses or repeats
/// flips.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceRenderer {
    links: Vec<bool>,
}

impl TraceRenderer {
    /// A renderer that has seen no step.
    pub fn new() -> Self {
        TraceRenderer::default()
    }

    /// Calls `emit` with each event of `step`, in trace order.
    #[inline]
    pub fn render(&mut self, step: &StepRecord<'_>, mut emit: impl FnMut(TraceEvent)) {
        let t = step.ledger.t;
        if self.links.len() < step.active_edges.len() {
            self.links.resize(step.active_edges.len(), true);
        }
        for (e, (was, &up)) in self.links.iter_mut().zip(step.active_edges).enumerate() {
            if *was != up {
                *was = up;
                let edge = e as u32;
                emit(if up {
                    TraceEvent::LinkUp { t, edge }
                } else {
                    TraceEvent::LinkDown { t, edge }
                });
            }
        }
        for s in step.injected.iter().filter(|s| s.amount > 0) {
            emit(TraceEvent::Injection {
                t,
                node: s.node.index() as u32,
                amount: s.amount,
            });
        }
        for d in step.declarations.iter().filter(|d| d.declared != d.queue) {
            emit(TraceEvent::DeclarationLie {
                t,
                node: d.node.index() as u32,
                true_q: d.queue,
                declared: d.declared,
            });
        }
        for tx in step.rejected {
            emit(TraceEvent::PlanRejected {
                t,
                edge: tx.edge.index() as u32,
                from: tx.from.index() as u32,
            });
        }
        for (tx, &lost) in step.plan.iter().zip(step.lost) {
            let (edge, from) = (tx.edge.index() as u32, tx.from.index() as u32);
            let to = step.graph.other_endpoint(tx.edge, tx.from).index() as u32;
            emit(TraceEvent::Transmission { t, edge, from, to });
            if lost {
                emit(TraceEvent::Loss { t, edge, from });
            }
        }
        for s in step.extracted.iter().filter(|s| s.amount > 0) {
            emit(TraceEvent::Extraction {
                t,
                node: s.node.index() as u32,
                amount: s.amount,
            });
        }
        let l = &step.ledger;
        emit(TraceEvent::Sample {
            t,
            pt: l.pt,
            total: l.total,
            max_queue: l.max_queue,
            active: l.active,
        });
    }
}

/// Streams the rendered events as JSON Lines — one object per event,
/// internally tagged (`{"event":"injection","t":0,...}`) — to any
/// [`Write`] sink. Powers `lgg-sim trace <scenario> --out run.jsonl`.
///
/// Write errors are sticky: the first one is stored, later events are
/// dropped, and [`JsonlSink::written`] surfaces it. Observers cannot
/// return errors from `on_step` (the engine step loop has no error
/// channel), so this mirrors how `std::io::stdout` handles broken pipes.
pub struct JsonlSink<W: Write> {
    writer: W,
    /// Keep one [`TraceEvent::Sample`] every this many steps (1 = all).
    sample_stride: u64,
    lines: u64,
    bytes: u64,
    error: Option<io::Error>,
    renderer: TraceRenderer,
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
            renderer: TraceRenderer::new(),
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

    /// Takes the first write error, if any occurred, as
    /// [`LggError::Io`] (exit code 4): the one place a run driver learns
    /// that its trace did not reach the writer. Call it after the run's
    /// last flush (`finish`, which `into_observer` runs).
    pub fn written(&mut self) -> Result<(), LggError> {
        match self.error.take() {
            Some(e) => Err(LggError::io("trace write failed", e)),
            None => Ok(()),
        }
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
    fn on_step(&mut self, step: &StepRecord<'_>) {
        self.renderer.render(step, |ev| {
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
        });
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
        wire::put_u64(out, self.lines);
        wire::put_u64(out, self.bytes);
        wire::put_bool_slice(out, &self.renderer.links);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        let mut r = wire::Reader::new(bytes);
        self.lines = r.u64()?;
        self.bytes = r.u64()?;
        self.renderer.links = r.bool_vec()?;
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

/// Rolls the step records into fixed-size windows of [`WindowStats`] —
/// the stability time-series the experiments driver publishes next to
/// its end-of-run verdicts (saturation plateaus and drift slopes are
/// window phenomena, invisible in run totals).
///
/// It reads the step records' ledgers and loss masks and renders no
/// events. A window is encoded once, when it closes, into the record a
/// checkpoint carries for it (about 42 bytes); [`windows`](Self::windows)
/// decodes the records on demand, and a snapshot copies them as they are.
#[derive(Debug, Clone)]
pub struct WindowAggregator {
    size: u64,
    /// The closed windows' checkpoint records, oldest first.
    closed: Vec<u8>,
    /// Records in `closed`.
    closed_count: u64,
    /// Whether `cur` is a window still open. A closed one keeps its
    /// buffers for the next window.
    open: bool,
    cur: Accum,
}

/// Open-window accumulator.
#[derive(Debug, Clone, PartialEq)]
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

    /// Starts window `index` afresh, keeping the buffers' capacity.
    fn reopen(&mut self, index: u64) {
        let mut link_losses = std::mem::take(&mut self.link_losses);
        let mut queue_histogram = std::mem::take(&mut self.queue_histogram);
        link_losses.clear();
        queue_histogram.clear();
        *self = Accum {
            link_losses,
            queue_histogram,
            ..Accum::new(index)
        };
    }

    /// Folds one step record into the window.
    fn add(&mut self, step: &StepRecord<'_>) {
        let l = &step.ledger;
        self.t_end = l.t;
        self.injected += l.injected;
        self.delivered += l.delivered;
        self.rejected += l.rejected;
        self.losses += l.lost;
        if l.lost > 0 {
            for (tx, _) in step.plan.iter().zip(step.lost).filter(|(_, &lost)| lost) {
                let edge = tx.edge.index() as u32;
                match self.link_losses.last_mut() {
                    Some((e, n)) if *e == edge => *n += 1,
                    _ => self.link_losses.push((edge, 1)),
                }
            }
        }
        self.samples += 1;
        self.pt_min = self.pt_min.min(l.pt);
        self.pt_max = self.pt_max.max(l.pt);
        self.pt_sum += l.pt;
        self.max_queue = self.max_queue.max(l.max_queue);
        self.active_sum += l.active;
        let b = qh_bucket(l.max_queue);
        if self.queue_histogram.len() <= b {
            self.queue_histogram.resize(b + 1, 0);
        }
        self.queue_histogram[b] += 1;
    }

    /// Appends the record of the [`WindowStats`] this window closes into
    /// (the fields in declaration order, see [`read_window`]), merging
    /// the link-loss pairs in place.
    fn close_into(&mut self, size: u64, out: &mut Vec<u8>) {
        self.link_losses.sort_unstable();
        self.link_losses.dedup_by(|next, kept| {
            next.0 == kept.0 && {
                kept.1 += next.1;
                true
            }
        });
        let samples = self.samples.max(1) as f64;
        wire::put_u64(out, self.index * size);
        wire::put_u64(out, self.t_end);
        wire::put_u64(out, self.samples);
        wire::put_u128(out, if self.samples == 0 { 0 } else { self.pt_min });
        wire::put_u128(out, self.pt_max);
        wire::put_f64(out, self.pt_sum as f64 / samples);
        wire::put_u64(out, self.max_queue);
        wire::put_f64(out, self.active_sum as f64 / samples);
        for x in [self.injected, self.delivered, self.losses, self.rejected] {
            wire::put_u64(out, x);
        }
        put_link_losses(out, self.link_losses.iter().copied());
        wire::put_u64_slice(out, &self.queue_histogram);
    }

    fn save(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.index);
        wire::put_u64(out, self.t_end);
        wire::put_u64(out, self.samples);
        wire::put_u128(out, self.pt_min);
        wire::put_u128(out, self.pt_max);
        wire::put_u128(out, self.pt_sum);
        for x in [
            self.max_queue,
            self.active_sum,
            self.injected,
            self.delivered,
            self.losses,
            self.rejected,
        ] {
            wire::put_u64(out, x);
        }
        put_link_losses(out, self.link_losses.iter().copied());
        wire::put_u64_slice(out, &self.queue_histogram);
    }

    fn load(r: &mut wire::Reader<'_>) -> Result<Self, LggError> {
        Ok(Accum {
            index: r.u64()?,
            t_end: r.u64()?,
            samples: r.u64()?,
            pt_min: r.u128()?,
            pt_max: r.u128()?,
            pt_sum: r.u128()?,
            max_queue: r.u64()?,
            active_sum: r.u64()?,
            injected: r.u64()?,
            delivered: r.u64()?,
            losses: r.u64()?,
            rejected: r.u64()?,
            link_losses: read_link_losses(r)?,
            queue_histogram: r.u64_vec()?,
        })
    }
}

/// Fewest bytes an `(edge, count)` pair takes on the wire.
const LINK_LOSS_MIN_BYTES: usize = 2;

fn put_link_losses(out: &mut Vec<u8>, pairs: impl ExactSizeIterator<Item = (u32, u64)>) {
    wire::put_u64(out, pairs.len() as u64);
    for (edge, lost) in pairs {
        wire::put_u32(out, edge);
        wire::put_u64(out, lost);
    }
}

fn read_link_losses(r: &mut wire::Reader<'_>) -> Result<Vec<(u32, u64)>, LggError> {
    r.seq(LINK_LOSS_MIN_BYTES, |r| Ok((r.u32()?, r.u64()?)))
}

/// Fewest bytes of one closed window on the wire: two eight-byte means,
/// then ten scalars and the two length prefixes at one varint byte each.
const WINDOW_MIN_BYTES: usize = 2 * 8 + 10 + 2;

fn read_window(r: &mut wire::Reader<'_>) -> Result<WindowStats, LggError> {
    Ok(WindowStats {
        t_start: r.u64()?,
        t_end: r.u64()?,
        samples: r.u64()?,
        pt_min: r.u128()?,
        pt_max: r.u128()?,
        pt_mean: r.f64()?,
        max_queue: r.u64()?,
        mean_active: r.f64()?,
        injected: r.u64()?,
        delivered: r.u64()?,
        losses: r.u64()?,
        rejected: r.u64()?,
        link_losses: read_link_losses(r)?
            .into_iter()
            .map(|(edge, lost)| LinkLoss { edge, lost })
            .collect(),
        queue_histogram: r.u64_vec()?,
    })
}

/// Checks one closed-window record and steps past it, storing nothing.
/// Beyond what [`read_window`] checks, the window must start on the
/// `size` grid after `after` (the previous window's start), its link-loss
/// edges must ascend, and its histogram must count each sample once: a
/// lying count that shifts the fields behind it does not keep all three.
/// Returns the window's start.
fn check_window(r: &mut wire::Reader<'_>, size: u64, after: Option<u64>) -> Result<u64, LggError> {
    let t_start = r.u64()?;
    if !t_start.is_multiple_of(size) || after.is_some_and(|a| t_start <= a) {
        return Err(LggError::corrupt(format!(
            "window start {t_start} is off the {size}-step grid or out of order"
        )));
    }
    r.u64()?;
    let samples = r.u64()?;
    r.u128()?;
    r.u128()?;
    r.f64()?;
    r.u64()?;
    r.f64()?;
    for _ in 0..4 {
        r.u64()?;
    }
    let mut edge = None;
    for _ in 0..r.count(LINK_LOSS_MIN_BYTES)? {
        let e = r.u32()?;
        if edge.is_some_and(|prev| e <= prev) {
            return Err(LggError::corrupt("window link losses out of edge order"));
        }
        edge = Some(e);
        r.u64()?;
    }
    let mut counted = 0u128;
    for _ in 0..r.count(1)? {
        counted += r.u64()? as u128;
    }
    if counted != samples as u128 {
        return Err(LggError::corrupt(format!(
            "window histogram counts {counted} samples, the window {samples}"
        )));
    }
    Ok(t_start)
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
            closed_count: 0,
            open: false,
            cur: Accum::new(0),
        }
    }

    /// The configured window size.
    pub fn window_size(&self) -> u64 {
        self.size
    }

    /// Windows closed so far, decoded from their records (call
    /// [`SimObserver::finish`] to close the trailing partial window
    /// first).
    pub fn windows(&self) -> Vec<WindowStats> {
        let mut r = wire::Reader::new(&self.closed);
        (0..self.closed_count)
            .map(|_| read_window(&mut r).expect("records are encoded here or validated on load"))
            .collect()
    }

    /// Consumes the aggregator, returning all windows (the trailing
    /// partial window is closed if `finish` was not called).
    pub fn into_windows(mut self) -> Vec<WindowStats> {
        self.finish();
        self.windows()
    }

    /// Encodes the open window into `closed`, if there is one.
    fn close(&mut self) {
        if self.open {
            self.cur.close_into(self.size, &mut self.closed);
            self.closed_count += 1;
            self.open = false;
        }
    }
}

impl SimObserver for WindowAggregator {
    fn on_step(&mut self, step: &StepRecord<'_>) {
        // Divide only when `t` leaves the open window (once per window).
        let (t, size) = (step.ledger.t, self.size);
        let stale = !self.open
            || t.checked_sub(self.cur.index * size)
                .is_none_or(|d| d >= size);
        if stale {
            self.close();
            self.cur.reopen(t / size);
            self.open = true;
        }
        self.cur.add(step);
    }

    fn finish(&mut self) {
        self.close();
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.size);
        wire::put_u64(out, self.closed_count);
        out.extend_from_slice(&self.closed);
        wire::put_bool(out, self.open);
        if self.open {
            self.cur.save(out);
        }
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        let mut r = wire::Reader::new(bytes);
        let size = r.u64()?;
        if size == 0 {
            return Err(LggError::corrupt("window size 0"));
        }
        let closed_count = r.count(WINDOW_MIN_BYTES)?;
        let start = bytes.len() - r.remaining();
        let mut last = None;
        for _ in 0..closed_count {
            last = Some(check_window(&mut r, size, last)?);
        }
        let closed = bytes[start..bytes.len() - r.remaining()].to_vec();
        let open = r.bool_()?;
        let cur = if open {
            Accum::load(&mut r)?
        } else {
            Accum::new(0)
        };
        r.done()?;
        if open && cur.index.checked_mul(size).is_none() {
            return Err(LggError::corrupt("open window starts past u64::MAX"));
        }
        *self = WindowAggregator {
            size,
            closed,
            closed_count: closed_count as u64,
            open,
            cur,
        };
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mgraph::EdgeId;

    /// The owned parts of a hand-built step record on a 4-node path
    /// (edges 0–2, all active, nothing moving).
    pub(crate) struct Crafted {
        pub(crate) ledger: StepLedger,
        graph: MultiGraph,
        injected: Vec<NodeAmount>,
        declarations: Vec<Declaration>,
        rejected: Vec<Transmission>,
        plan: Vec<Transmission>,
        pub(crate) lost: Vec<bool>,
        extracted: Vec<NodeAmount>,
        pub(crate) active_edges: Vec<bool>,
    }

    fn tx(edge: u32, from: u32) -> Transmission {
        Transmission {
            edge: EdgeId::new(edge),
            from: NodeId::new(from),
        }
    }

    fn amount(node: u32, amount: u64) -> NodeAmount {
        NodeAmount {
            node: NodeId::new(node),
            amount,
        }
    }

    impl Crafted {
        pub(crate) fn at(t: u64) -> Self {
            Crafted {
                ledger: StepLedger {
                    t,
                    ..StepLedger::default()
                },
                graph: mgraph::generators::path(4),
                injected: Vec::new(),
                declarations: Vec::new(),
                rejected: Vec::new(),
                plan: Vec::new(),
                lost: Vec::new(),
                extracted: Vec::new(),
                active_edges: vec![true; 3],
            }
        }

        /// Adds a delivered transmission to the plan.
        pub(crate) fn send(mut self, edge: u32, from: u32) -> Self {
            self.plan.push(tx(edge, from));
            self.lost.push(false);
            self.ledger.sent += 1;
            self
        }

        /// Adds a declaration at `S ∪ D`.
        pub(crate) fn declare(mut self, node: u32, queue: u64, declared: u64) -> Self {
            self.declarations.push(Declaration {
                node: NodeId::new(node),
                queue,
                declared,
            });
            self
        }

        /// Lends the record to `observer`.
        pub(crate) fn feed(&self, observer: &mut impl SimObserver) {
            observer.on_step(&self.record());
        }

        fn record(&self) -> StepRecord<'_> {
            StepRecord {
                ledger: self.ledger,
                graph: &self.graph,
                injected: &self.injected,
                declarations: &self.declarations,
                rejected: &self.rejected,
                plan: &self.plan,
                lost: &self.lost,
                extracted: &self.extracted,
                active_edges: &self.active_edges,
            }
        }
    }

    /// `bytes` with the varint at offset `at` replaced by `x`.
    pub(crate) fn with_varint(bytes: &[u8], at: usize, x: u64) -> Vec<u8> {
        let mut r = wire::Reader::new(&bytes[at..]);
        r.u64().expect("a varint at the offset");
        let mut out = bytes[..at].to_vec();
        wire::put_u64(&mut out, x);
        out.extend_from_slice(&bytes[bytes.len() - r.remaining()..]);
        out
    }

    fn render(r: &mut TraceRenderer, step: &Crafted) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        r.render(&step.record(), |ev| events.push(ev));
        events
    }

    /// Step 5 with one event of every kind but a link coming up.
    fn busy_step() -> Crafted {
        let mut step = Crafted::at(5);
        step.active_edges = vec![true, false, true];
        step.injected = vec![amount(0, 0), amount(2, 3)];
        step.declarations = vec![
            Declaration {
                node: NodeId::new(0),
                queue: 4,
                declared: 4,
            },
            Declaration {
                node: NodeId::new(3),
                queue: 1,
                declared: 2,
            },
        ];
        step.rejected = vec![tx(9, 1)];
        step.plan = vec![tx(2, 3), tx(0, 0)];
        step.lost = vec![true, false];
        step.extracted = vec![amount(3, 1), amount(1, 0)];
        step.ledger.pt = 17;
        (step.ledger.total, step.ledger.max_queue, step.ledger.active) = (5, 4, 2);
        step
    }

    #[test]
    fn renderer_emits_phase_order() {
        let t = 5;
        assert_eq!(
            render(&mut TraceRenderer::new(), &busy_step()),
            vec![
                TraceEvent::LinkDown { t, edge: 1 },
                TraceEvent::Injection {
                    t,
                    node: 2,
                    amount: 3
                },
                TraceEvent::DeclarationLie {
                    t,
                    node: 3,
                    true_q: 1,
                    declared: 2
                },
                TraceEvent::PlanRejected {
                    t,
                    edge: 9,
                    from: 1
                },
                TraceEvent::Transmission {
                    t,
                    edge: 2,
                    from: 3,
                    to: 2
                },
                TraceEvent::Loss {
                    t,
                    edge: 2,
                    from: 3
                },
                TraceEvent::Transmission {
                    t,
                    edge: 0,
                    from: 0,
                    to: 1
                },
                TraceEvent::Extraction {
                    t,
                    node: 3,
                    amount: 1
                },
                TraceEvent::Sample {
                    t,
                    pt: 17,
                    total: 5,
                    max_queue: 4,
                    active: 2
                },
            ]
        );
    }

    #[test]
    fn renderer_reports_flips_against_its_last_mask() {
        let mut r = TraceRenderer::new();
        let mut step = Crafted::at(0);
        // All links start active: an all-active first step flips nothing.
        assert_eq!(render(&mut r, &step).len(), 1);
        step.active_edges = vec![false, true, false];
        step.ledger.t = 1;
        let flips = |events: Vec<TraceEvent>| events[..events.len() - 1].to_vec();
        assert_eq!(
            flips(render(&mut r, &step)),
            vec![
                TraceEvent::LinkDown { t: 1, edge: 0 },
                TraceEvent::LinkDown { t: 1, edge: 2 }
            ]
        );
        step.ledger.t = 2;
        assert!(flips(render(&mut r, &step)).is_empty());
        step.active_edges = vec![true, true, false];
        step.ledger.t = 3;
        assert_eq!(
            flips(render(&mut r, &step)),
            vec![TraceEvent::LinkUp { t: 3, edge: 0 }]
        );
    }

    /// A step whose only events are `injections` one-packet injections at
    /// node 0 and the closing sample.
    fn quiet_step(t: u64, injections: usize) -> Crafted {
        let mut step = Crafted::at(t);
        step.injected = vec![amount(0, 1); injections];
        step
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let mut sink = JsonlSink::new(Vec::new());
        let mut step = Crafted::at(0);
        step.injected = vec![amount(3, 2)];
        step.plan = vec![tx(1, 2)];
        step.lost = vec![true];
        sink.on_step(&step.record());
        sink.finish();
        let mut want = Vec::new();
        TraceRenderer::new().render(&step.record(), |ev| want.push(ev));
        assert_eq!(want.len(), 4, "injection, transmission, loss, sample");
        assert_eq!(sink.lines_written(), 4);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let events: Vec<TraceEvent> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(events, want);
        assert!(text.starts_with("{\"event\":\"injection\""));
    }

    #[test]
    fn jsonl_sample_stride_thins_only_samples() {
        let mut sink = JsonlSink::new(Vec::new()).with_sample_stride(4);
        for t in 0..8 {
            sink.on_step(&quiet_step(t, 1).record());
        }
        // 8 injections + samples at t = 0 and t = 4.
        assert_eq!(sink.lines_written(), 10);
    }

    #[test]
    fn jsonl_snapshot_carries_the_link_mask() {
        // A link that went down before the snapshot must not be reported
        // again after the resume, and its return must be.
        let mut step = Crafted::at(0);
        step.active_edges = vec![true, false, true];
        let mut sink = JsonlSink::new(Vec::new());
        sink.on_step(&step.record());
        let mut state = Vec::new();
        sink.save_state(&mut state);
        let mut resumed = JsonlSink::new(Vec::new());
        resumed.load_state(&state).unwrap();
        assert_eq!(
            (resumed.lines_written(), resumed.bytes_written()),
            (2, sink.bytes_written())
        );
        for s in [&mut sink, &mut resumed] {
            step.ledger.t = 1;
            s.on_step(&step.record());
            step.active_edges = vec![true; 3];
            step.ledger.t = 2;
            s.on_step(&step.record());
            step.active_edges = vec![true, false, true];
        }
        let full = String::from_utf8(sink.into_inner()).unwrap();
        let tail = String::from_utf8(resumed.into_inner()).unwrap();
        assert!(full.ends_with(&tail), "{tail}");
        assert_eq!(tail.lines().filter(|l| l.contains("link-")).count(), 1);
        for cut in 0..state.len() {
            assert!(JsonlSink::new(Vec::new())
                .load_state(&state[..cut])
                .is_err());
        }
    }

    /// Feeds `w` one step: `injected` packets in, losses on `lost_edges`
    /// (in plan order), and a closing sample.
    fn window_step(
        w: &mut WindowAggregator,
        t: u64,
        injected: u64,
        lost_edges: &[u32],
        pt: u128,
        max_queue: u64,
    ) {
        let mut step = Crafted::at(t);
        step.plan = lost_edges.iter().map(|&e| tx(e, 0)).collect();
        step.lost = vec![true; step.plan.len()];
        step.ledger = StepLedger {
            t,
            injected,
            sent: step.plan.len() as u64,
            lost: step.plan.len() as u64,
            pt,
            max_queue,
            active: 1,
            ..StepLedger::default()
        };
        w.on_step(&step.record());
    }

    #[test]
    fn window_aggregation_math() {
        let mut w = WindowAggregator::new(4);
        for t in 0..6 {
            let lost: &[u32] = if t % 2 == 0 { &[1, 0] } else { &[] };
            window_step(&mut w, t, 2, lost, (t as u128 + 1) * 10, t + 1);
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

    /// An aggregator with two closed windows and an open one.
    fn busy_aggregator() -> WindowAggregator {
        let mut w = WindowAggregator::new(4);
        for t in 0..10 {
            window_step(&mut w, t, t, &[(t % 3) as u32, 7], 3 * t as u128, t);
        }
        w
    }

    #[test]
    fn window_state_round_trips_mid_window() {
        let mut w = busy_aggregator();
        let mut bytes = Vec::new();
        w.save_state(&mut bytes);
        let mut back = WindowAggregator::new(99);
        back.load_state(&bytes).unwrap();
        assert_eq!(back.window_size(), 4);
        assert_eq!(back.windows(), w.windows());
        assert_eq!(back.cur, w.cur);
        window_step(&mut w, 10, 1, &[2], 5, 1);
        window_step(&mut back, 10, 1, &[2], 5, 1);
        assert_eq!(back.into_windows(), w.into_windows());
    }

    #[test]
    fn window_snapshot_rejects_truncation_and_oversized_counts() {
        let mut w = busy_aggregator();
        let mut bytes = Vec::new();
        w.save_state(&mut bytes);
        for cut in 0..bytes.len() {
            let err = WindowAggregator::new(4)
                .load_state(&bytes[..cut])
                .unwrap_err();
            assert!(
                matches!(err, LggError::CheckpointCorrupt { .. }),
                "cut {cut}: {err}"
            );
        }
        // The closed-window count follows the window size; then the first
        // window's link-loss count follows its scalars.
        let mut r = wire::Reader::new(&bytes);
        r.u64().unwrap();
        let windows_at = bytes.len() - r.remaining();
        r.u64().unwrap();
        // Window 0: t_start, t_end and samples, the P_t minimum, maximum
        // and mean, max_queue, mean_active, then the four flow counters.
        for _ in 0..3 {
            r.u64().unwrap();
        }
        r.u128().unwrap();
        r.u128().unwrap();
        r.f64().unwrap();
        r.u64().unwrap();
        r.f64().unwrap();
        for _ in 0..4 {
            r.u64().unwrap();
        }
        let losses_at = bytes.len() - r.remaining();
        assert_eq!(r.u64().unwrap(), w.windows()[0].link_losses.len() as u64);
        for at in [windows_at, losses_at] {
            let lying = with_varint(&bytes, at, u64::MAX);
            let err = WindowAggregator::new(4).load_state(&lying).unwrap_err();
            assert!(
                matches!(err, LggError::CheckpointCorrupt { .. }),
                "at {at}: {err}"
            );
        }
        assert!(WindowAggregator::new(4)
            .load_state(&with_varint(&bytes, 0, 0))
            .is_err());
    }

    #[test]
    fn empty_window_close_is_safe() {
        let w = WindowAggregator::new(8);
        assert!(w.into_windows().is_empty());
    }

    #[test]
    fn a_failed_write_sticks_and_surfaces_as_an_io_error() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("no space left"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Full);
        Crafted::at(0).feed(&mut sink);
        Crafted::at(1).feed(&mut sink);
        assert_eq!(sink.lines_written(), 0);
        let err = sink.written().unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().starts_with("trace write failed"), "{err}");
        // Taken once: the error is reported by one caller, not two.
        assert!(sink.written().is_ok());
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
