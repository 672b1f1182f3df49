//! Injection processes: how many packets each source pushes into its own
//! queue at the start of a step.
//!
//! The engine clamps every amount to the node's declared rate `in(v)`, so a
//! process can never exceed the specification (Definition 5's
//! pseudo-sources inject *at most* `in(v)`). Classic sources of Section II
//! inject *exactly* `in(v)`: that is [`ExactInjection`]. The remaining
//! processes realize the arrival models of Conjectures 1–3 and the
//! stochastic regimes of the related work (Tassiulas–Ephremides-style
//! strictly-feasible stochastic arrivals).

use mgraph::NodeId;
use rand::rngs::StdRng;
use rand::Rng;

use crate::checkpoint::wire;
use crate::error::LggError;
use crate::rng::Coin;

/// Decides the injection amount for node `v` at step `t`.
///
/// `cap` is `in(v)`; the engine clamps the returned value to `cap`.
pub trait InjectionProcess {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Packets to inject at `v` this step (before clamping to `cap`).
    fn amount(&mut self, v: NodeId, t: u64, cap: u64, rng: &mut StdRng) -> u64;

    /// Resets internal state (error accumulators, Markov states).
    fn reset(&mut self) {}

    /// Appends the process's evolving state to `out` for a checkpoint
    /// (see [`crate::checkpoint`]). Stateless processes — the default —
    /// write nothing. Stateful ones must write *everything* `amount`
    /// depends on besides its arguments, or resumed runs diverge.
    fn save_state(&mut self, _out: &mut Vec<u8>) {}

    /// Restores state captured by [`InjectionProcess::save_state`];
    /// `bytes` is exactly what that call wrote.
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), LggError> {
        Ok(())
    }
}

/// Inject exactly `in(v)` every step — the classic source of Section II
/// and the maximal lossless regime of Conjecture 1's hypothesis.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExactInjection;

impl InjectionProcess for ExactInjection {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn amount(&mut self, _v: NodeId, _t: u64, cap: u64, _rng: &mut StdRng) -> u64 {
        cap
    }
}

/// Deterministically inject a fixed fraction `num/den` of `in(v)` per step
/// using a Bresenham-style error accumulator, so the long-run average is
/// exactly `in(v)·num/den` with no randomness.
#[derive(Debug, Clone)]
pub struct ScaledInjection {
    num: u64,
    den: u64,
    acc: Vec<u64>,
}

impl ScaledInjection {
    /// Fraction `num/den <= 1` of the nominal rate.
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den > 0 && num <= den, "fraction must be in [0, 1]");
        ScaledInjection {
            num,
            den,
            acc: Vec::new(),
        }
    }
}

impl InjectionProcess for ScaledInjection {
    fn name(&self) -> &'static str {
        "scaled"
    }

    fn amount(&mut self, v: NodeId, _t: u64, cap: u64, _rng: &mut StdRng) -> u64 {
        if self.acc.len() <= v.index() {
            self.acc.resize(v.index() + 1, 0);
        }
        let acc = &mut self.acc[v.index()];
        *acc += cap * self.num;
        let take = *acc / self.den;
        *acc -= take * self.den;
        take
    }

    fn reset(&mut self) {
        self.acc.clear();
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        wire::put_u64_slice(out, &self.acc);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        let mut r = wire::Reader::new(bytes);
        self.acc = r.u64_vec()?;
        r.done()
    }
}

/// Each of the `in(v)` nominal packets arrives independently with
/// probability `p` — i.i.d. Binomial(in(v), p) arrivals, the stochastic
/// strictly-feasible regime when `p < 1`.
#[derive(Debug, Clone, Copy)]
pub struct BernoulliInjection {
    /// Per-packet arrival probability.
    pub p: f64,
}

impl BernoulliInjection {
    /// Creates the process; `p` must be a probability.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
        BernoulliInjection { p }
    }
}

impl InjectionProcess for BernoulliInjection {
    fn name(&self) -> &'static str {
        "bernoulli"
    }

    fn amount(&mut self, _v: NodeId, _t: u64, cap: u64, rng: &mut StdRng) -> u64 {
        let coin = Coin::new(self.p);
        (0..cap).map(|_| u64::from(coin.toss(rng))).sum()
    }
}

/// Uniform integer arrivals `U{0, ..., 2·mean}` (mean = `mean`), the model
/// of **Conjecture 3**. Declare `in(v) >= 2·mean` in the spec so the clamp
/// never bites.
#[derive(Debug, Clone, Copy)]
pub struct UniformInjection {
    /// Mean arrival count; samples are uniform on `0..=2·mean`.
    pub mean: u64,
}

impl InjectionProcess for UniformInjection {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn amount(&mut self, _v: NodeId, _t: u64, _cap: u64, rng: &mut StdRng) -> u64 {
        rng.random_range(0..=2 * self.mean)
    }
}

/// Periodic bursts: `burst` steps injecting `burst_amount·in(v)` followed
/// by `quiet` silent steps — the over-injection-then-compensation pattern
/// of **Conjecture 2**. The window-feasibility condition of the conjecture
/// holds iff `burst·burst_amount·in(v) <= (burst+quiet)·f*` sliced
/// appropriately; experiments sweep both sides of it.
#[derive(Debug, Clone, Copy)]
pub struct BurstInjection {
    /// Steps per burst phase.
    pub burst: u64,
    /// Silent steps after each burst.
    pub quiet: u64,
    /// Multiplier applied to `in(v)` during bursts (engine clamps to
    /// `in(v)`, so set `in(v)` to the burst peak in the spec and use
    /// `ScaledInjection`-style reasoning for averages).
    pub burst_amount: u64,
}

impl InjectionProcess for BurstInjection {
    fn name(&self) -> &'static str {
        "burst"
    }

    fn amount(&mut self, _v: NodeId, t: u64, cap: u64, _rng: &mut StdRng) -> u64 {
        let cycle = self.burst + self.quiet;
        if cycle == 0 || t % cycle < self.burst {
            cap.saturating_mul(self.burst_amount)
        } else {
            0
        }
    }
}

/// Replays a fixed per-step schedule, cycling when exhausted. All nodes
/// share the schedule scaled by their own `in(v)` when `scale_by_rate`,
/// otherwise the raw value is used for every source.
#[derive(Debug, Clone)]
pub struct TraceInjection {
    /// The repeating schedule of injection amounts.
    pub schedule: Vec<u64>,
    /// Multiply the schedule entry by `in(v)`.
    pub scale_by_rate: bool,
}

impl InjectionProcess for TraceInjection {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn amount(&mut self, _v: NodeId, t: u64, cap: u64, _rng: &mut StdRng) -> u64 {
        if self.schedule.is_empty() {
            return 0;
        }
        let raw = self.schedule[(t as usize) % self.schedule.len()];
        if self.scale_by_rate {
            raw.saturating_mul(cap)
        } else {
            raw
        }
    }
}

/// Two-state Markov (on/off) arrivals: inject `in(v)` while on, nothing
/// while off. Long-run rate = in(v) · p_on/(p_on + p_off) where the
/// parameters are the switching probabilities.
#[derive(Debug, Clone)]
pub struct OnOffInjection {
    /// P(on -> off) per step.
    pub p_off: f64,
    /// P(off -> on) per step.
    pub p_on: f64,
    state: Vec<bool>,
}

impl OnOffInjection {
    /// Creates the process with all sources initially on.
    pub fn new(p_off: f64, p_on: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_off) && (0.0..=1.0).contains(&p_on));
        OnOffInjection {
            p_off,
            p_on,
            state: Vec::new(),
        }
    }
}

impl InjectionProcess for OnOffInjection {
    fn name(&self) -> &'static str {
        "on-off"
    }

    fn amount(&mut self, v: NodeId, _t: u64, cap: u64, rng: &mut StdRng) -> u64 {
        if self.state.len() <= v.index() {
            self.state.resize(v.index() + 1, true);
        }
        // One draw whatever the state: an off source flips on with
        // `p_on`, an on one off with `p_off`.
        let flip = [Coin::new(self.p_on), Coin::new(self.p_off)];
        let on = &mut self.state[v.index()];
        *on ^= flip[usize::from(*on)].toss(rng);
        cap * u64::from(*on)
    }

    fn reset(&mut self) {
        self.state.clear();
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        wire::put_bool_slice(out, &self.state);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        let mut r = wire::Reader::new(bytes);
        self.state = r.bool_vec()?;
        r.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn exact_injects_cap() {
        let mut p = ExactInjection;
        assert_eq!(p.amount(NodeId::new(0), 0, 3, &mut rng()), 3);
        assert_eq!(p.name(), "exact");
    }

    #[test]
    fn scaled_long_run_average_is_exact() {
        let mut p = ScaledInjection::new(2, 3);
        let mut total = 0u64;
        let steps = 3000;
        let mut r = rng();
        for t in 0..steps {
            total += p.amount(NodeId::new(0), t, 1, &mut r);
        }
        assert_eq!(total, 2000); // exactly 2/3 of 3000
    }

    #[test]
    fn scaled_handles_multiple_nodes_independently() {
        let mut p = ScaledInjection::new(1, 2);
        let mut r = rng();
        let a: u64 = (0..10)
            .map(|t| p.amount(NodeId::new(0), t, 1, &mut r))
            .sum();
        let b: u64 = (0..10)
            .map(|t| p.amount(NodeId::new(5), t, 1, &mut r))
            .sum();
        assert_eq!(a, 5);
        assert_eq!(b, 5);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn scaled_rejects_improper_fraction() {
        ScaledInjection::new(3, 2);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = rng();
        let mut p0 = BernoulliInjection::new(0.0);
        let mut p1 = BernoulliInjection::new(1.0);
        assert_eq!(p0.amount(NodeId::new(0), 0, 5, &mut r), 0);
        assert_eq!(p1.amount(NodeId::new(0), 0, 5, &mut r), 5);
    }

    #[test]
    fn bernoulli_mean_is_roughly_p_cap() {
        let mut p = BernoulliInjection::new(0.3);
        let mut r = rng();
        let total: u64 = (0..10_000)
            .map(|t| p.amount(NodeId::new(0), t, 10, &mut r))
            .sum();
        let mean = total as f64 / 10_000.0;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn uniform_range_and_mean() {
        let mut p = UniformInjection { mean: 4 };
        let mut r = rng();
        let mut max_seen = 0;
        let mut total = 0u64;
        for t in 0..20_000 {
            let a = p.amount(NodeId::new(0), t, 100, &mut r);
            assert!(a <= 8);
            max_seen = max_seen.max(a);
            total += a;
        }
        assert_eq!(max_seen, 8);
        let mean = total as f64 / 20_000.0;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn burst_pattern() {
        let mut p = BurstInjection {
            burst: 2,
            quiet: 3,
            burst_amount: 4,
        };
        let mut r = rng();
        let seq: Vec<u64> = (0..10)
            .map(|t| p.amount(NodeId::new(0), t, 1, &mut r))
            .collect();
        assert_eq!(seq, vec![4, 4, 0, 0, 0, 4, 4, 0, 0, 0]);
    }

    #[test]
    fn trace_cycles_and_scales() {
        let mut p = TraceInjection {
            schedule: vec![1, 0, 2],
            scale_by_rate: true,
        };
        let mut r = rng();
        let seq: Vec<u64> = (0..6)
            .map(|t| p.amount(NodeId::new(0), t, 3, &mut r))
            .collect();
        assert_eq!(seq, vec![3, 0, 6, 3, 0, 6]);

        let mut p = TraceInjection {
            schedule: vec![],
            scale_by_rate: false,
        };
        assert_eq!(p.amount(NodeId::new(0), 0, 3, &mut r), 0);
    }

    #[test]
    fn onoff_stays_on_when_p_off_zero() {
        let mut p = OnOffInjection::new(0.0, 1.0);
        let mut r = rng();
        for t in 0..100 {
            assert_eq!(p.amount(NodeId::new(0), t, 2, &mut r), 2);
        }
    }

    #[test]
    fn stateful_processes_checkpoint_mid_stream() {
        // Run a Bresenham accumulator halfway, snapshot it, and check the
        // restored copy continues the exact deterministic sequence.
        let mut r = rng();
        let mut p = ScaledInjection::new(2, 7);
        for t in 0..13 {
            p.amount(NodeId::new(0), t, 3, &mut r);
        }
        let mut blob = Vec::new();
        p.save_state(&mut blob);
        let mut q = ScaledInjection::new(2, 7);
        q.load_state(&blob).unwrap();
        for t in 13..50 {
            assert_eq!(
                p.amount(NodeId::new(0), t, 3, &mut rng()),
                q.amount(NodeId::new(0), t, 3, &mut rng()),
            );
        }

        // On/off Markov state round-trips too (the RNG lives in the
        // engine, so equal state + equal rng stream = equal output).
        let mut p = OnOffInjection::new(0.4, 0.4);
        let mut r = rng();
        for t in 0..29 {
            p.amount(NodeId::new(0), t, 1, &mut r);
        }
        let mut blob = Vec::new();
        p.save_state(&mut blob);
        let mut q = OnOffInjection::new(0.4, 0.4);
        q.load_state(&blob).unwrap();
        assert_eq!(p.state, q.state);

        // A stateless process ignores the hooks entirely.
        let mut e = ExactInjection;
        let mut none = Vec::new();
        e.save_state(&mut none);
        assert!(none.is_empty());
        e.load_state(&none).unwrap();
    }

    #[test]
    fn onoff_rate_matches_stationary_distribution() {
        let mut p = OnOffInjection::new(0.1, 0.3);
        let mut r = rng();
        let total: u64 = (0..50_000)
            .map(|t| p.amount(NodeId::new(0), t, 1, &mut r))
            .sum();
        let rate = total as f64 / 50_000.0;
        // stationary P(on) = p_on / (p_on + p_off) = 0.75
        assert!((rate - 0.75).abs() < 0.02, "rate {rate}");
    }
}
