//! Deterministic seed derivation, and the integer form of a Bernoulli
//! draw.
//!
//! Every stochastic component of a simulation (injection, loss, topology,
//! protocol tie-breaking) draws from its own `StdRng`, seeded from the
//! run's master seed via SplitMix64 with a distinct stream tag. This keeps
//! components statistically independent while making paired runs (same
//! seed, different protocol or injection) share coin flips component-wise —
//! exactly what the Conjecture-1 domination experiment requires.

use rand::rngs::StdRng;
use rand::RngCore;

/// One round of SplitMix64 — the recommended seeder for other PRNGs.
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    *state = z ^ (z >> 31);
}

/// Derives the sub-seed for component `stream` of master seed `seed`.
///
/// Distinct `(seed, stream)` pairs give independent-looking sub-seeds;
/// the same pair always gives the same sub-seed.
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix64(&mut s);
    splitmix64(&mut s);
    s
}

/// A Bernoulli(`p`) coin that makes the same decision as
/// `rng.random_bool(p)` from the same one draw, as an integer compare.
///
/// `random_bool` tests `(w >> 11) · 2⁻⁵³ < p` for the drawn word `w`.
/// Multiplying both sides by 2⁵³ is exact in `f64` (the left side is a
/// 53-bit integer, the right a power-of-two multiple of `p`), and an
/// integer is below a real exactly when it is below the real's ceiling,
/// so the test is `(w >> 11) < ⌈p·2⁵³⌉`. The threshold lies in `0..=2⁵³`;
/// `p = 1` gives 2⁵³, above every draw.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Coin(u64);

impl Coin {
    /// The coin for probability `p`. Panics, as `random_bool` does, if
    /// `p` is NaN or outside `[0, 1]`.
    pub(crate) fn new(p: f64) -> Coin {
        assert!(
            (0.0..=1.0).contains(&p),
            "random_bool: probability {p} outside [0, 1]"
        );
        Coin((p * (1u64 << 53) as f64).ceil() as u64)
    }

    /// Whether the drawn word `w` comes up heads.
    #[inline]
    pub(crate) fn hits(self, w: u64) -> bool {
        (w >> 11) < self.0
    }

    /// Draws one word from `rng` and tosses: `rng.random_bool(p)`,
    /// without its range check or float compare.
    #[inline]
    pub(crate) fn toss(self, rng: &mut StdRng) -> bool {
        self.hits(rng.next_u64())
    }
}

/// Stream tags used by the engine (public so tests and paired experiments
/// can reproduce individual streams).
pub(crate) mod streams {
    pub const INJECTION: u64 = 1;
    pub const LOSS: u64 = 2;
    pub const TOPOLOGY: u64 = 3;
    pub const POLICY: u64 = 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(split_seed(42, 1), split_seed(42, 1));
    }

    #[test]
    fn streams_differ() {
        let a = split_seed(42, 1);
        let b = split_seed(42, 2);
        let c = split_seed(43, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    /// Hands out one fixed word, so `random_bool` can be asked about it.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn coin_agrees_with_random_bool_at_boundary_words() {
        use rand::Rng;
        let tiny = f64::from_bits(1); // the smallest positive subnormal
        let probs = [
            0.0,
            tiny,
            1.0 / (1u64 << 53) as f64,
            0.25,
            0.3,
            0.5,
            0.7,
            1.0 - 1.0 / (1u64 << 53) as f64,
            1.0,
        ];
        for p in probs {
            let coin = Coin::new(p);
            assert!(coin.0 <= 1 << 53, "{p}");
            let mut words = vec![0, (1 << 11) - 1, u64::MAX];
            // The words just below and at the threshold, and around it
            // within one 2^11 group.
            for x in [coin.0.saturating_sub(1), coin.0, coin.0 + 1] {
                let w = x << 11;
                words.extend([w, w | ((1 << 11) - 1), w.wrapping_sub(1)]);
            }
            for w in words {
                let want = Word(w).random_bool(p);
                assert_eq!(coin.hits(w), want, "p = {p:e}, w = {w:#x}");
            }
        }
        // p = 1 wins on every word, p = 0 on none; a subnormal p wins
        // only on the words whose top 53 bits are zero.
        assert!(Coin::new(1.0).hits(u64::MAX));
        assert!(!Coin::new(0.0).hits(0));
        assert!(Coin::new(tiny).hits((1 << 11) - 1));
        assert!(!Coin::new(tiny).hits(1 << 11));
    }

    #[test]
    fn coin_tosses_consume_one_word_each() {
        use rand::{Rng, SeedableRng};
        let (mut a, mut b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        for p in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let coin = Coin::new(p);
            for _ in 0..64 {
                assert_eq!(coin.toss(&mut a), b.random_bool(p));
            }
        }
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn coin_rejects_nan() {
        Coin::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn coin_rejects_above_one() {
        Coin::new(1.0 + f64::EPSILON);
    }

    #[test]
    fn zero_seed_is_fine() {
        assert_ne!(split_seed(0, 0), 0);
        assert_ne!(split_seed(0, 1), split_seed(0, 2));
    }
}
