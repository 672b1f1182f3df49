//! Queue-declaration policies: what each node *tells its neighbors* its
//! queue length is.
//!
//! Classic nodes are truthful. R-generalized nodes follow Definition 6(ii):
//! when `q_t(v) > R` they must declare the truth; when `q_t(v) <= R` they
//! may declare **any** value `<= R`. The engine clamps every declaration to
//! that legality envelope, so no policy can cheat beyond what the paper
//! allows. Lying strategies matter because the Section V-C induction
//! models border nodes of the cut as exactly such liars.

use mgraph::NodeId;
use netmodel::TrafficSpec;
use rand::rngs::StdRng;
use rand::Rng;

/// Chooses the declared queue length of node `v` given its true length `q`.
///
/// The engine enforces Definition 6(ii) afterwards: if `q > R` the
/// declaration is forced to `q`; otherwise it is clamped to `<= R`. Plain
/// relays (not in `S ∪ D`) are always forced truthful.
pub trait DeclarationPolicy {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// The raw declaration before legality clamping.
    fn declare(&mut self, spec: &TrafficSpec, v: NodeId, q: u64, t: u64, rng: &mut StdRng)
        -> u64;

    /// True when [`DeclarationPolicy::declare`] is a pure function of
    /// `(spec, v, q)` — it reads neither `t` nor the RNG nor any mutable
    /// state. The engine then skips calling it for idle nodes (`q = 0`),
    /// substituting a value precomputed once per run;
    /// stateful or randomized policies keep the default `false` and get a
    /// full per-node scan every step, preserving their RNG stream exactly.
    fn is_stateless(&self) -> bool {
        false
    }

    /// Appends the policy's evolving state to `out` for a checkpoint (see
    /// [`crate::checkpoint`]). All shipped policies are pure functions of
    /// `(spec, v, q)` plus the engine-owned policy RNG — which the engine
    /// checkpoints itself — so the default writes nothing; custom stateful
    /// policies must override both hooks.
    fn save_state(&mut self, _out: &mut Vec<u8>) {}

    /// Restores state captured by [`DeclarationPolicy::save_state`].
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), crate::error::LggError> {
        Ok(())
    }
}

/// Always declare the true queue length (legal for any `R`).
#[derive(Debug, Default, Clone, Copy)]
pub struct TruthfulDeclaration;

impl DeclarationPolicy for TruthfulDeclaration {
    fn name(&self) -> &'static str {
        "truthful"
    }

    fn declare(
        &mut self,
        _spec: &TrafficSpec,
        _v: NodeId,
        q: u64,
        _t: u64,
        _rng: &mut StdRng,
    ) -> u64 {
        q
    }

    fn is_stateless(&self) -> bool {
        true
    }
}

/// Generalized nodes under-declare as hard as possible: declare `0`
/// whenever `q <= R` — they appear empty and attract maximum traffic.
#[derive(Debug, Default, Clone, Copy)]
pub struct ZeroBelowRetention;

impl DeclarationPolicy for ZeroBelowRetention {
    fn name(&self) -> &'static str {
        "zero-below-r"
    }

    fn declare(&mut self, spec: &TrafficSpec, v: NodeId, q: u64, _t: u64, _rng: &mut StdRng) -> u64 {
        let special = spec.in_rate(v) > 0 || spec.out_rate(v) > 0;
        if special && q <= spec.retention {
            0
        } else {
            q
        }
    }

    fn is_stateless(&self) -> bool {
        true
    }
}

/// Generalized nodes over-declare as hard as possible: declare `R`
/// whenever `q <= R` — they appear full and repel incoming traffic (the
/// "hide some packets" behavior the Section V-C pseudo-destinations need).
#[derive(Debug, Default, Clone, Copy)]
pub struct FullRetention;

impl DeclarationPolicy for FullRetention {
    fn name(&self) -> &'static str {
        "full-retention"
    }

    fn declare(&mut self, spec: &TrafficSpec, v: NodeId, q: u64, _t: u64, _rng: &mut StdRng) -> u64 {
        let special = spec.in_rate(v) > 0 || spec.out_rate(v) > 0;
        if special && q <= spec.retention {
            spec.retention
        } else {
            q
        }
    }

    fn is_stateless(&self) -> bool {
        true
    }
}

/// Generalized nodes declare a uniformly random legal value below `R`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RandomBelowRetention;

impl DeclarationPolicy for RandomBelowRetention {
    fn name(&self) -> &'static str {
        "random-below-r"
    }

    fn declare(&mut self, spec: &TrafficSpec, v: NodeId, q: u64, _t: u64, rng: &mut StdRng) -> u64 {
        let special = spec.in_rate(v) > 0 || spec.out_rate(v) > 0;
        if special && q <= spec.retention {
            rng.random_range(0..=spec.retention)
        } else {
            q
        }
    }
}

/// Clamps a raw declaration to the Definition 6(ii) legality envelope.
/// Relays are forced truthful; special nodes must tell the truth above `R`
/// and may say anything `<= R` below.
pub(crate) fn clamp_declaration(spec: &TrafficSpec, v: NodeId, q: u64, raw: u64) -> u64 {
    let special = spec.in_rate(v) > 0 || spec.out_rate(v) > 0;
    if !special || q > spec.retention {
        q
    } else {
        raw.min(spec.retention)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgraph::generators;
    use netmodel::TrafficSpecBuilder;
    use rand::SeedableRng;

    fn spec_r(r: u64) -> TrafficSpec {
        TrafficSpecBuilder::new(generators::path(3))
            .source(0, 1)
            .sink(2, 1)
            .retention(r)
            .build()
            .unwrap()
    }

    #[test]
    fn truthful_is_identity() {
        let spec = spec_r(5);
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = TruthfulDeclaration;
        assert_eq!(p.declare(&spec, NodeId::new(0), 3, 0, &mut rng), 3);
        assert_eq!(p.declare(&spec, NodeId::new(0), 9, 0, &mut rng), 9);
    }

    #[test]
    fn zero_below_r_lies_only_for_special_nodes_below_r() {
        let spec = spec_r(5);
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = ZeroBelowRetention;
        assert_eq!(p.declare(&spec, NodeId::new(0), 3, 0, &mut rng), 0); // source, q<=R
        assert_eq!(p.declare(&spec, NodeId::new(0), 9, 0, &mut rng), 9); // above R: truth
        assert_eq!(p.declare(&spec, NodeId::new(1), 3, 0, &mut rng), 3); // relay: truth
    }

    #[test]
    fn full_retention_declares_r() {
        let spec = spec_r(5);
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = FullRetention;
        assert_eq!(p.declare(&spec, NodeId::new(2), 0, 0, &mut rng), 5);
        assert_eq!(p.declare(&spec, NodeId::new(2), 7, 0, &mut rng), 7);
    }

    #[test]
    fn random_below_r_stays_legal() {
        let spec = spec_r(5);
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = RandomBelowRetention;
        for _ in 0..50 {
            let d = p.declare(&spec, NodeId::new(0), 2, 0, &mut rng);
            assert!(d <= 5);
        }
        assert_eq!(p.declare(&spec, NodeId::new(1), 2, 0, &mut rng), 2);
    }

    #[test]
    fn clamp_enforces_definition_6() {
        let spec = spec_r(5);
        // Above R: forced truthful no matter the raw claim.
        assert_eq!(clamp_declaration(&spec, NodeId::new(0), 9, 0), 9);
        // Below R: any claim up to R allowed, larger claims clamped to R.
        assert_eq!(clamp_declaration(&spec, NodeId::new(0), 2, 4), 4);
        assert_eq!(clamp_declaration(&spec, NodeId::new(0), 2, 99), 5);
        // Relay: always truthful.
        assert_eq!(clamp_declaration(&spec, NodeId::new(1), 2, 0), 2);
    }

    #[test]
    fn classic_network_cannot_lie_at_all() {
        let spec = spec_r(0);
        // R = 0: q <= R means q = 0 and the only legal claim is 0 = q.
        assert_eq!(clamp_declaration(&spec, NodeId::new(0), 0, 7), 0);
        assert_eq!(clamp_declaration(&spec, NodeId::new(0), 4, 0), 4);
    }
}
