//! Queue-declaration policies: what each node *tells its neighbors* its
//! queue length is.
//!
//! Classic nodes are truthful. R-generalized nodes follow Definition 6(ii):
//! when `q_t(v) > R` they must declare the truth; when `q_t(v) <= R` they
//! may declare **any** value `<= R`. Only the special nodes `S ∪ D` may
//! lie, so the engine consults the policy at those nodes only: once per
//! step each, in ascending node order, and never at a relay, which always
//! declares its true queue. It then clamps every declaration to the
//! legality envelope, so no policy can cheat beyond what the paper
//! allows. Lying strategies matter because the Section V-C induction
//! models border nodes of the cut as exactly such liars.

use mgraph::NodeId;
use netmodel::TrafficSpec;
use rand::rngs::StdRng;
use rand::Rng;

/// Chooses the declared queue length of special node `v` given its true
/// length `q`.
///
/// Contract: the engine calls [`DeclarationPolicy::declare`] once per
/// special node (`S ∪ D`) per step, in ascending node order, and never at
/// a relay; relays always declare their true queue. A policy that draws
/// randomness or keeps state therefore sees only the special nodes. The
/// engine enforces Definition 6(ii) afterwards: if `q > R` the
/// declaration is forced to `q`; otherwise it is clamped to `<= R`.
pub trait DeclarationPolicy {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// The raw declaration before legality clamping.
    fn declare(&mut self, spec: &TrafficSpec, v: NodeId, q: u64, t: u64, rng: &mut StdRng) -> u64;

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
}

/// Generalized nodes under-declare as hard as possible: declare `0`
/// whenever `q <= R` — they appear empty and attract maximum traffic.
#[derive(Debug, Default, Clone, Copy)]
pub struct ZeroBelowRetention;

impl DeclarationPolicy for ZeroBelowRetention {
    fn name(&self) -> &'static str {
        "zero-below-r"
    }

    fn declare(
        &mut self,
        spec: &TrafficSpec,
        v: NodeId,
        q: u64,
        _t: u64,
        _rng: &mut StdRng,
    ) -> u64 {
        if spec.is_special(v) && q <= spec.retention {
            0
        } else {
            q
        }
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

    fn declare(
        &mut self,
        spec: &TrafficSpec,
        v: NodeId,
        q: u64,
        _t: u64,
        _rng: &mut StdRng,
    ) -> u64 {
        if spec.is_special(v) && q <= spec.retention {
            spec.retention
        } else {
            q
        }
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
        if spec.is_special(v) && q <= spec.retention {
            rng.random_range(0..=spec.retention)
        } else {
            q
        }
    }
}

/// Clamps a special node's raw declaration to the Definition 6(ii)
/// envelope: the truth above `R`, anything `<= R` below.
pub(crate) fn clamp_declaration(spec: &TrafficSpec, q: u64, raw: u64) -> u64 {
    if q > spec.retention {
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
        assert_eq!(clamp_declaration(&spec, 9, 0), 9);
        // Below R: any claim up to R allowed, larger claims clamped to R.
        assert_eq!(clamp_declaration(&spec, 2, 4), 4);
        assert_eq!(clamp_declaration(&spec, 2, 99), 5);
    }

    #[test]
    fn classic_network_cannot_lie_at_all() {
        let spec = spec_r(0);
        // R = 0: q <= R means q = 0 and the only legal claim is 0 = q.
        assert_eq!(clamp_declaration(&spec, 0, 7), 0);
        assert_eq!(clamp_declaration(&spec, 4, 0), 4);
    }
}
