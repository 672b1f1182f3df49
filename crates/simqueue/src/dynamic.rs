//! Dynamic-topology processes (Conjecture 4).
//!
//! The multigraph itself stays immutable; a [`TopologyProcess`] maintains a
//! per-step *activity mask* over links. Inactive links carry no packets
//! (the engine drops any plan using them), modeling link failures and
//! churn. Conjecture 4 asks whether LGG stays stable as long as the
//! *active* subnetwork keeps admitting a feasible flow — the
//! feasibility-preserving processes here let experiments probe exactly
//! that.

use mgraph::MultiGraph;
use rand::rngs::StdRng;

use crate::checkpoint::wire;
use crate::error::LggError;
use crate::rng::Coin;

/// Maintains the link-activity mask, called once at the start of each step.
pub trait TopologyProcess {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Updates `active` (one flag per link) for step `t`.
    fn update(&mut self, graph: &MultiGraph, t: u64, rng: &mut StdRng, active: &mut [bool]);

    /// Resets internal state.
    fn reset(&mut self) {}

    /// Appends the process's evolving state to `out` for a checkpoint
    /// (see [`crate::checkpoint`]). Stateless/time-indexed processes —
    /// the default — write nothing.
    fn save_state(&mut self, _out: &mut Vec<u8>) {}

    /// Restores state captured by [`TopologyProcess::save_state`].
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), LggError> {
        Ok(())
    }
}

/// The static topology of the paper's core model: every link always up.
#[derive(Debug, Default, Clone, Copy)]
pub struct StaticTopology;

impl TopologyProcess for StaticTopology {
    fn name(&self) -> &'static str {
        "static"
    }

    fn update(&mut self, _graph: &MultiGraph, _t: u64, _rng: &mut StdRng, active: &mut [bool]) {
        active.iter_mut().for_each(|a| *a = true);
    }
}

/// Each link independently fails with probability `p_fail` and repairs
/// with probability `p_repair` per step (two-state Markov chain per link).
/// Links in `protected` never fail — protecting a spanning feasible-flow
/// edge set yields the feasibility-preserving churn of Conjecture 4.
#[derive(Debug, Clone)]
pub struct MarkovTopology {
    /// P(up -> down) per step for unprotected links.
    pub p_fail: f64,
    /// P(down -> up) per step.
    pub p_repair: f64,
    /// `protected[e]` links never go down (empty = nothing protected).
    pub protected: Vec<bool>,
    down: Vec<bool>,
}

impl MarkovTopology {
    /// Creates the process with all links initially up.
    pub fn new(p_fail: f64, p_repair: f64, protected: Vec<bool>) -> Self {
        assert!((0.0..=1.0).contains(&p_fail) && (0.0..=1.0).contains(&p_repair));
        MarkovTopology {
            p_fail,
            p_repair,
            protected,
            down: Vec::new(),
        }
    }
}

impl TopologyProcess for MarkovTopology {
    fn name(&self) -> &'static str {
        "markov"
    }

    fn update(&mut self, graph: &MultiGraph, _t: u64, rng: &mut StdRng, active: &mut [bool]) {
        if self.down.len() < graph.edge_count() {
            self.down.resize(graph.edge_count(), false);
        }
        // An unprotected link draws once whatever its state: an up link
        // flips on a failure, a down one on a repair.
        let flip = [Coin::new(self.p_fail), Coin::new(self.p_repair)];
        let m = graph.edge_count();
        for (e, (down, up)) in self.down[..m].iter_mut().zip(&mut active[..m]).enumerate() {
            if self.protected.get(e).copied().unwrap_or(false) {
                *down = false;
            } else {
                *down ^= flip[usize::from(*down)].toss(rng);
            }
            *up = !*down;
        }
    }

    fn reset(&mut self) {
        self.down.clear();
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        wire::put_bool_slice(out, &self.down);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        let mut r = wire::Reader::new(bytes);
        self.down = r.bool_vec()?;
        r.done()
    }
}

/// Deterministic rotating outage: at step `t`, links
/// `{(t·k + i) mod m : i < k}` are down. Every link periodically fails, but
/// only `k` at a time.
#[derive(Debug, Clone, Copy)]
pub struct RotatingOutage {
    /// Number of simultaneously failed links.
    pub k: usize,
}

impl TopologyProcess for RotatingOutage {
    fn name(&self) -> &'static str {
        "rotating"
    }

    fn update(&mut self, graph: &MultiGraph, t: u64, _rng: &mut StdRng, active: &mut [bool]) {
        active.iter_mut().for_each(|a| *a = true);
        let m = graph.edge_count();
        if m == 0 {
            return;
        }
        for i in 0..self.k.min(m) {
            let e = ((t as usize).wrapping_mul(self.k).wrapping_add(i)) % m;
            active[e] = false;
        }
    }
}

/// Periodic on/off schedule applied to a chosen link set: down during the
/// first `down_for` steps of every `period`-step cycle.
#[derive(Debug, Clone)]
pub struct PeriodicOutage {
    /// Links subject to the outage (`true` = affected).
    pub affected: Vec<bool>,
    /// Cycle length in steps.
    pub period: u64,
    /// Down-time at the start of each cycle.
    pub down_for: u64,
}

impl TopologyProcess for PeriodicOutage {
    fn name(&self) -> &'static str {
        "periodic"
    }

    fn update(&mut self, graph: &MultiGraph, t: u64, _rng: &mut StdRng, active: &mut [bool]) {
        let down_phase = self.period > 0 && t % self.period < self.down_for;
        for e in 0..graph.edge_count() {
            active[e] = !(down_phase && self.affected.get(e).copied().unwrap_or(false));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgraph::generators;
    use rand::SeedableRng;

    #[test]
    fn static_topology_all_up() {
        let g = generators::path(5);
        let mut active = vec![false; g.edge_count()];
        let mut rng = StdRng::seed_from_u64(1);
        StaticTopology.update(&g, 0, &mut rng, &mut active);
        assert!(active.iter().all(|&a| a));
    }

    #[test]
    fn markov_protected_links_never_fail() {
        let g = generators::path(4); // 3 edges
        let mut topo = MarkovTopology::new(1.0, 0.0, vec![false, true, false]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut active = vec![true; 3];
        for t in 0..20 {
            topo.update(&g, t, &mut rng, &mut active);
            assert!(active[1], "protected link failed at t={t}");
        }
        // Unprotected links with p_fail = 1, p_repair = 0 are down forever.
        assert!(!active[0]);
        assert!(!active[2]);
        topo.reset();
        assert!(topo.down.is_empty());
    }

    #[test]
    fn markov_state_round_trips() {
        let g = generators::cycle(8);
        let mut topo = MarkovTopology::new(0.3, 0.3, vec![]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut active = vec![true; g.edge_count()];
        for t in 0..25 {
            topo.update(&g, t, &mut rng, &mut active);
        }
        let mut blob = Vec::new();
        topo.save_state(&mut blob);
        let mut copy = MarkovTopology::new(0.3, 0.3, vec![]);
        copy.load_state(&blob).unwrap();
        assert_eq!(topo.down, copy.down);
    }

    #[test]
    fn markov_repair_brings_links_back() {
        let g = generators::path(3);
        let mut topo = MarkovTopology::new(1.0, 1.0, vec![]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut active = vec![true; 2];
        topo.update(&g, 0, &mut rng, &mut active); // all fail
        assert!(active.iter().all(|&a| !a));
        topo.update(&g, 1, &mut rng, &mut active); // all repair
        assert!(active.iter().all(|&a| a));
    }

    #[test]
    fn rotating_outage_downs_exactly_k() {
        let g = generators::cycle(6);
        let mut topo = RotatingOutage { k: 2 };
        let mut rng = StdRng::seed_from_u64(1);
        let mut active = vec![true; 6];
        let mut downed = std::collections::HashSet::new();
        for t in 0..12 {
            topo.update(&g, t, &mut rng, &mut active);
            assert_eq!(active.iter().filter(|&&a| !a).count(), 2);
            for (e, &a) in active.iter().enumerate() {
                if !a {
                    downed.insert(e);
                }
            }
        }
        // Every link eventually cycles through an outage.
        assert_eq!(downed.len(), 6);
    }

    #[test]
    fn periodic_outage_schedule() {
        let g = generators::path(3); // edges 0,1
        let mut topo = PeriodicOutage {
            affected: vec![true, false],
            period: 4,
            down_for: 2,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut active = vec![true; 2];
        let mut pattern = Vec::new();
        for t in 0..8 {
            topo.update(&g, t, &mut rng, &mut active);
            pattern.push(active[0]);
            assert!(active[1], "unaffected link must stay up");
        }
        assert_eq!(
            pattern,
            vec![false, false, true, true, false, false, true, true]
        );
    }
}
