//! Loss models: which in-flight packets vanish.
//!
//! The paper's model lets any transmission fail "without any notification";
//! the sender still deletes the packet (Section II / Algorithm 1). The
//! stability theory treats losses as adversary-controlled — "packet losses
//! here only improve the protocol stability" (Section III) — so the suite
//! ranges from no loss through i.i.d. and bursty channels to a targeted
//! adversary that kills the most useful transmissions first.

use mgraph::MultiGraph;
use rand::rngs::StdRng;

use crate::checkpoint::wire;
use crate::error::LggError;
use crate::protocol::Transmission;
use crate::rng::Coin;

/// Decides, for the whole batch of planned transmissions of one step,
/// which are lost. `lost` arrives zero-initialized with one slot per
/// transmission; set `lost[i] = true` to kill transmission `i`.
pub trait LossModel {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Marks lost transmissions for this step.
    fn apply(
        &mut self,
        graph: &MultiGraph,
        transmissions: &[Transmission],
        queues: &[u64],
        t: u64,
        rng: &mut StdRng,
        lost: &mut [bool],
    );

    /// Resets internal state (channel Markov states etc.).
    fn reset(&mut self) {}

    /// Appends the model's evolving state to `out` for a checkpoint (see
    /// [`crate::checkpoint`]). Stateless models — the default — write
    /// nothing; per-call scratch buffers do not count as state.
    fn save_state(&mut self, _out: &mut Vec<u8>) {}

    /// Restores state captured by [`LossModel::save_state`].
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), LggError> {
        Ok(())
    }
}

/// The lossless channel — the hypothesis regime of Conjecture 1.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoLoss;

impl LossModel for NoLoss {
    fn name(&self) -> &'static str {
        "none"
    }

    fn apply(
        &mut self,
        _graph: &MultiGraph,
        _transmissions: &[Transmission],
        _queues: &[u64],
        _t: u64,
        _rng: &mut StdRng,
        _lost: &mut [bool],
    ) {
    }
}

/// Every transmission independently lost with probability `p`.
#[derive(Debug, Clone, Copy)]
pub struct IidLoss {
    /// Per-transmission loss probability.
    pub p: f64,
}

impl IidLoss {
    /// Creates the channel; `p` must be a probability.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
        IidLoss { p }
    }
}

impl LossModel for IidLoss {
    fn name(&self) -> &'static str {
        "iid"
    }

    fn apply(
        &mut self,
        _graph: &MultiGraph,
        transmissions: &[Transmission],
        _queues: &[u64],
        _t: u64,
        rng: &mut StdRng,
        lost: &mut [bool],
    ) {
        let coin = Coin::new(self.p);
        for l in &mut lost[..transmissions.len()] {
            *l |= coin.toss(rng);
        }
    }
}

/// Independent loss probability per link (heterogeneous channels).
#[derive(Debug, Clone)]
pub struct PerLinkLoss {
    /// `p[e]` = loss probability of link `e`.
    pub p: Vec<f64>,
}

impl LossModel for PerLinkLoss {
    fn name(&self) -> &'static str {
        "per-link"
    }

    fn apply(
        &mut self,
        _graph: &MultiGraph,
        transmissions: &[Transmission],
        _queues: &[u64],
        _t: u64,
        rng: &mut StdRng,
        lost: &mut [bool],
    ) {
        for (i, tx) in transmissions.iter().enumerate() {
            let p = self.p.get(tx.edge.index()).copied().unwrap_or(0.0);
            if p > 0.0 {
                lost[i] |= Coin::new(p).toss(rng);
            }
        }
    }
}

/// Gilbert–Elliott bursty channel per link: a two-state Markov chain
/// (Good/Bad) with state-dependent loss probabilities.
#[derive(Debug, Clone)]
pub struct GilbertElliottLoss {
    /// Loss probability in the Good state.
    pub p_loss_good: f64,
    /// Loss probability in the Bad state.
    pub p_loss_bad: f64,
    /// P(Good -> Bad) per step.
    pub p_g2b: f64,
    /// P(Bad -> Good) per step.
    pub p_b2g: f64,
    bad: Vec<bool>,
}

impl GilbertElliottLoss {
    /// Creates the channel with all links initially Good.
    pub fn new(p_loss_good: f64, p_loss_bad: f64, p_g2b: f64, p_b2g: f64) -> Self {
        for p in [p_loss_good, p_loss_bad, p_g2b, p_b2g] {
            assert!((0.0..=1.0).contains(&p), "probabilities must be in [0,1]");
        }
        GilbertElliottLoss {
            p_loss_good,
            p_loss_bad,
            p_g2b,
            p_b2g,
            bad: Vec::new(),
        }
    }
}

impl LossModel for GilbertElliottLoss {
    fn name(&self) -> &'static str {
        "gilbert-elliott"
    }

    fn apply(
        &mut self,
        graph: &MultiGraph,
        transmissions: &[Transmission],
        _queues: &[u64],
        _t: u64,
        rng: &mut StdRng,
        lost: &mut [bool],
    ) {
        if self.bad.len() < graph.edge_count() {
            self.bad.resize(graph.edge_count(), false);
        }
        // Advance every link's channel state once per step: one draw per
        // link, against the leaving probability of its state.
        let flip = [Coin::new(self.p_g2b), Coin::new(self.p_b2g)];
        for b in self.bad.iter_mut() {
            *b ^= flip[usize::from(*b)].toss(rng);
        }
        // A state whose loss probability is zero draws nothing.
        let loss = [self.p_loss_good, self.p_loss_bad].map(|p| (p > 0.0).then(|| Coin::new(p)));
        for (l, tx) in lost.iter_mut().zip(transmissions) {
            if let Some(coin) = loss[usize::from(self.bad[tx.edge.index()])] {
                *l |= coin.toss(rng);
            }
        }
    }

    fn reset(&mut self) {
        self.bad.clear();
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        wire::put_bool_slice(out, &self.bad);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        let mut r = wire::Reader::new(bytes);
        self.bad = r.bool_vec()?;
        r.done()
    }
}

/// A budgeted adversary: each step it may kill up to `budget` packets and
/// greedily kills the transmissions whose *receivers* have the smallest
/// queues — the packets contributing the steepest gradient descent, i.e.
/// the ones LGG benefits from most.
#[derive(Debug, Clone)]
pub struct AdversarialLoss {
    /// Maximum packets killed per step.
    pub budget: usize,
    scratch: Vec<(u64, usize)>,
}

impl AdversarialLoss {
    /// Creates an adversary with the given per-step kill budget.
    pub fn new(budget: usize) -> Self {
        AdversarialLoss {
            budget,
            scratch: Vec::new(),
        }
    }
}

impl LossModel for AdversarialLoss {
    fn name(&self) -> &'static str {
        "adversarial"
    }

    fn apply(
        &mut self,
        graph: &MultiGraph,
        transmissions: &[Transmission],
        queues: &[u64],
        _t: u64,
        _rng: &mut StdRng,
        lost: &mut [bool],
    ) {
        if self.budget == 0 || transmissions.is_empty() {
            return;
        }
        self.scratch.clear();
        for (i, tx) in transmissions.iter().enumerate() {
            let to = graph.other_endpoint(tx.edge, tx.from);
            self.scratch.push((queues[to.index()], i));
        }
        self.scratch.sort_unstable();
        for &(_, i) in self.scratch.iter().take(self.budget) {
            lost[i] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgraph::{generators, EdgeId, NodeId};
    use rand::SeedableRng;

    fn txs(g: &MultiGraph) -> Vec<Transmission> {
        g.edges()
            .map(|e| Transmission {
                edge: e,
                from: g.endpoints(e).0,
            })
            .collect()
    }

    #[test]
    fn no_loss_keeps_everything() {
        let g = generators::path(4);
        let t = txs(&g);
        let mut lost = vec![false; t.len()];
        let mut rng = StdRng::seed_from_u64(1);
        NoLoss.apply(&g, &t, &[0; 4], 0, &mut rng, &mut lost);
        assert!(lost.iter().all(|&l| !l));
    }

    #[test]
    fn iid_extremes() {
        let g = generators::path(4);
        let t = txs(&g);
        let mut rng = StdRng::seed_from_u64(1);
        let mut lost = vec![false; t.len()];
        IidLoss::new(1.0).apply(&g, &t, &[0; 4], 0, &mut rng, &mut lost);
        assert!(lost.iter().all(|&l| l));
        let mut lost = vec![false; t.len()];
        IidLoss::new(0.0).apply(&g, &t, &[0; 4], 0, &mut rng, &mut lost);
        assert!(lost.iter().all(|&l| !l));
    }

    #[test]
    fn iid_rate_close_to_p() {
        let g = generators::complete(20); // 190 edges
        let t = txs(&g);
        let mut rng = StdRng::seed_from_u64(5);
        let mut total = 0usize;
        let rounds = 200;
        for step in 0..rounds {
            let mut lost = vec![false; t.len()];
            IidLoss::new(0.25).apply(&g, &t, &[0; 20], step, &mut rng, &mut lost);
            total += lost.iter().filter(|&&l| l).count();
        }
        let rate = total as f64 / (rounds as usize * t.len()) as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn per_link_targets_only_listed_links() {
        let g = generators::path(4); // edges 0,1,2
        let t = txs(&g);
        let mut model = PerLinkLoss {
            p: vec![1.0, 0.0, 1.0],
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut lost = vec![false; t.len()];
        model.apply(&g, &t, &[0; 4], 0, &mut rng, &mut lost);
        assert_eq!(lost, vec![true, false, true]);
    }

    #[test]
    fn gilbert_elliott_all_bad_loses_everything() {
        let g = generators::path(3);
        let t = txs(&g);
        let mut model = GilbertElliottLoss::new(0.0, 1.0, 1.0, 0.0); // jump to Bad, stay
        let mut rng = StdRng::seed_from_u64(1);
        let mut lost = vec![false; t.len()];
        model.apply(&g, &t, &[0; 3], 0, &mut rng, &mut lost);
        assert!(lost.iter().all(|&l| l));
        model.reset();
        assert!(model.bad.is_empty());
    }

    #[test]
    fn gilbert_elliott_state_round_trips() {
        let g = generators::complete(5);
        let t = txs(&g);
        let mut model = GilbertElliottLoss::new(0.05, 0.9, 0.3, 0.3);
        let mut rng = StdRng::seed_from_u64(11);
        for step in 0..17 {
            let mut lost = vec![false; t.len()];
            model.apply(&g, &t, &[0; 5], step, &mut rng, &mut lost);
        }
        let mut blob = Vec::new();
        model.save_state(&mut blob);
        let mut copy = GilbertElliottLoss::new(0.05, 0.9, 0.3, 0.3);
        copy.load_state(&blob).unwrap();
        assert_eq!(model.bad, copy.bad);
        // With equal channel state and equal RNG stream, the models stay
        // in lockstep.
        let mut ra = StdRng::seed_from_u64(99);
        let mut rb = StdRng::seed_from_u64(99);
        for step in 17..40 {
            let mut la = vec![false; t.len()];
            let mut lb = vec![false; t.len()];
            model.apply(&g, &t, &[0; 5], step, &mut ra, &mut la);
            copy.apply(&g, &t, &[0; 5], step, &mut rb, &mut lb);
            assert_eq!(la, lb);
        }
    }

    #[test]
    fn adversary_kills_smallest_receivers_first() {
        let g = generators::star(3); // center 0, leaves 1..3
                                     // transmissions from center to each leaf
        let t: Vec<Transmission> = g
            .edges()
            .map(|e| Transmission {
                edge: e,
                from: NodeId::new(0),
            })
            .collect();
        let queues = vec![10, 5, 1, 3]; // leaf 2 has the smallest queue
        let mut model = AdversarialLoss::new(1);
        let mut rng = StdRng::seed_from_u64(1);
        let mut lost = vec![false; t.len()];
        model.apply(&g, &t, &queues, 0, &mut rng, &mut lost);
        assert_eq!(lost.iter().filter(|&&l| l).count(), 1);
        // The killed transmission is the one towards leaf 2 (edge 1).
        let killed = lost.iter().position(|&l| l).unwrap();
        assert_eq!(
            g.other_endpoint(t[killed].edge, t[killed].from),
            NodeId::new(2)
        );
        assert_eq!(t[killed].edge, EdgeId::new(1));
    }

    #[test]
    fn adversary_budget_respected() {
        let g = generators::complete(6);
        let t = txs(&g);
        let mut model = AdversarialLoss::new(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut lost = vec![false; t.len()];
        model.apply(&g, &t, &[0; 6], 0, &mut rng, &mut lost);
        assert_eq!(lost.iter().filter(|&&l| l).count(), 4);
    }
}
