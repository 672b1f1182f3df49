//! Gradient-free strawman protocols: flooding and random forwarding.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simqueue::checkpoint::wire;
use simqueue::{LggError, NetView, RoutingProtocol, Transmission};

/// Send one packet over *every* active incident link while packets remain,
/// regardless of the neighbor's queue.
///
/// Flooding moves packets aggressively but with no sense of direction:
/// packets slosh back and forth, and delivery relies on luck. It bounds
/// the value of the gradient in LGG from below.
#[derive(Debug, Default, Clone, Copy)]
pub struct Flood;

impl RoutingProtocol for Flood {
    fn name(&self) -> &'static str {
        "flood"
    }

    fn plan(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>) {
        for &u in view.active_nodes {
            let mut budget = view.queue_of(u);
            if budget == 0 {
                continue;
            }
            for link in view.graph.incident_links(u) {
                if budget == 0 {
                    break;
                }
                if view.is_active(link.edge) {
                    budget -= 1;
                    out.push(Transmission {
                        edge: link.edge,
                        from: u,
                    });
                }
            }
        }
    }
}

/// Send up to `q_t(u)` packets over uniformly random distinct active
/// incident links — a random walk per packet.
#[derive(Debug)]
pub struct RandomForward {
    rng: StdRng,
    scratch: Vec<u32>,
}

impl RandomForward {
    /// Creates the protocol with its own RNG stream.
    pub fn new(seed: u64) -> Self {
        RandomForward {
            rng: StdRng::seed_from_u64(seed),
            scratch: Vec::new(),
        }
    }
}

impl RoutingProtocol for RandomForward {
    fn name(&self) -> &'static str {
        "random-forward"
    }

    fn plan(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>) {
        // Iterating the active view instead of all of V changes nothing in
        // the output (empty nodes are skipped either way, before the RNG is
        // touched) but keeps idle regions off the hot path.
        for &u in view.active_nodes {
            let budget = view.queue_of(u);
            if budget == 0 {
                continue;
            }
            self.scratch.clear();
            self.scratch.extend(
                view.graph
                    .incident_links(u)
                    .iter()
                    .filter(|l| view.is_active(l.edge))
                    .map(|l| l.edge.raw()),
            );
            self.scratch.shuffle(&mut self.rng);
            for &e in self.scratch.iter().take(budget as usize) {
                out.push(Transmission {
                    edge: mgraph::EdgeId::new(e),
                    from: u,
                });
            }
        }
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        for w in self.rng.state() {
            wire::put_word(out, w);
        }
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        let mut r = wire::Reader::new(bytes);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = r.word()?;
        }
        self.rng = StdRng::from_state(s);
        r.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgraph::generators;
    use netmodel::TrafficSpecBuilder;
    use simqueue::{HistoryMode, SimulationBuilder};

    #[test]
    fn flood_uses_every_link_once() {
        let g = generators::star(4);
        let spec = TrafficSpecBuilder::new(g)
            .source(0, 4)
            .sink(4, 4)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(Flood))
            .initial_queues(vec![10, 0, 0, 0, 0])
            .history(HistoryMode::None)
            .build();
        sim.step();
        // center floods all 4 links (+4 injected this step, budget amply covers).
        assert_eq!(sim.metrics().sent, 4);
        assert_eq!(sim.metrics().rejected_plans, 0);
    }

    #[test]
    fn flood_respects_budget() {
        let g = generators::star(4);
        let spec = TrafficSpecBuilder::new(g)
            .source(1, 1) // leaf source so center starts empty
            .sink(4, 1)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(Flood))
            .history(HistoryMode::None)
            .build();
        sim.step();
        // Only the leaf source has a packet; it sends exactly 1.
        assert_eq!(sim.metrics().sent, 1);
    }

    #[test]
    fn random_forward_moves_and_delivers() {
        let spec = TrafficSpecBuilder::new(generators::cycle(6))
            .source(0, 1)
            .sink(3, 1)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(RandomForward::new(3)))
            .history(HistoryMode::None)
            .build();
        sim.run(500);
        let m = sim.metrics();
        assert!(m.sent > 0);
        // Random walk on a small cycle eventually delivers something.
        assert!(m.delivered > 0);
        // Both endpoints may pick the same link; the engine rejects the
        // second per the one-packet-per-link rule. Conservation still holds.
        let stored: u64 = sim.queues().iter().sum();
        assert_eq!(m.injected, stored + m.delivered + m.lost);
    }

    #[test]
    fn random_forward_is_seed_deterministic() {
        let run = |seed| {
            let spec = TrafficSpecBuilder::new(generators::cycle(5))
                .source(0, 1)
                .sink(2, 1)
                .build()
                .unwrap();
            let mut sim = SimulationBuilder::new(spec, Box::new(RandomForward::new(seed)))
                .history(HistoryMode::None)
                .seed(1)
                .build();
            sim.run(100);
            sim.queues().to_vec()
        };
        assert_eq!(run(5), run(5));
    }
}
