//! Declarative scenario files: a JSON description of a network, traffic,
//! protocol and environment, runnable via `lgg-sim`.

use lgg_core::baselines::{Flood, HeightRouting, MaxFlowRouting, RandomForward, ShortestPathRouting};
use lgg_core::interference::MatchingLgg;
use lgg_core::{Lgg, TieBreak};
use mgraph::{generators, MultiGraph, MultiGraphBuilder, NodeId};
use netmodel::{TrafficSpec, TrafficSpecBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use simqueue::declare::{
    DeclarationPolicy, FullRetention, RandomBelowRetention, TruthfulDeclaration,
    ZeroBelowRetention,
};
use simqueue::dynamic::{MarkovTopology, PeriodicOutage, RotatingOutage, StaticTopology, TopologyProcess};
use simqueue::injection::{
    BernoulliInjection, BurstInjection, ExactInjection, InjectionProcess, ScaledInjection,
    TraceInjection, UniformInjection,
};
use simqueue::loss::{AdversarialLoss, GilbertElliottLoss, IidLoss, LossModel, NoLoss};
use simqueue::{
    ExtractionPolicy, JsonlSink, LazyExtraction, LggError, MaxExtraction, RoutingProtocol,
    SimObserver, SimOverrides, SimulationBuilder, TraceEvent, WindowAggregator, WindowStats,
};

use std::fs::File;
use std::io::BufWriter;

/// Topology description.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(tag = "kind", rename_all = "kebab-case")]
#[allow(missing_docs)] // field names are the documentation
#[non_exhaustive]
pub enum TopologySpec {
    /// Path on `n` nodes.
    Path { n: usize },
    /// Cycle on `n >= 3` nodes.
    Cycle { n: usize },
    /// Complete graph.
    Complete { n: usize },
    /// 2-D grid.
    Grid2d { rows: usize, cols: usize },
    /// 2-D torus (both dims >= 3).
    Torus2d { rows: usize, cols: usize },
    /// Hypercube of dimension `d`.
    Hypercube { d: u32 },
    /// Two nodes, `k` parallel links.
    ParallelPair { k: usize },
    /// Two `clique`-cliques joined by a `bridge`-node path.
    Dumbbell { clique: usize, bridge: usize },
    /// Layered diamond.
    LayeredDiamond { layers: usize, width: usize },
    /// Leaf-spine fabric.
    LeafSpine {
        leaves: usize,
        spines: usize,
        trunks: usize,
        hosts_per_leaf: usize,
    },
    /// Connected random graph (`extra` edges beyond a spanning tree).
    ConnectedRandom { n: usize, extra: usize, seed: u64 },
    /// Random geometric graph in the unit square.
    RandomGeometric { n: usize, radius: f64, seed: u64 },
    /// Explicit edge list (multigraph: repeats allowed).
    Edges { nodes: usize, edges: Vec<(u32, u32)> },
}

impl TopologySpec {
    /// Materializes the multigraph.
    pub fn build(&self) -> Result<MultiGraph, LggError> {
        Ok(match self {
            TopologySpec::Path { n } => generators::path(*n),
            TopologySpec::Cycle { n } => {
                if *n < 3 {
                    return Err(LggError::scenario("cycle needs n >= 3"));
                }
                generators::cycle(*n)
            }
            TopologySpec::Complete { n } => generators::complete(*n),
            TopologySpec::Grid2d { rows, cols } => generators::grid2d(*rows, *cols),
            TopologySpec::Torus2d { rows, cols } => {
                if *rows < 3 || *cols < 3 {
                    return Err(LggError::scenario("torus needs dims >= 3"));
                }
                generators::torus2d(*rows, *cols)
            }
            TopologySpec::Hypercube { d } => generators::hypercube(*d),
            TopologySpec::ParallelPair { k } => generators::parallel_pair(*k),
            TopologySpec::Dumbbell { clique, bridge } => {
                if *clique < 1 {
                    return Err(LggError::scenario("dumbbell needs clique >= 1"));
                }
                generators::dumbbell(*clique, *bridge)
            }
            TopologySpec::LayeredDiamond { layers, width } => {
                if *layers < 1 || *width < 1 {
                    return Err(LggError::scenario("diamond needs layers, width >= 1"));
                }
                generators::layered_diamond(*layers, *width)
            }
            TopologySpec::LeafSpine {
                leaves,
                spines,
                trunks,
                hosts_per_leaf,
            } => generators::leaf_spine(*leaves, *spines, *trunks, *hosts_per_leaf),
            TopologySpec::ConnectedRandom { n, extra, seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                generators::connected_random(*n, *extra, &mut rng)
            }
            TopologySpec::RandomGeometric { n, radius, seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                generators::random_geometric(*n, *radius, &mut rng)
            }
            TopologySpec::Edges { nodes, edges } => {
                let mut b = MultiGraphBuilder::with_nodes(*nodes);
                for &(u, v) in edges {
                    b.add_edge(NodeId::new(u), NodeId::new(v))
                        .map_err(|e| LggError::scenario(e.to_string()))?;
                }
                b.build()
            }
        })
    }
}

/// One traffic endpoint.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Endpoint {
    /// Node id.
    pub node: u32,
    /// Rate (`in` for sources, `out` for sinks).
    pub rate: u64,
}

/// One R-generalized node (both rates).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct GeneralizedNode {
    /// Node id.
    pub node: u32,
    /// `in(v)`.
    pub r#in: u64,
    /// `out(v)`.
    pub out: u64,
}

/// Injection process description.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(tag = "kind", rename_all = "kebab-case")]
#[allow(missing_docs)] // field names are the documentation
#[non_exhaustive]
pub enum InjectionSpec {
    /// Exactly `in(v)` per step.
    Exact,
    /// Bresenham fraction `num/den` of `in(v)`.
    Scaled { num: u64, den: u64 },
    /// Binomial(in(v), p).
    Bernoulli { p: f64 },
    /// Uniform on `0..=2·mean`.
    Uniform { mean: u64 },
    /// Bursts of `amount·in(v)` for `burst` steps, then `quiet` silence.
    Burst { burst: u64, quiet: u64, amount: u64 },
    /// Cyclic schedule (scaled by `in(v)` when `scale`).
    Trace { schedule: Vec<u64>, scale: bool },
}

impl InjectionSpec {
    /// Builds the arrival process this spec names.
    pub fn build(&self) -> Result<Box<dyn InjectionProcess>, LggError> {
        Ok(match self {
            InjectionSpec::Exact => Box::new(ExactInjection),
            InjectionSpec::Scaled { num, den } => {
                if *den == 0 || num > den {
                    return Err(LggError::scenario("scaled fraction must be <= 1"));
                }
                Box::new(ScaledInjection::new(*num, *den))
            }
            InjectionSpec::Bernoulli { p } => {
                if !(0.0..=1.0).contains(p) {
                    return Err(LggError::scenario("bernoulli p out of range"));
                }
                Box::new(BernoulliInjection::new(*p))
            }
            InjectionSpec::Uniform { mean } => Box::new(UniformInjection { mean: *mean }),
            InjectionSpec::Burst { burst, quiet, amount } => Box::new(BurstInjection {
                burst: *burst,
                quiet: *quiet,
                burst_amount: *amount,
            }),
            InjectionSpec::Trace { schedule, scale } => Box::new(TraceInjection {
                schedule: schedule.clone(),
                scale_by_rate: *scale,
            }),
        })
    }
}

/// Loss model description.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(tag = "kind", rename_all = "kebab-case")]
#[allow(missing_docs)] // field names are the documentation
#[non_exhaustive]
pub enum LossSpec {
    /// Lossless channel.
    None,
    /// Independent loss with probability `p`.
    Iid { p: f64 },
    /// Gilbert–Elliott bursty channel.
    GilbertElliott {
        p_loss_good: f64,
        p_loss_bad: f64,
        p_g2b: f64,
        p_b2g: f64,
    },
    /// Targeted adversary with a per-step kill budget.
    Adversarial { budget: usize },
}

impl LossSpec {
    /// Builds the loss model this spec names.
    pub fn build(&self) -> Result<Box<dyn LossModel>, LggError> {
        Ok(match self {
            LossSpec::None => Box::new(NoLoss),
            LossSpec::Iid { p } => {
                if !(0.0..=1.0).contains(p) {
                    return Err(LggError::scenario("loss p out of range"));
                }
                Box::new(IidLoss::new(*p))
            }
            LossSpec::GilbertElliott {
                p_loss_good,
                p_loss_bad,
                p_g2b,
                p_b2g,
            } => Box::new(GilbertElliottLoss::new(
                *p_loss_good,
                *p_loss_bad,
                *p_g2b,
                *p_b2g,
            )),
            LossSpec::Adversarial { budget } => Box::new(AdversarialLoss::new(*budget)),
        })
    }
}

/// Topology dynamics description.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(tag = "kind", rename_all = "kebab-case")]
#[allow(missing_docs)] // field names are the documentation
#[non_exhaustive]
pub enum DynamicsSpec {
    /// All links always up (the paper's core model).
    Static,
    /// Per-link fail/repair Markov chain.
    Markov { p_fail: f64, p_repair: f64 },
    /// `k` links down at a time, rotating.
    Rotating { k: usize },
    /// Links `affected` down for the first `down_for` of every `period`.
    Periodic {
        affected: Vec<u32>,
        period: u64,
        down_for: u64,
    },
}

impl DynamicsSpec {
    /// Builds the topology process this spec names for `edge_count` links.
    pub fn build(&self, edge_count: usize) -> Box<dyn TopologyProcess> {
        match self {
            DynamicsSpec::Static => Box::new(StaticTopology),
            DynamicsSpec::Markov { p_fail, p_repair } => {
                Box::new(MarkovTopology::new(*p_fail, *p_repair, vec![]))
            }
            DynamicsSpec::Rotating { k } => Box::new(RotatingOutage { k: *k }),
            DynamicsSpec::Periodic {
                affected,
                period,
                down_for,
            } => {
                let mut mask = vec![false; edge_count];
                for &e in affected {
                    if (e as usize) < edge_count {
                        mask[e as usize] = true;
                    }
                }
                Box::new(PeriodicOutage {
                    affected: mask,
                    period: *period,
                    down_for: *down_for,
                })
            }
        }
    }
}

/// Protocol selection.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(rename_all = "kebab-case")]
#[non_exhaustive]
pub enum ProtocolSpec {
    /// Algorithm 1 (smallest-first).
    Lgg,
    /// Algorithm 1 with an explicit tie-break.
    LggRandom,
    /// Algorithm 1 with round-robin tie-break.
    LggRoundRobin,
    /// LGG under node-exclusive interference.
    MatchingLgg,
    /// Clairvoyant max-flow path routing.
    MaxflowRouting,
    /// Queue-oblivious nearest-sink forwarding.
    ShortestPath,
    /// Distributed push–relabel (Goldberg–Tarjan height labels).
    HeightRouting,
    /// Send on every link.
    Flood,
    /// Random-walk forwarding.
    RandomForward,
}

impl ProtocolSpec {
    /// Builds the protocol this spec names for `spec`; `seed` drives any
    /// randomized tie-breaking.
    pub fn build(&self, spec: &TrafficSpec, seed: u64) -> Box<dyn RoutingProtocol> {
        match self {
            ProtocolSpec::Lgg => Box::new(Lgg::new()),
            ProtocolSpec::LggRandom => Box::new(Lgg::with_tie_break(TieBreak::Random, seed)),
            ProtocolSpec::LggRoundRobin => {
                Box::new(Lgg::with_tie_break(TieBreak::RoundRobin, seed))
            }
            ProtocolSpec::MatchingLgg => Box::new(MatchingLgg::new()),
            ProtocolSpec::MaxflowRouting => Box::new(MaxFlowRouting::new(spec)),
            ProtocolSpec::ShortestPath => Box::new(ShortestPathRouting::new(spec)),
            ProtocolSpec::HeightRouting => Box::new(HeightRouting::new()),
            ProtocolSpec::Flood => Box::new(Flood),
            ProtocolSpec::RandomForward => Box::new(RandomForward::new(seed)),
        }
    }
}

/// Declaration policy selection (R-generalized lying strategies).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Default)]
#[serde(rename_all = "kebab-case")]
#[non_exhaustive]
pub enum DeclarationSpec {
    /// Always truthful.
    #[default]
    Truthful,
    /// Declare 0 below the retention constant.
    ZeroBelowR,
    /// Declare R below the retention constant.
    FullRetention,
    /// Declare uniformly at random below R.
    RandomBelowR,
}

impl DeclarationSpec {
    /// Builds the declaration policy this spec names.
    pub fn build(&self) -> Box<dyn DeclarationPolicy> {
        match self {
            DeclarationSpec::Truthful => Box::new(TruthfulDeclaration),
            DeclarationSpec::ZeroBelowR => Box::new(ZeroBelowRetention),
            DeclarationSpec::FullRetention => Box::new(FullRetention),
            DeclarationSpec::RandomBelowR => Box::new(RandomBelowRetention),
        }
    }
}

/// Extraction policy selection.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Default)]
#[serde(rename_all = "kebab-case")]
#[non_exhaustive]
pub enum ExtractionSpec {
    /// Extract `min(out, q)` (classic sink).
    #[default]
    Max,
    /// Extract the Definition 7(i) minimum.
    Lazy,
}

impl ExtractionSpec {
    /// Builds the extraction policy this spec names.
    pub fn build(&self) -> Box<dyn ExtractionPolicy> {
        match self {
            ExtractionSpec::Max => Box::new(MaxExtraction),
            ExtractionSpec::Lazy => Box::new(LazyExtraction),
        }
    }
}

/// Telemetry selection for the scenario's `telemetry` section: which
/// [`SimObserver`] the unified [`Scenario::build`] installs.
///
/// `#[non_exhaustive]`: future observer kinds (e.g. a binary trace
/// format) must not break downstream matches.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Default)]
#[serde(tag = "kind", rename_all = "kebab-case")]
#[non_exhaustive]
pub enum ObserverSpec {
    /// No telemetry (the default): the engine runs the allocation-free
    /// disabled path.
    #[default]
    Off,
    /// Aggregate events into fixed-size windows of
    /// [`WindowStats`] — published in the run report.
    Window {
        /// Steps per window.
        size: u64,
    },
    /// Stream every event as JSON Lines to a file.
    Jsonl {
        /// Output path, created/truncated at build time.
        path: String,
    },
}

impl ObserverSpec {
    /// Materializes the observer slot this spec describes.
    pub fn build(&self) -> Result<ScenarioObserver, LggError> {
        Ok(match self {
            ObserverSpec::Off => ScenarioObserver::Off,
            ObserverSpec::Window { size } => {
                if *size == 0 {
                    return Err(LggError::scenario("telemetry window size must be >= 1"));
                }
                ScenarioObserver::Window(WindowAggregator::new(*size))
            }
            ObserverSpec::Jsonl { path } => {
                let f = File::create(path).map_err(|e| {
                    LggError::scenario(format!("cannot create telemetry file {path}: {e}"))
                })?;
                ScenarioObserver::Jsonl(JsonlSink::new(BufWriter::new(f)))
            }
        })
    }
}

/// The observer slot a scenario-built simulation carries: one concrete
/// type covering every [`ObserverSpec`] choice plus caller-supplied
/// observers, so `Scenario::build` can return a single simulation type.
pub enum ScenarioObserver {
    /// Telemetry disabled — reports `enabled() == false`, so the engine
    /// skips event construction entirely.
    Off,
    /// Windowed aggregation.
    Window(WindowAggregator),
    /// JSONL streaming to a file.
    Jsonl(JsonlSink<BufWriter<File>>),
    /// A caller-supplied observer (from [`SimOverrides::observer`]).
    Custom(Box<dyn SimObserver>),
}

impl ScenarioObserver {
    /// The collected windows, when this is a window aggregator (closing
    /// the trailing partial window).
    pub fn into_windows(self) -> Option<Vec<WindowStats>> {
        match self {
            ScenarioObserver::Window(w) => Some(w.into_windows()),
            _ => None,
        }
    }
}

impl SimObserver for ScenarioObserver {
    fn enabled(&self) -> bool {
        match self {
            ScenarioObserver::Off => false,
            ScenarioObserver::Window(_) | ScenarioObserver::Jsonl(_) => true,
            ScenarioObserver::Custom(o) => o.enabled(),
        }
    }

    fn observe(&mut self, ev: TraceEvent) {
        match self {
            ScenarioObserver::Off => {}
            ScenarioObserver::Window(w) => w.observe(ev),
            ScenarioObserver::Jsonl(s) => s.observe(ev),
            ScenarioObserver::Custom(o) => o.observe(ev),
        }
    }

    fn finish(&mut self) {
        match self {
            ScenarioObserver::Off => {}
            ScenarioObserver::Window(w) => w.finish(),
            ScenarioObserver::Jsonl(s) => s.finish(),
            ScenarioObserver::Custom(o) => o.finish(),
        }
    }

    fn save_state(&mut self, out: &mut Vec<u8>) {
        match self {
            ScenarioObserver::Off => {}
            ScenarioObserver::Window(w) => w.save_state(out),
            ScenarioObserver::Jsonl(s) => s.save_state(out),
            ScenarioObserver::Custom(o) => o.save_state(out),
        }
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        match self {
            ScenarioObserver::Off => Ok(()),
            ScenarioObserver::Window(w) => w.load_state(bytes),
            ScenarioObserver::Jsonl(s) => s.load_state(bytes),
            ScenarioObserver::Custom(o) => o.load_state(bytes),
        }
    }
}

fn default_steps() -> u64 {
    10_000
}

/// A complete runnable scenario.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Scenario {
    /// The network topology.
    pub topology: TopologySpec,
    /// Classic sources (`in > 0`).
    #[serde(default)]
    pub sources: Vec<Endpoint>,
    /// Classic sinks (`out > 0`).
    #[serde(default)]
    pub sinks: Vec<Endpoint>,
    /// R-generalized nodes (both rates).
    #[serde(default)]
    pub generalized: Vec<GeneralizedNode>,
    /// Retention constant R.
    #[serde(default)]
    pub retention: u64,
    /// The protocol to run.
    pub protocol: ProtocolSpec,
    /// Arrival process (default exact).
    #[serde(default = "default_injection")]
    pub injection: InjectionSpec,
    /// Loss model (default none).
    #[serde(default = "default_loss")]
    pub loss: LossSpec,
    /// Topology dynamics (default static).
    #[serde(default = "default_dynamics")]
    pub dynamics: DynamicsSpec,
    /// Declaration policy (default truthful).
    #[serde(default)]
    pub declaration: DeclarationSpec,
    /// Extraction policy (default max).
    #[serde(default)]
    pub extraction: ExtractionSpec,
    /// Telemetry (default off: the zero-cost disabled observer).
    #[serde(default)]
    pub telemetry: ObserverSpec,
    /// Steps to simulate.
    #[serde(default = "default_steps")]
    pub steps: u64,
    /// Master seed.
    #[serde(default)]
    pub seed: u64,
    /// Record true per-packet latency distributions.
    #[serde(default)]
    pub track_ages: bool,
}

fn default_injection() -> InjectionSpec {
    InjectionSpec::Exact
}
fn default_loss() -> LossSpec {
    LossSpec::None
}
fn default_dynamics() -> DynamicsSpec {
    DynamicsSpec::Static
}

impl Scenario {
    /// Parses a scenario from JSON.
    pub fn from_json(json: &str) -> Result<Self, LggError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Materializes the traffic specification.
    pub fn traffic_spec(&self) -> Result<TrafficSpec, LggError> {
        let graph = self.topology.build()?;
        let mut b = TrafficSpecBuilder::new(graph).retention(self.retention);
        for s in &self.sources {
            b = b.source(s.node, s.rate);
        }
        for s in &self.sinks {
            b = b.sink(s.node, s.rate);
        }
        for g in &self.generalized {
            b = b.generalized(g.node, g.r#in, g.out);
        }
        Ok(b.build()?)
    }

    /// Builds the ready-to-run simulation — the single construction entry
    /// point. Everything the scenario file specifies can be overridden
    /// per run through `overrides`; `SimOverrides::default()` runs the
    /// file as written (including its `telemetry` section).
    pub fn build(
        &self,
        overrides: SimOverrides,
    ) -> Result<simqueue::Simulation<ScenarioObserver>, LggError> {
        let SimOverrides {
            seed,
            history,
            observer,
            checkpoint,
        } = overrides;
        let observer = match observer {
            Some(o) => ScenarioObserver::Custom(o),
            None => self.telemetry.build()?,
        };
        self.build_with_observer(
            SimOverrides {
                seed,
                history,
                observer: None,
                checkpoint,
            },
            observer,
        )
    }

    /// [`Scenario::build`] with a statically-typed observer: callers that
    /// know their observer type concretely (bench legs, trace capture,
    /// the experiments driver) avoid the [`ScenarioObserver`] dispatch
    /// enum. `overrides.observer` is ignored here — the typed `observer`
    /// argument *is* the override — and the scenario's own `telemetry`
    /// section is not consulted.
    pub fn build_with_observer<O: SimObserver>(
        &self,
        overrides: SimOverrides,
        observer: O,
    ) -> Result<simqueue::Simulation<O>, LggError> {
        let spec = self.traffic_spec()?;
        let seed = overrides.seed.unwrap_or(self.seed);
        let history = overrides
            .history
            .unwrap_or(simqueue::HistoryMode::Sampled((self.steps / 1024).max(1)));
        let protocol = self.protocol.build(&spec, seed);
        let dynamics = self.dynamics.build(spec.graph.edge_count());
        let mut sim = SimulationBuilder::new(spec, protocol)
            .injection(self.injection.build()?)
            .loss(self.loss.build()?)
            .topology(dynamics)
            .declaration(self.declaration.build())
            .extraction(self.extraction.build())
            .seed(seed)
            .history(history)
            .track_ages(self.track_ages)
            .observer(observer)
            .build();
        sim.set_checkpoint(overrides.checkpoint);
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "topology": {"kind": "grid2d", "rows": 3, "cols": 3},
        "sources": [{"node": 0, "rate": 1}],
        "sinks": [{"node": 8, "rate": 2}],
        "protocol": "lgg"
    }"#;

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let sc = Scenario::from_json(MINIMAL).unwrap();
        assert_eq!(sc.steps, 10_000);
        assert_eq!(sc.injection, InjectionSpec::Exact);
        assert_eq!(sc.loss, LossSpec::None);
        assert_eq!(sc.dynamics, DynamicsSpec::Static);
        assert_eq!(sc.declaration, DeclarationSpec::Truthful);
        let spec = sc.traffic_spec().unwrap();
        assert_eq!(spec.arrival_rate(), 1);
        assert!(spec.is_classic());
    }

    #[test]
    fn full_scenario_round_trips() {
        let sc = Scenario {
            topology: TopologySpec::Dumbbell { clique: 4, bridge: 2 },
            sources: vec![Endpoint { node: 0, rate: 1 }],
            sinks: vec![Endpoint { node: 9, rate: 4 }],
            generalized: vec![],
            retention: 3,
            protocol: ProtocolSpec::MatchingLgg,
            injection: InjectionSpec::Burst {
                burst: 5,
                quiet: 5,
                amount: 1,
            },
            loss: LossSpec::Iid { p: 0.1 },
            dynamics: DynamicsSpec::Rotating { k: 1 },
            declaration: DeclarationSpec::FullRetention,
            extraction: ExtractionSpec::Lazy,
            telemetry: ObserverSpec::Window { size: 64 },
            steps: 500,
            seed: 7,
            track_ages: true,
        };
        let json = serde_json::to_string_pretty(&sc).unwrap();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(sc, back);
    }

    #[test]
    fn scenario_runs_end_to_end() {
        let sc = Scenario::from_json(MINIMAL).unwrap();
        let mut sim = sc.build(SimOverrides::default()).unwrap();
        sim.run(500);
        assert!(sim.metrics().delivered > 0);
    }

    #[test]
    fn overrides_replace_scenario_settings() {
        let sc = Scenario::from_json(MINIMAL).unwrap();
        let run = |seed| {
            let mut sim = sc
                .build(SimOverrides {
                    history: Some(simqueue::HistoryMode::None),
                    seed,
                    ..SimOverrides::default()
                })
                .unwrap();
            sim.run(50);
            sim.metrics().clone()
        };
        // The history override is visible, and the seed override replaces
        // the scenario's seed (explicitly passing it changes nothing).
        assert!(run(None).history.is_empty());
        assert_eq!(run(Some(sc.seed)), run(None));
    }

    #[test]
    fn legacy_engine_key_is_ignored() {
        // Files written while the engine was selectable carry an `engine`
        // key; there is one step pipeline now, so the key parses and has
        // no effect.
        let legacy = MINIMAL.replace(
            r#""protocol": "lgg""#,
            r#""protocol": "lgg", "engine": "dense-reference""#,
        );
        assert_ne!(legacy, MINIMAL);
        assert_eq!(
            Scenario::from_json(&legacy).unwrap(),
            Scenario::from_json(MINIMAL).unwrap()
        );
    }

    #[test]
    fn telemetry_window_flows_into_observer() {
        let mut sc = Scenario::from_json(MINIMAL).unwrap();
        sc.telemetry = ObserverSpec::Window { size: 100 };
        let mut sim = sc.build(SimOverrides::default()).unwrap();
        sim.run(250);
        let windows = sim.into_observer().into_windows().expect("window observer");
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].samples, 100);
        assert_eq!(windows[2].samples, 50);
        assert!(windows[0].injected > 0);
    }

    #[test]
    fn telemetry_window_size_zero_is_rejected() {
        let mut sc = Scenario::from_json(MINIMAL).unwrap();
        sc.telemetry = ObserverSpec::Window { size: 0 };
        assert!(sc.build(SimOverrides::default()).is_err());
    }

    #[test]
    fn custom_observer_override_wins_over_telemetry_spec() {
        let mut sc = Scenario::from_json(MINIMAL).unwrap();
        sc.telemetry = ObserverSpec::Window { size: 100 };
        let mut sim = sc
            .build(SimOverrides {
                observer: Some(Box::new(simqueue::RingRecorder::new(8))),
                ..SimOverrides::default()
            })
            .unwrap();
        sim.run(50);
        // The slot holds the custom observer, not the window aggregator.
        assert!(sim.into_observer().into_windows().is_none());
    }

    #[test]
    fn telemetry_spec_round_trips() {
        for spec in [
            ObserverSpec::Off,
            ObserverSpec::Window { size: 256 },
            ObserverSpec::Jsonl {
                path: "run.jsonl".into(),
            },
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: ObserverSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
        }
        // Absent section defaults to off.
        let sc = Scenario::from_json(MINIMAL).unwrap();
        assert_eq!(sc.telemetry, ObserverSpec::Off);
    }

    #[test]
    fn invalid_node_is_reported() {
        let bad = r#"{
            "topology": {"kind": "path", "n": 3},
            "sources": [{"node": 99, "rate": 1}],
            "sinks": [{"node": 2, "rate": 1}],
            "protocol": "lgg"
        }"#;
        let sc = Scenario::from_json(bad).unwrap();
        let err = sc.traffic_spec().unwrap_err();
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn unbounded_retention_is_a_model_error() {
        // R = u64::MAX would let a lie collide with the engine's
        // "truthful" declaration sentinel; the spec refuses it.
        let json = MINIMAL.replacen('{', "{\"retention\": 18446744073709551615,", 1);
        let err = Scenario::from_json(&json).unwrap().traffic_spec().unwrap_err();
        assert!(
            matches!(err, LggError::Model(netmodel::ModelError::RetentionTooLarge)),
            "{err}"
        );
        assert_eq!(err.exit_code(), 5);
    }

    #[test]
    fn invalid_probability_is_reported() {
        let sc = Scenario {
            loss: LossSpec::Iid { p: 1.5 },
            ..Scenario::from_json(MINIMAL).unwrap()
        };
        assert!(sc.build(SimOverrides::default()).is_err());
    }

    #[test]
    fn edge_list_topology() {
        let sc = Scenario {
            topology: TopologySpec::Edges {
                nodes: 3,
                edges: vec![(0, 1), (1, 2), (0, 1)],
            },
            ..Scenario::from_json(MINIMAL).unwrap()
        };
        // sources/sinks from MINIMAL point at nodes 0 and 8: invalid here.
        assert!(sc.traffic_spec().is_err());
        let g = sc.topology.build().unwrap();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge_multiplicity(NodeId::new(0), NodeId::new(1)), 2);
    }

    #[test]
    fn all_protocols_build() {
        let sc = Scenario::from_json(MINIMAL).unwrap();
        let spec = sc.traffic_spec().unwrap();
        for p in [
            ProtocolSpec::Lgg,
            ProtocolSpec::LggRandom,
            ProtocolSpec::LggRoundRobin,
            ProtocolSpec::MatchingLgg,
            ProtocolSpec::MaxflowRouting,
            ProtocolSpec::ShortestPath,
            ProtocolSpec::HeightRouting,
            ProtocolSpec::Flood,
            ProtocolSpec::RandomForward,
        ] {
            let _ = p.build(&spec, 1);
        }
    }
}
