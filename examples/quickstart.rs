//! Quickstart: build an S-D-network, check its feasibility, run the LGG
//! protocol, and confirm the paper's headline claim — bounded queues on a
//! feasible network.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lgg_core::bounds::unsaturated_bounds;
use lgg_core::Lgg;
use mgraph::generators;
use netmodel::{classify, Feasibility, TrafficSpecBuilder};
use simqueue::{assess_stability, HistoryMode, SimulationBuilder};

fn main() {
    // 1. A network: a 5×5 grid; one corner injects 1 packet/step, the
    //    opposite corner can extract up to 4.
    let graph = generators::grid2d(5, 5);
    let spec = TrafficSpecBuilder::new(graph)
        .source(0, 1)
        .sink(24, 4)
        .build()
        .expect("valid S-D-network");

    // 2. Classify it: the paper's whole theory is gated on feasibility
    //    (Definition 3) and slack (Definition 4).
    let class = classify(&spec);
    println!(
        "network: n = {}, Δ = {}",
        spec.node_count(),
        spec.max_degree()
    );
    println!(
        "arrival rate = {}, f* = {}",
        class.arrival_rate, class.f_star
    );
    match &class.feasibility {
        Feasibility::Unsaturated { .. } => {
            let b = unsaturated_bounds(&spec).unwrap();
            println!(
                "unsaturated with margin ε = {:.3}; Lemma 1 bounds P_t by {:.3e}",
                b.epsilon, b.state_bound
            );
        }
        Feasibility::Saturated => println!("feasible but saturated (Theorem 2 territory)"),
        Feasibility::Infeasible { max_flow, .. } => {
            println!("infeasible (max flow {max_flow}): every protocol diverges")
        }
    }

    // 3. Run LGG — each node only ever looks at its neighbors' queue
    //    lengths (Algorithm 1).
    let steps = 20_000;
    let mut sim = SimulationBuilder::new(spec, Box::new(Lgg::new()))
        .history(HistoryMode::Sampled(16))
        .seed(42)
        .build();
    sim.run(steps);

    // 4. Inspect the run.
    let m = sim.metrics();
    let stability = assess_stability(&m.history);
    println!("--- after {steps} steps of LGG ---");
    println!("verdict:        {:?}", stability.verdict);
    println!("sup_t Σ q_t(v): {}", m.sup_total);
    println!("sup_t P_t:      {}", m.sup_pt);
    println!("delivered:      {} / {} injected", m.delivered, m.injected);
    println!(
        "mean latency:   {:.1} steps (Little's law)",
        m.mean_latency()
    );
}
