//! Adversarial gauntlet: everything the paper's model allows to go wrong,
//! at once, on a *saturated* network (zero slack — Lemma 1 does not
//! apply, only Theorem 2 via Conjecture 1 covers it).
//!
//! * the min cut is fully loaded by the maximal regime;
//! * arrivals come in bursts with compensating quiet periods
//!   (Conjecture 2's regime, dominated by the maximal one);
//! * a targeted adversary kills the most useful packet in flight every
//!   step ("this packet can be lost without any notification");
//! * the destination is R-generalized: it retains up to R packets, lies
//!   about its queue below R, and extracts as lazily as Definition 7
//!   permits.
//!
//! Conjecture 1 says: if the maximal lossless regime is stable, nothing
//! dominated by it — losses included — can destabilize LGG. Watch it hold.
//!
//! ```text
//! cargo run --release --example adversarial_gauntlet
//! ```

use lgg_core::Lgg;
use mgraph::generators;
use netmodel::{classify, TrafficSpecBuilder};
use simqueue::declare::FullRetention;
use simqueue::injection::BurstInjection;
use simqueue::loss::AdversarialLoss;
use simqueue::{assess_stability, HistoryMode, LazyExtraction, SimulationBuilder};

fn main() {
    // Saturated diamond: 4 disjoint branches, source rate 4 = min cut = 4.
    // R-generalized endpoints with retention 6.
    let spec = TrafficSpecBuilder::new(generators::layered_diamond(2, 4))
        .generalized(0, 4, 0)
        .generalized(10, 0, 4)
        .retention(6)
        .build()
        .expect("gauntlet spec");

    let class = classify(&spec);
    println!(
        "diamond: n = {}, min cut = f* = {}, {:?} (zero slack)",
        spec.node_count(),
        class.f_star,
        class.feasibility
    );
    println!(
        "retention R = {} (the destination may hoard and lie below this)",
        spec.retention
    );

    let steps = 40_000;
    let run = |label: &str, gauntlet: bool| {
        let mut builder = SimulationBuilder::new(spec.clone(), Box::new(Lgg::new()))
            .history(HistoryMode::Sampled(32))
            .seed(13);
        if gauntlet {
            builder = builder
                // bursts of in(s) = 4/step for 10 steps, then 10 silent
                // steps: a dominated (average 2 < cut 4) but spiky regime.
                .injection(Box::new(BurstInjection {
                    burst: 10,
                    quiet: 10,
                    burst_amount: 1,
                }))
                // each step, the single most useful in-flight packet dies.
                .loss(Box::new(AdversarialLoss::new(1)))
                // the destination hides its true queue and hoards R packets.
                .declaration(Box::new(FullRetention))
                .extraction(Box::new(LazyExtraction));
        }
        let mut sim = builder.build();
        sim.run(steps);
        let m = sim.metrics();
        let verdict = assess_stability(&m.history).verdict;
        println!("--- {label} ---");
        println!(
            "  verdict {verdict:?}; sup backlog {}; injected {}, delivered {} ({:.1}%), lost {}",
            m.sup_total,
            m.injected,
            m.delivered,
            100.0 * m.delivery_ratio(),
            m.lost
        );
        verdict
    };

    let base = run("maximal lossless regime (Conjecture 1 hypothesis)", false);
    let hard = run(
        "gauntlet: bursts + targeted loss + lying lazy R-destination",
        true,
    );

    println!(
        "Conjecture 1 prediction: stable hypothesis ⇒ stable under any dominated \
         behavior. observed: {base:?} ⇒ {hard:?}"
    );
    println!(
        "the adversary steals throughput (delivery < 100%) but cannot create backlog: \
         losses only ever help stability, exactly as Section III remarks"
    );
}
