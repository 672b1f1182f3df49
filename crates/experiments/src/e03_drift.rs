//! E3 — Property 2: once the network state exceeds `nY²`, it strictly
//! decreases: `P_{t+1} − P_t < −5nΔ²`.
//!
//! `nY²` is astronomically large on most instances, so the experiment has
//! two parts: (a) a **literal** check on a small network whose `nY²` is
//! actually reachable by a warm start, sampling the drift while
//! `P_t > nY²`; (b) a **directional** check on the full catalog, warm-
//! started far above the stationary regime, verifying the drift is
//! negative there (the restoring force Property 2 formalizes).

use lgg_core::analysis::{conditional_drift_above, measure_drift, warm_start_above};
use lgg_core::bounds::unsaturated_bounds;
use lgg_core::Lgg;
use mgraph::generators;
use netmodel::TrafficSpecBuilder;
use simqueue::{HistoryMode, SimulationBuilder};

use crate::common::{fnum, steps_for, unsaturated_catalog};
use crate::{ExperimentReport, Table};

/// Runs both the literal and directional drift checks.
pub fn run(quick: bool) -> ExperimentReport {
    // Part (a): literal check on complete K4 with big slack.
    let small = TrafficSpecBuilder::new(generators::complete(4))
        .source(0, 1)
        .sink(3, 3)
        .build()
        .unwrap();
    let b = unsaturated_bounds(&small).expect("K4 spec is unsaturated");
    let threshold = b.decrease_threshold; // nY²
    let required = -b.growth_bound; // −5nΔ²

    let warm = warm_start_above(&small, threshold * 4.0);
    let mut sim = SimulationBuilder::new(small.clone(), Box::new(Lgg::new()))
        .initial_queues(warm)
        .history(HistoryMode::None)
        .seed(0xE3)
        .build();
    let literal_steps = steps_for(quick, 20_000);
    let samples = measure_drift(&mut sim, literal_steps);
    let (above_count, max_above) = conditional_drift_above(&samples, threshold);

    let mut literal = Table::new(
        "literal Property 2 check (complete K4, warm start above nY²)",
        &["quantity", "value"],
    );
    literal.push_row(vec!["n".into(), small.node_count().to_string()]);
    literal.push_row(vec!["Y".into(), fnum(b.y)]);
    literal.push_row(vec!["threshold nY²".into(), fnum(threshold)]);
    literal.push_row(vec!["required drift < −5nΔ²".into(), fnum(required)]);
    literal.push_row(vec![
        "samples with P_t > nY²".into(),
        above_count.to_string(),
    ]);
    literal.push_row(vec![
        "max drift among them".into(),
        max_above.map_or("n/a".into(), |d| d.to_string()),
    ]);

    let literal_pass = above_count > 0 && max_above.map_or(false, |d| (d as f64) < required);

    // Part (b): directional check across the catalog.
    let steps = steps_for(quick, 5_000);
    let catalog = unsaturated_catalog(0xE3);
    let rows: Vec<_> = parpool::run_ordered(catalog.iter().collect(), |(name, spec)| {
        // Warm start well above anything the stationary regime reaches.
        let stationary = crate::common::run_lgg(spec, steps, 0xE3);
        let target = (stationary.sup_pt as f64) * 100.0 + 1e6;
        let warm = warm_start_above(spec, target);
        let mut sim = SimulationBuilder::new(spec.clone(), Box::new(Lgg::new()))
            .initial_queues(warm)
            .history(HistoryMode::None)
            .seed(0xE3)
            .build();
        let samples = measure_drift(&mut sim, steps.min(2000));
        let (cnt, _) = conditional_drift_above(&samples, target);
        let mean_high: f64 = {
            let hi: Vec<_> = samples.iter().filter(|s| (s.pt as f64) > target).collect();
            if hi.is_empty() {
                0.0
            } else {
                hi.iter().map(|s| s.delta as f64).sum::<f64>() / hi.len() as f64
            }
        };
        (name.clone(), target, cnt, mean_high)
    });

    let mut directional = Table::new(
        "directional check: drift while P_t is far above stationary",
        &["topology", "threshold", "samples above", "mean drift above"],
    );
    let mut directional_pass = true;
    for (name, target, cnt, mean_high) in &rows {
        directional.push_row(vec![
            name.clone(),
            fnum(*target),
            cnt.to_string(),
            fnum(*mean_high),
        ]);
        if *cnt > 0 {
            directional_pass &= *mean_high < 0.0;
        }
    }

    ExperimentReport {
        id: "e3".into(),
        title: "negative drift above nY² (Property 2)".into(),
        paper_claim: "If P_t > nY², then at the next step the number of stored packets \
                      decreases: P_{t+1} − P_t < −5nΔ² (Property 2)."
            .into(),
        tables: vec![literal, directional],
        findings: vec![
            format!("literal check above nY² on K4: pass = {literal_pass}"),
            format!("directional restoring force on all catalog topologies: {directional_pass}"),
        ],
        pass: literal_pass && directional_pass,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e3_reproduces() {
        let r = super::run(true);
        assert!(r.pass, "{}", r.markdown());
    }
}
