//! E13 — the Section V-C induction, replayed executably: split a saturated
//! network along an interior minimum cut of `G*`, simulate the sink-side
//! part `B'` (border nodes as pseudo-sources), measure its backlog bound
//! `R_B`, then simulate the source-side part `A'` as an `R_B`-generalized
//! network (border nodes as lying pseudo-destinations). Both must be
//! stable, as must the undecomposed network.

use lgg_core::Lgg;
use mgraph::generators;
use netmodel::{
    classify, decompose_at_cut, find_interior_min_cut, TrafficSpec, TrafficSpecBuilder,
};
use simqueue::declare::FullRetention;
use simqueue::LazyExtraction;

use crate::common::{run_customized, run_lgg, steps_for};
use crate::{ExperimentReport, Table};

fn cases() -> Vec<(String, TrafficSpec)> {
    vec![
        (
            "dumbbell(4,2)".into(),
            TrafficSpecBuilder::new(generators::dumbbell(4, 2))
                .source(0, 1)
                .sink(9, 4)
                .build()
                .unwrap(),
        ),
        (
            "diamond(3,2) saturated".into(),
            TrafficSpecBuilder::new(generators::layered_diamond(3, 2))
                .source(0, 2)
                .sink(9, 2)
                .build()
                .unwrap(),
        ),
    ]
}

/// Runs the induction replay.
pub fn run(quick: bool) -> ExperimentReport {
    let steps = steps_for(quick, 40_000);

    let mut table = Table::new(
        format!("cut-decomposition induction replay ({steps} steps per part)"),
        &[
            "network",
            "part",
            "n",
            "Σ in / Σ out",
            "feasible",
            "verdict",
            "sup Σq",
        ],
    );
    let mut pass = true;
    let mut findings = Vec::new();

    for (name, spec) in cases() {
        // Whole network first.
        let whole = run_lgg(&spec, steps, 0xE13);
        table.push_row(vec![
            name.clone(),
            "G (whole)".into(),
            spec.node_count().to_string(),
            format!("{} / {}", spec.arrival_rate(), spec.extraction_rate()),
            classify(&spec).feasibility.is_feasible().to_string(),
            whole.verdict_str().into(),
            whole.sup_total.to_string(),
        ]);
        pass &= whole.stable();

        let Some(side) = find_interior_min_cut(&spec) else {
            findings.push(format!("{name}: no interior min cut (unexpected)"));
            pass = false;
            continue;
        };

        // Step 1: B' with border pseudo-sources, original retention.
        let dec0 = decompose_at_cut(&spec, &side, 0);
        let b_class = classify(&dec0.b_spec);
        let b_run = run_lgg(&dec0.b_spec, steps, 0xE13);
        table.push_row(vec![
            name.clone(),
            "B' (sink side)".into(),
            dec0.b_spec.node_count().to_string(),
            format!(
                "{} / {}",
                dec0.b_spec.arrival_rate(),
                dec0.b_spec.extraction_rate()
            ),
            b_class.feasibility.is_feasible().to_string(),
            b_run.verdict_str().into(),
            b_run.sup_total.to_string(),
        ]);
        pass &= b_class.feasibility.is_feasible() && b_run.stable();

        // R_B := measured backlog bound of B' (the paper's existential
        // constant, realized empirically).
        let r_b = b_run.sup_total.max(1);

        // Step 2: A' as an R_B-generalized network whose border nodes are
        // lying, lazily-extracting pseudo-destinations.
        let dec = decompose_at_cut(&spec, &side, r_b);
        let a_class = classify(&dec.a_spec);
        let a_run = run_customized(&dec.a_spec, Box::new(Lgg::new()), steps, 0xE13, |b| {
            b.declaration(Box::new(FullRetention))
                .extraction(Box::new(LazyExtraction))
        });
        table.push_row(vec![
            name.clone(),
            format!("A' (source side, R_B = {r_b})"),
            dec.a_spec.node_count().to_string(),
            format!(
                "{} / {}",
                dec.a_spec.arrival_rate(),
                dec.a_spec.extraction_rate()
            ),
            a_class.feasibility.is_feasible().to_string(),
            a_run.verdict_str().into(),
            a_run.sup_total.to_string(),
        ]);
        pass &= a_class.feasibility.is_feasible() && a_run.stable();

        findings.push(format!(
            "{name}: cut of {} edge(s); B' bounded by R_B = {r_b}; A' stable as an \
             R_B-generalized network with worst-case lying borders",
            dec.crossing_edges
        ));
    }

    ExperimentReport {
        id: "e13".into(),
        title: "cut-decomposition induction (Section V-C)".into(),
        paper_claim: "Partition B acts as a feasible S'-D-network with pseudo-sources \
                      injecting |Γ_A(v)| + in(v); once B's backlog is bounded by R_B, \
                      partition A acts as a feasible R_B-generalized network with \
                      pseudo-destinations extracting |Γ_B(v)| + out(v). Both are stable \
                      by induction (Section V-C)."
            .into(),
        tables: vec![table],
        findings,
        pass,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e13_reproduces() {
        let r = super::run(true);
        assert!(r.pass, "{}", r.markdown());
    }
}
