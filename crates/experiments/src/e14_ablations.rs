//! E14 — ablations of the design choices DESIGN.md §6 calls out, on the
//! *stability* axis (the compute axis lives in the Criterion benches):
//!
//! * tie-break policy (the paper: "this choice has no impact on the
//!   system stability");
//! * loss rate (the paper: "packet losses here only improve the protocol
//!   stability") — sup backlog should be non-increasing in the loss rate;
//! * max-flow solver choice — all five must classify identically (they
//!   feed the same feasibility verdicts).

use lgg_core::{Lgg, TieBreak};
use maxflow::Algorithm;
use netmodel::ExtendedNetwork;
use simqueue::loss::IidLoss;

use crate::common::{run_customized, run_protocol, saturated_catalog, steps_for};
use crate::{ExperimentReport, Table};

/// Runs the ablation sweeps.
pub fn run(quick: bool) -> ExperimentReport {
    let steps = steps_for(quick, 30_000);
    let catalog = saturated_catalog();

    // (a) Tie-break × saturated networks.
    let mut tie_table = Table::new(
        format!("tie-break ablation on saturated networks ({steps} steps)"),
        &["network", "policy", "verdict", "sup Σq"],
    );
    let mut tie_ok = true;
    for (name, spec) in &catalog {
        let rows: Vec<_> = parpool::run_ordered(TieBreak::ALL.iter().collect(), |&tb| {
            let o = run_protocol(spec, Box::new(Lgg::with_tie_break(tb, 0xE14)), steps, 0xE14);
            (tb, o)
        });
        for (tb, o) in rows {
            tie_table.push_row(vec![
                name.clone(),
                tb.name().into(),
                o.verdict_str().into(),
                o.sup_total.to_string(),
            ]);
            tie_ok &= o.stable();
        }
    }

    // (b) Loss sweep: backlog non-increasing in the loss rate.
    let mut loss_table = Table::new(
        format!("loss-rate sweep ({steps} steps): losses only improve stability"),
        &["network", "loss p", "verdict", "sup Σq"],
    );
    let mut loss_ok = true;
    for (name, spec) in &catalog {
        let sweep: Vec<_> =
            parpool::run_ordered([0.0f64, 0.1, 0.3, 0.6, 0.9].iter().collect(), |&p| {
                let o = run_customized(spec, Box::new(Lgg::new()), steps, 0xE14, |b| {
                    if p > 0.0 {
                        b.loss(Box::new(IidLoss::new(p)))
                    } else {
                        b
                    }
                });
                (p, o)
            });
        let lossless_sup = sweep[0].1.sup_total;
        let mut prev_sup = u64::MAX;
        for (p, o) in &sweep {
            loss_table.push_row(vec![
                name.clone(),
                format!("{p:.1}"),
                o.verdict_str().into(),
                o.sup_total.to_string(),
            ]);
            loss_ok &= !o.diverging();
            // Roughly non-increasing: different loss seeds shuffle the
            // stochastic trajectory, so small p can nudge the *sup* up by
            // noise; allow 25% + 5 packets of slack per step down the sweep.
            loss_ok &= o.sup_total <= prev_sup.saturating_add(prev_sup / 4 + 5);
            prev_sup = o.sup_total.min(prev_sup);
        }
        // The endpoint must show the paper's direction unambiguously.
        let heavy_sup = sweep.last().unwrap().1.sup_total;
        loss_ok &= heavy_sup <= lossless_sup;
    }

    // (c) Solver ablation: all five max-flow algorithms agree on the
    // feasibility of every catalog network.
    let mut solver_table = Table::new(
        "max-flow solver ablation: feasibility verdicts",
        &["network", "edmonds-karp", "dinic", "push-relabel", "pr-highest", "pr-nogap"],
    );
    let mut solver_ok = true;
    for (name, spec) in &catalog {
        let verdicts: Vec<bool> = Algorithm::ALL
            .iter()
            .map(|&algo| {
                let mut ext = ExtendedNetwork::feasibility(spec);
                ext.solve(algo);
                ext.sources_saturated()
            })
            .collect();
        solver_ok &= verdicts.windows(2).all(|w| w[0] == w[1]);
        let mut row = vec![name.clone()];
        row.extend(verdicts.iter().map(|v| v.to_string()));
        solver_table.push_row(row);
    }

    ExperimentReport {
        id: "e14".into(),
        title: "design ablations (tie-break, loss monotonicity, solver)".into(),
        paper_claim: "Algorithm 1's choice among equally-small neighbors 'has no impact on \
                      the system stability'; 'packet losses here only improve the protocol \
                      stability' (Section III)."
            .into(),
        tables: vec![tie_table, loss_table, solver_table],
        findings: vec![
            format!("all four tie-break policies stable on all saturated networks: {tie_ok}"),
            format!("sup backlog non-increasing in the loss rate everywhere: {loss_ok}"),
            format!("all five max-flow solvers agree on feasibility: {solver_ok}"),
        ],
        pass: tie_ok && loss_ok && solver_ok,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e14_reproduces() {
        let r = super::run(true);
        assert!(r.pass, "{}", r.markdown());
    }
}
