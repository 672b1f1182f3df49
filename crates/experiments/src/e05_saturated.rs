//! E5 — Section V-B / Theorem 2: LGG on *saturated* feasible networks,
//! under the hypothesis regime of Conjecture 1 (exact injection, no loss).
//!
//! This is precisely the case the paper can only prove modulo
//! Conjecture 1; the experiment provides the missing empirical evidence.

use lgg_core::analysis::census_recurrent;
use lgg_core::Lgg;
use netmodel::{classify, CutCase};
use simqueue::{HistoryMode, SimulationBuilder};

use crate::common::{fnum, run_windowed, saturated_catalog, steps_for};
use crate::{ExperimentReport, Table};

/// Windows in the telemetry time series (steps divide evenly for both
/// quick and full step counts).
const WINDOWS: u64 = 8;

/// Runs the saturated-stability sweep.
pub fn run(quick: bool) -> ExperimentReport {
    let steps = steps_for(quick, 50_000);
    let catalog = saturated_catalog();

    // The window aggregator rides along on the same runs that produce
    // the verdict table: the observer is passive, so the outcomes are
    // identical to the unobserved runs they replaced.
    let results: Vec<_> = parpool::run_ordered(catalog.iter().collect(), |(name, spec)| {
        let class = classify(spec);
        let (o, windows) = run_windowed(
            spec,
            Box::new(Lgg::new()),
            steps,
            0xE5,
            steps / WINDOWS,
            |b| b,
        );
        (name.clone(), class, o, windows)
    });

    let mut table = Table::new(
        format!("LGG on saturated networks ({steps} steps, exact injection, no loss)"),
        &[
            "network",
            "cut case (Sec. V)",
            "verdict",
            "sup Σq",
            "delivery",
        ],
    );
    let mut all_stable = true;
    for (name, class, o, _) in &results {
        let cut = match &class.cut_case {
            CutCase::SourceSingletonUnique => "1: unique at s*".to_string(),
            CutCase::SinkSaturated => "2: saturated at d*".to_string(),
            CutCase::Interior { .. } => "3: interior".to_string(),
        };
        table.push_row(vec![
            name.clone(),
            cut,
            o.verdict_str().into(),
            o.sup_total.to_string(),
            crate::common::fnum(o.delivery),
        ]);
        all_stable &= o.stable();
    }

    // Windowed P_t time series from the telemetry subsystem: a stable
    // saturated network's mean network state fluctuates in a band
    // instead of ratcheting upward window over window.
    let mut series_table = Table::new(
        format!(
            "windowed P_t telemetry: mean network state per window \
             ({WINDOWS} windows x {} steps)",
            steps / WINDOWS
        ),
        &["network", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8"],
    );
    let mut none_ratchet = true;
    for (name, _, _, windows) in &results {
        let mut row = vec![name.clone()];
        row.extend(windows.iter().map(|w| fnum(w.pt_mean)));
        series_table.push_row(row);
        let ratchets = windows.windows(2).all(|p| p[1].pt_mean > p[0].pt_mean);
        none_ratchet &= !(windows.len() >= 2 && ratchets);
    }

    // Definition 9 / Section V-B machinery: on every saturated network,
    // every node must be "infinitely bounded" — its queue keeps returning
    // to its own floor (the proof's recurrence argument, executably).
    let mut census_table = Table::new(
        "Definition 9 census: recurrent (infinitely bounded) nodes",
        &["network", "recurrent nodes", "n", "all infinitely bounded"],
    );
    let mut all_recurrent = true;
    let census_rows: Vec<_> = parpool::run_ordered(catalog.iter().collect(), |(name, spec)| {
        let mut sim = SimulationBuilder::new(spec.clone(), Box::new(Lgg::new()))
            .history(HistoryMode::None)
            .seed(0xE5)
            .build();
        let census = census_recurrent(&mut sim, steps / 5, steps, 3, 4);
        (name.clone(), spec.node_count(), census)
    });
    for (name, n, census) in &census_rows {
        let recurrent = census.bounded_nodes().count();
        census_table.push_row(vec![
            name.clone(),
            recurrent.to_string(),
            n.to_string(),
            census.all_bounded().to_string(),
        ]);
        all_recurrent &= census.all_bounded();
    }

    ExperimentReport {
        id: "e5".into(),
        title: "saturated stability (Theorem 2 via Section V-B)".into(),
        paper_claim: "For all R >= 0 and any feasible R-generalized S-D-network, LGG is \
                      stable (Theorem 2) — proven for saturated networks only under \
                      Conjecture 1, in the regime of exact injection and no loss."
            .into(),
        tables: vec![table, series_table, census_table],
        findings: vec![
            format!("all saturated networks stable under the V-B hypothesis: {all_stable}"),
            format!(
                "windowed P_t telemetry shows no monotone growth across the \
                 {WINDOWS}-window series on any network: {none_ratchet}"
            ),
            format!(
                "every node is infinitely bounded (Definition 9), as the Section V-B \
                 recurrence argument concludes: {all_recurrent}"
            ),
            "cut cases 2 and 3 are exercised — exactly the cases whose proof needs the \
             conjecture and the induction"
                .into(),
        ],
        pass: all_stable && all_recurrent,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e5_reproduces() {
        let r = super::run(true);
        assert!(r.pass, "{}", r.markdown());
    }
}
