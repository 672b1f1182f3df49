//! E4 — Theorem 1, the divergence half: on an infeasible network (arrival
//! rate > f*), the backlog diverges *no matter what algorithm is used*, at
//! a rate at least `rate − f*` (the min-cut argument of Section II).

use lgg_core::baselines::{Flood, MaxFlowRouting, ShortestPathRouting};
use lgg_core::bounds::divergence_rate;
use lgg_core::Lgg;
use mgraph::generators;
use netmodel::{TrafficSpec, TrafficSpecBuilder};
use simqueue::RoutingProtocol;

use crate::common::{fnum, run_protocol, steps_for};
use crate::{ExperimentReport, Table};

fn infeasible_catalog() -> Vec<(String, TrafficSpec)> {
    vec![
        (
            "path-overload(3x)".into(),
            TrafficSpecBuilder::new(generators::path(5))
                .source(0, 3)
                .sink(4, 3)
                .build()
                .unwrap(),
        ),
        (
            "dumbbell-double-source".into(),
            TrafficSpecBuilder::new(generators::dumbbell(3, 2))
                .source(0, 1)
                .source(1, 1)
                .sink(7, 2)
                .build()
                .unwrap(),
        ),
        (
            "grid-corner-overload".into(),
            TrafficSpecBuilder::new(generators::grid2d(4, 4))
                .source(0, 4)
                .sink(15, 4)
                .build()
                .unwrap(),
        ),
    ]
}

fn protocols() -> Vec<(
    &'static str,
    Box<dyn Fn(&TrafficSpec) -> Box<dyn RoutingProtocol> + Sync>,
)> {
    vec![
        (
            "lgg",
            Box::new(|_s: &TrafficSpec| Box::new(Lgg::new()) as _),
        ),
        (
            "maxflow-routing",
            Box::new(|s: &TrafficSpec| Box::new(MaxFlowRouting::new(s)) as _),
        ),
        (
            "shortest-path",
            Box::new(|s: &TrafficSpec| Box::new(ShortestPathRouting::new(s)) as _),
        ),
        ("flood", Box::new(|_s: &TrafficSpec| Box::new(Flood) as _)),
    ]
}

/// Runs the divergence sweep.
pub fn run(quick: bool) -> ExperimentReport {
    let steps = steps_for(quick, 30_000);
    let catalog = infeasible_catalog();
    let protos = protocols();

    let mut table = Table::new(
        format!("every protocol diverges on infeasible networks ({steps} steps, no loss)"),
        &[
            "network",
            "excess rate − f*",
            "protocol",
            "verdict",
            "slope (pkt/step)",
            "slope/excess",
        ],
    );

    let mut all_diverge = true;
    let mut slopes_match = true;
    for (name, spec) in &catalog {
        let excess = divergence_rate(spec).expect("catalog is infeasible");
        let rows: Vec<_> = parpool::run_ordered(protos.iter().collect(), |(pname, factory)| {
            let o = run_protocol(spec, factory(spec), steps, 0xE4);
            (*pname, o)
        });
        for (pname, o) in rows {
            let ratio = o.slope / excess as f64;
            table.push_row(vec![
                name.clone(),
                excess.to_string(),
                pname.into(),
                o.verdict_str().into(),
                fnum(o.slope),
                fnum(ratio),
            ]);
            all_diverge &= o.diverging();
            // The min-cut argument gives a *lower* bound: slope >= excess
            // (up to sampling noise). Protocols wasting capacity (flood)
            // can grow faster.
            slopes_match &= ratio > 0.9;
        }
    }

    ExperimentReport {
        id: "e4".into(),
        title: "divergence beyond the max flow (Theorem 1, converse)".into(),
        paper_claim: "If Σ in(s) > f*, looking at a minimum S-D-cut, at most f* packets \
                      leave the source side per step while more enter it, so P_t increases \
                      at each step — for any algorithm (Section II)."
            .into(),
        tables: vec![table],
        findings: vec![
            format!("all protocol × network pairs diverge: {all_diverge}"),
            format!("growth slope at least the excess rate everywhere: {slopes_match}"),
        ],
        pass: all_diverge && slopes_match,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e4_reproduces() {
        let r = super::run(true);
        assert!(r.pass, "{}", r.markdown());
    }
}
