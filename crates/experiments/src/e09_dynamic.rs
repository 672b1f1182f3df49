//! E9 — Conjecture 4 (dynamic topology): LGG should stay stable when the
//! changing topology always admits a feasible flow.
//!
//! We protect the link set of one feasible flow (so feasibility is
//! preserved at every step) and churn everything else; then compare
//! against unprotected churn heavy enough to break feasibility.

use lgg_core::baselines::MaxFlowRouting;
use lgg_core::Lgg;
use maxflow::Algorithm;
use mgraph::generators;
use netmodel::{ExtendedNetwork, TrafficSpec, TrafficSpecBuilder};
use simqueue::dynamic::{MarkovTopology, PeriodicOutage, RotatingOutage};

use crate::common::{run_customized, steps_for};
use crate::{ExperimentReport, Table};

/// Marks the links carrying a feasibility flow of `spec`.
fn flow_edge_mask(spec: &TrafficSpec) -> Vec<bool> {
    let mut ext = ExtendedNetwork::feasibility(spec);
    ext.solve(Algorithm::Dinic);
    let mut mask = vec![false; spec.graph.edge_count()];
    for (e, arc) in ext.edge_arcs.iter().enumerate() {
        if ext.net.flow_on(*arc) != 0 {
            mask[e] = true;
        }
    }
    mask
}

/// Runs the dynamic-topology sweep.
pub fn run(quick: bool) -> ExperimentReport {
    let steps = steps_for(quick, 40_000);
    // Redundant topology: diamond with 4 branches, rate 2 -> half the
    // branches can churn without breaking feasibility.
    let spec = TrafficSpecBuilder::new(generators::layered_diamond(2, 4))
        .source(0, 2)
        .sink(10, 4)
        .build()
        .unwrap();
    let protected = flow_edge_mask(&spec);
    let protected_count = protected.iter().filter(|&&p| p).count();

    type Case = (&'static str, Box<dyn Fn() -> Box<dyn simqueue::dynamic::TopologyProcess> + Sync>, bool);
    let cases: Vec<Case> = vec![
        (
            "markov churn, flow links protected",
            {
                let protected = protected.clone();
                Box::new(move || {
                    Box::new(MarkovTopology::new(0.05, 0.2, protected.clone())) as _
                })
            },
            true, // feasibility preserved -> expect stable
        ),
        (
            "rotating single-link outage",
            Box::new(|| Box::new(RotatingOutage { k: 1 }) as _),
            true, // only one of 16 links down at a time: enough redundancy
        ),
        (
            "periodic outage of non-flow links",
            {
                let protected = protected.clone();
                Box::new(move || {
                    let affected: Vec<bool> = protected.iter().map(|&p| !p).collect();
                    Box::new(PeriodicOutage {
                        affected,
                        period: 50,
                        down_for: 25,
                    }) as _
                })
            },
            true,
        ),
        (
            "unprotected heavy churn (fail 0.4 / repair 0.1)",
            Box::new(|| Box::new(MarkovTopology::new(0.4, 0.1, vec![])) as _),
            false, // active subnetwork mostly infeasible -> expect trouble
        ),
    ];

    let mut table = Table::new(
        format!("LGG under dynamic topologies ({steps} steps)"),
        &["process", "feasibility preserved", "protocol", "verdict", "sup Σq"],
    );
    let mut pass = true;
    for (name, factory, preserved) in &cases {
        let outcomes: Vec<_> = parpool::run_ordered(
            [("lgg", true), ("maxflow-routing", false)].iter().collect(),
            |(pname, is_lgg)| {
                let proto: Box<dyn simqueue::RoutingProtocol> = if *is_lgg {
                    Box::new(Lgg::new())
                } else {
                    Box::new(MaxFlowRouting::new(&spec))
                };
                let o = run_customized(&spec, proto, steps, 0xE9, |b| b.topology(factory()));
                (*pname, o)
            },
        );
        for (pname, o) in outcomes {
            table.push_row(vec![
                (*name).into(),
                preserved.to_string(),
                pname.into(),
                o.verdict_str().into(),
                o.sup_total.to_string(),
            ]);
            if *preserved && pname == "lgg" {
                pass &= !o.diverging();
            }
            if !*preserved && pname == "lgg" {
                // Heavy unprotected churn must visibly hurt (non-stable or
                // large backlog); we only require it not be silently rosy.
                pass &= !o.stable() || o.sup_total > 50;
            }
        }
    }

    ExperimentReport {
        id: "e9".into(),
        title: "dynamic topologies (Conjecture 4)".into(),
        paper_claim: "If the number of injected packets ensures the existence of a feasible \
                      S-D-flow (as the topology changes), then LGG is stable (Conjecture 4)."
            .into(),
        tables: vec![table],
        findings: vec![
            format!("{protected_count} links carry the protected feasibility flow"),
            "LGG adapts to churn without routing tables — the gradient re-forms around \
             failed links; the static max-flow comparator cannot (its paths break)"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e9_reproduces() {
        let r = super::run(true);
        assert!(r.pass, "{}", r.markdown());
    }
}
