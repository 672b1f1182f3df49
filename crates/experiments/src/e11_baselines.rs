//! E11 — the Section III comparison: LGG vs pushing packets along maximum-
//! flow paths, plus the gradient-free baselines.
//!
//! Shape criteria: (i) LGG matches the max-flow comparator's stability
//! region; (ii) the comparator wins on latency (it is clairvoyant);
//! (iii) shortest-path forwarding diverges where path diversity is needed;
//! (iv) gradient-free forwarding wastes capacity.

use lgg_core::baselines::{Flood, HeightRouting, MaxFlowRouting, RandomForward, ShortestPathRouting};
use lgg_core::Lgg;
use netmodel::{TrafficSpec, TrafficSpecBuilder};
use simqueue::RoutingProtocol;

use crate::common::{fnum, run_protocol, steps_for, unsaturated_catalog};
use crate::{ExperimentReport, Table};

/// A network where the unique shortest path to the *nearest* sink cannot
/// carry the load, but flow over the longer branch makes it feasible.
fn diversity_trap() -> TrafficSpec {
    let mut b = mgraph::MultiGraphBuilder::with_nodes(6);
    for (u, v) in [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5)] {
        b.add_edge(mgraph::NodeId::new(u), mgraph::NodeId::new(v))
            .unwrap();
    }
    TrafficSpecBuilder::new(b.build())
        .source(0, 2)
        .sink(2, 1)
        .sink(5, 2)
        .build()
        .unwrap()
}

/// Runs the protocol comparison.
pub fn run(quick: bool) -> ExperimentReport {
    let steps = steps_for(quick, 40_000);

    let mut specs: Vec<(String, TrafficSpec)> = unsaturated_catalog(0xE11)
        .into_iter()
        .take(3)
        .collect();
    specs.push(("diversity-trap".into(), diversity_trap()));
    specs.push((
        "dumbbell-saturated".into(),
        TrafficSpecBuilder::new(mgraph::generators::dumbbell(4, 2))
            .source(0, 1)
            .sink(9, 4)
            .build()
            .unwrap(),
    ));

    let proto_names = ["lgg", "maxflow-routing", "shortest-path", "height-routing", "flood", "random-forward"];
    let make = |name: &str, spec: &TrafficSpec| -> Box<dyn RoutingProtocol> {
        match name {
            "lgg" => Box::new(Lgg::new()),
            "maxflow-routing" => Box::new(MaxFlowRouting::new(spec)),
            "shortest-path" => Box::new(ShortestPathRouting::new(spec)),
            "height-routing" => Box::new(HeightRouting::new()),
            "flood" => Box::new(Flood),
            "random-forward" => Box::new(RandomForward::new(0xE11)),
            _ => unreachable!(),
        }
    };

    let mut table = Table::new(
        format!("protocol comparison ({steps} steps, exact injection, no loss)"),
        &["network", "protocol", "verdict", "sup Σq", "mean latency", "delivery"],
    );

    let mut lgg_matches_region = true;
    let mut sp_fails_trap = false;
    let mut comparator_latency_wins = 0usize;
    let mut latency_pairs = 0usize;

    for (name, spec) in &specs {
        let outcomes: Vec<_> = parpool::run_ordered(proto_names.iter().collect(), |p| {
            (*p, run_protocol(spec, make(p, spec), steps, 0xE11))
        });
        let lgg_o = outcomes.iter().find(|(p, _)| *p == "lgg").unwrap().1.clone();
        let mf_o = outcomes
            .iter()
            .find(|(p, _)| *p == "maxflow-routing")
            .unwrap()
            .1
            .clone();
        for (p, o) in &outcomes {
            table.push_row(vec![
                name.clone(),
                (*p).into(),
                o.verdict_str().into(),
                o.sup_total.to_string(),
                fnum(o.mean_latency),
                fnum(o.delivery),
            ]);
            if *p == "shortest-path" && name == "diversity-trap" {
                sp_fails_trap = o.diverging();
            }
        }
        // (i) same stability region as the comparator.
        lgg_matches_region &= lgg_o.stable() == mf_o.stable();
        // (ii) comparator latency at least as good (count, reported).
        if lgg_o.stable() && mf_o.stable() {
            latency_pairs += 1;
            if mf_o.mean_latency <= lgg_o.mean_latency + 1e-9 {
                comparator_latency_wins += 1;
            }
        }
    }

    ExperimentReport {
        id: "e11".into(),
        title: "LGG vs the maximum-flow comparator and baselines (Section III)".into(),
        paper_claim: "The paper measures LGG against 'an optimal algorithm consisting in \
                      sending the packets through the links of a maximum flow' — same \
                      stability region, with LGG paying a constant-backlog premium for \
                      being localized and greedy."
            .into(),
        tables: vec![table],
        findings: vec![
            format!("LGG matches the comparator's stability verdict on every network: {lgg_matches_region}"),
            format!("shortest-path diverges on the diversity trap: {sp_fails_trap}"),
            format!(
                "clairvoyant comparator latency <= LGG latency on {comparator_latency_wins}/{latency_pairs} stable networks"
            ),
        ],
        pass: lgg_matches_region && sp_fails_trap,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e11_reproduces() {
        let r = super::run(true);
        assert!(r.pass, "{}", r.markdown());
    }
}
