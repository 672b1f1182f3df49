//! E15 — scaling study: how LGG's steady-state backlog and latency grow
//! with the network size, versus the Lemma 1 bound's growth.
//!
//! The paper's bound `nY² + 5nΔ²` grows like `n³ f*²/ε²` on bounded-degree
//! families — the experiment shows the *measured* backlog grows far more
//! slowly (roughly linearly in the source–sink distance for path-like
//! families), quantifying how conservative the potential argument is.

use lgg_core::analysis::queue_profile;
use lgg_core::bounds::unsaturated_bounds;
use lgg_core::Lgg;
use netmodel::{TrafficSpec, TrafficSpecBuilder};
use simqueue::{HistoryMode, SimulationBuilder};

use crate::common::{fnum, run_lgg, steps_for};
use crate::{ExperimentReport, Table};

fn grid_spec(side: usize) -> TrafficSpec {
    let n = side * side;
    TrafficSpecBuilder::new(mgraph::generators::grid2d(side, side))
        .source(0, 1)
        .sink((n - 1) as u32, 4)
        .build()
        .unwrap()
}

fn diamond_spec(layers: usize) -> TrafficSpec {
    let g = mgraph::generators::layered_diamond(layers, 3);
    let n = g.node_count();
    TrafficSpecBuilder::new(g)
        .source(0, 2)
        .sink((n - 1) as u32, 3)
        .build()
        .unwrap()
}

/// Runs the scaling sweep.
pub fn run(quick: bool) -> ExperimentReport {
    let steps = steps_for(quick, 120_000);

    // Large grids need warm-up proportional to their fill time; quick mode
    // keeps sizes whose equilibrium is reachable within its step budget.
    let sides: &[usize] = if quick {
        &[4, 6, 8]
    } else {
        &[4, 6, 8, 12, 16]
    };
    let layer_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let mut cases: Vec<(String, TrafficSpec)> = Vec::new();
    for &side in sides {
        cases.push((format!("grid-{side}x{side}"), grid_spec(side)));
    }
    for &layers in layer_counts {
        cases.push((format!("diamond-{layers}x3"), diamond_spec(layers)));
    }

    let rows: Vec<_> = parpool::run_ordered(cases.iter().collect(), |(name, spec)| {
        let bound = unsaturated_bounds(spec).map(|b| b.state_bound);
        let o = run_lgg(spec, steps, 0xE15);
        (name.clone(), spec.node_count(), bound, o)
    });

    let mut table = Table::new(
        format!("backlog scaling with network size ({steps} steps)"),
        &[
            "network",
            "n",
            "verdict",
            "sup Σq",
            "sup Σq / n",
            "latency",
            "Lemma 1 bound",
        ],
    );
    let mut all_stable = true;
    let mut grid_sups: Vec<(usize, u64)> = Vec::new();
    for (name, n, bound, o) in &rows {
        table.push_row(vec![
            name.clone(),
            n.to_string(),
            o.verdict_str().into(),
            o.sup_total.to_string(),
            fnum(o.sup_total as f64 / *n as f64),
            fnum(o.mean_latency),
            bound.map_or("n/a (saturated)".into(), fnum),
        ]);
        all_stable &= o.stable();
        if name.starts_with("grid") {
            grid_sups.push((*n, o.sup_total));
        }
    }

    // Gradient-ramp evidence: profile the largest grid's steady state by
    // distance to the sink.
    let biggest = *sides.last().unwrap();
    let spec = grid_spec(biggest);
    let mut sim = SimulationBuilder::new(spec.clone(), Box::new(Lgg::new()))
        .history(HistoryMode::None)
        .seed(0xE15)
        .build();
    sim.run(steps);
    let profile = queue_profile(&spec, sim.queues());
    let mut profile_table = Table::new(
        format!("queue profile of grid-{biggest}x{biggest} by hop distance to the sink"),
        &["distance", "nodes", "mean queue", "max queue"],
    );
    for bin in profile.iter().step_by((profile.len() / 12).max(1)) {
        profile_table.push_row(vec![
            bin.distance.to_string(),
            bin.count.to_string(),
            fnum(bin.mean_queue),
            bin.max_queue.to_string(),
        ]);
    }
    // The ramp: the far half of the profile holds more backlog per node
    // than the near half.
    let mid = profile.len() / 2;
    let near: f64 = profile[..mid].iter().map(|b| b.mean_queue).sum::<f64>() / mid.max(1) as f64;
    let far: f64 =
        profile[mid..].iter().map(|b| b.mean_queue).sum::<f64>() / (profile.len() - mid) as f64;
    let ramp = far > near;

    // Shape: measured backlog grows sub-quadratically in n on grids (the
    // bound grows super-cubically). Compare largest vs smallest grid.
    let (n0, s0) = grid_sups.first().copied().unwrap();
    let (n1, s1) = grid_sups.last().copied().unwrap();
    let measured_exponent =
        ((s1.max(1) as f64) / (s0.max(1) as f64)).ln() / ((n1 as f64) / (n0 as f64)).ln();
    let subquadratic = measured_exponent < 2.0;

    ExperimentReport {
        id: "e15".into(),
        title: "backlog scaling vs the Lemma 1 bound".into(),
        paper_claim: "Lemma 1 bounds P_t by nY² + 5nΔ² — a constant in time but growing \
                      polynomially in n, f* and 1/ε; the paper makes no claim about \
                      tightness. This experiment measures the actual growth."
            .into(),
        tables: vec![table, profile_table],
        findings: vec![
            format!("all sizes stable: {all_stable}"),
            format!(
                "queue heights form the expected gradient ramp (far-half mean {} vs \
                 near-half {}): {ramp}",
                fnum(far),
                fnum(near)
            ),
            format!(
                "measured backlog exponent on grids ≈ {measured_exponent:.2} (in n), \
                 far below the bound's cubic-plus growth"
            ),
            "per-node backlog stays O(1)-ish: congestion concentrates along the \
             source–sink gradient, not across the whole network"
                .into(),
        ],
        pass: all_stable && subquadratic && ramp,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e15_reproduces() {
        let r = super::run(true);
        assert!(r.pass, "{}", r.markdown());
    }
}
