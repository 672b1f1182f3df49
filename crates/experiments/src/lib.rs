#![warn(missing_docs)]

//! # experiments — regenerating the paper's figures and claims
//!
//! The IPPS 2010 LGG paper is theoretical: its "evaluation" is four model
//! figures, two theorems, six properties and five conjectures. This crate
//! replaces the missing empirical section with one executable experiment
//! per artifact (see `DESIGN.md` §3 for the full index):
//!
//! | id    | paper artifact                          |
//! |-------|------------------------------------------|
//! | fig1  | Fig. 1 — the S-D-network model           |
//! | fig2  | Fig. 2 — the extended graph `G*`         |
//! | fig3  | Fig. 3 — minimum S-D-cut and `S'`,`D'`   |
//! | fig4  | Fig. 4 — extended R-generalized network  |
//! | e1    | Lemma 1 — unsaturated stability          |
//! | e2    | Property 1 — bounded growth              |
//! | e3    | Property 2 — negative drift when large   |
//! | e4    | Theorem 1 (converse) — divergence        |
//! | e5    | Section V-B — saturated stability        |
//! | e6    | Conjecture 1 — domination                |
//! | e7    | Conjecture 2 — bursty arrivals           |
//! | e8    | Conjecture 3 — uniform arrivals          |
//! | e9    | Conjecture 4 — dynamic topology          |
//! | e10   | Conjecture 5 — interference oracle       |
//! | e11   | Section III comparator — baselines       |
//! | e12   | Definitions 5–8 — R-generalized behavior |
//! | e13   | Section V-C — cut-decomposition induction|
//! | e14   | DESIGN.md §6 ablations (tie-break, loss monotonicity, solver) |
//! | e15   | backlog scaling vs the Lemma 1 bound     |
//!
//! Every experiment returns an [`ExperimentReport`] that renders to
//! Markdown (collected into `EXPERIMENTS.md`) and serializes to JSON.
//! `quick` mode shrinks step counts so the whole suite doubles as an
//! integration test.

use serde::{Deserialize, Serialize};

pub mod common;

pub mod e01_unsaturated;
pub mod e02_growth;
pub mod e03_drift;
pub mod e04_infeasible;
pub mod e05_saturated;
pub mod e06_conjecture1;
pub mod e07_conjecture2;
pub mod e08_conjecture3;
pub mod e09_dynamic;
pub mod e10_interference;
pub mod e11_baselines;
pub mod e12_rgen;
pub mod e13_induction;
pub mod e14_ablations;
pub mod e15_scaling;
pub mod figs;
pub mod reporter;

/// A rendered result table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the column count).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders GitHub-flavored Markdown.
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("**{}**\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.columns.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// The outcome of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Short id (`fig1`, `e7`, ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// The paper's claim being reproduced, quoted/paraphrased.
    pub paper_claim: String,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Free-form observations.
    pub findings: Vec<String>,
    /// Did the shape check hold?
    pub pass: bool,
}

impl ExperimentReport {
    /// Renders the full report as Markdown.
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("*Paper claim:* {}\n\n", self.paper_claim));
        out.push_str(&format!(
            "*Verdict:* {}\n\n",
            if self.pass {
                "REPRODUCED"
            } else {
                "NOT REPRODUCED"
            }
        ));
        for t in &self.tables {
            out.push_str(&t.markdown());
            out.push('\n');
        }
        if !self.findings.is_empty() {
            out.push_str("Observations:\n\n");
            for f in &self.findings {
                out.push_str(&format!("- {f}\n"));
            }
            out.push('\n');
        }
        out
    }
}

/// All experiment ids in presentation order.
pub const ALL_IDS: [&str; 19] = [
    "fig1", "fig2", "fig3", "fig4", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10",
    "e11", "e12", "e13", "e14", "e15",
];

/// Runs one experiment by id.
pub fn run_experiment(id: &str, quick: bool) -> Option<ExperimentReport> {
    Some(match id {
        "fig1" => figs::fig1(quick),
        "fig2" => figs::fig2(quick),
        "fig3" => figs::fig3(quick),
        "fig4" => figs::fig4(quick),
        "e1" => e01_unsaturated::run(quick),
        "e2" => e02_growth::run(quick),
        "e3" => e03_drift::run(quick),
        "e4" => e04_infeasible::run(quick),
        "e5" => e05_saturated::run(quick),
        "e6" => e06_conjecture1::run(quick),
        "e7" => e07_conjecture2::run(quick),
        "e8" => e08_conjecture3::run(quick),
        "e9" => e09_dynamic::run(quick),
        "e10" => e10_interference::run(quick),
        "e11" => e11_baselines::run(quick),
        "e12" => e12_rgen::run(quick),
        "e13" => e13_induction::run(quick),
        "e14" => e14_ablations::run(quick),
        "e15" => e15_scaling::run(quick),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("caption", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.markdown();
        assert!(md.contains("**caption**"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("|---|---|"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn report_markdown_contains_sections() {
        let r = ExperimentReport {
            id: "e0".into(),
            title: "demo".into(),
            paper_claim: "something holds".into(),
            tables: vec![],
            findings: vec!["an observation".into()],
            pass: true,
        };
        let md = r.markdown();
        assert!(md.contains("## e0 — demo"));
        assert!(md.contains("REPRODUCED"));
        assert!(md.contains("- an observation"));
    }

    #[test]
    fn unknown_experiment_id_is_none() {
        assert!(run_experiment("nope", true).is_none());
    }
}
