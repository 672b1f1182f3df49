//! CLI driver: `experiments [ids... | all] [--quick] [--out DIR]`.
//!
//! Runs the selected experiments — fanned across the work-stealing pool,
//! one pool item per experiment — prints their Markdown reports in suite
//! order via the buffered [`OrderedReporter`], and (with `--out`) writes
//! one JSON + one Markdown file per experiment plus a combined
//! `EXPERIMENTS.generated.md`. Every experiment derives its randomness
//! from its own fixed seeds, so output is byte-identical at any
//! `LGG_THREADS` setting. Flags are read against
//! [`lgg_cli::args::EXPERIMENTS`]; a failure exits with its
//! [`LggError::exit_code`], and 1 means NOT REPRODUCED.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use experiments::reporter::OrderedReporter;
use experiments::{run_experiment, ExperimentReport, ALL_IDS};
use lgg_cli::args::{self, write_stdout, Args};
use lgg_cli::LggError;

fn main() -> ExitCode {
    let title = format!(
        "experiments — regenerate the figures/claims of the IPPS 2010 LGG paper\nIDS: {}",
        ALL_IDS.join(", ")
    );
    args::main(args::EXPERIMENTS, &title, run)
}

fn run(a: &Args) -> Result<ExitCode, LggError> {
    let ids = resolve_ids(a)?;
    let out_dir = a.text("--out");
    if let Some(dir) = &out_dir {
        fs::create_dir_all(dir).map_err(|e| LggError::io(format!("cannot create {dir}"), e))?;
    }

    // Fan the experiments across the pool. Reports stream to stdout in
    // suite order through the buffered reporter no matter which worker
    // finishes first; the collected vector is ordered by construction.
    let quick = a.switch("--quick");
    let reporter = OrderedReporter::new(std::io::stdout());
    let indexed: Vec<(usize, &str)> = ids.iter().copied().enumerate().collect();
    let done: Vec<(ExperimentReport, String, std::io::Result<()>)> =
        parpool::run_ordered(indexed.iter().collect(), |(i, id)| {
            let report = run_experiment(id, quick).expect("id validated above");
            let md = report.markdown();
            let written = reporter.complete(*i, format!("{md}\n"));
            (report, md, written)
        });
    reporter.into_inner();
    let mut reports = Vec::with_capacity(done.len());
    for (report, md, written) in done {
        written.map_err(|e| LggError::io("cannot write to stdout", e))?;
        reports.push((report, md));
    }

    let all_pass = reports.iter().all(|(report, _)| report.pass);
    if let Some(dir) = &out_dir {
        let dir = Path::new(dir);
        let mut combined = String::from("# Generated experiment reports\n\n");
        for (report, md) in &reports {
            combined.push_str(md);
            let json = serde_json::to_string_pretty(report).expect("report serializes");
            write(&dir.join(format!("{}.json", report.id)), &json)?;
            write(&dir.join(format!("{}.md", report.id)), md)?;
        }
        write(&dir.join("EXPERIMENTS.generated.md"), &combined)?;
    }

    let verdict = if all_pass {
        "REPRODUCED"
    } else {
        "NOT REPRODUCED"
    };
    write_stdout(format!(
        "== {} experiment(s), overall: {verdict} ==\n",
        ids.len()
    ))?;
    Ok(if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The experiment ids to run, in the order first named: `all` (or no id)
/// stands for every id, and an id named twice runs once.
fn resolve_ids(a: &Args) -> Result<Vec<&'static str>, LggError> {
    let mut ids = Vec::new();
    for op in a.operands() {
        let named: &[&'static str] = if op == "all" {
            &ALL_IDS
        } else {
            let i = ALL_IDS.iter().position(|id| id == op).ok_or_else(|| {
                a.usage_error(format!(
                    "unknown experiment id {op} (known: {})",
                    ALL_IDS.join(", ")
                ))
            })?;
            &ALL_IDS[i..=i]
        };
        for id in named {
            if !ids.contains(id) {
                ids.push(*id);
            }
        }
    }
    if ids.is_empty() {
        ids.extend(ALL_IDS);
    }
    Ok(ids)
}

fn write(path: &Path, text: &str) -> Result<(), LggError> {
    fs::write(path, text).map_err(|e| LggError::io(format!("cannot write {}", path.display()), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(argv: &[&str]) -> Result<Vec<&'static str>, LggError> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        resolve_ids(&args::parse(args::EXPERIMENTS, &argv)?)
    }

    #[test]
    fn ids_run_once_in_first_named_order() {
        assert_eq!(
            ids(&["fig1", "e1", "fig1", "--quick"]).unwrap(),
            ["fig1", "e1"]
        );
        let all = ids(&["all", "e1"]).unwrap();
        assert_eq!(all, ALL_IDS);
        let e1_first = ids(&["e1", "all"]).unwrap();
        assert_eq!(e1_first.len(), ALL_IDS.len());
        assert_eq!(e1_first[..2], ["e1", "fig1"]);
        assert_eq!(ids(&[]).unwrap(), ALL_IDS);
    }

    #[test]
    fn unknown_id_is_a_usage_error() {
        let err = ids(&["fig1", "e99"]).unwrap_err();
        assert!(matches!(err, LggError::Usage(_)), "{err}");
        assert!(err.to_string().contains("e99"), "{err}");
    }
}
