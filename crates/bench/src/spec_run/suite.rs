//! Runner for `kind = "suite"`: regenerates every listed sibling spec
//! into `results/<id>.txt` on one shared lab, printing a one-line
//! summary per artifact to stderr.
//!
//! Sweeps are crash-isolated: a cell whose run fails (deadlock,
//! invariant violation, panic) renders as `n/a` in its figure and is
//! listed in the final summary; the remaining cells still regenerate.
//!
//! The shared lab means every sub-spec must agree with the suite on
//! machine, normalization baseline, mixes and knobs — a sub-spec that
//! declares its own would silently be overridden, so that is refused
//! as a configuration error instead. A cell that recurs across
//! entries — the Baseline bars of every FT figure, the Figure 1
//! reference of Figures 3 and 7 — is served from the shared lab's
//! result store instead of re-run.

use super::{figures, sibling_spec};
use crate::{BenchEnv, BinError};
use smtsim_rob2::{report, ExperimentSpec, SpecKind, SpecKnobs};
use std::fs;

/// Refuses a sub-spec whose own experiment parameters would silently
/// be overridden by the suite's shared lab.
fn check_conformity(suite: &ExperimentSpec, sub: &ExperimentSpec) -> Result<(), BinError> {
    let complain = |what: &str| {
        Err(BinError::Config(format!(
            "spec {}: a suite entry must inherit the suite's {what} (the suite runs every \
             entry on one shared lab)",
            sub.id
        )))
    };
    if sub.machine_id != suite.machine_id || sub.fetch_policy_id != suite.fetch_policy_id {
        return complain("machine");
    }
    if sub.norm_id != suite.norm_id {
        return complain("normalization baseline");
    }
    if sub.mixes.is_some() {
        return complain("mix selection");
    }
    if sub.knobs_id.is_some() || sub.knob_overrides != SpecKnobs::default() {
        return complain("knobs");
    }
    Ok(())
}

pub(super) fn run(
    env: &BenchEnv,
    spec: &ExperimentSpec,
    path: &std::path::Path,
) -> Result<(), BinError> {
    fs::create_dir_all("results")?;
    let mut subs = Vec::new();
    for id in &spec.specs {
        let sub = sibling_spec(path, id)?;
        check_conformity(spec, &sub)?;
        subs.push(sub);
    }

    let mixes = env.mixes.clone();
    let mut lab = super::prepared_spec_lab(env, spec)?;
    eprintln!(
        "budget={} warmup={} seed={} jobs={} mixes={mixes:?}",
        lab.mt_budget,
        lab.warmup,
        lab.seed,
        lab.effective_jobs()
    );

    let write = |name: &str, contents: String| -> std::io::Result<()> {
        fs::write(format!("results/{name}.txt"), &contents)?;
        eprintln!("results/{name}.txt ({} bytes)", contents.len());
        Ok(())
    };

    let mut failed: Vec<String> = Vec::new();

    for sub in &subs {
        match sub.kind {
            SpecKind::Table1 => write(&sub.id, report::render_table1(&lab.machine))?,
            SpecKind::Table2 => write(&sub.id, report::render_table2())?,
            SpecKind::Figure => {
                let fig = figures::figure_data(&mut lab, &mixes, sub);
                failed.extend(fig.failures.iter().cloned());
                write(&sub.id, report::render_figure(&fig))?;
            }
            SpecKind::Histogram => {
                let (fig, text) = figures::histogram_text(&mut lab, &mixes, sub);
                failed.extend(fig.failures.iter().cloned());
                write(&sub.id, text)?;
            }
            other => {
                return Err(BinError::Config(format!(
                    "spec {}: kind = \"{}\" cannot run inside a suite (only figures, \
                     histograms and tables render to results/)",
                    sub.id,
                    other.as_str()
                )));
            }
        }
    }

    if failed.is_empty() {
        eprintln!("done");
    } else {
        eprintln!("done with {} failed cell(s):", failed.len());
        for f in &failed {
            eprintln!("  failed: {f}");
        }
    }
    Ok(())
}
