//! Runner for `kind = "sweep-bench"`: wall-clock benchmark of the
//! two-phase sweep engine. Times the union of the spec's listed
//! sibling figure specs serially (`jobs = 1`) and fanned out
//! (`SMTSIM_JOBS`, default 4), verifies the rendered output is
//! byte-identical, and records the measurement to `BENCH_sweep.json`.
//!
//! Exits 1 if the serial and parallel sweeps disagree (they are
//! defined to be byte-identical) — turning a determinism regression
//! into a hard failure wherever this runs.

use super::{figures, sibling_spec};
use crate::{BenchEnv, BinError};
use smtsim_rob2::{report, ExperimentSpec, SpecKind};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Renders every listed figure spec once on a shared lab and returns
/// the concatenated text — the byte-comparable product of one full
/// sweep.
fn full_figure_sweep(
    lab: &mut smtsim_rob2::Lab,
    mixes: &[usize],
    specs: &[ExperimentSpec],
) -> String {
    let mut out = String::new();
    for spec in specs {
        out.push_str(&report::render_figure(&figures::figure_data(
            lab, mixes, spec,
        )));
    }
    out
}

/// Number of multithreaded figure cells the sweep renders (for the
/// record): the sum of each listed figure's configuration count. Cells
/// shared by several figures are simulated once and then served from
/// the lab's result store.
fn cell_count(specs: &[ExperimentSpec], mixes: usize) -> usize {
    specs.iter().map(|s| s.variants.len()).sum::<usize>() * mixes
}

/// Simulated cycles per kernel-throughput run: long enough that the
/// steady-state mix of quiet and busy cycles — not warm-up fills —
/// dominates the measurement.
const KERNEL_CYCLES: u64 = 1_000_000;

/// Times the raw cycle kernel — the Table 1 machine under the
/// heaviest mix with the baseline ROB, the same configuration as the
/// `simulator_20k_cycles_mix1` bench target — over [`KERNEL_CYCLES`]
/// simulated cycles, with event-driven cycle skipping on or off.
fn time_kernel(skip: bool) -> std::time::Duration {
    use smtsim_pipeline::{FixedRob, MachineConfig, Simulator, StopCondition};
    use std::sync::Arc;
    let wls = smtsim_workload::mix(1)
        .instantiate(42)
        .into_iter()
        .map(Arc::new)
        .collect();
    let mut sim = Simulator::builder(
        MachineConfig::icpp08(),
        wls,
        Box::new(FixedRob::new(32)),
        42,
    )
    .cycle_skip(skip)
    .build()
    .expect("Table 1 machine on Mix 1 is a valid configuration");
    let t0 = Instant::now();
    sim.run(StopCondition::Cycles(KERNEL_CYCLES));
    std::hint::black_box(sim.stats().total_committed());
    t0.elapsed()
}

pub(super) fn run(env: &BenchEnv, spec: &ExperimentSpec, path: &Path) -> Result<(), BinError> {
    let mut specs = Vec::new();
    for id in &spec.specs {
        let sub = sibling_spec(path, id)?;
        if sub.kind != SpecKind::Figure {
            return Err(BinError::Config(format!(
                "spec {id}: a sweep-bench entry must be a figure spec, got kind = \"{}\"",
                sub.kind.as_str()
            )));
        }
        specs.push(sub);
    }

    let mixes = env.mixes.clone();
    let base = env.lab_for_spec(spec);
    let jobs = base.jobs.unwrap_or(4).max(2);

    let time = |jobs: usize| {
        let mut lab = env.lab_for_spec(spec).with_jobs(Some(jobs));
        let t0 = Instant::now();
        let text = full_figure_sweep(&mut lab, &mixes, &specs);
        (t0.elapsed(), text)
    };

    eprintln!(
        "sweep_bench: {} cells, budget={} st_budget={} warmup={} seed={}",
        cell_count(&specs, mixes.len()),
        base.mt_budget,
        base.st_budget,
        base.warmup,
        base.seed
    );
    let (serial, serial_text) = time(1);
    eprintln!("serial  (jobs=1): {serial:.2?}");
    let (parallel, parallel_text) = time(jobs);
    eprintln!("parallel (jobs={jobs}): {parallel:.2?}");

    let identical = serial_text == parallel_text;
    // A parallel "speedup" measured on a single hardware thread is
    // scheduler noise, not a measurement — record null instead of a
    // number the trajectory could mistake for a regression (or a win).
    let hardware_threads =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let speedup =
        (hardware_threads >= 2).then(|| serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9));
    match speedup {
        Some(s) => eprintln!("speedup: {s:.2}x  identical_output: {identical}"),
        None => eprintln!(
            "speedup: n/a ({hardware_threads} hardware thread)  identical_output: {identical}"
        ),
    }

    // Raw kernel throughput, with the cycle-skip engine on and off —
    // the before/after record of the SoA + masked-DoD + skip overhaul.
    let kernel_skip = time_kernel(true);
    let kernel_noskip = time_kernel(false);
    let mcps = |d: std::time::Duration| KERNEL_CYCLES as f64 / d.as_secs_f64().max(1e-9) / 1e6;
    eprintln!(
        "kernel ({KERNEL_CYCLES} cycles): skip {kernel_skip:.2?} ({:.2} Mcycles/s), \
         no-skip {kernel_noskip:.2?} ({:.2} Mcycles/s)",
        mcps(kernel_skip),
        mcps(kernel_noskip)
    );

    // Journal overhead: one figure (unique cells — no cross-figure
    // hits) timed serially with the in-memory result store and with a
    // cold journal file, isolating the pure serialize+append+flush cost
    // per completed cell. The full figure set would not isolate it:
    // Baseline cells recur across the listed figures, so later figures
    // are served from the store whether or not a file backs it.
    let journal_path =
        std::env::temp_dir().join(format!("smtsim-sweep-bench-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);
    let first = specs
        .first()
        .ok_or_else(|| BinError::Config("a sweep-bench spec needs at least one entry".into()))?;
    let time_first = |journal: bool| -> Result<std::time::Duration, BinError> {
        let mut lab = env.lab_for_spec(spec).with_jobs(Some(1));
        if journal {
            lab = lab.with_journal(journal_path.clone());
            lab.open_journal()?;
        }
        let t0 = Instant::now();
        let _ = report::render_figure(&figures::figure_data(&mut lab, &mixes, first));
        Ok(t0.elapsed())
    };
    let plain_fig2 = time_first(false)?;
    let journaled_fig2 = time_first(true)?;
    let _ = std::fs::remove_file(&journal_path);
    let journal_overhead = journaled_fig2.as_secs_f64() / plain_fig2.as_secs_f64().max(1e-9);
    eprintln!(
        "fig2 serial: plain {plain_fig2:.2?}, journaled {journaled_fig2:.2?}  \
         journal_overhead: {journal_overhead:.3}x"
    );

    // Hand-rolled JSON: the workspace is dependency-free by design.
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"sweep_bench\",");
    let _ = writeln!(
        json,
        "  \"workload\": \"FT figures 2/4/5/6 over {} mixes ({} multithreaded cells + phase-1 normalization)\",",
        mixes.len(),
        cell_count(&specs, mixes.len())
    );
    let _ = writeln!(json, "  \"budget\": {},", base.mt_budget);
    let _ = writeln!(json, "  \"st_budget\": {},", base.st_budget);
    let _ = writeln!(json, "  \"warmup\": {},", base.warmup);
    let _ = writeln!(json, "  \"seed\": {},", base.seed);
    let _ = writeln!(json, "  \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    let _ = writeln!(json, "  \"serial_ms\": {},", serial.as_millis());
    let _ = writeln!(json, "  \"parallel_ms\": {},", parallel.as_millis());
    match speedup {
        Some(s) => {
            let _ = writeln!(json, "  \"speedup\": {s:.3},");
        }
        None => {
            let _ = writeln!(json, "  \"speedup\": null,");
        }
    }
    let _ = writeln!(json, "  \"kernel_cycles\": {KERNEL_CYCLES},");
    let _ = writeln!(json, "  \"kernel_ms\": {},", kernel_skip.as_millis());
    let _ = writeln!(
        json,
        "  \"kernel_noskip_ms\": {},",
        kernel_noskip.as_millis()
    );
    let _ = writeln!(
        json,
        "  \"kernel_mcycles_per_sec\": {:.2},",
        mcps(kernel_skip)
    );
    let _ = writeln!(json, "  \"fig2_serial_ms\": {},", plain_fig2.as_millis());
    let _ = writeln!(
        json,
        "  \"fig2_journaled_ms\": {},",
        journaled_fig2.as_millis()
    );
    let _ = writeln!(json, "  \"journal_overhead\": {journal_overhead:.3},");
    let _ = writeln!(json, "  \"identical_output\": {identical}");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_sweep.json", &json)?;
    eprintln!("wrote BENCH_sweep.json");

    if !identical {
        return Err(BinError::Runtime(
            "serial and parallel sweep output differ".into(),
        ));
    }
    Ok(())
}
