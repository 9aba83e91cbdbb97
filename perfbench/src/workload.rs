//! The three workloads and the timed path they share: set-up (spec load
//! and Lab construction) and one figure-regeneration repetition (phase-1
//! normalization, phase-2 sweep, rendering).

use crate::trace::Ctx;
use smtsim_rob2::{
    figures, report, CellOutcome, ExperimentSpec, FigureData, Lab, NormTable, SweepCell, ALL_MIXES,
};
use smtsim_workload::mix;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Commit budget of multithreaded cells and solo normalization runs,
/// and functional warm-up, as the committed figures use them.
pub const BUDGET: u64 = 40_000;
pub const WARMUP: u64 = 60_000;
/// Workload-generation seed of the committed figures. Every run simulates
/// this instance, so its work, and the figures it must reproduce, do not
/// depend on the benchmark seed (which is only recorded with the run).
pub const INSTANCE_SEED: u64 = 42;

/// One closed-batch job: regenerate a set of figures over a set of mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The headline figure over all 11 mixes, cold, no journal.
    Fig2All,
    /// The FT-figure union over the memory-bound mixes 1-4, cold.
    SchemesMembound,
    /// The FT-figure union over the compute-bound mixes 10-11, cold.
    SchemesIlp,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig2All,
        Workload::SchemesMembound,
        Workload::SchemesIlp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2All => "fig2_all",
            Workload::SchemesMembound => "schemes_membound",
            Workload::SchemesIlp => "schemes_ilp",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Committed experiment specs the job renders, in order.
    pub fn spec_ids(self) -> &'static [&'static str] {
        match self {
            Workload::Fig2All => &["fig2"],
            Workload::SchemesMembound | Workload::SchemesIlp => &["fig2", "fig4", "fig5", "fig6"],
        }
    }

    pub fn mixes(self) -> &'static [usize] {
        match self {
            Workload::Fig2All => &ALL_MIXES,
            Workload::SchemesMembound => &[1, 2, 3, 4],
            Workload::SchemesIlp => &[10, 11],
        }
    }

    /// One mix per class the workload covers, for the kernel probes.
    pub fn probe_mixes(self) -> &'static [usize] {
        match self {
            Workload::Fig2All => &[1, 10],
            Workload::SchemesMembound => &[1],
            Workload::SchemesIlp => &[10],
        }
    }
}

/// The committed experiment spec `id` under the repository root.
pub fn spec_path(root: &Path, id: &str) -> PathBuf {
    root.join("experiments").join(format!("{id}.toml"))
}

/// What a job needs before its first cell: the loaded specs and the Lab.
pub struct Setup {
    pub specs: Vec<ExperimentSpec>,
    pub lab: Lab,
}

/// Loads the job's specs and builds its Lab as the figure binaries do for
/// a spec at the committed knobs (machine and normalization reference
/// from the spec, `jobs` workers).
pub fn setup(w: Workload, root: &Path, jobs: usize, ctx: Ctx) -> Result<Setup, String> {
    let specs = ctx.span("core.spec.load", |_| {
        w.spec_ids()
            .iter()
            .map(|id| ExperimentSpec::load(&spec_path(root, id)).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let first = &specs[0];
    let machine = format!("{:?}", first.machine);
    if let Some(odd) = specs.iter().find(|s| {
        format!("{:?}", s.machine) != machine || s.norm.fingerprint() != first.norm.fingerprint()
    }) {
        return Err(format!(
            "spec {} differs from {} in machine or norm; one Lab cannot run both",
            odd.id, first.id
        ));
    }
    let lab = ctx.span("core.lab.new", |_| {
        let mut lab = Lab::new(INSTANCE_SEED)
            .with_budgets(BUDGET, BUDGET)
            .with_warmup(WARMUP)
            .with_jobs(Some(jobs))
            .with_norm(first.norm)
            .with_spec_fingerprint(Some(first.fingerprint.clone()));
        lab.machine = first.machine.clone();
        lab
    });
    Ok(Setup { specs, lab })
}

/// Every `mix x scheme` cell of the job, spec by spec, scheme-major (the
/// order `figures::ft_sweep` dispatches one figure in).
pub fn cells(specs: &[ExperimentSpec], mixes: &[usize]) -> Vec<SweepCell> {
    specs
        .iter()
        .flat_map(|s| s.variants.iter())
        .flat_map(|v| mixes.iter().map(move |&m| (m, v.config)))
        .collect()
}

/// The result of one timed repetition.
pub struct Rep {
    pub norm: NormTable,
    pub figures: Vec<FigureData>,
    pub texts: Vec<String>,
    /// Host seconds from the first normalization run to the rendered text.
    pub wall_s: f64,
}

/// One figure-regeneration repetition on a prepared Lab, as the figure
/// binaries run a spec: phase 1, then `figures::ft_sweep` once per spec
/// (it reuses the memoized normalization table), then rendering.
pub fn rep(st: &mut Setup, mixes: &[usize], ctx: Ctx) -> Rep {
    let t0 = Instant::now();
    let norm = ctx.span("core.norm_table", |_| st.lab.norm_table(mixes));
    let figures: Vec<FigureData> = ctx.span("core.sweep", |_| {
        st.specs
            .iter()
            .map(|spec| {
                let variants = spec
                    .variants
                    .iter()
                    .map(|v| (v.label.clone(), v.config))
                    .collect();
                let title = spec.title.as_deref().unwrap_or_default();
                figures::ft_sweep(&mut st.lab, title, variants, mixes)
            })
            .collect()
    });
    let texts = ctx.span("core.render", |_| {
        figures.iter().map(report::render_figure).collect()
    });
    Rep {
        norm,
        figures,
        texts,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// The job's cells with their full statistics, which the figure path
/// does not return.
pub struct Swept {
    pub norm: NormTable,
    /// In `cells` order.
    pub outcomes: Vec<CellOutcome>,
}

/// Phase 1, then every cell in `cells` order through one
/// `Lab::sweep_cells`. Untimed; it also warms the process before the
/// timed repetitions.
pub fn sweep(st: &mut Setup, mixes: &[usize]) -> Swept {
    let norm = st.lab.norm_table(mixes);
    let cells = cells(&st.specs, mixes);
    let outcomes = st.lab.sweep_cells(&cells).outcomes;
    Swept { norm, outcomes }
}

/// Solo normalization runs a table holds, and how many of them failed.
pub fn solo_runs(norm: &NormTable, mixes: &[usize]) -> (u64, u64) {
    let mut sorted = mixes.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut runs = 0;
    let mut failed = 0;
    for m in sorted {
        for slot in 0..mix(m).benchmarks.len() {
            runs += 1;
            failed += u64::from(norm.get(m, slot).is_err());
        }
    }
    (runs, failed)
}

/// Committed instructions one repetition stands for: every cell's
/// multithreaded commits plus each solo run at its commit target.
pub fn instructions(swept: &Swept, mixes: &[usize]) -> u64 {
    let cells: u64 = swept
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .map(|r| r.stats.total_committed())
        .sum();
    cells + solo_runs(&swept.norm, mixes).0 * BUDGET
}

/// Mean FT gain of 2-Level R-ROB16 over Baseline_32 in `fig`, in percent.
pub fn rrob16_gain_pct(spec: &ExperimentSpec, fig: &FigureData) -> Option<f64> {
    let idx = |name: &str| spec.variants.iter().position(|v| v.name == name);
    fig.avg_improvement(idx("r-rob-16")?, idx("baseline-32")?)
        .map(|g| g * 100.0)
}
