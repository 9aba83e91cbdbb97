//! Experiment harness: runs Table 2 mixes under ROB configurations and
//! computes the paper's metrics.
//!
//! The [`Lab`] memoizes the single-threaded normalization runs, keyed by
//! the full run-relevant state (see [`NormKey`]). A solo run depends on
//! the benchmark and its thread slot, not on the mix, so mixes that
//! share a benchmark in the same slot share one run, and sweeping many
//! ROB configurations — as every figure does — pays the normalization
//! cost once.
//!
//! Sweeps run in two phases ([`Lab::sweep`]): phase 1 runs every
//! distinct normalization run the cells need and snapshots them into an
//! immutable [`NormTable`]; phase 2 runs the `mix × config` cells. Both
//! phases fan their work out over the same pool of scoped worker
//! threads (`SMTSIM_JOBS` via the figure binaries), panic-isolate each
//! item and merge results in input order — so rendered figures are
//! byte-identical at any job count.
//!
//! Completed cells land in the lab's one result store, a
//! [`Journal`] keyed by the experiment universe and the cell: in memory
//! unless `SMTSIM_JOURNAL` names a file. A cell that recurs on the same
//! lab — the Baseline bars every FT figure plots — is simulated once
//! and served from the store afterwards.

use crate::journal::{self, cell_key, Journal, JournalEntry, JournalError};
use crate::metrics::{fair_throughput, weighted_ipc};
use crate::twolevel::{TwoLevelConfig, TwoLevelRob, TwoLevelStats};
use smtsim_analysis::{DodAnalysis, L1_WINDOW};
use smtsim_obs::{Episode, EpisodeReconstructor, MetricsRegistry, TraceEvent, TraceLog, Tracer};
use smtsim_pipeline::{
    CancelToken, DodBounds, FaultPlan, FaultStats, FixedRob, MachineConfig, RobAllocator,
    RunBudget, SimError, SimStats, Simulator, StopCondition,
};
use smtsim_workload::{mix, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Static per-load DoD bound tables for a set of workloads, one table
/// per hardware thread. The bounds come from the interprocedural
/// dependence analysis (`smtsim-analysis`) over the same first-level
/// window the hardware counter scans; the simulator cross-checks its
/// exact dependent count against them at every L2 fill.
fn static_bounds(wls: &[Arc<Workload>]) -> Vec<DodBounds> {
    wls.iter()
        .map(|w| DodBounds::new(DodAnalysis::compute(&w.program, L1_WINDOW).max_map()))
        .collect()
}

/// A ROB configuration under test.
#[derive(Clone, Copy, Debug)]
pub enum RobConfig {
    /// Private fixed per-thread ROBs (`Baseline_32`, `Baseline_128`).
    Baseline(usize),
    /// A two-level scheme.
    TwoLevel(TwoLevelConfig),
}

impl RobConfig {
    /// Builds the allocator.
    pub fn build(&self) -> Box<dyn RobAllocator> {
        match *self {
            RobConfig::Baseline(n) => Box::new(FixedRob::new(n)),
            RobConfig::TwoLevel(cfg) => Box::new(TwoLevelRob::new(cfg)),
        }
    }

    /// Display label (matches the paper's legends).
    pub fn label(&self) -> String {
        self.build().name()
    }

    /// Canonical value fingerprint: a string derived from every
    /// configuration field. Unlike [`RobConfig::label`] — which names
    /// only the scheme and threshold — this distinguishes two distinct
    /// configurations that happen to share a display name (e.g. two
    /// `2-Level R-ROB16`s with different second-level sizes), so it is
    /// what the normalization cache keys on.
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }
}

/// Result of one mix × configuration run.
#[derive(Clone, Debug)]
pub struct MixRun {
    /// "Mix 1" .. "Mix 11".
    pub mix: String,
    /// Configuration label.
    pub config: String,
    /// Fair throughput (harmonic mean of weighted IPCs).
    pub ft: f64,
    /// Raw throughput (sum of IPCs).
    pub throughput: f64,
    /// Per-thread multithreaded IPC.
    pub ipc: Vec<f64>,
    /// Per-thread single-threaded (alone) IPC used for normalization.
    pub single_ipc: Vec<f64>,
    /// Per-thread weighted IPC.
    pub weighted: Vec<f64>,
    /// Full machine statistics.
    pub stats: SimStats,
    /// Two-level allocator statistics, when applicable.
    pub twolevel: Option<TwoLevelStats>,
    /// Faults actually injected during the multithreaded run (all zero
    /// when no [`FaultPlan`] was installed for the mix).
    pub faults: FaultStats,
}

/// Result of one mix × configuration run with tracing armed: the
/// [`MixRun`] metrics plus the raw event stream and the two standard
/// reductions over it (complete L2-miss episodes and the metrics
/// registry). Produced by [`Lab::run_cell_traced`] / [`Lab::sweep_traced`].
#[derive(Clone, Debug)]
pub struct TracedMixRun {
    /// The ordinary run result (identical to the untraced run: tracing
    /// observes the simulation without perturbing it).
    pub run: MixRun,
    /// The raw `(cycle, event)` stream, in emission order.
    pub events: Vec<(u64, TraceEvent)>,
    /// L2-miss episodes reconstructed from the stream.
    pub episodes: Vec<Episode>,
    /// Counters and histograms folded from the stream.
    pub metrics: MetricsRegistry,
}

/// Cache key of one memoized normalization run. Every input that can
/// change the measured single-threaded IPC participates: the workload
/// (`bench`, `slot`, `seed`), the run length (`st_budget`, `warmup`),
/// the reference ROB configuration (by value fingerprint, not display
/// label) and the machine configuration. Mutating any of these on the
/// [`Lab`] therefore misses the cache instead of silently serving an
/// IPC measured under the old state.
///
/// The mix is deliberately absent: a solo workload is generated from
/// the benchmark name, the slot (its seed offset and address window)
/// and the lab seed alone, so every mix with the same benchmark in the
/// same slot measures the same IPC and shares one entry.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct NormKey {
    bench: &'static str,
    slot: usize,
    config: String,
    st_budget: u64,
    warmup: u64,
    seed: u64,
    machine: String,
}

/// Immutable product of a sweep's phase 1: the single-threaded
/// reference IPC (or the typed error its run produced) for every
/// `(mix, slot)` the sweep's cells need, all measured under
/// [`Lab::norm`]. Entries whose slots hold the same benchmark come from
/// one shared run; the runs themselves are spread over the sweep's
/// worker pool, and the table is the same at any job count. Shared
/// read-only by the phase-2 workers.
#[derive(Clone, Debug)]
pub struct NormTable {
    entries: BTreeMap<(usize, usize), Result<f64, SimError>>,
}

impl NormTable {
    /// The reference IPC of `(mix, slot)`, or the error its
    /// normalization run produced. A missing entry (the table was
    /// built for a different mix set) is an [`SimError::InvalidConfig`].
    pub fn get(&self, mix: usize, slot: usize) -> Result<f64, SimError> {
        match self.entries.get(&(mix, slot)) {
            Some(r) => r.clone(),
            None => Err(SimError::InvalidConfig {
                reason: format!("normalization table has no entry for mix {mix} slot {slot}"),
            }),
        }
    }

    /// Number of `(mix, slot)` entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Folds `other`'s entries into this table; on overlap the entry
    /// from `other` wins. Only meaningful for tables measured under
    /// the same experiment universe (where overlapping entries are
    /// identical by determinism) — an embedding daemon uses this to
    /// keep one warm table per universe across requests.
    pub fn merge(&mut self, other: &NormTable) {
        for (k, v) in &other.entries {
            self.entries.insert(*k, v.clone());
        }
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One cell of a sweep: a mix index under a ROB configuration.
pub type SweepCell = (usize, RobConfig);

/// Runs `f` with panics converted to [`SimError::CellPanic`], so one
/// poisoned sweep cell degrades to an `n/a` figure cell instead of
/// killing the whole sweep (or a worker thread).
fn catch_cell<T>(f: impl FnOnce() -> T) -> Result<T, SimError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let reason = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        SimError::CellPanic { reason }
    })
}

/// SplitMix64 — the deterministic mixer behind the retry layer's
/// seeded backoff ordering (wall-clock randomness would break the
/// byte-identity guarantees of resumed sweeps).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Outcome of one sweep cell under the resilient engine
/// ([`Lab::sweep_cells`]).
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The final result, after any retries (or as loaded from the
    /// journal).
    pub result: Result<MixRun, SimError>,
    /// Attempts the cell took (1 = first try). Journal hits report the
    /// attempt count recorded when the cell originally completed, so
    /// this field — and everything derived from it — is identical
    /// between a resumed sweep and an uninterrupted one.
    pub attempts: u32,
    /// True when the result was served from the lab's result store —
    /// in memory or a journal file — instead of run.
    pub from_journal: bool,
}

/// Per-sweep health summary: cells ok / retried-then-ok / timed out /
/// failed, plus the total number of extra attempts the retry layer
/// spent. Derived purely from cell *results* (never from the execution
/// path), so a resumed sweep and an uninterrupted one summarize
/// identically — which is what lets the figure layer append this to
/// footers without breaking resume byte-identity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepHealth {
    /// Cells that produced a result (including retried-then-ok ones).
    pub ok: usize,
    /// Subset of `ok` that needed more than one attempt.
    pub retried: usize,
    /// Cells whose final result was a watchdog timeout.
    pub timed_out: usize,
    /// Cells whose final result was any other error.
    pub failed: usize,
    /// Total attempts beyond the first, summed over all cells.
    pub extra_attempts: usize,
}

impl SweepHealth {
    /// Folds a sweep's outcomes into the summary.
    pub fn from_outcomes(outcomes: &[CellOutcome]) -> Self {
        let mut h = SweepHealth::default();
        for o in outcomes {
            h.extra_attempts += o.attempts.saturating_sub(1) as usize;
            match &o.result {
                Ok(_) => {
                    h.ok += 1;
                    if o.attempts > 1 {
                        h.retried += 1;
                    }
                }
                Err(SimError::CellTimeout { .. }) => h.timed_out += 1,
                Err(_) => h.failed += 1,
            }
        }
        h
    }

    /// Total cells summarized.
    pub fn total(&self) -> usize {
        self.ok + self.timed_out + self.failed
    }

    /// True when no cell timed out or failed.
    pub fn all_ok(&self) -> bool {
        self.timed_out == 0 && self.failed == 0
    }

    /// The one-line footer the figure layer appends when any
    /// resilience feature is active.
    pub fn summary_line(&self) -> String {
        format!(
            "sweep health: {} ok ({} retried), {} timed out, {} failed",
            self.ok, self.retried, self.timed_out, self.failed
        )
    }

    /// Folds the summary into an observability registry under the
    /// `sweep.*` counter keys.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry) {
        reg.bump_by("sweep.cells_ok", self.ok as u64);
        reg.bump_by("sweep.cells_retried", self.retried as u64);
        reg.bump_by("sweep.cells_timed_out", self.timed_out as u64);
        reg.bump_by("sweep.cells_failed", self.failed as u64);
        reg.bump_by("sweep.retry_attempts", self.extra_attempts as u64);
    }
}

/// Everything a resilient sweep produces: per-cell outcomes in input
/// order plus the [`SweepHealth`] summary.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// One outcome per input cell, in input order.
    pub outcomes: Vec<CellOutcome>,
    /// The path-independent health summary over `outcomes`.
    pub health: SweepHealth,
}

impl SweepReport {
    /// Strips the report down to the classic result vector.
    pub fn results(self) -> Vec<Result<MixRun, SimError>> {
        self.outcomes.into_iter().map(|o| o.result).collect()
    }

    /// Cells served from the result store (in memory or a journal
    /// file) instead of being re-run. (Path-*dependent* by nature —
    /// this is deliberately not part of [`SweepHealth`] and never
    /// rendered into figures.)
    pub fn journal_hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.from_journal).count()
    }

    /// Folds health counters plus the journal-hit count into an
    /// observability registry.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry) {
        self.health.record_metrics(reg);
        reg.bump_by("sweep.journal_hits", self.journal_hits() as u64);
    }
}

/// Experiment driver with memoized normalization runs and a result
/// store that serves every sweep cell already completed under the
/// current experiment universe (see [`Lab::sweep_cells`]).
pub struct Lab {
    /// The multithreaded machine (defaults to Table 1).
    pub machine: MachineConfig,
    /// Workload-generation seed.
    pub seed: u64,
    /// Commit target for multithreaded runs (the run stops when any
    /// thread reaches it, as in the paper).
    pub mt_budget: u64,
    /// Commit target for single-threaded normalization runs.
    pub st_budget: u64,
    /// Functional warm-up instructions per thread before timed
    /// simulation (caches and predictors; see `SimulatorBuilder::warmup`).
    pub warmup: u64,
    /// Configuration of the reference machine used for the
    /// single-threaded normalization runs. Weighted IPCs of *every*
    /// configuration are normalized against the same reference
    /// (Baseline_32 alone), so FT values are directly comparable across
    /// the paper's bar charts.
    pub norm: RobConfig,
    /// Worker threads for both phases of [`Lab::sweep`] (the
    /// normalization runs of [`Lab::norm_table`] and the cells): `None`
    /// (the default) uses [`std::thread::available_parallelism`];
    /// `Some(1)` forces the serial path. The figure binaries set this
    /// from the `SMTSIM_JOBS` environment knob. The sweep output is
    /// byte-identical at any job count.
    pub jobs: Option<usize>,
    single_cache: BTreeMap<NormKey, f64>,
    /// Fault plan applied to every multithreaded run (see
    /// [`Lab::set_fault`]).
    global_fault: Option<FaultPlan>,
    /// Per-mix fault plans; these take precedence over `global_fault`.
    mix_faults: BTreeMap<usize, FaultPlan>,
    /// Per-mix *transient* fault plans, applied only while the cell's
    /// attempt number is at or below the stored bound (see
    /// [`Lab::set_transient_fault`]); these model faults the retry
    /// layer can recover from.
    transient_faults: BTreeMap<usize, (FaultPlan, u32)>,
    /// Resumable sweep-journal path (`SMTSIM_JOURNAL`); `None` keeps
    /// the result store in memory only. See [`crate::journal`].
    pub journal_path: Option<PathBuf>,
    /// The result store: opened from `journal_path`, or in memory when
    /// no path is armed. Created lazily by the first sweep, dropped
    /// whenever the lab state — and therefore the universe
    /// fingerprint — changes.
    journal: Option<Arc<Journal>>,
    /// Simulated-cycle ceiling per sweep cell (`SMTSIM_CELL_CYCLES`);
    /// the deterministic watchdog. `None` = unlimited.
    pub cell_cycle_budget: Option<u64>,
    /// Wall-clock ceiling per sweep cell in milliseconds
    /// (`SMTSIM_CELL_TIMEOUT`); non-deterministic by nature. `None` =
    /// unlimited.
    pub cell_wall_ms: Option<u64>,
    /// Retries per transiently-failed sweep cell
    /// (`SMTSIM_CELL_RETRIES`); 0 = the pre-resilience behavior.
    pub retries: u32,
    /// Event-driven cycle skipping in every simulator this lab builds
    /// (`SMTSIM_NO_SKIP` disables it). Timing-transparent by
    /// construction — results are byte-identical either way — so it is
    /// deliberately *not* part of [`NormKey`] or the journal universe
    /// fingerprint. Skip-equivalence comparisons must therefore use
    /// fresh labs: flipping this field on a lab that already swept a
    /// cell serves the stored result instead of re-simulating it.
    pub cycle_skip: bool,
    /// Cooperative cancellation for every *measured* (multithreaded)
    /// cell this lab runs: an embedding daemon arms one token per
    /// request and the cycle loop polls it through [`RunBudget`]. A
    /// cancelled cell fails with a typed
    /// [`SimError::CellTimeout`]-family error — never a wrong value —
    /// and normalization runs are unmetered, so the single-thread
    /// cache only ever stores healthy references. Operational like
    /// [`Lab::jobs`]: deliberately not part of [`NormKey`] or the
    /// journal universe fingerprint.
    pub cancel: Option<CancelToken>,
    /// Content fingerprint of the experiment spec driving this lab
    /// (see [`crate::spec::ExperimentSpec::fingerprint`]); `None` for
    /// labs built outside the spec layer. Part of the journal universe:
    /// a journal resumed against an edited spec is rejected with a
    /// typed [`JournalError::UniverseMismatch`] instead of silently
    /// mixing universes.
    pub spec_fingerprint: Option<String>,
}

impl Lab {
    /// A lab over the paper's Table 1 machine with laptop-scale
    /// budgets (see EXPERIMENTS.md for the budget used per figure).
    pub fn new(seed: u64) -> Self {
        Lab {
            machine: MachineConfig::icpp08(),
            seed,
            mt_budget: 60_000,
            st_budget: 60_000,
            warmup: 60_000,
            norm: RobConfig::Baseline(32),
            jobs: None,
            single_cache: BTreeMap::new(),
            global_fault: None,
            mix_faults: BTreeMap::new(),
            transient_faults: BTreeMap::new(),
            journal_path: None,
            journal: None,
            cell_cycle_budget: None,
            cell_wall_ms: None,
            retries: 0,
            cycle_skip: true,
            cancel: None,
            spec_fingerprint: None,
        }
    }

    /// Overrides the commit budgets.
    pub fn with_budgets(mut self, mt: u64, st: u64) -> Self {
        self.change_state(|lab| {
            lab.mt_budget = mt;
            lab.st_budget = st;
        });
        self
    }

    /// Overrides the functional warm-up length (instructions per
    /// thread).
    #[must_use]
    pub fn with_warmup(mut self, insts: u64) -> Self {
        self.change_state(|lab| lab.warmup = insts);
        self
    }

    /// Overrides the sweep worker-thread count (`None` = available
    /// parallelism; the sweep output is byte-identical either way).
    #[must_use]
    pub fn with_jobs(mut self, jobs: Option<usize>) -> Self {
        self.change_state(|lab| lab.jobs = jobs);
        self
    }

    /// Overrides the reference configuration for single-threaded
    /// normalization runs.
    #[must_use]
    pub fn with_norm(mut self, norm: RobConfig) -> Self {
        self.change_state(|lab| lab.norm = norm);
        self
    }

    /// Arms the resumable on-disk journal: completed sweep cells are
    /// appended to `path` and skipped on the next sweep over the same
    /// experiment universe (`SMTSIM_JOURNAL`).
    #[must_use]
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        self.change_state(|lab| lab.journal_path = Some(path));
        self
    }

    /// Sets the deterministic simulated-cycle watchdog ceiling per
    /// sweep cell (`SMTSIM_CELL_CYCLES`; `None` = unlimited).
    #[must_use]
    pub fn with_cell_cycle_budget(mut self, cycles: Option<u64>) -> Self {
        self.change_state(|lab| lab.cell_cycle_budget = cycles);
        self
    }

    /// Sets the wall-clock watchdog ceiling per sweep cell, in
    /// milliseconds (`SMTSIM_CELL_TIMEOUT`; `None` = unlimited).
    #[must_use]
    pub fn with_cell_wall_ms(mut self, ms: Option<u64>) -> Self {
        self.change_state(|lab| lab.cell_wall_ms = ms);
        self
    }

    /// Sets the retry count for transiently-failed sweep cells
    /// (`SMTSIM_CELL_RETRIES`).
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.change_state(|lab| lab.retries = retries);
        self
    }

    /// Enables or disables event-driven cycle skipping in every
    /// simulator the lab builds (`SMTSIM_NO_SKIP`). Validation-only:
    /// the output is byte-identical either way.
    #[must_use]
    pub fn with_cycle_skip(mut self, enabled: bool) -> Self {
        self.change_state(|lab| lab.cycle_skip = enabled);
        self
    }

    /// Stamps the lab with the content fingerprint of the experiment
    /// spec that configured it, binding any journal to that exact spec
    /// (`None` clears the stamp).
    #[must_use]
    pub fn with_spec_fingerprint(mut self, fingerprint: Option<String>) -> Self {
        self.change_state(|lab| lab.spec_fingerprint = fingerprint);
        self
    }

    /// Arms (or clears) the cooperative per-cell cancellation token
    /// (see the [`Lab::cancel`] field). Call before
    /// [`Lab::adopt_journal`] / [`Lab::open_journal`]: like every
    /// builder it routes through the state-change funnel, which drops
    /// any open journal handle.
    #[must_use]
    pub fn with_cancel_token(mut self, token: Option<CancelToken>) -> Self {
        self.change_state(|lab| lab.cancel = token);
        self
    }

    /// The single funnel for builder-style state changes. The
    /// normalization cache needs no flushing here *by construction*:
    /// every run-relevant field participates in [`NormKey`], so a
    /// changed field misses the cache instead of hitting a stale entry
    /// (and restoring the old value legitimately re-hits the old
    /// entry). Route any new `with_*` mutation through this point — if
    /// the cache ever grows state [`NormKey`] cannot see, this is the
    /// one place that must learn to invalidate it.
    fn change_state(&mut self, apply: impl FnOnce(&mut Self)) {
        apply(self);
        // A state change may move the lab into a different experiment
        // universe; drop any open journal so the next sweep re-opens —
        // and re-validates — it under the new universe fingerprint.
        // (Direct field mutation bypasses this funnel; the engine
        // re-checks the fingerprint at every `ensure_journal`.)
        self.journal = None;
    }

    /// Installs a fault plan for multithreaded runs: `mix = None` sets a
    /// lab-wide plan, `mix = Some(i)` targets one mix (and overrides the
    /// lab-wide plan for it). Single-threaded normalization runs are
    /// never faulted — they define the healthy reference every weighted
    /// IPC is measured against.
    pub fn set_fault(&mut self, mix: Option<usize>, plan: FaultPlan) {
        self.change_state(|lab| match mix {
            None => lab.global_fault = Some(plan),
            Some(i) => {
                lab.mix_faults.insert(i, plan);
            }
        });
    }

    /// Installs a *transient* fault plan for `mix`: the plan applies
    /// only while the cell's attempt number is `<= active_attempts`
    /// and takes precedence over [`Lab::set_fault`] plans while
    /// active. This models a fault that clears on re-run — the retry
    /// layer's recovery target (and its test fixture).
    pub fn set_transient_fault(&mut self, mix: usize, plan: FaultPlan, active_attempts: u32) {
        self.change_state(|lab| {
            lab.transient_faults.insert(mix, (plan, active_attempts));
        });
    }

    /// Removes all installed fault plans (persistent and transient).
    pub fn clear_faults(&mut self) {
        self.change_state(|lab| {
            lab.global_fault = None;
            lab.mix_faults.clear();
            lab.transient_faults.clear();
        });
    }

    /// The plan a multithreaded run of `mix_idx` would use, if any.
    pub fn fault_for(&self, mix_idx: usize) -> Option<&FaultPlan> {
        self.mix_faults.get(&mix_idx).or(self.global_fault.as_ref())
    }

    /// The plan attempt number `attempt` of `mix_idx` would use: an
    /// active transient plan wins, then the persistent plans.
    fn fault_for_attempt(&self, mix_idx: usize, attempt: u32) -> Option<&FaultPlan> {
        if let Some((plan, active)) = self.transient_faults.get(&mix_idx) {
            if attempt <= *active {
                return Some(plan);
            }
        }
        self.fault_for(mix_idx)
    }

    /// Single-threaded IPC of `slot` in `mix_idx` under `rob` — the
    /// thread running *alone* on that machine (memoized). `run_mix`
    /// always normalizes with [`Lab::norm`]; this method is public so
    /// studies can also compute per-configuration baselines.
    pub fn single_ipc(&mut self, mix_idx: usize, slot: usize, rob: RobConfig) -> f64 {
        match self.try_single_ipc(mix_idx, slot, rob) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Lab::single_ipc`]: configuration errors,
    /// deadlocks and invariant violations come back as [`SimError`]
    /// instead of aborting the sweep.
    pub fn try_single_ipc(
        &mut self,
        mix_idx: usize,
        slot: usize,
        rob: RobConfig,
    ) -> Result<f64, SimError> {
        let key = self.norm_key(mix_idx, slot, rob);
        if let Some(&v) = self.single_cache.get(&key) {
            return Ok(v);
        }
        let ipc = self.measure_single_ipc(mix_idx, slot, rob)?;
        self.single_cache.insert(key, ipc);
        Ok(ipc)
    }

    /// Runs `slot` of `mix_idx` alone under `rob` and returns its IPC,
    /// bypassing the memo. Takes `&self`, so phase 1 can run distinct
    /// normalization runs on worker threads.
    fn measure_single_ipc(
        &self,
        mix_idx: usize,
        slot: usize,
        rob: RobConfig,
    ) -> Result<f64, SimError> {
        let wl = Arc::new(mix(mix_idx).instantiate_single(slot, self.seed));
        let bounds = static_bounds(std::slice::from_ref(&wl));
        let mut cfg = self.machine.clone();
        cfg.num_threads = 1;
        cfg.fetch_threads = 1;
        let mut sim = Simulator::builder(cfg, vec![wl], rob.build(), self.seed)
            .dod_bounds(bounds)
            .warmup(self.warmup)
            .cycle_skip(self.cycle_skip)
            .build()?;
        sim.try_run(StopCondition::AnyThreadCommitted(self.st_budget))?;
        Ok(sim.stats().threads[0].ipc(sim.cycle()))
    }

    /// The cache key a normalization run of `(mix, slot)` under `rob`
    /// would use given the lab's *current* state.
    ///
    /// # Panics
    /// Panics when `mix_idx` or `slot` is out of range.
    fn norm_key(&self, mix_idx: usize, slot: usize, rob: RobConfig) -> NormKey {
        NormKey {
            bench: mix(mix_idx).benchmarks[slot],
            slot,
            config: rob.fingerprint(),
            st_budget: self.st_budget,
            warmup: self.warmup,
            seed: self.seed,
            machine: format!("{:?}", self.machine),
        }
    }

    /// Number of distinct normalization runs currently memoized
    /// (distinct [`NormKey`]s — mutating budgets, seed, warm-up or the
    /// machine grows this rather than overwriting entries).
    pub fn cached_norm_runs(&self) -> usize {
        self.single_cache.len()
    }

    /// Pre-warms the normalization cache from a [`NormTable`] computed
    /// earlier. Entries are keyed under the lab's *current* state, so
    /// the caller must only seed tables measured under the same seed,
    /// budgets, warm-up, machine and norm reference — the serve daemon
    /// enforces this by storing tables per [`Lab::journal_universe`],
    /// which covers every one of those fields. Only healthy entries
    /// are seeded: errors are never cached, exactly as in
    /// [`Lab::try_single_ipc`]. Deliberately bypasses the state-change
    /// funnel — warming the cache mutates no universe-relevant state,
    /// so an open journal stays valid.
    pub fn seed_norm_cache(&mut self, table: &NormTable) {
        let norm = self.norm;
        for (&(m, slot), r) in &table.entries {
            if let Ok(v) = r {
                let key = self.norm_key(m, slot, norm);
                self.single_cache.insert(key, *v);
            }
        }
    }

    /// Worker-thread count a sweep would use right now: [`Lab::jobs`]
    /// if set, otherwise the machine's available parallelism.
    pub fn effective_jobs(&self) -> usize {
        self.jobs
            .or_else(|| {
                std::thread::available_parallelism()
                    .ok()
                    .map(NonZeroUsize::get)
            })
            .unwrap_or(1)
            .max(1)
    }

    /// Phase 1 of a sweep: computes (and memoizes) the normalization
    /// run of every `(mix, slot)` in `mixes` under [`Lab::norm`] and
    /// snapshots the results into an immutable [`NormTable`].
    ///
    /// Each distinct run missing from the memo ([`NormKey`]: slots with
    /// the same benchmark share one) is run once. The runs are listed
    /// in ascending `(mix, slot)` order of their first use and spread
    /// over [`Lab::effective_jobs`] worker threads, each panic-isolated;
    /// healthy results are then memoized (errors never are). The table
    /// is identical at any job count, and a call the memo fully covers
    /// spawns no threads. A mix whose very lookup panics is skipped
    /// here — its phase-2 cells hit the same panic and report it per
    /// cell.
    pub fn norm_table(&mut self, mixes: &[usize]) -> NormTable {
        let mut sorted: Vec<usize> = mixes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let norm = self.norm;
        // Building a key looks the mix up, which panics on a bad index,
        // so it stays inside the caught region.
        let slots: Vec<((usize, usize), NormKey)> = sorted
            .into_iter()
            .filter_map(|m| {
                catch_cell(|| {
                    (0..mix(m).benchmarks.len())
                        .map(|slot| ((m, slot), self.norm_key(m, slot, norm)))
                        .collect::<Vec<_>>()
                })
                .ok()
            })
            .flatten()
            .collect();
        let mut seen = BTreeSet::new();
        let missing: Vec<(&NormKey, (usize, usize))> = slots
            .iter()
            .filter(|(_, key)| !self.single_cache.contains_key(key) && seen.insert(key))
            .map(|(at, key)| (key, *at))
            .collect();
        let measured = self.fan_out(&missing, &|&(_, (m, slot))| {
            self.measure_single_ipc(m, slot, norm)
        });
        let fresh: BTreeMap<&NormKey, Result<f64, SimError>> =
            missing.iter().map(|&(key, _)| key).zip(measured).collect();
        let entries = slots
            .iter()
            .map(|(at, key)| {
                let r = fresh
                    .get(key)
                    .cloned()
                    .unwrap_or_else(|| Ok(self.single_cache[key]));
                (*at, r)
            })
            .collect();
        for (key, r) in fresh {
            if let Ok(v) = r {
                self.single_cache.insert(key.clone(), v);
            }
        }
        NormTable { entries }
    }

    /// Runs one `mix × config` cell against a phase-1 normalization
    /// table. Takes `&self` — a cell mutates no lab state, which is
    /// what lets [`Lab::sweep`] fan cells out across threads while
    /// sharing one `Lab` and one [`NormTable`].
    pub fn run_cell(
        &self,
        mix_idx: usize,
        rob: RobConfig,
        norm: &NormTable,
    ) -> Result<MixRun, SimError> {
        self.run_cell_attempt(mix_idx, rob, norm, 1)
    }

    /// [`Lab::run_cell`] at an explicit attempt number — the retry
    /// layer's entry point. The attempt number only selects the fault
    /// plan (see [`Lab::set_transient_fault`]); the simulation itself
    /// is attempt-oblivious, so a retried cell that no longer faults
    /// is byte-identical to a cell that never faulted.
    fn run_cell_attempt(
        &self,
        mix_idx: usize,
        rob: RobConfig,
        norm: &NormTable,
        attempt: u32,
    ) -> Result<MixRun, SimError> {
        self.run_cell_inner(mix_idx, rob, norm, smtsim_obs::NoopTracer, attempt)
            .map(|(run, _)| run)
    }

    /// [`Lab::run_cell`] with tracing armed: the multithreaded run
    /// collects the full structured event stream (warm-up excluded),
    /// which is folded into episodes and metrics. The [`MixRun`] inside
    /// is identical to the untraced cell's — tracing is observational.
    pub fn run_cell_traced(
        &self,
        mix_idx: usize,
        rob: RobConfig,
        norm: &NormTable,
    ) -> Result<TracedMixRun, SimError> {
        self.run_cell_traced_attempt(mix_idx, rob, norm, 1)
    }

    /// [`Lab::run_cell_traced`] at an explicit attempt number (see
    /// [`Lab::run_cell_attempt`]).
    fn run_cell_traced_attempt(
        &self,
        mix_idx: usize,
        rob: RobConfig,
        norm: &NormTable,
        attempt: u32,
    ) -> Result<TracedMixRun, SimError> {
        let (run, log) = self.run_cell_inner(mix_idx, rob, norm, TraceLog::new(), attempt)?;
        let events = log.into_events();
        let episodes = EpisodeReconstructor::from_events(&events);
        let metrics = MetricsRegistry::from_events(&events);
        Ok(TracedMixRun {
            run,
            events,
            episodes,
            metrics,
        })
    }

    /// Shared body of [`Lab::run_cell`] and [`Lab::run_cell_traced`]:
    /// builds the simulator through [`Simulator::builder`] (bounds →
    /// fault plan → warm-up, tracing armed last), runs the mix and
    /// computes the metrics. Returns the tracer so traced callers can
    /// fold the collected stream.
    fn run_cell_inner<T: Tracer>(
        &self,
        mix_idx: usize,
        rob: RobConfig,
        norm: &NormTable,
        tracer: T,
        attempt: u32,
    ) -> Result<(MixRun, T), SimError> {
        let m = mix(mix_idx);
        let wls: Vec<Arc<Workload>> = m.instantiate(self.seed).into_iter().map(Arc::new).collect();
        let bounds = static_bounds(&wls);
        let mut builder = Simulator::builder(self.machine.clone(), wls, rob.build(), self.seed)
            .dod_bounds(bounds)
            .warmup(self.warmup)
            // Watchdog budgets apply to the measured (multithreaded)
            // cell run only — normalization runs are unmetered because
            // the single-thread cache must never store a timeout (see
            // `norm_table`).
            .run_budget(RunBudget {
                max_cycles: self.cell_cycle_budget,
                wall_ms: self.cell_wall_ms,
                token: self.cancel.clone(),
            })
            .cycle_skip(self.cycle_skip)
            .tracer(tracer);
        if let Some(plan) = self.fault_for_attempt(mix_idx, attempt) {
            builder = builder.fault_plan(plan.clone());
        }
        let mut sim = builder.build()?;
        let run_err = sim
            .try_run(StopCondition::AnyThreadCommitted(self.mt_budget))
            .err();
        let faults = sim.fault_stats();
        if let Some(e) = run_err {
            return Err(e);
        }
        let cycles = sim.cycle();
        let stats = sim.stats().clone();
        let ipc: Vec<f64> = stats.threads.iter().map(|t| t.ipc(cycles)).collect();
        let single_ipc: Vec<f64> = (0..ipc.len())
            .map(|slot| norm.get(mix_idx, slot))
            .collect::<Result<_, _>>()?;
        let weighted: Vec<f64> = ipc
            .iter()
            .zip(&single_ipc)
            .map(|(&mt, &st)| weighted_ipc(mt, st))
            .collect();
        let twolevel = sim
            .allocator()
            .as_any()
            .downcast_ref::<TwoLevelRob>()
            .map(|a| a.stats());
        let run = MixRun {
            mix: m.name.to_string(),
            config: rob.label(),
            ft: fair_throughput(&weighted),
            throughput: ipc.iter().sum(),
            ipc,
            single_ipc,
            weighted,
            stats,
            twolevel,
            faults,
        };
        Ok((run, sim.into_tracer()))
    }

    /// Runs a batch of `mix × config` cells and returns their results
    /// in input order.
    ///
    /// Phase 1 precomputes every normalization run the cells need
    /// ([`Lab::norm_table`]); the immutable table is then shared
    /// read-only by phase 2, which runs the cells. Both phases fan out
    /// across [`Lab::effective_jobs`] scoped worker threads pulling
    /// from a shared work queue. Each cell is panic-isolated: a panicking
    /// cell yields [`SimError::CellPanic`] — rendered `n/a` by the
    /// figure layer — instead of killing the sweep. Results are merged
    /// by input index, so the output (and every figure rendered from
    /// it) is byte-identical at any job count, including the serial
    /// `jobs = 1` path.
    ///
    /// This is [`Lab::sweep_cells`] stripped down to the classic
    /// result vector; the result store and all resilience features
    /// (journal file, watchdog, retries) apply.
    pub fn sweep(&mut self, cells: &[SweepCell]) -> Vec<Result<MixRun, SimError>> {
        self.sweep_cells(cells).results()
    }

    /// The resilient sweep: [`Lab::sweep`] returning per-cell
    /// [`CellOutcome`]s and a [`SweepHealth`] summary.
    ///
    /// Cells already completed under the current experiment universe
    /// are served from the lab's result store without re-running, and
    /// every newly-completed cell is recorded the moment it finishes.
    /// The store lives in memory, so a cell shared by several figures
    /// on one lab runs once. When a journal file is armed
    /// ([`Lab::with_journal`] / `SMTSIM_JOURNAL`) each record is also
    /// appended durably — so a killed sweep, relaunched with the same
    /// journal, resumes after the last completed cell and produces
    /// byte-identical results. Failed cells are never stored; they
    /// re-run (still deterministically) on the next sweep.
    ///
    /// When retries are armed ([`Lab::with_retries`] /
    /// `SMTSIM_CELL_RETRIES`), transiently-failed cells
    /// ([`SimError::is_transient`]) are re-enqueued for later rounds:
    /// the deterministic analogue of backoff — every first-attempt cell
    /// runs before any retry, and retry order within a round is drawn
    /// from the lab seed via SplitMix64, never from wall-clock
    /// randomness. The outcome vector stays byte-identical at any
    /// `SMTSIM_JOBS`.
    ///
    /// # Panics
    /// Panics if an armed journal cannot be opened or is stale
    /// (version/universe mismatch) — entry points that own a journal
    /// path pre-validate with [`Lab::open_journal`] and map the typed
    /// error to an exit code instead.
    pub fn sweep_cells(&mut self, cells: &[SweepCell]) -> SweepReport {
        let journal = self.ensure_journal();
        let mixes: Vec<usize> = cells.iter().map(|&(m, _)| m).collect();
        let norm = self.norm_table(&mixes);
        let keys: Vec<String> = cells
            .iter()
            .map(|&(m, cfg)| cell_key(m, &cfg.fingerprint()))
            .collect();
        let journaled: Vec<Option<JournalEntry>> = keys.iter().map(|k| journal.lookup(k)).collect();
        let skip: Vec<bool> = journaled.iter().map(Option::is_some).collect();
        let keys = &keys;
        let ran = self.sweep_engine(
            cells,
            &norm,
            &skip,
            &|i, run: &MixRun, attempts| {
                if let Err(e) = journal.record(&keys[i], run, attempts) {
                    // A dying disk must not kill a healthy sweep:
                    // degrade to non-durable execution (results
                    // unchanged; only resumability is lost).
                    eprintln!("warning: sweep journal append failed ({e}); cell result kept in memory only");
                }
            },
            &|lab, m, cfg, norm, attempt| lab.run_cell_attempt(m, cfg, norm, attempt),
        );
        let outcomes: Vec<CellOutcome> = journaled
            .into_iter()
            .zip(ran)
            .map(|(hit, ran)| match hit {
                Some(entry) => CellOutcome {
                    result: Ok(entry.run),
                    attempts: entry.attempts,
                    from_journal: true,
                },
                None => {
                    let (result, attempts) = ran.expect("engine ran every non-journaled cell");
                    CellOutcome {
                        result,
                        attempts,
                        from_journal: false,
                    }
                }
            })
            .collect();
        let health = SweepHealth::from_outcomes(&outcomes);
        SweepReport { outcomes, health }
    }

    /// [`Lab::sweep`] with tracing armed on every cell (see
    /// [`Lab::run_cell_traced`]). Same two-phase structure, same
    /// panic isolation, same watchdog and retry layers, same
    /// input-order merge — the traced output is byte-identical at any
    /// job count. Traced sweeps bypass the result store — they are
    /// neither served from it nor recorded into it (it stores
    /// [`MixRun`]s, not event streams).
    pub fn sweep_traced(&mut self, cells: &[SweepCell]) -> Vec<Result<TracedMixRun, SimError>> {
        let mixes: Vec<usize> = cells.iter().map(|&(m, _)| m).collect();
        let norm = self.norm_table(&mixes);
        let skip = vec![false; cells.len()];
        self.sweep_engine(
            cells,
            &norm,
            &skip,
            &|_, _: &TracedMixRun, _| {},
            &|lab, m, cfg, norm, attempt| lab.run_cell_traced_attempt(m, cfg, norm, attempt),
        )
        .into_iter()
        .map(|o| o.expect("no cells are skipped in a traced sweep").0)
        .collect()
    }

    /// The engine under [`Lab::sweep_cells`] and [`Lab::sweep_traced`]:
    /// runs every non-`skip` cell through up to `1 + retries` rounds,
    /// invoking `on_ok` the moment a cell first succeeds (the journal
    /// append hook — called from worker threads, hence `Sync`).
    /// Returns `(final result, attempts)` per cell, `None` for skipped
    /// cells, in input order.
    fn sweep_engine<R: Send>(
        &self,
        cells: &[SweepCell],
        norm: &NormTable,
        skip: &[bool],
        on_ok: &(impl Fn(usize, &R, u32) + Sync),
        run: &(impl Fn(&Lab, usize, RobConfig, &NormTable, u32) -> Result<R, SimError> + Sync),
    ) -> Vec<Option<(Result<R, SimError>, u32)>> {
        let mut results: Vec<Option<(Result<R, SimError>, u32)>> =
            cells.iter().map(|_| None).collect();
        // Round 1 visits pending cells in input order; retry rounds
        // re-enqueue transient failures in a seeded order (deferred
        // behind all first attempts — the deterministic analogue of
        // backoff).
        let mut queue: Vec<usize> = (0..cells.len()).filter(|&i| !skip[i]).collect();
        let max_attempts = self.retries.saturating_add(1);
        for attempt in 1..=max_attempts {
            if queue.is_empty() {
                break;
            }
            if attempt > 1 {
                queue.sort_by_key(|&i| {
                    (
                        splitmix64(self.seed ^ (u64::from(attempt) << 32) ^ i as u64),
                        i,
                    )
                });
            }
            let ran = self.fan_out(&queue, &|&i| {
                let (m, cfg) = cells[i];
                run(self, m, cfg, norm, attempt)
            });
            let mut still = Vec::new();
            for (&i, res) in queue.iter().zip(ran) {
                if let Ok(r) = &res {
                    on_ok(i, r, attempt);
                } else if res.as_ref().err().is_some_and(SimError::is_transient)
                    && attempt < max_attempts
                {
                    still.push(i);
                }
                results[i] = Some((res, attempt));
            }
            still.sort_unstable();
            queue = still;
        }
        results
    }

    /// The worker pool under both sweep phases: applies `f` to every
    /// item on up to [`Lab::effective_jobs`] scoped workers pulling
    /// from a shared queue, panic-isolating each call, and returns the
    /// results in input order. With one worker — `jobs = 1`, or at most
    /// one item (a fully warm phase 1 has none) — it runs on the
    /// calling thread and spawns nothing.
    fn fan_out<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: &(impl Fn(&T) -> Result<R, SimError> + Sync),
    ) -> Vec<Result<R, SimError>> {
        let run = |item: &T| catch_cell(|| f(item)).and_then(|r| r);
        let jobs = self.effective_jobs().min(items.len());
        if jobs <= 1 {
            return items.iter().map(run).collect();
        }
        let next = AtomicUsize::new(0);
        let mut merged: Vec<(usize, Result<R, SimError>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else {
                                break;
                            };
                            out.push((i, run(item)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("workers catch panics"))
                .collect()
        });
        merged.sort_by_key(|&(i, _)| i);
        merged.into_iter().map(|(_, r)| r).collect()
    }

    /// True when any resilience feature — journal, watchdog budget,
    /// retries, transient faults — is configured. The figure layer
    /// attaches the [`SweepHealth`] footer only in this case, so
    /// committed goldens produced by a plain lab stay byte-identical.
    pub fn resilience_active(&self) -> bool {
        self.journal_path.is_some()
            || self.cell_cycle_budget.is_some()
            || self.cell_wall_ms.is_some()
            || self.retries > 0
            || !self.transient_faults.is_empty()
    }

    /// The experiment-universe fingerprint the journal is keyed by:
    /// every lab input that can change a cell's bytes (seed, budgets,
    /// warm-up, normalization universe, machine, fault plans, the
    /// resilience knobs themselves, and the driving spec's content
    /// fingerprint) — but *not* the job count, which only changes
    /// scheduling. A journal written under one fingerprint is rejected
    /// under any other (never silently reused).
    pub fn journal_universe(&self) -> String {
        journal::fingerprint_str(&format!(
            "v{} seed={} mt={} st={} warmup={} norm={} machine={:?} global_fault={:?} \
             mix_faults={:?} transient_faults={:?} cell_cycles={:?} cell_wall_ms={:?} \
             retries={} spec={:?}",
            journal::JOURNAL_VERSION,
            self.seed,
            self.mt_budget,
            self.st_budget,
            self.warmup,
            self.norm.fingerprint(),
            self.machine,
            self.global_fault,
            self.mix_faults,
            self.transient_faults,
            self.cell_cycle_budget,
            self.cell_wall_ms,
            self.retries,
            self.spec_fingerprint,
        ))
    }

    /// Opens (or re-opens) the result store under the current universe
    /// fingerprint — the journal at [`Lab::journal_path`], or an empty
    /// in-memory one when no path is armed — returning how many
    /// completed cells it already holds. This is the fallible entry
    /// point: bins and tests call it up front and map [`JournalError`]
    /// to a diagnostic + exit code, so the panic inside
    /// [`Lab::sweep_cells`] is unreachable for them.
    pub fn open_journal(&mut self) -> Result<usize, JournalError> {
        self.journal = None;
        let universe = self.journal_universe();
        let j = match &self.journal_path {
            None => Journal::in_memory(&universe),
            Some(path) => Journal::open(path, &universe)?,
        };
        let n = j.len();
        self.journal = Some(Arc::new(j));
        Ok(n)
    }

    /// Installs an already-open shared [`Journal`] handle instead of
    /// re-opening the file from [`Lab::journal_path`]. The serve
    /// daemon holds one handle per experiment universe and shares it
    /// across concurrent requests, so appends from every worker and
    /// render pass serialize through a single file handle (and later
    /// lookups observe earlier appends). The journal must have been
    /// opened under the lab's *current* universe fingerprint; anything
    /// else is a typed [`JournalError::UniverseMismatch`]. Call after
    /// all `with_*` builder calls — any subsequent state change drops
    /// the handle and the lab would re-open the path itself.
    pub fn adopt_journal(&mut self, journal: Arc<Journal>) -> Result<(), JournalError> {
        let expected = self.journal_universe();
        if journal.universe() != expected {
            return Err(JournalError::UniverseMismatch {
                expected,
                found: journal.universe().to_string(),
            });
        }
        self.journal_path = journal.path().map(Path::to_path_buf);
        self.journal = Some(journal);
        Ok(())
    }

    /// The result store for the *current* universe. Re-opens when none
    /// is open yet, or the open one was created under a different
    /// fingerprint or path (possible via direct `pub` field mutation,
    /// which bypasses `change_state`).
    fn ensure_journal(&mut self) -> Arc<Journal> {
        let current = self.journal.as_ref().is_some_and(|j| {
            j.path() == self.journal_path.as_deref() && j.universe() == self.journal_universe()
        });
        if !current {
            if let Err(e) = self.open_journal() {
                panic!("sweep journal unusable: {e}");
            }
        }
        self.journal
            .clone()
            .expect("open_journal installed a store")
    }

    /// Crash-simulation entry point for resume tests: runs the sweep
    /// serially with the journal armed and abandons it after `k` cells
    /// have been *executed* (journal hits don't count), as if the
    /// process had been killed at that point. Returns the number of
    /// cells executed. Requires an armed journal path.
    pub fn sweep_killed_after(
        &mut self,
        cells: &[SweepCell],
        k: usize,
    ) -> Result<usize, JournalError> {
        if self.journal_path.is_none() {
            return Err(JournalError::Io {
                path: PathBuf::new(),
                detail: "sweep_killed_after requires a journal path".into(),
            });
        }
        self.open_journal()?;
        let journal = self
            .journal
            .clone()
            .expect("open_journal armed the journal");
        let mixes: Vec<usize> = cells.iter().map(|&(m, _)| m).collect();
        let norm = self.norm_table(&mixes);
        let mut executed = 0usize;
        for &(m, cfg) in cells {
            if executed >= k {
                break;
            }
            let key = cell_key(m, &cfg.fingerprint());
            if journal.lookup(&key).is_some() {
                continue;
            }
            let (res, attempts) = self.run_cell_with_retries(m, cfg, &norm);
            if let Ok(run) = &res {
                journal.record(&key, run, attempts)?;
            }
            executed += 1;
        }
        Ok(executed)
    }

    /// One cell through the full attempt loop — the serial form of the
    /// engine's retry rounds. Per-cell results are identical to the
    /// round-based engine's because cells are independent and attempt
    /// progression is deterministic; only inter-cell scheduling
    /// differs, which the input-order merge already erases. Public for
    /// embedding schedulers (the serve daemon's worker pool) that
    /// dispatch cells themselves but must keep the panic-isolation,
    /// watchdog and retry semantics. Returns the result and the number
    /// of attempts consumed. A cancelled lab ([`Lab::cancel`]) stops
    /// retrying immediately — retrying a request the client abandoned
    /// would only burn worker time.
    pub fn run_cell_with_retries(
        &self,
        m: usize,
        cfg: RobConfig,
        norm: &NormTable,
    ) -> (Result<MixRun, SimError>, u32) {
        let max_attempts = self.retries.saturating_add(1);
        let mut attempt = 1;
        loop {
            let res = catch_cell(|| self.run_cell_attempt(m, cfg, norm, attempt)).and_then(|r| r);
            let transient = res.as_ref().err().is_some_and(SimError::is_transient);
            let cancelled = self.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
            if res.is_ok() || !transient || cancelled || attempt >= max_attempts {
                return (res, attempt);
            }
            attempt += 1;
        }
    }

    /// Runs `mix_idx` under `rob` and computes all metrics.
    ///
    /// # Panics
    /// Panics on any [`SimError`]; use [`Lab::try_run_mix`] in sweeps
    /// that must survive a poisoned cell.
    pub fn run_mix(&mut self, mix_idx: usize, rob: RobConfig) -> MixRun {
        match self.try_run_mix(mix_idx, rob) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Lab::run_mix`]. The multithreaded run uses
    /// the fault plan installed via [`Lab::set_fault`] (if any); errors
    /// from either the faulted run or the normalization runs are
    /// returned instead of panicking, so a sweep can record the cell as
    /// failed and continue.
    pub fn try_run_mix(&mut self, mix_idx: usize, rob: RobConfig) -> Result<MixRun, SimError> {
        let norm = self.norm_table(&[mix_idx]);
        self.run_cell(mix_idx, rob, &norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_lab() -> Lab {
        Lab::new(7).with_budgets(8_000, 8_000)
    }

    #[test]
    fn single_ipc_is_memoized_and_positive() {
        let mut lab = small_lab();
        let a = lab.single_ipc(1, 0, RobConfig::Baseline(32));
        let b = lab.single_ipc(1, 0, RobConfig::Baseline(32));
        assert_eq!(a, b);
        assert!(a > 0.0);
    }

    #[test]
    fn run_mix_produces_consistent_metrics() {
        let mut lab = small_lab();
        let r = lab.run_mix(1, RobConfig::Baseline(32));
        assert_eq!(r.config, "Baseline_32");
        assert_eq!(r.ipc.len(), 4);
        assert!(r.ft > 0.0 && r.ft < 1.5, "ft = {}", r.ft);
        for (w, (mt, st)) in r.weighted.iter().zip(r.ipc.iter().zip(&r.single_ipc)) {
            assert!((w - mt / st).abs() < 1e-9);
            // Sharing a core can't speed a thread up beyond small
            // measurement noise.
            assert!(*w < 1.3, "weighted {w}");
        }
        assert!(r.twolevel.is_none());
    }

    #[test]
    fn two_level_run_reports_allocator_stats() {
        let mut lab = small_lab();
        let r = lab.run_mix(1, RobConfig::TwoLevel(TwoLevelConfig::relaxed_r_rob(15)));
        assert_eq!(r.config, "2-Level Relaxed R-ROB15");
        let tl = r.twolevel.expect("two-level stats");
        assert!(tl.allocations > 0, "memory-bound mix must allocate L2");
    }

    #[test]
    fn labels() {
        assert_eq!(RobConfig::Baseline(128).label(), "Baseline_128");
        assert_eq!(
            RobConfig::TwoLevel(TwoLevelConfig::p_rob(5)).label(),
            "2-Level P-ROB5"
        );
    }

    #[test]
    fn try_run_mix_surfaces_deadlock_as_typed_error() {
        let mut lab = small_lab();
        lab.machine.deadlock_cycles = 3_000;
        let mut plan = FaultPlan::new(5);
        plan.drop_fill = 1; // every L2 fill lost: the first miss starves
        lab.set_fault(Some(1), plan);
        let err = lab
            .try_run_mix(1, RobConfig::Baseline(32))
            .expect_err("dropped fills must deadlock");
        match err {
            SimError::Deadlock { snapshot } => {
                assert_eq!(snapshot.deadlock_cycles, 3_000);
                assert!(!snapshot.threads.is_empty());
            }
            other => panic!("expected deadlock, got {other}"),
        }
        // The plan is scoped to mix 1; other mixes stay healthy.
        assert!(lab.try_run_mix(2, RobConfig::Baseline(32)).is_ok());
    }

    #[test]
    fn delay_faults_are_absorbed_and_counted() {
        let mut lab = small_lab();
        let mut plan = FaultPlan::new(9);
        plan.delay_fill = 2;
        plan.delay_cycles = 64;
        lab.set_fault(None, plan);
        let r = lab
            .try_run_mix(1, RobConfig::Baseline(32))
            .expect("slow DRAM is not a failure");
        assert!(r.faults.delayed_fills > 0, "plan never fired");
        lab.clear_faults();
        assert!(lab.fault_for(1).is_none());
    }

    #[test]
    fn cache_invalidated_by_st_budget_change() {
        let mut lab = small_lab();
        let a = lab.single_ipc(1, 0, RobConfig::Baseline(32));
        assert_eq!(lab.cached_norm_runs(), 1);
        // Regression: this used to hit the stale 8k-budget entry and
        // silently serve it for the 2k-budget request.
        lab.st_budget = 2_000;
        let b = lab.single_ipc(1, 0, RobConfig::Baseline(32));
        assert_eq!(lab.cached_norm_runs(), 2, "budget change must miss");
        assert_ne!(a, b, "stale normalization IPC served across budgets");
        // Restoring the budget serves the originally measured value.
        lab.st_budget = 8_000;
        assert_eq!(lab.single_ipc(1, 0, RobConfig::Baseline(32)), a);
        assert_eq!(lab.cached_norm_runs(), 2);
    }

    #[test]
    fn cache_invalidated_by_seed_warmup_and_machine_changes() {
        let mut lab = small_lab();
        let base = lab.single_ipc(1, 1, RobConfig::Baseline(32));
        lab.seed = 8;
        let _ = lab.single_ipc(1, 1, RobConfig::Baseline(32));
        assert_eq!(lab.cached_norm_runs(), 2, "seed change must miss");
        lab.warmup = 4_000;
        let _ = lab.single_ipc(1, 1, RobConfig::Baseline(32));
        assert_eq!(lab.cached_norm_runs(), 3, "warm-up change must miss");
        lab.machine.mem.first_chunk += 400;
        let slow = lab.single_ipc(1, 1, RobConfig::Baseline(32));
        assert_eq!(lab.cached_norm_runs(), 4, "machine change must miss");
        // Slot 1 of Mix 1 is art (memory-bound): much slower DRAM must
        // change its alone-IPC, which the stale cache used to hide.
        assert_ne!(base, slow);
    }

    #[test]
    fn cache_distinguishes_configs_with_equal_labels() {
        let mut lab = small_lab();
        let a_cfg = TwoLevelConfig::r_rob(16);
        let mut b_cfg = a_cfg;
        b_cfg.l2_entries = 32;
        let a = RobConfig::TwoLevel(a_cfg);
        let b = RobConfig::TwoLevel(b_cfg);
        // Same display name, different machine: the old label-based
        // key collapsed these into one cache entry.
        assert_eq!(a.label(), b.label());
        assert_ne!(a.fingerprint(), b.fingerprint());
        let _ = lab.single_ipc(1, 1, a);
        let _ = lab.single_ipc(1, 1, b);
        assert_eq!(
            lab.cached_norm_runs(),
            2,
            "equal labels used to collide into one normalization entry"
        );
    }

    #[test]
    fn sweep_is_identical_serial_parallel_and_to_the_direct_api() {
        let cells: Vec<SweepCell> = vec![
            (1, RobConfig::Baseline(32)),
            (2, RobConfig::Baseline(32)),
            (1, RobConfig::TwoLevel(TwoLevelConfig::r_rob(16))),
            (9, RobConfig::Baseline(128)),
        ];
        let run = |jobs: usize| {
            let mut lab = small_lab();
            lab.jobs = Some(jobs);
            format!("{:?}", lab.sweep(&cells))
        };
        let serial = run(1);
        assert_eq!(serial, run(4), "job count changed sweep results");
        let mut lab = small_lab();
        let direct: Vec<Result<MixRun, SimError>> =
            cells.iter().map(|&(m, c)| lab.try_run_mix(m, c)).collect();
        assert_eq!(serial, format!("{direct:?}"));
    }

    #[test]
    fn sweep_isolates_panicking_cells() {
        let mut lab = small_lab();
        lab.jobs = Some(2);
        // Mix 99 does not exist: instantiating it panics. The sweep
        // must convert that to a typed per-cell error, not die.
        let rs = lab.sweep(&[(1, RobConfig::Baseline(32)), (99, RobConfig::Baseline(32))]);
        assert!(rs[0].is_ok(), "healthy cell poisoned: {:?}", rs[0]);
        match &rs[1] {
            Err(SimError::CellPanic { reason }) => {
                assert!(reason.contains("out of range"), "{reason}");
            }
            other => panic!("expected CellPanic, got {other:?}"),
        }
    }

    #[test]
    fn sweep_traced_isolates_panicking_cells() {
        let mut lab = small_lab();
        lab.jobs = Some(2);
        // Same poisoned-cell shape as the untraced sweep test, through
        // the traced engine: the panic must become a typed per-cell
        // error that downstream renderers show as `n/a`, and the
        // healthy cell's metrics must be exactly the untraced run's.
        let rs = lab.sweep_traced(&[(1, RobConfig::Baseline(32)), (99, RobConfig::Baseline(32))]);
        let traced = rs[0].as_ref().expect("healthy cell poisoned");
        assert!(!traced.events.is_empty(), "tracing was armed");
        assert_eq!(
            traced.episodes,
            smtsim_obs::EpisodeReconstructor::from_events(&traced.events),
            "episodes are the standard reduction of the cell's own stream"
        );
        match &rs[1] {
            Err(e @ SimError::CellPanic { reason }) => {
                assert!(reason.contains("out of range"), "{reason}");
                // The stable kind string the trace bin interpolates
                // into its `n/a (...)` row for a failed cell.
                assert_eq!(e.kind(), "panic");
            }
            other => panic!("expected CellPanic, got {other:?}"),
        }
        let untraced = lab.sweep(&[(1, RobConfig::Baseline(32))]);
        assert_eq!(
            format!("{:?}", traced.run),
            format!("{:?}", untraced[0].as_ref().expect("healthy cell")),
            "tracing perturbed the measured run"
        );
    }

    #[test]
    fn sweep_traced_is_identical_serial_and_parallel() {
        let cells: Vec<SweepCell> = vec![
            (1, RobConfig::Baseline(32)),
            (99, RobConfig::Baseline(32)),
            (2, RobConfig::TwoLevel(TwoLevelConfig::r_rob(16))),
        ];
        let run = |jobs: usize| {
            let mut lab = small_lab();
            lab.jobs = Some(jobs);
            format!("{:?}", lab.sweep_traced(&cells))
        };
        assert_eq!(run(1), run(4), "job count changed traced sweep results");
    }

    #[test]
    fn norm_table_covers_requested_mixes_and_reports_missing() {
        let mut lab = small_lab();
        let t = lab.norm_table(&[2, 1, 1]);
        assert_eq!(t.len(), 8, "4 slots per mix, duplicates collapsed");
        assert!(!t.is_empty());
        assert!(t.get(1, 3).is_ok());
        let missing = t.get(5, 0).expect_err("mix 5 was not requested");
        assert_eq!(missing.kind(), "invalid-config");
    }

    /// A lab with budgets small enough to run every solo run of Table 2
    /// in a unit test.
    fn tiny_lab() -> Lab {
        Lab::new(7).with_budgets(2_000, 2_000).with_warmup(2_000)
    }

    #[test]
    fn cache_shares_solo_runs_across_mixes() {
        // Sharing one memo entry per (benchmark, slot) is sound only if
        // every mix with that benchmark in that slot measures the very
        // same solo IPC: check each such group on fresh labs.
        let mut shared = 0;
        for slot in 0..4 {
            let mut by_bench: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
            for m in 1..=11 {
                by_bench.entry(mix(m).benchmarks[slot]).or_default().push(m);
            }
            for (bench, mixes) in by_bench.into_iter().filter(|(_, ms)| ms.len() > 1) {
                let bits: Vec<u64> = mixes
                    .iter()
                    .map(|&m| {
                        tiny_lab()
                            .single_ipc(m, slot, RobConfig::Baseline(32))
                            .to_bits()
                    })
                    .collect();
                assert!(
                    bits.iter().all(|&b| b == bits[0]),
                    "{bench} in slot {slot} measured differently across mixes {mixes:?}"
                );
                shared += 1;
            }
        }
        assert!(shared > 0, "Table 2 reuses benchmarks in the same slot");
        for (mixes, distinct) in [
            ((1..=11).collect::<Vec<_>>(), 29),
            (vec![1, 2, 3, 4], 9),
            (vec![10, 11], 8),
        ] {
            let mut lab = tiny_lab();
            let t = lab.norm_table(&mixes);
            assert_eq!(t.len(), 4 * mixes.len());
            assert_eq!(lab.cached_norm_runs(), distinct, "mixes {mixes:?}");
        }
    }

    #[test]
    fn norm_table_is_identical_at_any_job_count() {
        let all: Vec<usize> = (1..=11).collect();
        let run = |jobs: usize| {
            let mut lab = tiny_lab().with_jobs(Some(jobs));
            let table = format!("{:?}", lab.norm_table(&all));
            let runs = lab.cached_norm_runs();
            // The warm call runs nothing and adds no memo entries.
            assert_eq!(format!("{:?}", lab.norm_table(&all)), table);
            assert_eq!(lab.cached_norm_runs(), runs, "warm call grew the memo");
            (table, runs)
        };
        let serial = run(1);
        assert_eq!(serial, run(2), "jobs = 2 changed the table");
        assert_eq!(serial, run(4), "jobs = 4 changed the table");
    }

    #[test]
    fn norm_table_skips_out_of_range_mixes_without_unwinding() {
        let mut lab = tiny_lab().with_jobs(Some(2));
        // Mix 12 does not exist: looking it up to build its memo key
        // panics, which must skip the mix, not unwind out of phase 1.
        let t = lab.norm_table(&[1, 12]);
        assert_eq!(t.len(), 4, "Mix 1's four slots only");
        for slot in 0..4 {
            assert!(t.get(1, slot).is_ok(), "slot {slot}: {:?}", t.get(1, slot));
        }
        assert_eq!(t.get(12, 0).expect_err("skipped").kind(), "invalid-config");
    }

    #[test]
    fn deterministic_runs() {
        let ft = || {
            let mut lab = small_lab();
            lab.run_mix(2, RobConfig::Baseline(32)).ft
        };
        assert_eq!(ft(), ft());
    }

    #[test]
    fn sweep_health_is_a_pure_fold_over_outcomes() {
        let ok = |attempts, from_journal| CellOutcome {
            result: Ok(MixRun {
                mix: "m".into(),
                config: "c".into(),
                ipc: vec![],
                single_ipc: vec![],
                weighted: vec![],
                ft: 0.0,
                throughput: 0.0,
                stats: SimStats::new(0),
                twolevel: None,
                faults: FaultStats::default(),
            }),
            attempts,
            from_journal,
        };
        let timeout = CellOutcome {
            result: Err(SimError::CellTimeout {
                cycle: 9,
                detail: "x".into(),
            }),
            attempts: 3,
            from_journal: false,
        };
        let failed = CellOutcome {
            result: Err(SimError::InvalidConfig {
                reason: "bad".into(),
            }),
            attempts: 1,
            from_journal: false,
        };
        let outcomes = [ok(1, false), ok(2, true), timeout, failed];
        let h = SweepHealth::from_outcomes(&outcomes);
        assert_eq!(
            h,
            SweepHealth {
                ok: 2,
                retried: 1,
                timed_out: 1,
                failed: 1,
                extra_attempts: 3,
            }
        );
        assert_eq!(h.total(), 4);
        assert!(!h.all_ok());
        assert_eq!(
            h.summary_line(),
            "sweep health: 2 ok (1 retried), 1 timed out, 1 failed"
        );
        let mut reg = MetricsRegistry::new();
        h.record_metrics(&mut reg);
        assert_eq!(reg.counter("sweep.cells_ok"), 2);
        assert_eq!(reg.counter("sweep.cells_retried"), 1);
        assert_eq!(reg.counter("sweep.cells_timed_out"), 1);
        assert_eq!(reg.counter("sweep.cells_failed"), 1);
        assert_eq!(reg.counter("sweep.retry_attempts"), 3);
    }

    #[test]
    fn transient_fault_is_recovered_by_retry_and_reported() {
        let cells = [
            (1usize, RobConfig::Baseline(32)),
            (2usize, RobConfig::Baseline(32)),
        ];
        // Reference: the same lab with no fault and no retries.
        let clean = small_lab().sweep(&cells);
        // Fault plan that deadlocks mix 1 — but only on attempt 1.
        let mut lab = small_lab().with_retries(2);
        lab.machine.deadlock_cycles = 3_000;
        let mut plan = FaultPlan::new(5);
        plan.drop_fill = 1;
        lab.set_transient_fault(1, plan, 1);
        let mut clean_faulty_machine = small_lab();
        clean_faulty_machine.machine.deadlock_cycles = 3_000;
        let clean = {
            // Deadlock-cycle setting changes the machine, so rebuild
            // the reference under the identical machine config.
            let _ = clean;
            clean_faulty_machine.sweep(&cells)
        };
        let report = lab.sweep_cells(&cells);
        assert_eq!(
            report.health,
            SweepHealth {
                ok: 2,
                retried: 1,
                timed_out: 0,
                failed: 0,
                extra_attempts: 1,
            }
        );
        assert_eq!(report.outcomes[0].attempts, 2, "mix 1 needed a retry");
        assert_eq!(report.outcomes[1].attempts, 1);
        // The recovered cell is byte-identical to a never-faulted run.
        let healed = report.results();
        for (a, b) in healed.iter().zip(&clean) {
            assert_eq!(
                format!("{:?}", a.as_ref().unwrap()),
                format!("{:?}", b.as_ref().unwrap())
            );
        }
    }

    #[test]
    fn persistent_transient_fault_exhausts_retries() {
        // A "transient" plan active through every attempt never heals:
        // retries are spent, the final result is the typed error.
        let mut lab = small_lab().with_retries(1);
        lab.machine.deadlock_cycles = 3_000;
        let mut plan = FaultPlan::new(5);
        plan.drop_fill = 1;
        lab.set_transient_fault(1, plan, u32::MAX);
        let report = lab.sweep_cells(&[(1, RobConfig::Baseline(32))]);
        assert_eq!(report.outcomes[0].attempts, 2, "both attempts spent");
        assert!(matches!(
            report.outcomes[0].result,
            Err(SimError::Deadlock { .. })
        ));
        assert_eq!(report.health.failed, 1);
        assert_eq!(report.health.extra_attempts, 1);
    }

    #[test]
    fn cycle_budget_renders_cells_as_timeouts_without_poisoning_others() {
        let mut lab = small_lab().with_cell_cycle_budget(Some(500));
        assert!(lab.resilience_active());
        let report = lab.sweep_cells(&[(1, RobConfig::Baseline(32)), (2, RobConfig::Baseline(32))]);
        // 8k committed instructions cannot fit in 500 cycles: every
        // cell times out, deterministically at cycle 500.
        assert_eq!(report.health.timed_out, 2);
        for o in &report.outcomes {
            match &o.result {
                Err(SimError::CellTimeout { cycle, .. }) => assert_eq!(*cycle, 500),
                other => panic!("expected timeout, got {other:?}"),
            }
        }
        // Timeouts are transient: with retries they are re-attempted
        // (and still time out — the budget is part of the universe).
        let mut lab = small_lab()
            .with_cell_cycle_budget(Some(500))
            .with_retries(1);
        let report = lab.sweep_cells(&[(1, RobConfig::Baseline(32))]);
        assert_eq!(report.outcomes[0].attempts, 2);
        assert_eq!(report.health.timed_out, 1);
    }

    #[test]
    fn resilient_sweep_with_idle_knobs_matches_plain_sweep() {
        let cells: Vec<SweepCell> = vec![
            (1, RobConfig::Baseline(32)),
            (1, RobConfig::TwoLevel(TwoLevelConfig::r_rob(16))),
            (2, RobConfig::Baseline(32)),
        ];
        let plain = small_lab().sweep(&cells);
        // Generous budgets and armed retries that never fire must not
        // change a single byte of the results.
        let mut lab = small_lab()
            .with_cell_cycle_budget(Some(u64::MAX))
            .with_cell_wall_ms(Some(3_600_000))
            .with_retries(3);
        let resilient = lab.sweep_cells(&cells);
        assert_eq!(resilient.health.ok, 3);
        assert_eq!(resilient.health.retried, 0);
        assert_eq!(resilient.journal_hits(), 0);
        assert_eq!(format!("{:?}", resilient.results()), format!("{plain:?}"));
    }

    #[test]
    fn journal_skips_completed_cells_and_survives_universe_changes() {
        let dir = std::env::temp_dir().join(format!("smtsim-journal-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl");
        let _ = std::fs::remove_file(&path);
        let cells = [
            (1usize, RobConfig::Baseline(32)),
            (2usize, RobConfig::Baseline(32)),
        ];
        let plain = small_lab().sweep(&cells);
        let mut lab = small_lab().with_journal(&path);
        assert_eq!(lab.open_journal().unwrap(), 0, "fresh journal is empty");
        let first = lab.sweep_cells(&cells);
        assert_eq!(first.journal_hits(), 0);
        // Second sweep over the same universe: both cells come from
        // the journal, and the bytes are identical to a plain sweep.
        let second = lab.sweep_cells(&cells);
        assert_eq!(second.journal_hits(), 2);
        assert_eq!(second.health, first.health);
        assert_eq!(format!("{:?}", second.results()), format!("{plain:?}"));
        // A state change moves the lab to a new universe: the stale
        // journal must be rejected, not silently reused.
        let mut moved = small_lab().with_budgets(4_000, 4_000).with_journal(&path);
        match moved.open_journal() {
            Err(JournalError::UniverseMismatch { expected, found }) => {
                assert_ne!(expected, found);
            }
            other => panic!("stale journal accepted: {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A plain lab (no journal path armed) cheap enough to sweep the
    /// same cells several times in one test.
    fn store_lab() -> Lab {
        Lab::new(7).with_budgets(4_000, 4_000).with_warmup(4_000)
    }

    /// One FT figure's cells: every scheme over every mix, scheme-major
    /// (the order `figures::ft_sweep` dispatches them in).
    fn figure_cells(schemes: &[RobConfig], mixes: &[usize]) -> Vec<SweepCell> {
        schemes
            .iter()
            .flat_map(|&cfg| mixes.iter().map(move |&m| (m, cfg)))
            .collect()
    }

    #[test]
    fn result_store_serves_cells_repeated_across_figures() {
        let mixes = [1, 10];
        let fig2 = figure_cells(
            &[
                RobConfig::Baseline(32),
                RobConfig::Baseline(128),
                RobConfig::TwoLevel(TwoLevelConfig::r_rob(16)),
            ],
            &mixes,
        );
        let fig4 = figure_cells(
            &[
                RobConfig::Baseline(32),
                RobConfig::Baseline(128),
                RobConfig::TwoLevel(TwoLevelConfig::relaxed_r_rob(15)),
            ],
            &mixes,
        );
        let mut lab = store_lab();
        assert_eq!(lab.sweep_cells(&fig2).journal_hits(), 0);
        let second = lab.sweep_cells(&fig4);
        assert_eq!(second.journal_hits(), 4, "both baselines x 2 mixes");
        let hits: Vec<bool> = second.outcomes.iter().map(|o| o.from_journal).collect();
        assert_eq!(hits, [true, true, true, true, false, false]);
        let fresh = store_lab().sweep_cells(&fig4);
        assert_eq!(fresh.journal_hits(), 0);
        assert_eq!(second.health, fresh.health);
        assert_eq!(
            format!("{:?}", second.results()),
            format!("{:?}", fresh.results())
        );
    }

    #[test]
    fn result_store_misses_after_a_universe_change() {
        let cells = [
            (1usize, RobConfig::Baseline(32)),
            (2usize, RobConfig::TwoLevel(TwoLevelConfig::r_rob(16))),
        ];
        // Direct `pub` field mutation bypasses the state-change funnel;
        // the store must still notice the new universe.
        let mut lab = store_lab();
        lab.sweep_cells(&cells);
        lab.mt_budget = 3_000;
        let moved = lab.sweep_cells(&cells);
        assert_eq!(
            moved.journal_hits(),
            0,
            "stale cell served after mt_budget changed"
        );
        let mut fresh = store_lab();
        fresh.mt_budget = 3_000;
        assert_eq!(
            format!("{:?}", moved.results()),
            format!("{:?}", fresh.sweep(&cells))
        );
        // The store now holds the new universe's cells.
        assert_eq!(lab.sweep_cells(&cells).journal_hits(), cells.len());

        let mut plan = FaultPlan::new(3);
        plan.delay_fill = 2;
        plan.delay_cycles = 150;
        let mut lab = store_lab();
        lab.sweep_cells(&cells);
        lab.set_fault(None, plan.clone());
        let faulted = lab.sweep_cells(&cells);
        assert_eq!(
            faulted.journal_hits(),
            0,
            "stale cell served after set_fault"
        );
        let mut fresh = store_lab();
        fresh.set_fault(None, plan);
        assert_eq!(
            format!("{:?}", faulted.results()),
            format!("{:?}", fresh.sweep(&cells))
        );
    }

    #[test]
    fn result_store_never_stores_failed_cells() {
        // Mix 99 does not exist: the cell panics on every run.
        let cells = [(1, RobConfig::Baseline(32)), (99, RobConfig::Baseline(32))];
        let mut lab = store_lab();
        let first = lab.sweep_cells(&cells);
        let second = lab.sweep_cells(&cells);
        assert!(second.outcomes[0].from_journal, "healthy cell not stored");
        assert!(!second.outcomes[1].from_journal, "failed cell stored");
        assert!(matches!(
            second.outcomes[1].result,
            Err(SimError::CellPanic { .. })
        ));
        assert_eq!(
            format!("{:?}", second.outcomes[1].result),
            format!("{:?}", first.outcomes[1].result)
        );

        let cells = [(1, RobConfig::Baseline(32))];
        let mut lab = store_lab().with_cell_cycle_budget(Some(500));
        let first = lab.sweep_cells(&cells);
        let second = lab.sweep_cells(&cells);
        assert_eq!(second.journal_hits(), 0, "timed-out cell stored");
        assert!(matches!(
            second.outcomes[0].result,
            Err(SimError::CellTimeout { cycle: 500, .. })
        ));
        assert_eq!(
            format!("{:?}", second.outcomes[0].result),
            format!("{:?}", first.outcomes[0].result)
        );
    }

    #[test]
    fn result_store_leaves_traced_sweeps_traced() {
        let cells = [(1, RobConfig::Baseline(32))];
        let mut lab = store_lab();
        let plain = lab.sweep(&cells);
        let traced = lab.sweep_traced(&cells);
        let traced = traced[0].as_ref().expect("healthy cell");
        assert!(
            !traced.events.is_empty(),
            "traced sweep served from the store"
        );
        assert_eq!(
            format!("{:?}", traced.run),
            format!("{:?}", plain[0].as_ref().expect("healthy cell"))
        );
    }
}
