//! Shared harness glue for the figure-regeneration binaries and
//! benches.
//!
//! Every table and figure of the paper's evaluation has a binary here
//! (`cargo run --release -p smtsim-bench --bin fig2`) that prints the
//! same rows/series the paper reports, and a bench target exercising
//! the same code path at a reduced budget. Each binary is a thin
//! wrapper over [`run_spec`] and its committed `experiments/<bin>.toml`
//! declarative spec (DESIGN.md §16); the generic `spec` bin runs any
//! spec named by `SMTSIM_SPEC`.
//!
//! All environment knobs are parsed in one place — [`BenchEnv`] — and
//! no other module in the workspace reads `std::env::var` (enforced by
//! `cargo xtask lint`). The table below is the authoritative knob
//! list; EXPERIMENTS.md §"Environment knobs" mirrors it.
//!
//! * `BUDGET` — committed instructions per multithreaded run (default
//!   40 000; the paper uses 100 M SimPoints, see EXPERIMENTS.md for
//!   scaling notes).
//! * `ST_BUDGET` — committed instructions per *single-threaded*
//!   normalization run (default: `BUDGET`). The two budgets are
//!   distinct knobs: the multithreaded budget caps the contended run
//!   while the single-threaded budget controls how long the healthy
//!   reference each weighted IPC divides by is measured for.
//! * `WARMUP` — functional warm-up instructions (default 60 000).
//! * `SEED` — workload generation seed (default 42).
//! * `MIXES` — comma-separated mix indices (default all 11).
//! * `SMTSIM_JOBS` — worker threads for both sweep phases, the
//!   normalization runs and the cells (default `0` = the machine's available parallelism; `1` forces
//!   the serial path). Figure output is byte-identical at any value.
//! * `BENCH_ITERS` — timed iterations per bench target (default 5;
//!   consumed by `cargo bench -p smtsim-bench`).
//! * `SMTSIM_NO_SKIP` — any nonzero value disables event-driven cycle
//!   skipping in every simulator the harness builds (default 0 =
//!   skipping on). Validation-only: skipping is timing-transparent, so
//!   output is byte-identical either way — `cargo xtask determinism`
//!   proves it by re-running a figure with the knob set and comparing
//!   bytes. It does not participate in the journal universe
//!   fingerprint.
//! * `SMTSIM_SPEC` — path of the experiment spec the generic `spec`
//!   bin runs (e.g. `SMTSIM_SPEC=experiments/fig2.toml`); the
//!   dedicated bins ignore it, each being hard-bound to its committed
//!   spec. Env knobs compose with spec `[knobs]`/`mixes` values key by
//!   key as explicit env > spec > built-in default (DESIGN.md §16).
//!
//! Serve knobs (consumed by the `serve` daemon, DESIGN.md §17):
//!
//! * `SMTSIM_SERVE_SOCKET` — Unix socket the daemon listens on
//!   (default: `smtsim-serve.sock` under the system temp dir).
//! * `SMTSIM_SERVE_CACHE` — persistent content-addressed result-cache
//!   directory (default: `smtsim-serve-cache` under the CWD). A
//!   restarted daemon pointed at the same directory comes back warm.
//! * `SMTSIM_SERVE_QUEUE` — admission bound: maximum concurrently
//!   admitted requests (≥ 1, default 8); the next submission is
//!   answered with a typed retryable `queue-full` rejection.
//!
//! Resilience knobs (DESIGN.md §13 "Crash-tolerance model"):
//!
//! * `SMTSIM_JOURNAL` — resumable sweep-journal path. Completed cells
//!   are appended durably as they finish; relaunching the same command
//!   with the same path skips them and produces byte-identical output.
//!   A journal recorded under different knobs (seed, budgets, machine,
//!   faults…) is rejected with exit status 2, never silently reused.
//! * `SMTSIM_CELL_TIMEOUT` — wall-clock watchdog per sweep cell, in
//!   milliseconds (default 0 = unlimited). A cell over budget becomes
//!   a typed timeout rendered `n/a`; the sweep continues. Wall-clock
//!   firing is machine-dependent — prefer `SMTSIM_CELL_CYCLES` where
//!   determinism matters.
//! * `SMTSIM_CELL_CYCLES` — simulated-cycle watchdog per sweep cell
//!   (default 0 = unlimited). Deterministic: fires at the exact cycle
//!   on every machine and job count.
//! * `SMTSIM_CELL_RETRIES` — retries per transiently-failed cell
//!   (default 0). Retries run after all first attempts, in an order
//!   derived from `SEED` — deterministic backoff, not wall-clock.
//!
//! Conformance knobs (consumed by the `conform` bin, DESIGN.md §12):
//!
//! * `FUZZ_CASES` — fresh machine-generated fuzz cases per `conform`
//!   run (default 4).
//! * `FUZZ_SEED` — base seed the fresh cases derive from (default
//!   2026). Generated programs and verdicts are a pure function of
//!   this seed, independent of `SMTSIM_JOBS`.
//!
//! Model-checking knobs (consumed by the `check` bin, DESIGN.md §14):
//!
//! * `CHECK_THREADS` — thread bound for the bounded exploration
//!   (1..=4, default 3). The outstanding-miss bound follows: 3 misses
//!   per thread up to 3 threads, 2 at 4 threads (the 4-thread ×
//!   3-miss product is exhaustive too but takes ~30 s in release —
//!   run it explicitly, not in CI).
//! * `CHECK_L2` — shared L2-partition entry bound (1..=4, default 2).
//!
//! Integrity knobs (see DESIGN.md "Failure model & fault injection"):
//!
//! * `DEADLOCK_CYCLES` — watchdog threshold: cycles without a commit
//!   before the run fails with a deadlock snapshot (default 1 000 000).
//! * `INVARIANT_INTERVAL` — deep invariant-scan cadence in cycles;
//!   `0` (the default) leaves only the cheap per-cycle checks on.
//!
//! Fault-injection knobs (all default off; 1-in-N denominators — `0`
//! disables, `1` fires every opportunity):
//!
//! * `FAULT_SEED` — decision seed for all fault categories (default 0).
//! * `FAULT_DROP_FILL` — 1-in-N L2 fills never delivered (deadlock).
//! * `FAULT_DELAY_FILL` / `FAULT_DELAY_CYCLES` — 1-in-N fills delayed
//!   by the given number of cycles (absorbed, not an error).
//! * `FAULT_CORRUPT_DOD` — 1-in-N fill notifications with a garbled
//!   DoD count (predictor noise).
//! * `FAULT_WITHHOLD_RELEASE` — 1-in-N allocator fill notifications
//!   suppressed (exercises two-level release fallback).

pub mod env;
pub mod serve_support;
pub mod spec_run;

pub use env::{try_env_u64, BenchEnv};
pub use spec_run::{run_named_spec, run_spec, spec_dir};

use smtsim_pipeline::{FaultPlan, SimError};
use smtsim_rob2::{JournalError, Lab};

/// A harness binary failure, classified by the workspace-wide exit
/// policy: **invalid configuration exits 2** (malformed knobs, a
/// journal recorded under a different experiment universe), **runtime
/// failures exit 1** (I/O, journal corruption, simulation divergence).
/// Every binary funnels through [`run_bin`], so the exit codes are
/// uniform across all of them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BinError {
    /// The invocation itself is wrong; exits with status 2.
    Config(String),
    /// The run failed; exits with status 1.
    Runtime(String),
}

impl BinError {
    /// The process exit status for this failure class.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            BinError::Config(_) => 2,
            BinError::Runtime(_) => 1,
        }
    }
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Config(m) | BinError::Runtime(m) => write!(f, "{m}"),
        }
    }
}

impl From<SimError> for BinError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::InvalidConfig { .. } => BinError::Config(e.to_string()),
            other => BinError::Runtime(other.to_string()),
        }
    }
}

impl From<JournalError> for BinError {
    fn from(e: JournalError) -> Self {
        match e {
            // Pointing a run at a journal recorded under different
            // knobs is a configuration mistake, like a malformed knob.
            JournalError::UniverseMismatch { .. } => BinError::Config(e.to_string()),
            other => BinError::Runtime(other.to_string()),
        }
    }
}

impl From<std::io::Error> for BinError {
    fn from(e: std::io::Error) -> Self {
        BinError::Runtime(e.to_string())
    }
}

/// Prints a [`BinError`] and exits with its status code.
pub fn exit_bin(e: &BinError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(e.exit_code());
}

/// The uniform `main` wrapper for every harness binary: runs `f`,
/// exits 0 on success, and maps failures through the [`BinError`]
/// exit-code policy (configuration → 2, runtime → 1).
pub fn run_bin(f: impl FnOnce() -> Result<(), BinError>) -> ! {
    match f() {
        Ok(()) => std::process::exit(0),
        Err(e) => exit_bin(&e),
    }
}

/// Builds the lab `env` describes and pre-validates its resilience
/// configuration: an armed `SMTSIM_JOURNAL` is opened *here*, so a
/// stale or damaged journal surfaces as a typed [`BinError`] (exit 2
/// or 1) instead of a mid-sweep panic. Logs a resume note when the
/// journal already holds completed cells.
pub fn prepared_lab(env: &BenchEnv) -> Result<Lab, BinError> {
    let mut lab = env.lab();
    let resumed = lab.open_journal()?;
    if resumed > 0 {
        eprintln!("journal: resuming — {resumed} completed cell(s) on file");
    }
    Ok(lab)
}

/// Reads the environment knobs from the module header and builds the
/// experiment driver. Thin wrapper over [`BenchEnv::from_env`] +
/// [`BenchEnv::lab`].
pub fn try_lab_from_env() -> Result<Lab, SimError> {
    BenchEnv::from_env().map(|e| e.lab())
}

/// Infallible form of [`try_lab_from_env`] for the figure binaries:
/// exits with status 2 on a malformed knob.
pub fn lab_from_env() -> Lab {
    BenchEnv::read().lab()
}

/// Builds a [`FaultPlan`] from the `FAULT_*` environment knobs, or
/// `None` when every category is off. Thin wrapper over
/// [`BenchEnv::from_env`].
pub fn try_fault_plan_from_env() -> Result<Option<FaultPlan>, SimError> {
    BenchEnv::from_env().map(|e| e.fault)
}

/// Infallible form of [`try_fault_plan_from_env`]: exits with status 2
/// on a malformed knob.
pub fn fault_plan_from_env() -> Option<FaultPlan> {
    BenchEnv::read().fault
}

/// Reads `MIXES` from the environment (default: all 11 paper mixes).
/// Thin wrapper over [`BenchEnv::from_env`].
pub fn try_mixes_from_env() -> Result<Vec<usize>, SimError> {
    BenchEnv::from_env().map(|e| e.mixes)
}

/// Infallible form of [`try_mixes_from_env`] for the figure binaries:
/// exits with status 2 on a malformed entry.
pub fn mixes_from_env() -> Vec<usize> {
    BenchEnv::read().mixes
}

/// A small lab for Criterion benches: low budget, reduced warm-up.
pub fn bench_lab(seed: u64) -> Lab {
    Lab::new(seed)
        .with_budgets(4_000, 4_000)
        .with_warmup(10_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests below mutate process-global environment variables; they
    /// serialize on this lock so the parallel test harness can't
    /// observe each other's knobs.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn defaults_are_sane() {
        let _g = ENV_LOCK.lock().unwrap();
        let env = BenchEnv::from_env().expect("clean environment parses");
        assert!(env.budget > 0);
        // Without ST_BUDGET the normalization budget follows BUDGET.
        assert_eq!(env.st_budget, env.budget);
        assert_eq!(env.bench_iters, 5);
        assert!(env.fault.is_none());
        let lab = env.lab();
        assert_eq!(lab.mt_budget, env.budget);
        assert_eq!(lab.st_budget, env.st_budget);
        assert_eq!(lab.warmup, env.warmup);
        // No FAULT_* knobs set: no plan installed anywhere.
        assert!((1..=11).all(|m| lab.fault_for(m).is_none()));
        assert!(!env.mixes.is_empty() && env.mixes.iter().all(|&m| (1..=11).contains(&m)));
    }

    #[test]
    fn smtsim_jobs_knob_pins_the_worker_count() {
        let _g = ENV_LOCK.lock().unwrap();
        std::env::set_var("SMTSIM_JOBS", "4");
        let lab = lab_from_env();
        assert_eq!(lab.jobs, Some(4));
        assert_eq!(lab.effective_jobs(), 4);
        std::env::set_var("SMTSIM_JOBS", "0");
        assert_eq!(lab_from_env().jobs, None, "0 means auto");
        std::env::set_var("SMTSIM_JOBS", "four");
        let Err(err) = try_lab_from_env() else {
            panic!("SMTSIM_JOBS=four must be rejected")
        };
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("SMTSIM_JOBS=four"), "{err}");
        std::env::remove_var("SMTSIM_JOBS");
    }

    #[test]
    fn fault_plan_from_env_is_none_by_default() {
        let _g = ENV_LOCK.lock().unwrap();
        assert_eq!(fault_plan_from_env(), None);
    }

    #[test]
    fn malformed_env_integer_is_a_typed_config_error() {
        let _g = ENV_LOCK.lock().unwrap();
        std::env::set_var("SMTSIM_TEST_KNOB", "40k");
        let err = try_env_u64("SMTSIM_TEST_KNOB", 1).expect_err("'40k' must not parse");
        std::env::remove_var("SMTSIM_TEST_KNOB");
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("SMTSIM_TEST_KNOB=40k"), "{err}");
        // Missing and well-formed values still succeed.
        assert_eq!(try_env_u64("SMTSIM_TEST_KNOB", 7).unwrap(), 7);
        std::env::set_var("SMTSIM_TEST_KNOB", " 12 ");
        assert_eq!(try_env_u64("SMTSIM_TEST_KNOB", 7).unwrap(), 12);
        std::env::remove_var("SMTSIM_TEST_KNOB");
    }

    #[test]
    fn malformed_budget_fails_lab_construction() {
        let _g = ENV_LOCK.lock().unwrap();
        std::env::set_var("ST_BUDGET", "lots");
        let Err(err) = try_lab_from_env() else {
            panic!("ST_BUDGET=lots must be rejected")
        };
        std::env::remove_var("ST_BUDGET");
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("ST_BUDGET=lots"), "{err}");
    }

    #[test]
    fn malformed_and_out_of_range_mixes_are_typed_config_errors() {
        let _g = ENV_LOCK.lock().unwrap();
        std::env::set_var("MIXES", "1,two,3");
        let err = try_mixes_from_env().expect_err("'two' must not parse");
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("'two'"), "{err}");
        std::env::set_var("MIXES", "1,12");
        let err = try_mixes_from_env().expect_err("12 is out of range");
        assert!(err.to_string().contains("out of range"), "{err}");
        std::env::set_var("MIXES", "2, 9");
        assert_eq!(try_mixes_from_env().unwrap(), vec![2, 9]);
        std::env::remove_var("MIXES");
    }

    #[test]
    fn bench_iters_knob_is_parsed_and_bounded() {
        let _g = ENV_LOCK.lock().unwrap();
        std::env::set_var("BENCH_ITERS", "9");
        assert_eq!(BenchEnv::from_env().unwrap().bench_iters, 9);
        std::env::set_var("BENCH_ITERS", "9999999999999");
        let err = BenchEnv::from_env().expect_err("must not overflow u32");
        assert_eq!(err.kind(), "invalid-config");
        std::env::remove_var("BENCH_ITERS");
    }

    #[test]
    fn bench_lab_is_small() {
        let lab = bench_lab(1);
        assert!(lab.mt_budget <= 10_000);
    }

    #[test]
    fn resilience_knobs_arm_the_lab() {
        let _g = ENV_LOCK.lock().unwrap();
        // Defaults: everything off, no footer machinery armed.
        let lab = lab_from_env();
        assert!(!lab.resilience_active());
        std::env::set_var("SMTSIM_JOURNAL", "/tmp/j.jsonl");
        std::env::set_var("SMTSIM_CELL_TIMEOUT", "1500");
        std::env::set_var("SMTSIM_CELL_CYCLES", "200000");
        std::env::set_var("SMTSIM_CELL_RETRIES", "2");
        let env = BenchEnv::from_env().unwrap();
        let lab = env.lab();
        assert_eq!(
            lab.journal_path.as_deref(),
            Some(std::path::Path::new("/tmp/j.jsonl"))
        );
        assert_eq!(lab.cell_wall_ms, Some(1_500));
        assert_eq!(lab.cell_cycle_budget, Some(200_000));
        assert_eq!(lab.retries, 2);
        assert!(lab.resilience_active());
        // 0 means "unlimited", and an empty journal path means "off".
        std::env::set_var("SMTSIM_JOURNAL", "  ");
        std::env::set_var("SMTSIM_CELL_TIMEOUT", "0");
        std::env::set_var("SMTSIM_CELL_CYCLES", "0");
        std::env::set_var("SMTSIM_CELL_RETRIES", "0");
        let lab = lab_from_env();
        assert!(!lab.resilience_active());
        std::env::set_var("SMTSIM_CELL_RETRIES", "two");
        let err = BenchEnv::from_env().expect_err("'two' must not parse");
        assert_eq!(err.kind(), "invalid-config");
        for k in [
            "SMTSIM_JOURNAL",
            "SMTSIM_CELL_TIMEOUT",
            "SMTSIM_CELL_CYCLES",
            "SMTSIM_CELL_RETRIES",
        ] {
            std::env::remove_var(k);
        }
    }

    #[test]
    fn bin_error_exit_codes_follow_the_policy() {
        use smtsim_pipeline::SimError;
        use smtsim_rob2::JournalError;
        let config: BinError = SimError::InvalidConfig { reason: "x".into() }.into();
        assert_eq!(config.exit_code(), 2);
        let runtime: BinError = SimError::CellTimeout {
            cycle: 1,
            detail: "x".into(),
        }
        .into();
        assert_eq!(runtime.exit_code(), 1);
        let stale: BinError = JournalError::UniverseMismatch {
            expected: "a".into(),
            found: "b".into(),
        }
        .into();
        assert_eq!(stale.exit_code(), 2, "stale journal is a config error");
        let corrupt: BinError = JournalError::Corrupt {
            line: 3,
            detail: "x".into(),
        }
        .into();
        assert_eq!(corrupt.exit_code(), 1);
        let io: BinError = std::io::Error::other("disk").into();
        assert_eq!(io.exit_code(), 1);
    }

    #[test]
    fn committed_specs_round_trip_through_the_canonical_rendering() {
        use smtsim_rob2::ExperimentSpec;
        let dir = spec_dir();
        let mut stems: Vec<String> = std::fs::read_dir(&dir)
            .expect("experiments/ is committed")
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        stems.sort();
        assert!(
            stems.len() >= 19,
            "all 18 bins plus l2_partition_sweep have committed specs, got {stems:?}"
        );
        for stem in &stems {
            let path = dir.join(format!("{stem}.toml"));
            let spec = ExperimentSpec::load(&path)
                .unwrap_or_else(|e| panic!("{stem}.toml must parse: {e}"));
            assert_eq!(&spec.id, stem, "spec id matches its file name");
            // parse → render → parse → render is a fixed point, and
            // the fingerprint is invariant across the round trip.
            let rendered = spec.render();
            let reparsed = ExperimentSpec::parse(&format!("{stem}.toml"), &rendered)
                .unwrap_or_else(|e| panic!("{stem}.toml canonical form must re-parse: {e}"));
            assert_eq!(reparsed.render(), rendered, "{stem}: render not canonical");
            assert_eq!(
                reparsed.fingerprint, spec.fingerprint,
                "{stem}: unstable fingerprint"
            );
        }
    }

    #[test]
    fn explicit_env_knobs_override_spec_knobs() {
        use smtsim_rob2::ExperimentSpec;
        let _g = ENV_LOCK.lock().unwrap();
        let spec = ExperimentSpec::parse(
            "t.toml",
            "[experiment]\nid = \"t\"\ntitle = \"T\"\nkind = \"figure\"\n\
             schemes = [\"r-rob-16\"]\nmixes = [1, 2]\n\
             [knobs]\nbudget = 1234\nwarmup = 99\nseed = 7\n",
        )
        .unwrap();
        // No env overrides: the spec's knobs land; unset knobs keep
        // the built-in defaults.
        let merged = BenchEnv::from_env().unwrap().with_spec(&spec);
        assert_eq!(merged.budget, 1234);
        assert_eq!(merged.warmup, 99);
        assert_eq!(merged.seed, 7);
        assert_eq!(merged.mixes, vec![1, 2]);
        // The spec's budget also drives the st_budget fallback when
        // neither ST_BUDGET nor a spec st_budget is given.
        assert_eq!(merged.st_budget, 1234);
        // Explicit env wins over the spec, key by key.
        std::env::set_var("BUDGET", "777");
        std::env::set_var("MIXES", "9");
        let merged = BenchEnv::from_env().unwrap().with_spec(&spec);
        assert_eq!(merged.budget, 777, "explicit BUDGET beats the spec");
        assert_eq!(merged.warmup, 99, "untouched keys still come from the spec");
        assert_eq!(merged.mixes, vec![9], "explicit MIXES beats the spec");
        std::env::remove_var("BUDGET");
        std::env::remove_var("MIXES");
    }

    #[test]
    fn spec_lowering_renders_the_legacy_bytes_at_any_job_count() {
        use smtsim_rob2::{figures, report, ExperimentSpec, RobConfig};
        let _g = ENV_LOCK.lock().unwrap();
        std::env::set_var("BUDGET", "2500");
        std::env::set_var("WARMUP", "1000");
        std::env::set_var("MIXES", "1");
        let env = BenchEnv::from_env().unwrap();
        let fig2 = ExperimentSpec::load(&spec_dir().join("fig2.toml")).unwrap();
        let merged = env.with_spec(&fig2);
        for jobs in [1, 4] {
            let mut legacy_lab = env.lab().with_jobs(Some(jobs));
            let legacy = report::render_figure(&figures::fig2(&mut legacy_lab, &env.mixes));
            let mut spec_lab = merged.lab_for_spec(&fig2).with_jobs(Some(jobs));
            let pairs: Vec<(String, RobConfig)> = fig2
                .variants
                .iter()
                .map(|v| (v.label.clone(), v.config))
                .collect();
            let title = fig2.title.as_deref().unwrap();
            let from_spec = report::render_figure(&figures::ft_sweep(
                &mut spec_lab,
                title,
                pairs,
                &merged.mixes,
            ));
            assert_eq!(from_spec, legacy, "fig2 spec output drifted at jobs={jobs}");
        }
        let table1 = ExperimentSpec::load(&spec_dir().join("table1.toml")).unwrap();
        assert_eq!(
            report::render_table1(&env.with_spec(&table1).lab_for_spec(&table1).machine),
            report::render_table1(&env.lab().machine),
            "table1 spec output drifted"
        );
        std::env::remove_var("BUDGET");
        std::env::remove_var("WARMUP");
        std::env::remove_var("MIXES");
    }

    #[test]
    fn malformed_spec_files_become_typed_config_errors() {
        use smtsim_rob2::ExperimentSpec;
        // The committed determinism fixture: a typo'd `[knobs]` key.
        let fixture = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../xtask/fixtures/malformed-spec.toml");
        let err = ExperimentSpec::load(&fixture).expect_err("fixture must be refused");
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("budgett"), "{err}");
        let bin: BinError = err.into();
        assert_eq!(bin.exit_code(), 2);
        // A missing file is also a typed config error naming the path.
        let err = ExperimentSpec::load(std::path::Path::new("/nonexistent/spec.toml"))
            .expect_err("missing file must be refused");
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("/nonexistent/spec.toml"), "{err}");
    }
}
