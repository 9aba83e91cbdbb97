//! Per-layer measurements of the traced run, beyond the spans of the
//! timed repetitions: a per-cell pass over the sweep, a kernel probe of
//! one cell per mix class, the cost of event tracing, a journal pass,
//! the per-stage prober, and the simulated counts of the cells.

use crate::check::Tally;
use crate::trace::Ctx;
use crate::workload::{BUDGET, INSTANCE_SEED, WARMUP};
use smtsim_analysis::{DodAnalysis, L1_WINDOW};
use smtsim_pipeline::{DodBounds, MachineConfig, SimError, Simulator, StopCondition};
use smtsim_rob2::journal::{cell_key, parse_json};
use smtsim_rob2::{
    CellOutcome, Journal, Lab, MixRun, NormTable, RobConfig, SweepCell, TwoLevelConfig,
};
use smtsim_workload::{mix, Workload};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when the layer did no work (`den` = 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn same_run(a: &MixRun, b: &MixRun) -> bool {
    a.ft.to_bits() == b.ft.to_bits() && format!("{:?}", a.stats) == format!("{:?}", b.stats)
}

/// Runs every cell through `Lab::run_cell` on `jobs` workers pulling
/// from one shared queue in input order, one `core.cell` span per cell,
/// and checks each result against the sweep's. This replica pool times
/// the cells one by one, which the sweep engine does not expose; its
/// cell times set against `sweep_s`, the timed repetitions' median phase
/// 2, give the engine's worker occupancy. Returns the layer metrics of
/// phase 2.
#[allow(clippy::too_many_arguments)]
pub fn cell_pass(
    lab: &Lab,
    cells: &[SweepCell],
    norm: &NormTable,
    swept: &[CellOutcome],
    jobs: usize,
    sweep_s: f64,
    tally: &mut Tally,
    ctx: Ctx,
) -> Vec<Metric> {
    let secs = Mutex::new(vec![0.0; cells.len()]);
    let results: Mutex<Vec<Option<Result<MixRun, SimError>>>> =
        Mutex::new(cells.iter().map(|_| None).collect());
    let next = AtomicUsize::new(0);
    ctx.span("core.cell_pass", |ctx| {
        std::thread::scope(|s| {
            for _ in 0..jobs.max(1) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(m, cfg)) = cells.get(i) else { break };
                    let c0 = Instant::now();
                    let r = ctx.span("core.cell", |_| lab.run_cell(m, cfg, norm));
                    let dt = c0.elapsed().as_secs_f64();
                    secs.lock()
                        .expect("no worker panics while holding the lock")[i] = dt;
                    results
                        .lock()
                        .expect("no worker panics while holding the lock")[i] = Some(r);
                });
            }
        });
    });
    let secs = secs.into_inner().expect("workers joined");
    let results = results.into_inner().expect("workers joined");
    for ((res, swept), &(m, cfg)) in results.iter().zip(swept).zip(cells) {
        let ok = match (res, &swept.result) {
            (Some(Ok(a)), Ok(b)) => same_run(a, b),
            _ => false,
        };
        tally.check(ok, || {
            format!(
                "run_cell of mix {m} / {} differs from its sweep cell",
                cfg.label()
            )
        });
    }
    let sum: f64 = secs.iter().sum();
    let max = secs.iter().copied().fold(0.0, f64::max);
    let mean = ratio(sum, secs.len() as f64);
    vec![
        ("core.cell.s_p50", median(&secs), "s"),
        ("core.cell.s_max", max, "s"),
        ("core.cell.straggler", ratio(max, mean), "ratio"),
        (
            "core.sweep.worker_busy",
            ratio(sum, jobs as f64 * sweep_s),
            "ratio",
        ),
    ]
}

struct ProbeRun {
    instantiate_s: f64,
    bounds_s: f64,
    build_s: f64,
    run_s: f64,
    cycles: u64,
    committed: u64,
    loadhit_accuracy: f64,
    stats: String,
}

/// Builds and runs one 2-Level R-ROB16 cell of `m` the way `Lab::run_cell`
/// does, timing each step.
fn probe_run(m: usize, machine: &MachineConfig, skip: bool, ctx: Ctx) -> Result<ProbeRun, String> {
    let t = Instant::now();
    let wls: Vec<Arc<Workload>> = ctx.span("workload.instantiate", |_| {
        mix(m)
            .instantiate(INSTANCE_SEED)
            .into_iter()
            .map(Arc::new)
            .collect()
    });
    let instantiate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let bounds: Vec<DodBounds> = ctx.span("analysis.bounds", |_| {
        wls.iter()
            .map(|w| DodBounds::new(DodAnalysis::compute(&w.program, L1_WINDOW).max_map()))
            .collect()
    });
    let bounds_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let alloc = RobConfig::TwoLevel(TwoLevelConfig::r_rob(16)).build();
    let mut sim = ctx
        .span("pipeline.build", |_| {
            Simulator::builder(machine.clone(), wls, alloc, INSTANCE_SEED)
                .dod_bounds(bounds)
                .warmup(WARMUP)
                .cycle_skip(skip)
                .build()
        })
        .map_err(|e| format!("probe build, mix {m}: {e}"))?;
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    ctx.span(
        if skip {
            "pipeline.run"
        } else {
            "pipeline.run_noskip"
        },
        |_| {
            sim.try_run(StopCondition::AnyThreadCommitted(BUDGET))
                .map(|_| ())
        },
    )
    .map_err(|e| format!("probe run, mix {m}: {e}"))?;
    Ok(ProbeRun {
        instantiate_s,
        bounds_s,
        build_s,
        run_s: t.elapsed().as_secs_f64(),
        cycles: sim.cycle(),
        committed: sim.stats().total_committed(),
        loadhit_accuracy: sim.loadhit_accuracy(),
        stats: format!("{:?}", sim.stats()),
    })
}

/// Kernel probe: one R-ROB16 cell per mix in `mixes`, with and without
/// event-driven cycle skipping. Checks that both agree with each other
/// and with the sweep's cell.
pub fn kernel_probe(
    mixes: &[usize],
    machine: &MachineConfig,
    swept: &[CellOutcome],
    tally: &mut Tally,
    ctx: Ctx,
) -> Result<Vec<Metric>, String> {
    let label = RobConfig::TwoLevel(TwoLevelConfig::r_rob(16)).label();
    let (mut inst, mut bounds, mut build, mut run, mut noskip) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut cycles, mut committed, mut loadhit) = (0u64, 0u64, 0.0);
    for &m in mixes {
        let skip = probe_run(m, machine, true, ctx)?;
        let slow = probe_run(m, machine, false, ctx)?;
        tally.check(skip.stats == slow.stats, || {
            format!("mix {m}: cycle skipping changed the statistics")
        });
        let name = mix(m).name;
        let cell = swept
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .find(|r| r.mix == name && r.config == label);
        tally.check(
            cell.is_some_and(|r| format!("{:?}", r.stats) == skip.stats),
            || format!("mix {m}: the probe's R-ROB16 run differs from the sweep's cell"),
        );
        inst += skip.instantiate_s;
        bounds += skip.bounds_s;
        build += skip.build_s;
        run += skip.run_s;
        noskip += slow.run_s;
        cycles += skip.cycles;
        committed += skip.committed;
        loadhit += skip.loadhit_accuracy;
    }
    let n = mixes.len() as f64;
    Ok(vec![
        ("workload.instantiate_ms", inst / n * 1e3, "ms"),
        ("analysis.bounds_ms", bounds / n * 1e3, "ms"),
        ("pipeline.build_ms", build / n * 1e3, "ms"),
        ("pipeline.run_ms", run / n * 1e3, "ms"),
        (
            "pipeline.ns_per_inst",
            ratio(run * 1e9, committed as f64),
            "ns",
        ),
        (
            "pipeline.ns_per_cycle",
            ratio(run * 1e9, cycles as f64),
            "ns",
        ),
        ("pipeline.skip_speedup", ratio(noskip, run), "ratio"),
        ("predict.loadhit_accuracy", loadhit / n, "ratio"),
    ])
}

/// Host-time ratio of `Lab::run_cell_traced` to `Lab::run_cell` on one
/// memory-bound cell (Mix 1, 2-Level R-ROB16), medians of three each.
pub fn event_trace_overhead(lab: &mut Lab, tally: &mut Tally, ctx: Ctx) -> Result<f64, String> {
    let norm = lab.norm_table(&[1]);
    let cfg = RobConfig::TwoLevel(TwoLevelConfig::r_rob(16));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let a = ctx.span("obs.run_cell", |_| lab.run_cell(1, cfg, &norm));
        plain.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let b = ctx.span("obs.run_cell_traced", |_| {
            lab.run_cell_traced(1, cfg, &norm)
        });
        traced.push(t.elapsed().as_secs_f64());
        let (a, b) = (a.map_err(|e| e.to_string())?, b.map_err(|e| e.to_string())?);
        tally.check(same_run(&a, &b.run), || {
            "event tracing changed a cell's result".into()
        });
    }
    Ok(ratio(median(&traced), median(&plain)))
}

/// Journal pass: appends every swept cell to a fresh journal under the
/// Lab's universe, then re-opens it (timed: the open parses and checks
/// every record) and looks every cell up.
pub fn journal_pass(
    lab: &Lab,
    cells: &[SweepCell],
    swept: &[CellOutcome],
    path: &Path,
    tally: &mut Tally,
    ctx: Ctx,
) -> Result<Vec<Metric>, String> {
    let _ = std::fs::remove_file(path);
    let universe = lab.journal_universe();
    let size = |p: &Path| {
        std::fs::metadata(p)
            .map(|m| m.len() as f64)
            .map_err(|e| e.to_string())
    };
    let keys: Vec<String> = cells
        .iter()
        .map(|(m, cfg)| cell_key(*m, &cfg.fingerprint()))
        .collect();
    let journal = Journal::open(path, &universe).map_err(|e| e.to_string())?;
    let empty = size(path)?;
    let mut record = Vec::new();
    for (key, o) in keys.iter().zip(swept) {
        let run = o
            .result
            .as_ref()
            .map_err(|e| format!("cannot journal a failed cell: {e}"))?;
        let t = Instant::now();
        ctx.span("core.journal.record", |_| {
            journal.record(key, run, o.attempts)
        })
        .map_err(|e| e.to_string())?;
        record.push(t.elapsed().as_secs_f64());
    }
    drop(journal);
    let bytes = size(path)? - empty;
    let t = Instant::now();
    let journal = ctx
        .span("core.journal.open", |_| Journal::open(path, &universe))
        .map_err(|e| e.to_string())?;
    let open_s = t.elapsed().as_secs_f64();
    let mut lookup = Vec::new();
    for (key, o) in keys.iter().zip(swept) {
        let t = Instant::now();
        let hit = ctx.span("core.journal.lookup", |_| journal.lookup(key));
        lookup.push(t.elapsed().as_secs_f64());
        let ok = match (hit, &o.result) {
            (Some(e), Ok(r)) => same_run(&e.run, r),
            _ => false,
        };
        tally.check(ok, || {
            format!("journal lookup of {key} did not return the recorded cell")
        });
    }
    let _ = std::fs::remove_file(path);
    Ok(vec![
        ("core.journal.open_s", open_s, "s"),
        ("core.journal.lookup_us", median(&lookup) * 1e6, "us"),
        ("core.journal.record_us", median(&record) * 1e6, "us"),
        (
            "core.journal.bytes_per_cell",
            ratio(bytes, cells.len() as f64),
            "bytes",
        ),
    ])
}

/// Runs the per-stage prober binary on the machine of `spec` and reads
/// its JSON line.
pub fn stage_probe(
    exe: &Path,
    spec: &Path,
    mixes: &[usize],
    ctx: Ctx,
) -> Result<Vec<Metric>, String> {
    let list: Vec<String> = mixes.iter().map(usize::to_string).collect();
    let out = ctx
        .span("pipeline.stages", |_| {
            Command::new(exe)
                .args([
                    "--seed",
                    &INSTANCE_SEED.to_string(),
                    "--warmup",
                    &WARMUP.to_string(),
                ])
                .args(["--mixes", &list.join(",")])
                .arg("--spec")
                .arg(spec)
                .output()
        })
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} failed: {}",
            exe.display(),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let json = parse_json(text.lines().last().unwrap_or(""))
        .map_err(|e| format!("stage prober output: {e}"))?;
    let get = |k: &str| {
        json.get(k)
            .and_then(|v| v.as_f64())
            .ok_or(format!("stage prober output lacks {k}"))
    };
    Ok(vec![
        ("pipeline.stage.events.ns_per_cycle", get("events")?, "ns"),
        ("pipeline.stage.commit.ns_per_cycle", get("commit")?, "ns"),
        ("pipeline.stage.issue.ns_per_cycle", get("issue")?, "ns"),
        (
            "pipeline.stage.dispatch.ns_per_cycle",
            get("dispatch")?,
            "ns",
        ),
        ("pipeline.stage.fetch.ns_per_cycle", get("fetch")?, "ns"),
        ("pipeline.dod_scan.ns", get("dod_scan")?, "ns"),
    ])
}

/// Simulated counts pooled over every healthy cell. Exact for a seed.
pub fn simulated_counts(outcomes: &[CellOutcome]) -> Vec<Metric> {
    let (mut cycles, mut committed, mut l2, mut branches, mut mispredicts) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut stalls = [0u64; 5];
    let (mut tl_committed, mut tl_cycles, mut alloc, mut rej_dod, mut rej_busy, mut held) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut pred_correct, mut pred_verified) = (0u64, 0u64);
    for r in outcomes.iter().filter_map(|o| o.result.as_ref().ok()) {
        cycles += r.stats.cycles;
        for t in &r.stats.threads {
            committed += t.committed;
            l2 += t.l2_misses;
            branches += t.branches;
            mispredicts += t.mispredicts;
            for (sum, v) in stalls.iter_mut().zip([
                t.rob_stall_cycles,
                t.stall_iq,
                t.stall_regs,
                t.stall_lsq,
                t.stall_caps,
            ]) {
                *sum += v;
            }
        }
        if let Some(tl) = r.twolevel {
            tl_committed += r.stats.total_committed();
            tl_cycles += r.stats.cycles;
            alloc += tl.allocations;
            rej_dod += tl.rejected_dod;
            rej_busy += tl.rejected_busy;
            held += tl.held_cycles;
            pred_correct += tl.pred_correct;
            pred_verified += tl.pred_verified;
        }
    }
    let per_kinst = |n: u64| ratio(n as f64 * 1e3, committed as f64);
    vec![
        (
            "pipeline.ipc",
            ratio(committed as f64, cycles as f64),
            "inst/cycle",
        ),
        (
            "pipeline.stall.rob_per_kinst",
            per_kinst(stalls[0]),
            "1/kinst",
        ),
        (
            "pipeline.stall.iq_per_kinst",
            per_kinst(stalls[1]),
            "1/kinst",
        ),
        (
            "pipeline.stall.regs_per_kinst",
            per_kinst(stalls[2]),
            "1/kinst",
        ),
        (
            "pipeline.stall.lsq_per_kinst",
            per_kinst(stalls[3]),
            "1/kinst",
        ),
        (
            "pipeline.stall.dcra_per_kinst",
            per_kinst(stalls[4]),
            "1/kinst",
        ),
        ("mem.l2_mpki", per_kinst(l2), "1/kinst"),
        (
            "predict.branch_accuracy",
            1.0 - ratio(mispredicts as f64, branches as f64),
            "ratio",
        ),
        (
            "predict.dod_accuracy",
            ratio(pred_correct as f64, pred_verified as f64),
            "ratio",
        ),
        (
            "twolevel.grants_per_kinst",
            ratio(alloc as f64 * 1e3, tl_committed as f64),
            "1/kinst",
        ),
        (
            "twolevel.grant_ratio",
            ratio(alloc as f64, (alloc + rej_dod + rej_busy) as f64),
            "ratio",
        ),
        (
            "twolevel.held_share",
            ratio(held as f64, tl_cycles as f64),
            "ratio",
        ),
    ]
}
