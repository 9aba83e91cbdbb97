//! Per-stage host time of the cycle kernel, for the perfbench traced run.
//!
//! Drives a faithful cycle loop (`try_step` stage order) through the
//! `bench-internals` hooks on the given mixes under 2-Level R-ROB16, on
//! the machine of the given experiment spec and with the static DoD
//! bounds every Lab cell installs, and
//! times one stage per pass, so the clock reads of one stage do not land
//! in another's figure. Prints one JSON line:
//! `{"events":ns,"commit":ns,"issue":ns,"dispatch":ns,"fetch":ns,"dod_scan":ns}`,
//! each the mean over the mixes of the per-mix median pass, in host
//! nanoseconds per simulated cycle (per scan for `dod_scan`).
//!
//! Usage: `perfbench-stages --seed <n> --warmup <insts> --mixes <m,m,...> --spec <path>`

use smtsim_analysis::{DodAnalysis, L1_WINDOW};
use smtsim_pipeline::{DodBounds, MachineConfig, Simulator, DOD_WINDOW};
use smtsim_rob2::{ExperimentSpec, TwoLevelConfig, TwoLevelRob};
use smtsim_workload::mix;
use smtsim_workload::Workload;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cycles per timed pass: long enough for every queue to reach steady
/// occupancy, short enough that the whole probe stays near a second.
const CYCLES_PER_PASS: u64 = 20_000;
/// Timed passes per stage; the median is kept.
const PASSES: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    Events,
    Commit,
    Issue,
    Dispatch,
    Fetch,
    DodScan,
}

const STAGES: [(Stage, &str); 6] = [
    (Stage::Events, "events"),
    (Stage::Commit, "commit"),
    (Stage::Issue, "issue"),
    (Stage::Dispatch, "dispatch"),
    (Stage::Fetch, "fetch"),
    (Stage::DodScan, "dod_scan"),
];

fn timed(acc: &mut Duration, on: bool, f: impl FnOnce()) {
    if on {
        let t0 = Instant::now();
        f();
        *acc += t0.elapsed();
    } else {
        f();
    }
}

/// One pass of `CYCLES_PER_PASS` cycles; returns the time spent in `stage`.
fn pass(sim: &mut Simulator, stage: Option<Stage>) -> Duration {
    let mut acc = Duration::ZERO;
    for _ in 0..CYCLES_PER_PASS {
        timed(&mut acc, stage == Some(Stage::Events), || {
            sim.bench_process_events();
        });
        timed(&mut acc, stage == Some(Stage::Commit), || {
            sim.bench_commit_stage();
        });
        timed(&mut acc, stage == Some(Stage::Issue), || {
            sim.bench_issue_stage();
        });
        timed(&mut acc, stage == Some(Stage::Dispatch), || {
            sim.bench_dispatch_stage();
        });
        timed(&mut acc, stage == Some(Stage::Fetch), || {
            sim.bench_fetch_stage();
        });
        if stage == Some(Stage::DodScan) {
            let t0 = Instant::now();
            black_box(sim.bench_dod_scan(DOD_WINDOW));
            acc += t0.elapsed();
        }
        sim.bench_cycle_end();
    }
    acc
}

fn per_mix(m: usize, machine: &MachineConfig, seed: u64, warmup: u64) -> Result<Vec<f64>, String> {
    let wls: Vec<Arc<Workload>> = mix(m).instantiate(seed).into_iter().map(Arc::new).collect();
    let bounds = wls
        .iter()
        .map(|w| DodBounds::new(DodAnalysis::compute(&w.program, L1_WINDOW).max_map()))
        .collect();
    let mut sim = Simulator::builder(
        machine.clone(),
        wls,
        Box::new(TwoLevelRob::new(TwoLevelConfig::r_rob(16))),
        seed,
    )
    .dod_bounds(bounds)
    .warmup(warmup)
    .build()
    .map_err(|e| format!("mix {m}: {e}"))?;
    pass(&mut sim, None);
    Ok(STAGES
        .iter()
        .map(|&(stage, _)| {
            let mut ns: Vec<f64> = (0..PASSES)
                .map(|_| pass(&mut sim, Some(stage)).as_nanos() as f64 / CYCLES_PER_PASS as f64)
                .collect();
            ns.sort_by(f64::total_cmp);
            ns[PASSES / 2]
        })
        .collect())
}

fn run() -> Result<String, String> {
    let mut seed = None;
    let mut warmup = None;
    let mut mixes = None;
    let mut machine = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--warmup" => warmup = Some(value.parse::<u64>().map_err(bad)?),
            "--mixes" => {
                let list = value
                    .split(',')
                    .map(|m| match m.parse::<usize>() {
                        Ok(m) if (1..=11).contains(&m) => Ok(m),
                        _ => Err(format!("bad mix {m:?} in --mixes")),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                mixes = Some(list);
            }
            "--spec" => {
                let spec = ExperimentSpec::load(std::path::Path::new(&value))
                    .map_err(|e| format!("{value}: {e}"))?;
                machine = Some(spec.machine);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (Some(seed), Some(warmup), Some(mixes), Some(machine)) = (seed, warmup, mixes, machine)
    else {
        return Err(
            "usage: perfbench-stages --seed <n> --warmup <insts> --mixes <m,...> --spec <path>"
                .into(),
        );
    };
    let mut sums = vec![0.0; STAGES.len()];
    for &m in &mixes {
        for (sum, ns) in sums.iter_mut().zip(per_mix(m, &machine, seed, warmup)?) {
            *sum += ns;
        }
    }
    let fields: Vec<String> = STAGES
        .iter()
        .zip(&sums)
        .map(|(&(_, name), sum)| format!("\"{name}\":{}", sum / mixes.len() as f64))
        .collect();
    Ok(format!("{{{}}}", fields.join(",")))
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench-stages: {e}");
            std::process::exit(2);
        }
    }
}
