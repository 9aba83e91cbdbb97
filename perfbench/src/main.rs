//! perfbench: the repository benchmark.
//!
//! Regenerates committed figures through the library's public API
//! (`ExperimentSpec::load`, `Lab::norm_table`, `figures::ft_sweep`,
//! `report::render_figure`, the journal) at the committed knobs, for
//! `--seconds` seconds, and prints one JSON result line. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! records spans and reports the per-layer metrics. See README.md.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!         --root <repo> --out <dir>`; `run.py` builds it and fills in the
//! last two.

mod check;
mod layers;
mod probe;
mod trace;
mod workload;

use check::{compare_rows, digest, Tally};
use layers::{median, ratio, Metric};
use probe::Probe;
use smtsim_rob2::{CellOutcome, NormTable};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Ctx, Trace};
use workload::{rep, setup, Rep, Setup, Swept, Workload};

/// The paper's mean FT gain of 2-Level R-ROB16 over Baseline_32, percent.
const PAPER_RROB16_GAIN_PCT: f64 = 30.5;
/// Set-ups per repetition in the untraced run.
const SETUPS_PER_REP: usize = 20;
/// Fewest repetitions a run makes, however long they take.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    out: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut root, mut out) =
            (None, None, None, None, None, None);
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let v = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {v:?}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&v).ok_or_else(bad)?),
                "--seed" => seed = Some(v.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = v.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match v.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                "--root" => root = Some(PathBuf::from(v)),
                "--out" => out = Some(PathBuf::from(v)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        match (workload, seed, seconds, trace, root, out) {
            (Some(workload), Some(seed), Some(seconds), Some(trace), Some(root), Some(out)) => {
                Ok(Args {
                    workload,
                    seed,
                    seconds,
                    trace,
                    root,
                    out,
                })
            }
            _ => Err(
                "usage: perfbench --workload <fig2_all|schemes_membound|schemes_ilp> \
                 --seed <n> --seconds <s> --trace <0|1> --root <repo> --out <dir>"
                    .into(),
            ),
        }
    }
}

/// Host memory high-water mark of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".into())
}

/// Host milliseconds of a fixed integer loop (median of five): the
/// host-speed figure of the machine stamp.
fn calibration_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
            for _ in 0..10_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Fingerprint of the sources the benchmark builds (crates, experiment
/// specs, manifests, the benchmark itself), so that runs of the same code
/// can be matched where no git metadata exists.
fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.filter_map(Result::ok) {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock" || x == "py")
            {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for d in ["crates", "experiments", "perfbench"] {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut canon = String::new();
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f).display().to_string();
        let body = std::fs::read(&f).unwrap_or_default();
        let _ = writeln!(canon, "{rel}\0{}", String::from_utf8_lossy(&body));
    }
    smtsim_rob2::journal::fingerprint_str(&canon)
}

fn git_commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Counts one repetition's figure points (one per cell) and solo runs
/// into the tally.
fn tally_rep(tally: &mut Tally, r: &Rep, mixes: &[usize]) {
    for fig in &r.figures {
        for series in &fig.series {
            for (mix, point) in &series.points {
                tally.check(point.is_some(), || {
                    format!("{} / {mix}: cell failed", series.label)
                });
            }
        }
        tally
            .notes
            .extend(fig.failures.iter().map(|f| format!("  {f}")));
    }
    tally_solo(tally, &r.norm, mixes);
}

fn tally_solo(tally: &mut Tally, norm: &NormTable, mixes: &[usize]) {
    let (runs, failed) = workload::solo_runs(norm, mixes);
    tally.attempted += runs;
    tally.failed += failed;
    if failed > 0 {
        tally
            .notes
            .push(format!("{failed} solo normalization run(s) failed"));
    }
}

/// Checks the untimed sweep's cells: each is healthy and has the FT the
/// figure path rendered for it.
fn tally_outcomes(tally: &mut Tally, outcomes: &[CellOutcome], r: &Rep) {
    let points: Vec<Option<f64>> = r
        .figures
        .iter()
        .flat_map(|f| f.series.iter())
        .flat_map(|s| s.points.iter().map(|(_, p)| *p))
        .collect();
    tally.check(points.len() == outcomes.len(), || {
        format!(
            "{} swept cells against {} figure points",
            outcomes.len(),
            points.len()
        )
    });
    for (o, &point) in outcomes.iter().zip(&points) {
        let ok = match &o.result {
            Ok(run) => point.map(f64::to_bits) == Some(run.ft.to_bits()),
            Err(_) => false,
        };
        tally.check(ok, || {
            let what = match &o.result {
                Err(e) => e.to_string().lines().next().unwrap_or("").to_string(),
                Ok(run) => format!("{} / {}: FT differs from the figure", run.mix, run.config),
            };
            format!("swept cell: {what}")
        });
    }
}

/// Checks the rendered figures against the committed ones in `results/`
/// (per-mix rows; the whole text for `fig2_all`) and returns the gap to
/// the paper's headline gain.
fn check_committed(
    w: Workload,
    root: &Path,
    st: &Setup,
    r: &Rep,
    tally: &mut Tally,
) -> Result<f64, String> {
    let names: Vec<String> = w
        .mixes()
        .iter()
        .map(|&m| smtsim_workload::mix(m).name.to_string())
        .collect();
    for (spec, text) in st.specs.iter().zip(&r.texts) {
        let path = root.join("results").join(format!("{}.txt", spec.id));
        let golden =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        for (mix, ok) in compare_rows(&golden, text, &names) {
            tally.check(ok, || {
                format!("{} / {mix}: row differs from {}", spec.id, path.display())
            });
        }
        if w == Workload::Fig2All {
            tally.check(*text == golden, || {
                format!("fig2 differs from {}", path.display())
            });
        }
    }
    let gain = workload::rrob16_gain_pct(&st.specs[0], &r.figures[0]);
    tally.check(gain.is_some(), || {
        "R-ROB16 gain over Baseline_32 is undefined".into()
    });
    Ok(gain.map_or(0.0, |g| (g - PAPER_RROB16_GAIN_PCT).abs()))
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn run(args: &Args, scratch: &Path) -> Result<(), String> {
    let w = args.workload;
    let mixes = w.mixes();
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let mut tally = Tally::default();
    // Built first, so that the memory it holds is resident at every
    // high-water mark and can be taken off `peak_rss_mb` exactly.
    let probe = Probe::new(jobs);

    // Untimed, and left out of every median: the cells with their full
    // statistics, from one sweep of a fresh set-up. It is also the
    // process's warm-up repetition.
    let mut st = setup(w, &args.root, jobs, Ctx::off())?;
    let swept = workload::sweep(&mut st, mixes);
    tally_solo(&mut tally, &swept.norm, mixes);
    let insts = workload::instructions(&swept, mixes) as f64;

    let trace = args.trace.then(Trace::new);
    let started = Instant::now();
    let (mut plain_walls, mut traced_walls, mut host_walls, mut setups) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // probe_ms[k] and probe_ms[k + 1] bracket repetition k.
    let mut probe_ms = vec![probe.time_ms()];
    let mut first: Option<Rep> = None;
    let mut k: u64 = 0;
    loop {
        let done = k as usize >= MIN_REPS && started.elapsed().as_secs_f64() >= args.seconds;
        if done && (trace.is_none() || traced_walls.len() >= 2) {
            break;
        }
        // The traced run alternates untraced and traced repetitions; their
        // difference is the cost of the spans.
        let traced = trace.is_some() && k % 2 == 1;
        let ctx = if traced {
            Ctx::root(trace.as_ref(), k)
        } else {
            Ctx::off()
        };
        let n_setups = if trace.is_some() { 1 } else { SETUPS_PER_REP };
        // The set-ups run right after probe k, and are scaled by it.
        let probed = probe_ms[k as usize];
        for _ in 0..n_setups {
            let t = Instant::now();
            st = setup(w, &args.root, jobs, ctx)?;
            setups.push(probe::scaled(t.elapsed().as_secs_f64(), probed, probed));
        }
        let r = rep(&mut st, mixes, ctx);
        probe_ms.push(probe.time_ms());
        tally_rep(&mut tally, &r, mixes);
        if let Some(f) = &first {
            tally.check(r.texts == f.texts, || {
                format!("repetition {k} rendered differently from the first repetition")
            });
        }
        if traced {
            traced_walls.push(r.wall_s);
        } else {
            plain_walls.push(r.wall_s);
            let (before, after) = (probe_ms[k as usize], probe_ms[k as usize + 1]);
            host_walls.push(probe::scaled(r.wall_s, before, after));
        }
        if first.is_none() {
            first = Some(r);
        }
        k += 1;
    }
    let peak_rss = peak_rss_mb()? - probe.resident_mb();
    let rendered = first.expect("at least MIN_REPS repetitions");
    tally_outcomes(&mut tally, &swept.outcomes, &rendered);
    let gap = check_committed(w, &args.root, &st, &rendered, &mut tally)?;
    let sim_digest = digest(&swept.outcomes);

    let metrics: Vec<Metric> = match &trace {
        None => vec![
            ("wall_s", median(&host_walls), "s"),
            ("setup_s", median(&setups), "s"),
            ("sim_mips", insts / median(&host_walls) / 1e6, "Minst/s"),
            ("peak_rss_mb", peak_rss, "MiB"),
            ("paper_gap_pp", gap, "pp"),
        ],
        Some(tr) => {
            let mut m = layer_metrics(args, tr, &mut st, &swept, jobs, scratch, &mut tally)?;
            let norm_s = median(&tr.durations("core.norm_table"));
            m.push((
                "core.norm_table.share",
                ratio(norm_s, median(&traced_walls)),
                "ratio",
            ));
            m.push((
                "bench.span_overhead_s",
                median(&traced_walls) - median(&plain_walls),
                "s",
            ));
            write_spans(args, tr)?;
            m
        }
    };

    let sim_cycles: u64 = swept
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .map(|r| r.stats.cycles)
        .sum();
    println!(
        "perfbench {} seed={} jobs={jobs} reps={} trace={}",
        w.name(),
        args.seed,
        plain_walls.len() + traced_walls.len(),
        u8::from(args.trace)
    );
    println!(
        "{{\"stamp\":{{\"nproc\":{jobs},\"calibration_ms\":{},\"commit\":\"{}\",\"source\":\"{}\"}},\
         \"sim_digest\":\"{sim_digest}\",\"sim_cycles\":{sim_cycles},\"fail_ratio\":{},\
         \"wall_s_samples\":{:?},\"probe_ms_samples\":{:?}}}",
        calibration_ms(),
        git_commit(&args.root),
        source_fingerprint(&args.root),
        ratio(tally.failed as f64, tally.attempted as f64),
        plain_walls,
        probe_ms,
    );
    for note in &tally.notes {
        eprintln!("perfbench: FAILED {note}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        json_metrics(&metrics)
    );
    Ok(())
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    args: &Args,
    tr: &Trace,
    st: &mut Setup,
    swept: &Swept,
    jobs: usize,
    scratch: &Path,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    let mixes = w.mixes();
    let (norm, outcomes) = (&swept.norm, &swept.outcomes);
    let cells = workload::cells(&st.specs, mixes);
    let ctx = |id| Ctx::root(Some(tr), id);
    let span_median = |name| median(&tr.durations(name));
    let sweep_s = span_median("core.sweep");
    let mut m: Vec<Metric> = vec![
        ("core.spec.load_s", span_median("core.spec.load"), "s"),
        ("core.norm_table.s", span_median("core.norm_table"), "s"),
        (
            "core.norm_table.runs",
            workload::solo_runs(norm, mixes).0 as f64,
            "count",
        ),
        ("core.sweep.s", sweep_s, "s"),
        ("core.render.s", span_median("core.render"), "s"),
    ];
    m.extend(layers::cell_pass(
        &st.lab,
        &cells,
        norm,
        outcomes,
        jobs,
        sweep_s,
        tally,
        ctx(1_000),
    ));
    m.extend(layers::journal_pass(
        &st.lab,
        &cells,
        outcomes,
        &scratch.join("pass.journal"),
        tally,
        ctx(1_004),
    )?);
    let machine = st.specs[0].machine.clone();
    m.extend(layers::kernel_probe(
        w.probe_mixes(),
        &machine,
        outcomes,
        tally,
        ctx(1_001),
    )?);
    m.push((
        "obs.trace_overhead",
        layers::event_trace_overhead(&mut st.lab, tally, ctx(1_002))?,
        "ratio",
    ));
    let exe = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("perfbench-stages");
    let spec = workload::spec_path(&args.root, &st.specs[0].id);
    m.extend(layers::stage_probe(
        &exe,
        &spec,
        w.probe_mixes(),
        ctx(1_003),
    )?);
    m.extend(layers::simulated_counts(outcomes));

    Ok(m)
}

/// Writes the spans as JSON lines under `--out` and prints a self-time
/// summary per span name to standard error.
fn write_spans(args: &Args, tr: &Trace) -> Result<(), String> {
    let spans = tr.spans();
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let path = args.out.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, trace::to_jsonl(&spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut by_name: std::collections::BTreeMap<&str, (usize, f64, f64)> = Default::default();
    for (s, self_s) in spans.iter().zip(trace::self_times(&spans)) {
        let e = by_name.entry(s.name).or_default();
        *e = (e.0 + 1, e.1 + s.secs(), e.2 + self_s);
    }
    eprintln!("perfbench: spans written to {}", path.display());
    eprintln!(
        "{:<28} {:>6} {:>10} {:>10}",
        "span", "count", "total_s", "self_s"
    );
    for (name, (n, total, self_s)) in by_name {
        eprintln!("{name:<28} {n:>6} {total:>10.4} {self_s:>10.4}");
    }
    Ok(())
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = args.out.join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("{}: {e}", scratch.display()))
        .and_then(|()| run(&args, &scratch));
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
