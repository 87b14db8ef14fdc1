//! `deckbench` — the deck pipeline's benchmark.
//!
//! ```text
//! deckbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates the workload's deck from the seed and then, in one
//! process:
//!
//! 1. times set-up (`parse_full_deck` + `compile` + `build_stationary`)
//!    several times and keeps the median (`setup_s`);
//! 2. runs the deck through the shipping path with tracing off
//!    (`parse_full_deck` -> `compile` -> `execute_with_options`, CSV
//!    streamed as `sesim --csv` does), one deck run at a time on a pool of
//!    at most two workers, for about `--seconds`;
//! 3. replays the deck once through each layer's public functions with a
//!    timer around every call (see `replay`), checking that the replay
//!    reproduces the shipping table bit for bit;
//! 4. checks the outputs (see `checks`) and prints a machine-context line
//!    and, last, one JSON result line: the end-to-end metrics with
//!    `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! Run it with `cargo run --release --manifest-path deckbench/Cargo.toml --
//! <args>` from the repository root; `cargo test --manifest-path
//! deckbench/Cargo.toml` runs its self-test at toy sizes.

mod checks;
mod decks;
mod machine;
mod replay;

use decks::Workload;
use machine::Machine;
use se_exec::Workers;
use se_netlist::parse_full_deck;
use se_sim::{build_stationary, compile, execute_with_options, ExecOptions};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: deckbench --workload <array_kmc|chain_ensemble|master_map|hybrid_map> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where the shipping runs stream their CSV; removed at the end of a run.
const OUT_DIR: &str = ".deckbench-out";

/// Fewest untraced deck runs a result is the median of.
const MIN_RUNS: usize = 3;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("deckbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let machine = Machine::probe();
    println!("{}", machine.to_json());
    let text = args.workload.deck(args.seed);
    let label = format!("{} seed {}", args.workload.name(), args.seed);
    let result = measure(&label, &text, args.seconds, args.trace, &machine);
    // Best effort: the directory only ever holds this run's CSV export.
    let _ = std::fs::remove_dir_all(OUT_DIR);
    match result {
        Ok(record) => {
            println!("{}", record.to_json());
            if record.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("deckbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One result line.
#[derive(Debug)]
struct Record {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Record {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What the untraced shipping runs produced.
#[derive(Debug, Default)]
struct Shipping {
    columns: Vec<String>,
    rows: Vec<Vec<f64>>,
    /// Wall time of each deck run, seconds.
    walls: Vec<f64>,
    /// Every run published the same bits, and the CSV held every row.
    consistent: bool,
    /// Deterministic engine: series current must be conserved exactly.
    exact: bool,
    peak_rss_mb: f64,
}

/// Everything one measured deck produced. A deck that fails to set up or
/// run keeps the defaults, with every point failed.
#[derive(Debug, Default)]
struct Outcome {
    points: usize,
    failed: usize,
    series_err: f64,
    setup_s: f64,
    shipping: Shipping,
    replay: replay::Replay,
}

/// Measures one deck: `label` names it in progress output and its CSV file.
fn measure(
    label: &str,
    text: &str,
    seconds: f64,
    trace: bool,
    machine: &Machine,
) -> Result<Record, String> {
    let points = planned_points(text)?;
    let outcome = match run_deck(label, text, seconds, points, machine.workers) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("deckbench: {label}: the deck failed: {e}");
            Outcome {
                points,
                failed: points,
                ..Outcome::default()
            }
        }
    };
    let metrics = metrics(&outcome, trace, machine);
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    Ok(Record {
        correct: outcome.failed == 0 && outcome.shipping.consistent && finite,
        attempted: points,
        failed: outcome.failed,
        metrics: metrics
            .into_iter()
            .map(|(name, unit, value)| (name, unit, if value.is_finite() { value } else { 0.0 }))
            .collect(),
    })
}

/// Set-up timing, the untraced shipping runs, the traced replay and the
/// output checks of one deck.
fn run_deck(
    label: &str,
    text: &str,
    seconds: f64,
    points: usize,
    workers: usize,
) -> Result<Outcome, String> {
    let setup_s = measure_setup(text, seconds)?;
    let shipping = run_shipping(label, text, seconds, workers)?;
    let replay = replay::run(text, workers)?;
    let table = checks::check_table(&shipping.columns, &shipping.rows, points, shipping.exact)?;
    let mut identical = 0;
    let mut failed = 0;
    for p in 0..points {
        let same = matches!(
            (shipping.rows.get(p), replay.rows.get(p)),
            (Some(a), Some(b)) if same_bits(a, b)
        );
        identical += usize::from(same);
        let ok = same && table.point_ok[p] && replay.point_ok.get(p).copied().unwrap_or(false);
        failed += usize::from(!ok);
    }
    if identical < points {
        eprintln!(
            "deckbench: {label}: the traced replay reproduced {identical} of {points} shipping \
             rows bit for bit"
        );
    }
    eprintln!(
        "deckbench: {label}: {points} points, {} untraced runs (median {:.4} s), \
         traced {:.4} s, setup {setup_s:.4} s, series_err {:.3e}, {failed} failed",
        shipping.walls.len(),
        median(&shipping.walls),
        replay.wall_s,
        table.series_err
    );
    Ok(Outcome {
        points,
        failed,
        series_err: table.series_err,
        setup_s,
        shipping,
        replay,
    })
}

/// The end-to-end metrics (`trace == false`) or the per-layer ones.
fn metrics(
    outcome: &Outcome,
    trace: bool,
    machine: &Machine,
) -> Vec<(&'static str, &'static str, f64)> {
    let wall = median(&outcome.shipping.walls);
    let points = outcome.points as f64;
    if !trace {
        return vec![
            ("setup_s", "s", outcome.setup_s),
            ("points_per_s", "1/s", points / wall),
            ("peak_rss_mb", "MB", outcome.shipping.peak_rss_mb),
        ];
    }
    let replay = &outcome.replay;
    let layers = &replay.layers;
    let work_s: f64 = replay.item_s.iter().sum();
    let workers = machine.workers as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("events_per_s", "1/s", layers.kmc_events() / wall),
        ("fail_frac", "ratio", outcome.failed as f64 / points),
        ("series_err", "ratio", outcome.series_err),
        ("netlist.parse_s", "s", layers.parse_s),
        ("sim.compile_s", "s", layers.compile_s),
        ("sim.build_s", "s", layers.build_s),
        ("orthodox.build_s", "s", layers.orthodox_build_s),
        ("orthodox.strong_density", "ratio", layers.strong_density),
        ("orthodox.coupling_mb", "MB", layers.coupling_mb),
        ("kmc.new_s", "s", layers.kmc_new_s),
        ("kmc.equil_s", "s", layers.kmc_equil_s),
        ("kmc.equil_events", "count", layers.kmc_equil_events),
        ("kmc.measure_s", "s", layers.kmc_measure_s),
        ("kmc.measure_events", "count", layers.kmc_measure_events),
        (
            "kmc.ns_per_event",
            "ns",
            1e9 * ratio(layers.kmc_measure_s, layers.kmc_measure_events),
        ),
        ("batched.group_s", "s", layers.batched_group_s),
        ("batched.events", "count", layers.batched_events),
        (
            "batched.ns_per_event",
            "ns",
            1e9 * ratio(layers.batched_group_s, layers.batched_events),
        ),
        ("master.states", "count", layers.master_states),
        ("master.assemble_s", "s", layers.master_assemble_s),
        ("master.solve_s", "s", layers.master_solve_s),
        (
            "master.warm_frac",
            "ratio",
            ratio(layers.master_warm, layers.master_solves),
        ),
        ("numeric.krylov_iters", "count", layers.krylov_iters),
        ("numeric.fallbacks", "count", layers.fallbacks),
        ("numeric.residual_max", "norm", layers.residual_max),
        ("hybrid.point_s", "s", layers.hybrid_point_s),
        ("hybrid.relax_iters", "count", layers.hybrid_relax_iters),
        ("exec.items", "count", replay.item_s.len() as f64),
        ("exec.work_s", "s", work_s),
        (
            "exec.point_p50_ms",
            "ms",
            1e3 * percentile(&replay.item_s, 0.50),
        ),
        (
            "exec.point_p99_ms",
            "ms",
            1e3 * percentile(&replay.item_s, 0.99),
        ),
        (
            "exec.efficiency",
            "ratio",
            work_s / (workers * (wall - outcome.setup_s)),
        ),
        ("bench.trace_overhead", "ratio", replay.wall_s / wall - 1.0),
        (
            "bench.accounted_frac",
            "ratio",
            (layers.parse_s + layers.compile_s + layers.build_s + work_s / workers) / wall,
        ),
        ("bench.workers", "count", workers),
        ("bench.nproc", "count", machine.nproc as f64),
        ("bench.calib_mops", "Mop/s", machine.calib_mops),
    ]
}

/// Result rows the deck's one analysis will publish.
fn planned_points(text: &str) -> Result<usize, String> {
    let deck = parse_full_deck(text).map_err(|e| e.to_string())?;
    let plan = compile(&deck).map_err(|e| e.to_string())?;
    Ok(plan
        .runs
        .iter()
        .map(|run| match &run.analysis {
            se_sim::PlannedAnalysis::Sweep { values, .. } => values.len(),
            se_sim::PlannedAnalysis::Map {
                outer_values,
                inner_values,
                ..
            } => outer_values.len() * inner_values.len(),
            se_sim::PlannedAnalysis::Transient { times, .. } => times.len(),
        })
        .sum::<usize>()
        .max(1))
}

/// Median set-up time over at least five repetitions, repeated for up to a
/// tenth of the run (at most 2 s) when set-up is cheap.
fn measure_setup(text: &str, seconds: f64) -> Result<f64, String> {
    let budget = Duration::from_secs_f64((seconds * 0.1).min(2.0));
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (start.elapsed() < budget && samples.len() < 1000) {
        let t = Instant::now();
        let deck = parse_full_deck(text).map_err(|e| e.to_string())?;
        let plan = compile(&deck).map_err(|e| e.to_string())?;
        for run in &plan.runs {
            black_box(
                build_stationary(&deck.netlist, &deck.options, run.engine)
                    .map_err(|e| e.to_string())?,
            );
        }
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&samples))
}

/// Closed-loop shipping runs: one deck run at a time, at least
/// [`MIN_RUNS`], then more while the next is expected to end within
/// `--seconds`.
fn run_shipping(label: &str, text: &str, seconds: f64, workers: usize) -> Result<Shipping, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let csv = format!("{OUT_DIR}/{}.csv", label.replace(' ', "-"));
    let options = ExecOptions {
        workers: Workers::Count(workers),
        csv: Some(csv.clone()),
        label: Some(label.into()),
        ..ExecOptions::default()
    };
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<se_sim::SimulationResult> = None;
    let mut consistent = true;
    loop {
        let t = Instant::now();
        let deck = parse_full_deck(text).map_err(|e| e.to_string())?;
        let plan = compile(&deck).map_err(|e| e.to_string())?;
        let mut results =
            execute_with_options(&deck, &plan, &options).map_err(|e| e.to_string())?;
        walls.push(t.elapsed().as_secs_f64());
        if results.len() != 1 {
            return Err(format!("expected one result table, got {}", results.len()));
        }
        let result = results.remove(0);
        match &first {
            None => first = Some(result),
            Some(first) => {
                consistent &= first.rows().len() == result.rows().len()
                    && first
                        .rows()
                        .iter()
                        .zip(result.rows())
                        .all(|(a, b)| same_bits(a, b));
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if walls.len() >= MIN_RUNS && elapsed + median(&walls) > seconds {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let result = first.expect("at least one run");
    let csv_path = se_sim::export_path(&csv, 0);
    let csv_lines = std::fs::read_to_string(&csv_path)
        .map_err(|e| format!("cannot read {csv_path}: {e}"))?
        .lines()
        .count();
    std::fs::remove_file(&csv_path).map_err(|e| format!("cannot remove {csv_path}: {e}"))?;
    if csv_lines != result.rows().len() + 1 {
        eprintln!(
            "deckbench: the CSV export holds {csv_lines} lines for {} rows",
            result.rows().len()
        );
        consistent = false;
    }
    if !consistent {
        eprintln!("deckbench: shipping runs disagreed with each other or with their CSV export");
    }
    Ok(Shipping {
        exact: matches!(result.engine(), "master-equation" | "hybrid-cosim"),
        columns: result.columns().to_vec(),
        rows: result.rows().to_vec(),
        walls,
        consistent,
        peak_rss_mb,
    })
}

/// Peak resident set size of this process so far, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`).
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests;
