//! The traced run: the deck replayed through each layer's public functions
//! from the benchmark's own code, with a timer around every call.
//!
//! The replay reproduces the shipping executor's work items and seeds
//! (per-point seeds and per-replica seeds through `derive_seed`, lane
//! groups of [`DEFAULT_LANE_WIDTH`] replicas, warm-started blocks of
//! [`MASTER_WARM_BLOCK`] master solves) and runs them on its own pool of
//! the same worker count. Where it calls the same public function as the
//! shipping path (`run_events`, `run_events_all`, `solve_warm`,
//! `stationary_currents`), its rows must equal the shipping table bit for
//! bit, which the caller checks.
//!
//! A few calls exist only to time a layer and are not part of the shipped
//! work: a `tunnel_system_from_netlist` build, an `equilibrate` on a clone
//! of each fresh KMC simulator, a `generator` assembly before each master
//! solve, and a `HybridSimulator::solve` per hybrid point for its
//! relaxation count. They are excluded from the per-item work times and
//! included in the traced wall time.

use se_engine::{ControlId, ObservableId, StationaryEngine};
use se_exec::{derive_seed, lane_group_count, lane_group_range};
use se_hybrid::{HybridSimulator, IslandEngine};
use se_montecarlo::{
    tunnel_system_from_netlist, BatchedKmcEngine, MasterEquation, MasterSolution,
    MonteCarloSimulator, RunResult, SimulationOptions,
};
use se_netlist::{parse_full_deck, Deck};
use se_sim::exec::DEFAULT_LANE_WIDTH;
use se_sim::{build_stationary, compile, PlannedAnalysis, StationaryBackend, MASTER_WARM_BLOCK};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Per-layer counts and busy times of one traced run. Times are summed
/// over calls (and so over workers) in seconds.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub parse_s: f64,
    pub compile_s: f64,
    pub build_s: f64,
    pub orthodox_build_s: f64,
    pub strong_density: f64,
    pub coupling_mb: f64,
    pub kmc_new_s: f64,
    pub kmc_equil_s: f64,
    pub kmc_equil_events: f64,
    pub kmc_measure_s: f64,
    pub kmc_measure_events: f64,
    pub batched_group_s: f64,
    pub batched_events: f64,
    pub master_states: f64,
    pub master_assemble_s: f64,
    pub master_solve_s: f64,
    pub master_solves: f64,
    pub master_warm: f64,
    pub krylov_iters: f64,
    pub fallbacks: f64,
    pub residual_max: f64,
    pub hybrid_point_s: f64,
    pub hybrid_relax_iters: f64,
}

impl Layers {
    /// Adds the item-level fields of `other` (the deck-level ones are set
    /// once, outside the items).
    fn absorb(&mut self, other: &Layers) {
        self.kmc_new_s += other.kmc_new_s;
        self.kmc_equil_s += other.kmc_equil_s;
        self.kmc_equil_events += other.kmc_equil_events;
        self.kmc_measure_s += other.kmc_measure_s;
        self.kmc_measure_events += other.kmc_measure_events;
        self.batched_group_s += other.batched_group_s;
        self.batched_events += other.batched_events;
        self.master_states = self.master_states.max(other.master_states);
        self.master_assemble_s += other.master_assemble_s;
        self.master_solve_s += other.master_solve_s;
        self.master_solves += other.master_solves;
        self.master_warm += other.master_warm;
        self.krylov_iters += other.krylov_iters;
        self.fallbacks += other.fallbacks;
        self.residual_max = self.residual_max.max(other.residual_max);
        self.hybrid_point_s += other.hybrid_point_s;
        self.hybrid_relax_iters += other.hybrid_relax_iters;
    }

    /// Tunnel events fired, equilibration included.
    pub fn kmc_events(&self) -> f64 {
        self.kmc_equil_events + self.kmc_measure_events + self.batched_events
    }
}

/// The result of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Published rows, assembled as the shipping executor assembles them.
    pub rows: Vec<Vec<f64>>,
    /// Per point: whether every solver-level check passed (master residual
    /// within tolerance, hybrid relaxation converged).
    pub point_ok: Vec<bool>,
    pub layers: Layers,
    /// Work time of each item: the shipping-equivalent calls only.
    pub item_s: Vec<f64>,
    /// Wall time of the whole traced deck run.
    pub wall_s: f64,
}

/// One bias point: control handles with values, the row prefix, and the
/// swept source names with values.
struct Point {
    controls: Vec<(ControlId, f64)>,
    prefix: Vec<f64>,
    named: Vec<(String, f64)>,
}

enum Mode {
    /// One point per item.
    Single,
    /// One lane group of a point's replica ensemble per item.
    Ensemble { repeats: usize, groups: usize },
    /// One warm-started block of master solves per item.
    MasterBlock,
}

struct Context {
    deck: Deck,
    backend: StationaryBackend,
    observables: Vec<ObservableId>,
    observable_names: Vec<String>,
    points: Vec<Point>,
    mode: Mode,
    base_seed: u64,
    tolerance: f64,
}

/// What one work item produced.
#[derive(Default)]
struct ItemOut {
    rows: Vec<Vec<f64>>,
    ok: bool,
    secs: f64,
    layers: Layers,
}

/// Runs `text` through the traced path on `workers` threads.
pub fn run(text: &str, workers: usize) -> Res<Replay> {
    let start = Instant::now();
    let mut layers = Layers::default();
    let t = Instant::now();
    let deck = parse_full_deck(text).map_err(err)?;
    layers.parse_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let plan = compile(&deck).map_err(err)?;
    layers.compile_s = t.elapsed().as_secs_f64();
    let [run] = plan.runs.as_slice() else {
        return Err(format!("expected one analysis, got {}", plan.runs.len()));
    };
    let t = Instant::now();
    let backend = build_stationary(&deck.netlist, &deck.options, run.engine).map_err(err)?;
    layers.build_s = t.elapsed().as_secs_f64();

    if matches!(
        backend,
        StationaryBackend::Kmc(_) | StationaryBackend::Master(_)
    ) {
        let t = Instant::now();
        let system = tunnel_system_from_netlist(&deck.netlist).map_err(err)?;
        layers.orthodox_build_s = t.elapsed().as_secs_f64();
        let junctions = system.junctions().len();
        let strong: usize = (0..junctions)
            .map(|j| system.junction_strong_couplings(j).len())
            .sum();
        layers.strong_density = strong as f64 / (junctions * junctions) as f64;
        // One u32 index plus one f64 coupling value per strong entry.
        layers.coupling_mb = (strong * (4 + 8)) as f64 / 1e6;
    }

    let observables = run
        .observables
        .iter()
        .map(|name| backend.resolve_observable(name))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let observable_names = observables
        .iter()
        .map(|&ObservableId(index)| junction_name(&backend, index))
        .collect::<Res<Vec<_>>>()?;
    let points = bias_points(&backend, &run.analysis)?;
    let mode = match (plan.repeats, &backend) {
        (Some(repeats), _) => Mode::Ensemble {
            repeats,
            groups: lane_group_count(repeats, DEFAULT_LANE_WIDTH).max(1),
        },
        (None, StationaryBackend::Master(_)) => Mode::MasterBlock,
        (None, _) => Mode::Single,
    };
    let items = match mode {
        Mode::Single => points.len(),
        Mode::Ensemble { groups, .. } => points.len() * groups,
        Mode::MasterBlock => points.len().div_ceil(MASTER_WARM_BLOCK),
    };
    let context = Context {
        deck,
        backend,
        observables,
        observable_names,
        points,
        mode,
        base_seed: plan.seed,
        tolerance: se_numeric::sparse::StationaryOptions::default().tolerance,
    };

    let outs = run_pool(items, workers, |index| context.solve_item(index))?;
    let mut rows = Vec::with_capacity(context.points.len());
    let mut point_ok = Vec::with_capacity(context.points.len());
    let mut item_s = Vec::with_capacity(outs.len());
    for out in &outs {
        layers.absorb(&out.layers);
        item_s.push(out.secs);
    }
    match context.mode {
        Mode::Ensemble { groups, .. } => {
            for (point, group_outs) in context.points.iter().zip(outs.chunks(groups)) {
                let replicas: Vec<&[f64]> = group_outs
                    .iter()
                    .flat_map(|out| out.rows.iter().map(Vec::as_slice))
                    .collect();
                rows.push(ensemble_row(&point.prefix, &replicas));
                point_ok.push(group_outs.iter().all(|out| out.ok));
            }
        }
        Mode::Single | Mode::MasterBlock => {
            for out in outs {
                point_ok.extend(std::iter::repeat_n(out.ok, out.rows.len()));
                rows.extend(out.rows);
            }
        }
    }
    Ok(Replay {
        rows,
        point_ok,
        layers,
        item_s,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// Runs `items` work items on `workers` threads, each taking the next
/// unclaimed index, and returns the outputs in item order.
fn run_pool<T: Send>(
    items: usize,
    workers: usize,
    solve: impl Fn(usize) -> Res<T> + Sync,
) -> Res<Vec<T>> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Res<T>>>> = Mutex::new((0..items).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                // The counter only hands out indices; results travel
                // through the mutex.
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= items {
                    break;
                }
                let out = solve(index);
                slots.lock().expect("a replay worker panicked")[index] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("a replay worker panicked")
        .into_iter()
        .map(|slot| slot.expect("every item was claimed"))
        .collect()
}

fn junction_name(backend: &StationaryBackend, index: usize) -> Res<String> {
    let names: Vec<String> = match backend {
        StationaryBackend::Kmc(e) => junctions(e.inner().system()),
        StationaryBackend::Master(e) => junctions(e.inner().system()),
        StationaryBackend::Hybrid(e) => e.junction_names().to_vec(),
        _ => {
            return Err(format!(
                "no replay for the {} engine",
                backend.engine_name()
            ))
        }
    };
    names
        .get(index)
        .cloned()
        .ok_or_else(|| format!("unknown junction handle {index}"))
}

fn junctions(system: &se_montecarlo::prelude::TunnelSystem) -> Vec<String> {
    system.junctions().iter().map(|j| j.name.clone()).collect()
}

/// The bias points of a sweep or map, in the shipping executor's order
/// (a map's inner axis fastest).
fn bias_points(backend: &StationaryBackend, analysis: &PlannedAnalysis) -> Res<Vec<Point>> {
    let resolve = |name: &str| backend.resolve_control(name).map_err(err);
    Ok(match analysis {
        PlannedAnalysis::Sweep { control, values } => {
            let id = resolve(control)?;
            values
                .iter()
                .map(|&v| Point {
                    controls: vec![(id, v)],
                    prefix: vec![v],
                    named: vec![(control.clone(), v)],
                })
                .collect()
        }
        PlannedAnalysis::Map {
            outer_control,
            outer_values,
            inner_control,
            inner_values,
        } => {
            let (outer, inner) = (resolve(outer_control)?, resolve(inner_control)?);
            let mut points = Vec::with_capacity(outer_values.len() * inner_values.len());
            for &o in outer_values {
                for &i in inner_values {
                    points.push(Point {
                        controls: vec![(outer, o), (inner, i)],
                        prefix: vec![o, i],
                        named: vec![(outer_control.clone(), o), (inner_control.clone(), i)],
                    });
                }
            }
            points
        }
        PlannedAnalysis::Transient { .. } => {
            return Err("the replay covers .dc sweeps and maps only".into())
        }
    })
}

impl Context {
    fn solve_item(&self, index: usize) -> Res<ItemOut> {
        match self.mode {
            Mode::Single => {
                let seed = derive_seed(self.base_seed, index as u64);
                self.solve_point(&self.points[index], seed)
            }
            Mode::Ensemble { repeats, groups } => {
                let (point, group) = (index / groups, index % groups);
                let point_seed = derive_seed(self.base_seed, point as u64);
                let seeds: Vec<u64> = lane_group_range(repeats, DEFAULT_LANE_WIDTH, group)
                    .map(|k| derive_seed(point_seed, k as u64))
                    .collect();
                if seeds.len() == 1 {
                    self.solve_point(&self.points[point], seeds[0])
                } else {
                    self.solve_group(&self.points[point], &seeds)
                }
            }
            Mode::MasterBlock => self.solve_master_block(index),
        }
    }

    /// One scalar solve; the row is the prefix plus the currents, except in
    /// an ensemble, where it is the raw replica currents.
    fn solve_point(&self, point: &Point, seed: u64) -> Res<ItemOut> {
        let mut out = match &self.backend {
            StationaryBackend::Kmc(e) => self.solve_kmc(e.inner(), point, seed)?,
            StationaryBackend::Hybrid(e) => {
                let t = Instant::now();
                let currents = self
                    .backend
                    .stationary_currents(&point.controls, &self.observables, seed)
                    .map_err(err)?;
                let secs = t.elapsed().as_secs_f64();
                let mut netlist = self.deck.netlist.clone();
                for (name, value) in &point.named {
                    netlist.set_source_voltage(name, *value).map_err(err)?;
                }
                let mut options = *e.options();
                if let IslandEngine::MonteCarlo { events, .. } = options.engine {
                    options.engine = IslandEngine::MonteCarlo { events, seed };
                }
                let solution = HybridSimulator::new(&netlist, options)
                    .and_then(|simulator| simulator.solve())
                    .map_err(err)?;
                ItemOut {
                    rows: vec![currents],
                    ok: solution.converged(),
                    secs,
                    layers: Layers {
                        hybrid_point_s: secs,
                        hybrid_relax_iters: solution.iterations() as f64,
                        ..Layers::default()
                    },
                }
            }
            other => return Err(format!("no replay for the {} engine", other.engine_name())),
        };
        if !matches!(self.mode, Mode::Ensemble { .. }) {
            out.rows[0].splice(0..0, point.prefix.iter().copied());
        }
        Ok(out)
    }

    /// One KMC solve as `MonteCarloSimulator::stationary_currents` runs it,
    /// with `new`, equilibration and measurement timed apart.
    fn solve_kmc(&self, proto: &MonteCarloSimulator, point: &Point, seed: u64) -> Res<ItemOut> {
        let start = Instant::now();
        let mut system = proto.system().clone();
        for &(ControlId(electrode), value) in &point.controls {
            system.set_external_voltage(electrode, value).map_err(err)?;
        }
        let options = SimulationOptions {
            seed: Some(seed),
            ..*proto.options()
        };
        let t = Instant::now();
        let mut simulator = MonteCarloSimulator::new(system, options).map_err(err)?;
        let new_s = t.elapsed().as_secs_f64();
        let prepare_s = start.elapsed().as_secs_f64();

        let mut probe = simulator.clone();
        let t = Instant::now();
        probe.equilibrate().map_err(err)?;
        let equil_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let result = simulator
            .run_events(options.events_per_solve)
            .map_err(err)?;
        let run_s = t.elapsed().as_secs_f64();
        Ok(ItemOut {
            rows: vec![self.currents_of(&result)?],
            ok: true,
            secs: prepare_s + run_s,
            layers: Layers {
                kmc_new_s: new_s,
                kmc_equil_s: equil_s,
                kmc_equil_events: options.equilibration_events as f64,
                kmc_measure_s: (run_s - equil_s).max(0.0),
                kmc_measure_events: result.events() as f64,
                ..Layers::default()
            },
        })
    }

    /// One lane group as `MonteCarloSimulator::stationary_currents_ensemble`
    /// runs it: the raw currents of each replica, in replica order.
    fn solve_group(&self, point: &Point, seeds: &[u64]) -> Res<ItemOut> {
        let StationaryBackend::Kmc(e) = &self.backend else {
            return Err("replica ensembles replay on the KMC engine only".into());
        };
        let proto = e.inner();
        let t = Instant::now();
        let mut system = proto.system().clone();
        for &(ControlId(electrode), value) in &point.controls {
            system.set_external_voltage(electrode, value).map_err(err)?;
        }
        let options = *proto.options();
        let mut batch = BatchedKmcEngine::new(system, options, seeds).map_err(err)?;
        let results = batch
            .run_events_all(options.events_per_solve)
            .map_err(err)?;
        let secs = t.elapsed().as_secs_f64();
        let measured: u64 = results.iter().map(RunResult::events).sum();
        Ok(ItemOut {
            rows: results
                .iter()
                .map(|result| self.currents_of(result))
                .collect::<Res<_>>()?,
            ok: true,
            secs,
            layers: Layers {
                batched_group_s: secs,
                batched_events: (options.equilibration_events * seeds.len()) as f64
                    + measured as f64,
                ..Layers::default()
            },
        })
    }

    /// One warm-started block as the shipping executor runs it: the first
    /// point cold-starts, each later one starts from its predecessor.
    fn solve_master_block(&self, index: usize) -> Res<ItemOut> {
        let StationaryBackend::Master(e) = &self.backend else {
            return Err("warm blocks replay on the master equation only".into());
        };
        let master: &MasterEquation = e.inner();
        let start = index * MASTER_WARM_BLOCK;
        let end = self.points.len().min(start + MASTER_WARM_BLOCK);
        let mut out = ItemOut {
            ok: true,
            ..ItemOut::default()
        };
        let mut warm: Option<MasterSolution> = None;
        for point in &self.points[start..end] {
            let t = Instant::now();
            let mut solver = master.clone();
            for &(ControlId(electrode), value) in &point.controls {
                solver
                    .system_mut()
                    .set_external_voltage(electrode, value)
                    .map_err(err)?;
            }
            let clone_s = t.elapsed().as_secs_f64();

            let t = Instant::now();
            solver.generator().map_err(err)?;
            out.layers.master_assemble_s += t.elapsed().as_secs_f64();

            let t = Instant::now();
            let solution = solver.solve_warm(warm.as_ref()).map_err(err)?;
            let solve_s = t.elapsed().as_secs_f64();
            out.layers.master_solve_s += solve_s;
            out.secs += clone_s + solve_s;

            // The solver's own acceptance bound: Gauss-Seidel stops within the
            // tolerance, BiCGSTAB accepts a true residual up to ten times it.
            let stats = solution.stats();
            let accept = if stats.solver.contains("fallback") {
                out.layers.fallbacks += 1.0;
                self.tolerance
            } else {
                out.layers.krylov_iters += stats.iterations as f64;
                10.0 * self.tolerance
            };
            out.layers.residual_max = out.layers.residual_max.max(stats.residual);
            out.layers.master_solves += 1.0;
            out.layers.master_warm += f64::from(u8::from(stats.warm_started));
            out.layers.master_states = out.layers.master_states.max(solution.states().len() as f64);
            out.ok &= stats.residual <= accept;

            let mut row = point.prefix.clone();
            for name in &self.observable_names {
                row.push(
                    solution
                        .junction_current(name)
                        .ok_or_else(|| format!("no current recorded for junction `{name}`"))?,
                );
            }
            out.rows.push(row);
            warm = Some(solution);
        }
        Ok(out)
    }

    fn currents_of(&self, result: &RunResult) -> Res<Vec<f64>> {
        self.observable_names
            .iter()
            .map(|name| {
                result
                    .junction_current(name)
                    .ok_or_else(|| format!("no current recorded for junction `{name}`"))
            })
            .collect()
    }
}

/// A point's published ensemble row: the prefix, then the mean and standard
/// error of each observable over the replicas, summed in replica order
/// exactly as the shipping executor sums them.
fn ensemble_row(prefix: &[f64], replicas: &[&[f64]]) -> Vec<f64> {
    let width = replicas.first().map_or(0, |row| row.len());
    let n = replicas.len();
    let mut row = prefix.to_vec();
    for k in 0..width {
        let mean = replicas.iter().map(|r| r[k]).sum::<f64>() / n as f64;
        let stderr = if n < 2 {
            0.0
        } else {
            let variance = replicas
                .iter()
                .map(|r| (r[k] - mean) * (r[k] - mean))
                .sum::<f64>()
                / (n - 1) as f64;
            (variance / n as f64).sqrt()
        };
        row.push(mean);
        row.push(stderr);
    }
    row
}
