//! Criterion bench of the incremental physics core: kinetic Monte-Carlo
//! event throughput (incremental `LiveState` loop vs the pre-refactor
//! full-recompute loop) and the sparse master-equation state-space solve.
//!
//! Besides the criterion timings it writes `BENCH_kmc.json` at the
//! workspace root with events/sec for both loops, the measured speedup,
//! the aggregate throughput of N = 16 seed replicas run one after another,
//! the lane-group multi-core numbers (32 scalar replicas sharded into
//! width-8 groups on the se-exec pool, measured at 1 worker and at
//! min(4, hardware) workers, with `hardware_threads` recorded so
//! single-core runners are never mistaken for 4-core measurements) and
//! their ratios over the sequential aggregate — same seeding, same event
//! counts, both sides measured by the shared `se_bench::kmc` harness — and
//! the states/sec of a master-equation solve an order of magnitude beyond
//! the old dense-LU state limit, so CI can track the hot path over time.
//! The kernel-scaling record also carries one 2-D point: the incremental
//! kernel on the committed 16×16 island-array deck, whose coupling lists
//! are dense (a recorded number, not a gate).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use se_bench::{chain_system, kmc};
use se_montecarlo::{tunnel_system_from_netlist, KmcKernel, MasterEquation};
use se_netlist::parse_full_deck;
use se_numeric::sampling::{exponential_waiting_time, select_weighted};
use se_orthodox::{rates::tunnel_rate, ChargeState, TunnelSystem};
use se_units::constants::E;
use std::time::Instant;

/// Islands in the KMC bench circuit (the acceptance gate asks for ≥ 4).
const ISLANDS: usize = 8;
/// Measured events per sample.
const EVENTS: usize = 50_000;
/// Replicas in the sequential-baseline record (pinned at N = 16).
const REPLICAS: usize = 16;
/// Measured events *per replica* in the lane-group-vs-sequential
/// comparison — smaller than the scalar record's sample so one sample
/// stays ~100 ms, but identical on both sides of the ratio.
const REPLICA_EVENTS: usize = 20_000;
/// Replicas per lane group in the multi-core measurement: the deck
/// executor's default width.
const LANE_WIDTH: usize = 8;
/// Replicas in the lane-group measurement: 4 full-width groups, so the
/// min(4, hardware)-worker measurement can actually use 4 cores.
const LANE_REPLICAS: usize = 32;
/// Drain bias: far enough above the chain's Coulomb threshold that events
/// flow steadily at every gate phase.
const VDS: f64 = 0.15;
/// All islands gated to the charge-degeneracy point.
const VG: f64 = E / (2.0 * se_bench::REFERENCE_C_GATE);
/// Dilution-refrigerator operating point (kT ≪ charging energy), the
/// regime single-electron circuits actually run in.
const TEMPERATURE: f64 = 0.1;
/// Kernel-scaling sweep sizes and per-sample event counts. Event counts
/// shrink with N so the full-recompute side of a sample stays ~10–50 ms;
/// both kernels run the identical count at each size.
const SWEEP: [(usize, usize); 3] = [(8, 50_000), (64, 20_000), (256, 10_000)];
/// The committed 16×16 island-array deck: 512 junctions whose strong
/// coupling lists hold nearly every other junction.
const ARRAY_DECK: &str = include_str!("../../../examples/decks/array16x16_background.cir");
/// Drain bias of the array record: the middle point of the deck's sweep.
const ARRAY_VD: f64 = 0.6;
/// Measured events per array sample.
const ARRAY_EVENTS: usize = 5_000;
/// The master-equation bench solves at 1 K so thermal mixing populates a
/// representative share of the enumerated states.
const MASTER_TEMPERATURE: f64 = 1.0;
/// The dense-LU implementation's state cap, the yardstick for the sparse
/// state-space acceptance ratio.
const OLD_DENSE_STATE_LIMIT: usize = 20_000;
/// Master-equation bench: 4-island chain, window ±11 → 23⁴ = 279 841
/// states, 14× the old dense limit.
const MASTER_ISLANDS: usize = 4;
const MASTER_WINDOW: i64 = 11;

fn bench_chain() -> TunnelSystem {
    chain_system(ISLANDS, VDS, VG)
}

/// The seed-code measurement loop (`run_events`), reconstructed on the
/// public API: per event, a fresh event enumeration, a full `K⁻¹`-product
/// potential solve with its intermediate buffers, per-event validated rate
/// calls and the occupation-tracking state clone — the baseline the
/// incremental loop is measured against (the validation proptests pin that
/// both produce the same physics).
fn run_full_recompute_loop(system: &TunnelSystem, events: usize, seed: u64) -> (u64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = ChargeState::neutral(system.island_count());
    let mut occupation_time = vec![0.0; system.island_count()];
    let mut time = 0.0;
    let mut last_time = 0.0;
    let mut executed = 0_u64;
    for _ in 0..events {
        let before: Vec<i64> = state.0.clone();
        let candidates = system.events();
        let potentials = system.island_potentials(&state);
        let mut rates = Vec::with_capacity(candidates.len());
        let mut total = 0.0;
        for &event in &candidates {
            let df = system.delta_free_energy_with_potentials(&potentials, event);
            let rate = tunnel_rate(df, system.event_resistance(event), TEMPERATURE)
                .expect("valid rate parameters");
            rates.push(rate);
            total += rate;
        }
        if total <= 0.0 {
            break;
        }
        time += exponential_waiting_time(&mut rng, total).expect("positive total rate");
        let chosen = select_weighted(&mut rng, &rates).expect("positive total rate");
        system.apply_event(&mut state, candidates[chosen]);
        let dwell = time - last_time;
        for (acc, &n) in occupation_time.iter_mut().zip(&before) {
            *acc += dwell * n as f64;
        }
        last_time = time;
        executed += 1;
    }
    black_box(occupation_time);
    (executed, time)
}

fn run_incremental_loop(system: &TunnelSystem, events: usize, seed: u64) -> (u64, f64) {
    kmc::run_scalar(system, TEMPERATURE, seed, 0, events)
}

/// The array deck's system at [`ARRAY_VD`] and its temperature.
fn array_system() -> (TunnelSystem, f64) {
    let deck = parse_full_deck(ARRAY_DECK).expect("the committed array deck parses");
    let mut system =
        tunnel_system_from_netlist(&deck.netlist).expect("the array deck is a pure SET circuit");
    let drain = system
        .external_index("drain")
        .expect("the array deck has a drain");
    system
        .set_external_voltage(drain, ARRAY_VD)
        .expect("valid drain bias");
    (system, deck.options.temperature)
}

fn master_states() -> usize {
    (2 * MASTER_WINDOW as usize + 1).pow(MASTER_ISLANDS as u32)
}

fn solve_large_master() -> f64 {
    let system = chain_system(MASTER_ISLANDS, 1e-3, VG);
    let solver = MasterEquation::new(system, MASTER_TEMPERATURE)
        .expect("valid system")
        .with_window(MASTER_WINDOW)
        .expect("valid window");
    let start = Instant::now();
    let solution = solver.solve().expect("sparse solve succeeds");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(solution.states().len(), master_states());
    let total: f64 = solution.probabilities().iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
    elapsed
}

fn kmc_hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmc_hotpath");
    group.sample_size(10);

    let system = bench_chain();
    group.bench_function("chain8_50k_events_incremental", |b| {
        b.iter(|| black_box(run_incremental_loop(&system, EVENTS, 1)));
    });
    group.bench_function("chain8_50k_events_full_recompute", |b| {
        b.iter(|| black_box(run_full_recompute_loop(&system, EVENTS, 1)));
    });
    group.finish();

    let mut master_group = c.benchmark_group("master_sparse");
    master_group.sample_size(10);
    master_group.bench_function("chain4_window11_279841_states", |b| {
        b.iter(solve_large_master);
    });
    master_group.finish();

    // Structured record for CI tracking and the acceptance gate.
    let system = bench_chain();
    let incremental = kmc::best_events_per_sec(EVENTS as u64, 5, |seed| {
        run_incremental_loop(&system, EVENTS, seed)
    });
    let baseline = kmc::best_events_per_sec(EVENTS as u64, 5, |seed| {
        run_full_recompute_loop(&system, EVENTS, seed)
    });
    // Sequential baseline: 16 seed replicas run one at a time on the
    // scalar engine, through the shared `se_bench::kmc` harness like the
    // lane groups below, so the ratios compare measurement-identical
    // loops.
    let sequential_total = (REPLICAS * REPLICA_EVENTS) as u64;
    let sequential_aggregate = kmc::best_events_per_sec(sequential_total, 3, |seed| {
        kmc::run_sequential_replicas(&system, TEMPERATURE, seed, REPLICAS, 0, REPLICA_EVENTS)
    });
    // Multi-core lane-group record: 32 scalar replicas sharded into width-8
    // groups on the se-exec pool (4 schedulable items of the deck
    // executor's default width), at 1 worker and at min(4, hardware)
    // workers. Both numbers are honest wall-clock on *this* machine; the
    // JSON carries `hardware_threads` so a single-core runner's
    // multi-thread number (= its 1-thread number) is never mistaken for
    // a 4-core measurement.
    let hardware_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let bench_worker_threads = hardware_threads.min(4);
    let lane_total = (LANE_REPLICAS * REPLICA_EVENTS) as u64;
    let lane_groups_1 = kmc::best_events_per_sec(lane_total, 3, |seed| {
        kmc::run_lane_groups(
            &system,
            TEMPERATURE,
            seed,
            LANE_REPLICAS,
            LANE_WIDTH,
            0,
            REPLICA_EVENTS,
            1,
        )
    });
    let lane_groups_multi = kmc::best_events_per_sec(lane_total, 3, |seed| {
        kmc::run_lane_groups(
            &system,
            TEMPERATURE,
            seed,
            LANE_REPLICAS,
            LANE_WIDTH,
            0,
            REPLICA_EVENTS,
            bench_worker_threads,
        )
    });
    let master_seconds = (0..3)
        .map(|_| solve_large_master())
        .fold(f64::MAX, f64::min);
    let states = master_states();
    // Kernel-scaling sweep: the tree/axpy kernel against full recompute on
    // chains of N ∈ {8, 64, 256} islands, same circuits and seeds on both
    // sides, construction excluded from the timed region
    // (`kernel_events_per_sec`). `events_per_sec_nN` is the tree kernel;
    // `large_n_speedup` (tree / full recompute at N = 256) carries the
    // CI-gated ≥ 3× incremental-maintenance acceptance. The 2-D point
    // (`events_per_sec_array16x16`) times the tree kernel alone on the
    // array deck at the deck's own temperature; it is recorded, not gated.
    let sweep: Vec<(usize, f64, f64)> = SWEEP
        .iter()
        .map(|&(n, events)| {
            let system = chain_system(n, VDS, VG);
            let tree =
                kmc::kernel_events_per_sec(&system, TEMPERATURE, 3, events, KmcKernel::Incremental);
            let full = kmc::kernel_events_per_sec(
                &system,
                TEMPERATURE,
                3,
                events,
                KmcKernel::FullRecompute,
            );
            (n, tree, full)
        })
        .collect();
    let sweep_json: String = sweep
        .iter()
        .map(|&(n, tree, full)| {
            format!(
                "  \"events_per_sec_n{n}\": {tree:.1},\n  \
                 \"events_per_sec_full_recompute_n{n}\": {full:.1},\n"
            )
        })
        .collect();
    let (array, array_temperature) = array_system();
    let array_tree = kmc::kernel_events_per_sec(
        &array,
        array_temperature,
        3,
        ARRAY_EVENTS,
        KmcKernel::Incremental,
    );
    let (_, n256_tree, n256_full) = sweep[2];
    let large_n_speedup = n256_tree / n256_full;
    let json = format!(
        "{{\n  \"bench\": \"kmc_hotpath\",\n  \"islands\": {ISLANDS},\n  \"events\": {EVENTS},\n  \
         \"events_per_sec_incremental\": {incremental:.1},\n  \
         \"events_per_sec_full_recompute\": {baseline:.1},\n  \
         \"speedup\": {:.2},\n  \
         \"sequential_replicas\": {REPLICAS},\n  \
         \"events_per_replica\": {REPLICA_EVENTS},\n  \
         \"sequential_events_per_sec_aggregate\": {sequential_aggregate:.1},\n  \
         \"lane_width\": {LANE_WIDTH},\n  \
         \"lane_replicas\": {LANE_REPLICAS},\n  \
         \"hardware_threads\": {hardware_threads},\n  \
         \"bench_worker_threads\": {bench_worker_threads},\n  \
         \"lane_group_events_per_sec_1_thread\": {lane_groups_1:.1},\n  \
         \"lane_group_events_per_sec_multi_thread\": {lane_groups_multi:.1},\n  \
         \"lane_group_speedup_vs_sequential_1_thread\": {:.3},\n  \
         \"lane_group_speedup_vs_sequential\": {:.3},\n\
         {sweep_json}  \
         \"events_per_sec_array16x16\": {array_tree:.1},\n  \
         \"large_n_speedup\": {large_n_speedup:.2},\n  \
         \"master_islands\": {MASTER_ISLANDS},\n  \"master_window\": {MASTER_WINDOW},\n  \
         \"master_states\": {states},\n  \"master_solve_seconds\": {master_seconds:.6},\n  \
         \"master_states_per_sec\": {:.1},\n  \
         \"old_dense_state_limit\": {OLD_DENSE_STATE_LIMIT},\n  \
         \"state_space_ratio\": {:.2}\n}}\n",
        incremental / baseline,
        lane_groups_1 / sequential_aggregate,
        lane_groups_multi / sequential_aggregate,
        states as f64 / master_seconds,
        states as f64 / OLD_DENSE_STATE_LIMIT as f64,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kmc.json");
    std::fs::write(path, &json).expect("BENCH_kmc.json is writable");
    println!("wrote {path}:\n{json}");
}

criterion_group!(benches, kmc_hotpath);
criterion_main!(benches);
