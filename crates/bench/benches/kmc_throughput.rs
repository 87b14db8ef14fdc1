//! Criterion bench: kinetic Monte-Carlo event throughput on the reference
//! SET and on multi-island chains.
//!
//! All measurement loops come from the shared [`se_bench::kmc`] harness —
//! the same code `kmc_hotpath` uses for its BENCH_kmc.json record — so the
//! numbers here are directly comparable to the tracked hot-path figures.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use se_bench::{chain_system, kmc, reference_system};

fn kmc_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmc_events");
    group.sample_size(10);

    group.bench_function("single_set_10k_events", |b| {
        let system = reference_system(1e-3, 0.08, 0.0);
        b.iter(|| black_box(kmc::run_scalar(&system, 1.0, 1, 100, 10_000)));
    });

    for islands in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("chain_2k_events", islands),
            &islands,
            |b, &islands| {
                let system = chain_system(islands, 1e-3, 0.08);
                b.iter(|| black_box(kmc::run_scalar(&system, 1.0, 2, 100, 2_000)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, kmc_throughput);
criterion_main!(benches);
