//! Criterion benches behind Table I: conventional vs. equivalent simulation
//! of the chained didactic example (native kernel regime; the printed
//! harness `table1` covers the calibrated regime).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use evolve_bench::table1_example;
use evolve_core::EquivalentModelBuilder;
use evolve_model::elaborate;

const TOKENS: u64 = 2_000;

fn bench_conventional(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/conventional");
    group.sample_size(10);
    for stages in [1usize, 2, 4] {
        let (d, env) = table1_example(stages, TOKENS);
        group.bench_with_input(BenchmarkId::from_parameter(stages), &stages, |b, _| {
            b.iter(|| elaborate(&d.arch, &env).expect("builds").run())
        });
    }
    group.finish();
}

fn bench_equivalent(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/equivalent");
    group.sample_size(10);
    for stages in [1usize, 2, 4] {
        let (d, env) = table1_example(stages, TOKENS);
        group.bench_with_input(BenchmarkId::from_parameter(stages), &stages, |b, _| {
            b.iter(|| {
                EquivalentModelBuilder::new(&d.arch)
                    .record_observations(true)
                    .build(&env)
                    .expect("builds")
                    .run()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_conventional, bench_equivalent);
criterion_main!(benches);
