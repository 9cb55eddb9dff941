//! E-PERF3 — batch throughput of the `bagcq-engine` evaluation service
//! at 1/2/4/8 workers. Expected shape: near-linear scaling while jobs are
//! independent and CPU-bound, flattening once workers exceed cores or the
//! single-flight cache collapses duplicated work; the cached round should
//! be dramatically faster than the cold round at any worker count.

use bagcq_bench::{digraph_schema, random_digraph};
use bagcq_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;

/// A cold mixed batch: counts on both engines over several databases —
/// every job distinct, so the cache cannot help inside one round.
fn cold_batch(schema: &Arc<Schema>, dbs: &[Arc<Structure>]) -> Vec<Job> {
    let queries = [
        path_query(schema, "E", 3),
        path_query(schema, "E", 5),
        cycle_query(schema, "E", 4),
        star_query(schema, "E", 4),
    ];
    dbs.iter()
        .flat_map(|d| {
            queries.iter().flat_map(|q| {
                [
                    Job::count_with(BackendChoice::Naive, q.clone(), Arc::clone(d)),
                    Job::count_with(BackendChoice::Treewidth, q.clone(), Arc::clone(d)),
                ]
            })
        })
        .collect()
}

fn bench_batch_throughput(c: &mut Criterion) {
    let schema = digraph_schema();
    let dbs: Vec<Arc<Structure>> =
        (0..6).map(|i| Arc::new(random_digraph(&schema, 12, 0.25, 100 + i))).collect();
    let batch = cold_batch(&schema, &dbs);

    let mut group = c.benchmark_group("engine_batch");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(900));
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.throughput(Throughput::Elements(batch.len() as u64));
    for workers in [1usize, 2, 4, 8] {
        // Fresh engine per iteration: measures a *cold* batch (pool
        // startup included — that is the realistic unit of work).
        group.bench_with_input(BenchmarkId::new("cold", workers), &workers, |b, &workers| {
            b.iter(|| {
                let engine = EvalEngine::with_workers(workers);
                for h in engine.submit_batch(batch.clone()) {
                    criterion::black_box(h.wait());
                }
            })
        });
        // Warm cache: the same batch against a pre-warmed engine — pure
        // cache-lookup throughput.
        group.bench_with_input(BenchmarkId::new("warm", workers), &workers, |b, &workers| {
            let engine = EvalEngine::with_workers(workers);
            for h in engine.submit_batch(batch.clone()) {
                h.wait();
            }
            b.iter(|| {
                for h in engine.submit_batch(batch.clone()) {
                    criterion::black_box(h.wait());
                }
            })
        });
    }
    group.finish();
}

fn bench_cross_validation_overhead(c: &mut Criterion) {
    let schema = digraph_schema();
    let q = path_query(&schema, "E", 4);
    let mut group = c.benchmark_group("engine_cross_validate");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(600));
    for (label, cross) in [("off", false), ("on", true)] {
        group.bench_function(label, |b| {
            let engine = EvalEngine::new(EngineConfig {
                workers: 2,
                cross_validate: cross,
                ..EngineConfig::default()
            });
            let mut seed = 0u64;
            b.iter(|| {
                // A fresh database each iteration keeps the cache cold.
                seed += 1;
                let fresh = Arc::new(random_digraph(&schema, 10, 0.3, seed));
                criterion::black_box(engine.submit(Job::count(q.clone(), fresh)).wait())
            })
        });
    }
    group.finish();
}

/// E-KERNEL companion: the same cold batch executed through the engine
/// with every job pinned to one [`BackendChoice`] — the two kernels plus
/// `Auto`'s heuristic pick. Expected shape: `auto` tracks the better of
/// the two on this count-heavy workload.
fn bench_backend_comparison(c: &mut Criterion) {
    let schema = digraph_schema();
    let dbs: Vec<Arc<Structure>> =
        (0..4).map(|i| Arc::new(random_digraph(&schema, 13, 0.4, 300 + i))).collect();
    let queries = [
        path_query(&schema, "E", 4),
        path_query(&schema, "E", 2).power(12),
        cycle_query(&schema, "E", 4),
        star_query(&schema, "E", 5),
    ];

    let mut group = c.benchmark_group("engine_backend_comparison");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(900));
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.throughput(Throughput::Elements((dbs.len() * queries.len()) as u64));
    for choice in BackendChoice::ALL {
        let batch: Vec<Job> = dbs
            .iter()
            .flat_map(|d| queries.iter().map(|q| Job::count_with(choice, q.clone(), Arc::clone(d))))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(choice), &batch, |b, batch| {
            b.iter(|| {
                // Fresh engine per iteration: a cold cache, so every job
                // actually runs its pinned kernel.
                let engine = EvalEngine::with_workers(2);
                for h in engine.submit_batch(batch.clone()) {
                    criterion::black_box(h.wait());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_throughput,
    bench_cross_validation_overhead,
    bench_backend_comparison
);
criterion_main!(benches);
