//! Parda scaling microbenchmarks: rank count (D-scaling), cache bound
//! (ablation D3), phase size (ablation D4), and transport (message-passing
//! vs shared-memory cascade).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parda_core::phased::parda_phased;
use parda_core::{parallel, PardaConfig};
use parda_trace::spec::SpecBenchmark;
use parda_trace::{AddressStream, SliceStream, Trace};
use parda_tree::SplayTree;
use std::hint::black_box;

fn mcf_trace(n: u64) -> Trace {
    SpecBenchmark::by_name("mcf")
        .unwrap()
        .generator(n, 3)
        .take_trace(n as usize)
}

fn bench_rank_scaling(c: &mut Criterion) {
    let n = 200_000u64;
    let trace = mcf_trace(n);
    let mut group = c.benchmark_group("parda/ranks");
    group.throughput(Throughput::Elements(n));
    group.sample_size(10);
    for ranks in [1usize, 2, 4, 8] {
        let config = PardaConfig::with_ranks(ranks);
        group.bench_with_input(BenchmarkId::from_parameter(ranks), &config, |b, cfg| {
            b.iter(|| black_box(parallel::parda_threads::<SplayTree>(trace.as_slice(), cfg)))
        });
    }
    group.finish();
}

fn bench_bound_sweep(c: &mut Criterion) {
    let n = 200_000u64;
    let trace = mcf_trace(n);
    let mut group = c.benchmark_group("parda/bound");
    group.throughput(Throughput::Elements(n));
    group.sample_size(10);
    for bound in [64u64, 256, 1024, 4096] {
        let config = PardaConfig::with_ranks(4).bounded(bound);
        group.bench_with_input(BenchmarkId::from_parameter(bound), &config, |b, cfg| {
            b.iter(|| black_box(parallel::parda_threads::<SplayTree>(trace.as_slice(), cfg)))
        });
    }
    // Unbounded reference point.
    let config = PardaConfig::with_ranks(4);
    group.bench_function("unbounded", |b| {
        b.iter(|| {
            black_box(parallel::parda_threads::<SplayTree>(
                trace.as_slice(),
                &config,
            ))
        })
    });
    group.finish();
}

fn bench_phase_size(c: &mut Criterion) {
    let n = 200_000u64;
    let trace = mcf_trace(n);
    let mut group = c.benchmark_group("parda/phase_chunk");
    group.throughput(Throughput::Elements(n));
    group.sample_size(10);
    for chunk in [1_024usize, 8_192, 65_536] {
        let config = PardaConfig::with_ranks(4);
        group.bench_with_input(BenchmarkId::from_parameter(chunk), &chunk, |b, &chunk| {
            b.iter(|| {
                black_box(parda_phased::<SplayTree, _>(
                    SliceStream::new(trace.as_slice()),
                    chunk,
                    &config,
                ))
            })
        });
    }
    group.finish();
}

fn bench_transport(c: &mut Criterion) {
    let n = 200_000u64;
    let trace = mcf_trace(n);
    let config = PardaConfig::with_ranks(4);
    let mut group = c.benchmark_group("parda/transport");
    group.throughput(Throughput::Elements(n));
    group.sample_size(10);
    group.bench_function("threads-cascade", |b| {
        b.iter(|| {
            black_box(parallel::parda_threads::<SplayTree>(
                trace.as_slice(),
                &config,
            ))
        })
    });
    group.bench_function("message-passing", |b| {
        b.iter(|| black_box(parallel::parda_msg::<SplayTree>(trace.as_slice(), &config)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rank_scaling,
    bench_bound_sweep,
    bench_phase_size,
    bench_transport
);
criterion_main!(benches);
