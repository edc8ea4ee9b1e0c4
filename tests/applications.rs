//! Integration tests for the application layer built on the analyzers:
//! object-level analysis, partitioning, sampling, and phase detection —
//! composed end-to-end through the facade API.

use parda::core::concurrent::optimal_partition;
use parda::core::object::{analyze_by_region, RegionMap};
use parda::core::window::{detect_phases, windowed_histograms};
use parda::pinsim::{collect_trace, MatMul, StreamTriad};
use parda::prelude::*;

#[test]
fn object_analysis_of_a_real_kernel_sums_to_global() {
    let n = 24u64;
    let trace = collect_trace(MatMul::naive(n as usize));
    let bytes = n * n * 8;
    let mut map = RegionMap::new();
    let ids: Vec<_> = [0x1000_0000u64, 0x2000_0000, 0x3000_0000]
        .iter()
        .enumerate()
        .map(|(i, &base)| map.add_region(&format!("m{i}"), base, base + bytes))
        .collect();

    let analysis = analyze_by_region::<SplayTree>(trace.as_slice(), &map);
    let mut sum = ReuseHistogram::new();
    for &id in &ids {
        sum.merge(&analysis.per_region[id]);
    }
    sum.merge(&analysis.unmapped);
    assert_eq!(sum, analysis.total);
    assert_eq!(
        analysis.total,
        analyze_sequential::<SplayTree>(trace.as_slice(), None)
    );
}

#[test]
fn partitioning_beats_even_split_on_asymmetric_pair() {
    let hot: Vec<u64> = (0..20_000).map(|i| i % 32).collect();
    let cold: Vec<u64> = (0..20_000).map(|i| 1_000 + i % 4_000).collect();
    let hh = analyze_sequential::<SplayTree>(&hot, None);
    let hc = analyze_sequential::<SplayTree>(&cold, None);

    let capacity = 4_096u64 + 64;
    let (alloc, optimal) = optimal_partition(&[&hh, &hc], capacity, 32);
    assert_eq!(alloc.iter().sum::<u64>(), capacity);
    let even = hh.miss_count(capacity / 2) + hc.miss_count(capacity / 2);
    assert!(optimal <= even);
    // The hot loop only needs 32 lines; the optimum must hand nearly
    // everything to the cold scanner.
    assert!(alloc[1] >= 4_000, "cold program got {}", alloc[1]);
}

#[test]
fn sampled_estimate_tracks_exact_mrc_on_spec_model() {
    let bench = SpecBenchmark::by_name("gcc").unwrap();
    let trace = bench.generator(120_000, 8).take_trace(120_000);
    let exact = analyze_sequential::<SplayTree>(trace.as_slice(), None);
    let (approx, _) = analyze_approx(
        trace.as_slice(),
        ApproxMode::ShardsFixedRate { rate: 1.0 / 8.0 },
    );
    for cap in [64u64, 512, 4_096] {
        let err = (approx.miss_ratio(cap) - exact.miss_ratio(cap)).abs();
        assert!(err < 0.08, "capacity {cap}: error {err}");
    }
}

#[test]
fn phase_detection_across_kernel_switch() {
    // Stream triad then tiled matmul: grossly different signatures.
    let mut trace = collect_trace(StreamTriad::new(2_000, 2)).into_vec();
    let boundary = trace.len();
    trace.extend(collect_trace(MatMul::blocked(16, 4)).into_vec());

    let window = 2_000usize;
    let analysis = windowed_histograms::<SplayTree>(&trace, window);
    let boundaries = detect_phases(&analysis, 0.6);
    // A boundary within one window of the kernel switch.
    assert!(
        boundaries.iter().any(|&b| b.abs_diff(boundary) <= window),
        "kernel switch at {boundary} not detected: {boundaries:?}"
    );
}
