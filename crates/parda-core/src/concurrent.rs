//! Thread-aware shared-cache analysis.
//!
//! This module models *threads of one program*: a single address space
//! where the same location touched by two threads is true sharing, so
//! thread identity travels in a side array ([`ThreadedTrace`]) instead of
//! in the address bits. Co-running programs with separate address spaces
//! are the special case of streams that share no address.
//!
//! The pipeline:
//!
//! 1. Take per-thread reference streams (from a thread-tagged v2.2 trace or
//!    from the multi-threaded kernels in `parda-pinsim`) and interleave
//!    them under an explicit [`InterleaveModel`] — or analyze an
//!    as-recorded interleaving directly.
//! 2. [`analyze_concurrent`] runs one reuse-distance pass over the shared
//!    stream, attributing every distance to the issuing thread, and solo
//!    passes over each thread's private stream.
//! 3. [`recommend_partition`] feeds the solo MRCs into
//!    [`optimal_partition`] to recommend a static partition of the shared
//!    cache.
//!
//! The shared histogram is exact: its hit count at capacity `C` equals a
//! fully-associative LRU simulation of the interleaved trace (validated in
//! the tests against `parda-cachesim`).

use crate::seq::{analyze_sequential, analyze_with};
use parda_hash::{FxHashMap, FxHashSet};
use parda_hist::ReuseHistogram;
use parda_trace::{Addr, ThreadedTrace, Tid};
use parda_tree::ReuseTree;
use std::fmt;
use std::str::FromStr;

/// How per-thread streams are merged into the shared reference stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterleaveModel {
    /// Threads issue `burst` consecutive references each in fixed rotation
    /// (thread 0, 1, …, 0, 1, …). Exhausted threads drop out of the round.
    RoundRobin {
        /// References issued per thread per turn.
        burst: usize,
    },
    /// Each step picks the issuing thread at random, weighted by relative
    /// issue rate. Deterministic for a given `seed` (splitmix64).
    Probabilistic {
        /// Relative issue rate per thread; must match the thread count.
        /// Empty means uniform.
        weights: Vec<u32>,
        /// PRNG seed.
        seed: u64,
    },
}

impl InterleaveModel {
    /// Round-robin with a one-reference burst — the default lockstep model.
    pub fn round_robin() -> Self {
        InterleaveModel::RoundRobin { burst: 1 }
    }
}

impl fmt::Display for InterleaveModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterleaveModel::RoundRobin { burst } => write!(f, "rr:{burst}"),
            InterleaveModel::Probabilistic { weights, seed } => {
                write!(f, "prob")?;
                if !weights.is_empty() {
                    let w: Vec<String> = weights.iter().map(|w| w.to_string()).collect();
                    write!(f, ":{}", w.join(","))?;
                }
                write!(f, "@{seed}")
            }
        }
    }
}

impl FromStr for InterleaveModel {
    type Err = String;

    /// Parse `rr`, `rr:<burst>`, `prob`, `prob:<w1,w2,..>`, with an
    /// optional `@<seed>` suffix on `prob`.
    fn from_str(s: &str) -> Result<Self, String> {
        if let Some(rest) = s.strip_prefix("rr") {
            let burst = match rest.strip_prefix(':') {
                None if rest.is_empty() => 1,
                Some(b) => b
                    .parse::<usize>()
                    .ok()
                    .filter(|&b| b > 0)
                    .ok_or_else(|| format!("bad round-robin burst {b:?}"))?,
                _ => return Err(format!("bad interleave model {s:?}")),
            };
            return Ok(InterleaveModel::RoundRobin { burst });
        }
        if let Some(rest) = s.strip_prefix("prob") {
            let (spec, seed) = match rest.split_once('@') {
                Some((spec, seed)) => (
                    spec,
                    seed.parse::<u64>()
                        .map_err(|_| format!("bad seed {seed:?}"))?,
                ),
                None => (rest, 0),
            };
            let weights = match spec.strip_prefix(':') {
                None if spec.is_empty() => Vec::new(),
                Some(list) => list
                    .split(',')
                    .map(|w| {
                        w.parse::<u32>()
                            .ok()
                            .filter(|&w| w > 0)
                            .ok_or_else(|| format!("bad weight {w:?}"))
                    })
                    .collect::<Result<_, _>>()?,
                _ => return Err(format!("bad interleave model {s:?}")),
            };
            return Ok(InterleaveModel::Probabilistic { weights, seed });
        }
        Err(format!(
            "unknown interleave model {s:?} (expected rr[:burst] or prob[:w,..][@seed])"
        ))
    }
}

/// splitmix64: tiny, deterministic, good enough to draw issuing threads.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Merge per-thread streams into one thread-tagged shared stream under the
/// given model. Thread `i` of `traces` becomes TID `i`. Addresses are
/// **not** tagged: the streams share one address space, and cross-thread
/// reuse is the point.
pub fn interleave_threads(traces: &[&[Addr]], model: &InterleaveModel) -> ThreadedTrace {
    assert!(!traces.is_empty(), "need at least one thread");
    let total: usize = traces.iter().map(|t| t.len()).sum();
    let mut out = ThreadedTrace::new();
    let mut cursors = vec![0usize; traces.len()];
    match model {
        InterleaveModel::RoundRobin { burst } => {
            assert!(*burst > 0, "burst must be positive");
            while out.len() < total {
                for (t, trace) in traces.iter().enumerate() {
                    for _ in 0..*burst {
                        if cursors[t] < trace.len() {
                            out.push(t as Tid, trace[cursors[t]]);
                            cursors[t] += 1;
                        }
                    }
                }
            }
        }
        InterleaveModel::Probabilistic { weights, seed } => {
            let weights: Vec<u64> = if weights.is_empty() {
                vec![1; traces.len()]
            } else {
                assert_eq!(weights.len(), traces.len(), "one weight per thread");
                weights.iter().map(|&w| u64::from(w)).collect()
            };
            assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
            let mut state = *seed;
            let mut live_weight: u64 = weights
                .iter()
                .zip(traces)
                .filter(|(_, t)| !t.is_empty())
                .map(|(&w, _)| w)
                .sum();
            while out.len() < total {
                // Draw a thread proportionally to weight among the
                // not-yet-exhausted streams.
                let mut pick = splitmix64(&mut state) % live_weight;
                for (t, trace) in traces.iter().enumerate() {
                    if cursors[t] >= trace.len() {
                        continue;
                    }
                    if pick < weights[t] {
                        out.push(t as Tid, trace[cursors[t]]);
                        cursors[t] += 1;
                        if cursors[t] == trace.len() {
                            live_weight -= weights[t];
                        }
                        break;
                    }
                    pick -= weights[t];
                }
            }
        }
    }
    out
}

/// Result of [`analyze_concurrent`]: reuse-distance histograms for the
/// shared cache and per thread, plus sharing metrics. Thread order follows
/// [`ThreadedTrace::thread_ids`] (sorted by TID).
#[derive(Clone, Debug)]
pub struct ConcurrentAnalysis {
    /// Thread IDs present, sorted; index `i` everywhere below is thread
    /// `thread_ids[i]`.
    pub thread_ids: Vec<Tid>,
    /// Shared-stream histogram over the full interleaved trace — exact
    /// fully-associative LRU behaviour of the shared cache.
    pub shared: ReuseHistogram,
    /// Shared-stream distances attributed to the issuing thread
    /// (sums to `shared`).
    pub per_thread_shared: Vec<ReuseHistogram>,
    /// Each thread's solo histogram over its private stream — what the
    /// thread would see with the cache to itself.
    pub per_thread_solo: Vec<ReuseHistogram>,
    /// References issued per thread.
    pub refs_per_thread: Vec<u64>,
    /// Distinct addresses touched by two or more threads (true sharing).
    pub shared_addrs: u64,
    /// Distinct addresses in the whole trace.
    pub distinct_addrs: u64,
}

impl ConcurrentAnalysis {
    /// Fraction of distinct addresses touched by more than one thread.
    pub fn sharing_ratio(&self) -> f64 {
        if self.distinct_addrs == 0 {
            0.0
        } else {
            self.shared_addrs as f64 / self.distinct_addrs as f64
        }
    }
}

/// Analyze a thread-tagged shared reference stream: one exact
/// reuse-distance pass over the interleaving with per-thread attribution,
/// plus a solo pass per thread.
pub fn analyze_concurrent<T: ReuseTree + Default>(trace: &ThreadedTrace) -> ConcurrentAnalysis {
    let thread_ids = trace.thread_ids();
    let mut slot: FxHashMap<Tid, usize> = FxHashMap::default();
    for (i, &tid) in thread_ids.iter().enumerate() {
        slot.insert(tid, i);
    }
    let tids = trace.tids();
    let mut per_thread_shared = vec![ReuseHistogram::new(); thread_ids.len()];
    let shared = analyze_with::<T, _>(trace.addrs(), |i, _, distance| {
        per_thread_shared[slot[&tids[i]]].record(distance);
    });

    let mut per_thread_solo = Vec::with_capacity(thread_ids.len());
    let mut refs_per_thread = Vec::with_capacity(thread_ids.len());
    for (_, solo) in trace.per_thread() {
        refs_per_thread.push(solo.len() as u64);
        per_thread_solo.push(analyze_sequential::<T>(solo.as_slice(), None));
    }

    let mut owner: FxHashMap<Addr, Tid> = FxHashMap::default();
    let mut shared_set: FxHashSet<Addr> = FxHashSet::default();
    for (&tid, &addr) in tids.iter().zip(trace.addrs()) {
        match owner.get(&addr) {
            Some(&first) if first != tid => {
                shared_set.insert(addr);
            }
            Some(_) => {}
            None => {
                owner.insert(addr, tid);
            }
        }
    }

    ConcurrentAnalysis {
        thread_ids,
        shared,
        per_thread_shared,
        per_thread_solo,
        refs_per_thread,
        shared_addrs: shared_set.len() as u64,
        distinct_addrs: owner.len() as u64,
    }
}

/// A recommended static partition of a shared cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Total shared-cache capacity (lines).
    pub capacity: u64,
    /// Allocation granularity (lines).
    pub granularity: u64,
    /// Lines allocated to each thread, in `thread_ids` order.
    pub allocation: Vec<u64>,
    /// Total predicted misses under the recommended partition.
    pub predicted_misses: u64,
}

/// Recommend a static partition of `capacity` cache lines among the
/// threads, minimizing total predicted misses from their solo MRCs
/// (the Soft-OLP/UCP decision from [`optimal_partition`]).
pub fn recommend_partition(
    per_thread_solo: &[ReuseHistogram],
    capacity: u64,
    granularity: u64,
) -> PartitionPlan {
    let refs: Vec<&ReuseHistogram> = per_thread_solo.iter().collect();
    let (allocation, predicted_misses) = optimal_partition(&refs, capacity, granularity);
    PartitionPlan {
        capacity,
        granularity,
        allocation,
        predicted_misses,
    }
}

/// Optimal static partition of `capacity` cache lines among programs with
/// the given solo MRCs, at `granularity`-line steps. Every program receives
/// at least one granule. Returns `(allocation, total_misses)`.
///
/// Dynamic program over programs × granules: O(k · (C/g)²).
pub fn optimal_partition(
    histograms: &[&ReuseHistogram],
    capacity: u64,
    granularity: u64,
) -> (Vec<u64>, u64) {
    let k = histograms.len();
    assert!(k > 0, "need at least one program");
    assert!(
        granularity > 0 && capacity >= granularity * k as u64,
        "capacity too small"
    );
    let granules = (capacity / granularity) as usize;

    // dp[i][g] = min total misses using programs 0..=i over g granules,
    // each program ≥ 1 granule.
    const INF: u64 = u64::MAX;
    let miss = |i: usize, g: usize| histograms[i].miss_count(g as u64 * granularity);
    let mut dp = vec![vec![INF; granules + 1]; k];
    let mut choice = vec![vec![0usize; granules + 1]; k];
    for g in 1..=granules {
        dp[0][g] = miss(0, g);
        choice[0][g] = g;
    }
    for i in 1..k {
        for g in (i + 1)..=granules {
            for own in 1..=(g - i) {
                let rest = dp[i - 1][g - own];
                if rest == INF {
                    continue;
                }
                let total = rest.saturating_add(miss(i, own));
                if total < dp[i][g] {
                    dp[i][g] = total;
                    choice[i][g] = own;
                }
            }
        }
    }
    // Backtrack.
    let mut alloc = vec![0u64; k];
    let mut g = granules;
    for i in (0..k).rev() {
        let own = choice[i][g];
        alloc[i] = own as u64 * granularity;
        g -= own;
    }
    (alloc, dp[k - 1][granules])
}

/// Default partition granularity for a capacity: 1/64th of the cache,
/// floored at one line. The CLI and the server both resolve an omitted
/// granularity through here, so their recommendations agree.
pub fn default_granularity(capacity: u64) -> u64 {
    (capacity / 64).max(1)
}

/// [`analyze_concurrent`] dispatched over a runtime [`parda_tree::TreeKind`].
pub fn analyze_concurrent_kind(
    trace: &ThreadedTrace,
    kind: parda_tree::TreeKind,
) -> ConcurrentAnalysis {
    match kind {
        parda_tree::TreeKind::Splay => analyze_concurrent::<parda_tree::SplayTree>(trace),
        parda_tree::TreeKind::Avl => analyze_concurrent::<parda_tree::AvlTree>(trace),
        parda_tree::TreeKind::Treap => analyze_concurrent::<parda_tree::Treap>(trace),
        parda_tree::TreeKind::Vector => analyze_concurrent::<parda_tree::VectorTree>(trace),
    }
}

/// Fold an analysis (and optionally a partition plan) into the
/// observability summary carried by [`parda_obs::Report::shared`]. Both
/// the offline `parda partition` path and the server's tagged sessions
/// build their reply through here, which is what makes the two
/// recommendations byte-comparable.
pub fn shared_metrics(
    analysis: &ConcurrentAnalysis,
    model: &str,
    plan: Option<&PartitionPlan>,
) -> parda_obs::SharedMetrics {
    parda_obs::SharedMetrics {
        threads: analysis.thread_ids.len(),
        per_thread_refs: analysis.refs_per_thread.clone(),
        shared_addrs: analysis.shared_addrs,
        sharing_ratio: analysis.sharing_ratio(),
        model: model.to_string(),
        capacity: plan.map_or(0, |p| p.capacity),
        granularity: plan.map_or(0, |p| p.granularity),
        allocation: plan.map_or_else(Vec::new, |p| p.allocation.clone()),
        predicted_misses: plan.map_or(0, |p| p.predicted_misses),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parda_cachesim::LruCache;
    use parda_tree::SplayTree;
    use proptest::prelude::*;

    fn lru_hits(trace: &[Addr], capacity: usize) -> u64 {
        LruCache::new(capacity).run_trace(trace).hits
    }

    fn assert_matches_cachesim(trace: &ThreadedTrace, capacities: &[u64]) {
        let analysis = analyze_concurrent::<SplayTree>(trace);
        for &c in capacities {
            assert_eq!(
                analysis.shared.hit_count(c),
                lru_hits(trace.addrs(), c as usize),
                "capacity {c}"
            );
        }
        // Attribution partitions the shared histogram.
        let mut sum = ReuseHistogram::new();
        for h in &analysis.per_thread_shared {
            sum.merge(h);
        }
        assert_eq!(sum, analysis.shared);
    }

    #[test]
    fn model_strings_round_trip() {
        for s in ["rr:1", "rr:8", "prob@0", "prob:3,1@42"] {
            let m: InterleaveModel = s.parse().unwrap();
            assert_eq!(m.to_string(), s);
        }
        assert_eq!(
            "rr".parse::<InterleaveModel>().unwrap(),
            InterleaveModel::round_robin()
        );
        assert_eq!(
            "prob".parse::<InterleaveModel>().unwrap(),
            InterleaveModel::Probabilistic {
                weights: vec![],
                seed: 0
            }
        );
        for bad in ["", "rr:0", "rr:x", "prob:0", "prob:1,@2", "zipper"] {
            assert!(bad.parse::<InterleaveModel>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn round_robin_interleaves_in_rotation() {
        let a = [1u64, 2, 3];
        let b = [10u64, 20];
        let t = interleave_threads(&[&a, &b], &InterleaveModel::round_robin());
        assert_eq!(t.addrs(), &[1, 10, 2, 20, 3]);
        assert_eq!(t.tids(), &[0, 1, 0, 1, 0]);
    }

    #[test]
    fn probabilistic_is_deterministic_and_rate_weighted() {
        let a: Vec<u64> = (0..3000).collect();
        let b: Vec<u64> = (10_000..13_000).collect();
        let model = InterleaveModel::Probabilistic {
            weights: vec![3, 1],
            seed: 7,
        };
        let x = interleave_threads(&[&a, &b], &model);
        let y = interleave_threads(&[&a, &b], &model);
        assert_eq!(x, y);
        assert_eq!(x.len(), 6000);
        // Thread 0 issues ~3× as fast, so it dominates the prefix.
        let head = &x.tids()[..1000];
        let t0 = head.iter().filter(|&&t| t == 0).count();
        assert!(
            (650..=850).contains(&t0),
            "expected ~750 thread-0 refs in the first 1000, got {t0}"
        );
    }

    #[test]
    fn concurrent_matches_cachesim_on_mt_kernels() {
        for false_sharing in [false, true] {
            let stencil = parda_pinsim::collect_mt_trace(parda_pinsim::MtStencil2D::new(
                16,
                2,
                3,
                false_sharing,
            ));
            assert_matches_cachesim(&stencil.interleaved, &[64, 512, 2048]);

            let matmul =
                parda_pinsim::collect_mt_trace(parda_pinsim::MtMatMul::new(10, 2, false_sharing));
            assert_matches_cachesim(&matmul.interleaved, &[64, 512, 2048]);
        }
    }

    #[test]
    fn concurrent_matches_cachesim_on_modeled_interleavings() {
        let mt = parda_pinsim::collect_mt_trace(parda_pinsim::MtStencil2D::new(14, 2, 2, true));
        let streams: Vec<&[Addr]> = mt.per_thread.iter().map(|(_, t)| t.as_slice()).collect();
        for model in [
            InterleaveModel::RoundRobin { burst: 4 },
            InterleaveModel::Probabilistic {
                weights: vec![2, 1],
                seed: 11,
            },
        ] {
            let t = interleave_threads(&streams, &model);
            assert_matches_cachesim(&t, &[64, 512, 2048]);
        }
    }

    #[test]
    fn sharing_metrics_tell_kernels_apart() {
        let shared = parda_pinsim::collect_mt_trace(parda_pinsim::MtMatMul::new(8, 2, false));
        let a = analyze_concurrent::<SplayTree>(&shared.interleaved);
        assert!(a.shared_addrs >= 64, "B operand is fully shared");
        assert!(a.sharing_ratio() > 0.0);

        // Two disjoint solo streams: nothing shared.
        let a0: Vec<u64> = (0..500).collect();
        let a1: Vec<u64> = (10_000..10_500).collect();
        let t = interleave_threads(&[&a0, &a1], &InterleaveModel::round_robin());
        let a = analyze_concurrent::<SplayTree>(&t);
        assert_eq!(a.shared_addrs, 0);
        assert_eq!(a.sharing_ratio(), 0.0);
        assert_eq!(a.refs_per_thread, vec![500, 500]);
    }

    #[test]
    fn recommend_partition_wraps_optimal_partition() {
        // Thread 0 loops over 64 lines, thread 1 over 1024: the plan gives
        // each its working set.
        let t0: Vec<u64> = (0..6400).map(|i| i % 64).collect();
        let t1: Vec<u64> = (0..10_240).map(|i| 100_000 + i % 1024).collect();
        let interleaved = interleave_threads(&[&t0, &t1], &InterleaveModel::round_robin());
        let analysis = analyze_concurrent::<SplayTree>(&interleaved);
        let plan = recommend_partition(&analysis.per_thread_solo, 1088, 64);
        assert_eq!(plan.allocation, vec![64, 1024]);
        assert_eq!(plan.predicted_misses, 64 + 1024);
        assert_eq!(plan.capacity, 1088);
    }

    #[test]
    fn optimal_partition_prefers_the_cacheable_program() {
        // Program A: loop over 64 lines (cliff at 64). Program B: loop over
        // 1024 lines (cliff at 1024). With 1088 lines total, the optimum
        // gives each exactly its working set.
        let a_trace: Vec<u64> = (0..6400).map(|i| i % 64).collect();
        let b_trace: Vec<u64> = (0..10240).map(|i| 5000 + i % 1024).collect();
        let ha = analyze_sequential::<SplayTree>(&a_trace, None);
        let hb = analyze_sequential::<SplayTree>(&b_trace, None);
        let (alloc, misses) = optimal_partition(&[&ha, &hb], 1088, 64);
        assert_eq!(alloc, vec![64, 1024]);
        assert_eq!(misses, 64 + 1024, "only cold misses remain");
    }

    #[test]
    fn optimal_partition_matches_exhaustive_for_two() {
        let a_trace: Vec<u64> = (0..3000).map(|i| i % 37).collect();
        let b_trace: Vec<u64> = (0..3000).map(|i| 500 + (i * 7) % 211).collect();
        let ha = analyze_sequential::<SplayTree>(&a_trace, None);
        let hb = analyze_sequential::<SplayTree>(&b_trace, None);
        let capacity = 256u64;
        let gran = 16u64;
        let (_, dp_misses) = optimal_partition(&[&ha, &hb], capacity, gran);
        let mut best = u64::MAX;
        let mut c = gran;
        while c < capacity {
            best = best.min(ha.miss_count(c) + hb.miss_count(capacity - c));
            c += gran;
        }
        assert_eq!(dp_misses, best);
    }

    #[test]
    fn three_way_partition_allocates_everything() {
        let t: Vec<Vec<u64>> = (0..3)
            .map(|p| {
                (0..2000u64)
                    .map(|i| p * 10_000 + i % (50 * (p + 1)))
                    .collect()
            })
            .collect();
        let hists: Vec<ReuseHistogram> = t
            .iter()
            .map(|tr| analyze_sequential::<SplayTree>(tr, None))
            .collect();
        let refs: Vec<&ReuseHistogram> = hists.iter().collect();
        let (alloc, _) = optimal_partition(&refs, 512, 32);
        assert_eq!(alloc.iter().sum::<u64>(), 512);
        assert!(alloc.iter().all(|&a| a >= 32));
    }

    proptest! {
        #[test]
        fn concurrent_matches_cachesim_on_random_threads(
            streams in collection::vec(collection::vec(0u64..200, 1..120), 1..5),
            burst in 1usize..4,
            capacity in prop_oneof![Just(4u64), Just(16), Just(64), Just(256)],
        ) {
            let refs: Vec<&[Addr]> = streams.iter().map(|s| s.as_slice()).collect();
            let t = interleave_threads(&refs, &InterleaveModel::RoundRobin { burst });
            let analysis = analyze_concurrent::<SplayTree>(&t);
            prop_assert_eq!(
                analysis.shared.hit_count(capacity),
                lru_hits(t.addrs(), capacity as usize)
            );
            let total: u64 = analysis.refs_per_thread.iter().sum();
            prop_assert_eq!(total, t.len() as u64);
        }
    }
}
