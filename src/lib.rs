//! # parda
//!
//! A fast parallel reuse distance analysis library — a from-scratch Rust
//! reproduction of *PARDA: A Fast Parallel Reuse Distance Analysis
//! Algorithm* (Niu, Dinan, Lu, Sadayappan — IPDPS 2012).
//!
//! Reuse distance (LRU stack distance) is the number of distinct addresses
//! referenced between two successive accesses to the same address. One pass
//! of reuse-distance analysis predicts hit/miss behaviour for *every* fully
//! associative LRU cache size at once; PARDA is the first algorithm to
//! compute it exactly in parallel from a single trace.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — the analyzers: sequential (Algorithm 1), parallel
//!   (Algorithms 3–4), streaming multi-phase (Algorithms 5–6), and bounded
//!   (Algorithm 7);
//! * [`trace`] — trace types, generators, SPEC CPU2006 workload models, and
//!   the binary trace format;
//! * [`tree`] — the distance-augmented search structures (splay/AVL/treap)
//!   and the naïve stack;
//! * [`hist`] — reuse-distance histograms and miss-ratio curves;
//! * [`hash`] — the Robin Hood hash-table substrate;
//! * [`obs`] — observability: counters, stopwatches, and the per-rank
//!   analysis [`Report`](obs::Report) behind `--stats`;
//! * [`comm`] — the rank/message-passing substrate standing in for MPI;
//! * [`cachesim`] — LRU cache simulators (validation ground truth);
//! * [`pinsim`] — synthetic instrumented programs standing in for Pin.
//!
//! # Quick start
//!
//! ```
//! use parda::prelude::*;
//!
//! // Generate a workload modeled on SPEC CPU2006 `mcf`, scaled down.
//! let bench = SpecBenchmark::by_name("mcf").unwrap();
//! let trace = bench.generator(100_000, 42).take_trace(100_000);
//!
//! // Analyze it in parallel with 4 ranks, collecting the per-rank
//! // observability report.
//! let (hist, report) = Analysis::new().ranks(4).stats(true).run(trace.as_slice());
//!
//! // Exactly equal to the sequential analysis...
//! assert_eq!(hist, analyze_sequential::<SplayTree>(trace.as_slice(), None));
//! // ...and it predicts LRU cache behaviour exactly.
//! let mut cache = LruCache::new(4096);
//! assert_eq!(hist.hit_count(4096), cache.run_trace(trace.as_slice()).hits);
//! // The report breaks the run down per rank (chunk vs cascade time).
//! assert_eq!(report.unwrap().total_rank_refs(), 100_000);
//! ```

pub use parda_cachesim as cachesim;
pub use parda_comm as comm;
pub use parda_core as core;
pub use parda_hash as hash;
pub use parda_hist as hist;
pub use parda_obs as obs;
pub use parda_pinsim as pinsim;
pub use parda_trace as trace;
pub use parda_tree as tree;

/// The most common imports in one place.
pub mod prelude {
    pub use parda_cachesim::{CacheStats, LruCache, PlruCache, SetAssociativeCache};
    pub use parda_core::approx::{analyze_approx, ApproxMode, ApproxSketch, SampleRate};
    pub use parda_core::concurrent::{
        analyze_concurrent, analyze_concurrent_kind, default_granularity, interleave_threads,
        recommend_partition, shared_metrics, ConcurrentAnalysis, InterleaveModel, PartitionPlan,
    };
    pub use parda_core::object::{analyze_by_region, RegionAnalysis, RegionMap};
    pub use parda_core::parallel::{parda_msg, parda_threads, parda_threads_faulted};
    pub use parda_core::phased::{parda_phased, Reduction};
    pub use parda_core::seq::{analyze_naive, analyze_sequential, SequentialAnalyzer};
    pub use parda_core::{
        Analysis, Degradation, Engine, FaultPolicy, MissSink, Mode, PardaConfig, PardaError, Report,
    };
    pub use parda_hist::{BinnedHistogram, CacheHierarchy, CacheLevel, Distance, ReuseHistogram};
    pub use parda_trace::gen::{ReuseProfile, StackDistGen};
    pub use parda_trace::spec::{SpecBenchmark, SPEC2006};
    pub use parda_trace::{Addr, AddressStream, SliceStream, Trace};
    pub use parda_tree::{AvlTree, NaiveStack, ReuseTree, SplayTree, Treap, TreeKind, VectorTree};
}
