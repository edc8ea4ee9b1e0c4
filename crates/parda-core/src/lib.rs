//! PARDA: fast parallel reuse distance analysis.
//!
//! This crate implements every algorithm of the paper:
//!
//! | Paper artifact | Here |
//! |---|---|
//! | Algorithm 1 — tree-based sequential analysis (Olken) | [`seq::analyze_sequential`], [`Engine::process_chunk`] |
//! | Algorithm 2 — tree distance query | `parda_tree::ReuseTree::distance` |
//! | Algorithm 3 — the Parda parallel algorithm | one driver, [`parallel::parda_threads_with_stats`] (work-stealing sub-chunks, panic rescue, watchdog); [`parallel::parda_msg`] is the message-passing oracle |
//! | Algorithm 4 — space-optimized infinity processing | [`Engine::process_infinities`] |
//! | Algorithms 5–6 — multi-phase streaming analysis | [`phased::parda_phased`] |
//! | Algorithm 7 — bounded (cache-capped) analysis | `bound` option on every engine |
//! | §III-A — naïve stack algorithm | [`seq::analyze_naive`] |
//! | §IV-D state reduction — departs from the paper: rank 0 appends each rank's run, all newer than its own state, instead of a merge on rank np−1 shipped back | [`Engine::import_state`] |
//! | §VII object-level applications | [`object::analyze_by_region`] |
//! | §VII sampling combination | [`approx`] (SHARDS/AET sketches) |
//! | §I cache sharing & partitioning | [`concurrent::analyze_concurrent`], [`concurrent::recommend_partition`], [`concurrent::optimal_partition`] |
//! | §VII phase detection | [`window::detect_phases`] |
//!
//! # Quick start
//!
//! Every engine is reachable through the [`Analysis`] builder, which also
//! produces the per-rank observability [`Report`] on request:
//!
//! ```
//! use parda_core::{Analysis, Mode};
//! use parda_trace::gen::{ReuseProfile, StackDistGen};
//! use parda_trace::AddressStream;
//!
//! // A synthetic trace: 100k references over 5k addresses.
//! let trace = StackDistGen::new(100_000, 5_000, ReuseProfile::geometric(16.0), 7)
//!     .take_trace(100_000);
//!
//! let (hist, report) = Analysis::new()
//!     .ranks(4)
//!     .mode(Mode::Threads)
//!     .stats(true)
//!     .run(trace.as_slice());
//!
//! assert_eq!(hist.total(), 100_000);
//! assert_eq!(hist.infinite(), 5_000); // one cold miss per distinct address
//! // Predicted miss ratio of a 1k-line LRU cache:
//! let mr = hist.miss_ratio(1_000);
//! assert!(mr < 1.0);
//! // The report's per-rank chunk references partition the trace.
//! assert_eq!(report.unwrap().total_rank_refs(), 100_000);
//! ```

pub mod analysis;
pub mod approx;
pub mod concurrent;
pub mod engine;
pub mod error;
pub mod object;
pub mod parallel;
pub mod phased;
pub mod seq;
pub mod session;
pub mod window;

pub use analysis::{Analysis, Mode};
pub use approx::{analyze_approx, ApproxMode, ApproxSketch, SampleRate};
pub use concurrent::{
    analyze_concurrent, analyze_concurrent_kind, default_granularity, interleave_threads,
    recommend_partition, shared_metrics, ConcurrentAnalysis, InterleaveModel, PartitionPlan,
};
pub use engine::{Engine, MissSink};
pub use error::{FaultPolicy, PardaError};
pub use parallel::PardaConfig;
pub use parda_obs::Report;
pub use parda_trace::Degradation;
pub use session::{SessionAnalysis, SessionStep};
