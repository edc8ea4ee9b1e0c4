//! Multi-phase streaming Parda (paper Algorithms 5 and 6, Section IV-D).
//!
//! Real traces arrive as unbounded streams (the paper pipes them straight
//! out of Pin), so the whole-trace chunking of Algorithm 3 cannot be
//! applied up front. The phase-based algorithm reads `np · C` references per
//! phase, runs one Parda pass over them, and then *reduces the analysis
//! state* onto one rank, which answers global infinities authoritatively
//! in the next phase (no duplicate checks needed in unbounded mode — the
//! space-optimized cascade already deleted stale replicas).
//!
//! The reduction departs from the paper. Algorithm 6 merges every rank's
//! state on rank `np−1` and ships the merged state back to rank 0 (or, in
//! the §IV-D enhancement, renames the ranks so it need not move). Here
//! ranks `1..np` each send their state to rank 0, which appends it in rank
//! order, and the global state never leaves rank 0. The chunk ranges make
//! this an append: rank `v ≥ 1` starts every phase empty and analyzes the
//! `v`-th chunk, so each of its live timestamps lies inside that chunk —
//! strictly newer than all of rank 0's state (older phases plus chunk 0)
//! and than every lower rank's run. Each imported run is therefore at most
//! `C` pairs of max-key inserts through [`Engine::import_state`],
//! where the paper's merge moves the O(M) global state twice per phase.
//! In bounded mode the newest copy of an address still wins, and an
//! appended run always holds it.

use crate::engine::{Engine, MissSink};
use crate::parallel::PardaConfig;
use parda_hist::ReuseHistogram;
use parda_obs::{PhasedMetrics, RankMetrics, Stopwatch};
use parda_trace::{chunk_slice, Addr, AddressStream};
use parda_tree::ReuseTree;
use parking_lot::Mutex;

/// Messages exchanged by the phased driver.
enum PhasedMsg {
    /// A chunk of the current phase starting at the given global index.
    /// `last` is set when the source ran dry filling this phase, letting
    /// every rank skip the final state reduction (the reduced state would
    /// only be consulted by a phase that never comes).
    Chunk {
        start_ts: u64,
        data: Vec<Addr>,
        last: bool,
    },
    /// A local-infinities sequence (cascade round).
    Infinities(Vec<Addr>),
    /// Live `(timestamp, addr)` state for the phase reduction.
    State(Vec<(u64, Addr)>),
    /// End of input: no further phases.
    Done,
}

/// How per-rank state is reduced at each phase boundary (Algorithm 6).
///
/// There is one strategy, so this type selects nothing. It stays only
/// because [`crate::Mode::Phased`] callers name it, the benchmark among
/// them; removing it waits for a change that may edit the benchmark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Reduction {
    /// Every rank's state goes to rank 0, which appends it in rank order.
    #[default]
    ShipToRankZero,
}

/// Streaming Parda: analyze `source` in phases of `np · phase_chunk`
/// references (paper Algorithm 5), reducing the state onto rank 0 after
/// each phase (Algorithm 6, by append).
///
/// Returns the complete reuse-distance histogram; exact equality with the
/// offline analyzers is property-tested.
///
/// # Examples
///
/// ```
/// use parda_core::{phased, PardaConfig};
/// use parda_trace::SliceStream;
///
/// let trace: Vec<u64> = (0..1000u64).map(|i| i % 50).collect();
/// let hist = phased::parda_phased::<parda_tree::SplayTree, _>(
///     SliceStream::new(&trace),
///     64, // C: references per rank per phase
///     &PardaConfig::with_ranks(4),
/// );
/// assert_eq!(hist.total(), 1000);
/// assert_eq!(hist.infinite(), 50);
/// ```
pub fn parda_phased<T, S>(source: S, phase_chunk: usize, config: &PardaConfig) -> ReuseHistogram
where
    T: ReuseTree + Default,
    S: AddressStream + Send,
{
    parda_phased_with_stats::<T, S>(source, phase_chunk, config).0
}

/// [`parda_phased`] plus the observability breakdown: per-rank chunk
/// and cascade timings accumulated over all phases, and a [`PhasedMetrics`]
/// whose `phase_reduction_ns[k]` is the slowest rank's reduction time in
/// phase `k`.
pub fn parda_phased_with_stats<T, S>(
    source: S,
    phase_chunk: usize,
    config: &PardaConfig,
) -> (ReuseHistogram, Vec<RankMetrics>, PhasedMetrics)
where
    T: ReuseTree + Default,
    S: AddressStream + Send,
{
    assert!(phase_chunk > 0, "phase chunk size must be positive");
    let np = config.ranks.max(1);
    if np == 1 {
        return phased_single_rank::<T, S>(source, config.bound);
    }

    // Rank 0 owns the input stream (it is attached to the pipe in the
    // paper's framework) and the global state.
    let source = Mutex::new(Some(source));

    let results = parda_comm::World::run::<PhasedMsg, (ReuseHistogram, RankMetrics, Vec<u64>), _>(
        np,
        |mut ctx| {
            let p = ctx.rank();
            let mut engine: Engine<T> = Engine::new(config.bound, phase_chunk);
            let mut rm = RankMetrics {
                rank: p,
                ..Default::default()
            };
            // Per-phase reduction time on this rank; the driver folds these
            // element-wise (max across ranks) into [`PhasedMetrics`].
            let mut phase_red: Vec<u64> = Vec::new();
            let mut my_source = if p == 0 {
                Some(source.lock().take().expect("rank 0 takes the source once"))
            } else {
                None
            };
            let mut phase_base: u64 = 0;
            let mut read_buf: Vec<Addr> = Vec::new();

            loop {
                // --- distribution (paper Figure 3: the pipe-attached process
                //     reads and scatters; chunk i goes to rank i) ---
                let (chunk, start_ts, last_phase) = if p == 0 {
                    let src = my_source.as_mut().expect("rank 0 has the source");
                    read_buf.clear();
                    let got = src.fill(&mut read_buf, np * phase_chunk);
                    if got == 0 {
                        for dest in 1..np {
                            ctx.send(dest, PhasedMsg::Done);
                        }
                        break;
                    }
                    // A short read means the source is exhausted: this phase is
                    // the last one (an exactly-full read can't tell, and then
                    // the reduction below runs once more than needed).
                    let last = got < np * phase_chunk;
                    let chunks = chunk_slice(&read_buf, np);
                    let mut acc = phase_base + chunks[0].len() as u64;
                    for (dest, c) in chunks.iter().enumerate().skip(1) {
                        ctx.send(
                            dest,
                            PhasedMsg::Chunk {
                                start_ts: acc,
                                data: c.to_vec(),
                                last,
                            },
                        );
                        acc += c.len() as u64;
                    }
                    let mine = (chunks[0].to_vec(), phase_base, last);
                    phase_base = acc;
                    mine
                } else {
                    match ctx.recv_from(0) {
                        PhasedMsg::Done => break,
                        PhasedMsg::Chunk {
                            start_ts,
                            data,
                            last,
                        } => (data, start_ts, last),
                        _ => unreachable!("rank 0 only sends chunks or Done here"),
                    }
                };
                rm.refs += chunk.len() as u64;

                // --- one Parda pass over the phase (Algorithm 3 rounds) ---
                let sw = Stopwatch::start();
                if p == 0 {
                    // Rank 0 analyzes on top of the accumulated global state:
                    // its local infinities are authoritative.
                    engine.process_chunk(&chunk, start_ts, MissSink::Infinite);
                    rm.chunk_ns += sw.ns();
                } else {
                    let mut local_inf = Vec::new();
                    engine.process_chunk(&chunk, start_ts, MissSink::Forward(&mut local_inf));
                    rm.chunk_ns += sw.ns();
                    rm.infinities_forwarded += local_inf.len() as u64;
                    ctx.send(p - 1, PhasedMsg::Infinities(local_inf));
                }
                for _ in 1..(np - p) {
                    let incoming = match ctx.recv_from(p + 1) {
                        PhasedMsg::Infinities(list) => list,
                        _ => unreachable!("cascade rounds only carry infinity lists"),
                    };
                    rm.cascade_rounds += 1;
                    rm.round_infinity_lens.push(incoming.len() as u64);
                    let sw = Stopwatch::start();
                    let mut survivors = Vec::new();
                    engine.process_infinities(&incoming, &mut survivors);
                    if p == 0 {
                        engine.record_global_infinities(survivors.len() as u64);
                    } else {
                        rm.infinities_forwarded += survivors.len() as u64;
                        ctx.send(p - 1, PhasedMsg::Infinities(survivors));
                    }
                    rm.cascade_ns += sw.ns();
                }

                // --- state reduction onto rank 0, by in-order append ---
                // The reduced state exists solely to answer the *next*
                // phase's global infinities, so the last phase skips it.
                let red_ns = if !last_phase {
                    let sw = Stopwatch::start();
                    if p == 0 {
                        for src in 1..np {
                            match ctx.recv_from(src) {
                                PhasedMsg::State(pairs) => engine.import_state(&pairs),
                                _ => unreachable!("reduction expects state messages"),
                            }
                        }
                    } else {
                        ctx.send(0, PhasedMsg::State(engine.drain_state()));
                    }
                    sw.ns()
                } else {
                    0
                };
                rm.reduction_ns += red_ns;
                phase_red.push(red_ns);
                engine.reset_phase_counters();
            }
            rm.engine = engine.metrics().clone();
            (engine.into_histogram(), rm, phase_red)
        },
    );

    let mut total = ReuseHistogram::new();
    let mut ranks = Vec::with_capacity(np);
    let mut phased = PhasedMetrics::default();
    for (h, rm, red) in results {
        total.merge(&h);
        ranks.push(rm);
        phased.phases = phased.phases.max(red.len() as u64);
        if phased.phase_reduction_ns.len() < red.len() {
            phased.phase_reduction_ns.resize(red.len(), 0);
        }
        for (k, ns) in red.into_iter().enumerate() {
            phased.phase_reduction_ns[k] = phased.phase_reduction_ns[k].max(ns);
        }
    }
    ranks.sort_by_key(|rm| rm.rank);
    (total, ranks, phased)
}

/// Degenerate single-rank streaming: plain incremental Algorithm 1 over
/// batches. `phases` counts input batches; there is no reduction, so
/// `phase_reduction_ns` stays empty.
fn phased_single_rank<T: ReuseTree + Default, S: AddressStream>(
    mut source: S,
    bound: Option<u64>,
) -> (ReuseHistogram, Vec<RankMetrics>, PhasedMetrics) {
    let mut analyzer: crate::seq::SequentialAnalyzer<T> =
        crate::seq::SequentialAnalyzer::new(bound);
    let mut rm = RankMetrics::default();
    let mut phased = PhasedMetrics::default();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if source.fill(&mut buf, 1 << 16) == 0 {
            break;
        }
        phased.phases += 1;
        rm.refs += buf.len() as u64;
        let sw = Stopwatch::start();
        analyzer.process_all(&buf);
        rm.chunk_ns += sw.ns();
    }
    rm.engine = analyzer.metrics().clone();
    (analyzer.finish(), vec![rm], phased)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::analyze_sequential;
    use parda_trace::SliceStream;
    use parda_tree::{AvlTree, SplayTree, Treap, VectorTree};
    use proptest::prelude::*;

    /// The phased histogram under every tree kind, in `TreeKind::ALL` order.
    fn phased_all_trees(trace: &[Addr], chunk: usize, config: &PardaConfig) -> [ReuseHistogram; 4] {
        [
            parda_phased::<SplayTree, _>(SliceStream::new(trace), chunk, config),
            parda_phased::<AvlTree, _>(SliceStream::new(trace), chunk, config),
            parda_phased::<Treap, _>(SliceStream::new(trace), chunk, config),
            parda_phased::<VectorTree, _>(SliceStream::new(trace), chunk, config),
        ]
    }

    /// Algorithm 7's contract: exact below the bound, identical totals and
    /// miss counts up to it.
    fn assert_bounded_contract(hist: &ReuseHistogram, full: &ReuseHistogram, bound: u64) {
        assert_eq!(hist.total(), full.total());
        for d in 0..bound {
            assert_eq!(hist.count(d), full.count(d), "bucket {d}");
        }
        for cap in 1..=bound {
            assert_eq!(hist.miss_count(cap), full.miss_count(cap), "capacity {cap}");
        }
    }

    #[test]
    fn phased_matches_offline_on_small_trace() {
        let trace: Vec<Addr> = "dacbccgefafbcmtmacfbdcac".bytes().map(u64::from).collect();
        let seq = analyze_sequential::<SplayTree>(&trace, None);
        for np in [1usize, 2, 3, 4] {
            for chunk in [1usize, 2, 4, 100] {
                let hists = phased_all_trees(&trace, chunk, &PardaConfig::with_ranks(np));
                for (hist, kind) in hists.iter().zip(parda_tree::TreeKind::ALL) {
                    assert_eq!(*hist, seq, "np={np} chunk={chunk} {kind:?}");
                }
            }
        }
    }

    #[test]
    fn phase_boundary_splitting_reuse_pairs() {
        // Reuse pairs straddling phase boundaries exercise the global-state
        // carry: [0..k] then the same block again in the next phase.
        let mut trace: Vec<Addr> = (0..32).collect();
        trace.extend(0..32u64);
        let seq = analyze_sequential::<SplayTree>(&trace, None);
        let hist = parda_phased::<SplayTree, _>(
            SliceStream::new(&trace),
            8, // np*C = 32: the second lap lands entirely in phase 2
            &PardaConfig::with_ranks(4),
        );
        assert_eq!(hist, seq);
        assert_eq!(hist.count(31), 32, "each element reused at distance 31");
    }

    #[test]
    fn state_accumulates_on_rank_zero_over_many_phases() {
        // Many phases, each appending every rank's run onto the global
        // state rank 0 already holds, with chunks both smaller and larger
        // than the footprint.
        let trace: Vec<Addr> = (0..3_000).map(|i| i % 100).collect();
        let seq = analyze_sequential::<SplayTree>(&trace, None);
        for chunk in [10usize, 17, 100] {
            let hists = phased_all_trees(&trace, chunk, &PardaConfig::with_ranks(3));
            for (hist, kind) in hists.iter().zip(parda_tree::TreeKind::ALL) {
                assert_eq!(*hist, seq, "chunk={chunk} {kind:?}");
            }
        }
    }

    #[test]
    fn empty_stream_is_fine() {
        let hist =
            parda_phased::<SplayTree, _>(SliceStream::new(&[]), 16, &PardaConfig::with_ranks(3));
        assert_eq!(hist.total(), 0);
    }

    #[test]
    fn ragged_final_phase() {
        // 100 refs with np*C = 48: two full phases + one ragged (4 refs).
        let trace: Vec<Addr> = (0..100).map(|i| i % 10).collect();
        let seq = analyze_sequential::<SplayTree>(&trace, None);
        let hist =
            parda_phased::<SplayTree, _>(SliceStream::new(&trace), 16, &PardaConfig::with_ranks(3));
        assert_eq!(hist, seq);
    }

    #[test]
    fn bounded_phased_respects_contract() {
        let trace: Vec<Addr> = (0..1_000).map(|i| (i * 13) % 101).collect();
        let full = analyze_sequential::<SplayTree>(&trace, None);
        let cfg = PardaConfig::with_ranks(3).bounded(16);
        for hist in &phased_all_trees(&trace, 32, &cfg) {
            assert_bounded_contract(hist, &full, 16);
        }
    }

    proptest! {
        /// Streaming = offline, for every trace, rank count, phase size and
        /// tree kind.
        #[test]
        fn phased_equals_offline(
            trace in proptest::collection::vec(0u64..32, 0..250),
            np in 1usize..5,
            chunk in 1usize..40,
        ) {
            let seq = analyze_sequential::<SplayTree>(&trace, None);
            for hist in &phased_all_trees(&trace, chunk, &PardaConfig::with_ranks(np)) {
                prop_assert_eq!(hist, &seq);
            }
        }

        /// With a small bound, first touches past the forwarding cap stay
        /// on their rank while older copies live on lower ranks, so
        /// replicas of one address reach the reduction from several ranks.
        /// Every tree must still agree and keep Algorithm 7's contract.
        #[test]
        fn bounded_phased_trees_agree(
            trace in proptest::collection::vec(0u64..32, 0..250),
            np in 2usize..5,
            chunk in 1usize..40,
            bound in 1u64..6,
        ) {
            let seq = analyze_sequential::<SplayTree>(&trace, None);
            let hists = phased_all_trees(&trace, chunk, &PardaConfig::with_ranks(np).bounded(bound));
            for hist in &hists {
                prop_assert_eq!(hist, &hists[0]);
                assert_bounded_contract(hist, &seq, bound);
            }
        }
    }
}
