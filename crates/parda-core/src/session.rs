//! Resumable per-session analysis: [`SessionAnalysis`].
//!
//! Daemon-style hosts (the `parda-server` shards) feed decoded frames into
//! a session as they arrive off the wire and collect the result at FIN —
//! no parked analysis thread, no bounded pipe. The driver is a small state
//! machine:
//!
//! * [`SessionAnalysis::feed`] absorbs one frame and answers
//!   [`SessionStep::NeedMore`] (the frame was analyzed or sketched
//!   immediately; per-session state stays bounded) or
//!   [`SessionStep::Pending`] (the frame was buffered for a finish-time
//!   engine such as the parallel cascade).
//! * [`SessionAnalysis::finish`] runs any deferred work and returns the
//!   `Done` payload: the histogram plus the optional [`Report`].
//!
//! Which internal engine drives the session follows the builder:
//!
//! * Approximate modes ([`crate::approx::ApproxMode`] other than `Exact`)
//!   stream through the constant-space [`ApproxSketch`] — `feed` is O(1)
//!   amortized and per-session memory is O(sketch) regardless of
//!   footprint.
//! * [`Mode::Seq`] and [`Mode::Phased`] stream through the incremental
//!   [`SequentialAnalyzer`] (Algorithm 1 driven frame by frame).
//! * [`Mode::Threads`] (and the naïve baseline) buffer references and run
//!   the builder's engine at `finish` via [`Analysis::run_faulted`]: the
//!   one Algorithm 3 driver, so panic isolation, item rescue and the
//!   watchdog apply unchanged, and a session that reaches 2·2^17
//!   references per rank gets work-stealing sub-chunks.
//!
//! Every path is bit-identical to the equivalent one-shot
//! [`Analysis::run`] / [`Analysis::run_stream`] regardless of how the
//! trace is split into frames (unit-tested below).

use crate::analysis::{Analysis, Mode};
use crate::approx::ApproxSketch;
use crate::error::PardaError;
use crate::seq::SequentialAnalyzer;
use parda_hist::ReuseHistogram;
use parda_obs::{RankMetrics, Report, Stopwatch};
use parda_trace::Addr;
use parda_tree::{AvlTree, SplayTree, Treap, TreeKind, VectorTree};

/// What [`SessionAnalysis::feed`] did with a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionStep {
    /// The frame was consumed by an incremental engine (sequential tree or
    /// sketch); per-session state stays bounded. Feed more or `finish`.
    NeedMore,
    /// The frame was buffered for a finish-time engine (parallel cascade);
    /// the analysis itself is pending until `finish`.
    Pending,
}

/// Target references per rank when [`SessionAnalysis::auto_ranks`] picks
/// the cascade width at `finish` (measured sweet spot for the batched
/// infinity-absorb cascade: small, cache-resident per-rank trees).
const AUTO_RANK_CHUNK: u64 = 32_768;

/// Rank-count ceiling for [`SessionAnalysis::auto_ranks`].
const AUTO_RANK_MAX: u64 = 64;

/// A [`SequentialAnalyzer`] erased over the runtime [`TreeKind`].
enum ErasedSeq {
    Splay(SequentialAnalyzer<SplayTree>),
    Avl(SequentialAnalyzer<AvlTree>),
    Treap(SequentialAnalyzer<Treap>),
    Vector(SequentialAnalyzer<VectorTree>),
}

impl ErasedSeq {
    fn new(kind: TreeKind, bound: Option<u64>) -> Self {
        match kind {
            TreeKind::Splay => ErasedSeq::Splay(SequentialAnalyzer::new(bound)),
            TreeKind::Avl => ErasedSeq::Avl(SequentialAnalyzer::new(bound)),
            TreeKind::Treap => ErasedSeq::Treap(SequentialAnalyzer::new(bound)),
            TreeKind::Vector => ErasedSeq::Vector(SequentialAnalyzer::new(bound)),
        }
    }

    fn process_all(&mut self, addrs: &[Addr]) {
        match self {
            ErasedSeq::Splay(a) => a.process_all(addrs),
            ErasedSeq::Avl(a) => a.process_all(addrs),
            ErasedSeq::Treap(a) => a.process_all(addrs),
            ErasedSeq::Vector(a) => a.process_all(addrs),
        }
    }

    fn metrics(&self) -> parda_obs::EngineMetrics {
        match self {
            ErasedSeq::Splay(a) => a.metrics().clone(),
            ErasedSeq::Avl(a) => a.metrics().clone(),
            ErasedSeq::Treap(a) => a.metrics().clone(),
            ErasedSeq::Vector(a) => a.metrics().clone(),
        }
    }

    fn finish(self) -> ReuseHistogram {
        match self {
            ErasedSeq::Splay(a) => a.finish(),
            ErasedSeq::Avl(a) => a.finish(),
            ErasedSeq::Treap(a) => a.finish(),
            ErasedSeq::Vector(a) => a.finish(),
        }
    }
}

enum State {
    Sketch(ApproxSketch),
    Incremental(ErasedSeq),
    Collect(Vec<Addr>),
}

/// Resumable analysis session (see the module docs).
pub struct SessionAnalysis {
    builder: Analysis,
    state: State,
    refs: u64,
    auto_ranks: bool,
    sw: Stopwatch,
    /// Wall time spent detached from any transport (parked in a host's
    /// orphan pool between a disconnect and a resume); excluded from the
    /// report's `total_ns` so session timing reflects analysis, not the
    /// client's reconnect latency.
    detached_ns: u64,
    detached_at: Option<std::time::Instant>,
    resumes: u32,
}

impl Analysis {
    /// Begin a resumable session driven by this builder's configuration.
    pub fn session(&self) -> SessionAnalysis {
        let state = if !self.approx_mode().is_exact() {
            State::Sketch(ApproxSketch::new(self.approx_mode()))
        } else {
            match self.mode_kind() {
                Mode::Seq | Mode::Phased { .. } => {
                    State::Incremental(ErasedSeq::new(self.tree_kind(), self.bound_opt()))
                }
                _ => State::Collect(Vec::new()),
            }
        };
        SessionAnalysis {
            builder: self.clone(),
            state,
            refs: 0,
            auto_ranks: false,
            sw: Stopwatch::start(),
            detached_ns: 0,
            detached_at: None,
            resumes: 0,
        }
    }
}

impl SessionAnalysis {
    /// Let `finish` pick the cascade rank count from the trace length
    /// (≈ one rank per 32768 references, capped at
    /// 64) when the builder left ranks unset. Only affects
    /// the buffered finish-time engines; histograms are rank-count
    /// invariant (property-tested), so this is purely a speed knob.
    pub fn auto_ranks(mut self, on: bool) -> Self {
        self.auto_ranks = on;
        self
    }

    /// Absorb one frame of decoded references.
    pub fn feed(&mut self, addrs: &[Addr]) -> SessionStep {
        self.refs += addrs.len() as u64;
        match &mut self.state {
            State::Sketch(sketch) => {
                sketch.update(addrs);
                SessionStep::NeedMore
            }
            State::Incremental(seq) => {
                seq.process_all(addrs);
                SessionStep::NeedMore
            }
            State::Collect(buf) => {
                buf.extend_from_slice(addrs);
                SessionStep::Pending
            }
        }
    }

    /// References fed so far.
    pub fn refs(&self) -> u64 {
        self.refs
    }

    /// Mark the session as detached from its transport: the clock on
    /// "time spent analyzing" pauses until [`Self::reattach`]. Idempotent
    /// — a second detach without a reattach keeps the earlier mark.
    pub fn detach(&mut self) {
        if self.detached_at.is_none() {
            self.detached_at = Some(std::time::Instant::now());
        }
    }

    /// Reattach a detached session to a new transport, folding the time
    /// spent parked into the excluded-detached tally. No-op if the
    /// session was never detached.
    pub fn reattach(&mut self) {
        if let Some(at) = self.detached_at.take() {
            self.detached_ns += at.elapsed().as_nanos() as u64;
            self.resumes += 1;
        }
    }

    /// Times this session was reattached after a disconnect.
    pub fn resumes(&self) -> u32 {
        self.resumes
    }

    /// Wall time the session's stopwatch owes to analysis, not to sitting
    /// detached waiting for a reconnect.
    fn attached_ns(&self) -> u64 {
        let mut detached = self.detached_ns;
        if let Some(at) = &self.detached_at {
            detached += at.elapsed().as_nanos() as u64;
        }
        self.sw.ns().saturating_sub(detached)
    }

    /// Whether the session streams through a constant-space sketch.
    pub fn is_sketch(&self) -> bool {
        matches!(self.state, State::Sketch(_))
    }

    /// Estimated bytes of per-session analysis state held right now:
    /// exact sketch accounting for approximate sessions, buffer capacity
    /// for the collect path, and a per-live-address estimate (hash entry +
    /// tree node) for the incremental tree path.
    pub fn state_bytes(&self) -> u64 {
        match &self.state {
            State::Sketch(sketch) => sketch.memory_bytes(),
            State::Collect(buf) => (buf.capacity() * std::mem::size_of::<Addr>()) as u64,
            State::Incremental(seq) => seq.metrics().live_hwm * 64,
        }
    }

    /// Run any deferred work and return the result — the `Done` step of
    /// the `feed → Pending | NeedMore` state machine.
    ///
    /// Errors only surface from the buffered [`Analysis::run_faulted`]
    /// path (a worker panic that survives every rescue, or a watchdog
    /// stall, under the builder's [`crate::FaultPolicy`]).
    pub fn finish(self) -> Result<(ReuseHistogram, Option<Report>), PardaError> {
        let attached_ns = self.attached_ns();
        match self.state {
            State::Sketch(sketch) => {
                Ok(self.builder.finish_approx(&sketch, self.refs, attached_ns))
            }
            State::Incremental(seq) => {
                let total_ns = attached_ns;
                let refs = self.refs;
                let metrics = seq.metrics();
                let hist = seq.finish();
                if !self.builder.stats_on() {
                    return Ok((hist, None));
                }
                let report = Report {
                    mode: "session-stream".into(),
                    tree: self.builder.tree_kind().name().into(),
                    ranks: 1,
                    bound: self.builder.bound_opt(),
                    trace_refs: refs,
                    total_ns,
                    per_rank: vec![RankMetrics {
                        rank: 0,
                        refs,
                        chunk_ns: total_ns,
                        engine: metrics,
                        ..Default::default()
                    }],
                    stream: None,
                    phased: None,
                    recovery: None,
                    approx: None,
                    shared: None,
                };
                Ok((hist, Some(report)))
            }
            State::Collect(buf) => {
                let mut builder = self.builder;
                if self.auto_ranks && builder.ranks_opt().is_none() {
                    let ranks =
                        (buf.len() as u64 / AUTO_RANK_CHUNK).clamp(1, AUTO_RANK_MAX) as usize;
                    builder = builder.ranks(ranks);
                }
                builder.run_faulted(&buf)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::ApproxMode;
    use proptest::prelude::*;

    fn zipfish(n: usize) -> Vec<Addr> {
        (0..n as u64).map(|i| (i * 131) % 977).collect()
    }

    /// Feed a trace in ragged frames.
    fn feed_frames(session: &mut SessionAnalysis, trace: &[Addr]) {
        for chunk in trace.chunks(237) {
            session.feed(chunk);
        }
    }

    #[test]
    fn incremental_matches_one_shot_for_every_tree() {
        let trace = zipfish(5_000);
        for kind in [
            TreeKind::Splay,
            TreeKind::Avl,
            TreeKind::Treap,
            TreeKind::Vector,
        ] {
            let builder = Analysis::new().tree(kind).mode(Mode::Seq).stats(true);
            let (expect, _) = builder.run(&trace);
            let mut session = builder.session();
            feed_frames(&mut session, &trace);
            assert_eq!(session.refs(), 5_000);
            assert!(!session.is_sketch());
            let (hist, report) = session.finish().unwrap();
            assert_eq!(hist, expect, "{kind:?}");
            let report = report.unwrap();
            assert_eq!(report.mode, "session-stream");
            assert_eq!(report.trace_refs, 5_000);
        }
    }

    #[test]
    fn phased_mode_streams_incrementally() {
        let trace = zipfish(3_000);
        let builder = Analysis::new().mode(Mode::Phased {
            chunk: 64,
            reduction: crate::phased::Reduction::ShipToRankZero,
        });
        let (expect, _) = builder.run(&trace);
        let mut session = builder.session();
        assert_eq!(session.feed(&trace[..100]), SessionStep::NeedMore);
        feed_frames(&mut session, &trace[100..]);
        let (hist, _) = session.finish().unwrap();
        assert_eq!(hist, expect);
    }

    #[test]
    fn collect_path_runs_the_cascade_at_finish() {
        let trace = zipfish(4_000);
        let builder = Analysis::new().ranks(4).mode(Mode::Threads).stats(true);
        let (expect, _) = builder.run(&trace);
        let mut session = builder.session();
        assert_eq!(session.feed(&trace[..1_000]), SessionStep::Pending);
        feed_frames(&mut session, &trace[1_000..]);
        let (hist, report) = session.finish().unwrap();
        assert_eq!(hist, expect);
        let report = report.unwrap();
        assert_eq!(report.mode, "parda-threads");
        assert!(report
            .recovery
            .expect("faulted run attaches recovery")
            .is_clean());
    }

    #[test]
    fn auto_ranks_is_bit_identical_and_bounded() {
        let trace = zipfish(100_000);
        let builder = Analysis::new().mode(Mode::Threads);
        let (expect, _) = builder.run(&trace);
        let mut session = builder.session().auto_ranks(true);
        feed_frames(&mut session, &trace);
        let (hist, _) = session.finish().unwrap();
        assert_eq!(hist, expect, "rank count never changes the histogram");

        // Tiny sessions collapse to a single rank.
        let builder = Analysis::new().mode(Mode::Threads);
        let mut small = builder.session().auto_ranks(true);
        small.feed(&trace[..100]);
        let (hist, _) = small.finish().unwrap();
        assert_eq!(
            hist,
            Analysis::new().mode(Mode::Threads).run(&trace[..100]).0
        );
    }

    #[test]
    fn sketch_sessions_are_constant_space() {
        let trace = zipfish(50_000);
        for mode in [
            ApproxMode::ShardsFixedRate { rate: 0.25 },
            ApproxMode::ShardsFixedSize { s_max: 512 },
            ApproxMode::Aet { rate: 0.5 },
        ] {
            let builder = Analysis::new().approx(mode).stats(true);
            let (expect, _) = builder.run(&trace);
            let mut session = builder.session();
            assert!(session.is_sketch());
            feed_frames(&mut session, &trace);
            let bytes = session.state_bytes();
            assert!(bytes > 0, "{mode}: sketch accounting is live");
            assert!(
                bytes < 4 << 20,
                "{mode}: sketch stays small ({bytes} bytes)"
            );
            let (hist, report) = session.finish().unwrap();
            assert_eq!(hist, expect, "{mode}: frame boundaries never matter");
            assert!(report.unwrap().approx.is_some());
        }
    }

    #[test]
    fn detached_time_is_excluded_from_the_report_clock() {
        let trace = zipfish(2_000);
        let builder = Analysis::new().mode(Mode::Seq).stats(true);
        let mut session = builder.session();
        session.feed(&trace[..1_000]);
        session.detach();
        std::thread::sleep(std::time::Duration::from_millis(50));
        session.reattach();
        assert_eq!(session.resumes(), 1);
        session.feed(&trace[1_000..]);
        let (hist, report) = session.finish().unwrap();
        assert_eq!(hist, builder.run(&trace).0, "detach never changes the math");
        let total_ns = report.unwrap().total_ns;
        assert!(
            total_ns < 40_000_000,
            "50ms parked must not count as analysis time (got {total_ns}ns)"
        );

        // detach is idempotent; reattach without detach is a no-op.
        let mut s = builder.session();
        s.reattach();
        assert_eq!(s.resumes(), 0);
        s.detach();
        s.detach();
        s.reattach();
        assert_eq!(s.resumes(), 1);
    }

    #[test]
    fn state_bytes_tracks_collect_buffer() {
        let trace = zipfish(10_000);
        let mut session = Analysis::new().mode(Mode::Threads).session();
        session.feed(&trace);
        assert!(session.state_bytes() >= (10_000 * std::mem::size_of::<Addr>()) as u64);
    }

    proptest! {
        /// Frame boundaries never change any engine's histogram.
        #[test]
        fn framing_invariance(
            trace in proptest::collection::vec(0u64..128, 0..600),
            cut in 1usize..600,
        ) {
            for builder in [
                Analysis::new().mode(Mode::Seq),
                Analysis::new().ranks(3).mode(Mode::Threads),
                Analysis::new().approx(ApproxMode::ShardsFixedRate { rate: 0.5 }),
            ] {
                let (expect, _) = builder.run(&trace);
                let mut session = builder.session();
                let cut = cut.min(trace.len());
                session.feed(&trace[..cut]);
                session.feed(&trace[cut..]);
                let (hist, _) = session.finish().unwrap();
                prop_assert_eq!(hist, expect);
            }
        }
    }
}
