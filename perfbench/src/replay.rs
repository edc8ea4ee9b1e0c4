//! One-thread replays of the doors and session classes for the traced run.
//!
//! Each replay calls the same public functions the real door or daemon
//! session calls, in the order the real door's ranks call them, and wraps
//! every call in a span. Run with the door's rank count on one thread, the
//! file replays are "ranks on 1 worker": the work-efficiency side of the
//! parallel speedup. Each must reproduce the real door's histogram bit for
//! bit; the caller checks that.

use crate::span::Tracer;
use crate::workload::{Class, PHASE_CHUNK, RANKS};
use parda_core::{Engine, MissSink};
use parda_hist::ReuseHistogram;
use parda_obs::EngineMetrics;
use parda_server::proto::{decode_data_frame_into, encode_data_frame, encode_histogram_binary};
use parda_trace::io::{load_trace, Encoding, FRAME_REFS};
use parda_trace::stream::FramedStream;
use parda_trace::{chunk_slice, Addr, AddressStream, Trace};
use parda_tree::SplayTree;
use std::path::Path;

/// Counters of one file-door replay.
#[derive(Debug, Default)]
pub struct DoorCounts {
    /// Every rank's engine counters, merged.
    pub engine: EngineMetrics,
    /// Phases read (stream door only).
    pub phases: u64,
    /// Phase boundaries that reduced state (stream door only).
    pub reductions: u64,
    /// `(timestamp, addr)` pairs drained and imported across reductions.
    pub pairs_moved: u64,
    /// Frames in the file (stream door only).
    pub frames: u64,
}

type Ranks = Vec<Engine<SplayTree>>;

fn ranks(hint: usize, tr: &mut Tracer) -> Ranks {
    tr.span("engine.new", |_| {
        (0..RANKS).map(|_| Engine::new(None, hint)).collect()
    })
}

/// Analyze `chunk` split across the ranks (rank 0 on top of any imported
/// state), then run the Algorithm 3 cascade: each rank's local infinities
/// travel left until resolved, and rank 0's survivors are global
/// infinities. Rank `v` receives its neighbours' lists in the order the
/// message-passing ranks of `parda_phased` deliver them, so every engine
/// sees the same sequence of calls.
fn one_pass(engines: &mut Ranks, chunk: &[Addr], base: u64, tr: &mut Tracer) -> u64 {
    let mut forwarded: Vec<Vec<Addr>> = vec![Vec::new(); RANKS];
    let mut start = base;
    for (v, (c, out)) in chunk_slice(chunk, RANKS)
        .into_iter()
        .zip(&mut forwarded)
        .enumerate()
    {
        let sink = if v == 0 {
            MissSink::Infinite
        } else {
            MissSink::Forward(out)
        };
        tr.span("engine.process_chunk", |_| {
            engines[v].process_chunk(c, start, sink)
        });
        start += c.len() as u64;
    }
    for (s, list) in forwarded.into_iter().enumerate().skip(1) {
        let mut list = list;
        for v in (0..s).rev() {
            let mut survivors = Vec::new();
            tr.span("parallel.process_infinities", |_| {
                engines[v].process_infinities(&list, &mut survivors)
            });
            list = survivors;
        }
        engines[0].record_global_infinities(list.len() as u64);
    }
    start
}

/// Fold the ranks' histograms and counters, then free the ranks' state.
fn merge(engines: Ranks, counts: &mut DoorCounts, tr: &mut Tracer) -> ReuseHistogram {
    for e in &engines {
        counts.engine.merge(e.metrics());
    }
    let hist = tr.span("hist.merge", |_| {
        let mut total = ReuseHistogram::new();
        for e in &engines {
            total.merge(e.histogram());
        }
        total
    });
    tr.span("engine.drop", |_| drop(engines));
    hist
}

/// The stream door (Algorithms 5–6, ship-to-rank-zero reduction) over the
/// v2 file, read through one frame decoder.
pub fn stream_door(path: &Path, tr: &mut Tracer) -> Result<(ReuseHistogram, DoorCounts), String> {
    tr.span("door.stream", |tr| {
        let mut source = tr
            .span("trace.open", |_| FramedStream::open_with(path, 1))
            .map_err(|e| format!("open: {e}"))?;
        let errors = source.error_handle();
        let mut engines = ranks(PHASE_CHUNK, tr);
        let mut counts = DoorCounts {
            frames: source.frames(),
            ..DoorCounts::default()
        };
        let mut buf = Vec::with_capacity(RANKS * PHASE_CHUNK);
        let mut base = 0;
        loop {
            buf.clear();
            let got = tr.span("trace.fill", |_| source.fill(&mut buf, RANKS * PHASE_CHUNK));
            if got == 0 {
                break;
            }
            counts.phases += 1;
            base = one_pass(&mut engines, &buf, base, tr);
            // Algorithm 6: the last rank merges everyone's live state and
            // ships it to rank 0. A short read is the last phase, which
            // needs no reduction.
            if got == RANKS * PHASE_CHUNK {
                counts.reductions += 1;
                let (rest, last) = engines.split_at_mut(RANKS - 1);
                for e in rest.iter_mut() {
                    let pairs = tr.span("phased.drain_state", |_| e.drain_state());
                    counts.pairs_moved += pairs.len() as u64;
                    tr.span("phased.import_state", |_| last[0].import_state(&pairs));
                }
                let merged = tr.span("phased.drain_state", |_| last[0].drain_state());
                counts.pairs_moved += merged.len() as u64;
                tr.span("phased.import_state", |_| rest[0].import_state(&merged));
            }
            for e in &mut engines {
                e.reset_phase_counters();
            }
        }
        if let Some(e) = errors.take() {
            return Err(format!("decode: {e}"));
        }
        let hist = merge(engines, &mut counts, tr);
        tr.span("trace.close", |_| drop(source));
        Ok((hist, counts))
    })
}

/// The in-memory door: decode the whole file, then one Algorithm 3 pass at
/// rank granularity.
pub fn mem_door(path: &Path, tr: &mut Tracer) -> Result<(ReuseHistogram, DoorCounts), String> {
    tr.span("door.mem", |tr| {
        let trace = tr
            .span("trace.load_trace", |_| load_trace(path))
            .map_err(|e| format!("load: {e}"))?;
        let mut engines = ranks(trace.len().div_ceil(RANKS), tr);
        let mut counts = DoorCounts::default();
        one_pass(&mut engines, trace.as_slice(), 0, tr);
        let hist = merge(engines, &mut counts, tr);
        tr.span("trace.close", |_| drop(trace));
        Ok((hist, counts))
    })
}

/// Counters of one session replay.
#[derive(Debug, Default)]
pub struct SessionCounts {
    /// Per-session analysis state before `finish`.
    pub state_bytes: u64,
    /// References the sketch sampled (sketch sessions only).
    pub sampled_refs: u64,
}

/// One session as client and daemon shard process it, minus the sockets:
/// encode the DATA frames, decode them, feed the session, finish it and
/// encode the binary reply.
pub fn session(
    class: Class,
    trace: &Trace,
    tr: &mut Tracer,
) -> Result<(ReuseHistogram, SessionCounts), String> {
    let (root, feed, finish) = match class {
        Class::Exact => ("session.exact", "session.feed", "session.finish"),
        Class::Sketch => ("session.sketch", "approx.update", "approx.finalize"),
    };
    tr.span(root, |tr| {
        let mut counts = SessionCounts::default();
        let frames: Vec<Vec<u8>> = trace
            .as_slice()
            .chunks(FRAME_REFS)
            .map(|c| {
                tr.span("server.encode_data_frame", |_| {
                    encode_data_frame(c, Encoding::DeltaVarint)
                })
            })
            .collect();
        let mut session = class.session();
        let mut arena = Vec::new();
        for f in &frames {
            tr.span("server.decode_data_frame_into", |_| {
                decode_data_frame_into(f, Encoding::DeltaVarint, &mut arena)
            })
            .map_err(|e| e.message())?;
            tr.span(feed, |_| session.feed(&arena));
        }
        counts.state_bytes = session.state_bytes();
        let (hist, report) = tr
            .span(finish, |_| session.finish())
            .map_err(|e| format!("finish: {e}"))?;
        if let Some(approx) = report.and_then(|r| r.approx) {
            counts.sampled_refs = approx.sampled_refs;
        }
        tr.span("server.encode_histogram_binary", |_| {
            encode_histogram_binary(&hist)
        });
        Ok((hist, counts))
    })
}
