//! Workloads, their generated inputs, and the front doors they drive.
//!
//! Every workload is one zipf address distribution. The benchmark writes a
//! v2 trace file from it for the two offline doors and cuts session traces
//! from it for the daemon, so each workload reports every end-to-end metric
//! while the workloads differ in the property the analysis cost depends
//! on: footprint against the cache (`file-large` against `file-small`) and
//! the share of time the daemon gets (`daemon-mixed`).

use parda_core::phased::Reduction;
use parda_core::{Analysis, ApproxMode, Mode, PardaError, Report, SessionAnalysis};
use parda_hist::ReuseHistogram;
use parda_obs::ServerMetrics;
use parda_server::{submit, Server, ServerConfig, ShutdownHandle, SubmitOptions};
use parda_trace::gen::ZipfGen;
use parda_trace::io::{load_trace, save_trace_v2, Encoding};
use parda_trace::{AddressStream, Trace};
use parda_tree::TreeKind;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

/// Zipf skew of every workload.
pub const THETA: f64 = 0.99;
/// `parda analyze` default rank count.
pub const RANKS: usize = 4;
/// `parda analyze` default phase chunk (`--chunk`).
pub const PHASE_CHUNK: usize = 65_536;
/// The sketch sessions' CONFIG `approx=` value.
pub const SKETCH_SPEC: &str = "shards-smax:8192";
/// Distinct session traces per class; sessions cycle through them.
pub const POOL: usize = 8;

/// Sizes of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Distinct addresses the zipf draws from (M).
    pub footprint: usize,
    /// References in the trace file (N).
    pub file_refs: usize,
    /// References per daemon session: a few hundred thousand, long enough
    /// that scheduling hiccups do not decide the session percentiles.
    pub session_refs: usize,
    /// Share of the measured seconds given to the file doors; the daemon
    /// gets the rest.
    pub file_share: f64,
}

/// The named workloads (see `BENCHMARK.json` for why each exists).
pub const WORKLOADS: [&str; 3] = ["file-large", "file-small", "daemon-mixed"];

pub fn params(workload: &str) -> Option<Params> {
    let (footprint, file_refs, session_refs, file_share) = match workload {
        // Per-rank table and tree state of tens of MB, beyond the L2.
        "file-large" => (1 << 20, 5_000_000, 200_000, 0.4),
        // A footprint whose state fits in the L2.
        "file-small" => (1 << 14, 2_000_000, 200_000, 0.4),
        // A mid-size footprint, and the daemon gets most of the time.
        "daemon-mixed" => (200_000, 1_000_000, 200_000, 0.3),
        _ => return None,
    };
    Some(Params {
        footprint,
        file_refs,
        session_refs,
        file_share,
    })
}

/// One workload's session traces (the file's references live only in
/// the file).
pub struct Inputs {
    pub exact_pool: Vec<Trace>,
    pub sketch_pool: Vec<Trace>,
}

/// Generate the inputs for `seed` and write the trace file to `path`.
pub fn generate(p: &Params, seed: u64, path: &Path) -> std::io::Result<Inputs> {
    let mut zipf = ZipfGen::new(p.footprint, THETA, 0, seed);
    let trace = zipf.take_trace(p.file_refs);
    save_trace_v2(path, &trace, Encoding::DeltaVarint)?;
    let mut pool =
        || -> Vec<Trace> { (0..POOL).map(|_| zipf.take_trace(p.session_refs)).collect() };
    let exact_pool = pool();
    let sketch_pool = pool();
    Ok(Inputs {
        exact_pool,
        sketch_pool,
    })
}

/// `parda analyze f.trc` on a v2 file: the phased stream door.
pub fn run_stream_door(path: &Path) -> Result<(ReuseHistogram, Report), PardaError> {
    let (hist, report) = Analysis::new()
        .tree(TreeKind::Splay)
        .ranks(RANKS)
        .mode(Mode::Phased {
            chunk: PHASE_CHUNK,
            reduction: Reduction::ShipToRankZero,
        })
        .stats(true)
        .run_file(path)?;
    Ok((hist, report.expect("stats were requested")))
}

/// `parda analyze f.trc --engine parda`: decode in memory, then the
/// Algorithm 3 thread cascade with panic isolation.
pub fn run_mem_door(path: &Path) -> Result<(ReuseHistogram, Report), PardaError> {
    let trace = load_trace(path)?;
    let (hist, report) = Analysis::new()
        .tree(TreeKind::Splay)
        .ranks(RANKS)
        .mode(Mode::Threads)
        .stats(true)
        .run_faulted(trace.as_slice())?;
    Ok((hist, report.expect("stats were requested")))
}

/// `parda analyze f.trc --engine seq`: the sequential baseline, also the
/// untimed reference both doors must match.
pub fn run_seq_door(path: &Path) -> Result<ReuseHistogram, PardaError> {
    let trace = load_trace(path)?;
    Ok(Analysis::new()
        .tree(TreeKind::Splay)
        .mode(Mode::Seq)
        .run(trace.as_slice())
        .0)
}

/// The session classes of the daemon traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// No engine key in CONFIG: the daemon's Auto engine.
    Exact,
    /// `approx=shards-smax:8192`.
    Sketch,
}

impl Class {
    pub fn options(self) -> SubmitOptions {
        let mut opts = SubmitOptions::default();
        if self == Class::Sketch {
            opts.config.push(("approx".into(), SKETCH_SPEC.into()));
        }
        opts
    }

    /// The analysis the daemon runs for this class: the builder
    /// `parda_server::session` resolves from a CONFIG without `engine`,
    /// `tree`, `ranks` or `chunk` (vector tree, thread cascade with the
    /// rank count scaled to the session at finish).
    pub fn session(self) -> SessionAnalysis {
        let approx = match self {
            Class::Exact => ApproxMode::Exact,
            Class::Sketch => ApproxMode::parse(SKETCH_SPEC).expect("valid sketch spec"),
        };
        Analysis::new()
            .tree(TreeKind::Vector)
            .mode(Mode::Threads)
            .stats(true)
            .approx(approx)
            .session()
            .auto_ranks(true)
    }

    /// Offline result of one session trace through the daemon's own
    /// engine: what every reply of this class must equal.
    pub fn offline(self, trace: &Trace) -> Result<ReuseHistogram, PardaError> {
        let mut session = self.session();
        session.feed(trace.as_slice());
        Ok(session.finish()?.0)
    }
}

/// An in-process daemon on loopback with the default configuration.
pub struct Daemon {
    pub addr: String,
    shutdown: ShutdownHandle,
    join: JoinHandle<std::io::Result<ServerMetrics>>,
}

impl Daemon {
    pub fn start() -> std::io::Result<Self> {
        let server = Server::bind(ServerConfig::default())?;
        let addr = server.local_addr()?.to_string();
        let shutdown = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());
        Ok(Self {
            addr,
            shutdown,
            join,
        })
    }

    /// Drain and stop the daemon, returning its final metrics.
    pub fn stop(self) -> Result<ServerMetrics, String> {
        self.shutdown.shutdown();
        self.join
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))
    }
}

/// Inputs ready to measure and a running daemon that has answered once.
pub struct Ready {
    pub inputs: Inputs,
    pub daemon: Daemon,
}

/// The timed set-up: generate the inputs, write the trace file, bind the
/// daemon and complete the first HELLO-to-reply round trip (a
/// one-reference session). Returns the set-up and its wall seconds.
pub fn set_up(p: &Params, seed: u64, path: &Path) -> Result<(Ready, f64), String> {
    let sw = Instant::now();
    let inputs = generate(p, seed, path).map_err(|e| format!("generate inputs: {e}"))?;
    let daemon = Daemon::start().map_err(|e| format!("start daemon: {e}"))?;
    let reply = submit(&daemon.addr, &[0], &SubmitOptions::default())
        .map_err(|e| format!("first round trip: {e}"))?;
    let secs = sw.elapsed().as_secs_f64();
    if reply.histogram.infinite() != 1 || reply.histogram.total() != 1 {
        return Err("first round trip returned a wrong histogram".into());
    }
    Ok((Ready { inputs, daemon }, secs))
}
