//! PARDA benchmark: the offline file doors and the daemon, end to end and
//! layer by layer.
//!
//! ```text
//! perfbench --workload <file-large|file-small|daemon-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! (`python3 perfbench/run.py` builds this binary and passes `--work-dir`.)
//!
//! Every workload generates its inputs from the seed, then, in each of
//! three rounds:
//!
//! * the **file doors** run back to back on a v2 trace file: the phased
//!   stream door (`parda analyze f.trc`) and the in-memory door
//!   (`parda analyze f.trc --engine parda`, decode included);
//! * the **daemon** serves two closed-loop clients on loopback, one sending
//!   exact sessions (the Auto engine) and one sending
//!   `approx=shards-smax:8192` sketch sessions.
//!
//! Every output is checked: both doors against the sequential engine run
//! untimed, every reply against its session trace analyzed offline by the
//! daemon's own engine. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics of
//! one-thread span-traced replays (spans written to
//! `<work-dir>/<workload>-spans.jsonl`).

mod daemon;
mod metrics;
mod replay;
mod span;
mod stats;
mod workload;

use daemon::Traffic;
use parda_hist::ReuseHistogram;
use serde_json::Value;
use span::Tracer;
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Class, Params, Ready};

/// Set-ups per measured run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Rounds of a measured run. Each round runs the file doors, then the
/// daemon traffic, so every metric samples the whole run rather than one
/// stretch of it.
const ROUNDS: usize = 3;
/// Memory-door runs the traced run times for `ledger.scaling`.
const MEM_DOOR_RUNS: usize = 3;
/// Sessions each class completes at least in a measured run: enough for a
/// p95 with 10 samples beyond it.
const MIN_SESSIONS: usize = 200;
/// Sessions per class the traced run measures for the wire estimate.
const TRACE_SESSIONS: usize = 20;
/// Longest the daemon phase may take, whatever the session counts.
const DAEMON_CAP: Duration = Duration::from_secs(90);

const JOB_STREAM: u64 = 1;
const JOB_MEM: u64 = 2;
const JOB_EXACT: u64 = 3;
const JOB_SKETCH: u64 = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key} <value>"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other}: expected 0 or 1")),
        },
        work_dir: PathBuf::from(get("--work-dir")?),
    })
}

/// What one run did and measured.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Run {
    /// Count one job; `true` when it produced `expected`.
    fn check<E: std::fmt::Display>(
        &mut self,
        what: &str,
        got: Result<&ReuseHistogram, E>,
        expected: &ReuseHistogram,
    ) -> bool {
        self.attempted += 1;
        let ok = match got {
            Ok(h) if h == expected => true,
            Ok(_) => {
                eprintln!("perfbench: {what}: histogram differs from the reference");
                false
            }
            Err(e) => {
                eprintln!("perfbench: {what}: {e}");
                false
            }
        };
        self.failed += u64::from(!ok);
        ok
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Each class's offline results, one per pool trace.
fn expected(ready: &Ready) -> Result<[Vec<ReuseHistogram>; 2], String> {
    let offline = |class: Class, pool: &[parda_trace::Trace]| {
        pool.iter()
            .map(|t| {
                class
                    .offline(t)
                    .map_err(|e| format!("offline {class:?}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()
    };
    Ok([
        offline(Class::Exact, &ready.inputs.exact_pool)?,
        offline(Class::Sketch, &ready.inputs.sketch_pool)?,
    ])
}

fn traffic<'a>(ready: &'a Ready, expected: &'a [Vec<ReuseHistogram>; 2]) -> [Traffic<'a>; 2] {
    [
        Traffic {
            class: Class::Exact,
            pool: &ready.inputs.exact_pool,
            expected: &expected[0],
        },
        Traffic {
            class: Class::Sketch,
            pool: &ready.inputs.sketch_pool,
            expected: &expected[1],
        },
    ]
}

/// The end-to-end run (`--trace 0`).
fn measured(p: &Params, seed: u64, seconds: f64, trace_file: &Path) -> Result<Run, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut ready: Option<Ready> = None;
    for _ in 0..SETUP_REPEATS {
        let (r, s) = workload::set_up(p, seed, trace_file)?;
        setups.push(s);
        if let Some(old) = ready.replace(r) {
            old.daemon.stop()?;
        }
    }
    let ready = ready.expect("at least one set-up");
    let mut run = Run::default();

    // Untimed references.
    let reference = workload::run_seq_door(trace_file).map_err(|e| format!("seq door: {e}"))?;
    let expected = expected(&ready)?;

    let n = p.file_refs as f64;
    let traffic = traffic(&ready, &expected);
    let file_budget = Duration::from_secs_f64(seconds * p.file_share / ROUNDS as f64);
    let daemon_budget = Duration::from_secs_f64(seconds * (1.0 - p.file_share) / ROUNDS as f64);
    let (mut stream, mut mem) = (Vec::new(), Vec::new());
    let mut outcomes = vec![daemon::Outcome::default(), daemon::Outcome::default()];
    let mut wall = 0.0;
    for round in 0..ROUNDS {
        // The stream door once, then the cheaper memory door twice. Both
        // must equal the reference, so they also agree with each other
        // bit for bit.
        let sw = Instant::now();
        loop {
            let t = Instant::now();
            let got = workload::run_stream_door(trace_file);
            let dt = t.elapsed();
            if run.check("stream door", got.as_ref().map(|r| &r.0), &reference) {
                stream.push(n / secs(dt));
            }
            for _ in 0..2 {
                let t = Instant::now();
                let got = workload::run_mem_door(trace_file);
                let dt = t.elapsed();
                if run.check("mem door", got.as_ref().map(|r| &r.0), &reference) {
                    mem.push(n / secs(dt));
                }
            }
            if run.failed > 0 && (stream.is_empty() || mem.is_empty()) {
                return Err("a file door never produced a correct histogram".into());
            }
            if sw.elapsed() >= file_budget {
                break;
            }
        }
        // The last round also runs until each class has MIN_SESSIONS.
        let done = outcomes.iter().map(|o| o.latencies_ms.len()).min();
        let need = if round + 1 == ROUNDS {
            MIN_SESSIONS.saturating_sub(done.unwrap_or(0))
        } else {
            0
        };
        let (got, secs) = daemon::drive(
            &ready.daemon.addr,
            &traffic,
            daemon_budget,
            need,
            DAEMON_CAP,
        );
        wall += secs;
        for (total, o) in outcomes.iter_mut().zip(got) {
            total.absorb(o);
        }
    }
    ready.daemon.stop()?;
    for o in &outcomes {
        run.attempted += o.attempted;
        run.failed += o.failed;
    }
    let refs_ok: u64 = outcomes.iter().map(|o| o.refs_ok).sum();
    let [exact, sketch] = [&outcomes[0].latencies_ms, &outcomes[1].latencies_ms];
    eprintln!(
        "perfbench: {} exact and {} sketch sessions in {wall:.2}s; set-ups {setups:.3?} s; \
         stream door {stream:.0?} refs/s; mem door {mem:.0?} refs/s",
        exact.len(),
        sketch.len()
    );

    run.put("stream_refs_per_s", median(&stream));
    run.put("mem_refs_per_s", median(&mem));
    run.put("submit_refs_per_s", refs_ok as f64 / wall);
    run.put("exact_session_p50_ms", percentile(exact, 50)?);
    run.put("exact_session_p95_ms", percentile(exact, 95)?);
    run.put("sketch_session_p50_ms", percentile(sketch, 50)?);
    run.put("sketch_session_p95_ms", percentile(sketch, 95)?);
    run.put("setup_s", median(&setups));
    run.put("peak_rss_mb", peak_rss_mb()?);
    Ok(run)
}

fn self_ns(times: &BTreeMap<&'static str, u64>, name: &str) -> f64 {
    times.get(name).copied().unwrap_or(0) as f64
}

/// Print a job's self times, largest first, to standard error.
fn print_ledger(tr: &Tracer, job: u64, label: &str) {
    let total = tr.total(job).max(1) as f64;
    let mut rows: Vec<_> = tr.self_times(job).into_iter().collect();
    rows.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    eprintln!("perfbench: {label}: traced {:.1} ms", total / 1e6);
    for (name, ns) in rows {
        let ns = ns as f64;
        eprintln!(
            "  {name:32} {:10.2} ms {:5.1}%",
            ns / 1e6,
            100.0 * ns / total
        );
    }
}

/// Share of a job's traced total that no layer span accounts for.
fn residual(tr: &Tracer, job: u64, root: &str) -> f64 {
    self_ns(&tr.self_times(job), root) / tr.total(job).max(1) as f64
}

/// The traced run (`--trace 1`): per-layer self times from one-thread
/// replays, the real doors' report counters, and the ledger.
fn traced(
    p: &Params,
    seed: u64,
    seconds: f64,
    trace_file: &Path,
    spans_file: &Path,
) -> Result<Run, String> {
    let (ready, _) = workload::set_up(p, seed, trace_file)?;
    let mut run = Run::default();
    let n = p.file_refs as f64;

    // The sequential door: reference and work-efficiency baseline.
    let t = Instant::now();
    let reference = workload::run_seq_door(trace_file).map_err(|e| format!("seq door: {e}"))?;
    let seq_ns = ns(t.elapsed());

    // The real doors, untraced: their reports and the door time the
    // one-thread replay is scaled against.
    let got = workload::run_stream_door(trace_file);
    run.check("stream door", got.as_ref().map(|r| &r.0), &reference);
    let stream_report = got.map_err(|e| format!("stream door: {e}"))?.1;
    let mut mem_door_ns = Vec::new();
    let mut mem_report = None;
    for _ in 0..MEM_DOOR_RUNS {
        let t = Instant::now();
        let got = workload::run_mem_door(trace_file);
        mem_door_ns.push(ns(t.elapsed()));
        run.check("mem door", got.as_ref().map(|r| &r.0), &reference);
        mem_report = Some(got.map_err(|e| format!("mem door: {e}"))?.1);
    }
    let mem_report = mem_report.expect("the mem door ran");

    // Replays: untraced, traced, untraced. The traced one records spans.
    let mut plain = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let (mut plain_stream_ns, mut plain_mem_ns) = (Vec::new(), Vec::new());
    let mut traced_counts = None;
    for round in 0..3 {
        let tracer = if round == 1 { &mut tr } else { &mut plain };
        tracer.set_job(JOB_STREAM);
        let t = Instant::now();
        let stream = replay::stream_door(trace_file, tracer);
        let stream_ns = ns(t.elapsed());
        run.check("stream replay", stream.as_ref().map(|r| &r.0), &reference);
        tracer.set_job(JOB_MEM);
        let t = Instant::now();
        let mem = replay::mem_door(trace_file, tracer);
        let mem_ns = ns(t.elapsed());
        run.check("mem replay", mem.as_ref().map(|r| &r.0), &reference);
        let counts = (stream?.1, mem?.1);
        if round == 1 {
            traced_counts = Some(counts);
        } else {
            plain_stream_ns.push(stream_ns);
            plain_mem_ns.push(mem_ns);
        }
    }
    let (stream_counts, mem_counts) = traced_counts.expect("round 1 is traced");
    let real_phases = stream_report.phased.as_ref().map_or(0, |ph| ph.phases);
    if stream_counts.phases != real_phases {
        run.failed += 1;
        eprintln!(
            "perfbench: stream replay read {} phases, the door {real_phases}",
            stream_counts.phases
        );
    }

    // Sessions: a short burst of real traffic for the client-side session
    // times, then a traced replay of every session trace of each class.
    let expected = expected(&ready)?;
    let (outcomes, _) = daemon::drive(
        &ready.daemon.addr,
        &traffic(&ready, &expected),
        Duration::from_secs_f64(seconds * (1.0 - p.file_share) / 2.0),
        TRACE_SESSIONS,
        DAEMON_CAP,
    );
    for o in &outcomes {
        run.attempted += o.attempted;
        run.failed += o.failed;
    }
    let mut state_bytes = [0u64; 2];
    let mut sampled_refs = 0;
    for (i, (job, class, pool)) in [
        (JOB_EXACT, Class::Exact, &ready.inputs.exact_pool),
        (JOB_SKETCH, Class::Sketch, &ready.inputs.sketch_pool),
    ]
    .into_iter()
    .enumerate()
    {
        tr.set_job(job);
        for (trace, want) in pool.iter().zip(&expected[i]) {
            let got = replay::session(class, trace, &mut tr);
            run.check("session replay", got.as_ref().map(|r| &r.0), want);
            let counts = got?.1;
            state_bytes[i] = state_bytes[i].max(counts.state_bytes);
            sampled_refs += counts.sampled_refs;
        }
    }
    let server = ready.daemon.stop()?;
    tr.write_jsonl(spans_file)
        .map_err(|e| format!("write {}: {e}", spans_file.display()))?;

    for (job, label) in [
        (JOB_STREAM, "stream door replay"),
        (JOB_MEM, "mem door replay"),
        (JOB_EXACT, "exact session replay"),
        (JOB_SKETCH, "sketch session replay"),
    ] {
        print_ledger(&tr, job, label);
    }
    eprintln!("perfbench: spans in {}", spans_file.display());
    let st = tr.self_times(JOB_STREAM);
    let mt = tr.self_times(JOB_MEM);
    let et = tr.self_times(JOB_EXACT);
    let kt = tr.self_times(JOB_SKETCH);
    // References each session class replayed.
    let s = (workload::POOL * p.session_refs) as f64;
    let per = |x: f64, by: u64| x / by.max(1) as f64;

    let bytes = std::fs::metadata(trace_file)
        .map_err(|e| format!("stat trace file: {e}"))?
        .len();
    run.put(
        "trace.decode_ns_per_ref",
        self_ns(&mt, "trace.load_trace") / n,
    );
    run.put("trace.fill_ns_per_ref", self_ns(&st, "trace.fill") / n);
    run.put("trace.bytes_per_ref", bytes as f64 / n);
    run.put("trace.frames", stream_counts.frames as f64);

    run.put(
        "engine.chunk_ns_per_ref",
        self_ns(&st, "engine.process_chunk") / n,
    );
    run.put(
        "engine.chunk_ns_per_ref_mem",
        self_ns(&mt, "engine.process_chunk") / n,
    );
    run.put(
        "engine.tree_ops_per_ref",
        stream_counts.engine.tree_ops as f64 / n,
    );
    run.put("engine.live_hwm", stream_counts.engine.live_hwm as f64);
    // The real stream door's slowest rank: its chunk time over the door's
    // wall time, to set against `phased.reduction_share`.
    let slowest_chunk = stream_report.per_rank.iter().map(|r| r.chunk_ns).max();
    run.put(
        "engine.chunk_share",
        per(slowest_chunk.unwrap_or(0) as f64, stream_report.total_ns),
    );

    let ranks = &mem_report.per_rank;
    let mem_engine = &mem_counts.engine;
    run.put(
        "parallel.cascade_ns_per_forwarded",
        per(
            self_ns(&mt, "parallel.process_infinities"),
            mem_engine.forwarded,
        ),
    );
    run.put(
        "parallel.cascade_ns_per_forwarded_stream",
        per(
            self_ns(&st, "parallel.process_infinities"),
            stream_counts.engine.forwarded,
        ),
    );
    let forwarded: u64 = ranks.iter().map(|r| r.infinities_forwarded).sum();
    run.put("parallel.forwarded_per_ref", forwarded as f64 / n);
    run.put(
        "parallel.rounds",
        ranks.iter().map(|r| r.cascade_rounds).sum::<u64>() as f64,
    );
    run.put(
        "parallel.wait_ns",
        ranks.iter().map(|r| r.cascade_wait_ns).sum::<u64>() as f64,
    );
    let (hits, streamed) = ranks.iter().fold((0, 0), |(h, s), r| {
        (h + r.engine.stream_hits, s + r.engine.stream_refs)
    });
    run.put("parallel.resolved_ratio", per(hits as f64, streamed));

    let reduction = self_ns(&st, "phased.drain_state") + self_ns(&st, "phased.import_state");
    run.put("phased.reduction_ns_per_ref", reduction / n);
    run.put(
        "phased.pairs_moved_per_phase",
        per(stream_counts.pairs_moved as f64, stream_counts.reductions),
    );
    run.put("phased.phases", stream_counts.phases as f64);
    // The real stream door's reduction on its critical path: the slowest
    // rank's reduction time in each phase, summed, over the door's wall
    // time.
    let reductions: u64 = stream_report
        .phased
        .as_ref()
        .map_or(0, |ph| ph.phase_reduction_ns.iter().sum());
    run.put(
        "phased.reduction_share",
        per(reductions as f64, stream_report.total_ns),
    );

    run.put("hist.merge_ns", self_ns(&st, "hist.merge"));
    run.put("hist.merge_ns_mem", self_ns(&mt, "hist.merge"));

    run.put("session.feed_ns_per_ref", self_ns(&et, "session.feed") / s);
    run.put(
        "session.finish_ns_per_ref",
        self_ns(&et, "session.finish") / s,
    );
    run.put("session.state_bytes", state_bytes[0] as f64);
    run.put(
        "approx.update_ns_per_ref",
        self_ns(&kt, "approx.update") / s,
    );
    let sessions = workload::POOL as f64;
    run.put(
        "approx.finalize_ns",
        self_ns(&kt, "approx.finalize") / sessions,
    );
    run.put("approx.sampled_ratio", sampled_refs as f64 / s);
    run.put("approx.sketch_bytes", state_bytes[1] as f64);

    let both = |name: &str| self_ns(&et, name) + self_ns(&kt, name);
    run.put(
        "server.encode_ns_per_ref",
        both("server.encode_data_frame") / (2.0 * s),
    );
    run.put(
        "server.decode_ns_per_ref",
        both("server.decode_data_frame_into") / (2.0 * s),
    );
    run.put(
        "server.reply_encode_ns",
        both("server.encode_histogram_binary") / (2.0 * sessions),
    );
    run.put(
        "server.bytes_per_ref",
        per(server.bytes_in as f64, server.refs_in),
    );
    // Session time the replayed layers do not explain: sockets, framing,
    // shard scheduling and the other client's load.
    for (name, outcome, job, root) in [
        (
            "server.wire_ns_per_ref_exact",
            &outcomes[0],
            JOB_EXACT,
            "session.exact",
        ),
        (
            "server.wire_ns_per_ref_sketch",
            &outcomes[1],
            JOB_SKETCH,
            "session.sketch",
        ),
    ] {
        let layers = tr.total(job) as f64 - self_ns(&tr.self_times(job), root);
        let session_ns = median(&outcome.latencies_ms) * 1e6;
        run.put(
            name,
            (session_ns - layers / sessions) / p.session_refs as f64,
        );
    }
    let shard_max = |f: fn(&parda_obs::ShardMetrics) -> u64| {
        server.per_shard.iter().map(f).max().unwrap_or(0) as f64
    };
    run.put("server.queue_depth_hwm", shard_max(|m| m.queue_depth_hwm));
    run.put("server.state_bytes_hwm", shard_max(|m| m.state_bytes_hwm));

    run.put(
        "ledger.residual_ratio_stream",
        residual(&tr, JOB_STREAM, "door.stream"),
    );
    run.put(
        "ledger.residual_ratio_mem",
        residual(&tr, JOB_MEM, "door.mem"),
    );
    run.put(
        "ledger.residual_ratio_exact",
        residual(&tr, JOB_EXACT, "session.exact"),
    );
    run.put(
        "ledger.residual_ratio_sketch",
        residual(&tr, JOB_SKETCH, "session.sketch"),
    );
    let traced_ns = (tr.total(JOB_STREAM) + tr.total(JOB_MEM)) as f64;
    let plain_ns = median(&plain_stream_ns) + median(&plain_mem_ns);
    run.put("ledger.tracing_overhead", traced_ns / plain_ns - 1.0);
    let replay_mem_ns = median(&plain_mem_ns);
    run.put("ledger.work_efficiency", seq_ns / replay_mem_ns);
    run.put("ledger.scaling", replay_mem_ns / median(&mem_door_ns));
    run.put("baseline.seq_ns_per_ref", seq_ns / n);
    Ok(run)
}

fn render(run: &Run, catalogue: &[(&str, &'static str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(run.metrics.len());
    for &(name, value) in &run.metrics {
        let unit = metrics::unit(catalogue, name).ok_or(format!("{name} is not catalogued"))?;
        if !value.is_finite() {
            return Err(format!("{name} measured {value}"));
        }
        metrics.push((
            name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::F64(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]),
        ));
    }
    let doc = Value::Object(vec![
        ("correct".into(), Value::Bool(run.failed == 0)),
        ("attempted".into(), Value::U64(run.attempted)),
        ("failed".into(), Value::U64(run.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).map_err(|e| e.to_string())
}

/// Run one workload and render its result line.
fn bench(args: &Args, p: &Params) -> Result<String, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("create {}: {e}", args.work_dir.display()))?;
    let trace_file = args.work_dir.join(format!("{}.trc", args.workload));
    let result = if args.trace {
        let spans = args.work_dir.join(format!("{}-spans.jsonl", args.workload));
        traced(p, args.seed, args.seconds, &trace_file, &spans)
            .and_then(|run| render(&run, metrics::PER_LAYER))
    } else {
        measured(p, args.seed, args.seconds, &trace_file)
            .and_then(|run| render(&run, metrics::END_TO_END))
    };
    let _ = std::fs::remove_file(&trace_file);
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 --work-dir <dir>",
                workload::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(p) = workload::params(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    match bench(&args, &p) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(run: &Run) -> Vec<&'static str> {
        run.metrics.iter().map(|(n, _)| *n).collect()
    }

    fn catalogued(catalogue: &[(&'static str, &str)]) -> Vec<&'static str> {
        catalogue.iter().map(|(n, _)| *n).collect()
    }

    /// Every workload, shrunk, in both modes: no failed job, and exactly
    /// the catalogued metrics, all finite.
    #[test]
    fn every_workload_runs_clean_at_smoke_scale() {
        let dir = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create smoke dir");
        for w in workload::WORKLOADS {
            let p = Params {
                footprint: workload::params(w).expect("known workload").footprint / 64,
                // Two full phases, so the stream replay reduces state.
                file_refs: 2 * workload::RANKS * workload::PHASE_CHUNK + 1_000,
                session_refs: 2_000,
                ..workload::params(w).expect("known workload")
            };
            let trace_file = dir.join(format!("{w}.trc"));
            let run = measured(&p, 7, 0.1, &trace_file).expect("measured run");
            assert_eq!((run.failed, run.attempted > 0), (0, true), "{w}");
            assert_eq!(names(&run), catalogued(metrics::END_TO_END), "{w}");
            render(&run, metrics::END_TO_END).expect("finite end-to-end metrics");
            let spans = dir.join(format!("{w}-spans.jsonl"));
            let run = traced(&p, 7, 0.1, &trace_file, &spans).expect("traced run");
            assert_eq!(run.failed, 0, "{w}");
            assert_eq!(names(&run), catalogued(metrics::PER_LAYER), "{w}");
            render(&run, metrics::PER_LAYER).expect("finite per-layer metrics");
        }
        std::fs::remove_dir_all(&dir).expect("remove smoke dir");
    }
}
