//! Implementation of the `parda` command-line tool.
//!
//! Subcommands:
//!
//! * `parda gen` — generate synthetic traces (SPEC models, patterns, or
//!   pinsim kernels) into the binary trace format;
//! * `parda analyze` — run any analyzer (sequential / naive / parallel /
//!   bounded) over a trace file and print the binned histogram;
//! * `parda mrc` — print the miss-ratio curve;
//! * `parda stats` — print trace shape statistics (N, M, span);
//! * `parda spec` — print the paper's Table IV benchmark parameters;
//! * `parda compare` — run every engine, verify agreement, report timings;
//! * `parda serve` — run the analysis daemon (std TCP, graceful drain);
//! * `parda submit` — stream a trace to a daemon, print the reply;
//! * `parda partition` — thread-aware shared-cache analysis and a static
//!   partition recommendation, offline or on a daemon.
//!
//! Argument parsing is hand-rolled ([`Args`]) to keep the dependency
//! surface at the workspace's approved set.

pub mod args;
pub mod commands;

pub use args::Args;
use parda_core::PardaError;

/// A failed CLI invocation, classified for the exit code.
///
/// Usage mistakes (bad flags, unknown engines) exit 1 as before; analysis
/// faults carry their [`PardaError`] class through to a distinct exit
/// code so scripts can react per failure class:
///
/// | code | meaning |
/// |---|---|
/// | 0 | success |
/// | 1 | usage error / engine disagreement / bad configuration |
/// | 2 | corrupt trace input ([`PardaError::Corrupt`]) |
/// | 3 | I/O failure ([`PardaError::Io`]) or connection lost past the retry budget ([`PardaError::ConnectionLost`]) |
/// | 4 | worker panic, retries exhausted ([`PardaError::WorkerPanic`]) |
/// | 5 | watchdog stall ([`PardaError::Stall`]) |
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation or any non-fault failure: exit code 1.
    Usage(String),
    /// A classified analysis fault: exit code 2–5 by variant.
    Fault(PardaError),
}

impl CliError {
    /// The process exit code for this error.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 1,
            CliError::Fault(e) => match e {
                PardaError::Corrupt(_) => 2,
                PardaError::Io(_) => 3,
                PardaError::ConnectionLost { .. } => 3,
                PardaError::WorkerPanic { .. } => 4,
                PardaError::Stall { .. } => 5,
                PardaError::Config(_) => 1,
            },
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Fault(e) => write!(f, "[{}] {e}", e.class()),
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.to_string())
    }
}

impl From<PardaError> for CliError {
    fn from(e: PardaError) -> Self {
        CliError::Fault(e)
    }
}

/// Entry point shared by the binary and the integration tests: everything
/// — results and diagnostics — goes to `out`. Returns the process exit
/// code (see [`CliError::exit_code`]).
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> i32 {
    match run_inner(argv, out) {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            e.exit_code()
        }
    }
}

/// [`run`] with split output: results to `out` (stdout), the one-line
/// diagnostic to `err` (stderr) — what the binary uses, so piped JSON
/// stays clean even on failure.
pub fn run_split(
    argv: &[String],
    out: &mut dyn std::io::Write,
    err: &mut dyn std::io::Write,
) -> i32 {
    match run_inner(argv, out) {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(err, "error: {e}");
            e.exit_code()
        }
    }
}

fn run_inner(argv: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let Some(command) = argv.first() else {
        return Err(format!("no subcommand given\n\n{}", commands::USAGE).into());
    };
    let args = Args::parse_with_switches(&argv[1..], commands::SWITCHES)?;
    match command.as_str() {
        "gen" => commands::gen(&args, out),
        "analyze" => commands::analyze(&args, out),
        "mrc" => commands::mrc(&args, out),
        "stats" => commands::stats(&args, out),
        "spec" => commands::spec(&args, out),
        "compare" => commands::compare(&args, out),
        "serve" => commands::serve(&args, out),
        "submit" => commands::submit(&args, out),
        "partition" => commands::partition(&args, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{}", commands::USAGE).map_err(|e| CliError::Usage(e.to_string()))
        }
        other => Err(format!("unknown subcommand `{other}`\n\n{}", commands::USAGE).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(argv: &[&str]) -> (i32, String) {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let code = run(&argv, &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn no_subcommand_is_an_error() {
        let (code, out) = run_to_string(&[]);
        assert_eq!(code, 1);
        assert!(out.contains("usage"), "got: {out}");
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        let (code, out) = run_to_string(&["frobnicate"]);
        assert_eq!(code, 1);
        assert!(out.contains("unknown subcommand"));
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_to_string(&["help"]);
        assert_eq!(code, 0);
        assert!(out.contains("analyze"));
        assert!(out.contains("gen"));
    }

    #[test]
    fn spec_lists_all_benchmarks() {
        let (code, out) = run_to_string(&["spec"]);
        assert_eq!(code, 0);
        for name in ["perlbench", "mcf", "lbm", "sphinx3"] {
            assert!(out.contains(name), "missing {name}: {out}");
        }
    }

    #[test]
    fn gen_analyze_round_trip() {
        let dir = std::env::temp_dir().join("parda-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trc");
        let path_str = path.to_str().unwrap();

        let (code, out) = run_to_string(&[
            "gen", "--spec", "gcc", "--refs", "20000", "--seed", "3", "--out", path_str,
        ]);
        assert_eq!(code, 0, "gen failed: {out}");
        assert!(out.contains("20000"));

        let (code, out) = run_to_string(&["stats", path_str]);
        assert_eq!(code, 0);
        assert!(out.contains("N=20000"), "got: {out}");

        let (code, out) = run_to_string(&["analyze", path_str, "--ranks", "3"]);
        assert_eq!(code, 0, "analyze failed: {out}");
        assert!(out.contains("total"), "got: {out}");
        assert!(out.contains("inf"), "got: {out}");

        let (code, seq_out) = run_to_string(&["analyze", path_str, "--engine", "seq"]);
        assert_eq!(code, 0, "seq analyze failed: {seq_out}");

        let (code, out) = run_to_string(&["mrc", path_str]);
        assert_eq!(code, 0);
        assert!(out.contains("capacity"), "got: {out}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn gen_pattern_and_kernel_sources() {
        let dir = std::env::temp_dir().join("parda-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("cyc.trc");
        let (code, _) = run_to_string(&[
            "gen",
            "--pattern",
            "cyclic",
            "--footprint",
            "64",
            "--refs",
            "1000",
            "--out",
            p1.to_str().unwrap(),
        ]);
        assert_eq!(code, 0);

        let p2 = dir.join("mm.trc");
        let (code, _) = run_to_string(&[
            "gen",
            "--kernel",
            "matmul",
            "--size",
            "8",
            "--out",
            p2.to_str().unwrap(),
        ]);
        assert_eq!(code, 0);

        let (code, out) = run_to_string(&["stats", p2.to_str().unwrap()]);
        assert_eq!(code, 0);
        assert!(out.contains("N=1536"), "3*8^3 refs: {out}"); // 3·n³
        std::fs::remove_file(&p1).unwrap();
        std::fs::remove_file(&p2).unwrap();
    }

    #[test]
    fn phased_sampled_and_vector_engines() {
        let dir = std::env::temp_dir().join("parda-cli-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.trc");
        let p = path.to_str().unwrap();
        let (code, _) = run_to_string(&[
            "gen",
            "--pattern",
            "zipf",
            "--footprint",
            "500",
            "--refs",
            "30000",
            "--out",
            p,
        ]);
        assert_eq!(code, 0);

        // All exact engines agree on the total line.
        let mut totals = Vec::new();
        for extra in [
            vec!["--engine", "seq", "--tree", "vector"],
            vec!["--engine", "phased", "--chunk", "1000", "--ranks", "3"],
            vec![
                "--engine", "phased", "--chunk", "1000", "--ranks", "3", "--tree", "vector",
            ],
            vec!["--engine", "parda", "--ranks", "2", "--tree", "avl"],
        ] {
            let mut argv = vec!["analyze", p];
            argv.extend(extra.iter().copied());
            let (code, out) = run_to_string(&argv);
            assert_eq!(code, 0, "{argv:?}: {out}");
            let total_line = out
                .lines()
                .find(|l| l.starts_with("total="))
                .unwrap_or_else(|| panic!("no total in {out}"))
                .to_string();
            totals.push(total_line);
        }
        assert!(
            totals.windows(2).all(|w| w[0] == w[1]),
            "engines disagree: {totals:?}"
        );

        // The sampled engine runs and reports an estimate.
        let (code, out) = run_to_string(&["analyze", p, "--engine", "sampled", "--rate", "2"]);
        assert_eq!(code, 0, "sampled failed: {out}");
        assert!(out.contains("total="));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stats_json_is_one_document_accounting_for_every_reference() {
        use serde_json::Value;

        fn u64_of(v: &Value) -> u64 {
            match v {
                Value::U64(x) => *x,
                Value::I64(x) => u64::try_from(*x).unwrap(),
                other => panic!("expected integer, got {other:?}"),
            }
        }

        let dir = std::env::temp_dir().join("parda-cli-test5");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.trc");
        let p = path.to_str().unwrap();
        let (code, _) = run_to_string(&[
            "gen",
            "--pattern",
            "zipf",
            "--footprint",
            "400",
            "--refs",
            "24000",
            "--out",
            p,
        ]);
        assert_eq!(code, 0);

        let (code, out) =
            run_to_string(&["analyze", p, "--engine=msg", "--ranks=8", "--stats=json"]);
        assert_eq!(code, 0, "{out}");
        let doc: Value =
            serde_json::from_str(out.trim()).expect("--stats=json stdout is one JSON document");
        let hist_infinite = u64_of(doc.field("histogram").unwrap().field("infinite").unwrap());
        let stats = doc.field("stats").unwrap();
        assert_eq!(
            stats.field("mode").unwrap(),
            &Value::Str("parda-msg".into())
        );
        let Value::Array(per_rank) = stats.field("per_rank").unwrap() else {
            panic!("per_rank is not an array");
        };
        assert_eq!(per_rank.len(), 8);

        // Every reference lands in exactly one rank's chunk.
        let total_refs: u64 = per_rank
            .iter()
            .map(|rm| u64_of(rm.field("refs").unwrap()))
            .sum();
        assert_eq!(total_refs, 24000);

        // Cold misses only surface on rank 0 (all other ranks forward their
        // unresolved infinities leftward), so rank 0's count must equal the
        // histogram's infinity bucket.
        let rank0 = &per_rank[0];
        assert_eq!(u64_of(rank0.field("rank").unwrap()), 0);
        let cold = u64_of(rank0.field("engine").unwrap().field("cold_misses").unwrap());
        assert_eq!(cold, hist_infinite);

        // The headline per-rank timing fields are all present, including
        // the cascade batching breakdown (per-round merge lengths and
        // batch-delete counts plus their timings).
        for rm in per_rank {
            rm.field("chunk_ns").unwrap();
            rm.field("cascade_ns").unwrap();
            rm.field("infinities_forwarded").unwrap();
            rm.field("merge_ns").unwrap();
            rm.field("batch_ns").unwrap();
            let Value::Array(lens) = rm.field("round_infinity_lens").unwrap() else {
                panic!("round_infinity_lens is not an array");
            };
            let Value::Array(deletes) = rm.field("round_batch_deletes").unwrap() else {
                panic!("round_batch_deletes is not an array");
            };
            assert_eq!(lens.len(), deletes.len(), "one delete tally per round");
            // Space-optimized absorb: every batch-deleted stream element is
            // one engine stream hit.
            let hits = u64_of(rm.field("engine").unwrap().field("stream_hits").unwrap());
            assert_eq!(deletes.iter().map(u64_of).sum::<u64>(), hits);
        }

        // Streamed analysis attaches decoder-pipeline counters.
        let (code, out) = run_to_string(&["analyze", p, "--stream", "--stats=json"]);
        assert_eq!(code, 0, "{out}");
        let doc: Value = serde_json::from_str(out.trim()).unwrap();
        let stream = doc.field("stats").unwrap().field("stream").unwrap();
        assert_eq!(u64_of(stream.field("refs_decoded").unwrap()), 24000);
        assert!(u64_of(stream.field("frames_decoded").unwrap()) > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn analyze_rejects_bad_engine() {
        let (code, out) = run_to_string(&["analyze", "/nonexistent", "--engine", "warp"]);
        assert_eq!(code, 1);
        assert!(out.contains("error"), "got: {out}");
    }

    /// Write a v2.1 Raw trace with 64-ref frames; returns the path and the
    /// addresses. Raw layout is deterministic: 24-byte header, then per
    /// frame a 12-byte inline header + 64×8 payload bytes.
    fn write_framed(name: &str, refs: usize) -> (std::path::PathBuf, Vec<u64>) {
        use parda_trace::io::{write_trace_v2_framed, Encoding};
        let dir = std::env::temp_dir().join("parda-cli-fault-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let trace: Vec<u64> = (0..refs as u64).map(|i| (i * 11) % 97).collect();
        let f = std::fs::File::create(&path).unwrap();
        write_trace_v2_framed(
            f,
            &parda_trace::Trace::from_vec(trace.clone()),
            Encoding::Raw,
            64,
        )
        .unwrap();
        (path, trace)
    }

    #[test]
    fn missing_file_exits_3_bad_policy_exits_1() {
        let (code, out) = run_to_string(&["analyze", "/definitely/not/here.trc"]);
        assert_eq!(code, 3, "i/o failure class: {out}");
        assert!(out.contains("[io]"), "got: {out}");

        let (path, _) = write_framed("policy.trc", 128);
        let p = path.to_str().unwrap();
        let (code, out) = run_to_string(&["analyze", p, "--degradation", "yolo"]);
        assert_eq!(code, 1, "config errors are usage-class: {out}");
        assert!(out.contains("degradation"), "got: {out}");
    }

    #[test]
    fn corrupt_trace_exit_codes_follow_the_degradation_ladder() {
        let (path, _) = write_framed("corrupt.trc", 640);
        let p = path.to_str().unwrap();
        // Flip a payload byte in frame 3 (offset 24 + 3·(12+512) + 12).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[24 + 3 * (12 + 512) + 12 + 7] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        // Strict (default): corrupt class, exit 2 — both load and stream.
        for extra in [&[][..], &["--stream"][..]] {
            let mut argv = vec!["analyze", p, "--engine", "parda"];
            argv.extend_from_slice(extra);
            let (code, out) = run_to_string(&argv);
            assert_eq!(code, 2, "{argv:?}: {out}");
            assert!(out.contains("[corrupt]"), "got: {out}");
        }

        // Lossy rungs: clean exit, frame 3's 64 references dropped.
        for policy in ["repair", "best-effort"] {
            let (code, out) =
                run_to_string(&["analyze", p, "--degradation", policy, "--engine", "parda"]);
            assert_eq!(code, 0, "{policy}: {out}");
            assert!(out.contains("total=576"), "{policy}: {out}");
        }

        // mrc honours the same ladder.
        let (code, _) = run_to_string(&["mrc", p]);
        assert_eq!(code, 2);
        let (code, _) = run_to_string(&["mrc", p, "--degradation=best-effort"]);
        assert_eq!(code, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stats_json_reports_recovery_counters() {
        use serde_json::Value;
        let (path, _) = write_framed("recovery.trc", 640);
        let p = path.to_str().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[24 + 5 * (12 + 512) + 12] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        for extra in [&[][..], &["--stream"][..]] {
            let mut argv = vec!["analyze", p, "--degradation=best-effort", "--stats=json"];
            argv.extend_from_slice(extra);
            let (code, out) = run_to_string(&argv);
            assert_eq!(code, 0, "{argv:?}: {out}");
            let doc: Value = serde_json::from_str(out.trim()).unwrap();
            let rec = doc.field("stats").unwrap().field("recovery").unwrap();
            let Value::Array(skipped) = rec.field("skipped_frames").unwrap() else {
                panic!("skipped_frames is not an array");
            };
            assert_eq!(skipped.len(), 1, "{argv:?}");
            assert_eq!(rec.field("refs_dropped").unwrap(), &Value::U64(64));
            assert_eq!(rec.field("crc_failures").unwrap(), &Value::U64(1));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verify_checks_integrity_without_analysis() {
        let (path, _) = write_framed("verify.trc", 640);
        let p = path.to_str().unwrap();
        let (code, out) = run_to_string(&["analyze", p, "--verify"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("version=2.1"), "got: {out}");
        assert!(out.contains("frames=10"), "got: {out}");
        assert!(out.contains("checksummed=true"), "got: {out}");

        let mut bytes = std::fs::read(&path).unwrap();
        bytes[24 + 12 + 3] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        let (code, out) = run_to_string(&["analyze", p, "--verify"]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("CRC"), "got: {out}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn run_split_routes_diagnostics_to_stderr() {
        let argv: Vec<String> = ["analyze", "/definitely/not/here.trc"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run_split(&argv, &mut out, &mut err);
        assert_eq!(code, 3);
        assert!(out.is_empty(), "stdout stays clean on failure");
        let err = String::from_utf8(err).unwrap();
        assert!(err.contains("error: [io]"), "got: {err}");
    }

    #[test]
    fn serve_with_accept_limit_zero_starts_and_drains_cleanly() {
        let (code, out) = run_to_string(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--accept-limit",
            "0",
            "--idle-timeout",
            "5",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("parda-server listening on 127.0.0.1:"),
            "{out}"
        );
        assert!(
            out.contains("sessions opened=0"),
            "final metrics line: {out}"
        );
    }

    #[test]
    fn serve_rejects_zero_session_cap() {
        let (code, out) = run_to_string(&["serve", "--max-sessions", "0"]);
        assert_eq!(code, 1);
        assert!(out.contains("max-sessions"), "{out}");
    }

    #[test]
    fn submit_matches_offline_analyze_and_maps_error_classes() {
        use parda_server::{Server, ServerConfig};

        let dir = std::env::temp_dir().join("parda-cli-submit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.trc");
        let p = path.to_str().unwrap();
        let (code, _) = run_to_string(&[
            "gen", "--spec", "gcc", "--refs", "30000", "--seed", "9", "--out", p,
        ]);
        assert_eq!(code, 0);

        let server = Server::bind(ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.shutdown_handle();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        // --json output is byte-identical to the offline analyzer's.
        let (code, offline) = run_to_string(&["analyze", p, "--json"]);
        assert_eq!(code, 0, "{offline}");
        let (code, served) = run_to_string(&["submit", p, "--addr", &addr, "--json"]);
        assert_eq!(code, 0, "{served}");
        assert_eq!(served, offline, "serve+submit must equal offline analyze");

        // Session config pairs ride one comma-separated --config value, and
        // the summary/mrc renderings work from the binary reply.
        let (code, out) = run_to_string(&[
            "submit",
            p,
            "--addr",
            &addr,
            "--config",
            "tree=avl,ranks=2,engine=threads",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("total=30000"), "{out}");
        let (code, out) = run_to_string(&["submit", p, "--addr", &addr, "--mrc"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("capacity"), "{out}");

        // --stats=json returns the server's full document.
        let (code, out) = run_to_string(&["submit", p, "--addr", &addr, "--stats=json"]);
        assert_eq!(code, 0, "{out}");
        let doc: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        doc.field("histogram").unwrap();
        doc.field("stats").unwrap();

        // Server-side config faults keep the usage exit class…
        let (code, out) = run_to_string(&["submit", p, "--addr", &addr, "--config", "tree=btree"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("[config]"), "{out}");
        // …and bad --config syntax is caught before any connection.
        let (code, out) = run_to_string(&["submit", p, "--addr", &addr, "--config", "nope"]);
        assert_eq!(code, 1);
        assert!(out.contains("key=value"), "{out}");

        stop.shutdown();
        daemon.join().unwrap();

        // With the daemon gone, submit fails in the i/o class (exit 3).
        let (code, out) = run_to_string(&["submit", p, "--addr", &addr]);
        assert_eq!(code, 3, "{out}");
        assert!(out.contains("[io]"), "{out}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn partition_offline_matches_server_and_round_trips_mt_kernels() {
        use parda_server::{Server, ServerConfig};
        use serde_json::Value;

        let dir = std::env::temp_dir().join("parda-cli-partition-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mt.trc");
        let p = path.to_str().unwrap();

        // gen writes a thread-tagged v2.2 trace for mt- kernels…
        let (code, out) = run_to_string(&[
            "gen",
            "--kernel",
            "mt-matmul",
            "--size",
            "12",
            "--threads",
            "3",
            "--out",
            p,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("3 threads"), "{out}");
        assert!(out.contains("v2.2 tagged"), "{out}");

        // …that --verify identifies as tagged.
        let (code, out) = run_to_string(&["analyze", p, "--verify"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("version=2.2"), "{out}");
        assert!(out.contains("tagged=true"), "{out}");

        // Offline partition renders the recommendation table.
        let (code, offline) = run_to_string(&["partition", p, "--capacity", "512"]);
        assert_eq!(code, 0, "{offline}");
        assert!(offline.contains("threads=3"), "{offline}");
        assert!(offline.contains("model=as-recorded"), "{offline}");
        assert!(offline.contains("capacity=512 granularity=8"), "{offline}");

        // Acceptance criterion: the server verb returns the identical
        // recommendation — the default renderings match byte for byte.
        let server = Server::bind(ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.shutdown_handle();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        let (code, served) = run_to_string(&["partition", p, "--capacity", "512", "--addr", &addr]);
        assert_eq!(code, 0, "{served}");
        assert_eq!(served, offline, "server partition must equal offline");

        // --stats=json carries SharedMetrics in both paths, and the
        // recommendation fields agree.
        let (code, off_doc) = run_to_string(&["partition", p, "--capacity=512", "--stats=json"]);
        assert_eq!(code, 0, "{off_doc}");
        let (code, srv_doc) = run_to_string(&[
            "partition",
            p,
            "--capacity=512",
            "--stats=json",
            "--addr",
            &addr,
        ]);
        assert_eq!(code, 0, "{srv_doc}");
        let off: Value = serde_json::from_str(off_doc.trim()).unwrap();
        let srv: Value = serde_json::from_str(srv_doc.trim()).unwrap();
        assert_eq!(
            off.field("histogram").unwrap(),
            srv.field("histogram").unwrap()
        );
        let off_shared = off.field("stats").unwrap().field("shared").unwrap();
        let srv_shared = srv.field("stats").unwrap().field("shared").unwrap();
        for key in ["capacity", "granularity", "allocation", "predicted_misses"] {
            assert_eq!(
                off_shared.field(key).unwrap(),
                srv_shared.field(key).unwrap(),
                "recommendation field {key} must agree offline vs server"
            );
        }
        assert_eq!(
            off_shared.field("model").unwrap(),
            &Value::Str("as-recorded".into())
        );

        stop.shutdown();
        daemon.join().unwrap();

        // A capacity too small for one granule per thread is refused.
        let (code, out) =
            run_to_string(&["partition", p, "--capacity", "512", "--granularity", "256"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("cannot give"), "{out}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn partition_merges_plain_traces_under_a_model() {
        let dir = std::env::temp_dir().join("parda-cli-partition-plain");
        std::fs::create_dir_all(&dir).unwrap();
        let p0 = dir.join("t0.trc");
        let p1 = dir.join("t1.trc");
        for (path, footprint) in [(&p0, "64"), (&p1, "700")] {
            let (code, _) = run_to_string(&[
                "gen",
                "--pattern",
                "zipf",
                "--footprint",
                footprint,
                "--refs",
                "8000",
                "--out",
                path.to_str().unwrap(),
            ]);
            assert_eq!(code, 0);
        }
        let s0 = p0.to_str().unwrap();
        let s1 = p1.to_str().unwrap();

        // Default model is lockstep round-robin.
        let (code, out) = run_to_string(&["partition", s0, s1, "--capacity", "1024"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("threads=2"), "{out}");
        assert!(out.contains("model=rr:1"), "{out}");

        // A probabilistic model is accepted, and a wrong weight count is not.
        let (code, out) = run_to_string(&[
            "partition",
            s0,
            s1,
            "--capacity",
            "1024",
            "--model",
            "prob:3,1@7",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("model=prob:3,1@7"), "{out}");
        let (code, out) = run_to_string(&[
            "partition",
            s0,
            s1,
            "--capacity",
            "1024",
            "--model",
            "prob:1,2,3",
        ]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("weights"), "{out}");

        // A single plain trace has no thread information.
        let (code, out) = run_to_string(&["partition", s0, "--capacity", "1024"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("not thread-tagged"), "{out}");

        // --capacity is mandatory.
        let (code, out) = run_to_string(&["partition", s0, s1]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("--capacity"), "{out}");

        std::fs::remove_file(&p0).unwrap();
        std::fs::remove_file(&p1).unwrap();
    }

    #[test]
    fn compare_verifies_engine_agreement() {
        let dir = std::env::temp_dir().join("parda-cli-test4");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.trc");
        let p = path.to_str().unwrap();
        let (code, _) = run_to_string(&["gen", "--spec", "soplex", "--refs", "20000", "--out", p]);
        assert_eq!(code, 0);
        let (code, out) = run_to_string(&["compare", p, "--ranks", "3"]);
        assert_eq!(code, 0, "compare failed: {out}");
        assert!(out.contains("all engines agree"), "got: {out}");
        for engine in [
            "seq/splay",
            "seq/vector",
            "parda-msg/p3",
            "phased/p3",
            "naive-stack",
        ] {
            assert!(out.contains(engine), "missing {engine}: {out}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
