//! End-to-end loopback tests: a real daemon on an ephemeral port, real
//! sockets, and bit-identical equivalence with the offline analysis.

use parda_core::{Analysis, PardaError};
use parda_hist::ReuseHistogram;
use parda_server::proto::{
    decode_histogram_binary, encode_data_frame, hello_payload, read_msg, write_msg, AcceptPayload,
    ErrorClass, ErrorFrame, MsgKind, STATS_FORMAT_BINARY, STATS_FORMAT_JSON,
};
use parda_server::{submit, ReplyFormat, Server, ServerConfig, SubmitOptions};
use parda_trace::io::Encoding;
use parda_trace::Addr;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Duration;

/// One daemon shared by every test that doesn't need special limits.
fn shared_addr() -> &'static str {
    static ADDR: OnceLock<String> = OnceLock::new();
    ADDR.get_or_init(|| {
        let server = Server::bind(ServerConfig {
            max_sessions: 32,
            idle_timeout: Some(Duration::from_secs(10)),
            ..ServerConfig::default()
        })
        .expect("bind shared test server");
        let addr = server.local_addr().unwrap().to_string();
        std::thread::spawn(move || server.run().unwrap());
        addr
    })
}

/// Start a private daemon; returns its address, a stopper, and the join
/// handle delivering the final metrics.
fn private_server(
    cfg: ServerConfig,
) -> (
    String,
    parda_server::ShutdownHandle,
    std::thread::JoinHandle<parda_obs::ServerMetrics>,
) {
    let server = Server::bind(cfg).expect("bind private test server");
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, join)
}

fn offline(trace: &[Addr]) -> ReuseHistogram {
    Analysis::new().ranks(4).run(trace).0
}

fn zipfish(seed: u64, n: usize) -> Vec<Addr> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let span = 1u64 << rng.gen_range(1..12);
            rng.gen_range(0..span)
        })
        .collect()
}

/// Build the full client→server byte stream for one session.
fn session_bytes(trace: &[Addr], config: &str, encoding: Encoding, frame_refs: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_msg(&mut bytes, MsgKind::Hello, &hello_payload()).unwrap();
    write_msg(&mut bytes, MsgKind::Config, config.as_bytes()).unwrap();
    for chunk in trace.chunks(frame_refs.max(1)) {
        write_msg(
            &mut bytes,
            MsgKind::Data,
            &encode_data_frame(chunk, encoding),
        )
        .unwrap();
    }
    write_msg(&mut bytes, MsgKind::Fin, &[]).unwrap();
    bytes
}

/// Write `bytes` to the socket in random-sized flushed segments, so the
/// server's reads see every possible message-boundary misalignment.
fn write_segmented(stream: &mut TcpStream, bytes: &[u8], rng: &mut StdRng) {
    let mut at = 0;
    while at < bytes.len() {
        let take = rng.gen_range(1..64.min(bytes.len() - at + 1));
        stream.write_all(&bytes[at..at + take]).unwrap();
        stream.flush().unwrap();
        at += take;
    }
}

fn expect_accept(stream: &mut TcpStream) -> u64 {
    let msg = read_msg(stream).expect("read ACCEPT");
    assert_eq!(msg.kind, MsgKind::Accept, "payload: {:?}", msg.payload);
    let accept = AcceptPayload::from_bytes(&msg.payload).expect("decode ACCEPT");
    assert_eq!(
        accept.watermark, 0,
        "fresh session starts at watermark zero"
    );
    accept.session
}

fn expect_error(stream: &mut TcpStream) -> ErrorFrame {
    let msg = read_msg(stream).expect("read ERROR");
    assert_eq!(msg.kind, MsgKind::Error);
    ErrorFrame::from_payload(&msg.payload).unwrap()
}

fn expect_binary_stats(stream: &mut TcpStream) -> ReuseHistogram {
    let msg = read_msg(stream).expect("read STATS");
    if msg.kind == MsgKind::Error {
        panic!(
            "expected STATS, got ERROR: {:?}",
            ErrorFrame::from_payload(&msg.payload)
        );
    }
    assert_eq!(msg.kind, MsgKind::Stats);
    assert_eq!(msg.payload[0], STATS_FORMAT_BINARY);
    decode_histogram_binary(&msg.payload[1..]).unwrap()
}

proptest! {
    /// Arbitrary traces through a real loopback socket, written in
    /// arbitrary TCP segment sizes, under both encodings and both
    /// engines: the histogram coming back is bit-identical to the
    /// offline analysis.
    #[test]
    fn segmented_wire_sessions_match_offline_analysis(
        trace in proptest::collection::vec(0u64..512, 0..1500),
        frame_refs in 1usize..600,
        seed in 0u64..1 << 32,
        raw in any::<bool>(),
        threads in any::<bool>(),
    ) {
        let encoding = if raw { Encoding::Raw } else { Encoding::DeltaVarint };
        let engine = if threads { "threads" } else { "phased" };
        let enc_name = if raw { "raw" } else { "delta" };
        let config = format!("engine={engine}\nranks=3\nreply=binary\nencoding={enc_name}\n");
        let bytes = session_bytes(&trace, &config, encoding, frame_refs);

        let mut stream = TcpStream::connect(shared_addr()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        write_segmented(&mut stream, &bytes, &mut rng);
        expect_accept(&mut stream);
        let hist = expect_binary_stats(&mut stream);
        prop_assert_eq!(hist, offline(&trace));
    }
}

#[test]
fn client_submit_round_trips_both_reply_formats() {
    let trace = zipfish(11, 40_000);
    let expect = offline(&trace);

    let binary = submit(shared_addr(), &trace, &SubmitOptions::default()).unwrap();
    assert_eq!(binary.histogram, expect);
    assert!(binary.stats_json.is_none());

    let json = submit(
        shared_addr(),
        &trace,
        &SubmitOptions {
            reply: ReplyFormat::Json,
            config: vec![("tree".into(), "avl".into()), ("ranks".into(), "2".into())],
            ..SubmitOptions::default()
        },
    )
    .unwrap();
    assert_eq!(json.histogram, expect);
    let doc: serde::Value = serde_json::from_str(json.stats_json.as_deref().unwrap()).unwrap();
    doc.field("histogram").unwrap();
    doc.field("stats").unwrap();
}

#[test]
fn flipped_data_byte_strict_session_gets_typed_corrupt_error() {
    let trace = zipfish(23, 2000);
    let mut stream = TcpStream::connect(shared_addr()).unwrap();
    write_msg(&mut stream, MsgKind::Hello, &hello_payload()).unwrap();
    write_msg(
        &mut stream,
        MsgKind::Config,
        b"reply=binary\nencoding=raw\n",
    )
    .unwrap();
    expect_accept(&mut stream);

    let mut frame = encode_data_frame(&trace, Encoding::DeltaVarint);
    frame[20] ^= 0x10; // flip one payload byte: CRC32C no longer matches
    write_msg(&mut stream, MsgKind::Data, &frame).unwrap();
    let err = expect_error(&mut stream);
    assert_eq!(err.class, ErrorClass::Corrupt);
    assert_eq!(err.to_parda().class(), "corrupt");
}

#[test]
fn flipped_data_byte_best_effort_session_quarantines_and_reports() {
    let a = zipfish(31, 3000);
    let b = zipfish(37, 1000);
    let c = zipfish(41, 3000);

    let mut stream = TcpStream::connect(shared_addr()).unwrap();
    write_msg(&mut stream, MsgKind::Hello, &hello_payload()).unwrap();
    write_msg(
        &mut stream,
        MsgKind::Config,
        b"degradation=best-effort\nreply=json\nranks=3\nencoding=raw\n",
    )
    .unwrap();
    expect_accept(&mut stream);

    write_msg(
        &mut stream,
        MsgKind::Data,
        &encode_data_frame(&a, Encoding::Raw),
    )
    .unwrap();
    let mut bad = encode_data_frame(&b, Encoding::Raw);
    bad[40] ^= 0x01;
    write_msg(&mut stream, MsgKind::Data, &bad).unwrap();
    write_msg(
        &mut stream,
        MsgKind::Data,
        &encode_data_frame(&c, Encoding::Raw),
    )
    .unwrap();
    write_msg(&mut stream, MsgKind::Fin, &[]).unwrap();

    let msg = read_msg(&mut stream).unwrap();
    assert_eq!(msg.kind, MsgKind::Stats);
    assert_eq!(msg.payload[0], STATS_FORMAT_JSON);
    let text = std::str::from_utf8(&msg.payload[1..]).unwrap();
    let doc: serde::Value = serde_json::from_str(text).unwrap();

    // The histogram is exactly the offline analysis of the survivors.
    let survivors: Vec<Addr> = a.iter().chain(&c).copied().collect();
    let hist = <ReuseHistogram as serde::Deserialize>::from_value(doc.field("histogram").unwrap())
        .unwrap();
    assert_eq!(hist, offline(&survivors));

    // And the quarantine is tallied honestly in the recovery metrics.
    let recovery = doc.field("stats").unwrap().field("recovery").unwrap();
    let get = |name: &str| -> u64 {
        <u64 as serde::Deserialize>::from_value(recovery.field(name).unwrap()).unwrap()
    };
    assert_eq!(get("frames_skipped"), 1);
    assert_eq!(get("crc_failures"), 1);
    assert_eq!(get("refs_dropped"), b.len() as u64);
}

#[test]
fn eight_concurrent_sessions_all_complete_correctly() {
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let trace = zipfish(100 + i, 20_000 + 1000 * i as usize);
                let reply = submit(shared_addr(), &trace, &SubmitOptions::default()).unwrap();
                assert_eq!(reply.histogram, offline(&trace), "session {i}");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn admission_rejects_the_session_over_the_cap_with_a_structured_error() {
    let (addr, stop, join) = private_server(ServerConfig {
        max_sessions: 2,
        idle_timeout: Some(Duration::from_secs(10)),
        ..ServerConfig::default()
    });

    // Two admitted sessions hold their slots by not sending FIN yet.
    let mut held: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut s = TcpStream::connect(&addr).unwrap();
            write_msg(&mut s, MsgKind::Hello, &hello_payload()).unwrap();
            write_msg(&mut s, MsgKind::Config, b"reply=binary\nencoding=raw\n").unwrap();
            expect_accept(&mut s);
            s
        })
        .collect();

    // The third is refused with a typed admission error, not a hangup.
    let mut third = TcpStream::connect(&addr).unwrap();
    write_msg(&mut third, MsgKind::Hello, &hello_payload()).unwrap();
    write_msg(&mut third, MsgKind::Config, b"reply=binary\nencoding=raw\n").unwrap();
    let err = expect_error(&mut third);
    assert_eq!(err.class, ErrorClass::Admission);
    assert_eq!(err.to_parda().class(), "config");
    drop(third);

    // The held sessions still complete normally.
    for s in &mut held {
        write_msg(
            s,
            MsgKind::Data,
            &encode_data_frame(&[1, 2, 1, 2], Encoding::Raw),
        )
        .unwrap();
        write_msg(s, MsgKind::Fin, &[]).unwrap();
        let hist = expect_binary_stats(s);
        assert_eq!(hist, offline(&[1, 2, 1, 2]));
    }
    drop(held);

    stop.shutdown();
    let metrics = join.join().unwrap();
    assert_eq!(metrics.sessions_rejected, 1);
    assert_eq!(metrics.sessions_completed, 2);
    assert_eq!(metrics.sessions_failed, 0);
}

#[test]
fn shutdown_drains_the_in_flight_session_without_losing_its_reply() {
    let (addr, stop, join) = private_server(ServerConfig {
        idle_timeout: Some(Duration::from_secs(10)),
        ..ServerConfig::default()
    });
    let trace = zipfish(55, 30_000);

    let mut stream = TcpStream::connect(&addr).unwrap();
    write_msg(&mut stream, MsgKind::Hello, &hello_payload()).unwrap();
    write_msg(
        &mut stream,
        MsgKind::Config,
        b"reply=binary\nencoding=raw\n",
    )
    .unwrap();
    expect_accept(&mut stream);

    // Half the trace in flight, then the shutdown request lands.
    let (first, second) = trace.split_at(trace.len() / 2);
    write_msg(
        &mut stream,
        MsgKind::Data,
        &encode_data_frame(first, Encoding::Raw),
    )
    .unwrap();
    stop.shutdown();
    std::thread::sleep(Duration::from_millis(50));

    // The drain keeps the session alive to completion.
    write_msg(
        &mut stream,
        MsgKind::Data,
        &encode_data_frame(second, Encoding::Raw),
    )
    .unwrap();
    write_msg(&mut stream, MsgKind::Fin, &[]).unwrap();
    let hist = expect_binary_stats(&mut stream);
    assert_eq!(hist, offline(&trace));

    let metrics = join.join().unwrap();
    assert_eq!(metrics.sessions_completed, 1);
    assert_eq!(metrics.sessions_failed, 0);
}

#[test]
fn byte_budget_violation_is_a_typed_budget_error() {
    let (addr, stop, join) = private_server(ServerConfig {
        max_session_bytes: Some(1024),
        idle_timeout: Some(Duration::from_secs(10)),
        ..ServerConfig::default()
    });

    let trace = zipfish(77, 50_000); // far more than 1 KiB of payload
    let err = submit(&addr, &trace, &SubmitOptions::default()).unwrap_err();
    assert_eq!(err.class(), "config");
    assert!(err.to_string().contains("budget"), "got: {err}");

    stop.shutdown();
    let metrics = join.join().unwrap();
    assert_eq!(metrics.sessions_failed, 1);
}

#[test]
fn bad_hello_and_unknown_config_keys_are_rejected_before_admission() {
    let mut stream = TcpStream::connect(shared_addr()).unwrap();
    write_msg(&mut stream, MsgKind::Hello, b"NOTPARDA!\x01").unwrap();
    let err = expect_error(&mut stream);
    assert_eq!(err.class, ErrorClass::Protocol);

    let err = submit(
        shared_addr(),
        &[1, 2, 3],
        &SubmitOptions {
            config: vec![("warp".into(), "9".into())],
            ..SubmitOptions::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, PardaError::Config(_)), "got: {err}");
}

#[test]
fn idle_session_is_stalled_out_not_leaked() {
    let (addr, stop, join) = private_server(ServerConfig {
        idle_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    });

    let mut stream = TcpStream::connect(&addr).unwrap();
    write_msg(&mut stream, MsgKind::Hello, &hello_payload()).unwrap();
    write_msg(
        &mut stream,
        MsgKind::Config,
        b"reply=binary\nencoding=raw\n",
    )
    .unwrap();
    expect_accept(&mut stream);
    // Send nothing: the session's read deadline fires.
    let err = expect_error(&mut stream);
    assert_eq!(err.class, ErrorClass::Stall);

    stop.shutdown();
    let metrics = join.join().unwrap();
    assert_eq!(metrics.sessions_failed, 1);
}

#[test]
fn raw_socket_reads_see_a_clean_close_after_stats() {
    // After STATS the server closes; the client must see EOF, not junk.
    let trace = [5u64, 6, 5, 6];
    let bytes = session_bytes(&trace, "reply=binary\nencoding=raw\n", Encoding::Raw, 2);
    let mut stream = TcpStream::connect(shared_addr()).unwrap();
    stream.write_all(&bytes).unwrap();
    expect_accept(&mut stream);
    expect_binary_stats(&mut stream);
    let mut rest = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "unexpected trailing bytes: {rest:?}");
}

#[test]
fn sixty_four_sessions_drain_through_shutdown_with_balanced_shards() {
    // The sharded-core stress: 64 concurrent sessions, alternating exact
    // and sketch, pinned across 4 forced shards. A shutdown request lands
    // while every session is mid-stream; the drain must still deliver all
    // 64 replies, each bit-identical to the offline analysis, with the
    // session load spread evenly over the shards and the sketch sessions
    // holding O(sketch) — not O(trace) — resident state.
    let (addr, stop, join) = private_server(ServerConfig {
        max_sessions: 64,
        shards: 4,
        idle_timeout: Some(Duration::from_secs(30)),
        ..ServerConfig::default()
    });
    let approx_mode = parda_core::ApproxMode::ShardsFixedRate { rate: 0.1 };

    // Main thread joins the barrier too: shutdown fires only after every
    // session is admitted and has half its trace in flight.
    let barrier = Arc::new(Barrier::new(65));
    let clients: Vec<_> = (0..64usize)
        .map(|i| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let trace = zipfish(500 + i as u64, 3_000 + 16 * i);
                let sketched = i % 2 == 1;
                let config = if sketched {
                    format!(
                        "approx={}\nreply=binary\nencoding=raw\n",
                        approx_mode.spec()
                    )
                } else {
                    "reply=binary\nencoding=raw\n".to_string()
                };

                let mut stream = TcpStream::connect(&addr).unwrap();
                write_msg(&mut stream, MsgKind::Hello, &hello_payload()).unwrap();
                write_msg(&mut stream, MsgKind::Config, config.as_bytes()).unwrap();
                expect_accept(&mut stream);

                let (first, second) = trace.split_at(trace.len() / 2);
                write_msg(
                    &mut stream,
                    MsgKind::Data,
                    &encode_data_frame(first, Encoding::Raw),
                )
                .unwrap();
                barrier.wait();
                // Give the shutdown request time to latch before resuming,
                // so the second half genuinely streams through the drain.
                std::thread::sleep(Duration::from_millis(50));
                write_msg(
                    &mut stream,
                    MsgKind::Data,
                    &encode_data_frame(second, Encoding::Raw),
                )
                .unwrap();
                write_msg(&mut stream, MsgKind::Fin, &[]).unwrap();

                let hist = expect_binary_stats(&mut stream);
                let expect = if sketched {
                    parda_core::approx::analyze_approx(&trace, approx_mode).0
                } else {
                    offline(&trace)
                };
                assert_eq!(hist, expect, "session {i}");
            })
        })
        .collect();

    barrier.wait();
    stop.shutdown();
    for c in clients {
        c.join().unwrap();
    }

    let metrics = join.join().unwrap();
    assert_eq!(metrics.sessions_completed, 64);
    assert_eq!(metrics.sessions_failed, 0);
    assert_eq!(metrics.sessions_rejected, 0);
    assert_eq!(metrics.approx_sessions, 32);

    // Least-loaded admission keeps the shards balanced: every shard hosts
    // sessions, and no shard carries more than 2x any other.
    assert_eq!(metrics.per_shard.len(), 4, "all four shards saw sessions");
    let counts: Vec<u64> = metrics.per_shard.iter().map(|s| s.sessions).collect();
    assert_eq!(counts.iter().sum::<u64>(), 64);
    let min = *counts.iter().min().unwrap();
    let max = *counts.iter().max().unwrap();
    assert!(
        min > 0 && max <= 2 * min,
        "unbalanced shard pinning: {counts:?}"
    );

    // The sketch sessions stayed constant-space: their resident high-water
    // mark is bounded by the sketch, far below the exact sessions' state.
    assert!(metrics.sketch_bytes_hwm > 0);
    assert!(
        metrics.sketch_bytes_hwm <= 1 << 20,
        "sketch sessions should hold O(sketch) bytes, saw {}",
        metrics.sketch_bytes_hwm
    );
    for shard in &metrics.per_shard {
        assert!(
            shard.sketch_bytes_hwm <= 1 << 20,
            "shard {} sketch hwm {} exceeds the O(sketch) bound",
            shard.shard,
            shard.sketch_bytes_hwm
        );
    }
}

#[test]
fn approx_session_is_bit_identical_to_offline_approx_analysis() {
    // The sketch is order-deterministic, so the daemon's streamed run must
    // reproduce the offline `analyze --approx` histogram bit for bit.
    let trace = zipfish(23, 60_000);
    let mode = parda_core::ApproxMode::ShardsFixedRate { rate: 0.01 };
    let (expect, expect_metrics) = parda_core::approx::analyze_approx(&trace, mode);

    let reply = submit(
        shared_addr(),
        &trace,
        &SubmitOptions {
            config: vec![("approx".into(), mode.spec())],
            ..SubmitOptions::default()
        },
    )
    .unwrap();
    assert_eq!(reply.histogram, expect);

    // The JSON stats document gains the approx block — same shape as the
    // offline `analyze --approx --stats=json`.
    let json = submit(
        shared_addr(),
        &trace,
        &SubmitOptions {
            reply: ReplyFormat::Json,
            config: vec![("approx".into(), mode.spec())],
            ..SubmitOptions::default()
        },
    )
    .unwrap();
    assert_eq!(json.histogram, expect);
    let doc: serde::Value = serde_json::from_str(json.stats_json.as_deref().unwrap()).unwrap();
    let stats = doc.field("stats").unwrap();
    let approx = stats.field("approx").unwrap();
    let mode_name = <String as serde::Deserialize>::from_value(approx.field("mode").unwrap());
    assert_eq!(mode_name.unwrap(), "shards");
    let sampled =
        <u64 as serde::Deserialize>::from_value(approx.field("sampled_refs").unwrap()).unwrap();
    assert_eq!(sampled, expect_metrics.sampled_refs);
}

#[test]
fn server_default_approx_applies_only_when_the_client_is_silent() {
    // Version tolerance, both directions: a CONFIG without `approx=`
    // inherits the server default; an explicit `approx=exact` overrides it.
    let (addr, stop, join) = private_server(ServerConfig {
        max_sessions: 4,
        idle_timeout: Some(Duration::from_secs(10)),
        default_approx: parda_core::ApproxMode::ShardsFixedRate { rate: 0.25 },
        ..ServerConfig::default()
    });
    let trace = zipfish(29, 30_000);
    let (approx_expect, _) = parda_core::approx::analyze_approx(
        &trace,
        parda_core::ApproxMode::ShardsFixedRate { rate: 0.25 },
    );

    let silent = submit(&addr, &trace, &SubmitOptions::default()).unwrap();
    assert_eq!(silent.histogram, approx_expect, "silent client inherits");

    let exact = submit(
        &addr,
        &trace,
        &SubmitOptions {
            config: vec![("approx".into(), "exact".into())],
            ..SubmitOptions::default()
        },
    )
    .unwrap();
    assert_eq!(exact.histogram, offline(&trace), "explicit exact wins");

    stop.shutdown();
    let metrics = join.join().unwrap();
    assert_eq!(metrics.sessions_completed, 2);
    assert_eq!(
        metrics.approx_sessions, 1,
        "only the silent session sketched"
    );
    assert!(metrics.sketch_bytes_hwm > 0);
}

#[test]
fn offline_session_reproduces_the_daemon_reply() {
    // The offline baseline resolves CONFIG as the daemon does, the server's
    // default approximation included, so it reproduces each reply.
    let scfg = ServerConfig {
        max_sessions: 4,
        idle_timeout: Some(Duration::from_secs(10)),
        default_approx: parda_core::ApproxMode::ShardsFixedRate { rate: 0.25 },
        ..ServerConfig::default()
    };
    let (addr, stop, join) = private_server(scfg.clone());
    let trace = zipfish(31, 40_000);
    let configs: [&[(&str, &str)]; 4] = [
        &[],
        &[("approx", "exact")],
        &[("approx", "shards-smax:64")],
        &[("approx", "exact"), ("tree", "splay"), ("ranks", "3")],
    ];
    for config in configs {
        let opts = SubmitOptions {
            config: config
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            ..SubmitOptions::default()
        };
        let reply = submit(&addr, &trace, &opts).unwrap();
        let mut session = parda_server::offline_session(&scfg, &opts).unwrap();
        session.feed(&trace);
        assert_eq!(session.finish().unwrap().0, reply.histogram, "{config:?}");
    }
    let bad = SubmitOptions {
        config: vec![("tree".into(), "nope".into())],
        ..SubmitOptions::default()
    };
    assert!(parda_server::offline_session(&scfg, &bad).is_err());
    stop.shutdown();
    assert_eq!(join.join().unwrap().sessions_completed, 4);
}

#[test]
fn tagged_session_partitions_like_the_offline_analyzer() {
    use parda_core::concurrent::{
        analyze_concurrent, interleave_threads, recommend_partition, InterleaveModel,
    };
    use parda_tree::VectorTree;

    // Thread 0 loops over 64 lines, thread 1 over 1024 — the partition
    // should hand each exactly its working set.
    let t0: Vec<Addr> = (0..6400).map(|i| i % 64).collect();
    let t1: Vec<Addr> = (0..10_240).map(|i| 100_000 + i % 1024).collect();
    let trace = interleave_threads(&[&t0, &t1], &InterleaveModel::round_robin());

    let opts = SubmitOptions {
        config: vec![("partition".into(), "1088/64".into())],
        reply: ReplyFormat::Json,
        frame_refs: 1000,
        ..SubmitOptions::default()
    };
    let reply = parda_server::submit_tagged(shared_addr(), &trace, &opts).expect("tagged submit");

    let offline = analyze_concurrent::<VectorTree>(&trace);
    assert_eq!(
        reply.histogram, offline.shared,
        "server shared histogram is bit-identical to the offline pass"
    );

    let plan = recommend_partition(&offline.per_thread_solo, 1088, 64);
    assert_eq!(plan.allocation, vec![64, 1024]);
    let json = reply.stats_json.expect("json reply");
    assert!(json.contains("\"shared\":{"), "{json}");
    assert!(json.contains("\"model\":\"as-recorded\""), "{json}");
    let alloc: Vec<String> = plan.allocation.iter().map(|a| a.to_string()).collect();
    assert!(
        json.contains(&format!("\"allocation\":[{}]", alloc.join(","))),
        "{json}"
    );
    assert!(
        json.contains(&format!("\"predicted_misses\":{}", plan.predicted_misses)),
        "{json}"
    );
}

#[test]
fn tagged_session_survives_disconnects_bit_identically() {
    use parda_core::concurrent::{analyze_concurrent, interleave_threads, InterleaveModel};
    use parda_tree::SplayTree;

    let t0: Vec<Addr> = zipfish(21, 4000);
    let t1: Vec<Addr> = zipfish(22, 4000);
    let trace = interleave_threads(
        &[&t0, &t1],
        &InterleaveModel::Probabilistic {
            weights: vec![2, 1],
            seed: 5,
        },
    );

    let (addr, stop, join) = private_server(ServerConfig {
        max_sessions: 8,
        idle_timeout: Some(Duration::from_secs(10)),
        orphan_retention: Duration::from_secs(30),
        ack_every: 3,
        ..ServerConfig::default()
    });
    let mut opts = SubmitOptions {
        frame_refs: 512,
        ..SubmitOptions::default()
    };
    opts.retry = parda_server::RetryPolicy::with_attempts(5);
    opts.chaos_drop_points = vec![4, 9];
    let reply = parda_server::submit_tagged(&addr, &trace, &opts).expect("tagged resume");
    assert_eq!(
        reply.histogram,
        analyze_concurrent::<SplayTree>(&trace).shared,
        "resumed tagged session matches an unbroken offline run"
    );
    assert!(reply.retry.resumes >= 1, "the drops actually fired");
    stop.shutdown();
    join.join().unwrap();
}

#[test]
fn tagged_session_rejects_bad_partition_configs() {
    // partition without tagged is a structured config refusal.
    let trace: Vec<Addr> = (0..100).collect();
    let opts = SubmitOptions {
        config: vec![("partition".into(), "1024".into())],
        ..SubmitOptions::default()
    };
    match submit(shared_addr(), &trace, &opts) {
        Err(PardaError::Config(msg)) => assert!(msg.contains("tagged"), "{msg}"),
        other => panic!("expected config refusal, got {other:?}"),
    }

    // A capacity too small for one granule per thread fails at FIN.
    use parda_core::concurrent::{interleave_threads, InterleaveModel};
    let t0: Vec<Addr> = (0..50).collect();
    let t1: Vec<Addr> = (1000..1050).collect();
    let tagged = interleave_threads(&[&t0, &t1], &InterleaveModel::round_robin());
    let opts = SubmitOptions {
        config: vec![("partition".into(), "64/64".into())],
        ..SubmitOptions::default()
    };
    match parda_server::submit_tagged(shared_addr(), &tagged, &opts) {
        Err(PardaError::Config(msg)) => assert!(msg.contains("capacity"), "{msg}"),
        other => panic!("expected capacity refusal, got {other:?}"),
    }
}
