//! The submitting client: stream a trace to a daemon, get the histogram.
//!
//! [`submit`] speaks the whole session protocol and rehydrates the
//! server's reply — a [`ReuseHistogram`] plus, for JSON replies, the raw
//! stats document (byte-identical to the CLI's offline `--stats=json`
//! output, so tooling can diff the two). Server-side failures arrive as
//! typed [`PardaError`]s with their details intact: a rank panic on the
//! server reports the same rank/attempts it would have reported locally.
//!
//! Since the RESUME protocol the client is **disconnect-resilient**: a
//! [`RetryPolicy`] turns one logical submission into a reconnect loop.
//! The first ACCEPT carries a resume token; if the transport dies
//! mid-stream (or mid-reply), the client reconnects with backoff and
//! presents the token in a RESUME message, and the server's resume-ACCEPT
//! answers with the authoritative ingest watermark — the client then
//! retransmits only the frames past it (server `ACK`s observed along the
//! way tighten the bound; a bounded buffer of recently sent frames avoids
//! re-encoding on retransmit). Nothing is replayed server-side, so the
//! final histogram is bit-identical to an uninterrupted run.
//!
//! Every attempt runs under socket deadlines (`SO_RCVTIMEO`/`SO_SNDTIMEO`
//! via the std setters): a hung daemon surfaces as a typed
//! [`PardaError::Stall`] instead of blocking forever, and a connection
//! that keeps dying exhausts the policy into
//! [`PardaError::ConnectionLost`].

use crate::proto::{
    encode_data_frame, encode_resume, encode_tagged_data_frame, hello_payload, write_msg,
    AcceptPayload, ErrorFrame, Message, MsgKind, MAX_PAYLOAD, STATS_FORMAT_BINARY,
    STATS_FORMAT_JSON, TOKEN_LEN,
};
use crate::server::ServerConfig;
use crate::session::{ReplyFormat, SessionConfig};
use parda_core::{PardaError, SessionAnalysis};
use parda_hist::ReuseHistogram;
use parda_obs::ClientRetryMetrics;
use parda_trace::io::Encoding;
use parda_trace::{Addr, ThreadedTrace};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Cap on buffered already-sent DATA payloads kept for cheap retransmit.
/// Frames past the cap are simply re-encoded from the trace on resume.
const UNACKED_CAP_BYTES: usize = 8 << 20;

/// Drain server ACKs opportunistically every this many sent frames.
const ACK_DRAIN_INTERVAL: u64 = 16;

/// Reconnect behaviour for one logical submission.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total connection attempts (the first one included). `1` — the
    /// default — disables reconnection entirely: any transport failure
    /// surfaces immediately, the historical behavior.
    pub max_attempts: u32,
    /// Delay before the first reconnect; doubles per attempt.
    pub backoff: Duration,
    /// Ceiling for the exponential backoff.
    pub backoff_max: Duration,
    /// Per-attempt TCP connect deadline (`None`: OS default).
    pub connect_timeout: Option<Duration>,
    /// Socket read/write deadline (`SO_RCVTIMEO`/`SO_SNDTIMEO`). Expiry
    /// is a [`PardaError::Stall`], not a retry — a daemon that accepted
    /// the session but stopped responding is not a lost connection.
    pub io_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            backoff: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            connect_timeout: Some(Duration::from_secs(10)),
            io_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl RetryPolicy {
    /// A policy with `attempts` total attempts and the default deadlines.
    pub fn with_attempts(attempts: u32) -> Self {
        Self {
            max_attempts: attempts.max(1),
            ..Self::default()
        }
    }
}

/// Client-side knobs for one submission.
#[derive(Clone, Debug)]
pub struct SubmitOptions {
    /// Extra `key=value` pairs for the CONFIG message (tree, ranks, bound,
    /// engine, chunk, degradation — see `session::SessionConfig`).
    pub config: Vec<(String, String)>,
    /// DATA frame payload encoding.
    pub encoding: Encoding,
    /// References per DATA frame.
    pub frame_refs: usize,
    /// Reply encoding to request.
    pub reply: ReplyFormat,
    /// Reconnect/deadline policy.
    pub retry: RetryPolicy,
    /// Chaos knob for tests and the flaky-network bench: sever the
    /// connection (both ways) after these cumulative sent-frame counts,
    /// each point firing once. Exercises the reconnect + RESUME path
    /// without any server-side fault injection. Empty in production.
    pub chaos_drop_points: Vec<u64>,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        Self {
            config: Vec::new(),
            encoding: Encoding::DeltaVarint,
            frame_refs: parda_trace::io::FRAME_REFS,
            reply: ReplyFormat::Binary,
            retry: RetryPolicy::default(),
            chaos_drop_points: Vec::new(),
        }
    }
}

/// A successful server reply.
#[derive(Clone, Debug)]
pub struct SubmitReply {
    /// The session id the server assigned.
    pub session: u64,
    /// The analysis result.
    pub histogram: ReuseHistogram,
    /// The full `{"histogram":…,"stats":…}` document (JSON replies only).
    pub stats_json: Option<String>,
    /// What the reconnect loop did to deliver this reply.
    pub retry: ClientRetryMetrics,
}

fn corrupt(msg: impl Into<String>) -> PardaError {
    PardaError::Corrupt(msg.into())
}

/// How one attempt ended, when it did not end with a reply.
enum AttemptError {
    /// Retrying cannot help: a typed server error, a protocol violation,
    /// or a deadline expiry.
    Fatal(PardaError),
    /// The transport died; reconnect and resume if the policy allows.
    Transient(io::Error),
}

/// Submission state that survives reconnects.
#[derive(Default)]
struct SessionState {
    /// Resume token from the first ACCEPT.
    token: Option<[u8; TOKEN_LEN]>,
    session_id: u64,
    /// Frames the server has confirmed ingested (ACKs and resume-ACCEPT
    /// watermarks; monotone per session).
    watermark: u64,
    /// One past the highest frame index ever sent.
    sent_high: u64,
    /// Cumulative DATA frames written across all attempts (retransmits
    /// included) — the clock the chaos drop points run on.
    frames_sent_total: u64,
}

/// Bounded buffer of (frame index, encoded payload) awaiting ACK, so
/// retransmission after a resume usually skips re-encoding.
struct UnackedBuf {
    entries: VecDeque<(u64, Vec<u8>)>,
    bytes: usize,
}

impl UnackedBuf {
    fn new() -> Self {
        Self {
            entries: VecDeque::new(),
            bytes: 0,
        }
    }

    fn push(&mut self, seq: u64, payload: Vec<u8>) {
        self.bytes += payload.len();
        self.entries.push_back((seq, payload));
        while self.bytes > UNACKED_CAP_BYTES {
            let Some((_, dropped)) = self.entries.pop_front() else {
                break;
            };
            self.bytes -= dropped.len();
        }
    }

    /// Drop everything below the acked watermark.
    fn ack(&mut self, watermark: u64) {
        while self
            .entries
            .front()
            .is_some_and(|(seq, _)| *seq < watermark)
        {
            let (_, dropped) = self.entries.pop_front().expect("front just observed");
            self.bytes -= dropped.len();
        }
    }

    fn get(&self, seq: u64) -> Option<&Vec<u8>> {
        // Entries are in ascending seq order; resumption asks for a
        // contiguous suffix, so a scan from the front is fine at this cap.
        self.entries
            .iter()
            .find(|(s, _)| *s == seq)
            .map(|(_, payload)| payload)
    }
}

/// Fires each configured cumulative-frame drop point once, in order.
struct ChaosPlan {
    points: Vec<u64>,
    next: usize,
}

impl ChaosPlan {
    fn new(points: &[u64]) -> Self {
        let mut points = points.to_vec();
        points.sort_unstable();
        Self { points, next: 0 }
    }

    fn should_drop(&mut self, frames_sent_total: u64) -> bool {
        if self.next < self.points.len() && frames_sent_total >= self.points[self.next] {
            self.next += 1;
            return true;
        }
        false
    }
}

/// A connection with client-owned read buffering, so blocking reads
/// (honouring `SO_RCVTIMEO`) and opportunistic nonblocking ACK drains
/// share one parser state.
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    consumed: usize,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            inbuf: Vec::new(),
            consumed: 0,
        }
    }

    /// Parse one complete message out of the buffer, if there is one.
    fn parse_one(&mut self) -> io::Result<Option<Message>> {
        let avail = self.inbuf.len() - self.consumed;
        if avail < 5 {
            return Ok(None);
        }
        let head = &self.inbuf[self.consumed..self.consumed + 5];
        let kind = MsgKind::from_u8(head[0])?;
        let len = u32::from_le_bytes(head[1..5].try_into().unwrap()) as usize;
        if len > MAX_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("message payload of {len} bytes exceeds cap"),
            ));
        }
        if avail < 5 + len {
            return Ok(None);
        }
        let start = self.consumed + 5;
        let payload = self.inbuf[start..start + len].to_vec();
        self.consumed += 5 + len;
        if self.consumed == self.inbuf.len() {
            self.inbuf.clear();
            self.consumed = 0;
        }
        Ok(Some(Message { kind, payload }))
    }

    /// Blocking read of the next message. With `SO_RCVTIMEO` set, expiry
    /// surfaces as a `WouldBlock`/`TimedOut` error from the socket read.
    fn read_msg(&mut self) -> io::Result<Message> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(msg) = self.parse_one()? {
                return Ok(msg);
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Pull whatever is ready without blocking and parse it. Transport
    /// death is reported *after* buffered messages are parsed, so a typed
    /// ERROR that raced the close is not lost.
    fn drain_ready(&mut self, out: &mut Vec<Message>) -> io::Result<()> {
        self.stream.set_nonblocking(true)?;
        let mut buf = [0u8; 16 * 1024];
        let result = loop {
            match self.stream.read(&mut buf) {
                Ok(0) => break Err(io::Error::from(io::ErrorKind::UnexpectedEof)),
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            }
        };
        self.stream.set_nonblocking(false)?;
        while let Some(msg) = self.parse_one()? {
            out.push(msg);
        }
        result
    }

    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
    )
}

/// Classify a failed read in the reply path: deadline expiry is a typed
/// stall (the daemon is hung, not gone — retrying would hang again), a
/// disconnect is transient, anything else is a hard I/O error.
fn classify_read(e: io::Error, io_timeout: Option<Duration>) -> AttemptError {
    if is_timeout(&e) {
        return AttemptError::Fatal(PardaError::Stall {
            rank: 0,
            deadline: io_timeout.unwrap_or_default(),
        });
    }
    if is_disconnect(&e) {
        return AttemptError::Transient(e);
    }
    if e.kind() == io::ErrorKind::InvalidData {
        return AttemptError::Fatal(corrupt(e.to_string()));
    }
    AttemptError::Fatal(PardaError::Io(e))
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Exponential backoff with deterministic jitter (0–25%, derived from the
/// attempt number so tests are reproducible).
fn backoff_delay(policy: &RetryPolicy, attempt: u32) -> Duration {
    let exp = attempt.saturating_sub(2).min(16);
    let base = policy
        .backoff
        .saturating_mul(1u32 << exp)
        .min(policy.backoff_max);
    let jitter_num = splitmix(u64::from(attempt)) % 256;
    let jitter_ns = (base.as_nanos() as u64 / 1024).saturating_mul(jitter_num);
    (base + Duration::from_nanos(jitter_ns)).min(policy.backoff_max)
}

fn connect(addr: &str, policy: &RetryPolicy) -> io::Result<TcpStream> {
    let Some(timeout) = policy.connect_timeout else {
        return TcpStream::connect(addr);
    };
    use std::net::ToSocketAddrs;
    let mut last: Option<io::Error> = None;
    for sockaddr in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sockaddr, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    }))
}

/// What one submission streams: a plain address trace, or a thread-tagged
/// one whose DATA frames carry the v2.2 tagged layout (the session must be
/// configured `tagged=1`).
#[derive(Clone, Copy)]
enum Payload<'a> {
    Plain(&'a [Addr]),
    Tagged(&'a ThreadedTrace),
}

impl Payload<'_> {
    fn len(&self) -> usize {
        match self {
            Payload::Plain(t) => t.len(),
            Payload::Tagged(t) => t.len(),
        }
    }

    /// Encode the frame at `seq` (frames are `frame_refs`-reference
    /// chunks of the trace, the last possibly short).
    fn encode_frame(&self, seq: u64, frame_refs: usize, encoding: Encoding) -> io::Result<Vec<u8>> {
        let start = usize::try_from(seq).unwrap_or(usize::MAX) * frame_refs;
        let end = (start + frame_refs).min(self.len());
        match self {
            Payload::Plain(t) => Ok(encode_data_frame(&t[start..end], encoding)),
            Payload::Tagged(t) => {
                encode_tagged_data_frame(&t.addrs()[start..end], &t.tids()[start..end], encoding)
            }
        }
    }
}

/// Stream `trace` to the daemon at `addr` and return its reply,
/// reconnecting and resuming per `opts.retry`.
pub fn submit(addr: &str, trace: &[Addr], opts: &SubmitOptions) -> Result<SubmitReply, PardaError> {
    submit_payload(addr, Payload::Plain(trace), opts)
}

/// Stream a thread-tagged trace to the daemon and return its reply — the
/// shared-cache histogram plus, for JSON replies, the report carrying
/// `stats.shared` (and the partition recommendation when the CONFIG asked
/// for one via `partition=`). Appends `tagged=1` to the CONFIG unless the
/// caller already set it.
pub fn submit_tagged(
    addr: &str,
    trace: &ThreadedTrace,
    opts: &SubmitOptions,
) -> Result<SubmitReply, PardaError> {
    if opts.config.iter().any(|(k, _)| k == "tagged") {
        return submit_payload(addr, Payload::Tagged(trace), opts);
    }
    let mut opts = opts.clone();
    opts.config.push(("tagged".into(), "1".into()));
    submit_payload(addr, Payload::Tagged(trace), &opts)
}

fn submit_payload(
    addr: &str,
    trace: Payload,
    opts: &SubmitOptions,
) -> Result<SubmitReply, PardaError> {
    let max_attempts = opts.retry.max_attempts.max(1);
    let mut st = SessionState::default();
    let mut unacked = UnackedBuf::new();
    let mut chaos = ChaosPlan::new(&opts.chaos_drop_points);
    let mut metrics = ClientRetryMetrics::default();
    let mut lost_at: Option<Instant> = None;
    let mut last_io: Option<io::Error> = None;

    for attempt in 1..=max_attempts {
        if attempt > 1 {
            std::thread::sleep(backoff_delay(&opts.retry, attempt));
        }
        metrics.attempts = attempt;
        match run_attempt(
            addr,
            trace,
            opts,
            &mut st,
            &mut unacked,
            &mut chaos,
            &mut metrics,
            &mut lost_at,
        ) {
            Ok(mut reply) => {
                reply.retry = metrics;
                return Ok(reply);
            }
            Err(AttemptError::Fatal(e)) => return Err(e),
            Err(AttemptError::Transient(e)) => {
                if lost_at.is_none() {
                    lost_at = Some(Instant::now());
                }
                last_io = Some(e);
            }
        }
    }

    if max_attempts == 1 {
        // No retries were requested: surface the raw I/O failure exactly
        // as the pre-resumption client did.
        Err(PardaError::Io(last_io.unwrap_or_else(|| {
            io::Error::other("submission failed without an I/O error")
        })))
    } else {
        Err(PardaError::ConnectionLost {
            attempts: max_attempts,
        })
    }
}

/// One connection's worth of the protocol: handshake (CONFIG or RESUME),
/// stream the unacknowledged frame suffix, FIN, read the reply.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    addr: &str,
    trace: Payload,
    opts: &SubmitOptions,
    st: &mut SessionState,
    unacked: &mut UnackedBuf,
    chaos: &mut ChaosPlan,
    metrics: &mut ClientRetryMetrics,
    lost_at: &mut Option<Instant>,
) -> Result<SubmitReply, AttemptError> {
    let io_timeout = opts.retry.io_timeout;
    let stream = connect(addr, &opts.retry).map_err(AttemptError::Transient)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(io_timeout);
    let _ = stream.set_write_timeout(io_timeout);
    let mut conn = Conn::new(stream);
    let resuming = st.token.is_some();

    // Handshake, flushed in one write so the server can act (and possibly
    // refuse) before we commit to streaming the trace.
    let mut handshake = Vec::new();
    write_msg(&mut handshake, MsgKind::Hello, &hello_payload()).map_err(AttemptError::Transient)?;
    match &st.token {
        Some(token) => {
            write_msg(
                &mut handshake,
                MsgKind::Resume,
                &encode_resume(token, st.watermark),
            )
            .map_err(AttemptError::Transient)?;
        }
        None => {
            write_msg(
                &mut handshake,
                MsgKind::Config,
                config_text(opts).as_bytes(),
            )
            .map_err(AttemptError::Transient)?;
        }
    }
    conn.write_all(&handshake)
        .map_err(AttemptError::Transient)?;

    // ACCEPT (or a structured refusal).
    let accept = match conn.read_msg() {
        Ok(msg) => msg,
        Err(e) => return Err(classify_read(e, io_timeout)),
    };
    match accept.kind {
        MsgKind::Accept => {
            let payload =
                AcceptPayload::from_bytes(&accept.payload).map_err(|e| corrupt(e.to_string()))?;
            if resuming {
                metrics.resumes += 1;
                if let Some(at) = lost_at.take() {
                    if metrics.resume_latency_ns == 0 {
                        metrics.resume_latency_ns =
                            u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    }
                }
                // The server's watermark is authoritative; every frame we
                // sent past it is about to be retransmitted.
                st.watermark = payload.watermark;
                metrics.retransmitted_frames += st.sent_high.saturating_sub(payload.watermark);
            } else {
                st.session_id = payload.session;
                st.token = Some(payload.token);
                st.watermark = payload.watermark;
                st.sent_high = 0;
            }
            unacked.ack(st.watermark);
        }
        MsgKind::Error if resuming => {
            // A refused RESUME is retried, not fatal: the server may simply
            // not have parked the dead connection's session yet (the old
            // fd's EOF races our reconnect). A genuinely expired token
            // keeps refusing until the policy exhausts into ConnectionLost.
            return Err(AttemptError::Transient(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                format!("resume refused: {}", rehydrate(&accept.payload)),
            )));
        }
        MsgKind::Error => return Err(AttemptError::Fatal(rehydrate(&accept.payload))),
        other => {
            return Err(AttemptError::Fatal(corrupt(format!(
                "expected ACCEPT, got {other:?}"
            ))))
        }
    }

    // Stream the frame suffix the server has not confirmed. A mid-stream
    // write failure must not abort the attempt here — fall through to the
    // read phase, where a typed ERROR may be waiting.
    let frame_refs = opts.frame_refs.max(1);
    let total_frames = (trace.len() as u64).div_ceil(frame_refs as u64);
    let mut write_err: Option<io::Error> = None;
    let mut pending: Option<Message> = None;
    let mut msgbuf = Vec::new();
    let mut seq = st.watermark;
    'streaming: while seq < total_frames {
        let payload = match unacked.get(seq) {
            Some(buffered) => buffered.clone(),
            None => trace
                .encode_frame(seq, frame_refs, opts.encoding)
                .map_err(|e| AttemptError::Fatal(PardaError::Io(e)))?,
        };
        msgbuf.clear();
        write_msg(&mut msgbuf, MsgKind::Data, &payload).map_err(AttemptError::Transient)?;
        if let Err(e) = conn.write_all(&msgbuf) {
            write_err = Some(e);
            break;
        }
        unacked.push(seq, payload);
        seq += 1;
        st.sent_high = st.sent_high.max(seq);
        st.frames_sent_total += 1;
        if chaos.should_drop(st.frames_sent_total) {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            return Err(AttemptError::Transient(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected client-side connection drop",
            )));
        }
        if st.frames_sent_total.is_multiple_of(ACK_DRAIN_INTERVAL) {
            let mut ready = Vec::new();
            let drained = conn.drain_ready(&mut ready);
            for msg in ready {
                match msg.kind {
                    MsgKind::Ack => {
                        if let Ok(mark) = crate::proto::decode_ack(&msg.payload) {
                            metrics.acks_seen += 1;
                            st.watermark = st.watermark.max(mark);
                            unacked.ack(st.watermark);
                        }
                    }
                    _ => {
                        // A non-ACK mid-stream (a fatal ERROR, typically):
                        // stop streaming and let the reply phase sort it.
                        pending = Some(msg);
                        break 'streaming;
                    }
                }
            }
            if let Err(e) = drained {
                write_err = Some(e);
                break;
            }
        }
    }
    if write_err.is_none() && pending.is_none() {
        msgbuf.clear();
        write_msg(&mut msgbuf, MsgKind::Fin, &[]).map_err(AttemptError::Transient)?;
        write_err = conn.write_all(&msgbuf).err();
    }

    // Reply phase: STATS on success, ERROR on failure, interleaved ACKs
    // skipped. If the transport broke and no reply is readable either,
    // the broken write wins the classification (it is always transient —
    // for a single-attempt policy that surfaces as the raw I/O error).
    loop {
        let msg = match pending.take() {
            Some(msg) => msg,
            None => match conn.read_msg() {
                Ok(msg) => msg,
                Err(read_e) => {
                    return Err(match write_err {
                        Some(e) => AttemptError::Transient(e),
                        None => classify_read(read_e, io_timeout),
                    })
                }
            },
        };
        match msg.kind {
            MsgKind::Ack => {
                if let Ok(mark) = crate::proto::decode_ack(&msg.payload) {
                    metrics.acks_seen += 1;
                    st.watermark = st.watermark.max(mark);
                    unacked.ack(st.watermark);
                }
            }
            MsgKind::Stats => return parse_stats(st.session_id, &msg.payload),
            MsgKind::Error => return Err(AttemptError::Fatal(rehydrate(&msg.payload))),
            other => {
                return Err(AttemptError::Fatal(corrupt(format!(
                    "expected STATS, got {other:?}"
                ))))
            }
        }
    }
}

impl From<PardaError> for AttemptError {
    fn from(e: PardaError) -> Self {
        AttemptError::Fatal(e)
    }
}

/// Load a trace file (any supported format) and [`submit`] it.
pub fn submit_file<P: AsRef<Path>>(
    addr: &str,
    path: P,
    opts: &SubmitOptions,
) -> Result<SubmitReply, PardaError> {
    let trace = parda_trace::io::load_trace(path).map_err(PardaError::from)?;
    submit(addr, trace.as_slice(), opts)
}

/// The analysis a daemon configured by `scfg` would run for a submission
/// with `opts`, without sockets or framing: the CONFIG [`submit`] sends,
/// parsed and resolved exactly as a live session resolves it. Feeding it the
/// trace and finishing gives the histogram `submit` returns, so it is the
/// offline baseline that wire overhead is read against.
///
/// Errors with the daemon's `[config]` message on a CONFIG it would refuse,
/// and on tagged submissions (they run the concurrent analyzer instead).
pub fn offline_session(
    scfg: &ServerConfig,
    opts: &SubmitOptions,
) -> Result<SessionAnalysis, String> {
    let cfg = SessionConfig::parse(&config_text(opts), scfg.fault.degradation)?;
    if cfg.tagged {
        return Err("tagged sessions run the concurrent analyzer".into());
    }
    Ok(cfg.analysis(scfg))
}

fn config_text(opts: &SubmitOptions) -> String {
    let mut text = String::new();
    for (k, v) in &opts.config {
        text.push_str(k);
        text.push('=');
        text.push_str(v);
        text.push('\n');
    }
    text.push_str(match opts.encoding {
        Encoding::Raw => "encoding=raw\n",
        Encoding::DeltaVarint => "encoding=delta\n",
    });
    text.push_str(match opts.reply {
        ReplyFormat::Json => "reply=json\n",
        ReplyFormat::Binary => "reply=binary\n",
    });
    text
}

fn rehydrate(payload: &[u8]) -> PardaError {
    match ErrorFrame::from_payload(payload) {
        Ok(frame) => frame.to_parda(),
        Err(e) => corrupt(format!("undecodable ERROR frame: {e}")),
    }
}

fn parse_stats(session: u64, payload: &[u8]) -> Result<SubmitReply, AttemptError> {
    let (format, body) = payload
        .split_first()
        .ok_or_else(|| corrupt("empty STATS payload"))?;
    match *format {
        STATS_FORMAT_BINARY => Ok(SubmitReply {
            session,
            histogram: crate::proto::decode_histogram_binary(body).map_err(PardaError::from)?,
            stats_json: None,
            retry: ClientRetryMetrics::default(),
        }),
        STATS_FORMAT_JSON => {
            let text =
                std::str::from_utf8(body).map_err(|_| corrupt("JSON STATS body is not UTF-8"))?;
            let doc: serde::Value = serde_json::from_str(text)
                .map_err(|e| corrupt(format!("unparsable STATS JSON: {e:?}")))?;
            let hist_value = doc
                .field("histogram")
                .map_err(|e| corrupt(format!("STATS JSON: {e:?}")))?;
            let histogram = <ReuseHistogram as serde::Deserialize>::from_value(hist_value)
                .map_err(|e| corrupt(format!("STATS histogram: {e:?}")))?;
            Ok(SubmitReply {
                session,
                histogram,
                stats_json: Some(text.to_string()),
                retry: ClientRetryMetrics::default(),
            })
        }
        other => Err(corrupt(format!("unknown STATS format byte {other}")).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_text_appends_wire_settings_last() {
        let opts = SubmitOptions {
            config: vec![("tree".into(), "avl".into()), ("ranks".into(), "2".into())],
            encoding: Encoding::Raw,
            frame_refs: 128,
            reply: ReplyFormat::Json,
            ..SubmitOptions::default()
        };
        assert_eq!(
            config_text(&opts),
            "tree=avl\nranks=2\nencoding=raw\nreply=json\n"
        );
    }

    #[test]
    fn rehydrate_tolerates_garbage_error_frames() {
        assert_eq!(rehydrate(&[0xFF, 0x00]).class(), "corrupt");
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let policy = RetryPolicy {
            backoff: Duration::from_millis(10),
            backoff_max: Duration::from_secs(1),
            ..RetryPolicy::default()
        };
        let d2 = backoff_delay(&policy, 2);
        let d3 = backoff_delay(&policy, 3);
        let d4 = backoff_delay(&policy, 4);
        assert!(d2 >= Duration::from_millis(10) && d2 <= Duration::from_millis(13));
        assert!(d3 >= Duration::from_millis(20) && d3 <= Duration::from_millis(25));
        assert!(d4 >= Duration::from_millis(40) && d4 <= Duration::from_millis(50));
        // Deterministic: the same attempt always waits the same time.
        assert_eq!(backoff_delay(&policy, 3), d3);
        // The ceiling holds however far the attempts run.
        assert!(backoff_delay(&policy, 30) <= Duration::from_secs(1));
    }

    #[test]
    fn unacked_buffer_acks_prefixes_and_bounds_bytes() {
        let mut buf = UnackedBuf::new();
        for seq in 0..10u64 {
            buf.push(seq, vec![0u8; 100]);
        }
        assert!(buf.get(3).is_some());
        buf.ack(5);
        assert!(buf.get(3).is_none(), "acked frames are dropped");
        assert!(buf.get(7).is_some(), "unacked frames are kept");
        assert_eq!(buf.bytes, 500);
        // The byte cap evicts oldest first.
        let mut buf = UnackedBuf::new();
        buf.push(0, vec![0u8; UNACKED_CAP_BYTES]);
        buf.push(1, vec![0u8; 64]);
        assert!(buf.get(0).is_none(), "oversized prefix evicted");
        assert!(buf.get(1).is_some());
    }

    #[test]
    fn chaos_plan_fires_each_point_once_in_order() {
        let mut plan = ChaosPlan::new(&[5, 2]);
        assert!(!plan.should_drop(1));
        assert!(plan.should_drop(2), "sorted: 2 fires first");
        assert!(!plan.should_drop(3));
        assert!(plan.should_drop(5));
        assert!(!plan.should_drop(100), "each point fires once");
    }

    #[test]
    fn read_classification_separates_stall_disconnect_and_io() {
        let stall = classify_read(
            io::Error::from(io::ErrorKind::WouldBlock),
            Some(Duration::from_secs(3)),
        );
        match stall {
            AttemptError::Fatal(PardaError::Stall { deadline, .. }) => {
                assert_eq!(deadline, Duration::from_secs(3));
            }
            _ => panic!("timeout should classify as a stall"),
        }
        assert!(matches!(
            classify_read(io::Error::from(io::ErrorKind::ConnectionReset), None),
            AttemptError::Transient(_)
        ));
        assert!(matches!(
            classify_read(io::Error::from(io::ErrorKind::UnexpectedEof), None),
            AttemptError::Transient(_)
        ));
        assert!(matches!(
            classify_read(io::Error::from(io::ErrorKind::PermissionDenied), None),
            AttemptError::Fatal(PardaError::Io(_))
        ));
    }
}
