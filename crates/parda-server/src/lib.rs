//! `parda-server`: reuse-distance analysis as a network service.
//!
//! A std-only TCP daemon on a **sharded-core** model (no async runtime,
//! no per-session threads): a nonblocking acceptor waits on `poll(2)`
//! readiness and pins each connection to the least-loaded of N shard
//! event loops; each shard multiplexes all of its sessions' socket I/O,
//! frame decoding (into one reusable arena), and analysis on one thread,
//! driving every session's `Analysis` as a resumable state machine
//! (`parda_core::SessionAnalysis`):
//!
//! ```text
//!  client ──HELLO/CONFIG──▶ ┌──────────┐   ┌─ shard 0: poll ─ sessions ─┐
//!         ◀─ACCEPT|ERROR──  │ acceptor │──▶│  feed frames → resumable   │
//!         ──DATA*──FIN────▶ │  (poll)  │   │  Analysis → STATS at FIN   │
//!         ◀─STATS|ERROR──   └──────────┘   └─ shard N-1 ────────────────┘
//! ```
//!
//! The wire protocol ([`proto`]) reuses the trace format's per-frame
//! CRC32C header byte-for-byte, so the `Degradation` ladder applies on the
//! wire exactly as on disk: strict sessions fail on the first corrupt
//! frame, lossy sessions quarantine it and tally the loss in the reply's
//! `RecoveryMetrics`. Back-pressure is explicit: a session with an
//! unflushed reply stops being read, so TCP flow control propagates to
//! the client end-to-end. Admission control caps concurrent sessions with
//! a structured refusal. Sessions run under PR 4's `FaultPolicy` —
//! panicking analysis workers are rescued or reported as typed errors,
//! and a panicking session costs one error frame, never a shard and never
//! the daemon.

pub mod client;
mod orphan;
mod poll;
pub mod proto;
pub mod server;
pub mod session;
mod shard;

pub use client::{
    offline_session, submit, submit_file, submit_tagged, RetryPolicy, SubmitOptions, SubmitReply,
};
pub use proto::{ErrorClass, ErrorFrame};
pub use server::{
    install_signal_shutdown, request_shutdown, reset_shutdown_latch, Server, ServerConfig,
    ShutdownHandle,
};
pub use session::{ReplyFormat, SessionConfig, SessionEngine};

/// Arm fault-injection sites from the `PARDA_FAILPOINTS` environment
/// variable (`site=spec` entries separated by `;`, the
/// `parda_failpoint::configure_list` grammar). A no-op when the
/// `failpoints` feature is off or the variable is unset/empty; a
/// malformed spec is an error so a chaos run never starts half-armed.
pub fn arm_failpoints_from_env() -> Result<(), String> {
    #[cfg(feature = "failpoints")]
    if let Ok(spec) = std::env::var("PARDA_FAILPOINTS") {
        if !spec.trim().is_empty() {
            return parda_failpoint::configure_list(&spec);
        }
    }
    Ok(())
}
