//! The daemon traffic: two closed-loop clients, one per session class,
//! calling `parda_server::submit` back to back on one connection each.

use crate::workload::Class;
use parda_hist::ReuseHistogram;
use parda_server::submit;
use parda_trace::Trace;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One client's sessions.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Connect-to-reply milliseconds of every correct session.
    pub latencies_ms: Vec<f64>,
    /// References of the correct sessions.
    pub refs_ok: u64,
    pub attempted: u64,
    /// Sessions refused, failed, or answered with a wrong histogram.
    pub failed: u64,
}

impl Outcome {
    /// Fold in a later stretch of the same client's sessions.
    pub fn absorb(&mut self, other: Outcome) {
        self.latencies_ms.extend(other.latencies_ms);
        self.refs_ok += other.refs_ok;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A class's session traces and the offline result each must reproduce.
pub struct Traffic<'a> {
    pub class: Class,
    pub pool: &'a [Trace],
    pub expected: &'a [ReuseHistogram],
}

/// Run both clients until at least `min_time` has passed and every client
/// has completed `min_sessions` sessions, or until `cap` passes. Returns
/// each client's outcome and the wall seconds of the whole phase.
pub fn drive(
    addr: &str,
    traffic: &[Traffic<'_>],
    min_time: Duration,
    min_sessions: usize,
    cap: Duration,
) -> (Vec<Outcome>, f64) {
    let stop = AtomicBool::new(false);
    let done: Vec<AtomicUsize> = traffic.iter().map(|_| AtomicUsize::new(0)).collect();
    let sw = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        let clients: Vec<_> = traffic
            .iter()
            .zip(&done)
            .map(|(t, done)| scope.spawn(|| client(addr, t, &stop, done)))
            .collect();
        loop {
            let elapsed = sw.elapsed();
            let enough = done
                .iter()
                .all(|d| d.load(Ordering::Relaxed) >= min_sessions);
            if (elapsed >= min_time && enough) || elapsed >= cap {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    (outcomes, sw.elapsed().as_secs_f64())
}

fn client(addr: &str, t: &Traffic<'_>, stop: &AtomicBool, done: &AtomicUsize) -> Outcome {
    let opts = t.class.options();
    let mut out = Outcome::default();
    let mut i = 0;
    while !stop.load(Ordering::Relaxed) {
        let trace = &t.pool[i % t.pool.len()];
        let sw = Instant::now();
        let reply = submit(addr, trace.as_slice(), &opts);
        let ms = sw.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        match reply {
            Ok(r) if r.histogram == t.expected[i % t.pool.len()] => {
                out.latencies_ms.push(ms);
                out.refs_ok += trace.len() as u64;
                done.fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) => {
                eprintln!("perfbench: {:?} session {i}: wrong histogram", t.class);
                out.failed += 1;
            }
            Err(e) => {
                eprintln!("perfbench: {:?} session {i}: {e}", t.class);
                out.failed += 1;
            }
        }
        i += 1;
    }
    out
}
