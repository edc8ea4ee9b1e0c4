//! Cliff guard: no engine × tree pairing may turn superlinear.
//!
//! Runs every exact [`Mode`] under every [`TreeKind`] over a doubling
//! ladder of prefixes of one zipf (θ = 0.99) trace, 100k → 800k
//! references, with 4 ranks and the default phase chunk, taking the best
//! of 3 runs per rung. One doubling may cost at most 3×. The first rung
//! over that stops the pairing's ladder and fails the guard (exit 1).
//!
//! The footprint, 16384 addresses, keeps every rung's state inside a
//! 4 MiB L2, so a ratio measures algorithmic growth. With a footprint
//! that crosses the L2 inside the ladder, the cache transition alone
//! costs healthy pairings 2.5–3.2× per doubling. `Mode::Naive` is left
//! out: the §III-A stack algorithm is O(N·M) by design.
//!
//!   cargo run --release -p parda-bench --bin cliff_guard

use parda_bench::time;
use parda_core::phased::Reduction;
use parda_core::{Analysis, Mode};
use parda_trace::gen::ZipfGen;
use parda_trace::AddressStream;
use parda_tree::TreeKind;
use std::process::ExitCode;

const FOOTPRINT: usize = 16_384;
const RUNGS: [usize; 4] = [100_000, 200_000, 400_000, 800_000];
const RUNS: usize = 3;
const MAX_RATIO: f64 = 3.0;

fn main() -> ExitCode {
    let trace = ZipfGen::new(FOOTPRINT, 0.99, 0, 7).take_trace(RUNGS[RUNGS.len() - 1]);
    let modes = [
        Mode::Seq,
        Mode::Threads,
        Mode::Phased {
            chunk: 65_536,
            reduction: Reduction::ShipToRankZero,
        },
    ];
    let mut cliffs = 0;
    for mode in modes {
        for tree in TreeKind::ALL {
            let analysis = Analysis::new().mode(mode).tree(tree).ranks(4);
            let mut line = format!("{:>14}/{:<6}", mode.name(), tree.name());
            let mut prev: Option<f64> = None;
            for n in RUNGS {
                let best = (0..RUNS)
                    .map(|_| time(|| analysis.run(&trace.as_slice()[..n])).1)
                    .fold(f64::INFINITY, f64::min);
                line += &format!("  {}k {:.3}s", n / 1000, best);
                if let Some(p) = prev {
                    let ratio = best / p;
                    line += &format!(" ({ratio:.1}x)");
                    if ratio > MAX_RATIO {
                        line += "  CLIFF";
                        cliffs += 1;
                        break;
                    }
                }
                prev = Some(best);
            }
            println!("{line}");
        }
    }
    if cliffs > 0 {
        eprintln!("cliff guard: {cliffs} pairing(s) cost more than {MAX_RATIO}x per doubling");
        return ExitCode::FAILURE;
    }
    println!("cliff guard: every doubling within {MAX_RATIO}x");
    ExitCode::SUCCESS
}
