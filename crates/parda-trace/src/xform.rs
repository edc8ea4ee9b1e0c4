//! Trace transformations applied before analysis.
//!
//! The paper analyzes word-granular address traces; practical cache
//! questions are usually asked at *line* granularity (a 64-byte line hides
//! spatial locality inside it). These helpers transform traces between
//! granularities and cut them down to regions or samples of interest.

use crate::{Addr, Trace};

/// Collapse byte/word addresses to cache-line numbers (`addr >> block_bits`).
///
/// Reuse distances of the result are line-granular: spatially adjacent
/// accesses fold into repeats, so `to_lines(t, 6)` answers "how does this
/// trace behave in 64-byte-line caches".
pub fn to_lines(trace: &Trace, block_bits: u32) -> Trace {
    assert!(block_bits < 64);
    trace.as_slice().iter().map(|&a| a >> block_bits).collect()
}

/// Keep only references into `[start, end)`.
pub fn filter_range(trace: &Trace, start: Addr, end: Addr) -> Trace {
    assert!(start < end);
    trace
        .as_slice()
        .iter()
        .copied()
        .filter(|&a| (start..end).contains(&a))
        .collect()
}

/// Keep every `k`-th reference (systematic temporal subsampling — note this
/// *biases* reuse distances, unlike the spatial sampling in
/// `parda_core::approx`; exposed for comparison experiments).
pub fn decimate(trace: &Trace, k: usize) -> Trace {
    assert!(k > 0);
    trace.as_slice().iter().copied().step_by(k).collect()
}

/// Concatenate traces back to back (e.g. repeated program runs).
pub fn concat(traces: &[&Trace]) -> Trace {
    let total: usize = traces.iter().map(|t| t.len()).sum();
    let mut out = Vec::with_capacity(total);
    for t in traces {
        out.extend_from_slice(t.as_slice());
    }
    Trace::from_vec(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_lines_folds_spatial_neighbours() {
        let t = Trace::from_vec(vec![0, 8, 63, 64, 65, 128]);
        let lines = to_lines(&t, 6);
        assert_eq!(lines.as_slice(), &[0, 0, 0, 1, 1, 2]);
        assert_eq!(lines.distinct(), 3);
    }

    #[test]
    fn to_lines_zero_bits_is_identity() {
        let t = Trace::from_vec(vec![5, 7, 5]);
        assert_eq!(to_lines(&t, 0), t);
    }

    #[test]
    fn filter_range_keeps_order() {
        let t = Trace::from_vec(vec![1, 100, 2, 200, 3]);
        let f = filter_range(&t, 0, 10);
        assert_eq!(f.as_slice(), &[1, 2, 3]);
        assert!(filter_range(&t, 500, 600).is_empty());
    }

    #[test]
    fn decimate_takes_every_kth() {
        let t: Trace = (0..10u64).collect();
        assert_eq!(decimate(&t, 3).as_slice(), &[0, 3, 6, 9]);
        assert_eq!(decimate(&t, 1), t);
    }

    #[test]
    fn concat_appends() {
        let a = Trace::from_vec(vec![1, 2]);
        let b = Trace::from_vec(vec![3]);
        assert_eq!(concat(&[&a, &b, &a]).as_slice(), &[1, 2, 3, 1, 2]);
    }

    #[test]
    fn line_granularity_shrinks_distances() {
        use crate::{AddressStream, SliceStream};
        let _ = SliceStream::new(&[]); // silence unused import if cfg changes
                                       // A sequential byte scan: word-granular distances are ∞ (no reuse),
                                       // line-granular shows 7 repeats per 64-byte line at distance 0.
        let t: Trace = (0..512u64).step_by(8).collect();
        assert_eq!(t.distinct(), 64);
        let lines = to_lines(&t, 6);
        assert_eq!(lines.distinct(), 8);
        assert_eq!(lines.len(), 64);
        let mut stream = SliceStream::new(lines.as_slice());
        let again = stream.take_trace(64);
        assert_eq!(again, lines);
    }
}
