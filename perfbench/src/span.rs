//! In-memory span recorder for the traced run.
//!
//! A span covers one call the benchmark makes into a layer's public
//! function. Spans carry a name (`<layer>.<function>`), start and end
//! offsets from the tracer's epoch, the index of the enclosing span and the
//! job (door or session class) they belong to. They stay in memory until
//! [`Tracer::write_jsonl`] writes them out at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans when on; a pass-through when off, so the same
/// replay code gives the untraced time the tracing overhead is measured
/// against.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    job: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            job: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Tag spans opened from now on with `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Self time per span name for `job`: each span's duration minus the
    /// part its direct children cover. The values over all names sum to the
    /// job's root spans' total.
    pub fn self_times(&self, job: u64) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.job == job {
                *out.entry(s.name).or_insert(0) += s.ns() - child_ns[i];
            }
        }
        out
    }

    /// Total duration of `job`'s root spans.
    pub fn total(&self, job: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.job == job && s.parent.is_none())
            .map(Span::ns)
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","job":{},"parent":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.job, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut tr = Tracer::new(true);
        tr.set_job(7);
        tr.span("door.x", |tr| {
            tr.span("a.f", |tr| tr.span("b.g", |_| std::hint::black_box(1)));
            tr.span("a.f", |_| ());
        });
        let st = tr.self_times(7);
        assert_eq!(st.values().sum::<u64>(), tr.total(7));
        assert_eq!(st.len(), 3);
        assert!(tr.self_times(8).is_empty());
        let mut off = Tracer::new(false);
        assert_eq!(off.span("door.x", |_| 5), 5);
        assert_eq!(off.total(0), 0);
    }
}
