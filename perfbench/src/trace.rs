//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into each layer's public API, nest
//! strictly (the traced run is single-threaded), and carry the job they
//! belong to. A layer's self time is its span's duration minus the time
//! covered by its direct child spans. Counts are recorded at the same
//! boundaries. Everything stays in memory until [`Tracer::write`].

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer metric name, e.g. `reorder.plan`.
    pub name: &'static str,
    /// The job the span belongs to.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
}

/// The span and count recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Start attributing spans to a new job.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.stack.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.origin.elapsed();
        out
    }

    /// Add `n` to the count called `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// The recorded counts.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// The duration of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Self time per span name: each span's duration minus its direct
    /// children's, summed over all spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            *out.entry(s.name).or_insert(Duration::ZERO) +=
                (s.end - s.start).saturating_sub(children);
        }
        out
    }

    /// Write the spans, one per line: `job parent name start_ns end_ns`.
    pub fn write(&self, path: &Path, append: bool) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(append)
            .write(true)
            .truncate(!append)
            .open(path)?;
        let mut w = std::io::BufWriter::new(file);
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{} {parent} {} {} {}",
                s.job,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        w.flush()
    }
}
