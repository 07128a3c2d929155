//! End-to-end and per-layer benchmark of the branch-reordering system.
//!
//! Two workloads drive the layers through their public APIs: the
//! certified `brc --reorder` pipeline and the adaptive runtime. Each run
//! prints one JSON line with the job counts and the metrics; a traced
//! run reports per-layer self times of every layer, from the front end
//! to the served cluster, instead. See `README.md` in this directory.

pub mod check;
pub mod layers;
pub mod pipeline;
pub mod rss;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Failed output checks; the run is correct when there are none.
    pub problems: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record a failed check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// The result line: `{"correct": .., "attempted": .., "failed": ..,
    /// "metrics": {name: {"value": .., "unit": ..}}}`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Where a run keeps its scratch files: under this directory's `.work`,
/// never elsewhere in the checkout.
pub fn work_dir() -> std::path::PathBuf {
    std::path::Path::new("perfbench").join(".work")
}
