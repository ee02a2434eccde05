//! Collects metrics and correctness checks, prints them, and ends with
//! the one-line JSON result.

use mandipass_util::json::Value;

use crate::stats::Figure;

/// One printed metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// The run's metrics, checks and request counts.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    checks: Vec<(String, bool, String)>,
    notes: Vec<String>,
    /// Operations issued in the measured phases.
    pub attempted: u64,
    /// Operations that failed (transport errors, timeouts, sheds,
    /// service errors).
    pub failed: u64,
}

impl Report {
    /// Adds a metric with a free-text note (sample count, base).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Adds a quantile figure, labelled with its percentile and n.
    pub fn figure(&mut self, name: &str, figure: Figure, unit: &'static str) {
        self.metric(name, figure.value, unit, figure.label());
    }

    /// Prints a figure that is reported but not a metric of the result
    /// line: high-load latencies, tails and set-up-only samples spread
    /// too much from run to run on a shared machine to carry a bound.
    pub fn unbounded(&mut self, name: &str, figure: Figure, unit: &str) {
        self.note(format!("{name} = {}", figure.describe(unit)));
    }

    /// Records a correctness check; any failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Adds an informational line to the printed report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Prints notes, checks and metrics, then the result line as the
    /// last line of standard output.
    pub fn print(&self) {
        for line in &self.notes {
            println!("# {line}");
        }
        for (name, ok, detail) in &self.checks {
            println!(
                "check {:<28} {}  {detail}",
                name,
                if *ok { "ok" } else { "FAILED" }
            );
        }
        for m in &self.metrics {
            println!(
                "metric {:<40} {:>14.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Number(m.value)),
                        ("unit".to_string(), Value::String(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        let result = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            (
                "attempted".to_string(),
                Value::Number(self.attempted as f64),
            ),
            ("failed".to_string(), Value::Number(self.failed as f64)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        println!("{}", result.to_json());
    }
}
