//! Machine-readable benchmark records.
//!
//! Every paper-table bin can dump a `BENCH_<name>.json` next to its pretty
//! console table: one record per (method, sweep-cell) with the cell's F1
//! summary and wall-clock time. CI runs the tiny preset on every push and
//! uploads the JSON, so the performance trajectory of the repo is recorded
//! alongside the accuracy trajectory.
//!
//! The schema is deliberately flat:
//!
//! ```json
//! {
//!   "bench": "table3",
//!   "meta": {"scale": "tiny", "seed": "42", ...},
//!   "cells": [
//!     {"method": "Iter-MPMD", "cell": "5", "f1_mean": 0.61,
//!      "f1_std": 0.02, "wall_ms": 153.2},
//!     ...
//!   ]
//! }
//! ```
//!
//! The writer emits the JSON by hand: the schema is four fields, and the
//! workspace has no JSON crate.

use eval::MetricSummary;
use std::path::PathBuf;
use std::time::Duration;

/// One (method, sweep-cell) measurement.
#[derive(Debug, Clone)]
struct CellRecord {
    method: String,
    cell: String,
    f1_mean: f64,
    f1_std: f64,
    wall_ms: f64,
}

/// Collects cell measurements for one bench bin and writes
/// `BENCH_<name>.json`.
#[derive(Debug, Clone)]
pub struct BenchRecorder {
    name: String,
    meta: Vec<(String, String)>,
    cells: Vec<CellRecord>,
}

impl BenchRecorder {
    /// A recorder for the bin called `name` (e.g. `"table3"`).
    pub fn new(name: impl Into<String>) -> Self {
        BenchRecorder {
            name: name.into(),
            meta: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Attaches a key/value annotation (scale, seed, thread budget, …).
    pub fn annotate(&mut self, key: impl Into<String>, value: impl ToString) {
        self.meta.push((key.into(), value.to_string()));
    }

    /// Records one cell: the method's F1 summary and the wall-clock time of
    /// producing it.
    pub fn record(
        &mut self,
        method: impl Into<String>,
        cell: impl ToString,
        f1: MetricSummary,
        wall: Duration,
    ) {
        self.cells.push(CellRecord {
            method: method.into(),
            cell: cell.to_string(),
            f1_mean: f1.mean,
            f1_std: f1.std,
            wall_ms: wall.as_secs_f64() * 1e3,
        });
    }

    /// Number of recorded cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The JSON document for the current state.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": {},\n", json_str(&self.name)));
        out.push_str("  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_str(k), json_str(v)));
        }
        out.push_str("},\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"method\": {}, \"cell\": {}, \"f1_mean\": {}, \"f1_std\": {}, \"wall_ms\": {}}}{}\n",
                json_str(&c.method),
                json_str(&c.cell),
                json_num(c.f1_mean),
                json_num(c.f1_std),
                json_num(c.wall_ms),
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `BENCH_<name>.json` into the current directory and returns
    /// its path.
    ///
    /// # Errors
    /// Propagates the underlying [`std::fs::write`] failure.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        self.write_to(std::path::Path::new("."))
    }

    /// Writes `BENCH_<name>.json` into `dir` and returns its path.
    ///
    /// # Errors
    /// Propagates the underlying [`std::fs::write`] failure.
    fn write_to(&self, dir: &std::path::Path) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Minimal JSON string escape: quotes, backslashes, control characters.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number — non-finite values (a NaN F1 from a degenerate cell) become
/// `null` rather than invalid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(mean: f64, std: f64) -> MetricSummary {
        MetricSummary { mean, std }
    }

    #[test]
    fn json_document_shape() {
        let mut r = BenchRecorder::new("table9");
        r.annotate("scale", "tiny");
        r.record(
            "Iter-MPMD",
            5,
            summary(0.5, 0.01),
            Duration::from_millis(120),
        );
        r.record(
            "SVM-MP",
            "60%",
            summary(0.25, 0.0),
            Duration::from_millis(80),
        );
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"table9\""));
        assert!(json.contains("\"scale\": \"tiny\""));
        assert!(json.contains("\"method\": \"Iter-MPMD\""));
        assert!(json.contains("\"cell\": \"5\""));
        assert!(json.contains("\"cell\": \"60%\""));
        assert!(json.contains("\"f1_mean\": 0.5"));
        assert!(json.contains("\"wall_ms\": 120"));
        // Exactly one trailing comma structure: last cell has none.
        assert!(!json.contains("}},\n  ]"));
    }

    #[test]
    fn nan_becomes_null() {
        let mut r = BenchRecorder::new("x");
        r.record("m", "c", summary(f64::NAN, 0.0), Duration::ZERO);
        assert!(r.to_json().contains("\"f1_mean\": null"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("Ψ[P1×P2]"), "\"Ψ[P1×P2]\"");
    }

    #[test]
    fn writes_file_to_disk() {
        let dir = std::env::temp_dir().join("bench_record_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut r = BenchRecorder::new("unit");
        r.record("m", 1, summary(1.0, 0.0), Duration::from_millis(5));
        let path = r.write_to(&dir).unwrap();
        assert!(path.ends_with("BENCH_unit.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"bench\": \"unit\""));
    }
}
