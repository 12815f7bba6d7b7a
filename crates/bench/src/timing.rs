//! Timing helpers and experiment-record I/O for the figure harness.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde_json::Value;

/// Time a closure: one warmup call, then repeated calls until at least
/// `min_millis` of accumulated runtime, returning seconds per call.
pub fn time_per_call<F: FnMut()>(mut f: F, min_millis: u64) -> f64 {
    f(); // warmup
    let budget = std::time::Duration::from_millis(min_millis.max(1));
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < budget {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / calls as f64
}

/// GCUPS from a cell count and seconds.
pub fn gcups(cells: u64, secs: f64) -> f64 {
    if secs <= 0.0 {
        0.0
    } else {
        cells as f64 / secs / 1e9
    }
}

/// One figure's machine-readable record, written by [`write_record`].
pub struct FigureRecord {
    /// Figure identifier ("fig06", ...).
    pub figure: &'static str,
    /// Paper caption paraphrase.
    pub title: &'static str,
    /// Scale the series was produced at.
    pub scale: String,
    /// The data series.
    pub series: Value,
}

impl FigureRecord {
    /// The record as a JSON value (what `write_record` persists).
    pub fn to_value(&self) -> Value {
        let mut map = serde_json::Map::new();
        map.insert("figure".into(), Value::String(self.figure.into()));
        map.insert("title".into(), Value::String(self.title.into()));
        map.insert("scale".into(), Value::String(self.scale.clone()));
        map.insert("series".into(), self.series.clone());
        Value::Object(map)
    }
}

/// Write a figure record as pretty JSON to `dir/<figure>.json`,
/// creating `dir` if needed; returns the path.
pub fn write_record(dir: &Path, rec: &FigureRecord) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", rec.figure));
    std::fs::write(&path, serde_json::to_string_pretty(&rec.to_value())?)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_per_call_positive() {
        let mut x = 0u64;
        let t = time_per_call(
            || {
                for i in 0..1000u64 {
                    x = x.wrapping_add(i);
                }
                std::hint::black_box(x);
            },
            5,
        );
        assert!(t > 0.0);
    }

    #[test]
    fn gcups_zero_guard() {
        assert_eq!(gcups(100, 0.0), 0.0);
        assert!((gcups(2_000_000_000, 1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn record_roundtrip() {
        let dir = std::env::temp_dir().join(format!("swsimd_test_results_{}", std::process::id()));
        let rec = FigureRecord {
            figure: "fig_test",
            title: "test",
            scale: "Quick".into(),
            series: serde_json::json!([1, 2, 3]),
        };
        let path = write_record(&dir, &rec).unwrap();
        assert_eq!(path, dir.join("fig_test.json"));
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("fig_test"));
        assert!(text.contains('1') && text.contains('3'));
        let _ = std::fs::remove_dir_all(dir);
    }
}
