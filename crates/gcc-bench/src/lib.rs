//! Shared harness utilities for the table/figure regeneration binaries.
//!
//! Every binary accepts the `GCC_SCENE_SCALE` environment variable
//! (default noted per binary) so experiments can be run larger or smaller
//! than the default repro scale; see `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf_gate;

use gcc_scene::{Scene, SceneConfig, ScenePreset};

/// Default scene scale for the bench binaries (relative to the presets'
/// base counts, themselves ~1/10 of the paper's model sizes at 1/7 the
/// paper's pixel count — the calibrated repro scale of `DESIGN.md` §7).
pub const DEFAULT_BENCH_SCALE: f32 = 1.0;

/// Builds a preset scene at the env-configured scale.
pub fn bench_scene(preset: ScenePreset) -> Scene {
    preset.build(&SceneConfig::from_env(DEFAULT_BENCH_SCALE))
}

/// Default output path for a bench artifact (`BENCH_frame.json`): the
/// repository root, resolved from this crate's compile-time manifest
/// directory, so the harness writes the same file no matter which
/// subdirectory it is launched from. Falls
/// back to the working directory when the build tree no longer exists
/// (e.g. a binary copied to another machine) — CI and scripts that need
/// full control pass `--out` instead.
pub fn default_artifact_path(file_name: &str) -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if root.join("Cargo.toml").is_file() {
        root.canonicalize().unwrap_or(root).join(file_name)
    } else {
        std::path::PathBuf::from(file_name)
    }
}

/// Simple fixed-width table printer for bench output.
#[derive(Debug, Default)]
pub struct TablePrinter {
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a row of cells.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.rows.iter().map(Vec::len).max().unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{:>w$}", c, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a count with thousands separators.
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Geometric mean of a sequence of positive values.
///
/// # Panics
///
/// Panics if any value is non-positive.
// A summary statistic of measured results, on no render path.
#[allow(clippy::disallowed_methods)]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_count_inserts_separators() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1,000");
        assert_eq!(fmt_count(1_234_567), "1,234,567");
    }

    #[test]
    fn geomean_matches_hand_computation() {
        let g = geomean(&[2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn artifact_path_is_anchored_at_the_workspace_root() {
        // In the build tree the path must resolve to the workspace root
        // (where ROADMAP.md lives), independent of the working directory.
        let p = default_artifact_path("BENCH_test.json");
        assert!(p.is_absolute(), "{p:?} not anchored");
        assert!(p.parent().unwrap().join("ROADMAP.md").is_file());
        assert_eq!(p.file_name().unwrap(), "BENCH_test.json");
    }

    #[test]
    fn table_aligns_columns() {
        let mut t = TablePrinter::new();
        t.row(["a", "bbbb"]).row(["cc", "d"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0].len(), lines[1].len());
    }
}
