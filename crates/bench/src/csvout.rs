//! CSV output: to stdout and mirrored into `results/`.
//!
//! A figure whose measurement includes wall-clock time splits it off:
//! the deterministic columns go to `results/<name>.csv`, which is
//! committed and regenerated byte-identical by CI, and the clock
//! columns to `results/<name>.clock.csv`, which differs on every run
//! and is not committed.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// A CSV sink writing to `results/<name>.csv` and, unless it holds
/// clock columns, to stdout.
pub struct Csv {
    file: Option<fs::File>,
    echo: bool,
}

impl Csv {
    /// Open (and truncate) `results/<name>.csv`; failures to create the
    /// directory degrade to stdout-only output.
    pub fn create(name: &str) -> Csv {
        Csv {
            file: Self::open(&format!("{name}.csv")),
            echo: true,
        }
    }

    /// Open (and truncate) `results/<name>.clock.csv` for the figure's
    /// wall-clock columns; its rows are not echoed to stdout.
    pub fn clocks(name: &str) -> Csv {
        Csv {
            file: Self::open(&format!("{name}.clock.csv")),
            echo: false,
        }
    }

    fn open(file: &str) -> Option<fs::File> {
        let dir = PathBuf::from("results");
        fs::create_dir_all(&dir)
            .ok()
            .and_then(|()| fs::File::create(dir.join(file)).ok())
    }

    /// Emit one CSV row.
    pub fn row(&mut self, cols: &[String]) {
        let line = cols.join(",");
        if self.echo {
            println!("{line}");
        }
        if let Some(f) = self.file.as_mut() {
            let _ = writeln!(f, "{line}");
        }
    }

    /// Emit a header row.
    pub fn header(&mut self, cols: &[&str]) {
        self.row(
            &cols
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>(),
        );
    }
}

/// Format a float with fixed precision for CSV cells.
pub fn f(v: f64) -> String {
    format!("{v:.6}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.5), "0.500000");
        assert_eq!(f(1.0 / 3.0), "0.333333");
    }
}
