//! Result emission helpers shared by every experiment binary.

use egeria_obs::jsonl::{to_string_pretty, ToJson};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The directory experiment outputs land in (`results/` at the repo root,
/// overridable with `EGERIA_RESULTS_DIR`).
pub struct ResultsDir(PathBuf);

impl ResultsDir {
    /// Resolves (and creates) the results directory.
    pub fn resolve() -> std::io::Result<Self> {
        let dir = std::env::var("EGERIA_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        fs::create_dir_all(&dir)?;
        Ok(ResultsDir(dir))
    }

    /// A path inside the results directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

/// Writes rows as CSV with a header line; also echoes the table to stdout
/// so a bare `cargo run` shows the figure's data.
pub fn write_csv(path: &Path, header: &str, rows: &[String]) -> std::io::Result<()> {
    let mut f = fs::File::create(path)?;
    writeln!(f, "{header}")?;
    println!("{header}");
    for r in rows {
        writeln!(f, "{r}")?;
        println!("{r}");
    }
    println!("-> wrote {}", path.display());
    Ok(())
}

/// Writes a value as pretty JSON (two-space indent, the `egeria_obs::jsonl`
/// writer's layout).
pub fn write_json(path: &Path, value: &impl ToJson) -> std::io::Result<()> {
    fs::write(path, to_string_pretty(value))?;
    println!("-> wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join(format!("egeria_runner_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.csv");
        write_csv(&p, "a,b", &["1,2".into(), "3,4".into()]).unwrap();
        let s = fs::read_to_string(&p).unwrap();
        assert_eq!(s.lines().count(), 3);
        assert!(s.starts_with("a,b"));
    }

    #[test]
    fn json_writes_serializable() {
        let dir = std::env::temp_dir().join(format!("egeria_runner_j_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.json");
        write_json(&p, &vec![1u32, 2, 3]).unwrap();
        assert_eq!(fs::read_to_string(&p).unwrap(), "[\n  1,\n  2,\n  3\n]");
    }
}
