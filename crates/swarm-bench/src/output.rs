//! Experiment report plumbing: every reproduction produces a [`Report`]
//! with human-readable text (including ASCII renderings of the figures)
//! and machine-readable JSON, written under `repro_out/`.

use serde_json::Value;
use std::fmt::Write as _;
use std::path::Path;

/// One experiment's output.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. `fig4`, `table-bundling`, `ablation-zipf`).
    pub id: String,
    /// Human-readable title (paper artifact it regenerates).
    pub title: String,
    /// Rendered text (tables, ASCII charts, commentary).
    pub text: String,
    /// Structured results for downstream tooling and tests.
    pub data: Value,
}

impl Report {
    /// Start a report.
    pub fn new(id: &str, title: &str) -> Self {
        let mut text = String::new();
        let _ = writeln!(text, "==== {id}: {title} ====");
        Report {
            id: id.to_string(),
            title: title.to_string(),
            text,
            data: Value::Null,
        }
    }

    /// Append a text line.
    pub fn line(&mut self, s: impl AsRef<str>) {
        self.text.push_str(s.as_ref());
        self.text.push('\n');
    }

    /// Append a pre-rendered block (charts).
    pub fn block(&mut self, s: impl AsRef<str>) {
        self.text.push_str(s.as_ref());
        if !s.as_ref().ends_with('\n') {
            self.text.push('\n');
        }
    }

    /// Attach the structured payload.
    pub fn set_data(&mut self, data: Value) {
        self.data = data;
    }

    /// The artifact files this report materializes, as
    /// `(file name, contents)` pairs: `<id>.txt` (rendered text) and
    /// `<id>.json` (structured data). Single source of truth for both
    /// [`Report::save`] and the swarm-lab job registry ([`crate::lab`]).
    pub fn artifacts(&self) -> Vec<(String, String)> {
        let json = serde_json::to_string_pretty(&self.data).expect("serializable data");
        vec![
            (format!("{}.txt", self.id), self.text.clone()),
            (format!("{}.json", self.id), json),
        ]
    }

    /// The artifact file names for experiment `id`, without running it
    /// (what the job registry declares up front).
    pub fn artifact_names(id: &str) -> Vec<String> {
        vec![format!("{id}.txt"), format!("{id}.json")]
    }

    /// Write `<id>.txt` and `<id>.json` into `dir` (created if missing).
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, contents) in self.artifacts() {
            std::fs::write(dir.join(name), contents)?;
        }
        Ok(())
    }
}

/// Format a two-column numeric table.
pub fn table2(header: (&str, &str), rows: &[(String, String)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:>16} | {}", header.0, header.1);
    let _ = writeln!(out, "{:->16}-+-{:-<24}", "", "");
    for (a, b) in rows {
        let _ = writeln!(out, "{a:>16} | {b}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_text() {
        let mut r = Report::new("x", "t");
        r.line("hello");
        r.block("block\n");
        assert!(r.text.contains("==== x: t ===="));
        assert!(r.text.contains("hello\n"));
        assert!(r.text.contains("block\n"));
    }

    #[test]
    fn report_saves_files() {
        let dir = std::env::temp_dir().join(format!("swarmsys-report-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut r = Report::new("demo", "demo");
        r.set_data(serde_json::json!({"k": 1}));
        r.save(&dir).unwrap();
        assert!(dir.join("demo.txt").exists());
        let json: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(dir.join("demo.json")).unwrap()).unwrap();
        assert_eq!(json["k"], 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifacts_match_declared_names() {
        let mut r = Report::new("demo", "demo");
        r.set_data(serde_json::json!({"k": 1}));
        let produced: Vec<String> = r.artifacts().into_iter().map(|(n, _)| n).collect();
        assert_eq!(produced, Report::artifact_names("demo"));
    }

    #[test]
    fn table_renders_rows() {
        let t = table2(
            ("K", "E[T]"),
            &[("1".into(), "100".into()), ("2".into(), "90".into())],
        );
        assert!(t.contains('K'));
        assert!(t.lines().count() == 4);
    }
}
