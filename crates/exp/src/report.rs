//! The structured result of one scenario run.
//!
//! Every scenario returns an [`ExpReport`]: a claim, an echo of the
//! parameters it ran with, and a list of sections holding key/value
//! facts and tables. The report has two renderings:
//!
//! - [`ExpReport::to_json`] — the machine-readable form the golden
//!   snapshots and `expctl --json` emit (deterministic bytes);
//! - [`ExpReport::render_text`] — the human table `expctl` prints, a
//!   pure formatter over the same data.

use crate::jsonout::Json;
use crate::registry::RunCtx;

/// Outcome of a scenario run.
#[derive(Clone, Debug, PartialEq)]
pub enum ExpStatus {
    /// The scenario ran to completion.
    Ok,
    /// The scenario declined to run (degenerate parameters, empty
    /// inputs). Preferred over panicking deep inside experiment code.
    Skipped {
        /// Why the scenario refused.
        reason: String,
    },
}

/// One table inside a section: named columns, rows of JSON cells.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Json>>,
}

impl Table {
    /// A table with the given column names and no rows yet.
    pub fn new(columns: &[&str]) -> Table {
        Table {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; must match the column count.
    pub fn push(&mut self, row: Vec<Json>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} != {} columns",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }
}

/// One titled section of a report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Section {
    pub title: String,
    /// Scalar facts, rendered as `key: value` lines.
    pub facts: Vec<(String, Json)>,
    pub tables: Vec<Table>,
    /// Free-text interpretation ("reading: ..."), empty when absent.
    pub note: String,
}

impl Section {
    pub fn new(title: impl Into<String>) -> Section {
        Section {
            title: title.into(),
            ..Section::default()
        }
    }

    pub fn fact(mut self, key: impl Into<String>, value: impl Into<Json>) -> Section {
        self.facts.push((key.into(), value.into()));
        self
    }

    pub fn table(mut self, table: Table) -> Section {
        self.tables.push(table);
        self
    }

    pub fn note(mut self, note: impl Into<String>) -> Section {
        self.note = note.into();
        self
    }
}

/// The full structured result of one scenario run.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpReport {
    /// Registry id, e.g. `"e10"`.
    pub scenario: String,
    /// Short machine name, e.g. `"robustness"`.
    pub name: String,
    /// Human title, e.g. `"E10: random failure vs targeted attack"`.
    pub title: String,
    /// The paper claim the scenario tests.
    pub claim: String,
    /// Base seed the run derived all randomness from.
    pub seed: u64,
    /// Scale label ("golden" / "full").
    pub scale: String,
    /// Echo of the effective parameters.
    pub params: Vec<(String, Json)>,
    pub status: ExpStatus,
    pub sections: Vec<Section>,
}

impl ExpReport {
    /// An empty `Ok` report ready for sections, stamped with the run's
    /// seed and scale so even a later-skipped report records which run
    /// it refused.
    pub fn new(
        scenario: impl Into<String>,
        name: impl Into<String>,
        title: impl Into<String>,
        claim: impl Into<String>,
        ctx: &RunCtx,
    ) -> ExpReport {
        ExpReport {
            scenario: scenario.into(),
            name: name.into(),
            title: title.into(),
            claim: claim.into(),
            seed: ctx.seed,
            scale: ctx.scale.label().into(),
            params: Vec::new(),
            status: ExpStatus::Ok,
            sections: Vec::new(),
        }
    }

    /// Marks this report as declined-to-run, keeping the id, seed,
    /// scale, and parameter echo already recorded — so a skipped JSON
    /// report still says exactly which run was refused and why.
    pub fn into_skipped(mut self, reason: impl Into<String>) -> ExpReport {
        self.status = ExpStatus::Skipped {
            reason: reason.into(),
        };
        self
    }

    pub fn param(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        self.params.push((key.into(), value.into()));
    }

    pub fn section(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// The machine-readable form. Field order is fixed, so serialization
    /// is byte-deterministic for equal reports.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("scenario".into(), Json::str(&self.scenario)),
            ("name".into(), Json::str(&self.name)),
            ("title".into(), Json::str(&self.title)),
            ("claim".into(), Json::str(&self.claim)),
            ("seed".into(), Json::from(self.seed)),
            ("scale".into(), Json::str(&self.scale)),
            (
                "status".into(),
                match &self.status {
                    ExpStatus::Ok => Json::str("ok"),
                    ExpStatus::Skipped { .. } => Json::str("skipped"),
                },
            ),
        ];
        if let ExpStatus::Skipped { reason } = &self.status {
            fields.push(("skip_reason".into(), Json::str(reason)));
        }
        fields.push(("params".into(), Json::Obj(self.params.clone())));
        fields.push((
            "sections".into(),
            Json::Arr(
                self.sections
                    .iter()
                    .map(|s| {
                        let mut sec: Vec<(String, Json)> =
                            vec![("title".into(), Json::str(&s.title))];
                        if !s.facts.is_empty() {
                            sec.push(("facts".into(), Json::Obj(s.facts.clone())));
                        }
                        if !s.tables.is_empty() {
                            sec.push((
                                "tables".into(),
                                Json::Arr(
                                    s.tables
                                        .iter()
                                        .map(|t| {
                                            Json::obj([
                                                (
                                                    "columns",
                                                    Json::Arr(
                                                        t.columns.iter().map(Json::str).collect(),
                                                    ),
                                                ),
                                                (
                                                    "rows",
                                                    Json::Arr(
                                                        t.rows
                                                            .iter()
                                                            .map(|r| Json::Arr(r.clone()))
                                                            .collect(),
                                                    ),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ));
                        }
                        if !s.note.is_empty() {
                            sec.push(("note".into(), Json::str(&s.note)));
                        }
                        Json::Obj(sec)
                    })
                    .collect(),
            ),
        ));
        Json::Obj(fields)
    }

    /// The human rendering: banner, parameter echo, sections with
    /// aligned tables — the format `expctl` prints.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let rule = "==============================================================";
        out.push_str(rule);
        out.push('\n');
        out.push_str(&self.title);
        out.push('\n');
        if !self.claim.is_empty() {
            out.push_str("paper claim: ");
            out.push_str(&self.claim);
            out.push('\n');
        }
        out.push_str(rule);
        out.push('\n');
        if !self.params.is_empty() {
            let cells: Vec<String> = self
                .params
                .iter()
                .map(|(k, v)| format!("{}={}", k, cell_text(v)))
                .collect();
            out.push_str(&format!(
                "scale: {} | seed: {} | {}\n",
                self.scale,
                self.seed,
                cells.join(" ")
            ));
        }
        if let ExpStatus::Skipped { reason } = &self.status {
            out.push_str("SKIPPED: ");
            out.push_str(reason);
            out.push('\n');
            return out;
        }
        for s in &self.sections {
            out.push('\n');
            out.push_str(&format!("--- {} ---\n", s.title));
            for (k, v) in &s.facts {
                out.push_str(&format!("{}: {}\n", k, cell_text(v)));
            }
            for t in &s.tables {
                out.push_str(&render_table(t));
            }
            if !s.note.is_empty() {
                out.push_str(&format!("reading: {}\n", s.note));
            }
        }
        out
    }
}

/// Compact cell formatting shared by the human tables (the former
/// `hot_bench::fmt` convention for floats).
fn cell_text(v: &Json) -> String {
    match v {
        Json::Null => "-".into(),
        Json::Bool(b) => b.to_string(),
        Json::Int(i) => i.to_string(),
        Json::UInt(u) => u.to_string(),
        Json::Float(f) => fmt_f64(*f),
        Json::Str(s) => s.clone(),
        Json::Arr(items) => {
            let cells: Vec<String> = items.iter().map(cell_text).collect();
            format!("[{}]", cells.join(" "))
        }
        Json::Obj(_) => v.compact(),
    }
}

/// Formats a float compactly for table cells.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        "-".into()
    } else if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{:.0}", v)
    } else if v.abs() >= 10.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.3}", v)
    }
}

fn render_table(t: &Table) -> String {
    let mut widths: Vec<usize> = t.columns.iter().map(|c| c.len()).collect();
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| r.iter().map(cell_text).collect())
        .collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], out: &mut String| {
        let formatted: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let w = widths.get(i).copied().unwrap_or(c.len());
                if i == 0 {
                    format!("{:<w$}", c, w = w)
                } else {
                    format!("{:>w$}", c, w = w)
                }
            })
            .collect();
        out.push_str(formatted.join("  ").trim_end());
        out.push('\n');
    };
    render_row(&t.columns, &mut out);
    for row in &rows {
        render_row(row, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Scale;

    fn ctx(seed: u64, scale: Scale) -> RunCtx {
        RunCtx {
            scale,
            seed,
            threads: 1,
            snapshot_dir: None,
        }
    }

    fn sample() -> ExpReport {
        let mut r = ExpReport::new(
            "e0",
            "sample",
            "E0: sample",
            "claims are testable",
            &ctx(7, Scale::Golden),
        );
        r.param("n", 10usize);
        let mut t = Table::new(&["name", "value"]);
        t.push(vec![Json::str("alpha"), Json::Float(0.5)]);
        t.push(vec![Json::str("long-name-row"), Json::Int(12345)]);
        r.section(
            Section::new("numbers")
                .fact("connected", true)
                .table(t)
                .note("the table is aligned"),
        );
        r
    }

    #[test]
    fn json_shape_and_determinism() {
        let a = sample().to_json().pretty();
        let b = sample().to_json().pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"scenario\": \"e0\""));
        assert!(a.contains("\"status\": \"ok\""));
        assert!(a.contains("\"columns\""));
        assert!(!a.contains("skip_reason"));
    }

    #[test]
    fn skipped_reports_keep_metadata_and_carry_the_reason() {
        let mut r = ExpReport::new("e1", "x", "E1", "c", &ctx(99, Scale::Full));
        r.param("n", 1usize);
        let r = r.into_skipped("n < 2");
        let j = r.to_json().pretty();
        assert!(j.contains("\"status\": \"skipped\""));
        assert!(j.contains("\"skip_reason\": \"n < 2\""));
        // Seed, scale, and the params echo survive the skip.
        assert!(j.contains("\"seed\": 99"));
        assert!(j.contains("\"scale\": \"full\""));
        assert!(j.contains("\"n\": 1"));
        let text = r.render_text();
        assert!(text.contains("SKIPPED: n < 2"));
        assert!(text.contains("seed: 99"));
    }

    #[test]
    fn text_renders_banner_sections_and_aligned_table() {
        let text = sample().render_text();
        assert!(text.contains("E0: sample"));
        assert!(text.contains("paper claim: claims are testable"));
        assert!(text.contains("--- numbers ---"));
        assert!(text.contains("connected: true"));
        assert!(text.contains("reading: the table is aligned"));
        // Column alignment: both rows end at the same width for col 2.
        let rows: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("alpha") || l.contains("long-name-row"))
            .collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), rows[1].len());
    }

    #[test]
    fn table_push_checks_width() {
        let mut t = Table::new(&["a", "b"]);
        t.push(vec![Json::Int(1), Json::Int(2)]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn fmt_f64_ranges() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(0.5), "0.500");
        assert_eq!(fmt_f64(25.0), "25.0");
        assert_eq!(fmt_f64(12345.0), "12345");
        assert_eq!(fmt_f64(f64::NAN), "-");
    }
}
