//! The one writer: every experiment's tables go to stdout as markdown
//! and to `target/experiments/<experiment>.json` as one record that
//! names the axes it ran at.

use crate::ExpConfig;
use mars_json::Json;
use std::fmt;

/// One table cell.
#[derive(Clone, Debug)]
pub(crate) enum Cell {
    /// Printed and recorded as is.
    Text(String),
    /// A measured number: recorded at full precision (`null` when
    /// absent), printed with this many decimals (`-` when absent).
    Num(Option<f64>, usize),
    /// A best per-step time in seconds: recorded as [`Cell::Num`],
    /// printed with three decimals, or `OOM` when no seed found a
    /// placement.
    Best(Option<f64>),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            // A value that rounds to zero prints as `0.0`, never `-0.0`.
            Cell::Num(Some(v), digits) => {
                let s = format!("{v:.digits$}");
                let zero = s.parse::<f64>() == Ok(0.0);
                f.write_str(if zero { s.trim_start_matches('-') } else { &s })
            }
            Cell::Num(None, _) => f.write_str("-"),
            Cell::Best(Some(v)) => Cell::Num(Some(*v), 3).fmt(f),
            Cell::Best(None) => f.write_str("OOM"),
        }
    }
}

impl Cell {
    fn to_json(&self) -> Json {
        match self {
            Cell::Text(s) => Json::from(s),
            Cell::Num(v, _) | Cell::Best(v) => Json::from(*v),
        }
    }
}

/// A titled table of rows of cells. The markdown prints the leading
/// columns; the JSON record keeps every column.
pub struct Table {
    title: String,
    header: Vec<&'static str>,
    printed: usize,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table that prints every column of `header`.
    pub(crate) fn new(title: impl Into<String>, header: &[&'static str]) -> Table {
        Table::with_recorded(title, header, &[])
    }

    /// An empty table whose `recorded` columns, after the printed
    /// `header`, go to the JSON record only: provenance the paper's
    /// table does not show, such as a source workload.
    pub(crate) fn with_recorded(
        title: impl Into<String>,
        header: &[&'static str],
        recorded: &[&'static str],
    ) -> Table {
        Table {
            title: title.into(),
            header: [header, recorded].concat(),
            printed: header.len(),
            rows: Vec::new(),
        }
    }

    /// Append a row with one cell per column.
    pub(crate) fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.header.len(), "row width of '{}'", self.title);
        self.rows.push(row);
    }

    /// The printed columns as a markdown table under a `###` title,
    /// framed by blank lines.
    fn markdown(&self) -> String {
        let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
        let mut out = format!("\n### {}\n\n", self.title);
        out += &line(self.header[..self.printed].iter().map(|h| h.to_string()).collect());
        out += &format!("|{}|\n", vec!["---"; self.printed].join("|"));
        for row in &self.rows {
            out += &line(row[..self.printed].iter().map(Cell::to_string).collect());
        }
        out + "\n"
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("title", Json::from(&self.title)),
            ("header", Json::from(self.header.clone())),
            ("rows", Json::arr(self.rows.iter().map(|r| Json::arr(r.iter().map(Cell::to_json))))),
        ])
    }
}

/// The JSON record of one experiment: its name, the axes it ran at
/// and every table with every column.
pub(crate) fn record(experiment: &str, cfg: &ExpConfig, tables: &[Table]) -> Json {
    Json::obj([
        ("experiment", Json::from(experiment)),
        ("profile", Json::from(cfg.profile.name())),
        ("budget", Json::from(cfg.budget)),
        ("seed", Json::from(cfg.seed)),
        ("seeds", Json::from(cfg.seeds)),
        ("tables", Json::arr(tables.iter().map(Table::to_json))),
    ])
}

/// `target/experiments` under the workspace root: the records and the
/// cells files.
pub fn experiments_dir() -> std::path::PathBuf {
    crate::harness::workspace_path("target/experiments")
}

/// Print every table as markdown and write the experiment's JSON
/// record (its name, its axes, every table with every column) to
/// `target/experiments/<experiment>.json` under the workspace root.
pub fn write(experiment: &str, cfg: &ExpConfig, tables: &[Table]) -> std::io::Result<()> {
    for t in tables {
        print!("{}", t.markdown());
    }
    let dir = experiments_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("{experiment}.json")),
        record(experiment, cfg, tables).pretty(),
    )?;
    println!("(wrote target/experiments/{experiment}.json)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_prints_the_leading_columns_and_json_keeps_all() {
        let mut t = Table::with_recorded("T", &["A", "B"], &["src"]);
        t.push(vec![Cell::Text("x".into()), Cell::Num(Some(0.06749), 3), Cell::Num(Some(4.0), 0)]);
        t.push(vec![Cell::Text("y".into()), Cell::Num(None, 3), Cell::Text("vgg16".into())]);
        assert_eq!(t.markdown(), "\n### T\n\n| A | B |\n|---|---|\n| x | 0.067 |\n| y | - |\n\n");
        assert_eq!(
            t.to_json().to_string(),
            r#"{"title":"T","header":["A","B","src"],"rows":[["x",0.06749,4],["y",null,"vgg16"]]}"#
        );
    }

    #[test]
    fn a_best_time_is_a_number_or_oom() {
        let mut t = Table::new("T", &["A", "B"]);
        t.push(vec![Cell::Text("x".into()), Cell::Best(Some(0.5))]);
        t.push(vec![Cell::Text("y".into()), Cell::Best(None)]);
        assert_eq!(t.markdown(), "\n### T\n\n| A | B |\n|---|---|\n| x | 0.500 |\n| y | OOM |\n\n");
        assert_eq!(
            t.to_json().to_string(),
            r#"{"title":"T","header":["A","B"],"rows":[["x",0.5],["y",null]]}"#
        );
    }

    #[test]
    fn a_value_that_rounds_to_zero_prints_without_a_sign() {
        assert_eq!(Cell::Num(Some(-0.01), 1).to_string(), "0.0");
        assert_eq!(Cell::Num(Some(-0.0), 2).to_string(), "0.00");
        assert_eq!(Cell::Num(Some(-0.4), 0).to_string(), "0");
        assert_eq!(Cell::Num(Some(-0.05), 1).to_string(), "-0.1");
        assert_eq!(Cell::Num(Some(-3.0), 1).to_string(), "-3.0");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn a_row_of_the_wrong_width_is_a_bug() {
        Table::new("T", &["A", "B"]).push(vec![Cell::Text("x".into())]);
    }
}
