//! The one shape every experiment's results take: named tables of typed
//! cells under named, unit-carrying columns.
//!
//! A table is rendered twice, from the same cells: as aligned text through
//! [`TextTable`], each float at its column's precision, and as JSON, each
//! float at shortest round-trip precision and each string through the
//! profiler's [`json_string`]. The JSON is exact, so the two-pass check in
//! `main` compares it byte for byte and sees a value move by one ulp.

use gaudi_profiler::chrome::json_string;
use gaudi_profiler::report::TextTable;

/// A column: its JSON name, its unit (empty for labels and plain counts)
/// and the decimals a float cell prints with in the text.
#[derive(Clone, Copy, Debug)]
pub struct Column {
    pub name: &'static str,
    pub unit: &'static str,
    pub precision: usize,
}

/// Shorthand for a [`Column`].
pub const fn col(name: &'static str, unit: &'static str, precision: usize) -> Column {
    Column {
        name,
        unit,
        precision,
    }
}

/// One cell of a [`Table`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Int(u64),
    Float(f64),
    Text(String),
    Bool(bool),
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as u64)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Int(n)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl Value {
    fn text(&self, precision: usize) -> String {
        match self {
            Value::Int(n) => n.to_string(),
            Value::Float(x) => format!("{x:.precision$}"),
            Value::Text(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
        }
    }

    /// The cell as a JSON value. `{:?}` prints the shortest decimal that
    /// parses back to the same `f64`, always with a `.` or an exponent.
    fn json(&self) -> String {
        match self {
            Value::Int(n) => n.to_string(),
            Value::Float(x) => format!("{x:?}"),
            Value::Text(s) => json_string(s),
            Value::Bool(b) => b.to_string(),
        }
    }
}

/// A named table of typed rows.
#[derive(Debug)]
pub struct Table {
    name: &'static str,
    columns: Vec<Column>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    pub fn new(name: &'static str, columns: impl IntoIterator<Item = Column>) -> Self {
        Table {
            name,
            columns: columns.into_iter().collect(),
            rows: Vec::new(),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Append a row, one cell per column. A non-finite float panics: JSON
    /// has no NaN or infinity, and a measured value that is not a number
    /// is a bug in the experiment.
    pub fn row(&mut self, cells: impl IntoIterator<Item = Value>) {
        let row: Vec<Value> = cells.into_iter().collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "table '{}': row arity mismatch",
            self.name
        );
        for (c, v) in self.columns.iter().zip(&row) {
            if let Value::Float(x) = v {
                assert!(
                    x.is_finite(),
                    "table '{}', column '{}': {x} is not finite",
                    self.name,
                    c.name
                );
            }
        }
        self.rows.push(row);
    }

    /// The table as aligned text: `name (unit)` headers, floats at each
    /// column's precision.
    pub fn text(&self) -> String {
        let headers: Vec<String> = self
            .columns
            .iter()
            .map(|c| match c.unit {
                "" => c.name.to_string(),
                unit => format!("{} ({unit})", c.name),
            })
            .collect();
        let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = TextTable::new(&headers);
        for row in &self.rows {
            let cells: Vec<String> = self
                .columns
                .iter()
                .zip(row)
                .map(|(c, v)| v.text(c.precision))
                .collect();
            t.row(&cells);
        }
        t.render()
    }

    fn json(&self) -> String {
        let columns: Vec<String> = self
            .columns
            .iter()
            .map(|c| {
                format!(
                    r#"        {{"name": {}, "unit": {}}}"#,
                    json_string(c.name),
                    json_string(c.unit)
                )
            })
            .collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(Value::json).collect();
                format!("        [{}]", cells.join(", "))
            })
            .collect();
        format!(
            "    {{\n      \"name\": {},\n      \"columns\": [\n{}\n      ],\n      \
             \"rows\": [\n{}\n      ]\n    }}",
            json_string(self.name),
            columns.join(",\n"),
            rows.join(",\n")
        )
    }
}

/// One experiment's tables as one JSON document:
/// `{"experiment", "tables": [{"name", "columns": [{"name", "unit"}], "rows"}]}`,
/// each row an array of cells in column order.
pub fn json(experiment: &str, tables: &[Table]) -> String {
    let tables: Vec<String> = tables.iter().map(Table::json).collect();
    format!(
        "{{\n  \"experiment\": {},\n  \"tables\": [\n{}\n  ]\n}}\n",
        json_string(experiment),
        tables.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(
            "cells",
            [
                col("label", "", 0),
                col("count", "", 0),
                col("latency", "ms", 2),
                col("ok", "", 0),
            ],
        );
        t.row([
            Value::from("a \"quoted\" \\ path"),
            7usize.into(),
            0.1256.into(),
            true.into(),
        ]);
        t.row(["b".into(), 12u64.into(), 1234.5678.into(), false.into()]);
        t
    }

    #[test]
    fn text_is_the_text_table_of_the_cells_at_each_precision() {
        let mut expected = TextTable::new(&["label", "count", "latency (ms)", "ok"]);
        expected.row(&[
            "a \"quoted\" \\ path".into(),
            "7".into(),
            "0.13".into(),
            "true".into(),
        ]);
        expected.row(&["b".into(), "12".into(), "1234.57".into(), "false".into()]);
        assert_eq!(sample().text(), expected.render());
    }

    #[test]
    fn json_escapes_text_and_writes_every_cell_kind() {
        let expected = r#"{
  "experiment": "demo",
  "tables": [
    {
      "name": "cells",
      "columns": [
        {"name": "label", "unit": ""},
        {"name": "count", "unit": ""},
        {"name": "latency", "unit": "ms"},
        {"name": "ok", "unit": ""}
      ],
      "rows": [
        ["a \"quoted\" \\ path", 7, 0.1256, true],
        ["b", 12, 1234.5678, false]
      ]
    }
  ]
}
"#;
        assert_eq!(json("demo", &[sample()]), expected);
    }

    #[test]
    fn every_rendered_float_parses_back_to_the_same_bits() {
        let third = 1.0 / 3.0;
        let next_after_one = f64::from_bits(1.0f64.to_bits() + 1);
        for x in [
            0.1,
            1e-7,
            1e21,
            -0.0,
            0.0,
            1.0,
            third,
            next_after_one,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            -1234.5678,
        ] {
            let rendered = Value::from(x).json();
            let back: f64 = rendered.parse().expect("a JSON float parses");
            assert_eq!(back.to_bits(), x.to_bits(), "{x:?} rendered as {rendered}");
        }
    }

    #[test]
    #[should_panic(expected = "is not finite")]
    fn a_non_finite_float_is_refused() {
        let mut t = Table::new("cells", [col("x", "", 0)]);
        t.row([f64::NAN.into()]);
    }
}
