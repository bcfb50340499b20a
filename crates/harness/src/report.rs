//! Experiment reports: a titled table of rows rendered with aligned columns
//! so the harness output reads like the paper's tables, plus a hand-rolled
//! machine-readable JSON form (`--json`). CI requires fresh `quick` and
//! `stress` reports to be byte-identical to the committed `BENCH_*.json`
//! baselines.
//!
//! The JSON support is deliberately serde-free (crates.io is unreachable in
//! this environment): [`json`] contains a minimal writer and a strict
//! recursive-descent parser, the latter doubling as the golden-test checker.

use crate::energy;
use crate::runner::SpeedupGrid;

/// Version tag embedded in every JSON report so downstream tooling can
/// detect schema changes.
///
/// `v2` extends every grid cell of `v1` with the cycle-level timing fields
/// (`instructions`, `cycles`, `avg_mem_latency`) and the nullable
/// core-pipeline fields (`branch_mpki`, `rob_occupancy`). Only `v2` is
/// written.
pub const JSON_SCHEMA: &str = "alecto-bench-v2";

/// A simple column-aligned text table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table from headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header count.
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width must match header width");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Looks up a cell by row label (first column) and column header.
    #[must_use]
    pub fn cell(&self, row_label: &str, column: &str) -> Option<&str> {
        let col = self.headers.iter().position(|h| h == column)?;
        self.rows.iter().find(|r| r[0] == row_label).map(|r| r[col].as_str())
    }

    fn to_json(&self) -> String {
        let headers: Vec<String> = self.headers.iter().map(|h| json::string(h)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| json::array(r.iter().map(|c| json::string(c)).collect()))
            .collect();
        format!("{{\"headers\":{},\"rows\":{}}}", json::array(headers), json::array(rows))
    }
}

/// One benchmark × algorithm cell of a speedup grid, flattened for the JSON
/// report: the speedup plus the quality (accuracy/coverage, Fig. 10) and
/// energy (Fig. 18) metrics CI tracks over time.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Benchmark (or mix) name.
    pub benchmark: String,
    /// Whether the benchmark is in the memory-intensive subset.
    pub memory_intensive: bool,
    /// Algorithm label.
    pub algorithm: String,
    /// Speedup over the no-prefetching baseline.
    pub speedup: f64,
    /// Geomean IPC of the run.
    pub ipc: f64,
    /// Geomean IPC of the no-prefetching baseline — the exact denominator
    /// of `speedup` (`1e-9` for a degenerate baseline that retired
    /// nothing), so `ipc / baseline_ipc` always reproduces `speedup`.
    pub baseline_ipc: f64,
    /// Prefetch accuracy over the run.
    pub accuracy: f64,
    /// Prefetch coverage over the run.
    pub coverage: f64,
    /// Cache-hierarchy + DRAM energy in nJ: the run's L1, L2, L3 and DRAM
    /// accesses at the fixed per-access energies of [`energy::evaluate`].
    pub hierarchy_nj: f64,
    /// Prefetcher-table energy in nJ: the run's prefetcher training
    /// occurrences at the fixed per-access energy of [`energy::evaluate`].
    pub prefetcher_nj: f64,
    /// Total instructions retired across all cores (`v2`).
    pub instructions: u64,
    /// Total simulated cycles — the slowest core's retirement time (`v2`).
    pub cycles: u64,
    /// Average load-to-use latency per demand access, in cycles (`v2`).
    pub avg_mem_latency: f64,
    /// Branch mispredicts per kilo-instruction, instruction-weighted across
    /// cores (`v2`; `None`/JSON `null` under the analytic Approx core model,
    /// which simulates no branches).
    pub branch_mpki: Option<f64>,
    /// Mean ROB occupancy in instructions, instruction-weighted across cores
    /// (`v2`; `None`/JSON `null` under the Approx core model).
    pub rob_occupancy: Option<f64>,
}

/// An optional metric as JSON: the number, or `null` when absent.
fn nullable_number(value: Option<f64>) -> String {
    value.map_or_else(|| "null".to_string(), json::number)
}

impl GridCell {
    fn to_json(&self) -> String {
        format!(
            "{{\"benchmark\":{},\"memory_intensive\":{},\"algorithm\":{},\"speedup\":{},\
             \"ipc\":{},\"baseline_ipc\":{},\"accuracy\":{},\"coverage\":{},\
             \"hierarchy_nj\":{},\"prefetcher_nj\":{},\
             \"instructions\":{},\"cycles\":{},\"avg_mem_latency\":{},\
             \"branch_mpki\":{},\"rob_occupancy\":{}}}",
            json::string(&self.benchmark),
            self.memory_intensive,
            json::string(&self.algorithm),
            json::number(self.speedup),
            json::number(self.ipc),
            json::number(self.baseline_ipc),
            json::number(self.accuracy),
            json::number(self.coverage),
            json::number(self.hierarchy_nj),
            json::number(self.prefetcher_nj),
            self.instructions,
            self.cycles,
            json::number(self.avg_mem_latency),
            nullable_number(self.branch_mpki),
            nullable_number(self.rob_occupancy),
        )
    }
}

/// Flattens a [`SpeedupGrid`] into one [`GridCell`] per benchmark ×
/// algorithm pair, evaluating [`energy::evaluate`] on each report.
#[must_use]
pub fn grid_cells(grid: &SpeedupGrid) -> Vec<GridCell> {
    let mut cells = Vec::new();
    for bench in &grid.benchmarks {
        // Same fallback as the runner's speedup denominator, so the cell
        // stays internally consistent (ipc / baseline_ipc == speedup).
        let baseline_ipc = bench.baseline.geomean_ipc().unwrap_or(1e-9);
        for algo in &bench.algorithms {
            let quality = algo.report.total_quality();
            let energy = energy::evaluate(&algo.report);
            cells.push(GridCell {
                benchmark: bench.benchmark.clone(),
                memory_intensive: bench.memory_intensive,
                algorithm: algo.algorithm.clone(),
                speedup: algo.speedup,
                ipc: algo.report.geomean_ipc().unwrap_or(0.0),
                baseline_ipc,
                accuracy: quality.accuracy(),
                coverage: quality.coverage(),
                hierarchy_nj: energy.hierarchy_nj,
                prefetcher_nj: energy.prefetcher_nj,
                instructions: algo.report.total_instructions(),
                cycles: algo.report.total_cycles(),
                avg_mem_latency: algo.report.avg_mem_latency(),
                branch_mpki: algo.report.avg_branch_mpki(),
                rob_occupancy: algo.report.avg_rob_occupancy(),
            });
        }
    }
    cells
}

/// One regenerated experiment: an id (e.g. `"fig8"`), a descriptive title,
/// the result table, free-form notes comparing against the paper, and (for
/// grid-backed experiments) the raw benchmark × algorithm cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Short identifier matching the paper's numbering (`"fig8"`, `"table3"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The result table.
    pub table: Table,
    /// Notes (e.g. the paper's headline number for the same quantity).
    pub notes: Vec<String>,
    /// Raw grid cells, when the experiment is backed by a speedup grid
    /// (empty for static tables like Table I).
    pub cells: Vec<GridCell>,
}

impl Experiment {
    /// Creates an experiment report.
    #[must_use]
    pub fn new(id: &str, title: &str, table: Table) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            table,
            notes: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Adds a note line.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Attaches the raw cells of `grid` so the JSON report carries full
    /// per-cell metrics, not just the rendered table strings.
    #[must_use]
    pub fn with_grid(mut self, grid: &SpeedupGrid) -> Self {
        self.cells.extend(grid_cells(grid));
        self
    }

    /// Renders the experiment: title, table, then notes.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n{}", self.id, self.title, self.table.render());
        for note in &self.notes {
            out.push_str("note: ");
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"title\":{},\"notes\":{},\"table\":{},\"cells\":{}}}",
            json::string(&self.id),
            json::string(&self.title),
            json::array(self.notes.iter().map(|n| json::string(n)).collect()),
            self.table.to_json(),
            json::array(self.cells.iter().map(GridCell::to_json).collect()),
        )
    }
}

/// Serialises a full harness run — every experiment, in run order — into the
/// `alecto-bench-v2` JSON document written by `alecto-harness --json`.
#[must_use]
pub fn experiments_to_json(experiments: &[Experiment]) -> String {
    format!(
        "{{\"schema\":{},\"experiments\":{}}}\n",
        json::string(JSON_SCHEMA),
        json::array(experiments.iter().map(Experiment::to_json).collect()),
    )
}

pub mod json {
    //! A minimal, dependency-free JSON writer and strict parser.
    //!
    //! The writer covers exactly what the report emitter needs (strings,
    //! numbers, booleans, arrays, objects); the parser accepts any RFC
    //! 8259 document and is used by the golden snapshot tests to verify
    //! that emitted reports are well-formed and carry the expected cells.

    /// A parsed JSON value. Object member order is preserved.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JsonValue {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number (parsed as `f64`).
        Number(f64),
        /// A string (unescaped).
        String(String),
        /// An array.
        Array(Vec<JsonValue>),
        /// An object, as ordered key/value pairs.
        Object(Vec<(String, JsonValue)>),
    }

    impl JsonValue {
        /// Looks up `key` in an object; `None` for non-objects.
        #[must_use]
        pub fn get(&self, key: &str) -> Option<&JsonValue> {
            match self {
                JsonValue::Object(members) => {
                    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
                }
                _ => None,
            }
        }

        /// The elements of an array; `None` for non-arrays.
        #[must_use]
        pub fn as_array(&self) -> Option<&[JsonValue]> {
            match self {
                JsonValue::Array(items) => Some(items),
                _ => None,
            }
        }

        /// The numeric value; `None` for non-numbers.
        #[must_use]
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                JsonValue::Number(n) => Some(*n),
                _ => None,
            }
        }

        /// The string value; `None` for non-strings.
        #[must_use]
        pub fn as_str(&self) -> Option<&str> {
            match self {
                JsonValue::String(s) => Some(s),
                _ => None,
            }
        }

        /// The boolean value; `None` for non-booleans.
        #[must_use]
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                JsonValue::Bool(b) => Some(*b),
                _ => None,
            }
        }
    }

    /// Serialises `s` as a quoted JSON string with the mandatory escapes.
    #[must_use]
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
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

    /// Serialises a finite `f64`; non-finite values (which JSON cannot
    /// represent) become `null` so consumers see them explicitly instead of
    /// getting a corrupt document.
    #[must_use]
    pub fn number(x: f64) -> String {
        if x.is_finite() {
            format!("{x}")
        } else {
            "null".to_string()
        }
    }

    /// Joins pre-serialised elements into a JSON array.
    #[must_use]
    pub fn array(elements: Vec<String>) -> String {
        format!("[{}]", elements.join(","))
    }

    /// Parses a complete JSON document, rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
        if bytes.get(*pos) == Some(&byte) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, *pos))
        }
    }

    /// Deepest array/object nesting [`parse`] accepts. The parser recurses
    /// once per level, so the cap keeps hostile input (a request body of
    /// `[[[[...`) from overflowing the stack; the reports this crate writes
    /// nest 6 levels.
    const MAX_DEPTH: usize = 128;

    /// Parses the value at `*pos`, which sits inside `depth` arrays/objects.
    fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", *pos))
            }
            Some(b'{') => parse_object(bytes, pos, depth + 1),
            Some(b'[') => parse_array(bytes, pos, depth + 1),
            Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
            Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
            Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
            Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
            Some(other) => Err(format!("unexpected byte '{}' at {}", *other as char, *pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_literal(
        bytes: &[u8],
        pos: &mut usize,
        literal: &str,
        value: JsonValue,
    ) -> Result<JsonValue, String> {
        if bytes[*pos..].starts_with(literal.as_bytes()) {
            *pos += literal.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", *pos))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        {
            *pos += 1;
        }
        let text = std::str::from_utf8(&bytes[start..*pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }

    /// Reads the four hex digits of a `\uXXXX` escape; on entry `*pos` is at
    /// the `u`, on exit at the last hex digit.
    fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
        let hex =
            bytes.get(*pos + 1..*pos + 5).ok_or_else(|| "truncated \\u escape".to_string())?;
        let hex = std::str::from_utf8(hex).map_err(|_| "invalid \\u escape".to_string())?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| format!("invalid \\u escape '{hex}'"))?;
        *pos += 4;
        Ok(code)
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let high = parse_hex4(bytes, pos)?;
                            let code = if (0xd800..0xdc00).contains(&high) {
                                // A high surrogate must be followed by a
                                // \uXXXX low surrogate; combine the pair.
                                if bytes.get(*pos + 1..*pos + 3) != Some(br"\u") {
                                    return Err("lone high surrogate".to_string());
                                }
                                *pos += 2;
                                let low = parse_hex4(bytes, pos)?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                0x1_0000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                            } else if (0xdc00..0xe000).contains(&high) {
                                return Err("lone low surrogate".to_string());
                            } else {
                                high
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid scalar U+{code:04X}"))?,
                            );
                        }
                        _ => return Err(format!("invalid escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                // RFC 8259: unescaped control characters are not allowed.
                Some(&b) if b < 0x20 => {
                    return Err(format!("unescaped control character at byte {}", *pos));
                }
                Some(_) => {
                    // Copy the run of bytes up to the next quote, escape or
                    // control character in one step, so a long string costs
                    // linear time. The input is a &str and the run ends at an
                    // ASCII byte, so the run is whole UTF-8 scalars.
                    let start = *pos;
                    while bytes.get(*pos).is_some_and(|&b| b >= 0x20 && b != b'"' && b != b'\\') {
                        *pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&bytes[start..*pos])
                            .map_err(|_| "invalid utf-8 in string".to_string())?,
                    );
                }
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos, depth)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
        expect(bytes, pos, b'{')?;
        let mut members = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            let value = parse_value(bytes, pos, depth)?;
            members.push((key, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::JsonValue;
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["bench", "IPCP", "Alecto"]);
        t.push_row(vec!["mcf", "1.10", "1.20"]);
        t.push_row(vec!["libquantum", "1.50", "1.55"]);
        let s = t.render();
        assert!(s.contains("bench"));
        assert!(s.contains("libquantum"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[3].len());
    }

    #[test]
    fn cell_lookup() {
        let mut t = Table::new(vec!["bench", "Alecto"]);
        t.push_row(vec!["mcf", "1.23"]);
        assert_eq!(t.cell("mcf", "Alecto"), Some("1.23"));
        assert_eq!(t.cell("mcf", "missing"), None);
        assert_eq!(t.cell("lbm", "Alecto"), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["only one"]);
    }

    #[test]
    fn experiment_render_includes_notes() {
        let mut t = Table::new(vec!["metric", "value"]);
        t.push_row(vec!["geomean", "1.05"]);
        let e = Experiment::new("fig8", "Single-core speedup", t)
            .with_note("paper: Alecto > Bandit6 by 3.2%");
        let s = e.render();
        assert!(s.contains("fig8"));
        assert!(s.contains("note: paper"));
    }

    #[test]
    fn json_document_round_trips_through_the_parser() {
        let mut t = Table::new(vec!["bench", "Alecto"]);
        t.push_row(vec!["mcf \"quoted\"", "1.23"]);
        let e = Experiment::new("fig8", "Speedup\nover baseline", t).with_note("note with \\");
        let doc = experiments_to_json(&[e]);
        let parsed = json::parse(&doc).expect("emitted JSON must parse");
        assert_eq!(parsed.get("schema").and_then(JsonValue::as_str), Some(JSON_SCHEMA));
        let experiments = parsed.get("experiments").and_then(JsonValue::as_array).unwrap();
        assert_eq!(experiments.len(), 1);
        assert_eq!(experiments[0].get("id").and_then(JsonValue::as_str), Some("fig8"));
        assert_eq!(
            experiments[0].get("title").and_then(JsonValue::as_str),
            Some("Speedup\nover baseline")
        );
        let rows = experiments[0]
            .get("table")
            .and_then(|t| t.get("rows"))
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(rows[0].as_array().unwrap()[0].as_str(), Some("mcf \"quoted\""));
    }

    #[test]
    fn v2_timing_fields_round_trip_through_emitter_and_parser() {
        let cell = GridCell {
            benchmark: "stream".into(),
            memory_intensive: true,
            algorithm: "Alecto".into(),
            speedup: 1.25,
            ipc: 2.5,
            baseline_ipc: 2.0,
            accuracy: 0.9,
            coverage: 0.8,
            hierarchy_nj: 123.5,
            prefetcher_nj: 4.25,
            instructions: 123_456_789_012,
            cycles: 98_765_432_109,
            avg_mem_latency: 17.375,
            branch_mpki: Some(6.5),
            rob_occupancy: None,
        };
        let mut e = Experiment::new("timing", "Timing sweep", Table::new(vec!["x"]));
        e.cells.push(cell.clone());
        let doc = experiments_to_json(&[e]);
        let parsed = json::parse(&doc).expect("v2 report must parse");
        assert_eq!(parsed.get("schema").and_then(JsonValue::as_str), Some("alecto-bench-v2"));
        let c = parsed.get("experiments").and_then(JsonValue::as_array).unwrap()[0]
            .get("cells")
            .and_then(JsonValue::as_array)
            .unwrap()[0]
            .clone();
        // Every field — v1 and v2 alike — survives the round trip exactly
        // (the chosen values are all exactly representable in f64).
        assert_eq!(c.get("instructions").and_then(JsonValue::as_f64), Some(123_456_789_012.0));
        assert_eq!(c.get("cycles").and_then(JsonValue::as_f64), Some(98_765_432_109.0));
        assert_eq!(c.get("avg_mem_latency").and_then(JsonValue::as_f64), Some(17.375));
        assert_eq!(c.get("speedup").and_then(JsonValue::as_f64), Some(1.25));
        assert_eq!(c.get("ipc").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(c.get("memory_intensive").and_then(JsonValue::as_bool), Some(true));
        // The nullable pipeline metrics: present as a number when reported,
        // an explicit JSON null otherwise.
        assert_eq!(c.get("branch_mpki").and_then(JsonValue::as_f64), Some(6.5));
        assert_eq!(c.get("rob_occupancy"), Some(&JsonValue::Null));
    }

    #[test]
    fn json_number_maps_non_finite_to_null() {
        assert_eq!(json::number(1.5), "1.5");
        assert_eq!(json::number(f64::NAN), "null");
        assert_eq!(json::number(f64::INFINITY), "null");
    }

    #[test]
    fn parser_accepts_standard_documents() {
        let v = json::parse(r#" {"a": [1, -2.5e3, true, false, null, "xA"], "b": {}} "#).unwrap();
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[2].as_bool(), Some(true));
        assert_eq!(a[5].as_str(), Some("xA"));
        assert_eq!(v.get("b"), Some(&JsonValue::Object(vec![])));
    }

    #[test]
    fn parser_decodes_surrogate_pairs_and_rejects_control_chars() {
        // A valid surrogate-pair escape decodes to one scalar.
        let v = json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
        // Lone or malformed surrogates are rejected, as are raw control
        // characters (the writer always escapes them).
        assert!(json::parse("\"\\ud83d\"").is_err());
        assert!(json::parse("\"\\ud83d\\u0041\"").is_err());
        assert!(json::parse("\"\\udc00\"").is_err());
        assert!(json::parse("\"a\nb\"").is_err());
        assert!(json::parse(&json::string("a\nb")).unwrap().as_str() == Some("a\nb"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parser_caps_nesting_depth() {
        // 128 levels parse; one more is an error naming its byte offset.
        let deep = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(json::parse(&deep(128)).is_ok());
        let err = json::parse(&deep(129)).unwrap_err();
        assert!(err.contains("nesting") && err.contains("byte 128"), "{err}");
        assert!(json::parse(&"{\"a\":".repeat(200)).unwrap_err().contains("nesting"));
        // A hostile body of unclosed brackets is an error, not a stack overflow.
        assert!(json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn parser_reads_long_strings_in_one_pass() {
        // A 1 MiB string of two-byte scalars: re-validating the rest of the
        // input per scalar would take minutes.
        let text = "\u{e9}".repeat(1 << 19);
        let parsed = json::parse(&json::string(&text)).unwrap();
        assert_eq!(parsed.as_str(), Some(text.as_str()));
    }

    #[test]
    fn grid_cells_flatten_every_pair() {
        use cpu::{CompositeKind, SelectionAlgorithm};
        use machine::MachineSpec;
        let grid = crate::runner::run_single_core_suite(
            &[traces::spec06::source("lbm", 400)],
            &[SelectionAlgorithm::Ipcp, SelectionAlgorithm::Alecto],
            CompositeKind::GsCsPmp,
            &MachineSpec::table1(1),
            1,
        );
        let cells = grid_cells(&grid);
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.benchmark == "lbm" && c.speedup.is_finite()));
        assert!(cells.iter().any(|c| c.algorithm == "Alecto"));
        // The v2 timing fields are populated from the run, not defaulted.
        assert!(cells.iter().all(|c| c.instructions > 0 && c.cycles > 0));
        assert!(cells.iter().all(|c| c.avg_mem_latency > 0.0));
        let e = Experiment::new("x", "y", Table::new(vec!["a"])).with_grid(&grid);
        assert_eq!(e.cells.len(), 2);
        let doc = experiments_to_json(&[e]);
        let parsed = json::parse(&doc).unwrap();
        let cells_json = parsed.get("experiments").and_then(JsonValue::as_array).unwrap()[0]
            .get("cells")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(cells_json.len(), 2);
        assert!(cells_json[0].get("speedup").and_then(JsonValue::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn emitted_ipc_agrees_with_emitted_cycle_counts() {
        // Regression for an off-by-one in the core report: `cycles` was
        // rounded up while `ipc` divided by the *unrounded* retirement time,
        // so the emitted JSON was internally inconsistent. For a single-core
        // cell the geomean IPC is that core's IPC, so the emitted fields
        // must satisfy ipc == instructions / cycles exactly as reported.
        use cpu::{CompositeKind, SelectionAlgorithm};
        use machine::MachineSpec;
        let grid = crate::runner::run_single_core_suite(
            &[traces::spec06::source("mcf", 600)],
            &[SelectionAlgorithm::Alecto],
            CompositeKind::GsCsPmp,
            &MachineSpec::table1(1),
            1,
        );
        let e = Experiment::new("x", "y", Table::new(vec!["a"])).with_grid(&grid);
        let doc = experiments_to_json(&[e]);
        let parsed = json::parse(&doc).unwrap();
        let cell = parsed.get("experiments").and_then(JsonValue::as_array).unwrap()[0]
            .get("cells")
            .and_then(JsonValue::as_array)
            .unwrap()[0]
            .clone();
        let ipc = cell.get("ipc").and_then(JsonValue::as_f64).unwrap();
        let instructions = cell.get("instructions").and_then(JsonValue::as_f64).unwrap();
        let cycles = cell.get("cycles").and_then(JsonValue::as_f64).unwrap();
        assert!(cycles >= 1.0);
        let derived = instructions / cycles;
        assert!(
            (ipc - derived).abs() < 1e-9,
            "emitted ipc {ipc} disagrees with instructions/cycles {derived}"
        );
    }
}
