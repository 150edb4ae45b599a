//! The CI perf-regression gate: one report schema and one name-keyed diff.
//!
//! Every bench artifact (`BENCH_ckpt.json`, `BENCH_scale.json`,
//! `BENCH_telemetry.json`, `BENCH_matrix.json`) is a [`Report`]: the suite
//! that ran plus a flat list of [`Metric`]s. Each metric carries its own
//! name, value, unit, [`Check`] and the suites that must emit it, so adding
//! a metric is one [`Report::push`] in the emitter and no gate code.
//! [`compare`] diffs a fresh report against its committed baseline under
//! `benches/baselines/` by metric name.
//!
//! [`parse_json`] is a strict, dependency-free JSON reader (the workspace
//! has no registry access, hence no serde). [`Report::parse`] rejects any
//! malformed emit, and [`compare`] rejects a report whose metric set does
//! not line up with its baseline, so a bench that writes a broken file
//! fails CI instead of uploading garbage.
//!
//! Gating policy: **virtual-time** metrics (makespans, byte ratios, counts)
//! are deterministic, so they gate hard at [`TOLERANCE`] or exactly.
//! **Wall-clock** metrics depend on the CI machine and only warn; the one
//! wall-clock shape that gates is a same-run ratio against a fixed ceiling.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Fractional regression tolerance for deterministic metrics (15%).
pub const TOLERANCE: f64 = 0.15;

// ---------------------------------------------------------------------------
// Minimal strict JSON
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as f64; the benches emit nothing larger).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not significant.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as an object, or a schema error naming `what`.
    pub fn obj(&self, what: &str) -> Result<&BTreeMap<String, Json>, GateError> {
        match self {
            Json::Obj(m) => Ok(m),
            other => Err(GateError::schema(format!(
                "{what}: expected object, got {}",
                other.kind()
            ))),
        }
    }

    /// The value as an array, or a schema error naming `what`.
    pub fn arr(&self, what: &str) -> Result<&[Json], GateError> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(GateError::schema(format!(
                "{what}: expected array, got {}",
                other.kind()
            ))),
        }
    }

    /// The value as a finite number, or a schema error naming `what`.
    pub fn num(&self, what: &str) -> Result<f64, GateError> {
        match self {
            Json::Num(x) if x.is_finite() => Ok(*x),
            Json::Num(_) => Err(GateError::schema(format!("{what}: non-finite number"))),
            other => Err(GateError::schema(format!(
                "{what}: expected number, got {}",
                other.kind()
            ))),
        }
    }

    /// The value as a string, or a schema error naming `what`.
    pub fn str(&self, what: &str) -> Result<&str, GateError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(GateError::schema(format!(
                "{what}: expected string, got {}",
                other.kind()
            ))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Why the gate failed.
#[derive(Debug, Clone, PartialEq)]
pub enum GateError {
    /// The input was not valid JSON.
    Parse {
        /// Byte offset of the failure.
        at: usize,
        /// What went wrong.
        msg: String,
    },
    /// The input parsed but violated the bench schema.
    Schema(String),
}

impl GateError {
    fn schema(msg: impl Into<String>) -> GateError {
        GateError::Schema(msg.into())
    }
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Parse { at, msg } => write!(f, "invalid JSON at byte {at}: {msg}"),
            GateError::Schema(msg) => write!(f, "schema violation: {msg}"),
        }
    }
}

impl std::error::Error for GateError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse_json(text: &str) -> Result<Json, GateError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> GateError {
        GateError::Parse {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), GateError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, GateError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(format!("unexpected byte '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, GateError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn object(&mut self) -> Result<Json, GateError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            if map.insert(key.clone(), val).is_some() {
                return Err(self.err(format!("duplicate key \"{key}\"")));
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, GateError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, GateError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("surrogate \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ if b < 0x20 => return Err(self.err("raw control byte in string")),
                _ => {
                    // Re-assemble UTF-8 from the raw bytes.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| self.err("truncated UTF-8"))?;
                    let s =
                        std::str::from_utf8(chunk).map_err(|_| self.err("invalid UTF-8 bytes"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, GateError> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("bad number '{text}'")))
    }
}

// ---------------------------------------------------------------------------
// The report schema
// ---------------------------------------------------------------------------

/// Which run produced a report: the pinned PR-CI subset or everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Suite {
    /// The pinned PR-CI subset: the scale sweep capped at 512 ranks and the
    /// `pr = true` scenario rows.
    Pr,
    /// Everything. Baselines are written from this suite only.
    Full,
}

/// The suites of a metric every run must emit.
pub const EVERY_SUITE: &[Suite] = &[Suite::Pr, Suite::Full];

/// The suites of a metric only the full run emits.
pub const FULL_ONLY: &[Suite] = &[Suite::Full];

impl Suite {
    /// The suite's name in reports and on command lines.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Pr => "pr",
            Suite::Full => "full",
        }
    }

    /// The suite called `name`, if there is one.
    pub fn from_name(name: &str) -> Option<Suite> {
        match name {
            "pr" => Some(Suite::Pr),
            "full" => Some(Suite::Full),
            _ => None,
        }
    }
}

/// How a metric is judged against its baseline value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Deterministic count: must equal the baseline.
    Exact,
    /// Higher is better: may fall at most [`TOLERANCE`] below the baseline.
    Drop,
    /// Lower is better: may rise at most [`TOLERANCE`] above the baseline.
    Rise,
    /// Must stay within [`TOLERANCE`] of the baseline in both directions.
    Band,
    /// Wall clock: a rise beyond [`TOLERANCE`] warns and never fails.
    WarnRise,
    /// Observation: any change warns and never fails.
    WarnChange,
    /// Absolute ceiling, whatever the baseline.
    AtMost(f64),
    /// Absolute floor, whatever the baseline.
    AtLeast(f64),
}

impl Check {
    /// Whether the check scales the baseline, so a zero baseline is void.
    fn relative(self) -> bool {
        matches!(
            self,
            Check::Drop | Check::Rise | Check::Band | Check::WarnRise
        )
    }

    fn parse(text: &str) -> Option<Check> {
        Some(match text {
            "exact" => Check::Exact,
            "drop" => Check::Drop,
            "rise" => Check::Rise,
            "band" => Check::Band,
            "warn_rise" => Check::WarnRise,
            "warn_change" => Check::WarnChange,
            _ => {
                let (kind, bound) = text.split_once(' ')?;
                let bound = bound.parse::<f64>().ok().filter(|b| b.is_finite())?;
                match kind {
                    "at_most" => Check::AtMost(bound),
                    "at_least" => Check::AtLeast(bound),
                    _ => return None,
                }
            }
        })
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Check::Exact => f.write_str("exact"),
            Check::Drop => f.write_str("drop"),
            Check::Rise => f.write_str("rise"),
            Check::Band => f.write_str("band"),
            Check::WarnRise => f.write_str("warn_rise"),
            Check::WarnChange => f.write_str("warn_change"),
            Check::AtMost(bound) => write!(f, "at_most {bound}"),
            Check::AtLeast(bound) => write!(f, "at_least {bound}"),
        }
    }
}

/// One named measurement and how to gate it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Unique within its report, e.g. `ckpt/wave_mpi/delta_ratio`.
    pub name: String,
    /// The measurement: finite and non-negative.
    pub value: f64,
    /// Unit label (`s`, `ms`, `ratio`, `count`, ...).
    pub unit: String,
    /// How the value is judged against the baseline.
    pub check: Check,
    /// The suites that must emit this metric, in [`Suite`] order.
    pub suites: Vec<Suite>,
}

/// A bench artifact: the suite that ran plus a flat list of metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The suite that produced the report.
    pub suite: Suite,
    /// The metrics, in emission order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// An empty report of `suite`.
    pub fn new(suite: Suite) -> Report {
        Report {
            suite,
            metrics: Vec::new(),
        }
    }

    /// Append a metric.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &str,
        check: Check,
        suites: &[Suite],
    ) {
        let mut suites = suites.to_vec();
        suites.sort();
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            check,
            suites,
        });
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The report as JSON, one metric per line. Values print at full
    /// precision, so [`Report::parse`] reads back exactly what was pushed.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"suite\": \"{}\",\n  \"metrics\": [\n",
            self.suite.name()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let suites: Vec<String> = m
                .suites
                .iter()
                .map(|s| format!("\"{}\"", s.name()))
                .collect();
            out.push_str(&format!(
                "    {{\"name\": {}, \"value\": {}, \"unit\": {}, \"check\": \"{}\", \
                 \"suites\": [{}]}}{}\n",
                quote(&m.name),
                m.value,
                quote(&m.unit),
                m.check,
                suites.join(", "),
                if i + 1 == self.metrics.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write the report to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Strictly parse a report: exactly the documented keys, a known suite,
    /// unique non-empty names, finite non-negative values, a known check,
    /// and suites that include the report's own.
    pub fn parse(text: &str) -> Result<Report, GateError> {
        let doc = parse_json(text)?;
        let top = doc.obj("top level")?;
        no_extra_keys(top, "top level", &["suite", "metrics"])?;
        let mut report = Report::new(suite(field(top, "top level", "suite")?, "suite")?);
        let items = field(top, "top level", "metrics")?.arr("metrics")?;
        if items.is_empty() {
            return Err(GateError::schema("metrics: empty"));
        }
        for (i, item) in items.iter().enumerate() {
            let what = format!("metrics[{i}]");
            let obj = item.obj(&what)?;
            no_extra_keys(obj, &what, &["name", "value", "unit", "check", "suites"])?;
            let name = field(obj, &what, "name")?.str(&what)?;
            if name.is_empty() || report.get(name).is_some() {
                return Err(GateError::schema(format!(
                    "{what}: empty or duplicate name \"{name}\""
                )));
            }
            let what = format!("metric \"{name}\"");
            let value = field(obj, &what, "value")?.num(&what)?;
            if value < 0.0 {
                return Err(GateError::schema(format!("{what}: negative ({value})")));
            }
            let unit = field(obj, &what, "unit")?.str(&what)?;
            if unit.is_empty() {
                return Err(GateError::schema(format!("{what}: empty unit")));
            }
            let check_text = field(obj, &what, "check")?.str(&what)?;
            let check = Check::parse(check_text).ok_or_else(|| {
                GateError::schema(format!("{what}: unknown check \"{check_text}\""))
            })?;
            let mut suites = field(obj, &what, "suites")?
                .arr(&what)?
                .iter()
                .map(|s| suite(s, &what))
                .collect::<Result<Vec<_>, _>>()?;
            suites.sort();
            if suites.windows(2).any(|w| w[0] == w[1]) || !suites.contains(&report.suite) {
                return Err(GateError::schema(format!(
                    "{what}: suites {suites:?} must be distinct and include the report's \
                     \"{}\"",
                    report.suite.name()
                )));
            }
            report.push(name, value, unit, check, &suites);
        }
        Ok(report)
    }
}

/// `file` at the workspace root. The benches land their reports there
/// whatever directory cargo runs them from, so CI picks up one stable path.
pub fn workspace_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file)
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn field<'j>(
    obj: &'j BTreeMap<String, Json>,
    what: &str,
    key: &str,
) -> Result<&'j Json, GateError> {
    obj.get(key)
        .ok_or_else(|| GateError::schema(format!("{what}: missing key \"{key}\"")))
}

fn no_extra_keys(
    obj: &BTreeMap<String, Json>,
    what: &str,
    allowed: &[&str],
) -> Result<(), GateError> {
    for key in obj.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(GateError::schema(format!(
                "{what}: unknown key \"{key}\" (strict schema)"
            )));
        }
    }
    Ok(())
}

fn suite(j: &Json, what: &str) -> Result<Suite, GateError> {
    let name = j.str(what)?;
    Suite::from_name(name).ok_or_else(|| {
        GateError::schema(format!(
            "{what}: unknown suite \"{name}\" (expected \"pr\" or \"full\")"
        ))
    })
}

// ---------------------------------------------------------------------------
// Baseline comparison
// ---------------------------------------------------------------------------

/// What the comparison concluded.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Hard failures: gated metrics beyond their check.
    pub regressions: Vec<String>,
    /// Soft findings: wall-clock and observation drift.
    pub warnings: Vec<String>,
    /// Gated metrics that passed (for the log).
    pub passed: usize,
}

impl GateOutcome {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Diff `fresh` against its baseline by metric name, adding each verdict
/// to `out`.
///
/// The two metric sets must line up, or the input is unusable (exit 2): a
/// baseline metric whose suites include the fresh report's suite must be
/// present, every fresh metric must have a baseline with the same unit,
/// check and suites, and a relative check needs a non-zero baseline.
pub fn compare(out: &mut GateOutcome, base: &Report, fresh: &Report) -> Result<(), GateError> {
    if let Some(b) = base
        .metrics
        .iter()
        .find(|b| b.suites.contains(&fresh.suite) && fresh.get(&b.name).is_none())
    {
        return Err(GateError::schema(format!(
            "{}: in the baseline but missing from the fresh {} report",
            b.name,
            fresh.suite.name()
        )));
    }
    for f in &fresh.metrics {
        let b = base.get(&f.name).ok_or_else(|| {
            GateError::schema(format!(
                "{}: unknown metric (no baseline; refresh with --write-baselines)",
                f.name
            ))
        })?;
        if (&f.unit, f.check, &f.suites) != (&b.unit, b.check, &b.suites) {
            return Err(GateError::schema(format!(
                "{}: unit/check/suites {}/{}/{:?} drifted from the baseline's {}/{}/{:?}",
                f.name, f.unit, f.check, f.suites, b.unit, b.check, b.suites
            )));
        }
        if f.check.relative() && b.value == 0.0 {
            return Err(GateError::schema(format!(
                "{}: a zero baseline cannot anchor a relative check",
                f.name
            )));
        }
        judge(out, f, b.value);
    }
    Ok(())
}

fn judge(out: &mut GateOutcome, m: &Metric, base: f64) {
    let v = m.value;
    let high = v > base * (1.0 + TOLERANCE);
    let low = v < base * (1.0 - TOLERANCE);
    let beyond = || {
        format!(
            "{v} vs baseline {base} ({:+.1}%, beyond the {:.0}% tolerance)",
            (v / base - 1.0) * 100.0,
            TOLERANCE * 100.0
        )
    };
    let failure = match m.check {
        Check::Exact => (v != base).then(|| format!("{v} vs baseline {base} (exact; must match)")),
        Check::Drop => low.then(beyond),
        Check::Rise => high.then(beyond),
        Check::Band => (low || high).then(beyond),
        Check::AtMost(ceiling) => {
            (v > ceiling).then(|| format!("{v} is above the ceiling {ceiling}"))
        }
        Check::AtLeast(floor) => (v < floor).then(|| format!("{v} is below the floor {floor}")),
        Check::WarnRise => {
            if high {
                out.warnings
                    .push(format!("{}: {} (wall-clock; not gated)", m.name, beyond()));
            }
            return;
        }
        Check::WarnChange => {
            if v != base {
                out.warnings.push(format!(
                    "{}: {v} vs baseline {base} (observation; not gated)",
                    m.name
                ));
            }
            return;
        }
    };
    match failure {
        Some(why) => out.regressions.push(format!("{}: {why}", m.name)),
        None => out.passed += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::matrix_report;
    use stool::{ScenarioResult, Vendor};

    #[test]
    fn parses_scalars_arrays_objects() {
        let doc = parse_json(r#"{"a": [1, -2.5, 3e2], "b": {"c": true, "d": null}, "e": "x\n"}"#)
            .unwrap();
        let top = doc.obj("t").unwrap();
        let a = top["a"].arr("a").unwrap();
        assert_eq!(a[0].num("0").unwrap(), 1.0);
        assert_eq!(a[1].num("1").unwrap(), -2.5);
        assert_eq!(a[2].num("2").unwrap(), 300.0);
        assert_eq!(top["b"].obj("b").unwrap()["c"], Json::Bool(true));
        assert_eq!(top["e"].str("e").unwrap(), "x\n");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": }",
            "{\"a\": 1} trailing",
            "{\"a\": 1, \"a\": 2}",
            "{\"a\": nul}",
            "{\"a\": 1e}",
        ] {
            assert!(parse_json(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn utf8_strings_roundtrip() {
        let doc = parse_json("{\"k\": \"héllo → ∞\"}").unwrap();
        assert_eq!(doc.obj("t").unwrap()["k"].str("k").unwrap(), "héllo → ∞");
    }

    /// Gate `fresh` against `base` the way `benchgate` does: through the
    /// one writer and the strict reader first.
    fn gate(base: &Report, fresh: &Report) -> Result<GateOutcome, GateError> {
        let fresh = Report::parse(&fresh.to_json())?;
        let mut out = GateOutcome::default();
        compare(&mut out, base, &fresh)?;
        Ok(out)
    }

    fn passes(base: &Report, fresh: &Report) -> GateOutcome {
        let out = gate(base, fresh).expect("well-formed");
        assert!(out.ok(), "{:?}", out.regressions);
        out
    }

    /// Assert the gate fails with a regression naming `what`.
    fn fails(base: &Report, fresh: &Report, what: &str) {
        let out = gate(base, fresh).expect("well-formed");
        assert!(
            out.regressions.iter().any(|r| r.contains(what)),
            "expected a regression naming {what}: {:?}",
            out.regressions
        );
    }

    /// Assert the inputs are unusable (benchgate exit 2) with a reason
    /// naming `what`.
    fn unusable(base: &Report, fresh: &Report, what: &str) {
        let err = gate(base, fresh).expect_err("must be rejected").to_string();
        assert!(err.contains(what), "expected an error naming {what}: {err}");
    }

    fn with(report: &Report, name: &str, value: f64) -> Report {
        let mut r = report.clone();
        r.metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value = value;
        r
    }

    fn without(report: &Report, name: &str) -> Report {
        let mut r = report.clone();
        r.metrics.retain(|m| m.name != name);
        r
    }

    /// Shaped like the store bench's emit.
    fn ckpt_report() -> Report {
        let mut r = Report::new(Suite::Full);
        for (what, value, unit, check) in [
            ("delta_ratio", 2.0, "ratio", Check::Drop),
            ("hash_skip_ratio", 3.0, "ratio", Check::Drop),
            ("compression_ratio", 1.6, "ratio", Check::Drop),
            ("tier_dedup_ratio", 2.0, "ratio", Check::Drop),
            ("sync_makespan_s", 2.0, "s", Check::Rise),
            ("async_makespan_s", 1.5, "s", Check::Rise),
            ("commit_wall_ms", 2.5, "ms", Check::WarnRise),
        ] {
            r.push(
                format!("ckpt/wave_mpi/{what}"),
                value,
                unit,
                check,
                EVERY_SUITE,
            );
        }
        r
    }

    #[test]
    fn report_round_trips_through_the_writer() {
        let mut r = ckpt_report();
        r.push(
            "odd \"name\" \\ with\nescapes → ∞",
            0.1 + 0.2,
            "ratio",
            Check::AtMost(1.25),
            FULL_ONLY,
        );
        r.push(
            "floor",
            27.0,
            "rows",
            Check::AtLeast(24.0),
            &[Suite::Full, Suite::Pr],
        );
        let text = r.to_json();
        assert!(text.contains("\"check\": \"at_most 1.25\""), "{text}");
        assert!(text.contains("\"suites\": [\"pr\", \"full\"]"), "{text}");
        assert_eq!(Report::parse(&text).unwrap(), r);
        assert_eq!(r.get("floor").unwrap().suites, EVERY_SUITE);
    }

    #[test]
    fn report_schema_rejects_missing_and_unknown_keys() {
        let text = ckpt_report().to_json();
        assert!(Report::parse(&text).is_ok());
        for (from, to) in [
            // A metric without its check, an unknown metric key, an
            // unknown top-level key.
            (", \"check\": \"drop\"", ""),
            ("\"unit\"", "\"units\""),
            (
                "\"suite\": \"full\"",
                "\"suite\": \"full\", \"bench\": \"ckpt_store\"",
            ),
            // Unknown suite names, checks and bounds.
            ("\"suite\": \"full\"", "\"suite\": \"nightly\""),
            ("[\"pr\", \"full\"]", "[\"pr\", \"nightly\"]"),
            ("\"drop\"", "\"within\""),
            ("\"drop\"", "\"at_most x\""),
            // Suites that are empty, repeated, or exclude the report's own.
            ("[\"pr\", \"full\"]", "[]"),
            ("[\"pr\", \"full\"]", "[\"full\", \"full\"]"),
            ("[\"pr\", \"full\"]", "[\"pr\"]"),
            // A duplicate metric name.
            ("compression_ratio", "delta_ratio"),
        ] {
            let bad = text.replacen(from, to, 1);
            assert_ne!(bad, text, "{from} not in the fixture");
            assert!(Report::parse(&bad).is_err(), "accepted {from} -> {to}");
        }
        assert!(Report::parse("{\"suite\": \"full\", \"metrics\": []}").is_err());
        assert!(Report::parse("{\"suite\": \"full\"}").is_err());
    }

    #[test]
    fn report_schema_rejects_nonsense_numbers() {
        let text = ckpt_report().to_json();
        for bad in ["-2", "1e999", "\"2\"", "null"] {
            let doc = text.replacen("\"value\": 2,", &format!("\"value\": {bad},"), 1);
            assert_ne!(doc, text);
            assert!(Report::parse(&doc).is_err(), "accepted value {bad}");
        }
    }

    #[test]
    fn regression_gate_trips_beyond_tolerance() {
        let base = ckpt_report();
        // Within tolerance on every gated metric: passes.
        let mut ok = with(&base, "ckpt/wave_mpi/delta_ratio", 1.75);
        ok = with(&ok, "ckpt/wave_mpi/sync_makespan_s", 2.2);
        ok = with(&ok, "ckpt/wave_mpi/async_makespan_s", 1.6);
        assert_eq!(passes(&base, &ok).passed, 6);
        // Delta bytes ballooned (ratio collapsed), dirty tracking or
        // compression or tier dedup collapsed: fails.
        for name in [
            "delta_ratio",
            "hash_skip_ratio",
            "compression_ratio",
            "tier_dedup_ratio",
        ] {
            let name = format!("ckpt/wave_mpi/{name}");
            fails(&base, &with(&base, &name, 1.0), &name);
        }
        // Makespan regressed 30%: fails.
        fails(
            &base,
            &with(&base, "ckpt/wave_mpi/sync_makespan_s", 2.6),
            "sync_makespan_s",
        );
        // Improvements never fail.
        passes(&base, &with(&base, "ckpt/wave_mpi/delta_ratio", 9.0));
        passes(&base, &with(&base, "ckpt/wave_mpi/async_makespan_s", 0.1));
    }

    #[test]
    fn commit_wall_clock_drift_warns_but_never_gates() {
        let base = ckpt_report();
        let slow_machine = with(&base, "ckpt/wave_mpi/commit_wall_ms", 50.0);
        let out = passes(&base, &slow_machine);
        assert!(out.warnings.iter().any(|w| w.contains("commit_wall_ms")));
        let fast_machine = with(&base, "ckpt/wave_mpi/commit_wall_ms", 0.1);
        assert!(passes(&base, &fast_machine).warnings.is_empty());
    }

    #[test]
    fn metric_set_must_line_up_with_the_baseline() {
        let base = ckpt_report();
        // A metric disappeared, or appeared without a baseline.
        unusable(
            &base,
            &without(&base, "ckpt/wave_mpi/delta_ratio"),
            "missing",
        );
        let mut extra = base.clone();
        extra.push(
            "ckpt/wave_mpi/new_ratio",
            1.0,
            "ratio",
            Check::Drop,
            EVERY_SUITE,
        );
        unusable(&base, &extra, "unknown metric");
        // Drift in a metric's unit, check or suites.
        let drift = |f: &dyn Fn(&mut Metric)| {
            let mut r = base.clone();
            f(&mut r.metrics[0]);
            r
        };
        unusable(&base, &drift(&|m| m.unit = "x".into()), "drifted");
        unusable(&base, &drift(&|m| m.check = Check::Band), "drifted");
        unusable(&base, &drift(&|m| m.suites = FULL_ONLY.to_vec()), "drifted");
        // A zero baseline cannot anchor a relative check; a fresh zero
        // against a real baseline is an ordinary regression.
        let zero = with(&base, "ckpt/wave_mpi/delta_ratio", 0.0);
        unusable(&zero, &base, "zero baseline");
        fails(&base, &zero, "delta_ratio");
    }

    /// Shaped like the scale bench's emit: rank-keyed metrics up to
    /// `max_ranks`, the ones above 512 ranks in the full suite only.
    fn scale_report(suite: Suite, max_ranks: usize, virt: f64) -> Report {
        let mut r = Report::new(suite);
        r.push(
            "scale/failover_recovery_rounds",
            4.0,
            "count",
            Check::Exact,
            EVERY_SUITE,
        );
        r.push(
            "scale/cluster/tenants",
            4.0,
            "count",
            Check::Exact,
            EVERY_SUITE,
        );
        r.push(
            "scale/cluster/epochs_total",
            12.0,
            "count",
            Check::Exact,
            EVERY_SUITE,
        );
        r.push(
            "scale/cluster/fairness_spread",
            0.04,
            "ratio",
            Check::Band,
            EVERY_SUITE,
        );
        r.push(
            "scale/cluster/wall_ms",
            5.0,
            "ms",
            Check::WarnRise,
            EVERY_SUITE,
        );
        r.push(
            "scale/rendezvous/tree_over_flat",
            0.3,
            "ratio",
            Check::AtMost(1.25),
            EVERY_SUITE,
        );
        for ranks in [64, 256, 512, 1024].into_iter().filter(|&n| n <= max_ranks) {
            let suites = if ranks <= 512 { EVERY_SUITE } else { FULL_ONLY };
            r.push(
                format!("scale/rendezvous/{ranks}/tree_ms"),
                1.0,
                "ms",
                Check::WarnRise,
                suites,
            );
            r.push(
                format!("scale/allreduce/{ranks}/MPICH"),
                virt,
                "s",
                Check::Rise,
                suites,
            );
        }
        r
    }

    #[test]
    fn scale_gate() {
        let base = scale_report(Suite::Full, 1024, 1.0);
        let out = passes(&base, &scale_report(Suite::Full, 1024, 1.05));
        assert!(out.warnings.is_empty(), "{:?}", out.warnings);
        // The PR run's capped sweep leaves the 1024-rank rows out of its
        // suite: no missing-row noise.
        let out = passes(&base, &scale_report(Suite::Pr, 512, 1.05));
        assert!(out.warnings.is_empty(), "{:?}", out.warnings);
        // 30% virtual-time regression trips the gate.
        fails(
            &base,
            &scale_report(Suite::Pr, 512, 1.3),
            "scale/allreduce/64/MPICH",
        );
    }

    #[test]
    fn scale_report_capped_below_512_ranks_is_unusable() {
        // The pr suite requires the 512-rank rows, so a sweep that shrank
        // below 512 ranks fails, whatever suite it claims.
        let base = scale_report(Suite::Full, 1024, 1.0);
        unusable(&base, &scale_report(Suite::Pr, 256, 1.0), "/512/");
        unusable(&base, &scale_report(Suite::Full, 512, 1.0), "/1024/");
    }

    #[test]
    fn failover_battery_count_gates_exactly() {
        let base = scale_report(Suite::Full, 1024, 1.0);
        for wrong in [3.0, 5.0, 0.0] {
            let drifted = with(&base, "scale/failover_recovery_rounds", wrong);
            fails(&base, &drifted, "failover_recovery_rounds");
        }
        let missing = without(&base, "scale/failover_recovery_rounds");
        unusable(&base, &missing, "failover_recovery_rounds");
    }

    #[test]
    fn cluster_saturation_gates_counts_exactly_and_fairness_at_tolerance() {
        let base = scale_report(Suite::Full, 1024, 1.0);
        fails(
            &base,
            &with(&base, "scale/cluster/tenants", 5.0),
            "cluster/tenants",
        );
        fails(
            &base,
            &with(&base, "scale/cluster/epochs_total", 11.0),
            "cluster/epochs_total",
        );
        // Fairness spread within tolerance either way: passes.
        for close in [0.037, 0.045] {
            passes(&base, &with(&base, "scale/cluster/fairness_spread", close));
        }
        // Beyond tolerance in either direction, or collapsed to zero: fails.
        for far in [0.06, 0.02, 0.0] {
            let drifted = with(&base, "scale/cluster/fairness_spread", far);
            fails(&base, &drifted, "fairness_spread");
        }
        // Slow machine: cluster wall tripled — warns, never gates.
        let slow = with(&base, "scale/cluster/wall_ms", 15.0);
        assert!(passes(&base, &slow)
            .warnings
            .iter()
            .any(|w| w.contains("cluster/wall_ms")));
        unusable(&base, &without(&base, "scale/cluster/wall_ms"), "missing");
    }

    #[test]
    fn tree_losing_to_flat_at_max_ranks_fails_the_gate() {
        let base = scale_report(Suite::Full, 1024, 1.0);
        // Tree 60 ms vs flat 40 ms at the largest world is beyond the
        // ceiling — the topology regressed, whatever the machine.
        let inverted = with(&base, "scale/rendezvous/tree_over_flat", 1.5);
        fails(
            &base,
            &inverted,
            "tree_over_flat: 1.5 is above the ceiling 1.25",
        );
        // Tree merely within the headroom (44 ms vs flat 40 ms) passes.
        passes(&base, &with(&base, "scale/rendezvous/tree_over_flat", 1.1));
    }

    fn telemetry_report(events_per_round: f64, rounds: f64, emit_ns: f64) -> Report {
        let mut r = Report::new(Suite::Full);
        r.push(
            "telemetry/events_per_round",
            events_per_round,
            "events/round",
            Check::Band,
            EVERY_SUITE,
        );
        r.push(
            "telemetry/rounds",
            rounds,
            "count",
            Check::Exact,
            EVERY_SUITE,
        );
        r.push(
            "telemetry/emit_wall_ns",
            emit_ns,
            "ns",
            Check::WarnRise,
            EVERY_SUITE,
        );
        r
    }

    #[test]
    fn telemetry_events_per_round_gates_both_directions() {
        let base = telemetry_report(20.0, 8.0, 25.0);
        // Within tolerance either way: passes.
        for close in [18.0, 22.0] {
            passes(&base, &telemetry_report(close, 8.0, 25.0));
        }
        // Instrumentation fell off a path (-25%), or the control plane got
        // chatty (+30%): fails.
        for far in [15.0, 26.0] {
            fails(&base, &telemetry_report(far, 8.0, 25.0), "events_per_round");
        }
        // The deterministic round count must match exactly.
        fails(
            &base,
            &telemetry_report(20.0, 9.0, 25.0),
            "telemetry/rounds",
        );
        // Slow machine: emit cost tripled — warns, never gates.
        let out = passes(&base, &telemetry_report(20.0, 8.0, 75.0));
        assert!(out.warnings.iter().any(|w| w.contains("emit_wall_ns")));
        // A zero baseline is unusable.
        unusable(&telemetry_report(0.0, 8.0, 25.0), &base, "zero baseline");
    }

    fn scenario(name: &str, pr: bool, passed: bool, rounds: u64, kills: u64) -> ScenarioResult {
        ScenarioResult {
            name: name.into(),
            app: "ring".into(),
            vendor: Vendor::Mpich,
            pr,
            failures: if passed {
                vec![]
            } else {
                vec!["chain torn".into()]
            },
            recovery_rounds: rounds,
            kills,
            epochs: 3,
            put_retries: 0,
            stalls: 0,
            elections: 0,
        }
    }

    /// A three-row spec whose rows 0 and 2 form the PR subset.
    fn matrix_rows() -> Vec<(usize, ScenarioResult)> {
        vec![
            (0, scenario("a-storm", true, true, 1, 1)),
            (1, scenario("b-quiet", false, true, 0, 0)),
            (2, scenario("c-leader", true, true, 0, 0)),
        ]
    }

    fn pr_rows() -> Vec<(usize, ScenarioResult)> {
        matrix_rows().into_iter().filter(|(_, r)| r.pr).collect()
    }

    #[test]
    fn matrix_gate_requires_exact_rows_and_pass_states() {
        let base = matrix_report(Suite::Full, 24, &matrix_rows());
        // The full suite re-run matches exactly: passes.
        passes(&base, &matrix_report(Suite::Full, 24, &matrix_rows()));
        // The PR suite runs exactly the pr=true subset: passes.
        passes(&base, &matrix_report(Suite::Pr, 24, &pr_rows()));
        // A failed scenario is a regression.
        let mut broken = pr_rows();
        broken[0].1 = scenario("a-storm", true, false, 1, 1);
        fails(
            &base,
            &matrix_report(Suite::Pr, 24, &broken),
            "matrix/a-storm/ring/MPICH/passed",
        );
        // A missing row makes the report unusable.
        let short = &pr_rows()[..1];
        unusable(&base, &matrix_report(Suite::Pr, 24, short), "c-leader");
        // Recovery rounds and kills are deterministic and must match.
        let mut drifted = pr_rows();
        drifted[0].1.recovery_rounds = 2;
        drifted[1].1.kills = 1;
        let fresh = matrix_report(Suite::Pr, 24, &drifted);
        fails(&base, &fresh, "a-storm/ring/MPICH/recovery_rounds");
        fails(&base, &fresh, "c-leader/ring/MPICH/kills");
        // A spec shrinking below the floor fails even if rows match.
        let small = matrix_report(Suite::Full, 12, &matrix_rows());
        fails(&small, &small, "spec_coverage: 12 is below the floor 24");
        // ...and any change to the spec size needs a baseline refresh.
        fails(
            &base,
            &matrix_report(Suite::Pr, 25, &pr_rows()),
            "spec_scenarios",
        );
        // Observation drift (epochs) warns but never gates.
        let mut obs = pr_rows();
        obs[0].1.epochs = 4;
        let out = passes(&base, &matrix_report(Suite::Pr, 24, &obs));
        assert!(out
            .warnings
            .iter()
            .any(|w| w.contains("a-storm/ring/MPICH/epochs")));
    }

    #[test]
    fn matrix_rows_keep_their_order_and_identity() {
        let base = matrix_report(Suite::Full, 24, &matrix_rows());
        // Reordered rows fail on their spec positions.
        let mut reordered = matrix_rows();
        reordered.swap(0, 2);
        for (i, row) in reordered.iter_mut().enumerate() {
            row.0 = i;
        }
        fails(
            &base,
            &matrix_report(Suite::Full, 24, &reordered),
            "a-storm/ring/MPICH/position",
        );
        // A row that changed vendor or app is a different row.
        let mut moved = pr_rows();
        moved[0].1.vendor = Vendor::OpenMpi;
        unusable(
            &base,
            &matrix_report(Suite::Pr, 24, &moved),
            "a-storm/ring/MPICH",
        );
        let mut renamed = matrix_rows();
        renamed[1].1.app = "wave".into();
        unusable(
            &base,
            &matrix_report(Suite::Full, 24, &renamed),
            "b-quiet/ring",
        );
        // A row that left the PR subset drifted suites.
        let mut demoted = matrix_rows();
        demoted[2].1.pr = false;
        unusable(&base, &matrix_report(Suite::Full, 24, &demoted), "drifted");
    }

    const BASELINES: [(&str, &str); 4] = [
        (
            "BENCH_ckpt.json",
            include_str!("../../../benches/baselines/BENCH_ckpt.json"),
        ),
        (
            "BENCH_scale.json",
            include_str!("../../../benches/baselines/BENCH_scale.json"),
        ),
        (
            "BENCH_telemetry.json",
            include_str!("../../../benches/baselines/BENCH_telemetry.json"),
        ),
        (
            "BENCH_matrix.json",
            include_str!("../../../benches/baselines/BENCH_matrix.json"),
        ),
    ];

    /// `report` as a run of `suite` would emit it.
    fn projected(report: &Report, suite: Suite) -> Report {
        let mut r = report.clone();
        r.suite = suite;
        r.metrics.retain(|m| m.suites.contains(&suite));
        r
    }

    #[test]
    fn committed_baselines_parse_and_pass_against_themselves() {
        for (file, text) in BASELINES {
            let base = Report::parse(text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert_eq!(base.suite, Suite::Full, "{file}");
            for suite in [Suite::Full, Suite::Pr] {
                let out = passes(&base, &projected(&base, suite));
                assert!(out.warnings.is_empty(), "{file}: {:?}", out.warnings);
            }
        }
    }

    #[test]
    fn committed_scale_baseline_needs_512_ranks_on_pr() {
        let base = Report::parse(BASELINES[1].1).unwrap();
        let pr = projected(&base, Suite::Pr);
        assert!(pr.get("scale/allreduce/512/MPICH").is_some());
        assert!(pr.get("scale/allreduce/1024/MPICH").is_none());
        let mut capped = pr.clone();
        capped.metrics.retain(|m| !m.name.contains("/512/"));
        unusable(&base, &capped, "/512/");
    }

    #[test]
    fn committed_baselines_carry_the_old_gate_values() {
        // The values the per-artifact gate computed from the committed
        // files before they became reports, at full f64 precision.
        let ratio = |num: f64, den: f64| num / den.max(1.0);
        let ckpt = Report::parse(BASELINES[0].1).unwrap();
        for (w, full, delta, raw, dirty, hashed, image, shipped) in [
            (
                "wave_mpi", 459698.0, 276608.0, 353564.0, 321398.0, 874668.0, 874668.0, 322436.0,
            ),
            (
                "CoMD", 165983.0, 91096.0, 95744.0, 74061.0, 491508.0, 491508.0, 116114.0,
            ),
        ] {
            for (what, want) in [
                ("delta_ratio", ratio(full, delta)),
                ("hash_skip_ratio", ratio(hashed, dirty)),
                ("compression_ratio", ratio(raw, delta)),
                ("tier_dedup_ratio", ratio(image, shipped)),
            ] {
                let name = format!("ckpt/{w}/{what}");
                assert_eq!(ckpt.get(&name).unwrap().value, want, "{name}");
            }
        }
        let scale = Report::parse(BASELINES[1].1).unwrap();
        let tree_over_flat = scale.get("scale/rendezvous/tree_over_flat").unwrap();
        assert_eq!(tree_over_flat.value, 23.504910 / 31.126514);
        assert_eq!(tree_over_flat.check, Check::AtMost(1.25));
    }
}
