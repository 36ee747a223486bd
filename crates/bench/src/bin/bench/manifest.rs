//! `BENCHMARK.json`, embedded at build time, and the self-check that the
//! binary's metric catalogue and the manifest agree in both directions.

use crate::metrics::MetricDef;
use std::collections::BTreeMap;

/// The manifest this binary was built against (repository root).
pub const MANIFEST: &str = include_str!("../../../../../BENCHMARK.json");

/// The contract's ceiling on a regression bound.
const MAX_BOUND: f64 = 0.25;

/// A parsed JSON value (the subset the manifest uses — no escapes beyond
/// `\"` `\\` `\/` `\n` `\t`, no exponents needed but accepted).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing characters at byte {}", parser.pos));
        }
        Ok(value)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_array(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            _ => &[],
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected token at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    if map.insert(key.clone(), self.value()?).is_some() {
                        return Err(format!("duplicate key `{key}`"));
                    }
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Object(map));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Number)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = match self.bytes.get(self.pos + 1) {
                        Some(b'"') => b'"',
                        Some(b'\\') => b'\\',
                        Some(b'/') => b'/',
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        _ => return Err(format!("unsupported escape at byte {}", self.pos)),
                    };
                    out.push(escaped);
                    self.pos += 2;
                }
                Some(byte) => {
                    out.push(*byte);
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

/// `run_seconds` of the embedded manifest — the default for `--seconds`.
pub fn run_seconds() -> f64 {
    Json::parse(MANIFEST)
        .ok()
        .and_then(|m| m.get("run_seconds").and_then(Json::as_f64))
        .expect("BENCHMARK.json carries run_seconds")
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `(name, unit)` pairs of a manifest metric list.
fn listed(manifest: &Json, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn diff(kind: &str, emitted: &[(String, String)], listed: &[(String, String)]) -> Vec<String> {
    let mut problems = Vec::new();
    for pair in emitted {
        if !listed.contains(pair) {
            problems.push(format!("{kind} `{}` [{}] is emitted but not listed", pair.0, pair.1));
        }
    }
    for pair in listed {
        if !emitted.contains(pair) {
            problems.push(format!("{kind} `{}` [{}] is listed but not emitted", pair.0, pair.1));
        }
    }
    problems
}

/// Every way the manifest text and the binary disagree: metric names and
/// units and workload names in either direction, names outside the allowed
/// alphabet, bounds outside `(0, 0.25]`, `setup_s` without the largest
/// bound. Empty means consistent.
pub fn check(
    manifest_text: &str,
    workloads: &[&str],
    end_to_end: &[MetricDef],
    per_layer: &[MetricDef],
) -> Vec<String> {
    let manifest = match Json::parse(manifest_text) {
        Ok(manifest) => manifest,
        Err(error) => return vec![format!("BENCHMARK.json does not parse: {error}")],
    };
    let pairs = |defs: &[MetricDef]| -> Vec<(String, String)> {
        defs.iter().map(|d| (d.name.clone(), d.unit.to_string())).collect()
    };
    let mut problems =
        diff("end-to-end metric", &pairs(end_to_end), &listed(&manifest, "end_to_end"));
    problems.extend(diff("per-layer metric", &pairs(per_layer), &listed(&manifest, "per_layer")));

    let listed_workloads: Vec<(String, String)> =
        listed(&manifest, "workloads").into_iter().map(|(name, _)| (name, String::new())).collect();
    let own_workloads: Vec<(String, String)> =
        workloads.iter().map(|w| (w.to_string(), String::new())).collect();
    problems.extend(diff("workload", &own_workloads, &listed_workloads));

    for name in
        end_to_end.iter().chain(per_layer).map(|d| d.name.as_str()).chain(workloads.iter().copied())
    {
        if !name_ok(name) {
            problems
                .push(format!("name `{name}` uses characters outside letters, digits, `_ . -`"));
        }
    }

    let bounds: Vec<(String, f64)> = manifest
        .get("end_to_end")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap_or("").to_string(),
                m.get("bound").and_then(Json::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect();
    for (name, bound) in &bounds {
        if !(*bound > 0.0 && *bound <= MAX_BOUND) {
            problems.push(format!("bound of `{name}` is {bound}, outside (0, {MAX_BOUND}]"));
        }
    }
    let largest = bounds.iter().map(|(_, b)| *b).fold(0.0, f64::max);
    if bounds.iter().any(|(name, bound)| name == "setup_s" && *bound < largest) {
        problems.push("`setup_s` must carry the largest bound".to_string());
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{end_to_end, per_layer};
    use crate::WORKLOADS;

    #[test]
    fn parser_reads_the_shapes_the_manifest_uses() {
        let json =
            Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y"}, "d": true, "e": null}"#)
                .unwrap();
        assert_eq!(json.get("a").unwrap().as_array()[2].as_f64(), Some(-300.0));
        assert_eq!(json.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
        assert_eq!(json.get("d"), Some(&Json::Bool(true)));
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("{\"a\": 1} x").is_err());
    }

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let problems = check(MANIFEST, &WORKLOADS, &end_to_end(), &per_layer());
        assert!(
            problems.is_empty(),
            "BENCHMARK.json and metrics.rs disagree:\n{}",
            problems.join("\n")
        );
        assert!((1.0..=60.0).contains(&run_seconds()));
    }

    #[test]
    fn check_reports_drift_in_both_directions_bad_names_and_bad_bounds() {
        let text = r#"{"workloads": [{"name": "w1", "why": "x"}, {"name": "gone", "why": "x"}],
            "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.05},
                           {"name": "lat", "unit": "us", "better": "lower", "bound": 0.3}],
            "per_layer": [{"name": "old.layer", "unit": "ms", "better": "lower"}]}"#;
        let e2e = vec![
            MetricDef { name: "setup_s".into(), unit: "s" },
            MetricDef { name: "lat".into(), unit: "ms" },
        ];
        let layers = vec![MetricDef { name: "new layer".into(), unit: "ms" }];
        let problems = check(text, &["w1", "w2"], &e2e, &layers).join("\n");
        for expected in [
            "`lat` [ms] is emitted but not listed",
            "`lat` [us] is listed but not emitted",
            "`new layer` [ms] is emitted but not listed",
            "`old.layer` [ms] is listed but not emitted",
            "workload `w2` [] is emitted but not listed",
            "workload `gone` [] is listed but not emitted",
            "name `new layer` uses characters outside",
            "bound of `lat` is 0.3",
            "`setup_s` must carry the largest bound",
        ] {
            assert!(problems.contains(expected), "missing `{expected}` in:\n{problems}");
        }
    }
}
