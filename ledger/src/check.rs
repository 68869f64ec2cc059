//! The ground-truth verdict checker.
//!
//! It is independent of the engine: it reads only the JSON report text
//! a verdict produced (solo `to_json` bytes, or the daemon's `output`
//! field) with its own JSON reader, and compares it with what the
//! generator planted.
//!
//! - Presets and mega programs: the race count is twice the number of
//!   planted racy fields, and the set of race locations equals the
//!   planted set. Seeded access-duplication edits keep both.
//! - Real-bug models: the race count equals the model's
//!   `expected_races`.

use std::collections::{BTreeMap, BTreeSet};

/// The known answer for one input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Truth {
    /// Racy fields planted by the generator (plain field names).
    Planted(BTreeSet<String>),
    /// A real-bug model's confirmed race count.
    Count(usize),
}

impl Truth {
    pub fn planted(fields: &[String]) -> Truth {
        Truth::Planted(fields.iter().cloned().collect())
    }
}

/// A parsed JSON value (the subset reports and responses use).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one JSON document in linear time.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut r = Reader {
        b: text.as_bytes(),
        pos: 0,
    };
    let v = r.value()?;
    r.ws();
    if r.pos != r.b.len() {
        return Err(format!("trailing bytes at {}", r.pos));
    }
    Ok(v)
}

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while self.pos < self.b.len() && self.b[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.b.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    let v = self.value()?;
                    m.insert(k, v);
                    self.ws();
                    match self.b.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(m));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut v = Vec::new();
                self.ws();
                if self.b.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                loop {
                    v.push(self.value()?);
                    self.ws();
                    match self.b.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(v));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => {
                let start = self.pos;
                while self.pos < self.b.len()
                    && matches!(
                        self.b[self.pos],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.pos += 1;
                }
                let s = std::str::from_utf8(&self.b[start..self.pos]).map_err(|e| e.to_string())?;
                s.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number {s:?} at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.b[self.pos..].starts_with(w.as_bytes()) {
            self.pos += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.b.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let e = *self.b.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.b.get(self.pos..self.pos + 4).ok_or("short \\u")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            let ch = char::from_u32(cp).ok_or("bad \\u code point")?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

/// Checks one JSON race report against `truth`. `Err` names the first
/// disagreement.
pub fn check_report(report_json: &str, truth: &Truth) -> Result<(), String> {
    let report = parse_json(report_json).map_err(|e| format!("report is not JSON: {e}"))?;
    let races = match report.get("races") {
        Some(Json::Arr(v)) => v,
        _ => return Err("report has no \"races\" array".into()),
    };
    let mut locations = BTreeSet::new();
    for r in races {
        let loc = r
            .get("location")
            .and_then(Json::as_str)
            .ok_or("race without a location")?;
        // Static locations print as `Class::field`; planted names are
        // plain field names.
        let field = loc.rsplit("::").next().unwrap_or(loc);
        locations.insert(field.to_string());
    }
    match truth {
        Truth::Count(n) => {
            if races.len() != *n {
                return Err(format!("{} races, expected {n}", races.len()));
            }
        }
        Truth::Planted(fields) => {
            if races.len() != 2 * fields.len() {
                return Err(format!(
                    "{} races, expected {} (2 x {} planted fields)",
                    races.len(),
                    2 * fields.len(),
                    fields.len()
                ));
            }
            if &locations != fields {
                let extra: Vec<_> = locations.difference(fields).collect();
                let missing: Vec<_> = fields.difference(&locations).collect();
                return Err(format!(
                    "race locations differ: extra {extra:?}, missing {missing:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Checks one daemon response line: it must be an `ok` analyze answer
/// whose `output` report passes [`check_report`].
pub fn check_response(line: &str, truth: &Truth) -> Result<Json, String> {
    let resp = parse_json(line).map_err(|e| format!("response is not JSON: {e}"))?;
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = resp.get("error").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("error response: {msg}"));
    }
    let output = resp
        .get("output")
        .and_then(Json::as_str)
        .ok_or("response has no output")?;
    check_report(output, truth)?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn race(loc: &str) -> String {
        format!(
            "{{\"location\": \"{loc}\", \"tier\": \"high\", \"score\": 3, \"a\": {{}}, \"b\": {{}}, \"notes\": []}}"
        )
    }

    fn report(locs: &[&str]) -> String {
        let races: Vec<String> = locs.iter().map(|l| race(l)).collect();
        format!(
            "{{\n  \"races\": [\n    {}\n  ],\n  \"tiers\": {{\"high\": {}, \"medium\": 0, \"low\": 0}},\n  \"pruned\": []\n}}\n",
            races.join(",\n    "),
            locs.len()
        )
    }

    fn planted(fields: &[&str]) -> Truth {
        Truth::Planted(fields.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn accepts_the_planted_set() {
        let r = report(&["count", "count", "Globals::hot0", "Globals::hot0"]);
        assert_eq!(check_report(&r, &planted(&["count", "hot0"])), Ok(()));
        assert_eq!(check_report(&r, &Truth::Count(4)), Ok(()));
    }

    #[test]
    fn rejects_a_dropped_race() {
        let r = report(&["count", "count", "hot0"]);
        let err = check_report(&r, &planted(&["count", "hot0"])).unwrap_err();
        assert!(err.contains("3 races, expected 4"), "{err}");
        assert!(check_report(&r, &Truth::Count(4)).is_err());
    }

    #[test]
    fn rejects_an_extra_location() {
        let r = report(&["count", "count", "bait", "bait"]);
        let err = check_report(&r, &planted(&["count", "hot0"])).unwrap_err();
        assert!(err.contains("extra [\"bait\"]"), "{err}");
        assert!(err.contains("missing [\"hot0\"]"), "{err}");
    }

    #[test]
    fn rejects_an_error_response() {
        let line = r#"{"ok":false,"error":"parse error at 3:1","stage":"parse"}"#;
        let err = check_response(line, &Truth::Count(0)).unwrap_err();
        assert!(err.contains("parse error"), "{err}");
        assert!(check_response("not json", &Truth::Count(0)).is_err());
    }

    #[test]
    fn reads_the_report_out_of_a_response() {
        let out = report(&["x", "x"]);
        let line = format!(
            "{{\"ok\":true,\"op\":\"analyze\",\"races\":2,\"output\":\"{}\"}}",
            out.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        );
        assert!(check_response(&line, &planted(&["x"])).is_ok());
        assert!(check_response(&line, &planted(&["y"])).is_err());
    }
}
