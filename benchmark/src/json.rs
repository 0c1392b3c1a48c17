//! The little JSON the benchmark needs: string escaping for the result
//! lines it writes, and a parser for the result files and
//! `BENCHMARK.json` that `report` reads back. No third-party crates are
//! available offline.

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// `s` as a quoted JSON string.
#[must_use]
pub fn escape(s: &str) -> String {
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

/// Parse one JSON document.
///
/// # Errors
/// A message naming the byte offset of the first thing that is not JSON,
/// including trailing text after the document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing text"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
            None => Err(self.fail("unexpected end")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.fail("expected ':'"));
            }
            members.push((key, self.value()?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(Json::Obj(members));
            }
            if !self.eat(",") {
                return Err(self.fail("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Json::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.fail("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.fail("expected string"));
        }
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\')
            {
                self.pos += 1;
            }
            let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.fail("invalid UTF-8"))?;
            out.push_str(chunk);
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.fail("unterminated escape"))?;
                    self.pos += 1;
                    match c {
                        b'"' | b'\\' | b'/' => out.push(c as char),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.pos += 4;
                            // surrogate pairs do not occur in the files this reads
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.fail("unknown escape")),
                    }
                }
                _ => return Err(self.fail("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.fail("expected a value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_result_line() {
        let line = format!(
            "{{\"workload\":{},\"ok\":true,\"n\":null,\"metrics\":{{\"a.b\":{{\"value\":1.5e3,\"unit\":\"ms\"}}}},\"xs\":[1,-2.5,[]]}}",
            escape("in\"dep\\d7\n")
        );
        let v = parse(&line).unwrap();
        assert_eq!(
            v.get("workload").and_then(Json::as_str),
            Some("in\"dep\\d7\n")
        );
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("n"), Some(&Json::Null));
        let m = v.get("metrics").and_then(|m| m.get("a.b")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1500.0));
        assert_eq!(
            v.get("xs").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "tru", "{} x", "\"abc"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
