//! Tiny std-only JSON validator and DOM parser.
//!
//! The CI gate runs a smoke bench with `--trace` and must confirm the
//! emitted file *parses* without shipping a JSON crate (the workspace is
//! dependency-free by policy). [`validate`] is a strict recursive-descent
//! recognizer for RFC 8259 JSON; [`parse`] is its DOM-building twin, added
//! for the `perf_gate` regression checker which must *compare* two
//! documents field by field, not merely accept them.

/// A parsed JSON value. Object member order is preserved (ledgers are
/// written with deterministic key order and the gate diffs them as flat
/// dotted paths, so ordering carries no semantics but keeps output stable).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; 64-bit hashes are ledger'd as hex
    /// *strings* precisely because this loses integer precision past 2⁵³).
    Num(f64),
    /// String with escapes resolved.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses `input` as exactly one JSON value into a [`Json`] DOM. Accepts
/// the same language as [`validate`].
pub fn parse(input: &str) -> Result<Json, String> {
    validate(input)?;
    let bytes = input.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    // Already validated, so the builders below cannot fail structurally.
    Ok(build(bytes, &mut pos))
}

/// Builds the DOM over an already-validated byte slice.
fn build(b: &[u8], pos: &mut usize) -> Json {
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b[*pos] == b'}' {
                *pos += 1;
                return Json::Obj(members);
            }
            loop {
                skip_ws(b, pos);
                let key = build_string(b, pos);
                skip_ws(b, pos);
                *pos += 1; // ':'
                skip_ws(b, pos);
                let val = build(b, pos);
                members.push((key, val));
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                } else {
                    *pos += 1; // '}'
                    return Json::Obj(members);
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b[*pos] == b']' {
                *pos += 1;
                return Json::Arr(items);
            }
            loop {
                skip_ws(b, pos);
                items.push(build(b, pos));
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                } else {
                    *pos += 1; // ']'
                    return Json::Arr(items);
                }
            }
        }
        b'"' => Json::Str(build_string(b, pos)),
        b't' => {
            *pos += 4;
            Json::Bool(true)
        }
        b'f' => {
            *pos += 5;
            Json::Bool(false)
        }
        b'n' => {
            *pos += 4;
            Json::Null
        }
        _ => {
            let start = *pos;
            let _ = number(b, pos);
            let text = std::str::from_utf8(&b[start..*pos]).unwrap_or("0");
            Json::Num(text.parse::<f64>().unwrap_or(f64::NAN))
        }
    }
}

/// Every leaf of `input` with the byte range of its text, in document
/// order, under the dotted path `perf_gate` flattens it to (`a.b.0.c`), so
/// a tool can rewrite single leaves and keep the rest of the document byte
/// for byte.
pub fn leaf_spans(input: &str) -> Result<Vec<(String, std::ops::Range<usize>)>, String> {
    validate(input)?;
    let (b, mut pos, mut out) = (input.as_bytes(), 0, Vec::new());
    skip_ws(b, &mut pos);
    walk(b, &mut pos, "", &mut out);
    Ok(out)
}

/// [`leaf_spans`] over the value at `pos` (already validated).
fn walk(b: &[u8], pos: &mut usize, path: &str, out: &mut Vec<(String, std::ops::Range<usize>)>) {
    let (open, close) = match b[*pos] {
        b'{' => (b'{', b'}'),
        b'[' => (b'[', b']'),
        _ => {
            let start = *pos;
            build(b, pos);
            out.push((path.to_string(), start..*pos));
            return;
        }
    };
    *pos += 1;
    skip_ws(b, pos);
    let mut index = 0;
    while b[*pos] != close {
        let child = if open == b'{' {
            let key = build_string(b, pos);
            skip_ws(b, pos);
            *pos += 1; // ':'
            skip_ws(b, pos);
            if path.is_empty() { key } else { format!("{path}.{key}") }
        } else {
            format!("{path}.{index}")
        };
        walk(b, pos, &child, out);
        index += 1;
        skip_ws(b, pos);
        if b[*pos] == b',' {
            *pos += 1;
            skip_ws(b, pos);
        }
    }
    *pos += 1;
}

fn build_string(b: &[u8], pos: &mut usize) -> String {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return out;
            }
            b'\\' => {
                *pos += 1;
                match b[*pos] {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = std::str::from_utf8(&b[*pos + 1..*pos + 5]).unwrap_or("0000");
                        let code = u32::from_str_radix(hex, 16).unwrap_or(0);
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => {}
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar (validation guaranteed the input
                // is a valid &str, so char boundaries are intact).
                let rest = std::str::from_utf8(&b[*pos..]).unwrap_or("");
                if let Some(c) = rest.chars().next() {
                    out.push(c);
                    *pos += c.len_utf8();
                } else {
                    *pos += 1;
                }
            }
        }
    }
}

/// Validates that `input` is exactly one JSON value (plus surrounding
/// whitespace). Returns the byte offset and a message on failure.
pub fn validate(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn err(pos: usize, msg: &str) -> String {
    format!("byte {pos}: {msg}")
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        None => Err(err(*pos, "expected a value, found end of input")),
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, "true"),
        Some(b'f') => literal(b, pos, "false"),
        Some(b'n') => literal(b, pos, "null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, pos),
        Some(c) => Err(err(*pos, &format!("unexpected byte {:?}", *c as char))),
    }
}

fn literal(b: &[u8], pos: &mut usize, word: &str) -> Result<(), String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(())
    } else {
        Err(err(*pos, &format!("expected `{word}`")))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected object key string"));
        }
        string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected `:` after object key"));
        }
        *pos += 1;
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(err(*pos, "expected `,` or `}` in object")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(err(*pos, "expected `,` or `]` in array")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match b.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => return Err(err(*pos, "bad \\u escape")),
                            }
                        }
                    }
                    _ => return Err(err(*pos, "bad escape sequence")),
                }
            }
            0x00..=0x1f => return Err(err(*pos, "unescaped control character in string")),
            _ => *pos += 1,
        }
    }
    Err(err(*pos, "unterminated string"))
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match b.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(c) if c.is_ascii_digit() => {
            while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
                *pos += 1;
            }
        }
        _ => return Err(err(*pos, "expected digit")),
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            return Err(err(*pos, "expected digit after decimal point"));
        }
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            return Err(err(*pos, "expected digit in exponent"));
        }
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_spans_name_and_locate_every_leaf() {
        let doc = r#"{"a": {"b": [1, "x\"y"]}, "c": -2.5e3, "d": {}, "e": null}"#;
        let spans = leaf_spans(doc).unwrap();
        let got: Vec<(&str, &str)> = spans.iter().map(|(p, r)| (p.as_str(), &doc[r.clone()])).collect();
        assert_eq!(
            got,
            [("a.b.0", "1"), ("a.b.1", r#""x\"y""#), ("c", "-2.5e3"), ("e", "null")]
        );
    }

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "true",
            "-0.5e+10",
            r#"{"a": [1, 2.5, "x\n", {"b": null}], "c": false}"#,
            "  { \"k\" : [ ] }  ",
            r#""é""#,
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc:?} rejected: {e}"));
        }
    }

    #[test]
    fn parse_builds_the_dom() {
        let doc = r#"{"a": [1, 2.5, "x\n"], "b": {"c": null, "d": true}, "e": -3e2}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("e").and_then(Json::as_num), Some(-300.0));
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Json::Bool(true)));
        match v.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items[0], Json::Num(1.0));
                assert_eq!(items[2], Json::Str("x\n".to_string()));
            }
            other => panic!("a: {other:?}"),
        }
        assert!(parse("{\"k\": }").is_err());
    }

    #[test]
    fn parse_resolves_escapes() {
        let v = parse(r#""é\t\"q\"""#).unwrap();
        assert_eq!(v.as_str(), Some("é\t\"q\""));
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad\\escape\"",
            "{} extra",
            "\"ctrl\u{1}char\"",
        ] {
            assert!(validate(doc).is_err(), "{doc:?} wrongly accepted");
        }
    }
}
