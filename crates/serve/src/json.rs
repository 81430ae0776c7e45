//! Minimal JSON parser/serialiser for the HTTP frontend.
//!
//! The offline dependency set has no JSON crate, and the serving protocol
//! only needs objects, arrays, strings, numbers, booleans and null — a
//! hand-rolled recursive-descent parser covers that in a few hundred
//! lines.  Numbers are kept as `f64` (every id in the protocol is far
//! below 2^53, so the round-trip through a double is exact).
//!
//! One grammar, one parser: [`JsonSlab::parse`] is an **arena parser**.
//! Nodes land in a reusable flat `Vec` and decoded string bytes in a
//! reusable byte buffer, so parsing a request body performs zero
//! allocations once the slab's capacity has warmed up.  It reads raw
//! `&[u8]` (HTTP bodies arrive as bytes) and validates UTF-8 once per
//! escape-free run of a string.  [`JsonValue::parse`], the owned tree
//! that clients and tests use, is a fresh slab plus [`JsonRef::to_value`].
//!
//! One serialiser: [`write_json_str`] and [`write_json_num`] append to a
//! byte buffer (the response handlers' direct path), and [`JsonValue`]'s
//! `Display` is written through them.
//!
//! The parser bounds recursion at [`MAX_DEPTH`] so adversarially nested
//! input (`[[[[…`) is a parse error, not a stack overflow.

use std::fmt;

/// Nesting bound of the parser: deeper documents are rejected with a
/// parse error instead of risking stack exhaustion.  The serving
/// protocol needs depth 2.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document into an owned tree: a fresh
    /// [`JsonSlab`] plus [`JsonRef::to_value`], so the grammar is the
    /// slab's.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        JsonSlab::new().parse(text.as_bytes()).map(|v| v.to_value()).map_err(|e| e.to_string())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (ids, counts).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An array of non-negative integers (item/user id lists).
    pub fn as_usize_arr(&self) -> Option<Vec<usize>> {
        self.as_arr()?.iter().map(JsonValue::as_usize).collect()
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A number from a usize (exact below 2^53).
    pub fn num(n: usize) -> JsonValue {
        JsonValue::Num(n as f64)
    }

    /// Append the value's JSON text to `out` through [`write_json_str`]
    /// and [`write_json_num`].
    fn write_json(&self, out: &mut Vec<u8>) {
        match self {
            JsonValue::Null => out.extend_from_slice(b"null"),
            JsonValue::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            JsonValue::Num(n) => write_json_num(out, *n),
            JsonValue::Str(s) => write_json_str(out, s),
            JsonValue::Arr(items) => {
                out.push(b'[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    v.write_json(out);
                }
                out.push(b']');
            }
            JsonValue::Obj(fields) => {
                out.push(b'{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_json_str(out, k);
                    out.push(b':');
                    v.write_json(out);
                }
                out.push(b'}');
            }
        }
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Vec::new();
        self.write_json(&mut out);
        // The writers emit UTF-8 only, so the check cannot fail.
        f.write_str(std::str::from_utf8(&out).map_err(|_| fmt::Error)?)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Scan one number at `*pos` with the RFC 8259 grammar
/// (`-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`) — no leading
/// `+`, no leading zeros, no empty fraction or exponent — and advance past
/// it.  A leading zero ends the number, so `01` fails on the trailing
/// `1`.
fn scan_number(bytes: &[u8], pos: &mut usize) -> Option<f64> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos > from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ => return None,
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return None;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return None;
        }
    }
    // The scanned span is ASCII, so the UTF-8 check cannot fail.
    std::str::from_utf8(&bytes[start..*pos]).ok()?.parse().ok()
}

/// The code point of a `\u` escape whose four hex digits start at
/// `bytes[at]`: exactly four ASCII hex digits, or `None` (a bare
/// `from_str_radix` would also take a leading `+`).
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    let hex = bytes.get(at..at + 4)?;
    hex.iter().try_fold(0u32, |code, &b| Some(code * 16 + (b as char).to_digit(16)?))
}

// ---------------------------------------------------------------------
// Arena parser (allocation-free steady state)
// ---------------------------------------------------------------------

/// Parse error: a byte offset plus a static message, so the error path
/// performs no allocation either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the parse failed at.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
enum Payload {
    Null,
    Bool(bool),
    Num(f64),
    /// Span into [`JsonSlab::text`] (escapes already decoded).
    Str {
        start: u32,
        len: u32,
    },
    /// Sibling-linked children starting at node `first`.
    Arr {
        first: u32,
        len: u32,
    },
    Obj {
        first: u32,
        len: u32,
    },
}

#[derive(Debug, Clone, Copy)]
struct SlabNode {
    payload: Payload,
    /// Key span into [`JsonSlab::text`] when this node is an object
    /// entry; `(0, 0)` otherwise.
    key: (u32, u32),
    /// Next sibling node, [`NIL`]-terminated.
    next: u32,
}

/// Reusable parse arena: nodes in one flat `Vec`, decoded string bytes in
/// one byte buffer.  [`JsonSlab::parse`] clears both (retaining their
/// capacity) and refills them, so a slab that has seen a request of each
/// shape parses subsequent requests without touching the allocator.
#[derive(Default)]
pub struct JsonSlab {
    nodes: Vec<SlabNode>,
    text: Vec<u8>,
}

/// A handle to one value inside a [`JsonSlab`] — the arena analogue of
/// `&JsonValue`, with the same accessor vocabulary.
#[derive(Clone, Copy)]
pub struct JsonRef<'a> {
    slab: &'a JsonSlab,
    idx: u32,
}

impl JsonSlab {
    /// An empty slab (no capacity reserved; it warms up on first use).
    pub fn new() -> Self {
        JsonSlab::default()
    }

    /// Parse a complete JSON document from raw bytes (rejects trailing
    /// garbage, nesting beyond [`MAX_DEPTH`], and invalid UTF-8 or raw
    /// control characters inside strings).
    pub fn parse(&mut self, bytes: &[u8]) -> Result<JsonRef<'_>, JsonError> {
        self.nodes.clear();
        self.text.clear();
        let mut pos = 0usize;
        let root = self.parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError { at: pos, msg: "trailing characters" });
        }
        Ok(JsonRef { slab: self, idx: root })
    }

    /// Parse an HTTP request body: an empty body means "no fields", like
    /// the frontend's historical `parse_body` behaviour.
    pub fn parse_body(&mut self, bytes: &[u8]) -> Result<JsonRef<'_>, JsonError> {
        if bytes.is_empty() {
            self.nodes.clear();
            self.text.clear();
            self.nodes.push(SlabNode {
                payload: Payload::Obj { first: NIL, len: 0 },
                key: (0, 0),
                next: NIL,
            });
            return Ok(JsonRef { slab: self, idx: 0 });
        }
        self.parse(bytes)
    }

    fn push(&mut self, payload: Payload) -> Result<u32, JsonError> {
        let idx = self.nodes.len();
        if idx >= NIL as usize {
            return Err(JsonError { at: 0, msg: "document too large" });
        }
        self.nodes.push(SlabNode { payload, key: (0, 0), next: NIL });
        Ok(idx as u32)
    }

    fn parse_value(
        &mut self,
        bytes: &[u8],
        pos: &mut usize,
        depth: usize,
    ) -> Result<u32, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError { at: *pos, msg: "nesting too deep" });
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err(JsonError { at: *pos, msg: "unexpected end of input" }),
            Some(b'{') => self.parse_container(bytes, pos, depth, true),
            Some(b'[') => self.parse_container(bytes, pos, depth, false),
            Some(b'"') => {
                let (start, len) = self.decode_string(bytes, pos)?;
                self.push(Payload::Str { start, len })
            }
            Some(b't') => self.parse_keyword(bytes, pos, b"true", Payload::Bool(true)),
            Some(b'f') => self.parse_keyword(bytes, pos, b"false", Payload::Bool(false)),
            Some(b'n') => self.parse_keyword(bytes, pos, b"null", Payload::Null),
            Some(_) => self.parse_number(bytes, pos),
        }
    }

    fn parse_keyword(
        &mut self,
        bytes: &[u8],
        pos: &mut usize,
        word: &'static [u8],
        payload: Payload,
    ) -> Result<u32, JsonError> {
        if bytes[*pos..].starts_with(word) {
            *pos += word.len();
            self.push(payload)
        } else {
            Err(JsonError { at: *pos, msg: "invalid literal" })
        }
    }

    fn parse_number(&mut self, bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
        let start = *pos;
        let n = scan_number(bytes, pos).ok_or(JsonError { at: start, msg: "invalid number" })?;
        self.push(Payload::Num(n))
    }

    fn parse_container(
        &mut self,
        bytes: &[u8],
        pos: &mut usize,
        depth: usize,
        is_obj: bool,
    ) -> Result<u32, JsonError> {
        let (open, close) = if is_obj { (b'{', b'}') } else { (b'[', b']') };
        self.expect(bytes, pos, open)?;
        // Reserve the container node now so the root keeps a stable index;
        // children patch into it as they are linked.
        let container = self.push(if is_obj {
            Payload::Obj { first: NIL, len: 0 }
        } else {
            Payload::Arr { first: NIL, len: 0 }
        })?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&close) {
            *pos += 1;
            return Ok(container);
        }
        let mut first = NIL;
        let mut last = NIL;
        let mut len = 0u32;
        loop {
            let key = if is_obj {
                skip_ws(bytes, pos);
                let key = self.decode_string(bytes, pos)?;
                skip_ws(bytes, pos);
                self.expect(bytes, pos, b':')?;
                key
            } else {
                (0, 0)
            };
            let child = self.parse_value(bytes, pos, depth + 1)?;
            self.nodes[child as usize].key = key;
            if first == NIL {
                first = child;
            } else {
                self.nodes[last as usize].next = child;
            }
            last = child;
            len += 1;
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(c) if *c == close => {
                    *pos += 1;
                    break;
                }
                _ => {
                    return Err(JsonError {
                        at: *pos,
                        msg: if is_obj { "expected ',' or '}'" } else { "expected ',' or ']'" },
                    })
                }
            }
        }
        self.nodes[container as usize].payload =
            if is_obj { Payload::Obj { first, len } } else { Payload::Arr { first, len } };
        Ok(container)
    }

    /// Decode one JSON string into `text`, returning its span.  Raw runs
    /// are UTF-8-validated before they are copied, and raw control
    /// characters (U+0000–U+001F, which RFC 8259 §7 requires escaped) are
    /// rejected; unpaired `\u` surrogates become the replacement
    /// character.
    fn decode_string(&mut self, bytes: &[u8], pos: &mut usize) -> Result<(u32, u32), JsonError> {
        self.expect(bytes, pos, b'"')?;
        let start = self.text.len();
        if start + bytes.len() >= NIL as usize {
            return Err(JsonError { at: *pos, msg: "document too large" });
        }
        let mut run = *pos; // start of the current escape-free run
        loop {
            match bytes.get(*pos) {
                None => return Err(JsonError { at: *pos, msg: "unterminated string" }),
                Some(b'"') => {
                    self.copy_run(bytes, run, *pos)?;
                    *pos += 1;
                    let len = self.text.len() - start;
                    return Ok((start as u32, len as u32));
                }
                Some(b'\\') => {
                    self.copy_run(bytes, run, *pos)?;
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => self.text.push(b'"'),
                        Some(b'\\') => self.text.push(b'\\'),
                        Some(b'/') => self.text.push(b'/'),
                        Some(b'n') => self.text.push(b'\n'),
                        Some(b'r') => self.text.push(b'\r'),
                        Some(b't') => self.text.push(b'\t'),
                        Some(b'b') => self.text.push(0x08),
                        Some(b'f') => self.text.push(0x0c),
                        Some(b'u') => {
                            let code = hex4(bytes, *pos + 1)
                                .ok_or(JsonError { at: *pos, msg: "invalid \\u escape" })?;
                            let c = char::from_u32(code).unwrap_or('\u{fffd}');
                            let mut buf = [0u8; 4];
                            self.text.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                            *pos += 4;
                        }
                        _ => return Err(JsonError { at: *pos, msg: "invalid escape" }),
                    }
                    *pos += 1;
                    run = *pos;
                }
                Some(&b) if b < 0x20 => {
                    return Err(JsonError { at: *pos, msg: "unescaped control character" })
                }
                Some(_) => *pos += 1,
            }
        }
    }

    fn copy_run(&mut self, bytes: &[u8], from: usize, to: usize) -> Result<(), JsonError> {
        if from == to {
            return Ok(());
        }
        std::str::from_utf8(&bytes[from..to])
            .map_err(|_| JsonError { at: from, msg: "invalid UTF-8 in string" })?;
        self.text.extend_from_slice(&bytes[from..to]);
        Ok(())
    }

    fn expect(&self, bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
        if bytes.get(*pos) == Some(&byte) {
            *pos += 1;
            Ok(())
        } else {
            Err(JsonError { at: *pos, msg: "unexpected character" })
        }
    }

    fn node(&self, idx: u32) -> &SlabNode {
        &self.nodes[idx as usize]
    }

    fn span(&self, start: u32, len: u32) -> &str {
        // Spans are produced by `decode_string`, which only stores
        // validated UTF-8; the unwrap cannot fire.
        std::str::from_utf8(&self.text[start as usize..(start + len) as usize]).unwrap_or("")
    }
}

impl<'a> JsonRef<'a> {
    /// Object field lookup (the arena analogue of [`JsonValue::get`]).
    pub fn get(&self, key: &str) -> Option<JsonRef<'a>> {
        let Payload::Obj { first, .. } = self.slab.node(self.idx).payload else {
            return None;
        };
        let mut cur = first;
        while cur != NIL {
            let node = self.slab.node(cur);
            if self.slab.span(node.key.0, node.key.1) == key {
                return Some(JsonRef { slab: self.slab, idx: cur });
            }
            cur = node.next;
        }
        None
    }

    /// The value as a non-negative integer (ids, counts).
    pub fn as_usize(&self) -> Option<usize> {
        match self.slab.node(self.idx).payload {
            Payload::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => {
                Some(n as usize)
            }
            _ => None,
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self.slab.node(self.idx).payload {
            Payload::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self.slab.node(self.idx).payload {
            Payload::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice (borrowing the slab's text buffer).
    pub fn as_str(&self) -> Option<&'a str> {
        match self.slab.node(self.idx).payload {
            Payload::Str { start, len } => Some(self.slab.span(start, len)),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self.slab.node(self.idx).payload, Payload::Null)
    }

    /// Whether the value is an array.
    pub fn is_arr(&self) -> bool {
        matches!(self.slab.node(self.idx).payload, Payload::Arr { .. })
    }

    /// Child count of an array or object (`None` for scalars).
    pub fn len(&self) -> Option<usize> {
        match self.slab.node(self.idx).payload {
            Payload::Arr { len, .. } | Payload::Obj { len, .. } => Some(len as usize),
            _ => None,
        }
    }

    /// Whether the value is an empty array or object.
    pub fn is_empty(&self) -> Option<bool> {
        self.len().map(|n| n == 0)
    }

    /// Iterate the items of an array or the values of an object.  Empty
    /// for scalars.
    pub fn children(&self) -> JsonChildren<'a> {
        let first = match self.slab.node(self.idx).payload {
            Payload::Arr { first, .. } | Payload::Obj { first, .. } => first,
            _ => NIL,
        };
        JsonChildren { slab: self.slab, cur: first }
    }

    /// Copy this value into an owned [`JsonValue`] tree — how
    /// [`JsonValue::parse`] builds its result.
    pub fn to_value(&self) -> JsonValue {
        let node = self.slab.node(self.idx);
        match node.payload {
            Payload::Null => JsonValue::Null,
            Payload::Bool(b) => JsonValue::Bool(b),
            Payload::Num(n) => JsonValue::Num(n),
            Payload::Str { start, len } => JsonValue::Str(self.slab.span(start, len).to_string()),
            Payload::Arr { .. } => JsonValue::Arr(self.children().map(|c| c.to_value()).collect()),
            Payload::Obj { first, .. } => {
                let mut fields = Vec::new();
                let mut cur = first;
                while cur != NIL {
                    let child = self.slab.node(cur);
                    fields.push((
                        self.slab.span(child.key.0, child.key.1).to_string(),
                        JsonRef { slab: self.slab, idx: cur }.to_value(),
                    ));
                    cur = child.next;
                }
                JsonValue::Obj(fields)
            }
        }
    }
}

/// Iterator over the children of an array or object node.
pub struct JsonChildren<'a> {
    slab: &'a JsonSlab,
    cur: u32,
}

impl<'a> Iterator for JsonChildren<'a> {
    type Item = JsonRef<'a>;

    fn next(&mut self) -> Option<JsonRef<'a>> {
        if self.cur == NIL {
            return None;
        }
        let idx = self.cur;
        self.cur = self.slab.node(idx).next;
        Some(JsonRef { slab: self.slab, idx })
    }
}

/// Append `s` to `out` as a JSON string literal (quotes, backslashes and
/// control characters escaped) — the direct-write path response handlers
/// use to avoid building a tree, and the one [`JsonValue`]'s `Display`
/// goes through.
pub fn write_json_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    for c in s.chars() {
        match c {
            '"' => out.extend_from_slice(b"\\\""),
            '\\' => out.extend_from_slice(b"\\\\"),
            '\n' => out.extend_from_slice(b"\\n"),
            '\r' => out.extend_from_slice(b"\\r"),
            '\t' => out.extend_from_slice(b"\\t"),
            c if (c as u32) < 0x20 => {
                use std::io::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => {
                let mut buf = [0u8; 4];
                out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
            }
        }
    }
    out.push(b'"');
}

/// Append `n` to `out` with integer-exact formatting (whole numbers
/// render without a fraction); [`JsonValue`]'s `Display` goes through it
/// too.
pub fn write_json_num(out: &mut Vec<u8>, n: f64) {
    use std::io::Write;
    if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = JsonValue::parse(
            r#"{"user": 3, "history": [1, 2, 30], "objective": 7, "quantile": 0.5, "label": "v2"}"#,
        )
        .unwrap();
        assert_eq!(v.get("user").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("history").unwrap().as_usize_arr(), Some(vec![1, 2, 30]));
        assert_eq!(v.get("objective").unwrap().as_usize(), Some(7));
        assert_eq!(v.get("quantile").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("label").unwrap().as_str(), Some("v2"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn round_trips_through_display() {
        let v = JsonValue::obj(vec![
            ("ok", JsonValue::Bool(true)),
            ("item", JsonValue::Null),
            ("ids", JsonValue::Arr(vec![JsonValue::num(1), JsonValue::num(2)])),
            ("name", JsonValue::from("he said \"hi\"\n")),
        ]);
        let text = v.to_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
        for doc in [
            r#"{"a": [1, {"b": null}, "x"], "c": true, "d": -2.5e3}"#,
            r#"[[], {}, "he said \"hi\"", 0.125]"#,
            "42",
            r#""\u0041\u00e9""#,
        ] {
            let v = JsonValue::parse(doc).unwrap();
            assert_eq!(JsonValue::parse(&v.to_string()).unwrap(), v, "round trip changed {doc}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "nulls", "{} trailing", "\"unterminated"] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn numbers_render_integers_exactly() {
        assert_eq!(JsonValue::num(123456789).to_string(), "123456789");
        assert_eq!(JsonValue::Num(0.25).to_string(), "0.25");
        assert_eq!(JsonValue::Num(-3.0).to_string(), "-3");
    }

    #[test]
    fn escapes_control_characters() {
        let v = JsonValue::from("tab\there");
        assert_eq!(v.to_string(), "\"tab\\there\"");
        let v = JsonValue::Str("\u{1}".into());
        assert_eq!(v.to_string(), "\"\\u0001\"");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(MAX_DEPTH * 4);
        assert!(JsonValue::parse(&deep).is_err());
        let mut slab = JsonSlab::new();
        assert!(slab.parse(deep.as_bytes()).is_err());
        // A document at a comfortable depth still parses.
        let ok = format!("{}1{}", "[".repeat(8), "]".repeat(8));
        assert!(JsonValue::parse(&ok).is_ok());
        assert!(slab.parse(ok.as_bytes()).is_ok());
    }

    #[test]
    fn slab_parses_the_protocol_shapes() {
        let mut slab = JsonSlab::new();
        let v = slab
            .parse(br#"{"user": 3, "history": [1, 2, 30], "objective": 7, "label": "v\n2"}"#)
            .unwrap();
        assert_eq!(v.get("user").unwrap().as_usize(), Some(3));
        let history: Vec<usize> =
            v.get("history").unwrap().children().map(|c| c.as_usize().unwrap()).collect();
        assert_eq!(history, vec![1, 2, 30]);
        assert_eq!(v.get("history").unwrap().len(), Some(3));
        assert_eq!(v.get("objective").unwrap().as_usize(), Some(7));
        assert_eq!(v.get("label").unwrap().as_str(), Some("v\n2"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn slab_rejects_invalid_utf8_in_strings() {
        let mut slab = JsonSlab::new();
        let mut doc = b"{\"k\": \"a".to_vec();
        doc.push(0xff);
        doc.extend_from_slice(b"b\"}");
        assert!(slab.parse(&doc).is_err());
    }

    #[test]
    fn slab_reuses_capacity_across_parses() {
        let mut slab = JsonSlab::new();
        let doc = br#"{"user": 1, "history": [1, 2, 3], "objective": 9}"#;
        slab.parse(doc).unwrap();
        let nodes_cap = slab.nodes.capacity();
        let text_cap = slab.text.capacity();
        for _ in 0..64 {
            slab.parse(doc).unwrap();
        }
        assert_eq!(slab.nodes.capacity(), nodes_cap);
        assert_eq!(slab.text.capacity(), text_cap);
    }
}
