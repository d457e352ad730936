//! The one flat-JSON codec. [`JsonObject`] is the push-style writer that
//! every event dump line, span line and API response body is built
//! with; [`parse_flat_object`] reads a dump line back. The parser's
//! dialect is what the dumps emit: one object per line with string,
//! unsigned-integer and boolean values, no nesting. A hand-rolled pair
//! keeps the crate dependency-free (the `shims/` discipline).

use std::fmt::Write as _;

/// A value in a flat JSON object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// An unsigned integer.
    U64(u64),
    /// A string (unescaped).
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl JsonValue {
    /// The integer value, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Appends `raw` to `out` as the contents of a JSON string literal.
fn push_escaped(out: &mut String, raw: &str) {
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Appends `raw` to `out` as a quoted JSON string.
fn push_quoted(out: &mut String, raw: &str) {
    out.push('"');
    push_escaped(out, raw);
    out.push('"');
}

/// Builder for one JSON object (`{...}`), fields in call order.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_quoted(&mut self.buf, name);
        self.buf.push(':');
    }

    /// Adds an unsigned integer field.
    #[must_use]
    pub fn field_u64(mut self, name: &str, value: u64) -> Self {
        self.key(name);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a string field (escaped).
    #[must_use]
    pub fn field_str(mut self, name: &str, value: &str) -> Self {
        self.key(name);
        push_quoted(&mut self.buf, value);
        self
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn field_bool(mut self, name: &str, value: bool) -> Self {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON value (object, array, literal) verbatim.
    #[must_use]
    pub fn field_raw(mut self, name: &str, value: &str) -> Self {
        self.key(name);
        self.buf.push_str(value);
        self
    }

    /// Adds `value` as a number, or `null` when absent.
    #[must_use]
    pub fn field_opt_u64(self, name: &str, value: Option<u64>) -> Self {
        match value {
            Some(value) => self.field_u64(name, value),
            None => self.field_raw(name, "null"),
        }
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders a JSON array from pre-rendered element texts.
pub fn array(elements: impl IntoIterator<Item = String>) -> String {
    let mut buf = String::from("[");
    for (i, element) in elements.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&element);
    }
    buf.push(']');
    buf
}

/// Renders a JSON array of (escaped) strings.
pub fn string_array<S: AsRef<str>>(elements: impl IntoIterator<Item = S>) -> String {
    array(elements.into_iter().map(|element| {
        let mut quoted = String::new();
        push_quoted(&mut quoted, element.as_ref());
        quoted
    }))
}

/// Parses one flat JSON object (`{"k":v,...}`) into its key/value pairs,
/// preserving order. Rejects nesting, trailing garbage, and any syntax
/// outside the dialect the dumps emit.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let text = line.trim();
    let mut chars = text.char_indices().peekable();
    let mut fields = Vec::new();

    expect_char(text, &mut chars, '{')?;
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(text, &mut chars)?;
            skip_ws(&mut chars);
            expect_char(text, &mut chars, ':')?;
            skip_ws(&mut chars);
            let value = parse_value(text, &mut chars)?;
            fields.push((key, value));
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    skip_ws(&mut chars);
    if let Some((i, c)) = chars.next() {
        return Err(format!("trailing input at byte {i}: {c:?}"));
    }
    Ok(fields)
}

type Chars<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

fn skip_ws(chars: &mut Chars<'_>) {
    while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn expect_char(text: &str, chars: &mut Chars<'_>, want: char) -> Result<(), String> {
    match chars.next() {
        Some((_, c)) if c == want => Ok(()),
        Some((i, c)) => Err(format!(
            "expected {want:?} at byte {i}, got {c:?} in {text:?}"
        )),
        None => Err(format!("expected {want:?}, got end of input in {text:?}")),
    }
}

fn parse_string(text: &str, chars: &mut Chars<'_>) -> Result<String, String> {
    expect_char(text, chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".into()),
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, c) = chars.next().ok_or("truncated \\u escape")?;
                        code = code * 16 + c.to_digit(16).ok_or("bad \\u escape digit")?;
                    }
                    out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                }
                other => return Err(format!("unsupported escape {other:?}")),
            },
            Some((_, c)) => out.push(c),
        }
    }
}

fn parse_value(text: &str, chars: &mut Chars<'_>) -> Result<JsonValue, String> {
    match chars.peek() {
        Some((_, '"')) => Ok(JsonValue::Str(parse_string(text, chars)?)),
        Some((_, 't')) => parse_keyword(chars, "true").map(|_| JsonValue::Bool(true)),
        Some((_, 'f')) => parse_keyword(chars, "false").map(|_| JsonValue::Bool(false)),
        Some((_, c)) if c.is_ascii_digit() => {
            let mut n: u64 = 0;
            while let Some(d) = chars.peek().and_then(|(_, c)| c.to_digit(10)) {
                chars.next();
                n = n
                    .checked_mul(10)
                    .and_then(|n| n.checked_add(u64::from(d)))
                    .ok_or("integer overflow")?;
            }
            Ok(JsonValue::U64(n))
        }
        other => Err(format!("unsupported value start {other:?} in {text:?}")),
    }
}

fn parse_keyword(chars: &mut Chars<'_>, word: &str) -> Result<(), String> {
    for want in word.chars() {
        match chars.next() {
            Some((_, c)) if c == want => {}
            other => return Err(format!("expected keyword {word:?}, got {other:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_value_kind() {
        let line = JsonObject::new()
            .field_u64("n", u64::MAX)
            .field_str("s", "a\"b\\c\nd\u{1}")
            .field_bool("b", true)
            .finish();
        let fields = parse_flat_object(&line).unwrap();
        assert_eq!(fields[0], ("n".into(), JsonValue::U64(u64::MAX)));
        assert_eq!(
            fields[1],
            ("s".into(), JsonValue::Str("a\"b\\c\nd\u{1}".into()))
        );
        assert_eq!(fields[2], ("b".into(), JsonValue::Bool(true)));
    }

    #[test]
    fn rejects_trailing_garbage_and_nesting() {
        assert!(parse_flat_object("{\"a\":1} x").is_err());
        assert!(parse_flat_object("{\"a\":{}}").is_err());
        assert!(parse_flat_object("{\"a\":[1]}").is_err());
    }

    #[test]
    fn parses_empty_object() {
        assert!(parse_flat_object("{}").unwrap().is_empty());
    }

    #[test]
    fn escapes_quotes_and_control_bytes() {
        let text = JsonObject::new().field_str("k", "a\"b\\c\n\u{1}").finish();
        assert_eq!(text, "{\"k\":\"a\\\"b\\\\c\\n\\u0001\"}");
    }

    #[test]
    fn builds_nested_objects() {
        let inner = JsonObject::new().field_u64("sn", 7).finish();
        let text = JsonObject::new()
            .field_str("train", "ICE-1")
            .field_raw("blocks", &array([inner]))
            .field_opt_u64("next_sn", None)
            .finish();
        assert_eq!(
            text,
            "{\"train\":\"ICE-1\",\"blocks\":[{\"sn\":7}],\"next_sn\":null}"
        );
    }

    #[test]
    fn string_arrays_escape_elements() {
        assert_eq!(string_array(["a", "b\"c"]), "[\"a\",\"b\\\"c\"]");
    }
}
