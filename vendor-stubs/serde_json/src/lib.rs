//! Offline stand-in for `serde_json`: renders the stub serde [`Value`]
//! tree to JSON text and parses it back. Floats are printed with Rust's
//! shortest-roundtrip formatting, so `float_roundtrip` semantics hold by
//! construction; non-finite floats serialize as `null` (as in real
//! serde_json).

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::io::{Read, Write};

/// JSON (de)serialization error.
#[derive(Debug)]
pub struct Error(String);

impl Error {
    fn new(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error(e.to_string())
    }
}

/// Serialize a value to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value());
    Ok(out)
}

/// Serialize a value as JSON into a writer.
pub fn to_writer<W: Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<(), Error> {
    let s = to_string(value)?;
    writer.write_all(s.as_bytes())?;
    Ok(())
}

/// Deserialize a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing data at byte {}", p.pos)));
    }
    T::from_value(&v).map_err(Into::into)
}

/// Deserialize a value from a JSON reader.
pub fn from_reader<R: Read, T: Deserialize>(mut reader: R) -> Result<T, Error> {
    let mut s = String::new();
    reader.read_to_string(&mut s)?;
    from_str(&s)
}

// ------------------------------------------------------------- rendering

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::F64(x) => {
            if x.is_finite() {
                // `{:?}` is shortest-roundtrip and always keeps a ".0" or
                // exponent, so the value re-parses as a float.
                out.push_str(&format!("{x:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_json_string(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

fn write_json_string(out: &mut String, s: &str) {
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
}

// --------------------------------------------------------------- parsing

/// Deepest array/object nesting the parser accepts: it recurses per
/// level, and 128 is real `serde_json`'s limit.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::new(format!("bad literal at byte {}", self.pos)))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::new(format!("bad literal at byte {}", self.pos)))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::new(format!("bad literal at byte {}", self.pos)))
                }
            }
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    /// Parse a container one level deeper, refusing to pass [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::new(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::new(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(Error::new)?,
                                16,
                            )
                            .map_err(Error::new)?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::new(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).map_err(Error::new)?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(Error::new)?;
        if is_float {
            text.parse::<f64>().map(Value::F64).map_err(Error::new)
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Value::I64).map_err(Error::new)
        } else {
            match text.parse::<u64>() {
                Ok(u) => Ok(Value::U64(u)),
                Err(_) => text.parse::<f64>().map(Value::F64).map_err(Error::new),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        let x: f64 = from_str("1.5").unwrap();
        assert_eq!(x, 1.5);
        let y: f64 = from_str("3").unwrap();
        assert_eq!(y, 3.0);
        let s: String = from_str("\"a\\nb\"").unwrap();
        assert_eq!(s, "a\nb");
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for &x in &[0.1, 1.0 / 3.0, 6.02214076e23, -2.5e-8, f64::MIN_POSITIVE] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(x, back, "roundtrip of {x} via {s}");
        }
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![vec![1u64, 2], vec![3]];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[[1,2],[3]]");
        let back: Vec<Vec<u64>> = from_str(&s).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn nan_becomes_null() {
        let s = to_string(&f64::NAN).unwrap();
        assert_eq!(s, "null");
        let back: f64 = from_str(&s).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<f64>("nope").is_err());
        assert!(from_str::<Vec<u64>>("[1,").is_err());
        assert!(from_str::<f64>("1.5 x").is_err());
    }
}
