//! Rows and values, and the one codec of the row format every tier stores:
//! a `u16 LE` value count, then per value a tag byte — `0` i64 LE, `1` f64
//! LE, `2` u32 LE length + UTF-8 bytes. [`read_field`] and [`write_field`]
//! are the only code that knows the tags; the engine's rows, the pushdown
//! program's constants and the eval kernels' records all go through them.
//! Decoding never panics: bytes that are truncated or carry an unknown tag
//! are an error.

use std::borrow::Cow;
use std::fmt;

use crate::StorageError;

/// A single value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(String),
}

impl Value {
    #[inline]
    pub(crate) fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    #[inline]
    pub(crate) fn as_float(&self) -> f64 {
        match self {
            Value::Float(v) => *v,
            Value::Int(v) => *v as f64,
            other => panic!("expected Float, got {other:?}"),
        }
    }

    #[inline]
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected Str, got {other:?}"),
        }
    }

    /// The field this value encodes as.
    #[inline]
    pub(crate) fn field(&self) -> Field<'_> {
        match self {
            Value::Int(v) => Field::Int(*v),
            Value::Float(v) => Field::Float(*v),
            Value::Str(s) => Field::Str(s.as_bytes()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v:.4}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One encoded field, borrowed from the bytes it was read from. Text stays
/// raw bytes: the eval kernels compare and re-emit it without decoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Field<'a> {
    Int(i64),
    Float(f64),
    Str(&'a [u8]),
}

impl Field<'_> {
    /// Encoded size: the tag byte and the payload.
    #[inline]
    pub(crate) fn encoded_len(self) -> usize {
        1 + match self {
            Field::Int(_) | Field::Float(_) => 8,
            Field::Str(s) => 4 + s.len(),
        }
    }

    /// The owned value; text that is not UTF-8 is repaired, not rejected.
    #[inline]
    pub(crate) fn to_value(self) -> Value {
        match self {
            Field::Int(v) => Value::Int(v),
            Field::Float(v) => Value::Float(v),
            Field::Str(raw) => Value::Str(text(raw).into_owned()),
        }
    }
}

/// `encode` only writes valid UTF-8, which the word-at-a-time validator
/// accepts several times faster than the lossy chunker walks it; foreign
/// bytes are still repaired.
#[inline(always)]
fn text(raw: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(raw) {
        Ok(s) => Cow::Borrowed(s),
        Err(_) => String::from_utf8_lossy(raw),
    }
}

#[cold]
fn corrupt() -> StorageError {
    StorageError::Unavailable("corrupt row encoding".into())
}

/// The `N` bytes at `*off`, moving `*off` past them.
#[inline(always)]
fn take<const N: usize>(bytes: &[u8], off: &mut usize) -> Option<[u8; N]> {
    let b = bytes.get(*off..*off + N)?.try_into().ok()?;
    *off += N;
    Some(b)
}

/// Read the field at `*off` and move `*off` past it: the one reader of the
/// field tags. `None` when the field is truncated or its tag is unknown.
#[inline(always)]
pub(crate) fn read_field<'a>(bytes: &'a [u8], off: &mut usize) -> Option<Field<'a>> {
    let tag = *bytes.get(*off)?;
    *off += 1;
    Some(match tag {
        0 => Field::Int(i64::from_le_bytes(take(bytes, off)?)),
        1 => Field::Float(f64::from_le_bytes(take(bytes, off)?)),
        2 => {
            let len = u32::from_le_bytes(take(bytes, off)?) as usize;
            let raw = bytes.get(*off..*off + len)?;
            *off += len;
            Field::Str(raw)
        }
        _ => return None,
    })
}

/// Append `field`'s encoding to `buf`: the one writer of the field tags.
#[inline(always)]
pub(crate) fn write_field(buf: &mut Vec<u8>, field: Field<'_>) {
    match field {
        Field::Int(v) => {
            buf.push(0);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        Field::Float(v) => {
            buf.push(1);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        Field::Str(s) => {
            buf.push(2);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s);
        }
    }
}

/// The value count at the front of a row encoding.
#[inline(always)]
pub(crate) fn read_count(bytes: &[u8]) -> Option<usize> {
    Some(u16::from_le_bytes(take(bytes, &mut 0)?) as usize)
}

/// Read the `n` fields after the value count, handing `each` every field
/// with its index. Returns the bytes the row takes, count included.
#[inline(always)]
pub(crate) fn read_fields<'a>(
    bytes: &'a [u8],
    n: usize,
    mut each: impl FnMut(usize, Field<'a>),
) -> Option<usize> {
    let mut off = 2;
    for i in 0..n {
        each(i, read_field(bytes, &mut off)?);
    }
    Some(off)
}

/// A row of values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row(pub Vec<Value>);

impl Row {
    #[inline]
    pub fn new(values: Vec<Value>) -> Row {
        Row(values)
    }

    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    #[inline]
    pub fn int(&self, i: usize) -> i64 {
        self.0[i].as_int()
    }

    #[inline]
    pub fn float(&self, i: usize) -> f64 {
        self.0[i].as_float()
    }

    #[inline]
    pub fn str(&self, i: usize) -> &str {
        self.0[i].as_str()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Serialized length in bytes (for memory-grant accounting).
    #[inline]
    pub fn encoded_len(&self) -> usize {
        2 + self
            .0
            .iter()
            .map(|v| v.field().encoded_len())
            .sum::<usize>()
    }

    /// Append the compact encoding to `buf`.
    #[inline]
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.0.len() as u16).to_le_bytes());
        for v in &self.0 {
            write_field(buf, v.field());
        }
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf
    }

    /// Decode one row from the start of `bytes`, returning it and the number
    /// of bytes consumed.
    pub fn decode(bytes: &[u8]) -> Result<(Row, usize), StorageError> {
        let n = read_count(bytes).ok_or_else(corrupt)?;
        let mut values = Vec::with_capacity(n);
        let used =
            read_fields(bytes, n, |_, field| values.push(field.to_value())).ok_or_else(corrupt)?;
        Ok((Row(values), used))
    }

    /// [`Row::decode`] over whatever `self` held, keeping its `Vec<Value>`
    /// and the capacity of every `String` a text column lands on: a loop that
    /// reads rows of one shape through one `Row` stops allocating after the
    /// first. Returns the bytes consumed; on an error `self` holds whatever
    /// was decoded before it.
    pub fn decode_into(&mut self, bytes: &[u8]) -> Result<usize, StorageError> {
        let n = read_count(bytes).ok_or_else(corrupt)?;
        let values = &mut self.0;
        values.truncate(n);
        read_fields(bytes, n, |i, field| {
            let value = match field {
                Field::Str(raw) => {
                    let mut s = match values.get_mut(i) {
                        Some(Value::Str(s)) => std::mem::take(s),
                        _ => String::new(),
                    };
                    s.clear();
                    s.push_str(&text(raw));
                    Value::Str(s)
                }
                other => other.to_value(),
            };
            match values.get_mut(i) {
                Some(slot) => *slot = value,
                None => values.push(value),
            }
        })
        .ok_or_else(corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Row {
        Row::new(vec![
            Value::Int(-42),
            Value::Float(3.5),
            Value::Str("customer#000001".into()),
            Value::Int(i64::MAX),
            Value::Str(String::new()),
        ])
    }

    #[test]
    fn encode_decode_round_trip() {
        let r = sample();
        let bytes = r.to_bytes();
        assert_eq!(bytes.len(), r.encoded_len());
        let (back, used) = Row::decode(&bytes).unwrap();
        assert_eq!(back, r);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn decode_into_reuses_the_row_it_overwrites() {
        let mut row = Row::default();
        row.decode_into(&sample().to_bytes()).unwrap();
        assert_eq!(row, sample());
        let (values, text) = (row.0.as_ptr(), row.str(2).as_ptr());
        // same shape, shorter text: nothing is allocated
        let mut next = sample();
        next.0[2] = Value::Str("cust#2".into());
        row.decode_into(&next.to_bytes()).unwrap();
        assert_eq!(row, next);
        assert_eq!((row.0.as_ptr(), row.str(2).as_ptr()), (values, text));
        // other shapes: a text column over an integer, fewer columns, none
        for next in [
            Row::new(vec![Value::Str("now text".into()), Value::Int(3)]),
            Row::new(vec![Value::Float(0.5)]),
            Row::default(),
            sample(),
        ] {
            row.decode_into(&next.to_bytes()).unwrap();
            assert_eq!(row, next);
        }
    }

    #[test]
    fn invalid_utf8_is_repaired_not_rejected() {
        let mut bytes = Row::new(vec![Value::Str("ab".into())]).to_bytes();
        let n = bytes.len();
        bytes[n - 1] = 0xFF;
        let (row, used) = Row::decode(&bytes).unwrap();
        assert_eq!(row, Row::new(vec![Value::Str("a\u{FFFD}".into())]));
        assert_eq!(used, n);
    }

    #[test]
    fn rows_concatenate_cleanly() {
        let a = sample();
        let b = Row::new(vec![Value::Int(7)]);
        let mut buf = Vec::new();
        a.encode(&mut buf);
        b.encode(&mut buf);
        let (ra, na) = Row::decode(&buf).unwrap();
        let (rb, nb) = Row::decode(&buf[na..]).unwrap();
        assert_eq!(ra, a);
        assert_eq!(rb, b);
        assert_eq!(na + nb, buf.len());
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let mut bad = sample().to_bytes();
        bad[2] = 0xEE; // the first value's tag
        assert_eq!(Row::decode(&bad), Err(corrupt()));
        assert_eq!(Row::default().decode_into(&bad), Err(corrupt()));
    }

    #[test]
    fn value_accessors_and_coercion() {
        assert_eq!(Value::Int(5).as_int(), 5);
        assert_eq!(Value::Int(5).as_float(), 5.0);
        assert_eq!(Value::Float(2.5).as_float(), 2.5);
        assert_eq!(Value::Str("x".into()).as_str(), "x");
    }
}
