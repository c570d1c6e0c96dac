//! Rows, values and schemas with a compact self-describing serialization.

use std::fmt;

/// A column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    Int,
    Float,
    Str,
}

/// A single value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(String),
}

impl Value {
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    pub fn as_float(&self) -> f64 {
        match self {
            Value::Float(v) => *v,
            Value::Int(v) => *v as f64,
            other => panic!("expected Float, got {other:?}"),
        }
    }

    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected Str, got {other:?}"),
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

/// A table schema: named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    pub columns: Vec<(String, ColType)>,
}

impl Schema {
    pub fn new(columns: Vec<(&str, ColType)>) -> Schema {
        Schema {
            columns: columns
                .into_iter()
                .map(|(n, t)| (n.to_string(), t))
                .collect(),
        }
    }

    pub fn col(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no column named {name}"))
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

/// A row of values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row(pub Vec<Value>);

impl Row {
    pub fn new(values: Vec<Value>) -> Row {
        Row(values)
    }

    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    pub fn int(&self, i: usize) -> i64 {
        self.0[i].as_int()
    }

    pub fn float(&self, i: usize) -> f64 {
        self.0[i].as_float()
    }

    pub fn str(&self, i: usize) -> &str {
        self.0[i].as_str()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Serialized length in bytes (for memory-grant accounting).
    pub fn encoded_len(&self) -> usize {
        let mut n = 2; // value count
        for v in &self.0 {
            n += 1 + match v {
                Value::Int(_) => 8,
                Value::Float(_) => 8,
                Value::Str(s) => 4 + s.len(),
            };
        }
        n
    }

    /// Append the compact encoding to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.0.len() as u16).to_le_bytes());
        for v in &self.0 {
            match v {
                Value::Int(x) => {
                    buf.push(0);
                    buf.extend_from_slice(&x.to_le_bytes());
                }
                Value::Float(x) => {
                    buf.push(1);
                    buf.extend_from_slice(&x.to_le_bytes());
                }
                Value::Str(s) => {
                    buf.push(2);
                    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    buf.extend_from_slice(s.as_bytes());
                }
            }
        }
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf
    }

    /// Decode one row from the start of `bytes`, returning it and the number
    /// of bytes consumed.
    pub fn decode(bytes: &[u8]) -> (Row, usize) {
        let n = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        let mut off = 2;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let tag = bytes[off];
            off += 1;
            match tag {
                0 => {
                    let v = i64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
                    off += 8;
                    values.push(Value::Int(v));
                }
                1 => {
                    let v = f64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
                    off += 8;
                    values.push(Value::Float(v));
                }
                2 => {
                    let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
                    off += 4;
                    let raw = &bytes[off..off + len];
                    // `encode` only writes valid UTF-8, which the word-at-a-time
                    // validator accepts several times faster than the lossy
                    // chunker walks it; foreign bytes are still repaired
                    let s = match std::str::from_utf8(raw) {
                        Ok(s) => s.to_owned(),
                        Err(_) => String::from_utf8_lossy(raw).into_owned(),
                    };
                    off += len;
                    values.push(Value::Str(s));
                }
                t => panic!("corrupt row encoding: tag {t}"),
            }
        }
        (Row(values), off)
    }

    /// [`Row::decode`] over whatever `self` held, keeping its `Vec<Value>`
    /// and the capacity of every `String` a text column lands on: a loop that
    /// reads rows of one shape through one `Row` stops allocating after the
    /// first. Returns the bytes consumed.
    pub fn decode_into(&mut self, bytes: &[u8]) -> usize {
        let n = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        let mut off = 2;
        self.0.truncate(n);
        for i in 0..n {
            let tag = bytes[off];
            off += 1;
            let value = match tag {
                0 => {
                    let v = i64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
                    off += 8;
                    Value::Int(v)
                }
                1 => {
                    let v = f64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
                    off += 8;
                    Value::Float(v)
                }
                2 => {
                    let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
                    off += 4;
                    let raw = &bytes[off..off + len];
                    off += len;
                    let mut s = match self.0.get_mut(i) {
                        Some(Value::Str(s)) => std::mem::take(s),
                        _ => String::new(),
                    };
                    s.clear();
                    match std::str::from_utf8(raw) {
                        Ok(text) => s.push_str(text),
                        Err(_) => s.push_str(&String::from_utf8_lossy(raw)),
                    }
                    Value::Str(s)
                }
                t => panic!("corrupt row encoding: tag {t}"),
            };
            match self.0.get_mut(i) {
                Some(slot) => *slot = value,
                None => self.0.push(value),
            }
        }
        off
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
        let (back, used) = Row::decode(&bytes);
        assert_eq!(back, r);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn decode_into_reuses_the_row_it_overwrites() {
        let mut row = Row::default();
        row.decode_into(&sample().to_bytes());
        assert_eq!(row, sample());
        let (values, text) = (row.0.as_ptr(), row.str(2).as_ptr());
        // same shape, shorter text: nothing is allocated
        let mut next = sample();
        next.0[2] = Value::Str("cust#2".into());
        row.decode_into(&next.to_bytes());
        assert_eq!(row, next);
        assert_eq!((row.0.as_ptr(), row.str(2).as_ptr()), (values, text));
        // other shapes: a text column over an integer, fewer columns, none
        for next in [
            Row::new(vec![Value::Str("now text".into()), Value::Int(3)]),
            Row::new(vec![Value::Float(0.5)]),
            Row::default(),
            sample(),
        ] {
            row.decode_into(&next.to_bytes());
            assert_eq!(row, next);
        }
    }

    #[test]
    fn invalid_utf8_is_repaired_not_rejected() {
        let mut bytes = Row::new(vec![Value::Str("ab".into())]).to_bytes();
        let n = bytes.len();
        bytes[n - 1] = 0xFF;
        let (row, used) = Row::decode(&bytes);
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
        let (ra, na) = Row::decode(&buf);
        let (rb, nb) = Row::decode(&buf[na..]);
        assert_eq!(ra, a);
        assert_eq!(rb, b);
        assert_eq!(na + nb, buf.len());
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::new(vec![("custkey", ColType::Int), ("acctbal", ColType::Float)]);
        assert_eq!(s.col("acctbal"), 1);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn unknown_column_panics() {
        Schema::new(vec![("a", ColType::Int)]).col("b");
    }

    #[test]
    fn value_accessors_and_coercion() {
        assert_eq!(Value::Int(5).as_int(), 5);
        assert_eq!(Value::Int(5).as_float(), 5.0);
        assert_eq!(Value::Float(2.5).as_float(), 2.5);
        assert_eq!(Value::Str("x".into()).as_str(), "x");
    }
}
