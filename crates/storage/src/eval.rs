//! Near-memory eval kernels: the memory server's compute model for
//! operator pushdown (comparison predicates, column projection, and
//! COUNT/SUM/MIN/MAX partial aggregates over slotted pages).
//!
//! The engine owns the page and row formats, but the storage crate cannot
//! depend on the engine — so the two on-disk encodings are mirrored here
//! over raw bytes and cross-checked by the pushdown proptests:
//!
//! * **Slotted page** (8 KiB): `[nslots: u16 LE][free_off: u16 LE]` header,
//!   a slot directory of `(off: u16 LE, len: u16 LE)` growing forward, and
//!   record bytes growing from the end of the page backwards.
//! * **Row**: `u16 LE` value count, then per value a tag byte — `0` i64 LE,
//!   `1` f64 LE, `2` u32 LE length + UTF-8 bytes.
//!
//! Everything here is a pure function of its byte inputs: no clocks, no
//! locks, no iteration-order dependence. The *cost* of running a program is
//! charged by the fabric verb (`Fabric::pushdown`) from the [`EvalStats`]
//! these kernels return; the kernels themselves never touch virtual time.
//!
//! Malformed input never panics: a record whose slot points out of bounds,
//! whose tag byte is unknown, or which is truncated mid-value is skipped
//! deterministically (counted as scanned, never as matched).

/// Page size the eval kernels understand (the engine's 8 KiB pages).
pub const EVAL_PAGE_SIZE: usize = 8192;

const PAGE_HEADER: usize = 4;
const PAGE_SLOT: usize = 4;

/// A typed constant inside a [`Predicate`] — the owned mirror of the
/// engine's `Value` for program transport.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalValue {
    Int(i64),
    Float(f64),
    Str(String),
}

/// Comparison operator of a pushdown predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// One conjunct: `row[col] <op> value`. A row whose column is missing, has
/// an incomparable type (string vs number), or compares as NaN does not
/// match — deterministically false, never an error.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    pub col: u16,
    pub op: CmpOp,
    pub value: EvalValue,
}

/// Server-side partial aggregate kind. `Sum`/`Min`/`Max` track integer and
/// float values separately (string values in the column are ignored); the
/// consumer folds the two tracks after merging partials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    CountStar,
    Sum(u16),
    Min(u16),
    Max(u16),
}

/// The program one pushdown request carries: ANDed predicates, an optional
/// projection (`None` = all columns, verbatim record bytes), and an
/// optional partial aggregate. With an aggregate set the reply is one
/// [`PartialAgg`] encoding and the projection is ignored.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PushdownProgram {
    pub predicates: Vec<Predicate>,
    pub projection: Option<Vec<u16>>,
    pub aggregate: Option<Aggregate>,
}

impl PushdownProgram {
    /// Wire size of the encoded program — what the request charges on the
    /// fabric.
    pub fn encoded_len(&self) -> usize {
        let mut n = 1; // predicate count
        for p in &self.predicates {
            n += 2 + 1; // col + op
            n += 1 + match &p.value {
                EvalValue::Int(_) | EvalValue::Float(_) => 8,
                EvalValue::Str(s) => 4 + s.len(),
            };
        }
        n += 1; // projection flag
        if let Some(cols) = &self.projection {
            n += 2 + 2 * cols.len();
        }
        n += 1; // aggregate flag
        if matches!(
            self.aggregate,
            Some(Aggregate::Sum(_) | Aggregate::Min(_) | Aggregate::Max(_))
        ) {
            n += 2;
        }
        n
    }

    /// Append the wire encoding to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.predicates.len() as u8);
        for p in &self.predicates {
            buf.extend_from_slice(&p.col.to_le_bytes());
            buf.push(match p.op {
                CmpOp::Eq => 0,
                CmpOp::Ne => 1,
                CmpOp::Lt => 2,
                CmpOp::Le => 3,
                CmpOp::Gt => 4,
                CmpOp::Ge => 5,
            });
            match &p.value {
                EvalValue::Int(v) => {
                    buf.push(0);
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                EvalValue::Float(v) => {
                    buf.push(1);
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                EvalValue::Str(s) => {
                    buf.push(2);
                    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    buf.extend_from_slice(s.as_bytes());
                }
            }
        }
        match &self.projection {
            None => buf.push(0),
            Some(cols) => {
                buf.push(1);
                buf.extend_from_slice(&(cols.len() as u16).to_le_bytes());
                for c in cols {
                    buf.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
        match self.aggregate {
            None => buf.push(0),
            Some(Aggregate::CountStar) => buf.push(1),
            Some(Aggregate::Sum(c)) => {
                buf.push(2);
                buf.extend_from_slice(&c.to_le_bytes());
            }
            Some(Aggregate::Min(c)) => {
                buf.push(3);
                buf.extend_from_slice(&c.to_le_bytes());
            }
            Some(Aggregate::Max(c)) => {
                buf.push(4);
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
    }

    /// Decode a program from the front of `bytes`; `None` on malformed
    /// input.
    pub fn decode(bytes: &[u8]) -> Option<PushdownProgram> {
        let mut off = 0usize;
        let npred = *bytes.first()? as usize;
        off += 1;
        let mut predicates = Vec::with_capacity(npred);
        for _ in 0..npred {
            let col = u16::from_le_bytes(bytes.get(off..off + 2)?.try_into().ok()?);
            off += 2;
            let op = match *bytes.get(off)? {
                0 => CmpOp::Eq,
                1 => CmpOp::Ne,
                2 => CmpOp::Lt,
                3 => CmpOp::Le,
                4 => CmpOp::Gt,
                5 => CmpOp::Ge,
                _ => return None,
            };
            off += 1;
            let tag = *bytes.get(off)?;
            off += 1;
            let value = match tag {
                0 => {
                    let v = i64::from_le_bytes(bytes.get(off..off + 8)?.try_into().ok()?);
                    off += 8;
                    EvalValue::Int(v)
                }
                1 => {
                    let v = f64::from_le_bytes(bytes.get(off..off + 8)?.try_into().ok()?);
                    off += 8;
                    EvalValue::Float(v)
                }
                2 => {
                    let len =
                        u32::from_le_bytes(bytes.get(off..off + 4)?.try_into().ok()?) as usize;
                    off += 4;
                    let s = String::from_utf8_lossy(bytes.get(off..off + len)?).into_owned();
                    off += len;
                    EvalValue::Str(s)
                }
                _ => return None,
            };
            predicates.push(Predicate { col, op, value });
        }
        let projection = match *bytes.get(off)? {
            0 => {
                off += 1;
                None
            }
            _ => {
                off += 1;
                let n = u16::from_le_bytes(bytes.get(off..off + 2)?.try_into().ok()?) as usize;
                off += 2;
                let mut cols = Vec::with_capacity(n);
                for _ in 0..n {
                    cols.push(u16::from_le_bytes(
                        bytes.get(off..off + 2)?.try_into().ok()?,
                    ));
                    off += 2;
                }
                Some(cols)
            }
        };
        let col_arg = |off: &mut usize| -> Option<u16> {
            let c = u16::from_le_bytes(bytes.get(*off..*off + 2)?.try_into().ok()?);
            *off += 2;
            Some(c)
        };
        let aggregate = match *bytes.get(off)? {
            0 => None,
            1 => Some(Aggregate::CountStar),
            2 => {
                off += 1;
                return Some(PushdownProgram {
                    predicates,
                    projection,
                    aggregate: Some(Aggregate::Sum(col_arg(&mut off)?)),
                });
            }
            3 => {
                off += 1;
                return Some(PushdownProgram {
                    predicates,
                    projection,
                    aggregate: Some(Aggregate::Min(col_arg(&mut off)?)),
                });
            }
            4 => {
                off += 1;
                return Some(PushdownProgram {
                    predicates,
                    projection,
                    aggregate: Some(Aggregate::Max(col_arg(&mut off)?)),
                });
            }
            _ => return None,
        };
        Some(PushdownProgram {
            predicates,
            projection,
            aggregate,
        })
    }
}

/// Mergeable partial-aggregate state. Integer and float tracks are kept
/// separate so results are exact for all-integer columns and deterministic
/// for mixed ones (partials are merged in extent order by the caller).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartialAgg {
    /// Rows that matched the predicates (COUNT(*) of the filtered set).
    pub rows: u64,
    pub sum_int: i64,
    pub sum_float: f64,
    pub min_int: Option<i64>,
    pub max_int: Option<i64>,
    pub min_float: Option<f64>,
    pub max_float: Option<f64>,
}

/// Encoded size of one [`PartialAgg`] (fixed layout).
pub const PARTIAL_AGG_BYTES: usize = 8 + 8 + 8 + 4 * 9;

impl PartialAgg {
    fn observe(&mut self, agg: Aggregate, fields: &[FieldRef<'_>]) {
        self.rows += 1;
        let col = match agg {
            Aggregate::CountStar => return,
            Aggregate::Sum(c) | Aggregate::Min(c) | Aggregate::Max(c) => c as usize,
        };
        let Some(field) = fields.get(col) else {
            return;
        };
        match (agg, field) {
            (Aggregate::Sum(_), FieldRef::Int(v)) => self.sum_int = self.sum_int.wrapping_add(*v),
            (Aggregate::Sum(_), FieldRef::Float(v)) => self.sum_float += v,
            (Aggregate::Min(_), FieldRef::Int(v)) => {
                self.min_int = Some(self.min_int.map_or(*v, |m| m.min(*v)));
            }
            (Aggregate::Min(_), FieldRef::Float(v)) => {
                self.min_float = Some(self.min_float.map_or(*v, |m| m.min(*v)));
            }
            (Aggregate::Max(_), FieldRef::Int(v)) => {
                self.max_int = Some(self.max_int.map_or(*v, |m| m.max(*v)));
            }
            (Aggregate::Max(_), FieldRef::Float(v)) => {
                self.max_float = Some(self.max_float.map_or(*v, |m| m.max(*v)));
            }
            _ => {} // string values never feed a numeric aggregate
        }
    }

    /// Fold another partial into this one (commutative except for float
    /// sums, which the caller merges in a fixed order).
    pub fn merge(&mut self, other: &PartialAgg) {
        self.rows += other.rows;
        self.sum_int = self.sum_int.wrapping_add(other.sum_int);
        self.sum_float += other.sum_float;
        let fold_min_i = |a: Option<i64>, b: Option<i64>| match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        };
        let fold_max_i = |a: Option<i64>, b: Option<i64>| match (a, b) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, y) => x.or(y),
        };
        let fold_min_f = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        };
        let fold_max_f = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, y) => x.or(y),
        };
        self.min_int = fold_min_i(self.min_int, other.min_int);
        self.max_int = fold_max_i(self.max_int, other.max_int);
        self.min_float = fold_min_f(self.min_float, other.min_float);
        self.max_float = fold_max_f(self.max_float, other.max_float);
    }

    /// SUM folded across both tracks, as f64.
    #[cfg(test)]
    pub(crate) fn sum_f64(&self) -> f64 {
        self.sum_int as f64 + self.sum_float
    }

    /// MIN folded across both tracks, as f64 (`None` when no value fed it).
    pub fn min_f64(&self) -> Option<f64> {
        match (self.min_int, self.min_float) {
            (Some(i), Some(f)) => Some((i as f64).min(f)),
            (Some(i), None) => Some(i as f64),
            (None, f) => f,
        }
    }

    /// MAX folded across both tracks, as f64.
    pub fn max_f64(&self) -> Option<f64> {
        match (self.max_int, self.max_float) {
            (Some(i), Some(f)) => Some((i as f64).max(f)),
            (Some(i), None) => Some(i as f64),
            (None, f) => f,
        }
    }

    /// Append the fixed-width wire encoding to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.rows.to_le_bytes());
        buf.extend_from_slice(&self.sum_int.to_le_bytes());
        buf.extend_from_slice(&self.sum_float.to_le_bytes());
        let opt_i = |buf: &mut Vec<u8>, v: Option<i64>| {
            buf.push(v.is_some() as u8);
            buf.extend_from_slice(&v.unwrap_or(0).to_le_bytes());
        };
        let opt_f = |buf: &mut Vec<u8>, v: Option<f64>| {
            buf.push(v.is_some() as u8);
            buf.extend_from_slice(&v.unwrap_or(0.0).to_le_bytes());
        };
        opt_i(buf, self.min_int);
        opt_i(buf, self.max_int);
        opt_f(buf, self.min_float);
        opt_f(buf, self.max_float);
    }

    /// Decode one partial from the front of `bytes`.
    pub fn decode(bytes: &[u8]) -> Option<PartialAgg> {
        if bytes.len() < PARTIAL_AGG_BYTES {
            return None;
        }
        let u = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().ok().unwrap_or([0; 8]));
        let rows = u(0);
        let sum_int = u(8) as i64;
        let sum_float = f64::from_bits(u(16));
        let opt_i = |o: usize| (bytes[o] != 0).then(|| u(o + 1) as i64);
        let opt_f = |o: usize| (bytes[o] != 0).then(|| f64::from_bits(u(o + 1)));
        Some(PartialAgg {
            rows,
            sum_int,
            sum_float,
            min_int: opt_i(24),
            max_int: opt_i(33),
            min_float: opt_f(42),
            max_float: opt_f(51),
        })
    }
}

/// What one eval run did — the fabric charges server CPU from these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    pub pages: u64,
    pub rows_scanned: u64,
    pub rows_matched: u64,
    /// Bytes appended to the reply buffer.
    pub reply_bytes: u64,
}

/// Eval errors (structural; per-record corruption is skipped, not errored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalError {
    /// The scanned span must be a whole number of 8 KiB pages.
    UnalignedSpan { len: usize },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::UnalignedSpan { len } => {
                write!(f, "pushdown span of {len} B is not a whole number of pages")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// A decoded field borrowed from record bytes (strings stay zero-copy).
#[derive(Debug, Clone, Copy, PartialEq)]
enum FieldRef<'a> {
    Int(i64),
    Float(f64),
    Str(&'a [u8]),
}

/// Decode one record into `fields`; `false` (and a cleared buffer) on any
/// structural violation.
fn decode_record<'a>(rec: &'a [u8], fields: &mut Vec<FieldRef<'a>>) -> bool {
    fields.clear();
    let Some(n) = rec.get(0..2) else { return false };
    let n = u16::from_le_bytes([n[0], n[1]]) as usize;
    let mut off = 2usize;
    for _ in 0..n {
        let Some(&tag) = rec.get(off) else {
            fields.clear();
            return false;
        };
        off += 1;
        match tag {
            0 => {
                let Some(b) = rec.get(off..off + 8) else {
                    fields.clear();
                    return false;
                };
                fields.push(FieldRef::Int(i64::from_le_bytes(
                    b.try_into().unwrap_or([0; 8]),
                )));
                off += 8;
            }
            1 => {
                let Some(b) = rec.get(off..off + 8) else {
                    fields.clear();
                    return false;
                };
                fields.push(FieldRef::Float(f64::from_le_bytes(
                    b.try_into().unwrap_or([0; 8]),
                )));
                off += 8;
            }
            2 => {
                let Some(b) = rec.get(off..off + 4) else {
                    fields.clear();
                    return false;
                };
                let len = u32::from_le_bytes(b.try_into().unwrap_or([0; 4])) as usize;
                off += 4;
                let Some(s) = rec.get(off..off + len) else {
                    fields.clear();
                    return false;
                };
                fields.push(FieldRef::Str(s));
                off += len;
            }
            _ => {
                fields.clear();
                return false;
            }
        }
    }
    off == rec.len()
}

fn matches(fields: &[FieldRef<'_>], pred: &Predicate) -> bool {
    use std::cmp::Ordering;
    let Some(field) = fields.get(pred.col as usize) else {
        return false;
    };
    let ord: Option<Ordering> = match (field, &pred.value) {
        (FieldRef::Int(a), EvalValue::Int(b)) => Some(a.cmp(b)),
        (FieldRef::Float(a), EvalValue::Float(b)) => a.partial_cmp(b),
        (FieldRef::Int(a), EvalValue::Float(b)) => (*a as f64).partial_cmp(b),
        (FieldRef::Float(a), EvalValue::Int(b)) => a.partial_cmp(&(*b as f64)),
        (FieldRef::Str(a), EvalValue::Str(b)) => Some((*a).cmp(b.as_bytes())),
        _ => None, // incomparable types never match
    };
    let Some(ord) = ord else { return false };
    match pred.op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

fn encode_projected(fields: &[FieldRef<'_>], cols: &[u16], out: &mut Vec<u8>) {
    out.extend_from_slice(&(cols.len() as u16).to_le_bytes());
    for &c in cols {
        // caller guarantees `c` is in range (checked before matching)
        match fields[c as usize] {
            FieldRef::Int(v) => {
                out.push(0);
                out.extend_from_slice(&v.to_le_bytes());
            }
            FieldRef::Float(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
            FieldRef::Str(s) => {
                out.push(2);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s);
            }
        }
    }
}

/// Run `prog` over a span of slotted pages, appending the reply to `out`:
/// concatenated (projected) row encodings, or — with an aggregate set — one
/// [`PartialAgg`] encoding covering the whole span.
///
/// Rules, mirrored exactly by the engine-side oracle:
/// * predicates are ANDed; a missing/incomparable column fails the row;
/// * a matching row missing any projected column is dropped (and not
///   counted as matched);
/// * corrupt slots/records are skipped (scanned, never matched).
pub fn eval_pages(
    data: &[u8],
    prog: &PushdownProgram,
    out: &mut Vec<u8>,
) -> Result<EvalStats, EvalError> {
    if data.is_empty() || !data.len().is_multiple_of(EVAL_PAGE_SIZE) {
        return Err(EvalError::UnalignedSpan { len: data.len() });
    }
    let before = out.len();
    let mut stats = EvalStats::default();
    let mut fields: Vec<FieldRef<'_>> = Vec::new();
    let mut agg = PartialAgg::default();
    for page in data.chunks_exact(EVAL_PAGE_SIZE) {
        stats.pages += 1;
        let nslots = u16::from_le_bytes([page[0], page[1]]) as usize;
        for i in 0..nslots {
            let base = PAGE_HEADER + i * PAGE_SLOT;
            let Some(slot) = page.get(base..base + PAGE_SLOT) else {
                break; // slot directory ran off the page: stop this page
            };
            let off = u16::from_le_bytes([slot[0], slot[1]]) as usize;
            let len = u16::from_le_bytes([slot[2], slot[3]]) as usize;
            stats.rows_scanned += 1;
            let Some(rec) = page.get(off..off + len) else {
                continue; // corrupt slot: skip the record
            };
            if !decode_record(rec, &mut fields) {
                continue;
            }
            if !prog.predicates.iter().all(|p| matches(&fields, p)) {
                continue;
            }
            if let Some(kind) = prog.aggregate {
                stats.rows_matched += 1;
                agg.observe(kind, &fields);
            } else if let Some(cols) = &prog.projection {
                if cols.iter().any(|&c| c as usize >= fields.len()) {
                    continue; // cannot project: drop the row
                }
                stats.rows_matched += 1;
                encode_projected(&fields, cols, out);
            } else {
                stats.rows_matched += 1;
                out.extend_from_slice(rec);
            }
        }
    }
    if prog.aggregate.is_some() {
        agg.encode(out);
    }
    stats.reply_bytes = (out.len() - before) as u64;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a slotted page the way the engine does.
    fn page_of(records: &[Vec<u8>]) -> Vec<u8> {
        let mut page = vec![0u8; EVAL_PAGE_SIZE];
        let mut free = EVAL_PAGE_SIZE;
        for (i, rec) in records.iter().enumerate() {
            free -= rec.len();
            page[free..free + rec.len()].copy_from_slice(rec);
            let base = PAGE_HEADER + i * PAGE_SLOT;
            page[base..base + 2].copy_from_slice(&(free as u16).to_le_bytes());
            page[base + 2..base + 4].copy_from_slice(&(rec.len() as u16).to_le_bytes());
        }
        page[0..2].copy_from_slice(&(records.len() as u16).to_le_bytes());
        page[2..4].copy_from_slice(&(free as u16).to_le_bytes());
        page
    }

    /// Encode a (int, float, str) row the way the engine does.
    fn row(k: i64, bal: f64, name: &str) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&3u16.to_le_bytes());
        b.push(0);
        b.extend_from_slice(&k.to_le_bytes());
        b.push(1);
        b.extend_from_slice(&bal.to_le_bytes());
        b.push(2);
        b.extend_from_slice(&(name.len() as u32).to_le_bytes());
        b.extend_from_slice(name.as_bytes());
        b
    }

    fn sample_page() -> Vec<u8> {
        page_of(&[
            row(1, 10.0, "a"),
            row(2, 20.0, "b"),
            row(3, 30.0, "c"),
            row(4, 40.0, "d"),
        ])
    }

    fn lt(col: u16, v: i64) -> PushdownProgram {
        PushdownProgram {
            predicates: vec![Predicate {
                col,
                op: CmpOp::Lt,
                value: EvalValue::Int(v),
            }],
            ..Default::default()
        }
    }

    #[test]
    fn predicate_filters_and_passes_records_verbatim() {
        let page = sample_page();
        let mut out = Vec::new();
        let stats = eval_pages(&page, &lt(0, 3), &mut out).unwrap();
        assert_eq!(
            (stats.pages, stats.rows_scanned, stats.rows_matched),
            (1, 4, 2)
        );
        let expect: Vec<u8> = [row(1, 10.0, "a"), row(2, 20.0, "b")].concat();
        assert_eq!(out, expect);
        assert_eq!(stats.reply_bytes, expect.len() as u64);
    }

    #[test]
    fn all_cmp_ops_behave() {
        let page = sample_page();
        let count = |op: CmpOp, v: i64| {
            let mut prog = lt(0, v);
            prog.predicates[0].op = op;
            let mut out = Vec::new();
            eval_pages(&page, &prog, &mut out).unwrap().rows_matched
        };
        assert_eq!(count(CmpOp::Eq, 2), 1);
        assert_eq!(count(CmpOp::Ne, 2), 3);
        assert_eq!(count(CmpOp::Lt, 2), 1);
        assert_eq!(count(CmpOp::Le, 2), 2);
        assert_eq!(count(CmpOp::Gt, 2), 2);
        assert_eq!(count(CmpOp::Ge, 2), 3);
    }

    #[test]
    fn projection_reencodes_selected_columns() {
        let page = sample_page();
        let mut prog = lt(0, 3);
        prog.projection = Some(vec![2, 0]);
        let mut out = Vec::new();
        let stats = eval_pages(&page, &prog, &mut out).unwrap();
        assert_eq!(stats.rows_matched, 2);
        // first projected row: ("a", 1)
        let mut expect = Vec::new();
        expect.extend_from_slice(&2u16.to_le_bytes());
        expect.push(2);
        expect.extend_from_slice(&1u32.to_le_bytes());
        expect.push(b'a');
        expect.push(0);
        expect.extend_from_slice(&1i64.to_le_bytes());
        assert_eq!(&out[..expect.len()], &expect[..]);
        assert!(stats.reply_bytes < page.len() as u64);
    }

    #[test]
    fn aggregates_compute_partial_state() {
        let page = sample_page();
        let run = |agg: Aggregate| {
            let mut prog = lt(0, 4);
            prog.aggregate = Some(agg);
            let mut out = Vec::new();
            let stats = eval_pages(&page, &prog, &mut out).unwrap();
            assert_eq!(out.len(), PARTIAL_AGG_BYTES);
            (stats, PartialAgg::decode(&out).unwrap())
        };
        let (stats, count) = run(Aggregate::CountStar);
        assert_eq!(stats.rows_matched, 3);
        assert_eq!(count.rows, 3);
        let (_, sum) = run(Aggregate::Sum(1));
        assert_eq!(sum.sum_f64(), 60.0);
        let (_, min) = run(Aggregate::Min(1));
        assert_eq!(min.min_f64(), Some(10.0));
        let (_, max) = run(Aggregate::Max(0));
        assert_eq!(max.max_f64(), Some(3.0));
    }

    #[test]
    fn partials_merge_like_one_pass() {
        let p1 = page_of(&[row(1, 1.5, "x"), row(9, -2.0, "y")]);
        let p2 = page_of(&[row(5, 4.0, "z")]);
        let prog = PushdownProgram {
            aggregate: Some(Aggregate::Sum(1)),
            ..Default::default()
        };
        let both: Vec<u8> = [p1.clone(), p2.clone()].concat();
        let mut out_all = Vec::new();
        eval_pages(&both, &prog, &mut out_all).unwrap();
        let whole = PartialAgg::decode(&out_all).unwrap();
        let mut out1 = Vec::new();
        eval_pages(&p1, &prog, &mut out1).unwrap();
        let mut merged = PartialAgg::decode(&out1).unwrap();
        let mut out2 = Vec::new();
        eval_pages(&p2, &prog, &mut out2).unwrap();
        merged.merge(&PartialAgg::decode(&out2).unwrap());
        assert_eq!(merged, whole);
        assert_eq!(merged.sum_f64(), 3.5);
    }

    #[test]
    fn program_round_trips_through_the_wire() {
        let prog = PushdownProgram {
            predicates: vec![
                Predicate {
                    col: 0,
                    op: CmpOp::Ge,
                    value: EvalValue::Int(-7),
                },
                Predicate {
                    col: 2,
                    op: CmpOp::Eq,
                    value: EvalValue::Str("abc".into()),
                },
                Predicate {
                    col: 1,
                    op: CmpOp::Lt,
                    value: EvalValue::Float(3.25),
                },
            ],
            projection: Some(vec![0, 2]),
            aggregate: Some(Aggregate::Max(1)),
        };
        let mut buf = Vec::new();
        prog.encode(&mut buf);
        assert_eq!(buf.len(), prog.encoded_len());
        assert_eq!(PushdownProgram::decode(&buf), Some(prog));
    }

    #[test]
    fn corrupt_records_are_skipped_not_fatal() {
        // slot points past the page end
        let mut page = sample_page();
        let base = PAGE_HEADER;
        page[base..base + 2].copy_from_slice(&0xFFF0u16.to_le_bytes());
        page[base + 2..base + 4].copy_from_slice(&64u16.to_le_bytes());
        let mut out = Vec::new();
        let stats = eval_pages(&page, &lt(0, 100), &mut out).unwrap();
        assert_eq!(stats.rows_scanned, 4);
        assert_eq!(stats.rows_matched, 3);
        // garbage record bytes: unknown tag
        let bad = page_of(&[vec![1, 0, 9, 9, 9]]);
        let stats = eval_pages(&bad, &lt(0, 100), &mut out).unwrap();
        assert_eq!((stats.rows_scanned, stats.rows_matched), (1, 0));
    }

    #[test]
    fn unaligned_span_is_rejected() {
        assert!(matches!(
            eval_pages(&[0u8; 100], &PushdownProgram::default(), &mut Vec::new()),
            Err(EvalError::UnalignedSpan { len: 100 })
        ));
        assert!(matches!(
            eval_pages(&[], &PushdownProgram::default(), &mut Vec::new()),
            Err(EvalError::UnalignedSpan { len: 0 })
        ));
    }

    #[test]
    fn type_mismatch_and_missing_column_never_match() {
        let page = sample_page();
        let mut out = Vec::new();
        // string compared against an int column
        let prog = PushdownProgram {
            predicates: vec![Predicate {
                col: 0,
                op: CmpOp::Eq,
                value: EvalValue::Str("1".into()),
            }],
            ..Default::default()
        };
        assert_eq!(eval_pages(&page, &prog, &mut out).unwrap().rows_matched, 0);
        // column index past the row
        assert_eq!(
            eval_pages(&page, &lt(7, 100), &mut out)
                .unwrap()
                .rows_matched,
            0
        );
        // projecting a missing column drops the row
        let mut prog = lt(0, 100);
        prog.projection = Some(vec![9]);
        assert_eq!(eval_pages(&page, &prog, &mut out).unwrap().rows_matched, 0);
    }
}
