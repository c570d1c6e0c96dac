//! Near-memory eval kernels: the memory server's compute model for
//! operator pushdown (comparison predicates, column projection, and
//! COUNT/SUM/MIN/MAX partial aggregates over slotted pages).
//!
//! The kernels scan exactly the bytes the engine stores, through the same
//! code: slots come from [`crate::page`] and fields from the row codec in
//! [`crate::row`], so there is no second copy of either format to drift.
//!
//! Everything here is a pure function of its byte inputs: no clocks, no
//! locks, no iteration-order dependence. The *cost* of running a program is
//! charged by the fabric verb (`Fabric::pushdown`) from the [`EvalStats`]
//! these kernels return; the kernels themselves never touch virtual time.
//!
//! Malformed input never panics: a record whose slot points out of bounds,
//! whose tag byte is unknown, or which is truncated mid-value is skipped
//! deterministically (counted as scanned, never as matched).

use crate::page::{PageView, PAGE_SIZE};
use crate::row::{read_count, read_field, read_fields, write_field, Field, Value};

/// Comparison operator of a pushdown predicate. Its wire byte is its
/// position here (and in `CMP_OPS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// One conjunct: `row[col] <op> value`. A row whose column is missing, has
/// an incomparable type (string vs number), or compares as NaN does not
/// match — deterministically false, never an error.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    pub col: u16,
    pub op: CmpOp,
    pub value: Value,
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
            n += p.value.field().encoded_len();
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
            buf.push(p.op as u8);
            write_field(buf, p.value.field());
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
        let (tag, col) = match self.aggregate {
            None => (0, None),
            Some(Aggregate::CountStar) => (1, None),
            Some(Aggregate::Sum(c)) => (2, Some(c)),
            Some(Aggregate::Min(c)) => (3, Some(c)),
            Some(Aggregate::Max(c)) => (4, Some(c)),
        };
        buf.push(tag);
        if let Some(c) = col {
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }

    /// Decode a program from the front of `bytes`; `None` on malformed
    /// input.
    pub fn decode(bytes: &[u8]) -> Option<PushdownProgram> {
        let u16_at = |off: &mut usize| -> Option<u16> {
            let v = u16::from_le_bytes(*bytes.get(*off..)?.first_chunk()?);
            *off += 2;
            Some(v)
        };
        let npred = *bytes.first()? as usize;
        let mut off = 1;
        let mut predicates = Vec::with_capacity(npred);
        for _ in 0..npred {
            let col = u16_at(&mut off)?;
            let op = *CMP_OPS.get(*bytes.get(off)? as usize)?;
            off += 1;
            let value = read_field(bytes, &mut off)?.to_value();
            predicates.push(Predicate { col, op, value });
        }
        let projected = *bytes.get(off)? != 0;
        off += 1;
        let projection = if projected {
            let n = u16_at(&mut off)?;
            Some((0..n).map(|_| u16_at(&mut off)).collect::<Option<_>>()?)
        } else {
            None
        };
        let aggregate = match *bytes.get(off)? {
            0 => None,
            1 => Some(Aggregate::CountStar),
            tag @ 2..=4 => {
                off += 1;
                let c = u16_at(&mut off)?;
                Some(match tag {
                    2 => Aggregate::Sum(c),
                    3 => Aggregate::Min(c),
                    _ => Aggregate::Max(c),
                })
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
    fn observe(&mut self, agg: Aggregate, fields: &[Field<'_>]) {
        self.rows += 1;
        let col = match agg {
            Aggregate::CountStar => return,
            Aggregate::Sum(c) | Aggregate::Min(c) | Aggregate::Max(c) => c as usize,
        };
        let Some(field) = fields.get(col) else {
            return;
        };
        match (agg, field) {
            (Aggregate::Sum(_), Field::Int(v)) => self.sum_int = self.sum_int.wrapping_add(*v),
            (Aggregate::Sum(_), Field::Float(v)) => self.sum_float += v,
            (Aggregate::Min(_), Field::Int(v)) => {
                self.min_int = Some(self.min_int.map_or(*v, |m| m.min(*v)));
            }
            (Aggregate::Min(_), Field::Float(v)) => {
                self.min_float = Some(self.min_float.map_or(*v, |m| m.min(*v)));
            }
            (Aggregate::Max(_), Field::Int(v)) => {
                self.max_int = Some(self.max_int.map_or(*v, |m| m.max(*v)));
            }
            (Aggregate::Max(_), Field::Float(v)) => {
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
        self.min_int = fold(self.min_int, other.min_int, i64::min);
        self.max_int = fold(self.max_int, other.max_int, i64::max);
        self.min_float = fold(self.min_float, other.min_float, f64::min);
        self.max_float = fold(self.max_float, other.max_float, f64::max);
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

/// `pick` of two tracked extremes, or whichever one is present.
fn fold<T>(a: Option<T>, b: Option<T>, pick: impl Fn(T, T) -> T) -> Option<T> {
    match (a, b) {
        (Some(x), Some(y)) => Some(pick(x, y)),
        (x, y) => x.or(y),
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

/// Decode one record into `fields`; `false` unless the whole record is one
/// well-formed row.
#[inline(always)]
fn decode_record<'a>(rec: &'a [u8], fields: &mut Vec<Field<'a>>) -> bool {
    fields.clear();
    read_count(rec).and_then(|n| read_fields(rec, n, |_, field| fields.push(field)))
        == Some(rec.len())
}

fn matches(fields: &[Field<'_>], pred: &Predicate) -> bool {
    use std::cmp::Ordering;
    let Some(field) = fields.get(pred.col as usize) else {
        return false;
    };
    let ord: Option<Ordering> = match (field, &pred.value) {
        (Field::Int(a), Value::Int(b)) => Some(a.cmp(b)),
        (Field::Float(a), Value::Float(b)) => a.partial_cmp(b),
        (Field::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
        (Field::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
        (Field::Str(a), Value::Str(b)) => Some((*a).cmp(b.as_bytes())),
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

fn encode_projected(fields: &[Field<'_>], cols: &[u16], out: &mut Vec<u8>) {
    out.extend_from_slice(&(cols.len() as u16).to_le_bytes());
    for &c in cols {
        // caller guarantees `c` is in range (checked before matching)
        write_field(out, fields[c as usize]);
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
    if data.is_empty() || !data.len().is_multiple_of(PAGE_SIZE) {
        return Err(EvalError::UnalignedSpan { len: data.len() });
    }
    let before = out.len();
    let mut stats = EvalStats::default();
    let mut fields: Vec<Field<'_>> = Vec::new();
    let mut agg = PartialAgg::default();
    for page in data.chunks_exact(PAGE_SIZE) {
        stats.pages += 1;
        for rec in PageView::new(page).records() {
            stats.rows_scanned += 1;
            let Some(rec) = rec else {
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
    use crate::page::Page;
    use crate::row::Row;

    /// A slotted page holding `records`.
    fn page_of(records: &[Vec<u8>]) -> Vec<u8> {
        let mut page = Page::new();
        for rec in records {
            page.insert(rec).unwrap();
        }
        page.as_bytes().to_vec()
    }

    /// The encoding of an (int, float, str) row.
    fn row(k: i64, bal: f64, name: &str) -> Vec<u8> {
        Row::new(vec![
            Value::Int(k),
            Value::Float(bal),
            Value::Str(name.into()),
        ])
        .to_bytes()
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
                value: Value::Int(v),
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
        let expect = Row::new(vec![Value::Str("a".into()), Value::Int(1)]).to_bytes();
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
                    value: Value::Int(-7),
                },
                Predicate {
                    col: 2,
                    op: CmpOp::Eq,
                    value: Value::Str("abc".into()),
                },
                Predicate {
                    col: 1,
                    op: CmpOp::Lt,
                    value: Value::Float(3.25),
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
        // slot 0 (after the 4-byte header) points past the page end
        let mut page = sample_page();
        page[4..6].copy_from_slice(&0xFFF0u16.to_le_bytes());
        page[6..8].copy_from_slice(&64u16.to_le_bytes());
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
                value: Value::Str("1".into()),
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
