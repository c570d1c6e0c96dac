//! Property-based tests for near-memory pushdown: whatever the page
//! contents, predicates and projections, the offloaded result is
//! byte-identical to fetching every page and filtering client-side — with
//! and without transient fault windows.

use std::sync::Arc;

use proptest::prelude::*;
use remem_engine::page::{Page, PAGE_SIZE};
use remem_engine::{Row, Value};
use remem_net::{FaultInjector, NetConfig};
use remem_sim::{Clock, SimDuration, SimTime};
use remem_storage::{eval_pages, Aggregate, CmpOp, PartialAgg, Predicate, PushdownProgram};
use remem_workloads::pushdown::{build_remote_table, RemoteTable};

/// Random typed value for column `col` (types fixed per column so
/// comparisons are mostly well-typed, with col 3 mixing types).
fn value_strategy(col: u16) -> BoxedStrategy<Value> {
    match col {
        0 => (-50i64..50).prop_map(Value::Int).boxed(),
        1 => (-4.0f64..4.0).prop_map(Value::Float).boxed(),
        2 => "[a-d]{0,6}".prop_map(Value::Str).boxed(),
        _ => prop_oneof![
            (-9i64..9).prop_map(Value::Int),
            (-2.0f64..2.0).prop_map(Value::Float),
            "[a-c]{0,3}".prop_map(Value::Str),
        ]
        .boxed(),
    }
}

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        value_strategy(0),
        value_strategy(1),
        value_strategy(2),
        value_strategy(3),
    )
        .prop_map(|(a, b, c, d)| Row::new(vec![a, b, c, d]))
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    (
        0u16..4,
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
        ],
        prop_oneof![
            (-50i64..50).prop_map(Value::Int),
            (-4.0f64..4.0).prop_map(Value::Float),
            "[a-d]{0,4}".prop_map(Value::Str),
        ],
    )
        .prop_map(|(col, op, value)| Predicate { col, op, value })
}

fn program_strategy() -> impl Strategy<Value = PushdownProgram> {
    (
        prop::collection::vec(predicate_strategy(), 0..3),
        prop::option::of(prop::collection::vec(0u16..5, 1..4)),
        prop::option::of(prop_oneof![
            Just(Aggregate::CountStar),
            (0u16..4).prop_map(Aggregate::Sum),
            (0u16..4).prop_map(Aggregate::Min),
            (0u16..4).prop_map(Aggregate::Max),
        ]),
    )
        .prop_map(|(predicates, projection, aggregate)| PushdownProgram {
            predicates,
            projection,
            aggregate,
        })
}

/// Load arbitrary rows into remote slotted pages; returns the table and the
/// number of pages used.
fn load_rows(rows: &[Row], donors: usize) -> (RemoteTable, Clock, u64) {
    let pages = 4u64;
    let mut clock = Clock::new();
    let t = build_remote_table(&mut clock, pages, donors, NetConfig::default());
    // overwrite the synthetic pages with the proptest rows, spread evenly
    let per_page = rows.len().div_ceil(pages as usize).max(1);
    for p in 0..pages as usize {
        let mut page = Page::new();
        for row in rows.iter().skip(p * per_page).take(per_page) {
            if page.insert(&row.to_bytes()).is_none() {
                break;
            }
        }
        t.file
            .write(&mut clock, (p * PAGE_SIZE) as u64, page.as_bytes())
            .unwrap();
    }
    (t, clock, pages)
}

/// The fetch-everything-then-filter oracle.
fn oracle(t: &RemoteTable, clock: &mut Clock, pages: u64, prog: &PushdownProgram) -> Vec<u8> {
    let mut buf = vec![0u8; (pages * PAGE_SIZE as u64) as usize];
    t.file.read(clock, 0, &mut buf).unwrap();
    let mut out = Vec::new();
    eval_pages(&buf, prog, &mut out).unwrap();
    out
}

/// Partial aggregates are merged per chunk by `read_pushdown`, so compare
/// them after decoding and merging rather than byte-wise (the oracle's
/// single eval emits one partial, the fanned scan may emit several).
fn merged_partial(payload: &[u8]) -> PartialAgg {
    let mut acc = PartialAgg::default();
    let mut off = 0;
    while off < payload.len() {
        let p = PartialAgg::decode(&payload[off..]).expect("partial agg frame");
        acc.merge(&p);
        off += remem_storage::PARTIAL_AGG_BYTES;
    }
    acc
}

fn assert_payload_matches(
    prog: &PushdownProgram,
    got: &[u8],
    want: &[u8],
) -> std::result::Result<(), String> {
    if prog.aggregate.is_some() {
        let g = merged_partial(got);
        let w = merged_partial(want);
        prop_assert_eq!(g.rows, w.rows);
        prop_assert_eq!(g.sum_int, w.sum_int);
        prop_assert_eq!(g.sum_float.to_bits(), w.sum_float.to_bits());
        prop_assert_eq!(g.min_f64().map(f64::to_bits), w.min_f64().map(f64::to_bits));
        prop_assert_eq!(g.max_f64().map(f64::to_bits), w.max_f64().map(f64::to_bits));
    } else {
        prop_assert_eq!(got, want);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary pages, predicates, projections and aggregates: the
    /// pushdown reply equals fetch-full-pages-then-filter, bit for bit.
    #[test]
    fn pushdown_equals_fetch_then_filter(
        rows in prop::collection::vec(row_strategy(), 0..120),
        prog in program_strategy(),
        donors in 1usize..3,
    ) {
        let (t, mut clock, pages) = load_rows(&rows, donors);
        let want = oracle(&t, &mut clock, pages, &prog);
        let scan = t.file
            .read_pushdown(&mut clock, 0, pages * PAGE_SIZE as u64, &prog)
            .unwrap();
        assert_payload_matches(&prog, &scan.payload, &want)?;
    }

    /// The same equality holds while a transient fault window is flickering
    /// over every donor: transient replies are retried, never dropped or
    /// double-applied.
    #[test]
    fn pushdown_survives_fault_windows(
        rows in prop::collection::vec(row_strategy(), 1..100),
        prog in program_strategy(),
        fault_seed in 0u64..1000,
    ) {
        let (t, mut clock, pages) = load_rows(&rows, 2);
        let want = oracle(&t, &mut clock, pages, &prog);
        let mut inj = FaultInjector::new(fault_seed);
        let until = clock.now() + SimDuration::from_secs(3600);
        for &d in &t.donors {
            inj = inj.flaky_window(d, SimTime::ZERO, until, 0.3);
        }
        t.fabric.set_fault_injector(Some(Arc::new(inj)));
        let scan = t.file
            .read_pushdown(&mut clock, 0, pages * PAGE_SIZE as u64, &prog)
            .unwrap();
        t.fabric.set_fault_injector(None);
        assert_payload_matches(&prog, &scan.payload, &want)?;
    }
}
