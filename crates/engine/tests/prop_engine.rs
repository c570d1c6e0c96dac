//! Property-based tests for the engine's core invariants (proptest).

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use remem_engine::btree::BTree;
use remem_engine::bufferpool::BufferPool;
use remem_engine::exec::{int_row, ExecCtx};
use remem_engine::page::{Page, PageView, MAX_RECORD, PAGE_SIZE};
use remem_engine::pagestore::{FileId, PagedFile};
use remem_engine::row::{Row, Value};
use remem_engine::tempdb::TempDb;
use remem_engine::wal::{Wal, WalOp, WalRecord};
use remem_engine::CpuCosts;
use remem_sim::{Clock, CpuPool};
use remem_storage::RamDisk;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        // finite floats only: NaN breaks equality, which rows don't promise
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 _-]{0,64}".prop_map(Value::Str),
    ]
}

fn arb_row() -> impl Strategy<Value = Row> {
    prop::collection::vec(arb_value(), 0..8).prop_map(Row::new)
}

/// A one-string row whose encoding is `short` bytes under the largest
/// record a page holds: `short == 0` fills an empty page to the byte.
fn page_filling_row(short: usize) -> Row {
    // 2 (value count) + 1 (tag) + 4 (length) bytes around the string
    Row::new(vec![Value::Str("f".repeat(MAX_RECORD - 7 - short))])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Row serialization round-trips for arbitrary value mixes.
    #[test]
    fn row_encoding_round_trips(row in arb_row()) {
        let bytes = row.to_bytes();
        prop_assert_eq!(bytes.len(), row.encoded_len());
        let (back, used) = Row::decode(&bytes);
        prop_assert_eq!(back, row);
        prop_assert_eq!(used, bytes.len());
    }

    /// A slotted page returns exactly the records inserted, in order.
    #[test]
    fn page_is_an_ordered_record_store(records in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..256), 0..40)) {
        let mut page = Page::new();
        let mut kept = Vec::new();
        for r in &records {
            if page.insert(r).is_some() {
                kept.push(r.clone());
            } else {
                break; // page full: everything after is irrelevant
            }
        }
        prop_assert_eq!(page.len(), kept.len());
        for (i, r) in kept.iter().enumerate() {
            prop_assert_eq!(page.get(i), r.as_slice());
        }
        // survives a serialization cycle
        let back = Page::from_bytes(page.as_bytes());
        prop_assert_eq!(back.len(), kept.len());
    }

    /// A borrowed view decodes exactly what the owning page does — empty
    /// pages, exactly-full pages, and pages viewed inside a larger buffer.
    #[test]
    fn page_view_equals_page(
        pages in prop::collection::vec(
            (prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 0..60), any::<bool>()),
            1..4),
    ) {
        let mut owned = Vec::new();
        for (records, top_up) in &pages {
            let mut page = Page::new();
            for r in records {
                if page.insert(r).is_none() {
                    break;
                }
            }
            if *top_up && page.free_space() > 0 {
                // one last record taking every free byte: exactly full
                let fill = vec![0xEE; page.free_space()];
                page.insert(&fill).unwrap();
                prop_assert!(!page.fits(1));
            }
            owned.push(page);
        }
        let extent: Vec<u8> = owned.iter().flat_map(|p| p.as_bytes().iter().copied()).collect();
        for (i, page) in owned.iter().enumerate() {
            let view = PageView::new(&extent[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]);
            prop_assert_eq!(view.len(), page.len());
            prop_assert_eq!(view.is_empty(), page.is_empty());
            for slot in 0..page.len() {
                prop_assert_eq!(view.get(slot), page.get(slot));
            }
            prop_assert_eq!(view.iter().collect::<Vec<_>>(), page.iter().collect::<Vec<_>>());
        }
    }

    /// A spill stream reads back exactly the rows pushed, in order: empty
    /// strings, rows that fill a page to the byte, and (with enough of
    /// those) streams that cross extents and reservations.
    #[test]
    fn spill_stream_round_trips(
        rows in prop::collection::vec(
            prop_oneof![arb_row(), (0usize..3).prop_map(page_filling_row)], 0..1200),
    ) {
        let tempdb = TempDb::new(Arc::new(PagedFile::new(
            FileId(9), Arc::new(RamDisk::new(64 << 20)))));
        let cpu = CpuPool::new(4);
        let costs = CpuCosts::default();
        let mut clock = Clock::new();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let mut w = tempdb.writer();
        for r in &rows {
            w.push(&mut ctx, r).unwrap();
        }
        let spill = w.finish(&mut ctx).unwrap();
        prop_assert_eq!(spill.rows(), rows.len() as u64);
        prop_assert_eq!(tempdb.bytes_spilled(), spill.pages() * PAGE_SIZE as u64);
        let back = tempdb.read_all(&mut ctx, &spill).unwrap();
        prop_assert_eq!(back, rows);
        prop_assert_eq!(tempdb.bytes_read_back(), tempdb.bytes_spilled());
    }

    /// The in-memory hash join emits what a nested loop does *in the same
    /// order*: probe rows in input order, each with its matches in build
    /// order.
    #[test]
    fn in_memory_join_equals_nested_loop_in_order(
        build in prop::collection::vec((-8i64..8, any::<i32>()), 0..120),
        probe in prop::collection::vec((-8i64..8, any::<i32>()), 0..120),
    ) {
        let tempdb = TempDb::new(Arc::new(PagedFile::new(
            FileId(9), Arc::new(RamDisk::new(1 << 20)))));
        let cpu = CpuPool::new(4);
        let costs = CpuCosts::default();
        let mut clock = Clock::new();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let to_rows = |side: &[(i64, i32)]| -> Vec<Row> {
            side.iter().map(|&(k, v)| int_row(&[k, v as i64])).collect()
        };
        let joined = remem_engine::hashjoin::hash_join(
            &mut ctx, &tempdb, to_rows(&build), to_rows(&probe),
            |r| r.int(0), |r| r.int(0), 1 << 30,
            |b, p| int_row(&[b.int(0), b.int(1), p.int(1)])).unwrap();
        prop_assert_eq!(tempdb.bytes_spilled(), 0);
        let got: Vec<(i64, i64, i64)> =
            joined.iter().map(|r| (r.int(0), r.int(1), r.int(2))).collect();
        let mut expected = Vec::new();
        for &(pk, pv) in &probe {
            for &(bk, bv) in &build {
                if bk == pk {
                    expected.push((bk, bv as i64, pv as i64));
                }
            }
        }
        prop_assert_eq!(got, expected);
    }

    /// The paged B+tree behaves exactly like BTreeMap under random
    /// insert/overwrite/delete/lookup sequences.
    #[test]
    fn btree_equals_btreemap(ops in prop::collection::vec(
        (0u8..4, -200i64..200, prop::collection::vec(any::<u8>(), 0..64)), 1..300)) {
        let bp = BufferPool::new(256 * PAGE_SIZE as u64);
        let file = Arc::new(PagedFile::new(FileId(0), Arc::new(RamDisk::new(64 << 20))));
        bp.register_file(Arc::clone(&file));
        let mut clock = Clock::new();
        let tree = BTree::create(&mut clock, &bp, file).unwrap();
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        for (op, key, val) in ops {
            match op {
                0 | 1 => {
                    let replaced = tree.insert(&mut clock, &bp, key, &val).unwrap();
                    prop_assert_eq!(replaced, model.insert(key, val).is_some());
                }
                2 => {
                    let deleted = tree.delete(&mut clock, &bp, key).unwrap();
                    prop_assert_eq!(deleted, model.remove(&key).is_some());
                }
                _ => {
                    let got = tree.get(&mut clock, &bp, key).unwrap();
                    prop_assert_eq!(got.as_deref(), model.get(&key).map(|v| v.as_slice()));
                }
            }
            prop_assert_eq!(tree.len(), model.len() as u64);
        }
        // full scans agree, in order
        let mut scanned = Vec::new();
        tree.scan(&mut clock, &bp, |k, v| { scanned.push((k, v.to_vec())); true }).unwrap();
        let expected: Vec<(i64, Vec<u8>)> =
            model.into_iter().collect();
        prop_assert_eq!(scanned, expected);
    }

    /// External sort equals the standard library sort, at any grant size.
    #[test]
    fn external_sort_equals_std_sort(
        keys in prop::collection::vec(-10_000i64..10_000, 0..2_000),
        grant_kb in 1u64..256,
    ) {
        let tempdb = TempDb::new(Arc::new(PagedFile::new(
            FileId(9), Arc::new(RamDisk::new(64 << 20)))));
        let cpu = CpuPool::new(4);
        let costs = CpuCosts::default();
        let mut clock = Clock::new();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let rows: Vec<Row> = keys.iter().map(|&k| int_row(&[k])).collect();
        let sorted = remem_engine::sort::external_sort(
            &mut ctx, &tempdb, rows, |r| r.int(0) as f64, grant_kb << 10, None).unwrap();
        let mut expected = keys.clone();
        expected.sort_unstable();
        let got: Vec<i64> = sorted.iter().map(|r| r.int(0)).collect();
        prop_assert_eq!(got, expected);
    }

    /// Grace hash join equals a nested-loop reference, at any grant size.
    #[test]
    fn hash_join_equals_nested_loop(
        build in prop::collection::vec((-40i64..40, any::<i32>()), 0..150),
        probe in prop::collection::vec((-40i64..40, any::<i32>()), 0..150),
        grant_kb in 1u64..64,
    ) {
        let tempdb = TempDb::new(Arc::new(PagedFile::new(
            FileId(9), Arc::new(RamDisk::new(64 << 20)))));
        let cpu = CpuPool::new(4);
        let costs = CpuCosts::default();
        let mut clock = Clock::new();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let build_rows: Vec<Row> =
            build.iter().map(|&(k, v)| int_row(&[k, v as i64])).collect();
        let probe_rows: Vec<Row> =
            probe.iter().map(|&(k, v)| int_row(&[k, v as i64])).collect();
        let joined = remem_engine::hashjoin::hash_join(
            &mut ctx, &tempdb, build_rows, probe_rows,
            |r| r.int(0), |r| r.int(0), grant_kb << 10,
            |b, p| int_row(&[b.int(0), b.int(1), p.int(1)])).unwrap();
        let mut got: Vec<(i64, i64, i64)> =
            joined.iter().map(|r| (r.int(0), r.int(1), r.int(2))).collect();
        got.sort_unstable();
        let mut expected = Vec::new();
        for &(bk, bv) in &build {
            for &(pk, pv) in &probe {
                if bk == pk {
                    expected.push((bk, bv as i64, pv as i64));
                }
            }
        }
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// WAL replay is lossless and idempotent: every appended record comes
    /// back, in order, however often we replay.
    #[test]
    fn wal_replay_is_lossless(entries in prop::collection::vec(
        (0u8..3, any::<i64>(), -100i64..100), 1..200)) {
        let wal = Wal::new(Arc::new(RamDisk::new(16 << 20)));
        let mut clock = Clock::new();
        for &(op, key, v) in &entries {
            let (op, row) = match op {
                0 => (WalOp::Insert, Some(int_row(&[key, v]))),
                1 => (WalOp::Update, Some(int_row(&[key, v]))),
                _ => (WalOp::Delete, None),
            };
            wal.append(&mut clock, 1, op, key, row.as_ref()).unwrap();
        }
        for _ in 0..2 {
            let mut seen = Vec::new();
            wal.replay(&mut clock, 0, |r| seen.push((r.lsn, r.key))).unwrap();
            prop_assert_eq!(seen.len(), entries.len());
            prop_assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
            for (i, &(_, key, _)) in entries.iter().enumerate() {
                prop_assert_eq!(seen[i].1, key);
            }
        }
    }

    /// WAL frames round-trip through encode/parse for arbitrary records,
    /// and every strict truncation of a frame — a torn tail at any byte —
    /// parses as "no whole record" instead of garbage.
    #[test]
    fn wal_frame_round_trips_and_any_torn_tail_is_rejected(
        lsn in any::<u64>(),
        table in any::<u32>(),
        op in 0u8..3,
        key in any::<i64>(),
        row in prop::option::of(arb_row()),
        cut in 0usize..1usize << 12,
    ) {
        let op = match op {
            0 => WalOp::Insert,
            1 => WalOp::Update,
            _ => WalOp::Delete,
        };
        // Delete carries no after-image; mirror what the WAL writes.
        let row = if matches!(op, WalOp::Delete) { None } else { row };
        let rec = WalRecord { lsn, table, op, key, row };
        let frame = rec.encode();
        // encode_into over a dirty scratch buffer appends the same bytes
        let mut scratch = vec![0xAAu8; 7];
        rec.encode_into(&mut scratch);
        prop_assert_eq!(&scratch[7..], frame.as_slice());
        let (back, used) = WalRecord::parse_frame(&frame).unwrap();
        prop_assert_eq!(used, frame.len());
        prop_assert_eq!(back.lsn, rec.lsn);
        prop_assert_eq!(back.table, rec.table);
        prop_assert_eq!(back.op as u8, rec.op as u8);
        prop_assert_eq!(back.key, rec.key);
        prop_assert_eq!(back.row, rec.row);
        // a second frame after the first doesn't confuse the cut
        let mut two = frame.clone();
        two.extend_from_slice(&frame);
        let (_, used2) = WalRecord::parse_frame(&two).unwrap();
        prop_assert_eq!(used2, frame.len());
        // torn tail: any strict prefix yields no record
        let cut = cut % frame.len();
        prop_assert!(WalRecord::parse_frame(&frame[..cut]).is_none());
    }

    /// The buffer pool never loses a committed write, whatever the pool
    /// size and access pattern.
    #[test]
    fn buffer_pool_never_loses_writes(
        pool_pages in 2u64..16,
        writes in prop::collection::vec((0u64..64, any::<u64>()), 1..200),
    ) {
        let bp = BufferPool::new(pool_pages * PAGE_SIZE as u64);
        let file = Arc::new(PagedFile::new(FileId(0), Arc::new(RamDisk::new(64 << 20))));
        bp.register_file(Arc::clone(&file));
        let mut clock = Clock::new();
        for _ in 0..64 {
            let p = file.allocate().unwrap();
            bp.new_page(&mut clock, file.id(), p).unwrap();
        }
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for &(page, value) in &writes {
            bp.with_page_mut(&mut clock, file.id(), page, |pg| {
                *pg = Page::new();
                pg.insert(&value.to_le_bytes()).unwrap();
            }).unwrap();
            model.insert(page, value);
        }
        for (&page, &value) in &model {
            let got = bp.with_page(&mut clock, file.id(), page, |pg| {
                u64::from_le_bytes(pg.get(0).try_into().unwrap())
            }).unwrap();
            prop_assert_eq!(got, value);
        }
    }
}
