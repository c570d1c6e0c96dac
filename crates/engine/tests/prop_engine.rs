//! Property-based tests for the engine's core invariants (proptest).

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use remem_engine::btree::{Appended, BTree, NodeView, RightEdge, MAX_VALUE_BYTES};
use remem_engine::bufferpool::{BufferPool, PageAccess};
use remem_engine::exec::{int_row, ExecCtx};
use remem_engine::page::{Page, PageView, MAX_RECORD, PAGE_SIZE};
use remem_engine::pagestore::{FileId, PageNo, PagedFile};
use remem_engine::row::{ColType, Row, Schema, Value};
use remem_engine::tempdb::{SpillFile, TempDb};
use remem_engine::wal::{Wal, WalOp, WalRecord};
use remem_engine::{CpuCosts, Database, DbConfig, DbError, DeviceSet};
use remem_sim::{Clock, CpuPool};
use remem_storage::{Device, RamDisk, StorageError};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        // finite floats only: NaN breaks equality, which rows don't promise
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 _-]{0,64}".prop_map(Value::Str),
    ]
}

/// Sort keys where `total_cmp` differs from `<`: both zeros, both
/// infinities, quiet and signalling NaNs of both signs, and a few finite
/// values that repeat.
const SORT_KEYS: [f64; 12] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    f64::from_bits(0x7ff0_0000_0000_0001),
    f64::from_bits(0xfff0_0000_0000_0001),
    1.5,
    -1.5,
    f64::MIN_POSITIVE,
    f64::MAX,
];

fn arb_row() -> impl Strategy<Value = Row> {
    prop::collection::vec(arb_value(), 0..8).prop_map(Row::new)
}

/// A one-string row whose encoding is `short` bytes under the largest
/// record a page holds: `short == 0` fills an empty page to the byte.
fn page_filling_row(short: usize) -> Row {
    // 2 (value count) + 1 (tag) + 4 (length) bytes around the string
    Row::new(vec![Value::Str("f".repeat(MAX_RECORD - 7 - short))])
}

/// The owned node form `BTree::range` decoded every node into before it
/// walked them in place — kept here as the reference the in-place accessors
/// and walk are checked against.
enum RefNode {
    Leaf {
        next: Option<PageNo>,
        entries: Vec<(i64, Vec<u8>)>,
    },
    Internal {
        keys: Vec<i64>,
        children: Vec<PageNo>,
    },
}

fn ref_decode(page: &Page) -> RefNode {
    let header = page.get(0);
    match header[0] {
        1 => {
            let next = u64::from_le_bytes(header[1..9].try_into().unwrap());
            let entries = (1..page.len())
                .map(|i| {
                    let rec = page.get(i);
                    let key = i64::from_le_bytes(rec[..8].try_into().unwrap());
                    (key, rec[8..].to_vec())
                })
                .collect();
            RefNode::Leaf {
                next: (next != u64::MAX).then_some(next),
                entries,
            }
        }
        0 => {
            let child0 = u64::from_le_bytes(page.get(1).try_into().unwrap());
            let mut keys = Vec::with_capacity(page.len() - 2);
            let mut children = vec![child0];
            for i in 2..page.len() {
                let rec = page.get(i);
                keys.push(i64::from_le_bytes(rec[..8].try_into().unwrap()));
                children.push(u64::from_le_bytes(rec[8..16].try_into().unwrap()));
            }
            RefNode::Internal { keys, children }
        }
        t => panic!("corrupt B+tree node tag {t}"),
    }
}

/// The decode-based `range`: descend to the leaf holding `lo`, then walk the
/// leaf chain, one `with_page` per node.
fn ref_range(
    clock: &mut Clock,
    bp: &BufferPool,
    tree: &BTree,
    lo: i64,
    hi: i64,
    mut visit: impl FnMut(i64, &[u8]) -> bool,
) {
    if lo >= hi {
        return;
    }
    let file = tree.file().id();
    let mut pno = tree.root();
    let mut leaf = loop {
        match bp.with_page(clock, file, pno, ref_decode).unwrap() {
            RefNode::Internal { keys, children } => {
                pno = children[keys.partition_point(|k| *k <= lo)];
            }
            leaf @ RefNode::Leaf { .. } => break leaf,
        }
    };
    loop {
        let RefNode::Leaf { next, entries } = leaf else {
            unreachable!()
        };
        for (k, v) in &entries {
            if *k < lo {
                continue;
            }
            if *k >= hi || !visit(*k, v) {
                return;
            }
        }
        match next {
            Some(n) => leaf = bp.with_page(clock, file, n, ref_decode).unwrap(),
            None => return,
        }
    }
}

type RangeRun = (Vec<(i64, Vec<u8>)>, Vec<(PageAccess, FileId, PageNo)>);

/// One walk stopped after `stop_after` entries: what it visited and the pool
/// calls it made.
fn run_range(
    bp: &BufferPool,
    stop_after: Option<usize>,
    walk: impl FnOnce(&mut dyn FnMut(i64, &[u8]) -> bool),
) -> RangeRun {
    bp.take_accesses();
    let mut seen = Vec::new();
    walk(&mut |k, v| {
        seen.push((k, v.to_vec()));
        stop_after != Some(seen.len())
    });
    (seen, bp.take_accesses())
}

/// Check TempDB's allocator against a page bitmap: the free list is sorted
/// and coalesced, no page has two owners among the free runs and the
/// finished `files`, and live + free + unallocated = capacity.
fn check_space(tempdb: &TempDb, files: &[(SpillFile<'_>, Vec<i64>)]) -> Result<(), String> {
    let allocated = tempdb.file().allocated_pages();
    let free = tempdb.free_runs();
    for pair in free.windows(2) {
        prop_assert!(
            pair[0].0 + pair[0].1 < pair[1].0,
            "free list unsorted or uncoalesced: {free:?}"
        );
    }
    // 0: held by a writer, 1: free, 2: in a finished file
    let mut owner = vec![0u8; allocated as usize];
    let mut mark = |runs: &[(PageNo, u64)], who: u8| -> Result<u64, String> {
        let mut pages = 0;
        for &(start, n) in runs {
            prop_assert!(
                n > 0 && start + n <= allocated,
                "run ({start}, {n}) of {allocated}"
            );
            for page in start..start + n {
                prop_assert_eq!(owner[page as usize], 0, "page {page} has two owners");
                owner[page as usize] = who;
            }
            pages += n;
        }
        Ok(pages)
    };
    let free_pages = mark(&free, 1)?;
    let mut file_pages = 0;
    for (file, _) in files {
        prop_assert_eq!(
            file.extents().iter().map(|e| e.1).sum::<u64>(),
            file.pages()
        );
        file_pages += mark(file.extents(), 2)?;
    }
    let live = tempdb.live_bytes() / PAGE_SIZE as u64;
    prop_assert!(
        file_pages <= live,
        "files hold {file_pages} of {live} live pages"
    );
    let capacity = tempdb.file().capacity_pages();
    prop_assert_eq!(live + free_pages + (capacity - allocated), capacity);
    Ok(())
}

/// Replay a spill script — `(what, writer slot, amount)` steps over four
/// writer slots, half of them pushes — on a six-extent TempDB, checking the
/// space after every step and every file's rows before it is dropped.
/// Returns the extents each finished file got, in order, then the final free
/// list.
fn run_spill_script(ops: &[(u8, usize, usize)]) -> Result<Vec<Vec<(PageNo, u64)>>, String> {
    let tempdb = TempDb::new(Arc::new(PagedFile::new(
        FileId(9),
        Arc::new(RamDisk::new(1536 * PAGE_SIZE as u64)),
    )));
    let cpu = CpuPool::new(4);
    let costs = CpuCosts::default();
    let mut clock = Clock::new();
    let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
    let out_of_space = |e: &StorageError| matches!(e, StorageError::OutOfBounds { .. });
    let tags = |rows: Vec<Row>| -> Vec<i64> { rows.iter().map(|r| r.int(0)).collect() };
    let mut writers: Vec<_> = (0..4).map(|_| None).collect();
    let mut files: Vec<(SpillFile<'_>, Vec<i64>)> = Vec::new();
    let mut log = Vec::new();
    let mut tag = 0;
    for &(what, slot, amount) in ops {
        match what {
            // push `amount` rows, two to a page; a writer that finds TempDB
            // full is dropped unfinished
            0..=2 => {
                let (w, pushed) =
                    writers[slot].get_or_insert_with(|| (tempdb.writer(), Vec::new()));
                let mut full = false;
                for _ in 0..amount {
                    tag += 1;
                    let row = Row::new(vec![Value::Int(tag), Value::Str("w".repeat(3_900))]);
                    match w.push(&mut ctx, &row) {
                        Ok(()) => pushed.push(tag),
                        Err(e) => {
                            prop_assert!(out_of_space(&e), "{e}");
                            full = true;
                            break;
                        }
                    }
                }
                if full {
                    writers[slot] = None;
                }
            }
            3 => {
                if let Some((w, pushed)) = writers[slot].take() {
                    match w.finish(&mut ctx) {
                        Ok(file) => {
                            log.push(file.extents().to_vec());
                            files.push((file, pushed));
                        }
                        Err(e) => prop_assert!(out_of_space(&e), "{e}"),
                    }
                }
            }
            4 => {
                if !files.is_empty() {
                    let (file, pushed) = files.swap_remove(amount % files.len());
                    prop_assert_eq!(tags(tempdb.read_all(&mut ctx, &file).unwrap()), pushed);
                }
            }
            _ => writers[slot] = None,
        }
        check_space(&tempdb, &files)?;
    }
    for (file, pushed) in files.drain(..) {
        prop_assert_eq!(tags(tempdb.read_all(&mut ctx, &file).unwrap()), pushed);
    }
    drop(writers);
    prop_assert_eq!(tempdb.live_bytes(), 0);
    let high_water = tempdb.file().allocated_pages();
    let one_run: Vec<(PageNo, u64)> = (high_water > 0)
        .then_some((0, high_water))
        .into_iter()
        .collect();
    prop_assert_eq!(tempdb.free_runs(), one_run);
    log.push(tempdb.free_runs());
    Ok(log)
}

/// Two trees sharing one paged file, the way a database's tables share its
/// data file.
struct Forest {
    bp: BufferPool,
    file: Arc<PagedFile>,
    trees: [BTree; 2],
    clock: Clock,
}

impl Forest {
    /// On a 48-frame pool, so building the trees evicts and reads back.
    fn new() -> Forest {
        let bp = BufferPool::new(48 * PAGE_SIZE as u64);
        let file = Arc::new(PagedFile::new(FileId(0), Arc::new(RamDisk::new(32 << 20))));
        bp.register_file(Arc::clone(&file));
        let mut clock = Clock::new();
        let mut tree = || BTree::create(&mut clock, &bp, Arc::clone(&file)).unwrap();
        let trees = [tree(), tree()];
        Forest {
            bp,
            file,
            trees,
            clock,
        }
    }

    /// Every allocated page's bytes, in page order.
    fn pages(&mut self) -> Vec<Vec<u8>> {
        (0..self.file.allocated_pages())
            .map(|pno| {
                self.bp
                    .with_page(&mut self.clock, self.file.id(), pno, |page| {
                        page.as_bytes().to_vec()
                    })
                    .unwrap()
            })
            .collect()
    }

    /// Root, height and length of each tree, then the pages allocated.
    fn shape(&self) -> Vec<u64> {
        let mut shape: Vec<u64> = self
            .trees
            .iter()
            .flat_map(|t| [t.root(), t.height(), t.len()])
            .collect();
        shape.push(self.file.allocated_pages());
        shape
    }
}

/// Turn `(second tree?, key gap, value length)` steps into ascending keys per
/// tree, starting at `starts`.
fn ascending(script: &[(bool, i64, usize)], starts: [i64; 2]) -> Vec<(usize, i64, usize)> {
    let mut next = starts;
    script
        .iter()
        .map(|&(second, gap, len)| {
            let t = second as usize;
            next[t] += gap;
            (t, next[t], len)
        })
        .collect()
}

/// Load `steps` into two forests, one `insert` per entry and one `append`
/// per entry, and require the same roots, heights, lengths, page numbers
/// and page images. Then check that keys not above a tree's last, and
/// values over the limit, are refused by `append` with nothing written.
/// Returns both trees' heights.
fn append_against_insert(steps: &[(usize, i64, usize)]) -> Result<[u64; 2], String> {
    let value = |key: i64, len: usize| vec![key as u8; len];
    let mut inserted = Forest::new();
    let mut appended = Forest::new();
    let mut edges = [RightEdge::default(), RightEdge::default()];
    for &(t, key, len) in steps {
        let f = &mut inserted;
        prop_assert!(!f.trees[t]
            .insert(&mut f.clock, &f.bp, key, &value(key, len))
            .unwrap());
        let f = &mut appended;
        let got = f.trees[t]
            .append(&mut f.clock, &f.bp, &mut edges[t], key, &value(key, len))
            .unwrap();
        prop_assert!(matches!(got, Appended::Placed | Appended::Opened));
    }
    prop_assert_eq!(appended.shape(), inserted.shape());
    let pages = inserted.pages();
    prop_assert!(appended.pages() == pages, "page images differ");

    let f = &mut appended;
    for (t, edge) in edges.iter_mut().enumerate() {
        let last = steps.iter().rev().find(|s| s.0 == t).map(|s| s.1);
        for key in last.into_iter().flat_map(|k| [k, k - 1, i64::MIN]) {
            let got = f.trees[t].append(&mut f.clock, &f.bp, edge, key, b"late");
            prop_assert_eq!(got.unwrap(), Appended::OutOfOrder);
        }
        let key = last.map_or(0, |k| k + 1);
        let huge = vec![0u8; MAX_VALUE_BYTES + 1];
        let got = f.trees[t].append(&mut f.clock, &f.bp, edge, key, &huge);
        prop_assert!(
            matches!(got, Err(StorageError::RecordTooLarge { len, max })
                if len == MAX_VALUE_BYTES + 1 && max == MAX_VALUE_BYTES),
            "{got:?}"
        );
    }
    prop_assert_eq!(appended.shape(), inserted.shape());
    prop_assert!(appended.pages() == pages, "a refused append wrote");
    Ok([inserted.trees[0].height(), inserted.trees[1].height()])
}

/// Row `(key, padding)` that encodes to `len` bytes (at least 16).
fn keyed_row(key: i64, len: usize) -> Row {
    // 2 (value count) + 9 (tagged int) + 5 (tag and length) around the string
    Row::new(vec![
        Value::Int(key),
        Value::Str("x".repeat(len.saturating_sub(16))),
    ])
}

/// A database on RAM disks whose data and log devices the test reads back.
fn small_db() -> (Database, Arc<RamDisk>, Arc<RamDisk>) {
    let data = Arc::new(RamDisk::new(16 << 20));
    let log = Arc::new(RamDisk::new(32 << 20));
    let devices = DeviceSet {
        data: Arc::clone(&data) as Arc<dyn remem_storage::Device>,
        log: Arc::clone(&log) as Arc<dyn remem_storage::Device>,
        tempdb: Arc::new(RamDisk::new(1 << 20)),
        bpext: None,
        wal_ring: None,
    };
    let db = Database::standalone(DbConfig::with_pool(64 * PAGE_SIZE as u64), 4, devices);
    (db, data, log)
}

fn device_bytes(device: &RamDisk, len: u64) -> Vec<u8> {
    let mut bytes = vec![0u8; len as usize];
    device.read(&mut Clock::new(), 0, &mut bytes).unwrap();
    bytes
}

/// Load the same two interleaved tables into two databases, row by row
/// with `Database::insert` and through one `BulkLoader` per table, and
/// require the same data pages on the device, the same log bytes and LSNs,
/// the same heights and row counts, and the same answers from `scan`,
/// `get` and `range`. Then check the loader's typed refusals, each of
/// which writes nothing.
fn bulk_load_against_insert(steps: &[(usize, i64, usize)]) -> Result<(), String> {
    let schema = || Schema::new(vec![("k", ColType::Int), ("pad", ColType::Str)]);
    let (by_row, row_data, row_log) = small_db();
    let (bulk, bulk_data, bulk_log) = small_db();
    let mut row_clock = Clock::new();
    let mut bulk_clock = Clock::new();
    let mut tables = Vec::new();
    for _ in 0..2 {
        let t = by_row.create_table(&mut row_clock, schema(), 0).unwrap();
        prop_assert_eq!(bulk.create_table(&mut bulk_clock, schema(), 0).unwrap(), t);
        tables.push(t);
    }
    let mut loaders = [
        bulk.bulk_loader(tables[0]).unwrap(),
        bulk.bulk_loader(tables[1]).unwrap(),
    ];
    for &(t, key, len) in steps {
        by_row
            .insert(&mut row_clock, tables[t], keyed_row(key, len))
            .unwrap();
        loaders[t]
            .push(&mut bulk_clock, keyed_row(key, len))
            .unwrap();
    }
    for loader in loaders {
        loader.finish(&mut bulk_clock).unwrap();
    }

    let same_state = |bulk_clock: &mut Clock, row_clock: &mut Clock| -> Result<(), String> {
        by_row.checkpoint(row_clock).unwrap();
        bulk.checkpoint(bulk_clock).unwrap();
        prop_assert!(
            device_bytes(&bulk_data, 16 << 20) == device_bytes(&row_data, 16 << 20),
            "data pages differ"
        );
        let tail = by_row.wal().tail_bytes();
        prop_assert_eq!(bulk.wal().tail_bytes(), tail);
        prop_assert!(
            device_bytes(&bulk_log, tail) == device_bytes(&row_log, tail),
            "log differs"
        );
        prop_assert_eq!(bulk.wal().current_lsn(), by_row.wal().current_lsn());
        for &t in &tables {
            prop_assert_eq!(bulk.row_count(t), by_row.row_count(t));
            prop_assert_eq!(bulk.index_height(t), by_row.index_height(t));
        }
        Ok(())
    };
    same_state(&mut bulk_clock, &mut row_clock)?;
    prop_assert!(bulk.wal().stats().groups <= by_row.wal().stats().groups);
    for (t, &table) in tables.iter().enumerate() {
        prop_assert_eq!(
            bulk.scan(&mut bulk_clock, table).unwrap(),
            by_row.scan(&mut row_clock, table).unwrap()
        );
        let keys: Vec<i64> = steps.iter().filter(|s| s.0 == t).map(|s| s.1).collect();
        for &key in keys.iter().step_by(7).chain(&[i64::MIN, -1, i64::MAX]) {
            for k in [key.saturating_sub(1), key, key.saturating_add(1)] {
                prop_assert_eq!(
                    bulk.get(&mut bulk_clock, table, k).unwrap(),
                    by_row.get(&mut row_clock, table, k).unwrap()
                );
            }
        }
        let (lo, hi) = (
            keys.first().copied().unwrap_or(0),
            keys.last().copied().unwrap_or(0),
        );
        for (a, b) in [(lo, hi), (lo + 1, hi), ((lo + hi) / 2, hi + 1), (hi, lo)] {
            prop_assert_eq!(
                bulk.range(&mut bulk_clock, table, a, b).unwrap(),
                by_row.range(&mut row_clock, table, a, b).unwrap()
            );
        }
    }

    // refusals: a key not above the table's last, a row over the limit, a
    // table with an NC index — none writes a page, a log record or a row
    for (t, &table) in tables.iter().enumerate() {
        let mut loader = bulk.bulk_loader(table).unwrap();
        let last = steps.iter().rev().find(|s| s.0 == t).map(|s| s.1);
        for key in last.into_iter().flat_map(|k| [k, k - 1]) {
            let got = loader.push(&mut bulk_clock, keyed_row(key, 8));
            prop_assert!(
                matches!(got, Err(DbError::KeyNotAscending { table: tt, key: kk })
                    if tt == table && kk == key),
                "{got:?}"
            );
        }
        let next = last.map_or(0, |k| k + 1);
        let got = loader.push(&mut bulk_clock, keyed_row(next, MAX_VALUE_BYTES + 1));
        prop_assert!(
            matches!(got, Err(DbError::Storage(StorageError::RecordTooLarge { len, max }))
                if len == MAX_VALUE_BYTES + 1 && max == MAX_VALUE_BYTES),
            "{got:?}"
        );
        loader.finish(&mut bulk_clock).unwrap();
    }
    same_state(&mut bulk_clock, &mut row_clock)?;
    let before = bulk.wal().tail_bytes();
    bulk.create_nc_index(
        &mut bulk_clock,
        tables[1],
        0,
        Arc::new(RamDisk::new(16 << 20)),
    )
    .unwrap();
    let next = steps.iter().rev().find(|s| s.0 == 1).map_or(0, |s| s.1 + 1);
    let got = bulk
        .bulk_loader(tables[1])
        .unwrap()
        .push(&mut bulk_clock, keyed_row(next, 8));
    prop_assert!(
        matches!(got, Err(DbError::BulkLoadIndexed { table }) if table == tables[1]),
        "{got:?}"
    );
    prop_assert_eq!(bulk.wal().tail_bytes(), before);
    prop_assert_eq!(bulk.row_count(tables[1]), by_row.row_count(tables[1]));
    Ok(())
}

/// Interleaved steps for two tables: one in five for the second, gaps of 1
/// to 1 000, two in three values near the limit.
fn arb_load_script(max_steps: usize) -> impl Strategy<Value = Vec<(bool, i64, usize)>> {
    let near_limit = 1_800usize..MAX_VALUE_BYTES + 1;
    prop::collection::vec(
        (
            (0u8..5).prop_map(|x| x == 0),
            1i64..1_000,
            prop_oneof![0usize..120, near_limit.clone(), near_limit],
        ),
        0..max_steps,
    )
}

/// Heights 1 to 3 are all reached by the same comparison: no entries, one
/// leaf, two levels, and a third level over 409 full leaves of the largest
/// values.
#[test]
fn append_equals_insert_from_empty_to_height_three() {
    let heights = |script: &[(bool, i64, usize)]| {
        append_against_insert(&ascending(script, [0, -50_000])).unwrap()
    };
    assert_eq!(heights(&[]), [1, 1]);
    assert_eq!(heights(&[(false, 1, 10), (true, 1, 10)]), [1, 1]);
    let two_levels: Vec<_> = (0..300).map(|i| (i % 3 == 0, 1, 1_000)).collect();
    assert_eq!(heights(&two_levels), [2, 2]);
    let three_levels: Vec<_> = (0..1_400)
        .map(|i| (i % 50 == 0, 1, MAX_VALUE_BYTES))
        .collect();
    let [a, b] = heights(&three_levels);
    assert!(a >= 3 && b == 2, "heights {a}, {b}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `append` leaves exactly the pages ascending `insert`s leave — for two
    /// interleaved trees in one file, values up to the limit, trees up to
    /// three levels — and refuses out-of-order keys and oversize values
    /// without writing.
    #[test]
    fn append_equals_ascending_insert(
        script in arb_load_script(2_500),
        starts in (-1_000i64..1_000, -1_000i64..1_000),
    ) {
        append_against_insert(&ascending(&script, [starts.0, starts.1]))?;
    }

    /// A bulk load leaves the data pages, log bytes, LSNs and answers a
    /// row-by-row load leaves, for two tables loaded interleaved. (Keys stay
    /// non-negative: the NC index the last refusal needs requires it.)
    #[test]
    fn bulk_load_equals_row_by_row_insert(
        script in arb_load_script(900),
        starts in (0i64..1_000, 0i64..1_000),
    ) {
        bulk_load_against_insert(&ascending(&script, [starts.0, starts.1]))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Row serialization round-trips for arbitrary value mixes, into a fresh
    /// row and over whatever another row held.
    #[test]
    fn row_encoding_round_trips(row in arb_row(), mut scratch in arb_row()) {
        let bytes = row.to_bytes();
        prop_assert_eq!(bytes.len(), row.encoded_len());
        let (back, used) = Row::decode(&bytes);
        prop_assert_eq!(&back, &row);
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(scratch.decode_into(&bytes), bytes.len());
        prop_assert_eq!(scratch, row);
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

    /// Several spill writers interleaved at random — push, finish, drop a
    /// finished file, drop a writer unfinished — against a page bitmap: live
    /// extents never overlap (and every file reads back what was pushed),
    /// the free list stays sorted and coalesced, live + free + unallocated =
    /// capacity, dropping everything leaves one run `[0, high water)`, and
    /// the same script gets the same pages.
    #[test]
    fn tempdb_space_is_conserved_and_placed_deterministically(
        ops in prop::collection::vec((0u8..6, 0usize..4, 0usize..600), 1..48),
    ) {
        let placed = run_spill_script(&ops)?;
        prop_assert_eq!(run_spill_script(&ops)?, placed);
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

    /// The in-place read path equals the decode-based one it replaced: on
    /// every node of a random tree (emptied and thinned leaves included) the
    /// accessors agree with the reference decode, and `range` visits the same
    /// entries through the same pool calls — for bounds on a key, between
    /// keys, outside the key space, the whole `i64` span, `lo >= hi`, and a
    /// `visit` that stops at every position.
    #[test]
    fn in_place_range_equals_decoded_walk(
        ops in prop::collection::vec(
            (0u8..8, -300i64..300, 0usize..1_200, any::<u8>()), 1..500),
        gap in (-300i64..300, 0i64..120),
        bounds in prop::collection::vec((-310i64..310, -310i64..310), 1..12),
    ) {
        let bp = BufferPool::new(256 * PAGE_SIZE as u64);
        let file = Arc::new(PagedFile::new(FileId(0), Arc::new(RamDisk::new(64 << 20))));
        bp.register_file(Arc::clone(&file));
        let mut clock = Clock::new();
        let tree = BTree::create(&mut clock, &bp, Arc::clone(&file)).unwrap();
        // keys are even, so every odd number falls between two keys
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        for (op, key, len, fill) in ops {
            if op == 7 {
                tree.delete(&mut clock, &bp, key * 2).unwrap();
                model.remove(&(key * 2));
            } else {
                let val = vec![fill; len];
                tree.insert(&mut clock, &bp, key * 2, &val).unwrap();
                model.insert(key * 2, val);
            }
        }
        // delete a stretch whole: with ~8 entries a leaf this empties some
        for key in gap.0..gap.0 + gap.1 {
            tree.delete(&mut clock, &bp, key * 2).unwrap();
            model.remove(&(key * 2));
        }
        prop_assert_eq!(tree.len(), model.len() as u64);

        // every node: accessors against the reference decode
        let probes: Vec<i64> = model.keys().flat_map(|&k| [k - 1, k, k + 1])
            .chain([i64::MIN, i64::MAX, 0]).collect();
        let mut todo = vec![tree.root()];
        let mut leaves = 0;
        while let Some(pno) = todo.pop() {
            bp.with_page(&mut clock, file.id(), pno, |page| {
                let view = NodeView::new(page.view());
                match ref_decode(page) {
                    RefNode::Leaf { next, entries } => {
                        leaves += 1;
                        prop_assert!(view.is_leaf());
                        prop_assert_eq!(view.len(), entries.len());
                        prop_assert_eq!(view.is_empty(), entries.is_empty());
                        prop_assert_eq!(view.next(), next);
                        for (i, (k, v)) in entries.iter().enumerate() {
                            prop_assert_eq!(view.key_at(i), *k);
                            prop_assert_eq!(view.entry_at(i), (*k, v.as_slice()));
                        }
                        for &k in &probes {
                            prop_assert_eq!(
                                view.leaf_find(k),
                                entries.binary_search_by_key(&k, |(k, _)| *k));
                        }
                    }
                    RefNode::Internal { keys, children } => {
                        prop_assert!(!view.is_leaf());
                        prop_assert_eq!(view.len(), keys.len());
                        for (i, k) in keys.iter().enumerate() {
                            prop_assert_eq!(view.key_at(i), *k);
                        }
                        for (i, c) in children.iter().enumerate() {
                            prop_assert_eq!(view.child_at(i), *c);
                        }
                        for &k in &probes {
                            prop_assert_eq!(
                                view.child_for(k),
                                children[keys.partition_point(|s| *s <= k)]);
                        }
                        todo.extend(children);
                    }
                }
                Ok(())
            }).unwrap()?;
        }
        prop_assert!(leaves >= 1);

        // ranges: the drawn bounds (on a key when even, between keys when
        // odd, `lo >= hi` about half the time), the edges of the key space,
        // and the whole span
        let first = model.keys().next().copied().unwrap_or(0);
        let last = model.keys().next_back().copied().unwrap_or(0);
        let mut ranges: Vec<(i64, i64)> = bounds.iter().map(|&(a, b)| (a * 2, b * 2 + 1)).collect();
        ranges.extend(bounds.iter().map(|&(a, b)| (a * 2 + 1, b * 2)));
        ranges.extend([
            (i64::MIN, i64::MAX), (i64::MIN, first), (i64::MIN, first + 1),
            (last, i64::MAX), (last + 1, i64::MAX), (first, last), (first, first),
            (i64::MAX, i64::MIN), (first - 5, last + 5),
        ]);
        bp.record_accesses(true);
        for (n, &(lo, hi)) in ranges.iter().enumerate() {
            let whole = run_range(&bp, None, |v| ref_range(&mut clock, &bp, &tree, lo, hi, v));
            let expected: Vec<(i64, Vec<u8>)> = if lo < hi {
                model.range(lo..hi).map(|(k, v)| (*k, v.clone())).collect()
            } else {
                Vec::new()
            };
            prop_assert_eq!(&whole.0, &expected);
            // stop at every position of the whole-span walk, at a few of the others
            let stops: Vec<Option<usize>> = if n == bounds.len() * 2 {
                (1..=expected.len() + 1).map(Some).collect()
            } else {
                vec![Some(1), Some(expected.len() / 2), Some(expected.len()), None]
            };
            for stop in stops {
                let reference =
                    run_range(&bp, stop, |v| ref_range(&mut clock, &bp, &tree, lo, hi, v));
                let in_place = run_range(&bp, stop, |v| {
                    tree.range(&mut clock, &bp, lo, hi, v).unwrap()
                });
                prop_assert_eq!(&in_place, &reference);
            }
        }
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

    /// External sort is a stable `total_cmp` sort, spilled or not, on keys
    /// with duplicates, both zeros, both infinities and NaNs of both signs;
    /// a limit keeps that order's first rows, and Top-0 keeps none.
    #[test]
    fn external_sort_is_a_stable_total_cmp_sort(
        picks in prop::collection::vec(0usize..SORT_KEYS.len(), 0..1_500),
        grant_kb in 1u64..96,
        limit in prop_oneof![Just(None), Just(Some(0)), (1usize..40).prop_map(Some)],
    ) {
        let tempdb = TempDb::new(Arc::new(PagedFile::new(
            FileId(9), Arc::new(RamDisk::new(64 << 20)))));
        let cpu = CpuPool::new(4);
        let costs = CpuCosts::default();
        let mut clock = Clock::new();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let keys: Vec<f64> = picks.iter().map(|&p| SORT_KEYS[p]).collect();
        // a row is its arrival index; the key is looked up by it
        let rows: Vec<Row> = (0..keys.len() as i64).map(|i| int_row(&[i])).collect();
        let sorted = remem_engine::sort::external_sort(
            &mut ctx, &tempdb, rows, |r| keys[r.int(0) as usize], grant_kb << 10, limit).unwrap();
        let mut expected: Vec<i64> = (0..keys.len() as i64).collect();
        expected.sort_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]));
        expected.truncate(limit.unwrap_or(usize::MAX));
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
