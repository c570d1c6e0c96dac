//! External merge sort with TempDB spilling.
//!
//! The Sort operator of Fig. 2: sorts within its memory grant when it can,
//! otherwise generates sorted runs in TempDB and k-way merges them. Run
//! writes and merge reads are sequential — exactly the TempDB traffic the
//! Hash+Sort micro-benchmark stresses.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use remem_storage::StorageError;

use crate::exec::ExecCtx;
use crate::row::Row;
use crate::tempdb::{SpillReader, TempDb};

/// Per-row bookkeeping added to the payload in a row's in-memory footprint.
const ROW_BOOKKEEPING: u64 = 32;

/// Estimated in-memory footprint of a row (payload + bookkeeping).
fn row_footprint(r: &Row) -> u64 {
    r.encoded_len() as u64 + ROW_BOOKKEEPING
}

fn log2_ceil(n: u64) -> u64 {
    64 - n.max(2).leading_zeros() as u64
}

/// `k`'s place in IEEE 754 total order as an integer: comparing these is
/// comparing with [`f64::total_cmp`], which computes exactly this.
fn total_order_key(k: f64) -> i64 {
    let bits = k.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Sort `rows` by `key` (ascending), spilling runs to `tempdb` when the
/// memory grant is exceeded. Returns at most `limit` rows if given.
pub fn external_sort(
    ctx: &mut ExecCtx<'_>,
    tempdb: &TempDb,
    rows: Vec<Row>,
    key: impl Fn(&Row) -> f64,
    grant_bytes: u64,
    limit: Option<usize>,
) -> Result<Vec<Row>, StorageError> {
    let mut total = 0u64;
    let fits = rows.iter().all(|r| {
        total += row_footprint(r);
        total <= grant_bytes
    });
    let n = rows.len() as u64;
    if fits {
        // in-memory sort
        ctx.charge_n(ctx.costs.compare, n * log2_ceil(n));
        let mut keyed: Vec<(f64, Row)> = rows.into_iter().map(|r| (key(&r), r)).collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut out: Vec<Row> = keyed.into_iter().map(|(_, r)| r).collect();
        if let Some(l) = limit {
            out.truncate(l);
        }
        ctx.charge_n(ctx.costs.row_output, out.len() as u64);
        return Ok(out);
    }

    // Phase 1: sorted runs of grant size. A row is encoded once, on entry to
    // the run buffer; the sort moves `(key, start, len)` entries and the run
    // is written from the bytes already encoded. The key is the integer
    // total order and `start` grows with arrival, so an unstable sort of the
    // entries is the stable `total_cmp` sort.
    let mut runs = Vec::new();
    let mut encoded: Vec<u8> = Vec::new();
    let mut batch: Vec<(i64, usize, usize)> = Vec::new();
    let mut batch_bytes = 0u64;
    let mut flush = |ctx: &mut ExecCtx<'_>,
                     encoded: &mut Vec<u8>,
                     batch: &mut Vec<(i64, usize, usize)>|
     -> Result<(), StorageError> {
        if batch.is_empty() {
            return Ok(());
        }
        let bn = batch.len() as u64;
        ctx.charge_n(ctx.costs.compare, bn * log2_ceil(bn));
        batch.sort_unstable_by_key(|&(k, start, _)| (k, start));
        let mut w = tempdb.writer();
        for &(_, start, len) in batch.iter() {
            w.push_encoded(ctx, &encoded[start..start + len])?;
        }
        runs.push(w.finish(ctx)?);
        batch.clear();
        encoded.clear();
        Ok(())
    };
    for r in rows {
        let start = encoded.len();
        r.encode(&mut encoded);
        let len = encoded.len() - start;
        batch_bytes += len as u64 + ROW_BOOKKEEPING;
        batch.push((total_order_key(key(&r)), start, len));
        if batch_bytes >= grant_bytes {
            flush(ctx, &mut encoded, &mut batch)?;
            batch_bytes = 0;
        }
    }
    flush(ctx, &mut encoded, &mut batch)?;
    // a Top-0 pays for its runs, as the in-memory path pays for its sort,
    // and reads none of them back
    if limit == Some(0) {
        return Ok(Vec::new());
    }

    // Phase 2: k-way merge
    struct HeapItem {
        key: f64,
        run: usize,
        row: Row,
    }
    impl PartialEq for HeapItem {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key && self.run == other.run
        }
    }
    impl Eq for HeapItem {}
    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> Ordering {
            // reversed: BinaryHeap is a max-heap, we want the smallest key
            other
                .key
                .total_cmp(&self.key)
                .then(other.run.cmp(&self.run))
        }
    }

    let mut readers: Vec<SpillReader<'_>> = runs.iter().map(|r| tempdb.reader(r)).collect();
    let mut heap = BinaryHeap::with_capacity(readers.len());
    for (i, reader) in readers.iter_mut().enumerate() {
        if let Some(row) = reader.next(ctx)? {
            heap.push(HeapItem {
                key: key(&row),
                run: i,
                row,
            });
        }
    }
    let logk = log2_ceil(runs.len() as u64);
    let mut out = Vec::new();
    while let Some(item) = heap.pop() {
        ctx.charge_n(ctx.costs.compare, logk);
        ctx.charge(ctx.costs.row_output);
        out.push(item.row);
        if let Some(l) = limit {
            if out.len() >= l {
                break;
            }
        }
        if let Some(row) = readers[item.run].next(ctx)? {
            heap.push(HeapItem {
                key: key(&row),
                run: item.run,
                row,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuCosts;
    use crate::exec::int_row;
    use crate::pagestore::{FileId, PagedFile};
    use remem_sim::rng::SimRng;
    use remem_sim::{Clock, CpuPool};
    use remem_storage::RamDisk;
    use std::sync::Arc;

    fn setup() -> (TempDb, Clock, CpuPool, CpuCosts) {
        let file = Arc::new(PagedFile::new(FileId(9), Arc::new(RamDisk::new(64 << 20))));
        (
            TempDb::new(file),
            Clock::new(),
            CpuPool::new(4),
            CpuCosts::default(),
        )
    }

    fn shuffled(n: i64, seed: u64) -> Vec<Row> {
        let mut keys: Vec<i64> = (0..n).collect();
        SimRng::seeded(seed).shuffle(&mut keys);
        keys.into_iter().map(|k| int_row(&[k])).collect()
    }

    #[test]
    fn in_memory_path_sorts_without_spill() {
        let (tempdb, mut clock, cpu, costs) = setup();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let rows = shuffled(1000, 1);
        let out =
            external_sort(&mut ctx, &tempdb, rows, |r| r.int(0) as f64, 64 << 20, None).unwrap();
        assert_eq!(out.len(), 1000);
        assert!(out.windows(2).all(|w| w[0].int(0) <= w[1].int(0)));
        assert_eq!(tempdb.bytes_spilled(), 0, "must not spill inside the grant");
    }

    #[test]
    fn spilling_path_matches_reference_sort() {
        let (tempdb, mut clock, cpu, costs) = setup();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let rows = shuffled(20_000, 2);
        // tiny grant forces many runs
        let out =
            external_sort(&mut ctx, &tempdb, rows, |r| r.int(0) as f64, 64 << 10, None).unwrap();
        assert_eq!(out.len(), 20_000);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(
                r.int(0),
                i as i64,
                "external sort output must equal reference"
            );
        }
        assert!(tempdb.bytes_spilled() > 0, "grant pressure must spill");
    }

    #[test]
    fn limit_truncates_both_paths() {
        let (tempdb, mut clock, cpu, costs) = setup();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let out = external_sort(
            &mut ctx,
            &tempdb,
            shuffled(5000, 3),
            |r| r.int(0) as f64,
            64 << 20,
            Some(10),
        )
        .unwrap();
        assert_eq!(
            out.iter().map(|r| r.int(0)).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        let out2 = external_sort(
            &mut ctx,
            &tempdb,
            shuffled(5000, 4),
            |r| r.int(0) as f64,
            32 << 10,
            Some(10),
        )
        .unwrap();
        assert_eq!(
            out2.iter().map(|r| r.int(0)).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn top_zero_returns_no_rows_on_both_paths() {
        let (tempdb, mut clock, cpu, costs) = setup();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        for grant in [64 << 20, 32 << 10] {
            let out = external_sort(
                &mut ctx,
                &tempdb,
                shuffled(5000, 6),
                |r| r.int(0) as f64,
                grant,
                Some(0),
            )
            .unwrap();
            assert!(out.is_empty(), "Top-0 returned rows at grant {grant}");
        }
        assert!(tempdb.bytes_spilled() > 0, "the small grant must spill");
    }

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let keys = [
            f64::NEG_INFINITY,
            -f64::NAN,
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::INFINITY,
            -0.0,
            0.0,
            -1.0,
            1.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ];
        for a in keys {
            for b in keys {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn duplicate_keys_are_all_retained() {
        let (tempdb, mut clock, cpu, costs) = setup();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let rows: Vec<Row> = (0..3000i64).map(|i| int_row(&[i % 7, i])).collect();
        let out =
            external_sort(&mut ctx, &tempdb, rows, |r| r.int(0) as f64, 16 << 10, None).unwrap();
        assert_eq!(out.len(), 3000);
        assert!(out.windows(2).all(|w| w[0].int(0) <= w[1].int(0)));
    }

    #[test]
    fn empty_input() {
        let (tempdb, mut clock, cpu, costs) = setup();
        let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
        let out =
            external_sort(&mut ctx, &tempdb, vec![], |r| r.int(0) as f64, 1024, None).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn spilling_costs_more_virtual_time_on_slow_devices() {
        // the §3.2 claim: TempDB device speed dominates spill-heavy queries.
        // Wide rows keep the comparison I/O-bound rather than CPU-bound.
        let mut keys: Vec<i64> = (0..20_000).collect();
        SimRng::seeded(5).shuffle(&mut keys);
        let rows: Vec<Row> = keys
            .into_iter()
            .map(|k| {
                Row::new(vec![
                    crate::row::Value::Int(k),
                    crate::row::Value::Str("p".repeat(900)),
                ])
            })
            .collect();
        let mut times = Vec::new();
        for slow in [false, true] {
            let device: Arc<dyn remem_storage::Device> = if slow {
                Arc::new(remem_storage::Ssd::new(
                    remem_storage::SsdConfig::with_capacity(64 << 20),
                ))
            } else {
                Arc::new(RamDisk::new(64 << 20))
            };
            let tempdb = TempDb::new(Arc::new(PagedFile::new(FileId(9), device)));
            let mut clock = Clock::new();
            let cpu = CpuPool::new(4);
            let costs = CpuCosts::default();
            let mut ctx = ExecCtx::new(&mut clock, &cpu, &costs);
            external_sort(
                &mut ctx,
                &tempdb,
                rows.clone(),
                |r| r.int(0) as f64,
                2 << 20,
                None,
            )
            .unwrap();
            drop(ctx);
            times.push(clock.now());
        }
        assert!(
            times[1].as_nanos() > times[0].as_nanos() * 3 / 2,
            "SSD spill {:?} should be much slower than RAM spill {:?}",
            times[1],
            times[0]
        );
    }
}
