//! The Hash+Sort micro-benchmark (§5.2.2): TempDB stress.
//!
//! `SELECT TOP 100000 * FROM lineitem l JOIN orders o ON l.orderkey =
//! o.orderkey ORDER BY l.extendedprice` — the Fig. 2 plan: a hash join
//! whose build side exceeds its memory grant (spilling partitions) followed
//! by a Top-N sort whose runs spill again. Both spills land in TempDB.

use remem_engine::row::ColType;
use remem_engine::{Database, DbError, Row, Schema, TableId, Value};
use remem_sim::rng::SimRng;
use remem_sim::{Clock, SimDuration};

/// Scaled data sizes: the paper uses 227 GB (TPC-H lineitem+orders at a
/// large scale factor); we default to lineitem rows ≈ paper/1000.
#[derive(Debug, Clone)]
pub struct HashSortParams {
    pub orders: u64,
    pub lineitems_per_order: u64,
    pub top_n: usize,
    pub seed: u64,
}

impl Default for HashSortParams {
    fn default() -> HashSortParams {
        HashSortParams {
            orders: 30_000,
            lineitems_per_order: 4,
            top_n: 1_000,
            seed: 11,
        }
    }
}

/// The two tables the query touches.
#[derive(Debug, Clone, Copy)]
pub struct HashSortTables {
    pub orders: TableId,
    pub lineitem: TableId,
}

pub(crate) fn orders_schema() -> Schema {
    Schema::new(vec![
        ("orderkey", ColType::Int),
        ("custkey", ColType::Int),
        ("totalprice", ColType::Float),
        ("padding", ColType::Str),
    ])
}

pub(crate) fn lineitem_schema() -> Schema {
    Schema::new(vec![
        ("lineid", ColType::Int), // clustered key: orderkey*8 + linenumber
        ("orderkey", ColType::Int),
        ("extendedprice", ColType::Float),
        ("quantity", ColType::Int),
        ("padding", ColType::Str),
    ])
}

/// Load both tables, clustered on their keys. Each order is generated with
/// its line items, so the two tables load interleaved, one bulk loader each.
pub fn load_tables(db: &Database, clock: &mut Clock, p: &HashSortParams) -> HashSortTables {
    bulk_load(db, clock, p).expect("load the Hash+Sort tables")
}

fn bulk_load(
    db: &Database,
    clock: &mut Clock,
    p: &HashSortParams,
) -> Result<HashSortTables, DbError> {
    let mut rng = SimRng::seeded(p.seed);
    let orders = db.create_table(clock, orders_schema(), 0)?;
    let lineitem = db.create_table(clock, lineitem_schema(), 0)?;
    let mut orders_load = db.bulk_loader(orders)?;
    let mut lineitem_load = db.bulk_loader(lineitem)?;
    for ok in 0..p.orders as i64 {
        orders_load.push(
            clock,
            Row::new(vec![
                Value::Int(ok),
                Value::Int(rng.uniform(0, p.orders / 10 + 1) as i64),
                Value::Float(rng.unit() * 100_000.0),
                Value::Str("o".repeat(60)),
            ]),
        )?;
        for ln in 0..p.lineitems_per_order as i64 {
            lineitem_load.push(
                clock,
                Row::new(vec![
                    Value::Int(ok * 8 + ln),
                    Value::Int(ok),
                    Value::Float(rng.unit() * 10_000.0),
                    Value::Int(rng.uniform(1, 50) as i64),
                    Value::Str("l".repeat(40)),
                ]),
            )?;
        }
    }
    orders_load.finish(clock)?;
    lineitem_load.finish(clock)?;
    db.checkpoint(clock)?;
    Ok(HashSortTables { orders, lineitem })
}

/// Phase timings of one execution, for the Fig. 14 drill-down.
#[derive(Debug, Clone)]
pub struct HashSortReport {
    pub total: SimDuration,
    /// Scan + hash build (+ partition spill) phase.
    pub build_phase: SimDuration,
    /// Probe + join + sort phase.
    pub probe_sort_phase: SimDuration,
    pub tempdb_bytes: u64,
    pub result_rows: usize,
    /// Top row's extendedprice (for correctness checks across designs).
    pub min_price: f64,
}

/// Execute the Hash+Sort query once.
pub fn run_hash_sort(
    db: &Database,
    clock: &mut Clock,
    tables: HashSortTables,
    top_n: usize,
) -> HashSortReport {
    let spilled_before = db.tempdb().bytes_spilled();
    let t0 = clock.now();
    // Phase 1: scan both inputs (cached after the load; the paper gives the
    // server enough memory to cache the scans — TempDB is the bottleneck).
    let orders = db.scan(clock, tables.orders).expect("scan orders");
    let lineitems = db.scan(clock, tables.lineitem).expect("scan lineitem");
    let t_build = clock.now();
    // Phase 2: hash join on orderkey (build = orders), then Top-N sort by
    // extendedprice ascending (column 2 of lineitem, kept at position 2).
    let joined = db
        .join_hash(
            clock,
            orders,
            lineitems,
            |o| o.int(0),
            |l| l.int(1),
            |o, l| {
                let mut v = l.0.clone();
                v.push(o.0[2].clone());
                Row::new(v)
            },
        )
        .expect("hash join");
    let sorted = db
        .sort_rows(clock, joined, |r| r.float(2), Some(top_n))
        .expect("top-n sort");
    let t_end = clock.now();
    HashSortReport {
        total: t_end.since(t0),
        build_phase: t_build.since(t0),
        probe_sort_phase: t_end.since(t_build),
        tempdb_bytes: db.tempdb().bytes_spilled() - spilled_before,
        result_rows: sorted.len(),
        min_price: sorted.first().map(|r| r.float(2)).unwrap_or(f64::NAN),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_engine::{DbConfig, DeviceSet};
    use remem_storage::RamDisk;
    use std::sync::Arc;

    fn db_with_tempdb(tempdb: Arc<dyn remem_storage::Device>, workspace: u64) -> Database {
        let mut cfg = DbConfig::with_pool(128 << 20);
        cfg.workspace_bytes = workspace;
        cfg.max_grant_fraction = 0.25;
        Database::standalone(
            cfg,
            20,
            DeviceSet {
                data: Arc::new(RamDisk::new(256 << 20)),
                log: Arc::new(RamDisk::new(32 << 20)),
                tempdb,
                bpext: None,
                wal_ring: None,
            },
        )
    }

    fn small_params() -> HashSortParams {
        HashSortParams {
            orders: 3_000,
            lineitems_per_order: 3,
            top_n: 100,
            seed: 5,
        }
    }

    #[test]
    fn query_spills_and_returns_topn() {
        let db = db_with_tempdb(Arc::new(RamDisk::new(256 << 20)), 1 << 20);
        let mut clock = Clock::new();
        let tables = load_tables(&db, &mut clock, &small_params());
        let r = run_hash_sort(&db, &mut clock, tables, 100);
        assert_eq!(r.result_rows, 100);
        assert!(r.tempdb_bytes > 0, "the small grant must force a spill");
        assert!(r.build_phase.as_nanos() > 0 && r.probe_sort_phase.as_nanos() > 0);
    }

    #[test]
    fn result_is_identical_across_tempdb_devices() {
        // the correctness core of §6.3: remote TempDB changes time, not answers
        let mut results = Vec::new();
        for tempdb in [
            Arc::new(RamDisk::new(256 << 20)) as Arc<dyn remem_storage::Device>,
            Arc::new(remem_storage::Ssd::new(
                remem_storage::SsdConfig::with_capacity(256 << 20),
            )),
        ] {
            let db = db_with_tempdb(tempdb, 1 << 20);
            let mut clock = Clock::new();
            let tables = load_tables(&db, &mut clock, &small_params());
            let r = run_hash_sort(&db, &mut clock, tables, 50);
            results.push((r.result_rows, r.min_price));
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn faster_tempdb_means_faster_query() {
        let mut totals = Vec::new();
        for tempdb in [
            Arc::new(RamDisk::new(256 << 20)) as Arc<dyn remem_storage::Device>,
            Arc::new(remem_storage::Ssd::new(
                remem_storage::SsdConfig::with_capacity(256 << 20),
            )),
        ] {
            let db = db_with_tempdb(tempdb, 512 << 10);
            let mut clock = Clock::new();
            let tables = load_tables(&db, &mut clock, &small_params());
            let r = run_hash_sort(&db, &mut clock, tables, 100);
            totals.push(r.total);
        }
        assert!(
            totals[1].as_nanos() > totals[0].as_nanos() * 3 / 2,
            "SSD TempDB {} should be noticeably slower than RAM TempDB {}",
            totals[1],
            totals[0]
        );
    }
}
