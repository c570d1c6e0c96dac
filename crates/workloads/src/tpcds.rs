//! TPC-DS-like decision-support workload (Appendix B.1, Figs. 20-21).
//!
//! A scaled star schema — `store_sales` fact table with `date_dim` and
//! `item` dimensions — and a query generator producing the diverse query
//! set the paper's TPC-DS histogram spans: the queries sweep fact-scan
//! selectivity, dimension fan-out, grouping width and sort depth, so their
//! latencies spread across the 2×…>100× improvement buckets of Fig. 21.

use remem_engine::row::ColType;
use remem_engine::{Database, DbError, Row, Schema, TableId, Value};
use remem_sim::rng::{SimRng, Zipf};
use remem_sim::Clock;

/// Scaled generation parameters (paper: 900 GB at SF 300).
#[derive(Debug, Clone)]
pub struct TpcdsParams {
    pub sales: u64,
    pub items: u64,
    pub days: u64,
    pub seed: u64,
}

impl Default for TpcdsParams {
    fn default() -> TpcdsParams {
        TpcdsParams {
            sales: 60_000,
            items: 2_000,
            days: 1_461,
            seed: 23,
        }
    }
}

/// Handles to the loaded star schema.
#[derive(Debug, Clone, Copy)]
pub struct Tpcds {
    pub store_sales: TableId,
    pub date_dim: TableId,
    pub item: TableId,
    pub n_sales: u64,
    pub days: u64,
}

pub(crate) fn store_sales_schema() -> Schema {
    Schema::new(vec![
        ("ss_id", ColType::Int),
        ("ss_item", ColType::Int),
        ("ss_date", ColType::Int),
        ("ss_quantity", ColType::Int),
        ("ss_sales_price", ColType::Float),
        ("ss_customer", ColType::Int),
    ])
}

pub(crate) fn date_dim_schema() -> Schema {
    Schema::new(vec![
        ("d_date", ColType::Int),
        ("d_year", ColType::Int),
        ("d_moy", ColType::Int),
    ])
}

pub(crate) fn item_schema() -> Schema {
    Schema::new(vec![
        ("i_item", ColType::Int),
        ("i_category", ColType::Int),
        ("i_price", ColType::Float),
        ("padding", ColType::Str),
    ])
}

/// Generate and load the star schema.
pub fn load(db: &Database, clock: &mut Clock, p: &TpcdsParams) -> Tpcds {
    bulk_load(db, clock, p).expect("load TPC-DS")
}

/// One table after the other, each through its own bulk loader.
fn bulk_load(db: &Database, clock: &mut Clock, p: &TpcdsParams) -> Result<Tpcds, DbError> {
    let mut rng = SimRng::seeded(p.seed);
    let store_sales = db.create_table(clock, store_sales_schema(), 0)?;
    let date_dim = db.create_table(clock, date_dim_schema(), 0)?;
    let item = db.create_table(clock, item_schema(), 0)?;
    let mut loader = db.bulk_loader(date_dim)?;
    for d in 0..p.days as i64 {
        loader.push(
            clock,
            Row::new(vec![
                Value::Int(d),
                Value::Int(1998 + d / 365),
                Value::Int(1 + (d / 30) % 12),
            ]),
        )?;
    }
    loader.finish(clock)?;
    let mut loader = db.bulk_loader(item)?;
    for i in 0..p.items as i64 {
        loader.push(
            clock,
            Row::new(vec![
                Value::Int(i),
                Value::Int(rng.uniform(0, 10) as i64),
                Value::Float(rng.unit() * 300.0),
                Value::Str("i".repeat(100)),
            ]),
        )?;
    }
    loader.finish(clock)?;
    let mut loader = db.bulk_loader(store_sales)?;
    let item_of_sale = Zipf::new(p.items, 0.8);
    for s in 0..p.sales as i64 {
        loader.push(
            clock,
            Row::new(vec![
                Value::Int(s),
                Value::Int(item_of_sale.sample(&mut rng) as i64),
                Value::Int(rng.uniform(0, p.days) as i64),
                Value::Int(rng.uniform(1, 100) as i64),
                Value::Float(rng.unit() * 500.0),
                Value::Int(rng.uniform(0, p.sales / 20 + 1) as i64),
            ]),
        )?;
    }
    loader.finish(clock)?;
    db.checkpoint(clock)?;
    Ok(Tpcds {
        store_sales,
        date_dim,
        item,
        n_sales: p.sales,
        days: p.days,
    })
}

/// Queries in the generated workload (the paper's histogram covers ~75).
pub const QUERY_COUNT: usize = 50;

/// Execute query `qno` (1-based). Returns result cardinality.
pub fn run_query(db: &Database, clock: &mut Clock, t: &Tpcds, qno: usize) -> usize {
    assert!(
        (1..=QUERY_COUNT).contains(&qno),
        "TPC-DS workload has queries 1..={QUERY_COUNT}"
    );
    {
        let mut ctx = db.exec_ctx(clock).parallel();
        ctx.charge(ctx.costs.statement_overhead);
    }
    // selectivity sweeps with the query number
    let window = 30 + (qno as i64 * 17) % 300;
    let day_lo = (qno as i64 * 89) % (t.days as i64 - window);
    match qno % 4 {
        // star join: fact ⋈ date ⋈ item, group by category
        0 => {
            let sales = db.scan(clock, t.store_sales).expect("scan");
            let mut ctx = db.exec_ctx(clock).parallel();
            let sales = remem_engine::exec::filter(&mut ctx, sales, |r| {
                r.int(2) >= day_lo && r.int(2) < day_lo + window
            });
            drop(ctx);
            let items = db.scan(clock, t.item).expect("scan");
            let joined = db
                .join_hash(
                    clock,
                    items,
                    sales,
                    |i| i.int(0),
                    |s| s.int(1),
                    |i, s| Row::new(vec![i.0[1].clone(), s.0[4].clone()]),
                )
                .expect("join");
            let mut ctx = db.exec_ctx(clock).parallel();
            let groups = remem_engine::exec::aggregate(
                &mut ctx,
                &joined,
                |r| r.int(0),
                0.0f64,
                |acc, r| *acc += r.float(1),
            );
            groups.len()
        }
        // fact scan + top-N by revenue (sort pressure)
        1 => {
            let sales = db.scan(clock, t.store_sales).expect("scan");
            let mut ctx = db.exec_ctx(clock).parallel();
            let sales = remem_engine::exec::filter(&mut ctx, sales, |r| {
                r.int(2) >= day_lo && r.int(2) < day_lo + window * 2
            });
            drop(ctx);
            let rows: Vec<Row> = sales;
            let sorted = db
                .sort_rows(clock, rows, |r| -(r.float(4) * r.int(3) as f64), Some(100))
                .expect("sort");
            sorted.len()
        }
        // customer aggregation with grouping (spill-prone on big windows)
        2 => {
            let sales = db.scan(clock, t.store_sales).expect("scan");
            let mut ctx = db.exec_ctx(clock).parallel();
            let groups = remem_engine::exec::aggregate(
                &mut ctx,
                &sales,
                |r| r.int(5),
                (0u64, 0.0f64),
                |acc, r| {
                    acc.0 += 1;
                    acc.1 += r.float(4);
                },
            );
            let rows: Vec<Row> = groups
                .into_iter()
                .map(|(k, (n, v))| {
                    Row::new(vec![Value::Int(k), Value::Int(n as i64), Value::Float(v)])
                })
                .collect();
            drop(ctx);
            let sorted = db
                .sort_rows(clock, rows, |r| -r.float(2), Some(50))
                .expect("sort");
            sorted.len()
        }
        // short seek-heavy query: narrow fact windows + INLJ into item
        // (orders of magnitude cheaper than the scan shapes — these populate
        // the low-latency end of the Fig. 21 histogram)
        _ => {
            let mut rng = SimRng::seeded(qno as u64 * 13);
            let windows = 2 + (qno % 5) as u64;
            let mut narrow = Vec::new();
            for _ in 0..windows {
                let start = rng.uniform(0, t.n_sales.saturating_sub(64)) as i64;
                narrow.extend(
                    db.range(clock, t.store_sales, start, start + 64)
                        .expect("range"),
                );
            }
            let joined = db
                .join_inlj(clock, &narrow, 1, t.item, |s, i| {
                    Row::new(vec![s.0[4].clone(), i.0[2].clone()])
                })
                .expect("inlj");
            joined.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_engine::{DbConfig, DeviceSet};
    use remem_storage::RamDisk;
    use std::sync::Arc;

    fn tiny() -> TpcdsParams {
        TpcdsParams {
            sales: 3_000,
            items: 200,
            days: 730,
            seed: 4,
        }
    }

    fn db() -> Database {
        let mut cfg = DbConfig::with_pool(64 << 20);
        cfg.workspace_bytes = 4 << 20;
        Database::standalone(
            cfg,
            20,
            DeviceSet {
                data: Arc::new(RamDisk::new(256 << 20)),
                log: Arc::new(RamDisk::new(64 << 20)),
                tempdb: Arc::new(RamDisk::new(128 << 20)),
                bpext: None,
                wal_ring: None,
            },
        )
    }

    #[test]
    fn all_queries_run_deterministically() {
        let db = db();
        let mut clock = Clock::new();
        let t = load(&db, &mut clock, &tiny());
        let a: Vec<usize> = (1..=QUERY_COUNT)
            .map(|q| run_query(&db, &mut clock, &t, q))
            .collect();
        let b: Vec<usize> = (1..=QUERY_COUNT)
            .map(|q| run_query(&db, &mut clock, &t, q))
            .collect();
        assert_eq!(a, b);
        assert!(a.iter().filter(|&&n| n > 0).count() > QUERY_COUNT / 2);
    }

    #[test]
    fn query_latencies_are_diverse() {
        // the Fig. 21 histogram needs a spread of latencies
        let db = db();
        let mut clock = Clock::new();
        let t = load(&db, &mut clock, &tiny());
        let mut lat = Vec::new();
        for q in 1..=QUERY_COUNT {
            let t0 = clock.now();
            run_query(&db, &mut clock, &t, q);
            lat.push(clock.now().since(t0).as_nanos());
        }
        let max = *lat.iter().max().unwrap();
        let min = *lat.iter().min().unwrap();
        assert!(max > min * 3, "latency spread {min}..{max} too narrow");
    }
}
