//! TPC-H-like decision-support workload (Appendix B.1, Figs. 18-19; also
//! the semantic-cache experiments of Fig. 15).
//!
//! A scaled synthetic database with the TPC-H core tables (customer,
//! orders, lineitem) and 22 queries instantiated from eight query shapes
//! that cover the plan space the paper exercises: pure scans/aggregations,
//! selective multi-joins, spilling join+sort pipelines (the Q10/Q18
//! behaviour of Appendix B.1), INLJ-vs-HJ sensitive joins (Q12), and
//! seek-heavy range work. Absolute row counts are ~1000× the paper's SF-200
//! database scaled down; ratios between designs are what the figures
//! compare.

use remem_engine::row::ColType;
use remem_engine::{Database, DbError, Row, Schema, TableId, Value};
use remem_sim::rng::SimRng;
use remem_sim::Clock;

/// Scaled generation parameters.
#[derive(Debug, Clone)]
pub struct TpchParams {
    pub customers: u64,
    pub orders_per_customer: u64,
    pub lineitems_per_order: u64,
    pub seed: u64,
}

impl Default for TpchParams {
    fn default() -> TpchParams {
        TpchParams {
            customers: 5_000,
            orders_per_customer: 3,
            lineitems_per_order: 4,
            seed: 17,
        }
    }
}

/// Handles to the loaded tables.
#[derive(Debug, Clone, Copy)]
pub struct Tpch {
    pub customer: TableId,
    pub orders: TableId,
    pub lineitem: TableId,
    pub n_orders: u64,
}

/// Total days in the synthetic order-date domain.
pub const DATE_DOMAIN: i64 = 2_400;

pub fn customer_schema() -> Schema {
    Schema::new(vec![
        ("custkey", ColType::Int),
        ("nationkey", ColType::Int),
        ("mktsegment", ColType::Int),
        ("acctbal", ColType::Float),
        ("padding", ColType::Str),
    ])
}

pub(crate) fn orders_schema() -> Schema {
    Schema::new(vec![
        ("orderkey", ColType::Int),
        ("custkey", ColType::Int),
        ("orderdate", ColType::Int),
        ("totalprice", ColType::Float),
        ("padding", ColType::Str),
    ])
}

pub(crate) fn lineitem_schema() -> Schema {
    Schema::new(vec![
        ("lineid", ColType::Int),
        ("orderkey", ColType::Int),
        ("quantity", ColType::Int),
        ("extendedprice", ColType::Float),
        ("discount", ColType::Float),
        ("shipdate", ColType::Int),
        ("returnflag", ColType::Int),
        ("shipmode", ColType::Int),
    ])
}

/// Generate and load the database (clustered on the primary keys).
pub fn load(db: &Database, clock: &mut Clock, p: &TpchParams) -> Tpch {
    bulk_load(db, clock, p).expect("load TPC-H")
}

/// One table after the other, each through its own bulk loader, so each
/// table's leaves are physically contiguous (the paper loads with the
/// standard per-table bulk tools).
fn bulk_load(db: &Database, clock: &mut Clock, p: &TpchParams) -> Result<Tpch, DbError> {
    let mut rng = SimRng::seeded(p.seed);
    let customer = db.create_table(clock, customer_schema(), 0)?;
    let orders = db.create_table(clock, orders_schema(), 0)?;
    let lineitem = db.create_table(clock, lineitem_schema(), 0)?;
    let n_orders = p.customers * p.orders_per_customer;
    let mut loader = db.bulk_loader(customer)?;
    for ck in 0..p.customers as i64 {
        loader.push(
            clock,
            Row::new(vec![
                Value::Int(ck),
                Value::Int(rng.uniform(0, 25) as i64),
                Value::Int(rng.uniform(0, 5) as i64),
                Value::Float(rng.unit() * 10_000.0),
                Value::Str("c".repeat(120)),
            ]),
        )?;
    }
    loader.finish(clock)?;
    let mut loader = db.bulk_loader(orders)?;
    for ok in 0..n_orders as i64 {
        let ck = rng.uniform(0, p.customers) as i64;
        loader.push(
            clock,
            Row::new(vec![
                Value::Int(ok),
                Value::Int(ck),
                Value::Int(rng.uniform(0, DATE_DOMAIN as u64) as i64),
                Value::Float(rng.unit() * 400_000.0),
                Value::Str("o".repeat(80)),
            ]),
        )?;
    }
    loader.finish(clock)?;
    let mut loader = db.bulk_loader(lineitem)?;
    for ok in 0..n_orders as i64 {
        for ln in 0..p.lineitems_per_order as i64 {
            loader.push(
                clock,
                Row::new(vec![
                    Value::Int(ok * 8 + ln),
                    Value::Int(ok),
                    Value::Int(rng.uniform(1, 51) as i64),
                    Value::Float(rng.unit() * 100_000.0),
                    Value::Float(rng.unit() * 0.1),
                    Value::Int(rng.uniform(0, DATE_DOMAIN as u64) as i64),
                    Value::Int(rng.uniform(0, 3) as i64),
                    Value::Int(rng.uniform(0, 7) as i64),
                ]),
            )?;
        }
    }
    loader.finish(clock)?;
    db.checkpoint(clock)?;
    Ok(Tpch {
        customer,
        orders,
        lineitem,
        n_orders,
    })
}

/// Number of queries in the workload (TPC-H has 22).
pub const QUERY_COUNT: usize = 22;

/// Execute query `qno` (1-based, 1..=22). Returns the result cardinality.
///
/// Each of the 22 queries maps to one of eight shapes with per-query
/// selectivity constants, chosen so the latency profile spans the paper's
/// histogram buckets (Fig. 19).
pub fn run_query(db: &Database, clock: &mut Clock, t: &Tpch, qno: usize) -> usize {
    assert!((1..=QUERY_COUNT).contains(&qno), "TPC-H has queries 1..=22");
    {
        let mut ctx = db.exec_ctx(clock).parallel();
        ctx.charge(ctx.costs.statement_overhead);
    }
    // per-query selectivity knob: date cutoff spread across the domain
    let cutoff = (qno as i64 * DATE_DOMAIN) / (QUERY_COUNT as i64 + 2);
    match qno {
        // Shape A: full lineitem scan + group-by (Q1-like)
        1 | 13 | 21 => {
            let rows = db.scan(clock, t.lineitem).expect("scan");
            let mut ctx = db.exec_ctx(clock).parallel();
            let filtered = remem_engine::exec::filter(&mut ctx, rows, |r| {
                r.int(5) <= DATE_DOMAIN - cutoff.min(200)
            });
            let groups = remem_engine::exec::aggregate(
                &mut ctx,
                &filtered,
                |r| r.int(6),
                (0i64, 0.0f64),
                |acc, r| {
                    acc.0 += r.int(2);
                    acc.1 += r.float(3);
                },
            );
            groups.len()
        }
        // Shape B: selective scan + sum (Q6-like)
        6 | 14 | 19 => {
            let rows = db.scan(clock, t.lineitem).expect("scan");
            let mut ctx = db.exec_ctx(clock).parallel();
            let filtered = remem_engine::exec::filter(&mut ctx, rows, |r| {
                r.int(5) >= cutoff && r.int(5) < cutoff + 365 && r.float(4) < 0.05
            });
            let _rev = remem_engine::exec::sum_float(&mut ctx, &filtered, 3);
            1
        }
        // Shape C: customer ⋈ orders ⋈ lineitem, Top-10 (Q3-like)
        3 | 5 | 7 | 8 => {
            let seg = (qno % 5) as i64;
            let customers = db.scan(clock, t.customer).expect("scan");
            let mut ctx = db.exec_ctx(clock).parallel();
            let customers = remem_engine::exec::filter(&mut ctx, customers, |r| r.int(2) == seg);
            drop(ctx);
            let orders = db.scan(clock, t.orders).expect("scan");
            let mut ctx = db.exec_ctx(clock).parallel();
            let orders = remem_engine::exec::filter(&mut ctx, orders, |r| r.int(2) < cutoff);
            drop(ctx);
            let co = db
                .join_hash(
                    clock,
                    customers,
                    orders,
                    |c| c.int(0),
                    |o| o.int(1),
                    |_, o| o.clone(),
                )
                .expect("c⋈o");
            let lineitems = db.scan(clock, t.lineitem).expect("scan");
            let col = db
                .join_hash(
                    clock,
                    co,
                    lineitems,
                    |o| o.int(0),
                    |l| l.int(1),
                    |_, l| l.clone(),
                )
                .expect("co⋈l");
            let mut ctx = db.exec_ctx(clock).parallel();
            let top = remem_engine::exec::top_n(&mut ctx, col, 10, |r| r.float(3), false);
            top.len()
        }
        // Shape D: big join + group + sort, spills (Q10-like)
        10 | 18 => {
            let orders = db.scan(clock, t.orders).expect("scan");
            let lineitems = db.scan(clock, t.lineitem).expect("scan");
            let joined = db
                .join_hash(
                    clock,
                    orders,
                    lineitems,
                    |o| o.int(0),
                    |l| l.int(1),
                    |o, l| {
                        Row::new(vec![
                            o.0[1].clone(), // custkey
                            l.0[3].clone(), // extendedprice
                            o.0[4].clone(), // padding (bulk)
                        ])
                    },
                )
                .expect("o⋈l");
            let mut ctx = db.exec_ctx(clock).parallel();
            let grouped = remem_engine::exec::aggregate(
                &mut ctx,
                &joined,
                |r| r.int(0),
                0.0f64,
                |acc, r| *acc += r.float(1),
            );
            let rows: Vec<Row> = grouped
                .into_iter()
                .map(|(k, v)| Row::new(vec![Value::Int(k), Value::Float(v)]))
                .collect();
            drop(ctx);
            let sorted = db
                .sort_rows(clock, rows, |r| -r.float(1), Some(20))
                .expect("sort");
            sorted.len()
        }
        // Shape E: INLJ-friendly selective join (Q12-like)
        12 | 4 | 15 => {
            let lineitems = db.scan(clock, t.lineitem).expect("scan");
            let mut ctx = db.exec_ctx(clock).parallel();
            let mode = (qno % 7) as i64;
            let filtered = remem_engine::exec::filter(&mut ctx, lineitems, |r| {
                r.int(7) == mode && r.int(5) >= cutoff && r.int(5) < cutoff + 60
            });
            drop(ctx);
            let joined = db
                .join_inlj(clock, &filtered, 1, t.orders, |l, o| {
                    Row::new(vec![l.0[1].clone(), o.0[2].clone()])
                })
                .expect("inlj");
            joined.len()
        }
        // Shape F: order-window seek aggregation (BPExt-seeking)
        2 | 11 | 16 | 20 => {
            let mut rng = SimRng::seeded(qno as u64 * 31);
            let mut total = 0usize;
            for _ in 0..50 {
                let start = rng.uniform(0, t.n_orders.saturating_sub(200)) as i64;
                let rows = db
                    .range(clock, t.orders, start, start + 200)
                    .expect("range");
                let mut ctx = db.exec_ctx(clock).parallel();
                let _ = remem_engine::exec::sum_float(&mut ctx, &rows, 3);
                total += rows.len();
            }
            total.min(200)
        }
        // Shape G: semi-join existence (Q4-like)
        9 | 17 => {
            let orders = db.scan(clock, t.orders).expect("scan");
            let mut ctx = db.exec_ctx(clock).parallel();
            let orders = remem_engine::exec::filter(&mut ctx, orders, |r| {
                r.int(2) >= cutoff && r.int(2) < cutoff + 120
            });
            drop(ctx);
            let lineitems = db.scan(clock, t.lineitem).expect("scan");
            let mut ctx = db.exec_ctx(clock).parallel();
            let late = remem_engine::exec::filter(&mut ctx, lineitems, |r| r.int(2) > 40);
            drop(ctx);
            let joined = db
                .join_hash(
                    clock,
                    orders,
                    late,
                    |o| o.int(0),
                    |l| l.int(1),
                    |o, _| o.clone(),
                )
                .expect("semi");
            let mut ctx = db.exec_ctx(clock).parallel();
            let groups = remem_engine::exec::aggregate(
                &mut ctx,
                &joined,
                |r| r.int(2) / 30,
                0u64,
                |acc, _| *acc += 1,
            );
            groups.len()
        }
        // Shape H: customer aggregation with join back (Q22/Q15-like)
        _ => {
            let customers = db.scan(clock, t.customer).expect("scan");
            let mut ctx = db.exec_ctx(clock).parallel();
            let rich = remem_engine::exec::filter(&mut ctx, customers, |r| {
                r.float(3) > (qno as f64) * 300.0
            });
            drop(ctx);
            let orders = db.scan(clock, t.orders).expect("scan");
            let joined = db
                .join_hash(
                    clock,
                    rich,
                    orders,
                    |c| c.int(0),
                    |o| o.int(1),
                    |c, o| Row::new(vec![c.0[1].clone(), o.0[3].clone()]),
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_engine::{DbConfig, DeviceSet};
    use remem_storage::RamDisk;
    use std::sync::Arc;

    fn tiny() -> TpchParams {
        TpchParams {
            customers: 300,
            orders_per_customer: 2,
            lineitems_per_order: 2,
            seed: 3,
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
    fn all_22_queries_run_and_are_deterministic() {
        let db = db();
        let mut clock = Clock::new();
        let t = load(&db, &mut clock, &tiny());
        let first: Vec<usize> = (1..=QUERY_COUNT)
            .map(|q| run_query(&db, &mut clock, &t, q))
            .collect();
        let second: Vec<usize> = (1..=QUERY_COUNT)
            .map(|q| run_query(&db, &mut clock, &t, q))
            .collect();
        assert_eq!(first, second, "queries must be deterministic");
        assert!(
            first.iter().any(|&n| n > 0),
            "some queries must return rows"
        );
    }

    #[test]
    fn q10_spills_under_small_workspace() {
        let mut cfg = DbConfig::with_pool(64 << 20);
        cfg.workspace_bytes = 1 << 20; // grants capped at 256 KiB
        let db = Database::standalone(
            cfg,
            20,
            DeviceSet {
                data: Arc::new(RamDisk::new(256 << 20)),
                log: Arc::new(RamDisk::new(64 << 20)),
                tempdb: Arc::new(RamDisk::new(128 << 20)),
                bpext: None,
                wal_ring: None,
            },
        );
        let mut clock = Clock::new();
        let t = load(
            &db,
            &mut clock,
            &TpchParams {
                customers: 2000,
                orders_per_customer: 3,
                lineitems_per_order: 4,
                seed: 3,
            },
        );
        let before = db.tempdb().bytes_spilled();
        run_query(&db, &mut clock, &t, 10);
        assert!(
            db.tempdb().bytes_spilled() > before,
            "Q10 must spill (Appendix B.1)"
        );
    }

    #[test]
    #[should_panic(expected = "queries 1..=22")]
    fn bad_query_number_rejected() {
        let db = db();
        let mut clock = Clock::new();
        let t = load(&db, &mut clock, &tiny());
        run_query(&db, &mut clock, &t, 23);
    }
}
