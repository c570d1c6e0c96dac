//! The RangeScan micro-benchmark (§5.2.1): BPExt churn and priming.
//!
//! A synthetic TPC-H-like Customer table; queries compute
//! `SELECT sum(acctbal) WHERE custkey ∈ [@start, @start+@range)`, with
//! `@start` drawn uniformly (BPExt stress) or from a hotspot (priming), and
//! an optional update variant that rewrites the selected balances.

use remem_engine::row::ColType;
use remem_engine::{Database, Row, Schema, TableId, Value};
use remem_sim::metrics::RunSummary;
use remem_sim::rng::SimRng;
use remem_sim::{Clock, ClosedLoopDriver, Histogram, SimDuration, SimTime};

/// Key distribution for `@start`.
#[derive(Debug, Clone, Copy)]
pub enum KeyDistribution {
    Uniform,
    /// `prob` of the accesses hit the first `frac` of the keyspace
    /// (the paper's priming experiment uses 99 % / 20 %).
    Hotspot {
        frac: f64,
        prob: f64,
    },
}

/// Workload parameters. The paper's defaults: range 100, 80 workers,
/// uniform keys.
#[derive(Debug, Clone)]
pub struct RangeScanParams {
    pub workers: usize,
    pub range: u64,
    pub update_fraction: f64,
    pub distribution: KeyDistribution,
    /// Measurement window (virtual time), counted from `start`.
    pub duration: SimDuration,
    pub seed: u64,
}

impl Default for RangeScanParams {
    fn default() -> RangeScanParams {
        RangeScanParams {
            workers: 80,
            range: 100,
            update_fraction: 0.0,
            distribution: KeyDistribution::Uniform,
            duration: SimDuration::from_secs(1),
            seed: 7,
        }
    }
}

/// The Customer table schema (the TPC-H columns RangeScan touches, plus a
/// padding column so rows average ~245 bytes like the paper's).
pub fn customer_schema() -> Schema {
    Schema::new(vec![
        ("custkey", ColType::Int),
        ("name", ColType::Str),
        ("acctbal", ColType::Float),
        ("padding", ColType::Str),
    ])
}

/// One customer row (~245 bytes encoded).
pub fn customer_row(k: i64) -> Row {
    Row::new(vec![
        Value::Int(k),
        Value::Str(format!("Customer#{k:09}")),
        Value::Float((k % 10_000) as f64 / 7.0),
        Value::Str("x".repeat(190)),
    ])
}

/// Load `rows` customers clustered on custkey. Returns the table id.
pub fn load_customer(db: &Database, clock: &mut Clock, rows: u64) -> TableId {
    let t = db
        .create_table(clock, "customer", customer_schema(), 0)
        .expect("create customer table");
    for k in 0..rows as i64 {
        db.insert(clock, t, customer_row(k)).expect("load customer");
    }
    db.checkpoint(clock).expect("checkpoint after load");
    t
}

/// Run one RangeScan query (read or update) for the key at `start`.
/// Returns the number of rows touched.
pub fn one_query(
    db: &Database,
    clock: &mut Clock,
    table: TableId,
    start: i64,
    range: u64,
    update: bool,
) -> usize {
    let mut ctx = db.exec_ctx(clock);
    ctx.charge(ctx.costs.statement_overhead);
    drop(ctx);
    let rows = db
        .range(clock, table, start, start + range as i64)
        .expect("range scan");
    if update {
        for r in &rows {
            let k = r.int(0);
            db.update(clock, table, k, |row| {
                let bal = row.float(2);
                row.0[2] = Value::Float(bal + 1.0);
            })
            .expect("update balance");
        }
    } else {
        let mut ctx = db.exec_ctx(clock);
        remem_engine::exec::sum_float(&mut ctx, &rows, 2);
    }
    rows.len()
}

/// Closed-loop driver for the full workload, measuring from `start` (pass
/// the loader clock's current time — virtual-time device reservations made
/// during the load are already in the past then). Returns
/// throughput/latency over the window.
pub fn run_rangescan(
    db: &Database,
    table: TableId,
    p: &RangeScanParams,
    start: SimTime,
) -> RunSummary {
    let total_rows = db.row_count(table);
    assert!(total_rows > p.range, "table smaller than one range");
    let mut rng = SimRng::seeded(p.seed);
    let latencies = Histogram::new();
    let mut driver = ClosedLoopDriver::new(p.workers, start + p.duration).starting_at(start);
    let max_start = total_rows - p.range;
    driver.run(&latencies, |_, clock| {
        let key = match p.distribution {
            KeyDistribution::Uniform => rng.uniform(0, max_start),
            KeyDistribution::Hotspot { frac, prob } => rng.hotspot(max_start, frac, prob),
        } as i64;
        let update = p.update_fraction > 0.0 && rng.chance(p.update_fraction);
        one_query(db, clock, table, key, p.range, update);
    });
    RunSummary::from_histogram("RangeScan", &latencies, SimTime(p.duration.as_nanos()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_engine::{DbConfig, DeviceSet};
    use remem_storage::RamDisk;
    use std::sync::Arc;

    fn small_db(pool: u64) -> Database {
        Database::standalone(
            DbConfig::with_pool(pool),
            20,
            DeviceSet {
                data: Arc::new(RamDisk::new(128 << 20)),
                log: Arc::new(RamDisk::new(32 << 20)),
                tempdb: Arc::new(RamDisk::new(32 << 20)),
                bpext: None,
                wal_ring: None,
            },
        )
    }

    #[test]
    fn rows_average_245_bytes() {
        let r = customer_row(123);
        let len = r.encoded_len();
        assert!(
            (230..=260).contains(&len),
            "row is {len} bytes, paper says ~245"
        );
    }

    #[test]
    fn query_touches_range_rows_and_sums() {
        let db = small_db(16 << 20);
        let mut clock = Clock::new();
        let t = load_customer(&db, &mut clock, 2000);
        let touched = one_query(&db, &mut clock, t, 500, 100, false);
        assert_eq!(touched, 100);
    }

    #[test]
    fn update_variant_writes_back() {
        let db = small_db(16 << 20);
        let mut clock = Clock::new();
        let t = load_customer(&db, &mut clock, 500);
        let before = db.get(&mut clock, t, 42).unwrap().unwrap().float(2);
        one_query(&db, &mut clock, t, 40, 10, true);
        let after = db.get(&mut clock, t, 42).unwrap().unwrap().float(2);
        assert_eq!(after, before + 1.0);
    }

    #[test]
    fn driver_reports_throughput() {
        let db = small_db(16 << 20);
        let mut clock = Clock::new();
        let t = load_customer(&db, &mut clock, 3000);
        let p = RangeScanParams {
            workers: 8,
            duration: SimDuration::from_millis(100),
            ..Default::default()
        };
        let s = run_rangescan(&db, t, &p, clock.now());
        assert!(s.ops > 100, "{s:?}");
        assert!(s.throughput_per_sec > 0.0);
        assert!(s.mean_latency_us > 0.0);
    }

    #[test]
    fn hotspot_distribution_touches_hot_keys() {
        let db = small_db(32 << 20);
        let mut clock = Clock::new();
        let t = load_customer(&db, &mut clock, 2000);
        let p = RangeScanParams {
            workers: 4,
            distribution: KeyDistribution::Hotspot {
                frac: 0.2,
                prob: 0.99,
            },
            duration: SimDuration::from_millis(50),
            ..Default::default()
        };
        let s = run_rangescan(&db, t, &p, clock.now());
        assert!(s.ops > 10);
    }
}
