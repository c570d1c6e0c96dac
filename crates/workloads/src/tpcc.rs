//! TPC-C-like OLTP workload (Appendix B.1, Figs. 22-23).
//!
//! A scaled warehouse schema with the five transaction types. The paper's
//! finding is that the *default* mix gains little from remote memory (its
//! working set is small and keeps moving to freshly-inserted orders), while
//! a *read-mostly* mix dominated by `StockLevel` — which revisits old data —
//! generates real memory demand. Both mixes are provided.

use remem_engine::row::ColType;
use remem_engine::{Database, Row, Schema, TableId, Value};
use remem_sim::metrics::RunSummary;
use remem_sim::rng::SimRng;
use remem_sim::{Clock, ClosedLoopDriver, Histogram, SimTime};
use std::sync::atomic::{AtomicI64, Ordering};

/// Scaled sizing (paper: 800 warehouses / 168 GB).
#[derive(Debug, Clone)]
pub struct TpccParams {
    pub warehouses: i64,
    pub districts_per_wh: i64,
    pub customers_per_district: i64,
    pub items: i64,
    pub seed: u64,
}

impl Default for TpccParams {
    fn default() -> TpccParams {
        TpccParams {
            warehouses: 8,
            districts_per_wh: 10,
            customers_per_district: 60,
            items: 2_000,
            seed: 31,
        }
    }
}

/// The transaction mix, by weight.
#[derive(Debug, Clone)]
pub struct Mix {
    pub new_order: f64,
    pub payment: f64,
    pub order_status: f64,
    pub delivery: f64,
    pub stock_level: f64,
}

impl Mix {
    /// The standard TPC-C mix.
    pub fn default_mix() -> Mix {
        Mix {
            new_order: 0.45,
            payment: 0.43,
            order_status: 0.04,
            delivery: 0.04,
            stock_level: 0.04,
        }
    }

    /// The paper's read-mostly variant: 90 % StockLevel.
    pub fn read_mostly() -> Mix {
        Mix {
            new_order: 0.045,
            payment: 0.043,
            order_status: 0.006,
            delivery: 0.006,
            stock_level: 0.90,
        }
    }
}

/// Loaded schema handles plus key-encoding helpers.
pub struct Tpcc {
    pub warehouse: TableId,
    pub district: TableId,
    pub customer: TableId,
    pub stock: TableId,
    pub item: TableId,
    pub orders: TableId,
    pub order_line: TableId,
    pub new_orders: TableId,
    pub params: TpccParams,
    /// Next order id per district (index = w * districts + d).
    next_oid: Vec<AtomicI64>,
    /// Oldest undelivered order id per district.
    delivery_cursor: Vec<AtomicI64>,
}

const INITIAL_ORDERS_PER_DISTRICT: i64 = 30;

impl Tpcc {
    pub fn district_key(&self, w: i64, d: i64) -> i64 {
        w * self.params.districts_per_wh + d
    }

    pub fn customer_key(&self, w: i64, d: i64, c: i64) -> i64 {
        self.district_key(w, d) * 10_000 + c
    }

    pub fn stock_key(&self, w: i64, i: i64) -> i64 {
        w * 1_000_000 + i
    }

    pub fn order_key(&self, w: i64, d: i64, o: i64) -> i64 {
        self.district_key(w, d) * 10_000_000 + o
    }

    pub fn order_line_key(&self, order_key: i64, line: i64) -> i64 {
        order_key * 16 + line
    }
}

/// Generate and load all eight tables.
pub fn load(db: &Database, clock: &mut Clock, p: &TpccParams) -> Tpcc {
    let mut rng = SimRng::seeded(p.seed);
    let warehouse = db
        .create_table(
            clock,
            "warehouse",
            Schema::new(vec![("w_id", ColType::Int), ("w_ytd", ColType::Float)]),
            0,
        )
        .expect("warehouse");
    let district = db
        .create_table(
            clock,
            "district",
            Schema::new(vec![
                ("d_key", ColType::Int),
                ("d_ytd", ColType::Float),
                ("d_next_oid", ColType::Int),
            ]),
            0,
        )
        .expect("district");
    let customer = db
        .create_table(
            clock,
            "customer",
            Schema::new(vec![
                ("c_key", ColType::Int),
                ("c_balance", ColType::Float),
                ("c_data", ColType::Str),
            ]),
            0,
        )
        .expect("customer");
    let stock = db
        .create_table(
            clock,
            "stock",
            Schema::new(vec![
                ("s_key", ColType::Int),
                ("s_quantity", ColType::Int),
                ("s_ytd", ColType::Int),
                ("s_data", ColType::Str),
            ]),
            0,
        )
        .expect("stock");
    let item = db
        .create_table(
            clock,
            "item",
            Schema::new(vec![
                ("i_id", ColType::Int),
                ("i_price", ColType::Float),
                ("i_name", ColType::Str),
            ]),
            0,
        )
        .expect("item");
    let orders = db
        .create_table(
            clock,
            "orders",
            Schema::new(vec![
                ("o_key", ColType::Int),
                ("o_c_key", ColType::Int),
                ("o_carrier", ColType::Int),
                ("o_ol_cnt", ColType::Int),
            ]),
            0,
        )
        .expect("orders");
    let order_line = db
        .create_table(
            clock,
            "order_line",
            Schema::new(vec![
                ("ol_key", ColType::Int),
                ("ol_item", ColType::Int),
                ("ol_qty", ColType::Int),
                ("ol_amount", ColType::Float),
            ]),
            0,
        )
        .expect("order_line");
    let new_orders = db
        .create_table(
            clock,
            "new_orders",
            Schema::new(vec![("no_key", ColType::Int)]),
            0,
        )
        .expect("new_orders");

    let t = Tpcc {
        warehouse,
        district,
        customer,
        stock,
        item,
        orders,
        order_line,
        new_orders,
        params: p.clone(),
        next_oid: (0..p.warehouses * p.districts_per_wh)
            .map(|_| AtomicI64::new(INITIAL_ORDERS_PER_DISTRICT))
            .collect(),
        delivery_cursor: (0..p.warehouses * p.districts_per_wh)
            .map(|_| AtomicI64::new(INITIAL_ORDERS_PER_DISTRICT * 2 / 3))
            .collect(),
    };

    for i in 0..p.items {
        db.insert(
            clock,
            item,
            Row::new(vec![
                Value::Int(i),
                Value::Float(1.0 + rng.unit() * 100.0),
                Value::Str(format!("item-{i:06}")),
            ]),
        )
        .expect("item");
    }
    for w in 0..p.warehouses {
        db.insert(
            clock,
            warehouse,
            Row::new(vec![Value::Int(w), Value::Float(0.0)]),
        )
        .expect("wh");
        for i in 0..p.items {
            db.insert(
                clock,
                stock,
                Row::new(vec![
                    Value::Int(t.stock_key(w, i)),
                    Value::Int(rng.uniform(10, 100) as i64),
                    Value::Int(0),
                    Value::Str("s".repeat(50)),
                ]),
            )
            .expect("stock");
        }
        for d in 0..p.districts_per_wh {
            db.insert(
                clock,
                district,
                Row::new(vec![
                    Value::Int(t.district_key(w, d)),
                    Value::Float(0.0),
                    Value::Int(INITIAL_ORDERS_PER_DISTRICT),
                ]),
            )
            .expect("district");
            for c in 0..p.customers_per_district {
                db.insert(
                    clock,
                    customer,
                    Row::new(vec![
                        Value::Int(t.customer_key(w, d, c)),
                        Value::Float(-10.0),
                        Value::Str("c".repeat(120)),
                    ]),
                )
                .expect("customer");
            }
            // initial order history so StockLevel has data to read; the
            // last third is still undelivered (rows in new_orders)
            for o in 0..INITIAL_ORDERS_PER_DISTRICT {
                let ok = t.order_key(w, d, o);
                let ol_cnt = 5 + (o % 6);
                let undelivered = o >= INITIAL_ORDERS_PER_DISTRICT * 2 / 3;
                if undelivered {
                    db.insert(clock, new_orders, Row::new(vec![Value::Int(ok)]))
                        .expect("new_order backlog");
                }
                db.insert(
                    clock,
                    orders,
                    Row::new(vec![
                        Value::Int(ok),
                        Value::Int(t.customer_key(w, d, o % p.customers_per_district)),
                        Value::Int(if undelivered { 0 } else { 1 }),
                        Value::Int(ol_cnt),
                    ]),
                )
                .expect("order");
                for l in 0..ol_cnt {
                    db.insert(
                        clock,
                        order_line,
                        Row::new(vec![
                            Value::Int(t.order_line_key(ok, l)),
                            Value::Int(rng.uniform(0, p.items as u64) as i64),
                            Value::Int(5),
                            Value::Float(rng.unit() * 100.0),
                        ]),
                    )
                    .expect("order_line");
                }
            }
        }
    }
    db.checkpoint(clock).expect("checkpoint");
    t
}

/// One NewOrder transaction. Returns order lines created.
pub fn new_order(db: &Database, clock: &mut Clock, t: &Tpcc, rng: &mut SimRng) -> usize {
    let p = &t.params;
    let w = rng.uniform(0, p.warehouses as u64) as i64;
    let d = rng.uniform(0, p.districts_per_wh as u64) as i64;
    // NURand-like skew: a hot customer subset, as in the spec
    let c = rng.zipf(p.customers_per_district as u64, 0.8) as i64;
    let dist_idx = t.district_key(w, d) as usize;
    let oid = t.next_oid[dist_idx].fetch_add(1, Ordering::Relaxed);
    let ok = t.order_key(w, d, oid);
    let n_lines = rng.uniform(5, 16) as i64;
    // read customer, update district next-oid
    db.get(clock, t.customer, t.customer_key(w, d, c))
        .expect("read customer");
    db.update(clock, t.district, t.district_key(w, d), |r| {
        r.0[2] = Value::Int(oid + 1);
    })
    .expect("bump district");
    db.insert(
        clock,
        t.orders,
        Row::new(vec![
            Value::Int(ok),
            Value::Int(t.customer_key(w, d, c)),
            Value::Int(0),
            Value::Int(n_lines),
        ]),
    )
    .expect("insert order");
    db.insert(clock, t.new_orders, Row::new(vec![Value::Int(ok)]))
        .expect("insert new_order");
    for l in 0..n_lines {
        let i = rng.zipf(p.items as u64, 0.8) as i64;
        // read item price, decrement stock
        let price = db
            .get(clock, t.item, i)
            .expect("item")
            .expect("item exists")
            .float(1);
        db.update(clock, t.stock, t.stock_key(w, i), |r| {
            let q = r.int(1);
            r.0[1] = Value::Int(if q > 10 { q - 5 } else { q + 86 });
            r.0[2] = Value::Int(r.int(2) + 5);
        })
        .expect("stock update");
        db.insert(
            clock,
            t.order_line,
            Row::new(vec![
                Value::Int(t.order_line_key(ok, l)),
                Value::Int(i),
                Value::Int(5),
                Value::Float(price * 5.0),
            ]),
        )
        .expect("order line");
    }
    n_lines as usize
}

/// One Payment transaction.
pub fn payment(db: &Database, clock: &mut Clock, t: &Tpcc, rng: &mut SimRng) {
    let p = &t.params;
    let w = rng.uniform(0, p.warehouses as u64) as i64;
    let d = rng.uniform(0, p.districts_per_wh as u64) as i64;
    let c = rng.zipf(p.customers_per_district as u64, 0.8) as i64;
    let amount = 1.0 + rng.unit() * 4999.0;
    db.update(clock, t.warehouse, w, |r| {
        r.0[1] = Value::Float(r.float(1) + amount)
    })
    .expect("wh ytd");
    db.update(clock, t.district, t.district_key(w, d), |r| {
        r.0[1] = Value::Float(r.float(1) + amount)
    })
    .expect("district ytd");
    db.update(clock, t.customer, t.customer_key(w, d, c), |r| {
        r.0[1] = Value::Float(r.float(1) - amount)
    })
    .expect("customer balance");
}

/// One OrderStatus transaction (read-only).
pub fn order_status(db: &Database, clock: &mut Clock, t: &Tpcc, rng: &mut SimRng) -> usize {
    let p = &t.params;
    let w = rng.uniform(0, p.warehouses as u64) as i64;
    let d = rng.uniform(0, p.districts_per_wh as u64) as i64;
    let dist_idx = t.district_key(w, d) as usize;
    let last = t.next_oid[dist_idx].load(Ordering::Relaxed) - 1;
    let ok = t.order_key(w, d, last.max(0));
    db.get(clock, t.customer, t.customer_key(w, d, 0))
        .expect("customer");
    let order = db.get(clock, t.orders, ok).expect("order");
    match order {
        Some(o) => {
            let n = o.int(3);
            db.range(
                clock,
                t.order_line,
                t.order_line_key(ok, 0),
                t.order_line_key(ok, n),
            )
            .expect("order lines")
            .len()
        }
        None => 0,
    }
}

/// One Delivery transaction: deliver the oldest undelivered order in each
/// district of one warehouse.
pub fn delivery(db: &Database, clock: &mut Clock, t: &Tpcc, rng: &mut SimRng) -> usize {
    let p = &t.params;
    let w = rng.uniform(0, p.warehouses as u64) as i64;
    let mut delivered = 0;
    for d in 0..p.districts_per_wh {
        let dist_idx = t.district_key(w, d) as usize;
        let cursor = t.delivery_cursor[dist_idx].load(Ordering::Relaxed);
        let next = t.next_oid[dist_idx].load(Ordering::Relaxed);
        if cursor >= next {
            continue;
        }
        let ok = t.order_key(w, d, cursor);
        if db
            .delete(clock, t.new_orders, ok)
            .expect("delete new_order")
        {
            db.update(clock, t.orders, ok, |r| r.0[2] = Value::Int(7))
                .expect("carrier");
            delivered += 1;
        }
        t.delivery_cursor[dist_idx].store(cursor + 1, Ordering::Relaxed);
    }
    delivered
}

/// One StockLevel transaction (read-only, revisits old data — the paper's
/// memory-hungry variant).
pub fn stock_level(db: &Database, clock: &mut Clock, t: &Tpcc, rng: &mut SimRng) -> usize {
    let p = &t.params;
    let w = rng.uniform(0, p.warehouses as u64) as i64;
    let d = rng.uniform(0, p.districts_per_wh as u64) as i64;
    let dist_idx = t.district_key(w, d) as usize;
    let next = t.next_oid[dist_idx].load(Ordering::Relaxed);
    let lo_order = (next - 20).max(0);
    let lo = t.order_line_key(t.order_key(w, d, lo_order), 0);
    let hi = t.order_line_key(t.order_key(w, d, next), 0);
    let lines = db.range(clock, t.order_line, lo, hi).expect("recent lines");
    let mut low = 0usize;
    for line in &lines {
        let i = line.int(1);
        if let Some(s) = db.get(clock, t.stock, t.stock_key(w, i)).expect("stock") {
            if s.int(1) < 15 {
                low += 1;
            }
        }
    }
    low
}

/// Draw one transaction type from `mix` and execute it.
fn one_tx(db: &Database, clock: &mut Clock, t: &Tpcc, mix: &Mix, rng: &mut SimRng) {
    let x = rng.unit();
    let mut acc = mix.new_order;
    if x < acc {
        new_order(db, clock, t, rng);
        return;
    }
    acc += mix.payment;
    if x < acc {
        payment(db, clock, t, rng);
        return;
    }
    acc += mix.order_status;
    if x < acc {
        order_status(db, clock, t, rng);
        return;
    }
    acc += mix.delivery;
    if x < acc {
        delivery(db, clock, t, rng);
        return;
    }
    stock_level(db, clock, t, rng);
}

/// Run a closed-loop mix for `duration` starting at `start` (pass the
/// loader clock's time so load-phase device reservations are in the past).
pub fn run_mix(
    db: &Database,
    t: &Tpcc,
    mix: &Mix,
    workers: usize,
    start: SimTime,
    duration: remem_sim::SimDuration,
    seed: u64,
) -> RunSummary {
    let mut rng = SimRng::seeded(seed);
    let latencies = Histogram::new();
    let mut driver = ClosedLoopDriver::new(workers, start + duration).starting_at(start);
    driver.run(&latencies, |_, clock| one_tx(db, clock, t, mix, &mut rng));
    RunSummary::from_histogram("TPC-C", &latencies, SimTime(duration.as_nanos()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_engine::{DbConfig, DeviceSet};
    use remem_storage::RamDisk;
    use std::sync::Arc;

    fn tiny() -> TpccParams {
        TpccParams {
            warehouses: 2,
            districts_per_wh: 2,
            customers_per_district: 10,
            items: 100,
            seed: 1,
        }
    }

    fn db() -> Database {
        Database::standalone(
            DbConfig::with_pool(64 << 20),
            20,
            DeviceSet {
                data: Arc::new(RamDisk::new(256 << 20)),
                log: Arc::new(RamDisk::new(64 << 20)),
                tempdb: Arc::new(RamDisk::new(32 << 20)),
                bpext: None,
                wal_ring: None,
            },
        )
    }

    #[test]
    fn transactions_execute_and_mutate() {
        let db = db();
        let mut clock = Clock::new();
        let t = load(&db, &mut clock, &tiny());
        let mut rng = SimRng::seeded(2);
        let orders_before = db.row_count(t.orders);
        let lines = new_order(&db, &mut clock, &t, &mut rng);
        assert!((5..16).contains(&lines));
        assert_eq!(db.row_count(t.orders), orders_before + 1);
        payment(&db, &mut clock, &t, &mut rng);
        let n = order_status(&db, &mut clock, &t, &mut rng);
        assert!(n > 0, "order status should see order lines");
        let delivered = delivery(&db, &mut clock, &t, &mut rng);
        assert!(delivered > 0);
        stock_level(&db, &mut clock, &t, &mut rng);
    }

    #[test]
    fn mixes_run_and_read_mostly_is_read_heavy() {
        let db1 = db();
        let mut clock = Clock::new();
        let t = load(&db1, &mut clock, &tiny());
        let wal_before = db1.wal().current_lsn();
        let s = run_mix(
            &db1,
            &t,
            &Mix::read_mostly(),
            4,
            clock.now(),
            remem_sim::SimDuration::from_millis(50),
            3,
        );
        assert!(s.ops > 10, "{s:?}");
        let wal_rm = db1.wal().current_lsn() - wal_before;

        let db2 = db();
        let mut clock2 = Clock::new();
        let t2 = load(&db2, &mut clock2, &tiny());
        let wal_before2 = db2.wal().current_lsn();
        let s2 = run_mix(
            &db2,
            &t2,
            &Mix::default_mix(),
            4,
            clock2.now(),
            remem_sim::SimDuration::from_millis(50),
            3,
        );
        assert!(s2.ops > 10);
        let wal_def = db2.wal().current_lsn() - wal_before2;
        // per-transaction log volume must be far higher in the default mix
        let per_tx_rm = wal_rm as f64 / s.ops as f64;
        let per_tx_def = wal_def as f64 / s2.ops as f64;
        assert!(
            per_tx_def > 3.0 * per_tx_rm,
            "default {per_tx_def} vs read-mostly {per_tx_rm}"
        );
    }

    #[test]
    fn mix_weights_sum_to_one() {
        for m in [Mix::default_mix(), Mix::read_mostly()] {
            let sum = m.new_order + m.payment + m.order_status + m.delivery + m.stock_level;
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }
}
