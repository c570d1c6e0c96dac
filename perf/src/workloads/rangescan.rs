//! `rangescan_ro` and `rangescan_upd`: the paper's §3.1 RangeScan on a
//! customer table three times the buffer pool that fits pool + BPExt.
//!
//! Each operation is `SELECT sum(acctbal) WHERE custkey IN [k, k+100)` for a
//! uniform seeded `k`; in the update variant exactly a fifth of the queries
//! (a seeded [`Deck`]) rewrite the 100 balances through `Database::update`
//! instead, which dirties pages (evicted into the BPExt) and appends to the
//! device WAL.

use std::sync::Arc;

use remem::{Cluster, DbOptions, TableId, Value};
use remem_engine::{exec, Database};
use remem_sim::rng::SimRng;
use remem_sim::Clock;
use remem_workloads::rangescan::load_customer;

use crate::harness::{scaled, Deck, Env, RunCfg, Workload};
use crate::trace::Name;

const RANGE: u64 = 100;
/// Read and update queries in a deck of a hundred.
const UPDATE_MIX: [usize; 2] = [80, 20];
const MIB: u64 = 1 << 20;

pub struct RangeScan {
    env: Env,
    db: Arc<Database>,
    table: TableId,
    rows: u64,
    /// Deals 0 for a read query, 1 for an update query.
    mix: Deck,
    batch_ops: u64,
    rng: SimRng,
    /// How many times each row's balance was incremented (the oracle).
    bumps: Vec<u32>,
    op_read: Name,
    op_update: Name,
    engine_range: Name,
    engine_update: Name,
}

/// The balance `customer_row` loads for key `k`, then `bumps` increments —
/// added one at a time, as the engine adds them.
fn balance(k: u64, bumps: u32) -> f64 {
    let mut b = (k % 10_000) as f64 / 7.0;
    for _ in 0..bumps {
        b += 1.0;
    }
    b
}

impl RangeScan {
    /// Cluster, leases, load, checkpoint, and a warm-up that touches the
    /// table often enough to settle pool and BPExt contents.
    pub fn setup(cfg: &RunCfg, traced: bool, updates: bool) -> RangeScan {
        let s = cfg.scale;
        // table ~49 MiB at scale 1: 3x the pool, inside pool + BPExt
        let rows = scaled(200_000, s, 2_000);
        let pool = scaled(16 * MIB, s, 64 * 8192);
        let bpext = pool * 4;
        let mut env = Env::new(
            traced,
            Cluster::builder()
                .memory_servers(2)
                .memory_per_server(bpext / 2 + 16 * MIB),
        );
        let db = env.database(&DbOptions {
            pool_bytes: pool,
            bpext_bytes: bpext,
            tempdb_bytes: 8 * MIB,
            // the log device is never reclaimed: it must hold every update
            // of the longest run (see `max_batches`)
            data_bytes: if updates { 1024 * MIB } else { 256 * MIB },
            ..DbOptions::rangescan()
        });
        let t = std::time::Instant::now();
        let table = load_customer(&db, &mut env.clock, rows);
        env.load_rows = rows;
        env.load_host_s = t.elapsed().as_secs_f64();
        let tracer = Arc::clone(&env.tracer);
        let mut w = RangeScan {
            env,
            db,
            table,
            rows,
            mix: Deck::new(&if updates { UPDATE_MIX } else { [1, 0] }),
            batch_ops: scaled(if updates { 2_500 } else { 10_000 }, s, 50),
            rng: SimRng::seeded(cfg.seed),
            bumps: vec![0; rows as usize],
            op_read: tracer.name("op.read_query"),
            op_update: tracer.name("op.update_query"),
            engine_range: tracer.name("engine.range"),
            engine_update: tracer.name("engine.update"),
        };
        let mut clock = Clock::starting_at(w.env.clock.now());
        for _ in 0..w.batch_ops {
            assert!(w.op(0, &mut clock), "warm-up query failed");
        }
        w.env.clock = clock;
        w
    }

    fn query(&mut self, clock: &mut Clock, start: u64, update: bool) -> bool {
        let (db, tracer) = (&self.db, &self.env.tracer);
        {
            let mut ctx = db.exec_ctx(clock);
            ctx.charge(ctx.costs.statement_overhead);
        }
        let (lo, hi) = (start as i64, (start + RANGE) as i64);
        let rows = match tracer.span(self.engine_range, clock, |c| {
            db.range(c, self.table, lo, hi)
        }) {
            Ok(rows) => rows,
            Err(_) => return false,
        };
        if rows.len() as u64 != RANGE {
            return false;
        }
        if update {
            for r in &rows {
                let k = r.int(0);
                let done = tracer.span(self.engine_update, clock, |c| {
                    db.update(c, self.table, k, |row| {
                        let bal = row.float(2);
                        row.0[2] = Value::Float(bal + 1.0);
                    })
                });
                if !matches!(done, Ok(true)) {
                    return false;
                }
                self.bumps[k as usize] += 1;
            }
            true
        } else {
            let sum = exec::sum_float(&mut db.exec_ctx(clock), &rows, 2);
            let expected: f64 = (start..start + RANGE)
                .map(|k| balance(k, self.bumps[k as usize]))
                .sum();
            sum == expected
        }
    }
}

impl Workload for RangeScan {
    fn env(&self) -> &Env {
        &self.env
    }

    fn db(&self) -> Option<&Arc<Database>> {
        Some(&self.db)
    }

    fn clients(&self) -> usize {
        80
    }

    fn batch_ops(&self) -> u64 {
        self.batch_ops
    }

    fn fixed_batches(&self) -> usize {
        12
    }

    fn max_batches(&self) -> usize {
        // 64 update batches append ~1 KiB x 100 rows x 20 % x 2 500 ops each:
        // under 0.9 GiB of the 1 GiB log device
        64
    }

    fn op(&mut self, _client: usize, clock: &mut Clock) -> bool {
        let start = self.rng.uniform(0, self.rows - RANGE);
        let update = self.mix.draw(&mut self.rng) == 1;
        let name = if update { self.op_update } else { self.op_read };
        self.env.tracer.enter(name, clock);
        let ok = self.query(clock, start, update);
        self.env.tracer.exit(clock);
        ok
    }

    /// Full-scan balance sum = loaded balances + every applied increment.
    fn finish(&mut self, clock: &mut Clock) -> (u64, u64) {
        let Ok(rows) = self.db.scan(clock, self.table) else {
            return (1, 1);
        };
        let sum: f64 = rows.iter().map(|r| r.float(2)).sum();
        let expected: f64 = (0..self.rows)
            .map(|k| balance(k, self.bumps[k as usize]))
            .sum();
        (
            1,
            u64::from(rows.len() as u64 != self.rows || sum != expected),
        )
    }
}
