//! `tpcc_rwal`: the TPC-C default mix with the WAL shipped to remote memory.
//!
//! Short transactions — B+tree point reads, updates and inserts — each
//! record its own commit group, quorum-appended to a `replicas = 2` remote
//! ring over three donors while the lazy archiver drains the ring to the
//! log device. The tables are Fig 22's (24 warehouses, 5 000 items); the
//! pool (16 MiB) holds nearly all of the working set and pool + BPExt
//! (64 MiB) all of it, so commits, not data-file seeks, set the pace. (At
//! Fig 22's 4 MiB pool the run is bound by the lazy writer's queue on the
//! data array, the WAL is 0.3 % of a transaction, and simulated throughput
//! differs by 10 % from seed to seed.)

use std::sync::Arc;

use remem::{Cluster, DbOptions, PlacementPolicy};
use remem_engine::Database;
use remem_sim::rng::SimRng;
use remem_sim::Clock;
use remem_workloads::tpcc::{self, Mix, Tpcc as Tables, TpccParams};

use crate::harness::{scaled, Deck, Env, RunCfg, Workload};
use crate::spec::TPCC_TXNS;
use crate::trace::Name;

const MIB: u64 = 1 << 20;

pub struct Tpcc {
    env: Env,
    db: Arc<Database>,
    tables: Tables,
    /// Deals transaction kinds, in `TPCC_TXNS` order, in the default mix's
    /// exact shares.
    mix: Deck,
    txn_names: [Name; 5],
    batch_ops: u64,
    rng: SimRng,
    /// Orders after the load, and NewOrder transactions run since.
    initial_orders: u64,
    new_orders: u64,
}

impl Tpcc {
    pub fn setup(cfg: &RunCfg, traced: bool) -> Tpcc {
        let mut env = Env::new(
            traced,
            Cluster::builder()
                .memory_servers(3)
                .memory_per_server(96 * MIB)
                .placement(PlacementPolicy::Spread),
        );
        let db = env.database(&DbOptions {
            pool_bytes: 16 * MIB,
            bpext_bytes: 64 * MIB,
            tempdb_bytes: 8 * MIB,
            data_bytes: 512 * MIB,
            replicas: 2,
            remote_wal: true,
            ..DbOptions::small()
        });
        let params = TpccParams {
            warehouses: scaled(24, cfg.scale, 2) as i64,
            districts_per_wh: 10,
            customers_per_district: 60,
            items: scaled(5_000, cfg.scale, 500) as i64,
            seed: cfg.seed,
        };
        let t = std::time::Instant::now();
        let tables = tpcc::load(&db, &mut env.clock, &params);
        env.load_host_s = t.elapsed().as_secs_f64();
        env.load_rows = [
            tables.warehouse,
            tables.district,
            tables.customer,
            tables.stock,
            tables.item,
            tables.orders,
            tables.order_line,
            tables.new_orders,
        ]
        .iter()
        .map(|&t| db.row_count(t))
        .sum();
        let mix = Mix::default_mix();
        let shares = [
            mix.new_order,
            mix.payment,
            mix.order_status,
            mix.delivery,
            mix.stock_level,
        ]
        .map(|weight| (weight * 100.0).round() as usize);
        let tracer = Arc::clone(&env.tracer);
        let mut w = Tpcc {
            initial_orders: db.row_count(tables.orders),
            env,
            db,
            tables,
            mix: Deck::new(&shares),
            txn_names: TPCC_TXNS.map(|txn| tracer.name(&format!("op.{txn}"))),
            batch_ops: scaled(1_500, cfg.scale, 25),
            rng: SimRng::seeded(cfg.seed ^ 0x7063_635f_7277_616c),
            new_orders: 0,
        };
        let mut clock = Clock::starting_at(w.env.clock.now());
        for _ in 0..w.batch_ops {
            w.op(0, &mut clock);
        }
        w.env.clock = clock;
        w
    }
}

impl Workload for Tpcc {
    fn env(&self) -> &Env {
        &self.env
    }

    fn db(&self) -> Option<&Arc<Database>> {
        Some(&self.db)
    }

    fn clients(&self) -> usize {
        64
    }

    fn batch_ops(&self) -> u64 {
        self.batch_ops
    }

    fn fixed_batches(&self) -> usize {
        8
    }

    fn max_batches(&self) -> usize {
        // keeps table growth (~12 rows per NewOrder) far inside the data file
        48
    }

    /// One transaction drawn from the default mix. The transactions check
    /// their own reads (`expect`): a failure is a panic, caught by `main`.
    fn op(&mut self, _client: usize, clock: &mut Clock) -> bool {
        let kind = self.mix.draw(&mut self.rng);
        let (db, t, rng) = (&self.db, &self.tables, &mut self.rng);
        self.env.tracer.span(self.txn_names[kind], clock, |c| {
            match kind {
                0 => {
                    tpcc::new_order(db, c, t, rng);
                    self.new_orders += 1;
                }
                1 => tpcc::payment(db, c, t, rng),
                2 => {
                    tpcc::order_status(db, c, t, rng);
                }
                3 => {
                    tpcc::delivery(db, c, t, rng);
                }
                _ => {
                    tpcc::stock_level(db, c, t, rng);
                }
            };
        });
        true
    }

    /// Orders = loaded + NewOrders run, and a REDO scan from LSN 0 visits
    /// exactly the records the WAL acknowledged.
    fn finish(&mut self, clock: &mut Clock) -> (u64, u64) {
        let orders_ok =
            self.db.row_count(self.tables.orders) == self.initial_orders + self.new_orders;
        let acknowledged = self.db.wal().stats().records;
        let mut visited = 0u64;
        let replayed = self.db.wal().replay(clock, 0, |_| visited += 1);
        let wal_ok = matches!(replayed, Ok(n) if n == acknowledged && visited == acknowledged);
        (2, u64::from(!orders_ok) + u64::from(!wal_ok))
    }
}
