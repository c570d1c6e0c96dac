//! `hashsort_spill`: the paper's §3.2 Hash+Sort query, back to back.
//!
//! Both tables fit the buffer pool (this is the workload that *fits*), the
//! query workspace is 1 MiB, so the hash join and the top-N sort both spill
//! to a TempDB in remote memory spread over three donors. One operation is
//! one query on one client.
//!
//! The TempDB is single-copy (`replicas = 1`): a replicated remote file
//! routes `write_vectored` through the scalar quorum path, so this is the
//! one workload that drives the vectored write waves and doorbell batching.
//! TempDB space is bump-allocated and never reclaimed, so the run is a fixed
//! number of queries and the TempDB is sized to hold all of them.

use std::sync::Arc;

use remem::{Cluster, ClusterBuilder, DbOptions, Design, PlacementPolicy, Row};
use remem_engine::{Database, DbError};
use remem_sim::rng::SimRng;
use remem_sim::{Clock, MetricsRegistry};
use remem_workloads::hashsort::{load_tables, HashSortParams, HashSortTables};

use crate::harness::{scaled, Env, Phase, RunCfg, Workload};
use crate::layers::Layers;
use crate::trace::{Name, Tracer};

const MIB: u64 = 1 << 20;
/// Queries of a run, all of them in the fixed phase.
const QUERIES: usize = 10;
/// TempDB space one query allocates at scale 1, plus a fifth (measured 47 MiB;
/// it writes ~32 MiB of them: spill extents are reserved in doubling runs).
const TEMPDB_PER_QUERY: u64 = 56 * MIB;
const TOP_N: usize = 300;

/// The query of `remem_workloads::hashsort::run_hash_sort`, with a span
/// around each public `Database` call.
#[derive(Clone, Copy)]
struct Query {
    tables: HashSortTables,
    scan: Name,
    join: Name,
    sort: Name,
}

impl Query {
    /// Run it; returns the top-N rows, cheapest first.
    fn run(&self, tr: &Tracer, db: &Database, clock: &mut Clock) -> Result<Vec<Row>, DbError> {
        let orders = tr.span(self.scan, clock, |c| db.scan(c, self.tables.orders))?;
        let lineitems = tr.span(self.scan, clock, |c| db.scan(c, self.tables.lineitem))?;
        let joined = tr.span(self.join, clock, |c| {
            db.join_hash(
                c,
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
        })?;
        tr.span(self.sort, clock, |c| {
            db.sort_rows(c, joined, |r| r.float(2), Some(TOP_N))
        })
    }
}

pub struct HashSort {
    env: Env,
    db: Arc<Database>,
    scale: f64,
    params: HashSortParams,
    query: Query,
    /// The `TOP_N` lowest lineitem prices, ascending (the oracle).
    expected: Vec<f64>,
    /// Encoded bytes of both tables: what one query reads as input.
    input_bytes: u64,
    op_query: Name,
}

/// Options with a TempDB that holds `queries` queries.
fn options(scale: f64, queries: u64) -> DbOptions {
    DbOptions {
        pool_bytes: scaled(128 * MIB, scale, 8 * MIB),
        bpext_bytes: 8 * MIB,
        tempdb_bytes: scaled(TEMPDB_PER_QUERY, scale, 8 * MIB) * queries,
        data_bytes: 256 * MIB,
        oltp: false,
        workspace_bytes: Some(scaled(16 * MIB, scale, 64 << 10)),
        ..DbOptions::small()
    }
}

/// Three donors holding TempDB and BPExt between them, with room to spare.
fn cluster(opts: &DbOptions) -> ClusterBuilder {
    Cluster::builder()
        .memory_servers(3)
        .memory_per_server((opts.tempdb_bytes + opts.bpext_bytes) / 3 + 16 * MIB)
        .placement(PlacementPolicy::Spread)
}

impl HashSort {
    pub fn setup(cfg: &RunCfg, traced: bool) -> HashSort {
        // the warm-up query, the run, and one query of headroom
        let opts = options(cfg.scale, QUERIES as u64 + 2);
        let mut env = Env::new(traced, cluster(&opts));
        let db = env.database(&opts);
        // The cost model charges by row and page counts, never by values, so
        // same-sized tables would simulate identically for every seed. The
        // seed therefore also picks the size, within 32 orders either way.
        let orders = scaled(40_000, cfg.scale, 1_000);
        let span = 64;
        let params = HashSortParams {
            orders: orders - span / 2 + SimRng::seeded(cfg.seed).uniform(0, span + 1),
            lineitems_per_order: 4,
            top_n: TOP_N,
            seed: cfg.seed,
        };
        let t = std::time::Instant::now();
        let tables = load_tables(&db, &mut env.clock, &params);
        env.load_rows = params.orders * (1 + params.lineitems_per_order);
        env.load_host_s = t.elapsed().as_secs_f64();
        // one scan of each table caches it and gives the oracle its input
        let orders = db.scan(&mut env.clock, tables.orders).expect("scan orders");
        let lineitems = db
            .scan(&mut env.clock, tables.lineitem)
            .expect("scan lineitem");
        let mut expected: Vec<f64> = lineitems.iter().map(|r| r.float(2)).collect();
        expected.sort_by(f64::total_cmp);
        expected.truncate(TOP_N);
        let input_bytes = orders
            .iter()
            .chain(&lineitems)
            .map(|r| r.encoded_len() as u64)
            .sum();
        let tracer = Arc::clone(&env.tracer);
        let mut w = HashSort {
            env,
            db,
            scale: cfg.scale,
            params,
            query: Query {
                tables,
                scan: tracer.name("engine.scan"),
                join: tracer.name("engine.join_hash"),
                sort: tracer.name("engine.sort_rows"),
            },
            expected,
            input_bytes,
            op_query: tracer.name("op.query"),
        };
        let mut clock = Clock::starting_at(w.env.clock.now());
        assert!(w.op(0, &mut clock), "warm-up query failed");
        w.env.clock = clock;
        w
    }
}

impl Workload for HashSort {
    fn env(&self) -> &Env {
        &self.env
    }

    fn db(&self) -> Option<&Arc<Database>> {
        Some(&self.db)
    }

    fn clients(&self) -> usize {
        1
    }

    fn batch_ops(&self) -> u64 {
        1
    }

    fn fixed_batches(&self) -> usize {
        QUERIES
    }

    fn max_batches(&self) -> usize {
        QUERIES
    }

    /// One query; it must spill and return exactly the expected top-N prices.
    fn op(&mut self, _client: usize, clock: &mut Clock) -> bool {
        let spilled = self.db.tempdb().bytes_spilled();
        let tr = &self.env.tracer;
        let rows = tr.span(self.op_query, clock, |c| self.query.run(tr, &self.db, c));
        let Ok(rows) = rows else { return false };
        self.db.tempdb().bytes_spilled() > spilled
            && rows.len() == self.expected.len()
            && rows
                .iter()
                .zip(&self.expected)
                .all(|(r, &price)| r.float(2) == price)
    }

    fn finish(&mut self, _clock: &mut Clock) -> (u64, u64) {
        (0, 0)
    }

    fn fill_layers(&mut self, layers: &mut Layers, untraced: &Phase) {
        // spill of the warm-up query and the fixed phase, per query
        let spilled = self.db.tempdb().bytes_spilled() as f64 / (QUERIES + 1) as f64;
        layers.set(
            "tempdb.spill_per_input_byte",
            spilled / self.input_bytes as f64,
        );
        // The product's own telemetry path: a database built by
        // `Design::Custom.build` over a metrics-attached cluster wraps each
        // role in `MeteredDevice`, which does not forward the vectored
        // calls. Warm up as set-up does, then time one query against the
        // untraced pass's first.
        let opts = options(self.scale, 3);
        let metered_cluster = cluster(&opts).metrics(MetricsRegistry::shared()).build();
        let mut clock = Clock::new();
        let metered = Design::Custom
            .build(&metered_cluster, &mut clock, &opts)
            .expect("build the metered database");
        let query = Query {
            tables: load_tables(&metered, &mut clock, &self.params),
            ..self.query
        };
        for table in [query.tables.orders, query.tables.lineitem] {
            metered.scan(&mut clock, table).expect("warm the pool");
        }
        let mut sim_ns = 0;
        for _ in 0..2 {
            let t0 = clock.now();
            if query.run(&self.env.tracer, &metered, &mut clock).is_err() {
                return;
            }
            sim_ns = clock.now().since(t0).as_nanos();
        }
        let bare_ns = untraced.lat_ns[0];
        layers.set(
            "storage.metered.sim_drift_ppm",
            (sim_ns as f64 - bare_ns as f64) / bare_ns as f64 * 1e6,
        );
    }
}
