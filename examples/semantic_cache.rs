//! Semantic-cache scenario (§3.3 / §6.4): materialized views pinned in
//! remote memory, the re-calibrated INLJ/HJ crossover, and WAL-based
//! recovery after a donor failure.
//!
//! Run with: `cargo run --release -p remem --example semantic_cache`

use remem::{Cluster, DbOptions, Design, RFileConfig};
use remem_engine::optimizer::{choose_join, DeviceProfile, JoinEstimate};
use remem_engine::semantic::MvPolicy;
use remem_engine::Value;
use remem_sim::Clock;
use remem_workloads::tpch::{self, TpchParams};
use std::sync::Arc;

fn main() {
    let cluster = Cluster::builder()
        .memory_servers(2)
        .memory_per_server(96 << 20)
        .build();
    let mut clock = Clock::new();
    let opts = DbOptions {
        pool_bytes: 16 << 20,
        bpext_bytes: 16 << 20,
        tempdb_bytes: 32 << 20,
        oltp: false,
        ..DbOptions::small()
    };
    let db = Design::Custom
        .build(&cluster, &mut clock, &opts)
        .expect("build");
    let t = tpch::load(&db, &mut clock, &TpchParams::default());
    println!("TPC-H-like data loaded: {} orders", t.n_orders);

    // --- 1. answer an aggregate query from an MV pinned in remote memory --
    let q = 1usize; // the Q1-like scan+aggregate
    let t0 = clock.now();
    tpch::run_query(&db, &mut clock, &t, q);
    let base = clock.now().since(t0);

    // materialize the (tiny) aggregate result and pin it in remote memory
    let mv_rows: Vec<remem_engine::Row> = (0..4)
        .map(|g| remem_engine::Row::new(vec![Value::Int(g), Value::Float(g as f64 * 1e6)]))
        .collect();
    let mv_file = cluster
        .remote_file(
            &mut clock,
            cluster.db_server,
            4 << 20,
            RFileConfig::custom(),
        )
        .expect("MV file");
    {
        let mut ctx = db.exec_ctx(&mut clock);
        db.semantic()
            .create_mv(
                &mut ctx,
                "q1_agg",
                vec![t.lineitem],
                MvPolicy::Invalidate,
                &mv_rows,
                Arc::clone(&mv_file) as Arc<dyn remem::Device>,
            )
            .expect("create MV");
    }
    let t1 = clock.now();
    let served = {
        let mut ctx = db.exec_ctx(&mut clock);
        db.semantic()
            .get_mv(&mut ctx, "q1_agg")
            .expect("mv read")
            .expect("valid")
    };
    let cached = clock.now().since(t1);
    println!(
        "Q1: base plan {} -> MV in remote memory {} ({}x, {} rows)",
        base,
        cached,
        base.as_nanos() / cached.as_nanos().max(1),
        served.len()
    );

    // --- 2. the optimizer crossover moves when the index tier changes -----
    println!("\nINLJ vs HJ plan choice (1M-row inner, Fig. 15b):");
    let costs = db.config().cpu.clone();
    for outer in [1_000u64, 20_000, 200_000, 1_000_000] {
        let est = JoinEstimate {
            outer_rows: outer,
            inner_rows: 1_000_000,
            inner_pages: 40_000,
            index_height: 3,
        };
        let ssd = choose_join(est, DeviceProfile::ssd(), &costs);
        let remote = choose_join(est, DeviceProfile::remote_memory(), &costs);
        println!(
            "  outer={outer:>9}: index on SSD -> {:?}; index in remote memory -> {:?}",
            ssd.plan, remote.plan
        );
    }

    // --- 3. donor failure: invalidate, then recover from the WAL ----------
    let checkpoint = db.wal().current_lsn();
    let idx = db
        .create_nc_index(
            &mut clock,
            t.orders,
            1,
            Arc::clone(&mv_file) as Arc<dyn remem::Device>,
        )
        .expect("NC index in remote memory");
    // trailing updates after the checkpoint
    for k in 0..2_000i64 {
        db.update(&mut clock, t.orders, k % t.n_orders as i64, |r| {
            r.0[3] = Value::Float(r.float(3) + 1.0);
        })
        .expect("update");
    }
    // the donor fails: rebuild the index on a fresh (local, for the demo)
    // device by replaying the trailing log
    let t2 = clock.now();
    let applied = db
        .rebuild_nc_index_from_log(
            &mut clock,
            t.orders,
            idx,
            Arc::new(remem::RamDisk::new(64 << 20)),
            checkpoint,
        )
        .expect("recover");
    println!(
        "\nsemantic-cache recovery: replayed {applied} trailing updates in {} (Fig. 26 scales this with dirty volume)",
        clock.now().since(t2)
    );
}
