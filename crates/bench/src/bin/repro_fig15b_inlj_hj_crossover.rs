//! Figure 15b: seeking vs scanning — the INLJ/HJ crossover as the outer
//! predicate's selectivity grows, with the inner index on SSD vs pinned in
//! remote memory (adapted TPC-H Q12: lineitem ⋈ orders).
//!
//! Paper: both plans' costs rise with selectivity; the INLJ→HJ crossover
//! sits at much higher selectivity when the index is in remote memory, so
//! the optimizer's cost model must know where the structure lives.

use std::sync::Arc;

use remem::{Design, Device, RFileConfig};
use remem_bench::{dss_opts, Report};
use remem_engine::optimizer::{choose_join, DeviceProfile, JoinEstimate};
use remem_engine::Row;
use remem_sim::{Clock, SimDuration};
use remem_workloads::tpch::{self, TpchParams};

fn main() {
    let mut report = Report::new(
        "repro_fig15b_inlj_hj_crossover",
        "Fig 15b",
        "INLJ vs HJ latency vs selectivity; index on SSD vs remote memory",
    );
    let params = TpchParams {
        customers: 8_000,
        orders_per_customer: 3,
        lineitems_per_order: 4,
        seed: 5,
    };

    let selectivities = [0.001f64, 0.005, 0.02, 0.05, 0.1, 0.2, 0.4];
    // per tier: the table rows, the measured crossover selectivity (first
    // point where HJ wins) and the INLJ latency at the lowest selectivity
    // (how cheap seeking is)
    let tiers = [("SSD", 0usize), ("RemoteMemory", 1)];
    let runs = report.arms(
        &tiers,
        |(tier, _)| tier.to_string(),
        |&(tier, device_kind), arm| {
            let cluster = arm
                .cluster()
                .memory_servers(2)
                .memory_per_server(256 << 20)
                .build();
            let mut clock = Clock::new();
            // HDD+SSD base design with a generous local TempDB (the spill
            // allocator is append-only and this binary runs many joins back
            // to back); only the *index tier* varies in this experiment
            let mut opts = dss_opts(20);
            opts.tempdb_bytes = 1 << 30;
            // small pool so index accesses really hit the index's tier (the
            // paper's semantic-cache structures are pinned OUTSIDE the pool)
            opts.pool_bytes = 2 << 20;
            let db = Design::HddSsd
                .build(&cluster, &mut clock, &opts)
                .expect("build");
            let t = arm.load(|| tpch::load(&db, &mut clock, &params));
            // the NC index on orders(orderkey), covering — on the chosen tier
            let device: Arc<dyn Device> = if device_kind == 0 {
                Arc::new(remem::Ssd::new(remem::SsdConfig::with_capacity(64 << 20)))
            } else {
                cluster
                    .remote_file(
                        &mut clock,
                        cluster.db_server,
                        64 << 20,
                        RFileConfig::custom(),
                    )
                    .unwrap()
            };
            let idx = db
                .create_nc_index(&mut clock, t.orders, 0, device)
                .expect("nc index");
            // evict the index from the pool by churning the lineitem table,
            // so seeks really hit the tier (the paper pins it outside the pool)
            let _ = db.scan(&mut clock, t.lineitem).expect("churn");

            let lineitems = db.scan(&mut clock, t.lineitem).expect("scan");
            let emit = |l: &Row, o: &Row| Row::new(vec![l.0[1].clone(), o.0[2].clone()]);
            let mut first_hj_win: Option<f64> = None;
            let mut inlj_low_ms = 0.0;
            let mut rows = Vec::new();
            for &sel in &selectivities {
                let n = (((lineitems.len() as f64) * sel) as usize).max(1);
                // stride-sample so the selected orderkeys spread over the
                // whole index (a predicate on shipdate is uncorrelated with
                // orderkey)
                let stride = (lineitems.len() / n).max(1);
                let outer: Vec<Row> = lineitems.iter().step_by(stride).take(n).cloned().collect();
                // measured INLJ
                let t0 = clock.now();
                let a = db
                    .join_inlj_nc(&mut clock, &outer, 1, t.orders, idx, emit)
                    .expect("inlj");
                let inlj = clock.now().since(t0);
                // measured HJ (scan the index as the build side)
                let t1 = clock.now();
                let orders_rows = db.nc_scan(&mut clock, t.orders, idx).expect("index scan");
                let b = db
                    .join_hash(
                        &mut clock,
                        orders_rows,
                        outer,
                        |o| o.int(0),
                        |l| l.int(1),
                        |o, l| emit(l, o),
                    )
                    .expect("hj");
                let hj = clock.now().since(t1);
                assert_eq!(a.len(), b.len(), "plans must agree on the answer");
                if hj < inlj && first_hj_win.is_none() {
                    first_hj_win = Some(sel);
                }
                if sel == selectivities[0] {
                    inlj_low_ms = inlj.as_millis_f64();
                }
                rows.push(vec![
                    tier.to_string(),
                    format!("{:.1}", sel * 100.0),
                    format!("{:.2}", inlj.as_millis_f64()),
                    format!("{:.2}", hj.as_millis_f64()),
                    if inlj < hj { "INLJ" } else { "HJ" }.to_string(),
                ]);
                clock.advance(SimDuration::from_millis(100)); // drain between points
            }
            // a tier where HJ never wins crosses over beyond the last point
            (rows, first_hj_win.unwrap_or(1.0), inlj_low_ms)
        },
    );
    let mut table_rows = Vec::new();
    let mut crossover_sel = Vec::new();
    let mut inlj_low_ms = Vec::new();
    for ((tier, _), (rows, crossover, low_ms)) in tiers.iter().zip(runs) {
        table_rows.extend(rows);
        crossover_sel.push((tier.to_string(), crossover));
        inlj_low_ms.push((tier.to_string(), low_ms));
    }
    report.table(
        "",
        &["index tier", "sel %", "INLJ ms", "HJ ms", "winner"],
        table_rows,
    );

    // the optimizer's predicted crossovers for the same setting
    report.blank();
    report.note("optimizer-predicted crossover (outer rows where HJ takes over):");
    let costs = remem_engine::CpuCosts::default();
    let mut predicted = Vec::new();
    for tier in [DeviceProfile::ssd(), DeviceProfile::remote_memory()] {
        let crossover = remem_engine::optimizer::crossover_outer_rows(24_000, 900, 3, tier, &costs);
        let sample = choose_join(
            JoinEstimate {
                outer_rows: 2_000,
                inner_rows: 24_000,
                inner_pages: 900,
                index_height: 3,
            },
            tier,
            &costs,
        );
        report.note(format!(
            "  {:<13} crossover at {:>7} outer rows (at 2000 rows it picks {:?})",
            tier.label, crossover, sample.plan
        ));
        predicted.push((tier.label.to_string(), crossover as f64));
    }
    report.series("measured_crossover_sel", &crossover_sel);
    report.series("inlj_low_sel_ms", &inlj_low_ms);
    report.series("predicted_crossover_rows", &predicted);
    report.blank();
    report.check_order_asc(
        "crossover_moves_right",
        "measured INLJ->HJ crossover is no earlier on remote memory than on SSD",
        &crossover_sel,
        0.0,
    );
    report.check_ratio_ge(
        "remote_seeks_cheaper",
        "INLJ at the lowest selectivity is >= 2x cheaper on remote memory (so INLJ \
         stays viable far longer — the cost model must know the tier)",
        ("SSD INLJ ms", inlj_low_ms[0].1),
        ("RemoteMemory INLJ ms", inlj_low_ms[1].1),
        2.0,
    );
    report.check_order_asc(
        "optimizer_agrees",
        "optimizer also predicts a later crossover for remote memory",
        &predicted,
        0.0,
    );
    report.gauge("ssd_crossover_sel", crossover_sel[0].1, 50.0);
    report.gauge("remote_crossover_sel", crossover_sel[1].1, 50.0);
    report.finish();
}
