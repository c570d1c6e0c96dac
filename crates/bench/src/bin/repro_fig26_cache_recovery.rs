//! Figure 26: recovering a semantic-cache index after its donor fails, by
//! replaying the trailing WAL onto a fresh remote-memory file.
//!
//! Paper: recovery time is ~linear in the dirty volume since the last
//! checkpoint — well under a minute for a GB of trailing updates.

use std::sync::Arc;

use remem::{ColType, DbOptions, Design, Device, RFileConfig, Schema, Value};
use remem_bench::Report;
use remem_engine::Row;
use remem_sim::Clock;

fn main() {
    let mut report = Report::new(
        "repro_fig26_cache_recovery",
        "Fig 26",
        "semantic-cache recovery time vs trailing (dirty) update volume",
    );
    let volumes = [2_000u64, 4_000, 8_000, 16_000, 32_000];
    // per trailing volume: (log MB, recovery seconds)
    let runs = report.arms(
        &volumes,
        |n| format!("{n} updates"),
        |&dirty_updates, arm| {
            let cluster = arm
                .cluster()
                .memory_servers(2)
                .memory_per_server(192 << 20)
                .build();
            let mut clock = Clock::new();
            let db = Design::Custom
                .build(&cluster, &mut clock, &DbOptions::small())
                .expect("db");
            let t = db
                .create_table(
                    &mut clock,
                    Schema::new(vec![
                        ("orderkey", ColType::Int),
                        ("custkey", ColType::Int),
                        ("pad", ColType::Str),
                    ]),
                    0,
                )
                .unwrap();
            arm.load(|| {
                for k in 0..10_000i64 {
                    let pad = Value::Str("p".repeat(220));
                    let row = Row::new(vec![Value::Int(k), Value::Int(k % 500), pad]);
                    db.insert(&mut clock, t, row).unwrap();
                }
            });
            // the semantic-cache NC index, pinned in remote memory
            let remote = cluster
                .remote_file(
                    &mut clock,
                    cluster.db_server,
                    64 << 20,
                    RFileConfig::custom(),
                )
                .unwrap();
            let idx = db
                .create_nc_index(&mut clock, t, 1, remote as Arc<dyn Device>)
                .unwrap();
            // checkpoint, then accumulate trailing updates
            let checkpoint = db.wal().current_lsn();
            for i in 0..dirty_updates as i64 {
                db.update(&mut clock, t, i % 10_000, |r| {
                    r.0[1] = Value::Int((i * 7) % 500);
                })
                .unwrap();
            }
            let dirty_mb = (db.wal().tail_bytes()) as f64 / 1e6;
            // the donor dies; rebuild on a fresh remote file elsewhere
            let fresh = cluster
                .remote_file(
                    &mut clock,
                    cluster.db_server,
                    64 << 20,
                    RFileConfig::custom(),
                )
                .unwrap();
            let t0 = clock.now();
            let applied = db
                .rebuild_nc_index_from_log(&mut clock, t, idx, fresh as Arc<dyn Device>, checkpoint)
                .unwrap();
            let recovery = clock.now().since(t0);
            assert_eq!(applied, dirty_updates);
            (dirty_mb, recovery.as_secs_f64())
        },
    );
    let mut rows = Vec::new();
    let mut recovery_s = Vec::new();
    let mut log_mb = Vec::new();
    for (dirty_updates, (dirty_mb, recovery)) in volumes.iter().zip(runs) {
        rows.push(vec![
            format!("{dirty_updates}"),
            format!("{dirty_mb:.1}"),
            format!("{recovery:.2}"),
        ]);
        recovery_s.push((format!("{dirty_updates}upd"), recovery));
        log_mb.push((format!("{dirty_updates}upd"), dirty_mb));
    }
    report.table(
        "recovery time vs trailing update volume:",
        &["trailing updates", "log volume MB", "recovery s"],
        rows,
    );
    report.series("recovery_seconds", &recovery_s);
    report.series("log_volume_mb", &log_mb);
    report.blank();
    report.check_order_asc(
        "recovery_grows_with_dirty_volume",
        "recovery time rises monotonically with the trailing update volume",
        &recovery_s,
        2.0,
    );
    // the rebuild pays a fixed floor (full index scan) plus a per-update
    // replay cost, so time grows with the log volume but sub-proportionally:
    // 3.5x the log volume costs ~1.8x the time in the sim
    let ratio = recovery_s[4].1 / recovery_s[0].1.max(1e-9);
    let volume_ratio = log_mb[4].1 / log_mb[0].1.max(1e-9);
    report.check_assert(
        "recovery_tracks_dirty_volume",
        "recovery time grows with the log volume, bounded by proportional growth",
        ratio >= 1.3 && ratio <= volume_ratio * 1.5,
    );
    report.check_assert(
        "recovery_stays_fast",
        "even the largest trailing volume recovers in (scaled) seconds",
        recovery_s[4].1 < 60.0,
    );
    report.gauge("recovery_s_32k_updates", recovery_s[4].1, 10.0);
    report.gauge("recovery_linearity_ratio", ratio, 25.0);
    report.finish();
}
