//! Integration: failure injection. The paper's contract is *best-effort*:
//! losing remote memory degrades performance but never correctness.

use remem::{Cluster, ColType, DbOptions, Design, Schema};
use remem_engine::exec::int_row;
use remem_engine::semantic::MvPolicy;
#[allow(unused_imports)]
use remem_engine::Row;
use remem_engine::Value;
use remem_sim::Clock;
use std::sync::Arc;

fn cluster() -> Cluster {
    Cluster::builder()
        .memory_servers(2)
        .memory_per_server(64 << 20)
        .build()
}

/// Donor crash mid-workload: the BPExt disappears, the engine keeps
/// answering every query correctly from the base device.
#[test]
fn donor_crash_degrades_but_never_corrupts() {
    let c = cluster();
    let mut clock = Clock::new();
    let opts = DbOptions {
        pool_bytes: 1 << 20,
        ..DbOptions::small()
    };
    let db = Design::Custom.build(&c, &mut clock, &opts).unwrap();
    let t = db
        .create_table(
            &mut clock,
            Schema::new(vec![
                ("k", ColType::Int),
                ("v", ColType::Int),
                ("pad", ColType::Str),
            ]),
            0,
        )
        .unwrap();
    for k in 0..10_000i64 {
        db.insert(
            &mut clock,
            t,
            remem_engine::Row::new(vec![
                Value::Int(k),
                Value::Int(k * 3),
                Value::Str("p".repeat(180)),
            ]),
        )
        .unwrap();
    }
    // churn so the extension is heavily used
    let mut rng = remem_sim::rng::SimRng::seeded(4);
    for _ in 0..500 {
        let k = rng.uniform(0, 10_000) as i64;
        assert_eq!(db.get(&mut clock, t, k).unwrap().unwrap().int(1), k * 3);
    }
    assert!(db.bp_stats().ext_hits > 0 || db.bp_stats().ext_writes > 0);

    // both donors die: no surviving capacity, so self-healing cannot
    // re-lease and the extension tier suspends
    for &m in &c.memory_servers {
        c.crash_memory_server(m);
    }
    // every row still readable, correctly, from the HDD data files
    for _ in 0..500 {
        let k = rng.uniform(0, 10_000) as i64;
        assert_eq!(
            db.get(&mut clock, t, k).unwrap().unwrap().int(1),
            k * 3,
            "correctness must survive donor failure"
        );
    }
    assert!(
        db.buffer_pool().extension_failed(),
        "extension should be suspended"
    );

    // restart both donors end-to-end; after the probe backoff the remote
    // file re-leases fresh stripes and the extension re-attaches
    for &m in &c.memory_servers {
        c.restart_memory_server(&mut clock, m);
    }
    clock.advance(remem_sim::SimDuration::from_secs(30));
    for _ in 0..500 {
        let k = rng.uniform(0, 10_000) as i64;
        assert_eq!(db.get(&mut clock, t, k).unwrap().unwrap().int(1), k * 3);
    }
    assert!(
        !db.buffer_pool().extension_failed(),
        "extension should re-attach once donors return"
    );
    let s = db.bp_stats();
    assert!(s.ext_suspends >= 1 && s.ext_reattaches >= 1, "{s:?}");
}

/// A long idle period costs no remote memory: a lease holds until it is
/// released or revoked, so the scan afterwards is served as before.
#[test]
fn an_idle_period_loses_no_remote_memory() {
    let c = cluster();
    let mut clock = Clock::new();
    let opts = DbOptions {
        pool_bytes: 1 << 20,
        ..DbOptions::small()
    };
    let db = Design::Custom.build(&c, &mut clock, &opts).unwrap();
    let t = db
        .create_table(&mut clock, Schema::new(vec![("k", ColType::Int)]), 0)
        .unwrap();
    for k in 0..5_000i64 {
        db.insert(&mut clock, t, int_row(&[k])).unwrap();
    }
    let leases = c.broker.store().active_leases();
    clock.advance(remem_sim::SimDuration::from_secs(30));
    let rows = db.range(&mut clock, t, 0, 5_000).unwrap();
    assert_eq!(rows.len(), 5_000);
    let s = db.bp_stats();
    assert_eq!((s.ext_suspends, s.ext_lost_pages), (0, 0), "{s:?}");
    assert_eq!(c.broker.store().active_leases(), leases);
}

/// The semantic cache after donor failure: invalid (miss), then rebuilt
/// from the WAL with contents equal to a fresh rebuild.
#[test]
fn semantic_cache_recovery_equals_rebuild() {
    let c = cluster();
    let mut clock = Clock::new();
    let db = Design::Custom
        .build(&c, &mut clock, &DbOptions::small())
        .unwrap();
    let t = db
        .create_table(
            &mut clock,
            Schema::new(vec![("k", ColType::Int), ("v", ColType::Int)]),
            0,
        )
        .unwrap();
    let checkpoint = db.wal().current_lsn();
    for k in 0..1_000i64 {
        db.insert(&mut clock, t, int_row(&[k, k % 97])).unwrap();
    }
    // NC index on column 1 lives in remote memory
    let remote_dev = c
        .remote_file(
            &mut clock,
            c.db_server,
            16 << 20,
            remem::RFileConfig::custom(),
        )
        .unwrap();
    let idx = db
        .create_nc_index(&mut clock, t, 1, remote_dev as Arc<dyn remem::Device>)
        .unwrap();
    let before: usize = db.nc_lookup(&mut clock, t, idx, 13).unwrap().len();
    assert!(before > 0);

    // donor dies; rebuild the index from the log onto a new device
    let applied = db
        .rebuild_nc_index_from_log(
            &mut clock,
            t,
            idx,
            Arc::new(remem::RamDisk::new(32 << 20)),
            checkpoint,
        )
        .unwrap();
    assert_eq!(applied, 1_000);
    let after = db.nc_lookup(&mut clock, t, idx, 13).unwrap();
    assert_eq!(
        after.len(),
        before,
        "recovered index must equal the original"
    );
    assert!(after.iter().all(|r| r.int(1) == 13));
}

/// MV invalidation policy under failure + updates: an invalidated MV is a
/// miss; the base tables still answer.
#[test]
fn mv_failure_and_invalidation_are_misses() {
    let c = cluster();
    let mut clock = Clock::new();
    let db = Design::Custom
        .build(&c, &mut clock, &DbOptions::small())
        .unwrap();
    let t = db
        .create_table(
            &mut clock,
            Schema::new(vec![("k", ColType::Int), ("v", ColType::Float)]),
            0,
        )
        .unwrap();
    for k in 0..100i64 {
        db.insert(
            &mut clock,
            t,
            remem_engine::Row::new(vec![Value::Int(k), Value::Float(k as f64)]),
        )
        .unwrap();
    }
    let mv_dev = c
        .remote_file(
            &mut clock,
            c.db_server,
            4 << 20,
            remem::RFileConfig::custom(),
        )
        .unwrap();
    {
        let mut ctx = db.exec_ctx(&mut clock);
        db.semantic()
            .create_mv(
                &mut ctx,
                "sum_v",
                vec![t],
                MvPolicy::Invalidate,
                &[int_row(&[4950])],
                mv_dev as Arc<dyn remem::Device>,
            )
            .unwrap();
    }
    {
        let mut ctx = db.exec_ctx(&mut clock);
        assert!(db.semantic().get_mv(&mut ctx, "sum_v").unwrap().is_some());
    }
    // a base update invalidates it
    db.update(&mut clock, t, 0, |r| r.0[1] = Value::Float(100.0))
        .unwrap();
    {
        let mut ctx = db.exec_ctx(&mut clock);
        assert!(db.semantic().get_mv(&mut ctx, "sum_v").unwrap().is_none());
    }
    // base plan still computes the (new) truth
    let rows = db.scan(&mut clock, t).unwrap();
    let sum: f64 = rows.iter().map(|r| r.float(1)).sum();
    assert_eq!(sum, 4950.0 - 0.0 + 100.0);
}

/// A torn final record in the remote WAL ring — bytes quorum-written but
/// cut mid-frame, as a crash between the data write and the commit-group
/// boundary would leave them — ends REDO replay cleanly at the last whole
/// record, mirroring the device-backend torn-tail regression.
#[test]
fn remote_wal_replay_stops_at_torn_tail() {
    use remem::{Device, RFileConfig, RamDisk};
    use remem_engine::exec::int_row;
    use remem_engine::wal::{Wal, WalOp, WalRecord};

    let c = Cluster::builder()
        .memory_servers(3)
        .memory_per_server(16 << 20)
        .build();
    let mut clock = Clock::new();
    let ring = c
        .remote_wal_ring(&mut clock, c.db_server, 256 << 10, RFileConfig::custom())
        .unwrap();
    let archive: Arc<dyn Device> = Arc::new(RamDisk::new(1 << 20));
    let wal = Wal::new_remote(Arc::clone(&ring), archive);
    for key in 0..20i64 {
        wal.append(
            &mut clock,
            1,
            WalOp::Insert,
            key,
            Some(&int_row(&[key, key * 2])),
        )
        .unwrap();
    }
    // quorum-commit a frame cut three bytes short of whole
    let torn = WalRecord {
        lsn: 999,
        table: 1,
        op: WalOp::Insert,
        key: 777,
        row: Some(int_row(&[777, 0])),
    }
    .encode();
    ring.append(&mut clock, &torn[..torn.len() - 3]).unwrap();
    let mut seen = Vec::new();
    wal.replay(&mut clock, 0, |r| seen.push((r.lsn, r.key)))
        .unwrap();
    assert_eq!(seen.len(), 20, "replay must end at the last whole record");
    assert!(
        seen.iter().all(|&(_, k)| k != 777),
        "the torn record must not surface"
    );
    assert_eq!(seen.last().unwrap().1, 19);
}

/// Group commit on the remote backend: one flushed group is ONE quorum
/// append (one clock charge), however many records it carries — agreeing
/// with the device backend's one-write-per-group contract.
#[test]
fn remote_wal_group_commit_is_one_quorum_append_per_group() {
    use remem::{Device, RFileConfig, RamDisk};
    use remem_engine::exec::int_row;
    use remem_engine::wal::{Wal, WalEntry, WalOp};
    use remem_sim::MetricsRegistry;

    let metrics = Arc::new(MetricsRegistry::new());
    let c = Cluster::builder()
        .memory_servers(3)
        .memory_per_server(16 << 20)
        .metrics(Arc::clone(&metrics))
        .build();
    let mut clock = Clock::new();
    let ring = c
        .remote_wal_ring(&mut clock, c.db_server, 256 << 10, RFileConfig::custom())
        .unwrap();
    let archive: Arc<dyn Device> = Arc::new(RamDisk::new(1 << 20));
    let wal = Wal::new_remote(Arc::clone(&ring), archive);
    let mut key = 0i64;
    for group in [1usize, 4, 7] {
        let rows: Vec<remem::Row> = (0..group).map(|i| int_row(&[key + i as i64, 10])).collect();
        let entries: Vec<WalEntry> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| WalEntry {
                table: 1,
                op: WalOp::Insert,
                key: key + i as i64,
                row: Some(row),
            })
            .collect();
        key += group as i64;
        wal.append_group(&mut clock, &entries).unwrap();
    }
    assert_eq!(
        metrics.counter("wal.quorum.appends").get(),
        3,
        "one quorum append per flushed group, not per record"
    );
    assert!(metrics.counter("wal.quorum.bytes").get() > 0);
    let mut seen = 0u64;
    wal.replay(&mut clock, 0, |_| seen += 1).unwrap();
    assert_eq!(seen, 12, "every record of every group replays");
}
