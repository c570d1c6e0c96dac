//! Integration: the database engine over remote-memory devices.

use std::sync::Arc;

use remem::{Cluster, ColType, DbOptions, Design, Schema, Value};
use remem_engine::exec::int_row;
use remem_engine::priming;
use remem_engine::Row;
use remem_sim::{Clock, MetricsRegistry};

fn small_cluster() -> Cluster {
    Cluster::builder()
        .memory_servers(2)
        .memory_per_server(64 << 20)
        .build()
}

/// Every design must produce identical query answers — remote memory is a
/// performance tier, never a correctness variable.
#[test]
fn all_designs_agree_on_query_answers() {
    let mut answers = Vec::new();
    for design in Design::ALL {
        let cluster = small_cluster();
        let mut clock = Clock::new();
        let db = design
            .build(&cluster, &mut clock, &DbOptions::small())
            .unwrap();
        let t = db
            .create_table(
                &mut clock,
                Schema::new(vec![("k", ColType::Int), ("v", ColType::Float)]),
                0,
            )
            .unwrap();
        for k in 0..3_000i64 {
            db.insert(
                &mut clock,
                t,
                Row::new(vec![Value::Int(k), Value::Float(((k * 37) % 101) as f64)]),
            )
            .unwrap();
        }
        // mix of point reads, range scans and updates
        for k in (0..3_000i64).step_by(7) {
            db.update(&mut clock, t, k, |r| {
                r.0[1] = Value::Float(r.float(1) + 0.5)
            })
            .unwrap();
        }
        let rows = db.range(&mut clock, t, 500, 1_500).unwrap();
        let sum: f64 = rows.iter().map(|r| r.float(1)).sum();
        answers.push((rows.len(), (sum * 100.0).round() as i64));
    }
    assert!(
        answers.windows(2).all(|w| w[0] == w[1]),
        "answers diverged: {answers:?}"
    );
}

/// BPExt in remote memory must hold more pages than local memory alone and
/// serve misses from it.
#[test]
fn remote_bpext_serves_evictions() {
    let cluster = small_cluster();
    let mut clock = Clock::new();
    let opts = DbOptions {
        pool_bytes: 1 << 20, // 128 frames
        bpext_bytes: 32 << 20,
        ..DbOptions::small()
    };
    let db = Design::Custom.build(&cluster, &mut clock, &opts).unwrap();
    let t = db
        .create_table(
            &mut clock,
            Schema::new(vec![("k", ColType::Int), ("pad", ColType::Str)]),
            0,
        )
        .unwrap();
    for k in 0..20_000i64 {
        db.insert(
            &mut clock,
            t,
            Row::new(vec![Value::Int(k), Value::Str("p".repeat(200))]),
        )
        .unwrap();
    }
    db.buffer_pool().reset_stats();
    let mut rng = remem_sim::rng::SimRng::seeded(1);
    for _ in 0..3_000 {
        let k = rng.uniform(0, 20_000) as i64;
        assert!(db.get(&mut clock, t, k).unwrap().is_some());
    }
    let s = db.bp_stats();
    assert!(
        s.ext_hits > s.base_reads,
        "remote extension should serve most misses: {s:?}"
    );
}

/// TempDB in remote memory: a spilling sort returns exactly the reference
/// ordering.
#[test]
fn remote_tempdb_spilling_sort_is_correct() {
    let cluster = small_cluster();
    let mut clock = Clock::new();
    let opts = DbOptions {
        workspace_bytes: Some(512 << 10),
        ..DbOptions::small()
    };
    let db = Design::Custom.build(&cluster, &mut clock, &opts).unwrap();
    let mut rng = remem_sim::rng::SimRng::seeded(2);
    let mut keys: Vec<i64> = (0..40_000).collect();
    rng.shuffle(&mut keys);
    let rows: Vec<Row> = keys.iter().map(|&k| int_row(&[k])).collect();
    let sorted = db
        .sort_rows(&mut clock, rows, |r| r.int(0) as f64, None)
        .unwrap();
    assert!(
        db.tempdb().bytes_spilled() > 0,
        "must spill to the remote TempDB"
    );
    for (i, r) in sorted.iter().enumerate() {
        assert_eq!(r.int(0), i as i64);
    }
}

/// Priming a second database's pool from the first: the primed pool serves
/// the hot set without touching its devices.
#[test]
fn priming_transfers_the_working_set() {
    let cluster = small_cluster();
    let mut clock = Clock::new();
    let db1 = Design::Custom
        .build(&cluster, &mut clock, &DbOptions::small())
        .unwrap();
    let t = db1
        .create_table(&mut clock, Schema::new(vec![("k", ColType::Int)]), 0)
        .unwrap();
    for k in 0..2_000i64 {
        db1.insert(&mut clock, t, int_row(&[k])).unwrap();
    }
    db1.checkpoint(&mut clock).unwrap();
    // warm db1 on a hot range
    for k in 0..500i64 {
        db1.get(&mut clock, t, k).unwrap();
    }
    let image = {
        let mut ctx = db1.exec_ctx(&mut clock);
        priming::serialize_pool(&mut ctx, db1.buffer_pool())
    };
    assert!(!image.is_empty());

    // the replica: same physical pages (the engine is deterministic, so an
    // identical load produces identical files)
    let cluster2 = small_cluster();
    let mut clock2 = Clock::new();
    let db2 = Design::Custom
        .build(&cluster2, &mut clock2, &DbOptions::small())
        .unwrap();
    let t2 = db2
        .create_table(&mut clock2, Schema::new(vec![("k", ColType::Int)]), 0)
        .unwrap();
    for k in 0..2_000i64 {
        db2.insert(&mut clock2, t2, int_row(&[k])).unwrap();
    }
    db2.checkpoint(&mut clock2).unwrap();
    {
        let mut ctx = db2.exec_ctx(&mut clock2);
        priming::deserialize_into_pool(&mut ctx, db2.buffer_pool(), &image);
    }
    // primed reads answer correctly
    for k in 0..500i64 {
        assert_eq!(db2.get(&mut clock2, t2, k).unwrap().unwrap().int(0), k);
    }
}

/// The admission-control effect behind Appendix B.1: with remote TempDB, a
/// grant-capped spilling query can beat the same query with more local
/// memory but a disk TempDB.
#[test]
fn remote_tempdb_can_beat_local_memory_for_spilling_queries() {
    let run = |design: Design| {
        let cluster = small_cluster();
        let mut clock = Clock::new();
        let opts = DbOptions {
            workspace_bytes: Some(256 << 10),
            oltp: false,
            ..DbOptions::small()
        };
        let db = design.build(&cluster, &mut clock, &opts).unwrap();
        let mut rng = remem_sim::rng::SimRng::seeded(3);
        let mut keys: Vec<i64> = (0..30_000).collect();
        rng.shuffle(&mut keys);
        let rows: Vec<Row> = keys.iter().map(|&k| int_row(&[k])).collect();
        let t0 = clock.now();
        db.sort_rows(&mut clock, rows, |r| r.int(0) as f64, None)
            .unwrap();
        (clock.now().since(t0), db.tempdb().bytes_spilled())
    };
    let (custom_time, custom_spill) = run(Design::Custom);
    let (local_time, local_spill) = run(Design::LocalMemory);
    assert!(
        custom_spill > 0 && local_spill > 0,
        "both must spill under the grant cap"
    );
    assert!(
        custom_time < local_time,
        "remote TempDB {custom_time} should beat SSD TempDB {local_time}"
    );
}

/// Telemetry only watches. On every design, with a registry attached at the
/// cluster (so fabric, broker, remote files and every device role report
/// into it) or not, the same workload ends at the same virtual time, buffer
/// pool stats and answers. The workload commits through the WAL (`force`),
/// scans the pages evicted into the BPExt last (read-ahead: one vectored
/// read per batch), reads data pages and sorts past its grant in runs of
/// more than one TempDB extent (a spill flush: one vectored write of several
/// requests). Leaving any of those calls unforwarded fails the time check.
#[test]
fn telemetry_never_moves_virtual_time() {
    let run = |design: Design, registry: Option<Arc<MetricsRegistry>>| {
        let mut builder = Cluster::builder()
            .memory_servers(2)
            .memory_per_server(64 << 20);
        if let Some(r) = registry {
            builder = builder.metrics(r);
        }
        let cluster = builder.build();
        let mut clock = Clock::new();
        let opts = DbOptions {
            pool_bytes: 128 << 10,
            bpext_bytes: 1 << 20,
            tempdb_bytes: 32 << 20,
            workspace_bytes: Some(12 << 20),
            ..DbOptions::small()
        };
        let db = design.build(&cluster, &mut clock, &opts).unwrap();
        let schema = Schema::new(vec![("k", ColType::Int), ("pad", ColType::Str)]);
        let t = db.create_table(&mut clock, schema, 0).unwrap();
        for k in 0..8_000i64 {
            let row = Row::new(vec![Value::Int(k), Value::Str("p".repeat(200))]);
            db.insert(&mut clock, t, row).unwrap();
        }
        // the newest pages were evicted into the BPExt last: scanning them
        // reads ahead from it
        let tail = db.range(&mut clock, t, 5_000, 8_000).unwrap();
        let mut answers = vec![Some(tail.len() as i64)];
        for k in (0..8_000i64).step_by(53) {
            answers.push(db.get(&mut clock, t, k).unwrap().map(|r| r.int(0)));
        }
        let mut rng = remem_sim::rng::SimRng::seeded(4);
        let mut keys: Vec<i64> = (0..50_000).collect();
        rng.shuffle(&mut keys);
        let rows = keys
            .iter()
            .map(|&k| Row::new(vec![Value::Int(k), Value::Str("s".repeat(100))]))
            .collect();
        let sorted = db
            .sort_rows(&mut clock, rows, |r| r.int(0) as f64, None)
            .unwrap();
        assert!(db.tempdb().bytes_spilled() > 0, "{}", design.label());
        answers.extend(sorted.iter().step_by(101).map(|r| Some(r.int(0))));
        (clock.now(), db.bp_stats(), answers)
    };
    for design in Design::ALL {
        let registry = MetricsRegistry::shared();
        let bare = run(design, None);
        let watched = run(design, Some(Arc::clone(&registry)));
        assert_eq!(watched, bare, "{}", design.label());
        // the registry did see every role and verb
        for counter in [
            "storage.log.force.ops",
            "storage.data.read.ops",
            "storage.tempdb.write.ops",
        ] {
            assert!(registry.counter(counter).get() > 0, "{counter}");
        }
        if !matches!(design, Design::Hdd | Design::LocalMemory) {
            assert!(bare.1.ext_hits > 0, "{}", design.label());
            assert!(registry.span_stats("storage.bpext.read").count > 0);
        }
        if design.uses_remote_memory() {
            assert!(registry.span_stats("rfile.read_vectored").count > 0);
            assert!(registry.span_stats("rfile.write_vectored").count > 0);
        }
    }
}
