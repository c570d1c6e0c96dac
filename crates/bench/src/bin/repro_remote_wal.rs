//! Ship the WAL to replicated remote memory: commit latency and Fig-26-style
//! recovery time, remote ring vs device log.
//!
//! The same OLTP commit stream runs twice through `Design::Custom`:
//!
//! * **device WAL** — the classic design: every commit group forces one
//!   append to the dedicated log HDD array, and REDO recovery re-reads the
//!   log from the device record by record.
//! * **remote WAL** (`remote_wal: true`, `k = 2`) — commit groups are
//!   quorum-written into a replicated remote ring at RDMA latency; the log
//!   device demotes to the ring's lazy archive, and REDO recovery replays
//!   the surviving ring image in one chunked remote read — **zero** device
//!   I/O for everything still resident.
//!
//! The contrast is the paper's §3.3/Fig. 26 story applied to the commit
//! path: the durability force leaves the disk and recovery reads memory,
//! not spindles. A third phase forces the archiver (`archive_now`) and
//! replays again, accounting the archive-fallback cost for truncated
//! prefixes.

use std::sync::Arc;

use remem::{Cluster, ColType, DbOptions, Design, PlacementPolicy, Schema, Value};
use remem_bench::Report;
use remem_engine::{Database, Row};
use remem_sim::rng::SimRng;
use remem_sim::{Clock, MetricsRegistry};

const GROUPS: u64 = 400;
const GROUP: usize = 8;
const KEYS: u64 = 4_096;

struct ArmOutcome {
    /// Mean commit latency per flushed group, microseconds of virtual time.
    commit_us: f64,
    /// Full REDO replay time, milliseconds of virtual time.
    recovery_ms: f64,
    /// `storage.log` device reads issued during that replay.
    log_reads_in_replay: u64,
    /// Records the replay visited.
    replayed: u64,
    /// Quorum appends the fabric counted (remote arm only; 0 on device).
    quorum_appends: u64,
    /// Flushed commit groups the WAL itself counted.
    wal_groups: u64,
}

fn commit_stream(db: &Database, clock: &mut Clock, t: remem::TableId, rng: &mut SimRng) -> f64 {
    let mut total_ns = 0u64;
    for _ in 0..GROUPS {
        let rows: Vec<Row> = (0..GROUP)
            .map(|_| {
                let key = rng.uniform(0, KEYS) as i64;
                let v = rng.uniform(0, 1 << 30) as i64;
                Row::new(vec![Value::Int(key), Value::Int(v)])
            })
            .collect();
        let t0 = clock.now();
        db.upsert_group(clock, t, &rows).expect("commit");
        total_ns += clock.now().since(t0).as_nanos();
    }
    total_ns as f64 / GROUPS as f64 / 1_000.0
}

fn arm(remote: bool) -> ArmOutcome {
    let metrics = Arc::new(MetricsRegistry::new());
    // the fabric publishes `wal.quorum.*` into the cluster's registry; the
    // same registry goes into DbOptions so the log device is metered too
    let cluster = Cluster::builder()
        .memory_servers(3)
        .memory_per_server(96 << 20)
        .placement(PlacementPolicy::Spread)
        .metrics(Arc::clone(&metrics))
        .build();
    let mut clock = Clock::new();
    let opts = DbOptions {
        pool_bytes: 4 << 20,
        replicas: if remote { 2 } else { 1 },
        remote_wal: remote,
        wal_ring_bytes: 8 << 20,
        fault_log: None,
        metrics: Some(Arc::clone(&metrics)),
        ..DbOptions::small()
    };
    let db = Design::Custom
        .build(&cluster, &mut clock, &opts)
        .expect("db");
    let t = db
        .create_table(
            &mut clock,
            Schema::new(vec![("k", ColType::Int), ("v", ColType::Int)]),
            0,
        )
        .unwrap();
    let mut rng = SimRng::seeded(0x0A11_D00D);
    let commit_us = commit_stream(&db, &mut clock, t, &mut rng);

    // Fig-26-style REDO pass over the whole log
    let log_reads = metrics.counter("storage.log.read.ops");
    let reads_before = log_reads.get();
    let t0 = clock.now();
    let mut replayed = 0u64;
    db.wal()
        .replay(&mut clock, 0, |_| replayed += 1)
        .expect("replay");
    let recovery_ms = clock.now().since(t0).as_nanos() as f64 / 1_000_000.0;

    ArmOutcome {
        commit_us,
        recovery_ms,
        log_reads_in_replay: log_reads.get() - reads_before,
        replayed,
        quorum_appends: metrics.counter("wal.quorum.appends").get(),
        wal_groups: db.wal().stats().groups,
    }
}

/// Remote arm, archive-fallback phase: force the lazy archiver to drain and
/// truncate the whole ring, then replay again — every record now comes back
/// from the archive device, none from remote memory.
struct ArchiveOutcome {
    archived_bytes: u64,
    replayed: u64,
    log_reads: u64,
    ring_resident_after: u64,
}

fn archive_phase() -> ArchiveOutcome {
    let metrics = Arc::new(MetricsRegistry::new());
    let cluster = Cluster::builder()
        .memory_servers(3)
        .memory_per_server(96 << 20)
        .placement(PlacementPolicy::Spread)
        .metrics(Arc::clone(&metrics))
        .build();
    let mut clock = Clock::new();
    let opts = DbOptions {
        pool_bytes: 4 << 20,
        replicas: 2,
        remote_wal: true,
        wal_ring_bytes: 8 << 20,
        fault_log: None,
        metrics: Some(Arc::clone(&metrics)),
        ..DbOptions::small()
    };
    let db = Design::Custom
        .build(&cluster, &mut clock, &opts)
        .expect("db");
    let t = db
        .create_table(
            &mut clock,
            Schema::new(vec![("k", ColType::Int), ("v", ColType::Int)]),
            0,
        )
        .unwrap();
    let mut rng = SimRng::seeded(0x0A11_D00D);
    commit_stream(&db, &mut clock, t, &mut rng);
    let archived_bytes = db.wal().archive_now(&mut clock).expect("archive");
    let log_reads = metrics.counter("storage.log.read.ops");
    let reads_before = log_reads.get();
    let mut replayed = 0u64;
    db.wal()
        .replay(&mut clock, 0, |_| replayed += 1)
        .expect("replay");
    ArchiveOutcome {
        archived_bytes,
        replayed,
        log_reads: log_reads.get() - reads_before,
        ring_resident_after: db.wal().ring().expect("ring").resident(),
    }
}

fn main() {
    let mut report = Report::new(
        "repro_remote_wal",
        "Remote WAL",
        "commit latency + REDO recovery: replicated remote WAL ring (k=2) vs device log",
    );

    let device = arm(false);
    let remote = arm(true);
    let archive = archive_phase();

    report.table(
        "the two arms (identical commit stream):",
        &[
            "arm",
            "commit us/group",
            "recovery ms",
            "log reads in replay",
            "records replayed",
        ],
        vec![
            vec![
                "device WAL".into(),
                format!("{:.1}", device.commit_us),
                format!("{:.3}", device.recovery_ms),
                device.log_reads_in_replay.to_string(),
                device.replayed.to_string(),
            ],
            vec![
                "remote WAL k=2".into(),
                format!("{:.1}", remote.commit_us),
                format!("{:.3}", remote.recovery_ms),
                remote.log_reads_in_replay.to_string(),
                remote.replayed.to_string(),
            ],
        ],
    );
    report.table(
        "archive fallback (remote arm after archive_now):",
        &["archived bytes", "ring resident", "log reads", "replayed"],
        vec![vec![
            archive.archived_bytes.to_string(),
            archive.ring_resident_after.to_string(),
            archive.log_reads.to_string(),
            archive.replayed.to_string(),
        ]],
    );
    report.series(
        "commit_us_by_arm",
        &[
            ("device", device.commit_us),
            ("remote_k2", remote.commit_us),
        ],
    );

    report.blank();
    report.check_assert(
        "same_commit_stream",
        "both arms committed and replayed the same record count",
        device.replayed == remote.replayed && device.replayed == GROUPS * GROUP as u64,
    );
    report.check_ratio_ge(
        "remote_commit_2x_faster",
        "k=2 quorum commit is >= 2x lower latency than the device log force",
        ("device us/group", device.commit_us),
        ("remote us/group", remote.commit_us),
        2.0,
    );
    report.check_assert(
        "remote_replay_zero_device_reads",
        "REDO replay of the resident ring issues zero log-device reads",
        remote.log_reads_in_replay == 0,
    );
    report.check_assert(
        "device_replay_reads_device",
        "the device arm's REDO pass really re-reads the log device",
        device.log_reads_in_replay > 0,
    );
    report.check_ratio_ge(
        "remote_recovery_2x_faster",
        "Fig-26 shape: REDO from remote memory is >= 2x faster than from the device",
        ("device recovery ms", device.recovery_ms),
        ("remote recovery ms", remote.recovery_ms),
        2.0,
    );
    report.check_assert(
        "quorum_telemetry_counts_groups",
        "wal.quorum.appends counts exactly one quorum write per flushed group",
        remote.quorum_appends == remote.wal_groups
            && remote.quorum_appends >= GROUPS
            && device.quorum_appends == 0,
    );
    report.check_assert(
        "archive_fallback_is_lossless",
        "after archive_now the ring is empty and every record replays from the archive",
        archive.ring_resident_after == 0
            && archive.replayed == GROUPS * GROUP as u64
            && archive.log_reads > 0
            && archive.archived_bytes > 0,
    );

    report.gauge("device_commit_us_per_group", device.commit_us, 10.0);
    report.gauge("remote_commit_us_per_group", remote.commit_us, 10.0);
    report.gauge("device_recovery_ms", device.recovery_ms, 10.0);
    report.gauge("remote_recovery_ms", remote.recovery_ms, 10.0);
    report.gauge(
        "commit_latency_ratio",
        device.commit_us / remote.commit_us,
        15.0,
    );
    report.gauge(
        "recovery_ratio",
        device.recovery_ms / remote.recovery_ms,
        15.0,
    );
    report.finish();
}
