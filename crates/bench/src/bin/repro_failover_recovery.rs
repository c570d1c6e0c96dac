//! Crash → failover → full-throughput recovery on replicated remote memory,
//! side by side with the single-copy re-fetch baseline.
//!
//! The same RangeScan-with-updates workload runs twice through an identical
//! donor-crash schedule:
//!
//! * `k = 2` (replicated): every stripe has a copy on a second donor, so
//!   the crash costs an epoch-fenced failover to the surviving replica and
//!   a background re-replication onto the spare donor. Zero cached pages
//!   are discarded and the backing device is never re-read — throughput
//!   returns to the healthy level as soon as the replica set heals.
//! * `k = 1` (the paper's single-copy design, the `repro_fault_recovery`
//!   lifecycle): the crash loses the stripes' only copy; the self-healing
//!   layer re-leases fresh zero-filled stripes and every cached page on
//!   them is discarded and re-fetched from the backing device.
//!
//! The contrast is the figure: replication converts a re-fetch storm into
//! a failover blip, at the cost of `k×` remote memory and quorum writes.

use std::sync::Arc;

use remem::{ColType, DbOptions, Design, FaultLog, FaultOrigin, PlacementPolicy, Schema, Value};
use remem_bench::{Arm, Report};
use remem_engine::{Database, Row};
use remem_sim::rng::SimRng;
use remem_sim::Clock;

const ROWS: i64 = 8_000;
const SCANS_PER_WINDOW: u64 = 150;

/// One measurement window: `(scans/s of virtual time, ext hit fraction)`.
fn window(db: &Database, clock: &mut Clock, t: remem::TableId, rng: &mut SimRng) -> (f64, f64) {
    let s0 = db.bp_stats();
    let t0 = clock.now();
    for _ in 0..SCANS_PER_WINDOW {
        let lo = rng.uniform(0, (ROWS - 100) as u64) as i64;
        let rows = db.range(clock, t, lo, lo + 100).expect("scan");
        assert_eq!(rows.len(), 100);
        let k = rng.uniform(0, ROWS as u64) as i64;
        db.update(clock, t, k, |r| r.0[1] = Value::Int(k))
            .expect("update");
    }
    let elapsed = clock.now().since(t0).as_secs_f64();
    let s1 = db.bp_stats();
    let accesses = (s1.hits + s1.misses) - (s0.hits + s0.misses);
    let ext_frac = if accesses == 0 {
        0.0
    } else {
        (s1.ext_hits - s0.ext_hits) as f64 / accesses as f64
    };
    (SCANS_PER_WINDOW as f64 / elapsed, ext_frac)
}

struct RunOutcome {
    /// `(phase label, scans/s, ext hit fraction)` per window.
    phases: Vec<(String, f64, f64)>,
    /// Cached pages discarded because their backing stripe was lost.
    lost_pages: u64,
    /// Backing-device reads issued after the crash (the re-fetch cost).
    rereads_after_crash: u64,
    re_replications: u64,
}

/// One full crash lifecycle at replication factor `k`.
fn lifecycle(&k: &usize, arm: &mut Arm) -> RunOutcome {
    let cluster = arm
        .cluster()
        .memory_servers(3)
        .memory_per_server(96 << 20)
        .placement(PlacementPolicy::Spread)
        .build();
    let mut clock = Clock::new();
    let log = Arc::new(FaultLog::new());
    let opts = DbOptions {
        pool_bytes: 1 << 20,
        replicas: k,
        fault_log: Some(Arc::clone(&log)),
        ..DbOptions::small()
    };
    let db = Design::Custom
        .build(&cluster, &mut clock, &opts)
        .expect("db");
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
    arm.load(|| {
        for key in 0..ROWS {
            let pad = Value::Str("p".repeat(180));
            let row = Row::new(vec![Value::Int(key), Value::Int(key * 3), pad]);
            db.insert(&mut clock, t, row).unwrap();
        }
    });
    let mut rng = SimRng::seeded(27);
    // warm the extension before measuring
    window(&db, &mut clock, t, &mut rng);

    let mut phases = Vec::new();
    let mut measure = |label: &str, clock: &mut Clock, rng: &mut SimRng| {
        let (tput, ext) = window(&db, clock, t, rng);
        phases.push((label.to_string(), tput, ext));
    };

    measure("healthy", &mut clock, &mut rng);
    let before_crash = db.bp_stats();
    cluster.crash_memory_server(cluster.memory_servers[0]);
    measure("donor down", &mut clock, &mut rng);
    measure("recovered", &mut clock, &mut rng);

    let s = db.bp_stats();
    RunOutcome {
        phases,
        lost_pages: s.ext_lost_pages,
        rereads_after_crash: s.base_reads - before_crash.base_reads,
        re_replications: log.count("rfile.re_replicate", FaultOrigin::Recovery),
    }
}

fn main() {
    let mut report = Report::new(
        "repro_failover_recovery",
        "Failover recovery",
        "donor crash on replicated remote memory: failover + re-replication vs single-copy re-fetch",
    );

    let runs = report.arms(&[2usize, 1], |k| format!("k={k}"), lifecycle);
    let [replicated, single] = <[RunOutcome; 2]>::try_from(runs).ok().expect("two arms");

    let mut rows = Vec::new();
    for (run, o) in [("k=2", &replicated), ("k=1", &single)] {
        for (label, tput, ext) in &o.phases {
            rows.push(vec![
                run.to_string(),
                label.clone(),
                format!("{tput:.0}"),
                format!("{:.0}%", ext * 100.0),
            ]);
        }
    }
    report.table(
        "timeline (each row is one measurement window):",
        &["replicas", "phase", "scans/s", "ext hit"],
        rows,
    );
    report.table(
        "crash cost:",
        &[
            "replicas",
            "lost pages",
            "device re-reads",
            "re-replications",
        ],
        vec![
            vec![
                "k=2".into(),
                replicated.lost_pages.to_string(),
                replicated.rereads_after_crash.to_string(),
                replicated.re_replications.to_string(),
            ],
            vec![
                "k=1".into(),
                single.lost_pages.to_string(),
                single.rereads_after_crash.to_string(),
                single.re_replications.to_string(),
            ],
        ],
    );

    let phase = |o: &RunOutcome, label: &str| -> (f64, f64) {
        o.phases
            .iter()
            .find(|(l, _, _)| l == label)
            .map(|(_, t, e)| (*t, *e))
            .expect("phase")
    };
    let (healthy, _) = phase(&replicated, "healthy");
    let (down, down_ext) = phase(&replicated, "donor down");
    let (recovered, recovered_ext) = phase(&replicated, "recovered");
    let tput_series: Vec<(String, f64)> = replicated
        .phases
        .iter()
        .map(|(l, t, _)| (l.clone(), *t))
        .collect();
    report.series("replicated_tput_by_phase", &tput_series);

    report.blank();
    report.check_assert(
        "replicated_zero_lost_pages",
        "k=2: the crash discards no cached pages (every stripe has a survivor)",
        replicated.lost_pages == 0,
    );
    report.check_assert(
        "replicated_zero_device_rereads",
        "k=2: the crash triggers no backing-device re-reads",
        replicated.rereads_after_crash == 0,
    );
    report.check_assert(
        "replicated_re_replicates",
        "k=2: the files re-replicate onto the spare donor after the crash",
        replicated.re_replications >= 1,
    );
    report.check_assert(
        "replicated_serves_through_crash",
        "k=2: the extension keeps serving hits in the crash window itself",
        down > 0.0 && down_ext > 0.0 && recovered_ext > 0.0,
    );
    report.check_ratio_ge(
        "failover_recovers_full_throughput",
        "k=2: post-crash throughput is back to >= 0.8x the healthy level",
        ("recovered", recovered),
        ("healthy x0.8", healthy * 0.8),
        1.0,
    );
    report.check_assert(
        "single_copy_pays_refetch",
        "k=1: the same crash discards cached pages and re-reads the device",
        single.lost_pages > 0 && single.rereads_after_crash > 0,
    );
    report.gauge("replicated_healthy_scans_per_sec", healthy, 10.0);
    report.gauge("replicated_recovered_scans_per_sec", recovered, 10.0);
    report.gauge(
        "single_copy_rereads_after_crash",
        single.rereads_after_crash as f64,
        25.0,
    );
    report.finish();
}
