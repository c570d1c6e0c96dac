//! Degrade-and-recover timeline under injected faults (Fig 26-style view of
//! the self-healing stack).
//!
//! A RangeScan-with-updates workload runs in fixed windows while the
//! harness walks the cluster through the whole failure lifecycle: flaky
//! network windows (retried), a single donor crash (absorbed by per-stripe
//! re-lease), loss of every donor (extension suspends, throughput falls to
//! the HDD floor), and donor restarts (backoff-gated probe re-attaches the
//! extension and throughput recovers). The shared `FaultLog` at the end
//! correlates injected faults with what the stack observed and repaired.

use std::sync::Arc;

use remem::{
    ColType, DbOptions, Design, FaultInjector, FaultLog, PlacementPolicy, Schema, SimDuration,
    SimTime, Value,
};
use remem_bench::{Arm, Report};
use remem_engine::{Database, Row};
use remem_sim::rng::SimRng;
use remem_sim::Clock;

const ROWS: i64 = 8_000;
const SCANS_PER_WINDOW: u64 = 150;

/// One measurement window: run the workload slice, return `(scans/s of
/// virtual time, extension hit fraction)`.
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

struct Phase {
    label: String,
    tput: f64,
    ext_frac: f64,
    suspended: bool,
}

/// The whole lifecycle on one cluster: the timeline's rows, each phase, and
/// the fault log's summary.
fn lifecycle(arm: &mut Arm) -> (Vec<Vec<String>>, Vec<Phase>, String) {
    let cluster = arm
        .cluster()
        .memory_servers(3)
        .memory_per_server(64 << 20)
        .placement(PlacementPolicy::Spread)
        .build();
    let mut clock = Clock::new();
    let log = Arc::new(FaultLog::new());
    let opts = DbOptions {
        pool_bytes: 1 << 20,
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
        for k in 0..ROWS {
            let pad = Value::Str("p".repeat(180));
            let row = Row::new(vec![Value::Int(k), Value::Int(k * 3), pad]);
            db.insert(&mut clock, t, row).unwrap();
        }
    });
    let mut rng = SimRng::seeded(26);
    // warm the extension before measuring
    window(&db, &mut clock, t, &mut rng);

    let mut rows = Vec::new();
    let mut phases: Vec<Phase> = Vec::new();
    let mut measure = |label: &str, db: &Database, clock: &mut Clock, rng: &mut SimRng| {
        let (tput, ext) = window(db, clock, t, rng);
        let suspended = db.buffer_pool().extension_failed();
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", clock.now().as_nanos() as f64 / 1e6),
            format!("{tput:.0}"),
            format!("{:.0}%", ext * 100.0),
            if suspended { "suspended" } else { "attached" }.into(),
        ]);
        phases.push(Phase {
            label: label.to_string(),
            tput,
            ext_frac: ext,
            suspended,
        });
    };

    measure("healthy", &db, &mut clock, &mut rng);

    // flaky + slow windows over the next ~50 ms of virtual time
    let horizon = SimTime(clock.now().as_nanos() + 50_000_000);
    let inj = Arc::new(FaultInjector::randomized_with_log(
        26,
        &cluster.memory_servers,
        horizon,
        Arc::clone(&log),
    ));
    cluster.fabric.set_fault_injector(Some(Arc::clone(&inj)));
    measure("flaky net", &db, &mut clock, &mut rng);
    if clock.now() < horizon {
        clock.advance_to(horizon);
    }

    cluster.crash_memory_server(cluster.memory_servers[0]);
    measure("1 donor down", &db, &mut clock, &mut rng);
    measure("(re-leased)", &db, &mut clock, &mut rng);

    cluster.crash_memory_server(cluster.memory_servers[1]);
    cluster.crash_memory_server(cluster.memory_servers[2]);
    measure("all donors down", &db, &mut clock, &mut rng);
    measure("(HDD floor)", &db, &mut clock, &mut rng);

    for &m in &cluster.memory_servers {
        cluster.restart_memory_server(&mut clock, m);
    }
    clock.advance(SimDuration::from_secs(30));
    measure("donors restarted", &db, &mut clock, &mut rng);
    measure("(re-attached)", &db, &mut clock, &mut rng);
    (rows, phases, log.summary())
}

fn main() {
    let mut report = Report::new(
        "repro_fault_recovery",
        "Fault recovery",
        "throughput timeline across fault injection and self-healing",
    );
    // one arm: the whole lifecycle runs on one cluster
    let (rows, phases, fault_log) = report
        .arms(&["Custom"], |l| l.to_string(), |_, arm| lifecycle(arm))
        .remove(0);
    report.table(
        "timeline (each row is one measurement window):",
        &["phase", "t ms", "scans/s", "ext hit", "extension"],
        rows,
    );

    report.blank();
    report.note("fault log (injected vs observed vs recovered):");
    for line in fault_log.lines() {
        report.note(line.to_string());
    }

    let tput_series: Vec<(String, f64)> =
        phases.iter().map(|p| (p.label.clone(), p.tput)).collect();
    let ext_series: Vec<(String, f64)> = phases
        .iter()
        .map(|p| (p.label.clone(), p.ext_frac * 100.0))
        .collect();
    report.series("tput_by_phase", &tput_series);
    report.series("ext_hit_pct_by_phase", &ext_series);

    let find = |label: &str| phases.iter().find(|p| p.label == label).expect("phase");
    let healthy = find("healthy");
    let releases = find("(re-leased)");
    let floor = find("(HDD floor)");
    let reattached = find("(re-attached)");
    report.blank();
    report.check_assert(
        "single_donor_loss_absorbed",
        "after one donor crash the extension stays attached (per-stripe re-lease)",
        !releases.suspended && releases.ext_frac > 0.0,
    );
    report.check_assert(
        "all_donors_down_suspends",
        "with every donor down the extension suspends and ext hits stop",
        floor.suspended && floor.ext_frac == 0.0,
    );
    report.check_ratio_ge(
        "hdd_floor_is_a_cliff",
        "healthy throughput >= 2x the HDD floor",
        ("healthy", healthy.tput),
        ("HDD floor", floor.tput),
        2.0,
    );
    report.check_assert(
        "probe_reattaches_extension",
        "after donor restarts the probe re-attaches the extension",
        !reattached.suspended && reattached.ext_frac > 0.0,
    );
    report.check_ratio_ge(
        "throughput_recovers",
        "post-recovery throughput is >= 0.5x the healthy level and >= 5x the floor",
        ("re-attached", reattached.tput),
        ("healthy x0.5", healthy.tput * 0.5),
        1.0,
    );
    // every window's updates pay the same per-commit log force on both
    // sides of this ratio, which compresses it relative to the read-path
    // gap the check is actually about — 4x still separates a healed
    // extension from the floor cleanly
    report.check_ratio_ge(
        "recovery_leaves_floor_behind",
        "post-recovery throughput is >= 4x the all-donors-down floor",
        ("re-attached", reattached.tput),
        ("HDD floor", floor.tput),
        4.0,
    );
    report.gauge("healthy_scans_per_sec", healthy.tput, 10.0);
    report.gauge("hdd_floor_scans_per_sec", floor.tput, 10.0);
    report.finish();
}
