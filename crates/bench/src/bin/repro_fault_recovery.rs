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
    Value,
};
use remem_bench::{Arm, Report};
use remem_engine::{Database, Row};
use remem_sim::rng::SimRng;
use remem_sim::Clock;

const ROWS: i64 = 8_000;
const SCANS_PER_WINDOW: u64 = 150;

/// The table under test and the value each of its keys should read.
struct Workload<'a> {
    db: &'a Database,
    t: remem::TableId,
    model: Vec<i64>,
    /// Rows any scan returned with a value the model does not hold.
    wrong: u64,
}

impl Workload<'_> {
    /// One measurement window: run the workload slice, check every scanned
    /// row against the model, return `(scans/s of virtual time, extension
    /// hit fraction)`.
    fn window(&mut self, clock: &mut Clock, rng: &mut SimRng) -> (f64, f64) {
        let (db, t) = (self.db, self.t);
        let s0 = db.bp_stats();
        let t0 = clock.now();
        for _ in 0..SCANS_PER_WINDOW {
            let lo = rng.uniform(0, (ROWS - 100) as u64) as i64;
            let rows = db.range(clock, t, lo, lo + 100).expect("scan");
            assert_eq!(rows.len(), 100);
            let model = &self.model;
            self.wrong += rows
                .iter()
                .filter(|r| r.int(1) != model[r.int(0) as usize])
                .count() as u64;
            let k = rng.uniform(0, ROWS as u64) as i64;
            db.update(clock, t, k, |r| r.0[1] = Value::Int(k))
                .expect("update");
            self.model[k as usize] = k;
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
}

struct Phase {
    label: String,
    tput: f64,
    ext_frac: f64,
    suspended: bool,
}

/// The whole lifecycle on one cluster.
struct Lifecycle {
    /// The timeline's rows, one per phase.
    rows: Vec<Vec<String>>,
    phases: Vec<Phase>,
    /// The fault log's summary.
    fault_log: String,
    /// `rfile.retries` the "flaky net" window added.
    flaky_retries: u64,
    /// Extension pages reported lost from the reclaim to the end.
    reclaim_lost_pages: u64,
    /// The arm's `broker.reclaimed.bytes` and `broker.leases.revoked`.
    reclaimed_bytes: u64,
    revoked: u64,
    /// Scanned rows whose value the model does not hold.
    wrong: u64,
}

fn lifecycle(arm: &mut Arm) -> Lifecycle {
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
    let registry = arm.registry();
    let counter = |name: &str| registry.counter(name).get();
    let mut w = Workload {
        db: &db,
        t,
        model: (0..ROWS).map(|k| k * 3).collect(),
        wrong: 0,
    };
    let mut rng = SimRng::seeded(26);
    // warm the extension before measuring
    w.window(&mut clock, &mut rng);

    let mut rows = Vec::new();
    let mut phases: Vec<Phase> = Vec::new();
    let mut measure = |label: &str, w: &mut Workload, clock: &mut Clock, rng: &mut SimRng| {
        let (tput, ext) = w.window(clock, rng);
        let suspended = w.db.buffer_pool().extension_failed();
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

    let healthy_start = clock.now();
    measure("healthy", &mut w, &mut clock, &mut rng);

    // flaky + slow windows over the next stretch as long as the healthy
    // window took, so they fall inside the window they perturb
    let start = clock.now();
    let horizon = start + start.since(healthy_start);
    let inj = Arc::new(FaultInjector::randomized_with_log(
        26,
        &cluster.memory_servers,
        start,
        horizon,
        Arc::clone(&log),
    ));
    cluster.fabric.set_fault_injector(Some(Arc::clone(&inj)));
    let retries = counter("rfile.retries");
    measure("flaky net", &mut w, &mut clock, &mut rng);
    let flaky_retries = counter("rfile.retries") - retries;
    if clock.now() < horizon {
        clock.advance_to(horizon);
    }

    cluster.crash_memory_server(cluster.memory_servers[0]);
    measure("1 donor down", &mut w, &mut clock, &mut rng);
    measure("(re-leased)", &mut w, &mut clock, &mut rng);

    cluster.crash_memory_server(cluster.memory_servers[1]);
    cluster.crash_memory_server(cluster.memory_servers[2]);
    measure("all donors down", &mut w, &mut clock, &mut rng);
    measure("(HDD floor)", &mut w, &mut clock, &mut rng);

    for &m in &cluster.memory_servers {
        cluster.restart_memory_server(&mut clock, m);
    }
    clock.advance(SimDuration::from_secs(30));
    measure("donors restarted", &mut w, &mut clock, &mut rng);
    measure("(re-attached)", &mut w, &mut clock, &mut rng);

    // a donor takes back more than its unleased pool: the broker revokes
    // the leases on it, the extension's among them, and the extension
    // re-leases itself whole (§4.2)
    let lost = db.bp_stats().ext_lost_pages;
    let donor = cluster.memory_servers[0];
    let demand = cluster.broker.store().available_bytes_on(donor) + (1 << 20);
    cluster.broker.reclaim(&cluster.fabric, donor, demand);
    measure("donor reclaims", &mut w, &mut clock, &mut rng);
    measure("(re-leased whole)", &mut w, &mut clock, &mut rng);
    Lifecycle {
        rows,
        phases,
        fault_log: log.summary(),
        flaky_retries,
        reclaim_lost_pages: db.bp_stats().ext_lost_pages - lost,
        reclaimed_bytes: counter("broker.reclaimed.bytes"),
        revoked: counter("broker.leases.revoked"),
        wrong: w.wrong,
    }
}

fn main() {
    let mut report = Report::new(
        "repro_fault_recovery",
        "Fault recovery",
        "throughput timeline across fault injection and self-healing",
    );
    // one arm: the whole lifecycle runs on one cluster
    let Lifecycle {
        rows,
        phases,
        fault_log,
        flaky_retries,
        reclaim_lost_pages,
        reclaimed_bytes,
        revoked,
        wrong,
    } = report
        .arms(&["Custom"], |l| l.to_string(), |_, arm| lifecycle(arm))
        .remove(0);
    report.table(
        "timeline (each row is one measurement window):",
        &["phase", "t ms", "scans/s", "ext hit", "extension"],
        rows,
    );

    report.blank();
    report.note(format!(
        "flaky net: {} rfile retries; donor reclaims: {} B reclaimed, {} lease(s) revoked, \
         {} extension pages reported lost",
        flaky_retries, reclaimed_bytes, revoked, reclaim_lost_pages
    ));
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
    let flaky = find("flaky net");
    let releases = find("(re-leased)");
    let floor = find("(HDD floor)");
    let reattached = find("(re-attached)");
    let reclaims = find("donor reclaims");
    let released_whole = find("(re-leased whole)");
    report.blank();
    report.check_assert(
        "scans_match_model",
        "every scanned row reads the value the model of the updates holds, in every phase",
        wrong == 0,
    );
    report.check_assert(
        "flaky_net_costs_retries",
        "the flaky windows fall inside their phase: rfile retries there and scans/s drop below healthy",
        flaky_retries > 0 && flaky.tput < healthy.tput,
    );
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
    report.check_assert(
        "reclaim_revokes_a_lease",
        "a donor reclaiming past its unleased pool revokes at least one lease (broker.reclaimed.bytes > 0, broker.leases.revoked >= 1)",
        reclaimed_bytes > 0 && revoked >= 1,
    );
    report.check_assert(
        "reclaim_reports_extension_lost",
        "the revoked extension re-leases itself whole and reports its cached pages lost",
        reclaim_lost_pages > 0,
    );
    report.check_assert(
        "extension_survives_reclaim",
        "the extension stays attached through the reclaim and the window after it",
        !reclaims.suspended && !released_whole.suspended && released_whole.ext_frac > 0.0,
    );
    report.gauge("healthy_scans_per_sec", healthy.tput, 10.0);
    report.gauge("hdd_floor_scans_per_sec", floor.tput, 10.0);
    report.finish();
}
