//! Chaos integration: a seeded randomized fault schedule over a
//! RangeScan-with-updates workload.
//!
//! Contract under test (the paper's best-effort promise, §4.2, hardened by
//! the self-healing layer):
//! * zero wrong query results at any point of the schedule;
//! * a single donor loss is absorbed by per-stripe re-lease — the BPExt
//!   never flips `extension_failed()`;
//! * a donor reclaiming more than its unleased pool revokes leases, and a
//!   revoked self-healing file re-leases itself whole;
//! * losing *all* donors suspends the extension; once donors restart, the
//!   backoff-gated probe re-attaches it;
//! * the same fault seed replays byte-identically: same `FaultLog`
//!   fingerprint, same query checksums.

use std::sync::Arc;

use remem::{
    Auditor, Cluster, ColType, DbOptions, Design, FaultInjector, FaultLog, FaultOrigin,
    PlacementPolicy, Schema, SimDuration, SimTime, Value,
};
use remem_engine::Database;
use remem_sim::rng::SimRng;
use remem_sim::Clock;

const ROWS: i64 = 6_000;
/// Virtual span the randomized flaky/slow windows are drawn from.
const FAULT_HORIZON: SimTime = SimTime(50_000_000); // 50 ms of virtual time

fn fnv(h: &mut u64, x: u64) {
    *h ^= x;
    *h = h.wrapping_mul(0x100000001b3);
}

struct Outcome {
    checksum: u64,
    fingerprint: u64,
}

/// One sweep of the workload: seeded range scans verified against the
/// in-test model, sprinkled with updates that mutate both sides.
fn sweep(
    db: &Database,
    clock: &mut Clock,
    t: remem::TableId,
    model: &mut [i64],
    rng: &mut SimRng,
    checksum: &mut u64,
) {
    for _ in 0..12 {
        let lo = rng.uniform(0, (ROWS - 200) as u64) as i64;
        let rows = db
            .range(clock, t, lo, lo + 200)
            .expect("scan must not fail");
        assert_eq!(rows.len(), 200, "range [{lo},{}) incomplete", lo + 200);
        for r in &rows {
            let k = r.int(0);
            assert_eq!(r.int(1), model[k as usize], "wrong value for key {k}");
            fnv(checksum, r.int(1) as u64);
        }
        // a couple of updates per scan keep dirty pages and ext
        // invalidations in flight
        for _ in 0..2 {
            let k = rng.uniform(0, ROWS as u64) as i64;
            let v = rng.uniform(0, 1 << 30) as i64;
            db.update(clock, t, k, |row| row.0[1] = Value::Int(v))
                .expect("update");
            model[k as usize] = v;
            fnv(checksum, v as u64);
        }
        clock.advance(SimDuration::from_millis(1));
    }
}

fn chaos_run(seed: u64) -> Outcome {
    chaos_run_with(seed, None)
}

/// The same chaos schedule, optionally with a runtime invariant [`Auditor`]
/// attached to the broker, every NIC, and the buffer pool — conservation
/// laws are then cross-checked after every mutation of the run.
fn chaos_run_with(seed: u64, auditor: Option<Arc<Auditor>>) -> Outcome {
    let c = Cluster::builder()
        .memory_servers(3)
        .memory_per_server(64 << 20)
        .placement(PlacementPolicy::Spread)
        .build();
    c.broker.set_auditor(auditor.clone());
    c.fabric.set_auditor(auditor.clone());
    let mut clock = Clock::new();
    let log = Arc::new(FaultLog::new());
    let opts = DbOptions {
        pool_bytes: 1 << 20,
        fault_log: Some(Arc::clone(&log)),
        metrics: None,
        ..DbOptions::small()
    };
    let db = Design::Custom.build(&c, &mut clock, &opts).unwrap();
    db.buffer_pool().set_auditor(auditor);
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
    let mut model = vec![0i64; ROWS as usize];
    for k in 0..ROWS {
        model[k as usize] = k * 3;
        db.insert(
            &mut clock,
            t,
            remem::Row::new(vec![
                Value::Int(k),
                Value::Int(k * 3),
                Value::Str("p".repeat(180)),
            ]),
        )
        .unwrap();
    }

    // arm the injector only after the data is loaded: the schedule then
    // plays out over a known-good database
    let inj = Arc::new(FaultInjector::randomized_with_log(
        seed,
        &c.memory_servers,
        SimTime::ZERO,
        FAULT_HORIZON,
        Arc::clone(&log),
    ));
    c.fabric.set_fault_injector(Some(Arc::clone(&inj)));

    let mut rng = SimRng::seeded(seed ^ 0x9e3779b97f4a7c15);
    let mut checksum = 0xcbf29ce484222325u64;

    // ── phase 0: ride out the flaky/slow windows ────────────────────────
    for _ in 0..5 {
        sweep(&db, &mut clock, t, &mut model, &mut rng, &mut checksum);
    }
    // leave the fault horizon behind, then give a suspended extension (a
    // burst of exhausted retries can park it) time + traffic to re-attach
    if clock.now() < FAULT_HORIZON {
        clock.advance_to(FAULT_HORIZON);
    }
    clock.advance(SimDuration::from_secs(10));
    sweep(&db, &mut clock, t, &mut model, &mut rng, &mut checksum);
    sweep(&db, &mut clock, t, &mut model, &mut rng, &mut checksum);
    assert!(
        !db.buffer_pool().extension_failed(),
        "extension must be attached once the flaky windows pass"
    );

    // ── phase A: single donor loss → per-stripe re-lease, no suspension ─
    c.crash_memory_server(c.memory_servers[0]);
    for _ in 0..3 {
        sweep(&db, &mut clock, t, &mut model, &mut rng, &mut checksum);
    }
    assert!(
        !db.buffer_pool().extension_failed(),
        "a single-stripe loss must be absorbed by re-lease, not suspension"
    );
    assert!(
        log.count("rfile.repair", FaultOrigin::Recovery) >= 1,
        "the BPExt file should have repaired its dead stripes: {}",
        log.summary()
    );

    // ── phase B: memory pressure → revocation → full re-lease ───────────
    // the donor takes back everything it lent: past its unleased pool the
    // broker revokes every lease on it, the BPExt's among them (a demand
    // just past the pool would stop at the TempDB lease, granted first)
    let pressured = c.memory_servers[1];
    let demand = 64 << 20;
    let repairs = log.count("rfile.repair", FaultOrigin::Recovery);
    let reclaimed = c.broker.reclaim(&c.fabric, pressured, demand);
    assert!(reclaimed >= demand, "reclaimed {reclaimed} of {demand} B");
    sweep(&db, &mut clock, t, &mut model, &mut rng, &mut checksum);
    sweep(&db, &mut clock, t, &mut model, &mut rng, &mut checksum);
    assert!(
        log.count("rfile.repair", FaultOrigin::Recovery) > repairs,
        "a revoked self-healing file should re-lease: {}",
        log.summary()
    );

    // ── phase C: all donors gone → suspension; restart → re-attach ──────
    c.crash_memory_server(c.memory_servers[1]);
    c.crash_memory_server(c.memory_servers[2]);
    for _ in 0..2 {
        sweep(&db, &mut clock, t, &mut model, &mut rng, &mut checksum);
    }
    assert!(
        db.buffer_pool().extension_failed(),
        "with every donor dead the extension must suspend"
    );
    for &m in &c.memory_servers {
        c.restart_memory_server(&mut clock, m);
    }
    clock.advance(SimDuration::from_secs(30));
    for _ in 0..3 {
        sweep(&db, &mut clock, t, &mut model, &mut rng, &mut checksum);
    }
    assert!(
        !db.buffer_pool().extension_failed(),
        "restarted donors must let the extension re-attach"
    );
    let s = db.bp_stats();
    assert!(s.ext_suspends >= 1 && s.ext_reattaches >= 1, "{s:?}");
    assert!(
        log.count("bpext.reattach", FaultOrigin::Recovery) >= 1,
        "{}",
        log.summary()
    );

    // final full verification pass
    let rows = db.range(&mut clock, t, 0, ROWS).unwrap();
    assert_eq!(rows.len(), ROWS as usize);
    for r in &rows {
        assert_eq!(r.int(1), model[r.int(0) as usize]);
        fnv(&mut checksum, r.int(1) as u64);
    }

    Outcome {
        checksum,
        fingerprint: log.fingerprint(),
    }
}

/// The pipelined vectored path under the same randomized fault schedule:
/// batched reads/writes stay byte-correct against an in-test model while
/// flaky/slow windows force mid-wave retries, and the whole run — data,
/// virtual time, and fault log — replays identically from the seed.
fn vectored_chaos_run(seed: u64) -> Outcome {
    let c = Cluster::builder()
        .memory_servers(3)
        .memory_per_server(64 << 20)
        .placement(PlacementPolicy::Spread)
        .build();
    let mut clock = Clock::new();
    let log = Arc::new(FaultLog::new());
    let cfg = remem::RFileConfig {
        max_retries: 16,
        fault_log: Some(Arc::clone(&log)),
        ..remem::RFileConfig::custom()
    };
    let size: u64 = 8 << 20;
    let file = c.remote_file(&mut clock, c.db_server, size, cfg).unwrap();
    c.fabric
        .set_fault_injector(Some(Arc::new(FaultInjector::randomized_with_log(
            seed,
            &c.memory_servers,
            SimTime::ZERO,
            FAULT_HORIZON,
            Arc::clone(&log),
        ))));

    const CHUNK: usize = 64 << 10;
    let mut model = vec![0u8; size as usize];
    let mut rng = SimRng::seeded(seed ^ 0xd1b54a32d192ed03);
    let mut checksum = 0xcbf29ce484222325u64;
    for round in 0..6 {
        // a disjoint write batch over ~40% of the chunk grid
        let mut datas: Vec<(u64, Vec<u8>)> = Vec::new();
        for slot in 0..(size as usize / CHUNK) {
            if rng.uniform(0, 100) < 40 {
                let fill = rng.uniform(0, 256) as u8;
                datas.push(((slot * CHUNK) as u64, vec![fill; CHUNK]));
            }
        }
        let reqs: Vec<(u64, &[u8])> = datas.iter().map(|(o, d)| (*o, d.as_slice())).collect();
        for r in file.write_vectored(&mut clock, &reqs) {
            r.expect("vectored write must retry through transient chaos");
        }
        for (o, d) in &datas {
            model[*o as usize..*o as usize + d.len()].copy_from_slice(d);
        }
        // an overlapping, unsorted read batch verified against the model
        let shapes: Vec<(u64, usize)> = (0..24)
            .map(|_| {
                let off = rng.uniform(0, size - 40_000);
                (off, 1 + rng.uniform(0, 32_768) as usize)
            })
            .collect();
        let mut bufs: Vec<Vec<u8>> = shapes.iter().map(|(_, l)| vec![0u8; *l]).collect();
        let mut rreqs: Vec<(u64, &mut [u8])> = shapes
            .iter()
            .zip(bufs.iter_mut())
            .map(|(&(o, _), b)| (o, b.as_mut_slice()))
            .collect();
        for r in file.read_vectored(&mut clock, &mut rreqs) {
            r.expect("vectored read must retry through transient chaos");
        }
        for ((o, l), b) in shapes.iter().zip(&bufs) {
            assert_eq!(
                b.as_slice(),
                &model[*o as usize..*o as usize + l],
                "round {round}: read at {o} x {l} corrupted"
            );
            for &x in b.iter().step_by(509) {
                fnv(&mut checksum, x as u64);
            }
        }
        clock.advance(SimDuration::from_millis(2));
    }
    fnv(&mut checksum, clock.now().0);
    Outcome {
        checksum,
        fingerprint: log.fingerprint(),
    }
}

/// The chaos workload with eight closed-loop workers interleaved by
/// [`ClosedLoopDriver`] inside the flaky windows — the only multi-worker
/// round in this file. Every scan is checked against the model as it runs;
/// the checksum also folds in every operation's latency, so a replay must
/// reproduce the schedule, not just the answers.
fn multi_worker_chaos_run(seed: u64) -> Outcome {
    use remem_sim::{ClosedLoopDriver, Histogram};

    let c = Cluster::builder()
        .memory_servers(3)
        .memory_per_server(64 << 20)
        .placement(PlacementPolicy::Spread)
        .build();
    let mut clock = Clock::new();
    let log = Arc::new(FaultLog::new());
    let opts = DbOptions {
        pool_bytes: 1 << 20,
        fault_log: Some(Arc::clone(&log)),
        metrics: None,
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
    let mut model = vec![0i64; ROWS as usize];
    for k in 0..ROWS {
        model[k as usize] = k * 3;
        db.insert(
            &mut clock,
            t,
            remem::Row::new(vec![
                Value::Int(k),
                Value::Int(k * 3),
                Value::Str("p".repeat(180)),
            ]),
        )
        .unwrap();
    }
    c.fabric
        .set_fault_injector(Some(Arc::new(FaultInjector::randomized_with_log(
            seed,
            &c.memory_servers,
            SimTime::ZERO,
            FAULT_HORIZON,
            Arc::clone(&log),
        ))));

    const WORKERS: usize = 8;
    let start = clock.now();
    let horizon = SimTime(start.as_nanos() + 5_000_000); // 5 ms inside the flaky windows
    let mut rngs: Vec<SimRng> = (0..WORKERS)
        .map(|w| SimRng::for_worker(seed, w as u64))
        .collect();
    let mut checksum = 0xcbf29ce484222325u64;
    let lat = Histogram::new();
    let mut driver = ClosedLoopDriver::new(WORKERS, horizon).starting_at(start);
    driver.run(&lat, |w, clk| {
        let rng = &mut rngs[w];
        let lo = rng.uniform(0, (ROWS - 200) as u64) as i64;
        let rows = db.range(clk, t, lo, lo + 200).expect("scan must not fail");
        assert_eq!(rows.len(), 200, "range [{lo},{}) incomplete", lo + 200);
        for r in &rows {
            assert_eq!(r.int(1), model[r.int(0) as usize]);
            fnv(&mut checksum, r.int(1) as u64);
        }
        let k = rng.uniform(0, ROWS as u64) as i64;
        let v = rng.uniform(0, 1 << 30) as i64;
        db.update(clk, t, k, |row| row.0[1] = Value::Int(v))
            .expect("update");
        model[k as usize] = v;
        fnv(&mut checksum, v as u64);
    });
    for s in lat.raw_samples() {
        fnv(&mut checksum, s);
    }
    Outcome {
        checksum,
        fingerprint: log.fingerprint(),
    }
}

/// The replicated chaos round: the same RangeScan-with-updates workload on a
/// `k`-way replicated Custom design loses one donor mid-run. The contract is
/// strictly stronger than the single-copy rounds above: not only are all
/// results correct, but **no cached page is ever discarded** — every stripe
/// has a surviving copy, so the crash costs a failover, not a re-read from
/// the backing device.
fn replicated_chaos_run(seed: u64, k: usize) -> Outcome {
    let c = Cluster::builder()
        .memory_servers(k + 1)
        .memory_per_server(128 << 20)
        .placement(PlacementPolicy::Spread)
        .build();
    // a panicking auditor rides along: replica-set conservation (group
    // partitioning, anti-affinity, lost-slot parking) is cross-checked
    // after every broker mutation of the run
    let aud = Arc::new(Auditor::new());
    c.broker.set_auditor(Some(Arc::clone(&aud)));
    c.fabric.set_auditor(Some(Arc::clone(&aud)));
    let mut clock = Clock::new();
    let log = Arc::new(FaultLog::new());
    let opts = DbOptions {
        pool_bytes: 1 << 20,
        replicas: k,
        fault_log: Some(Arc::clone(&log)),
        metrics: None,
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
    let mut model = vec![0i64; ROWS as usize];
    for key in 0..ROWS {
        model[key as usize] = key * 3;
        db.insert(
            &mut clock,
            t,
            remem::Row::new(vec![
                Value::Int(key),
                Value::Int(key * 3),
                Value::Str("p".repeat(180)),
            ]),
        )
        .unwrap();
    }
    let mut rng = SimRng::seeded(seed ^ 0x2545f4914f6cdd1d);
    let mut checksum = 0xcbf29ce484222325u64;

    // warm the BPExt, then kill a donor mid-workload
    for _ in 0..2 {
        sweep(&db, &mut clock, t, &mut model, &mut rng, &mut checksum);
    }
    c.crash_memory_server(c.memory_servers[0]);
    for _ in 0..3 {
        sweep(&db, &mut clock, t, &mut model, &mut rng, &mut checksum);
    }

    assert!(
        !db.buffer_pool().extension_failed(),
        "k={k}: the surviving replicas must absorb the crash"
    );
    let s = db.bp_stats();
    assert_eq!(
        s.ext_lost_pages, 0,
        "k={k}: replicated stripes must never lose cached pages: {s:?}"
    );
    assert_eq!(s.ext_suspends, 0, "k={k}: no suspension either: {s:?}");
    assert!(
        log.count("rfile.re_replicate", FaultOrigin::Recovery) >= 1,
        "k={k}: the files should have re-replicated onto the spare donor: {}",
        log.summary()
    );

    // final full verification pass
    let rows = db.range(&mut clock, t, 0, ROWS).unwrap();
    assert_eq!(rows.len(), ROWS as usize);
    for r in &rows {
        assert_eq!(r.int(1), model[r.int(0) as usize]);
        fnv(&mut checksum, r.int(1) as u64);
    }
    fnv(&mut checksum, clock.now().0);
    assert!(
        aud.checks() >= 10,
        "k={k}: the auditor must actually be exercised: {}",
        aud.checks()
    );
    Outcome {
        checksum,
        fingerprint: log.fingerprint(),
    }
}

#[test]
fn chaos_schedule_never_corrupts_and_recovers() {
    chaos_run(0xC0FFEE);
}

#[test]
fn replicated_chaos_absorbs_donor_kill_without_rereads() {
    for k in [2usize, 3] {
        let a = replicated_chaos_run(0xABBA, k);
        let b = replicated_chaos_run(0xABBA, k);
        assert_eq!(
            a.checksum, b.checksum,
            "k={k}: query results must replay identically"
        );
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "k={k}: fault logs must replay identically"
        );
    }
}

#[test]
fn multi_worker_chaos_replays_byte_identically() {
    let base = multi_worker_chaos_run(0xBEEF);
    let again = multi_worker_chaos_run(0xBEEF);
    assert_eq!(again.checksum, base.checksum, "data + timing must replay");
    assert_eq!(again.fingerprint, base.fingerprint, "fault log must replay");
    // and the schedule is real: a different seed diverges
    let other = multi_worker_chaos_run(0xBEF0);
    assert_ne!(base.fingerprint, other.fingerprint);
}

#[test]
fn vectored_chaos_replays_byte_identically() {
    let a = vectored_chaos_run(21);
    let b = vectored_chaos_run(21);
    assert_eq!(a.checksum, b.checksum, "data + timing must replay");
    assert_eq!(a.fingerprint, b.fingerprint, "fault log must replay");
    let c = vectored_chaos_run(22);
    assert_ne!(
        a.fingerprint, c.fingerprint,
        "different seeds, different schedules"
    );
}

#[test]
fn chaos_run_under_auditor_is_clean_and_replays_identically() {
    let base = chaos_run(11);
    let aud = Arc::new(Auditor::recording());
    let audited = chaos_run_with(11, Some(Arc::clone(&aud)));
    assert_eq!(aud.violation_count(), 0, "{}", aud.report());
    assert!(
        aud.checks() > 1_000,
        "auditor must actually be exercised: {}",
        aud.checks()
    );
    assert_eq!(
        audited.checksum, base.checksum,
        "auditing must not perturb query results"
    );
    assert_eq!(
        audited.fingerprint, base.fingerprint,
        "auditing must not perturb the fault schedule"
    );
}

#[test]
fn chaos_runs_replay_byte_identically() {
    let a = chaos_run(7);
    let b = chaos_run(7);
    assert_eq!(
        a.checksum, b.checksum,
        "query results must replay identically"
    );
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "fault logs must replay identically"
    );
    // and a different seed actually produces a different schedule
    let c = chaos_run(8);
    assert_ne!(
        a.fingerprint, c.fingerprint,
        "different seeds, different schedules"
    );
}

/// The WAL chaos round: the commit log lives in a 2-way replicated remote
/// ring and one of the donors actually hosting it dies in the middle of
/// the commit stream. The contract is the durability half of the paper's
/// promise: **zero committed transactions lost** — REDO replay from the
/// surviving ring replica reproduces the last committed value of every
/// key — and the whole schedule replays byte-identically under the same
/// seed.
fn wal_chaos_run(seed: u64) -> Outcome {
    const KEYS: usize = 512;
    let k = 2usize;
    let c = Cluster::builder()
        .memory_servers(k + 1)
        .memory_per_server(64 << 20)
        .placement(PlacementPolicy::Spread)
        .build();
    let mut clock = Clock::new();
    let log = Arc::new(FaultLog::new());
    let opts = DbOptions {
        pool_bytes: 1 << 20,
        replicas: k,
        remote_wal: true,
        wal_ring_bytes: 2 << 20,
        fault_log: Some(Arc::clone(&log)),
        metrics: None,
        ..DbOptions::small()
    };
    let db = Design::Custom.build(&c, &mut clock, &opts).unwrap();
    let t = db
        .create_table(
            &mut clock,
            Schema::new(vec![("k", ColType::Int), ("v", ColType::Int)]),
            0,
        )
        .unwrap();
    // kill a donor that really backs the ring, not just any donor
    let victim = db.wal().ring().expect("remote WAL ring").file().donors()[0];
    let mut rng = SimRng::seeded(seed ^ 0x9e3779b97f4a7c15);
    let mut model = vec![i64::MIN; KEYS];
    let mut checksum = 0xcbf29ce484222325u64;
    for round in 0..40 {
        let group = rng.uniform(1, 8) as usize;
        let rows: Vec<remem::Row> = (0..group)
            .map(|_| {
                let key = rng.uniform(0, KEYS as u64) as i64;
                let v = rng.uniform(0, 1 << 30) as i64;
                model[key as usize] = v;
                fnv(&mut checksum, v as u64);
                remem::Row::new(vec![Value::Int(key), Value::Int(v)])
            })
            .collect();
        db.upsert_group(&mut clock, t, &rows)
            .expect("commit must survive the donor kill");
        if round == 19 {
            c.crash_memory_server(victim);
        }
    }
    // REDO replay from the surviving ring image: the last committed write
    // of every key must come back.
    let mut replayed = vec![i64::MIN; KEYS];
    db.wal()
        .replay(&mut clock, 0, |r| {
            if let Some(row) = &r.row {
                replayed[r.key as usize] = row.int(1);
            }
        })
        .unwrap();
    assert_eq!(replayed, model, "REDO replay lost a committed transaction");
    assert!(
        log.count_kind("wal.failover") >= 1,
        "the ring must have failed over to the surviving replica: {}",
        log.summary()
    );
    // and the table itself agrees
    for (key, &v) in model.iter().enumerate() {
        if v != i64::MIN {
            let got = db.get(&mut clock, t, key as i64).unwrap().unwrap();
            assert_eq!(got.int(1), v);
        }
    }
    fnv(&mut checksum, clock.now().0);
    Outcome {
        checksum,
        fingerprint: log.fingerprint(),
    }
}

#[test]
fn wal_chaos_loses_no_committed_transactions_and_replays_identically() {
    let a = wal_chaos_run(0x57A1);
    let b = wal_chaos_run(0x57A1);
    assert_eq!(
        a.checksum, b.checksum,
        "commit stream must replay identically"
    );
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "fault log must replay identically"
    );
}
