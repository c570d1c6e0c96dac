//! Golden trace of the fabric's verb cost model.
//!
//! One fixed script runs under each protocol of Table 5, once with only the
//! quorum step's flaky window and once under a seeded schedule of slow and
//! flaky windows on every donor. Each round drives scalar `write` and `read`,
//! a two-server multi-SGE `execute_batch` with one out-of-bounds WR, a
//! healthy n = 3 `write_quorum` and a `pushdown`; after the rounds a quorum
//! write goes out with one replica crashed and one inside a flaky window.
//!
//! The pin holds the clock after every call with the call's outcome (hashed
//! into `calls`), the fault log's fingerprint (the order of every injector
//! consult that fired), each server's NIC and CPU utilization at a fixed
//! horizon, and a hash of the metrics registry's snapshot. The pins were
//! captured before the verbs were routed through one charge primitive: they
//! assert the refactored fabric books the same grants in the same order.
//!
//! A second test checks that a scalar verb costs exactly what a one-WR
//! doorbell chain costs, on contended pipes, under every protocol.

use std::sync::Arc;

use remem_net::{
    Fabric, FaultInjector, MrHandle, NetConfig, Protocol, PushdownRequest, ReadSge, ServerId,
    WorkRequest, WriteSge,
};
use remem_sim::{Clock, FaultLog, FaultOrigin, MetricsRegistry, SimTime};
use remem_storage::{CmpOp, Page, Predicate, PushdownProgram, Row, Value, PAGE_SIZE};

const MR: u64 = 1 << 20;
const PAGE: usize = PAGE_SIZE;
/// Virtual time between the starts of two rounds.
const ROUND_NS: u64 = 500_000;
const ROUNDS: u64 = 8;
/// The seeded windows close by here; the faulted quorum write starts here.
const QUORUM_AT: SimTime = SimTime(ROUNDS * ROUND_NS);
/// Utilizations are read over `[0, HORIZON]`.
const HORIZON: SimTime = SimTime(6_000_000);
const SEED: u64 = 0x5eed_fab1;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV0: u64 = 0xcbf2_9ce4_8422_2325;

/// Two slotted pages of `(key, key * 10.0)` rows, keys `0..40` and `40..80`.
fn row_pages() -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * PAGE);
    for p in 0..2i64 {
        let mut page = Page::new();
        for k in p * 40..(p + 1) * 40 {
            let row = Row::new(vec![Value::Int(k), Value::Float(k as f64 * 10.0)]);
            page.insert(&row.to_bytes()).unwrap();
        }
        out.extend_from_slice(page.as_bytes());
    }
    out
}

fn pattern(len: usize, salt: u64) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u64).wrapping_mul(31).wrapping_add(salt * 7) as u8)
        .collect()
}

struct Rig {
    fabric: Fabric,
    db: ServerId,
    donors: Vec<ServerId>,
    handles: Vec<MrHandle>,
}

/// One database server and `donors` memory servers with one 1 MiB MR each,
/// every donor connected to the database server.
fn rig(donors: usize) -> Rig {
    let fabric = Fabric::new(NetConfig::default());
    let db = fabric.add_server("DB", 8);
    let mut setup = Clock::new();
    let mut ids = Vec::new();
    let mut handles = Vec::new();
    for i in 0..donors {
        let m = fabric.add_server(format!("M{i}"), 8);
        handles.push(fabric.register_mr(&mut setup, m, MR).unwrap());
        fabric.connect(&mut setup, db, m).unwrap();
        ids.push(m);
    }
    Rig {
        fabric,
        db,
        donors: ids,
        handles,
    }
}

struct Script {
    r: Rig,
    proto: Protocol,
    t: Trace,
    pages: Vec<u8>,
}

struct Trace {
    clock: Clock,
    /// Clock after every call, with the call's outcome.
    calls: u64,
}

impl Trace {
    fn note(&mut self, label: &str, outcome: String) {
        let line = format!("{label} t={} {outcome}\n", self.clock.now().0);
        fnv(&mut self.calls, line.as_bytes());
    }

    /// One n = 3 quorum write of a 4 KiB payload to every donor.
    fn quorum(&mut self, r: &Rig, proto: Protocol, label: &str, n: u64) {
        let targets: Vec<(MrHandle, u64)> = r
            .handles
            .iter()
            .map(|&h| (h, 512 * 1024 + (n % 4) * 4096))
            .collect();
        let data = pattern(4096, n + 9);
        let res = r
            .fabric
            .write_quorum(&mut self.clock, proto, r.db, &targets, &data);
        let outcome = match res {
            Ok(q) => format!(
                "ok {} {} {} {}",
                q.replicas, q.acks, q.quorum, q.straggler_lag
            ),
            Err(e) => format!("{e:?}"),
        };
        self.note(label, outcome);
    }
}

impl Script {
    fn round(&mut self, n: u64) {
        self.t.clock.advance_to(SimTime(n * ROUND_NS));
        let (fabric, db, proto) = (&self.r.fabric, self.r.db, self.proto);
        let h = self.r.handles.clone();
        let off = (n % 4) * 32 * 1024;

        let res = fabric.write(&mut self.t.clock, proto, db, h[0], off, &self.pages);
        self.t.note("write", format!("{res:?}"));
        let mut buf = vec![0u8; PAGE];
        let res = fabric.read(&mut self.t.clock, proto, db, h[0], off, &mut buf);
        let mut seen = FNV0;
        fnv(&mut seen, &buf);
        self.t.note("read", format!("{res:?} {seen:016x}"));
        let res = fabric.write(
            &mut self.t.clock,
            proto,
            db,
            h[1],
            off + 5,
            &pattern(3000, n),
        );
        self.t.note("write", format!("{res:?}"));
        let mut small = vec![0u8; 100];
        let res = fabric.read(&mut self.t.clock, proto, db, h[2], off + 3, &mut small);
        self.t.note("read", format!("{res:?} {:?}", &small[..8]));

        // two servers, multi-SGE WRs, one out-of-bounds WR in the middle
        let (mut a, mut b, mut c) = (vec![0u8; 4096], vec![0u8; 2048], vec![0u8; 4096]);
        let w1 = pattern(1500, n + 1);
        let w2 = pattern(2500, n + 2);
        let w3 = pattern(700, n + 3);
        let mut wrs = vec![
            WorkRequest::Read(vec![
                ReadSge {
                    mr: h[0],
                    offset: off,
                    buf: &mut a,
                },
                ReadSge {
                    mr: h[0],
                    offset: off + 3 * 4096,
                    buf: &mut b,
                },
            ]),
            WorkRequest::Write(vec![
                WriteSge {
                    mr: h[1],
                    offset: off + 8192,
                    data: &w1,
                },
                WriteSge {
                    mr: h[1],
                    offset: off + 12_000,
                    data: &w2,
                },
            ]),
            WorkRequest::Read(vec![ReadSge {
                mr: h[1],
                offset: MR - 100,
                buf: &mut c,
            }]),
            WorkRequest::Write(vec![WriteSge {
                mr: h[0],
                offset: off + 20_000,
                data: &w3,
            }]),
        ];
        let done = fabric.execute_batch(&mut self.t.clock, proto, db, &mut wrs);
        drop(wrs);
        let mut outcome = String::new();
        for c in &done {
            outcome += &format!("[{} {} {:?}]", c.completed_at.0, c.bytes, c.result);
        }
        let mut seen = FNV0;
        fnv(&mut seen, &a);
        fnv(&mut seen, &b);
        self.t.note("batch", format!("{outcome} {seen:016x}"));

        self.t.quorum(&self.r, proto, "quorum", n);

        let prog = PushdownProgram {
            predicates: vec![Predicate {
                col: 0,
                op: CmpOp::Lt,
                value: Value::Int(10 + 7 * n as i64),
            }],
            ..Default::default()
        };
        let req = PushdownRequest {
            handle: h[0],
            offset: off,
            len: 2 * PAGE as u64,
            program: &prog,
        };
        let res = fabric.pushdown(&mut self.t.clock, proto, db, &req);
        let outcome = match res {
            Ok(r) => {
                let mut seen = FNV0;
                fnv(&mut seen, &r.payload);
                format!(
                    "ok {seen:016x} {} {} {} {}",
                    r.rows_scanned, r.rows_matched, r.bytes_scanned, r.server_cpu
                )
            }
            Err(e) => format!("{e:?}"),
        };
        self.t.note("pushdown", outcome);
    }
}

/// Run the script under `proto`; with `seeded`, a randomized schedule of
/// slow and flaky windows covers the rounds.
fn run(proto: Protocol, seeded: bool) -> String {
    let r = rig(3);
    let log = Arc::new(FaultLog::new());
    let base = if seeded {
        FaultInjector::randomized_with_log(SEED, &r.donors, SimTime::ZERO, QUORUM_AT, log)
    } else {
        FaultInjector::with_log(SEED, log)
    };
    // the quorum step's straggler: every verb to M1 is dropped for 1 ms
    let m1 = r.donors[1];
    let inj = Arc::new(base.flaky_window(m1, QUORUM_AT, SimTime(QUORUM_AT.0 + 1_000_000), 1.0));
    r.fabric.set_fault_injector(Some(Arc::clone(&inj)));
    let registry = MetricsRegistry::shared();
    r.fabric.set_metrics(Some(Arc::clone(&registry)));
    let mut s = Script {
        r,
        proto,
        t: Trace {
            clock: Clock::new(),
            calls: FNV0,
        },
        pages: row_pages(),
    };
    for n in 0..ROUNDS {
        s.round(n);
    }
    // one replica down, one straggling: the quorum of two still acks
    s.t.clock.advance_to(QUORUM_AT);
    let m2 = s.r.donors[2];
    s.r.fabric.server(m2).unwrap().fail();
    s.t.quorum(&s.r, proto, "quorum-degraded", ROUNDS);
    s.r.fabric.server(m2).unwrap().restart();
    s.round(ROUNDS + 2);

    if seeded {
        // the schedule must actually drop and delay verbs
        for kind in ["net.flaky", "net.slow"] {
            assert!(inj.log().count(kind, FaultOrigin::Observed) > 0, "{kind}");
        }
    }
    let mut nic = Vec::new();
    let mut cpu = Vec::new();
    for id in 0..s.r.fabric.server_count() {
        let srv = s.r.fabric.server(ServerId(id)).unwrap();
        nic.push(format!("{:?}", srv.nic().utilization(HORIZON)));
        cpu.push(format!("{:?}", srv.cpu().utilization(HORIZON)));
    }
    let mut reg = FNV0;
    fnv(&mut reg, format!("{:?}", registry.snapshot()).as_bytes());
    format!(
        "{} {} t={} calls={:016x} log={:016x} nic=[{}] cpu=[{}] reg={reg:016x}",
        proto.label(),
        if seeded { "seeded" } else { "fault-free" },
        s.t.clock.now().0,
        s.t.calls,
        inj.log().fingerprint(),
        nic.join(" "),
        cpu.join(" "),
    )
}

#[test]
fn golden_fabric_traces() {
    let got: Vec<String> = Protocol::ALL
        .iter()
        .flat_map(|&p| [run(p, false), run(p, true)])
        .collect();
    let got = got.join("\n");
    assert_eq!(got, GOLDEN, "\n{got}");
}

const GOLDEN: &str = r#"Custom fault-free t=5066045 calls=f61fed1ba56c20fa log=5bc3a623f3d5ebfd nic=[0.021630833333333332 0.015533666666666666 0.005952666666666667 0.002946] cpu=[0.0 0.0007875 0.0 0.0] reg=cf9fa9b62c7f9691
Custom seeded t=5066045 calls=fa571ee38e691bab log=c414eace28cf2e6d nic=[0.020620333333333334 0.014523166666666667 0.005952666666666667 0.002946] cpu=[0.0 0.0007 0.0 0.0] reg=0b8a32a3eaa1a958
SMBDirect+RamDrive fault-free t=5498318 calls=e56aec60733321f5 log=5bc3a623f3d5ebfd nic=[0.0702975 0.052200333333333335 0.024619333333333333 0.014946] cpu=[0.0 0.0030791666666666667 0.0011666666666666668 0.00075] reg=8ae46b42b2b714be
SMBDirect+RamDrive seeded t=5498318 calls=562a637a9b41a723 log=91ae8b7942057db1 nic=[0.068904 0.050252 0.022873666666666667 0.014946] cpu=[0.0 0.0029125 0.0010833333333333333 0.00075] reg=18572cc19471b2a0
SMB+RamDrive fault-free t=5768533 calls=ae83f32e097024e4 log=63bfee32050a6da1 nic=[0.1301845 0.098268 0.04361966666666667 0.0288] cpu=[0.0 0.025428125 0.011333333333333334 0.007734375] reg=b487c75fdc633ab9
SMB+RamDrive seeded t=5868996 calls=b55c308f7a7257a2 log=e531067231f9bfa9 nic=[0.12478066666666666 0.09305466666666666 0.04192916666666666 0.0288] cpu=[0.0 0.0240125 0.010895833333333334 0.007734375] reg=a3c2790119a6b6b3"#;

/// Every server's NIC and CPU utilization over `[0, HORIZON]`.
fn utilizations(fabric: &Fabric) -> Vec<(f64, f64)> {
    (0..fabric.server_count())
        .map(|id| {
            let s = fabric.server(ServerId(id)).unwrap();
            (s.nic().utilization(HORIZON), s.cpu().utilization(HORIZON))
        })
        .collect()
}

/// A scalar `read` / `write` and a one-WR `execute_batch`, each started at
/// the same instant on an identical fabric whose donor pipe another client
/// has just loaded, end at the same instant and leave the same utilizations.
#[test]
fn scalar_verbs_cost_what_a_one_wr_chain_costs() {
    for proto in Protocol::ALL {
        for (write, len) in [(false, 8192usize), (true, 8192), (false, 100), (true, 3000)] {
            let fresh = || {
                let r = rig(1);
                // a second client loads the donor's pipe at t = 0
                let other = r.fabric.add_server("DB2", 8);
                let mut c = Clock::new();
                r.fabric.connect(&mut c, other, r.donors[0]).unwrap();
                let mut c = Clock::new();
                let noise = vec![7u8; 256 * 1024];
                r.fabric
                    .write(&mut c, proto, other, r.handles[0], 0, &noise)
                    .unwrap();
                r
            };
            let data = pattern(len, 1);
            let mut buf = vec![0u8; len];

            let scalar = fresh();
            let mut sc = Clock::new();
            let h = scalar.handles[0];
            if write {
                scalar
                    .fabric
                    .write(&mut sc, proto, scalar.db, h, 4096, &data)
            } else {
                scalar
                    .fabric
                    .read(&mut sc, proto, scalar.db, h, 4096, &mut buf)
            }
            .unwrap();

            let chain = fresh();
            let mut cc = Clock::new();
            let h = chain.handles[0];
            let mut wrs = vec![if write {
                WorkRequest::Write(vec![WriteSge {
                    mr: h,
                    offset: 4096,
                    data: &data,
                }])
            } else {
                WorkRequest::Read(vec![ReadSge {
                    mr: h,
                    offset: 4096,
                    buf: &mut buf,
                }])
            }];
            let done = chain
                .fabric
                .execute_batch(&mut cc, proto, chain.db, &mut wrs);
            assert!(done[0].result.is_ok());

            let what = format!("{proto:?} write={write} len={len}");
            assert!(sc.now() > SimTime::ZERO, "{what}");
            assert_eq!(sc.now(), cc.now(), "{what}: completion");
            assert_eq!(
                utilizations(&scalar.fabric),
                utilizations(&chain.fabric),
                "{what}: utilizations"
            );
        }
    }
}
