//! Golden trace of the broker's lease lifecycle.
//!
//! One scripted run over four donors and one database server drives every
//! public lifecycle call: Pack and Spread grants from two front ends over one
//! `MetaStore`, replicated grants at k = 2 and k = 3, a refusal of each grant
//! kind, release, a partial hard `reclaim`, a hard `reclaim` past a donor's
//! pool that revokes 66 one-MR leases and two replicated ones, two donor
//! crashes under single-copy and replicated leases, `repair_lease`,
//! `re_replicate`, recovery and re-donation.
//!
//! The pin holds every call's result, the free bytes on each donor after
//! every step, the replica view of every replicated lease and the `broker.*`
//! counters after every phase, `release` on every lease id at the end, and
//! then one-MR grants until the broker refuses — their handles spell out the
//! order of each donor's pool. An `Auditor` that panics on the first
//! violation watches the whole run. The pin was captured before the lease
//! paths were folded into one routine each: it asserts that the broker hands
//! out, takes back and reorders the same MRs, and refuses with the same
//! numbers.

use std::fmt::Debug;
use std::sync::Arc;

use remem_audit::Auditor;
use remem_broker::{
    BrokerConfig, BrokerError, Lease, LeaseId, MemoryBroker, MemoryProxy, MetaStore,
    PlacementPolicy,
};
use remem_net::{Fabric, MrHandle, NetConfig, ServerId};
use remem_sim::{Clock, MetricsRegistry};

const MR: u64 = 4096;

const COUNTERS: [&str; 10] = [
    "broker.leases.granted",
    "broker.leases.released",
    "broker.leases.revoked",
    "broker.leases.degraded",
    "broker.leases.repaired",
    "broker.leased.bytes",
    "broker.donated.bytes",
    "broker.reclaimed.bytes",
    "broker.wal.rings",
    "broker.pushdown.ops",
];

fn mr(m: &MrHandle) -> String {
    format!("{}.{}", m.server.0, m.mr)
}

fn mrs(v: &[MrHandle]) -> String {
    v.iter().map(mr).collect::<Vec<_>>().join(" ")
}

/// `items` eight to a line, each line indented under the step.
fn lines(items: &[String]) -> String {
    let rows: Vec<String> = items.chunks(8).map(|c| c.join(", ")).collect();
    format!("[\n    {}\n  ]", rows.join("\n    "))
}

fn shown<T>(r: Result<T, BrokerError>, ok: impl FnOnce(T) -> String) -> String {
    match r {
        Ok(v) => format!("Ok({})", ok(v)),
        Err(e) => format!("Err({e:?})"),
    }
}

fn debug<T: Debug>(r: Result<T, BrokerError>) -> String {
    shown(r, |v| format!("{v:?}"))
}

struct Script {
    fabric: Fabric,
    store: MetaStore,
    pack: MemoryBroker,
    spread: MemoryBroker,
    registry: Arc<MetricsRegistry>,
    db: ServerId,
    donors: Vec<ServerId>,
    clock: Clock,
    replicated: Vec<LeaseId>,
    out: String,
}

impl Script {
    fn new() -> Script {
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB", 8);
        let donors: Vec<ServerId> = (0..4)
            .map(|i| fabric.add_server(format!("M{i}"), 8))
            .collect();
        let store = MetaStore::new();
        let front = |placement| {
            let cfg = BrokerConfig {
                placement,
                ..Default::default()
            };
            MemoryBroker::new(cfg, store.clone())
        };
        let (pack, spread) = (front(PlacementPolicy::Pack), front(PlacementPolicy::Spread));
        let registry = MetricsRegistry::shared();
        let auditor = Arc::new(Auditor::new());
        for b in [&pack, &spread] {
            b.set_auditor(Some(Arc::clone(&auditor)));
            b.set_metrics(Some(Arc::clone(&registry)));
        }
        let mut s = Script {
            fabric,
            store,
            pack,
            spread,
            registry,
            db,
            donors,
            clock: Clock::new(),
            replicated: Vec::new(),
            out: String::new(),
        };
        for (i, mrs) in [80, 12, 12, 12].into_iter().enumerate() {
            s.donate(i, mrs);
        }
        s
    }

    fn log(&mut self, what: &str, result: String) {
        let free: Vec<String> = (self.donors.iter())
            .map(|&d| (self.store.available_bytes_on(d) / MR).to_string())
            .collect();
        self.out += &format!("{what} -> {result} | free {}\n", free.join(" "));
    }

    fn donate(&mut self, donor: usize, count: u64) {
        let d = self.donors[donor];
        let given = MemoryProxy::new(d, MR)
            .donate(&mut Clock::new(), &self.fabric, &self.pack, count * MR)
            .unwrap();
        self.log(&format!("donate M{donor}"), mrs(&given));
    }

    fn grant(&mut self, what: &str, r: Result<Lease, BrokerError>) -> Option<LeaseId> {
        let id = r.as_ref().ok().map(|l| l.id);
        let shown = shown(r, |l| format!("L{} {}", l.id.0, mrs(&l.mrs)));
        self.log(what, shown);
        id
    }

    fn lease(&mut self, holder: ServerId, lease_mrs: u64, spread: bool) -> Option<LeaseId> {
        let b = if spread { &self.spread } else { &self.pack };
        let r = b.request_lease(&mut self.clock, holder, lease_mrs * MR);
        let kind = if spread { "spread" } else { "pack" };
        self.grant(&format!("{kind} {lease_mrs} for {}", holder.0), r)
    }

    fn replicated(&mut self, logical_mrs: u64, k: usize) -> Option<LeaseId> {
        let r = (self.pack).request_replicated_lease(&mut self.clock, self.db, logical_mrs * MR, k);
        let id = self.grant(&format!("replicated {logical_mrs} k={k}"), r);
        self.replicated.extend(id);
        id
    }

    fn phase(&mut self, name: &str) {
        self.out += &format!("== {name}\n");
        for &id in &self.replicated.clone() {
            let view = match self.pack.replica_view(id) {
                Some((epoch, groups)) => {
                    let groups: Vec<String> = groups.iter().map(|g| mrs(g)).collect();
                    format!("epoch {epoch} [{}]", groups.join(" | "))
                }
                None => "None".to_string(),
            };
            self.out += &format!("  view L{} {view}\n", id.0);
        }
        let counters: Vec<String> = COUNTERS
            .iter()
            .map(|n| format!("{}={}", n, self.registry.counter(n).get()))
            .collect();
        let active = self.registry.gauge("broker.leases.active").get();
        self.out += &format!("  {} active={active}\n", counters.join(" "));
    }

    /// The donor hosting member `member` of slot `slot` of lease `id`.
    fn member(&self, id: LeaseId, slot: usize, member: usize) -> ServerId {
        self.pack.replica_view(id).unwrap().1[slot][member].server
    }

    fn donor(&self, s: ServerId) -> usize {
        self.donors.iter().position(|&d| d == s).unwrap()
    }
}

fn golden() -> String {
    let mut s = Script::new();
    let db = s.db;
    let [m0, m1, ..] = s.donors[..] else {
        unreachable!()
    };

    // one grant of each kind, then one refusal of each kind
    let l0 = s.lease(db, 3, false).unwrap();
    s.lease(db, 4, true);
    s.replicated(2, 2);
    s.replicated(1, 3);
    // M0 asks for more than the other donors hold: its own pool is skipped
    s.lease(m0, 40, false);
    s.lease(db, 10_000, true);
    s.replicated(1, 5);
    s.phase("grants");

    let r = s.pack.release(&mut s.clock, l0);
    s.log("release L0", debug(r));
    let want = s.store.available_bytes_on(m1) + MR;
    let r = s.pack.reclaim(&s.fabric, m1, want);
    s.log(&format!("reclaim M1 {}", want / MR), r.to_string());
    s.phase("release and reclaim");

    // many small leases on M0, then a reclaim that takes more than its pool
    let mut granted = Vec::new();
    for _ in 0..66 {
        let l = s.pack.request_lease(&mut s.clock, db, MR).unwrap();
        granted.push(format!("L{} {}", l.id.0, mrs(&l.mrs)));
    }
    s.log("pack 1 for 0, 66 times", lines(&granted));
    let want = s.store.available_bytes_on(m0) + 80 * MR;
    let r = s.pack.reclaim(&s.fabric, m0, want);
    s.log(&format!("reclaim M0 {}", want / MR), r.to_string());
    s.phase("hard reclaim");

    s.donate(0, 8);
    s.donate(1, 8);
    let single = s.lease(db, 4, true).unwrap();
    let packed = s.lease(db, 2, false).unwrap();
    let r2 = s.replicated(2, 2).unwrap();
    let r3 = s.replicated(1, 3).unwrap();
    // lose every copy of r2's first slot, one crash at a time
    let (x, y) = (s.member(r2, 0, 0), s.member(r2, 0, 1));
    s.spread.server_failed(x);
    s.log(&format!("server_failed M{}", s.donor(x)), String::new());
    s.phase("first crash");
    let r = s.pack.repair_lease(&mut s.clock, single);
    s.log(
        "repair_lease single",
        shown(r, |(l, n)| mrs(&l) + " => " + &mrs(&n)),
    );
    s.pack.server_failed(y);
    s.log(&format!("server_failed M{}", s.donor(y)), String::new());
    for (name, id) in [("r2", r2), ("r3", r3)] {
        let r = s.spread.re_replicate(&mut s.clock, id);
        let r = shown(r, |v| {
            let v: Vec<String> = v
                .iter()
                .map(|rr| {
                    let src = rr.source.as_ref().map_or("zero".to_string(), mr);
                    format!("slot {} from {src} add {}", rr.slot, mrs(&rr.added))
                })
                .collect();
            v.join(", ")
        });
        s.log(&format!("re_replicate {name}"), r);
    }
    for (name, id) in [("single", single), ("packed", packed), ("r2", r2)] {
        let r = s.pack.repair_lease(&mut s.clock, id);
        s.log(
            &format!("repair_lease {name}"),
            shown(r, |(l, n)| mrs(&l) + " => " + &mrs(&n)),
        );
    }
    s.phase("second crash");

    s.pack.server_recovered(x);
    s.donate(s.donor(x), 8);
    let r = s.pack.re_replicate(&mut s.clock, r3);
    s.log("re_replicate r3", debug(r.map(|v| v.len())));
    s.pack.server_recovered(y);
    s.donate(s.donor(y), 8);
    s.phase("recovery");

    let last = s.lease(db, 1, false).unwrap();
    let released: Vec<String> = (0..=last.0 + 1)
        .map(|id| match s.spread.release(&mut s.clock, LeaseId(id)) {
            Ok(()) => format!("L{id} Ok"),
            Err(BrokerError::LeaseNotActive(_, state)) => format!("L{id} {state:?}"),
            Err(e) => format!("L{id} {e:?}"),
        })
        .collect();
    s.log("release every lease", lines(&released));
    let mut order = Vec::new();
    let refusal = loop {
        match s.pack.request_lease(&mut s.clock, db, MR) {
            Ok(l) => order.push(mr(&l.mrs[0])),
            Err(e) => break e,
        }
    };
    order.push(format!("Err({refusal:?})"));
    s.log("pack 1 for 0 until refused", lines(&order));
    s.phase("end");
    s.out
}

#[test]
fn golden_lease_lifecycle() {
    let got = golden();
    assert_eq!(got, GOLDEN, "\n{got}");
}

const GOLDEN: &str = r#"donate M0 -> 1.1 1.2 1.3 1.4 1.5 1.6 1.7 1.8 1.9 1.10 1.11 1.12 1.13 1.14 1.15 1.16 1.17 1.18 1.19 1.20 1.21 1.22 1.23 1.24 1.25 1.26 1.27 1.28 1.29 1.30 1.31 1.32 1.33 1.34 1.35 1.36 1.37 1.38 1.39 1.40 1.41 1.42 1.43 1.44 1.45 1.46 1.47 1.48 1.49 1.50 1.51 1.52 1.53 1.54 1.55 1.56 1.57 1.58 1.59 1.60 1.61 1.62 1.63 1.64 1.65 1.66 1.67 1.68 1.69 1.70 1.71 1.72 1.73 1.74 1.75 1.76 1.77 1.78 1.79 1.80 | free 80 0 0 0
donate M1 -> 2.1 2.2 2.3 2.4 2.5 2.6 2.7 2.8 2.9 2.10 2.11 2.12 | free 80 12 0 0
donate M2 -> 3.1 3.2 3.3 3.4 3.5 3.6 3.7 3.8 3.9 3.10 3.11 3.12 | free 80 12 12 0
donate M3 -> 4.1 4.2 4.3 4.4 4.5 4.6 4.7 4.8 4.9 4.10 4.11 4.12 | free 80 12 12 12
pack 3 for 0 -> Ok(L0 1.80 1.79 1.78) | free 77 12 12 12
spread 4 for 0 -> Ok(L1 1.77 2.12 3.12 4.12) | free 76 11 11 11
replicated 2 k=2 -> Ok(L2 1.76 2.11 1.75 3.11) | free 74 10 10 11
replicated 1 k=3 -> Ok(L3 1.74 4.11 2.10) | free 73 9 10 10
pack 40 for 1 -> Err(InsufficientMemory { requested: 163840, available: 417792 }) | free 73 9 10 10
spread 10000 for 0 -> Err(InsufficientMemory { requested: 40960000, available: 417792 }) | free 73 9 10 10
replicated 1 k=5 -> Err(InsufficientMemory { requested: 20480, available: 417792 }) | free 73 9 10 10
== grants
  view L2 epoch 0 [1.76 2.11 | 1.75 3.11]
  view L3 epoch 0 [1.74 4.11 2.10]
  broker.leases.granted=4 broker.leases.released=0 broker.leases.revoked=0 broker.leases.degraded=0 broker.leases.repaired=0 broker.leased.bytes=57344 broker.donated.bytes=475136 broker.reclaimed.bytes=0 broker.wal.rings=0 broker.pushdown.ops=0 active=4
release L0 -> Ok(()) | free 76 9 10 10
reclaim M1 10 -> 40960 | free 77 0 11 11
== release and reclaim
  view L2 epoch 0 [1.76 2.11 | 1.75 3.11]
  view L3 epoch 0 [1.74 4.11 2.10]
  broker.leases.granted=4 broker.leases.released=1 broker.leases.revoked=1 broker.leases.degraded=0 broker.leases.repaired=0 broker.leased.bytes=57344 broker.donated.bytes=475136 broker.reclaimed.bytes=40960 broker.wal.rings=0 broker.pushdown.ops=0 active=2
pack 1 for 0, 66 times -> [
    L4 1.77, L5 1.78, L6 1.79, L7 1.80, L8 1.73, L9 1.72, L10 1.71, L11 1.70
    L12 1.69, L13 1.68, L14 1.67, L15 1.66, L16 1.65, L17 1.64, L18 1.63, L19 1.62
    L20 1.61, L21 1.60, L22 1.59, L23 1.58, L24 1.57, L25 1.56, L26 1.55, L27 1.54
    L28 1.53, L29 1.52, L30 1.51, L31 1.50, L32 1.49, L33 1.48, L34 1.47, L35 1.46
    L36 1.45, L37 1.44, L38 1.43, L39 1.42, L40 1.41, L41 1.40, L42 1.39, L43 1.38
    L44 1.37, L45 1.36, L46 1.35, L47 1.34, L48 1.33, L49 1.32, L50 1.31, L51 1.30
    L52 1.29, L53 1.28, L54 1.27, L55 1.26, L56 1.25, L57 1.24, L58 1.23, L59 1.22
    L60 1.21, L61 1.20, L62 1.19, L63 1.18, L64 1.17, L65 1.16, L66 1.15, L67 1.14
    L68 1.13, L69 1.12
  ] | free 11 0 11 11
reclaim M0 91 -> 327680 | free 0 2 12 12
== hard reclaim
  view L2 None
  view L3 None
  broker.leases.granted=70 broker.leases.released=1 broker.leases.revoked=69 broker.leases.degraded=0 broker.leases.repaired=0 broker.leased.bytes=327680 broker.donated.bytes=475136 broker.reclaimed.bytes=368640 broker.wal.rings=0 broker.pushdown.ops=0 active=0
donate M0 -> 1.81 1.82 1.83 1.84 1.85 1.86 1.87 1.88 | free 8 2 12 12
donate M1 -> 2.13 2.14 2.15 2.16 2.17 2.18 2.19 2.20 | free 8 10 12 12
spread 4 for 0 -> Ok(L70 1.88 2.20 3.11 4.11) | free 7 9 11 11
pack 2 for 0 -> Ok(L71 1.87 1.86) | free 5 9 11 11
replicated 2 k=2 -> Ok(L72 3.12 4.12 3.1 4.1) | free 5 9 9 9
replicated 1 k=3 -> Ok(L73 2.19 3.2 4.2) | free 5 8 8 8
server_failed M2 ->  | free 5 8 0 8
== first crash
  view L2 None
  view L3 None
  view L72 epoch 1 [4.12 | 4.1]
  view L73 epoch 1 [2.19 4.2]
  broker.leases.granted=74 broker.leases.released=1 broker.leases.revoked=69 broker.leases.degraded=3 broker.leases.repaired=0 broker.leased.bytes=380928 broker.donated.bytes=540672 broker.reclaimed.bytes=368640 broker.wal.rings=0 broker.pushdown.ops=0 active=4
repair_lease single -> Ok(3.11 => 1.85) | free 4 8 0 8
server_failed M3 ->  | free 4 8 0 0
re_replicate r2 -> Ok(slot 0 from zero add 2.18 1.84, slot 1 from zero add 2.17 1.83) | free 2 6 0 0
re_replicate r3 -> Err(InsufficientMemory { requested: 8192, available: 32768 }) | free 2 6 0 0
repair_lease single -> Ok(4.11 => 1.82) | free 1 6 0 0
repair_lease packed -> Ok( => ) | free 1 6 0 0
repair_lease r2 -> Err(Internal("replicated leases heal via re_replicate")) | free 1 6 0 0
== second crash
  view L2 None
  view L3 None
  view L72 epoch 3 [2.18 1.84 | 2.17 1.83]
  view L73 epoch 2 [2.19]
  broker.leases.granted=74 broker.leases.released=1 broker.leases.revoked=69 broker.leases.degraded=6 broker.leases.repaired=3 broker.leased.bytes=380928 broker.donated.bytes=540672 broker.reclaimed.bytes=368640 broker.wal.rings=0 broker.pushdown.ops=0 active=4
donate M2 -> 3.13 3.14 3.15 3.16 3.17 3.18 3.19 3.20 | free 1 6 8 0
re_replicate r3 -> Ok(1) | free 0 6 7 0
donate M3 -> 4.13 4.14 4.15 4.16 4.17 4.18 4.19 4.20 | free 0 6 7 8
== recovery
  view L2 None
  view L3 None
  view L72 epoch 3 [2.18 1.84 | 2.17 1.83]
  view L73 epoch 3 [2.19 3.20 1.81]
  broker.leases.granted=74 broker.leases.released=1 broker.leases.revoked=69 broker.leases.degraded=6 broker.leases.repaired=4 broker.leased.bytes=380928 broker.donated.bytes=606208 broker.reclaimed.bytes=368640 broker.wal.rings=0 broker.pushdown.ops=0 active=4
pack 1 for 0 -> Ok(L74 2.16) | free 0 5 7 8
release every lease -> [
    L0 Released, L1 Revoked, L2 Revoked, L3 Revoked, L4 Revoked, L5 Revoked, L6 Revoked, L7 Revoked
    L8 Revoked, L9 Revoked, L10 Revoked, L11 Revoked, L12 Revoked, L13 Revoked, L14 Revoked, L15 Revoked
    L16 Revoked, L17 Revoked, L18 Revoked, L19 Revoked, L20 Revoked, L21 Revoked, L22 Revoked, L23 Revoked
    L24 Revoked, L25 Revoked, L26 Revoked, L27 Revoked, L28 Revoked, L29 Revoked, L30 Revoked, L31 Revoked
    L32 Revoked, L33 Revoked, L34 Revoked, L35 Revoked, L36 Revoked, L37 Revoked, L38 Revoked, L39 Revoked
    L40 Revoked, L41 Revoked, L42 Revoked, L43 Revoked, L44 Revoked, L45 Revoked, L46 Revoked, L47 Revoked
    L48 Revoked, L49 Revoked, L50 Revoked, L51 Revoked, L52 Revoked, L53 Revoked, L54 Revoked, L55 Revoked
    L56 Revoked, L57 Revoked, L58 Revoked, L59 Revoked, L60 Revoked, L61 Revoked, L62 Revoked, L63 Revoked
    L64 Revoked, L65 Revoked, L66 Revoked, L67 Revoked, L68 Revoked, L69 Revoked, L70 Ok, L71 Ok
    L72 Ok, L73 Ok, L74 Ok, L75 UnknownLease(LeaseId(75))
  ] | free 8 10 8 8
pack 1 for 0 until refused -> [
    1.81, 1.83, 1.84, 1.86, 1.87, 1.82, 1.85, 1.88
    2.16, 2.19, 2.17, 2.18, 2.20, 2.15, 2.14, 2.13
    2.10, 2.11, 3.20, 3.19, 3.18, 3.17, 3.16, 3.15
    3.14, 3.13, 4.20, 4.19, 4.18, 4.17, 4.16, 4.15
    4.14, 4.13, Err(InsufficientMemory { requested: 4096, available: 0 })
  ] | free 0 0 0 0
== end
  view L2 None
  view L3 None
  view L72 None
  view L73 None
  broker.leases.granted=109 broker.leases.released=6 broker.leases.revoked=69 broker.leases.degraded=6 broker.leases.repaired=4 broker.leased.bytes=524288 broker.donated.bytes=606208 broker.reclaimed.bytes=368640 broker.wal.rings=0 broker.pushdown.ops=0 active=34
"#;
