//! The per-line rules, the banned-API table and the waiver table, applied
//! to the [`Source`] the front end ([`crate::lexer`]) builds once per file.
//!
//! Per-line rules (see DESIGN.md "Determinism rules" for rationale):
//!
//! * `wall-clock`   — no `Instant` / `SystemTime` / `thread::sleep` outside
//!   `crates/sim`; virtual time is the only clock.
//! * `hash-iter`    — no `HashMap` / `HashSet` in non-test code of the
//!   replay-critical crates (`broker`, `net`, `rfile`, `engine`): their
//!   iteration order is per-process random and silently breaks replay.
//! * `no-unwrap`    — no `.unwrap()` / `.expect(…)` in non-test library code
//!   of the fallible remote-memory path (`broker`, `net`, `rfile`).
//! * `seeded-rng`   — no `SimRng::seeded(…)` outside `sim`/`workloads`/
//!   `bench` lib code or tests; randomness must flow from one seed.
//! * `bench-report` — no bare `print!`/`println!`/`eprint!`/`eprintln!` in
//!   `crates/bench/src/bin/`: repro binaries must route output through
//!   `remem_bench::Report` so every figure lands in the machine-readable
//!   JSON pipeline, not just on stdout.
//! * `nondet-parallel` — no thread-identity or host-topology APIs
//!   (`thread::current`, `ThreadId`, `available_parallelism`, `thread_rng`,
//!   `park_timeout`) in non-test `crates/sim` code: the replay contract says
//!   a run is a pure function of its seed, so nothing in the kernel may
//!   branch on which OS thread ran an op or how many cores the host has.
//!   Structured concurrency (`thread::scope`, `Barrier`, channels) is fine.
//! * `quorum-write` — no direct `fabric.write(…)` / `fab.write(…)` in
//!   non-test `crates/rfile` code, nor in engine files whose path mentions
//!   `wal` (the commit log ships to a replicated remote ring): a replicated
//!   MR written through the scalar path updates one copy and silently
//!   diverges the replica set. All data-path writes go through
//!   `Fabric::write_quorum`; the few legitimate single-copy writes (zeroing
//!   a fresh stripe, unreplicated files, replica seeding) carry a waiver
//!   pragma naming why.
//!
//! `wall-clock` and `nondet-parallel` report direct use of an entry in
//! [`banned_api`]'s table; the `det-taint` pass seeds from the same table.
//! `clock-charge`, `panic-path`, `lock-order` and `det-taint` are graph
//! passes ([`crate::passes`]).
//!
//! Any rule can be waived per line with `// audit: allow(<rule>, <reason>)`
//! on the offending line or the line directly above. [`Waivers`] is the one
//! lookup for the rules and the passes alike; unused or unknown pragmas are
//! themselves violations, so the escape hatch can't rot.

use std::fmt;

use crate::lexer::{Pragma, Source, Tok};

pub const RULES: &[&str] = &[
    "wall-clock",
    "hash-iter",
    "no-unwrap",
    "seeded-rng",
    "bench-report",
    "nondet-parallel",
    "quorum-write",
    // interprocedural passes (crate::passes)
    "clock-charge",
    "panic-path",
    "lock-order",
    "det-taint",
];

/// Crates whose data structures feed the replay fingerprint.
const REPLAY_CRITICAL: &[&str] = &["broker", "net", "rfile", "engine"];
/// Crates where a panic tears down a simulated cluster mid-protocol.
const NO_UNWRAP: &[&str] = &["broker", "net", "rfile"];
/// Crates allowed to construct `SimRng` in library code (seed owners).
const RNG_OWNERS: &[&str] = &["sim", "workloads", "bench", "audit"];

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

// ─── banned APIs ─────────────────────────────────────────────────────────

/// Which determinism contract a banned API breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintKind {
    /// Host time: `Instant`, `SystemTime`, `thread::sleep`.
    WallClock,
    /// Thread identity / host topology: `ThreadId`, `thread::current`,
    /// `available_parallelism`, `thread_rng`, `park_timeout`.
    NondetParallel,
}

impl TaintKind {
    pub fn as_str(self) -> &'static str {
        match self {
            TaintKind::WallClock => "wall-clock",
            TaintKind::NondetParallel => "nondet-parallel",
        }
    }
}

/// The banned host-time and thread-identity APIs. A `thread::` entry
/// matches only the path form, so a local fn named `sleep` is not
/// `thread::sleep`.
const BANNED_APIS: &[(&str, TaintKind)] = &[
    ("Instant", TaintKind::WallClock),
    ("SystemTime", TaintKind::WallClock),
    ("thread::sleep", TaintKind::WallClock),
    ("ThreadId", TaintKind::NondetParallel),
    ("thread::current", TaintKind::NondetParallel),
    ("available_parallelism", TaintKind::NondetParallel),
    ("thread_rng", TaintKind::NondetParallel),
    ("park_timeout", TaintKind::NondetParallel),
];

/// The banned API named at token `i`, if any.
pub(crate) fn banned_api(toks: &[Tok], i: usize) -> Option<(TaintKind, &'static str)> {
    let t = toks[i].text.as_str();
    BANNED_APIS.iter().find_map(|&(what, kind)| {
        let hit = match what.strip_prefix("thread::") {
            Some(name) => t == name && i >= 2 && toks[i - 1].is("::") && toks[i - 2].is("thread"),
            None => t == what,
        };
        hit.then_some((kind, what))
    })
}

// ─── waivers ─────────────────────────────────────────────────────────────

/// The workspace's waiver table: each file's pragmas (indexed like the
/// sources, and so like [`crate::callgraph::Workspace::files`]) with a
/// used flag per pragma. Hygiene runs once, after every consumer.
pub struct Waivers {
    files: Vec<(String, Vec<(Pragma, bool)>)>,
}

impl Waivers {
    pub(crate) fn new(sources: &[Source]) -> Waivers {
        let files = sources
            .iter()
            .map(|s| {
                let table = s.pragmas.iter().map(|p| (p.clone(), false)).collect();
                (s.path.clone(), table)
            })
            .collect();
        Waivers { files }
    }

    /// The pragma waiving `rule` at `line` of file `fi`: on the same line or
    /// the line directly above.
    fn find(&self, fi: usize, rule: &str, line: usize) -> Option<usize> {
        self.files[fi]
            .1
            .iter()
            .position(|(p, _)| p.rule == rule && (p.line == line || p.line + 1 == line))
    }

    /// Is `rule` waived at `line`? Marks the pragma used.
    pub(crate) fn check(&mut self, fi: usize, rule: &str, line: usize) -> bool {
        let k = self.find(fi, rule, line);
        if let Some(k) = k {
            self.files[fi].1[k].1 = true;
        }
        k.is_some()
    }

    /// Like [`Waivers::check`] but without consuming the pragma.
    pub fn peek(&self, fi: usize, rule: &str, line: usize) -> bool {
        self.find(fi, rule, line).is_some()
    }

    /// Pragmas that name a known rule, used or not: what the pragma budget
    /// counts.
    pub fn known_pragmas(&self) -> usize {
        self.files
            .iter()
            .flat_map(|(_, table)| table)
            .filter(|(p, _)| RULES.contains(&p.rule.as_str()))
            .count()
    }

    /// Pragma hygiene: unknown rule names, unused waivers, and missing
    /// reasons are violations.
    pub(crate) fn hygiene(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for (path, table) in &self.files {
            for (p, used) in table {
                let msg = if !RULES.contains(&p.rule.as_str()) {
                    format!("pragma names unknown rule `{}`", p.rule)
                } else if !used {
                    format!("unused pragma for `{}`: nothing to waive here", p.rule)
                } else if p.reason.is_empty() {
                    format!("pragma for `{}` must carry a reason", p.rule)
                } else {
                    continue;
                };
                out.push(Violation {
                    file: path.clone(),
                    line: p.line,
                    rule: "pragma",
                    msg,
                });
            }
        }
        out
    }
}

// ─── per-line rules ──────────────────────────────────────────────────────

/// A per-line finding before waiver lookup: rule, line, message.
type Hit = (&'static str, usize, String);

/// Run the per-line rules on file `fi`, consuming the waivers they hit.
pub(crate) fn lint_file(src: &Source, fi: usize, waivers: &mut Waivers) -> Vec<Violation> {
    let rules: [fn(&Source, &mut Vec<Hit>); 6] = [
        rule_banned_api,
        rule_hash_iter,
        rule_no_unwrap,
        rule_seeded_rng,
        rule_bench_report,
        rule_quorum_write,
    ];
    let mut hits = Vec::new();
    for rule in rules {
        rule(src, &mut hits);
    }
    hits.into_iter()
        .filter(|(rule, line, _)| !waivers.check(fi, rule, *line))
        .map(|(rule, line, msg)| Violation {
            file: src.path.clone(),
            line,
            rule,
            msg,
        })
        .collect()
}

/// `wall-clock`: host time anywhere outside `crates/sim`, test code
/// included. `nondet-parallel`: thread identity or host topology in
/// non-test `crates/sim` code — every report and golden trace relies on the
/// same seed giving the same bytes on any host. Structured concurrency
/// (`thread::scope`, `Barrier`, mutexes, channels) is not in the table.
fn rule_banned_api(src: &Source, hits: &mut Vec<Hit>) {
    let sim = src.krate.as_deref() == Some("sim");
    for i in 0..src.toks.len() {
        let line = src.toks[i].line;
        match banned_api(&src.toks, i) {
            Some((TaintKind::WallClock, what)) if !sim => hits.push((
                "wall-clock",
                line,
                format!(
                    "wall-clock API `{what}` outside crates/sim; use the virtual Clock/SimTime"
                ),
            )),
            Some((TaintKind::NondetParallel, what)) if sim && !src.in_test(i) => hits.push((
                "nondet-parallel",
                line,
                format!(
                    "`{what}` in crates/sim: a run must replay byte for byte from its seed, \
                     so the kernel must not observe thread identity or host topology"
                ),
            )),
            _ => {}
        }
    }
}

fn rule_hash_iter(src: &Source, hits: &mut Vec<Hit>) {
    let Some(k) = src.krate.as_deref() else {
        return;
    };
    if !REPLAY_CRITICAL.contains(&k) {
        return;
    }
    // lines whose first token is `use` (possibly after `pub`) only import
    let toks = &src.toks;
    let mut use_lines = Vec::new();
    let mut last_line = 0usize;
    for (i, t) in toks.iter().enumerate() {
        if t.line != last_line {
            last_line = t.line;
            let second = toks.get(i + 1).map(|t| t.text.as_str());
            if t.is("use") || (t.is("pub") && second == Some("use")) {
                use_lines.push(t.line);
            }
        }
    }
    for (i, t) in toks.iter().enumerate() {
        if (t.is("HashMap") || t.is("HashSet")) && !src.in_test(i) && !use_lines.contains(&t.line) {
            hits.push((
                "hash-iter",
                t.line,
                format!(
                    "`{}` in replay-critical crate `{k}`: iteration order is per-process \
                     random; use BTreeMap/BTreeSet or sorted iteration",
                    t.text
                ),
            ));
        }
    }
}

fn rule_no_unwrap(src: &Source, hits: &mut Vec<Hit>) {
    let Some(k) = src.krate.as_deref() else {
        return;
    };
    if !NO_UNWRAP.contains(&k) {
        return;
    }
    let toks = &src.toks;
    for (i, t) in toks.iter().enumerate() {
        if (t.is("unwrap") || t.is("expect"))
            && i >= 1
            && toks[i - 1].is(".")
            && toks.get(i + 1).map(|n| n.is("(")) == Some(true)
            && !src.in_test(i)
        {
            hits.push((
                "no-unwrap",
                t.line,
                format!(
                    "`.{}()` in fallible library code of `{k}`: return a typed error",
                    t.text
                ),
            ));
        }
    }
}

fn rule_seeded_rng(src: &Source, hits: &mut Vec<Hit>) {
    let Some(k) = src.krate.as_deref() else {
        return;
    };
    if RNG_OWNERS.contains(&k) {
        return;
    }
    let toks = &src.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.is("SimRng")
            && toks.get(i + 1).map(|n| n.is("::")) == Some(true)
            && toks.get(i + 2).map(|n| n.is("seeded")) == Some(true)
            && !src.in_test(i)
        {
            hits.push((
                "seeded-rng",
                t.line,
                format!(
                    "`SimRng::seeded` constructed in `{k}` library code: derive randomness \
                     from the workload/injector seed instead of minting a new stream"
                ),
            ));
        }
    }
}

/// For `bench-report`: repro binaries write their figures through the Report
/// harness, never straight to stdout — a bare print bypasses the JSON
/// pipeline and the CI regression gate silently loses that data.
fn rule_bench_report(src: &Source, hits: &mut Vec<Hit>) {
    if !src
        .path
        .replace('\\', "/")
        .contains("crates/bench/src/bin/")
    {
        return;
    }
    let toks = &src.toks;
    for (i, t) in toks.iter().enumerate() {
        if matches!(t.text.as_str(), "print" | "println" | "eprint" | "eprintln")
            && toks.get(i + 1).map(|n| n.is("!")) == Some(true)
            && !src.in_test(i)
        {
            hits.push((
                "bench-report",
                t.line,
                format!(
                    "bare `{}!` in a repro binary: route output through \
                     `remem_bench::Report` (note/table/series) so it reaches the JSON pipeline",
                    t.text
                ),
            ));
        }
    }
}

/// For `quorum-write`: the remote file is the only layer that knows whether
/// an MR is replicated, so it must never bypass its own quorum routing. A
/// direct `fabric.write(…)` against a replicated MR updates exactly one
/// copy — reads that later fail over to a peer see stale bytes, and no
/// audit of the broker's ledger can catch it. Flags `.write(` whose
/// receiver ident is `fabric` or `fab` in non-test `crates/rfile` code,
/// and — since the WAL ships commit groups into a replicated ring — in any
/// engine file whose path mentions `wal`: a scalar fabric write from the
/// log path is a committed transaction with one copy, exactly the loss
/// the ring exists to prevent. Intentional single-copy writes carry a
/// waiver pragma.
fn rule_quorum_write(src: &Source, hits: &mut Vec<Hit>) {
    let krate = src.krate.as_deref();
    let wal_path = krate == Some("engine") && src.path.contains("wal");
    if krate != Some("rfile") && !wal_path {
        return;
    }
    let msg = if wal_path {
        "direct `fabric.write` on the WAL path: commit groups must reach the \
         replicated ring through its quorum append, never a scalar write; \
         waive only intentional single-copy writes"
    } else {
        "direct `fabric.write` in rfile library code: replicated MRs must go \
         through the quorum path (`write_quorum`); waive only intentional \
         single-copy writes"
    };
    let toks = &src.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.is("write")
            && i >= 2
            && toks[i - 1].is(".")
            && (toks[i - 2].is("fabric") || toks[i - 2].is("fab"))
            && toks.get(i + 1).map(|n| n.is("(")) == Some(true)
            && !src.in_test(i)
        {
            hits.push(("quorum-write", t.line, msg.to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::lexer::Source;

    /// The rules that fire on one file, run through the whole front end:
    /// per-line rules, the four passes and pragma hygiene.
    fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
        let v = crate::analyze(&[Source::new(path, src)]).violations;
        v.into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn wall_clock_flagged_outside_sim_only() {
        let src = "fn f() { let t = Instant::now(); thread::sleep(d); }\n";
        let got = rules_of("crates/net/src/a.rs", src);
        assert_eq!(got, vec!["wall-clock", "wall-clock"]);
        assert!(
            rules_of("crates/sim/src/a.rs", src).is_empty(),
            "sim owns the clock"
        );
        // a local fn named sleep is not thread::sleep
        assert!(rules_of("crates/net/src/a.rs", "fn g() { sleep(d); }\n").is_empty());
    }

    #[test]
    fn hash_iter_flagged_in_replay_critical_non_test_code() {
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        assert_eq!(
            rules_of("crates/broker/src/a.rs", src),
            vec!["hash-iter", "hash-iter"]
        );
        assert!(
            rules_of("crates/workloads/src/a.rs", src).is_empty(),
            "not replay-critical"
        );
        // `use` lines and test code are exempt
        assert!(rules_of("crates/broker/src/a.rs", "use std::collections::HashMap;\n").is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n  fn f() { let m = HashMap::new(); }\n}\n";
        assert!(rules_of("crates/broker/src/a.rs", test_src).is_empty());
        assert!(
            rules_of("crates/broker/tests/a.rs", src).is_empty(),
            "test files exempt"
        );
    }

    #[test]
    fn no_unwrap_flagged_on_fallible_path_crates() {
        let src = "fn f() { x.unwrap(); y.expect(\"msg\"); }\n";
        assert_eq!(
            rules_of("crates/rfile/src/a.rs", src),
            vec!["no-unwrap", "no-unwrap"]
        );
        assert!(
            rules_of("crates/engine/src/a.rs", src).is_empty(),
            "engine not in scope"
        );
        let test_src = "#[test]\nfn t() { x.unwrap(); }\n";
        assert!(rules_of("crates/rfile/src/a.rs", test_src).is_empty());
        // `unwrap` as a field/name, not a call, is fine
        assert!(rules_of("crates/rfile/src/a.rs", "fn f() { let unwrap = 1; }\n").is_empty());
    }

    #[test]
    fn seeded_rng_flagged_outside_seed_owners() {
        let src = "fn f() { let r = SimRng::seeded(7); }\n";
        assert_eq!(rules_of("crates/net/src/a.rs", src), vec!["seeded-rng"]);
        assert!(
            rules_of("crates/workloads/src/a.rs", src).is_empty(),
            "seed owner"
        );
        assert!(rules_of(
            "crates/net/src/a.rs",
            "#[test]\nfn t() { SimRng::seeded(7); }\n"
        )
        .is_empty());
    }

    #[test]
    fn pragmas_waive_and_hygiene_is_enforced() {
        let known = |path: &str, src: &str| {
            crate::analyze(&[Source::new(path, src)])
                .waivers
                .known_pragmas()
        };
        // a pragma on the line above waives exactly that rule
        let waived = "// audit: allow(hash-iter, order never escapes)\n\
                      fn f() { let m = HashMap::new(); }\n";
        assert!(rules_of("crates/broker/src/a.rs", waived).is_empty());
        // unknown rule name
        let unknown = "// audit: allow(no-such-rule, whatever)\nfn f() {}\n";
        assert_eq!(rules_of("crates/broker/src/a.rs", unknown), vec!["pragma"]);
        // unused waiver
        let unused = "// audit: allow(hash-iter, nothing here)\nfn f() {}\n";
        assert_eq!(rules_of("crates/broker/src/a.rs", unused), vec!["pragma"]);
        // a used waiver without a reason still fails hygiene
        let bare = "// audit: allow(hash-iter)\nfn f() { let m = HashMap::new(); }\n";
        assert_eq!(rules_of("crates/broker/src/a.rs", bare), vec!["pragma"]);
        // the budget counts known-rule pragmas, used or not
        assert_eq!(known("crates/broker/src/a.rs", waived), 1);
        assert_eq!(known("crates/broker/src/a.rs", unused), 1);
        assert_eq!(known("crates/broker/src/a.rs", unknown), 0);
    }

    #[test]
    fn bench_report_flags_bare_prints_in_repro_binaries() {
        let src = "fn main() { println!(\"x\"); eprint!(\"y\"); }\n";
        assert_eq!(
            rules_of("crates/bench/src/bin/repro_fig1.rs", src),
            vec!["bench-report", "bench-report"]
        );
        // the harness library itself may print
        assert!(rules_of("crates/bench/src/report.rs", src).is_empty());
        assert!(rules_of("crates/engine/src/a.rs", src).is_empty());
        // waivable like every other rule
        let waived = "fn main() {\n// audit: allow(bench-report, debug aid)\nprintln!(\"x\");\n}\n";
        assert!(rules_of("crates/bench/src/bin/repro_fig1.rs", waived).is_empty());
        // a fn named println (no `!`) is not a macro call
        assert!(rules_of(
            "crates/bench/src/bin/repro_fig1.rs",
            "fn main() { println(); }\n"
        )
        .is_empty());
    }

    #[test]
    fn nondet_parallel_flags_thread_identity_in_sim() {
        let src = "fn f() { let id = thread::current().id(); }\n";
        assert_eq!(
            rules_of("crates/sim/src/a.rs", src),
            vec!["nondet-parallel"]
        );
        let topo = "fn f() -> usize { std::thread::available_parallelism().unwrap().get() }\n";
        assert_eq!(
            rules_of("crates/sim/src/a.rs", topo),
            vec!["nondet-parallel"]
        );
        // a signature, not a body: still direct use
        assert_eq!(
            rules_of("crates/sim/src/a.rs", "fn f(x: ThreadId) {}\n"),
            vec!["nondet-parallel"]
        );
        // structured concurrency is the intended tool, never flagged
        let scoped =
            "fn f() { thread::scope(|s| { s.spawn(|| {}); }); let b = Barrier::new(2); }\n";
        assert!(rules_of("crates/sim/src/a.rs", scoped).is_empty());
        // other crates and sim tests are out of scope
        assert!(rules_of("crates/net/src/a.rs", src).is_empty());
        let test_src = "#[test]\nfn t() { thread::current(); }\n";
        assert!(rules_of("crates/sim/src/a.rs", test_src).is_empty());
        // waivable like every other rule
        let waived = "// audit: allow(nondet-parallel, diagnostics only)\n\
                      fn f() { let id = thread::current(); }\n";
        assert!(rules_of("crates/sim/src/a.rs", waived).is_empty());
    }

    #[test]
    fn quorum_write_flags_direct_fabric_writes_in_rfile() {
        let src = "fn f() { self.fabric.write(clock, proto, local, mr, off, data); }\n";
        assert_eq!(rules_of("crates/rfile/src/a.rs", src), vec!["quorum-write"]);
        // the short binding used inside closures is caught too
        let short = "fn f() { fab.write(clock, proto, local, mr, off, data); }\n";
        assert_eq!(
            rules_of("crates/rfile/src/a.rs", short),
            vec!["quorum-write"]
        );
        // the quorum path itself and reads are fine
        let ok = "fn f() { fabric.write_quorum(clock, proto, local, &t, d); \
                  fabric.read(clock, proto, local, mr, off, buf); }\n";
        assert!(rules_of("crates/rfile/src/a.rs", ok).is_empty());
        // other writers (net itself, the broker's migration copies) are out
        // of scope — only rfile knows replication
        assert!(rules_of("crates/net/src/a.rs", src).is_empty());
        // tests may poke single copies to set up divergence scenarios
        let test_src = "#[test]\nfn t() { fabric.write(c, p, l, m, 0, d); }\n";
        assert!(rules_of("crates/rfile/src/a.rs", test_src).is_empty());
        // waivable like every other rule
        let waived = "fn f() {\n// audit: allow(quorum-write, zeroing a fresh stripe)\n\
                      fabric.write(c, p, l, m, 0, d);\n}\n";
        assert!(rules_of("crates/rfile/src/a.rs", waived).is_empty());
    }

    #[test]
    fn quorum_write_covers_the_engine_wal_path() {
        // a scalar fabric write from the WAL library path is a committed
        // transaction with one copy — flagged
        let src = "fn f() { self.fabric.write(clock, proto, local, mr, off, data); }\n";
        assert_eq!(
            rules_of("crates/engine/src/wal.rs", src),
            vec!["quorum-write"]
        );
        // the rest of the engine stays out of scope (it owns no fabric)
        assert!(rules_of("crates/engine/src/db.rs", src).is_empty());
        // WAL-path tests and waivers behave as in rfile
        let test_src = "#[test]\nfn t() { fabric.write(c, p, l, m, 0, d); }\n";
        assert!(rules_of("crates/engine/src/wal.rs", test_src).is_empty());
        let waived = "fn f() {\n// audit: allow(quorum-write, archive seeding is single-copy)\n\
                      fab.write(c, p, l, m, 0, d);\n}\n";
        assert!(rules_of("crates/engine/src/wal.rs", waived).is_empty());
    }

    #[test]
    fn crate_scoping_parses_paths() {
        let src = |path| Source::new(path, "");
        assert_eq!(
            src("crates/broker/src/broker.rs").krate.as_deref(),
            Some("broker")
        );
        assert_eq!(src("shims/parking_lot/src/lib.rs").krate, None);
        assert!(src("crates/net/tests/fabric.rs").test_file);
        assert!(src("crates/net/benches/lat.rs").test_file);
        assert!(!src("crates/net/src/fabric.rs").test_file);
    }
}
