//! The four interprocedural passes over the resolved [`Workspace`]:
//!
//! 1. **clock-charge soundness** — every non-test fn in `net` / `storage` /
//!    `rfile` that takes `clock: &mut Clock` must *reach* a charging call
//!    (`clock.<m>(…)`, `m != now`) through bare-`clock` forwarding edges.
//!    This pass is the only `clock-charge` check: a fn that neither charges
//!    nor forwards is reported at its own `fn` line, and one that forwards
//!    into a chain that dead-ends is reported with the concrete free path.
//! 2. **panic reachability** — `unwrap` / `expect` / `panic!`-family sites
//!    transitively reachable from the sim kernel loop (`driver.rs`) are
//!    hard violations with a shortest-call-path witness;
//!    sites reachable only from repro binaries are reported as an advisory
//!    summary (query them with `paths --to panic --from bins`).
//! 3. **lock-order analysis** — a lock-order graph is built from nested
//!    acquisitions (within a fn's over-approximated held spans, and through
//!    call edges into callees that acquire transitively); any cycle,
//!    including re-acquiring a held `Mutex`, is a violation. `try_lock`
//!    never blocks and therefore never forms the *second* side of an edge.
//! 4. **determinism taint** — wall-clock / nondet-parallel taint is
//!    propagated backwards through call edges; a call *from* a restricted
//!    crate *into* a tainted helper in a permitted crate is flagged at the
//!    call site (the per-line rules already catch direct use). A
//!    `// audit: allow(det-taint, …)` pragma on a helper's `fn` line makes
//!    it a deliberate taint barrier.
//!
//! All passes look waivers up in the one [`Waivers`] table the per-line
//! rules use, so pragma hygiene (unknown / unused / reasonless) runs once,
//! after every pass has had the chance to consume a pragma.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{FnId, Workspace};
use crate::rules::{TaintKind, Violation, Waivers};

/// Crates whose clock-taking entry points must charge virtual time.
const CLOCK_CHARGED: &[&str] = &["net", "storage", "rfile"];

/// Advisory (non-failing) facts the passes surface for the summary line.
#[derive(Debug, Default)]
pub struct Advisory {
    /// Panic sites reachable from repro-binary `main`s (not the kernel).
    pub bin_panic_sites: usize,
    /// Edges in the lock-order graph after waivers.
    pub lock_edges: usize,
    /// Locks that participate in the graph.
    pub lock_nodes: usize,
}

/// Run all four passes.
pub(crate) fn run_passes(ws: &Workspace, w: &mut Waivers) -> (Vec<Violation>, Advisory) {
    let mut out = Vec::new();
    let mut adv = Advisory::default();
    pass_clock_charge(ws, w, &mut out);
    pass_panic(ws, w, &mut out, &mut adv);
    pass_lock_order(ws, w, &mut out, &mut adv);
    pass_det_taint(ws, w, &mut out);
    (out, adv)
}

// ─── pass 1: clock-charge soundness ──────────────────────────────────────

/// Fixpoint of "a charging call is reachable from here via bare-clock
/// forwarding". A forward into a call the graph cannot resolve (std,
/// closures, shims) gets the benefit of the doubt.
pub fn charged_set(ws: &Workspace) -> Vec<bool> {
    let n = ws.fns.len();
    let mut charged = vec![false; n];
    for (id, c) in charged.iter_mut().enumerate() {
        let f = ws.item(id);
        if f.direct_charge {
            *c = true;
            continue;
        }
        // forwards clock at a call site that resolved to no workspace fn
        let resolved_toks: BTreeSet<usize> = ws.edges[id].iter().map(|e| e.tok).collect();
        if f.calls
            .iter()
            .any(|s| s.forwards_clock && !resolved_toks.contains(&s.tok))
        {
            *c = true;
        }
    }
    loop {
        let mut changed = false;
        for id in 0..n {
            if charged[id] {
                continue;
            }
            let reaches = ws.edges[id]
                .iter()
                .any(|e| e.forwards_clock && ws.item(e.to).takes_clock && charged[e.to]);
            if reaches {
                charged[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    charged
}

fn pass_clock_charge(ws: &Workspace, w: &mut Waivers, out: &mut Vec<Violation>) {
    let charged = charged_set(ws);
    for id in 0..ws.fns.len() {
        let f = ws.item(id);
        let file = ws.file(id);
        let krate = match &file.krate {
            Some(k) => k.as_str(),
            None => continue,
        };
        if !CLOCK_CHARGED.contains(&krate) || f.is_test || !f.takes_clock || charged[id] {
            continue;
        }
        if !f.has_body {
            continue; // trait signature — its impls are the checked ops
        }
        if w.check(ws.fns[id].0, "clock-charge", f.line) {
            continue;
        }
        // witness: follow uncharged forwards until they dead-end
        let mut chain = vec![id];
        let mut cur = id;
        loop {
            let next = ws.edges[cur]
                .iter()
                .find(|e| {
                    e.forwards_clock
                        && ws.item(e.to).takes_clock
                        && !charged[e.to]
                        && !chain.contains(&e.to)
                })
                .map(|e| e.to);
            match next {
                Some(nid) => {
                    chain.push(nid);
                    cur = nid;
                }
                None => break,
            }
        }
        let path: Vec<String> = chain
            .iter()
            .map(|&c| format!("{} ({})", ws.qual_name(c), ws.locus(c)))
            .collect();
        out.push(Violation {
            file: file.path.clone(),
            line: f.line,
            rule: "clock-charge",
            msg: format!(
                "fn `{}` takes `clock: &mut Clock` but no charging call is reachable \
                 through the call graph; charge the op or rename the param `_clock` to \
                 mark it free; free path: {}",
                f.name,
                path.join(" -> ")
            ),
        });
    }
}

// ─── pass 2: panic reachability ──────────────────────────────────────────

/// Kernel roots: every non-test fn in the simulation driver.
pub fn kernel_roots(ws: &Workspace) -> Vec<FnId> {
    ws.fns_in_file("sim/src/driver.rs")
}

/// Binary roots: `main` of every `src/bin/*.rs`.
pub fn bin_roots(ws: &Workspace) -> Vec<FnId> {
    (0..ws.fns.len())
        .filter(|&id| {
            let f = ws.item(id);
            f.name == "main" && !f.is_test && ws.file(id).path.contains("/src/bin/")
        })
        .collect()
}

fn pass_panic(ws: &Workspace, w: &mut Waivers, out: &mut Vec<Violation>, adv: &mut Advisory) {
    let kroots = kernel_roots(ws);
    let reach = ws.reachable(&kroots);
    for &id in &reach {
        let f = ws.item(id);
        if f.is_test || f.panics.is_empty() {
            continue;
        }
        let fi = ws.fns[id].0;
        for p in &f.panics {
            if w.check(fi, "panic-path", p.line) || w.check(fi, "panic-path", f.line) {
                continue;
            }
            let path = ws
                .shortest_path(&kroots, |x| x == id)
                .unwrap_or_else(|| vec![id]);
            let chain: Vec<String> = path.iter().map(|&c| ws.qual_name(c)).collect();
            out.push(Violation {
                file: ws.file(id).path.clone(),
                line: p.line,
                rule: "panic-path",
                msg: format!(
                    "`{}` reachable from the sim kernel: {} (`{}` at {}:{})",
                    p.what,
                    chain.join(" -> "),
                    p.what,
                    ws.file(id).path,
                    p.line
                ),
            });
        }
    }
    // advisory tier: repro binaries
    let broots = bin_roots(ws);
    let breach = ws.reachable(&broots);
    adv.bin_panic_sites = breach
        .iter()
        .filter(|id| !reach.contains(id))
        .map(|&id| ws.item(id).panics.len())
        .sum();
}

// ─── pass 3: lock-order analysis ─────────────────────────────────────────

#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: usize,
    pub to: usize,
    pub file: String,
    pub line: usize,
    pub why: String,
}

/// Build the lock-order graph: `A → B` when `B` may be *blocking-acquired*
/// while `A` is held (nested in the same fn, or via a call made inside
/// `A`'s held span into a fn that transitively acquires `B`). Waived edges
/// (pragma at the nested site / call site) are excluded.
pub(crate) fn lock_order_edges(ws: &Workspace, w: &mut Waivers) -> Vec<LockEdge> {
    let n = ws.fns.len();
    // transitive blocking acquisitions per fn
    let mut acq_all: Vec<BTreeSet<usize>> = (0..n)
        .map(|id| {
            ws.fn_locks[id]
                .iter()
                .filter(|a| a.op != "try_lock" && !ws.item(id).is_test)
                .map(|a| a.lock)
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            if ws.item(id).is_test {
                continue;
            }
            let mut add: Vec<usize> = Vec::new();
            for e in &ws.edges[id] {
                if ws.item(e.to).is_test {
                    continue;
                }
                for &l in &acq_all[e.to] {
                    if !acq_all[id].contains(&l) {
                        add.push(l);
                    }
                }
            }
            if !add.is_empty() {
                acq_all[id].extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut edges: Vec<LockEdge> = Vec::new();
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for id in 0..n {
        let f = ws.item(id);
        if f.is_test {
            continue;
        }
        let fi = ws.fns[id].0;
        let file = ws.file(id).path.clone();
        for a in &ws.fn_locks[id] {
            // direct nesting: a blocking acquisition inside a's held span
            for b in &ws.fn_locks[id] {
                if b.tok <= a.tok || b.tok >= a.held_to || b.op == "try_lock" {
                    continue;
                }
                if w.check(fi, "lock-order", b.line) {
                    continue;
                }
                if seen.insert((a.lock, b.lock)) {
                    edges.push(LockEdge {
                        from: a.lock,
                        to: b.lock,
                        file: file.clone(),
                        line: b.line,
                        why: format!("nested in `{}`", ws.qual_name(id)),
                    });
                }
            }
            // via calls inside the held span
            for e in &ws.edges[id] {
                if e.tok <= a.tok || e.tok >= a.held_to || ws.item(e.to).is_test {
                    continue;
                }
                for &l in &acq_all[e.to] {
                    if w.check(fi, "lock-order", e.line) {
                        continue;
                    }
                    if seen.insert((a.lock, l)) {
                        edges.push(LockEdge {
                            from: a.lock,
                            to: l,
                            file: file.clone(),
                            line: e.line,
                            why: format!(
                                "`{}` calls `{}` while holding",
                                ws.qual_name(id),
                                ws.qual_name(e.to)
                            ),
                        });
                    }
                }
            }
        }
    }
    edges
}

fn pass_lock_order(ws: &Workspace, w: &mut Waivers, out: &mut Vec<Violation>, adv: &mut Advisory) {
    let edges = lock_order_edges(ws, w);
    adv.lock_edges = edges.len();
    adv.lock_nodes = {
        let mut s = BTreeSet::new();
        for e in &edges {
            s.insert(e.from);
            s.insert(e.to);
        }
        s.len()
    };
    // adjacency
    let mut adj: BTreeMap<usize, Vec<&LockEdge>> = BTreeMap::new();
    for e in &edges {
        adj.entry(e.from).or_default().push(e);
    }
    // self-deadlock: re-acquiring a held lock
    for e in &edges {
        if e.from == e.to {
            out.push(Violation {
                file: e.file.clone(),
                line: e.line,
                rule: "lock-order",
                msg: format!(
                    "lock `{}` may be re-acquired while already held ({}) — self-deadlock",
                    ws.locks[e.from].display(),
                    e.why
                ),
            });
        }
    }
    // cycles of length >= 2: DFS with a colour map, report each cycle once
    let mut colour: BTreeMap<usize, u8> = BTreeMap::new(); // 1 = on stack, 2 = done
    let mut reported: BTreeSet<Vec<usize>> = BTreeSet::new();
    let nodes: BTreeSet<usize> = edges.iter().flat_map(|e| [e.from, e.to]).collect();
    for &start in &nodes {
        if colour.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)]; // (node, next edge idx)
        let mut path: Vec<usize> = Vec::new();
        colour.insert(start, 1);
        path.push(start);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let outs = adj.get(&node).map(|v| v.as_slice()).unwrap_or(&[]);
            if *next < outs.len() {
                let e = outs[*next];
                *next += 1;
                if e.from == e.to {
                    continue; // handled above
                }
                match colour.get(&e.to).copied().unwrap_or(0) {
                    0 => {
                        colour.insert(e.to, 1);
                        path.push(e.to);
                        stack.push((e.to, 0));
                    }
                    1 => {
                        // back edge → cycle: path from e.to to node, then e
                        let pos = path.iter().position(|&x| x == e.to).unwrap_or(0);
                        let mut cyc: Vec<usize> = path[pos..].to_vec();
                        // canonical rotation for dedup
                        let min_pos = cyc
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, v)| **v)
                            .map(|(i, _)| i)
                            .unwrap_or(0);
                        cyc.rotate_left(min_pos);
                        if reported.insert(cyc.clone()) {
                            let desc = describe_cycle(ws, &edges, &cyc);
                            out.push(Violation {
                                file: e.file.clone(),
                                line: e.line,
                                rule: "lock-order",
                                msg: format!("lock-order cycle: {desc}"),
                            });
                        }
                    }
                    _ => {}
                }
            } else {
                colour.insert(node, 2);
                stack.pop();
                path.pop();
            }
        }
    }
}

fn describe_cycle(ws: &Workspace, edges: &[LockEdge], cyc: &[usize]) -> String {
    let mut parts = Vec::new();
    for i in 0..cyc.len() {
        let from = cyc[i];
        let to = cyc[(i + 1) % cyc.len()];
        let prov = edges
            .iter()
            .find(|e| e.from == from && e.to == to)
            .map(|e| format!(" ({}:{}, {})", e.file, e.line, e.why))
            .unwrap_or_default();
        parts.push(format!("{}{}", ws.locks[from].display(), prov));
    }
    let first = ws.locks[cyc[0]].display();
    format!("{} -> {}", parts.join(" -> "), first)
}

// ─── pass 4: determinism taint ───────────────────────────────────────────

fn pass_det_taint(ws: &Workspace, w: &mut Waivers, out: &mut Vec<Violation>) {
    for kind in [TaintKind::WallClock, TaintKind::NondetParallel] {
        let n = ws.fns.len();
        // a det-taint pragma on the fn line makes the fn a taint barrier
        let barrier: Vec<bool> = (0..n)
            .map(|id| {
                let fi = ws.fns[id].0;
                w.peek(fi, "det-taint", ws.item(id).line)
            })
            .collect();
        let direct: Vec<bool> = (0..n)
            .map(|id| {
                let f = ws.item(id);
                !f.is_test && f.taints.iter().any(|t| t.kind == kind)
            })
            .collect();
        let mut tainted: Vec<bool> = (0..n).map(|id| direct[id] && !barrier[id]).collect();
        loop {
            let mut changed = false;
            for id in 0..n {
                if tainted[id] || barrier[id] || ws.item(id).is_test {
                    continue;
                }
                if ws.edges[id].iter().any(|e| tainted[e.to]) {
                    tainted[id] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // consume barrier pragmas that actually suppressed taint
        for id in 0..n {
            if !barrier[id] {
                continue;
            }
            let would_taint = direct[id] || ws.edges[id].iter().any(|e| tainted[e.to]);
            if would_taint {
                let fi = ws.fns[id].0;
                w.check(fi, "det-taint", ws.item(id).line);
            }
        }
        // frontier: restricted caller → tainted fn outside the restriction
        let restricted = |id: FnId| -> bool {
            let k = ws.file(id).krate.as_deref();
            match kind {
                TaintKind::WallClock => k.is_some() && k != Some("sim"),
                TaintKind::NondetParallel => k == Some("sim"),
            }
        };
        for id in 0..n {
            let f = ws.item(id);
            if f.is_test || !restricted(id) || direct[id] {
                continue; // direct use is the per-line rules' finding
            }
            let fi = ws.fns[id].0;
            let mut flagged_lines: BTreeSet<usize> = BTreeSet::new();
            for e in &ws.edges[id] {
                if !tainted[e.to] || restricted(e.to) {
                    continue;
                }
                if !flagged_lines.insert(e.line) {
                    continue;
                }
                if w.check(fi, "det-taint", e.line) {
                    continue;
                }
                // witness: callee chain to a direct taint site
                let chain = ws
                    .shortest_path(&[e.to], |x| direct[x])
                    .unwrap_or_else(|| vec![e.to]);
                let site = chain
                    .last()
                    .and_then(|&x| {
                        ws.item(x)
                            .taints
                            .iter()
                            .find(|t| t.kind == kind)
                            .map(|t| format!("`{}` at {}:{}", t.what, ws.file(x).path, t.line))
                    })
                    .unwrap_or_default();
                let names: Vec<String> = chain.iter().map(|&c| ws.qual_name(c)).collect();
                out.push(Violation {
                    file: ws.file(id).path.clone(),
                    line: e.line,
                    rule: "det-taint",
                    msg: format!(
                        "call into {}-tainted helper: {} -> {} ({})",
                        kind.as_str(),
                        ws.qual_name(id),
                        names.join(" -> "),
                        site
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Source;

    /// The whole front end — per-line rules, the passes, pragma hygiene —
    /// over in-memory files.
    fn analyze(files: &[(&str, &str)]) -> crate::Analysis {
        let sources: Vec<Source> = files.iter().map(|(p, s)| Source::new(p, s)).collect();
        crate::analyze(&sources)
    }

    fn run(files: &[(&str, &str)]) -> Vec<Violation> {
        analyze(files).violations
    }

    fn rules_of(files: &[(&str, &str)]) -> Vec<&'static str> {
        run(files).into_iter().map(|v| v.rule).collect()
    }

    // pass 1 ──────────────────────────────────────────────────────────────

    #[test]
    fn clock_charge_requires_charge_or_forward() {
        let rules_of = |path, src| rules_of(&[(path, src)]);
        // neither charges nor forwards → violation
        let bad = "fn read(&self, clock: &mut Clock, off: u64) -> u64 { off + 1 }\n";
        assert_eq!(
            rules_of("crates/storage/src/a.rs", bad),
            vec!["clock-charge"]
        );
        // charging via a method is fine
        let charge = "fn read(&self, clock: &mut Clock) { clock.advance(d); }\n";
        assert!(rules_of("crates/storage/src/a.rs", charge).is_empty());
        // forwarding to a callee is fine
        let fwd = "fn read(&self, clock: &mut Clock) { self.inner.read(clock, 0) }\n";
        assert!(rules_of("crates/storage/src/a.rs", fwd).is_empty());
        // `now()` alone does NOT count as charging
        let peek = "fn read(&self, clock: &mut Clock) -> SimTime { clock.now() }\n";
        assert_eq!(
            rules_of("crates/storage/src/a.rs", peek),
            vec!["clock-charge"]
        );
        // `_clock` opts out; trait signatures (no body) are skipped
        assert!(rules_of(
            "crates/storage/src/a.rs",
            "fn cap(&self, _clock: &mut Clock) {}\n"
        )
        .is_empty());
        assert!(rules_of(
            "crates/storage/src/a.rs",
            "trait D { fn read(&self, clock: &mut Clock); }\n"
        )
        .is_empty());
        // out-of-scope crates are not checked
        assert!(rules_of("crates/engine/src/a.rs", bad).is_empty());
    }

    #[test]
    fn clock_charge_forward_chain_that_charges_is_clean() {
        let v = rules_of(&[(
            "crates/net/src/a.rs",
            "pub fn outer(clock: &mut Clock) { inner(clock); }\n\
             fn inner(clock: &mut Clock) { clock.advance(1); }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn clock_charge_forward_to_dead_end_is_flagged_at_entry() {
        // `outer` forwards, but only into `inner`, which never charges:
        // both ends are reported, `outer` with the free path
        let v = run(&[(
            "crates/net/src/a.rs",
            "pub fn outer(clock: &mut Clock) { inner(clock); }\n\
             fn inner(clock: &mut Clock) { let t = clock.now(); }",
        )]);
        let cc: Vec<&Violation> = v.iter().filter(|v| v.rule == "clock-charge").collect();
        assert_eq!(cc.len(), 2);
        assert!(cc[0].msg.contains("free path"), "{}", cc[0].msg);
        assert!(cc[0].msg.contains("outer") && cc[0].msg.contains("inner"));
    }

    #[test]
    fn clock_charge_unresolved_forward_gets_benefit_of_doubt() {
        let v = rules_of(&[(
            "crates/net/src/a.rs",
            "pub fn outer(clock: &mut Clock) { external_helper(clock); }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn clock_charge_out_of_scope_crate_ignored() {
        let v = rules_of(&[(
            "crates/engine/src/a.rs",
            "pub fn outer(clock: &mut Clock) { let t = clock.now(); }",
        )]);
        assert!(v.iter().all(|r| *r != "clock-charge"));
    }

    #[test]
    fn clock_charge_waivable_at_fn_line() {
        // empty also means the pragma was consumed: hygiene reports unused ones
        let v = run(&[(
            "crates/net/src/a.rs",
            "// audit: allow(clock-charge, probing is free by design)\n\
             pub fn probe(clock: &mut Clock) { let t = clock.now(); }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn clock_charge_covers_the_pushdown_verb_path() {
        // a pushdown RPC that evaluates near memory but never charges the
        // server's CPU onto the caller's clock is a free-compute bug — the
        // charged roots (net/storage/rfile) must catch the whole chain
        let v = run(&[(
            "crates/net/src/a.rs",
            "pub fn pushdown(clock: &mut Clock, req: &Req) { serve(clock, req); }\n\
             fn serve(clock: &mut Clock, req: &Req) { let t = clock.now(); }",
        )]);
        let cc: Vec<&Violation> = v.iter().filter(|v| v.rule == "clock-charge").collect();
        assert_eq!(cc.len(), 2, "{v:?}");
        assert!(cc[0].msg.contains("pushdown") && cc[0].msg.contains("serve"));
        // charging the eval cost anywhere down the chain clears it
        let v = rules_of(&[(
            "crates/net/src/a.rs",
            "pub fn pushdown(clock: &mut Clock, req: &Req) { serve(clock, req); }\n\
             fn serve(clock: &mut Clock, req: &Req) { clock.advance_to(cpu_done); }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    // pass 2 ──────────────────────────────────────────────────────────────

    #[test]
    fn panic_reachable_from_kernel_with_witness() {
        let v = run(&[
            ("crates/sim/src/driver.rs", "pub fn run() { step(); }"),
            (
                "crates/sim/src/registry.rs",
                "pub fn step() { deep(); } pub fn deep() { x.unwrap(); }",
            ),
        ]);
        let pp: Vec<&Violation> = v.iter().filter(|v| v.rule == "panic-path").collect();
        assert_eq!(pp.len(), 1);
        assert!(pp[0].msg.contains("run -> "), "{}", pp[0].msg);
        assert!(pp[0].msg.contains("deep"));
    }

    #[test]
    fn panic_not_reachable_from_kernel_is_clean() {
        let v = rules_of(&[
            (
                "crates/sim/src/driver.rs",
                "pub fn run() { step(); } fn step() {}",
            ),
            (
                "crates/engine/src/a.rs",
                "pub fn unrelated() { x.unwrap(); }",
            ),
        ]);
        assert!(!v.contains(&"panic-path"), "{v:?}");
    }

    #[test]
    fn panic_in_test_code_ignored() {
        let v = rules_of(&[(
            "crates/sim/src/driver.rs",
            "pub fn run() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }",
        )]);
        assert!(!v.contains(&"panic-path"), "{v:?}");
    }

    #[test]
    fn panic_waivable_at_site() {
        let v = run(&[(
            "crates/sim/src/driver.rs",
            "pub fn run() {\n\
             // audit: allow(panic-path, invariant: queue is never empty here)\n\
             q.pop().unwrap();\n}",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn bin_panics_are_advisory_not_violations() {
        let a = analyze(&[
            ("crates/bench/src/bin/repro_x.rs", "fn main() { helper(); }"),
            ("crates/bench/src/lib.rs", "pub fn helper() { x.unwrap(); }"),
        ]);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.advisory.bin_panic_sites, 1);
    }

    // pass 3 ──────────────────────────────────────────────────────────────

    const TWO_LOCKS: &str = "struct A { m: Mutex<u64> }\nstruct B { m2: Mutex<u64> }\n";

    #[test]
    fn lock_cycle_across_fns_is_flagged() {
        let v = rules_of(&[(
            "crates/broker/src/a.rs",
            &format!(
                "{TWO_LOCKS}\
                 struct S {{ a: A, b: B }}\n\
                 impl S {{\n\
                 fn f(&self) {{ let g = self.a.m.lock(); let h = self.b.m2.lock(); }}\n\
                 fn g(&self) {{ let g = self.b.m2.lock(); let h = self.a.m.lock(); }}\n\
                 }}"
            ),
        )]);
        assert!(v.contains(&"lock-order"), "{v:?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let v = rules_of(&[(
            "crates/broker/src/a.rs",
            &format!(
                "{TWO_LOCKS}\
                 struct S {{ a: A, b: B }}\n\
                 impl S {{\n\
                 fn f(&self) {{ let g = self.a.m.lock(); let h = self.b.m2.lock(); }}\n\
                 fn g(&self) {{ let g = self.a.m.lock(); let h = self.b.m2.lock(); }}\n\
                 }}"
            ),
        )]);
        assert!(!v.contains(&"lock-order"), "{v:?}");
    }

    #[test]
    fn cycle_through_call_edge_is_flagged() {
        let v = rules_of(&[(
            "crates/broker/src/a.rs",
            &format!(
                "{TWO_LOCKS}\
                 struct S {{ a: A, b: B }}\n\
                 impl S {{\n\
                 fn f(&self) {{ let g = self.a.m.lock(); self.helper(); }}\n\
                 fn helper(&self) {{ let h = self.b.m2.lock(); }}\n\
                 fn g(&self) {{ let g = self.b.m2.lock(); let h = self.a.m.lock(); }}\n\
                 }}"
            ),
        )]);
        assert!(v.contains(&"lock-order"), "{v:?}");
    }

    #[test]
    fn statement_scoped_temporaries_do_not_nest() {
        let v = rules_of(&[(
            "crates/broker/src/a.rs",
            &format!(
                "{TWO_LOCKS}\
                 struct S {{ a: A, b: B }}\n\
                 impl S {{\n\
                 fn f(&self) {{ self.a.m.lock().checked_add(1); self.b.m2.lock().checked_add(1); }}\n\
                 fn g(&self) {{ self.b.m2.lock().checked_add(1); self.a.m.lock().checked_add(1); }}\n\
                 }}"
            ),
        )]);
        assert!(!v.contains(&"lock-order"), "{v:?}");
    }

    #[test]
    fn drop_releases_before_second_acquisition() {
        let v = rules_of(&[(
            "crates/broker/src/a.rs",
            &format!(
                "{TWO_LOCKS}\
                 struct S {{ a: A, b: B }}\n\
                 impl S {{\n\
                 fn f(&self) {{ let g = self.a.m.lock(); drop(g); let h = self.b.m2.lock(); }}\n\
                 fn g(&self) {{ let g = self.b.m2.lock(); drop(g); let h = self.a.m.lock(); }}\n\
                 }}"
            ),
        )]);
        assert!(!v.contains(&"lock-order"), "{v:?}");
    }

    #[test]
    fn self_deadlock_through_helper_is_flagged() {
        let v = run(&[(
            "crates/broker/src/a.rs",
            "struct A { m: Mutex<u64> }\n\
             struct S { a: A }\n\
             impl S {\n\
             fn f(&self) { let g = self.a.m.lock(); self.helper(); }\n\
             fn helper(&self) { let h = self.a.m.lock(); }\n\
             }",
        )]);
        let lo: Vec<&Violation> = v.iter().filter(|v| v.rule == "lock-order").collect();
        assert_eq!(lo.len(), 1, "{v:?}");
        assert!(lo[0].msg.contains("self-deadlock"), "{}", lo[0].msg);
    }

    #[test]
    fn try_lock_never_forms_the_blocking_side() {
        let v = rules_of(&[(
            "crates/broker/src/a.rs",
            &format!(
                "{TWO_LOCKS}\
                 struct S {{ a: A, b: B }}\n\
                 impl S {{\n\
                 fn f(&self) {{ let g = self.a.m.lock(); let h = self.b.m2.try_lock(); }}\n\
                 fn g(&self) {{ let g = self.b.m2.lock(); let h = self.a.m.try_lock(); }}\n\
                 }}"
            ),
        )]);
        assert!(!v.contains(&"lock-order"), "{v:?}");
    }

    // pass 4 ──────────────────────────────────────────────────────────────

    #[test]
    fn wrapped_wall_clock_helper_caught_at_call_site() {
        let v = run(&[
            (
                "crates/sim/src/util.rs",
                "pub fn stamp() -> u64 { Instant::now().elapsed().as_nanos() as u64 }",
            ),
            (
                "crates/engine/src/a.rs",
                "pub fn work() { let t = stamp(); }",
            ),
        ]);
        let dt: Vec<&Violation> = v.iter().filter(|v| v.rule == "det-taint").collect();
        assert_eq!(dt.len(), 1, "{v:?}");
        assert_eq!(dt[0].file, "crates/engine/src/a.rs");
        assert!(dt[0].msg.contains("wall-clock"), "{}", dt[0].msg);
        assert!(dt[0].msg.contains("Instant"), "{}", dt[0].msg);
    }

    #[test]
    fn taint_propagates_through_intermediate_helpers() {
        let v = rules_of(&[
            (
                "crates/sim/src/util.rs",
                "pub fn stamp() -> u64 { Instant::now() }\n\
                 pub fn indirect() -> u64 { stamp() }",
            ),
            (
                "crates/engine/src/a.rs",
                "pub fn work() { let t = indirect(); }",
            ),
        ]);
        assert!(v.contains(&"det-taint"), "{v:?}");
    }

    #[test]
    fn untainted_helper_is_clean() {
        let v = rules_of(&[
            (
                "crates/sim/src/util.rs",
                "pub fn pure_helper() -> u64 { 42 }",
            ),
            (
                "crates/engine/src/a.rs",
                "pub fn work() { let t = pure_helper(); }",
            ),
        ]);
        assert!(!v.contains(&"det-taint"), "{v:?}");
    }

    #[test]
    fn barrier_pragma_stops_propagation_and_is_consumed() {
        // empty also means the pragma was consumed: hygiene reports unused ones
        let v = run(&[
            (
                "crates/sim/src/util.rs",
                "// audit: allow(det-taint, volatile wall time only; never fingerprinted)\n\
                 pub fn stamp() -> u64 { Instant::now() }",
            ),
            (
                "crates/bench/src/a.rs",
                "pub fn work() { let t = stamp(); }",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn nondet_taint_flags_sim_calls_into_tainted_helpers() {
        let v = run(&[
            (
                "crates/workloads/src/util.rs",
                "pub fn pick_thread() -> u64 { thread::current().id() }",
            ),
            (
                "crates/sim/src/driver.rs",
                "pub fn run() { let t = pick_thread(); }",
            ),
        ]);
        let dt: Vec<&Violation> = v.iter().filter(|v| v.rule == "det-taint").collect();
        assert_eq!(dt.len(), 1, "{v:?}");
        assert_eq!(dt[0].file, "crates/sim/src/driver.rs");
        assert!(dt[0].msg.contains("nondet-parallel"), "{}", dt[0].msg);
    }

    #[test]
    fn direct_taint_in_restricted_crate_left_to_per_line_rules() {
        // the per-line wall-clock rule owns this finding; the pass must not
        // double-report it
        let v = rules_of(&[(
            "crates/engine/src/a.rs",
            "pub fn work() { let t = Instant::now(); }",
        )]);
        assert_eq!(v, vec!["wall-clock"]);
    }
}
