//! Whole-workspace call graph: resolution of the call sites extracted by
//! [`crate::symbols`] into fn→fn edges, lock-site resolution into concrete
//! lock identities, and the query surface the passes and the `graph` /
//! `paths` subcommands share (BFS witnesses, DOT/JSON dumps).
//!
//! Resolution is name-based and deliberately conservative about *method*
//! calls, which is where a token-level analysis can over-connect (every
//! `.len()` would otherwise edge to any workspace `len`). The rules:
//!
//! * **free calls** `f(…)` resolve to workspace free fns named `f`,
//!   preferring same-crate definitions when any exist;
//! * **qualified calls** `T::f(…)` resolve to fns in `impl T` / `trait T`
//!   (with `Self` already rewritten by the extractor), falling back to
//!   free fns named `f` when `T` is actually a module path segment;
//! * **method calls** `recv.f(…)` are resolved by *typing the receiver
//!   chain* through struct fields (`self.store.state` → `Broker.store:
//!   LeaseStore` → `LeaseStore.state`), starting from `self`/params; when
//!   the chain cannot be typed, the call resolves only if every workspace
//!   method named `f` lives on a single type (unambiguous), otherwise no
//!   edge is recorded — under-approximation is explicit and documented in
//!   DESIGN.md §7;
//! * `….lock()` / `….read()` / `….write()` sites whose receiver types to a
//!   `Mutex`/`RwLock` field (or a `static` lock) become **lock
//!   acquisitions** with that `(crate, struct, field)` identity and are
//!   *not* call edges; a `read`/`write` that does not type to a lock stays
//!   a method call (`Fabric::read` is not a lock), while an untypable
//!   `lock()`/`try_lock()` is kept as a lock with a per-site identity so
//!   it can never fabricate a false cycle.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::symbols::{Callee, FileSyms, FnItem, LockDeclKind};

pub type FnId = usize;

/// A resolved call edge out of a fn.
#[derive(Debug, Clone)]
pub struct Edge {
    pub to: FnId,
    pub line: usize,
    /// Token index of the call site in the caller's file.
    pub tok: usize,
    pub forwards_clock: bool,
}

/// Identity of a lock, as precise as resolution allowed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockId {
    /// A struct field: `(crate, struct, field)`.
    Field {
        krate: String,
        strukt: String,
        field: String,
    },
    /// A `static` lock: `(crate, name)`.
    Static { krate: String, name: String },
    /// Receiver chain could not be typed — unique per site so it can join
    /// the graph without ever closing a false cycle.
    Site { file: String, line: usize },
}

impl LockId {
    pub fn display(&self) -> String {
        match self {
            LockId::Field {
                krate,
                strukt,
                field,
            } => format!("{krate}::{strukt}.{field}"),
            LockId::Static { krate, name } => format!("{krate}::static {name}"),
            LockId::Site { file, line } => format!("?{{{file}:{line}}}"),
        }
    }
}

/// One resolved lock acquisition inside a fn body.
#[derive(Debug, Clone)]
pub struct ResolvedAcq {
    /// Index into [`Workspace::locks`].
    pub lock: usize,
    pub kind: LockDeclKind,
    pub op: String,
    pub line: usize,
    pub tok: usize,
    pub held_to: usize,
}

/// The resolved whole-workspace model.
pub struct Workspace {
    pub files: Vec<FileSyms>,
    /// FnId → (file index, fn index within the file).
    pub fns: Vec<(usize, usize)>,
    /// FnId → outgoing resolved edges.
    pub edges: Vec<Vec<Edge>>,
    /// Lock identity table (deduped, sorted insertion order).
    pub locks: Vec<LockId>,
    /// FnId → resolved lock acquisitions.
    pub fn_locks: Vec<Vec<ResolvedAcq>>,
}

impl Workspace {
    pub fn item(&self, id: FnId) -> &FnItem {
        let (fi, xi) = self.fns[id];
        &self.files[fi].fns[xi]
    }

    pub fn file(&self, id: FnId) -> &FileSyms {
        &self.files[self.fns[id].0]
    }

    /// `crate::mod::Type::name` — stable human-readable label.
    pub fn qual_name(&self, id: FnId) -> String {
        let f = self.item(id);
        let file = self.file(id);
        let mut parts: Vec<&str> = Vec::new();
        if let Some(k) = &file.krate {
            parts.push(k);
        }
        for m in &f.modpath {
            parts.push(m);
        }
        if let Some(t) = &f.self_ty {
            parts.push(t);
        }
        parts.push(&f.name);
        parts.join("::")
    }

    /// `file:line` of the fn declaration.
    pub fn locus(&self, id: FnId) -> String {
        format!("{}:{}", self.file(id).path, self.item(id).line)
    }

    /// Fn ids in a file whose path ends with `suffix` (non-test only).
    pub(crate) fn fns_in_file(&self, suffix: &str) -> Vec<FnId> {
        (0..self.fns.len())
            .filter(|&id| self.file(id).path.ends_with(suffix) && !self.item(id).is_test)
            .collect()
    }

    /// BFS shortest path from any of `roots` to the first fn satisfying
    /// `hit`, traversing only non-test callees. Returns the fn chain.
    pub fn shortest_path<F: Fn(FnId) -> bool>(&self, roots: &[FnId], hit: F) -> Option<Vec<FnId>> {
        let mut prev: BTreeMap<FnId, Option<FnId>> = BTreeMap::new();
        let mut q = VecDeque::new();
        for &r in roots {
            if self.item(r).is_test {
                continue;
            }
            if prev.insert(r, None).is_none() {
                q.push_back(r);
            }
        }
        while let Some(f) = q.pop_front() {
            if hit(f) {
                let mut chain = vec![f];
                let mut cur = f;
                while let Some(Some(p)) = prev.get(&cur) {
                    chain.push(*p);
                    cur = *p;
                }
                chain.reverse();
                return Some(chain);
            }
            for e in &self.edges[f] {
                if self.item(e.to).is_test {
                    continue;
                }
                if let std::collections::btree_map::Entry::Vacant(v) = prev.entry(e.to) {
                    v.insert(Some(f));
                    q.push_back(e.to);
                }
            }
        }
        None
    }

    /// All fns reachable from `roots` through non-test edges (incl. roots).
    pub fn reachable(&self, roots: &[FnId]) -> BTreeSet<FnId> {
        let mut seen: BTreeSet<FnId> = BTreeSet::new();
        let mut q: VecDeque<FnId> = VecDeque::new();
        for &r in roots {
            if !self.item(r).is_test && seen.insert(r) {
                q.push_back(r);
            }
        }
        while let Some(f) = q.pop_front() {
            for e in &self.edges[f] {
                if !self.item(e.to).is_test && seen.insert(e.to) {
                    q.push_back(e.to);
                }
            }
        }
        seen
    }

    /// Render the call graph as GraphViz DOT.
    pub fn to_dot(&self) -> String {
        let mut s =
            String::from("digraph calls {\n  rankdir=LR;\n  node [shape=box,fontsize=10];\n");
        let mut used: BTreeSet<FnId> = BTreeSet::new();
        for (f, outs) in self.edges.iter().enumerate() {
            for e in outs {
                used.insert(f);
                used.insert(e.to);
            }
        }
        for id in &used {
            s.push_str(&format!(
                "  n{} [label=\"{}\\n{}\"];\n",
                id,
                esc(&self.qual_name(*id)),
                esc(&self.locus(*id)),
            ));
        }
        for (f, outs) in self.edges.iter().enumerate() {
            for e in outs {
                let attr = if e.forwards_clock {
                    " [color=blue,label=\"clock\"]"
                } else {
                    ""
                };
                s.push_str(&format!("  n{} -> n{}{};\n", f, e.to, attr));
            }
        }
        s.push_str("}\n");
        s
    }

    /// Render the whole model (fns, edges, locks) as JSON. Hand-rolled —
    /// the workspace carries no serde.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"remem-audit/callgraph/v1\",\n  \"fns\": [\n");
        for id in 0..self.fns.len() {
            let f = self.item(id);
            s.push_str(&format!(
                "    {{\"id\": {}, \"name\": \"{}\", \"file\": \"{}\", \"line\": {}, \
                 \"crate\": \"{}\", \"test\": {}, \"takes_clock\": {}, \"panics\": {}, \
                 \"locks\": {}}}{}\n",
                id,
                esc(&self.qual_name(id)),
                esc(&self.file(id).path),
                f.line,
                esc(self.file(id).krate.as_deref().unwrap_or("")),
                f.is_test,
                f.takes_clock,
                f.panics.len(),
                self.fn_locks[id].len(),
                if id + 1 == self.fns.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n  \"edges\": [\n");
        let mut rows = Vec::new();
        for (f, outs) in self.edges.iter().enumerate() {
            for e in outs {
                rows.push(format!(
                    "    {{\"from\": {}, \"to\": {}, \"line\": {}, \"clock\": {}}}",
                    f, e.to, e.line, e.forwards_clock
                ));
            }
        }
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ],\n  \"locks\": [\n");
        let lock_rows: Vec<String> = self
            .locks
            .iter()
            .map(|l| format!("    \"{}\"", esc(&l.display())))
            .collect();
        s.push_str(&lock_rows.join(",\n"));
        s.push_str("\n  ]\n}\n");
        s
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

// ─── resolution ──────────────────────────────────────────────────────────

/// Method names so common on std types that an *untyped* receiver must
/// never resolve through the unique-workspace-definition fallback. (A
/// receiver that types to a workspace struct still resolves normally.)
const STD_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "clear",
    "clone",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "send",
    "recv",
    "join",
    "take",
    "replace",
    "set",
    "contains",
    "contains_key",
    "extend",
    "drain",
    "retain",
    "entry",
    "keys",
    "values",
    "sort",
    "sort_by",
    "sort_by_key",
    "split_off",
    "first",
    "last",
    "default",
    "min",
    "max",
    "abs",
    "floor",
    "ceil",
    "round",
    "to_string",
    "parse",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map",
    "and_then",
    "flush",
    "finish",
    "wait",
    "fill",
    "copy_from_slice",
    "resize",
    "reserve",
];

struct Indexes {
    free_by_name: BTreeMap<String, Vec<FnId>>,
    methods_by_name: BTreeMap<String, Vec<FnId>>,
    by_ty_name: BTreeMap<(String, String), Vec<FnId>>,
    structs_by_name: BTreeMap<String, Vec<(usize, usize)>>,
    statics_by_name: BTreeMap<String, Vec<(usize, usize)>>,
}

/// Build the resolved workspace from per-file symbol tables.
pub fn build(files: Vec<FileSyms>) -> Workspace {
    let mut fns = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for xi in 0..file.fns.len() {
            fns.push((fi, xi));
        }
    }
    let mut ix = Indexes {
        free_by_name: BTreeMap::new(),
        methods_by_name: BTreeMap::new(),
        by_ty_name: BTreeMap::new(),
        structs_by_name: BTreeMap::new(),
        statics_by_name: BTreeMap::new(),
    };
    for (id, &(fi, xi)) in fns.iter().enumerate() {
        let f = &files[fi].fns[xi];
        if f.has_self {
            ix.methods_by_name
                .entry(f.name.clone())
                .or_default()
                .push(id);
        } else {
            ix.free_by_name.entry(f.name.clone()).or_default().push(id);
        }
        if let Some(t) = &f.self_ty {
            ix.by_ty_name
                .entry((t.clone(), f.name.clone()))
                .or_default()
                .push(id);
        }
    }
    for (fi, file) in files.iter().enumerate() {
        for (si, st) in file.structs.iter().enumerate() {
            ix.structs_by_name
                .entry(st.name.clone())
                .or_default()
                .push((fi, si));
        }
        for (si, st) in file.statics.iter().enumerate() {
            ix.statics_by_name
                .entry(st.name.clone())
                .or_default()
                .push((fi, si));
        }
    }

    let mut ws = Workspace {
        files,
        fns,
        edges: Vec::new(),
        locks: Vec::new(),
        fn_locks: Vec::new(),
    };
    let mut lock_ids: BTreeMap<LockId, usize> = BTreeMap::new();

    for id in 0..ws.fns.len() {
        let (fi, xi) = ws.fns[id];
        // resolve locks first so lock sites can be excluded from call edges
        let mut acqs: Vec<ResolvedAcq> = Vec::new();
        let mut lock_toks: BTreeSet<usize> = BTreeSet::new();
        {
            let file = &ws.files[fi];
            let f = &file.fns[xi];
            for acq in &f.locks {
                let resolved = resolve_lock(&ws.files, &ix, fi, f, &acq.recv, &acq.op);
                let (lock_id, kind) = match resolved {
                    Some(ok) => ok,
                    None => {
                        // `read`/`write` that isn't a lock stays a method
                        // call; an untypable `lock`/`try_lock` is almost
                        // surely a lock — keep it with a per-site identity
                        if acq.op == "lock" || acq.op == "try_lock" {
                            (
                                LockId::Site {
                                    file: file.path.clone(),
                                    line: acq.line,
                                },
                                LockDeclKind::Mutex,
                            )
                        } else {
                            continue;
                        }
                    }
                };
                let n = lock_ids.len();
                let idx = *lock_ids.entry(lock_id).or_insert(n);
                lock_toks.insert(acq.tok);
                acqs.push(ResolvedAcq {
                    lock: idx,
                    kind,
                    op: acq.op.clone(),
                    line: acq.line,
                    tok: acq.tok,
                    held_to: acq.held_to,
                });
            }
        }
        // resolve calls
        let mut outs: Vec<Edge> = Vec::new();
        {
            let file = &ws.files[fi];
            let f = &file.fns[xi];
            for call in &f.calls {
                if lock_toks.contains(&call.tok) {
                    continue; // this site is a lock acquisition
                }
                let cands = resolve_call(&ws.files, &ix, id, &ws.fns, fi, f, &call.callee);
                for to in cands {
                    if to == id {
                        continue; // direct recursion adds nothing to passes
                    }
                    outs.push(Edge {
                        to,
                        line: call.line,
                        tok: call.tok,
                        forwards_clock: call.forwards_clock,
                    });
                }
            }
        }
        ws.edges.push(outs);
        ws.fn_locks.push(acqs);
    }
    let mut locks = vec![
        LockId::Site {
            file: String::new(),
            line: 0
        };
        lock_ids.len()
    ];
    for (id, idx) in lock_ids {
        locks[idx] = id;
    }
    ws.locks = locks;
    ws
}

/// Resolve a struct name to `(file_idx, struct_idx)` preferring the same
/// file, then the same crate, then a globally unique definition.
fn resolve_struct(
    files: &[FileSyms],
    ix: &Indexes,
    name: &str,
    pref_file: usize,
) -> Option<(usize, usize)> {
    let cands = ix.structs_by_name.get(name)?;
    if let Some(&c) = cands.iter().find(|&&(fi, _)| fi == pref_file) {
        return Some(c);
    }
    let pref_krate = &files[pref_file].krate;
    let in_crate: Vec<_> = cands
        .iter()
        .filter(|&&(fi, _)| &files[fi].krate == pref_krate)
        .collect();
    if in_crate.len() == 1 {
        return Some(*in_crate[0]);
    }
    if cands.len() == 1 {
        return Some(cands[0]);
    }
    None
}

/// Type a receiver chain through struct fields. Returns the struct that
/// the *last* chain element's value has — i.e. for `["self","store"]`, the
/// struct named by `Broker.store`'s type. Fails (None) whenever a hop
/// cannot be typed.
fn type_of_chain(
    files: &[FileSyms],
    ix: &Indexes,
    pref_file: usize,
    f: &FnItem,
    chain: &[String],
) -> Option<(usize, usize)> {
    let first = chain.first()?;
    let mut cur: (usize, usize) = if first == "self" {
        let ty = f.self_ty.as_deref()?;
        resolve_struct(files, ix, ty, pref_file)?
    } else if let Some(p) = f.params.iter().find(|p| &p.name == first) {
        // innermost type ident that names a known struct (`Arc<Fabric>` →
        // `Fabric`)
        p.ty_idents
            .iter()
            .rev()
            .find_map(|t| resolve_struct(files, ix, t, pref_file))?
    } else {
        return None;
    };
    for hop in &chain[1..] {
        let st = &files[cur.0].structs[cur.1];
        let (_, ty_idents, _) = st.fields.iter().find(|(n, _, _)| n == hop)?;
        cur = ty_idents
            .iter()
            .rev()
            .find_map(|t| resolve_struct(files, ix, t, cur.0))?;
    }
    Some(cur)
}

/// Resolve a lock acquisition site to a concrete lock identity.
fn resolve_lock(
    files: &[FileSyms],
    ix: &Indexes,
    pref_file: usize,
    f: &FnItem,
    chain: &[String],
    op: &str,
) -> Option<(LockId, LockDeclKind)> {
    let kind_matches = |k: LockDeclKind| match op {
        "lock" | "try_lock" => k == LockDeclKind::Mutex,
        "read" | "write" => k == LockDeclKind::RwLock,
        _ => false,
    };
    if chain.is_empty() {
        return None;
    }
    // single ident: a static lock?
    if chain.len() == 1 {
        if let Some(cands) = ix.statics_by_name.get(&chain[0]) {
            let pick = cands
                .iter()
                .find(|&&(fi, _)| fi == pref_file)
                .or_else(|| cands.first());
            if let Some(&(fi, si)) = pick {
                let st = &files[fi].statics[si];
                if kind_matches(st.kind) {
                    return Some((
                        LockId::Static {
                            krate: files[fi].krate.clone().unwrap_or_default(),
                            name: st.name.clone(),
                        },
                        st.kind,
                    ));
                }
            }
        }
    }
    // type the chain up to the second-to-last hop, then the last hop must
    // be a lock field
    let (head, last) = chain.split_at(chain.len() - 1);
    let owner = if head.is_empty() {
        None
    } else {
        type_of_chain(files, ix, pref_file, f, head)
    };
    if let Some((fi, si)) = owner {
        let st = &files[fi].structs[si];
        if let Some((fname, _, Some(kind))) = st
            .fields
            .iter()
            .find(|(n, _, k)| n == &last[0] && k.is_some())
        {
            if kind_matches(*kind) {
                return Some((
                    LockId::Field {
                        krate: files[fi].krate.clone().unwrap_or_default(),
                        strukt: st.name.clone(),
                        field: fname.clone(),
                    },
                    *kind,
                ));
            }
        }
        return None; // typed, and the field is not a lock → method call
    }
    // fallback: the final field name names exactly one lock field in this
    // crate → use it (covers `let state = …clone(); state.lock()`)
    let pref_krate = &files[pref_file].krate;
    let mut found: Vec<(LockId, LockDeclKind)> = Vec::new();
    for file in files.iter().filter(|file| &file.krate == pref_krate) {
        for st in &file.structs {
            for (n, _, k) in &st.fields {
                if let Some(kind) = k {
                    if n == &last[0] && kind_matches(*kind) {
                        found.push((
                            LockId::Field {
                                krate: file.krate.clone().unwrap_or_default(),
                                strukt: st.name.clone(),
                                field: n.clone(),
                            },
                            *kind,
                        ));
                    }
                }
            }
        }
    }
    found.sort_by(|a, b| a.0.cmp(&b.0));
    found.dedup_by(|a, b| a.0 == b.0);
    if found.len() == 1 {
        return found.pop();
    }
    None
}

/// Resolve one call site to candidate fn ids.
fn resolve_call(
    files: &[FileSyms],
    ix: &Indexes,
    _caller: FnId,
    fns: &[(usize, usize)],
    pref_file: usize,
    f: &FnItem,
    callee: &Callee,
) -> Vec<FnId> {
    let pref_krate = &files[pref_file].krate;
    let prefer_crate = |cands: &[FnId]| -> Vec<FnId> {
        let same: Vec<FnId> = cands
            .iter()
            .copied()
            .filter(|&id| &files[fns[id].0].krate == pref_krate)
            .collect();
        if same.is_empty() {
            cands.to_vec()
        } else {
            same
        }
    };
    match callee {
        Callee::Free { name } => ix
            .free_by_name
            .get(name)
            .map(|c| prefer_crate(c))
            .unwrap_or_default(),
        Callee::Qualified { qualifier, name } => {
            if let Some(c) = ix.by_ty_name.get(&(qualifier.clone(), name.clone())) {
                return c.clone();
            }
            // An uppercase qualifier is a type; if the workspace defines no
            // such associated fn it's a std/derived impl (`BpStats::
            // default()`), NOT any free fn that happens to share the name.
            if qualifier.chars().next().map(|c| c.is_uppercase()) == Some(true) {
                return Vec::new();
            }
            // `module::name(…)` — fall back to free fns with the name
            ix.free_by_name
                .get(name)
                .map(|c| prefer_crate(c))
                .unwrap_or_default()
        }
        Callee::Method { name, recv } => {
            // typed receiver → methods on that exact type
            if let Some((fi, si)) = type_of_chain(files, ix, pref_file, f, recv) {
                let ty = files[fi].structs[si].name.clone();
                if let Some(c) = ix.by_ty_name.get(&(ty, name.clone())) {
                    let meth: Vec<FnId> = c
                        .iter()
                        .copied()
                        .filter(|&id| files[fns[id].0].fns[fns[id].1].has_self)
                        .collect();
                    if !meth.is_empty() {
                        return meth;
                    }
                }
                // typed but the type has no such method: likely a std
                // container method (`.push`, `.len`) — no edge
                return Vec::new();
            }
            // untyped receiver: resolve only when the method name is
            // defined on a single workspace type (unambiguous) AND is not
            // a ubiquitous std method (an atomic's `.load(Ordering)` must
            // not edge to `BufferPool::load`)
            if STD_METHODS.contains(&name.as_str()) {
                return Vec::new();
            }
            let cands = match ix.methods_by_name.get(name) {
                Some(c) => c,
                None => return Vec::new(),
            };
            let tys: BTreeSet<&str> = cands
                .iter()
                .filter_map(|&id| files[fns[id].0].fns[fns[id].1].self_ty.as_deref())
                .collect();
            if tys.len() == 1 {
                cands.clone()
            } else {
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Source;
    use crate::symbols::extract;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        build(
            files
                .iter()
                .map(|(p, s)| extract(&Source::new(p, s)))
                .collect(),
        )
    }

    fn find(ws: &Workspace, name: &str) -> FnId {
        (0..ws.fns.len())
            .find(|&id| ws.qual_name(id).ends_with(name))
            .unwrap_or_else(|| panic!("fn {name} not found"))
    }

    fn callees(ws: &Workspace, from: FnId) -> Vec<String> {
        let mut v: Vec<String> = ws.edges[from].iter().map(|e| ws.qual_name(e.to)).collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn free_call_prefers_same_crate() {
        let ws = ws_of(&[
            (
                "crates/a/src/lib.rs",
                "pub fn helper() {} pub fn top() { helper(); }",
            ),
            ("crates/b/src/lib.rs", "pub fn helper() {}"),
        ]);
        let top = find(&ws, "a::top");
        assert_eq!(callees(&ws, top), vec!["a::helper"]);
    }

    #[test]
    fn typed_method_resolution_through_fields() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "struct Store { state: u64 }\n\
             impl Store { fn get(&self) -> u64 { self.state } }\n\
             struct Broker { store: Store }\n\
             impl Broker { fn fetch(&self) -> u64 { self.store.get() } }",
        )]);
        let fetch = find(&ws, "Broker::fetch");
        assert_eq!(callees(&ws, fetch), vec!["a::Store::get"]);
    }

    #[test]
    fn ambiguous_untyped_method_is_dropped() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "struct X; impl X { fn go(&self) {} }\n\
             struct Y; impl Y { fn go(&self) {} }\n\
             fn top(v: Foo) { v.go(); }",
        )]);
        let top = find(&ws, "a::top");
        assert!(callees(&ws, top).is_empty(), "two types define go()");
    }

    #[test]
    fn unique_untyped_method_resolves() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "struct X; impl X { fn very_unique(&self) {} }\n\
             fn top(v: Foo) { v.very_unique(); }",
        )]);
        let top = find(&ws, "a::top");
        assert_eq!(callees(&ws, top), vec!["a::X::very_unique"]);
    }

    #[test]
    fn lock_field_resolution_not_a_call_edge() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "struct Inner { n: u64 }\n\
             struct Pool { inner: Mutex<Inner> }\n\
             impl Pool { fn bump(&self) { self.inner.lock().n += 1; } }",
        )]);
        let bump = find(&ws, "Pool::bump");
        assert!(callees(&ws, bump).is_empty());
        assert_eq!(ws.fn_locks[bump].len(), 1);
        assert_eq!(
            ws.locks[ws.fn_locks[bump][0].lock].display(),
            "a::Pool.inner"
        );
    }

    #[test]
    fn rwlock_read_is_lock_but_device_read_is_call() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "struct Fab { servers: RwLock<Vec<u64>> }\n\
             struct Dev { x: u64 }\n\
             impl Dev { fn read(&self, off: u64) -> u64 { off } }\n\
             struct Top { fab: Fab, dev: Dev }\n\
             impl Top { fn a(&self) { let n = self.fab.servers.read().len(); } \
                        fn b(&self) -> u64 { self.dev.read(0) } }",
        )]);
        let a = find(&ws, "Top::a");
        assert_eq!(ws.fn_locks[a].len(), 1);
        assert_eq!(ws.locks[ws.fn_locks[a][0].lock].display(), "a::Fab.servers");
        let b = find(&ws, "Top::b");
        assert_eq!(callees(&ws, b), vec!["a::Dev::read"]);
        assert!(ws.fn_locks[b].is_empty());
    }

    #[test]
    fn static_lock_resolution() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "fn intern() { static POOL: Mutex<u64> = Mutex::new(0); let g = POOL.lock(); }",
        )]);
        let f = find(&ws, "a::intern");
        assert_eq!(ws.fn_locks[f].len(), 1);
        assert_eq!(ws.locks[ws.fn_locks[f][0].lock].display(), "a::static POOL");
    }

    #[test]
    fn unresolved_lock_gets_per_site_identity() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "fn f() { let s = mk(); s.lock().push(1); }",
        )]);
        let f = find(&ws, "a::f");
        assert_eq!(ws.fn_locks[f].len(), 1);
        assert!(matches!(
            ws.locks[ws.fn_locks[f][0].lock],
            LockId::Site { .. }
        ));
    }

    #[test]
    fn crate_unique_field_name_fallback() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "struct Meta { meta_state: Mutex<u64> }\n\
             fn f(s: Unknown) { s.meta_state.lock(); }",
        )]);
        let f = find(&ws, "a::f");
        assert_eq!(
            ws.locks[ws.fn_locks[f][0].lock].display(),
            "a::Meta.meta_state"
        );
    }

    #[test]
    fn qualified_resolution_and_shadowing() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "fn charge() {}\n\
             struct T; impl T { fn charge(&self) {} fn mk() -> T { T } }\n\
             fn top(t: T) { charge(); t.charge(); T::mk(); }",
        )]);
        let top = find(&ws, "a::top");
        let got = callees(&ws, top);
        assert_eq!(got, vec!["a::T::charge", "a::T::mk", "a::charge"]);
        // the free fn and the method are distinct nodes
        let free = find(&ws, "a::charge");
        let method = find(&ws, "T::charge");
        assert_ne!(free, method);
    }

    #[test]
    fn shortest_path_witness() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "fn a() { b(); } fn b() { c(); } fn c() { x.unwrap(); }\n\
             fn a2() { c(); }",
        )]);
        let roots = vec![find(&ws, "a::a"), find(&ws, "a::a2")];
        let path = ws
            .shortest_path(&roots, |id| !ws.item(id).panics.is_empty())
            .unwrap();
        let names: Vec<String> = path.iter().map(|&id| ws.qual_name(id)).collect();
        assert_eq!(names, vec!["a::a2", "a::c"], "BFS finds the 2-hop chain");
    }

    #[test]
    fn dot_and_json_render() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "fn a(clock: &mut Clock) { b(clock); } fn b(clock: &mut Clock) { clock.tick(1); }",
        )]);
        let dot = ws.to_dot();
        assert!(dot.contains("digraph calls"));
        assert!(dot.contains("clock"));
        let json = ws.to_json();
        assert!(json.contains("\"schema\": \"remem-audit/callgraph/v1\""));
        assert!(json.contains("\"clock\": true"));
    }
}
