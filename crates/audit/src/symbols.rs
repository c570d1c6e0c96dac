//! Symbol-table extraction: the front half of the interprocedural analysis.
//!
//! This module walks the token stream of one [`Source`] — the same lexed
//! file the per-line rules read — and records every item the graph passes
//! need:
//!
//! * **fn items** with their crate / module path / `impl` (or `trait`) type
//!   context, parameter list (names + the last type ident, so receiver
//!   chains can be typed), whether they take `clock: &mut Clock`, and
//!   whether they sit in test code;
//! * **call sites** inside each body — free calls, `.method(…)` calls with
//!   the receiver ident chain (`self.store.state` → `["self","store",
//!   "state"]`), and `Path::method(…)` qualified calls — plus whether the
//!   bare `clock` binding is forwarded as an argument;
//! * **panic sites** (`.unwrap()`, `.expect(…)`, `panic!`, `unreachable!`,
//!   `todo!`, `unimplemented!`) and **indexing sites** (`x[i]`, advisory);
//! * **determinism-taint sites**: entries of [`crate::rules::banned_api`]'s
//!   table used inside a body;
//! * **lock acquisition sites** (`….lock()` / `….read()` / `….write()`)
//!   with an over-approximated *held span*: a `let`-bound guard is held to
//!   the end of its enclosing block (or an explicit `drop(name)`), an
//!   un-bound temporary to the end of its statement;
//! * **struct declarations** (field name → last type ident, and which
//!   fields are `Mutex`/`RwLock`) and **static locks**, so acquisition
//!   receiver chains can be resolved to a concrete `(struct, field)` lock
//!   identity by [`crate::callgraph`].
//!
//! Closure bodies are intentionally *not* separate items: their tokens lie
//! inside the enclosing fn's body span, so everything a closure does is
//! attributed to the fn that owns it — exactly the attribution the passes
//! want. Nested `fn` items inside bodies become their own items and their
//! spans are skipped in the parent.
//!
//! The extractor is an approximation by design (no type inference, no
//! macro expansion); DESIGN.md §7 documents the precision contract each
//! pass builds on top of it.

use crate::lexer::{Source, Tok};
use crate::rules::{banned_api, TaintKind};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `name(…)` — a free fn (or a local closure, filtered upstream).
    Free { name: String },
    /// `recv_chain.name(…)` — chain excludes the method name itself, e.g.
    /// `self.store.state.lock()` → `recv: ["self", "store", "state"]`.
    Method { name: String, recv: Vec<String> },
    /// `Qualifier::name(…)` — `qualifier` is the path segment right before
    /// the final `::` (`Self` is rewritten to the impl type upstream).
    Qualified { qualifier: String, name: String },
}

impl Callee {
    pub fn name(&self) -> &str {
        match self {
            Callee::Free { name }
            | Callee::Method { name, .. }
            | Callee::Qualified { name, .. } => name,
        }
    }
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub line: usize,
    /// Token index of the callee name (file-local; used for held-span
    /// containment checks by the lock pass).
    pub tok: usize,
    pub callee: Callee,
    /// `clock` is passed *bare* (`f(clock)` / `f(&mut clock)`) — i.e. the
    /// callee receives the clock itself, not a value derived from it.
    pub forwards_clock: bool,
}

/// A direct panic site.
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub line: usize,
    /// `unwrap` / `expect` / `panic!` / `unreachable!` / `todo!` /
    /// `unimplemented!`.
    pub what: String,
}

/// A direct determinism-taint site (banned API mention inside a body).
#[derive(Debug, Clone)]
pub struct TaintSite {
    pub line: usize,
    pub kind: TaintKind,
    pub what: &'static str,
}

/// One `….lock()` / `….read()` / `….write()` acquisition site.
#[derive(Debug, Clone)]
pub struct LockAcq {
    pub line: usize,
    /// Token index of the method name.
    pub tok: usize,
    /// Receiver ident chain, e.g. `["self", "inner"]` or `["POOL"]`.
    pub recv: Vec<String>,
    /// `lock` | `try_lock` | `read` | `write`.
    pub op: String,
    /// Held span `[tok, held_to)` in token indices, over-approximated.
    pub held_to: usize,
}

/// One fn parameter: name and the last ident of its type (if any).
#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    /// All idents appearing in the type, e.g. `Arc<Fabric>` → `["Arc",
    /// "Fabric"]` — the resolver picks whichever names a known struct.
    pub ty_idents: Vec<String>,
}

/// One extracted fn item with everything the passes consume.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    pub line: usize,
    /// End line of the body (for fn-granularity waivers).
    pub end_line: usize,
    /// Module path inside the file (`mod` nesting), outermost first.
    pub modpath: Vec<String>,
    /// `impl`/`trait` type context, e.g. `Some("BufferPool")`.
    pub self_ty: Option<String>,
    pub is_test: bool,
    pub has_self: bool,
    /// False for bodyless trait signatures — they are resolution *targets*
    /// but carry no facts and are exempt from the body-centric passes.
    pub has_body: bool,
    pub params: Vec<Param>,
    /// Takes a `clock: &mut Clock` parameter (not `_clock`).
    pub takes_clock: bool,
    /// Takes `_clock: &mut Clock` — an *intentionally free* operation.
    pub free_clock: bool,
    /// Body contains `clock.<m>(…)` with `m != now`.
    pub direct_charge: bool,
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
    /// Lines with `expr[…]` indexing (advisory panic sources).
    pub indexing: Vec<usize>,
    pub taints: Vec<TaintSite>,
    pub locks: Vec<LockAcq>,
}

/// A struct declaration: field names, their type idents, and lock fields.
#[derive(Debug, Clone)]
pub struct StructInfo {
    pub name: String,
    pub line: usize,
    /// (field name, type idents, lock kind if the field is a lock).
    pub fields: Vec<(String, Vec<String>, Option<LockDeclKind>)>,
}

/// What kind of lock a field or static declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockDeclKind {
    Mutex,
    RwLock,
}

/// A `static NAME: Mutex<…>` (module- or fn-scoped).
#[derive(Debug, Clone)]
pub struct StaticLock {
    pub name: String,
    pub line: usize,
    pub kind: LockDeclKind,
}

/// Everything extracted from one file.
#[derive(Debug)]
pub struct FileSyms {
    /// Repo-relative path, e.g. `crates/net/src/fabric.rs`.
    pub path: String,
    /// Crate name from the path (`crates/<name>/…`), if any.
    pub krate: Option<String>,
    pub fns: Vec<FnItem>,
    pub structs: Vec<StructInfo>,
    pub statics: Vec<StaticLock>,
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "mut",
    "fn", "pub", "use", "mod", "impl", "trait", "struct", "enum", "static", "const", "type", "as",
    "in", "move", "ref", "where", "unsafe", "dyn", "crate", "super", "self", "Self", "true",
    "false", "async", "await",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const LOCK_OPS: &[&str] = &["lock", "try_lock", "read", "write"];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// For every `{` token, the index of its matching `}` (or `toks.len()`).
fn match_braces(toks: &[Tok]) -> Vec<usize> {
    let mut close = vec![toks.len(); toks.len()];
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "{" => stack.push(i),
            "}" => {
                if let Some(open) = stack.pop() {
                    close[open] = i;
                }
            }
            _ => {}
        }
    }
    close
}

/// Skip a balanced `<…>` generics group starting at `i` (which must point
/// at `<`). `->` arrows inside (`Fn() -> T`) do not close the group.
fn skip_generics(toks: &[Tok], mut i: usize) -> usize {
    debug_assert!(toks[i].is("<"));
    let mut depth = 0i32;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "<" => depth += 1,
            // `->` is an arrow, not a closer
            ">" if !(i > 0 && toks[i - 1].is("-")) => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Find the matching `)` for the `(` at `i`.
fn match_paren(toks: &[Tok], mut i: usize) -> usize {
    debug_assert!(toks[i].is("("));
    let mut depth = 0usize;
    while i < toks.len() {
        if toks[i].is("(") {
            depth += 1;
        } else if toks[i].is(")") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len()
}

struct Extractor<'a> {
    src: &'a Source,
    toks: &'a [Tok],
    brace_close: Vec<usize>,
    fns: Vec<FnItem>,
    structs: Vec<StructInfo>,
    statics: Vec<StaticLock>,
}

/// Extract the symbol table of one file.
pub(crate) fn extract(src: &Source) -> FileSyms {
    let mut ex = Extractor {
        src,
        toks: &src.toks,
        brace_close: match_braces(&src.toks),
        fns: Vec::new(),
        structs: Vec::new(),
        statics: Vec::new(),
    };
    ex.walk_items(0, src.toks.len(), &mut Vec::new(), None);
    FileSyms {
        path: src.path.clone(),
        krate: src.krate.clone(),
        fns: ex.fns,
        structs: ex.structs,
        statics: ex.statics,
    }
}

impl<'a> Extractor<'a> {
    /// Walk item position from `i` to `end`, appending extracted items.
    fn walk_items(
        &mut self,
        mut i: usize,
        end: usize,
        modpath: &mut Vec<String>,
        self_ty: Option<&str>,
    ) {
        while i < end {
            let t = &self.toks[i];
            match t.text.as_str() {
                "mod" => {
                    let name = self
                        .toks
                        .get(i + 1)
                        .map(|t| t.text.clone())
                        .unwrap_or_default();
                    // `mod name {` — recurse; `mod name;` — skip
                    if self.toks.get(i + 2).map(|t| t.is("{")) == Some(true) {
                        let close = self.brace_close[i + 2];
                        modpath.push(name);
                        self.walk_items(i + 3, close, modpath, self_ty);
                        modpath.pop();
                        i = close + 1;
                    } else {
                        i += 2;
                    }
                    continue;
                }
                "impl" | "trait" => {
                    i = self.parse_impl_or_trait(i, end, modpath);
                    continue;
                }
                "struct" => {
                    i = self.parse_struct(i, end);
                    continue;
                }
                "static" => {
                    i = self.parse_static(i, end);
                    continue;
                }
                "fn" => {
                    i = self.parse_fn(i, end, modpath, self_ty);
                    continue;
                }
                "enum" | "union" => {
                    // skip the body so variant payloads don't look like items
                    let mut j = i + 1;
                    while j < end && !self.toks[j].is("{") && !self.toks[j].is(";") {
                        j += 1;
                    }
                    i = if j < end && self.toks[j].is("{") {
                        self.brace_close[j] + 1
                    } else {
                        j + 1
                    };
                    continue;
                }
                _ => {}
            }
            i += 1;
        }
    }

    /// Parse `impl … {` / `trait Name … {`, extract the type context, and
    /// walk the items inside with that context.
    fn parse_impl_or_trait(&mut self, i: usize, end: usize, modpath: &mut Vec<String>) -> usize {
        let is_trait = self.toks[i].is("trait");
        // collect header tokens up to the opening `{` or a `;`
        let mut j = i + 1;
        let mut header: Vec<&str> = Vec::new();
        while j < end && !self.toks[j].is("{") && !self.toks[j].is(";") {
            header.push(self.toks[j].text.as_str());
            j += 1;
        }
        if j >= end || self.toks[j].is(";") {
            return j + 1;
        }
        let ty = if is_trait {
            header.first().map(|s| s.to_string())
        } else {
            // `impl [<…>] Type {` or `impl [<…>] Trait for Type {`:
            // the implementing type is the last path ident before any
            // trailing generics / `where` clause, after `for` if present.
            let tail: Vec<&str> = match header.iter().position(|s| *s == "for") {
                Some(p) => header[p + 1..].to_vec(),
                None => header.clone(),
            };
            let stop = tail
                .iter()
                .position(|s| *s == "where")
                .unwrap_or(tail.len());
            // only idents outside `<…>`: `Observed<O>` is `Observed`, not `O`
            let mut depth = 0i32;
            let mut outer = Vec::new();
            for (k, s) in tail[..stop].iter().enumerate() {
                match *s {
                    "<" => depth += 1,
                    ">" if k == 0 || tail[k - 1] != "-" => depth -= 1,
                    _ if depth == 0 => outer.push(*s),
                    _ => {}
                }
            }
            outer
                .iter()
                .rfind(|s| {
                    s.chars()
                        .next()
                        .map(|c| c.is_alphanumeric() || c == '_')
                        .unwrap_or(false)
                        && !is_keyword(s)
                        && **s != "dyn"
                })
                .map(|s| s.to_string())
        };
        let close = self.brace_close[j];
        self.walk_items(j + 1, close, modpath, ty.as_deref());
        close + 1
    }

    /// Parse `struct Name { fields }`. Tuple and unit structs are recorded
    /// with no fields — they carry no lock state we can address by field,
    /// but must exist so receivers of their type can be resolved.
    fn parse_struct(&mut self, i: usize, end: usize) -> usize {
        let name = match self.toks.get(i + 1) {
            Some(t) => t.text.clone(),
            None => return i + 1,
        };
        let line = self.toks[i].line;
        let mut j = i + 2;
        if j < end && self.toks[j].is("<") {
            j = skip_generics(self.toks, j);
        }
        // skip `where` clause tokens up to `{` / `;` / `(`
        while j < end && !self.toks[j].is("{") && !self.toks[j].is(";") && !self.toks[j].is("(") {
            j += 1;
        }
        if j >= end || !self.toks[j].is("{") {
            // tuple/unit struct: no addressable lock fields, but it must
            // still exist so method receivers of this type can be typed
            while j < end && !self.toks[j].is(";") {
                j += 1;
            }
            self.structs.push(StructInfo {
                name,
                line,
                fields: Vec::new(),
            });
            return j + 1;
        }
        let close = self.brace_close[j];
        let mut fields = Vec::new();
        let mut k = j + 1;
        while k < close {
            // field: `[pub [(crate)]] name : type…` up to `,` at depth 0
            while k < close && (self.toks[k].is("pub") || self.toks[k].is(",")) {
                if self.toks[k].is("pub") && self.toks.get(k + 1).map(|t| t.is("(")) == Some(true) {
                    k = match_paren(self.toks, k + 1) + 1;
                } else {
                    k += 1;
                }
            }
            // skip attributes on the field
            while k < close
                && self.toks[k].is("#")
                && self.toks.get(k + 1).map(|t| t.is("[")) == Some(true)
            {
                let mut nest = 0usize;
                let mut m = k + 1;
                loop {
                    if self.toks[m].is("[") {
                        nest += 1;
                    } else if self.toks[m].is("]") {
                        nest -= 1;
                        if nest == 0 {
                            break;
                        }
                    }
                    m += 1;
                    if m >= close {
                        break;
                    }
                }
                k = m + 1;
            }
            if k >= close {
                break;
            }
            let fname = self.toks[k].text.clone();
            if self.toks.get(k + 1).map(|t| t.is(":")) != Some(true) {
                k += 1;
                continue;
            }
            // collect type idents until `,` at paren/angle/bracket depth 0
            let mut depth = 0i32;
            let mut m = k + 2;
            let mut ty_idents = Vec::new();
            while m < close {
                let s = self.toks[m].text.as_str();
                match s {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ">" if !(m > 0 && self.toks[m - 1].is("-")) => depth -= 1,
                    "," if depth == 0 => break,
                    _ => {
                        if s.chars()
                            .next()
                            .map(|c| c.is_alphabetic() || c == '_')
                            .unwrap_or(false)
                            && !is_keyword(s)
                        {
                            ty_idents.push(s.to_string());
                        }
                    }
                }
                m += 1;
            }
            let lock = lock_kind_of(&ty_idents);
            fields.push((fname, ty_idents, lock));
            k = m + 1;
        }
        self.structs.push(StructInfo { name, line, fields });
        close + 1
    }

    /// Parse `static NAME: <type> = …;` and record it if the type is a lock.
    fn parse_static(&mut self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        if j < end && self.toks[j].is("mut") {
            j += 1;
        }
        let name = match self.toks.get(j) {
            Some(t) => t.text.clone(),
            None => return i + 1,
        };
        let line = self.toks[i].line;
        if self.toks.get(j + 1).map(|t| t.is(":")) != Some(true) {
            return j + 1;
        }
        let mut ty_idents = Vec::new();
        let mut m = j + 2;
        while m < end && !self.toks[m].is("=") && !self.toks[m].is(";") {
            let s = self.toks[m].text.as_str();
            if s.chars()
                .next()
                .map(|c| c.is_alphabetic() || c == '_')
                .unwrap_or(false)
                && !is_keyword(s)
            {
                ty_idents.push(s.to_string());
            }
            m += 1;
        }
        if let Some(kind) = lock_kind_of(&ty_idents) {
            self.statics.push(StaticLock { name, line, kind });
        }
        // skip the initializer up to `;` (balancing braces for struct exprs)
        while m < end && !self.toks[m].is(";") {
            if self.toks[m].is("{") {
                m = self.brace_close[m];
            }
            m += 1;
        }
        m + 1
    }

    /// Parse one `fn` item starting at `i` (which points at `fn`); returns
    /// the index just past the item. Appends the [`FnItem`] and recurses
    /// into nested items found inside the body.
    fn parse_fn(
        &mut self,
        i: usize,
        end: usize,
        modpath: &mut Vec<String>,
        self_ty: Option<&str>,
    ) -> usize {
        let name = match self.toks.get(i + 1) {
            Some(t) => t.text.clone(),
            None => return i + 1,
        };
        let line = self.toks[i].line;
        let mut j = i + 2;
        if j < end && self.toks[j].is("<") {
            j = skip_generics(self.toks, j);
        }
        if j >= end || !self.toks[j].is("(") {
            return i + 2;
        }
        let params_start = j;
        let params_end = match_paren(self.toks, j);
        let (params, has_self) = self.parse_params(params_start + 1, params_end);
        let takes_clock = params
            .iter()
            .any(|p| p.name == "clock" && p.ty_idents.last().map(String::as_str) == Some("Clock"));
        let free_clock = params
            .iter()
            .any(|p| p.name == "_clock" && p.ty_idents.last().map(String::as_str) == Some("Clock"));

        // find the body `{` (or `;` → bodyless trait signature)
        let mut b = params_end + 1;
        let mut paren = 0i32;
        while b < end {
            match self.toks[b].text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "{" if paren == 0 => break,
                ";" if paren == 0 => break,
                _ => {}
            }
            b += 1;
        }
        if b >= end || self.toks[b].is(";") {
            // signature only — still record it (resolution targets need it
            // for trait dispatch, but it has no body facts)
            self.fns.push(FnItem {
                name,
                line,
                end_line: line,
                modpath: modpath.clone(),
                self_ty: self_ty.map(|s| s.to_string()),
                is_test: self.src.in_test(i),
                has_self,
                has_body: false,
                params,
                takes_clock,
                free_clock,
                direct_charge: false,
                calls: Vec::new(),
                panics: Vec::new(),
                indexing: Vec::new(),
                taints: Vec::new(),
                locks: Vec::new(),
            });
            return b + 1;
        }
        let body_start = b;
        let body_end = self.brace_close[b];
        let mut item = FnItem {
            name,
            line,
            end_line: self.toks.get(body_end).map(|t| t.line).unwrap_or(line),
            modpath: modpath.clone(),
            self_ty: self_ty.map(|s| s.to_string()),
            is_test: self.src.in_test(i),
            has_self,
            has_body: true,
            params,
            takes_clock,
            free_clock,
            direct_charge: false,
            calls: Vec::new(),
            panics: Vec::new(),
            indexing: Vec::new(),
            taints: Vec::new(),
            locks: Vec::new(),
        };
        self.walk_body(&mut item, body_start + 1, body_end, modpath, self_ty);
        self.fns.push(item);
        body_end + 1
    }

    /// Split a param list into (params, has_self).
    fn parse_params(&self, start: usize, end: usize) -> (Vec<Param>, bool) {
        let mut params = Vec::new();
        let mut has_self = false;
        let mut k = start;
        while k < end {
            // one param up to `,` at depth 0
            let mut depth = 0i32;
            let mut m = k;
            let mut toks_in: Vec<usize> = Vec::new();
            while m < end {
                let s = self.toks[m].text.as_str();
                match s {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ">" if !(m > 0 && self.toks[m - 1].is("-")) => depth -= 1,
                    "," if depth == 0 => break,
                    _ => {}
                }
                toks_in.push(m);
                m += 1;
            }
            // classify: self receiver or `name: type`
            let texts: Vec<&str> = toks_in
                .iter()
                .map(|&x| self.toks[x].text.as_str())
                .collect();
            if texts.contains(&"self") && !texts.contains(&":") {
                has_self = true;
            } else if let Some(colon) = texts.iter().position(|s| *s == ":") {
                // name = last ident before the colon (skips `mut`, patterns)
                let name = texts[..colon]
                    .iter()
                    .rev()
                    .find(|s| {
                        s.chars()
                            .next()
                            .map(|c| c.is_alphabetic() || c == '_')
                            .unwrap_or(false)
                            && **s != "mut"
                    })
                    .map(|s| s.to_string());
                let ty_idents: Vec<String> = texts[colon + 1..]
                    .iter()
                    .filter(|s| {
                        s.chars()
                            .next()
                            .map(|c| c.is_alphabetic() || c == '_')
                            .unwrap_or(false)
                            && !is_keyword(s)
                    })
                    .map(|s| s.to_string())
                    .collect();
                if let Some(name) = name {
                    params.push(Param { name, ty_idents });
                }
            }
            k = m + 1;
        }
        (params, has_self)
    }

    /// Walk a fn body, collecting call/panic/taint/lock/indexing facts.
    /// Nested `fn`/`mod`/`impl` items become their own [`FnItem`]s and are
    /// skipped here.
    fn walk_body(
        &mut self,
        item: &mut FnItem,
        start: usize,
        end: usize,
        modpath: &mut Vec<String>,
        self_ty: Option<&str>,
    ) {
        // local binding names: params + `let` bindings seen so far; calls to
        // these are closure/fn-pointer invocations, not resolvable edges.
        let mut locals: Vec<String> = item.params.iter().map(|p| p.name.clone()).collect();
        let mut i = start;
        while i < end {
            let t = &self.toks[i];
            let text = t.text.as_str();
            if let Some((kind, what)) = banned_api(self.toks, i) {
                item.taints.push(TaintSite {
                    line: t.line,
                    kind,
                    what,
                });
            }
            match text {
                "fn" => {
                    // nested fn: its own item; skip its span here
                    let next = self.parse_fn(i, end, modpath, self_ty);
                    i = next;
                    continue;
                }
                "mod" | "impl" | "trait" => {
                    // items nested in bodies (rare): delegate to the item
                    // walker for just this item
                    let mut j = i + 1;
                    while j < end && !self.toks[j].is("{") && !self.toks[j].is(";") {
                        j += 1;
                    }
                    if j < end && self.toks[j].is("{") {
                        let close = self.brace_close[j];
                        self.walk_items(i, close + 1, modpath, self_ty);
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                    continue;
                }
                "static" => {
                    i = self.parse_static(i, end);
                    continue;
                }
                "let" => {
                    if let Some(n) = self.toks.get(i + 1) {
                        let nm = if n.is("mut") {
                            self.toks.get(i + 2).map(|t| t.text.clone())
                        } else {
                            Some(n.text.clone())
                        };
                        if let Some(nm) = nm {
                            if nm.chars().next().map(|c| c.is_alphabetic() || c == '_')
                                == Some(true)
                            {
                                locals.push(nm);
                            }
                        }
                    }
                }
                // `expr[i]` indexing (advisory panic source)
                "[" if i > start => {
                    let p = self.toks[i - 1].text.as_str();
                    let prev_is_expr = p == ")"
                        || p == "]"
                        || (p
                            .chars()
                            .next()
                            .map(|c| c.is_alphanumeric() || c == '_')
                            .unwrap_or(false)
                            && !is_keyword(p));
                    if prev_is_expr {
                        item.indexing.push(t.line);
                    }
                }
                _ => {}
            }

            // macro invocation: `name !`
            if self.toks.get(i + 1).map(|n| n.is("!")) == Some(true)
                && text
                    .chars()
                    .next()
                    .map(|c| c.is_alphabetic() || c == '_')
                    .unwrap_or(false)
                && i + 2 < end
                && (self.toks[i + 2].is("(")
                    || self.toks[i + 2].is("[")
                    || self.toks[i + 2].is("{"))
            {
                if PANIC_MACROS.contains(&text) {
                    item.panics.push(PanicSite {
                        line: t.line,
                        what: format!("{text}!"),
                    });
                }
                i += 2; // keep scanning inside the macro args
                continue;
            }

            // call forms: `ident (`
            if self.toks.get(i + 1).map(|n| n.is("(")) == Some(true)
                && text
                    .chars()
                    .next()
                    .map(|c| c.is_alphabetic() || c == '_')
                    .unwrap_or(false)
                && !is_keyword(text)
            {
                let close = match_paren(self.toks, i + 1);
                let forwards_clock = self.args_forward_clock(i + 2, close);
                let prev = if i > 0 {
                    self.toks[i - 1].text.as_str()
                } else {
                    ""
                };
                if prev == "." {
                    // `.unwrap()` / `.expect(…)` are panic sinks, not edges
                    if text == "unwrap" || text == "expect" {
                        item.panics.push(PanicSite {
                            line: t.line,
                            what: text.to_string(),
                        });
                        i += 1;
                        continue;
                    }
                    let recv = self.recv_chain(i - 1);
                    // `clock.<m>(…)` with m != now is a direct charge
                    if recv.as_slice() == ["clock"] && text != "now" {
                        item.direct_charge = true;
                    }
                    if LOCK_OPS.contains(&text) {
                        let held_to = self.held_span_end(i, end, &locals);
                        item.locks.push(LockAcq {
                            line: t.line,
                            tok: i,
                            recv: recv.clone(),
                            op: text.to_string(),
                            held_to,
                        });
                    }
                    item.calls.push(CallSite {
                        line: t.line,
                        tok: i,
                        callee: Callee::Method {
                            name: text.to_string(),
                            recv,
                        },
                        forwards_clock,
                    });
                } else if prev == "::" {
                    let qualifier = if i >= 2 {
                        let q = self.toks[i - 2].text.clone();
                        if q == "Self" {
                            self_ty.map(|s| s.to_string()).unwrap_or(q)
                        } else {
                            q
                        }
                    } else {
                        String::new()
                    };
                    item.calls.push(CallSite {
                        line: t.line,
                        tok: i,
                        callee: Callee::Qualified {
                            qualifier,
                            name: text.to_string(),
                        },
                        forwards_clock,
                    });
                } else if !locals.contains(&t.text) {
                    item.calls.push(CallSite {
                        line: t.line,
                        tok: i,
                        callee: Callee::Free {
                            name: text.to_string(),
                        },
                        forwards_clock,
                    });
                }
                i += 1;
                continue;
            }
            i += 1;
        }
    }

    /// `clock` passed bare (followed by `,` or `)`) anywhere in `[start,
    /// end)` — the callee receives the clock itself.
    fn args_forward_clock(&self, start: usize, end: usize) -> bool {
        (start..end).any(|k| {
            self.toks[k].is("clock")
                && self
                    .toks
                    .get(k + 1)
                    .map(|n| n.is(",") || n.is(")"))
                    .unwrap_or(false)
        })
    }

    /// Receiver ident chain for the method call whose `.` sits at `dot`:
    /// `self.store.state.lock()` → `["self", "store", "state"]`. Empty if
    /// the receiver is not a plain ident chain (e.g. a call result).
    fn recv_chain(&self, dot: usize) -> Vec<String> {
        let mut chain = Vec::new();
        let mut k = dot; // points at `.`
        loop {
            if k == 0 {
                break;
            }
            let prev = &self.toks[k - 1];
            let is_ident = prev
                .text
                .chars()
                .next()
                .map(|c| c.is_alphanumeric() || c == '_')
                .unwrap_or(false);
            if !is_ident {
                break;
            }
            chain.push(prev.text.clone());
            if k >= 2 && self.toks[k - 2].is(".") {
                k -= 2;
            } else {
                break;
            }
        }
        chain.reverse();
        chain
    }

    /// Over-approximated held-span end for the lock acquired at token `at`:
    /// `let`-bound guards are held to the end of the enclosing block (cut
    /// short by an explicit `drop(name)`); temporaries to the end of the
    /// statement (which covers `match scrutinee { … }` blocks).
    ///
    /// A `let` binds the *guard* only when the lock call is the final
    /// expression of the statement (`let g = m.lock();`, optionally through
    /// one `.expect(…)`/`.unwrap()` Result adapter). Any further chaining
    /// (`let v = m.lock().field;`, `….clone()`) binds a projection — the
    /// guard is a temporary that drops at the statement end.
    fn held_span_end(&self, at: usize, body_end: usize, _locals: &[String]) -> usize {
        // find the start of the statement: scan back for `;`, `{`, or `}`
        let mut s = at;
        while s > 0 {
            let t = self.toks[s - 1].text.as_str();
            if t == ";" || t == "{" || t == "}" {
                break;
            }
            s -= 1;
        }
        // `let name = … .lock()` → guard bound; held to enclosing block end
        // (`if let` / `while let` scrutinees are temporaries, not bindings)
        let mut binding: Option<String> = None;
        let mut k = s;
        while k < at {
            if self.toks[k].is("let")
                && !(k > 0 && (self.toks[k - 1].is("if") || self.toks[k - 1].is("while")))
            {
                let mut n = k + 1;
                if self.toks.get(n).map(|t| t.is("mut")) == Some(true) {
                    n += 1;
                }
                binding = self.toks.get(n).map(|t| t.text.clone());
                break;
            }
            k += 1;
        }
        // binding must capture the guard itself: after the lock call (and
        // at most one `.expect(…)`/`.unwrap()` hop), the statement ends
        if binding.is_some() {
            let mut e = match_paren(self.toks, at + 1) + 1;
            if self.toks.get(e).map(|t| t.is(".")) == Some(true)
                && self
                    .toks
                    .get(e + 1)
                    .map(|t| t.is("expect") || t.is("unwrap"))
                    == Some(true)
                && self.toks.get(e + 2).map(|t| t.is("(")) == Some(true)
            {
                e = match_paren(self.toks, e + 2) + 1;
            }
            if self.toks.get(e).map(|t| t.is(";")) != Some(true) {
                binding = None; // a projection is bound, not the guard
            }
        }
        if let Some(name) = binding {
            // enclosing block end: nearest unmatched `}` scanning forward
            let mut depth = 0i32;
            let mut m = at;
            let mut block_end = body_end;
            while m < body_end {
                match self.toks[m].text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth < 0 {
                            block_end = m;
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            // explicit `drop(name)` inside the block cuts the span
            let mut d = at;
            while d + 2 < block_end {
                if self.toks[d].is("drop")
                    && self.toks[d + 1].is("(")
                    && self.toks[d + 2].text == name
                {
                    return d;
                }
                d += 1;
            }
            block_end
        } else {
            // temporary: held to the end of this statement. A depth-0 `,`
            // (match-arm separator, tuple/argument boundary) also ends the
            // span — otherwise a guard used in one match arm would appear
            // held across the sibling arms.
            let mut depth = 0i32;
            let mut m = match_paren(self.toks, at + 1) + 1;
            while m < body_end {
                match self.toks[m].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "}" => {
                        depth -= 1;
                        if depth < 0 {
                            return m;
                        }
                        // a depth-0 block closing ends a block-expression
                        // statement (`if let … { }`, `match … { }`) — the
                        // scrutinee temporary drops here — unless an `else`
                        // continues the same statement
                        if depth == 0 && self.toks.get(m + 1).map(|t| t.is("else")) != Some(true) {
                            return m;
                        }
                    }
                    ";" | "," if depth == 0 => return m,
                    _ => {}
                }
                m += 1;
            }
            body_end
        }
    }
}

/// Lock kind from a field/static's type idents, if it is a lock.
fn lock_kind_of(ty_idents: &[String]) -> Option<LockDeclKind> {
    for id in ty_idents {
        match id.as_str() {
            "Mutex" | "StdMutex" => return Some(LockDeclKind::Mutex),
            "RwLock" => return Some(LockDeclKind::RwLock),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns_of(src: &str) -> FileSyms {
        extract(&Source::new("crates/x/src/a.rs", src))
    }

    #[test]
    fn extracts_fn_with_context() {
        let s = fns_of("mod m { impl Foo { fn bar(&self, n: u64) -> u64 { baz(n) } } }");
        assert_eq!(s.fns.len(), 1);
        let f = &s.fns[0];
        assert_eq!(f.name, "bar");
        assert_eq!(f.modpath, vec!["m"]);
        assert_eq!(f.self_ty.as_deref(), Some("Foo"));
        assert!(f.has_self);
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].callee.name(), "baz");
    }

    #[test]
    fn clock_param_and_direct_charge() {
        let s = fns_of("fn op(clock: &mut Clock) { clock.advance(d); }");
        assert!(s.fns[0].takes_clock);
        assert!(s.fns[0].direct_charge);
        let s = fns_of("fn op(clock: &mut Clock) { let t = clock.now(); }");
        assert!(s.fns[0].takes_clock);
        assert!(!s.fns[0].direct_charge);
        let s = fns_of("fn op(_clock: &mut Clock) {}");
        assert!(!s.fns[0].takes_clock);
        assert!(s.fns[0].free_clock);
    }

    #[test]
    fn forwarding_is_bare_clock_only() {
        let s = fns_of("fn op(clock: &mut Clock) { inner(clock, 1); other(clock.now()); }");
        let calls = &s.fns[0].calls;
        let inner = calls.iter().find(|c| c.callee.name() == "inner").unwrap();
        assert!(inner.forwards_clock);
        let other = calls.iter().find(|c| c.callee.name() == "other").unwrap();
        assert!(!other.forwards_clock);
    }

    #[test]
    fn method_receiver_chains() {
        let s = fns_of("fn f(&self) { self.store.state.lock().leases.clear(); }");
        let f = &s.fns[0];
        let lock = &f.locks[0];
        assert_eq!(lock.recv, vec!["self", "store", "state"]);
        assert_eq!(lock.op, "lock");
    }

    #[test]
    fn panic_sites_and_macros() {
        let s = fns_of(
            "fn f(x: Option<u32>) { x.unwrap(); x.expect(\"no\"); panic!(\"boom\"); \
             unreachable!(); assert!(true); }",
        );
        let whats: Vec<&str> = s.fns[0].panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(whats, vec!["unwrap", "expect", "panic!", "unreachable!"]);
    }

    #[test]
    fn closure_bodies_attribute_to_enclosing_fn() {
        let s =
            fns_of("fn f(v: Vec<u32>) { v.iter().map(|x| helper(*x)).for_each(|y| { g(y); }); }");
        let names: Vec<&str> = s.fns[0].calls.iter().map(|c| c.callee.name()).collect();
        assert!(names.contains(&"helper"));
        assert!(names.contains(&"g"));
    }

    #[test]
    fn nested_fn_is_its_own_item() {
        let s = fns_of("fn outer() { fn inner() { leaf(); } inner(); }");
        assert_eq!(s.fns.len(), 2);
        let inner = s.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(inner.calls[0].callee.name(), "leaf");
        let outer = s.fns.iter().find(|f| f.name == "outer").unwrap();
        assert_eq!(outer.calls.len(), 1, "inner's body must not leak to outer");
        assert_eq!(outer.calls[0].callee.name(), "inner");
    }

    #[test]
    fn calls_to_params_and_locals_are_skipped() {
        let s = fns_of("fn f(op: impl Fn(u32)) { let cb = mk(); op(1); cb(2); real(3); }");
        let names: Vec<&str> = s.fns[0].calls.iter().map(|c| c.callee.name()).collect();
        assert!(!names.contains(&"op"));
        assert!(!names.contains(&"cb"));
        assert!(names.contains(&"real"));
        assert!(names.contains(&"mk"));
    }

    #[test]
    fn struct_lock_fields() {
        let s = fns_of(
            "struct Pool { inner: Mutex<Inner>, meta: Arc<RwLock<Meta>>, size: usize, \
             dev: Arc<Device> }",
        );
        let st = &s.structs[0];
        assert_eq!(st.name, "Pool");
        let locks: Vec<(&str, Option<LockDeclKind>)> =
            st.fields.iter().map(|(n, _, k)| (n.as_str(), *k)).collect();
        assert_eq!(
            locks,
            vec![
                ("inner", Some(LockDeclKind::Mutex)),
                ("meta", Some(LockDeclKind::RwLock)),
                ("size", None),
                ("dev", None),
            ]
        );
        let dev = &st.fields[3];
        assert_eq!(dev.1, vec!["Arc", "Device"]);
    }

    #[test]
    fn static_locks_including_fn_scoped() {
        let s = fns_of(
            "static GLOBAL: Mutex<Vec<u32>> = Mutex::new(Vec::new());\n\
             fn f() { static POOL: Mutex<u32> = Mutex::new(0); POOL.lock(); }",
        );
        let names: Vec<&str> = s.statics.iter().map(|x| x.name.as_str()).collect();
        assert!(names.contains(&"GLOBAL"));
        assert!(names.contains(&"POOL"));
    }

    #[test]
    fn held_span_let_vs_temporary() {
        // let-bound: held across the later acquisition → both locks overlap
        let s = fns_of(
            "fn f(&self) { let g = self.a.lock(); self.b.lock().push(1); }\n\
             fn h(&self) { self.a.lock().clear(); self.b.lock().push(1); }",
        );
        let f = &s.fns[0];
        let (a, b) = (&f.locks[0], &f.locks[1]);
        assert!(b.tok < a.held_to, "let-bound guard spans the second lock");
        let h = &s.fns[1];
        let (a2, b2) = (&h.locks[0], &h.locks[1]);
        assert!(
            b2.tok > a2.held_to,
            "temporary guard drops at the statement end"
        );
    }

    #[test]
    fn drop_cuts_held_span() {
        let s = fns_of("fn f(&self) { let g = self.a.lock(); drop(g); self.b.lock().push(1); }");
        let f = &s.fns[0];
        assert!(f.locks[1].tok > f.locks[0].held_to);
    }

    #[test]
    fn let_of_projection_is_a_temporary() {
        // `let id = m.lock().field;` and `let v = m.read().clone();` bind the
        // projection; the guard drops at the statement end, not the block end
        let s = fns_of(
            "fn f(&self) { let id = self.state.lock().lease; self.state.lock().bump(); }\n\
             fn g(&self) { let m = self.metrics.read().clone(); self.wr.lock().push(m); }",
        );
        for item in &s.fns {
            let (a, b) = (&item.locks[0], &item.locks[1]);
            assert!(
                b.tok > a.held_to,
                "projection binding in `{}` must not hold the guard",
                item.name
            );
        }
    }

    #[test]
    fn expect_adapter_still_binds_guard() {
        let s = fns_of(
            "fn f(&self) { let g = self.a.lock().expect(\"poisoned\"); self.b.lock().push(1); }",
        );
        let f = &s.fns[0];
        assert!(f.locks[1].tok < f.locks[0].held_to);
    }

    #[test]
    fn if_let_scrutinee_is_a_temporary() {
        let s = fns_of(
            "fn f(&self) { if let Some(x) = self.a.lock().pop() { use_it(x); } self.b.lock().push(1); }",
        );
        let f = &s.fns[0];
        assert!(f.locks[1].tok > f.locks[0].held_to);
    }

    #[test]
    fn match_arm_temporary_does_not_span_sibling_arms() {
        // the arm-1 guard must not appear held while arm 2's call runs
        let s = fns_of(
            "fn f(&self) { match probe() { Some(c) => self.pending.lock().push(c), None => self.fold() } }",
        );
        let f = &s.fns[0];
        let acq = &f.locks[0];
        let fold = f
            .calls
            .iter()
            .find(|c| c.callee.name() == "fold")
            .expect("fold call extracted");
        assert!(
            fold.tok > acq.held_to,
            "guard must end at the arm separator"
        );
    }

    #[test]
    fn taint_sites_by_kind() {
        let s = fns_of(
            "fn f() { let t = Instant::now(); thread::sleep(d); }\n\
             fn g() { let id = thread::current(); let n = available_parallelism(); }",
        );
        let f = &s.fns[0];
        assert!(f.taints.iter().all(|t| t.kind == TaintKind::WallClock));
        assert_eq!(f.taints.len(), 2);
        let g = &s.fns[1];
        assert!(g.taints.iter().all(|t| t.kind == TaintKind::NondetParallel));
        assert_eq!(g.taints.len(), 2);
    }

    #[test]
    fn trait_signatures_are_recorded_without_bodies() {
        let s = fns_of("trait Dev { fn read(&self, clock: &mut Clock) -> u64; }");
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].self_ty.as_deref(), Some("Dev"));
        assert!(s.fns[0].takes_clock);
        assert!(s.fns[0].calls.is_empty());
    }

    #[test]
    fn impl_trait_for_type_uses_the_type() {
        let s =
            fns_of("impl Device for Ssd { fn read(&self, clock: &mut Clock) { clock.tick(); } }");
        assert_eq!(s.fns[0].self_ty.as_deref(), Some("Ssd"));
        assert!(s.fns[0].direct_charge);
    }

    #[test]
    fn generic_impl_uses_the_type_not_its_parameter() {
        let s = fns_of(
            "impl<O: IoObserver> Device for Observed<O> { \
             fn read(&self, clock: &mut Clock) { self.inner.read(clock); } } \
             impl<O> Observed<O> where O: IoObserver { fn observer(&self) {} }",
        );
        assert_eq!(s.fns[0].self_ty.as_deref(), Some("Observed"));
        assert!(s.fns[0].calls[0].forwards_clock);
        assert_eq!(s.fns[1].self_ty.as_deref(), Some("Observed"));
    }

    #[test]
    fn generic_fn_header_with_fn_trait_bounds() {
        let s =
            fns_of("fn run<F: FnMut(usize) -> u64>(&mut self, op: F) -> u64 { self.step(); 0 }");
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "run");
        assert_eq!(s.fns[0].calls[0].callee.name(), "step");
    }

    #[test]
    fn indexing_sites_are_advisory_only() {
        let s = fns_of("fn f(v: Vec<u32>, i: usize) { let x = v[i]; let a = [0u8; 4]; }");
        assert_eq!(s.fns[0].indexing.len(), 1);
    }

    #[test]
    fn qualified_and_self_calls() {
        let s = fns_of("impl Foo { fn f() { Self::g(); Bar::h(); } }");
        let calls = &s.fns[0].calls;
        assert_eq!(
            calls[0].callee,
            Callee::Qualified {
                qualifier: "Foo".into(),
                name: "g".into()
            }
        );
        assert_eq!(
            calls[1].callee,
            Callee::Qualified {
                qualifier: "Bar".into(),
                name: "h".into()
            }
        );
    }

    #[test]
    fn test_code_is_marked() {
        let s = fns_of("fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }");
        assert!(!s.fns.iter().find(|f| f.name == "lib").unwrap().is_test);
        assert!(s.fns.iter().find(|f| f.name == "t").unwrap().is_test);
    }
}
