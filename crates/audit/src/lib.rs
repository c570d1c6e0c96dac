//! `remem-audit`: the workspace's determinism lint and runtime invariant
//! auditor.
//!
//! Replay determinism (seeded chaos schedules reproduce byte-identical
//! checksums and `FaultLog` fingerprints) is this repo's core guarantee,
//! and exact lease/MR/grant accounting is what makes the paper's remote
//! memory results trustworthy. Neither survives on discipline alone, so
//! this crate enforces both:
//!
//! * [`lexer`] — the front end: each `crates/**/*.rs` file is stripped and
//!   tokenized once into a [`lexer::Source`] (tokens, test spans, crate,
//!   pragmas) that every later stage reads.
//! * [`rules`] — the per-line rules over a `Source`, the banned-API table
//!   and the one waiver table. See the module docs and DESIGN.md
//!   "Determinism rules" for the rule list.
//! * [`symbols`] + [`callgraph`] + [`passes`] — the whole-workspace
//!   interprocedural layer: a symbol-table / call-graph extractor over the
//!   same `Source`s, and four graph passes (clock-charge soundness, panic
//!   reachability from the sim kernel, lock-order deadlock detection,
//!   determinism taint).
//! * [`analyze_tree`] runs everything, `cargo run -p remem-audit -- lint`;
//!   `graph` / `paths` subcommands expose the model.
//! * [`invariants`] — the [`Auditor`] that broker, NIC, and buffer pool
//!   feed after every mutation to cross-check conservation invariants.

use std::path::{Path, PathBuf};

pub mod callgraph;
pub mod invariants;
pub mod lexer;
pub mod passes;
pub mod rules;
pub mod symbols;

pub use invariants::{AuditViolation, Auditor, Field};
pub use rules::{Violation, Waivers};

use callgraph::Workspace;
use lexer::Source;
use passes::Advisory;

/// Hard ceiling on `// audit: allow` pragmas across the tree: the escape
/// hatch must stay an exception, not a lifestyle.
pub const PRAGMA_BUDGET: usize = 10;

/// Everything one full-workspace run produces.
pub struct Analysis {
    pub violations: Vec<Violation>,
    pub advisory: Advisory,
    /// The pragma table after every consumer ran.
    pub waivers: Waivers,
    /// The resolved model, for the `graph` / `paths` subcommands.
    pub workspace: Workspace,
}

/// Analyze every `crates/**/*.rs` under `root`.
pub fn analyze_tree(root: &Path) -> std::io::Result<Analysis> {
    let mut paths = Vec::new();
    collect_rs(&root.join("crates"), &mut paths)?;
    let mut sources = Vec::new();
    for f in &paths {
        let rel = f.strip_prefix(root).unwrap_or(f).to_string_lossy();
        sources.push(Source::new(&rel, &std::fs::read_to_string(f)?));
    }
    Ok(analyze(&sources))
}

/// Run the per-line rules, the four interprocedural passes and pragma
/// hygiene over lexed files, sharing one waiver table.
pub fn analyze(sources: &[Source]) -> Analysis {
    let mut waivers = Waivers::new(sources);
    let mut violations = Vec::new();
    for (fi, src) in sources.iter().enumerate() {
        violations.extend(rules::lint_file(src, fi, &mut waivers));
    }
    let workspace = callgraph::build(sources.iter().map(symbols::extract).collect());
    let (pass_violations, advisory) = passes::run_passes(&workspace, &mut waivers);
    violations.extend(pass_violations);
    // hygiene last, after every consumer has had its chance at a pragma
    violations.extend(waivers.hygiene());
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Analysis {
        violations,
        advisory,
        waivers,
        workspace,
    }
}

/// Recursively collect `*.rs` files under `dir`, skipping `target` and
/// `fixtures` (the audit crate's own analysis test trees must not be
/// linted as workspace code).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries = std::fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?;
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().map(|n| n == "target" || n == "fixtures") == Some(true) {
                continue;
            }
            collect_rs(&p, out)?;
        } else if p.extension().map(|x| x == "rs") == Some(true) {
            out.push(p);
        }
    }
    Ok(())
}
