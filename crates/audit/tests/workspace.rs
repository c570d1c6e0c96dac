//! The lint over this repository's own tree, as CI's lint job runs it:
//! `cargo test` fails wherever `remem-audit lint` would.

use std::path::PathBuf;

use remem_audit::{analyze_tree, PRAGMA_BUDGET};

#[test]
fn repo_tree_is_clean_within_the_pragma_budget() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let a = analyze_tree(&root).expect("repo tree walks");
    let found: Vec<String> = a.violations.iter().map(|v| v.to_string()).collect();
    assert!(found.is_empty(), "lint findings:\n{}", found.join("\n"));
    let pragmas = a.waivers.known_pragmas();
    assert!(
        pragmas <= PRAGMA_BUDGET,
        "{pragmas} pragmas > budget {PRAGMA_BUDGET}"
    );
}
