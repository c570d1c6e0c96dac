//! The lint over this repository's own tree, as CI's lint job runs it:
//! `cargo test` fails wherever `remem-audit lint` would.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use remem_audit::lexer::Source;
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

/// Nothing public goes unreached: every `pub fn` under `crates/*/src`
/// (outside `#[cfg(test)]` items, `src/main.rs` and `src/bin/*`) is named
/// by some other target — another crate, a crate's `tests/`, `benches/`,
/// `src/main.rs` or `src/bin/*`, the root `tests/` and `examples/`, or
/// `perf/`. Otherwise it is `pub(crate)`, where rustc's `dead_code` lint
/// sees it. Matching by name is conservative: it can miss a dead fn but
/// never flags a live one.
#[test]
fn every_pub_fn_is_named_by_another_target() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "perf"] {
        collect_rs(&root.join(dir), &mut files);
    }
    let rel = |p: &Path| {
        p.strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/")
    };
    // a crate's library source: the files whose `pub fn`s are checked
    let lib_crate = |path: &str| -> Option<String> {
        let rest = path.strip_prefix("crates/")?;
        let (krate, in_crate) = rest.split_once('/')?;
        let lib = in_crate.starts_with("src/")
            && in_crate != "src/main.rs"
            && !in_crate.starts_with("src/bin/");
        lib.then(|| krate.to_string())
    };
    // identifier words per target group, keyed by the crate whose library
    // they belong to (`None`: a target outside every library)
    let mut words: Vec<(Option<String>, HashSet<String>)> = Vec::new();
    let mut pub_fns = Vec::new();
    for f in &files {
        let path = rel(f);
        let text = std::fs::read_to_string(f).expect("source reads");
        let krate = lib_crate(&path);
        let set = text
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .map(str::to_string)
            .collect();
        words.push((krate.clone(), set));
        let Some(krate) = krate else { continue };
        let src = Source::new(&path, &text);
        for (i, w) in src.toks.windows(3).enumerate() {
            let fn_at = if w[1].is("fn") {
                1
            } else if ["const", "unsafe", "async"].contains(&w[1].text.as_str()) && w[2].is("fn") {
                2
            } else {
                continue;
            };
            let Some(name) = src.toks.get(i + fn_at + 1) else {
                continue;
            };
            if w[0].is("pub") && !src.in_test(i) {
                pub_fns.push((
                    krate.clone(),
                    name.text.clone(),
                    format!("{path}:{}", w[0].line),
                ));
            }
        }
    }
    let unnamed: Vec<String> = pub_fns
        .into_iter()
        .filter(|(krate, name, _)| {
            !words
                .iter()
                .any(|(k, set)| k.as_ref() != Some(krate) && set.contains(name))
        })
        .map(|(_, name, at)| format!("{at} {name}"))
        .collect();
    assert!(
        unnamed.is_empty(),
        "{} `pub fn`s no other target names; make them `pub(crate)`:\n{}",
        unnamed.len(),
        unnamed.join("\n")
    );
}

/// Every `*.rs` under `dir`, skipping build output and the audit's
/// fixture trees (test data, not targets).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries {
        let p = e.expect("dir entry").path();
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if name != "target" && name != "fixtures" {
                collect_rs(&p, out);
            }
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

/// Every `a::b` path DESIGN.md names outside code fences, where `a` is a
/// crate (`net`, `remem_net`) or a module file (`verbs`, rfile's
/// `engine`), resolves: `b` is a module file under `a` or an item declared
/// in it. A path resolves if any crate or module named `a` holds `b`.
#[test]
fn design_doc_module_paths_resolve() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    // name -> every scope of that name (a crate or a module file)
    let mut scopes: Vec<(String, HashSet<String>)> = Vec::new();
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    crates.sort();
    for krate in crates {
        let src = krate.join("src");
        let mut files = Vec::new();
        collect_rs(&src, &mut files);
        let mut in_crate: HashSet<String> = module_children(&src);
        for f in &files {
            let declared = declared_items(f);
            in_crate.extend(declared.iter().cloned());
            let stem = f.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            if !["lib", "main", "mod"].contains(&stem) {
                let mut in_module = declared;
                in_module.extend(module_children(&f.with_extension("")));
                scopes.push((stem.to_string(), in_module));
            }
        }
        let manifest = std::fs::read_to_string(krate.join("Cargo.toml")).expect("manifest reads");
        let package = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|l| l.strip_suffix('"'))
            .expect("package name")
            .replace('-', "_");
        let dir = krate
            .file_name()
            .and_then(|n| n.to_str())
            .expect("crate dir");
        scopes.push((dir.to_string(), in_crate.clone()));
        scopes.push((package, in_crate));
    }
    let doc = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md reads");
    let mut unresolved = Vec::new();
    let mut fenced = false;
    for (n, line) in doc.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let words: Vec<&str> = line
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
            .collect();
        for path in words.iter().filter(|w| w.contains("::")) {
            let segs: Vec<&str> = path.split("::").collect();
            for pair in segs.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                if b.is_empty() {
                    continue;
                }
                let mut named = scopes.iter().filter(|(name, _)| name == a).peekable();
                if named.peek().is_some() && !named.any(|(_, items)| items.contains(b)) {
                    unresolved.push(format!("DESIGN.md:{} {a}::{b}", n + 1));
                }
            }
        }
    }
    assert!(
        unresolved.is_empty(),
        "module paths that name nothing:\n{}",
        unresolved.join("\n")
    );
}

/// Module files and directories directly under `dir`.
fn module_children(dir: &Path) -> HashSet<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return HashSet::new();
    };
    entries
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_dir() || p.extension().is_some_and(|x| x == "rs"))
        .filter_map(|p| p.file_stem().and_then(|s| s.to_str()).map(str::to_string))
        .collect()
}

/// Item and module names a file declares.
fn declared_items(file: &Path) -> HashSet<String> {
    const KEYWORDS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "const", "static", "type", "mod",
    ];
    let text = std::fs::read_to_string(file).expect("source reads");
    let toks = Source::new(&file.to_string_lossy(), &text).toks;
    toks.windows(2)
        .filter(|w| KEYWORDS.contains(&w[0].text.as_str()))
        .map(|w| w[1].text.clone())
        .collect()
}
