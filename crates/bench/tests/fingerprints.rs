//! Every committed report is whole and accounted for.
//!
//! The determinism fingerprint (`fnv1a:<16 hex>` over the whole report
//! minus its volatile notes) is the byte-level contract the kernel
//! optimizations promise to preserve. Each `repro_*` binary commits exactly
//! one report, `BENCH_<name>.json` at the repo root, and the fingerprint it
//! carries must be the one [`fingerprint`] recomputes from its contents —
//! so a report edited by hand, or left stale beside a changed serializer,
//! fails here. Whether a rerun still produces the same fingerprint is
//! `remem-bench --identical <repo root> <scratch root>`'s job; see
//! EXPERIMENTS.md "Refreshing baselines".

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use remem_bench::json::{parse, Json};
use remem_bench::report::{fingerprint, report_names, report_path, SCHEMA};

/// Repo root, resolved from this crate's manifest (`crates/bench/../..`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// The reports under `root` with no binary in `bins`, and the binaries in
/// `bins` with no report under `root`.
fn unmatched(root: &Path, bins: &Path) -> (Vec<String>, Vec<String>) {
    let reports: BTreeSet<String> = report_names(root)
        .expect("list reports")
        .into_iter()
        .collect();
    let binaries: BTreeSet<String> = std::fs::read_dir(bins)
        .expect("list binaries")
        .filter_map(|e| {
            let name = e.ok()?.file_name().to_string_lossy().into_owned();
            name.strip_suffix(".rs").map(str::to_string)
        })
        .collect();
    (
        reports.difference(&binaries).cloned().collect(),
        binaries.difference(&reports).cloned().collect(),
    )
}

#[test]
fn committed_reports_recompute_to_their_fingerprint() {
    let root = repo_root();
    let names = report_names(&root).expect("list reports");
    assert!(!names.is_empty(), "no BENCH_*.json at {}", root.display());
    for name in names {
        let path = report_path(&root, &name);
        let file = path.display();
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {file}: {e}"));
        let doc = parse(&text).unwrap_or_else(|e| panic!("parse {file}: {e}"));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(SCHEMA),
            "{file}"
        );
        let stored = doc.get("fingerprint").and_then(Json::as_str);
        assert_eq!(
            stored,
            Some(fingerprint(&doc).as_str()),
            "{file} does not recompute to its fingerprint — rerun its binary \
             instead of editing the file"
        );
    }
}

#[test]
fn reports_and_binaries_name_the_same_set() {
    let root = repo_root();
    let (stray, missing) = unmatched(&root, &root.join("crates/bench/src/bin"));
    assert!(stray.is_empty(), "BENCH_ reports with no binary: {stray:?}");
    assert!(
        missing.is_empty(),
        "binaries with no BENCH_ report: {missing:?}"
    );
}

#[test]
fn a_stray_report_or_a_binary_without_one_is_unmatched() {
    let tmp = std::env::temp_dir().join(format!("remem-bench-pins-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    let bins = tmp.join("bin");
    std::fs::create_dir_all(&bins).unwrap();
    for file in [
        "BENCH_repro_a.json",
        "BENCH_repro_stray.json",
        "BENCHMARK.json",
    ] {
        std::fs::write(tmp.join(file), "{}").unwrap();
    }
    for file in ["repro_a.rs", "repro_b.rs"] {
        std::fs::write(bins.join(file), "").unwrap();
    }
    let (stray, missing) = unmatched(&tmp, &bins);
    assert_eq!(stray, ["repro_stray"]);
    assert_eq!(missing, ["repro_b"]);
    std::fs::remove_dir_all(&tmp).ok();
}
