//! Every metric a committed report publishes is moved by at least one arm of
//! one report, or it is on [`NEVER_MOVED`] with the reason why.
//!
//! A counter that reads zero in every arm of every report is a mechanism no
//! figure drives. Either a report arm should drive it (with a check), or
//! the mechanism should go with its counter (ROADMAP item 19). Until that is
//! decided, the list below says why each one is still zero. It cannot rot:
//! an entry whose metric moves, or that no report publishes, fails too.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use remem_bench::json::{parse, Json};
use remem_bench::report::{report_names, report_path};

const MEMORY_PRESSURE: &str =
    "the memory-pressure path (reclaim, revocation, migration): only tests drive it (item 19)";
const FAULT_FREE: &str = "no report injects device errors";
const NEVER_FORCED: &str = "only the log device is forced";

/// Metrics that read zero in every arm of every committed report, each with
/// the reason.
const NEVER_MOVED: &[(&str, &str)] = &[
    (
        "broker.leases.released",
        "no report deletes a remote file (Table 2's Delete): each lives until its arm ends",
    ),
    ("broker.leases.revoked", MEMORY_PRESSURE),
    ("broker.reclaimed.bytes", MEMORY_PRESSURE),
    ("broker.revocations_expired", MEMORY_PRESSURE),
    (
        "fabric.pushdown.errors",
        "the pushdown sweep runs fault-free",
    ),
    (
        "rfile.failovers",
        "repro_failover_recovery's k=2 crash falls between I/Os: the next verb's lease check \
         adopts the fenced epoch and repairs the deficit (rfile.repairs) before any verb \
         reaches the dead donor, so no I/O fails over mid-flight",
    ),
    ("rfile.migrations", MEMORY_PRESSURE),
    (
        "semantic.invalidations",
        "no report updates a table a materialized view is built on",
    ),
    (
        "semantic.misses",
        "Fig 15a asks only for the views it just built, and none is lost",
    ),
    ("storage.bpext.force.ops", NEVER_FORCED),
    ("storage.data.force.ops", NEVER_FORCED),
    ("storage.data.read.errors", FAULT_FREE),
    ("storage.data.write.errors", FAULT_FREE),
    ("storage.log.read.errors", FAULT_FREE),
    ("storage.log.write.errors", FAULT_FREE),
    ("storage.tempdb.force.ops", NEVER_FORCED),
    ("storage.tempdb.read.errors", FAULT_FREE),
    ("storage.tempdb.write.errors", FAULT_FREE),
    (
        "tempdb.live.bytes",
        "a gauge read at each arm's end, when every spill has returned its extents",
    ),
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn num(v: &Json) -> f64 {
    match v {
        Json::Num(n) => *n,
        _ => 0.0,
    }
}

/// Whether one metric's dumped value moved, by the section it sits in.
fn moved(section: &str, value: &Json) -> bool {
    match section {
        "counters" | "gauges" => num(value) != 0.0,
        "histograms" | "spans" => value.get("count").map_or(0.0, num) != 0.0,
        "series" => match value.get("sums") {
            Some(Json::Arr(sums)) => sums.iter().any(|s| num(s) != 0.0),
            _ => false,
        },
        _ => false,
    }
}

/// Every metric in the committed reports' per-arm dumps, and whether any
/// arm of any report moved it.
fn published() -> BTreeMap<String, bool> {
    let root = repo_root();
    let mut metrics = BTreeMap::new();
    for name in report_names(&root).expect("list reports") {
        let path = report_path(&root, &name);
        let text = std::fs::read_to_string(&path).expect("read report");
        let doc = parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
        let Some(Json::Arr(arms)) = doc.get("metrics").and_then(|m| m.get("arms")) else {
            continue;
        };
        for arm in arms {
            for section in ["counters", "gauges", "histograms", "series", "spans"] {
                let Some(Json::Obj(fields)) = arm.get(section) else {
                    continue;
                };
                for (metric, value) in fields {
                    *metrics.entry(metric.clone()).or_insert(false) |= moved(section, value);
                }
            }
        }
    }
    metrics
}

#[test]
fn every_published_metric_moves_in_some_report_arm() {
    let metrics = published();
    assert!(!metrics.is_empty(), "no report carries a per-arm dump");
    let dead: Vec<&String> = metrics
        .iter()
        .filter(|(m, &moved)| !moved && !NEVER_MOVED.iter().any(|(n, _)| n == m))
        .map(|(m, _)| m)
        .collect();
    assert!(
        dead.is_empty(),
        "metrics that read zero in every arm of every report: {dead:?} — drive each \
         from a report arm, delete it with its mechanism, or list it in NEVER_MOVED \
         with the reason"
    );
}

#[test]
fn never_moved_lists_only_metrics_that_read_zero_everywhere() {
    let metrics = published();
    for (metric, reason) in NEVER_MOVED {
        assert!(!reason.is_empty(), "{metric} needs a reason");
        match metrics.get(*metric) {
            None => panic!("{metric} is listed but no report publishes it"),
            Some(true) => panic!("{metric} is listed but some report arm moves it"),
            Some(false) => {}
        }
    }
}
