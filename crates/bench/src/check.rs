//! `remem-bench --check`: compare a fresh run against the committed reports.
//!
//! Both gates pair every `BENCH_<name>.json` in the **fresh** directory with
//! the committed file of the same name; which reports are gated is decided
//! by which binaries the caller ran, not by a list kept here. A fresh report
//! with no committed counterpart fails, an empty fresh directory is an
//! error, and files that are not reports (`BENCHMARK.json`) are skipped.
//!
//! `--check` does NOT diff bytes — runtimes legitimately move as the
//! simulator evolves. It asserts the things the paper actually claims:
//!
//! 1. every check recorded in the committed report still *re-derives* to
//!    pass from the **current** run's data (shape claims like "Custom ≥
//!    SMBDirect ≥ SMB" or "flat across donors" are re-evaluated, not
//!    trusted), and
//! 2. every designated gauge stays within its recorded drift tolerance of
//!    the committed value.
//!
//! A missing check id, missing gauge, or schema mismatch is a failure:
//! silently dropping a claim from the gate would be worse than a
//! regression. `--identical` compares determinism fingerprints instead.

use std::path::Path;

use crate::json::{parse, Json};
use crate::report::{evaluate, report_names, report_path, DRIFT_EPSILON, SCHEMA};

/// One comparator finding; `ok == false` fails the gate.
pub struct Finding {
    pub report: String,
    pub what: String,
    pub ok: bool,
}

/// Each fresh report paired with its committed counterpart, as `(report
/// name, committed, fresh)`. A fresh report with nothing committed to pair
/// with is recorded in `out` as a failure.
fn pairs(
    committed: &Path,
    fresh: &Path,
    out: &mut Vec<Finding>,
) -> Result<Vec<(String, Json, Json)>, String> {
    let names = report_names(fresh)?;
    if names.is_empty() {
        return Err(format!("no BENCH_*.json reports in {}", fresh.display()));
    }
    let mut pairs = Vec::new();
    for report in names {
        let base = report_path(committed, &report);
        if !base.exists() {
            out.push(Finding {
                what: format!("nothing committed at {}", base.display()),
                report,
                ok: false,
            });
            continue;
        }
        let (base, cur) = (load(&base)?, load(&report_path(fresh, &report))?);
        pairs.push((report, base, cur));
    }
    Ok(pairs)
}

/// Compare every report in `fresh` with the committed report of the same
/// name in `committed`. Returns all findings (pass and fail).
pub fn check_dirs(committed: &Path, fresh: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    for (report, base, cur) in pairs(committed, fresh, &mut findings)? {
        compare(&report, &base, &cur, &mut findings);
    }
    Ok(findings)
}

/// `remem-bench --identical`: assert that every report in `fresh` carries
/// the same determinism fingerprint as its counterpart in `committed`. CI's
/// replay gate: two runs of the same binaries on one machine must agree on
/// every semantic byte (volatile lines are already outside the
/// fingerprint).
pub fn identical_dirs(committed: &Path, fresh: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    for (report, a, b) in pairs(committed, fresh, &mut findings)? {
        let fp = |doc: &Json| -> Result<String, String> {
            doc.get("fingerprint")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("report {report} has no fingerprint"))
        };
        let (fa, fb) = (fp(&a)?, fp(&b)?);
        findings.push(Finding {
            report,
            what: if fa == fb {
                format!("fingerprints agree ({fa})")
            } else {
                format!("fingerprints differ: {fa} vs {fb}")
            },
            ok: fa == fb,
        });
    }
    Ok(findings)
}

/// `remem-bench --throughput`: compare a report's measured wall-clock
/// events/sec against a committed floor file.
///
/// The rate lives in the report's *volatile* section (it is host-dependent
/// and must never enter the determinism fingerprint) as a line of the form
/// `throughput events_per_sec=<n>`. The floor file pins the minimum
/// acceptable rate and the tolerated drop:
///
/// ```json
/// { "schema": "remem-bench/throughput-floor/v1",
///   "report": "repro_sim_throughput",
///   "events_per_sec_floor": 1000000,
///   "max_drop_pct": 25 }
/// ```
///
/// The gate fails when `current < floor * (1 - max_drop_pct/100)`. Refresh
/// procedure: see EXPERIMENTS.md (`repro_sim_throughput`).
pub fn throughput_gate(report_path: &Path, floor_path: &Path) -> Result<Vec<Finding>, String> {
    let doc = load(report_path)?;
    let floor = load(floor_path)?;
    if floor.get("schema").and_then(Json::as_str) != Some("remem-bench/throughput-floor/v1") {
        return Err(format!(
            "{} is not a remem-bench/throughput-floor/v1 file",
            floor_path.display()
        ));
    }
    let report = floor
        .get("report")
        .and_then(Json::as_str)
        .unwrap_or("throughput")
        .to_string();
    let floor_eps = floor
        .get("events_per_sec_floor")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{} has no events_per_sec_floor", floor_path.display()))?;
    let max_drop_pct = floor
        .get("max_drop_pct")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{} has no max_drop_pct", floor_path.display()))?;
    let mut current = None;
    for line in doc.get("volatile").and_then(Json::as_arr).unwrap_or(&[]) {
        if let Some(rest) = line
            .as_str()
            .and_then(|s| s.strip_prefix("throughput events_per_sec="))
        {
            current = rest.trim().parse::<f64>().ok();
        }
    }
    let Some(current) = current else {
        return Ok(vec![Finding {
            report,
            what: format!(
                "{} has no `throughput events_per_sec=` volatile line",
                report_path.display()
            ),
            ok: false,
        }]);
    };
    let min_allowed = floor_eps * (1.0 - max_drop_pct / 100.0);
    Ok(vec![Finding {
        report,
        what: format!(
            "{current:.0} events/sec vs floor {floor_eps:.0} (min allowed {min_allowed:.0}, \
             -{max_drop_pct}%)"
        ),
        ok: current >= min_allowed,
    }])
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Compare one baseline report against one current report.
pub fn compare(report: &str, base: &Json, cur: &Json, out: &mut Vec<Finding>) {
    let mut push = |what: String, ok: bool| {
        out.push(Finding {
            report: report.into(),
            what,
            ok,
        })
    };
    for (doc, which) in [(base, "baseline"), (cur, "current")] {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            push(format!("{which} schema is not {SCHEMA}"), false);
            return;
        }
    }
    // 1. re-derive every baseline check from the CURRENT data
    for bc in base.get("checks").and_then(Json::as_arr).unwrap_or(&[]) {
        let id = bc.get("id").and_then(Json::as_str).unwrap_or("?");
        let Some(cc) = find_check(cur, id) else {
            push(format!("check `{id}` missing from current run"), false);
            continue;
        };
        let kind = cc.get("kind").and_then(Json::as_str).unwrap_or("?");
        let param = cc.get("param").and_then(Json::as_f64).unwrap_or(0.0);
        let data = read_points(cc.get("data"));
        match evaluate(kind, param, &data) {
            Some(true) => push(format!("check `{id}` re-derives to pass"), true),
            Some(false) => push(
                format!(
                    "check `{id}` ({kind}) FAILS on current data: {}",
                    fmt_points(&data)
                ),
                false,
            ),
            None => push(format!("check `{id}` has unknown kind `{kind}`"), false),
        }
    }
    // 2. gauge drift against the recorded tolerance
    for bg in base.get("gauges").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = bg.get("name").and_then(Json::as_str).unwrap_or("?");
        let base_v = bg.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let tol_pct = bg.get("tol_pct").and_then(Json::as_f64).unwrap_or(0.0);
        let Some(cur_v) = find_gauge(cur, name) else {
            push(format!("gauge `{name}` missing from current run"), false);
            continue;
        };
        let allowed = (base_v.abs() * tol_pct / 100.0).max(DRIFT_EPSILON);
        let drift = (cur_v - base_v).abs();
        push(
            format!("gauge `{name}`: {cur_v} vs baseline {base_v} (allowed ±{tol_pct}%)",),
            drift <= allowed,
        );
    }
}

fn find_check<'a>(doc: &'a Json, id: &str) -> Option<&'a Json> {
    doc.get("checks")?
        .as_arr()?
        .iter()
        .find(|c| c.get("id").and_then(Json::as_str) == Some(id))
}

fn find_gauge(doc: &Json, name: &str) -> Option<f64> {
    doc.get("gauges")?
        .as_arr()?
        .iter()
        .find(|g| g.get("name").and_then(Json::as_str) == Some(name))?
        .get("value")?
        .as_f64()
}

fn read_points(v: Option<&Json>) -> Vec<(String, f64)> {
    let Some(arr) = v.and_then(Json::as_arr) else {
        return Vec::new();
    };
    arr.iter()
        .filter_map(|p| {
            let pair = p.as_arr()?;
            Some((pair.first()?.as_str()?.to_string(), pair.get(1)?.as_f64()?))
        })
        .collect()
}

fn fmt_points(points: &[(String, f64)]) -> String {
    points
        .iter()
        .map(|(l, v)| format!("{l}={v}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_doc(points: &[(&str, f64)], gauge_v: f64) -> Json {
        let mut r = crate::report::Report::new("cmp_unit", "Test", "comparator unit");
        r.series("runtime", points);
        r.gauge("custom_ms", gauge_v, 10.0);
        r.check_order_desc("desc", "slower designs first", points, 0.0);
        r.to_json()
    }

    #[test]
    fn passes_against_itself() {
        let doc = report_doc(&[("SMB", 272.0), ("Custom", 13.0)], 13.0);
        let mut findings = Vec::new();
        compare("cmp_unit", &doc, &doc, &mut findings);
        assert!(!findings.is_empty());
        assert!(findings.iter().all(|f| f.ok), "self-compare must pass");
    }

    #[test]
    fn fails_on_ordering_flip_in_current_data() {
        let base = report_doc(&[("SMB", 272.0), ("Custom", 13.0)], 13.0);
        // regression: Custom became slower than SMB in the current run
        let cur = report_doc(&[("SMB", 272.0), ("Custom", 300.0)], 13.0);
        let mut findings = Vec::new();
        compare("cmp_unit", &base, &cur, &mut findings);
        assert!(
            findings.iter().any(|f| !f.ok && f.what.contains("`desc`")),
            "ordering flip must fail the re-derived check"
        );
    }

    #[test]
    fn fails_on_gauge_drift_beyond_tolerance() {
        let base = report_doc(&[("SMB", 272.0), ("Custom", 13.0)], 13.0);
        let cur = report_doc(&[("SMB", 272.0), ("Custom", 20.0)], 20.0); // +54% > 10%
        let mut findings = Vec::new();
        compare("cmp_unit", &base, &cur, &mut findings);
        assert!(findings
            .iter()
            .any(|f| !f.ok && f.what.contains("custom_ms")));
        // within tolerance passes
        let ok = report_doc(&[("SMB", 272.0), ("Custom", 13.5)], 13.5);
        let mut findings = Vec::new();
        compare("cmp_unit", &base, &ok, &mut findings);
        assert!(findings.iter().all(|f| f.ok));
    }

    #[test]
    fn missing_check_or_gauge_fails() {
        let base = report_doc(&[("SMB", 272.0), ("Custom", 13.0)], 13.0);
        // well-formed current report with no checks/gauges at all
        let empty = crate::report::Report::new("cmp_unit", "Test", "empty").to_json();
        let mut findings = Vec::new();
        compare("cmp_unit", &base, &empty, &mut findings);
        assert!(findings
            .iter()
            .any(|f| !f.ok && f.what.contains("check `desc` missing")));
        assert!(findings
            .iter()
            .any(|f| !f.ok && f.what.contains("gauge `custom_ms` missing")));
    }

    #[test]
    fn schema_mismatch_fails() {
        let base = report_doc(&[("a", 2.0), ("b", 1.0)], 1.0);
        let bogus = Json::Obj(vec![("schema".into(), Json::str("other/v9"))]);
        let mut findings = Vec::new();
        compare("cmp_unit", &base, &bogus, &mut findings);
        assert!(findings.iter().any(|f| !f.ok && f.what.contains("schema")));
    }

    /// A committed and a fresh directory under a per-test temp root.
    fn dirs(tag: &str) -> (std::path::PathBuf, std::path::PathBuf, std::path::PathBuf) {
        let tmp = std::env::temp_dir().join(format!("remem-bench-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&tmp).ok();
        let (committed, fresh) = (tmp.join("committed"), tmp.join("fresh"));
        std::fs::create_dir_all(&committed).unwrap();
        std::fs::create_dir_all(&fresh).unwrap();
        (tmp, committed, fresh)
    }

    fn sample() -> String {
        report_doc(&[("SMB", 272.0), ("Custom", 13.0)], 13.0).to_pretty()
    }

    #[test]
    fn identical_dirs_compares_fingerprints() {
        let (tmp, a, b) = dirs("ident");
        let same = sample();
        std::fs::write(a.join("BENCH_fig.json"), &same).unwrap();
        std::fs::write(b.join("BENCH_fig.json"), &same).unwrap();
        let findings = identical_dirs(&a, &b).unwrap();
        assert!(findings.iter().all(|f| f.ok), "same doc must agree");
        // a semantic difference flips the fingerprint and fails
        let diff = report_doc(&[("SMB", 272.0), ("Custom", 14.0)], 14.0).to_pretty();
        std::fs::write(b.join("BENCH_fig.json"), &diff).unwrap();
        let findings = identical_dirs(&a, &b).unwrap();
        assert!(findings.iter().any(|f| !f.ok && f.what.contains("differ")));
        // a fresh report with nothing committed to match fails
        std::fs::write(b.join("BENCH_fig.json"), &same).unwrap();
        std::fs::write(b.join("BENCH_extra.json"), &same).unwrap();
        let findings = identical_dirs(&a, &b).unwrap();
        assert!(findings.iter().any(|f| !f.ok && f.report == "extra"));
        assert!(findings.iter().any(|f| f.ok && f.report == "fig"));
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn only_the_fresh_reports_are_compared() {
        let (tmp, committed, fresh) = dirs("only-fresh");
        std::fs::write(committed.join("BENCH_fig.json"), sample()).unwrap();
        std::fs::write(committed.join("BENCH_not_rerun.json"), sample()).unwrap();
        std::fs::write(fresh.join("BENCH_fig.json"), sample()).unwrap();
        for gate in [check_dirs, identical_dirs] {
            let findings = gate(&committed, &fresh).unwrap();
            assert!(findings.iter().all(|f| f.ok && f.report == "fig"));
        }
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn a_fresh_report_with_no_committed_counterpart_fails() {
        let (tmp, committed, fresh) = dirs("no-counterpart");
        std::fs::write(committed.join("BENCH_fig.json"), sample()).unwrap();
        std::fs::write(fresh.join("BENCH_fig.json"), sample()).unwrap();
        std::fs::write(fresh.join("BENCH_new.json"), sample()).unwrap();
        for gate in [check_dirs, identical_dirs] {
            let findings = gate(&committed, &fresh).unwrap();
            assert!(findings.iter().any(|f| !f.ok && f.report == "new"));
        }
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn an_empty_fresh_dir_is_an_error() {
        let (tmp, committed, fresh) = dirs("empty");
        std::fs::write(committed.join("BENCH_fig.json"), sample()).unwrap();
        // a non-report is not a report: the directory still counts as empty
        std::fs::write(fresh.join("BENCHMARK.json"), "{}").unwrap();
        for gate in [check_dirs, identical_dirs] {
            assert!(gate(&committed, &fresh).is_err());
        }
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn throughput_gate_compares_volatile_rate_to_floor() {
        let tmp = std::env::temp_dir().join(format!("remem-bench-tp-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let report_with = |eps: Option<f64>| {
            let mut r = crate::report::Report::new("tp_unit", "Test", "throughput unit");
            if let Some(eps) = eps {
                r.volatile_note(format!("throughput events_per_sec={eps:.0}"));
            }
            r.to_json().to_pretty()
        };
        let floor = r#"{
  "schema": "remem-bench/throughput-floor/v1",
  "report": "tp_unit",
  "events_per_sec_floor": 1000000,
  "max_drop_pct": 25
}"#;
        let fp = tmp.join("floor.json");
        std::fs::write(&fp, floor).unwrap();
        let rp = tmp.join("report.json");
        // above the floor passes
        std::fs::write(&rp, report_with(Some(1_200_000.0))).unwrap();
        assert!(throughput_gate(&rp, &fp).unwrap().iter().all(|f| f.ok));
        // within the tolerated drop passes (>= floor * 0.75)
        std::fs::write(&rp, report_with(Some(800_000.0))).unwrap();
        assert!(throughput_gate(&rp, &fp).unwrap().iter().all(|f| f.ok));
        // below the tolerated drop fails
        std::fs::write(&rp, report_with(Some(700_000.0))).unwrap();
        assert!(throughput_gate(&rp, &fp).unwrap().iter().any(|f| !f.ok));
        // a report without the volatile line fails rather than passing vacuously
        std::fs::write(&rp, report_with(None)).unwrap();
        assert!(throughput_gate(&rp, &fp).unwrap().iter().any(|f| !f.ok));
        // a malformed floor file is an error
        std::fs::write(&fp, "{\"schema\": \"other\"}").unwrap();
        assert!(throughput_gate(&rp, &fp).is_err());
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn check_dirs_round_trip() {
        let (tmp, committed, fresh) = dirs("check");
        std::fs::write(committed.join("BENCH_fig.json"), sample()).unwrap();
        std::fs::write(fresh.join("BENCH_fig.json"), sample()).unwrap();
        let findings = check_dirs(&committed, &fresh).unwrap();
        assert!(!findings.is_empty());
        assert!(findings.iter().all(|f| f.ok && f.report == "fig"));
        // files that are not reports are skipped on both sides, even when
        // they do not parse as one
        for dir in [&committed, &fresh] {
            std::fs::write(dir.join("BENCHMARK.json"), "{\"command\": []}").unwrap();
        }
        let findings = check_dirs(&committed, &fresh).unwrap();
        assert!(findings.iter().all(|f| f.ok && f.report == "fig"));
        // a drifted fresh report fails
        let drifted = report_doc(&[("SMB", 272.0), ("Custom", 20.0)], 20.0).to_pretty();
        std::fs::write(fresh.join("BENCH_fig.json"), drifted).unwrap();
        let findings = check_dirs(&committed, &fresh).unwrap();
        assert!(findings.iter().any(|f| !f.ok && f.report == "fig"));
        std::fs::remove_dir_all(&tmp).ok();
    }
}
