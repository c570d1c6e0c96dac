//! The machine-readable side of the bench harness.
//!
//! Every `repro_*` binary builds a [`Report`], routes its human-readable
//! output through it (so text and JSON can never drift apart), records the
//! figure's data as named series/gauges, and asserts the paper's
//! *qualitative claims* as checks — "Custom beats SMBDirect beats SMB",
//! "Fig 5 is flat across donor counts". Checks carry their data, so the
//! `--check` comparator can re-derive each claim from a later run instead
//! of trusting a recorded boolean.
//!
//! A figure's arms (design × knob points) run through [`Report::arms`]:
//! each gets an [`Arm`] with a registry of its own, so the report's metrics
//! dump says per arm where the time went, and its host time is split into
//! load and run.
//!
//! [`Report::finish`] serializes everything (schema `remem-bench/v1`) to one
//! file, `<root>/BENCH_<name>.json` ([`bench_root`]), stamps a determinism
//! [`fingerprint`], and exits non-zero if any check failed. Nothing in the
//! document outside `volatile` depends on wall time: two same-seed runs must
//! produce byte-identical files. The committed `BENCH_<name>.json` is both
//! the public record and the baseline `remem-bench --check` compares with.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use remem::{Cluster, ClusterBuilder};
use remem_sim::{MetricsRegistry, MetricsSnapshot, Stopwatch};

use crate::json::{fnv1a_64, Json};
use crate::print_table;

pub const SCHEMA: &str = "remem-bench/v1";

/// Floor below which gauge drift is compared absolutely rather than
/// relatively (keeps tiny baselines from demanding impossible precision).
pub const DRIFT_EPSILON: f64 = 1e-9;

struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

struct Series {
    name: String,
    points: Vec<(String, f64)>,
}

struct GaugeRec {
    name: String,
    value: f64,
    tol_pct: f64,
}

struct Check {
    id: String,
    desc: String,
    kind: &'static str,
    param: f64,
    data: Vec<(String, f64)>,
    pass: bool,
}

/// Re-derive a check's verdict from its kind, parameter and data. Shared by
/// recording ([`Report`]) and comparison ([`crate::check`]) so a claim means
/// the same thing in both places.
pub fn evaluate(kind: &str, param: f64, data: &[(String, f64)]) -> Option<bool> {
    let slack = |v: f64| v.abs() * param / 100.0;
    match kind {
        "order_desc" => Some(data.windows(2).all(|w| w[1].1 <= w[0].1 + slack(w[0].1))),
        "order_asc" => Some(data.windows(2).all(|w| w[1].1 >= w[0].1 - slack(w[0].1))),
        "flat" => {
            let (mut lo, mut hi, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
            for (_, v) in data {
                lo = lo.min(*v);
                hi = hi.max(*v);
                sum += *v;
            }
            if data.is_empty() {
                return Some(true);
            }
            let mean = sum / data.len() as f64;
            Some(hi - lo <= mean.abs() * param / 100.0 + DRIFT_EPSILON)
        }
        "ratio_ge" => {
            let a = data.first()?.1;
            let b = data.get(1)?.1;
            // a zero denominator means "b took no time at all": any
            // non-negative numerator trivially clears the ratio
            Some(if b == 0.0 { a >= 0.0 } else { a / b >= param })
        }
        "assert" => Some(data.first()?.1 != 0.0),
        _ => None,
    }
}

/// One figure's structured report. See the module docs for the life cycle.
pub struct Report {
    name: String,
    figure: String,
    title: String,
    /// Each arm's label and final metrics, in the order the arms ran.
    arms: Vec<(String, MetricsSnapshot)>,
    notes: Vec<String>,
    volatile: Vec<String>,
    tables: Vec<Table>,
    series: Vec<Series>,
    gauges: Vec<GaugeRec>,
    checks: Vec<Check>,
}

impl Report {
    /// Start a report. `name` keys the output file (`BENCH_<name>.json`);
    /// `figure` and `title` are the human header, which is printed
    /// immediately in the same style the text-only harness used.
    pub fn new(name: &str, figure: &str, title: &str) -> Report {
        crate::header(figure, title);
        Report {
            name: name.to_string(),
            figure: figure.to_string(),
            title: title.to_string(),
            arms: Vec::new(),
            notes: Vec::new(),
            volatile: Vec::new(),
            tables: Vec::new(),
            series: Vec::new(),
            gauges: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Print and record a free-form line of commentary.
    pub fn note(&mut self, text: impl Into<String>) {
        let text = text.into();
        println!("{text}");
        self.notes.push(text);
    }

    /// Print and record a line of *volatile* commentary: wall-clock
    /// timings — anything that legitimately differs between two otherwise
    /// identical runs. Volatile lines land in the
    /// JSON under `"volatile"` but are **excluded from the determinism
    /// fingerprint**, so `--identical` and baseline comparisons ignore
    /// them. Never route virtual-time results through here.
    pub fn volatile_note(&mut self, text: impl Into<String>) {
        let text = text.into();
        println!("{text}");
        self.volatile.push(text);
    }

    /// Run `body` once per arm (one design × knob point of the figure), in
    /// order, each with a fresh [`Arm`], and return the outcomes in arm
    /// order. Each arm's metrics become its entry in the report's dump, and
    /// its host time a volatile line (`label` names it in both): the time
    /// spent in [`Arm::load`] is the load, the rest of the body the run. A
    /// last line sums the arms. The bounds let arms share nothing mutable.
    pub fn arms<A: Sync, R: Send>(
        &mut self,
        arms: &[A],
        label: impl Fn(&A) -> String,
        body: impl Fn(&A, &mut Arm) -> R + Sync,
    ) -> Vec<R> {
        let (mut load_ms, mut run_ms) = (0.0, 0.0);
        let outcomes = arms
            .iter()
            .map(|a| {
                let mut arm = Arm {
                    registry: MetricsRegistry::shared(),
                    load_ms: 0.0,
                };
                let wall = Stopwatch::start();
                let outcome = body(a, &mut arm);
                let arm_run_ms = wall.elapsed_ms() - arm.load_ms;
                let label = label(a);
                self.wall_clock_note(&label, arm.load_ms, arm_run_ms);
                load_ms += arm.load_ms;
                run_ms += arm_run_ms;
                self.arms.push((label, arm.registry.snapshot()));
                outcome
            })
            .collect();
        self.wall_clock_note("all arms", load_ms, run_ms);
        outcomes
    }

    fn wall_clock_note(&mut self, what: &str, load_ms: f64, run_ms: f64) {
        self.volatile_note(format!(
            "wall-clock {what}: load {:.1} s, run {:.1} s",
            load_ms / 1e3,
            run_ms / 1e3
        ));
    }

    /// Print a blank separator line (not recorded — purely visual).
    pub fn blank(&mut self) {
        println!();
    }

    /// Print an aligned table and record it verbatim in the JSON.
    pub fn table(&mut self, title: &str, headers: &[&str], rows: Vec<Vec<String>>) {
        if !title.is_empty() {
            println!("\n{title}");
        }
        print_table(headers, &rows);
        self.tables.push(Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows,
        });
    }

    /// Record a named data series (label → value), the figure's raw curve.
    pub fn series<S: AsRef<str>>(&mut self, name: &str, points: &[(S, f64)]) {
        self.series.push(Series {
            name: name.to_string(),
            points: own(points),
        });
    }

    /// Record a scalar the regression gate watches: the comparator fails if
    /// a later run drifts more than `tol_pct` percent from the baseline.
    pub fn gauge(&mut self, name: &str, value: f64, tol_pct: f64) {
        self.gauges.push(GaugeRec {
            name: name.to_string(),
            value,
            tol_pct,
        });
    }

    fn check(
        &mut self,
        id: &str,
        desc: &str,
        kind: &'static str,
        param: f64,
        data: Vec<(String, f64)>,
    ) -> bool {
        let pass = evaluate(kind, param, &data).unwrap_or(false);
        println!(
            "[check] {} {id}: {desc}",
            if pass { "PASS" } else { "FAIL" }
        );
        self.checks.push(Check {
            id: id.to_string(),
            desc: desc.to_string(),
            kind,
            param,
            data,
            pass,
        });
        pass
    }

    /// Claim the values decrease (or stay equal) left to right, with
    /// `slack_pct` percent of slack per step. The canonical "Custom ≥
    /// SMBDirect ≥ SMB ≥ …" shape check.
    pub fn check_order_desc<S: AsRef<str>>(
        &mut self,
        id: &str,
        desc: &str,
        data: &[(S, f64)],
        slack_pct: f64,
    ) -> bool {
        self.check(id, desc, "order_desc", slack_pct, own(data))
    }

    /// Claim the values increase (or stay equal) left to right.
    pub fn check_order_asc<S: AsRef<str>>(
        &mut self,
        id: &str,
        desc: &str,
        data: &[(S, f64)],
        slack_pct: f64,
    ) -> bool {
        self.check(id, desc, "order_asc", slack_pct, own(data))
    }

    /// Claim the values are flat: max − min within `tol_pct` percent of the
    /// mean (Fig. 5's "runtime independent of donor count").
    pub fn check_flat<S: AsRef<str>>(
        &mut self,
        id: &str,
        desc: &str,
        data: &[(S, f64)],
        tol_pct: f64,
    ) -> bool {
        self.check(id, desc, "flat", tol_pct, own(data))
    }

    /// Claim `a / b ≥ min_ratio` (speedup claims: "HDD is at least 3×
    /// slower than Custom").
    pub fn check_ratio_ge(
        &mut self,
        id: &str,
        desc: &str,
        a: (&str, f64),
        b: (&str, f64),
        min_ratio: f64,
    ) -> bool {
        self.check(
            id,
            desc,
            "ratio_ge",
            min_ratio,
            vec![(a.0.to_string(), a.1), (b.0.to_string(), b.1)],
        )
    }

    /// Claim an arbitrary boolean condition (recorded as 0/1 so the
    /// comparator can re-derive it).
    pub fn check_assert(&mut self, id: &str, desc: &str, cond: bool) -> bool {
        self.check(
            id,
            desc,
            "assert",
            0.0,
            vec![("cond".to_string(), cond as u64 as f64)],
        )
    }

    /// Did every check so far pass?
    #[cfg(test)]
    pub(crate) fn all_checks_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Serialize the report. Pure function of the recorded data — this is
    /// what the determinism fingerprint covers.
    pub fn to_json(&self) -> Json {
        let mut doc = self.body();
        let fp = fingerprint(&doc);
        if let Json::Obj(fields) = &mut doc {
            // right after "title", so the fingerprint is near the top of the
            // file where a human diffing baselines will see it first
            let at = fields
                .iter()
                .position(|(k, _)| k == "title")
                .map_or(0, |i| i + 1);
            fields.insert(at, ("fingerprint".to_string(), Json::str(fp)));
            // Volatile lines join the document only after the fingerprint
            // is computed: run-dependent values (wall clock) must never
            // influence determinism comparisons.
            fields.push((
                "volatile".to_string(),
                Json::Arr(self.volatile.iter().map(Json::str).collect()),
            ));
        }
        doc
    }

    fn body(&self) -> Json {
        let strs = |items: &[String]| Json::Arr(items.iter().map(Json::str).collect());
        let tables = self.tables.iter().map(|t| {
            let rows = t.rows.iter().map(|r| strs(r)).collect();
            Json::obj([
                ("title", Json::str(&t.title)),
                ("headers", strs(&t.headers)),
                ("rows", Json::Arr(rows)),
            ])
        });
        let series = self.series.iter().map(|s| {
            Json::obj([
                ("name", Json::str(&s.name)),
                ("points", points_json(&s.points)),
            ])
        });
        let gauges = self.gauges.iter().map(|g| {
            Json::obj([
                ("name", Json::str(&g.name)),
                ("value", Json::Num(g.value)),
                ("tol_pct", Json::Num(g.tol_pct)),
            ])
        });
        let checks = self.checks.iter().map(|c| {
            Json::obj([
                ("id", Json::str(&c.id)),
                ("desc", Json::str(&c.desc)),
                ("kind", Json::str(c.kind)),
                ("param", Json::Num(c.param)),
                ("data", points_json(&c.data)),
                ("pass", Json::Bool(c.pass)),
            ])
        });
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("name", Json::str(&self.name)),
            ("figure", Json::str(&self.figure)),
            ("title", Json::str(&self.title)),
            ("notes", strs(&self.notes)),
            ("tables", Json::Arr(tables.collect())),
            ("series", Json::Arr(series.collect())),
            ("gauges", Json::Arr(gauges.collect())),
            ("checks", Json::Arr(checks.collect())),
            ("metrics", self.metrics_json()),
        ])
    }

    /// The dump: one entry per arm, `{label, counters, gauges, histograms,
    /// series, spans}`, in arm order. A report without arms keeps the empty
    /// single dump it has always written.
    fn metrics_json(&self) -> Json {
        if self.arms.is_empty() {
            return snapshot_json(&MetricsSnapshot::default());
        }
        let arms = self.arms.iter().map(|(label, snapshot)| {
            let Json::Obj(fields) = snapshot_json(snapshot) else {
                unreachable!("a snapshot serializes to an object")
            };
            let label = ("label".to_string(), Json::str(label));
            Json::Obj(std::iter::once(label).chain(fields).collect())
        });
        Json::obj([("arms", Json::Arr(arms.collect()))])
    }

    /// Write `<root>/BENCH_<name>.json`, print a summary line, and exit the
    /// process — non-zero if any check failed, so CI and shell pipelines see
    /// figure breakage without parsing anything.
    pub fn finish(self) -> ! {
        let failed: Vec<&str> = self
            .checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.id.as_str())
            .collect();
        let root = bench_root();
        let path = report_path(&root, &self.name);
        let write_err = std::fs::create_dir_all(&root)
            .and_then(|()| std::fs::write(&path, self.to_json().to_pretty()))
            .err()
            .map(|e| format!("write {}: {e}", path.display()));
        println!();
        match (&write_err, failed.is_empty()) {
            (Some(err), _) => println!("[report] {}: ERROR {err}", self.name),
            (None, true) => println!(
                "[report] {}: {} checks pass, json written to {}",
                self.name,
                self.checks.len(),
                path.display()
            ),
            (None, false) => {
                println!(
                    "[report] {}: FAILED checks: {}",
                    self.name,
                    failed.join(", ")
                )
            }
        }
        std::process::exit(if write_err.is_some() || !failed.is_empty() {
            1
        } else {
            0
        });
    }
}

/// What [`Report::arms`] gives each arm: a registry of its own and a timer
/// for the host time of its load phase.
pub struct Arm {
    registry: Arc<MetricsRegistry>,
    load_ms: f64,
}

impl Arm {
    /// The arm's registry, for what [`Arm::cluster`] does not wire: a
    /// database or device built by hand.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// A cluster builder publishing into the arm's registry. Designs built
    /// on the cluster, and remote files opened through it, inherit it.
    pub fn cluster(&self) -> ClusterBuilder {
        Cluster::builder().metrics(self.registry())
    }

    /// Run `phase`, counting its host time as the arm's load rather than
    /// its run.
    pub fn load<T>(&mut self, phase: impl FnOnce() -> T) -> T {
        let wall = Stopwatch::start();
        let out = phase();
        self.load_ms += wall.elapsed_ms();
        out
    }
}

fn own<S: AsRef<str>>(data: &[(S, f64)]) -> Vec<(String, f64)> {
    data.iter()
        .map(|(l, v)| (l.as_ref().to_string(), *v))
        .collect()
}

fn points_json(points: &[(String, f64)]) -> Json {
    let point = |(l, v): &(String, f64)| Json::Arr(vec![Json::str(l), Json::Num(*v)]);
    Json::Arr(points.iter().map(point).collect())
}

/// A snapshot's five name-ordered maps, each value as `value` renders it.
fn snapshot_json(s: &MetricsSnapshot) -> Json {
    fn named<T>(items: &[(String, T)], value: impl Fn(&T) -> Json) -> Json {
        Json::Obj(items.iter().map(|(k, v)| (k.clone(), value(v))).collect())
    }
    let num = |n: u64| Json::Num(n as f64);
    Json::obj([
        ("counters", named(&s.counters, |&v| num(v))),
        ("gauges", named(&s.gauges, |&v| Json::Num(v))),
        (
            "histograms",
            named(&s.histograms, |h| {
                Json::obj([
                    ("count", num(h.count)),
                    ("mean_ns", num(h.mean_ns)),
                    ("p50_ns", num(h.p50_ns)),
                    ("p95_ns", num(h.p95_ns)),
                    ("p99_ns", num(h.p99_ns)),
                    ("max_ns", num(h.max_ns)),
                ])
            }),
        ),
        (
            "series",
            named(&s.series, |v| {
                let sums = v.sums.iter().map(|&x| Json::Num(x)).collect();
                Json::obj([("bucket_ns", num(v.bucket_ns)), ("sums", Json::Arr(sums))])
            }),
        ),
        (
            "spans",
            named(&s.spans, |sp| {
                Json::obj([
                    ("count", num(sp.count)),
                    ("total_ns", num(sp.total_ns)),
                    ("self_ns", num(sp.self_ns)),
                ])
            }),
        ),
    ])
}

/// The determinism fingerprint of a report document: FNV-1a over the
/// compact form of everything but `fingerprint` itself and the `volatile`
/// lines. [`Report::to_json`] stamps it, and a committed report must
/// recompute to the value it carries — so a hand edit shows.
pub fn fingerprint(doc: &Json) -> String {
    let semantic = match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "fingerprint" && k != "volatile")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    };
    format!("fnv1a:{:016x}", fnv1a_64(semantic.to_compact().as_bytes()))
}

/// Where reports land: `REMEM_BENCH_ROOT` if set (CI and scratch sweeps),
/// else the repo root, two levels above this crate's manifest
/// (`crates/bench` → repo root).
pub fn bench_root() -> PathBuf {
    match std::env::var_os("REMEM_BENCH_ROOT") {
        Some(p) => PathBuf::from(p),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."),
    }
}

/// The file report `name` is written to under `root`: `BENCH_<name>.json`.
pub fn report_path(root: &Path, name: &str) -> PathBuf {
    root.join(format!("BENCH_{name}.json"))
}

/// The names of the reports under `dir` (its `BENCH_<name>.json` files),
/// sorted. Anything else there (`BENCHMARK.json`, sources) is not a report.
pub fn report_names(dir: &Path) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
    for entry in entries {
        let file = entry
            .map_err(|e| format!("read dir {}: {e}", dir.display()))?
            .file_name();
        let file = file.to_string_lossy();
        if let Some(name) = file
            .strip_prefix("BENCH_")
            .and_then(|f| f.strip_suffix(".json"))
        {
            names.push(name.to_string());
        }
    }
    names.sort();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_report() -> Report {
        let mut r = Report::new("unit_sample", "Test", "sample report");
        r.arms(
            &["Custom"],
            |l| l.to_string(),
            |_, arm| {
                arm.registry().counter("bp.hits").add(7);
                arm.registry().gauge("bpext.hit_ratio").set(0.5);
            },
        );
        r.note("a note");
        r.table(
            "t",
            &["design", "ms"],
            vec![vec!["Custom".into(), "13".into()]],
        );
        r.series("runtime", &[("Custom", 13.0), ("SMB", 272.0)]);
        r.gauge("custom_ms", 13.0, 25.0);
        r.check_order_desc(
            "slower_first",
            "SMB slower than Custom",
            &[("SMB", 272.0), ("Custom", 13.0)],
            0.0,
        );
        r.check_flat(
            "flat",
            "flat across donors",
            &[("1", 100.0), ("2", 101.0)],
            5.0,
        );
        r.check_ratio_ge(
            "speedup",
            "SMB/Custom >= 3x",
            ("SMB", 272.0),
            ("Custom", 13.0),
            3.0,
        );
        r.check_assert("nonzero", "hits observed", true);
        r
    }

    #[test]
    fn json_is_byte_identical_across_builds() {
        let a = sample_report().to_json().to_pretty();
        let b = sample_report().to_json().to_pretty();
        assert_eq!(a, b);
        let doc = parse(&a).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str().unwrap(), SCHEMA);
        assert!(doc
            .get("fingerprint")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("fnv1a:"));
        // the arm's snapshot made it in
        let arms = doc.get("metrics").unwrap().get("arms").unwrap();
        let arm = &arms.as_arr().unwrap()[0];
        assert_eq!(arm.get("label").unwrap().as_str(), Some("Custom"));
        assert_eq!(
            arm.get("counters")
                .unwrap()
                .get("bp.hits")
                .unwrap()
                .as_f64()
                .unwrap(),
            7.0
        );
    }

    #[test]
    fn volatile_notes_do_not_affect_the_fingerprint() {
        let fp_of = |doc: &Json| {
            doc.get("fingerprint")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        };
        let vols_of = |doc: &Json| doc.get("volatile").unwrap().as_arr().unwrap().len();
        let plain = sample_report().to_json();
        let mut with_volatile = sample_report();
        with_volatile.volatile_note("host wall clock: 123.4 ms");
        let noisy = with_volatile.to_json();
        assert_eq!(fp_of(&plain), fp_of(&noisy));
        // ...but the line is still recorded in the document
        assert_eq!(vols_of(&noisy), vols_of(&plain) + 1);
        // a *regular* note must shift the fingerprint
        let mut semantic = sample_report();
        semantic.note("an extra semantic note");
        assert_ne!(fp_of(&plain), fp_of(&semantic.to_json()));
    }

    #[test]
    fn a_hand_edited_value_no_longer_recomputes_to_its_fingerprint() {
        let mut r = sample_report();
        r.volatile_note("host wall clock: 123.4 ms");
        let text = r.to_json().to_pretty();
        let recomputes = |text: &str| {
            let doc = parse(text).unwrap();
            doc.get("fingerprint").and_then(Json::as_str) == Some(fingerprint(&doc).as_str())
        };
        // the written file recomputes to what it carries, volatile line and all
        assert!(recomputes(&text));
        // one gauge value edited by hand, fingerprint left as it was
        let edited = text.replacen("\"value\": 13", "\"value\": 14", 1);
        assert_ne!(edited, text);
        assert!(!recomputes(&edited));
    }

    #[test]
    fn checks_evaluate_and_record() {
        let r = sample_report();
        assert!(r.all_checks_pass());
        let doc = r.to_json();
        let checks = doc.get("checks").unwrap().as_arr().unwrap();
        assert_eq!(checks.len(), 4);
        assert!(checks
            .iter()
            .all(|c| c.get("pass").unwrap().as_bool().unwrap()));
    }

    #[test]
    fn failing_check_is_recorded_as_failure() {
        let mut r = Report::new("unit_fail", "Test", "fail");
        assert!(!r.check_order_desc(
            "bad",
            "ascending is not descending",
            &[("a", 1.0), ("b", 2.0)],
            0.0
        ));
        assert!(!r.all_checks_pass());
    }

    /// Three arms, each bumping `arm.<index>` by its index + 1 after a
    /// timed load; returns the report and the outcomes.
    fn three_arms() -> (Report, Vec<usize>) {
        let mut r = Report::new("unit_arms", "Test", "arm runner");
        let out = r.arms(
            &[0usize, 1, 2],
            |i| format!("arm {i}"),
            |&i, arm| {
                let registry = arm.registry();
                let hits = arm.load(|| registry.counter(&format!("arm.{i}")));
                hits.add(i as u64 + 1);
                i * 10
            },
        );
        (r, out)
    }

    fn arm_dumps(doc: &Json) -> Vec<Json> {
        let metrics = doc.get("metrics").unwrap();
        metrics.get("arms").unwrap().as_arr().unwrap().to_vec()
    }

    #[test]
    fn arms_return_outcomes_and_dumps_in_arm_order() {
        let (r, out) = three_arms();
        assert_eq!(out, [0, 10, 20]);
        let labels: Vec<_> = arm_dumps(&r.to_json())
            .iter()
            .map(|a| a.get("label").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(labels, ["arm 0", "arm 1", "arm 2"]);
    }

    #[test]
    fn a_counter_bumped_in_one_arm_is_absent_from_the_next() {
        let (r, _) = three_arms();
        let arms = arm_dumps(&r.to_json());
        let counters = |arm: &Json| arm.get("counters").unwrap().clone();
        assert_eq!(counters(&arms[0]).get("arm.0").unwrap().as_f64(), Some(1.0));
        assert!(counters(&arms[1]).get("arm.0").is_none());
        assert_eq!(counters(&arms[1]).get("arm.1").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn one_wall_clock_line_per_arm_then_the_sum() {
        let (r, _) = three_arms();
        let doc = r.to_json();
        let lines: Vec<&str> = doc
            .get("volatile")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|l| l.as_str().unwrap())
            .collect();
        assert_eq!(lines.len(), 4);
        for (line, what) in lines.iter().zip(["arm 0", "arm 1", "arm 2", "all arms"]) {
            assert!(
                line.starts_with(&format!("wall-clock {what}: load ")) && line.contains(", run "),
                "{line}"
            );
        }
    }

    #[test]
    fn the_same_arms_give_the_same_fingerprint() {
        let fp = |r: Report| r.to_json().get("fingerprint").unwrap().clone();
        assert_eq!(fp(three_arms().0), fp(three_arms().0));
    }

    #[test]
    fn a_report_without_arms_keeps_the_empty_dump() {
        let doc = Report::new("unit_no_arms", "Test", "no arms").to_json();
        let metrics = doc.get("metrics").unwrap();
        assert!(metrics.get("arms").is_none());
        assert!(metrics.get("counters").is_some());
    }

    #[test]
    fn evaluate_kinds() {
        let d = |pairs: &[(&str, f64)]| own(pairs);
        assert_eq!(
            evaluate("order_desc", 0.0, &d(&[("a", 3.0), ("b", 2.0), ("c", 2.0)])),
            Some(true)
        );
        assert_eq!(
            evaluate("order_desc", 0.0, &d(&[("a", 1.0), ("b", 2.0)])),
            Some(false)
        );
        // 5% slack forgives a small inversion
        assert_eq!(
            evaluate("order_desc", 5.0, &d(&[("a", 100.0), ("b", 104.0)])),
            Some(true)
        );
        assert_eq!(
            evaluate("order_asc", 0.0, &d(&[("a", 1.0), ("b", 2.0)])),
            Some(true)
        );
        assert_eq!(
            evaluate("flat", 10.0, &d(&[("1", 100.0), ("2", 105.0)])),
            Some(true)
        );
        assert_eq!(
            evaluate("flat", 1.0, &d(&[("1", 100.0), ("2", 150.0)])),
            Some(false)
        );
        assert_eq!(
            evaluate("ratio_ge", 3.0, &d(&[("a", 9.0), ("b", 3.0)])),
            Some(true)
        );
        assert_eq!(
            evaluate("ratio_ge", 4.0, &d(&[("a", 9.0), ("b", 3.0)])),
            Some(false)
        );
        assert_eq!(evaluate("assert", 0.0, &d(&[("cond", 1.0)])), Some(true));
        assert_eq!(evaluate("assert", 0.0, &d(&[("cond", 0.0)])), Some(false));
        assert_eq!(evaluate("nonsense", 0.0, &d(&[])), None);
    }
}
