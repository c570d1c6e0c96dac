//! End-to-end test of the interprocedural layer over the fixture mini-tree
//! in `tests/fixtures/crates/`: snapshot of the resolved call-graph edges
//! (closures, shadowing, trait methods, macro-heavy bodies, mod nesting)
//! and of every violation the four passes report — positives and waived
//! negatives alike.

use std::path::PathBuf;

use remem_audit::analyze_tree;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn edge_snapshot() {
    let a = analyze_tree(&fixture_root()).expect("fixture tree walks");
    let ws = &a.workspace;
    let mut edges: Vec<String> = (0..ws.fns.len())
        .flat_map(|id| {
            ws.edges[id]
                .iter()
                .map(move |e| format!("{} -> {}", ws.qual_name(id), ws.qual_name(e.to)))
        })
        .collect();
    edges.sort();
    edges.dedup();
    let expected = vec![
        // non-sim caller into the tainted sim helper (both waived and not)
        "bench::bench_run -> sim::timer",
        "bench::bench_waived -> sim::timer",
        // mod nesting: impl method into a doubly nested module fn
        "net::Nic::flush -> net::inner::deep::deep_helper",
        // shadowing: method and free fn of the same name, both from `drain`
        "net::drain -> net::Nic::flush",
        "net::drain -> net::flush",
        // clock forwarding chains
        "net::relay -> net::hop",
        "net::send -> net::stage",
        // trait method resolved through the typed `&Nic` receiver
        "net::xmit -> net::Nic::write",
        "sim::halt -> sim::core_dump",
        // closure body attributed to the enclosing `run`
        "sim::run -> sim::step_n",
        "sim::step_n -> sim::step_all",
    ];
    assert_eq!(edges, expected, "resolved call-graph edge snapshot");
}

#[test]
fn macro_heavy_fn_has_no_edges() {
    let a = analyze_tree(&fixture_root()).expect("fixture tree walks");
    let ws = &a.workspace;
    let noisy = (0..ws.fns.len())
        .find(|&id| ws.qual_name(id) == "net::noisy")
        .expect("net::noisy extracted");
    assert!(
        ws.edges[noisy].is_empty(),
        "vec!/format!/println! bodies must not produce call edges"
    );
}

#[test]
fn violation_snapshot() {
    let a = analyze_tree(&fixture_root()).expect("fixture tree walks");
    let v = &a.violations;
    for x in v {
        eprintln!("{x}");
    }
    assert_eq!(v.len(), 5, "exactly the five planted findings");

    // `hop` is a dead end that neither charges nor forwards, reported at
    // its own `fn` line
    assert!(v.iter().any(|x| x.rule == "clock-charge"
        && x.line == 24
        && x.msg.contains("hop")
        && !x.msg.contains("relay")));
    // `relay` forwards but the chain never charges
    assert!(v.iter().any(|x| x.rule == "clock-charge"
        && x.msg.contains("relay")
        && x.msg.contains("free path")));
    // panic reachability from the fixture sim kernel, with a call-path witness
    assert!(v.iter().any(|x| x.rule == "panic-path"
        && x.file.ends_with("sim/src/lib.rs")
        && x.msg.contains("sim::step_all")));
    // lock-order cycle between Hub.a and Hub.b
    assert!(v
        .iter()
        .any(|x| x.rule == "lock-order" && x.msg.contains("Hub.a") && x.msg.contains("Hub.b")));
    // det-taint frontier: unwaived call into the tainted sim helper
    assert!(v.iter().any(|x| x.rule == "det-taint"
        && x.file.ends_with("bench/src/lib.rs")
        && x.msg.contains("sim::timer")));

    // waived negatives must be silent: probe (clock-charge), core_dump
    // (panic-path), bench_waived (det-taint) — and transitively charged
    // `send`/`xmit` must not appear at all
    for quiet in ["probe", "core_dump", "bench_waived", "send", "xmit"] {
        assert!(
            !v.iter().any(|x| x.msg.contains(quiet)),
            "`{quiet}` must not be reported"
        );
    }
    // every fixture pragma is consumed: no unused-pragma hygiene findings
    assert!(!v.iter().any(|x| x.msg.contains("unused")));
}

#[test]
fn charged_set_covers_transitive_charging() {
    let a = analyze_tree(&fixture_root()).expect("fixture tree walks");
    let ws = &a.workspace;
    let charged = remem_audit::passes::charged_set(ws);
    let by_name = |n: &str| {
        (0..ws.fns.len())
            .find(|&id| ws.qual_name(id) == n)
            .unwrap_or_else(|| panic!("{n} extracted"))
    };
    assert!(charged[by_name("net::send")], "charged through `stage`");
    assert!(
        charged[by_name("net::xmit")],
        "charged through `Nic::write`"
    );
    assert!(!charged[by_name("net::relay")], "forwarding never charges");
    assert!(!charged[by_name("net::hop")]);
}
