//! Fixture-driven regression tests for the workspace pass (hot-path
//! reachability): the seeded-violation file must produce exactly the
//! expected `(lint, line, col)` spans when analyzed as a synthetic
//! workspace, and the clean fixture must produce nothing. Driving [`analyze_sources`] end-to-end also locks in the
//! JSON report shape (schema version, deterministic ordering).

use califorms_analyze::config::LintConfig;
use califorms_analyze::diagnostics::{Report, SCHEMA_VERSION};
use califorms_analyze::workspace::analyze_sources;
use std::path::Path;

fn fixture(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(file);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

fn analyze(files: &[(&str, &str)]) -> Report {
    analyze_sources(
        files
            .iter()
            .map(|(p, f)| ((*p).to_string(), fixture(f)))
            .collect(),
        &LintConfig::default(),
    )
}

/// (lint, line, col) triples, in report order.
fn spans(report: &Report) -> Vec<(String, u32, u32)> {
    report
        .findings
        .iter()
        .map(|f| (f.lint.clone(), f.line, f.col))
        .collect()
}

#[test]
fn hot_path_violations_are_caught_one_call_from_the_root() {
    let report = analyze(&[("crates/sim/src/multicore.rs", "hot_path_indirect.rs")]);
    assert_eq!(
        spans(&report),
        vec![
            ("hot-path-unwrap".to_string(), 10, 24), // .unwrap() in helper
            ("hot-path-alloc".to_string(), 11, 17),  // format! in helper
        ]
    );
    // The chain proves the reachability pass (not the old per-function
    // name heuristic) found these: the violations are in `helper`, not
    // in the root itself.
    for f in &report.findings {
        assert!(
            f.help.contains("weave_turn") && f.help.contains("helper"),
            "{}",
            f.help
        );
    }
}

#[test]
fn clean_fixture_produces_no_findings_across_all_passes() {
    let report = analyze(&[("crates/sim/src/multicore.rs", "callgraph_clean.rs")]);
    assert!(report.clean, "clean fixture flagged: {:?}", spans(&report));
    assert!(report.suppressions.is_empty());
}

#[test]
fn report_is_schema_versioned_and_byte_stable() {
    let run = || {
        analyze(&[
            // Deliberately passed out of path order; the report must
            // sort findings by (path, line, col, lint) regardless.
            ("crates/sim/src/multicore.rs", "hot_path_indirect.rs"),
            ("crates/core/src/fixture_maps.rs", "bad_map.rs"),
        ])
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "identical inputs, identical bytes"
    );
    assert!(
        a.to_json()
            .contains(&format!("\"schema_version\": {SCHEMA_VERSION}")),
        "schema version stamped"
    );
    let order = spans(&a);
    // Path-major order: the core findings (alphabetically first path)
    // lead even though their file was passed second.
    assert_eq!(
        order.iter().map(|(l, ..)| l.as_str()).collect::<Vec<_>>(),
        vec![
            "nondet-map",
            "nondet-map",
            "nondet-map",
            "nondet-map",
            "hot-path-unwrap",
            "hot-path-alloc"
        ],
        "order: {order:?}"
    );
}
