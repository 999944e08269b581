//! Provenance checks on the committed benchmark artifacts: numbers in
//! `BENCH_replay.json` that claim to describe the engine's data layout
//! must actually be derived from it, not hand-typed constants that rot
//! when the layout changes.

use califorms::sim::TraceOp;

/// Extracts the first `"key": <number>` value from a JSON document by
/// string scanning — the committed artifact is machine-written by the
/// replay bench, so the plain `"key":` spelling is stable.
fn json_number(doc: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    let at = doc
        .find(&needle)
        .unwrap_or_else(|| panic!("BENCH_replay.json has no `{key}` field"));
    let rest = doc[at + needle.len()..].trim_start();
    let end = rest.find([',', '}', '\n']).expect("number is terminated");
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("`{key}` is not a number: {e}"))
}

/// The `vec_bytes_per_op` column of `BENCH_replay.json` is the
/// per-element footprint of unpacked `Vec<TraceOp>` replay, and the
/// bench computes it as `size_of::<TraceOp>()` at runtime — so the
/// committed artifact must match the type the workspace actually
/// compiles, pinning the regenerate-on-layout-change discipline.
#[test]
fn committed_replay_artifact_vec_bytes_per_op_is_the_trace_op_size() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_replay.json");
    let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let committed = json_number(&doc, "vec_bytes_per_op");
    assert_eq!(
        committed,
        std::mem::size_of::<TraceOp>() as f64,
        "BENCH_replay.json was generated against a different TraceOp \
         layout — rerun `cargo run --release --bin replay` and commit \
         the refreshed artifact"
    );
    // The layout itself: 32 bytes is the packing the pack-format docs
    // assume (DESIGN.md §9); growing TraceOp is a deliberate decision,
    // not a drive-by.
    assert_eq!(std::mem::size_of::<TraceOp>(), 32);
}
