//! Tiny-size smoke test: for every workload in `BENCHMARK.json`, both the
//! untraced and the traced run pass every twin check and print every
//! metric `BENCHMARK.json` names for that mode, each with a unit.

use std::process::Command;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/")
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let array = &json[start..];
    let array = &array[..array.find(']').expect("array is closed")];
    array
        .split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim_start()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

/// The value and unit printed for `name` in a result line.
fn metric<'a>(line: &'a str, name: &str) -> Option<(f64, &'a str)> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    let (value, rest) = rest.split_once(",\"unit\":\"")?;
    let unit = rest.split('"').next()?;
    Some((value.parse().ok()?, unit))
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_twin_checks() {
    let json = benchmark_json();
    let workloads = names(&json, "workloads");
    assert_eq!(
        workloads,
        ["spec_1c", "mc_hot_2c", "mc_lock_2c", "mc_stream_ckpt_2c"]
    );
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let wanted = names(&json, section);
        assert!(!wanted.is_empty());
        for workload in &workloads {
            let out = Command::new(env!("CARGO_BIN_EXE_califorms-perfbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
                .args(["--trace", trace, "--size", "tiny"])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload}: {stderr}");
            let line = stdout.lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\":true,") && line.contains(",\"failed\":0,"),
                "{workload} trace {trace}: {line}\n{stderr}"
            );
            for name in &wanted {
                let (value, unit) = metric(line, name)
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: no {name} in {line}"));
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert!(!unit.is_empty(), "{workload}: {name} has no unit");
            }
            assert_eq!(
                line.matches("\"value\":").count(),
                wanted.len(),
                "{workload} trace {trace}: metrics other than BENCHMARK.json's in {line}"
            );
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "spec_1c", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "spec_1c",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_califorms-perfbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
