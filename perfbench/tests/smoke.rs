//! Smoke mode of the benchmark: every workload at tiny size, untraced and
//! traced, twice with the same seed. Every metric must be emitted once
//! per applicable workload, finite, with its unit; exact metrics must
//! repeat exactly; the result line must carry the gated metrics; and
//! `BENCHMARK.json` must list the same metrics the binary gates on.

#[path = "../src/report.rs"]
#[allow(dead_code)]
mod report;

use std::collections::BTreeMap;
use std::process::Command;

use report::{GATED_END_TO_END, PER_LAYER};

/// `(name, unit, exact)` of the end-to-end metrics, per workload.
fn end_to_end(workload: &str) -> Vec<(&'static str, &'static str, bool)> {
    let mut m = vec![
        ("setup_s", "s", false),
        ("run_s", "s", false),
        ("calib_s", "s", false),
        ("run_rel", "ratio", false),
        ("fail_ratio", "ratio", false),
        ("virt_makespan_s", "virt_s", true),
    ];
    match workload {
        "collectives" => m.extend([
            ("calls_per_s", "1/s", false),
            ("virt_us_per_call", "virt_us", true),
        ]),
        "ckpt_restart" => m.extend([
            ("durable_mib_per_s", "MiB/s", false),
            ("restart_s", "s", false),
            ("virt_ckpt_overhead_pct", "%", true),
            ("disk_bytes_per_epoch", "B", true),
        ]),
        "tenants" => m.extend([
            ("durable_mib_per_s", "MiB/s", false),
            ("disk_bytes_per_epoch", "B", true),
            ("fairness_spread", "ratio", true),
        ]),
        other => panic!("unknown workload {other}"),
    }
    m
}

struct Run {
    /// name → (printed value, unit, class)
    metrics: BTreeMap<String, (String, String, String)>,
    last_line: String,
}

fn run(workload: &str, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut metrics = BTreeMap::new();
    for line in stdout.lines().filter(|l| l.starts_with("metric ")) {
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(f.len(), 5, "malformed metric line {line:?}");
        let prev = metrics.insert(
            f[1].to_string(),
            (f[2].to_string(), f[3].to_string(), f[4].to_string()),
        );
        assert!(prev.is_none(), "{workload}: metric {} emitted twice", f[1]);
    }
    Run {
        metrics,
        last_line: stdout.lines().last().unwrap_or_default().to_string(),
    }
}

fn check_workload(workload: &str) {
    for trace in [false, true] {
        let (a, b) = (run(workload, trace), run(workload, trace));
        let mut expected: Vec<(&str, &str, bool)> = end_to_end(workload);
        if trace {
            expected.extend(PER_LAYER.iter().map(|&(n, u)| (n, u, false)));
        }
        for (name, unit, exact) in expected {
            let (value, got_unit, class) = a
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
            assert_eq!(got_unit, unit, "{workload}: unit of {name}");
            let v: f64 = value.parse().expect("numeric value");
            assert!(v.is_finite(), "{workload}: {name} = {value}");
            if exact {
                assert_eq!(class, "exact", "{workload}: {name} must be exact");
            }
        }
        for (name, (value, _, class)) in &a.metrics {
            if class == "exact" {
                let again = &b.metrics.get(name).expect("same metrics on both runs").0;
                assert_eq!(value, again, "{workload}: exact metric {name} drifted");
            }
        }
        assert!(
            a.last_line.starts_with("{\"correct\": true,"),
            "{}",
            a.last_line
        );
        assert!(a.last_line.contains("\"failed\": 0,"), "{}", a.last_line);
        assert_eq!(a.metrics["fail_ratio"].0, "0");
        let gated: Vec<(&str, &str)> = if trace {
            PER_LAYER.to_vec()
        } else {
            GATED_END_TO_END
                .iter()
                .map(|n| (*n, a.metrics[*n].1.as_str()))
                .collect()
        };
        for (name, unit) in gated {
            let entry = format!("\"{name}\": {{\"value\": ");
            assert!(a.last_line.contains(&entry), "result line lacks {name}");
            assert!(a.last_line.contains(&format!("\"unit\": \"{unit}\"")));
        }
    }
}

#[test]
fn collectives_smoke() {
    check_workload("collectives");
}

#[test]
fn ckpt_restart_smoke() {
    check_workload("ckpt_restart");
}

#[test]
fn tenants_smoke() {
    check_workload("tenants");
}

#[test]
fn benchmark_json_lists_the_gated_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    for name in GATED_END_TO_END {
        assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
    for (name, unit) in PER_LAYER {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in ["collectives", "ckpt_restart", "tenants"] {
        assert!(
            json.contains(&format!("\"name\": \"{workload}\"")),
            "{workload}"
        );
    }
}
