//! End-to-end `benchgate` binary checks: real process, real files, real
//! exit codes (0 pass, 1 regression, 2 malformed input).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use stool_bench::gate::{Check, Report, Suite, EVERY_SUITE};

/// A scratch directory holding `baselines/BENCH_demo.json`.
fn fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("benchgate-bin-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("baselines")).unwrap();
    demo(2.0)
        .write(&dir.join("baselines/BENCH_demo.json"))
        .unwrap();
    dir
}

fn demo(makespan_s: f64) -> Report {
    let mut r = Report::new(Suite::Full);
    r.push("demo/makespan_s", makespan_s, "s", Check::Rise, EVERY_SUITE);
    r.push("demo/rounds", 7.0, "count", Check::Exact, EVERY_SUITE);
    r
}

fn benchgate(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchgate"))
        .arg("--baselines")
        .arg(dir.join("baselines"))
        .args(args)
        .output()
        .expect("benchgate runs")
}

#[test]
fn report_within_tolerance_exits_0() {
    let dir = fixture("pass");
    let fresh = dir.join("BENCH_demo.json");
    demo(2.1).write(&fresh).unwrap();
    let out = benchgate(&dir, &[fresh.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn regression_exits_1() {
    let dir = fixture("regress");
    let fresh = dir.join("BENCH_demo.json");
    demo(3.0).write(&fresh).unwrap();
    let out = benchgate(&dir, &[fresh.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("REGRESSION: demo/makespan_s"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_or_unmatched_input_exits_2() {
    let dir = fixture("malformed");
    let fresh = dir.join("BENCH_demo.json");
    // Not JSON, a metric without a baseline, no baseline file, no report.
    std::fs::write(&fresh, "{\"suite\": \"full\", \"metrics\": [").unwrap();
    assert_eq!(
        benchgate(&dir, &[fresh.to_str().unwrap()]).status.code(),
        Some(2)
    );
    let mut extra = demo(2.0);
    extra.push("demo/new", 1.0, "s", Check::Rise, EVERY_SUITE);
    extra.write(&fresh).unwrap();
    assert_eq!(
        benchgate(&dir, &[fresh.to_str().unwrap()]).status.code(),
        Some(2)
    );
    let orphan = dir.join("BENCH_orphan.json");
    demo(2.0).write(&orphan).unwrap();
    assert_eq!(
        benchgate(&dir, &[orphan.to_str().unwrap()]).status.code(),
        Some(2)
    );
    assert_eq!(benchgate(&dir, &[]).status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn baselines_are_written_from_full_suite_reports_only() {
    let dir = fixture("write");
    let fresh = dir.join("BENCH_demo.json");
    let mut pr = demo(9.0);
    pr.suite = Suite::Pr;
    pr.write(&fresh).unwrap();
    let out = benchgate(&dir, &["--write-baselines", fresh.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    demo(9.0).write(&fresh).unwrap();
    let out = benchgate(&dir, &["--write-baselines", fresh.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let written = std::fs::read_to_string(dir.join("baselines/BENCH_demo.json")).unwrap();
    assert_eq!(Report::parse(&written).unwrap(), demo(9.0));
    std::fs::remove_dir_all(&dir).ok();
}
