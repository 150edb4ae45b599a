//! The scenario-matrix program factory and report.
//!
//! [`stool::scenario`] keeps application choice as a plain token so the
//! matrix spec stays data; this module is where tokens become programs.
//! The mapping mirrors the paper's workload split: the session smoke
//! programs (`ring`, `sleepy`) from `stool::programs` and the §5
//! evaluation applications (`wave`, `comd`) from `mpi-apps`.
//!
//! `payload` is the per-app size knob: ring payload doubles, wave grid
//! points, CoMD lattice edge. `steps` is always the safe-point count.
//!
//! [`matrix_report`] turns executed rows into the `BENCH_matrix.json`
//! report that `benchgate` gates.

use mpi_apps::{CoMdMini, WaveMpi};
use simnet::VirtualTime;
use stool::programs::{RingPings, SleepyProgram};
use stool::{MpiProgram, ScenarioResult, ScenarioSpec};

use crate::gate::{Check, Report, Suite, EVERY_SUITE, FULL_ONLY};

/// The committed scenario matrix must keep at least this many rows (the
/// harness's raison d'être: breadth as data, not bespoke tests).
pub const MIN_MATRIX_SCENARIOS: f64 = 24.0;

/// Instantiate the program a scenario row names, or explain why the token
/// is unknown. Keep this in sync with the token list documented on
/// [`ScenarioSpec::app`] and in `docs/scenarios.md`.
pub fn app_for(spec: &ScenarioSpec) -> Result<Box<dyn MpiProgram>, String> {
    match spec.app.as_str() {
        "ring" => Ok(Box::new(RingPings {
            rounds: spec.steps,
            payload: spec.payload as usize,
        })),
        "sleepy" => Ok(Box::new(SleepyProgram {
            steps: spec.steps,
            nap: VirtualTime::from_micros(50),
        })),
        "wave" => Ok(Box::new(WaveMpi {
            npoints: spec.payload as usize,
            nsteps: spec.steps,
            ..WaveMpi::default()
        })),
        "comd" => Ok(Box::new(CoMdMini {
            nx: spec.payload as usize,
            nsteps: spec.steps,
            ..CoMdMini::default()
        })),
        other => Err(format!(
            "scenario '{}': unknown app token '{other}' (expected ring, sleepy, wave or comd)",
            spec.name
        )),
    }
}

/// The `BENCH_matrix.json` report of a matrix run. `rows` pairs each
/// executed result with its row's index in the spec file, and
/// `spec_scenarios` counts every row of the spec, so a `pr` run still
/// carries the full matrix size and the coverage floor.
///
/// A row's app and vendor are part of its metric names and its `pr` flag
/// picks its suites, so the gate's name-keyed diff also pins each row's
/// identity; its spec position pins the order.
pub fn matrix_report(
    suite: Suite,
    spec_scenarios: usize,
    rows: &[(usize, ScenarioResult)],
) -> Report {
    let mut report = Report::new(suite);
    let total = spec_scenarios as f64;
    report.push(
        "matrix/spec_scenarios",
        total,
        "rows",
        Check::Exact,
        EVERY_SUITE,
    );
    report.push(
        "matrix/spec_coverage",
        total,
        "rows",
        Check::AtLeast(MIN_MATRIX_SCENARIOS),
        EVERY_SUITE,
    );
    for (position, r) in rows {
        let suites = if r.pr { EVERY_SUITE } else { FULL_ONLY };
        let row = format!("matrix/{}/{}/{}", r.name, r.app, r.vendor.name());
        for (what, value, unit, check) in [
            ("position", *position as u64, "index", Check::Exact),
            ("passed", u64::from(r.passed()), "bool", Check::AtLeast(1.0)),
            ("recovery_rounds", r.recovery_rounds, "count", Check::Exact),
            ("kills", r.kills, "count", Check::Exact),
            ("epochs", r.epochs, "count", Check::WarnChange),
            ("put_retries", r.put_retries, "count", Check::WarnChange),
            ("stalls", r.stalls, "count", Check::WarnChange),
            ("elections", r.elections, "count", Check::WarnChange),
        ] {
            report.push(format!("{row}/{what}"), value as f64, unit, check, suites);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_documented_token_resolves() {
        for token in ["ring", "sleepy", "wave", "comd"] {
            let mut spec = ScenarioSpec::named("t");
            spec.app = token.into();
            let program = app_for(&spec).unwrap();
            assert!(!program.name().is_empty());
        }
        let mut spec = ScenarioSpec::named("t");
        spec.app = "lammps".into();
        let err = app_for(&spec)
            .err()
            .expect("unknown token must be rejected");
        assert!(err.contains("unknown app token"));
    }
}
