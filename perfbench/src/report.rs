//! Metrics, checks and the result line.

use std::collections::BTreeMap;

/// How a metric repeats between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Modelled (virtual-time) or on-disk quantity: repeats bit-for-bit
    /// for the same seed.
    Exact,
    /// Wall-clock measurement, or a count that depends on thread timing.
    Wall,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Exact => "exact",
            Class::Wall => "wall",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub class: Class,
}

/// The end-to-end metrics the result line carries in an untraced run:
/// the iteration time relative to the calibration load (see `calib.rs`)
/// and the set-up time.
pub const GATED_END_TO_END: &[&str] = &["run_rel", "setup_s"];

/// The per-layer metrics the result line carries in a traced run, with
/// their units. Every workload emits all of them; a layer the workload
/// does not drive reads 0 (see `README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simnet.fabric.sends", "count"),
    ("simnet.fabric.wakeups_per_send", "ratio"),
    ("simnet.match.wildcard_scanned_per_scan", "ratio"),
    ("simnet.telemetry.events", "count"),
    ("simnet.telemetry.ns_per_emit", "ns"),
    ("mpich.us_per_call", "us"),
    ("ompi.us_per_call", "us"),
    ("mpich.sends_per_call", "count"),
    ("ompi.sends_per_call", "count"),
    ("muk.self_ns_per_call", "ns"),
    ("muk.virt_overhead_pct", "%"),
    ("mana.self_ns_per_call", "ns"),
    ("mana.virt_overhead_pct", "%"),
    ("mana.switches_per_call", "count"),
    ("coordinator.rounds", "count"),
    ("coordinator.rendezvous_ms", "ms"),
    ("coordinator.virt_round_us", "virt_us"),
    ("store.commit_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.hashed_ratio", "ratio"),
    ("store.written_ratio", "ratio"),
    ("tier.put_ms_per_mib", "ms/MiB"),
    ("tier.get_ms_per_mib", "ms/MiB"),
    ("tier.hydrate_ms", "ms"),
    ("tier.put_retries", "count"),
    ("tier.ship_failures", "count"),
    ("replica.commit_ms", "ms"),
    ("replica.prepares_per_commit", "ratio"),
    ("replica.accepts_per_commit", "ratio"),
    ("replica.log_retries", "count"),
    ("session.build_ms", "ms"),
    ("session.launch_s", "s"),
    ("session.restore_s", "s"),
    ("cluster.run_s", "s"),
    ("cluster.quota_waits", "count"),
    ("trace.run_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// The names of [`PER_LAYER`].
pub fn per_layer_names() -> Vec<&'static str> {
    PER_LAYER.iter().map(|(n, _)| *n).collect()
}

/// Everything one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Operations attempted: launches, restarts, tenant runs.
    pub attempted: u64,
    /// Operations that errored or whose output check failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, class: Class) {
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name} emitted twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            class,
        });
    }

    /// Push a per-layer metric, its unit taken from [`PER_LAYER`].
    pub fn layer(&mut self, name: &str, value: f64, class: Class) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.push(name, value, unit, class);
    }

    /// Push 0 for every per-layer metric starting with one of `prefixes`
    /// that is not measured yet: the layers this workload does not drive.
    pub fn not_driven(&mut self, prefixes: &[&str]) {
        for (name, unit) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) && self.get(name).is_none() {
                self.push(name, 0.0, unit, Class::Exact);
            }
        }
    }

    /// Count one operation; `ok = false` counts it as failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// A check on an operation already counted: a failure adds to
    /// `failed` without adding an attempt.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Print every metric as a line, then the failures, then the JSON
    /// result line carrying the metrics named in `gated`.
    pub fn print(&self, gated: &[&str]) {
        for m in &self.metrics {
            println!(
                "metric {:<40} {:>16} {:<8} {}",
                m.name,
                fmt_num(m.value),
                m.unit,
                m.class.label()
            );
        }
        for f in &self.failures {
            println!("FAILED {f}");
        }
        let mut body = Vec::new();
        for name in gated {
            if let Some(m) = self.metrics.iter().find(|m| m.name == *name) {
                body.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_num(m.value),
                    m.unit
                ));
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }

    /// Fail the run if a gated metric is missing or any metric is not a
    /// finite number.
    pub fn validate(&mut self, gated: &[&str]) {
        let missing: Vec<&str> = gated
            .iter()
            .copied()
            .filter(|n| self.get(n).is_none())
            .collect();
        for name in missing {
            self.check(false, || format!("metric {name} was not measured"));
        }
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.clone())
            .collect();
        for name in bad {
            self.check(false, || format!("metric {name} is not finite"));
        }
    }
}

/// A number as JSON: full precision, never NaN/inf (those are caught by
/// [`Report::validate`] and printed as 0 so the line stays parseable).
pub fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-iteration samples of wall metrics, reduced to medians, and exact
/// metrics, which must read the same on every iteration.
#[derive(Debug, Default)]
pub struct Samples {
    wall: BTreeMap<String, (Vec<f64>, &'static str)>,
    exact: BTreeMap<String, (f64, &'static str)>,
    drift: Vec<String>,
}

impl Samples {
    pub fn wall(&mut self, name: &str, value: f64, unit: &'static str) {
        self.wall
            .entry(name.to_string())
            .or_insert_with(|| (Vec::new(), unit))
            .0
            .push(value);
    }

    pub fn exact(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.exact.get(name) {
            None => {
                self.exact.insert(name.to_string(), (value, unit));
            }
            Some(&(first, _)) if first.to_bits() == value.to_bits() => {}
            Some(&(first, _)) => self.drift.push(format!(
                "exact metric {name} drifted between iterations: {first} then {value}"
            )),
        }
    }

    pub fn median_of(&self, name: &str) -> Option<f64> {
        self.wall.get(name).map(|(v, _)| median(v))
    }

    /// Exact metrics that read differently on two iterations.
    pub fn drift(&self) -> &[String] {
        &self.drift
    }

    /// Exact metrics `other` read differently from these.
    pub fn exact_mismatches(&self, other: &Samples) -> Vec<String> {
        let mut out = Vec::new();
        for (name, (val, _)) in &self.exact {
            if let Some((theirs, _)) = other.exact.get(name) {
                if val.to_bits() != theirs.to_bits() {
                    out.push(format!(
                        "exact metric {name} differs between untraced ({val}) and traced \
                         ({theirs}) iterations"
                    ));
                }
            }
        }
        out
    }

    /// Move the medians and exact values into the report; drift fails
    /// the run.
    pub fn finish(self, report: &mut Report) {
        for (name, (vals, unit)) in &self.wall {
            let shown: Vec<String> = vals.iter().map(|v| format!("{v:.6}")).collect();
            println!("samples {name} {unit} [{}]", shown.join(", "));
            report.push(name, median(vals), unit, Class::Wall);
        }
        for (name, (val, unit)) in &self.exact {
            report.push(name, *val, unit, Class::Exact);
        }
        for d in self.drift {
            report.check(false, || d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn exact_drift_fails_the_report() {
        let mut s = Samples::default();
        s.exact("virt", 1.5, "s");
        s.exact("virt", 1.5, "s");
        s.wall("run_s", 2.0, "s");
        s.wall("run_s", 4.0, "s");
        let mut r = Report::default();
        r.op(true, String::new);
        s.finish(&mut r);
        assert!(r.correct());
        assert_eq!(r.get("run_s"), Some(3.0));

        let mut s = Samples::default();
        s.exact("virt", 1.5, "s");
        s.exact("virt", 1.25, "s");
        let mut r = Report::default();
        r.op(true, String::new);
        s.finish(&mut r);
        assert!(!r.correct());
    }
}
