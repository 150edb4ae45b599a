//! benchgate — the CI perf-regression gate.
//!
//! Strictly validates each fresh report named on the command line (one
//! schema for every bench: [`stool_bench::gate::Report`]; a malformed emit
//! fails CI instead of uploading a broken artifact), finds its baseline
//! under `--baselines` by file name, and diffs the two by metric name.
//!
//! ```text
//! cargo run -p stool-bench --bin benchgate -- BENCH_ckpt.json BENCH_scale.json
//! cargo run -p stool-bench --bin benchgate -- --write-baselines BENCH_ckpt.json
//! ```
//!
//! Exit codes: 0 = pass, 1 = regression, 2 = missing or malformed input.
//! See `docs/ci.md` for the workflow.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stool_bench::gate::{compare, GateOutcome, Report, Suite};

struct Args {
    reports: Vec<PathBuf>,
    baselines: PathBuf,
    write_baselines: bool,
}

fn usage() -> ! {
    // lint:allow(no-eprintln) — gate tooling reports on stderr by design.
    eprintln!(
        "usage: benchgate [--baselines DIR] [--write-baselines] REPORT...\n\
         default: --baselines benches/baselines; each REPORT is gated against the \
         baseline of the same file name there"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        reports: Vec::new(),
        baselines: PathBuf::from("benches/baselines"),
        write_baselines: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baselines" => args.baselines = it.next().unwrap_or_else(|| usage()).into(),
            "--write-baselines" => args.write_baselines = true,
            flag if flag.starts_with("--") => usage(),
            path => args.reports.push(path.into()),
        }
    }
    if args.reports.is_empty() {
        usage();
    }
    args
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn parse(path: &Path, text: &str) -> Result<Report, String> {
    Report::parse(text).map_err(|e| format!("{} is malformed: {e}", path.display()))
}

fn run() -> Result<GateOutcome, String> {
    let args = parse_args();

    // Strict validation first: a fresh emit that does not parse is a CI
    // failure regardless of baselines.
    let mut fresh = Vec::with_capacity(args.reports.len());
    for path in &args.reports {
        let text = read(path)?;
        let report = parse(path, &text)?;
        println!(
            "benchgate: validated {} ({} suite, {} metrics)",
            path.display(),
            report.suite.name(),
            report.metrics.len()
        );
        let name = path
            .file_name()
            .ok_or_else(|| format!("{} names no file", path.display()))?;
        fresh.push((args.baselines.join(name), text, report));
    }

    if args.write_baselines {
        if let Some((to, _, r)) = fresh.iter().find(|(_, _, r)| r.suite != Suite::Full) {
            return Err(format!(
                "baselines must come from the full suite, not '{}' (for {})",
                r.suite.name(),
                to.display()
            ));
        }
        std::fs::create_dir_all(&args.baselines)
            .map_err(|e| format!("cannot create {}: {e}", args.baselines.display()))?;
        for (to, text, _) in &fresh {
            std::fs::write(to, text).map_err(|e| format!("cannot write {}: {e}", to.display()))?;
            println!("benchgate: baseline refreshed at {}", to.display());
        }
        return Ok(GateOutcome::default());
    }

    let mut out = GateOutcome::default();
    for (base_path, _, report) in &fresh {
        let base = parse(base_path, &read(base_path)?)?;
        compare(&mut out, &base, report)
            .map_err(|e| format!("does not line up with {}: {e}", base_path.display()))?;
    }
    Ok(out)
}

fn main() -> ExitCode {
    match run() {
        Err(msg) => {
            // lint:allow(no-eprintln) — gate tooling reports on stderr by design.
            eprintln!("benchgate: FAIL (invalid input): {msg}");
            ExitCode::from(2)
        }
        Ok(out) => {
            for w in &out.warnings {
                println!("benchgate: warn: {w}");
            }
            if out.ok() {
                println!(
                    "benchgate: PASS — {} gated metrics hold against the baselines",
                    out.passed
                );
                ExitCode::SUCCESS
            } else {
                for r in &out.regressions {
                    // lint:allow(no-eprintln) — gate tooling reports on stderr by design.
                    eprintln!("benchgate: REGRESSION: {r}");
                }
                // lint:allow(no-eprintln) — gate tooling reports on stderr by design.
                eprintln!(
                    "benchgate: FAIL — {} regression(s); if intentional, refresh with \
                     `cargo run -p stool-bench --bin benchgate -- --write-baselines REPORT...` \
                     from a full-suite run and commit benches/baselines/",
                    out.regressions.len()
                );
                ExitCode::FAILURE
            }
        }
    }
}
