//! `perfbench`: one benchmark for the stool stack, end to end and per
//! layer.
//!
//! ```text
//! perfbench --workload <collectives|ckpt_restart|tenants> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Untraced (`--trace 0`): set up, run one warm-up iteration, then time
//! iterations for `--seconds` and print every end-to-end metric; the
//! last stdout line is the JSON result carrying the gated metrics. Traced
//! (`--trace 1`): alternate untraced and traced iterations, then drive
//! the per-layer probes; the JSON line carries the per-layer metrics and
//! the spans go to `out/trace-<workload>-<seed>.json`. `--smoke` shrinks
//! every input so a run takes a second or two. See `README.md`.

mod calib;
mod ckpt_restart;
mod collectives;
mod layers;
mod report;
mod rng;
mod tenants;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use report::{median, per_layer_names, Class, Report, Samples, GATED_END_TO_END};
use trace::Tracer;

/// What every workload shares: the size knob, the tracer and a private
/// work directory inside this package's `out/`.
pub struct Ctx {
    pub smoke: bool,
    pub tracer: Tracer,
    pub work: PathBuf,
    /// Where a run that records an incident dumps its flight recorder.
    pub dumps: PathBuf,
}

impl Ctx {
    /// A session builder whose crash dumps stay inside this package.
    pub fn session(&self) -> stool::SessionBuilder {
        stool::Session::builder().crash_dump_dir(self.dumps.clone())
    }

    /// A fresh (emptied) directory under the work directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark work directory");
        dir
    }
}

/// One workload of the benchmark.
pub trait Workload {
    /// One complete set-up: sessions, directories, reference run. Called
    /// several times; `setup_s` is the median.
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String>;
    /// One timed iteration: records `run_s` and the workload's other
    /// metrics into `samples`, and its operations and checks into
    /// `report`.
    fn iterate(&mut self, ctx: &Ctx, iter: u64, samples: &mut Samples, report: &mut Report);
    /// Ranks per world, for the coordinator rendezvous probe.
    fn world_size(&self) -> usize;
    /// The per-layer metrics this workload's own artifacts give (traced
    /// run, after the iterations).
    fn layers(&mut self, ctx: &Ctx, report: &mut Report);
}

const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn workload(name: &str, seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    match name {
        "collectives" => Ok(Box::new(collectives::Collectives::new(seed, smoke))),
        "ckpt_restart" => Ok(Box::new(ckpt_restart::CkptRestart::new(seed, smoke))),
        "tenants" => Ok(Box::new(tenants::Tenants::new(seed, smoke))),
        other => Err(format!(
            "unknown workload {other:?} (collectives, ckpt_restart, tenants)"
        )),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut w = match workload(&args.workload, args.seed, args.smoke) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let ctx = Ctx {
        smoke: args.smoke,
        tracer: Tracer::new(),
        work: out_dir.join(format!("work-{}-{}", args.workload, std::process::id())),
        dumps: out_dir.join("dumps"),
    };
    let mut report = Report::default();
    run(&args, w.as_mut(), &ctx, &mut report);
    let _ = std::fs::remove_dir_all(&ctx.work);

    let gated = if args.trace {
        per_layer_names()
    } else {
        GATED_END_TO_END.to_vec()
    };
    if args.trace {
        let path = out_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&out_dir).and_then(|()| ctx.tracer.write_json(&path));
        if let Err(e) = written {
            report.check(false, || format!("writing {}: {e}", path.display()));
        } else {
            println!("spans written to {}", path.display());
        }
    }
    report.validate(&gated);
    report.print(&gated);
    if !report.correct() {
        std::process::exit(1);
    }
}

fn run(args: &Args, w: &mut dyn Workload, ctx: &Ctx, report: &mut Report) {
    // Set-up, several times; the last one stays in force. A traced run
    // records its spans too (iteration id 0).
    let mut setup = Vec::with_capacity(SETUP_REPS);
    ctx.tracer.set_enabled(args.trace);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let result = w.setup(ctx);
        setup.push(t0.elapsed().as_secs_f64());
        if let Err(e) = result {
            report.op(false, || format!("set-up failed: {e}"));
            return;
        }
        report.op(true, String::new);
    }
    ctx.tracer.set_enabled(false);
    report.push("setup_s", median(&setup), "s", Class::Wall);

    // One untimed warm-up iteration (caches, first-touch, thread start).
    let t0 = Instant::now();
    w.iterate(ctx, 0, &mut Samples::default(), report);
    report.push("warmup_s", t0.elapsed().as_secs_f64(), "s", Class::Wall);

    // Timed iterations. A traced run alternates untraced and traced
    // iterations so the tracing overhead is measured in one process.
    let min_iters = if args.smoke { 2 } else { 3 };
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let (mut n_plain, mut n_traced) = (0u64, 0u64);
    let start = Instant::now();
    let mut iter = 1;
    while start.elapsed().as_secs_f64() < args.seconds
        || n_plain < min_iters
        || (args.trace && n_traced < min_iters)
    {
        let trace_this = args.trace && iter % 2 == 0;
        let calib_s = calib::calibrate();
        ctx.tracer.set_iter(iter);
        ctx.tracer.set_enabled(trace_this);
        if trace_this {
            w.iterate(ctx, iter, &mut traced, report);
            n_traced += 1;
        } else {
            w.iterate(ctx, iter, &mut plain, report);
            plain.wall("calib_s", calib_s, "s");
            n_plain += 1;
        }
        ctx.tracer.set_enabled(false);
        iter += 1;
    }
    report.push("iterations", n_plain as f64, "count", Class::Wall);
    let run_s = plain.median_of("run_s");
    if let (Some(run), Some(calib)) = (run_s, plain.median_of("calib_s")) {
        report.push("run_rel", run / calib, "ratio", Class::Wall);
    }
    if args.trace {
        // The traced iterations must compute exactly what the untraced
        // ones did; their wall time gives the tracing overhead.
        if let Some(traced_run_s) = traced.median_of("run_s") {
            report.layer("trace.run_s", traced_run_s, Class::Wall);
            if let Some(base) = run_s {
                report.layer(
                    "trace.overhead_pct",
                    (traced_run_s / base - 1.0) * 100.0,
                    Class::Wall,
                );
            }
        }
        for d in plain.exact_mismatches(&traced) {
            report.check(false, || d);
        }
        for d in traced.drift() {
            report.check(false, || d.clone());
        }
    }
    plain.finish(report);
    report.push(
        "fail_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        Class::Wall,
    );

    if args.trace {
        ctx.tracer.set_iter(0);
        ctx.tracer.set_enabled(true);
        layers::common(ctx, w.world_size(), report);
        w.layers(ctx, report);
        layers::session_spans(ctx, report);
        ctx.tracer.set_enabled(false);
    }
}
