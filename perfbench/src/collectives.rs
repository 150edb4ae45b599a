//! `collectives`: OSU-style small-message `bcast`, `allreduce` and
//! `alltoall` sweeps through the full stack (vendor + `muk` + MANA), both
//! vendors, on 2 nodes × 4 ranks, with no checkpointer activity.

use mpi_abi::{AbiResult, Handle, ReduceOp};
use mpi_apps::{OsuKernel, OsuLatency};
use simnet::{ClusterSpec, KernelVersion};
use stool::mpix::Pmpi;
use stool::{Checkpointer, Session, Vendor};

use crate::layers::SnapCounts;
use crate::report::{Report, Samples};
use crate::rng::Rng;
use crate::{Ctx, Workload};

const KERNELS: [OsuKernel; 3] = [OsuKernel::Bcast, OsuKernel::Allreduce, OsuKernel::Alltoall];
const VENDORS: [Vendor; 2] = [Vendor::Mpich, Vendor::OpenMpi];

/// The world every collectives launch (and the layer ladder) runs on.
pub fn cluster() -> ClusterSpec {
    ClusterSpec::builder()
        .nodes(2)
        .ranks_per_node(4)
        .kernel(KernelVersion::CENTOS7)
        .build()
}

/// Message sizes swept: powers of two, 1 B to 1 KiB (16 B when smoke).
pub fn sizes(smoke: bool) -> Vec<usize> {
    bench(OsuKernel::Bcast, smoke).sizes()
}

fn bench(kernel: OsuKernel, smoke: bool) -> OsuLatency {
    OsuLatency {
        kernel,
        min_size: 1,
        max_size: if smoke { 16 } else { 1024 },
        warmup: if smoke { 2 } else { 10 },
        iters: if smoke { 5 } else { 60 },
        ckpt_window: None,
    }
}

/// One collective of `kernel` at `size` bytes, as the OSU kernels issue it.
pub fn one_collective(
    p: &mut Pmpi<'_>,
    kernel: OsuKernel,
    size: usize,
    nranks: usize,
) -> AbiResult<()> {
    match kernel {
        OsuKernel::Alltoall => {
            let send = vec![0x5Au8; size * nranks];
            let mut recv = vec![0u8; size * nranks];
            p.alltoall_bytes(&send, &mut recv, Handle::COMM_WORLD)
        }
        OsuKernel::Bcast => {
            let mut buf = vec![0x5Au8; size];
            p.bcast_bytes(&mut buf, 0, Handle::COMM_WORLD)
        }
        OsuKernel::Allreduce => {
            let elems = size.div_ceil(8).max(1);
            let send = vec![0u8; elems * 8];
            let mut recv = vec![0u8; elems * 8];
            p.allreduce_bytes_f64(&send, &mut recv, ReduceOp::Sum, Handle::COMM_WORLD)
        }
    }
}

pub struct Collectives {
    seed: u64,
    smoke: bool,
    /// Full-stack session per vendor.
    full: Vec<Session>,
    /// Native virtual latencies per (kernel, vendor), from set-up.
    native: Vec<Vec<f64>>,
    counts: SnapCounts,
}

impl Collectives {
    pub fn new(seed: u64, smoke: bool) -> Collectives {
        Collectives {
            seed,
            smoke,
            full: Vec::new(),
            native: Vec::new(),
            counts: SnapCounts::default(),
        }
    }

    /// Collective calls one launch makes, all ranks: the warm-up, and per
    /// size one barrier, `iters` × (collective + barrier) and the result
    /// allreduce.
    fn calls_per_launch(&self) -> u64 {
        let b = bench(OsuKernel::Bcast, self.smoke);
        let per_rank = b.warmup + b.sizes().len() * (2 + 2 * b.iters);
        (per_rank * cluster().nranks()) as u64
    }
}

fn pair(i: usize) -> (OsuKernel, Vendor) {
    (KERNELS[i % 3], VENDORS[i / 3])
}

impl Workload for Collectives {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        let build = |vendor: Vendor, full: bool| {
            ctx.tracer.span("session.build", || {
                let b = ctx.session().cluster(cluster()).vendor(vendor);
                let b = if full {
                    b.checkpointer(Checkpointer::mana())
                } else {
                    b.native_abi()
                };
                b.build().map_err(|e| format!("build session: {e}"))
            })
        };
        self.full = VENDORS
            .iter()
            .map(|&v| build(v, true))
            .collect::<Result<_, _>>()?;
        let native: Vec<Session> = VENDORS
            .iter()
            .map(|&v| build(v, false))
            .collect::<Result<_, _>>()?;
        // The native reference latencies the full stack is checked against.
        self.native = (0..6)
            .map(|i| {
                let (kernel, vendor) = pair(i);
                let session = &native[i / 3];
                let out = session
                    .launch(&bench(kernel, self.smoke))
                    .map_err(|e| format!("native {kernel:?} under {}: {e}", vendor.name()))?;
                let mem = out.memories().map_err(|e| e.to_string())?;
                mem[0]
                    .f64s("osu.lat_us")
                    .map(<[f64]>::to_vec)
                    .ok_or_else(|| "native run recorded no osu.lat_us".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    fn iterate(&mut self, ctx: &Ctx, iter: u64, samples: &mut Samples, report: &mut Report) {
        // The seed fixes the kernel/vendor order of every iteration.
        let mut order: Vec<usize> = (0..6).collect();
        Rng::new(self.seed ^ iter.wrapping_mul(0x9E37_79B9)).shuffle(&mut order);

        let t0 = std::time::Instant::now();
        let mut outcomes = Vec::with_capacity(order.len());
        for &i in &order {
            let (kernel, _) = pair(i);
            let session = &self.full[i / 3];
            let out = ctx.tracer.span("session.launch", || {
                session.launch(&bench(kernel, self.smoke))
            });
            outcomes.push((i, out, session.telemetry()));
        }
        let run_s = t0.elapsed().as_secs_f64();
        // Sum in a fixed order, so the exact metrics do not depend on the
        // seeded launch order through floating-point rounding.
        outcomes.sort_by_key(|(i, _, _)| *i);

        let mut counts = SnapCounts::default();
        let (mut makespan_s, mut lat_sum, mut lat_n) = (0.0, 0.0, 0usize);
        let mut completed = 0u64;
        for (i, out, snap) in outcomes {
            let (kernel, vendor) = pair(i);
            let what = format!("{kernel:?} under {} + Mukautuva + MANA", vendor.name());
            if let Some(snap) = &snap {
                counts.add(snap);
            }
            let lat = match &out {
                Ok(o) if o.is_completed() => o
                    .memories()
                    .ok()
                    .and_then(|m| m[0].f64s("osu.lat_us").map(<[f64]>::to_vec)),
                _ => None,
            };
            report.op(lat.is_some(), || {
                format!("{what}: launch did not complete: {out:?}")
            });
            let Some(lat) = lat else { continue };
            completed += 1;
            makespan_s += out.as_ref().map_or(0.0, |o| o.makespan().as_secs_f64());
            report.check(
                lat.len() == self.native[i].len() && lat.iter().all(|l| l.is_finite() && *l > 0.0),
                || format!("{what}: osu.lat_us not finite and positive: {lat:?}"),
            );
            for (size_idx, (full, native)) in lat.iter().zip(&self.native[i]).enumerate() {
                report.check(full >= native, || {
                    format!("{what}: size #{size_idx} full stack {full} us < native {native} us")
                });
            }
            lat_sum += lat.iter().sum::<f64>();
            lat_n += lat.len();
        }
        samples.wall("run_s", run_s, "s");
        samples.wall(
            "calls_per_s",
            (completed * self.calls_per_launch()) as f64 / run_s,
            "1/s",
        );
        samples.exact("virt_makespan_s", makespan_s, "virt_s");
        samples.exact("virt_us_per_call", lat_sum / lat_n.max(1) as f64, "virt_us");
        self.counts = counts;
    }

    fn world_size(&self) -> usize {
        cluster().nranks()
    }

    fn layers(&mut self, _ctx: &Ctx, report: &mut Report) {
        self.counts.push_call_path(report);
        // No checkpointer activity: the durability layers and the
        // cluster are not driven here.
        report.not_driven(&["store.", "tier.", "replica.", "cluster.quota_waits"]);
    }
}
