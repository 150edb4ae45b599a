//! `tenants`: a `Cluster` of 4 tenants (1 node × 4 ranks each, seeded
//! vendor mix), each running a medium `wave_mpi` with periodic
//! checkpoints and its own replica group. They share one store writer,
//! one tier and a worker pool of 8 permits, so two tenants run at a time.

use std::path::PathBuf;
use std::time::Instant;

use mpi_apps::WaveMpi;
use simnet::{ClusterSpec, KernelVersion};
use stool::cluster::{Cluster, TenantSpec};
use stool::{Checkpointer, MpiProgram, Session, TenantQuota, Vendor};

use crate::ckpt_restart::final_bits;
use crate::layers::{DurableState, SnapCounts};
use crate::report::{Class, Report, Samples};
use crate::rng::Rng;
use crate::{Ctx, Workload};

const MIB: f64 = 1024.0 * 1024.0;
const TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];
const POOL_PERMITS: usize = 8;

fn world() -> ClusterSpec {
    ClusterSpec::builder()
        .nodes(1)
        .ranks_per_node(4)
        .kernel(KernelVersion::CENTOS7)
        .build()
}

pub struct Tenants {
    wave: WaveMpi,
    every: u64,
    /// Seeded vendor of each tenant: two of each, in a seeded order.
    vendors: Vec<Vendor>,
    reference: Vec<u64>,
    root: PathBuf,
    counts: SnapCounts,
    quota_waits: u64,
}

impl Tenants {
    pub fn new(seed: u64, smoke: bool) -> Tenants {
        let (npoints, nsteps, every) = if smoke {
            (10_000, 40, 5)
        } else {
            (100_000, 200, 20)
        };
        let mut vendors = vec![
            Vendor::Mpich,
            Vendor::Mpich,
            Vendor::OpenMpi,
            Vendor::OpenMpi,
        ];
        Rng::new(seed).shuffle(&mut vendors);
        Tenants {
            wave: WaveMpi {
                npoints,
                nsteps,
                ..WaveMpi::default()
            },
            every,
            vendors,
            reference: Vec::new(),
            root: PathBuf::new(),
            counts: SnapCounts::default(),
            quota_waits: 0,
        }
    }

    /// Periodic checkpoints at every `every`-th step below `nsteps`.
    fn expected_epochs(&self) -> u64 {
        (self.wave.nsteps - 1) / self.every
    }

    fn build(&self, ctx: &Ctx) -> Result<Cluster, String> {
        let mut b = Cluster::builder()
            .worker_threads(POOL_PERMITS)
            .tier(self.root.join("tier"));
        for (i, id) in TENANTS.iter().enumerate() {
            let session = ctx
                .tracer
                .span("session.build", || {
                    ctx.session()
                        .cluster(world())
                        .vendor(self.vendors[i])
                        .checkpointer(Checkpointer::mana())
                        .checkpoint_every(self.every)
                        .checkpoint_store(self.root.join(format!("chain_{id}")))
                        .replicated_coordinator(self.root.join(format!("replicas_{id}")))
                        .build()
                })
                .map_err(|e| format!("build tenant {id}: {e}"))?;
            b = b.tenant(
                *id,
                TenantSpec::new(session).quota(TenantQuota {
                    max_queue: 2,
                    max_inflight_bytes: u64::MAX,
                }),
            );
        }
        ctx.tracer
            .span("cluster.build", || b.build())
            .map_err(|e| format!("build cluster: {e}"))
    }
}

impl Workload for Tenants {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        self.root = ctx.fresh_dir("tenants");
        let session = ctx
            .session()
            .cluster(world())
            .vendor(self.vendors[0])
            .checkpointer(Checkpointer::mana())
            .build()
            .map_err(|e| format!("build reference session: {e}"))?;
        let out = session
            .launch(&self.wave)
            .map_err(|e| format!("reference run: {e}"))?;
        self.reference = final_bits(&out).ok_or("reference run recorded no wave.final")?;
        // Validate the tenant configuration once.
        self.build(ctx).map(|_| ())
    }

    fn iterate(&mut self, ctx: &Ctx, _iter: u64, samples: &mut Samples, report: &mut Report) {
        let _ = std::fs::remove_dir_all(&self.root);
        let t0 = Instant::now();
        let cluster = match self.build(ctx) {
            Ok(c) => c,
            Err(e) => {
                report.op(false, || e);
                return;
            }
        };
        let programs: Vec<(&str, &dyn MpiProgram)> = TENANTS
            .iter()
            .map(|id| (*id, &self.wave as &dyn MpiProgram))
            .collect();
        let t_run = Instant::now();
        let ran = ctx.tracer.span("cluster.run", || cluster.run(&programs));
        let cluster_s = t_run.elapsed().as_secs_f64();
        let run_s = t0.elapsed().as_secs_f64();
        let rep = match ran {
            Ok(r) => r,
            Err(e) => {
                report.op(false, || format!("cluster run: {e}"));
                return;
            }
        };
        report.check(rep.all_completed(), || {
            "not every tenant ran to completion".to_string()
        });

        let mut counts = SnapCounts::default();
        let mut makespans = Vec::new();
        let mut quota_waits = 0;
        for id in TENANTS {
            let Some(t) = rep.tenant(id) else {
                report.op(false, || format!("no report for tenant {id}"));
                continue;
            };
            let identical = t
                .outcome
                .as_ref()
                .ok()
                .and_then(final_bits)
                .is_some_and(|bits| bits == self.reference);
            report.op(identical && t.store_error.is_none(), || {
                format!(
                    "tenant {id}: final field not bit-identical to the reference, or store \
                     error {:?}",
                    t.store_error
                )
            });
            report.check(t.epochs.len() as u64 == self.expected_epochs(), || {
                format!(
                    "tenant {id}: {} epochs committed, the policy takes {}",
                    t.epochs.len(),
                    self.expected_epochs()
                )
            });
            if let Ok(o) = &t.outcome {
                makespans.push(o.makespan().as_secs_f64());
            }
            quota_waits += t.quota_waits;
            if let Some(snap) = cluster.session(id).and_then(Session::telemetry) {
                counts.add(&snap);
            }
        }

        samples.wall("run_s", run_s, "s");
        samples.wall(
            "durable_mib_per_s",
            counts.image_bytes as f64 / MIB / cluster_s,
            "MiB/s",
        );
        if makespans.len() == TENANTS.len() {
            let max = makespans.iter().copied().fold(f64::MIN, f64::max);
            let min = makespans.iter().copied().fold(f64::MAX, f64::min);
            let mean = makespans.iter().sum::<f64>() / makespans.len() as f64;
            samples.exact("virt_makespan_s", max, "virt_s");
            samples.exact("fairness_spread", (max - min) / mean, "ratio");
        }
        samples.exact(
            "disk_bytes_per_epoch",
            counts.written_bytes as f64 / counts.epochs.max(1) as f64,
            "B",
        );
        self.counts = counts;
        self.quota_waits = quota_waits;
    }

    fn world_size(&self) -> usize {
        world().nranks()
    }

    fn layers(&mut self, ctx: &Ctx, report: &mut Report) {
        self.counts.push_call_path(report);
        self.counts.push_durability(report);
        report.layer("cluster.quota_waits", self.quota_waits as f64, Class::Wall);
        // The store, tier and replica probes run on the first tenant's
        // chain, its namespace of the shared tier and its replica group.
        let id = TENANTS[0];
        crate::layers::durability(
            ctx,
            &DurableState {
                chain: self.root.join(format!("chain_{id}")),
                tier: self.root.join("tier"),
                ns: stool::tenant_namespace(id).expect("valid tenant id"),
                replicas: self.root.join(format!("replicas_{id}")),
            },
            report,
        );
    }
}
