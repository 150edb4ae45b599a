//! `ckpt_restart`: `wave_mpi` with a large field, checkpointed every k
//! steps through store + tier + 3-replica coordinator under one vendor,
//! stopped at a seeded step, its local chain deleted, and restarted from
//! the tier under the other vendor. The restarted field must be
//! bit-identical to an uninterrupted reference run.

use std::path::PathBuf;
use std::time::Instant;

use mpi_apps::WaveMpi;
use simnet::{ClusterSpec, KernelVersion};
use stool::{Checkpointer, CkptMode, RunOutcome, Vendor};

use crate::layers::{DurableState, SnapCounts};
use crate::report::{Report, Samples};
use crate::rng::Rng;
use crate::{Ctx, Workload};

const MIB: f64 = 1024.0 * 1024.0;

fn cluster() -> ClusterSpec {
    ClusterSpec::builder()
        .nodes(2)
        .ranks_per_node(4)
        .kernel(KernelVersion::CENTOS7)
        .build()
}

fn other(v: Vendor) -> Vendor {
    match v {
        Vendor::Mpich => Vendor::OpenMpi,
        Vendor::OpenMpi => Vendor::Mpich,
    }
}

/// The gathered final field, as bits.
pub fn final_bits(out: &RunOutcome) -> Option<Vec<u64>> {
    let mem = out.memories().ok()?;
    Some(
        mem[0]
            .f64s("wave.final")?
            .iter()
            .map(|x| x.to_bits())
            .collect(),
    )
}

pub struct CkptRestart {
    wave: WaveMpi,
    every: u64,
    /// The seeded stop step, and the vendor the job is launched under.
    stop: u64,
    first: Vendor,
    /// Reference final field (bits) and virtual makespan, from set-up.
    reference: Option<(Vec<u64>, f64)>,
    root: PathBuf,
    counts: SnapCounts,
}

impl CkptRestart {
    pub fn new(seed: u64, smoke: bool) -> CkptRestart {
        let (npoints, nsteps, every, window) = if smoke {
            (20_000, 40, 5, 21..31)
        } else {
            (400_000, 200, 10, 151..161)
        };
        let mut rng = Rng::new(seed);
        let first = if rng.below(2) == 0 {
            Vendor::Mpich
        } else {
            Vendor::OpenMpi
        };
        let stop = window.start + rng.below(window.end - window.start);
        CkptRestart {
            wave: WaveMpi {
                npoints,
                nsteps,
                ..WaveMpi::default()
            },
            every,
            stop,
            first,
            reference: None,
            root: PathBuf::new(),
            counts: SnapCounts::default(),
        }
    }

    /// Epochs the policy takes before the stop: one every `every` steps
    /// below the stop step, plus the stop checkpoint itself.
    fn expected_epochs(&self) -> u64 {
        (self.stop - 1) / self.every + 1
    }

    fn dirs(&self) -> (PathBuf, PathBuf, PathBuf) {
        (
            self.root.join("chain"),
            self.root.join("tier"),
            self.root.join("replicas"),
        )
    }
}

impl Workload for CkptRestart {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        self.root = ctx.fresh_dir("ckpt_restart");
        let session = ctx
            .tracer
            .span("session.build", || {
                ctx.session()
                    .cluster(cluster())
                    .vendor(self.first)
                    .checkpointer(Checkpointer::mana())
                    .build()
            })
            .map_err(|e| format!("build reference session: {e}"))?;
        let out = session
            .launch(&self.wave)
            .map_err(|e| format!("reference run: {e}"))?;
        let bits = final_bits(&out).ok_or("reference run recorded no wave.final")?;
        self.reference = Some((bits, out.makespan().as_secs_f64()));
        Ok(())
    }

    fn iterate(&mut self, ctx: &Ctx, _iter: u64, samples: &mut Samples, report: &mut Report) {
        let tr = &ctx.tracer;
        let (chain, tier, replicas) = self.dirs();
        for d in [&chain, &tier, &replicas] {
            let _ = std::fs::remove_dir_all(d);
        }
        let t0 = Instant::now();
        let sessions = tr.span("session.build", || {
            let launch = ctx
                .session()
                .cluster(cluster())
                .vendor(self.first)
                .checkpointer(Checkpointer::mana())
                .checkpoint_every(self.every)
                .checkpoint_at_step(self.stop, CkptMode::Stop)
                .checkpoint_store(&chain)
                .checkpoint_tier(&tier)
                .replicated_coordinator(&replicas)
                .build()?;
            let restart = ctx
                .session()
                .cluster(cluster())
                .vendor(other(self.first))
                .checkpointer(Checkpointer::mana())
                .checkpoint_store(&chain)
                .checkpoint_tier(&tier)
                .build()?;
            Ok::<_, stool::StoolError>((launch, restart))
        });
        let (launch, restart) = match sessions {
            Ok(s) => s,
            Err(e) => {
                report.op(false, || format!("build sessions: {e}"));
                return;
            }
        };

        let t_launch = Instant::now();
        let launched = tr.span("session.launch", || launch.launch(&self.wave));
        let launch_s = t_launch.elapsed().as_secs_f64();
        let stopped = matches!(&launched, Ok(RunOutcome::Checkpointed { .. }));
        report.op(stopped, || {
            format!(
                "launch under {} did not checkpoint-stop: {launched:?}",
                self.first.name()
            )
        });
        if !stopped {
            return;
        }
        // Lose the local chain: the restart must hydrate from the tier.
        let removed = tr.span("chain.remove", || std::fs::remove_dir_all(&chain));
        report.check(removed.is_ok(), || {
            format!("remove local chain: {removed:?}")
        });

        let t_restart = Instant::now();
        let restarted = tr.span("session.restore", || restart.restore_from_store(&self.wave));
        let restart_s = t_restart.elapsed().as_secs_f64();
        let run_s = t0.elapsed().as_secs_f64();

        let (ref_bits, ref_makespan) = self.reference.as_ref().expect("set-up ran");
        let identical = restarted
            .as_ref()
            .ok()
            .and_then(final_bits)
            .is_some_and(|bits| &bits == ref_bits);
        report.op(identical, || {
            format!(
                "restart under {} is not bit-identical to the reference: {:?}",
                other(self.first).name(),
                restarted.as_ref().map(|o| o.is_completed())
            )
        });

        let mut counts = SnapCounts::default();
        for snap in [launch.telemetry(), restart.telemetry()].iter().flatten() {
            counts.add(snap);
        }
        report.check(counts.epochs == self.expected_epochs(), || {
            format!(
                "{} epochs committed, the policy takes {}",
                counts.epochs,
                self.expected_epochs()
            )
        });

        samples.wall("run_s", run_s, "s");
        samples.wall("restart_s", restart_s, "s");
        samples.wall(
            "durable_mib_per_s",
            counts.image_bytes as f64 / MIB / launch_s,
            "MiB/s",
        );
        if let (Ok(a), Ok(b)) = (&launched, &restarted) {
            let virt = a.makespan().as_secs_f64() + b.makespan().as_secs_f64();
            samples.exact("virt_makespan_s", virt, "virt_s");
            samples.exact(
                "virt_ckpt_overhead_pct",
                (virt / ref_makespan - 1.0) * 100.0,
                "%",
            );
        }
        samples.exact(
            "disk_bytes_per_epoch",
            counts.written_bytes as f64 / counts.epochs.max(1) as f64,
            "B",
        );
        self.counts = counts;
    }

    fn world_size(&self) -> usize {
        cluster().nranks()
    }

    fn layers(&mut self, ctx: &Ctx, report: &mut Report) {
        self.counts.push_call_path(report);
        self.counts.push_durability(report);
        let (chain, tier, replicas) = self.dirs();
        crate::layers::durability(
            ctx,
            &DurableState {
                chain,
                tier,
                ns: String::new(),
                replicas,
            },
            report,
        );
        report.not_driven(&["cluster.quota_waits"]);
    }
}
