//! Per-layer measurements: counts read from the runs' telemetry
//! snapshots, and direct timings of each layer's public calls.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dmtcp_sim::{
    BarrierTopology, CkptMode, Coordinator, DeltaStore, FsTier, ObjectTier, Poll, RankImage,
    ReplicaConfig, ReplicaGroup, SharedTier, StoreConfig, SystemClock, TierConfig, WorldImage,
};
use mana_sim::{ManaConfig, ManaMpi};
use mpi_abi::{Handle, MpiAbi};
use mpi_apps::OsuKernel;
use muk::{registry::open_vendor, MukShim, Vendor};
use simnet::{ClusterSpec, World};
use stool::mpix::Pmpi;
use stool::{EventKind, Telemetry, TelemetrySnapshot};

use crate::collectives::{self, one_collective};
use crate::report::{median, Class, Report};
use crate::Ctx;

const MIB: f64 = 1024.0 * 1024.0;

/// Layer counts summed over the telemetry snapshots of one iteration.
#[derive(Debug, Default, Clone)]
pub struct SnapCounts {
    sends: u64,
    wakeups: u64,
    wildcard_scans: u64,
    wildcard_scanned: u64,
    events: u64,
    rounds: u64,
    round_virt_ns: Vec<u64>,
    prepares: u64,
    accepts: u64,
    slot_commits: u64,
    pub epochs: u64,
    pub image_bytes: u64,
    hashed_bytes: u64,
    pub written_bytes: u64,
    put_retries: u64,
    ship_failures: u64,
    log_retries: u64,
}

impl SnapCounts {
    pub fn add(&mut self, snap: &TelemetrySnapshot) {
        let metrics = snap.metrics();
        let get = |k: &str| metrics.get(k).map_or(0, |v| v.scalar());
        self.sends += get("fabric.sends");
        self.wakeups += get("fabric.wakeups");
        self.wildcard_scans += get("match.wildcard_scans");
        self.wildcard_scanned += get("match.wildcard_scanned_buckets");
        self.events += snap.emitted_total();
        self.rounds += snap.emitted(EventKind::EpochCommit);
        self.prepares += snap.emitted(EventKind::Prepare);
        self.accepts += snap.emitted(EventKind::Accept);
        self.slot_commits += snap.emitted(EventKind::SlotCommit);
        for e in &snap.epochs {
            self.epochs += 1;
            self.image_bytes += e.image_bytes;
            self.hashed_bytes += e.bytes_hashed;
            self.written_bytes += e.bytes_written;
        }
        if let Some(t) = snap.tier {
            self.put_retries += t.put_retries;
            self.ship_failures += t.ship_failures;
        }
        if let Some(r) = snap.replica {
            self.log_retries += r.log_retries;
        }
        // Virtual time of each round: the cut being scheduled
        // (`CkptScheduled`: cut, mode, epoch) to the epoch sealing
        // (`EpochCommit`: epoch, cut, stop).
        let events = snap.events();
        for commit in events.iter().filter(|e| e.kind == EventKind::EpochCommit) {
            if let Some(sched) = events
                .iter()
                .find(|e| e.kind == EventKind::CkptScheduled && e.c == commit.a)
            {
                self.round_virt_ns
                    .push(commit.vclock_ns.saturating_sub(sched.vclock_ns));
            }
        }
    }

    fn ratio(a: u64, b: u64) -> f64 {
        if b == 0 {
            0.0
        } else {
            a as f64 / b as f64
        }
    }

    /// The simnet and coordinator counts every workload has.
    pub fn push_call_path(&self, report: &mut Report) {
        report.layer("simnet.fabric.sends", self.sends as f64, Class::Wall);
        report.layer(
            "simnet.fabric.wakeups_per_send",
            Self::ratio(self.wakeups, self.sends),
            Class::Wall,
        );
        report.layer(
            "simnet.match.wildcard_scanned_per_scan",
            Self::ratio(self.wildcard_scanned, self.wildcard_scans),
            Class::Wall,
        );
        report.layer("simnet.telemetry.events", self.events as f64, Class::Wall);
        report.layer("coordinator.rounds", self.rounds as f64, Class::Exact);
        let virt_us: Vec<f64> = self.round_virt_ns.iter().map(|&n| n as f64 / 1e3).collect();
        // Not exact: the first rank to reach the cut stamps `CkptScheduled`
        // with its own clock, and which rank that is depends on scheduling.
        report.layer("coordinator.virt_round_us", median(&virt_us), Class::Wall);
    }

    /// The store/tier/replica counts of a checkpointing workload.
    pub fn push_durability(&self, report: &mut Report) {
        report.layer(
            "store.hashed_ratio",
            Self::ratio(self.hashed_bytes, self.image_bytes),
            Class::Exact,
        );
        report.layer(
            "store.written_ratio",
            Self::ratio(self.written_bytes, self.image_bytes),
            Class::Exact,
        );
        report.layer("tier.put_retries", self.put_retries as f64, Class::Wall);
        report.layer("tier.ship_failures", self.ship_failures as f64, Class::Wall);
        report.layer(
            "replica.prepares_per_commit",
            Self::ratio(self.prepares, self.slot_commits),
            Class::Exact,
        );
        report.layer(
            "replica.accepts_per_commit",
            Self::ratio(self.accepts, self.slot_commits),
            Class::Exact,
        );
        report.layer("replica.log_retries", self.log_retries as f64, Class::Wall);
    }
}

/// The probes every workload runs: recorder emit cost, the layer ladder
/// on the collectives inputs, and the coordinator rendezvous at the
/// workload's world size.
pub fn common(ctx: &Ctx, world_size: usize, report: &mut Report) {
    let emits: u64 = if ctx.smoke { 20_000 } else { 2_000_000 };
    report.layer(
        "simnet.telemetry.ns_per_emit",
        ctx.tracer.span("telemetry.emit", || emit_ns(emits)),
        Class::Wall,
    );
    ladder(ctx, report);
    let rounds = if ctx.smoke { 10 } else { 200 };
    let rendezvous = ctx.tracer.span("coordinator.rendezvous", || {
        rendezvous_ms(world_size, rounds)
    });
    report.layer("coordinator.rendezvous_ms", rendezvous, Class::Wall);
}

/// Nanoseconds per `Telemetry::emit` on one lane.
fn emit_ns(n: u64) -> f64 {
    let tel = Telemetry::new(1);
    let t0 = Instant::now();
    for i in 0..n {
        tel.emit(0, EventKind::MsgMatch, i, std::hint::black_box(i), 0, 0);
    }
    let ns = t0.elapsed().as_nanos() as f64 / n as f64;
    assert_eq!(tel.emitted(EventKind::MsgMatch), n);
    ns
}

/// Milliseconds per checkpoint rendezvous round (cut pinned at a
/// scheduled step, counter exchange, image staging, finish) over `n`
/// agent threads.
fn rendezvous_ms(n: usize, timed: u64) -> f64 {
    const WARMUP: u64 = 2;
    let coord = Coordinator::with_topology(n, BarrierTopology::auto(n));
    let go = std::sync::Barrier::new(n + 1);
    let done = std::sync::Barrier::new(n + 1);
    let ms = std::thread::scope(|s| {
        for rank in 0..n {
            let coord = coord.clone();
            let (go, done) = (&go, &done);
            s.spawn(move || {
                let mut agent = coord.agent(rank);
                let zeros = vec![0u64; n];
                for round in 0..WARMUP + timed {
                    if round == WARMUP {
                        go.wait();
                    }
                    coord.schedule_checkpoint_at(round, CkptMode::Continue);
                    match agent.poll(round).expect("poll") {
                        Poll::Enter(session) => {
                            session
                                .exchange_counters(&zeros, &zeros)
                                .expect("exchange counters");
                            session.submit_image(RankImage::new(rank, n, session.epoch()));
                            session.finish().expect("finish");
                        }
                        _ => panic!("a pinned cut enters at its own step"),
                    }
                }
                done.wait();
            });
        }
        go.wait();
        let t0 = Instant::now();
        done.wait();
        t0.elapsed().as_secs_f64() * 1e3 / timed as f64
    });
    assert_eq!(coord.completed_rounds(), WARMUP + timed);
    ms
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Rung {
    Native,
    Muk,
    Full,
}

const RUNGS: [Rung; 3] = [Rung::Native, Rung::Muk, Rung::Full];

impl Rung {
    fn span(self) -> &'static str {
        match self {
            Rung::Native => "ladder.native",
            Rung::Muk => "ladder.muk",
            Rung::Full => "ladder.full",
        }
    }
}

/// One rung of the ladder: rank 0's wall and virtual nanoseconds over
/// `per_size` collectives at each size, world-wide fabric sends and
/// context switches.
struct RungResult {
    wall_ns: f64,
    virt_ns: f64,
    sends: u64,
    switches: u64,
}

fn rung(
    cluster: &ClusterSpec,
    vendor: Vendor,
    rung: Rung,
    kernel: OsuKernel,
    sizes: &[usize],
    per_size: usize,
) -> RungResult {
    let out = World::run(cluster, |ctx| {
        let mut lib: Box<dyn MpiAbi> = match rung {
            Rung::Native => open_vendor(vendor, ctx.clone()),
            Rung::Muk => Box::new(MukShim::load(vendor, ctx.clone())),
            Rung::Full => Box::new(ManaMpi::launch(
                ctx.clone(),
                ManaConfig::default(),
                Box::new(MukShim::load(vendor, ctx.clone())),
            )),
        };
        let mut p = Pmpi::new(lib.as_mut());
        for &size in sizes {
            one_collective(&mut p, kernel, size, ctx.nranks()).expect("warm-up collective");
        }
        p.barrier(Handle::COMM_WORLD).expect("barrier");
        let (t0, v0) = (Instant::now(), ctx.now());
        for &size in sizes {
            for _ in 0..per_size {
                one_collective(&mut p, kernel, size, ctx.nranks()).expect("ladder collective");
            }
        }
        Ok((
            t0.elapsed().as_nanos() as f64,
            (ctx.now() - v0).as_nanos() as f64,
        ))
    })
    .expect("ladder world");
    RungResult {
        wall_ns: out.results[0].0,
        virt_ns: out.results[0].1,
        sends: out.counters.iter().map(|c| c.msgs_sent).sum(),
        switches: out.counters.iter().map(|c| c.context_switches).sum(),
    }
}

/// The layer ladder on the collectives inputs: the bare vendor engine,
/// `MukShim` over it, and `ManaMpi` over `MukShim`.
///
/// On the workload's 8-rank world it gives each vendor engine's wall
/// time and fabric sends per call and the layers' virtual overheads. A
/// layer's own wall cost (well under a microsecond) drowns in the
/// 8-thread synchronisation noise there, so the self times come from a
/// 1-rank world: the same calls and sizes with no peer to wait for,
/// repeated and reduced to medians.
fn ladder(ctx: &Ctx, report: &mut Report) {
    let sizes = collectives::sizes(ctx.smoke);
    let kernels = [OsuKernel::Bcast, OsuKernel::Allreduce, OsuKernel::Alltoall];
    let vendors = [Vendor::Mpich, Vendor::OpenMpi];
    let world = collectives::cluster();
    let per_size = if ctx.smoke { 3 } else { 40 };
    let calls = (kernels.len() * sizes.len() * per_size) as f64;
    // Calls including the untimed warm-up pass, for the counters (which
    // also see the one barrier each rung makes).
    let counted = calls + (kernels.len() * sizes.len()) as f64;

    let (mut virt, mut switches) = ([0.0f64; 3], 0u64);
    for vendor in vendors {
        let (mut wall_ns, mut sends) = (0.0, 0u64);
        for kernel in kernels {
            for (r, which) in RUNGS.into_iter().enumerate() {
                let res = ctx.tracer.span(which.span(), || {
                    rung(&world, vendor, which, kernel, &sizes, per_size)
                });
                virt[r] += res.virt_ns;
                match which {
                    Rung::Native => {
                        wall_ns += res.wall_ns;
                        sends += res.sends;
                    }
                    Rung::Full => switches += res.switches,
                    Rung::Muk => {}
                }
            }
        }
        let (us, per_call) = match vendor {
            Vendor::Mpich => ("mpich.us_per_call", "mpich.sends_per_call"),
            Vendor::OpenMpi => ("ompi.us_per_call", "ompi.sends_per_call"),
        };
        report.layer(us, wall_ns / calls / 1e3, Class::Wall);
        report.layer(per_call, sends as f64 / counted, Class::Exact);
    }
    // Per call and rank, over both vendors.
    report.layer(
        "mana.switches_per_call",
        switches as f64 / (2.0 * counted * world.nranks() as f64),
        Class::Exact,
    );
    report.layer(
        "muk.virt_overhead_pct",
        (virt[1] / virt[0] - 1.0) * 100.0,
        Class::Exact,
    );
    report.layer(
        "mana.virt_overhead_pct",
        (virt[2] / virt[1] - 1.0) * 100.0,
        Class::Exact,
    );

    let solo = ClusterSpec::builder().nodes(1).ranks_per_node(1).build();
    let (reps, solo_per_size) = if ctx.smoke { (1, 20) } else { (7, 200) };
    let solo_calls = (vendors.len() * kernels.len() * sizes.len() * solo_per_size) as f64;
    let mut per_rung: [Vec<f64>; 3] = Default::default();
    for _ in 0..reps {
        for (r, which) in RUNGS.into_iter().enumerate() {
            let mut ns = 0.0;
            for vendor in vendors {
                for kernel in kernels {
                    ns += ctx
                        .tracer
                        .span(which.span(), || {
                            rung(&solo, vendor, which, kernel, &sizes, solo_per_size)
                        })
                        .wall_ns;
                }
            }
            per_rung[r].push(ns / solo_calls);
        }
    }
    let [native, muk, full] = per_rung.map(|v| median(&v));
    report.layer("muk.self_ns_per_call", muk - native, Class::Wall);
    report.layer("mana.self_ns_per_call", full - muk, Class::Wall);
}

/// Where a checkpointing workload left its durable state.
pub struct DurableState {
    /// Chain directory of the probed run.
    pub chain: PathBuf,
    /// Tier root, and the chain's namespace in it (`""` for a private tier).
    pub tier: PathBuf,
    pub ns: String,
    /// Root of the run's replica group (`replica_NN/` below it).
    pub replicas: PathBuf,
}

fn fs_tier(dir: &Path) -> Result<FsTier, String> {
    FsTier::open(dir).map_err(|e| format!("open tier {}: {e:?}", dir.display()))
}

/// Time the store, tier and replica layers on a workload's own epochs,
/// objects and log records.
pub fn durability(ctx: &Ctx, st: &DurableState, report: &mut Report) {
    if let Err(e) = durability_probes(ctx, st, report) {
        report.check(false, || format!("durability probe: {e}"));
    }
}

fn durability_probes(ctx: &Ctx, st: &DurableState, report: &mut Report) -> Result<(), String> {
    let tr = &ctx.tracer;
    let cfg = StoreConfig::default();
    let shared = SharedTier::new(Arc::new(fs_tier(&st.tier)?), TierConfig::default());

    // The workload's own epochs: whatever its chain holds locally once
    // the tier has filled in anything the head still references.
    let images: Vec<WorldImage> = {
        let mut store = DeltaStore::open_with(&st.chain, cfg).map_err(|e| format!("{e:?}"))?;
        store
            .attach_shared_tier(&shared, &st.ns)
            .map_err(|e| format!("{e:?}"))?;
        let epochs = store.epochs().to_vec();
        epochs
            .iter()
            .map(|&e| {
                store
                    .load_epoch(e)
                    .map_err(|err| format!("load epoch {e}: {err:?}"))
            })
            .collect::<Result<_, _>>()?
    };
    if images.is_empty() {
        return Err("the workload's chain holds no epochs".into());
    }

    // store.commit / store.load: re-commit those epochs into fresh chains.
    let mut commit_ms = Vec::new();
    let mut load_ms = Vec::new();
    let reps = if ctx.smoke { 1 } else { 3 };
    for rep in 0..reps {
        let dir = ctx.fresh_dir(&format!("probe_store_{rep}"));
        let mut store = DeltaStore::open_with(&dir, cfg).map_err(|e| format!("{e:?}"))?;
        for img in &images {
            let t0 = Instant::now();
            tr.span("store.commit", || store.commit(img))
                .map_err(|e| format!("commit: {e:?}"))?;
            commit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        drop(store);
        let t0 = Instant::now();
        let loaded = tr
            .span("store.load", || {
                DeltaStore::open_with(&dir, cfg).and_then(|s| s.load_latest())
            })
            .map_err(|e| format!("load: {e:?}"))?;
        load_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if loaded.ranks.len() != images[0].ranks.len() {
            return Err("reloaded image has the wrong rank count".into());
        }
    }
    report.layer("store.commit_ms", median(&commit_ms), Class::Wall);
    report.layer("store.load_ms", median(&load_ms), Class::Wall);

    // tier.get / tier.put: the chain's shipped objects, read back from the
    // workload's tier and written to a fresh one (at most 64 MiB).
    let src = fs_tier(&st.tier)?;
    let dst = fs_tier(&ctx.fresh_dir("probe_tier"))?;
    let keys = src.list(&st.ns).map_err(|e| format!("{e:?}"))?;
    let cap = if ctx.smoke { 4.0 * MIB } else { 64.0 * MIB };
    let (mut bytes, mut get_ns, mut put_ns) = (0.0f64, 0u128, 0u128);
    for key in keys {
        if bytes >= cap {
            break;
        }
        let t0 = Instant::now();
        let data = tr
            .span("tier.get", || src.get(&key))
            .map_err(|e| format!("get {key}: {e:?}"))?;
        get_ns += t0.elapsed().as_nanos();
        let t0 = Instant::now();
        tr.span("tier.put", || dst.put(&key, &data))
            .map_err(|e| format!("put {key}: {e:?}"))?;
        put_ns += t0.elapsed().as_nanos();
        bytes += data.len() as f64;
    }
    let per_mib = |ns: u128| {
        if bytes > 0.0 {
            ns as f64 / 1e6 / (bytes / MIB)
        } else {
            0.0
        }
    };
    report.layer("tier.get_ms_per_mib", per_mib(get_ns), Class::Wall);
    report.layer("tier.put_ms_per_mib", per_mib(put_ns), Class::Wall);

    // tier.hydrate: an empty chain directory pulled back from the tier.
    let mut store =
        DeltaStore::open_with(ctx.fresh_dir("probe_hydrate"), cfg).map_err(|e| format!("{e:?}"))?;
    let t0 = Instant::now();
    let hydrated = tr
        .span("tier.hydrate", || store.attach_shared_tier(&shared, &st.ns))
        .map_err(|e| format!("hydrate: {e:?}"))?;
    report.layer(
        "tier.hydrate_ms",
        t0.elapsed().as_secs_f64() * 1e3,
        Class::Wall,
    );
    if hydrated.is_empty() {
        return Err("hydration installed no epochs".into());
    }
    drop(store);

    // replica.commit: the workload's committed log records, replayed from
    // its replica logs and committed again to a fresh group.
    let logs = |root: &Path| -> Result<Vec<Arc<dyn ObjectTier>>, String> {
        (0..ReplicaConfig::default().replicas)
            .map(|i| fs_tier(&root.join(format!("replica_{i:02}"))).map(|t| Arc::new(t) as _))
            .collect()
    };
    let group = |root: &Path| -> Result<ReplicaGroup, String> {
        ReplicaGroup::new(
            ReplicaConfig::default(),
            Arc::new(SystemClock::new()),
            logs(root)?,
        )
        .map_err(|e| format!("{e:?}"))
    };
    let records = group(&st.replicas)?
        .committed()
        .map_err(|e| format!("{e:?}"))?;
    if records.is_empty() {
        return Err("the workload's replica log holds no records".into());
    }
    let fresh = group(&ctx.fresh_dir("probe_replicas"))?;
    let mut commit_ms = Vec::new();
    for (_, record) in records {
        let t0 = Instant::now();
        tr.span("replica.commit", || fresh.commit(record))
            .map_err(|e| format!("replica commit: {e:?}"))?;
        commit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    report.layer("replica.commit_ms", median(&commit_ms), Class::Wall);
    Ok(())
}

/// Per-layer metrics of the stool core, from the spans of the traced
/// iterations: medians per call.
pub fn session_spans(ctx: &Ctx, report: &mut Report) {
    let med = |name: &str| {
        let d: Vec<f64> = ctx
            .tracer
            .durations(name)
            .iter()
            .map(|&n| n as f64)
            .collect();
        median(&d)
    };
    report.layer("session.build_ms", med("session.build") / 1e6, Class::Wall);
    report.layer("session.launch_s", med("session.launch") / 1e9, Class::Wall);
    report.layer(
        "session.restore_s",
        med("session.restore") / 1e9,
        Class::Wall,
    );
    report.layer("cluster.run_s", med("cluster.run") / 1e9, Class::Wall);
}
