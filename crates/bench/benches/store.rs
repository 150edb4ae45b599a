//! Criterion: the delta-checkpoint store — full-base vs delta bytes
//! written, the bytes-hashed savings of dirty-segment tracking, the
//! on-disk savings of per-block compression, commit/load throughput, and
//! the sync vs async checkpoint latency the store buys on the wave/CoMD
//! workloads.
//!
//! As a side effect (in both `cargo bench` and `--test` smoke mode) this
//! bench emits the `BENCH_ckpt.json` report at the workspace root so CI
//! records the perf trajectory: per workload, the full-vs-delta, hashing,
//! compression and tier-dedup savings as ratios, the wall-clock commit
//! cost, and the virtual-time makespan with synchronous image writes vs
//! the async store.

use criterion::{criterion_group, criterion_main, Criterion};
use dmtcp_sim::store::{Compression, DeltaStore, StoreConfig};
use dmtcp_sim::tier::{FsTier, ObjectTier};
use dmtcp_sim::WorldImage;
use mpi_apps::{CoMdMini, WaveMpi};
use simnet::ClusterSpec;
use stool::{Checkpointer, ManaConfig, MpiProgram, Session, StoreError, Vendor};
use stool_bench::gate::{workspace_path, Check, Report, Suite, EVERY_SUITE};

fn bench_cluster() -> ClusterSpec {
    ClusterSpec::builder().nodes(2).ranks_per_node(3).build()
}

/// The store with this PR's cost reducers on (the defaults).
fn store_cfg() -> StoreConfig {
    StoreConfig {
        block_size: 1024,
        retain_epochs: 32,
        max_chain: 16,
        ..StoreConfig::default()
    }
}

/// The PR 2 path: every byte hashed every epoch, raw blocks on disk.
fn legacy_cfg() -> StoreConfig {
    StoreConfig {
        compression: Compression::None,
        dirty_tracking: false,
        ..store_cfg()
    }
}

/// MANA with a realistic static upper half: program text + rodata that
/// every rank image carries but no epoch ever changes (64 KiB models a
/// small binary; real MANA images are dominated by this part).
fn bench_mana() -> Checkpointer {
    Checkpointer::Mana(ManaConfig {
        static_image_bytes: 64 << 10,
        ..ManaConfig::default()
    })
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stool_bench_store_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct WorkloadRow {
    name: &'static str,
    epochs: usize,
    full_bytes: u64,
    delta_bytes_avg: u64,
    delta_raw_bytes_avg: u64,
    hashed_dirty_avg: u64,
    hashed_full_avg: u64,
    image_bytes: u64,
    /// Average bytes shipped to the remote tier per sealed epoch
    /// (blocks + manifest + seal; only content-new blocks ship, so
    /// `image_bytes / tier_shipped_bytes_avg` is the dedup-at-tier
    /// ratio the gate tracks).
    tier_shipped_bytes_avg: u64,
    commit_wall_ms: f64,
    sync_makespan_s: f64,
    async_makespan_s: f64,
}

/// Average a per-delta-epoch metric.
fn delta_avg(stats: &[dmtcp_sim::EpochStats], f: impl Fn(&dmtcp_sim::EpochStats) -> u64) -> u64 {
    let deltas: Vec<u64> = stats.iter().filter(|s| !s.full).map(&f).collect();
    if deltas.is_empty() {
        0
    } else {
        deltas.iter().sum::<u64>() / deltas.len() as u64
    }
}

/// Run one workload with periodic checkpoints three ways — sync (no
/// store), the current store (dirty tracking + compression), and the
/// PR 2 full-hash/raw-block store — and measure what each epoch cost.
fn measure_workload(
    name: &'static str,
    program: &dyn MpiProgram,
    every: u64,
) -> Result<WorkloadRow, StoreError> {
    let run = |store: Option<(&std::path::Path, StoreConfig, Option<&std::path::Path>)>| {
        let mut builder = Session::builder()
            .cluster(bench_cluster())
            .vendor(Vendor::Mpich)
            .checkpointer(bench_mana())
            .checkpoint_every(every);
        if let Some((dir, cfg, tier)) = store {
            builder = builder.checkpoint_store_with(dir, cfg);
            if let Some(tier_dir) = tier {
                builder = builder.checkpoint_tier(tier_dir);
            }
        }
        let session = builder.build().expect("session");
        session.launch(program).expect("launch")
    };

    let sync_out = run(None);
    let dir = tmp_dir(name);
    // The modern run ships every sealed epoch to a remote second tier.
    let tier_dir = tmp_dir(&format!("{name}_tier"));
    let async_out = run(Some((&dir, store_cfg(), Some(&tier_dir))));
    let dir_legacy = tmp_dir(&format!("{name}_legacy"));
    run(Some((&dir_legacy, legacy_cfg(), None)));

    // Dedup at the tier: each sealed epoch uploaded only its new blocks
    // plus manifest and seal. Sum what actually landed remotely.
    let tier = FsTier::open(&tier_dir)?;
    let mut tier_bytes = 0u64;
    let mut sealed_epochs = 0u64;
    for key in tier.list("")? {
        tier_bytes += tier.get(&key)?.len() as u64;
        if key.ends_with("/seal") {
            sealed_epochs += 1;
        }
    }
    let tier_shipped_bytes_avg = tier_bytes / sealed_epochs.max(1);

    let store = DeltaStore::open_with(&dir, store_cfg())?;
    let stats = store.epoch_stats_on_disk()?;
    let legacy = DeltaStore::open_with(&dir_legacy, legacy_cfg())?;
    let legacy_stats = legacy.epoch_stats_on_disk()?;

    // Wall-clock commit makespan: replay the chain's epochs through a
    // fresh store (chunk + hash + compress + write, the background
    // writer's whole pipeline).
    let epochs: Vec<WorldImage> = store
        .epochs()
        .iter()
        .map(|&e| store.load_epoch(e))
        .collect::<Result<_, _>>()?;
    let replay_dir = tmp_dir(&format!("{name}_replay"));
    let mut replay = DeltaStore::open_with(&replay_dir, store_cfg())?;
    let t0 = std::time::Instant::now();
    for img in &epochs {
        replay.commit(img)?;
    }
    let commit_wall_ms = t0.elapsed().as_secs_f64() * 1e3 / epochs.len().max(1) as f64;

    let row = WorkloadRow {
        name,
        epochs: stats.len(),
        full_bytes: stats
            .iter()
            .find(|s| s.full)
            .map(|s| s.bytes_written)
            .unwrap_or(0),
        delta_bytes_avg: delta_avg(&stats, |s| s.bytes_written),
        delta_raw_bytes_avg: delta_avg(&legacy_stats, |s| s.bytes_written),
        hashed_dirty_avg: delta_avg(&stats, |s| s.bytes_hashed),
        hashed_full_avg: delta_avg(&legacy_stats, |s| s.bytes_hashed),
        image_bytes: stats.last().map(|s| s.image_bytes).unwrap_or(0),
        tier_shipped_bytes_avg,
        commit_wall_ms,
        sync_makespan_s: sync_out.makespan().as_secs_f64(),
        async_makespan_s: async_out.makespan().as_secs_f64(),
    };
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir_legacy).ok();
    std::fs::remove_dir_all(&replay_dir).ok();
    std::fs::remove_dir_all(&tier_dir).ok();
    Ok(row)
}

/// The `BENCH_ckpt.json` report. The byte counts gate as ratios, each a
/// deterministic saving of the store: the delta chain, dirty-segment
/// tracking, per-block compression and content-keyed dedup at the tier.
fn report(rows: &[WorkloadRow]) -> Report {
    let ratio = |num: u64, den: u64| num as f64 / (den as f64).max(1.0);
    let mut report = Report::new(Suite::Full);
    for r in rows {
        for (what, value, unit, check) in [
            (
                "delta_ratio",
                ratio(r.full_bytes, r.delta_bytes_avg),
                "ratio",
                Check::Drop,
            ),
            (
                "hash_skip_ratio",
                ratio(r.hashed_full_avg, r.hashed_dirty_avg),
                "ratio",
                Check::Drop,
            ),
            (
                "compression_ratio",
                ratio(r.delta_raw_bytes_avg, r.delta_bytes_avg),
                "ratio",
                Check::Drop,
            ),
            (
                "tier_dedup_ratio",
                ratio(r.image_bytes, r.tier_shipped_bytes_avg),
                "ratio",
                Check::Drop,
            ),
            ("sync_makespan_s", r.sync_makespan_s, "s", Check::Rise),
            ("async_makespan_s", r.async_makespan_s, "s", Check::Rise),
            ("commit_wall_ms", r.commit_wall_ms, "ms", Check::WarnRise),
        ] {
            report.push(
                format!("ckpt/{}/{what}", r.name),
                value,
                unit,
                check,
                EVERY_SUITE,
            );
        }
    }
    report
}

/// Produce a realistic multi-epoch image sequence from a wave run (used by
/// the commit/load throughput benches).
fn wave_image(step: u64) -> WorldImage {
    let program = WaveMpi {
        npoints: 20_000,
        nsteps: 40,
        gather_final: false,
        ..WaveMpi::default()
    };
    Session::builder()
        .cluster(bench_cluster())
        .vendor(Vendor::Mpich)
        .checkpointer(bench_mana())
        .checkpoint_at_step(step, dmtcp_sim::CkptMode::Stop)
        .build()
        .unwrap()
        .launch(&program)
        .unwrap()
        .into_image()
        .unwrap()
}

fn store_benches(c: &mut Criterion) {
    // The measured rows (also what BENCH_ckpt.json records).
    let wave = WaveMpi {
        npoints: 20_000,
        nsteps: 40,
        gather_final: false,
        ..WaveMpi::default()
    };
    let comd = CoMdMini {
        nsteps: 24,
        ..CoMdMini::default()
    };
    let rows = vec![
        measure_workload("wave_mpi", &wave, 8).expect("wave row"),
        measure_workload("CoMD", &comd, 6).expect("comd row"),
    ];
    let ship_model = ManaConfig::default();
    for r in &rows {
        println!(
            "store/{}: {} epochs, full base {} B, avg delta {} B (raw {} B, \
             {:.2}x compression), hashed/delta {} B dirty vs {} B full \
             ({:.2}x less hashing), image {} B, tier ship {} B/epoch \
             ({:.2}x dedup at tier, modelled {:.3} ms undurable), \
             commit {:.3} ms, makespan sync {:.6} s vs async {:.6} s",
            r.name,
            r.epochs,
            r.full_bytes,
            r.delta_bytes_avg,
            r.delta_raw_bytes_avg,
            r.delta_raw_bytes_avg as f64 / r.delta_bytes_avg.max(1) as f64,
            r.hashed_dirty_avg,
            r.hashed_full_avg,
            r.hashed_full_avg as f64 / r.hashed_dirty_avg.max(1) as f64,
            r.image_bytes,
            r.tier_shipped_bytes_avg,
            r.image_bytes as f64 / r.tier_shipped_bytes_avg.max(1) as f64,
            ship_model
                .tier_ship_time(r.tier_shipped_bytes_avg as usize)
                .as_micros_f64()
                / 1e3,
            r.commit_wall_ms,
            r.sync_makespan_s,
            r.async_makespan_s,
        );
    }
    report(&rows)
        .write(&workspace_path("BENCH_ckpt.json"))
        .expect("write BENCH_ckpt.json");

    // Wall-clock throughput of the store primitives on real images.
    let img1 = wave_image(10);
    let img2 = wave_image(20);
    let mut group = c.benchmark_group("ckpt_store");
    group.sample_size(10);
    group.bench_function("commit_full", |b| {
        b.iter(|| {
            let dir = tmp_dir("commit_full");
            let mut store = DeltaStore::open_with(&dir, store_cfg()).unwrap();
            let s = store.commit(&img1).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            s.bytes_written
        });
    });
    group.bench_function("commit_delta", |b| {
        b.iter(|| {
            let dir = tmp_dir("commit_delta");
            let mut store = DeltaStore::open_with(&dir, store_cfg()).unwrap();
            store.commit(&img1).unwrap();
            let s = store.commit(&img2).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            s.bytes_written
        });
    });
    {
        let dir = tmp_dir("load");
        let mut store = DeltaStore::open_with(&dir, store_cfg()).unwrap();
        store.commit(&img1).unwrap();
        store.commit(&img2).unwrap();
        group.bench_function("load_latest_from_chain", |b| {
            b.iter(|| store.load_latest().unwrap().total_bytes());
        });
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

criterion_group!(benches, store_benches);
criterion_main!(benches);
