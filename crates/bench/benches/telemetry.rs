//! Criterion: the flight recorder — what always-on telemetry costs.
//!
//! Two angles. The **deterministic** one: a fixed checkpointing workload
//! is replayed and the control-plane events the run emits per committed
//! epoch are counted from the recorder's per-kind counters; instrumented
//! code paths are deterministic under virtual time, so this gates hard —
//! a drop means instrumentation was lost, a rise means the control plane
//! got chatty. The **wall-clock** one: the hot ring is hammered from
//! several threads to measure nanoseconds per `emit` (machine-dependent,
//! warns only).
//!
//! As a side effect (in both `cargo bench` and `--test` smoke mode) this
//! bench emits the `BENCH_telemetry.json` report at the workspace root for
//! the benchgate flow.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use simnet::ClusterSpec;
use stool::programs::RingPings;
use stool::{Checkpointer, EventKind, Session, Telemetry, Vendor};
use stool_bench::gate::{workspace_path, Check, Report, Suite, EVERY_SUITE};

/// The kinds the coordinator/store control plane emits on a clean
/// (no-replica, no-tier) checkpointing run. Per-round counts are a pure
/// function of the virtual-time schedule.
const CONTROL_PLANE: &[EventKind] = &[
    EventKind::CkptRequest,
    EventKind::CkptScheduled,
    EventKind::CutFinalized,
    EventKind::RendezvousEnter,
    EventKind::BarrierPhase,
    EventKind::EpochCommit,
    EventKind::StoreCommit,
    EventKind::GcDecision,
];

/// Run the fixed workload and count control-plane events per committed
/// epoch. Returns `(events_per_round, rounds)`.
fn measure_session() -> (f64, u64) {
    let dir = std::env::temp_dir().join(format!("stool_bench_telemetry_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = Session::builder()
        .cluster(ClusterSpec::builder().nodes(2).ranks_per_node(3).build())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(6)
        .checkpoint_store(&dir)
        .build()
        .expect("session");
    let out = session
        .launch(&RingPings {
            rounds: 48,
            payload: 64,
        })
        .expect("launch");
    assert!(out.is_completed(), "bench workload must complete");
    let snap = session.telemetry().expect("telemetry snapshot");
    assert_eq!(snap.incidents(), 0, "bench workload must run clean");
    let rounds = snap.emitted(EventKind::EpochCommit);
    assert!(rounds > 0, "bench workload must commit epochs");
    let events: u64 = CONTROL_PLANE.iter().map(|&k| snap.emitted(k)).sum();
    std::fs::remove_dir_all(&dir).ok();
    (events as f64 / rounds as f64, rounds)
}

/// Hammer the hot ring from four threads and time the emits. Returns
/// `(emit_wall_ns, events_per_sec_wall)`.
fn measure_emit_wall() -> (f64, f64) {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 200_000;
    let tel = std::sync::Arc::new(Telemetry::new(THREADS));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let tel = tel.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    tel.emit_rank(t, EventKind::MsgMatch, i, t as u64, i, 0);
                }
            });
        }
    });
    let elapsed = t0.elapsed();
    let events = (THREADS as u64 * PER_THREAD) as f64;
    assert_eq!(tel.emitted(EventKind::MsgMatch) as f64, events);
    (
        elapsed.as_nanos() as f64 / events,
        events / elapsed.as_secs_f64(),
    )
}

/// The `BENCH_telemetry.json` report. Events per round gate in both
/// directions: fewer means instrumentation fell off a code path, more
/// means the control plane got chatty.
fn report(events_per_round: f64, rounds: u64, emit_wall_ns: f64) -> Report {
    let mut report = Report::new(Suite::Full);
    report.push(
        "telemetry/events_per_round",
        events_per_round,
        "events/round",
        Check::Band,
        EVERY_SUITE,
    );
    report.push(
        "telemetry/rounds",
        rounds as f64,
        "count",
        Check::Exact,
        EVERY_SUITE,
    );
    report.push(
        "telemetry/emit_wall_ns",
        emit_wall_ns,
        "ns",
        Check::WarnRise,
        EVERY_SUITE,
    );
    report
}

fn telemetry_benches(c: &mut Criterion) {
    let (events_per_round, rounds) = measure_session();
    let (emit_wall_ns, events_per_sec_wall) = measure_emit_wall();
    println!(
        "telemetry: {events_per_round:.2} control-plane events/round over {rounds} rounds, \
         hot emit {emit_wall_ns:.1} ns ({events_per_sec_wall:.0} events/s, 4 threads)"
    );
    report(events_per_round, rounds, emit_wall_ns)
        .write(&workspace_path("BENCH_telemetry.json"))
        .expect("write BENCH_telemetry.json");

    // Wall-clock per-emit cost under criterion for the local trajectory.
    let tel = Telemetry::new(1);
    let mut i = 0u64;
    let mut group = c.benchmark_group("telemetry");
    group.bench_function("emit", |b| {
        b.iter(|| {
            i += 1;
            tel.emit_rank(0, EventKind::MsgMatch, i, i, 0, 0);
            i
        });
    });
    group.finish();
}

criterion_group!(benches, telemetry_benches);
criterion_main!(benches);
