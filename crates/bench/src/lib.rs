//! # stool-bench — the paper's evaluation, regenerated
//!
//! One harness per figure of the paper's §5, plus ablations for the design
//! choices behind the overheads it reports. Each `fig*` binary prints the
//! same rows/series the paper reports, followed by the paper's own numbers
//! for comparison.
//!
//! | target | reproduces |
//! |---|---|
//! | `fig2_alltoall` | Fig. 2 — OSU `MPI_Alltoall` latency, 4 configs |
//! | `fig3_bcast` | Fig. 3 — OSU `MPI_Bcast` latency |
//! | `fig4_allreduce` | Fig. 4 — OSU `MPI_Allreduce` latency |
//! | `fig5_apps` | Fig. 5 — CoMD & wave_mpi completion times |
//! | `fig6_restart` | Fig. 6 — checkpoint under Open MPI, restart under MPICH |
//! | `abl_fsgsbase` | kernel ≥ 5.9 vs CentOS 7 (the overhead's stated cause) |
//! | `abl_layers` | native vs +muk vs +mana vs +muk+mana |
//! | `abl_algorithms` | vendor collective algorithm families at fixed network |
//! | `abl_drain` | checkpoint drain cost vs in-flight messages |
//! | `abl_detred` | canonical rank-ordered reductions: bit-identical across vendors |
//! | `scenario` | the declarative fault matrix → `BENCH_matrix.json` |
//! | `benchgate` | the CI gate over every `BENCH_*.json` report |
//!
//! Criterion benches (`cargo bench`) measure the *real* (wall-clock) cost
//! of the building blocks: collectives on the simulator, handle
//! translation, checkpoint image encode/decode, and the applications.
//! The `store`, `scale` and `telemetry` benches additionally emit
//! `BENCH_ckpt.json`, `BENCH_scale.json` and `BENCH_telemetry.json`. Every
//! such artifact is one [`gate::Report`] schema, which the `benchgate`
//! binary validates strictly and diffs by metric name against the
//! committed baselines under `benches/baselines/` — the CI perf-regression
//! gate (see `docs/ci.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod configs;
pub mod figdata;
pub mod gate;
pub mod matrix;
pub mod report;

pub use configs::{paper_cluster, quick_cluster, ConfigKind};
pub use figdata::{
    fig5_data, fig6_data, fig6_data_via_store, osu_figure, AppBar, OsuFigure, RestartFigure,
};
pub use matrix::app_for;
pub use report::{print_fig5, print_osu_figure, print_restart_figure, Series};
