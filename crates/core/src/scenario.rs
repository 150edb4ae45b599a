//! Declarative fault-schedule scenarios: the matrix harness.
//!
//! The paper's core claim is that cross-vendor restart survives *any*
//! failure the runtime can throw. This module turns "any failure" into
//! **data**: a [`FaultSchedule`] is a composable value describing rank
//! fail-storms, correlated node-group kills, slow/straggler ranks, torn
//! tier uploads mid-ship and coordinator leader-kills at a chosen barrier
//! phase — and a [`ScenarioSpec`] is one row of a matrix (app × vendor
//! pair × world size × durability policy × schedule) parsed from a
//! dependency-free TOML-like spec file ([`parse_matrix`]).
//!
//! [`run_scenario`] executes one row and asserts the same three
//! invariants for every schedule:
//!
//! 1. **Consistent unwind** — every rank observes the same failure step,
//!    the run returns (no hang), and the epoch chain holds no partial or
//!    quarantined epoch;
//! 2. **Cross-vendor bit-identical restart** — the job restarted from the
//!    chain under the *other* vendor finishes with memories bitwise equal
//!    to an uninterrupted reference run;
//! 3. **Expected incidents in the flight recorder** — kills surface as
//!    [`EventKind::RankKill`] incidents, stragglers as
//!    [`EventKind::RankStall`], torn uploads as tier `put_retries`,
//!    leader-kills as replica recoveries.
//!
//! The `scenario` binary in `stool-bench` runs a committed matrix
//! (`benches/scenarios/matrix.toml`) and emits each row's metrics into
//! the `BENCH_matrix.json` report, which `benchgate` gates exactly. See
//! `docs/scenarios.md`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use dmtcp_sim::memory::Memory;
use dmtcp_sim::replica::{BarrierPhase, ReplicaFault};
use dmtcp_sim::store::StoreConfig;
use dmtcp_sim::tier::{GetFault, PutFault, TierConfig};
use muk::Vendor;
use simnet::telemetry::EventKind;
use simnet::{ClusterSpec, VirtualTime};

use crate::program::MpiProgram;
use crate::session::{
    Checkpointer, DurabilityPolicy, FaultPlan, ReplicaPolicy, RunOutcome, Session, StorePolicy,
    TierPolicy,
};
use crate::telemetry::TelemetrySnapshot;

// ---------------------------------------------------------------------------
// The fault schedule: failures as data
// ---------------------------------------------------------------------------

/// Who a [`KillEvent`] strikes. The failure is still observed *globally*
/// (every rank unwinds at the same safe point, like an `MPI_Abort`); the
/// victims determine which ranks the flight recorder blames with
/// [`EventKind::RankKill`] and which node-group carries the blame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Victims {
    /// The whole world (a cluster-wide outage).
    World,
    /// A fail-storm of specific ranks.
    Ranks(Vec<usize>),
    /// A correlated node-group failure: every rank on the named nodes.
    Nodes(Vec<usize>),
}

impl Victims {
    /// The ranks this selection blames on `cluster`, sorted and deduped.
    pub fn resolve(&self, cluster: &ClusterSpec) -> Vec<usize> {
        let mut ranks: Vec<usize> = match self {
            Victims::World => (0..cluster.nranks()).collect(),
            Victims::Ranks(list) => list.clone(),
            Victims::Nodes(nodes) => (0..cluster.nranks())
                .filter(|&r| nodes.contains(&cluster.node_of(r)))
                .collect(),
        };
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// The node-group blamed for the failure (the first victim's node).
    pub fn blamed_node(&self, cluster: &ClusterSpec) -> usize {
        match self {
            Victims::World => 0,
            Victims::Nodes(nodes) => nodes.first().copied().unwrap_or(0),
            Victims::Ranks(ranks) => ranks.first().map(|&r| cluster.node_of(r)).unwrap_or(0),
        }
    }
}

/// One scheduled kill: the job dies globally when the application reaches
/// `at_step`, blamed on `victims`. Generalizes the single-shot
/// [`FaultPlan`] — a schedule may hold several kills, consumed one per
/// run as the job is restarted from the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillEvent {
    /// The safe-point step at which this kill strikes.
    pub at_step: u64,
    /// The blamed ranks/nodes.
    pub victims: Victims,
}

/// A slow-but-alive rank: every checkpoint safe point in
/// `[from_step, until_step)` costs this rank an extra `delay` of virtual
/// time before it arrives. Models an overheated node or a noisy
/// neighbour; correctness (the tree barrier, the cut) must not depend on
/// arrival skew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Straggler {
    /// The delayed rank.
    pub rank: usize,
    /// First safe-point step that stalls (inclusive).
    pub from_step: u64,
    /// First safe-point step that no longer stalls (exclusive).
    pub until_step: u64,
    /// The injected per-safe-point delay.
    pub delay: VirtualTime,
}

/// A composable fault schedule: everything the runtime can throw at one
/// run, as one data value. Consumed by `Session::run_inner` — attach with
/// [`crate::SessionBuilder::fault_schedule`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// Scheduled global kills, blamed on ranks or node-groups.
    pub kills: Vec<KillEvent>,
    /// Slow-but-alive ranks (virtual-clock delay injection).
    pub stragglers: Vec<Straggler>,
    /// FIFO upload-fault script applied to the remote tier during the
    /// run (torn/failed uploads mid-ship). Requires an attached tier.
    pub tier_puts: Vec<PutFault>,
    /// FIFO download-fault script applied to the remote tier while
    /// `restore_from_store` hydrates the chain. Requires an attached tier.
    pub tier_gets: Vec<GetFault>,
    /// Scripted coordinator-replica faults (leader kills at a chosen
    /// barrier phase), appended to the replica policy's own script.
    pub replica: Vec<ReplicaFault>,
}

impl FaultSchedule {
    /// Whether the schedule injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
            && self.stragglers.is_empty()
            && self.tier_puts.is_empty()
            && self.tier_gets.is_empty()
            && self.replica.is_empty()
    }

    /// Add a fail-storm of `ranks` at `step`.
    pub fn kill_ranks(mut self, step: u64, ranks: impl Into<Vec<usize>>) -> Self {
        self.kills.push(KillEvent {
            at_step: step,
            victims: Victims::Ranks(ranks.into()),
        });
        self
    }

    /// Add a correlated node-group kill at `step`.
    pub fn kill_nodes(mut self, step: u64, nodes: impl Into<Vec<usize>>) -> Self {
        self.kills.push(KillEvent {
            at_step: step,
            victims: Victims::Nodes(nodes.into()),
        });
        self
    }

    /// Add a whole-world kill at `step`.
    pub fn kill_world(mut self, step: u64) -> Self {
        self.kills.push(KillEvent {
            at_step: step,
            victims: Victims::World,
        });
        self
    }

    /// Delay `rank` by `delay` at every safe point in `[from, until)`.
    pub fn straggle(mut self, rank: usize, from: u64, until: u64, delay: VirtualTime) -> Self {
        self.stragglers.push(Straggler {
            rank,
            from_step: from,
            until_step: until,
            delay,
        });
        self
    }

    /// Script tier upload faults (FIFO, one per `put` call).
    pub fn tier_put_faults(mut self, faults: impl IntoIterator<Item = PutFault>) -> Self {
        self.tier_puts.extend(faults);
        self
    }

    /// Script tier download faults (FIFO, one per `get` call during
    /// hydration).
    pub fn tier_get_faults(mut self, faults: impl IntoIterator<Item = GetFault>) -> Self {
        self.tier_gets.extend(faults);
        self
    }

    /// Kill the coordinator-replica leader at `phase`.
    pub fn kill_leader_at(mut self, phase: BarrierPhase) -> Self {
        self.replica.push(ReplicaFault::KillLeaderAt(phase));
        self
    }

    /// The step of the earliest scheduled kill, if any.
    pub fn first_kill_step(&self) -> Option<u64> {
        self.kills.iter().map(|k| k.at_step).min()
    }

    /// The straggler entry covering `rank`, if any.
    pub(crate) fn straggler_for(&self, rank: usize) -> Option<Straggler> {
        self.stragglers.iter().find(|s| s.rank == rank).copied()
    }

    /// Internal-consistency checks against the cluster the schedule will
    /// run on. `Hold` faults are rejected: a held tier object would hang
    /// the scenario instead of failing it.
    pub fn validate(&self, cluster: &ClusterSpec) -> Result<(), String> {
        for kill in &self.kills {
            match &kill.victims {
                Victims::World => {}
                Victims::Ranks(ranks) => {
                    if ranks.is_empty() {
                        return Err(format!("kill at step {}: empty rank list", kill.at_step));
                    }
                    if let Some(&r) = ranks.iter().find(|&&r| r >= cluster.nranks()) {
                        return Err(format!(
                            "kill at step {} blames rank {r} but the world has {} ranks",
                            kill.at_step,
                            cluster.nranks()
                        ));
                    }
                }
                Victims::Nodes(nodes) => {
                    if nodes.is_empty() {
                        return Err(format!("kill at step {}: empty node list", kill.at_step));
                    }
                    if let Some(&n) = nodes.iter().find(|&&n| n >= cluster.nodes) {
                        return Err(format!(
                            "kill at step {} blames node {n} but the cluster has {} nodes",
                            kill.at_step, cluster.nodes
                        ));
                    }
                }
            }
        }
        for s in &self.stragglers {
            if s.rank >= cluster.nranks() {
                return Err(format!(
                    "straggler rank {} out of range (world has {} ranks)",
                    s.rank,
                    cluster.nranks()
                ));
            }
            if s.from_step >= s.until_step {
                return Err(format!(
                    "straggler rank {}: empty step window [{}, {})",
                    s.rank, s.from_step, s.until_step
                ));
            }
            if s.delay == VirtualTime::ZERO {
                return Err(format!("straggler rank {}: zero delay", s.rank));
            }
        }
        if self.tier_puts.contains(&PutFault::Hold) {
            return Err("PutFault::Hold would hang a scenario; script Fail or Torn".into());
        }
        if self.tier_gets.contains(&GetFault::Hold) {
            return Err("GetFault::Hold would hang a scenario; script Fail or Torn".into());
        }
        Ok(())
    }

    /// The schedule that remains after a run failed at `failed_step`:
    /// kills at or before that step are consumed, as are the upload
    /// script (spent against the failed run's shipper) and the replica
    /// script (spent against its group). Stragglers and the hydration
    /// script persist — they apply to the restart.
    pub fn after_failure(&self, failed_step: u64) -> FaultSchedule {
        FaultSchedule {
            kills: self
                .kills
                .iter()
                .filter(|k| k.at_step > failed_step)
                .cloned()
                .collect(),
            stragglers: self.stragglers.clone(),
            tier_puts: Vec::new(),
            tier_gets: self.tier_gets.clone(),
            replica: Vec::new(),
        }
    }

    /// Resolve the kill list against the cluster: sorted by step, same-step
    /// events merged, victims expanded to rank lists, plus the legacy
    /// single-shot [`FaultPlan`] folded in as a node-group kill (its `node`
    /// is the blamed node-group).
    pub(crate) fn resolved_kills(
        &self,
        cluster: &ClusterSpec,
        legacy: Option<FaultPlan>,
    ) -> Vec<ResolvedKill> {
        let mut by_step: BTreeMap<u64, (Vec<usize>, usize)> = BTreeMap::new();
        let mut fold = |at_step: u64, victims: &Victims| {
            let ranks = victims.resolve(cluster);
            let node = victims.blamed_node(cluster);
            let entry = by_step.entry(at_step).or_insert_with(|| (Vec::new(), node));
            entry.0.extend(ranks);
        };
        for kill in &self.kills {
            fold(kill.at_step, &kill.victims);
        }
        if let Some(plan) = legacy {
            fold(plan.at_step, &Victims::Nodes(vec![plan.node]));
        }
        by_step
            .into_iter()
            .map(|(at_step, (mut victims, node))| {
                victims.sort_unstable();
                victims.dedup();
                ResolvedKill {
                    at_step,
                    victims,
                    node,
                }
            })
            .collect()
    }
}

/// A kill event resolved against a concrete cluster (victims expanded to
/// ranks). Consumed by `AppCtx::checkpoint_point`.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedKill {
    pub(crate) at_step: u64,
    pub(crate) victims: Vec<usize>,
    pub(crate) node: usize,
}

// ---------------------------------------------------------------------------
// Scenario specs
// ---------------------------------------------------------------------------

/// Which durability legs a scenario attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityKind {
    /// Local delta store only.
    Store,
    /// Delta store + remote second tier.
    Tier,
    /// Delta store + replicated coordinator.
    Replica,
    /// Delta store + tier + replicated coordinator.
    TierReplica,
}

impl DurabilityKind {
    /// Whether a remote tier is attached.
    pub fn has_tier(self) -> bool {
        matches!(self, DurabilityKind::Tier | DurabilityKind::TierReplica)
    }

    /// Whether a replicated coordinator is attached.
    pub fn has_replicas(self) -> bool {
        matches!(self, DurabilityKind::Replica | DurabilityKind::TierReplica)
    }

    /// The spec-file token.
    pub fn token(self) -> &'static str {
        match self {
            DurabilityKind::Store => "store",
            DurabilityKind::Tier => "tier",
            DurabilityKind::Replica => "replica",
            DurabilityKind::TierReplica => "tier+replica",
        }
    }
}

/// One row of the scenario matrix: app × vendor pair × world size ×
/// durability policy × [`FaultSchedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Row name (unique within a matrix; `[a-z0-9-]`).
    pub name: String,
    /// Application token (`ring`, `sleepy`, `wave`, `comd` — resolved by
    /// the runner's program factory).
    pub app: String,
    /// The vendor the job launches under; restarts alternate to the
    /// *other* vendor first (the paper's headline).
    pub vendor: Vendor,
    /// Cluster nodes.
    pub nodes: usize,
    /// Ranks per node.
    pub ranks_per_node: usize,
    /// Application steps (safe points).
    pub steps: u64,
    /// Application size knob (payload doubles, grid points, lattice edge —
    /// per-app meaning, resolved by the program factory).
    pub payload: u64,
    /// Periodic checkpoint interval (safe-point steps).
    pub ckpt_every: u64,
    /// Durability legs to attach.
    pub durability: DurabilityKind,
    /// Canonical rank-ordered reductions (required for apps whose
    /// floating-point reductions are not bitwise vendor-independent).
    pub det: bool,
    /// Delete the local chain before the first restart, forcing hydration
    /// from the remote tier alone. Requires a tier.
    pub wipe_local: bool,
    /// Member of the pinned PR-CI subset (nightly runs every row).
    pub pr: bool,
    /// The fault schedule.
    pub schedule: FaultSchedule,
}

impl ScenarioSpec {
    /// A spec with defaults (small ring world) under `name`.
    pub fn named(name: impl Into<String>) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            app: "ring".into(),
            vendor: Vendor::Mpich,
            nodes: 3,
            ranks_per_node: 2,
            steps: 24,
            payload: 64,
            ckpt_every: 8,
            durability: DurabilityKind::Store,
            det: false,
            wipe_local: false,
            pr: false,
            schedule: FaultSchedule::default(),
        }
    }

    /// The cluster this row runs on.
    pub fn cluster(&self) -> ClusterSpec {
        ClusterSpec::builder()
            .nodes(self.nodes)
            .ranks_per_node(self.ranks_per_node)
            .build()
    }

    /// The *other* vendor — what the first restart runs under.
    pub fn restart_vendor(&self) -> Vendor {
        other_vendor(self.vendor)
    }

    /// Internal-consistency checks (bounds, durability compatibility).
    pub fn validate(&self) -> Result<(), String> {
        let ctx = |msg: String| format!("scenario \"{}\": {msg}", self.name);
        if self.name.is_empty() {
            return Err("scenario with empty name".into());
        }
        if self.steps == 0 {
            return Err(ctx("steps must be positive".into()));
        }
        if self.ckpt_every == 0 || self.ckpt_every >= self.steps {
            return Err(ctx(format!(
                "ckpt_every {} must be in 1..steps ({})",
                self.ckpt_every, self.steps
            )));
        }
        self.schedule.validate(&self.cluster()).map_err(ctx)?;
        if !self.durability.has_tier()
            && (!self.schedule.tier_puts.is_empty() || !self.schedule.tier_gets.is_empty())
        {
            return Err(ctx(format!(
                "tier faults need durability = \"tier\" or \"tier+replica\" (got \"{}\")",
                self.durability.token()
            )));
        }
        if !self.durability.has_replicas() && !self.schedule.replica.is_empty() {
            return Err(ctx(format!(
                "leader-kill needs durability = \"replica\" or \"tier+replica\" (got \"{}\")",
                self.durability.token()
            )));
        }
        if self.wipe_local && !self.durability.has_tier() {
            return Err(ctx("wipe_local needs a remote tier to hydrate from".into()));
        }
        if let Some(first) = self.schedule.first_kill_step() {
            if first <= self.ckpt_every {
                return Err(ctx(format!(
                    "first kill at step {first} precedes the first checkpoint \
                     (ckpt_every = {}); recovery would restart from scratch",
                    self.ckpt_every
                )));
            }
            if first >= self.steps {
                return Err(ctx(format!(
                    "kill at step {first} is past the last step ({})",
                    self.steps
                )));
            }
        }
        Ok(())
    }
}

fn other_vendor(v: Vendor) -> Vendor {
    match v {
        Vendor::Mpich => Vendor::OpenMpi,
        Vendor::OpenMpi => Vendor::Mpich,
    }
}

// ---------------------------------------------------------------------------
// The TOML-like matrix parser (dependency-free, gate.rs style)
// ---------------------------------------------------------------------------

/// Parse a scenario-matrix spec file.
///
/// The format is a strict TOML subset, line-based:
///
/// ```text
/// # comment
/// [scenario.ring-storm-mpich]
/// app = "ring"              # ring | sleepy | wave | comd
/// vendor = "mpich"          # mpich | openmpi
/// nodes = 3
/// ranks_per_node = 2
/// steps = 24
/// payload = 64
/// ckpt_every = 8
/// durability = "store"      # store | tier | replica | tier+replica
/// det = false
/// wipe_local = false
/// pr = true
/// fault = "kill-ranks @14 1,3"
/// ```
///
/// `fault` may repeat; every other key appears at most once per section.
/// Unknown keys are rejected (strict schema, like the benchgate JSON
/// parsers). See `docs/scenarios.md` for the fault grammar.
pub fn parse_matrix(text: &str) -> Result<Vec<ScenarioSpec>, String> {
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    let mut current: Option<(ScenarioSpec, Vec<String>)> = None;

    fn finish(
        specs: &mut Vec<ScenarioSpec>,
        current: Option<(ScenarioSpec, Vec<String>)>,
    ) -> Result<(), String> {
        if let Some((spec, _)) = current {
            spec.validate()?;
            if specs.iter().any(|s| s.name == spec.name) {
                return Err(format!("duplicate scenario name \"{}\"", spec.name));
            }
            specs.push(spec);
        }
        Ok(())
    }

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find('#') {
            // A '#' inside a quoted value would be a comment too; the
            // grammar has no use for one, so keep the scanner simple.
            Some(pos) if !raw[..pos].contains('"') || raw[..pos].matches('"').count() % 2 == 0 => {
                raw[..pos].trim()
            }
            _ => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let inner = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {line_no}: unterminated section header"))?;
            let name = inner.strip_prefix("scenario.").ok_or_else(|| {
                format!("line {line_no}: section must be [scenario.<name>], got [{inner}]")
            })?;
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
            {
                return Err(format!(
                    "line {line_no}: scenario name \"{name}\" must be non-empty [a-z0-9-]"
                ));
            }
            finish(&mut specs, current.take())?;
            current = Some((ScenarioSpec::named(name), Vec::new()));
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {line_no}: expected `key = value`, got \"{line}\""))?;
        let (key, value) = (key.trim(), value.trim());
        let (spec, seen) = current
            .as_mut()
            .ok_or_else(|| format!("line {line_no}: \"{key}\" before any [scenario.*] section"))?;
        if key != "fault" {
            if seen.iter().any(|k| k == key) {
                return Err(format!(
                    "line {line_no}: duplicate key \"{key}\" in scenario \"{}\"",
                    spec.name
                ));
            }
            seen.push(key.to_string());
        }
        let err = |msg: String| format!("line {line_no}: {msg}");
        match key {
            "app" => spec.app = parse_str(value).map_err(err)?,
            "vendor" => {
                spec.vendor = match parse_str(value).map_err(err)?.as_str() {
                    "mpich" => Vendor::Mpich,
                    "openmpi" => Vendor::OpenMpi,
                    v => return Err(err(format!("unknown vendor \"{v}\""))),
                }
            }
            "nodes" => spec.nodes = parse_int(value).map_err(err)? as usize,
            "ranks_per_node" => spec.ranks_per_node = parse_int(value).map_err(err)? as usize,
            "steps" => spec.steps = parse_int(value).map_err(err)?,
            "payload" => spec.payload = parse_int(value).map_err(err)?,
            "ckpt_every" => spec.ckpt_every = parse_int(value).map_err(err)?,
            "durability" => {
                spec.durability = match parse_str(value).map_err(err)?.as_str() {
                    "store" => DurabilityKind::Store,
                    "tier" => DurabilityKind::Tier,
                    "replica" => DurabilityKind::Replica,
                    "tier+replica" => DurabilityKind::TierReplica,
                    v => return Err(err(format!("unknown durability \"{v}\""))),
                }
            }
            "det" => spec.det = parse_bool(value).map_err(err)?,
            "wipe_local" => spec.wipe_local = parse_bool(value).map_err(err)?,
            "pr" => spec.pr = parse_bool(value).map_err(err)?,
            "fault" => {
                let fault = parse_str(value).map_err(err)?;
                parse_fault(&fault, &mut spec.schedule).map_err(err)?;
            }
            other => {
                return Err(err(format!(
                    "unknown key \"{other}\" (strict schema; see docs/scenarios.md)"
                )))
            }
        }
    }
    finish(&mut specs, current)?;
    if specs.is_empty() {
        return Err("matrix spec declares no scenarios".into());
    }
    Ok(specs)
}

fn parse_str(v: &str) -> Result<String, String> {
    let inner = v
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("expected a quoted string, got {v}"))?;
    if inner.contains('"') {
        return Err(format!("embedded quote in {v}"));
    }
    Ok(inner.to_string())
}

fn parse_int(v: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .map_err(|_| format!("expected an unsigned integer, got {v}"))
}

fn parse_bool(v: &str) -> Result<bool, String> {
    match v {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(format!("expected true or false, got {v}")),
    }
}

fn parse_usize_list(v: &str) -> Result<Vec<usize>, String> {
    v.split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad list element \"{s}\""))
        })
        .collect()
}

fn parse_at_step(tok: &str) -> Result<u64, String> {
    tok.strip_prefix('@')
        .ok_or_else(|| format!("expected @<step>, got \"{tok}\""))
        .and_then(parse_int)
}

/// Parse one `fault = "..."` clause into the schedule. Grammar:
///
/// ```text
/// kill-ranks @<step> <r1,r2,...>
/// kill-nodes @<step> <n1,n2,...>
/// kill-world @<step>
/// straggle rank=<r> from=<s> until=<s> delay_us=<n>
/// tier-put <fail|torn>[,...]
/// tier-get <fail|torn>[,...]
/// leader-kill <arrive|pre-seal|post-seal|release>
/// ```
fn parse_fault(clause: &str, schedule: &mut FaultSchedule) -> Result<(), String> {
    let toks: Vec<&str> = clause.split_whitespace().collect();
    match toks.as_slice() {
        ["kill-ranks", step, ranks] => {
            schedule.kills.push(KillEvent {
                at_step: parse_at_step(step)?,
                victims: Victims::Ranks(parse_usize_list(ranks)?),
            });
        }
        ["kill-nodes", step, nodes] => {
            schedule.kills.push(KillEvent {
                at_step: parse_at_step(step)?,
                victims: Victims::Nodes(parse_usize_list(nodes)?),
            });
        }
        ["kill-world", step] => {
            schedule.kills.push(KillEvent {
                at_step: parse_at_step(step)?,
                victims: Victims::World,
            });
        }
        ["straggle", rest @ ..] => {
            let (mut rank, mut from, mut until, mut delay_us) = (None, None, None, None);
            for kv in rest {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("straggle: expected key=value, got \"{kv}\""))?;
                match k {
                    "rank" => rank = Some(parse_int(v)? as usize),
                    "from" => from = Some(parse_int(v)?),
                    "until" => until = Some(parse_int(v)?),
                    "delay_us" => delay_us = Some(parse_int(v)?),
                    _ => return Err(format!("straggle: unknown key \"{k}\"")),
                }
            }
            schedule.stragglers.push(Straggler {
                rank: rank.ok_or("straggle: missing rank=")?,
                from_step: from.ok_or("straggle: missing from=")?,
                until_step: until.ok_or("straggle: missing until=")?,
                delay: VirtualTime::from_micros(delay_us.ok_or("straggle: missing delay_us=")?),
            });
        }
        ["tier-put", list] => {
            for f in list.split(',') {
                schedule.tier_puts.push(match f.trim() {
                    "fail" => PutFault::Fail,
                    "torn" => PutFault::Torn,
                    other => return Err(format!("tier-put: unknown fault \"{other}\"")),
                });
            }
        }
        ["tier-get", list] => {
            for f in list.split(',') {
                schedule.tier_gets.push(match f.trim() {
                    "fail" => GetFault::Fail,
                    "torn" => GetFault::Torn,
                    other => return Err(format!("tier-get: unknown fault \"{other}\"")),
                });
            }
        }
        ["leader-kill", phase] => {
            let phase = match *phase {
                "arrive" => BarrierPhase::Arrive,
                "pre-seal" => BarrierPhase::PreSeal,
                "post-seal" => BarrierPhase::PostSeal,
                "release" => BarrierPhase::Release,
                other => return Err(format!("leader-kill: unknown phase \"{other}\"")),
            };
            schedule.replica.push(ReplicaFault::KillLeaderAt(phase));
        }
        _ => {
            return Err(format!(
                "unknown fault clause \"{clause}\" (see docs/scenarios.md)"
            ))
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The scenario engine
// ---------------------------------------------------------------------------

/// What one executed scenario reported. `failures` is empty iff the row
/// passed; metrics are deterministic (virtual time, scripted faults) and
/// feed `BENCH_matrix.json`.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Row name.
    pub name: String,
    /// Application token.
    pub app: String,
    /// Launch vendor.
    pub vendor: Vendor,
    /// PR-subset member.
    pub pr: bool,
    /// Invariant failures (empty = passed).
    pub failures: Vec<String>,
    /// Global restarts forced by kill events.
    pub recovery_rounds: u64,
    /// Kill events consumed across the scenario.
    pub kills: u64,
    /// Epochs left on the final chain.
    pub epochs: u64,
    /// Tier upload retries observed (torn/failed uploads recovered).
    pub put_retries: u64,
    /// Straggler stalls recorded by the flight recorder.
    pub stalls: u64,
    /// Replica failover recoveries observed.
    pub elections: u64,
}

impl ScenarioResult {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Accumulated telemetry across a scenario's runs.
#[derive(Default)]
struct Observed {
    rank_kills: u64,
    stalls: u64,
    put_retries: u64,
    recoveries: u64,
    incidents_in_failed_runs: u64,
}

impl Observed {
    fn absorb(&mut self, snap: &TelemetrySnapshot, run_failed: bool) {
        self.rank_kills += snap.emitted(EventKind::RankKill);
        self.stalls += snap.emitted(EventKind::RankStall);
        if let Some(tier) = &snap.tier {
            self.put_retries += tier.put_retries;
        }
        if let Some(replica) = &snap.replica {
            self.recoveries += replica.recoveries;
        }
        if run_failed {
            self.incidents_in_failed_runs += snap.incidents();
        }
    }
}

/// Execute one scenario row: reference run, faulted run, restart chain
/// under the alternating vendor, and the three invariants. Never panics on
/// an invariant violation — failures are collected into the result so a
/// matrix run reports every broken row, not just the first.
///
/// `program` must implement the row's `app` for the row's `steps`/`payload`
/// (the runner's program factory does this mapping); `workdir` hosts the
/// row's chain/tier/replica directories (wiped on entry).
pub fn run_scenario(
    spec: &ScenarioSpec,
    program: &dyn MpiProgram,
    workdir: &Path,
) -> ScenarioResult {
    let mut result = ScenarioResult {
        name: spec.name.clone(),
        app: spec.app.clone(),
        vendor: spec.vendor,
        pr: spec.pr,
        failures: Vec::new(),
        recovery_rounds: 0,
        kills: 0,
        epochs: 0,
        put_retries: 0,
        stalls: 0,
        elections: 0,
    };
    if let Err(msg) = spec.validate() {
        result.failures.push(msg);
        return result;
    }
    let base = workdir.join(&spec.name);
    let _ = std::fs::remove_dir_all(&base);
    let durability = durability_for(spec, &base);
    let mut observed = Observed::default();
    let mut references: BTreeMap<&'static str, Vec<Memory>> = BTreeMap::new();

    // The run/restart chain: launch under the primary vendor with the
    // full schedule; each kill fails the run globally, and the job is
    // restarted from the chain under the alternating vendor with the
    // remaining schedule.
    let mut remaining = spec.schedule.clone();
    let mut vendor = spec.vendor;
    let mut fresh = true;
    let max_rounds = spec.schedule.kills.len() as u64 + 2;
    let final_memories = loop {
        let session = match build_session(spec, vendor, durability.clone(), remaining.clone()) {
            Ok(s) => s,
            Err(e) => {
                result.failures.push(format!("session build: {e}"));
                break None;
            }
        };
        let outcome = if fresh {
            session.launch(program)
        } else {
            session.restore_from_store(program)
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                result.failures.push(format!(
                    "{} run under {} errored: {e}",
                    if fresh { "launch" } else { "restart" },
                    vendor.name()
                ));
                break None;
            }
        };
        let run_failed = outcome.is_failed();
        if let Some(snap) = session.telemetry() {
            observed.absorb(&snap, run_failed);
        }
        match outcome {
            RunOutcome::Completed { memories, .. } => break Some((memories, vendor)),
            RunOutcome::Checkpointed { .. } => {
                result
                    .failures
                    .push("run checkpoint-stopped; scenarios never schedule a Stop".into());
                break None;
            }
            RunOutcome::Failed { failed_step, .. } => {
                result.kills += 1;
                // Invariant 1a: the failure lands exactly where the
                // schedule says (every rank agreed, or run_inner would
                // have errored above).
                match remaining.first_kill_step() {
                    Some(expected) if expected == failed_step => {}
                    Some(expected) => result.failures.push(format!(
                        "failed at step {failed_step}, schedule expected {expected}"
                    )),
                    None => result
                        .failures
                        .push(format!("unscheduled failure at step {failed_step}")),
                }
                // Invariant 1b: the chain survived the unwind whole.
                check_chain(&durability, &mut result.failures);
                result.recovery_rounds += 1;
                if result.recovery_rounds >= max_rounds {
                    result
                        .failures
                        .push(format!("no convergence after {max_rounds} restarts"));
                    break None;
                }
                remaining = remaining.after_failure(failed_step);
                if spec.wipe_local && result.recovery_rounds == 1 {
                    if let Err(msg) = wipe_local_chain(&durability) {
                        result.failures.push(msg);
                        break None;
                    }
                }
                // Restarts alternate vendors, starting with the other one
                // (the paper's headline restart).
                vendor = if result.recovery_rounds % 2 == 1 {
                    spec.restart_vendor()
                } else {
                    spec.vendor
                };
                fresh = chain_is_empty(&durability);
            }
        }
    };

    // Invariant 2: bit-identical final state vs an uninterrupted
    // reference run under the finishing vendor.
    if let Some((memories, final_vendor)) = &final_memories {
        match reference_for(spec, *final_vendor, program, &mut references) {
            Ok(reference) => {
                if let Some(msg) = memories_differ(reference, memories) {
                    result
                        .failures
                        .push(format!("final state under {}: {msg}", final_vendor.name()));
                }
            }
            Err(e) => result.failures.push(e),
        }
        // Rows whose schedule kills nothing still must prove the
        // cross-vendor restart: restore the chain under the other vendor
        // and compare that run too.
        if result.recovery_rounds == 0 {
            verify_restart(spec, program, &durability, &mut references, &mut result);
        }
    }

    // Invariant 3: the flight recorder holds the schedule's expected
    // incident events.
    let expected_victims: u64 = spec
        .schedule
        .resolved_kills(&spec.cluster(), None)
        .iter()
        .map(|k| k.victims.len() as u64)
        .sum();
    if expected_victims > 0 {
        if observed.rank_kills < expected_victims {
            result.failures.push(format!(
                "expected >= {expected_victims} RankKill events, recorder saw {}",
                observed.rank_kills
            ));
        }
        if observed.incidents_in_failed_runs == 0 {
            result
                .failures
                .push("kills recorded no incidents (crash dump would not trigger)".into());
        }
    }
    if !spec.schedule.stragglers.is_empty() && observed.stalls == 0 {
        result
            .failures
            .push("stragglers scheduled but no RankStall events recorded".into());
    }
    if !spec.schedule.tier_puts.is_empty()
        && observed.put_retries < spec.schedule.tier_puts.len() as u64
    {
        result.failures.push(format!(
            "expected >= {} tier put retries (one per scripted upload fault), saw {}",
            spec.schedule.tier_puts.len(),
            observed.put_retries
        ));
    }
    if !spec.schedule.replica.is_empty() && observed.recoveries < spec.schedule.replica.len() as u64
    {
        result.failures.push(format!(
            "expected >= {} replica failover recoveries, saw {}",
            spec.schedule.replica.len(),
            observed.recoveries
        ));
    }

    result.epochs = final_epoch_count(&durability);
    result.put_retries = observed.put_retries;
    result.stalls = observed.stalls;
    result.elections = observed.recoveries;
    result
}

/// Store/tier tunables small enough for matrix worlds: tiny blocks find
/// dedup on tiny images; fast, bounded retries keep torn-upload rows
/// quick and deterministic.
fn durability_for(spec: &ScenarioSpec, base: &Path) -> DurabilityPolicy {
    let store = StorePolicy {
        dir: base.join("chain"),
        config: StoreConfig {
            block_size: 128,
            retain_epochs: 4,
            max_chain: 4,
            ..StoreConfig::default()
        },
        tier: None,
        tenant: String::new(),
    };
    let tier = spec.durability.has_tier().then(|| TierPolicy {
        dir: base.join("tier"),
        config: TierConfig {
            max_attempts: 6,
            backoff: Duration::from_millis(1),
            ..TierConfig::default()
        },
    });
    let replicas = spec.durability.has_replicas().then(|| {
        let mut policy = ReplicaPolicy::new(base.join("replicas"));
        policy.election_timeout = Duration::from_millis(2);
        policy.log.backoff = Duration::from_millis(1);
        policy
    });
    DurabilityPolicy {
        store: Some(store),
        tier,
        replicas,
    }
}

fn build_session(
    spec: &ScenarioSpec,
    vendor: Vendor,
    durability: DurabilityPolicy,
    schedule: FaultSchedule,
) -> crate::error::StoolResult<Session> {
    let mut b = Session::builder()
        .cluster(spec.cluster())
        .vendor(vendor)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(spec.ckpt_every)
        .durability(durability)
        .fault_schedule(schedule);
    if spec.det {
        b = b.deterministic_reductions();
    }
    b.build()
}

/// The uninterrupted reference run under `vendor` (memoized per vendor —
/// a scenario needs at most two).
fn reference_for<'m>(
    spec: &ScenarioSpec,
    vendor: Vendor,
    program: &dyn MpiProgram,
    cache: &'m mut BTreeMap<&'static str, Vec<Memory>>,
) -> Result<&'m [Memory], String> {
    if !cache.contains_key(vendor.name()) {
        let mut b = Session::builder()
            .cluster(spec.cluster())
            .vendor(vendor)
            .checkpointer(Checkpointer::mana());
        if spec.det {
            b = b.deterministic_reductions();
        }
        let memories = b
            .build()
            .and_then(|s| s.launch(program))
            .and_then(|o| o.memories().map(<[Memory]>::to_vec))
            .map_err(|e| format!("reference run under {}: {e}", vendor.name()))?;
        cache.insert(vendor.name(), memories);
    }
    Ok(cache.get(vendor.name()).expect("just inserted"))
}

/// For kill-free rows: restore the final chain under the other vendor and
/// run the tail to completion; its memories must match that vendor's
/// reference bitwise.
fn verify_restart(
    spec: &ScenarioSpec,
    program: &dyn MpiProgram,
    durability: &DurabilityPolicy,
    references: &mut BTreeMap<&'static str, Vec<Memory>>,
    result: &mut ScenarioResult,
) {
    if spec.wipe_local {
        if let Err(msg) = wipe_local_chain(durability) {
            result.failures.push(msg);
            return;
        }
    }
    let vendor = spec.restart_vendor();
    let restart = FaultSchedule {
        tier_gets: spec.schedule.tier_gets.clone(),
        stragglers: spec.schedule.stragglers.clone(),
        ..FaultSchedule::default()
    };
    let outcome = build_session(spec, vendor, durability.clone(), restart)
        .and_then(|s| s.restore_from_store(program));
    match outcome {
        Err(e) => result
            .failures
            .push(format!("verification restart under {}: {e}", vendor.name())),
        Ok(outcome) => match outcome.memories() {
            Err(e) => result
                .failures
                .push(format!("verification restart under {}: {e}", vendor.name())),
            Ok(memories) => match reference_for(spec, vendor, program, references) {
                Err(e) => result.failures.push(e),
                Ok(reference) => {
                    if let Some(msg) = memories_differ(reference, memories) {
                        result
                            .failures
                            .push(format!("restart under {} diverged: {msg}", vendor.name()));
                    }
                }
            },
        },
    }
}

/// Invariant 1b: after a failed run the chain must be whole — strictly
/// ascending epochs, nothing quarantined, newest epoch loadable.
fn check_chain(durability: &DurabilityPolicy, failures: &mut Vec<String>) {
    let Some(policy) = &durability.store else {
        return;
    };
    match policy.open_store() {
        Err(e) => failures.push(format!("chain reopen after failure: {e}")),
        Ok(store) => {
            if !store.quarantined().is_empty() {
                failures.push(format!(
                    "partial epoch(s) quarantined after unwind: {:?}",
                    store.quarantined()
                ));
            }
            let epochs = store.epochs();
            if epochs.windows(2).any(|w| w[0] >= w[1]) {
                failures.push(format!("epoch chain not strictly ascending: {epochs:?}"));
            }
            if !epochs.is_empty() {
                if let Err(e) = store.load_latest() {
                    failures.push(format!("newest epoch unreadable after unwind: {e}"));
                }
            }
        }
    }
}

/// Ship everything still local to the tier, then delete the local chain:
/// the next restart must hydrate from the tier alone.
fn wipe_local_chain(durability: &DurabilityPolicy) -> Result<(), String> {
    let policy = durability
        .store
        .as_ref()
        .ok_or("wipe_local without a store policy")?;
    let store = policy
        .open_store()
        .map_err(|e| format!("wipe_local reopen: {e}"))?;
    store
        .tier_flush()
        .map_err(|e| format!("wipe_local tier flush: {e}"))?;
    drop(store);
    std::fs::remove_dir_all(&policy.dir)
        .map_err(|e| format!("wipe_local remove {}: {e}", policy.dir.display()))
}

fn chain_is_empty(durability: &DurabilityPolicy) -> bool {
    match &durability.store {
        None => true,
        Some(policy) => match policy.open_store() {
            Ok(store) => store.epochs().is_empty(),
            Err(_) => true,
        },
    }
}

fn final_epoch_count(durability: &DurabilityPolicy) -> u64 {
    match &durability.store {
        None => 0,
        Some(policy) => policy
            .open_store()
            .map(|s| s.epochs().len() as u64)
            .unwrap_or(0),
    }
}

/// Bitwise memory comparison across every typed view. Returns the first
/// difference as a message, `None` when identical.
fn memories_differ(expect: &[Memory], got: &[Memory]) -> Option<String> {
    if expect.len() != got.len() {
        return Some(format!(
            "{} ranks expected, {} produced",
            expect.len(),
            got.len()
        ));
    }
    for (rank, (a, b)) in expect.iter().zip(got).enumerate() {
        let mut names_a: Vec<&str> = a.names().collect();
        let mut names_b: Vec<&str> = b.names().collect();
        names_a.sort_unstable();
        names_b.sort_unstable();
        if names_a != names_b {
            return Some(format!(
                "rank {rank}: memory layout differs ({names_a:?} vs {names_b:?})"
            ));
        }
        for name in names_a {
            if let (Some(xa), Some(xb)) = (a.f64s(name), b.f64s(name)) {
                if xa.len() != xb.len() {
                    return Some(format!("rank {rank} segment {name}: length differs"));
                }
                for (i, (x, y)) in xa.iter().zip(xb).enumerate() {
                    if x.to_bits() != y.to_bits() {
                        return Some(format!(
                            "rank {rank} segment {name}[{i}]: {x:?} vs {y:?} (bitwise)"
                        ));
                    }
                }
                continue;
            }
            if a.bytes(name) != b.bytes(name)
                || a.u64s(name) != b.u64s(name)
                || a.i64s(name) != b.i64s(name)
            {
                return Some(format!("rank {rank} segment {name}: contents differ"));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterSpec {
        ClusterSpec::builder().nodes(3).ranks_per_node(2).build()
    }

    #[test]
    fn victims_resolve_and_blame() {
        let c = cluster();
        assert_eq!(Victims::World.resolve(&c), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(Victims::Nodes(vec![1]).resolve(&c), vec![2, 3]);
        assert_eq!(Victims::Ranks(vec![5, 1, 5]).resolve(&c), vec![1, 5]);
        assert_eq!(Victims::Ranks(vec![4]).blamed_node(&c), 2);
        assert_eq!(Victims::Nodes(vec![1, 2]).blamed_node(&c), 1);
    }

    #[test]
    fn resolved_kills_merge_and_sort() {
        let schedule = FaultSchedule::default()
            .kill_ranks(20, vec![1])
            .kill_nodes(10, vec![2])
            .kill_ranks(20, vec![3]);
        let legacy = Some(FaultPlan {
            at_step: 15,
            node: 0,
        });
        let kills = schedule.resolved_kills(&cluster(), legacy);
        assert_eq!(kills.len(), 3);
        assert_eq!(kills[0].at_step, 10);
        assert_eq!(kills[0].victims, vec![4, 5]);
        assert_eq!(kills[1].at_step, 15);
        assert_eq!(kills[1].victims, vec![0, 1]);
        assert_eq!(kills[1].node, 0);
        assert_eq!(kills[2].at_step, 20);
        assert_eq!(kills[2].victims, vec![1, 3]);
    }

    #[test]
    fn schedule_validation_catches_bounds_and_holds() {
        let c = cluster();
        assert!(FaultSchedule::default()
            .kill_ranks(5, vec![6])
            .validate(&c)
            .is_err());
        assert!(FaultSchedule::default()
            .kill_nodes(5, vec![3])
            .validate(&c)
            .is_err());
        assert!(FaultSchedule::default()
            .straggle(9, 0, 4, VirtualTime::from_micros(5))
            .validate(&c)
            .is_err());
        assert!(FaultSchedule::default()
            .straggle(1, 4, 4, VirtualTime::from_micros(5))
            .validate(&c)
            .is_err());
        assert!(FaultSchedule::default()
            .tier_put_faults([PutFault::Hold])
            .validate(&c)
            .is_err());
        assert!(FaultSchedule::default()
            .kill_world(3)
            .straggle(1, 0, 4, VirtualTime::from_micros(5))
            .validate(&c)
            .is_ok());
    }

    #[test]
    fn after_failure_consumes_spent_faults() {
        let schedule = FaultSchedule::default()
            .kill_ranks(10, vec![1])
            .kill_ranks(20, vec![2])
            .straggle(0, 5, 25, VirtualTime::from_micros(9))
            .tier_put_faults([PutFault::Torn])
            .tier_get_faults([GetFault::Torn])
            .kill_leader_at(BarrierPhase::PreSeal);
        let rest = schedule.after_failure(10);
        assert_eq!(rest.kills.len(), 1);
        assert_eq!(rest.kills[0].at_step, 20);
        assert_eq!(rest.stragglers.len(), 1);
        assert!(rest.tier_puts.is_empty());
        assert_eq!(rest.tier_gets.len(), 1);
        assert!(rest.replica.is_empty());
    }

    const SAMPLE: &str = r#"
# A comment.
[scenario.ring-storm-mpich]
app = "ring"
vendor = "mpich"
steps = 24
ckpt_every = 8
pr = true
fault = "kill-ranks @14 1,3"

[scenario.wave-leader-openmpi]
app = "wave"
vendor = "openmpi"
steps = 30        # trailing comment
payload = 240
ckpt_every = 10
durability = "tier+replica"
wipe_local = true
fault = "leader-kill pre-seal"
fault = "kill-nodes @15 1"
fault = "tier-put torn,fail"
fault = "tier-get torn"
fault = "straggle rank=2 from=4 until=8 delay_us=500"
"#;

    #[test]
    fn parses_the_sample_matrix() {
        let specs = parse_matrix(SAMPLE).unwrap();
        assert_eq!(specs.len(), 2);
        let ring = &specs[0];
        assert_eq!(ring.name, "ring-storm-mpich");
        assert_eq!(ring.vendor, Vendor::Mpich);
        assert!(ring.pr);
        assert_eq!(ring.schedule.kills.len(), 1);
        assert_eq!(ring.schedule.kills[0].victims, Victims::Ranks(vec![1, 3]));
        let wave = &specs[1];
        assert_eq!(wave.durability, DurabilityKind::TierReplica);
        assert!(wave.wipe_local);
        assert_eq!(wave.schedule.replica.len(), 1);
        assert_eq!(
            wave.schedule.tier_puts,
            vec![PutFault::Torn, PutFault::Fail]
        );
        assert_eq!(wave.schedule.tier_gets, vec![GetFault::Torn]);
        assert_eq!(wave.schedule.stragglers.len(), 1);
        assert_eq!(
            wave.schedule.stragglers[0].delay,
            VirtualTime::from_micros(500)
        );
        assert_eq!(wave.restart_vendor(), Vendor::Mpich);
    }

    #[test]
    fn parser_rejects_bad_matrices() {
        for (bad, why) in [
            ("steps = 4", "key before a section"),
            ("[scenario.X]\nsteps = 4", "uppercase name"),
            ("[scenario.a]\nsteps = \"4\"", "quoted int"),
            ("[scenario.a]\nbogus = 4", "unknown key"),
            ("[scenario.a]\nsteps = 8\nsteps = 9", "duplicate key"),
            (
                "[scenario.a]\nfault = \"kill-ranks 14 1\"",
                "missing @step",
            ),
            ("[scenario.a]\nfault = \"leader-kill seal\"", "bad phase"),
            (
                "[scenario.a]\nsteps = 24\nckpt_every = 8\n[scenario.a]\nsteps = 24\nckpt_every = 8",
                "duplicate section",
            ),
            (
                "[scenario.a]\nsteps = 24\nckpt_every = 8\nfault = \"kill-world @4\"",
                "kill before first checkpoint",
            ),
            (
                "[scenario.a]\nsteps = 24\nckpt_every = 8\nfault = \"tier-put torn\"",
                "tier fault without tier durability",
            ),
            ("", "empty matrix"),
        ] {
            assert!(parse_matrix(bad).is_err(), "should reject: {why}");
        }
    }
}
