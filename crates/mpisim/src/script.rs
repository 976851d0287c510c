//! Declarative SPMD schedules: one script, two execution engines.
//!
//! A [`Script`] describes a rank-generic program — compute charges and
//! collective operations, in program order — without committing to an
//! execution substrate. The same script runs two ways:
//!
//! * **Full-thread mode** ([`crate::World::run_script`] on a plain
//!   world): one host thread per rank, real payloads, the exact
//!   machinery of [`crate::World::run`]. This is the reference.
//! * **Phantom mode** (a world built with
//!   [`crate::World::with_phantoms`]): a single-threaded event-driven
//!   engine replays the cost schedule for every rank with payloads
//!   elided — bytes, hops and virtual time preserved — so worlds of
//!   10⁴–10⁵ ranks are cheap. Only the designated *representative*
//!   ranks run the script's real-work hooks.
//!
//! The two modes are two executors of one description: each
//! collective's message pattern is written once (`comm::sched`), group
//! membership once (`script::groups`) and fault charging once (in
//! `fault.rs`); only the payloads differ — real vectors on threads,
//! modelled sizes in the engine. Both produce identical per-rank
//! [`RankTimeline`]s — bitwise, down to the f64 virtual clocks — which
//! is test-enforced at p ≤ 64 (`tests/phantom_equivalence.rs`) and
//! documented in DESIGN.md §16.
//!
//! Scripts express the collectives the weak-scaling campaign needs
//! (barrier, bcast, reduce, allreduce, gather, allgather), world-wide
//! or over deterministic rank groups (a traffic-free `MPI_Comm_split`).
//! `alltoallv` is deliberately absent: replaying O(p²) pairwise edges
//! at 82944 ranks would defeat the thinning, and the Table-I rows a
//! script replays already carry its modelled cost.

use std::sync::Arc;

use crate::comm::Comm;
use crate::ctx::{CommStats, Ctx};
#[cfg(feature = "faults")]
use crate::fault::FaultStats;

/// Communicator-id space reserved for script group collectives, far
/// above anything `Comm::split`'s counter allocates.
pub(crate) const SCRIPT_COMM_BASE: u64 = 1 << 62;

pub(crate) type RankSeconds = Arc<dyn Fn(usize) -> f64 + Send + Sync>;
pub(crate) type RankBytes = Arc<dyn Fn(usize) -> usize + Send + Sync>;
pub(crate) type RankWork = Arc<dyn Fn(usize) + Send + Sync>;
pub(crate) type RankColor = Arc<dyn Fn(usize) -> u64 + Send + Sync>;

/// Which ranks take part in a collective op.
#[derive(Clone)]
pub(crate) enum Scope {
    /// Every rank in the world.
    World,
    /// Ranks partitioned by a color function: equal colors form one
    /// group, ordered by global rank — `MPI_Comm_split` semantics
    /// derived deterministically on every rank, with no wire traffic.
    Groups(RankColor),
}

/// A collective's shape. Roots are *local* indices within the group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CollKind {
    Barrier,
    Bcast { root: usize },
    Reduce { root: usize },
    Allreduce,
    Gather { root: usize },
    Allgather,
}

/// One scripted operation.
pub(crate) enum ScriptOp {
    /// Set the fault-step index (crash schedules, straggler windows).
    SetStep(u64),
    /// Advance each rank's clock by `seconds(rank)`; representatives
    /// additionally run the `work` hook (real code, off the clock).
    Compute {
        seconds: RankSeconds,
        work: Option<RankWork>,
    },
    /// A collective over `scope`; `bytes(global_rank)` sizes each
    /// member's contribution (root's size for bcast; must be uniform
    /// across members for reduce/allreduce, as in MPI).
    Collective {
        kind: CollKind,
        bytes: RankBytes,
        scope: Scope,
    },
}

/// A rank-generic SPMD schedule. Build with the fluent methods, then
/// execute with [`crate::World::run_script`].
///
/// ```
/// use mpisim::{NetModel, Script, World};
///
/// let mut s = Script::new();
/// s.compute("force", |rank| 1.0 + rank as f64 * 0.01)
///     .allreduce("balance", |_| 40)
///     .barrier("step");
/// let out = World::new(4)
///     .with_net(NetModel::k_computer())
///     .with_phantoms([0])
///     .run_script(&s);
/// assert_eq!(out.timelines.len(), 4);
/// assert!(out.timelines[3].vtime > 1.03);
/// ```
#[derive(Default)]
pub struct Script {
    pub(crate) ops: Vec<ScriptOp>,
    /// Distinct phase labels, in first-use order.
    pub(crate) phases: Vec<&'static str>,
    /// Phase index of each op (`usize::MAX` for unattributed ops).
    pub(crate) op_phase: Vec<usize>,
}

impl Script {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of operations scripted so far.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Distinct phase labels, in first-use order. Per-rank time spent
    /// in each is reported in [`RankTimeline::phase_vtime`].
    pub fn phases(&self) -> &[&'static str] {
        &self.phases
    }

    fn phase_idx(&mut self, phase: &'static str) -> usize {
        match self.phases.iter().position(|&p| p == phase) {
            Some(i) => i,
            None => {
                self.phases.push(phase);
                self.phases.len() - 1
            }
        }
    }

    fn push(&mut self, phase: Option<&'static str>, op: ScriptOp) -> &mut Self {
        let pi = phase.map_or(usize::MAX, |p| self.phase_idx(p));
        self.ops.push(op);
        self.op_phase.push(pi);
        self
    }

    /// Set the fault-step index (see [`Ctx::set_fault_step`]).
    pub fn set_step(&mut self, step: u64) -> &mut Self {
        self.push(None, ScriptOp::SetStep(step))
    }

    /// Charge `seconds(rank)` of modelled compute to every rank.
    pub fn compute(
        &mut self,
        phase: &'static str,
        seconds: impl Fn(usize) -> f64 + Send + Sync + 'static,
    ) -> &mut Self {
        self.push(
            Some(phase),
            ScriptOp::Compute {
                seconds: Arc::new(seconds),
                work: None,
            },
        )
    }

    /// Like [`Script::compute`], with a real-work hook that runs on
    /// representative ranks only (all ranks in full-thread mode). The
    /// hook must not touch simulated state; it exists so phantom
    /// campaigns still exercise real kernels on the representatives.
    pub fn compute_with_work(
        &mut self,
        phase: &'static str,
        seconds: impl Fn(usize) -> f64 + Send + Sync + 'static,
        work: impl Fn(usize) + Send + Sync + 'static,
    ) -> &mut Self {
        self.push(
            Some(phase),
            ScriptOp::Compute {
                seconds: Arc::new(seconds),
                work: Some(Arc::new(work)),
            },
        )
    }

    fn coll(
        &mut self,
        phase: &'static str,
        kind: CollKind,
        scope: Scope,
        bytes: impl Fn(usize) -> usize + Send + Sync + 'static,
    ) -> &mut Self {
        self.push(
            Some(phase),
            ScriptOp::Collective {
                kind,
                bytes: Arc::new(bytes),
                scope,
            },
        )
    }

    /// World-wide barrier.
    pub fn barrier(&mut self, phase: &'static str) -> &mut Self {
        self.coll(phase, CollKind::Barrier, Scope::World, |_| 0)
    }

    /// World-wide broadcast from global rank `root` of
    /// `bytes(root)` payload bytes.
    pub fn bcast(
        &mut self,
        phase: &'static str,
        root: usize,
        bytes: impl Fn(usize) -> usize + Send + Sync + 'static,
    ) -> &mut Self {
        self.coll(phase, CollKind::Bcast { root }, Scope::World, bytes)
    }

    /// World-wide reduction to global rank `root`; `bytes` must be
    /// uniform across ranks (MPI reduce semantics).
    pub fn reduce(
        &mut self,
        phase: &'static str,
        root: usize,
        bytes: impl Fn(usize) -> usize + Send + Sync + 'static,
    ) -> &mut Self {
        self.coll(phase, CollKind::Reduce { root }, Scope::World, bytes)
    }

    /// World-wide allreduce (reduce to rank 0 + bcast).
    pub fn allreduce(
        &mut self,
        phase: &'static str,
        bytes: impl Fn(usize) -> usize + Send + Sync + 'static,
    ) -> &mut Self {
        self.coll(phase, CollKind::Allreduce, Scope::World, bytes)
    }

    /// World-wide gather of `bytes(rank)` to global rank `root`
    /// (linear fan-in, like the paper's sampling-method gather).
    pub fn gather(
        &mut self,
        phase: &'static str,
        root: usize,
        bytes: impl Fn(usize) -> usize + Send + Sync + 'static,
    ) -> &mut Self {
        self.coll(phase, CollKind::Gather { root }, Scope::World, bytes)
    }

    /// World-wide allgather of `bytes(rank)` (Bruck dissemination).
    pub fn allgather(
        &mut self,
        phase: &'static str,
        bytes: impl Fn(usize) -> usize + Send + Sync + 'static,
    ) -> &mut Self {
        self.coll(phase, CollKind::Allgather, Scope::World, bytes)
    }

    /// Reduction to each group's lowest-ranked member, groups formed by
    /// `color` (equal colors = one group, ordered by global rank) —
    /// the shape of GreeM's over-groups `COMM_REDUCE` Reduce.
    pub fn group_reduce(
        &mut self,
        phase: &'static str,
        color: impl Fn(usize) -> u64 + Send + Sync + 'static,
        bytes: impl Fn(usize) -> usize + Send + Sync + 'static,
    ) -> &mut Self {
        self.coll(
            phase,
            CollKind::Reduce { root: 0 },
            Scope::Groups(Arc::new(color)),
            bytes,
        )
    }

    /// Broadcast from each group's lowest-ranked member — the
    /// over-groups `Bcast` returning reduced slabs to relay groups.
    pub fn group_bcast(
        &mut self,
        phase: &'static str,
        color: impl Fn(usize) -> u64 + Send + Sync + 'static,
        bytes: impl Fn(usize) -> usize + Send + Sync + 'static,
    ) -> &mut Self {
        self.coll(
            phase,
            CollKind::Bcast { root: 0 },
            Scope::Groups(Arc::new(color)),
            bytes,
        )
    }

    /// Allreduce within each group.
    pub fn group_allreduce(
        &mut self,
        phase: &'static str,
        color: impl Fn(usize) -> u64 + Send + Sync + 'static,
        bytes: impl Fn(usize) -> usize + Send + Sync + 'static,
    ) -> &mut Self {
        self.coll(
            phase,
            CollKind::Allreduce,
            Scope::Groups(Arc::new(color)),
            bytes,
        )
    }
}

/// One rank's result of executing a script: its final virtual clock,
/// traffic counters, and per-phase virtual-time attribution (indexed
/// like [`ScriptOutcome::phases`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RankTimeline {
    /// Final virtual clock in simulated seconds.
    pub vtime: f64,
    /// Traffic counters (bytes/messages/hops), identical across modes.
    pub stats: CommStats,
    /// Fault counters (zero without a plan).
    #[cfg(feature = "faults")]
    pub fault_stats: FaultStats,
    /// Virtual seconds attributed to each script phase.
    pub phase_vtime: Vec<f64>,
}

/// Host-side cost accounting of a phantom-engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineReport {
    /// World size.
    pub ranks: usize,
    /// Representative (non-phantom) ranks.
    pub representatives: usize,
    /// Simulated messages (size-only records, payloads elided).
    pub messages: u64,
    /// Times a rank blocked on a not-yet-sent message.
    pub suspensions: u64,
    /// Host wall-clock seconds spent in the engine.
    pub wall_s: f64,
}

/// The result of [`crate::World::run_script`]: per-rank timelines in
/// rank order, plus engine accounting when phantom mode ran.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptOutcome {
    /// Distinct phase labels, in script order.
    pub phases: Vec<&'static str>,
    /// Per-rank timelines, indexed by global rank.
    pub timelines: Vec<RankTimeline>,
    /// Engine accounting; `None` in full-thread mode.
    pub engine: Option<EngineReport>,
}

impl ScriptOutcome {
    /// The makespan: the latest final virtual clock across ranks.
    pub fn makespan(&self) -> f64 {
        self.timelines.iter().fold(0.0, |m, t| m.max(t.vtime))
    }
}

/// The `Scope::Groups` membership rule, for both executors: ranks of
/// equal `color` form one group, its members (global ranks) ascending,
/// which is their local-rank order. Groups come in ascending color.
pub(crate) fn groups(n: usize, color: &RankColor) -> Vec<Vec<usize>> {
    let mut keyed: Vec<(u64, usize)> = (0..n).map(|r| (color(r), r)).collect();
    keyed.sort_unstable();
    keyed
        .chunk_by(|a, b| a.0 == b.0)
        .map(|g| g.iter().map(|&(_, r)| r).collect())
        .collect()
}

/// Execute `script` on one rank of a full-thread world. The collective
/// payloads are real `u8` vectors of the scripted sizes, so this mode
/// pays the full memory cost — it is the reference implementation the
/// phantom engine is proven against.
pub(crate) fn interpret_threaded(script: &Script, ctx: &mut Ctx, world: &Comm) -> RankTimeline {
    let rank = ctx.world_rank();
    let n = ctx.world_size();
    let mut phase_vtime = vec![0.0; script.phases.len()];
    for (i, op) in script.ops.iter().enumerate() {
        let v0 = ctx.vtime();
        match op {
            ScriptOp::SetStep(_step) => {
                #[cfg(feature = "faults")]
                ctx.set_fault_step(*_step);
            }
            ScriptOp::Compute { seconds, work } => {
                ctx.compute(seconds(rank));
                if let Some(w) = work {
                    w(rank);
                }
            }
            ScriptOp::Collective { kind, bytes, scope } => match scope {
                Scope::World => run_collective(ctx, world, *kind, bytes, rank),
                Scope::Groups(color) => {
                    let (local, members) = groups(n, color)
                        .into_iter()
                        .find_map(|m| Some((m.binary_search(&rank).ok()?, m)))
                        .expect("group color fn must be deterministic");
                    let comm = Comm::subset(SCRIPT_COMM_BASE + i as u64, Arc::new(members), local);
                    run_collective(ctx, &comm, *kind, bytes, rank);
                }
            },
        }
        let pi = script.op_phase[i];
        if pi != usize::MAX {
            phase_vtime[pi] += ctx.vtime() - v0;
        }
    }
    RankTimeline {
        vtime: ctx.vtime(),
        stats: ctx.comm_stats(),
        #[cfg(feature = "faults")]
        fault_stats: ctx.fault_stats(),
        phase_vtime,
    }
}

fn run_collective(ctx: &mut Ctx, comm: &Comm, kind: CollKind, bytes: &RankBytes, my_global: usize) {
    match kind {
        CollKind::Barrier => comm.barrier(ctx),
        CollKind::Bcast { root } => {
            let data = (comm.rank() == root).then(|| vec![0u8; bytes(comm.global_rank(root))]);
            let _ = comm.bcast(ctx, root, data);
        }
        CollKind::Reduce { root } => {
            let local = vec![0u8; bytes(my_global)];
            let _ = comm.reduce(ctx, root, local, |a, b| *a = a.wrapping_add(*b));
        }
        CollKind::Allreduce => {
            let local = vec![0u8; bytes(my_global)];
            let _ = comm.allreduce(ctx, local, |a, b| *a = a.wrapping_add(*b));
        }
        CollKind::Gather { root } => {
            let local = vec![0u8; bytes(my_global)];
            let _ = comm.gather(ctx, root, local);
        }
        CollKind::Allgather => {
            let local = vec![0u8; bytes(my_global)];
            let _ = comm.allgather(ctx, local);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_dedup_in_first_use_order() {
        let mut s = Script::new();
        s.compute("a", |_| 0.0)
            .barrier("b")
            .compute("a", |_| 0.0)
            .set_step(1);
        assert_eq!(s.phases(), &["a", "b"]);
        assert_eq!(s.num_ops(), 4);
        assert_eq!(s.op_phase, vec![0, 1, 0, usize::MAX]);
    }
}
