//! The phantom engine: event-driven execution of a [`Script`] over a
//! single host thread.
//!
//! Full-thread mode spends one OS thread, one mailbox and real payload
//! buffers per rank — fine at p ≤ 64, hopeless at the paper's 82944.
//! This engine keeps only a [`RankClock`] and a handful of counters per
//! rank and *replays* the script: compute ops are a tight loop over all
//! ranks; collectives run their analytic edge schedules
//! ([`crate::comm::sched`]) through a run-to-blocking-recv event loop,
//! in which a rank executes its actions until it needs a message that
//! has not been sent yet, parks on that edge, and is rescheduled by the
//! send. Host work is O(total edges) — for binomial collectives
//! O(active ranks · log p) — and messages are size-only records
//! (`send_ready`, bytes, hops, fault draw), payloads elided.
//!
//! This is the second executor of one description. The action lists
//! are the ones the threaded [`crate::Comm`] collectives walk, groups
//! come from the same `script::groups` rule, every clock
//! mutation goes through the same [`RankClock`] arithmetic, and fault
//! charges through the same `FaultPlan::charge_msg` / `charge_compute`.
//! Per-rank program order is preserved (the event loop only ever
//! *delays* a rank, never reorders its own actions), so the resulting
//! timelines are bitwise identical to full-thread mode — see
//! `tests/phantom_equivalence.rs` and DESIGN.md §16.
//!
//! Fault injection composes: message faults are drawn from the plan's
//! pure `(seed, src, dst, seq)` hash at send time exactly as the
//! threaded runtime draws them, so a seeded schedule replays
//! identically. Per-rank fault state is allocated only when the plan
//! can actually fire (no per-phantom allocation on a quiet plan).

use std::collections::HashMap;
use std::collections::VecDeque;
#[cfg(feature = "faults")]
use std::sync::Arc;
use std::time::Instant;

use crate::clock::RankClock;
use crate::comm::sched::{self, Act};
use crate::ctx::CommStats;
#[cfg(feature = "faults")]
use crate::fault::{FaultPlan, FaultStats, MsgFault};
use crate::netmodel::NetModel;
use crate::script::{
    groups, CollKind, EngineReport, RankBytes, RankTimeline, Scope, Script, ScriptOp, ScriptOutcome,
};
use crate::topology::Torus3d;

/// A message in flight, payload elided.
struct MsgRec {
    send_ready: f64,
    bytes: usize,
    hops: usize,
    #[cfg(feature = "faults")]
    fault: MsgFault,
}

/// Directed-edge key (local src, local dst) within one group.
#[inline]
fn edge(src: u32, dst: u32) -> u64 {
    ((src as u64) << 32) | dst as u64
}

pub(crate) struct Engine {
    n: usize,
    topo: Torus3d,
    net: NetModel,
    #[cfg(feature = "faults")]
    plan: Option<Arc<FaultPlan>>,
    clocks: Vec<RankClock>,
    stats: Vec<CommStats>,
    /// Allocated only when the plan can charge anything.
    #[cfg(feature = "faults")]
    fstats: Option<Vec<FaultStats>>,
    /// Per-rank send sequence; allocated only when message faults can
    /// fire (O(1) cost for phantom ranks on quieter plans).
    #[cfg(feature = "faults")]
    send_seq: Option<Vec<u64>>,
    #[cfg(feature = "faults")]
    step: u64,
    // Reusable per-collective scratch.
    acts: Vec<Act>,
    offsets: Vec<u32>,
    pc: Vec<u32>,
    runnable: Vec<u32>,
    mailbox: HashMap<u64, VecDeque<MsgRec>>,
    waiting: HashMap<u64, ()>,
    messages: u64,
    suspensions: u64,
}

impl Engine {
    pub(crate) fn new(
        n: usize,
        topo: Torus3d,
        net: NetModel,
        #[cfg(feature = "faults")] plan: Option<Arc<FaultPlan>>,
    ) -> Self {
        #[cfg(feature = "faults")]
        let active = plan
            .as_ref()
            .map(|p| p.has_msg_faults() || p.has_stragglers())
            .unwrap_or(false);
        #[cfg(feature = "faults")]
        let msg_faults = plan.as_ref().map(|p| p.has_msg_faults()).unwrap_or(false);
        Engine {
            n,
            topo,
            net,
            #[cfg(feature = "faults")]
            plan,
            clocks: vec![RankClock::default(); n],
            stats: vec![CommStats::default(); n],
            #[cfg(feature = "faults")]
            fstats: active.then(|| vec![FaultStats::default(); n]),
            #[cfg(feature = "faults")]
            send_seq: msg_faults.then(|| vec![0u64; n]),
            #[cfg(feature = "faults")]
            step: 0,
            acts: Vec::new(),
            offsets: Vec::new(),
            pc: Vec::new(),
            runnable: Vec::new(),
            mailbox: HashMap::new(),
            waiting: HashMap::new(),
            messages: 0,
            suspensions: 0,
        }
    }

    pub(crate) fn run(mut self, script: &Script, reps: &[usize]) -> ScriptOutcome {
        let t0 = Instant::now();
        let n = self.n;
        let np = script.phases.len();
        let mut phase_v = vec![0.0f64; n * np];
        let mut prev = vec![0.0f64; n];
        let world_members: Vec<usize> = (0..n).collect();
        for (i, op) in script.ops.iter().enumerate() {
            let pi = script.op_phase[i];
            if pi != usize::MAX {
                for (p, c) in prev.iter_mut().zip(&self.clocks) {
                    *p = c.vtime;
                }
            }
            match op {
                ScriptOp::SetStep(_step) => {
                    #[cfg(feature = "faults")]
                    {
                        self.step = *_step;
                    }
                }
                ScriptOp::Compute { seconds, work } => {
                    self.run_compute(seconds.as_ref());
                    if let Some(w) = work {
                        for &r in reps {
                            w(r);
                        }
                    }
                }
                ScriptOp::Collective { kind, bytes, scope } => match scope {
                    Scope::World => self.run_group(&world_members, *kind, bytes),
                    Scope::Groups(color) => {
                        for members in groups(n, color) {
                            self.run_group(&members, *kind, bytes);
                        }
                    }
                },
            }
            if pi != usize::MAX {
                for r in 0..n {
                    phase_v[r * np + pi] += self.clocks[r].vtime - prev[r];
                }
            }
        }
        let engine = EngineReport {
            ranks: n,
            representatives: reps.len(),
            messages: self.messages,
            suspensions: self.suspensions,
            wall_s: t0.elapsed().as_secs_f64(),
        };
        let timelines = (0..n)
            .map(|r| RankTimeline {
                vtime: self.clocks[r].vtime,
                stats: self.stats[r],
                #[cfg(feature = "faults")]
                fault_stats: self.fstats.as_ref().map(|v| v[r]).unwrap_or_default(),
                phase_vtime: phase_v[r * np..(r + 1) * np].to_vec(),
            })
            .collect();
        ScriptOutcome {
            phases: script.phases.clone(),
            timelines,
            engine: Some(engine),
        }
    }

    /// Vectorised compute charge — the phantom fast path for the cost
    /// rows every rank replays.
    fn run_compute(&mut self, seconds: &(dyn Fn(usize) -> f64 + Send + Sync)) {
        #[cfg(feature = "faults")]
        if let Some(plan) = self.plan.as_deref().filter(|p| p.has_stragglers()) {
            // `Ctx::compute` charges every rank through the plan; factor
            // 1.0 is a bitwise no-op, so the straggler-free fast path
            // below is exact.
            let fstats = self.fstats.as_mut().expect("fstats live with stragglers");
            for (r, fs) in fstats.iter_mut().enumerate() {
                let s = seconds(r);
                debug_assert!(s >= 0.0);
                self.clocks[r].compute(plan.charge_compute(r, self.step, s, fs));
            }
            return;
        }
        for r in 0..self.n {
            let s = seconds(r);
            debug_assert!(s >= 0.0);
            self.clocks[r].compute(s);
        }
    }

    /// Execute one collective over one group via the event loop.
    fn run_group(&mut self, members: &[usize], kind: CollKind, bytes: &RankBytes) {
        let g = members.len();
        if g <= 1 {
            // Degenerate collectives move no messages and, like the
            // threaded implementations, leave the clock untouched.
            return;
        }
        // Materialise each member's action schedule.
        self.acts.clear();
        self.offsets.clear();
        let bytes_of = |l: usize| bytes(members[l]) as u64;
        for (local, _) in members.iter().enumerate() {
            self.offsets.push(self.acts.len() as u32);
            match kind {
                CollKind::Barrier => sched::barrier(g, local, &mut self.acts),
                CollKind::Bcast { root } => {
                    sched::bcast(g, local, root, bytes_of(root), &mut self.acts)
                }
                CollKind::Reduce { root } => {
                    sched::reduce(g, local, root, bytes_of(local), &mut self.acts)
                }
                CollKind::Allreduce => {
                    sched::reduce(g, local, 0, bytes_of(local), &mut self.acts);
                    sched::bcast(g, local, 0, bytes_of(0), &mut self.acts);
                }
                CollKind::Gather { root } => {
                    sched::gather(g, local, root, &bytes_of, &mut self.acts)
                }
                CollKind::Allgather => sched::allgather(g, local, &bytes_of, &mut self.acts),
            }
        }
        self.offsets.push(self.acts.len() as u32);

        // Run every rank to its next blocking receive; senders wake
        // parked receivers. Valid schedules always drain.
        self.pc.clear();
        self.pc.extend(self.offsets[..g].iter().copied());
        self.runnable.clear();
        self.runnable.extend((0..g as u32).rev());
        self.mailbox.clear();
        self.waiting.clear();
        while let Some(l) = self.runnable.pop() {
            let me = members[l as usize];
            let end = self.offsets[l as usize + 1];
            while self.pc[l as usize] < end {
                match self.acts[self.pc[l as usize] as usize] {
                    Act::Send(peer, bytes, _) => {
                        let bytes = bytes as usize;
                        let dst = members[peer as usize];
                        self.stats[me].messages_sent += 1;
                        self.stats[me].bytes_sent += bytes as u64;
                        let send_ready = self.clocks[me].charge_send(&self.net, bytes);
                        let hops = self.topo.hops(me, dst);
                        self.stats[me].hops_sent += hops as u64;
                        #[cfg(feature = "faults")]
                        let fault = match (&self.plan, &mut self.send_seq) {
                            (Some(plan), Some(seq)) => {
                                let s = seq[me];
                                seq[me] += 1;
                                plan.draw_msg(me, dst, s)
                            }
                            _ => MsgFault::default(),
                        };
                        self.messages += 1;
                        self.mailbox
                            .entry(edge(l, peer))
                            .or_default()
                            .push_back(MsgRec {
                                send_ready,
                                bytes,
                                hops,
                                #[cfg(feature = "faults")]
                                fault,
                            });
                        self.pc[l as usize] += 1;
                        if self.waiting.remove(&edge(l, peer)).is_some() {
                            self.runnable.push(peer);
                        }
                    }
                    Act::Recv(peer, _) => {
                        let key = edge(peer, l);
                        let msg = self.mailbox.get_mut(&key).and_then(|q| q.pop_front());
                        match msg {
                            Some(m) => {
                                #[allow(unused_mut)]
                                let mut arrival = m.send_ready + self.net.latency(m.hops);
                                #[cfg(feature = "faults")]
                                if !m.fault.is_clean() {
                                    let plan = self.plan.as_ref().expect("faulty message, no plan");
                                    let fstats =
                                        self.fstats.as_mut().expect("fstats live with faults");
                                    arrival += plan.charge_msg(&m.fault, &mut fstats[me]);
                                }
                                self.clocks[me].charge_recv(&self.net, arrival, m.bytes);
                                self.stats[me].messages_received += 1;
                                self.stats[me].bytes_received += m.bytes as u64;
                                self.pc[l as usize] += 1;
                            }
                            None => {
                                self.waiting.insert(key, ());
                                self.suspensions += 1;
                                break;
                            }
                        }
                    }
                }
            }
        }
        debug_assert!(
            (0..g).all(|l| self.pc[l] == self.offsets[l + 1]),
            "phantom engine: collective deadlocked (schedule bug)"
        );
    }
}
