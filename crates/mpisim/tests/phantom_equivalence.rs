//! Phantom-mode equivalence: the single-threaded event engine must
//! produce **bitwise-identical** per-rank timelines (virtual clock,
//! bytes, hops, per-phase attribution) to the full thread-per-rank
//! runtime on the same script and seed. This is the contract that makes
//! the 82944-rank weak-scaling campaign trustworthy: every number it
//! reports is, provably, the number the reference runtime would have
//! produced. See DESIGN.md §16.

use mpisim::{NetModel, Script, ScriptOutcome, World};

/// A script exercising every collective shape the engine supports:
/// rank-skewed compute, rooted gather/bcast/reduce (at root 0 and at
/// non-zero roots), group-scoped
/// reduce/bcast (the relay-mesh shape), allgather (ragged), allreduce,
/// and barriers, over several steps.
fn mixed_script(p: usize, steps: u64) -> Script {
    let mut s = Script::new();
    for step in 0..steps {
        s.set_step(step);
        s.compute("dd.position_update", move |r| {
            1e-4 + r as f64 * 1e-6 + step as f64 * 1e-7
        });
        s.gather("dd.sampling_method", 0, |r| 24 * (r % 5 + 1));
        s.bcast("dd.sampling_method", 0, |_| 4096);
        s.group_reduce("pm.communication", |r| (r % 3) as u64, |_| 8192);
        s.group_bcast("pm.communication", |r| (r % 3) as u64, |_| 8192);
        s.compute("pp.force_calculation", move |r| {
            2e-4 * (1.0 + (r as f64).sin().abs() * 0.1)
        });
        s.allgather("ctl.monitor", |r| 16 + 8 * (r % 4));
        s.allreduce("ctl.balancer", |_| 40);
        s.barrier("ctl.barrier");
    }
    // A rooted reduce at a non-zero root (when p allows one).
    s.reduce("ctl.sum", 2 % p, |_| 128);
    // Rooted bcast and gather at the last rank, so the schedules' root
    // rotation is checked too (p = 1 degenerates to root 0).
    s.bcast("ctl.sum", p - 1, |_| 256);
    s.gather("ctl.sum", p - 1, |r| 8 * (r % 3 + 1));
    s
}

fn assert_bitwise_equal(full: &ScriptOutcome, phantom: &ScriptOutcome, what: &str) {
    assert_eq!(full.phases, phantom.phases, "{what}: phase tables differ");
    assert_eq!(
        full.timelines.len(),
        phantom.timelines.len(),
        "{what}: rank counts differ"
    );
    for (r, (f, p)) in full
        .timelines
        .iter()
        .zip(phantom.timelines.iter())
        .enumerate()
    {
        assert_eq!(
            f.vtime.to_bits(),
            p.vtime.to_bits(),
            "{what}: rank {r} vtime differs: full={} phantom={}",
            f.vtime,
            p.vtime
        );
        assert_eq!(f.stats, p.stats, "{what}: rank {r} comm stats differ");
        assert_eq!(
            f.phase_vtime.len(),
            p.phase_vtime.len(),
            "{what}: rank {r} phase tables differ"
        );
        for (i, (a, b)) in f.phase_vtime.iter().zip(p.phase_vtime.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: rank {r} phase {:?} differs: full={a} phantom={b}",
                full.phases[i]
            );
        }
        #[cfg(feature = "faults")]
        assert_eq!(
            f.fault_stats, p.fault_stats,
            "{what}: rank {r} fault stats differ"
        );
    }
    assert!(
        full.engine.is_none(),
        "threaded mode must not report engine"
    );
    let rep = phantom.engine.expect("phantom mode must report engine");
    assert_eq!(rep.ranks, phantom.timelines.len());
}

#[test]
fn phantom_matches_threads_across_sizes() {
    // p = 1 and 2 are the degenerate trees; 5/33 are non-powers of two
    // (ragged Bruck rounds, lopsided binomials); 64 is the cap.
    for p in [1, 2, 5, 16, 33, 64] {
        let script = mixed_script(p, 2);
        let full = World::new(p)
            .with_net(NetModel::k_computer())
            .run_script(&script);
        let phantom = World::new(p)
            .with_net(NetModel::k_computer())
            .with_phantoms([0])
            .run_script(&script);
        assert_bitwise_equal(&full, &phantom, &format!("p={p}"));
        if p > 1 {
            assert!(phantom.engine.unwrap().messages > 0);
            assert!(full.timelines[p - 1].vtime > 0.0);
        }
    }
}

#[test]
fn phantom_representative_set_does_not_perturb_clocks() {
    let script = mixed_script(16, 1);
    let none = World::new(16)
        .with_net(NetModel::k_computer())
        .with_phantoms([])
        .run_script(&script);
    let all = World::new(16)
        .with_net(NetModel::k_computer())
        .with_phantoms(0..16)
        .run_script(&script);
    for (a, b) in none.timelines.iter().zip(all.timelines.iter()) {
        assert_eq!(a.vtime.to_bits(), b.vtime.to_bits());
        assert_eq!(a.stats, b.stats);
    }
    assert_eq!(none.engine.unwrap().representatives, 0);
    assert_eq!(all.engine.unwrap().representatives, 16);
}

#[test]
fn work_hooks_run_on_representatives_only() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    let mut s = Script::new();
    s.compute_with_work(
        "pp.force_calculation",
        |_| 1e-3,
        move |rank| {
            h.fetch_add(1 + rank as u64, Ordering::Relaxed);
        },
    );
    let _ = World::new(8).with_phantoms([0, 3]).run_script(&s);
    // Representatives 0 and 3 fire: (1+0) + (1+3) = 5.
    assert_eq!(hits.load(Ordering::Relaxed), 5);
}

#[test]
#[should_panic(expected = "use World::run_script")]
fn phantom_world_rejects_closure_run() {
    World::new(4).with_phantoms([0]).run(|_, _| ());
}

#[cfg(feature = "faults")]
mod faults {
    use super::*;
    use mpisim::FaultPlan;

    /// The satellite determinism proof: with stragglers *and* seeded
    /// message faults in play, phantom-mode vtime is bitwise identical
    /// to full-thread mode on the same seed at p ≤ 64.
    #[test]
    fn faulty_phantom_matches_threads_bitwise() {
        for p in [8, 33, 64] {
            let plan = || {
                FaultPlan::new(0xC0FFEE)
                    .straggler(1, 3.0)
                    .straggler_window(p - 1, 2.0, 1, 2)
                    .drop_messages(0.15)
                    .delay_messages(0.2, 5e-4)
            };
            let script = mixed_script(p, 3);
            let full = World::new(p)
                .with_net(NetModel::k_computer())
                .with_faults(plan())
                .run_script(&script);
            let phantom = World::new(p)
                .with_net(NetModel::k_computer())
                .with_faults(plan())
                .with_phantoms([0])
                .run_script(&script);
            assert_bitwise_equal(&full, &phantom, &format!("faulty p={p}"));
            // The plan must actually have fired for this to mean much.
            let dropped: u64 = phantom
                .timelines
                .iter()
                .map(|t| t.fault_stats.messages_dropped)
                .sum();
            let slowed: f64 = phantom
                .timelines
                .iter()
                .map(|t| t.fault_stats.straggler_vtime)
                .sum();
            assert!(dropped > 0, "p={p}: drops never fired");
            assert!(slowed > 0.0, "p={p}: stragglers never fired");
        }
    }

    /// A plan that cannot fire message faults must match a plan-less
    /// world exactly (the O(1)-per-phantom fast path is a true no-op).
    #[test]
    fn quiet_plan_is_bitwise_inert_in_phantom_mode() {
        let script = mixed_script(16, 2);
        let clean = World::new(16).with_phantoms([]).run_script(&script);
        let quiet = World::new(16)
            .with_faults(FaultPlan::new(7).crash(3, 99))
            .with_phantoms([])
            .run_script(&script);
        for (a, b) in clean.timelines.iter().zip(quiet.timelines.iter()) {
            assert_eq!(a.vtime.to_bits(), b.vtime.to_bits());
            assert_eq!(a.fault_stats, b.fault_stats);
        }
    }

    #[test]
    fn fault_plan_activity_predicates() {
        let quiet = FaultPlan::new(1).crash(3, 2);
        assert!(!quiet.has_msg_faults());
        assert!(!quiet.has_stragglers());
        assert!(quiet.rank_has_crashes(3));
        assert!(!quiet.rank_has_crashes(2));
        assert!(FaultPlan::new(1).drop_messages(0.1).has_msg_faults());
        assert!(FaultPlan::new(1).delay_messages(0.1, 1e-3).has_msg_faults());
        assert!(FaultPlan::new(1).straggler(0, 2.0).has_stragglers());
    }
}

/// The headline capability: a full-machine 82944-rank world is cheap.
/// One allreduce + barrier over the paper's node count, in well under
/// a second of host time.
#[test]
fn full_machine_world_is_tractable() {
    let mut s = Script::new();
    s.compute("pp.force_calculation", |_| 1e-2);
    s.allreduce("ctl.balancer", |_| 40);
    s.barrier("ctl.barrier");
    let out = World::new(82944)
        .with_net(NetModel::k_computer())
        .with_phantoms([0])
        .run_script(&s);
    assert_eq!(out.timelines.len(), 82944);
    let rep = out.engine.unwrap();
    // Binomial allreduce + barrier: O(p) edges, not O(p²).
    assert!(rep.messages as usize >= 3 * (82944 - 1));
    assert!(rep.messages < 1_000_000);
    // Every rank advanced past its compute and paid some comm latency.
    assert!(out.timelines.iter().all(|t| t.vtime > 1e-2));
    let makespan = out.makespan();
    assert!(makespan < 1.0, "unreasonable simulated time {makespan}");
}
