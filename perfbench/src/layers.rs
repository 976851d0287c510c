//! Per-layer measurements for the traced run. Each is timed from here,
//! around calls into one crate's public functions, on the state the
//! workload's last episode ended in; the program itself is not
//! instrumented further.

use greem::{ParticleStore, ResidentPp, TreePm, TreePmConfig};
use greem_domain::{exchange, exchange_rows, BalancerParams, DomainGrid, SamplingBalancer};
use greem_fft::{fft3d, fft3d_inverse, Fft1d, Mesh3};
use greem_kernels::{
    bytes_per_interaction, pp_accel_dispatch, selected_variant, SourceList, Targets,
};
use greem_math::{wrap01, Aabb, Vec3, FLOPS_PER_INTERACTION};
use greem_pm::{ParallelPm, ParallelPmConfig, PmSolver};
use greem_tree::{GroupWalk, TreeArena};
use mpisim::{Comm, Ctx, NetModel, World};

use crate::stats::{median, median_secs, percentile, Metrics};
use crate::workloads::{Run, Workload, DIV, MODELED_PP_COST, N, RANKS};

/// Repetitions of each timed call (the median is reported).
const REPS: usize = 3;

/// Every per-layer metric of `run` (a traced run), in the order
/// `BENCHMARK.json` lists them.
pub fn measure(w: Workload, run: &Run) -> Metrics {
    let cfg = w.config();
    let c = &run.counts;
    let steps = c.steps as f64;
    let mut m = Metrics::default();

    // --- kernels, tree: one fresh tree over the final state ---
    let mut store = ParticleStore::from_bodies(&run.last);
    let mut arena = TreeArena::new();
    let sort_s = {
        let (x, y, z) = store.pos_columns();
        median_secs(REPS, || {
            arena.sort(x, y, z, Aabb::UNIT);
        })
    };
    let order = arena.order().to_vec();
    store.permute(&order, &mut Default::default());
    let (x, y, z) = store.pos_columns();
    let mass = store.mass_column();
    let build_s = median_secs(REPS, || arena.build(x, y, z, mass, cfg.tree_params()));
    let view = arena.view(x, y, z, mass);
    let walk = GroupWalk::new(&view, cfg.traverse_params());
    let groups = walk.groups();
    let (mut stack, mut list) = (Vec::new(), Vec::new());
    let walk_s = median_secs(REPS, || {
        for &g in &groups {
            list.clear();
            walk.list_for_group(g, &mut stack, &mut list);
        }
    });
    // Capture every group's kernel inputs, then time the kernel alone.
    let mut lists: Vec<(Targets, SourceList)> = groups
        .iter()
        .map(|&g| {
            list.clear();
            walk.list_for_group(g, &mut stack, &mut list);
            let (lo, hi) = (g.first as usize, (g.first + g.count) as usize);
            let mut t = Targets::default();
            t.load_from_slices(&x[lo..hi], &y[lo..hi], &z[lo..hi]);
            let mut s = SourceList::with_capacity(list.len());
            for e in &list {
                s.push(e.pos, e.mass);
            }
            (t, s)
        })
        .collect();
    let split = cfg.split();
    let mut pairs = 0u64;
    let kernel_s = median_secs(REPS, || {
        pairs = lists
            .iter_mut()
            .map(|(t, s)| pp_accel_dispatch(t, s, &split))
            .sum();
    });
    let variant = selected_variant();
    let bytes: f64 = lists
        .iter()
        .map(|(t, s)| {
            let (ni, nj) = (t.len(), s.len());
            bytes_per_interaction(variant, ni, nj) * (ni * nj) as f64
        })
        .sum();
    let ns_per_pair = kernel_s * 1e9 / pairs as f64;
    m.put(
        "kernels.interactions_per_step",
        c.interactions as f64 / steps,
        "count",
    );
    m.put("kernels.ns_per_interaction", ns_per_pair, "ns");
    m.put(
        "kernels.gflops_51",
        FLOPS_PER_INTERACTION / ns_per_pair,
        "Gflop/s",
    );
    m.put(
        "kernels.flops_per_byte_computed",
        FLOPS_PER_INTERACTION * pairs as f64 / bytes,
        "flop/B",
    );
    let n = store.len() as f64;
    m.put("tree.sort_ns_per_particle", sort_s * 1e9 / n, "ns");
    m.put("tree.build_ns_per_particle", build_s * 1e9 / n, "ns");
    m.put("tree.walk_ns_per_particle", walk_s * 1e9 / n, "ns");
    m.put(
        "tree.visited_nodes_per_step",
        c.visited_nodes as f64 / steps,
        "count",
    );
    m.put("tree.mean_ni", c.sum_ni as f64 / c.groups as f64, "count");
    m.put("tree.mean_nj", c.sum_nj as f64 / c.groups as f64, "count");

    // --- core: the PP engine's fresh and replay passes, PM ---
    let mut engine = ResidentPp::new();
    let mut s = store.clone();
    let fresh_s = median_secs(REPS, || {
        engine.invalidate_cache();
        engine.compute(&cfg, &mut s, &mut [], false, run.half_step_drift);
    });
    let mut replayed = true;
    let replay_s = median_secs(REPS, || {
        replayed &= engine.compute(&cfg, &mut s, &mut [], true, 0.0).replayed;
    });
    let pos = store.positions();
    let masses = store.masses();
    let solver = TreePm::new(cfg);
    let pm_s = median_secs(REPS, || {
        solver.compute_pm(&pos, &masses);
    });
    let world = world_bench(&cfg, run);
    let replay_ratio = c.replays as f64 / c.replay_attempts as f64;
    // Step statistics come from the episodes without span recording,
    // like the layer calls timed here.
    let steps_with = |on: bool| -> Vec<f64> {
        run.step_secs
            .iter()
            .zip(&run.step_traced)
            .filter(|&(_, &t)| t == on)
            .map(|(&secs, _)| secs)
            .collect()
    };
    let (traced, plain) = (steps_with(true), steps_with(false));
    let step_p50 = median(&plain);
    let attributed = match w {
        Workload::RanksCosmo => world.step_layers_s(),
        // Two PP subcycles (fresh, then replay or fresh) and one PM.
        _ => fresh_s + replay_ratio * replay_s + (1.0 - replay_ratio) * fresh_s + pm_s,
    };
    let rows_total: f64 = run.rows.iter().map(|r| r.1).sum();
    m.put("core.pp_fresh_ms", fresh_s * 1e3, "ms");
    m.put(
        "core.pp_replay_ms",
        if replayed { replay_s * 1e3 } else { f64::NAN },
        "ms",
    );
    m.put("core.replay_ratio", replay_ratio, "ratio");
    m.put("core.step_ms_p90", percentile(&plain, 0.9) * 1e3, "ms");
    m.put("core.step_samples", plain.len() as f64, "count");
    m.put("core.unattributed_ms", (step_p50 - attributed) * 1e3, "ms");
    m.put(
        "core.reported_rows_over_wall",
        rows_total / run.step_secs.iter().sum::<f64>(),
        "ratio",
    );
    for ((name, v), (_, vmax)) in run.rows.iter().zip(&run.rows_max) {
        m.put(
            format!("rows.{name}"),
            v / run.step_secs.len() as f64 * 1e3,
            "cpu_ms",
        );
        m.put(
            format!("rows.{name}.max_rank"),
            vmax / run.step_secs.len() as f64 * 1e3,
            "cpu_ms",
        );
    }

    // --- pm, fft: the serial solver's four phases on the final state ---
    let pm = PmSolver::new(cfg.pm_params());
    let cells = (cfg.n_mesh as f64).powi(3);
    let rho = pm.assign_density(&pos, &masses);
    let phi = pm.potential_mesh(&rho);
    let acc = pm.accel_meshes(&phi);
    let tsc_s = median_secs(REPS, || {
        pm.assign_density(&pos, &masses);
    });
    let poisson_s = median_secs(REPS, || {
        pm.potential_mesh(&rho);
    });
    let diff_s = median_secs(REPS, || {
        pm.accel_meshes(&phi);
    });
    let interp_s = median_secs(REPS, || {
        pm.interpolate_forces(&acc, &phi, &pos);
    });
    m.put("pm.tsc_ns_per_particle", tsc_s * 1e9 / n, "ns");
    m.put("pm.poisson_ns_per_cell", poisson_s * 1e9 / cells, "ns");
    m.put("pm.diff_ns_per_cell", diff_s * 1e9 / cells, "ns");
    m.put("pm.interp_ns_per_particle", interp_s * 1e9 / n, "ns");
    m.put("pm.parallel_solve_ms", world.pm_s * 1e3, "ms");
    let plan = Fft1d::new(cfg.n_mesh);
    let mut mesh = Mesh3::from_real(cfg.n_mesh, &rho);
    // A forward and an inverse transform per repetition, so the data
    // stays bounded; one transform is half of that.
    let fft_s = 0.5
        * median_secs(REPS, || {
            fft3d(&mut mesh, &plan);
            fft3d_inverse(&mut mesh, &plan);
        });
    m.put("fft.fft3d_ms", fft_s * 1e3, "ms");
    m.put(
        "fft.gflops_5nlog2n_computed",
        5.0 * cells * cells.log2() / fft_s * 1e-9,
        "Gflop/s",
    );

    // --- domain, mpisim ---
    m.put("domain.exchange_ms", world.exchange_s * 1e3, "ms");
    m.put(
        "domain.migrated_fraction",
        world.migrated as f64 / (2 * N) as f64,
        "ratio",
    );
    m.put(
        "domain.exchange_bytes_per_step",
        world.exchange_bytes as f64,
        "B",
    );
    m.put("domain.rebalance_ms", world.rebalance_s * 1e3, "ms");
    m.put("domain.imbalance_max_over_mean", world.imbalance, "ratio");
    let (messages, bytes, modeled, wait) = match w {
        Workload::RanksCosmo => (
            c.messages as f64 / steps,
            c.bytes as f64 / steps,
            c.modeled_s / steps,
            median(&run.wait_secs),
        ),
        _ => (
            world.messages as f64,
            world.bytes as f64,
            world.modeled_s,
            world.wait_s,
        ),
    };
    m.put("mpisim.messages_per_step", messages, "count");
    m.put("mpisim.bytes_per_step", bytes, "B");
    m.put("mpisim.modeled_s_per_step", modeled, "s");
    m.put("mpisim.collective_wait_ms", wait * 1e3, "ms");
    // Untraced over traced `particle_steps_per_s`, less one.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    m.put(
        "obs.trace_overhead_pct",
        (mean(&traced) / mean(&plain) - 1.0) * 100.0,
        "%",
    );
    m
}

/// What one step's worth of distributed layer calls cost in a
/// `RANKS`-rank world: two domain-decomposition + PP cycles and one
/// parallel PM solve, on the workload's final bodies. Times are the
/// slowest rank's per call; counts are summed over ranks and cover the
/// layer calls only (not the barriers that separate them).
#[derive(Debug, Default, Clone)]
struct WorldBench {
    rebalance_s: f64,
    exchange_s: f64,
    pp_s: f64,
    pm_s: f64,
    /// Rows that changed rank, over both exchanges.
    migrated: u64,
    exchange_bytes: u64,
    /// Largest rank's PP interactions over the mean, last cycle.
    imbalance: f64,
    messages: u64,
    bytes: u64,
    modeled_s: f64,
    /// Mean over ranks of the barrier waits after the calls.
    wait_s: f64,
}

impl WorldBench {
    /// Wall seconds of a step's layer calls.
    fn step_layers_s(&self) -> f64 {
        2.0 * (self.rebalance_s + self.exchange_s + self.pp_s) + self.pm_s
    }
}

/// Per-rank tallies of the world benchmark.
#[derive(Default)]
struct RankTally {
    secs: [f64; 4],
    migrated: u64,
    exchange_bytes: u64,
    interactions: u64,
    messages: u64,
    bytes: u64,
    modeled_s: f64,
    wait_s: f64,
}

impl RankTally {
    /// Run one collective layer call between barriers, charging its wall
    /// time to `slot` and its messages, bytes and virtual time to the
    /// tallies.
    fn call<R>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Comm,
        slot: usize,
        f: impl FnOnce(&mut Ctx) -> R,
    ) -> R {
        comm.barrier(ctx);
        let (c0, v0) = (ctx.comm_stats(), ctx.vtime());
        let t = std::time::Instant::now();
        let r = f(ctx);
        self.secs[slot] += t.elapsed().as_secs_f64();
        let (c1, v1) = (ctx.comm_stats(), ctx.vtime());
        self.messages += c1.messages_sent - c0.messages_sent;
        self.bytes += c1.bytes_sent - c0.bytes_sent;
        self.modeled_s += v1 - v0;
        let t = std::time::Instant::now();
        comm.barrier(ctx);
        self.wait_s += t.elapsed().as_secs_f64();
        r
    }
}

fn world_bench(cfg: &TreePmConfig, run: &Run) -> WorldBench {
    let tallies = World::new(RANKS)
        .with_net(NetModel::k_computer())
        .run(|ctx, comm| rank_bench(ctx, comm, cfg, run));
    let max =
        |slot: usize, calls: f64| tallies.iter().map(|t| t.secs[slot]).fold(0.0, f64::max) / calls;
    let inter: Vec<f64> = tallies.iter().map(|t| t.interactions as f64).collect();
    let mean = inter.iter().sum::<f64>() / inter.len() as f64;
    WorldBench {
        rebalance_s: max(0, 2.0),
        exchange_s: max(1, 2.0),
        pp_s: max(2, 2.0),
        pm_s: max(3, 1.0),
        migrated: tallies.iter().map(|t| t.migrated).sum(),
        exchange_bytes: tallies.iter().map(|t| t.exchange_bytes).sum(),
        imbalance: inter.iter().fold(0.0, |a: f64, &b| a.max(b)) / mean,
        messages: tallies.iter().map(|t| t.messages).sum(),
        bytes: tallies.iter().map(|t| t.bytes).sum(),
        modeled_s: tallies.iter().map(|t| t.modeled_s).fold(0.0, f64::max),
        wait_s: tallies.iter().map(|t| t.wait_s).sum::<f64>() / tallies.len() as f64,
    }
}

fn rank_bench(ctx: &mut Ctx, comm: &Comm, cfg: &TreePmConfig, run: &Run) -> RankTally {
    let me = comm.rank();
    // Scatter to the uniform grid, as the parallel driver's constructor
    // does (untimed).
    let uniform = DomainGrid::uniform(DIV);
    let mine = exchange(
        ctx,
        comm,
        if me == 0 {
            run.last.clone()
        } else {
            Vec::new()
        },
        |b| uniform.rank_of_point(wrap01(b.pos)),
    );
    let mut store = ParticleStore::from_bodies(&mine);
    let pm = ParallelPm::new(
        ctx,
        comm,
        ParallelPmConfig {
            n_mesh: cfg.n_mesh,
            r_cut: cfg.r_cut,
            deconvolve: cfg.deconvolve,
            nf: 1,
            relay_groups: None,
        },
    );
    let mut balancer = SamplingBalancer::new(BalancerParams::new(DIV, (64 * RANKS).max(512)));
    let mut engine = ResidentPp::new();
    let mut tally = RankTally::default();
    let mut cost = 1.0;
    let mut grid = uniform;
    for _ in 0..2 {
        let pos = store.positions();
        grid = tally.call(ctx, comm, 0, |ctx| {
            balancer.rebalance(ctx, comm, &pos, cost)
        });
        let rows = store.to_packed();
        let dest = |r: &[f64; 8]| grid.rank_of_point(Vec3::new(r[0], r[1], r[2]));
        tally.migrated += rows.iter().filter(|r| dest(r) != me).count() as u64;
        let b0 = tally.bytes;
        let rows = tally.call(ctx, comm, 1, |ctx| exchange_rows(ctx, comm, rows, dest));
        tally.exchange_bytes += tally.bytes - b0;
        store = ParticleStore::from_packed(&rows);
        let out = tally.call(ctx, comm, 2, |ctx| {
            let ghosts = import_ghosts(ctx, comm, &store, &grid, cfg.r_cut);
            engine.compute_combined(cfg, &mut store, &ghosts, &mut [])
        });
        tally.interactions = out.walk.interactions;
        // Charge the modelled PP cost, as the parallel driver does with
        // `modeled_pp_cost`, and feed it back to the balancer.
        let v0 = ctx.vtime();
        ctx.compute(out.walk.interactions as f64 * MODELED_PP_COST);
        tally.modeled_s += ctx.vtime() - v0;
        cost = (ctx.vtime() - v0).max(1e-30);
    }
    let dom = grid.domain(me);
    let (pos, mass) = (store.positions(), store.masses());
    tally.call(ctx, comm, 3, |ctx| {
        pm.solve(ctx, comm, dom.lo.to_array(), dom.hi.to_array(), &pos, &mass)
    });
    tally
}

/// Boundary particles within `r_cut` of another rank's domain, sent to
/// that rank as ghosts (the parallel driver's import rule).
fn import_ghosts(
    ctx: &mut Ctx,
    comm: &Comm,
    store: &ParticleStore,
    grid: &DomainGrid,
    r_cut: f64,
) -> Vec<(Vec3, f64)> {
    let p = comm.size();
    let me = comm.rank();
    let domains: Vec<Aabb> = (0..p).map(|r| grid.domain(r)).collect();
    let mut send: Vec<Vec<(Vec3, f64)>> = vec![Vec::new(); p];
    for i in 0..store.len() {
        let pos = store.pos(i);
        for (d, dom) in domains.iter().enumerate() {
            if d != me && dom.periodic_dist2_to_point(pos) <= r_cut * r_cut {
                send[d].push((pos, store.mass_column()[i]));
            }
        }
    }
    comm.alltoallv(ctx, send).into_iter().flatten().collect()
}
