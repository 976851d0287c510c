//! The three workloads: inputs made from the seed, the timed step loop,
//! and the correctness checks that run inside it.
//!
//! A run is a sequence of identical *episodes*: set up from the seed's
//! inputs, then a fixed number of steps. Every episode of a run repeats
//! the same computation, so the exact work counts of the first episode
//! (interactions, replays, messages, modelled seconds) do not depend on
//! how many episodes fit in the run, and the set-up time is sampled once
//! per episode.

use std::time::Instant;

use greem::{Body, ParallelTreePm, Simulation, SimulationMode, StepBreakdown, TreePmConfig};
use greem_cosmo::{generate_ics, Cosmology, IcParams, PowerSpectrum};
use greem_math::Vec3;
use mpisim::{Comm, Ctx, NetModel, World};

use crate::checks::{self, Check};
use crate::stats::timed;

/// Particles in every workload (32³).
pub const N: usize = 32768;
/// Static-mode timestep of the serial workloads.
pub const DT: f64 = 2e-5;
/// Steps per serial episode.
pub const SERIAL_STEPS: usize = 8;
/// Rank threads of `ranks_cosmo`, and its domain division.
pub const RANKS: usize = 2;
pub const DIV: [usize; 3] = [2, 1, 1];
/// Modelled PP cost per interaction (virtual seconds): makes the
/// sampling balancer of `ranks_cosmo` deterministic.
pub const MODELED_PP_COST: f64 = 5e-9;
/// `ranks_cosmo`: start and end redshift and log-spaced steps in a.
pub const Z_START: f64 = 400.0;
pub const Z_END: f64 = 31.0;
pub const COSMO_STEPS: usize = 24;
/// Episodes a run makes at least, whatever `--seconds` says.
const MIN_EPISODES: usize = 2;
/// Extra set-ups timed before the first episode: `setup_s` is a median
/// of at least six samples even when only two episodes fit.
const EXTRA_SETUPS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PpClustered,
    PmUniform,
    RanksCosmo,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PpClustered,
        Workload::PmUniform,
        Workload::RanksCosmo,
    ];

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PpClustered => "pp_clustered",
            Workload::PmUniform => "pm_uniform",
            Workload::RanksCosmo => "ranks_cosmo",
        }
    }

    /// Simulated-rank threads the workload runs on.
    pub fn rank_threads(self) -> usize {
        match self {
            Workload::RanksCosmo => RANKS,
            _ => 1,
        }
    }

    pub fn config(self) -> TreePmConfig {
        match self {
            Workload::PpClustered => TreePmConfig::standard(16),
            Workload::PmUniform => TreePmConfig::standard(128),
            Workload::RanksCosmo => TreePmConfig {
                modeled_pp_cost: Some(MODELED_PP_COST),
                ..TreePmConfig::standard(32)
            },
        }
    }

    /// Gate on `force_err_p99`, about twice the value measured at the
    /// seeds 1-10: the median sampled error is 0.5 % (clustered), 1 %
    /// (cosmological) and 3 % (uniform, where the net forces are small
    /// Poisson fluctuations and relative errors are large). A change that
    /// loosens the forces past the gate fails its run.
    pub fn force_err_gate(self) -> f64 {
        match self {
            Workload::PpClustered | Workload::RanksCosmo => 0.15,
            Workload::PmUniform => 0.4,
        }
    }

    /// The workload's initial bodies, made from the seed alone.
    pub fn bodies(self, seed: u64) -> Vec<Body> {
        use greem_bench::workloads::{bodies_at_rest, clustered, uniform};
        match self {
            Workload::PpClustered => bodies_at_rest(&clustered(N, 4, 0.4, seed)),
            Workload::PmUniform => bodies_at_rest(&uniform(N, seed)),
            Workload::RanksCosmo => {
                let side = (N as f64).cbrt().round() as usize;
                let ics = generate_ics(&IcParams {
                    n_per_side: side,
                    a_start: a_start(),
                    spectrum: PowerSpectrum::microhalo(1.0, 2.0 * std::f64::consts::PI * 4.0),
                    cosmology: Cosmology::wmap7(),
                    seed,
                    normalize_rms_delta: Some(0.2),
                });
                ics.pos
                    .iter()
                    .zip(&ics.vel)
                    .enumerate()
                    .map(|(i, (&pos, &vel))| Body {
                        pos,
                        vel,
                        mass: ics.mass,
                        id: i as u64,
                    })
                    .collect()
            }
        }
    }

    pub fn mode(self) -> SimulationMode {
        match self {
            Workload::RanksCosmo => SimulationMode::Cosmological {
                cosmology: Cosmology::wmap7(),
                a: a_start(),
            },
            _ => SimulationMode::Static,
        }
    }
}

fn a_start() -> f64 {
    1.0 / (1.0 + Z_START)
}

/// The scale factor after `k` of the log-spaced `ranks_cosmo` steps.
pub fn a_after(k: usize) -> f64 {
    let ratio = ((1.0 + Z_START) / (1.0 + Z_END)).powf(1.0 / COSMO_STEPS as f64);
    a_start() * ratio.powi(k as i32)
}

/// Exact work counts of one episode (the first of the run).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub steps: u64,
    pub interactions: u64,
    pub visited_nodes: u64,
    pub groups: u64,
    pub sum_ni: u64,
    pub sum_nj: u64,
    /// PP passes served by replaying cached interaction lists, and the
    /// passes that asked for a replay (the second subcycle of each step).
    pub replays: u64,
    pub replay_attempts: u64,
    /// Summed over ranks, counted over the step calls only.
    pub messages: u64,
    pub bytes: u64,
    /// Virtual seconds, the slowest rank of each step, summed.
    pub modeled_s: f64,
}

impl Counts {
    fn add_walk(&mut self, bd: &StepBreakdown) {
        self.steps += 1;
        self.interactions += bd.walk.interactions;
        self.visited_nodes += bd.walk.visited_nodes;
        self.groups += bd.walk.n_groups;
        self.sum_ni += bd.walk.sum_ni;
        self.sum_nj += bd.walk.sum_nj;
        self.replays += bd.pp_list_replays;
    }
}

/// Everything a run measured.
pub struct Run {
    pub setup_secs: Vec<f64>,
    /// Wall seconds of each timed step (collective: until every rank is
    /// done).
    pub step_secs: Vec<f64>,
    /// Whether each step ran with span recording on (traced runs only).
    pub step_traced: Vec<bool>,
    pub counts: Counts,
    /// `StepBreakdown::phase_rows` summed over all timed steps: the
    /// serial driver's (or rank 0's) rows, and the largest rank's.
    pub rows: Vec<(&'static str, f64)>,
    pub rows_max: Vec<(&'static str, f64)>,
    /// Per-step wall seconds ranks waited in the barrier after a step
    /// (mean over ranks); empty for the serial workloads.
    pub wait_secs: Vec<f64>,
    pub checks: Vec<Check>,
    /// The final bodies of the last episode, sorted by id.
    pub last: Vec<Body>,
    /// Largest displacement of a body over the last step, halved: the
    /// drift a PP subcycle sees (sizes the list-replay margin).
    pub half_step_drift: f64,
}

/// Run `workload` for about `seconds` of episodes. In a `traced` run
/// the episodes alternate between span recording on and off.
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool) -> Run {
    let run = match w {
        Workload::RanksCosmo => run_ranks(w, seed, seconds, traced),
        _ => run_serial(w, seed, seconds, traced),
    };
    greem_obs::trace::disable();
    greem_obs::trace::drain();
    run
}

/// Whether `episode` of a traced run records spans: even episodes do and
/// odd ones do not, so the recording overhead is measured inside one
/// process, where host speed drift between runs cancels.
fn records(traced: bool, episode: usize) -> bool {
    traced && episode.is_multiple_of(2)
}

fn set_recording(on: bool) {
    if on {
        greem_obs::trace::enable();
    } else {
        greem_obs::trace::disable();
    }
}

fn sum_rows(acc: &mut Vec<(&'static str, f64)>, bd: &StepBreakdown) {
    let rows = bd.phase_rows(1.0);
    if acc.is_empty() {
        acc.extend(rows.iter().map(|&(k, _)| (k, 0.0)));
    }
    for (a, (_, v)) in acc.iter_mut().zip(rows) {
        a.1 += v;
    }
}

fn run_serial(w: Workload, seed: u64, seconds: f64, traced: bool) -> Run {
    let cfg = w.config();
    let bodies = w.bodies(seed);
    let mut out = Run {
        setup_secs: Vec::new(),
        step_secs: Vec::new(),
        step_traced: Vec::new(),
        counts: Counts::default(),
        rows: Vec::new(),
        rows_max: Vec::new(),
        wait_secs: Vec::new(),
        checks: Vec::new(),
        last: Vec::new(),
        half_step_drift: 0.0,
    };
    let start = Instant::now();
    for _ in 0..EXTRA_SETUPS {
        let init = bodies.clone();
        let (_, setup) = timed(|| Simulation::new(cfg, init, SimulationMode::Static));
        out.setup_secs.push(setup);
    }
    let mut episode = 0;
    while episode < MIN_EPISODES || start.elapsed().as_secs_f64() < seconds {
        let on = records(traced, episode);
        set_recording(on);
        let init = bodies.clone();
        let (mut sim, setup) = timed(|| Simulation::new(cfg, init, SimulationMode::Static));
        out.setup_secs.push(setup);
        let mut before = Vec::new();
        for k in 0..SERIAL_STEPS {
            if k + 1 == SERIAL_STEPS {
                before = sim.bodies();
            }
            let (bd, secs) = timed(|| sim.step(DT));
            out.step_secs.push(secs);
            out.step_traced.push(on);
            sum_rows(&mut out.rows, &bd);
            if episode == 0 {
                out.counts.add_walk(&bd);
                out.counts.replay_attempts += 1;
            }
        }
        out.last = sim.bodies();
        out.half_step_drift = checks::max_displacement(&before, &out.last) * 0.5;
        out.checks.extend(checks::conservation(&bodies, &out.last));
        episode += 1;
    }
    out.rows_max = out.rows.clone();
    out
}

/// One rank's share of a `ranks_cosmo` run.
struct RankRun {
    setup_secs: Vec<f64>,
    step_secs: Vec<f64>,
    step_traced: Vec<bool>,
    wait_secs: Vec<f64>,
    counts: Counts,
    /// Per-step virtual seconds of the first episode (maxed over ranks
    /// in `run_ranks`).
    modeled: Vec<f64>,
    rows: Vec<(&'static str, f64)>,
    /// Rank 0 only: the conservation checks of every episode, and the
    /// gathered bodies after the first step, before the last step and at
    /// the end of the last episode.
    checks: Vec<Check>,
    first_step: Vec<Body>,
    before_last: Vec<Body>,
    last: Vec<Body>,
}

fn run_ranks(w: Workload, seed: u64, seconds: f64, traced: bool) -> Run {
    let cfg = w.config();
    let bodies = w.bodies(seed);
    let world = World::new(RANKS).with_net(NetModel::k_computer());
    let ranks = world.run(|ctx, comm| rank_loop(ctx, comm, w, &bodies, seconds, traced));

    let r0 = &ranks[0];
    let mut counts = Counts::default();
    for r in &ranks {
        counts.interactions += r.counts.interactions;
        counts.visited_nodes += r.counts.visited_nodes;
        counts.groups += r.counts.groups;
        counts.sum_ni += r.counts.sum_ni;
        counts.sum_nj += r.counts.sum_nj;
        counts.replays += r.counts.replays;
        counts.messages += r.counts.messages;
        counts.bytes += r.counts.bytes;
    }
    counts.steps = r0.counts.steps;
    counts.replay_attempts = r0.counts.replay_attempts;
    counts.modeled_s = (0..r0.modeled.len())
        .map(|k| ranks.iter().map(|r| r.modeled[k]).fold(0.0, f64::max))
        .sum();
    let rows_max = r0
        .rows
        .iter()
        .enumerate()
        .map(|(i, &(k, _))| (k, ranks.iter().map(|r| r.rows[i].1).fold(0.0, f64::max)))
        .collect();
    let wait_secs = (0..r0.wait_secs.len())
        .map(|k| ranks.iter().map(|r| r.wait_secs[k]).sum::<f64>() / ranks.len() as f64)
        .collect();

    let mut checks_out = r0.checks.clone();
    checks_out.push(checks::parallel_matches_serial(
        cfg,
        w.mode(),
        &bodies,
        &r0.first_step,
    ));
    let half_step_drift = checks::max_displacement(&r0.before_last, &r0.last) * 0.5;
    Run {
        setup_secs: r0.setup_secs.clone(),
        step_secs: r0.step_secs.clone(),
        step_traced: r0.step_traced.clone(),
        counts,
        rows: r0.rows.clone(),
        rows_max,
        wait_secs,
        checks: checks_out,
        last: r0.last.clone(),
        half_step_drift,
    }
}

fn rank_loop(
    ctx: &mut Ctx,
    comm: &Comm,
    w: Workload,
    bodies: &[Body],
    seconds: f64,
    traced: bool,
) -> RankRun {
    let cfg = w.config();
    let root = comm.rank() == 0;
    let mut out = RankRun {
        setup_secs: Vec::new(),
        step_secs: Vec::new(),
        step_traced: Vec::new(),
        wait_secs: Vec::new(),
        counts: Counts::default(),
        modeled: Vec::new(),
        rows: Vec::new(),
        checks: Vec::new(),
        first_step: Vec::new(),
        before_last: Vec::new(),
        last: Vec::new(),
    };
    let setup = |ctx: &mut Ctx, out: &mut RankRun| {
        comm.barrier(ctx);
        let t = Instant::now();
        let sim = ParallelTreePm::new(
            ctx,
            comm,
            cfg,
            DIV,
            1,
            None,
            root.then(|| bodies.to_vec()),
            w.mode(),
        );
        comm.barrier(ctx);
        out.setup_secs.push(t.elapsed().as_secs_f64());
        sim
    };
    let start = Instant::now();
    for _ in 0..EXTRA_SETUPS {
        setup(ctx, &mut out);
    }
    let mut episode = 0;
    loop {
        // The recording switch is process-wide: rank 0 flips it before
        // the set-up's barrier.
        let on = records(traced, episode);
        if root {
            set_recording(on);
        }
        let mut sim = setup(ctx, &mut out);
        for k in 0..COSMO_STEPS {
            if k + 1 == COSMO_STEPS {
                out.before_last = sim.gather_bodies(ctx, comm).unwrap_or_default();
            }
            let (c0, v0) = (ctx.comm_stats(), ctx.vtime());
            let t = Instant::now();
            let st = sim.step(ctx, comm, a_after(k + 1));
            let (c1, v1) = (ctx.comm_stats(), ctx.vtime());
            let tb = Instant::now();
            comm.barrier(ctx);
            out.wait_secs.push(tb.elapsed().as_secs_f64());
            out.step_secs.push(t.elapsed().as_secs_f64());
            out.step_traced.push(on);
            sum_rows(&mut out.rows, &st.breakdown);
            if episode == 0 {
                out.counts.add_walk(&st.breakdown);
                out.counts.replay_attempts += 1;
                out.counts.messages += c1.messages_sent - c0.messages_sent;
                out.counts.bytes += c1.bytes_sent - c0.bytes_sent;
                out.modeled.push(v1 - v0);
                if k == 0 {
                    out.first_step = sim.gather_bodies(ctx, comm).unwrap_or_default();
                }
            }
        }
        if let Some(fin) = sim.gather_bodies(ctx, comm) {
            out.checks.extend(checks::conservation(bodies, &fin));
            out.last = fin;
        }
        episode += 1;
        let more = episode < MIN_EPISODES || start.elapsed().as_secs_f64() < seconds;
        if !comm.bcast(ctx, 0, root.then(|| vec![more]))[0] {
            break;
        }
    }
    out
}

/// Total momentum of a body set.
pub fn momentum(bodies: &[Body]) -> Vec3 {
    bodies.iter().map(|b| b.vel * b.mass).sum()
}
