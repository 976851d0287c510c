//! Correctness checks made inside every run. A failed check marks the
//! run's steps as failed (`failed` in the result line).

use greem::{Body, ParticleStore, ResidentPp, Simulation, SimulationMode, TreePm, TreePmConfig};
use greem_baselines::EwaldTable;
use greem_math::{min_image_vec, Vec3};
use rayon::prelude::*;

use crate::stats::percentile;
use crate::workloads::{a_after, momentum};

/// Bound on the momentum a run may create, relative to the total
/// momentum magnitude `Σ m|v|` at the end of the episode. TreePM does
/// not conserve momentum exactly (the tree's multipole acceptance is
/// not pairwise symmetric); the measured drift is 1e-4 or less on every
/// workload.
pub const MOMENTUM_BOUND: f64 = 1e-3;
/// `ranks_cosmo`: after one step, the gathered velocities of the
/// parallel driver must agree with a serial `Simulation` step from the
/// same initial conditions to this fraction of the rms velocity, at the
/// 99th percentile over particles. The two drivers walk different trees
/// (owned + ghost per rank against one global tree) and the serial one
/// replays its second-subcycle lists, so they agree to the multipole
/// error, not bitwise.
pub const PARALLEL_SERIAL_TOL: f64 = 1e-3;
/// Targets of the force-error sample (every `N / FORCE_SAMPLE`-th id).
const FORCE_SAMPLE: usize = 4096;
/// Cells per axis of the tabulated Ewald correction.
const EWALD_TABLE: usize = 16;

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub value: f64,
    pub limit: f64,
}

impl Check {
    pub fn passed(&self) -> bool {
        self.value <= self.limit
    }
}

/// Particle ids and total mass are preserved exactly, and momentum
/// stays within [`MOMENTUM_BOUND`]. Both body sets are sorted by id.
pub fn conservation(initial: &[Body], fin: &[Body]) -> Vec<Check> {
    let ids_ok = fin.len() == initial.len()
        && fin.iter().zip(initial).all(|(a, b)| a.id == b.id)
        && fin.iter().map(|b| b.mass).sum::<f64>() == initial.iter().map(|b| b.mass).sum::<f64>();
    let scale: f64 = fin.iter().map(|b| b.mass * b.vel.norm()).sum();
    let drift = (momentum(fin) - momentum(initial)).norm() / scale.max(f64::MIN_POSITIVE);
    vec![
        Check {
            name: "ids_and_mass_preserved",
            value: if ids_ok { 0.0 } else { 1.0 },
            limit: 0.0,
        },
        Check {
            name: "momentum_drift",
            value: drift,
            limit: MOMENTUM_BOUND,
        },
    ]
}

/// Largest minimum-image displacement between two id-sorted body sets.
pub fn max_displacement(before: &[Body], after: &[Body]) -> f64 {
    before
        .iter()
        .zip(after)
        .map(|(a, b)| min_image_vec(b.pos, a.pos).norm())
        .fold(0.0, f64::max)
}

/// 99th-percentile relative error of the TreePM acceleration (a fresh
/// `ResidentPp::compute` plus `TreePm::compute_pm`) on a fixed sample
/// of targets, against the periodic Ewald sum with the same Plummer
/// softening on the nearest image.
pub fn force_err_p99(cfg: &TreePmConfig, bodies: &[Body]) -> f64 {
    let mut store = ParticleStore::from_bodies(bodies);
    let pp = ResidentPp::new().compute(cfg, &mut store, &mut [], false, 0.0);
    let pos = store.positions();
    let mass = store.masses();
    let (pm, _) = TreePm::new(*cfg).compute_pm(&pos, &mass);
    let stride = (pos.len() / FORCE_SAMPLE).max(1) as u64;
    let ids = store.id_column();
    let targets: Vec<usize> = (0..pos.len())
        .filter(|&i| ids[i].is_multiple_of(stride))
        .collect();
    let table = EwaldTable::new(EWALD_TABLE);
    let eps2 = cfg.eps * cfg.eps;
    let errs: Vec<f64> = targets
        .par_iter()
        .map(|&i| {
            let mut want = Vec3::ZERO;
            for (j, (&p, &m)) in pos.iter().zip(&mass).enumerate() {
                if j != i {
                    let r = min_image_vec(p, pos[i]);
                    let soft2 = r.norm2() + eps2;
                    let plummer = r * (1.0 / (soft2 * soft2.sqrt()));
                    want += (table.correction(r) + plummer) * m;
                }
            }
            let got = pp.accel[i] + pm.accel[i];
            (got - want).norm() / want.norm().max(f64::MIN_POSITIVE)
        })
        .collect();
    percentile(&errs, 0.99)
}

/// One `ranks_cosmo` step of the parallel driver (`got`, gathered and
/// id-sorted) against a serial `Simulation` step from the same bodies:
/// 99th percentile of `|Δv|` over the rms velocity of the serial step.
pub fn parallel_matches_serial(
    cfg: TreePmConfig,
    mode: SimulationMode,
    initial: &[Body],
    got: &[Body],
) -> Check {
    let mut serial = Simulation::new(cfg, initial.to_vec(), mode);
    serial.step(a_after(1));
    let want = serial.bodies();
    let value = if got.len() != want.len() || got.iter().zip(&want).any(|(a, b)| a.id != b.id) {
        f64::INFINITY
    } else {
        let rms = (want.iter().map(|b| b.vel.norm2()).sum::<f64>() / want.len() as f64).sqrt();
        let diffs: Vec<f64> = got
            .iter()
            .zip(&want)
            .map(|(a, b)| (a.vel - b.vel).norm() / rms)
            .collect();
        percentile(&diffs, 0.99)
    };
    Check {
        name: "parallel_matches_serial",
        value,
        limit: PARALLEL_SERIAL_TOL,
    }
}
