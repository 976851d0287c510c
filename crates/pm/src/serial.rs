//! The complete PM cycle in one address space.
//!
//! Reference implementation of the five-step pipeline (§II-B) without
//! the distributed-mesh conversions: assignment → FFT → Green's function
//! → inverse FFT → 4-point differencing → interpolation. The parallel
//! driver must agree with this to rounding-level accuracy, and the
//! single-rank TreePM path in `greem` (core) uses it directly.

use greem_fft::{fft3d, fft3d_inverse, Fft1d, Mesh3};
use greem_math::Vec3;

use crate::greens::{GreensFn, GreensTable};
use crate::{mesh, PmPipeline};

/// PM configuration.
#[derive(Debug, Clone, Copy)]
pub struct PmParams {
    /// Mesh cells per side (power of two).
    pub n_mesh: usize,
    /// Short-range cutoff radius in box units; the Green's function
    /// carries the matching S2² long-range filter.
    pub r_cut: f64,
    /// Deconvolve the TSC window (assignment + interpolation).
    pub deconvolve: bool,
}

impl PmParams {
    /// The paper's standard configuration for a mesh of side `n`:
    /// `r_cut = 3/n` (§III-A), deconvolution on.
    pub fn standard(n_mesh: usize) -> Self {
        PmParams {
            n_mesh,
            r_cut: 3.0 / n_mesh as f64,
            deconvolve: true,
        }
    }
}

/// Long-range accelerations and potentials at the particle positions.
#[derive(Debug, Clone)]
pub struct PmResult {
    /// PM acceleration per particle.
    pub accel: Vec<Vec3>,
    /// PM potential per particle (G = 1 units; diagnostics).
    pub potential: Vec<f64>,
}

/// Serial PM solver: owns the FFT plan and the Green's function table.
///
/// ```
/// use greem_math::Vec3;
/// use greem_pm::{PmParams, PmSolver};
///
/// let solver = PmSolver::new(PmParams::standard(16)); // r_cut = 3 cells
/// // Two particles far beyond r_cut: the PM force carries the whole
/// // interaction (≈ Newtonian at this separation).
/// let pos = vec![Vec3::new(0.35, 0.5, 0.5), Vec3::new(0.65, 0.5, 0.5)];
/// let res = solver.solve(&pos, &[1.0, 1.0]);
/// assert!(res.accel[0].x > 0.0);
/// assert!((res.accel[0] + res.accel[1]).norm() < 1e-9 * res.accel[0].norm());
/// ```
pub struct PmSolver {
    params: PmParams,
    greens: GreensTable,
    plan: Fft1d,
}

impl PmSolver {
    /// Build a solver for the given parameters.
    pub fn new(params: PmParams) -> Self {
        assert!(
            params.n_mesh.is_power_of_two(),
            "PM mesh must be a power of two"
        );
        let greens = GreensFn::new(params.n_mesh, params.r_cut, params.deconvolve);
        PmSolver {
            greens: GreensTable::new(&greens),
            plan: Fft1d::new(params.n_mesh),
            params,
        }
    }

    /// The configuration.
    pub fn params(&self) -> &PmParams {
        &self.params
    }

    /// TSC mass-density assignment onto the full periodic mesh:
    /// `ρ[c] = Σ_p m_p·W(c − x_p) / h³`. Positions must be in `[0,1)`.
    ///
    /// Parallelised by x-slab ownership: particles are binned by the slab
    /// of their leftmost TSC plane, and slabs of alternating colour
    /// scatter in two parallel rounds straight into the one output mesh
    /// — no per-thread scratch meshes and no reduction. The summation
    /// order per cell is fixed by the positions alone, so the result is
    /// deterministic on any host and thread count; it may differ from
    /// [`assign_density_serial`](Self::assign_density_serial) by
    /// reassociation only: ≲1e-12 relative.
    pub fn assign_density(&self, pos: &[Vec3], mass: &[f64]) -> Vec<f64> {
        let n = self.params.n_mesh;
        mesh::deposit(n, n, pos, mass, true)
    }

    /// The serial scatter loop in input order — the reference the
    /// parallel assignment is compared against.
    pub fn assign_density_serial(&self, pos: &[Vec3], mass: &[f64]) -> Vec<f64> {
        let n = self.params.n_mesh;
        mesh::deposit(n, n, pos, mass, false)
    }

    /// Solve the filtered Poisson equation on the mesh: density in,
    /// long-range potential out.
    pub fn potential_mesh(&self, density: &[f64]) -> Vec<f64> {
        let n = self.params.n_mesh;
        assert_eq!(density.len(), n * n * n);
        let mut mesh = Mesh3::from_real(n, density);
        fft3d(&mut mesh, &self.plan);
        let greens = &self.greens;
        mesh.par_map_modes(|ix, iy, iz, v| v * greens.get(ix, iy, iz));
        fft3d_inverse(&mut mesh, &self.plan);
        mesh.to_real()
    }

    /// 4-point finite-difference accelerations from the potential mesh:
    /// `a = −∇φ`, `∂φ/∂x ≈ (−φ₊₂ + 8φ₊₁ − 8φ₋₁ + φ₋₂)/(12h)` (§II-B
    /// step 5). Returns the three component meshes.
    pub fn accel_meshes(&self, phi: &[f64]) -> [Vec<f64>; 3] {
        let n = self.params.n_mesh;
        mesh::differentiate(phi, n, n as f64 / 12.0)
    }

    /// TSC interpolation of one mesh field to particle positions
    /// (parallel over particles). A test reference: the solver itself
    /// uses the fused [`interpolate_forces`](Self::interpolate_forces).
    pub fn interpolate(&self, field: &[f64], pos: &[Vec3]) -> Vec<f64> {
        let n = self.params.n_mesh;
        let one = mesh::gather(n, n, [field], pos);
        one.into_iter().map(|[v]| v).collect()
    }

    /// Fused TSC interpolation of the three acceleration meshes and the
    /// potential: one pass computing the TSC weights once per particle
    /// instead of four times. Each field keeps its own accumulator in
    /// the same a/b/c gather order, so every value is bitwise-identical
    /// to four separate [`interpolate`](Self::interpolate) calls.
    pub fn interpolate_forces(
        &self,
        acc: &[Vec<f64>; 3],
        phi: &[f64],
        pos: &[Vec3],
    ) -> (Vec<Vec3>, Vec<f64>) {
        let n = self.params.n_mesh;
        mesh::gather_forces(n, n, acc, phi, pos)
    }

    /// The full PM cycle: long-range accelerations (and potentials) at
    /// the particle positions.
    pub fn solve(&self, pos: &[Vec3], mass: &[f64]) -> PmResult {
        PmPipeline::solve(self, pos, mass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greem_math::cutoff::g_long;

    use greem_math::testutil::rand_positions as rand_pos;

    #[test]
    fn assignment_conserves_mass() {
        let solver = PmSolver::new(PmParams::standard(16));
        let pos = rand_pos(100, 3);
        let mass: Vec<f64> = (0..100).map(|i| 0.5 + (i % 7) as f64 * 0.1).collect();
        let rho = solver.assign_density(&pos, &mass);
        let cell_vol = 1.0 / (16f64).powi(3);
        let got: f64 = rho.iter().sum::<f64>() * cell_vol;
        let want: f64 = mass.iter().sum();
        assert!((got - want).abs() < 1e-10 * want, "mass {got} vs {want}");
    }

    #[test]
    fn parallel_assignment_matches_serial_reference() {
        // Enough particles to exceed the chunking threshold, so the
        // parallel reduction path actually runs.
        let solver = PmSolver::new(PmParams::standard(16));
        let pos = rand_pos(20_000, 17);
        let mass: Vec<f64> = (0..20_000).map(|i| 0.5 + (i % 5) as f64 * 0.2).collect();
        let par = solver.assign_density(&pos, &mass);
        let ser = solver.assign_density_serial(&pos, &mass);
        let scale = ser.iter().map(|v| v.abs()).fold(1e-300, f64::max);
        for (p, s) in par.iter().zip(&ser) {
            // Reassociated sums only: documented ≲1e-12 relative.
            assert!((p - s).abs() <= 1e-12 * scale, "{p} vs {s}");
        }
    }

    #[test]
    fn fused_interpolation_matches_separate_calls() {
        let solver = PmSolver::new(PmParams::standard(16));
        let pos = rand_pos(500, 23);
        let mass = vec![1.0; 500];
        let rho = solver.assign_density(&pos, &mass);
        let phi = solver.potential_mesh(&rho);
        let acc = solver.accel_meshes(&phi);
        let (a3, pot) = solver.interpolate_forces(&acc, &phi, &pos);
        let ax = solver.interpolate(&acc[0], &pos);
        let ay = solver.interpolate(&acc[1], &pos);
        let az = solver.interpolate(&acc[2], &pos);
        let pw = solver.interpolate(&phi, &pos);
        for i in 0..pos.len() {
            // Same gather order per field: bitwise equality.
            assert_eq!(a3[i].x, ax[i]);
            assert_eq!(a3[i].y, ay[i]);
            assert_eq!(a3[i].z, az[i]);
            assert_eq!(pot[i], pw[i]);
        }
    }

    #[test]
    fn uniform_distribution_gives_zero_force() {
        // A particle on every mesh point = exactly uniform density →
        // zero PM force everywhere.
        let n = 8;
        let solver = PmSolver::new(PmParams::standard(n));
        let mut pos = Vec::new();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    pos.push(Vec3::new(
                        x as f64 / n as f64,
                        y as f64 / n as f64,
                        z as f64 / n as f64,
                    ));
                }
            }
        }
        let mass = vec![1.0 / pos.len() as f64; pos.len()];
        let res = solver.solve(&pos, &mass);
        for a in &res.accel {
            assert!(a.norm() < 1e-10, "uniform lattice force {a:?}");
        }
    }

    #[test]
    fn momentum_is_conserved() {
        let solver = PmSolver::new(PmParams::standard(32));
        let pos = rand_pos(200, 5);
        let mass: Vec<f64> = (0..200).map(|i| 1.0 + (i % 3) as f64).collect();
        let res = solver.solve(&pos, &mass);
        let ptot: Vec3 = res.accel.iter().zip(&mass).map(|(a, &m)| *a * m).sum();
        let scale: f64 = res
            .accel
            .iter()
            .zip(&mass)
            .map(|(a, &m)| (*a * m).norm())
            .sum();
        assert!(
            ptot.norm() < 1e-8 * scale.max(1e-30),
            "momentum {ptot:?} vs scale {scale}"
        );
    }

    #[test]
    fn pair_force_is_antisymmetric() {
        let solver = PmSolver::new(PmParams {
            n_mesh: 32,
            r_cut: 3.0 / 32.0,
            deconvolve: true,
        });
        let pos = vec![Vec3::new(0.3, 0.5, 0.5), Vec3::new(0.62, 0.5, 0.5)];
        let mass = vec![1.0, 1.0];
        let res = solver.solve(&pos, &mass);
        assert!(
            (res.accel[0] + res.accel[1]).norm() < 1e-9 * res.accel[0].norm(),
            "{:?} vs {:?}",
            res.accel[0],
            res.accel[1]
        );
        // Attraction along +x for particle 0.
        assert!(res.accel[0].x > 0.0);
        assert!(res.accel[0].y.abs() < 1e-6 * res.accel[0].x);
    }

    #[test]
    fn pair_beyond_cutoff_is_near_newtonian() {
        // r ≫ r_cut: the PM force carries the whole interaction; at
        // r = 0.2 the periodic-image correction is ~1 %, so compare to
        // 1/r² loosely.
        let n = 64;
        let solver = PmSolver::new(PmParams::standard(n)); // r_cut ≈ 0.047
        let r = 0.2;
        let pos = vec![Vec3::new(0.4, 0.5, 0.5), Vec3::new(0.4 + r, 0.5, 0.5)];
        let mass = vec![1.0, 1.0];
        let res = solver.solve(&pos, &mass);
        let f = res.accel[0].x;
        let newton = 1.0 / (r * r);
        assert!(
            (f - newton).abs() < 0.05 * newton,
            "PM force {f} vs Newton {newton}"
        );
    }

    #[test]
    fn pm_plus_pp_completes_newton_inside_cutoff() {
        // r < r_cut: PM supplies (1−g)·Newton; adding g·Newton must give
        // ~the full force. Use a fat cutoff so the mesh resolves it well.
        let n = 32;
        let r_cut = 8.0 / n as f64; // 0.25
        let solver = PmSolver::new(PmParams {
            n_mesh: n,
            r_cut,
            deconvolve: true,
        });
        for frac in [0.4, 0.6, 0.8] {
            let r = frac * r_cut;
            let pos = vec![Vec3::new(0.3, 0.5, 0.5), Vec3::new(0.3 + r, 0.5, 0.5)];
            let mass = vec![1.0, 1.0];
            let res = solver.solve(&pos, &mass);
            let f_pm = res.accel[0].x;
            let f_pp = greem_math::g_p3m(2.0 * r / r_cut) / (r * r);
            let newton = 1.0 / (r * r);
            let total = f_pm + f_pp;
            assert!(
                (total - newton).abs() < 0.05 * newton,
                "r={r}: PM {f_pm} + PP {f_pp} = {total} vs {newton}"
            );
            // And the PM part alone matches its complement closely.
            let want_pm = g_long(2.0 * r / r_cut) / (r * r);
            assert!(
                (f_pm - want_pm).abs() < 0.1 * newton,
                "r={r}: PM {f_pm} vs complement {want_pm}"
            );
        }
    }

    #[test]
    fn potential_is_negative_near_mass() {
        let solver = PmSolver::new(PmParams::standard(32));
        let pos = vec![Vec3::splat(0.5), Vec3::new(0.5, 0.5, 0.7)];
        let mass = vec![1.0, 1e-9];
        let res = solver.solve(&pos, &mass);
        // Probe particle sits in the heavy particle's potential well.
        assert!(res.potential[1] < 0.0);
    }
}
