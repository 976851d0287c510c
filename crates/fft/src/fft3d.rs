//! Serial 3-D transforms on a cubic complex mesh.
//!
//! [`Mesh3`] is the n³ complex grid used by the single-rank PM path and
//! by the tests that validate the parallel slab transform. Layout is
//! row-major `(x, y, z)` with `z` contiguous — the same layout the slab
//! solver uses within each x-plane, so data moves between the two without
//! reshuffling.

use crate::complex::Cpx;
use crate::fft1d::Fft1d;
use rayon::prelude::*;

/// Raw mesh pointer shared across threads; users index disjoint
/// elements only (each block of yz columns of the x-pass is touched by
/// exactly one task).
struct SendPtr(*mut Cpx);
// SAFETY: the one field points into a mesh borrowed mutably for the
// whole pass; tasks write disjoint elements through it.
unsafe impl Send for SendPtr {}
// SAFETY: as for `Send`.
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor so closures capture the `Sync` wrapper, not the raw
    /// pointer field (edition-2021 closures capture disjoint fields).
    fn get(&self) -> *mut Cpx {
        self.0
    }
}

/// An `n × n × n` complex mesh, `z` fastest.
#[derive(Debug, Clone)]
pub struct Mesh3 {
    n: usize,
    data: Vec<Cpx>,
}

impl Mesh3 {
    /// A zero-filled mesh of side `n` (power of two).
    pub fn zeros(n: usize) -> Self {
        assert!(n.is_power_of_two(), "mesh side must be a power of two");
        Mesh3 {
            n,
            data: vec![Cpx::ZERO; n * n * n],
        }
    }

    /// Build from real values in `(x,y,z)` row-major order, one x-plane
    /// per rayon task (no zero-fill pass: every element is written once).
    pub fn from_real(n: usize, vals: &[f64]) -> Self {
        assert!(n.is_power_of_two(), "mesh side must be a power of two");
        assert_eq!(vals.len(), n * n * n);
        let mut data = Vec::with_capacity(n * n * n);
        data.spare_capacity_mut()[..n * n * n]
            .par_chunks_mut(n * n)
            .enumerate()
            .for_each(|(x, plane)| {
                for (d, &v) in plane.iter_mut().zip(&vals[x * n * n..]) {
                    d.write(Cpx::real(v));
                }
            });
        // SAFETY: the planes above initialised all n³ elements.
        unsafe { data.set_len(n * n * n) };
        Mesh3 { n, data }
    }

    /// Mesh side length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Flat index of `(x, y, z)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (x * self.n + y) * self.n + z
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> Cpx {
        self.data[self.idx(x, y, z)]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, x: usize, y: usize, z: usize) -> &mut Cpx {
        let i = self.idx(x, y, z);
        &mut self.data[i]
    }

    /// The flat data slice.
    pub fn data(&self) -> &[Cpx] {
        &self.data
    }

    /// The flat data slice, mutable.
    pub fn data_mut(&mut self) -> &mut [Cpx] {
        &mut self.data
    }

    /// Real parts, row-major (used after an inverse transform of data
    /// that is real by construction).
    pub fn to_real(&self) -> Vec<f64> {
        self.data.par_iter().map(|c| c.re).collect()
    }

    /// Apply `f(kx, ky, kz, value)` to every mode in place; the indices
    /// are raw mesh indices (callers map them to signed wavenumbers).
    pub fn map_modes(&mut self, mut f: impl FnMut(usize, usize, usize, Cpx) -> Cpx) {
        let n = self.n;
        for x in 0..n {
            for y in 0..n {
                let row = (x * n + y) * n;
                for z in 0..n {
                    self.data[row + z] = f(x, y, z, self.data[row + z]);
                }
            }
        }
    }

    /// Parallel [`map_modes`](Self::map_modes) for pure per-mode maps
    /// (`Fn`, no cross-mode state): x-planes are processed as rayon
    /// tasks. Bitwise-identical to the serial version — each mode sees
    /// exactly the same single application of `f`.
    pub fn par_map_modes(&mut self, f: impl Fn(usize, usize, usize, Cpx) -> Cpx + Sync) {
        let n = self.n;
        self.data
            .par_chunks_mut(n * n)
            .enumerate()
            .for_each(|(x, plane)| {
                for y in 0..n {
                    let row = y * n;
                    for z in 0..n {
                        plane[row + z] = f(x, y, z, plane[row + z]);
                    }
                }
            });
    }
}

/// In-place forward 3-D FFT (unnormalised, `exp(−2πi)` convention):
/// 1-D transforms along `z`, then `y`, then `x`.
pub fn fft3d(mesh: &mut Mesh3, plan: &Fft1d) {
    transform3d(mesh, plan, false);
}

/// In-place inverse 3-D FFT including the `1/n³` normalisation, so
/// `fft3d_inverse(fft3d(m)) == m`. The scaling is applied to each
/// x-line as the last pass writes it back, so it costs no extra sweep.
pub fn fft3d_inverse(mesh: &mut Mesh3, plan: &Fft1d) {
    transform3d(mesh, plan, true);
}

/// Adjacent lines each pass task transforms together: every gathered
/// row of the strided y and x passes is 8 contiguous complex values
/// (two cache lines), and the butterflies vectorise across the 8 lanes.
const LANES: usize = 8;

/// The three axis passes, each a batch of independent 1-D line
/// transforms run as rayon tasks. Every line is transformed with exactly
/// the arithmetic of a lone `Fft1d` call, so the result is
/// bitwise-identical regardless of thread count or lane grouping —
/// parallelism only changes *which thread* runs a line, never the
/// arithmetic.
fn transform3d(mesh: &mut Mesh3, plan: &Fft1d, inverse: bool) {
    assert_eq!(plan.len(), mesh.n, "plan size must match mesh side");
    if mesh.n >= LANES {
        axis_passes::<LANES>(mesh, plan, inverse);
    } else {
        axis_passes::<1>(mesh, plan, inverse);
    }
}

/// The z, y and x passes, each over blocks of `W` adjacent lines.
fn axis_passes<const W: usize>(mesh: &mut Mesh3, plan: &Fft1d, inverse: bool) {
    let n = mesh.n;
    let n2 = n * n;
    let run = |rows: &mut [[Cpx; W]]| {
        if inverse {
            plan.inverse_lanes(rows)
        } else {
            plan.forward_lanes(rows)
        }
    };
    // Along z: W contiguous rows per block, transposed into lanes.
    mesh.data.par_chunks_mut(W * n).for_each_init(
        || vec![[Cpx::ZERO; W]; n],
        |rows, block| {
            // SAFETY: the block's W rows, owned through `block`.
            unsafe { block_lines(block.as_mut_ptr(), 1, n, rows, &run, None) };
        },
    );
    // Along y: stride n within each x-plane; one task per plane.
    mesh.data.par_chunks_mut(n2).for_each_init(
        || vec![[Cpx::ZERO; W]; n],
        |rows, plane| {
            for z0 in (0..n).step_by(W) {
                // SAFETY: columns z0..z0+W of this plane, which the task
                // owns through `plane`.
                unsafe { block_lines(plane.as_mut_ptr().add(z0), n, 1, rows, &run, None) };
            }
        },
    );
    // Along x: stride n² — the lines cross every chunk boundary, so
    // chunking cannot express the partition; each block of adjacent yz
    // columns is claimed by exactly one task and accessed through a
    // shared raw pointer. The inverse's 1/n³ is applied here.
    let scale = inverse.then(|| 1.0 / (n as f64).powi(3));
    let ptr = SendPtr(mesh.data.as_mut_ptr());
    (0..n2 / W).into_par_iter().for_each_init(
        || vec![[Cpx::ZERO; W]; n],
        |rows, b| {
            // SAFETY: this task is the only one touching columns
            // b·W..(b+1)·W; their elements at every x are disjoint
            // across tasks.
            unsafe { block_lines(ptr.get().add(b * W), n2, 1, rows, &run, scale) };
        },
    );
}

/// Transform the `W` lines that start at `first`: element `k` of line
/// `j` sits at `first + k·stride + j·lane_stride`. Gathers them row by
/// row into `rows`, runs `run`, optionally scales, and scatters them
/// back.
///
/// # Safety
///
/// Every addressed element must be valid and unaliased for the call.
#[inline(always)]
unsafe fn block_lines<const W: usize>(
    first: *mut Cpx,
    stride: usize,
    lane_stride: usize,
    rows: &mut [[Cpx; W]],
    run: &impl Fn(&mut [[Cpx; W]]),
    scale: Option<f64>,
) {
    for (k, row) in rows.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = *first.add(k * stride + j * lane_stride);
        }
    }
    run(rows);
    if let Some(s) = scale {
        for v in rows.iter_mut().flatten() {
            *v = v.scale(s);
        }
    }
    for (k, row) in rows.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            *first.add(k * stride + j * lane_stride) = *v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_mesh(n: usize, seed: u64) -> Mesh3 {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let vals: Vec<f64> = (0..n * n * n).map(|_| next()).collect();
        Mesh3::from_real(n, &vals)
    }

    #[test]
    fn roundtrip_is_identity() {
        let n = 16;
        let plan = Fft1d::new(n);
        let orig = rand_mesh(n, 11);
        let mut m = orig.clone();
        fft3d(&mut m, &plan);
        fft3d_inverse(&mut m, &plan);
        let err = m
            .data()
            .iter()
            .zip(orig.data())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-11, "roundtrip err {err}");
    }

    #[test]
    fn single_mode_transforms_to_delta() {
        // x real field cos(2π·kx·x/n) has power only at modes ±k.
        let n = 8;
        let k = 3usize;
        let mut m = Mesh3::zeros(n);
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    *m.get_mut(x, y, z) = Cpx::real(
                        (2.0 * std::f64::consts::PI * k as f64 * x as f64 / n as f64).cos(),
                    );
                }
            }
        }
        let plan = Fft1d::new(n);
        fft3d(&mut m, &plan);
        let amp = (n * n * n) as f64 / 2.0;
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let v = m.get(x, y, z);
                    let expected = if (x == k || x == n - k) && y == 0 && z == 0 {
                        amp
                    } else {
                        0.0
                    };
                    assert!(
                        (v.abs() - expected).abs() < 1e-9,
                        "mode ({x},{y},{z}) = {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn dc_mode_is_mean_times_volume() {
        let n = 8;
        let m0 = rand_mesh(n, 5);
        let mean: f64 = m0.data().iter().map(|c| c.re).sum::<f64>();
        let mut m = m0;
        fft3d(&mut m, &Fft1d::new(n));
        assert!((m.get(0, 0, 0).re - mean).abs() < 1e-9);
        assert!(m.get(0, 0, 0).im.abs() < 1e-9);
    }

    #[test]
    fn real_input_has_hermitian_spectrum() {
        let n = 8;
        let mut m = rand_mesh(n, 9);
        fft3d(&mut m, &Fft1d::new(n));
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let a = m.get(x, y, z);
                    let b = m.get((n - x) % n, (n - y) % n, (n - z) % n);
                    assert!(
                        (a - b.conj()).abs() < 1e-9,
                        "not Hermitian at ({x},{y},{z})"
                    );
                }
            }
        }
    }

    #[test]
    fn parseval_3d() {
        let n = 8;
        let m0 = rand_mesh(n, 13);
        let e_real: f64 = m0.data().iter().map(|c| c.norm2()).sum();
        let mut m = m0;
        fft3d(&mut m, &Fft1d::new(n));
        let e_freq: f64 = m.data().iter().map(|c| c.norm2()).sum::<f64>() / (n * n * n) as f64;
        assert!((e_real - e_freq).abs() < 1e-9 * e_real);
    }

    #[test]
    fn map_modes_visits_every_cell() {
        let n = 4;
        let mut m = Mesh3::zeros(n);
        let mut count = 0;
        m.map_modes(|_, _, _, v| {
            count += 1;
            v + Cpx::ONE
        });
        assert_eq!(count, n * n * n);
        assert!(m.data().iter().all(|c| (*c - Cpx::ONE).abs() < 1e-15));
    }
}
