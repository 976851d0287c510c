//! The serial PM mesh kernels, shared by the periodic and the isolated
//! solver: TSC deposit, 4-point differencing and TSC gather.
//!
//! Every kernel takes the TSC cell count `n` (cell size `h = 1/n`) and
//! the side `np` of the mesh it indexes. Indices wrap modulo `np`: the
//! periodic torus has `np = n`, the isolated solver's zero-padded mesh
//! `np = 2n`.

use greem_math::Vec3;
use rayon::prelude::*;

use crate::tsc::{tsc_axis, tsc_weights};

/// Minimum x-planes per deposit slab. A particle's TSC stencil spans
/// its slab and at most the first planes of the next one, so with
/// slabs this wide, slabs two apart never write the same plane.
const SLAB_PLANES: usize = 2;

/// Raw mesh pointer shared across tasks that write disjoint cells.
struct SendPtr(*mut f64);
// SAFETY: the one field points into a mesh that outlives every task;
// each user writes only cells no concurrent task touches.
unsafe impl Send for SendPtr {}
// SAFETY: as for `Send`.
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor so closures capture the `Sync` wrapper, not the raw
    /// pointer field (edition-2021 closures capture disjoint fields).
    fn get(&self) -> *mut f64 {
        self.0
    }
}

/// The wrapped mesh indices and the weights of one particle's 3×3×3
/// TSC stencil, per axis.
#[inline]
fn stencil(p: &Vec3, n: usize, np: usize) -> ([[usize; 3]; 3], [[f64; 3]; 3]) {
    let (i0, w) = tsc_weights([p.x, p.y, p.z], n);
    let wrap = |i: i64| i.rem_euclid(np as i64) as usize;
    (i0.map(|i| [wrap(i), wrap(i + 1), wrap(i + 2)]), w)
}

/// Add one particle's TSC stencil, amplitude `amp`, to the mesh through
/// `add(cell, value)`.
#[inline]
fn scatter(p: &Vec3, amp: f64, n: usize, np: usize, mut add: impl FnMut(usize, f64)) {
    let ([ix, iy, iz], [wx, wy, wz]) = stencil(p, n, np);
    for (&cx, &wxa) in ix.iter().zip(&wx) {
        for (&cy, &wyb) in iy.iter().zip(&wy) {
            let wxy = wxa * wyb * amp;
            let row = (cx * np + cy) * np;
            for (&cz, &wzc) in iz.iter().zip(&wz) {
                add(row + cz, wxy * wzc);
            }
        }
    }
}

/// TSC mass-density deposit `ρ[c] = Σ_p m_p·W(c − x_p) / h³`.
///
/// `coloured`: a slab-coloured parallel scatter. Particles are
/// counting-sorted (stably) by the x-slab of their leftmost stencil
/// plane; the slab count is `np / SLAB_PLANES` — even — or 1, so the even
/// slabs scatter in parallel, then the odd ones, each writing only its
/// own planes and the first ones of the next slab, which has the other
/// colour. No scratch meshes, no reduction. Each slab walks its
/// particles in input order, so every cell's summation order is fixed
/// by the positions alone: bitwise-reproducible at any thread count,
/// and equal to the serial scatter up to reassociation.
///
/// Not `coloured`, or a mesh too small for two slabs: the serial
/// scatter in input order.
pub(crate) fn deposit(n: usize, np: usize, pos: &[Vec3], mass: &[f64], coloured: bool) -> Vec<f64> {
    assert_eq!(pos.len(), mass.len());
    let vol_inv = (n * n * n) as f64; // 1/h³
    let mut rho = vec![0.0; np * np * np];
    let slabs = if coloured && np >= 2 * SLAB_PLANES {
        np / SLAB_PLANES
    } else {
        1
    };
    if slabs == 1 {
        for (p, &m) in pos.iter().zip(mass) {
            scatter(p, m * vol_inv, n, np, |c, v| rho[c] += v);
        }
        return rho;
    }
    // The colouring below is race-free only for an even slab count: with
    // an odd one the last slab wraps into slab 0, of the same colour.
    assert!(
        np.is_multiple_of(2 * SLAB_PLANES),
        "deposit mesh side {np} gives an odd slab count"
    );
    let width = np / slabs;
    let slab: Vec<usize> = pos
        .iter()
        .map(|p| tsc_axis(p.x, n).0.rem_euclid(np as i64) as usize / width)
        .collect();
    let mut start = vec![0usize; slabs + 1];
    for &s in &slab {
        start[s + 1] += 1;
    }
    for s in 0..slabs {
        start[s + 1] += start[s];
    }
    let mut next = start.clone();
    let mut order = vec![0u32; pos.len()];
    for (i, &s) in slab.iter().enumerate() {
        order[next[s]] = i as u32;
        next[s] += 1;
    }

    let out = SendPtr(rho.as_mut_ptr());
    for colour in 0..2 {
        (0..slabs / 2).into_par_iter().for_each(|k| {
            let s = 2 * k + colour;
            for &i in &order[start[s]..start[s + 1]] {
                let i = i as usize;
                scatter(&pos[i], mass[i] * vol_inv, n, np, |c, v| {
                    // SAFETY: slab s writes planes [s·width,
                    // (s+1)·width + 1] (mod np); slabs of one colour are
                    // two apart, width ≥ 2 and the slab count is even, so
                    // no two tasks of a colour share a cell.
                    unsafe { *out.get().add(c) += v };
                });
            }
        });
    }
    rho
}

/// The 4-point difference `−∂φ ≈ −(−φ₊₂ + 8φ₊₁ − 8φ₋₁ + φ₋₂)/(12h)` at
/// every cell of `out`; `nb(d)` is the slice starting at the neighbour
/// `d` cells away along the differenced axis.
#[inline]
fn d4<'a>(out: &mut [f64], nb: impl Fn(isize) -> &'a [f64], inv12h: f64) {
    let len = out.len();
    let (p2, p1, m1, m2) = (&nb(2)[..len], &nb(1)[..len], &nb(-1)[..len], &nb(-2)[..len]);
    for (i, o) in out.iter_mut().enumerate() {
        let d = -p2[i] + 8.0 * p1[i] - 8.0 * m1[i] + m2[i];
        *o = -d * inv12h;
    }
}

/// 4-point finite-difference accelerations `a = −∇φ` on a periodic
/// `np`-mesh, `inv12h = 1/(12h)`. One task per x-plane writes that
/// plane of all three outputs: x from whole neighbouring planes, y from
/// whole rows, z from shifted row slices. Only plane and row indices
/// wrap, plus the four edge cells of each z-row; every cell gets the
/// per-cell stencil's arithmetic, so results are bitwise-identical to it.
pub(crate) fn differentiate(phi: &[f64], np: usize, inv12h: f64) -> [Vec<f64>; 3] {
    let n = np;
    let n2 = n * n;
    assert_eq!(phi.len(), n2 * n);
    let wrap = |i: usize, d: isize| (i as isize + d).rem_euclid(n as isize) as usize;
    let plane = |x: usize| &phi[x * n2..(x + 1) * n2];
    let mut out = [vec![0.0; n2 * n], vec![0.0; n2 * n], vec![0.0; n2 * n]];
    let [ox, oy, oz] = &mut out;
    let (oy, oz) = (SendPtr(oy.as_mut_ptr()), SendPtr(oz.as_mut_ptr()));
    ox.par_chunks_mut(n2).enumerate().for_each(|(x, gx)| {
        // SAFETY: plane x of each output is written by this task alone.
        let (gy, gz) = unsafe {
            (
                std::slice::from_raw_parts_mut(oy.get().add(x * n2), n2),
                std::slice::from_raw_parts_mut(oz.get().add(x * n2), n2),
            )
        };
        d4(gx, |d| plane(wrap(x, d)), inv12h);
        let row = |y: usize| &plane(x)[y * n..(y + 1) * n];
        for (y, (gy, gz)) in gy
            .chunks_exact_mut(n)
            .zip(gz.chunks_exact_mut(n))
            .enumerate()
        {
            d4(gy, |d| row(wrap(y, d)), inv12h);
            let r = row(y);
            if n >= 4 {
                d4(&mut gz[2..n - 2], |d| &r[(2 + d) as usize..], inv12h);
            }
            for z in [0, 1, n - 2, n - 1] {
                d4(&mut gz[z..z + 1], |d| &r[wrap(z, d)..], inv12h);
            }
        }
    });
    out
}

/// TSC interpolation of `F` mesh fields to the positions, parallel over
/// particles. The stencil is computed once per particle and each field
/// keeps its own accumulator in the same gather order, so every value is
/// bitwise-identical to a one-field call.
pub(crate) fn gather<const F: usize>(
    n: usize,
    np: usize,
    fields: [&[f64]; F],
    pos: &[Vec3],
) -> Vec<[f64; F]> {
    pos.par_iter()
        .map(|p| {
            let ([ix, iy, iz], [wx, wy, wz]) = stencil(p, n, np);
            let mut v = [0.0; F];
            for (&cx, &wxa) in ix.iter().zip(&wx) {
                for (&cy, &wyb) in iy.iter().zip(&wy) {
                    let row = (cx * np + cy) * np;
                    let wxy = wxa * wyb;
                    for (&cz, &wzc) in iz.iter().zip(&wz) {
                        let w = wxy * wzc;
                        for (v, field) in v.iter_mut().zip(fields) {
                            *v += w * field[row + cz];
                        }
                    }
                }
            }
            v
        })
        .collect()
}

/// The fused gather of the three acceleration meshes and the potential.
pub(crate) fn gather_forces(
    n: usize,
    np: usize,
    acc: &[Vec<f64>; 3],
    phi: &[f64],
    pos: &[Vec3],
) -> (Vec<Vec3>, Vec<f64>) {
    gather(n, np, [&acc[0], &acc[1], &acc[2], phi], pos)
        .into_iter()
        .map(|[x, y, z, p]| (Vec3::new(x, y, z), p))
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use greem_math::testutil::rand_positions;

    fn masses(len: usize) -> Vec<f64> {
        (0..len).map(|i| 0.5 + (i % 7) as f64 * 0.1).collect()
    }

    fn assert_close(got: &[f64], want: &[f64], what: &str) {
        let scale = want.iter().map(|v| v.abs()).fold(1e-300, f64::max);
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-12 * scale,
                "{what}: cell {i}: {g} vs {w}"
            );
        }
    }

    #[test]
    fn coloured_deposit_matches_serial_scatter() {
        for n in [4, 8, 16, 32] {
            let mut pos = rand_positions(3000, n as u64);
            // One ulp below 1.0 on every axis: the stencil wraps to the
            // first planes, which belong to the other colour.
            let below_one = 1.0f64.next_down();
            pos.push(Vec3::splat(below_one));
            pos.push(Vec3::new(below_one, 0.0, 0.5));
            let mass = masses(pos.len());
            for np in [n, 2 * n] {
                let what = format!("n={n}, np={np}");
                let got = deposit(n, np, &pos, &mass, true);
                assert_close(&got, &deposit(n, np, &pos, &mass, false), &what);
                let again = deposit(n, np, &pos, &mass, true);
                assert!(
                    got.iter()
                        .zip(&again)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{what}: deposit is not reproducible"
                );
            }
        }
    }

    #[test]
    fn deposit_with_every_particle_in_one_slab() {
        for n in [4, 8, 16, 32] {
            // Leftmost stencil plane 2 for every particle: x within
            // half a cell of grid point 3.
            let pos: Vec<Vec3> = rand_positions(2000, 7 + n as u64)
                .into_iter()
                .map(|p| Vec3::new((2.6 + 0.8 * p.x) / n as f64, p.y, p.z))
                .collect();
            let mass = masses(pos.len());
            let got = deposit(n, n, &pos, &mass, true);
            assert_close(&got, &deposit(n, n, &pos, &mass, false), &format!("n={n}"));
        }
    }

    /// The per-cell stencil with `rem_euclid` on every read.
    fn naive_differences(phi: &[f64], n: usize, inv12h: f64) -> [Vec<f64>; 3] {
        let wrap = |i: usize, d: i64| ((i as i64 + d).rem_euclid(n as i64)) as usize;
        std::array::from_fn(|axis| {
            (0..n * n * n)
                .map(|c| {
                    let at = |d: i64| {
                        let mut xyz = [c / (n * n), c / n % n, c % n];
                        xyz[axis] = wrap(xyz[axis], d);
                        phi[(xyz[0] * n + xyz[1]) * n + xyz[2]]
                    };
                    let d = -at(2) + 8.0 * at(1) - 8.0 * at(-1) + at(-2);
                    -d * inv12h
                })
                .collect()
        })
    }

    #[test]
    fn differencing_matches_naive_stencil_bitwise() {
        // A periodic n-mesh and an isolated solver's padded 2n-mesh
        // (whose spacing is still 1/n).
        for (n, np) in [(4, 4), (8, 8), (16, 16), (4, 8), (8, 16), (16, 32)] {
            let phi: Vec<f64> = rand_positions(np * np * np / 3 + 1, np as u64)
                .iter()
                .flat_map(|p| [p.x - 0.5, p.y, -p.z])
                .take(np * np * np)
                .collect();
            let inv12h = n as f64 / 12.0;
            let got = differentiate(&phi, np, inv12h);
            let want = naive_differences(&phi, np, inv12h);
            for a in 0..3 {
                for (i, (g, w)) in got[a].iter().zip(&want[a]).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "np={np} axis {a} cell {i}");
                }
            }
        }
    }
}
