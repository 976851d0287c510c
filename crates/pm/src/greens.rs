//! The k-space Green's function of the long-range (PM) force.
//!
//! The PM part of the TreePM split solves, in Fourier space,
//!
//! ```text
//! φ̃(k) = −4πG/k² · S̃2(k·a)² · ρ̃(k) / W_TSC(k)²          a = r_cut/2
//! ```
//!
//! * `−4πG/k²` is the periodic Poisson kernel,
//! * `S̃2²` restricts the mesh to the long-range complement of the eq.-(3)
//!   cutoff (the interaction of two S2 clouds — see
//!   [`greem_math::cutoff`]),
//! * `1/W_TSC²` deconvolves the TSC assignment window once for the mass
//!   assignment and once for the force interpolation (standard PM
//!   practice; Hockney & Eastwood 1981).
//!
//! The k = 0 mode is zeroed — the uniform background does not
//! gravitate in comoving coordinates (the "Jeans swindle" built into
//! periodic cosmological simulators).

use greem_math::cutoff::s2_fourier;
use rayon::prelude::*;

/// Precomputed per-axis tables of the Green's function factors for an
/// `n`-mesh, evaluated lazily per mode via [`GreensFn::eval`].
#[derive(Debug, Clone)]
pub struct GreensFn {
    n: usize,
    /// S2 radius `a = r_cut / 2` in box units.
    a: f64,
    /// `4πG` prefactor (G = 1 in simulation units).
    four_pi_g: f64,
    /// Per-axis signed wavenumbers `2π·m`, index 0..n.
    k_axis: Vec<f64>,
    /// Per-axis TSC window `sinc³(π·m/n)`, index 0..n.
    w_tsc: Vec<f64>,
    deconvolve: bool,
}

impl GreensFn {
    /// Build the per-axis tables for a mesh of side `n` and cutoff
    /// `r_cut` (box units). `deconvolve` divides out the squared TSC
    /// window (on by default in the solvers).
    pub fn new(n: usize, r_cut: f64, deconvolve: bool) -> Self {
        assert!(n >= 2 && r_cut > 0.0);
        let two_pi = 2.0 * std::f64::consts::PI;
        let k_axis = (0..n).map(|i| two_pi * signed_mode(i, n)).collect();
        GreensFn {
            n,
            a: 0.5 * r_cut,
            four_pi_g: 4.0 * std::f64::consts::PI * greem_math::G_SIM,
            k_axis,
            w_tsc: tsc_window(n),
            deconvolve,
        }
    }

    /// Mesh side.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The multiplier that turns `ρ̃(k)` into `φ̃(k)` at integer mode
    /// `(ix, iy, iz)` (raw mesh indices). Returns 0 for the DC mode.
    #[inline]
    pub fn eval(&self, ix: usize, iy: usize, iz: usize) -> f64 {
        if ix == 0 && iy == 0 && iz == 0 {
            return 0.0;
        }
        let kx = self.k_axis[ix];
        let ky = self.k_axis[iy];
        let kz = self.k_axis[iz];
        let k2 = kx * kx + ky * ky + kz * kz;
        let w = s2_fourier((k2.sqrt()) * self.a);
        let mut g = -self.four_pi_g * w * w / k2;
        if self.deconvolve {
            let wt = self.w_tsc[ix] * self.w_tsc[iy] * self.w_tsc[iz];
            // The TSC window only vanishes at the (excluded) DC mode and
            // is ≥ (2/π)⁹ elsewhere; the division is safe.
            g /= wt * wt;
        }
        g
    }
}

/// Signed wavenumber index of raw mode `i` on an `n`-mesh: `i` up to the
/// Nyquist mode `n/2`, `i − n` above it.
fn signed_mode(i: usize, n: usize) -> f64 {
    if i <= n / 2 {
        i as f64
    } else {
        i as f64 - n as f64
    }
}

/// Per-axis TSC window `sinc³(π·m/n)` of every raw mode of an `n`-mesh.
pub(crate) fn tsc_window(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = std::f64::consts::PI * signed_mode(i, n) / n as f64;
            let s = if x.abs() < 1e-12 { 1.0 } else { x.sin() / x };
            s * s * s
        })
        .collect()
}

/// [`GreensFn`] tabulated once over the folded octant of modes:
/// `(n/2+1)³` values (2.2 MB at n = 128). The multiplier depends on each
/// axis only through `|m|` and `sinc` — both even in `m` — so mode `i`
/// reads the entry of `min(i, n−i)` and equals [`GreensFn::eval`]
/// bitwise.
#[derive(Debug, Clone)]
pub(crate) struct GreensTable {
    n: usize,
    /// Octant side, `n/2 + 1`.
    side: usize,
    vals: Vec<f64>,
}

impl GreensTable {
    /// Evaluate `g` at every folded mode, in parallel.
    pub fn new(g: &GreensFn) -> Self {
        let side = g.n() / 2 + 1;
        let vals = (0..side * side * side)
            .into_par_iter()
            .map(|i| g.eval(i / (side * side), i / side % side, i % side))
            .collect();
        GreensTable {
            n: g.n(),
            side,
            vals,
        }
    }

    /// The multiplier at raw mesh mode `(ix, iy, iz)`.
    #[inline]
    pub fn get(&self, ix: usize, iy: usize, iz: usize) -> f64 {
        let fold = |i: usize| i.min(self.n - i);
        self.vals[(fold(ix) * self.side + fold(iy)) * self.side + fold(iz)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_table_equals_eval_bitwise() {
        // Also pins the multiplier's exact symmetry under k → −k per axis.
        for n in [4, 8, 16, 32] {
            for deconvolve in [false, true] {
                let g = GreensFn::new(n, 3.0 / n as f64, deconvolve);
                let t = GreensTable::new(&g);
                for c in 0..n * n * n {
                    let (x, y, z) = (c / (n * n), c / n % n, c % n);
                    let (got, want) = (t.get(x, y, z), g.eval(x, y, z));
                    assert_eq!(got.to_bits(), want.to_bits(), "n={n} mode ({x},{y},{z})");
                }
            }
        }
    }

    #[test]
    fn dc_mode_is_zero() {
        let g = GreensFn::new(16, 0.2, true);
        assert_eq!(g.eval(0, 0, 0), 0.0);
    }

    #[test]
    fn long_wavelengths_approach_poisson() {
        // At k·a ≪ 1 and k ≪ k_Nyquist, the S2 filter and TSC window are
        // ≈ 1, so the multiplier approaches −4πG/k².
        let n = 256;
        let g = GreensFn::new(n, 4.0 / n as f64, true);
        let k = 2.0 * std::f64::consts::PI; // mode (1,0,0)
        let got = g.eval(1, 0, 0);
        let want = -4.0 * std::f64::consts::PI / (k * k);
        assert!(
            (got - want).abs() < 2e-3 * want.abs(),
            "got {got}, want {want}"
        );
    }

    #[test]
    fn short_wavelengths_are_suppressed() {
        // Near the cutoff scale the S2² filter kills the mesh force:
        // compare mode amplitudes with the bare Poisson kernel.
        let n = 64;
        let r_cut = 3.0 / n as f64 * 4.0; // exaggerate for a mid-k test
        let g = GreensFn::new(n, r_cut, false);
        let hi = n / 2 - 1;
        let k_hi = 2.0 * std::f64::consts::PI * hi as f64;
        let bare = 4.0 * std::f64::consts::PI / (k_hi * k_hi);
        let got = g.eval(hi, 0, 0).abs();
        assert!(got < 0.05 * bare, "high-k not suppressed: {got} vs {bare}");
    }

    #[test]
    fn symmetric_under_k_negation() {
        let g = GreensFn::new(32, 0.1, true);
        for (i, j, k) in [(1, 2, 3), (5, 0, 7), (15, 15, 1)] {
            let a = g.eval(i, j, k);
            let b = g.eval((32 - i) % 32, (32 - j) % 32, (32 - k) % 32);
            assert!((a - b).abs() < 1e-15 * a.abs().max(1e-30));
        }
    }

    #[test]
    fn deconvolution_boosts_high_k() {
        let n = 32;
        let plain = GreensFn::new(n, 0.1, false);
        let deconv = GreensFn::new(n, 0.1, true);
        let (i, j, k) = (13, 9, 5);
        assert!(deconv.eval(i, j, k).abs() > plain.eval(i, j, k).abs());
        // And identical in the k→0 limit.
        let r = deconv.eval(1, 0, 0) / plain.eval(1, 0, 0);
        assert!((r - 1.0).abs() < 1e-2);
    }
}
