//! Minimal complex FFT (iterative radix-2 Cooley–Tukey) and its 3D
//! extension.
//!
//! Used by the Gaussian-random-field generator and the Zel'dovich
//! displacement solver. Power-of-two sizes only — the synthetic initial
//! conditions are always generated on 2^k lattices, so a general-radix FFT
//! would be dead weight.

use std::ops::{Add, AddAssign, Mul, Sub};

/// A complex number (kept local: the workspace has no complex-math
/// dependency and the FFT needs only ring operations).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct C64 {
    pub re: f64,
    pub im: f64,
}

impl C64 {
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };

    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    #[inline]
    pub fn real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// `e^{iθ}`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        C64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    #[inline]
    pub fn scale(self, s: f64) -> Self {
        C64 {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, o: C64) -> C64 {
        C64::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, o: C64) -> C64 {
        C64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, o: C64) {
        *self = *self + o;
    }
}

/// In-place FFT of a power-of-two-length buffer. `inverse` applies the
/// conjugate transform *and* the 1/n normalization, so
/// `fft(x); fft⁻¹(x)` is the identity.
pub fn fft(data: &mut [C64], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length {n} not a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let wlen = C64::cis(ang);
        for chunk in data.chunks_mut(len) {
            let mut w = C64::real(1.0);
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half] * w;
                chunk[k] = u + v;
                chunk[k + half] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
    if inverse {
        let s = 1.0 / n as f64;
        for v in data.iter_mut() {
            *v = v.scale(s);
        }
    }
}

/// A complex field on an `n × n × n` grid, `data[(k*n + j)*n + i]`, with
/// in-place 3D FFT.
pub struct Grid3c {
    pub n: usize,
    pub data: Vec<C64>,
}

impl Grid3c {
    pub fn zeros(n: usize) -> Self {
        assert!(n.is_power_of_two(), "grid size {n} not a power of two");
        Grid3c {
            n,
            data: vec![C64::ZERO; n * n * n],
        }
    }

    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (k * self.n + j) * self.n + i
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> C64 {
        self.data[self.idx(i, j, k)]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: C64) {
        let ix = self.idx(i, j, k);
        self.data[ix] = v;
    }

    /// 3D FFT: 1D transforms along x, then y, then z.
    #[allow(clippy::needless_range_loop)] // strided gathers read clearest indexed
    pub fn fft3(&mut self, inverse: bool) {
        let n = self.n;
        let mut line = vec![C64::ZERO; n];
        // x lines are contiguous.
        for chunk in self.data.chunks_mut(n) {
            fft(chunk, inverse);
        }
        // y lines: stride n.
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    line[j] = self.data[(k * n + j) * n + i];
                }
                fft(&mut line, inverse);
                for j in 0..n {
                    self.data[(k * n + j) * n + i] = line[j];
                }
            }
        }
        // z lines: stride n².
        for j in 0..n {
            for i in 0..n {
                for k in 0..n {
                    line[k] = self.data[(k * n + j) * n + i];
                }
                fft(&mut line, inverse);
                for k in 0..n {
                    self.data[(k * n + j) * n + i] = line[k];
                }
            }
        }
    }

    /// Signed integer frequency of index `i` (`0..n` → `-n/2..n/2`).
    #[inline]
    pub fn freq(n: usize, i: usize) -> i64 {
        if i <= n / 2 {
            i as i64
        } else {
            i as i64 - n as i64
        }
    }

    /// The wave vector `(kx, ky, kz)` in units of `2π / box` for grid index
    /// `(i, j, k)`.
    #[inline]
    pub fn wavevec(&self, i: usize, j: usize, k: usize) -> (f64, f64, f64) {
        (
            Self::freq(self.n, i) as f64,
            Self::freq(self.n, j) as f64,
            Self::freq(self.n, k) as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng_vec(n: usize, seed: u64) -> Vec<C64> {
        let mut s = seed;
        let mut r = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n).map(|_| C64::new(r(), r())).collect()
    }

    #[test]
    fn roundtrip_identity() {
        let orig = rng_vec(64, 5);
        let mut data = orig.clone();
        fft(&mut data, false);
        fft(&mut data, true);
        for (a, b) in orig.iter().zip(&data) {
            assert!((a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12);
        }
    }

    #[test]
    fn delta_transforms_to_flat() {
        let mut data = vec![C64::ZERO; 16];
        data[0] = C64::real(1.0);
        fft(&mut data, false);
        for v in &data {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn single_mode_frequency() {
        // x[j] = e^{2πi·3j/n} transforms to n·δ(k-3) under the forward
        // convention with negative exponent... verify a pure mode lands in
        // exactly one bin.
        let n = 32;
        let mut data: Vec<C64> = (0..n)
            .map(|j| C64::cis(std::f64::consts::TAU * 3.0 * j as f64 / n as f64))
            .collect();
        fft(&mut data, false);
        for (k, v) in data.iter().enumerate() {
            let mag = v.norm_sq().sqrt();
            if k == 3 {
                assert!((mag - n as f64).abs() < 1e-9, "bin {k}: {mag}");
            } else {
                assert!(mag < 1e-9, "leak in bin {k}: {mag}");
            }
        }
    }

    #[test]
    fn parseval() {
        let orig = rng_vec(128, 11);
        let mut data = orig.clone();
        fft(&mut data, false);
        let t: f64 = orig.iter().map(|v| v.norm_sq()).sum();
        let f: f64 = data.iter().map(|v| v.norm_sq()).sum::<f64>() / data.len() as f64;
        assert!((t - f).abs() < 1e-9 * t.max(1.0));
    }

    #[test]
    fn linearity() {
        let a = rng_vec(32, 1);
        let b = rng_vec(32, 2);
        let mut fa = a.clone();
        let mut fb = b.clone();
        fft(&mut fa, false);
        fft(&mut fb, false);
        let mut sum: Vec<C64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        fft(&mut sum, false);
        for i in 0..32 {
            let expect = fa[i] + fb[i];
            assert!((sum[i].re - expect.re).abs() < 1e-10);
            assert!((sum[i].im - expect.im).abs() < 1e-10);
        }
    }

    #[test]
    fn fft3_roundtrip() {
        let n = 8;
        let mut g = Grid3c::zeros(n);
        let vals = rng_vec(n * n * n, 77);
        g.data.copy_from_slice(&vals);
        g.fft3(false);
        g.fft3(true);
        for (a, b) in vals.iter().zip(&g.data) {
            assert!((a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12);
        }
    }

    #[test]
    fn fft3_separable_mode() {
        // A plane wave along z only should land at (0, 0, 2).
        let n = 8;
        let mut g = Grid3c::zeros(n);
        for k in 0..n {
            let phase = C64::cis(std::f64::consts::TAU * 2.0 * k as f64 / n as f64);
            for j in 0..n {
                for i in 0..n {
                    g.set(i, j, k, phase);
                }
            }
        }
        g.fft3(false);
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let mag = g.at(i, j, k).norm_sq().sqrt();
                    if (i, j, k) == (0, 0, 2) {
                        assert!((mag - (n * n * n) as f64).abs() < 1e-6);
                    } else {
                        assert!(mag < 1e-6, "leak at ({i},{j},{k}): {mag}");
                    }
                }
            }
        }
    }

    #[test]
    fn freq_mapping() {
        assert_eq!(Grid3c::freq(8, 0), 0);
        assert_eq!(Grid3c::freq(8, 3), 3);
        assert_eq!(Grid3c::freq(8, 4), 4); // Nyquist kept positive
        assert_eq!(Grid3c::freq(8, 5), -3);
        assert_eq!(Grid3c::freq(8, 7), -1);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn rejects_non_power_of_two() {
        let mut data = vec![C64::ZERO; 12];
        fft(&mut data, false);
    }
}
