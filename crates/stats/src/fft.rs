//! Discrete Fourier transform.
//!
//! The NIST spectral test needs the DFT of a ±1 sequence of *arbitrary*
//! length (1 000 000 is not a power of two). We implement an iterative
//! radix-2 Cooley–Tukey FFT and build Bluestein's chirp-z algorithm on
//! top of it for arbitrary lengths.

use std::f64::consts::PI;

/// A complex number (we avoid an external dependency for two fields).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{iθ}`.
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex multiplication.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, o: Complex) -> Self {
        Complex {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }

    /// Complex addition.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, o: Complex) -> Self {
        Complex {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }

    /// Complex subtraction.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, o: Complex) -> Self {
        Complex {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Modulus.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

/// In-place iterative radix-2 FFT (forward when `inverse` is false).
/// The inverse transform is unnormalized (divide by `n` yourself).
///
/// Each stage's twiddles come from the recurrence `w ← w·wlen` starting
/// at 1. A stage with several chunks fills a table with that recurrence
/// once and every chunk reads it, so each butterfly sees the same `w`
/// bits as when every chunk stepped the recurrence itself. The final
/// stage is one chunk and steps it inline, which caps the table at
/// `n / 4` entries.
///
/// # Panics
///
/// Panics when the length is not a power of two.
pub fn fft_pow2(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "fft_pow2 needs a power-of-two length");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut twiddles = Vec::with_capacity(n / 4);
    let mut len = 2;
    while len < n {
        let wlen = Complex::cis(sign * 2.0 * PI / len as f64);
        let half = len / 2;
        twiddles.clear();
        let mut w = Complex::new(1.0, 0.0);
        for _ in 0..half {
            twiddles.push(w);
            w = w.mul(wlen);
        }
        for chunk in data.chunks_mut(len) {
            let (lo, hi) = chunk.split_at_mut(half);
            for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(&twiddles) {
                butterfly(a, b, w);
            }
        }
        len <<= 1;
    }
    let wlen = Complex::cis(sign * 2.0 * PI / n as f64);
    let (lo, hi) = data.split_at_mut(n / 2);
    let mut w = Complex::new(1.0, 0.0);
    for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
        butterfly(a, b, w);
        w = w.mul(wlen);
    }
}

/// Radix-2 butterfly: `(a, b) ← (a + b·w, a − b·w)`.
#[inline]
fn butterfly(a: &mut Complex, b: &mut Complex, w: Complex) {
    let u = *a;
    let v = b.mul(w);
    *a = u.add(v);
    *b = u.sub(v);
}

/// Forward DFT of arbitrary length via Bluestein's algorithm (falls back
/// to the radix-2 FFT directly when the length is a power of two).
pub fn dft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    if n.is_power_of_two() {
        let mut data = input.to_vec();
        fft_pow2(&mut data, false);
        return data;
    }
    bluestein(n, |k| input[k], |c| c)
}

/// Moduli of the DFT of a real-valued sequence.
///
/// Bit-identical to `dft(..)` followed by [`Complex::abs`] per bin, but
/// on the Bluestein path it reads the real input and emits the moduli
/// directly, so neither a complex copy of the input nor the complex
/// spectrum is ever held.
pub fn dft_magnitudes(input: &[f64]) -> Vec<f64> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    if n.is_power_of_two() {
        let mut data: Vec<Complex> = input.iter().map(|&x| Complex::new(x, 0.0)).collect();
        fft_pow2(&mut data, false);
        return data.into_iter().map(Complex::abs).collect();
    }
    bluestein(n, |k| Complex::new(input[k], 0.0), Complex::abs)
}

/// Bluestein's chirp-z transform of the length-`n` sequence `input(k)`,
/// mapping each output bin through `emit`. `n` must not be a power of
/// two.
///
/// Only the two length-`m` work buffers are ever held at once: the
/// chirp is recomputed where it is needed instead of stored, and the
/// conjugate-chirp kernel is dropped before the inverse transform.
fn bluestein<T>(n: usize, input: impl Fn(usize) -> Complex, emit: impl Fn(Complex) -> T) -> Vec<T> {
    // Bluestein: x_k -> chirp premultiply, convolve with conjugate chirp.
    let m = (2 * n - 1).next_power_of_two();
    // Chirp: w_k = e^{-iπ k² / n}. Compute k² mod 2n to stay accurate for
    // large k.
    let chirp = |k: usize| {
        let kk = (k as u128 * k as u128) % (2 * n as u128);
        Complex::cis(-PI * kk as f64 / n as f64)
    };
    let mut a = vec![Complex::default(); m];
    {
        let mut b = vec![Complex::default(); m];
        for k in 0..n {
            let w = chirp(k);
            a[k] = input(k).mul(w);
            b[k] = w.conj();
            if k > 0 {
                b[m - k] = w.conj();
            }
        }
        fft_pow2(&mut a, false);
        fft_pow2(&mut b, false);
        for (x, &y) in a.iter_mut().zip(&b) {
            *x = x.mul(y);
        }
    }
    fft_pow2(&mut a, true);
    let scale = 1.0 / m as f64;
    (0..n)
        .map(|k| emit(Complex::new(a[k].re * scale, a[k].im * scale).mul(chirp(k))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::default();
                for (j, &x) in input.iter().enumerate() {
                    let w = Complex::cis(-2.0 * PI * (k * j) as f64 / n as f64);
                    acc = acc.add(x.mul(w));
                }
                acc
            })
            .collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "bin {i}: {x:?} vs {y:?}"
            );
        }
    }

    fn test_signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                Complex::new(
                    ((i * 37 + 11) % 17) as f64 / 17.0 - 0.5,
                    ((i * 53 + 3) % 13) as f64 / 13.0 - 0.5,
                )
            })
            .collect()
    }

    #[test]
    fn pow2_fft_matches_naive() {
        for n in [1usize, 2, 4, 8, 64] {
            let sig = test_signal(n);
            assert_close(&dft(&sig), &naive_dft(&sig), 1e-9);
        }
    }

    #[test]
    fn bluestein_matches_naive_for_awkward_lengths() {
        for n in [3usize, 5, 7, 12, 100, 129] {
            let sig = test_signal(n);
            assert_close(&dft(&sig), &naive_dft(&sig), 1e-8);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let n = 16;
        let sig = test_signal(n);
        let mut data = sig.clone();
        fft_pow2(&mut data, false);
        fft_pow2(&mut data, true);
        for (x, y) in data.iter().zip(&sig) {
            assert!((x.re / n as f64 - y.re).abs() < 1e-12);
            assert!((x.im / n as f64 - y.im).abs() < 1e-12);
        }
    }

    #[test]
    fn dc_component_is_sum() {
        let mags = dft_magnitudes(&[1.0, 1.0, 1.0, 1.0, 1.0]);
        assert!((mags[0] - 5.0).abs() < 1e-9);
        for &m in &mags[1..] {
            assert!(m < 1e-9);
        }
    }

    #[test]
    fn parseval_holds() {
        let sig = test_signal(100);
        let spec = dft(&sig);
        let time_energy: f64 = sig.iter().map(|c| c.abs() * c.abs()).sum();
        let freq_energy: f64 =
            spec.iter().map(|c| c.abs() * c.abs()).sum::<f64>() / sig.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    /// The transform before the twiddle table: every chunk of a stage
    /// steps its own `w ← w·wlen` recurrence from 1.
    fn recurrence_fft_pow2(data: &mut [Complex], inverse: bool) {
        let n = data.len();
        if n <= 1 {
            return;
        }
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                data.swap(i, j);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let wlen = Complex::cis(sign * 2.0 * PI / len as f64);
            for chunk in data.chunks_mut(len) {
                let mut w = Complex::new(1.0, 0.0);
                let half = len / 2;
                for i in 0..half {
                    let u = chunk[i];
                    let v = chunk[i + half].mul(w);
                    chunk[i] = u.add(v);
                    chunk[i + half] = u.sub(v);
                    w = w.mul(wlen);
                }
            }
            len <<= 1;
        }
    }

    #[test]
    fn twiddle_table_is_bit_identical_to_the_recurrence() {
        let bits = |v: &[Complex]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        for log in 0..=16 {
            let sig = test_signal(1 << log);
            for inverse in [false, true] {
                let mut got = sig.clone();
                fft_pow2(&mut got, inverse);
                let mut want = sig.clone();
                recurrence_fft_pow2(&mut want, inverse);
                assert!(
                    bits(&got) == bits(&want),
                    "n = 2^{log}, inverse {inverse}: table FFT differs"
                );
            }
        }
    }

    #[test]
    fn magnitudes_are_bit_identical_to_dft_moduli() {
        for n in [1000usize, 1024, 4097, 10_000, 100_003] {
            let real: Vec<f64> = (0..n)
                .map(|i| if (i * 7919 + 13) % 11 < 5 { 1.0 } else { -1.0 })
                .collect();
            let complex: Vec<Complex> = real.iter().map(|&x| Complex::new(x, 0.0)).collect();
            let want: Vec<u64> = dft(&complex).iter().map(|c| c.abs().to_bits()).collect();
            let got: Vec<u64> = dft_magnitudes(&real).iter().map(|m| m.to_bits()).collect();
            assert!(got == want, "length {n}: magnitudes differ from dft moduli");
        }
    }

    #[test]
    fn empty_input() {
        assert!(dft(&[]).is_empty());
    }
}
