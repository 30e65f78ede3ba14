//! Radix-2 decimation-in-time FFT with cached twiddle factors.
//!
//! Sized for this workspace: 64-point OFDM (de)modulation and up to a few
//! thousand points for Welch spectral estimation. Forward transform is
//! unnormalized (`X[k] = Σ x[n]·e^{-j2πkn/N}`); the inverse divides by `N`
//! so `inverse(forward(x)) == x`. Unitary variants scaling by `1/√N` are
//! provided for power-preserving OFDM processing.

use crate::complex::Complex;

/// FFT plan for a fixed power-of-two size.
///
/// Precomputes the bit-reversal permutation and twiddle factors once;
/// transforms then run allocation-free in place.
///
/// # Example
///
/// ```
/// use wlan_dsp::{Complex, fft::Fft};
/// let fft = Fft::new(8);
/// let mut x = vec![Complex::ONE; 8];
/// fft.forward(&mut x);
/// assert!((x[0].re - 8.0).abs() < 1e-12); // DC bin
/// assert!(x[1].abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    rev: Vec<u32>,
    /// Twiddles for the forward transform: `e^{-j2πk/N}`, k in 0..N/2.
    tw: Vec<Complex>,
    /// Specialized tables for the 64-point OFDM hot path.
    fast64: Option<Box<Tables64>>,
}

/// Per-stage twiddle layout for the specialized 64-point path: stages
/// `len = 2, 4, …, 64` flattened in order, `half = len/2` entries each
/// (63 total), with a pre-conjugated copy so the inverse transform pays
/// no per-butterfly branch. Every entry equals the corresponding
/// `tw[k·step]` of the generic path, so outputs compare equal.
#[derive(Debug, Clone)]
struct Tables64 {
    fwd: [Complex; 63],
    inv: [Complex; 63],
}

/// Bit-reversal permutation of 0..64 as its 28 transposition pairs
/// (`i < j`), saving the fixed-point scan of the generic path.
const BITREV64_SWAPS: [(u8, u8); 28] = [
    (1, 32),
    (2, 16),
    (3, 48),
    (4, 8),
    (5, 40),
    (6, 24),
    (7, 56),
    (9, 36),
    (10, 20),
    (11, 52),
    (13, 44),
    (14, 28),
    (15, 60),
    (17, 34),
    (19, 50),
    (21, 42),
    (22, 26),
    (23, 58),
    (25, 38),
    (27, 54),
    (29, 46),
    (31, 62),
    (35, 49),
    (37, 41),
    (39, 57),
    (43, 53),
    (47, 61),
    (55, 59),
];

impl Fft {
    /// Creates a plan for an `n`-point transform.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is zero.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n > 0,
            "FFT size must be a power of two, got {n}"
        );
        let rev = if n == 1 {
            vec![0]
        } else {
            let bits = n.trailing_zeros();
            (0..n as u32)
                .map(|i| i.reverse_bits() >> (32 - bits))
                .collect()
        };
        let tw: Vec<Complex> = (0..n / 2)
            .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let fast64 = (n == 64).then(|| {
            let mut fwd = [Complex::ZERO; 63];
            let mut inv = [Complex::ZERO; 63];
            let mut off = 0;
            let mut len = 2;
            while len <= 64 {
                let half = len / 2;
                let step = 64 / len;
                for k in 0..half {
                    fwd[off + k] = tw[k * step];
                    inv[off + k] = tw[k * step].conj();
                }
                off += half;
                len *= 2;
            }
            Box::new(Tables64 { fwd, inv })
        });
        Fft { n, rev, tw, fast64 }
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: a plan covers at least one point ([`Fft::new`]
    /// rejects zero sizes). Present only to satisfy the `len`/`is_empty`
    /// API convention clippy expects alongside [`Fft::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    fn dit(&self, x: &mut [Complex], inverse: bool) {
        if let Some(t) = &self.fast64 {
            let tw = if inverse { &t.inv } else { &t.fwd };
            dit64(x, tw);
            return;
        }
        self.dit_generic(x, inverse);
    }

    fn dit_generic(&self, x: &mut [Complex], inverse: bool) {
        let n = self.n;
        debug_assert_eq!(x.len(), n);
        if n == 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                x.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = self.tw[k * step];
                    if inverse {
                        w = w.conj();
                    }
                    let a = x[start + k];
                    let b = x[start + k + half] * w;
                    x[start + k] = a + b;
                    x[start + k + half] = a - b;
                }
            }
            len *= 2;
        }
    }

    /// In-place forward DFT (unnormalized).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan size.
    pub fn forward(&self, x: &mut [Complex]) {
        assert_eq!(x.len(), self.n, "buffer length must match FFT size");
        self.dit(x, false);
    }

    /// In-place forward DFT through the generic radix-2 loop even for
    /// sizes with a specialized path. The specialized 64-point kernel
    /// must produce values equal to this — `kernel_bench` and the
    /// conformance tests assert it; ordinary callers use
    /// [`Fft::forward`].
    #[doc(hidden)]
    pub fn forward_radix2(&self, x: &mut [Complex]) {
        assert_eq!(x.len(), self.n, "buffer length must match FFT size");
        self.dit_generic(x, false);
    }

    /// Generic-loop counterpart of [`Fft::forward_radix2`] for the
    /// inverse transform (including the `1/N` scaling).
    #[doc(hidden)]
    pub fn inverse_radix2(&self, x: &mut [Complex]) {
        assert_eq!(x.len(), self.n, "buffer length must match FFT size");
        self.dit_generic(x, true);
        let k = 1.0 / self.n as f64;
        for v in x.iter_mut() {
            *v = v.scale(k);
        }
    }

    /// In-place inverse DFT, scaled by `1/N`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan size.
    pub fn inverse(&self, x: &mut [Complex]) {
        assert_eq!(x.len(), self.n, "buffer length must match FFT size");
        self.dit(x, true);
        let k = 1.0 / self.n as f64;
        for v in x.iter_mut() {
            *v = v.scale(k);
        }
    }

    /// In-place unitary forward DFT (scaled by `1/√N`), preserving power.
    pub fn forward_unitary(&self, x: &mut [Complex]) {
        self.forward(x);
        let k = 1.0 / (self.n as f64).sqrt();
        for v in x.iter_mut() {
            *v = v.scale(k);
        }
    }

    /// In-place unitary inverse DFT (scaled by `1/√N`), preserving power.
    pub fn inverse_unitary(&self, x: &mut [Complex]) {
        assert_eq!(x.len(), self.n, "buffer length must match FFT size");
        self.dit(x, true);
        let k = 1.0 / (self.n as f64).sqrt();
        for v in x.iter_mut() {
            *v = v.scale(k);
        }
    }
}

/// The specialized 64-point decimation-in-time kernel: precomputed
/// transposition pairs instead of the reversal-table scan, contiguous
/// per-stage twiddles with the inverse conjugation folded into the
/// table, and the `k = 0` butterflies (unit twiddle) reduced to
/// add/sub. Apart from skipping those exact-identity multiplies, the
/// arithmetic is operation-for-operation the generic radix-2 loop, so
/// every output compares equal to [`Fft::forward_radix2`].
///
/// The six stages are unrolled through a const-generic helper whose
/// butterflies run over borrow-split halves zipped with the exact
/// twiddle subslice: no index arithmetic, no bounds checks, and the
/// top/bottom aliasing is resolved at the type level, so the compiler
/// is free to overlap independent butterflies.
fn dit64(x: &mut [Complex], tw: &[Complex; 63]) {
    let x: &mut [Complex; 64] = x.try_into().expect("64-point kernel needs 64 samples");
    for &(i, j) in BITREV64_SWAPS.iter() {
        x.swap(i as usize, j as usize);
    }
    // Stage len = 2: every twiddle is unity.
    for pair in x.chunks_exact_mut(2) {
        let (a, b) = (pair[0], pair[1]);
        pair[0] = a + b;
        pair[1] = a - b;
    }
    // Each stage's table segment starts with its (unit) k = 0 entry;
    // the helper takes only the non-unit tail.
    stage64::<4>(x, &tw[2..3]);
    stage64::<8>(x, &tw[4..7]);
    stage64::<16>(x, &tw[8..15]);
    stage64::<32>(x, &tw[16..31]);
    stage64::<64>(x, &tw[32..63]);
}

/// One block-length-`LEN` stage of [`dit64`]. `tw` carries the stage's
/// `LEN/2 - 1` non-unit twiddles (butterflies `k = 1..half`); the
/// `k = 0` butterfly is the unit-twiddle add/sub. Per element the
/// floating-point operation order matches the generic loop exactly.
#[inline(always)]
fn stage64<const LEN: usize>(x: &mut [Complex; 64], tw: &[Complex]) {
    let half = LEN / 2;
    debug_assert_eq!(tw.len(), half - 1);
    for block in x.chunks_exact_mut(LEN) {
        let (top, bot) = block.split_at_mut(half);
        let (a, b) = (top[0], bot[0]);
        top[0] = a + b;
        bot[0] = a - b;
        for ((t, u), &w) in top[1..].iter_mut().zip(bot[1..].iter_mut()).zip(tw) {
            let a = *t;
            let b = *u * w;
            *t = a + b;
            *u = a - b;
        }
    }
}

/// Reorders a spectrum so the zero-frequency bin sits in the middle
/// (`fftshift`), returning a new vector.
///
/// ```
/// use wlan_dsp::fft::fftshift;
/// assert_eq!(fftshift(&[0, 1, 2, 3]), vec![2, 3, 0, 1]);
/// ```
pub fn fftshift<T: Copy>(x: &[T]) -> Vec<T> {
    let n = x.len();
    let half = n.div_ceil(2);
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&x[half..]);
    out.extend_from_slice(&x[..half]);
    out
}

/// Frequency axis (Hz) matching [`fftshift`] ordering for an `n`-point
/// transform at sample rate `fs`.
pub fn fftshift_freqs(n: usize, fs: f64) -> Vec<f64> {
    let n_i = n as i64;
    (0..n_i)
        .map(|i| (i - n_i / 2) as f64 * fs / n as f64)
        .collect()
}

/// Reference O(N²) DFT used in tests and for non-power-of-two sizes.
pub fn dft_reference(x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    (0..n)
        .map(|k| {
            x.iter()
                .enumerate()
                .map(|(i, &v)| {
                    v * Complex::cis(-2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64)
                })
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn rand_signal(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| rng.complex_gaussian(1.0)).collect()
    }

    #[test]
    fn matches_reference_dft() {
        for &n in &[1usize, 2, 4, 8, 16, 64, 256] {
            let x = rand_signal(n, n as u64);
            let mut y = x.clone();
            Fft::new(n).forward(&mut y);
            let r = dft_reference(&x);
            for (a, b) in y.iter().zip(r.iter()) {
                assert!((*a - *b).abs() < 1e-9 * n as f64, "n={n}");
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        let fft = Fft::new(128);
        let x = rand_signal(128, 9);
        let mut y = x.clone();
        fft.forward(&mut y);
        fft.inverse(&mut y);
        for (a, b) in x.iter().zip(y.iter()) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn unitary_preserves_power() {
        let fft = Fft::new(64);
        let x = rand_signal(64, 4);
        let p_in: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x.clone();
        fft.forward_unitary(&mut y);
        let p_out: f64 = y.iter().map(|z| z.norm_sqr()).sum();
        assert!((p_in - p_out).abs() < 1e-9 * p_in);
        fft.inverse_unitary(&mut y);
        for (a, b) in x.iter().zip(y.iter()) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn single_tone_lands_in_bin() {
        let n = 64;
        let fft = Fft::new(n);
        for bin in [1usize, 5, 31, 63] {
            let mut x: Vec<Complex> = (0..n)
                .map(|i| {
                    Complex::cis(2.0 * std::f64::consts::PI * bin as f64 * i as f64 / n as f64)
                })
                .collect();
            fft.forward(&mut x);
            assert!((x[bin].abs() - n as f64).abs() < 1e-9);
            let leak: f64 = x
                .iter()
                .enumerate()
                .filter(|(k, _)| *k != bin)
                .map(|(_, z)| z.abs())
                .sum();
            assert!(leak < 1e-8);
        }
    }

    #[test]
    fn linearity() {
        let fft = Fft::new(32);
        let a = rand_signal(32, 1);
        let b = rand_signal(32, 2);
        let mut sum: Vec<Complex> = a.iter().zip(b.iter()).map(|(&x, &y)| x + y).collect();
        let (mut fa, mut fb) = (a, b);
        fft.forward(&mut fa);
        fft.forward(&mut fb);
        fft.forward(&mut sum);
        for i in 0..32 {
            assert!((sum[i] - (fa[i] + fb[i])).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn non_pow2_panics() {
        let _ = Fft::new(48);
    }

    #[test]
    #[should_panic]
    fn wrong_length_panics() {
        let fft = Fft::new(8);
        let mut x = vec![Complex::ZERO; 4];
        fft.forward(&mut x);
    }

    #[test]
    fn fftshift_even_odd() {
        assert_eq!(fftshift(&[0, 1, 2, 3]), vec![2, 3, 0, 1]);
        assert_eq!(fftshift(&[0, 1, 2, 3, 4]), vec![3, 4, 0, 1, 2]);
    }

    #[test]
    fn fftshift_freqs_axis() {
        let f = fftshift_freqs(4, 8.0);
        assert_eq!(f, vec![-4.0, -2.0, 0.0, 2.0]);
    }

    #[test]
    fn plan_table_sizes_for_small_transforms() {
        for n in [1usize, 2, 4, 8, 16] {
            let plan = Fft::new(n);
            assert_eq!(plan.rev.len(), n, "rev table for n={n}");
            assert_eq!(plan.tw.len(), n / 2, "twiddle table for n={n}");
        }
        // The 1-point plan is the identity: no twiddles, rev = [0].
        let one = Fft::new(1);
        assert!(one.tw.is_empty());
        assert_eq!(one.rev, vec![0]);
        let mut x = vec![crate::Complex::new(3.0, -2.0)];
        one.forward(&mut x);
        assert_eq!(x[0], crate::Complex::new(3.0, -2.0));
    }

    #[test]
    fn fast64_equals_generic_radix2() {
        // The specialized path must compare equal (not merely close) to
        // the generic loop — goldens and LinkReport pinning depend on it.
        let fft = Fft::new(64);
        for seed in 0..64u64 {
            let x = rand_signal(64, seed);
            let mut fast = x.clone();
            let mut generic = x.clone();
            fft.forward(&mut fast);
            fft.forward_radix2(&mut generic);
            assert_eq!(fast, generic, "forward seed {seed}");
            fft.inverse(&mut fast);
            fft.inverse_radix2(&mut generic);
            assert_eq!(fast, generic, "inverse seed {seed}");
        }
        // Structured inputs with exact zeros (null carriers) as well.
        let mut x = vec![Complex::ZERO; 64];
        for (i, v) in x.iter_mut().enumerate().take(27) {
            *v = Complex::new(1.0, -(i as f64));
        }
        let mut fast = x.clone();
        let mut generic = x;
        fft.inverse(&mut fast);
        fft.inverse_radix2(&mut generic);
        assert_eq!(fast, generic);
    }

    #[test]
    fn prop_parseval() {
        let n = 256;
        for seed in 0..32u64 {
            let x = rand_signal(n, seed);
            let mut y = x.clone();
            Fft::new(n).forward(&mut y);
            let time_e: f64 = x.iter().map(|z| z.norm_sqr()).sum();
            let freq_e: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
            assert!(
                (time_e - freq_e).abs() < 1e-7 * time_e.max(1.0),
                "seed {seed}"
            );
        }
    }
}
