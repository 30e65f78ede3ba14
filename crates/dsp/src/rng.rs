//! Deterministic random number generation for reproducible simulations.
//!
//! Monte-Carlo BER experiments must be bit-exactly reproducible across
//! machines and library versions, so the workspace ships its own small
//! generator instead of depending on an external crate: xoshiro256**
//! (Blackman & Vigna, 2018) seeded through SplitMix64, with uniform,
//! Gaussian (polar Box-Muller) and complex-Gaussian output. The block
//! forms (`fill_gaussian`, `add_complex_gaussian`) return the same bits
//! as the per-call forms, so frame-sized noise loops can use them
//! without changing any simulated result.

use crate::complex::Complex;

/// Accepted Box-Muller pairs per [`Rng::fill_gaussian`] block (three
/// stack arrays of this many `f64`).
const GAUSS_BLOCK: usize = 64;

/// Complex samples per [`Rng::add_complex_gaussian`] chunk (a stack
/// buffer of twice this many `f64`).
pub const COMPLEX_CHUNK: usize = 256;

/// xoshiro256** pseudo-random generator.
///
/// # Example
///
/// ```
/// use wlan_dsp::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second Box-Muller deviate.
    gauss_spare: Option<f64>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The state is expanded with SplitMix64 so that similar seeds give
    /// uncorrelated streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        Rng {
            s,
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator (for per-block noise
    /// sources that must not share a stream).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` via rejection-free Lemire reduction.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// A random bit.
    pub fn bit(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fills `buf` with random bits.
    pub fn bits(&mut self, buf: &mut [u8]) {
        for b in buf.iter_mut() {
            *b = self.bit() as u8;
        }
    }

    /// Fills `buf` with random bytes.
    pub fn bytes(&mut self, buf: &mut [u8]) {
        for b in buf.iter_mut() {
            *b = (self.next_u64() >> 32) as u8;
        }
    }

    /// Standard-normal deviate (zero mean, unit variance) via the polar
    /// Box-Muller method.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(g) = self.gauss_spare.take() {
            return g;
        }
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let k = (-2.0 * s.ln() / s).sqrt();
                self.gauss_spare = Some(v * k);
                return u * k;
            }
        }
    }

    /// Fills `out` with exactly the values `out.len()` successive
    /// [`Rng::gaussian`] calls would return, to the bit — a pending spare
    /// deviate is consumed first, and an odd count leaves the last pair's
    /// second deviate as the spare for the next call.
    ///
    /// Works in blocks of 64 pairs held on the stack: first
    /// the serial xoshiro chain draws uniform pairs and keeps the accepted
    /// `(u, v, s)` triples (the accept test only advances a cursor, so a
    /// rejected pair is overwritten by the next), then an independent
    /// pass applies `(-2·ln s / s).sqrt()` to every kept triple so the
    /// `ln`/div/sqrt latencies overlap instead of stalling the chain.
    /// Each deviate sees the same float operations in the same order as
    /// the scalar path.
    pub fn fill_gaussian(&mut self, out: &mut [f64]) {
        let out = match (self.gauss_spare.take(), out) {
            (Some(g), [first, rest @ ..]) => {
                *first = g;
                rest
            }
            (spare, out) => {
                self.gauss_spare = spare;
                out
            }
        };
        let mut us = [0.0f64; GAUSS_BLOCK];
        let mut vs = [0.0f64; GAUSS_BLOCK];
        let mut ss = [0.0f64; GAUSS_BLOCK];
        for chunk in out.chunks_mut(2 * GAUSS_BLOCK) {
            let want = chunk.len().div_ceil(2);
            let mut k = 0;
            while k < want {
                let u = 2.0 * self.uniform() - 1.0;
                let v = 2.0 * self.uniform() - 1.0;
                let s = u * u + v * v;
                us[k] = u;
                vs[k] = v;
                ss[k] = s;
                k += ((s > 0.0) & (s < 1.0)) as usize;
            }
            let mut pairs = chunk.chunks_exact_mut(2);
            for (((pair, &u), &v), &s) in pairs.by_ref().zip(&us).zip(&vs).zip(&ss) {
                let m = (-2.0 * s.ln() / s).sqrt();
                pair[0] = u * m;
                pair[1] = v * m;
            }
            // Only the final chunk can be odd: its last pair fills one
            // slot and parks the other deviate as the spare.
            if let [last] = pairs.into_remainder() {
                let (u, v, s) = (us[want - 1], vs[want - 1], ss[want - 1]);
                let m = (-2.0 * s.ln() / s).sqrt();
                *last = u * m;
                self.gauss_spare = Some(v * m);
            }
        }
    }

    /// Circularly-symmetric complex Gaussian sample with total variance
    /// `E[|z|²] = variance` (i.e. `variance/2` per real dimension).
    pub fn complex_gaussian(&mut self, variance: f64) -> Complex {
        let sigma = (variance / 2.0).sqrt();
        Complex::new(sigma * self.gaussian(), sigma * self.gaussian())
    }

    /// Adds one [`Rng::complex_gaussian`]`(variance)` sample to every
    /// element of `buf`, bit-identical to the per-sample loop: sigma is
    /// the same value hoisted, and the deviates come from
    /// [`Rng::fill_gaussian`] in chunks of [`COMPLEX_CHUNK`] samples
    /// through a stack buffer, so no call allocates.
    pub fn add_complex_gaussian(&mut self, buf: &mut [Complex], variance: f64) {
        let sigma = (variance / 2.0).sqrt();
        let mut g = [0.0f64; 2 * COMPLEX_CHUNK];
        for chunk in buf.chunks_mut(COMPLEX_CHUNK) {
            let g = &mut g[..2 * chunk.len()];
            self.fill_gaussian(g);
            for (v, d) in chunk.iter_mut().zip(g.chunks_exact(2)) {
                *v += Complex::new(sigma * d[0], sigma * d[1]);
            }
        }
    }
}

impl Default for Rng {
    fn default() -> Self {
        Rng::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Rng::new(123);
        let mut b = Rng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_and_variance() {
        let mut rng = Rng::new(99);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01);
        assert!((var - 1.0 / 12.0).abs() < 0.01);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::new(5);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let kurt = xs.iter().map(|x| x.powi(4)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01);
        assert!((var - 1.0).abs() < 0.02);
        assert!((kurt - 3.0).abs() < 0.1); // Gaussian kurtosis
    }

    const FILL_LENS: [usize; 9] = [0, 1, 2, 63, 64, 65, 127, 1408, 5377];

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fill_gaussian_matches_scalar_calls() {
        for seed in 0..16u64 {
            for &len in &FILL_LENS {
                for with_spare in [false, true] {
                    let mut block = Rng::new(seed);
                    if with_spare {
                        // One scalar draw leaves the pair's second deviate
                        // pending.
                        block.gaussian();
                        assert!(block.gauss_spare.is_some());
                    }
                    let mut scalar = block.clone();
                    let mut got = vec![0.0; len];
                    block.fill_gaussian(&mut got);
                    let want: Vec<f64> = (0..len).map(|_| scalar.gaussian()).collect();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "seed {seed} len {len} spare {with_spare}"
                    );
                    // Same xoshiro state and same pending spare after.
                    assert_eq!(block, scalar, "seed {seed} len {len} spare {with_spare}");
                }
            }
        }
    }

    #[test]
    fn fill_gaussian_interleaves_with_scalar_draws() {
        for seed in 0..16u64 {
            let mut block = Rng::new(seed);
            let mut scalar = block.clone();
            let mut choose = Rng::new(seed ^ 0xF111);
            for step in 0..40 {
                match choose.below(4) {
                    0 => assert_eq!(block.gaussian().to_bits(), scalar.gaussian().to_bits()),
                    1 => assert_eq!(block.uniform().to_bits(), scalar.uniform().to_bits()),
                    _ => {
                        let len = FILL_LENS[choose.below(FILL_LENS.len() as u64) as usize];
                        let mut got = vec![0.0; len];
                        block.fill_gaussian(&mut got);
                        let want: Vec<f64> = (0..len).map(|_| scalar.gaussian()).collect();
                        assert_eq!(bits(&got), bits(&want), "seed {seed} step {step}");
                    }
                }
                assert_eq!(block, scalar, "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn add_complex_gaussian_matches_complex_gaussian() {
        for seed in 0..16u64 {
            for len in [
                0,
                1,
                COMPLEX_CHUNK - 1,
                COMPLEX_CHUNK,
                COMPLEX_CHUNK + 1,
                1337,
            ] {
                let mut block = Rng::new(seed);
                let mut scalar = block.clone();
                let base: Vec<Complex> = (0..len)
                    .map(|i| Complex::new(i as f64, -(i as f64) * 0.5))
                    .collect();
                let mut got = base.clone();
                block.add_complex_gaussian(&mut got, 0.37);
                for (g, &b) in got.iter().zip(&base) {
                    let want = b + scalar.complex_gaussian(0.37);
                    assert_eq!(g.re.to_bits(), want.re.to_bits(), "seed {seed} len {len}");
                    assert_eq!(g.im.to_bits(), want.im.to_bits(), "seed {seed} len {len}");
                }
                assert_eq!(block, scalar, "seed {seed} len {len}");
            }
        }
    }

    #[test]
    fn complex_gaussian_power() {
        let mut rng = Rng::new(11);
        let n = 100_000;
        let p: f64 = (0..n)
            .map(|_| rng.complex_gaussian(2.5).norm_sqr())
            .sum::<f64>()
            / n as f64;
        assert!((p - 2.5).abs() < 0.05);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fork_gives_independent_stream() {
        let mut a = Rng::new(10);
        let mut c = a.fork();
        // Child stream should not track the parent.
        let same = (0..64).filter(|_| a.next_u64() == c.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn bits_are_roughly_balanced() {
        let mut rng = Rng::new(21);
        let mut buf = vec![0u8; 10_000];
        rng.bits(&mut buf);
        let ones: usize = buf.iter().map(|&b| b as usize).sum();
        assert!(ones > 4700 && ones < 5300);
    }
}
