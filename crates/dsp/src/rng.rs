//! Deterministic random number generation for reproducible simulations.
//!
//! Monte-Carlo BER experiments must be bit-exactly reproducible across
//! machines and library versions, so the workspace ships its own small
//! generator instead of depending on an external crate: xoshiro256**
//! (Blackman & Vigna, 2018) seeded through SplitMix64, with uniform,
//! Gaussian and complex-Gaussian output. Gaussians come from an exact
//! 256-layer ziggurat (Marsaglia & Tsang, 2000; tail after Marsaglia,
//! 1964) that reads layer, sign and a 53-bit value from disjoint bits of
//! one `u64` (bits 0–7, 8 and 11–63), so layer and value are independent
//! (Doornik, 2005). `exp` and `ln` run only on the cold ~1.5 % edge path.
//! The block forms are loops over the scalar draw, so they give its bits.

use crate::complex::Complex;
use std::sync::OnceLock;

/// Unnormalized standard-normal density `exp(−x²/2)`.
fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// `∫_r^∞ exp(−x²/2) dx`, from Laplace's continued fraction for the
/// Mills ratio, `1/(r + 1/(r + 2/(r + 3/(r + …))))`, which has converged
/// to the last bit well before 100 terms for every `r ≥ 3`.
fn tail_area(r: f64) -> f64 {
    let t = (1..=100).rev().fold(r, |t, n| r + n as f64 / t);
    density(r) / t
}

/// The 256-layer ziggurat under `f(x) = exp(−x²/2)`, `x ≥ 0`: layer 0
/// is `[0, r] × [0, f(r)]` plus the tail beyond `r`, layer `i ≥ 1` is
/// `[0, x[i]] × [f(x[i]), f(x[i + 1])]`, and all have the same area
/// `v = r·f(r) + ∫_r^∞ f`.
struct Ziggurat {
    /// `x[0] = v/f(r)` (layer 0 as one rectangle), `x[1] = r > x[2] >
    /// … > x[255]`, `x[256] = 0`.
    x: [f64; 257],
    /// `f[i] = exp(−x[i]²/2)`, with `f[256] = 1`.
    f: [f64; 257],
    /// `w[i] = x[i]·2^−53`, which scales a 53-bit value to layer `i`.
    w: [f64; 256],
}

impl Ziggurat {
    /// Stacks 255 layers of area `v(r)` from `r` upward: the widths, and
    /// how far the last layer's top `f(x[255]) + v/x[255]` lands above
    /// the density's peak 1 (`+∞` if the stack overshoots it early).
    fn stack(r: f64) -> ([f64; 257], f64) {
        let v = r * density(r) + tail_area(r);
        let mut x = [0.0; 257];
        x[0] = v / density(r);
        x[1] = r;
        // f(x[i + 1]) = f(x[i]) + v/x[i], carried up the stack.
        let mut top = density(r);
        for i in 1..255 {
            top += v / x[i];
            if top >= 1.0 {
                return (x, f64::INFINITY);
            }
            x[i + 1] = (-2.0 * top.ln()).sqrt();
        }
        (x, top + v / x[255] - 1.0)
    }

    /// Solves for the `r` whose stack closes, then tabulates.
    ///
    /// A larger `r` leaves less area per layer, so the overshoot falls
    /// through 0 once; `r` is the first double in `(3, 4]` at which it is
    /// `≤ 0`, the end a bisection of `[3, 4]` run until it cannot shrink
    /// lands on. The bracket `[lo, hi]` keeps the overshoot `> 0` at
    /// `lo` (`+∞` below about 3.653, where the stack tops out early)
    /// and `≤ 0` at `hi`. Each step takes the secant through the last
    /// two finite overshoots if it falls strictly inside the bracket,
    /// else the midpoint, and stops when the ends are adjacent doubles:
    /// about 15 runs of the stack instead of bisection's 51.
    fn new() -> Self {
        let (mut lo, mut hi) = (3.0f64, 4.0f64);
        let mut last = (hi, Self::stack(hi).1);
        let mut before: Option<(f64, f64)> = None;
        loop {
            let mid = 0.5 * (lo + hi);
            let next = match before {
                Some((r0, g0)) => last.0 - last.1 * (last.0 - r0) / (last.1 - g0),
                None => mid,
            };
            let next = if lo < next && next < hi { next } else { mid };
            if !(lo < next && next < hi) {
                break;
            }
            let g = Self::stack(next).1;
            if g > 0.0 {
                lo = next;
            } else {
                hi = next;
            }
            if g.is_finite() {
                before = Some(last);
                last = (next, g);
            }
        }
        let (x, _) = Self::stack(hi);
        let f = x.map(density);
        let w = std::array::from_fn(|i| x[i] * (1.0 / (1u64 << 53) as f64));
        Ziggurat { x, f, w }
    }
}

/// The process-wide tables, built on first use.
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(Ziggurat::new)
}

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
        Rng { s }
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

    /// Standard-normal deviate (zero mean, unit variance) from the
    /// ziggurat.
    #[inline]
    pub fn gaussian(&mut self) -> f64 {
        self.normal(ziggurat())
    }

    /// Fills `out` with exactly the values `out.len()` successive
    /// [`Rng::gaussian`] calls would return.
    pub fn fill_gaussian(&mut self, out: &mut [f64]) {
        let z = ziggurat();
        out.fill_with(|| self.normal(z));
    }

    /// Circularly-symmetric complex Gaussian sample with total variance
    /// `E[|z|²] = variance` (i.e. `variance/2` per real dimension).
    #[inline]
    pub fn complex_gaussian(&mut self, variance: f64) -> Complex {
        let (sigma, z) = ((variance / 2.0).sqrt(), ziggurat());
        Complex::new(sigma * self.normal(z), sigma * self.normal(z))
    }

    /// Adds one [`Rng::complex_gaussian`]`(variance)` sample to every
    /// element of `buf`, bit-identical to the per-sample loop.
    pub fn add_complex_gaussian(&mut self, buf: &mut [Complex], variance: f64) {
        let (sigma, z) = ((variance / 2.0).sqrt(), ziggurat());
        for v in buf {
            *v += Complex::new(sigma * self.normal(z), sigma * self.normal(z));
        }
    }

    /// One ziggurat deviate: a uniform point in a random layer, kept when
    /// it lies under the layer above, else settled by `normal_edge`.
    #[inline(always)]
    fn normal(&mut self, z: &Ziggurat) -> f64 {
        loop {
            let bits = self.next_u64();
            let i = (bits & 0xff) as usize;
            let sign = (bits & 0x100) << 55;
            let x = (bits >> 11) as f64 * z.w[i];
            if x < z.x[i + 1] {
                return f64::from_bits(x.to_bits() | sign);
            }
            if let Some(x) = self.normal_edge(z, i, x) {
                return f64::from_bits(x.to_bits() | sign);
            }
        }
    }

    /// The slow ~1.5 %: in layer 0 a draw from the tail beyond `r`
    /// (Marsaglia, 1964); in any other layer the wedge test of `x`
    /// against the density, `None` meaning reject and draw again.
    #[cold]
    #[inline(never)]
    fn normal_edge(&mut self, z: &Ziggurat, i: usize, x: f64) -> Option<f64> {
        if i == 0 {
            let r = z.x[1];
            loop {
                let a = -(1.0 - self.uniform()).ln() / r;
                let b = -(1.0 - self.uniform()).ln();
                if 2.0 * b > a * a {
                    return Some(r + a);
                }
            }
        }
        let y = z.f[i] + self.uniform() * (z.f[i + 1] - z.f[i]);
        (y < density(x)).then_some(x)
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
                for skip in [0, 1] {
                    let mut block = Rng::new(seed);
                    for _ in 0..skip {
                        block.gaussian();
                    }
                    let mut scalar = block.clone();
                    let mut got = vec![0.0; len];
                    block.fill_gaussian(&mut got);
                    let want: Vec<f64> = (0..len).map(|_| scalar.gaussian()).collect();
                    assert_eq!(bits(&got), bits(&want), "seed {seed} len {len} skip {skip}");
                    // Same xoshiro state after.
                    assert_eq!(block, scalar, "seed {seed} len {len} skip {skip}");
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
            for len in [0, 1, 2, 255, 256, 257, 1337] {
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
    fn tail_area_matches_q_function() {
        // Two independent evaluations of the Gaussian tail: Laplace's
        // fraction for the Mills ratio here, `math::erfc` behind
        // `q_function`. Both sides beyond `x`: `2·Q(x) = 2·∫_x^∞ f/√(2π)`.
        for x in [3.0, ziggurat().x[1], 4.0, 5.0] {
            let two_sided = 2.0 * tail_area(x) / (2.0 * std::f64::consts::PI).sqrt();
            let rel = (2.0 * crate::math::q_function(x) / two_sided - 1.0).abs();
            assert!(rel < 1e-14, "2·Q({x}) off the tail area by {rel:e}");
        }
    }

    #[test]
    fn ziggurat_layers_close() {
        let z = ziggurat();
        let r = z.x[1];
        // Marsaglia & Tsang's published r for 256 layers.
        assert!((r - 3.654_152_885_361_009).abs() < 1e-14, "r = {r}");
        // The tail area against a composite Simpson integral, [r, r + 12]
        // in 2^16 panels (the rest of the tail is below e^−100).
        let (n, h) = (1 << 16, 12.0 / (1 << 16) as f64);
        let simpson = (0..=n)
            .map(|k| {
                let w = if k == 0 || k == n {
                    1.0
                } else {
                    [2.0, 4.0][k % 2]
                };
                w * density(r + k as f64 * h)
            })
            .sum::<f64>()
            * h
            / 3.0;
        let tail = tail_area(r);
        assert!(
            (tail / simpson - 1.0).abs() < 1e-12,
            "tail {tail} vs {simpson}"
        );
        let v = r * density(r) + tail;
        assert!((v - 4.928_673_233_99e-3).abs() < 1e-13, "v = {v}");
        // Base layer: rectangle under f(r) plus the tail.
        assert!((z.x[0] * z.f[1] / v - 1.0).abs() < 1e-15);
        let mut worst = 0.0f64;
        for i in 1..256 {
            assert!(z.x[i + 1] < z.x[i], "layer {i} widths not decreasing");
            let area = z.x[i] * (z.f[i + 1] - z.f[i]);
            worst = worst.max((area / v - 1.0).abs());
            assert!(
                (area / v - 1.0).abs() < 1e-12,
                "layer {i}: area {area} vs {v}"
            );
        }
        assert_eq!((z.x[256], z.f[256]), (0.0, 1.0));
        // The top layer closes on the density's peak.
        let top = z.f[255] + v / z.x[255];
        assert!((top - 1.0).abs() < 1e-12, "top layer reaches {top}");
        eprintln!(
            "r = {r:e}, v = {v:e}, worst layer area error {worst:e}, top {:e}",
            top - 1.0
        );
    }

    #[test]
    fn ziggurat_root_and_tables_are_pinned() {
        // The solved r and an FNV-1a hash of every table entry's bits,
        // and the bisection of [3, 4] run until it cannot shrink (the
        // solve before the secant one) landing on the same r.
        let z = Ziggurat::new();
        assert_eq!(z.x[1].to_bits(), 0x400d_3bb4_8209_ad33, "r = {}", z.x[1]);
        let hash =
            z.x.iter()
                .chain(&z.f)
                .chain(&z.w)
                .flat_map(|v| v.to_bits().to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
                });
        assert_eq!(hash, 0x4746_1f16_a781_c5cc, "table hash {hash:#x}");
        let (mut lo, mut hi, mut mid) = (3.0f64, 4.0f64, 3.5f64);
        while lo < mid && mid < hi {
            if Ziggurat::stack(mid).1 > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
            mid = 0.5 * (lo + hi);
        }
        assert_eq!(hi.to_bits(), z.x[1].to_bits());
    }

    /// The layer whose strip `[x[i+1], x[i])` holds `|g|`, with the tail
    /// beyond `r` counted as layer 0.
    fn strip(z: &Ziggurat, g: f64) -> usize {
        z.x[1..].partition_point(|&x| x > g.abs())
    }

    /// Chi-square statistic, standardized as `(χ² − df)/√(2·df)`, of a
    /// 2 × k contingency table of counts.
    fn contingency_z(table: &[[u64; 2]]) -> f64 {
        let n: u64 = table.iter().map(|r| r[0] + r[1]).sum();
        let cols = [0, 1].map(|c| table.iter().map(|r| r[c]).sum::<u64>() as f64);
        let chi2: f64 = table
            .iter()
            .flat_map(|row| {
                let total = (row[0] + row[1]) as f64;
                (0..2).map(move |c| {
                    let e = total * cols[c] / n as f64;
                    (row[c] as f64 - e).powi(2) / e
                })
            })
            .sum();
        let df = (table.len() - 1) as f64;
        (chi2 - df) / (2.0 * df).sqrt()
    }

    /// The sign of a deviate is independent of the strip its magnitude
    /// falls in, the observable trace of its layer. Bits 0–7 choose the
    /// layer and bit 8 the sign, so a shared bit would show here.
    fn check_sign_versus_layer(n: u64, seed: u64) {
        let z = ziggurat();
        let mut rng = Rng::new(seed);
        let mut table = [[0u64; 2]; 256];
        for _ in 0..n {
            let g = rng.gaussian();
            table[strip(z, g)][g.is_sign_negative() as usize] += 1;
        }
        let score = contingency_z(&table);
        assert!(score.abs() < 5.0, "sign versus layer: z = {score:.2}");
    }

    #[test]
    fn sign_is_independent_of_layer() {
        check_sign_versus_layer(1 << 22, 31);
    }

    /// The 10^8-draw version; opt in with `WLANSIM_SLOW_TESTS=1`.
    #[test]
    fn sign_is_independent_of_layer_long() {
        if std::env::var("WLANSIM_SLOW_TESTS").as_deref() != Ok("1") {
            return;
        }
        check_sign_versus_layer(100_000_000, 32);
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
