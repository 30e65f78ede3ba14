//! Statistical oracles for `Rng::gaussian` and `Rng::complex_gaussian`.
//!
//! The checks share one stream of `n` deviates (2^22 in tier-1, 10^9
//! under `WLANSIM_SLOW_TESTS=1`) and compare it with the standard
//! normal:
//!
//! * mean, variance, skewness and excess kurtosis, each within 5σ of
//!   its sampling error;
//! * a chi-square test against `math::q_function` over fixed bins of
//!   width 0.04 in ±6, outer bins pooled until each expects 10 counts;
//! * the tail mass beyond the ziggurat's `r` = 3.654 and beyond 5
//!   against `2·Q(x)`, inside 5σ Wilson bands, and the tail's shape:
//!   a chi-square of `|x|` beyond `r` in 0.05-wide bins against
//!   `Q(x)/Q(r)`;
//! * lag-1 correlation within 5σ of zero;
//! * complex draws: total power and circularity (`E[z²] = 0`).
//!
//! The table closure and sign-versus-layer independence need the
//! ziggurat's tables, so they live in `rng.rs`'s own tests.

use std::sync::OnceLock;
use wlan_dsp::math::q_function;
use wlan_dsp::Rng;

fn slow() -> bool {
    std::env::var("WLANSIM_SLOW_TESTS").as_deref() == Ok("1")
}

fn draws() -> u64 {
    if slow() {
        1_000_000_000
    } else {
        1 << 22
    }
}

/// Left edge of the chi-square bins and their width: 300 bins in ±6.
const BIN_LO: f64 = -6.0;
const BIN_WIDTH: f64 = 0.04;
const BINS: usize = 300;

/// Where the ziggurat's tail starts.
const ZIGGURAT_R: f64 = 3.654_152_885_361_009;
/// Bins of `|x| − r` beyond `r`: 0.05 wide up to `r + 2`, then one to ∞.
const TAIL_BIN_WIDTH: f64 = 0.05;
const TAIL_BINS: usize = 41;

/// Everything the checks need from one pass over a stream.
struct Stats {
    n: u64,
    /// `Σx^k` for k = 1..=4.
    sums: [f64; 4],
    /// `Σ x[k]·x[k+1]`.
    lag1: f64,
    /// Counts per bin; the first and last bins take everything beyond.
    bins: Vec<u64>,
    /// `|x|` beyond `ZIGGURAT_R` and beyond 5.
    beyond_r: u64,
    beyond_5: u64,
    /// Counts of `|x|` beyond `ZIGGURAT_R` per tail bin.
    tail_bins: Vec<u64>,
}

impl Stats {
    /// The shared stream's statistics, collected once per test binary.
    fn shared() -> &'static Stats {
        static STATS: OnceLock<Stats> = OnceLock::new();
        STATS.get_or_init(|| Stats::collect(draws()))
    }

    fn collect(n: u64) -> Self {
        let mut rng = Rng::new(1);
        let mut s = Stats {
            n,
            sums: [0.0; 4],
            lag1: 0.0,
            bins: vec![0; BINS],
            beyond_r: 0,
            beyond_5: 0,
            tail_bins: vec![0; TAIL_BINS],
        };
        let mut prev = 0.0;
        for _ in 0..n {
            let x = rng.gaussian();
            let x2 = x * x;
            s.sums[0] += x;
            s.sums[1] += x2;
            s.sums[2] += x2 * x;
            s.sums[3] += x2 * x2;
            s.lag1 += prev * x;
            prev = x;
            let b = ((x - BIN_LO) / BIN_WIDTH)
                .floor()
                .clamp(0.0, (BINS - 1) as f64);
            s.bins[b as usize] += 1;
            s.beyond_5 += (x.abs() > 5.0) as u64;
            if x.abs() > ZIGGURAT_R {
                s.beyond_r += 1;
                let t = ((x.abs() - ZIGGURAT_R) / TAIL_BIN_WIDTH).min((TAIL_BINS - 1) as f64);
                s.tail_bins[t as usize] += 1;
            }
        }
        s
    }
}

/// `|got − want| ≤ 5·sigma`.
fn assert_within_5_sigma(what: &str, got: f64, want: f64, sigma: f64) {
    let z = (got - want) / sigma;
    assert!(z.abs() <= 5.0, "{what}: {got:e} vs {want:e} is {z:+.2}σ");
    eprintln!("{what}: {got:e} ({z:+.2}σ)");
}

/// The Wilson score interval for `k` successes in `n` trials at `z`σ.
fn wilson(k: u64, n: u64, z: f64) -> (f64, f64) {
    let (n, p) = (n as f64, k as f64 / n as f64);
    let z2 = z * z;
    let centre = (p + z2 / (2.0 * n)) / (1.0 + z2 / n);
    let half = z / (1.0 + z2 / n) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (centre - half, centre + half)
}

fn check_moments(s: &Stats) {
    let n = s.n as f64;
    let [m1, m2, m3, m4] = s.sums.map(|v| v / n);
    let var = m2 - m1 * m1;
    let c3 = m3 - 3.0 * m1 * m2 + 2.0 * m1.powi(3);
    let c4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1.powi(4);
    // Asymptotic sampling errors of the four under a standard normal.
    assert_within_5_sigma("mean", m1, 0.0, (1.0 / n).sqrt());
    assert_within_5_sigma("variance", var, 1.0, (2.0 / n).sqrt());
    assert_within_5_sigma("skewness", c3 / var.powf(1.5), 0.0, (6.0 / n).sqrt());
    assert_within_5_sigma(
        "excess kurtosis",
        c4 / (var * var) - 3.0,
        0.0,
        (24.0 / n).sqrt(),
    );
}

/// Chi-square of `counts` against the probabilities `below(k)` of
/// falling below edge `k` (`below(0) = 0`, `below(counts.len()) = 1`),
/// pooling bins from each end inward until each cell expects 10 counts;
/// the last cell runs to the top. Returns `(χ², df)`.
fn pooled_chi_square(counts: &[u64], below: impl Fn(usize) -> f64) -> (f64, f64) {
    let n = counts.iter().sum::<u64>() as f64;
    let mut cells: Vec<(f64, f64)> = Vec::new();
    let (mut got, mut lo) = (0u64, 0usize);
    for (k, &c) in counts.iter().enumerate() {
        got += c;
        let p = below(k + 1) - below(lo);
        let rest = 1.0 - below(k + 1);
        if n * p >= 10.0 && (n * rest >= 10.0 || k + 1 == counts.len()) {
            cells.push((got as f64, n * p));
            got = 0;
            lo = k + 1;
        }
    }
    let chi2 = cells.iter().map(|&(o, e)| (o - e) * (o - e) / e).sum();
    (chi2, (cells.len() - 1) as f64)
}

/// `(χ² − df)/√(2·df)` below 5.
fn assert_chi_square(what: &str, (chi2, df): (f64, f64)) {
    let z = (chi2 - df) / (2.0 * df).sqrt();
    eprintln!("{what}: chi-square {chi2:.1} on {df} df, z = {z:+.2}");
    assert!(
        z < 5.0,
        "{what}: chi-square {chi2:.1} on {df} df: z = {z:+.2}"
    );
}

fn check_chi_square(s: &Stats) {
    // P(X < edge k), with the outermost edges at ∓∞.
    let below = |k: usize| match k {
        0 => 0.0,
        k if k == BINS => 1.0,
        k => q_function(-(BIN_LO + k as f64 * BIN_WIDTH)),
    };
    assert_chi_square("histogram", pooled_chi_square(&s.bins, below));
}

fn check_tails(s: &Stats) {
    for (x, k) in [(ZIGGURAT_R, s.beyond_r), (5.0, s.beyond_5)] {
        let want = 2.0 * q_function(x);
        let (lo, hi) = wilson(k, s.n, 5.0);
        eprintln!("beyond {x}: {k} of {}, 2·Q = {want:e}", s.n);
        assert!(
            lo <= want && want <= hi,
            "beyond {x}: {k} of {} gives [{lo:e}, {hi:e}], 2·Q = {want:e}",
            s.n
        );
    }
    // P(|X| < r + edge k | |X| > r), the last edge at ∞.
    let tail = q_function(ZIGGURAT_R);
    let below = |k: usize| match k {
        k if k == TAIL_BINS => 1.0,
        k => 1.0 - q_function(ZIGGURAT_R + k as f64 * TAIL_BIN_WIDTH) / tail,
    };
    assert_chi_square("tail shape", pooled_chi_square(&s.tail_bins, below));
}

fn check_lag1(s: &Stats) {
    let n = (s.n - 1) as f64;
    assert_within_5_sigma("lag-1 correlation", s.lag1 / n, 0.0, (1.0 / n).sqrt());
}

#[test]
fn moments_match_the_standard_normal() {
    check_moments(Stats::shared());
}

#[test]
fn histogram_matches_q_function() {
    check_chi_square(Stats::shared());
}

#[test]
fn tail_mass_matches_q_function() {
    check_tails(Stats::shared());
}

#[test]
fn successive_draws_are_uncorrelated() {
    check_lag1(Stats::shared());
}

#[test]
fn complex_draws_have_the_power_and_are_circular() {
    let (n, p) = (draws() / 2, 2.5);
    let mut rng = Rng::new(2);
    let (mut power, mut re2, mut re_im) = (0.0, 0.0, 0.0);
    for _ in 0..n {
        let z = rng.complex_gaussian(p);
        power += z.norm_sqr();
        re2 += z.re * z.re - z.im * z.im;
        re_im += 2.0 * z.re * z.im;
    }
    let n = n as f64;
    // |z|², re² − im² and 2·re·im each have standard deviation p.
    let sigma = p / n.sqrt();
    assert_within_5_sigma("complex power", power / n, p, sigma);
    assert_within_5_sigma("Re E[z²]", re2 / n, 0.0, sigma);
    assert_within_5_sigma("Im E[z²]", re_im / n, 0.0, sigma);
}
