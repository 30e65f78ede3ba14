//! Noise sources: thermal (white) noise from a noise figure, and flicker
//! (1/f) noise for the direct-conversion second mixer stage.

use wlan_dsp::math::{BOLTZMANN, T0_KELVIN};
use wlan_dsp::{Complex, Rng};
use wlan_units::Db;

/// Input-referred added thermal noise of a stage with noise figure
/// `nf_db` at sample rate `fs` (full complex-envelope bandwidth), in the
/// `mean(|x|²)` convention: `2·kT₀·fs·(F − 1)`.
pub fn added_noise_power(nf_db: Db, sample_rate_hz: f64) -> f64 {
    2.0 * BOLTZMANN * T0_KELVIN * sample_rate_hz * (nf_db.to_linear() - 1.0)
}

/// Source (antenna) noise floor `2·kT₀·fs`.
pub fn source_noise_power(sample_rate_hz: f64) -> f64 {
    2.0 * BOLTZMANN * T0_KELVIN * sample_rate_hz
}

/// White thermal noise source.
#[derive(Debug, Clone)]
pub struct ThermalNoise {
    power: f64,
    rng: Rng,
}

impl ThermalNoise {
    /// Creates a source emitting complex noise of total power `power`
    /// (`mean(|x|²)` convention) per sample.
    pub fn new(power: f64, rng: Rng) -> Self {
        ThermalNoise { power, rng }
    }

    /// Creates the input-referred noise of a stage with `nf_db` at `fs`.
    pub fn from_noise_figure(nf_db: Db, sample_rate_hz: f64, rng: Rng) -> Self {
        ThermalNoise::new(added_noise_power(nf_db, sample_rate_hz), rng)
    }

    /// Noise power per sample.
    pub fn power(&self) -> f64 {
        self.power
    }

    /// Next noise sample.
    #[inline]
    pub fn next_sample(&mut self) -> Complex {
        if self.power <= 0.0 {
            Complex::ZERO
        } else {
            self.rng.complex_gaussian(self.power)
        }
    }

    /// Adds one noise sample to every element of `buf` — the stage-major
    /// form of calling [`ThermalNoise::next_sample`] per sample, through
    /// [`Rng::add_complex_gaussian`], so bit-identical.
    pub fn add_to(&mut self, buf: &mut [Complex]) {
        if self.power > 0.0 {
            self.rng.add_complex_gaussian(buf, self.power);
        }
    }
}

/// Most octave sections a [`FlickerNoise`] synthesizes.
const MAX_FLICKER_SECTIONS: usize = 11;

/// Section `k` advances once every `D_k` samples, `D_k` the largest
/// power of two with `D_k · STRIDE_MARGIN · f_k ≤ fs` (and at least 1):
/// unless `D_k = 1`, its pole sits at least 128× below its update rate,
/// so linear interpolation between updates holds the designed spectrum.
const STRIDE_MARGIN: f64 = 128.0;

/// One octave section of a [`FlickerNoise`]: the AR(1) process
/// `x[n] = p·x[n−1] + g·w[n]` with pole `p = exp(−2π·f/fs)`, gain `g`
/// and drive `w ~ complex_gaussian(2.0)`, observed only every `stride`
/// samples and interpolated linearly in between.
#[derive(Debug, Clone)]
struct FlickerSection {
    /// Samples between updates, `D` (a power of two).
    stride: u64,
    /// `1/D`, exact since `D` is a power of two.
    inv_stride: f64,
    /// `p^D`.
    decay: f64,
    /// `g·sqrt((1 − p^{2D}) / (1 − p²))`, the `D`-step drive gain.
    drive: f64,
    /// Process value at the end of the current stride.
    next: Complex,
    /// Per-sample increment of the interpolation over the current stride.
    step: Complex,
}

impl FlickerSection {
    fn new(pole_hz: f64, weight: f64, sample_rate_hz: f64) -> Self {
        let mut stride = 1u64;
        while 2.0 * stride as f64 * STRIDE_MARGIN * pole_hz <= sample_rate_hz {
            stride *= 2;
        }
        let d = stride as f64;
        let pole = (-2.0 * std::f64::consts::PI * pole_hz / sample_rate_hz).exp();
        let gain = (1.0 - pole) * weight;
        // 1 − p^{2D} and 1 − p² as −expm1(−4π·f·D/fs): at D = 1 both are
        // the same float, so the ratio is exactly 1.0 and the section
        // is the single-rate recurrence bit for bit.
        let one_minus =
            |d: f64| -(-4.0 * std::f64::consts::PI * pole_hz * d / sample_rate_hz).exp_m1();
        FlickerSection {
            stride,
            inv_stride: 1.0 / d,
            decay: (-2.0 * std::f64::consts::PI * pole_hz * d / sample_rate_hz).exp(),
            drive: gain * (one_minus(d) / one_minus(1.0)).sqrt(),
            next: Complex::ZERO,
            step: Complex::ZERO,
        }
    }

    /// Advances the process by one stride (`D` samples) with drive `w`:
    /// exact in distribution at the update instants.
    #[inline]
    fn update(&mut self, w: Complex) {
        let prev = self.next;
        self.next = self.next * self.decay + w * self.drive;
        self.step = (self.next - prev) * self.inv_stride;
    }
}

/// Flicker (1/f) noise approximated by a sum of first-order lowpass
/// filtered white sources with octave-spaced corner frequencies — the
/// standard Voss-ish synthesis, adequate for demonstrating why the
/// second conversion stage needs DC-block/highpass filtering.
///
/// Each section runs at the rate its bandwidth needs: section `k`
/// (pole at `corner/2^k`) takes one exact `D_k`-step update every `D_k`
/// samples and is interpolated linearly in between, so the whole sum
/// costs about `4/D_0` Gaussian deviates per sample instead of
/// `2 × sections`. The strides are nested powers of two, so every
/// update falls on a multiple of `D_0`, and within each `D_0`-sample
/// block the sum is one complex line `base + slope·j`.
#[derive(Debug, Clone)]
pub struct FlickerNoise {
    sections: Vec<FlickerSection>,
    white_gain: f64,
    rng: Rng,
    /// Block length `D_0` (section 0's stride, the shortest).
    block: usize,
    /// Sample index of the next block's first sample.
    next_block: u64,
    /// Samples of the current block already emitted.
    offset: usize,
    /// The flicker sum over the current block is `base + slope·offset`.
    base: Complex,
    slope: Complex,
}

impl FlickerNoise {
    /// Creates flicker noise whose PSD equals `floor_power / fs` (the
    /// white floor density) at `corner_hz` and rises ~1/f below it.
    ///
    /// `floor_power` is in the `mean(|x|²)` convention over the full rate.
    ///
    /// # Panics
    ///
    /// Panics if `corner_hz` is not positive or not below `fs/2`, or if
    /// `fs` is not finite.
    pub fn new(floor_power: f64, corner_hz: f64, sample_rate_hz: f64, rng: Rng) -> Self {
        assert!(
            corner_hz > 0.0 && corner_hz < sample_rate_hz / 2.0 && sample_rate_hz.is_finite(),
            "corner {corner_hz} Hz must be in (0, fs/2) for a finite fs"
        );
        // Octave-spaced poles from the corner downward. Section k (pole
        // at corner/2^k, unit DC gain) is amplitude-weighted by 2^{k/2}:
        // at frequency f the flat contributions of all sections with
        // poles above f sum geometrically to a density ∝ corner/f — the
        // 1/f staircase.
        let mut sections = Vec::new();
        let mut f = corner_hz;
        let mut weight = 1.0f64;
        for _ in 0..MAX_FLICKER_SECTIONS {
            sections.push(FlickerSection::new(f, weight, sample_rate_hz));
            f /= 2.0;
            weight *= std::f64::consts::SQRT_2;
            if f < 0.01 {
                break;
            }
        }
        let block = sections[0].stride as usize;
        FlickerNoise {
            sections,
            white_gain: (floor_power / 2.0).sqrt(),
            rng,
            block,
            next_block: 0,
            offset: block,
            base: Complex::ZERO,
            slope: Complex::ZERO,
        }
    }

    /// Starts the next `D_0`-sample block: updates the sections due at
    /// its first sample, in section order, and sums every section's
    /// interpolation line over the block into `base + slope·j`.
    fn begin_block(&mut self) {
        let n = self.next_block;
        let mut base = Complex::ZERO;
        let mut slope = Complex::ZERO;
        for s in &mut self.sections {
            let t = n & (s.stride - 1);
            if t == 0 {
                // The drive is `complex_gaussian(2.0)`, whose sigma is
                // exactly 1.0, so the deviates are used as drawn.
                s.update(Complex::new(self.rng.gaussian(), self.rng.gaussian()));
            }
            // Sample `t + j` of the stride lies `D − 1 − t − j` steps
            // before `next`.
            base += s.next - s.step * (s.stride - 1 - t) as f64;
            slope += s.step;
        }
        self.base = base;
        self.slope = slope;
        self.next_block = n + self.block as u64;
        self.offset = 0;
    }

    /// Next flicker-noise sample.
    pub fn next_sample(&mut self) -> Complex {
        if self.offset == self.block {
            self.begin_block();
        }
        let acc = self.base + self.slope * self.offset as f64;
        self.offset += 1;
        acc * self.white_gain
    }

    /// Adds `next_sample() * scale` to every element of `buf`, with the
    /// same arithmetic per sample, so the result is bit-identical.
    pub fn add_scaled_to(&mut self, buf: &mut [Complex], scale: f64) {
        let mut rest = buf;
        while !rest.is_empty() {
            if self.offset == self.block {
                self.begin_block();
            }
            let n = (self.block - self.offset).min(rest.len());
            let (head, tail) = rest.split_at_mut(n);
            let (base, slope) = (self.base, self.slope);
            for (v, j) in head.iter_mut().zip(self.offset..) {
                let acc = base + slope * j as f64;
                *v += (acc * self.white_gain) * scale;
            }
            self.offset += n;
            rest = tail;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_dsp::math::{lin_to_db, watts_to_dbm};
    use wlan_dsp::spectrum::welch_psd;

    #[test]
    fn added_noise_matches_nf_definition() {
        // NF 3 dB → F = 2 → added = source floor.
        let fs = 20e6;
        let added = added_noise_power(Db(3.0103), fs);
        let source = source_noise_power(fs);
        assert!((added / source - 1.0).abs() < 1e-3);
        // NF 0 dB → no added noise.
        assert!(added_noise_power(Db(0.0), fs).abs() < 1e-30);
    }

    #[test]
    fn thermal_power_statistics() {
        let mut src = ThermalNoise::new(1e-8, Rng::new(1));
        let n = 100_000;
        let p: f64 = (0..n).map(|_| src.next_sample().norm_sqr()).sum::<f64>() / n as f64;
        assert!((p / 1e-8 - 1.0).abs() < 0.03, "power ratio {}", p / 1e-8);
    }

    #[test]
    fn noise_floor_dbm_20mhz() {
        // kT₀B at 20 MHz ≈ −101 dBm.
        let p = source_noise_power(20e6);
        assert!((watts_to_dbm(p / 2.0) - (-100.98)).abs() < 0.1);
    }

    #[test]
    fn zero_power_emits_zero() {
        let mut src = ThermalNoise::new(0.0, Rng::new(2));
        assert_eq!(src.next_sample(), Complex::ZERO);
    }

    #[test]
    fn flicker_spectrum_slopes_down() {
        let fs = 1e6;
        let mut f = FlickerNoise::new(1e-6, 50e3, fs, Rng::new(3));
        let x: Vec<Complex> = (0..1 << 17).map(|_| f.next_sample()).collect();
        let (freqs, psd) = welch_psd(&x, 4096, fs);
        let density_at = |f0: f64| -> f64 {
            let mut acc = 0.0;
            let mut n = 0;
            for (fr, p) in freqs.iter().zip(psd.iter()) {
                if (fr.abs() - f0).abs() < f0 * 0.2 {
                    acc += p;
                    n += 1;
                }
            }
            acc / n as f64
        };
        let low = density_at(2e3);
        let mid = density_at(10e3);
        let high = density_at(200e3);
        assert!(low > 3.0 * mid, "no 1/f slope: {low} vs {mid}");
        assert!(mid > 2.0 * high, "corner missing: {mid} vs {high}");
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(1e-3 * i as f64, -2e-3 * i as f64))
            .collect()
    }

    fn assert_same_bits(got: &[Complex], want: &[Complex], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.re.to_bits(), w.re.to_bits(), "{what}: re at {i}");
            assert_eq!(g.im.to_bits(), w.im.to_bits(), "{what}: im at {i}");
        }
    }

    #[test]
    fn thermal_add_to_matches_next_sample() {
        for seed in 0..4 {
            for n in [1, 2, 63, 64, 65, 5377] {
                let mut block = ThermalNoise::new(3e-9, Rng::new(seed));
                let mut scalar = block.clone();
                let mut got = ramp(n);
                // Two frames, so the second starts mid-stream.
                block.add_to(&mut got[..n / 2]);
                block.add_to(&mut got[n / 2..]);
                let want: Vec<Complex> =
                    ramp(n).iter().map(|&v| v + scalar.next_sample()).collect();
                assert_same_bits(&got, &want, &format!("thermal seed {seed} n {n}"));
            }
        }
    }

    #[test]
    fn flicker_add_scaled_to_matches_next_sample() {
        // Unit strides below section 4 (1 MHz, 50 kHz corner), the 11
        // sections of the 80 Msps chain (D_0 = 4), and a low corner that
        // stops at 4 sections with one 65 536-sample block.
        for (fs, corner) in [(1e6, 50e3), (80e6, 100e3), (1e6, 0.1)] {
            for n in [1, 3, 4, 5, 63, 64, 65, 1000, 5376] {
                let mut block = FlickerNoise::new(1e-6, corner, fs, Rng::new(8));
                assert!(block.sections.len() <= MAX_FLICKER_SECTIONS);
                let mut scalar = block.clone();
                let scale = 0.75;
                let mut got = ramp(n);
                block.add_scaled_to(&mut got[..n / 3], scale);
                block.add_scaled_to(&mut got[n / 3..], scale);
                let want: Vec<Complex> = ramp(n)
                    .iter()
                    .map(|&v| v + scalar.next_sample() * scale)
                    .collect();
                let what = format!("flicker fs {fs} corner {corner} n {n}");
                assert_same_bits(&got, &want, &what);
            }
        }
    }

    fn strides(f: &FlickerNoise) -> Vec<u64> {
        f.sections.iter().map(|s| s.stride).collect()
    }

    #[test]
    fn flicker_strides_follow_the_rule() {
        // D_k is the largest power of two <= fs / (128·f_k), at least 1.
        let at = |fs| FlickerNoise::new(1e-6, 100e3, fs, Rng::new(1));
        let want: Vec<u64> = (0..11).map(|k| 4 << k).collect();
        assert_eq!(strides(&at(80e6)), want);
        let want: Vec<u64> = (0..11).map(|k| 8 << k).collect();
        assert_eq!(strides(&at(160e6)), want);
        // 20 Msps: fs/(128·f_0) = 1.56, so D_0 = 1 and D_k = 2^k.
        let want: Vec<u64> = (0..11).map(|k| 1 << k).collect();
        assert_eq!(strides(&at(20e6)), want);
        // Deviates per sample (2 per update): ~1 at 80 Msps, 22 before.
        let per_sample =
            |f: &FlickerNoise| -> f64 { f.sections.iter().map(|s| 2.0 / s.stride as f64).sum() };
        assert!((per_sample(&at(80e6)) - 1.0).abs() < 1e-3);
        assert!((per_sample(&at(160e6)) - 0.5).abs() < 1e-3);
    }

    #[test]
    fn flicker_with_unit_strides_is_the_single_rate_reference() {
        // At fs = 4 Hz a 0.3 Hz corner gives 5 sections (0.3 down to
        // 0.01875 Hz), all with fs/(128·f_k) < 2: every stride is 1, and
        // both forms must reproduce the single-rate model bit for bit.
        let (floor, corner, fs, n) = (2e-9, 0.3, 4.0, 20_000);
        let want = wlan_conformance::refimpl::flicker_reference(floor, corner, fs, Rng::new(5), n);
        let mut scalar = FlickerNoise::new(floor, corner, fs, Rng::new(5));
        assert_eq!(strides(&scalar), vec![1; 5]);
        let mut block = scalar.clone();
        let got: Vec<Complex> = (0..n).map(|_| scalar.next_sample()).collect();
        assert_same_bits(&got, &want, "next_sample");
        let mut got = vec![Complex::ZERO; n];
        block.add_scaled_to(&mut got[..777], 1.0);
        block.add_scaled_to(&mut got[777..], 1.0);
        assert_same_bits(&got, &want, "add_scaled_to");
    }

    #[test]
    fn flicker_is_continuous_and_piecewise_linear() {
        // Between updates each section moves along a straight line that
        // reaches its new value on the stride's last sample, so the
        // sum's first difference stays constant from the last sample of
        // one D_0 block through the next block: no steps at updates.
        let mut f = FlickerNoise::new(1e-6, 100e3, 80e6, Rng::new(9));
        let d0 = f.block;
        let x: Vec<Complex> = (0..1 << 18).map(|_| f.next_sample()).collect();
        let d: Vec<Complex> = x.windows(2).map(|w| w[1] - w[0]).collect();
        let rms = (d.iter().map(|v| v.norm_sqr()).sum::<f64>() / d.len() as f64).sqrt();
        for b in 1..x.len() / d0 {
            let run = &d[b * d0 - 1..(b + 1) * d0 - 1];
            for v in run {
                assert!(
                    (*v - run[0]).abs() <= 1e-9 * rms,
                    "block {b}: first differences {run:?}"
                );
            }
        }
    }

    /// The designed section parameters: pole `p_k = exp(−2π·f_k/fs)` at
    /// `f_k = corner/2^k` and gain `g_k = (1 − p_k)·2^{k/2}`.
    fn designed_sections(corner: f64, fs: f64, n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|k| {
                let p = (-2.0 * std::f64::consts::PI * corner / (1u64 << k) as f64 / fs).exp();
                (p, (1.0 - p) * 2f64.powf(k as f64 / 2.0))
            })
            .collect()
    }

    #[test]
    fn flicker_sections_are_exact_ar1_at_update_instants() {
        // Every section of the 80 Msps chain, observed at its update
        // instants, is the AR(1) process with per-component stationary
        // variance g²/(1 − p²) and lag-one correlation p^D.
        let (corner, fs) = (100e3, 80e6);
        let model = FlickerNoise::new(1e-6, corner, fs, Rng::new(1));
        let design = designed_sections(corner, fs, model.sections.len());
        let (warm, n) = (2_000, 200_000);
        for (k, (sec, &(p, g))) in model.sections.iter().zip(&design).enumerate() {
            let mut s = sec.clone();
            let mut rng = Rng::new(100 + k as u64);
            let mut xs = Vec::with_capacity(2 * n);
            for i in 0..warm + n {
                s.update(rng.complex_gaussian(2.0));
                if i >= warm {
                    xs.push(s.next);
                }
            }
            let var = xs.iter().map(|x| x.norm_sqr()).sum::<f64>() / (2 * n) as f64;
            let want_var = g * g / (1.0 - p * p);
            // The estimate's relative sigma is ~1.2 % at ρ = 0.976.
            assert!(
                (var / want_var - 1.0).abs() < 0.06,
                "section {k}: variance {var:e} vs {want_var:e}"
            );
            let lag1 = xs
                .windows(2)
                .map(|w| w[0].re * w[1].re + w[0].im * w[1].im)
                .sum::<f64>()
                / (2 * (n - 1)) as f64;
            let rho = p.powi(sec.stride as i32);
            assert!(
                (lag1 / var - rho).abs() < 0.02,
                "section {k}: lag-one correlation {} vs p^D = {rho}",
                lag1 / var
            );
        }
    }

    /// Octave bands `[corner·2^m, corner·2^{m+1})` of the Welch PSD of
    /// `x` against the designed staircase
    /// `white_gain²·Σ_k 2·g_k² / |1 − p_k·e^{−jω}|²` per hertz (the drive
    /// is `complex_gaussian(2.0)`), averaged over the band's bins of
    /// both signs. Bands start at the first whose lower edge lies at
    /// least 8 bins from DC (the lowest the Hann window resolves
    /// without smoothing bias) and end at fs/2. Returns
    /// `(band lower edge, measured/designed in dB)`.
    fn octave_errors_db(
        x: &[Complex],
        nfft: usize,
        floor_power: f64,
        corner: f64,
        fs: f64,
        sections: usize,
    ) -> Vec<(f64, f64)> {
        let design = designed_sections(corner, fs, sections);
        let white_gain2 = floor_power / 2.0;
        let designed = |f: f64| -> f64 {
            let w = 2.0 * std::f64::consts::PI * f / fs;
            let sum: f64 = design
                .iter()
                .map(|&(p, g)| 2.0 * g * g / (1.0 - 2.0 * p * w.cos() + p * p))
                .sum();
            white_gain2 * sum / fs
        };
        let (freqs, psd) = welch_psd(x, nfft, fs);
        let min_f = 8.0 * fs / nfft as f64;
        let mut m = (min_f / corner).log2().ceil() as i32;
        let mut out = Vec::new();
        while corner * 2f64.powi(m) < fs / 2.0 {
            let (lo, hi) = (corner * 2f64.powi(m), corner * 2f64.powi(m + 1));
            let (mut got, mut want) = (0.0, 0.0);
            for (&f, &p) in freqs.iter().zip(&psd) {
                if f.abs() >= lo && f.abs() < hi {
                    got += p;
                    want += designed(f);
                }
            }
            out.push((lo, lin_to_db(got / want)));
            m += 1;
        }
        out
    }

    /// Runs the 80 Msps mixer-2 flicker (100 kHz corner) past its
    /// warm-up and checks `n` samples against the designed staircase:
    /// within ±0.5 dB per octave up to 4 × corner, and never more than
    /// 0.5 dB above it beyond.
    fn check_flicker_psd(n: usize, nfft: usize) {
        let (floor, corner, fs) = (1e-9, 100e3, 80e6);
        let mut f = FlickerNoise::new(floor, corner, fs, Rng::new(21));
        // Four time constants of the slowest (98 Hz) section.
        let mut x = vec![Complex::ZERO; 1 << 19];
        f.add_scaled_to(&mut x, 1.0);
        let mut x = vec![Complex::ZERO; n];
        f.add_scaled_to(&mut x, 1.0);
        let bands = octave_errors_db(&x, nfft, floor, corner, fs, f.sections.len());
        assert!(bands.len() >= 8, "too few octaves: {bands:?}");
        for &(lo, err) in &bands {
            if 2.0 * lo <= 4.0 * corner {
                assert!(
                    err.abs() <= 0.5,
                    "octave from {lo} Hz: {err:+.2} dB, {bands:?}"
                );
            } else {
                assert!(
                    err <= 0.5,
                    "octave from {lo} Hz: {err:+.2} dB above, {bands:?}"
                );
            }
        }
        eprintln!("flicker PSD vs designed staircase: {bands:?}");
    }

    #[test]
    fn flicker_psd_matches_designed_staircase() {
        check_flicker_psd(1 << 22, 1 << 15);
    }

    /// The 2^23-sample version with 4× finer bins — opt in with
    /// `WLANSIM_SLOW_TESTS=1`.
    #[test]
    fn flicker_psd_matches_designed_staircase_long() {
        if std::env::var("WLANSIM_SLOW_TESTS").as_deref() != Ok("1") {
            return;
        }
        check_flicker_psd(1 << 23, 1 << 17);
    }

    #[test]
    #[should_panic]
    fn flicker_bad_corner_panics() {
        let _ = FlickerNoise::new(1e-6, 1e6, 1e6, Rng::new(4));
    }

    #[test]
    #[should_panic]
    fn flicker_infinite_rate_panics() {
        // No finite stride would satisfy the stride rule.
        let _ = FlickerNoise::new(1e-6, 1e3, f64::INFINITY, Rng::new(4));
    }
}
