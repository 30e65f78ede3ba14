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
    /// form of calling [`ThermalNoise::next_sample`] per sample, drawn in
    /// blocks through [`Rng::add_complex_gaussian`], which is
    /// bit-identical to per-sample `complex_gaussian` calls.
    pub fn add_to(&mut self, buf: &mut [Complex]) {
        if self.power <= 0.0 {
            return;
        }
        self.rng.add_complex_gaussian(buf, self.power);
    }
}

/// Most octave sections a [`FlickerNoise`] synthesizes.
const MAX_FLICKER_SECTIONS: usize = 11;

/// Samples per [`FlickerNoise::add_scaled_to`] chunk; its stack buffer
/// holds `FLICKER_CHUNK × 2 × MAX_FLICKER_SECTIONS` deviates (11 KiB).
const FLICKER_CHUNK: usize = 64;

/// Flicker (1/f) noise approximated by a sum of first-order lowpass
/// filtered white sources with octave-spaced corner frequencies — the
/// standard Voss-ish synthesis, adequate for demonstrating why the
/// second conversion stage needs DC-block/highpass filtering.
#[derive(Debug, Clone)]
pub struct FlickerNoise {
    /// `(state, pole, gain)` per octave section, I and Q independent.
    sections: Vec<(Complex, f64, f64)>,
    white_gain: f64,
    rng: Rng,
}

impl FlickerNoise {
    /// Creates flicker noise whose PSD equals `floor_power / fs` (the
    /// white floor density) at `corner_hz` and rises ~1/f below it.
    ///
    /// `floor_power` is in the `mean(|x|²)` convention over the full rate.
    ///
    /// # Panics
    ///
    /// Panics if `corner_hz` is not positive or not below `fs/2`.
    pub fn new(floor_power: f64, corner_hz: f64, sample_rate_hz: f64, rng: Rng) -> Self {
        assert!(
            corner_hz > 0.0 && corner_hz < sample_rate_hz / 2.0,
            "corner {corner_hz} Hz must be in (0, fs/2)"
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
            let pole = (-2.0 * std::f64::consts::PI * f / sample_rate_hz).exp();
            sections.push((Complex::ZERO, pole, (1.0 - pole) * weight));
            f /= 2.0;
            weight *= std::f64::consts::SQRT_2;
            if f < 0.01 {
                break;
            }
        }
        FlickerNoise {
            sections,
            white_gain: (floor_power / 2.0).sqrt(),
            rng,
        }
    }

    /// Next flicker-noise sample.
    pub fn next_sample(&mut self) -> Complex {
        let mut acc = Complex::ZERO;
        // Collect section count first to avoid borrowing issues.
        for i in 0..self.sections.len() {
            let w = self.rng.complex_gaussian(2.0);
            let (state, pole, gain) = self.sections[i];
            let new_state = state * pole + w * gain;
            self.sections[i].0 = new_state;
            acc += new_state;
        }
        acc * self.white_gain
    }

    /// Adds `next_sample() * scale` to every element of `buf`, with the
    /// white drive drawn in blocks: each chunk of 64 samples takes its
    /// `2 × sections` deviates per sample from one [`Rng::fill_gaussian`]
    /// call into a stack buffer, in exactly the order `next_sample`
    /// draws them. That drive is `complex_gaussian(2.0)`, whose sigma is
    /// exactly 1.0, so the deviates are used directly (IEEE
    /// multiplication by 1.0 is the identity) and the result is
    /// bit-identical.
    pub fn add_scaled_to(&mut self, buf: &mut [Complex], scale: f64) {
        let per_sample = 2 * self.sections.len();
        let mut g = [0.0f64; FLICKER_CHUNK * 2 * MAX_FLICKER_SECTIONS];
        for chunk in buf.chunks_mut(FLICKER_CHUNK) {
            let g = &mut g[..chunk.len() * per_sample];
            self.rng.fill_gaussian(g);
            for (v, drive) in chunk.iter_mut().zip(g.chunks_exact(per_sample)) {
                let mut acc = Complex::ZERO;
                for (s, w) in self.sections.iter_mut().zip(drive.chunks_exact(2)) {
                    let w = Complex::new(w[0], w[1]);
                    s.0 = s.0 * s.1 + w * s.2;
                    acc += s.0;
                }
                *v += (acc * self.white_gain) * scale;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_dsp::math::watts_to_dbm;
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
        use wlan_dsp::rng::COMPLEX_CHUNK;
        for seed in 0..4 {
            for n in [1, COMPLEX_CHUNK - 1, COMPLEX_CHUNK, COMPLEX_CHUNK + 1, 5377] {
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
        // 11 sections (the cap) and a low corner that stops at 4.
        for corner in [50e3, 0.1] {
            for n in [1, FLICKER_CHUNK - 1, FLICKER_CHUNK, FLICKER_CHUNK + 1, 1000] {
                let mut block = FlickerNoise::new(1e-6, corner, 1e6, Rng::new(8));
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
                assert_same_bits(&got, &want, &format!("flicker corner {corner} n {n}"));
            }
        }
    }

    #[test]
    #[should_panic]
    fn flicker_bad_corner_panics() {
        let _ = FlickerNoise::new(1e-6, 1e6, 1e6, Rng::new(4));
    }
}
