//! Oversampled scene composition: the wanted channel plus
//! frequency-offset interferers (the paper's adjacent channel at
//! +20 MHz, §4.1: "the transmitter model was duplicated and its OFDM
//! signal was shifted by 20 MHz in the frequency domain; the baseband
//! signal was over-sampled to fulfill the sampling theorem").

use crate::level::power_scale;
use wlan_dsp::resample::{FrequencyShifter, Upsampler};
use wlan_dsp::Complex;
use wlan_units::{Dbm, Hz};

/// One signal in the scene.
#[derive(Debug, Clone)]
struct Emitter {
    samples: Vec<Complex>,
    offset: Hz,
    power: Dbm,
    /// Delay at the oversampled rate before the burst begins.
    delay: usize,
}

/// Builder for a composite oversampled baseband scene.
///
/// All input signals are at the DSP rate (`base_rate_hz`); the scene is
/// rendered at `base_rate_hz · osr`.
///
/// # Example
///
/// ```
/// use wlan_channel::Scene;
/// use wlan_dsp::Complex;
/// let burst: Vec<Complex> = (0..256).map(|n| Complex::cis(0.01 * n as f64)).collect();
/// let scene = Scene::new(20e6, 4)
///     .add(&burst, 0.0, -40.0, 0)
///     .add(&burst, 20e6, -24.0, 0)
///     .render();
/// assert_eq!(scene.len(), 256 * 4);
/// ```
#[derive(Debug, Clone)]
pub struct Scene {
    renderer: SceneRenderer,
    emitters: Vec<Emitter>,
}

impl Scene {
    /// Creates a scene at base rate `base_rate_hz` with oversampling
    /// ratio `osr`.
    ///
    /// # Panics
    ///
    /// Panics if `osr` is zero or the rate is not positive.
    pub fn new(base_rate_hz: f64, osr: usize) -> Self {
        Scene {
            renderer: SceneRenderer::new(base_rate_hz, osr),
            emitters: Vec::new(),
        }
    }

    /// Oversampled rate of the rendered scene.
    pub fn sample_rate(&self) -> f64 {
        self.renderer.sample_rate()
    }

    /// Oversampling ratio.
    pub fn osr(&self) -> usize {
        self.renderer.osr()
    }

    /// Adds an emitter: `samples` at the base rate, shifted to
    /// `offset_hz`, scaled to `power_dbm` mean power, starting after
    /// `delay` oversampled-rate samples.
    ///
    /// # Panics
    ///
    /// Panics if the offset exceeds the rendered Nyquist range.
    pub fn add(self, samples: &[Complex], offset_hz: f64, power_dbm: f64, delay: usize) -> Self {
        self.add_emitter(samples, Hz(offset_hz), Dbm(power_dbm), delay)
    }

    /// [`Scene::add`] with dimension-safe offset and level.
    ///
    /// # Panics
    ///
    /// Panics if the offset exceeds the rendered Nyquist range.
    pub fn add_emitter(
        mut self,
        samples: &[Complex],
        offset: Hz,
        power: Dbm,
        delay: usize,
    ) -> Self {
        self.renderer.check_offset(offset);
        self.emitters.push(Emitter {
            samples: samples.to_vec(),
            offset,
            power,
            delay,
        });
        self
    }

    /// Renders the composite scene at the oversampled rate. Output length
    /// covers the longest emitter (including its delay); a zero-power
    /// emitter contributes silence (see [`SceneRenderer::add_into`]).
    pub fn render(&self) -> Vec<Complex> {
        let mut renderer = self.renderer.clone();
        let mut out = Vec::new();
        for e in &self.emitters {
            renderer.add_into(&e.samples, e.offset, e.power, e.delay, &mut out);
        }
        out
    }
}

/// The scene's emitter pipeline, for hot loops: emitters are rendered
/// straight into a caller-owned accumulator, the interpolator and
/// intermediate buffer are reused across emitters and packets (DESIGN
/// §10 scratch-arena discipline), and sample slices are borrowed
/// instead of copied. [`Scene::render`] is a loop over
/// [`SceneRenderer::add_into`].
#[derive(Debug, Clone)]
pub struct SceneRenderer {
    base_rate_hz: f64,
    osr: usize,
    up: Upsampler,
    /// Oversampled per-emitter intermediate, reused across emitters.
    hi: Vec<Complex>,
}

impl SceneRenderer {
    /// Creates a renderer at base rate `base_rate_hz` with oversampling
    /// ratio `osr` (same interpolator length as [`Scene`]: 32 taps per
    /// polyphase branch).
    ///
    /// # Panics
    ///
    /// Panics if `osr` is zero or the rate is not positive.
    pub fn new(base_rate_hz: f64, osr: usize) -> Self {
        assert!(osr >= 1, "oversampling ratio must be >= 1");
        assert!(base_rate_hz > 0.0, "sample rate must be positive");
        SceneRenderer {
            base_rate_hz,
            osr,
            up: Upsampler::new(osr, 32),
            hi: Vec::new(),
        }
    }

    /// Oversampled rate of the rendered scene.
    pub fn sample_rate(&self) -> f64 {
        self.base_rate_hz * self.osr as f64
    }

    /// Oversampling ratio.
    pub fn osr(&self) -> usize {
        self.osr
    }

    /// Panics unless `offset` lies inside the rendered Nyquist range.
    fn check_offset(&self, offset: Hz) {
        let nyquist = self.sample_rate() / 2.0;
        assert!(
            offset.0.abs() < nyquist,
            "offset {offset} outside ±{nyquist} Hz"
        );
    }

    /// Renders one emitter and adds it into `out` (which accumulates the
    /// composite scene; clear it before the first emitter of a packet):
    /// a fresh-state upsample, then one pass that scales to `power`,
    /// shifts to `offset` and adds at `delay`. `out` grows with zero
    /// fill to `delay + osr·samples.len()` when the emitter extends past
    /// the current scene end; it is never truncated.
    ///
    /// # Behaviour
    ///
    /// An emitter of zero (or NaN) mean power, such as an empty one,
    /// renders as silence: `out` still grows, nothing is added.
    ///
    /// # Panics
    ///
    /// Panics if the offset exceeds the rendered Nyquist range.
    pub fn add_into(
        &mut self,
        samples: &[Complex],
        offset: Hz,
        power: Dbm,
        delay: usize,
        out: &mut Vec<Complex>,
    ) {
        self.check_offset(offset);
        self.up.reset();
        self.up.process_into(samples, &mut self.hi);
        let end = delay + self.hi.len();
        if out.len() < end {
            out.resize(end, Complex::ZERO);
        }
        if let Some(k) = power_scale(&self.hi, power) {
            let mut shifter = FrequencyShifter::new(offset.0, self.sample_rate());
            shifter.add_scaled_into(&self.hi, k, &mut out[delay..end]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::power_dbm;
    use wlan_dsp::spectrum::{band_power, welch_psd};
    use wlan_dsp::Rng;

    fn noise_burst(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| rng.complex_gaussian(1.0)).collect()
    }

    #[test]
    fn render_length_and_power() {
        let b = noise_burst(2048, 1);
        let scene = Scene::new(20e6, 4).add(&b, 0.0, -30.0, 0).render();
        assert_eq!(scene.len(), 8192);
        // Skipping the interpolation transient, power ≈ −30 dBm.
        let p = power_dbm(&scene[1024..]);
        assert!((p - (-30.0)).abs() < 0.5, "power {p}");
    }

    #[test]
    fn adjacent_channel_lands_at_offset() {
        let b = noise_burst(8192, 2);
        let scene = Scene::new(20e6, 4)
            .add(&b, 0.0, -40.0, 0)
            .add(&b, 20e6, -24.0, 0)
            .render();
        let fs = 80e6;
        let (freqs, psd) = welch_psd(&scene[2048..], 1024, fs);
        let main = band_power(&freqs, &psd, -9e6, 9e6);
        let adj = band_power(&freqs, &psd, 11e6, 29e6);
        let ratio_db = wlan_dsp::math::lin_to_db(adj / main);
        assert!((ratio_db - 16.0).abs() < 1.0, "adj/main {ratio_db} dB");
    }

    #[test]
    fn delay_offsets_burst() {
        let b = noise_burst(256, 3);
        let scene = Scene::new(20e6, 2).add(&b, 0.0, -30.0, 100).render();
        assert_eq!(scene.len(), 100 + 512);
        assert!(scene[..100].iter().all(|v| v.abs() == 0.0));
    }

    #[test]
    fn two_emitters_superpose() {
        let b = noise_burst(1024, 4);
        let one = Scene::new(20e6, 2).add(&b, 0.0, -30.0, 0).render();
        let two = Scene::new(20e6, 2)
            .add(&b, 0.0, -30.0, 0)
            .add(&b, 0.0, -30.0, 0)
            .render();
        for (a, c) in one.iter().zip(two.iter()) {
            assert!((*c - *a * 2.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn offset_beyond_nyquist_panics() {
        let b = noise_burst(64, 5);
        let _ = Scene::new(20e6, 1).add(&b, 20e6, -30.0, 0);
    }

    #[test]
    fn renderer_matches_scene_bit_exact() {
        // Two emitters with distinct offsets, powers and delays; the
        // reused renderer must reproduce the allocating builder bit for
        // bit, including across repeated renders (state reset check).
        let a = noise_burst(700, 6);
        let b = noise_burst(300, 7);
        let want = Scene::new(20e6, 4)
            .add(&a, 0.0, -40.0, 256)
            .add(&b, 20e6, -24.0, 0)
            .render();
        let mut r = SceneRenderer::new(20e6, 4);
        assert_eq!(r.osr(), 4);
        assert_eq!(r.sample_rate(), 80e6);
        let mut out = Vec::new();
        for _ in 0..2 {
            out.clear();
            r.add_into(&a, Hz(0.0), Dbm(-40.0), 256, &mut out);
            r.add_into(&b, Hz(20e6), Dbm(-24.0), 0, &mut out);
            assert_eq!(out.len(), want.len());
            for (g, w) in out.iter().zip(want.iter()) {
                assert_eq!(g.re.to_bits(), w.re.to_bits());
                assert_eq!(g.im.to_bits(), w.im.to_bits());
            }
        }
    }

    #[test]
    #[should_panic]
    fn renderer_offset_beyond_nyquist_panics() {
        let b = noise_burst(64, 8);
        let mut out = Vec::new();
        SceneRenderer::new(20e6, 1).add_into(&b, Hz(20e6), Dbm(-30.0), 0, &mut out);
    }
}
