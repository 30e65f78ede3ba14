//! Behavioral quadrature mixer: conversion gain, noise, DC offset with
//! LO self-mixing, IQ imbalance, flicker noise and LO phase noise.
//!
//! In the complex-envelope representation the frequency translation
//! itself is implicit; the model carries the impairments the paper's
//! double-conversion architecture is designed around: "at the second
//! mixer stage the RF input signal and the LO signal both have the same
//! frequency and therefore dc-problems caused by the self mixing products
//! exist" (§2.2).

use crate::noise::{FlickerNoise, ThermalNoise};
use crate::phase_noise::PhaseNoise;
use wlan_dsp::{Complex, Rng};
use wlan_units::{Db, Dbm, Hz};

/// Mixer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixerConfig {
    /// Conversion gain.
    pub gain_db: Db,
    /// Noise figure.
    pub nf_db: Db,
    /// Output-referred DC offset from LO self-mixing
    /// (`None` = no DC offset).
    pub dc_offset_dbm: Option<Dbm>,
    /// Amplitude imbalance between I and Q (0 dB = balanced).
    pub iq_gain_imbalance_db: Db,
    /// Phase imbalance between I and Q in degrees (0 = perfect
    /// quadrature).
    pub iq_phase_imbalance_deg: f64,
    /// Flicker-noise corner frequency (`None` = no 1/f noise).
    pub flicker_corner_hz: Option<Hz>,
    /// LO phase-noise linewidth (0 Hz = ideal LO).
    pub lo_linewidth_hz: Hz,
}

impl Default for MixerConfig {
    fn default() -> Self {
        MixerConfig {
            gain_db: Db(6.0),
            nf_db: Db(10.0),
            dc_offset_dbm: None,
            iq_gain_imbalance_db: Db(0.0),
            iq_phase_imbalance_deg: 0.0,
            flicker_corner_hz: None,
            lo_linewidth_hz: Hz(0.0),
        }
    }
}

/// Behavioral quadrature mixer.
#[derive(Debug, Clone)]
pub struct Mixer {
    config: MixerConfig,
    a1: f64,
    /// IQ imbalance: `y = mu·x + nu·conj(x)`.
    mu: Complex,
    nu: Complex,
    dc: Complex,
    thermal: ThermalNoise,
    flicker: Option<FlickerNoise>,
    phase_noise: PhaseNoise,
    noise_enabled: bool,
}

impl Mixer {
    /// Creates a mixer at envelope rate `sample_rate_hz`.
    pub fn new(config: MixerConfig, sample_rate_hz: f64, mut rng: Rng) -> Self {
        let a1 = config.gain_db.to_amplitude_ratio();
        let g = config.iq_gain_imbalance_db.to_amplitude_ratio();
        let phi = config.iq_phase_imbalance_deg.to_radians();
        // Standard IQ imbalance decomposition.
        let ge = Complex::from_polar(g, phi);
        let mu = (Complex::ONE + ge) * 0.5;
        let nu = (Complex::ONE - ge.conj()) * 0.5;
        let dc = config
            .dc_offset_dbm
            .map(|dbm| Complex::from_re(dbm.to_amplitude().0))
            .unwrap_or(Complex::ZERO);
        // Every noise process forks its stream in this fixed order whether
        // or not it is configured, so switching one on or off leaves the
        // others' draws unchanged.
        let thermal = ThermalNoise::from_noise_figure(config.nf_db, sample_rate_hz, rng.fork());
        let flicker_rng = rng.fork();
        let flicker = config.flicker_corner_hz.map(|corner| {
            FlickerNoise::new(
                crate::noise::added_noise_power(config.nf_db, sample_rate_hz).max(1e-30),
                corner.0,
                sample_rate_hz,
                flicker_rng,
            )
        });
        let phase_noise = PhaseNoise::new(config.lo_linewidth_hz.0, sample_rate_hz, rng.fork());
        Mixer {
            config,
            a1,
            mu,
            nu,
            dc,
            thermal,
            flicker,
            phase_noise,
            noise_enabled: true,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MixerConfig {
        &self.config
    }

    /// Enables or disables all stochastic noise (thermal, flicker, LO).
    pub fn set_noise_enabled(&mut self, enabled: bool) {
        self.noise_enabled = enabled;
        self.phase_noise
            .set_enabled(enabled && self.config.lo_linewidth_hz.0 > 0.0);
    }

    /// Image rejection ratio `|μ|²/|ν|²` implied by the IQ imbalance
    /// (infinite for a balanced mixer).
    pub fn image_rejection_db(&self) -> Db {
        Db::from_linear(self.mu.norm_sqr() / self.nu.norm_sqr())
    }

    /// Processes one sample.
    #[inline]
    pub fn push(&mut self, x: Complex) -> Complex {
        let mut v = x;
        if self.noise_enabled {
            v += self.thermal.next_sample();
        }
        v = self.phase_noise.push(v);
        // IQ imbalance, then gain, then DC offset at the output.
        let bal = self.mu * v + self.nu * v.conj();
        let mut y = bal * self.a1 + self.dc;
        if self.noise_enabled {
            if let Some(f) = self.flicker.as_mut() {
                y += f.next_sample() * self.a1;
            }
        }
        y
    }

    /// Processes a frame.
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        x.iter().map(|&v| self.push(v)).collect()
    }

    /// Processes a frame in place, stage-major: thermal pass, LO
    /// phase-noise pass, a pure (autovectorizable) IQ/gain/DC pass, then
    /// the flicker pass. Every noise process owns its RNG stream, so each
    /// stream sees the same draw order as per-sample [`Mixer::push`] and
    /// the output is bit-identical.
    pub fn process_in_place(&mut self, x: &mut [Complex]) {
        if self.noise_enabled {
            self.thermal.add_to(x);
        }
        self.phase_noise.process_in_place(x);
        let (mu, nu, a1, dc) = (self.mu, self.nu, self.a1, self.dc);
        for v in x.iter_mut() {
            let bal = mu * *v + nu * v.conj();
            *v = bal * a1 + dc;
        }
        if self.noise_enabled {
            if let Some(f) = self.flicker.as_mut() {
                f.add_scaled_to(x, a1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_dsp::complex::mean_power;
    use wlan_dsp::goertzel::tone_power_dbm;
    use wlan_dsp::math::lin_to_db;

    fn tone(f: f64, fs: f64, amp: f64, n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::from_polar(amp, 2.0 * std::f64::consts::PI * f * i as f64 / fs))
            .collect()
    }

    #[test]
    fn ideal_mixer_is_pure_gain() {
        let cfg = MixerConfig {
            gain_db: Db(6.0),
            nf_db: Db(0.0),
            ..Default::default()
        };
        let mut m = Mixer::new(cfg, 80e6, Rng::new(1));
        m.set_noise_enabled(false);
        let x = tone(1e6, 80e6, 0.01, 1000);
        let y = m.process(&x);
        let g = lin_to_db(mean_power(&y) / mean_power(&x));
        assert!((g - 6.0).abs() < 1e-6, "gain {g}");
    }

    #[test]
    fn dc_offset_appears_at_output() {
        let cfg = MixerConfig {
            gain_db: Db(0.0),
            nf_db: Db(0.0),
            dc_offset_dbm: Some(Dbm(-40.0)),
            ..Default::default()
        };
        let mut m = Mixer::new(cfg, 80e6, Rng::new(2));
        m.set_noise_enabled(false);
        let y = m.process(&vec![Complex::ZERO; 4000]);
        let p = tone_power_dbm(&y, 0.0, 80e6);
        assert!((p - (-40.0)).abs() < 0.1, "dc {p} dBm");
    }

    #[test]
    fn iq_imbalance_creates_image() {
        let cfg = MixerConfig {
            gain_db: Db(0.0),
            nf_db: Db(0.0),
            iq_gain_imbalance_db: Db(1.0),
            iq_phase_imbalance_deg: 2.0,
            ..Default::default()
        };
        let mut m = Mixer::new(cfg, 80e6, Rng::new(3));
        m.set_noise_enabled(false);
        let fs = 80e6;
        let f0 = 5e6;
        let x = tone(f0, fs, 1.0, 16000);
        let y = m.process(&x);
        let sig = tone_power_dbm(&y, f0, fs);
        let img = tone_power_dbm(&y, -f0, fs);
        let irr = sig - img;
        assert!(
            (irr - m.image_rejection_db().0).abs() < 0.5,
            "measured IRR {irr}, model {}",
            m.image_rejection_db()
        );
        // ~1 dB / 2° imbalance → IRR in the 20–30 dB range.
        assert!(irr > 18.0 && irr < 32.0, "IRR {irr}");
    }

    #[test]
    fn balanced_mixer_has_no_image() {
        let m = Mixer::new(MixerConfig::default(), 80e6, Rng::new(4));
        assert!(m.image_rejection_db().0 > 200.0);
    }

    #[test]
    fn flicker_noise_concentrates_at_dc() {
        let cfg = MixerConfig {
            gain_db: Db(0.0),
            nf_db: Db(10.0),
            flicker_corner_hz: Some(Hz(200e3)),
            ..Default::default()
        };
        let fs = 20e6;
        let mut m = Mixer::new(cfg, fs, Rng::new(5));
        let y = m.process(&vec![Complex::ZERO; 1 << 16]);
        let (freqs, psd) = wlan_dsp::spectrum::welch_psd(&y, 4096, fs);
        let lowband: f64 = freqs
            .iter()
            .zip(psd.iter())
            .filter(|(f, _)| f.abs() < 50e3)
            .map(|(_, p)| *p)
            .sum::<f64>();
        let highband: f64 = freqs
            .iter()
            .zip(psd.iter())
            .filter(|(f, _)| (f.abs() - 5e6).abs() < 50e3)
            .map(|(_, p)| *p)
            .sum::<f64>();
        assert!(
            lowband > 5.0 * highband,
            "flicker not visible: {lowband} vs {highband}"
        );
    }

    #[test]
    fn flicker_leaves_thermal_and_phase_noise_draws_unchanged() {
        // Flicker is added after IQ/gain, so with a balanced 0 dB mixer
        // and no DC offset the output is `(x + thermal)·cis(φ) + flicker`:
        // with flicker off the same input must give the flicker-on output
        // minus the flicker alone.
        let cfg = MixerConfig {
            gain_db: Db(0.0),
            nf_db: Db(10.0),
            lo_linewidth_hz: Hz(5e3),
            ..Default::default()
        };
        let with = MixerConfig {
            flicker_corner_hz: Some(Hz(100e3)),
            ..cfg
        };
        let fs = 80e6;
        let x = tone(2e6, fs, 1e-4, 4096);
        let mut off = Mixer::new(cfg, fs, Rng::new(11));
        let mut on = Mixer::new(with, fs, Rng::new(11));
        let y_off = off.process(&x);
        let y_on = on.process(&x);
        assert_ne!(y_off, y_on);
        // The flicker stream is the second fork of the mixer's RNG.
        let mut parent = Rng::new(11);
        let _thermal = parent.fork();
        let mut flicker = FlickerNoise::new(
            crate::noise::added_noise_power(cfg.nf_db, fs),
            100e3,
            fs,
            parent.fork(),
        );
        for (i, (&a, &b)) in y_off.iter().zip(&y_on).enumerate() {
            let want = a + flicker.next_sample();
            assert_eq!(want.re.to_bits(), b.re.to_bits(), "sample {i}");
            assert_eq!(want.im.to_bits(), b.im.to_bits(), "sample {i}");
        }
        assert_eq!(off.phase_noise.phase(), on.phase_noise.phase());
    }

    #[test]
    fn noise_disabled_is_deterministic() {
        let cfg = MixerConfig {
            flicker_corner_hz: Some(Hz(100e3)),
            lo_linewidth_hz: Hz(1e3),
            ..Default::default()
        };
        let mut m1 = Mixer::new(cfg, 80e6, Rng::new(6));
        let mut m2 = Mixer::new(cfg, 80e6, Rng::new(77));
        m1.set_noise_enabled(false);
        m2.set_noise_enabled(false);
        let x = tone(2e6, 80e6, 0.1, 200);
        assert_eq!(m1.process(&x), m2.process(&x));
    }
}
