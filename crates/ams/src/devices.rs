//! Behavioral analog device library: the models the netlist can
//! instantiate. Each device advances by one analog timestep `dt`.
//!
//! Matching the paper's observation that the AMS simulator could not run
//! the `white_noise`/`flicker_noise` functions in transient analysis,
//! these devices are *noiseless* by default; [`AnalogDevice`] is the
//! common trait.

use crate::solver::StateSpaceFilter;
use wlan_dsp::design::{AnalogFilter, FilterKind};
use wlan_dsp::Complex;
use wlan_rf::nonlinearity::Nonlinearity;
use wlan_units::{Db, Dbm, Hz};

/// A continuous-time behavioral device.
///
/// `Send` is a supertrait so elaborated device chains (and the
/// receivers holding them) can migrate between the session engine's
/// worker threads; every in-tree device is plain state.
pub trait AnalogDevice: Send {
    /// Device instance name.
    fn name(&self) -> &str;

    /// Advances by `dt` seconds with input `u` (ZOH), returning the
    /// output.
    fn step(&mut self, u: Complex, dt: f64) -> Complex;

    /// Advances over a block of samples in place: `buf[i]` is replaced by
    /// the output of the `i`-th step. One virtual dispatch per block
    /// instead of per sample; implementations may hoist per-step
    /// constants, but must produce outputs bit-identical to calling
    /// [`AnalogDevice::step`] on each sample in order (the block-vs-
    /// sample differential tests pin this).
    fn step_block(&mut self, buf: &mut [Complex], dt: f64) {
        for v in buf.iter_mut() {
            *v = self.step(*v, dt);
        }
    }

    /// Resets internal state.
    fn reset(&mut self);

    /// `true` when the device is a pure function of its current input:
    /// no state and no dependence on `dt`. The co-simulation bridge runs
    /// a chain's leading memoryless devices once per held system sample
    /// instead of once per analog sub-step — exact, because a pure
    /// function of a held input returns the same bits on every sub-step.
    fn is_memoryless(&self) -> bool {
        false
    }

    /// Largest pole magnitude `|λ|` (rad/s) of the device's linear
    /// dynamics that the fixed-step solver integrates; 0 for a device
    /// without any.
    fn fastest_pole(&self) -> f64 {
        0.0
    }
}

/// Amplifier: gain plus optional compression (memoryless).
#[derive(Debug, Clone)]
pub struct AnalogAmplifier {
    name: String,
    a1: f64,
    nonlinearity: Nonlinearity,
}

impl AnalogAmplifier {
    /// Creates an amplifier with gain `gain_db` and a nonlinearity.
    pub fn new(name: impl Into<String>, gain_db: Db, nonlinearity: Nonlinearity) -> Self {
        AnalogAmplifier {
            name: name.into(),
            a1: gain_db.to_amplitude_ratio(),
            nonlinearity,
        }
    }
}

impl AnalogDevice for AnalogAmplifier {
    fn name(&self) -> &str {
        &self.name
    }
    fn step(&mut self, u: Complex, _dt: f64) -> Complex {
        self.nonlinearity.apply(u, self.a1)
    }
    fn step_block(&mut self, buf: &mut [Complex], _dt: f64) {
        // Memoryless: hoist the nonlinearity constants once per block
        // (`prepare` is bit-identical to per-sample `apply`).
        let nl = self.nonlinearity.prepare(self.a1);
        for v in buf.iter_mut() {
            *v = nl.apply(*v);
        }
    }
    fn reset(&mut self) {}
    fn is_memoryless(&self) -> bool {
        true
    }
}

/// Mixer: conversion gain and DC offset (memoryless, noiseless).
#[derive(Debug, Clone)]
pub struct AnalogMixer {
    name: String,
    a1: f64,
    dc: Complex,
}

impl AnalogMixer {
    /// Creates a mixer with gain `gain_db` and optional output DC
    /// offset.
    pub fn new(name: impl Into<String>, gain_db: Db, dc_offset_dbm: Option<Dbm>) -> Self {
        AnalogMixer {
            name: name.into(),
            a1: gain_db.to_amplitude_ratio(),
            dc: dc_offset_dbm
                .map(|dbm| Complex::from_re(dbm.to_amplitude().0))
                .unwrap_or(Complex::ZERO),
        }
    }
}

impl AnalogDevice for AnalogMixer {
    fn name(&self) -> &str {
        &self.name
    }
    fn step(&mut self, u: Complex, _dt: f64) -> Complex {
        u * self.a1 + self.dc
    }
    fn step_block(&mut self, buf: &mut [Complex], _dt: f64) {
        // Memoryless and branch-free: a pure autovectorizable pass.
        let (a1, dc) = (self.a1, self.dc);
        for v in buf.iter_mut() {
            *v = *v * a1 + dc;
        }
    }
    fn reset(&mut self) {}
    fn is_memoryless(&self) -> bool {
        true
    }
}

/// Continuous-time filter device (Chebyshev/Butterworth LP or HP).
#[derive(Debug, Clone)]
pub struct AnalogFilterDevice {
    name: String,
    filter: StateSpaceFilter,
}

impl AnalogFilterDevice {
    /// Chebyshev type-I lowpass.
    pub fn chebyshev_lowpass(
        name: impl Into<String>,
        order: usize,
        ripple_db: Db,
        edge_hz: Hz,
    ) -> Self {
        let af = AnalogFilter::chebyshev1(order, ripple_db.0, FilterKind::Lowpass, edge_hz.0);
        AnalogFilterDevice {
            name: name.into(),
            filter: StateSpaceFilter::from_analog(&af),
        }
    }

    /// Butterworth highpass (the inter-stage DC block).
    pub fn butterworth_highpass(name: impl Into<String>, order: usize, cutoff_hz: Hz) -> Self {
        let af = AnalogFilter::butterworth(order, FilterKind::Highpass, cutoff_hz.0);
        AnalogFilterDevice {
            name: name.into(),
            filter: StateSpaceFilter::from_analog(&af),
        }
    }

    /// Number of continuous states.
    pub fn state_count(&self) -> usize {
        self.filter.state_count()
    }
}

impl AnalogDevice for AnalogFilterDevice {
    fn name(&self) -> &str {
        &self.name
    }
    fn step(&mut self, u: Complex, dt: f64) -> Complex {
        self.filter.step(u, dt)
    }
    fn step_block(&mut self, buf: &mut [Complex], dt: f64) {
        self.filter.step_block(buf, dt);
    }
    fn reset(&mut self) {
        self.filter.reset();
    }
    fn fastest_pole(&self) -> f64 {
        self.filter.fastest_pole()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplifier_gain() {
        let mut a = AnalogAmplifier::new("a", Db(20.0), Nonlinearity::Linear);
        let y = a.step(Complex::ONE, 1e-9);
        assert!((y.re - 10.0).abs() < 1e-12);
        assert_eq!(a.name(), "a");
    }

    #[test]
    fn amplifier_compresses() {
        let mut a = AnalogAmplifier::new("a", Db(0.0), Nonlinearity::rapp(Dbm(-10.0)));
        let small = a.step(Complex::from_re(1e-4), 1e-9).abs() / 1e-4;
        let large = a.step(Complex::from_re(1.0), 1e-9).abs() / 1.0;
        assert!(large < small * 0.5);
    }

    #[test]
    fn mixer_dc_offset() {
        let mut m = AnalogMixer::new("m", Db(6.0), Some(Dbm(-30.0)));
        let y = m.step(Complex::ZERO, 1e-9);
        let expect = Dbm(-30.0).to_amplitude().0;
        assert!((y.re - expect).abs() < 1e-12);
    }

    #[test]
    fn filter_device_smooths() {
        let mut f = AnalogFilterDevice::chebyshev_lowpass("lpf", 5, Db(0.5), Hz(10e6));
        assert_eq!(f.state_count(), 5);
        let dt = 1.0 / 320e6;
        let mut y = Complex::ZERO;
        for _ in 0..100_000 {
            y = f.step(Complex::ONE, dt);
        }
        assert!((y.re - 1.0).abs() < 0.01, "dc {}", y.re);
        f.reset();
        assert_eq!(f.step(Complex::ZERO, dt), Complex::ZERO);
    }

    #[test]
    fn highpass_device_blocks_dc() {
        let mut f = AnalogFilterDevice::butterworth_highpass("hpf", 2, Hz(150e3));
        let dt = 1.0 / 320e6;
        let mut y = Complex::ONE;
        for _ in 0..2_000_000 {
            y = f.step(Complex::ONE, dt);
        }
        assert!(y.abs() < 0.02, "dc residue {}", y.abs());
    }
}

/// Continuous-time AGC: an RC power detector driving a log-domain gain
/// loop — the "amplified by an automatic gain controlled amplifier"
/// stage of the paper's Fig. 2, in analog form.
#[derive(Debug, Clone)]
pub struct AnalogAgc {
    name: String,
    target_power: f64,
    /// Detector time constant (s).
    tau_det: f64,
    /// Loop gain (1/s).
    loop_gain: f64,
    power_est: f64,
    log_gain: f64,
}

impl AnalogAgc {
    /// Creates an AGC leveling to `target_power` (`mean(|x|²)`), with
    /// detector time constant `tau_det_s` and loop gain `loop_gain_hz`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive parameters.
    pub fn new(
        name: impl Into<String>,
        target_power: f64,
        tau_det_s: f64,
        loop_gain_hz: f64,
    ) -> Self {
        assert!(
            target_power > 0.0 && tau_det_s > 0.0 && loop_gain_hz > 0.0,
            "AGC parameters must be positive"
        );
        AnalogAgc {
            name: name.into(),
            target_power,
            tau_det: tau_det_s,
            loop_gain: loop_gain_hz,
            power_est: target_power,
            log_gain: 0.0,
        }
    }
}

impl AnalogDevice for AnalogAgc {
    fn name(&self) -> &str {
        &self.name
    }
    fn step(&mut self, u: Complex, dt: f64) -> Complex {
        let y = u * self.log_gain.exp();
        // RC detector on the *output* power; log-domain integrator.
        let p = y.norm_sqr();
        self.power_est += (p - self.power_est) * (dt / self.tau_det).min(1.0);
        let err = (self.target_power / self.power_est.max(1e-300)).ln();
        self.log_gain += self.loop_gain * err * dt;
        // Clamp to a physical gain range (±60 dB).
        self.log_gain = self.log_gain.clamp(-6.9, 6.9);
        y
    }
    fn reset(&mut self) {
        self.power_est = self.target_power;
        self.log_gain = 0.0;
    }
}

#[cfg(test)]
mod agc_tests {
    use super::*;

    #[test]
    fn analog_agc_converges_to_target() {
        let mut agc = AnalogAgc::new("agc", 1.0, 2e-6, 2e5);
        let dt = 1.0 / 320e6;
        let amp = 1e-2; // input power 1e-4, needs +40 dB of gain
        let mut p_tail = 0.0;
        let mut count = 0;
        let n = 3_000_000;
        for i in 0..n {
            let u = Complex::from_polar(amp, 0.3 * i as f64);
            let y = agc.step(u, dt);
            if i > n * 3 / 4 {
                p_tail += y.norm_sqr();
                count += 1;
            }
        }
        let p = p_tail / count as f64;
        assert!((p - 1.0).abs() < 0.2, "settled power {p}");
    }

    #[test]
    fn analog_agc_tracks_level_step() {
        let mut agc = AnalogAgc::new("agc", 1.0, 2e-6, 2e5);
        let dt = 1.0 / 320e6;
        for i in 0..2_000_000 {
            agc.step(Complex::from_polar(0.1, 0.3 * i as f64), dt);
        }
        // 20 dB drop; loop must re-converge.
        let mut p_tail = 0.0;
        let mut count = 0;
        let n = 3_000_000;
        for i in 0..n {
            let y = agc.step(Complex::from_polar(0.01, 0.3 * i as f64), dt);
            if i > n * 3 / 4 {
                p_tail += y.norm_sqr();
                count += 1;
            }
        }
        let p = p_tail / count as f64;
        assert!((p - 1.0).abs() < 0.25, "after step: {p}");
    }

    #[test]
    #[should_panic]
    fn analog_agc_bad_params_panic() {
        let _ = AnalogAgc::new("agc", 0.0, 1e-6, 1e5);
    }
}
