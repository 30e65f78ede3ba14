//! Local-oscillator phase noise: Wiener (random-walk) phase model, the
//! standard behavioral model for a free-running VCO disciplined by a PLL
//! with loop bandwidth well below the subcarrier spacing.

use wlan_dsp::rotor::Rotor;
use wlan_dsp::{Complex, Rng};

/// Wiener phase-noise process.
///
/// The phase performs a random walk with per-sample variance
/// `2π·linewidth/fs`, giving a Lorentzian phase-noise spectrum with the
/// given 3 dB linewidth. Sample `n` is multiplied by a [`Rotor`] walk
/// phasor `≈ cis(φ_n)`: each step multiplies by the increment's series
/// (or its exact `cis` past `|δ| = 1/64`), and every 64th sample of the
/// absolute count re-anchors to the exact `cis(φ_n)`. The phase `φ_n`
/// itself is the plain accumulation `φ += σ·g`.
#[derive(Debug, Clone)]
pub struct PhaseNoise {
    sigma: f64,
    rotor: Rotor,
    rng: Rng,
    enabled: bool,
}

impl PhaseNoise {
    /// Creates a phase-noise source with `linewidth_hz` Lorentzian
    /// linewidth at sample rate `sample_rate_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `linewidth_hz` is negative.
    pub fn new(linewidth_hz: f64, sample_rate_hz: f64, rng: Rng) -> Self {
        assert!(linewidth_hz >= 0.0, "linewidth must be non-negative");
        PhaseNoise {
            sigma: (2.0 * std::f64::consts::PI * linewidth_hz / sample_rate_hz).sqrt(),
            rotor: Rotor::walk(),
            rng,
            enabled: linewidth_hz > 0.0,
        }
    }

    /// A disabled (zero phase noise) source.
    pub fn off() -> Self {
        PhaseNoise::new(0.0, 1.0, Rng::new(0))
    }

    /// Enables or disables the noise process.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Applies the oscillator phase to one sample and advances the walk.
    #[inline]
    pub fn push(&mut self, x: Complex) -> Complex {
        if !self.enabled {
            return x;
        }
        let y = x * self.rotor.phasor();
        self.rotor.step_by(self.sigma * self.rng.gaussian());
        y
    }

    /// Applies to a frame.
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        x.iter().map(|&v| self.push(v)).collect()
    }

    /// Applies the oscillator to a frame in place — one enabled check for
    /// the whole frame instead of per sample; otherwise the exact
    /// per-sample recurrence of [`PhaseNoise::push`], so bit-identical.
    pub fn process_in_place(&mut self, x: &mut [Complex]) {
        if !self.enabled {
            return;
        }
        for v in x {
            *v *= self.rotor.phasor();
            self.rotor.step_by(self.sigma * self.rng.gaussian());
        }
    }

    /// Current accumulated phase (radians).
    pub fn phase(&self) -> f64 {
        self.rotor.phase()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_identity() {
        let mut pn = PhaseNoise::off();
        let x = Complex::new(1.0, 2.0);
        assert_eq!(pn.push(x), x);
    }

    #[test]
    fn process_in_place_matches_push() {
        for seed in 0..4 {
            for n in [1, 2, 63, 64, 65, 5377] {
                let x: Vec<Complex> = (0..n).map(|i| Complex::from_polar(1.5, i as f64)).collect();
                let mut block = PhaseNoise::new(5e3, 80e6, Rng::new(seed));
                let mut scalar = block.clone();
                let mut got = x.clone();
                // Two frames, so the second starts mid-stream.
                block.process_in_place(&mut got[..n / 2]);
                block.process_in_place(&mut got[n / 2..]);
                let want: Vec<Complex> = x.iter().map(|&v| scalar.push(v)).collect();
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.re.to_bits(), w.re.to_bits(), "seed {seed} n {n} at {i}");
                    assert_eq!(g.im.to_bits(), w.im.to_bits(), "seed {seed} n {n} at {i}");
                }
                assert_eq!(block.phase().to_bits(), scalar.phase().to_bits());
            }
        }
    }

    /// Runs `n` samples of a unit-modulus sweep through the rotor model
    /// in uneven frames and through the exact-trig reference
    /// `x·cis(φ_n)`; returns the largest `|y − y_ref|/|x|`.
    fn reference_error(linewidth_hz: f64, n: usize, seed: u64) -> f64 {
        use wlan_conformance::refimpl::phase_noise_reference;
        let fs = 80e6;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::from_polar(0.5, 0.37 * i as f64))
            .collect();
        let (want, final_phase) = phase_noise_reference(&x, linewidth_hz, fs, Rng::new(seed));
        let mut pn = PhaseNoise::new(linewidth_hz, fs, Rng::new(seed));
        let mut got = x.clone();
        let (head, tail) = got.split_at_mut(777);
        pn.process_in_place(head);
        pn.process_in_place(tail);
        // The walk itself is the reference's accumulation, bit for bit.
        assert_eq!(pn.phase().to_bits(), final_phase.to_bits());
        got.iter()
            .zip(&want)
            .zip(&x)
            .map(|((g, w), v)| (*g - *w).abs() / v.abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn rotor_tracks_the_exact_trig_reference() {
        // 200 Hz at 80 Msps (the receiver's LOs, |δ| ≤ 1/64 all but
        // never) and 32 kHz (σ = 0.05: most steps take the exact `cis`
        // branch, the rest the series).
        for (lw, seed) in [(200.0, 3), (32e3, 4)] {
            let err = reference_error(lw, 1 << 16, seed);
            assert!(err <= 1e-12, "linewidth {lw} Hz: error {err:e}");
        }
    }

    /// The 10^6-sample drift check; opt in with `WLANSIM_SLOW_TESTS=1`.
    #[test]
    fn rotor_tracks_the_exact_trig_reference_long() {
        if std::env::var("WLANSIM_SLOW_TESTS").as_deref() != Ok("1") {
            return;
        }
        let err = reference_error(200.0, 1_000_000, 5);
        assert!(err <= 1e-12, "error {err:e}");
    }

    #[test]
    fn preserves_magnitude() {
        let mut pn = PhaseNoise::new(1e3, 20e6, Rng::new(1));
        for i in 0..1000 {
            let x = Complex::from_polar(2.0, i as f64);
            assert!((pn.push(x).abs() - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn phase_variance_grows_linearly() {
        // Wiener process: Var[φ(n)] = n·σ².
        let fs = 20e6;
        let lw = 10e3;
        let n = 2000usize;
        let trials = 400;
        let mut var = 0.0;
        for t in 0..trials {
            let mut pn = PhaseNoise::new(lw, fs, Rng::new(t as u64));
            for _ in 0..n {
                pn.push(Complex::ONE);
            }
            var += pn.phase() * pn.phase();
        }
        var /= trials as f64;
        let expect = n as f64 * 2.0 * std::f64::consts::PI * lw / fs;
        assert!(
            (var / expect - 1.0).abs() < 0.15,
            "var {var} vs expected {expect}"
        );
    }

    /// The walk's increments `φ[n+1] − φ[n]` are white Gaussian with
    /// variance `2π·linewidth/fs`: their mean, variance and lag-1
    /// correlation each within 5σ of their sampling error over `n` steps.
    fn check_wiener_increments(n: usize) {
        let (lw, fs) = (5e3, 80e6);
        let want = 2.0 * std::f64::consts::PI * lw / fs;
        let mut pn = PhaseNoise::new(lw, fs, Rng::new(41));
        let (mut sum, mut sum2, mut lag1, mut prev) = (0.0, 0.0, 0.0, 0.0);
        let mut phase = pn.phase();
        for _ in 0..n {
            pn.push(Complex::ONE);
            let d = pn.phase() - phase;
            phase = pn.phase();
            sum += d;
            sum2 += d * d;
            lag1 += prev * d;
            prev = d;
        }
        let m = n as f64;
        let z_mean = sum / m / (want / m).sqrt();
        let z_var = (sum2 / m - want) / (want * (2.0 / m).sqrt());
        let z_lag1 = lag1 / (m - 1.0) / (want * (1.0 / (m - 1.0)).sqrt());
        for (what, z) in [("mean", z_mean), ("variance", z_var), ("lag-1", z_lag1)] {
            assert!(z.abs() <= 5.0, "increment {what}: {z:+.2}σ");
        }
    }

    #[test]
    fn wiener_increments_have_the_linewidth_variance() {
        check_wiener_increments(1 << 22);
    }

    /// The 10^8-step version; opt in with `WLANSIM_SLOW_TESTS=1`.
    #[test]
    fn wiener_increments_have_the_linewidth_variance_long() {
        if std::env::var("WLANSIM_SLOW_TESTS").as_deref() != Ok("1") {
            return;
        }
        check_wiener_increments(100_000_000);
    }

    #[test]
    fn linewidth_broadening_visible_in_spectrum() {
        // A tone through heavy phase noise spreads energy out of its bin.
        use wlan_dsp::goertzel::tone_power;
        let fs = 1e6;
        let f0 = 100e3;
        let clean: Vec<Complex> = (0..65536)
            .map(|n| Complex::cis(2.0 * std::f64::consts::PI * f0 * n as f64 / fs))
            .collect();
        let mut pn = PhaseNoise::new(2e3, fs, Rng::new(5));
        let dirty = pn.process(&clean);
        let p_clean = tone_power(&clean, f0, fs);
        let p_dirty = tone_power(&dirty, f0, fs);
        assert!(
            p_dirty < 0.7 * p_clean,
            "no broadening: {p_dirty} vs {p_clean}"
        );
    }
}
