//! Additive white Gaussian noise.

use wlan_dsp::complex::mean_power;
use wlan_dsp::{Complex, Rng};
use wlan_units::Db;

/// AWGN generator with a deterministic stream.
#[derive(Debug, Clone)]
pub struct Awgn {
    rng: Rng,
}

impl Awgn {
    /// Creates a noise source from a seed.
    pub fn new(seed: u64) -> Self {
        Awgn {
            rng: Rng::new(seed),
        }
    }

    /// Adds complex Gaussian noise of total power `noise_power`
    /// (`E[|n|²]`, the `mean(|x|²)` convention) to each sample.
    pub fn add_noise_power(&mut self, x: &[Complex], noise_power: f64) -> Vec<Complex> {
        let mut out = x.to_vec();
        self.add_noise_power_in_place(&mut out, noise_power);
        out
    }

    /// [`Awgn::add_noise_power`] mutating the frame in place, so the
    /// per-packet link loop needs no noise-output buffer. Bit-identical
    /// to one `complex_gaussian(noise_power)` per sample.
    pub fn add_noise_power_in_place(&mut self, x: &mut [Complex], noise_power: f64) {
        self.rng.add_complex_gaussian(x, noise_power);
    }

    /// Adds noise at a target SNR in dB, measured against the *actual*
    /// mean power of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has zero power.
    pub fn add_snr(&mut self, x: &[Complex], snr_db: f64) -> Vec<Complex> {
        let p = mean_power(x);
        assert!(p > 0.0, "cannot set SNR on a zero-power signal");
        let noise = p / Db(snr_db).to_linear();
        self.add_noise_power(x, noise)
    }

    /// Generates `n` samples of pure noise with total power `noise_power`.
    pub fn samples(&mut self, n: usize, noise_power: f64) -> Vec<Complex> {
        (0..n)
            .map(|_| self.rng.complex_gaussian(noise_power))
            .collect()
    }
}

/// Noise power (in the `mean(|x|²)` convention) of an ideal receiver with
/// noise figure `nf_db` observing bandwidth `bandwidth_hz`:
/// `kT₀·B·F` referred to the input.
pub fn thermal_noise_power(bandwidth_hz: f64, nf_db: f64) -> f64 {
    use wlan_dsp::math::{db_to_lin, BOLTZMANN, T0_KELVIN};
    // mean(|x|²) = 2·P(W) under the A²/2 convention.
    2.0 * BOLTZMANN * T0_KELVIN * bandwidth_hz * db_to_lin(nf_db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_dsp::math::watts_to_dbm;

    #[test]
    fn snr_is_respected() {
        let mut ch = Awgn::new(1);
        let x = vec![Complex::ONE; 100_000];
        let y = ch.add_snr(&x, 10.0);
        let noise: Vec<Complex> = y.iter().zip(&x).map(|(a, b)| *a - *b).collect();
        let np = mean_power(&noise);
        assert!((np - 0.1).abs() < 0.005, "noise power {np}");
    }

    #[test]
    fn noise_is_circular() {
        let mut ch = Awgn::new(2);
        let n = ch.samples(100_000, 1.0);
        let re_p: f64 = n.iter().map(|z| z.re * z.re).sum::<f64>() / n.len() as f64;
        let im_p: f64 = n.iter().map(|z| z.im * z.im).sum::<f64>() / n.len() as f64;
        let cross: f64 = n.iter().map(|z| z.re * z.im).sum::<f64>() / n.len() as f64;
        assert!((re_p - 0.5).abs() < 0.01);
        assert!((im_p - 0.5).abs() < 0.01);
        assert!(cross.abs() < 0.01);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Awgn::new(7);
        let mut b = Awgn::new(7);
        let x = vec![Complex::ZERO; 16];
        assert_eq!(a.add_noise_power(&x, 1.0), b.add_noise_power(&x, 1.0));
    }

    #[test]
    fn in_place_matches_samples() {
        for seed in 0..4 {
            for n in [1, 2, 63, 64, 65, 5377] {
                let x: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 1.0)).collect();
                let mut block = Awgn::new(seed);
                let mut scalar = Awgn::new(seed);
                let mut got = x.clone();
                // Two frames, so the second starts mid-stream.
                block.add_noise_power_in_place(&mut got[..n / 2], 0.2);
                block.add_noise_power_in_place(&mut got[n / 2..], 0.2);
                let noise = scalar.samples(n, 0.2);
                for (i, (g, (&v, &w))) in got.iter().zip(x.iter().zip(&noise)).enumerate() {
                    let want = v + w;
                    assert_eq!(
                        g.re.to_bits(),
                        want.re.to_bits(),
                        "seed {seed} n {n} at {i}"
                    );
                    assert_eq!(
                        g.im.to_bits(),
                        want.im.to_bits(),
                        "seed {seed} n {n} at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn thermal_noise_floor() {
        // kT₀·B for 20 MHz ≈ −101 dBm; with NF 10 dB → −91 dBm.
        let p = thermal_noise_power(20e6, 10.0);
        let dbm = watts_to_dbm(p / 2.0);
        assert!((dbm - (-91.0)).abs() < 0.2, "floor {dbm} dBm");
    }

    #[test]
    #[should_panic]
    fn zero_power_snr_panics() {
        let mut ch = Awgn::new(3);
        let _ = ch.add_snr(&[Complex::ZERO; 4], 10.0);
    }
}
