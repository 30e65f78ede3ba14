//! Absolute power scaling: setting receive levels in dBm under the
//! workspace 1 Ω, `P = mean(|x|²)/2` convention.

use wlan_dsp::complex::mean_power;
use wlan_dsp::Complex;
use wlan_units::{Db, Dbm, PowerW};

/// Measures the mean power of `x`.
///
/// Returns `-inf` dBm for zero-power signals.
pub fn power_level(x: &[Complex]) -> Dbm {
    PowerW(mean_power(x) / 2.0).to_dbm()
}

/// Measures the mean power of `x` in dBm (plain-`f64` boundary wrapper
/// over [`power_level`]).
pub fn power_dbm(x: &[Complex]) -> f64 {
    power_level(x).0
}

/// The amplitude factor that brings `x` to mean power `target`, or
/// `None` when `x` has zero (or NaN) power and so cannot be scaled.
pub(crate) fn power_scale(x: &[Complex], target: Dbm) -> Option<f64> {
    let p = mean_power(x) / 2.0;
    (p > 0.0).then(|| (target.to_watts().0 / p).sqrt())
}

/// Scales `x` so its mean power equals `target`.
///
/// # Panics
///
/// Panics if `x` has zero power.
pub fn set_power(x: &[Complex], target: Dbm) -> Vec<Complex> {
    let k = power_scale(x, target).expect("cannot scale a zero-power signal");
    x.iter().map(|&v| v * k).collect()
}

/// [`set_power`] in place (allocation-free; bit-identical scale factor).
///
/// # Panics
///
/// Panics if `x` has zero power.
pub fn set_power_in_place(x: &mut [Complex], target: Dbm) {
    let k = power_scale(x, target).expect("cannot scale a zero-power signal");
    for v in x.iter_mut() {
        *v *= k;
    }
}

/// [`set_power`] with a plain-`f64` dBm target.
///
/// # Panics
///
/// Panics if `x` has zero power.
pub fn set_power_dbm(x: &[Complex], target_dbm: f64) -> Vec<Complex> {
    set_power(x, Dbm(target_dbm))
}

/// Applies a gain.
pub fn apply_gain(x: &[Complex], gain: Db) -> Vec<Complex> {
    let k = gain.to_amplitude_ratio();
    x.iter().map(|&v| v * k).collect()
}

/// [`apply_gain`] with a plain-`f64` dB gain.
pub fn apply_gain_db(x: &[Complex], gain_db: f64) -> Vec<Complex> {
    apply_gain(x, Db(gain_db))
}

/// The paper's receiver input range for the wanted channel (§2.2).
pub const RX_LEVEL_MIN: Dbm = Dbm(-88.0);
/// Upper end of the wanted-channel input range.
pub const RX_LEVEL_MAX: Dbm = Dbm(-23.0);
/// The first adjacent channel may exceed the wanted level by this much.
pub const ADJACENT_CHANNEL_REL: Db = Db(16.0);
/// The second (non-adjacent) channel may exceed the wanted level by this.
pub const ALTERNATE_CHANNEL_REL: Db = Db(32.0);

/// Plain-`f64` view of [`RX_LEVEL_MIN`] for boundary code.
pub const RX_LEVEL_MIN_DBM: f64 = RX_LEVEL_MIN.0;
/// Plain-`f64` view of [`RX_LEVEL_MAX`] for boundary code.
pub const RX_LEVEL_MAX_DBM: f64 = RX_LEVEL_MAX.0;
/// Plain-`f64` view of [`ADJACENT_CHANNEL_REL`] for boundary code.
pub const ADJACENT_CHANNEL_REL_DB: f64 = ADJACENT_CHANNEL_REL.0;
/// Plain-`f64` view of [`ALTERNATE_CHANNEL_REL`] for boundary code.
pub const ALTERNATE_CHANNEL_REL_DB: f64 = ALTERNATE_CHANNEL_REL.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_measure_roundtrip() {
        let x = vec![Complex::new(0.3, -0.4); 1000];
        for dbm in [-88.0, -50.0, -23.0, 0.0] {
            let y = set_power_dbm(&x, dbm);
            assert!((power_dbm(&y) - dbm).abs() < 1e-9, "{dbm}");
        }
    }

    #[test]
    fn gain_db_changes_power() {
        let x = vec![Complex::ONE; 100];
        let y = apply_gain_db(&x, 20.0);
        assert!((power_dbm(&y) - power_dbm(&x) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn amplitude_one_tone_is_about_27_dbm() {
        // A = 1 → P = 0.5 W = 26.99 dBm.
        let x: Vec<Complex> = (0..1024).map(|n| Complex::cis(0.3 * n as f64)).collect();
        assert!((power_dbm(&x) - 26.99).abs() < 0.05);
    }

    #[test]
    fn spec_constants() {
        assert_eq!(ADJACENT_CHANNEL_REL_DB, 16.0);
        assert_eq!(ALTERNATE_CHANNEL_REL_DB, 32.0);
        assert_eq!(RX_LEVEL_MAX - RX_LEVEL_MIN, Db(65.0));
    }

    #[test]
    fn in_place_matches_allocating_bitwise() {
        let x: Vec<Complex> = (0..256)
            .map(|n| Complex::from_polar(0.7, 0.13 * n as f64))
            .collect();
        let want = set_power(&x, Dbm(-37.5));
        let mut got = x.clone();
        set_power_in_place(&mut got, Dbm(-37.5));
        assert_eq!(got, want);
    }

    #[test]
    fn typed_and_f64_apis_agree_bitwise() {
        let x = vec![Complex::new(0.3, -0.4); 64];
        assert_eq!(set_power(&x, Dbm(-40.0)), set_power_dbm(&x, -40.0));
        assert_eq!(apply_gain(&x, Db(7.5)), apply_gain_db(&x, 7.5));
        assert_eq!(power_level(&x).0, power_dbm(&x));
    }

    #[test]
    #[should_panic]
    fn zero_signal_panics() {
        let _ = set_power_dbm(&[Complex::ZERO; 4], -30.0);
    }
}
