//! Decibel conversions and small special functions.
//!
//! All power quantities in the workspace use the 1 Ω convention documented
//! in `DESIGN.md`: a complex envelope tone of amplitude `A` carries
//! `A²/2` watts.
//!
//! The dB↔linear conversions are thin `f64` wrappers over the blessed
//! implementations in [`wlan_units`] — the single home of the raw
//! `10^(x/10)`-style expressions gated by the `wlan-lint units` pass.

use wlan_units::{Db, Dbm, PowerW};

/// Boltzmann constant in J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Standard noise reference temperature in kelvin (IEEE T₀).
pub const T0_KELVIN: f64 = 290.0;

/// Converts a power ratio to decibels: `10·log10(ratio)`.
///
/// ```
/// use wlan_dsp::math::lin_to_db;
/// assert!((lin_to_db(100.0) - 20.0).abs() < 1e-12);
/// ```
#[inline]
pub fn lin_to_db(ratio: f64) -> f64 {
    Db::from_linear(ratio).0
}

/// Converts decibels to a power ratio: `10^(db/10)`.
#[inline]
pub fn db_to_lin(db: f64) -> f64 {
    Db(db).to_linear()
}

/// Converts watts to dBm.
///
/// ```
/// use wlan_dsp::math::watts_to_dbm;
/// assert!((watts_to_dbm(1e-3) - 0.0).abs() < 1e-12);
/// assert!((watts_to_dbm(1.0) - 30.0).abs() < 1e-12);
/// ```
#[inline]
pub fn watts_to_dbm(watts: f64) -> f64 {
    Dbm::from_watts(PowerW(watts)).0
}

/// Converts dBm to watts.
#[inline]
pub fn dbm_to_watts(dbm: f64) -> f64 {
    Dbm(dbm).to_watts().0
}

/// Converts a voltage (amplitude) ratio to decibels: `20·log10(ratio)`.
#[inline]
pub fn amp_to_db(ratio: f64) -> f64 {
    Db::from_amplitude_ratio(ratio).0
}

/// Converts decibels to a voltage (amplitude) ratio: `10^(db/20)`.
#[inline]
pub fn db_to_amp(db: f64) -> f64 {
    Db(db).to_amplitude_ratio()
}

/// Normalized sinc function `sin(πx)/(πx)` with `sinc(0) = 1`.
///
/// ```
/// use wlan_dsp::math::sinc;
/// assert_eq!(sinc(0.0), 1.0);
/// assert!(sinc(1.0).abs() < 1e-12);
/// ```
pub fn sinc(x: f64) -> f64 {
    if x == 0.0 {
        1.0
    } else {
        let px = std::f64::consts::PI * x;
        px.sin() / px
    }
}

/// Modified Bessel function of the first kind, order zero, `I₀(x)`.
///
/// Power-series evaluation, accurate to better than 1e-12 for the `|x| ≤ 20`
/// arguments used in Kaiser window design.
pub fn bessel_i0(x: f64) -> f64 {
    let half_x = x / 2.0;
    let mut term = 1.0;
    let mut sum = 1.0;
    for k in 1..64 {
        term *= (half_x / k as f64) * (half_x / k as f64);
        sum += term;
        if term < sum * 1e-16 {
            break;
        }
    }
    sum
}

/// Complementary error function `erfc(x)`, to double precision.
///
/// `erfc(z) = Γ(½, z²)/√π` for `z ≥ 0`. Below `z² = 3/2` it is `1 −
/// erf(z)` from the all-positive series `erf(z) = 2z·e^{−z²}/√π ·
/// Σ (2z²)ⁿ/(1·3·…·(2n+1))`, where `erfc ≥ 0.08` so the subtraction
/// loses at most a few bits. Beyond, it is the continued fraction for
/// `Γ(½, z²)` evaluated by the modified Lentz method, which converges
/// in at most about 60 terms there. Tests check it against tabulated
/// values to 1e-14 relative. Negative arguments use `erfc(−z) =
/// 2 − erfc(z)`.
pub fn erfc(x: f64) -> f64 {
    const FRAC_1_SQRT_PI: f64 = std::f64::consts::FRAC_2_SQRT_PI / 2.0;
    let z = x.abs();
    let z2 = z * z;
    if z2 < 1.5 {
        let (mut term, mut sum) = (1.0, 1.0);
        for n in 1..64 {
            term *= 2.0 * z2 / (2 * n + 1) as f64;
            sum += term;
            if term < sum * f64::EPSILON {
                break;
            }
        }
        // Odd in `x`, so the sign carries through.
        return 1.0 - 2.0 * x * (-z2).exp() * FRAC_1_SQRT_PI * sum;
    }
    let scale = (-z2).exp();
    // Past z ≈ 27.3 the result underflows; stop before `z²` itself can
    // overflow the fraction into NaN.
    let tail = if scale == 0.0 {
        0.0
    } else {
        // Γ(a, w) = e^{−w}·w^a / (w + 1 − a − 1·(1 − a)/(w + 3 − a − …)),
        // a = ½, w = z².
        let tiny = f64::MIN_POSITIVE / f64::EPSILON;
        let mut b = z2 + 0.5;
        let (mut c, mut d) = (1.0 / tiny, 1.0 / b);
        let mut h = d;
        for i in 1..200 {
            let an = -(i as f64) * (i as f64 - 0.5);
            b += 2.0;
            d = an * d + b;
            d = 1.0 / if d.abs() < tiny { tiny } else { d };
            c = b + an / c;
            if c.abs() < tiny {
                c = tiny;
            }
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < f64::EPSILON {
                break;
            }
        }
        scale * z * h * FRAC_1_SQRT_PI
    };
    if x >= 0.0 {
        tail
    } else {
        2.0 - tail
    }
}

/// Gaussian tail probability `Q(x) = 0.5·erfc(x/√2)`.
///
/// ```
/// use wlan_dsp::math::q_function;
/// assert!((q_function(0.0) - 0.5).abs() < 1e-7);
/// ```
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Smallest power of two `>= n`.
///
/// # Panics
///
/// Panics if `n` is 0.
pub fn next_pow2(n: usize) -> usize {
    assert!(n > 0, "next_pow2 of zero");
    n.next_power_of_two()
}

/// Wraps an angle to the interval `(-π, π]`.
pub fn wrap_phase(theta: f64) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut t = theta % two_pi;
    if t > std::f64::consts::PI {
        t -= two_pi;
    } else if t <= -std::f64::consts::PI {
        t += two_pi;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_roundtrip() {
        for db in [-30.0, -3.0, 0.0, 3.0, 10.0, 33.3] {
            assert!((lin_to_db(db_to_lin(db)) - db).abs() < 1e-9);
            assert!((amp_to_db(db_to_amp(db)) - db).abs() < 1e-9);
        }
    }

    #[test]
    fn dbm_roundtrip() {
        for dbm in [-88.0, -23.0, 0.0, 16.0] {
            assert!((watts_to_dbm(dbm_to_watts(dbm)) - dbm).abs() < 1e-9);
        }
    }

    #[test]
    fn three_db_is_factor_two() {
        assert!((db_to_lin(3.0103) - 2.0).abs() < 1e-3);
        assert!((db_to_amp(6.0206) - 2.0).abs() < 1e-3);
    }

    #[test]
    fn sinc_zeros_at_integers() {
        for k in 1..6 {
            assert!(sinc(k as f64).abs() < 1e-12);
            assert!(sinc(-(k as f64)).abs() < 1e-12);
        }
    }

    #[test]
    fn bessel_i0_reference_values() {
        // Abramowitz & Stegun table values.
        assert!((bessel_i0(0.0) - 1.0).abs() < 1e-14);
        assert!((bessel_i0(1.0) - 1.2660658777520084).abs() < 1e-12);
        assert!((bessel_i0(2.0) - 2.2795853023360673).abs() < 1e-12);
        assert!((bessel_i0(5.0) - 27.239871823604442).abs() < 1e-9);
    }

    #[test]
    fn erfc_reference_values() {
        // Tabulated values rounded to the nearest double; the series
        // covers 0.5 and 1, the continued fraction 2, 3 and 5.
        for (x, want) in [
            (0.5, 0.479_500_122_186_953_5),
            (1.0, 0.157_299_207_050_285_13),
            (2.0, 4.677_734_981_047_266e-3),
            (3.0, 2.209_049_699_858_544e-5),
            (5.0, 1.537_459_794_428_035e-12),
        ] {
            let rel = (erfc(x) / want - 1.0).abs();
            assert!(rel < 1e-14, "erfc({x}) = {:e}, off by {rel:e}", erfc(x));
            let mirrored = erfc(-x) - (2.0 - want);
            assert!(mirrored.abs() < 1e-15, "erfc(-{x}) off by {mirrored:e}");
        }
        assert_eq!(erfc(0.0), 1.0);
        // Continuous across the series/fraction switch at z² = 3/2: the
        // step over ±h matches the slope −2·e^{−z²}/√π.
        let (edge, h) = (1.5f64.sqrt(), 1e-9);
        let step = erfc(edge + h) - erfc(edge - h);
        let slope = -std::f64::consts::FRAC_2_SQRT_PI * (-1.5f64).exp();
        assert!(
            (step / (2.0 * h * slope) - 1.0).abs() < 1e-6,
            "step {step:e}"
        );
        assert_eq!(
            (erfc(30.0), erfc(1e200), erfc(f64::INFINITY)),
            (0.0, 0.0, 0.0)
        );
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        assert!(erfc(f64::NAN).is_nan());
    }

    #[test]
    fn q_function_symmetry() {
        for x in [0.5, 1.0, 2.0] {
            assert!((q_function(x) + q_function(-x) - 1.0).abs() < 1e-6);
        }
        // Q(3) ≈ 1.3499e-3
        assert!((q_function(3.0) - 1.3499e-3).abs() < 1e-6);
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1000), 1024);
    }

    #[test]
    #[should_panic]
    fn next_pow2_zero_panics() {
        next_pow2(0);
    }

    #[test]
    fn wrap_phase_range() {
        use std::f64::consts::PI;
        assert!((wrap_phase(3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_phase(-3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_phase(0.1) - 0.1).abs() < 1e-15);
        for k in -10..10 {
            let w = wrap_phase(k as f64 * 1.7);
            assert!(w > -PI - 1e-12 && w <= PI + 1e-12);
        }
    }

    #[test]
    fn thermal_noise_floor_sanity() {
        // kT0 in dBm/Hz should be about -174 dBm/Hz.
        let kt = BOLTZMANN * T0_KELVIN;
        assert!((watts_to_dbm(kt) - (-173.98)).abs() < 0.05);
    }
}
