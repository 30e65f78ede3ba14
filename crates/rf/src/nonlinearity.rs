//! Memoryless envelope nonlinearities: cubic (IIP3-accurate) and Rapp
//! (compression-point-accurate).
//!
//! ## Cubic model
//!
//! The passband cubic `y = a₁x + a₃x³` has the complex-envelope
//! equivalent `y = a₁u + (3/4)a₃|u|²u`. With the tone-power convention
//! `P = A²/2` and input-referred intercept `P_IP3`, the envelope form is
//!
//! ```text
//! y = a₁ · u · (1 − |u|² / (2·P_IP3))
//! ```
//!
//! which gives two-tone IM3 of exactly `2·(P_in − IIP3)` dBc and a 1 dB
//! compression point 9.6 dB below IIP3 — the classic cubic relations.
//!
//! ## Rapp model
//!
//! `y = G·u / (1 + (|G·u|/v_sat)^{2p})^{1/(2p)}`; `v_sat` is derived from
//! the requested input-referred 1 dB compression point. Smoothness `p`
//! defaults to 2 (typical solid-state PA fit). At `p = 2` the model is
//! evaluated in closed form without `powf`: with `v = G·u` and
//! `s = |v|²/v_sat²`, `y = v · 1/√√(1 + s²)`. Any other `p` takes the
//! `powf` form.

use wlan_dsp::Complex;
use wlan_units::{Db, Dbm};

/// Nonlinearity selection for an amplifier stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Nonlinearity {
    /// Perfectly linear.
    Linear,
    /// Cubic soft nonlinearity with the given input-referred IIP3 (dBm).
    Cubic {
        /// Input-referred third-order intercept point.
        iip3_dbm: Dbm,
    },
    /// Rapp saturation with the given input-referred P1dB (dBm).
    Rapp {
        /// Input-referred 1 dB compression point.
        p1db_dbm: Dbm,
        /// Knee smoothness (higher = harder clipping); typical 1–3.
        smoothness: f64,
    },
}

impl Nonlinearity {
    /// Convenience constructor for the default-smoothness Rapp model.
    pub fn rapp(p1db_dbm: Dbm) -> Self {
        Nonlinearity::Rapp {
            p1db_dbm,
            smoothness: 2.0,
        }
    }

    /// Folds the gain `a1` and every sample-invariant sub-expression of
    /// [`Nonlinearity::apply`] into a [`PreparedNonlinearity`], so a
    /// frame-sized loop pays only the per-sample arithmetic. The hoisted
    /// constants are computed by the exact same expressions `apply` uses,
    /// so [`PreparedNonlinearity::apply`] is bit-identical to
    /// `Nonlinearity::apply(u, a1)`.
    pub fn prepare(self, a1: f64) -> PreparedNonlinearity {
        match self {
            Nonlinearity::Linear => PreparedNonlinearity::Linear { a1 },
            Nonlinearity::Cubic { iip3_dbm } => {
                let p_ip3 = iip3_dbm.to_watts().0;
                let lim = 2.0 * p_ip3 / 3.0;
                let a_max = lim.sqrt();
                let y_max = a1 * a_max * (1.0 - lim / (2.0 * p_ip3));
                PreparedNonlinearity::Cubic {
                    a1,
                    two_p_ip3: 2.0 * p_ip3,
                    lim,
                    y_max,
                }
            }
            Nonlinearity::Rapp {
                p1db_dbm,
                smoothness: p,
            } => {
                let vsat = rapp_vsat(p1db_dbm, p, a1);
                if p == 2.0 {
                    PreparedNonlinearity::Rapp2 {
                        a1,
                        vsat_sq: vsat * vsat,
                    }
                } else {
                    PreparedNonlinearity::Rapp {
                        a1,
                        vsat,
                        two_p: 2.0 * p,
                        neg_inv_two_p: -1.0 / (2.0 * p),
                    }
                }
            }
        }
    }

    /// Applies the nonlinearity (including linear gain `a1`) to one
    /// envelope sample.
    #[inline]
    pub fn apply(self, u: Complex, a1: f64) -> Complex {
        match self {
            Nonlinearity::Linear => u * a1,
            Nonlinearity::Cubic { iip3_dbm } => {
                let p_ip3 = iip3_dbm.to_watts().0;
                let u2 = u.norm_sqr();
                // The cubic is non-monotonic beyond |u|² = 2·P_IP3/3;
                // clamp there so overdrive saturates instead of folding.
                let lim = 2.0 * p_ip3 / 3.0;
                if u2 <= lim {
                    u * (a1 * (1.0 - u2 / (2.0 * p_ip3)))
                } else {
                    let a_max = lim.sqrt();
                    let y_max = a1 * a_max * (1.0 - lim / (2.0 * p_ip3));
                    u.signum() * y_max
                }
            }
            Nonlinearity::Rapp {
                p1db_dbm,
                smoothness: p,
            } => {
                let vsat = rapp_vsat(p1db_dbm, p, a1);
                let v = u * a1;
                if p == 2.0 {
                    rapp2(v, vsat * vsat)
                } else {
                    rapp(v, vsat, 2.0 * p, -1.0 / (2.0 * p))
                }
            }
        }
    }
}

/// A [`Nonlinearity`] with its gain and all sample-invariant constants
/// hoisted out of the per-sample path (built by
/// [`Nonlinearity::prepare`]). The dominant win is the Rapp model: the
/// saturation voltage costs three `powf`-class evaluations that
/// `Nonlinearity::apply` repeats per sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreparedNonlinearity {
    /// `y = a1·u`.
    Linear {
        /// Linear amplitude gain.
        a1: f64,
    },
    /// Cubic with hoisted intercept constants.
    Cubic {
        /// Linear amplitude gain.
        a1: f64,
        /// `2·P_IP3` (the denominator of the compression term).
        two_p_ip3: f64,
        /// Fold-over clamp threshold on `|u|²`.
        lim: f64,
        /// Saturated output amplitude past the clamp.
        y_max: f64,
    },
    /// Rapp at smoothness 2, in closed form with `v_sat²` precomputed.
    Rapp2 {
        /// Linear amplitude gain.
        a1: f64,
        /// Squared saturation voltage.
        vsat_sq: f64,
    },
    /// Rapp at any other smoothness, with the saturation voltage
    /// precomputed.
    Rapp {
        /// Linear amplitude gain.
        a1: f64,
        /// Saturation voltage derived from the 1 dB compression point.
        vsat: f64,
        /// `2p` exponent.
        two_p: f64,
        /// `−1/(2p)` exponent.
        neg_inv_two_p: f64,
    },
}

impl PreparedNonlinearity {
    /// Applies the prepared nonlinearity to one envelope sample;
    /// bit-identical to `Nonlinearity::apply(u, a1)`.
    #[inline]
    pub fn apply(self, u: Complex) -> Complex {
        match self {
            PreparedNonlinearity::Linear { a1 } => u * a1,
            PreparedNonlinearity::Cubic {
                a1,
                two_p_ip3,
                lim,
                y_max,
            } => {
                let u2 = u.norm_sqr();
                if u2 <= lim {
                    u * (a1 * (1.0 - u2 / two_p_ip3))
                } else {
                    u.signum() * y_max
                }
            }
            PreparedNonlinearity::Rapp2 { a1, vsat_sq } => rapp2(u * a1, vsat_sq),
            PreparedNonlinearity::Rapp {
                a1,
                vsat,
                two_p,
                neg_inv_two_p,
            } => rapp(u * a1, vsat, two_p, neg_inv_two_p),
        }
    }
}

/// The output saturation voltage that puts the 1 dB compression point of
/// a smoothness-`p` Rapp stage of gain `a1` at `p1db_dbm` (input).
fn rapp_vsat(p1db_dbm: Dbm, p: f64, a1: f64) -> f64 {
    a1 * p1db_dbm.to_amplitude().0 / (Db(p).to_linear() - 1.0).powf(1.0 / (2.0 * p))
}

/// Smoothness-2 Rapp of the amplified sample `v`:
/// `v · (1 + s²)^{−1/4}` with `s = |v|²/v_sat²`, two square roots
/// instead of two `powf`.
#[inline(always)]
fn rapp2(v: Complex, vsat_sq: f64) -> Complex {
    let s = v.norm_sqr() / vsat_sq;
    v * (1.0 / (1.0 + s * s).sqrt().sqrt())
}

/// General-smoothness Rapp of the amplified sample `v`:
/// `v · (1 + (|v|/v_sat)^{2p})^{−1/(2p)}`.
#[inline(always)]
fn rapp(v: Complex, vsat: f64, two_p: f64, neg_inv_two_p: f64) -> Complex {
    let r = v.abs() / vsat;
    v * (1.0 + r.powf(two_p)).powf(neg_inv_two_p)
}

/// The cubic model's theoretical 1 dB compression point, 9.6 dB below
/// IIP3 (for spec cross-checks).
pub fn cubic_p1db_from_iip3(iip3_dbm: Dbm) -> Dbm {
    iip3_dbm - Db(9.636)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_dsp::math::{amp_to_db, watts_to_dbm};

    fn gain_at_power(nl: Nonlinearity, a1: f64, p_dbm: f64) -> f64 {
        let a = Dbm(p_dbm).to_amplitude().0;
        let y = nl.apply(Complex::from_re(a), a1);
        amp_to_db(y.abs() / a)
    }

    #[test]
    fn linear_is_linear() {
        let nl = Nonlinearity::Linear;
        let u = Complex::new(3.0, -4.0);
        assert_eq!(nl.apply(u, 2.0), u * 2.0);
    }

    #[test]
    fn cubic_small_signal_gain() {
        let nl = Nonlinearity::Cubic {
            iip3_dbm: Dbm(-10.0),
        };
        // At −60 dBm the compression is negligible.
        let g = gain_at_power(nl, 10.0, -60.0);
        assert!((g - 20.0).abs() < 0.01, "gain {g}");
    }

    #[test]
    fn cubic_compression_point_is_9p6_below_iip3() {
        let iip3 = Dbm(-10.0);
        let nl = Nonlinearity::Cubic { iip3_dbm: iip3 };
        let p1 = cubic_p1db_from_iip3(iip3);
        let g = gain_at_power(nl, 1.0, p1.0);
        assert!((g + 1.0).abs() < 0.02, "compression at P1dB: {g} dB");
    }

    #[test]
    fn cubic_im3_follows_3to1_slope() {
        // Two-tone test: IM3 dBc = 2(Pin − IIP3).
        let iip3 = 0.0;
        let nl = Nonlinearity::Cubic {
            iip3_dbm: Dbm(iip3),
        };
        let fs = 1000.0;
        let (f1, f2) = (100.0, 110.0);
        for pin in [-40.0, -30.0, -20.0] {
            let a = Dbm(pin).to_amplitude().0;
            let x: Vec<Complex> = (0..20_000)
                .map(|n| {
                    let t = n as f64 / fs;
                    Complex::from_polar(a, 2.0 * std::f64::consts::PI * f1 * t)
                        + Complex::from_polar(a, 2.0 * std::f64::consts::PI * f2 * t)
                })
                .collect();
            let y: Vec<Complex> = x.iter().map(|&u| nl.apply(u, 1.0)).collect();
            let fund = wlan_dsp::goertzel::tone_power_dbm(&y, f1, fs);
            let im3 = wlan_dsp::goertzel::tone_power_dbm(&y, 2.0 * f1 - f2, fs);
            let dbc = im3 - fund;
            let expect = 2.0 * (pin - iip3);
            assert!(
                (dbc - expect).abs() < 0.3,
                "Pin {pin}: IM3 {dbc} dBc, expected {expect}"
            );
        }
    }

    #[test]
    fn cubic_clamps_overdrive() {
        let nl = Nonlinearity::Cubic {
            iip3_dbm: Dbm(-20.0),
        };
        // Far beyond the fold-over point the output must stay saturated,
        // not invert.
        let big = Complex::from_re(1.0);
        let y = nl.apply(big, 1.0);
        assert!(y.re > 0.0, "folded over: {y}");
        let huge = nl.apply(Complex::from_re(10.0), 1.0);
        assert!((huge.abs() - y.abs()).abs() < y.abs() * 0.5);
    }

    #[test]
    fn rapp_small_signal_gain() {
        let nl = Nonlinearity::rapp(Dbm(-10.0));
        let g = gain_at_power(nl, 10.0, -55.0);
        assert!((g - 20.0).abs() < 0.01, "gain {g}");
    }

    #[test]
    fn rapp_1db_compression_at_p1db() {
        for p1 in [-20.0, -10.0, 0.0] {
            for smooth in [1.0, 2.0, 3.0] {
                let nl = Nonlinearity::Rapp {
                    p1db_dbm: Dbm(p1),
                    smoothness: smooth,
                };
                let g = gain_at_power(nl, 5.0, p1);
                let g0 = gain_at_power(nl, 5.0, p1 - 50.0);
                assert!(
                    (g0 - g - 1.0).abs() < 0.02,
                    "p1 {p1} smooth {smooth}: compression {}",
                    g0 - g
                );
            }
        }
    }

    #[test]
    fn rapp_hard_saturation() {
        let nl = Nonlinearity::rapp(Dbm(-10.0));
        let y1 = nl.apply(Complex::from_re(1.0), 1.0).abs();
        let y2 = nl.apply(Complex::from_re(100.0), 1.0).abs();
        // Deep saturation: 40 dB more input produces < 1 dB more output.
        assert!(amp_to_db(y2 / y1) < 1.0);
        // Saturated output should be near vsat: check it's finite and
        // above the P1dB output level.
        let p_out_sat = watts_to_dbm(y2 * y2 / 2.0);
        assert!(p_out_sat > -11.0 && p_out_sat < 0.0, "sat {p_out_sat} dBm");
    }

    #[test]
    fn prepared_matches_plain_bit_exact() {
        use wlan_dsp::Rng;
        let models = [
            Nonlinearity::Linear,
            Nonlinearity::Cubic {
                iip3_dbm: Dbm(-12.0),
            },
            Nonlinearity::rapp(Dbm(-5.0)),
            Nonlinearity::Rapp {
                p1db_dbm: Dbm(-20.0),
                smoothness: 1.0,
            },
        ];
        let mut rng = Rng::new(808);
        for nl in models {
            for a1 in [1.0, 5.623_413_251_903_491] {
                let prep = nl.prepare(a1);
                for _ in 0..2000 {
                    // Span tiny to deep-saturation amplitudes.
                    let amp = 10f64.powf(rng.uniform_range(-6.0, 1.0));
                    let u = Complex::from_polar(
                        amp,
                        rng.uniform_range(-std::f64::consts::PI, std::f64::consts::PI),
                    );
                    let want = nl.apply(u, a1);
                    let got = prep.apply(u);
                    assert!(
                        want.re.to_bits() == got.re.to_bits()
                            && want.im.to_bits() == got.im.to_bits(),
                        "{nl:?} a1 {a1}: {want:?} != {got:?}"
                    );
                }
            }
        }
    }

    fn assert_same_bits(got: Complex, want: Complex, what: &str) {
        assert!(
            got.re.to_bits() == want.re.to_bits() && got.im.to_bits() == want.im.to_bits(),
            "{what}: {got:?} != {want:?}"
        );
    }

    #[test]
    fn rapp2_closed_form_matches_powf_reference() {
        // |u| log-spaced from 1e-6 to 1e3·v_sat, at random phases, plus
        // exactly zero: the closed form stays within 1e-15 relative of
        // the `powf` form, and `apply` and `prepare` agree bit for bit.
        use wlan_conformance::refimpl::rapp_reference;
        use wlan_dsp::Rng;
        let mut rng = Rng::new(2020);
        let mut worst = 0.0f64;
        for (p1, a1) in [(-5.0, 5.623_413_251_903_491), (-20.0, 1.0), (3.0, 0.25)] {
            let nl = Nonlinearity::rapp(Dbm(p1));
            let prep = nl.prepare(a1);
            let (lo, hi) = (1e-6f64.log10(), (1e3 * rapp_vsat(Dbm(p1), 2.0, a1)).log10());
            let n = 20_000;
            for i in 0..=n {
                let amp = 10f64.powf(lo + (hi - lo) * i as f64 / n as f64);
                let phi = rng.uniform_range(-std::f64::consts::PI, std::f64::consts::PI);
                let u = Complex::from_polar(amp, phi);
                let got = prep.apply(u);
                assert_same_bits(nl.apply(u, a1), got, "apply vs prepare");
                let want = rapp_reference(u, a1, p1, 2.0);
                worst = worst.max((got - want).abs() / want.abs());
            }
            let zero = prep.apply(Complex::ZERO);
            assert_same_bits(zero, Complex::ZERO, "zero input");
            assert_same_bits(zero, rapp_reference(Complex::ZERO, a1, p1, 2.0), "zero ref");
        }
        assert!(worst <= 1e-15, "worst relative error {worst:e}");
    }

    #[test]
    fn rapp_other_smoothness_keeps_powf_bits() {
        use wlan_conformance::refimpl::rapp_reference;
        use wlan_dsp::Rng;
        let mut rng = Rng::new(2021);
        for p in [1.0, 1.5, 2.5, 3.0] {
            let nl = Nonlinearity::Rapp {
                p1db_dbm: Dbm(-8.0),
                smoothness: p,
            };
            let prep = nl.prepare(3.0);
            for _ in 0..2000 {
                let amp = 10f64.powf(rng.uniform_range(-6.0, 1.0));
                let u = Complex::from_polar(amp, rng.uniform_range(-3.0, 3.0));
                let want = rapp_reference(u, 3.0, -8.0, p);
                assert_same_bits(nl.apply(u, 3.0), want, &format!("apply, p {p}"));
                assert_same_bits(prep.apply(u), want, &format!("prepare, p {p}"));
            }
        }
    }

    #[test]
    fn rapp_preserves_phase() {
        let nl = Nonlinearity::rapp(Dbm(-10.0));
        let u = Complex::from_polar(0.5, 1.23);
        let y = nl.apply(u, 3.0);
        assert!((y.arg() - 1.23).abs() < 1e-12);
    }
}
