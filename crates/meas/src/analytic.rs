//! Closed-form AWGN bit-error-rate baselines.
//!
//! The conformance layer compares Monte-Carlo sweeps against theory, so
//! the theory side must be *exact*, not the usual high-SNR
//! approximations. For Gray-coded square QAM (and BPSK/QPSK as the
//! degenerate cases) the per-bit error probability over AWGN has an
//! exact expression as a signed sum of Q-functions: each I/Q axis is an
//! independent Gray-coded PAM constellation, and a transmitted level is
//! decided as whatever level's decision region the noisy sample lands
//! in. The private `pam_gray_ber` enumerates those regions directly
//! instead of trusting hand-derived formulas.
//!
//! Conventions match the rest of the workspace: `snr_db` is the ratio
//! of (unit) average symbol power to *total* complex noise power, i.e.
//! the `nv` handed to `Rng::complex_gaussian` is `10^(-snr_db/10)` and
//! each real axis sees variance `nv/2`.

use wlan_dsp::math::q_function;

/// One PAM level: its (unnormalized) amplitude and the Gray-coded bits
/// it carries.
type PamLevel = (f64, &'static [u8]);

/// 802.11a Table 78: BPSK on the I axis only.
const PAM2: &[PamLevel] = &[(-1.0, &[0]), (1.0, &[1])];

/// 802.11a Table 81 (one axis of 16-QAM), Gray order −3 −1 +1 +3.
const PAM4: &[PamLevel] = &[
    (-3.0, &[0, 0]),
    (-1.0, &[0, 1]),
    (1.0, &[1, 1]),
    (3.0, &[1, 0]),
];

/// 802.11a Table 82 (one axis of 64-QAM).
const PAM8: &[PamLevel] = &[
    (-7.0, &[0, 0, 0]),
    (-5.0, &[0, 0, 1]),
    (-3.0, &[0, 1, 1]),
    (-1.0, &[0, 1, 0]),
    (1.0, &[1, 1, 0]),
    (3.0, &[1, 1, 1]),
    (5.0, &[1, 0, 1]),
    (7.0, &[1, 0, 0]),
];

/// Exact per-bit error probability of a Gray-coded PAM constellation
/// with minimum-distance (nearest-level) decisions in Gaussian noise of
/// standard deviation `sigma` per axis. `scale` multiplies the level
/// amplitudes (the K_mod normalization).
///
/// For each transmitted level and each decision region the probability
/// mass `Q((lo−a)/σ) − Q((hi−a)/σ)` is attributed to the Hamming
/// distance between the transmitted and decided labels; levels are
/// equiprobable.
fn pam_gray_ber(levels: &[PamLevel], scale: f64, sigma: f64) -> f64 {
    let m = levels.len();
    let bits_per_level = levels[0].1.len();
    // Decision thresholds are midpoints between adjacent levels.
    let thresholds: Vec<f64> = levels
        .windows(2)
        .map(|w| scale * 0.5 * (w[0].0 + w[1].0))
        .collect();
    let mut bit_errors = 0.0;
    for (tx_level, tx_bits) in levels {
        let a = scale * tx_level;
        for (region, (_, rx_bits)) in levels.iter().enumerate() {
            // Region bounds: (−∞, t₀], (t₀, t₁], …, (t_{m−2}, ∞).
            let lo = if region == 0 {
                f64::NEG_INFINITY
            } else {
                thresholds[region - 1]
            };
            let hi = if region == m - 1 {
                f64::INFINITY
            } else {
                thresholds[region]
            };
            let hamming = tx_bits
                .iter()
                .zip(rx_bits.iter())
                .filter(|(a, b)| a != b)
                .count();
            if hamming == 0 {
                continue;
            }
            let p_lo = if lo.is_infinite() {
                1.0
            } else {
                q_function((lo - a) / sigma)
            };
            let p_hi = if hi.is_infinite() {
                0.0
            } else {
                q_function((hi - a) / sigma)
            };
            bit_errors += hamming as f64 * (p_lo - p_hi);
        }
    }
    bit_errors / (m as f64 * bits_per_level as f64)
}

fn per_axis_sigma(snr_db: f64) -> f64 {
    // Total complex noise power nv splits evenly between I and Q.
    (wlan_dsp::math::db_to_lin(-snr_db) / 2.0).sqrt()
}

/// Exact BPSK bit error rate over AWGN (equals `Q(√(2·SNR))`).
pub fn ber_bpsk(snr_db: f64) -> f64 {
    // BPSK uses the I axis only; unit symbol power sits entirely there.
    pam_gray_ber(PAM2, 1.0, per_axis_sigma(snr_db))
}

/// Exact QPSK bit error rate over AWGN (equals `Q(√SNR)`): each axis is
/// BPSK at half power.
pub fn ber_qpsk(snr_db: f64) -> f64 {
    pam_gray_ber(PAM2, 1.0 / 2f64.sqrt(), per_axis_sigma(snr_db))
}

/// Exact Gray-coded 16-QAM bit error rate over AWGN.
pub fn ber_qam16(snr_db: f64) -> f64 {
    pam_gray_ber(PAM4, 1.0 / 10f64.sqrt(), per_axis_sigma(snr_db))
}

/// Exact Gray-coded 64-QAM bit error rate over AWGN.
pub fn ber_qam64(snr_db: f64) -> f64 {
    pam_gray_ber(PAM8, 1.0 / 42f64.sqrt(), per_axis_sigma(snr_db))
}

/// Analytic uncoded-subcarrier BER for a constellation identified by
/// its bits per carrier (1 = BPSK, 2 = QPSK, 4 = 16-QAM, 6 = 64-QAM).
///
/// # Panics
///
/// Panics on any other bit count.
pub fn ber_uncoded(bits_per_carrier: usize, snr_db: f64) -> f64 {
    match bits_per_carrier {
        1 => ber_bpsk(snr_db),
        2 => ber_qpsk(snr_db),
        4 => ber_qam16(snr_db),
        6 => ber_qam64(snr_db),
        n => panic!("no 802.11a constellation carries {n} bits"),
    }
}

/// Wilson score interval for an observed proportion, with configurable
/// normal quantile `z` (1.96 → 95 %, 3.29 → 99.9 %).
///
/// Returns `(0, 1)` for an empty sample.
pub fn wilson_interval(errors: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = errors as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    ((center - half).max(0.0), (center + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_dsp::math::q_function;

    #[test]
    fn bpsk_matches_textbook_form() {
        for snr_db in [-2.0, 0.0, 4.0, 8.0, 10.0] {
            let snr = wlan_dsp::math::db_to_lin(snr_db);
            let expect = q_function((2.0 * snr).sqrt());
            let got = ber_bpsk(snr_db);
            assert!((got - expect).abs() < 1e-12, "{snr_db} dB: {got} {expect}");
        }
    }

    #[test]
    fn qpsk_matches_textbook_form() {
        for snr_db in [0.0, 5.0, 10.0] {
            let snr = wlan_dsp::math::db_to_lin(snr_db);
            let expect = q_function(snr.sqrt());
            let got = ber_qpsk(snr_db);
            assert!((got - expect).abs() < 1e-12, "{snr_db} dB: {got} {expect}");
        }
    }

    #[test]
    fn qam16_matches_exact_gray_expression() {
        // Exact Gray 16-QAM: Pb = (3Q₁ + 2Q₃ − Q₅)/4, Qₙ = Q(n·√(SNR/5)).
        for snr_db in [5.0, 10.0, 15.0, 20.0] {
            let snr = wlan_dsp::math::db_to_lin(snr_db);
            let q = |n: f64| q_function(n * (snr / 5.0).sqrt());
            let expect = (3.0 * q(1.0) + 2.0 * q(3.0) - q(5.0)) / 4.0;
            let got = ber_qam16(snr_db);
            assert!((got - expect).abs() < 1e-12, "{snr_db} dB: {got} {expect}");
        }
    }

    #[test]
    fn qam64_high_snr_asymptote() {
        // At high SNR only nearest-neighbor errors survive:
        // Pb → (7/12)·Q(√(SNR/21)).
        let snr_db = 26.0;
        let snr = wlan_dsp::math::db_to_lin(snr_db);
        let asym = 7.0 / 12.0 * q_function((snr / 21.0).sqrt());
        let got = ber_qam64(snr_db);
        assert!((got - asym).abs() / asym < 1e-3, "{got} vs {asym}");
    }

    #[test]
    fn curves_are_ordered_and_monotone() {
        let mut prev = [1.0f64; 4];
        for snr_db in [0.0, 4.0, 8.0, 12.0, 16.0, 20.0] {
            let cur = [
                ber_bpsk(snr_db),
                ber_qpsk(snr_db),
                ber_qam16(snr_db),
                ber_qam64(snr_db),
            ];
            // Denser constellations are strictly worse at equal SNR.
            assert!(cur[0] < cur[1] && cur[1] < cur[2] && cur[2] < cur[3]);
            for (p, c) in prev.iter().zip(cur.iter()) {
                assert!(c < p, "BER must fall with SNR");
            }
            prev = cur;
        }
    }

    #[test]
    fn wilson_matches_ber_meter_at_z196() {
        let mut m = crate::BerMeter::new();
        let tx = vec![0u8; 10_000];
        let mut rx = vec![0u8; 10_000];
        for r in rx.iter_mut().step_by(100) {
            *r = 1;
        }
        m.update_bits(&tx, &rx);
        let (lo, hi) = m.confidence_interval();
        let (lo2, hi2) = wilson_interval(m.errors(), m.bits(), 1.96);
        assert!((lo - lo2).abs() < 1e-15 && (hi - hi2).abs() < 1e-15);
    }

    #[test]
    fn wilson_widens_with_z_and_handles_empty() {
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
        let narrow = wilson_interval(100, 10_000, 1.96);
        let wide = wilson_interval(100, 10_000, 3.29);
        assert!(wide.0 < narrow.0 && narrow.1 < wide.1);
        assert!(narrow.0 < 0.01 && 0.01 < narrow.1);
    }
}
