//! Packet detection, carrier-frequency-offset estimation and symbol
//! timing for the OFDM receiver, parameterized by the numerology
//! profile (the bare-name functions are 802.11a wrappers).

use crate::ofdm::Ofdm;
use crate::params::SAMPLE_RATE;
use crate::preamble::{long_training_symbol, STF_PERIOD};
use wlan_dsp::corr::{cross_correlate_into, delay_correlate_into};
use wlan_dsp::Complex;

/// Result of short-training-field detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Approximate index where the periodic plateau begins.
    pub start: usize,
    /// Coarse carrier frequency offset estimate in Hz.
    pub coarse_cfo_hz: f64,
}

/// Detects a packet by the Schmidl–Cox style periodicity metric of the
/// 802.11a short training field.
///
/// `threshold` is the normalized metric `|P|/R` required (0.5–0.8 is
/// typical); detection requires `run` consecutive samples above it.
///
/// Returns `None` when no plateau is found.
pub fn detect_packet(samples: &[Complex], threshold: f64, run: usize) -> Option<Detection> {
    let mut p = Vec::new();
    let mut r = Vec::new();
    detect_packet_with(samples, threshold, run, &mut p, &mut r)
}

/// [`detect_packet`] reusing caller-owned correlation buffers, so
/// per-packet detection performs no heap allocation in steady state.
pub fn detect_packet_with(
    samples: &[Complex],
    threshold: f64,
    run: usize,
    p: &mut Vec<Complex>,
    r: &mut Vec<f64>,
) -> Option<Detection> {
    detect_packet_in(samples, threshold, run, STF_PERIOD, SAMPLE_RATE, p, r)
}

/// [`detect_packet_with`] for an arbitrary numerology: `stf_period` is
/// the short-training periodicity in samples and `sample_rate` scales
/// the CFO estimate to Hz.
pub fn detect_packet_in(
    samples: &[Complex],
    threshold: f64,
    run: usize,
    stf_period: usize,
    sample_rate: f64,
    p: &mut Vec<Complex>,
    r: &mut Vec<f64>,
) -> Option<Detection> {
    let win = 2 * stf_period;
    delay_correlate_into(samples, stf_period, win, p, r);
    if p.is_empty() {
        return None;
    }
    // Energy gate: a window must carry a meaningful share of the
    // signal's overall power, or idle DC/quantization residue would look
    // perfectly periodic.
    let mean_power: f64 = samples.iter().map(|z| z.norm_sqr()).sum::<f64>() / samples.len() as f64;
    let min_energy = 0.05 * win as f64 * mean_power;
    let mut consecutive = 0usize;
    for n in 0..p.len() {
        let metric = if r[n] > min_energy.max(1e-300) {
            p[n].abs() / r[n]
        } else {
            0.0
        };
        if metric > threshold {
            consecutive += 1;
            if consecutive >= run {
                let start = n + 1 - run;
                // Measure the CFO a little inside the plateau for a clean
                // estimate.
                let m = (start + run / 2).min(p.len() - 1);
                let coarse_cfo_hz =
                    -p[m].arg() * sample_rate / (2.0 * std::f64::consts::PI * stf_period as f64);
                return Some(Detection {
                    start,
                    coarse_cfo_hz,
                });
            }
        } else {
            consecutive = 0;
        }
    }
    None
}

/// Removes a carrier frequency offset of `cfo_hz` from 20 Msps
/// (802.11a) `samples` (derotation by `e^{-j2π·cfo·n/fs}`).
pub fn correct_cfo(samples: &[Complex], cfo_hz: f64) -> Vec<Complex> {
    let mut out = Vec::new();
    correct_cfo_into(samples, cfo_hz, &mut out);
    out
}

/// [`correct_cfo`] writing into a caller-owned buffer (cleared first), so
/// the coarse and fine correction passes reuse their allocations.
pub fn correct_cfo_into(samples: &[Complex], cfo_hz: f64, out: &mut Vec<Complex>) {
    correct_cfo_into_at(samples, cfo_hz, SAMPLE_RATE, out);
}

/// [`correct_cfo_into`] at an explicit sample rate.
pub fn correct_cfo_into_at(
    samples: &[Complex],
    cfo_hz: f64,
    sample_rate: f64,
    out: &mut Vec<Complex>,
) {
    out.clear();
    correct_cfo_range_append(samples, 0..samples.len(), cfo_hz, sample_rate, out);
}

/// [`correct_cfo_into_at`] over `samples[range]` only, appended to
/// `out`: the `k`-th appended value is sample `range.start + k`
/// derotated at its absolute index, so it equals that element of the
/// whole-buffer correction bit for bit.
///
/// # Panics
///
/// Panics if `range` is out of bounds of `samples`.
pub(crate) fn correct_cfo_range_append(
    samples: &[Complex],
    range: std::ops::Range<usize>,
    cfo_hz: f64,
    sample_rate: f64,
    out: &mut Vec<Complex>,
) {
    let w = -2.0 * std::f64::consts::PI * cfo_hz / sample_rate;
    out.reserve(range.len());
    out.extend(
        samples[range.clone()]
            .iter()
            .zip(range)
            .map(|(&x, n)| x * Complex::cis(w * n as f64)),
    );
}

/// Locates the first long-training symbol body by cross-correlating with
/// the known LTF waveform inside `window` (a range of candidate start
/// indices). Scores each candidate by the combined correlation of both
/// repetitions (spaced one FFT length).
///
/// Returns the sample index of the first LTF body, or `None` if the
/// window does not fit in the signal.
pub fn locate_ltf(
    samples: &[Complex],
    ofdm: &Ofdm,
    window: std::ops::Range<usize>,
) -> Option<usize> {
    let ltf = long_training_symbol(ofdm);
    let mut xcorr = Vec::new();
    locate_ltf_with(samples, &ltf[..ofdm.profile().fft_size], window, &mut xcorr)
}

/// [`locate_ltf`] taking a precomputed LTF template (one FFT body,
/// `ltf.len()` defines the FFT size) and reusing a caller-owned
/// correlation buffer — the receiver caches the template once instead
/// of rebuilding it (an IFFT) on every packet.
pub fn locate_ltf_with(
    samples: &[Complex],
    ltf: &[Complex],
    window: std::ops::Range<usize>,
    xcorr: &mut Vec<Complex>,
) -> Option<usize> {
    let n = ltf.len();
    let need = window.end + 2 * n;
    if need > samples.len() || window.is_empty() {
        return None;
    }
    let region = &samples[window.start..window.end + 2 * n];
    cross_correlate_into(region, ltf, xcorr);
    let span = window.end - window.start;
    let mut best = (0usize, f64::MIN);
    for i in 0..span.min(xcorr.len().saturating_sub(n)) {
        let score = xcorr[i].abs() + xcorr[i + n].abs();
        if score > best.1 {
            best = (i, score);
        }
    }
    Some(window.start + best.0)
}

/// Fine CFO estimate from the phase drift between the two 802.11a
/// long-training symbol bodies starting at `ltf_start`.
///
/// Returns `None` if the signal is too short.
pub fn fine_cfo(samples: &[Complex], ltf_start: usize) -> Option<f64> {
    fine_cfo_at(samples, ltf_start, crate::params::FFT_SIZE, SAMPLE_RATE)
}

/// [`fine_cfo`] for an arbitrary numerology: the two bodies are
/// `fft_size` samples each and `sample_rate` scales the estimate to Hz.
pub fn fine_cfo_at(
    samples: &[Complex],
    ltf_start: usize,
    fft_size: usize,
    sample_rate: f64,
) -> Option<f64> {
    if ltf_start + 2 * fft_size > samples.len() {
        return None;
    }
    let mut acc = Complex::ZERO;
    for k in 0..fft_size {
        acc += samples[ltf_start + k] * samples[ltf_start + k + fft_size].conj();
    }
    Some(-acc.arg() * sample_rate / (2.0 * std::f64::consts::PI * fft_size as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Rate;
    use crate::transmitter::Transmitter;
    use wlan_dsp::rng::Rng;

    fn burst_with_noise(pad: usize, cfo_hz: f64, snr_db: f64, seed: u64) -> (Vec<Complex>, usize) {
        let burst = Transmitter::new(Rate::R12).transmit(&[0xA7; 60]);
        let mut rng = Rng::new(seed);
        let noise_var = wlan_dsp::math::db_to_lin(-snr_db);
        let mut out: Vec<Complex> = (0..pad).map(|_| rng.complex_gaussian(noise_var)).collect();
        let w = 2.0 * std::f64::consts::PI * cfo_hz / SAMPLE_RATE;
        for (n, &s) in burst.samples.iter().enumerate() {
            out.push(s * Complex::cis(w * (pad + n) as f64) + rng.complex_gaussian(noise_var));
        }
        out.extend((0..100).map(|_| rng.complex_gaussian(noise_var)));
        (out, pad)
    }

    #[test]
    fn detects_clean_packet_position() {
        let (x, pad) = burst_with_noise(200, 0.0, 60.0, 1);
        let det = detect_packet(&x, 0.6, 20).expect("detects");
        assert!(
            (det.start as i64 - pad as i64).abs() < 24,
            "start {} vs pad {pad}",
            det.start
        );
        assert!(det.coarse_cfo_hz.abs() < 2e3, "cfo {}", det.coarse_cfo_hz);
    }

    #[test]
    fn detects_at_10db_snr() {
        let (x, pad) = burst_with_noise(300, 0.0, 10.0, 2);
        let det = detect_packet(&x, 0.5, 16).expect("detects at 10 dB");
        assert!((det.start as i64 - pad as i64).abs() < 40);
    }

    #[test]
    fn no_detection_on_pure_noise() {
        let mut rng = Rng::new(3);
        let x: Vec<Complex> = (0..2000).map(|_| rng.complex_gaussian(1.0)).collect();
        assert_eq!(detect_packet(&x, 0.7, 24), None);
    }

    #[test]
    fn coarse_cfo_estimate_accuracy() {
        for cfo in [-120e3, -30e3, 50e3, 200e3] {
            let (x, _) = burst_with_noise(100, cfo, 40.0, 4);
            let det = detect_packet(&x, 0.6, 20).expect("detects");
            assert!(
                (det.coarse_cfo_hz - cfo).abs() < 0.05 * cfo.abs().max(20e3),
                "cfo {cfo}: est {}",
                det.coarse_cfo_hz
            );
        }
    }

    #[test]
    fn cfo_correction_inverts_offset() {
        let (x, _) = burst_with_noise(0, 100e3, 80.0, 5);
        let y = correct_cfo(&x, 100e3);
        // Re-estimate on corrected signal: should be near zero.
        let det = detect_packet(&y, 0.6, 20).expect("detects");
        assert!(
            det.coarse_cfo_hz.abs() < 3e3,
            "residual {}",
            det.coarse_cfo_hz
        );
    }

    #[test]
    fn locates_ltf_exactly_on_clean_burst() {
        let burst = Transmitter::new(Rate::R24).transmit(&[1u8; 80]);
        let ofdm = Ofdm::new();
        // True LTF body 1 position: 160 (STF) + 32 (guard) = 192.
        let found = locate_ltf(&burst.samples, &ofdm, 100..260).expect("in range");
        assert_eq!(found, 192);
    }

    #[test]
    fn locates_ltf_every_profile() {
        for p in crate::profile::ALL_PROFILES {
            let burst = Transmitter::with_profile(Rate::R24, p).transmit(&[1u8; 80]);
            let ofdm = Ofdm::with_profile(p);
            // True LTF body 1 position: stf_len + guard.
            let truth = p.stf_len() + p.ltf_guard();
            let lo = truth.saturating_sub(60);
            let found = locate_ltf(&burst.samples, &ofdm, lo..truth + 60).expect("in range");
            assert_eq!(found, truth, "{}", p.name);
        }
    }

    #[test]
    fn locates_ltf_with_noise_and_pad() {
        let (x, pad) = burst_with_noise(150, 0.0, 15.0, 6);
        let ofdm = Ofdm::new();
        let det = detect_packet(&x, 0.5, 16).expect("detects");
        let w_start = det.start.saturating_sub(30) + 120;
        let found = locate_ltf(&x, &ofdm, w_start..w_start + 220).expect("window fits");
        assert_eq!(found, pad + 192, "found {found}, expected {}", pad + 192);
    }

    #[test]
    fn fine_cfo_accuracy() {
        let (x, pad) = burst_with_noise(64, 40e3, 30.0, 7);
        // Residual after coarse: emulate by correcting most of it.
        let y = correct_cfo(&x, 35e3);
        let est = fine_cfo(&y, pad + 192).expect("long enough");
        assert!((est - 5e3).abs() < 1.5e3, "est {est}");
    }

    #[test]
    fn fine_cfo_short_signal_is_none() {
        assert_eq!(fine_cfo(&[Complex::ZERO; 100], 50), None);
    }
}
