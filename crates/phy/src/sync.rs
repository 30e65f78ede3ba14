//! Packet detection, carrier-frequency-offset estimation and symbol
//! timing for the OFDM receiver, parameterized by the numerology
//! profile (the bare-name functions are 802.11a wrappers).

use crate::ofdm::Ofdm;
use crate::params::SAMPLE_RATE;
use crate::preamble::{long_training_symbol, STF_PERIOD};
use crate::simd::SimdLevel;
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
    detect_packet_with(samples, threshold, run, &mut Vec::new())
}

/// [`detect_packet`] reusing a caller-owned history buffer, so
/// per-packet detection performs no heap allocation in steady state.
pub fn detect_packet_with(
    samples: &[Complex],
    threshold: f64,
    run: usize,
    p: &mut Vec<Complex>,
) -> Option<Detection> {
    detect_packet_in(samples, threshold, run, STF_PERIOD, SAMPLE_RATE, p)
}

/// [`detect_packet_with`] for an arbitrary numerology: `stf_period` is
/// the short-training periodicity in samples and `sample_rate` scales
/// the CFO estimate to Hz.
///
/// The delay correlation `P[n] = Σ_{k<2L} x[n+k]·conj(x[n+k+L])` and
/// its energy `R[n] = Σ_{k<2L} |x[n+k+L]|²` (`L = stf_period`) run as
/// sums slid one sample at a time, and the scan stops at the first
/// plateau: the samples after it are never correlated. `p` is left
/// holding `P[0..]` up to the sample the scan stopped at. Only the
/// energy gate reads the whole input.
pub fn detect_packet_in(
    samples: &[Complex],
    threshold: f64,
    run: usize,
    stf_period: usize,
    sample_rate: f64,
    p: &mut Vec<Complex>,
) -> Option<Detection> {
    let (lag, win) = (stf_period, 2 * stf_period);
    p.clear();
    if samples.len() < lag + win {
        return None;
    }
    let n_out = samples.len() - lag - win + 1;
    // Energy gate: a window must carry a meaningful share of the
    // signal's overall power, or idle DC/quantization residue would look
    // perfectly periodic.
    let mean_power: f64 = samples.iter().map(|z| z.norm_sqr()).sum::<f64>() / samples.len() as f64;
    let min_energy = (0.05 * win as f64 * mean_power).max(1e-300);
    let mut acc = DelayCorrelation::new(samples, lag, win);
    let mut consecutive = 0usize;
    for n in 0..n_out {
        if n > 0 {
            acc.slide(samples, n);
        }
        p.push(acc.p);
        let metric = if acc.r > min_energy {
            acc.p.abs() / acc.r
        } else {
            0.0
        };
        if metric > threshold {
            consecutive += 1;
            if consecutive >= run {
                let start = n + 1 - run;
                // Measure the CFO a little inside the plateau for a clean
                // estimate (with `run = 0` that is the next window).
                let m = (start + run / 2).min(n_out - 1);
                while p.len() <= m {
                    acc.slide(samples, p.len());
                    p.push(acc.p);
                }
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

/// The running delay-correlation sums of [`detect_packet_in`] at one
/// window position.
struct DelayCorrelation {
    lag: usize,
    win: usize,
    /// `P[n]`.
    p: Complex,
    /// `R[n]`.
    r: f64,
}

impl DelayCorrelation {
    /// The sums at window 0.
    fn new(x: &[Complex], lag: usize, win: usize) -> Self {
        let mut acc = DelayCorrelation {
            lag,
            win,
            p: Complex::ZERO,
            r: 0.0,
        };
        for k in 0..win {
            acc.p += x[k] * x[k + lag].conj();
            acc.r += x[k + lag].norm_sqr();
        }
        acc
    }

    /// Moves the sums from window `n - 1` to window `n`.
    #[inline]
    fn slide(&mut self, x: &[Complex], n: usize) {
        let (lag, drop, add) = (self.lag, n - 1, n + self.win - 1);
        self.p += x[add] * x[add + lag].conj() - x[drop] * x[drop + lag].conj();
        self.r += x[add + lag].norm_sqr() - x[drop + lag].norm_sqr();
    }
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
    let mut search = LtfSearch::default();
    locate_ltf_with(
        samples,
        &ltf[..ofdm.profile().fft_size],
        window,
        &mut search,
    )
}

/// [`locate_ltf`] taking a precomputed LTF template (one FFT body,
/// `ltf.len()` defines the FFT size) and reusing caller-owned working
/// buffers — the receiver caches the template once instead of
/// rebuilding it (an IFFT) on every packet.
///
/// Candidate `i` scores `|c[i]| + |c[i + n]|`, where `c[j] = (Σ_k
/// x[j+k]·conj(ltf[k]))/E` is the template correlation normalized by
/// its energy `E`; the first highest score wins.
pub fn locate_ltf_with(
    samples: &[Complex],
    ltf: &[Complex],
    window: std::ops::Range<usize>,
    search: &mut LtfSearch,
) -> Option<usize> {
    let n = ltf.len();
    let need = window.end + 2 * n;
    if need > samples.len() || window.is_empty() {
        return None;
    }
    let span = window.end - window.start;
    // Scores need the correlation at offsets 0..span + n, which read
    // the region's first span + 2n − 1 samples.
    let region = &samples[window.start..window.end + 2 * n - 1];
    let energy: f64 = ltf.iter().map(|r| r.norm_sqr()).sum();
    let norm = if energy > 0.0 { 1.0 / energy } else { 1.0 };
    let mag = search.correlation_magnitudes(region, ltf, norm);
    let mut best = (0usize, f64::MIN);
    for (i, (&a, &b)) in mag[..span].iter().zip(&mag[n..]).enumerate() {
        let score = a + b;
        if score > best.1 {
            best = (i, score);
        }
    }
    Some(window.start + best.0)
}

/// Working buffers of [`locate_ltf_with`], and the compiled form of its
/// correlation kernel this CPU runs (picked once, by
/// [`LtfSearch::default`]).
#[derive(Debug, Clone)]
pub struct LtfSearch {
    /// The clone [`LtfSearch::correlation_magnitudes`] runs.
    level: SimdLevel,
    /// Real parts of the searched region.
    xr: Vec<f64>,
    /// Imaginary parts of the searched region.
    xi: Vec<f64>,
    /// Correlation real parts, then the magnitudes.
    acc_re: Vec<f64>,
    /// Correlation imaginary parts.
    acc_im: Vec<f64>,
}

impl Default for LtfSearch {
    fn default() -> Self {
        LtfSearch {
            level: SimdLevel::detect(),
            xr: Vec::new(),
            xi: Vec::new(),
            acc_re: Vec::new(),
            acc_im: Vec::new(),
        }
    }
}

impl LtfSearch {
    /// `|(Σ_k x[i+k]·conj(ltf[k]))·norm|` for every offset `i` at which
    /// the template fits in `x` (none if it does not).
    fn correlation_magnitudes(&mut self, x: &[Complex], ltf: &[Complex], norm: f64) -> &[f64] {
        let outputs = (x.len() + 1).saturating_sub(ltf.len());
        self.xr.clear();
        self.xr.extend(x.iter().map(|z| z.re));
        self.xi.clear();
        self.xi.extend(x.iter().map(|z| z.im));
        self.acc_re.clear();
        self.acc_re.resize(outputs, 0.0);
        self.acc_im.clear();
        self.acc_im.resize(outputs, 0.0);
        if outputs > 0 {
            let (xr, xi) = (&self.xr[..], &self.xi[..]);
            let (re, im) = (&mut self.acc_re[..], &mut self.acc_im[..]);
            match self.level {
                SimdLevel::Portable => xcorr_portable(xr, xi, ltf, norm, re, im),
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2 => {
                    // SAFETY: `level` is `Avx2` only once `is_supported` saw AVX2 on this CPU.
                    unsafe { xcorr_avx2(xr, xi, ltf, norm, re, im) }
                }
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx512 => {
                    // SAFETY: `level` is `Avx512` only once `is_supported` saw AVX-512F here.
                    unsafe { xcorr_avx512(xr, xi, ltf, norm, re, im) }
                }
            }
        }
        &self.acc_re
    }
}

/// The correlation kernel, inlined into each of its per-level clones:
/// `re[i] + j·im[i]` becomes `|(Σ_k x[i+k]·conj(ltf[k]))·norm|` stored
/// in `re[i]`, for `x = xr + j·xi` and every `i < re.len()`.
///
/// The template loop is outermost, so the inner loop runs over
/// contiguous outputs and vectorizes. Each output still adds its terms
/// in ascending `k` from `+0.0`, with the products of `Complex`'s `Mul`
/// against `conj(ltf[k]) = c − j·s`, so it is the sum of
/// `Sum::<Complex>` bit for bit, at any vector width.
#[inline(always)]
fn xcorr_body(xr: &[f64], xi: &[f64], ltf: &[Complex], norm: f64, re: &mut [f64], im: &mut [f64]) {
    let outputs = re.len();
    for (k, t) in ltf.iter().enumerate() {
        let (c, ns) = (t.re, -t.im);
        let x = xr[k..k + outputs].iter().zip(&xi[k..k + outputs]);
        for ((re, im), (&xr, &xi)) in re.iter_mut().zip(im.iter_mut()).zip(x) {
            *re += xr * c - xi * ns;
            *im += xr * ns + xi * c;
        }
    }
    for (re, &im) in re.iter_mut().zip(im.iter()) {
        *re = Complex::new(*re, im).scale(norm).abs();
    }
}

/// [`xcorr_body`] at the target's baseline.
fn xcorr_portable(
    xr: &[f64],
    xi: &[f64],
    ltf: &[Complex],
    norm: f64,
    re: &mut [f64],
    im: &mut [f64],
) {
    xcorr_body(xr, xi, ltf, norm, re, im);
}

/// [`xcorr_body`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn xcorr_avx2(xr: &[f64], xi: &[f64], ltf: &[Complex], norm: f64, re: &mut [f64], im: &mut [f64]) {
    xcorr_body(xr, xi, ltf, norm, re, im);
}

/// [`xcorr_body`] compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn xcorr_avx512(
    xr: &[f64],
    xi: &[f64],
    ltf: &[Complex],
    norm: f64,
    re: &mut [f64],
    im: &mut [f64],
) {
    xcorr_body(xr, xi, ltf, norm, re, im);
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

    /// An LTF search running `level`'s kernel clone.
    fn search_at(level: SimdLevel) -> LtfSearch {
        assert!(level.is_supported(), "{level:?} is not supported here");
        LtfSearch {
            level,
            ..LtfSearch::default()
        }
    }

    /// Equal bits, or both NaN: which NaN payload an add propagates
    /// depends on its operand order, which the compiler may commute.
    fn same_f64(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn correlation_peaks_at_alignment() {
        let mut rng = Rng::new(1);
        let r: Vec<Complex> = (0..32).map(|_| rng.complex_gaussian(1.0)).collect();
        let mut x = vec![Complex::ZERO; 100];
        x[40..72].copy_from_slice(&r);
        let energy: f64 = r.iter().map(|z| z.norm_sqr()).sum();
        let mut search = LtfSearch::default();
        let mag = search.correlation_magnitudes(&x, &r, 1.0 / energy);
        assert_eq!(mag.len(), 69);
        let peak = (0..mag.len()).fold(0, |b, i| if mag[i] > mag[b] { i } else { b });
        assert_eq!(peak, 40);
        assert!((mag[40] - 1.0).abs() < 1e-9); // normalized
    }

    #[test]
    fn correlation_short_signal() {
        // A signal shorter than the template has no offsets.
        let mut search = LtfSearch::default();
        assert!(search
            .correlation_magnitudes(&[Complex::ONE; 4], &[Complex::ONE; 8], 1.0)
            .is_empty());
    }

    #[test]
    fn every_simd_level_matches_reference() {
        // Each LTF kernel clone this CPU runs, one search per level
        // reused across the cases, against the array-of-structs
        // correlator of `wlan_conformance::refimpl`: every magnitude bit
        // for bit, and the same located index. Templates of 64 and 128
        // points; output counts 0, 1, either side of the 8- and 16-lane
        // blocks, and the receiver's own windows; Gaussian input seeded
        // with −0.0, subnormal, ≥ 2^53, ±∞ and NaN values.
        use wlan_conformance::refimpl::cross_correlate_reference;
        let levels: Vec<SimdLevel> = SimdLevel::ALL
            .iter()
            .copied()
            .filter(|level| level.is_supported())
            .collect();
        println!(
            "LTF kernel SIMD levels covered: {levels:?}; default() selects {:?}",
            LtfSearch::default().level
        );
        assert_eq!(levels.last(), Some(&SimdLevel::Portable));
        let mut searches: Vec<LtfSearch> = levels.iter().map(|&l| search_at(l)).collect();
        let mut rng = Rng::new(64);
        let specials = [
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            9_007_199_254_740_993.0,
            -3.0e17,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut cases = 0;
        for p in crate::profile::ALL_PROFILES {
            let n = p.fft_size;
            let ofdm = Ofdm::with_profile(p);
            let ltf = long_training_symbol(&ofdm)[..n].to_vec();
            let gaussian: Vec<Complex> = (0..n).map(|_| rng.complex_gaussian(1.0)).collect();
            // The receiver's window: span (130·n)/64 plus n offsets.
            let rx_outputs = (130 * n) / 64 + n;
            for template in [&ltf, &gaussian] {
                for outputs in [0, 1, 7, 8, 9, 15, 16, 17, 33, rx_outputs] {
                    for special in [None].into_iter().chain(specials.map(Some)) {
                        let mut x: Vec<Complex> = (0..outputs + n - 1)
                            .map(|_| rng.complex_gaussian(1.0))
                            .collect();
                        if let Some(v) = special {
                            // One special value late in the region, and
                            // (finite ones) every 7th real or imaginary part.
                            let len = x.len();
                            if len > 0 {
                                x[len - 1 - len / 5].re = v;
                            }
                            if v.is_finite() {
                                for (i, z) in x.iter_mut().enumerate().step_by(7) {
                                    if i % 2 == 0 {
                                        z.re = v;
                                    } else {
                                        z.im = v;
                                    }
                                }
                            }
                        }
                        let want: Vec<f64> = cross_correlate_reference(&x, template)
                            .iter()
                            .map(|c| c.abs())
                            .collect();
                        let energy: f64 = template.iter().map(|r| r.norm_sqr()).sum();
                        assert_eq!(want.len(), outputs);
                        for search in &mut searches {
                            let what = format!(
                                "{:?} {} n {n} outputs {outputs} special {special:?}",
                                search.level, p.name
                            );
                            let got = search.correlation_magnitudes(&x, template, 1.0 / energy);
                            assert_eq!(got.len(), outputs, "{what}");
                            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                                assert!(same_f64(g, w), "{what}: output {i} {g} vs {w}");
                            }
                        }
                        cases += 1;
                    }
                }
            }
            // The located index on a real burst, through every level.
            let burst = Transmitter::with_profile(Rate::R24, p).transmit(&[7u8; 40]);
            let truth = p.stf_len() + p.ltf_guard();
            let window = truth - 60..truth + 60;
            let region = &burst.samples[window.start..window.end + 2 * n];
            let c = cross_correlate_reference(region, &ltf);
            let mut best = (0, f64::MIN);
            for i in 0..window.len() {
                let score = c[i].abs() + c[i + n].abs();
                if score > best.1 {
                    best = (i, score);
                }
            }
            for search in &mut searches {
                let found = locate_ltf_with(&burst.samples, &ltf, window.clone(), search);
                assert_eq!(
                    found,
                    Some(window.start + best.0),
                    "{:?} {}",
                    search.level,
                    p.name
                );
                assert_eq!(found, Some(truth), "{:?} {}", search.level, p.name);
            }
        }
        assert!(cases > 0);
    }

    #[test]
    fn delay_correlation_detects_periodicity() {
        // Periodic signal with period 16.
        let mut rng = Rng::new(2);
        let seed: Vec<Complex> = (0..16).map(|_| rng.complex_gaussian(1.0)).collect();
        let mut x = Vec::new();
        for _ in 0..8 {
            x.extend_from_slice(&seed);
        }
        // Append noise (non-periodic tail).
        x.extend((0..64).map(|_| rng.complex_gaussian(1.0)));
        let mut acc = DelayCorrelation::new(&x, 16, 32);
        // In the periodic region |P|/R ≈ 1.
        let m0 = acc.p.abs() / acc.r;
        assert!((m0 - 1.0).abs() < 1e-9, "metric {m0}");
        // Deep in the noise-only region the metric is far below 1.
        let last = x.len() - 16 - 32;
        for n in 1..=last {
            acc.slide(&x, n);
        }
        let mt = acc.p.abs() / acc.r;
        assert!(mt < 0.6, "tail metric {mt}");
    }

    #[test]
    fn delay_correlation_running_sum_matches_direct() {
        let mut rng = Rng::new(3);
        let x: Vec<Complex> = (0..100).map(|_| rng.complex_gaussian(1.0)).collect();
        let mut acc = DelayCorrelation::new(&x, 5, 10);
        for n in 0..=85 {
            if n > 0 {
                acc.slide(&x, n);
            }
            if [0usize, 7, 42, 85].contains(&n) {
                let mut dp = Complex::ZERO;
                let mut dr = 0.0;
                for k in 0..10 {
                    dp += x[n + k] * x[n + k + 5].conj();
                    dr += x[n + k + 5].norm_sqr();
                }
                assert!((acc.p - dp).abs() < 1e-9);
                assert!((acc.r - dr).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn streaming_detection_matches_eager_reference() {
        // The scan that stops at the plateau against the whole-input
        // delay correlation of `wlan_conformance::refimpl`, on every
        // profile: the plateau at sample 0, mid-buffer and completing
        // at the very last window; noise only; all zeros. The running
        // `P` and `R` match over every window; detection gives the same
        // start and CFO bits, and its `P` history is the reference's
        // prefix.
        use wlan_conformance::refimpl::{delay_correlate_reference, detect_reference};
        let mut rng = Rng::new(77);
        let mut p = Vec::new();
        let (mut found, mut at_end) = (0, 0);
        for prof in crate::profile::ALL_PROFILES {
            let l = prof.stf_period();
            let burst = Transmitter::with_profile(Rate::R12, prof).transmit(&[0x3C; 30]);
            let noise = |rng: &mut Rng, len: usize, var: f64| -> Vec<Complex> {
                (0..len).map(|_| rng.complex_gaussian(var)).collect()
            };
            let mut inputs = vec![
                ("plateau at 0".to_string(), burst.samples.clone()),
                ("noise".to_string(), noise(&mut rng, 3000, 1.0)),
                ("zeros".to_string(), vec![Complex::ZERO; 700]),
            ];
            let mut mid = noise(&mut rng, 333, 1e-3);
            mid.extend(&burst.samples);
            mid.extend(noise(&mut rng, 100, 1e-3));
            inputs.push(("mid-buffer".to_string(), mid.clone()));
            // Cuts through the short training field: one of them ends
            // the buffer on the window that completes the run.
            for cut in (333 + 3 * l..333 + 10 * l).step_by(3) {
                inputs.push((format!("cut {cut}"), mid[..cut].to_vec()));
            }
            for (what, x) in &inputs {
                // The running sums over every window, bit for bit.
                let (p_ref, r_ref) = delay_correlate_reference(x, l, 2 * l);
                if !p_ref.is_empty() {
                    let mut acc = DelayCorrelation::new(x, l, 2 * l);
                    for n in 0..p_ref.len() {
                        if n > 0 {
                            acc.slide(x, n);
                        }
                        let (pn, rn) = (p_ref[n], r_ref[n]);
                        assert!(
                            same_f64(acc.p.re, pn.re) && same_f64(acc.p.im, pn.im),
                            "{what}: P[{n}]"
                        );
                        assert!(same_f64(acc.r, rn), "{what}: R[{n}]");
                    }
                }
                for (threshold, run) in [(0.55, 16), (0.55, 1), (0.6, 0), (0.3, 40)] {
                    let what = format!("{} {what} threshold {threshold} run {run}", prof.name);
                    let got = detect_packet_in(x, threshold, run, l, prof.sample_rate, &mut p);
                    let want = detect_reference(x, threshold, run, l).map(|(start, pm)| {
                        let cfo =
                            -pm.arg() * prof.sample_rate / (2.0 * std::f64::consts::PI * l as f64);
                        Detection {
                            start,
                            coarse_cfo_hz: cfo,
                        }
                    });
                    assert_eq!(
                        got.map(|d| (d.start, d.coarse_cfo_hz.to_bits())),
                        want.map(|d| (d.start, d.coarse_cfo_hz.to_bits())),
                        "{what}"
                    );
                    assert!(p.len() <= p_ref.len(), "{what}");
                    for (i, (a, b)) in p.iter().zip(&p_ref).enumerate() {
                        assert!(
                            same_f64(a.re, b.re) && same_f64(a.im, b.im),
                            "{what}: P[{i}]"
                        );
                    }
                    if let Some(d) = got {
                        found += 1;
                        if d.start + run.max(1) == p_ref.len() {
                            at_end += 1;
                        }
                    } else {
                        assert_eq!(p.len(), p_ref.len(), "{what}: a miss scans everything");
                    }
                }
            }
        }
        assert!(
            found > 0 && at_end > 0,
            "found {found}, at the end {at_end}"
        );
    }
}
