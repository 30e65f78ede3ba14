//! The complete OFDM receiver: packet detection through PSDU
//! extraction (802.11a by default, any numerology profile via
//! [`Receiver::with_profile`]).

use crate::equalizer::{equalize_symbol, estimate_snr_db, ChannelEstimate};
use crate::frame::extract_psdu_into;
use crate::interleaver::Interleaver;
use crate::modulation::{demap_soft_into, nearest_point};
use crate::ofdm::{FreqSymbol, Ofdm};
use crate::params::Rate;
use crate::preamble::long_training_symbol;
use crate::profile::{OfdmProfile, IEEE_802_11A};
use crate::puncture::depuncture_into;
use crate::signal_field::{SignalDecoder, SignalError, SignalField};
use crate::sync::{
    correct_cfo_range_append, detect_packet_in, fine_cfo_at, locate_ltf_with, LtfSearch,
};
use crate::viterbi::{Llr, ViterbiDecoder};
use wlan_dsp::Complex;

/// Receive failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum RxError {
    /// No short-training plateau found.
    NotDetected,
    /// The long training field could not be located.
    LtfNotFound,
    /// The SIGNAL field failed to decode.
    Signal(SignalError),
    /// The burst ends before the announced number of DATA symbols.
    Truncated {
        /// Samples required by the SIGNAL field.
        needed: usize,
        /// Samples actually available.
        available: usize,
    },
    /// The scrambler seed could not be recovered from the SERVICE field.
    ScramblerSync,
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RxError::NotDetected => write!(f, "no packet detected"),
            RxError::LtfNotFound => write!(f, "long training field not located"),
            RxError::Signal(e) => write!(f, "signal field: {e}"),
            RxError::Truncated { needed, available } => {
                write!(
                    f,
                    "burst truncated: need {needed} samples, have {available}"
                )
            }
            RxError::ScramblerSync => write!(f, "scrambler seed recovery failed"),
        }
    }
}

impl std::error::Error for RxError {}

impl From<SignalError> for RxError {
    fn from(e: SignalError) -> Self {
        RxError::Signal(e)
    }
}

/// A successfully decoded packet.
#[derive(Debug, Clone)]
pub struct Received {
    /// Decoded PSDU bytes.
    pub psdu: Vec<u8>,
    /// Decoded SIGNAL field (rate and length).
    pub signal: SignalField,
    /// Total carrier frequency offset that was removed (Hz).
    pub cfo_hz: f64,
    /// All equalized data-subcarrier values (for constellation and EVM
    /// analysis), in symbol order.
    pub equalized: Vec<Complex>,
    /// RMS error vector magnitude of the equalized constellation,
    /// relative to the nearest ideal points (linear, not %).
    pub evm_rms: f64,
    /// SNR estimated from the long training field (dB), when measurable.
    pub snr_est_db: Option<f64>,
}

impl Received {
    /// EVM in dB (`20·log10(evm_rms)`).
    pub fn evm_db(&self) -> f64 {
        wlan_dsp::math::amp_to_db(self.evm_rms)
    }

    /// The PSDU as LSB-first bits (for BER counting).
    pub fn psdu_bits(&self) -> Vec<u8> {
        crate::frame::bytes_to_bits(&self.psdu)
    }
}

/// Scalar results of an allocation-free receive; the PSDU bytes and
/// equalized constellation stay in the [`RxScratch`] buffers.
#[derive(Debug, Clone, Copy)]
pub struct RxSummary {
    /// Decoded SIGNAL field (rate and length).
    pub signal: SignalField,
    /// Total carrier frequency offset that was removed (Hz).
    pub cfo_hz: f64,
    /// RMS error vector magnitude (linear); see [`Received::evm_rms`].
    pub evm_rms: f64,
    /// SNR estimated from the long training field (dB), when measurable.
    pub snr_est_db: Option<f64>,
}

impl RxSummary {
    /// EVM in dB (`20·log10(evm_rms)`).
    pub fn evm_db(&self) -> f64 {
        wlan_dsp::math::amp_to_db(self.evm_rms)
    }
}

/// Reusable receive-side working buffers for [`Receiver::receive_into`].
///
/// After a successful call, [`RxScratch::psdu`] holds the decoded bytes
/// and [`RxScratch::equalized`] the equalized data subcarriers (both
/// valid until the next call). All buffers retain capacity between
/// packets, so steady-state reception performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct RxScratch {
    /// Delay-correlation metric P up to the detected plateau.
    p: Vec<Complex>,
    /// LTF timing search buffers and kernel level.
    ltf_search: LtfSearch,
    /// Coarse-CFO-corrected LTF search window (timing/fine-CFO
    /// estimation).
    coarse: Vec<Complex>,
    /// Total-CFO-corrected samples (decoding input), from the timing
    /// backoff before the first LTF body through the last DATA
    /// symbol.
    corrected: Vec<Complex>,
    /// Accumulated de-interleaved LLRs for the whole DATA field.
    llrs: Vec<Llr>,
    /// Per-symbol demapped LLRs.
    sym_llrs: Vec<Llr>,
    /// Depunctured full-rate LLR stream.
    full: Vec<Llr>,
    viterbi: ViterbiDecoder,
    /// Viterbi output bits.
    decoded: Vec<u8>,
    signal: SignalDecoder,
    /// Data interleaver cached per rate.
    il: Option<(Rate, Interleaver)>,
    /// Decoded PSDU bytes of the last successful receive.
    pub psdu: Vec<u8>,
    /// Equalized data subcarriers of the last successful receive.
    pub equalized: Vec<Complex>,
}

impl RxScratch {
    /// Pre-reserves every LENGTH-dependent decode buffer for the worst
    /// case a SIGNAL field can request: a [`MAX_PSDU_LEN`]-byte PSDU at
    /// whichever rate maximizes each buffer. Without this, a rare decode
    /// candidate whose (possibly corrupted) LENGTH exceeds everything
    /// seen during warm-up grows the scratch mid-run. Sync-stage buffers
    /// (`p`, `ltf_search`, `coarse`, `corrected`) scale with the input
    /// waveform length and are sized by the first call instead.
    ///
    /// [`MAX_PSDU_LEN`]: crate::params::MAX_PSDU_LEN
    pub fn reserve_worst_case(&mut self) {
        use crate::params::{ALL_RATES, MAX_PSDU_LEN, N_DATA_CARRIERS};
        let mut llrs_cap = 0usize;
        let mut full_cap = 0usize;
        let mut sym_cap = 0usize;
        let mut eq_cap = 0usize;
        for rate in ALL_RATES {
            let n_sym = rate.data_symbols(MAX_PSDU_LEN);
            llrs_cap = llrs_cap.max(n_sym * rate.ncbps());
            // Depunctured full-rate stream: two LLRs per information bit.
            full_cap = full_cap.max(2 * n_sym * rate.ndbps());
            sym_cap = sym_cap.max(rate.ncbps());
            eq_cap = eq_cap.max(n_sym * N_DATA_CARRIERS);
        }
        self.llrs.reserve(llrs_cap);
        self.sym_llrs.reserve(sym_cap);
        self.full.reserve(full_cap);
        self.viterbi.reserve_steps(full_cap / 2);
        self.decoded.reserve(full_cap / 2);
        self.psdu.reserve(MAX_PSDU_LEN);
        self.equalized.reserve(eq_cap);
    }
}

/// Full OFDM receiver.
///
/// The default configuration performs blind detection, coarse + fine CFO
/// correction, LTF timing, LS channel estimation, pilot phase tracking
/// and soft-decision Viterbi decoding.
///
/// 16-byte aligned, so the inline LTF template is too wherever a caller
/// holds the receiver: at an 8-mod-16 offset the Ideal receive loop
/// measured about 8% slower.
#[derive(Debug, Clone)]
#[repr(align(16))]
pub struct Receiver {
    ofdm: Ofdm,
    /// LTF time-domain template (first `fft_size` entries valid), cached
    /// so timing search does not rebuild it (an IFFT) per packet.
    ltf: FreqSymbol,
    detection_threshold: f64,
    detection_run: usize,
    /// FFT window backoff into the cyclic prefix (samples).
    timing_backoff: usize,
}

impl Default for Receiver {
    fn default() -> Self {
        Receiver::new()
    }
}

impl Receiver {
    /// Creates an 802.11a receiver with default synchronization
    /// parameters.
    pub fn new() -> Self {
        Receiver::with_profile(&IEEE_802_11A)
    }

    /// Creates a receiver for an arbitrary numerology profile.
    pub fn with_profile(profile: &'static OfdmProfile) -> Self {
        let ofdm = Ofdm::with_profile(profile);
        let ltf = long_training_symbol(&ofdm);
        Receiver {
            ofdm,
            ltf,
            detection_threshold: 0.55,
            detection_run: 16,
            timing_backoff: 3,
        }
    }

    /// The numerology profile this receiver demodulates with.
    pub fn profile(&self) -> &'static OfdmProfile {
        self.ofdm.profile()
    }

    /// Overrides the detection metric threshold (0..1).
    pub fn with_detection_threshold(mut self, threshold: f64) -> Self {
        self.detection_threshold = threshold;
        self
    }

    /// Receives a burst: full blind synchronization and decoding.
    ///
    /// # Errors
    ///
    /// Returns an [`RxError`] describing the first failing stage.
    pub fn receive(&self, samples: &[Complex]) -> Result<Received, RxError> {
        let mut scratch = RxScratch::default();
        let sum = self.receive_into(samples, &mut scratch)?;
        Ok(received_from(sum, &mut scratch))
    }

    /// [`Receiver::receive`] reusing caller-owned working buffers: the
    /// decoded PSDU lands in `scratch.psdu` and the equalized
    /// constellation in `scratch.equalized`. Steady-state calls perform
    /// no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns an [`RxError`] describing the first failing stage.
    pub fn receive_into(
        &self,
        samples: &[Complex],
        scratch: &mut RxScratch,
    ) -> Result<RxSummary, RxError> {
        let profile = self.profile();
        let n = profile.fft_size;
        let det = detect_packet_in(
            samples,
            self.detection_threshold,
            self.detection_run,
            profile.stf_period(),
            profile.sample_rate,
            &mut scratch.p,
        )
        .ok_or(RxError::NotDetected)?;

        // The LTF body 1 nominally sits stf_len + ltf_guard (192 for
        // 802.11a) samples after the STF start; search a generous window
        // around it, scaled with the FFT size.
        let w_lo = (det.start + (150 * n) / 64).min(samples.len());
        let w_hi = (det.start + (280 * n) / 64).min(samples.len());
        if w_lo >= w_hi {
            return Err(RxError::LtfNotFound);
        }
        // The LTF search and the fine estimate read only
        // `[w_lo, w_hi + 2n)`, so only that window is coarse-derotated
        // (`scratch.coarse[i]` is sample `w_lo + i`).
        scratch.coarse.clear();
        correct_cfo_range_append(
            samples,
            w_lo..(w_hi + 2 * n).min(samples.len()),
            det.coarse_cfo_hz,
            profile.sample_rate,
            &mut scratch.coarse,
        );
        let ltf1 = w_lo
            + locate_ltf_with(
                &scratch.coarse,
                &self.ltf[..n],
                0..w_hi - w_lo,
                &mut scratch.ltf_search,
            )
            .ok_or(RxError::LtfNotFound)?;

        let fine = fine_cfo_at(&scratch.coarse, ltf1 - w_lo, n, profile.sample_rate)
            .ok_or(RxError::LtfNotFound)?;
        let total_cfo = det.coarse_cfo_hz + fine;
        self.decode_from_into(samples, ltf1, total_cfo, true, scratch)
    }

    /// Receives with genie timing: `ltf_start` is the known index of the
    /// first long-training symbol body and `cfo_hz` the known offset.
    /// Used for EVM measurements with an "ideal receiver" (the paper's
    /// §5.2) and for isolating impairments from sync behavior.
    ///
    /// # Errors
    ///
    /// Returns an [`RxError`] if decoding fails.
    pub fn receive_with_timing(
        &self,
        samples: &[Complex],
        ltf_start: usize,
        cfo_hz: f64,
    ) -> Result<Received, RxError> {
        let mut scratch = RxScratch::default();
        let sum = self.receive_with_timing_into(samples, ltf_start, cfo_hz, &mut scratch)?;
        Ok(received_from(sum, &mut scratch))
    }

    /// [`Receiver::receive_with_timing`] reusing caller-owned working
    /// buffers; see [`Receiver::receive_into`].
    ///
    /// # Errors
    ///
    /// Returns an [`RxError`] if decoding fails.
    pub fn receive_with_timing_into(
        &self,
        samples: &[Complex],
        ltf_start: usize,
        cfo_hz: f64,
        scratch: &mut RxScratch,
    ) -> Result<RxSummary, RxError> {
        self.decode_from_into(samples, ltf_start, cfo_hz, cfo_hz != 0.0, scratch)
    }

    /// Decodes the burst whose first LTF body is `samples[ltf1]`; fills
    /// `scratch.psdu` / `scratch.equalized`.
    ///
    /// Only the samples the decode reads reach `scratch.corrected`:
    /// derotated by `cfo_hz` at their absolute index when `derotate`,
    /// else copied. They go in twice, through the SIGNAL body and then,
    /// once SIGNAL gives the length, through the last DATA symbol.
    fn decode_from_into(
        &self,
        samples: &[Complex],
        ltf1: usize,
        cfo_hz: f64,
        derotate: bool,
        scratch: &mut RxScratch,
    ) -> Result<RxSummary, RxError> {
        let profile = self.profile();
        let n = profile.fft_size;
        let cp = profile.cp_len;
        let sym_len = profile.symbol_len();
        let RxScratch {
            corrected,
            llrs,
            sym_llrs,
            full,
            viterbi,
            decoded,
            signal: signal_dec,
            il,
            psdu,
            equalized,
            ..
        } = scratch;
        let available = samples.len();
        let d = self.timing_backoff;
        if ltf1 < d || ltf1 + 2 * n + sym_len > available {
            return Err(RxError::Truncated {
                needed: ltf1 + 2 * n + sym_len,
                available,
            });
        }
        // `corrected[i]` is sample `base + i`.
        let base = ltf1 - d;
        let sample_rate = profile.sample_rate;
        let fill = |out: &mut Vec<Complex>, range: std::ops::Range<usize>| {
            if derotate {
                correct_cfo_range_append(samples, range, cfo_hz, sample_rate, out);
            } else {
                out.extend_from_slice(&samples[range]);
            }
        };

        // SIGNAL symbol body.
        let sig_body_start = ltf1 + 2 * n + cp - d;
        if sig_body_start + n > available {
            return Err(RxError::Truncated {
                needed: sig_body_start + n,
                available,
            });
        }
        corrected.clear();
        fill(corrected, base..sig_body_start + n);
        let x: &[Complex] = corrected;

        // Channel estimate from the two LTF bodies (with timing backoff —
        // the resulting linear phase is absorbed into H and cancelled for
        // the data symbols, which use the same backoff).
        let b1 = &x[..n];
        let b2 = &x[n..2 * n];
        let channel = ChannelEstimate::from_ltf(&self.ofdm, b1, b2);
        let snr_est_db = estimate_snr_db(&self.ofdm, b1, b2);

        let sig_body = sig_body_start - base;
        let sig_freq = self.ofdm.demodulate_body(&x[sig_body..sig_body + n]);
        let sig_eq = equalize_symbol(&sig_freq, &channel, 0);
        let signal = signal_dec.decode(&sig_eq.data, Some(&sig_eq.csi))?;

        let rate: Rate = signal.rate;
        let n_sym = rate.data_symbols(signal.length);
        let data_start = ltf1 + 2 * n + sym_len; // start of first DATA symbol (incl. CP)
        let needed = data_start + n_sym * sym_len - d;
        if needed > available {
            return Err(RxError::Truncated { needed, available });
        }
        fill(corrected, sig_body_start + n..needed);
        let x: &[Complex] = corrected;

        // Demodulate, equalize and soft-demap each DATA symbol.
        if il.as_ref().map(|(r, _)| *r) != Some(rate) {
            *il = Some((rate, Interleaver::new(rate)));
        }
        let il = &il.as_ref().expect("interleaver cached above").1;
        llrs.clear();
        llrs.reserve(n_sym * rate.ncbps());
        equalized.clear();
        equalized.reserve(n_sym * 48);
        let mut ev_acc = 0.0f64;
        let mut ev_n = 0usize;
        for m in 0..n_sym {
            let body = data_start + m * sym_len + cp - d - base;
            let freq = self.ofdm.demodulate_body(&x[body..body + n]);
            let eq = equalize_symbol(&freq, &channel, m + 1);
            demap_soft_into(&eq.data, rate.modulation(), Some(&eq.csi), sym_llrs);
            il.deinterleave_append(sym_llrs, llrs);
            for &v in eq.data.iter() {
                let ideal = nearest_point(v, rate.modulation());
                ev_acc += (v - ideal).norm_sqr();
                ev_n += 1;
                equalized.push(v);
            }
        }
        let evm_rms = (ev_acc / ev_n as f64).sqrt();

        // Decode.
        depuncture_into(llrs, rate.code_rate(), full);
        viterbi.decode_soft_into(full, decoded);
        if !extract_psdu_into(decoded, signal.length, psdu) {
            return Err(RxError::ScramblerSync);
        }

        Ok(RxSummary {
            signal,
            cfo_hz,
            evm_rms,
            snr_est_db,
        })
    }
}

/// Moves the buffers of a successful [`Receiver::receive_into`] out of
/// the scratch into an owned [`Received`].
fn received_from(sum: RxSummary, scratch: &mut RxScratch) -> Received {
    Received {
        psdu: std::mem::take(&mut scratch.psdu),
        signal: sum.signal,
        cfo_hz: sum.cfo_hz,
        equalized: std::mem::take(&mut scratch.equalized),
        evm_rms: sum.evm_rms,
        snr_est_db: sum.snr_est_db,
    }
}

/// Counts bit errors between a transmitted and received byte payload of
/// equal length; unequal lengths count every bit of the length difference
/// as an error.
pub fn count_bit_errors(tx: &[u8], rx: &[u8]) -> usize {
    let common = tx.len().min(rx.len());
    let diff_bits: usize = tx[..common]
        .iter()
        .zip(&rx[..common])
        .map(|(a, b)| (a ^ b).count_ones() as usize)
        .sum();
    diff_bits + 8 * (tx.len().max(rx.len()) - common)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ALL_RATES, SAMPLE_RATE};
    use crate::profile::ALL_PROFILES;
    use crate::sync::correct_cfo_into_at;
    use crate::transmitter::Transmitter;
    use wlan_dsp::rng::Rng;

    fn impaired(
        burst: &[Complex],
        pad: usize,
        cfo_hz: f64,
        snr_db: f64,
        seed: u64,
    ) -> Vec<Complex> {
        let mut rng = Rng::new(seed);
        let nv = wlan_dsp::math::db_to_lin(-snr_db);
        let w = 2.0 * std::f64::consts::PI * cfo_hz / SAMPLE_RATE;
        let mut out: Vec<Complex> = (0..pad).map(|_| rng.complex_gaussian(nv)).collect();
        for (n, &s) in burst.iter().enumerate() {
            out.push(s * Complex::cis(w * (pad + n) as f64) + rng.complex_gaussian(nv));
        }
        out.extend((0..200).map(|_| rng.complex_gaussian(nv)));
        out
    }

    #[test]
    fn loopback_clean_all_rates() {
        let mut rng = Rng::new(1);
        let rx = Receiver::new();
        for r in ALL_RATES {
            let mut psdu = vec![0u8; 100];
            rng.bytes(&mut psdu);
            let burst = Transmitter::new(r).transmit(&psdu);
            let got = rx
                .receive(&burst.samples)
                .unwrap_or_else(|e| panic!("{r}: {e}"));
            assert_eq!(got.psdu, psdu, "{r}");
            assert_eq!(got.signal.rate, r);
            assert_eq!(got.signal.length, 100);
            assert!(got.evm_db() < -40.0, "{r}: EVM {}", got.evm_db());
        }
    }

    #[test]
    fn loopback_clean_every_profile() {
        let mut rng = Rng::new(21);
        for p in ALL_PROFILES {
            let rx = Receiver::with_profile(p);
            let mut psdu = vec![0u8; 100];
            rng.bytes(&mut psdu);
            let burst = Transmitter::with_profile(Rate::R24, p).transmit(&psdu);
            let got = rx
                .receive(&burst.samples)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert_eq!(got.psdu, psdu, "{}", p.name);
            assert_eq!(got.signal.rate, Rate::R24);
            assert!(got.evm_db() < -40.0, "{}: EVM {}", p.name, got.evm_db());
        }
    }

    #[test]
    fn noisy_cfo_loopback_every_profile() {
        let mut rng = Rng::new(22);
        for p in ALL_PROFILES {
            let rx = Receiver::with_profile(p);
            let mut psdu = vec![0u8; 80];
            rng.bytes(&mut psdu);
            let burst = Transmitter::with_profile(Rate::R12, p).transmit(&psdu);
            // Impair at the profile's own sample rate; scale the CFO with
            // the subcarrier spacing so the fractional offset matches.
            let cfo = 0.004 * p.sample_rate;
            let nv = wlan_dsp::math::db_to_lin(-18.0);
            let w = 2.0 * std::f64::consts::PI * cfo / p.sample_rate;
            let mut rng2 = Rng::new(23);
            let mut x: Vec<Complex> = (0..137).map(|_| rng2.complex_gaussian(nv)).collect();
            for (n, &s) in burst.samples.iter().enumerate() {
                x.push(s * Complex::cis(w * (137 + n) as f64) + rng2.complex_gaussian(nv));
            }
            x.extend((0..200).map(|_| rng2.complex_gaussian(nv)));
            let got = rx.receive(&x).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert_eq!(got.psdu, psdu, "{}", p.name);
            assert!(
                (got.cfo_hz - cfo).abs() < 0.1 * cfo.abs().max(1.0),
                "{}: cfo {} vs {}",
                p.name,
                got.cfo_hz,
                cfo
            );
        }
    }

    #[test]
    fn decodes_with_noise_pad_and_cfo() {
        let mut rng = Rng::new(2);
        let rx = Receiver::new();
        for (r, snr) in [(Rate::R6, 10.0), (Rate::R24, 20.0), (Rate::R54, 28.0)] {
            let mut psdu = vec![0u8; 80];
            rng.bytes(&mut psdu);
            let burst = Transmitter::new(r).transmit(&psdu);
            let x = impaired(&burst.samples, 137, 80e3, snr, 3);
            let got = rx.receive(&x).unwrap_or_else(|e| panic!("{r}: {e}"));
            assert_eq!(got.psdu, psdu, "{r}");
            assert!((got.cfo_hz - 80e3).abs() < 5e3, "{r}: cfo {}", got.cfo_hz);
        }
    }

    #[test]
    fn flat_channel_gain_and_phase_handled() {
        let mut rng = Rng::new(4);
        let mut psdu = vec![0u8; 60];
        rng.bytes(&mut psdu);
        let burst = Transmitter::new(Rate::R36).transmit(&psdu);
        let g = Complex::from_polar(0.31, 2.2);
        let x: Vec<Complex> = burst.samples.iter().map(|&s| s * g).collect();
        let got = Receiver::new().receive(&x).expect("decodes");
        assert_eq!(got.psdu, psdu);
    }

    #[test]
    fn multipath_channel_decodes() {
        // Two-ray channel within the cyclic prefix.
        let mut rng = Rng::new(5);
        let mut psdu = vec![0u8; 120];
        rng.bytes(&mut psdu);
        let burst = Transmitter::new(Rate::R12).transmit(&psdu);
        let mut x = vec![Complex::ZERO; burst.samples.len() + 8];
        for (n, &s) in burst.samples.iter().enumerate() {
            x[n] += s;
            x[n + 5] += s * Complex::from_polar(0.4, 1.0);
        }
        let got = Receiver::new().receive(&x).expect("decodes");
        assert_eq!(got.psdu, psdu);
    }

    #[test]
    fn genie_timing_matches_blind() {
        let mut rng = Rng::new(6);
        let mut psdu = vec![0u8; 90];
        rng.bytes(&mut psdu);
        let burst = Transmitter::new(Rate::R24).transmit(&psdu);
        let got = Receiver::new()
            .receive_with_timing(&burst.samples, 192, 0.0)
            .expect("decodes");
        assert_eq!(got.psdu, psdu);
        assert!(got.evm_db() < -40.0);
    }

    #[test]
    fn pure_noise_is_not_detected() {
        let mut rng = Rng::new(7);
        let x: Vec<Complex> = (0..4000).map(|_| rng.complex_gaussian(1.0)).collect();
        assert!(matches!(
            Receiver::new().receive(&x),
            Err(RxError::NotDetected)
        ));
    }

    #[test]
    fn non_finite_bursts_never_panic() {
        // All-NaN and all-infinite input fail detection. A clean burst
        // whose DATA field turns NaN or infinite after the SIGNAL symbol
        // carries non-finite values through the EVM slicer and the
        // decoder, which must not panic on them.
        let rx = Receiver::new();
        let mut s = RxScratch::default();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let x = vec![Complex::new(v, v); 2000];
            assert_eq!(
                rx.receive_into(&x, &mut s).err(),
                Some(RxError::NotDetected),
                "{v}"
            );
        }
        let burst = Transmitter::new(Rate::R54).transmit(&[0x96; 120]);
        for v in [f64::NAN, f64::INFINITY] {
            let mut x = burst.samples.clone();
            // 400 samples of preamble and SIGNAL, then three DATA symbols.
            for z in &mut x[400 + 80 * 3..] {
                *z = Complex::new(v, -v);
            }
            let _ = rx.receive_into(&x, &mut s);
        }
    }

    #[test]
    fn truncated_burst_reports_error() {
        let burst = Transmitter::new(Rate::R6).transmit(&[1u8; 200]);
        let cut = &burst.samples[..600];
        match Receiver::new().receive(cut) {
            Err(RxError::Truncated { .. }) | Err(RxError::LtfNotFound) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    /// `receive_into` as it was before either derotation was trimmed:
    /// coarse-derotate the whole input and search it in place, then
    /// derotate the whole input by the total CFO and decode from that.
    fn receive_whole_coarse(
        rx: &Receiver,
        samples: &[Complex],
        scratch: &mut RxScratch,
    ) -> Result<RxSummary, RxError> {
        let profile = rx.profile();
        let n = profile.fft_size;
        let det = detect_packet_in(
            samples,
            rx.detection_threshold,
            rx.detection_run,
            profile.stf_period(),
            profile.sample_rate,
            &mut scratch.p,
        )
        .ok_or(RxError::NotDetected)?;
        let mut coarse = Vec::new();
        correct_cfo_into_at(samples, det.coarse_cfo_hz, profile.sample_rate, &mut coarse);
        let w_lo = (det.start + (150 * n) / 64).min(coarse.len());
        let w_hi = (det.start + (280 * n) / 64).min(coarse.len());
        if w_lo >= w_hi {
            return Err(RxError::LtfNotFound);
        }
        let ltf1 = locate_ltf_with(&coarse, &rx.ltf[..n], w_lo..w_hi, &mut scratch.ltf_search)
            .ok_or(RxError::LtfNotFound)?;
        let fine =
            fine_cfo_at(&coarse, ltf1, n, profile.sample_rate).ok_or(RxError::LtfNotFound)?;
        let total_cfo = det.coarse_cfo_hz + fine;
        let mut whole = Vec::new();
        correct_cfo_into_at(samples, total_cfo, profile.sample_rate, &mut whole);
        rx.decode_from_into(&whole, ltf1, total_cfo, false, scratch)
    }

    /// Asserts that two receives returned the same `Result` and, when
    /// they decoded, the same PSDU and equalized constellation bits.
    fn assert_same_receive(
        got: &Result<RxSummary, RxError>,
        got_s: &RxScratch,
        want: &Result<RxSummary, RxError>,
        want_s: &RxScratch,
        what: &str,
    ) {
        match (got, want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.signal, w.signal, "{what}");
                assert_eq!(g.cfo_hz.to_bits(), w.cfo_hz.to_bits(), "{what}");
                assert_eq!(g.evm_rms.to_bits(), w.evm_rms.to_bits(), "{what}");
                assert_eq!(
                    g.snr_est_db.map(f64::to_bits),
                    w.snr_est_db.map(f64::to_bits),
                    "{what}"
                );
                assert_eq!(got_s.psdu, want_s.psdu, "{what}");
                let bits = |s: &RxScratch| -> Vec<(u64, u64)> {
                    s.equalized
                        .iter()
                        .map(|c| (c.re.to_bits(), c.im.to_bits()))
                        .collect()
                };
                assert_eq!(bits(got_s), bits(want_s), "{what}");
            }
            (Err(g), Err(w)) => assert_eq!(g, w, "{what}"),
            _ => panic!("{what}: trimmed {got:?} vs whole {want:?}"),
        }
    }

    #[test]
    fn trimmed_derotation_matches_whole_buffer() {
        // Every rate on every profile, with noise, a frequency offset
        // and pads, plus a burst cut inside its DATA field and pure
        // noise: the receive that derotates only the decoded samples
        // returns what the whole-buffer derotation does, bit for bit.
        // The genie-timing receive is checked against a whole-buffer
        // derotation too, and at zero CFO against the plain copy.
        let mut rng = Rng::new(31);
        let (mut got_s, mut want_s) = (RxScratch::default(), RxScratch::default());
        let mut decoded = 0;
        for p in ALL_PROFILES {
            let rx = Receiver::with_profile(p);
            for r in ALL_RATES {
                let mut psdu = vec![0u8; 57];
                rng.bytes(&mut psdu);
                let burst = Transmitter::with_profile(r, p).transmit(&psdu);
                let cfo = 0.003 * p.sample_rate;
                let nv = wlan_dsp::math::db_to_lin(-30.0);
                let w = 2.0 * std::f64::consts::PI * cfo / p.sample_rate;
                let pad = 200;
                let mut x: Vec<Complex> = (0..pad).map(|_| rng.complex_gaussian(nv)).collect();
                for (n, &s) in burst.samples.iter().enumerate() {
                    x.push(s * Complex::cis(w * (pad + n) as f64) + rng.complex_gaussian(nv));
                }
                x.extend((0..200).map(|_| rng.complex_gaussian(nv)));
                let what = format!("{} {r}", p.name);
                let got = rx.receive_into(&x, &mut got_s);
                let want = receive_whole_coarse(&rx, &x, &mut want_s);
                assert_same_receive(&got, &got_s, &want, &want_s, &what);
                assert_eq!(got_s.psdu, psdu, "{what}");
                decoded += 1;

                let ltf1 = pad + p.stf_len() + p.ltf_guard();
                let got = rx.receive_with_timing_into(&x, ltf1, cfo, &mut got_s);
                let mut whole = Vec::new();
                correct_cfo_into_at(&x, cfo, p.sample_rate, &mut whole);
                let want = rx.decode_from_into(&whole, ltf1, cfo, false, &mut want_s);
                assert_same_receive(&got, &got_s, &want, &want_s, &format!("genie {what}"));

                let ltf1 = p.stf_len() + p.ltf_guard();
                let got = rx.receive_with_timing_into(&burst.samples, ltf1, 0.0, &mut got_s);
                let want = rx.decode_from_into(&burst.samples, ltf1, 0.0, false, &mut want_s);
                assert_same_receive(&got, &got_s, &want, &want_s, &format!("copy {what}"));
                assert_eq!(got_s.psdu, psdu, "copy {what}");
            }
        }
        assert_eq!(decoded, ALL_PROFILES.len() * ALL_RATES.len());

        let rx = Receiver::new();
        let burst = Transmitter::new(Rate::R6).transmit(&[0xC3; 200]);
        let x = impaired(&burst.samples, 120, -52e3, 25.0, 32);
        let cut = &x[..x.len() / 2];
        let got = rx.receive_into(cut, &mut got_s);
        let want = receive_whole_coarse(&rx, cut, &mut want_s);
        assert_same_receive(&got, &got_s, &want, &want_s, "truncated");
        match got {
            Err(RxError::Truncated { available, .. }) => assert_eq!(available, cut.len()),
            other => panic!("truncated input gave {other:?}"),
        }

        let noise: Vec<Complex> = (0..4000).map(|_| rng.complex_gaussian(1.0)).collect();
        let got = rx.receive_into(&noise, &mut got_s);
        let want = receive_whole_coarse(&rx, &noise, &mut want_s);
        assert_same_receive(&got, &got_s, &want, &want_s, "noise");
    }

    #[test]
    fn windowed_coarse_pass_matches_whole_buffer_near_truncation() {
        // Cut a noisy, frequency-offset burst at every length from just
        // after detection through the LTF window's far edge into the
        // DATA field: the outcome (error variant, or decoded bits, CFO,
        // EVM and constellation) must equal the whole-buffer passes'.
        let burst = Transmitter::new(Rate::R12).transmit(&[0x5A; 40]);
        let x = impaired(&burst.samples, 90, 37e3, 25.0, 21);
        let rx = Receiver::new();
        let (mut got_s, mut want_s) = (RxScratch::default(), RxScratch::default());
        let mut outcomes = [0usize; 3];
        for len in (150..=700).chain([x.len()]) {
            let got = rx.receive_into(&x[..len], &mut got_s);
            let want = receive_whole_coarse(&rx, &x[..len], &mut want_s);
            assert_same_receive(&got, &got_s, &want, &want_s, &format!("len {len}"));
            match got {
                Ok(_) => outcomes[0] += 1,
                Err(RxError::LtfNotFound) => outcomes[1] += 1,
                Err(RxError::Truncated { .. }) => outcomes[2] += 1,
                Err(_) => {}
            }
        }
        // Every regime occurs: decoded, LTF window cut, truncated DATA.
        assert!(outcomes.iter().all(|&c| c > 0), "{outcomes:?}");
    }

    #[test]
    fn snr_estimate_reported() {
        let mut rng = Rng::new(12);
        let mut psdu = vec![0u8; 100];
        rng.bytes(&mut psdu);
        let burst = Transmitter::new(Rate::R12).transmit(&psdu);
        let x = impaired(&burst.samples, 64, 0.0, 20.0, 13);
        let got = Receiver::new().receive(&x).expect("decodes");
        let snr = got.snr_est_db.expect("measurable");
        assert!((snr - 20.0).abs() < 4.0, "estimated {snr} dB at true 20 dB");
    }

    #[test]
    fn evm_tracks_snr() {
        let mut rng = Rng::new(8);
        let mut psdu = vec![0u8; 200];
        rng.bytes(&mut psdu);
        let burst = Transmitter::new(Rate::R12).transmit(&psdu);
        let rx = Receiver::new();
        let x20 = impaired(&burst.samples, 50, 0.0, 20.0, 9);
        let x30 = impaired(&burst.samples, 50, 0.0, 30.0, 10);
        let e20 = rx.receive(&x20).expect("20 dB").evm_db();
        let e30 = rx.receive(&x30).expect("30 dB").evm_db();
        // ~10 dB EVM improvement for 10 dB SNR improvement.
        assert!(e20 - e30 > 6.0, "e20 {e20}, e30 {e30}");
        assert!(e20 > -25.0 && e20 < -12.0, "e20 {e20}");
    }

    #[test]
    fn count_bit_errors_cases() {
        assert_eq!(count_bit_errors(&[0xff], &[0xff]), 0);
        assert_eq!(count_bit_errors(&[0xff], &[0x7f]), 1);
        assert_eq!(count_bit_errors(&[], &[]), 0);
        assert_eq!(count_bit_errors(&[0xff, 0x00], &[0xff]), 8);
    }
}
