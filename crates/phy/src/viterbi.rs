//! Viterbi decoder for the 802.11a (133, 171) convolutional code.
//!
//! Supports soft-decision decoding from log-likelihood ratios (the
//! receiver's normal path, with zero-LLR erasures for punctured bits) and
//! hard-decision decoding from bits.
//!
//! The kernel is organized as a reusable [`ViterbiDecoder`] holding
//! fixed-size `[f64; 64]` metric arrays and a growable decision buffer,
//! so the per-packet hot path performs no heap allocation after the
//! first call. The classic `INF` sentinel for unreachable states is only
//! needed during the first six warm-up steps — after `t ≥ 6` trellis
//! steps every state is reachable (the state is the last six input
//! bits), so the steady-state loop carries no sentinel scan at all.
//!
//! The steady-state add-compare-select runs as 32 split-half
//! butterflies: predecessors `i` and `i | 32` both feed next-states
//! `2i` and `2i + 1`. Both generators tap the newest and the oldest
//! register bit, so flipping either one complements both code bits:
//! with `u = su[i]·la` and `v = sv[i]·lb` the signs of the `i → 2i`
//! branch, the four branch costs are `(m_i + u) + v`,
//! `(m_{i|32} − u) − v`, `(m_i − u) − v` and `(m_{i|32} + u) + v`.
//! Multiplying by `±1` is exact and `x + (−y)` is `x − y` in IEEE 754,
//! so every cost — and with the lower predecessor winning ties, every
//! decision — is bit-identical to the reference full search in
//! `wlan-conformance::refimpl`.
//!
//! The decode loop is compiled three times: for the target's baseline,
//! for AVX2 and for AVX-512F. [`ViterbiDecoder::new`] picks the widest
//! form this CPU runs, once, with `is_x86_feature_detected!` (the
//! level type is shared with the LTF timing search's kernel). The
//! butterfly uses only IEEE add, subtract, multiply by `±1`, `<` and
//! select, each exact at any vector width, and Rust never contracts
//! to FMA, so every form returns the same metrics, decisions and bits.

use crate::convolutional::{branch_output, N_STATES};
use crate::simd::SimdLevel;

/// Log-likelihood ratio convention: positive means bit 0 is more likely
/// (`llr ∝ log P(b=0) − log P(b=1)`). Punctured positions use `0.0`
/// (erasure).
pub type Llr = f64;

/// Butterflies per trellis step: predecessor pairs `(i, i | 32)`.
const HALF: usize = N_STATES / 2;

/// Sentinel for unreachable states during trellis warm-up.
const INF: f64 = 1e300;

/// Path metrics beyond this magnitude trigger a one-off renormalization
/// (subtract the minimum). Realistic packets never get here — the bound
/// only guards pathologically long or large-LLR streams against the
/// metrics drifting toward the `INF` sentinel.
const NORM_LIMIT: f64 = 1e280;

/// Reusable soft-decision Viterbi decoder.
///
/// Construction precomputes the branch-metric signs; each call to
/// [`ViterbiDecoder::decode_soft_into`] then reuses the internal metric
/// arrays and decision buffer, allocating only when a longer packet
/// than any seen before grows the decision buffer.
///
/// ```
/// use wlan_phy::{convolutional::encode, viterbi::ViterbiDecoder};
/// let mut msg = vec![1u8, 0, 1, 1, 0, 0, 1, 0];
/// msg.extend_from_slice(&[0; 6]); // tail
/// let coded = encode(&msg);
/// let llrs: Vec<f64> = coded.iter().map(|&b| if b == 1 { -1.0 } else { 1.0 }).collect();
/// let mut dec = ViterbiDecoder::new();
/// let mut bits = Vec::new();
/// dec.decode_soft_into(&llrs, &mut bits);
/// assert_eq!(bits, msg);
/// ```
#[derive(Debug, Clone)]
pub struct ViterbiDecoder {
    metric: [f64; N_STATES],
    next: [f64; N_STATES],
    /// `±1` signs of the `i → 2i` branch's A and B outputs for each
    /// predecessor `i < 32`: that branch costs `(m_i + su[i]·la) +
    /// sv[i]·lb`, and the other three branches of the butterfly carry
    /// the same or the complemented signs (see the module docs).
    su: [f64; HALF],
    sv: [f64; HALF],
    /// `decisions[t]` holds, for each state `s` at step `t`, the evicted
    /// (oldest) history bit of its surviving predecessor, at bit
    /// `(s >> 1) + 32·(s & 1)`: even states in the low word, odd states
    /// in the high word.
    decisions: Vec<u64>,
    /// Scratch LLRs for [`ViterbiDecoder::decode_hard_into`].
    hard_llrs: Vec<Llr>,
    /// The clone [`ViterbiDecoder::decode_soft_into`] runs.
    level: SimdLevel,
}

impl Default for ViterbiDecoder {
    fn default() -> Self {
        ViterbiDecoder::new()
    }
}

impl ViterbiDecoder {
    /// Creates a decoder (precomputes the branch signs and picks the
    /// widest vector form of the decode loop this CPU runs).
    pub fn new() -> Self {
        let sign = |bit: u8| if bit == 1 { 1.0 } else { -1.0 };
        let mut su = [0.0f64; HALF];
        let mut sv = [0.0f64; HALF];
        for i in 0..HALF {
            let (a, b) = branch_output(i as u32, 0);
            su[i] = sign(a);
            sv[i] = sign(b);
        }
        ViterbiDecoder {
            metric: [INF; N_STATES],
            next: [INF; N_STATES],
            su,
            sv,
            decisions: Vec::new(),
            hard_llrs: Vec::new(),
            level: SimdLevel::detect(),
        }
    }

    /// Pre-reserves trellis storage for decoding up to `n_steps`
    /// trellis steps (information bits) without reallocating.
    pub fn reserve_steps(&mut self, n_steps: usize) {
        self.decisions.reserve(n_steps);
        self.hard_llrs.reserve(2 * n_steps);
    }

    /// Decodes a tail-terminated message from soft inputs into `bits`
    /// (cleared and refilled with `llrs.len() / 2` decoded bits).
    ///
    /// `llrs` holds two LLRs per information bit (output A then output B
    /// of each trellis step). The trellis starts in the all-zero state;
    /// traceback begins at the maximum-likelihood end state (802.11a
    /// pads scrambled bits *after* the zero tail, so forced zero-state
    /// termination would be wrong).
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is odd.
    pub fn decode_soft_into(&mut self, llrs: &[Llr], bits: &mut Vec<u8>) {
        match self.level {
            SimdLevel::Portable => decode_portable(self, llrs, bits),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => {
                // SAFETY: `level` is `Avx2` only once `is_supported` saw AVX2 on this CPU.
                unsafe { decode_avx2(self, llrs, bits) }
            }
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => {
                // SAFETY: `level` is `Avx512` only once `is_supported` saw AVX-512F here.
                unsafe { decode_avx512(self, llrs, bits) }
            }
        }
    }

    /// The body of [`ViterbiDecoder::decode_soft_into`], inlined into
    /// each of its per-level clones.
    #[inline(always)]
    fn decode_soft_body(&mut self, llrs: &[Llr], bits: &mut Vec<u8>) {
        assert!(
            llrs.len().is_multiple_of(2),
            "need two LLRs per trellis step"
        );
        let n_steps = llrs.len() / 2;
        bits.clear();
        if n_steps == 0 {
            return;
        }

        self.decisions.clear();
        self.decisions.reserve(n_steps);
        self.metric[0] = 0.0;

        // Warm-up: only states 0..2^(t+1) are reachable after step t
        // (the state is the last six input bits), and both predecessors
        // of a reachable next-state have their evicted bit 0, so the
        // survivor is always the lower one.
        let warm = n_steps.min(6);
        for (t, pair) in llrs[..2 * warm].chunks_exact(2).enumerate() {
            self.next.fill(INF);
            for ns in 0..1usize << (t + 1) {
                let (u, v) = (self.su[ns >> 1] * pair[0], self.sv[ns >> 1] * pair[1]);
                let m = self.metric[ns >> 1];
                self.next[ns] = if ns & 1 == 0 {
                    (m + u) + v
                } else {
                    (m - u) - v
                };
            }
            self.decisions.push(0);
            std::mem::swap(&mut self.metric, &mut self.next);
        }

        // Steady state: two steps per iteration, the metric arrays
        // ping-ponging so no step copies them.
        let (metric, next) = (&mut self.metric, &mut self.next);
        let mut quads = llrs[2 * warm..].chunks_exact(4);
        let mut t = warm;
        for q in &mut quads {
            self.decisions
                .push(acs_step(metric, next, &self.su, &self.sv, q[0], q[1]));
            self.decisions
                .push(acs_step(next, metric, &self.su, &self.sv, q[2], q[3]));
            // `t` is even, so the renormalization steps (`4095 mod
            // 4096`) always land on the second step of a pair.
            if (t + 1) % 4096 == 4095 {
                renormalize_if_needed(metric);
            }
            t += 2;
        }
        if let [la, lb] = *quads.remainder() {
            self.decisions
                .push(acs_step(metric, next, &self.su, &self.sv, la, lb));
            std::mem::swap(metric, next);
        }

        // Traceback from the maximum-likelihood end state (first state
        // wins ties, as in a forward minimum scan).
        let mut state = 0usize;
        let mut best = self.metric[0];
        for (s, &m) in self.metric.iter().enumerate().skip(1) {
            if m < best {
                best = m;
                state = s;
            }
        }
        bits.resize(n_steps, 0);
        for t in (0..n_steps).rev() {
            bits[t] = (state & 1) as u8; // the input that created this state
            let evicted = (self.decisions[t] >> ((state >> 1) + HALF * (state & 1))) & 1;
            state = (state >> 1) | ((evicted as usize) << 5);
        }
    }

    /// Decodes a tail-terminated message from hard bits (two coded bits
    /// per step, A then B) into `bits`, using the internal LLR scratch.
    ///
    /// # Panics
    ///
    /// Panics if `coded.len()` is odd.
    pub fn decode_hard_into(&mut self, coded: &[u8], bits: &mut Vec<u8>) {
        let mut llrs = std::mem::take(&mut self.hard_llrs);
        llrs.clear();
        llrs.extend(
            coded
                .iter()
                .map(|&b| if b & 1 == 1 { -1.0f64 } else { 1.0 }),
        );
        self.decode_soft_into(&llrs, bits);
        self.hard_llrs = llrs;
    }
}

/// [`ViterbiDecoder::decode_soft_body`] at the target's baseline.
fn decode_portable(dec: &mut ViterbiDecoder, llrs: &[Llr], bits: &mut Vec<u8>) {
    dec.decode_soft_body(llrs, bits);
}

/// [`ViterbiDecoder::decode_soft_body`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn decode_avx2(dec: &mut ViterbiDecoder, llrs: &[Llr], bits: &mut Vec<u8>) {
    dec.decode_soft_body(llrs, bits);
}

/// [`ViterbiDecoder::decode_soft_body`] compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn decode_avx512(dec: &mut ViterbiDecoder, llrs: &[Llr], bits: &mut Vec<u8>) {
    dec.decode_soft_body(llrs, bits);
}

/// One steady-state trellis step: 32 butterflies from `metric` into
/// `next`, returning the packed decision word.
///
/// The loop reads both halves of `metric` contiguously and stores each
/// comparison as a 0/1 byte, so it vectorizes; the bytes are then
/// packed eight at a time with one multiply.
#[inline(always)]
fn acs_step(
    metric: &[f64; N_STATES],
    next: &mut [f64; N_STATES],
    su: &[f64; HALF],
    sv: &[f64; HALF],
    la: Llr,
    lb: Llr,
) -> u64 {
    let (lo, hi) = metric.split_at(HALF);
    let mut take_even = [0u8; HALF];
    let mut take_odd = [0u8; HALF];
    for i in 0..HALF {
        let (u, v) = (su[i] * la, sv[i] * lb);
        // Strict `<`: ties keep the lower predecessor, matching
        // ascending-order full search.
        let (c1, c2) = ((lo[i] + u) + v, (hi[i] - u) - v);
        let take2 = c2 < c1;
        next[2 * i] = if take2 { c2 } else { c1 };
        take_even[i] = take2 as u8;
        let (c1, c2) = ((lo[i] - u) - v, (hi[i] + u) + v);
        let take2 = c2 < c1;
        next[2 * i + 1] = if take2 { c2 } else { c1 };
        take_odd[i] = take2 as u8;
    }
    pack_flags(&take_even) | pack_flags(&take_odd) << HALF
}

/// Packs 32 0/1 bytes into the low 32 bits, byte `i` to bit `i`: the
/// multiply gathers bit 0 of each of eight bytes into the top byte.
#[inline(always)]
fn pack_flags(flags: &[u8; HALF]) -> u64 {
    flags.chunks_exact(8).enumerate().fold(0, |word, (k, b)| {
        let b = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
        word | (b.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k)
    })
}

/// Subtracts the minimum path metric from every state when the metrics
/// have drifted dangerously close to the sentinel. No-op on realistic
/// inputs (bit-identity with the reference is preserved whenever the
/// guard never fires).
fn renormalize_if_needed(metric: &mut [f64; N_STATES]) {
    let min = metric.iter().copied().fold(f64::INFINITY, f64::min);
    if min.abs() > NORM_LIMIT && min.is_finite() {
        for m in metric.iter_mut() {
            *m -= min;
        }
    }
}

/// Decodes a tail-terminated message from soft inputs.
///
/// One-shot convenience over [`ViterbiDecoder::decode_soft_into`] —
/// constructs a fresh decoder and allocates the output. Hot paths
/// should hold a [`ViterbiDecoder`] instead.
///
/// # Panics
///
/// Panics if `llrs.len()` is odd.
///
/// ```
/// use wlan_phy::{convolutional::encode, viterbi::decode_soft};
/// let mut msg = vec![1u8, 0, 1, 1, 0, 0, 1, 0];
/// msg.extend_from_slice(&[0; 6]); // tail
/// let coded = encode(&msg);
/// // Perfect-channel LLRs: +1 for bit 0, −1 for bit 1.
/// let llrs: Vec<f64> = coded.iter().map(|&b| if b == 1 { -1.0 } else { 1.0 }).collect();
/// assert_eq!(decode_soft(&llrs), msg);
/// ```
pub fn decode_soft(llrs: &[Llr]) -> Vec<u8> {
    let mut dec = ViterbiDecoder::new();
    let mut bits = Vec::new();
    dec.decode_soft_into(llrs, &mut bits);
    bits
}

/// Decodes a tail-terminated message from hard bits (two coded bits per
/// step, A then B).
///
/// # Panics
///
/// Panics if `coded.len()` is odd.
pub fn decode_hard(coded: &[u8]) -> Vec<u8> {
    let mut dec = ViterbiDecoder::new();
    let mut bits = Vec::new();
    dec.decode_hard_into(coded, &mut bits);
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolutional::encode;
    use wlan_dsp::rng::Rng;

    fn tailed_message(rng: &mut Rng, len: usize) -> Vec<u8> {
        let mut msg = vec![0u8; len];
        rng.bits(&mut msg[..len - 6]);
        msg
    }

    #[test]
    fn decodes_clean_channel() {
        let mut rng = Rng::new(1);
        for len in [10usize, 50, 333] {
            let msg = tailed_message(&mut rng, len);
            let coded = encode(&msg);
            assert_eq!(decode_hard(&coded), msg, "len {len}");
        }
    }

    #[test]
    fn corrects_scattered_errors() {
        // Free distance 10 → any 4 errors spread apart are correctable.
        let mut rng = Rng::new(2);
        let msg = tailed_message(&mut rng, 200);
        let mut coded = encode(&msg);
        for pos in [10usize, 90, 170, 310] {
            coded[pos] ^= 1;
        }
        assert_eq!(decode_hard(&coded), msg);
    }

    #[test]
    fn soft_beats_hard_with_erasures() {
        // Erase (zero-LLR) a burst; soft decoding must still recover.
        let mut rng = Rng::new(3);
        let msg = tailed_message(&mut rng, 100);
        let coded = encode(&msg);
        let mut llrs: Vec<Llr> = coded
            .iter()
            .map(|&b| if b == 1 { -1.0 } else { 1.0 })
            .collect();
        for l in llrs.iter_mut().skip(40).take(8) {
            *l = 0.0;
        }
        assert_eq!(decode_soft(&llrs), msg);
    }

    #[test]
    fn soft_weights_reliability() {
        let mut rng = Rng::new(4);
        let msg = tailed_message(&mut rng, 120);
        let coded = encode(&msg);
        // Flip several bits but mark them as unreliable (small LLR).
        let mut llrs: Vec<Llr> = coded
            .iter()
            .map(|&b| if b == 1 { -2.0 } else { 2.0 })
            .collect();
        for pos in [11usize, 12, 61, 62, 130, 131, 200] {
            llrs[pos] = -llrs[pos].signum() * 0.1 * llrs[pos].abs();
        }
        assert_eq!(decode_soft(&llrs), msg);
    }

    #[test]
    fn awgn_monte_carlo_better_than_uncoded() {
        // At Eb/N0 = 4 dB the rate-1/2 coded BER must be far below the
        // uncoded BPSK BER (~1.25e-2).
        let mut rng = Rng::new(5);
        let ebn0_db: f64 = 4.0;
        // Rate 1/2: Es/N0 = Eb/N0 − 3 dB per coded bit.
        let esn0 = wlan_dsp::math::db_to_lin(ebn0_db - 3.01);
        let sigma = (1.0 / (2.0 * esn0)).sqrt();
        let mut errors = 0usize;
        let mut total = 0usize;
        let mut dec = ViterbiDecoder::new();
        let mut bits = Vec::new();
        for _ in 0..40 {
            let msg = tailed_message(&mut rng, 500);
            let coded = encode(&msg);
            let llrs: Vec<Llr> = coded
                .iter()
                .map(|&b| {
                    let tx = if b == 1 { -1.0 } else { 1.0 };
                    let y = tx + sigma * rng.gaussian();
                    2.0 * y / (sigma * sigma)
                })
                .collect();
            dec.decode_soft_into(&llrs, &mut bits);
            errors += bits.iter().zip(msg.iter()).filter(|(a, b)| a != b).count();
            total += msg.len();
        }
        let ber = errors as f64 / total as f64;
        assert!(ber < 2e-3, "coded BER {ber} at Eb/N0 = {ebn0_db} dB");
    }

    #[test]
    fn empty_input() {
        assert!(decode_soft(&[]).is_empty());
    }

    #[test]
    #[should_panic]
    fn odd_length_panics() {
        let _ = decode_soft(&[1.0, -1.0, 0.5]);
    }

    #[test]
    fn falls_back_when_tail_missing() {
        // Encode without tail: final state nonzero. The decoder should
        // still return mostly correct bits via best-state fallback.
        let msg = vec![1u8; 40];
        let coded = encode(&msg);
        let dec = decode_hard(&coded);
        // Only the final constraint length or so of bits may be wrong.
        let head_errs = dec[..30]
            .iter()
            .zip(&msg[..30])
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(head_errs, 0, "errors before the unterminated tail");
    }

    #[test]
    fn reused_decoder_matches_fresh() {
        // State from one call must not leak into the next.
        let mut rng = Rng::new(6);
        let mut dec = ViterbiDecoder::new();
        let mut bits = Vec::new();
        for len in [40usize, 8, 333, 12] {
            let msg = tailed_message(&mut rng, len);
            let coded = encode(&msg);
            let llrs: Vec<Llr> = coded
                .iter()
                .map(|&b| {
                    let tx = if b == 1 { -1.0 } else { 1.0 };
                    tx + 0.3 * rng.gaussian()
                })
                .collect();
            dec.decode_soft_into(&llrs, &mut bits);
            assert_eq!(bits, decode_soft(&llrs), "len {len}");
        }
    }

    #[test]
    fn butterfly_branches_are_sign_complements() {
        // The steady-state loop's cost identities: of the four branches
        // of butterfly (i, i|32) → (2i, 2i+1), the two crossing ones
        // carry the complement of the `i → 2i` outputs and `i|32 →
        // 2i+1` carries the same outputs.
        use crate::convolutional::next_state;
        for i in 0..HALF as u32 {
            let (a, b) = branch_output(i, 0);
            assert_eq!(next_state(i, 0), 2 * i);
            assert_eq!(next_state(i | 32, 0), 2 * i);
            assert_eq!(next_state(i, 1), 2 * i + 1);
            assert_eq!(next_state(i | 32, 1), 2 * i + 1);
            assert_eq!(branch_output(i | 32, 0), (a ^ 1, b ^ 1), "pair {i}");
            assert_eq!(branch_output(i, 1), (a ^ 1, b ^ 1), "pair {i}");
            assert_eq!(branch_output(i | 32, 1), (a, b), "pair {i}");
        }
    }

    #[test]
    fn huge_llrs_renormalize_and_decode_exactly() {
        // |LLR| = 1e277 drives the best path metric past NORM_LIMIT
        // within 4096 steps, so the renormalization at step 4095 must
        // fire; the clean codeword must still decode exactly.
        let mut rng = Rng::new(8);
        let msg = tailed_message(&mut rng, 4200);
        let llrs: Vec<Llr> = encode(&msg)
            .iter()
            .map(|&b| if b == 1 { -1e277 } else { 1e277 })
            .collect();
        let mut dec = ViterbiDecoder::new();
        let mut bits = Vec::new();
        dec.decode_soft_into(&llrs, &mut bits);
        assert_eq!(bits, msg);
        // Unrenormalized, the best metric would sit near −8.4e280.
        let min = dec.metric.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(min.abs() < NORM_LIMIT, "renormalization did not run: {min}");
    }

    /// A decoder running `level`'s clone.
    fn at_level(level: SimdLevel) -> ViterbiDecoder {
        assert!(level.is_supported(), "{level:?} is not supported here");
        ViterbiDecoder {
            level,
            ..ViterbiDecoder::new()
        }
    }

    /// Codeword of `n_steps` trellis steps (random bits, then a zero
    /// tail as far as it fits).
    fn edge_codeword(n_steps: usize, rng: &mut Rng) -> Vec<u8> {
        let mut bits: Vec<u8> = (0..n_steps).map(|_| (rng.next_u64() & 1) as u8).collect();
        let tail = n_steps.saturating_sub(6);
        bits[tail..].fill(0);
        encode(&bits)
    }

    /// Gaussian, tie-heavy integer and depunctured (all three code
    /// rates) LLR streams of `n_steps` trellis steps.
    fn edge_streams(n_steps: usize, rng: &mut Rng) -> Vec<(String, Vec<Llr>)> {
        use crate::params::CodeRate;
        use crate::puncture::{depuncture, puncture};
        let coded = edge_codeword(n_steps, rng);
        let sign = |b: u8| 1.0 - 2.0 * b as f64;
        let mut streams = vec![
            (
                "gaussian".to_string(),
                coded
                    .iter()
                    .map(|&b| sign(b) + 0.8 * rng.gaussian())
                    .collect(),
            ),
            (
                "integer".to_string(),
                coded
                    .iter()
                    .map(|&b| (2.0 * sign(b) + (1.5 * rng.gaussian()).round()).clamp(-3.0, 3.0))
                    .collect(),
            ),
        ];
        // 6 steps are whole puncturing periods at both 2/3 and 3/4.
        let padded = edge_codeword(n_steps.div_ceil(6) * 6, rng);
        for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R34] {
            let sent: Vec<Llr> = puncture(&padded, rate)
                .iter()
                .map(|&b| sign(b) + 0.6 * rng.gaussian())
                .collect();
            let mut full = depuncture(&sent, rate);
            full.truncate(2 * n_steps);
            streams.push((format!("{rate:?}"), full));
        }
        streams
    }

    #[test]
    fn every_simd_level_matches_portable() {
        // Each clone this CPU runs, one decoder per level reused down
        // the trellis-edge lengths and back up, against the portable
        // form: same bits and same final path metrics, bit for bit.
        let levels: Vec<SimdLevel> = SimdLevel::ALL
            .iter()
            .copied()
            .filter(|level| level.is_supported())
            .collect();
        println!(
            "decoder SIMD levels covered: {levels:?}; new() selects {:?}",
            ViterbiDecoder::new().level
        );
        assert_eq!(levels.last(), Some(&SimdLevel::Portable));
        let mut decs: Vec<ViterbiDecoder> = levels.iter().map(|&level| at_level(level)).collect();
        let mut rng = Rng::new(4097);
        let steps: Vec<usize> = (0..=9).chain([4095, 4096, 4097, 8193]).collect();
        let mut streams = Vec::new();
        for &n_steps in steps.iter().rev().chain(&steps) {
            streams.extend(
                edge_streams(n_steps, &mut rng)
                    .into_iter()
                    .map(|(kind, llrs)| (format!("{kind} LLRs, {n_steps} steps"), llrs)),
            );
        }
        // The renormalizing stream of `huge_llrs_renormalize_and_decode_exactly`.
        let huge = encode(&tailed_message(&mut Rng::new(8), 4200))
            .iter()
            .map(|&b| if b == 1 { -1e277 } else { 1e277 })
            .collect();
        streams.push(("1e277 LLRs".to_string(), huge));
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for (what, llrs) in &streams {
            let (portable, wide) = decs.split_last_mut().expect("portable level");
            portable.decode_soft_into(llrs, &mut want);
            for dec in wide {
                dec.decode_soft_into(llrs, &mut got);
                assert_eq!(got, want, "{:?}: {what}", dec.level);
                assert_eq!(
                    dec.metric.map(f64::to_bits),
                    portable.metric.map(f64::to_bits),
                    "{:?} metrics: {what}",
                    dec.level
                );
            }
        }
    }

    #[test]
    fn short_packets_without_full_warmup() {
        // Fewer than 6 trellis steps: the warm-up reachability logic is
        // the whole decode.
        for steps in 1..=6usize {
            let msg: Vec<u8> = (0..steps).map(|i| (i % 2) as u8).collect();
            let coded = encode(&msg);
            let dec = decode_hard(&coded);
            assert_eq!(dec.len(), steps);
        }
    }
}
