//! An independent executable restatement of the IEEE 802.11a-1999 TX
//! equations, written directly from the standard's clause text.
//!
//! This module deliberately shares **no code** with `wlan-phy`: the
//! scrambler keeps its state as an explicit x₁..x₇ register array, the
//! convolutional coder as a tapped delay line, the interleaver as the
//! two clause-17.3.5.6 index formulas, the mapper as the literal
//! Tables 78–82, and the OFDM modulator as a naive O(N²) inverse DFT.
//! Agreement between the two implementations on the Annex G reference
//! message is then meaningful evidence that *both* implement the
//! standard — the same cross-checking argument the paper makes between
//! the SPW reference design and the AMS co-simulation, and the
//! symbolic-verification framing of the WiMax paper in PAPERS.md.
//!
//! Where the standard publishes the answer outright (the 127-bit
//! all-ones scrambler sequence of §17.3.5.4), the constant is embedded
//! so the check is anchored to the document, not to either program.

use wlan_dsp::iir::DcBlocker;
use wlan_dsp::{Complex, Rng};
use wlan_rf::adc::Adc;
use wlan_rf::agc::Agc;
use wlan_rf::filters::{ChannelSelectFilter, DcBlockFilter};
use wlan_rf::mixer::Mixer;
use wlan_rf::receiver::RfConfig;
use wlan_rf::Amplifier;
use wlan_units::{Db, Dbm};

/// §17.3.5.4: the 127-bit output of the scrambler seeded with all
/// ones, packed MSB-first (the 128th bit of the last byte is padding).
/// This is the sequence printed in the standard.
const ALL_ONES_SEQUENCE_PACKED: [u8; 16] = [
    0x0E, 0xF2, 0xC9, 0x02, 0x26, 0x2E, 0xB6, 0x0C, 0xD4, 0xE7, 0xB4, 0x2A, 0xFA, 0x51, 0xB8, 0xFE,
];

/// The published all-ones scrambler sequence as 127 individual bits.
pub fn all_ones_sequence() -> [u8; 127] {
    let mut out = [0u8; 127];
    for (i, o) in out.iter_mut().enumerate() {
        *o = (ALL_ONES_SEQUENCE_PACKED[i / 8] >> (7 - i % 8)) & 1;
    }
    out
}

/// §17.3.5.4 scrambler S(x) = x⁷ + x⁴ + 1, state held as the explicit
/// register bits x[1..=7] (`x[0]` unused). `seed` bit *i* (LSB-first)
/// initializes x_{i+1}, matching the convention of
/// `wlan_phy::scrambler::Scrambler::new`.
pub fn scramble_sequence(seed: u8, n: usize) -> Vec<u8> {
    assert!(seed != 0 && seed < 0x80, "7-bit non-zero seed");
    let mut x = [0u8; 8];
    for (i, xi) in x.iter_mut().enumerate().skip(1) {
        *xi = (seed >> (i - 1)) & 1;
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let feedback = x[7] ^ x[4];
        out.push(feedback);
        for i in (2..=7).rev() {
            x[i] = x[i - 1];
        }
        x[1] = feedback;
    }
    out
}

/// XORs `bits` with the scrambler stream for `seed`.
pub fn scramble(seed: u8, bits: &[u8]) -> Vec<u8> {
    scramble_sequence(seed, bits.len())
        .iter()
        .zip(bits.iter())
        .map(|(s, b)| s ^ b)
        .collect()
}

/// §17.3.5.5 rate-1/2 convolutional coder, K = 7, as a tapped delay
/// line: output A uses generator 133₈ (taps at delays 0, 2, 3, 5, 6),
/// output B uses 171₈ (taps at delays 0, 1, 2, 3, 6). A is transmitted
/// first.
pub fn encode_k7(bits: &[u8]) -> Vec<u8> {
    let mut d = [0u8; 7]; // d[0] = current input, d[1..] = delay line
    let mut out = Vec::with_capacity(2 * bits.len());
    for &b in bits {
        for i in (1..7).rev() {
            d[i] = d[i - 1];
        }
        d[0] = b & 1;
        out.push(d[0] ^ d[2] ^ d[3] ^ d[5] ^ d[6]);
        out.push(d[0] ^ d[1] ^ d[2] ^ d[3] ^ d[6]);
    }
    out
}

/// §17.3.5.6 puncturing: indices *kept* within one puncturing period of
/// the A₀B₀A₁B₁… stream. Rate 2/3 steals B₁ from every 4 coded bits;
/// rate 3/4 steals B₁ and A₂ from every 6.
fn kept_indices(num: usize, den: usize) -> (usize, &'static [usize]) {
    match (num, den) {
        (1, 2) => (2, &[0, 1]),
        (2, 3) => (4, &[0, 1, 2]),
        (3, 4) => (6, &[0, 1, 2, 5]),
        _ => panic!("no 802.11a puncturing pattern for rate {num}/{den}"),
    }
}

/// Punctures a coded stream to rate `num/den`.
pub fn puncture(coded: &[u8], num: usize, den: usize) -> Vec<u8> {
    let (period, kept) = kept_indices(num, den);
    assert!(
        coded.len().is_multiple_of(period),
        "coded length {} not a multiple of the period {period}",
        coded.len()
    );
    let mut out = Vec::with_capacity(coded.len() / period * kept.len());
    for block in coded.chunks_exact(period) {
        for &k in kept {
            out.push(block[k]);
        }
    }
    out
}

/// §17.3.5.6 interleaver: transmit position of input bit `k` within an
/// `ncbps`-bit block, straight from the two published formulas
/// (i = (N/16)(k mod 16) + ⌊k/16⌋, then
/// j = s⌊i/s⌋ + (i + N − ⌊16i/N⌋) mod s with s = max(nbpsc/2, 1)).
pub fn interleave_position(ncbps: usize, nbpsc: usize, k: usize) -> usize {
    let s = (nbpsc / 2).max(1);
    let i = (ncbps / 16) * (k % 16) + k / 16;
    s * (i / s) + (i + ncbps - 16 * i / ncbps) % s
}

/// Interleaves one `ncbps`-bit block.
pub fn interleave(ncbps: usize, nbpsc: usize, bits: &[u8]) -> Vec<u8> {
    assert_eq!(bits.len(), ncbps);
    let mut out = vec![0u8; ncbps];
    for (k, &b) in bits.iter().enumerate() {
        out[interleave_position(ncbps, nbpsc, k)] = b;
    }
    out
}

/// Tables 78–82 (§17.3.5.7): one axis value for a per-axis Gray bit
/// group, *before* K_mod normalization.
fn table_level(bits: &[u8]) -> f64 {
    let val = match bits {
        // Table 78/79: BPSK & one QPSK axis.
        [0] => -1,
        [1] => 1,
        // Table 81: 16-QAM axis.
        [0, 0] => -3,
        [0, 1] => -1,
        [1, 1] => 1,
        [1, 0] => 3,
        // Table 82: 64-QAM axis.
        [0, 0, 0] => -7,
        [0, 0, 1] => -5,
        [0, 1, 1] => -3,
        [0, 1, 0] => -1,
        [1, 1, 0] => 1,
        [1, 1, 1] => 3,
        [1, 0, 1] => 5,
        [1, 0, 0] => 7,
        other => panic!("no table row for bit group {other:?}"),
    };
    val as f64
}

/// §17.3.5.7 K_mod for a constellation of `nbpsc` bits per carrier.
pub fn kmod(nbpsc: usize) -> f64 {
    match nbpsc {
        1 => 1.0,
        2 => 1.0 / 2f64.sqrt(),
        4 => 1.0 / 10f64.sqrt(),
        6 => 1.0 / 42f64.sqrt(),
        n => panic!("no 802.11a constellation carries {n} bits"),
    }
}

/// Maps interleaved coded bits to constellation points per Tables
/// 78–82: the first half of each group drives I, the second half Q
/// (BPSK leaves Q at zero).
pub fn map_bits(nbpsc: usize, bits: &[u8]) -> Vec<Complex> {
    assert!(bits.len().is_multiple_of(nbpsc));
    let norm = kmod(nbpsc);
    bits.chunks_exact(nbpsc)
        .map(|g| {
            if nbpsc == 1 {
                Complex::new(table_level(g) * norm, 0.0)
            } else {
                Complex::new(
                    table_level(&g[..nbpsc / 2]) * norm,
                    table_level(&g[nbpsc / 2..]) * norm,
                )
            }
        })
        .collect()
}

/// §17.3.5.9: pilot polarity p_n for OFDM symbol n — the all-ones
/// scrambler sequence cycled with period 127, 0 → +1 and 1 → −1,
/// read from the *embedded published sequence*, not computed.
pub fn pilot_polarity(n: usize) -> f64 {
    if all_ones_sequence()[n % 127] == 0 {
        1.0
    } else {
        -1.0
    }
}

/// §17.3.4: the 24 SIGNAL field bits for a RATE field (R1..R4, as
/// transmitted) and a 12-bit LENGTH, built literally: RATE, reserved
/// zero, LENGTH LSB-first, even parity over bits 0..17, six zero tail
/// bits. The SIGNAL field is *not* scrambled.
pub fn signal_bits(rate_field: [u8; 4], length: usize) -> [u8; 24] {
    assert!(length <= 0xFFF);
    let mut bits = [0u8; 24];
    bits[..4].copy_from_slice(&rate_field);
    // bits[4] is the reserved bit, zero.
    for i in 0..12 {
        bits[5 + i] = ((length >> i) & 1) as u8;
    }
    let parity = bits[..17].iter().fold(0u8, |acc, b| acc ^ b);
    bits[17] = parity;
    // bits[18..24] are the zero SIGNAL tail.
    bits
}

/// §17.3.5.9 subcarrier layout: logical index k ∈ −26..26 → FFT bin.
fn bin_of(k: i32) -> usize {
    if k >= 0 {
        k as usize
    } else {
        (64 + k) as usize
    }
}

/// Assembles the 64 frequency bins for 48 data values plus the pilots
/// of OFDM symbol `symbol_index`: data on −26..26 skipping 0 and the
/// pilots at ∓21, ∓7; pilots carry (1, 1, 1, −1)·p_n.
pub fn assemble_symbol(data: &[Complex], symbol_index: usize) -> [Complex; 64] {
    assert_eq!(data.len(), 48);
    let mut freq = [Complex::ZERO; 64];
    let p = pilot_polarity(symbol_index);
    let mut next = 0;
    for k in -26..=26i32 {
        if k == 0 {
            continue;
        }
        match k {
            -21 | -7 | 7 => freq[bin_of(k)] = Complex::from_re(p),
            21 => freq[bin_of(k)] = Complex::from_re(-p),
            _ => {
                freq[bin_of(k)] = data[next];
                next += 1;
            }
        }
    }
    assert_eq!(next, 48);
    freq
}

/// Naive O(N²) unitary inverse DFT of the 64 bins, scaled by √(64/52)
/// to the workspace's unit-mean-power convention (see
/// `wlan_phy::ofdm`), returning the 80-sample symbol with its
/// 16-sample cyclic prefix.
pub fn idft_symbol(freq: &[Complex; 64]) -> Vec<Complex> {
    let scale = (64f64 / 52.0).sqrt() / 64f64.sqrt();
    let mut body = [Complex::ZERO; 64];
    for (n, b) in body.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (k, x) in freq.iter().enumerate() {
            acc += *x * Complex::cis(2.0 * std::f64::consts::PI * (k * n) as f64 / 64.0);
        }
        *b = acc * scale;
    }
    let mut out = Vec::with_capacity(80);
    out.extend_from_slice(&body[48..]);
    out.extend_from_slice(&body);
    out
}

/// Bytes → bits, LSB of each byte first (§17.3.5.1's bit ordering).
pub fn bytes_to_bits_lsb_first(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * bytes.len());
    for &byte in bytes {
        for i in 0..8 {
            out.push((byte >> i) & 1);
        }
    }
    out
}

/// The full §17.3.5 DATA-field bit pipeline for one PSDU: SERVICE +
/// PSDU + 6 tail + pad (all zero), scrambled; tail re-zeroed; coded;
/// punctured; interleaved per symbol. Returns one interleaved
/// `ncbps`-bit block per OFDM symbol.
#[allow(clippy::too_many_arguments)]
pub fn data_field_symbols(
    psdu: &[u8],
    seed: u8,
    ndbps: usize,
    ncbps: usize,
    nbpsc: usize,
    code_num: usize,
    code_den: usize,
) -> Vec<Vec<u8>> {
    let payload = 16 + 8 * psdu.len() + 6;
    let n_sym = payload.div_ceil(ndbps);
    let mut bits = vec![0u8; 16];
    bits.extend(bytes_to_bits_lsb_first(psdu));
    bits.resize(n_sym * ndbps, 0);
    let mut scrambled = scramble(seed, &bits);
    let tail_start = 16 + 8 * psdu.len();
    for b in scrambled[tail_start..tail_start + 6].iter_mut() {
        *b = 0;
    }
    let punctured = puncture(&encode_k7(&scrambled), code_num, code_den);
    assert_eq!(punctured.len(), n_sym * ncbps);
    punctured
        .chunks_exact(ncbps)
        .map(|blk| interleave(ncbps, nbpsc, blk))
        .collect()
}

/// Straightforward full-search soft-decision Viterbi decoder for the
/// (133, 171) K=7 code: per-call `Vec` state, an explicit `1e300`
/// sentinel for unreachable states, and an ascending scan over every
/// `(predecessor, input)` pair. This is the pre-optimization kernel kept
/// verbatim as the bit-identity reference for the butterfly-form
/// `wlan_phy::viterbi::ViterbiDecoder`. The tier-1 tests in
/// `tests/tests/kernels.rs` and `tests/tests/batch_identity.rs` assert
/// the two agree bit for bit (trellis-edge step counts, tie-heavy
/// integer LLRs, depunctured erasures at every code rate), and
/// `kernel_bench` re-checks it on its timing workload.
///
/// LLR convention: positive favors bit 0; traceback starts at the
/// maximum-likelihood end state.
///
/// # Panics
///
/// Panics if `llrs.len()` is odd.
pub fn viterbi_reference(llrs: &[f64]) -> Vec<u8> {
    assert!(
        llrs.len().is_multiple_of(2),
        "need two LLRs per trellis step"
    );
    let n_steps = llrs.len() / 2;
    if n_steps == 0 {
        return Vec::new();
    }
    const N_STATES: usize = 64;
    const INF: f64 = 1e300;
    // Generator polynomials 133/171 (octal), bit-reversed so the newest
    // input sits at bit 0 of the shift register.
    const G0_REV: u32 = 0b110_1101;
    const G1_REV: u32 = 0b100_1111;
    let parity = |v: u32| (v.count_ones() & 1) as u8;

    let mut metric = vec![INF; N_STATES];
    metric[0] = 0.0;
    let mut next = vec![INF; N_STATES];
    let mut decisions = vec![0u64; n_steps];

    for (t, pair) in llrs.chunks_exact(2).enumerate() {
        let (la, lb) = (pair[0], pair[1]);
        next.fill(INF);
        let mut dec: u64 = 0;
        for prev in 0..N_STATES as u32 {
            let m = metric[prev as usize];
            if m >= INF {
                continue;
            }
            for input in 0..2u32 {
                let sr = (prev << 1) | input;
                let a = parity(sr & G0_REV);
                let b = parity(sr & G1_REV);
                let cost = m + if a == 1 { la } else { -la } + if b == 1 { lb } else { -lb };
                let ns = (sr & 0x3f) as usize;
                if cost < next[ns] {
                    next[ns] = cost;
                    let evicted = (prev >> 5) & 1;
                    if evicted == 1 {
                        dec |= 1 << ns;
                    } else {
                        dec &= !(1u64 << ns);
                    }
                }
            }
        }
        decisions[t] = dec;
        std::mem::swap(&mut metric, &mut next);
    }

    let mut state = metric
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(s, _)| s)
        .unwrap_or(0);
    let mut bits = vec![0u8; n_steps];
    for t in (0..n_steps).rev() {
        bits[t] = (state & 1) as u8;
        let evicted = (decisions[t] >> state) & 1;
        state = (state >> 1) | ((evicted as usize) << 5);
    }
    bits
}

/// Single-rate flicker (1/f) noise: `n` samples of the octave-section
/// model `wlan_rf::noise::FlickerNoise` synthesizes, with every section
/// updated at every sample. Section `k` is the AR(1) process
/// `x[n] = p·x[n−1] + g·w[n]` with pole `p = exp(−2π·(corner/2^k)/fs)`,
/// gain `g = (1 − p)·2^{k/2}` and drive `w ~ complex_gaussian(2.0)`;
/// the output is `sqrt(floor_power/2)·Σ_k x_k`, with up to 11 sections
/// and none below 0.01 Hz.
///
/// This is the pre-multirate model kept as the statistical reference
/// for the multirate one: its sections draw 22 deviates per sample and
/// are exact at every sample. The `wlan-rf` noise tests assert that a
/// `FlickerNoise` whose strides are all 1 reproduces it bit for bit,
/// and check the multirate model's spectrum against its designed
/// staircase.
///
/// # Panics
///
/// Panics if `corner_hz` is not in `(0, fs/2)`.
pub fn flicker_reference(
    floor_power: f64,
    corner_hz: f64,
    sample_rate_hz: f64,
    mut rng: Rng,
    n: usize,
) -> Vec<Complex> {
    assert!(
        corner_hz > 0.0 && corner_hz < sample_rate_hz / 2.0,
        "corner {corner_hz} Hz must be in (0, fs/2)"
    );
    // (state, pole, gain) per octave section.
    let mut sections = Vec::new();
    let mut f = corner_hz;
    let mut weight = 1.0f64;
    for _ in 0..11 {
        let pole = (-2.0 * std::f64::consts::PI * f / sample_rate_hz).exp();
        sections.push((Complex::ZERO, pole, (1.0 - pole) * weight));
        f /= 2.0;
        weight *= std::f64::consts::SQRT_2;
        if f < 0.01 {
            break;
        }
    }
    let white_gain = (floor_power / 2.0).sqrt();
    (0..n)
        .map(|_| {
            let mut acc = Complex::ZERO;
            for (state, pole, gain) in sections.iter_mut() {
                let w = rng.complex_gaussian(2.0);
                *state = *state * *pole + w * *gain;
                acc += *state;
            }
            acc * white_gain
        })
        .collect()
}

/// The exact-trig oscillator: `x[n]·cis(φ_n)` with `φ_0 = 0` and
/// `φ_{n+1} = φ_n + step()`, one libm sine and cosine per sample.
/// Returns the output and the final phase.
///
/// This is the per-sample oscillator `wlan_dsp::resample::FrequencyShifter`
/// and `wlan_rf::phase_noise::PhaseNoise` ran before they became
/// `wlan_dsp::rotor::Rotor`s, kept as their test reference: the rotor
/// must stay within `1e-12·|x|` of it, and reproduce it bit for bit
/// when every step is zero.
pub fn exact_oscillator(x: &[Complex], mut step: impl FnMut() -> f64) -> (Vec<Complex>, f64) {
    let mut phase = 0.0f64;
    let y = x
        .iter()
        .map(|&v| {
            let y = v * Complex::cis(phase);
            phase += step();
            y
        })
        .collect();
    (y, phase)
}

/// A frequency shift by `shift_hz` at `sample_rate_hz` through
/// [`exact_oscillator`]: the phase accumulates `2π·shift/fs` per sample.
pub fn tone_shift_reference(x: &[Complex], shift_hz: f64, sample_rate_hz: f64) -> Vec<Complex> {
    let inc = 2.0 * std::f64::consts::PI * shift_hz / sample_rate_hz;
    exact_oscillator(x, || inc).0
}

/// Wiener LO phase noise of `linewidth_hz` at `sample_rate_hz` through
/// [`exact_oscillator`]: the phase steps by `σ·g` with
/// `σ = √(2π·linewidth/fs)` and `g` the successive `rng.gaussian()`
/// draws. Returns the output and the final phase.
pub fn phase_noise_reference(
    x: &[Complex],
    linewidth_hz: f64,
    sample_rate_hz: f64,
    mut rng: Rng,
) -> (Vec<Complex>, f64) {
    let sigma = (2.0 * std::f64::consts::PI * linewidth_hz / sample_rate_hz).sqrt();
    exact_oscillator(x, || sigma * rng.gaussian())
}

/// The Rapp amplifier in its `powf` form: `v = a1·u`,
/// `y = v / (1 + (|v|/v_sat)^{2p})^{1/(2p)}`, with `v_sat` putting the
/// input-referred 1 dB compression point at `p1db_dbm`.
///
/// This is the expression `wlan_rf::nonlinearity` evaluated for every
/// smoothness `p` before its closed form for `p = 2`; it must still
/// match that closed form to `1e-15` relative, and any other `p` bit for
/// bit.
pub fn rapp_reference(u: Complex, a1: f64, p1db_dbm: f64, p: f64) -> Complex {
    let a1db = Dbm(p1db_dbm).to_amplitude().0;
    let vsat = a1 * a1db / (Db(p).to_linear() - 1.0).powf(1.0 / (2.0 * p));
    let v = u * a1;
    let r = v.abs() / vsat;
    v * (1.0 + r.powf(2.0 * p)).powf(-1.0 / (2.0 * p))
}

/// Sliding cross-correlation of `x` against `ref_seq` (conjugated),
/// normalized by the reference energy: `x.len() − ref_seq.len() + 1`
/// outputs, each `(Σ_k x[i+k]·conj(r_k))·(1/E)` summed in ascending `k`
/// through `Sum::<Complex>`. Empty when the signal is shorter than the
/// reference, or the reference is empty.
///
/// This is the array-of-structs correlator the receiver's LTF timing
/// search used before its structure-of-arrays kernel; the `wlan-phy`
/// sync tests assert every compiled form of that kernel reproduces
/// `|c[i]|` bit for bit.
pub fn cross_correlate_reference(x: &[Complex], ref_seq: &[Complex]) -> Vec<Complex> {
    if x.len() < ref_seq.len() || ref_seq.is_empty() {
        return Vec::new();
    }
    let energy: f64 = ref_seq.iter().map(|r| r.norm_sqr()).sum();
    let norm = if energy > 0.0 { 1.0 / energy } else { 1.0 };
    (0..=x.len() - ref_seq.len())
        .map(|i| {
            ref_seq
                .iter()
                .enumerate()
                .map(|(k, &r)| x[i + k] * r.conj())
                .sum::<Complex>()
                * norm
        })
        .collect()
}

/// Delay-and-correlate metric (Schmidl–Cox) over the whole input: for
/// every `n`, `P[n] = Σ_{k<win} x[n+k]·conj(x[n+k+lag])` and `R[n] =
/// Σ_{k<win} |x[n+k+lag]|²`, as running sums (the first window summed
/// in order, then one add-and-drop per step).
pub fn delay_correlate_reference(
    x: &[Complex],
    lag: usize,
    win: usize,
) -> (Vec<Complex>, Vec<f64>) {
    let (mut p, mut r) = (Vec::new(), Vec::new());
    if x.len() < lag + win {
        return (p, r);
    }
    let mut acc_p = Complex::ZERO;
    let mut acc_r = 0.0f64;
    for k in 0..win {
        acc_p += x[k] * x[k + lag].conj();
        acc_r += x[k + lag].norm_sqr();
    }
    p.push(acc_p);
    r.push(acc_r);
    for n in 1..x.len() - lag - win + 1 {
        let drop = n - 1;
        let add = n + win - 1;
        acc_p += x[add] * x[add + lag].conj() - x[drop] * x[drop + lag].conj();
        acc_r += x[add + lag].norm_sqr() - x[drop + lag].norm_sqr();
        p.push(acc_p);
        r.push(acc_r);
    }
    (p, r)
}

/// Short-training detection as the receiver ran it before its scan
/// stopped at the plateau: the delay correlation of
/// [`delay_correlate_reference`] (lag `stf_period`, window
/// `2·stf_period`) over the whole input, then the first `run`
/// consecutive windows whose `|P|/R` exceeds `threshold`, with windows
/// below the energy gate (`0.05·win·mean power`) scoring 0. Returns the
/// plateau start and `P` a half run inside it, which the coarse CFO
/// estimate reads.
pub fn detect_reference(
    samples: &[Complex],
    threshold: f64,
    run: usize,
    stf_period: usize,
) -> Option<(usize, Complex)> {
    let win = 2 * stf_period;
    let (p, r) = delay_correlate_reference(samples, stf_period, win);
    if p.is_empty() {
        return None;
    }
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
                let m = (start + run / 2).min(p.len() - 1);
                return Some((start, p[m]));
            }
        } else {
            consecutive = 0;
        }
    }
    None
}

/// The level of `levels` nearest `y`, by the comparator scan the
/// hard-decision slicer used before its select chain: the first minimum
/// of `|l − y|` under `partial_cmp`. Panics on a NaN `y`.
pub fn nearest_level_reference(levels: &[f64], y: f64) -> f64 {
    *levels
        .iter()
        .min_by(|a, b| (*a - y).abs().partial_cmp(&(*b - y).abs()).unwrap())
        .expect("non-empty levels")
}

/// The double-conversion front end of
/// `wlan_rf::receiver::DoubleConversionReceiver`, restated sample by
/// sample from the stage models' public constructors: each input sample
/// runs through the LNA, mixer 1, the inter-stage highpass, the
/// quadrature mixer and the channel filter by their `push`; the AGC
/// then levels the frame, the ADC converts every sample, and the
/// decimator keeps every `osr`-th one (its phase carried across frames)
/// through the 40 kHz digital DC correction at the output rate. The
/// noise streams fork from `Rng::new(seed)` in the receiver's order:
/// LNA, mixer 1, mixer 2.
///
/// The receiver runs each stage over the whole frame instead; it must
/// reproduce this chain bit for bit, frame after frame.
#[derive(Debug, Clone)]
pub struct RfChainReference {
    lna: Amplifier,
    mixer1: Mixer,
    hpf: DcBlockFilter,
    mixer2: Mixer,
    channel_filter: ChannelSelectFilter,
    agc: Agc,
    adc: Adc,
    dc_correction: DcBlocker,
    osr: usize,
    phase: usize,
}

impl RfChainReference {
    /// Builds the chain from `config`, deriving every noise stream from
    /// `seed`.
    pub fn new(config: &RfConfig, seed: u64) -> Self {
        let fs = config.sample_rate_hz.0;
        let mut rng = Rng::new(seed);
        let mut lna = Amplifier::new(
            config.lna_gain_db,
            config.lna_nf_db,
            config.lna_nonlinearity,
            fs,
            rng.fork(),
        );
        let mut mixer1 = Mixer::new(config.mixer1, fs, rng.fork());
        let mut mixer2 = Mixer::new(config.mixer2, fs, rng.fork());
        lna.set_noise_enabled(config.noise_enabled);
        mixer1.set_noise_enabled(config.noise_enabled);
        mixer2.set_noise_enabled(config.noise_enabled);
        RfChainReference {
            lna,
            mixer1,
            hpf: DcBlockFilter::new(config.hpf_cutoff_hz.0, fs),
            mixer2,
            channel_filter: ChannelSelectFilter::with_order(
                config.channel_filter_order,
                config.channel_filter_ripple_db.0,
                config.channel_filter_edge_hz.0,
                fs,
            ),
            agc: Agc::new(config.agc, config.agc_target_power),
            adc: Adc::new(config.adc_bits, config.adc_full_scale),
            dc_correction: DcBlocker::with_cutoff(40e3, fs / config.osr as f64),
            osr: config.osr,
            phase: 0,
        }
    }

    /// Processes one oversampled frame, returning its decimated
    /// baseband output.
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        let analog: Vec<Complex> = x
            .iter()
            .map(|&s| {
                let s = self.lna.push(s);
                let s = self.mixer1.push(s);
                let s = self.hpf.push(s);
                let s = self.mixer2.push(s);
                self.channel_filter.push(s)
            })
            .collect();
        let leveled = self.agc.process(&analog);
        let converted = self.adc.process(&leveled);
        let mut out = Vec::with_capacity(converted.len() / self.osr + 1);
        for s in converted {
            if self.phase == 0 {
                out.push(self.dc_correction.push(s));
            }
            self.phase = (self.phase + 1) % self.osr;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ones_sequence_is_a_balanced_m_sequence() {
        let seq = all_ones_sequence();
        // A 127-bit m-sequence has 64 ones and 63 zeros.
        assert_eq!(seq.iter().map(|&b| b as usize).sum::<usize>(), 64);
        // And the generator reproduces it from the all-ones seed.
        assert_eq!(scramble_sequence(0x7F, 127), seq.to_vec());
    }

    #[test]
    fn scrambler_period_is_127() {
        let first = scramble_sequence(0b1011101, 127);
        let twice = scramble_sequence(0b1011101, 254);
        assert_eq!(&twice[127..], first.as_slice());
    }

    #[test]
    fn coder_impulse_response_is_the_generators() {
        // A single 1 followed by zeros reads the generator taps back
        // out on each arm: A = 1011011 (133₈), B = 1111001 (171₈).
        let out = encode_k7(&[1, 0, 0, 0, 0, 0, 0]);
        let a: Vec<u8> = out.iter().step_by(2).copied().collect();
        let b: Vec<u8> = out.iter().skip(1).step_by(2).copied().collect();
        assert_eq!(a, vec![1, 0, 1, 1, 0, 1, 1]);
        assert_eq!(b, vec![1, 1, 1, 1, 0, 0, 1]);
    }

    #[test]
    fn puncture_patterns() {
        let coded: Vec<u8> = (0..12).map(|i| (i % 2) as u8).collect();
        assert_eq!(puncture(&coded, 1, 2).len(), 12);
        assert_eq!(puncture(&coded, 2, 3).len(), 9);
        assert_eq!(puncture(&coded, 3, 4).len(), 8);
        // Rate 3/4 keeps A0 B0 A1 B2 of each period.
        let idx: Vec<u8> = (0..6).collect();
        assert_eq!(puncture(&idx, 3, 4), vec![0, 1, 2, 5]);
    }

    #[test]
    fn interleaver_is_a_permutation() {
        for (ncbps, nbpsc) in [(48, 1), (96, 2), (192, 4), (288, 6)] {
            let mut seen = vec![false; ncbps];
            for k in 0..ncbps {
                let j = interleave_position(ncbps, nbpsc, k);
                assert!(!seen[j], "collision at {j}");
                seen[j] = true;
            }
        }
    }

    #[test]
    fn signal_parity_is_even() {
        let bits = signal_bits([1, 0, 1, 1], 100);
        let ones: u8 = bits[..18].iter().sum();
        assert_eq!(ones % 2, 0);
        assert_eq!(&bits[18..], &[0; 6]);
    }

    #[test]
    fn mapper_unit_power() {
        for nbpsc in [1usize, 2, 4, 6] {
            // Average power over all bit patterns must be 1.
            let mut total = 0.0;
            let patterns = 1usize << nbpsc;
            for p in 0..patterns {
                let bits: Vec<u8> = (0..nbpsc).map(|i| ((p >> i) & 1) as u8).collect();
                total += map_bits(nbpsc, &bits)[0].norm_sqr();
            }
            assert!(
                (total / patterns as f64 - 1.0).abs() < 1e-12,
                "nbpsc {nbpsc}"
            );
        }
    }

    #[test]
    fn idft_of_single_bin_is_a_tone() {
        let mut freq = [Complex::ZERO; 64];
        freq[1] = Complex::ONE;
        let sym = idft_symbol(&freq);
        assert_eq!(sym.len(), 80);
        // CP is a copy of the last 16 body samples.
        for i in 0..16 {
            let d = sym[i] - sym[64 + i];
            assert!(d.abs() < 1e-12);
        }
        // Constant modulus tone.
        let expect = (64f64 / 52.0).sqrt() / 8.0;
        for s in &sym[16..] {
            assert!((s.abs() - expect).abs() < 1e-12);
        }
    }
}
