//! Bit-identity gates for the allocation-free hot-path kernels.
//!
//! The `_into` refactor (reusable Viterbi trellis, specialized 64-point
//! FFT, scratch-arena RF chain and link loop) is only legal because it
//! is *bit-identical* to the code it replaced. The `LinkReport`
//! literals below were measured on the pre-refactor tree; every field
//! is compared with exact `==` — including the `f64` EVM — so any
//! reordered floating-point operation, skipped RNG draw, or altered
//! buffer lifetime in the hot path fails loudly here.

use wlan_dsp::Rng;
use wlan_phy::params::CodeRate;
use wlan_phy::puncture::{depuncture_into, puncture};
use wlan_phy::viterbi::{decode_soft, Llr, ViterbiDecoder};
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;
use wlan_sim::link::{AdjacentChannel, FrontEnd, LinkConfig, LinkSimulation};

/// Ideal-front-end link at 11.5 dB SNR: enough errors (1087 of 11520
/// bits) that the whole soft-decision path — demap, deinterleave,
/// depuncture, Viterbi, descramble — is exercised on non-trivial LLRs.
#[test]
fn link_report_pins_ideal_seed_behavior() {
    let report = LinkSimulation::new(LinkConfig {
        rate: Rate::R36,
        psdu_len: 120,
        packets: 12,
        seed: 77,
        snr_db: Some(11.5),
        front_end: FrontEnd::Ideal,
        ..LinkConfig::default()
    })
    .run();

    assert_eq!(report.meter.errors(), 1087);
    assert_eq!(report.meter.bits(), 11520);
    assert_eq!(report.meter.packets(), 12);
    assert_eq!(report.meter.packet_errors(), 8);
    assert_eq!(report.decoded_packets, 12);
    // Exact f64 equality on purpose: the kernels must be bit-identical,
    // not merely close.
    assert_eq!(report.evm_db, Some(-11.218140775818666));
}

/// RF-baseband link near sensitivity with an adjacent-channel
/// interferer: pins the fused front-end chain (LNA → mixers → filters →
/// AGC → ADC → decimation), mixer 2's multirate flicker draw schedule
/// and the scene builder's RNG draw order.
#[test]
fn link_report_pins_rf_baseband_seed_behavior() {
    let report = LinkSimulation::new(LinkConfig {
        rate: Rate::R48,
        psdu_len: 80,
        packets: 4,
        seed: 33,
        rx_level_dbm: -86.0,
        adjacent: Some(AdjacentChannel::first()),
        front_end: FrontEnd::RfBaseband(RfConfig::default()),
        ..LinkConfig::default()
    })
    .run();

    assert_eq!(report.meter.errors(), 1180);
    assert_eq!(report.meter.bits(), 2560);
    assert_eq!(report.meter.packets(), 4);
    assert_eq!(report.meter.packet_errors(), 4);
    assert_eq!(report.decoded_packets, 4);
    assert_eq!(report.evm_db, Some(-5.19422398061435));
}

/// Noisy LLRs for a random terminated codeword.
fn noisy_llrs(message_bits: usize, noise: f64, rng: &mut Rng) -> Vec<Llr> {
    let mut bits: Vec<u8> = (0..message_bits)
        .map(|_| (rng.next_u64() & 1) as u8)
        .collect();
    bits.extend_from_slice(&[0; 6]);
    wlan_phy::convolutional::encode(&bits)
        .iter()
        .map(|&b| (1.0 - 2.0 * b as f64) + noise * rng.gaussian())
        .collect()
}

/// Property: a reused `ViterbiDecoder` matches the allocating
/// `decode_soft` on random LLR streams of many lengths and noise
/// levels, with no state leaking between consecutive decodes.
#[test]
fn reused_decoder_matches_decode_soft_on_random_streams() {
    let mut rng = Rng::new(2026);
    let mut dec = ViterbiDecoder::new();
    let mut got = Vec::new();
    for trial in 0..40 {
        let message_bits = 1 + (rng.next_u64() % 600) as usize;
        let noise = [0.0, 0.3, 0.8, 1.5][trial % 4];
        let llrs = noisy_llrs(message_bits, noise, &mut rng);
        dec.decode_soft_into(&llrs, &mut got);
        let want = decode_soft(&llrs);
        assert_eq!(
            got, want,
            "trial {trial}: {message_bits} bits, noise {noise}"
        );
    }
}

/// Property: both soft decoders agree with the conformance reference
/// trellis, so the production kernel is anchored to an independent
/// implementation, not merely to itself.
#[test]
fn soft_decoders_match_conformance_reference() {
    let mut rng = Rng::new(31);
    let mut dec = ViterbiDecoder::new();
    let mut got = Vec::new();
    for trial in 0..10 {
        let llrs = noisy_llrs(120 + 40 * trial, 0.6, &mut rng);
        dec.decode_soft_into(&llrs, &mut got);
        let reference = wlan_conformance::refimpl::viterbi_reference(&llrs);
        assert_eq!(got, reference, "trial {trial}");
    }
}

/// Pure noise (no codeword structure) must still decode identically —
/// the traceback tie-breaking rules are part of the bit contract.
#[test]
fn decoders_agree_on_pure_noise() {
    let mut rng = Rng::new(97);
    let mut dec = ViterbiDecoder::new();
    let mut got = Vec::new();
    for _ in 0..10 {
        let llrs: Vec<Llr> = (0..480).map(|_| 2.0 * rng.gaussian()).collect();
        dec.decode_soft_into(&llrs, &mut got);
        assert_eq!(got, decode_soft(&llrs));
        assert_eq!(got, wlan_conformance::refimpl::viterbi_reference(&llrs));
    }
}

/// Trellis step counts at the decoder's structural edges: empty, inside
/// and just past the 6-step warm-up, odd and even remainders of the
/// two-step steady-state loop, and either side of the renormalization
/// checks at steps 4095 and 8191.
const EDGE_STEPS: [usize; 12] = [0, 1, 2, 5, 6, 7, 8, 9, 4095, 4096, 4097, 8193];

/// Codeword of `n_steps` trellis steps (random bits, then a zero tail
/// as far as it fits).
fn edge_codeword(n_steps: usize, rng: &mut Rng) -> Vec<u8> {
    let mut bits: Vec<u8> = (0..n_steps).map(|_| (rng.next_u64() & 1) as u8).collect();
    let tail = n_steps.saturating_sub(6);
    bits[tail..].fill(0);
    wlan_phy::convolutional::encode(&bits)
}

/// Property: `decode_soft_into` equals the conformance reference bit
/// for bit at every structural edge step count, on Gaussian LLRs,
/// tie-heavy small-integer LLRs and the erasure patterns the receiver
/// feeds it at all three code rates, with one decoder reused across
/// the lengths in descending then ascending order.
#[test]
fn decoder_matches_reference_at_trellis_edges() {
    let mut rng = Rng::new(4097);
    let mut dec = ViterbiDecoder::new();
    let mut got = Vec::new();
    let mut depunctured = Vec::new();
    let lengths = EDGE_STEPS.iter().rev().chain(EDGE_STEPS.iter());
    for &n_steps in lengths {
        let mut streams: Vec<(String, Vec<Llr>)> = Vec::new();
        let coded = edge_codeword(n_steps, &mut rng);
        streams.push((
            "gaussian".into(),
            coded
                .iter()
                .map(|&b| (1.0 - 2.0 * b as f64) + 0.8 * rng.gaussian())
                .collect(),
        ));
        streams.push((
            "integer".into(),
            coded
                .iter()
                .map(|&b| {
                    (2.0 * (1.0 - 2.0 * b as f64) + (1.5 * rng.gaussian()).round()).clamp(-3.0, 3.0)
                })
                .collect(),
        ));
        // Puncture a codeword padded to whole puncturing periods (6
        // steps fit both 2/3 and 3/4), then cut the depunctured stream
        // back to `n_steps` steps.
        let padded = edge_codeword(n_steps.div_ceil(6) * 6, &mut rng);
        for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R34] {
            let sent: Vec<Llr> = puncture(&padded, rate)
                .iter()
                .map(|&b| (1.0 - 2.0 * b as f64) + 0.6 * rng.gaussian())
                .collect();
            depuncture_into(&sent, rate, &mut depunctured);
            streams.push((format!("{rate:?}"), depunctured[..2 * n_steps].to_vec()));
        }
        for (kind, llrs) in &streams {
            dec.decode_soft_into(llrs, &mut got);
            assert_eq!(
                got,
                wlan_conformance::refimpl::viterbi_reference(llrs),
                "{kind} LLRs, {n_steps} steps"
            );
        }
    }
}
