//! Differential test layer: every optimized kernel must be
//! **bit-identical** to its reference implementation — the fused RF
//! chain to the sample-by-sample reference front end, frame after
//! frame with its state carried across frame boundaries; the Viterbi
//! decoder to the conformance reference trellis; the chunked
//! co-simulation engine to its sample-by-sample loop; and the link
//! stepped in batches of packets to the one-step `run`.
//!
//! Exact `==` on decoded bits and `f64::to_bits` on samples throughout:
//! these kernels are only allowed to be faster, so the goldens, the
//! pinned sweeps and the Annex G gates never need re-blessing, and
//! "close" is failure here.

use wlan_ams::CosimReceiver;
use wlan_conformance::refimpl::RfChainReference;
use wlan_dsp::{Complex, Rng};
use wlan_phy::viterbi::{Llr, ViterbiDecoder};
use wlan_phy::Rate;
use wlan_rf::nonlinearity::Nonlinearity;
use wlan_rf::receiver::{DoubleConversionReceiver, RfConfig, RfScratch};
use wlan_sim::link::{AdjacentChannel, FrontEnd, LinkConfig, LinkSimulation};

fn assert_bits_eq(got: &[Complex], want: &[Complex], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(
            g.re.to_bits(),
            w.re.to_bits(),
            "{what}: re diverges at sample {i}: {} vs {}",
            g.re,
            w.re
        );
        assert_eq!(
            g.im.to_bits(),
            w.im.to_bits(),
            "{what}: im diverges at sample {i}: {} vs {}",
            g.im,
            w.im
        );
    }
}

fn noise_burst(rng: &mut Rng, n: usize, power: f64) -> Vec<Complex> {
    (0..n).map(|_| rng.complex_gaussian(power)).collect()
}

/// RF chain: the stage-major `process_into` equals the conformance
/// reference front end frame by frame, for several front-end configs
/// and frame layouts (single frame, equal frames, ragged lengths), so
/// the filter, decimator-phase and DC-correction state carried across
/// frame boundaries stays pinned.
#[test]
fn rf_chain_batch_matches_scalar_and_staged() {
    let configs = vec![
        ("default", RfConfig::default()),
        (
            "noiseless",
            RfConfig {
                noise_enabled: false,
                ..RfConfig::default()
            },
        ),
        (
            "narrow-filter-rapp-lna",
            RfConfig {
                channel_filter_edge_hz: wlan_units::Hz(6e6),
                lna_nonlinearity: Nonlinearity::rapp(wlan_units::Dbm(-25.0)),
                ..RfConfig::default()
            },
        ),
    ];
    let layouts: Vec<Vec<usize>> = vec![
        vec![1600],               // one frame
        vec![1200, 1200, 1200],   // equal frames
        vec![2000, 640, 1333, 4], // ragged, incl. a tiny tail
    ];
    let mut rng = Rng::new(0x5eed);
    for (name, cfg) in &configs {
        for (li, layout) in layouts.iter().enumerate() {
            let seed = 0xabc + li as u64;
            let mut frame_rx = DoubleConversionReceiver::new(*cfg, seed);
            let mut staged_rx = RfChainReference::new(cfg, seed);
            let mut scratch = RfScratch::default();
            let mut y = Vec::new();
            for (fi, &len) in layout.iter().enumerate() {
                let frame = noise_burst(&mut rng, len, 1e-7);
                frame_rx.process_into(&frame, &mut scratch, &mut y);
                assert_bits_eq(
                    &y,
                    &staged_rx.process(&frame),
                    &format!("{name}/{li} frame {fi}: process_into vs RfChainReference"),
                );
            }
        }
    }
}

/// Viterbi: `decode_soft_into` equals the conformance reference, for
/// message lengths hitting the tail/warm-up edges and typical OFDM
/// symbol payloads, with one decoder reused across every stream.
#[test]
fn viterbi_matches_reference() {
    let mut rng = Rng::new(0xdec0de);
    let mut dec = ViterbiDecoder::new();
    let mut bits = Vec::new();
    // 1 and 5 information bits sit inside the 6-step warm-up; the rest
    // cover typical OFDM symbol payloads.
    for &message_bits in &[1usize, 5, 48, 97, 240] {
        for trial in 0..5 {
            let mut msg: Vec<u8> = (0..message_bits)
                .map(|_| rng.next_u64() as u8 & 1)
                .collect();
            msg.extend_from_slice(&[0; 6]);
            let llrs: Vec<Llr> = wlan_phy::convolutional::encode(&msg)
                .iter()
                .map(|&b| (1.0 - 2.0 * b as f64) + 0.7 * rng.gaussian())
                .collect();
            dec.decode_soft_into(&llrs, &mut bits);
            assert_eq!(
                bits,
                wlan_conformance::refimpl::viterbi_reference(&llrs),
                "decode_soft_into bits={message_bits} trial={trial} vs refimpl"
            );
        }
    }
}

/// Mixed-signal co-simulation: the chunked device-major block path
/// equals the sample-by-sample loop bit for bit across device configs
/// (default netlist, narrowed filter edge, analog osr down to 1) and an
/// input length that straddles chunk boundaries.
#[test]
fn cosim_block_path_matches_sample_by_sample() {
    let mut rng = Rng::new(0xc0);
    // 2500 samples: spans two 1024-sample chunks plus a ragged tail.
    let x = noise_burst(&mut rng, 2500, 1e-6);
    type Builder = Box<dyn Fn() -> CosimReceiver>;
    let builders: Vec<(&str, Builder)> = vec![
        (
            "default osr=2",
            Box::new(|| CosimReceiver::new(80e6, 2, 4).unwrap()),
        ),
        (
            "default osr=1",
            Box::new(|| CosimReceiver::new(80e6, 1, 4).unwrap()),
        ),
        (
            "narrow filter osr=3",
            Box::new(|| CosimReceiver::with_filter_edge(6e6, 80e6, 3, 4).unwrap()),
        ),
    ];
    for (name, build) in &builders {
        let mut block = build();
        let mut serial = build();
        let mut got = Vec::new();
        let mut want = Vec::new();
        // Two passes so carried state (decimation phase, DC blocker,
        // device internals) stays aligned across calls too.
        for pass in 0..2 {
            block.process_into(&x, &mut got);
            serial.process_into_sample_by_sample(&x, &mut want);
            assert_bits_eq(&got, &want, &format!("{name} pass {pass}"));
            assert_eq!(block.steps_taken(), serial.steps_taken(), "{name} steps");
        }
    }
}

/// The link stepped in batches against the one-step `run`, cross-crate:
/// one RF-baseband config with the adjacent channel and a ragged final
/// batch. (The per-front-end split matrix lives in wlan-sim's unit
/// tests; this pins the public surface.)
#[test]
fn link_run_batched_matches_serial_run() {
    let cfg = LinkConfig {
        rate: Rate::R24,
        psdu_len: 52,
        packets: 5,
        seed: 0xba7c4,
        rx_level_dbm: -52.0,
        adjacent: Some(AdjacentChannel::first()),
        front_end: FrontEnd::RfBaseband(RfConfig::default()),
        ..LinkConfig::default()
    };
    let sim = LinkSimulation::new(cfg);
    let want = sim.run();
    for batch in [1usize, 2, 8] {
        let got = sim.run_batched(batch);
        assert_eq!(got.meter, want.meter, "batch {batch}");
        assert_eq!(got.decoded_packets, want.decoded_packets, "batch {batch}");
        assert_eq!(got.evm_db, want.evm_db, "batch {batch}");
        assert_eq!(got.packets, want.packets, "batch {batch}");
    }
}
