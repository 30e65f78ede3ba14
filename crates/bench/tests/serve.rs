//! Determinism contract of the streaming session engine
//! (`wlan_sim::serve`): for any worker count, chunk size, or chunk
//! interleaving, a served session's accumulated [`LinkReport`] must be
//! **bit-identical** to a one-shot serial [`LinkSimulation::run`] over
//! the same traffic. A session is a link cursor stepped one chunk at a
//! time, and `run` is the same cursor stepped once; this grid checks
//! that interleaved multi-session scheduling keeps that identity.

use wlan_exec::{split_seed, ThreadPool};
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;
use wlan_sim::link::{AdjacentChannel, FrontEnd, LinkConfig, LinkReport, LinkSimulation};
use wlan_sim::serve::{ServeConfig, SessionEngine};

/// DSP-only session mix: rate and SNR vary with the session index.
fn ideal_link(session: usize, packets: usize) -> LinkConfig {
    let rate = match session % 3 {
        0 => Rate::R24,
        1 => Rate::R36,
        _ => Rate::R48,
    };
    LinkConfig {
        rate,
        psdu_len: 48,
        packets,
        seed: split_seed(7007, session as u64, 0),
        snr_db: Some(15.0 + (session % 3) as f64),
        front_end: FrontEnd::Ideal,
        ..LinkConfig::default()
    }
}

/// RF-baseband session: full scene (adjacent emitter, oversampled
/// rendering, fused receiver chain), so the engine's per-session
/// front-end state carries real filter history across chunks.
fn rf_link(session: usize, packets: usize) -> LinkConfig {
    LinkConfig {
        rate: Rate::R24,
        psdu_len: 40,
        packets,
        seed: split_seed(7100, session as u64, 0),
        rx_level_dbm: -50.0,
        adjacent: Some(AdjacentChannel::first()),
        front_end: FrontEnd::RfBaseband(RfConfig::default()),
        ..LinkConfig::default()
    }
}

fn assert_bit_identical(got: &LinkReport, want: &LinkReport, what: &str) {
    assert_eq!(got.packets, want.packets, "{what}: packets");
    assert_eq!(got.decoded_packets, want.decoded_packets, "{what}: decoded");
    assert_eq!(got.meter, want.meter, "{what}: meter");
    assert_eq!(
        got.evm_db.map(f64::to_bits),
        want.evm_db.map(f64::to_bits),
        "{what}: evm bits"
    );
}

/// Admits `sessions` links built by `mk`, drives them on `workers`
/// workers with the given chunking, and checks every session against
/// its serial reference.
fn check_grid(
    mk: impl Fn(usize, usize) -> LinkConfig,
    sessions: usize,
    packets: usize,
    workers: usize,
    chunk_packets: usize,
) {
    let mut eng = SessionEngine::new(ServeConfig {
        max_sessions: sessions,
        chunk_packets,
        ring_chunks: 2,
    });
    for s in 0..sessions {
        eng.admit(mk(s, packets), packets).unwrap();
    }
    let stats = eng.drive(&ThreadPool::new(workers));
    assert_eq!(stats.sessions, sessions);
    assert_eq!(stats.packets, (sessions * packets) as u64);
    for s in 0..sessions {
        let want = LinkSimulation::new(mk(s, packets)).run();
        assert_bit_identical(
            &eng.report(s),
            &want,
            &format!("{workers} worker(s), chunk {chunk_packets}, session {s}"),
        );
    }
}

#[test]
fn ideal_sessions_identical_across_workers_and_chunking() {
    let packets = 6;
    // Chunk sizes: single-packet, whole-session, and ragged (6 = 4 + 2).
    for workers in [1usize, 2, 4] {
        for chunk in [1usize, packets, 4] {
            check_grid(ideal_link, 5, packets, workers, chunk);
        }
    }
}

#[test]
fn rf_baseband_sessions_identical_across_workers_and_chunking() {
    // The RF scene is costly, so the grid is smaller; ragged chunking
    // (4 = 3 + 1) still crosses a chunk boundary mid-stream.
    let packets = 4;
    for workers in [1usize, 4] {
        for chunk in [1usize, 3] {
            check_grid(rf_link, 2, packets, workers, chunk);
        }
    }
}

#[test]
fn interleaved_feeding_matches_one_shot_runs() {
    // Sessions fed in two bursts while sharing the engine with other
    // traffic must still match their one-shot references.
    let mut eng = SessionEngine::new(ServeConfig {
        max_sessions: 3,
        chunk_packets: 2,
        ring_chunks: 2,
    });
    for s in 0..3 {
        eng.admit(ideal_link(s, 3), 8).unwrap();
    }
    let pool = ThreadPool::new(2);
    eng.drive(&pool);
    eng.feed_all(5).unwrap();
    eng.drive(&pool);
    for s in 0..3 {
        let want = LinkSimulation::new(ideal_link(s, 8)).run();
        assert_bit_identical(&eng.report(s), &want, &format!("fed session {s}"));
    }
}
