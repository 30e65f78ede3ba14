//! Reproducibility: the whole stack must be bit-exactly deterministic
//! for a given seed — the property that makes Monte-Carlo BER sweeps
//! and regression comparisons meaningful.

use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;
use wlan_sim::link::{AdjacentChannel, FrontEnd, LinkConfig, LinkSimulation};

fn config(seed: u64, front_end: FrontEnd) -> LinkConfig {
    LinkConfig {
        rate: Rate::R24,
        psdu_len: 80,
        packets: 3,
        seed,
        rx_level_dbm: -70.0,
        adjacent: Some(AdjacentChannel {
            offset_hz: 20e6,
            rel_db: 10.0,
        }),
        front_end,
        ..LinkConfig::default()
    }
}

#[test]
fn same_seed_same_result_ideal() {
    let cfg = LinkConfig {
        snr_db: Some(9.0),
        front_end: FrontEnd::Ideal,
        adjacent: None,
        ..config(7, FrontEnd::Ideal)
    };
    let a = LinkSimulation::new(cfg.clone()).run();
    let b = LinkSimulation::new(cfg).run();
    assert_eq!(a.meter.errors(), b.meter.errors());
    assert_eq!(a.meter.bits(), b.meter.bits());
    assert_eq!(a.decoded_packets, b.decoded_packets);
    assert_eq!(a.evm_db, b.evm_db);
}

#[test]
fn same_seed_same_result_rf_baseband() {
    // The full noisy RF chain — thermal, flicker, phase noise — must
    // still be reproducible from the master seed.
    let cfg = config(11, FrontEnd::RfBaseband(RfConfig::default()));
    let a = LinkSimulation::new(cfg.clone()).run();
    let b = LinkSimulation::new(cfg).run();
    assert_eq!(a.meter.errors(), b.meter.errors());
    assert_eq!(a.evm_db, b.evm_db);
}

#[test]
fn different_seeds_differ() {
    // At a marginal SNR the error patterns must differ between seeds
    // (i.e. the seed actually drives the randomness).
    let mk = |seed| {
        LinkSimulation::new(LinkConfig {
            snr_db: Some(8.5),
            adjacent: None,
            front_end: FrontEnd::Ideal,
            packets: 6,
            ..config(seed, FrontEnd::Ideal)
        })
        .run()
        .meter
        .errors()
    };
    let results: Vec<u64> = (0..4).map(|s| mk(100 + s)).collect();
    assert!(
        results.windows(2).any(|w| w[0] != w[1]),
        "all seeds produced identical error counts: {results:?}"
    );
}

#[test]
fn experiments_are_reproducible() {
    use wlan_sim::experiments::{execute, fig5, Effort, RunContext};
    let run = || {
        let mut ctx = RunContext::serial_reference(Effort::quick(), 5);
        execute(&fig5::Fig5Sweep { points: 3 }, &mut ctx)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.column("ber"), b.column("ber"));
    assert_eq!(a.column("bits"), b.column("bits"));
}

#[test]
fn cosim_is_deterministic() {
    let cfg = LinkConfig {
        adjacent: None,
        ..config(13, FrontEnd::default_cosim())
    };
    let a = LinkSimulation::new(cfg.clone()).run();
    let b = LinkSimulation::new(cfg).run();
    assert_eq!(a.meter.errors(), b.meter.errors());
    assert_eq!(a.evm_db, b.evm_db);
}
