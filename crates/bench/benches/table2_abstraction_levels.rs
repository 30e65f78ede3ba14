//! The Table 2 experiment as a micro-benchmark: one packet through
//! the link at each abstraction level. The ratio between the
//! `rf_cosim` and `rf_baseband` times is the paper's headline ratio
//! (30–40× there; the value here is host- and osr-dependent).

use std::hint::black_box;
use wlan_bench::harness::Harness;
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;
use wlan_sim::link::{FrontEnd, LinkConfig, LinkSimulation};

fn link(front_end: FrontEnd) -> LinkConfig {
    LinkConfig {
        rate: Rate::R24,
        psdu_len: 100,
        packets: 1,
        seed: 42,
        rx_level_dbm: -50.0,
        front_end,
        ..LinkConfig::default()
    }
}

fn bench_levels(c: &mut Harness) {
    let mut g = c.benchmark_group("table2_abstraction_levels");
    g.sample_size(10);

    g.bench_function("ideal", |b| {
        let sim = LinkSimulation::new(link(FrontEnd::Ideal));
        b.iter(|| black_box(sim.run()))
    });

    let cfg = RfConfig {
        noise_enabled: false,
        ..RfConfig::default()
    };
    g.bench_function("rf_baseband", |b| {
        let sim = LinkSimulation::new(link(FrontEnd::RfBaseband(cfg)));
        b.iter(|| black_box(sim.run()))
    });

    g.bench_function("rf_cosim_osr16", |b| {
        let sim = LinkSimulation::new(link(FrontEnd::RfCosim {
            filter_edge_hz: 10e6,
            analog_osr: 16,
            noise_workaround: false,
        }));
        b.iter(|| black_box(sim.run()))
    });

    g.finish();
}

fn main() {
    let mut h = Harness::from_env();
    bench_levels(&mut h);
}
