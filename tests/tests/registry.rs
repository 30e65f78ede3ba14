//! The experiment registry contract: every paper experiment is
//! reachable through the `Experiment` trait exactly once, the
//! `wlansim list` table mirrors the registry, snapshot keys are unique
//! within a run, the serial estimator is exactly `LinkSimulation::run`
//! of each point's configuration, and the eight link sweeps keep the
//! snapshots they were pinned with under both estimators.

use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;
use wlan_sim::experiments::*;
use wlan_sim::link::{AdjacentChannel, FrontEnd, LinkConfig, LinkSimulation};

/// The module list from the paper-mapping table in
/// `experiments/mod.rs`, plus the design-flow driver. One registry
/// entry per module, no more, no less.
const EXPECTED: &[&str] = &[
    "table1",
    "fading",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table2",
    "ip3",
    "noise_figure",
    "evm",
    "rf_char",
    "level_sweep",
    "blocking",
    "cfo",
    "constellation",
    "ber_snr",
    "design_flow",
];

#[test]
fn every_paper_module_registered_exactly_once() {
    let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
    for want in EXPECTED {
        let hits = names.iter().filter(|n| *n == want).count();
        assert_eq!(hits, 1, "experiment '{want}' registered {hits} times");
    }
    assert_eq!(
        names.len(),
        EXPECTED.len(),
        "unexpected registry entries: {names:?}"
    );
}

#[test]
fn find_resolves_every_registered_name() {
    for e in registry() {
        let found = find(e.name()).expect("find() resolves a registered name");
        assert_eq!(found.name(), e.name());
        assert!(!e.paper_ref().is_empty(), "{} paper_ref", e.name());
        assert!(!e.describe().is_empty(), "{} describe", e.name());
    }
    assert!(find("no_such_experiment").is_none());
}

#[test]
fn list_table_matches_registry() {
    // `wlansim list` prints exactly this table; its rows must be the
    // registry in registry order.
    let t = registry_table();
    assert_eq!(t.len(), registry().len());
    for (row, e) in t.rows().iter().zip(registry()) {
        assert_eq!(row[0], e.name());
        assert_eq!(row[1], e.paper_ref());
        assert_eq!(row[2], e.describe());
    }
}

/// Cheap stand-ins for the experiments whose defaults are too slow for
/// a unit gate: same code paths, minimal sweep sizes.
fn cheap_instances() -> Vec<Box<dyn Experiment>> {
    let mut exps: Vec<Box<dyn Experiment>> = vec![
        Box::new(table1::Table1),
        Box::new(fig4::Fig4Spectrum),
        Box::new(evm::EvmSweep {
            rates: &[Rate::R12, Rate::R24],
            snrs_db: &[20.0, 30.0],
            psdu_len: 100,
        }),
        Box::new(rf_char::RfChar),
        Box::new(ber_snr::BerSnrGrid {
            snrs_db: &[12.0, 24.0],
        }),
    ];
    exps.extend(link_sweeps().into_iter().map(|(exp, ..)| exp));
    exps
}

#[test]
fn snapshot_keys_unique_and_finite_shape() {
    for exp in cheap_instances() {
        let mut ctx = RunContext::serial_reference(Effort::quick(), 11);
        let out = execute(exp.as_ref(), &mut ctx);
        // table1 is a static standards table: no numeric fields.
        if exp.name() != "table1" {
            assert!(!out.snapshot.is_empty(), "{} empty snapshot", exp.name());
        }
        let mut keys: Vec<&str> = out.snapshot.iter().map(|(k, _)| k.as_str()).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            keys.len(),
            n,
            "{} has duplicate snapshot keys: {:?}",
            exp.name(),
            out.snapshot.iter().map(|(k, _)| k).collect::<Vec<_>>()
        );
        // One telemetry record per executed experiment.
        assert_eq!(ctx.telemetry.records.len(), 1);
        assert_eq!(ctx.telemetry.records[0].name, exp.name());
    }
}

/// The serial estimator's definition: every point's BER is the serial
/// `LinkSimulation::run` of that point's configuration, bit for bit.
fn assert_serial_estimator(out: &RunOutput, series: &[(&str, Vec<LinkConfig>)]) {
    for (key, configs) in series {
        let ber = out.column(key);
        assert_eq!(ber.len(), configs.len(), "{key}");
        for (i, cfg) in configs.iter().enumerate() {
            let want = LinkSimulation::new(cfg.clone()).run().ber();
            assert_eq!(ber[i].to_bits(), want.to_bits(), "{key} point {i}");
        }
    }
}

#[test]
fn trait_run_bit_identical_to_legacy_level_sweep() {
    const EXP: level_sweep::LevelSweep = level_sweep::LevelSweep {
        rate: Rate::R12,
        lo_dbm: wlan_units::Dbm(-90.0),
        hi_dbm: wlan_units::Dbm(-40.0),
        points: 3,
    };
    let effort = Effort::quick();
    let out = execute(&EXP, &mut RunContext::serial_reference(effort, 3));
    let configs = [-90.0, -65.0, -40.0].map(|rx_level_dbm| LinkConfig {
        rate: Rate::R12,
        psdu_len: effort.psdu_len,
        packets: effort.packets,
        seed: 3,
        rx_level_dbm,
        front_end: FrontEnd::RfBaseband(RfConfig::default()),
        ..LinkConfig::default()
    });
    assert_eq!(out.column("rx_level_dbm"), [-90.0, -65.0, -40.0]);
    assert_serial_estimator(&out, &[("ber", configs.to_vec())]);
}

#[test]
fn trait_run_bit_identical_to_legacy_evm() {
    // Single-rate EvmSweep must keep the legacy un-prefixed keys the
    // pinned goldens were blessed with.
    const EXP: evm::EvmSweep = evm::EvmSweep {
        rates: &[Rate::R36],
        snrs_db: &[15.0, 35.0],
        psdu_len: 100,
    };
    let mut ctx = RunContext::serial_reference(Effort::quick(), 1);
    let via_trait = execute(&EXP, &mut ctx).snapshot;
    let legacy = evm::run(Rate::R36, &[15.0, 35.0], 100, 1).snapshot();
    assert_eq!(via_trait, legacy);
    assert!(via_trait.iter().all(|(k, _)| !k.starts_with("r36.")));
}

#[test]
fn trait_run_bit_identical_to_legacy_blocking() {
    const EXP: blocking::BlockingSweep = blocking::BlockingSweep {
        rate: Rate::R12,
        lo_db: wlan_units::Db(10.0),
        hi_db: wlan_units::Db(30.0),
        points: 2,
    };
    let effort = Effort::quick();
    let out = execute(&EXP, &mut RunContext::serial_reference(effort, 5));
    // Adjacent one channel spacing up on the master seed, alternate two
    // spacings up on `seed + 7`; osr 8 carries the alternate channel.
    let series = |spacings: f64, seed: u64| {
        [10.0, 30.0]
            .map(|rel_db| LinkConfig {
                rate: Rate::R12,
                psdu_len: effort.psdu_len,
                packets: effort.packets,
                seed,
                rx_level_dbm: -60.0,
                adjacent: Some(AdjacentChannel {
                    offset_hz: spacings * wlan_phy::IEEE_802_11A.sample_rate,
                    rel_db,
                }),
                front_end: FrontEnd::RfBaseband(RfConfig::default()),
                osr: 8,
                ..LinkConfig::default()
            })
            .to_vec()
    };
    assert_serial_estimator(
        &out,
        &[
            ("ber_adjacent", series(1.0, 5)),
            ("ber_alternate", series(2.0, 12)),
        ],
    );
}

#[test]
fn execute_records_manifest_ready_telemetry() {
    const EXP: ip3::Ip3Sweep = ip3::Ip3Sweep {
        lo_dbm: wlan_units::Dbm(-35.0),
        hi_dbm: wlan_units::Dbm(-5.0),
        points: 2,
    };
    let mut ctx = RunContext::serial_reference(Effort::quick(), 7);
    let out = execute(&EXP, &mut ctx);
    let rec = &ctx.telemetry.records[0];
    assert_eq!(rec.points.len(), out.points.len());
    assert!(rec.wall >= std::time::Duration::ZERO);
    assert!(rec.serial);
    assert_eq!(rec.threads, 1);
    // The manifest produced from this sink must pass the conformance
    // validator — the same gate CI applies to `wlansim` output.
    let manifest = wlan_sim::manifest::RunManifest::from_sink(&ctx.telemetry);
    let errs = wlan_conformance::manifest::validate(&manifest.render());
    assert!(errs.is_empty(), "{errs:?}");
}

/// The eight link sweeps at 2–3 points each, with the seed each runs
/// under and the [`fingerprint`]s of its snapshot under the serial and
/// the sharded estimator. The fingerprints were computed from the
/// per-module estimators that predate the shared link-sweep driver;
/// the instances are chosen so that every sweep has at least one point
/// with bit errors.
fn link_sweeps() -> Vec<(Box<dyn Experiment>, u64, [u64; 2])> {
    vec![
        (
            Box::new(fading::FadingSweep {
                rate: Rate::R12,
                snr_db: wlan_units::Db(30.0),
                trms_list: &[50e-9, 1e-6],
            }),
            13,
            [0xc0ae_6cb0_9ece_f6f0, 0x0633_1d0b_38ea_ab4d],
        ),
        (
            Box::new(fig5::Fig5Sweep { points: 3 }),
            8,
            [0x0fa6_a5f2_4c5b_9330, 0x55f2_d99c_482a_b52f],
        ),
        (
            Box::new(fig6::Fig6Sweep {
                lo_dbm: wlan_units::Dbm(-40.0),
                hi_dbm: wlan_units::Dbm(-10.0),
                points: 3,
            }),
            6,
            [0xf2fd_6f2c_1e06_1750, 0x82e0_1616_09f5_5564],
        ),
        (
            Box::new(ip3::Ip3Sweep {
                lo_dbm: wlan_units::Dbm(-35.0),
                hi_dbm: wlan_units::Dbm(-15.0),
                points: 2,
            }),
            11,
            [0xfdfc_47d1_8e71_4e92, 0xbf8f_6122_e997_4984],
        ),
        (
            Box::new(noise_figure::NfSweep {
                rx_level_dbm: wlan_units::Dbm(-84.0),
                points: 3,
            }),
            10,
            [0xacf2_e2be_6340_117c, 0x28fc_b07f_75e4_af0c],
        ),
        (
            Box::new(level_sweep::LevelSweep {
                rate: Rate::R24,
                lo_dbm: wlan_units::Dbm(-95.0),
                hi_dbm: wlan_units::Dbm(-45.0),
                points: 3,
            }),
            4,
            [0xf89f_3f05_9544_b6ef, 0x552f_5efc_27b1_281f],
        ),
        (
            Box::new(blocking::BlockingSweep {
                rate: Rate::R12,
                lo_db: wlan_units::Db(10.0),
                hi_db: wlan_units::Db(20.0),
                points: 2,
            }),
            6,
            [0x25e2_126a_00b9_defd, 0x57fc_4d12_a395_1699],
        ),
        // Both estimators run the same per-point function here.
        (
            Box::new(cfo::CfoSweep {
                rate: Rate::R12,
                max_hz: wlan_units::Hz(900e3),
                points: 3,
            }),
            23,
            [0x44cc_1555_febc_5506, 0x44cc_1555_febc_5506],
        ),
    ]
}

/// The sharded estimator on `threads` workers at quick effort.
fn sharded_ctx(threads: usize, seed: u64) -> RunContext {
    RunContext {
        engine: Engine::with_threads(threads),
        serial: false,
        ..RunContext::serial_reference(Effort::quick(), seed)
    }
}

/// 64-bit FNV-1a over every snapshot key and the bit pattern of its
/// value, in snapshot order.
fn fingerprint(snapshot: &[(String, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (k, v) in snapshot {
        for &b in k.as_bytes().iter().chain(&v.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn link_sweep_snapshots_match_pinned_fingerprints() {
    for (exp, seed, [serial, sharded]) in link_sweeps() {
        let name = exp.name();
        let mut ctx = RunContext::serial_reference(Effort::quick(), seed);
        let got = fingerprint(&execute(exp.as_ref(), &mut ctx).snapshot);
        assert_eq!(got, serial, "{name}: serial estimator {got:#018x}");
        let got = fingerprint(&execute(exp.as_ref(), &mut sharded_ctx(2, seed)).snapshot);
        assert_eq!(got, sharded, "{name}: sharded estimator {got:#018x}");
    }
}
