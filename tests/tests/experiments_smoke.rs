//! Smoke runs of every paper experiment at quick effort: each must
//! produce a well-formed table and its documented qualitative shape.

use wlan_phy::Rate;
use wlan_sim::experiments::*;

#[test]
fn table1_smoke() {
    let t = table1::run();
    assert_eq!(t.len(), 4);
    assert!(!t.to_csv().is_empty());
}

#[test]
fn fig4_smoke() {
    let r = fig4::run(1);
    assert!((r.adjacent_dbm - r.wanted_dbm - 16.0).abs() < 1.5);
    assert!(r.table().len() > 10);
}

/// Runs `exp` under the serial reference context at quick effort.
fn quick(exp: &dyn Experiment, seed: u64) -> RunOutput {
    execute(
        exp,
        &mut RunContext::serial_reference(Effort::quick(), seed),
    )
}

#[test]
fn fig5_smoke() {
    let ber = quick(&fig5::Fig5Sweep { points: 4 }, 2).column("ber");
    assert_eq!(ber.len(), 4);
    assert!(ber.iter().all(|b| b.is_finite() && *b <= 1.0));
}

#[test]
fn fig6_smoke() {
    let exp = fig6::Fig6Sweep {
        lo_dbm: wlan_units::Dbm(-45.0),
        hi_dbm: wlan_units::Dbm(-10.0),
        points: 3,
    };
    let out = quick(&exp, 3);
    let (alone, adjacent) = (out.column("ber_alone"), out.column("ber_adjacent"));
    assert_eq!(alone.len(), 3);
    // The adjacent series can never beat the alone series by much.
    for (a, adj) in alone.iter().zip(&adjacent) {
        assert!(adj + 0.25 >= *a, "alone {a} adjacent {adj}");
    }
}

#[test]
fn table2_smoke() {
    // One packet per mode is a single wall-clock sample, which a busy
    // sibling test can invert; time each mode as the fastest of 3 runs,
    // like the Table 2 ratio tests in the experiment module.
    let mut r = table2::run(&[1], 40, 4, 4);
    for _ in 1..3 {
        let again = table2::run(&[1], 40, 4, 4);
        let (best, row) = (&mut r.rows[0], &again.rows[0]);
        best.baseband = best.baseband.min(row.baseband);
        best.cosim = best.cosim.min(row.cosim);
    }
    assert!(r.rows[0].ratio() > 1.0, "ratio {}", r.rows[0].ratio());
}

#[test]
fn ip3_smoke() {
    let exp = ip3::Ip3Sweep {
        lo_dbm: wlan_units::Dbm(-35.0),
        hi_dbm: wlan_units::Dbm(-5.0),
        points: 3,
    };
    let ber = quick(&exp, 5).column("ber");
    assert_eq!(ber.len(), 3);
    assert!(ber[0] >= ber[2]);
}

#[test]
fn nf_smoke() {
    let exp = noise_figure::NfSweep {
        rx_level_dbm: wlan_units::Dbm(-80.0),
        points: 2,
    };
    assert_eq!(quick(&exp, 6).points.len(), 2);
}

#[test]
fn evm_smoke() {
    let r = evm::run(Rate::R24, &[20.0, 30.0], 100, 7);
    assert_eq!(r.points.len(), 2);
    assert!(r.points[0].evm_db > r.points[1].evm_db);
}

#[test]
fn rf_char_smoke() {
    let r = rf_char::run(8);
    assert!(r.worst_error() < 1.0);
}

#[test]
fn ber_snr_smoke() {
    let r = ber_snr::run(Effort::quick(), &[10.0, 24.0], 9, &wlan_phy::IEEE_802_11A);
    assert_eq!(r.points.len(), 16);
}
