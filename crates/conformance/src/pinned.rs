//! The pinned experiment configurations whose snapshots are held
//! against `tests/golden/`.
//!
//! Both the integration test (`tests/tests/golden.rs`) and the
//! `wlan-conformance` CLI run exactly these configurations, so a CI
//! drift failure reproduces locally with `cargo test` and re-blesses
//! with `WLANSIM_BLESS=1`. Every pinned run goes through the
//! [`Experiment`] registry surface (`execute` under a
//! [`RunContext::serial_reference`]), so the goldens also pin the
//! trait plumbing: all runs are serial and fully seeded — on a given
//! platform the snapshot is bit-reproducible; the tolerance policy
//! only absorbs cross-platform `libm` rounding.

use crate::golden::{Tolerance, TolerancePolicy};
use wlan_phy::Rate;
use wlan_sim::experiments::{
    blocking, evm, execute, ip3, level_sweep, noise_figure, Effort, Experiment, RunContext,
};

/// One pinned run: a golden name, its measured snapshot, and the
/// tolerance policy it is judged with.
pub struct PinnedGolden {
    /// Golden file stem under `tests/golden/`.
    pub name: &'static str,
    /// Flattened measurement fields.
    pub fields: Vec<(String, f64)>,
    /// Acceptance bands.
    pub policy: TolerancePolicy,
}

/// Runs a pinned experiment instance under the bit-reproducible serial
/// reference context and returns its snapshot.
fn pinned_snapshot(exp: &dyn Experiment, seed: u64) -> Vec<(String, f64)> {
    let mut ctx = RunContext::serial_reference(Effort::quick(), seed);
    execute(exp, &mut ctx).snapshot
}

/// Policy for BER-carrying sweeps: sweep parameters and counters are
/// pinned (nearly) exactly, error rates get a small band for foreign
/// `libm` rounding cascading through the Monte-Carlo chain.
fn ber_sweep_policy() -> TolerancePolicy {
    TolerancePolicy::new(Tolerance {
        abs: 1e-9,
        rel: 1e-12,
    })
    .with_rule(
        "points[*].ber*",
        Tolerance {
            abs: 5e-3,
            rel: 0.02,
        },
    )
    .with_rule("points[*].bits", Tolerance::EXACT)
    .with_rule("n_points", Tolerance::EXACT)
}

/// Policy for the EVM sweep: dB quantities get a 0.05 dB band.
fn evm_policy() -> TolerancePolicy {
    TolerancePolicy::new(Tolerance {
        abs: 1e-9,
        rel: 1e-12,
    })
    .with_rule("points[*].evm_db", Tolerance::abs(0.05))
    .with_rule("points[*].theory_db", Tolerance::abs(1e-6))
    .with_rule("points[*].error_free", Tolerance::EXACT)
    .with_rule("n_points", Tolerance::EXACT)
}

/// §5.1 IP3 sweep at quick effort.
pub fn ip3_sweep() -> PinnedGolden {
    const EXP: ip3::Ip3Sweep = ip3::Ip3Sweep {
        lo_dbm: wlan_units::Dbm(-40.0),
        hi_dbm: wlan_units::Dbm(0.0),
        points: 4,
    };
    PinnedGolden {
        name: "ip3_sweep",
        fields: pinned_snapshot(&EXP, 7),
        policy: ber_sweep_policy(),
    }
}

/// §5.1 input-level sweep at quick effort.
pub fn level_sweep() -> PinnedGolden {
    const EXP: level_sweep::LevelSweep = level_sweep::LevelSweep {
        rate: Rate::R12,
        lo_dbm: wlan_units::Dbm(-100.0),
        hi_dbm: wlan_units::Dbm(-25.0),
        points: 6,
    };
    PinnedGolden {
        name: "level_sweep",
        fields: pinned_snapshot(&EXP, 3),
        policy: ber_sweep_policy(),
    }
}

/// §5.1 noise-figure sweep (baseband vs noiseless co-sim).
pub fn nf_sweep() -> PinnedGolden {
    const EXP: noise_figure::NfSweep = noise_figure::NfSweep {
        rx_level_dbm: wlan_units::Dbm(-82.0),
        points: 3,
    };
    PinnedGolden {
        name: "nf_sweep",
        fields: pinned_snapshot(&EXP, 9),
        policy: ber_sweep_policy(),
    }
}

/// §2.2 adjacent/alternate blocking sweep.
pub fn blocking_sweep() -> PinnedGolden {
    const EXP: blocking::BlockingSweep = blocking::BlockingSweep {
        rate: Rate::R12,
        lo_db: wlan_units::Db(8.0),
        hi_db: wlan_units::Db(40.0),
        points: 5,
    };
    PinnedGolden {
        name: "blocking_sweep",
        fields: pinned_snapshot(&EXP, 5),
        policy: ber_sweep_policy(),
    }
}

/// §5.2 EVM-vs-SNR measurement on the ideal receiver. A single-rate
/// [`evm::EvmSweep`] keeps the legacy un-prefixed snapshot keys.
pub fn evm_sweep() -> PinnedGolden {
    const EXP: evm::EvmSweep = evm::EvmSweep {
        rates: &[Rate::R36],
        snrs_db: &[15.0, 25.0, 35.0],
        psdu_len: 100,
    };
    PinnedGolden {
        name: "evm_sweep",
        fields: pinned_snapshot(&EXP, 1),
        policy: evm_policy(),
    }
}

/// Every pinned golden, in a stable order.
pub fn all() -> Vec<PinnedGolden> {
    vec![
        ip3_sweep(),
        level_sweep(),
        nf_sweep(),
        blocking_sweep(),
        evm_sweep(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_rf::nonlinearity::Nonlinearity;
    use wlan_rf::receiver::RfConfig;
    use wlan_sim::experiments::RunOutput;
    use wlan_sim::link::{AdjacentChannel, FrontEnd, LinkConfig, LinkSimulation};

    #[test]
    fn snapshots_are_reproducible() {
        // Same pinned config run twice gives identical fields — the
        // precondition for golden comparisons to make sense at all.
        let a = evm_sweep();
        let b = evm_sweep();
        assert_eq!(a.fields, b.fields);
        assert!(!a.fields.is_empty());
    }

    #[test]
    fn names_are_unique_and_fields_finite() {
        let runs = all();
        let mut names: Vec<&str> = runs.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), runs.len());
        for r in &runs {
            for (k, v) in &r.fields {
                assert!(v.is_finite(), "{}.{k} = {v}", r.name);
            }
        }
    }

    #[test]
    fn registry_path_matches_legacy_run() {
        // The pinned run is the serial estimator: every point's BER is
        // `LinkSimulation::run` of that point's configuration, bit for
        // bit, with the same seed.
        let out = RunOutput {
            snapshot: ip3_sweep().fields,
            ..RunOutput::default()
        };
        let (iip3s, bers) = (out.column("iip3_dbm"), out.column("ber"));
        assert_eq!(iip3s.len(), 4);
        let effort = Effort::quick();
        for (i, (iip3, ber)) in iip3s.into_iter().zip(bers).enumerate() {
            let rf = RfConfig {
                lna_nonlinearity: Nonlinearity::Cubic {
                    iip3_dbm: wlan_units::Dbm(iip3),
                },
                ..RfConfig::default()
            };
            let report = LinkSimulation::new(LinkConfig {
                rate: Rate::R36,
                psdu_len: effort.psdu_len,
                packets: effort.packets,
                seed: 7,
                rx_level_dbm: -40.0,
                adjacent: Some(AdjacentChannel {
                    offset_hz: wlan_phy::params::SAMPLE_RATE,
                    rel_db: 6.0,
                }),
                front_end: FrontEnd::RfBaseband(rf),
                ..LinkConfig::default()
            })
            .run();
            assert_eq!(ber.to_bits(), report.ber().to_bits(), "point {i}");
        }
    }
}
