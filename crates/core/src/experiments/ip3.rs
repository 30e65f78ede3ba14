//! §5.1 — BER vs third-order intercept point of the LNA ("it was
//! possible to measure bit error rates versus critical parameters of the
//! RF front-end, e.g. IP3 value of the LNA").
//!
//! With the adjacent channel present, a low IIP3 lets the interferer's
//! intermodulation products land in-band.

use crate::experiments::sweep::{bounded, Axis, LinkSweep, Series};
use crate::experiments::{Experiment, RunContext, RunOutput, SweepBounds};
use crate::link::{AdjacentChannel, FrontEnd, LinkConfig};
use wlan_dataflow::sweep::Sweep;
use wlan_phy::Rate;
use wlan_rf::nonlinearity::Nonlinearity;
use wlan_rf::receiver::RfConfig;
use wlan_units::Dbm;

/// Registry entry: the §5.1 IIP3 sweep, parameterized so pinned runs
/// can shrink the point count.
#[derive(Debug, Clone, Copy)]
pub struct Ip3Sweep {
    /// Sweep start.
    pub lo_dbm: Dbm,
    /// Sweep end.
    pub hi_dbm: Dbm,
    /// Point count.
    pub points: usize,
}

impl Ip3Sweep {
    /// The paper-default sweep (−40…0 dBm, 9 points).
    pub const DEFAULT: Ip3Sweep = Ip3Sweep {
        lo_dbm: Dbm(-40.0),
        hi_dbm: Dbm(0.0),
        points: 9,
    };
}

impl Default for Ip3Sweep {
    fn default() -> Self {
        Ip3Sweep::DEFAULT
    }
}

impl Experiment for Ip3Sweep {
    fn name(&self) -> &'static str {
        "ip3"
    }

    fn paper_ref(&self) -> &'static str {
        "§5.1"
    }

    fn describe(&self) -> &'static str {
        "BER vs LNA IIP3, adjacent channel present"
    }

    /// The sweep at −40 dBm wanted level (36 Mbit/s) with a +6 dB
    /// adjacent channel, IIP3 from `lo` to `hi` dBm.
    fn run(&self, ctx: &RunContext) -> RunOutput {
        LinkSweep {
            title: "BER vs IIP3 of the LNA (adjacent channel present)".into(),
            axis: Axis {
                key: "iip3_dbm",
                scale: |x| x,
                label: |x| format!("{x:.0}"),
                columns: vec![("IIP3 [dBm]", |x| format!("{x:.0}"))],
                values: Sweep::linspace(self.lo_dbm.0, self.hi_dbm.0, self.points.max(2)),
            },
            series: vec![Series::ber(point_config)],
            header: vec![],
            bar_width: 40,
        }
        .run(ctx)
    }

    fn with_bounds(&self, b: SweepBounds) -> Option<Result<Box<dyn Experiment>, String>> {
        bounded(
            *self,
            b,
            Ok(|s, v| s.lo_dbm = Dbm(v)),
            Ok(|s, v| s.hi_dbm = Dbm(v)),
            |s| &mut s.points,
        )
    }
}

fn point_config(iip3: f64, ctx: &RunContext) -> LinkConfig {
    let rf = RfConfig {
        lna_nonlinearity: Nonlinearity::Cubic {
            iip3_dbm: Dbm(iip3),
        },
        ..RfConfig::default()
    };
    LinkConfig {
        profile: ctx.profile,
        rate: Rate::R36,
        psdu_len: ctx.effort.psdu_len,
        packets: ctx.effort.packets,
        seed: ctx.seed,
        rx_level_dbm: -40.0,
        adjacent: Some(AdjacentChannel {
            offset_hz: 20e6,
            rel_db: 6.0,
        }),
        front_end: FrontEnd::RfBaseband(rf),
        ..LinkConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::assert_thread_invariant;
    use crate::experiments::Effort;

    fn run(lo: f64, hi: f64, points: usize, seed: u64) -> RunOutput {
        let exp = Ip3Sweep {
            lo_dbm: Dbm(lo),
            hi_dbm: Dbm(hi),
            points,
        };
        exp.run(&RunContext::serial_reference(Effort::quick(), seed))
    }

    #[test]
    fn low_iip3_breaks_link_high_iip3_fixes_it() {
        let ber = run(-40.0, 0.0, 4, 7).column("ber");
        let worst = *ber.first().unwrap();
        let best = *ber.last().unwrap();
        assert!(worst > 0.05, "low IIP3 should fail: {worst}");
        assert!(best < 0.01, "high IIP3 should work: {best}");
        // Monotone trend (allowing Monte-Carlo wiggle): last ≤ first.
        assert!(best <= worst);
    }

    #[test]
    fn table_renders() {
        let out = run(-30.0, -10.0, 2, 8);
        assert!(out.table().render().contains("IIP3"));
    }

    #[test]
    fn parallel_sweep_is_thread_invariant() {
        let exp = Ip3Sweep {
            lo_dbm: Dbm(-30.0),
            hi_dbm: Dbm(-10.0),
            points: 3,
        };
        assert_thread_invariant(&exp, Effort::quick(), 8, 3);
    }
}
