//! §5.1 — the "input and output scale" parameter: BER across the
//! receiver's specified input range (−88 … −23 dBm, §2.2), verifying
//! sensitivity at the bottom and overload behavior at the top.

use crate::experiments::sweep::{bounded, curve, Axis, LinkSweep, Series};
use crate::experiments::{Experiment, RunContext, RunOutput, SweepBounds};
use crate::link::{FrontEnd, LinkConfig};
use wlan_dataflow::sweep::Sweep;
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;
use wlan_units::Dbm;

/// The lowest level with BER below `threshold` (measured sensitivity)
/// in a level sweep's output.
pub fn sensitivity_dbm(out: &RunOutput, threshold: f64) -> Option<f64> {
    curve(out, "rx_level_dbm", "ber")
        .find(|&(_, ber)| ber < threshold)
        .map(|(level, _)| level)
}

/// Registry entry: the §5.1 input-level sweep.
#[derive(Debug, Clone, Copy)]
pub struct LevelSweep {
    /// Data rate.
    pub rate: Rate,
    /// Sweep start.
    pub lo_dbm: Dbm,
    /// Sweep end.
    pub hi_dbm: Dbm,
    /// Point count.
    pub points: usize,
}

impl LevelSweep {
    /// The default sweep: 24 Mbit/s across −98…−23 dBm, 12 points.
    pub const DEFAULT: LevelSweep = LevelSweep {
        rate: Rate::R24,
        lo_dbm: Dbm(-98.0),
        hi_dbm: Dbm(-23.0),
        points: 12,
    };
}

impl Default for LevelSweep {
    fn default() -> Self {
        LevelSweep::DEFAULT
    }
}

impl Experiment for LevelSweep {
    fn name(&self) -> &'static str {
        "level_sweep"
    }

    fn paper_ref(&self) -> &'static str {
        "§5.1"
    }

    fn describe(&self) -> &'static str {
        "BER across the specified -88..-23 dBm input range"
    }

    /// The sweep from below sensitivity to above the specified maximum.
    fn run(&self, ctx: &RunContext) -> RunOutput {
        let rate = self.rate;
        let mut out = LinkSweep {
            title: format!("BER vs input level ({rate}), spec range -88..-23 dBm"),
            axis: Axis {
                key: "rx_level_dbm",
                scale: |x| x,
                label: |x| format!("{x:.0}"),
                columns: vec![("level [dBm]", |x| format!("{x:.0}"))],
                values: Sweep::linspace(self.lo_dbm.0, self.hi_dbm.0, self.points.max(2)),
            },
            series: vec![Series::ber(move |level, ctx| LinkConfig {
                rate,
                psdu_len: ctx.effort.psdu_len,
                packets: ctx.effort.packets,
                seed: ctx.seed,
                rx_level_dbm: level,
                front_end: FrontEnd::RfBaseband(RfConfig::default()),
                ..LinkConfig::default()
            })],
            header: vec![("rate_mbps", rate.mbps() as f64)],
            bar_width: 40,
        }
        .run(ctx);
        if let Some(s) = sensitivity_dbm(&out, 1e-3) {
            out.notes
                .push(format!("measured sensitivity at {rate}: {s:.0} dBm"));
        }
        out
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::assert_thread_invariant;
    use crate::experiments::Effort;

    fn run(rate: Rate, lo: f64, hi: f64, points: usize, seed: u64) -> RunOutput {
        let exp = LevelSweep {
            rate,
            lo_dbm: Dbm(lo),
            hi_dbm: Dbm(hi),
            points,
        };
        exp.run(&RunContext::serial_reference(Effort::quick(), seed))
    }

    #[test]
    fn sensitivity_cliff_and_spec_range_clean() {
        let out = run(Rate::R12, -100.0, -25.0, 6, 3);
        let ber = out.column("ber");
        // Far below sensitivity: broken. Within the range: clean.
        assert!(*ber.first().unwrap() > 0.1, "{ber:?}");
        assert!(*ber.last().unwrap() < 0.01, "{ber:?}");
        let sens = sensitivity_dbm(&out, 0.01).expect("link closes somewhere");
        assert!(
            (-95.0..=-70.0).contains(&sens),
            "measured sensitivity {sens} dBm"
        );
    }

    #[test]
    fn table_renders() {
        let out = run(Rate::R24, -60.0, -30.0, 2, 4);
        assert!(out.table().render().contains("input level"));
    }

    #[test]
    fn parallel_sweep_is_thread_invariant() {
        let exp = LevelSweep {
            rate: Rate::R24,
            lo_dbm: Dbm(-60.0),
            hi_dbm: Dbm(-40.0),
            points: 3,
        };
        assert_thread_invariant(&exp, Effort::quick(), 4, 2);
    }
}
