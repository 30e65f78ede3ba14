//! Figure 6 — "BER vs compression point of first LNA", with and without
//! the adjacent channel.
//!
//! Expected shape (paper): both series fall from BER ≈ 0.5 to ≈ 0 as the
//! compression point rises; with the adjacent channel present the curve
//! shifts right by roughly the adjacent-channel excess, because the
//! interferer — not the wanted signal — drives the LNA into compression.
//!
//! The sweep runs at 54 Mbit/s with the adjacent channel 6 dB above the
//! wanted one — the standard's adjacent-channel-rejection requirement
//! scales with rate (+16 dB applies to 6 Mbit/s; at 54 Mbit/s it is
//! −1 dB, so +6 dB is already a stress case the filter must handle).

use crate::experiments::sweep::{bounded, curve, Axis, LinkSweep, Series};
use crate::experiments::{Experiment, RunContext, RunOutput, SweepBounds};
use crate::link::{AdjacentChannel, FrontEnd, LinkConfig};
use wlan_dataflow::sweep::Sweep;
use wlan_phy::Rate;
use wlan_rf::nonlinearity::Nonlinearity;
use wlan_rf::receiver::RfConfig;
use wlan_units::Dbm;

/// The lowest compression point at which a series of a Fig. 6 output
/// reaches BER < `threshold` (its "knee").
pub fn knee_dbm(out: &RunOutput, adjacent: bool, threshold: f64) -> Option<f64> {
    let series = if adjacent {
        "ber_adjacent"
    } else {
        "ber_alone"
    };
    curve(out, "p1db_dbm", series)
        .find(|&(_, ber)| ber < threshold)
        .map(|(p1db, _)| p1db)
}

/// Registry entry: the Fig. 6 compression-point sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Sweep {
    /// Sweep start: LNA input P1dB.
    pub lo_dbm: Dbm,
    /// Sweep end.
    pub hi_dbm: Dbm,
    /// Point count.
    pub points: usize,
}

impl Fig6Sweep {
    /// The default sweep: −50…−5 dBm, 10 points.
    pub const DEFAULT: Fig6Sweep = Fig6Sweep {
        lo_dbm: Dbm(-50.0),
        hi_dbm: Dbm(-5.0),
        points: 10,
    };
}

impl Default for Fig6Sweep {
    fn default() -> Self {
        Fig6Sweep::DEFAULT
    }
}

impl Experiment for Fig6Sweep {
    fn name(&self) -> &'static str {
        "fig6"
    }

    fn paper_ref(&self) -> &'static str {
        "Fig. 6"
    }

    fn describe(&self) -> &'static str {
        "BER vs LNA compression point, with/without adjacent channel"
    }

    /// The sweep: 54 Mbit/s at −40 dBm, LNA P1dB from `lo` to `hi` dBm.
    /// The no-adjacent series runs on the master seed, the adjacent
    /// series on `seed + 1`.
    fn run(&self, ctx: &RunContext) -> RunOutput {
        let mut out = LinkSweep {
            title: "Figure 6: BER vs compression point of first LNA".into(),
            axis: Axis {
                key: "p1db_dbm",
                scale: |x| x,
                label: |x| format!("{x:.0}"),
                columns: vec![("P1dB [dBm]", |x| format!("{x:.0}"))],
                values: Sweep::linspace(self.lo_dbm.0, self.hi_dbm.0, self.points.max(2)),
            },
            series: vec![
                Series::link("ber_alone", "BER (no adj)", Some("no-adj"), |p1, ctx| {
                    point_config(p1, false, ctx, ctx.seed)
                }),
                Series::link("ber_adjacent", "BER (adj)", Some("adj"), |p1, ctx| {
                    point_config(p1, true, ctx, ctx.seed.wrapping_add(1))
                }),
            ],
            header: vec![],
            bar_width: 20,
        }
        .run(ctx);
        if let (Some(a), Some(b)) = (knee_dbm(&out, false, 0.01), knee_dbm(&out, true, 0.01)) {
            out.notes.push(format!(
                "knee without adjacent: {a:.0} dBm | with adjacent: {b:.0} dBm (shift {:.0} dB)",
                b - a
            ));
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

fn point_config(p1db: f64, adjacent: bool, ctx: &RunContext, seed: u64) -> LinkConfig {
    let rf = RfConfig {
        lna_nonlinearity: Nonlinearity::rapp(Dbm(p1db)),
        ..RfConfig::default()
    };
    LinkConfig {
        rate: Rate::R54,
        psdu_len: ctx.effort.psdu_len,
        packets: ctx.effort.packets,
        seed,
        rx_level_dbm: -40.0,
        adjacent: adjacent.then_some(AdjacentChannel {
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
        let exp = Fig6Sweep {
            lo_dbm: Dbm(lo),
            hi_dbm: Dbm(hi),
            points,
        };
        exp.run(&RunContext::serial_reference(Effort::quick(), seed))
    }

    #[test]
    fn adjacent_channel_shifts_the_knee_right() {
        let out = run(-50.0, -5.0, 6, 5);
        let (alone, adjacent) = (out.column("ber_alone"), out.column("ber_adjacent"));
        // Deep compression breaks both; high P1dB fixes both.
        assert!(alone[0] > 0.05, "{alone:?}");
        assert!(*alone.last().unwrap() < 0.01, "{alone:?}");
        assert!(*adjacent.last().unwrap() < 0.01, "{adjacent:?}");
        // The knee with adjacent channel needs a higher compression point.
        let k_alone = knee_dbm(&out, false, 0.01).expect("alone series recovers");
        let k_adj = knee_dbm(&out, true, 0.01).expect("adjacent series recovers");
        assert!(k_adj >= k_alone, "adjacent knee {k_adj} vs alone {k_alone}");
    }

    #[test]
    fn table_renders() {
        let out = run(-40.0, -10.0, 3, 6);
        assert_eq!(out.column("p1db_dbm").len(), 3);
        assert!(out.table().render().contains("Figure 6"));
    }

    #[test]
    fn parallel_sweep_is_thread_invariant() {
        let exp = Fig6Sweep {
            lo_dbm: Dbm(-40.0),
            hi_dbm: Dbm(-10.0),
            points: 3,
        };
        for threads in [2, 4] {
            assert_thread_invariant(&exp, Effort::quick(), 6, threads);
        }
    }
}
