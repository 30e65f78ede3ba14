//! §2.2 — adjacent and alternate channel rejection: "The first adjacent
//! channel may be 16 dBm, the second adjacent channel 32 dBm above this
//! level." BER versus the interferer's relative level, for the +20 MHz
//! adjacent and the +40 MHz alternate channel.

use crate::experiments::sweep::{bounded, curve, Axis, LinkSweep, Series};
use crate::experiments::{Experiment, RunContext, RunOutput, SweepBounds};
use crate::link::{AdjacentChannel, FrontEnd, LinkConfig};
use wlan_dataflow::sweep::Sweep;
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;
use wlan_units::Db;

/// The highest relative level each series of a blocking output
/// tolerates at BER < `threshold`.
pub fn rejection_db(out: &RunOutput, alternate: bool, threshold: f64) -> Option<f64> {
    let series = if alternate {
        "ber_alternate"
    } else {
        "ber_adjacent"
    };
    curve(out, "rel_db", series)
        .rev()
        .find(|&(_, ber)| ber < threshold)
        .map(|(rel_db, _)| rel_db)
}

/// Registry entry: the §2.2 adjacent/alternate rejection sweep.
#[derive(Debug, Clone, Copy)]
pub struct BlockingSweep {
    /// Data rate.
    pub rate: Rate,
    /// Sweep start: interferer level relative to wanted.
    pub lo_db: Db,
    /// Sweep end.
    pub hi_db: Db,
    /// Point count.
    pub points: usize,
}

impl BlockingSweep {
    /// The default sweep: 12 Mbit/s, +4…+44 dB, 11 points.
    pub const DEFAULT: BlockingSweep = BlockingSweep {
        rate: Rate::R12,
        lo_db: Db(4.0),
        hi_db: Db(44.0),
        points: 11,
    };
}

impl Default for BlockingSweep {
    fn default() -> Self {
        BlockingSweep::DEFAULT
    }
}

/// The link of one series at one point: an interferer `spacings`
/// channel spacings up, `rel_db` above the wanted signal, on the
/// master seed plus `seed_offset`.
fn link(rate: Rate, spacings: f64, seed_offset: u64, rel_db: f64, ctx: &RunContext) -> LinkConfig {
    LinkConfig {
        profile: ctx.profile,
        rate,
        psdu_len: ctx.effort.psdu_len,
        packets: ctx.effort.packets,
        seed: ctx.seed.wrapping_add(seed_offset),
        rx_level_dbm: -60.0,
        adjacent: Some(AdjacentChannel {
            offset_hz: spacings * ctx.profile.sample_rate,
            rel_db,
        }),
        front_end: FrontEnd::RfBaseband(RfConfig::default()),
        osr: 8, // the +40 MHz alternate channel needs ±80 MHz of scene
        ..LinkConfig::default()
    }
}

impl Experiment for BlockingSweep {
    fn name(&self) -> &'static str {
        "blocking"
    }

    fn paper_ref(&self) -> &'static str {
        "§2.2"
    }

    fn describe(&self) -> &'static str {
        "Adjacent (+20 MHz) and alternate (+40 MHz) channel rejection"
    }

    /// The rejection sweep at −60 dBm wanted level. The interferer sits
    /// one (adjacent, master seed) and two (alternate, `seed + 7`)
    /// channel spacings up, where one spacing is the profile's sampling
    /// bandwidth — 20 MHz for 802.11a, scaled accordingly for the other
    /// numerologies.
    fn run(&self, ctx: &RunContext) -> RunOutput {
        let rate = self.rate;
        let mut out = LinkSweep {
            title: format!(
                "BER vs interferer level ({rate}): adjacent (+20 MHz) vs alternate (+40 MHz)"
            ),
            axis: Axis {
                key: "rel_db",
                scale: |x| x,
                label: |x| format!("{x:+.0}"),
                columns: vec![("rel [dB]", |x| format!("{x:+.0}"))],
                values: Sweep::linspace(self.lo_db.0, self.hi_db.0, self.points.max(2)),
            },
            series: vec![
                Series::link("ber_adjacent", "BER adj", Some("adj"), move |x, ctx| {
                    link(rate, 1.0, 0, x, ctx)
                }),
                Series::link("ber_alternate", "BER alt", Some("alt"), move |x, ctx| {
                    link(rate, 2.0, 7, x, ctx)
                }),
            ],
            header: vec![("rate_mbps", rate.mbps() as f64)],
            bar_width: 18,
        }
        .run(ctx);
        if let (Some(adj), Some(alt)) = (
            rejection_db(&out, false, 0.01),
            rejection_db(&out, true, 0.01),
        ) {
            out.notes.push(format!(
                "rejection at BER<1e-2: adjacent {adj:+.0} dB, alternate {alt:+.0} dB (spec: +16/+32)"
            ));
        }
        out
    }

    fn with_bounds(&self, b: SweepBounds) -> Option<Result<Box<dyn Experiment>, String>> {
        bounded(
            *self,
            b,
            Ok(|s, v| s.lo_db = Db(v)),
            Ok(|s, v| s.hi_db = Db(v)),
            |s| &mut s.points,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::assert_thread_invariant;
    use crate::experiments::Effort;

    fn run(lo: f64, hi: f64, points: usize, seed: u64) -> RunOutput {
        let exp = BlockingSweep {
            rate: Rate::R12,
            lo_db: Db(lo),
            hi_db: Db(hi),
            points,
        };
        exp.run(&RunContext::serial_reference(Effort::quick(), seed))
    }

    #[test]
    fn alternate_channel_tolerated_better_than_adjacent() {
        // The alternate channel is a whole channel further out, so the
        // Chebyshev filter rejects it far more: the paper's spec allows
        // it 16 dB hotter (+32 vs +16).
        let out = run(8.0, 40.0, 5, 5);
        let adj_tol = rejection_db(&out, false, 0.01).unwrap_or(f64::MIN);
        let alt_tol = rejection_db(&out, true, 0.01).unwrap_or(f64::MIN);
        assert!(
            alt_tol >= adj_tol + 8.0,
            "alternate tolerance {alt_tol} dB vs adjacent {adj_tol} dB"
        );
        // The spec points themselves: +16 adjacent and +32 alternate OK.
        assert!(adj_tol >= 16.0, "adjacent rejection {adj_tol} < spec 16 dB");
        assert!(
            alt_tol >= 32.0,
            "alternate rejection {alt_tol} < spec 32 dB"
        );
    }

    #[test]
    fn table_renders() {
        let out = run(10.0, 20.0, 2, 6);
        assert!(out.table().render().contains("interferer"));
    }

    #[test]
    fn ber_cells_use_their_own_series_bit_count() {
        // With early stopping the adjacent series stops before its
        // frame budget while the alternate, error-free, runs all of
        // it: each BER cell (a zero BER prints `<1/bits`) must use its
        // own series' bit count.
        use crate::experiments::Engine;
        use crate::link::McRun;
        use crate::report::format_ber;
        use wlan_exec::ThreadPool;
        use wlan_meas::montecarlo::EarlyStop;
        let exp = BlockingSweep {
            rate: Rate::R12,
            lo_db: Db(24.0),
            hi_db: Db(44.0),
            points: 2,
        };
        let ctx = RunContext {
            effort: Effort {
                packets: 40,
                psdu_len: 100,
            },
            seed: 42,
            engine: Engine {
                pool: ThreadPool::serial(),
                mc: McRun {
                    early_stop: Some(EarlyStop::default()),
                    ..McRun::default()
                },
            },
            serial: false,
            ..RunContext::default()
        };
        let out = exp.run(&ctx);
        let rows = out.table().rows();
        let mut stopped_early = 0;
        for (i, rel_db) in [24.0, 44.0].into_iter().enumerate() {
            let adj = ctx.measure(link(exp.rate, 1.0, 0, rel_db, &ctx), i);
            let alt = ctx.measure(link(exp.rate, 2.0, 7, rel_db, &ctx), i);
            assert_eq!(
                rows[i][1],
                format_ber(adj.ber(), adj.meter.bits()),
                "point {i}"
            );
            assert_eq!(
                rows[i][2],
                format_ber(alt.ber(), alt.meter.bits()),
                "point {i}"
            );
            if alt.ber() == 0.0 && adj.meter.bits() < alt.meter.bits() {
                stopped_early += 1;
            }
        }
        assert!(
            stopped_early > 0,
            "no point where the series' counts differ: {rows:?}"
        );
    }

    #[test]
    fn parallel_sweep_is_thread_invariant() {
        let exp = BlockingSweep {
            rate: Rate::R12,
            lo_db: Db(10.0),
            hi_db: Db(20.0),
            points: 2,
        };
        assert_thread_invariant(&exp, Effort::quick(), 6, 2);
    }
}
