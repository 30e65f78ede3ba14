//! Figure 5 — "BER vs filter bandwidth (with present adjacent channel)":
//! sweep of the channel-select Chebyshev passband edge.
//!
//! Expected shape (paper): a bathtub — a too-narrow filter destroys the
//! wanted OFDM band (±8.3 MHz), a too-wide filter lets the +16 dB
//! adjacent channel through.

use crate::experiments::sweep::{bounded, curve, Axis, LinkSweep, Series};
use crate::experiments::{Experiment, RunContext, RunOutput, SweepBounds};
use crate::link::{AdjacentChannel, FrontEnd, LinkConfig};
use wlan_dataflow::sweep::Sweep;
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;

/// The edge (MHz) with the lowest BER in a Fig. 5 output.
pub fn best_edge_mhz(out: &RunOutput) -> f64 {
    curve(out, "edge_mhz", "ber")
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .map(|(edge, _)| edge)
        .unwrap_or(0.0)
}

/// Registry entry: the Fig. 5 filter-bandwidth bathtub.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Sweep {
    /// Point count across the 3…16 MHz edge range.
    pub points: usize,
}

impl Fig5Sweep {
    /// The default sweep: 12 points.
    pub const DEFAULT: Fig5Sweep = Fig5Sweep { points: 12 };
}

impl Default for Fig5Sweep {
    fn default() -> Self {
        Fig5Sweep::DEFAULT
    }
}

impl Experiment for Fig5Sweep {
    fn name(&self) -> &'static str {
        "fig5"
    }

    fn paper_ref(&self) -> &'static str {
        "Fig. 5"
    }

    fn describe(&self) -> &'static str {
        "BER vs channel-filter bandwidth, adjacent channel present"
    }

    /// The sweep: 24 Mbit/s link at −55 dBm with the +16 dB adjacent
    /// channel, Chebyshev edge from 3 to 16 MHz, tabulated on the
    /// paper's x-axis ("passband edge frequency (1.0e8 Hz)").
    fn run(&self, ctx: &RunContext) -> RunOutput {
        let out = LinkSweep {
            title: "Figure 5: BER vs filter bandwidth (adjacent channel present)".into(),
            axis: Axis {
                key: "edge_mhz",
                scale: |hz| hz / 1e6,
                label: |hz| format!("{:.1}MHz", hz / 1e6),
                columns: vec![
                    ("edge [1e8 Hz]", |hz| format!("{:.3}", hz / 1e8)),
                    ("edge [MHz]", |hz| format!("{:.1}", hz / 1e6)),
                ],
                values: Sweep::linspace(3e6, 16e6, self.points.max(2)),
            },
            series: vec![Series::ber(|edge_hz, ctx| {
                let rf = RfConfig {
                    channel_filter_edge_hz: wlan_units::Hz(edge_hz),
                    ..RfConfig::default()
                };
                LinkConfig {
                    rate: Rate::R24,
                    psdu_len: ctx.effort.psdu_len,
                    packets: ctx.effort.packets,
                    seed: ctx.seed,
                    rx_level_dbm: -55.0,
                    adjacent: Some(AdjacentChannel::first()),
                    front_end: FrontEnd::RfBaseband(rf),
                    ..LinkConfig::default()
                }
            })],
            header: vec![],
            bar_width: 40,
        }
        .run(ctx);
        let best = best_edge_mhz(&out);
        out.with_note(format!("best edge: {best:.2} MHz"))
    }

    fn with_bounds(&self, b: SweepBounds) -> Option<Result<Box<dyn Experiment>, String>> {
        const FIXED: &str = "--lo/--hi (the 3-16 MHz edge range is fixed; use --points)";
        bounded(*self, b, Err(FIXED), Err(FIXED), |s| &mut s.points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::assert_thread_invariant;
    use crate::experiments::Effort;

    fn run(points: usize, seed: u64) -> RunOutput {
        Fig5Sweep { points }.run(&RunContext::serial_reference(Effort::quick(), seed))
    }

    #[test]
    fn bathtub_shape() {
        // Narrow (3 MHz) and the best mid-band edge must differ sharply;
        // quick effort keeps this CI-friendly.
        let out = run(5, 3);
        let ber = out.column("ber");
        assert_eq!(ber.len(), 5);
        let narrow = ber[0];
        let wide = *ber.last().unwrap();
        let best = ber.iter().copied().fold(f64::MAX, f64::min);
        assert!(narrow > 0.05, "narrow filter should fail: {narrow}");
        assert!(
            wide > 0.1,
            "wide filter should admit the adjacent channel: {wide}"
        );
        assert!(best < 0.01, "some edge should work: {best}");
        // The best edge covers the signal band without admitting the
        // aliased adjacent channel.
        let e = best_edge_mhz(&out);
        assert!((4.0..12.0).contains(&e), "best edge {e} MHz");
    }

    #[test]
    fn table_renders() {
        let t = run(3, 4).tables.remove(0);
        assert_eq!(t.len(), 3);
        assert!(t.render().contains("Figure 5"));
    }

    #[test]
    fn parallel_sweep_is_thread_invariant() {
        for threads in [2, 4] {
            assert_thread_invariant(&Fig5Sweep { points: 3 }, Effort::quick(), 8, threads);
        }
    }
}
