//! §5.1 — the noise-figure experiment and the co-simulation noise gap.
//!
//! The paper: "During a co-simulation it was not possible to examine the
//! influence of the noise figure, because the AMS Designer does not
//! support the Verilog-AMS noise functions. This causes, that the
//! measured BER values were better than the results from the
//! corresponding SPW only simulation."
//!
//! We sweep the LNA noise figure near sensitivity in the baseband
//! (SPW-style) simulation, and run the same configuration through the
//! noiseless co-simulation to reproduce the optimistic-BER artifact.

use crate::experiments::sweep::{bounded, Axis, LinkSweep, Series};
use crate::experiments::{Experiment, RunContext, RunOutput, SweepBounds};
use crate::link::{FrontEnd, LinkConfig};
use wlan_dataflow::sweep::Sweep;
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;
use wlan_units::{Db, Dbm};

/// Registry entry: the §5.1 noise-figure sweep with the co-sim gap.
#[derive(Debug, Clone, Copy)]
pub struct NfSweep {
    /// Receive level, near sensitivity.
    pub rx_level_dbm: Dbm,
    /// Point count.
    pub points: usize,
}

impl NfSweep {
    /// The default sweep: −82 dBm, 7 NF points.
    pub const DEFAULT: NfSweep = NfSweep {
        rx_level_dbm: Dbm(-82.0),
        points: 7,
    };
}

impl Default for NfSweep {
    fn default() -> Self {
        NfSweep::DEFAULT
    }
}

impl Experiment for NfSweep {
    fn name(&self) -> &'static str {
        "noise_figure"
    }

    fn paper_ref(&self) -> &'static str {
        "§5.1"
    }

    fn describe(&self) -> &'static str {
        "BER vs LNA noise figure and the co-sim noise gap"
    }

    /// The sweep near sensitivity: the LNA noise figure from 3 to 27 dB
    /// in the baseband simulation, beside the noiseless co-simulation.
    fn run(&self, ctx: &RunContext) -> RunOutput {
        let rx_level_dbm = self.rx_level_dbm.0;
        let link = move |ctx: &RunContext, front_end| LinkConfig {
            rate: Rate::R12,
            psdu_len: ctx.effort.psdu_len,
            packets: ctx.effort.packets,
            seed: ctx.seed,
            rx_level_dbm,
            front_end,
            ..LinkConfig::default()
        };
        LinkSweep {
            title: format!(
                "BER vs LNA noise figure at {rx_level_dbm} dBm (baseband vs noiseless co-sim)"
            ),
            axis: Axis {
                key: "nf_db",
                scale: |x| x,
                label: |x| format!("{x:.0}"),
                columns: vec![("NF [dB]", |x| format!("{x:.0}"))],
                values: Sweep::linspace(3.0, 27.0, self.points.max(2)),
            },
            series: vec![
                Series::link(
                    "ber_baseband",
                    "BER baseband",
                    Some("baseband"),
                    move |nf, ctx| {
                        let rf = RfConfig {
                            lna_nf_db: Db(nf),
                            ..RfConfig::default()
                        };
                        link(ctx, FrontEnd::RfBaseband(rf))
                    },
                ),
                // The co-simulation cannot model the noise figure at all —
                // every NF setting produces the same (noiseless) behavior.
                Series::link("ber_cosim", "BER co-sim", None, move |_, ctx| {
                    link(
                        ctx,
                        FrontEnd::RfCosim {
                            filter_edge_hz: 10e6,
                            analog_osr: 4,
                            noise_workaround: false,
                        },
                    )
                }),
            ],
            header: vec![("rx_level_dbm", rx_level_dbm)],
            bar_width: 30,
        }
        .run(ctx)
        .with_note("the co-sim column stays optimistic: no noise functions (paper §5.1)")
    }

    fn with_bounds(&self, b: SweepBounds) -> Option<Result<Box<dyn Experiment>, String>> {
        bounded(
            *self,
            b,
            Ok(|s, v| s.rx_level_dbm = Dbm(v)),
            Err("--hi (only --lo, the receive level, and --points)"),
            |s| &mut s.points,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::assert_thread_invariant;
    use crate::experiments::Effort;

    fn run(rx_level_dbm: f64, points: usize, seed: u64) -> RunOutput {
        let exp = NfSweep {
            rx_level_dbm: Dbm(rx_level_dbm),
            points,
        };
        exp.run(&RunContext::serial_reference(Effort::quick(), seed))
    }

    #[test]
    fn cosim_is_optimistic_at_high_nf() {
        // At −82 dBm a 27 dB front-end NF kills the baseband link while
        // the noiseless co-sim stays clean — the paper's observed gap.
        let out = run(-82.0, 3, 9);
        let nf_db = *out.column("nf_db").last().unwrap();
        let ber_baseband = *out.column("ber_baseband").last().unwrap();
        let ber_cosim = *out.column("ber_cosim").last().unwrap();
        assert!(nf_db > 20.0);
        assert!(
            ber_baseband > 0.02,
            "baseband should degrade: {ber_baseband}"
        );
        assert!(
            ber_cosim < ber_baseband,
            "co-sim must be optimistic: {ber_cosim} vs {ber_baseband}"
        );
    }

    #[test]
    fn low_nf_link_works() {
        let out = run(-80.0, 2, 10);
        let best = out.column("ber_baseband")[0];
        assert!(best < 0.02, "{best}");
        assert!(out.table().render().contains("noise figure"));
    }

    #[test]
    fn parallel_sweep_is_thread_invariant() {
        let exp = NfSweep {
            rx_level_dbm: Dbm(-80.0),
            points: 2,
        };
        assert_thread_invariant(&exp, Effort::quick(), 10, 2);
    }
}
