//! §3.1 — the fading channel: "The signal is transmitted over a channel
//! model that can realize an additive white gaussian noise (AWGN) or a
//! fading channel."
//!
//! BER versus RMS delay spread over Rayleigh multipath: OFDM shrugs off
//! dispersion while the (5·τ_rms) excess delay stays inside the 800 ns
//! guard interval, then collapses from inter-symbol interference.

use crate::experiments::sweep::{Axis, Extra, LinkSweep, Reading, Series};
use crate::experiments::{Experiment, RunContext, RunOutput};
use crate::link::{FrontEnd, LinkConfig};
use wlan_dataflow::sweep::Sweep;
use wlan_phy::Rate;

/// Registry entry: the §3.1 Rayleigh-fading delay-spread sweep.
#[derive(Debug, Clone, Copy)]
pub struct FadingSweep {
    /// Data rate.
    pub rate: Rate,
    /// SNR.
    pub snr_db: wlan_units::Db,
    /// RMS delay spreads to sweep (seconds).
    pub trms_list: &'static [f64],
}

impl FadingSweep {
    /// The default sweep: 12 Mbit/s at 30 dB over 25 ns … 1 µs.
    pub const DEFAULT: FadingSweep = FadingSweep {
        rate: Rate::R12,
        snr_db: wlan_units::Db(30.0),
        trms_list: &[25e-9, 50e-9, 100e-9, 150e-9, 250e-9, 400e-9, 600e-9, 1e-6],
    };
}

impl Default for FadingSweep {
    fn default() -> Self {
        FadingSweep::DEFAULT
    }
}

impl Experiment for FadingSweep {
    fn name(&self) -> &'static str {
        "fading"
    }

    fn paper_ref(&self) -> &'static str {
        "§3.1"
    }

    fn describe(&self) -> &'static str {
        "BER vs RMS delay spread over the Rayleigh fading channel"
    }

    /// The sweep across delay spreads; fading loses whole packets, so
    /// every point also reports its packet error rate.
    fn run(&self, ctx: &RunContext) -> RunOutput {
        let (rate, snr_db) = (self.rate, self.snr_db.0);
        let series = Series::custom("ber", "BER", Some("plot"), move |i, trms, ctx| {
            let report = ctx.measure(
                LinkConfig {
                    rate,
                    psdu_len: ctx.effort.psdu_len,
                    packets: ctx.effort.packets,
                    seed: ctx.seed,
                    snr_db: Some(snr_db),
                    multipath_trms_s: Some(trms),
                    front_end: FrontEnd::Ideal,
                    ..LinkConfig::default()
                },
                i,
            );
            Reading {
                extras: vec![report.per()],
                ..Reading::of(&report)
            }
        });
        LinkSweep {
            title: format!("BER vs RMS delay spread ({rate}, {snr_db} dB SNR, guard 800 ns)"),
            axis: Axis {
                key: "trms_ns",
                scale: |s| s * 1e9,
                label: |s| format!("{:.0}ns", s * 1e9),
                columns: vec![("trms [ns]", |s| format!("{:.0}", s * 1e9))],
                values: Sweep::over(self.trms_list.to_vec()),
            },
            series: vec![series.with_extra(Extra {
                key: Some("per"),
                header: "PER",
                cell: |per| format!("{per:.2}"),
            })],
            header: vec![("rate_mbps", rate.mbps() as f64), ("snr_db", snr_db)],
            bar_width: 40,
        }
        .run(ctx)
        .with_note("the 800 ns guard interval tolerates roughly 5*trms <= 800 ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::assert_thread_invariant;
    use crate::experiments::Effort;

    fn run(
        effort: Effort,
        rate: Rate,
        snr_db: f64,
        trms_list: &'static [f64],
        seed: u64,
    ) -> RunOutput {
        let exp = FadingSweep {
            rate,
            snr_db: wlan_units::Db(snr_db),
            trms_list,
        };
        exp.run(&RunContext::serial_reference(effort, seed))
    }

    #[test]
    fn guard_interval_limit() {
        // 50 ns: excess delay 250 ns ≪ 800 ns guard → fine (up to the
        // occasional deep fade). 1 µs: excess 5 µs ≫ guard → ISI
        // collapse.
        let effort = Effort {
            packets: 8,
            psdu_len: 60,
        };
        let ber = run(effort, Rate::R12, 30.0, &[50e-9, 1e-6], 11).column("ber");
        let (short, long) = (ber[0], ber[1]);
        assert!(long > short + 0.02, "no ISI collapse: {short} vs {long}");
        assert!(short < 0.05, "short delay spread already broken: {short}");
    }

    #[test]
    fn table_renders() {
        let out = run(Effort::quick(), Rate::R6, 25.0, &[100e-9], 12);
        assert!(out.table().render().contains("delay spread"));
    }

    #[test]
    fn parallel_sweep_is_thread_invariant() {
        let effort = Effort {
            packets: 4,
            psdu_len: 60,
        };
        let exp = FadingSweep {
            rate: Rate::R12,
            snr_db: wlan_units::Db(30.0),
            trms_list: &[50e-9, 400e-9],
        };
        for threads in [2, 4] {
            assert_thread_invariant(&exp, effort, 13, threads);
        }
    }
}
