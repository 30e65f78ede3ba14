//! Carrier-frequency-offset tolerance: BER vs CFO for the blind
//! receiver. 802.11a allows ±20 ppm per side (±208 kHz at 5.2 GHz);
//! the short-preamble estimator unambiguously covers
//! `±fs/(2·16) = ±625 kHz`, so the link must hold to ±208 kHz with
//! margin and collapse past the estimator range.

use crate::experiments::sweep::{bounded, curve, Axis, Extra, LinkSweep, Reading, Series};
use crate::experiments::{Effort, Experiment, RunContext, RunOutput, SweepBounds};
use wlan_channel::awgn::Awgn;
use wlan_dataflow::sweep::Sweep;
use wlan_dsp::{Complex, Rng};
use wlan_meas::BerMeter;
use wlan_phy::params::SAMPLE_RATE;
use wlan_phy::{Rate, Receiver, Transmitter};

/// The largest offset (kHz) of a CFO output still decoding below
/// `threshold` BER.
pub fn tolerance_khz(out: &RunOutput, threshold: f64) -> Option<f64> {
    curve(out, "cfo_khz", "ber")
        .rev()
        .find(|&(_, ber)| ber < threshold)
        .map(|(khz, _)| khz)
}

/// Registry entry: the CFO-tolerance sweep for the blind receiver.
#[derive(Debug, Clone, Copy)]
pub struct CfoSweep {
    /// Data rate.
    pub rate: Rate,
    /// Largest offset applied.
    pub max_hz: wlan_units::Hz,
    /// Point count.
    pub points: usize,
}

impl CfoSweep {
    /// The default sweep: 24 Mbit/s, 0…800 kHz, 9 points.
    pub const DEFAULT: CfoSweep = CfoSweep {
        rate: Rate::R24,
        max_hz: wlan_units::Hz(800e3),
        points: 9,
    };
}

impl Default for CfoSweep {
    fn default() -> Self {
        CfoSweep::DEFAULT
    }
}

impl Experiment for CfoSweep {
    fn name(&self) -> &'static str {
        "cfo"
    }

    fn paper_ref(&self) -> &'static str {
        "§4 (receiver sync)"
    }

    fn describe(&self) -> &'static str {
        "BER vs carrier frequency offset; spec is +/-208 kHz"
    }

    /// The sweep at 20 dB SNR with offsets from 0 to `max_hz`; beside
    /// the BER, the table shows the mean absolute CFO estimation error
    /// over decoded packets.
    fn run(&self, ctx: &RunContext) -> RunOutput {
        let rate = self.rate;
        let rx = Receiver::new();
        let series = Series::custom("ber", "BER", Some("plot"), |_, cfo, ctx| {
            measure_point(ctx.effort, rate, &rx, cfo, ctx.seed)
        });
        let mut out = LinkSweep {
            title: format!("BER vs carrier frequency offset ({rate}); 802.11a spec ±208 kHz"),
            axis: Axis {
                key: "cfo_khz",
                scale: |hz| hz / 1e3,
                label: |hz| format!("{:.0}kHz", hz / 1e3),
                columns: vec![("CFO [kHz]", |hz| format!("{:.0}", hz / 1e3))],
                values: Sweep::linspace(0.0, self.max_hz.0, self.points.max(2)),
            },
            series: vec![series.with_extra(Extra {
                key: None,
                header: "est err [kHz]",
                cell: |hz| format!("{:.1}", hz / 1e3),
            })],
            header: vec![("rate_mbps", rate.mbps() as f64)],
            bar_width: 30,
        }
        .run(ctx);
        if let Some(tol) = tolerance_khz(&out, 0.01) {
            out.notes
                .push(format!("tolerated offset at BER<1e-2: {tol:.0} kHz"));
        }
        out
    }

    fn with_bounds(&self, b: SweepBounds) -> Option<Result<Box<dyn Experiment>, String>> {
        bounded(
            *self,
            b,
            Err("--lo (the sweep always starts at 0 Hz; use --hi)"),
            Ok(|s, v| s.max_hz = wlan_units::Hz(v)),
            |s| &mut s.points,
        )
    }
}

/// Measures one offset at 20 dB SNR: a pure function of `(effort,
/// rate, cfo, seed)` — every RNG stream is seeded inside — so both
/// estimators and every thread count give the same reading.
fn measure_point(effort: Effort, rate: Rate, rx: &Receiver, cfo: f64, seed: u64) -> Reading {
    let mut rng = Rng::new(seed);
    let mut noise = Awgn::new(seed ^ 0xC0FE);
    let mut meter = BerMeter::new();
    let mut err_acc = 0.0;
    let mut decoded = 0usize;
    for _ in 0..effort.packets {
        let mut psdu = vec![0u8; effort.psdu_len];
        rng.bytes(&mut psdu);
        let burst = Transmitter::new(rate).transmit(&psdu);
        let w = 2.0 * std::f64::consts::PI * cfo / SAMPLE_RATE;
        let shifted: Vec<Complex> = burst
            .samples
            .iter()
            .enumerate()
            .map(|(n, &s)| s * Complex::cis(w * n as f64))
            .collect();
        let noisy = noise.add_noise_power(&shifted, 0.01);
        match rx.receive(&noisy) {
            Ok(got) if got.psdu.len() == psdu.len() => {
                meter.update_bytes(&psdu, &got.psdu);
                err_acc += (got.cfo_hz - cfo).abs();
                decoded += 1;
            }
            _ => meter.update_lost_packet(8 * effort.psdu_len),
        }
    }
    Reading {
        ber: meter.ber(),
        bits: meter.bits(),
        extras: vec![if decoded > 0 {
            err_acc / decoded as f64
        } else {
            f64::NAN
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::assert_thread_invariant;

    fn run(effort: Effort, rate: Rate, max_hz: f64, points: usize, seed: u64) -> RunOutput {
        let exp = CfoSweep {
            rate,
            max_hz: wlan_units::Hz(max_hz),
            points,
        };
        exp.run(&RunContext::serial_reference(effort, seed))
    }

    #[test]
    fn spec_offset_tolerated_estimator_range_limits() {
        let effort = Effort {
            packets: 3,
            psdu_len: 60,
        };
        let out = run(effort, Rate::R12, 900e3, 4, 21);
        let ber = out.column("ber");
        // 0 and 300 kHz: clean. 900 kHz: beyond the ±625 kHz estimator
        // range → fails.
        assert_eq!(ber[0], 0.0, "zero offset");
        assert_eq!(ber[1], 0.0, "300 kHz (spec is 208 kHz)");
        assert!(ber[3] > 0.1, "900 kHz should break sync: {}", ber[3]);
        let tol = tolerance_khz(&out, 0.01).expect("some tolerance");
        assert!(tol >= 300.0, "tolerance {tol} kHz");
    }

    #[test]
    fn estimation_error_small_in_range() {
        // The estimation error is a table-only column; read it from the
        // point function the sweep runs.
        let effort = Effort {
            packets: 2,
            psdu_len: 60,
        };
        let rx = Receiver::new();
        for &cfo in Sweep::linspace(0.0, 200e3, 2).points() {
            let err = measure_point(effort, Rate::R24, &rx, cfo, 22).extras[0];
            assert!(err < 5e3, "CFO {cfo} est err {err}");
        }
        let out = run(effort, Rate::R24, 200e3, 2, 22);
        assert!(out.table().render().contains("frequency offset"));
    }

    #[test]
    fn parallel_sweep_matches_serial_and_is_thread_invariant() {
        // Both estimators run the same per-point function here, so the
        // sharded sweep must reproduce the serial one exactly.
        let effort = Effort {
            packets: 2,
            psdu_len: 60,
        };
        let exp = CfoSweep {
            rate: Rate::R12,
            max_hz: wlan_units::Hz(400e3),
            points: 3,
        };
        let serial = exp.run(&RunContext::serial_reference(effort, 23));
        for threads in [1, 2, 4] {
            let par = exp.run(&RunContext {
                engine: crate::experiments::Engine::with_threads(threads),
                serial: false,
                ..RunContext::serial_reference(effort, 23)
            });
            assert_eq!(serial.snapshot, par.snapshot, "{threads} threads");
            assert_eq!(serial.tables, par.tables, "{threads} threads");
        }
        assert_thread_invariant(&exp, effort, 23, 4);
    }
}
