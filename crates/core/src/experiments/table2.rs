//! Table 2 — "Comparison of simulation time": the pure system-level
//! (SPW-style baseband) run versus the mixed-signal co-simulation, for a
//! growing number of OFDM packets.
//!
//! The paper reports the co-simulation 30–40× slower; the exact ratio is
//! host-dependent, but it is structural (the analog engine RK4-integrates
//! every filter state at `analog_osr` sub-steps per RF sample), so the
//! ratio is far above 1 on any machine.

use crate::experiments::{Engine, Experiment, PointStat, RunContext, RunOutput};
use crate::link::{FrontEnd, LinkConfig, LinkReport, LinkSimulation, McRun};
use crate::report::Table;
use std::time::Duration;
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;

/// One row of the timing comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingRow {
    /// OFDM packets simulated.
    pub packets: usize,
    /// System-level (baseband) wall time.
    pub baseband: Duration,
    /// Co-simulation wall time.
    pub cosim: Duration,
}

impl TimingRow {
    /// Slowdown factor of the co-simulation.
    pub fn ratio(&self) -> f64 {
        self.cosim.as_secs_f64() / self.baseband.as_secs_f64().max(1e-9)
    }
}

/// The timing comparison result.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Rows in ascending packet count.
    pub rows: Vec<TimingRow>,
    /// Analog sub-steps per RF sample used for the co-simulation.
    pub analog_osr: usize,
}

impl Table2Result {
    /// Renders the comparison (paper Table 2 format plus the ratio).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Table 2: simulation time, system-level vs co-simulation (analog osr {})",
                self.analog_osr
            ),
            &["OFDM packets", "baseband [ms]", "co-sim [ms]", "ratio"],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.packets.to_string(),
                format!("{:.1}", r.baseband.as_secs_f64() * 1e3),
                format!("{:.1}", r.cosim.as_secs_f64() * 1e3),
                format!("{:.1}x", r.ratio()),
            ]);
        }
        t
    }
}

/// Registry entry: the Table 2 timing comparison. Wall-clock numbers
/// are host-dependent, so the snapshot only records the structural
/// quantities (packet counts and osr), not the timings.
#[derive(Debug, Clone, Copy)]
pub struct Table2Timing {
    /// Packet counts to time.
    pub packet_counts: &'static [usize],
    /// PSDU length (bytes).
    pub psdu_len: usize,
    /// Analog sub-steps per RF sample (`WLANSIM_ANALOG_OSR` overrides).
    pub analog_osr: usize,
}

impl Table2Timing {
    /// The default comparison: 1/5/10 packets, 100-byte PSDUs, osr 64.
    pub const DEFAULT: Table2Timing = Table2Timing {
        packet_counts: &[1, 5, 10],
        psdu_len: 100,
        analog_osr: 64,
    };
}

impl Default for Table2Timing {
    fn default() -> Self {
        Table2Timing::DEFAULT
    }
}

impl Experiment for Table2Timing {
    fn name(&self) -> &'static str {
        "table2"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 2"
    }

    fn describe(&self) -> &'static str {
        "Simulation time: system-level vs mixed-signal co-simulation"
    }

    fn run(&self, ctx: &RunContext) -> RunOutput {
        let osr = std::env::var("WLANSIM_ANALOG_OSR")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.analog_osr);
        let r = if ctx.serial {
            run(self.packet_counts, self.psdu_len, osr, ctx.seed)
        } else {
            run_parallel(
                self.packet_counts,
                self.psdu_len,
                osr,
                ctx.seed,
                &ctx.engine,
            )
        };
        let mut snapshot = vec![
            ("n_rows".to_string(), r.rows.len() as f64),
            ("analog_osr".to_string(), r.analog_osr as f64),
        ];
        for (i, row) in r.rows.iter().enumerate() {
            snapshot.push((format!("rows[{i:02}].packets"), row.packets as f64));
        }
        RunOutput {
            tables: vec![r.table()],
            snapshot,
            points: r
                .rows
                .iter()
                .map(|row| PointStat {
                    label: format!("{}pkt", row.packets),
                    elapsed: Some(row.baseband + row.cosim),
                    bits: None,
                })
                .collect(),
            ..RunOutput::default()
        }
        .with_note("paper reports 30-40x; the exact ratio is host-dependent")
    }
}

fn mode_config(front_end: FrontEnd, packets: usize, psdu_len: usize, seed: u64) -> LinkConfig {
    LinkConfig {
        rate: Rate::R24,
        psdu_len,
        packets,
        seed,
        rx_level_dbm: -50.0,
        front_end,
        ..LinkConfig::default()
    }
}

fn run_mode(front_end: FrontEnd, packets: usize, psdu_len: usize, seed: u64) -> Duration {
    LinkSimulation::new(mode_config(front_end, packets, psdu_len, seed))
        .run()
        .elapsed
}

/// [`run_mode`] on the engine pool: the packet budget runs as the
/// sharded, thread-invariant Monte-Carlo schedule. Timings shrink with
/// the worker count; the meters do not change.
fn run_mode_parallel(
    front_end: FrontEnd,
    packets: usize,
    psdu_len: usize,
    seed: u64,
    engine: &Engine,
) -> LinkReport {
    let mc = McRun {
        point_index: 0,
        ..engine.mc
    };
    LinkSimulation::new(mode_config(front_end, packets, psdu_len, seed))
        .run_parallel(&engine.pool, &mc)
}

/// Runs the comparison for the given packet counts.
///
/// `analog_osr` sets the co-simulation's sub-step count, the cost
/// driver of the ratio (EXPERIMENTS.md records the measured ratios).
pub fn run(packet_counts: &[usize], psdu_len: usize, analog_osr: usize, seed: u64) -> Table2Result {
    let rows = packet_counts
        .iter()
        .map(|&packets| {
            let cfg = RfConfig {
                noise_enabled: false, // match the noiseless co-sim
                ..RfConfig::default()
            };
            let baseband = run_mode(FrontEnd::RfBaseband(cfg), packets, psdu_len, seed);
            let cosim = run_mode(
                FrontEnd::RfCosim {
                    filter_edge_hz: 10e6,
                    analog_osr,
                    noise_workaround: false,
                },
                packets,
                psdu_len,
                seed,
            );
            TimingRow {
                packets,
                baseband,
                cosim,
            }
        })
        .collect();
    Table2Result { rows, analog_osr }
}

/// [`run`] with the frame budget of every timed run sharded across the
/// engine's pool. The wall-clock ratios stay structural (both modes
/// parallelize the same way); only absolute times shrink.
pub fn run_parallel(
    packet_counts: &[usize],
    psdu_len: usize,
    analog_osr: usize,
    seed: u64,
    engine: &Engine,
) -> Table2Result {
    let rows = packet_counts
        .iter()
        .map(|&packets| {
            let cfg = RfConfig {
                noise_enabled: false, // match the noiseless co-sim
                ..RfConfig::default()
            };
            let baseband =
                run_mode_parallel(FrontEnd::RfBaseband(cfg), packets, psdu_len, seed, engine)
                    .elapsed;
            let cosim = run_mode_parallel(
                FrontEnd::RfCosim {
                    filter_edge_hz: 10e6,
                    analog_osr,
                    noise_workaround: false,
                },
                packets,
                psdu_len,
                seed,
                engine,
            )
            .elapsed;
            TimingRow {
                packets,
                baseband,
                cosim,
            }
        })
        .collect();
    Table2Result { rows, analog_osr }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The wall-clock assertions live in `tests/table2_timing.rs`, a
    // binary of their own, so no concurrent test skews their timings.

    #[test]
    fn parallel_meters_are_thread_invariant() {
        // Timings are host-dependent; the invariant the parallel path
        // must hold is that the metered link outcome of every timed run
        // is identical for any worker count.
        let cfg = RfConfig {
            noise_enabled: false,
            ..RfConfig::default()
        };
        let base = run_mode_parallel(FrontEnd::RfBaseband(cfg), 4, 60, 9, &Engine::serial());
        for threads in [2, 4] {
            let r = run_mode_parallel(
                FrontEnd::RfBaseband(cfg),
                4,
                60,
                9,
                &Engine::with_threads(threads),
            );
            assert_eq!(r.meter, base.meter, "{threads} threads");
            assert_eq!(r.decoded_packets, base.decoded_packets);
            assert_eq!(r.evm_db, base.evm_db);
            assert_eq!(r.packets, base.packets);
        }
    }
}
