//! The paper's evaluation, experiment by experiment.
//!
//! Every table and figure of the DATE 2003 paper maps to one module
//! here. Every module implements the [`Experiment`] trait and is
//! listed in the static [`registry`], so the whole suite is drivable
//! through one surface: the `wlansim` CLI in the `wlan-bench` crate
//! (`wlansim list` / `wlansim run <name>` / `wlansim all`). The eight
//! BER-vs-parameter sweeps (`fading`, `fig5`, `fig6`, `ip3`,
//! `noise_figure`, `level_sweep`, `blocking`, `cfo`) are declarations
//! of one link sweep (the crate-private `sweep` module).
//!
//! | Module | Paper item |
//! |---|---|
//! | [`table1`] | Table 1 — IEEE WLAN standards |
//! | [`fading`] | §3.1 — BER vs delay spread over the Rayleigh fading channel |
//! | [`fig3`] | Fig. 3 — the receiver as an SPW-style block schematic |
//! | [`fig4`] | Fig. 4 — OFDM signal and adjacent channel spectrum |
//! | [`fig5`] | Fig. 5 — BER vs channel-filter bandwidth (adjacent present) |
//! | [`fig6`] | Fig. 6 — BER vs LNA compression point (± adjacent) |
//! | [`table2`] | Table 2 — simulation time, system-level vs co-simulation |
//! | [`ip3`] | §5.1 — BER vs LNA IP3 |
//! | [`noise_figure`] | §5.1 — BER vs noise figure & the co-sim noise gap |
//! | [`evm`] | §5.2 — EVM measurement with the ideal receiver |
//! | [`rf_char`] | §4.2 — SpectreRF-style characterization of the RF blocks |
//! | [`level_sweep`] | §5.1 — BER across the −88…−23 dBm input range |
//! | [`blocking`] | §2.2 — adjacent/alternate channel rejection |
//! | [`cfo`] | receiver CFO tolerance vs the ±20 ppm spec |
//! | [`constellation`] | constellation capture (the SigCalc viewer workflow) |
//! | [`ber_snr`] | §5.1 — BER-vs-SNR baseline for all eight rates |

use crate::link::{LinkConfig, LinkReport, LinkSimulation, McRun};
use crate::report::Table;
use std::time::{Duration, Instant};
use wlan_exec::ThreadPool;
use wlan_meas::montecarlo::EarlyStop;
use wlan_phy::{OfdmProfile, IEEE_802_11A};

pub mod ber_snr;
pub mod blocking;
pub mod cfo;
pub mod constellation;
pub mod evm;
pub mod fading;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod ip3;
pub mod level_sweep;
pub mod noise_figure;
pub mod rf_char;
mod sweep;
pub mod table1;
pub mod table2;

/// Effort level shared by the Monte-Carlo experiments: packets simulated
/// per sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Packets per sweep point.
    pub packets: usize,
    /// PSDU length in bytes.
    pub psdu_len: usize,
}

impl Default for Effort {
    fn default() -> Self {
        Effort {
            packets: 10,
            psdu_len: 100,
        }
    }
}

impl Effort {
    /// A fast smoke-test effort (CI-friendly).
    pub fn quick() -> Self {
        Effort {
            packets: 2,
            psdu_len: 60,
        }
    }

    /// Reads the effort from the `WLANSIM_PACKETS` / `WLANSIM_PSDU`
    /// environment variables, falling back to the default.
    pub fn from_env() -> Self {
        let d = Effort::default();
        let packets = std::env::var("WLANSIM_PACKETS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(d.packets);
        let psdu_len = std::env::var("WLANSIM_PSDU")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(d.psdu_len);
        Effort { packets, psdu_len }
    }
}

/// Parallel execution engine for the Monte-Carlo sweep experiments.
///
/// Sweep points fan out across [`Engine::pool`] (via
/// [`wlan_dataflow::sweep::Sweep::run_parallel_indexed`]); within each
/// point the frame budget runs as a deterministic sharded schedule with
/// optional Wilson-interval early stopping. Results are bit-identical
/// for any thread count: every shard's RNG stream is a pure function of
/// `(master_seed, point_index, shard_index)`.
#[derive(Debug, Clone)]
pub struct Engine {
    /// Worker pool the sweep points are distributed over.
    pub pool: ThreadPool,
    /// Per-point Monte-Carlo schedule template (`point_index` is
    /// overwritten with the sweep index of each point).
    pub mc: McRun,
}

impl Engine {
    /// A single-worker engine running the full frame budget — the
    /// serial reference the parallel paths are compared against.
    pub fn serial() -> Self {
        Engine {
            pool: ThreadPool::serial(),
            mc: McRun::default(),
        }
    }

    /// An engine with `threads` workers and default schedule.
    pub fn with_threads(threads: usize) -> Self {
        Engine {
            pool: ThreadPool::new(threads),
            mc: McRun::default(),
        }
    }

    /// Engine from the environment: thread count from `WLANSIM_THREADS`
    /// (default: available parallelism), adaptive early stopping on
    /// unless `WLANSIM_EARLY_STOP=0`.
    pub fn from_env() -> Self {
        let early_stop = match std::env::var("WLANSIM_EARLY_STOP").as_deref() {
            Ok("0") => None,
            _ => Some(EarlyStop::default()),
        };
        Engine {
            pool: ThreadPool::from_env(),
            mc: McRun {
                early_stop,
                ..McRun::default()
            },
        }
    }

    /// Measures one sweep point: the sharded Monte-Carlo run of `cfg`
    /// at sweep index `point_index`.
    ///
    /// Frames run serially *within* the calling worker — the engine
    /// parallelizes across sweep points, so nesting stays bounded — but
    /// the sharded seed schedule makes the outcome identical to a
    /// frame-parallel run of the same point.
    pub fn measure(&self, cfg: LinkConfig, point_index: usize) -> LinkReport {
        let mc = McRun {
            point_index: point_index as u64,
            ..self.mc
        };
        LinkSimulation::new(cfg).run_parallel(&ThreadPool::serial(), &mc)
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::from_env()
    }
}

/// Everything a scenario needs to run, rolled into one context: the
/// Monte-Carlo effort, the master seed, the parallel [`Engine`], the
/// serial-vs-sharded estimator choice, and the [`TelemetrySink`] the
/// run manifest is assembled from.
///
/// `serial: true` selects the serial estimator (`LinkSimulation::run`,
/// one RNG stream per point) the pinned goldens were blessed with;
/// `serial: false` runs every point as the engine's sharded,
/// thread-invariant schedule. Either way the sweep points fan out
/// across the engine's pool, and [`RunContext::measure`] is where the
/// link sweeps choose between the two.
#[derive(Debug)]
pub struct RunContext {
    /// Packets / PSDU length per sweep point.
    pub effort: Effort,
    /// Master seed; every experiment derives its streams from it.
    pub seed: u64,
    /// OFDM numerology the profile-aware experiments (`ber_snr`, `ip3`,
    /// `blocking`) simulate under; the RF-characterization scenarios
    /// pinned to the paper's 20 MHz setup ignore it.
    pub profile: &'static OfdmProfile,
    /// Parallel execution engine (pool + Monte-Carlo schedule).
    pub engine: Engine,
    /// Use the legacy serial estimator instead of the sharded schedule.
    pub serial: bool,
    /// Accumulates one [`ExperimentTelemetry`] record per executed
    /// experiment (see [`execute`]).
    pub telemetry: TelemetrySink,
}

impl Default for RunContext {
    fn default() -> Self {
        RunContext {
            effort: Effort::default(),
            seed: 0,
            profile: &IEEE_802_11A,
            engine: Engine::default(),
            serial: false,
            telemetry: TelemetrySink::default(),
        }
    }
}

impl RunContext {
    /// The bit-reproducible reference context: quick or given effort,
    /// serial estimator, single-worker engine, no early stopping. This
    /// is what the pinned goldens run under.
    pub fn serial_reference(effort: Effort, seed: u64) -> Self {
        RunContext {
            effort,
            seed,
            engine: Engine::serial(),
            serial: true,
            ..RunContext::default()
        }
    }

    /// Context from the environment: `WLANSIM_PACKETS` / `WLANSIM_PSDU`
    /// effort, `WLANSIM_THREADS` workers, adaptive early stopping
    /// unless `WLANSIM_EARLY_STOP=0`, seed 42.
    pub fn from_env() -> Self {
        RunContext {
            effort: Effort::from_env(),
            seed: 42,
            engine: Engine::from_env(),
            serial: false,
            ..RunContext::default()
        }
    }

    /// Replaces the seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the OFDM profile (builder style).
    #[must_use]
    pub fn with_profile(mut self, profile: &'static OfdmProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Whether the engine's Monte-Carlo schedule has early stopping on.
    pub fn early_stop_enabled(&self) -> bool {
        self.engine.mc.early_stop.is_some()
    }

    /// Measures one sweep point: the link run of `cfg` at sweep index
    /// `point_index` under this context's estimator — the serial
    /// `LinkSimulation::run` when [`RunContext::serial`] is set, the
    /// engine's sharded schedule ([`Engine::measure`]) otherwise.
    pub fn measure(&self, cfg: LinkConfig, point_index: usize) -> LinkReport {
        if self.serial {
            LinkSimulation::new(cfg).run()
        } else {
            self.engine.measure(cfg, point_index)
        }
    }
}

/// Per-sweep-point statistics an experiment reports back through
/// [`RunOutput::points`]; everything is optional because not every
/// experiment is a timed Monte-Carlo sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointStat {
    /// Display label of the sweep parameter (e.g. `"-40"` dBm).
    pub label: String,
    /// Wall-clock time of the point, when measured.
    pub elapsed: Option<Duration>,
    /// Bits counted at the point, when the experiment meters BER.
    pub bits: Option<u64>,
}

impl PointStat {
    /// A label-only point (no timing, no counters).
    pub fn labeled(label: impl Into<String>) -> Self {
        PointStat {
            label: label.into(),
            ..PointStat::default()
        }
    }
}

/// The unified result surface every experiment renders into: one or
/// more tables (CSV-able), the flattened snapshot the golden-file
/// harness compares, per-point statistics for the run manifest, free
/// artifacts (DOT text, ASCII plots) and human notes.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    /// Rendered tables, in display order (most experiments have one).
    pub tables: Vec<Table>,
    /// Flattened `(field, value)` pairs for golden comparisons. Keys
    /// must be unique within one experiment.
    pub snapshot: Vec<(String, f64)>,
    /// Per-point statistics, parallel to the primary sweep.
    pub points: Vec<PointStat>,
    /// Named free-form artifacts, e.g. `("fig3.dot", …)`.
    pub artifacts: Vec<(String, String)>,
    /// Human-readable summary lines (the old binaries' trailing
    /// `println!`s).
    pub notes: Vec<String>,
}

impl RunOutput {
    /// Output consisting of a single table.
    pub fn from_table(table: Table) -> Self {
        RunOutput {
            tables: vec![table],
            ..RunOutput::default()
        }
    }

    /// The primary table.
    ///
    /// # Panics
    ///
    /// Panics if the experiment produced no table (none do).
    pub fn table(&self) -> &Table {
        self.tables.first().expect("experiment produced a table")
    }

    /// Appends a note line (builder style).
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// The per-point values of a sweep field — the snapshot's
    /// `points[NN].<key>` entries, in point order.
    pub fn column(&self, key: &str) -> Vec<f64> {
        self.snapshot
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix("points[")
                    .and_then(|rest| rest.split_once("]."))
                    .is_some_and(|(_, field)| field == key)
            })
            .map(|&(_, v)| v)
            .collect()
    }
}

/// A paper scenario runnable through the registry: every module in the
/// paper-mapping table above implements this, so adding a scenario is
/// one trait impl (plus a registry line) instead of a module + binary +
/// snapshot + CLI quadruple.
pub trait Experiment: Sync {
    /// Registry name (the `wlansim run <name>` argument); by
    /// convention the module name.
    fn name(&self) -> &'static str;
    /// The paper item this reproduces (e.g. `"Fig. 6"`, `"§5.1"`).
    fn paper_ref(&self) -> &'static str;
    /// One-line description for `wlansim list`.
    fn describe(&self) -> &'static str;
    /// Runs the scenario under the given context.
    fn run(&self, ctx: &RunContext) -> RunOutput;
    /// This scenario with `wlansim run --lo/--hi/--points` applied;
    /// `None` when it has no sweep bounds. An `Err` names the flag the
    /// sweep refuses.
    fn with_bounds(&self, _bounds: SweepBounds) -> Option<Result<Box<dyn Experiment>, String>> {
        None
    }
}

/// Telemetry of one executed experiment, recorded by [`execute`].
#[derive(Debug, Clone)]
pub struct ExperimentTelemetry {
    /// Registry name.
    pub name: &'static str,
    /// Paper item.
    pub paper_ref: &'static str,
    /// Effort the run used.
    pub effort: Effort,
    /// OFDM profile name the context carried.
    pub profile: &'static str,
    /// Master seed.
    pub seed: u64,
    /// Worker threads of the engine.
    pub threads: usize,
    /// Whether the legacy serial estimator ran.
    pub serial: bool,
    /// Whether adaptive early stopping was enabled.
    pub early_stop: bool,
    /// Wall-clock time of the whole experiment.
    pub wall: Duration,
    /// Per-point records.
    pub points: Vec<PointTelemetry>,
}

/// One sweep point in the run manifest.
#[derive(Debug, Clone)]
pub struct PointTelemetry {
    /// Sweep-parameter label.
    pub label: String,
    /// Wall-clock seconds, when the experiment timed its points.
    pub elapsed_s: Option<f64>,
    /// Bits counted, when the experiment meters BER.
    pub bits: Option<u64>,
    /// Packets simulated, derived from the bit count and PSDU length.
    pub packets: Option<u64>,
    /// Whether the point stopped before its configured frame budget
    /// (only meaningful when early stopping was enabled).
    pub early_stopped: Option<bool>,
}

/// Collects [`ExperimentTelemetry`] records across [`execute`] calls;
/// `wlansim` turns the sink into the JSON run manifest
/// (see [`crate::manifest`]).
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    /// Records in execution order.
    pub records: Vec<ExperimentTelemetry>,
}

/// Runs `exp` under `ctx`, recording wall time and per-point telemetry
/// into `ctx.telemetry`. This is the only entry point `wlansim` (and
/// the pinned-golden harness) uses, so every run leaves a manifest
/// trail.
pub fn execute(exp: &dyn Experiment, ctx: &mut RunContext) -> RunOutput {
    let started = Instant::now();
    let out = exp.run(ctx);
    let wall = started.elapsed();
    let psdu_bits = 8 * ctx.effort.psdu_len as u64;
    let budget = ctx.effort.packets as u64;
    let early_stop = ctx.early_stop_enabled();
    let points = out
        .points
        .iter()
        .map(|p| {
            let packets = p.bits.map(|b| b / psdu_bits.max(1));
            PointTelemetry {
                label: p.label.clone(),
                elapsed_s: p.elapsed.map(|e| e.as_secs_f64()),
                bits: p.bits,
                packets,
                early_stopped: if early_stop {
                    packets.map(|n| n < budget)
                } else {
                    None
                },
            }
        })
        .collect();
    ctx.telemetry.records.push(ExperimentTelemetry {
        name: exp.name(),
        paper_ref: exp.paper_ref(),
        effort: ctx.effort,
        profile: ctx.profile.name,
        seed: ctx.seed,
        threads: ctx.engine.pool.threads(),
        serial: ctx.serial,
        early_stop,
        wall,
        points,
    });
    out
}

/// The static experiment registry, in the order of the paper-mapping
/// table at the top of this module (plus the §4 design flow).
pub fn registry() -> &'static [&'static dyn Experiment] {
    static REGISTRY: &[&dyn Experiment] = &[
        &table1::Table1,
        &fading::FadingSweep::DEFAULT,
        &fig3::Fig3Schematic,
        &fig4::Fig4Spectrum,
        &fig5::Fig5Sweep::DEFAULT,
        &fig6::Fig6Sweep::DEFAULT,
        &table2::Table2Timing::DEFAULT,
        &ip3::Ip3Sweep::DEFAULT,
        &noise_figure::NfSweep::DEFAULT,
        &evm::EvmSweep::DEFAULT,
        &rf_char::RfChar,
        &level_sweep::LevelSweep::DEFAULT,
        &blocking::BlockingSweep::DEFAULT,
        &cfo::CfoSweep::DEFAULT,
        &constellation::ConstellationCapture,
        &ber_snr::BerSnrGrid::DEFAULT,
        &crate::flow::DesignFlowRun::DEFAULT,
    ];
    REGISTRY
}

/// Looks an experiment up by registry name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    registry().iter().copied().find(|e| e.name() == name)
}

/// Sweep-bounds overrides from `wlansim run --lo/--hi/--points`. The
/// raw CLI numbers are wrapped into each experiment's unit newtype
/// (dBm, dB or Hz) at construction, so an override enters the typed
/// sweep config exactly the way the defaults do.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepBounds {
    /// Sweep start override (`--lo`).
    pub lo: Option<f64>,
    /// Sweep end override (`--hi`).
    pub hi: Option<f64>,
    /// Point-count override (`--points`).
    pub points: Option<usize>,
}

impl SweepBounds {
    /// True when no override was given.
    pub fn is_empty(&self) -> bool {
        self.lo.is_none() && self.hi.is_none() && self.points.is_none()
    }
}

/// [`find`] plus bounds overrides: builds an owned instance of the
/// named sweep with `--lo` / `--hi` / `--points` applied through its
/// [`Experiment::with_bounds`], which parses the raw numbers into the
/// unit newtypes the sweep's fields carry (dBm for the level-style
/// sweeps, dB for blocking, Hz for cfo).
///
/// # Errors
///
/// A message naming the unsupported flag when the experiment has no
/// matching bound (e.g. `--lo` for the cfo sweep, which starts at 0),
/// or stating the experiment / its sweep bounds do not exist.
pub fn find_with_bounds(name: &str, b: SweepBounds) -> Result<Box<dyn Experiment>, String> {
    let exp = find(name).ok_or_else(|| format!("unknown experiment '{name}'"))?;
    exp.with_bounds(b).unwrap_or_else(|| {
        Err(format!(
            "experiment '{name}' has no sweep bounds (--lo/--hi/--points)"
        ))
    })
}

/// The `wlansim list` profile table: every OFDM numerology the
/// profile-aware experiments accept via `--profile`.
pub fn profiles_table() -> Table {
    let mut t = Table::new(
        "OFDM profiles (wlansim run <name> --profile <profile>)",
        &["profile", "fft", "cp", "rate [Msps]", "symbol [us]"],
    );
    for p in wlan_phy::ALL_PROFILES {
        t.push_row(vec![
            p.name.to_string(),
            p.fft_size.to_string(),
            p.cp_len.to_string(),
            format!("{:.0}", p.sample_rate / 1e6),
            format!("{:.1}", p.symbol_duration() * 1e6),
        ]);
    }
    t
}

/// The `wlansim list` table: every registered experiment with its
/// paper reference and description.
pub fn registry_table() -> Table {
    let mut t = Table::new(
        "Registered experiments (wlansim run <name>)",
        &["name", "paper", "description"],
    );
    for e in registry() {
        t.push_row(vec![
            e.name().to_string(),
            e.paper_ref().to_string(),
            e.describe().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_unique_and_findable() {
        let mut names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        assert!(!names.is_empty());
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry().len(), "duplicate registry name");
        for e in registry() {
            assert!(find(e.name()).is_some());
            assert!(!e.describe().is_empty());
            assert!(!e.paper_ref().is_empty());
        }
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn registry_table_lists_every_experiment() {
        let t = registry_table();
        assert_eq!(t.len(), registry().len());
        let text = t.render();
        for e in registry() {
            assert!(text.contains(e.name()), "{} missing from list", e.name());
        }
    }

    #[test]
    fn bounds_overrides_land_in_unit_newtypes() {
        let b = SweepBounds {
            lo: Some(-30.0),
            hi: Some(-10.0),
            points: Some(3),
        };
        assert!(!b.is_empty());
        assert!(SweepBounds::default().is_empty());
        // Overridden sweeps run and change the point count.
        let exp = find_with_bounds("ip3", b).unwrap();
        assert_eq!(exp.name(), "ip3");
        for name in ["level_sweep", "fig6", "blocking"] {
            assert!(find_with_bounds(name, b).is_ok(), "{name}");
        }
        // cfo: --hi is the max offset, --lo is rejected.
        assert!(find_with_bounds(
            "cfo",
            SweepBounds {
                hi: Some(500e3),
                points: Some(4),
                ..SweepBounds::default()
            }
        )
        .is_ok());
        assert!(find_with_bounds("cfo", b).is_err());
        // Bounds on a boundless experiment / unknown name.
        assert!(find_with_bounds("table1", b)
            .err()
            .unwrap()
            .contains("no sweep bounds"));
        assert!(find_with_bounds("nope", b)
            .err()
            .unwrap()
            .contains("unknown"));
    }

    #[test]
    fn execute_records_telemetry() {
        let mut ctx = RunContext::serial_reference(Effort::quick(), 3);
        let out = execute(find("table1").unwrap(), &mut ctx);
        assert_eq!(out.tables.len(), 1);
        assert_eq!(ctx.telemetry.records.len(), 1);
        let rec = &ctx.telemetry.records[0];
        assert_eq!(rec.name, "table1");
        assert_eq!(rec.threads, 1);
        assert!(rec.serial);
        assert!(!rec.early_stop);
    }
}
