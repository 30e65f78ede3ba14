//! The five workloads: their inputs (a pure function of `--seed`), the
//! untraced timed pass that gives the end-to-end metrics, and the
//! traced pass that gives the per-layer ones.

use crate::timing::{setup_seconds, timed_units, Mix, Unit};
use crate::trace::{Counts, Layer, Replay, Span, Tracer, NO_PACKET, STAGES_PER_PACKET};
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};
use wlan_dataflow::sweep::Sweep;
use wlan_exec::{split_seed, ThreadPool};
use wlan_meas::BerMeter;
use wlan_phy::{Rate, ALL_PROFILES, IEEE_802_11A};
use wlan_rf::receiver::RfConfig;
use wlan_sim::experiments::blocking::BlockingSweep;
use wlan_sim::experiments::{execute, find, Effort, Engine, RunContext, TelemetrySink};
use wlan_sim::link::{
    AdjacentChannel, FrontEnd, LinkConfig, LinkReport, LinkSimulation, ShardReport,
};
use wlan_sim::serve::{FeedError, ServeConfig, SessionEngine};

/// Distinct bursts, each with its own seed, that a link workload's
/// timed units cycle through, so that one unlucky burst does not set a
/// seed's figures. Its untimed `run_batched` check and its traced
/// replay simulate as many bursts' packets as one serial run.
const BURSTS: usize = 16;

/// Concurrent sessions of `serve_mix`.
const SESSIONS: usize = 64;
/// Engine workers of `serve_mix`; every other workload is single-threaded.
const SERVE_WORKERS: usize = 2;
/// Untimed warm-up packets per session.
const WARM_PACKETS: usize = 8;
/// Packets per session fed before each timed drive: 16 chunks per
/// session, 1024 per drive, so each drive's p99 has ten chunks beyond it.
const ROUND_PACKETS: usize = 64;
const SERVE: ServeConfig = ServeConfig {
    max_sessions: SESSIONS,
    chunk_packets: 4,
    ring_chunks: 4,
};
/// Timed drives admission budgets for. A drive takes about 0.55 s on
/// the baseline machine, so 64 cover a 20-second run on hosts up to
/// 1.7 times faster (a faster host stops after 64 drives); the budget,
/// and with it the admission cost, does not depend on `--seconds`.
const MAX_DRIVES: usize = 64;
/// Packets per configuration in the traced replay of `serve_mix`.
const SERVE_REPLAY_PACKETS: usize = 48;

/// Monte-Carlo effort of `sweep_blocking`: one packet per series and
/// point, so a point takes about 20 ms and a 20-second run times some
/// thousand points, enough for a p99 with ten beyond it.
const SWEEP_EFFORT: Effort = Effort {
    packets: 1,
    psdu_len: 100,
};
/// Packets per series the traced replay of the middle sweep point runs.
const SWEEP_REPLAY_PACKETS: usize = 8;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IdealPhy,
    RfAdjacent,
    Cosim,
    ServeMix,
    SweepBlocking,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::IdealPhy,
        Workload::RfAdjacent,
        Workload::Cosim,
        Workload::ServeMix,
        Workload::SweepBlocking,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IdealPhy => "ideal_phy",
            Workload::RfAdjacent => "rf_adjacent",
            Workload::Cosim => "cosim",
            Workload::ServeMix => "serve_mix",
            Workload::SweepBlocking => "sweep_blocking",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the workload runs on (the collector thread of the
    /// session engine, which only drains rings, not counted).
    pub fn threads(self) -> usize {
        if self == Workload::ServeMix {
            SERVE_WORKERS
        } else {
            1
        }
    }

    /// What the workload spends its host time on, for the calibration.
    /// `cosim`'s analog weight is its traced `ams.cosim.share`. The RF
    /// chain's filters and compression slow down between the two
    /// kernels: over the half-second blocks of ten 20-second runs per
    /// workload on the baseline machine, the RF workloads' scaled rate
    /// still fell as host slowness rose with their `rf.chain.share`
    /// (0.72) as weight (log-log slope 1.2–1.3) and rose with weight 0
    /// (0.7–0.8); with weight 0.25 it was flat (0.84–0.98).
    pub fn mix(self) -> Mix {
        let analog = match self {
            Workload::IdealPhy | Workload::ServeMix => 0.0,
            Workload::RfAdjacent | Workload::SweepBlocking => 0.25,
            Workload::Cosim => 0.92,
        };
        Mix {
            analog,
            threads: self.threads(),
        }
    }

    /// The workload's master seed: its own `split_seed` stream of
    /// `--seed`.
    fn seed(self, seed: u64) -> u64 {
        split_seed(seed, self as u64, 0)
    }
}

/// The configuration of a link workload's timed unit: one `run` of a
/// burst of 2–7 ms on the baseline machine (4, 1 and 1 packets), so a
/// 20-second run times thousands of bursts and their p99 has dozens
/// beyond it.
pub fn link_config(w: Workload, seed: u64) -> LinkConfig {
    let seed = w.seed(seed);
    match w {
        Workload::IdealPhy => LinkConfig {
            rate: Rate::R36,
            psdu_len: 300,
            packets: 4,
            seed,
            snr_db: Some(18.0),
            ..LinkConfig::default()
        },
        Workload::RfAdjacent => LinkConfig {
            rate: Rate::R24,
            psdu_len: 100,
            packets: 1,
            seed,
            rx_level_dbm: -60.0,
            adjacent: Some(AdjacentChannel::first()),
            front_end: FrontEnd::RfBaseband(RfConfig::default()),
            osr: 4,
            ..LinkConfig::default()
        },
        Workload::Cosim => LinkConfig {
            rate: Rate::R24,
            psdu_len: 100,
            packets: 1,
            seed,
            rx_level_dbm: -50.0,
            front_end: FrontEnd::default_cosim(),
            osr: 4,
            ..LinkConfig::default()
        },
        Workload::ServeMix | Workload::SweepBlocking => {
            panic!("{} is not a link workload", w.name())
        }
    }
}

/// The bursts a link workload's timed units cycle through, each with
/// its own seed.
fn burst_configs(w: Workload, seed: u64) -> Vec<LinkConfig> {
    let base = link_config(w, seed);
    (0..BURSTS)
        .map(|k| LinkConfig {
            seed: split_seed(base.seed, 1, k as u64),
            ..base.clone()
        })
        .collect()
}

/// As many packets as [`BURSTS`] bursts of a link workload, as one
/// serial run.
fn check_config(w: Workload, seed: u64) -> LinkConfig {
    let cfg = link_config(w, seed);
    LinkConfig {
        packets: cfg.packets * BURSTS,
        ..cfg
    }
}

/// The `serve_mix` sessions, each carrying its warm-up traffic: rates
/// {6, 24, 54} Mbit/s × the three OFDM profiles, SNR 16–19 dB.
pub fn session_configs(seed: u64) -> Vec<LinkConfig> {
    let seed = Workload::ServeMix.seed(seed);
    (0..SESSIONS)
        .map(|s| LinkConfig {
            profile: ALL_PROFILES[(s / 3) % 3],
            rate: [Rate::R6, Rate::R24, Rate::R54][s % 3],
            psdu_len: 60,
            packets: WARM_PACKETS,
            seed: split_seed(seed, 1, s as u64),
            snr_db: Some(16.0 + (s % 4) as f64),
            ..LinkConfig::default()
        })
        .collect()
}

/// The run context of `sweep_blocking`: sharded estimator on a
/// one-worker engine, no early stopping.
pub fn sweep_context(seed: u64, effort: Effort) -> RunContext {
    RunContext {
        effort,
        seed: Workload::SweepBlocking.seed(seed),
        profile: &IEEE_802_11A,
        engine: Engine::serial(),
        serial: false,
        telemetry: TelemetrySink::default(),
    }
}

/// Index of the blocking sweep point the traced pass replays.
pub const SWEEP_MID: usize = BlockingSweep::DEFAULT.points / 2;

/// The adjacent- and alternate-channel configurations the blocking
/// experiment measures at its middle point, rebuilt from its public
/// definition (a unit test checks them against `execute`).
pub fn sweep_mid_configs(seed: u64, effort: Effort) -> [LinkConfig; 2] {
    let b = BlockingSweep::DEFAULT;
    let rel_db = Sweep::linspace(b.lo_db.0, b.hi_db.0, b.points).points()[SWEEP_MID];
    let seed = Workload::SweepBlocking.seed(seed);
    let spacing = IEEE_802_11A.sample_rate;
    let point = |offset_hz: f64, seed: u64| LinkConfig {
        profile: &IEEE_802_11A,
        rate: b.rate,
        psdu_len: effort.psdu_len,
        packets: effort.packets,
        seed,
        rx_level_dbm: -60.0,
        adjacent: Some(AdjacentChannel { offset_hz, rel_db }),
        front_end: FrontEnd::RfBaseband(RfConfig::default()),
        osr: 8,
        ..LinkConfig::default()
    };
    [
        point(spacing, seed),
        point(2.0 * spacing, seed.wrapping_add(7)),
    ]
}

/// Every link configuration a workload hands the program for `seed`.
#[cfg(test)]
pub fn inputs(w: Workload, seed: u64) -> Vec<LinkConfig> {
    match w {
        Workload::ServeMix => session_configs(seed),
        Workload::SweepBlocking => sweep_mid_configs(seed, SWEEP_EFFORT).to_vec(),
        _ => burst_configs(w, seed),
    }
}

/// What one pass measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: simulated packets, admissions and checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Context printed next to the metrics: sizes, thread counts and
    /// the simulated statistics.
    pub notes: Vec<String>,
    /// The last traced round's spans (traced pass only).
    pub spans: Vec<Span>,
}

impl Outcome {
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {what}"));
        }
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The simulated statistics a speed-only change must leave
    /// bit-identical.
    fn simulated(&mut self, what: &str, r: &LinkReport) {
        let evm = r.evm_db.unwrap_or(f64::NAN);
        self.note(format!(
            "{what}: ber {:e} per {:e} decoded {}/{} evm_db {evm} (bits {:#018x})",
            r.ber(),
            r.per(),
            r.decoded_packets,
            r.packets,
            evm.to_bits()
        ));
    }

    /// The end-to-end metrics of an untraced pass, once its timed units
    /// and checks are over, and a note with the same figures as
    /// measured. `latency_ms` gives `latency_p99_ms` at nominal host
    /// speed when called with `true`, as measured with `false`; `build`
    /// constructs the workload's state for `setup_s`, calibrated for
    /// `mix`. Peak RSS is read before the set-up samples run:
    /// constructing the state dozens of times over leaves the allocator
    /// holding far more memory than one construction does (123 MiB
    /// against 35 MiB on `serve_mix`).
    fn end_to_end(
        &mut self,
        units: &[Unit],
        mix: Mix,
        latency_ms: impl Fn(bool) -> f64,
        build: impl FnMut(),
    ) {
        let packets_per_s = |nominal: bool| {
            let rates: Vec<f64> = units
                .iter()
                .map(|u| u.packets as f64 / u.time(u.raw_s, nominal))
                .collect();
            median(&rates)
        };
        let peak_rss_mb = peak_rss_mib();
        let (setup_s, raw_setup_s) = setup_seconds(mix, build);
        self.metrics.push(("packets_per_s", packets_per_s(true)));
        self.metrics.push(("latency_p99_ms", latency_ms(true)));
        self.metrics.push(("setup_s", setup_s));
        self.metrics.push(("peak_rss_mb", peak_rss_mb));
        let slowness: Vec<f64> = units.iter().map(|u| u.slowness).collect();
        self.note(format!(
            "as measured, at host slowness {:.4}: packets_per_s {} latency_p99_ms {} setup_s {}",
            median(&slowness),
            packets_per_s(false),
            latency_ms(false),
            raw_setup_s
        ));
    }
}

/// VmHWM of this process in MiB; NaN, which fails the pass, when
/// `/proc/self/status` does not give it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().strip_suffix("kB"))
                .and_then(|kb| kb.trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bit-exact report comparison (wall time excluded).
pub fn same_run(a: &LinkReport, b: &LinkReport) -> bool {
    a.meter == b.meter
        && a.decoded_packets == b.decoded_packets
        && a.packets == b.packets
        && a.evm_db.map(f64::to_bits) == b.evm_db.map(f64::to_bits)
}

fn same_shard(a: &ShardReport, b: &ShardReport) -> bool {
    a.meter == b.meter
        && a.decoded_packets == b.decoded_packets
        && a.packets == b.packets
        && a.evm_sum_db.to_bits() == b.evm_sum_db.to_bits()
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile (the session engine's definition).
fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() - 1) as f64 * p).round() as usize]
}

/// Untimed checks, timed units until `seconds` have passed, then the
/// set-up samples.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Outcome {
    match w {
        Workload::ServeMix => run_serve(seed, seconds),
        Workload::SweepBlocking => run_sweep(seed, seconds),
        _ => run_link(w, seed, seconds),
    }
}

/// Serial `LinkSimulation::run` of one burst, cycling through the
/// workload's bursts.
fn run_link(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let bursts = burst_configs(w, seed);
    let burst_packets = bursts[0].packets;
    let mut out = Outcome::default();
    let check = LinkSimulation::new(check_config(w, seed));
    out.check(
        &format!(
            "run_batched(8) == run() over {} packets",
            check.config().packets
        ),
        same_run(&check.run_batched(8), &check.run()),
    );

    let sims: Vec<LinkSimulation> = bursts.into_iter().map(LinkSimulation::new).collect();
    let mut firsts: Vec<LinkReport> = Vec::with_capacity(BURSTS);
    let mut next = 0;
    let units = timed_units(
        &mut out,
        w.mix(),
        seconds,
        usize::MAX,
        || {
            let k = next % BURSTS;
            next += 1;
            (k, sims[k].run())
        },
        |out, (k, r)| {
            match firsts.get(k) {
                Some(f) => out.check("every burst reproduces its first run", same_run(&r, f)),
                None => firsts.push(r),
            }
            burst_packets as u64
        },
    );
    let burst_ms = |nominal: bool| -> Vec<f64> {
        units
            .iter()
            .map(|u| u.time(u.raw_s, nominal) * 1e3)
            .collect()
    };
    // Set-up is a 1-packet run: filter design, netlist elaboration and
    // the worst-case receive reserve.
    let one = LinkConfig {
        packets: 1,
        ..sims[0].config().clone()
    };
    out.end_to_end(
        &units,
        w.mix(),
        |nominal| percentile(&burst_ms(nominal), 0.99),
        || {
            black_box(LinkSimulation::new(one.clone()).run());
        },
    );
    out.note(format!(
        "{} timed runs cycling through {BURSTS} bursts of {burst_packets} packets, 1 thread; \
         burst p50 {:.4} ms",
        units.len(),
        median(&burst_ms(true)),
    ));
    out.simulated(&format!("{BURSTS} bursts"), &merged(&firsts));
    out
}

/// One report over the packets of several.
fn merged(reports: &[LinkReport]) -> LinkReport {
    let mut meter = BerMeter::new();
    let (mut packets, mut decoded, mut evm_sum) = (0, 0, 0.0);
    for r in reports {
        meter.merge(&r.meter);
        packets += r.packets;
        decoded += r.decoded_packets;
        evm_sum += r.evm_db.unwrap_or(0.0) * r.decoded_packets as f64;
    }
    LinkReport {
        packets,
        decoded_packets: decoded,
        meter,
        evm_db: (decoded > 0).then(|| evm_sum / decoded as f64),
        elapsed: Duration::ZERO,
    }
}

/// A fresh engine with every session admitted; returns it with the
/// number of refused admissions.
fn admit_all(sessions: &[LinkConfig], budget: usize) -> (SessionEngine, usize) {
    let mut eng = SessionEngine::new(SERVE);
    let refused = sessions
        .iter()
        .filter(|s| eng.admit((*s).clone(), budget).is_err())
        .count();
    (eng, refused)
}

/// Closed loop: every session's round budget is fed up front, then one
/// two-worker `drive` serves it; repeated until `seconds` have passed.
fn run_serve(seed: u64, seconds: f64) -> Outcome {
    let sessions = session_configs(seed);
    let budget = WARM_PACKETS + MAX_DRIVES * ROUND_PACKETS;
    let mut out = Outcome::default();
    let pool = ThreadPool::new(SERVE_WORKERS);
    let (mut eng, refused) = admit_all(&sessions, budget);
    out.attempted += SESSIONS as u64;
    out.failed += refused as u64;
    if refused > 0 {
        out.note(format!("FAILED: {refused} admissions refused"));
        return out;
    }
    let t = Instant::now();
    let warm = eng.drive(&pool);
    let warm_s = t.elapsed().as_secs_f64();
    out.check(
        "warm-up drive served every session",
        warm.sessions == SESSIONS && warm.packets == (SESSIONS * WARM_PACKETS) as u64,
    );

    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let (mut chunks, mut parks) = (0, 0);
    let units = timed_units(
        &mut out,
        Workload::ServeMix.mix(),
        seconds,
        MAX_DRIVES,
        || -> Result<_, FeedError> {
            eng.feed_all(ROUND_PACKETS)?;
            Ok(eng.drive(&pool))
        },
        |out, drive| {
            let st = match drive {
                Ok(st) => st,
                Err(e) => {
                    out.check(&format!("feed: {e}"), false);
                    p50.push(f64::NAN);
                    p99.push(f64::NAN);
                    return 0;
                }
            };
            out.check(
                "every fed packet was served",
                st.packets == (SESSIONS * ROUND_PACKETS) as u64,
            );
            p50.push(st.service_p50.as_secs_f64() * 1e3);
            p99.push(st.service_p99.as_secs_f64() * 1e3);
            chunks = st.chunks;
            parks += st.parks;
            st.packets
        },
    );

    let total = WARM_PACKETS + units.len() * ROUND_PACKETS;
    let reports: Vec<LinkReport> = (0..SESSIONS).map(|s| eng.report(s)).collect();
    for (s, (got, cfg)) in reports.iter().zip(&sessions).enumerate().step_by(8) {
        let want = LinkSimulation::new(LinkConfig {
            packets: total,
            ..cfg.clone()
        })
        .run();
        out.check(
            &format!("session {s} == serial run() over {total} packets"),
            same_run(got, &want),
        );
    }

    drop(eng);
    // Median over the drives of each drive's chunk percentile.
    let chunk_ms = |per_drive: &[f64], nominal: bool| {
        let v: Vec<f64> = units
            .iter()
            .zip(per_drive)
            .map(|(u, &ms)| u.time(ms, nominal))
            .collect();
        median(&v)
    };
    out.end_to_end(
        &units,
        Workload::ServeMix.mix(),
        |nominal| chunk_ms(&p99, nominal),
        || {
            black_box(admit_all(&sessions, budget));
        },
    );
    out.note(format!(
        "{} drives of {SESSIONS} sessions × {ROUND_PACKETS} packets, {SERVE_WORKERS} workers",
        units.len()
    ));
    out.note(format!(
        "chunk service p50 {:.4} ms, p99 {:.4} ms (medians over {} drives of {chunks} chunks each), {parks} parks",
        chunk_ms(&p50, true),
        chunk_ms(&p99, true),
        units.len()
    ));
    out.note(format!("warm-up drive {warm_s:.4} s"));
    out.simulated("all sessions", &merged(&reports));
    out
}

/// `execute` of the registry's `blocking` experiment, repeated.
fn run_sweep(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let exp = find("blocking").expect("blocking is registered");
    let mut ctx = sweep_context(seed, SWEEP_EFFORT);
    let psdu_bits = 8 * SWEEP_EFFORT.psdu_len as u64;
    let mut point_ms = Vec::new();
    let mut first: Option<Vec<(String, f64)>> = None;
    let units = timed_units(
        &mut out,
        Workload::SweepBlocking.mix(),
        seconds,
        usize::MAX,
        || {
            ctx.telemetry.records.clear();
            execute(exp, &mut ctx)
        },
        |out, run| {
            point_ms.push(
                run.points
                    .iter()
                    .filter_map(|p| p.elapsed)
                    .map(|e| e.as_secs_f64() * 1e3)
                    .collect::<Vec<f64>>(),
            );
            out.check(
                "every point counted 8 · psdu · packets bits",
                run.points
                    .iter()
                    .all(|p| p.bits == Some(psdu_bits * SWEEP_EFFORT.packets as u64)),
            );
            out.check(
                "every BER is finite",
                run.snapshot
                    .iter()
                    .filter(|(k, _)| k.contains("ber"))
                    .all(|(_, v)| v.is_finite()),
            );
            // Two series (adjacent and alternate) of `packets` per point.
            let packets = (2 * run.points.len() * SWEEP_EFFORT.packets) as u64;
            match &first {
                Some(f) => out.check(
                    "every execute reproduces the first",
                    f.len() == run.snapshot.len()
                        && f.iter()
                            .zip(&run.snapshot)
                            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()),
                ),
                None => first = Some(run.snapshot),
            }
            packets
        },
    );
    let first = first.expect("at least one execute");
    // The lookup and the context alone take well under a microsecond,
    // too little to time steadily; set-up therefore runs to the first
    // result, one 1-packet shard (osr-8 front-end construction plus one
    // packet), like the 1-packet run of the link workloads.
    let [first_cfg, _] = sweep_mid_configs(seed, SWEEP_EFFORT);
    let points_ms = |nominal: bool| -> Vec<f64> {
        units
            .iter()
            .zip(&point_ms)
            .flat_map(|(u, points)| points.iter().map(move |&ms| u.time(ms, nominal)))
            .collect()
    };
    out.end_to_end(
        &units,
        Workload::SweepBlocking.mix(),
        |nominal| percentile(&points_ms(nominal), 0.99),
        || {
            black_box((find("blocking"), sweep_context(seed, SWEEP_EFFORT)));
            let sim = LinkSimulation::new(first_cfg.clone());
            black_box(sim.run_shard(0, 1, shard_seed(&first_cfg, SWEEP_MID as u64, 0)));
        },
    );
    out.note(format!(
        "{} executes of {} packets (1-packet shards), 1 thread; sweep point p50 {:.4} ms over {} points",
        units.len(),
        2 * BlockingSweep::DEFAULT.points * SWEEP_EFFORT.packets,
        median(&points_ms(true)),
        points_ms(true).len()
    ));
    for series in ["ber_adjacent", "ber_alternate"] {
        let bers: Vec<String> = first
            .iter()
            .filter(|(k, _)| k.ends_with(series))
            .map(|(_, v)| format!("{v:e}"))
            .collect();
        out.note(format!("{series}: {}", bers.join(" ")));
    }
    out
}

/// One unit of replayed work: a serial run of `cfg`, or — with `point`
/// set — each of its packets as a 1-packet Monte-Carlo shard of that
/// sweep point, exactly as the sharded estimator schedules them.
struct Job {
    cfg: LinkConfig,
    point: Option<u64>,
}

enum JobReport {
    Run(LinkReport),
    Shards(Vec<ShardReport>),
}

fn same_job(a: &JobReport, b: &JobReport) -> bool {
    match (a, b) {
        (JobReport::Run(a), JobReport::Run(b)) => same_run(a, b),
        (JobReport::Shards(a), JobReport::Shards(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same_shard(a, b))
        }
        _ => false,
    }
}

fn shard_seed(cfg: &LinkConfig, point: u64, shard: usize) -> u64 {
    split_seed(cfg.seed, point, shard as u64)
}

/// The program's own path for a job.
fn untraced(job: &Job) -> JobReport {
    let sim = LinkSimulation::new(job.cfg.clone());
    match job.point {
        None => JobReport::Run(sim.run()),
        Some(p) => JobReport::Shards(
            (0..job.cfg.packets)
                .map(|k| sim.run_shard(k, 1, shard_seed(&job.cfg, p, k)))
                .collect(),
        ),
    }
}

/// The replay of a job, one root span per packet. A serial run builds
/// its front end once, outside any packet; a shard builds it inside its
/// packet, as `run_shard` does.
fn traced(job: &Job, tr: &mut Tracer, counts: &mut Counts, next_id: &mut u32) -> JobReport {
    let cfg = &job.cfg;
    let mut root = || {
        *next_id += 1;
        *next_id - 1
    };
    match job.point {
        None => {
            let mut rp = Replay::new(cfg, cfg.seed, tr, NO_PACKET);
            for k in 0..cfg.packets {
                let id = root();
                let t = tr.now();
                rp.packet(k, tr, id);
                tr.record(id, Layer::Packet, t);
            }
            counts.add(&rp.counts);
            JobReport::Run(rp.link_report())
        }
        Some(p) => JobReport::Shards(
            (0..cfg.packets)
                .map(|k| {
                    let id = root();
                    let t = tr.now();
                    let mut rp = Replay::new(cfg, shard_seed(cfg, p, k), tr, id);
                    rp.packet(k, tr, id);
                    tr.record(id, Layer::Packet, t);
                    counts.add(&rp.counts);
                    rp.shard_report()
                })
                .collect(),
        ),
    }
}

/// What the traced pass replays: [`BURSTS`] bursts' packets of a link
/// workload as one serial run; the first nine `serve_mix` sessions, one
/// per rate × profile pair, since spans inside the engine are not
/// available from outside it; the middle point of `sweep_blocking` as
/// 1-packet shards.
fn trace_jobs(w: Workload, seed: u64) -> Vec<Job> {
    match w {
        Workload::ServeMix => session_configs(seed)
            .into_iter()
            .take(9)
            .map(|cfg| Job {
                cfg: LinkConfig {
                    packets: SERVE_REPLAY_PACKETS,
                    ..cfg
                },
                point: None,
            })
            .collect(),
        Workload::SweepBlocking => {
            let effort = Effort {
                packets: SWEEP_REPLAY_PACKETS,
                ..SWEEP_EFFORT
            };
            sweep_mid_configs(seed, effort)
                .into_iter()
                .map(|cfg| Job {
                    cfg,
                    point: Some(SWEEP_MID as u64),
                })
                .collect()
        }
        _ => vec![Job {
            cfg: check_config(w, seed),
            point: None,
        }],
    }
}

/// Per-layer totals over every traced round.
#[derive(Debug, Default)]
struct Ledger {
    /// Child-span nanoseconds inside packets, by `Layer as usize`.
    layer_ns: [u64; Layer::COUNT],
    root_ns: u64,
    /// Root-span durations (µs), one per packet.
    packet_us: Vec<f64>,
    /// Every front-end construction (µs), inside a packet or not.
    setup_us: Vec<f64>,
    counts: Counts,
    /// Traced ÷ untraced packets/s, one per round pair.
    speed: Vec<f64>,
}

impl Ledger {
    fn absorb(&mut self, spans: &[Span]) {
        for s in spans {
            match s.layer {
                Layer::Packet => {
                    self.root_ns += s.ns();
                    self.packet_us.push(s.ns() as f64 / 1e3);
                }
                layer => {
                    if layer == Layer::Setup {
                        self.setup_us.push(s.ns() as f64 / 1e3);
                    }
                    if s.packet != NO_PACKET {
                        self.layer_ns[layer as usize] += s.ns();
                    }
                }
            }
        }
    }

    fn coverage(&self) -> f64 {
        self.layer_ns.iter().sum::<u64>() as f64 / self.root_ns as f64
    }

    fn overhead(&self) -> f64 {
        1.0 - median(&self.speed)
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let packets = self.packet_us.len() as f64;
        let per_packet = |l: Layer| self.layer_ns[l as usize] as f64 / 1e3 / packets;
        let share = |l: Layer| self.layer_ns[l as usize] as f64 / self.root_ns as f64;
        let per_sample = |l: Layer, n: u64| self.layer_ns[l as usize] as f64 / n as f64;
        let c = &self.counts;
        vec![
            ("phy.tx.us_per_packet", per_packet(Layer::Tx)),
            ("phy.tx.share", share(Layer::Tx)),
            ("channel.scene.us_per_packet", per_packet(Layer::Scene)),
            ("channel.scene.share", share(Layer::Scene)),
            ("channel.awgn.us_per_packet", per_packet(Layer::Awgn)),
            ("channel.awgn.share", share(Layer::Awgn)),
            ("rf.chain.us_per_packet", per_packet(Layer::Rf)),
            ("rf.chain.share", share(Layer::Rf)),
            (
                "rf.chain.ns_per_sample",
                per_sample(Layer::Rf, c.fe_samples),
            ),
            ("rf.chain.bytes_per_packet", c.rf_bytes as f64 / packets),
            ("ams.cosim.us_per_packet", per_packet(Layer::Ams)),
            ("ams.cosim.share", share(Layer::Ams)),
            (
                "ams.cosim.ns_per_sample",
                per_sample(Layer::Ams, c.fe_samples),
            ),
            ("phy.rx.us_per_packet", per_packet(Layer::Rx)),
            ("phy.rx.share", share(Layer::Rx)),
            ("phy.rx.ns_per_sample", per_sample(Layer::Rx, c.rx_samples)),
            ("phy.rx.decode_ratio", c.decoded as f64 / c.packets as f64),
            ("meas.ber.us_per_packet", per_packet(Layer::Ber)),
            ("sim.packet.us_p50", median(&self.packet_us)),
            ("sim.packet.us_p99", percentile(&self.packet_us, 0.99)),
            ("sim.packet.traced", packets),
            ("sim.setup.us", median(&self.setup_us)),
            ("sim.setup.share", share(Layer::Setup)),
            ("sim.trace.coverage", self.coverage()),
            ("sim.trace.overhead", self.overhead()),
        ]
    }
}

/// Replays the workload's traced jobs into a preallocated span log,
/// alternating with the program's own untraced path on the same jobs,
/// until `seconds` have passed.
pub fn trace(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let jobs = trace_jobs(w, seed);
    let packets: usize = jobs.iter().map(|j| j.cfg.packets).sum();
    // One root, seven stages and (for shards) one set-up span per packet.
    let mut tr = Tracer::with_capacity(packets * (STAGES_PER_PACKET + 2) + jobs.len());
    let mut ledger = Ledger::default();
    let mut out = Outcome::default();
    let started = Instant::now();
    loop {
        // Alternate which side of the pair runs first.
        let traced_first = ledger.speed.len() % 2 == 1;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let (mut traced_s, mut untraced_s) = (0.0, 0.0);
        for traced_turn in [traced_first, !traced_first] {
            let t = Instant::now();
            if traced_turn {
                tr.spans.clear();
                let mut next_id = 0;
                got = jobs
                    .iter()
                    .map(|j| traced(j, &mut tr, &mut ledger.counts, &mut next_id))
                    .collect();
                traced_s = t.elapsed().as_secs_f64();
            } else {
                want = jobs.iter().map(untraced).collect();
                untraced_s = t.elapsed().as_secs_f64();
            }
        }
        out.attempted += 2 * packets as u64;
        out.check(
            "replay is bit-identical to the program",
            got.iter().zip(&want).all(|(a, b)| same_job(a, b)),
        );
        ledger.absorb(&tr.spans);
        ledger.speed.push(untraced_s / traced_s);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out.check(
        "span coverage within 3 % of the packet time",
        (ledger.coverage() - 1.0).abs() <= 0.03,
    );
    out.check("tracing overhead under 3 %", ledger.overhead() < 0.03);
    out.metrics = ledger.metrics();
    out.note(format!(
        "{} round pairs × {packets} packets ({} jobs), 1 thread",
        ledger.speed.len(),
        jobs.len()
    ));
    out.spans = tr.spans;
    out
}

/// Writes one round's spans as `target/wlanbench/trace-<workload>.json`.
pub fn write_trace(w: Workload, spans: &[Span]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("target").join("wlanbench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.json", w.name()));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(
        f,
        "{{\"workload\": \"{}\", \"clock\": \"ns\", \"spans\": [",
        w.name()
    )?;
    for (i, s) in spans.iter().enumerate() {
        let packet = if s.packet == NO_PACKET {
            "null".to_string()
        } else {
            s.packet.to_string()
        };
        let sep = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            f,
            "  {{\"packet\": {packet}, \"name\": \"{}\", \"start\": {}, \"end\": {}}}{sep}",
            s.layer.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    writeln!(f, "]}}")?;
    f.flush()?;
    Ok(path)
}
