//! `sweep_bench` — serial vs parallel wall-clock of a multi-point
//! Monte-Carlo BER sweep, written to `BENCH_sweep.json` so the repo's
//! perf trajectory has data to chart against the paper's §4.2 runtime
//! table (hours per sweep on 2003-era SPW).
//!
//! The workload is the §5.1 IIP3 sweep (RF baseband front end, adjacent
//! channel present) run twice with identical seeds: once on a
//! single-worker engine, once on `WLANSIM_THREADS` workers (default:
//! available parallelism). The two runs must be bit-identical — the
//! JSON records that check alongside the timings.
//!
//! Three workload tiers, recorded per run in the JSON `runs` array
//! (schema 2):
//! * `WLANSIM_BENCH_SMOKE=1` — the 3-point smoke only (CI mode). Its
//!   speedup mostly measures engine startup; it exists to gate
//!   bit-identity cheaply.
//! * `WLANSIM_BENCH_FULL=1` — the smoke run *plus* a calibrated sweep
//!   (8 points × 40 packets of 200-byte PSDUs) long enough that the
//!   parallel speedup measures the sweep, not the startup. Both runs
//!   land in the JSON so the trajectory can compare like with like.
//! * neither — a single default-effort run (`WLANSIM_PACKETS` /
//!   `WLANSIM_PSDU` override the per-point budget).
//!
//! Exit status is non-zero if any recorded run diverges between the
//! serial and parallel engines.

use std::time::Instant;
use wlan_exec::ThreadPool;
use wlan_sim::experiments::{execute, ip3, Effort, Engine, RunContext};

/// Schema version of `BENCH_sweep.json`.
const BENCH_JSON_SCHEMA: u32 = 2;

/// One workload tier: a labeled sweep size.
struct Tier {
    mode: &'static str,
    points: usize,
    effort: Effort,
}

/// Timing record of one serial-vs-parallel comparison.
struct RunRecord {
    tier: Tier,
    threads: usize,
    serial_s: f64,
    parallel_s: f64,
    speedup: f64,
    identical: bool,
}

fn run_tier(tier: Tier, threads: usize) -> RunRecord {
    let (lo_dbm, hi_dbm, seed) = (-40.0, 0.0, 42);
    let Tier {
        points,
        effort,
        mode,
    } = tier;
    eprintln!(
        "sweep_bench[{mode}]: {points} IIP3 points x {} packets, 1 vs {threads} thread(s)",
        effort.packets
    );

    let exp = ip3::Ip3Sweep {
        lo_dbm: wlan_units::Dbm(lo_dbm),
        hi_dbm: wlan_units::Dbm(hi_dbm),
        points,
    };
    // The sharded estimator on one worker, then on `threads`.
    let sweep = |engine: Engine| {
        let mut ctx = RunContext {
            engine,
            serial: false,
            ..RunContext::serial_reference(effort, seed)
        };
        let t = Instant::now();
        let out = execute(&exp, &mut ctx);
        (out, t.elapsed().as_secs_f64())
    };
    let (serial, serial_s) = sweep(Engine::serial());
    let (parallel, parallel_s) = sweep(Engine::with_threads(threads));

    let identical = serial.snapshot == parallel.snapshot;
    let speedup = serial_s / parallel_s.max(1e-12);

    let labels: Vec<(String, std::time::Duration)> = parallel
        .points
        .iter()
        .map(|p| (p.label.clone(), p.elapsed.unwrap_or_default()))
        .collect();
    wlan_bench::harness::report_point_timing(&format!("sweep_bench[{mode}]"), &labels);
    println!("serial   {serial_s:.3} s");
    println!("parallel {parallel_s:.3} s ({threads} threads)");
    println!("speedup  {speedup:.2}x, bit-identical: {identical}");
    if !identical {
        eprintln!("ERROR: parallel sweep diverged from the serial reference");
    }

    RunRecord {
        tier: Tier {
            mode,
            points,
            effort,
        },
        threads,
        serial_s,
        parallel_s,
        speedup,
        identical,
    }
}

fn json_run(r: &RunRecord) -> String {
    format!(
        "    {{\n      \"mode\": \"{}\",\n      \"threads\": {},\n      \
         \"points\": {},\n      \"packets_per_point\": {},\n      \
         \"psdu_len\": {},\n      \"serial_s\": {:.6},\n      \
         \"parallel_s\": {:.6},\n      \"speedup\": {:.4},\n      \
         \"identical\": {}\n    }}",
        r.tier.mode,
        r.threads,
        r.tier.points,
        r.tier.effort.packets,
        r.tier.effort.psdu_len,
        r.serial_s,
        r.parallel_s,
        r.speedup,
        r.identical
    )
}

fn main() {
    let env_flag = |name: &str| std::env::var(name).map(|v| v != "0").unwrap_or(false);
    let smoke_tier = || Tier {
        mode: "smoke",
        points: 3,
        effort: Effort {
            packets: 2,
            psdu_len: 60,
        },
    };
    let tiers: Vec<Tier> = if env_flag("WLANSIM_BENCH_SMOKE") {
        vec![smoke_tier()]
    } else if env_flag("WLANSIM_BENCH_FULL") {
        vec![
            smoke_tier(),
            Tier {
                mode: "full",
                points: 8,
                effort: Effort {
                    packets: 40,
                    psdu_len: 200,
                },
            },
        ]
    } else {
        vec![Tier {
            mode: "default",
            points: 8,
            effort: Effort::from_env(),
        }]
    };

    let threads = ThreadPool::from_env().threads();
    let records: Vec<RunRecord> = tiers.into_iter().map(|t| run_tier(t, threads)).collect();
    let all_identical = records.iter().all(|r| r.identical);

    let runs: Vec<String> = records.iter().map(json_run).collect();
    let json = format!(
        "{{\n  \"schema\": {BENCH_JSON_SCHEMA},\n  \"bench\": \"sweep_ber\",\n  \
         \"identical\": {all_identical},\n  \"runs\": [\n{}\n  ]\n}}\n",
        runs.join(",\n")
    );
    match std::fs::write("BENCH_sweep.json", &json) {
        Ok(()) => println!("(BENCH_sweep.json written)"),
        Err(e) => eprintln!("warning: could not write BENCH_sweep.json: {e}"),
    }

    if !all_identical {
        std::process::exit(1);
    }
}
