//! `wlanbench` — host time per simulated packet, end to end and layer by
//! layer, for the five ways this repository is used.
//!
//! Users of the link simulator wait on BER sweeps, and the paper's
//! Table 2 compares simulation time across front-end abstraction
//! levels, so the figure that matters is host time per simulated packet
//! at each level. Every workload below measures it through the
//! program's own public entry points; inputs are a pure function of
//! `--seed` (each workload draws its own `split_seed` stream).
//!
//! | workload | what runs (one timed unit) | why |
//! |---|---|---|
//! | `ideal_phy` | Ideal front end, 36 Mbit/s, 300 B, AWGN 18 dB; a serial `LinkSimulation::run` of a burst of 4 packets | PHY receive dominates; bypasses rf, ams and the scene, so an RF-side change must leave it unchanged |
//! | `rf_adjacent` | RfBaseband default `RfConfig`, −60 dBm, 24 Mbit/s, 100 B, +20 MHz / +16 dB adjacent channel, osr 4; bursts of 1 packet | the paper's headline scenario: the RF chain dominates, and about a fifth of packets arrive with bit errors |
//! | `cosim` | RfCosim `default_cosim()`, −50 dBm, 24 Mbit/s, 100 B; bursts of 1 packet | the AMS co-simulation of Table 2; the analog solver dominates and wlan-rf is bypassed |
//! | `serve_mix` | `SessionEngine`, 64 sessions, 2 workers, chunk 4, ring 4, Ideal, 60 B, rates {6, 24, 54} × the 3 profiles, SNR 16–19 dB; closed loop: 8 warm-up packets per session, then per unit one `feed_all` of 64 packets per session and one `drive` | short packets make per-packet fixed costs (sync, SIGNAL, scratch resets, chunk scheduling) dominate; exercises rings, locks and arenas |
//! | `sweep_blocking` | registry `blocking` through `experiments::execute`, sharded estimator, 1-worker engine, no early stop, 1 packet × 100 B per series and point: 11 points × 2 series | a user's time to a whole paper figure; osr 8 doubles the scene and RF samples, and front-end state is rebuilt for every 1-packet shard |
//!
//! A link workload's timed runs cycle through 16 bursts, each with its
//! own seed. Every workload is single-threaded except `serve_mix`,
//! whose engine runs 2 workers (plus a collector thread that only
//! drains rings).
//!
//! # End-to-end metrics (untraced pass, `--trace 0`)
//!
//! All times are host time scaled to nominal host speed by two frozen
//! calibration kernels, a digital one (FFT, trellis) and an analog one
//! (Rapp compression, RK4 state-space steps), timed between half-second
//! blocks of timed work and weighted per workload (`Workload::mix`,
//! `timing.rs`); each pass also prints its figures as measured.
//!
//! * `packets_per_s` — simulated packets per host second, the median
//!   over the timed units.
//! * `latency_p99_ms` — p99 of the time a caller waits for one piece of
//!   work, each time scaled by its calibration block: a burst (link
//!   workloads, over thousands of bursts), a served chunk of 4 packets
//!   (`serve_mix`: the p99 of the 1 024 chunks of a drive, median over
//!   the drives) or a sweep point (`sweep_blocking`, over some 1 000
//!   points). The sample counts are printed as a note.
//! * `setup_s` — median of 81 samples of the construction of the
//!   workload's state: a 1-packet `run` (filter design, netlist
//!   elaboration, the worst-case receive reserve); `SessionEngine::new`
//!   plus all 64 `admit` calls; the registry lookup and the `RunContext`
//!   plus the first 1-packet shard (the lookup and context alone take
//!   under a microsecond). Each sample repeats the construction for at
//!   least 20 ms and reports the time of one, scaled by its calibration
//!   block like the timed units. The samples run after the
//!   timed units, so their allocations touch neither the timed units
//!   nor the peak RSS.
//! * `peak_rss_mb` — the workload process's VmHWM once its timed units
//!   and checks are over, read before the set-up samples. It includes
//!   the calibration kernel's 512 KiB buffer.
//!
//! Failures are counted in the result line's `failed` of `attempted`
//! (packets, admissions and checks). A lost packet is a simulated
//! outcome (PER), not a failed operation. The simulated statistics
//! (BER, PER, decoded packets, EVM and its bits) are printed as notes;
//! a speed-only change must leave them bit-identical. `serve_mix` also
//! prints its chunk service p50, parks and warm-up drive time;
//! `sweep_blocking` its per-point p50.
//!
//! # Per-layer metrics (traced pass, `--trace 1`)
//!
//! The traced pass replays `LinkSimulation`'s per-packet pipeline from
//! public calls (`trace.rs`) and alternates each traced round with the
//! program's own untraced path on the same inputs; the two must be
//! bit-identical. Link workloads replay 16 bursts as one serial run,
//! `serve_mix` its first nine sessions serially (one per rate ×
//! profile), and `sweep_blocking` its middle point at 8 packets per
//! series as 1-packet shards against `run_shard`. Every packet records
//! one root span and one child span per stage; a stage the front end
//! skips (the RF chain under Ideal, say) still records its near-empty
//! span.
//!
//! | metric(s) | should move | on | elsewhere |
//! |---|---|---|---|
//! | `rf.chain.{us_per_packet,share,ns_per_sample,bytes_per_packet}` | `packets_per_s`, `latency_p99_ms` | rf_adjacent, sweep_blocking | none on ideal_phy, cosim, serve_mix |
//! | `channel.scene.{us_per_packet,share}` | `packets_per_s`, `latency_p99_ms` | rf_adjacent, sweep_blocking | none on ideal_phy, serve_mix |
//! | `channel.awgn.{us_per_packet,share}` | `packets_per_s` | ideal_phy, rf_adjacent | — |
//! | `ams.cosim.{us_per_packet,share,ns_per_sample}` | `packets_per_s`, `latency_p99_ms` | cosim | none elsewhere |
//! | `phy.rx.{us_per_packet,share,ns_per_sample,decode_ratio}` | `packets_per_s`, `latency_p99_ms` | ideal_phy, serve_mix | small on rf_adjacent |
//! | `phy.tx.{us_per_packet,share}` | `packets_per_s` | ideal_phy, serve_mix | ~1 % on rf_adjacent |
//! | `meas.ber.us_per_packet` | nothing (control, ≈ 0) | — | — |
//! | `sim.packet.{us_p50,us_p99,traced}` | `packets_per_s`, `latency_p99_ms` | link workloads | — |
//! | `sim.setup.{us,share}` | `setup_s` everywhere; `packets_per_s` | sweep_blocking | — |
//! | `sim.trace.{coverage,overhead}` | validity of the trace | all | — |
//!
//! `rf.chain.bytes_per_packet` is computed, not measured: input plus
//! output samples of the RF chain × 16 B. `ns_per_sample` divides by
//! the samples entering the front-end stage (rf, ams) or the receiver
//! (rx). `sim.trace.coverage` is child-span time over root-span time and
//! must lie within 3 % of 1; `sim.trace.overhead` is 1 − traced ÷
//! untraced packets/s (median over round pairs) and must stay under 3 %.
//!
//! # Running
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path wlanbench/Cargo.toml -- --seed 1 [--trace 1]
//! cargo run --release --manifest-path wlanbench/Cargo.toml -- \
//!     --workload rf_adjacent --seed 1 --seconds 20 --trace 0
//! cargo test --manifest-path wlanbench/Cargo.toml
//! ```
//!
//! Without `--workload` the binary runs every workload in its own child
//! process (so `peak_rss_mb` is that workload's), prints one
//! `workload metric value unit` line per metric, writes
//! `target/wlanbench/results.json`, and exits non-zero if any check
//! failed. With `--workload` it runs that one pass; the last line of its
//! output is the JSON result `BENCHMARK.json` describes. Before any
//! timing each process runs the Annex G known-answer tests; if they
//! fail nothing is timed and the workload reports every operation
//! failed. The seed defaults to 1 and the measuring time to 20 s.
//! `baseline.json` beside this package's sources holds two sets of ten
//! untraced runs per workload: median, quartiles and spread of every
//! end-to-end metric, scaled and as measured from the same runs. The
//! bounds in `BENCHMARK.json` were set from them and from two earlier
//! sets on a heavily loaded host, which its notes summarise.
//!
//! # Reading a trace
//!
//! `--trace 1` writes the spans of its last traced round to
//! `target/wlanbench/trace-<workload>.json`, one span per line with
//! `packet`, `name`, `start` and `end` (ns since the tracer started).
//! Spans sharing a `packet` id belong to one packet: its `sim.packet`
//! root and the stage spans inside it. A `sim.setup` span with
//! `"packet": null` is a serial run's front-end construction, outside
//! every packet. A root's self time is its duration minus its children.

mod timing;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use wlan_conformance::annex_g;
use wlan_conformance::json::Json;
use workloads::{Outcome, Workload};

/// End-to-end metrics and units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 4] = [
    ("packets_per_s", "1/s"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and units, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 25] = [
    ("phy.tx.us_per_packet", "us"),
    ("phy.tx.share", "frac"),
    ("channel.scene.us_per_packet", "us"),
    ("channel.scene.share", "frac"),
    ("channel.awgn.us_per_packet", "us"),
    ("channel.awgn.share", "frac"),
    ("rf.chain.us_per_packet", "us"),
    ("rf.chain.share", "frac"),
    ("rf.chain.ns_per_sample", "ns"),
    ("rf.chain.bytes_per_packet", "B"),
    ("ams.cosim.us_per_packet", "us"),
    ("ams.cosim.share", "frac"),
    ("ams.cosim.ns_per_sample", "ns"),
    ("phy.rx.us_per_packet", "us"),
    ("phy.rx.share", "frac"),
    ("phy.rx.ns_per_sample", "ns"),
    ("phy.rx.decode_ratio", "frac"),
    ("meas.ber.us_per_packet", "us"),
    ("sim.packet.us_p50", "us"),
    ("sim.packet.us_p99", "us"),
    ("sim.packet.traced", "count"),
    ("sim.setup.us", "us"),
    ("sim.setup.share", "frac"),
    ("sim.trace.coverage", "frac"),
    ("sim.trace.overhead", "frac"),
];

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds '{value}'"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "wlanbench: {e}\nusage: wlanbench [--workload NAME] [--seed N] \
                 [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one pass of one workload and prints its result; `true` when
/// every check passed.
fn run_one(w: Workload, args: &Args) -> bool {
    let outcome = std::panic::catch_unwind(|| {
        if !annex_g::all_pass(&annex_g::run_all()) {
            return Err("Annex G known-answer tests failed".to_string());
        }
        Ok(if args.trace {
            workloads::trace(w, args.seed, args.seconds)
        } else {
            workloads::run(w, args.seed, args.seconds)
        })
    })
    .unwrap_or_else(|_| Err("the workload panicked".to_string()));
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let (out, metrics) = match outcome.and_then(|out| Ok((ordered(&out.metrics, declared)?, out))) {
        Ok((metrics, out)) => (out, metrics),
        Err(e) => {
            eprintln!("wlanbench: {}: {e}", w.name());
            let failed = Outcome {
                attempted: 1,
                failed: 1,
                ..Outcome::default()
            };
            println!("{}", result_line(&failed, &[]));
            return false;
        }
    };
    for (name, unit, value) in &metrics {
        println!("{} {name} {value} {unit}", w.name());
    }
    if !out.spans.is_empty() {
        match workloads::write_trace(w, &out.spans) {
            Ok(path) => println!(
                "# {} spans of the last round in {}",
                w.name(),
                path.display()
            ),
            Err(e) => eprintln!("wlanbench: trace file not written: {e}"),
        }
    }
    for note in &out.notes {
        println!("# {} {note}", w.name());
    }
    println!(
        "# {} threads {}, failed {} of {} operations (failed_frac {})",
        w.name(),
        if args.trace { 1 } else { w.threads() },
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted as f64
    );
    println!("{}", result_line(&out, &metrics));
    out.failed == 0
}

/// The metrics in declared order with their units; an error if any is
/// missing, undeclared or not finite.
fn ordered(
    metrics: &[(&'static str, f64)],
    declared: &[(&'static str, &'static str)],
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    if metrics.len() != declared.len() {
        return Err(format!(
            "{} metrics measured, {} declared",
            metrics.len(),
            declared.len()
        ));
    }
    declared
        .iter()
        .map(|&(name, unit)| match metrics.iter().find(|m| m.0 == name) {
            Some(&(_, v)) if v.is_finite() => Ok((name, unit, v)),
            Some(&(_, v)) => Err(format!("{name} is {v}")),
            None => Err(format!("{name} was not measured")),
        })
        .collect()
}

/// The JSON object that ends a pass's output.
fn result_line(out: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

/// Runs every workload in its own child process (and, with `--trace 1`,
/// a traced pass after the untraced one), prints their metrics and
/// writes `target/wlanbench/results.json`.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("wlanbench: cannot locate own executable: {e}");
            return false;
        }
    };
    let mut all_ok = true;
    let mut runs = Vec::new();
    for w in Workload::ALL {
        for trace in [false, true].into_iter().take(1 + args.trace as usize) {
            let child = Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output();
            let (ok, result) = match child {
                Ok(o) => {
                    let text = String::from_utf8_lossy(&o.stdout).into_owned();
                    let mut lines: Vec<&str> = text.lines().collect();
                    let last = lines.pop().unwrap_or("");
                    for l in lines {
                        println!("{l}");
                    }
                    let result = Json::parse(last).unwrap_or(Json::Null);
                    let correct = result.get("correct") == Some(&Json::Bool(true));
                    if let (Some(a), Some(f)) = (
                        result.get("attempted").and_then(Json::as_f64),
                        result.get("failed").and_then(Json::as_f64),
                    ) {
                        println!("{} failed_frac {} frac", w.name(), f / a);
                    }
                    (o.status.success() && correct, result)
                }
                Err(e) => {
                    eprintln!("wlanbench: cannot run {}: {e}", w.name());
                    (false, Json::Null)
                }
            };
            all_ok &= ok;
            runs.push(Json::Obj(vec![
                ("workload".into(), Json::Str(w.name().into())),
                ("trace".into(), Json::Bool(trace)),
                ("ok".into(), Json::Bool(ok)),
                ("result".into(), result),
            ]));
        }
    }
    let doc = Json::Obj(vec![
        ("seed".into(), Json::Str(args.seed.to_string())),
        ("seconds".into(), Json::Num(args.seconds)),
        ("runs".into(), Json::Arr(runs)),
    ]);
    let path = std::path::Path::new("target").join("wlanbench");
    match std::fs::create_dir_all(&path)
        .and_then(|()| std::fs::write(path.join("results.json"), doc.render()))
    {
        Ok(()) => println!("# results in {}", path.join("results.json").display()),
        Err(e) => eprintln!("wlanbench: results.json not written: {e}"),
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Replay, Tracer, NO_PACKET};
    use crate::workloads::{link_config, same_run, sweep_context, sweep_mid_configs, SWEEP_MID};
    use wlan_exec::split_seed;
    use wlan_sim::experiments::{execute, find, Effort};
    use wlan_sim::link::{LinkConfig, LinkSimulation};

    fn replay_run(cfg: &LinkConfig) -> wlan_sim::link::LinkReport {
        let mut tr = Tracer::with_capacity(16 * cfg.packets);
        let mut rp = Replay::new(cfg, cfg.seed, &mut tr, NO_PACKET);
        for k in 0..cfg.packets {
            rp.packet(k, &mut tr, k as u32);
        }
        rp.link_report()
    }

    #[test]
    fn replay_is_bit_identical_to_run_on_every_front_end() {
        for w in [Workload::IdealPhy, Workload::RfAdjacent, Workload::Cosim] {
            let cfg = LinkConfig {
                packets: 3,
                ..link_config(w, 7)
            };
            let want = LinkSimulation::new(cfg.clone()).run();
            assert!(same_run(&replay_run(&cfg), &want), "{}", w.name());
        }
    }

    #[test]
    fn sweep_replay_reproduces_the_blocking_midpoint() {
        // One packet per point: the rebuilt middle-point configurations,
        // replayed as 1-packet shards, must give the BERs `execute`
        // reports for that point.
        let effort = Effort {
            packets: 1,
            psdu_len: 100,
        };
        let mut ctx = sweep_context(3, effort);
        let run = execute(find("blocking").unwrap(), &mut ctx);
        for (cfg, series) in sweep_mid_configs(3, effort)
            .iter()
            .zip(["ber_adjacent", "ber_alternate"])
        {
            let seed = split_seed(cfg.seed, SWEEP_MID as u64, 0);
            let mut tr = Tracer::with_capacity(16);
            let mut rp = Replay::new(cfg, seed, &mut tr, 0);
            rp.packet(0, &mut tr, 0);
            let got = rp.shard_report();
            let want = LinkSimulation::new(cfg.clone()).run_shard(0, 1, seed);
            assert_eq!(got.meter, want.meter);
            assert_eq!(got.evm_sum_db.to_bits(), want.evm_sum_db.to_bits());
            let key = format!("points[{SWEEP_MID:02}].{series}");
            let (_, ber) = run.snapshot.iter().find(|(k, _)| *k == key).unwrap();
            assert_eq!(got.meter.ber(), *ber, "{key}");
        }
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                        (field("name"), field("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no {key} list"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = match doc.get("workloads") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect(),
            _ => panic!("BENCHMARK.json has no workloads"),
        };
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }

    #[test]
    fn passes_report_exactly_the_declared_metrics() {
        // The shortest possible passes; the checks may fail on so little
        // work, the metric names may not.
        let traced = workloads::trace(Workload::ServeMix, 1, 1e-9);
        let got = ordered(&traced.metrics, &PER_LAYER).unwrap();
        assert_eq!(got.len(), PER_LAYER.len());
        assert!(ordered(&traced.metrics[1..], &PER_LAYER).is_err());
        let untraced = workloads::run(Workload::IdealPhy, 1, 1e-9);
        assert_eq!(
            ordered(&untraced.metrics, &END_TO_END).unwrap().len(),
            END_TO_END.len()
        );
        assert!(ordered(&[("packets_per_s", f64::NAN)], &END_TO_END[..1]).is_err());
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            assert_eq!(
                workloads::inputs(w, 5),
                workloads::inputs(w, 5),
                "{}",
                w.name()
            );
            assert_ne!(
                workloads::inputs(w, 5),
                workloads::inputs(w, 6),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert_eq!(
            parse("--workload cosim --seed 9 --seconds 2 --trace 1").unwrap(),
            Args {
                workload: Some(Workload::Cosim),
                seed: 9,
                seconds: 2.0,
                trace: true
            }
        );
        assert_eq!(parse("").unwrap().workload, None);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
