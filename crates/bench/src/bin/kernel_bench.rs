//! `kernel_bench` — ns/op timings of the dominant hot-path kernels
//! (Viterbi decode, 64-point FFT, fused RF front-end chain, co-simulated
//! analog engine) against their serial reference implementations, plus
//! the end-to-end single-thread link throughput in packets/s, written to
//! `BENCH_kernels.json` for the repo's perf trajectory (paper §4.2). A
//! smoke run writes `target/bench-smoke/BENCH_kernels.json` instead, so
//! it never overwrites the committed full-run figures.
//!
//! Every optimized kernel must be *bit-identical* to its reference —
//! the same guarantee the golden files and Annex G gates enforce. The
//! JSON records one `identical` flag that ANDs all of the checks, and
//! the process exits non-zero if any of them fails, so CI can run this
//! binary as a regression gate.
//!
//! Environment:
//! * `WLANSIM_BENCH_SMOKE=1` — short workloads (CI smoke mode), written
//!   under `target/bench-smoke/`.
//! * `WLANSIM_BENCH_SAMPLES` — timing samples per benchmark.

use std::time::Instant;
use wlan_ams::CosimReceiver;
use wlan_bench::harness::{Harness, Throughput};
use wlan_dsp::fft::Fft;
use wlan_dsp::{Complex, Rng};
use wlan_phy::viterbi::{Llr, ViterbiDecoder};
use wlan_phy::Rate;
use wlan_rf::receiver::{DoubleConversionReceiver, RfConfig, RfScratch};
use wlan_sim::link::{FrontEnd, LinkConfig, LinkSimulation};

/// Schema version of `BENCH_kernels.json`. Schema 2 added the
/// batch-plane kernel entries (`*_batch_*`) and the
/// `link.batched_identical` flag; schema 3 adds the per-profile link
/// throughput map (`link.profiles`, packets/s per OFDM numerology —
/// the `packets_per_s` key remains the 802.11a figure the baseline
/// gate compares); schema 4 adds the co-simulation analog engine
/// (`cosim_*`: chunked `process_into` against the sample-by-sample
/// reference at osr 8); schema 5 drops the Viterbi and FFT batch
/// entries (`viterbi_batch_*`, `fft64_batch_*`) with the kernels they
/// timed; schema 6 drops the RF chain batch entries
/// (`rf_chain_batch_*`) with the batch plane itself.
const KERNEL_JSON_SCHEMA: u32 = 6;

/// Single-thread link throughput of the pre-optimization tree
/// (commit `6c17661`), measured with the exact workload of
/// [`link_workload`] in full (non-smoke) mode, best of 3 runs, on the
/// reference builder. The acceptance gate for this PR is
/// `packets_per_s / BASELINE_PACKETS_PER_S >= 1.5` in full mode.
const BASELINE_PACKETS_PER_S: f64 = 458.1;

/// The end-to-end workload: ideal front end so the run time is
/// dominated by the PHY kernels rather than the RF oversampled scene.
fn link_workload(packets: usize, profile: &'static wlan_phy::OfdmProfile) -> LinkConfig {
    LinkConfig {
        profile,
        rate: Rate::R36,
        psdu_len: 300,
        packets,
        seed: 11,
        snr_db: Some(18.0),
        front_end: FrontEnd::Ideal,
        ..LinkConfig::default()
    }
}

/// Noisy LLR stream for a random terminated convolutional codeword.
fn viterbi_workload(message_bits: usize, seed: u64) -> Vec<Llr> {
    let mut rng = Rng::new(seed);
    let mut bits: Vec<u8> = (0..message_bits)
        .map(|_| (rng.next_u64() & 1) as u8)
        .collect();
    // Terminate the trellis like the PHY does (six tail zeros).
    bits.extend_from_slice(&[0; 6]);
    let coded = wlan_phy::convolutional::encode(&bits);
    coded
        .iter()
        .map(|&b| (1.0 - 2.0 * b as f64) + 0.5 * rng.gaussian())
        .collect()
}

fn tone_dbm(f: f64, fs: f64, dbm: f64, n: usize) -> Vec<Complex> {
    let a = (2.0 * wlan_dsp::math::dbm_to_watts(dbm)).sqrt();
    (0..n)
        .map(|i| Complex::from_polar(a, 2.0 * std::f64::consts::PI * f * i as f64 / fs))
        .collect()
}

fn main() {
    let smoke = std::env::var("WLANSIM_BENCH_SMOKE")
        .map(|v| v != "0")
        .unwrap_or(false);
    let (vit_bits, rf_len, link_packets, link_runs) = if smoke {
        (240, 2000, 4, 1)
    } else {
        (1200, 8000, 30, 3)
    };
    eprintln!(
        "kernel_bench: viterbi {vit_bits} bits, rf {rf_len} samples, \
         link {link_packets} packets x {link_runs} run(s){}",
        if smoke { " [smoke]" } else { "" }
    );
    let mut h = Harness::from_env();
    let mut identical = true;

    // --- Viterbi: reusable decoder vs the conformance reference. ---
    let llrs = viterbi_workload(vit_bits, 7);
    let mut dec = ViterbiDecoder::new();
    let mut bits = Vec::new();
    dec.decode_soft_into(&llrs, &mut bits);
    let reference = wlan_conformance::refimpl::viterbi_reference(&llrs);
    let vit_ok = bits == reference;
    identical &= vit_ok;

    let mut g = h.benchmark_group("viterbi");
    g.throughput(Throughput::Elements((llrs.len() / 2) as u64));
    let vit_opt_s = g.bench_function("decode_soft_into", |b| {
        b.iter(|| {
            dec.decode_soft_into(&llrs, &mut bits);
            bits.len()
        })
    });
    let vit_ref_s = g.bench_function("reference", |b| {
        b.iter(|| wlan_conformance::refimpl::viterbi_reference(&llrs).len())
    });
    g.finish();

    // --- FFT: specialized 64-point kernel vs the generic radix-2 loop. ---
    let fft = Fft::new(64);
    let mut rng = Rng::new(64);
    let x64: Vec<Complex> = (0..64).map(|_| rng.complex_gaussian(1.0)).collect();
    let mut fast = x64.clone();
    let mut generic = x64.clone();
    fft.forward(&mut fast);
    fft.forward_radix2(&mut generic);
    let mut fft_ok = fast == generic;
    fft.inverse(&mut fast);
    fft.inverse_radix2(&mut generic);
    fft_ok &= fast == generic;
    identical &= fft_ok;

    let mut g = h.benchmark_group("fft64");
    g.throughput(Throughput::Elements(64));
    let mut buf = x64.clone();
    let fft_opt_s = g.bench_function("forward", |b| {
        b.iter(|| {
            buf.copy_from_slice(&x64);
            fft.forward(&mut buf);
            buf[0]
        })
    });
    let fft_ref_s = g.bench_function("forward_radix2", |b| {
        b.iter(|| {
            buf.copy_from_slice(&x64);
            fft.forward_radix2(&mut buf);
            buf[0]
        })
    });
    g.finish();

    // --- RF chain: fused per-sample loop vs the staged Vec pipeline. ---
    let scene = tone_dbm(2e6, 80e6, -45.0, rf_len);
    let mut fused = DoubleConversionReceiver::new(RfConfig::default(), 42);
    let mut staged = DoubleConversionReceiver::new(RfConfig::default(), 42);
    let mut scratch = RfScratch::default();
    let mut y = Vec::new();
    fused.process_into(&scene, &mut scratch, &mut y);
    let want = staged.process_staged(&scene);
    let rf_ok = y.len() == want.len()
        && y.iter()
            .zip(&want)
            .all(|(a, b)| a.re == b.re && a.im == b.im);
    identical &= rf_ok;

    let mut g = h.benchmark_group("rf_chain");
    g.throughput(Throughput::Elements(rf_len as u64));
    let rf_opt_s = g.bench_function("process_into", |b| {
        b.iter(|| {
            fused.process_into(&scene, &mut scratch, &mut y);
            y.len()
        })
    });
    let rf_ref_s = g.bench_function("process_staged", |b| {
        b.iter(|| staged.process_staged(&scene).len())
    });
    g.finish();

    // --- Co-simulation: chunked analog engine (memoryless ZOH prefix,
    // device-major blocks, sample-major section cascade) vs the
    // sample-by-sample reference loop, on the same frame at analog osr 8. ---
    let cosim_osr = 8;
    let mut cosim_opt = CosimReceiver::new(80e6, cosim_osr, 4).expect("default netlist");
    let mut cosim_ref = CosimReceiver::new(80e6, cosim_osr, 4).expect("default netlist");
    let (mut cy_opt, mut cy_ref) = (Vec::new(), Vec::new());
    cosim_opt.process_into(&scene, &mut cy_opt);
    cosim_ref.process_into_sample_by_sample(&scene, &mut cy_ref);
    let cosim_ok = cy_opt.len() == cy_ref.len()
        && cy_opt
            .iter()
            .zip(&cy_ref)
            .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits())
        && cosim_opt.steps_taken() == cosim_ref.steps_taken();
    identical &= cosim_ok;

    let mut g = h.benchmark_group("cosim");
    g.throughput(Throughput::Elements(rf_len as u64));
    let cosim_opt_s = g.bench_function("process_into", |b| {
        b.iter(|| {
            cosim_opt.process_into(&scene, &mut cy_opt);
            cy_opt.len()
        })
    });
    let cosim_ref_s = g.bench_function("process_into_sample_by_sample", |b| {
        b.iter(|| {
            cosim_ref.process_into_sample_by_sample(&scene, &mut cy_ref);
            cy_ref.len()
        })
    });
    g.finish();

    // --- End-to-end link throughput (single thread). ---
    let sim = LinkSimulation::new(link_workload(link_packets, &wlan_phy::IEEE_802_11A));
    let first = sim.run();
    let second = sim.run();
    let link_ok = first.meter == second.meter
        && first.decoded_packets == second.decoded_packets
        && first.evm_db == second.evm_db;
    identical &= link_ok;
    // Stepping the link cursor 8 packets at a time must reproduce the
    // one-step run exactly.
    let batched = sim.run_batched(8);
    let link_batched_ok = batched.meter == first.meter
        && batched.decoded_packets == first.decoded_packets
        && batched.evm_db == first.evm_db;
    identical &= link_batched_ok;
    let mut best_s = f64::INFINITY;
    for _ in 0..link_runs {
        let t0 = Instant::now();
        let report = sim.run();
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(report.packets, link_packets);
        best_s = best_s.min(dt);
    }
    let packets_per_s = link_packets as f64 / best_s;
    let link_speedup = packets_per_s / BASELINE_PACKETS_PER_S;

    // --- Per-profile link throughput (schema 3). The 802.11a entry
    // reuses the gated figure above; the other numerologies get the
    // same workload on their own grid.
    let mut profile_pps: Vec<(&str, f64)> = vec![(wlan_phy::IEEE_802_11A.name, packets_per_s)];
    for profile in wlan_phy::ALL_PROFILES {
        if std::ptr::eq(profile, &wlan_phy::IEEE_802_11A) {
            continue;
        }
        let sim = LinkSimulation::new(link_workload(link_packets, profile));
        let mut best = f64::INFINITY;
        for _ in 0..link_runs {
            let t0 = Instant::now();
            let report = sim.run();
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(report.packets, link_packets);
            best = best.min(dt);
        }
        profile_pps.push((profile.name, link_packets as f64 / best));
    }

    let vit_speedup = vit_ref_s / vit_opt_s.max(1e-12);
    let fft_speedup = fft_ref_s / fft_opt_s.max(1e-12);
    let rf_speedup = rf_ref_s / rf_opt_s.max(1e-12);
    let cosim_speedup = cosim_ref_s / cosim_opt_s.max(1e-12);
    println!("viterbi  {vit_speedup:.2}x vs reference, bit-identical: {vit_ok}");
    println!("fft64    {fft_speedup:.2}x vs radix-2 loop, bit-identical: {fft_ok}");
    println!("rf_chain {rf_speedup:.2}x vs staged, bit-identical: {rf_ok}");
    println!(
        "cosim    {cosim_speedup:.2}x (osr {cosim_osr}) vs sample-by-sample, \
         bit-identical: {cosim_ok}"
    );
    println!(
        "link     {packets_per_s:.1} packets/s ({link_speedup:.2}x vs pre-PR \
         {BASELINE_PACKETS_PER_S} packets/s), reproducible: {link_ok}, \
         batched driver identical: {link_batched_ok}"
    );
    for (name, pps) in &profile_pps {
        println!("profile  {name}: {pps:.1} packets/s");
    }
    if !identical {
        eprintln!("ERROR: an optimized kernel diverged from its reference");
    }

    let profiles_json = profile_pps
        .iter()
        .map(|(name, pps)| format!("\"{name}\": {pps:.1}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"schema\": {KERNEL_JSON_SCHEMA},\n  \"bench\": \"kernels\",\n  \
         \"smoke\": {smoke},\n  \"kernels\": {{\n    \
         \"viterbi_opt_ns\": {:.1},\n    \"viterbi_ref_ns\": {:.1},\n    \
         \"viterbi_speedup\": {vit_speedup:.4},\n    \
         \"fft64_opt_ns\": {:.1},\n    \"fft64_ref_ns\": {:.1},\n    \
         \"fft64_speedup\": {fft_speedup:.4},\n    \
         \"rf_chain_opt_ns\": {:.1},\n    \"rf_chain_ref_ns\": {:.1},\n    \
         \"rf_chain_speedup\": {rf_speedup:.4},\n    \
         \"cosim_osr\": {cosim_osr},\n    \
         \"cosim_opt_ns\": {:.1},\n    \"cosim_ref_ns\": {:.1},\n    \
         \"cosim_speedup\": {cosim_speedup:.4},\n    \
         \"cosim_identical\": {cosim_ok}\n  }},\n  \"link\": {{\n    \
         \"packets\": {link_packets},\n    \"runs\": {link_runs},\n    \
         \"packets_per_s\": {packets_per_s:.1},\n    \
         \"baseline_packets_per_s\": {BASELINE_PACKETS_PER_S},\n    \
         \"speedup\": {link_speedup:.4},\n    \
         \"batched_identical\": {link_batched_ok},\n    \
         \"profiles\": {{{profiles_json}}}\n  }},\n  \
         \"identical\": {identical}\n}}\n",
        vit_opt_s * 1e9,
        vit_ref_s * 1e9,
        fft_opt_s * 1e9,
        fft_ref_s * 1e9,
        rf_opt_s * 1e9,
        rf_ref_s * 1e9,
        cosim_opt_s * 1e9,
        cosim_ref_s * 1e9,
    );
    let dir = if smoke { "target/bench-smoke" } else { "." };
    let path = format!("{dir}/BENCH_kernels.json");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => println!("({path} written)"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }

    if !identical {
        std::process::exit(1);
    }
}
