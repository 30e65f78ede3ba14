//! `serve_bench` — throughput, latency, allocation and identity gates
//! for the streaming session engine (`wlan_sim::serve`), written to
//! `BENCH_serve.json` (a smoke run writes
//! `target/bench-smoke/BENCH_serve.json` instead, so it never overwrites
//! the committed full-run figures).
//!
//! The bench drives two engines:
//!
//! * **Measurement engine** (multi-worker): `sessions` concurrent
//!   quick-effort link sessions, each with its own forked seed, warmed
//!   with an initial traffic burst (so every per-session arena reaches
//!   its high-water mark), then fed a steady burst that is timed. The
//!   JSON records sessions/s, aggregate packets/s, and the p50/p99
//!   chunk service latency of the steady drive.
//! * **Proof engine** (serial pool, inline drive): same shape, but the
//!   steady drive runs under an armed counting allocator. Steady-state
//!   serving must allocate **zero** times — the arenas, rings, queues
//!   and latency log were all preallocated at admission.
//!
//! Identity gate: after serving, every session's accumulated
//! [`LinkReport`] must be bit-identical (`f64::to_bits` on EVM, exact
//! meter equality) to a fresh serial [`LinkSimulation::run`] over the
//! same total traffic. The process exits non-zero if the identity or
//! the zero-allocation proof fails, so CI runs this binary as a gate.
//!
//! Environment:
//! * `WLANSIM_BENCH_SMOKE=1` — 8 sessions (CI smoke); default 64.
//! * `WLANSIM_SERVE_WORKERS` — worker count (default: available
//!   parallelism, capped at 8).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use wlan_exec::{split_seed, ThreadPool};
use wlan_phy::Rate;
use wlan_sim::link::{FrontEnd, LinkConfig, LinkReport, LinkSimulation};
use wlan_sim::serve::{ServeConfig, SessionEngine};

/// Schema version of `BENCH_serve.json`.
const SERVE_JSON_SCHEMA: u32 = 1;

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Quick-effort session workload: ideal front end (PHY-kernel bound),
/// 60-byte PSDUs, rate and SNR varied per session so the mix is not
/// one repeated packet.
fn session_link(master_seed: u64, session: usize, packets: usize) -> LinkConfig {
    let rate = match session % 3 {
        0 => Rate::R24,
        1 => Rate::R36,
        _ => Rate::R48,
    };
    LinkConfig {
        rate,
        psdu_len: 60,
        packets,
        seed: split_seed(master_seed, session as u64, 0),
        snr_db: Some(16.0 + (session % 4) as f64),
        front_end: FrontEnd::Ideal,
        ..LinkConfig::default()
    }
}

/// Builds an engine with `sessions` admitted sessions carrying
/// `warm` initial packets and budget for `warm + steady` in total.
fn build_engine(
    cfg: ServeConfig,
    sessions: usize,
    master_seed: u64,
    warm: usize,
    steady: usize,
) -> SessionEngine {
    let mut eng = SessionEngine::new(cfg);
    for s in 0..sessions {
        eng.admit(session_link(master_seed, s, warm), warm + steady)
            .expect("admission within max_sessions");
    }
    eng
}

/// Bit-exact comparison of a served session against the serial
/// reference (elapsed excluded — it is wall time).
fn reports_identical(got: &LinkReport, want: &LinkReport) -> bool {
    got.meter == want.meter
        && got.decoded_packets == want.decoded_packets
        && got.evm_db.map(f64::to_bits) == want.evm_db.map(f64::to_bits)
        && got.packets == want.packets
}

fn main() {
    let smoke = std::env::var("WLANSIM_BENCH_SMOKE")
        .map(|v| v != "0")
        .unwrap_or(false);
    let sessions = if smoke { 8 } else { 64 };
    // Warm-up must cover two chunks per session: the batch plane
    // double-buffers, so its arenas only reach their high-water mark
    // after the second chunk (see `zero_alloc.rs`).
    let (warm, steady) = if smoke { (8, 8) } else { (8, 16) };
    let workers = std::env::var("WLANSIM_SERVE_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4)
        })
        .max(2);
    let cfg = ServeConfig {
        max_sessions: sessions,
        chunk_packets: 4,
        ring_chunks: 4,
    };
    let master_seed = 2003;
    eprintln!(
        "serve_bench: {sessions} sessions × ({warm} warm + {steady} steady) packets, \
         {workers} workers, chunk {}, ring {}{}",
        cfg.chunk_packets,
        cfg.ring_chunks,
        if smoke { " [smoke]" } else { "" }
    );

    // --- Measurement engine: multi-worker steady-state drive. ---
    let pool = ThreadPool::new(workers);
    let mut eng = build_engine(cfg, sessions, master_seed, warm, steady);
    let warm_stats = eng.drive(&pool);
    assert_eq!(warm_stats.sessions, sessions, "warm drive served everyone");
    eng.feed_all(steady).expect("within admitted budget");
    let stats = eng.drive(&pool);
    assert_eq!(stats.sessions, sessions, "steady drive served everyone");

    // Identity: every served session == serial run() over all traffic.
    let mut identical = true;
    for s in 0..sessions {
        let want = LinkSimulation::new(session_link(master_seed, s, warm + steady)).run();
        if !reports_identical(&eng.report(s), &want) {
            eprintln!("ERROR: session {s} diverged from the serial reference");
            identical = false;
        }
    }

    // --- Proof engine: serial inline drive under the armed counter. ---
    let mut proof = build_engine(cfg, sessions, master_seed, warm, steady);
    let serial = ThreadPool::serial();
    proof.drive(&serial);
    proof.feed_all(steady).expect("within admitted budget");
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let proof_stats = proof.drive(&serial);
    ARMED.store(false, Ordering::SeqCst);
    let steady_state_allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(proof_stats.sessions, sessions);
    // The inline drive must also land on the exact same reports.
    for s in 0..sessions {
        identical &= reports_identical(&proof.report(s), &eng.report(s));
    }

    let sessions_per_s = stats.sessions_per_s();
    let packets_per_s = stats.packets_per_s();
    let p50_us = stats.service_p50.as_secs_f64() * 1e6;
    let p99_us = stats.service_p99.as_secs_f64() * 1e6;
    println!(
        "serve    {sessions} sessions in {:.3} s — {sessions_per_s:.1} sessions/s, \
         {packets_per_s:.1} packets/s",
        stats.wall.as_secs_f64()
    );
    println!(
        "latency  chunk service p50 {p50_us:.1} µs, p99 {p99_us:.1} µs \
         ({} chunks, {} backpressure parks)",
        stats.chunks, stats.parks
    );
    println!("alloc    steady-state allocations: {steady_state_allocs}");
    println!("identity serve == serial run(): {identical}");
    if steady_state_allocs != 0 {
        eprintln!("ERROR: steady-state serving allocated {steady_state_allocs} time(s)");
    }

    let json = format!(
        "{{\n  \"schema\": {SERVE_JSON_SCHEMA},\n  \"bench\": \"serve\",\n  \
         \"smoke\": {smoke},\n  \"sessions\": {sessions},\n  \"workers\": {workers},\n  \
         \"chunk_packets\": {},\n  \"ring_chunks\": {},\n  \
         \"warm_packets_per_session\": {warm},\n  \
         \"steady_packets_per_session\": {steady},\n  \
         \"steady_packets\": {},\n  \"steady_chunks\": {},\n  \
         \"wall_s\": {:.6},\n  \"sessions_per_s\": {sessions_per_s:.1},\n  \
         \"packets_per_s\": {packets_per_s:.1},\n  \
         \"chunk_p50_us\": {p50_us:.1},\n  \"chunk_p99_us\": {p99_us:.1},\n  \
         \"parks\": {},\n  \"steady_state_allocs\": {steady_state_allocs},\n  \
         \"identical\": {identical}\n}}\n",
        cfg.chunk_packets,
        cfg.ring_chunks,
        stats.packets,
        stats.chunks,
        stats.wall.as_secs_f64(),
        stats.parks,
    );
    let dir = if smoke { "target/bench-smoke" } else { "." };
    let path = format!("{dir}/BENCH_serve.json");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => println!("({path} written)"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }

    if !identical || steady_state_allocs != 0 {
        std::process::exit(1);
    }
}
