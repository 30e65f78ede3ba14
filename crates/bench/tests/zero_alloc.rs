//! Proof that the per-packet link loop is allocation-free in steady
//! state: a counting global allocator observes two otherwise identical
//! runs, and the longer run must not allocate a single time more than
//! the short one. Everything the extra packets need — transmit
//! waveform, channel scene, multipath taps, receive scratch — already
//! lives in the link cursor's packet arena grown during the first
//! packet, however the packets are split into steps.
//!
//! A second same-config `run_shard` on one thread must take the
//! thread's packet arena instead of rebuilding it, so it allocates only
//! its per-shard front-end state: a handful of small allocations.
//!
//! The test binary holds exactly one `#[test]` so no sibling test can
//! allocate on another thread while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use wlan_exec::ThreadPool;
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;
use wlan_sim::link::{AdjacentChannel, FrontEnd, LinkConfig, LinkSimulation};
use wlan_sim::serve::{ServeConfig, SessionEngine};

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn ideal_config(packets: usize) -> LinkConfig {
    LinkConfig {
        rate: Rate::R36,
        psdu_len: 120,
        packets,
        seed: 77,
        snr_db: Some(18.0),
        front_end: FrontEnd::Ideal,
        ..LinkConfig::default()
    }
}

/// The RF baseband front end with the full scene: adjacent channel,
/// oversampled rendering, fused receiver chain.
fn rf_config(packets: usize) -> LinkConfig {
    LinkConfig {
        rate: Rate::R24,
        psdu_len: 60,
        packets,
        seed: 78,
        rx_level_dbm: -50.0,
        adjacent: Some(AdjacentChannel::first()),
        front_end: FrontEnd::RfBaseband(RfConfig::default()),
        ..LinkConfig::default()
    }
}

/// The blocking sweep's rate: osr 8 with the alternate (+40 MHz)
/// channel, so the interpolator's history line, the scene and the RF
/// chain run at 160 Msps.
fn osr8_alternate_config(packets: usize) -> LinkConfig {
    LinkConfig {
        osr: 8,
        adjacent: Some(AdjacentChannel::alternate()),
        ..rf_config(packets)
    }
}

/// The chunked mixed-signal co-simulation (small `analog_osr` keeps the
/// RK4 engine affordable under a test harness).
fn cosim_config(packets: usize) -> LinkConfig {
    LinkConfig {
        rate: Rate::R24,
        psdu_len: 40,
        packets,
        seed: 79,
        rx_level_dbm: -50.0,
        front_end: FrontEnd::RfCosim {
            filter_edge_hz: 10e6,
            analog_osr: 2,
            noise_workaround: false,
        },
        ..LinkConfig::default()
    }
}

/// The ideal front end plus block-fading multipath, stepped in batches,
/// so the regenerated taps and the convolution arena are exercised.
fn batched_config(packets: usize) -> LinkConfig {
    LinkConfig {
        multipath_trms_s: Some(50e-9),
        ..ideal_config(packets)
    }
}

/// Heap allocations (alloc + realloc calls) during `run`.
fn count_allocs<R>(run: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let report = run();
    ARMED.store(false, Ordering::SeqCst);
    (report, ALLOCS.load(Ordering::SeqCst))
}

/// Minimum allocation count over three identical runs. The counter is
/// process-global, so an unrelated thread (the test harness itself)
/// occasionally lands an allocation inside the armed window; spurious
/// counts only ever inflate, so the minimum is the loop's own count.
fn min_allocs(mut measure: impl FnMut() -> u64) -> u64 {
    (0..3).map(|_| measure()).min().unwrap()
}

/// Allocations of a full serial `run()` of `cfg`.
fn allocs_for(cfg: LinkConfig) -> u64 {
    let packets = cfg.packets;
    let sim = LinkSimulation::new(cfg);
    min_allocs(|| {
        let (report, allocs) = count_allocs(|| sim.run());
        assert_eq!(report.packets, packets);
        assert!(report.decoded_packets > 0, "workload must decode");
        allocs
    })
}

/// Allocations of a full `run_batched(batch)` of `cfg`.
fn allocs_for_batched(cfg: LinkConfig, batch: usize) -> u64 {
    let packets = cfg.packets;
    let sim = LinkSimulation::new(cfg);
    min_allocs(|| {
        let (report, allocs) = count_allocs(|| sim.run_batched(batch));
        assert_eq!(report.packets, packets);
        assert!(report.decoded_packets > 0, "workload must decode");
        allocs
    })
}

/// Asserts a longer run allocates exactly as often as a short one.
fn assert_steady_state(what: &str, short: u64, long: u64) {
    assert_eq!(
        short,
        long,
        "{what}: the longer run allocated {} extra time(s); the \
         per-packet loop must reuse its scratch arenas",
        long.saturating_sub(short)
    );
}

#[test]
fn steady_state_link_loop_is_allocation_free() {
    // Warm-up run so lazy process-wide state (if any) is initialized
    // before counting starts.
    let _ = allocs_for(ideal_config(1));
    assert_steady_state(
        "ideal serial",
        allocs_for(ideal_config(2)),
        allocs_for(ideal_config(12)),
    );
    // RF baseband: scene rendering (wanted + adjacent emitter) and the
    // fused receiver chain must live in the arena too.
    let _ = allocs_for(rf_config(1));
    assert_steady_state(
        "rf baseband serial",
        allocs_for(rf_config(2)),
        allocs_for(rf_config(8)),
    );
    let _ = allocs_for(osr8_alternate_config(1));
    assert_steady_state(
        "rf baseband osr 8 alternate serial",
        allocs_for(osr8_alternate_config(2)),
        allocs_for(osr8_alternate_config(8)),
    );
    // Mixed-signal co-simulation: the chunked device-major engine
    // reuses its expansion buffer across chunks and packets.
    let _ = allocs_for(cosim_config(1));
    assert_steady_state(
        "rf cosim serial",
        allocs_for(cosim_config(2)),
        allocs_for(cosim_config(6)),
    );
    // Batched stepping: the same cursor arena, stepped 4 packets at a
    // time.
    let _ = allocs_for_batched(batched_config(1), 4);
    assert_steady_state(
        "ideal batched",
        allocs_for_batched(batched_config(8), 4),
        allocs_for_batched(batched_config(16), 4),
    );
    let _ = allocs_for_batched(rf_config(1), 4);
    assert_steady_state(
        "rf baseband batched",
        allocs_for_batched(rf_config(8), 4),
        allocs_for_batched(rf_config(16), 4),
    );
    // Sharded sweeps: a 1-packet shard after one of the same config on
    // the same thread reuses that shard's packet arena (worst-case
    // receive reservation, scene and transmit buffers), at the osr 8
    // of the blocking sweep.
    let sim = LinkSimulation::new(LinkConfig {
        osr: 8,
        ..rf_config(1)
    });
    let (cold, cold_allocs) = count_allocs(|| sim.run_shard(0, 1, 900));
    let cold_bytes = BYTES.load(Ordering::SeqCst);
    assert_eq!(cold.packets, 1);
    let (mut allocs, mut bytes) = (u64::MAX, u64::MAX);
    for shard in 1..4 {
        let (report, n) = count_allocs(|| sim.run_shard(shard, 1, 900 + shard as u64));
        assert_eq!(report.packets, 1);
        allocs = allocs.min(n);
        bytes = bytes.min(BYTES.load(Ordering::SeqCst));
    }
    assert!(
        allocs < 32 && bytes < 64 * 1024,
        "warm shard: {allocs} allocations, {bytes} B (cold: {cold_allocs}, {cold_bytes} B); \
         run_shard must reuse the thread's packet arena"
    );
    // Streaming session engine: after admission (which preallocates the
    // arenas, rings, queues and latency log) and one warm drive, a
    // feed + drive round must allocate exactly zero times.
    assert_eq!(
        min_allocs(serve_round()),
        0,
        "serve: steady-state feed + drive must not allocate"
    );
}

/// Builds a warmed serial session engine and returns a measurement
/// closure: each call feeds every session another burst and counts the
/// allocations of the (inline) drive that serves it.
///
/// Two Ideal sessions and one RfBaseband session with the adjacent
/// channel, so the scene renderer and the RF chain are proven too. The
/// admission budget covers the three measured rounds `min_allocs`
/// takes.
fn serve_round() -> impl FnMut() -> u64 {
    const WARM: usize = 4;
    const STEADY: usize = 4;
    let mut eng = SessionEngine::new(ServeConfig {
        max_sessions: 3,
        chunk_packets: 2,
        ring_chunks: 2,
    });
    let links = [
        LinkConfig {
            seed: 700,
            ..ideal_config(WARM)
        },
        LinkConfig {
            seed: 701,
            ..ideal_config(WARM)
        },
        LinkConfig {
            seed: 702,
            ..rf_config(WARM)
        },
    ];
    for link in links {
        eng.admit(link, WARM + 3 * STEADY).unwrap();
    }
    let pool = ThreadPool::serial();
    eng.drive(&pool);
    move || {
        eng.feed_all(STEADY).unwrap();
        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        let stats = eng.drive(&pool);
        ARMED.store(false, Ordering::SeqCst);
        assert_eq!(stats.sessions, 3);
        ALLOCS.load(Ordering::SeqCst)
    }
}
