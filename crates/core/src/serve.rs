//! Streaming session engine: many concurrent link sessions fed
//! fixed-size packet chunks through preallocated per-session rings.
//!
//! `wlansim` grew up as a one-shot CLI: one [`LinkSimulation`] at a
//! time, start to finish. The ROADMAP's streaming-service direction
//! needs the opposite shape — a long-running engine that interleaves
//! *many* sessions, keeps serving as traffic arrives, and never falls
//! over from unbounded queueing. This module supplies that engine with
//! three hard guarantees:
//!
//! 1. **Determinism.** A session is a link cursor — the same packet
//!    stepper behind [`LinkSimulation::run`] — that owns its RNG
//!    stream, front-end state and tally. Serving a chunk steps the
//!    cursor by the chunk's packets, and a session's chunks are stepped
//!    strictly in order (a session is never claimed by two workers at
//!    once — it lives in the run queue at most once). Since any split
//!    of a cursor's steps gives the same tally, a session's accumulated
//!    [`LinkReport`] is **bit-identical to `LinkSimulation::run`** for
//!    any worker count, chunk size, or interleaving.
//! 2. **No allocation after admission.** [`SessionEngine::admit`]
//!    preallocates everything the session will ever need: the
//!    cursor's packet arena (worst-case receive scratch included), the
//!    chunk-result ring, the scheduler queues and the latency log
//!    (sized by the admission-time packet budget).
//!    Steady-state serving performs zero heap allocations — proved by
//!    the counting-allocator cases in `zero_alloc.rs` and the
//!    `steady_state_allocs` flag of `BENCH_serve.json`.
//! 3. **Explicit backpressure.** Admission beyond
//!    [`ServeConfig::max_sessions`] *live* sessions is rejected
//!    ([`AdmitError`]) — a session that has served its whole admission
//!    budget retires and frees its slot for the next admission — and
//!    a worker that finds a session's result ring full **parks** the
//!    session instead of queueing unboundedly; the collector unparks it
//!    when it drains. Nothing in the engine grows with load.
//!
//! Scheduling runs on the existing [`wlan_exec::ThreadPool`] via
//! [`ThreadPool::run_workers`]: N workers drain a shared run queue of
//! session indices (the only global lock on the hot path guards that
//! queue of `u32`s for a few instructions — session state itself is
//! behind per-session locks), while a collector thread drains result
//! rings, tracks chunk service latency, and re-queues parked sessions.
//! With a serial pool the whole engine runs inline on the caller's
//! thread, which is both the bit-identical reference configuration and
//! the configuration the counting-allocator proof measures.
//!
//! [`LinkSimulation`]: crate::link::LinkSimulation
//! [`LinkSimulation::run`]: crate::link::LinkSimulation::run

use crate::link::{LinkConfig, LinkCursor, LinkReport};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use wlan_exec::ThreadPool;

/// Engine sizing: every bound is fixed at construction and enforced,
/// never grown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission capacity: [`SessionEngine::admit`] rejects session
    /// `max_sessions + 1`.
    pub max_sessions: usize,
    /// Packets per scheduling chunk: one chunk is one step of the
    /// session's link cursor. The last chunk of a session may be
    /// ragged.
    pub chunk_packets: usize,
    /// Per-session result-ring capacity in chunks. A worker that finds
    /// the ring full parks the session until the collector drains it.
    pub ring_chunks: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 64,
            chunk_packets: 4,
            ring_chunks: 4,
        }
    }
}

/// Why a session was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// Every slot holds a live session (budget not yet fully served);
    /// the caller must retry after one completes (explicit
    /// backpressure, not an unbounded queue). Slots of *retired*
    /// sessions — budget exhausted, results drained — are recycled
    /// before this is returned.
    Full,
    /// The link carries no traffic: zero initial packets or a zero-byte
    /// PSDU.
    EmptyLink,
    /// The admission budget does not cover the initial traffic.
    BudgetBelowTraffic {
        /// Initial traffic (`LinkConfig::packets`).
        packets: usize,
        /// Requested admission budget.
        max_packets: usize,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Full => write!(f, "engine is at max_sessions; admission rejected"),
            AdmitError::EmptyLink => {
                write!(
                    f,
                    "link has zero packets or a zero-byte PSDU; admission rejected"
                )
            }
            AdmitError::BudgetBelowTraffic {
                packets,
                max_packets,
            } => write!(
                f,
                "admission budget {max_packets} below initial traffic {packets}"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Why traffic was not fed to a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedError {
    /// The feed would exceed the packet budget declared at admission
    /// (which sized the preallocated latency log).
    BudgetExceeded {
        /// Packets already fed.
        fed: usize,
        /// Admission-time ceiling.
        max_packets: usize,
    },
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::BudgetExceeded { fed, max_packets } => write!(
                f,
                "feed would exceed the admitted budget ({fed} fed, max {max_packets})"
            ),
        }
    }
}

impl std::error::Error for FeedError {}

/// Handle to an admitted session.
pub type SessionId = usize;

/// One completed chunk, as published through the session's ring.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkStat {
    /// Packets simulated in this chunk.
    packets: u32,
    /// Packets that decoded.
    decoded: u32,
    /// Worker-side service time: chunk claim to ring push.
    service_ns: u64,
}

/// Fixed-capacity per-session result ring plus the parked flag the
/// backpressure protocol toggles. The worker *reserves* a slot (under
/// the ring lock) before simulating a chunk; only the collector frees
/// slots, so a successful reservation can never be invalidated.
#[derive(Debug)]
struct ChunkRing {
    buf: Box<[ChunkStat]>,
    head: usize,
    len: usize,
    /// Set by a worker that found the ring full; cleared (and the
    /// session re-queued) by the collector on the next drain.
    parked: bool,
}

impl ChunkRing {
    fn new(capacity: usize) -> Self {
        ChunkRing {
            buf: vec![ChunkStat::default(); capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            parked: false,
        }
    }

    fn push(&mut self, stat: ChunkStat) {
        debug_assert!(self.len < self.buf.len(), "ring slot was reserved");
        let idx = (self.head + self.len) % self.buf.len();
        self.buf[idx] = stat;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<ChunkStat> {
        if self.len == 0 {
            return None;
        }
        let stat = self.buf[self.head];
        self.head = (self.head + 1) % self.buf.len();
        self.len -= 1;
        Some(stat)
    }
}

/// Everything a worker needs to advance one session: its link cursor
/// (stream state and tally) and the traffic bookkeeping. Owned by
/// exactly one worker at a time (per-session mutex), never by two.
struct SessionCore {
    cursor: LinkCursor,
    /// Packets fed so far (admission + [`SessionEngine::feed`]).
    fed: usize,
    /// Admission-time ceiling on `fed`.
    max_packets: usize,
    /// Sum of chunk service times, reported as [`LinkReport::elapsed`].
    service_ns: u64,
}

struct SessionSlot {
    core: Mutex<SessionCore>,
    ring: Mutex<ChunkRing>,
}

/// Scheduler shared state: a run queue (sessions with pending chunks)
/// for the workers and a dirty queue (sessions with undrained results)
/// for the collector. Both queues hold bare `u32` indices and are
/// preallocated to their worst case, so the hot path never allocates
/// and each lock is held for a handful of instructions.
struct Scheduler {
    run_q: Mutex<VecDeque<u32>>,
    run_cv: Condvar,
    dirty_q: Mutex<VecDeque<u32>>,
    dirty_cv: Condvar,
    /// Sessions of the current drive not yet fully drained.
    active: AtomicUsize,
    shutdown: AtomicBool,
    /// Backpressure events: times a worker parked a full-ring session.
    parks: AtomicU64,
}

/// Collector-side accounting, only ever touched by the single
/// collector (or the inline drive loop).
struct CollectorState {
    /// Service time of every chunk ever drained, in drain order.
    latencies_ns: Vec<u64>,
    /// Worst-case chunks across all admitted budgets — the latency
    /// log's preallocated capacity target (`Vec::reserve` guarantees
    /// `len + n`, not a cumulative total, so admission tracks the
    /// absolute target explicitly).
    expected_chunks: usize,
    /// Chunks still expected from each session in the current drive.
    pending: Vec<usize>,
    packets: u64,
    decoded: u64,
}

/// Summary of one [`SessionEngine::drive`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriveStats {
    /// Sessions that had pending traffic when the drive started.
    pub sessions: usize,
    /// Chunks processed.
    pub chunks: usize,
    /// Packets processed.
    pub packets: u64,
    /// Packets that decoded.
    pub decoded: u64,
    /// Wall-clock time of the drive.
    pub wall: Duration,
    /// Median chunk service time.
    pub service_p50: Duration,
    /// 99th-percentile chunk service time.
    pub service_p99: Duration,
    /// Backpressure events during this drive (full-ring parks).
    pub parks: u64,
}

impl DriveStats {
    /// Completed sessions per wall-clock second (sessions whose whole
    /// pending budget was served by this drive).
    pub fn sessions_per_s(&self) -> f64 {
        self.sessions as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// Packets per wall-clock second.
    pub fn packets_per_s(&self) -> f64 {
        self.packets as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

/// The streaming session engine. See the module docs for the
/// determinism / zero-allocation / backpressure contract.
pub struct SessionEngine {
    cfg: ServeConfig,
    slots: Vec<SessionSlot>,
    sched: Scheduler,
    collector: Mutex<CollectorState>,
}

impl SessionEngine {
    /// Creates an engine with every scheduler structure preallocated
    /// for `cfg.max_sessions` sessions.
    ///
    /// # Panics
    ///
    /// Panics if any [`ServeConfig`] bound is zero.
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(cfg.max_sessions > 0, "need room for at least one session");
        assert!(
            cfg.chunk_packets > 0,
            "chunks must hold at least one packet"
        );
        assert!(cfg.ring_chunks > 0, "rings must hold at least one chunk");
        SessionEngine {
            cfg,
            slots: Vec::with_capacity(cfg.max_sessions),
            sched: Scheduler {
                run_q: Mutex::new(VecDeque::with_capacity(cfg.max_sessions)),
                run_cv: Condvar::new(),
                dirty_q: Mutex::new(VecDeque::with_capacity(cfg.max_sessions * cfg.ring_chunks)),
                dirty_cv: Condvar::new(),
                active: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                parks: AtomicU64::new(0),
            },
            collector: Mutex::new(CollectorState {
                latencies_ns: Vec::new(),
                expected_chunks: 0,
                pending: Vec::with_capacity(cfg.max_sessions),
                packets: 0,
                decoded: 0,
            }),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Admitted sessions.
    pub fn sessions(&self) -> usize {
        self.slots.len()
    }

    /// Total backpressure parks since construction.
    pub fn parks(&self) -> u64 {
        self.sched.parks.load(Ordering::Relaxed)
    }

    /// Admits a session and preallocates everything it will ever need:
    /// the per-session arenas, the result ring, and `max_packets /
    /// chunk_packets` slots of the latency log. `link.packets` is the
    /// initial traffic; [`SessionEngine::feed`] may stream more, up to
    /// `max_packets` in total.
    ///
    /// At capacity, the slot of a *retired* session — one whose whole
    /// admission budget has been served and drained — is recycled (its
    /// [`SessionId`] is reused and its report replaced), so admission
    /// cycles indefinitely through a bounded engine.
    ///
    /// # Errors
    ///
    /// The link is checked before any slot is looked at or recycled:
    /// - [`AdmitError::EmptyLink`] on zero initial packets or a
    ///   zero-byte PSDU;
    /// - [`AdmitError::BudgetBelowTraffic`] if `max_packets <
    ///   link.packets`.
    ///
    /// Then [`AdmitError::Full`] when all `max_sessions` slots hold live
    /// sessions.
    pub fn admit(&mut self, link: LinkConfig, max_packets: usize) -> Result<SessionId, AdmitError> {
        if link.packets == 0 || link.psdu_len == 0 {
            return Err(AdmitError::EmptyLink);
        }
        if max_packets < link.packets {
            return Err(AdmitError::BudgetBelowTraffic {
                packets: link.packets,
                max_packets,
            });
        }
        let reuse = if self.slots.len() == self.cfg.max_sessions {
            Some(self.find_retired_slot().ok_or(AdmitError::Full)?)
        } else {
            None
        };
        let core = SessionCore {
            fed: link.packets,
            max_packets,
            service_ns: 0,
            cursor: LinkCursor::new(link),
        };
        let col = self.collector.get_mut().expect("collector lock");
        let sid = match reuse {
            Some(sid) => {
                let slot = &mut self.slots[sid];
                *slot.core.get_mut().expect("session lock") = core;
                let ring = slot.ring.get_mut().expect("ring");
                debug_assert_eq!(ring.len, 0, "retired ring is drained");
                ring.head = 0;
                ring.parked = false;
                sid
            }
            None => {
                self.slots.push(SessionSlot {
                    core: Mutex::new(core),
                    ring: Mutex::new(ChunkRing::new(self.cfg.ring_chunks)),
                });
                col.pending.push(0);
                self.slots.len() - 1
            }
        };
        col.expected_chunks += max_packets.div_ceil(self.cfg.chunk_packets);
        let extra = col.expected_chunks - col.latencies_ns.len();
        col.latencies_ns.reserve(extra);
        Ok(sid)
    }

    /// Finds a slot whose session has retired: budget fully fed,
    /// every fed packet processed, and every result drained. Such a
    /// session can never be scheduled again, so its slot is safe to
    /// hand to a new admission.
    fn find_retired_slot(&mut self) -> Option<SessionId> {
        let col = self.collector.get_mut().expect("collector lock");
        self.slots.iter_mut().enumerate().find_map(|(sid, slot)| {
            let core = slot.core.get_mut().expect("session lock");
            let ring = slot.ring.get_mut().expect("ring");
            let retired = core.fed == core.max_packets
                && core.cursor.next_packet() == core.fed
                && ring.len == 0
                && col.pending[sid] == 0;
            retired.then_some(sid)
        })
    }

    /// Streams `extra` more packets into an admitted session. The new
    /// traffic continues the session's RNG and front-end state exactly
    /// where the previous chunks left off, so a session fed `a` then
    /// `b` packets reports bit-identically to one run with `a + b`.
    ///
    /// # Errors
    ///
    /// [`FeedError::BudgetExceeded`] if the admission-time budget would
    /// be exceeded.
    pub fn feed(&mut self, session: SessionId, extra: usize) -> Result<(), FeedError> {
        let core = self.slots[session].core.get_mut().expect("session lock");
        if core.fed + extra > core.max_packets {
            return Err(FeedError::BudgetExceeded {
                fed: core.fed,
                max_packets: core.max_packets,
            });
        }
        core.fed += extra;
        Ok(())
    }

    /// [`SessionEngine::feed`] for every admitted session.
    ///
    /// # Errors
    ///
    /// Fails on the first session whose budget would be exceeded.
    pub fn feed_all(&mut self, extra: usize) -> Result<(), FeedError> {
        for sid in 0..self.slots.len() {
            self.feed(sid, extra)?;
        }
        Ok(())
    }

    /// Serves every pending chunk of every session to completion and
    /// returns the drive summary.
    ///
    /// With a multi-worker pool, `pool.threads()` workers process
    /// chunks while a collector thread drains rings; with
    /// [`ThreadPool::serial`] the whole drive runs inline on the
    /// calling thread (no spawns, zero steady-state allocations). The
    /// per-session results are identical either way.
    pub fn drive(&mut self, pool: &ThreadPool) -> DriveStats {
        let started = Instant::now();
        let parks_before = self.sched.parks.load(Ordering::Relaxed);
        // Seed the run queue and the collector's expectations. `&mut
        // self` means nothing else holds the locks.
        let mut active = 0usize;
        {
            let col = self.collector.get_mut().expect("collector lock");
            let run_q = self.sched.run_q.get_mut().expect("run queue");
            for (sid, slot) in self.slots.iter_mut().enumerate() {
                let core = slot.core.get_mut().expect("session lock");
                let remaining = core.fed - core.cursor.next_packet();
                col.pending[sid] = remaining.div_ceil(self.cfg.chunk_packets);
                if remaining > 0 {
                    run_q.push_back(sid as u32);
                    active += 1;
                }
            }
        }
        let (lat_start, packets_before, decoded_before) = {
            let col = self.collector.get_mut().expect("collector lock");
            (col.latencies_ns.len(), col.packets, col.decoded)
        };
        self.sched.active.store(active, Ordering::Release);
        self.sched.shutdown.store(active == 0, Ordering::Release);
        if active > 0 {
            if pool.threads() == 1 {
                self.drive_inline();
            } else {
                let engine = &*self;
                std::thread::scope(|s| {
                    let collector = s.spawn(move || engine.collector_loop());
                    pool.run_workers(|_| engine.worker_loop());
                    collector.join().expect("collector thread");
                });
            }
        }
        let wall = started.elapsed();
        let col = self.collector.get_mut().expect("collector lock");
        let drained = &mut col.latencies_ns[lat_start..];
        drained.sort_unstable();
        let (p50, p99) = percentiles(drained);
        DriveStats {
            sessions: active,
            chunks: drained.len(),
            packets: col.packets - packets_before,
            decoded: col.decoded - decoded_before,
            wall,
            service_p50: Duration::from_nanos(p50),
            service_p99: Duration::from_nanos(p99),
            parks: self.sched.parks.load(Ordering::Relaxed) - parks_before,
        }
    }

    /// The session's accumulated report, in exactly the shape
    /// [`LinkSimulation::run`] would have produced for the packets fed
    /// so far ([`LinkReport::elapsed`] is the summed chunk service
    /// time; every other field is bit-identical).
    ///
    /// [`LinkSimulation::run`]: crate::link::LinkSimulation::run
    pub fn report(&self, session: SessionId) -> LinkReport {
        let core = self.slots[session].core.lock().expect("session lock");
        core.cursor
            .tally()
            .link_report(Duration::from_nanos(core.service_ns))
    }

    /// The link configuration a session was admitted with.
    pub fn link_config(&self, session: SessionId) -> LinkConfig {
        self.slots[session]
            .core
            .lock()
            .expect("session lock")
            .cursor
            .config()
            .clone()
    }

    /// Serial drive: worker and collector interleaved on the calling
    /// thread. Rings are drained after every chunk, so parking cannot
    /// trigger; the chunk schedule is the same round-robin the queue
    /// gives the multi-worker drive, and per-session results do not
    /// depend on the schedule at all.
    fn drive_inline(&self) {
        let mut col = self.collector.lock().expect("collector lock");
        loop {
            let sid = {
                let mut q = self.sched.run_q.lock().expect("run queue");
                q.pop_front()
            };
            let Some(sid) = sid else { break };
            let sid = sid as usize;
            let more = self.process_one(sid);
            if more {
                let mut q = self.sched.run_q.lock().expect("run queue");
                q.push_back(sid as u32);
            }
            self.drain(sid, &mut col);
        }
        debug_assert_eq!(self.sched.active.load(Ordering::Acquire), 0);
        self.sched.shutdown.store(true, Ordering::Release);
    }

    /// One worker: claim a session, reserve a ring slot (or park),
    /// simulate one chunk, publish the result, re-queue the session if
    /// it has more traffic.
    fn worker_loop(&self) {
        loop {
            let sid = {
                let mut q = self.sched.run_q.lock().expect("run queue");
                loop {
                    if let Some(sid) = q.pop_front() {
                        break sid as usize;
                    }
                    if self.sched.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    q = self.sched.run_cv.wait(q).expect("run queue");
                }
            };
            // Reserve a result slot *before* doing the work: only the
            // collector frees slots, so space found here cannot vanish.
            {
                let mut ring = self.slots[sid].ring.lock().expect("ring");
                if ring.len == ring.buf.len() {
                    // Backpressure: drop the claim; the collector
                    // re-queues the session when it drains this ring.
                    ring.parked = true;
                    self.sched.parks.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            let more = self.process_one(sid);
            if more {
                let mut q = self.sched.run_q.lock().expect("run queue");
                q.push_back(sid as u32);
                self.sched.run_cv.notify_one();
            }
            {
                let mut dq = self.sched.dirty_q.lock().expect("dirty queue");
                dq.push_back(sid as u32);
                self.sched.dirty_cv.notify_one();
            }
        }
    }

    /// The collector: drain dirty rings into the latency log, unpark
    /// full-ring sessions, and shut the drive down when every session
    /// of the drive has been fully drained.
    fn collector_loop(&self) {
        let mut col = self.collector.lock().expect("collector lock");
        loop {
            let sid = {
                let mut dq = self.sched.dirty_q.lock().expect("dirty queue");
                loop {
                    if let Some(sid) = dq.pop_front() {
                        break sid as usize;
                    }
                    dq = self.sched.dirty_cv.wait(dq).expect("dirty queue");
                }
            };
            self.drain(sid, &mut col);
            if self.sched.active.load(Ordering::Acquire) == 0 {
                self.sched.shutdown.store(true, Ordering::Release);
                let _q = self.sched.run_q.lock().expect("run queue");
                self.sched.run_cv.notify_all();
                return;
            }
        }
    }

    /// Steps `sid`'s cursor by one chunk and publishes the chunk's
    /// result. Returns whether the session still has traffic afterwards.
    fn process_one(&self, sid: usize) -> bool {
        let slot = &self.slots[sid];
        let t0 = Instant::now();
        let (stat, more) = {
            let mut core = slot.core.lock().expect("session lock");
            let first = core.cursor.next_packet();
            let n = self.cfg.chunk_packets.min(core.fed - first);
            debug_assert!(n > 0, "scheduled a session with no pending traffic");
            let decoded_before = core.cursor.tally().decoded_packets;
            core.cursor.step(n);
            let stat = ChunkStat {
                packets: n as u32,
                decoded: (core.cursor.tally().decoded_packets - decoded_before) as u32,
                service_ns: t0.elapsed().as_nanos() as u64,
            };
            core.service_ns += stat.service_ns;
            (stat, first + n < core.fed)
        };
        slot.ring.lock().expect("ring").push(stat);
        more
    }

    /// Drains `sid`'s ring into the collector state, re-queues the
    /// session if a worker parked it, and retires the session when its
    /// last expected chunk of the drive arrives.
    fn drain(&self, sid: usize, col: &mut CollectorState) {
        let was_pending = col.pending[sid];
        let parked = {
            let mut ring = self.slots[sid].ring.lock().expect("ring");
            while let Some(stat) = ring.pop() {
                col.latencies_ns.push(stat.service_ns);
                col.packets += stat.packets as u64;
                col.decoded += stat.decoded as u64;
                col.pending[sid] -= 1;
            }
            let parked = ring.parked;
            ring.parked = false;
            parked
        };
        if parked {
            let mut q = self.sched.run_q.lock().expect("run queue");
            q.push_back(sid as u32);
            self.sched.run_cv.notify_one();
        }
        if was_pending > 0 && col.pending[sid] == 0 {
            self.sched.active.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Nearest-rank p50/p99 of an already sorted slice (0 for an empty
/// one).
fn percentiles(sorted_ns: &[u64]) -> (u64, u64) {
    if sorted_ns.is_empty() {
        return (0, 0);
    }
    let pick = |p: f64| sorted_ns[((sorted_ns.len() - 1) as f64 * p).round() as usize];
    (pick(0.50), pick(0.99))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{FrontEnd, LinkSimulation};
    use wlan_phy::Rate;

    fn quick_link(seed: u64, packets: usize) -> LinkConfig {
        LinkConfig {
            rate: Rate::R24,
            psdu_len: 48,
            packets,
            seed,
            snr_db: Some(14.0),
            front_end: FrontEnd::Ideal,
            ..LinkConfig::default()
        }
    }

    fn assert_reports_equal(got: &LinkReport, want: &LinkReport, what: &str) {
        assert_eq!(got.meter, want.meter, "{what}: meter");
        assert_eq!(got.decoded_packets, want.decoded_packets, "{what}: decoded");
        assert_eq!(
            got.evm_db.map(f64::to_bits),
            want.evm_db.map(f64::to_bits),
            "{what}: evm"
        );
        assert_eq!(got.packets, want.packets, "{what}: packets");
    }

    #[test]
    fn admission_is_bounded() {
        let mut eng = SessionEngine::new(ServeConfig {
            max_sessions: 2,
            ..ServeConfig::default()
        });
        assert!(eng.admit(quick_link(1, 2), 2).is_ok());
        assert!(eng.admit(quick_link(2, 2), 2).is_ok());
        assert_eq!(eng.admit(quick_link(3, 2), 2), Err(AdmitError::Full));
    }

    #[test]
    fn empty_links_are_rejected() {
        let mut eng = SessionEngine::new(ServeConfig::default());
        assert_eq!(eng.admit(quick_link(1, 0), 4), Err(AdmitError::EmptyLink));
        let empty_psdu = LinkConfig {
            psdu_len: 0,
            ..quick_link(1, 2)
        };
        assert_eq!(eng.admit(empty_psdu, 4), Err(AdmitError::EmptyLink));
        assert_eq!(eng.sessions(), 0, "a rejected link takes no slot");
    }

    #[test]
    fn budget_below_traffic_is_rejected() {
        let mut eng = SessionEngine::new(ServeConfig {
            max_sessions: 1,
            ..ServeConfig::default()
        });
        assert_eq!(
            eng.admit(quick_link(1, 3), 2),
            Err(AdmitError::BudgetBelowTraffic {
                packets: 3,
                max_packets: 2
            })
        );
        // A retired slot is not recycled for a rejected link: the
        // served session keeps its report.
        let sid = eng.admit(quick_link(2, 2), 2).unwrap();
        eng.drive(&ThreadPool::serial());
        assert!(matches!(
            eng.admit(quick_link(3, 3), 2),
            Err(AdmitError::BudgetBelowTraffic { .. })
        ));
        let want = LinkSimulation::new(quick_link(2, 2)).run();
        assert_reports_equal(&eng.report(sid), &want, "retired session");
    }

    #[test]
    fn completed_sessions_free_their_slots() {
        let mut eng = SessionEngine::new(ServeConfig {
            max_sessions: 2,
            chunk_packets: 2,
            ring_chunks: 4,
        });
        let a = eng.admit(quick_link(1, 2), 2).unwrap();
        let b = eng.admit(quick_link(2, 2), 2).unwrap();
        assert_eq!(eng.admit(quick_link(3, 2), 2), Err(AdmitError::Full));
        eng.drive(&ThreadPool::serial());
        // Both sessions served their whole budget: admission recycles
        // their slots and serving continues beyond max_sessions.
        let c = eng.admit(quick_link(3, 2), 2).unwrap();
        assert!(c == a || c == b, "recycled an existing slot");
        let d = eng.admit(quick_link(4, 2), 2).unwrap();
        assert_ne!(c, d);
        assert_eq!(eng.admit(quick_link(5, 2), 2), Err(AdmitError::Full));
        eng.drive(&ThreadPool::serial());
        let want = LinkSimulation::new(quick_link(3, 2)).run();
        assert_reports_equal(&eng.report(c), &want, "recycled session");
    }

    #[test]
    fn live_sessions_are_not_recycled() {
        // Budget headroom left (fed < max_packets) keeps the slot even
        // after all currently-fed traffic has been served.
        let mut eng = SessionEngine::new(ServeConfig {
            max_sessions: 1,
            ..ServeConfig::default()
        });
        let sid = eng.admit(quick_link(1, 2), 4).unwrap();
        eng.drive(&ThreadPool::serial());
        assert_eq!(eng.admit(quick_link(2, 2), 2), Err(AdmitError::Full));
        eng.feed(sid, 2).unwrap();
        eng.drive(&ThreadPool::serial());
        let recycled = eng.admit(quick_link(2, 2), 2).unwrap();
        assert_eq!(recycled, sid);
    }

    #[test]
    fn mixed_profile_sessions_match_serial_runs() {
        let mut eng = SessionEngine::new(ServeConfig {
            chunk_packets: 2,
            ..ServeConfig::default()
        });
        let mut admitted = Vec::new();
        for (i, profile) in wlan_phy::ALL_PROFILES.into_iter().enumerate() {
            let cfg = LinkConfig {
                profile,
                snr_db: Some(20.0),
                ..quick_link(7 + i as u64, 3)
            };
            admitted.push((eng.admit(cfg.clone(), 3).unwrap(), cfg));
        }
        eng.drive(&ThreadPool::serial());
        for (sid, cfg) in admitted {
            let want = LinkSimulation::new(cfg.clone()).run();
            assert_reports_equal(&eng.report(sid), &want, cfg.profile.name);
        }
    }

    #[test]
    fn feed_is_bounded_by_admission_budget() {
        let mut eng = SessionEngine::new(ServeConfig::default());
        let sid = eng.admit(quick_link(1, 2), 4).unwrap();
        assert!(eng.feed(sid, 2).is_ok());
        assert_eq!(
            eng.feed(sid, 1),
            Err(FeedError::BudgetExceeded {
                fed: 4,
                max_packets: 4
            })
        );
    }

    #[test]
    fn served_sessions_match_serial_run() {
        let mut eng = SessionEngine::new(ServeConfig {
            max_sessions: 4,
            chunk_packets: 3,
            ring_chunks: 2,
        });
        let mut sids = Vec::new();
        for s in 0..4u64 {
            sids.push(eng.admit(quick_link(100 + s, 7), 7).unwrap());
        }
        let stats = eng.drive(&ThreadPool::new(3));
        assert_eq!(stats.sessions, 4);
        assert_eq!(stats.packets, 4 * 7);
        for (s, &sid) in sids.iter().enumerate() {
            let want = LinkSimulation::new(quick_link(100 + s as u64, 7)).run();
            assert_reports_equal(&eng.report(sid), &want, &format!("session {s}"));
        }
    }

    #[test]
    fn feeding_more_traffic_continues_the_stream() {
        // 3 packets now, 4 later must equal one 7-packet serial run.
        let mut eng = SessionEngine::new(ServeConfig {
            chunk_packets: 2,
            ..ServeConfig::default()
        });
        let sid = eng.admit(quick_link(9, 3), 7).unwrap();
        eng.drive(&ThreadPool::serial());
        eng.feed(sid, 4).unwrap();
        eng.drive(&ThreadPool::serial());
        let want = LinkSimulation::new(quick_link(9, 7)).run();
        assert_reports_equal(&eng.report(sid), &want, "fed stream");
    }

    #[test]
    fn drive_with_no_traffic_is_a_no_op() {
        let mut eng = SessionEngine::new(ServeConfig::default());
        let sid = eng.admit(quick_link(5, 2), 4).unwrap();
        eng.drive(&ThreadPool::serial());
        let stats = eng.drive(&ThreadPool::new(2));
        assert_eq!(stats.sessions, 0);
        assert_eq!(stats.chunks, 0);
        assert_eq!(eng.report(sid).packets, 2);
    }

    #[test]
    fn tiny_rings_park_and_recover() {
        // ring_chunks = 1 with many chunks per session forces the
        // backpressure path; results must still be exact.
        let mut eng = SessionEngine::new(ServeConfig {
            max_sessions: 2,
            chunk_packets: 1,
            ring_chunks: 1,
        });
        for s in 0..2u64 {
            eng.admit(quick_link(40 + s, 6), 6).unwrap();
        }
        eng.drive(&ThreadPool::new(4));
        for s in 0..2u64 {
            let want = LinkSimulation::new(quick_link(40 + s, 6)).run();
            assert_reports_equal(&eng.report(s as usize), &want, "parked session");
        }
    }
}
