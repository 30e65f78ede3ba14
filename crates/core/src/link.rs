//! The end-to-end link testbench: transmitter → channel (+ adjacent
//! channel) → RF front-end at a chosen abstraction level → DSP receiver
//! → BER/EVM meters.

use std::cell::RefCell;
use std::time::{Duration, Instant};
use wlan_ams::CosimReceiver;
use wlan_channel::awgn::Awgn;
use wlan_channel::fading::MultipathChannel;
use wlan_channel::interferer::SceneRenderer;
use wlan_dsp::{Complex, Rng};
use wlan_exec::{split_seed, ThreadPool};
use wlan_meas::montecarlo::{run_sharded, EarlyStop, McAccumulator, McPlan};
use wlan_meas::BerMeter;
use wlan_phy::receiver::RxScratch;
use wlan_phy::transmitter::TxScratch;
use wlan_phy::{OfdmProfile, Rate, Receiver, Transmitter, IEEE_802_11A};
use wlan_rf::receiver::{DoubleConversionReceiver, RfConfig, RfScratch};

/// Adjacent-channel interferer description (paper §4.1: a duplicated
/// transmitter shifted by 20 MHz).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdjacentChannel {
    /// Center-frequency offset in Hz (±20 MHz for the first adjacent
    /// channel).
    pub offset_hz: f64,
    /// Level relative to the wanted channel in dB (paper: +16 dB for the
    /// first adjacent, +32 dB for the alternate channel).
    pub rel_db: f64,
}

impl AdjacentChannel {
    /// The paper's first adjacent channel: +20 MHz, +16 dB.
    pub fn first() -> Self {
        AdjacentChannel {
            offset_hz: 20e6,
            rel_db: 16.0,
        }
    }

    /// The paper's alternate (non-adjacent) channel: +40 MHz, +32 dB.
    pub fn alternate() -> Self {
        AdjacentChannel {
            offset_hz: 40e6,
            rel_db: 32.0,
        }
    }
}

/// RF front-end abstraction level.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // RfConfig is plain-old-data config
pub enum FrontEnd {
    /// No RF part: the DSP receiver sees the channel output directly at
    /// 20 Msps.
    Ideal,
    /// Complex-baseband behavioral RF models (SPW level).
    RfBaseband(RfConfig),
    /// Netlist-elaborated continuous-time co-simulation (AMS level).
    RfCosim {
        /// Channel-select filter edge in Hz.
        filter_edge_hz: f64,
        /// Analog solver sub-steps per 80 Msps sample.
        analog_osr: usize,
        /// Apply the paper's workaround of injecting the missing noise
        /// in the discrete-time part of the co-simulation.
        noise_workaround: bool,
    },
}

impl FrontEnd {
    /// The default co-simulation front end (no noise — reproducing the
    /// paper's AMS limitation).
    pub fn default_cosim() -> Self {
        FrontEnd::RfCosim {
            filter_edge_hz: 10e6,
            analog_osr: 8,
            noise_workaround: false,
        }
    }
}

/// Link simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// OFDM numerology profile (802.11a by default); sets the FFT grid
    /// and the DSP-side sample rate of the whole link.
    pub profile: &'static OfdmProfile,
    /// 802.11a data rate.
    pub rate: Rate,
    /// PSDU length in bytes.
    pub psdu_len: usize,
    /// Number of packets to simulate.
    pub packets: usize,
    /// Master seed (packets use derived streams).
    pub seed: u64,
    /// Wanted-channel level at the RF input in dBm (RF modes).
    pub rx_level_dbm: f64,
    /// AWGN SNR in dB for [`FrontEnd::Ideal`]; `None` = noiseless.
    /// Ignored in RF modes (noise comes from the RF models and the
    /// thermal floor).
    pub snr_db: Option<f64>,
    /// RMS delay spread of a Rayleigh multipath channel; `None` = flat.
    pub multipath_trms_s: Option<f64>,
    /// Optional adjacent-channel interferer.
    pub adjacent: Option<AdjacentChannel>,
    /// Front-end abstraction level.
    pub front_end: FrontEnd,
    /// Scene oversampling ratio for the RF modes.
    pub osr: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            profile: &IEEE_802_11A,
            rate: Rate::R24,
            psdu_len: 100,
            packets: 10,
            seed: 1,
            rx_level_dbm: -55.0,
            snr_db: None,
            multipath_trms_s: None,
            adjacent: None,
            front_end: FrontEnd::Ideal,
            osr: 4,
        }
    }
}

/// Link simulation results.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// Packets simulated.
    pub packets: usize,
    /// Packets that decoded (detected and parsed; may still carry bit
    /// errors).
    pub decoded_packets: usize,
    /// BER meter with totals.
    pub meter: BerMeter,
    /// Mean EVM (dB) over decoded packets, `None` if nothing decoded.
    pub evm_db: Option<f64>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl LinkReport {
    /// Bit error rate.
    pub fn ber(&self) -> f64 {
        self.meter.ber()
    }

    /// Packet error rate.
    pub fn per(&self) -> f64 {
        self.meter.per()
    }
}

/// Per-stream front-end and noise state: the filters settle across
/// consecutive packets of the same stream, and all per-packet working
/// buffers live in the [`PacketScratch`] arena.
struct FrontEndState {
    bb: Option<DoubleConversionReceiver>,
    cosim: Option<CosimReceiver>,
    noise: Awgn,
    scratch: PacketScratch,
}

impl FrontEndState {
    /// Builds the front end of `cfg` with its noise streams derived from
    /// `seed`, around a given arena.
    fn new(cfg: &LinkConfig, seed: u64, scratch: PacketScratch) -> Self {
        let bb = match &cfg.front_end {
            FrontEnd::RfBaseband(rf) => {
                // The front end must run at the scene's oversampled rate.
                let mut rf = *rf;
                rf.sample_rate_hz = wlan_units::Hz(cfg.profile.sample_rate * cfg.osr as f64);
                rf.osr = cfg.osr;
                Some(DoubleConversionReceiver::new(rf, seed ^ 0xABCD))
            }
            _ => None,
        };
        let cosim = match &cfg.front_end {
            FrontEnd::RfCosim {
                filter_edge_hz,
                analog_osr,
                ..
            } => Some(
                CosimReceiver::with_filter_edge(
                    *filter_edge_hz,
                    cfg.profile.sample_rate * cfg.osr as f64,
                    *analog_osr,
                    cfg.osr,
                )
                .expect("built-in netlist elaborates"),
            ),
            _ => None,
        };
        FrontEndState {
            bb,
            cosim,
            noise: Awgn::new(seed ^ 0x5EED),
            scratch,
        }
    }
}

/// Per-packet buffer arena: every transmit/channel/receive intermediate
/// of the hot loop. Buffers retain capacity between packets, so
/// steady-state simulation of every front-end level — including the
/// oversampled scene renderer and the multipath channel of the RF
/// paths — performs zero heap allocation.
struct PacketScratch {
    /// Transmitted PSDU of the current packet.
    psdu: Vec<u8>,
    /// Long-lived transmitter, re-seeded per packet.
    tx: Transmitter,
    txs: TxScratch,
    /// Burst samples (multipath replaces them in place).
    burst: Vec<Complex>,
    /// Padded + noisy channel output ([`FrontEnd::Ideal`]).
    chan: Vec<Complex>,
    /// Receiver working buffers; holds the decoded PSDU after a success.
    rx: RxScratch,
    rf: RfScratch,
    /// Decimated front-end output (RF modes).
    rf_out: Vec<Complex>,
    /// Adjacent-channel interferer payload.
    adj_psdu: Vec<u8>,
    /// Wanted burst plus the 160-sample trailing pad for the scene.
    padded: Vec<Complex>,
    /// Multipath convolution output (swapped back into `burst`).
    faded: Vec<Complex>,
    /// Per-run multipath realization, taps redrawn in place per packet.
    chan_model: MultipathChannel,
    /// Reused oversampled scene renderer (RF modes).
    renderer: SceneRenderer,
    /// Long-lived adjacent-channel transmitter, re-seeded per packet.
    adj_tx: Transmitter,
    /// Adjacent-channel burst samples.
    adj_burst: Vec<Complex>,
    /// Composite oversampled scene (RF modes).
    scene: Vec<Complex>,
}

/// What a [`PacketScratch`] is built for: its transmitters depend on the
/// rate and profile, its scene renderer on the profile and `osr`.
type ScratchKey = (Rate, &'static OfdmProfile, usize);

thread_local! {
    /// One-slot per-thread packet arena of [`LinkSimulation::run_batched`]
    /// and [`LinkSimulation::run_shard`]: the last run's
    /// [`PacketScratch`] and its key. A run of the same key takes it
    /// instead of building a fresh one, so a sweep of 1-packet shards or
    /// a stream of short runs reuses the worst-case receive reservation
    /// instead of reallocating it each time. Only capacity carries over:
    /// every buffer is overwritten before it is read.
    static THREAD_ARENA: RefCell<Option<(ScratchKey, PacketScratch)>> =
        const { RefCell::new(None) };
}

impl PacketScratch {
    fn new(rate: Rate, profile: &'static OfdmProfile, osr: usize) -> Self {
        // Worst-case SIGNAL LENGTH capacity up front: a rare decode
        // candidate with a large (or corrupted) LENGTH field must not
        // grow the receive scratch past the warm-up high-water mark.
        let mut rx = RxScratch::default();
        rx.reserve_worst_case();
        PacketScratch {
            psdu: Vec::new(),
            tx: Transmitter::with_profile(rate, profile),
            txs: TxScratch::default(),
            burst: Vec::new(),
            chan: Vec::new(),
            rx,
            rf: RfScratch::default(),
            rf_out: Vec::new(),
            adj_psdu: Vec::new(),
            padded: Vec::new(),
            faded: Vec::new(),
            chan_model: MultipathChannel::identity(),
            renderer: SceneRenderer::new(profile.sample_rate, osr),
            adj_tx: Transmitter::with_profile(rate, profile),
            adj_burst: Vec::new(),
            scene: Vec::new(),
        }
    }
}

/// Accumulated result of one Monte-Carlo shard (a batch of frames with
/// its own seed stream). Merged in shard order by the parallel driver.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// BER statistics over the shard's frames.
    pub meter: BerMeter,
    /// Frames that decoded.
    pub decoded_packets: usize,
    /// Sum of per-packet EVM (dB) over decoded frames.
    pub evm_sum_db: f64,
    /// Frames simulated.
    pub packets: usize,
}

impl ShardReport {
    /// This tally as a [`LinkReport`]: the mean EVM is taken over the
    /// decoded frames.
    pub(crate) fn link_report(&self, elapsed: Duration) -> LinkReport {
        LinkReport {
            packets: self.packets,
            decoded_packets: self.decoded_packets,
            meter: self.meter,
            evm_db: (self.decoded_packets > 0)
                .then(|| self.evm_sum_db / self.decoded_packets as f64),
            elapsed,
        }
    }
}

impl McAccumulator for ShardReport {
    fn meter(&self) -> &BerMeter {
        &self.meter
    }

    fn absorb(&mut self, other: Self) {
        self.meter.merge(&other.meter);
        self.decoded_packets += other.decoded_packets;
        self.evm_sum_db += other.evm_sum_db;
        self.packets += other.packets;
    }
}

/// One link stream, stepped packet by packet. It owns everything that
/// carries from one packet to the next: the payload and channel RNG, the
/// settled front-end filters and noise stream, the packet arena, the
/// receiver and the running tally. Stepping `a` then `b` packets is
/// therefore bit-identical to stepping `a + b` at once.
///
/// Every packet of the crate runs through [`LinkCursor::step`]:
/// [`LinkSimulation::run`] and [`LinkSimulation::run_batched`] step one
/// cursor to the end, [`LinkSimulation::run_shard`] steps a cursor
/// seeded per shard, and every serve session is a cursor stepped one
/// chunk at a time.
pub(crate) struct LinkCursor {
    config: LinkConfig,
    rng: Rng,
    fe: FrontEndState,
    rx: Receiver,
    /// Global index of the next packet; it picks the scrambler seeds.
    next_packet: usize,
    tally: ShardReport,
}

impl LinkCursor {
    /// A cursor at packet 0 of the stream `config.seed` defines.
    pub(crate) fn new(config: LinkConfig) -> Self {
        let scratch = PacketScratch::new(config.rate, config.profile, config.osr);
        let seed = config.seed;
        Self::with_scratch(config, 0, seed, scratch)
    }

    /// A cursor at global packet `first_packet` whose RNG, front-end and
    /// noise streams all derive from `seed`, around a given arena. Only
    /// the arena's capacity matters: every buffer is overwritten before
    /// it is read.
    fn with_scratch(
        config: LinkConfig,
        first_packet: usize,
        seed: u64,
        scratch: PacketScratch,
    ) -> Self {
        LinkCursor {
            rng: Rng::new(seed),
            fe: FrontEndState::new(&config, seed, scratch),
            rx: Receiver::with_profile(config.profile),
            next_packet: first_packet,
            tally: ShardReport::default(),
            config,
        }
    }

    /// [`LinkCursor::with_scratch`] around the packet arena the thread's
    /// previous run or shard of the same rate, profile and osr left
    /// behind (a fresh one otherwise), so back-to-back short runs do not
    /// reallocate the worst-case receive reservation.
    fn on_thread_arena(config: LinkConfig, first_packet: usize, seed: u64) -> Self {
        let key: ScratchKey = (config.rate, config.profile, config.osr);
        let scratch = THREAD_ARENA
            .with(|slot| slot.borrow_mut().take())
            .filter(|(k, _)| *k == key)
            .map_or_else(|| PacketScratch::new(key.0, key.1, key.2), |(_, s)| s);
        Self::with_scratch(config, first_packet, seed, scratch)
    }

    /// Hands the packet arena back to the thread and returns the tally.
    fn release_arena(self) -> ShardReport {
        let key: ScratchKey = (self.config.rate, self.config.profile, self.config.osr);
        THREAD_ARENA.with(|slot| *slot.borrow_mut() = Some((key, self.fe.scratch)));
        self.tally
    }

    /// The link configuration.
    pub(crate) fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Global index of the next packet to simulate.
    pub(crate) fn next_packet(&self) -> usize {
        self.next_packet
    }

    /// Tally of every packet stepped so far.
    pub(crate) fn tally(&self) -> &ShardReport {
        &self.tally
    }

    /// Simulates the next `n` packets — transmit, channel, front end,
    /// receive — and adds them to the tally. All buffers come from the
    /// [`PacketScratch`] arena.
    pub(crate) fn step(&mut self, n: usize) {
        let LinkCursor {
            config: cfg,
            rng,
            fe,
            rx,
            next_packet,
            tally,
        } = self;
        let FrontEndState {
            bb,
            cosim,
            noise,
            scratch,
        } = fe;
        let PacketScratch {
            psdu,
            tx,
            txs,
            burst,
            chan,
            rx: rxs,
            rf,
            rf_out,
            adj_psdu,
            padded,
            faded,
            chan_model,
            renderer,
            adj_tx,
            adj_burst,
            scene,
        } = scratch;

        for pkt in *next_packet..*next_packet + n {
            psdu.clear();
            psdu.resize(cfg.psdu_len, 0);
            rng.bytes(psdu);
            let seed_bits = ((pkt as u8).wrapping_mul(37) % 127) + 1;
            tx.set_scrambler_seed(seed_bits);
            tx.transmit_into(psdu, txs, burst);

            // Optional multipath (one realization per packet, taps
            // redrawn into the arena-held channel).
            if let Some(trms) = cfg.multipath_trms_s {
                chan_model.regenerate_rayleigh_exponential(trms, cfg.profile.sample_rate, rng);
                chan_model.apply_into(burst, faded);
                std::mem::swap(burst, faded);
            }

            let dsp_input: &[Complex] = match &cfg.front_end {
                FrontEnd::Ideal => {
                    chan.clear();
                    chan.reserve(burst.len() + 400);
                    chan.extend(std::iter::repeat_n(Complex::ZERO, 200));
                    chan.extend_from_slice(burst);
                    chan.extend(std::iter::repeat_n(Complex::ZERO, 200));
                    if let Some(snr) = cfg.snr_db {
                        // Noise power relative to burst power (≈1).
                        let np = wlan_dsp::math::db_to_lin(-snr);
                        noise.add_noise_power_in_place(chan, np);
                    }
                    chan
                }
                FrontEnd::RfBaseband(_) | FrontEnd::RfCosim { .. } => {
                    build_scene_into(
                        cfg, pkt, rng, burst, padded, renderer, adj_tx, txs, adj_psdu, adj_burst,
                        scene,
                    );
                    add_frontend_noise(cfg, noise, scene);
                    match (bb.as_mut(), cosim.as_mut()) {
                        (Some(fe), _) => fe.process_into(scene, rf, rf_out),
                        (_, Some(fe)) => fe.process_into(scene, rf_out),
                        _ => unreachable!(),
                    }
                    rf_out
                }
            };

            match rx.receive_into(dsp_input, rxs) {
                Ok(sum) if rxs.psdu.len() == psdu.len() => {
                    tally.meter.update_bytes(psdu, &rxs.psdu);
                    tally.evm_sum_db += sum.evm_db();
                    tally.decoded_packets += 1;
                }
                _ => tally.meter.update_lost_packet(8 * cfg.psdu_len),
            }
            tally.packets += 1;
        }
        *next_packet += n;
    }
}

/// Options for the sharded Monte-Carlo schedule of
/// [`LinkSimulation::run_parallel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McRun {
    /// Sweep-point index, the second coordinate of
    /// [`wlan_exec::split_seed`]; distinct points at the same master
    /// seed get independent streams.
    pub point_index: u64,
    /// Frames per shard. Small shards balance better across workers;
    /// the shard decomposition (not the thread count) defines the
    /// result.
    pub shard_packets: usize,
    /// Shards per early-stopping wave (see
    /// [`wlan_meas::montecarlo::McPlan::wave`]).
    pub wave: usize,
    /// Optional adaptive stopping rule.
    pub early_stop: Option<EarlyStop>,
}

impl Default for McRun {
    fn default() -> Self {
        McRun {
            point_index: 0,
            shard_packets: 1,
            wave: 8,
            early_stop: None,
        }
    }
}

/// The link simulation engine.
#[derive(Debug, Clone)]
pub struct LinkSimulation {
    config: LinkConfig,
}

impl LinkSimulation {
    /// Creates a simulation from its configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero packets or PSDU length.
    pub fn new(config: LinkConfig) -> Self {
        assert!(config.packets > 0, "need at least one packet");
        assert!(config.psdu_len > 0, "PSDU must not be empty");
        LinkSimulation { config }
    }

    /// The configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Runs all packets and accumulates the report: one link cursor
    /// stepped to the end.
    pub fn run(&self) -> LinkReport {
        self.run_batched(self.config.packets)
    }

    /// Runs all packets, `batch_packets` per step of the link cursor.
    /// The cursor carries every stream and filter state across steps, so
    /// the report is **bit-identical to [`LinkSimulation::run`] for any
    /// batch size**. The packet buffers come from the same per-thread
    /// arena as [`LinkSimulation::run_shard`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `batch_packets` is zero.
    pub fn run_batched(&self, batch_packets: usize) -> LinkReport {
        assert!(batch_packets >= 1, "batch must hold at least one packet");
        let started = Instant::now();
        let packets = self.config.packets;
        let mut cursor = LinkCursor::on_thread_arena(self.config.clone(), 0, self.config.seed);
        for first in (0..packets).step_by(batch_packets) {
            cursor.step(batch_packets.min(packets - first));
        }
        cursor.release_arena().link_report(started.elapsed())
    }

    /// Runs one shard of the Monte-Carlo schedule: `packets` frames with
    /// global indices `first_packet..first_packet + packets`, with all
    /// randomness drawn from the shard's own `seed` stream.
    ///
    /// Global packet indices keep the scrambler-seed schedule aligned
    /// with frame identity, so the shard decomposition — not the
    /// execution order — defines the result. The packet buffers come
    /// from a per-thread arena that the previous run or shard of the
    /// same rate, profile and osr left behind, so back-to-back small
    /// shards do not reallocate them.
    pub fn run_shard(&self, first_packet: usize, packets: usize, seed: u64) -> ShardReport {
        let mut cursor = LinkCursor::on_thread_arena(self.config.clone(), first_packet, seed);
        cursor.step(packets);
        cursor.release_arena()
    }

    /// Runs the configured frame budget as a sharded Monte-Carlo
    /// schedule on the pool.
    ///
    /// Every shard derives its RNG stream from
    /// `split_seed(seed, point_index, shard_index)`, so the result is
    /// **bit-identical for any thread count** (including a serial
    /// 1-worker pool) and early stopping — checked at fixed wave
    /// boundaries — is equally scheduling-invariant. With early
    /// stopping enabled, [`LinkReport::packets`] records the frames
    /// actually simulated, which may be fewer than the configured
    /// budget.
    ///
    /// Note this is a *different estimator* from [`LinkSimulation::run`]
    /// (shards restart the front-end filters and consume independent
    /// streams), so its BER differs from the legacy serial loop by
    /// ordinary Monte-Carlo variation — but never between two
    /// executions of itself.
    pub fn run_parallel(&self, pool: &ThreadPool, mc: &McRun) -> LinkReport {
        let cfg = &self.config;
        let started = Instant::now();
        let shard_packets = mc.shard_packets.max(1);
        let shards = cfg.packets.div_ceil(shard_packets);
        let plan = McPlan {
            shards,
            wave: mc.wave,
            early_stop: mc.early_stop,
        };
        let outcome = run_sharded(pool, &plan, |shard| {
            let first = shard * shard_packets;
            let n = shard_packets.min(cfg.packets - first);
            self.run_shard(first, n, split_seed(cfg.seed, mc.point_index, shard as u64))
        });
        outcome.acc.link_report(started.elapsed())
    }
}

/// Builds the oversampled scene into the arena: wanted channel at the
/// configured level plus the optional adjacent channel (a duplicated
/// transmitter with independent payload). Allocation-free in steady
/// state; bit-identical to rendering the same emitters through the
/// allocating [`wlan_channel::interferer::Scene`] builder.
#[allow(clippy::too_many_arguments)] // borrow-split arena fields
fn build_scene_into(
    cfg: &LinkConfig,
    pkt: usize,
    rng: &mut Rng,
    wanted: &[Complex],
    padded: &mut Vec<Complex>,
    renderer: &mut SceneRenderer,
    adj_tx: &mut Transmitter,
    txs: &mut TxScratch,
    adj_psdu: &mut Vec<u8>,
    adj_burst: &mut Vec<Complex>,
    out: &mut Vec<Complex>,
) {
    // Trailing pad: the front-end filters delay the burst by tens of
    // samples; without tail room the last OFDM symbols would fall off
    // the end of the processed buffer.
    padded.clear();
    padded.reserve(wanted.len() + 160);
    padded.extend_from_slice(wanted);
    padded.extend(std::iter::repeat_n(Complex::ZERO, 160));
    out.clear();
    renderer.add_into(
        padded,
        wlan_units::Hz(0.0),
        wlan_units::Dbm(cfg.rx_level_dbm),
        cfg.profile.fft_size * cfg.osr,
        out,
    );
    if let Some(adj) = cfg.adjacent {
        adj_psdu.clear();
        adj_psdu.resize(cfg.psdu_len, 0);
        rng.bytes(adj_psdu);
        let adj_seed = ((pkt as u8).wrapping_mul(53) % 127) + 1;
        adj_tx.set_scrambler_seed(adj_seed);
        adj_tx.transmit_into(adj_psdu, txs, adj_burst);
        renderer.add_into(
            adj_burst,
            wlan_units::Hz(adj.offset_hz),
            wlan_units::Dbm(cfg.rx_level_dbm + adj.rel_db),
            0,
            out,
        );
    }
}

/// Adds the antenna thermal floor in place. The paper's co-simulation
/// could not generate noise in the analog part; the `noise_workaround`
/// flag reproduces the suggested fix of adding it in the discrete-time
/// part.
fn add_frontend_noise(cfg: &LinkConfig, noise: &mut Awgn, scene: &mut [Complex]) {
    let fs = cfg.profile.sample_rate * cfg.osr as f64;
    let floor = wlan_rf::noise::source_noise_power(fs);
    match &cfg.front_end {
        FrontEnd::RfBaseband(_) => noise.add_noise_power_in_place(scene, floor),
        FrontEnd::RfCosim {
            noise_workaround, ..
        } => {
            if *noise_workaround {
                // Approximate the whole cascade's input-referred noise
                // (floor × system noise figure budget ≈ +6 dB).
                noise.add_noise_power_in_place(scene, floor * 4.0);
            }
        }
        FrontEnd::Ideal => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: LinkConfig) -> LinkReport {
        LinkSimulation::new(cfg).run()
    }

    #[test]
    fn ideal_noiseless_is_error_free() {
        let r = quick(LinkConfig {
            packets: 3,
            snr_db: None,
            ..LinkConfig::default()
        });
        assert_eq!(r.ber(), 0.0);
        assert_eq!(r.decoded_packets, 3);
        assert!(r.evm_db.unwrap() < -35.0);
    }

    #[test]
    fn ideal_noiseless_is_error_free_every_profile() {
        for profile in wlan_phy::ALL_PROFILES {
            let r = quick(LinkConfig {
                profile,
                packets: 3,
                snr_db: None,
                ..LinkConfig::default()
            });
            assert_eq!(r.ber(), 0.0, "{} ber", profile.name);
            assert_eq!(r.decoded_packets, 3, "{} decoded", profile.name);
        }
    }

    #[test]
    fn ideal_awgn_decodes_every_profile() {
        // Moderate SNR through the AWGN path: sample-rate-dependent code
        // (CFO, noise scaling) must hold for non-20 MHz numerologies too.
        for profile in wlan_phy::ALL_PROFILES {
            let r = quick(LinkConfig {
                profile,
                packets: 3,
                snr_db: Some(30.0),
                ..LinkConfig::default()
            });
            assert_eq!(r.ber(), 0.0, "{} ber {}", profile.name, r.ber());
        }
    }

    #[test]
    fn ideal_low_snr_fails() {
        let r = quick(LinkConfig {
            packets: 3,
            rate: Rate::R54,
            snr_db: Some(5.0),
            ..LinkConfig::default()
        });
        assert!(r.ber() > 0.05, "ber {}", r.ber());
    }

    #[test]
    fn ideal_snr_ordering() {
        let mk = |snr: f64| {
            quick(LinkConfig {
                packets: 4,
                rate: Rate::R36,
                snr_db: Some(snr),
                seed: 3,
                ..LinkConfig::default()
            })
            .ber()
        };
        let low = mk(8.0);
        let high = mk(30.0);
        assert!(low > high, "low-SNR {low} vs high-SNR {high}");
        assert_eq!(high, 0.0);
    }

    #[test]
    fn rf_baseband_strong_signal_decodes() {
        let r = quick(LinkConfig {
            packets: 2,
            rx_level_dbm: -50.0,
            front_end: FrontEnd::RfBaseband(RfConfig::default()),
            ..LinkConfig::default()
        });
        assert_eq!(
            r.ber(),
            0.0,
            "per {} decoded {}",
            r.per(),
            r.decoded_packets
        );
    }

    #[test]
    fn rf_baseband_below_sensitivity_fails() {
        let r = quick(LinkConfig {
            packets: 2,
            rate: Rate::R54,
            rx_level_dbm: -95.0,
            front_end: FrontEnd::RfBaseband(RfConfig::default()),
            ..LinkConfig::default()
        });
        assert!(r.ber() > 0.05, "ber {}", r.ber());
    }

    #[test]
    fn adjacent_channel_tolerated_with_good_filter() {
        let r = quick(LinkConfig {
            packets: 2,
            rx_level_dbm: -50.0,
            adjacent: Some(AdjacentChannel::first()),
            front_end: FrontEnd::RfBaseband(RfConfig::default()),
            ..LinkConfig::default()
        });
        assert!(
            r.ber() < 0.02,
            "adjacent channel broke the link: {}",
            r.ber()
        );
    }

    #[test]
    fn narrow_filter_with_adjacent_fails() {
        let rf = RfConfig {
            channel_filter_edge_hz: wlan_units::Hz(3e6), // destroys the signal band
            ..RfConfig::default()
        };
        let r = quick(LinkConfig {
            packets: 2,
            rx_level_dbm: -50.0,
            adjacent: Some(AdjacentChannel::first()),
            front_end: FrontEnd::RfBaseband(rf),
            ..LinkConfig::default()
        });
        assert!(r.ber() > 0.05, "ber {}", r.ber());
    }

    #[test]
    fn cosim_strong_signal_decodes() {
        let r = quick(LinkConfig {
            packets: 1,
            rx_level_dbm: -50.0,
            front_end: FrontEnd::RfCosim {
                filter_edge_hz: 10e6,
                analog_osr: 4,
                noise_workaround: false,
            },
            ..LinkConfig::default()
        });
        assert_eq!(r.ber(), 0.0, "decoded {}", r.decoded_packets);
    }

    #[test]
    fn multipath_flat_vs_dispersive() {
        let r = quick(LinkConfig {
            packets: 4,
            rate: Rate::R12,
            snr_db: Some(30.0),
            multipath_trms_s: Some(50e-9),
            seed: 9,
            ..LinkConfig::default()
        });
        // 50 ns delay spread fits comfortably in the 800 ns guard.
        assert!(r.ber() < 0.01, "ber {}", r.ber());
    }

    /// Ideal with multipath, RfBaseband with the adjacent channel, and
    /// RfCosim with the noise workaround: every stream the cursor
    /// carries (payload RNG, taps, scene, front-end filters and noise).
    fn cursor_cases() -> Vec<LinkConfig> {
        vec![
            LinkConfig {
                packets: 6,
                psdu_len: 60,
                rate: Rate::R36,
                snr_db: Some(12.0),
                multipath_trms_s: Some(50e-9),
                seed: 13,
                ..LinkConfig::default()
            },
            LinkConfig {
                packets: 4,
                psdu_len: 48,
                rate: Rate::R24,
                rx_level_dbm: -50.0,
                adjacent: Some(AdjacentChannel::first()),
                front_end: FrontEnd::RfBaseband(RfConfig::default()),
                seed: 14,
                ..LinkConfig::default()
            },
            LinkConfig {
                packets: 3,
                psdu_len: 40,
                rx_level_dbm: -50.0,
                front_end: FrontEnd::RfCosim {
                    filter_edge_hz: 10e6,
                    analog_osr: 2,
                    noise_workaround: true,
                },
                seed: 15,
                ..LinkConfig::default()
            },
        ]
    }

    fn assert_tally_eq(got: &ShardReport, want: &ShardReport, what: &str) {
        assert_eq!(got.meter, want.meter, "{what}: meter");
        assert_eq!(got.decoded_packets, want.decoded_packets, "{what}: decoded");
        assert_eq!(
            got.evm_sum_db.to_bits(),
            want.evm_sum_db.to_bits(),
            "{what}: evm bits"
        );
        assert_eq!(got.packets, want.packets, "{what}: packets");
    }

    #[test]
    fn cursor_steps_are_split_invariant() {
        // Seeded random splits of the packet budget into steps of at
        // least one packet must tally exactly what one `run()` reports.
        let mut splits = Rng::new(0x5717);
        for cfg in cursor_cases() {
            let label = format!("{:?}", cfg.front_end);
            let want = LinkSimulation::new(cfg.clone()).run();
            for trial in 0..3 {
                let mut cursor = LinkCursor::new(cfg.clone());
                let mut steps = Vec::new();
                while cursor.next_packet() < cfg.packets {
                    let left = cfg.packets - cursor.next_packet();
                    let n = 1 + (splits.next_u64() as usize) % left;
                    cursor.step(n);
                    steps.push(n);
                }
                let got = cursor.tally().link_report(Duration::ZERO);
                let what = format!("{label} trial {trial} steps {steps:?}");
                assert_eq!(got.meter, want.meter, "{what}: meter");
                assert_eq!(got.decoded_packets, want.decoded_packets, "{what}");
                assert_eq!(
                    got.evm_db.map(f64::to_bits),
                    want.evm_db.map(f64::to_bits),
                    "{what}: evm bits"
                );
                assert_eq!(got.packets, want.packets, "{what}: packets");
            }
        }
    }

    #[test]
    fn run_shard_is_a_cursor_seeded_per_shard() {
        // A shard equals a fresh cursor seeded with the shard seed and
        // started at the shard's first packet, also when it runs on the
        // arena a previous shard of the same key left behind.
        for cfg in cursor_cases() {
            let label = format!("{:?}", cfg.front_end);
            let sim = LinkSimulation::new(cfg.clone());
            let (first, n, seed) = (2, cfg.packets - 1, 0xfeed);
            let mut cursor = LinkCursor::with_scratch(
                cfg.clone(),
                first,
                seed,
                PacketScratch::new(cfg.rate, cfg.profile, cfg.osr),
            );
            cursor.step(n);
            let first_run = sim.run_shard(first, n, seed);
            let warm = sim.run_shard(first, n, seed);
            assert_tally_eq(&first_run, cursor.tally(), &format!("{label} first"));
            assert_tally_eq(&warm, cursor.tally(), &format!("{label} warm"));
        }
    }

    #[test]
    #[should_panic]
    fn zero_batch_panics() {
        let sim = LinkSimulation::new(LinkConfig {
            packets: 1,
            ..LinkConfig::default()
        });
        let _ = sim.run_batched(0);
    }

    #[test]
    fn run_parallel_is_thread_invariant() {
        let sim = LinkSimulation::new(LinkConfig {
            packets: 4,
            psdu_len: 40,
            rate: Rate::R36,
            snr_db: Some(9.0),
            seed: 21,
            ..LinkConfig::default()
        });
        let mc = McRun::default();
        let base = sim.run_parallel(&ThreadPool::serial(), &mc);
        for threads in [2, 4] {
            let r = sim.run_parallel(&ThreadPool::new(threads), &mc);
            assert_eq!(r.meter, base.meter, "{threads} threads");
            assert_eq!(r.decoded_packets, base.decoded_packets);
            assert_eq!(r.evm_db, base.evm_db);
            assert_eq!(r.packets, base.packets);
        }
    }

    #[test]
    fn run_parallel_point_index_changes_stream() {
        let sim = LinkSimulation::new(LinkConfig {
            packets: 3,
            psdu_len: 40,
            snr_db: Some(8.5),
            seed: 5,
            ..LinkConfig::default()
        });
        let a = sim.run_parallel(&ThreadPool::serial(), &McRun::default());
        let b = sim.run_parallel(
            &ThreadPool::serial(),
            &McRun {
                point_index: 1,
                ..McRun::default()
            },
        );
        // Different points must not reuse the same noise realizations.
        assert!(
            a.meter != b.meter || a.evm_db != b.evm_db,
            "point 0 and point 1 produced identical results"
        );
    }

    #[test]
    #[should_panic]
    fn zero_packets_panics() {
        let _ = LinkSimulation::new(LinkConfig {
            packets: 0,
            ..LinkConfig::default()
        });
    }
}
