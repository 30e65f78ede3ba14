//! The traced replay: `LinkSimulation`'s per-packet pipeline rebuilt
//! from public calls, with one span around each call into a layer.
//!
//! [`Replay`] owns exactly the state `LinkSimulation::run` (or one
//! `run_shard`) owns — RNG, front end, noise source, transmitters,
//! renderer and receive scratch, seeded the same way — and performs the
//! same calls in the same order, so its meter, decode count and EVM are
//! bit-identical to the program's. The benchmark checks that on every
//! traced round.

use std::time::{Duration, Instant};
use wlan_ams::CosimReceiver;
use wlan_channel::awgn::Awgn;
use wlan_channel::interferer::SceneRenderer;
use wlan_dsp::{Complex, Rng};
use wlan_meas::BerMeter;
use wlan_phy::receiver::RxScratch;
use wlan_phy::transmitter::TxScratch;
use wlan_phy::{Receiver, Transmitter};
use wlan_rf::receiver::{DoubleConversionReceiver, RfScratch};
use wlan_sim::link::{FrontEnd, LinkConfig, LinkReport, ShardReport};
use wlan_units::{Dbm, Hz};

/// Span owner of work done outside any packet (front-end construction
/// of a serial run).
pub const NO_PACKET: u32 = u32::MAX;

/// The layers a span can belong to. `Packet` is the root span of one
/// packet; every other layer is a child of it (or, for `Setup` of a
/// serial run, of no packet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Packet,
    Setup,
    Tx,
    Scene,
    Awgn,
    Rf,
    Ams,
    Rx,
    Ber,
}

impl Layer {
    /// Number of layers; `layer as usize` indexes per-layer arrays.
    pub const COUNT: usize = Layer::Ber as usize + 1;

    /// Span name, also the prefix of the layer's metrics.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Packet => "sim.packet",
            Layer::Setup => "sim.setup",
            Layer::Tx => "phy.tx",
            Layer::Scene => "channel.scene",
            Layer::Awgn => "channel.awgn",
            Layer::Rf => "rf.chain",
            Layer::Ams => "ams.cosim",
            Layer::Rx => "phy.rx",
            Layer::Ber => "meas.ber",
        }
    }
}

/// Child spans one packet records: every pipeline stage, whether or not
/// the configured front end does work in it.
pub const STAGES_PER_PACKET: usize = 7;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Root identifier shared by a packet's spans ([`NO_PACKET`] for
    /// work outside any packet).
    pub packet: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log, preallocated by the caller for a whole round.
pub struct Tracer {
    base: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            base: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Closes a span opened at `start_ns`.
    pub fn record(&mut self, packet: u32, layer: Layer, start_ns: u64) {
        let end_ns = self.now();
        self.spans.push(Span {
            packet,
            layer,
            start_ns,
            end_ns,
        });
    }
}

/// Sample counts at the layer boundaries, summed over replayed packets.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub packets: u64,
    pub decoded: u64,
    /// Samples entering the front-end stage (the DSP input itself for
    /// the ideal front end).
    pub fe_samples: u64,
    /// Bytes read and written by the RF chain: input plus output
    /// samples, 16 B each.
    pub rf_bytes: u64,
    /// Samples entering the DSP receiver.
    pub rx_samples: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.packets += o.packets;
        self.decoded += o.decoded;
        self.fe_samples += o.fe_samples;
        self.rf_bytes += o.rf_bytes;
        self.rx_samples += o.rx_samples;
    }
}

/// One serial run (or one Monte-Carlo shard) of a link configuration,
/// replayed call by call.
pub struct Replay<'a> {
    cfg: &'a LinkConfig,
    rng: Rng,
    bb: Option<DoubleConversionReceiver>,
    cosim: Option<CosimReceiver>,
    noise: Awgn,
    rx: Receiver,
    rxs: RxScratch,
    tx: Transmitter,
    adj_tx: Transmitter,
    txs: TxScratch,
    renderer: SceneRenderer,
    rfs: RfScratch,
    psdu: Vec<u8>,
    adj_psdu: Vec<u8>,
    burst: Vec<Complex>,
    adj_burst: Vec<Complex>,
    padded: Vec<Complex>,
    chan: Vec<Complex>,
    scene: Vec<Complex>,
    rf_out: Vec<Complex>,
    meter: BerMeter,
    evm_sum_db: f64,
    pub counts: Counts,
}

impl<'a> Replay<'a> {
    /// Builds the state `LinkSimulation` builds for a run or shard
    /// seeded with `seed`, inside a `Setup` span owned by `packet`.
    ///
    /// # Panics
    ///
    /// Panics on a multipath configuration, which no workload uses.
    pub fn new(cfg: &'a LinkConfig, seed: u64, tr: &mut Tracer, packet: u32) -> Self {
        assert!(
            cfg.multipath_trms_s.is_none(),
            "the replay covers flat channels only"
        );
        let t = tr.now();
        let fs = cfg.profile.sample_rate * cfg.osr as f64;
        let bb = match &cfg.front_end {
            FrontEnd::RfBaseband(rf) => {
                let mut rf = *rf;
                rf.sample_rate_hz = Hz(fs);
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
                CosimReceiver::with_filter_edge(*filter_edge_hz, fs, *analog_osr, cfg.osr)
                    .expect("built-in netlist elaborates"),
            ),
            _ => None,
        };
        let mut rxs = RxScratch::default();
        rxs.reserve_worst_case();
        let replay = Replay {
            cfg,
            rng: Rng::new(seed),
            bb,
            cosim,
            noise: Awgn::new(seed ^ 0x5EED),
            rx: Receiver::with_profile(cfg.profile),
            rxs,
            tx: Transmitter::with_profile(cfg.rate, cfg.profile),
            adj_tx: Transmitter::with_profile(cfg.rate, cfg.profile),
            txs: TxScratch::default(),
            renderer: SceneRenderer::new(cfg.profile.sample_rate, cfg.osr),
            rfs: RfScratch::default(),
            psdu: Vec::new(),
            adj_psdu: Vec::new(),
            burst: Vec::new(),
            adj_burst: Vec::new(),
            padded: Vec::new(),
            chan: Vec::new(),
            scene: Vec::new(),
            rf_out: Vec::new(),
            meter: BerMeter::new(),
            evm_sum_db: 0.0,
            counts: Counts::default(),
        };
        tr.record(packet, Layer::Setup, t);
        replay
    }

    /// Simulates packet `pkt` (its global index, which picks the
    /// scrambler seeds), recording one child span of `packet` per stage.
    pub fn packet(&mut self, pkt: usize, tr: &mut Tracer, packet: u32) {
        let cfg = self.cfg;
        let rf_mode = !matches!(cfg.front_end, FrontEnd::Ideal);

        let t = tr.now();
        self.psdu.clear();
        self.psdu.resize(cfg.psdu_len, 0);
        self.rng.bytes(&mut self.psdu);
        self.tx
            .set_scrambler_seed(((pkt as u8).wrapping_mul(37) % 127) + 1);
        self.tx
            .transmit_into(&self.psdu, &mut self.txs, &mut self.burst);
        tr.record(packet, Layer::Tx, t);

        let t = tr.now();
        if rf_mode {
            self.render_scene(pkt);
        } else {
            self.chan.clear();
            self.chan.reserve(self.burst.len() + 400);
            self.chan.extend(std::iter::repeat_n(Complex::ZERO, 200));
            self.chan.extend_from_slice(&self.burst);
            self.chan.extend(std::iter::repeat_n(Complex::ZERO, 200));
        }
        tr.record(packet, Layer::Scene, t);

        let t = tr.now();
        let fs = cfg.profile.sample_rate * cfg.osr as f64;
        match &cfg.front_end {
            FrontEnd::Ideal => {
                if let Some(snr) = cfg.snr_db {
                    let np = wlan_dsp::math::db_to_lin(-snr);
                    self.noise.add_noise_power_in_place(&mut self.chan, np);
                }
            }
            FrontEnd::RfBaseband(_) => {
                let floor = wlan_rf::noise::source_noise_power(fs);
                self.noise.add_noise_power_in_place(&mut self.scene, floor);
            }
            FrontEnd::RfCosim {
                noise_workaround, ..
            } => {
                if *noise_workaround {
                    let floor = wlan_rf::noise::source_noise_power(fs);
                    self.noise
                        .add_noise_power_in_place(&mut self.scene, floor * 4.0);
                }
            }
        }
        tr.record(packet, Layer::Awgn, t);

        self.counts.fe_samples += if rf_mode {
            self.scene.len()
        } else {
            self.chan.len()
        } as u64;
        let t = tr.now();
        if let Some(bb) = self.bb.as_mut() {
            bb.process_into(&self.scene, &mut self.rfs, &mut self.rf_out);
            self.counts.rf_bytes += 16 * (self.scene.len() + self.rf_out.len()) as u64;
        }
        tr.record(packet, Layer::Rf, t);
        let t = tr.now();
        if let Some(cs) = self.cosim.as_mut() {
            cs.process_into(&self.scene, &mut self.rf_out);
        }
        tr.record(packet, Layer::Ams, t);

        let input = if rf_mode { &self.rf_out } else { &self.chan };
        self.counts.rx_samples += input.len() as u64;
        let t = tr.now();
        let outcome = self.rx.receive_into(input, &mut self.rxs);
        tr.record(packet, Layer::Rx, t);

        let t = tr.now();
        match outcome {
            Ok(sum) if self.rxs.psdu.len() == self.psdu.len() => {
                self.meter.update_bytes(&self.psdu, &self.rxs.psdu);
                self.evm_sum_db += sum.evm_db();
                self.counts.decoded += 1;
            }
            _ => self.meter.update_lost_packet(8 * cfg.psdu_len),
        }
        tr.record(packet, Layer::Ber, t);
        self.counts.packets += 1;
    }

    /// The wanted burst (plus trailing pad) and the optional adjacent
    /// channel, rendered into the oversampled scene.
    fn render_scene(&mut self, pkt: usize) {
        let cfg = self.cfg;
        self.padded.clear();
        self.padded.reserve(self.burst.len() + 160);
        self.padded.extend_from_slice(&self.burst);
        self.padded.extend(std::iter::repeat_n(Complex::ZERO, 160));
        self.scene.clear();
        self.renderer.add_into(
            &self.padded,
            Hz(0.0),
            Dbm(cfg.rx_level_dbm),
            cfg.profile.fft_size * cfg.osr,
            &mut self.scene,
        );
        if let Some(adj) = cfg.adjacent {
            self.adj_psdu.clear();
            self.adj_psdu.resize(cfg.psdu_len, 0);
            self.rng.bytes(&mut self.adj_psdu);
            self.adj_tx
                .set_scrambler_seed(((pkt as u8).wrapping_mul(53) % 127) + 1);
            self.adj_tx
                .transmit_into(&self.adj_psdu, &mut self.txs, &mut self.adj_burst);
            self.renderer.add_into(
                &self.adj_burst,
                Hz(adj.offset_hz),
                Dbm(cfg.rx_level_dbm + adj.rel_db),
                0,
                &mut self.scene,
            );
        }
    }

    /// The report `LinkSimulation::run` gives for the packets replayed
    /// so far (no wall time).
    pub fn link_report(&self) -> LinkReport {
        let decoded = self.counts.decoded as usize;
        LinkReport {
            packets: self.counts.packets as usize,
            decoded_packets: decoded,
            meter: self.meter,
            evm_db: (decoded > 0).then(|| self.evm_sum_db / decoded as f64),
            elapsed: Duration::ZERO,
        }
    }

    /// The report `LinkSimulation::run_shard` gives for the packets
    /// replayed so far.
    pub fn shard_report(&self) -> ShardReport {
        ShardReport {
            meter: self.meter,
            decoded_packets: self.counts.decoded as usize,
            evm_sum_db: self.evm_sum_db,
            packets: self.counts.packets as usize,
        }
    }
}
