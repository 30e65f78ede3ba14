//! The double-conversion WLAN receiver front-end (paper Fig. 2):
//!
//! ```text
//! RF in → LNA → Mixer 1 (RF → RF/2) → HPF → Mixer 2 (I/Q, RF/2 → 0)
//!       → channel-select Chebyshev LPF → AGC amplifier → ADC → (↓OSR)
//! ```
//!
//! Both mixers run from the same 2.6 GHz LO; in the complex-envelope
//! representation the translations are implicit and each stage
//! contributes its gain and impairments. The inter-stage highpass removes
//! the DC offset and flicker noise the second (zero-IF) stage produces,
//! exactly the architectural point of §2.2.

use crate::adc::Adc;
use crate::agc::{Agc, AgcMode};
use crate::amplifier::Amplifier;
use crate::filters::{ChannelSelectFilter, DcBlockFilter};
use crate::mixer::{Mixer, MixerConfig};
use crate::nonlinearity::Nonlinearity;
use wlan_dsp::iir::DcBlocker;
use wlan_dsp::{Complex, Rng};
use wlan_units::{Db, Dbm, Hz};

/// Complete front-end configuration with paper-flavored defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfConfig {
    /// Input (oversampled) rate.
    pub sample_rate_hz: Hz,
    /// Output decimation factor (to the 20 Msps DSP rate).
    pub osr: usize,
    /// LNA gain.
    pub lna_gain_db: Db,
    /// LNA noise figure.
    pub lna_nf_db: Db,
    /// LNA nonlinearity (the Fig. 6 sweep subject).
    pub lna_nonlinearity: Nonlinearity,
    /// First mixer configuration.
    pub mixer1: MixerConfig,
    /// Inter-stage highpass cutoff.
    pub hpf_cutoff_hz: Hz,
    /// Second (quadrature) mixer configuration.
    pub mixer2: MixerConfig,
    /// Channel-select lowpass passband edge — the Fig. 5 sweep
    /// subject.
    pub channel_filter_edge_hz: Hz,
    /// Channel-select filter order.
    pub channel_filter_order: usize,
    /// Channel-select passband ripple.
    pub channel_filter_ripple_db: Db,
    /// AGC mode.
    pub agc: AgcMode,
    /// AGC output target power (`mean(|x|²)`).
    pub agc_target_power: f64,
    /// ADC resolution in bits.
    pub adc_bits: u32,
    /// ADC full-scale amplitude.
    pub adc_full_scale: f64,
    /// Master switch for all stochastic noise (thermal/flicker/LO) —
    /// `false` reproduces the paper's noise-less AMS co-simulation.
    pub noise_enabled: bool,
}

impl Default for RfConfig {
    fn default() -> Self {
        RfConfig {
            sample_rate_hz: Hz(80e6),
            osr: 4,
            lna_gain_db: Db(15.0),
            lna_nf_db: Db(3.0),
            lna_nonlinearity: Nonlinearity::rapp(Dbm(-5.0)),
            mixer1: MixerConfig {
                gain_db: Db(8.0),
                nf_db: Db(9.0),
                dc_offset_dbm: None,
                iq_gain_imbalance_db: Db(0.0),
                iq_phase_imbalance_deg: 0.0,
                flicker_corner_hz: None,
                lo_linewidth_hz: Hz(200.0),
            },
            hpf_cutoff_hz: Hz(150e3),
            mixer2: MixerConfig {
                gain_db: Db(6.0),
                nf_db: Db(11.0),
                dc_offset_dbm: Some(Dbm(-45.0)),
                iq_gain_imbalance_db: Db(0.15),
                iq_phase_imbalance_deg: 1.0,
                flicker_corner_hz: Some(Hz(100e3)),
                lo_linewidth_hz: Hz(200.0),
            },
            channel_filter_edge_hz: Hz(10e6),
            channel_filter_order: ChannelSelectFilter::DEFAULT_ORDER,
            channel_filter_ripple_db: Db(ChannelSelectFilter::DEFAULT_RIPPLE_DB),
            agc: AgcMode::Ideal,
            agc_target_power: 1.0,
            adc_bits: 10,
            adc_full_scale: 4.0,
            noise_enabled: true,
        }
    }
}

/// The assembled double-conversion receiver.
#[derive(Debug, Clone)]
pub struct DoubleConversionReceiver {
    config: RfConfig,
    lna: Amplifier,
    mixer1: Mixer,
    hpf: DcBlockFilter,
    mixer2: Mixer,
    channel_filter: ChannelSelectFilter,
    agc: Agc,
    adc: Adc,
    /// Digital DC-offset correction after the ADC (standard WLAN
    /// baseband practice; removes the residual self-mixing DC).
    dc_correction: DcBlocker,
    decim_phase: usize,
}

impl DoubleConversionReceiver {
    /// Builds the receiver from `config`, deriving all noise streams from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if filter edges exceed Nyquist or `osr` is zero.
    pub fn new(config: RfConfig, seed: u64) -> Self {
        assert!(config.osr >= 1, "osr must be >= 1");
        let fs = config.sample_rate_hz.0;
        let mut rng = Rng::new(seed);
        let mut lna = Amplifier::new(
            config.lna_gain_db,
            config.lna_nf_db,
            config.lna_nonlinearity,
            fs,
            rng.fork(),
        );
        let mut mixer1 = Mixer::new(config.mixer1, fs, rng.fork());
        let mut mixer2 = Mixer::new(config.mixer2, fs, rng.fork());
        lna.set_noise_enabled(config.noise_enabled);
        mixer1.set_noise_enabled(config.noise_enabled);
        mixer2.set_noise_enabled(config.noise_enabled);
        DoubleConversionReceiver {
            lna,
            mixer1,
            hpf: DcBlockFilter::new(config.hpf_cutoff_hz.0, fs),
            mixer2,
            channel_filter: ChannelSelectFilter::with_order(
                config.channel_filter_order,
                config.channel_filter_ripple_db.0,
                config.channel_filter_edge_hz.0,
                fs,
            ),
            agc: Agc::new(config.agc, config.agc_target_power),
            adc: Adc::new(config.adc_bits, config.adc_full_scale),
            dc_correction: DcBlocker::with_cutoff(40e3, fs / config.osr as f64),
            decim_phase: 0,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RfConfig {
        &self.config
    }

    /// Output sample rate (`fs / osr`).
    pub fn output_rate_hz(&self) -> Hz {
        self.config.sample_rate_hz / self.config.osr as f64
    }

    /// Enables/disables all stochastic noise in the chain, keeping
    /// [`RfConfig::noise_enabled`] in [`DoubleConversionReceiver::config`]
    /// in sync.
    pub fn set_noise_enabled(&mut self, enabled: bool) {
        self.config.noise_enabled = enabled;
        self.lna.set_noise_enabled(enabled);
        self.mixer1.set_noise_enabled(enabled);
        self.mixer2.set_noise_enabled(enabled);
    }

    /// Processes an oversampled RF-input frame, returning the decimated
    /// baseband output for the DSP receiver.
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        let mut scratch = RfScratch::default();
        let mut out = Vec::new();
        self.process_into(x, &mut scratch, &mut out);
        out
    }

    /// [`DoubleConversionReceiver::process`] over one reusable mid-chain
    /// buffer: each [`RfStage`] makes one pass over the whole frame in
    /// place, with its sample-invariant constants hoisted (notably the
    /// Rapp saturation voltage). Every noise process owns its RNG stream
    /// and every filter is an LTI state machine, so this stage-major
    /// order is bit-identical to running the chain sample by sample. The
    /// AGC runs on the whole frame (Ideal mode needs it), and the ADC
    /// converts only the samples decimation keeps. Steady-state calls at
    /// a fixed frame length perform no heap allocation.
    pub fn process_into(&mut self, x: &[Complex], scratch: &mut RfScratch, out: &mut Vec<Complex>) {
        self.process_tapped(x, scratch, out, &mut ());
    }

    /// [`DoubleConversionReceiver::process_into`] showing every
    /// inter-stage signal to `tap`: the input as `rf_in`, each
    /// [`RfStage`] output under its [`RfStage::name`], and the baseband
    /// output as `decimate`.
    ///
    /// The ADC has no tap of its own: it is fused into the decimator and
    /// converts only the samples decimation keeps. That fused step is the
    /// one place this chain departs from its stage-by-stage form
    /// ([`RfStage::ALL`], [`Adc::process`] on every sample, then
    /// [`DoubleConversionReceiver::decimate_into`]); the converter is
    /// stateless, so both give the same bits.
    pub fn process_tapped<T: StageTap>(
        &mut self,
        x: &[Complex],
        scratch: &mut RfScratch,
        out: &mut Vec<Complex>,
        tap: &mut T,
    ) {
        tap.tap("rf_in", x);
        let mid = &mut scratch.mid;
        mid.clear();
        mid.extend_from_slice(x);
        for stage in RfStage::ALL {
            self.stage_in_place(stage, mid);
            tap.tap(stage.name(), mid);
        }
        out.clear();
        out.reserve(mid.len() / self.config.osr + 1);
        self.decimate::<true>(mid, out);
        tap.tap("decimate", out);
    }

    /// Runs `stage` over the frame `x` in place, carrying the stage's
    /// state (filter memories, noise streams, AGC loop) to the next call.
    pub fn stage_in_place(&mut self, stage: RfStage, x: &mut [Complex]) {
        match stage {
            RfStage::Lna => self.lna.process_in_place(x),
            RfStage::Mixer1 => self.mixer1.process_in_place(x),
            RfStage::Hpf => self.hpf.process_in_place(x),
            RfStage::Mixer2 => self.mixer2.process_in_place(x),
            RfStage::ChannelFilter => self.channel_filter.process_in_place(x),
            RfStage::Agc => self.agc.process_in_place(x),
        }
    }

    /// The ADC that follows the last [`RfStage`].
    pub fn adc(&self) -> &Adc {
        &self.adc
    }

    /// Decimates the ADC output frame `x` to the output rate and removes
    /// its DC, appending to `out`. The decimator's phase carries across
    /// calls.
    pub fn decimate_into(&mut self, x: &[Complex], out: &mut Vec<Complex>) {
        self.decimate::<false>(x, out);
    }

    /// Plain sample picking: channel selectivity is entirely the
    /// Chebyshev filter's job (the Fig. 5 subject), so the decimator
    /// must not add its own anti-alias filtering. With `CONVERT` the ADC
    /// converts each kept sample on the way.
    fn decimate<const CONVERT: bool>(&mut self, x: &[Complex], out: &mut Vec<Complex>) {
        for &s in x {
            if self.decim_phase == 0 {
                let s = if CONVERT { self.adc.convert(s) } else { s };
                out.push(self.dc_correction.push(s));
            }
            self.decim_phase = (self.decim_phase + 1) % self.config.osr;
        }
    }
}

/// The receiver's stages ahead of the ADC, in signal order. Each is
/// named after its block in the paper's Fig. 3 schematic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RfStage {
    /// Low-noise amplifier.
    Lna,
    /// First mixer (RF → RF/2).
    Mixer1,
    /// Inter-stage DC-blocking highpass.
    Hpf,
    /// Second, quadrature mixer (RF/2 → 0).
    Mixer2,
    /// Channel-select Chebyshev lowpass.
    ChannelFilter,
    /// AGC amplifier.
    Agc,
}

impl RfStage {
    /// Every stage, in signal order.
    pub const ALL: [RfStage; 6] = [
        RfStage::Lna,
        RfStage::Mixer1,
        RfStage::Hpf,
        RfStage::Mixer2,
        RfStage::ChannelFilter,
        RfStage::Agc,
    ];

    /// The stage's Fig. 3 block name.
    pub fn name(self) -> &'static str {
        match self {
            RfStage::Lna => "lna",
            RfStage::Mixer1 => "mixer1",
            RfStage::Hpf => "hpf",
            RfStage::Mixer2 => "mixer2_iq",
            RfStage::ChannelFilter => "bb_filter",
            RfStage::Agc => "bb_amp_agc",
        }
    }
}

/// A probe on the receiver's inter-stage signals, called by
/// [`DoubleConversionReceiver::process_tapped`].
pub trait StageTap {
    /// Observes `x`, the signal after the stage named `stage`.
    fn tap(&mut self, stage: &'static str, x: &[Complex]);
}

/// No probe: the taps compile away.
impl StageTap for () {
    #[inline(always)]
    fn tap(&mut self, _stage: &'static str, _x: &[Complex]) {}
}

/// Reusable mid-chain buffer for
/// [`DoubleConversionReceiver::process_into`].
#[derive(Debug, Clone, Default)]
pub struct RfScratch {
    /// The frame at the oversampled rate, which every [`RfStage`]
    /// processes in place.
    mid: Vec<Complex>,
}

/// A recording [`StageTap`] — the paper's probe workflow ("signals
/// from the RF part can be displayed", §4.3). Expensive (copies every
/// stage output); pass `&mut ()` for throughput.
#[derive(Debug, Clone, Default)]
pub struct StageTrace {
    /// `(stage name, signal)` in the order tapped. One frame records
    /// the RF input (`rf_in`), every [`RfStage`] output at the
    /// oversampled rate, then the decimated, DC-corrected 20 Msps
    /// output (`decimate`).
    pub stages: Vec<(&'static str, Vec<Complex>)>,
}

impl StageTrace {
    /// `(name, mean power)` per stage — a quick level plan ("budget
    /// walk") through the chain.
    pub fn level_plan(&self) -> Vec<(&'static str, f64)> {
        use wlan_dsp::complex::mean_power;
        self.stages
            .iter()
            .map(|(n, v)| (*n, mean_power(v)))
            .collect()
    }
}

impl StageTap for StageTrace {
    fn tap(&mut self, stage: &'static str, x: &[Complex]) {
        self.stages.push((stage, x.to_vec()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_dsp::complex::mean_power;
    use wlan_dsp::goertzel::tone_power;
    use wlan_dsp::math::dbm_to_watts;

    fn tone_dbm(f: f64, fs: f64, dbm: f64, n: usize) -> Vec<Complex> {
        let a = (2.0 * dbm_to_watts(dbm)).sqrt();
        (0..n)
            .map(|i| Complex::from_polar(a, 2.0 * std::f64::consts::PI * f * i as f64 / fs))
            .collect()
    }

    #[test]
    fn output_rate_and_length() {
        let mut rx = DoubleConversionReceiver::new(RfConfig::default(), 1);
        assert_eq!(rx.output_rate_hz(), Hz(20e6));
        let x = tone_dbm(1e6, 80e6, -50.0, 8000);
        let y = rx.process(&x);
        assert_eq!(y.len(), 2000);
    }

    #[test]
    fn agc_levels_output_to_target() {
        for level in [-60.0, -40.0, -25.0] {
            let mut rx = DoubleConversionReceiver::new(RfConfig::default(), 2);
            let x = tone_dbm(2e6, 80e6, level, 40_000);
            let y = rx.process(&x);
            let p = mean_power(&y[y.len() / 2..]);
            assert!(
                (p - 1.0).abs() < 0.25,
                "level {level} dBm: output power {p}"
            );
        }
        // At very low levels the mixer-2 self-mixing DC dominates the AGC
        // budget and is then removed by the digital DC correction, so the
        // remaining power is well below the AGC target but non-zero.
        let mut rx = DoubleConversionReceiver::new(RfConfig::default(), 2);
        let x = tone_dbm(2e6, 80e6, -80.0, 40_000);
        let y = rx.process(&x);
        let p = mean_power(&y[y.len() / 2..]);
        assert!(p > 0.03 && p < 1.3, "-80 dBm: output power {p}");
    }

    #[test]
    fn wanted_tone_survives_adjacent_rejected() {
        let fs = 80e6;
        let mut rx = DoubleConversionReceiver::new(RfConfig::default(), 3);
        // Wanted at 2 MHz (−50 dBm), adjacent-channel tone at 20 MHz (−34 dBm).
        let n = 60_000;
        let x: Vec<Complex> = tone_dbm(2e6, fs, -50.0, n)
            .iter()
            .zip(tone_dbm(20e6, fs, -34.0, n))
            .map(|(a, b)| *a + b)
            .collect();
        let y = rx.process(&x);
        let tail = &y[y.len() / 2..];
        let p_want = tone_power(tail, 2e6, 20e6);
        // Adjacent tone aliases... it lands at 20 MHz which is 0 Hz after
        // 20 Msps decimation wrap; check at 0 Hz remains small.
        let p_adj = tone_power(tail, 0.0, 20e6);
        assert!(
            p_want > 50.0 * p_adj,
            "wanted {p_want} vs adjacent leak {p_adj}"
        );
    }

    #[test]
    fn set_noise_enabled_keeps_config_in_sync() {
        let x = tone_dbm(2e6, 80e6, -60.0, 4000);
        let quiet = RfConfig {
            noise_enabled: false,
            ..RfConfig::default()
        };
        let mut toggled = DoubleConversionReceiver::new(RfConfig::default(), 6);
        toggled.set_noise_enabled(false);
        assert!(!toggled.config().noise_enabled);
        assert_eq!(toggled.config(), &quiet);
        // Toggling off behaves exactly like building without noise.
        let mut built_quiet = DoubleConversionReceiver::new(quiet, 6);
        assert_eq!(toggled.process(&x), built_quiet.process(&x));
        toggled.set_noise_enabled(true);
        assert!(toggled.config().noise_enabled);
        assert_eq!(toggled.config(), &RfConfig::default());
    }

    #[test]
    fn dc_offset_blocked_by_hpf_and_filtering() {
        let mut cfg = RfConfig::default();
        cfg.mixer2.dc_offset_dbm = Some(Dbm(-30.0));
        cfg.noise_enabled = false;
        let mut rx = DoubleConversionReceiver::new(cfg, 4);
        let x = tone_dbm(3e6, 80e6, -50.0, 40_000);
        let y = rx.process(&x);
        let tail = &y[y.len() / 2..];
        let p_sig = tone_power(tail, 3e6, 20e6);
        let p_dc = tone_power(tail, 0.0, 20e6);
        // Mixer-2 DC is *not* preceded by the HPF (it sits after), so the
        // only protection is that DC falls on the unused 802.11a DC
        // subcarrier; it must at least not dominate.
        assert!(p_sig > p_dc, "signal {p_sig} vs dc {p_dc}");
    }

    #[test]
    fn saturation_with_low_p1db_distorts() {
        let cfg = RfConfig {
            lna_nonlinearity: Nonlinearity::rapp(Dbm(-60.0)), // absurdly low
            noise_enabled: false,
            ..RfConfig::default()
        };
        let mut rx_bad = DoubleConversionReceiver::new(cfg, 5);
        let cfg_ok = RfConfig {
            noise_enabled: false,
            ..RfConfig::default()
        };
        let mut rx_ok = DoubleConversionReceiver::new(cfg_ok, 5);
        let fs = 80e6;
        let n = 40_000;
        // Two in-band tones at −30 dBm: IM3 products land in-band.
        let x: Vec<Complex> = tone_dbm(2e6, fs, -30.0, n)
            .iter()
            .zip(tone_dbm(3e6, fs, -30.0, n))
            .map(|(a, b)| *a + b)
            .collect();
        let y_bad = rx_bad.process(&x);
        let y_ok = rx_ok.process(&x);
        let im3_bad = tone_power(&y_bad[n / 8..], 1e6, 20e6);
        let im3_ok = tone_power(&y_ok[n / 8..], 1e6, 20e6);
        assert!(
            im3_bad > 100.0 * im3_ok.max(1e-30),
            "bad {im3_bad} vs ok {im3_ok}"
        );
    }

    fn assert_bits_eq(got: &[Complex], want: &[Complex], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                "{what}: sample {i}: {g:?} != {w:?}"
            );
        }
    }

    #[test]
    fn traced_processing_matches_plain() {
        let cfg = RfConfig {
            noise_enabled: false,
            ..RfConfig::default()
        };
        let x = tone_dbm(2e6, 80e6, -50.0, 8000);
        let mut a = DoubleConversionReceiver::new(cfg, 9);
        let mut b = DoubleConversionReceiver::new(cfg, 9);
        let mut c = DoubleConversionReceiver::new(cfg, 9);
        let plain = a.process(&x);
        let mut trace = StageTrace::default();
        b.process_tapped(&x, &mut RfScratch::default(), &mut Vec::new(), &mut trace);
        // The input, each stage as run by hand, then the baseband output.
        let mut v = x.clone();
        let mut want = vec![("rf_in", v.clone())];
        for stage in RfStage::ALL {
            c.stage_in_place(stage, &mut v);
            want.push((stage.name(), v.clone()));
        }
        want.push(("decimate", plain));
        assert_eq!(trace.stages.len(), want.len());
        for ((name, got), (want_name, want)) in trace.stages.iter().zip(&want) {
            assert_eq!(name, want_name);
            assert_bits_eq(got, want, name);
        }
        // The level plan walks the gains: LNA +15 dB, mixer1 +8 dB.
        let plan = trace.level_plan();
        let db = |i: usize, j: usize| wlan_dsp::math::lin_to_db(plan[j].1 / plan[i].1);
        assert!((db(0, 1) - 15.0).abs() < 0.5, "LNA gain {}", db(0, 1));
        assert!((db(1, 2) - 8.0).abs() < 0.5, "mixer1 gain {}", db(1, 2));
        // AGC levels to ~1.0.
        assert_eq!(plan[6].0, "bb_amp_agc");
        assert!((plan[6].1 - 1.0).abs() < 0.2);
    }

    #[test]
    fn noise_disabled_is_reproducible() {
        let cfg = RfConfig {
            noise_enabled: false,
            ..RfConfig::default()
        };
        let x = tone_dbm(1e6, 80e6, -40.0, 4000);
        let mut a = DoubleConversionReceiver::new(cfg, 10);
        let mut b = DoubleConversionReceiver::new(cfg, 20);
        assert_eq!(a.process(&x), b.process(&x));
    }

    #[test]
    fn narrow_channel_filter_cuts_signal_edge() {
        // Two tones: one mid-band (2 MHz), one near the channel edge
        // (7 MHz). The AGC renormalizes totals, so compare the edge tone
        // *relative to* the mid-band tone under each filter.
        let fs = 80e6;
        let n = 40_000;
        let x: Vec<Complex> = tone_dbm(2e6, fs, -40.0, n)
            .iter()
            .zip(tone_dbm(7e6, fs, -40.0, n))
            .map(|(a, b)| *a + b)
            .collect();
        let mut wide = DoubleConversionReceiver::new(RfConfig::default(), 6);
        let cfg = RfConfig {
            channel_filter_edge_hz: Hz(4e6),
            ..RfConfig::default()
        };
        let mut narrow = DoubleConversionReceiver::new(cfg, 6);
        let yw = wide.process(&x);
        let yn = narrow.process(&x);
        let rel_w = tone_power(&yw[5000..], 7e6, 20e6) / tone_power(&yw[5000..], 2e6, 20e6);
        let rel_n = tone_power(&yn[5000..], 7e6, 20e6) / tone_power(&yn[5000..], 2e6, 20e6);
        assert!(rel_w > 0.5, "wide filter keeps the edge tone: {rel_w}");
        assert!(
            rel_n < rel_w / 30.0,
            "narrow filter must cut the edge tone: {rel_n} vs {rel_w}"
        );
    }
}
