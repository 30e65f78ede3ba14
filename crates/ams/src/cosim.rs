//! The co-simulation bridge: runs the elaborated analog receiver inside
//! the discrete-time system simulation.
//!
//! Input frames arrive at the system (oversampled RF) rate; each sample
//! is held (ZOH) while the analog engine takes `analog_osr` RK4 sub-steps
//! through every device; the device-chain output is sampled once per
//! system sample, then AGC, ADC and decimation produce the 20 Msps
//! stream for the DSP receiver — interface-compatible with
//! `wlan_rf::DoubleConversionReceiver` so the link testbench can swap
//! abstraction levels.

use crate::devices::AnalogDevice;
use crate::elaborate::{elaborate, DEFAULT_RECEIVER_NETLIST};
use crate::netlist::{Netlist, NetlistError};
use wlan_dsp::iir::DcBlocker;
use wlan_dsp::Complex;
use wlan_rf::adc::Adc;
use wlan_rf::agc::{Agc, AgcMode};

/// Co-simulated double-conversion receiver.
pub struct CosimReceiver {
    devices: Vec<Box<dyn AnalogDevice>>,
    /// Number of leading memoryless devices
    /// ([`AnalogDevice::is_memoryless`]), run once per system sample
    /// ahead of the ZOH expansion.
    memoryless_prefix: usize,
    analog_osr: usize,
    dt: f64,
    agc: Agc,
    adc: Adc,
    dc_correction: DcBlocker,
    decimation: usize,
    decim_phase: usize,
    steps_taken: u64,
    /// Analog-rate working buffer reused across frames (DESIGN §10
    /// scratch-arena discipline: capacity survives between packets).
    analog: Vec<Complex>,
    /// ZOH-expanded sub-step buffer for the chunked device-major path
    /// (bounded at `COSIM_CHUNK · analog_osr` samples).
    expanded: Vec<Complex>,
}

/// System samples per device-major chunk: large enough that the per-chunk
/// dyn dispatch (one per device instead of one per sub-step) vanishes,
/// small enough that the `chunk · analog_osr` expanded buffer stays
/// cache-resident even at Table 2's `analog_osr = 64`.
const COSIM_CHUNK: usize = 1024;

/// Highest accepted `analog_osr`: 16× Table 2's 64, and a bound on the
/// `COSIM_CHUNK · analog_osr` expanded buffer (16 MiB here).
pub const MAX_ANALOG_OSR: usize = 1024;

/// Largest accepted `|λ|·dt` for any elaborated filter pole: the radius
/// of the left half-disk that RK4's stability region contains. The
/// region reaches −2.785 on the real axis and ±2.83 on the imaginary
/// one, but its boundary comes in to 2.6156 at 122.7°, so a disk of
/// 2.6 holds every stable pole direction with margin.
pub const RK4_STABLE_RADIUS: f64 = 2.6;

impl std::fmt::Debug for CosimReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CosimReceiver")
            .field(
                "devices",
                &self.devices.iter().map(|d| d.name()).collect::<Vec<_>>(),
            )
            .field("analog_osr", &self.analog_osr)
            .field("dt", &self.dt)
            .finish()
    }
}

impl CosimReceiver {
    /// Builds a co-simulated receiver from netlist text.
    ///
    /// * `sample_rate_hz` — system (input) rate, e.g. 80 MHz
    /// * `analog_osr` — analog sub-steps per system sample (≥ 1)
    /// * `decimation` — output decimation to the DSP rate (e.g. 4)
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] if the netlist fails to parse or
    /// elaborate, and [`NetlistError::InvalidSetting`] unless
    /// `sample_rate_hz` is finite and positive, `analog_osr` is in
    /// `1..=`[`MAX_ANALOG_OSR`], `decimation ≥ 1`, and every
    /// elaborated filter pole satisfies `|λ|·dt ≤`
    /// [`RK4_STABLE_RADIUS`] at the sub-step
    /// `dt = 1/(sample_rate_hz·analog_osr)` (beyond it RK4 diverges and
    /// the receiver would emit non-finite samples).
    pub fn from_netlist(
        text: &str,
        sample_rate_hz: f64,
        analog_osr: usize,
        decimation: usize,
    ) -> Result<Self, NetlistError> {
        let setting = |setting, value, expected| NetlistError::InvalidSetting {
            setting,
            value,
            expected,
        };
        if !(sample_rate_hz.is_finite() && sample_rate_hz > 0.0) {
            return Err(setting(
                "sample_rate_hz",
                sample_rate_hz,
                "a finite value > 0",
            ));
        }
        if !(1..=MAX_ANALOG_OSR).contains(&analog_osr) {
            return Err(setting("analog_osr", analog_osr as f64, "1 to 1024"));
        }
        if decimation == 0 {
            return Err(setting("decimation", 0.0, "at least 1"));
        }
        let netlist = Netlist::parse(text)?;
        let devices = elaborate(&netlist, "rf", "out")?;
        let dt = 1.0 / (sample_rate_hz * analog_osr as f64);
        for d in &devices {
            let z = d.fastest_pole() * dt;
            if !(z.is_finite() && z <= RK4_STABLE_RADIUS) {
                return Err(setting(
                    "fastest filter pole |λ|·dt",
                    z,
                    "at most 2.6 (RK4 stability): raise analog_osr or lower the filter frequency",
                ));
            }
        }
        Ok(CosimReceiver {
            memoryless_prefix: devices.iter().take_while(|d| d.is_memoryless()).count(),
            devices,
            analog_osr,
            dt,
            agc: Agc::new(AgcMode::Ideal, 1.0),
            adc: Adc::new(10, 4.0),
            dc_correction: DcBlocker::with_cutoff(40e3, sample_rate_hz / decimation as f64),
            decimation,
            decim_phase: 0,
            steps_taken: 0,
            analog: Vec::new(),
            expanded: Vec::new(),
        })
    }

    /// Builds the default receiver (paper Fig. 2) with a custom channel
    /// filter edge — the co-sim counterpart of the Fig. 5 sweep.
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] on elaboration failure (should not
    /// happen for the built-in netlist).
    pub fn with_filter_edge(
        edge_hz: f64,
        sample_rate_hz: f64,
        analog_osr: usize,
        decimation: usize,
    ) -> Result<Self, NetlistError> {
        let mut netlist = Netlist::parse(DEFAULT_RECEIVER_NETLIST)?;
        netlist.set_param("lpf1", "edge", edge_hz)?;
        Self::from_netlist(&netlist.to_text(), sample_rate_hz, analog_osr, decimation)
    }

    /// Builds the default receiver.
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] on elaboration failure.
    pub fn new(
        sample_rate_hz: f64,
        analog_osr: usize,
        decimation: usize,
    ) -> Result<Self, NetlistError> {
        Self::from_netlist(
            DEFAULT_RECEIVER_NETLIST,
            sample_rate_hz,
            analog_osr,
            decimation,
        )
    }

    /// Analog sub-steps executed so far (the cost driver behind the
    /// paper's Table 2 runtime ratio).
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Device names in chain order.
    pub fn device_names(&self) -> Vec<&str> {
        self.devices.iter().map(|d| d.name()).collect()
    }

    /// Processes an oversampled-rate frame, returning the decimated
    /// DSP-rate output.
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        let mut out = Vec::new();
        self.process_into(x, &mut out);
        out
    }

    /// [`CosimReceiver::process`] into a caller-owned buffer. The only
    /// per-call heap traffic is capacity growth on first use: the
    /// analog-rate intermediate lives in a member scratch buffer, the
    /// AGC levels it in place, and the ADC quantizes only the samples
    /// the decimator keeps (it is stateless per sample, so skipping
    /// dropped samples is bit-identical to converting the whole frame).
    ///
    /// The analog engine runs *device-major over chunks*. The chain's
    /// leading memoryless devices run over the chunk of system samples
    /// itself; the result is ZOH-expanded to the sub-step rate, then each
    /// remaining device advances over the whole expanded block with a
    /// single virtual call ([`AnalogDevice::step_block`]). A memoryless
    /// device maps a held input to the same bits on every sub-step, and
    /// every other device is a per-sample state machine seeing the same
    /// input sequence either way, so this is bit-identical to the
    /// sample-by-sample reference loop
    /// ([`CosimReceiver::process_into_sample_by_sample`], pinned by the
    /// block-vs-sample differential tests).
    pub fn process_into(&mut self, x: &[Complex], out: &mut Vec<Complex>) {
        let osr = self.analog_osr;
        let (prefix, stateful) = self.devices.split_at_mut(self.memoryless_prefix);
        self.analog.clear();
        self.analog.reserve(x.len());
        let mut expanded = std::mem::take(&mut self.expanded);
        for chunk in x.chunks(COSIM_CHUNK) {
            let n = chunk.len();
            // Every element is overwritten below; `resize` only sets the
            // length.
            expanded.resize(n * osr, Complex::ZERO);
            expanded[..n].copy_from_slice(chunk);
            for d in prefix.iter_mut() {
                d.step_block(&mut expanded[..n], self.dt);
            }
            // ZOH in place, back to front so no held value is overwritten
            // before it is read: each sample held over its `osr` sub-steps.
            for i in (0..n).rev() {
                let u = expanded[i];
                expanded[i * osr..(i + 1) * osr].fill(u);
            }
            for d in stateful.iter_mut() {
                d.step_block(&mut expanded, self.dt);
            }
            self.steps_taken += (n * osr) as u64;
            // The chain output is sampled once per system sample: the
            // last sub-step of each hold interval.
            for i in 0..n {
                self.analog.push(expanded[(i + 1) * osr - 1]);
            }
        }
        self.expanded = expanded;
        self.agc.process_in_place(&mut self.analog);
        // Plain sample picking + digital DC correction, matching the
        // baseband front end.
        out.clear();
        out.reserve(self.analog.len() / self.decimation + 1);
        for &s in &self.analog {
            if self.decim_phase == 0 {
                out.push(self.dc_correction.push(self.adc.convert(s)));
            }
            self.decim_phase = (self.decim_phase + 1) % self.decimation;
        }
    }

    /// The original sample-by-sample analog loop: one ZOH input per
    /// sub-step, one dyn dispatch per device per sub-step. Kept as the
    /// bit-identity reference for the chunked device-major path above —
    /// not used by the simulation itself.
    #[doc(hidden)]
    pub fn process_into_sample_by_sample(&mut self, x: &[Complex], out: &mut Vec<Complex>) {
        self.analog.clear();
        self.analog.reserve(x.len());
        for &u in x {
            let mut y = Complex::ZERO;
            for _ in 0..self.analog_osr {
                let mut v = u; // ZOH input over the sub-steps
                for d in self.devices.iter_mut() {
                    v = d.step(v, self.dt);
                }
                y = v;
                self.steps_taken += 1;
            }
            self.analog.push(y);
        }
        self.agc.process_in_place(&mut self.analog);
        out.clear();
        out.reserve(self.analog.len() / self.decimation + 1);
        for &s in &self.analog {
            if self.decim_phase == 0 {
                out.push(self.dc_correction.push(self.adc.convert(s)));
            }
            self.decim_phase = (self.decim_phase + 1) % self.decimation;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_dsp::complex::mean_power;
    use wlan_dsp::goertzel::tone_power;
    use wlan_dsp::math::dbm_to_watts;
    use wlan_rf::receiver::{DoubleConversionReceiver, RfConfig};

    fn tone_dbm(f: f64, fs: f64, dbm: f64, n: usize) -> Vec<Complex> {
        let a = (2.0 * dbm_to_watts(dbm)).sqrt();
        (0..n)
            .map(|i| Complex::from_polar(a, 2.0 * std::f64::consts::PI * f * i as f64 / fs))
            .collect()
    }

    #[test]
    fn builds_default_receiver() {
        let rx = CosimReceiver::new(80e6, 4, 4).expect("builds");
        assert_eq!(
            rx.device_names(),
            vec!["lna1", "mix1", "hpf1", "mix2", "lpf1"]
        );
    }

    #[test]
    fn output_leveled_and_decimated() {
        let mut rx = CosimReceiver::new(80e6, 4, 4).unwrap();
        let x = tone_dbm(2e6, 80e6, -50.0, 16_000);
        let y = rx.process(&x);
        assert_eq!(y.len(), 4000);
        let p = mean_power(&y[1000..]);
        assert!((p - 1.0).abs() < 0.2, "power {p}");
        assert_eq!(rx.steps_taken(), 64_000);
    }

    #[test]
    fn matches_baseband_receiver_on_clean_tone() {
        // Noise off in the baseband receiver → both abstraction levels
        // should agree on the tone-to-total power fraction.
        let fs = 80e6;
        let x = tone_dbm(3e6, fs, -45.0, 40_000);

        let mut cfg = RfConfig {
            noise_enabled: false,
            ..RfConfig::default()
        };
        cfg.mixer2.iq_gain_imbalance_db = wlan_units::Db(0.0);
        cfg.mixer2.iq_phase_imbalance_deg = 0.0;
        cfg.mixer1.lo_linewidth_hz = wlan_units::Hz(0.0);
        cfg.mixer2.lo_linewidth_hz = wlan_units::Hz(0.0);
        let mut bb = DoubleConversionReceiver::new(cfg, 1);
        let yb = bb.process(&x);

        let mut cs = CosimReceiver::new(fs, 8, 4).unwrap();
        let yc = cs.process(&x);

        // Tone fraction: tone power is A²/2 while mean power is A², so
        // scale by 2 for a 0..1 fraction.
        let fb = 2.0 * tone_power(&yb[5000..], 3e6, 20e6) / mean_power(&yb[5000..]);
        let fc = 2.0 * tone_power(&yc[5000..], 3e6, 20e6) / mean_power(&yc[5000..]);
        assert!(fb > 0.8, "baseband tone fraction {fb}");
        assert!(fc > 0.8, "cosim tone fraction {fc}");
    }

    #[test]
    fn adjacent_channel_rejected_like_baseband() {
        let fs = 80e6;
        let n = 40_000;
        let x: Vec<Complex> = tone_dbm(2e6, fs, -50.0, n)
            .iter()
            .zip(tone_dbm(20e6, fs, -34.0, n))
            .map(|(a, b)| *a + b)
            .collect();
        let mut cs = CosimReceiver::new(fs, 8, 4).unwrap();
        let y = cs.process(&x);
        let tail = &y[y.len() / 2..];
        let want = tone_power(tail, 2e6, 20e6);
        let adj = tone_power(tail, 0.0, 20e6); // 20 MHz aliases to 0 after ÷4
        assert!(want > 20.0 * adj, "want {want} vs adjacent {adj}");
    }

    #[test]
    fn narrow_filter_netlist_variant() {
        let fs = 80e6;
        let x = tone_dbm(7e6, fs, -40.0, 30_000);
        let mut wide = CosimReceiver::with_filter_edge(12e6, fs, 4, 4).unwrap();
        let mut narrow = CosimReceiver::with_filter_edge(3e6, fs, 4, 4).unwrap();
        let yw = wide.process(&x);
        let yn = narrow.process(&x);
        let fw = 2.0 * tone_power(&yw[4000..], 7e6, 20e6) / mean_power(&yw[4000..]);
        let fn_ = 2.0 * tone_power(&yn[4000..], 7e6, 20e6) / mean_power(&yn[4000..]);
        assert!(fw > 0.5, "wide {fw}");
        assert!(fn_ < fw, "narrow {fn_} !< wide {fw}");
    }

    #[test]
    fn process_into_bit_identical_to_process() {
        let x = tone_dbm(2e6, 80e6, -50.0, 8_000);
        let mut a = CosimReceiver::new(80e6, 4, 4).unwrap();
        let mut b = CosimReceiver::new(80e6, 4, 4).unwrap();
        let mut out = Vec::new();
        // Two frames, so filter/AGC/decimator state carries across the
        // buffer-reusing path exactly like the allocating one.
        for chunk in x.chunks(3_000) {
            let ya = a.process(chunk);
            b.process_into(chunk, &mut out);
            assert_eq!(ya, out);
        }
        assert_eq!(a.steps_taken(), b.steps_taken());
    }

    /// Asserts the chunked engine matches the sample-by-sample reference
    /// bit for bit (and in `steps_taken`) over frames that straddle
    /// `COSIM_CHUNK` and carry device/AGC/decimator state across calls.
    fn assert_chunked_matches_reference(netlist: &str, osr: usize, x: &[Complex]) {
        let mut a = CosimReceiver::from_netlist(netlist, 80e6, osr, 4).unwrap();
        let mut b = CosimReceiver::from_netlist(netlist, 80e6, osr, 4).unwrap();
        let (mut ya, mut yb) = (Vec::new(), Vec::new());
        for frame in x.chunks(1_500) {
            a.process_into(frame, &mut ya);
            b.process_into_sample_by_sample(frame, &mut yb);
            assert_eq!(ya.len(), yb.len());
            // The leveled analog-rate samples too: the 10-bit ADC alone
            // would round a small deviation away, and the AGC would
            // level out a wrong gain.
            assert_eq!(a.analog.len(), b.analog.len());
            for (s, t) in ya.iter().zip(&yb).chain(a.analog.iter().zip(&b.analog)) {
                assert_eq!(
                    (s.re.to_bits(), s.im.to_bits()),
                    (t.re.to_bits(), t.im.to_bits()),
                    "osr {osr}, netlist:\n{netlist}"
                );
            }
        }
        assert_eq!(a.steps_taken(), b.steps_taken());
        assert_eq!(a.steps_taken(), (x.len() * osr) as u64);
    }

    #[test]
    fn chunked_path_bit_identical_to_sample_by_sample() {
        let x = tone_dbm(2e6, 80e6, -45.0, 5_000);
        for osr in [4, 8, 64] {
            assert_chunked_matches_reference(DEFAULT_RECEIVER_NETLIST, osr, &x);
        }
    }

    #[test]
    fn memoryless_prefix_variants_bit_identical() {
        // (netlist, expected memoryless-prefix length)
        let cases = [
            // Filter first: nothing runs at the system rate.
            (
                "f hpf rf n1 fc=150k\nm mixer n1 n2 gain=6 dc=-45\nl cheb_lp n2 out edge=10M order=3\n",
                0,
            ),
            // All memoryless: no stateful device at all.
            ("a amp rf n1 gain=10 p1db=-20\nm mixer n1 out gain=3 dc=-40\n", 2),
            // The AGC holds state, so it ends the prefix; the mixer after
            // it runs at the sub-step rate.
            (
                "a amp rf n1 gain=10\ng agc n1 n2\nm mixer n2 n3 gain=3\nl cheb_lp n3 out edge=10M\n",
                1,
            ),
            // Rapp amplifier driven deep into saturation by the -20 dBm
            // tone below (p1db -40 dBm at the input of a 20 dB stage).
            (
                "a amp rf n1 gain=20 p1db=-40\nl cheb_lp n1 out edge=8M order=4\n",
                1,
            ),
            // The longest filter a netlist may declare: 8 sections, two
            // full groups of the solver's sample-major cascade.
            (
                "m mixer rf n1 gain=6\nl cheb_lp n1 out edge=10M order=16\n",
                1,
            ),
        ];
        let mut rng = wlan_dsp::Rng::new(5);
        let x: Vec<Complex> = tone_dbm(3e6, 80e6, -20.0, 2_600)
            .into_iter()
            .map(|s| s + rng.complex_gaussian(1e-4))
            .collect();
        for (netlist, prefix) in cases {
            let rx = CosimReceiver::from_netlist(netlist, 80e6, 8, 4).unwrap();
            assert_eq!(rx.memoryless_prefix, prefix, "{netlist}");
            for osr in [1, 8, 64] {
                assert_chunked_matches_reference(netlist, osr, &x);
            }
        }
    }

    #[test]
    fn zero_analog_osr_is_a_typed_error() {
        assert!(matches!(
            CosimReceiver::new(80e6, 0, 4),
            Err(NetlistError::InvalidSetting {
                setting: "analog_osr",
                ..
            })
        ));
        assert!(matches!(
            CosimReceiver::new(80e6, MAX_ANALOG_OSR + 1, 4),
            Err(NetlistError::InvalidSetting {
                setting: "analog_osr",
                ..
            })
        ));
    }

    #[test]
    fn zero_decimation_is_a_typed_error() {
        assert!(matches!(
            CosimReceiver::new(80e6, 4, 0),
            Err(NetlistError::InvalidSetting {
                setting: "decimation",
                ..
            })
        ));
    }

    #[test]
    fn bad_sample_rate_is_a_typed_error() {
        for fs in [0.0, -80e6, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                CosimReceiver::new(fs, 4, 4),
                Err(NetlistError::InvalidSetting {
                    setting: "sample_rate_hz",
                    ..
                })
            ));
        }
    }

    #[test]
    fn rk4_unstable_filter_pole_is_a_typed_error() {
        // A 1 PHz channel filter elaborates, but its poles lie far
        // outside RK4's stability region at any sub-step: it used to
        // emit non-finite samples, and must now be refused.
        let rejected = |edge_hz: f64, osr: usize| {
            matches!(
                CosimReceiver::with_filter_edge(edge_hz, 80e6, osr, 4),
                Err(NetlistError::InvalidSetting {
                    setting: "fastest filter pole |λ|·dt",
                    ..
                })
            )
        };
        assert!(rejected(1e15, 8));
        assert!(rejected(1e15, MAX_ANALOG_OSR));
        // The default netlist (10 MHz edge, |λ|·dt ≈ 0.8 at one sub-step
        // per 80 Msps sample) still builds at analog_osr 1 and runs
        // finite.
        let mut rx = CosimReceiver::new(80e6, 1, 4).expect("default netlist at osr 1");
        let y = rx.process(&tone_dbm(1e6, 80e6, -50.0, 4000));
        assert!(y.iter().all(|v| v.re.is_finite() && v.im.is_finite()));
    }

    #[test]
    fn bad_netlist_reports_error() {
        assert!(CosimReceiver::from_netlist("x y\n", 80e6, 2, 4).is_err());
    }

    #[test]
    fn cosim_slower_than_baseband() {
        use std::time::{Duration, Instant};
        let fs = 80e6;
        let x = tone_dbm(1e6, fs, -50.0, 40_000);
        let cfg = RfConfig {
            noise_enabled: false,
            ..RfConfig::default()
        };
        // Each mode's time is the fastest of 3 interleaved repetitions,
        // so one cold-start or contended run cannot decide the ratio.
        let (mut t_bb, mut t_cs) = (Duration::MAX, Duration::MAX);
        for _ in 0..3 {
            let mut bb = DoubleConversionReceiver::new(cfg, 1);
            let t0 = Instant::now();
            let _ = bb.process(&x);
            t_bb = t_bb.min(t0.elapsed());
            let mut cs = CosimReceiver::new(fs, 16, 4).unwrap();
            let t1 = Instant::now();
            let _ = cs.process(&x);
            t_cs = t_cs.min(t1.elapsed());
        }
        let ratio = t_cs.as_secs_f64() / t_bb.as_secs_f64().max(1e-9);
        assert!(ratio > 3.0, "co-sim only {ratio:.1}× slower");
    }
}
