//! Elaboration: netlist → device cascade.

use crate::devices::{AnalogAgc, AnalogAmplifier, AnalogDevice, AnalogFilterDevice, AnalogMixer};
use crate::netlist::{Instance, Netlist, NetlistError};
use wlan_rf::nonlinearity::Nonlinearity;
use wlan_units::{Db, Dbm, Hz};

/// The default double-conversion receiver netlist (paper Fig. 2),
/// parameterizable in tests/experiments by generating variants of this
/// text.
pub const DEFAULT_RECEIVER_NETLIST: &str = "\
# Double-conversion 802.11a receiver front end (complex envelope)
lna1  lna     rf  n1  gain=15 p1db=-5
mix1  mixer   n1  n2  gain=8
hpf1  hpf     n2  n3  fc=150k order=2
mix2  mixer   n3  n4  gain=6 dc=-45
lpf1  cheb_lp n4  out order=5 ripple=0.5 edge=10M
";

/// Highest filter order `hpf` and `cheb_lp` accept: far above any
/// practical channel filter, a bound on the sections a hostile netlist
/// can make the solver allocate, and below the order (between 20 and 24
/// at a 10 MHz edge) where the Chebyshev section gains overflow to NaN.
pub const MAX_FILTER_ORDER: usize = 16;

fn invalid(inst: &Instance, param: &str, value: f64, expected: &'static str) -> NetlistError {
    NetlistError::InvalidParam {
        instance: inst.name.clone(),
        param: param.to_string(),
        value,
        expected,
        line: inst.line,
    }
}

/// A strictly positive parameter: required when `default` is `None`.
fn positive_param(inst: &Instance, key: &str, default: Option<f64>) -> Result<f64, NetlistError> {
    let value = match default {
        Some(d) => inst.param_or(key, d),
        None => inst.param(key)?,
    };
    if value > 0.0 {
        Ok(value)
    } else {
        Err(invalid(inst, key, value, "a value > 0"))
    }
}

/// The filter `order`: an integer in `1..=MAX_FILTER_ORDER`.
fn order_param(inst: &Instance, default: usize) -> Result<usize, NetlistError> {
    let value = inst.param_or("order", default as f64);
    if (1.0..=MAX_FILTER_ORDER as f64).contains(&value) && value.fract() == 0.0 {
        Ok(value as usize)
    } else {
        Err(invalid(inst, "order", value, "an integer from 1 to 16"))
    }
}

/// Builds the device cascade for a netlist chain from node `input` to
/// node `output`.
///
/// Supported models:
///
/// | model | parameters |
/// |---|---|
/// | `lna` / `amp` | `gain` (dB), optional `p1db` (dBm) or `iip3` (dBm) |
/// | `mixer` | `gain` (dB), optional `dc` (dBm) |
/// | `hpf` | `fc` (Hz), optional `order` (default 2) |
/// | `cheb_lp` | `edge` (Hz), optional `order` (default 5), `ripple` (dB, default 0.5) |
/// | `agc` | optional `target` (power, default 1), `tau` (s, default 2 µs), `loop` (1/s, default 2e5) |
///
/// # Errors
///
/// Returns a [`NetlistError`] for unknown models, missing parameters,
/// out-of-range parameters ([`NetlistError::InvalidParam`]: any
/// non-finite value, a non-positive `fc`/`edge`/`ripple`/`target`/
/// `tau`/`loop`, or an `order` that is not an integer in
/// `1..=`[`MAX_FILTER_ORDER`]) or a broken chain.
pub fn elaborate(
    netlist: &Netlist,
    input: &str,
    output: &str,
) -> Result<Vec<Box<dyn AnalogDevice>>, NetlistError> {
    let chain = netlist.chain(input, output)?;
    let mut devices: Vec<Box<dyn AnalogDevice>> = Vec::with_capacity(chain.len());
    for inst in chain {
        if let Some((key, &value)) = inst.params.iter().find(|(_, v)| !v.is_finite()) {
            return Err(invalid(inst, key, value, "a finite value"));
        }
        let dev: Box<dyn AnalogDevice> = match inst.model.as_str() {
            "lna" | "amp" => {
                // Netlist text is the plain-number wire format; wrap the
                // parameters into dimension-safe types right here.
                let gain = Db(inst.param("gain")?);
                let nl = if let Some(&p1) = inst.params.get("p1db") {
                    Nonlinearity::rapp(Dbm(p1))
                } else if let Some(&ip3) = inst.params.get("iip3") {
                    Nonlinearity::Cubic { iip3_dbm: Dbm(ip3) }
                } else {
                    Nonlinearity::Linear
                };
                Box::new(AnalogAmplifier::new(inst.name.clone(), gain, nl))
            }
            "mixer" => {
                let gain = Db(inst.param("gain")?);
                let dc = inst.params.get("dc").copied().map(Dbm);
                Box::new(AnalogMixer::new(inst.name.clone(), gain, dc))
            }
            "hpf" => {
                let fc = Hz(positive_param(inst, "fc", None)?);
                let order = order_param(inst, 2)?;
                Box::new(AnalogFilterDevice::butterworth_highpass(
                    inst.name.clone(),
                    order,
                    fc,
                ))
            }
            "cheb_lp" => {
                let edge = Hz(positive_param(inst, "edge", None)?);
                let order = order_param(inst, 5)?;
                let ripple = Db(positive_param(inst, "ripple", Some(0.5))?);
                Box::new(AnalogFilterDevice::chebyshev_lowpass(
                    inst.name.clone(),
                    order,
                    ripple,
                    edge,
                ))
            }
            "agc" => {
                let target = positive_param(inst, "target", Some(1.0))?;
                let tau = positive_param(inst, "tau", Some(2e-6))?;
                let loop_gain = positive_param(inst, "loop", Some(2e5))?;
                Box::new(AnalogAgc::new(inst.name.clone(), target, tau, loop_gain))
            }
            other => {
                return Err(NetlistError::UnknownModel {
                    model: other.to_string(),
                    line: inst.line,
                })
            }
        };
        devices.push(dev);
    }
    Ok(devices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_dsp::Complex;

    #[test]
    fn default_netlist_elaborates() {
        let n = Netlist::parse(DEFAULT_RECEIVER_NETLIST).unwrap();
        let devices = elaborate(&n, "rf", "out").expect("elaborates");
        assert_eq!(devices.len(), 5);
        assert_eq!(devices[0].name(), "lna1");
        assert_eq!(devices[4].name(), "lpf1");
    }

    #[test]
    fn cascade_processes_signal() {
        let n = Netlist::parse(DEFAULT_RECEIVER_NETLIST).unwrap();
        let mut devices = elaborate(&n, "rf", "out").unwrap();
        let dt = 1.0 / 320e6;
        // Drive with a small 1 MHz tone; the output should be an
        // amplified tone (total linear gain 29 dB ≈ ×28.2 amplitude).
        let amp_in = 1e-4;
        let mut p_out = 0.0;
        let n_steps = 200_000;
        let mut counted = 0;
        for i in 0..n_steps {
            let t = i as f64 * dt;
            let mut v = Complex::from_polar(amp_in, 2.0 * std::f64::consts::PI * 1e6 * t);
            for d in devices.iter_mut() {
                v = d.step(v, dt);
            }
            if i > n_steps / 2 {
                p_out += v.norm_sqr();
                counted += 1;
            }
        }
        let gain = ((p_out / counted as f64).sqrt() / amp_in).log10() * 20.0;
        assert!((gain - 29.0).abs() < 1.0, "cascade gain {gain} dB");
    }

    #[test]
    fn unknown_model_rejected() {
        let n = Netlist::parse("x warp rf out flux=1\n").unwrap();
        assert!(matches!(
            elaborate(&n, "rf", "out"),
            Err(NetlistError::UnknownModel { .. })
        ));
    }

    #[test]
    fn missing_param_rejected() {
        let n = Netlist::parse("a amp rf out nf=3\n").unwrap();
        assert!(matches!(
            elaborate(&n, "rf", "out"),
            Err(NetlistError::MissingParam { .. })
        ));
    }

    /// Elaborates `text` and returns the parameter an
    /// [`NetlistError::InvalidParam`] names.
    fn rejected_param(text: &str) -> String {
        let n = Netlist::parse(text).unwrap();
        match elaborate(&n, "rf", "out") {
            Err(NetlistError::InvalidParam { param, .. }) => param,
            Err(e) => panic!("{text}: expected InvalidParam, got {e}"),
            Ok(_) => panic!("{text}: elaborated"),
        }
    }

    #[test]
    fn zero_order_rejected() {
        assert_eq!(
            rejected_param("f cheb_lp rf out edge=10M order=0\n"),
            "order"
        );
        assert_eq!(rejected_param("f hpf rf out fc=150k order=0\n"), "order");
    }

    #[test]
    fn negative_order_rejected() {
        assert_eq!(rejected_param("f hpf rf out fc=150k order=-2\n"), "order");
    }

    #[test]
    fn huge_order_rejected() {
        assert_eq!(
            rejected_param("f cheb_lp rf out edge=10M order=1e12\n"),
            "order"
        );
        let over = format!("f hpf rf out fc=150k order={}\n", MAX_FILTER_ORDER + 1);
        assert_eq!(rejected_param(&over), "order");
    }

    #[test]
    fn fractional_order_rejected() {
        assert_eq!(
            rejected_param("f cheb_lp rf out edge=10M order=2.5\n"),
            "order"
        );
    }

    #[test]
    fn negative_edge_rejected() {
        assert_eq!(rejected_param("f cheb_lp rf out edge=-10M\n"), "edge");
        assert_eq!(rejected_param("f hpf rf out fc=0\n"), "fc");
        assert_eq!(
            rejected_param("f cheb_lp rf out edge=10M ripple=0\n"),
            "ripple"
        );
    }

    #[test]
    fn zero_agc_tau_rejected() {
        assert_eq!(rejected_param("g agc rf out tau=0\n"), "tau");
        assert_eq!(rejected_param("g agc rf out loop=-1\n"), "loop");
        assert_eq!(rejected_param("g agc rf out target=0\n"), "target");
    }

    #[test]
    fn non_finite_value_rejected() {
        assert_eq!(rejected_param("a amp rf out gain=1e400\n"), "gain");
        assert_eq!(rejected_param("m mixer rf out gain=3 dc=NaN\n"), "dc");
    }

    #[test]
    fn max_filter_order_elaborates() {
        let text = format!(
            "f cheb_lp rf n1 edge=10M order={0}\nh hpf n1 out fc=150k order={0}\n",
            MAX_FILTER_ORDER
        );
        let n = Netlist::parse(&text).unwrap();
        let mut d = elaborate(&n, "rf", "out").expect("elaborates");
        for dev in d.iter_mut() {
            assert!(dev.step(Complex::ONE, 1.0 / 640e6).is_finite());
        }
    }

    #[test]
    fn amp_nonlinearity_selection() {
        let n = Netlist::parse("a amp rf out gain=0 iip3=-10\n").unwrap();
        let mut d = elaborate(&n, "rf", "out").unwrap();
        // Drive at IIP3-level power: cubic model compresses visibly.
        let a = (2.0 * wlan_dsp::math::dbm_to_watts(-12.0)).sqrt();
        let y = d[0].step(Complex::from_re(a), 1e-9);
        assert!(y.re < a * 0.95);
    }
}
