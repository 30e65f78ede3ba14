//! Fixed-step continuous-time integration of state-space sections.
//!
//! Analog filters are represented as cascades of first/second-order
//! state-space systems in controllable canonical form and integrated
//! with classic RK4 under a zero-order-hold input — the "analog solver"
//! whose fine timestep makes co-simulation expensive (paper §5.3).
//!
//! On a linear section with a held input, one RK4 step is itself a
//! linear map, `x ← M·x + N·u` with `M = R(hA)` and `N = h·P(hA)·B`
//! (`rk4_propagator`). Each section computes that pair once per `dt`
//! and then steps as one mat-vec instead of four derivative
//! evaluations; every stepping path runs the same expression.

use std::array::from_fn;
use wlan_dsp::design::{AnalogFilter, AnalogSection};
use wlan_dsp::Complex;

/// A 2×2 matrix, row-major.
type Mat2 = [[f64; 2]; 2];

/// RK4's one-step map for `x' = A·x + B·u` under a held `u`:
/// `x ← M·x + N·u` with `M = R(hA) = I + hA + (hA)²/2 + (hA)³/6 +
/// (hA)⁴/24` and `N = h·P(hA)·B`, `P(z) = 1 + z/2 + z²/6 + z³/24`,
/// both in Horner form (`M = I + hA·P(hA)`). A first-order section is
/// the top-left corner of the same map, with zeros elsewhere.
fn rk4_propagator(a: &Mat2, b: [f64; 2], h: f64) -> (Mat2, [f64; 2]) {
    // One Horner stage: `I + hA·q/k`.
    let stage = |q: Mat2, k: f64| -> Mat2 {
        from_fn(|i| {
            from_fn(|j| f64::from(i == j) + (h * a[i][0] * q[0][j] + h * a[i][1] * q[1][j]) / k)
        })
    };
    let p = stage(stage(stage([[1.0, 0.0], [0.0, 1.0]], 4.0), 3.0), 2.0);
    let n = from_fn(|i| h * (p[i][0] * b[0] + p[i][1] * b[1]));
    (stage(p, 1.0), n)
}

/// A single state-space section (order ≤ 2) over complex signals.
///
/// Controllable canonical form of `H(s) = N(s)/D(s)` with `D` normalized
/// monic.
#[derive(Debug, Clone)]
pub struct StateSpaceSection {
    order: usize,
    /// Denominator coefficients: x'' = −α0·x − α1·x' + u.
    alpha: [f64; 2],
    /// Output map: y = c·x + d·u.
    c: [f64; 2],
    d: f64,
    /// State (x, x').
    state: [Complex; 2],
    /// The step `dt` the propagator below was computed for (NaN before
    /// the first step, so it never matches).
    prop_dt: f64,
    /// RK4 propagator for `prop_dt`: `x ← m·x + n·u`.
    m: Mat2,
    n: [f64; 2],
}

impl StateSpaceSection {
    /// Builds from an [`AnalogSection`].
    ///
    /// # Panics
    ///
    /// Panics on a zeroth-order (pure gain) section with zero
    /// denominator dynamics.
    pub fn from_analog(sec: &AnalogSection) -> Self {
        let (order, alpha, c, d) = if sec.a[2] != 0.0 {
            // Second order: normalize by a2.
            let a0 = sec.a[0] / sec.a[2];
            let a1 = sec.a[1] / sec.a[2];
            let b0 = sec.b[0] / sec.a[2];
            let b1 = sec.b[1] / sec.a[2];
            let b2 = sec.b[2] / sec.a[2];
            (2, [a0, a1], [b0 - b2 * a0, b1 - b2 * a1], b2)
        } else {
            assert!(sec.a[1] != 0.0, "static section has no dynamics");
            // First order: normalize by a1.
            let a0 = sec.a[0] / sec.a[1];
            let b0 = sec.b[0] / sec.a[1];
            let b1 = sec.b[1] / sec.a[1];
            (1, [a0, 0.0], [b0 - b1 * a0, 0.0], b1)
        };
        StateSpaceSection {
            order,
            alpha,
            c,
            d,
            state: [Complex::ZERO; 2],
            prop_dt: f64::NAN,
            m: [[0.0; 2]; 2],
            n: [0.0; 2],
        }
    }

    /// Section order (1 or 2).
    pub fn order(&self) -> usize {
        self.order
    }

    /// Largest pole magnitude `|λ|` in rad/s: the roots of `s + α0`
    /// (order 1) or `s² + α1·s + α0` (order 2).
    pub fn fastest_pole(&self) -> f64 {
        let [a0, a1] = self.alpha;
        if self.order == 1 {
            return a0.abs();
        }
        let disc = a1 * a1 - 4.0 * a0;
        if disc < 0.0 {
            // Complex pair: |λ|² = λ·λ̄ = α0.
            a0.sqrt()
        } else {
            (a1.abs() + disc.sqrt()) / 2.0
        }
    }

    /// Computes the propagator for `dt` unless it is already cached.
    fn prepare(&mut self, dt: f64) {
        if self.prop_dt == dt {
            return;
        }
        let [a0, a1] = self.alpha;
        // State matrix and input vector: `x' = [x1, u − α0·x0 − α1·x1]`
        // (order 2) or `x0' = u − α0·x0` (order 1).
        let (a, b) = if self.order == 2 {
            ([[0.0, 1.0], [-a0, -a1]], [0.0, 1.0])
        } else {
            ([[-a0, 0.0], [0.0, 0.0]], [1.0, 0.0])
        };
        (self.m, self.n) = rk4_propagator(&a, b, dt);
        self.prop_dt = dt;
    }

    /// Advances the section by `dt` with input `u` held constant (ZOH),
    /// returning the output at the end of the step.
    pub fn step(&mut self, u: Complex, dt: f64) -> Complex {
        self.prepare(dt);
        self.advance(u)
    }

    /// One step with the prepared propagator.
    // Forced inline: `StateSpaceFilter::step_block`'s cascade calls it
    // on local copies of the sections, and only inlined can their fields
    // and states live in registers across the sub-step loop.
    #[inline(always)]
    fn advance(&mut self, u: Complex) -> Complex {
        let (m, n) = (&self.m, &self.n);
        let [x0, x1] = self.state;
        if self.order == 2 {
            self.state = [
                x0 * m[0][0] + x1 * m[0][1] + u * n[0],
                x0 * m[1][0] + x1 * m[1][1] + u * n[1],
            ];
        } else {
            self.state[0] = x0 * m[0][0] + u * n[0];
        }
        self.output(u)
    }

    /// Output for the current state and input.
    pub fn output(&self, u: Complex) -> Complex {
        self.state[0] * self.c[0] + self.state[1] * self.c[1] + u * self.d
    }

    /// Clears the state.
    pub fn reset(&mut self) {
        self.state = [Complex::ZERO; 2];
    }
}

/// A full continuous-time filter: gain plus cascaded sections.
#[derive(Debug, Clone)]
pub struct StateSpaceFilter {
    gain: f64,
    sections: Vec<StateSpaceSection>,
}

impl StateSpaceFilter {
    /// Builds from a designed [`AnalogFilter`].
    pub fn from_analog(filter: &AnalogFilter) -> Self {
        StateSpaceFilter {
            gain: filter.gain(),
            sections: filter
                .sections()
                .iter()
                .map(StateSpaceSection::from_analog)
                .collect(),
        }
    }

    /// Total state count.
    pub fn state_count(&self) -> usize {
        self.sections.iter().map(|s| s.order()).sum()
    }

    /// Largest pole magnitude of any section, in rad/s.
    pub fn fastest_pole(&self) -> f64 {
        self.sections
            .iter()
            .map(StateSpaceSection::fastest_pole)
            .fold(0.0, f64::max)
    }

    /// Advances the cascade by `dt` with ZOH input.
    pub fn step(&mut self, u: Complex, dt: f64) -> Complex {
        let mut v = u * self.gain;
        for s in self.sections.iter_mut() {
            v = s.step(v, dt);
        }
        v
    }

    /// Advances the cascade over a block of ZOH inputs in place: `buf[i]`
    /// becomes the output of the `i`-th [`StateSpaceFilter::step`].
    ///
    /// The sections run sample-major: each sub-step passes the gain and
    /// every section before the next one starts, with the propagators
    /// and states held in locals. This is the arithmetic of per-sample
    /// [`StateSpaceFilter::step`], so the outputs are bit-identical, but
    /// the sections' update chains overlap in time. Cascades longer than
    /// four sections run as consecutive groups of up to four over the
    /// block (the gain in the first).
    pub fn step_block(&mut self, buf: &mut [Complex], dt: f64) {
        let mut gain = self.gain;
        let mut rest = &mut self.sections[..];
        loop {
            let (group, tail) = rest.split_at_mut(rest.len().min(SECTION_GROUP));
            for s in group.iter_mut() {
                s.prepare(dt);
            }
            match group.len() {
                0 => cascade::<0>(group, gain, buf),
                1 => cascade::<1>(group, gain, buf),
                2 => cascade::<2>(group, gain, buf),
                3 => cascade::<3>(group, gain, buf),
                _ => cascade::<SECTION_GROUP>(group, gain, buf),
            }
            if tail.is_empty() {
                break;
            }
            // Multiplying by 1.0 is exact, so later groups add no rounding.
            gain = 1.0;
            rest = tail;
        }
    }

    /// Clears all states.
    pub fn reset(&mut self) {
        for s in self.sections.iter_mut() {
            s.reset();
        }
    }
}

/// Largest number of sections [`StateSpaceFilter::step_block`] steps
/// per sub-step with all propagators and states in locals.
const SECTION_GROUP: usize = 4;

/// Runs `S` prepared sections sample-major over `buf`: input gain, then
/// [`StateSpaceSection::advance`] on local copies of the sections (their
/// propagators, output maps, orders and states), whose states are
/// written back at the end.
#[inline(always)]
fn cascade<const S: usize>(sections: &mut [StateSpaceSection], gain: f64, buf: &mut [Complex]) {
    let sections: &mut [StateSpaceSection; S] = sections.try_into().expect("group of S sections");
    let mut local: [StateSpaceSection; S] = from_fn(|k| sections[k].clone());
    for v in buf.iter_mut() {
        let mut u = *v * gain;
        for s in local.iter_mut() {
            u = s.advance(u);
        }
        *v = u;
    }
    for (s, l) in sections.iter_mut().zip(&local) {
        s.state = l.state;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::{DEFAULT_RECEIVER_NETLIST, MAX_FILTER_ORDER};
    use crate::netlist::Netlist;
    use std::f64::consts::PI;
    use wlan_dsp::design::FilterKind;
    use wlan_dsp::math::{amp_to_db, sinc};

    #[test]
    fn first_order_lowpass_dc_gain() {
        let af = AnalogFilter::butterworth(1, FilterKind::Lowpass, 1e6);
        let mut ss = StateSpaceFilter::from_analog(&af);
        assert_eq!(ss.state_count(), 1);
        let dt = 1.0 / 320e6;
        let mut y = Complex::ZERO;
        for _ in 0..200_000 {
            y = ss.step(Complex::ONE, dt);
        }
        assert!((y.re - 1.0).abs() < 1e-6, "dc gain {}", y.re);
    }

    /// The default receiver netlist's filter instance `name`, designed
    /// from its netlist parameters.
    fn default_netlist_filter(name: &str) -> AnalogFilter {
        let netlist = Netlist::parse(DEFAULT_RECEIVER_NETLIST).unwrap();
        let inst = netlist
            .chain("rf", "out")
            .unwrap()
            .into_iter()
            .find(|i| i.name == name)
            .unwrap();
        let p = |key| inst.param(key).unwrap();
        match inst.model.as_str() {
            "cheb_lp" => AnalogFilter::chebyshev1(
                p("order") as usize,
                p("ripple"),
                FilterKind::Lowpass,
                p("edge"),
            ),
            "hpf" => AnalogFilter::butterworth(p("order") as usize, FilterKind::Highpass, p("fc")),
            model => panic!("{name} is a {model}, not a filter"),
        }
    }

    /// Worst gain (dB) and phase (degrees) error of the stepped filter
    /// against `expect(f, dt)`, over complex tones from 50 kHz to 16 MHz
    /// at `osr` sub-steps per 80 Msps sample. Each tone runs for
    /// `settle_s` (the transient decays below 1e-11 of the tone) and is
    /// then correlated against its input over 4 096 sub-steps; points
    /// where `|H| < 1e-3` are skipped.
    fn tone_oracle_error(
        af: &AnalogFilter,
        osr: usize,
        settle_s: f64,
        expect: impl Fn(f64, f64) -> Complex,
    ) -> (f64, f64) {
        let dt = 1.0 / (80e6 * osr as f64);
        let settle = (settle_s / dt).ceil() as usize;
        let (mut db, mut deg) = (0.0f64, 0.0f64);
        for f in [
            50e3, 100e3, 150e3, 300e3, 1e6, 2e6, 4e6, 6e6, 8e6, 9e6, 10e6, 12e6, 14e6, 16e6,
        ] {
            if af.response(f).abs() < 1e-3 {
                continue;
            }
            let mut ss = StateSpaceFilter::from_analog(af);
            let mut corr = Complex::ZERO;
            for i in 0..settle + 4096 {
                let u = Complex::cis(2.0 * PI * f * i as f64 * dt);
                let y = ss.step(u, dt);
                if i >= settle {
                    corr += y * u.conj();
                }
            }
            let ratio = corr / (expect(f, dt) * 4096.0);
            db = db.max(amp_to_db(ratio.abs()).abs());
            deg = deg.max(ratio.arg().to_degrees().abs());
        }
        (db, deg)
    }

    #[test]
    fn default_filters_match_closed_form_response() {
        let (lp, hp) = (
            default_netlist_filter("lpf1"),
            default_netlist_filter("hpf1"),
        );
        let k = lp.sections().len() as f64;
        for osr in [8, 64] {
            // `lpf1` (Chebyshev-5, 0.5 dB, 10 MHz: K = 3 sections). Each
            // section holds its predecessor's end-of-sub-step output, so
            // the cascade leads by half a sub-step per section,
            // `e^{+jKπf·dt}`; the held input adds one `sinc(πf·dt)` (the
            // biquads' own hold droops cancel against the images the
            // first-order section folds back). Measured 5.1e-5 dB /
            // 0.027° at osr 8 and 1.2e-8 dB / 4e-4° at osr 64.
            let (db, deg) = tone_oracle_error(&lp, osr, 20e-6, |f, dt| {
                lp.response(f) * sinc(f * dt) * Complex::cis(k * PI * f * dt)
            });
            assert!(
                db <= 1e-3 && deg <= 0.1,
                "lpf1 osr {osr}: {db:e} dB, {deg}°"
            );
            // `hpf1` (Butterworth-2, 150 kHz) against plain `H(j2πf)`: its
            // direct path passes the held sample through, and its images
            // alias back unattenuated. Measured 9.1e-3 dB / 0.13° and
            // 1.1e-3 dB / 0.016°.
            let (db, deg) = tone_oracle_error(&hp, osr, 40e-6, |f, _| hp.response(f));
            assert!(
                db <= 0.05 && deg <= 0.5,
                "hpf1 osr {osr}: {db:e} dB, {deg}°"
            );
        }
    }

    #[test]
    fn highpass_blocks_dc() {
        let af = AnalogFilter::butterworth(2, FilterKind::Highpass, 150e3);
        let mut ss = StateSpaceFilter::from_analog(&af);
        let dt = 1.0 / 320e6;
        let mut y = Complex::ONE;
        for _ in 0..3_000_000 {
            y = ss.step(Complex::ONE, dt);
        }
        assert!(y.abs() < 1e-2, "residual dc {}", y.abs());
    }

    #[test]
    fn complex_signals_filtered_per_axis() {
        // A purely imaginary input yields a purely imaginary output
        // (real coefficients).
        let af = AnalogFilter::butterworth(3, FilterKind::Lowpass, 5e6);
        let mut ss = StateSpaceFilter::from_analog(&af);
        let dt = 1.0 / 320e6;
        for _ in 0..10_000 {
            let y = ss.step(Complex::new(0.0, 1.0), dt);
            assert!(y.re.abs() < 1e-12);
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let af = AnalogFilter::butterworth(2, FilterKind::Lowpass, 1e6);
        let mut ss = StateSpaceFilter::from_analog(&af);
        let dt = 1e-9;
        let a = ss.step(Complex::ONE, dt);
        ss.reset();
        let b = ss.step(Complex::ONE, dt);
        assert_eq!(a, b);
    }

    /// Deterministic wideband drive: a tone plus Gaussian noise.
    fn drive(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = wlan_dsp::Rng::new(seed);
        (0..n)
            .map(|i| Complex::cis(0.37 * i as f64) + rng.complex_gaussian(0.5))
            .collect()
    }

    /// RK4 by its definition, through a `derivative` closure: the test
    /// reference for the propagator.
    fn rk4_derivative_form(s: &mut StateSpaceSection, u: Complex, dt: f64) -> Complex {
        let (order, alpha) = (s.order, s.alpha);
        let derivative = |x: [Complex; 2]| {
            if order == 2 {
                [x[1], u - x[0] * alpha[0] - x[1] * alpha[1]]
            } else {
                [u - x[0] * alpha[0], Complex::ZERO]
            }
        };
        let x = s.state;
        let k1 = derivative(x);
        let x2 = [x[0] + k1[0] * (dt / 2.0), x[1] + k1[1] * (dt / 2.0)];
        let k2 = derivative(x2);
        let x3 = [x[0] + k2[0] * (dt / 2.0), x[1] + k2[1] * (dt / 2.0)];
        let k3 = derivative(x3);
        let x4 = [x[0] + k3[0] * dt, x[1] + k3[1] * dt];
        let k4 = derivative(x4);
        for i in 0..2 {
            s.state[i] = x[i] + (k1[i] + k2[i] * 2.0 + k3[i] * 2.0 + k4[i]) * (dt / 6.0);
        }
        s.output(u)
    }

    /// Chebyshev lowpass orders 1–7 and 9 at 10 MHz and Butterworth
    /// highpass orders 1–4 at 150 kHz. Order 9 (5 sections) fills one
    /// `step_block` group and leaves a remainder of one.
    fn designs() -> Vec<AnalogFilter> {
        let mut designs: Vec<AnalogFilter> = (1..=7)
            .chain([9])
            .map(|order| AnalogFilter::chebyshev1(order, 0.5, FilterKind::Lowpass, 10e6))
            .collect();
        designs.extend(
            (1..=4).map(|order| AnalogFilter::butterworth(order, FilterKind::Highpass, 150e3)),
        );
        designs
    }

    /// Worst `|Δy| / peak|y|` of the propagator cascade against RK4 by
    /// its definition over `n` sub-steps of the wideband drive, over
    /// every design at 80, 320 and 640 MHz sub-step rates.
    fn propagator_drift(n: usize) -> f64 {
        let x = drive(n, 9);
        let mut worst = 0.0f64;
        for af in &designs() {
            for dt in [1.0 / 80e6, 1.0 / 320e6, 1.0 / 640e6] {
                let mut fast = StateSpaceFilter::from_analog(af);
                let mut reference = fast.clone();
                let (mut err, mut peak) = (0.0f64, 0.0f64);
                for &u in &x {
                    let a = fast.step(u, dt);
                    let mut b = u * reference.gain;
                    for s in reference.sections.iter_mut() {
                        b = rk4_derivative_form(s, b, dt);
                    }
                    err = err.max((a - b).abs());
                    peak = peak.max(b.abs());
                }
                worst = worst.max(err / peak);
            }
        }
        worst
    }

    #[test]
    fn propagator_tracks_rk4_definition() {
        // Measured ≤ 3.5e-15.
        let drift = propagator_drift(400_000);
        assert!(drift <= 1e-13, "drift {drift:e} of peak");
    }

    /// The 4·10⁶-sub-step drift check; opt in with `WLANSIM_SLOW_TESTS=1`.
    #[test]
    fn propagator_tracks_rk4_definition_long() {
        if std::env::var("WLANSIM_SLOW_TESTS").as_deref() != Ok("1") {
            return;
        }
        let drift = propagator_drift(4_000_000);
        assert!(drift <= 1e-13, "drift {drift:e} of peak");
    }

    #[test]
    fn step_block_bit_identical_to_per_sample_step() {
        let dt = 1.0 / 640e6;
        // Plus the Chebyshev lowpass at `MAX_FILTER_ORDER` (8 sections,
        // two full groups). Its high-Q sections drift 2.5e-13 of peak
        // from RK4 by its definition, outside `propagator_drift`'s bound,
        // so only this test runs it.
        let mut designs = designs();
        designs.push(AnalogFilter::chebyshev1(
            MAX_FILTER_ORDER,
            0.5,
            FilterKind::Lowpass,
            10e6,
        ));
        for af in &designs {
            let depth = af.sections().len();
            // Empty, single, pair, one less than the section count, one
            // chunk and a ragged length.
            for len in [0, 1, 2, depth.saturating_sub(1), 1024, 1500] {
                let mut block = StateSpaceFilter::from_analog(af);
                let mut scalar = block.clone();
                let x = drive(len, len as u64 + 1);
                let mut y = x.clone();
                // Two calls, so section state carries across blocks.
                let (head, tail) = y.split_at_mut(len / 3);
                block.step_block(head, dt);
                block.step_block(tail, dt);
                for (i, (&u, got)) in x.iter().zip(&y).enumerate() {
                    let want = scalar.step(u, dt);
                    assert_eq!(
                        (got.re.to_bits(), got.im.to_bits()),
                        (want.re.to_bits(), want.im.to_bits()),
                        "{depth} sections, len {len}, sample {i}"
                    );
                }
                // Both end in the same state.
                let (a, b) = (block.step(Complex::ONE, dt), scalar.step(Complex::ONE, dt));
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits())
                );
            }
        }
    }

    #[test]
    fn rk4_stable_at_practical_step() {
        // 10 MHz edge integrated at 320 MHz must not blow up.
        let af = AnalogFilter::chebyshev1(5, 0.5, FilterKind::Lowpass, 10e6);
        let mut ss = StateSpaceFilter::from_analog(&af);
        let dt = 1.0 / 320e6;
        let mut peak = 0.0f64;
        for i in 0..100_000 {
            let u = Complex::cis(0.3 * i as f64);
            peak = peak.max(ss.step(u, dt).abs());
        }
        assert!(peak < 10.0, "unstable: peak {peak}");
    }
}
