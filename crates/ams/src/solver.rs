//! Fixed-step continuous-time integration of state-space sections.
//!
//! Analog filters are represented as cascades of first/second-order
//! state-space systems in controllable canonical form and integrated
//! with classic RK4 under a zero-order-hold input — the "analog solver"
//! whose fine timestep makes co-simulation expensive (paper §5.3).

use wlan_dsp::design::{AnalogFilter, AnalogSection};
use wlan_dsp::Complex;

/// Integration method for the fixed-step solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Classic 4th-order Runge–Kutta: accurate, conditionally stable
    /// (needs `|pole|·dt ≲ 2.8`).
    #[default]
    Rk4,
    /// Trapezoidal (Tustin): 2nd-order, A-stable — never diverges on a
    /// stable linear system, whatever the step (the workhorse of SPICE
    /// transient analysis).
    Trapezoidal,
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
    integrator: Integrator,
    /// Cached trapezoidal update matrices for the last `dt` used:
    /// `(dt, m_inv·p (2×2), m_inv·b·dt (2×1))`.
    trap_cache: Option<(f64, [[f64; 2]; 2], [f64; 2])>,
}

impl StateSpaceSection {
    /// Builds from an [`AnalogSection`].
    ///
    /// # Panics
    ///
    /// Panics on a zeroth-order (pure gain) section with zero
    /// denominator dynamics.
    pub fn from_analog(sec: &AnalogSection) -> Self {
        if sec.a[2] != 0.0 {
            // Second order: normalize by a2.
            let a0 = sec.a[0] / sec.a[2];
            let a1 = sec.a[1] / sec.a[2];
            let b0 = sec.b[0] / sec.a[2];
            let b1 = sec.b[1] / sec.a[2];
            let b2 = sec.b[2] / sec.a[2];
            StateSpaceSection {
                order: 2,
                alpha: [a0, a1],
                c: [b0 - b2 * a0, b1 - b2 * a1],
                d: b2,
                state: [Complex::ZERO; 2],
                integrator: Integrator::Rk4,
                trap_cache: None,
            }
        } else {
            assert!(sec.a[1] != 0.0, "static section has no dynamics");
            // First order: normalize by a1.
            let a0 = sec.a[0] / sec.a[1];
            let b0 = sec.b[0] / sec.a[1];
            let b1 = sec.b[1] / sec.a[1];
            StateSpaceSection {
                order: 1,
                alpha: [a0, 0.0],
                c: [b0 - b1 * a0, 0.0],
                d: b1,
                state: [Complex::ZERO; 2],
                integrator: Integrator::Rk4,
                trap_cache: None,
            }
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

    /// Selects the integration method.
    pub fn set_integrator(&mut self, integrator: Integrator) {
        self.integrator = integrator;
        self.trap_cache = None;
    }

    /// Trapezoidal update: `(I − h·A)x' = (I + h·A)x + dt·B·u`, `h = dt/2`,
    /// solved analytically for the ≤2×2 system and cached per `dt`.
    fn step_trapezoidal(&mut self, u: Complex, dt: f64) -> Complex {
        let cached = match self.trap_cache {
            Some((d, m, b)) if d == dt => (m, b),
            _ => {
                let h = dt / 2.0;
                let (m, b) = if self.order == 2 {
                    let (a0, a1) = (self.alpha[0], self.alpha[1]);
                    // I − hA = [[1, −h],[h·a0, 1 + h·a1]]
                    let det = (1.0 + h * a1) + h * h * a0;
                    let inv = [[(1.0 + h * a1) / det, h / det], [-h * a0 / det, 1.0 / det]];
                    // P = I + hA = [[1, h],[−h·a0, 1 − h·a1]]
                    let p = [[1.0, h], [-h * a0, 1.0 - h * a1]];
                    // m = inv · p
                    let m = [
                        [
                            inv[0][0] * p[0][0] + inv[0][1] * p[1][0],
                            inv[0][0] * p[0][1] + inv[0][1] * p[1][1],
                        ],
                        [
                            inv[1][0] * p[0][0] + inv[1][1] * p[1][0],
                            inv[1][0] * p[0][1] + inv[1][1] * p[1][1],
                        ],
                    ];
                    // b = inv · B·dt with B = [0, 1]
                    let b = [inv[0][1] * dt, inv[1][1] * dt];
                    (m, b)
                } else {
                    let a = -self.alpha[0];
                    let den = 1.0 - h * a;
                    ([[(1.0 + h * a) / den, 0.0], [0.0, 0.0]], [dt / den, 0.0])
                };
                self.trap_cache = Some((dt, m, b));
                (m, b)
            }
        };
        let (m, b) = cached;
        let x = self.state;
        self.state = [
            x[0] * m[0][0] + x[1] * m[0][1] + u * b[0],
            x[0] * m[1][0] + x[1] * m[1][1] + u * b[1],
        ];
        self.output(u)
    }

    /// Advances the section by `dt` with input `u` held constant (ZOH),
    /// returning the output at the end of the step.
    pub fn step(&mut self, u: Complex, dt: f64) -> Complex {
        self.step_with(u, dt, dt / 2.0, dt / 6.0)
    }

    /// [`StateSpaceSection::step`] with the RK4 step fractions
    /// `h2 = dt/2` and `h6 = dt/6` hoisted by the caller.
    // Forced inline: as a call, the wavefront loop of
    // `StateSpaceFilter::step_block` ran the 10 MHz channel filter at
    // ~46 ns per sub-step instead of ~27.
    #[inline(always)]
    fn step_with(&mut self, u: Complex, dt: f64, h2: f64, h6: f64) -> Complex {
        if self.integrator == Integrator::Trapezoidal {
            return self.step_trapezoidal(u, dt);
        }
        // RK4 with constant input, resolved per order: the derivative is
        // `[x1, u − α0·x0 − α1·x1]` (order 2) or `[u − α0·x0, 0]` (order
        // 1, whose second state stays zero).
        let [a0, a1] = self.alpha;
        let [x0, x1] = self.state;
        if self.order == 2 {
            let k1 = [x1, u - x0 * a0 - x1 * a1];
            let x2 = [x0 + k1[0] * h2, x1 + k1[1] * h2];
            let k2 = [x2[1], u - x2[0] * a0 - x2[1] * a1];
            let x3 = [x0 + k2[0] * h2, x1 + k2[1] * h2];
            let k3 = [x3[1], u - x3[0] * a0 - x3[1] * a1];
            let x4 = [x0 + k3[0] * dt, x1 + k3[1] * dt];
            let k4 = [x4[1], u - x4[0] * a0 - x4[1] * a1];
            self.state = [
                x0 + (k1[0] + k2[0] * 2.0 + k3[0] * 2.0 + k4[0]) * h6,
                x1 + (k1[1] + k2[1] * 2.0 + k3[1] * 2.0 + k4[1]) * h6,
            ];
        } else {
            let k1 = u - x0 * a0;
            let k2 = u - (x0 + k1 * h2) * a0;
            let k3 = u - (x0 + k2 * h2) * a0;
            let k4 = u - (x0 + k3 * dt) * a0;
            self.state[0] = x0 + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * h6;
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

    /// Selects the integration method for every section.
    pub fn set_integrator(&mut self, integrator: Integrator) {
        for s in self.sections.iter_mut() {
            s.set_integrator(integrator);
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
    /// After the gain pass the sections run as a wavefront: at time `t`
    /// section `k` steps sample `t − k`, whose value section `k − 1`
    /// produced at time `t − 1`. Every section sees exactly its
    /// sample-by-sample input sequence (so outputs are bit-identical),
    /// but the sections' serial RK4 chains are independent within a
    /// time step and overlap in the pipeline.
    pub fn step_block(&mut self, buf: &mut [Complex], dt: f64) {
        for v in buf.iter_mut() {
            *v *= self.gain;
        }
        let (n, depth) = (buf.len(), self.sections.len());
        let (h2, h6) = (dt / 2.0, dt / 6.0);
        for t in 0..(n + depth).saturating_sub(1) {
            let first = (t + 1).saturating_sub(n);
            let active = &mut self.sections[first..depth.min(t + 1)];
            for (k, s) in active.iter_mut().enumerate() {
                let i = t - first - k;
                buf[i] = s.step_with(buf[i], dt, h2, h6);
            }
        }
    }

    /// Clears all states.
    pub fn reset(&mut self) {
        for s in self.sections.iter_mut() {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_dsp::design::FilterKind;

    fn tone_gain(filter: &mut StateSpaceFilter, f_hz: f64, dt: f64, n: usize) -> f64 {
        let mut p_out = 0.0;
        let mut count = 0usize;
        for i in 0..n {
            let t = i as f64 * dt;
            let u = Complex::cis(2.0 * std::f64::consts::PI * f_hz * t);
            let y = filter.step(u, dt);
            if i > n / 2 {
                p_out += y.norm_sqr();
                count += 1;
            }
        }
        (p_out / count as f64).sqrt()
    }

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

    #[test]
    fn matches_analog_response_across_band() {
        let af = AnalogFilter::chebyshev1(5, 0.5, FilterKind::Lowpass, 8e6);
        let dt = 1.0 / 640e6;
        for f in [1e6, 4e6, 8e6, 16e6, 24e6] {
            let mut ss = StateSpaceFilter::from_analog(&af);
            let got = tone_gain(&mut ss, f, dt, 400_000);
            let expect = af.response(f).abs();
            assert!(
                (got - expect).abs() < 0.02 * expect.max(0.01),
                "f = {f}: got {got}, expected {expect}"
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

    #[test]
    fn trapezoidal_matches_analog_response() {
        let af = AnalogFilter::chebyshev1(5, 0.5, FilterKind::Lowpass, 8e6);
        let dt = 1.0 / 640e6;
        for f in [1e6, 4e6, 8e6, 16e6] {
            let mut ss = StateSpaceFilter::from_analog(&af);
            ss.set_integrator(Integrator::Trapezoidal);
            let got = tone_gain(&mut ss, f, dt, 400_000);
            let expect = af.response(f).abs();
            assert!(
                (got - expect).abs() < 0.03 * expect.max(0.01),
                "f = {f}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn trapezoidal_is_a_stable_where_rk4_diverges() {
        // A 10 MHz pole stepped at dt = 1/16 MHz: |pole·dt| ≈ 3.9, past
        // RK4's stability boundary (~2.8) but fine for trapezoidal.
        let af = AnalogFilter::butterworth(1, FilterKind::Lowpass, 10e6);
        let dt = 1.0 / 16e6;
        let run = |integ: Integrator| -> f64 {
            let mut ss = StateSpaceFilter::from_analog(&af);
            ss.set_integrator(integ);
            let mut peak = 0.0f64;
            for _ in 0..2000 {
                peak = peak.max(ss.step(Complex::ONE, dt).abs());
                if !peak.is_finite() || peak > 1e12 {
                    break;
                }
            }
            peak
        };
        let rk4 = run(Integrator::Rk4);
        let trap = run(Integrator::Trapezoidal);
        assert!(rk4 > 1e6, "RK4 unexpectedly stable: peak {rk4}");
        assert!(trap < 2.0, "trapezoidal diverged: peak {trap}");
    }

    #[test]
    fn trapezoidal_dc_gain_exact() {
        let af = AnalogFilter::butterworth(2, FilterKind::Lowpass, 1e6);
        let mut ss = StateSpaceFilter::from_analog(&af);
        ss.set_integrator(Integrator::Trapezoidal);
        let dt = 1.0 / 100e6;
        let mut y = Complex::ZERO;
        for _ in 0..100_000 {
            y = ss.step(Complex::ONE, dt);
        }
        assert!((y.re - 1.0).abs() < 1e-6, "dc {}", y.re);
    }

    /// Deterministic wideband drive: a tone plus Gaussian noise.
    fn drive(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = wlan_dsp::Rng::new(seed);
        (0..n)
            .map(|i| Complex::cis(0.37 * i as f64) + rng.complex_gaussian(0.5))
            .collect()
    }

    /// RK4 in its generic form, through a `derivative` closure: the
    /// formulation the order-resolved body in `step_with` must match
    /// float op for float op.
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

    #[test]
    fn order_resolved_rk4_matches_derivative_form() {
        let dt = 1.0 / 640e6;
        let x = drive(4_000, 9);
        for af in [
            AnalogFilter::chebyshev1(7, 0.5, FilterKind::Lowpass, 10e6),
            AnalogFilter::butterworth(3, FilterKind::Highpass, 150e3),
        ] {
            for sec in af.sections() {
                let mut fast = StateSpaceSection::from_analog(sec);
                let mut generic = fast.clone();
                for &u in &x {
                    let (a, b) = (fast.step(u, dt), rk4_derivative_form(&mut generic, u, dt));
                    assert_eq!(
                        (a.re.to_bits(), a.im.to_bits()),
                        (b.re.to_bits(), b.im.to_bits())
                    );
                }
            }
        }
    }

    #[test]
    fn step_block_bit_identical_to_per_sample_step() {
        let mut designs: Vec<AnalogFilter> = (1..=7)
            .map(|order| AnalogFilter::chebyshev1(order, 0.5, FilterKind::Lowpass, 10e6))
            .collect();
        designs.extend(
            (1..=4).map(|order| AnalogFilter::butterworth(order, FilterKind::Highpass, 150e3)),
        );
        let dt = 1.0 / 640e6;
        for af in &designs {
            let depth = af.sections().len();
            for integrator in [Integrator::Rk4, Integrator::Trapezoidal] {
                // Empty, single, pair, shorter than the wavefront, one
                // chunk and a ragged length.
                for len in [0, 1, 2, depth.saturating_sub(1), 1024, 1500] {
                    let mut block = StateSpaceFilter::from_analog(af);
                    block.set_integrator(integrator);
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
                            "{depth} sections, {integrator:?}, len {len}, sample {i}"
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
