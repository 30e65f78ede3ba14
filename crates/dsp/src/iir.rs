//! IIR filtering: biquad sections and cascades (direct form II transposed).

use crate::complex::Complex;

/// A second-order IIR section `H(z) = (b0 + b1·z⁻¹ + b2·z⁻²) / (1 + a1·z⁻¹ + a2·z⁻²)`.
///
/// Coefficients are real; complex signals are filtered component-wise,
/// which is exact for real-coefficient transfer functions.
#[derive(Debug, Clone)]
pub struct Biquad {
    /// Numerator coefficients `[b0, b1, b2]`.
    pub b: [f64; 3],
    /// Denominator coefficients `[a1, a2]` (a0 normalized to 1).
    pub a: [f64; 2],
    s1: Complex,
    s2: Complex,
}

impl Biquad {
    /// Creates a section from normalized coefficients.
    pub fn new(b: [f64; 3], a: [f64; 2]) -> Self {
        Biquad {
            b,
            a,
            s1: Complex::ZERO,
            s2: Complex::ZERO,
        }
    }

    /// Identity (pass-through) section.
    pub fn identity() -> Self {
        Biquad::new([1.0, 0.0, 0.0], [0.0, 0.0])
    }

    /// Processes one sample (direct form II transposed).
    #[inline]
    pub fn push(&mut self, x: Complex) -> Complex {
        let y = x * self.b[0] + self.s1;
        self.s1 = x * self.b[1] - y * self.a[0] + self.s2;
        self.s2 = x * self.b[2] - y * self.a[1];
        y
    }

    /// Clears the filter state.
    pub fn reset(&mut self) {
        self.s1 = Complex::ZERO;
        self.s2 = Complex::ZERO;
    }

    /// Complex response at normalized frequency `f` (cycles/sample).
    pub fn response(&self, f: f64) -> Complex {
        let z1 = Complex::cis(-2.0 * std::f64::consts::PI * f);
        let z2 = z1 * z1;
        let num = Complex::from_re(self.b[0]) + z1 * self.b[1] + z2 * self.b[2];
        let den = Complex::ONE + z1 * self.a[0] + z2 * self.a[1];
        num / den
    }

    /// `true` when both poles are strictly inside the unit circle.
    pub fn is_stable(&self) -> bool {
        // Jury criterion for 2nd order: |a2| < 1 and |a1| < 1 + a2.
        self.a[1].abs() < 1.0 && self.a[0].abs() < 1.0 + self.a[1]
    }
}

/// A cascade of biquad sections (an "SOS" filter).
#[derive(Debug, Clone)]
pub struct Sos {
    sections: Vec<Biquad>,
    gain: f64,
}

impl Sos {
    /// Creates a cascade from sections with an overall scalar gain.
    pub fn new(sections: Vec<Biquad>, gain: f64) -> Self {
        Sos { sections, gain }
    }

    /// Identity filter.
    pub fn identity() -> Self {
        Sos::new(Vec::new(), 1.0)
    }

    /// Number of biquad sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// `true` if the cascade has no sections (pure gain).
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Access to the sections.
    pub fn sections(&self) -> &[Biquad] {
        &self.sections
    }

    /// Overall gain factor.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Processes one sample through the whole cascade.
    #[inline]
    pub fn push(&mut self, x: Complex) -> Complex {
        let mut v = x * self.gain;
        for s in self.sections.iter_mut() {
            v = s.push(v);
        }
        v
    }

    /// Filters a frame.
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        x.iter().map(|&v| self.push(v)).collect()
    }

    /// Filters a frame in place, sample-major: each sample passes the
    /// gain and every section before the next sample starts, with the
    /// coefficients and states in locals. This is the arithmetic of
    /// per-sample [`Sos::push`], so the result is bit-identical, but
    /// the sections' recurrences overlap in time instead of running one
    /// after another. Cascades longer than four sections run as
    /// consecutive groups of up to four over the frame (the gain in the
    /// first).
    pub fn process_in_place(&mut self, x: &mut [Complex]) {
        let mut gain = self.gain;
        let mut rest = &mut self.sections[..];
        loop {
            let (group, tail) = rest.split_at_mut(rest.len().min(SOS_GROUP));
            match group.len() {
                0 => cascade::<0>(group, gain, x),
                1 => cascade::<1>(group, gain, x),
                2 => cascade::<2>(group, gain, x),
                3 => cascade::<3>(group, gain, x),
                _ => cascade::<SOS_GROUP>(group, gain, x),
            }
            if tail.is_empty() {
                break;
            }
            // Multiplying by 1.0 is exact, so later groups add no rounding.
            gain = 1.0;
            rest = tail;
        }
    }

    /// Filters a frame of real samples.
    pub fn process_real(&mut self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .map(|&v| self.push(Complex::from_re(v)).re)
            .collect()
    }

    /// Clears all section states.
    pub fn reset(&mut self) {
        for s in self.sections.iter_mut() {
            s.reset();
        }
    }

    /// Complex response at normalized frequency `f` (cycles/sample).
    pub fn response(&self, f: f64) -> Complex {
        let mut h = Complex::from_re(self.gain);
        for s in &self.sections {
            h *= s.response(f);
        }
        h
    }

    /// Magnitude response in dB at normalized frequency `f`.
    pub fn response_db(&self, f: f64) -> f64 {
        crate::math::amp_to_db(self.response(f).abs())
    }

    /// `true` when every section is stable.
    pub fn is_stable(&self) -> bool {
        self.sections.iter().all(|s| s.is_stable())
    }

    /// The first `n` samples of the impulse response (resets a clone of
    /// the filter, so the caller's state is untouched).
    pub fn impulse_response(&self, n: usize) -> Vec<f64> {
        let mut f = self.clone();
        f.reset();
        (0..n)
            .map(|i| {
                let x = if i == 0 { Complex::ONE } else { Complex::ZERO };
                f.push(x).re
            })
            .collect()
    }

    /// Numerical group delay in samples at normalized frequency `f`
    /// (cycles/sample), from the phase derivative.
    pub fn group_delay(&self, f: f64) -> f64 {
        let df = 1e-6;
        let p1 = self.response(f - df).arg();
        let p2 = self.response(f + df).arg();
        let mut dp = p2 - p1;
        // Unwrap a single 2π jump.
        if dp > std::f64::consts::PI {
            dp -= 2.0 * std::f64::consts::PI;
        } else if dp < -std::f64::consts::PI {
            dp += 2.0 * std::f64::consts::PI;
        }
        -dp / (2.0 * std::f64::consts::PI * 2.0 * df)
    }
}

/// Largest number of sections [`Sos::process_in_place`] steps per
/// sample with all states in locals.
const SOS_GROUP: usize = 4;

/// Runs `S` sections sample-major over `x`: input gain, then each
/// section's direct form II transposed step, the expressions of
/// [`Biquad::push`] exactly.
#[inline(always)]
fn cascade<const S: usize>(sections: &mut [Biquad], gain: f64, x: &mut [Complex]) {
    let sections: &mut [Biquad; S] = sections.try_into().expect("group of S sections");
    let b: [[f64; 3]; S] = std::array::from_fn(|k| sections[k].b);
    let a: [[f64; 2]; S] = std::array::from_fn(|k| sections[k].a);
    let mut s1: [Complex; S] = std::array::from_fn(|k| sections[k].s1);
    let mut s2: [Complex; S] = std::array::from_fn(|k| sections[k].s2);
    for v in x.iter_mut() {
        let mut y = *v * gain;
        for k in 0..S {
            let xs = y;
            y = xs * b[k][0] + s1[k];
            s1[k] = xs * b[k][1] - y * a[k][0] + s2[k];
            s2[k] = xs * b[k][2] - y * a[k][1];
        }
        *v = y;
    }
    for (k, s) in sections.iter_mut().enumerate() {
        s.s1 = s1[k];
        s.s2 = s2[k];
    }
}

/// Single-pole DC-blocking highpass `H(z) = (1 - z⁻¹)/(1 - r·z⁻¹)`.
///
/// `r` close to 1 gives a very low cutoff: `f_c ≈ (1-r)/π` cycles/sample.
#[derive(Debug, Clone)]
pub struct DcBlocker {
    r: f64,
    x1: Complex,
    y1: Complex,
}

impl DcBlocker {
    /// Creates a DC blocker with pole radius `r` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is outside `(0, 1)`.
    pub fn new(r: f64) -> Self {
        assert!(
            r > 0.0 && r < 1.0,
            "DC blocker pole must be in (0,1), got {r}"
        );
        DcBlocker {
            r,
            x1: Complex::ZERO,
            y1: Complex::ZERO,
        }
    }

    /// Creates a blocker with -3 dB cutoff `fc` (Hz) at sample rate `fs`.
    pub fn with_cutoff(fc: f64, fs: f64) -> Self {
        let r = (1.0 - 2.0 * std::f64::consts::PI * fc / fs).clamp(0.0001, 0.999_999);
        DcBlocker::new(r)
    }

    /// Processes one sample.
    #[inline]
    pub fn push(&mut self, x: Complex) -> Complex {
        let y = x - self.x1 + self.y1 * self.r;
        self.x1 = x;
        self.y1 = y;
        y
    }

    /// Filters a frame.
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        x.iter().map(|&v| self.push(v)).collect()
    }

    /// Clears the state.
    pub fn reset(&mut self) {
        self.x1 = Complex::ZERO;
        self.y1 = Complex::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_biquad_passes_through() {
        let mut b = Biquad::identity();
        for i in 0..10 {
            let x = Complex::new(i as f64, -(i as f64));
            assert_eq!(b.push(x), x);
        }
    }

    #[test]
    fn one_pole_lowpass_smooths() {
        // y[n] = 0.1 x[n] + 0.9 y[n-1]
        let mut b = Biquad::new([0.1, 0.0, 0.0], [-0.9, 0.0]);
        assert!(b.is_stable());
        let mut y = Complex::ZERO;
        for _ in 0..500 {
            y = b.push(Complex::ONE);
        }
        assert!((y.re - 1.0).abs() < 1e-6); // unit DC gain: 0.1/(1-0.9)
    }

    #[test]
    fn response_matches_time_domain_dc() {
        let mut b = Biquad::new([0.2, 0.3, 0.1], [-0.4, 0.2]);
        let h0 = b.response(0.0);
        let mut y = Complex::ZERO;
        for _ in 0..2000 {
            y = b.push(Complex::ONE);
        }
        assert!((y.re - h0.re).abs() < 1e-9);
    }

    #[test]
    fn stability_criterion() {
        assert!(Biquad::new([1.0, 0.0, 0.0], [0.0, 0.99]).is_stable());
        assert!(!Biquad::new([1.0, 0.0, 0.0], [0.0, 1.01]).is_stable());
        assert!(!Biquad::new([1.0, 0.0, 0.0], [-2.05, 1.0]).is_stable());
    }

    #[test]
    fn sos_cascade_multiplies_responses() {
        let s1 = Biquad::new([0.5, 0.0, 0.0], [-0.5, 0.0]);
        let s2 = Biquad::new([0.3, 0.1, 0.0], [0.2, 0.0]);
        let sos = Sos::new(vec![s1.clone(), s2.clone()], 2.0);
        let f = 0.13;
        let expect = s1.response(f) * s2.response(f) * 2.0;
        assert!((sos.response(f) - expect).abs() < 1e-12);
    }

    #[test]
    fn sos_identity() {
        let mut sos = Sos::identity();
        let x = Complex::new(1.0, 2.0);
        assert_eq!(sos.push(x), x);
        assert!(sos.is_empty());
        assert!(sos.is_stable());
    }

    #[test]
    fn sos_reset_and_real_processing() {
        let mut sos = Sos::new(vec![Biquad::new([1.0, 1.0, 0.0], [0.0, 0.0])], 1.0);
        let y1 = sos.process_real(&[1.0, 0.0, 0.0]);
        sos.reset();
        let y2 = sos.process_real(&[1.0, 0.0, 0.0]);
        assert_eq!(y1, y2);
        assert_eq!(y1, vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn impulse_response_sums_to_dc_gain() {
        let mut f = crate::design::butterworth(3, crate::design::FilterKind::Lowpass, 1e6, 20e6);
        let h = f.impulse_response(4000);
        let sum: f64 = h.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "impulse sum {sum}");
        // Caller state untouched: pushing after the call starts fresh.
        let y = f.push(Complex::ONE);
        assert!((y.re - h[0]).abs() < 1e-12);
    }

    #[test]
    fn group_delay_positive_in_passband() {
        let f = crate::design::chebyshev1(5, 0.5, crate::design::FilterKind::Lowpass, 8e6, 80e6);
        let gd_mid = f.group_delay(2e6 / 80e6);
        let gd_edge = f.group_delay(7.8e6 / 80e6);
        assert!(gd_mid > 0.5, "mid-band delay {gd_mid}");
        // Chebyshev group delay peaks near the band edge.
        assert!(gd_edge > gd_mid, "edge {gd_edge} vs mid {gd_mid}");
    }

    /// The section-major cascade: the gain pass, then each section run
    /// over the whole frame.
    fn section_major(sections: &mut [Biquad], gain: f64, x: &mut [Complex]) {
        for v in x.iter_mut() {
            *v *= gain;
        }
        for s in sections.iter_mut() {
            for v in x.iter_mut() {
                *v = s.push(*v);
            }
        }
    }

    #[test]
    fn sample_major_cascade_matches_section_major_bit_exact() {
        use crate::design::{butterworth, chebyshev1, FilterKind};
        let mut rng = crate::Rng::new(17);
        let x: Vec<Complex> = (0..700).map(|_| rng.complex_gaussian(1.0)).collect();
        // Frames of 0, 1, 7 and 63 samples, then the rest, so states
        // carry across every kind of boundary.
        let cuts = [0, 1, 7, 63, x.len() - 71];
        let kinds = [FilterKind::Lowpass, FilterKind::Highpass];
        // Orders 1–10 give 1–5 sections; 12 adds a second group.
        for order in (1..=10).chain([12]) {
            for (k, kind) in kinds.into_iter().enumerate() {
                let designs = [
                    butterworth(order, kind, 3e6 + 1e6 * k as f64, 80e6),
                    chebyshev1(order, 0.5, kind, 8e6, 80e6),
                ];
                for sos in designs {
                    assert_eq!(sos.len(), order.div_ceil(2));
                    let mut fast = sos.clone();
                    let mut slow = sos.clone();
                    let mut slow_sections = slow.sections.clone();
                    let mut one = sos.clone();
                    let (mut got, mut want) = (x.clone(), x.clone());
                    let mut start = 0;
                    for c in cuts {
                        fast.process_in_place(&mut got[start..start + c]);
                        section_major(&mut slow_sections, slow.gain, &mut want[start..start + c]);
                        start += c;
                    }
                    slow.sections = slow_sections;
                    let pushed: Vec<Complex> = x.iter().map(|&v| one.push(v)).collect();
                    for (i, ((g, w), p)) in got.iter().zip(&want).zip(&pushed).enumerate() {
                        let what = format!("order {order} {kind:?}: sample {i}");
                        assert_eq!(
                            (g.re.to_bits(), g.im.to_bits()),
                            (w.re.to_bits(), w.im.to_bits()),
                            "{what}"
                        );
                        assert_eq!(
                            (g.re.to_bits(), g.im.to_bits()),
                            (p.re.to_bits(), p.im.to_bits()),
                            "{what}"
                        );
                    }
                    // The carried states agree too.
                    for (f, s) in fast.sections.iter().zip(&slow.sections) {
                        assert_eq!((f.s1, f.s2), (s.s1, s.s2), "order {order} {kind:?}");
                    }
                }
            }
        }
        // No sections: a pure gain.
        let mut g = Sos::new(Vec::new(), 0.5);
        let mut y = x.clone();
        g.process_in_place(&mut y);
        assert!(y.iter().zip(&x).all(|(a, b)| *a == *b * 0.5));
    }

    #[test]
    fn dc_blocker_removes_dc_keeps_ac() {
        let mut blk = DcBlocker::new(0.995);
        let mut last = Complex::ZERO;
        // Constant input decays to zero.
        for _ in 0..20_000 {
            last = blk.push(Complex::ONE);
        }
        assert!(last.abs() < 1e-3);
        // A fast tone passes nearly unchanged.
        blk.reset();
        let mut peak: f64 = 0.0;
        for n in 0..2000 {
            let x = Complex::cis(2.0 * std::f64::consts::PI * 0.25 * n as f64);
            let y = blk.push(x);
            if n > 100 {
                peak = peak.max(y.abs());
            }
        }
        assert!((peak - 1.0).abs() < 0.05);
    }

    #[test]
    #[should_panic]
    fn dc_blocker_bad_pole_panics() {
        let _ = DcBlocker::new(1.5);
    }

    #[test]
    fn dc_blocker_cutoff_constructor() {
        let mut blk = DcBlocker::with_cutoff(100e3, 20e6);
        // At f = fc the attenuation should be near 3 dB.
        let fc_norm = 100e3 / 20e6;
        let mut sum = 0.0f64;
        let n = 40_000;
        for i in 0..n {
            let x = Complex::cis(2.0 * std::f64::consts::PI * fc_norm * i as f64);
            let y = blk.push(x);
            if i > n / 2 {
                sum += y.norm_sqr();
            }
        }
        let p = sum / (n / 2 - 1) as f64;
        let att_db = -crate::math::lin_to_db(p);
        assert!(att_db > 1.0 && att_db < 5.0, "attenuation {att_db} dB");
    }
}
