//! FIR filters: windowed-sinc design and streaming application.

use crate::complex::Complex;
use crate::math::sinc;
use crate::window::Window;

/// Designs a linear-phase lowpass FIR by the windowed-sinc method.
///
/// `cutoff` is the -6 dB edge as a fraction of the sample rate
/// (`0 < cutoff < 0.5`); `taps` is the filter length. The impulse
/// response is normalized for unit DC gain.
///
/// # Panics
///
/// Panics if `cutoff` is outside `(0, 0.5)` or `taps == 0`.
///
/// ```
/// use wlan_dsp::fir::{lowpass, Fir};
/// let h = lowpass(0.25, 63, wlan_dsp::window::Window::Hamming);
/// assert_eq!(h.len(), 63);
/// let dc: f64 = h.iter().sum();
/// assert!((dc - 1.0).abs() < 1e-9);
/// ```
pub fn lowpass(cutoff: f64, taps: usize, window: Window) -> Vec<f64> {
    assert!(
        cutoff > 0.0 && cutoff < 0.5,
        "cutoff must be in (0, 0.5), got {cutoff}"
    );
    assert!(taps > 0, "taps must be positive");
    let w = window_symmetric(window, taps);
    let mid = (taps - 1) as f64 / 2.0;
    let mut h: Vec<f64> = (0..taps)
        .map(|i| {
            let t = i as f64 - mid;
            2.0 * cutoff * sinc(2.0 * cutoff * t) * w[i]
        })
        .collect();
    let dc: f64 = h.iter().sum();
    for v in h.iter_mut() {
        *v /= dc;
    }
    h
}

/// Designs a highpass FIR by spectral inversion of [`lowpass`].
///
/// `taps` must be odd so the spectral inversion has a well-defined
/// center tap.
///
/// # Panics
///
/// Panics on even `taps` or an out-of-range cutoff.
pub fn highpass(cutoff: f64, taps: usize, window: Window) -> Vec<f64> {
    assert!(taps % 2 == 1, "highpass design requires an odd tap count");
    let mut h: Vec<f64> = lowpass(cutoff, taps, window).iter().map(|v| -v).collect();
    h[(taps - 1) / 2] += 1.0;
    h
}

/// Symmetric window evaluation for FIR design (denominator `n-1`).
fn window_symmetric(window: Window, n: usize) -> Vec<f64> {
    if n == 1 {
        return vec![1.0];
    }
    // Reuse the periodic evaluator on n-1 then append the mirror point —
    // except Kaiser which is already symmetric in `coefficients`.
    match window {
        Window::Kaiser(_) => window.coefficients(n),
        _ => {
            let mut w = window.coefficients(n - 1);
            w.push(w[0]);
            // periodic(n-1) over 0..n-1 equals symmetric(n) over 0..n-1
            w
        }
    }
}

/// Streaming FIR filter over complex samples (real coefficients).
///
/// Keeps state between calls so long signals can be filtered in frames.
#[derive(Debug, Clone)]
pub struct Fir {
    taps: Vec<f64>,
    state: Vec<Complex>,
    pos: usize,
}

impl Fir {
    /// Creates a filter from its impulse response.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "FIR needs at least one tap");
        let n = taps.len();
        Fir {
            taps,
            state: vec![Complex::ZERO; n],
            pos: 0,
        }
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// `true` if the filter has no taps (never; construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Group delay in samples (linear-phase assumption).
    pub fn group_delay(&self) -> f64 {
        (self.taps.len() - 1) as f64 / 2.0
    }

    /// Filter coefficients.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Resets the internal delay line to zero.
    pub fn reset(&mut self) {
        self.state.fill(Complex::ZERO);
        self.pos = 0;
    }

    /// Processes one sample.
    #[inline]
    pub fn push(&mut self, x: Complex) -> Complex {
        let n = self.taps.len();
        self.state[self.pos] = x;
        let mut acc = Complex::ZERO;
        let mut idx = self.pos;
        for &t in &self.taps {
            acc += self.state[idx] * t;
            idx = if idx == 0 { n - 1 } else { idx - 1 };
        }
        self.pos = (self.pos + 1) % n;
        acc
    }

    /// Filters a frame, returning the output frame of equal length.
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        x.iter().map(|&v| self.push(v)).collect()
    }

    /// Complex frequency response at normalized frequency `f` (cycles per
    /// sample, `-0.5 ≤ f ≤ 0.5`).
    pub fn response(&self, f: f64) -> Complex {
        self.taps
            .iter()
            .enumerate()
            .map(|(n, &t)| Complex::cis(-2.0 * std::f64::consts::PI * f * n as f64) * t)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::amp_to_db;

    #[test]
    fn lowpass_dc_gain_unity() {
        for taps in [21, 64, 101] {
            let h = lowpass(0.2, taps, Window::Hamming);
            assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lowpass_passband_and_stopband() {
        let f = Fir::new(lowpass(0.125, 101, Window::Kaiser(8.0)));
        // Passband at 0.05, stopband at 0.25
        let pass = amp_to_db(f.response(0.05).abs());
        let stop = amp_to_db(f.response(0.25).abs());
        assert!(pass.abs() < 0.1, "passband ripple {pass}");
        assert!(stop < -60.0, "stopband {stop}");
    }

    #[test]
    fn highpass_blocks_dc() {
        let f = Fir::new(highpass(0.1, 101, Window::Hamming));
        assert!(f.response(0.0).abs() < 1e-6);
        assert!((f.response(0.4).abs() - 1.0).abs() < 0.01);
    }

    #[test]
    #[should_panic]
    fn highpass_even_taps_panics() {
        let _ = highpass(0.1, 100, Window::Hamming);
    }

    #[test]
    #[should_panic]
    fn lowpass_bad_cutoff_panics() {
        let _ = lowpass(0.6, 31, Window::Hamming);
    }

    #[test]
    fn impulse_response_identity() {
        let taps = vec![0.5, 0.25, 0.25];
        let mut f = Fir::new(taps.clone());
        let mut x = vec![Complex::ZERO; 5];
        x[0] = Complex::ONE;
        let y = f.process(&x);
        for (i, &t) in taps.iter().enumerate() {
            assert!((y[i].re - t).abs() < 1e-15);
        }
        assert!(y[3].abs() < 1e-15);
    }

    #[test]
    fn streaming_equals_batch() {
        let taps = lowpass(0.3, 17, Window::Hann);
        let x: Vec<Complex> = (0..50)
            .map(|i| Complex::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let mut f1 = Fir::new(taps.clone());
        let batch = f1.process(&x);
        let mut f2 = Fir::new(taps);
        let mut streamed = Vec::new();
        for chunk in x.chunks(7) {
            streamed.extend(f2.process(chunk));
        }
        for (a, b) in batch.iter().zip(streamed.iter()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut f = Fir::new(vec![1.0, 1.0]);
        f.push(Complex::ONE);
        f.reset();
        assert_eq!(f.push(Complex::ZERO), Complex::ZERO);
    }

    #[test]
    fn convolve_known_result() {
        // Zero-padded by `h.len() − 1`, the streaming filter gives the
        // full convolution.
        let x = [1.0, 2.0, 0.0, 0.0].map(Complex::from_re);
        let mut f = Fir::new(vec![1.0, 1.0, 1.0]);
        let y = f.process(&x);
        let expect = [1.0, 3.0, 3.0, 2.0];
        for (a, e) in y.iter().zip(expect.iter()) {
            assert!((a.re - e).abs() < 1e-15);
        }
        assert!(f.process(&[]).is_empty());
    }

    #[test]
    fn linear_phase_group_delay() {
        let taps = lowpass(0.2, 41, Window::Hamming);
        let f = Fir::new(taps);
        assert_eq!(f.group_delay(), 20.0);
        // Check phase slope matches group delay at small f.
        let df = 0.001;
        let p1 = f.response(0.01).arg();
        let p2 = f.response(0.01 + df).arg();
        let gd = -(p2 - p1) / (2.0 * std::f64::consts::PI * df);
        assert!((gd - 20.0).abs() < 0.5);
    }
}
