//! Integer-factor resampling with polyphase anti-alias/anti-image FIR
//! filtering.
//!
//! The paper's system testbench runs the DSP PHY at 20 Msps and the RF
//! subsystem at an oversampled rate so the +20 MHz adjacent channel is
//! representable ("the baseband signal was over-sampled to fulfill the
//! sampling theorem", §4.1). These converters provide that rate change.

use crate::complex::Complex;
use crate::fir::{lowpass, Fir};
use crate::rotor::Rotor;
use crate::window::Window;

/// Consecutive outputs per branch that one upsampler block accumulates.
const UP_BLOCK: usize = 8;

/// Polyphase interpolator (upsampler) by an integer factor.
///
/// Zero-stuffs by `factor` and applies an anti-imaging lowpass with a
/// passband gain of `factor` so signal amplitude (and hence power of the
/// in-band component) is preserved. Output `n·factor + p` is the direct
/// form `Σ_k x[n−k]·h_p[k]`, summed `k = 0..taps_per_branch` from `+0.0`,
/// with zero history before the first input.
///
/// # Example
///
/// ```
/// use wlan_dsp::{Complex, resample::Upsampler};
/// let mut up = Upsampler::new(4, 64);
/// let y = up.process(&[Complex::ONE; 16]);
/// assert_eq!(y.len(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct Upsampler {
    factor: usize,
    taps: usize,
    /// Branch `p` is `coeffs[p·taps..(p+1)·taps]`: taps `h[p], h[p+L], ...`.
    coeffs: Vec<f64>,
    /// The last `taps − 1` inputs, oldest first; during a call the frame
    /// is appended behind them so every tap reads a linear slice.
    line: Vec<Complex>,
}

impl Upsampler {
    /// Creates an upsampler by `factor` with `taps_per_branch` taps in
    /// each polyphase branch (total FIR length `factor·taps_per_branch`).
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1` or `taps_per_branch == 0`.
    pub fn new(factor: usize, taps_per_branch: usize) -> Self {
        assert!(factor >= 1, "factor must be >= 1");
        assert!(taps_per_branch > 0, "need at least one tap per branch");
        let taps = taps_per_branch;
        // Cutoff at the original Nyquist (0.5/factor of the new rate) with
        // a little margin; Kaiser beta 8 gives ~ -80 dB images. (At factor
        // 1 `process_into` is a plain copy and never reads the taps.)
        let cutoff = 0.5 / factor as f64 * 0.92;
        let h = lowpass(cutoff, factor * taps, Window::Kaiser(8.0));
        let coeffs = (0..factor * taps)
            .map(|i| h[i / taps + (i % taps) * factor] * factor as f64)
            .collect();
        Upsampler {
            factor,
            taps,
            coeffs,
            line: vec![Complex::ZERO; taps - 1],
        }
    }

    /// Upsampling factor.
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// Resets the filter state.
    pub fn reset(&mut self) {
        self.line.fill(Complex::ZERO);
    }

    /// Converts a frame of input samples to `factor·len` output samples.
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        let mut out = Vec::with_capacity(x.len() * self.factor);
        self.process_into(x, &mut out);
        out
    }

    /// [`Upsampler::process`] into a caller-owned buffer (cleared first);
    /// only capacity growth (of `out` and the history line) allocates.
    pub fn process_into(&mut self, x: &[Complex], out: &mut Vec<Complex>) {
        out.clear();
        if self.factor == 1 {
            out.extend_from_slice(x);
            return;
        }
        self.line.extend_from_slice(x);
        out.resize(x.len() * self.factor, Complex::ZERO);
        let full = x.len() - x.len() % UP_BLOCK;
        for n in (0..full).step_by(UP_BLOCK) {
            self.block::<UP_BLOCK>(n, out);
        }
        for n in full..x.len() {
            self.block::<1>(n, out);
        }
        self.line.drain(..x.len());
    }

    /// Outputs of inputs `n..n + B`, every branch: `B` independent
    /// accumulators per branch, each summed in the direct form's order.
    #[inline(always)]
    fn block<const B: usize>(&self, n: usize, out: &mut [Complex]) {
        let head = self.taps - 1;
        let win = &self.line[n..n + head + B];
        let out = &mut out[n * self.factor..(n + B) * self.factor];
        for (p, h) in self.coeffs.chunks_exact(self.taps).enumerate() {
            let mut acc = [Complex::ZERO; B];
            for (k, &t) in h.iter().enumerate() {
                let xs = &win[head - k..][..B];
                for (a, &v) in acc.iter_mut().zip(xs) {
                    *a += v * t;
                }
            }
            for (b, a) in acc.into_iter().enumerate() {
                out[b * self.factor + p] = a;
            }
        }
    }
}

/// Decimator by an integer factor with anti-alias lowpass filtering.
#[derive(Debug, Clone)]
pub struct Downsampler {
    factor: usize,
    fir: Fir,
    phase: usize,
}

impl Downsampler {
    /// Creates a decimator by `factor` with a `taps`-long anti-alias FIR.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1` or `taps == 0`.
    pub fn new(factor: usize, taps: usize) -> Self {
        assert!(factor >= 1, "factor must be >= 1");
        assert!(taps > 0, "need at least one tap");
        let fir = if factor == 1 {
            Fir::new(vec![1.0])
        } else {
            Fir::new(lowpass(
                0.5 / factor as f64 * 0.92,
                taps,
                Window::Kaiser(8.0),
            ))
        };
        Downsampler {
            factor,
            fir,
            phase: 0,
        }
    }

    /// Decimation factor.
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// Resets the filter state.
    pub fn reset(&mut self) {
        self.fir.reset();
        self.phase = 0;
    }

    /// Filters and keeps every `factor`-th sample.
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        let mut out = Vec::with_capacity(x.len() / self.factor + 1);
        for &v in x {
            let y = self.fir.push(v);
            if self.phase == 0 {
                out.push(y);
            }
            self.phase = (self.phase + 1) % self.factor;
        }
        out
    }
}

/// Frequency shifter: multiplies by `e^{j2π·f·n/fs}` with persistent phase.
///
/// The oscillator is a [`Rotor`] tone: one complex multiply per sample,
/// re-anchored to the exact `cis` of `2π·frac(f·n/fs)` every
/// [`crate::rotor::ANCHOR`] samples of the absolute count `n` (from
/// construction or [`FrequencyShifter::reset`]), so no sin/cos runs
/// between anchors and the phase does not drift. A shift of `±0.0`
/// multiplies every sample by exactly `(1, 0)`.
#[derive(Debug, Clone)]
pub struct FrequencyShifter {
    rotor: Rotor,
}

impl FrequencyShifter {
    /// Creates a shifter moving the spectrum by `shift_hz` at sample rate
    /// `sample_rate_hz`.
    pub fn new(shift_hz: f64, sample_rate_hz: f64) -> Self {
        FrequencyShifter {
            rotor: Rotor::tone(shift_hz / sample_rate_hz),
        }
    }

    /// Shifts one sample.
    #[inline]
    pub fn push(&mut self, x: Complex) -> Complex {
        let y = x * self.rotor.phasor();
        self.rotor.step();
        y
    }

    /// Shifts a frame.
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        x.iter().map(|&v| self.push(v)).collect()
    }

    /// Adds `x` scaled by `k` and shifted into `out`, element by element:
    /// `out[i] += push(x[i]·k)`, in one pass.
    pub fn add_scaled_into(&mut self, x: &[Complex], k: f64, out: &mut [Complex]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o += self.push(v * k);
        }
    }

    /// Resets the oscillator to phase 0 and sample 0.
    pub fn reset(&mut self) {
        self.rotor.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::mean_power;
    use crate::spectrum::welch_psd;

    fn tone(freq_norm: f64, n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::cis(2.0 * std::f64::consts::PI * freq_norm * i as f64))
            .collect()
    }

    #[test]
    fn upsample_length_and_power() {
        let mut up = Upsampler::new(4, 32);
        let x = tone(0.05, 512);
        let y = up.process(&x);
        assert_eq!(y.len(), 2048);
        // Skip the filter transient, then power should be ~1.
        let p = mean_power(&y[512..]);
        assert!((p - 1.0).abs() < 0.05, "power {p}");
    }

    #[test]
    fn upsample_tone_stays_at_same_absolute_freq() {
        // 0.1 cycles/sample at fs becomes 0.025 at 4fs.
        let mut up = Upsampler::new(4, 48);
        let x = tone(0.1, 2048);
        let y = up.process(&x);
        let (freqs, psd) = welch_psd(&y[1024..], 512, 4.0);
        let peak = psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((freqs[peak] - 0.1).abs() < 0.02, "peak at {}", freqs[peak]);
    }

    #[test]
    fn upsample_images_suppressed() {
        let mut up = Upsampler::new(4, 48);
        let x = tone(0.1, 4096);
        let y = up.process(&x);
        let (freqs, psd) = welch_psd(&y[1024..], 1024, 4.0);
        let sig: f64 = freqs
            .iter()
            .zip(psd.iter())
            .filter(|(f, _)| (**f - 0.1).abs() < 0.05)
            .map(|(_, p)| *p)
            .sum();
        // Image would sit at 4·0.025 + k — check around 0.9 & 1.1 region (±(1-0.1)).
        let img: f64 = freqs
            .iter()
            .zip(psd.iter())
            .filter(|(f, _)| (f.abs() - 0.9).abs() < 0.05 || (f.abs() - 1.1).abs() < 0.05)
            .map(|(_, p)| *p)
            .sum();
        assert!(img < sig * 1e-5, "images not suppressed: {img} vs {sig}");
    }

    #[test]
    fn factor_one_is_passthrough() {
        let mut up = Upsampler::new(1, 8);
        let mut dn = Downsampler::new(1, 8);
        let x = tone(0.3, 32);
        assert_eq!(up.process(&x), x);
        assert_eq!(dn.process(&x), x);
    }

    #[test]
    fn downsample_length_and_tone() {
        let mut dn = Downsampler::new(4, 128);
        let x = tone(0.02, 4096);
        let y = dn.process(&x);
        assert_eq!(y.len(), 1024);
        // Tone at 0.02 → 0.08 after decimation; power preserved.
        let p = mean_power(&y[256..]);
        assert!((p - 1.0).abs() < 0.05, "power {p}");
    }

    #[test]
    fn downsample_rejects_out_of_band() {
        let mut dn = Downsampler::new(4, 128);
        // Tone at 0.3 cycles/sample is beyond 0.125 → must be filtered out.
        let x = tone(0.3, 4096);
        let y = dn.process(&x);
        let p = mean_power(&y[256..]);
        assert!(p < 1e-6, "aliased power {p}");
    }

    #[test]
    fn up_down_roundtrip() {
        let mut up = Upsampler::new(4, 48);
        let mut dn = Downsampler::new(4, 192);
        let x = tone(0.05, 2048);
        let y = dn.process(&up.process(&x));
        assert_eq!(y.len(), x.len());
        // After transients the roundtrip is a pure delay; compare power.
        let p = mean_power(&y[512..]);
        assert!((p - 1.0).abs() < 0.05, "power {p}");
    }

    #[test]
    fn frequency_shifter_moves_tone() {
        let mut sh = FrequencyShifter::new(0.2, 1.0);
        let x = tone(0.1, 4096);
        let y = sh.process(&x);
        let (freqs, psd) = welch_psd(&y, 1024, 1.0);
        let peak = psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((freqs[peak] - 0.3).abs() < 0.01, "peak at {}", freqs[peak]);
    }

    #[test]
    fn frequency_shifter_preserves_power() {
        let mut sh = FrequencyShifter::new(1e6, 80e6);
        let x = tone(0.07, 1000);
        let y = sh.process(&x);
        assert!((mean_power(&y) - mean_power(&x)).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_factor_panics() {
        let _ = Upsampler::new(0, 8);
    }
}
