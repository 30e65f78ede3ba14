//! Trig-free oscillator: a unit phasor advanced by one complex multiply
//! per sample and re-anchored to the exact `cis(φ_n)` every
//! [`ANCHOR`] samples.
//!
//! A [`Rotor`] tracks the phase
//!
//! ```text
//! φ_n = 2π·frac(c·n) + w_n
//! ```
//!
//! of a tone of `c` cycles per sample plus a walk `w_n` that its owner
//! moves one step at a time (the Wiener phase noise of an LO). The tone
//! term is a function of the absolute sample count `n`, computed
//! exactly at each anchor, so it does not drift however long the rotor
//! runs. Between anchors the phasor is multiplied by an increment:
//! `cis(2πc)`, computed once, for a tone; a series to `δ⁷` for a walk
//! step `δ` with `|δ| ≤ 1/64`, and the exact `cis(δ)` beyond that.
//!
//! Anchors fall on absolute counts that are multiples of [`ANCHOR`],
//! counted from [`Rotor::tone`]/[`Rotor::walk`] or [`Rotor::reset`],
//! so a stream gives the same bits however it is split into frames.
//! Between anchors the phasor drifts from `cis(φ_n)` by at most a few
//! rounding errors per step, about `1e-14` relative after 63 steps.
//! A rotor at zero frequency with no walk stays exactly `(1, 0)`:
//! `cis(0)` is `(1, 0)` and multiplying by `(1, 0)` is exact.

use crate::complex::Complex;
use std::f64::consts::TAU;

/// Samples between exact re-anchorings of a [`Rotor`].
pub const ANCHOR: u64 = 64;

/// Largest walk step that takes the series increment instead of the
/// exact `cis` (its first omitted term is below `1e-19`).
const SERIES_LIMIT: f64 = 1.0 / 64.0;

/// A unit phasor `≈ cis(φ_n)` for sample `n` of a tone plus a walk (see
/// the module docs).
#[derive(Debug, Clone)]
pub struct Rotor {
    /// Tone frequency in cycles per sample, wrapped to `[−1/2, 1/2]`.
    cycles: f64,
    /// `cis(2π·cycles)`: the tone's per-sample increment.
    turn: Complex,
    /// Accumulated walk phase `w_n` (radians).
    walk: f64,
    /// The phasor of sample `count`.
    z: Complex,
    /// Absolute sample count since construction or the last reset.
    count: u64,
}

impl Rotor {
    /// A tone of `cycles` cycles per sample (any real value; it is
    /// wrapped to `[−1/2, 1/2]`, and `−0.0` becomes `+0.0`), starting
    /// at phase 0.
    pub fn tone(cycles: f64) -> Self {
        let cycles = cycles - cycles.round();
        Rotor {
            cycles,
            turn: Complex::cis(TAU * cycles),
            walk: 0.0,
            z: Complex::ONE,
            count: 0,
        }
    }

    /// A zero-frequency rotor for a walk driven by [`Rotor::step_by`].
    pub fn walk() -> Self {
        Rotor::tone(0.0)
    }

    /// Returns to sample 0 at phase 0 (the next sample is an anchor).
    pub fn reset(&mut self) {
        self.walk = 0.0;
        self.count = 0;
        self.z = Complex::ONE;
    }

    /// The phasor of the current sample.
    #[inline(always)]
    pub fn phasor(&self) -> Complex {
        self.z
    }

    /// The exact phase `φ_n` of the current sample (radians); the tone
    /// term lies in `[−π, π]`.
    pub fn phase(&self) -> f64 {
        let n = self.count as f64;
        let p = n * self.cycles;
        // `p − round(p)` is exact, and the fused multiply-add recovers
        // the rounding error of `n·cycles`, so `frac(n·cycles)` is good
        // to an ulp for any count below 2^53.
        let frac = (p - p.round()) + n.mul_add(self.cycles, -p);
        TAU * frac + self.walk
    }

    /// Moves a tone to its next sample.
    #[inline(always)]
    pub fn step(&mut self) {
        self.advance(self.turn);
    }

    /// Moves a walk to its next sample, the phase stepping by `delta`.
    #[inline(always)]
    pub fn step_by(&mut self, delta: f64) {
        debug_assert!(self.cycles == 0.0, "step_by drives a walk rotor");
        self.walk += delta;
        self.advance(increment(delta));
    }

    #[inline(always)]
    fn advance(&mut self, inc: Complex) {
        self.count += 1;
        self.z = if self.count.is_multiple_of(ANCHOR) {
            Complex::cis(self.phase())
        } else {
            self.z * inc
        };
    }
}

/// `cis(δ)`: its Taylor series to `δ⁷` for `|δ| ≤ 1/64`, the libm
/// sine and cosine beyond.
#[inline(always)]
fn increment(delta: f64) -> Complex {
    if delta.abs() <= SERIES_LIMIT {
        let d2 = delta * delta;
        let cos = 1.0 + d2 * (-1.0 / 2.0 + d2 * (1.0 / 24.0 + d2 * (-1.0 / 720.0)));
        let sin = delta * (1.0 + d2 * (-1.0 / 6.0 + d2 * (1.0 / 120.0 + d2 * (-1.0 / 5040.0))));
        Complex::new(cos, sin)
    } else {
        Complex::cis(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_increment_matches_cis() {
        for i in -1000..=1000 {
            let d = i as f64 * SERIES_LIMIT / 1000.0;
            let e = increment(d);
            let c = Complex::cis(d);
            assert!((e - c).abs() <= 4e-16, "δ {d}: {e} vs {c}");
        }
        // Past the limit the increment is the exact `cis`.
        for d in [SERIES_LIMIT * 1.0001, -0.3, 2.5] {
            let (e, c) = (increment(d), Complex::cis(d));
            assert_eq!(
                (e.re.to_bits(), e.im.to_bits()),
                (c.re.to_bits(), c.im.to_bits())
            );
        }
    }

    #[test]
    fn anchors_are_exact() {
        // Every ANCHOR-th phasor is the exact `cis` of the phase.
        let mut r = Rotor::tone(0.123_456_789);
        for n in 1..=10 * ANCHOR {
            r.step();
            if n.is_multiple_of(ANCHOR) {
                let c = Complex::cis(r.phase());
                assert_eq!(r.phasor(), c, "sample {n}");
            }
        }
    }

    #[test]
    fn zero_tone_is_exactly_one() {
        for c in [0.0, -0.0, 1.0, -3.0] {
            let mut r = Rotor::tone(c);
            for _ in 0..3 * ANCHOR {
                let z = r.phasor();
                assert_eq!((z.re.to_bits(), z.im.to_bits()), (1f64.to_bits(), 0));
                r.step();
            }
        }
    }
}
