//! Oracles for the trig-free oscillator behind `FrequencyShifter`.
//!
//! * The shifted tone's phase against the exact `2π·frac(f·n/fs)`,
//!   computed in integer arithmetic, within 1e-12 rad (2^16 samples in
//!   tier-1, 10^6 under `WLANSIM_SLOW_TESTS=1`).
//! * Any split of a stream into frames gives the same bits as one
//!   sample at a time.
//! * A shift of `+0.0` or `−0.0` reproduces the exact-trig oscillator
//!   of `wlan_conformance::refimpl` bit for bit.

use std::f64::consts::TAU;
use wlan_conformance::refimpl::tone_shift_reference;
use wlan_dsp::resample::FrequencyShifter;
use wlan_dsp::{Complex, Rng};
use wlan_phy::params::SAMPLE_RATE;

/// Baseband rate the scene oversamples; one channel spacing.
const BASE_RATE: f64 = SAMPLE_RATE;

fn slow() -> bool {
    std::env::var("WLANSIM_SLOW_TESTS").as_deref() == Ok("1")
}

fn assert_bits_eq(got: &[Complex], want: &[Complex], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: sample {i} is {g}, want {w}"
        );
    }
}

/// `frac(n·c)` in `[−1/2, 1/2)` for the binary value of `c`, from the
/// exact integer product of `n` and `c`'s significand, rounded once.
fn exact_turns(c: f64, n: u64) -> f64 {
    if c == 0.0 {
        return 0.0;
    }
    let bits = c.abs().to_bits();
    let (exp, frac) = ((bits >> 52) as i32, bits & ((1 << 52) - 1));
    assert!(exp > 0 && exp < 1023, "normal |c| < 1 only");
    // |c| = m·2^−k with a 53-bit significand m.
    let (m, k) = ((frac | 1 << 52) as u128, (1075 - exp) as u32);
    assert!(k < 127 - 64, "n·m mod 2^k must fit in u128");
    let r = (n as u128 * m) & ((1u128 << k) - 1);
    let mut t = r as f64 / (1u128 << k) as f64;
    if t >= 0.5 {
        t -= 1.0;
    }
    if c < 0.0 {
        -t
    } else {
        t
    }
}

/// Largest phase error (rad) and magnitude error of `n` samples of a
/// shifted DC input against the exact tone phase.
fn tone_errors(shift_hz: f64, fs: f64, n: u64) -> (f64, f64) {
    let c = shift_hz / fs;
    let mut sh = FrequencyShifter::new(shift_hz, fs);
    let (mut phase_err, mut mag_err) = (0.0f64, 0.0f64);
    for i in 0..n {
        let y = sh.push(Complex::ONE);
        let d = y * Complex::cis(-TAU * exact_turns(c, i));
        phase_err = phase_err.max(d.arg().abs());
        mag_err = mag_err.max((y.abs() - 1.0).abs());
    }
    (phase_err, mag_err)
}

fn check_tone_phase(n: u64) {
    for osr in [4, 8] {
        let fs = BASE_RATE * osr as f64;
        // The adjacent and alternate channels, and one offset whose
        // frequency is not a short binary fraction of the rate.
        for shift in [BASE_RATE, -BASE_RATE, 40e6, -40e6, 7.3e6] {
            let (phase, mag) = tone_errors(shift, fs, n);
            assert!(
                phase <= 1e-12 && mag <= 1e-12,
                "{shift} Hz at osr {osr}: phase error {phase:e} rad, magnitude error {mag:e}"
            );
        }
    }
}

#[test]
fn shifted_tone_tracks_the_exact_phase() {
    check_tone_phase(1 << 16);
}

/// The 10^6-sample drift check; opt in with `WLANSIM_SLOW_TESTS=1`.
#[test]
fn shifted_tone_tracks_the_exact_phase_long() {
    if !slow() {
        return;
    }
    check_tone_phase(1_000_000);
}

#[test]
fn exact_turns_matches_binary_fractions() {
    assert_eq!(exact_turns(0.25, 5), 0.25);
    assert_eq!(exact_turns(0.25, 6), -0.5);
    assert_eq!(exact_turns(-0.125, 3), -0.375);
    assert_eq!(exact_turns(0.5, 1_000_001), -0.5);
}

#[test]
fn frames_split_anywhere_give_the_same_bits() {
    let mut rng = Rng::new(41);
    let x: Vec<Complex> = (0..3000).map(|_| rng.complex_gaussian(1.0)).collect();
    let k = 0.7;
    let cuts = [0, 1, 7, 63, 64, 65, 0, 127, 129, 1000];
    for shift in [BASE_RATE, -40e6, 7.3e6, 0.0] {
        let fs = 160e6;
        // One sample at a time; `add_scaled_into` adds these to `out`.
        let mut one = FrequencyShifter::new(shift, fs);
        let pushed: Vec<Complex> = x.iter().map(|&v| one.push(v * k)).collect();
        let added: Vec<Complex> = pushed.iter().map(|&v| Complex::ZERO + v).collect();
        let mut frames = FrequencyShifter::new(shift, fs);
        let mut blocks = FrequencyShifter::new(shift, fs);
        let mut got = vec![Complex::ZERO; x.len()];
        let mut processed = Vec::new();
        let mut start = 0;
        for &c in cuts.iter().chain([&usize::MAX]) {
            let end = start + c.min(x.len() - start);
            frames.add_scaled_into(&x[start..end], k, &mut got[start..end]);
            let scaled: Vec<Complex> = x[start..end].iter().map(|&v| v * k).collect();
            processed.extend(blocks.process(&scaled));
            start = end;
        }
        assert_bits_eq(&got, &added, &format!("{shift} Hz, add_scaled_into"));
        assert_bits_eq(&processed, &pushed, &format!("{shift} Hz, process"));
        // A reset shifter starts the same stream again.
        frames.reset();
        let again: Vec<Complex> = x.iter().map(|&v| frames.push(v * k)).collect();
        assert_bits_eq(&again, &pushed, &format!("{shift} Hz after reset"));
    }
}

#[test]
fn zero_shift_is_the_exact_trig_oscillator() {
    let mut rng = Rng::new(42);
    let mut x: Vec<Complex> = (0..2000).map(|_| rng.complex_gaussian(1.0)).collect();
    // Signed zeros must round as the old multiply by `cis(0)` did.
    x.extend([
        Complex::new(0.0, -0.0),
        Complex::new(-0.0, 0.0),
        Complex::new(-0.0, -0.0),
        Complex::new(-1.5, 0.0),
        Complex::new(0.0, -2.5),
    ]);
    let fs = 80e6;
    for shift in [0.0, -0.0] {
        let want = tone_shift_reference(&x, shift, fs);
        let got = FrequencyShifter::new(shift, fs).process(&x);
        assert_bits_eq(&got, &want, &format!("shift {shift:?}, process"));
        let k = 1.3;
        let scaled: Vec<Complex> = x.iter().map(|&v| v * k).collect();
        let want: Vec<Complex> = tone_shift_reference(&scaled, shift, fs)
            .into_iter()
            .map(|v| Complex::ZERO + v)
            .collect();
        let mut out = vec![Complex::ZERO; x.len()];
        FrequencyShifter::new(shift, fs).add_scaled_into(&x, k, &mut out);
        assert_bits_eq(&out, &want, &format!("shift {shift:?}, add_scaled_into"));
    }
}
