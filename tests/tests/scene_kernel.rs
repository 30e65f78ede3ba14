//! Bit-identity gates for the scene kernel: the block polyphase
//! interpolator against its direct-form definition, and the fused
//! scale/shift/superpose pass of `SceneRenderer::add_into` against the
//! unfused pipeline (fresh upsample, `set_power`, per-sample
//! `FrequencyShifter::push`, superposition) it replaced.
//!
//! Exact `f64::to_bits` comparison throughout: the kernel only reorders
//! independent work, never a sum, so "close" is failure here.

use wlan_channel::interferer::{Scene, SceneRenderer};
use wlan_channel::level::set_power;
use wlan_dsp::fir::lowpass;
use wlan_dsp::resample::{FrequencyShifter, Upsampler};
use wlan_dsp::window::Window;
use wlan_dsp::{Complex, Rng};
use wlan_phy::params::SAMPLE_RATE;
use wlan_sim::link::AdjacentChannel;
use wlan_units::{Dbm, Hz};

/// Taps per polyphase branch of the scene interpolator.
const TAPS: usize = 32;

fn assert_bits_eq(got: &[Complex], want: &[Complex], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: sample {i} is {g}, want {w}"
        );
    }
}

fn noise(n: usize, seed: u64) -> Vec<Complex> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.complex_gaussian(1.0)).collect()
}

/// The interpolator's definition: output `n·L + p` is
/// `Σ_{k<T} x[n−k]·h_p[k]` with `h_p[k] = L·h[p + k·L]`, summed in `k`
/// order from zero, with zero history before `x[0]`; factor 1 copies.
fn direct_form(x: &[Complex], factor: usize, taps: usize) -> Vec<Complex> {
    if factor == 1 {
        return x.to_vec();
    }
    let h = lowpass(
        0.5 / factor as f64 * 0.92,
        factor * taps,
        Window::Kaiser(8.0),
    );
    let mut out = Vec::with_capacity(x.len() * factor);
    for n in 0..x.len() {
        for p in 0..factor {
            let mut acc = Complex::ZERO;
            for k in 0..taps {
                let v = if k <= n { x[n - k] } else { Complex::ZERO };
                acc += v * (h[p + k * factor] * factor as f64);
            }
            out.push(acc);
        }
    }
    out
}

#[test]
fn upsampler_matches_direct_form() {
    let lens = [0, 1, 7, 8, 9, 15, 17, 31, 32, 33, 1280];
    for factor in [1, 2, 3, 4, 8] {
        for (i, &len) in lens.iter().enumerate() {
            let x = noise(len, 100 + i as u64);
            let want = direct_form(&x, factor, TAPS);
            let mut up = Upsampler::new(factor, TAPS);
            assert_bits_eq(&up.process(&x), &want, &format!("osr {factor} len {len}"));
            // After a reset the same call reproduces the first one.
            up.reset();
            let mut out = Vec::new();
            up.process_into(&x, &mut out);
            assert_bits_eq(&out, &want, &format!("osr {factor} len {len} after reset"));
        }
    }
}

#[test]
fn upsampler_state_carries_across_calls() {
    // One 1 280-sample stream cut into frames of every awkward length
    // (empty, shorter than the history, one block ± 1): the history line
    // must carry exactly the inputs a single call would have seen.
    let x = noise(1280, 7);
    let cuts = [0, 0, 1, 7, 8, 9, 31, 32, 33, 3, 500];
    for factor in [1, 2, 3, 4, 8] {
        let want = direct_form(&x, factor, TAPS);
        let mut up = Upsampler::new(factor, TAPS);
        let (mut got, mut frame) = (Vec::new(), Vec::new());
        let mut rest = &x[..];
        for &c in cuts.iter().chain([&usize::MAX]) {
            let (head, tail) = rest.split_at(c.min(rest.len()));
            up.process_into(head, &mut frame);
            got.extend_from_slice(&frame);
            rest = tail;
        }
        assert_bits_eq(&got, &want, &format!("osr {factor} split"));
    }
    // A single tap per branch has no history at all.
    let mut up = Upsampler::new(4, 1);
    let mut got = up.process(&x[..5]);
    got.extend(up.process(&x[5..9]));
    assert_bits_eq(&got, &direct_form(&x[..9], 4, 1), "osr 4, 1 tap");
}

/// One emitter through the unfused pipeline the scene used to run:
/// fresh upsample, `set_power`, per-sample shift, then superposition
/// into `out` (grown with zeros to `delay + len`).
fn unfused_add(
    samples: &[Complex],
    osr: usize,
    offset: f64,
    power: f64,
    delay: usize,
    out: &mut Vec<Complex>,
) {
    let hi = Upsampler::new(osr, TAPS).process(samples);
    let scaled = set_power(&hi, Dbm(power));
    let mut shifter = FrequencyShifter::new(offset, SAMPLE_RATE * osr as f64);
    let shifted: Vec<Complex> = scaled.iter().map(|&v| shifter.push(v)).collect();
    if out.len() < delay + shifted.len() {
        out.resize(delay + shifted.len(), Complex::ZERO);
    }
    for (o, v) in out[delay..].iter_mut().zip(shifted) {
        *o += v;
    }
}

#[test]
fn reused_renderer_matches_unfused_pipeline_across_offsets() {
    // One renderer at osr 8 cycles through every offset class: exactly
    // zero (the constant-phasor path), negative zero, and ±20/±40 MHz
    // (per-sample oscillator). Each packet must equal the unfused
    // pipeline, and so no interpolator, oscillator or buffer state may
    // leak from one emitter or packet into the next.
    let osr = 8;
    let (adj, alt) = (
        AdjacentChannel::first().offset_hz,
        AdjacentChannel::alternate().offset_hz,
    );
    let offsets = [0.0, -0.0, adj, -adj, alt, -alt];
    let wanted = noise(403, 11);
    let mut r = SceneRenderer::new(SAMPLE_RATE, osr);
    let mut out = Vec::new();
    for (round, order) in [[0, 1, 2, 3, 4, 5], [5, 2, 0, 4, 1, 3]].iter().enumerate() {
        for (i, &o) in order.iter().enumerate() {
            let other = noise(150 + 37 * i, 20 + o as u64);
            let (offset, delay) = (offsets[o], 17 * i);
            let mut want = Vec::new();
            unfused_add(&wanted, osr, 0.0, -62.0, 3 * osr, &mut want);
            unfused_add(&other, osr, offset, -46.0, delay, &mut want);
            out.clear();
            r.add_into(&wanted, Hz(0.0), Dbm(-62.0), 3 * osr, &mut out);
            r.add_into(&other, Hz(offset), Dbm(-46.0), delay, &mut out);
            assert_bits_eq(&out, &want, &format!("round {round}, offset {offset}"));
        }
    }
}

#[test]
fn zero_power_emitter_renders_silence() {
    let b = noise(64, 31);
    for osr in [1, 4] {
        let mut r = SceneRenderer::new(SAMPLE_RATE, osr);
        let mut out = Vec::new();
        // An empty emitter still extends the scene to its delay.
        r.add_into(&[], Hz(0.0), Dbm(-30.0), 40, &mut out);
        assert_eq!(out.len(), 40);
        assert!(out
            .iter()
            .all(|v| v.re.to_bits() == 0 && v.im.to_bits() == 0));
        // An all-zero emitter grows `out` to `delay + osr·len` and adds
        // nothing, so a scene already there keeps its exact bits.
        let mut want = Vec::new();
        unfused_add(&b, osr, 0.0, -30.0, 0, &mut want);
        out.clear();
        r.add_into(&b, Hz(0.0), Dbm(-30.0), 0, &mut out);
        r.add_into(
            &[Complex::ZERO; 10],
            Hz(5e6),
            Dbm(-20.0),
            64 * osr,
            &mut out,
        );
        r.add_into(&[], Hz(0.0), Dbm(-20.0), 0, &mut out);
        want.resize(74 * osr, Complex::ZERO);
        assert_bits_eq(&out, &want, &format!("osr {osr}"));
    }
    // The builder renders the same silence instead of panicking.
    let scene = Scene::new(SAMPLE_RATE, 2)
        .add(&b, 0.0, -30.0, 0)
        .add(&[], 10e6, -14.0, 300)
        .render();
    let mut want = Vec::new();
    unfused_add(&b, 2, 0.0, -30.0, 0, &mut want);
    want.resize(300, Complex::ZERO);
    assert_bits_eq(&scene, &want, "scene with an empty emitter");
}
