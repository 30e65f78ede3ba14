//! How the untraced pass times work on a shared host.
//!
//! A shared host runs the same code up to twice as slow for seconds to
//! minutes at a time while its neighbours are busy, and the slowdown
//! depends on the code: in one heavily loaded hour a 64-point FFT ran
//! 1.0–2.0 times its nominal time, while the AMS co-simulation ran
//! 1.0–1.4 times its own. Every timed interval is therefore scaled to
//! nominal host speed by calibration kernels, part of this benchmark and
//! of no crate under test, timed between blocks of about half a second
//! of timed work, outside the timed windows. Each interval is divided by
//! its block's host slowness: the mean of the kernels' times before and
//! after the block over their nominal times, weighted by the workload's
//! [`Mix`], so that the kernels slow down as the workload itself does.
//! The raw figures are printed beside the scaled ones, and
//! `baseline.json` holds both for the same runs.

use crate::workloads::{median, Outcome};
use std::hint::black_box;
use std::time::Instant;

/// Samples whose median is `setup_s`. The allocator takes a dozen or
/// more to settle: on `serve_mix`, whose state is 35 MiB of arenas, the
/// first samples run up to 1.9 times slower than the last; over six
/// runs the median of 11 samples ranged over 1.7–2.8 ms, that of 41
/// over 1.5–1.6 ms. 81 samples span at least four calibration blocks,
/// so that set-up, too, is scaled by a median over several.
const SETUP_SAMPLES: usize = 81;
/// Least host time of one `setup_s` sample. A sample repeats the
/// construction until this much time has passed and reports the time of
/// one: a single construction (0.6–10 ms) is too short to time steadily.
const SETUP_SAMPLE_S: f64 = 0.02;
/// Host time of timed work between two calibrations.
const BLOCK_S: f64 = 0.5;

/// Repeats of each calibration kernel per calibration. The fastest
/// counts: an interrupt can only slow a repeat down, while a busy
/// neighbour slows every repeat alike.
const CAL_REPEATS: usize = 3;
/// Iterations of the digital kernel's FFT and trellis part (about 3 ms).
const CAL_ITERS: usize = 5_000;
/// Passes of the digital kernel's cache part (about 3 ms).
const CAL_PASSES: usize = 280;
/// Elements of the cache part's buffer: 512 KiB, the order of the RF
/// chain's per-packet working set, held in L2.
const CAL_BUF: usize = 64 << 10;
/// Samples of each of the analog kernel's two parts.
const CAL_SAMPLES: usize = 40_000;
/// Seconds each kernel takes at nominal host speed: its typical fastest
/// time on the machine `baseline.json` was measured on, a 2-vCPU KVM
/// guest on an Intel Xeon of the Emerald Rapids generation (family 6,
/// model 207). They only set the scale of the scaled figures.
const NOMINAL_DIGITAL_S: f64 = 0.006;
const NOMINAL_ANALOG_S: f64 = 0.0063;

/// What a workload spends its host time on, which the calibration
/// mimics. A neighbour that competes for the core's execution units
/// slows code with much independent arithmetic (the FFT, the Viterbi
/// trellis) far more than code that waits on one long chain of
/// dependent operations (the analog state-space recurrences), so each
/// workload's host slowness weights the two kernels by its own shares.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Weight of the analog kernel, from 0 for PHY and channel DSP to 1
    /// for the AMS solver; the digital kernel takes the rest.
    pub analog: f64,
    /// Threads the workload computes on at once; the kernels run on as
    /// many threads together.
    pub threads: usize,
}

impl Mix {
    /// How much slower than nominal the host runs the mix on this
    /// thread now.
    fn slowness(self, buf: &mut [f64]) -> f64 {
        let fastest = |kernel: &mut dyn FnMut() -> f64| {
            (0..CAL_REPEATS)
                .map(|_| kernel())
                .fold(f64::INFINITY, f64::min)
        };
        let mut s = 0.0;
        if self.analog < 1.0 {
            let digital = fastest(&mut || digital_seconds(buf)) / NOMINAL_DIGITAL_S;
            s += (1.0 - self.analog) * digital;
        }
        if self.analog > 0.0 {
            s += self.analog * fastest(&mut analog_seconds) / NOMINAL_ANALOG_S;
        }
        s
    }
}

/// Times one run of the digital calibration kernel, a frozen miniature
/// of the PHY: a 64-point radix-2 FFT and a 64-state add-compare-select
/// trellis step per iteration, then a strided multiply-add sweep over a
/// buffer held in L2.
fn digital_seconds(buf: &mut [f64]) -> f64 {
    let t = Instant::now();
    let twiddle: [(f64, f64); 32] = std::array::from_fn(|k| {
        let a = -std::f64::consts::TAU * k as f64 / 64.0;
        (a.cos(), a.sin())
    });
    let (mut re, mut im) = ([0f64; 64], [0f64; 64]);
    let mut metric = [0i32; 64];
    let mut acc = 0.0;
    for it in 0..black_box(CAL_ITERS) {
        for i in 0..64 {
            re[i] = ((i * 7 + it) % 13) as f64 - 6.0;
            im[i] = ((i * 5 + it) % 11) as f64 - 5.0;
        }
        let mut len = 2;
        while len <= 64 {
            let step = 64 / len;
            for s in (0..64).step_by(len) {
                for k in 0..len / 2 {
                    let (c, d) = twiddle[k * step];
                    let (a, b) = (s + k, s + k + len / 2);
                    let tr = re[b] * c - im[b] * d;
                    let ti = re[b] * d + im[b] * c;
                    re[b] = re[a] - tr;
                    im[b] = im[a] - ti;
                    re[a] += tr;
                    im[a] += ti;
                }
            }
            len *= 2;
        }
        acc += re[3] + im[5];
        let llr = [re[1] as i32 & 15, im[2] as i32 & 15];
        let mut next = [0i32; 64];
        for (s, n) in next.iter_mut().enumerate() {
            let bm = if s & 1 == 0 { llr[0] } else { -llr[0] }
                + if s & 4 == 0 { llr[1] } else { -llr[1] };
            *n = (metric[s >> 1] + bm).max(metric[(s >> 1) | 32] - bm);
        }
        let floor = next.iter().copied().min().unwrap_or(0);
        for (m, n) in metric.iter_mut().zip(next) {
            *m = n - floor;
        }
    }
    for pass in 0..black_box(CAL_PASSES) {
        for v in buf.iter_mut().step_by(4) {
            *v = *v * 0.999 + 1e-9 * pass as f64;
            acc += *v;
        }
    }
    black_box((acc, metric));
    t.elapsed().as_secs_f64()
}

/// Times one run of the analog calibration kernel, a frozen miniature
/// of the front end: Rapp compression (two `powf` per sample, as in the
/// LNA model), then complex samples stepped by classic RK4 through a
/// cascade of four second-order state-space sections, the AMS solver's
/// method, whose per-sample recurrences are also the shape of the RF
/// chain's filters.
fn analog_seconds() -> f64 {
    let t = Instant::now();
    let mut acc = 0.0;
    for i in 0..black_box(CAL_SAMPLES) {
        let r = 0.01 + (i % 101) as f64 * 0.013;
        acc += r * (1.0 + r.powf(4.0)).powf(-0.25) + (r * r + acc * 1e-9).sqrt();
    }
    // (α0, α1, c0, c1, d) of x'' = u − α0·x − α1·x', y = c0·x + c1·x' + d·u,
    // in units of the step: a DC block and a 10 MHz lowpass at 640 MHz.
    let wn = 0.098;
    let sections: [(f64, f64, f64, f64, f64); 4] = [
        (1e-6, 1.4e-3, 0.0, -1.4e-3, 1.0),
        (wn * wn, 0.35 * wn, wn * wn, 0.0, 0.0),
        (1.1 * wn * wn, 1.2 * wn, 1.1 * wn * wn, 0.0, 0.0),
        (0.5 * wn, 0.0, 0.5 * wn, 0.0, 0.0),
    ];
    // Per section, [x, x'] of the real and imaginary parts.
    let mut state = [[[0f64; 2]; 2]; 4];
    let mut out = [0f64; 2];
    for i in 0..black_box(CAL_SAMPLES) {
        let phase = (i % 97) as f64 * 0.0647;
        let mut u = [phase.sin(), phase.cos()];
        for (s, &(a0, a1, c0, c1, d)) in state.iter_mut().zip(&sections) {
            for l in 0..2 {
                let (x0, x1, v) = (s[0][l], s[1][l], u[l]);
                let f = |y0: f64, y1: f64| (y1, v - y0 * a0 - y1 * a1);
                let k1 = f(x0, x1);
                let k2 = f(x0 + k1.0 * 0.5, x1 + k1.1 * 0.5);
                let k3 = f(x0 + k2.0 * 0.5, x1 + k2.1 * 0.5);
                let k4 = f(x0 + k3.0, x1 + k3.1);
                s[0][l] = x0 + (k1.0 + k2.0 * 2.0 + k3.0 * 2.0 + k4.0) / 6.0;
                s[1][l] = x1 + (k1.1 + k2.1 * 2.0 + k3.1 * 2.0 + k4.1) / 6.0;
                u[l] = s[0][l] * c0 + s[1][l] * c1 + v * d;
            }
        }
        out[0] += u[0];
        out[1] += u[1];
    }
    black_box((acc, out, state));
    t.elapsed().as_secs_f64()
}

/// The calibration kernels of one workload, with a cache buffer per
/// thread.
struct Calibration {
    mix: Mix,
    bufs: Vec<Vec<f64>>,
}

impl Calibration {
    fn new(mix: Mix) -> Self {
        Calibration {
            mix,
            bufs: vec![vec![1.0; CAL_BUF]; mix.threads.max(1)],
        }
    }

    /// How much slower than nominal the host runs the workload's mix
    /// now: the mean over its threads, calibrated at once.
    fn slowness(&mut self) -> f64 {
        let mix = self.mix;
        let per_thread: Vec<f64> = match self.bufs.as_mut_slice() {
            [buf] => vec![mix.slowness(buf)],
            bufs => std::thread::scope(|s| {
                let handles: Vec<_> = bufs
                    .iter_mut()
                    .map(|buf| s.spawn(move || mix.slowness(buf)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a calibration thread panicked"))
                    .collect()
            }),
        };
        per_thread.iter().sum::<f64>() / per_thread.len() as f64
    }
}

/// One timed unit of work.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Packets it simulated.
    pub packets: u64,
    /// Host seconds, as measured.
    pub raw_s: f64,
    /// How much slower than nominal the host ran around it.
    pub slowness: f64,
}

impl Unit {
    /// A time measured during the unit, at nominal host speed when
    /// `nominal` is set and as measured otherwise.
    pub fn time(&self, raw: f64, nominal: bool) -> f64 {
        if nominal {
            raw / self.slowness
        } else {
            raw
        }
    }
}

/// Runs `unit`, which returns the packets it simulated and its host
/// seconds, until `seconds` have passed or `max_units` ran, calibrating
/// for `mix` before the first unit and after every block of about
/// [`BLOCK_S`].
fn calibrated(
    mix: Mix,
    seconds: f64,
    max_units: usize,
    mut unit: impl FnMut() -> (u64, f64),
) -> Vec<Unit> {
    let mut cal = Calibration::new(mix);
    let mut before = cal.slowness();
    let mut units: Vec<Unit> = Vec::new();
    let (mut block_start, mut block_t) = (0, Instant::now());
    let started = Instant::now();
    loop {
        let (packets, raw_s) = unit();
        units.push(Unit {
            packets,
            raw_s,
            slowness: f64::NAN,
        });
        let done = units.len() >= max_units || started.elapsed().as_secs_f64() >= seconds;
        if done || block_t.elapsed().as_secs_f64() >= BLOCK_S {
            let after = cal.slowness();
            for u in &mut units[block_start..] {
                u.slowness = (before + after) / 2.0;
            }
            before = after;
            (block_start, block_t) = (units.len(), Instant::now());
        }
        if done {
            return units;
        }
    }
}

/// Times `work` until `seconds` have passed or `max_units` ran,
/// calibrating for `mix`. After each unit, outside the timed window,
/// `check` verifies its result and returns the packets it simulated.
pub fn timed_units<R>(
    out: &mut Outcome,
    mix: Mix,
    seconds: f64,
    max_units: usize,
    mut work: impl FnMut() -> R,
    mut check: impl FnMut(&mut Outcome, R) -> u64,
) -> Vec<Unit> {
    calibrated(mix, seconds, max_units, || {
        let t = Instant::now();
        let r = work();
        let raw_s = t.elapsed().as_secs_f64();
        let packets = check(out, r);
        out.attempted += packets;
        (packets, raw_s)
    })
}

/// Median seconds of one `build`, over [`SETUP_SAMPLES`] samples of at
/// least [`SETUP_SAMPLE_S`] each, calibrated for `mix` like timed
/// units: at nominal host speed, and as measured.
pub fn setup_seconds(mix: Mix, mut build: impl FnMut()) -> (f64, f64) {
    let samples = calibrated(mix, f64::INFINITY, SETUP_SAMPLES, || {
        let t = Instant::now();
        let mut n = 0;
        while n == 0 || t.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
            build();
            n += 1;
        }
        (0, t.elapsed().as_secs_f64() / n as f64)
    });
    let seconds = |nominal: bool| {
        let v: Vec<f64> = samples.iter().map(|u| u.time(u.raw_s, nominal)).collect();
        median(&v)
    };
    (seconds(true), seconds(false))
}
