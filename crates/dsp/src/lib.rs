//! DSP primitives for WLAN system-level simulation.
//!
//! This crate is the substrate underneath the `wlansim` workspace (a
//! reproduction of *Verification of the RF Subsystem within Wireless LAN
//! System Level Simulation*, DATE 2003). It provides the numerical
//! building blocks the higher layers need:
//!
//! * [`Complex`] — complex arithmetic tuned for baseband signal processing
//! * [`fft`] — radix-2 FFT with cached twiddle factors
//! * [`window`] — spectral analysis windows
//! * [`fir`] / [`iir`] / [`design`] — FIR and IIR filtering plus classic
//!   analog-prototype filter design (Butterworth, Chebyshev I) via the
//!   bilinear transform
//! * [`resample`] — integer-factor polyphase resampling and frequency
//!   shifting
//! * [`rotor`] — trig-free oscillator phasor with exact re-anchoring
//! * [`spectrum`] — Welch power-spectral-density estimation
//! * [`goertzel`] — single-bin DFT for tone measurements
//! * [`rng`] — deterministic xoshiro256** random source with uniform and
//!   Gaussian output for reproducible Monte-Carlo runs
//! * [`math`] — dB/dBm conversions and small special functions
//!
//! # Example
//!
//! ```
//! use wlan_dsp::{Complex, fft::Fft};
//!
//! let fft = Fft::new(64);
//! let mut buf: Vec<Complex> = (0..64)
//!     .map(|n| Complex::from_polar(1.0, 2.0 * std::f64::consts::PI * 3.0 * n as f64 / 64.0))
//!     .collect();
//! fft.forward(&mut buf);
//! // All energy lands in bin 3.
//! assert!(buf[3].abs() > 7.9);
//! ```

#![forbid(unsafe_code)]

pub mod complex;
pub mod design;
pub mod fft;
pub mod fir;
pub mod goertzel;
pub mod hilbert;
pub mod iir;
pub mod math;
pub mod resample;
pub mod rng;
pub mod rotor;
pub mod spectrum;
pub mod window;

pub use complex::Complex;
pub use rng::Rng;
