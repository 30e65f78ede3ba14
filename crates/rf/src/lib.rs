//! Behavioral RF models for the WLAN receiver front-end.
//!
//! This crate is the equivalent of the SPW `rflib` / SpectreRF behavioral
//! model library used in the paper: complex-baseband models of the analog
//! blocks making up the double-conversion 802.11a receiver of Fig. 2 —
//! LNA, two mixer stages at a common LO, inter-stage DC-blocking highpass,
//! channel-select Chebyshev lowpass, AGC amplifier and ADC — with the
//! impairments the paper sweeps: compression point, third-order intercept,
//! noise figure, plus DC offsets, flicker noise, IQ imbalance and
//! oscillator phase noise.
//!
//! Signals are complex envelopes under the 1 Ω, `P = mean(|x|²)/2`
//! convention (see `DESIGN.md`); absolute levels in dBm therefore map
//! directly onto sample amplitudes.
//!
//! # Quickstart
//!
//! ```
//! use wlan_rf::receiver::{DoubleConversionReceiver, RfConfig};
//! use wlan_dsp::Complex;
//!
//! let cfg = RfConfig::default();
//! let mut rx = DoubleConversionReceiver::new(cfg, 7);
//! // A quiet −40 dBm tone at 1 MHz inside an 80 Msps scene:
//! let amp = (2.0 * 1e-7_f64).sqrt();
//! let x: Vec<Complex> = (0..8000)
//!     .map(|n| Complex::from_polar(amp, 2.0 * std::f64::consts::PI * 1e6 * n as f64 / 80e6))
//!     .collect();
//! let y = rx.process(&x);
//! assert_eq!(y.len(), x.len() / 4); // decimated to 20 Msps
//! ```

#![forbid(unsafe_code)]

pub mod adc;
pub mod agc;
pub mod amplifier;
pub mod filters;
pub mod mixer;
pub mod noise;
pub mod nonlinearity;
pub mod passband;
pub mod phase_noise;
pub mod receiver;
pub mod spec;

pub use amplifier::Amplifier;
pub use nonlinearity::Nonlinearity;
pub use receiver::{DoubleConversionReceiver, RfConfig};
