//! Radio channel models for the WLAN system testbench.
//!
//! The paper's SPW testbench transmits the 802.11a burst over "a channel
//! model that can realize an additive white gaussian noise (AWGN) or a
//! fading channel" (§3.1), adds an adjacent channel shifted by 20 MHz
//! (§4.1) and sets the receive level within the −88…−23 dBm input range
//! (§2.2). This crate provides those pieces:
//!
//! * [`awgn`] — additive white Gaussian noise by SNR or noise power
//! * [`fading`] — tapped-delay-line multipath with exponential power
//!   delay profile and Rayleigh taps (block fading per packet)
//! * [`doppler`] — time-varying Rayleigh fading with a Jakes Doppler
//!   spectrum (sum-of-sinusoids)
//! * [`level`] — absolute power scaling in dBm (1 Ω convention)
//! * [`interferer`] — oversampled scene composition with frequency-offset
//!   interferers (the adjacent channel)

#![forbid(unsafe_code)]

pub mod awgn;
pub mod doppler;
pub mod fading;
pub mod interferer;
pub mod level;

pub use awgn::Awgn;
pub use fading::MultipathChannel;
pub use interferer::{Scene, SceneRenderer};
