//! IEEE 802.11a OFDM physical layer (5 GHz high-speed WLAN).
//!
//! A from-scratch implementation of the 802.11a-1999 PHY used as the DSP
//! subsystem in the DATE 2003 paper *Verification of the RF Subsystem
//! within Wireless LAN System Level Simulation* (the paper uses SPW's
//! 802.11a demo design; this crate is its equivalent):
//!
//! * [`params`] — data rates, modulation/coding tables, standard constants
//! * [`scrambler`] — the x⁷+x⁴+1 frame-synchronous scrambler
//! * [`convolutional`] / [`viterbi`] — K = 7 convolutional code (133, 171)
//!   with hard- and soft-decision Viterbi decoding
//! * [`puncture`] — rate-2/3 and rate-3/4 puncturing
//! * [`interleaver`] — the two-permutation block interleaver
//! * [`modulation`] — BPSK/QPSK/16-QAM/64-QAM mapping and LLR demapping
//! * [`profile`] — the OFDM numerology profile family (802.11a plus
//!   half-clocked and 40 MHz variants)
//! * [`pilots`] / [`ofdm`] — pilot insertion and OFDM (de)modulation
//! * [`preamble`] / [`signal_field`] / [`frame`] — PLCP framing
//! * [`transmitter`] — PSDU in, 20 Msps complex-baseband samples out
//! * [`sync`] / [`equalizer`] / [`receiver`] — packet detection, carrier
//!   and timing recovery, channel estimation, demodulation and decoding
//!
//! # Quickstart
//!
//! ```
//! use wlan_phy::{params::Rate, transmitter::Transmitter, receiver::Receiver};
//!
//! let psdu: Vec<u8> = (0..100).map(|i| i as u8).collect();
//! let tx = Transmitter::new(Rate::R24);
//! let burst = tx.transmit(&psdu);
//!
//! let rx = Receiver::new();
//! let decoded = rx.receive(&burst.samples).expect("clean channel decodes");
//! assert_eq!(decoded.psdu, psdu);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod convolutional;
pub mod equalizer;
pub mod frame;
pub mod interleaver;
pub mod mask;
pub mod modulation;
pub mod ofdm;
pub mod params;
pub mod pilots;
pub mod preamble;
pub mod profile;
pub mod puncture;
pub mod receiver;
pub mod scrambler;
pub mod signal_field;
mod simd;
pub mod sync;
pub mod transmitter;
pub mod viterbi;

pub use params::Rate;
pub use profile::{find_profile, OfdmProfile, ALL_PROFILES, IEEE_802_11A};
pub use receiver::{Received, Receiver, RxError};
pub use transmitter::{Burst, Transmitter};
