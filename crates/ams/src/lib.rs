//! Mixed-signal co-simulation substrate — the AMS-Designer role in the
//! paper's flow.
//!
//! The RF subsystem is described as a small behavioral netlist (a
//! Verilog-AMS-flavored instance list), elaborated into a cascade of
//! continuous-time behavioral device models, and integrated with a
//! fixed-step RK4 solver at a rate well above the system sample rate.
//! The [`cosim`] bridge exchanges sample frames with the (discrete-time)
//! dataflow world, exactly like the SPW ↔ AMS co-simulation of §4.3 —
//! including its two headline observations:
//!
//! 1. **Runtime**: the analog engine integrates each 80 Msps sample with
//!    `osr` RK4 sub-steps across every filter state, so co-simulation is
//!    structurally much slower than the pure system-level run (paper
//!    Table 2: 30–40×).
//! 2. **Noise gap**: like the paper's AMS Designer ("does not support
//!    some functions for generating noise (`white_noise`,
//!    `flicker_noise`)"), the analog devices default to *noiseless*
//!    transient behavior, so BER measured through the co-simulation is
//!    optimistic relative to the system-level simulation (§5.1).
//!
//! * [`netlist`] — parser for the behavioral netlist format
//! * [`solver`] — continuous-time state-space integration (RK4)
//! * [`devices`] — behavioral device library (amp, mixer, filters, …)
//! * [`elaborate`] — netlist → device cascade
//! * [`cosim`] — the DSP-rate ↔ analog-rate bridge and the co-simulated
//!   double-conversion receiver

#![forbid(unsafe_code)]

pub mod cosim;
pub mod devices;
pub mod elaborate;
pub mod netlist;
pub mod solver;

pub use cosim::CosimReceiver;
pub use netlist::{Netlist, NetlistError};
