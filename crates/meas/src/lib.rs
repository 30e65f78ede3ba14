//! Measurement infrastructure for the WLAN verification flow.
//!
//! Two families, mirroring the paper's methodology:
//!
//! * **System-level** (§5): [`ber::BerMeter`] (the "safest information
//!   about the system performance") and [`evm::EvmMeter`].
//! * **RF characterization** (§4.2, the SpectreRF role): two-tone IM3 /
//!   [`twotone::measure_iip3`], gain-compression sweep
//!   [`compression::measure_p1db`], and output-noise-based
//!   [`noisefigure::measure_noise_figure`] — applied to the behavioral
//!   models to verify that they meet their specs before system
//!   simulation ("verify the RF system separately using RF simulation
//!   techniques").
//!
//! Plus [`analytic`]: exact closed-form AWGN BER curves and Wilson
//! acceptance bands, the ground truth the conformance suite holds the
//! Monte-Carlo sweeps against.

#![forbid(unsafe_code)]

pub mod acpr;
pub mod analytic;
pub mod ber;
pub mod compression;
pub mod desense;
pub mod evm;
pub mod montecarlo;
pub mod noisefigure;
pub mod twotone;

pub use ber::BerMeter;
pub use evm::EvmMeter;
pub use montecarlo::{run_sharded, EarlyStop, McAccumulator, McOutcome, McPlan};
