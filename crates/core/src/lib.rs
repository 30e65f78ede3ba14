//! Verification of the RF subsystem within WLAN system-level simulation.
//!
//! This crate is the reproduction of the DATE 2003 paper's contribution:
//! a complete 802.11a link testbench in which the analog RF front-end
//! and the digital PHY are verified **together**, at three abstraction
//! levels that mirror the paper's tool flow:
//!
//! * [`link::FrontEnd::Ideal`] — DSP-only link (the executable
//!   specification before the RF part exists)
//! * [`link::FrontEnd::RfBaseband`] — complex-baseband behavioral RF
//!   models inside the system simulation (the SPW `rflib` level)
//! * [`link::FrontEnd::RfCosim`] — the RF subsystem elaborated from a
//!   behavioral netlist and integrated by a continuous-time solver (the
//!   SPW ↔ AMS-Designer co-simulation level)
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper's evaluation (see `DESIGN.md` for the per-experiment index).
//!
//! # Quickstart
//!
//! ```
//! use wlan_sim::link::{FrontEnd, LinkConfig, LinkSimulation};
//! use wlan_phy::Rate;
//!
//! let config = LinkConfig {
//!     rate: Rate::R24,
//!     psdu_len: 100,
//!     packets: 2,
//!     snr_db: Some(25.0),
//!     front_end: FrontEnd::Ideal,
//!     ..LinkConfig::default()
//! };
//! let report = LinkSimulation::new(config).run();
//! assert_eq!(report.packets, 2);
//! assert_eq!(report.ber(), 0.0); // 25 dB SNR is plenty for 24 Mbit/s
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod flow;
pub mod link;
pub mod lintable;
pub mod manifest;
pub mod report;
pub mod serve;

pub use flow::{DesignFlow, FlowCriteria, FlowReport};
pub use link::{FrontEnd, LinkConfig, LinkReport, LinkSimulation};
pub use report::Table;
pub use serve::{DriveStats, ServeConfig, SessionEngine};
