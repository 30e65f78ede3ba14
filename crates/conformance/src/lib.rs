//! Conformance & golden-vector verification for the WLAN simulation
//! workspace.
//!
//! The paper trusts its 802.11a receiver because independent views of
//! the same design — the SPW reference, SpectreRF characterization,
//! and the AMS co-simulation — agree. This crate builds that argument
//! as machine-checkable layers:
//!
//! * [`annex_g`] — known-answer tests pinning every `wlan-phy` TX
//!   stage to IEEE 802.11a-1999 on the Annex G reference message,
//!   cross-checked against [`refimpl`], an independent executable
//!   restatement of the standard's equations.
//! * [`mc`] — sharded Monte-Carlo AWGN sweeps (via `wlan-exec`) held
//!   inside Wilson acceptance bands around the exact closed-form
//!   curves of `wlan_meas::analytic`.
//! * [`golden`] + [`json`] — a tolerance-aware golden-file harness
//!   (schema-versioned JSON under `tests/golden/`, `WLANSIM_BLESS=1`
//!   re-bless mode, drift reports for CI artifacts).
//! * [`pinned`] — the pinned experiment sweeps (ip3 / level / nf /
//!   blocking / EVM) whose snapshots the goldens freeze.
//! * [`manifest`] — schema validation for the `wlansim` run manifest
//!   (`RUN_MANIFEST.json`; the writer lives in `wlan_sim::manifest`).
//!
//! The `wlan-conformance` CLI runs the whole suite and exits non-zero
//! on any failure; `tests/tests/conformance.rs` and
//! `tests/tests/golden.rs` gate the same checks in `cargo test`.

#![forbid(unsafe_code)]

pub mod annex_g;
pub mod golden;
pub mod json;
pub mod manifest;
pub mod mc;
pub mod pinned;
pub mod refimpl;

pub use golden::{
    assert_golden, bless_requested, check, DriftReport, GoldenStatus, Tolerance, TolerancePolicy,
};
