//! The Table 2 wall-clock assertions: the co-simulation is much slower
//! than the system-level run, and time grows with the packet count.
//!
//! They measure wall-clock ratios, so they live in their own test
//! binary (cargo runs test binaries one at a time) and take one lock
//! each: no other test runs beside them to steal the CPU mid-timing.

use std::sync::{Mutex, MutexGuard};
use wlan_sim::experiments::table2::{run, run_parallel, Table2Result};
use wlan_sim::experiments::Engine;

static TIMING: Mutex<()> = Mutex::new(());

/// Holds the CPU for one timing test; a test that failed while holding
/// it does not stop the others.
fn exclusive() -> MutexGuard<'static, ()> {
    TIMING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs the comparison 3 times and keeps, per row and per mode, the
/// fastest time. Every run times baseband then co-sim, so the
/// repetitions interleave and one cold-start or contended run cannot
/// decide a wall-clock assertion.
fn fastest_of_3(run: impl Fn() -> Table2Result) -> Table2Result {
    let mut best = run();
    for _ in 1..3 {
        for (b, r) in best.rows.iter_mut().zip(run().rows) {
            b.baseband = b.baseband.min(r.baseband);
            b.cosim = b.cosim.min(r.cosim);
        }
    }
    best
}

#[test]
fn cosim_is_much_slower() {
    let _cpu = exclusive();
    let r = fastest_of_3(|| run(&[1], 60, 16, 1));
    assert_eq!(r.rows.len(), 1);
    let ratio = r.rows[0].ratio();
    assert!(ratio > 3.0, "co-sim only {ratio:.1}x slower");
}

#[test]
fn time_grows_with_packets() {
    let _cpu = exclusive();
    let r = fastest_of_3(|| run(&[1, 3], 60, 4, 2));
    assert!(r.rows[1].cosim > r.rows[0].cosim);
    assert!(r.table().render().contains("Table 2"));
}

#[test]
fn parallel_rows_match_structure() {
    let _cpu = exclusive();
    let engine = Engine::with_threads(2);
    let r = fastest_of_3(|| run_parallel(&[1, 2], 60, 4, 2, &engine));
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.analog_osr, 4);
    assert_eq!(r.rows[0].packets, 1);
    assert_eq!(r.rows[1].packets, 2);
    assert!(r.rows.iter().all(|row| row.ratio() > 1.0));
}
