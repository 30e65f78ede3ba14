//! Benchmark and experiment-regeneration harnesses.
//!
//! Binaries (`cargo run -p wlan-bench --release --bin <name>`):
//!
//! | binary | purpose |
//! |---|---|
//! | `wlansim` | the registry-driven experiment runner: `wlansim list`, `wlansim run <name>`, `wlansim all`, `wlansim check-manifest` |
//! | `kernel_bench` | hot-kernel timings → `BENCH_kernels.json` |
//! | `sweep_bench` | serial-vs-parallel sweep wall-clock → `BENCH_sweep.json` |
//!
//! Every experiment of the paper is registered in
//! `wlan_sim::experiments::registry()` and runnable by name; each
//! `wlansim run`/`all` writes the schema-versioned run manifest
//! (`RUN_MANIFEST.json`) next to the `BENCH_*.json` files. Effort is
//! controlled by `WLANSIM_PACKETS` / `WLANSIM_PSDU` (or `--packets` /
//! `--psdu`).
//!
//! Micro-benchmarks (`cargo bench`, no external harness needed):
//! `dsp_kernels`, `phy_chain`, `rf_frontend`,
//! `table2_abstraction_levels` — timed by the in-crate [`harness`].

#![forbid(unsafe_code)]

pub mod harness;

/// Writes a table's CSV next to the current directory under `results/`.
pub fn save_csv(table: &wlan_sim::Table, name: &str) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = table.write_csv(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("(csv written to {})", path.display());
        }
    }
}
