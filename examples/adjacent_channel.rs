//! The adjacent-channel scenario from the paper's §4.1: a second
//! transmitter shifted +20 MHz, 16 dB stronger than the wanted channel.
//! Prints the composite spectrum (Fig. 4) and shows what the channel
//! filter bandwidth does to the BER (a mini Fig. 5).
//!
//! ```sh
//! cargo run --release --example adjacent_channel
//! ```

use wlan_sim::experiments::{execute, fig4, fig5, Effort, RunContext};

fn main() {
    // Figure 4: the scene spectrum.
    let spectrum = fig4::run(42);
    println!("{}", spectrum.table());
    println!(
        "wanted channel {:.1} dBm, adjacent {:.1} dBm (Δ = {:.1} dB)\n",
        spectrum.wanted_dbm,
        spectrum.adjacent_dbm,
        spectrum.adjacent_dbm - spectrum.wanted_dbm
    );

    // A small Fig. 5 sweep: filter bandwidth vs BER with the interferer.
    let effort = Effort {
        packets: 4,
        psdu_len: 100,
    };
    let mut ctx = RunContext::serial_reference(effort, 42);
    let sweep = execute(&fig5::Fig5Sweep { points: 7 }, &mut ctx);
    println!("{}", sweep.table());
    println!(
        "best channel-filter edge: {:.1} MHz (the OFDM band needs ±8.3 MHz;\n\
         wider edges admit the +16 dB adjacent channel)",
        fig5::best_edge_mhz(&sweep)
    );
}
