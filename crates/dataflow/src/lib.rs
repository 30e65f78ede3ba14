//! A synchronous-dataflow simulation engine in the style of SPW (the
//! Signal Processing Worksystem used in the paper).
//!
//! The system testbench — transmitter, channel, RF front-end, DSP
//! receiver, measurement sinks — is assembled as a graph of [`Block`]s
//! connected by complex-sample frames and executed by a static schedule,
//! the way SPW runs its 802.11a demo design. Parameter sweeps (the
//! paper's "simulation manager allows to setup parameter sweeps") rebuild
//! and rerun the graph per point and collect timing.
//!
//! * [`block`] — the block trait and frame type
//! * [`blocks`] — stock blocks: sources, sinks, adapters, arithmetic
//! * [`graph`] — graph construction and validation
//! * [`sim`] — the scheduler / simulation manager
//! * [`probe`] — signal capture sinks
//! * [`sweep`] — parameter sweep runner
//!
//! # Example
//!
//! ```
//! use wlan_dataflow::blocks::{FnBlock, SourceBlock};
//! use wlan_dataflow::graph::Graph;
//! use wlan_dataflow::probe::Probe;
//! use wlan_dataflow::sim::Simulation;
//! use wlan_dsp::Complex;
//!
//! let mut g = Graph::new();
//! let src = g.add(SourceBlock::new("src", vec![Complex::ONE; 64], 16));
//! let dbl = g.add(FnBlock::new("x2", |x: &[Complex]| {
//!     x.iter().map(|&v| v * 2.0).collect()
//! }));
//! let probe = Probe::new();
//! let sink = g.add(probe.block("sink"));
//! g.connect(src, 0, dbl, 0).unwrap();
//! g.connect(dbl, 0, sink, 0).unwrap();
//! let stats = Simulation::new().run(&mut g).unwrap();
//! assert_eq!(stats.ticks, 5); // 4 producing frames + 1 end-of-stream
//! assert_eq!(probe.samples().len(), 64);
//! assert_eq!(probe.samples()[0], Complex::new(2.0, 0.0));
//! ```

#![forbid(unsafe_code)]

pub mod block;
pub mod blocks;
pub mod graph;
pub mod probe;
pub mod sdf;
pub mod sim;
pub mod sweep;

pub use block::Block;
pub use graph::{Graph, GraphError, NodeId};
pub use probe::Probe;
pub use sim::{SimStats, Simulation};
