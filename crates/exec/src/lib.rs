//! Std-only parallel execution for the workspace.
//!
//! The paper's evaluation is dominated by Monte-Carlo BER sweeps of the
//! full 802.11a link (§4.2 reports hours per sweep); this crate supplies
//! the two ingredients that let the rest of the workspace run them on
//! every core without giving up bit-exact reproducibility:
//!
//! * [`pool`] — a small scoped-thread worker pool ([`ThreadPool`]) with
//!   a shared work queue (atomic index claiming, so idle workers pick up
//!   the remaining tasks — work-stealing-ish without the deques).
//!   Results come back in input order, so callers see the same `Vec` a
//!   serial loop would have produced.
//! * [`seed`] — deterministic seed-splitting ([`split_seed`]): every
//!   parallel task derives its RNG stream from a SplitMix-style hash of
//!   `(master_seed, point_index, shard_index)`. Streams depend only on
//!   the task's identity, never on which thread runs it or how many
//!   threads exist, which is what makes parallel Monte-Carlo results
//!   bit-identical to serial ones.
//!
//! No external dependencies and no unsafe code; the workspace must keep
//! building offline.

#![forbid(unsafe_code)]

pub mod pool;
pub mod seed;

pub use pool::ThreadPool;
pub use seed::split_seed;
