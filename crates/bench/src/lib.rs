//! # anton-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper (see DESIGN.md's
//! experiment index). Each `src/bin/` binary prints one table or figure
//! as the paper reports it, with paper-published values alongside for
//! comparison; the Criterion benches exercise the same code paths for
//! host-side performance tracking.

#![warn(missing_docs)]

pub mod microbench;
pub mod observatory;
pub mod report;
pub mod scenario;
pub mod suite;

pub use microbench::{
    multicast_vs_unicast, neighbor_exchange, one_way_latency_local, ping_pong, split_transfer_time,
    streaming_bandwidth_gbps, ExchangeOutcome, ExchangeStyle,
};
