//! # anton-collectives — global reductions on the simulated machine
//!
//! The paper (§IV.B.4): "Although Anton provides no specific hardware
//! support for global reductions, the combination of multicast and
//! counted remote writes leads to a very fast implementation. We use a
//! dimension-ordered algorithm … decomposed into parallel one-dimensional
//! all-reduce operations along the x-axis, followed by … y …, then z.
//! This algorithm … achieves the minimum total hop count (3N/2 for an
//! N×N×N machine) with three rounds of communication. By contrast, a
//! radix-2 butterfly communication pattern would require 3log₂N rounds
//! and 3(N−1) hops. … Processing slice k receives the remote writes and
//! computes the partial sum for the kth dimension (k = 0, 1, 2), so
//! after three rounds slice 2 on each node contains a copy of the global
//! sum, which it shares locally with the other three slices."
//!
//! Both algorithms are implemented as [`anton_net::NodeProgram`]s and run
//! on the packet-level fabric, so Table 2's latencies and the
//! paper's algorithmic comparison both regenerate from the same code.

#![warn(missing_docs)]

pub mod allreduce;
pub mod analysis;
pub mod recovering;

pub use allreduce::{all_reduce, random_inputs, Algorithm, AllReduceOutcome, CollectiveParams};
pub use analysis::{butterfly_cost, dimension_ordered_cost, HopCost};
pub use recovering::{
    all_reduce_recovering, run_all_reduce_recovering_par_timed, run_all_reduce_recovering_timed,
    RecoveringOutcome, RecoveringParams,
};
