//! # anton-net — Anton's communication fabric, simulated
//!
//! A packet-level deterministic model of Anton's network (paper §III):
//! the 3D torus of 50.6 Gbit/s links, the six-router on-chip ring, write
//! and accumulation packets, counted remote writes with synchronization
//! counters, precomputed multicast tables, and hardware message FIFOs
//! with backpressure.
//!
//! Latency constants are calibrated to the paper's Figure 6 single-hop
//! breakdown (162 ns end to end) and Figure 5 per-hop slopes (76 ns/hop
//! in X, 54 ns/hop in Y/Z); see [`timing::Timing`].

#![warn(missing_docs)]

pub mod fabric;
pub mod fault;
pub mod memory;
pub mod packet;
pub mod par;
pub mod recovery;
pub mod run;
pub mod timing;
pub mod world;

pub use fabric::{Ev, Fabric, NetStats, ProgEvent, ERROR_LOG_CAP, FIFO_CAPACITY};
pub use fault::{
    crc32, payload_crc, Crc32, FabricError, FaultPlan, FaultTarget, PermanentFault, RetryPolicy,
    TransientFault, WatchdogReport,
};
pub use memory::{AccumMemory, LocalMemory, MsgFifo, SyncCounters};
pub use packet::{
    ClientAddr, ClientKind, CounterId, Destination, Packet, PacketKind, PatternId, Payload,
    SourceRoute, COUNTERS_PER_CLIENT, COUNTER_BY_SOURCE,
};
pub use par::{
    lookahead_mode_from_env, merge_flight_events, parse_lookahead_mode, threads_from_env,
    EvShardMap, NodeShardWorld, ObsMode, ParSimulation, ShardPlan,
};
pub use recovery::{
    chaos_level_from_env, chaos_seed_from_env, FailureVerdict, RecoveryConfig, RecoveryStats,
    CHAOS_LEVEL_MAX, CHAOS_SEED_DEFAULT,
};
pub use run::{drive, Finished, Observed, RunConfig, Slabs};
pub use timing::{
    Timing, HEADER_BYTES, IN_HEADER_PAYLOAD_BYTES, LINK_EFFECTIVE_GBPS, LINK_RAW_GBPS,
    MAX_PAYLOAD_BYTES, RING_GBPS, WIRE_ENCODING_FACTOR,
};
pub use world::{Ctx, NodeProgram, RunReport, StallReport, StuckWatch};
