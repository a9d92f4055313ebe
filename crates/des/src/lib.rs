//! # anton-des — deterministic discrete-event simulation kernel
//!
//! The foundation of the Anton SC10 reproduction: a picosecond-resolution
//! event queue with strict deterministic ordering, plus measurement
//! utilities (streaming stats, histograms, an activity tracer standing in
//! for Anton's on-chip logic analyzer) and a fixed, reproducible PRNG.
//!
//! Determinism is the load-bearing property: figure regeneration must be
//! bit-identical across runs. [`ParEngine`] is the one engine. It shards
//! the queue and executes conservatively in parallel — exploiting the
//! paper's own observation that a fixed minimum link latency bounds how
//! soon one region of the machine can affect another — while producing
//! bit-identical results at any thread count (see the [`par`] module docs
//! for the argument). A sequential run is its one-shard case, drained on
//! the calling thread.
//!
//! ```
//! use anton_des::{EventHandler, ParEngine, Scheduler, ShardMap, SimDuration, SimTime};
//!
//! /// Everything runs on one shard.
//! struct OneShard;
//! impl ShardMap<&'static str> for OneShard {
//!     fn shard_count(&self) -> usize { 1 }
//!     fn shard_of(&self, _: &&'static str) -> usize { 0 }
//!     fn lookahead(&self) -> SimDuration { SimDuration::ZERO }
//! }
//!
//! struct World { fired: u32 }
//! impl EventHandler<&'static str> for World {
//!     fn handle(&mut self, ev: &'static str, sched: &mut Scheduler<&'static str>) {
//!         self.fired += 1;
//!         if ev == "first" {
//!             sched.after(SimDuration::from_ns(162), "second");
//!         }
//!     }
//! }
//!
//! let mut engine = ParEngine::new(OneShard, 1);
//! engine.schedule_at(SimTime::ZERO, "first");
//! let mut worlds = [World { fired: 0 }];
//! engine.run(&mut worlds);
//! assert_eq!(worlds[0].fired, 2);
//! assert_eq!(engine.now(), SimTime::from_ns(162));
//! ```

#![warn(missing_docs)]

pub mod par;
pub mod profile;
mod queue;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;
pub mod trace;

pub use par::{LookaheadMatrix, LookaheadMode, ParEngine, ShardMap};
pub use profile::{
    Heartbeat, ParProfile, StderrTelemetry, TelemetryConfig, TelemetrySink, WindowSample,
    WorkerProfile, DEFAULT_SAMPLE_CAP,
};
pub use rng::Rng;
pub use sched::{EventHandler, RunOutcome, Scheduler};
pub use stats::{Histogram, Summary};
pub use time::{SimDuration, SimTime};
pub use trace::{Activity, BinnedUtilization, Interval, Tracer, TrackId};
