//! # anton-des — deterministic discrete-event simulation kernel
//!
//! The foundation of the Anton SC10 reproduction: a picosecond-resolution
//! event queue with strict deterministic ordering, plus measurement
//! utilities (streaming stats, histograms, an activity tracer standing in
//! for Anton's on-chip logic analyzer) and a fixed, reproducible PRNG.
//!
//! Determinism is the load-bearing property: figure regeneration must be
//! bit-identical across runs. The classic [`Engine`] drains one global
//! queue on one core; [`par::ParEngine`] shards the queue and executes
//! conservatively in parallel — exploiting the paper's own observation
//! that a fixed minimum link latency bounds how soon one region of the
//! machine can affect another — while producing bit-identical results at
//! any thread count (see the [`par`] module docs for the argument).
//!
//! ```
//! use anton_des::{Engine, EventHandler, Scheduler, SimDuration, SimTime};
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
//! let mut engine = Engine::new();
//! engine.schedule_at(SimTime::ZERO, "first");
//! let mut world = World { fired: 0 };
//! engine.run(&mut world);
//! assert_eq!(world.fired, 2);
//! assert_eq!(engine.now(), SimTime::from_ns(162));
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod par;
pub mod profile;
mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{Engine, EventHandler, RunOutcome, Scheduler};
pub use par::{LookaheadMatrix, LookaheadMode, ParEngine, ShardMap};
pub use profile::{
    Heartbeat, ParProfile, StderrTelemetry, TelemetryConfig, TelemetrySink, WindowSample,
    WorkerProfile, DEFAULT_SAMPLE_CAP,
};
pub use rng::Rng;
pub use stats::{Histogram, Summary};
pub use time::{SimDuration, SimTime};
pub use trace::{Activity, BinnedUtilization, Interval, Tracer, TrackId};

/// Re-exported so dependents don't need to spell the module path.
pub mod prelude {
    pub use crate::engine::{Engine, EventHandler, RunOutcome, Scheduler};
    pub use crate::rng::Rng;
    pub use crate::stats::{Histogram, Summary};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{Activity, BinnedUtilization, Tracer, TrackId};
}
