//! One run path for every workload.
//!
//! [`drive`] runs any [`NodeProgram`] on the one engine from one
//! [`RunConfig`] — shard plan, thread count, timing model, window-bound
//! mode, observer, profiling — and hands back the [`Finished`] machine:
//! the per-node programs, merged statistics and event count, and
//! whatever the observer and profiler captured. Workload runners (the MD
//! exchange, the all-reduces, the ping-pong microbenchmark) build their
//! outcome from that value; none of them wires an engine itself.
//!
//! A sequential run is the one-slab plan ([`Slabs::ONE`], the default):
//! one fabric replica holds the whole machine and its events drain on
//! the calling thread.
//!
//! A run that does not complete — queues drained with a watch still
//! pending, or the event budget exhausted — comes back as the engine's
//! [`StallReport`], never as a panic.

use crate::fabric::{Fabric, NetStats};
use crate::par::{ObsMode, ParSimulation, ShardPlan};
use crate::recovery::RecoveryStats;
use crate::timing::Timing;
use crate::world::{NodeProgram, RunReport, StallReport};
use anton_des::{LookaheadMode, ParProfile, SimTime};
use anton_obs::{FlightEvent, StreamFootprint, StreamSummary};
use anton_topo::{NodeId, TorusDims};

/// Horizon of every driven run: far past any workload's end, so runs
/// stop on drain or budget, never on time.
const HORIZON: SimTime = SimTime(u64::MAX / 2);

/// How a run slices the machine into shards. The plan is part of the
/// run's configuration, never derived from the thread count, and every
/// plan gives the same simulated result; only host time and the DES
/// event count (one `Start` per slab) differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slabs {
    /// `n` slabs along the longest axis, clamped to its length
    /// ([`ShardPlan::new`]). [`Slabs::ONE`] is the sequential run.
    Count(usize),
    /// One slab per plane of the longest axis ([`ShardPlan::auto`]).
    Auto,
}

impl Slabs {
    /// The whole machine on one fabric replica: the sequential run, and
    /// the reference for fabric state.
    pub const ONE: Slabs = Slabs::Count(1);

    /// The shard plan this choice makes of a `dims` machine.
    pub fn plan(self, dims: TorusDims) -> ShardPlan {
        match self {
            Slabs::Count(n) => ShardPlan::new(dims, n),
            Slabs::Auto => ShardPlan::auto(dims),
        }
    }
}

/// Everything about a run that is not the workload itself: the one
/// input of [`ParSimulation::from_config`], applied when the machine is
/// built. No library crate reads the environment; a binary that
/// exposes a knob (`anton_bench::knobs`) reads it into this value.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The shard plan.
    pub slabs: Slabs,
    /// Worker threads, clamped to the slab count (1 runs every slab in
    /// turn on the calling thread). Never changes a simulated result.
    pub threads: usize,
    /// The timing model every fabric replica is built with.
    pub timing: Timing,
    /// The window bound between slabs. Never changes a simulated
    /// result, only how often slabs synchronize.
    pub lookahead: LookaheadMode,
    /// The packet observer: none, the flight record, or the
    /// bounded-memory stream observer.
    pub obs: ObsMode,
    /// Collect the engine's [`ParProfile`].
    pub profile: bool,
}

impl Default for RunConfig {
    /// One slab on the calling thread, the default timing model, no
    /// observer, no profile.
    fn default() -> RunConfig {
        RunConfig {
            slabs: Slabs::ONE,
            threads: 1,
            timing: Timing::default(),
            lookahead: LookaheadMode::default(),
            obs: ObsMode::Off,
            profile: false,
        }
    }
}

impl RunConfig {
    /// The default configuration on the auto plan with `threads`
    /// workers.
    pub fn sharded(threads: usize) -> RunConfig {
        RunConfig {
            slabs: Slabs::Auto,
            threads,
            ..RunConfig::default()
        }
    }
}

/// What a run's observer and profiler captured. Each field is `Some`
/// exactly when the [`RunConfig`] asked for it.
#[derive(Debug, Default)]
pub struct Observed {
    /// Every flight event in time order ([`ObsMode::Flight`]), the
    /// per-slab streams merged by `(time, slab)`.
    pub flight: Option<Vec<FlightEvent>>,
    /// The finalized stream summary and the observer's memory footprint
    /// ([`ObsMode::Stream`]), both merged across slabs.
    pub stream: Option<(StreamSummary, StreamFootprint)>,
    /// The engine's runtime profile ([`RunConfig::profile`]).
    pub profile: Option<ParProfile>,
}

/// A machine that ran to completion.
#[derive(Debug)]
pub struct Finished<P> {
    /// One program per node, indexed by node id (the instance from the
    /// node's owning slab).
    pub programs: Vec<P>,
    /// Machine-wide fabric statistics.
    pub stats: NetStats,
    /// DES events processed. Each slab seeds one `Start`, so this is the
    /// one count that differs between shard plans.
    pub events: u64,
    /// Machine-wide recovery counters.
    pub recovery: RecoveryStats,
    /// Failure verdicts reached during the run.
    pub verdicts: usize,
    /// What the observer and profiler captured.
    pub observed: Observed,
}

/// Run one program per node on the machine `cfg` describes: build it
/// ([`ParSimulation::from_config`]), run it, and collect the result.
///
/// `build_fabric` constructs the machine from the configured timing; it
/// is called once per slab and must build identical fabrics. `make`
/// builds node `i`'s program. The run stops when the queues drain or
/// after `max_events` events; anything short of a drained queue with no
/// pending counter watch is returned as the stall diagnosis.
///
/// An observer that is off costs nothing: none is installed and nothing
/// is merged after the run.
pub fn drive<P: NodeProgram + Send>(
    cfg: &RunConfig,
    build_fabric: impl FnMut(&Timing) -> Fabric,
    make: impl FnMut(NodeId) -> P,
    max_events: u64,
) -> Result<Finished<P>, Box<StallReport>> {
    let mut sim = ParSimulation::from_config(cfg, build_fabric, make);
    if let RunReport::Stalled(stall) = sim.run_guarded(HORIZON, max_events) {
        return Err(Box::new(stall));
    }
    let observed = Observed {
        flight: (cfg.obs == ObsMode::Flight).then(|| sim.take_merged_flight_events()),
        stream: (cfg.obs == ObsMode::Stream)
            .then(|| sim.take_merged_stream().expect("stream observers")),
        profile: sim.take_runtime_profile(),
    };
    Ok(Finished {
        stats: sim.merged_stats(),
        events: sim.events_processed(),
        recovery: sim.merged_recovery_stats(),
        verdicts: sim.worlds().iter().map(|w| w.fabric.verdicts().len()).sum(),
        observed,
        programs: sim.into_programs(),
    })
}
