//! One run path for every workload.
//!
//! [`drive`] runs any [`NodeProgram`] on either engine from one
//! [`RunConfig`] — executor, timing model, window-bound mode, observer,
//! profiling — and hands back the [`Finished`] machine: the per-node
//! programs, merged statistics and event count, and whatever the
//! observer and profiler captured. Workload runners (the MD exchange,
//! the all-reduces, the ping-pong microbenchmark) build their outcome
//! from that value; none of them wires an engine itself.
//!
//! A run that does not complete — queues drained with a watch still
//! pending, or the event budget exhausted — comes back as the engine's
//! [`StallReport`], never as a panic.

use crate::fabric::{Fabric, NetStats};
use crate::par::{ObsMode, ParSimulation};
use crate::recovery::RecoveryStats;
use crate::timing::Timing;
use crate::world::{NodeProgram, RunReport, Simulation, StallReport};
use anton_des::{LookaheadMode, ParProfile, SimTime};
use anton_obs::{FlightEvent, StreamConfig, StreamFootprint, StreamSummary};
use anton_topo::NodeId;

/// Horizon of every driven run: far past any workload's end, so runs
/// stop on drain or budget, never on time.
const HORIZON: SimTime = SimTime(u64::MAX / 2);

/// Which engine executes a run. Simulated results are identical on
/// both; only host time differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// The single-threaded reference engine ([`Simulation`]).
    #[default]
    Sequential,
    /// The sharded engine ([`ParSimulation`]) with `threads` workers.
    Sharded {
        /// Worker-thread count (1 runs the shards in turn).
        threads: usize,
    },
}

/// Everything about a run that is not the workload itself.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// The engine.
    pub executor: Executor,
    /// The timing model every fabric replica is built with.
    pub timing: Timing,
    /// The sharded engine's window bound (ignored by the sequential
    /// engine). Applied as given: callers that want the
    /// `ANTON_LOOKAHEAD` knob pass [`crate::lookahead_mode_from_env`].
    pub lookahead: LookaheadMode,
    /// The packet observer: none, a flight recorder, or the
    /// bounded-memory stream observer at its default configuration.
    pub obs: ObsMode,
    /// Collect the sharded engine's [`ParProfile`] (the sequential
    /// engine has no windows to profile, so this is sharded-only).
    pub profile: bool,
}

impl RunConfig {
    /// The default configuration on the sharded engine with `threads`
    /// workers.
    pub fn sharded(threads: usize) -> RunConfig {
        RunConfig {
            executor: Executor::Sharded { threads },
            ..RunConfig::default()
        }
    }
}

/// What a run's observer and profiler captured. Each field is `Some`
/// exactly when the [`RunConfig`] asked for it.
#[derive(Debug, Default)]
pub struct Observed {
    /// Every flight event in time order ([`ObsMode::Flight`]); sharded
    /// runs merge the per-shard streams by `(time, shard)`.
    pub flight: Option<Vec<FlightEvent>>,
    /// The finalized stream summary and the observer's memory footprint
    /// ([`ObsMode::Stream`]); sharded runs merge both across shards.
    pub stream: Option<(StreamSummary, StreamFootprint)>,
    /// The sharded engine's runtime profile ([`RunConfig::profile`]).
    pub profile: Option<ParProfile>,
}

/// A machine that ran to completion.
#[derive(Debug)]
pub struct Finished<P> {
    /// One program per node, indexed by node id (on the sharded engine,
    /// the instance from the node's owning shard).
    pub programs: Vec<P>,
    /// Machine-wide fabric statistics.
    pub stats: NetStats,
    /// DES events processed (the sharded engine seeds one `Start` per
    /// shard, so this is the one count that differs between engines).
    pub events: u64,
    /// Machine-wide recovery counters.
    pub recovery: RecoveryStats,
    /// Failure verdicts reached during the run.
    pub verdicts: usize,
    /// What the observer and profiler captured.
    pub observed: Observed,
}

/// Run one program per node on the engine `cfg` names.
///
/// `build_fabric` constructs the machine from the configured timing; on
/// the sharded engine it is called once per shard and must build
/// identical fabrics (see [`ParSimulation::new`]). `make` builds node
/// `i`'s program. The run stops when the queues drain or after
/// `max_events` events; anything short of a drained queue with no
/// pending counter watch is returned as the stall diagnosis.
///
/// An observer that is off costs nothing: no recorder is installed and
/// nothing is merged after the run.
pub fn drive<P: NodeProgram + Send>(
    cfg: &RunConfig,
    mut build_fabric: impl FnMut(&Timing) -> Fabric,
    make: impl FnMut(NodeId) -> P,
    max_events: u64,
) -> Result<Finished<P>, Box<StallReport>> {
    match cfg.executor {
        Executor::Sequential => {
            let mut fabric = build_fabric(&cfg.timing);
            match cfg.obs {
                ObsMode::Off => {}
                ObsMode::Flight => fabric.attach_owned_flight_recorder(),
                ObsMode::Stream => fabric.attach_stream_observer(StreamConfig::default()),
            }
            let mut sim = Simulation::new(fabric, make);
            if let RunReport::Stalled(stall) = sim.run_guarded(HORIZON, max_events) {
                return Err(Box::new(stall));
            }
            let events = sim.events_processed();
            let Simulation { world, .. } = sim;
            let mut fabric = world.fabric;
            let observed = Observed {
                flight: fabric.take_flight_recorder().map(|mut r| r.take_events()),
                stream: fabric.stream_observer().map(|o| {
                    let mut summary = o.summary();
                    summary.finalize();
                    (summary, o.footprint())
                }),
                profile: None,
            };
            Ok(Finished {
                programs: world.programs,
                recovery: *fabric.recovery_stats(),
                verdicts: fabric.verdicts().len(),
                stats: fabric.stats,
                events,
                observed,
            })
        }
        Executor::Sharded { threads } => {
            let mut sim = ParSimulation::new(threads, || build_fabric(&cfg.timing), make);
            sim.set_lookahead_mode(cfg.lookahead);
            if cfg.profile {
                sim.enable_runtime_profiling();
            }
            match cfg.obs {
                ObsMode::Off => {}
                ObsMode::Flight => sim.attach_flight_recorders(),
                ObsMode::Stream => sim.attach_stream_observers(StreamConfig::default()),
            }
            if let RunReport::Stalled(stall) = sim.run_guarded(HORIZON, max_events) {
                return Err(Box::new(stall));
            }
            let observed = Observed {
                flight: (cfg.obs == ObsMode::Flight).then(|| sim.merged_flight_events()),
                stream: (cfg.obs == ObsMode::Stream).then(|| {
                    let summary = sim.merged_stream_summary().expect("stream observers");
                    (summary, sim.stream_footprint().expect("stream observers"))
                }),
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
    }
}
