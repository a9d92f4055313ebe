//! Parallel simulation of the fabric: torus regions as DES shards.
//!
//! ## Sharding
//!
//! The torus is sliced into slabs along one axis ([`ShardPlan`]); every
//! fabric event names the node it executes on, so the shard map routes it
//! to the slab owning that node. The conservative lookahead comes from
//! the timing model ([`Timing::conservative_lookahead`]): the only events
//! that cross nodes — and therefore possibly shards — are `HopArrive`s,
//! and every one of them is scheduled at least one link crossing
//! (adapters + cheapest ring transit, 54 ns by default) in the future.
//! Deliveries, FIFO service, program dispatches, and watchdog checks are
//! all node-local. The parallel engine asserts this bound at runtime.
//!
//! Beyond the single global bound, the plan induces a **per-shard-pair
//! lookahead matrix** ([`ShardPlan::lookahead_matrix`]): a hop can only
//! cross into a *ring-adjacent* slab, so non-adjacent slabs are bounded
//! by the slab ring distance times the per-axis hop minimum
//! ([`Timing::min_hop_delay`]). The engine's adaptive mode (the default;
//! [`LookaheadMode::Global`] selects the uniform baseline) uses those
//! per-pair bounds to open wider windows for distant slabs and to extend
//! a shard's window when its upstream shards have drained — without
//! changing any simulated result.
//!
//! ## Shard worlds
//!
//! Each shard owns a **full fabric replica** built by the same
//! constructor closure (identical dims, timing, fault plan, multicast
//! tables), called exactly once per shard, but is *authoritative only
//! for its own nodes*: an event for node `n` executes exclusively on
//! `n`'s owning shard, so each node's link/port/core/memory state is
//! touched by exactly one replica, and a replica's non-owned state
//! simply stays at its initial value. Client state (memories, counters,
//! FIFOs) is created on first mutation, so a replica only allocates it
//! for the nodes whose events it runs; untouched clients read as empty.
//! Per-link fault draws are keyed on per-link attempt sequence numbers,
//! which advance only on the owning replica — so a sharded run draws the
//! same faults the sequential run does. Statistics, recorded flight
//! events, trace intervals, error logs, and watchdog reports are merged
//! across replicas in deterministic shard order after the run.
//!
//! Packet uids are node-scoped in this mode
//! ([`Fabric::enable_node_scoped_uids`]): a uid must be derivable from
//! the sending node's own history, or different shardings would label
//! packets differently.
//!
//! ## Determinism
//!
//! [`ParSimulation`] runs bit-identically at any thread count, and its
//! merged statistics equal a sequential [`Simulation`](crate::Simulation) of the same
//! machine (asserted in `tests/par_sim.rs` and in the CI determinism
//! cross-check). The shard *count* is part of the plan, not derived from
//! the thread count, precisely so that thread count never influences
//! event partitioning.

use crate::fabric::{Ev, Fabric, NetStats, ProgEvent};
use crate::timing::Timing;
use crate::world::{Ctx, NodeProgram, RunReport, SimWorld, StallReport, StuckWatch};
use anton_des::par::{LookaheadMatrix, LookaheadMode, ParEngine, ShardMap};
use anton_des::{
    EventHandler, ParProfile, RunOutcome, Scheduler, SimDuration, SimTime, StderrTelemetry,
    TelemetryConfig,
};
use anton_obs::{FlightEvent, StreamConfig, StreamFootprint, StreamSummary};
use anton_topo::{Dim, NodeId, TorusDims};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Parse a worker/shard count from an env-var value: `Ok(None)` when the
/// variable is unset, `Ok(Some(n))` for a positive integer, `Err(raw)`
/// when set but invalid (`"0"`, `"abc"`, …). Pure so the parsing is unit
/// testable without racing on the process environment.
fn parse_env_count(raw: Option<&str>) -> Result<Option<usize>, String> {
    match raw {
        None => Ok(None),
        Some(s) => match s.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(s.to_owned()),
        },
    }
}

/// Resolve a raw env-var value through `parse`, falling back to
/// `fallback` on an unset or invalid value. An invalid value (silently
/// accepting it would mask a typo'd `ANTON_THREADS=abc` forever) warns on
/// stderr — once per variable per process, so loops over simulations
/// don't spam. Every `ANTON_*` knob resolves through this one helper so
/// they all share the same warn-once contract.
fn resolve_env<T: std::fmt::Display>(
    var: &str,
    raw: Option<&str>,
    fallback: T,
    warned: &AtomicBool,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    match raw {
        None => fallback,
        Some(s) => match parse(s) {
            Some(v) => v,
            None => {
                if !warned.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "warning: ignoring invalid {var}={s:?} \
                         (expected {expected}); using {fallback}"
                    );
                }
                fallback
            }
        },
    }
}

/// [`resolve_env`] for positive-integer counts.
fn resolve_count(var: &str, raw: Option<&str>, fallback: usize, warned: &AtomicBool) -> usize {
    resolve_env(var, raw, fallback, warned, "a positive integer", |s| {
        parse_env_count(Some(s)).ok().flatten()
    })
}

/// [`resolve_count`] over the live process environment.
fn env_count(var: &str, fallback: usize, warned: &AtomicBool) -> usize {
    let raw = std::env::var(var).ok();
    resolve_count(var, raw.as_deref(), fallback, warned)
}

static THREADS_WARNED: AtomicBool = AtomicBool::new(false);
static LOOKAHEAD_WARNED: AtomicBool = AtomicBool::new(false);
static TELEMETRY_WARNED: AtomicBool = AtomicBool::new(false);

/// Live-telemetry heartbeat period from `ANTON_TELEMETRY_MS`: unset (or
/// invalid, with a once-per-process warning) disables telemetry; `0`
/// emits at every window boundary.
fn telemetry_period_from_env() -> Option<Duration> {
    let raw = std::env::var("ANTON_TELEMETRY_MS").ok()?;
    match raw.trim().parse::<u64>() {
        Ok(ms) => Some(Duration::from_millis(ms)),
        Err(_) => {
            if !TELEMETRY_WARNED.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: ignoring invalid ANTON_TELEMETRY_MS={raw:?} \
                     (expected milliseconds); telemetry stays off"
                );
            }
            None
        }
    }
}

/// How the torus is sliced into shards: slabs perpendicular to one axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    dims: TorusDims,
    axis: Dim,
    nshards: usize,
}

impl ShardPlan {
    /// Slab the torus along its longest axis into `nshards` slabs
    /// (clamped to the axis length; ties prefer Z, whose slabs are
    /// contiguous in node-id order).
    pub fn new(dims: TorusDims, nshards: usize) -> ShardPlan {
        let axis = *Dim::ALL
            .iter()
            .max_by_key(|d| (dims.len(**d), d.index()))
            .expect("three dims");
        let nshards = nshards.clamp(1, dims.len(axis) as usize);
        ShardPlan {
            dims,
            axis,
            nshards,
        }
    }

    /// The default plan: one shard per plane of the longest axis (8 for
    /// an 8×8×8 machine). The shard count is part of the *simulation
    /// configuration* — a pure function of the dims, never of the
    /// worker-thread count, or different thread counts would partition
    /// events differently. [`ParSimulation::with_plan`] takes any other.
    pub fn auto(dims: TorusDims) -> ShardPlan {
        let planes = Dim::ALL.iter().map(|&d| dims.len(d)).max().unwrap() as usize;
        ShardPlan::new(dims, planes)
    }

    /// Machine dimensions.
    pub fn dims(&self) -> TorusDims {
        self.dims
    }

    /// The slab axis.
    pub fn axis(&self) -> Dim {
        self.axis
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.nshards
    }

    /// The shard owning `node`.
    pub fn shard_of_node(&self, node: NodeId) -> usize {
        let c = node.coord(self.dims).get(self.axis) as usize;
        c * self.nshards / self.dims.len(self.axis) as usize
    }

    /// Ring distance between two slabs: the slabs are arranged in a ring
    /// along the slab axis (the torus wraps), so slab `a` reaches slab
    /// `b` in `min(|a−b|, n−|a−b|)` slab-boundary crossings.
    pub fn slab_ring_distance(&self, a: usize, b: usize) -> usize {
        let d = a.abs_diff(b);
        d.min(self.nshards - d)
    }

    /// The per-shard-pair lookahead matrix this plan induces under
    /// `timing`: the minimum latency of any single event that can carry
    /// state from slab `a` into slab `b`.
    ///
    /// The only cross-node fabric events are `HopArrive`s, and a hop
    /// changes exactly one coordinate by ±1 — so a hop leaves its slab
    /// only when it travels along the slab axis, and then lands in a
    /// **ring-adjacent** slab (torus wraparound makes the first and last
    /// slabs adjacent). Adjacent pairs therefore get the per-axis bound
    /// [`Timing::min_hop_delay`]; every other pair is unreachable by a
    /// single event, and the engine's min-plus closure composes the
    /// adjacent bound once per intervening slab. A 16-slab machine's
    /// opposite slabs end up with an 8×54 = 432 ns bound instead of the
    /// uniform 54 ns — the leverage behind adaptive windows.
    pub fn lookahead_matrix(&self, timing: &Timing) -> LookaheadMatrix {
        let mut m = LookaheadMatrix::unreachable(self.nshards);
        let hop = timing.min_hop_delay(self.axis);
        for a in 0..self.nshards {
            for b in 0..self.nshards {
                if a != b && self.slab_ring_distance(a, b) == 1 {
                    m.set(a, b, hop);
                }
            }
        }
        m
    }
}

/// Worker-thread count for parallel runs: the `ANTON_THREADS` env var,
/// defaulting to 1 (one worker, on the calling thread); invalid values
/// warn once on stderr and fall back to 1. Thread count never affects
/// simulated results — only wall-clock time.
pub fn threads_from_env() -> usize {
    env_count("ANTON_THREADS", 1, &THREADS_WARNED)
}

/// Parse a lookahead-mode name (`"adaptive"`/`"matrix"` or
/// `"global"`/`"uniform"`, case-insensitive). `None` for anything else.
pub fn parse_lookahead_mode(s: &str) -> Option<LookaheadMode> {
    match s.trim().to_ascii_lowercase().as_str() {
        "adaptive" | "matrix" => Some(LookaheadMode::Adaptive),
        "global" | "uniform" => Some(LookaheadMode::Global),
        _ => None,
    }
}

/// Window-bound mode from `ANTON_LOOKAHEAD`, defaulting to
/// [`LookaheadMode::Adaptive`] (per-shard-pair windows from the slab
/// distance matrix); `global` selects the uniform 54 ns baseline for
/// A/B comparisons. Mode never affects simulated results — only how
/// wide the conservative windows open (asserted by the determinism
/// tests and the `par_speedup` bench). Invalid values warn once on
/// stderr, same contract as the other `ANTON_*` knobs.
pub fn lookahead_mode_from_env() -> LookaheadMode {
    let raw = std::env::var("ANTON_LOOKAHEAD").ok();
    resolve_env(
        "ANTON_LOOKAHEAD",
        raw.as_deref(),
        LookaheadMode::default(),
        &LOOKAHEAD_WARNED,
        "adaptive|global",
        parse_lookahead_mode,
    )
}

/// Which observability recorder a run attaches to its fabric (or one
/// per shard); see [`RunConfig::obs`](crate::RunConfig::obs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// No recorder: the zero-observer-effect baseline.
    #[default]
    Off,
    /// Full O(events) flight recording
    /// ([`anton_obs::FlightRecorder`]) — exact offline analysis on
    /// paper-scale (512-node) machines.
    Flight,
    /// Bounded-memory streaming observability
    /// ([`anton_obs::StreamObserver`]) — O(nodes + links) state for
    /// 100×-scale machines.
    Stream,
}

impl std::fmt::Display for ObsMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ObsMode::Off => "off",
            ObsMode::Flight => "flight",
            ObsMode::Stream => "stream",
        })
    }
}

impl ObsMode {
    /// Parse a mode name (`"off"`, `"flight"`, `"stream"`, plus a few
    /// forgiving aliases). `None` for anything else.
    pub fn parse_str(s: &str) -> Option<ObsMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Some(ObsMode::Off),
            "flight" | "full" => Some(ObsMode::Flight),
            "stream" | "streaming" | "bounded" => Some(ObsMode::Stream),
            _ => None,
        }
    }
}

/// The shard map for fabric events: route to the named node's slab.
pub struct EvShardMap {
    plan: ShardPlan,
    lookahead: SimDuration,
    matrix: LookaheadMatrix,
}

impl EvShardMap {
    /// Build from a plan and the timing model whose
    /// [`Timing::conservative_lookahead`] bounds cross-node events (and
    /// whose per-axis [`Timing::min_hop_delay`] feeds the per-pair
    /// matrix for adaptive windows).
    pub fn new(plan: ShardPlan, timing: &Timing) -> EvShardMap {
        EvShardMap {
            plan,
            lookahead: timing.conservative_lookahead(),
            matrix: plan.lookahead_matrix(timing),
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }
}

impl ShardMap<Ev> for EvShardMap {
    fn shard_count(&self) -> usize {
        self.plan.shard_count()
    }

    fn shard_of(&self, event: &Ev) -> usize {
        match event {
            // Start is seeded once per shard (schedule_at_shard); it
            // never flows through shard routing.
            Ev::Start => unreachable!("Ev::Start is seeded per shard"),
            Ev::HopArrive { node, .. }
            | Ev::Deliver { node, .. }
            | Ev::FifoService { node, .. }
            | Ev::Prog { node, .. }
            | Ev::Reinject { node, .. } => self.plan.shard_of_node(*node),
            Ev::WatchdogCheck { addr, .. } => self.plan.shard_of_node(addr.node),
        }
    }

    fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    fn lookahead_matrix(&self) -> LookaheadMatrix {
        self.matrix.clone()
    }
}

/// One shard's slice of the machine: a full fabric replica
/// (authoritative for this shard's nodes only) plus one program per
/// node (only the owned ones ever run).
pub struct NodeShardWorld<P: NodeProgram> {
    shard: usize,
    plan: ShardPlan,
    /// This shard's fabric replica.
    pub fabric: Fabric,
    /// One program per node id; non-owned entries stay untouched.
    pub programs: Vec<P>,
}

impl<P: NodeProgram> NodeShardWorld<P> {
    /// Whether this shard owns `node`.
    pub fn owns(&self, node: NodeId) -> bool {
        self.plan.shard_of_node(node) == self.shard
    }

    fn dispatch(&mut self, node: NodeId, pe: ProgEvent, sched: &mut Scheduler<Ev>) {
        debug_assert!(self.owns(node), "program event routed to the wrong shard");
        let mut ctx = Ctx::new(&mut self.fabric, sched);
        self.programs[node.index()].on_event(node, pe, &mut ctx);
    }
}

impl<P: NodeProgram> EventHandler<Ev> for NodeShardWorld<P> {
    fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Start => {
                // Each shard's Start dispatches only its own nodes, in
                // node-id order (the same relative order the sequential
                // world uses).
                for i in 0..self.programs.len() {
                    let node = NodeId(i as u32);
                    if self.owns(node) {
                        self.dispatch(node, ProgEvent::Start, sched);
                    }
                }
            }
            Ev::HopArrive { pkt, node, in_dim } => {
                debug_assert!(self.owns(node));
                let now = sched.now();
                self.fabric.hop_arrive(pkt, node, in_dim, now, sched);
            }
            Ev::Deliver { pkt, node, client } => {
                debug_assert!(self.owns(node));
                let now = sched.now();
                self.fabric.deliver(pkt, node, client, now, sched);
            }
            Ev::FifoService { node, client } => {
                debug_assert!(self.owns(node));
                let now = sched.now();
                self.fabric.fifo_service(node, client, now, sched);
            }
            Ev::Prog { node, pe } => {
                self.dispatch(node, pe, sched);
            }
            Ev::Reinject { pkt, node } => {
                debug_assert!(self.owns(node));
                let now = sched.now();
                self.fabric.reinject(pkt, node, now, sched);
            }
            Ev::WatchdogCheck {
                addr,
                counter,
                target,
            } => {
                debug_assert!(self.owns(addr.node));
                let now = sched.now();
                self.fabric.watchdog_check(addr, counter, target, now);
            }
        }
    }
}

/// The parallel counterpart of [`Simulation`]: a sharded machine driven
/// by [`ParEngine`]. Same event model, same results, N-way wall-clock
/// parallelism.
///
/// [`Simulation`]: crate::world::Simulation
pub struct ParSimulation<P: NodeProgram> {
    engine: ParEngine<Ev, EvShardMap>,
    worlds: Vec<NodeShardWorld<P>>,
}

impl<P: NodeProgram + Send> ParSimulation<P> {
    /// Build a sharded machine. `build_fabric` is called exactly once per
    /// shard and must construct *identical* fabrics (same dims, timing,
    /// fault plan, and pre-registered multicast patterns — register
    /// patterns inside the closure, not afterwards); `make` is called per
    /// shard per node and must be a pure function of the node id.
    /// `threads` picks the worker count (1 runs on the calling thread).
    /// Windows start in the default [`LookaheadMode::Adaptive`]; see
    /// [`ParSimulation::set_lookahead_mode`].
    ///
    /// Mid-run mutation of *other* nodes' fabric state through
    /// [`Ctx::fabric_mut`] (e.g. re-registering a multicast pattern
    /// mid-run) is not supported in the sharded mode: a replica's
    /// pattern tables are only consulted for owned nodes, so pre-run
    /// registration via `build_fabric` is the supported path.
    pub fn new(
        threads: usize,
        mut build_fabric: impl FnMut() -> Fabric,
        make: impl FnMut(NodeId) -> P,
    ) -> ParSimulation<P> {
        let first = build_fabric();
        let plan = ShardPlan::auto(first.dims());
        ParSimulation::from_first_replica(threads, plan, first, build_fabric, make)
    }

    /// [`ParSimulation::new`] with an explicit [`ShardPlan`] instead of
    /// [`ShardPlan::auto`] — for tests and experiments that sweep shard
    /// counts or axes. The plan's dims must match the fabric the closure
    /// builds.
    pub fn with_plan(
        threads: usize,
        plan: ShardPlan,
        mut build_fabric: impl FnMut() -> Fabric,
        make: impl FnMut(NodeId) -> P,
    ) -> ParSimulation<P> {
        let first = build_fabric();
        ParSimulation::from_first_replica(threads, plan, first, build_fabric, make)
    }

    /// Shared constructor: `first` (already built, and read for dims and
    /// timing) becomes shard 0's replica; `build_fabric` builds the rest.
    fn from_first_replica(
        threads: usize,
        plan: ShardPlan,
        first: Fabric,
        mut build_fabric: impl FnMut() -> Fabric,
        mut make: impl FnMut(NodeId) -> P,
    ) -> ParSimulation<P> {
        let dims = first.dims();
        assert_eq!(dims, plan.dims(), "shard plan built for different dims");
        let map = EvShardMap::new(plan, first.timing());
        let mut engine = ParEngine::new(map, threads);
        let n = dims.node_count();
        let mut worlds = Vec::with_capacity(plan.shard_count());
        let mut first = Some(first);
        for shard in 0..plan.shard_count() {
            let mut fabric = first.take().unwrap_or_else(&mut build_fabric);
            assert_eq!(fabric.dims(), dims, "build_fabric must be deterministic");
            fabric.enable_node_scoped_uids();
            let programs = (0..n).map(|i| make(NodeId(i))).collect();
            worlds.push(NodeShardWorld {
                shard,
                plan,
                fabric,
                programs,
            });
            engine.schedule_at_shard(shard, SimTime::ZERO, Ev::Start);
        }
        if let Some(period) = telemetry_period_from_env() {
            engine.enable_telemetry(TelemetryConfig {
                period,
                sink: Arc::new(StderrTelemetry),
            });
        }
        ParSimulation { engine, worlds }
    }

    /// Install one [`FlightRecorder`](anton_obs::FlightRecorder) per
    /// shard (call before running). Each shard's fabric *owns* its
    /// recorder — every hook is a direct push, with no shared-mutex
    /// round trip on the hot path — and the streams are merged
    /// deterministically in shard order by
    /// [`ParSimulation::merged_flight_events`] after the run.
    pub fn attach_flight_recorders(&mut self) {
        for w in &mut self.worlds {
            w.fabric.attach_owned_flight_recorder();
        }
    }

    /// Install one bounded-memory
    /// [`StreamObserver`](anton_obs::StreamObserver) per shard (call
    /// before running). Each shard folds its own packets at delivery;
    /// packets that cross shards stay open and are joined by
    /// [`ParSimulation::merged_stream_summary`] after the run.
    pub fn attach_stream_observers(&mut self, cfg: StreamConfig) {
        for w in &mut self.worlds {
            w.fabric.attach_stream_observer(cfg);
        }
    }

    /// Select which window bound the engine applies (default
    /// [`LookaheadMode::Adaptive`]). Call before running. Mode never
    /// changes simulated results — adaptive windows are provably
    /// conservative — only how often shards synchronize.
    pub fn set_lookahead_mode(&mut self, mode: LookaheadMode) {
        self.engine.set_lookahead_mode(mode);
    }

    /// The per-shard-pair lookahead matrix the plan induced.
    pub fn lookahead_matrix(&self) -> &LookaheadMatrix {
        self.engine.lookahead_matrix()
    }

    /// Enable runtime profiling on the underlying [`ParEngine`]:
    /// per-worker phase accounting, per-shard event counts, and the
    /// cross-shard traffic matrix, taken after a run through
    /// [`ParSimulation::take_runtime_profile`]. Profiling never changes
    /// simulated results (asserted by fingerprint tests).
    pub fn enable_runtime_profiling(&mut self) {
        self.engine.enable_profiling();
    }

    /// Take the accumulated runtime profile, resetting the accumulator.
    pub fn take_runtime_profile(&mut self) -> Option<ParProfile> {
        self.engine.take_profile()
    }

    /// Stream live heartbeats to `cfg`'s sink during runs (also
    /// switched on automatically by the `ANTON_TELEMETRY_MS` env var,
    /// which streams JSON lines to stderr).
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        self.engine.enable_telemetry(cfg);
    }

    /// The shard plan in force.
    pub fn plan(&self) -> &ShardPlan {
        self.engine.map().plan()
    }

    /// The per-shard worlds (fabric replicas and programs).
    pub fn worlds(&self) -> &[NodeShardWorld<P>] {
        &self.worlds
    }

    /// The program instance that actually ran for `node` (the one on the
    /// owning shard — the other replicas' instances never saw an event).
    pub fn program(&self, node: NodeId) -> &P {
        let shard = self.plan().shard_of_node(node);
        &self.worlds[shard].programs[node.index()]
    }

    /// Consume the machine, keeping each node's program from its owning
    /// shard (see [`ParSimulation::program`]), in node-id order.
    pub fn into_programs(self) -> Vec<P> {
        let plan = *self.plan();
        let mut shards: Vec<_> = self
            .worlds
            .into_iter()
            .map(|w| w.programs.into_iter())
            .collect();
        (0..plan.dims().node_count())
            .map(|i| {
                let owner = plan.shard_of_node(NodeId(i));
                let mut kept = None;
                for (shard, programs) in shards.iter_mut().enumerate() {
                    let p = programs.next().expect("one program per node per shard");
                    if shard == owner {
                        kept = Some(p);
                    }
                }
                kept.expect("every node has an owning shard")
            })
            .collect()
    }

    /// Run to quiescence.
    pub fn run(&mut self) {
        self.engine.run(&mut self.worlds);
    }

    /// Run with a horizon and event budget. Same boundary semantics as
    /// the sequential engine (horizon-stamped events fire); the budget
    /// is enforced at window granularity, identically at every thread
    /// count.
    pub fn run_until(&mut self, horizon: SimTime, max_events: u64) -> RunOutcome {
        self.engine.run_until(&mut self.worlds, horizon, max_events)
    }

    /// Run with a horizon and budget, then diagnose stalls exactly like
    /// [`Simulation::run_guarded`]: completed only if the queues drained
    /// with no counter watch pending anywhere.
    ///
    /// [`Simulation::run_guarded`]: crate::world::Simulation::run_guarded
    pub fn run_guarded(&mut self, horizon: SimTime, max_events: u64) -> RunReport {
        let outcome = self.run_until(horizon, max_events);
        let stuck = self.stuck_watches();
        if outcome == RunOutcome::Drained && stuck.is_empty() {
            RunReport::Completed(outcome)
        } else {
            RunReport::Stalled(StallReport {
                outcome,
                at: self.now(),
                stuck,
                watchdog: self.merged_watchdog_reports(),
                stats: self.merged_stats(),
            })
        }
    }

    /// Time of the last event processed.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Total events processed.
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed()
    }

    /// Machine-wide statistics: the shard replicas' counters summed in
    /// shard order. Each event executes on exactly one replica, so the
    /// sum equals the sequential run's single-fabric totals.
    pub fn merged_stats(&self) -> NetStats {
        let mut total = NetStats {
            sent_by_node: vec![0; self.plan().dims().node_count() as usize],
            delivered_by_node: vec![0; self.plan().dims().node_count() as usize],
            ..Default::default()
        };
        for w in &self.worlds {
            total.merge(&w.fabric.stats);
        }
        total
    }

    /// All recorded flight events, merged across shards into one
    /// chronological stream: a stable k-way merge keyed on
    /// `(event time, shard index)`, so the result is deterministic and
    /// respects both time order and (within a timestamp) a fixed shard
    /// order. Requires [`ParSimulation::attach_flight_recorders`].
    pub fn merged_flight_events(&self) -> Vec<FlightEvent> {
        let per_shard: Vec<Vec<FlightEvent>> = self
            .worlds
            .iter()
            .map(|w| {
                w.fabric
                    .flight_recorder()
                    .map(|r| r.events().cloned().collect())
                    .unwrap_or_default()
            })
            .collect();
        merge_flight_events(per_shard)
    }

    /// The per-shard streaming summaries merged in deterministic shard
    /// order — cross-shard partial lifecycles are joined and the result
    /// is finalized, so it is bit-identical to a sequential run's
    /// finalized summary. `None` unless
    /// [`ParSimulation::attach_stream_observers`] was called.
    pub fn merged_stream_summary(&self) -> Option<StreamSummary> {
        let mut acc: Option<StreamSummary> = None;
        for w in &self.worlds {
            let s = w.fabric.stream_summary()?;
            match &mut acc {
                None => acc = Some(s),
                Some(a) => a.merge(&s),
            }
        }
        let mut merged = acc?;
        merged.finalize();
        Some(merged)
    }

    /// Combined footprint of the per-shard stream observers (peaks are
    /// max'd, final live bytes add). `None` unless observers are
    /// attached.
    pub fn stream_footprint(&self) -> Option<StreamFootprint> {
        let mut acc = StreamFootprint::default();
        for w in &self.worlds {
            acc.combine(&w.fabric.stream_observer()?.footprint());
        }
        Some(acc)
    }

    /// Still-pending counter watches across all shards, in node order
    /// (watches only ever exist on a node's owning replica).
    pub fn stuck_watches(&self) -> Vec<StuckWatch> {
        let mut out: Vec<StuckWatch> = self
            .worlds
            .iter()
            .flat_map(|w| w.fabric.stuck_watches())
            .map(|(node, client, counter, target, current)| StuckWatch {
                node,
                client,
                counter,
                target,
                current,
            })
            .collect();
        out.sort_by_key(|s| (s.node.index(), s.client.index(), s.counter.0));
        out
    }

    /// Watchdog reports concatenated in shard order.
    pub fn merged_watchdog_reports(&self) -> Vec<crate::fault::WatchdogReport> {
        self.worlds
            .iter()
            .flat_map(|w| w.fabric.watchdog_reports().iter().cloned())
            .collect()
    }

    /// Recovery counters summed across shard replicas (each verdict,
    /// reinjection, and suppression executes on exactly one replica, so
    /// the sum equals the sequential run's totals).
    pub fn merged_recovery_stats(&self) -> crate::recovery::RecoveryStats {
        let mut total = crate::recovery::RecoveryStats::default();
        for w in &self.worlds {
            total.merge(w.fabric.recovery_stats());
        }
        total
    }
}

/// Stable k-way merge of per-shard flight-event streams by
/// `(time, shard)`. Each shard's stream is already time-ordered (the
/// recorder appends in that shard's execution order), so a linear merge
/// suffices.
pub fn merge_flight_events(per_shard: Vec<Vec<FlightEvent>>) -> Vec<FlightEvent> {
    let total: usize = per_shard.iter().map(|v| v.len()).sum();
    let mut iters: Vec<std::iter::Peekable<std::vec::IntoIter<FlightEvent>>> = per_shard
        .into_iter()
        .map(|v| v.into_iter().peekable())
        .collect();
    let mut out = Vec::with_capacity(total);
    loop {
        let mut best: Option<(SimTime, usize)> = None;
        for (s, it) in iters.iter_mut().enumerate() {
            if let Some(ev) = it.peek() {
                let key = (ev.at(), s);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        match best {
            Some((_, s)) => out.push(iters[s].next().expect("peeked")),
            None => break,
        }
    }
    out
}

// Compile-time guarantee: shard worlds can cross thread boundaries.
fn _assert_send<T: Send>() {}
#[allow(dead_code)]
fn _shard_world_is_send<P: NodeProgram + Send>() {
    _assert_send::<NodeShardWorld<P>>();
    let _ = _assert_send::<SimWorld<P>>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_env_count_accepts_positive_integers() {
        assert_eq!(parse_env_count(None), Ok(None));
        assert_eq!(parse_env_count(Some("1")), Ok(Some(1)));
        assert_eq!(parse_env_count(Some("8")), Ok(Some(8)));
        assert_eq!(parse_env_count(Some(" 16 ")), Ok(Some(16)));
    }

    #[test]
    fn parse_env_count_rejects_zero_and_garbage() {
        assert_eq!(parse_env_count(Some("0")), Err("0".to_owned()));
        assert_eq!(parse_env_count(Some("abc")), Err("abc".to_owned()));
        assert_eq!(parse_env_count(Some("-3")), Err("-3".to_owned()));
        assert_eq!(parse_env_count(Some("4.5")), Err("4.5".to_owned()));
        assert_eq!(parse_env_count(Some("")), Err("".to_owned()));
    }

    #[test]
    fn resolve_count_falls_back_and_warns_once() {
        let warned = AtomicBool::new(false);
        // Valid: used as-is, no warning flagged.
        assert_eq!(resolve_count("T", Some("3"), 1, &warned), 3);
        assert!(!warned.load(Ordering::Relaxed));
        // Unset: fallback, still no warning.
        assert_eq!(resolve_count("T", None, 7, &warned), 7);
        assert!(!warned.load(Ordering::Relaxed));
        // Invalid: fallback, warning flag trips exactly once.
        assert_eq!(resolve_count("T", Some("0"), 7, &warned), 7);
        assert!(warned.load(Ordering::Relaxed));
        assert_eq!(resolve_count("T", Some("junk"), 7, &warned), 7);
        assert!(warned.load(Ordering::Relaxed));
    }

    #[test]
    fn lookahead_mode_parses_aliases_case_insensitively() {
        for (s, want) in [
            ("adaptive", LookaheadMode::Adaptive),
            ("matrix", LookaheadMode::Adaptive),
            (" Adaptive ", LookaheadMode::Adaptive),
            ("global", LookaheadMode::Global),
            ("uniform", LookaheadMode::Global),
            ("GLOBAL", LookaheadMode::Global),
        ] {
            assert_eq!(parse_lookahead_mode(s), Some(want), "{s:?}");
        }
        for s in ["", "adaptve", "1", "on"] {
            assert_eq!(parse_lookahead_mode(s), None, "{s:?}");
        }
    }

    #[test]
    fn slab_ring_distance_wraps() {
        let plan = ShardPlan::new(TorusDims::new(4, 4, 8), 8);
        assert_eq!(plan.shard_count(), 8);
        assert_eq!(plan.slab_ring_distance(0, 0), 0);
        assert_eq!(plan.slab_ring_distance(0, 1), 1);
        assert_eq!(plan.slab_ring_distance(0, 7), 1); // torus wrap
        assert_eq!(plan.slab_ring_distance(0, 4), 4);
        assert_eq!(plan.slab_ring_distance(2, 7), 3);
        assert_eq!(plan.slab_ring_distance(7, 2), 3);
    }

    /// The 8×8×8 default plan's matrix: adjacent slabs at the 54 ns
    /// per-axis hop bound, everything else unreachable directly; the
    /// closure composes distance — opposite slabs get 4×54 ns.
    #[test]
    fn default_plan_matrix_is_ring_distance_times_hop() {
        let dims = TorusDims::new(8, 8, 8);
        let plan = ShardPlan::new(dims, 8);
        let t = Timing::default();
        let m = plan.lookahead_matrix(&t);
        assert_eq!(m.shards(), 8);
        let hop = t.min_hop_delay(plan.axis());
        assert_eq!(hop, SimDuration::from_ns(54));
        for a in 0..8 {
            for b in 0..8 {
                if a == b {
                    continue;
                }
                match plan.slab_ring_distance(a, b) {
                    1 => assert_eq!(m.direct(a, b), Some(hop), "{a}->{b}"),
                    _ => assert_eq!(m.direct(a, b), None, "{a}->{b}"),
                }
            }
        }
        let dist = m.closure_ps();
        for a in 0..8 {
            for b in 0..8 {
                let want = plan.slab_ring_distance(a, b) as u64 * hop.0;
                assert_eq!(dist[a * 8 + b], want, "{a}->{b}");
            }
        }
        // Every finite bound dominates the global floor the engine
        // validates against.
        assert!(m.min_direct().unwrap() >= t.conservative_lookahead());
    }

    /// A 2-slab plan is a degenerate ring: both directions adjacent, and
    /// the matrix adds nothing over the global bound (adaptive still
    /// helps via self-exclusion and drain extension, not distance).
    #[test]
    fn two_slab_matrix_matches_global_bound() {
        let dims = TorusDims::new(4, 4, 4);
        let plan = ShardPlan::new(dims, 2);
        let t = Timing::default();
        let m = plan.lookahead_matrix(&t);
        assert_eq!(m.direct(0, 1), Some(t.min_hop_delay(plan.axis())));
        assert_eq!(m.direct(1, 0), Some(t.min_hop_delay(plan.axis())));
    }

    #[test]
    fn obs_mode_parses_every_alias_case_insensitively() {
        for (s, want) in [
            ("off", ObsMode::Off),
            ("none", ObsMode::Off),
            ("OFF", ObsMode::Off),
            ("flight", ObsMode::Flight),
            ("full", ObsMode::Flight),
            ("stream", ObsMode::Stream),
            ("streaming", ObsMode::Stream),
            ("bounded", ObsMode::Stream),
            (" Stream ", ObsMode::Stream),
        ] {
            assert_eq!(ObsMode::parse_str(s), Some(want), "{s:?}");
        }
        for s in ["", "fligth", "2", "on"] {
            assert_eq!(ObsMode::parse_str(s), None, "{s:?}");
        }
    }
}
