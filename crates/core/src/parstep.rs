//! An MD time-step skeleton that runs on any shard plan.
//!
//! The full per-node MD program ([`MdNode`](crate::program::MdNode))
//! shares one `MachineState` across all nodes, which pins it to one
//! slab. This module distills the *shape* of an MD step that matters for
//! parallel-engine benchmarking — the position-export / force-return
//! neighbor exchange of Figure 2, with its counted remote writes and
//! per-step compute phase — into a self-contained program whose only
//! state is per-node, so it runs unchanged (and bit-identically) on every
//! shard plan of [`ParSimulation`](anton_net::ParSimulation).
//!
//! Per step, every node:
//!
//! 1. multicasts nothing — it sends one counted remote write to each of
//!    its six torus neighbors (±x, ±y, ±z), carrying a position payload;
//! 2. waits on a synchronization counter for the six inbound writes
//!    (communication–synchronization fusion, §IV.A);
//! 3. folds the received values and models the pairwise-force compute
//!    time on the Tensilica cores;
//! 4. starts the next step.
//!
//! All payload values are pure functions of `(node, step, direction)`,
//! so every run — any shard plan, any thread count — produces identical
//! folds and identical completion times.

use anton_des::{LookaheadMode, ParProfile, SimDuration, SimTime};
use anton_net::{
    drive, ClientAddr, ClientKind, CounterId, Ctx, Fabric, FaultPlan, NetStats, NodeProgram,
    ObsMode, Observed, Packet, Payload, ProgEvent, RunConfig, StallReport, Timing,
};
use anton_obs::{FlightEvent, StreamConfig, StreamSummary};
use anton_topo::{Dim, NodeId, TorusDims};

/// Counter the six neighbor writes of each step land on.
const C_EXCH: CounterId = CounterId(30);
/// Receive-buffer base address; one slot per inbound direction.
const A_EXCH: u64 = 0x0600_0000;
const A_DIR_STRIDE: u64 = 0x100;

/// Workload parameters for the exchange skeleton.
#[derive(Debug, Clone, Copy)]
pub struct MdExchangeParams {
    /// Number of simulated time steps.
    pub steps: u32,
    /// f64 values per neighbor message (32 B = 4 values matches the
    /// paper's fine-grained message regime).
    pub values_per_msg: usize,
    /// Modeled per-step force-computation time, ns.
    pub compute_ns: f64,
    /// Extra compute per unit of the node's Z coordinate, ns — a
    /// deterministic stand-in for spatial load imbalance (real MD boxes
    /// have denser and sparser regions). Nonzero skew staggers the
    /// per-slab event streams, which is exactly the regime where the
    /// parallel engine's adaptive per-pair lookahead recovers windows a
    /// uniform global bound would force; 0 (the default) keeps every
    /// node identical. Simulated results stay bit-identical across
    /// engines and modes either way.
    pub compute_skew_ns: f64,
}

impl Default for MdExchangeParams {
    fn default() -> Self {
        MdExchangeParams {
            steps: 10,
            values_per_msg: 4,
            compute_ns: 250.0,
            compute_skew_ns: 0.0,
        }
    }
}

/// Result of an exchange run.
#[derive(Debug, Clone)]
pub struct MdExchangeOutcome {
    /// Time at which the last node finished its last step.
    pub makespan: SimTime,
    /// Per-node checksum of every folded value (order-fixed, so it is
    /// bitwise identical across runs and thread counts).
    pub checksums: Vec<f64>,
    /// Machine-wide fabric statistics.
    pub stats: NetStats,
    /// Total DES events processed.
    pub events: u64,
}

/// The six (dim, direction) neighbor slots in fixed order.
fn directions() -> [(Dim, i32); 6] {
    [
        (Dim::ALL[0], -1),
        (Dim::ALL[0], 1),
        (Dim::ALL[1], -1),
        (Dim::ALL[1], 1),
        (Dim::ALL[2], -1),
        (Dim::ALL[2], 1),
    ]
}

fn neighbor(node: NodeId, dims: TorusDims, dim: Dim, dir: i32) -> NodeId {
    let me = node.coord(dims);
    let n = dims.len(dim);
    let c = (me.get(dim) as i64 + dir as i64).rem_euclid(n as i64) as u32;
    me.with(dim, c).node_id(dims)
}

/// Deterministic stand-in for a position payload.
fn payload_values(node: NodeId, step: u32, slot: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (node.0 as f64) + 0.001 * step as f64 + 0.0001 * (slot * n + i) as f64)
        .collect()
}

/// One node of the exchange skeleton. Plain owned state — `Send`.
pub struct MdExchangeNode {
    params: MdExchangeParams,
    step: u32,
    checksum: f64,
    /// Set when the final step's fold completes.
    pub finished_at: Option<SimTime>,
}

impl MdExchangeNode {
    fn start_step(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let dims = ctx.dims();
        let me = ClientAddr::new(node, ClientKind::Slice(0));
        ctx.watch_counter(me, C_EXCH, 6);
        for (slot, (dim, dir)) in directions().into_iter().enumerate() {
            let peer = neighbor(node, dims, dim, dir);
            // The receiver files us under the *inbound* slot: the packet
            // we send in direction (dim, +1) arrives from its (dim, −1)
            // side, i.e. slot with the direction flipped.
            let inbound = slot ^ 1;
            let vs = payload_values(node, self.step, slot, self.params.values_per_msg);
            let pkt = Packet::write(
                me,
                ClientAddr::new(peer, ClientKind::Slice(0)),
                A_EXCH + inbound as u64 * A_DIR_STRIDE,
                Payload::F64s(vs),
            )
            .with_payload_bytes((self.params.values_per_msg * 8) as u32)
            .with_counter(C_EXCH);
            ctx.send(pkt);
        }
    }

    fn finish_step(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let me = ClientAddr::new(node, ClientKind::Slice(0));
        // Fold inbound contributions in fixed slot order.
        for slot in 0..6 {
            match ctx.mem_take(me, A_EXCH + slot as u64 * A_DIR_STRIDE) {
                Some(Payload::F64s(vs)) => {
                    for v in vs {
                        self.checksum += v;
                    }
                }
                other => panic!("missing neighbor write in slot {slot}: {other:?}"),
            }
        }
        ctx.reset_counter(me, C_EXCH);
        let z = node.coord(ctx.dims()).get(Dim::ALL[2]) as f64;
        let cost =
            SimDuration::from_ns_f64(self.params.compute_ns + self.params.compute_skew_ns * z);
        ctx.set_timer(node, ClientKind::Slice(0), cost, self.step as u64);
    }
}

impl NodeProgram for MdExchangeNode {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => self.start_step(node, ctx),
            ProgEvent::CounterReached { .. } => self.finish_step(node, ctx),
            ProgEvent::Timer { .. } => {
                self.step += 1;
                if self.step < self.params.steps {
                    self.start_step(node, ctx);
                } else {
                    self.finished_at = Some(ctx.now());
                }
            }
            ProgEvent::FifoMessage { .. } => {
                unreachable!("exchange skeleton uses no FIFO traffic")
            }
        }
    }
}

fn make_node(params: MdExchangeParams) -> impl FnMut(NodeId) -> MdExchangeNode {
    move |_| MdExchangeNode {
        params,
        step: 0,
        checksum: 0.0,
        finished_at: None,
    }
}

/// Run the exchange workload on the shard plan and thread count `cfg`
/// names, under its observer. The simulated outcome is bit-identical
/// across shard plans, thread counts, window modes and observers; only
/// host time and the DES event count (one `Start` per slab) differ.
pub fn md_exchange(
    dims: TorusDims,
    params: MdExchangeParams,
    cfg: &RunConfig,
) -> Result<(MdExchangeOutcome, Observed), Box<StallReport>> {
    let done = drive(
        cfg,
        |timing| Fabric::with_faults(dims, timing.clone(), FaultPlan::none()),
        make_node(params),
        1_000_000_000,
    )?;
    let mut makespan = SimTime::ZERO;
    let mut checksums = Vec::with_capacity(done.programs.len());
    for p in &done.programs {
        makespan = makespan.max(p.finished_at.expect("a completed run finishes every node"));
        checksums.push(p.checksum);
    }
    let out = MdExchangeOutcome {
        makespan,
        checksums,
        stats: done.stats,
        events: done.events,
    };
    Ok((out, done.observed))
}

fn stalled<T>(stall: Box<StallReport>) -> T {
    panic!("exchange workload stalled:\n{stall}")
}

// The fixed-signature entry points below are what the host-time
// benchmark (`benchmark/`) links against; each is one configuration of
// `md_exchange`.

/// [`md_exchange`] on one slab.
pub fn run_md_exchange(dims: TorusDims, params: MdExchangeParams) -> MdExchangeOutcome {
    md_exchange(dims, params, &RunConfig::default())
        .unwrap_or_else(stalled)
        .0
}

/// [`md_exchange`] on one slab under `timing`.
pub fn run_md_exchange_timed(
    dims: TorusDims,
    params: MdExchangeParams,
    timing: Timing,
) -> MdExchangeOutcome {
    md_exchange(
        dims,
        params,
        &RunConfig {
            timing,
            ..RunConfig::default()
        },
    )
    .unwrap_or_else(stalled)
    .0
}

/// [`md_exchange`] on one slab with a flight recorder.
pub fn run_md_exchange_recorded(
    dims: TorusDims,
    params: MdExchangeParams,
) -> (MdExchangeOutcome, Vec<FlightEvent>) {
    md_exchange(
        dims,
        params,
        &RunConfig {
            obs: ObsMode::Flight,
            ..RunConfig::default()
        },
    )
    .map(|(out, obs)| (out, obs.flight.expect("flight recorded")))
    .unwrap_or_else(stalled)
}

/// [`md_exchange`] on the auto plan under the stream observer, which
/// has no settings: `_cfg` is the fieldless [`StreamConfig`].
pub fn run_md_exchange_streamed_par_timed(
    dims: TorusDims,
    params: MdExchangeParams,
    threads: usize,
    _cfg: StreamConfig,
    timing: Timing,
) -> (MdExchangeOutcome, StreamSummary) {
    md_exchange(
        dims,
        params,
        &RunConfig {
            timing,
            obs: ObsMode::Stream,
            ..RunConfig::sharded(threads)
        },
    )
    .map(|(out, obs)| (out, obs.stream.expect("stream observed").0))
    .unwrap_or_else(stalled)
}

/// [`md_exchange`] on the auto plan with window-bound mode `mode`.
pub fn run_md_exchange_par_mode(
    dims: TorusDims,
    params: MdExchangeParams,
    threads: usize,
    mode: LookaheadMode,
) -> MdExchangeOutcome {
    md_exchange(
        dims,
        params,
        &RunConfig {
            lookahead: mode,
            ..RunConfig::sharded(threads)
        },
    )
    .unwrap_or_else(stalled)
    .0
}

/// [`md_exchange`] on the auto plan with window-bound mode `mode` under
/// `timing`, profiled.
pub fn run_md_exchange_par_mode_profiled_timed(
    dims: TorusDims,
    params: MdExchangeParams,
    threads: usize,
    mode: LookaheadMode,
    timing: Timing,
) -> (MdExchangeOutcome, ParProfile) {
    md_exchange(
        dims,
        params,
        &RunConfig {
            timing,
            lookahead: mode,
            profile: true,
            ..RunConfig::sharded(threads)
        },
    )
    .map(|(out, obs)| (out, obs.profile.expect("profiled")))
    .unwrap_or_else(stalled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(dims: TorusDims, params: MdExchangeParams, cfg: RunConfig) -> MdExchangeOutcome {
        md_exchange(dims, params, &cfg)
            .expect("exchange completes")
            .0
    }

    fn profiled(
        dims: TorusDims,
        params: MdExchangeParams,
        threads: usize,
        lookahead: LookaheadMode,
    ) -> (MdExchangeOutcome, ParProfile) {
        let cfg = RunConfig {
            lookahead,
            profile: true,
            ..RunConfig::sharded(threads)
        };
        let (out, obs) = md_exchange(dims, params, &cfg).expect("exchange completes");
        (out, obs.profile.expect("profiled"))
    }

    #[test]
    fn checksums_match_the_analytic_fold() {
        // Every node receives, per step, the six slot payloads its
        // neighbors emitted; totals are a pure function of the schedule.
        let dims = TorusDims::new(2, 2, 2);
        let params = MdExchangeParams {
            steps: 2,
            values_per_msg: 2,
            compute_ns: 100.0,
            compute_skew_ns: 0.0,
        };
        let out = run(dims, params, RunConfig::default());
        let mut want = vec![0.0f64; dims.node_count() as usize];
        for step in 0..params.steps {
            for node in 0..dims.node_count() {
                for (slot, (dim, dir)) in directions().into_iter().enumerate() {
                    let peer = neighbor(NodeId(node), dims, dim, dir);
                    for v in payload_values(peer, step, slot ^ 1, params.values_per_msg) {
                        want[node as usize] += v;
                    }
                }
            }
        }
        for (got, want) in out.checksums.iter().zip(&want) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn adaptive_and_global_windows_agree_and_adaptive_never_needs_more() {
        let dims = TorusDims::new(4, 4, 4);
        let params = MdExchangeParams {
            steps: 3,
            ..Default::default()
        };
        let seq = run(dims, params, RunConfig::default());
        let (glob, pg) = profiled(dims, params, 2, LookaheadMode::Global);
        let (adap, pa) = profiled(dims, params, 2, LookaheadMode::Adaptive);
        // Same simulated machine in all three executions.
        assert_eq!(glob.makespan, seq.makespan);
        assert_eq!(adap.makespan, seq.makespan);
        assert_eq!(adap.checksums, glob.checksums);
        assert_eq!(adap.checksums, seq.checksums);
        assert_eq!(adap.events, glob.events);
        // Adaptive windows are never narrower than global ones, and the
        // recovered-events accounting is zero by construction under the
        // global bound.
        assert!(pa.windows <= pg.windows, "{} vs {}", pa.windows, pg.windows);
        assert_eq!(pg.recovered_events, 0);
        assert_eq!(pg.extended_shard_windows, 0);
        // Window counts (and recovered accounting) are thread-invariant.
        let (_, pa4) = profiled(dims, params, 4, LookaheadMode::Adaptive);
        assert_eq!(pa4.windows, pa.windows);
        assert_eq!(pa4.recovered_events, pa.recovered_events);
        assert_eq!(pa4.extended_shard_windows, pa.extended_shard_windows);
    }

    /// With spatial load imbalance (per-slab compute skew) the shard
    /// event streams stagger, and the adaptive per-pair bounds genuinely
    /// widen windows past the uniform global bound — while the simulated
    /// outcome stays bit-identical to one slab.
    #[test]
    fn compute_skew_lets_adaptive_windows_recover_events() {
        let dims = TorusDims::new(4, 4, 4);
        let params = MdExchangeParams {
            steps: 3,
            compute_skew_ns: 60.0,
            ..Default::default()
        };
        let seq = run(dims, params, RunConfig::default());
        let (glob, pg) = profiled(dims, params, 2, LookaheadMode::Global);
        let (adap, pa) = profiled(dims, params, 2, LookaheadMode::Adaptive);
        assert_eq!(glob.makespan, seq.makespan);
        assert_eq!(adap.makespan, seq.makespan);
        assert_eq!(adap.checksums, seq.checksums);
        assert_eq!(adap.events, glob.events);
        assert!(
            pa.windows < pg.windows,
            "skewed workload should need fewer adaptive windows ({} vs {})",
            pa.windows,
            pg.windows
        );
        assert!(pa.recovered_events > 0);
        assert!(pa.extended_shard_windows > 0);
        assert_eq!(pg.recovered_events, 0);
    }

    #[test]
    fn makespan_scales_with_steps() {
        let dims = TorusDims::new(2, 2, 2);
        let steps = |steps| MdExchangeParams {
            steps,
            ..Default::default()
        };
        let one = run(dims, steps(1), RunConfig::default());
        let five = run(dims, steps(5), RunConfig::default());
        assert!(five.makespan > one.makespan);
    }
}
