//! Self-healing all-reduce: a reduction that survives node deaths.
//!
//! The dimension-ordered collective of [`allreduce`](crate::allreduce)
//! is the paper's latency-optimal algorithm, but it has no answer to a
//! node dying mid-collective: a missing counted write stalls every
//! watcher forever. This module trades a few microseconds of latency
//! for fault tolerance: a binary reduction tree whose nodes *escalate*
//! unacknowledged contributions past dead ancestors, so the collective
//! completes with the correct sum over every surviving node even when
//! machines drop out mid-flight.
//!
//! ## Protocol
//!
//! Nodes form a binary heap tree over node ids (parent of `i` is
//! `(i−1)/2`; node 0 is the root and must not die). Every message is a
//! FIFO packet carrying a set of `(origin, value)` *entries*; folding
//! is insert-if-absent per origin, which makes every message idempotent
//! and reordering-proof — exactly-once effect over an at-least-once
//! transport, with no acks at all.
//!
//! - **Contribute.** Leaves send their entry to their parent at start.
//!   Interior nodes forward their collected entries up when their
//!   subtree is complete, or at a depth-staggered gather deadline if
//!   contributions are missing.
//! - **Escalate.** Until a node holds the final result it re-sends its
//!   entries on a fixed-period tick, each attempt targeting an ancestor
//!   one level higher than the last — attempt `k` goes
//!   `min(1 + k, depth)` levels up, so a node whose whole ancestor
//!   chain died reaches the (immortal) root directly within `depth`
//!   ticks. Runtime fault recovery on the fabric guarantees delivery to
//!   any live target, so escalation always terminates.
//! - **Finalize.** The root sums entries in origin-id order (every run
//!   folds in the same order, so the float sum is bit-stable) once all
//!   nodes contributed or at a fixed deadline, then pushes the result
//!   to its children and everyone who contributed directly to it. Done
//!   nodes answer any late contribution with the result, so stragglers
//!   whose ancestors died still learn the outcome.
//!
//! ## Degraded-latency bound
//!
//! With gather period `G`, escalation period `A`, and tree height `H`,
//! the root finalizes no later than `T_fin = G·(H+2) + A·(H+6)`, and a
//! live node's next escalation after `T_fin` reaches a done node (the
//! root at worst) and is answered immediately; so every live node holds
//! the result by `T_fin + A + 2·L`, where `L` bounds one recovered
//! message delivery (worst-case reroute: heartbeat timeout + the full
//! backoff ladder + one cross-machine transit — single-digit
//! microseconds at default settings). The chaos campaign asserts this
//! bound on every run.

use crate::allreduce::AllReduceOutcome;
use anton_des::{SimDuration, SimTime};
use anton_net::{
    drive, ClientAddr, ClientKind, Ctx, Fabric, FaultPlan, NetStats, NodeProgram, Observed, Packet,
    Payload, ProgEvent, RecoveryConfig, RecoveryStats, RunConfig, StallReport, Timing,
    MAX_PAYLOAD_BYTES,
};
use anton_topo::{NodeId, TorusDims};
use std::collections::{BTreeMap, BTreeSet};

/// Timer tag: escalation tick.
const TAG_TICK: u64 = 1;
/// Timer tag: the root's finalize deadline.
const TAG_FIN: u64 = 2;
/// Packet tag: a contribution carrying `(origin, value)` entries.
const MSG_CONTRIB: u64 = 0xC0;
/// Packet tag: the final result.
const MSG_RESULT: u64 = 0xFE;

/// Tuning constants of the recovering collective.
#[derive(Debug, Clone, Copy)]
pub struct RecoveringParams {
    /// Gather period `G`: how long an interior node one level above the
    /// leaves waits for missing children before forwarding what it has
    /// (deadlines stagger by depth so lower levels fire first).
    pub gather_ns: f64,
    /// Escalation period `A`: the re-send tick of every unfinished node.
    pub escalate_ns: f64,
}

impl Default for RecoveringParams {
    fn default() -> Self {
        RecoveringParams {
            gather_ns: 1_000.0,
            escalate_ns: 2_000.0,
        }
    }
}

impl RecoveringParams {
    /// The root's finalize deadline for a tree of height `h`:
    /// `G·(H+2) + A·(H+6)` (see the module docs for the derivation).
    pub fn finalize_deadline(&self, h: u32) -> SimDuration {
        SimDuration::from_ns_f64(
            self.gather_ns * (h as f64 + 2.0) + self.escalate_ns * (h as f64 + 6.0),
        )
    }

    /// The documented completion bound for live nodes: finalize deadline
    /// plus one escalation period plus `2·L` of recovered transit, with
    /// `L` conservatively taken as 5 µs.
    pub fn completion_bound(&self, h: u32) -> SimDuration {
        self.finalize_deadline(h)
            + SimDuration::from_ns_f64(self.escalate_ns)
            + SimDuration::from_ns_f64(10_000.0)
    }
}

/// Result of a recovering all-reduce.
#[derive(Debug, Clone)]
pub struct RecoveringOutcome {
    /// Time until the last *live* node held the result.
    pub latency: SimDuration,
    /// Per-node final values; `None` for nodes that died (or, if the
    /// bound is violated, never learned the result).
    pub results: Vec<Option<Vec<f64>>>,
    /// Origins included in the root's final sum, ascending.
    pub contributors: Vec<u32>,
    /// The node deaths the run was configured with.
    pub deaths: Vec<(NodeId, SimTime)>,
    /// Machine-wide fabric statistics.
    pub stats: NetStats,
    /// Machine-wide recovery counters.
    pub recovery: RecoveryStats,
    /// Failure verdicts reached during the run.
    pub verdicts: usize,
    /// Whether the simulation drained. Always `true`: a run that wedges
    /// comes back as a stall report instead. Kept because
    /// [`RecoveringOutcome::fingerprint`] covers it.
    pub completed: bool,
}

impl RecoveringOutcome {
    /// A 64-bit fingerprint over every simulated field, for bit-identity
    /// assertions across thread counts and replays. (f64 `Debug` output
    /// round-trips exactly, so equal fingerprints mean bit-equal runs.)
    pub fn fingerprint(&self) -> u64 {
        let text = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}",
            self.latency,
            self.results,
            self.contributors,
            self.deaths,
            self.stats,
            self.recovery,
            self.verdicts,
            self.completed
        );
        // FNV-1a; stable and dependency-free.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Project onto the plain [`AllReduceOutcome`] shape (live results
    /// only), for harnesses comparing against the fault-free collective.
    pub fn as_all_reduce(&self) -> AllReduceOutcome {
        AllReduceOutcome {
            latency: self.latency,
            results: self.results.iter().flatten().cloned().collect(),
            packets_sent: self.stats.packets_sent,
            link_traversals: self.stats.link_traversals,
        }
    }
}

fn depth_of(i: u32) -> u32 {
    (i + 1).ilog2()
}

fn tree_height(n: u32) -> u32 {
    n.ilog2()
}

fn ancestor(i: u32, levels: u32) -> u32 {
    let mut a = i;
    for _ in 0..levels {
        if a == 0 {
            break;
        }
        a = (a - 1) / 2;
    }
    a
}

struct RecoveringNode {
    n: u32,
    height: u32,
    vlen: usize,
    params: RecoveringParams,
    /// When this node dies, if ever: its software halts at that instant.
    death: Option<SimTime>,
    /// Collected `(origin, value)` entries, own entry included.
    entries: BTreeMap<u32, Vec<f64>>,
    /// Nodes that contributed *directly* to us — the result fan-out set.
    senders: BTreeSet<u32>,
    /// Escalation attempts made so far.
    attempt: u32,
    /// Fast path: whether the complete subtree was already pushed up.
    subtree_sent: bool,
    result: Option<Vec<f64>>,
    done_at: Option<SimTime>,
    /// Root only: the origins summed into the final result.
    contributors: Vec<u32>,
}

impl RecoveringNode {
    fn dead(&self, now: SimTime) -> bool {
        self.death.is_some_and(|d| now >= d)
    }

    fn me(&self, node: NodeId) -> ClientAddr {
        ClientAddr::new(node, ClientKind::Slice(0))
    }

    /// Flatten `entries` into `[origin, v0..v_{V-1}]*` chunks under the
    /// 256-byte packet cap and FIFO them to `target`.
    fn send_contrib(&self, node: NodeId, target: u32, ctx: &mut Ctx<'_, '_>) {
        if target == node.0 {
            return;
        }
        let per = ((MAX_PAYLOAD_BYTES as usize / 8) / (self.vlen + 1)).max(1);
        let mut flat: Vec<f64> = Vec::with_capacity(per * (self.vlen + 1));
        let flush = |flat: &mut Vec<f64>, ctx: &mut Ctx<'_, '_>| {
            if flat.is_empty() {
                return;
            }
            let pkt = Packet::fifo(
                self.me(node),
                ClientAddr::new(NodeId(target), ClientKind::Slice(0)),
                Payload::F64s(std::mem::take(flat)),
            )
            .with_tag(MSG_CONTRIB);
            ctx.send(pkt);
        };
        for (&origin, v) in &self.entries {
            flat.push(origin as f64);
            flat.extend_from_slice(v);
            if flat.len() / (self.vlen + 1) >= per {
                flush(&mut flat, ctx);
            }
        }
        flush(&mut flat, ctx);
    }

    fn send_result(&self, node: NodeId, target: u32, ctx: &mut Ctx<'_, '_>) {
        if target == node.0 {
            return;
        }
        let vs = self.result.as_ref().expect("result known").clone();
        let pkt = Packet::fifo(
            self.me(node),
            ClientAddr::new(NodeId(target), ClientKind::Slice(0)),
            Payload::F64s(vs),
        )
        .with_tag(MSG_RESULT);
        ctx.send(pkt);
    }

    /// Whether every node in `i`'s heap subtree has contributed.
    fn subtree_complete(&self, i: u32) -> bool {
        let mut stack = vec![i];
        while let Some(j) = stack.pop() {
            if !self.entries.contains_key(&j) {
                return false;
            }
            for c in [2 * j + 1, 2 * j + 2] {
                if c < self.n {
                    stack.push(c);
                }
            }
        }
        true
    }

    fn become_done(&mut self, node: NodeId, values: Vec<f64>, ctx: &mut Ctx<'_, '_>) {
        if self.done_at.is_some() {
            return;
        }
        self.result = Some(values);
        self.done_at = Some(ctx.now());
        // Fan the result out: direct contributors plus tree children
        // (the senders set covers escalated orphans; children cover the
        // quiet fault-free path).
        let mut targets = self.senders.clone();
        for c in [2 * node.0 + 1, 2 * node.0 + 2] {
            if c < self.n {
                targets.insert(c);
            }
        }
        for t in targets {
            self.send_result(node, t, ctx);
        }
    }

    fn finalize_root(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        if self.done_at.is_some() {
            return;
        }
        let mut sum = vec![0.0f64; self.vlen];
        for v in self.entries.values() {
            for (s, x) in sum.iter_mut().zip(v) {
                *s += x;
            }
        }
        self.contributors = self.entries.keys().copied().collect();
        self.become_done(node, sum, ctx);
    }

    fn arm_tick(&self, node: NodeId, delay_ns: f64, ctx: &mut Ctx<'_, '_>) {
        ctx.set_timer(
            node,
            ClientKind::Slice(0),
            SimDuration::from_ns_f64(delay_ns),
            TAG_TICK,
        );
    }

    fn on_tick(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        if self.done_at.is_some() || node.0 == 0 {
            return;
        }
        let depth = depth_of(node.0);
        let levels = (1 + self.attempt).min(depth);
        let target = ancestor(node.0, levels);
        self.send_contrib(node, target, ctx);
        self.attempt += 1;
        self.arm_tick(node, self.params.escalate_ns, ctx);
    }

    fn fold_contrib(&mut self, node: NodeId, pkt: &Packet, ctx: &mut Ctx<'_, '_>) {
        self.senders.insert(pkt.src.node.0);
        if self.done_at.is_some() {
            // A straggler that missed the fan-out: answer directly.
            self.send_result(node, pkt.src.node.0, ctx);
            return;
        }
        let Payload::F64s(flat) = &pkt.payload else {
            panic!("contribution payload must be F64s");
        };
        let stride = self.vlen + 1;
        assert_eq!(flat.len() % stride, 0, "malformed contribution chunk");
        for entry in flat.chunks(stride) {
            let origin = entry[0] as u32;
            self.entries
                .entry(origin)
                .or_insert_with(|| entry[1..].to_vec());
        }
        if node.0 == 0 {
            if self.entries.len() as u32 == self.n {
                self.finalize_root(node, ctx);
            }
        } else if !self.subtree_sent && self.subtree_complete(node.0) {
            // Fast path: a complete subtree climbs at network speed
            // instead of waiting out the gather deadline.
            self.subtree_sent = true;
            self.send_contrib(node, ancestor(node.0, 1), ctx);
        }
    }
}

impl NodeProgram for RecoveringNode {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        // A dead node's cores halt: pending timers and in-flight
        // deliveries landing after the death time are void.
        if self.dead(ctx.now()) {
            return;
        }
        match pe {
            ProgEvent::Start => {
                if node.0 == 0 {
                    if self.n == 1 {
                        self.finalize_root(node, ctx);
                        return;
                    }
                    ctx.set_timer(
                        node,
                        ClientKind::Slice(0),
                        self.params.finalize_deadline(self.height),
                        TAG_FIN,
                    );
                    return;
                }
                let depth = depth_of(node.0);
                let leaf = 2 * node.0 + 1 >= self.n;
                if leaf {
                    // Leaves contribute immediately; their first tick is
                    // already attempt 1 (one level higher).
                    self.send_contrib(node, ancestor(node.0, 1), ctx);
                    self.attempt = 1;
                    self.arm_tick(node, self.params.escalate_ns, ctx);
                } else {
                    // Interior nodes gather first; deadlines stagger by
                    // depth so lower levels flush before upper ones.
                    let wait = self.params.gather_ns * (self.height - depth) as f64;
                    self.arm_tick(node, wait.max(self.params.gather_ns), ctx);
                }
            }
            ProgEvent::Timer { tag: TAG_FIN, .. } => self.finalize_root(node, ctx),
            ProgEvent::Timer { tag: TAG_TICK, .. } => self.on_tick(node, ctx),
            ProgEvent::Timer { .. } => unreachable!("unknown timer tag"),
            ProgEvent::FifoMessage { pkt, .. } => match pkt.tag {
                MSG_CONTRIB => self.fold_contrib(node, &pkt, ctx),
                MSG_RESULT => {
                    let Payload::F64s(vs) = pkt.payload else {
                        panic!("result payload must be F64s");
                    };
                    self.become_done(node, vs, ctx);
                }
                other => unreachable!("unknown message tag {other:#x}"),
            },
            ProgEvent::CounterReached { .. } => {
                unreachable!("the recovering collective uses no counters")
            }
        }
    }
}

fn death_schedule(dims: TorusDims, deaths: &[(NodeId, SimTime)]) -> Vec<Option<SimTime>> {
    let mut sched = vec![None; dims.node_count() as usize];
    for &(node, at) in deaths {
        assert!(node.0 != 0, "node 0 is the immortal root");
        assert!(node.0 < dims.node_count(), "death of a nonexistent node");
        assert!(at > SimTime::ZERO, "deaths must be mid-collective");
        assert!(sched[node.index()].is_none(), "duplicate death for a node");
        sched[node.index()] = Some(at);
    }
    sched
}

fn make_recovering_programs(
    dims: TorusDims,
    inputs: &[Vec<f64>],
    deaths: &[(NodeId, SimTime)],
    params: RecoveringParams,
) -> impl FnMut(NodeId) -> RecoveringNode {
    let n = dims.node_count();
    assert_eq!(inputs.len(), n as usize, "one input vector per node");
    let vlen = inputs[0].len();
    assert!(inputs.iter().all(|v| v.len() == vlen));
    assert!(
        vlen < MAX_PAYLOAD_BYTES as usize / 8,
        "value vector too large for one packet entry"
    );
    let sched = death_schedule(dims, deaths);
    let inputs = inputs.to_vec();
    move |node| {
        let mut entries = BTreeMap::new();
        entries.insert(node.0, inputs[node.index()].clone());
        RecoveringNode {
            n,
            height: tree_height(n),
            vlen,
            params,
            death: sched[node.index()],
            entries,
            senders: BTreeSet::new(),
            attempt: 0,
            subtree_sent: false,
            result: None,
            done_at: None,
            contributors: Vec::new(),
        }
    }
}

fn build_recovering_fabric(
    dims: TorusDims,
    fault: &FaultPlan,
    deaths: &[(NodeId, SimTime)],
    recovery: RecoveryConfig,
    timing: &Timing,
) -> Fabric {
    let mut plan = fault.clone();
    for &(node, at) in deaths {
        plan = plan.fail_node_at(node.coord(dims), at);
    }
    Fabric::with_recovery(dims, timing.clone(), plan, recovery)
}

/// Run a self-healing all-reduce on the engine `cfg` names: the global
/// sum over `inputs`, robust to the node deaths in `deaths` (node 0 —
/// the tree root — must not die) and to whatever transient faults
/// `fault` injects, recovered by `recovery`. Every live node ends with
/// the identical sum over [`RecoveringOutcome::contributors`], which
/// includes every node that stayed alive. Bit-identical on either
/// engine at any thread count (compare [`RecoveringOutcome::fingerprint`]).
/// A run that does not drain within its event budget — the protocol
/// wedged — comes back as the stall report.
///
/// ```
/// use anton_collectives::{all_reduce_recovering, random_inputs, RecoveringParams};
/// use anton_des::SimTime;
/// use anton_net::{FaultPlan, RecoveryConfig, RunConfig};
/// use anton_topo::{NodeId, TorusDims};
/// let dims = TorusDims::new(2, 2, 2);
/// let inputs = random_inputs(dims, 2, 7);
/// let (out, _) = all_reduce_recovering(
///     dims,
///     &inputs,
///     FaultPlan::none(),
///     &[(NodeId(5), SimTime::from_ns(300))],
///     RecoveryConfig::recovering(7),
///     RecoveringParams::default(),
///     &RunConfig::default(),
/// )
/// .unwrap();
/// // Dead node 5 aside, everyone holds the sum over the contributors.
/// assert_eq!(out.results.iter().filter(|r| r.is_some()).count(), 7);
/// ```
pub fn all_reduce_recovering(
    dims: TorusDims,
    inputs: &[Vec<f64>],
    fault: FaultPlan,
    deaths: &[(NodeId, SimTime)],
    recovery: RecoveryConfig,
    params: RecoveringParams,
    cfg: &RunConfig,
) -> Result<(RecoveringOutcome, Observed), Box<StallReport>> {
    let done = drive(
        cfg,
        |timing| build_recovering_fabric(dims, &fault, deaths, recovery, timing),
        make_recovering_programs(dims, inputs, deaths, params),
        200_000_000,
    )?;
    let mut latency = SimDuration::ZERO;
    let mut results = Vec::with_capacity(done.programs.len());
    for p in &done.programs {
        match (&p.done_at, &p.result, p.death) {
            // A node that died *after* learning the result still counts
            // as completed; one that died first does not.
            (Some(t), Some(v), death) if death.is_none_or(|d| *t < d) => {
                latency = latency.max(*t - SimTime::ZERO);
                results.push(Some(v.clone()));
            }
            _ => results.push(None),
        }
    }
    let out = RecoveringOutcome {
        latency,
        results,
        contributors: done.programs[0].contributors.clone(),
        deaths: deaths.to_vec(),
        stats: done.stats,
        recovery: done.recovery,
        verdicts: done.verdicts,
        completed: true,
    };
    Ok((out, done.observed))
}

fn stalled<T>(stall: Box<StallReport>) -> T {
    panic!("recovering all-reduce stalled:\n{stall}")
}

// The host-time benchmark (`benchmark/`) links against these two
// fixed-signature configurations of `all_reduce_recovering`.

/// [`all_reduce_recovering`] on one slab under `timing`.
#[allow(clippy::too_many_arguments)]
pub fn run_all_reduce_recovering_timed(
    dims: TorusDims,
    inputs: &[Vec<f64>],
    fault: FaultPlan,
    deaths: &[(NodeId, SimTime)],
    recovery: RecoveryConfig,
    params: RecoveringParams,
    timing: Timing,
) -> RecoveringOutcome {
    all_reduce_recovering(
        dims,
        inputs,
        fault,
        deaths,
        recovery,
        params,
        &RunConfig {
            timing,
            ..RunConfig::default()
        },
    )
    .unwrap_or_else(stalled)
    .0
}

/// [`all_reduce_recovering`] on the auto plan under `timing`.
#[allow(clippy::too_many_arguments)]
pub fn run_all_reduce_recovering_par_timed(
    dims: TorusDims,
    inputs: &[Vec<f64>],
    fault: FaultPlan,
    deaths: &[(NodeId, SimTime)],
    recovery: RecoveryConfig,
    params: RecoveringParams,
    threads: usize,
    timing: Timing,
) -> RecoveringOutcome {
    all_reduce_recovering(
        dims,
        inputs,
        fault,
        deaths,
        recovery,
        params,
        &RunConfig {
            timing,
            ..RunConfig::sharded(threads)
        },
    )
    .unwrap_or_else(stalled)
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::random_inputs;

    fn run(
        dims: TorusDims,
        inputs: &[Vec<f64>],
        fault: FaultPlan,
        deaths: &[(NodeId, SimTime)],
        recovery: RecoveryConfig,
        cfg: RunConfig,
    ) -> RecoveringOutcome {
        let params = RecoveringParams::default();
        all_reduce_recovering(dims, inputs, fault, deaths, recovery, params, &cfg)
            .expect("recovering all-reduce completes")
            .0
    }

    fn sum_over(inputs: &[Vec<f64>], origins: &[u32]) -> Vec<f64> {
        let mut out = vec![0.0; inputs[0].len()];
        for &o in origins {
            for (s, x) in out.iter_mut().zip(&inputs[o as usize]) {
                *s += x;
            }
        }
        out
    }

    #[test]
    fn fault_free_run_matches_plain_sum_everywhere() {
        let dims = TorusDims::new(4, 4, 4);
        let inputs = random_inputs(dims, 4, 11);
        let out = run(
            dims,
            &inputs,
            FaultPlan::none(),
            &[],
            RecoveryConfig::recovering(11),
            RunConfig::default(),
        );
        assert!(out.completed);
        assert_eq!(out.contributors, (0..64).collect::<Vec<_>>());
        let want = sum_over(&inputs, &out.contributors);
        for r in &out.results {
            assert_eq!(r.as_ref().expect("all nodes complete"), &want);
        }
        // Fault-free, the fast path climbs at network speed: well under
        // the finalize deadline.
        assert!(out.latency < RecoveringParams::default().finalize_deadline(6));
    }

    #[test]
    fn survives_three_mid_collective_deaths() {
        let dims = TorusDims::new(4, 4, 4);
        let inputs = random_inputs(dims, 4, 13);
        let deaths = [
            (NodeId(1), SimTime::from_ns(200)), // interior: orphans a subtree
            (NodeId(9), SimTime::from_ns(350)),
            (NodeId(40), SimTime::from_ns(100)), // leaf-side early death
        ];
        let out = run(
            dims,
            &inputs,
            FaultPlan::none(),
            &deaths,
            RecoveryConfig::recovering(13),
            RunConfig::default(),
        );
        assert!(out.completed);
        // Every live node finished, within the documented bound.
        for (i, r) in out.results.iter().enumerate() {
            if !deaths.iter().any(|(n, _)| n.index() == i) {
                assert!(r.is_some(), "live node {i} never completed");
            }
        }
        assert!(out.latency <= RecoveringParams::default().completion_bound(6));
        // The sum is exactly the contributor set's, and every live node
        // is in it.
        let want = sum_over(&inputs, &out.contributors);
        for r in out.results.iter().flatten() {
            assert_eq!(r, &want);
        }
        for i in 0..64u32 {
            if !deaths.iter().any(|(n, _)| n.0 == i) {
                assert!(out.contributors.contains(&i), "live node {i} excluded");
            }
        }
        assert!(out.verdicts > 0, "deaths must produce failure verdicts");
    }

    #[test]
    fn deaths_plus_transient_drops_still_complete() {
        let dims = TorusDims::new(2, 2, 2);
        let inputs = random_inputs(dims, 2, 17);
        let deaths = [(NodeId(3), SimTime::from_ns(250))];
        let out = run(
            dims,
            &inputs,
            FaultPlan::seeded(17).with_drop_rate(0.02),
            &deaths,
            RecoveryConfig::recovering(17),
            RunConfig::default(),
        );
        assert!(out.completed);
        let want = sum_over(&inputs, &out.contributors);
        for (i, r) in out.results.iter().enumerate() {
            if i != 3 {
                assert_eq!(r.as_ref().expect("live node completes"), &want);
            }
        }
        for i in [0u32, 1, 2, 4, 5, 6, 7] {
            assert!(out.contributors.contains(&i));
        }
    }

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let dims = TorusDims::new(4, 4, 4);
        let inputs = random_inputs(dims, 4, 19);
        let deaths = [
            (NodeId(5), SimTime::from_ns(300)),
            (NodeId(22), SimTime::from_ns(150)),
        ];
        let fault = FaultPlan::seeded(19).with_drop_rate(0.005);
        let rec = RecoveryConfig::recovering(19);
        let seq = run(
            dims,
            &inputs,
            fault.clone(),
            &deaths,
            rec,
            RunConfig::default(),
        );
        for threads in [1, 4] {
            let par = run(
                dims,
                &inputs,
                fault.clone(),
                &deaths,
                rec,
                RunConfig::sharded(threads),
            );
            assert_eq!(seq.fingerprint(), par.fingerprint(), "threads={threads}");
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let dims = TorusDims::new(2, 2, 2);
        let inputs = random_inputs(dims, 3, 23);
        let deaths = [(NodeId(6), SimTime::from_ns(400))];
        let run = || {
            run(
                dims,
                &inputs,
                FaultPlan::seeded(23).with_drop_rate(0.01),
                &deaths,
                RecoveryConfig::recovering(23),
                RunConfig::default(),
            )
        };
        assert_eq!(run().fingerprint(), run().fingerprint());
    }

    #[test]
    fn single_node_machine_degenerates_cleanly() {
        let dims = TorusDims::new(1, 1, 1);
        let out = run(
            dims,
            &[vec![2.5]],
            FaultPlan::none(),
            &[],
            RecoveryConfig::recovering(1),
            RunConfig::default(),
        );
        assert!(out.completed);
        assert_eq!(out.results[0].as_deref(), Some(&[2.5][..]));
        assert_eq!(out.contributors, vec![0]);
    }
}
