//! All-reduce node programs running on the simulated fabric.

use anton_des::{Rng, SimDuration, SimTime};
use anton_net::{
    drive, ClientAddr, ClientKind, CounterId, Ctx, Fabric, FaultPlan, NodeProgram, Observed,
    Packet, PatternId, Payload, ProgEvent, RunConfig, StallReport,
};
use anton_topo::{Coord, Dim, MulticastPattern, NodeId, TorusDims};

/// Which all-reduce algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Anton's: 3 rounds of per-dimension multicast counted remote writes
    /// (also used by QCDOC, per the paper).
    DimensionOrdered,
    /// Radix-2 butterfly, 3·log₂N rounds of pairwise exchanges.
    Butterfly,
    /// A unidirectional ring over the node-id order: 2(P−1) rounds of
    /// neighbor sends (reduce-scatter would halve the data volume, but
    /// for the paper's tiny 32-byte payloads latency dominates — this is
    /// the classic bandwidth-optimal algorithm shown latency-bound).
    Ring,
}

/// Calibrated software costs of the reduction.
#[derive(Debug, Clone, Copy)]
pub struct CollectiveParams {
    /// Tensilica-core time to add one received f64 into the partial sum.
    /// Calibrated to Table 2's 0-byte → 32-byte latency deltas
    /// (~0.45 µs over three rounds on the 512-node machine).
    pub reduce_ns_per_value: f64,
    /// Fixed software overhead per round (poll-loop exit, branch, setup).
    pub round_overhead_ns: f64,
}

impl Default for CollectiveParams {
    fn default() -> Self {
        CollectiveParams {
            reduce_ns_per_value: 4.5,
            round_overhead_ns: 10.0,
        }
    }
}

/// Result of a simulated all-reduce.
#[derive(Debug, Clone)]
pub struct AllReduceOutcome {
    /// Time from start until every node's four slices hold the result.
    pub latency: SimDuration,
    /// Per-node final values (empty vectors for 0-byte barriers).
    pub results: Vec<Vec<f64>>,
    /// Total packets sent machine-wide.
    pub packets_sent: u64,
    /// Total link traversals machine-wide.
    pub link_traversals: u64,
}

const VALUE_STRIDE: u64 = 0x100;
const ROUND_BASE: u64 = 0x10_000;
/// Counter used for the final intra-node share.
const SHARE_COUNTER: CounterId = CounterId(40);

fn round_dim(round: usize) -> Dim {
    Dim::ALL[round]
}

/// Pattern id for the line broadcast of the source at coordinate `c`
/// along `dim`. Sources on different lines never share a node, so the
/// (dim, axis-coordinate) pair is collision-free machine-wide.
fn pattern_id(dim: Dim, coord: u32) -> PatternId {
    assert!(coord < 32, "axis too long for the pattern-id scheme");
    PatternId((dim.index() as u16) * 32 + coord as u16)
}

struct AllReduceNode {
    algorithm: Algorithm,
    params: CollectiveParams,
    /// Current partial sum (starts as this node's input).
    value: Vec<f64>,
    /// Wire bytes per packet (8·values, or 0 for a barrier).
    payload_bytes: u32,
    round: usize,
    /// Butterfly: bit position within the current dimension.
    bit: u32,
    /// Completion record: when the last local share landed, and the
    /// final value. Per-program (not shared) so the node program is
    /// `Send` and runs unchanged on the sharded parallel simulation.
    done_at: Option<(SimTime, Vec<f64>)>,
}

impl AllReduceNode {
    fn dims(ctx: &Ctx<'_, '_>) -> TorusDims {
        ctx.dims()
    }

    fn my_coord(node: NodeId, ctx: &Ctx<'_, '_>) -> Coord {
        node.coord(ctx.dims())
    }

    /// Begin a dimension-ordered round: multicast the current partial sum
    /// along `dim` into every peer's slice-`round` memory (self included),
    /// then watch the counter for the full line's packet count.
    fn start_dim_ordered_round(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let dim = round_dim(self.round);
        let me = Self::my_coord(node, ctx);
        let slice = ClientKind::Slice(self.round as u8);
        let counter = CounterId(self.round as u16);
        let n = Self::dims(ctx).len(dim);
        ctx.watch_counter(ClientAddr::new(node, slice), counter, n as u64);
        let addr = ROUND_BASE * (self.round as u64 + 1) + me.get(dim) as u64 * VALUE_STRIDE;
        // The sender for round k is the slice that computed round k−1
        // (slice k−1), or slice 0 at the start; either way a slice on
        // this node — use slice `round` for bookkeeping simplicity (the
        // injection cost model is identical across slices).
        let pkt = Packet::write(
            ClientAddr::new(node, slice),
            ClientAddr::new(node, slice), // superseded by the multicast dest
            addr,
            Payload::F64s(self.value.clone()),
        )
        .with_payload_bytes(self.payload_bytes)
        .with_counter(counter)
        .into_multicast(pattern_id(dim, me.get(dim)), slice);
        ctx.send(pkt);
    }

    /// A dimension-ordered round completed: sum the line's contributions
    /// in address (= axis coordinate) order so every node computes the
    /// identical floating-point sum.
    fn finish_dim_ordered_round(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let dim = round_dim(self.round);
        let n = Self::dims(ctx).len(dim);
        let slice = ClientKind::Slice(self.round as u8);
        let me = ClientAddr::new(node, slice);
        let base = ROUND_BASE * (self.round as u64 + 1);
        let mut sum = vec![0.0f64; self.value.len()];
        for c in 0..n {
            let addr = base + c as u64 * VALUE_STRIDE;
            match ctx.mem_take(me, addr) {
                Some(Payload::F64s(vs)) => {
                    assert_eq!(vs.len(), sum.len());
                    for (s, v) in sum.iter_mut().zip(&vs) {
                        *s += v;
                    }
                }
                Some(other) => panic!("unexpected payload {other:?}"),
                None => assert!(
                    self.value.is_empty(),
                    "missing contribution {c} on node {}",
                    node.0
                ),
            }
        }
        self.value = sum;
        ctx.reset_counter(me, CounterId(self.round as u16));
        // Model the software reduction time, then move on.
        let cost = SimDuration::from_ns_f64(
            self.params.round_overhead_ns
                + self.params.reduce_ns_per_value * (n as usize * self.value.len()) as f64,
        );
        self.round += 1;
        ctx.set_timer(node, slice, cost, self.round as u64);
    }

    /// Butterfly round: write to the XOR partner, wait for its packet.
    fn start_butterfly_round(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let dims = Self::dims(ctx);
        let dim = round_dim(self.round);
        let me = Self::my_coord(node, ctx);
        let partner = me.with(dim, me.get(dim) ^ (1 << self.bit));
        let slice = ClientKind::Slice((self.round + self.bit as usize) as u8 % 4);
        let counter = CounterId(8 + ((self.round * 8 + self.bit as usize) % 16) as u16);
        ctx.watch_counter(ClientAddr::new(node, slice), counter, 1);
        let pkt = Packet::write(
            ClientAddr::new(node, ClientKind::Slice(0)),
            ClientAddr::new(partner.node_id(dims), slice),
            ROUND_BASE * 8 + (self.round * 8 + self.bit as usize) as u64 * VALUE_STRIDE,
            Payload::F64s(self.value.clone()),
        )
        .with_payload_bytes(self.payload_bytes)
        .with_counter(counter);
        ctx.send(pkt);
    }

    fn finish_butterfly_round(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let dims = Self::dims(ctx);
        let dim = round_dim(self.round);
        let me = Self::my_coord(node, ctx);
        let slice = ClientKind::Slice((self.round + self.bit as usize) as u8 % 4);
        let addr = ROUND_BASE * 8 + (self.round * 8 + self.bit as usize) as u64 * VALUE_STRIDE;
        let received = match ctx.mem_take(ClientAddr::new(node, slice), addr) {
            Some(Payload::F64s(vs)) => vs,
            Some(other) => panic!("unexpected payload {other:?}"),
            None => {
                assert!(self.value.is_empty());
                Vec::new()
            }
        };
        // Deterministic order: lower coordinate first.
        let partner_low = (me.get(dim) & !(1 << self.bit)) == me.get(dim);
        let mut sum = Vec::with_capacity(self.value.len());
        for (mine, theirs) in self.value.iter().zip(&received) {
            let (a, b) = if partner_low {
                (*mine, *theirs)
            } else {
                (*theirs, *mine)
            };
            sum.push(a + b);
        }
        self.value = sum;
        let cost = SimDuration::from_ns_f64(
            self.params.round_overhead_ns
                + self.params.reduce_ns_per_value * (2 * self.value.len()) as f64,
        );
        // Advance bit/round.
        self.bit += 1;
        if (1u32 << self.bit) >= dims.len(dim) {
            self.bit = 0;
            self.round += 1;
        }
        ctx.set_timer(node, slice, cost, self.round as u64);
    }

    fn advance(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        if self.algorithm == Algorithm::Ring {
            self.start_ring(node, ctx);
            return;
        }
        // Skip length-1 dimensions (nothing to reduce there).
        let dims = ctx.dims();
        while self.round < 3 && dims.len(round_dim(self.round)) <= 1 {
            self.round += 1;
        }
        if self.round >= 3 {
            self.share_locally(node, ctx);
            return;
        }
        match self.algorithm {
            Algorithm::DimensionOrdered => self.start_dim_ordered_round(node, ctx),
            Algorithm::Butterfly => self.start_butterfly_round(node, ctx),
            Algorithm::Ring => unreachable!("handled above"),
        }
    }

    /// Ring start: node 0 launches the reduce token. Nodes 1..P−1 arm
    /// for the reduce token; nodes 0..P−2 arm for the broadcast token.
    fn start_ring(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let total = ctx.dims().node_count();
        let slice = ClientKind::Slice(0);
        let me = ClientAddr::new(node, slice);
        if node.0 > 0 {
            ctx.watch_counter(me, CounterId(20), 1);
        }
        if node.0 + 1 < total {
            ctx.watch_counter(me, CounterId(21), 1);
        }
        if node.0 == 0 {
            self.ring_send(node, NodeId(1 % total), CounterId(20), ctx);
        }
        if total == 1 {
            self.share_locally(node, ctx);
        }
    }

    fn ring_send(&self, node: NodeId, to: NodeId, counter: CounterId, ctx: &mut Ctx<'_, '_>) {
        let slice = ClientKind::Slice(0);
        let pkt = Packet::write(
            ClientAddr::new(node, slice),
            ClientAddr::new(to, slice),
            ROUND_BASE * 6 + (counter.0 as u64 - 20) * VALUE_STRIDE,
            Payload::F64s(self.value.clone()),
        )
        .with_payload_bytes(self.payload_bytes)
        .with_counter(counter);
        ctx.send(pkt);
    }

    /// A ring token arrived: counter 20 = reduce phase, 21 = broadcast.
    fn finish_ring(&mut self, node: NodeId, counter: CounterId, ctx: &mut Ctx<'_, '_>) {
        let total = ctx.dims().node_count();
        let slice = ClientKind::Slice(0);
        let addr = ROUND_BASE * 6 + (counter.0 as u64 - 20) * VALUE_STRIDE;
        let vs = match ctx.mem_take(ClientAddr::new(node, slice), addr) {
            Some(Payload::F64s(vs)) => vs,
            other => panic!("missing ring token: {other:?}"),
        };
        // Per-hop software time is a few ns of fold arithmetic —
        // negligible against the 2(P−1) serialized network latencies
        // that make this algorithm lose; not modeled.
        if counter == CounterId(20) {
            // Reduce token: fold and pass on, or finish the sum.
            for (v, x) in self.value.iter_mut().zip(&vs) {
                *v += x;
            }
            if node.0 + 1 < total {
                self.ring_send(node, NodeId(node.0 + 1), CounterId(20), ctx);
            } else {
                // The global sum lives here; broadcast it back around.
                self.ring_send(node, NodeId(0), CounterId(21), ctx);
                self.share_locally(node, ctx);
            }
        } else {
            // Broadcast token: adopt and forward until the ring is covered.
            self.value = vs;
            if node.0 + 2 < total {
                self.ring_send(node, NodeId(node.0 + 1), CounterId(21), ctx);
            }
            self.share_locally(node, ctx);
        }
    }

    /// "Slice 2 … shares [the global sum] locally with the other three
    /// slices": three local counted writes; the operation completes when
    /// the last slice's counter fires.
    fn share_locally(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        for s in [0u8, 1, 3] {
            let dst = ClientAddr::new(node, ClientKind::Slice(s));
            ctx.watch_counter(dst, SHARE_COUNTER, 1);
            let pkt = Packet::write(
                ClientAddr::new(node, ClientKind::Slice(2)),
                dst,
                0xF000,
                Payload::F64s(self.value.clone()),
            )
            .with_payload_bytes(self.payload_bytes)
            .with_counter(SHARE_COUNTER);
            ctx.send(pkt);
        }
    }
}

impl NodeProgram for AllReduceNode {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => self.advance(node, ctx),
            ProgEvent::CounterReached { counter, .. } => {
                if counter == SHARE_COUNTER {
                    // One of the three share deliveries. All three slices
                    // must have it; record completion at the last one.
                    match &mut self.done_at {
                        e @ None => *e = Some((ctx.now(), self.value.clone())),
                        Some((t, _)) => *t = (*t).max(ctx.now()),
                    }
                } else {
                    match self.algorithm {
                        Algorithm::DimensionOrdered => self.finish_dim_ordered_round(node, ctx),
                        Algorithm::Butterfly => self.finish_butterfly_round(node, ctx),
                        Algorithm::Ring => self.finish_ring(node, counter, ctx),
                    }
                }
            }
            ProgEvent::Timer { .. } => self.advance(node, ctx),
            ProgEvent::FifoMessage { .. } => unreachable!("all-reduce uses no FIFO traffic"),
        }
    }
}

/// Run one all-reduce over `inputs` (one vector per node, all the same
/// length) under the fault plan `fault`, on the engine `cfg` names, and
/// return latency, per-node results, and traffic stats. Bit-identical
/// on either engine at any thread count. A packet lost beyond the
/// retransmit budget stalls the collective; the report names every
/// stuck counter watch.
///
/// ```
/// use anton_collectives::{all_reduce, Algorithm};
/// use anton_net::{FaultPlan, RunConfig};
/// use anton_topo::TorusDims;
/// let dims = TorusDims::new(2, 2, 2);
/// let inputs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
/// let (out, _) = all_reduce(dims, Algorithm::DimensionOrdered, Default::default(),
///                           &inputs, FaultPlan::none(), &RunConfig::default()).unwrap();
/// // Every node ends with the same global sum, 0+1+…+7 = 28.
/// assert!(out.results.iter().all(|r| r[0] == 28.0));
/// assert!(out.latency.as_us_f64() < 2.0);
/// ```
pub fn all_reduce(
    dims: TorusDims,
    algorithm: Algorithm,
    params: CollectiveParams,
    inputs: &[Vec<f64>],
    fault: FaultPlan,
    cfg: &RunConfig,
) -> Result<(AllReduceOutcome, Observed), Box<StallReport>> {
    let done = drive(
        cfg,
        |timing| build_allreduce_fabric(dims, timing.clone(), &fault, algorithm),
        make_programs(dims, algorithm, params, inputs),
        100_000_000,
    )?;
    let mut latest = SimTime::ZERO;
    let mut results = Vec::with_capacity(done.programs.len());
    for prog in done.programs {
        let (t, v) = prog
            .done_at
            .expect("a completed run records every node's result");
        latest = latest.max(t);
        results.push(v);
    }
    let out = AllReduceOutcome {
        latency: latest - SimTime::ZERO,
        results,
        packets_sent: done.stats.packets_sent,
        link_traversals: done.stats.link_traversals,
    };
    Ok((out, done.observed))
}

/// Build the fabric an all-reduce runs on: timing + fault plan, and for
/// the dimension-ordered algorithm every line-broadcast multicast
/// pattern pre-registered. Every shard replica of a sharded run is
/// built here too, so all replicas are bit-identical machines.
fn build_allreduce_fabric(
    dims: TorusDims,
    timing: anton_net::Timing,
    fault: &FaultPlan,
    algorithm: Algorithm,
) -> Fabric {
    let mut fabric = Fabric::with_faults(dims, timing, fault.clone());
    if algorithm == Algorithm::DimensionOrdered {
        for &dim in &Dim::ALL {
            if dims.len(dim) <= 1 {
                continue;
            }
            // One line-broadcast pattern per source line position.
            let mut registered = std::collections::HashSet::new();
            for node in 0..dims.node_count() {
                let c = NodeId(node).coord(dims);
                let id = pattern_id(dim, c.get(dim));
                // The same (dim, coord) id is reused by every parallel
                // line; build per line. Key on the full source coord.
                if registered.insert(c) {
                    let p = MulticastPattern::line_broadcast(c, dim, dims, true);
                    // Entries are per-node; ids collide only within one
                    // line, where they are unique by construction.
                    fabric.register_pattern(id, &p);
                }
            }
        }
    }
    fabric
}

/// Validate inputs and make the per-node program constructor.
fn make_programs(
    dims: TorusDims,
    algorithm: Algorithm,
    params: CollectiveParams,
    inputs: &[Vec<f64>],
) -> impl FnMut(NodeId) -> AllReduceNode {
    let n = dims.node_count() as usize;
    assert_eq!(inputs.len(), n, "one input vector per node");
    let values = inputs[0].len();
    assert!(inputs.iter().all(|v| v.len() == values));
    let payload_bytes = (values * 8) as u32;
    let inputs = inputs.to_vec();
    move |node| AllReduceNode {
        algorithm,
        params,
        value: inputs[node.index()].clone(),
        payload_bytes,
        round: 0,
        bit: 0,
        done_at: None,
    }
}

/// Deterministic pseudo-random inputs for tests and benches.
pub fn random_inputs(dims: TorusDims, values: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::seed_from(seed);
    (0..dims.node_count())
        .map(|_| (0..values).map(|_| rng.uniform(-10.0, 10.0)).collect())
        .collect()
}

/// A fault-free sequential run, for the tests below.
#[cfg(test)]
fn fault_free(dims: TorusDims, algorithm: Algorithm, inputs: &[Vec<f64>]) -> AllReduceOutcome {
    all_reduce(
        dims,
        algorithm,
        CollectiveParams::default(),
        inputs,
        FaultPlan::none(),
        &RunConfig::default(),
    )
    .expect("fault-free all-reduce completes")
    .0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected_sum(inputs: &[Vec<f64>]) -> Vec<f64> {
        let mut out = vec![0.0; inputs[0].len()];
        for v in inputs {
            for (o, x) in out.iter_mut().zip(v) {
                *o += x;
            }
        }
        out
    }

    #[test]
    fn dimension_ordered_computes_the_sum_on_all_nodes() {
        let dims = TorusDims::new(4, 4, 4);
        let inputs = random_inputs(dims, 4, 99);
        let out = fault_free(dims, Algorithm::DimensionOrdered, &inputs);
        let want = expected_sum(&inputs);
        for r in &out.results {
            for (a, b) in r.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
        // Every node produced the bitwise-identical sum (fixed order).
        for r in &out.results {
            assert_eq!(r, &out.results[0]);
        }
    }

    #[test]
    fn butterfly_computes_the_same_sum() {
        let dims = TorusDims::new(4, 4, 4);
        let inputs = random_inputs(dims, 4, 100);
        let d = fault_free(dims, Algorithm::DimensionOrdered, &inputs);
        let b = fault_free(dims, Algorithm::Butterfly, &inputs);
        for (x, y) in d.results[0].iter().zip(&b.results[0]) {
            assert!((x - y).abs() < 1e-9 * x.abs().max(1.0));
        }
        for r in &b.results {
            assert_eq!(r, &b.results[0]);
        }
    }

    #[test]
    fn zero_byte_reduction_is_a_barrier() {
        let dims = TorusDims::new(4, 4, 4);
        let inputs = vec![Vec::new(); 64];
        let out = fault_free(dims, Algorithm::DimensionOrdered, &inputs);
        assert!(out.results.iter().all(|r| r.is_empty()));
        // A 64-node barrier lands under a microsecond (Table 2: 0.96 µs).
        let us = out.latency.as_us_f64();
        assert!((0.5..1.3).contains(&us), "barrier latency {us} µs");
    }

    #[test]
    fn table2_scale_512_nodes() {
        let dims = TorusDims::anton_512();
        let inputs = random_inputs(dims, 4, 7); // 32-byte reduction
        let out = fault_free(dims, Algorithm::DimensionOrdered, &inputs);
        let us = out.latency.as_us_f64();
        // Paper: 1.77 µs. Accept the band 1.2–2.3 µs.
        assert!((1.2..2.3).contains(&us), "512-node 32 B all-reduce {us} µs");
        let want = expected_sum(&inputs);
        for (a, b) in out.results[0].iter().zip(&want) {
            assert!((a - b).abs() < 1e-9 * b.abs().max(1.0));
        }
    }

    #[test]
    fn dimension_ordered_beats_butterfly_in_latency() {
        let dims = TorusDims::anton_512();
        let inputs = random_inputs(dims, 4, 8);
        let d = fault_free(dims, Algorithm::DimensionOrdered, &inputs);
        let b = fault_free(dims, Algorithm::Butterfly, &inputs);
        assert!(
            d.latency < b.latency,
            "dim-ordered {} vs butterfly {}",
            d.latency,
            b.latency
        );
    }

    #[test]
    fn latency_grows_with_machine_size() {
        let sizes = [
            TorusDims::new(4, 4, 4),
            TorusDims::new(8, 2, 8),
            TorusDims::new(8, 8, 4),
            TorusDims::new(8, 8, 8),
            TorusDims::new(8, 8, 16),
        ];
        let mut last = SimDuration::ZERO;
        for dims in sizes {
            let inputs = random_inputs(dims, 4, 3);
            let out = fault_free(dims, Algorithm::DimensionOrdered, &inputs);
            assert!(
                out.latency >= last,
                "latency should be monotone in machine size: {:?} gave {}",
                dims,
                out.latency
            );
            last = out.latency;
        }
    }

    #[test]
    fn determinism() {
        let dims = TorusDims::new(4, 4, 4);
        let inputs = random_inputs(dims, 2, 5);
        let a = fault_free(dims, Algorithm::DimensionOrdered, &inputs);
        let b = fault_free(dims, Algorithm::DimensionOrdered, &inputs);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.results, b.results);
        assert_eq!(a.packets_sent, b.packets_sent);
    }
}

#[cfg(test)]
mod degenerate_tests {
    use super::*;

    #[test]
    fn single_node_machine() {
        let dims = TorusDims::new(1, 1, 1);
        let inputs = vec![vec![3.5, -1.0]];
        let out = fault_free(dims, Algorithm::DimensionOrdered, &inputs);
        assert_eq!(out.results[0], vec![3.5, -1.0]);
        // Still pays the local share writes, so latency is nonzero but
        // well under a microsecond.
        assert!(out.latency.as_ns_f64() < 500.0);
    }

    #[test]
    fn flat_machines_skip_length_one_dimensions() {
        // 8×1×1: only the X round runs.
        let dims = TorusDims::new(8, 1, 1);
        let inputs = random_inputs(dims, 2, 17);
        let out = fault_free(dims, Algorithm::DimensionOrdered, &inputs);
        let want: Vec<f64> = (0..2).map(|i| inputs.iter().map(|v| v[i]).sum()).collect();
        for r in &out.results {
            for (a, b) in r.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9 * b.abs().max(1.0));
            }
        }
        // One round ≈ one line broadcast + share: far less than the 3D time.
        let full = fault_free(
            TorusDims::new(8, 8, 8),
            Algorithm::DimensionOrdered,
            &random_inputs(TorusDims::new(8, 8, 8), 2, 17),
        );
        assert!(out.latency < full.latency);
    }

    #[test]
    fn large_payload_reduction() {
        // 32 values = 256 bytes: one full packet per contribution.
        let dims = TorusDims::new(4, 4, 4);
        let inputs = random_inputs(dims, 32, 23);
        let out = fault_free(dims, Algorithm::DimensionOrdered, &inputs);
        let want: Vec<f64> = (0..32).map(|i| inputs.iter().map(|v| v[i]).sum()).collect();
        for (a, b) in out.results[0].iter().zip(&want) {
            assert!((a - b).abs() < 1e-9 * b.abs().max(1.0));
        }
        // Bigger payloads cost more than the 32-byte case.
        let small = fault_free(
            dims,
            Algorithm::DimensionOrdered,
            &random_inputs(dims, 4, 23),
        );
        assert!(out.latency > small.latency);
    }

    #[test]
    fn asymmetric_1024_node_machine() {
        // Table 2's 8×8×16 row: the long Z dimension dominates.
        let dims = TorusDims::new(8, 8, 16);
        let inputs = random_inputs(dims, 4, 29);
        let out = fault_free(dims, Algorithm::DimensionOrdered, &inputs);
        let us = out.latency.as_us_f64();
        assert!((1.5..2.5).contains(&us), "{us}");
    }
}

#[cfg(test)]
mod ring_tests {
    use super::*;

    #[test]
    fn ring_computes_the_same_sum() {
        let dims = TorusDims::new(2, 2, 2);
        let inputs = random_inputs(dims, 3, 41);
        let d = fault_free(dims, Algorithm::DimensionOrdered, &inputs);
        let r = fault_free(dims, Algorithm::Ring, &inputs);
        for (x, y) in d.results[0].iter().zip(&r.results[0]) {
            assert!((x - y).abs() < 1e-9 * x.abs().max(1.0));
        }
        for res in &r.results {
            assert_eq!(res, &r.results[0]);
        }
    }

    #[test]
    fn ring_is_latency_bound_and_loses_badly() {
        // 2(P−1) serialized hops: the paper's point about round counts
        // in its most extreme form.
        let dims = TorusDims::new(4, 4, 4);
        let inputs = random_inputs(dims, 4, 43);
        let d = fault_free(dims, Algorithm::DimensionOrdered, &inputs);
        let r = fault_free(dims, Algorithm::Ring, &inputs);
        assert!(
            r.latency.as_us_f64() > 5.0 * d.latency.as_us_f64(),
            "ring {} vs dim-ordered {}",
            r.latency,
            d.latency
        );
    }
}
