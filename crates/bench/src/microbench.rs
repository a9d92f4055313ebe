//! Low-level communication microbenchmarks on the simulated fabric —
//! the programs behind Figures 5, 7, and 8.

use anton_des::{SimDuration, SimTime};
use anton_net::{
    drive, ClientAddr, ClientKind, CounterId, Ctx, Fabric, FaultPlan, NodeProgram, Observed,
    Packet, ParSimulation, PatternId, Payload, ProgEvent, RunConfig, StallReport,
    MAX_PAYLOAD_BYTES,
};
use anton_topo::{Coord, MulticastPattern, NodeId, TorusDims};

fn slice0(node: NodeId) -> ClientAddr {
    ClientAddr::new(node, ClientKind::Slice(0))
}

/// Ping-pong between two nodes: each "ping" is one message of
/// `payload_bytes`; the receiver's counter fire triggers the reply.
/// With `bidirectional`, both nodes run independent ping-pong streams
/// simultaneously (the paper's bidirectional test), which contends on
/// the Tensilica cores and runs slightly slower.
struct PingPong {
    peer_of: [(NodeId, NodeId); 2],
    payload_bytes: u32,
    bidirectional: bool,
    /// When each stream this node initiates completed its last round.
    finished: [Option<SimTime>; 2],
    remaining: [u32; 2],
    /// Pings the responder still expects; it stops re-arming its watch
    /// after the last one so a finished run quiesces with no counter
    /// armed (the run guard reads a leftover watch as a stall).
    pings_to_answer: [u32; 2],
}

impl PingPong {
    fn send_ping(&self, stream: usize, from: NodeId, to: NodeId, ctx: &mut Ctx<'_, '_>) {
        let pkt = Packet::write(
            slice0(from),
            slice0(to),
            0x100 + stream as u64,
            Payload::Empty,
        )
        .with_payload_bytes(self.payload_bytes)
        .with_counter(CounterId(stream as u16))
        .with_tag(stream as u64);
        ctx.send(pkt);
    }
}

impl NodeProgram for PingPong {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => {
                let streams: &[usize] = if self.bidirectional { &[0, 1] } else { &[0] };
                for &s in streams {
                    let (a, b) = self.peer_of[s];
                    if node == a || node == b {
                        ctx.watch_counter(slice0(node), CounterId(s as u16), 1);
                    }
                    if node == a {
                        self.send_ping(s, a, b, ctx);
                    }
                }
            }
            ProgEvent::CounterReached { counter, .. } => {
                let s = counter.0 as usize;
                let (a, b) = self.peer_of[s];
                let peer = if node == a { b } else { a };
                // Initiator counts completed rounds.
                if node == a {
                    self.remaining[s] -= 1;
                    if self.remaining[s] == 0 {
                        self.finished[s] = Some(ctx.now());
                        return;
                    }
                    ctx.reset_counter(slice0(node), counter);
                    ctx.watch_counter(slice0(node), counter, 1);
                } else {
                    self.pings_to_answer[s] -= 1;
                    ctx.reset_counter(slice0(node), counter);
                    if self.pings_to_answer[s] > 0 {
                        ctx.watch_counter(slice0(node), counter, 1);
                    }
                }
                self.send_ping(s, node, peer, ctx);
            }
            _ => unreachable!(),
        }
    }
}

/// Ping-pong between `src` and `dst` under the fault plan `fault`, on
/// the engine `cfg` names: the measured one-way latency (averaged over
/// `iters` round trips, retransmission delays included) and whatever the
/// run observed. A ping lost beyond the retransmit budget stalls the
/// ping-pong; the report names the starved counter watch.
#[allow(clippy::too_many_arguments)]
pub fn ping_pong(
    dims: TorusDims,
    src: Coord,
    dst: Coord,
    payload_bytes: u32,
    bidirectional: bool,
    iters: u32,
    fault: FaultPlan,
    cfg: &RunConfig,
) -> Result<(SimDuration, Observed), Box<StallReport>> {
    assert!(iters >= 1);
    let (a, b) = (src.node_id(dims), dst.node_id(dims));
    let done = drive(
        cfg,
        |timing| Fabric::with_faults(dims, timing.clone(), fault.clone()),
        |_| PingPong {
            peer_of: [(a, b), (b, a)],
            payload_bytes,
            bidirectional,
            finished: [None; 2],
            remaining: [iters, iters],
            pings_to_answer: [iters, iters],
        },
        100_000_000,
    )?;
    let t = done.programs[a.index()].finished[0].expect("a completed run finishes stream 0");
    // Each iteration is a full round trip: 2 one-way messages.
    let one_way = SimDuration::from_ps((t - SimTime::ZERO).as_ps() / (2 * iters as u64));
    Ok((one_way, done.observed))
}

/// The 0-hop case of Figure 5: ping-pong between two slices on the same
/// node (crosses only the on-chip ring).
pub fn one_way_latency_local(
    dims: TorusDims,
    node_coord: Coord,
    payload_bytes: u32,
    bidirectional: bool,
    iters: u32,
) -> SimDuration {
    struct LocalPing {
        node: NodeId,
        payload: u32,
        bidirectional: bool,
        remaining: [u32; 2],
        finished: [Option<SimTime>; 2],
    }
    impl LocalPing {
        fn send(&self, stream: usize, from: u8, to: u8, ctx: &mut Ctx<'_, '_>) {
            let pkt = Packet::write(
                ClientAddr::new(self.node, ClientKind::Slice(from)),
                ClientAddr::new(self.node, ClientKind::Slice(to)),
                0x10 + stream as u64,
                Payload::Empty,
            )
            .with_payload_bytes(self.payload)
            .with_counter(CounterId(stream as u16));
            ctx.send(pkt);
        }
    }
    impl NodeProgram for LocalPing {
        fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
            if node != self.node {
                return;
            }
            match pe {
                ProgEvent::Start => {
                    let streams: &[usize] = if self.bidirectional { &[0, 1] } else { &[0] };
                    for &s in streams {
                        let (a, b) = if s == 0 { (0u8, 1u8) } else { (1, 0) };
                        // Both ends arm their counters up front.
                        for sl in [a, b] {
                            ctx.watch_counter(
                                ClientAddr::new(node, ClientKind::Slice(sl)),
                                CounterId(s as u16),
                                1,
                            );
                        }
                        self.send(s, a, b, ctx);
                    }
                }
                ProgEvent::CounterReached { client, counter } => {
                    let s = counter.0 as usize;
                    let me = match client {
                        ClientKind::Slice(i) => i,
                        _ => unreachable!(),
                    };
                    let initiator = if s == 0 { 0u8 } else { 1 };
                    if me == initiator {
                        self.remaining[s] -= 1;
                        if self.remaining[s] == 0 {
                            self.finished[s] = Some(ctx.now());
                            return;
                        }
                    }
                    let mine = ClientAddr::new(node, ClientKind::Slice(me));
                    ctx.reset_counter(mine, counter);
                    ctx.watch_counter(mine, counter, 1);
                    let other = if me == 0 { 1 } else { 0 };
                    self.send(s, me, other, ctx);
                }
                _ => unreachable!(),
            }
        }
    }
    let id = node_coord.node_id(dims);
    let mut sim = ParSimulation::one_slab(Fabric::new(dims), |_| LocalPing {
        node: id,
        payload: payload_bytes,
        bidirectional,
        remaining: [iters, iters],
        finished: [None; 2],
    });
    sim.run();
    let t = sim.program(id).finished[0].expect("stream 0 completes");
    SimDuration::from_ps((t - SimTime::ZERO).as_ps() / (2 * iters as u64))
}

/// Split-transfer test of Figure 7: move `total_bytes` from one node to
/// another as `k` equal application messages (each becoming one or more
/// packets when above the 256-byte payload limit); returns total time.
struct SplitTransfer {
    src: NodeId,
    dst: NodeId,
    total_bytes: u32,
    k: u32,
    done: Option<SimTime>,
}

/// Number of packets and their sizes for one application message.
fn packetize(bytes: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut left = bytes;
    while left > 0 {
        let take = left.min(MAX_PAYLOAD_BYTES);
        out.push(take);
        left -= take;
    }
    if out.is_empty() {
        out.push(0);
    }
    out
}

impl NodeProgram for SplitTransfer {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => {
                if node == self.dst {
                    let msg_bytes = self.total_bytes / self.k;
                    let packets: u64 = (0..self.k).map(|_| packetize(msg_bytes).len() as u64).sum();
                    ctx.watch_counter(slice0(self.dst), CounterId(0), packets);
                }
                if node == self.src {
                    let msg_bytes = self.total_bytes / self.k;
                    let mut addr = 0u64;
                    for _ in 0..self.k {
                        for p in packetize(msg_bytes) {
                            let pkt = Packet::write(
                                slice0(self.src),
                                slice0(self.dst),
                                addr,
                                Payload::Empty,
                            )
                            .with_payload_bytes(p)
                            .with_counter(CounterId(0));
                            ctx.send(pkt);
                            addr += 0x200;
                        }
                    }
                }
            }
            ProgEvent::CounterReached { .. } => {
                self.done = Some(ctx.now());
            }
            _ => unreachable!(),
        }
    }
}

/// Total time to transfer `total_bytes` split into `k` messages over
/// `hops` X-dimension hops.
pub fn split_transfer_time(dims: TorusDims, hops: u32, total_bytes: u32, k: u32) -> SimDuration {
    let src = Coord::new(0, 0, 0);
    let dst = Coord::new(hops, 0, 0);
    let (s, d) = (src.node_id(dims), dst.node_id(dims));
    let mut sim = ParSimulation::one_slab(Fabric::new(dims), |_| SplitTransfer {
        src: s,
        dst: d,
        total_bytes,
        k,
        done: None,
    });
    sim.run();
    let t = sim.program(d).done.expect("transfer completes");
    t - SimTime::ZERO
}

/// All-neighbor exchange styles of Figure 8(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeStyle {
    /// One round: every node sends fine-grained packets directly to each
    /// of its 26 neighbors (Anton's preferred schedule).
    Direct,
    /// Three stages (X, then Y, then Z), data forwarded and aggregated
    /// between stages — 6 messages per node (the commodity-cluster
    /// pattern).
    Staged,
}

struct Exchange {
    style: ExchangeStyle,
    /// Payload bytes each node contributes (its "block").
    block_bytes: u32,
    done: Option<SimTime>,
    stage: usize,
    /// Application-level messages this node has sent (a message may span
    /// several packets).
    app_messages: u64,
}

impl Exchange {
    fn send_block(
        &mut self,
        from: NodeId,
        to: Coord,
        bytes: u32,
        counter: CounterId,
        ctx: &mut Ctx<'_, '_>,
    ) {
        self.app_messages += 1;
        let dims = ctx.dims();
        let mut addr = 0x4000 + from.0 as u64 * 0x40;
        for p in packetize(bytes) {
            let pkt = Packet::write(slice0(from), slice0(to.node_id(dims)), addr, Payload::Empty)
                .with_payload_bytes(p)
                .with_counter(counter);
            ctx.send(pkt);
            addr += 0x200;
        }
    }

    fn staged_targets(dims: TorusDims, me: Coord, stage: usize) -> Vec<Coord> {
        let dim = anton_topo::Dim::ALL[stage];
        let n = dims.len(dim);
        let mut out = Vec::new();
        for d in [-1i64, 1] {
            let c = anton_topo::offset(
                me,
                [
                    if dim.index() == 0 { d } else { 0 },
                    if dim.index() == 1 { d } else { 0 },
                    if dim.index() == 2 { d } else { 0 },
                ],
                dims,
            );
            if c != me && !out.contains(&c) {
                out.push(c);
            }
        }
        let _ = n;
        out
    }

    /// Bytes forwarded at a given stage: the accumulated slab grows 3×
    /// per stage (own + two neighbors).
    fn stage_bytes(&self, stage: usize) -> u32 {
        self.block_bytes * 3u32.pow(stage as u32)
    }
}

impl NodeProgram for Exchange {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        let dims = ctx.dims();
        let me = node.coord(dims);
        match pe {
            ProgEvent::Start => match self.style {
                ExchangeStyle::Direct => {
                    let neighbors = anton_topo::moore_neighbors(me, dims);
                    let packets_per_block = packetize(self.block_bytes).len() as u64;
                    ctx.watch_counter(
                        slice0(node),
                        CounterId(0),
                        neighbors.len() as u64 * packets_per_block,
                    );
                    for nb in neighbors {
                        self.send_block(node, nb, self.block_bytes, CounterId(0), ctx);
                    }
                }
                ExchangeStyle::Staged => {
                    let targets = Self::staged_targets(dims, me, 0);
                    let per = packetize(self.stage_bytes(0)).len() as u64;
                    ctx.watch_counter(slice0(node), CounterId(1), targets.len() as u64 * per);
                    for t in targets {
                        self.send_block(node, t, self.stage_bytes(0), CounterId(1), ctx);
                    }
                }
            },
            ProgEvent::CounterReached { counter, .. } => match self.style {
                ExchangeStyle::Direct => {
                    debug_assert_eq!(counter, CounterId(0));
                    self.done = Some(ctx.now());
                }
                ExchangeStyle::Staged => {
                    self.stage += 1;
                    if self.stage >= 3 {
                        self.done = Some(ctx.now());
                        return;
                    }
                    let targets = Self::staged_targets(dims, me, self.stage);
                    let bytes = self.stage_bytes(self.stage);
                    let per = packetize(bytes).len() as u64;
                    let c = CounterId(1 + self.stage as u16);
                    ctx.watch_counter(slice0(node), c, targets.len() as u64 * per);
                    for t in targets {
                        self.send_block(node, t, bytes, c, ctx);
                    }
                }
            },
            _ => unreachable!(),
        }
    }
}

/// Outcome of an all-neighbor exchange.
#[derive(Debug, Clone, Copy)]
pub struct ExchangeOutcome {
    /// Time until the last node holds all its neighbors' data.
    pub completion: SimDuration,
    /// Application-level messages sent per node.
    pub messages_per_node: f64,
}

/// Run an all-neighbor exchange machine-wide; completion is when the
/// last node has all its neighbors' data.
pub fn neighbor_exchange(
    dims: TorusDims,
    style: ExchangeStyle,
    block_bytes: u32,
) -> ExchangeOutcome {
    let n = dims.node_count() as usize;
    let mut sim = ParSimulation::one_slab(Fabric::new(dims), |_| Exchange {
        style,
        block_bytes,
        done: None,
        stage: 0,
        app_messages: 0,
    });
    sim.run();
    let programs = sim.into_programs();
    let latest = programs
        .iter()
        .map(|p| p.done.expect("all nodes complete"))
        .max()
        .expect("nonempty");
    let total_app: u64 = programs.iter().map(|p| p.app_messages).sum();
    ExchangeOutcome {
        completion: latest - SimTime::ZERO,
        messages_per_node: total_app as f64 / n as f64,
    }
}

/// Effective data bandwidth (Gbit/s) achieved streaming `count` packets
/// of `payload_bytes` across one link.
pub fn streaming_bandwidth_gbps(payload_bytes: u32, count: u64) -> f64 {
    let dims = TorusDims::new(4, 1, 1);
    let (s, d) = (
        Coord::new(0, 0, 0).node_id(dims),
        Coord::new(1, 0, 0).node_id(dims),
    );
    struct Stream {
        src: NodeId,
        dst: NodeId,
        payload: u32,
        count: u64,
        done: Option<SimTime>,
    }
    impl NodeProgram for Stream {
        fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
            match pe {
                ProgEvent::Start => {
                    if node == self.dst {
                        ctx.watch_counter(slice0(self.dst), CounterId(0), self.count);
                    }
                    if node == self.src {
                        // Injected by the HTIS, which has hardware packet
                        // assembly (no Tensilica per-send cost): measures
                        // the wire, not the core.
                        for i in 0..self.count {
                            let pkt = Packet::write(
                                ClientAddr::new(self.src, ClientKind::Htis),
                                slice0(self.dst),
                                i * 0x200,
                                Payload::Empty,
                            )
                            .with_payload_bytes(self.payload)
                            .with_counter(CounterId(0));
                            ctx.send(pkt);
                        }
                    }
                }
                ProgEvent::CounterReached { .. } => {
                    self.done = Some(ctx.now());
                }
                _ => unreachable!(),
            }
        }
    }
    let mut sim = ParSimulation::one_slab(Fabric::new(dims), |_| Stream {
        src: s,
        dst: d,
        payload: payload_bytes,
        count,
        done: None,
    });
    sim.run();
    let t = sim.program(d).done.expect("completes");
    let ns = (t - SimTime::ZERO).as_ns_f64();
    payload_bytes as f64 * count as f64 * 8.0 / ns
}

/// Multicast vs repeated unicast (the §IV.B.1 motivation): time and
/// sender packet count to deliver one position packet to every HTIS in
/// an import set.
pub fn multicast_vs_unicast(
    dims: TorusDims,
    src: Coord,
    dests: &[Coord],
    payload_bytes: u32,
) -> (SimDuration, SimDuration, u64, u64) {
    #[derive(Clone)]
    struct Fanout {
        src: NodeId,
        dests: Vec<NodeId>,
        payload: u32,
        multicast: bool,
        done: Option<SimTime>,
    }
    impl NodeProgram for Fanout {
        fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
            match pe {
                ProgEvent::Start => {
                    if self.dests.contains(&node) {
                        ctx.watch_counter(ClientAddr::new(node, ClientKind::Htis), CounterId(0), 1);
                    }
                    if node == self.src {
                        if self.multicast {
                            let pkt = Packet::write(
                                slice0(node),
                                ClientAddr::new(node, ClientKind::Htis),
                                0x10,
                                Payload::Empty,
                            )
                            .with_payload_bytes(self.payload)
                            .with_counter(CounterId(0))
                            .into_multicast(PatternId(0), ClientKind::Htis);
                            ctx.send(pkt);
                        } else {
                            for &d in &self.dests {
                                let pkt = Packet::write(
                                    slice0(node),
                                    ClientAddr::new(d, ClientKind::Htis),
                                    0x10,
                                    Payload::Empty,
                                )
                                .with_payload_bytes(self.payload)
                                .with_counter(CounterId(0));
                                ctx.send(pkt);
                            }
                        }
                    }
                }
                ProgEvent::CounterReached { .. } => {
                    assert!(self.dests.contains(&node), "a destination");
                    self.done = Some(ctx.now());
                }
                _ => unreachable!(),
            }
        }
    }
    let run = |multicast: bool| -> (SimDuration, u64) {
        let mut fabric = Fabric::new(dims);
        if multicast {
            let p = MulticastPattern::build(src, dests, dims);
            fabric.register_pattern(PatternId(0), &p);
        }
        let dest_ids: Vec<NodeId> = dests.iter().map(|c| c.node_id(dims)).collect();
        let s = src.node_id(dims);
        let payload = payload_bytes;
        let mut sim = ParSimulation::one_slab(fabric, |_| Fanout {
            src: s,
            dests: dest_ids.clone(),
            payload,
            multicast,
            done: None,
        });
        sim.run();
        let latest = dest_ids
            .iter()
            .map(|&d| sim.program(d).done.expect("delivered"))
            .max()
            .expect("nonempty");
        (
            latest - SimTime::ZERO,
            sim.worlds()[0].fabric.stats.link_traversals,
        )
    };
    let (t_multi, trav_multi) = run(true);
    let (t_uni, trav_uni) = run(false);
    (t_multi, t_uni, trav_multi, trav_uni)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_way(dims: TorusDims, dst: Coord, bidirectional: bool, iters: u32) -> SimDuration {
        let src = Coord::new(0, 0, 0);
        let none = FaultPlan::none();
        ping_pong(
            dims,
            src,
            dst,
            0,
            bidirectional,
            iters,
            none,
            &RunConfig::default(),
        )
        .expect("fault-free ping-pong completes")
        .0
    }

    #[test]
    fn ping_pong_reproduces_162ns() {
        let d = one_way(TorusDims::anton_512(), Coord::new(1, 0, 0), false, 4);
        assert_eq!(d, SimDuration::from_ns(162));
    }

    #[test]
    fn bidirectional_is_slightly_slower() {
        let dims = TorusDims::anton_512();
        let uni = one_way(dims, Coord::new(2, 0, 0), false, 8);
        let bi = one_way(dims, Coord::new(2, 0, 0), true, 8);
        assert!(bi >= uni, "bi {bi} vs uni {uni}");
        assert!(
            bi.as_ns_f64() < uni.as_ns_f64() * 1.3,
            "bi {bi} vs uni {uni}"
        );
    }

    #[test]
    fn split_transfer_grows_mildly_with_message_count() {
        // Figure 7: Anton's curve is nearly flat.
        let dims = TorusDims::anton_512();
        let t1 = split_transfer_time(dims, 1, 2048, 1);
        let t64 = split_transfer_time(dims, 1, 2048, 64);
        let ratio = t64.as_ns_f64() / t1.as_ns_f64();
        assert!((1.0..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn direct_exchange_beats_staged_on_anton() {
        let dims = TorusDims::new(4, 4, 4);
        let direct = neighbor_exchange(dims, ExchangeStyle::Direct, 256);
        let staged = neighbor_exchange(dims, ExchangeStyle::Staged, 256);
        assert!(
            direct.completion < staged.completion,
            "direct {} vs staged {}",
            direct.completion,
            staged.completion
        );
        // And staged uses far fewer messages — the commodity trade-off.
        assert!(staged.messages_per_node < direct.messages_per_node);
    }

    #[test]
    fn streaming_bandwidth_has_a_half_point_near_28_bytes() {
        let full = streaming_bandwidth_gbps(256, 256);
        let half = streaming_bandwidth_gbps(28, 256);
        let frac = half / full;
        assert!((0.35..0.65).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn multicast_beats_unicast_fanout() {
        let dims = TorusDims::anton_512();
        let src = Coord::new(4, 4, 4);
        let dests: Vec<Coord> = anton_topo::moore_neighbors(src, dims)
            .into_iter()
            .take(17)
            .collect();
        let (t_multi, t_uni, trav_multi, trav_uni) = multicast_vs_unicast(dims, src, &dests, 28);
        assert!(t_multi <= t_uni, "{t_multi} vs {t_uni}");
        assert!(trav_multi < trav_uni, "{trav_multi} vs {trav_uni}");
    }
}
