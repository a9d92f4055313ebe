//! End-to-end fabric tests: counted remote writes over the simulated
//! machine reproduce the paper's headline latencies, multicast delivers
//! exactly once, accumulation sums deterministically, and FIFOs drain.

use anton_des::{SimDuration, SimTime};
use anton_net::{
    ClientAddr, ClientKind, CounterId, Ctx, Fabric, NodeProgram, Packet, ParSimulation, PatternId,
    Payload, ProgEvent,
};
use anton_topo::{Coord, Dim, MulticastPattern, NodeId, TorusDims};

fn slice0(node: NodeId) -> ClientAddr {
    ClientAddr::new(node, ClientKind::Slice(0))
}

/// One-way measurement: node A sends a counted remote write to node B at
/// t=0; B records when its watch fires.
struct OneWay {
    src: NodeId,
    dst: NodeId,
    payload_bytes: u32,
    fired_at: Option<SimTime>,
}

impl NodeProgram for OneWay {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => {
                if node == self.dst {
                    ctx.watch_counter(slice0(self.dst), CounterId(0), 1);
                }
                if node == self.src {
                    let pkt =
                        Packet::write(slice0(self.src), slice0(self.dst), 0x100, Payload::Empty)
                            .with_payload_bytes(self.payload_bytes)
                            .with_counter(CounterId(0));
                    ctx.send(pkt);
                }
            }
            ProgEvent::CounterReached { .. } => {
                assert_eq!(node, self.dst);
                self.fired_at = Some(ctx.now());
            }
            _ => {}
        }
    }
}

fn one_way(dims: TorusDims, src: Coord, dst: Coord, payload: u32) -> SimDuration {
    let (s, d) = (src.node_id(dims), dst.node_id(dims));
    let mut sim = ParSimulation::one_slab(Fabric::new(dims), |_| OneWay {
        src: s,
        dst: d,
        payload_bytes: payload,
        fired_at: None,
    });
    sim.run();
    sim.program(d).fired_at.expect("message must arrive") - SimTime::ZERO
}

#[test]
fn single_x_hop_is_162_ns() {
    let dims = TorusDims::anton_512();
    let d = one_way(dims, Coord::new(0, 0, 0), Coord::new(1, 0, 0), 0);
    assert_eq!(d, SimDuration::from_ns(162));
}

#[test]
fn local_write_is_106_ns() {
    // 0-hop case of Figure 5: between clients on the same node we still
    // cross the on-chip ring. Use two different slices on one node.
    struct Local {
        fired: Option<SimTime>,
    }
    impl NodeProgram for Local {
        fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
            match pe {
                ProgEvent::Start => {
                    let dst = ClientAddr::new(node, ClientKind::Slice(1));
                    ctx.watch_counter(dst, CounterId(0), 1);
                    let pkt = Packet::write(slice0(node), dst, 0, Payload::Empty)
                        .with_counter(CounterId(0));
                    ctx.send(pkt);
                }
                ProgEvent::CounterReached { .. } => self.fired = Some(ctx.now()),
                _ => {}
            }
        }
    }
    let dims = TorusDims::new(1, 1, 1);
    let mut sim = ParSimulation::one_slab(Fabric::new(dims), |_| Local { fired: None });
    sim.run();
    assert_eq!(sim.program(NodeId(0)).fired.unwrap(), SimTime::from_ns(106));
}

#[test]
fn des_matches_analytic_for_all_hop_counts() {
    // Figure 5's sweep: hops 1–4 along X, 5–8 add Y, 9–12 add Z.
    let dims = TorusDims::anton_512();
    let timing = anton_net::Timing::default();
    let src = Coord::new(0, 0, 0);
    for hops in 1..=12u32 {
        let hx = hops.min(4);
        let hy = hops.saturating_sub(4).min(4);
        let hz = hops.saturating_sub(8).min(4);
        let dst = Coord::new(hx, hy, hz);
        for payload in [0u32, 256] {
            let sim = one_way(dims, src, dst, payload);
            let analytic = timing.analytic_latency([hx, hy, hz], payload);
            assert_eq!(
                sim, analytic,
                "hops={hops} payload={payload}: sim {sim} vs analytic {analytic}"
            );
        }
    }
}

#[test]
fn twelve_hop_zero_byte_latency_is_822_ns() {
    // 162 + 3·76 + 8·54 = 822 ns, consistent with Figure 5's ~850 ns scale.
    let dims = TorusDims::anton_512();
    let d = one_way(dims, Coord::new(0, 0, 0), Coord::new(4, 4, 4), 0);
    assert_eq!(d, SimDuration::from_ns(822));
}

/// Counted remote writes from many sources: the counter fires exactly
/// when the predetermined number of packets has arrived (Figure 4).
struct Gather {
    target: NodeId,
    senders: Vec<NodeId>,
    fired: Option<(SimTime, u64)>,
}

impl NodeProgram for Gather {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => {
                if node == self.target {
                    ctx.watch_counter(slice0(self.target), CounterId(7), self.senders.len() as u64);
                }
                if let Some(i) = self.senders.iter().position(|&s| s == node) {
                    let pkt = Packet::write(
                        slice0(node),
                        slice0(self.target),
                        0x1000 + i as u64 * 0x20,
                        Payload::F64s(vec![i as f64, 2.0 * i as f64, 3.0]),
                    )
                    .with_counter(CounterId(7));
                    ctx.send(pkt);
                }
            }
            ProgEvent::CounterReached { client, counter } => {
                assert_eq!(client, ClientKind::Slice(0));
                assert_eq!(counter, CounterId(7));
                let v = ctx.read_counter(slice0(node), counter);
                self.fired = Some((ctx.now(), v));
            }
            _ => {}
        }
    }
}

#[test]
fn counter_fires_exactly_at_target_from_multiple_sources() {
    let dims = TorusDims::anton_512();
    let target = Coord::new(4, 4, 4).node_id(dims);
    let senders: Vec<NodeId> = [(0, 0, 0), (1, 4, 4), (4, 0, 4), (7, 7, 7)]
        .iter()
        .map(|&(x, y, z)| Coord::new(x, y, z).node_id(dims))
        .collect();
    let mut sim = ParSimulation::one_slab(Fabric::new(dims), |_| Gather {
        target,
        senders: senders.clone(),
        fired: None,
    });
    sim.run();
    let (t, count) = sim.program(target).fired.expect("gather must complete");
    assert_eq!(count, 4);
    // The last arrival dominates: sender (1,4,4) is 3+0+0... check it's at
    // least the farthest sender's uncontended latency.
    let timing = anton_net::Timing::default();
    let worst = timing.analytic_latency([4, 1, 0], 24); // (0,0,0)→(4,4,4) is [4,4,4]
    let far = timing.analytic_latency([4, 4, 4], 24);
    assert!(t >= SimTime::ZERO + (worst - SimDuration::ZERO));
    assert!(
        t >= SimTime::ZERO + (far - SimDuration::ZERO),
        "t={t} far={far}"
    );
    // All four payloads landed at distinct addresses.
    let mem_count = (0..4)
        .filter(|i| {
            sim.worlds()[0]
                .fabric
                .mem_read(slice0(target), 0x1000 + *i as u64 * 0x20)
                .is_some()
        })
        .count();
    assert_eq!(mem_count, 4);
}

/// Multicast: one injected packet delivers to the whole pattern set
/// exactly once, and the sender pays a single injection.
struct Mcast {
    src: NodeId,
    members: Vec<NodeId>,
    arrivals: Vec<SimTime>,
}

impl NodeProgram for Mcast {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => {
                if self.members.contains(&node) {
                    ctx.watch_counter(slice0(node), CounterId(3), 1);
                }
                if node == self.src {
                    let pkt = Packet::write(
                        slice0(node),
                        slice0(node), // overridden by multicast
                        0x40,
                        Payload::F64s(vec![9.0]),
                    )
                    .with_counter(CounterId(3))
                    .into_multicast(PatternId(0), ClientKind::Slice(0));
                    ctx.send(pkt);
                }
            }
            ProgEvent::CounterReached { .. } => {
                self.arrivals.push(ctx.now());
            }
            _ => {}
        }
    }
}

#[test]
fn multicast_delivers_to_every_member_once() {
    let dims = TorusDims::anton_512();
    let src = Coord::new(0, 0, 0);
    // Broadcast along the X ring (the all-reduce building block).
    let pattern = MulticastPattern::line_broadcast(src, Dim::X, dims, false);
    let members: Vec<NodeId> = pattern.delivery_set();
    let src_id = src.node_id(dims);
    let mut fabric = Fabric::new(dims);
    fabric.register_pattern(PatternId(0), &pattern);
    let mut sim = ParSimulation::one_slab(fabric, |_| Mcast {
        src: src_id,
        members: members.clone(),
        arrivals: Vec::new(),
    });
    sim.run();
    let got: Vec<(NodeId, SimTime)> = (0..dims.node_count())
        .map(NodeId)
        .flat_map(|n| sim.program(n).arrivals.iter().map(move |&t| (n, t)))
        .collect();
    assert_eq!(got.len(), 7);
    assert_eq!(got.iter().map(|&(n, _)| n).collect::<Vec<_>>(), members);
    // One injection, one packet per tree edge: 7 link traversals, not
    // 1+2+3+4+3+2+1 = 16 as unicasts would need.
    let stats = &sim.worlds()[0].fabric.stats;
    assert_eq!(stats.packets_sent, 1);
    assert_eq!(stats.link_traversals, 7);
    assert_eq!(stats.packets_delivered, 7);
    // Nearest members (1 hop) arrive at 162 ns + payload tail; farthest
    // (4 hops) at 162+3*76 + tail.
    let tail = anton_net::Timing::default().payload_tail(8);
    assert_eq!(tail, SimDuration::ZERO); // 8 B rides in the header
    let t1 = got
        .iter()
        .find(|&&(n, _)| n == Coord::new(1, 0, 0).node_id(dims))
        .unwrap()
        .1;
    assert_eq!(t1, SimTime::from_ns(162));
    let t4 = got
        .iter()
        .find(|&&(n, _)| n == Coord::new(4, 0, 0).node_id(dims))
        .unwrap()
        .1;
    assert_eq!(t4, SimTime::from_ns(162 + 3 * 76));
}

/// Accumulation memories sum force contributions from many nodes; the
/// result is exact and order-independent, and the accumulation counter's
/// watch fires with the documented extra polling latency.
struct Accumulators {
    target: NodeId,
    senders: Vec<NodeId>,
    done: Option<SimTime>,
}

impl NodeProgram for Accumulators {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => {
                let accum = ClientAddr::new(self.target, ClientKind::Accum(0));
                if node == self.target {
                    ctx.watch_counter(accum, CounterId(1), self.senders.len() as u64);
                }
                if let Some(i) = self.senders.iter().position(|&s| s == node) {
                    let vals = vec![(i as i32 + 1) * 100, -(i as i32), 7];
                    let pkt = Packet::accumulate(slice0(node), accum, 0x200, vals)
                        .with_counter(CounterId(1));
                    ctx.send(pkt);
                }
            }
            ProgEvent::CounterReached { client, .. } => {
                assert_eq!(client, ClientKind::Accum(0));
                self.done = Some(ctx.now());
            }
            _ => {}
        }
    }
}

#[test]
fn accumulation_sums_and_polling_penalty_applies() {
    let dims = TorusDims::new(4, 4, 4);
    let target = Coord::new(0, 0, 0).node_id(dims);
    let senders: Vec<NodeId> = (1..=3).map(|x| Coord::new(x, 0, 0).node_id(dims)).collect();
    let mut sim = ParSimulation::one_slab(Fabric::new(dims), |_| Accumulators {
        target,
        senders: senders.clone(),
        done: None,
    });
    sim.run();
    let t = sim
        .program(target)
        .done
        .expect("accumulation must complete");
    // Sum: (100-0+7)+(200-1+7)+(300-2+7) = [600, -3, 21].
    let sums =
        sim.worlds()[0]
            .fabric
            .accum_read(ClientAddr::new(target, ClientKind::Accum(0)), 0x200, 3);
    assert_eq!(sums, vec![600, -3, 21]);
    // Farthest sender: 2 X hops with wrap (x=3 in a 4-ring is 1 hop... take
    // x=2: 2 hops). The fire time must include the 100 ns accumulation
    // counter polling penalty on top of the last tail arrival.
    let timing = anton_net::Timing::default();
    let last = timing.analytic_latency([2, 0, 0], 12); // x=2 is farthest (2 hops)
    let expect = SimTime::ZERO + last + SimDuration::from_ns_f64(timing.accum_poll_extra_ns);
    assert_eq!(t, expect);
}

/// FIFO messages (migration-style traffic) arrive via the hardware queue
/// and are drained serially by software.
struct FifoTest {
    src: NodeId,
    dst: NodeId,
    n: u32,
    got: Vec<(u64, SimTime)>,
}

impl NodeProgram for FifoTest {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start if node == self.src => {
                for i in 0..self.n {
                    let pkt = Packet::fifo(
                        slice0(node),
                        slice0(self.dst),
                        Payload::Bytes(vec![i as u8; 16]),
                    )
                    .with_tag(i as u64)
                    .with_in_order();
                    ctx.send(pkt);
                }
            }
            ProgEvent::FifoMessage { pkt, .. } => {
                assert_eq!(node, self.dst);
                self.got.push((pkt.tag, ctx.now()));
            }
            _ => {}
        }
    }
}

#[test]
fn fifo_messages_arrive_in_order_and_serially() {
    let dims = TorusDims::new(4, 4, 4);
    let src = Coord::new(0, 0, 0).node_id(dims);
    let dst = Coord::new(1, 0, 0).node_id(dims);
    let mut sim = ParSimulation::one_slab(Fabric::new(dims), |_| FifoTest {
        src,
        dst,
        n: 10,
        got: Vec::new(),
    });
    sim.run();
    let msgs = &sim.program(dst).got;
    assert_eq!(msgs.len(), 10);
    // In-order delivery (fixed pair, in_order flag set).
    let tags: Vec<u64> = msgs.iter().map(|&(t, _)| t).collect();
    assert_eq!(tags, (0..10).collect::<Vec<_>>());
    // Software pops are serialized: consecutive services at least
    // fifo_pop_ns apart.
    for w in msgs.windows(2) {
        let gap = (w[1].1 - w[0].1).as_ns_f64();
        assert!(gap >= 49.9, "gap={gap}");
    }
}

/// Link contention: many simultaneous full packets across one link
/// serialize at the effective link bandwidth.
struct Burst {
    src: NodeId,
    dst: NodeId,
    n: u64,
    done: Option<SimTime>,
}

impl NodeProgram for Burst {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => {
                if node == self.dst {
                    ctx.watch_counter(slice0(self.dst), CounterId(0), self.n);
                }
                if node == self.src {
                    for i in 0..self.n {
                        let pkt = Packet::write(
                            slice0(node),
                            slice0(self.dst),
                            i * 0x200,
                            Payload::Empty,
                        )
                        .with_payload_bytes(256)
                        .with_counter(CounterId(0));
                        ctx.send(pkt);
                    }
                }
            }
            ProgEvent::CounterReached { .. } => self.done = Some(ctx.now()),
            _ => {}
        }
    }
}

#[test]
fn bursts_serialize_at_link_bandwidth() {
    let dims = TorusDims::new(4, 4, 4);
    let src = Coord::new(0, 0, 0).node_id(dims);
    let dst = Coord::new(1, 0, 0).node_id(dims);
    let n = 64u64;
    let mut sim = ParSimulation::one_slab(Fabric::new(dims), |_| Burst {
        src,
        dst,
        n,
        done: None,
    });
    sim.run();
    let t = sim.program(dst).done.unwrap().as_ns_f64();
    // 64 × 256 B data at the 36.8 Gbit/s effective rate = 3562 ns of
    // serialization, plus one base latency. Allow small slack for the
    // pipelined first/last packet accounting.
    let serialization = 64.0 * 256.0 * 8.0 / 36.8;
    assert!(
        t > serialization && t < serialization + 400.0,
        "t={t} serialization={serialization}"
    );
    // Effective delivered data bandwidth approaches 36.8 Gbit/s.
    let gbps = 64.0 * 256.0 * 8.0 / t;
    assert!(gbps > 33.0 && gbps < 36.9, "gbps={gbps}");
}

/// Determinism: the same scenario twice gives identical timings and stats.
#[test]
fn fabric_is_deterministic() {
    let run = || {
        let dims = TorusDims::anton_512();
        let target = Coord::new(4, 4, 4).node_id(dims);
        let senders: Vec<NodeId> = (0..64u32).map(NodeId).collect();
        let mut sim = ParSimulation::one_slab(Fabric::new(dims), |_| Gather {
            target,
            senders: senders.clone(),
            fired: None,
        });
        sim.run();
        let stats = &sim.worlds()[0].fabric.stats;
        (
            sim.program(target).fired,
            stats.packets_delivered,
            stats.link_traversals,
            sim.events_processed(),
        )
    };
    assert_eq!(run(), run());
}

/// FIFO backpressure end to end: flooding a slice with more messages
/// than the 64-entry hardware FIFO holds parks the excess in the network
/// and still delivers everything, in order, as software drains.
struct Flood {
    src: NodeId,
    dst: NodeId,
    n: u64,
    got: Vec<u64>,
}

impl NodeProgram for Flood {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start if node == self.src => {
                for i in 0..self.n {
                    let pkt =
                        Packet::fifo(slice0(node), slice0(self.dst), Payload::Bytes(vec![0; 8]))
                            .with_tag(i)
                            .with_in_order();
                    ctx.send(pkt);
                }
            }
            ProgEvent::FifoMessage { pkt, .. } => {
                self.got.push(pkt.tag);
            }
            _ => {}
        }
    }
}

#[test]
fn fifo_backpressure_preserves_order_and_loses_nothing() {
    let dims = TorusDims::new(4, 1, 1);
    let src = Coord::new(0, 0, 0).node_id(dims);
    let dst = Coord::new(1, 0, 0).node_id(dims);
    let n = 3 * anton_net::FIFO_CAPACITY as u64; // 3x overload
    let mut sim = ParSimulation::one_slab(Fabric::new(dims), |_| Flood {
        src,
        dst,
        n,
        got: Vec::new(),
    });
    sim.run();
    let tags = sim.program(dst).got.clone();
    assert_eq!(tags.len(), n as usize, "lossless under backpressure");
    assert_eq!(tags, (0..n).collect::<Vec<_>>(), "in order");
    assert!(
        sim.worlds()[0].fabric.fifo_backpressure_events(slice0(dst)) > 0,
        "the FIFO must actually have filled"
    );
}

/// The per-source buffer-counter table (the HTIS mechanism): one
/// COUNTER_BY_SOURCE label resolves to different counters per origin.
struct BySource {
    target: NodeId,
    senders: Vec<NodeId>,
    fires: Vec<u16>,
}

impl NodeProgram for BySource {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => {
                if node == self.target {
                    let mut map = std::collections::HashMap::new();
                    for (i, &s) in self.senders.iter().enumerate() {
                        map.insert(s, CounterId(16 + i as u16));
                        ctx.watch_counter(
                            ClientAddr::new(node, ClientKind::Htis),
                            CounterId(16 + i as u16),
                            2,
                        );
                    }
                    ctx.set_source_counter_map(ClientAddr::new(node, ClientKind::Htis), map);
                }
                if self.senders.contains(&node) {
                    for k in 0..2u64 {
                        let pkt = Packet::write(
                            slice0(node),
                            ClientAddr::new(self.target, ClientKind::Htis),
                            0x100 + node.0 as u64 * 8 + k,
                            Payload::Empty,
                        )
                        .with_counter(anton_net::COUNTER_BY_SOURCE);
                        ctx.send(pkt);
                    }
                }
            }
            ProgEvent::CounterReached { counter, client } => {
                assert_eq!(client, ClientKind::Htis);
                self.fires.push(counter.0);
            }
            _ => {}
        }
    }
}

#[test]
fn per_source_buffer_counters_fire_independently() {
    let dims = TorusDims::new(4, 4, 1);
    let target = Coord::new(0, 0, 0).node_id(dims);
    let senders: Vec<NodeId> = [(1u32, 0u32), (2, 0), (0, 1)]
        .iter()
        .map(|&(x, y)| Coord::new(x, y, 0).node_id(dims))
        .collect();
    let mut sim = ParSimulation::one_slab(Fabric::new(dims), |_| BySource {
        target,
        senders: senders.clone(),
        fires: Vec::new(),
    });
    sim.run();
    let mut got = sim.program(target).fires.clone();
    got.sort_unstable();
    assert_eq!(got, vec![16, 17, 18], "one fire per source buffer");
}

/// Header-resident payloads (≤8 B) add no serialization tail: their
/// one-hop latency equals the 0-byte latency, while a full 256-byte
/// payload pays ~50 ns of tail (§III.A).
#[test]
fn header_resident_payloads_skip_serialization() {
    let dims = TorusDims::new(4, 1, 1);
    let t0 = one_way(dims, Coord::new(0, 0, 0), Coord::new(1, 0, 0), 0);
    let t8 = one_way(dims, Coord::new(0, 0, 0), Coord::new(1, 0, 0), 8);
    let t256 = one_way(dims, Coord::new(0, 0, 0), Coord::new(1, 0, 0), 256);
    assert_eq!(t0, t8, "8-byte payloads ride in the header");
    let tail = (t256 - t0).as_ns_f64();
    assert!((45.0..60.0).contains(&tail), "256-byte tail {tail} ns");
}
