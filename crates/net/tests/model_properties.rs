//! Property tests of the timing model and failure-injection tests of
//! the fabric's guard rails.

use anton_net::{
    ClientAddr, ClientKind, CounterId, Ctx, Fabric, FabricError, NodeProgram, Packet, PatternId,
    Payload, ProgEvent, Simulation, Timing,
};
use anton_topo::{Coord, MulticastPattern, NodeId, TorusDims};
use proptest::prelude::*;

proptest! {
    /// Latency is monotone in hops and payload, and additive per
    /// dimension.
    #[test]
    fn analytic_latency_monotone(
        hx in 0u32..5, hy in 0u32..5, hz in 0u32..5,
        p in 0u32..257,
    ) {
        let p = p.min(256);
        let t = Timing::default();
        let base = t.analytic_latency([hx, hy, hz], p);
        // More hops never reduce latency.
        prop_assert!(t.analytic_latency([hx + 1, hy, hz], p) > base);
        prop_assert!(t.analytic_latency([hx, hy + 1, hz], p) > base);
        prop_assert!(t.analytic_latency([hx, hy, hz + 1], p) > base);
        // More payload never reduces latency.
        if p < 256 {
            prop_assert!(t.analytic_latency([hx, hy, hz], p + 1) >= base);
        }
    }

    /// Wire occupancy is monotone in payload and dominated by the
    /// effective-bandwidth bound.
    #[test]
    fn link_occupancy_bounds(p in 0u32..257) {
        let p = p.min(256);
        let t = Timing::default();
        let occ = t.link_occupancy(p);
        if p > 8 {
            prop_assert!(occ > t.link_occupancy(p - 1).min(occ));
        }
        // Effective data rate never exceeds the raw link rate.
        if p > 0 {
            let gbps = p as f64 * 8.0 / occ.as_ns_f64();
            prop_assert!(gbps < anton_net::LINK_RAW_GBPS);
        }
    }

    /// X hops are always at least as expensive as Y/Z hops (the paper's
    /// on-chip-ring asymmetry).
    #[test]
    fn x_dimension_is_the_expensive_one(h in 1u32..5) {
        let t = Timing::default();
        let x = t.analytic_latency([h, 0, 0], 0);
        let y = t.analytic_latency([0, h, 0], 0);
        let z = t.analytic_latency([0, 0, h], 0);
        prop_assert!(x >= y);
        prop_assert_eq!(y, z);
    }
}

// ---- failure injection: the fabric's guard rails must trip ----

struct BadProgram {
    mode: u8,
}

impl NodeProgram for BadProgram {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        if !matches!(pe, ProgEvent::Start) || node.0 != 0 {
            return;
        }
        let me = ClientAddr::new(node, ClientKind::Slice(0));
        match self.mode {
            // Double-watching one counter is a program bug.
            0 => {
                ctx.watch_counter(me, CounterId(0), 5);
                ctx.watch_counter(me, CounterId(0), 7);
            }
            // Sending from an accumulation memory is impossible in
            // hardware.
            1 => {
                let pkt = Packet {
                    uid: 0,
                    src: ClientAddr::new(node, ClientKind::Accum(0)),
                    dest: anton_net::Destination::Unicast(me),
                    kind: anton_net::PacketKind::Write,
                    addr: 0,
                    payload_bytes: 0,
                    crc: anton_net::payload_crc(&Payload::Empty),
                    payload: Payload::Empty,
                    counter: None,
                    in_order: false,
                    tag: 0,
                    route: None,
                    order_seq: None,
                    reinjects: 0,
                };
                ctx.send(pkt);
            }
            // A COUNTER_BY_SOURCE packet with no buffer table programmed.
            2 => {
                let pkt = Packet::write(
                    me,
                    ClientAddr::new(NodeId(1), ClientKind::Htis),
                    0,
                    Payload::Empty,
                )
                .with_counter(anton_net::COUNTER_BY_SOURCE);
                ctx.send(pkt);
            }
            // A multicast referencing an unregistered pattern.
            3 => {
                let pkt = Packet::write(me, me, 0, Payload::Empty)
                    .into_multicast(PatternId(99), ClientKind::Slice(0));
                ctx.send(pkt);
            }
            // A counted write whose payload changed after construction
            // computed its CRC.
            4 => {
                let mut pkt = Packet::write(
                    me,
                    ClientAddr::new(NodeId(1), ClientKind::Slice(0)),
                    8,
                    Payload::F64s(vec![1.0, 2.0]),
                )
                .with_counter(CounterId(3));
                pkt.payload = Payload::F64s(vec![1.0, 3.0]);
                ctx.send(pkt);
            }
            _ => unreachable!(),
        }
    }
}

fn run_bad(mode: u8) -> Simulation<BadProgram> {
    let dims = TorusDims::new(2, 1, 1);
    let mut sim = Simulation::new(Fabric::new(dims), move |_| BadProgram { mode });
    sim.run();
    sim
}

#[test]
#[should_panic(expected = "pending watch")]
fn double_watch_panics() {
    run_bad(0);
}

#[test]
#[should_panic(expected = "cannot send")]
fn accumulation_memory_cannot_send() {
    run_bad(1);
}

/// A COUNTER_BY_SOURCE packet with no buffer table is recorded as a
/// recoverable error on the hot deliver path, not a panic: the write
/// lands, no counter bumps, and the stall is the watchdog's to report.
#[test]
fn by_source_counter_without_mapping_is_recorded() {
    let sim = run_bad(2);
    let fabric = &sim.world.fabric;
    assert_eq!(fabric.stats.delivery_errors, 1);
    assert!(matches!(
        fabric.errors(),
        [FabricError::MissingSourceCounter {
            node: NodeId(1),
            src: NodeId(0)
        }]
    ));
    // The write itself was applied.
    assert_eq!(fabric.stats.packets_delivered, 1);
}

/// A multicast referencing an unregistered pattern is dropped at the
/// source with a recorded error, not a panic.
#[test]
fn unregistered_multicast_pattern_is_recorded() {
    let sim = run_bad(3);
    let fabric = &sim.world.fabric;
    assert_eq!(fabric.stats.packets_unreachable, 1);
    assert_eq!(fabric.stats.packets_delivered, 0);
    assert!(matches!(
        fabric.errors(),
        [FabricError::PatternUnknown {
            pattern: PatternId(99),
            node: NodeId(0)
        }]
    ));
}

/// A payload that no longer matches the CRC computed at construction
/// is discarded at delivery with a recorded error: nothing is written
/// and the packet's counter never moves.
#[test]
fn corrupt_payload_is_discarded_at_delivery() {
    let mut sim = run_bad(4);
    let fabric = &mut sim.world.fabric;
    let dst = ClientAddr::new(NodeId(1), ClientKind::Slice(0));
    assert_eq!(fabric.stats.delivery_errors, 1);
    assert_eq!(fabric.stats.packets_delivered, 0);
    assert_eq!(
        fabric.errors(),
        [FabricError::CorruptDelivery {
            node: NodeId(1),
            client: ClientKind::Slice(0)
        }]
    );
    assert!(fabric.mem_drain_range(dst, 0, u64::MAX).is_empty());
    assert_eq!(fabric.counter_read(dst, CounterId(3)), 0);
}

#[test]
#[should_panic(expected = "already registered")]
fn duplicate_pattern_registration_panics() {
    let dims = TorusDims::new(4, 1, 1);
    let mut fabric = Fabric::new(dims);
    let p = MulticastPattern::build(Coord::new(0, 0, 0), &[Coord::new(1, 0, 0)], dims);
    fabric.register_pattern(PatternId(0), &p);
    fabric.register_pattern(PatternId(0), &p);
}

/// `NetStats::diff` saturates (to zero) instead of panicking or
/// wrapping when a counter was reset between the two snapshots — the
/// documented semantics for diffing across per-step fabric boundaries.
#[test]
fn netstats_diff_saturates_on_counter_reset() {
    let older = anton_net::NetStats {
        packets_sent: 100,
        payload_bytes_delivered: 4096,
        sent_by_node: vec![60, 40],
        ..Default::default()
    };
    let fresh = anton_net::NetStats {
        packets_sent: 7,       // reset + 7 new sends
        sent_by_node: vec![7], // fresh fabric, fewer nodes
        ..Default::default()
    };
    let d = fresh.diff(&older);
    assert_eq!(d.packets_sent, 0, "reset counter saturates to zero");
    assert_eq!(d.payload_bytes_delivered, 0);
    assert_eq!(d.sent_by_node, vec![0]);
    // The normal direction stays exact.
    let d2 = older.diff(&fresh);
    assert_eq!(d2.packets_sent, 93);
    assert_eq!(d2.sent_by_node, vec![53, 40]);
}
