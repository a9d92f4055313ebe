//! Ablation (§III.B vs §III.C): counted remote writes vs. the two
//! alternatives the paper discusses for receiver synchronization —
//! (a) pushing everything through the hardware message FIFO (software
//! pops each message serially), and (b) plain remote writes plus a
//! separate sender-side "data ready" notification round.
//!
//! The scenario is the paper's canonical gather: N sources each deliver
//! one packet to a target, which must learn when all data has arrived.

use anton_bench::report::section;
use anton_des::{SimDuration, SimTime};
use anton_net::{
    ClientAddr, ClientKind, CounterId, Ctx, Fabric, NodeProgram, Packet, ParSimulation, Payload,
    ProgEvent,
};
use anton_topo::{Coord, NodeId, TorusDims};

#[derive(Clone, Copy, PartialEq)]
enum Mechanism {
    CountedWrites,
    Fifo,
    WritePlusNotify,
}

struct Gather {
    mechanism: Mechanism,
    target: NodeId,
    senders: Vec<NodeId>,
    received: u32,
    done: Option<SimTime>,
}

fn slice0(node: NodeId) -> ClientAddr {
    ClientAddr::new(node, ClientKind::Slice(0))
}

impl NodeProgram for Gather {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => {
                let n = self.senders.len() as u64;
                if node == self.target {
                    match self.mechanism {
                        Mechanism::CountedWrites => {
                            ctx.watch_counter(slice0(node), CounterId(0), n)
                        }
                        Mechanism::Fifo => {} // FIFO pops arrive as events
                        Mechanism::WritePlusNotify => {
                            // Data writes are unlabeled; a separate
                            // notification packet per sender bumps the
                            // counter.
                            ctx.watch_counter(slice0(node), CounterId(1), n)
                        }
                    }
                }
                if let Some(i) = self.senders.iter().position(|&s| s == node) {
                    let payload = Payload::F64s(vec![i as f64; 3]);
                    match self.mechanism {
                        Mechanism::CountedWrites => {
                            let pkt =
                                Packet::write(slice0(node), slice0(self.target), i as u64, payload)
                                    .with_counter(CounterId(0));
                            ctx.send(pkt);
                        }
                        Mechanism::Fifo => {
                            let pkt = Packet::fifo(slice0(node), slice0(self.target), payload);
                            ctx.send(pkt);
                        }
                        Mechanism::WritePlusNotify => {
                            let pkt =
                                Packet::write(slice0(node), slice0(self.target), i as u64, payload);
                            ctx.send(pkt);
                            // The in-order flag keeps the notification
                            // behind the data on the same route.
                            let notify = Packet::write(
                                slice0(node),
                                slice0(self.target),
                                0x9000 + i as u64,
                                Payload::Empty,
                            )
                            .with_counter(CounterId(1))
                            .with_in_order();
                            ctx.send(notify);
                        }
                    }
                }
            }
            ProgEvent::CounterReached { .. } => {
                self.done = Some(ctx.now());
            }
            ProgEvent::FifoMessage { .. } => {
                self.received += 1;
                if self.received == self.senders.len() as u32 {
                    self.done = Some(ctx.now());
                }
            }
            _ => unreachable!(),
        }
    }
}

fn run(mechanism: Mechanism, n_senders: u32) -> (SimDuration, u64) {
    let dims = TorusDims::anton_512();
    let target = Coord::new(4, 4, 4).node_id(dims);
    let senders: Vec<NodeId> = (0..n_senders)
        .map(|i| NodeId((i * 7919) % dims.node_count()))
        .filter(|&n| n != target)
        .collect();
    let make = |_| Gather {
        mechanism,
        target,
        senders: senders.clone(),
        received: 0,
        done: None,
    };
    let mut sim = ParSimulation::one_slab(Fabric::new(dims), make);
    sim.run();
    let t = sim.program(target).done.expect("gather completes");
    (t - SimTime::ZERO, sim.merged_stats().packets_sent)
}

fn main() {
    section("Receiver-synchronization ablation: 48-source gather to one node");
    let (counted, counted_pkts) = run(Mechanism::CountedWrites, 48);
    let (fifo, fifo_pkts) = run(Mechanism::Fifo, 48);
    let (notify, notify_pkts) = run(Mechanism::WritePlusNotify, 48);
    println!(
        "counted remote writes : {:>8.2} us, {:>3} packets  (Anton's mechanism)",
        counted.as_us_f64(),
        counted_pkts
    );
    println!(
        "message FIFO + pops   : {:>8.2} us, {:>3} packets  (serial software drain)",
        fifo.as_us_f64(),
        fifo_pkts
    );
    println!(
        "write + notify round  : {:>8.2} us, {:>3} packets  (2x packet count)",
        notify.as_us_f64(),
        notify_pkts
    );
    println!(
        "\ncounted remote writes embed synchronization in the data: no extra\n\
         packets and no per-message software processing on the receiver."
    );
    assert!(counted <= fifo);
    assert!(counted <= notify);
    assert!(notify_pkts >= 2 * counted_pkts);
}
