//! The packet flight record: one [`FlightEvent`] per step of a packet's
//! life.
//!
//! The fabric builds an event at every step — inject, link reserve,
//! retransmit, hop enter/exit, deliver, counter update, and the recovery
//! and loss events — and hands it to its observer: a flight record keeps
//! the event, the stream observer ([`crate::StreamObserver::record`])
//! folds it. With no observer installed the event is never built, so the
//! disabled path costs one branch per hook site.
//!
//! Clients are identified by their dense per-node index (0–3 the
//! processing slices, 4 the HTIS, 5–6 the accumulation memories) and
//! counters by their raw id, so this crate stays below the network model
//! in the dependency order.

use anton_des::SimTime;
use anton_topo::{LinkDir, NodeId};

/// Identifies one injected packet. Assigned densely by the fabric at
/// injection, in deterministic injection order; multicast copies share
/// their original's id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PacketId(pub u64);

/// Why a failure detector promoted transient loss to a permanent-failure
/// verdict (runtime fault recovery, DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerdictCause {
    /// The link-layer retransmit budget exhausted: the ack/retransmit
    /// protocol gave up, which is itself the detection signal.
    RetryBudget,
    /// No acknowledgement within the heartbeat/idle deadline: the link
    /// went silently dead and the sender's idle timer expired.
    Heartbeat,
}

/// Why the fabric gave a packet up (each counts once in
/// `NetStats::packets_lost`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossCause {
    /// The next link was permanently dead.
    DeadLink,
    /// The link-layer retransmit budget ran out.
    RetryBudget,
    /// No surviving route (or no multicast table entry) from the node.
    NoRoute,
}

/// One recorded packet-lifecycle event. Field names follow the model's
/// timeline: a send issues at `at`, finishes packet assembly at
/// `inj_ready`, wins the injection port at `inj_start`, and is ready for
/// its first torus link at `wire_ready`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightEvent {
    /// A client injected a packet (`Fabric::send`).
    Inject {
        /// The packet.
        pkt: PacketId,
        /// Sending node.
        node: NodeId,
        /// Sending client (dense index).
        client: u8,
        /// Destination node for unicast; `None` for multicast.
        dst: Option<NodeId>,
        /// Time software issued the send.
        at: SimTime,
        /// Packet assembly done (send setup elapsed).
        inj_ready: SimTime,
        /// Injection port won (≥ `inj_ready` under port contention).
        inj_start: SimTime,
        /// Ready for the first torus link (send-side ring crossed). For
        /// same-node writes this equals `at`: the whole local trip is
        /// attributed to delivery.
        wire_ready: SimTime,
        /// Modeled wire payload size.
        payload_bytes: u32,
    },
    /// A torus link direction was reserved for one traversal.
    LinkReserve {
        /// The packet.
        pkt: PacketId,
        /// Node whose outgoing link was reserved.
        node: NodeId,
        /// The link direction.
        link: LinkDir,
        /// When the packet was ready for the link.
        ready: SimTime,
        /// When the successful traversal started (≥ `ready` under
        /// contention or after retransmissions).
        start: SimTime,
        /// When the link frees (start + occupancy).
        end: SimTime,
    },
    /// A link-layer retransmission (fault-injection runs only).
    Retransmit {
        /// The packet.
        pkt: PacketId,
        /// Node whose link retransmitted.
        node: NodeId,
        /// The link direction.
        link: LinkDir,
        /// 1-based attempt number that failed.
        attempt: u32,
        /// When the failed attempt started.
        at: SimTime,
    },
    /// A packet head reached a node's receive adapter.
    HopEnter {
        /// The packet.
        pkt: PacketId,
        /// The node entered.
        node: NodeId,
        /// Head arrival time.
        at: SimTime,
    },
    /// A packet head left a node onto its next link.
    HopExit {
        /// The packet.
        pkt: PacketId,
        /// The node exited.
        node: NodeId,
        /// Start time of the next link traversal.
        at: SimTime,
    },
    /// A packet's tail was applied to its target client.
    Deliver {
        /// The packet.
        pkt: PacketId,
        /// Delivery node.
        node: NodeId,
        /// Target client (dense index).
        client: u8,
        /// Delivery time.
        at: SimTime,
    },
    /// A synchronization counter was incremented by a delivery.
    CounterUpdate {
        /// The packet that bumped the counter.
        pkt: PacketId,
        /// Node owning the counter.
        node: NodeId,
        /// Client owning the counter (dense index).
        client: u8,
        /// Raw counter id.
        counter: u16,
        /// Increment time (the delivery time).
        at: SimTime,
        /// When the armed watch becomes visible to software, if this
        /// increment fired one (includes core-busy and accumulation-poll
        /// delays — the paper's "synchronization" stage).
        fire_at: Option<SimTime>,
    },
    /// A phase label change (`Ctx::set_phase`); marks MD sub-phases in
    /// exported traces.
    Phase {
        /// The new phase label.
        label: String,
        /// When it took effect.
        at: SimTime,
    },
    /// A failure detector promoted transient loss on one outgoing link
    /// to a permanent `LinkDown` verdict (recovery runs only).
    LinkDown {
        /// Node owning the outgoing link.
        node: NodeId,
        /// The condemned link direction.
        link: LinkDir,
        /// Which detector fired.
        cause: VerdictCause,
        /// Simulated detection time.
        at: SimTime,
    },
    /// All six outgoing links of a node were condemned: the node itself
    /// is declared dead (recovery runs only).
    NodeDown {
        /// The condemned node.
        node: NodeId,
        /// When the last of its links was condemned.
        at: SimTime,
    },
    /// A stranded packet re-entered the network after a recovery
    /// backoff, with its route recomputed around detected failures.
    Reinject {
        /// The packet.
        pkt: PacketId,
        /// Node the packet was stranded at (the re-injection point).
        node: NodeId,
        /// 1-based recovery attempt number.
        attempt: u32,
        /// Re-injection time (detection time + seeded backoff).
        at: SimTime,
    },
    /// A delivery was suppressed because the counted remote write had
    /// already been applied (at-least-once transport, exactly-once
    /// effect).
    DuplicateSuppressed {
        /// The packet (same id as the applied copy).
        pkt: PacketId,
        /// Delivery node.
        node: NodeId,
        /// When the duplicate arrived.
        at: SimTime,
    },
    /// The fabric gave one copy of a packet up: the last event of that
    /// copy, as `Deliver` and `DuplicateSuppressed` are of the others.
    Lost {
        /// The packet.
        pkt: PacketId,
        /// Node where the copy was dropped.
        node: NodeId,
        /// Why it was dropped.
        cause: LossCause,
        /// When it was given up.
        at: SimTime,
    },
    /// A copy reached its target but failed the end-to-end payload CRC
    /// and was discarded unapplied: the last event of that copy. Not a
    /// loss — it counts in `NetStats::delivery_errors`, not
    /// `packets_lost`.
    Discarded {
        /// The packet.
        pkt: PacketId,
        /// Delivery node.
        node: NodeId,
        /// When the copy was discarded.
        at: SimTime,
    },
}

impl FlightEvent {
    /// The packet this event belongs to (`None` for phase marks and
    /// failure verdicts, which concern a link or node, not one packet).
    pub fn packet(&self) -> Option<PacketId> {
        match self {
            FlightEvent::Inject { pkt, .. }
            | FlightEvent::LinkReserve { pkt, .. }
            | FlightEvent::Retransmit { pkt, .. }
            | FlightEvent::HopEnter { pkt, .. }
            | FlightEvent::HopExit { pkt, .. }
            | FlightEvent::Deliver { pkt, .. }
            | FlightEvent::CounterUpdate { pkt, .. }
            | FlightEvent::Reinject { pkt, .. }
            | FlightEvent::DuplicateSuppressed { pkt, .. }
            | FlightEvent::Lost { pkt, .. }
            | FlightEvent::Discarded { pkt, .. } => Some(*pkt),
            FlightEvent::Phase { .. }
            | FlightEvent::LinkDown { .. }
            | FlightEvent::NodeDown { .. } => None,
        }
    }

    /// The event's timestamp (injection events report the issue time).
    pub fn at(&self) -> SimTime {
        match self {
            FlightEvent::Inject { at, .. }
            | FlightEvent::Retransmit { at, .. }
            | FlightEvent::HopEnter { at, .. }
            | FlightEvent::HopExit { at, .. }
            | FlightEvent::Deliver { at, .. }
            | FlightEvent::CounterUpdate { at, .. }
            | FlightEvent::Phase { at, .. }
            | FlightEvent::LinkDown { at, .. }
            | FlightEvent::NodeDown { at, .. }
            | FlightEvent::Reinject { at, .. }
            | FlightEvent::DuplicateSuppressed { at, .. }
            | FlightEvent::Lost { at, .. }
            | FlightEvent::Discarded { at, .. } => *at,
            FlightEvent::LinkReserve { start, .. } => *start,
        }
    }
}

/// Terse event constructors for the crate's unit tests (times in ns,
/// client 0).
#[cfg(test)]
pub(crate) mod ev {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    /// `src` injects `pkt` for `dst` (`None`: multicast) with anchors
    /// `[issued, inj_ready, inj_start, wire_ready]`.
    pub fn inject(
        pkt: u64,
        src: u32,
        dst: Option<u32>,
        anchors: [u64; 4],
        payload_bytes: u32,
    ) -> FlightEvent {
        let [at, inj_ready, inj_start, wire_ready] = anchors.map(t);
        FlightEvent::Inject {
            pkt: PacketId(pkt),
            node: NodeId(src),
            client: 0,
            dst: dst.map(NodeId),
            at,
            inj_ready,
            inj_start,
            wire_ready,
            payload_bytes,
        }
    }

    /// `node`'s outgoing link number `link` reserved at `[ready, start,
    /// end]`.
    pub fn reserve(pkt: u64, node: u32, link: usize, times: [u64; 3]) -> FlightEvent {
        let [ready, start, end] = times.map(t);
        FlightEvent::LinkReserve {
            pkt: PacketId(pkt),
            node: NodeId(node),
            link: LinkDir::from_index(link),
            ready,
            start,
            end,
        }
    }

    pub fn hop_enter(pkt: u64, node: u32, at: u64) -> FlightEvent {
        FlightEvent::HopEnter {
            pkt: PacketId(pkt),
            node: NodeId(node),
            at: t(at),
        }
    }

    pub fn deliver(pkt: u64, node: u32, at: u64) -> FlightEvent {
        FlightEvent::Deliver {
            pkt: PacketId(pkt),
            node: NodeId(node),
            client: 0,
            at: t(at),
        }
    }

    /// A delivery at `at` bumped `counter`, firing a watch at `fire`.
    pub fn counter(pkt: u64, node: u32, counter: u16, at: u64, fire: Option<u64>) -> FlightEvent {
        FlightEvent::CounterUpdate {
            pkt: PacketId(pkt),
            node: NodeId(node),
            client: 0,
            counter,
            at: t(at),
            fire_at: fire.map(t),
        }
    }
}
