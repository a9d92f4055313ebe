//! The packet flight recorder: lifecycle hooks and their event log.
//!
//! The fabric calls a [`Recorder`] at every step of a packet's life. The
//! trait's methods all have no-op default bodies, so a recorder
//! implements only the events it cares about and the *disabled* path
//! (no recorder installed) costs the caller a single branch — the hook
//! discipline the tentpole bench guard checks.
//!
//! Clients are identified by their dense per-node index (0–3 the
//! processing slices, 4 the HTIS, 5–6 the accumulation memories) and
//! counters by their raw id, so this crate stays below the network model
//! in the dependency order.

use anton_des::SimTime;
use anton_topo::{LinkDir, NodeId};
use std::collections::VecDeque;

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
            | FlightEvent::Lost { pkt, .. } => Some(*pkt),
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
            | FlightEvent::Lost { at, .. } => *at,
            FlightEvent::LinkReserve { start, .. } => *start,
        }
    }
}

/// Packet-lifecycle hooks. Every method has a no-op default body; a
/// fabric with no recorder installed skips the calls entirely, so
/// instrumentation is zero-cost when disabled.
#[allow(unused_variables)]
pub trait Recorder {
    /// A packet was injected. See [`FlightEvent::Inject`] for the
    /// timestamp semantics.
    #[allow(clippy::too_many_arguments)]
    fn on_inject(
        &mut self,
        pkt: PacketId,
        node: NodeId,
        client: u8,
        dst: Option<NodeId>,
        at: SimTime,
        inj_ready: SimTime,
        inj_start: SimTime,
        wire_ready: SimTime,
        payload_bytes: u32,
    ) {
    }

    /// A link was reserved for one successful traversal.
    fn on_link_reserve(
        &mut self,
        pkt: PacketId,
        node: NodeId,
        link: LinkDir,
        ready: SimTime,
        start: SimTime,
        end: SimTime,
    ) {
    }

    /// A link-layer retransmission happened.
    fn on_retransmit(
        &mut self,
        pkt: PacketId,
        node: NodeId,
        link: LinkDir,
        attempt: u32,
        at: SimTime,
    ) {
    }

    /// A packet head arrived at a node.
    fn on_hop_enter(&mut self, pkt: PacketId, node: NodeId, at: SimTime) {}

    /// A packet head left a node onto its next link.
    fn on_hop_exit(&mut self, pkt: PacketId, node: NodeId, at: SimTime) {}

    /// A packet was delivered to its target client.
    fn on_deliver(&mut self, pkt: PacketId, node: NodeId, client: u8, at: SimTime) {}

    /// A delivery incremented a synchronization counter.
    #[allow(clippy::too_many_arguments)]
    fn on_counter_update(
        &mut self,
        pkt: PacketId,
        node: NodeId,
        client: u8,
        counter: u16,
        at: SimTime,
        fire_at: Option<SimTime>,
    ) {
    }

    /// The traffic phase label changed.
    fn on_phase(&mut self, label: &str, at: SimTime) {}

    /// A failure detector condemned one outgoing link.
    fn on_link_down(&mut self, node: NodeId, link: LinkDir, cause: VerdictCause, at: SimTime) {}

    /// All outgoing links of a node were condemned.
    fn on_node_down(&mut self, node: NodeId, at: SimTime) {}

    /// A stranded packet re-entered the network after a recovery
    /// backoff.
    fn on_reinject(&mut self, pkt: PacketId, node: NodeId, attempt: u32, at: SimTime) {}

    /// A duplicate delivery was suppressed by the counted-write check.
    fn on_duplicate_suppressed(&mut self, pkt: PacketId, node: NodeId, at: SimTime) {}

    /// The fabric gave one copy of a packet up.
    fn on_lost(&mut self, pkt: PacketId, node: NodeId, cause: LossCause, at: SimTime) {}

    /// Read access to the underlying [`FlightRecorder`], when this
    /// recorder is one. Lets a host that installed a recorder behind a
    /// `Box<dyn Recorder>` read the captured events back without
    /// dynamic downcasting.
    fn as_flight(&self) -> Option<&FlightRecorder> {
        None
    }

    /// Mutable access to the underlying [`FlightRecorder`], when this
    /// recorder is one — how a host takes the recorder back after a run.
    fn as_flight_mut(&mut self) -> Option<&mut FlightRecorder> {
        None
    }

    /// Read access to the underlying [`crate::stream::StreamObserver`],
    /// when this recorder is one — the bounded-memory sibling of
    /// [`Recorder::as_flight`], used by hosts to pull the streamed
    /// summary back out of a `Box<dyn Recorder>`.
    fn as_stream(&self) -> Option<&crate::stream::StreamObserver> {
        None
    }

    /// Mutable access to the underlying
    /// [`crate::stream::StreamObserver`], when this recorder is one: how
    /// the fabric hands it the [`crate::stream::PacketTrail`]s its
    /// packets carry.
    fn as_stream_mut(&mut self) -> Option<&mut crate::stream::StreamObserver> {
        None
    }

    /// The underlying [`crate::stream::StreamObserver`] by value, when
    /// this recorder is one — how a host takes the observer back after a
    /// run without copying its state.
    fn into_stream(self: Box<Self>) -> Option<crate::stream::StreamObserver> {
        None
    }
}

/// A recorder that drops everything (the explicit spelling of the
/// disabled path; a fabric with no recorder installed never even calls
/// it).
#[derive(Debug, Clone, Copy, Default)]
pub struct NopRecorder;

impl Recorder for NopRecorder {}

/// How the flight recorder stores events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Storage {
    /// Keep every event (memory grows with traffic).
    Unbounded,
    /// Keep only the most recent `cap` events (the on-chip logic
    /// analyzer's bounded capture buffer).
    Ring(usize),
}

/// A [`Recorder`] that keeps the event stream for offline analysis:
/// latency attribution ([`crate::breakdown`]), Chrome-trace export
/// ([`crate::chrome_trace`]), and the tests' lifecycle invariants.
///
/// Memory is bounded by [`FlightRecorder::with_ring`], which keeps only
/// the newest events.
#[derive(Debug)]
pub struct FlightRecorder {
    events: VecDeque<FlightEvent>,
    storage: Storage,
    /// Events dropped by the ring buffer.
    dropped: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// An unbounded recorder capturing every packet.
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            events: VecDeque::new(),
            storage: Storage::Unbounded,
            dropped: 0,
        }
    }

    /// Ring-buffer mode: keep only the newest `cap` events.
    pub fn with_ring(mut self, cap: usize) -> FlightRecorder {
        assert!(cap > 0, "ring capacity must be positive");
        self.storage = Storage::Ring(cap);
        self
    }

    fn push(&mut self, ev: FlightEvent) {
        if let Storage::Ring(cap) = self.storage {
            if self.events.len() >= cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(ev);
    }

    /// All kept events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.events.iter()
    }

    /// Number of kept events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was kept.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring buffer so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain the kept events, oldest first.
    pub fn take_events(&mut self) -> Vec<FlightEvent> {
        self.events.drain(..).collect()
    }
}

impl Recorder for FlightRecorder {
    fn on_inject(
        &mut self,
        pkt: PacketId,
        node: NodeId,
        client: u8,
        dst: Option<NodeId>,
        at: SimTime,
        inj_ready: SimTime,
        inj_start: SimTime,
        wire_ready: SimTime,
        payload_bytes: u32,
    ) {
        self.push(FlightEvent::Inject {
            pkt,
            node,
            client,
            dst,
            at,
            inj_ready,
            inj_start,
            wire_ready,
            payload_bytes,
        });
    }

    fn on_link_reserve(
        &mut self,
        pkt: PacketId,
        node: NodeId,
        link: LinkDir,
        ready: SimTime,
        start: SimTime,
        end: SimTime,
    ) {
        self.push(FlightEvent::LinkReserve {
            pkt,
            node,
            link,
            ready,
            start,
            end,
        });
    }

    fn on_retransmit(
        &mut self,
        pkt: PacketId,
        node: NodeId,
        link: LinkDir,
        attempt: u32,
        at: SimTime,
    ) {
        self.push(FlightEvent::Retransmit {
            pkt,
            node,
            link,
            attempt,
            at,
        });
    }

    fn on_hop_enter(&mut self, pkt: PacketId, node: NodeId, at: SimTime) {
        self.push(FlightEvent::HopEnter { pkt, node, at });
    }

    fn on_hop_exit(&mut self, pkt: PacketId, node: NodeId, at: SimTime) {
        self.push(FlightEvent::HopExit { pkt, node, at });
    }

    fn on_deliver(&mut self, pkt: PacketId, node: NodeId, client: u8, at: SimTime) {
        self.push(FlightEvent::Deliver {
            pkt,
            node,
            client,
            at,
        });
    }

    fn on_counter_update(
        &mut self,
        pkt: PacketId,
        node: NodeId,
        client: u8,
        counter: u16,
        at: SimTime,
        fire_at: Option<SimTime>,
    ) {
        self.push(FlightEvent::CounterUpdate {
            pkt,
            node,
            client,
            counter,
            at,
            fire_at,
        });
    }

    fn on_phase(&mut self, label: &str, at: SimTime) {
        self.push(FlightEvent::Phase {
            label: label.to_owned(),
            at,
        });
    }

    fn on_link_down(&mut self, node: NodeId, link: LinkDir, cause: VerdictCause, at: SimTime) {
        self.push(FlightEvent::LinkDown {
            node,
            link,
            cause,
            at,
        });
    }

    fn on_node_down(&mut self, node: NodeId, at: SimTime) {
        self.push(FlightEvent::NodeDown { node, at });
    }

    fn on_reinject(&mut self, pkt: PacketId, node: NodeId, attempt: u32, at: SimTime) {
        self.push(FlightEvent::Reinject {
            pkt,
            node,
            attempt,
            at,
        });
    }

    fn on_duplicate_suppressed(&mut self, pkt: PacketId, node: NodeId, at: SimTime) {
        self.push(FlightEvent::DuplicateSuppressed { pkt, node, at });
    }

    fn on_lost(&mut self, pkt: PacketId, node: NodeId, cause: LossCause, at: SimTime) {
        self.push(FlightEvent::Lost {
            pkt,
            node,
            cause,
            at,
        });
    }

    fn as_flight(&self) -> Option<&FlightRecorder> {
        Some(self)
    }

    fn as_flight_mut(&mut self) -> Option<&mut FlightRecorder> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn nop_recorder_compiles_all_defaults() {
        let mut r = NopRecorder;
        r.on_hop_enter(PacketId(1), NodeId(0), t(5));
        r.on_phase("x", t(0));
    }

    #[test]
    fn ring_buffer_bounds_memory() {
        let mut r = FlightRecorder::new().with_ring(3);
        for i in 0..10 {
            r.on_hop_enter(PacketId(i), NodeId(0), t(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 7);
        let first = r.events().next().unwrap();
        assert_eq!(first.packet(), Some(PacketId(7)));
    }
}
