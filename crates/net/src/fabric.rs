//! The network fabric: torus links, on-chip rings, injection ports,
//! multicast tables, and packet delivery.
//!
//! ## Model
//!
//! Packets cut through the network: the *head* of a packet advances with
//! the fixed per-stage latencies of [`crate::timing::Timing`], while each
//! torus link direction is a serial resource occupied for the packet's
//! full wire time (contention backs up subsequent packets in FIFO order).
//! The synchronization counter bumps when the *tail* arrives — base
//! latency plus the payload's serialization time.
//!
//! Anton guarantees lossless, deadlock-free routing via virtual channels
//! (§III.A); we model unbounded link queues, which is lossless and cannot
//! deadlock, and preserves per-pair ordering (deterministic
//! dimension-ordered routes over FIFO links), so the in-order header flag
//! is honored by construction.

use crate::fault::{self, FabricError, FaultPlan, TransientFault, WatchdogReport};
use crate::memory::{AccumMemory, LocalMemory, MsgFifo, SyncCounters};
use crate::packet::{
    ClientAddr, ClientKind, CounterId, Destination, Packet, PacketKind, PatternId, Payload,
    SourceRoute, COUNTER_BY_SOURCE,
};
use crate::recovery::{FailureVerdict, RecoveryConfig, RecoveryStats};
use crate::timing::Timing;
use anton_des::{Activity, Scheduler, SimDuration, SimTime, Tracer, TrackId};
use anton_obs::{
    FlightRecorder, MetricsRegistry, PacketId, Recorder, StreamConfig, StreamObserver,
    StreamSummary, VerdictCause,
};
use anton_topo::{Coord, Dim, LinkDir, LinkMask, MulticastPattern, NodeId, Route, TorusDims};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Capacity (in messages) of each slice's hardware message FIFO. The paper
/// doesn't publish the size; migration bursts are tens of messages, so 64
/// exercises backpressure only under deliberately abusive tests.
pub const FIFO_CAPACITY: usize = 64;

/// Cap on the fabric's recoverable-error log: counters keep exact totals,
/// the log keeps the first occurrences for diagnosis.
pub const ERROR_LOG_CAP: usize = 64;

/// Events produced and consumed by the fabric (plus program dispatches).
#[derive(Debug)]
pub enum Ev {
    /// Kick off all node programs at time zero.
    Start,
    /// A packet's head arrived at `node`'s receive adapter having entered
    /// along dimension `in_dim`.
    HopArrive {
        /// The packet in flight.
        pkt: Packet,
        /// The node whose receive adapter the head reached.
        node: NodeId,
        /// Dimension of the link it arrived on.
        in_dim: Dim,
    },
    /// A packet's tail reached its target client at `node`; apply it.
    Deliver {
        /// The arriving packet.
        pkt: Packet,
        /// Delivery node.
        node: NodeId,
        /// Target client on that node.
        client: ClientKind,
    },
    /// Software services one message from a slice's FIFO.
    FifoService {
        /// The node whose FIFO is serviced.
        node: NodeId,
        /// The slice owning the FIFO.
        client: ClientKind,
    },
    /// Dispatch to the node program.
    Prog {
        /// Target node.
        node: NodeId,
        /// The program event.
        pe: ProgEvent,
    },
    /// A watchdog deadline armed by [`crate::world::Ctx::watch_counter_deadline`]
    /// expired; check whether the watch is still pending.
    WatchdogCheck {
        /// Client owning the watched counter.
        addr: ClientAddr,
        /// The watched counter.
        counter: CounterId,
        /// The value the watch waits for.
        target: u64,
    },
    /// A stranded packet re-enters the network at `node` after a
    /// recovery backoff, its route recomputed around detected failures
    /// (runtime fault recovery only). Node-local: the event fires on the
    /// shard owning `node`, so it is exempt from the cross-shard
    /// lookahead bound.
    Reinject {
        /// The stranded packet.
        pkt: Packet,
        /// The node it was stranded at.
        node: NodeId,
    },
}

/// Callbacks into node programs.
#[derive(Debug)]
pub enum ProgEvent {
    /// Simulation start.
    Start,
    /// A watched synchronization counter reached its target.
    CounterReached {
        /// The client whose counter fired.
        client: ClientKind,
        /// Which counter.
        counter: CounterId,
    },
    /// Software popped one message from a client's hardware FIFO.
    FifoMessage {
        /// The slice that drained the message.
        client: ClientKind,
        /// The popped message.
        pkt: Packet,
    },
    /// A timer set via `Ctx::set_timer` or `Ctx::compute` expired.
    Timer {
        /// The client the timer was set for.
        client: ClientKind,
        /// Application-defined tag.
        tag: u64,
    },
}

/// In-order reassembly channel for one source client (runtime fault
/// recovery only): rerouted packets can overtake on disjoint paths, so
/// the destination applies them in sequence order, parking early
/// arrivals.
#[derive(Debug, Default)]
struct InOrderChannel {
    /// Next sequence number to apply.
    next: u64,
    /// Packets that arrived ahead of `next`, keyed by sequence.
    held: BTreeMap<u64, Packet>,
}

/// Per-client simulated state.
#[derive(Debug, Default)]
struct ClientState {
    mem: LocalMemory,
    accum: AccumMemory,
    counters: SyncCounters,
    fifo: Option<MsgFifo<Packet>>,
    /// Pending accumulation-counter watch fire times are handled inline;
    /// nothing else needed per client.
    fifo_service_pending: bool,
    /// Per-source-node counter mapping for COUNTER_BY_SOURCE packets
    /// (the HTIS buffer table).
    source_counters: HashMap<anton_topo::NodeId, CounterId>,
    /// `(source node, uid)` pairs already applied — the counted-write
    /// duplicate check of the recovery protocol (at-least-once
    /// transport, exactly-once effect). Only populated when recovery is
    /// enabled.
    seen: HashSet<(NodeId, u64)>,
    /// In-order reassembly channels, keyed by source client (recovery
    /// runs only).
    inorder: HashMap<ClientAddr, InOrderChannel>,
}

impl ClientState {
    /// The empty state of a `kind` client: slices own a message FIFO.
    fn new(kind: ClientKind) -> ClientState {
        ClientState {
            fifo: matches!(kind, ClientKind::Slice(_)).then(|| MsgFifo::new(FIFO_CAPACITY)),
            ..ClientState::default()
        }
    }
}

/// The machine's per-client state, created the first time a client is
/// mutated. An untouched client reads as the empty state: no memory
/// cells, zero accumulators and counters, no watches, no FIFO traffic.
/// A shard replica therefore only allocates state for the nodes whose
/// events it runs.
struct ClientTable {
    /// Indexed `node*7 + client`; `None` until first mutation.
    slots: Vec<Option<Box<ClientState>>>,
}

impl ClientTable {
    fn new(nodes: usize) -> ClientTable {
        ClientTable {
            slots: std::iter::repeat_with(|| None).take(nodes * 7).collect(),
        }
    }

    /// The client's state, if it was ever mutated.
    fn get(&self, node: NodeId, client: ClientKind) -> Option<&ClientState> {
        self.slots[client_index(node, client)].as_deref()
    }

    /// Mutable access to existing state only: for operations that are
    /// no-ops on the empty state (takes, clears, resets).
    fn get_mut(&mut self, node: NodeId, client: ClientKind) -> Option<&mut ClientState> {
        self.slots[client_index(node, client)].as_deref_mut()
    }

    /// The client's state, created empty on first use.
    fn entry(&mut self, node: NodeId, client: ClientKind) -> &mut ClientState {
        self.slots[client_index(node, client)]
            .get_or_insert_with(|| Box::new(ClientState::new(client)))
    }

    /// Every created client in `node*7 + client` order.
    fn iter(&self) -> impl Iterator<Item = (NodeId, ClientKind, &ClientState)> {
        self.slots.iter().enumerate().filter_map(|(ci, st)| {
            let st = st.as_deref()?;
            Some((NodeId((ci / 7) as u32), ClientKind::ALL[ci % 7], st))
        })
    }
}

/// Aggregate traffic statistics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// Packets injected by clients (a multicast counts once).
    pub packets_sent: u64,
    /// Deliveries into client memories (a multicast counts per member).
    pub packets_delivered: u64,
    /// Total payload bytes delivered.
    pub payload_bytes_delivered: u64,
    /// Individual link-direction occupations.
    pub link_traversals: u64,
    /// Per-node packets sent / delivered (for the paper's "over 250
    /// messages sent and over 500 received per node per time step").
    pub sent_by_node: Vec<u64>,
    /// Per-node delivery counts.
    pub delivered_by_node: Vec<u64>,
    /// Transient drops injected by the fault plan (recovered by
    /// retransmission unless the budget ran out).
    pub faults_dropped: u64,
    /// Transient corruptions injected (caught by the link CRC and
    /// nacked).
    pub faults_corrupted: u64,
    /// Link-layer retransmissions performed (the retransmit-budget
    /// spend).
    pub retransmits: u64,
    /// Traversals that exhausted the retransmit budget; their packets are
    /// lost.
    pub retry_budget_exhausted: u64,
    /// Packets dropped at injection because no surviving route existed.
    pub packets_unreachable: u64,
    /// Packets lost in flight (dead link mid-route or budget exhaustion).
    pub packets_lost: u64,
    /// Packets discarded or degraded at delivery (bad accumulation
    /// payload, FIFO to a FIFO-less client, missing source-counter
    /// mapping, end-to-end CRC mismatch).
    pub delivery_errors: u64,
}

impl NetStats {
    /// Per-counter delta `self − baseline`: what this phase added on top
    /// of a snapshot taken earlier in the same run. Counters are
    /// cumulative and monotone within one fabric, so a later snapshot
    /// minus an earlier one is exact; per-node vectors shorter in the
    /// baseline are treated as zeros (a fabric never shrinks).
    ///
    /// Saturation semantics: if a counter in `self` is *smaller* than
    /// in `baseline` — the counter was reset between the snapshots
    /// (fresh per-step fabric, restarted run) — the delta saturates to
    /// zero instead of panicking or wrapping. A reset makes the true
    /// delta unknowable from the two snapshots alone; zero is the
    /// conservative reading ("nothing attributable to this phase"),
    /// and callers that need exact per-phase deltas across fabric
    /// boundaries should snapshot per fabric and [`NetStats::merge`]
    /// instead.
    pub fn diff(&self, baseline: &NetStats) -> NetStats {
        let sub = |a: u64, b: u64| a.saturating_sub(b);
        let sub_vec = |a: &[u64], b: &[u64]| {
            a.iter()
                .enumerate()
                .map(|(i, &v)| sub(v, b.get(i).copied().unwrap_or(0)))
                .collect()
        };
        NetStats {
            packets_sent: sub(self.packets_sent, baseline.packets_sent),
            packets_delivered: sub(self.packets_delivered, baseline.packets_delivered),
            payload_bytes_delivered: sub(
                self.payload_bytes_delivered,
                baseline.payload_bytes_delivered,
            ),
            link_traversals: sub(self.link_traversals, baseline.link_traversals),
            sent_by_node: sub_vec(&self.sent_by_node, &baseline.sent_by_node),
            delivered_by_node: sub_vec(&self.delivered_by_node, &baseline.delivered_by_node),
            faults_dropped: sub(self.faults_dropped, baseline.faults_dropped),
            faults_corrupted: sub(self.faults_corrupted, baseline.faults_corrupted),
            retransmits: sub(self.retransmits, baseline.retransmits),
            retry_budget_exhausted: sub(
                self.retry_budget_exhausted,
                baseline.retry_budget_exhausted,
            ),
            packets_unreachable: sub(self.packets_unreachable, baseline.packets_unreachable),
            packets_lost: sub(self.packets_lost, baseline.packets_lost),
            delivery_errors: sub(self.delivery_errors, baseline.delivery_errors),
        }
    }

    /// Fold another stats block into this one (accumulating totals
    /// across the per-step fabrics of a multi-step run). Per-node
    /// vectors grow to the longer of the two.
    pub fn merge(&mut self, other: &NetStats) {
        self.packets_sent += other.packets_sent;
        self.packets_delivered += other.packets_delivered;
        self.payload_bytes_delivered += other.payload_bytes_delivered;
        self.link_traversals += other.link_traversals;
        if self.sent_by_node.len() < other.sent_by_node.len() {
            self.sent_by_node.resize(other.sent_by_node.len(), 0);
        }
        for (s, o) in self.sent_by_node.iter_mut().zip(&other.sent_by_node) {
            *s += o;
        }
        if self.delivered_by_node.len() < other.delivered_by_node.len() {
            self.delivered_by_node
                .resize(other.delivered_by_node.len(), 0);
        }
        for (s, o) in self
            .delivered_by_node
            .iter_mut()
            .zip(&other.delivered_by_node)
        {
            *s += o;
        }
        self.faults_dropped += other.faults_dropped;
        self.faults_corrupted += other.faults_corrupted;
        self.retransmits += other.retransmits;
        self.retry_budget_exhausted += other.retry_budget_exhausted;
        self.packets_unreachable += other.packets_unreachable;
        self.packets_lost += other.packets_lost;
        self.delivery_errors += other.delivery_errors;
    }

    /// Publish every counter into a metrics registry under `net.*`
    /// (per-node vectors export as machine-wide max/total, not one
    /// metric per node).
    pub fn record_metrics(&self, reg: &mut MetricsRegistry) {
        reg.set_counter("net.packets_sent", self.packets_sent);
        reg.set_counter("net.packets_delivered", self.packets_delivered);
        reg.set_counter("net.payload_bytes_delivered", self.payload_bytes_delivered);
        reg.set_counter("net.link_traversals", self.link_traversals);
        reg.set_counter("net.faults_dropped", self.faults_dropped);
        reg.set_counter("net.faults_corrupted", self.faults_corrupted);
        reg.set_counter("net.retransmits", self.retransmits);
        reg.set_counter("net.retry_budget_exhausted", self.retry_budget_exhausted);
        reg.set_counter("net.packets_unreachable", self.packets_unreachable);
        reg.set_counter("net.packets_lost", self.packets_lost);
        reg.set_counter("net.delivery_errors", self.delivery_errors);
        reg.set_gauge(
            "net.max_sent_by_node",
            self.sent_by_node.iter().copied().max().unwrap_or(0) as f64,
        );
        reg.set_gauge(
            "net.max_delivered_by_node",
            self.delivered_by_node.iter().copied().max().unwrap_or(0) as f64,
        );
    }
}

/// The simulated communication fabric of one Anton machine.
pub struct Fabric {
    dims: TorusDims,
    timing: Timing,
    /// The fault-injection plan in force ([`FaultPlan::none`] by default).
    fault: FaultPlan,
    /// Link-layer transmission sequence number per unidirectional link
    /// (advanced per attempt; feeds the deterministic fault decisions).
    link_tx_seq: Vec<u64>,
    /// Permanent death time per unidirectional link, from the plan.
    link_dead_at: Vec<Option<SimTime>>,
    /// Mask of links whose permanent failure has already struck, used to
    /// route around them. `None` when the plan has no permanent failures
    /// (the routing fast path).
    route_mask: Option<LinkMask>,
    /// Permanent failures not yet applied to `route_mask`, sorted by
    /// activation time descending (pop from the back as time advances).
    pending_deaths: Vec<(SimTime, usize)>,
    /// Recoverable errors, capped at [`ERROR_LOG_CAP`].
    errors: Vec<FabricError>,
    /// Expired watchdog deadlines (see [`crate::world::Ctx::watch_counter_deadline`]).
    watchdog_reports: Vec<WatchdogReport>,
    /// Busy-until per unidirectional link, indexed `node*6 + link`.
    link_busy: Vec<SimTime>,
    /// Busy-until per client injection port, indexed `node*7 + client`.
    inject_busy: Vec<SimTime>,
    /// Busy-until per slice Tensilica core, indexed `node*7 + client`
    /// (only slice entries are used).
    core_busy: Vec<SimTime>,
    /// Per-node, per-pattern multicast forwarding tables.
    patterns: Vec<HashMap<PatternId, NodePatternEntry>>,
    clients: ClientTable,
    /// Aggregate traffic statistics.
    pub stats: NetStats,
    /// Activity tracer (tracks 0–5 are the six link directions).
    pub tracer: Tracer,
    /// Label applied to link-activity intervals; set via
    /// [`crate::world::Ctx::set_phase`].
    current_label: u16,
    /// Packet-lifecycle recorder. `None` (the default) skips every hook
    /// behind a single branch — instrumentation is zero-cost when
    /// disabled, which the microbench guard verifies. `Send` so a fabric
    /// can live inside a parallel-DES shard.
    recorder: Option<Box<dyn Recorder + Send>>,
    /// Next flight-recorder packet id, assigned densely in injection
    /// order (deterministic, so ids are stable across identical runs).
    next_uid: u64,
    /// When set, packet uids are scoped per source node
    /// (`node_index << 40 | per-node counter`) instead of drawn from the
    /// global dense counter. The parallel simulation enables this: each
    /// shard only observes its own nodes' sends, so a global counter
    /// would diverge between shardings — node-scoped ids depend only on
    /// the sending node's own deterministic history. Plain sequential
    /// runs keep the dense ids (sampling `every`-th packet and existing
    /// traces rely on them).
    uid_node_scoped: bool,
    /// Per-node uid counters for the node-scoped mode.
    next_uid_by_node: Vec<u64>,
    /// Runtime fault-recovery policy ([`RecoveryConfig::disabled`] by
    /// default, which keeps every path bit-identical to the
    /// pre-recovery fabric).
    recovery: RecoveryConfig,
    /// Recovery counters, kept separate from [`NetStats`] so the
    /// determinism fingerprints of recovery-disabled runs are unchanged.
    recovery_stats: RecoveryStats,
    /// Per-node bitmask (bit = `LinkDir::index`) of *this node's own*
    /// outgoing links condemned by a failure detector. Strictly
    /// node-local knowledge: a verdict is produced only by events at the
    /// owning node and consulted only when routing at that node, which
    /// is what keeps sequential and sharded-parallel runs bit-identical
    /// (a shard never observes another shard's verdicts, and neither do
    /// we).
    detected_links: Vec<u8>,
    /// Failure-detector verdicts in detection order (diagnosis; also
    /// surfaced as flight-recorder events).
    verdicts: Vec<FailureVerdict>,
    /// Per-(source client, destination client) next in-order sequence
    /// number, assigned at injection (recovery runs only).
    order_tx_seq: HashMap<(ClientAddr, ClientAddr), u64>,
}

#[derive(Debug, Clone, Default)]
struct NodePatternEntry {
    forward: Vec<LinkDir>,
    deliver: bool,
}

fn client_index(node: NodeId, client: ClientKind) -> usize {
    node.index() * 7 + client.index()
}

/// Why a link traversal failed (the caller turns this into either the
/// pre-recovery loss bookkeeping or the runtime-recovery path).
#[derive(Debug, Clone, Copy)]
enum LinkFail {
    /// The link was permanently dead when the attempt would have
    /// started.
    Dead {
        /// When the (blocked) attempt would have started.
        at: SimTime,
    },
    /// The retransmit budget exhausted.
    Budget {
        /// Start of the final failed attempt.
        start: SimTime,
        /// End of the final failed attempt's wire time (= when the
        /// sender gives up; the retry-budget detector's verdict time).
        end: SimTime,
        /// Total attempts made.
        attempts: u32,
        /// Ack ambiguity: the final attempt's data crossed and only the
        /// ack was lost (seeded draw; always false without recovery).
        crossed: bool,
    },
}

impl Fabric {
    /// Build a fabric for the given machine size with default timing.
    pub fn new(dims: TorusDims) -> Fabric {
        Fabric::with_timing(dims, Timing::default())
    }

    /// Build with explicit timing (ablations perturb constants).
    pub fn with_timing(dims: TorusDims, timing: Timing) -> Fabric {
        Fabric::with_faults(dims, timing, FaultPlan::none())
    }

    /// Build with explicit timing and a fault-injection plan.
    pub fn with_faults(dims: TorusDims, timing: Timing, fault: FaultPlan) -> Fabric {
        Fabric::with_recovery(dims, timing, fault, RecoveryConfig::disabled())
    }

    /// Build with explicit timing, a fault-injection plan, and a runtime
    /// fault-recovery policy (DESIGN.md §12).
    pub fn with_recovery(
        dims: TorusDims,
        timing: Timing,
        fault: FaultPlan,
        recovery: RecoveryConfig,
    ) -> Fabric {
        let n = dims.node_count() as usize;
        let link_dead_at = fault.link_death_times(dims);
        let (route_mask, pending_deaths) = if fault.has_permanent() {
            let mut mask = LinkMask::none(dims);
            let mut pending: Vec<(SimTime, usize)> = Vec::new();
            for (idx, t) in link_dead_at.iter().enumerate() {
                if let Some(t) = t {
                    if *t == SimTime::ZERO {
                        let node = NodeId((idx / 6) as u32).coord(dims);
                        mask.kill_link(node, LinkDir::from_index(idx % 6));
                    } else {
                        pending.push((*t, idx));
                    }
                }
            }
            pending.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)));
            (Some(mask), pending)
        } else {
            (None, Vec::new())
        };
        Fabric {
            dims,
            timing,
            fault,
            link_tx_seq: vec![0; n * 6],
            link_dead_at,
            route_mask,
            pending_deaths,
            errors: Vec::new(),
            watchdog_reports: Vec::new(),
            link_busy: vec![SimTime::ZERO; n * 6],
            inject_busy: vec![SimTime::ZERO; n * 7],
            core_busy: vec![SimTime::ZERO; n * 7],
            patterns: vec![HashMap::new(); n],
            clients: ClientTable::new(n),
            stats: NetStats {
                sent_by_node: vec![0; n],
                delivered_by_node: vec![0; n],
                ..Default::default()
            },
            tracer: Tracer::disabled(),
            current_label: 0,
            recorder: None,
            next_uid: 0,
            uid_node_scoped: false,
            next_uid_by_node: Vec::new(),
            recovery,
            recovery_stats: RecoveryStats::default(),
            detected_links: vec![0; n],
            verdicts: Vec::new(),
            order_tx_seq: HashMap::new(),
        }
    }

    /// The runtime fault-recovery policy in force.
    pub fn recovery_config(&self) -> &RecoveryConfig {
        &self.recovery
    }

    /// Recovery-subsystem counters (all zero unless recovery is
    /// enabled).
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery_stats
    }

    /// Failure-detector verdicts issued so far, in detection order.
    pub fn verdicts(&self) -> &[FailureVerdict] {
        &self.verdicts
    }

    /// Switch packet-uid assignment to node-scoped ids
    /// (`node_index << 40 | counter`). Used by the parallel simulation,
    /// where uids must be derivable from per-node history alone; call
    /// before any packet is sent.
    pub fn enable_node_scoped_uids(&mut self) {
        assert_eq!(
            self.next_uid, 0,
            "uid mode must be chosen before the first send"
        );
        self.uid_node_scoped = true;
        self.next_uid_by_node = vec![0; self.dims.node_count() as usize];
    }

    /// Enable activity tracing (disabled by default; costs memory).
    pub fn enable_tracing(&mut self) {
        let mut tracer = Tracer::enabled();
        let units = self.dims.node_count() as u64;
        for (i, l) in LinkDir::ALL.iter().enumerate() {
            tracer.name_track(TrackId(i as u16), format!("{l} links"));
            tracer.set_track_units(TrackId(i as u16), units);
        }
        self.tracer = tracer;
    }

    /// Install a [`FlightRecorder`] the fabric itself owns: every hook
    /// call is a direct push, so per-shard recording in parallel runs
    /// stays lock-free. Read the captured events back through
    /// [`Fabric::flight_recorder`], or take the recorder out with
    /// [`Fabric::take_flight_recorder`].
    pub fn attach_owned_flight_recorder(&mut self) {
        self.attach_owned_flight_recorder_with(FlightRecorder::new());
    }

    /// Like [`Fabric::attach_owned_flight_recorder`] but with a
    /// caller-built recorder (ring-buffered, sampled, …).
    pub fn attach_owned_flight_recorder_with(&mut self, rec: FlightRecorder) {
        self.recorder = Some(Box::new(rec));
    }

    /// The installed recorder's [`FlightRecorder`] view, when the
    /// recorder is one.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_deref().and_then(|r| r.as_flight())
    }

    /// Remove the installed [`FlightRecorder`] and hand it back with
    /// everything it captured; `None` (and nothing removed) when the
    /// recorder is not one.
    pub fn take_flight_recorder(&mut self) -> Option<FlightRecorder> {
        let rec = std::mem::take(self.recorder.as_deref_mut()?.as_flight_mut()?);
        self.recorder = None;
        Some(rec)
    }

    /// Install a bounded-memory [`StreamObserver`] as the fabric's
    /// recorder. Unlike flight recording, delivered packets are folded
    /// into streaming sketches on the fly and their events dropped, so
    /// observability memory stays O(nodes + links) at any scale.
    pub fn attach_stream_observer(&mut self, cfg: StreamConfig) {
        self.recorder = Some(Box::new(StreamObserver::new(cfg)));
    }

    /// The installed recorder's [`StreamObserver`] view, when the
    /// recorder is one.
    pub fn stream_observer(&self) -> Option<&StreamObserver> {
        self.recorder.as_deref().and_then(|r| r.as_stream())
    }

    /// Snapshot of the stream observer's summary, when one is
    /// installed. The snapshot is mergeable across shards; callers
    /// owning the final copy should [`StreamSummary::finalize`] it to
    /// classify still-open packet lifecycles.
    pub fn stream_summary(&self) -> Option<StreamSummary> {
        self.stream_observer().map(|o| o.summary())
    }

    /// Machine dimensions.
    pub fn dims(&self) -> TorusDims {
        self.dims
    }

    /// The timing model in force.
    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    /// Install a multicast pattern under `id` (the same id on every node
    /// the tree touches, as the hardware tables work). Panics if any node
    /// would exceed the 256-pattern hardware limit or the id is taken.
    pub fn register_pattern(&mut self, id: PatternId, pattern: &MulticastPattern) {
        assert_eq!(pattern.dims(), self.dims, "pattern built for other dims");
        for (node, entry) in pattern.entries() {
            let table = &mut self.patterns[node.index()];
            assert!(
                !table.contains_key(&id),
                "pattern id {} already registered on node {}",
                id.0,
                node.0
            );
            assert!(
                table.len() < anton_topo::MAX_PATTERNS_PER_NODE,
                "node {} exceeds 256 multicast patterns",
                node.0
            );
            table.insert(
                id,
                NodePatternEntry {
                    forward: entry.forward.clone(),
                    deliver: entry.deliver,
                },
            );
        }
    }

    /// Remove a pattern everywhere (bond-program regeneration reprograms
    /// tables between epochs).
    pub fn unregister_pattern(&mut self, id: PatternId) {
        for table in &mut self.patterns {
            table.remove(&id);
        }
    }

    /// Reserve a unidirectional link for one traversal, folding in the
    /// link-layer reliability protocol: every attempt the fault plan
    /// drops or corrupts charges the link for its wasted wire time plus
    /// the recovery delay (ack timeout with exponential backoff for
    /// silent drops, nack turnaround for CRC-caught corruption). Returns
    /// the start time of the successful attempt, or a [`LinkFail`]
    /// describing why the traversal failed (dead link, or retransmit
    /// budget exhausted) — the caller decides between counting the
    /// packet lost (the pre-recovery behavior, via
    /// [`Fabric::record_link_loss`]) and the runtime-recovery path. With
    /// [`FaultPlan::none`] no draws happen and the timing is identical to
    /// a fabric without the fault layer.
    fn reserve_link(
        &mut self,
        uid: u64,
        node: NodeId,
        link: LinkDir,
        ready: SimTime,
        payload_bytes: u32,
    ) -> Result<SimTime, LinkFail> {
        let idx = node.index() * 6 + link.index();
        let dead_at = self.link_dead_at[idx];
        let occ = self.timing.link_occupancy(payload_bytes);
        let mut start = ready.max(self.link_busy[idx]);
        if matches!(dead_at, Some(d) if start >= d) {
            return Err(LinkFail::Dead { at: start });
        }
        if self.fault.has_transients() {
            let retry = self.fault.retry;
            let mut failed: u32 = 0;
            loop {
                let seq = self.link_tx_seq[idx];
                self.link_tx_seq[idx] += 1;
                let Some(f) = self.fault.transient_fault(idx, seq) else {
                    break;
                };
                let penalty = match f {
                    TransientFault::Drop => {
                        self.stats.faults_dropped += 1;
                        retry.drop_penalty(failed)
                    }
                    TransientFault::Corrupt => {
                        self.stats.faults_corrupted += 1;
                        retry.nack_penalty()
                    }
                };
                if failed >= retry.max_retries {
                    // Budget exhausted: the wire time of the failed
                    // attempts still occupied the link.
                    self.link_busy[idx] = start + occ;
                    self.stats.retry_budget_exhausted += 1;
                    // Ack ambiguity (recovery only): did the final
                    // attempt's data cross with just the ack lost? A
                    // pure seeded draw — false whenever recovery is off.
                    let crossed = self.recovery.final_attempt_crossed(idx as u64, uid);
                    return Err(LinkFail::Budget {
                        start,
                        end: start + occ,
                        attempts: failed + 1,
                        crossed,
                    });
                }
                self.stats.retransmits += 1;
                if let Some(rec) = self.recorder.as_mut() {
                    rec.on_retransmit(PacketId(uid), node, link, failed + 1, start);
                }
                start = start + occ + penalty;
                failed += 1;
                if let Some(d) = dead_at {
                    if start >= d {
                        // The link died mid-retransmit-sequence.
                        self.link_busy[idx] = d;
                        return Err(LinkFail::Dead { at: start });
                    }
                }
            }
        }
        self.link_busy[idx] = start + occ;
        self.stats.link_traversals += 1;
        if self.tracer.is_enabled() {
            self.tracer.record(
                TrackId(link.index() as u16),
                Activity::Busy,
                start,
                start + occ,
                self.current_label,
            );
        }
        if let Some(rec) = self.recorder.as_mut() {
            rec.on_link_reserve(PacketId(uid), node, link, ready, start, start + occ);
        }
        Ok(start)
    }

    /// Record a failed traversal as a packet loss — exactly the
    /// pre-recovery bookkeeping. Multicast branches always take this
    /// path (hardware pattern tables do not reroute); unicast packets
    /// take it when recovery is disabled or the re-injection budget is
    /// spent.
    fn record_link_loss(&mut self, node: NodeId, link: LinkDir, fail: &LinkFail) {
        match *fail {
            LinkFail::Dead { .. } => {
                self.record_error(FabricError::DeadLink { node, link });
            }
            LinkFail::Budget { attempts, .. } => {
                self.record_error(FabricError::RetryBudgetExhausted {
                    node,
                    link,
                    attempts,
                });
            }
        }
        self.stats.packets_lost += 1;
    }

    /// Failure detection: promote a failed traversal to a `LinkDown`
    /// verdict. Retransmit-budget exhaustion is its own evidence (the
    /// protocol gave up at a known time); a silently dead link is
    /// noticed by the heartbeat/idle deadline after the attempt started.
    fn detect(&self, fail: &LinkFail) -> (VerdictCause, SimTime) {
        match *fail {
            LinkFail::Dead { at } => (
                VerdictCause::Heartbeat,
                at + SimDuration::from_ns_f64(self.recovery.heartbeat_timeout_ns),
            ),
            LinkFail::Budget { end, .. } => (VerdictCause::RetryBudget, end),
        }
    }

    /// Issue a `LinkDown` verdict for `node`'s outgoing `link` (idempotent
    /// per link); when it is the node's sixth condemned link, escalate to
    /// a `NodeDown` verdict.
    fn record_verdict(&mut self, node: NodeId, link: LinkDir, cause: VerdictCause, at: SimTime) {
        let bit = 1u8 << link.index();
        let det = &mut self.detected_links[node.index()];
        if *det & bit != 0 {
            return;
        }
        *det |= bit;
        let all_down = *det == 0b0011_1111;
        self.recovery_stats.link_verdicts += 1;
        self.verdicts.push(FailureVerdict {
            node,
            link: Some(link),
            cause,
            at,
        });
        if let Some(rec) = self.recorder.as_mut() {
            rec.on_link_down(node, link, cause, at);
        }
        if all_down {
            self.recovery_stats.node_verdicts += 1;
            self.verdicts.push(FailureVerdict {
                node,
                link: None,
                cause,
                at,
            });
            if let Some(rec) = self.recorder.as_mut() {
                rec.on_node_down(node, at);
            }
        }
    }

    /// The routing mask as seen *from `node`*: the globally-known plan
    /// mask (replica-identical by construction) plus this node's own
    /// detected links. `LinkMask` is updated incrementally — the plan
    /// mask is cloned and at most six `kill_link` calls are applied, not
    /// rebuilt from the fault plan.
    fn local_mask(&self, node: NodeId) -> LinkMask {
        let mut mask = match &self.route_mask {
            Some(m) => m.clone(),
            None => LinkMask::none(self.dims),
        };
        let det = self.detected_links[node.index()];
        if det != 0 {
            let coord = node.coord(self.dims);
            for l in LinkDir::ALL {
                if det & (1 << l.index()) != 0 {
                    mask.kill_link(coord, l);
                }
            }
        }
        mask
    }

    /// A multicast branch failed its traversal: issue the detector
    /// verdict (when recovery is on) but always count the subtree lost —
    /// multicast trees are burned into hardware tables and do not
    /// reroute.
    fn link_failed_multicast(&mut self, node: NodeId, link: LinkDir, fail: &LinkFail) {
        if self.recovery.enabled {
            let (cause, at) = self.detect(fail);
            self.record_verdict(node, link, cause, at);
        }
        self.record_link_loss(node, link, fail);
    }

    /// A unicast packet failed its traversal at `node`. Without recovery
    /// this is exactly the pre-recovery loss; with recovery the fabric
    /// issues the detector verdict, forks the ack-ambiguity duplicate
    /// when the final attempt's data crossed, and re-injects the
    /// stranded packet after a seeded exponential backoff until its
    /// budget runs out.
    fn link_failed_unicast(
        &mut self,
        mut pkt: Packet,
        node: NodeId,
        link: LinkDir,
        fail: LinkFail,
        sched: &mut Scheduler<Ev>,
    ) {
        if !self.recovery.enabled {
            self.record_link_loss(node, link, &fail);
            return;
        }
        let (cause, detect_at) = self.detect(&fail);
        self.record_verdict(node, link, cause, detect_at);

        if let LinkFail::Budget {
            start,
            crossed: true,
            ..
        } = fail
        {
            // The data crossed; only the ack was lost. The duplicate
            // continues downstream on the normal timeline and the
            // counted-write check suppresses whichever copy arrives
            // second. Same arrival arithmetic as a successful traversal,
            // so the conservative cross-shard lookahead bound holds.
            self.recovery_stats.duplicate_forks += 1;
            let next = node
                .coord(self.dims)
                .step(link, self.dims)
                .node_id(self.dims);
            sched.at(
                start + self.timing.link_head(),
                Ev::HopArrive {
                    pkt: pkt.clone(),
                    node: next,
                    in_dim: link.dim,
                },
            );
        }

        if pkt.reinjects >= self.recovery.max_reinjects {
            self.record_link_loss(node, link, &fail);
            self.recovery_stats.packets_lost_unrecovered += 1;
            return;
        }
        pkt.reinjects += 1;
        pkt.route = None; // recomputed around the verdict at re-injection
        let attempt = pkt.reinjects;
        let when = detect_at + self.recovery.backoff_delay(pkt.uid, attempt);
        self.recovery_stats.reinjections += 1;
        if let Some(rec) = self.recorder.as_mut() {
            rec.on_reinject(PacketId(pkt.uid), node, attempt, when);
        }
        sched.at(when, Ev::Reinject { pkt, node });
    }

    /// Handle [`Ev::Reinject`]: a stranded packet re-enters the network
    /// at `node` with a route recomputed from the plan mask plus this
    /// node's own verdicts.
    pub fn reinject(
        &mut self,
        mut pkt: Packet,
        node: NodeId,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        self.advance_deaths(now);
        let Destination::Unicast(dst) = pkt.dest else {
            return; // multicast never re-injects
        };
        if dst.node == node {
            let done =
                now + self.timing.recv_overhead() + self.timing.payload_tail(pkt.payload_bytes);
            sched.at(
                done,
                Ev::Deliver {
                    node,
                    client: dst.client,
                    pkt,
                },
            );
            return;
        }
        let cur = node.coord(self.dims);
        let dst_c = dst.node.coord(self.dims);
        let det = self.detected_links[node.index()];
        let plan_dead = self.route_mask.as_ref().is_some_and(|m| m.any_dead());
        let link = if det != 0 || plan_dead {
            let mask = self.local_mask(node);
            match Route::compute_avoiding(cur, dst_c, self.dims, &mask) {
                Ok(route) => {
                    let steps = route.steps().to_vec();
                    let first = steps[0];
                    pkt.route = Some(SourceRoute {
                        steps: Arc::new(steps),
                        next: 1,
                    });
                    first
                }
                Err(_) => {
                    // No surviving route from here with local knowledge.
                    self.stats.packets_lost += 1;
                    self.record_error(FabricError::NoRoute {
                        node,
                        dst: dst.node,
                    });
                    self.recovery_stats.packets_lost_unrecovered += 1;
                    return;
                }
            }
        } else {
            match Route::next_link_from(cur, dst_c, self.dims) {
                Some(l) => l,
                None => {
                    self.stats.packets_lost += 1;
                    self.record_error(FabricError::NoRoute {
                        node,
                        dst: dst.node,
                    });
                    self.recovery_stats.packets_lost_unrecovered += 1;
                    return;
                }
            }
        };
        // The re-entering packet is buffered in the node's receive
        // adapter: charge one router transit before it is wire-ready
        // (which also keeps the downstream hop arrival outside the
        // conservative cross-shard lookahead window).
        let ready = now + self.timing.transit_ring(link.dim, link.dim);
        match self.reserve_link(pkt.uid, node, link, ready, pkt.payload_bytes) {
            Ok(start) => {
                if let Some(rec) = self.recorder.as_mut() {
                    rec.on_hop_exit(PacketId(pkt.uid), node, start);
                }
                let next = cur.step(link, self.dims).node_id(self.dims);
                sched.at(
                    start + self.timing.link_head(),
                    Ev::HopArrive {
                        pkt,
                        node: next,
                        in_dim: link.dim,
                    },
                );
            }
            Err(fail) => self.link_failed_unicast(pkt, node, link, fail, sched),
        }
    }

    /// Apply permanent failures whose activation time has passed to the
    /// routing mask (no-op unless the plan schedules any).
    fn advance_deaths(&mut self, now: SimTime) {
        while let Some(&(t, idx)) = self.pending_deaths.last() {
            if t > now {
                break;
            }
            self.pending_deaths.pop();
            if let Some(mask) = &mut self.route_mask {
                let node = NodeId((idx / 6) as u32).coord(self.dims);
                mask.kill_link(node, LinkDir::from_index(idx % 6));
            }
        }
    }

    /// Log a recoverable error (capped at [`ERROR_LOG_CAP`]; the stats
    /// counters keep exact totals).
    fn record_error(&mut self, e: FabricError) {
        if self.errors.len() < ERROR_LOG_CAP {
            self.errors.push(e);
        }
    }

    /// Recoverable errors recorded so far (first [`ERROR_LOG_CAP`]).
    pub fn errors(&self) -> &[FabricError] {
        &self.errors
    }

    /// Expired watchdog deadlines recorded so far.
    pub fn watchdog_reports(&self) -> &[WatchdogReport] {
        &self.watchdog_reports
    }

    /// The fault plan in force.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// Send a packet. `now` is the time software issues the send. All
    /// downstream progress is scheduled on `sched`.
    pub fn send(&mut self, mut pkt: Packet, now: SimTime, sched: &mut Scheduler<Ev>) {
        assert!(pkt.src.client.can_send(), "client cannot send packets");
        self.advance_deaths(now);
        let src_node = pkt.src.node;
        pkt.uid = if self.uid_node_scoped {
            let c = &mut self.next_uid_by_node[src_node.index()];
            let uid = ((src_node.index() as u64) << 40) | *c;
            *c += 1;
            uid
        } else {
            let uid = self.next_uid;
            self.next_uid += 1;
            uid
        };
        self.stats.packets_sent += 1;
        self.stats.sent_by_node[src_node.index()] += 1;

        // Recovery: rerouted packets can overtake on disjoint paths, so
        // in-order traffic is sequenced at injection and reassembled at
        // the destination.
        if self.recovery.enabled && pkt.in_order {
            if let Destination::Unicast(dst) = pkt.dest {
                let seq = self.order_tx_seq.entry((pkt.src, dst)).or_insert(0);
                pkt.order_seq = Some(*seq);
                *seq += 1;
            }
        }

        // The sending Tensilica core is occupied briefly per send (the
        // full send_setup is pipeline latency, not occupancy).
        let ci = client_index(src_node, pkt.src.client);
        let t0 = if matches!(pkt.src.client, ClientKind::Slice(_)) {
            let t0 = now.max(self.core_busy[ci]);
            self.core_busy[ci] = t0 + SimDuration::from_ns_f64(self.timing.send_issue_ns);
            t0
        } else {
            now
        };

        // Injection-port serialization onto the on-chip ring.
        let inj_ready = t0 + SimDuration::from_ns_f64(self.timing.send_setup_ns);
        let inj_start = inj_ready.max(self.inject_busy[ci]);
        self.inject_busy[ci] = inj_start + self.timing.injection_occupancy(pkt.payload_bytes);

        match pkt.dest {
            Destination::Unicast(dst) => {
                if dst.node == src_node {
                    // Local client-to-client write over the ring only. The
                    // recorder sees all injection anchors collapsed to the
                    // issue time: a local trip never crosses the injection
                    // port, so the whole ring transit attributes to the
                    // delivery stage and stage sums still telescope.
                    if let Some(rec) = self.recorder.as_mut() {
                        rec.on_inject(
                            PacketId(pkt.uid),
                            src_node,
                            pkt.src.client.index() as u8,
                            Some(dst.node),
                            now,
                            now,
                            now,
                            now,
                            pkt.payload_bytes,
                        );
                    }
                    let done = t0
                        + self.timing.local_latency()
                        + self.timing.payload_tail_onchip(pkt.payload_bytes);
                    sched.at(
                        done,
                        Ev::Deliver {
                            node: dst.node,
                            client: dst.client,
                            pkt,
                        },
                    );
                } else {
                    let src_c = src_node.coord(self.dims);
                    let dst_c = dst.node.coord(self.dims);
                    // When permanent failures are active, compute a full
                    // source route around the dead links at injection (a
                    // per-hop detour could livelock); otherwise keep the
                    // fault-free per-hop dimension-ordered decision.
                    // Runtime verdicts about *this node's own* links
                    // fold into the mask — strictly local knowledge, so
                    // sequential and sharded runs route identically.
                    let det = if self.recovery.enabled {
                        self.detected_links[src_node.index()]
                    } else {
                        0
                    };
                    let link = if det != 0 {
                        let mask = self.local_mask(src_node);
                        match Route::compute_avoiding(src_c, dst_c, self.dims, &mask) {
                            Ok(route) => {
                                let steps = route.steps().to_vec();
                                let first = steps[0];
                                pkt.route = Some(SourceRoute {
                                    steps: Arc::new(steps),
                                    next: 1,
                                });
                                first
                            }
                            Err(_) => {
                                self.stats.packets_unreachable += 1;
                                self.record_error(FabricError::Unreachable {
                                    src: src_node,
                                    dst: dst.node,
                                });
                                return;
                            }
                        }
                    } else {
                        match &self.route_mask {
                            Some(mask) if mask.any_dead() => {
                                match Route::compute_avoiding(src_c, dst_c, self.dims, mask) {
                                    Ok(route) => {
                                        let steps = route.steps().to_vec();
                                        let first = steps[0];
                                        pkt.route = Some(SourceRoute {
                                            steps: Arc::new(steps),
                                            next: 1,
                                        });
                                        first
                                    }
                                    Err(_) => {
                                        self.stats.packets_unreachable += 1;
                                        self.record_error(FabricError::Unreachable {
                                            src: src_node,
                                            dst: dst.node,
                                        });
                                        return;
                                    }
                                }
                            }
                            _ => match Route::next_link_from(src_c, dst_c, self.dims) {
                                Some(l) => l,
                                None => {
                                    self.stats.packets_unreachable += 1;
                                    self.record_error(FabricError::NoRoute {
                                        node: src_node,
                                        dst: dst.node,
                                    });
                                    return;
                                }
                            },
                        }
                    };
                    let ready = inj_start + SimDuration::from_ns_f64(self.timing.send_ring_ns);
                    if let Some(rec) = self.recorder.as_mut() {
                        rec.on_inject(
                            PacketId(pkt.uid),
                            src_node,
                            pkt.src.client.index() as u8,
                            Some(dst.node),
                            now,
                            inj_ready,
                            inj_start,
                            ready,
                            pkt.payload_bytes,
                        );
                    }
                    let start = match self.reserve_link(
                        pkt.uid,
                        src_node,
                        link,
                        ready,
                        pkt.payload_bytes,
                    ) {
                        Ok(start) => start,
                        Err(fail) => {
                            // Lost at the first hop; with recovery this
                            // becomes a verdict + re-injection instead.
                            self.link_failed_unicast(pkt, src_node, link, fail, sched);
                            return;
                        }
                    };
                    if let Some(rec) = self.recorder.as_mut() {
                        rec.on_hop_exit(PacketId(pkt.uid), src_node, start);
                    }
                    let next = src_c.step(link, self.dims).node_id(self.dims);
                    sched.at(
                        start + self.timing.link_head(),
                        Ev::HopArrive {
                            pkt,
                            node: next,
                            in_dim: link.dim,
                        },
                    );
                }
            }
            Destination::Multicast { pattern, client } => {
                // Multicast trees are burned into hardware tables and do
                // NOT reroute around failures: a dead branch silently
                // loses that subtree (reserve_link records the loss).
                let Some(entry) = self.patterns[src_node.index()].get(&pattern).cloned() else {
                    self.stats.packets_unreachable += 1;
                    self.record_error(FabricError::PatternUnknown {
                        pattern,
                        node: src_node,
                    });
                    return;
                };
                if entry.deliver {
                    let done = t0
                        + self.timing.local_latency()
                        + self.timing.payload_tail_onchip(pkt.payload_bytes);
                    sched.at(
                        done,
                        Ev::Deliver {
                            node: src_node,
                            client,
                            pkt: pkt.clone(),
                        },
                    );
                }
                let src_c = src_node.coord(self.dims);
                let ready = inj_start + SimDuration::from_ns_f64(self.timing.send_ring_ns);
                if let Some(rec) = self.recorder.as_mut() {
                    // Multicast: destination unknown at injection (`None`);
                    // the copies' deliveries all carry this packet's id.
                    rec.on_inject(
                        PacketId(pkt.uid),
                        src_node,
                        pkt.src.client.index() as u8,
                        None,
                        now,
                        inj_ready,
                        inj_start,
                        ready,
                        pkt.payload_bytes,
                    );
                }
                for l in entry.forward {
                    let start =
                        match self.reserve_link(pkt.uid, src_node, l, ready, pkt.payload_bytes) {
                            Ok(start) => start,
                            Err(fail) => {
                                // This branch's subtree is lost (the
                                // detector still learns from it).
                                self.link_failed_multicast(src_node, l, &fail);
                                continue;
                            }
                        };
                    let next = src_c.step(l, self.dims).node_id(self.dims);
                    sched.at(
                        start + self.timing.link_head(),
                        Ev::HopArrive {
                            pkt: pkt.clone(),
                            node: next,
                            in_dim: l.dim,
                        },
                    );
                }
            }
        }
    }

    /// Handle a packet head arriving at `node`.
    pub fn hop_arrive(
        &mut self,
        mut pkt: Packet,
        node: NodeId,
        in_dim: Dim,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.on_hop_enter(PacketId(pkt.uid), node, now);
        }
        match pkt.dest {
            Destination::Unicast(dst) => {
                if dst.node == node {
                    let done = now
                        + self.timing.recv_overhead()
                        + self.timing.payload_tail(pkt.payload_bytes);
                    sched.at(
                        done,
                        Ev::Deliver {
                            node,
                            client: dst.client,
                            pkt,
                        },
                    );
                } else {
                    let cur = node.coord(self.dims);
                    let dst_c = dst.node.coord(self.dims);
                    // Source-routed packets follow their precomputed
                    // detour; everything else routes per hop.
                    let link = if let Some(sr) = &mut pkt.route {
                        match sr.steps.get(sr.next as usize).copied() {
                            Some(l) => {
                                sr.next += 1;
                                l
                            }
                            None => {
                                // Route exhausted before reaching dst —
                                // only possible if tables changed
                                // mid-flight; count the packet lost.
                                self.stats.packets_lost += 1;
                                self.record_error(FabricError::NoRoute {
                                    node,
                                    dst: dst.node,
                                });
                                return;
                            }
                        }
                    } else if self.recovery.enabled && self.detected_links[node.index()] != 0 {
                        // This router has condemned some of its own
                        // links: detour around them from here (and pin
                        // the rest of the path so a later hop cannot
                        // route back into the detour).
                        let mask = self.local_mask(node);
                        match Route::compute_avoiding(cur, dst_c, self.dims, &mask) {
                            Ok(route) => {
                                let steps = route.steps().to_vec();
                                let first = steps[0];
                                pkt.route = Some(SourceRoute {
                                    steps: Arc::new(steps),
                                    next: 1,
                                });
                                first
                            }
                            Err(_) => {
                                self.stats.packets_lost += 1;
                                self.record_error(FabricError::NoRoute {
                                    node,
                                    dst: dst.node,
                                });
                                self.recovery_stats.packets_lost_unrecovered += 1;
                                return;
                            }
                        }
                    } else {
                        match Route::next_link_from(cur, dst_c, self.dims) {
                            Some(l) => l,
                            None => {
                                self.stats.packets_lost += 1;
                                self.record_error(FabricError::NoRoute {
                                    node,
                                    dst: dst.node,
                                });
                                return;
                            }
                        }
                    };
                    let ready = now + self.timing.transit_ring(in_dim, link.dim);
                    let start =
                        match self.reserve_link(pkt.uid, node, link, ready, pkt.payload_bytes) {
                            Ok(start) => start,
                            Err(fail) => {
                                // Stranded mid-flight; with recovery the
                                // packet re-injects from this hop.
                                self.link_failed_unicast(pkt, node, link, fail, sched);
                                return;
                            }
                        };
                    if let Some(rec) = self.recorder.as_mut() {
                        rec.on_hop_exit(PacketId(pkt.uid), node, start);
                    }
                    let next = cur.step(link, self.dims).node_id(self.dims);
                    sched.at(
                        start + self.timing.link_head(),
                        Ev::HopArrive {
                            pkt,
                            node: next,
                            in_dim: link.dim,
                        },
                    );
                }
            }
            Destination::Multicast { pattern, client } => {
                let Some(entry) = self.patterns[node.index()].get(&pattern).cloned() else {
                    self.stats.packets_lost += 1;
                    self.record_error(FabricError::PatternUnknown { pattern, node });
                    return;
                };
                if entry.deliver {
                    let done = now
                        + self.timing.recv_overhead()
                        + self.timing.payload_tail(pkt.payload_bytes);
                    sched.at(
                        done,
                        Ev::Deliver {
                            node,
                            client,
                            pkt: pkt.clone(),
                        },
                    );
                }
                let cur = node.coord(self.dims);
                for l in entry.forward {
                    let ready = now + self.timing.transit_ring(in_dim, l.dim);
                    let start = match self.reserve_link(pkt.uid, node, l, ready, pkt.payload_bytes)
                    {
                        Ok(start) => start,
                        Err(fail) => {
                            // This branch's subtree is lost (the
                            // detector still learns from it).
                            self.link_failed_multicast(node, l, &fail);
                            continue;
                        }
                    };
                    let next = cur.step(l, self.dims).node_id(self.dims);
                    sched.at(
                        start + self.timing.link_head(),
                        Ev::HopArrive {
                            pkt: pkt.clone(),
                            node: next,
                            in_dim: l.dim,
                        },
                    );
                }
            }
        }
    }

    /// Apply a delivered packet to its target client. Returns the program
    /// events to dispatch (counter fires, FIFO service scheduling happens
    /// here too).
    pub fn deliver(
        &mut self,
        pkt: Packet,
        node: NodeId,
        client: ClientKind,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        // End-to-end payload integrity: the CRC computed at construction
        // must survive the trip. The link layer retransmits corrupted
        // packets, so a mismatch here means memory corruption beyond the
        // fault model — discard rather than apply bad data.
        if pkt.crc != fault::payload_crc(&pkt.payload) {
            self.stats.delivery_errors += 1;
            self.record_error(FabricError::CorruptDelivery { node, client });
            return;
        }
        if self.recovery.enabled {
            // Exactly-once effect over at-least-once transport: the
            // counted-write check drops any copy whose (source node,
            // uid) was already applied — the ack-ambiguity fork, or a
            // re-injected original whose first copy made it through.
            let st = self.clients.entry(node, client);
            if !st.seen.insert((pkt.src.node, pkt.uid)) {
                self.recovery_stats.duplicates_suppressed += 1;
                if let Some(rec) = self.recorder.as_mut() {
                    rec.on_duplicate_suppressed(PacketId(pkt.uid), node, now);
                }
                return;
            }
            // In-order reassembly: a rerouted packet can overtake on a
            // disjoint path; apply strictly in injection sequence,
            // parking early arrivals until their predecessors land.
            if let (true, Some(seq)) = (pkt.in_order, pkt.order_seq) {
                let src = pkt.src;
                let chan = st.inorder.entry(src).or_default();
                if seq > chan.next {
                    self.recovery_stats.inorder_holds += 1;
                    chan.held.insert(seq, pkt);
                    return;
                }
                debug_assert_eq!(seq, chan.next, "duplicate below the seen check");
                chan.next += 1;
                self.apply_delivery(pkt, node, client, now, sched);
                // Drain consecutively-held successors at this instant.
                loop {
                    let chan = self
                        .clients
                        .entry(node, client)
                        .inorder
                        .get_mut(&src)
                        .expect("channel created above");
                    let next_seq = chan.next;
                    let Some(held) = chan.held.remove(&next_seq) else {
                        break;
                    };
                    chan.next += 1;
                    self.apply_delivery(held, node, client, now, sched);
                }
                return;
            }
        }
        self.apply_delivery(pkt, node, client, now, sched);
    }

    /// Apply a delivery that passed the CRC and (when recovery is
    /// enabled) the duplicate/ordering gates: bump the stats, mutate the
    /// client state, and fire counters. This is the entire pre-recovery
    /// delivery path, unchanged.
    fn apply_delivery(
        &mut self,
        pkt: Packet,
        node: NodeId,
        client: ClientKind,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        self.stats.packets_delivered += 1;
        self.stats.payload_bytes_delivered += pkt.payload_bytes as u64;
        self.stats.delivered_by_node[node.index()] += 1;
        if let Some(rec) = self.recorder.as_mut() {
            rec.on_deliver(PacketId(pkt.uid), node, client.index() as u8, now);
        }
        let counter = pkt.counter;
        let pkt_src = pkt.src.node;
        let uid = pkt.uid;
        match pkt.kind {
            PacketKind::Write => {
                self.clients
                    .entry(node, client)
                    .mem
                    .write(pkt.addr, pkt.payload);
            }
            PacketKind::Accumulate => {
                assert!(
                    matches!(client, ClientKind::Accum(_)),
                    "accumulate delivered to non-accumulation client"
                );
                match &pkt.payload {
                    Payload::I32s(vs) => self
                        .clients
                        .entry(node, client)
                        .accum
                        .accumulate(pkt.addr, vs),
                    Payload::Empty => {}
                    _other => {
                        self.stats.delivery_errors += 1;
                        self.record_error(FabricError::BadAccumPayload { node, client });
                        return;
                    }
                }
            }
            PacketKind::Fifo => {
                let st = self.clients.entry(node, client);
                let Some(fifo) = st.fifo.as_mut() else {
                    self.stats.delivery_errors += 1;
                    self.record_error(FabricError::FifoToNonSlice { node, client });
                    return;
                };
                fifo.push(pkt);
                if !st.fifo_service_pending {
                    st.fifo_service_pending = true;
                    sched.at(now, Ev::FifoService { node, client });
                }
                // FIFO messages never carry counters: synchronization of
                // FIFO traffic uses separate in-order counted writes
                // (§IV.B.5), and nothing in hardware bumps a counter on a
                // FIFO push.
                return;
            }
        }
        let counter = match counter {
            Some(c) if c == COUNTER_BY_SOURCE => {
                let mapped = self
                    .clients
                    .get(node, client)
                    .and_then(|st| st.source_counters.get(&pkt_src).copied());
                if mapped.is_none() {
                    // The write landed, but no counter can be bumped:
                    // the program's buffer table is missing an entry.
                    // The resulting stall is the watchdog's to report.
                    self.stats.delivery_errors += 1;
                    self.record_error(FabricError::MissingSourceCounter { node, src: pkt_src });
                }
                mapped
            }
            other => other,
        };
        if let Some(cid) = counter {
            let mut fire_at = None;
            if self.clients.entry(node, client).counters.increment(cid) {
                // A watch fired. Slices and the HTIS poll their own
                // counters locally (cost already inside deliver_poll);
                // accumulation-memory counters are polled by a slice
                // across the ring and see extra latency (§III.B).
                // A slice's poll only *succeeds* once its Tensilica core
                // is free — a core mid-send delays noticing the arrival,
                // which is why bidirectional ping-pong runs slightly
                // slower than unidirectional in Figure 5.
                let visible = if matches!(client, ClientKind::Slice(_)) {
                    now.max(self.core_busy[client_index(node, client)])
                } else {
                    now
                };
                let extra = if client.local_poll() {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_ns_f64(self.timing.accum_poll_extra_ns)
                };
                fire_at = Some(visible + extra);
                sched.at(
                    visible + extra,
                    Ev::Prog {
                        node,
                        pe: ProgEvent::CounterReached {
                            client,
                            counter: cid,
                        },
                    },
                );
            }
            if let Some(rec) = self.recorder.as_mut() {
                rec.on_counter_update(
                    PacketId(uid),
                    node,
                    client.index() as u8,
                    cid.0,
                    now,
                    fire_at,
                );
            }
        }
    }

    /// Service one FIFO message: when the Tensilica core is free, pop,
    /// charge the software cost, dispatch to the program, and re-arm if
    /// messages remain. The pop itself waits for the core — the hardware
    /// queue (and then network backpressure) absorbs bursts faster than
    /// software can drain (§III.C).
    pub fn fifo_service(
        &mut self,
        node: NodeId,
        client: ClientKind,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let ci = client_index(node, client);
        // The servicing Tensilica core is a serial resource: retry when
        // it frees up (fifo_service_pending stays set).
        let free = self.core_busy[ci];
        if free > now {
            sched.at(free, Ev::FifoService { node, client });
            return;
        }
        let done = now + SimDuration::from_ns_f64(self.timing.fifo_pop_ns);
        let st = self.clients.entry(node, client);
        let fifo = st.fifo.as_mut().expect("slice has a FIFO");
        match fifo.pop() {
            Some(pkt) => {
                self.core_busy[ci] = done;
                let more = !fifo.is_empty();
                st.fifo_service_pending = more;
                sched.at(
                    done,
                    Ev::Prog {
                        node,
                        pe: ProgEvent::FifoMessage { client, pkt },
                    },
                );
                if more {
                    sched.at(done, Ev::FifoService { node, client });
                }
            }
            None => {
                st.fifo_service_pending = false;
            }
        }
    }

    // ----- client-state accessors used by node programs (via Ctx) -----
    //
    // Reads of a client that was never mutated answer from the empty
    // state; operations that are no-ops on it (takes, clears, resets)
    // create nothing.

    /// Read a client's local memory cell.
    pub fn mem_read(&self, addr: ClientAddr, a: u64) -> Option<&Payload> {
        self.clients.get(addr.node, addr.client)?.mem.read(a)
    }

    /// Take (consume) a client's local memory cell.
    pub fn mem_take(&mut self, addr: ClientAddr, a: u64) -> Option<Payload> {
        self.clients.get_mut(addr.node, addr.client)?.mem.take(a)
    }

    /// Write a client's local memory directly (software-local store, no
    /// network traffic).
    pub fn mem_write(&mut self, addr: ClientAddr, a: u64, p: Payload) {
        self.clients.entry(addr.node, addr.client).mem.write(a, p);
    }

    /// Drain a range of a client's local memory.
    pub fn mem_drain_range(&mut self, addr: ClientAddr, lo: u64, hi: u64) -> Vec<(u64, Payload)> {
        self.clients
            .get_mut(addr.node, addr.client)
            .map(|st| st.mem.drain_range(lo, hi))
            .unwrap_or_default()
    }

    /// Read `n` 4-byte words from an accumulation memory.
    pub fn accum_read(&self, addr: ClientAddr, a: u64, n: usize) -> Vec<i32> {
        assert!(matches!(addr.client, ClientKind::Accum(_)));
        match self.clients.get(addr.node, addr.client) {
            Some(st) => st.accum.read(a, n),
            None => AccumMemory::new().read(a, n),
        }
    }

    /// Zero `n` words of an accumulation memory.
    pub fn accum_clear(&mut self, addr: ClientAddr, a: u64, n: usize) {
        if let Some(st) = self.clients.get_mut(addr.node, addr.client) {
            st.accum.clear(a, n);
        }
    }

    /// Current value of a synchronization counter.
    pub fn counter_read(&self, addr: ClientAddr, id: CounterId) -> u64 {
        self.clients
            .get(addr.node, addr.client)
            .map_or(0, |st| st.counters.read(id))
    }

    /// Reset a counter to zero.
    pub fn counter_reset(&mut self, addr: ClientAddr, id: CounterId) {
        if let Some(st) = self.clients.get_mut(addr.node, addr.client) {
            st.counters.reset(id);
        }
    }

    /// Register a watch; if the target is already met, the `CounterReached`
    /// event fires immediately (plus the accumulation-poll penalty where
    /// applicable).
    pub fn counter_watch(
        &mut self,
        addr: ClientAddr,
        id: CounterId,
        target: u64,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let already = self
            .clients
            .entry(addr.node, addr.client)
            .counters
            .watch(id, target);
        if already {
            let extra = if addr.client.local_poll() {
                SimDuration::ZERO
            } else {
                SimDuration::from_ns_f64(self.timing.accum_poll_extra_ns)
            };
            sched.at(
                now + extra,
                Ev::Prog {
                    node: addr.node,
                    pe: ProgEvent::CounterReached {
                        client: addr.client,
                        counter: id,
                    },
                },
            );
        }
    }

    /// Watchdog deadline expiry: if the watch armed alongside this
    /// deadline is still pending, record a report naming the stuck
    /// counter (the simulation keeps running — a later arrival may still
    /// satisfy the watch).
    pub fn watchdog_check(&mut self, addr: ClientAddr, id: CounterId, target: u64, now: SimTime) {
        let Some(st) = self.clients.get(addr.node, addr.client) else {
            return; // never mutated, so no watch
        };
        let counters = &st.counters;
        let current = counters.read(id);
        if counters.has_watch(id) && current < target {
            self.watchdog_reports.push(WatchdogReport {
                node: addr.node,
                client: addr.client,
                counter: id,
                target,
                current,
                at: now,
            });
        }
    }

    /// All still-pending counter watches across the machine, as
    /// `(node, client, counter, target, current)` — the quiescence
    /// detector's evidence when a run drains without completing.
    pub fn stuck_watches(&self) -> Vec<(NodeId, ClientKind, CounterId, u64, u64)> {
        let mut out = Vec::new();
        for (node, client, st) in self.clients.iter() {
            for (id, target) in st.counters.pending_watches() {
                out.push((node, client, id, target, st.counters.read(id)));
            }
        }
        out
    }

    /// Program the per-source buffer counter table of a client (the HTIS
    /// buffer mechanism): packets labeled [`COUNTER_BY_SOURCE`] increment
    /// the counter mapped to their source node.
    pub fn set_source_counter_map(
        &mut self,
        addr: ClientAddr,
        map: HashMap<anton_topo::NodeId, CounterId>,
    ) {
        self.clients.entry(addr.node, addr.client).source_counters = map;
    }

    /// Mark the phase label applied to subsequently traced link activity
    /// and stamp a phase mark into the flight recorder (if one is
    /// installed).
    pub fn set_phase_label(&mut self, label: &str, now: SimTime) {
        self.current_label = self.tracer.intern_label(label);
        if let Some(rec) = self.recorder.as_mut() {
            rec.on_phase(label, now);
        }
    }

    /// Publish the fabric's instrumentation into a metrics registry:
    /// every [`NetStats`] counter under `net.*`, plus machine-wide
    /// client-memory aggregates under `mem.*` (FIFO occupancy high
    /// watermark and backpressure, synchronization-counter increments
    /// and watch fires).
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        self.stats.record_metrics(reg);
        let mut hw = 0usize;
        let mut backpressure = 0u64;
        let mut incs = 0u64;
        let mut fires = 0u64;
        for (_, _, st) in self.clients.iter() {
            if let Some(f) = &st.fifo {
                hw = hw.max(f.high_watermark());
                backpressure += f.backpressure_events();
            }
            incs += st.counters.total_increments();
            fires += st.counters.watches_fired();
        }
        reg.set_gauge("mem.fifo_high_watermark", hw as f64);
        reg.set_counter("mem.fifo_backpressure_events", backpressure);
        reg.set_counter("mem.counter_increments", incs);
        reg.set_counter("mem.counter_watch_fires", fires);
    }

    /// FIFO backpressure events observed so far on a slice (diagnostics).
    pub fn fifo_backpressure_events(&self, addr: ClientAddr) -> u64 {
        self.clients
            .get(addr.node, addr.client)
            .and_then(|st| st.fifo.as_ref())
            .map_or(0, |f| f.backpressure_events())
    }

    /// Coordinates helper.
    pub fn coord(&self, node: NodeId) -> Coord {
        node.coord(self.dims)
    }

    /// How many of `node`'s clients have had their state created.
    #[cfg(test)]
    fn clients_created_on(&self, node: NodeId) -> usize {
        ClientKind::ALL
            .into_iter()
            .filter(|&k| self.clients.get(node, k).is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{ParSimulation, ShardPlan};
    use crate::world::{Ctx, NodeProgram, Simulation};

    const C_EXCH: CounterId = CounterId(30);
    const A_EXCH: u64 = 0x600;

    fn slice0(node: NodeId) -> ClientAddr {
        ClientAddr::new(node, ClientKind::Slice(0))
    }

    /// The MD neighbour exchange in miniature: each step every node
    /// sends one counted write to each torus neighbour's slice 0, waits
    /// for its own six, consumes them, computes, and repeats.
    struct Exchange {
        steps_left: u32,
    }

    impl Exchange {
        fn start_step(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
            let dims = ctx.dims();
            ctx.watch_counter(slice0(node), C_EXCH, 6);
            for (slot, link) in LinkDir::ALL.into_iter().enumerate() {
                let peer = node.coord(dims).step(link, dims).node_id(dims);
                let pkt = Packet::write(
                    slice0(node),
                    slice0(peer),
                    A_EXCH + 8 * (slot as u64 ^ 1),
                    Payload::F64s(vec![node.0 as f64]),
                )
                .with_payload_bytes(8)
                .with_counter(C_EXCH);
                ctx.send(pkt);
            }
        }
    }

    impl NodeProgram for Exchange {
        fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
            match pe {
                ProgEvent::Start => self.start_step(node, ctx),
                ProgEvent::CounterReached { .. } => {
                    for slot in 0..6 {
                        assert!(ctx.mem_take(slice0(node), A_EXCH + 8 * slot).is_some());
                    }
                    ctx.reset_counter(slice0(node), C_EXCH);
                    ctx.set_timer(node, ClientKind::Slice(0), SimDuration::from_ns(250), 0);
                }
                ProgEvent::Timer { .. } => {
                    self.steps_left -= 1;
                    if self.steps_left > 0 {
                        self.start_step(node, ctx);
                    }
                }
                ProgEvent::FifoMessage { .. } => unreachable!("no FIFO traffic"),
            }
        }
    }

    fn exchange(_: NodeId) -> Exchange {
        Exchange { steps_left: 3 }
    }

    #[test]
    fn fresh_fabric_creates_no_client_state() {
        let dims = TorusDims::new(4, 4, 4);
        let f = Fabric::new(dims);
        for i in 0..dims.node_count() {
            assert_eq!(f.clients_created_on(NodeId(i)), 0, "node {i}");
        }
    }

    #[test]
    fn untouched_clients_read_as_empty() {
        let mut f = Fabric::new(TorusDims::new(2, 2, 2));
        let node = NodeId(3);
        let slice = ClientAddr::new(node, ClientKind::Slice(1));
        let accum = ClientAddr::new(node, ClientKind::Accum(0));
        assert_eq!(f.mem_read(slice, 0x40), None);
        assert_eq!(f.accum_read(accum, 0x40, 3), vec![0, 0, 0]);
        assert_eq!(f.counter_read(slice, CounterId(5)), 0);
        assert_eq!(f.fifo_backpressure_events(slice), 0);
        assert!(f.stuck_watches().is_empty());
        f.watchdog_check(slice, CounterId(5), 1, SimTime::ZERO);
        assert!(f.watchdog_reports().is_empty());
        let mut reg = MetricsRegistry::new();
        f.export_metrics(&mut reg);
        let snap = reg.snapshot();
        for name in [
            "mem.fifo_high_watermark",
            "mem.fifo_backpressure_events",
            "mem.counter_increments",
            "mem.counter_watch_fires",
        ] {
            assert_eq!(snap.get(name), Some(0.0), "{name}");
        }
        // Operations that leave the empty state unchanged create nothing.
        assert_eq!(f.mem_take(slice, 0x40), None);
        assert!(f.mem_drain_range(slice, 0, u64::MAX).is_empty());
        f.accum_clear(accum, 0x40, 3);
        f.counter_reset(slice, CounterId(5));
        assert_eq!(f.clients_created_on(node), 0);
        // A mutation creates exactly the client it names.
        f.mem_write(slice, 0x40, Payload::Token(7));
        assert_eq!(f.mem_read(slice, 0x40), Some(&Payload::Token(7)));
        assert_eq!(f.clients_created_on(node), 1);
    }

    #[test]
    fn sharded_replicas_create_state_only_for_owned_nodes() {
        let dims = TorusDims::new(4, 4, 4);
        let mut sim =
            ParSimulation::with_plan(2, ShardPlan::new(dims, 4), || Fabric::new(dims), exchange);
        assert!(sim
            .run_guarded(SimTime(u64::MAX / 2), 1_000_000)
            .is_completed());
        assert_eq!(sim.merged_stats().packets_delivered, 3 * 6 * 64);
        for (shard, w) in sim.worlds().iter().enumerate() {
            for i in 0..dims.node_count() {
                let node = NodeId(i);
                // The exchange touches slice 0 only.
                let want = usize::from(w.owns(node));
                assert_eq!(
                    w.fabric.clients_created_on(node),
                    want,
                    "shard {shard} {node:?}"
                );
            }
        }

        // The sequential engine creates the same clients, all on one fabric.
        let mut seq = Simulation::new(Fabric::new(dims), exchange);
        assert!(seq
            .run_guarded(SimTime(u64::MAX / 2), 1_000_000)
            .is_completed());
        for i in 0..dims.node_count() {
            assert_eq!(seq.world.fabric.clients_created_on(NodeId(i)), 1);
        }
    }
}
