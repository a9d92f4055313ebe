//! Causal event-graph reconstruction and critical-path extraction.
//!
//! The paper's thesis is that Anton wins by shortening the *critical
//! path* of each MD timestep (§IV, Table 3): every mechanism — counted
//! remote writes, single-round exchanges, hop minimisation — exists to
//! remove serialized latency. This module turns a recorded
//! [`FlightEvent`] stream into an explicit causal
//! DAG whose longest path *is* that critical path, measured rather than
//! derived analytically.
//!
//! # DAG construction rules
//!
//! Each packet contributes a chain of timed nodes mirroring the
//! recorder's anchors: [`NodeKind::Issue`] (software issued the send) →
//! [`NodeKind::Assembled`] (packet assembly done) →
//! [`NodeKind::PortWon`] (injection port won) →
//! [`NodeKind::WireReady`] (send-side ring crossed), then one
//! [`NodeKind::LinkStart`] + [`NodeKind::HopEnter`] pair per torus hop,
//! a [`NodeKind::Deliver`], and — when the delivery fires an armed
//! counter watch — a [`NodeKind::CounterFire`]. Edges carry the *lag*
//! the successor waits after the predecessor:
//!
//! - pipeline edges with exact recorded lags ([`EdgeKind::SendSetup`],
//!   [`EdgeKind::SendRing`], [`EdgeKind::TransitRing`],
//!   [`EdgeKind::Wire`], [`EdgeKind::Delivery`]);
//! - resource edges serializing shared hardware: the previous packet on
//!   the same injection port ([`EdgeKind::PortWait`], lag = the
//!   predecessor's injection occupancy) and on the same link direction
//!   ([`EdgeKind::LinkWait`], lag = the predecessor's link occupancy);
//! - synchronization edges: the firing arrival binds the counter fire
//!   ([`EdgeKind::SyncVisibility`], lag = core-busy + poll delays) and
//!   the earlier counted arrivals attach with zero lag
//!   ([`EdgeKind::SyncArrive`]) — a fire causally needs its N-th
//!   arrival, i.e. *all* N;
//! - program edges ([`EdgeKind::Program`]): a send issued at exactly a
//!   counter-fire time on the same node is attributed to that fire (the
//!   node program reacted to the visible counter).
//!
//! Every structural lag is either an exact recorded difference or a
//! clamped *underestimate* of the recorded node time, never an
//! overestimate. Where the model underestimates (unrecorded core-busy
//! waits, collapsed local-send anchors, fault retransmission penalties),
//! a [`EdgeKind::Residual`] (or [`EdgeKind::Retransmit`], when
//! retransmissions were recorded on that link) edge from the latest
//! binding predecessor absorbs the gap. The invariant that makes
//! everything downstream exact: **for every non-source node,
//! `max(pred_time + lag) == node_time` to the picosecond** — see
//! [`CausalGraph::check_consistency`]. Consequently the critical path
//! telescopes: its lags sum exactly to `terminal − source`, and blame
//! attribution ([`Blame`]) partitions the measured makespan with no
//! remainder.
//!
//! Event-stream order is a topological order (every edge points from an
//! earlier-recorded event to a later one), so forward/backward passes
//! are plain index loops and acyclicity is structural.

use crate::recorder::{FlightEvent, PacketId};
use anton_des::{SimDuration, SimTime};
use anton_topo::{NodeId, TorusDims};
use std::collections::HashMap;

/// Sentinel for "no edge" in the intrusive in-edge lists.
const NONE: u32 = u32::MAX;

/// What a [`CNode`] in the causal graph represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeKind {
    /// Software issued the send (`Inject.at`).
    Issue,
    /// Packet assembly finished (`Inject.inj_ready`).
    Assembled,
    /// The injection port was won (`Inject.inj_start`).
    PortWon,
    /// The send-side ring was crossed (`Inject.wire_ready`).
    WireReady,
    /// A link traversal started (`LinkReserve.start`); `aux` holds the
    /// `LinkDir` index.
    LinkStart,
    /// The packet head reached a node's receive adapter.
    HopEnter,
    /// The packet tail was applied to its target client.
    Deliver,
    /// An armed counter watch became visible to software.
    CounterFire,
}

impl NodeKind {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            NodeKind::Issue => "issue",
            NodeKind::Assembled => "assembled",
            NodeKind::PortWon => "port-won",
            NodeKind::WireReady => "wire-ready",
            NodeKind::LinkStart => "link-start",
            NodeKind::HopEnter => "hop-enter",
            NodeKind::Deliver => "deliver",
            NodeKind::CounterFire => "counter-fire",
        }
    }
}

/// What a [`CEdge`]'s lag represents — the blame-attribution buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// Send-side software/assembly pipeline (issue → assembled →
    /// port arbitration entry).
    SendSetup,
    /// Waiting for the previous packet to clear the injection port.
    PortWait,
    /// Crossing the sender's on-chip ring to the torus adapter.
    SendRing,
    /// Waiting for the previous traversal to clear the link direction.
    LinkWait,
    /// Crossing an intermediate router's ring between links.
    TransitRing,
    /// Link head latency (router + wire + receive adapter).
    Wire,
    /// Receive-side ring + delivery + payload tail.
    Delivery,
    /// Counter-fire visibility after the firing arrival (core-busy and
    /// accumulation-poll delays — the paper's synchronization stage).
    SyncVisibility,
    /// A counted (non-firing) arrival a fire causally depends on.
    SyncArrive,
    /// A node program reacting to a visible counter fire.
    Program,
    /// Residual delay on a link with recorded retransmissions.
    Retransmit,
    /// Unattributed residual (unrecorded core-busy waits, collapsed
    /// local-send anchors); keeps the graph exact to the picosecond.
    Residual,
}

impl EdgeKind {
    /// All edge kinds, in display order.
    pub const ALL: [EdgeKind; 12] = [
        EdgeKind::SendSetup,
        EdgeKind::PortWait,
        EdgeKind::SendRing,
        EdgeKind::LinkWait,
        EdgeKind::TransitRing,
        EdgeKind::Wire,
        EdgeKind::Delivery,
        EdgeKind::SyncVisibility,
        EdgeKind::SyncArrive,
        EdgeKind::Program,
        EdgeKind::Retransmit,
        EdgeKind::Residual,
    ];

    /// Number of edge kinds (array-index bound for per-kind tables).
    pub const COUNT: usize = EdgeKind::ALL.len();

    /// Dense index into per-kind tables.
    pub fn index(self) -> usize {
        match self {
            EdgeKind::SendSetup => 0,
            EdgeKind::PortWait => 1,
            EdgeKind::SendRing => 2,
            EdgeKind::LinkWait => 3,
            EdgeKind::TransitRing => 4,
            EdgeKind::Wire => 5,
            EdgeKind::Delivery => 6,
            EdgeKind::SyncVisibility => 7,
            EdgeKind::SyncArrive => 8,
            EdgeKind::Program => 9,
            EdgeKind::Retransmit => 10,
            EdgeKind::Residual => 11,
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            EdgeKind::SendSetup => "send-setup",
            EdgeKind::PortWait => "port-wait",
            EdgeKind::SendRing => "send-ring",
            EdgeKind::LinkWait => "link-wait",
            EdgeKind::TransitRing => "transit-ring",
            EdgeKind::Wire => "wire",
            EdgeKind::Delivery => "delivery",
            EdgeKind::SyncVisibility => "sync-visibility",
            EdgeKind::SyncArrive => "sync-arrive",
            EdgeKind::Program => "program",
            EdgeKind::Retransmit => "retransmit",
            EdgeKind::Residual => "residual",
        }
    }
}

/// One timed node of the causal graph.
#[derive(Debug, Clone, Copy)]
pub struct CNode {
    /// What this node represents.
    pub kind: NodeKind,
    /// The packet it belongs to.
    pub pkt: PacketId,
    /// The torus node it happened on.
    pub node: NodeId,
    /// Kind-dependent detail: client index for `Issue`/`Deliver`/
    /// `CounterFire`, `LinkDir` index for `LinkStart`, 0 otherwise.
    pub aux: u8,
    /// The recorded time of the node.
    pub time: SimTime,
}

/// One causal dependency: `dst` could not happen before
/// `src.time + lag`.
#[derive(Debug, Clone, Copy)]
pub struct CEdge {
    /// Predecessor node index.
    pub src: u32,
    /// Successor node index (`src < dst` always — stream order is
    /// topological).
    pub dst: u32,
    /// Blame bucket.
    pub kind: EdgeKind,
    /// Wait after the predecessor.
    pub lag: SimDuration,
    /// Next in-edge of `dst` (intrusive list; `u32::MAX` = end).
    next_in: u32,
}

/// The measured critical path: the unique (up to deterministic
/// tie-breaks) chain of binding edges from a source node to the
/// latest node in the graph.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Node indices, source first, terminal last.
    pub nodes: Vec<u32>,
    /// Edge indices; `edges[i]` connects `nodes[i] → nodes[i+1]`.
    pub edges: Vec<u32>,
    /// Time of the path's source node.
    pub start: SimTime,
    /// Time of the terminal node (the recorded makespan end).
    pub end: SimTime,
}

impl CriticalPath {
    /// The path's total duration. Equals the sum of its edge lags
    /// exactly (the telescoping invariant).
    pub fn span(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// Per-[`EdgeKind`] attribution of a critical path's span. The buckets
/// partition the span exactly: `total() == path.span()`.
#[derive(Debug, Clone, Default)]
pub struct Blame {
    per_kind: [SimDuration; EdgeKind::COUNT],
}

impl Blame {
    /// Sum the lags of `path`'s edges into per-kind buckets.
    pub fn from_path(graph: &CausalGraph, path: &CriticalPath) -> Blame {
        let mut blame = Blame::default();
        for &e in &path.edges {
            let edge = &graph.edges[e as usize];
            blame.per_kind[edge.kind.index()] += edge.lag;
        }
        blame
    }

    /// Time attributed to one kind.
    pub fn get(&self, kind: EdgeKind) -> SimDuration {
        self.per_kind[kind.index()]
    }

    /// Accumulate time into one kind's bucket (used by the perturbed
    /// re-timer to build the what-if blame).
    pub(crate) fn add(&mut self, kind: EdgeKind, d: SimDuration) {
        self.per_kind[kind.index()] += d;
    }

    /// Share of the total per kind, in percent, keyed by
    /// [`EdgeKind::label`] — the observatory's `blame_pct` section.
    /// Zero-time kinds are omitted; shares sum to 100 (modulo float
    /// rounding) whenever any time was attributed.
    pub fn shares_pct(&self) -> std::collections::BTreeMap<String, f64> {
        let total = self.total().as_ps() as f64;
        let mut out = std::collections::BTreeMap::new();
        if total <= 0.0 {
            return out;
        }
        for &kind in &EdgeKind::ALL {
            let d = self.get(kind);
            if d > SimDuration::ZERO {
                out.insert(kind.label().to_owned(), 100.0 * d.as_ps() as f64 / total);
            }
        }
        out
    }

    /// Total attributed time (equals the path span exactly).
    pub fn total(&self) -> SimDuration {
        self.per_kind.iter().copied().sum()
    }

    /// A fixed-width text table, largest bucket first, with percentages
    /// of the total.
    pub fn table(&self) -> String {
        let total = self.total();
        let mut rows: Vec<(EdgeKind, SimDuration)> =
            EdgeKind::ALL.iter().map(|&k| (k, self.get(k))).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut out = String::from("stage            time (ns)    share\n");
        for (kind, d) in rows {
            if d == SimDuration::ZERO {
                continue;
            }
            let pct = if total == SimDuration::ZERO {
                0.0
            } else {
                100.0 * d.as_ps() as f64 / total.as_ps() as f64
            };
            out.push_str(&format!(
                "{:<16} {:>10.2} {:>7.2}%\n",
                kind.label(),
                d.as_ns_f64(),
                pct
            ));
        }
        out.push_str(&format!(
            "{:<16} {:>10.2} {:>7.2}%\n",
            "total",
            total.as_ns_f64(),
            100.0
        ));
        out
    }
}

/// A causal event DAG reconstructed from a recorded flight-event
/// stream. See the [module docs](self) for the construction rules and
/// the exactness invariant.
#[derive(Debug)]
pub struct CausalGraph {
    nodes: Vec<CNode>,
    edges: Vec<CEdge>,
    /// Head of each node's intrusive in-edge list.
    first_in: Vec<u32>,
    /// Recorded phase marks, in stream order.
    phases: Vec<(String, SimTime)>,
}

/// Build-time bookkeeping, dropped once the graph is assembled.
struct Builder {
    g: CausalGraph,
    /// pkt → Issue node.
    issue_of: HashMap<u64, u32>,
    /// pkt → WireReady node.
    wire_of: HashMap<u64, u32>,
    /// (node, client) → (PortWon node, payload_bytes) of the previous
    /// send on that injection port.
    last_port: HashMap<(u32, u8), (u32, u32)>,
    /// (node, link) → LinkStart node of the previous traversal, with
    /// its recorded (start, end).
    last_link: HashMap<(u32, u8), (u32, u64, u64)>,
    /// (pkt, arrival node) → (LinkStart node, start ps) of the
    /// traversal currently in flight toward that node.
    pending_wire: HashMap<(u64, u32), (u32, u64)>,
    /// (pkt, node) → HopEnter node.
    hop_of: HashMap<(u64, u32), u32>,
    /// (pkt, node) → Deliver node.
    deliver_of: HashMap<(u64, u32), u32>,
    /// (node, client, counter) → counted arrivals since the last fire.
    pending_counter: HashMap<(u32, u8, u16), Vec<u32>>,
    /// (pkt, node, link) with at least one recorded retransmission.
    retrans: HashMap<(u64, u32, u8), u32>,
    /// (node, client, fire ps) → CounterFire node (first wins).
    fires_exact: HashMap<(u32, u8, u64), u32>,
    /// (node, fire ps) → CounterFire node (first wins).
    fires_node: HashMap<(u32, u64), u32>,
    /// node → all fires on it, in stream order.
    fires_by_node: HashMap<u32, Vec<(u64, u32)>>,
}

/// `a - b`, clamped at zero (defensive: recorder anchors are ordered,
/// but a clamped lag can only *under*estimate, which the residual edge
/// then absorbs).
fn lag(a: SimTime, b: SimTime) -> SimDuration {
    SimDuration::from_ps(a.as_ps().saturating_sub(b.as_ps()))
}

impl Builder {
    fn add_node(
        &mut self,
        kind: NodeKind,
        pkt: PacketId,
        node: NodeId,
        aux: u8,
        time: SimTime,
    ) -> u32 {
        let idx = self.g.nodes.len() as u32;
        self.g.nodes.push(CNode {
            kind,
            pkt,
            node,
            aux,
            time,
        });
        self.g.first_in.push(NONE);
        idx
    }

    fn add_edge(&mut self, src: u32, dst: u32, kind: EdgeKind, lag: SimDuration) {
        debug_assert!(src < dst, "stream order must be topological");
        let idx = self.g.edges.len() as u32;
        self.g.edges.push(CEdge {
            src,
            dst,
            kind,
            lag,
            next_in: self.g.first_in[dst as usize],
        });
        self.g.first_in[dst as usize] = idx;
    }

    /// Restore the exactness invariant for a freshly built node: if the
    /// structural edges underestimate the recorded time, add a residual
    /// edge from the binding predecessor carrying the gap.
    fn seal(&mut self, node: u32, residual_kind: EdgeKind) {
        let time = self.g.nodes[node as usize].time;
        let mut best: Option<(u32, SimTime)> = None;
        let mut e = self.g.first_in[node as usize];
        while e != NONE {
            let edge = self.g.edges[e as usize];
            let reach = self.g.nodes[edge.src as usize].time + edge.lag;
            debug_assert!(
                reach <= time,
                "structural {:?} edge overshoots: {:?}@{} + {} > {:?}@{} (pkt {:?})",
                edge.kind,
                self.g.nodes[edge.src as usize].kind,
                self.g.nodes[edge.src as usize].time,
                edge.lag,
                self.g.nodes[node as usize].kind,
                time,
                self.g.nodes[node as usize].pkt,
            );
            match best {
                Some((_, t)) if t >= reach => {}
                _ => best = Some((edge.src, reach)),
            }
            e = edge.next_in;
        }
        if let Some((src, reach)) = best {
            if reach < time {
                let src_time = self.g.nodes[src as usize].time;
                self.add_edge(src, node, residual_kind, lag(time, src_time));
            }
        }
    }

    /// The counter fire a send issued at `at` on (`node`, `client`) is
    /// reacting to, if any.
    fn find_fire(&self, node: u32, client: u8, at: u64) -> Option<(u32, u64)> {
        if let Some(&f) = self.fires_exact.get(&(node, client, at)) {
            return Some((f, at));
        }
        if let Some(&f) = self.fires_node.get(&(node, at)) {
            return Some((f, at));
        }
        // Fallback: the latest fire on this node not after the issue
        // (a program that did other work between poll and send).
        let mut best: Option<(u32, u64)> = None;
        for &(fire_ps, idx) in self.fires_by_node.get(&node).into_iter().flatten() {
            let better = match best {
                None => fire_ps <= at,
                Some((_, b)) => fire_ps <= at && fire_ps > b,
            };
            if better {
                best = Some((idx, fire_ps));
            }
        }
        best
    }
}

impl CausalGraph {
    /// Reconstruct the causal DAG from a flight-event stream.
    ///
    /// `dims` resolves which node a link traversal arrives at, and
    /// `injection_occupancy` models how long a packet of a given
    /// payload size holds the injection port (pass
    /// `|b| timing.injection_occupancy(b)` with the run's `Timing`).
    /// A mismatched occupancy model cannot break the graph — port-wait
    /// lags are clamped to the recorded times and residual edges absorb
    /// the difference — it only blurs the blame split between
    /// `port-wait` and `residual`.
    pub fn build<'a, I, F>(dims: TorusDims, events: I, injection_occupancy: F) -> CausalGraph
    where
        I: IntoIterator<Item = &'a FlightEvent>,
        F: Fn(u32) -> SimDuration,
    {
        let mut b = Builder {
            g: CausalGraph {
                nodes: Vec::new(),
                edges: Vec::new(),
                first_in: Vec::new(),
                phases: Vec::new(),
            },
            issue_of: HashMap::new(),
            wire_of: HashMap::new(),
            last_port: HashMap::new(),
            last_link: HashMap::new(),
            pending_wire: HashMap::new(),
            hop_of: HashMap::new(),
            deliver_of: HashMap::new(),
            pending_counter: HashMap::new(),
            retrans: HashMap::new(),
            fires_exact: HashMap::new(),
            fires_node: HashMap::new(),
            fires_by_node: HashMap::new(),
        };

        for ev in events {
            match *ev {
                FlightEvent::Inject {
                    pkt,
                    node,
                    client,
                    dst,
                    at,
                    inj_ready,
                    inj_start,
                    wire_ready,
                    payload_bytes,
                } => {
                    // A local client-to-client write never crosses the
                    // injection port; its anchors are all collapsed to
                    // the issue time, so chaining it into the port-
                    // contention sequence would run an edge backwards
                    // in time. Keep it out of the chain; any port time
                    // it consumed surfaces as residual on later sends.
                    let local = dst == Some(node);
                    let issue = b.add_node(NodeKind::Issue, pkt, node, client, at);
                    if let Some((fire, fire_ps)) = b.find_fire(node.0, client, at.as_ps()) {
                        b.add_edge(
                            fire,
                            issue,
                            EdgeKind::Program,
                            lag(at, SimTime::from_ps(fire_ps)),
                        );
                    }
                    b.issue_of.insert(pkt.0, issue);

                    let asm = b.add_node(NodeKind::Assembled, pkt, node, 0, inj_ready);
                    b.add_edge(issue, asm, EdgeKind::SendSetup, lag(inj_ready, at));

                    let port = b.add_node(NodeKind::PortWon, pkt, node, 0, inj_start);
                    b.add_edge(asm, port, EdgeKind::SendSetup, SimDuration::ZERO);
                    if !local {
                        if let Some(&(prev, prev_bytes)) = b.last_port.get(&(node.0, client)) {
                            let occ = injection_occupancy(prev_bytes);
                            let prev_time = b.g.nodes[prev as usize].time;
                            // Clamp: the port model may only underestimate.
                            let wait = occ.min(lag(inj_start, prev_time));
                            b.add_edge(prev, port, EdgeKind::PortWait, wait);
                        }
                    }
                    b.seal(port, EdgeKind::Residual);
                    if !local {
                        b.last_port.insert((node.0, client), (port, payload_bytes));
                    }

                    let wire = b.add_node(NodeKind::WireReady, pkt, node, 0, wire_ready);
                    b.add_edge(port, wire, EdgeKind::SendRing, lag(wire_ready, inj_start));
                    b.wire_of.insert(pkt.0, wire);
                }
                FlightEvent::LinkReserve {
                    pkt,
                    node,
                    link,
                    ready,
                    start,
                    end,
                } => {
                    let ls = b.add_node(NodeKind::LinkStart, pkt, node, link.index() as u8, start);
                    // Readiness edge: first hop from the sender's
                    // WireReady, transit hops from the HopEnter.
                    if let Some(&hop) = b.hop_of.get(&(pkt.0, node.0)) {
                        let hop_time = b.g.nodes[hop as usize].time;
                        b.add_edge(hop, ls, EdgeKind::TransitRing, lag(ready, hop_time));
                    } else if let Some(&wire) = b.wire_of.get(&pkt.0) {
                        let wire_time = b.g.nodes[wire as usize].time;
                        b.add_edge(wire, ls, EdgeKind::SendRing, lag(ready, wire_time));
                    }
                    // Resource edge: the previous traversal of this
                    // link direction holds it for its occupancy.
                    if let Some(&(prev, p_start, p_end)) =
                        b.last_link.get(&(node.0, link.index() as u8))
                    {
                        b.add_edge(
                            prev,
                            ls,
                            EdgeKind::LinkWait,
                            SimDuration::from_ps(p_end.saturating_sub(p_start)),
                        );
                    }
                    let residual = if b.retrans.contains_key(&(pkt.0, node.0, link.index() as u8)) {
                        EdgeKind::Retransmit
                    } else {
                        EdgeKind::Residual
                    };
                    b.seal(ls, residual);
                    b.last_link.insert(
                        (node.0, link.index() as u8),
                        (ls, start.as_ps(), end.as_ps()),
                    );
                    let arrive = node.coord(dims).step(link, dims).node_id(dims);
                    b.pending_wire
                        .insert((pkt.0, arrive.0), (ls, start.as_ps()));
                }
                FlightEvent::Retransmit {
                    pkt, node, link, ..
                } => {
                    *b.retrans
                        .entry((pkt.0, node.0, link.index() as u8))
                        .or_insert(0) += 1;
                }
                FlightEvent::HopEnter { pkt, node, at } => {
                    let hop = b.add_node(NodeKind::HopEnter, pkt, node, 0, at);
                    if let Some((ls, start)) = b.pending_wire.remove(&(pkt.0, node.0)) {
                        b.add_edge(ls, hop, EdgeKind::Wire, lag(at, SimTime::from_ps(start)));
                    }
                    b.hop_of.insert((pkt.0, node.0), hop);
                }
                FlightEvent::HopExit { .. } => {
                    // Redundant with the next LinkReserve's start.
                }
                FlightEvent::Deliver {
                    pkt,
                    node,
                    client,
                    at,
                } => {
                    let del = b.add_node(NodeKind::Deliver, pkt, node, client, at);
                    if let Some(&hop) = b.hop_of.get(&(pkt.0, node.0)) {
                        let hop_time = b.g.nodes[hop as usize].time;
                        b.add_edge(hop, del, EdgeKind::Delivery, lag(at, hop_time));
                    } else if let Some(&issue) = b.issue_of.get(&pkt.0) {
                        // Same-node write: the whole local trip is
                        // delivery, anchored at the issue.
                        let issue_time = b.g.nodes[issue as usize].time;
                        b.add_edge(issue, del, EdgeKind::Delivery, lag(at, issue_time));
                    }
                    b.deliver_of.insert((pkt.0, node.0), del);
                }
                FlightEvent::CounterUpdate {
                    pkt,
                    node,
                    client,
                    counter,
                    at,
                    fire_at,
                } => {
                    let deliver = b.deliver_of.get(&(pkt.0, node.0)).copied();
                    match fire_at {
                        None => {
                            if let Some(del) = deliver {
                                b.pending_counter
                                    .entry((node.0, client, counter))
                                    .or_default()
                                    .push(del);
                            }
                        }
                        Some(fire_time) => {
                            let fire =
                                b.add_node(NodeKind::CounterFire, pkt, node, client, fire_time);
                            if let Some(del) = deliver {
                                b.add_edge(del, fire, EdgeKind::SyncVisibility, lag(fire_time, at));
                            }
                            if let Some(arrivals) =
                                b.pending_counter.remove(&(node.0, client, counter))
                            {
                                for del in arrivals {
                                    b.add_edge(del, fire, EdgeKind::SyncArrive, SimDuration::ZERO);
                                }
                            }
                            let fire_ps = fire_time.as_ps();
                            b.fires_exact
                                .entry((node.0, client, fire_ps))
                                .or_insert(fire);
                            b.fires_node.entry((node.0, fire_ps)).or_insert(fire);
                            b.fires_by_node
                                .entry(node.0)
                                .or_default()
                                .push((fire_ps, fire));
                        }
                    }
                }
                FlightEvent::Phase { ref label, at } => {
                    b.g.phases.push((label.clone(), at));
                }
                // Recovery events mark control-plane activity and a
                // lost copy ends no latency path; the critical-path
                // graph skips them.
                FlightEvent::LinkDown { .. }
                | FlightEvent::NodeDown { .. }
                | FlightEvent::Reinject { .. }
                | FlightEvent::DuplicateSuppressed { .. }
                | FlightEvent::Lost { .. }
                | FlightEvent::Discarded { .. } => {}
            }
        }
        b.g
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty (no recorded packet events).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes, in stream (= topological) order.
    pub fn nodes(&self) -> &[CNode] {
        &self.nodes
    }

    /// All edges. Every edge satisfies `src < dst`.
    pub fn edges(&self) -> &[CEdge] {
        &self.edges
    }

    /// Recorded phase marks, in stream order.
    pub fn phases(&self) -> &[(String, SimTime)] {
        &self.phases
    }

    /// In-edges of a node.
    pub fn preds(&self, node: u32) -> impl Iterator<Item = (u32, &CEdge)> {
        PredIter {
            g: self,
            e: self.first_in[node as usize],
        }
    }

    /// Whether a node has no causal predecessor (its time is an input,
    /// not derived — e.g. a program's spontaneous first send).
    pub fn is_source(&self, node: u32) -> bool {
        self.first_in[node as usize] == NONE
    }

    /// The latest node in the graph (ties broken toward the earliest
    /// recorded), or `None` when empty. Its time is the recorded
    /// makespan end.
    pub fn terminal(&self) -> Option<u32> {
        let mut best: Option<u32> = None;
        for (i, n) in self.nodes.iter().enumerate() {
            match best {
                Some(b) if self.nodes[b as usize].time >= n.time => {}
                _ => best = Some(i as u32),
            }
        }
        best
    }

    /// Total lag carried by residual/retransmit edges — how much of the
    /// recorded timing the structural model could not attribute.
    pub fn residual_total(&self) -> SimDuration {
        self.edges
            .iter()
            .filter(|e| matches!(e.kind, EdgeKind::Residual | EdgeKind::Retransmit))
            .map(|e| e.lag)
            .sum()
    }

    /// Verify the exactness invariant: every edge points forward and
    /// does not overshoot, and every non-source node's time equals the
    /// max over predecessors of `pred_time + lag` exactly.
    pub fn check_consistency(&self) -> Result<(), String> {
        for (i, e) in self.edges.iter().enumerate() {
            if e.src >= e.dst {
                return Err(format!("edge {i} not forward: {} -> {}", e.src, e.dst));
            }
            let reach = self.nodes[e.src as usize].time + e.lag;
            if reach > self.nodes[e.dst as usize].time {
                return Err(format!(
                    "edge {i} ({:?}) overshoots: {} + {} > {}",
                    e.kind, self.nodes[e.src as usize].time, e.lag, self.nodes[e.dst as usize].time
                ));
            }
        }
        for n in 0..self.nodes.len() as u32 {
            if self.is_source(n) {
                continue;
            }
            let time = self.nodes[n as usize].time;
            let modeled = self
                .preds(n)
                .map(|(_, e)| self.nodes[e.src as usize].time + e.lag)
                .max()
                .unwrap();
            if modeled != time {
                return Err(format!(
                    "node {n} ({:?}): max(pred + lag) = {modeled} != recorded {time}",
                    self.nodes[n as usize].kind
                ));
            }
        }
        Ok(())
    }

    /// Extract the measured critical path ending at [`terminal`]
    /// (`None` on an empty graph): from the terminal, repeatedly follow
    /// the binding in-edge (the one whose `pred_time + lag` equals the
    /// node's time; ties broken toward the earliest-inserted edge)
    /// until a source node is reached.
    ///
    /// [`terminal`]: CausalGraph::terminal
    pub fn critical_path(&self) -> Option<CriticalPath> {
        let terminal = self.terminal()?;
        let mut nodes = vec![terminal];
        let mut edges = Vec::new();
        let mut cur = terminal;
        loop {
            let mut best: Option<(u32, u32, SimTime)> = None; // (edge, src, reach)
            for (ei, e) in self.preds(cur) {
                let reach = self.nodes[e.src as usize].time + e.lag;
                let better = match best {
                    None => true,
                    Some((bei, _, bt)) => reach > bt || (reach == bt && ei < bei),
                };
                if better {
                    best = Some((ei, e.src, reach));
                }
            }
            match best {
                None => break,
                Some((ei, src, _)) => {
                    edges.push(ei);
                    nodes.push(src);
                    cur = src;
                }
            }
        }
        nodes.reverse();
        edges.reverse();
        let start = self.nodes[nodes[0] as usize].time;
        let end = self.nodes[terminal as usize].time;
        Some(CriticalPath {
            nodes,
            edges,
            start,
            end,
        })
    }

    /// Per-node slack relative to the terminal: how much later each
    /// node could have happened without delaying the terminal. `None`
    /// for nodes with no path to the terminal; guaranteed non-negative,
    /// and exactly zero along the critical path.
    pub fn slack(&self) -> Vec<Option<SimDuration>> {
        let n = self.nodes.len();
        let mut late: Vec<Option<SimTime>> = vec![None; n];
        let terminal = match self.terminal() {
            Some(t) => t,
            None => return Vec::new(),
        };
        late[terminal as usize] = Some(self.nodes[terminal as usize].time);
        // Out-adjacency is implicit: sweep edges once per target —
        // edges are grouped by walking in reverse node order and using
        // the in-edge lists of successors. A reverse edge sweep
        // suffices because `src < dst` for every edge.
        for e in self.edges.iter().rev() {
            if let Some(l) = late[e.dst as usize] {
                let cand = SimTime::from_ps(l.as_ps().saturating_sub(e.lag.as_ps()));
                late[e.src as usize] = Some(match late[e.src as usize] {
                    None => cand,
                    Some(cur) => cur.min(cand),
                });
            }
        }
        late.iter()
            .enumerate()
            .map(|(i, l)| {
                l.map(|l| {
                    debug_assert!(l >= self.nodes[i].time, "slack must be non-negative");
                    lag(l, self.nodes[i].time)
                })
            })
            .collect()
    }
}

/// Iterator over a node's in-edges.
struct PredIter<'a> {
    g: &'a CausalGraph,
    e: u32,
}

impl<'a> Iterator for PredIter<'a> {
    type Item = (u32, &'a CEdge);

    fn next(&mut self) -> Option<Self::Item> {
        if self.e == NONE {
            return None;
        }
        let idx = self.e;
        let edge = &self.g.edges[idx as usize];
        self.e = edge.next_in;
        Some((idx, edge))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::recorder::ev;

    fn ns(v: u64) -> SimTime {
        SimTime::from_ns(v)
    }

    fn dims() -> TorusDims {
        TorusDims::new(4, 4, 4)
    }

    /// One remote unicast, hand-recorded with the model's anchor
    /// semantics: the chain reconstructs with zero residual and the
    /// path telescopes to the 162 ns end-to-end time.
    pub(crate) fn one_hop_events() -> Vec<FlightEvent> {
        vec![
            ev::inject(0, 0, Some(1), [0, 36, 36, 55], 0),
            ev::reserve(0, 0, 0, [55, 55, 57]),
            ev::hop_enter(0, 1, 95),
            ev::deliver(0, 1, 162),
            ev::counter(0, 1, 7, 162, Some(162)),
        ]
    }

    #[test]
    fn single_packet_chain_is_exact() {
        let events = one_hop_events();
        let g = CausalGraph::build(dims(), &events, |_| SimDuration::from_ns(2));
        g.check_consistency().expect("exact reconstruction");
        assert_eq!(g.residual_total(), SimDuration::ZERO);
        let path = g.critical_path().expect("non-empty");
        assert_eq!(path.start, ns(0));
        assert_eq!(path.end, ns(162));
        let blame = Blame::from_path(&g, &path);
        assert_eq!(blame.total(), path.span());
        assert_eq!(blame.get(EdgeKind::Wire), SimDuration::from_ns(40));
        assert_eq!(blame.get(EdgeKind::SendSetup), SimDuration::from_ns(36));
        // Every node on the unique chain has zero slack.
        let slack = g.slack();
        for &n in &path.nodes {
            assert_eq!(slack[n as usize], Some(SimDuration::ZERO));
        }
        assert!(blame.table().contains("total"));
    }

    #[test]
    fn program_edge_links_fire_to_reaction() {
        let mut events = one_hop_events();
        // The node program on the destination reacts to the fire at
        // 162 ns with a reply send.
        events.extend([
            ev::inject(1, 1, Some(0), [162, 198, 198, 217], 0),
            ev::reserve(1, 1, 1, [217, 217, 219]),
            ev::hop_enter(1, 0, 257),
            ev::deliver(1, 0, 324),
        ]);

        let g = CausalGraph::build(dims(), &events, |_| SimDuration::from_ns(2));
        g.check_consistency().expect("exact");
        let path = g.critical_path().expect("non-empty");
        assert_eq!(path.end, ns(324));
        assert_eq!(
            path.start,
            ns(0),
            "path crosses the program edge back to the first send"
        );
        let blame = Blame::from_path(&g, &path);
        assert_eq!(blame.total(), SimDuration::from_ns(324));
        assert!(path
            .edges
            .iter()
            .any(|&e| g.edges()[e as usize].kind == EdgeKind::Program));
    }

    #[test]
    fn port_contention_is_blamed_or_residual() {
        // Two back-to-back sends on the same port; the second waits
        // 5 ns for the port but the occupancy model only explains 2 ns
        // — a residual edge (carrying the full 5 ns gap from the
        // binding predecessor, subsuming the parallel port-wait edge)
        // restores exactness.
        let events = [
            ev::inject(0, 0, Some(1), [0, 36, 36, 55], 0),
            ev::inject(1, 0, Some(1), [0, 36, 41, 60], 0),
        ];
        let g = CausalGraph::build(dims(), &events, |_| SimDuration::from_ns(2));
        g.check_consistency().expect("exact with residual");
        assert_eq!(g.residual_total(), SimDuration::from_ns(5));
        let kinds: Vec<EdgeKind> = g.edges().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EdgeKind::PortWait));
        assert!(kinds.contains(&EdgeKind::Residual));
    }

    #[test]
    fn counter_fire_depends_on_all_counted_arrivals() {
        // Three one-hop neighbors of node 0 in a 4x4x4 torus: node 1
        // via X-, node 4 via Y-, node 16 via Z-.
        let mut events = Vec::new();
        for (pkt, (src, link, t)) in [(0, (1, 1, 100)), (1, (4, 3, 140)), (2, (16, 5, 180))] {
            events.extend([
                ev::inject(pkt, src, Some(0), [0, 36, 36, 55], 0),
                ev::reserve(pkt, src, link, [55, 55, 57]),
                ev::hop_enter(pkt, 0, 95),
                ev::deliver(pkt, 0, t),
                ev::counter(pkt, 0, 3, t, (pkt == 2).then_some(t)),
            ]);
        }
        let g = CausalGraph::build(dims(), &events, |_| SimDuration::from_ns(2));
        g.check_consistency().expect("exact");
        let fire = g
            .nodes()
            .iter()
            .position(|n| n.kind == NodeKind::CounterFire)
            .expect("fire node") as u32;
        let mut kinds: Vec<EdgeKind> = g.preds(fire).map(|(_, e)| e.kind).collect();
        kinds.sort();
        assert_eq!(
            kinds,
            vec![
                EdgeKind::SyncVisibility,
                EdgeKind::SyncArrive,
                EdgeKind::SyncArrive
            ],
            "the fire depends on its binding arrival and both counted ones"
        );
    }

    #[test]
    fn empty_graph_is_well_behaved() {
        let g = CausalGraph::build(dims(), std::iter::empty(), |_| SimDuration::ZERO);
        assert!(g.is_empty());
        assert!(g.critical_path().is_none());
        assert!(g.terminal().is_none());
        assert_eq!(g.slack(), Vec::new());
        g.check_consistency().expect("trivially consistent");
    }
}
