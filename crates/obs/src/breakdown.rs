//! Latency-breakdown attribution: folds recorded packet lifecycles into
//! the paper's Figure 6 stages.
//!
//! Figure 6 decomposes the 162 ns one-hop end-to-end latency into sender
//! overhead (36 ns), injection/send-side ring (19 ns), router + wire
//! time (two 20 ns adapter crossings for one hop), delivery (receive
//! ring 25 ns + polling pickup 42 ns), and synchronization. The stages
//! here are *telescoping*: each is the interval between two adjacent
//! recorded anchors of the same packet, so for every delivered packet
//! the five stage durations sum **exactly** to its measured end-to-end
//! latency — the property the proptest in `net/tests` pins down.
//!
//! Anchor mapping (all timestamps from [`crate::FlightEvent`]):
//!
//! | Stage             | from → to                                   |
//! |-------------------|---------------------------------------------|
//! | `SenderOverhead`  | send issue → packet assembled (`inj_ready`)  |
//! | `Injection`       | `inj_ready` → first link ready (`wire_ready`), includes injection-port contention |
//! | `RouterWire`      | `wire_ready` → head at destination (last `HopEnter`), includes link contention and retransmits |
//! | `Delivery`        | head at destination → tail applied (`Deliver`) |
//! | `Sync`            | delivery → armed counter-watch visible (`fire_at`), 0 if none fired |
//!
//! Same-node writes never touch the torus: the recorder reports
//! `inj_ready = wire_ready = issue time` for them, so the whole local
//! trip lands in `Delivery` and the telescoping invariant still holds.

use crate::recorder::{FlightEvent, PacketId};
use anton_des::{SimDuration, SimTime};
use anton_topo::NodeId;
use std::collections::BTreeMap;

/// The Figure 6 latency stages, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Software send setup until the packet is assembled.
    SenderOverhead,
    /// Injection-port wait plus the send-side on-chip ring.
    Injection,
    /// All torus link and router-adapter crossings (plus any link
    /// contention and retransmission delay).
    RouterWire,
    /// Receive-side ring crossing and payload application/pickup.
    Delivery,
    /// Synchronization-counter visibility after delivery.
    Sync,
}

impl Stage {
    /// All stages, pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::SenderOverhead,
        Stage::Injection,
        Stage::RouterWire,
        Stage::Delivery,
        Stage::Sync,
    ];

    /// Human-readable name matching the Figure 6 labels.
    pub fn name(self) -> &'static str {
        match self {
            Stage::SenderOverhead => "sender overhead",
            Stage::Injection => "injection",
            Stage::RouterWire => "router + wire",
            Stage::Delivery => "delivery",
            Stage::Sync => "synchronization",
        }
    }
}

/// One packet's reconstructed lifecycle: the anchors needed for stage
/// attribution, folded out of the raw event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketLifecycle {
    /// The packet.
    pub pkt: PacketId,
    /// Sending node.
    pub src: NodeId,
    /// Delivery node.
    pub dst: NodeId,
    /// Send issue time.
    pub issued: SimTime,
    /// Packet assembled.
    pub inj_ready: SimTime,
    /// First link ready (send ring crossed).
    pub wire_ready: SimTime,
    /// Head-arrival time at each node along the route (empty for
    /// same-node writes).
    pub hop_enters: Vec<SimTime>,
    /// Tail applied at the destination client.
    pub delivered: SimTime,
    /// Counter-watch visibility, if this delivery fired one.
    pub fired: Option<SimTime>,
    /// Link-layer retransmissions suffered en route.
    pub retransmits: u32,
    /// Modeled wire payload size.
    pub payload_bytes: u32,
}

impl PacketLifecycle {
    /// Duration of one stage. Stages telescope: adjacent anchors bound
    /// each stage, so summing [`Stage::ALL`] reproduces
    /// [`PacketLifecycle::end_to_end`] exactly.
    pub fn stage(&self, stage: Stage) -> SimDuration {
        let head_at_dst = self.hop_enters.last().copied().unwrap_or(self.wire_ready);
        match stage {
            Stage::SenderOverhead => self.inj_ready.since(self.issued),
            Stage::Injection => self.wire_ready.since(self.inj_ready),
            Stage::RouterWire => head_at_dst.since(self.wire_ready),
            Stage::Delivery => self.delivered.since(head_at_dst),
            Stage::Sync => match self.fired {
                Some(f) => f.since(self.delivered),
                None => SimDuration::ZERO,
            },
        }
    }

    /// Measured end-to-end latency: send issue until the counter watch
    /// fires (or until delivery when none fired).
    pub fn end_to_end(&self) -> SimDuration {
        self.fired.unwrap_or(self.delivered).since(self.issued)
    }

    /// Number of torus hops taken (0 for same-node writes).
    pub fn hops(&self) -> usize {
        self.hop_enters.len()
    }
}

/// What the fold saw besides complete unicast lifecycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FoldStats {
    /// Complete unicast lifecycles reconstructed.
    pub complete: u64,
    /// Packets injected but never delivered inside the recorded window
    /// (in flight at the horizon, or their tail fell out of a ring
    /// buffer).
    pub incomplete: u64,
    /// Multicast packets skipped (copies share an id, so per-copy stage
    /// attribution is ambiguous).
    pub multicast: u64,
}

#[derive(Debug, Default)]
struct Partial {
    inject: Option<(NodeId, Option<NodeId>, SimTime, SimTime, SimTime, u32)>,
    hop_enters: Vec<SimTime>,
    delivers: Vec<(NodeId, SimTime)>,
    fired: Option<SimTime>,
    retransmits: u32,
}

/// Fold a raw event stream into per-packet lifecycles. Returns complete
/// unicast lifecycles in packet-id order plus counts of what was
/// skipped; packets still in flight, or whose injection the stream
/// lacks, are counted, not invented.
pub fn fold_lifecycles<'a, I>(events: I) -> (Vec<PacketLifecycle>, FoldStats)
where
    I: IntoIterator<Item = &'a FlightEvent>,
{
    let mut partials: BTreeMap<PacketId, Partial> = BTreeMap::new();
    for ev in events {
        let Some(pkt) = ev.packet() else { continue };
        let p = partials.entry(pkt).or_default();
        match ev {
            FlightEvent::Inject {
                node,
                dst,
                at,
                inj_ready,
                wire_ready,
                payload_bytes,
                ..
            } => {
                p.inject = Some((*node, *dst, *at, *inj_ready, *wire_ready, *payload_bytes));
            }
            FlightEvent::HopEnter { at, .. } => p.hop_enters.push(*at),
            FlightEvent::Retransmit { .. } => p.retransmits += 1,
            FlightEvent::Deliver { node, at, .. } => p.delivers.push((*node, *at)),
            FlightEvent::CounterUpdate { fire_at, .. } => {
                if let Some(f) = fire_at {
                    // Keep the earliest fire: that is when the sender-visible
                    // synchronization completed.
                    p.fired = Some(p.fired.map_or(*f, |old: SimTime| old.min(*f)));
                }
            }
            FlightEvent::LinkReserve { .. }
            | FlightEvent::HopExit { .. }
            | FlightEvent::Phase { .. }
            | FlightEvent::LinkDown { .. }
            | FlightEvent::NodeDown { .. }
            | FlightEvent::Reinject { .. }
            | FlightEvent::DuplicateSuppressed { .. }
            | FlightEvent::Lost { .. }
            | FlightEvent::Discarded { .. } => {}
        }
    }

    let mut out = Vec::new();
    let mut stats = FoldStats::default();
    for (pkt, p) in partials {
        let Some((src, dst, issued, inj_ready, wire_ready, payload_bytes)) = p.inject else {
            stats.incomplete += 1;
            continue;
        };
        if dst.is_none() || p.delivers.len() > 1 {
            stats.multicast += 1;
            continue;
        }
        let Some(&(dst_node, delivered)) = p.delivers.first() else {
            stats.incomplete += 1;
            continue;
        };
        stats.complete += 1;
        out.push(PacketLifecycle {
            pkt,
            src,
            dst: dst_node,
            issued,
            inj_ready,
            wire_ready,
            hop_enters: p.hop_enters,
            delivered,
            fired: p.fired,
            retransmits: p.retransmits,
            payload_bytes,
        });
    }
    (out, stats)
}

/// Aggregated per-stage totals over a set of lifecycles — the measured
/// Figure 6 bar chart.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownSummary {
    /// Lifecycles aggregated.
    pub packets: u64,
    /// Total duration per stage, pipeline order ([`Stage::ALL`]).
    pub totals: [SimDuration; 5],
    /// Total end-to-end latency (equals the stage totals' sum).
    pub end_to_end: SimDuration,
}

impl BreakdownSummary {
    /// Aggregate stage durations over `lifecycles`.
    pub fn from_lifecycles(lifecycles: &[PacketLifecycle]) -> BreakdownSummary {
        let mut totals = [SimDuration::ZERO; 5];
        let mut end_to_end = SimDuration::ZERO;
        for lc in lifecycles {
            for (slot, stage) in totals.iter_mut().zip(Stage::ALL) {
                *slot += lc.stage(stage);
            }
            end_to_end += lc.end_to_end();
        }
        BreakdownSummary {
            packets: lifecycles.len() as u64,
            totals,
            end_to_end,
        }
    }

    /// Mean duration of one stage in nanoseconds (0 when empty).
    pub fn mean_ns(&self, stage: Stage) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        let idx = Stage::ALL.iter().position(|s| *s == stage).unwrap();
        self.totals[idx].as_ns_f64() / self.packets as f64
    }

    /// Mean end-to-end latency in nanoseconds (0 when empty).
    pub fn mean_end_to_end_ns(&self) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        self.end_to_end.as_ns_f64() / self.packets as f64
    }

    /// Render the measured breakdown as an aligned text table.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for stage in Stage::ALL {
            let _ = writeln!(
                out,
                "  {:<16} {:>8.2} ns",
                stage.name(),
                self.mean_ns(stage)
            );
        }
        let _ = writeln!(
            out,
            "  {:<16} {:>8.2} ns",
            "end-to-end",
            self.mean_end_to_end_ns()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::ev;

    /// Replay the uncontended 1-X-hop ping from the paper's Figure 6 and
    /// check both the stage values and the telescoping invariant.
    #[test]
    fn one_hop_fig6_stages() {
        // send issue 0, setup 36, ring 19 → wire at 55; head after 40 ns
        // link+adapter → 95; deliver 25+42 later → 162.
        let events = [
            ev::inject(0, 0, Some(1), [0, 36, 36, 55], 32),
            ev::reserve(0, 0, 0, [55, 55, 97]),
            ev::hop_enter(0, 1, 95),
            ev::deliver(0, 1, 162),
            ev::counter(0, 1, 63, 162, Some(162)),
        ];
        let (lcs, stats) = fold_lifecycles(&events);
        assert_eq!(
            stats,
            FoldStats {
                complete: 1,
                incomplete: 0,
                multicast: 0
            }
        );
        let lc = &lcs[0];
        assert_eq!(lc.stage(Stage::SenderOverhead), SimDuration::from_ns(36));
        assert_eq!(lc.stage(Stage::Injection), SimDuration::from_ns(19));
        assert_eq!(lc.stage(Stage::RouterWire), SimDuration::from_ns(40));
        assert_eq!(lc.stage(Stage::Delivery), SimDuration::from_ns(67));
        assert_eq!(lc.stage(Stage::Sync), SimDuration::ZERO);
        assert_eq!(lc.end_to_end(), SimDuration::from_ns(162));
        let sum: u64 = Stage::ALL.iter().map(|s| lc.stage(*s).as_ps()).sum();
        assert_eq!(sum, lc.end_to_end().as_ps());

        let summary = BreakdownSummary::from_lifecycles(&lcs);
        assert_eq!(summary.mean_end_to_end_ns(), 162.0);
        assert_eq!(summary.mean_ns(Stage::Delivery), 67.0);
    }

    /// Local (same-node) writes attribute everything to delivery and
    /// still telescope.
    #[test]
    fn local_write_attributes_to_delivery() {
        let events = [
            ev::inject(1, 3, Some(3), [10; 4], 32),
            ev::deliver(1, 3, 116),
        ];
        let (lcs, _) = fold_lifecycles(&events);
        let lc = &lcs[0];
        assert_eq!(lc.hops(), 0);
        assert_eq!(lc.stage(Stage::Delivery), SimDuration::from_ns(106));
        let sum: u64 = Stage::ALL.iter().map(|s| lc.stage(*s).as_ps()).sum();
        assert_eq!(sum, lc.end_to_end().as_ps());
    }

    /// Multicast and in-flight packets are counted, not mis-attributed.
    #[test]
    fn incomplete_and_multicast_are_skipped() {
        let events = [
            // In flight: injected, never delivered.
            ev::inject(0, 0, Some(1), [0, 36, 36, 55], 32),
            // Multicast: dst unknown at inject, two delivers.
            ev::inject(1, 0, None, [0, 36, 36, 55], 32),
            ev::deliver(1, 1, 162),
            ev::deliver(1, 2, 238),
        ];
        let (lcs, stats) = fold_lifecycles(&events);
        assert!(lcs.is_empty());
        assert_eq!(
            stats,
            FoldStats {
                complete: 0,
                incomplete: 1,
                multicast: 1
            }
        );
    }
}
