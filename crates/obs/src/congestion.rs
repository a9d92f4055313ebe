//! Time-binned congestion telemetry: per-link utilization, queueing,
//! and per-router occupancy, built from a recorded flight-event stream.
//!
//! Each torus link direction gets a row of time bins holding (a) busy
//! time — how long reserved traversals overlapped the bin, (b) queue
//! time — how long packets that were *ready* for the link waited in the
//! bin, and (c) the traversal count. Routers get an occupancy row: how
//! long packet heads were inside the node (hop-enter until the packet
//! moved on or delivered). The map exports as CSV, as Chrome-trace
//! counter tracks (congestion heatmap over time in Perfetto), and as a
//! quick ASCII heatmap for terminals.
//!
//! Busy time is conserved: summed over bins it equals the recorded
//! reservation spans exactly, which the tests cross-check against the
//! DES tracer's independent per-direction busy accounting.

use crate::chrome_trace::ChromeTraceBuilder;
use crate::recorder::FlightEvent;
use anton_des::{SimDuration, SimTime};
use anton_topo::{LinkDir, NodeId};
use std::collections::{BTreeMap, HashMap};

/// Load telemetry for one outgoing link direction of one node.
#[derive(Debug, Clone, Default)]
pub struct LinkLoad {
    /// Busy picoseconds per time bin (reservation overlap).
    pub busy_ps: Vec<u64>,
    /// Queue-wait picoseconds per time bin (ready-to-start overlap,
    /// summed over waiting packets).
    pub queue_ps: Vec<u64>,
    /// Traversals starting in each bin.
    pub traversals: Vec<u32>,
    /// Peak number of packets simultaneously waiting for or holding
    /// the link.
    pub max_queue: u32,
}

impl LinkLoad {
    /// Total busy time across all bins.
    pub fn busy_total(&self) -> SimDuration {
        SimDuration::from_ps(self.busy_ps.iter().sum())
    }

    /// Total queue-wait time across all bins.
    pub fn queue_total(&self) -> SimDuration {
        SimDuration::from_ps(self.queue_ps.iter().sum())
    }
}

/// Occupancy telemetry for one router (torus node).
#[derive(Debug, Clone, Default)]
pub struct RouterLoad {
    /// Packet-head-resident picoseconds per time bin.
    pub occupancy_ps: Vec<u64>,
    /// Packet heads that entered the router.
    pub enters: u32,
}

/// A time-binned congestion map over all links and routers that saw
/// traffic. Built once from an event stream; see the
/// [module docs](self).
#[derive(Debug)]
pub struct CongestionMap {
    bin: SimDuration,
    nbins: usize,
    links: BTreeMap<(u32, u8), LinkLoad>,
    routers: BTreeMap<u32, RouterLoad>,
}

/// Spread the span `[start, end)` over `bins` of width `bin_ps`.
fn deposit(bins: &mut [u64], bin_ps: u64, start: u64, end: u64) {
    if end <= start {
        return;
    }
    let first = (start / bin_ps) as usize;
    let last = ((end - 1) / bin_ps) as usize;
    for (b, slot) in bins.iter_mut().enumerate().take(last + 1).skip(first) {
        let lo = (b as u64 * bin_ps).max(start);
        let hi = ((b as u64 + 1) * bin_ps).min(end);
        *slot += hi - lo;
    }
}

impl CongestionMap {
    /// Bin a flight-event stream. `bin` is the bin width; the number of
    /// bins covers the latest recorded link-reservation end or router
    /// exit.
    pub fn build<'a, I>(events: I, bin: SimDuration) -> CongestionMap
    where
        I: IntoIterator<Item = &'a FlightEvent>,
    {
        assert!(bin > SimDuration::ZERO, "bin width must be positive");
        // Pass 1: collect the raw intervals (cheap, one tuple per
        // event) and the time horizon.
        let mut reserves: Vec<(u32, u8, u64, u64, u64)> = Vec::new(); // node, link, ready, start, end
        let mut hop_open: HashMap<(u64, u32), (u64, u64)> = HashMap::new(); // (pkt,node) -> (enter, latest exit)
        let mut horizon = 0u64;
        for ev in events {
            match *ev {
                FlightEvent::LinkReserve {
                    pkt,
                    node,
                    link,
                    ready,
                    start,
                    end,
                } => {
                    reserves.push((
                        node.0,
                        link.index() as u8,
                        ready.as_ps(),
                        start.as_ps(),
                        end.as_ps(),
                    ));
                    horizon = horizon.max(end.as_ps());
                    if let Some(open) = hop_open.get_mut(&(pkt.0, node.0)) {
                        open.1 = open.1.max(start.as_ps());
                    }
                }
                FlightEvent::HopEnter { pkt, node, at } => {
                    hop_open.insert((pkt.0, node.0), (at.as_ps(), at.as_ps()));
                }
                FlightEvent::HopExit { pkt, node, at }
                | FlightEvent::Deliver { pkt, node, at, .. } => {
                    if let Some(open) = hop_open.get_mut(&(pkt.0, node.0)) {
                        open.1 = open.1.max(at.as_ps());
                        horizon = horizon.max(at.as_ps());
                    }
                }
                _ => {}
            }
        }
        let bin_ps = bin.as_ps();
        let nbins = (horizon / bin_ps + 1) as usize;

        // Pass 2: deposit into bins.
        let mut links: BTreeMap<(u32, u8), LinkLoad> = BTreeMap::new();
        let mut sweeps: HashMap<(u32, u8), Vec<(u64, i32)>> = HashMap::new();
        for &(node, link, ready, start, end) in &reserves {
            let load = links.entry((node, link)).or_default();
            if load.busy_ps.is_empty() {
                load.busy_ps = vec![0; nbins];
                load.queue_ps = vec![0; nbins];
                load.traversals = vec![0; nbins];
            }
            deposit(&mut load.busy_ps, bin_ps, start, end);
            deposit(&mut load.queue_ps, bin_ps, ready, start);
            load.traversals[(start / bin_ps) as usize] += 1;
            let sweep = sweeps.entry((node, link)).or_default();
            sweep.push((ready, 1));
            sweep.push((end, -1));
        }
        for (key, mut sweep) in sweeps {
            // +1 sorts before -1 at equal times: a packet becoming
            // ready the instant another frees still overlaps it.
            sweep.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
            let (mut depth, mut peak) = (0i32, 0i32);
            for (_, d) in sweep {
                depth += d;
                peak = peak.max(depth);
            }
            links.get_mut(&key).unwrap().max_queue = peak.max(0) as u32;
        }

        let mut routers: BTreeMap<u32, RouterLoad> = BTreeMap::new();
        for ((_, node), (enter, exit)) in hop_open {
            let load = routers.entry(node).or_default();
            if load.occupancy_ps.is_empty() {
                load.occupancy_ps = vec![0; nbins];
            }
            load.enters += 1;
            deposit(&mut load.occupancy_ps, bin_ps, enter, exit);
        }

        CongestionMap {
            bin,
            nbins,
            links,
            routers,
        }
    }

    /// The bin width.
    pub fn bin_width(&self) -> SimDuration {
        self.bin
    }

    /// Number of time bins.
    pub fn bins(&self) -> usize {
        self.nbins
    }

    /// Per-link loads, keyed by (node, link), deterministic order.
    pub fn links(&self) -> impl Iterator<Item = ((NodeId, LinkDir), &LinkLoad)> {
        self.links
            .iter()
            .map(|(&(n, l), load)| ((NodeId(n), LinkDir::from_index(l as usize)), load))
    }

    /// Per-router loads, deterministic order.
    pub fn routers(&self) -> impl Iterator<Item = (NodeId, &RouterLoad)> {
        self.routers.iter().map(|(&n, load)| (NodeId(n), load))
    }

    /// Total busy time of one direction summed over the whole machine
    /// — comparable with the DES tracer's per-direction busy tracks.
    pub fn busy_for_direction(&self, dir: LinkDir) -> SimDuration {
        SimDuration::from_ps(
            self.links
                .iter()
                .filter(|((_, l), _)| *l == dir.index() as u8)
                .map(|(_, load)| load.busy_total().as_ps())
                .sum(),
        )
    }

    /// The `n` links with the most total busy time, busiest first
    /// (ties: lower node/link first).
    pub fn hottest_links(&self, n: usize) -> Vec<((NodeId, LinkDir), SimDuration)> {
        let mut all: Vec<((NodeId, LinkDir), SimDuration)> = self
            .links()
            .map(|(key, load)| (key, load.busy_total()))
            .collect();
        all.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(a.0 .0 .0.cmp(&b.0 .0 .0))
                .then(a.0 .1.cmp(&b.0 .1))
        });
        all.truncate(n);
        all
    }

    /// Peak queue depth over all links.
    pub fn max_queue_depth(&self) -> u32 {
        self.links.values().map(|l| l.max_queue).max().unwrap_or(0)
    }

    /// CSV export: one row per (link, bin) and per (router, bin) that
    /// saw load.
    pub fn to_csv(&self) -> String {
        let bin_ns = self.bin.as_ns_f64();
        let mut out =
            String::from("kind,node,link,bin_start_ns,busy_frac,queue_ns,traversals,max_queue\n");
        for ((node, link), load) in self.links() {
            for b in 0..self.nbins {
                if load.busy_ps[b] == 0 && load.queue_ps[b] == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "link,{},{},{:.1},{:.4},{:.3},{},{}\n",
                    node.0,
                    link,
                    b as f64 * bin_ns,
                    load.busy_ps[b] as f64 / self.bin.as_ps() as f64,
                    load.queue_ps[b] as f64 / 1000.0,
                    load.traversals[b],
                    load.max_queue,
                ));
            }
        }
        for (node, load) in self.routers() {
            for b in 0..self.nbins {
                if load.occupancy_ps[b] == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "router,{},,{:.1},{:.4},,{},\n",
                    node.0,
                    b as f64 * bin_ns,
                    load.occupancy_ps[b] as f64 / self.bin.as_ps() as f64,
                    load.enters,
                ));
            }
        }
        out
    }

    /// Emit Chrome-trace counter tracks under `pid`: one aggregate
    /// utilization track per torus direction plus individual tracks for
    /// the `top` hottest links (bounding the track count on big runs).
    pub fn counter_tracks(&self, trace: &mut ChromeTraceBuilder, pid: u64, top: usize) {
        trace.name_process(pid, "congestion");
        let bin_ps = self.bin.as_ps();
        for dir in LinkDir::ALL {
            let mut per_bin = vec![0u64; self.nbins];
            let mut active = 0u64;
            for ((_, l), load) in self.links() {
                if l != dir {
                    continue;
                }
                active += 1;
                for (b, &v) in load.busy_ps.iter().enumerate() {
                    per_bin[b] += v;
                }
            }
            if active == 0 {
                continue;
            }
            let name = format!("util.{}", dir);
            for (b, &v) in per_bin.iter().enumerate() {
                let frac = v as f64 / (bin_ps * active) as f64;
                trace.add_counter(pid, &name, SimTime::from_ps(b as u64 * bin_ps), frac);
            }
        }
        for ((node, link), _) in self.hottest_links(top) {
            let load = &self.links[&(node.0, link.index() as u8)];
            let name = format!("link.n{}.{}", node.0, link);
            for b in 0..self.nbins {
                let frac = load.busy_ps[b] as f64 / bin_ps as f64;
                trace.add_counter(pid, &name, SimTime::from_ps(b as u64 * bin_ps), frac);
            }
        }
    }

    /// A terminal heatmap: one row per hot link (up to `top`), one
    /// column per time bin, shaded by busy fraction.
    pub fn ascii_heatmap(&self, top: usize) -> String {
        const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let mut out = String::new();
        out.push_str(&format!(
            "congestion heatmap — {} bins x {:.0} ns, busiest {} links (shade = busy fraction)\n",
            self.nbins,
            self.bin.as_ns_f64(),
            top.min(self.links.len()),
        ));
        for ((node, link), _) in self.hottest_links(top) {
            let load = &self.links[&(node.0, link.index() as u8)];
            let mut row = format!("n{:<4}{:<3} |", node.0, link);
            for b in 0..self.nbins {
                let frac = load.busy_ps[b] as f64 / self.bin.as_ps() as f64;
                let shade = ((frac * 9.0).round() as usize).min(9);
                row.push(SHADES[shade]);
            }
            row.push_str(&format!(
                "| {:.1} ns busy, peak queue {}\n",
                load.busy_total().as_ns_f64(),
                load.max_queue
            ));
            out.push_str(&row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::ev;

    /// Two traversals of the same link, the second queued behind the
    /// first; busy time is conserved across bins.
    #[test]
    fn busy_and_queue_are_conserved() {
        let events = [
            ev::reserve(0, 0, 0, [0, 0, 30]),
            ev::reserve(1, 0, 0, [10, 30, 60]),
        ];
        let map = CongestionMap::build(&events, SimDuration::from_ns(25));
        let (_, load) = map.links().next().expect("one link");
        assert_eq!(load.busy_total(), SimDuration::from_ns(60));
        assert_eq!(load.queue_total(), SimDuration::from_ns(20));
        assert_eq!(load.max_queue, 2);
        assert_eq!(
            map.busy_for_direction(LinkDir::from_index(0)),
            SimDuration::from_ns(60)
        );
        assert_eq!(
            map.busy_for_direction(LinkDir::from_index(2)),
            SimDuration::ZERO
        );
        // Bin 0 holds 25 ns of busy, bin 1 the next 25, bin 2 the rest.
        assert_eq!(load.busy_ps[0], 25_000);
        assert_eq!(load.busy_ps[1], 25_000);
        assert_eq!(load.busy_ps[2], 10_000);
    }

    #[test]
    fn router_occupancy_spans_enter_to_exit() {
        let events = [
            ev::hop_enter(0, 5, 100),
            ev::reserve(0, 5, 2, [114, 120, 150]),
        ];
        let map = CongestionMap::build(&events, SimDuration::from_ns(1000));
        let (node, load) = map.routers().next().expect("one router");
        assert_eq!(node, NodeId(5));
        assert_eq!(load.enters, 1);
        // Head resident from hop-enter (100) until it left (120).
        assert_eq!(load.occupancy_ps.iter().sum::<u64>(), 20_000);
    }

    #[test]
    fn exports_are_well_formed() {
        let events = [ev::reserve(0, 3, 5, [5, 7, 9])];
        let map = CongestionMap::build(&events, SimDuration::from_ns(2));
        let csv = map.to_csv();
        assert!(csv.starts_with("kind,node,link"));
        assert!(csv.contains("link,3,"));
        let heat = map.ascii_heatmap(4);
        assert!(heat.contains("n3"));
        let mut trace = ChromeTraceBuilder::new();
        map.counter_tracks(&mut trace, 9, 4);
        assert!(!trace.is_empty());
        crate::json::validate_json(&trace.finish()).expect("counter tracks are valid JSON");
        assert_eq!(map.hottest_links(8).len(), 1);
        assert_eq!(map.max_queue_depth(), 1);
    }
}
