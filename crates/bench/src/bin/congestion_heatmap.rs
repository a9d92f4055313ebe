//! Congestion telemetry demo: run a deterministic contended traffic
//! mix with both the flight recorder and the activity tracer installed,
//! build the time-binned per-link congestion map, and export it as a
//! CSV, Chrome-trace counter tracks, and an ASCII heatmap — all under
//! `target/obs/`. The map's per-direction busy totals are cross-checked
//! against the tracer's independently recorded link activity.

use anton_des::{SimDuration, SimTime, TrackId};
use anton_net::{
    ClientAddr, ClientKind, Ctx, Fabric, FaultPlan, NodeProgram, ObsMode, Packet, ParSimulation,
    Payload, ProgEvent, Timing,
};
use anton_obs::{validate_json, ChromeTraceBuilder, CongestionMap};
use anton_topo::{LinkDir, NodeId, TorusDims};
use std::sync::Arc;

/// Every node showers its +X/+Y neighbors and one far corner with
/// writes at start — enough cross-traffic to contend on links.
struct Shower {
    plan: Arc<Vec<(u32, u32, u32)>>,
}

impl NodeProgram for Shower {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        if !matches!(pe, ProgEvent::Start) {
            return;
        }
        for &(src, dst, bytes) in self.plan.iter() {
            if NodeId(src) != node {
                continue;
            }
            let pkt = Packet::write(
                ClientAddr::new(node, ClientKind::Slice(0)),
                ClientAddr::new(NodeId(dst), ClientKind::Slice(0)),
                0x40,
                Payload::Empty,
            )
            .with_payload_bytes(bytes);
            ctx.send(pkt);
        }
    }
}

/// Deterministic traffic plan: a full X+Y neighbor shower plus long
/// diagonal flows that pile onto the same X links.
fn make_plan(dims: TorusDims) -> Vec<(u32, u32, u32)> {
    let n = dims.node_count();
    let mut plan = Vec::new();
    for src in 0..n {
        let c = NodeId(src).coord(dims);
        for (dx, dy) in [(1, 0), (0, 1)] {
            let d = anton_topo::offset(c, [dx, dy, 0], dims);
            plan.push((src, d.node_id(dims).0, 64));
        }
        // Every fourth node also fires a large packet across the
        // machine diagonal — multi-hop flows that serialize on links.
        if src % 4 == 0 {
            let far = anton_topo::offset(c, [2, 2, 1], dims);
            plan.push((src, far.node_id(dims).0, 256));
        }
    }
    plan
}

fn main() {
    let dims = TorusDims::new(4, 4, 4);
    let plan = Arc::new(make_plan(dims));
    println!(
        "running {} planned writes across {} nodes...",
        plan.len(),
        dims.node_count()
    );

    // One slab: its single replica holds the whole machine's tracer.
    let mut fabric = Fabric::with_faults(dims, Timing::default(), FaultPlan::none());
    fabric.enable_tracing();
    fabric.observe(ObsMode::Flight);
    let mut sim = ParSimulation::one_slab(fabric, |_| Shower { plan: plan.clone() });
    assert!(sim
        .run_guarded(SimTime(u64::MAX / 2), 10_000_000)
        .is_completed());
    let end = sim.now();
    let fabric = &sim.worlds()[0].fabric;

    // ---- build the congestion map from the recorded lifecycles ----
    let bin = SimDuration::from_ns(50);
    let events = fabric.flight_events().expect("flight recorded");
    let map = CongestionMap::build(events, bin);
    println!(
        "{} links saw traffic over {} bins of {}; peak queue depth {}",
        map.links().count(),
        map.bins(),
        bin,
        map.max_queue_depth()
    );

    // ---- cross-check against the independent activity tracer ----
    let tracer = &fabric.tracer;
    for (i, dir) in LinkDir::ALL.iter().enumerate() {
        let from_map = map.busy_for_direction(*dir);
        let from_tracer = tracer.busy_time(TrackId(i as u16), SimTime::ZERO, end);
        assert_eq!(
            from_map.as_ps(),
            from_tracer.as_ps(),
            "direction {dir}: congestion map and tracer must agree"
        );
    }
    println!("per-direction busy totals agree with the activity tracer");
    // The tracer's binned utilization series for the hottest direction.
    let (hottest, _) = LinkDir::ALL
        .iter()
        .enumerate()
        .map(|(i, d)| (*d, tracer.busy_time(TrackId(i as u16), SimTime::ZERO, end)))
        .max_by_key(|&(_, busy)| busy.as_ps())
        .expect("six directions");
    let series = tracer.utilization_bins(TrackId(hottest.index() as u16), SimTime::ZERO, end, 10);
    println!(
        "{hottest} utilization over 10 bins: [{}]",
        series
            .iter()
            .map(|u| format!("{:.2}", u))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // ---- exports ----
    let csv = map.to_csv();
    let mut trace = ChromeTraceBuilder::new();
    trace.name_process(1, "link congestion (4x4x4 shower)");
    map.counter_tracks(&mut trace, 1, 8);
    let trace_json = trace.finish();
    validate_json(&trace_json).expect("counter tracks are well-formed JSON");

    std::fs::create_dir_all("target/obs").expect("create target/obs");
    std::fs::write("target/obs/congestion.csv", &csv).expect("write congestion.csv");
    std::fs::write("target/obs/congestion_trace.json", &trace_json)
        .expect("write congestion_trace.json");

    println!("\nhottest links (busy time):");
    for ((node, dir), busy) in map.hottest_links(8) {
        println!("  node {:>3} {dir}: {busy}", node.0);
    }
    println!("\n{}", map.ascii_heatmap(12));
    println!("wrote target/obs/congestion.csv and target/obs/congestion_trace.json");
    println!("open congestion_trace.json at https://ui.perfetto.dev");
}
