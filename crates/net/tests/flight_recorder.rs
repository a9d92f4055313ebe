//! Integration tests of the flight recorder against the live fabric:
//! exact stage accounting under random contended traffic, byte-identical
//! trace exports across runs, and the zero-observer-effect guarantee.

use anton_des::SimTime;
use anton_net::{
    ClientAddr, ClientKind, Ctx, Fabric, FaultPlan, NodeProgram, ObsMode, Packet, ParSimulation,
    Payload, ProgEvent, Timing,
};
use anton_obs::{fold_lifecycles, ChromeTraceBuilder, FlightEvent, Stage};
use anton_topo::{NodeId, TorusDims};
use proptest::prelude::*;
use std::sync::Arc;

fn slice0(node: NodeId) -> ClientAddr {
    ClientAddr::new(node, ClientKind::Slice(0))
}

/// Every node fires its planned unicast writes at start; contention on
/// injection ports and links is what makes the stage accounting
/// interesting.
struct PlannedTraffic {
    /// (src, dst, payload_bytes) per planned packet.
    plan: Arc<Vec<(u32, u32, u32)>>,
}

impl NodeProgram for PlannedTraffic {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        if !matches!(pe, ProgEvent::Start) {
            return;
        }
        for &(src, dst, bytes) in self.plan.iter() {
            if NodeId(src) != node {
                continue;
            }
            let pkt = Packet::write(slice0(node), slice0(NodeId(dst)), 0x40, Payload::Empty)
                .with_payload_bytes(bytes);
            ctx.send(pkt);
        }
    }
}

/// Run a plan and return (end time, traffic stats, metrics JSON, flight
/// events) — the metrics come from `Fabric::export_metrics`, covering
/// the `net.*` counters and the `mem.*` FIFO/counter aggregates; the
/// flight events are empty unless `record`.
fn run_planned(
    dims: TorusDims,
    plan: Arc<Vec<(u32, u32, u32)>>,
    record: bool,
) -> (SimTime, anton_net::NetStats, String, Vec<FlightEvent>) {
    let mut fabric = Fabric::with_faults(dims, Timing::default(), FaultPlan::none());
    if record {
        fabric.observe(ObsMode::Flight);
    }
    let mut sim = ParSimulation::one_slab(fabric, |_| PlannedTraffic { plan: plan.clone() });
    assert!(sim
        .run_guarded(SimTime(u64::MAX / 2), 10_000_000)
        .is_completed());
    let now = sim.now();
    let fabric = &mut sim.worlds_mut()[0].fabric;
    let mut reg = anton_obs::MetricsRegistry::new();
    fabric.export_metrics(&mut reg);
    let flight = fabric.take_flight_events().unwrap_or_default();
    (now, fabric.stats.clone(), reg.snapshot().to_json(), flight)
}

/// Derive a traffic plan from raw random words: (src, dst,
/// payload_bytes) per packet, all within the machine.
fn decode_plan(dims: TorusDims, raw: &[u64]) -> Vec<(u32, u32, u32)> {
    let n = dims.node_count() as u64;
    raw.iter()
        .map(|&r| {
            let src = (r % n) as u32;
            let dst = ((r >> 16) % n) as u32;
            let bytes = ((r >> 32) % 257) as u32;
            (src, dst, bytes)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every delivered unicast packet, the five recorded stage
    /// durations sum *exactly* (to the picosecond) to its end-to-end
    /// latency — under arbitrary cross-traffic, port contention, and
    /// payload sizes, local sends included.
    #[test]
    fn stage_durations_sum_to_end_to_end(
        x in 2u32..4, y in 2u32..4, z in 2u32..4,
        raw in prop::collection::vec(0u64..u64::MAX, 1..40),
    ) {
        let dims = TorusDims::new(x, y, z);
        let plan = Arc::new(decode_plan(dims, &raw));
        let (_, _, metrics, flight) = run_planned(dims, plan.clone(), true);
        prop_assert!(metrics.contains("\"net.packets_sent\""));
        prop_assert!(metrics.contains("\"mem.counter_increments\""));

        let (lives, fold) = fold_lifecycles(flight.iter());
        // Unicast writes only: every planned packet completes.
        prop_assert_eq!(fold.incomplete, 0);
        prop_assert_eq!(fold.multicast, 0);
        prop_assert_eq!(lives.len(), plan.len());
        for lc in &lives {
            let sum: u64 = Stage::ALL.iter().map(|&s| lc.stage(s).as_ps()).sum();
            prop_assert_eq!(
                sum,
                lc.end_to_end().as_ps(),
                "packet {:?}: stages must telescope exactly",
                lc.pkt
            );
        }
    }

    /// Same plan, same seed ⇒ byte-identical Chrome trace export, and a
    /// recorder-equipped run is indistinguishable (simulated time and
    /// traffic stats) from an unrecorded one.
    #[test]
    fn trace_export_is_deterministic_and_unobtrusive(
        x in 2u32..4, y in 2u32..4, z in 2u32..4,
        raw in prop::collection::vec(0u64..u64::MAX, 1..40),
    ) {
        let dims = TorusDims::new(x, y, z);
        let plan = Arc::new(decode_plan(dims, &raw));

        let export = |flight: &[FlightEvent]| {
            let (lives, _) = fold_lifecycles(flight.iter());
            let mut trace = ChromeTraceBuilder::new();
            for lc in &lives {
                trace.add_lifecycle(1, lc);
            }
            trace.finish()
        };

        let (end_a, stats_a, metrics_a, flight_a) = run_planned(dims, plan.clone(), true);
        let (end_b, stats_b, metrics_b, flight_b) = run_planned(dims, plan.clone(), true);
        let json_a = export(&flight_a);
        prop_assert_eq!(json_a.clone(), export(&flight_b), "same run, same bytes");
        prop_assert_eq!(end_a, end_b);
        anton_obs::validate_json(&json_a).expect("export is well-formed JSON");
        anton_obs::validate_json(&metrics_a).expect("metrics are well-formed JSON");

        // Observer effect: none. The unrecorded run matches exactly.
        let (end_plain, stats_plain, metrics_plain, _) = run_planned(dims, plan, false);
        prop_assert_eq!(end_a, end_plain);
        prop_assert_eq!(format!("{stats_a:?}"), format!("{stats_plain:?}"));
        prop_assert_eq!(format!("{stats_a:?}"), format!("{stats_b:?}"));
        prop_assert_eq!(metrics_a.clone(), metrics_b);
        prop_assert_eq!(metrics_a, metrics_plain);
    }
}
