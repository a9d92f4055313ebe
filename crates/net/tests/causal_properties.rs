//! Property tests of the causal event-graph reconstruction against the
//! live fabric: the DAG is acyclic, its critical path telescopes to the
//! recorded makespan exactly, slack is zero along the path, and a
//! zero-perturbation retiming reproduces every recorded event time
//! bit-for-bit — under arbitrary contended traffic, and under packet
//! drops with retransmission.

use anton_des::SimTime;
use anton_net::{
    ClientAddr, ClientKind, Ctx, Fabric, FaultPlan, NodeProgram, ObsMode, Packet, ParSimulation,
    Payload, ProgEvent, Timing,
};
use anton_obs::{retime, CausalGraph, FlightEvent, Perturbation};
use anton_topo::{NodeId, TorusDims};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::Arc;

fn slice0(node: NodeId) -> ClientAddr {
    ClientAddr::new(node, ClientKind::Slice(0))
}

/// Every node fires its planned unicast writes at start; contention on
/// injection ports and links makes the causal structure interesting.
struct PlannedTraffic {
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

fn run_planned(
    dims: TorusDims,
    plan: Arc<Vec<(u32, u32, u32)>>,
    fault: FaultPlan,
) -> Vec<FlightEvent> {
    let mut fabric = Fabric::with_faults(dims, Timing::default(), fault);
    fabric.observe(ObsMode::Flight);
    let mut sim = ParSimulation::one_slab(fabric, |_| PlannedTraffic { plan: plan.clone() });
    assert!(sim
        .run_guarded(SimTime(u64::MAX / 2), 10_000_000)
        .is_completed());
    sim.worlds_mut()[0]
        .fabric
        .take_flight_events()
        .expect("flight recorded")
}

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

fn build_graph(dims: TorusDims, flight: &[FlightEvent]) -> CausalGraph {
    let timing = Timing::default();
    CausalGraph::build(dims, flight.iter(), |b| timing.injection_occupancy(b))
}

/// Independent acyclicity check: Kahn's algorithm must consume every
/// node (the builder's own invariant is `src < dst`, checked too).
fn assert_acyclic(g: &CausalGraph) -> Result<(), TestCaseError> {
    let n = g.len();
    let mut indeg = vec![0usize; n];
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
    for e in g.edges() {
        prop_assert!(e.src < e.dst, "stream order must be topological");
        indeg[e.dst as usize] += 1;
        out[e.src as usize].push(e.dst);
    }
    let mut queue: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
    let mut seen = 0usize;
    while let Some(i) = queue.pop() {
        seen += 1;
        for &d in &out[i as usize] {
            indeg[d as usize] -= 1;
            if indeg[d as usize] == 0 {
                queue.push(d);
            }
        }
    }
    prop_assert_eq!(seen, n, "Kahn's algorithm must drain the whole graph");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fault-free random traffic: the reconstructed DAG is internally
    /// consistent and acyclic, the critical path ends at the latest
    /// recorded delivery and telescopes to the makespan *exactly*, path
    /// slack is zero, and all slacks are well-formed.
    #[test]
    fn critical_path_telescopes_to_recorded_makespan(
        x in 2u32..4, y in 2u32..4, z in 2u32..4,
        raw in prop::collection::vec(0u64..u64::MAX, 1..40),
    ) {
        let dims = TorusDims::new(x, y, z);
        let plan = Arc::new(decode_plan(dims, &raw));
        let rec = run_planned(dims, plan.clone(), FaultPlan::none());
        let g = build_graph(dims, &rec);
        prop_assert!(!g.is_empty());
        g.check_consistency().map_err(TestCaseError)?;
        assert_acyclic(&g)?;

        // The latest recorded delivery, computed from the raw stream
        // independently of the graph.
        let last_deliver = rec
            .iter()
            .filter_map(|e| match e {
                FlightEvent::Deliver { at, .. } => Some(at.as_ps()),
                _ => None,
            })
            .max()
            .expect("plan delivers at least one packet");

        let path = g.critical_path().expect("nonempty graph has a path");
        prop_assert_eq!(path.end.as_ps(), last_deliver, "path must end at the last delivery");
        // Telescoping: the path's edge lags sum to its span exactly.
        let lag_sum: u64 = path
            .edges
            .iter()
            .map(|&e| g.edges()[e as usize].lag.as_ps())
            .sum();
        prop_assert_eq!(lag_sum, path.span().as_ps(), "edge lags must telescope");
        let blame = anton_obs::Blame::from_path(&g, &path);
        prop_assert_eq!(blame.total().as_ps(), path.span().as_ps());

        // Slack: zero on the critical path, defined for its members.
        let slack = g.slack();
        for &n in &path.nodes {
            prop_assert_eq!(
                slack[n as usize].map(|s| s.as_ps()),
                Some(0),
                "critical-path node {} must have zero slack", n
            );
        }
    }

    /// A zero perturbation replays the DAG to the recorded times
    /// bit-for-bit — every node, not just the terminal.
    #[test]
    fn zero_perturbation_retiming_is_bit_for_bit(
        x in 2u32..4, y in 2u32..4, z in 2u32..4,
        raw in prop::collection::vec(0u64..u64::MAX, 1..30),
    ) {
        let dims = TorusDims::new(x, y, z);
        let plan = Arc::new(decode_plan(dims, &raw));
        let rec = run_planned(dims, plan, FaultPlan::none());
        let g = build_graph(dims, &rec);
        let replay = retime(&g, &Perturbation::none());
        for (i, node) in g.nodes().iter().enumerate() {
            prop_assert_eq!(
                replay.times[i], node.time,
                "node {} ({:?}) must replay exactly", i, node.kind
            );
        }
        prop_assert_eq!(replay.delta_ps(&g), 0);
    }

    /// Under packet drops with retransmission the reconstruction stays
    /// exact: the graph is still consistent and acyclic, retransmission
    /// delays land on Retransmit/Residual edges, and the identity
    /// replay still reproduces every recorded time.
    #[test]
    fn faulty_traffic_reconstructs_exactly(
        x in 2u32..4, y in 2u32..4,
        raw in prop::collection::vec(0u64..u64::MAX, 1..25),
        seed in 0u64..1000,
    ) {
        let dims = TorusDims::new(x, y, 2);
        let plan = Arc::new(decode_plan(dims, &raw));
        let fault = FaultPlan::seeded(seed).with_drop_rate(0.08);
        let rec = run_planned(dims, plan, fault);
        let g = build_graph(dims, &rec);
        g.check_consistency().map_err(TestCaseError)?;
        assert_acyclic(&g)?;
        let replay = retime(&g, &Perturbation::none());
        for (i, node) in g.nodes().iter().enumerate() {
            prop_assert_eq!(replay.times[i], node.time);
        }
    }
}
