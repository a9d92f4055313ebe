//! Property tests for the per-shard-pair lookahead matrix: under random
//! shard plans the per-pair bounds always dominate the global 54 ns
//! floor, direct entries exist exactly on ring-adjacent slabs, and a
//! sharded run — adaptive or global windows, any thread count — stays
//! bit-identical to the one-slab reference while the engine's per-pair
//! runtime assertion stays armed.

use anton_des::par::LookaheadMode;
use anton_des::SimTime;
use anton_net::{
    ClientAddr, ClientKind, CounterId, Ctx, Fabric, FaultPlan, NodeProgram, Packet, ParSimulation,
    Payload, ProgEvent, RunConfig, ShardPlan, Slabs, Timing,
};
use anton_topo::{NodeId, TorusDims};
use proptest::prelude::*;

const C_TOK: CounterId = CounterId(3);
const ADDR: u64 = 0x2000;

/// Every node forwards a token to the node `stride` ids ahead `left`
/// times — cross-shard traffic across several slab boundaries at once
/// when the stride exceeds a slab's thickness.
struct Relay {
    stride: u32,
    left: u32,
    finished_at: Option<SimTime>,
}

impl Relay {
    fn arm_and_send(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let me = ClientAddr::new(node, ClientKind::Slice(0));
        ctx.watch_counter(me, C_TOK, 1);
        let total = ctx.dims().node_count();
        let next = NodeId((node.0 + self.stride) % total);
        let pkt = Packet::write(
            me,
            ClientAddr::new(next, ClientKind::Slice(0)),
            ADDR,
            Payload::F64s(vec![node.0 as f64 + self.left as f64]),
        )
        .with_payload_bytes(8)
        .with_counter(C_TOK);
        ctx.send(pkt);
    }
}

impl NodeProgram for Relay {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => self.arm_and_send(node, ctx),
            ProgEvent::CounterReached { .. } => {
                let me = ClientAddr::new(node, ClientKind::Slice(0));
                let _ = ctx.mem_take(me, ADDR);
                ctx.reset_counter(me, C_TOK);
                self.left -= 1;
                if self.left > 0 {
                    self.arm_and_send(node, ctx);
                } else {
                    self.finished_at = Some(ctx.now());
                }
            }
            _ => unreachable!(),
        }
    }
}

fn build(dims: TorusDims) -> Fabric {
    Fabric::with_faults(dims, Timing::default(), FaultPlan::none())
}

#[allow(clippy::type_complexity)]
fn run_sharded(
    dims: TorusDims,
    slabs: usize,
    stride: u32,
    rounds: u32,
    threads: usize,
    mode: LookaheadMode,
) -> (anton_net::NetStats, SimTime, u64, Vec<SimTime>) {
    let cfg = RunConfig {
        slabs: Slabs::Count(slabs),
        threads,
        lookahead: mode,
        ..RunConfig::default()
    };
    let mut sim = ParSimulation::from_config(
        &cfg,
        move |_| build(dims),
        |_| Relay {
            stride,
            left: rounds,
            finished_at: None,
        },
    );
    sim.run();
    (
        sim.merged_stats(),
        sim.now(),
        sim.events_processed(),
        (0..dims.node_count())
            .map(|i| sim.program(NodeId(i)).finished_at.expect("finished"))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under random dims and shard counts, the matrix has direct entries
    /// exactly on ring-adjacent slab pairs, every entry dominates the
    /// engine's global floor, and the min-plus closure is exactly the
    /// slab ring distance times the per-axis hop bound.
    #[test]
    fn random_plans_never_dip_below_the_global_bound(
        nx in 2u32..9, ny in 2u32..9, nz in 2u32..9,
        nshards in 1usize..10,
    ) {
        let dims = TorusDims::new(nx, ny, nz);
        let plan = ShardPlan::new(dims, nshards);
        let t = Timing::default();
        let floor = t.conservative_lookahead();
        let hop = t.min_hop_delay(plan.axis());
        prop_assert!(hop >= floor);
        let m = plan.lookahead_matrix(&t);
        let n = plan.shard_count();
        prop_assert_eq!(m.shards(), n);
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                match m.direct(a, b) {
                    Some(d) => {
                        prop_assert_eq!(plan.slab_ring_distance(a, b), 1);
                        prop_assert_eq!(d, hop);
                        prop_assert!(d >= floor);
                    }
                    None => prop_assert!(plan.slab_ring_distance(a, b) != 1),
                }
            }
        }
        let dist = m.closure_ps();
        for a in 0..n {
            for b in 0..n {
                let want = plan.slab_ring_distance(a, b) as u64 * hop.0;
                prop_assert_eq!(dist[a * n + b], want);
            }
        }
    }

    /// Random plans and relay strides: adaptive and global windows at
    /// several thread counts all reproduce the one-slab reference
    /// bit-for-bit — with the engine's per-pair cross-shard assertion
    /// armed throughout, so no event ever beat the matrix's claim.
    #[test]
    fn sharded_runs_match_sequential_under_random_plans(
        nz in 2u32..6,
        nshards in 1usize..6,
        stride in 1u32..7,
        rounds in 1u32..3,
    ) {
        let dims = TorusDims::new(3, 3, nz);
        let one = run_sharded(dims, 1, stride, rounds, 1, LookaheadMode::Adaptive);

        let reference = run_sharded(dims, nshards, stride, rounds, 1, LookaheadMode::Adaptive);
        // Whole-struct equality only holds within one plan (each slab
        // seeds one Start); against one slab, compare the traffic
        // observables.
        let ws = &one.0;
        prop_assert_eq!(reference.0.packets_sent, ws.packets_sent);
        prop_assert_eq!(reference.0.packets_delivered, ws.packets_delivered);
        prop_assert_eq!(reference.0.link_traversals, ws.link_traversals);
        prop_assert_eq!(&reference.0.sent_by_node, &ws.sent_by_node);
        prop_assert_eq!(&reference.0.delivered_by_node, &ws.delivered_by_node);
        prop_assert_eq!(reference.1, one.1);
        prop_assert_eq!(&reference.3, &one.3);
        for threads in [2, 4] {
            for mode in [LookaheadMode::Adaptive, LookaheadMode::Global] {
                let got = run_sharded(dims, nshards, stride, rounds, threads, mode);
                prop_assert_eq!(&got, &reference, "{} threads, {} windows", threads, mode);
            }
        }
    }
}
