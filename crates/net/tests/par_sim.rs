//! Sharded-parallel simulation vs. the one-slab reference: the merged
//! observables must be *bit-identical* at every thread count, and equal
//! to a one-slab run of the same machine, whose single replica is the
//! whole fabric.

use anton_des::{SimDuration, SimTime};
use anton_net::{
    merge_flight_events, ClientAddr, ClientKind, CounterId, Ctx, Fabric, FaultPlan, NodeProgram,
    Packet, ParSimulation, Payload, ProgEvent, ShardPlan,
};
use anton_obs::FlightEvent;
use anton_topo::{NodeId, TorusDims};

const C_TOK: CounterId = CounterId(7);
const ADDR: u64 = 0x1000;

/// Every node forwards a token to the next node id `rounds` times:
/// cross-shard traffic in both directions on every shard boundary.
struct Relay {
    left: u32,
    finished_at: Option<SimTime>,
}

impl Relay {
    fn arm_and_send(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let me = ClientAddr::new(node, ClientKind::Slice(0));
        ctx.watch_counter(me, C_TOK, 1);
        let total = ctx.dims().node_count();
        let next = NodeId((node.0 + 1) % total);
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
    Fabric::with_faults(dims, anton_net::Timing::default(), FaultPlan::none())
}

fn make(rounds: u32) -> impl FnMut(NodeId) -> Relay {
    move |_| Relay {
        left: rounds,
        finished_at: None,
    }
}

struct Observables {
    stats: anton_net::NetStats,
    now: SimTime,
    events: u64,
    finished: Vec<SimTime>,
    flight: Vec<FlightEvent>,
}

fn run_par(dims: TorusDims, rounds: u32, threads: usize) -> Observables {
    let mut sim = ParSimulation::new(threads, move || build(dims), make(rounds));
    sim.attach_flight_recorders();
    assert!(sim
        .run_guarded(SimTime(u64::MAX / 2), 10_000_000)
        .is_completed());
    Observables {
        stats: sim.merged_stats(),
        now: sim.now(),
        events: sim.events_processed(),
        finished: (0..dims.node_count())
            .map(|i| sim.program(NodeId(i)).finished_at.expect("finished"))
            .collect(),
        flight: sim.take_merged_flight_events(),
    }
}

#[test]
fn thread_counts_are_bit_identical() {
    let dims = TorusDims::new(4, 4, 4);
    let base = run_par(dims, 3, 1);
    for threads in [2, 4, 8] {
        let other = run_par(dims, 3, threads);
        assert_eq!(other.stats, base.stats, "{threads} threads");
        assert_eq!(other.now, base.now);
        assert_eq!(other.events, base.events);
        assert_eq!(other.finished, base.finished);
        assert_eq!(other.flight.len(), base.flight.len());
        for (a, b) in other.flight.iter().zip(&base.flight) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}

#[test]
fn par_matches_the_sequential_simulation() {
    let dims = TorusDims::new(4, 4, 4);
    let par = run_par(dims, 3, 4);

    let mut one = ParSimulation::one_slab(build(dims), make(3));
    assert!(one
        .run_guarded(SimTime(u64::MAX / 2), 10_000_000)
        .is_completed());
    // Same traffic, same latencies. (Total event counts differ by
    // bookkeeping: each slab seeds one Start.)
    let fabric = &one.worlds()[0].fabric;
    assert_eq!(par.stats, fabric.stats);
    assert_eq!(par.stats, one.merged_stats());
    assert_eq!(par.now, one.now());
    assert_eq!(par.events, one.events_processed() + 3);
    let one_finished: Vec<SimTime> = (0..dims.node_count())
        .map(|i| one.program(NodeId(i)).finished_at.expect("finished"))
        .collect();
    assert_eq!(par.finished, one_finished);
}

#[test]
fn each_replica_is_built_once() {
    let dims = TorusDims::new(4, 4, 4);
    let mut calls = 0;
    let sim = ParSimulation::new(
        1,
        || {
            calls += 1;
            build(dims)
        },
        make(1),
    );
    assert_eq!(calls, sim.plan().shard_count());

    let mut calls = 0;
    let plan = ShardPlan::new(dims, 2);
    let sim = ParSimulation::with_plan(
        1,
        plan,
        || {
            calls += 1;
            build(dims)
        },
        make(1),
    );
    assert_eq!(sim.worlds().len(), 2);
    assert_eq!(calls, 2);
}

#[test]
fn shard_plan_slabs_the_longest_axis() {
    let plan = ShardPlan::new(TorusDims::new(4, 4, 8), 8);
    assert_eq!(plan.shard_count(), 8);
    // Z is longest: consecutive node ids land in the same slab.
    let dims = plan.dims();
    for node in 0..dims.node_count() {
        let s = plan.shard_of_node(NodeId(node));
        assert!(s < 8);
    }
    // All 16 nodes of one z-plane share a shard.
    let s0 = plan.shard_of_node(NodeId(0));
    for node in 0..16 {
        assert_eq!(plan.shard_of_node(NodeId(node)), s0);
    }
}

#[test]
fn flight_merge_is_stable_by_time_then_shard() {
    // Two streams with interleaved and tied timestamps.
    let mk = |t: u64, label: &str| FlightEvent::Phase {
        label: label.to_string(),
        at: SimTime(t),
    };
    let a = vec![mk(1, "a0"), mk(5, "a1"), mk(5, "a2")];
    let b = vec![mk(2, "b0"), mk(5, "b1")];
    let merged = merge_flight_events(vec![a, b]);
    let keys: Vec<(u64, String)> = merged
        .iter()
        .map(|e| match e {
            FlightEvent::Phase { label, at } => (at.0, label.clone()),
            other => panic!("unexpected event {other:?}"),
        })
        .collect();
    // Time order first; within the t=5 tie, shard 0's events precede
    // shard 1's.
    let want: Vec<(u64, String)> = [(1, "a0"), (2, "b0"), (5, "a1"), (5, "a2"), (5, "b1")]
        .iter()
        .map(|(t, l)| (*t, l.to_string()))
        .collect();
    assert_eq!(keys, want);
}

#[test]
fn relay_makespan_is_plausible() {
    // One round on a 64-node ring: each token makes a 1-id hop; the
    // longest of those (wrap-around) bounds completion. All well under
    // a microsecond per round of the paper's 162 ns-scale hops.
    let dims = TorusDims::new(4, 4, 4);
    let o = run_par(dims, 1, 2);
    let us = (o.now - SimTime::ZERO).as_us_f64();
    assert!(us < 2.0, "{us} µs");
    assert!(o.now > SimTime::ZERO);
    let _ = SimDuration::ZERO;
}
