//! Integration tests of the fault-injection + link-reliability layer:
//! zero-cost fault-free plans, deterministic seeded degradation, the
//! stall watchdog, and routing around permanent failures.

use anton_des::{SimDuration, SimTime};
use anton_net::{
    ClientAddr, ClientKind, CounterId, Ctx, Fabric, FabricError, FaultPlan, NetStats, NodeProgram,
    Packet, ParSimulation, Payload, ProgEvent, RetryPolicy, RunReport,
};
use anton_topo::{Coord, Dim, Dir, LinkDir, NodeId, TorusDims};
use proptest::prelude::*;

/// Node 0 sends `n` counted writes to `dst`'s slice 0; `dst` watches the
/// counter (optionally with a watchdog deadline).
struct CountedWrites {
    n: u32,
    dst: NodeId,
    deadline_ns: Option<f64>,
}

impl NodeProgram for CountedWrites {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        if !matches!(pe, ProgEvent::Start) {
            return;
        }
        if node == self.dst {
            let me = ClientAddr::new(node, ClientKind::Slice(0));
            match self.deadline_ns {
                Some(ns) => ctx.watch_counter_deadline(
                    me,
                    CounterId(0),
                    self.n as u64,
                    SimDuration::from_ns_f64(ns),
                ),
                None => ctx.watch_counter(me, CounterId(0), self.n as u64),
            }
        }
        if node == NodeId(0) {
            let me = ClientAddr::new(node, ClientKind::Slice(0));
            let dst = ClientAddr::new(self.dst, ClientKind::Slice(0));
            for i in 0..self.n {
                let pkt = Packet::write(me, dst, 0x100 + i as u64 * 8, Payload::Token(i as u64))
                    .with_counter(CounterId(0));
                ctx.send(pkt);
            }
        }
    }
}

fn run_counted(
    dims: TorusDims,
    fault: FaultPlan,
    n: u32,
    dst: NodeId,
    deadline_ns: Option<f64>,
) -> (RunReport, SimTime, NetStats, ParSimulation<CountedWrites>) {
    let fabric = Fabric::with_faults(dims, anton_net::Timing::default(), fault);
    let mut sim = ParSimulation::one_slab(fabric, |_| CountedWrites {
        n,
        dst,
        deadline_ns,
    });
    let report = sim.run_guarded(SimTime(u64::MAX / 2), 10_000_000);
    let now = sim.now();
    let stats = sim.merged_stats();
    (report, now, stats, sim)
}

#[test]
fn seeded_zero_rate_plan_is_bit_identical_to_none() {
    let dims = TorusDims::new(4, 2, 2);
    let (ra, ta, sa, _) = run_counted(dims, FaultPlan::none(), 20, NodeId(3), None);
    let (rb, tb, sb, _) = run_counted(dims, FaultPlan::seeded(99), 20, NodeId(3), None);
    assert!(ra.is_completed() && rb.is_completed());
    assert_eq!(ta, tb, "zero-rate plan must not perturb timing");
    assert_eq!(sa, sb, "zero-rate plan must not perturb traffic stats");
    assert_eq!(sa.faults_dropped + sa.retransmits + sa.packets_lost, 0);
}

#[test]
fn drop_rate_degrades_latency_and_recovers_all_packets() {
    let dims = TorusDims::new(4, 1, 1);
    let n = 200;
    let (r0, t0, s0, _) = run_counted(dims, FaultPlan::none(), n, NodeId(2), None);
    let plan = FaultPlan::seeded(7)
        .with_drop_rate(0.05)
        .with_corrupt_rate(0.02);
    let (r1, t1, s1, _) = run_counted(dims, plan, n, NodeId(2), None);
    assert!(r0.is_completed());
    assert!(
        r1.is_completed(),
        "retransmission must recover every packet"
    );
    assert_eq!(
        s1.packets_delivered, n as u64,
        "no packet may be lost at 5%/2%"
    );
    assert!(
        s1.faults_dropped > 0 && s1.faults_corrupted > 0,
        "faults must fire"
    );
    assert_eq!(s1.retransmits, s1.faults_dropped + s1.faults_corrupted);
    assert!(t1 > t0, "retransmissions must cost simulated time");
    assert_eq!(s0.packets_delivered, s1.packets_delivered);
}

#[test]
fn same_seed_reproduces_the_run_and_different_seed_differs() {
    let dims = TorusDims::new(4, 1, 1);
    let plan = |seed| FaultPlan::seeded(seed).with_drop_rate(0.1);
    let (_, ta, sa, _) = run_counted(dims, plan(1), 300, NodeId(2), None);
    let (_, tb, sb, _) = run_counted(dims, plan(1), 300, NodeId(2), None);
    let (_, tc, sc, _) = run_counted(dims, plan(2), 300, NodeId(2), None);
    assert_eq!((ta, &sa), (tb, &sb), "same seed + plan => identical trace");
    assert!(
        (tc, &sc) != (ta, &sa),
        "different seeds should perturb the run (300 draws at 10%)"
    );
}

/// Satellite (d): a deliberately lost packet must produce a bounded-time
/// timeout report naming the stuck counter and node, not a hang.
#[test]
fn lost_packet_triggers_watchdog_and_stall_report() {
    let dims = TorusDims::new(4, 1, 1);
    // Every traversal fails and the budget is tiny: all packets are lost.
    let plan = FaultPlan::seeded(3)
        .with_drop_rate(1.0)
        .with_retry(RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        });
    let dst = NodeId(2);
    let (report, now, stats, sim) = run_counted(dims, plan, 4, dst, Some(10_000.0));
    assert!(
        now < SimTime(u64::MAX / 4),
        "run must terminate in bounded sim time"
    );
    assert_eq!(stats.packets_delivered, 0);
    assert_eq!(stats.packets_lost, 4);
    assert!(stats.retry_budget_exhausted > 0);
    let stall = report.stall().expect("run must be diagnosed as stalled");
    assert_eq!(stall.stuck.len(), 1, "exactly one watch never fired");
    let stuck = &stall.stuck[0];
    assert_eq!(stuck.node, dst);
    assert_eq!(stuck.client, ClientKind::Slice(0));
    assert_eq!(stuck.counter, CounterId(0));
    assert_eq!((stuck.current, stuck.target), (0, 4));
    // The deadline expired and produced a watchdog report naming the
    // same counter, at the 10 µs deadline.
    assert_eq!(stall.watchdog.len(), 1);
    let wd = &stall.watchdog[0];
    assert_eq!(
        (wd.node, wd.counter, wd.current, wd.target),
        (dst, CounterId(0), 0, 4)
    );
    assert_eq!(wd.at, SimTime::ZERO + SimDuration::from_ns_f64(10_000.0));
    // The error log explains *why*: retry budgets ran out.
    assert!(sim.worlds()[0]
        .fabric
        .errors()
        .iter()
        .any(|e| matches!(e, FabricError::RetryBudgetExhausted { .. })));
    // The report embeds the traffic snapshot, so a chaos-induced stall
    // is diagnosable from the report alone — no fabric access needed.
    assert_eq!(stall.stats, stats);
    assert_eq!(stall.stats.packets_lost, 4);
    assert!(stall.stats.retry_budget_exhausted > 0);
    let shown = format!("{stall}");
    assert!(
        shown.contains("4 lost"),
        "Display names the losses: {shown}"
    );
}

#[test]
fn permanent_cable_failure_detours_and_completes() {
    let dims = TorusDims::new(4, 1, 1);
    let (r0, t0, _, _) = run_counted(dims, FaultPlan::none(), 10, NodeId(1), None);
    // Kill the direct 0 -> 1 cable before any traffic: the route must go
    // the long way around the X ring (3 hops instead of 1).
    let xp = LinkDir {
        dim: Dim::X,
        dir: Dir::Plus,
    };
    let plan = FaultPlan::none().fail_cable_at(Coord::new(0, 0, 0), xp, SimTime::ZERO);
    let (r1, t1, s1, _) = run_counted(dims, plan, 10, NodeId(1), None);
    assert!(r0.is_completed() && r1.is_completed());
    assert_eq!(s1.packets_delivered, 10);
    assert_eq!(s1.link_traversals, 30, "detour takes 3 hops per packet");
    assert!(t1 > t0, "the detour must cost latency");
}

#[test]
fn isolated_destination_is_unreachable_not_a_hang() {
    let dims = TorusDims::new(4, 1, 1);
    let dst = NodeId(2);
    let plan = FaultPlan::none().fail_node_at(Coord::new(2, 0, 0), SimTime::ZERO);
    let (report, now, stats, sim) = run_counted(dims, plan, 5, dst, None);
    assert!(now < SimTime(u64::MAX / 4));
    assert_eq!(stats.packets_unreachable, 5);
    assert_eq!(stats.packets_delivered, 0);
    let stall = report.stall().expect("stall must be diagnosed");
    assert_eq!(stall.stuck.len(), 1);
    assert_eq!(stall.stuck[0].node, dst);
    assert!(sim.worlds()[0]
        .fabric
        .errors()
        .iter()
        .any(|e| matches!(e, FabricError::Unreachable { dst: d, .. } if *d == dst)));
}

#[test]
fn mid_run_link_death_loses_packets_in_flight() {
    let dims = TorusDims::new(4, 1, 1);
    // The 0 -> 1 link dies at 1 µs; a long stream through it loses
    // whatever had not yet cleared the link and reroutes the rest.
    let xp = LinkDir {
        dim: Dim::X,
        dir: Dir::Plus,
    };
    let plan = FaultPlan::none().fail_link_at(Coord::new(0, 0, 0), xp, SimTime(1_000_000));
    let (report, _, stats, _) = run_counted(dims, plan, 100, NodeId(1), None);
    assert_eq!(
        stats.packets_delivered + stats.packets_lost + stats.packets_unreachable,
        100,
        "every packet is accounted for"
    );
    assert!(
        stats.packets_delivered > 0,
        "early packets beat the failure"
    );
    assert!(
        stats.packets_lost + stats.packets_unreachable > 0,
        "late packets hit the dead link"
    );
    // Losses starve the watch; the quiescence detector reports it.
    assert!(!report.is_completed());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite (c): drops-only plans never overshoot the counted
    /// target, account for every packet, and replay bit-identically.
    #[test]
    fn drops_only_plans_account_for_every_packet(
        seed in 0u64..1000,
        rate in 0.0f64..0.3,
        n in 1u32..40,
    ) {
        let dims = TorusDims::new(4, 2, 1);
        let dst = NodeId(5);
        let plan = FaultPlan::seeded(seed).with_drop_rate(rate);
        let (ra, ta, sa, sim_a) = run_counted(dims, plan.clone(), n, dst, None);
        let addr = ClientAddr::new(dst, ClientKind::Slice(0));
        let count = sim_a.worlds()[0].fabric.counter_read(addr, CounterId(0));
        // Never overshoot: drops can only lose increments, not mint them.
        prop_assert!(count <= n as u64);
        prop_assert_eq!(count, sa.packets_delivered);
        prop_assert_eq!(
            sa.packets_sent,
            sa.packets_delivered + sa.packets_lost + sa.packets_unreachable
        );
        // Completion iff nothing was lost.
        prop_assert_eq!(ra.is_completed(), sa.packets_lost == 0);
        // Same seed, same plan => bit-identical replay.
        let (rb, tb, sb, _) = run_counted(dims, plan, n, dst, None);
        prop_assert_eq!(ta, tb);
        prop_assert_eq!(sa, sb);
        prop_assert_eq!(ra.is_completed(), rb.is_completed());
    }
}
