//! Integration + property tests of the runtime fault-recovery layer:
//! deterministic failure detection, fault-avoiding reinjection with
//! in-order reassembly, duplicate suppression of counted writes, and
//! bit-identity of recovery-disabled runs with the baseline fabric.

use anton_des::{SimDuration, SimTime};
use anton_net::{
    ClientAddr, ClientKind, CounterId, Ctx, Fabric, FaultPlan, NodeProgram, Packet, ParSimulation,
    Payload, ProgEvent, RecoveryConfig, RetryPolicy,
};
use anton_obs::VerdictCause;
use anton_topo::{Coord, Dim, Dir, LinkDir, NodeId, TorusDims};
use proptest::prelude::*;

fn xp() -> LinkDir {
    LinkDir {
        dim: Dim::X,
        dir: Dir::Plus,
    }
}

/// Every `(src, dst)` pair streams `n` in-order FIFO messages carrying
/// ascending tokens; destinations log `(source, token)` in arrival
/// order.
struct Streams {
    n: u32,
    pairs: Vec<(NodeId, NodeId)>,
    received: Vec<(NodeId, u64)>,
}

impl NodeProgram for Streams {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => {
                for &(src, dst) in &self.pairs {
                    if src != node {
                        continue;
                    }
                    let me = ClientAddr::new(node, ClientKind::Slice(0));
                    let to = ClientAddr::new(dst, ClientKind::Slice(0));
                    for i in 0..self.n {
                        let pkt = Packet::fifo(me, to, Payload::Token(i as u64))
                            .with_tag(i as u64)
                            .with_in_order();
                        ctx.send(pkt);
                    }
                }
            }
            ProgEvent::FifoMessage { pkt, .. } => {
                let Payload::Token(t) = pkt.payload else {
                    panic!("stream messages carry tokens");
                };
                self.received.push((pkt.src.node, t));
            }
            _ => {}
        }
    }
}

/// [`Streams`] over `fabric`, run on one slab; a stall is left for the
/// test to inspect.
fn run_streams_on(fabric: Fabric, pairs: &[(NodeId, NodeId)], n: u32) -> ParSimulation<Streams> {
    let mut sim = ParSimulation::one_slab(fabric, |_| Streams {
        n,
        pairs: pairs.to_vec(),
        received: Vec::new(),
    });
    sim.run_guarded(SimTime(u64::MAX / 2), 50_000_000);
    sim
}

fn run_streams(
    dims: TorusDims,
    plan: FaultPlan,
    recovery: RecoveryConfig,
    pairs: &[(NodeId, NodeId)],
    n: u32,
) -> ParSimulation<Streams> {
    let timing = anton_net::Timing::default();
    run_streams_on(
        Fabric::with_recovery(dims, timing, plan, recovery),
        pairs,
        n,
    )
}

/// Node 0 streams `n` counted writes to `dst`; used to exercise the
/// duplicate-suppression path under forced retry-budget exhaustion.
struct Counted {
    n: u32,
    dst: NodeId,
}

impl NodeProgram for Counted {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        if !matches!(pe, ProgEvent::Start) || node != NodeId(0) {
            return;
        }
        let me = ClientAddr::new(node, ClientKind::Slice(0));
        let to = ClientAddr::new(self.dst, ClientKind::Slice(0));
        for i in 0..self.n {
            let pkt = Packet::write(me, to, 0x100 + i as u64 * 8, Payload::Token(i as u64))
                .with_counter(CounterId(0));
            ctx.send(pkt);
        }
    }
}

fn run_counted(
    dims: TorusDims,
    plan: FaultPlan,
    recovery: RecoveryConfig,
    n: u32,
    dst: NodeId,
) -> ParSimulation<Counted> {
    let timing = anton_net::Timing::default();
    let fabric = Fabric::with_recovery(dims, timing, plan, recovery);
    let mut sim = ParSimulation::one_slab(fabric, |_| Counted { n, dst });
    sim.run_guarded(SimTime(u64::MAX / 2), 50_000_000);
    sim
}

// ---- failure detection ----

#[test]
fn heartbeat_detector_promotes_a_dead_link_to_a_verdict() {
    // A zero-time plan death is globally known and routed around before
    // any packet moves; the detector only has work when a link dies
    // *mid-run* with traffic queued on it.
    let dims = TorusDims::new(4, 1, 1);
    let rec = RecoveryConfig::recovering(1);
    let death = SimTime(1_000_000); // 1 µs, inside the stream's window
    let plan = FaultPlan::none().fail_link_at(Coord::new(0, 0, 0), xp(), death);
    let sim = run_streams(dims, plan, rec, &[(NodeId(0), NodeId(1))], 100);
    let verdicts = sim.worlds()[0].fabric.verdicts();
    assert!(!verdicts.is_empty(), "a dead link must produce a verdict");
    let v = &verdicts[0];
    assert_eq!(v.node, NodeId(0));
    assert_eq!(v.link, Some(xp()));
    assert_eq!(v.cause, VerdictCause::Heartbeat);
    // The verdict lands one idle deadline past the failed attempt:
    // after the death, within death + heartbeat + one queue drain.
    assert!(v.at > death, "detection cannot precede the death");
    assert!(
        v.at <= death + SimDuration::from_ns_f64(rec.heartbeat_timeout_ns + 2_000.0),
        "detection must be prompt: {v:?}"
    );
    // Idempotent: one verdict per link, however many packets hit it.
    assert_eq!(
        verdicts
            .iter()
            .filter(|v| v.node == NodeId(0) && v.link == Some(xp()))
            .count(),
        1
    );
}

#[test]
fn six_link_verdicts_escalate_to_a_node_down_verdict() {
    // Node (1,1,1) streams to all six face neighbors, so every one of
    // its outgoing links has a queue straddling the death time; each
    // queue's first post-death reservation condemns its link, and the
    // sixth condemnation escalates to a NodeDown verdict.
    let dims = TorusDims::new(4, 4, 4);
    let rec = RecoveryConfig::recovering(2);
    let me = Coord::new(1, 1, 1);
    let dead = NodeId(1 + 4 + 16);
    let plan = FaultPlan::none().fail_node_at(me, SimTime(1_500_000));
    let neighbors = [22u32, 20, 25, 17, 37, 5]; // X± Y± Z± of (1,1,1)
    let pairs: Vec<(NodeId, NodeId)> = neighbors.iter().map(|&d| (dead, NodeId(d))).collect();
    let sim = run_streams(dims, plan, rec, &pairs, 80);
    let verdicts = sim.worlds()[0].fabric.verdicts();
    assert_eq!(
        verdicts
            .iter()
            .filter(|v| v.node == dead && v.link.is_some())
            .count(),
        6,
        "all six links must be condemned: {verdicts:?}"
    );
    assert!(
        verdicts.iter().any(|v| v.node == dead && v.link.is_none()),
        "all-links-dead must escalate to NodeDown: {verdicts:?}"
    );
    assert_eq!(sim.worlds()[0].fabric.recovery_stats().node_verdicts, 1);
}

#[test]
fn retry_budget_exhaustion_promotes_with_the_retry_budget_cause() {
    let dims = TorusDims::new(4, 1, 1);
    let rec = RecoveryConfig::recovering(3);
    let plan = FaultPlan::seeded(3)
        .with_drop_rate(1.0)
        .with_retry(RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        });
    let sim = run_streams(dims, plan, rec, &[(NodeId(0), NodeId(2))], 3);
    let verdicts = sim.worlds()[0].fabric.verdicts();
    assert!(verdicts
        .iter()
        .any(|v| v.cause == VerdictCause::RetryBudget));
}

// ---- dynamic rerouting ----

#[test]
fn mid_run_link_death_reroutes_and_loses_nothing() {
    // Without recovery this exact scenario loses packets (see
    // fault_injection.rs::mid_run_link_death_loses_packets_in_flight);
    // with it, every packet is detoured around the dead link.
    let dims = TorusDims::new(4, 1, 1);
    let plan = FaultPlan::none().fail_link_at(Coord::new(0, 0, 0), xp(), SimTime(1_000_000));
    let rec = RecoveryConfig::recovering(4);
    let sim = run_streams(dims, plan, rec, &[(NodeId(0), NodeId(1))], 100);
    let stats = &sim.worlds()[0].fabric.stats;
    let recovery = sim.worlds()[0].fabric.recovery_stats();
    assert_eq!(stats.packets_delivered, 100, "{recovery:?}");
    assert_eq!(stats.packets_lost + stats.packets_unreachable, 0);
    assert!(recovery.reinjections > 0, "in-flight packets were re-sent");
    assert!(recovery.link_verdicts >= 1);
    let received = &sim.program(NodeId(1)).received;
    assert_eq!(received.len(), 100);
    // In-order reassembly: tokens arrive in send order despite the
    // detoured packets racing the originals.
    for (i, (_, t)) in received.iter().enumerate() {
        assert_eq!(*t, i as u64, "stream delivered out of order");
    }
}

// ---- duplicate suppression ----

#[test]
fn ack_ambiguous_duplicates_are_forked_and_suppressed() {
    // A Y dimension gives condemned X links an escape route, so the
    // occasional false RetryBudget condemnation does not cut the source
    // off entirely.
    let dims = TorusDims::new(4, 2, 1);
    // Frequent budget exhaustions (one retry) with every exhausted
    // attempt ack-ambiguous: each one forks a crossed duplicate.
    let plan = FaultPlan::seeded(5)
        .with_drop_rate(0.2)
        .with_retry(RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        });
    let rec = RecoveryConfig::recovering(5).with_dup_delivery_rate(1.0);
    let n = 80;
    let sim = run_counted(dims, plan, rec, n, NodeId(2));
    let stats = &sim.worlds()[0].fabric.stats;
    let recovery = sim.worlds()[0].fabric.recovery_stats();
    assert!(recovery.duplicate_forks > 0, "exhaustions must fork");
    assert!(
        recovery.duplicates_suppressed > 0,
        "forked duplicates that land must be suppressed: {recovery:?}"
    );
    // Exactly-once effect: the counter saw each distinct packet exactly
    // once — duplicates never mint increments — and every packet is
    // either delivered or accounted lost.
    let count = sim.worlds()[0].fabric.counter_read(
        ClientAddr::new(NodeId(2), ClientKind::Slice(0)),
        CounterId(0),
    );
    assert_eq!(count, stats.packets_delivered);
    // Conservation: no send ever takes effect more than once, and the
    // only sends that may be missing are the ones whose reinject budget
    // ran out. (Equality with `n - packets_lost_unrecovered` would be
    // too strict: an exhausted packet's final crossed fork can still
    // land, so the effect arrives even though the source gave up.)
    assert!(count <= n as u64, "over-counted effects: {recovery:?}");
    assert!(
        count + recovery.packets_lost_unrecovered >= n as u64,
        "unaccounted packets: {recovery:?}"
    );
}

// ---- recovery-disabled bit-identity ----

#[test]
fn disabled_recovery_is_bit_identical_to_the_baseline_constructor() {
    let dims = TorusDims::new(4, 2, 1);
    let plan = FaultPlan::seeded(9).with_drop_rate(0.08);
    let pairs = [(NodeId(0), NodeId(5)), (NodeId(3), NodeId(6))];
    let timing = anton_net::Timing::default();
    let a = run_streams_on(Fabric::with_faults(dims, timing, plan.clone()), &pairs, 40);
    let b = run_streams(dims, plan.clone(), RecoveryConfig::disabled(), &pairs, 40);
    assert_eq!(a.now(), b.now());
    assert_eq!(a.worlds()[0].fabric.stats, b.worlds()[0].fabric.stats);
    assert_eq!(
        format!("{:?}", a.worlds()[0].fabric.stats),
        format!("{:?}", b.worlds()[0].fabric.stats)
    );
    // No recovery machinery may have engaged in either run.
    assert_eq!(
        b.worlds()[0].fabric.recovery_stats(),
        a.worlds()[0].fabric.recovery_stats()
    );
    assert_eq!(b.worlds()[0].fabric.verdicts().len(), 0);
    assert_eq!(b.worlds()[0].fabric.recovery_stats().reinjections, 0);
}

// ---- properties ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Detector promotion is a pure function of the seed: identical
    /// plans produce identical verdict logs, twice over.
    #[test]
    fn detector_promotion_is_deterministic_per_seed(
        seed in 0u64..500,
        death_ns in 100u64..1_200,
    ) {
        let dims = TorusDims::new(4, 1, 1);
        let plan = FaultPlan::seeded(seed)
            .with_drop_rate(0.05)
            .fail_link_at(Coord::new(0, 0, 0), xp(), SimTime::from_ns(death_ns));
        let rec = RecoveryConfig::recovering(seed);
        let pairs = [(NodeId(0), NodeId(1)), (NodeId(3), NodeId(1))];
        let a = run_streams(dims, plan.clone(), rec, &pairs, 40);
        let b = run_streams(dims, plan, rec, &pairs, 40);
        prop_assert_eq!(
            format!("{:?}", a.worlds()[0].fabric.verdicts()),
            format!("{:?}", b.worlds()[0].fabric.verdicts())
        );
        prop_assert_eq!(a.worlds()[0].fabric.recovery_stats(), b.worlds()[0].fabric.recovery_stats());
        prop_assert_eq!(a.now(), b.now());
        // The dead link is eventually noticed (traffic crosses it).
        prop_assert!(a.worlds()[0].fabric.recovery_stats().link_verdicts >= 1);
    }

    /// Rerouted + reinjected delivery preserves per-(src, dst) payload
    /// order, and recovery loses nothing a live route can carry.
    #[test]
    fn rerouted_delivery_preserves_per_pair_order(
        seed in 0u64..500,
        rate in 0.0f64..0.04,
        n in 1u32..30,
        death_ns in 200u64..4_000,
    ) {
        let dims = TorusDims::new(4, 2, 1);
        let plan = FaultPlan::seeded(seed)
            .with_drop_rate(rate)
            .fail_link_at(Coord::new(0, 0, 0), xp(), SimTime::from_ns(death_ns));
        let rec = RecoveryConfig::recovering(seed);
        let pairs = [
            (NodeId(0), NodeId(3)),
            (NodeId(4), NodeId(3)),
            (NodeId(1), NodeId(6)),
        ];
        let sim = run_streams(dims, plan, rec, &pairs, n);
        let stats = &sim.worlds()[0].fabric.stats;
        prop_assert_eq!(
            stats.packets_delivered,
            (pairs.len() as u64) * n as u64,
            "recovery must deliver every message"
        );
        for &(src, dst) in &pairs {
            let got: Vec<u64> = sim.program(dst)
                .received
                .iter()
                .filter(|(s, _)| *s == src)
                .map(|(_, t)| *t)
                .collect();
            let want: Vec<u64> = (0..n as u64).collect();
            prop_assert_eq!(&got, &want, "pair {:?} -> {:?} out of order", src, dst);
        }
    }

    /// Duplicate suppression never double-applies a counted write: the
    /// destination counter exactly matches distinct deliveries, at any
    /// ack-ambiguity rate.
    #[test]
    fn duplicates_never_double_apply_counted_writes(
        seed in 0u64..500,
        dup_rate in 0.0f64..1.0,
        n in 1u32..50,
    ) {
        let dims = TorusDims::new(4, 1, 1);
        let plan = FaultPlan::seeded(seed)
            .with_drop_rate(0.3)
            .with_retry(RetryPolicy { max_retries: 1, ..RetryPolicy::default() });
        let rec = RecoveryConfig::recovering(seed).with_dup_delivery_rate(dup_rate);
        let sim = run_counted(dims, plan, rec, n, NodeId(2));
        let stats = &sim.worlds()[0].fabric.stats;
        let recovery = sim.worlds()[0].fabric.recovery_stats();
        let count = sim.worlds()[0].fabric.counter_read(
            ClientAddr::new(NodeId(2), ClientKind::Slice(0)),
            CounterId(0),
        );
        prop_assert!(count <= n as u64, "a counter can never overshoot");
        prop_assert_eq!(count, stats.packets_delivered);
        // Suppression only ever fires when ambiguity forked a duplicate.
        prop_assert!(recovery.duplicates_suppressed <= recovery.duplicate_forks);
        if dup_rate == 0.0 {
            prop_assert_eq!(recovery.duplicate_forks, 0);
        }
    }

    /// With recovery disabled the whole subsystem is inert: identical
    /// statistics and timing to the pre-recovery constructor, no
    /// verdicts, no reinjections, under any transient plan.
    #[test]
    fn disabled_recovery_never_perturbs_a_run(
        seed in 0u64..500,
        rate in 0.0f64..0.2,
        n in 1u32..30,
    ) {
        let dims = TorusDims::new(4, 2, 1);
        let plan = FaultPlan::seeded(seed).with_drop_rate(rate);
        let pairs = [(NodeId(0), NodeId(5))];
        let timing = anton_net::Timing::default();
        let base = run_streams_on(Fabric::with_faults(dims, timing, plan.clone()), &pairs, n);
        let off = run_streams(dims, plan, RecoveryConfig::disabled(), &pairs, n);
        prop_assert_eq!(base.now(), off.now());
        prop_assert_eq!(&base.worlds()[0].fabric.stats, &off.worlds()[0].fabric.stats);
        prop_assert_eq!(off.worlds()[0].fabric.verdicts().len(), 0);
        prop_assert_eq!(off.worlds()[0].fabric.recovery_stats(), &Default::default());
    }
}
