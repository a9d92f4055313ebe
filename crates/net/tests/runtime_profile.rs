//! The parallel-runtime observatory must be a pure observer: enabling
//! profiling or telemetry on [`ParSimulation`] may not perturb any
//! simulated observable, the deterministic profile fields must be
//! thread-count-invariant, and the speedup attribution must telescope
//! exactly on a real run — not just on the hand-built profiles of the
//! unit tests.

use anton_des::{Heartbeat, SimTime, TelemetryConfig, TelemetrySink};
use anton_net::{
    ClientAddr, ClientKind, CounterId, Ctx, Fabric, FaultPlan, NodeProgram, Packet, ParSimulation,
    Payload, ProgEvent,
};
use anton_obs::runtime::{RuntimeSummary, SpeedupAttribution};
use anton_topo::{NodeId, TorusDims};
use std::sync::{Arc, Mutex};

const C_TOK: CounterId = CounterId(7);
const ADDR: u64 = 0x1000;

/// Every node forwards a token to the next node id `rounds` times —
/// guaranteed cross-shard traffic on every shard boundary.
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
    flight_len: usize,
}

fn run_relay(
    dims: TorusDims,
    rounds: u32,
    threads: usize,
    profile: bool,
) -> (Observables, Option<anton_des::ParProfile>) {
    let mut sim = ParSimulation::new(threads, move || build(dims), make(rounds));
    sim.attach_flight_recorders();
    if profile {
        sim.enable_runtime_profiling();
    }
    assert!(sim
        .run_guarded(SimTime(u64::MAX / 2), 10_000_000)
        .is_completed());
    let obs = Observables {
        stats: sim.merged_stats(),
        now: sim.now(),
        events: sim.events_processed(),
        finished: (0..dims.node_count())
            .map(|i| sim.program(NodeId(i)).finished_at.expect("finished"))
            .collect(),
        flight_len: sim.take_merged_flight_events().len(),
    };
    (obs, sim.take_runtime_profile())
}

#[test]
fn profiling_does_not_perturb_any_observable() {
    let dims = TorusDims::new(4, 4, 4);
    let (plain, none) = run_relay(dims, 3, 4, false);
    assert!(none.is_none(), "no profile without opting in");
    let (profiled, prof) = run_relay(dims, 3, 4, true);
    assert_eq!(plain.stats, profiled.stats);
    assert_eq!(plain.now, profiled.now);
    assert_eq!(plain.events, profiled.events);
    assert_eq!(plain.finished, profiled.finished);
    assert_eq!(plain.flight_len, profiled.flight_len);
    let prof = prof.expect("profile was enabled");
    assert_eq!(prof.events, profiled.events, "profile counts every event");
}

#[test]
fn profile_fields_are_thread_count_invariant() {
    let dims = TorusDims::new(4, 4, 4);
    let (_, one) = run_relay(dims, 3, 1, true);
    let one = one.unwrap();
    for threads in [2, 4] {
        let (_, many) = run_relay(dims, 3, threads, true);
        let many = many.unwrap();
        assert_eq!(many.windows, one.windows, "{threads} threads");
        assert_eq!(many.events, one.events);
        assert_eq!(many.shard_events, one.shard_events);
        assert_eq!(many.traffic, one.traffic);
    }
    // Sanity on the deterministic fields themselves.
    assert_eq!(one.shard_events.iter().sum::<u64>(), one.events);
    assert!(
        one.cross_shard_events() > 0,
        "the relay ring must cross shard boundaries"
    );
    let summary = RuntimeSummary::from_profile(&one);
    assert_eq!(summary.events, one.events);
    assert!(summary.cross_shard_fraction > 0.0 && summary.cross_shard_fraction <= 1.0);
}

#[test]
fn attribution_telescopes_on_a_real_run() {
    let dims = TorusDims::new(4, 4, 4);
    let (_, seq) = run_relay(dims, 4, 1, true);
    let seq = seq.unwrap();
    let (_, par) = run_relay(dims, 4, 4, true);
    let par = par.unwrap();
    let attr = SpeedupAttribution::from_profile(seq.wall_ns, &par);
    assert_eq!(attr.threads, 4);
    assert!(attr.par_wall_ns > 0.0);
    // The decomposition is algebraically exact; the error budget only
    // covers float rounding, far inside the 5% acceptance bound.
    let tolerance = 0.05 * attr.gap_ns.abs().max(1000.0);
    assert!(
        attr.telescoping_error_ns() <= tolerance,
        "error {} ns vs gap {} ns",
        attr.telescoping_error_ns(),
        attr.gap_ns
    );
    assert!(attr.speedup() > 0.0);
    assert!(attr.table().contains("speedup attribution"));
}

/// A sink that stores every heartbeat for inspection.
#[derive(Default)]
struct Capture(Mutex<Vec<Heartbeat>>);

impl TelemetrySink for Capture {
    fn emit(&self, beat: &Heartbeat) {
        self.0.lock().unwrap().push(beat.clone());
    }
}

#[test]
fn telemetry_streams_heartbeats_without_perturbing_the_run() {
    let dims = TorusDims::new(4, 4, 4);
    let (plain, _) = run_relay(dims, 3, 4, false);

    let sink = Arc::new(Capture::default());
    let mut sim = ParSimulation::new(4, move || build(dims), make(3));
    sim.enable_telemetry(TelemetryConfig {
        period: std::time::Duration::ZERO,
        sink: sink.clone(),
    });
    assert!(sim
        .run_guarded(SimTime(u64::MAX / 2), 10_000_000)
        .is_completed());
    assert_eq!(sim.merged_stats(), plain.stats, "telemetry is an observer");
    assert_eq!(sim.events_processed(), plain.events);

    let beats = sink.0.lock().unwrap();
    assert!(
        !beats.is_empty(),
        "zero-period telemetry beats every window"
    );
    for pair in beats.windows(2) {
        assert!(pair[1].sim_ps >= pair[0].sim_ps, "sim time is monotone");
        assert!(pair[1].events >= pair[0].events, "event count is monotone");
    }
    let last = beats.last().unwrap();
    assert_eq!(
        last.shard_pending.len(),
        sim.plan().shard_count(),
        "one occupancy slot per shard"
    );
    assert!(last.to_json_line().starts_with("{\"type\":\"heartbeat\""));
    anton_obs::validate_json(&last.to_json_line()).expect("heartbeat line is JSON");
}
