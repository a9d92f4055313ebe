//! The observatory collection pass: run the canonical suite plus the
//! attribution workloads and assemble one [`ObservatoryReport`].
//!
//! Four workloads feed the report, mirroring the repo's standing CI
//! gates so a component regression here always has a matching
//! first-class experiment to drill into:
//!
//! 1. **Canonical suite** ([`run_suite`]) — the headline latency and
//!    collective metrics, without the DHFR step (that runs only for
//!    `BENCH_pr3.json`, in `canonical_suite`).
//! 2. **Causal blame** — the 512-node diameter one-way transfer,
//!    recorded, rebuilt as a causal DAG, and re-timed (optionally under
//!    a [`Perturbation`]) into per-stage critical-path blame shares.
//!    The shares land both as the gated `blame_pct` section and as
//!    `blame_*_pct` metrics, so the committed profile
//!    (`BENCH_pr7.json`) drift-gates them.
//! 3. **Parallel runtime** — the 8×8×8 MD exchange skeleton profiled
//!    at 1 and 2 threads: the deterministic [`RuntimeSummary`] goes
//!    into the metrics, the wall-clock [`SpeedupAttribution`] shares
//!    into the informational (never gating) `attribution_pct` section.
//! 4. **Congestion + recovery** — the 4×4×4 neighbor shower's top-K
//!    hottest links, and one seeded chaos cell of the recovering
//!    all-reduce (drops + a node death) with its recovery counters.
//!
//! Everything gated is simulated/event-level and bit-deterministic;
//! only the speedup attribution touches the host clock, and it is
//! marked informational accordingly.

use anton_collectives::{all_reduce_recovering, random_inputs, RecoveringParams};
use anton_core::md_exchange;
use anton_des::{ParProfile, SimDuration, SimTime};
use anton_net::{
    drive, ClientAddr, ClientKind, Ctx, Fabric, FaultPlan, NodeProgram, ObsMode, Packet, Payload,
    ProgEvent, RunConfig,
};
use anton_obs::runtime::{RuntimeSummary, SpeedupAttribution};
use anton_obs::{
    retime_blamed, CausalGraph, CongestionMap, ObservatoryReport, Perturbation, Section,
    SEC_ATTRIBUTION, SEC_BLAME, SEC_CONGESTION, SEC_RECOVERY,
};
use anton_scenario::{presets, Workload};
use anton_topo::{Coord, NodeId, TorusDims};
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::microbench::ping_pong;
use crate::suite::run_suite;

/// The label stamped on every observatory report and its metrics (the
/// committed `BENCH_pr7.json`).
const LABEL: &str = "anton observatory profile";

/// Run every observatory workload and assemble the report. `perturb`
/// re-times the causal workload under a what-if scenario (the blame
/// section, `blame_*_pct`, and `causal_critical_end_ns` move; the
/// physically simulated workloads do not) — the triage pipeline's
/// fault-injection hook.
pub fn collect(perturb: Option<&Perturbation>) -> ObservatoryReport {
    let mut obs = ObservatoryReport::new(LABEL);
    obs.metrics = run_suite(false);
    obs.metrics.label = LABEL.to_owned();

    causal_blame(&mut obs, perturb);
    parallel_runtime(&mut obs);
    congestion(&mut obs);
    recovery(&mut obs);
    obs
}

/// Workload 2: diameter one-way transfer → causal DAG → (re-timed)
/// critical-path blame.
fn causal_blame(obs: &mut ObservatoryReport, perturb: Option<&Perturbation>) {
    let spec = presets::causal_pingpong();
    let dims = spec.torus_dims();
    let timing = spec.timing_table();
    let Workload::PingPong {
        from,
        to,
        payload_bytes,
        bidirectional,
        reps,
    } = spec.workload
    else {
        unreachable!("causal_pingpong is a ping-pong spec");
    };
    let recorded = RunConfig {
        timing: timing.clone(),
        obs: ObsMode::Flight,
        ..RunConfig::default()
    };
    let (_, observed) = ping_pong(
        dims,
        Coord::new(from.0, from.1, from.2),
        Coord::new(to.0, to.1, to.2),
        payload_bytes,
        bidirectional,
        reps,
        FaultPlan::none(),
        &recorded,
    )
    .expect("fault-free ping-pong completes");
    let flight = observed.flight.expect("flight recorded");
    let g = CausalGraph::build(dims, flight.iter(), |b| timing.injection_occupancy(b));
    g.check_consistency()
        .expect("recorded causal graph is exact");
    let identity = Perturbation::none();
    let (rt, blame) = retime_blamed(&g, perturb.unwrap_or(&identity));
    obs.metrics.set(
        "causal_critical_end_ns",
        (rt.end - SimTime::ZERO).as_ns_f64(),
    );
    let shares = blame.shares_pct();
    for (k, v) in &shares {
        obs.metrics.set(&format!("blame_{k}_pct"), *v);
    }
    obs.set_section(SEC_BLAME, Section::shares(shares));
}

/// Workload 3: MD exchange at 1 vs 2 threads — deterministic runtime
/// summary into the metrics, wall-clock attribution shares into the
/// informational section.
fn parallel_runtime(obs: &mut ObservatoryReport) {
    let spec = presets::observatory_md();
    let dims = spec.torus_dims();
    let params = spec.md_params().expect("observatory_md is an MD spec");
    let profiled = |threads: usize| -> ParProfile {
        let cfg = RunConfig {
            profile: true,
            ..RunConfig::sharded(threads)
        };
        let (_, observed) = md_exchange(dims, params, &cfg).expect("exchange completes");
        observed.profile.expect("profiled")
    };
    let seq_prof = profiled(1);
    let par_prof = profiled(spec.threads as usize);
    RuntimeSummary::from_profile(&par_prof).record_into(&mut obs.metrics, "md");

    let attr = SpeedupAttribution::from_profile(seq_prof.wall_ns, &par_prof);
    let parts = [
        ("merge", attr.merge_ns),
        ("barrier", attr.barrier_ns),
        ("imbalance", attr.imbalance_ns),
        ("windowing", attr.windowing_ns),
        ("exec-excess", attr.exec_excess_ns),
    ];
    let total: f64 = parts.iter().map(|(_, v)| v.abs()).sum();
    if total > 0.0 {
        let shares: BTreeMap<String, f64> = parts
            .iter()
            .map(|(k, v)| (k.to_string(), 100.0 * v.abs() / total))
            .collect();
        obs.set_section(SEC_ATTRIBUTION, Section::shares(shares).informational());
    }
}

/// Every node showers its +X/+Y neighbors, and every fourth node fires
/// a large diagonal write — the same contended mix as the
/// `congestion_heatmap` experiment.
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

/// Workload 4a: the 4×4×4 shower's congestion map, reduced to the
/// top-K hottest-link busy times (rank-keyed so the k-th hottest link
/// gates even when the hot set shifts) plus queue telemetry.
fn congestion(obs: &mut ObservatoryReport) {
    let dims = TorusDims::new(4, 4, 4);
    let n = dims.node_count();
    let mut plan = Vec::new();
    for src in 0..n {
        let c = NodeId(src).coord(dims);
        for (dx, dy) in [(1, 0), (0, 1)] {
            let d = anton_topo::offset(c, [dx, dy, 0], dims);
            plan.push((src, d.node_id(dims).0, 64));
        }
        if src % 4 == 0 {
            let far = anton_topo::offset(c, [2, 2, 1], dims);
            plan.push((src, far.node_id(dims).0, 256));
        }
    }
    let plan = Arc::new(plan);

    let cfg = RunConfig {
        obs: ObsMode::Flight,
        ..RunConfig::default()
    };
    let done = drive(
        &cfg,
        |timing| Fabric::with_faults(dims, timing.clone(), FaultPlan::none()),
        |_| Shower { plan: plan.clone() },
        10_000_000,
    )
    .unwrap_or_else(|stall| panic!("shower stalled:\n{stall}"));
    let events = done.observed.flight.expect("flight recorded");
    let map = CongestionMap::build(events.iter(), SimDuration::from_ns(50));
    let mut values = BTreeMap::new();
    for (i, ((_, _), busy)) in map.hottest_links(5).into_iter().enumerate() {
        values.insert(format!("hot{i}_busy_ns"), busy.as_ns_f64());
    }
    values.insert("max_queue_depth".to_owned(), map.max_queue_depth() as f64);
    values.insert("active_links".to_owned(), map.links().count() as f64);
    obs.set_section(SEC_CONGESTION, Section::values(values));
}

/// Workload 4b: one seeded chaos cell of the recovering all-reduce —
/// 0.1% transient drops plus one mid-collective node death on 4×4×4 —
/// and its deterministic recovery counters.
fn recovery(obs: &mut ObservatoryReport) {
    let spec = presets::observatory_recovery();
    let dims = spec.torus_dims();
    let (vlen, seed) = match &spec.workload {
        Workload::Recovering { vlen, seed, .. } => (*vlen as usize, *seed),
        _ => unreachable!("observatory_recovery is a recovering spec"),
    };
    let inputs = random_inputs(dims, vlen, seed);
    let (out, _) = all_reduce_recovering(
        dims,
        &inputs,
        spec.fault_plan(),
        &spec.deaths(),
        spec.recovery_config(),
        RecoveringParams::default(),
        &RunConfig::default(),
    )
    .unwrap_or_else(|stall| panic!("recovery cell wedged:\n{stall}"));
    let mut values = BTreeMap::new();
    values.insert("latency_us".to_owned(), out.latency.as_us_f64());
    values.insert("verdicts".to_owned(), out.verdicts as f64);
    values.insert("reinjections".to_owned(), out.recovery.reinjections as f64);
    values.insert(
        "duplicates_suppressed".to_owned(),
        out.recovery.duplicates_suppressed as f64,
    );
    values.insert(
        "packets_lost_unrecovered".to_owned(),
        out.recovery.packets_lost_unrecovered as f64,
    );
    obs.set_section(SEC_RECOVERY, Section::values(values));
}
