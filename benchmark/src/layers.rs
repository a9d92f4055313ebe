//! The traced per-layer pass: host time and work counts of each layer a
//! run passes through, measured from outside by timing calls into the
//! layers' public functions, each inside a span.
//!
//! [`PER_LAYER`] holds what every workload measures. The MD workloads add
//! [`MD_LAYER`] and `chaos_sweep` adds [`CHAOS_LAYER`]; a workload reports
//! no metric of a layer it does not exercise. The MD programs run no
//! collective and no recovery, and the recovering all-reduce has no
//! profiled or observed runner, so its executor profile has no outside
//! handle.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{build_fabric, Run, Workload};
use anton_collectives::{
    random_inputs, run_all_reduce_recovering_par_timed, run_all_reduce_recovering_timed,
    RecoveringOutcome, RecoveringParams,
};
use anton_core::{
    run_md_exchange, run_md_exchange_par_mode, run_md_exchange_par_mode_profiled_timed,
    run_md_exchange_recorded, run_md_exchange_streamed_par_timed, run_md_exchange_timed,
};
use anton_des::SimTime;
use anton_net::ShardPlan;
use anton_obs::{Direction, SpeedupAttribution, StreamConfig};
use anton_scenario::{ScenarioSpec, Workload as SpecWorkload};
use anton_topo::{Coord, NodeId, Route};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use Direction::{HigherIsBetter as Higher, LowerIsBetter as Lower};

/// A metric's name, unit and better direction.
pub type Desc = (&'static str, &'static str, Direction);

/// Layer metrics every workload measures: `per_layer` in BENCHMARK.json.
pub const PER_LAYER: [Desc; 10] = [
    ("des.seq_round_s", "s", Lower),
    ("des.par_round_s", "s", Lower),
    ("net.shards", "count", Lower),
    ("net.fabric_build_s", "s", Lower),
    ("net.packets_delivered", "count", Higher),
    ("net.link_traversals", "count", Lower),
    ("net.retransmits", "count", Lower),
    ("topo.route_ns", "ns", Lower),
    ("scenario.overhead", "ratio", Lower),
    ("trace.overhead", "ratio", Lower),
];

/// Layer metrics only the MD workloads measure.
pub const MD_LAYER: [Desc; 18] = [
    ("des.events", "count", Lower),
    ("des.windows", "count", Lower),
    ("des.events_per_window", "count", Higher),
    ("des.recovered_events", "count", Higher),
    ("des.cross_shard_events", "count", Lower),
    ("des.run_s", "s", Lower),
    ("des.busy_s", "s", Lower),
    ("des.merge_s", "s", Lower),
    ("des.barrier_s", "s", Lower),
    ("des.imbalance_s", "s", Lower),
    ("des.windowing_s", "s", Lower),
    ("des.exec_excess_s", "s", Lower),
    ("des.speedup", "ratio", Higher),
    ("net.par_setup_s", "s", Lower),
    ("core.makespan_us", "us", Lower),
    ("obs.profile_overhead", "ratio", Lower),
    ("obs.stream_overhead", "ratio", Lower),
    ("obs.flight_overhead", "ratio", Lower),
];

/// Layer metrics only `chaos_sweep` measures.
pub const CHAOS_LAYER: [Desc; 7] = [
    ("net.reinjections", "count", Lower),
    ("net.duplicates_suppressed", "count", Lower),
    ("net.verdicts", "count", Lower),
    ("net.packets_lost_unrecovered", "count", Lower),
    ("collectives.latency_us", "us", Lower),
    ("collectives.cell_s_l0", "s", Lower),
    ("collectives.cell_s_l3", "s", Lower),
];

/// The layer metrics `w` reports.
pub fn layer_metrics(w: &Workload) -> Vec<Desc> {
    let own: &[Desc] = if w.is_md() { &MD_LAYER } else { &CHAOS_LAYER };
    PER_LAYER.iter().chain(own).copied().collect()
}

/// Each median probe repeats at least `REPS` times and for at least
/// `PROBE_S` seconds, so the sub-millisecond chaos cells get as many
/// samples as fit where a 12³ run gets five.
const REPS: usize = 5;
const PROBE_S: f64 = 0.5;
/// With/without pairs behind each observer-overhead ratio.
const PAIRS: usize = 10;
/// Routes computed per `topo.route_ns` repetition, at least.
const ROUTES: usize = 1 << 18;

pub type Layers = BTreeMap<&'static str, f64>;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// Seconds per call of `f` over one probe; each output goes to `keep`
/// outside the timed region.
fn repeat<T>(mut f: impl FnMut() -> T, mut keep: impl FnMut(T)) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < REPS || start.elapsed().as_secs_f64() < PROBE_S {
        let (out, s) = timed(&mut f);
        times.push(s);
        keep(out);
    }
    times
}

fn med(xs: impl IntoIterator<Item = f64>) -> f64 {
    median(&xs.into_iter().collect::<Vec<_>>()).expect("probe took samples")
}

/// Median of `with/without` over `PAIRS` alternating pairs.
fn overhead(mut with: impl FnMut(), mut without: impl FnMut()) -> f64 {
    med((0..PAIRS).map(|i| {
        if i % 2 == 0 {
            let a = timed(&mut without).1;
            timed(&mut with).1 / a
        } else {
            let b = timed(&mut with).1;
            b / timed(&mut without).1
        }
    }))
}

/// The traced pass over `w`, whose references are `refs`; the
/// `run_scenario` calls it makes are appended to `runs`. Fails if a direct
/// runner misses its reference or the speedup attribution does not
/// telescope.
pub fn measure(
    w: &Workload,
    refs: &[String],
    t: &mut Tracer,
    runs: &mut Vec<Run>,
) -> Result<Layers, String> {
    let mut untraced: Vec<Vec<Run>> = Vec::new();
    let untraced_s = med(repeat(|| w.round(refs), |r| untraced.push(r)));
    let traced: Vec<Run> = t.span("scenario.round", |t| {
        (0..w.specs.len())
            .map(|i| {
                let name = format!("scenario.run_scenario {}", w.specs[i].name);
                t.span(&name, |_| w.run(i, &refs[i]))
            })
            .collect()
    });
    runs.extend(untraced.iter().flatten().chain(&traced));

    let mut m = Layers::new();
    m.insert(
        "trace.overhead",
        t.last_s("scenario.round").expect("span recorded") / untraced_s,
    );
    let dims = w.specs[0].torus_dims();
    m.insert("net.shards", ShardPlan::auto(dims).shard_count() as f64);
    let fabric_s = t.span("net.fabric_build", |_| {
        let mut builds: Vec<_> = w.specs.iter().map(build_fabric).collect();
        let mut i = 0;
        med(repeat(
            || {
                i = (i + 1) % builds.len();
                builds[i]()
            },
            drop,
        ))
    });
    m.insert("net.fabric_build_s", fabric_s);
    m.insert(
        "topo.route_ns",
        t.span("topo.route", |_| route_ns(&w.specs[0])),
    );

    if w.is_md() {
        md_layers(w, &refs[0], fabric_s, t, &mut m)?;
    } else {
        chaos_layers(w, refs, &untraced, t, &mut m)?;
    }
    // What `run_scenario` adds over the runner it calls: building the
    // observatory report, and the Stream re-run.
    m.insert("scenario.overhead", untraced_s / m["des.par_round_s"]);
    Ok(m)
}

fn md_layers(
    w: &Workload,
    reference: &str,
    fabric_s: f64,
    t: &mut Tracer,
    m: &mut Layers,
) -> Result<(), String> {
    let spec = &w.specs[0];
    let (dims, threads, mode) = (spec.torus_dims(), w.threads, spec.lookahead);
    let params = spec.md_params().expect("MD workload");
    let timing = spec.timing_table();

    // The runner `run_scenario` calls for MD specs.
    let mut profiled = Vec::new();
    let par_times = t.span("des.par_runner", |_| {
        repeat(
            || run_md_exchange_par_mode_profiled_timed(dims, params, threads, mode, timing.clone()),
            |out| profiled.push(out),
        )
    });
    let par_setup_s = med(profiled
        .iter()
        .zip(&par_times)
        .map(|((_, p), s)| s - p.wall_ns as f64 * 1e-9));
    let par_round_s = med(par_times);
    profiled.sort_by_key(|(_, p)| p.wall_ns);
    let (out, prof) = &profiled[(profiled.len() - 1) / 2];
    if anton_bench::scenario::md_fingerprint(out) != reference {
        return Err(format!(
            "{}: profiled runner missed its reference",
            spec.name
        ));
    }

    let seq_round_s = t.span("des.seq_runner", |_| {
        med(repeat(
            || run_md_exchange_timed(dims, params, timing.clone()),
            drop,
        ))
    });
    // The sequential engine builds one fabric; the attribution compares
    // event execution only.
    let seq_s = seq_round_s - fabric_s;
    let attr = SpeedupAttribution::from_profile((seq_s * 1e9) as u64, prof);
    let run_s = prof.wall_ns as f64 * 1e-9;
    let error_s = attr.telescoping_error_ns() * 1e-9;
    if error_s > 0.01 * run_s {
        return Err(format!(
            "speedup attribution misses des.run_s by {error_s:.3e} s (> 1% of {run_s:.3e} s)"
        ));
    }
    let ns = |x: f64| x * 1e-9;
    for (name, value) in [
        ("des.seq_round_s", seq_round_s),
        ("des.par_round_s", par_round_s),
        ("des.events", prof.events as f64),
        ("des.windows", prof.windows as f64),
        ("des.events_per_window", prof.events_per_window()),
        ("des.recovered_events", prof.recovered_events as f64),
        ("des.cross_shard_events", prof.cross_shard_events() as f64),
        ("des.run_s", run_s),
        // Mean worker busy time: exec excess is busy minus seq/threads.
        ("des.busy_s", ns(attr.exec_excess_ns + attr.ideal_ns)),
        ("des.merge_s", ns(attr.merge_ns)),
        ("des.barrier_s", ns(attr.barrier_ns)),
        ("des.imbalance_s", ns(attr.imbalance_ns)),
        ("des.windowing_s", ns(attr.windowing_ns)),
        ("des.exec_excess_s", ns(attr.exec_excess_ns)),
        ("des.speedup", attr.speedup()),
        ("net.par_setup_s", par_setup_s),
        ("net.packets_delivered", out.stats.packets_delivered as f64),
        ("net.link_traversals", out.stats.link_traversals as f64),
        ("net.retransmits", out.stats.retransmits as f64),
        (
            "core.makespan_us",
            (out.makespan - SimTime::ZERO).as_us_f64(),
        ),
    ] {
        m.insert(name, value);
    }

    let plain = || {
        black_box(run_md_exchange_par_mode(dims, params, threads, mode));
    };
    let profile_ratio = t.span("obs.profile_pairs", |_| {
        overhead(
            || {
                black_box(run_md_exchange_par_mode_profiled_timed(
                    dims,
                    params,
                    threads,
                    mode,
                    timing.clone(),
                ));
            },
            plain,
        )
    });
    let stream_ratio = t.span("obs.stream_pairs", |_| {
        overhead(
            || {
                black_box(run_md_exchange_streamed_par_timed(
                    dims,
                    params,
                    threads,
                    StreamConfig::default(),
                    timing.clone(),
                ));
            },
            plain,
        )
    });
    let flight_ratio = t.span("obs.flight_pairs", |_| {
        overhead(
            || {
                black_box(run_md_exchange_recorded(dims, params));
            },
            || {
                black_box(run_md_exchange(dims, params));
            },
        )
    });
    m.insert("obs.profile_overhead", profile_ratio);
    m.insert("obs.stream_overhead", stream_ratio);
    m.insert("obs.flight_overhead", flight_ratio);
    Ok(())
}

/// The all-reduce inputs of a recovering cell.
fn cell_inputs(spec: &ScenarioSpec) -> Vec<Vec<f64>> {
    match spec.workload {
        SpecWorkload::Recovering { vlen, seed, .. } => {
            random_inputs(spec.torus_dims(), vlen as usize, seed)
        }
        _ => unreachable!("chaos_sweep holds recovering cells only"),
    }
}

fn chaos_layers(
    w: &Workload,
    refs: &[String],
    untraced: &[Vec<Run>],
    t: &mut Tracer,
    m: &mut Layers,
) -> Result<(), String> {
    let inputs: Vec<_> = w.specs.iter().map(cell_inputs).collect();
    // The runner `run_scenario` calls for recovering specs, one round of
    // cells per repetition.
    let direct_round = || -> Vec<RecoveringOutcome> {
        w.specs
            .iter()
            .zip(&inputs)
            .map(|(spec, inputs)| {
                run_all_reduce_recovering_par_timed(
                    spec.torus_dims(),
                    inputs,
                    spec.fault_plan(),
                    &spec.deaths(),
                    spec.recovery_config(),
                    RecoveringParams::default(),
                    w.threads,
                    spec.timing_table(),
                )
            })
            .collect()
    };
    let mut outcomes = Vec::new();
    let par_round_s = t.span("des.par_runner", |_| {
        med(repeat(direct_round, |round| {
            if outcomes.is_empty() {
                outcomes = round;
            }
        }))
    });
    let seq_round = || {
        for (spec, inputs) in w.specs.iter().zip(&inputs) {
            black_box(run_all_reduce_recovering_timed(
                spec.torus_dims(),
                inputs,
                spec.fault_plan(),
                &spec.deaths(),
                spec.recovery_config(),
                RecoveringParams::default(),
                spec.timing_table(),
            ));
        }
    };
    let seq_round_s = t.span("des.seq_runner", |_| med(repeat(seq_round, drop)));
    for (i, out) in outcomes.iter().enumerate() {
        if format!("{:016x}", out.fingerprint()) != refs[i] {
            return Err(format!(
                "{}: direct runner missed its reference",
                w.specs[i].name
            ));
        }
    }
    let sum = |f: fn(&RecoveringOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    let cell_s = |level: u32| {
        med(untraced
            .iter()
            .flatten()
            .filter(|r| r.ok && w.specs[r.spec].chaos.level == level)
            .map(|r| r.wall_s))
    };
    for (name, value) in [
        ("des.seq_round_s", seq_round_s),
        ("des.par_round_s", par_round_s),
        ("net.packets_delivered", sum(|o| o.stats.packets_delivered)),
        ("net.link_traversals", sum(|o| o.stats.link_traversals)),
        ("net.retransmits", sum(|o| o.stats.retransmits)),
        ("net.reinjections", sum(|o| o.recovery.reinjections)),
        (
            "net.duplicates_suppressed",
            sum(|o| o.recovery.duplicates_suppressed),
        ),
        ("net.verdicts", sum(|o| o.verdicts as u64)),
        (
            "net.packets_lost_unrecovered",
            sum(|o| o.recovery.packets_lost_unrecovered),
        ),
        (
            "collectives.latency_us",
            outcomes.iter().map(|o| o.latency.as_us_f64()).sum::<f64>() / outcomes.len() as f64,
        ),
        ("collectives.cell_s_l0", cell_s(0)),
        ("collectives.cell_s_l3", cell_s(3)),
    ] {
        m.insert(name, value);
    }
    Ok(())
}

/// Mean ns per `Route::compute` over every ordered pair of nodes of
/// `spec`'s machine, swept until at least `ROUTES` routes per repetition;
/// median over one probe.
fn route_ns(spec: &ScenarioSpec) -> f64 {
    let dims = spec.torus_dims();
    let nodes: Vec<Coord> = (0..dims.node_count())
        .map(|i| NodeId(i).coord(dims))
        .collect();
    let pairs = nodes.len() * nodes.len();
    let sweeps = ROUTES.div_ceil(pairs);
    let sweep = || {
        let mut hops = 0u64;
        for _ in 0..sweeps {
            for &src in &nodes {
                for &dst in &nodes {
                    hops += u64::from(Route::compute(black_box(src), dst, dims).hops());
                }
            }
        }
        hops
    };
    med(repeat(sweep, drop)) * 1e9 / (sweeps * pairs) as f64
}
