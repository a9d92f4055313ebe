//! Every workload runner under every run configuration: the sequential
//! engine and the sharded engine at 1 and 4 threads, each with no
//! observer, a flight recorder, and the stream observer (and the runtime
//! profile on two sharded runs, one of them streamed as `run_scenario`
//! runs Stream specs). Each runner must fingerprint identically across
//! the whole matrix — thread-count invariance and zero observer effect
//! in one check — and hand back exactly the observations its
//! configuration asked for. A run that cannot complete must come back as
//! a stall report from either engine.

use anton_bench::ping_pong;
use anton_bench::scenario::{md_fingerprint, run_scenario};
use anton_collectives::{
    all_reduce, all_reduce_recovering, random_inputs, Algorithm, RecoveringParams,
};
use anton_core::{md_exchange, MdExchangeParams};
use anton_des::SimDuration;
use anton_net::{Executor, FaultPlan, ObsMode, Observed, RunConfig};
use anton_obs::{fold_lifecycles, BreakdownSummary, Fingerprint};
use anton_scenario::{presets, Workload};
use anton_topo::{Coord, TorusDims};

const EXECUTORS: [Executor; 3] = [
    Executor::Sequential,
    Executor::Sharded { threads: 1 },
    Executor::Sharded { threads: 4 },
];
const OBSERVERS: [ObsMode; 3] = [ObsMode::Off, ObsMode::Flight, ObsMode::Stream];

/// The matrix: every executor under every observer, profiled on the
/// observer-free 4-thread run, plus a profiled stream-observed 4-thread
/// run (how `run_scenario` runs a Stream MD spec).
fn matrix() -> Vec<RunConfig> {
    let mut out = Vec::new();
    for executor in EXECUTORS {
        for obs in OBSERVERS {
            out.push(RunConfig {
                executor,
                obs,
                profile: executor == EXECUTORS[2] && obs == ObsMode::Off,
                ..RunConfig::default()
            });
        }
    }
    out.push(RunConfig {
        executor: EXECUTORS[2],
        obs: ObsMode::Stream,
        profile: true,
        ..RunConfig::default()
    });
    out
}

/// Run `run` under every configuration of the matrix, assert that every
/// run fingerprints alike and observed exactly what it was configured
/// to, and return each configuration with its observations.
fn one_fingerprint(
    label: &str,
    mut run: impl FnMut(&RunConfig) -> (String, Observed),
) -> Vec<(RunConfig, Observed)> {
    let mut reference: Option<String> = None;
    let mut runs = Vec::new();
    for cfg in matrix() {
        let (fingerprint, observed) = run(&cfg);
        let want = reference.get_or_insert_with(|| fingerprint.clone());
        assert_eq!(&fingerprint, want, "{label}: {cfg:?} moved the fingerprint");
        assert_eq!(
            observed.flight.is_some(),
            cfg.obs == ObsMode::Flight,
            "{label}: {cfg:?}"
        );
        assert_eq!(
            observed.stream.is_some(),
            cfg.obs == ObsMode::Stream,
            "{label}: {cfg:?}"
        );
        assert_eq!(observed.profile.is_some(), cfg.profile, "{label}: {cfg:?}");
        runs.push((cfg, observed));
    }
    runs
}

#[test]
fn md_exchange_is_invariant_and_its_observers_are_exact() {
    let dims = TorusDims::new(4, 4, 4);
    let params = MdExchangeParams {
        steps: 3,
        ..Default::default()
    };
    let mut events = Vec::new();
    let runs = one_fingerprint("md_exchange", |cfg| {
        let (out, observed) = md_exchange(dims, params, cfg).expect("exchange completes");
        events.push((cfg.executor, out.events));
        (md_fingerprint(&out), observed)
    });
    // The event count differs between engines (one `Start` per shard)
    // but never with the observer.
    for (executor, n) in &events {
        let first = events.iter().find(|(e, _)| e == executor).expect("present");
        assert_eq!(
            *n, first.1,
            "{executor:?}: an observer changed the event count"
        );
    }

    let observed = |executor: Executor, obs: ObsMode| {
        let (_, o) = runs
            .iter()
            .find(|(cfg, _)| cfg.executor == executor && cfg.obs == obs)
            .expect("in the matrix");
        o
    };
    // The streamed fold is exact: the same stage breakdown and census
    // as folding the flight recorder's events offline.
    let flight = observed(Executor::Sequential, ObsMode::Flight);
    let (lifecycles, census) = fold_lifecycles(flight.flight.as_ref().expect("flight").iter());
    let (summary, footprint) = observed(Executor::Sequential, ObsMode::Stream)
        .stream
        .as_ref()
        .expect("stream");
    assert_eq!(
        summary.breakdown(),
        BreakdownSummary::from_lifecycles(&lifecycles)
    );
    assert_eq!(summary.fold, census);
    // Merged per-shard summaries equal the sequential one bit for bit.
    for executor in &EXECUTORS[1..] {
        let (merged, _) = observed(*executor, ObsMode::Stream)
            .stream
            .as_ref()
            .expect("stream");
        assert_eq!(merged, summary, "{executor:?}");
    }
    // The observer's heap is accounted.
    assert!(footprint.peak_bytes > 0);
    assert!(footprint.peak_partials > 0);
}

#[test]
fn all_reduce_is_invariant() {
    let dims = TorusDims::new(4, 4, 4);
    let inputs = random_inputs(dims, 4, 11);
    one_fingerprint("all_reduce", |cfg| {
        let (out, observed) = all_reduce(
            dims,
            Algorithm::DimensionOrdered,
            Default::default(),
            &inputs,
            FaultPlan::none(),
            cfg,
        )
        .expect("fault-free all-reduce completes");
        let mut fp = Fingerprint::new();
        fp.update(&out.latency);
        fp.update(&out.results);
        fp.update(&out.packets_sent);
        fp.update(&out.link_traversals);
        (fp.hex(), observed)
    });
}

#[test]
fn recovering_chaos_cell_is_invariant() {
    let spec = presets::chaos_cell(1, 3);
    let dims = spec.torus_dims();
    let Workload::Recovering { vlen, seed, .. } = spec.workload else {
        unreachable!("chaos cells are recovering specs");
    };
    let inputs = random_inputs(dims, vlen as usize, seed);
    one_fingerprint("chaos_cell(1, 3)", |cfg| {
        let (out, observed) = all_reduce_recovering(
            dims,
            &inputs,
            spec.fault_plan(),
            &spec.deaths(),
            spec.recovery_config(),
            RecoveringParams::default(),
            cfg,
        )
        .expect("the chaos cell completes");
        (format!("{:016x}", out.fingerprint()), observed)
    });
}

#[test]
fn one_hop_ping_pong_is_invariant() {
    let dims = TorusDims::new(4, 4, 4);
    let (src, dst) = (Coord::new(0, 0, 0), Coord::new(1, 0, 0));
    one_fingerprint("ping_pong", |cfg| {
        let (latency, observed) = ping_pong(dims, src, dst, 0, false, 4, FaultPlan::none(), cfg)
            .expect("fault-free ping-pong completes");
        assert_eq!(latency, SimDuration::from_ns(162));
        (format!("{latency:?}"), observed)
    });
}

/// Every packet dropped on every link: the all-reduce starves, and both
/// engines report the same eight stuck watches instead of panicking.
#[test]
fn a_starved_all_reduce_stalls_on_both_engines() {
    let dims = TorusDims::new(2, 2, 2);
    let inputs = random_inputs(dims, 2, 5);
    let mut reports = Vec::new();
    for executor in EXECUTORS {
        let cfg = RunConfig {
            executor,
            ..RunConfig::default()
        };
        let stall = all_reduce(
            dims,
            Algorithm::DimensionOrdered,
            Default::default(),
            &inputs,
            FaultPlan::seeded(1).with_drop_rate(1.0),
            &cfg,
        )
        .expect_err("a fabric that drops everything stalls the collective");
        assert_eq!(stall.stuck.len(), 8, "{executor:?}:\n{stall}");
        let mut stuck = stall.stuck.clone();
        stuck.sort_by_key(|s| (s.node.index(), s.client.index(), s.counter.0));
        reports.push(stuck);
    }
    assert!(reports.iter().all(|r| *r == reports[0]), "{reports:?}");
}

/// `run_scenario` runs a Stream spec once, profiled and streamed
/// together: the stream section comes from that run, and the observer
/// leaves the fingerprint where the observer-free spec puts it.
#[test]
fn a_stream_scenario_runs_once_with_its_observer() {
    let streamed = presets::scale_md(8);
    let mut quiet = streamed.clone();
    quiet.obs = ObsMode::Off;
    let with = run_scenario(&streamed, 1);
    let without = run_scenario(&quiet, 1);
    assert_eq!(with.fingerprint, without.fingerprint);
    assert!(with.observatory.section("stream").is_some());
    assert!(without.observatory.section("stream").is_none());
    assert!(with.observatory.section("runtime").is_some());
}
