//! Every workload runner under every run configuration: one slab, two
//! slabs, and the auto plan at 1 and 4 threads, each with no observer, a
//! flight recorder, and the stream observer (and the runtime profile on
//! two 4-thread runs, one of them streamed as `run_scenario` runs Stream
//! specs). Each runner must fingerprint identically across the whole
//! matrix — shard-plan and thread-count invariance and zero observer
//! effect in one check — and hand back exactly the observations its
//! configuration asked for. A run that cannot complete must come back as
//! the same stall report from every plan.

use anton_bench::ping_pong;
use anton_bench::scenario::{md_fingerprint, run_scenario};
use anton_collectives::{
    all_reduce, all_reduce_recovering, random_inputs, Algorithm, RecoveringParams,
};
use anton_core::{md_exchange, MdExchangeParams};
use anton_des::SimDuration;
use anton_net::{FaultPlan, ObsMode, Observed, RunConfig, Slabs};
use anton_obs::{fold_lifecycles, BreakdownSummary, Fingerprint, StreamFootprint};
use anton_scenario::{presets, Workload};
use anton_topo::{Coord, TorusDims};

/// Shard plan × thread count: one slab (the reference for fabric
/// state), two slabs, and the auto plan at 1 and 4 threads.
const PLANS: [(Slabs, usize); 4] = [
    (Slabs::ONE, 1),
    (Slabs::Count(2), 1),
    (Slabs::Auto, 1),
    (Slabs::Auto, 4),
];
const OBSERVERS: [ObsMode; 3] = [ObsMode::Off, ObsMode::Flight, ObsMode::Stream];

fn on((slabs, threads): (Slabs, usize)) -> RunConfig {
    RunConfig {
        slabs,
        threads,
        ..RunConfig::default()
    }
}

/// The matrix: every plan under every observer, profiled on the
/// observer-free 4-thread run, plus a profiled stream-observed 4-thread
/// run (how `run_scenario` runs a Stream MD spec).
fn matrix() -> Vec<RunConfig> {
    let mut out = Vec::new();
    for plan in PLANS {
        for obs in OBSERVERS {
            out.push(RunConfig {
                obs,
                profile: plan == PLANS[3] && obs == ObsMode::Off,
                ..on(plan)
            });
        }
    }
    out.push(RunConfig {
        obs: ObsMode::Stream,
        profile: true,
        ..on(PLANS[3])
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
        events.push((cfg.slabs, out.events));
        (md_fingerprint(&out), observed)
    });
    // The event count differs between plans (one `Start` per slab) but
    // never with the thread count or the observer.
    for (slabs, n) in &events {
        let first = events.iter().find(|(s, _)| s == slabs).expect("present");
        assert_eq!(
            *n, first.1,
            "{slabs:?}: threads or an observer changed the event count"
        );
    }

    let observed = |plan: (Slabs, usize), obs: ObsMode| {
        let (_, o) = runs
            .iter()
            .find(|(cfg, _)| (cfg.slabs, cfg.threads) == plan && cfg.obs == obs)
            .expect("in the matrix");
        o
    };
    // The streamed fold is exact: the same stage breakdown and census
    // as folding the flight recorder's events offline.
    let flight = observed(PLANS[0], ObsMode::Flight);
    let (lifecycles, census) = fold_lifecycles(flight.flight.as_ref().expect("flight").iter());
    let (summary, _) = observed(PLANS[0], ObsMode::Stream)
        .stream
        .as_ref()
        .expect("stream");
    assert_eq!(
        summary.breakdown(),
        BreakdownSummary::from_lifecycles(&lifecycles)
    );
    assert_eq!(summary.fold, census);
    // Merged per-slab summaries equal the one-slab summary bit for bit.
    for plan in &PLANS[1..] {
        let (merged, _) = observed(*plan, ObsMode::Stream)
            .stream
            .as_ref()
            .expect("stream");
        assert_eq!(merged, summary, "{plan:?}");
    }
    // The observer's modelled footprint, exactly, on every streamed run.
    // One slab folds behind its watermark; on more slabs each cross-slab
    // packet stays open until the post-run join, so fewer partials peak
    // per slab and more remain at the end.
    for (cfg, o) in runs.iter().filter(|(cfg, _)| cfg.obs == ObsMode::Stream) {
        let (_, footprint) = o.stream.as_ref().expect("stream");
        assert_eq!(
            *footprint,
            footprint_pin((cfg.slabs, cfg.threads)),
            "{cfg:?}"
        );
    }
}

/// The streamed 4×4×4, 3-step MD exchange's footprint on each plan.
fn footprint_pin(plan: (Slabs, usize)) -> StreamFootprint {
    let (peak_partials, peak_bytes, final_bytes) = match plan.0 {
        Slabs::Count(1) => (384, 128_768, 80_128),
        Slabs::Count(2) => (352, 105_216, 165_632),
        _ => (256, 81_152, 283_648),
    };
    StreamFootprint {
        peak_partials,
        peak_bytes,
        final_bytes,
    }
}

/// The stream observer's footprint on the auto plan at the two sizes
/// the benchmark and the scale probe run: the 8×8×8 MD exchange of
/// `md_balanced` and the 12×12×12 `scale_md(12)`.
#[test]
fn stream_footprints_at_scale_are_pinned() {
    for (spec, want) in [
        (
            presets::md_balanced(),
            StreamFootprint {
                peak_partials: 7_936,
                peak_bytes: 1_305_344,
                final_bytes: 10_115_072,
            },
        ),
        (
            presets::scale_md(12),
            StreamFootprint {
                peak_partials: 2_880,
                peak_bytes: 560_128,
                final_bytes: 5_615_616,
            },
        ),
    ] {
        let cfg = RunConfig {
            timing: spec.timing_table(),
            obs: ObsMode::Stream,
            ..RunConfig::sharded(1)
        };
        let params = spec.md_params().expect("an MD spec");
        let (_, observed) = md_exchange(spec.torus_dims(), params, &cfg).expect("completes");
        let (_, footprint) = observed.stream.expect("stream");
        assert_eq!(footprint, want, "{}", spec.name);
    }
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

/// Every packet dropped on every link: the all-reduce starves, and
/// every plan reports the same eight stuck watches instead of panicking.
#[test]
fn a_starved_all_reduce_stalls_on_both_engines() {
    let dims = TorusDims::new(2, 2, 2);
    let inputs = random_inputs(dims, 2, 5);
    let mut reports = Vec::new();
    for plan in PLANS {
        let cfg = on(plan);
        let stall = all_reduce(
            dims,
            Algorithm::DimensionOrdered,
            Default::default(),
            &inputs,
            FaultPlan::seeded(1).with_drop_rate(1.0),
            &cfg,
        )
        .expect_err("a fabric that drops everything stalls the collective");
        assert_eq!(stall.stuck.len(), 8, "{plan:?}:\n{stall}");
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

/// Two chaos cells whose answer once depended on the shard plan: a
/// node's detour read the dead-link mask, which advanced only when some
/// other node of the same replica sent after the death. Every plan now
/// gives the answer one slab gives.
#[test]
fn plan_sensitive_chaos_cells_give_one_answer() {
    for (seed, want, verdicts, reinjections) in [
        (17, "202a7eccffea06b4", 1, 1),
        (32, "d470de7c4a845633", 2, 2),
    ] {
        let spec = presets::chaos_cell(seed, 1);
        let dims = spec.torus_dims();
        let Workload::Recovering { vlen, seed, .. } = spec.workload else {
            unreachable!("chaos cells are recovering specs");
        };
        let inputs = random_inputs(dims, vlen as usize, seed);
        for plan in &PLANS[..3] {
            let cfg = RunConfig {
                timing: spec.timing_table(),
                ..on(*plan)
            };
            let (out, _) = all_reduce_recovering(
                dims,
                &inputs,
                spec.fault_plan(),
                &spec.deaths(),
                spec.recovery_config(),
                RecoveringParams::default(),
                &cfg,
            )
            .expect("the chaos cell completes");
            let label = format!("{}, {plan:?}", spec.name);
            assert_eq!(format!("{:016x}", out.fingerprint()), want, "{label}");
            assert_eq!(out.verdicts, verdicts, "{label}");
            assert_eq!(out.recovery.reinjections, reinjections, "{label}");
        }
    }
}
