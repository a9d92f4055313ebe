//! Wall-clock speedup of the sharded parallel DES engine, plus the
//! adaptive-vs-global lookahead comparison.
//!
//! Every workload constant here comes from the committed scenario
//! presets (`anton_scenario::presets`), so the runs this binary gates
//! are the same content-addressed specs the run ledger records:
//! `allreduce_888` + `md_balanced` for the PR-4 speedup table, and the
//! `md_balanced`/`md_skewed` pair for the PR-9 lookahead A/B.
//!
//! Part one runs the PR-4 acceptance workload — an 8×8×8
//! dimension-ordered all-reduce batch plus an MD neighbor-exchange
//! skeleton — at 1, 2, and 8 worker threads, asserts the simulated
//! observables are bit-identical across thread counts (fingerprinted),
//! prints the wall-clock table, and emits the *simulated* metrics
//! (which are deterministic, unlike wall time) to `BENCH_pr4.json`.
//!
//! Part two is the PR-9 A/B gate: the same MD exchange under
//! **global** (uniform 54 ns) and **adaptive** (per-slab-pair matrix)
//! windows at 1, 2, 4, and 8 threads. Every run must fingerprint
//! identically to one slab; adaptive must never need more
//! windows than global (a deterministic invariant, asserted
//! unconditionally); and on hosts with ≥ 8 cores the 8-thread adaptive
//! wall clock must not lose to global. Deterministic window/recovery
//! metrics go to `BENCH_pr9.json` (drift-gated in CI); wall clocks go
//! to `target/obs/par_speedup_wall.json`, never committed.
//!
//! The ≥2× speedup assertion at 8 threads only arms when the host
//! actually has ≥8 cores; otherwise it downgrades to a warning so CI
//! containers with small CPU quotas don't flake.

use anton_bench::scenario::md_fingerprint;
use anton_collectives::{all_reduce, random_inputs, AllReduceOutcome};
use anton_core::{md_exchange, MdExchangeOutcome};
use anton_des::{LookaheadMode, ParProfile};
use anton_net::{FaultPlan, RunConfig};
use anton_obs::{BenchReport, Fingerprint, RuntimeSummary};
use anton_scenario::{presets, ScenarioSpec, Workload};
use std::time::Instant;

struct RunResult {
    wall_s: f64,
    fingerprint: String,
    allreduce: AllReduceOutcome,
    md: MdExchangeOutcome,
}

/// The PR-4 workload, wired straight off the committed specs.
fn run_workload(threads: usize, ar: &ScenarioSpec, md_spec: &ScenarioSpec) -> RunResult {
    let Workload::AllReduce {
        algorithm,
        vlen,
        seed,
        reps,
    } = &ar.workload
    else {
        unreachable!("allreduce_888 is an all-reduce spec");
    };
    let inputs = random_inputs(ar.torus_dims(), *vlen as usize, *seed);
    let cfg = RunConfig::sharded(threads);
    let start = Instant::now();
    let mut allreduce = None;
    for _ in 0..*reps {
        let (out, _) = all_reduce(
            ar.torus_dims(),
            algorithm.algorithm(),
            Default::default(),
            &inputs,
            FaultPlan::none(),
            &cfg,
        )
        .expect("fault-free all-reduce completes");
        allreduce = Some(out);
    }
    let (md, _) = md_exchange(
        md_spec.torus_dims(),
        md_spec.md_params().expect("md spec"),
        &cfg,
    )
    .expect("exchange completes");
    let wall_s = start.elapsed().as_secs_f64();
    let allreduce = allreduce.expect("at least one rep");

    let mut fp = Fingerprint::new();
    fp.update(&allreduce.latency);
    fp.update(&allreduce.results);
    fp.update(&allreduce.packets_sent);
    fp.update(&allreduce.link_traversals);
    fp.update(&md.makespan);
    fp.update(&md.checksums);
    fp.update(&md.stats);
    fp.update(&md.events);
    RunResult {
        wall_s,
        fingerprint: fp.hex(),
        allreduce,
        md,
    }
}

struct ModeRun {
    threads: usize,
    mode: LookaheadMode,
    wall_s: f64,
    /// Fingerprint over the full sharded outcome (stats + events).
    full_fp: String,
    profile: ParProfile,
}

/// The PR-9 A/B: MD exchange under global vs adaptive windows at every
/// thread count, checked against the one-slab (sequential) fingerprint.
/// The workload is `spec` (one of the committed MD presets), so the
/// sequential fingerprint printed here is exactly what `scenario run`
/// ledgers for that spec hash.
fn run_mode_comparison(
    cores: usize,
    label: &str,
    spec: &ScenarioSpec,
) -> (Vec<ModeRun>, ParProfile, ParProfile) {
    let dims = spec.torus_dims();
    let params = spec.md_params().expect("md spec");
    let (seq, _) = md_exchange(dims, params, &RunConfig::default()).expect("exchange completes");
    let seq_fp = md_fingerprint(&seq);
    println!(
        "\npar_speedup: adaptive vs global lookahead, {}-step {label} MD exchange \
         (spec {}, sequential fingerprint {seq_fp})",
        params.steps,
        spec.hash_hex()
    );
    println!(
        "{:>8} {:>9} {:>10} {:>9} {:>11} {:>10}",
        "threads", "mode", "wall [s]", "windows", "ev/window", "recovered"
    );

    let mut runs = Vec::new();
    for &threads in &[1usize, 2, 4, 8] {
        for mode in [LookaheadMode::Global, LookaheadMode::Adaptive] {
            let cfg = RunConfig {
                lookahead: mode,
                profile: true,
                ..RunConfig::sharded(threads)
            };
            let start = Instant::now();
            let (out, observed) = md_exchange(dims, params, &cfg).expect("exchange completes");
            let wall_s = start.elapsed().as_secs_f64();
            let profile = observed.profile.expect("profiled");
            assert_eq!(
                md_fingerprint(&out),
                seq_fp,
                "{mode} windows at {threads} threads diverged from one slab"
            );
            let mut fp = Fingerprint::new();
            fp.update(&out.makespan);
            fp.update(&out.checksums);
            fp.update(&out.stats);
            fp.update(&out.events);
            let full_fp = fp.hex();
            println!(
                "{threads:>8} {:>9} {wall_s:>10.3} {:>9} {:>11.1} {:>10}",
                mode.to_string(),
                profile.windows,
                profile.events_per_window(),
                profile.recovered_events,
            );
            runs.push(ModeRun {
                threads,
                mode,
                wall_s,
                full_fp,
                profile,
            });
        }
    }

    // Among sharded runs, the *complete* outcome — merged stats and the
    // total event count included — is bit-identical across both modes
    // and every thread count.
    for r in &runs[1..] {
        assert_eq!(
            r.full_fp, runs[0].full_fp,
            "{} windows at {} threads changed the sharded outcome",
            r.mode, r.threads
        );
    }

    // Deterministic invariants, asserted on every host:
    // window partitions are a pure function of (workload, plan, mode),
    // so each mode's counts are thread-invariant ...
    for mode in [LookaheadMode::Global, LookaheadMode::Adaptive] {
        let of_mode: Vec<&ModeRun> = runs.iter().filter(|r| r.mode == mode).collect();
        for r in &of_mode[1..] {
            assert_eq!(
                r.profile.windows, of_mode[0].profile.windows,
                "{mode} window count changed with thread count"
            );
            assert_eq!(
                r.profile.recovered_events,
                of_mode[0].profile.recovered_events
            );
            assert_eq!(
                r.profile.extended_shard_windows,
                of_mode[0].profile.extended_shard_windows
            );
        }
    }
    let pg = runs
        .iter()
        .find(|r| r.mode == LookaheadMode::Global)
        .unwrap()
        .profile
        .clone();
    let pa = runs
        .iter()
        .find(|r| r.mode == LookaheadMode::Adaptive)
        .unwrap()
        .profile
        .clone();
    // ... adaptive windows are provably never narrower than global ones,
    // and the recovered accounting is zero under the global bound.
    assert!(
        pa.windows <= pg.windows,
        "adaptive needed more windows ({} vs {})",
        pa.windows,
        pg.windows
    );
    assert_eq!(
        pg.recovered_events, 0,
        "global windows cannot recover events"
    );
    assert_eq!(pg.extended_shard_windows, 0);

    // The wall-clock speedup gate: at 8 threads, adaptive must not lose
    // to global. Wall time is host-dependent, so the gate only arms on
    // hosts that can actually run 8 workers; 5% slack absorbs scheduler
    // noise on shared runners.
    let wall_of = |mode: LookaheadMode, threads: usize| {
        runs.iter()
            .find(|r| r.mode == mode && r.threads == threads)
            .map(|r| r.wall_s)
            .unwrap()
    };
    let adaptive8 = wall_of(LookaheadMode::Adaptive, 8);
    let global8 = wall_of(LookaheadMode::Global, 8);
    if cores >= 8 {
        assert!(
            adaptive8 <= global8 * 1.05,
            "adaptive lookahead lost to the global bound at 8 threads on the \
             {label} workload ({adaptive8:.3}s vs {global8:.3}s)"
        );
        println!(
            "par_speedup: {label} adaptive/global 8-thread wall ratio {:.2} (gate met)",
            adaptive8 / global8.max(1e-9)
        );
    } else {
        println!(
            "par_speedup: host has only {cores} cores; {label} adaptive/global \
             8-thread ratio {:.2} reported without asserting the gate",
            adaptive8 / global8.max(1e-9)
        );
    }
    (runs, pg, pa)
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let ar_spec = presets::allreduce_888();
    let md_spec = presets::md_balanced();
    let md_skew_spec = presets::md_skewed();
    println!(
        "par_speedup: specs {} ({}) + {} ({}), {cores} host cores",
        ar_spec.name,
        ar_spec.hash_hex(),
        md_spec.name,
        md_spec.hash_hex()
    );
    println!(
        "{:>8} {:>10} {:>9}  fingerprint",
        "threads", "wall [s]", "speedup"
    );

    let mut results = Vec::new();
    for &threads in &[1usize, 2, 8] {
        let r = run_workload(threads, &ar_spec, &md_spec);
        let speedup = results
            .first()
            .map(|(_, base): &(usize, RunResult)| base.wall_s / r.wall_s)
            .unwrap_or(1.0);
        println!(
            "{threads:>8} {:>10.3} {speedup:>8.2}x  {}",
            r.wall_s, r.fingerprint
        );
        results.push((threads, r));
    }

    // Bit-identity across thread counts is non-negotiable.
    let base_fp = &results[0].1.fingerprint;
    for (threads, r) in &results {
        assert_eq!(
            &r.fingerprint, base_fp,
            "thread count {threads} changed the simulation"
        );
    }

    let speedup8 = results[0].1.wall_s / results[2].1.wall_s;
    if cores >= 8 {
        assert!(
            speedup8 >= 2.0,
            "8-thread speedup {speedup8:.2}x is below the 2x acceptance bar"
        );
        println!("par_speedup: 8-thread speedup {speedup8:.2}x (>= 2x bar met)");
    } else {
        println!(
            "par_speedup: host has only {cores} cores; 8-thread speedup \
             {speedup8:.2}x reported without asserting the 2x bar"
        );
    }

    // Simulated metrics only — deterministic, so the emitted report is
    // byte-stable, committed and drift-gated by `scripts/ci.sh`.
    let base = &results[0].1;
    let mut report = BenchReport::new("pr4 parallel-engine workload");
    report.set(
        "par_allreduce_888_dimord_us",
        base.allreduce.latency.as_us_f64(),
    );
    report.set("par_allreduce_packets", base.allreduce.packets_sent as f64);
    report.set(
        "par_md_exchange_makespan_us",
        (base.md.makespan - anton_des::SimTime::ZERO).as_us_f64(),
    );
    report.set("par_md_exchange_events", base.md.events as f64);
    std::fs::write("BENCH_pr4.json", report.to_json()).expect("write BENCH_pr4.json");
    println!("par_speedup: wrote BENCH_pr4.json");

    // Part two: the adaptive-vs-global A/B and its committed report.
    // On the balanced workload the two modes provably tie (symmetric
    // shard heads); on the skewed workload adaptive must strictly win
    // the deterministic window count — both facts are committed.
    let (runs, pg, pa) = run_mode_comparison(cores, "balanced", &md_spec);
    let (skew_runs, spg, spa) = run_mode_comparison(cores, "skewed", &md_skew_spec);
    assert!(
        spa.windows < spg.windows,
        "adaptive windows must strictly beat global on the skewed workload \
         ({} vs {})",
        spa.windows,
        spg.windows
    );
    assert!(
        spa.recovered_events > 0,
        "the skewed workload must recover events past the global bound"
    );
    let mut pr9 = BenchReport::new("pr9 adaptive lookahead vs global bound (MD exchange)");
    RuntimeSummary::from_profile(&pg).record_into(&mut pr9, "md_global");
    RuntimeSummary::from_profile(&pa).record_into(&mut pr9, "md_adaptive");
    RuntimeSummary::from_profile(&spg).record_into(&mut pr9, "mdskew_global");
    RuntimeSummary::from_profile(&spa).record_into(&mut pr9, "mdskew_adaptive");
    pr9.set_directed(
        "md_window_reduction_pct",
        100.0 * (1.0 - pa.windows as f64 / pg.windows as f64),
        anton_obs::Direction::HigherIsBetter,
    );
    pr9.set_directed(
        "mdskew_window_reduction_pct",
        100.0 * (1.0 - spa.windows as f64 / spg.windows as f64),
        anton_obs::Direction::HigherIsBetter,
    );
    std::fs::write("BENCH_pr9.json", pr9.to_json()).expect("write BENCH_pr9.json");
    println!("par_speedup: wrote BENCH_pr9.json");

    // Wall clocks are host noise, never committed: they land under
    // target/obs/ for CI artifact upload and local inspection.
    std::fs::create_dir_all("target/obs").expect("create target/obs");
    let mut wall = BenchReport::new("par_speedup wall clocks (host-dependent, uncommitted)");
    for (threads, r) in &results {
        wall.set(&format!("pr4_workload_t{threads}_wall_s"), r.wall_s);
    }
    for r in &runs {
        wall.set(
            &format!("md_{}_t{}_wall_s", r.profile_mode_key(), r.threads),
            r.wall_s,
        );
    }
    for r in &skew_runs {
        wall.set(
            &format!("mdskew_{}_t{}_wall_s", r.profile_mode_key(), r.threads),
            r.wall_s,
        );
    }
    std::fs::write("target/obs/par_speedup_wall.json", wall.to_json())
        .expect("write par_speedup_wall.json");
    println!("par_speedup: wrote target/obs/par_speedup_wall.json");
}

impl ModeRun {
    fn profile_mode_key(&self) -> &'static str {
        match self.mode {
            LookaheadMode::Global => "global",
            LookaheadMode::Adaptive => "adaptive",
        }
    }
}
