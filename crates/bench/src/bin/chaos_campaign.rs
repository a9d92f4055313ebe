//! Chaos campaign: sweep fault intensity against the recovering
//! all-reduce and assert the recovery invariants on every single run.
//!
//! Every campaign cell is a content-addressed scenario: the spec for
//! `(seed, level)` comes from [`presets::chaos_cell`], which owns the
//! level table (drop rate × node deaths) and the seed-derived death
//! schedules. A cell's spec hash therefore names the exact fault plan,
//! recovery config, and victims this binary ran — `scenario run` on the
//! same preset ledgers the identical execution.
//!
//! Every campaign cell runs the collective on one slab, on the auto plan
//! at 2 threads, and (one slab only) a second time as a replay, then
//! asserts:
//!
//!   1. **No lost completions** — every node that stays alive holds a
//!      result, and that result is the bit-exact sum over the root's
//!      contributor set (which includes every live node).
//!   2. **Bounded degradation** — completion latency stays within
//!      [`RecoveringParams::completion_bound`] for the tree height.
//!   3. **Bit-identical replay** — the one-slab run, its replay, and
//!      the parallel run all share one
//!      [`RecoveringOutcome::fingerprint`]; fault handling is a pure
//!      function of the seed, never of scheduling.
//!
//! The full campaign then sweeps 40 seeds × every fault level (160
//! cells), each on one slab, two slabs, and the auto plan at 1 and 2
//! threads, and asserts that every plan gives the one-slab fingerprint:
//! a shard plan must never change a result.
//!
//! Any violation panics, which fails CI. The per-level degradation
//! curve (latency, reinjections, verdicts, losses — all event-level
//! and deterministic, never wall clock) of the campaign cells is
//! written to `BENCH_pr6.json`, which is committed and drift-gated by
//! `scripts/ci.sh`.
//!
//! Knobs (all optional; the variables are read through
//! [`anton_bench::knobs`]):
//!
//! - `--smoke`: 3 seeds × 2 fault levels, no report — the fast CI gate.
//! - `ANTON_CHAOS_SEED`: first seed of the block (default 1). The
//!   committed `BENCH_pr6.json` corresponds to the default.
//! - `ANTON_CHAOS_LEVEL`: highest chaos level swept (default 3).
//! - `ANTON_CHAOS_EXTENDED=1`: after the standard matrix, sweep 10
//!   extra seeds per level and add a 4-thread bit-identity check.

use anton_bench::knobs::{self, CHAOS_LEVEL_MAX, CHAOS_SEED_DEFAULT};
use anton_collectives::{
    all_reduce_recovering, random_inputs, RecoveringOutcome, RecoveringParams,
};
use anton_net::{RunConfig, Slabs};
use anton_obs::BenchReport;
use anton_scenario::{presets, ScenarioSpec, Workload};

/// Bit-exact expected value: inputs summed over `origins` in ascending
/// origin order, exactly as the root folds them.
fn sum_over(inputs: &[Vec<f64>], vlen: usize, origins: &[u32]) -> Vec<f64> {
    let mut out = vec![0.0; vlen];
    for &o in origins {
        for (s, x) in out.iter_mut().zip(&inputs[o as usize]) {
            *s += *x;
        }
    }
    out
}

/// Assert every recovery invariant on one outcome. Returns the latency
/// so callers can fold the degradation curve.
fn check_invariants(
    spec: &ScenarioSpec,
    out: &RecoveringOutcome,
    inputs: &[Vec<f64>],
    label: &str,
) -> f64 {
    let vlen = match &spec.workload {
        Workload::Recovering { vlen, .. } => *vlen as usize,
        _ => unreachable!("chaos cells are recovering specs"),
    };
    let height = spec.torus_dims().node_count().ilog2();
    let bound = RecoveringParams::default().completion_bound(height);
    assert!(
        out.latency <= bound,
        "{label}: latency {:?} exceeds the documented bound {:?}",
        out.latency,
        bound
    );
    let expect = sum_over(inputs, vlen, &out.contributors);
    for (i, result) in out.results.iter().enumerate() {
        let died = out.deaths.iter().any(|(v, _)| v.index() == i);
        match result {
            Some(v) => assert_eq!(
                *v, expect,
                "{label}: node {i} holds a wrong sum over contributors {:?}",
                out.contributors
            ),
            None => assert!(died, "{label}: live node {i} lost its completion"),
        }
        if !died {
            assert!(
                out.contributors.contains(&(i as u32)),
                "{label}: live node {i} missing from the final sum"
            );
        }
    }
    out.latency.as_us_f64()
}

/// The runs of one campaign cell, as (slabs, threads): one slab, the
/// same again as a replay, and the auto plan at 2 threads.
const CAMPAIGN: [(Slabs, usize); 3] = [(Slabs::ONE, 1), (Slabs::ONE, 1), (Slabs::Auto, 2)];

/// [`CAMPAIGN`] plus the auto plan at 4 threads.
const EXTENDED: [(Slabs, usize); 4] = [
    (Slabs::ONE, 1),
    (Slabs::ONE, 1),
    (Slabs::Auto, 2),
    (Slabs::Auto, 4),
];

/// The shard plans the plan sweep compares: one slab (the reference),
/// two slabs, and the auto plan at 1 and 2 threads.
const PLANS: [(Slabs, usize); 4] = [
    (Slabs::ONE, 1),
    (Slabs::Count(2), 1),
    (Slabs::Auto, 1),
    (Slabs::Auto, 2),
];

/// Run one campaign cell once per `(slabs, threads)` in `runs`, assert
/// every recovery invariant on the first run, and fail on any later run
/// whose fingerprint differs from it. The cell's entire configuration —
/// inputs seed, fault plan, death schedule, recovery config — is read
/// off its scenario spec.
fn run_cell(seed: u64, level: usize, runs: &[(Slabs, usize)]) -> (ScenarioSpec, RecoveringOutcome) {
    let spec = presets::chaos_cell(seed, level as u32);
    let dims = spec.torus_dims();
    let (vlen, in_seed) = match &spec.workload {
        Workload::Recovering { vlen, seed, .. } => (*vlen as usize, *seed),
        _ => unreachable!("chaos cells are recovering specs"),
    };
    let inputs = random_inputs(dims, vlen, in_seed);
    let label = format!("L{level}/seed{seed}");
    let mut first: Option<RecoveringOutcome> = None;
    for &(slabs, threads) in runs {
        let cfg = RunConfig {
            slabs,
            threads,
            ..RunConfig::default()
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
        .unwrap_or_else(|stall| panic!("{label}: simulation wedged:\n{stall}"));
        match &first {
            None => {
                check_invariants(&spec, &out, &inputs, &label);
                first = Some(out);
            }
            Some(want) => assert_eq!(
                out.fingerprint(),
                want.fingerprint(),
                "{label}: {slabs:?} at {threads} threads diverged from the first run"
            ),
        }
    }
    (spec, first.expect("at least one run"))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let extended = knobs::CHAOS_EXTENDED.read();
    let base_seed = knobs::CHAOS_SEED.read();
    let max_level = knobs::CHAOS_LEVEL.read() as usize;
    let runs: &[(Slabs, usize)] = if extended { &EXTENDED } else { &CAMPAIGN };

    if smoke {
        // The fast gate: 3 seeds × 2 fault levels (the quiet baseline
        // and the hottest enabled level), every invariant asserted.
        for level in [0, max_level] {
            for seed in base_seed..base_seed + 3 {
                let (spec, out) = run_cell(seed, level, &CAMPAIGN);
                println!(
                    "chaos smoke L{level}/seed{seed} ({}): latency {:.2} us, {} verdicts, ok",
                    spec.hash_hex(),
                    out.latency.as_us_f64(),
                    out.verdicts
                );
            }
        }
        println!("chaos_campaign --smoke: all invariants held");
        return;
    }

    let mut report = BenchReport::new("pr6 chaos campaign degradation curve");
    let seeds_per_level = 3u64;
    for (level, drop_rate) in presets::CHAOS_DROP_RATES
        .iter()
        .enumerate()
        .take(max_level + 1)
    {
        let mut latency_us = 0.0;
        let mut reinjections = 0u64;
        let mut verdicts = 0u64;
        let mut suppressed = 0u64;
        let mut unrecovered = 0u64;
        for seed in base_seed..base_seed + seeds_per_level {
            let (spec, out) = run_cell(seed, level, runs);
            let (vlen, in_seed) = match &spec.workload {
                Workload::Recovering { vlen, seed, .. } => (*vlen as usize, *seed),
                _ => unreachable!(),
            };
            latency_us += check_invariants(
                &spec,
                &out,
                &random_inputs(spec.torus_dims(), vlen, in_seed),
                &format!("L{level}/seed{seed}"),
            );
            reinjections += out.recovery.reinjections;
            verdicts += out.verdicts as u64;
            suppressed += out.recovery.duplicates_suppressed;
            unrecovered += out.recovery.packets_lost_unrecovered;
        }
        let mean_us = latency_us / seeds_per_level as f64;
        println!(
            "chaos L{level} (drop {:.0e}, {} deaths): mean latency {:.2} us, \
             {reinjections} reinjections, {verdicts} verdicts",
            drop_rate,
            presets::CHAOS_DEATHS[level],
            mean_us
        );
        report.set(&format!("l{level}_latency_us_mean"), mean_us);
        report.set(&format!("l{level}_reinjections"), reinjections as f64);
        report.set(&format!("l{level}_verdicts"), verdicts as f64);
        report.set(
            &format!("l{level}_duplicates_suppressed"),
            suppressed as f64,
        );
        report.set(
            &format!("l{level}_packets_lost_unrecovered"),
            unrecovered as f64,
        );
        report.set(&format!("l{level}_invariant_violations"), 0.0);
    }

    if extended {
        // Deeper sweep: ten extra seeds per level, invariants only (the
        // committed report always reflects the standard matrix).
        for level in 0..=max_level {
            for seed in base_seed + seeds_per_level..base_seed + seeds_per_level + 10 {
                run_cell(seed, level, &EXTENDED);
            }
            println!("chaos extended L{level}: 10 extra seeds ok");
        }
    }

    // The plan sweep: invariants and one fingerprint across shard plans
    // (not reported; the committed curve is the campaign cells').
    let sweep_seeds = 40;
    for level in 0..=max_level {
        for seed in base_seed..base_seed + sweep_seeds {
            run_cell(seed, level, &PLANS);
        }
    }
    println!(
        "chaos plan sweep: {} cells agree on {} plans",
        sweep_seeds * (max_level as u64 + 1),
        PLANS.len()
    );

    // Only the default seed block regenerates the committed baseline;
    // a shifted ANTON_CHAOS_SEED run is exploratory.
    if base_seed == CHAOS_SEED_DEFAULT && max_level == CHAOS_LEVEL_MAX as usize {
        std::fs::write("BENCH_pr6.json", report.to_json()).expect("write BENCH_pr6.json");
        println!("chaos_campaign: wrote BENCH_pr6.json");
    } else {
        println!("chaos_campaign: non-default seed/level, skipping BENCH_pr6.json");
    }
}
