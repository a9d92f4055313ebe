//! Profile the parallel DES runtime and attribute its speedup exactly.
//!
//! The PR-5 observability workload: runs the 8×8×8 MD neighbor-exchange
//! skeleton and a dimension-ordered all-reduce with `obs::runtime`
//! profiling enabled at 1 and 4 worker threads, then
//!
//! 1. asserts profiling is **invisible**: fingerprints of the simulated
//!    outcomes are bit-identical with profiling on vs off, and the
//!    deterministic profile fields (windows, per-shard events, traffic
//!    matrix) are identical at 1 vs 4 threads;
//! 2. asserts the **speedup attribution telescopes**: the five
//!    components (merge + barrier + imbalance + windowing + exec excess)
//!    sum to the measured `par_wall − seq/N` gap within 5% — the
//!    runtime-side mirror of the Figure 6 stage-sum invariant;
//! 3. asserts profiling overhead stays small (≤5% + absolute slack on
//!    the 1-thread reference run, min-of-2 trials to shed scheduler
//!    noise);
//! 4. exports the worker lanes to `target/obs/par_runtime_trace.json`
//!    (Perfetto-loadable) and the deterministic runtime summary to
//!    `BENCH_pr5.json` (byte-stable, committed and drift-gated in CI).
//!
//! Wall-clock numbers are printed but never written to the report: only
//! event-level metrics, which are thread-count-invariant, are committed.

use anton_collectives::{all_reduce, random_inputs, Algorithm, AllReduceOutcome};
use anton_core::{md_exchange, MdExchangeOutcome, MdExchangeParams};
use anton_des::ParProfile;
use anton_net::{FaultPlan, RunConfig};
use anton_obs::runtime::{profile_chrome_trace, RuntimeSummary, SpeedupAttribution};
use anton_obs::{validate_json, BenchReport, Fingerprint};
use anton_topo::TorusDims;
use std::time::Instant;

const MD_STEPS: u32 = 20;
const PAR_THREADS: usize = 4;

fn dims() -> TorusDims {
    TorusDims::new(8, 8, 8)
}

fn md_params() -> MdExchangeParams {
    MdExchangeParams {
        steps: MD_STEPS,
        ..Default::default()
    }
}

/// The MD workload; the profile is `Some` exactly when profiled.
fn md(threads: usize, profile: bool) -> (MdExchangeOutcome, Option<ParProfile>) {
    let cfg = RunConfig {
        profile,
        ..RunConfig::sharded(threads)
    };
    let (out, observed) = md_exchange(dims(), md_params(), &cfg).expect("exchange completes");
    (out, observed.profile)
}

/// The all-reduce workload; the profile is `Some` exactly when profiled.
fn allreduce(
    inputs: &[Vec<f64>],
    threads: usize,
    profile: bool,
) -> (AllReduceOutcome, Option<ParProfile>) {
    let cfg = RunConfig {
        profile,
        ..RunConfig::sharded(threads)
    };
    let algorithm = Algorithm::DimensionOrdered;
    let none = FaultPlan::none();
    let (out, observed) = all_reduce(dims(), algorithm, Default::default(), inputs, none, &cfg)
        .expect("fault-free all-reduce completes");
    (out, observed.profile)
}

fn md_fingerprint(out: &MdExchangeOutcome) -> String {
    let mut fp = Fingerprint::new();
    fp.update(&out.makespan);
    fp.update(&out.checksums);
    fp.update(&out.stats);
    fp.update(&out.events);
    fp.hex()
}

fn ar_fingerprint(out: &AllReduceOutcome) -> String {
    let mut fp = Fingerprint::new();
    fp.update(&out.latency);
    fp.update(&out.results);
    fp.update(&out.packets_sent);
    fp.update(&out.link_traversals);
    fp.hex()
}

fn assert_deterministic_fields_equal(label: &str, a: &ParProfile, b: &ParProfile) {
    assert_eq!(a.windows, b.windows, "{label}: window count diverged");
    assert_eq!(a.events, b.events, "{label}: event count diverged");
    assert_eq!(
        a.shard_events, b.shard_events,
        "{label}: per-shard events diverged"
    );
    assert_eq!(a.traffic, b.traffic, "{label}: traffic matrix diverged");
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "par_profile: 8x8x8 MD exchange ({MD_STEPS} steps) + dim-ordered all-reduce, \
         1 vs {PAR_THREADS} threads ({cores} host cores)"
    );

    // --- Profiling must not change the simulation (fingerprints). -----
    let (plain, _) = md(PAR_THREADS, false);
    let (seq_out, seq_prof) = md(1, true);
    let (par_out, par_prof) = md(PAR_THREADS, true);
    let (seq_prof, par_prof) = (seq_prof.expect("profiled"), par_prof.expect("profiled"));
    let fp_plain = md_fingerprint(&plain);
    let fp_seq = md_fingerprint(&seq_out);
    let fp_par = md_fingerprint(&par_out);
    assert_eq!(fp_plain, fp_par, "profiling changed the simulated outcome");
    assert_eq!(fp_seq, fp_par, "thread count changed the simulated outcome");
    println!("par_profile: fingerprint {fp_par} identical (plain / profiled / 1 vs {PAR_THREADS} threads)");

    // --- Deterministic profile fields are thread-count-invariant. -----
    assert_deterministic_fields_equal("md", &seq_prof, &par_prof);

    // --- Speedup attribution telescopes to the measured gap. ----------
    let attr = SpeedupAttribution::from_profile(seq_prof.wall_ns, &par_prof);
    print!("{}", attr.table());
    let tolerance = 0.05 * attr.gap_ns.abs().max(attr.par_wall_ns * 0.01) + 1_000.0;
    assert!(
        attr.telescoping_error_ns() <= tolerance,
        "attribution does not telescope: error {} ns exceeds {} ns",
        attr.telescoping_error_ns(),
        tolerance
    );
    println!(
        "par_profile: attribution telescopes (error {:.1} ns <= {:.1} ns tolerance)",
        attr.telescoping_error_ns(),
        tolerance
    );

    // --- Profiling overhead on the 1-thread reference run. ------------
    let wall = |profiled: bool| {
        (0..2)
            .map(|_| {
                let t = Instant::now();
                let _ = md(1, profiled);
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let off = wall(false);
    let on = wall(true);
    let overhead_pct = 100.0 * (on - off) / off;
    println!("par_profile: profiling overhead {overhead_pct:+.1}% (off {off:.3}s, on {on:.3}s)");
    // 5% relative plus an absolute slack so sub-second runs on noisy CI
    // hosts don't flake on scheduler jitter.
    assert!(
        on <= off * 1.05 + 0.25,
        "profiling overhead too high: {on:.3}s vs {off:.3}s unprofiled"
    );

    // --- All-reduce workload: summary + fingerprint cross-check. ------
    let inputs = random_inputs(dims(), 4, 42);
    let (ar_plain, _) = allreduce(&inputs, PAR_THREADS, false);
    let (ar_seq, ar_seq_prof) = allreduce(&inputs, 1, true);
    let (ar_par, ar_par_prof) = allreduce(&inputs, PAR_THREADS, true);
    let (ar_seq_prof, ar_par_prof) = (
        ar_seq_prof.expect("profiled"),
        ar_par_prof.expect("profiled"),
    );
    assert_eq!(
        ar_fingerprint(&ar_plain),
        ar_fingerprint(&ar_par),
        "profiling changed the all-reduce"
    );
    assert_eq!(
        ar_fingerprint(&ar_seq),
        ar_fingerprint(&ar_par),
        "thread count changed the all-reduce"
    );
    assert_deterministic_fields_equal("allreduce", &ar_seq_prof, &ar_par_prof);

    let md_summary = RuntimeSummary::from_profile(&par_prof);
    let ar_summary = RuntimeSummary::from_profile(&ar_par_prof);
    print!("md {}", md_summary.table());
    print!("allreduce {}", ar_summary.table());

    // --- Perfetto-loadable worker lanes. ------------------------------
    let trace = profile_chrome_trace(&par_prof);
    validate_json(&trace).expect("runtime trace is valid JSON");
    std::fs::create_dir_all("target/obs").expect("create target/obs");
    std::fs::write("target/obs/par_runtime_trace.json", &trace)
        .expect("write par_runtime_trace.json");
    println!(
        "par_profile: wrote target/obs/par_runtime_trace.json ({} bytes)",
        trace.len()
    );

    // --- Deterministic metrics only: byte-stable, committed, gated. ---
    let mut report = BenchReport::new("pr5 parallel-runtime observatory");
    md_summary.record_into(&mut report, "md");
    ar_summary.record_into(&mut report, "allreduce");
    report.set(
        "md_makespan_us",
        (par_out.makespan - anton_des::SimTime::ZERO).as_us_f64(),
    );
    report.set("allreduce_latency_us", ar_par.latency.as_us_f64());
    std::fs::write("BENCH_pr5.json", report.to_json()).expect("write BENCH_pr5.json");
    println!("par_profile: wrote BENCH_pr5.json");
}
