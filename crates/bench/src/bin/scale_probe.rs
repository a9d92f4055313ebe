//! Scale observatory probe: proves the streaming, bounded-memory
//! instrumentation of `anton_obs::stream` holds its accuracy and its
//! memory budget on runs two orders of magnitude past the paper's
//! 512-node machine.
//!
//! ```text
//! scale_probe [--quick]
//! ```
//!
//! Three phases:
//!
//! 1. **Reference accuracy (8×8×8, 512 nodes).** Runs the MD neighbor
//!    exchange once under the full flight recorder and once under the
//!    streaming observer and asserts the streamed fold is *exact* where
//!    it promises exactness (stage/end-to-end totals, fold census,
//!    heavy-hitter table below capacity, shard-merge bit-identity) and
//!    within one log-bucket where it approximates (sketch quantiles vs
//!    the offline histogram). Also asserts zero observer effect: the
//!    observed run is bit-identical to the unobserved one.
//! 2. **Streaming exporters.** Writes the reservoir sample through the
//!    chunked Chrome-trace / CSV writers to `target/obs/` and asserts
//!    byte-identity with the in-memory builders.
//! 3. **Scale runs.** A 16×16×16 (4,096-node) probe always, plus the
//!    24×24×24 (13,824-node) run unless `--quick`, each under streaming
//!    observability only, asserting the observer's peak heap stays
//!    under a fixed bytes-per-node budget. With the `obs-alloc` feature
//!    the instrumented global allocator cross-checks the logical
//!    accounting against real allocations per subsystem tag. The 16³
//!    probe also runs on the auto plan, whose merged fold census and
//!    stage breakdown must equal the one-slab run's.
//!
//! Writes `target/obs/scale_report.json`, and the deterministic metric
//! subset (reference + 16³ probe, so the file is byte-identical in
//! `--quick` and full modes) as a [`BenchReport`] to `BENCH_pr8.json`,
//! which is committed and drift-gated by `scripts/ci.sh`.

use anton_core::{md_exchange, MdExchangeOutcome, MdExchangeParams};
use anton_net::{ObsMode, Observed, RunConfig};
use anton_obs::stream::log2_bucket;
use anton_obs::{
    fold_lifecycles, BenchReport, BreakdownSummary, ChromeTraceBuilder, ChromeTraceWriter,
    CongestionMap, Direction, LifecycleCsvWriter, MemReport, MetricsRegistry, MetricsSnapshot,
    PacketLifecycle, StreamSummary,
};
use anton_scenario::{presets, ScenarioSpec};
use anton_topo::TorusDims;
use std::io::Write as _;
use std::process::ExitCode;

#[cfg(feature = "obs-alloc")]
#[global_allocator]
static ALLOC: anton_obs::memory::ObsAlloc = anton_obs::memory::ObsAlloc;

/// Logical observer-heap budget, bytes per node (approx accounting).
const APPROX_BUDGET_BYTES_PER_NODE: u64 = 4 * 1024;
/// Real-allocation budget for the Obs tag, bytes per node (only
/// checked when the instrumented allocator is installed).
const ALLOC_BUDGET_BYTES_PER_NODE: i64 = 16 * 1024;

/// The MD exchange under observer `obs`: on one slab for one thread,
/// else on the auto plan.
fn run(
    dims: TorusDims,
    params: MdExchangeParams,
    obs: ObsMode,
    threads: usize,
) -> (MdExchangeOutcome, Observed) {
    let engine = if threads == 1 {
        RunConfig::default()
    } else {
        RunConfig::sharded(threads)
    };
    let cfg = RunConfig { obs, ..engine };
    md_exchange(dims, params, &cfg).expect("exchange completes")
}

/// One scale probe: run the spec's MD exchange streamed, check
/// budgets, return the sections. The spec is one of the committed
/// `scale_md_*` scenarios, so its hash names this exact probe.
fn scale_run(
    label: &str,
    spec: &ScenarioSpec,
) -> (MdExchangeOutcome, StreamSummary, MetricsSnapshot) {
    let dims = spec.torus_dims();
    let params = spec.md_params().expect("scale presets are MD specs");
    let nodes = dims.node_count() as u64;
    anton_obs::memory::reset_peaks();
    let (out, observed) = run(dims, params, ObsMode::Stream, 1);
    let (summary, footprint) = observed.stream.expect("stream observed");
    let mem = MemReport::capture();

    let per_node = footprint.peak_bytes / nodes;
    println!(
        "[{label}] spec {} — {nodes} nodes: makespan {:.1} ns, {} events, \
         obs peak {} B ({} B/node, budget {} B/node), {} peak partials",
        spec.hash_hex(),
        out.makespan.as_ns_f64(),
        out.events,
        footprint.peak_bytes,
        per_node,
        APPROX_BUDGET_BYTES_PER_NODE,
        footprint.peak_partials,
    );
    assert!(
        per_node <= APPROX_BUDGET_BYTES_PER_NODE,
        "[{label}] observer heap {per_node} B/node exceeds the \
         {APPROX_BUDGET_BYTES_PER_NODE} B/node budget"
    );
    let expected = nodes * 6 * u64::from(params.steps);
    assert_eq!(
        summary.fold.complete, expected,
        "[{label}] every packet folds"
    );
    assert_eq!(summary.retransmits, 0, "[{label}] fault-free run");

    if anton_obs::memory::instrumented() {
        let obs_peak = mem.tag_peak(anton_obs::MemTag::Obs);
        let per_node_real = obs_peak / nodes as i64;
        println!(
            "[{label}] allocator: obs tag peak {obs_peak} B \
             ({per_node_real} B/node, budget {ALLOC_BUDGET_BYTES_PER_NODE} B/node)"
        );
        print!("{}", mem.table());
        assert!(
            per_node_real <= ALLOC_BUDGET_BYTES_PER_NODE,
            "[{label}] real obs allocations {per_node_real} B/node exceed the \
             {ALLOC_BUDGET_BYTES_PER_NODE} B/node budget"
        );
    }

    let mut reg = MetricsRegistry::new();
    summary.record_metrics(&mut reg);
    footprint.record_metrics(&mut reg, nodes);
    mem.record_metrics(&mut reg, nodes, out.events);
    reg.set_gauge("scale.nodes", nodes as f64);
    reg.set_gauge("scale.steps", f64::from(params.steps));
    reg.set_gauge("scale.events", out.events as f64);
    reg.set_gauge("scale.makespan_ns", out.makespan.as_ns_f64());
    (out, summary, reg.snapshot())
}

/// The spec's MD exchange streamed again on the auto plan: its merged
/// fold census and stage breakdown equal the one-slab run's. Whole
/// summaries are not compared: past 4,096 links the one-slab
/// heavy-hitter table evicts, while each slab's table holds its own
/// links exactly.
fn auto_plan_matches(label: &str, spec: &ScenarioSpec, one_slab: &StreamSummary) {
    let params = spec.md_params().expect("scale presets are MD specs");
    let (_, observed) = run(spec.torus_dims(), params, ObsMode::Stream, 2);
    let (merged, footprint) = observed.stream.expect("stream observed");
    assert_eq!(merged.fold, one_slab.fold, "[{label}] auto-plan census");
    assert_eq!(
        merged.breakdown(),
        one_slab.breakdown(),
        "[{label}] auto-plan breakdown"
    );
    println!(
        "[{label}] auto plan: census and breakdown equal one slab's, {} peak partials per slab",
        footprint.peak_partials
    );
}

/// Phase 1: the streamed fold against ground truth on the paper machine.
fn reference_checks(report: &mut BenchReport) -> (StreamSummary, MetricsSnapshot) {
    let spec = presets::scale_md(8);
    let dims = spec.torus_dims();
    let params = spec.md_params().expect("scale presets are MD specs");
    let nodes = dims.node_count() as u64;
    let (plain, _) = run(dims, params, ObsMode::Off, 1);
    let (rec_out, observed) = run(dims, params, ObsMode::Flight, 1);
    let events = observed.flight.expect("flight recorded");
    let (str_out, observed) = run(dims, params, ObsMode::Stream, 1);
    let (summary, footprint) = observed.stream.expect("stream observed");

    // Zero observer effect: recording modes never move the simulation.
    for (mode, out) in [("flight", &rec_out), ("stream", &str_out)] {
        assert_eq!(out.makespan, plain.makespan, "{mode} observer effect");
        assert_eq!(out.checksums, plain.checksums, "{mode} observer effect");
        assert_eq!(out.events, plain.events, "{mode} observer effect");
    }

    // The streamed fold is exact: same stage totals, same census.
    let (lifecycles, stats) = fold_lifecycles(events.iter());
    let exact = BreakdownSummary::from_lifecycles(&lifecycles);
    assert_eq!(summary.breakdown(), exact, "streamed breakdown is exact");
    assert_eq!(summary.fold, stats, "streamed fold census is exact");

    // Sketch quantiles stay within one log-bucket of the offline
    // histogram built from the identical latency stream.
    let mut reg = MetricsRegistry::new();
    for lc in &lifecycles {
        reg.observe("e2e", lc.delivered.since(lc.issued));
    }
    let hist = reg.histogram("e2e").expect("observed");
    for q in [0.5, 0.9, 0.99] {
        let exact_ps = hist.quantile(q).expect("nonempty").as_ps();
        let sketch_ps = summary.e2e_sketch.quantile_ps(q).expect("nonempty");
        let (be, bs) = (log2_bucket(exact_ps), log2_bucket(sketch_ps));
        assert!(
            be.abs_diff(bs) <= 1,
            "q{q}: sketch {sketch_ps} ps vs exact {exact_ps} ps is more \
             than one log-bucket apart ({bs} vs {be})"
        );
    }

    // Below capacity (3,072 links < 4,096 slots) the heavy-hitter table
    // is exact: same links, same busy totals, zero error, same order.
    let congestion = CongestionMap::build(events.iter(), anton_des::SimDuration::from_ns(100));
    let want = congestion.hottest_links(16);
    let got = summary.hottest_links(16);
    assert_eq!(got.len(), want.len());
    for ((gk, ge), (wk, wd)) in got.iter().zip(&want) {
        assert_eq!(gk, wk, "heavy-hitter link order");
        assert_eq!(ge.count, wd.as_ps(), "heavy-hitter busy total");
        assert_eq!(ge.err, 0, "below capacity the table is exact");
    }

    // Shard-merged summaries are bit-identical to the one-slab one.
    for threads in [2, 4] {
        let (_, observed) = run(dims, params, ObsMode::Stream, threads);
        let (par_summary, _) = observed.stream.expect("stream observed");
        assert_eq!(
            par_summary, summary,
            "{threads}-thread merge is bit-identical"
        );
    }

    println!(
        "[reference] 512 nodes: breakdown exact, census exact, top-K exact, \
         sketch within one log-bucket, shard merges bit-identical"
    );

    report.set("scale_ref_complete", summary.fold.complete as f64);
    report.set_directed(
        "scale_ref_e2e_p50_ns",
        summary.e2e_sketch.quantile_ns(0.5),
        Direction::LowerIsBetter,
    );
    report.set_directed(
        "scale_ref_e2e_p99_ns",
        summary.e2e_sketch.quantile_ns(0.99),
        Direction::LowerIsBetter,
    );
    report.set_directed(
        "scale_ref_hot_link_busy_ns",
        got.first().map_or(0.0, |(_, e)| e.count as f64 / 1000.0),
        Direction::LowerIsBetter,
    );

    let mut reg = MetricsRegistry::new();
    summary.record_metrics(&mut reg);
    footprint.record_metrics(&mut reg, nodes);
    (summary, reg.snapshot())
}

/// Phase 2: chunked exporters equal the in-memory builders, byte for
/// byte, and land the reservoir sample on disk.
fn export_reservoir(summary: &StreamSummary) {
    let sample: Vec<&PacketLifecycle> = summary.reservoir().items().collect();

    let mut builder = ChromeTraceBuilder::new();
    let mut writer = ChromeTraceWriter::new(Vec::new()).expect("header");
    builder.name_process(0, "reservoir sample");
    writer.name_process(0, "reservoir sample").expect("write");
    for lc in &sample {
        builder.add_lifecycle(0, lc);
        writer.add_lifecycle(0, lc).expect("write");
    }
    let built = builder.finish();
    let streamed = writer.finish().expect("finish");
    assert_eq!(
        built.as_bytes(),
        streamed.as_slice(),
        "streaming Chrome-trace writer must be byte-identical to the builder"
    );
    std::fs::write("target/obs/scale_trace.json", &streamed).expect("write scale_trace.json");

    let mut csv = LifecycleCsvWriter::new(Vec::new()).expect("header");
    for lc in &sample {
        csv.write(lc).expect("write");
    }
    let csv = csv.finish().expect("finish");
    assert_eq!(
        anton_obs::lifecycles_csv(&sample.iter().map(|lc| (*lc).clone()).collect::<Vec<_>>())
            .as_bytes(),
        csv.as_slice(),
        "streaming CSV writer must be byte-identical to the builder"
    );
    std::fs::write("target/obs/scale_lifecycles.csv", &csv).expect("write scale_lifecycles.csv");

    println!(
        "[export] {} sampled lifecycles -> target/obs/scale_trace.json, \
         target/obs/scale_lifecycles.csv (writers byte-identical to builders)",
        sample.len()
    );
}

fn write_scale_report(sections: &[(String, MetricsSnapshot)]) {
    let mut out = String::from("{\n\"schema\": 1,\n\"sections\": {\n");
    for (i, (name, snap)) in sections.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{}: {}",
            anton_obs::json::escape(name),
            snap.to_json()
        ));
    }
    out.push_str("}\n}\n");
    std::fs::write("target/obs/scale_report.json", out).expect("write scale_report.json");
}

fn main() -> ExitCode {
    let mut quick = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--quick" => quick = true,
            other => {
                eprintln!("usage: scale_probe [--quick] (got {other:?})");
                return ExitCode::from(2);
            }
        }
    }
    std::fs::create_dir_all("target/obs").expect("create target/obs");

    let mut report = BenchReport::new("scale_probe");
    let mut sections = Vec::new();

    let (ref_summary, ref_snap) = reference_checks(&mut report);
    sections.push(("reference_512".to_owned(), ref_snap));
    export_reservoir(&ref_summary);

    // 16³ always runs, so the committed bench metrics are identical in
    // quick and full modes.
    let (out16, summary16, snap16) = scale_run("scale 16^3", &presets::scale_md(16));
    auto_plan_matches("scale 16^3", &presets::scale_md(16), &summary16);
    report.set("scale16_events", out16.events as f64);
    report.set_directed(
        "scale16_makespan_ns",
        out16.makespan.as_ns_f64(),
        Direction::LowerIsBetter,
    );
    report.set_directed(
        "scale16_obs_peak_bytes_per_node",
        snap16.get("obs.stream.peak_bytes").unwrap_or(0.0) / 4096.0,
        Direction::LowerIsBetter,
    );
    report.set_directed(
        "scale16_e2e_p99_ns",
        snap16.get("obs.stream.e2e_p99_ns").unwrap_or(0.0),
        Direction::LowerIsBetter,
    );
    sections.push(("scale_4096".to_owned(), snap16));

    if !quick {
        let (_, _, snap24) = scale_run("scale 24^3", &presets::scale_md(24));
        sections.push(("scale_13824".to_owned(), snap24));
    }

    write_scale_report(&sections);
    println!(
        "[report] target/obs/scale_report.json ({} sections)",
        sections.len()
    );

    std::fs::write("BENCH_pr8.json", report.to_json()).expect("write BENCH_pr8.json");
    println!("[report] BENCH_pr8.json");
    let mut stdout = std::io::stdout();
    let _ = stdout.flush();
    ExitCode::SUCCESS
}
