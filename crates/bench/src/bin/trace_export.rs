//! Export flight-recorder traces of two small workloads — a single-hop
//! ping-pong and a 2x2x2 dimension-ordered all-reduce — as a Chrome
//! `trace_event` JSON (load it at <https://ui.perfetto.dev>), a per-packet
//! lifecycle CSV, and a metrics-registry JSON snapshot. Everything lands
//! under `target/obs/`; the JSON outputs are validated before writing.
//!
//! Deterministic: the same build writes byte-identical files on every
//! run, which the CI smoke step and the determinism test rely on.

use anton_bench::ping_pong;
use anton_collectives::{all_reduce, random_inputs, Algorithm};
use anton_net::{FaultPlan, ObsMode, RunConfig};
use anton_obs::{
    fold_lifecycles, validate_json, BreakdownSummary, ChromeTraceBuilder, MetricsRegistry,
};
use anton_topo::{Coord, TorusDims};

fn main() {
    let mut reg = MetricsRegistry::new();
    let mut trace = ChromeTraceBuilder::new();
    let recorded = RunConfig {
        obs: ObsMode::Flight,
        ..RunConfig::default()
    };

    // ---- workload 1: the paper's 162 ns single-hop ping-pong ----
    let dims = TorusDims::anton_512();
    let (lat, observed) = ping_pong(
        dims,
        Coord::new(0, 0, 0),
        Coord::new(1, 0, 0),
        0,
        false,
        4,
        FaultPlan::none(),
        &recorded,
    )
    .expect("fault-free ping-pong completes");
    let flight = observed.flight.expect("flight recorded");
    let (lives, _) = fold_lifecycles(flight.iter());
    trace.name_process(1, "ping-pong (512 nodes, 1 X hop)");
    for lc in &lives {
        trace.add_lifecycle(1, lc);
        reg.observe("pingpong.end_to_end", lc.end_to_end());
    }
    reg.set_counter("pingpong.packets", lives.len() as u64);
    reg.set_gauge("pingpong.one_way_ns", lat.as_ns_f64());
    let pp_summary = BreakdownSummary::from_lifecycles(&lives);
    println!(
        "ping-pong: {} lifecycles, {:.0} ns one-way",
        lives.len(),
        lat.as_ns_f64()
    );
    print!("{}", pp_summary.table());

    // ---- workload 2: a small all-reduce with counter synchronization ----
    let ar_dims = TorusDims::new(2, 2, 2);
    let (out, observed) = all_reduce(
        ar_dims,
        Algorithm::Butterfly,
        Default::default(),
        &random_inputs(ar_dims, 4, 7),
        FaultPlan::none(),
        &recorded,
    )
    .expect("fault-free all-reduce completes");
    let ar_flight = observed.flight.expect("flight recorded");
    let (ar_lives, ar_fold) = fold_lifecycles(ar_flight.iter());
    trace.name_process(2, "all-reduce (2x2x2, butterfly)");
    for lc in &ar_lives {
        trace.add_lifecycle(2, lc);
        reg.observe("allreduce.end_to_end", lc.end_to_end());
    }
    reg.set_counter("allreduce.packets_sent", out.packets_sent);
    reg.set_counter("allreduce.link_traversals", out.link_traversals);
    reg.set_gauge("allreduce.latency_us", out.latency.as_us_f64());
    println!(
        "all-reduce: {} lifecycles ({} multicast skipped), {:.2} us",
        ar_lives.len(),
        ar_fold.multicast,
        out.latency.as_us_f64()
    );

    // ---- export ----
    let n_events = trace.len();
    let trace_json = trace.finish();
    validate_json(&trace_json).expect("chrome trace is well-formed JSON");
    let metrics_json = reg.snapshot().to_json();
    validate_json(&metrics_json).expect("metrics snapshot is well-formed JSON");
    let csv = lifecycles_header_merge(&lives, &ar_lives);

    std::fs::create_dir_all("target/obs").expect("create target/obs");
    std::fs::write("target/obs/trace.json", &trace_json).expect("write trace.json");
    std::fs::write("target/obs/summary.csv", &csv).expect("write summary.csv");
    std::fs::write("target/obs/metrics.json", &metrics_json).expect("write metrics.json");
    println!(
        "wrote target/obs/trace.json ({} events), summary.csv ({} rows), metrics.json ({} keys)",
        n_events,
        lives.len() + ar_lives.len(),
        reg.snapshot().values().len()
    );
    println!("open trace.json at https://ui.perfetto.dev (Trace Viewer)");
}

/// One CSV with both workloads' lifecycles (same schema, concatenated
/// without repeating the header).
fn lifecycles_header_merge(
    a: &[anton_obs::PacketLifecycle],
    b: &[anton_obs::PacketLifecycle],
) -> String {
    let mut csv = anton_obs::lifecycles_csv(a);
    let tail = anton_obs::lifecycles_csv(b);
    if let Some(idx) = tail.find('\n') {
        csv.push_str(&tail[idx + 1..]);
    }
    csv
}
