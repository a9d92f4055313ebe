//! The canonical suite: one function that measures the simulator's
//! headline numbers — one-way latency, the Figure 6 stage means,
//! all-reduce latency, and (in full mode) the DHFR step — into a
//! schema-versioned [`BenchReport`]. The full suite is the committed
//! `BENCH_pr3.json`, written by the `canonical_suite` binary; the quick
//! suite is the first part of the observatory profile
//! (`BENCH_pr7.json`).
//!
//! All values are *simulated* durations, so they are bit-deterministic:
//! any drift is a model change, not host noise, and CI checks the
//! committed file byte for byte. Lower is better for every metric.

use anton_collectives::{all_reduce, random_inputs, Algorithm};
use anton_net::{FaultPlan, ObsMode, RunConfig};
use anton_obs::{fold_lifecycles, BenchReport, BreakdownSummary, Stage};
use anton_topo::{Coord, TorusDims};

use crate::microbench::ping_pong;

/// Stable metric key for a Figure 6 stage.
fn stage_key(stage: Stage) -> &'static str {
    match stage {
        Stage::SenderOverhead => "fig6_sender_overhead_ns",
        Stage::Injection => "fig6_injection_ns",
        Stage::RouterWire => "fig6_router_wire_ns",
        Stage::Delivery => "fig6_delivery_ns",
        Stage::Sync => "fig6_sync_ns",
    }
}

/// Run the canonical suite. The quick subset (well under a second in
/// release) covers the communication microbenchmarks; `full` adds the
/// DHFR MD step (about 40 s in release), which `BENCH_pr3.json`
/// includes.
pub fn run_suite(full: bool) -> BenchReport {
    let mut report = BenchReport::new("anton-sim canonical suite");
    let dims = TorusDims::anton_512();

    // One-way latency: the paper's 162 ns single hop, the 822 ns
    // worst-case diameter path, and a payload-carrying hop.
    let origin = Coord::new(0, 0, 0);
    let ping = |dst: Coord, payload_bytes: u32, iters: u32, cfg: RunConfig| {
        let none = FaultPlan::none();
        ping_pong(dims, origin, dst, payload_bytes, false, iters, none, &cfg)
            .expect("fault-free ping-pong completes")
    };
    let (hop, _) = ping(Coord::new(1, 0, 0), 0, 4, RunConfig::default());
    report.set("one_way_1hop_ns", hop.as_ns_f64());
    let (diam, _) = ping(Coord::new(4, 4, 4), 0, 4, RunConfig::default());
    report.set("one_way_diameter_ns", diam.as_ns_f64());
    let (full_payload, _) = ping(Coord::new(1, 0, 0), 256, 4, RunConfig::default());
    report.set("one_way_1hop_256b_ns", full_payload.as_ns_f64());

    // Figure 6 stage means from recorded packet lifecycles.
    let recorded = RunConfig {
        obs: ObsMode::Flight,
        ..RunConfig::default()
    };
    let (_, observed) = ping(Coord::new(1, 0, 0), 0, 8, recorded);
    let flight = observed.flight.expect("flight recorded");
    let (lifecycles, _) = fold_lifecycles(flight.iter());
    let summary = BreakdownSummary::from_lifecycles(&lifecycles);
    for stage in Stage::ALL {
        report.set(stage_key(stage), summary.mean_ns(stage));
    }
    report.set("fig6_end_to_end_ns", summary.mean_end_to_end_ns());

    // All-reduce: the machine-wide dimension-ordered collective (the
    // paper's ~2 us global sum) and a small butterfly.
    let reduce = |dims: TorusDims, algorithm: Algorithm, inputs: &[Vec<f64>]| {
        let (none, run) = (FaultPlan::none(), RunConfig::default());
        all_reduce(dims, algorithm, Default::default(), inputs, none, &run)
            .expect("fault-free all-reduce completes")
            .0
    };
    let inputs = random_inputs(dims, 1, 7);
    let out = reduce(dims, Algorithm::DimensionOrdered, &inputs);
    report.set("allreduce_512_dimord_us", out.latency.as_us_f64());
    let small_dims = TorusDims::new(2, 2, 2);
    let small = reduce(
        small_dims,
        Algorithm::Butterfly,
        &random_inputs(small_dims, 4, 7),
    );
    report.set("allreduce_222_butterfly_ns", small.latency.as_ns_f64());

    if full {
        dhfr_step(&mut report);
    }
    report
}

/// The DHFR-like MD step (Table 3's workload): simulated total and
/// critical-path communication time, averaged over one range-limited
/// and one long-range step. Release builds only: one of the system's
/// filler atoms overlaps a protein atom, and a debug build's
/// fixed-point overflow check fires on its force (ROADMAP.md).
fn dhfr_step(report: &mut BenchReport) {
    use anton_core::{AntonConfig, AntonMdEngine};
    use anton_md::{MdParams, SystemBuilder};

    let sys = SystemBuilder::dhfr_like().build();
    let mut md = MdParams::new(9.5, [32; 3]);
    md.dt = 1.0;
    let config = AntonConfig::new(md);
    let mut eng = AntonMdEngine::new(sys, config, TorusDims::anton_512());
    let mut totals = Vec::new();
    let mut comms = Vec::new();
    // Two steps cover both step flavors (range-limited + long-range).
    for _ in 0..2 {
        let t = eng.step();
        totals.push(t.total.as_us_f64());
        comms.push(t.communication().as_us_f64());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    report.set("dhfr_step_us", mean(&totals));
    report.set("dhfr_comm_us", mean(&comms));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_hits_the_paper_anchors() {
        let report = run_suite(false);
        assert_eq!(report.get("one_way_1hop_ns"), Some(162.0));
        assert_eq!(report.get("one_way_diameter_ns"), Some(822.0));
        // Serialized form round-trips and carries the schema version.
        let parsed = BenchReport::parse(&report.to_json()).expect("round-trips");
        assert_eq!(parsed.get("one_way_1hop_ns"), Some(162.0));
        // A report diffed against itself has no regressions.
        let diff = report.diff(&parsed, 10.0).expect("comparable");
        assert!(!diff.has_regressions(), "{}", diff.table());
    }
}
