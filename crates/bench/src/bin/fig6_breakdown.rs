//! Figure 6: the component-by-component breakdown of the 162 ns
//! single-hop counted-remote-write latency — regenerated from *measured*
//! packet lifecycles captured by the flight recorder, then cross-checked
//! against the closed-form timing model.

use anton_bench::microbench::ping_pong;
use anton_bench::report::section;
use anton_net::{FaultPlan, ObsMode, RunConfig};
use anton_obs::{fold_lifecycles, BreakdownSummary, Stage};
use anton_scenario::{presets, Workload};
use anton_topo::Coord;

fn main() {
    // The workload is the committed `fig6_pingpong` scenario: a
    // single-hop (+X) 0-byte unidirectional counted remote write on the
    // 512-node machine, so this figure's provenance is its spec hash.
    let spec = presets::fig6_pingpong();
    let t = spec.timing_table();
    section("Figure 6: single-hop (X) counted remote write latency breakdown");
    println!("(spec {} = {})", spec.name, spec.hash_hex());

    // Record a unidirectional single-hop ping-pong; every one-way
    // transfer is one packet lifecycle in the recorder.
    let Workload::PingPong {
        from,
        to,
        payload_bytes,
        bidirectional,
        reps,
    } = spec.workload
    else {
        unreachable!("fig6_pingpong is a ping-pong spec");
    };
    let recorded = RunConfig {
        timing: t.clone(),
        obs: ObsMode::Flight,
        ..RunConfig::default()
    };
    let (measured, observed) = ping_pong(
        spec.torus_dims(),
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
    let (lifecycles, fold) = fold_lifecycles(flight.iter());
    let summary = BreakdownSummary::from_lifecycles(&lifecycles);

    // The paper's six rows, folded into the recorder's five stages.
    let analytic: [(Stage, &str, f64); 5] = [
        (
            Stage::SenderOverhead,
            "write packet send initiated in processing slice",
            t.send_setup_ns,
        ),
        (
            Stage::Injection,
            "2 send-side on-chip router hops",
            t.send_ring_ns,
        ),
        (
            Stage::RouterWire,
            "X+ and X- link adapters (incl. torus wire)",
            2.0 * t.adapter_ns,
        ),
        (
            Stage::Delivery,
            "3 receive-side router hops + delivery to memory + poll",
            t.recv_ring_ns + t.deliver_poll_ns,
        ),
        (Stage::Sync, "counter visibility past delivery", 0.0),
    ];

    println!(
        "{} packet lifecycles recorded ({} incomplete, {} multicast skipped)\n",
        summary.packets, fold.incomplete, fold.multicast
    );
    println!("{:>56}  {:>8}  {:>8}", "stage", "measured", "analytic");
    let mut total = 0.0;
    for (stage, label, ns) in analytic {
        let m = summary.mean_ns(stage);
        println!("{label:>56}: {m:>5.0} ns  {ns:>5.0} ns");
        total += ns;
        assert!(
            (m - ns).abs() <= 0.01 * ns.max(1.0),
            "stage '{}': measured {m} ns vs analytic {ns} ns",
            stage.name()
        );
    }
    let mean_e2e = summary.mean_end_to_end_ns();
    println!(
        "{:>56}: {mean_e2e:>5.0} ns  {total:>5.0} ns",
        "TOTAL (paper: 162 ns)"
    );

    // Measured-vs-analytic agreement, within 1% (acceptance criterion).
    let rel = (mean_e2e - total).abs() / total;
    assert!(
        rel < 0.01,
        "measured {mean_e2e} ns vs analytic {total} ns ({:.2}%)",
        rel * 100.0
    );
    assert_eq!(measured.as_ns_f64().round() as u64, total.round() as u64);

    println!(
        "\nend-to-end DES measurement of the same transfer: {:.0} ns",
        measured.as_ns_f64()
    );
    println!("bandwidth context: off-chip link {} Gbit/s raw ({} Gbit/s effective data), on-chip ring {} Gbit/s",
        anton_net::LINK_RAW_GBPS, anton_net::LINK_EFFECTIVE_GBPS, anton_net::RING_GBPS);
}
