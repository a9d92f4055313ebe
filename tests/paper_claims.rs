//! Workspace-level integration tests: the paper's headline claims,
//! asserted end-to-end across crates through the umbrella API.

use anton::baseline::{ANTON_LATENCY_US, LATENCY_SURVEY, MEASURED_IB_ALLREDUCE_512_US};
use anton::bench::{ping_pong, split_transfer_time, streaming_bandwidth_gbps};
use anton::collectives::{all_reduce, random_inputs, Algorithm};
use anton::des::SimDuration;
use anton::net::{FaultPlan, RunConfig};
use anton::topo::{Coord, TorusDims};

/// Fault-free 0-byte one-way latency over `iters` round trips.
fn one_way(dims: TorusDims, src: Coord, dst: Coord, iters: u32) -> SimDuration {
    let (none, run) = (FaultPlan::none(), RunConfig::default());
    ping_pong(dims, src, dst, 0, false, iters, none, &run)
        .expect("fault-free ping-pong completes")
        .0
}

/// §III.D / Table 1: 162 ns software-to-software latency, significantly
/// lower than any surveyed machine.
#[test]
fn headline_162ns_and_survey_margin() {
    let dims = TorusDims::anton_512();
    let lat = one_way(dims, Coord::new(0, 0, 0), Coord::new(1, 0, 0), 8);
    assert_eq!(lat, SimDuration::from_ns(162));
    let us = lat.as_us_f64();
    assert!((us - ANTON_LATENCY_US).abs() < 1e-6);
    for entry in LATENCY_SURVEY {
        assert!(
            entry.latency_us / us > 7.0,
            "{} should be ≥7x slower",
            entry.machine
        );
    }
}

/// Figure 5: latency grows 76 ns per X hop and 54 ns per Y/Z hop, making
/// the 12-hop diameter about five times the single-hop latency.
#[test]
fn figure5_per_hop_slopes() {
    let dims = TorusDims::anton_512();
    let src = Coord::new(0, 0, 0);
    let at = |dst: Coord| one_way(dims, src, dst, 4).as_ns_f64();
    assert_eq!(at(Coord::new(2, 0, 0)) - at(Coord::new(1, 0, 0)), 76.0);
    assert_eq!(at(Coord::new(4, 1, 0)) - at(Coord::new(4, 0, 0)), 54.0);
    assert_eq!(at(Coord::new(4, 4, 1)) - at(Coord::new(4, 4, 0)), 54.0);
    let ratio = at(Coord::new(4, 4, 4)) / at(Coord::new(1, 0, 0));
    assert!((4.5..5.5).contains(&ratio), "diameter/1-hop = {ratio}");
}

/// Figure 7: fine-grained messaging is nearly free on Anton — splitting
/// a 2 KB transfer into 64 messages costs well under 2x, where the
/// paper's InfiniBand comparison degrades several-fold.
#[test]
fn figure7_fine_grained_messages_nearly_free() {
    let dims = TorusDims::anton_512();
    for hops in [1u32, 4] {
        let t1 = split_transfer_time(dims, hops, 2048, 1);
        let t64 = split_transfer_time(dims, hops, 2048, 64);
        let ratio = t64.as_ns_f64() / t1.as_ns_f64();
        assert!(ratio < 2.0, "hops={hops}: ratio {ratio}");
    }
    let ib = anton::baseline::IbModel::default();
    let ib_ratio = ib.split_transfer_us(2048, 64) / ib.split_transfer_us(2048, 1);
    assert!(ib_ratio > 3.0, "cluster ratio {ib_ratio}");
}

/// §III.D: half of peak data bandwidth is reached by ~28-byte messages.
#[test]
fn half_bandwidth_point_near_28_bytes() {
    let peak = streaming_bandwidth_gbps(256, 256);
    let at_28 = streaming_bandwidth_gbps(28, 256);
    let frac = at_28 / peak;
    assert!(
        (0.40..0.62).contains(&frac),
        "28-byte messages reach {frac:.2} of peak"
    );
}

/// Table 2 + §IV.B.4: the 512-node 32-byte all-reduce lands near the
/// paper's 1.77 µs, about twenty times faster than the measured
/// InfiniBand cluster, and scales gently with machine size.
#[test]
fn table2_allreduce_scaling_and_cluster_margin() {
    let mut last = SimDuration::ZERO;
    for dims in [
        TorusDims::new(4, 4, 4),
        TorusDims::new(8, 8, 4),
        TorusDims::new(8, 8, 8),
        TorusDims::new(8, 8, 16),
    ] {
        let out = all_reduce(
            dims,
            Algorithm::DimensionOrdered,
            Default::default(),
            &random_inputs(dims, 4, 9),
            FaultPlan::none(),
            &RunConfig::default(),
        )
        .expect("fault-free all-reduce completes")
        .0;
        assert!(out.latency >= last, "monotone in machine size");
        last = out.latency;
        if dims.node_count() == 512 {
            let us = out.latency.as_us_f64();
            assert!((1.2..2.3).contains(&us), "512-node: {us} µs");
            let speedup = MEASURED_IB_ALLREDUCE_512_US / us;
            assert!(speedup > 15.0, "speedup {speedup}");
        }
    }
}

/// Table 3's headline, end to end: Anton's critical-path communication
/// for an average DHFR-scale time step is a small fraction of the
/// Desmond cluster model's. (Moderate machine size to keep CI fast; the
/// full 512-node run lives in the `table3_critical_path` bench binary.)
#[test]
fn critical_path_communication_is_a_tiny_fraction_of_the_cluster() {
    use anton::core::{AntonConfig, AntonMdEngine};
    use anton::md::{MdParams, SystemBuilder};
    let sys = SystemBuilder::tiny(1500, 36.0, 4).build();
    let mut md = MdParams::new(6.0, [16; 3]);
    md.dt = 1.0;
    let config = AntonConfig::new(md);
    let mut eng = AntonMdEngine::new(sys, config, TorusDims::new(4, 4, 4));
    let t1 = eng.step();
    let t2 = eng.step();
    let avg_comm = 0.5 * (t1.communication() + t2.communication()).as_us_f64();
    let cluster = anton::baseline::DesmondModel::table3().average_step();
    assert!(
        avg_comm * 10.0 < cluster.communication_us,
        "anton {avg_comm} µs vs cluster {} µs",
        cluster.communication_us
    );
}
