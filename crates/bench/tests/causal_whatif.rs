//! Acceptance tests of the what-if re-timer: replaying the causal DAG
//! with hop latency scaled ±10% must predict the makespan of an actual
//! re-run under the equivalently perturbed [`Timing`] model to within
//! 1% — on the one-way-latency ping-pong and on an all-reduce.
//!
//! The hop (wire) lag in the DAG is the link head latency, `2 ×
//! adapter_ns` — a timing constant used nowhere else in the fabric —
//! so scaling `Wire` edges by `f` in the re-timer corresponds exactly
//! to re-running with `adapter_ns × f`.
//!
//! [`Timing`]: anton_net::Timing

use anton_bench::ping_pong;
use anton_collectives::{all_reduce, random_inputs, Algorithm};
use anton_des::SimTime;
use anton_net::{FaultPlan, ObsMode, RunConfig, Timing};
use anton_obs::{retime, CausalGraph, EdgeKind, FlightEvent, Perturbation};
use anton_topo::{Coord, LinkDir, NodeId, TorusDims};

/// A flight-recorded sequential run under `timing`.
fn recorded(timing: &Timing) -> RunConfig {
    RunConfig {
        timing: timing.clone(),
        obs: ObsMode::Flight,
        ..RunConfig::default()
    }
}

/// The flight events of a fault-free single-stream ping-pong.
fn ping_flight(dims: TorusDims, src: Coord, dst: Coord, timing: &Timing) -> Vec<FlightEvent> {
    let (_, observed) = ping_pong(
        dims,
        src,
        dst,
        0,
        false,
        4,
        FaultPlan::none(),
        &recorded(timing),
    )
    .expect("fault-free ping-pong completes");
    observed.flight.expect("flight recorded")
}

fn graph_of(dims: TorusDims, flight: &[FlightEvent], timing: &Timing) -> CausalGraph {
    CausalGraph::build(dims, flight.iter(), |b| timing.injection_occupancy(b))
}

fn recorded_end(g: &CausalGraph) -> SimTime {
    g.nodes()[g.terminal().expect("nonempty graph") as usize].time
}

/// Relative error of a predicted makespan end vs the measured one.
fn rel_err(predicted: SimTime, actual: SimTime) -> f64 {
    (predicted.as_ps() as f64 - actual.as_ps() as f64).abs() / actual.as_ps() as f64
}

#[test]
fn retimer_predicts_hop_scaling_on_one_way_latency() {
    let dims = TorusDims::anton_512();
    let base = Timing::default();
    let (src, dst) = (Coord::new(0, 0, 0), Coord::new(1, 0, 0));
    let g = graph_of(dims, &ping_flight(dims, src, dst, &base), &base);
    g.check_consistency().expect("recorded graph is exact");

    for scale in [1.1, 0.9] {
        let predicted = retime(&g, &Perturbation::none().scale(EdgeKind::Wire, scale));

        let mut perturbed = base.clone();
        perturbed.adapter_ns *= scale;
        let g2 = graph_of(dims, &ping_flight(dims, src, dst, &perturbed), &perturbed);
        let actual = recorded_end(&g2);

        let err = rel_err(predicted.end, actual);
        assert!(
            err <= 0.01,
            "hop x{scale}: predicted {} vs actual {} ({:.3}% off)",
            predicted.end,
            actual,
            err * 100.0
        );
        // The perturbation must actually move the makespan, or the 1%
        // bound is vacuous.
        assert_ne!(
            actual,
            recorded_end(&g),
            "hop x{scale} must change the makespan"
        );
    }
}

#[test]
fn retimer_predicts_hop_scaling_on_all_reduce() {
    let dims = TorusDims::new(2, 2, 2);
    let base = Timing::default();
    let inputs = random_inputs(dims, 4, 7);

    let run = |timing: &Timing| -> Vec<FlightEvent> {
        let (_, observed) = all_reduce(
            dims,
            Algorithm::Butterfly,
            Default::default(),
            &inputs,
            FaultPlan::none(),
            &recorded(timing),
        )
        .expect("fault-free all-reduce completes");
        observed.flight.expect("flight recorded")
    };

    let g = graph_of(dims, &run(&base), &base);
    g.check_consistency().expect("recorded graph is exact");

    for scale in [1.1, 0.9] {
        let predicted = retime(&g, &Perturbation::none().scale(EdgeKind::Wire, scale));

        let mut perturbed = base.clone();
        perturbed.adapter_ns *= scale;
        let g2 = graph_of(dims, &run(&perturbed), &perturbed);
        let actual = recorded_end(&g2);

        let err = rel_err(predicted.end, actual);
        assert!(
            err <= 0.01,
            "all-reduce hop x{scale}: predicted {} vs actual {} ({:.3}% off)",
            predicted.end,
            actual,
            err * 100.0
        );
        assert_ne!(actual, recorded_end(&g));
    }
}

/// Slowing one link only matters if the critical path crosses it: a
/// link on the path stretches the makespan; a far-away idle link
/// leaves the replay bit-for-bit identical.
#[test]
fn slow_link_moves_only_the_paths_that_cross_it() {
    let dims = TorusDims::anton_512();
    let base = Timing::default();
    let flight = ping_flight(dims, Coord::new(0, 0, 0), Coord::new(1, 0, 0), &base);
    let g = graph_of(dims, &flight, &base);
    let end = recorded_end(&g);

    // Pick the first wire crossing on the measured critical path.
    let path = g.critical_path().expect("nonempty");
    let (hot_node, hot_link) = path
        .edges
        .iter()
        .find_map(|&e| {
            let edge = &g.edges()[e as usize];
            (edge.kind == EdgeKind::Wire).then(|| {
                let src = &g.nodes()[edge.src as usize];
                (src.node, LinkDir::from_index(src.aux as usize))
            })
        })
        .expect("the ping-pong path crosses a wire");

    let slowed = retime(&g, &Perturbation::none().slow_link(hot_node, hot_link, 3.0));
    assert!(
        slowed.end > end,
        "tripling a critical link must stretch the makespan ({} vs {end})",
        slowed.end
    );

    // A link in a distant corner of the machine carries none of this
    // traffic; slowing it predicts no change at all.
    let idle = retime(
        &g,
        &Perturbation::none().slow_link(NodeId(dims.node_count() - 1), LinkDir::from_index(4), 3.0),
    );
    assert_eq!(idle.end, end);
    for (i, n) in g.nodes().iter().enumerate() {
        assert_eq!(idle.times[i], n.time, "idle-link what-if must be a no-op");
    }
}
