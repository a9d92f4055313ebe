//! Table 1: survey of published inter-node software-to-software
//! (ping-pong) latencies, with Anton's value measured on the simulated
//! machine.

use anton_baseline::{ANTON_LATENCY_US, LATENCY_SURVEY};
use anton_bench::ping_pong;
use anton_bench::report::section;
use anton_net::{FaultPlan, RunConfig};
use anton_topo::{Coord, TorusDims};

fn main() {
    let dims = TorusDims::anton_512();
    let measured = ping_pong(
        dims,
        Coord::new(0, 0, 0),
        Coord::new(1, 0, 0),
        0,
        false,
        8,
        FaultPlan::none(),
        &RunConfig::default(),
    )
    .expect("fault-free ping-pong completes")
    .0;
    let measured_us = measured.as_us_f64();

    section("Table 1: published software-to-software ping-pong latencies");
    println!(
        "{:>26} {:>12} {:>6} {:>6}",
        "machine", "latency (us)", "year", "ref"
    );
    println!(
        "{:>26} {:>12.3} {:>6} {:>6}   <- measured on this simulator",
        "Anton", measured_us, 2009, "here"
    );
    for e in LATENCY_SURVEY {
        println!(
            "{:>26} {:>12.2} {:>6} {:>6}",
            e.machine, e.latency_us, e.year, e.reference
        );
    }
    println!("\npaper value for Anton: {ANTON_LATENCY_US} us; simulator: {measured_us:.3} us");
    assert!((measured_us - ANTON_LATENCY_US).abs() < 0.001);
    let next_best = LATENCY_SURVEY[0];
    println!(
        "margin over the best published machine ({}): {:.1}x",
        next_best.machine,
        next_best.latency_us / measured_us
    );
}
