//! Quickstart: stand up a simulated 512-node Anton machine, measure the
//! headline 162 ns counted-remote-write latency, and run a few MD time
//! steps end to end.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use anton_bench::ping_pong;
use anton_core::{AntonConfig, AntonMdEngine};
use anton_md::{MdParams, SystemBuilder};
use anton_net::{FaultPlan, RunConfig};
use anton_topo::{Coord, TorusDims};

fn main() {
    // 1. The headline measurement: a counted remote write between
    //    neighboring nodes of an 8×8×8 machine.
    let dims = TorusDims::anton_512();
    let latency = ping_pong(
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
    println!("one-hop counted remote write: {latency}  (paper: 162 ns)");

    // 2. A small solvated system on a 2×2×2 machine: every force travels
    //    through simulated counted remote writes, multicast trees, and
    //    accumulation memories — and the physics is real.
    let sys = SystemBuilder::tiny(240, 22.0, 7).build();
    let mut md = MdParams::new(4.5, [16; 3]);
    md.dt = 0.5;
    let config = AntonConfig::new(md);
    let mut engine = AntonMdEngine::new(sys, config, TorusDims::new(2, 2, 2));

    println!("\nrunning 3 MD steps of a 240-atom water box on a 2x2x2 machine:");
    for _ in 0..3 {
        let t = engine.step();
        println!(
            "  step {}: {:>9.3} us total, {:>8.3} us communication, T = {:.0} K{}",
            engine.steps(),
            t.total.as_us_f64(),
            t.communication().as_us_f64(),
            engine.temperature(),
            if t.long_range {
                "  [long-range step]"
            } else {
                ""
            },
        );
    }
    let e = engine.last_energies;
    println!(
        "\nenergy components (kcal/mol): bonded {:.1}, LJ {:.1}, coulomb {:.1}, long-range {:.1}",
        e.bonded, e.lj, e.coulomb_real, e.long_range
    );
    println!("total potential: {:.1} kcal/mol", e.potential());
}
