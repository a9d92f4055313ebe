//! Domain example: simulate a solvated protein-like system on the
//! full 512-node machine and watch where every microsecond of a time
//! step goes — the workload the paper's introduction motivates.
//!
//! ```sh
//! cargo run --release --example md_on_anton            # small run
//! MD_FULL=1 cargo run --release --example md_on_anton  # DHFR scale
//! ```

use anton_core::{AntonConfig, AntonMdEngine};
use anton_md::{MdParams, SystemBuilder};
use anton_topo::TorusDims;

fn main() {
    let full = std::env::var("MD_FULL").is_ok();
    let (builder, dims) = if full {
        (SystemBuilder::dhfr_like(), TorusDims::anton_512())
    } else {
        (SystemBuilder::tiny(1500, 36.0, 11), TorusDims::new(4, 4, 4))
    };
    println!(
        "system: {} atoms on a {}x{}x{} machine",
        builder.total_atoms, dims.nx, dims.ny, dims.nz
    );
    let mut md = MdParams::new(
        if full { 9.5 } else { 6.0 },
        if full { [32; 3] } else { [16; 3] },
    );
    md.dt = 1.0;
    let config = AntonConfig::new(md);
    let sys = builder.build();
    let mut engine = AntonMdEngine::new(sys, config, TorusDims::new(dims.nx, dims.ny, dims.nz));

    println!(
        "\n{:>5} {:>10} {:>10} {:>10} {:>8} {:>14} {:>9}",
        "step", "total us", "comm us", "compute", "T (K)", "kind", "migrated"
    );
    for _ in 0..8 {
        let t = engine.step();
        let kind = match (t.long_range, t.migration) {
            (true, true) => "LR + migrate",
            (true, false) => "long-range",
            (false, true) => "RL + migrate",
            (false, false) => "range-limited",
        };
        println!(
            "{:>5} {:>10.2} {:>10.2} {:>10.2} {:>8.0} {:>14} {:>9}",
            engine.steps(),
            t.total.as_us_f64(),
            t.communication().as_us_f64(),
            t.critical_compute().as_us_f64(),
            engine.temperature(),
            kind,
            engine.state.lock().unwrap().last_migrated,
        );
    }

    let stats = engine.last_stats.as_ref().expect("stats available");
    let n = engine.state.lock().unwrap().decomp.dims.node_count() as u64;
    println!(
        "\nlast step's traffic: {} packets sent machine-wide (~{} per node),\n\
         {} deliveries (~{} per node), {} link traversals",
        stats.packets_sent,
        stats.packets_sent / n,
        stats.packets_delivered,
        stats.packets_delivered / n,
        stats.link_traversals
    );
    println!(
        "bond program staleness: {:.3} mean hops to term nodes",
        engine.bond_staleness_hops()
    );
}
