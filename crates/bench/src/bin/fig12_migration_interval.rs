//! Figure 12: average time-step execution time of a 17,758-particle
//! system on the 512-node machine as the migration interval varies from
//! 1 to 8 (with home-box margins grown to cover the longer drift), plus
//! the §IV.B.5 migration-sync measurement (paper: 0.56 µs).

use anton_core::{AntonConfig, AntonMdEngine};
use anton_md::{MdParams, SystemBuilder};
use anton_topo::TorusDims;

fn main() {
    println!("Figure 12: step time vs migration interval (17,758 particles, 512 nodes)");
    println!(
        "{:>9} {:>12} {:>14} {:>16} {:>14}",
        "interval", "margin (A)", "avg step (us)", "mig span (us)", "migrated"
    );
    let mut first = 0.0;
    let mut last = 0.0;
    for interval in 1..=8u32 {
        let sys = SystemBuilder::migration_benchmark().build();
        let mut md = MdParams::new(9.5, [32; 3]);
        md.dt = 1.0; // flexible water needs ~1 fs (the paper's system used constraints)
        let mut config = AntonConfig::new(md);
        config.migration_interval = interval;
        // Margin covers the expected drift over the interval plus slack.
        config.margin = 0.3 + 0.08 * interval as f64;
        let mut eng = AntonMdEngine::new(sys, config, TorusDims::anton_512());
        // Let the freshly generated lattice relax before measuring.
        for _ in 0..2 {
            eng.step();
        }

        // Run one full migration cycle plus one step (≥ 2 cycles for
        // small intervals) and average.
        let steps = (2 * interval).max(4);
        let mut total = 0.0;
        let mut mig_span = 0.0;
        let mut migrated = 0u64;
        for _ in 0..steps {
            let t = eng.step();
            total += t.total.as_us_f64();
            if t.migration {
                mig_span = t.migration_span.as_us_f64();
                migrated = eng.state.lock().unwrap().last_migrated;
            }
        }
        let avg = total / steps as f64;
        if interval == 1 {
            first = avg;
        }
        if interval == 8 {
            last = avg;
        }
        println!(
            "{:>9} {:>12.2} {:>14.2} {:>16.2} {:>14}",
            interval,
            0.3 + 0.08 * interval as f64,
            avg,
            mig_span,
            migrated
        );
    }
    println!(
        "\nimprovement from interval 1 -> 8: {:.0}% (paper: 19%)",
        (first - last) / first * 100.0
    );
    assert!(
        last < first,
        "longer intervals must amortize migration cost"
    );
}
