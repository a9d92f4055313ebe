//! The canonical suite in full: one-way latency, the Figure 6 stage
//! means, all-reduce latency and the DHFR step (about 40 s in release;
//! see [`anton_bench::suite`]), written to `BENCH_pr3.json`.
//!
//! ```text
//! canonical_suite
//! ```
//!
//! Every value is a simulated duration, so the file is byte-stable; it
//! is committed and drift-gated by `scripts/ci.sh full`.

use anton_bench::suite::run_suite;

fn main() {
    let report = run_suite(true);
    for (name, value) in &report.values {
        println!("{name:<28} {value}");
    }
    std::fs::write("BENCH_pr3.json", report.to_json()).expect("write BENCH_pr3.json");
    println!("canonical_suite: wrote BENCH_pr3.json");
}
