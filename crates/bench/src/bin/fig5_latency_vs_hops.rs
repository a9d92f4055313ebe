//! Figure 5: one-way counted-remote-write latency vs. network hops on a
//! 512-node (8×8×8) machine — 0-byte and 256-byte payloads, uni- and
//! bidirectional ping-pong. Hops 1–4 run along X; 5–12 add Y and Z hops
//! (shortest-path routing along each dimension), exactly the paper's
//! sweep.

use anton_bench::ping_pong;
use anton_bench::report::section;
use anton_des::SimDuration;
use anton_net::{FaultPlan, RunConfig};
use anton_topo::{Coord, TorusDims};

fn dest_for_hops(hops: u32) -> Coord {
    let hx = hops.min(4);
    let hy = hops.saturating_sub(4).min(4);
    let hz = hops.saturating_sub(8).min(4);
    Coord::new(hx, hy, hz)
}

/// Fault-free one-way latency over 8 round trips.
fn one_way(dims: TorusDims, src: Coord, dst: Coord, payload: u32, bidir: bool) -> SimDuration {
    let (none, run) = (FaultPlan::none(), RunConfig::default());
    ping_pong(dims, src, dst, payload, bidir, 8, none, &run)
        .expect("fault-free ping-pong completes")
        .0
}

fn main() {
    let dims = TorusDims::anton_512();
    let src = Coord::new(0, 0, 0);
    section("Figure 5: one-way latency (ns) vs network hops, 8x8x8 machine");
    println!(
        "{:>4} {:>12} {:>12} {:>14} {:>14}",
        "hops", "0B uni", "0B bidir", "256B uni", "256B bidir"
    );
    for hops in 0..=12u32 {
        let dst = if hops == 0 {
            Coord::new(0, 0, 0)
        } else {
            dest_for_hops(hops)
        };
        let mut row = Vec::new();
        for payload in [0u32, 256] {
            for bidir in [false, true] {
                let d = if hops == 0 {
                    // 0-hop: between slices on the same node; ping-pong
                    // over the on-chip ring.
                    anton_bench::one_way_latency_local(dims, src, payload, bidir, 8)
                } else {
                    one_way(dims, src, dst, payload, bidir)
                };
                row.push(d.as_ns_f64());
            }
        }
        println!(
            "{:>4} {:>12.0} {:>12.0} {:>14.0} {:>14.0}",
            hops, row[0], row[1], row[2], row[3]
        );
    }
    println!();
    println!("paper anchors: 1 hop (X) = 162 ns; +76 ns/hop in X; +54 ns/hop in Y/Z;");
    println!("12 hops is the 8x8x8 diameter (~5x the single-hop latency).");
    let d1 = one_way(dims, src, Coord::new(1, 0, 0), 0, false);
    let d12 = one_way(dims, src, Coord::new(4, 4, 4), 0, false);
    println!(
        "measured: 1 hop = {:.0} ns, 12 hops = {:.0} ns (ratio {:.2})",
        d1.as_ns_f64(),
        d12.as_ns_f64(),
        d12.as_ns_f64() / d1.as_ns_f64()
    );
}
