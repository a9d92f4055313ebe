//! Domain example: explore the communication fabric directly — latency
//! vs. distance and payload, collective operations across machine sizes,
//! and the fine-grained-message behavior that distinguishes Anton from
//! commodity interconnects.
//!
//! ```sh
//! cargo run --release --example latency_explorer
//! ```

use anton_baseline::IbModel;
use anton_bench::{ping_pong, split_transfer_time};
use anton_collectives::{all_reduce, random_inputs, Algorithm};
use anton_net::{FaultPlan, RunConfig};
use anton_topo::{Coord, TorusDims};

fn main() {
    let dims = TorusDims::anton_512();

    println!("latency vs distance (0-byte counted remote writes, 8x8x8):");
    for (label, dst) in [
        ("1 hop  (X)", Coord::new(1, 0, 0)),
        ("4 hops (X)", Coord::new(4, 0, 0)),
        ("8 hops (X+Y)", Coord::new(4, 4, 0)),
        ("12 hops (diameter)", Coord::new(4, 4, 4)),
    ] {
        let d = ping_pong(
            dims,
            Coord::new(0, 0, 0),
            dst,
            0,
            false,
            4,
            FaultPlan::none(),
            &RunConfig::default(),
        )
        .expect("fault-free ping-pong completes")
        .0;
        println!("  {label:>20}: {d}");
    }

    println!("\nfine-grained messaging (2 KB, 1 hop) — Anton vs InfiniBand model:");
    let ib = IbModel::default();
    for k in [1u32, 8, 64] {
        let anton = split_transfer_time(dims, 1, 2048, k);
        println!(
            "  {k:>3} messages: Anton {:>8.3} us   InfiniBand {:>6.2} us",
            anton.as_us_f64(),
            ib.split_transfer_us(2048, k)
        );
    }

    println!("\nglobal 32-byte all-reduce across machine sizes:");
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
            &random_inputs(dims, 4, 1),
            FaultPlan::none(),
            &RunConfig::default(),
        )
        .expect("fault-free all-reduce completes")
        .0;
        println!(
            "  {:>4} nodes ({}x{}x{}): {:.2} us, {} packets",
            dims.node_count(),
            dims.nx,
            dims.ny,
            dims.nz,
            out.latency.as_us_f64(),
            out.packets_sent
        );
    }
    println!("\n(the cluster measurement the paper quotes for 512 nodes: 35.5 us)");
}
