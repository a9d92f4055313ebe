//! Table 2: global all-reduce times for Anton configurations from 64 to
//! 1024 nodes (0-byte barrier and 32-byte reduction), plus the §IV.B.4
//! comparisons: the InfiniBand cluster measurement and BlueGene/L's tree
//! network, and the dimension-ordered vs. butterfly ablation.

use anton_baseline::{BGL_TREE_ALLREDUCE_512_US, MEASURED_IB_ALLREDUCE_512_US, PAPER_TABLE2};
use anton_bench::report::{rel, section};
use anton_collectives::{all_reduce, random_inputs, Algorithm, AllReduceOutcome};
use anton_net::{FaultPlan, RunConfig};
use anton_topo::TorusDims;

/// A fault-free all-reduce at the default software costs.
fn reduce(dims: TorusDims, algorithm: Algorithm, inputs: &[Vec<f64>]) -> AllReduceOutcome {
    let (none, run) = (FaultPlan::none(), RunConfig::default());
    all_reduce(dims, algorithm, Default::default(), inputs, none, &run)
        .expect("fault-free all-reduce completes")
        .0
}

fn main() {
    section("Table 2: Anton global all-reduce times (us)");
    println!(
        "{:>6} {:>10} {:>12} {:>10} {:>12} {:>10}",
        "nodes", "0B sim", "0B paper", "32B sim", "32B paper", "32B diff"
    );
    let mut sim_512_32 = 0.0;
    for &(nodes, (nx, ny, nz), paper0, paper32) in PAPER_TABLE2 {
        let dims = TorusDims::new(nx, ny, nz);
        let barrier = reduce(
            dims,
            Algorithm::DimensionOrdered,
            &vec![Vec::new(); dims.node_count() as usize],
        );
        let reduce = reduce(
            dims,
            Algorithm::DimensionOrdered,
            &random_inputs(dims, 4, 42),
        );
        let (b, r) = (barrier.latency.as_us_f64(), reduce.latency.as_us_f64());
        if nodes == 512 {
            sim_512_32 = r;
        }
        println!(
            "{:>6} {:>10.2} {:>12.2} {:>10.2} {:>12.2} {:>10}",
            nodes,
            b,
            paper0,
            r,
            paper32,
            rel(r, paper32)
        );
    }

    section("SIV.B.4 comparisons (32-byte all-reduce, 512 nodes)");
    println!("Anton (simulated, dimension-ordered): {sim_512_32:.2} us");
    println!("DDR2 InfiniBand cluster (measured, published): {MEASURED_IB_ALLREDUCE_512_US} us");
    println!(
        "speedup: {:.0}x (paper reports 20x)",
        MEASURED_IB_ALLREDUCE_512_US / sim_512_32
    );
    println!("BlueGene/L tree network, 16 B (published): {BGL_TREE_ALLREDUCE_512_US} us");

    section("Algorithm ablation (512 nodes, 32 B)");
    let dims = TorusDims::anton_512();
    let inputs = random_inputs(dims, 4, 42);
    let d = reduce(dims, Algorithm::DimensionOrdered, &inputs);
    let b = reduce(dims, Algorithm::Butterfly, &inputs);
    let dc = anton_collectives::dimension_ordered_cost(dims);
    let bc = anton_collectives::butterfly_cost(dims);
    println!(
        "dimension-ordered: {:.2} us ({} rounds, {} critical hops — paper: 3N/2 = 12)",
        d.latency.as_us_f64(),
        dc.rounds,
        dc.critical_hops
    );
    println!(
        "radix-2 butterfly: {:.2} us ({} rounds, {} critical hops — paper: 3(N-1) = 21)",
        b.latency.as_us_f64(),
        bc.rounds,
        bc.critical_hops
    );
    let ring = reduce(dims, Algorithm::Ring, &inputs);
    println!(
        "unidirectional ring: {:.2} us (2(P-1) = 1022 serialized hops — latency-bound)",
        ring.latency.as_us_f64()
    );
    assert!(d.latency < b.latency);
    assert!(b.latency < ring.latency);
    // The two algorithms sum in different orders; results agree to
    // floating-point round-off.
    for (x, y) in d.results[0].iter().zip(&b.results[0]) {
        assert!((x - y).abs() < 1e-9 * x.abs().max(1.0));
    }
}
