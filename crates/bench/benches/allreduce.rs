//! Criterion bench over the Table 2 collective: dimension-ordered and
//! butterfly all-reduce across machine sizes, with the simulated
//! latencies gated against the paper's bands.

use anton_collectives::{all_reduce, random_inputs, Algorithm, AllReduceOutcome};
use anton_net::{FaultPlan, RunConfig};
use anton_topo::TorusDims;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// A fault-free all-reduce at the default software costs.
fn reduce(dims: TorusDims, algorithm: Algorithm, inputs: &[Vec<f64>]) -> AllReduceOutcome {
    let (none, run) = (FaultPlan::none(), RunConfig::default());
    all_reduce(dims, algorithm, Default::default(), inputs, none, &run)
        .expect("fault-free all-reduce completes")
        .0
}

fn bench(c: &mut Criterion) {
    // Correctness gates: the 512-node 32-byte reduction lands near the
    // paper's 1.77 µs, and dimension-ordered beats butterfly.
    let dims = TorusDims::anton_512();
    let inputs = random_inputs(dims, 4, 42);
    let d = reduce(dims, Algorithm::DimensionOrdered, &inputs);
    let b = reduce(dims, Algorithm::Butterfly, &inputs);
    let us = d.latency.as_us_f64();
    assert!((1.2..2.3).contains(&us), "{us}");
    assert!(d.latency < b.latency);

    let mut group = c.benchmark_group("table2_allreduce");
    group.sample_size(10);
    for dims in [TorusDims::new(4, 4, 4), TorusDims::new(8, 8, 8)] {
        let inputs = random_inputs(dims, 4, 7);
        group.bench_with_input(
            BenchmarkId::new("dimension_ordered", dims.node_count()),
            &inputs,
            |bch, inputs| {
                bch.iter(|| reduce(dims, Algorithm::DimensionOrdered, inputs));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("butterfly", dims.node_count()),
            &inputs,
            |bch, inputs| {
                bch.iter(|| reduce(dims, Algorithm::Butterfly, inputs));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
