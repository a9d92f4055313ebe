//! Criterion bench over the Figure 5 microbenchmark: simulated one-way
//! counted-remote-write latency at increasing hop counts. The *measured
//! quantity* here is host time to run the simulation; the *simulated*
//! latencies are asserted against the paper's anchors so a regression in
//! either the model or its performance is caught.

use anton_bench::ping_pong;
use anton_des::SimDuration;
use anton_net::{FaultPlan, RunConfig};
use anton_topo::{Coord, TorusDims};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Fault-free 0-byte one-way latency over 4 round trips.
fn one_way(dims: TorusDims, src: Coord, dst: Coord) -> SimDuration {
    let (none, run) = (FaultPlan::none(), RunConfig::default());
    ping_pong(dims, src, dst, 0, false, 4, none, &run)
        .expect("fault-free ping-pong completes")
        .0
}

fn bench(c: &mut Criterion) {
    let dims = TorusDims::anton_512();
    let src = Coord::new(0, 0, 0);
    let mut group = c.benchmark_group("fig5_latency_vs_hops");
    group.sample_size(20);
    for (hops, dst, expect_ns) in [
        (1u32, Coord::new(1, 0, 0), 162),
        (4, Coord::new(4, 0, 0), 390),
        (12, Coord::new(4, 4, 4), 822),
    ] {
        // Correctness gate before timing.
        assert_eq!(one_way(dims, src, dst), SimDuration::from_ns(expect_ns));
        group.bench_with_input(BenchmarkId::from_parameter(hops), &dst, |b, &dst| {
            b.iter(|| one_way(dims, src, std::hint::black_box(dst)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
