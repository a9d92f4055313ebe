//! The sharded-parallel all-reduce must reproduce the sequential one
//! exactly: same latency, same bitwise results, same traffic counts, at
//! every thread count and for every algorithm. (The 4×4×4
//! dimension-ordered case runs in the root `tests/run_matrix.rs`, across
//! every executor and observer.)

use anton_collectives::{all_reduce, random_inputs, Algorithm, AllReduceOutcome};
use anton_net::{FaultPlan, RunConfig};
use anton_topo::TorusDims;

fn run(
    dims: TorusDims,
    algorithm: Algorithm,
    inputs: &[Vec<f64>],
    cfg: RunConfig,
) -> AllReduceOutcome {
    all_reduce(
        dims,
        algorithm,
        Default::default(),
        inputs,
        FaultPlan::none(),
        &cfg,
    )
    .expect("fault-free all-reduce completes")
    .0
}

fn check(dims: TorusDims, algorithm: Algorithm, values: usize, seed: u64) {
    let inputs = random_inputs(dims, values, seed);
    let seq = run(dims, algorithm, &inputs, RunConfig::default());
    for threads in [1, 2, 4, 8] {
        let par = run(dims, algorithm, &inputs, RunConfig::sharded(threads));
        assert_eq!(
            par.latency, seq.latency,
            "{algorithm:?} @ {threads} threads"
        );
        assert_eq!(
            par.results, seq.results,
            "{algorithm:?} @ {threads} threads"
        );
        assert_eq!(par.packets_sent, seq.packets_sent);
        assert_eq!(par.link_traversals, seq.link_traversals);
    }
}

#[test]
fn butterfly_is_thread_count_invariant() {
    check(TorusDims::new(4, 4, 4), Algorithm::Butterfly, 4, 12);
}

#[test]
fn ring_is_thread_count_invariant() {
    // The ring serializes everything through shard boundaries — the
    // worst case for a conservative engine, still exact.
    check(TorusDims::new(2, 2, 2), Algorithm::Ring, 3, 13);
}

#[test]
fn barrier_is_thread_count_invariant() {
    let dims = TorusDims::new(4, 4, 4);
    let inputs = vec![Vec::new(); 64];
    let seq = run(
        dims,
        Algorithm::DimensionOrdered,
        &inputs,
        RunConfig::default(),
    );
    for threads in [2, 8] {
        let par = run(
            dims,
            Algorithm::DimensionOrdered,
            &inputs,
            RunConfig::sharded(threads),
        );
        assert_eq!(par.latency, seq.latency);
        assert!(par.results.iter().all(|r| r.is_empty()));
    }
}

#[test]
fn eight_cubed_matches_at_speedup_scale() {
    // The bench workload's machine: 8×8×8, 32-byte payloads.
    check(TorusDims::new(8, 8, 8), Algorithm::DimensionOrdered, 4, 21);
}
