//! Determinism gate in the root package: the committed MD specs must
//! reproduce their `LEDGER.json` fingerprints at 1 and 4 threads, and a
//! chaos cell must give the sequential engine's fingerprint at 1 and 2
//! threads. `cargo test -q` therefore catches a determinism break
//! without the full CI script.

use anton_bench::scenario::run_scenario;
use anton_collectives::{random_inputs, run_all_reduce_recovering_timed, RecoveringParams};
use anton_scenario::{presets, LedgerIndex, ScenarioSpec, Workload};

const LEDGER: &str = include_str!("../LEDGER.json");

/// Run `spec` at each thread count and check its content hash and
/// fingerprint against the committed ledger entry of the same name.
fn replay(spec: ScenarioSpec, threads: &[usize]) {
    let ledger = LedgerIndex::parse(LEDGER).expect("LEDGER.json parses");
    let entry = ledger
        .entries
        .iter()
        .find(|e| e.name == spec.name)
        .unwrap_or_else(|| panic!("{} is not in LEDGER.json", spec.name));
    assert_eq!(spec.hash_hex(), entry.hash, "{}: content hash", spec.name);
    for &t in threads {
        let out = run_scenario(&spec, t);
        assert_eq!(
            out.fingerprint, entry.fingerprint,
            "{} at {t} threads",
            spec.name
        );
    }
}

#[test]
fn md_balanced_matches_the_ledger() {
    replay(presets::md_balanced(), &[1, 4]);
}

#[test]
fn md_skewed_matches_the_ledger() {
    replay(presets::md_skewed(), &[1, 4]);
}

#[test]
fn chaos_cell_matches_the_sequential_engine() {
    let spec = presets::chaos_cell(1, 3);
    let Workload::Recovering { vlen, seed, .. } = spec.workload else {
        panic!("chaos cell is a recovering all-reduce");
    };
    let dims = spec.torus_dims();
    let sequential = run_all_reduce_recovering_timed(
        dims,
        &random_inputs(dims, vlen as usize, seed),
        spec.fault_plan(),
        &spec.deaths(),
        spec.recovery_config(),
        RecoveringParams::default(),
        spec.timing_table(),
    );
    assert!(sequential.completed, "sequential reference completes");
    let want = format!("{:016x}", sequential.fingerprint());
    for threads in [1, 2] {
        let out = run_scenario(&spec, threads);
        assert_eq!(out.fingerprint, want, "chaos cell at {threads} threads");
    }
}
