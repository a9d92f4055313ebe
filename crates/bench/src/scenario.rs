//! Execute a [`ScenarioSpec`] on the engine and reduce the run to its
//! provenance pair: a thread-invariant engine fingerprint plus an
//! [`ObservatoryReport`] of everything observed.
//!
//! This is the glue between `anton-scenario` (which owns the spec
//! model and ledger formats but none of the workload wiring) and the
//! simulation crates. The `scenario` CLI and the ported bench binaries
//! both run workloads through here, so a spec hash always denotes the
//! same execution.
//!
//! Fingerprint recipes are chosen to be **thread-invariant**: they
//! cover only observables every shard plan agrees on bit-for-bit
//! (simulated times, per-node checksums and traffic counts), never
//! bookkeeping like total DES event counts, which differ by one `Start`
//! event per slab. `scenario run` exploits this by
//! executing every spec at 1 and 4 threads and refusing to write a
//! ledger record unless the fingerprints match.

use anton_collectives::{all_reduce, all_reduce_recovering, random_inputs, RecoveringParams};
use anton_core::{md_exchange, MdExchangeOutcome};
use anton_des::SimTime;
use anton_net::{ObsMode, RunConfig, Slabs, StallReport};
use anton_obs::runtime::RuntimeSummary;
use anton_obs::{
    fold_lifecycles, BreakdownSummary, Fingerprint, ObservatoryReport, Section, Stage, SEC_RECOVERY,
};
use anton_scenario::{ScenarioSpec, Workload};
use std::collections::BTreeMap;

use crate::microbench::ping_pong;

/// The provenance-relevant result of executing one spec.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Thread-invariant engine fingerprint, 16-hex.
    pub fingerprint: String,
    /// Everything observed during the run.
    pub observatory: ObservatoryReport,
}

/// The engine configuration `spec` runs under at `threads` workers.
/// Every workload runs on the auto plan, at every thread count, except
/// the ping-pong microbenchmark: it runs on one slab and is
/// flight-recorded for its stage breakdown. MD runs are profiled for
/// the runtime section, and a Stream MD spec streams in that same run
/// (`tests/run_matrix.rs` checks that the observer moves nothing).
fn run_config(spec: &ScenarioSpec, threads: usize) -> RunConfig {
    let sharded = RunConfig {
        slabs: Slabs::Auto,
        threads,
        timing: spec.timing_table(),
        lookahead: spec.lookahead,
        obs: ObsMode::Off,
        profile: false,
    };
    match spec.workload {
        Workload::MdExchange { .. } => RunConfig {
            obs: if spec.obs == ObsMode::Stream {
                ObsMode::Stream
            } else {
                ObsMode::Off
            },
            profile: true,
            ..sharded
        },
        Workload::PingPong { .. } => RunConfig {
            slabs: Slabs::ONE,
            obs: ObsMode::Flight,
            ..sharded
        },
        Workload::AllReduce { .. } | Workload::Recovering { .. } => sharded,
    }
}

/// Run `spec`'s workload at the given worker-thread count and reduce
/// it to a [`ScenarioOutcome`]. The spec's own `threads` field is the
/// *default* run configuration; callers probing determinism pass
/// explicit counts. The fingerprint leaves out DES event counts, which
/// differ by shard plan (one `Start` per slab), never by thread count.
/// Panics on a spec [`ScenarioSpec::validate`] rejects, and on a run
/// that stalls.
pub fn run_scenario(spec: &ScenarioSpec, threads: usize) -> ScenarioOutcome {
    if let Err(e) = spec.validate() {
        panic!("scenario {}: {e}", spec.name);
    }
    let dims = spec.torus_dims();
    let cfg = run_config(spec, threads);
    let label = format!("scenario {} ({})", spec.name, spec.hash_hex());
    let mut obs = ObservatoryReport::new(&label);

    let fingerprint = match &spec.workload {
        Workload::MdExchange { .. } => {
            let params = spec.md_params().expect("md workload");
            let (out, observed) = completed(spec, md_exchange(dims, params, &cfg));
            let profile = observed.profile.expect("profiled");
            obs.metrics
                .set("md_makespan_us", (out.makespan - SimTime::ZERO).as_us_f64());
            RuntimeSummary::from_profile(&profile).record_into(&mut obs.metrics, "md");
            let mut runtime = BTreeMap::new();
            runtime.insert("windows".to_owned(), profile.windows as f64);
            runtime.insert(
                "recovered_events".to_owned(),
                profile.recovered_events as f64,
            );
            runtime.insert(
                "extended_shard_windows".to_owned(),
                profile.extended_shard_windows as f64,
            );
            obs.set_section("runtime", Section::values(runtime));

            if let Some((summary, _)) = observed.stream {
                let mut stream = BTreeMap::new();
                stream.insert("complete_folds".to_owned(), summary.fold.complete as f64);
                stream.insert("retransmits".to_owned(), summary.retransmits as f64);
                stream.insert(
                    "e2e_p99_ns".to_owned(),
                    summary.e2e_sketch.quantile_ns(0.99),
                );
                obs.set_section("stream", Section::values(stream));
            }
            md_fingerprint(&out)
        }
        Workload::AllReduce {
            algorithm,
            vlen,
            seed,
            reps,
        } => {
            let inputs = random_inputs(dims, *vlen as usize, *seed);
            let mut out = None;
            for _ in 0..(*reps).max(1) {
                let (rep, _) = completed(
                    spec,
                    all_reduce(
                        dims,
                        algorithm.algorithm(),
                        Default::default(),
                        &inputs,
                        spec.fault_plan(),
                        &cfg,
                    ),
                );
                out = Some(rep);
            }
            let out = out.expect("at least one rep");
            obs.metrics
                .set("allreduce_latency_us", out.latency.as_us_f64());
            obs.metrics
                .set("allreduce_packets", out.packets_sent as f64);
            obs.metrics
                .set("allreduce_link_traversals", out.link_traversals as f64);
            let mut fp = Fingerprint::new();
            fp.update(&out.latency);
            fp.update(&out.results);
            fp.update(&out.packets_sent);
            fp.update(&out.link_traversals);
            fp.hex()
        }
        Workload::Recovering { vlen, seed, .. } => {
            let inputs = random_inputs(dims, *vlen as usize, *seed);
            let (out, _) = completed(
                spec,
                all_reduce_recovering(
                    dims,
                    &inputs,
                    spec.fault_plan(),
                    &spec.deaths(),
                    spec.recovery_config(),
                    RecoveringParams::default(),
                    &cfg,
                ),
            );
            obs.metrics
                .set("recovering_latency_us", out.latency.as_us_f64());
            let mut values = BTreeMap::new();
            values.insert("latency_us".to_owned(), out.latency.as_us_f64());
            values.insert("verdicts".to_owned(), out.verdicts as f64);
            values.insert("reinjections".to_owned(), out.recovery.reinjections as f64);
            values.insert(
                "duplicates_suppressed".to_owned(),
                out.recovery.duplicates_suppressed as f64,
            );
            values.insert(
                "packets_lost_unrecovered".to_owned(),
                out.recovery.packets_lost_unrecovered as f64,
            );
            obs.set_section(SEC_RECOVERY, Section::values(values));
            format!("{:016x}", out.fingerprint())
        }
        Workload::PingPong {
            from,
            to,
            payload_bytes,
            bidirectional,
            reps,
        } => {
            // The microbenchmark runs on one slab at every thread
            // count, so its fingerprint is trivially thread-invariant.
            let (latency, observed) = completed(
                spec,
                ping_pong(
                    dims,
                    anton_topo::Coord::new(from.0, from.1, from.2),
                    anton_topo::Coord::new(to.0, to.1, to.2),
                    *payload_bytes,
                    *bidirectional,
                    *reps,
                    spec.fault_plan(),
                    &cfg,
                ),
            );
            let flight = observed.flight.expect("flight recorded");
            let (lifecycles, _) = fold_lifecycles(flight.iter());
            let summary = BreakdownSummary::from_lifecycles(&lifecycles);
            obs.metrics.set("one_way_ns", latency.as_ns_f64());
            let mut breakdown = BTreeMap::new();
            for stage in Stage::ALL {
                breakdown.insert(format!("{}_ns", stage.name()), summary.mean_ns(stage));
            }
            obs.set_section("breakdown", Section::values(breakdown));
            let mut fp = Fingerprint::new();
            fp.update(&latency);
            fp.update(&summary.packets);
            for stage in Stage::ALL {
                fp.update(&summary.mean_ns(stage).to_bits());
            }
            fp.hex()
        }
    };

    ScenarioOutcome {
        fingerprint,
        observatory: obs,
    }
}

/// A run's result, or a panic naming the scenario and its stall.
fn completed<T>(spec: &ScenarioSpec, run: Result<T, Box<StallReport>>) -> T {
    run.unwrap_or_else(|stall| panic!("scenario {} stalled:\n{stall}", spec.name))
}

/// The thread-invariant MD-exchange fingerprint: simulated times,
/// checksums, and traffic counts shared bit-exactly by every shard plan
/// (total event counts excluded — each slab seeds one `Start`, so event
/// counts differ by plan, a bookkeeping difference).
pub fn md_fingerprint(md: &MdExchangeOutcome) -> String {
    let mut fp = Fingerprint::new();
    fp.update(&md.makespan);
    fp.update(&md.checksums);
    fp.update(&md.stats.packets_sent);
    fp.update(&md.stats.packets_delivered);
    fp.update(&md.stats.link_traversals);
    fp.update(&md.stats.sent_by_node);
    fp.update(&md.stats.delivered_by_node);
    fp.hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_scenario::presets;

    /// The `[fault]` section reaches the all-reduce: a lossy fabric
    /// changes the fingerprint (retransmits cost link traversals), and
    /// the faulted run is still thread-invariant.
    #[test]
    fn a_faulted_all_reduce_fingerprints_differently_at_every_thread_count() {
        let clean = presets::allreduce_888();
        let mut faulted = clean.clone();
        faulted.fault.drop_rate = 0.01;
        let want = run_scenario(&faulted, 1).fingerprint;
        assert_ne!(want, run_scenario(&clean, 1).fingerprint);
        assert_eq!(run_scenario(&faulted, 4).fingerprint, want);
    }

    /// A spec built in code is validated like a parsed one.
    #[test]
    #[should_panic(expected = "md_exchange")]
    fn a_faulted_md_exchange_spec_is_refused() {
        let mut spec = presets::md_balanced();
        spec.fault.drop_rate = 0.01;
        run_scenario(&spec, 1);
    }
}
