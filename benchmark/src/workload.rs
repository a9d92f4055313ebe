//! The benchmark's workloads: which specs run, at how many threads, what
//! each run must reproduce, and how one run and one setup are timed.
//!
//! Every timed run is one call of `anton_bench::scenario::run_scenario`,
//! the entry point the `scenario` CLI and the ledger use, so refactors of
//! the runners underneath it need no edit here.

use crate::calibrate::Calibration;
use anton_bench::scenario::{md_fingerprint, run_scenario};
use anton_collectives::{random_inputs, run_all_reduce_recovering_timed, RecoveringParams};
use anton_core::run_md_exchange_timed;
use anton_net::{Ctx, Fabric, FaultPlan, NodeProgram, ParSimulation, ProgEvent};
use anton_scenario::presets::{self, CHAOS_LEVEL_COUNT};
use anton_scenario::{LedgerIndex, ScenarioSpec, Workload as SpecWorkload};
use anton_topo::NodeId;
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

/// Workload names, in the order a full invocation runs them.
pub const NAMES: [&str; 4] = ["md_balanced", "md_skewed_t2", "scale_md_12", "chaos_sweep"];

/// Cells per chaos level in one `chaos_sweep` round.
const CHAOS_SEEDS: u64 = 3;

/// The committed ledger: the MD workloads must reproduce its fingerprints.
const LEDGER: &str = include_str!("../../LEDGER.json");

pub struct Workload {
    pub name: &'static str,
    /// Worker threads passed to every `run_scenario` call.
    pub threads: usize,
    /// The specs of one round; a round runs each once, in order.
    pub specs: Vec<ScenarioSpec>,
    /// Constructions whose median is `setup_s`.
    pub setup_samples: usize,
}

/// One timed `run_scenario` call.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Index of the spec in [`Workload::specs`].
    pub spec: usize,
    pub wall_s: f64,
    /// Simulated time the run covered, ns (0 if it failed).
    pub sim_ns: f64,
    /// DES events the run executed (MD specs only, else 0).
    pub events: f64,
    /// Completed without panicking and reproduced the reference.
    pub ok: bool,
}

impl Workload {
    /// The workload `name`; `seed` draws the chaos cells' all-reduce inputs
    /// and is ignored by the seedless MD workloads, which are pure
    /// functions of their spec.
    pub fn new(name: &str, seed: u64) -> Result<Workload, String> {
        // Setup samples span about 2 s of host time each, so a short
        // burst of host load cannot own the median.
        let (name, threads, specs, setup_samples) = match name {
            "md_balanced" => (NAMES[0], 1, vec![presets::md_balanced()], 100),
            "md_skewed_t2" => (NAMES[1], 2, vec![presets::md_skewed()], 100),
            "scale_md_12" => (NAMES[2], 1, vec![presets::scale_md(12)], 40),
            "chaos_sweep" => {
                let cells = (0..CHAOS_LEVEL_COUNT)
                    .flat_map(|level| (0..CHAOS_SEEDS).map(move |k| chaos_cell(k, level, seed)))
                    .collect();
                (NAMES[3], 1, cells, 2_000)
            }
            other => return Err(format!("unknown workload {other:?}; known: {NAMES:?}")),
        };
        Ok(Workload {
            name,
            threads,
            specs,
            setup_samples,
        })
    }

    pub fn is_md(&self) -> bool {
        self.specs.iter().all(|s| s.md_params().is_some())
    }

    /// `samples` timed constructions of the sharded machine the runner
    /// builds, cycling through the specs; seconds each. The simulation is
    /// dropped, and `cal` ticked, outside the timed region.
    pub fn setup_times(&self, samples: usize, cal: &mut Calibration) -> Vec<f64> {
        (0..samples)
            .map(|i| {
                let spec = &self.specs[i % self.specs.len()];
                let build = build_fabric(spec);
                let start = Instant::now();
                let sim = ParSimulation::new(self.threads, build, |_| Noop);
                let s = start.elapsed().as_secs_f64();
                drop(black_box(sim));
                cal.tick();
                s
            })
            .collect()
    }

    /// The fingerprint each spec must reproduce, computed without timing.
    pub fn references(&self) -> Result<Vec<String>, String> {
        self.specs.iter().map(reference).collect()
    }

    /// One timed `run_scenario` call of spec `i`, checked against `reference`.
    pub fn run(&self, i: usize, reference: &str) -> Run {
        let spec = &self.specs[i];
        let start = Instant::now();
        let out = panic::catch_unwind(AssertUnwindSafe(|| run_scenario(spec, self.threads)));
        let wall_s = start.elapsed().as_secs_f64();
        let mut run = Run {
            spec: i,
            wall_s,
            sim_ns: 0.0,
            events: 0.0,
            ok: false,
        };
        if let Ok(out) = out {
            let m = &out.observatory.metrics;
            let sim_us = m
                .get("md_makespan_us")
                .or_else(|| m.get("recovering_latency_us"));
            if let (true, Some(us)) = (out.fingerprint == reference, sim_us) {
                run.sim_ns = us * 1e3;
                run.events = m.get("md_events").unwrap_or(0.0);
                run.ok = true;
            }
        }
        run
    }

    /// One round: every spec once, in order.
    pub fn round(&self, refs: &[String]) -> Vec<Run> {
        (0..self.specs.len())
            .map(|i| self.run(i, &refs[i]))
            .collect()
    }
}

/// Cell `k` of a chaos level: the committed campaign cell
/// `chaos_cell(k + 1, level)` (its drops, deaths and recovery keyed to
/// seed `k + 1`), with its all-reduce inputs drawn from `seed + k`. Seed 1
/// gives the campaign's cells exactly. Faults and deaths stay fixed
/// because they decide which cells take the recovery slow path (about 4×
/// the host time); drawing them from the seed would make the sweep's
/// quantiles measure the seed instead of the simulator.
fn chaos_cell(k: u64, level: u32, seed: u64) -> ScenarioSpec {
    let mut spec = presets::chaos_cell(k + 1, level);
    if let SpecWorkload::Recovering { seed: inputs, .. } = &mut spec.workload {
        *inputs = seed + k;
    }
    spec
}

/// A program that ignores every event: setup timing builds the machine
/// without any workload state.
struct Noop;

impl NodeProgram for Noop {
    fn on_event(&mut self, _: NodeId, _: ProgEvent, _: &mut Ctx<'_, '_>) {}
}

/// The per-shard fabric constructor of `spec`: its timing, its fault plan
/// with the death schedule folded in, and its recovery policy.
pub fn build_fabric(spec: &ScenarioSpec) -> impl FnMut() -> Fabric {
    let dims = spec.torus_dims();
    let timing = spec.timing_table();
    let recovery = spec.recovery_config();
    let plan: FaultPlan = spec
        .deaths()
        .into_iter()
        .fold(spec.fault_plan(), |plan, (node, at)| {
            plan.fail_node_at(node.coord(dims), at)
        });
    move || Fabric::with_recovery(dims, timing.clone(), plan.clone(), recovery)
}

/// The fingerprint `spec` must reproduce: the ledger's, if the spec is
/// committed there (its content hash must match too), else the sequential
/// engine's.
fn reference(spec: &ScenarioSpec) -> Result<String, String> {
    let ledger = LedgerIndex::parse(LEDGER)?;
    if let Some(entry) = ledger.entries.iter().find(|e| e.name == spec.name) {
        if entry.hash != spec.hash_hex() {
            return Err(format!(
                "{}: preset hash {} differs from the ledger's {}",
                spec.name,
                spec.hash_hex(),
                entry.hash
            ));
        }
        return Ok(entry.fingerprint.clone());
    }
    let dims = spec.torus_dims();
    let timing = spec.timing_table();
    match &spec.workload {
        SpecWorkload::MdExchange { .. } => {
            let params = spec.md_params().expect("MD workload has MD params");
            Ok(md_fingerprint(&run_md_exchange_timed(dims, params, timing)))
        }
        SpecWorkload::Recovering { vlen, seed, .. } => {
            let out = run_all_reduce_recovering_timed(
                dims,
                &random_inputs(dims, *vlen as usize, *seed),
                spec.fault_plan(),
                &spec.deaths(),
                spec.recovery_config(),
                RecoveringParams::default(),
                timing,
            );
            Ok(format!("{:016x}", out.fingerprint()))
        }
        other => Err(format!("{}: no reference for {}", spec.name, other.kind())),
    }
}
