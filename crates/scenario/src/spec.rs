//! The [`ScenarioSpec`] model: a complete, declarative description of
//! one simulation run — topology, timing profile, workload, fault and
//! recovery policy, chaos knobs, and engine configuration — with a
//! canonical byte encoding and a stable content hash.
//!
//! The hash is the provenance primitive everything else builds on: two
//! specs hash equal iff they describe the same experiment, independent
//! of key order, table order, comments, or integer-vs-float spelling in
//! the source file. That holds because hashing never touches the source
//! text: the file is parsed into the typed struct, the struct is
//! rendered to sorted `key=value` lines ([`ScenarioSpec::canonical_bytes`]),
//! and the FNV-1a hash of those bytes is the identity.

use std::collections::BTreeMap;

use anton_core::MdExchangeParams;
use anton_des::{LookaheadMode, SimTime};
use anton_net::{FaultPlan, ObsMode, RecoveryConfig, Timing};
use anton_obs::fnv1a64;
use anton_topo::{Coord, NodeId, TorusDims};

use crate::toml::{self, Value};

/// Which calibrated machine generation the fabric models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingProfile {
    /// The paper's machine: 162 ns one-hop, 822 ns diameter
    /// ([`Timing::anton1`]).
    #[default]
    Anton1,
    /// The successor-generation profile ([`Timing::anton3`]).
    Anton3,
}

impl TimingProfile {
    /// Canonical lowercase name (`"anton1"` / `"anton3"`).
    pub fn name(self) -> &'static str {
        match self {
            TimingProfile::Anton1 => "anton1",
            TimingProfile::Anton3 => "anton3",
        }
    }

    /// Parse a profile name; `None` for anything unknown.
    pub fn parse_str(s: &str) -> Option<TimingProfile> {
        match s {
            "anton1" => Some(TimingProfile::Anton1),
            "anton3" => Some(TimingProfile::Anton3),
            _ => None,
        }
    }

    /// The calibrated [`Timing`] table for this profile.
    pub fn timing(self) -> Timing {
        match self {
            TimingProfile::Anton1 => Timing::anton1(),
            TimingProfile::Anton3 => Timing::anton3(),
        }
    }
}

/// Collective algorithm selector, mirrored from
/// [`anton_collectives::Algorithm`] so spec files can name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlgorithmSpec {
    /// Anton's dimension-ordered multicast counted-write reduction.
    #[default]
    DimensionOrdered,
    /// Radix-2 butterfly.
    Butterfly,
    /// Unidirectional ring.
    Ring,
}

impl AlgorithmSpec {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmSpec::DimensionOrdered => "dimension_ordered",
            AlgorithmSpec::Butterfly => "butterfly",
            AlgorithmSpec::Ring => "ring",
        }
    }

    /// Parse an algorithm name; `None` for anything unknown.
    pub fn parse_str(s: &str) -> Option<AlgorithmSpec> {
        match s {
            "dimension_ordered" => Some(AlgorithmSpec::DimensionOrdered),
            "butterfly" => Some(AlgorithmSpec::Butterfly),
            "ring" => Some(AlgorithmSpec::Ring),
            _ => None,
        }
    }

    /// The engine-side algorithm value.
    pub fn algorithm(self) -> anton_collectives::Algorithm {
        match self {
            AlgorithmSpec::DimensionOrdered => anton_collectives::Algorithm::DimensionOrdered,
            AlgorithmSpec::Butterfly => anton_collectives::Algorithm::Butterfly,
            AlgorithmSpec::Ring => anton_collectives::Algorithm::Ring,
        }
    }
}

/// What the simulated machine runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// The MD neighbor-exchange skeleton (`anton_core::parstep`).
    MdExchange {
        /// Simulated time steps.
        steps: u32,
        /// f64 values per neighbor message.
        values_per_msg: u32,
        /// Per-step force-computation time, ns.
        compute_ns: f64,
        /// Extra compute per unit Z coordinate, ns (spatial imbalance).
        compute_skew_ns: f64,
    },
    /// A packet-level all-reduce ([`anton_collectives::allreduce`]).
    AllReduce {
        /// Algorithm to run.
        algorithm: AlgorithmSpec,
        /// f64 values reduced per node.
        vlen: u32,
        /// Seed for the deterministic per-node inputs.
        seed: u64,
        /// Back-to-back repetitions (fingerprint covers all of them).
        reps: u32,
    },
    /// The self-healing all-reduce under injected faults
    /// ([`anton_collectives::recovering`]).
    Recovering {
        /// f64 values reduced per node.
        vlen: u32,
        /// Seed for the deterministic per-node inputs.
        seed: u64,
        /// Hard node deaths as `[node_index, time_ns]` pairs.
        deaths: Vec<(u32, u64)>,
    },
    /// The Table-2 one-way latency microbenchmark.
    PingPong {
        /// Source coordinate.
        from: (u32, u32, u32),
        /// Destination coordinate.
        to: (u32, u32, u32),
        /// Payload size in bytes.
        payload_bytes: u32,
        /// Measure both directions.
        bidirectional: bool,
        /// Repetitions averaged into the reported latency.
        reps: u32,
    },
}

impl Workload {
    /// Canonical workload kind name.
    pub fn kind(&self) -> &'static str {
        match self {
            Workload::MdExchange { .. } => "md_exchange",
            Workload::AllReduce { .. } => "all_reduce",
            Workload::Recovering { .. } => "recovering",
            Workload::PingPong { .. } => "ping_pong",
        }
    }
}

/// Fault-injection policy (spec-side mirror of [`FaultPlan`]'s
/// rate-based knobs; node deaths live on the workload that schedules
/// them).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed for the fault plan's deterministic draws.
    pub seed: u64,
    /// Per-traversal transient drop probability.
    pub drop_rate: f64,
    /// Per-traversal payload-corruption probability.
    pub corrupt_rate: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 1,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
        }
    }
}

/// Recovery policy (spec-side mirror of [`RecoveryConfig`]'s
/// constructors).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverySpec {
    /// Whether the self-healing subsystem is on.
    pub enabled: bool,
    /// Seed for backoff jitter and ack-ambiguity draws.
    pub seed: u64,
}

impl Default for RecoverySpec {
    fn default() -> Self {
        RecoverySpec {
            enabled: false,
            seed: 1,
        }
    }
}

/// Chaos-harness knobs (spec-side mirror of `ANTON_CHAOS_SEED` /
/// `ANTON_CHAOS_LEVEL`).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Campaign seed.
    pub seed: u64,
    /// Intensity level, 0 (off) through 3.
    pub level: u32,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec { seed: 1, level: 0 }
    }
}

/// A complete, declarative description of one simulation run.
///
/// Everything that affects simulated results or engine behavior is a
/// field here and participates in [`ScenarioSpec::content_hash`];
/// nothing else does.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable scenario name (hash-affecting: two experiments
    /// with different names are different ledger entries).
    pub name: String,
    /// Torus dimensions.
    pub dims: (u32, u32, u32),
    /// Machine-generation timing profile.
    pub timing: TimingProfile,
    /// Worker-thread budget for the engine (1 runs every slab on the
    /// calling thread).
    pub threads: u32,
    /// Conservative-window lookahead mode.
    pub lookahead: LookaheadMode,
    /// Observability recorder mode.
    pub obs: ObsMode,
    /// Chaos-harness knobs.
    pub chaos: ChaosSpec,
    /// Fault-injection policy.
    pub fault: FaultSpec,
    /// Recovery policy.
    pub recovery: RecoverySpec,
    /// What the machine runs.
    pub workload: Workload,
}

impl ScenarioSpec {
    // ---- typed accessors (spec → engine values) -------------------------

    /// Torus dimensions as the engine type.
    pub fn torus_dims(&self) -> TorusDims {
        TorusDims::new(self.dims.0, self.dims.1, self.dims.2)
    }

    /// The calibrated timing table for the spec's profile.
    pub fn timing_table(&self) -> Timing {
        self.timing.timing()
    }

    /// The fault plan implied by [`ScenarioSpec::fault`] (rates only;
    /// deaths are scheduled by [`ScenarioSpec::deaths`]).
    pub fn fault_plan(&self) -> FaultPlan {
        if self.fault.drop_rate == 0.0 && self.fault.corrupt_rate == 0.0 {
            FaultPlan::none()
        } else {
            FaultPlan::seeded(self.fault.seed)
                .with_drop_rate(self.fault.drop_rate)
                .with_corrupt_rate(self.fault.corrupt_rate)
        }
    }

    /// The recovery configuration implied by [`ScenarioSpec::recovery`].
    pub fn recovery_config(&self) -> RecoveryConfig {
        if self.recovery.enabled {
            RecoveryConfig::recovering(self.recovery.seed)
        } else {
            RecoveryConfig::disabled()
        }
    }

    /// MD-exchange parameters, if the workload is one.
    pub fn md_params(&self) -> Option<MdExchangeParams> {
        match &self.workload {
            Workload::MdExchange {
                steps,
                values_per_msg,
                compute_ns,
                compute_skew_ns,
            } => Some(MdExchangeParams {
                steps: *steps,
                values_per_msg: *values_per_msg as usize,
                compute_ns: *compute_ns,
                compute_skew_ns: *compute_skew_ns,
            }),
            _ => None,
        }
    }

    /// Scheduled node deaths as engine values (empty unless the
    /// workload carries a death schedule).
    pub fn deaths(&self) -> Vec<(NodeId, SimTime)> {
        match &self.workload {
            Workload::Recovering { deaths, .. } => deaths
                .iter()
                .map(|&(node, ns)| (NodeId(node), SimTime::from_ns(ns)))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Coordinates of every scheduled death on this spec's torus.
    pub fn death_coords(&self) -> Vec<(Coord, SimTime)> {
        let dims = self.torus_dims();
        self.deaths()
            .into_iter()
            .map(|(node, at)| (node.coord(dims), at))
            .collect()
    }

    // ---- canonical encoding and hashing ---------------------------------

    /// The spec as a sorted `key=value\n` byte stream — the canonical
    /// form the content hash is computed over. Keys are the same dotted
    /// keys the TOML form uses; floats render via `{:?}` so `250.0`
    /// and `2.5e2` in source text encode identically.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        for (k, v) in self.canonical_map() {
            out.push_str(&k);
            out.push('=');
            out.push_str(&v);
            out.push('\n');
        }
        out.into_bytes()
    }

    /// The 64-bit FNV-1a content hash of [`ScenarioSpec::canonical_bytes`].
    pub fn content_hash(&self) -> u64 {
        fnv1a64(&self.canonical_bytes())
    }

    /// The content hash as the fixed-width 16-char lowercase hex form
    /// used for ledger filenames and CLI arguments.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.content_hash())
    }

    fn canonical_map(&self) -> BTreeMap<String, String> {
        let mut m = BTreeMap::new();
        let mut put = |k: &str, v: String| {
            m.insert(k.to_owned(), v);
        };
        put("name", self.name.clone());
        put("topology.nx", self.dims.0.to_string());
        put("topology.ny", self.dims.1.to_string());
        put("topology.nz", self.dims.2.to_string());
        put("engine.timing", self.timing.name().to_owned());
        put("engine.threads", self.threads.to_string());
        put("engine.lookahead", self.lookahead.to_string());
        put("engine.obs", self.obs.to_string());
        put("chaos.seed", self.chaos.seed.to_string());
        put("chaos.level", self.chaos.level.to_string());
        put("fault.seed", self.fault.seed.to_string());
        put("fault.drop_rate", format!("{:?}", self.fault.drop_rate));
        put(
            "fault.corrupt_rate",
            format!("{:?}", self.fault.corrupt_rate),
        );
        put("recovery.enabled", self.recovery.enabled.to_string());
        put("recovery.seed", self.recovery.seed.to_string());
        put("workload.kind", self.workload.kind().to_owned());
        match &self.workload {
            Workload::MdExchange {
                steps,
                values_per_msg,
                compute_ns,
                compute_skew_ns,
            } => {
                put("workload.steps", steps.to_string());
                put("workload.values_per_msg", values_per_msg.to_string());
                put("workload.compute_ns", format!("{compute_ns:?}"));
                put("workload.compute_skew_ns", format!("{compute_skew_ns:?}"));
            }
            Workload::AllReduce {
                algorithm,
                vlen,
                seed,
                reps,
            } => {
                put("workload.algorithm", algorithm.name().to_owned());
                put("workload.vlen", vlen.to_string());
                put("workload.seed", seed.to_string());
                put("workload.reps", reps.to_string());
            }
            Workload::Recovering { vlen, seed, deaths } => {
                put("workload.vlen", vlen.to_string());
                put("workload.seed", seed.to_string());
                let rendered: Vec<String> = deaths
                    .iter()
                    .map(|(node, ns)| format!("[{node},{ns}]"))
                    .collect();
                put("workload.deaths", format!("[{}]", rendered.join(",")));
            }
            Workload::PingPong {
                from,
                to,
                payload_bytes,
                bidirectional,
                reps,
            } => {
                put(
                    "workload.from",
                    format!("[{},{},{}]", from.0, from.1, from.2),
                );
                put("workload.to", format!("[{},{},{}]", to.0, to.1, to.2));
                put("workload.payload_bytes", payload_bytes.to_string());
                put("workload.bidirectional", bidirectional.to_string());
                put("workload.reps", reps.to_string());
            }
        }
        m
    }

    // ---- TOML form ------------------------------------------------------

    /// Render the canonical TOML form: fixed section order, every field
    /// explicit. `parse(to_toml())` round-trips to an equal spec (and
    /// therefore an equal hash).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("name = {}\n", toml::quote(&self.name)));
        out.push_str("\n[topology]\n");
        out.push_str(&format!("nx = {}\n", self.dims.0));
        out.push_str(&format!("ny = {}\n", self.dims.1));
        out.push_str(&format!("nz = {}\n", self.dims.2));
        out.push_str("\n[engine]\n");
        out.push_str(&format!("timing = \"{}\"\n", self.timing.name()));
        out.push_str(&format!("threads = {}\n", self.threads));
        out.push_str(&format!("lookahead = \"{}\"\n", self.lookahead));
        out.push_str(&format!("obs = \"{}\"\n", self.obs));
        out.push_str("\n[chaos]\n");
        out.push_str(&format!("seed = {}\n", self.chaos.seed));
        out.push_str(&format!("level = {}\n", self.chaos.level));
        out.push_str("\n[fault]\n");
        out.push_str(&format!("seed = {}\n", self.fault.seed));
        out.push_str(&format!(
            "drop_rate = {}\n",
            float_toml(self.fault.drop_rate)
        ));
        out.push_str(&format!(
            "corrupt_rate = {}\n",
            float_toml(self.fault.corrupt_rate)
        ));
        out.push_str("\n[recovery]\n");
        out.push_str(&format!("enabled = {}\n", self.recovery.enabled));
        out.push_str(&format!("seed = {}\n", self.recovery.seed));
        out.push_str("\n[workload]\n");
        out.push_str(&format!("kind = \"{}\"\n", self.workload.kind()));
        match &self.workload {
            Workload::MdExchange {
                steps,
                values_per_msg,
                compute_ns,
                compute_skew_ns,
            } => {
                out.push_str(&format!("steps = {steps}\n"));
                out.push_str(&format!("values_per_msg = {values_per_msg}\n"));
                out.push_str(&format!("compute_ns = {}\n", float_toml(*compute_ns)));
                out.push_str(&format!(
                    "compute_skew_ns = {}\n",
                    float_toml(*compute_skew_ns)
                ));
            }
            Workload::AllReduce {
                algorithm,
                vlen,
                seed,
                reps,
            } => {
                out.push_str(&format!("algorithm = \"{}\"\n", algorithm.name()));
                out.push_str(&format!("vlen = {vlen}\n"));
                out.push_str(&format!("seed = {seed}\n"));
                out.push_str(&format!("reps = {reps}\n"));
            }
            Workload::Recovering { vlen, seed, deaths } => {
                out.push_str(&format!("vlen = {vlen}\n"));
                out.push_str(&format!("seed = {seed}\n"));
                let rendered: Vec<String> = deaths
                    .iter()
                    .map(|(node, ns)| format!("[{node}, {ns}]"))
                    .collect();
                out.push_str(&format!("deaths = [{}]\n", rendered.join(", ")));
            }
            Workload::PingPong {
                from,
                to,
                payload_bytes,
                bidirectional,
                reps,
            } => {
                out.push_str(&format!("from = [{}, {}, {}]\n", from.0, from.1, from.2));
                out.push_str(&format!("to = [{}, {}, {}]\n", to.0, to.1, to.2));
                out.push_str(&format!("payload_bytes = {payload_bytes}\n"));
                out.push_str(&format!("bidirectional = {bidirectional}\n"));
                out.push_str(&format!("reps = {reps}\n"));
            }
        }
        out
    }

    /// Parse a spec from its TOML form. Strict: every key must be one
    /// this model has a field for (a typo'd knob silently reverting to
    /// a default would poison the content hash's meaning), required
    /// sections are `name`, `[topology]`, and `[workload]`; `[engine]`,
    /// `[chaos]`, `[fault]`, and `[recovery]` default as documented on
    /// their spec types.
    pub fn from_toml_str(input: &str) -> Result<ScenarioSpec, String> {
        let mut map = toml::parse(input)?;
        let mut take = |k: &str| map.remove(k);

        let name = take("name")
            .ok_or("missing top-level `name`")?
            .as_str()
            .ok_or("`name` must be a string")?
            .to_owned();
        if name.is_empty() {
            return Err("`name` must be non-empty".to_owned());
        }

        let dims = (
            req_u32(&mut take, "topology.nx")?,
            req_u32(&mut take, "topology.ny")?,
            req_u32(&mut take, "topology.nz")?,
        );

        let timing = match take("engine.timing") {
            None => TimingProfile::default(),
            Some(v) => {
                let s = v.as_str().ok_or("`engine.timing` must be a string")?;
                TimingProfile::parse_str(s)
                    .ok_or_else(|| format!("unknown timing profile {s:?} (anton1|anton3)"))?
            }
        };
        let threads = match take("engine.threads") {
            None => 1,
            Some(v) => as_u32(&v, "engine.threads")?,
        };
        if threads == 0 {
            return Err("`engine.threads` must be >= 1".to_owned());
        }
        let lookahead = match take("engine.lookahead") {
            None => LookaheadMode::default(),
            Some(v) => {
                let s = v.as_str().ok_or("`engine.lookahead` must be a string")?;
                match s {
                    "global" => LookaheadMode::Global,
                    "adaptive" => LookaheadMode::Adaptive,
                    other => {
                        return Err(format!(
                            "unknown lookahead mode {other:?} (global|adaptive)"
                        ))
                    }
                }
            }
        };
        let obs = match take("engine.obs") {
            None => ObsMode::Off,
            Some(v) => {
                let s = v.as_str().ok_or("`engine.obs` must be a string")?;
                ObsMode::parse_str(s)
                    .ok_or_else(|| format!("unknown obs mode {s:?} (off|flight|stream)"))?
            }
        };

        let chaos = ChaosSpec {
            seed: opt_u64(&mut take, "chaos.seed", 1)?,
            level: opt_u32(&mut take, "chaos.level", 0)?,
        };
        if chaos.level > 3 {
            return Err("`chaos.level` must be 0..=3".to_owned());
        }
        let fault = FaultSpec {
            seed: opt_u64(&mut take, "fault.seed", 1)?,
            drop_rate: opt_rate(&mut take, "fault.drop_rate")?,
            corrupt_rate: opt_rate(&mut take, "fault.corrupt_rate")?,
        };
        let recovery = RecoverySpec {
            enabled: match take("recovery.enabled") {
                None => false,
                Some(v) => v.as_bool().ok_or("`recovery.enabled` must be a boolean")?,
            },
            seed: opt_u64(&mut take, "recovery.seed", 1)?,
        };

        let kind = take("workload.kind")
            .ok_or("missing `workload.kind`")?
            .as_str()
            .ok_or("`workload.kind` must be a string")?
            .to_owned();
        let workload = match kind.as_str() {
            "md_exchange" => Workload::MdExchange {
                steps: req_u32(&mut take, "workload.steps")?,
                values_per_msg: req_u32(&mut take, "workload.values_per_msg")?,
                compute_ns: req_f64(&mut take, "workload.compute_ns")?,
                compute_skew_ns: match take("workload.compute_skew_ns") {
                    None => 0.0,
                    Some(v) => as_f64(&v, "workload.compute_skew_ns")?,
                },
            },
            "all_reduce" => Workload::AllReduce {
                algorithm: match take("workload.algorithm") {
                    None => AlgorithmSpec::default(),
                    Some(v) => {
                        let s = v.as_str().ok_or("`workload.algorithm` must be a string")?;
                        AlgorithmSpec::parse_str(s).ok_or_else(|| {
                            format!("unknown algorithm {s:?} (dimension_ordered|butterfly|ring)")
                        })?
                    }
                },
                vlen: req_u32(&mut take, "workload.vlen")?,
                seed: opt_u64(&mut take, "workload.seed", 42)?,
                reps: opt_u32(&mut take, "workload.reps", 1)?,
            },
            "recovering" => Workload::Recovering {
                vlen: req_u32(&mut take, "workload.vlen")?,
                seed: opt_u64(&mut take, "workload.seed", 42)?,
                deaths: match take("workload.deaths") {
                    None => Vec::new(),
                    Some(v) => parse_deaths(&v)?,
                },
            },
            "ping_pong" => Workload::PingPong {
                from: req_coord(&mut take, "workload.from")?,
                to: req_coord(&mut take, "workload.to")?,
                payload_bytes: opt_u32(&mut take, "workload.payload_bytes", 0)?,
                bidirectional: match take("workload.bidirectional") {
                    None => false,
                    Some(v) => v
                        .as_bool()
                        .ok_or("`workload.bidirectional` must be a boolean")?,
                },
                reps: opt_u32(&mut take, "workload.reps", 1)?,
            },
            other => {
                return Err(format!(
                    "unknown workload kind {other:?} \
                     (md_exchange|all_reduce|recovering|ping_pong)"
                ))
            }
        };

        if let Some(k) = map.keys().next() {
            return Err(format!("unknown key {k:?} for this spec"));
        }

        for (axis, n) in [("nx", dims.0), ("ny", dims.1), ("nz", dims.2)] {
            if n == 0 {
                return Err(format!("`topology.{axis}` must be >= 1"));
            }
        }
        let spec = ScenarioSpec {
            name,
            dims,
            timing,
            threads,
            lookahead,
            obs,
            chaos,
            fault,
            recovery,
            workload,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Structural checks beyond per-field types: coordinates inside the
    /// torus, death nodes in range, and no field the workload would
    /// ignore. The MD exchange takes no fault rates (its skeleton reuses
    /// its six receive slots every step, so a retransmitted write from
    /// one step can land in the next), and only the recovering
    /// collective runs the recovery subsystem. [`ScenarioSpec::from_toml_str`]
    /// calls this; runners call it for specs built in code.
    pub fn validate(&self) -> Result<(), String> {
        let count = (self.dims.0 as u64) * (self.dims.1 as u64) * (self.dims.2 as u64);
        let faulty = self.fault.drop_rate != 0.0 || self.fault.corrupt_rate != 0.0;
        if faulty && matches!(self.workload, Workload::MdExchange { .. }) {
            return Err(
                "`fault.drop_rate` and `fault.corrupt_rate` must be 0 for an \
                 md_exchange workload"
                    .to_owned(),
            );
        }
        if self.recovery.enabled && !matches!(self.workload, Workload::Recovering { .. }) {
            return Err(format!(
                "`recovery.enabled` applies only to a recovering workload, not {}",
                self.workload.kind()
            ));
        }
        match &self.workload {
            Workload::PingPong { from, to, .. } => {
                for (label, c) in [("from", from), ("to", to)] {
                    if c.0 >= self.dims.0 || c.1 >= self.dims.1 || c.2 >= self.dims.2 {
                        return Err(format!(
                            "`workload.{label}` [{}, {}, {}] is outside the \
                             {}x{}x{} torus",
                            c.0, c.1, c.2, self.dims.0, self.dims.1, self.dims.2
                        ));
                    }
                }
            }
            Workload::Recovering { deaths, .. } => {
                for (node, _) in deaths {
                    if u64::from(*node) >= count {
                        return Err(format!(
                            "death node {node} is outside the {count}-node torus"
                        ));
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// Render an f64 so the TOML form parses back to the same bits and
/// always reads as a float (`{:?}` already prints `250.0`, not `250`).
fn float_toml(f: f64) -> String {
    format!("{f:?}")
}

// ---- small typed-extraction helpers (take closures so `from_toml_str`
// can consume its map while reporting precise key names) ----------------

fn as_u32(v: &Value, key: &str) -> Result<u32, String> {
    v.as_u64()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
}

fn as_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.as_f64()
        .filter(|f| f.is_finite())
        .ok_or_else(|| format!("`{key}` must be a number"))
}

fn req_u32(take: &mut impl FnMut(&str) -> Option<Value>, key: &str) -> Result<u32, String> {
    let v = take(key).ok_or_else(|| format!("missing `{key}`"))?;
    as_u32(&v, key)
}

fn req_f64(take: &mut impl FnMut(&str) -> Option<Value>, key: &str) -> Result<f64, String> {
    let v = take(key).ok_or_else(|| format!("missing `{key}`"))?;
    as_f64(&v, key)
}

fn opt_u32(
    take: &mut impl FnMut(&str) -> Option<Value>,
    key: &str,
    default: u32,
) -> Result<u32, String> {
    match take(key) {
        None => Ok(default),
        Some(v) => as_u32(&v, key),
    }
}

fn opt_u64(
    take: &mut impl FnMut(&str) -> Option<Value>,
    key: &str,
    default: u64,
) -> Result<u64, String> {
    match take(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn opt_rate(take: &mut impl FnMut(&str) -> Option<Value>, key: &str) -> Result<f64, String> {
    match take(key) {
        None => Ok(0.0),
        Some(v) => {
            let f = as_f64(&v, key)?;
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("`{key}` must be a probability in [0, 1]"));
            }
            Ok(f)
        }
    }
}

fn req_coord(
    take: &mut impl FnMut(&str) -> Option<Value>,
    key: &str,
) -> Result<(u32, u32, u32), String> {
    let v = take(key).ok_or_else(|| format!("missing `{key}`"))?;
    let arr = v
        .as_arr()
        .filter(|a| a.len() == 3)
        .ok_or_else(|| format!("`{key}` must be a 3-element coordinate array"))?;
    let mut c = [0u32; 3];
    for (i, item) in arr.iter().enumerate() {
        c[i] = as_u32(item, key)?;
    }
    Ok((c[0], c[1], c[2]))
}

fn parse_deaths(v: &Value) -> Result<Vec<(u32, u64)>, String> {
    let arr = v
        .as_arr()
        .ok_or("`workload.deaths` must be an array of [node, time_ns] pairs")?;
    let mut out = Vec::with_capacity(arr.len());
    for item in arr {
        let pair = item
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or("each death must be a [node, time_ns] pair")?;
        let node = as_u32(&pair[0], "workload.deaths[..][0]")?;
        let ns = pair[1]
            .as_u64()
            .ok_or("death time_ns must be a non-negative integer")?;
        out.push((node, ns));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn md_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "md_test".to_owned(),
            dims: (8, 8, 8),
            timing: TimingProfile::Anton1,
            threads: 4,
            lookahead: LookaheadMode::Adaptive,
            obs: ObsMode::Off,
            chaos: ChaosSpec::default(),
            fault: FaultSpec::default(),
            recovery: RecoverySpec::default(),
            workload: Workload::MdExchange {
                steps: 30,
                values_per_msg: 4,
                compute_ns: 250.0,
                compute_skew_ns: 0.0,
            },
        }
    }

    #[test]
    fn toml_round_trip_preserves_spec_and_hash() {
        let spec = md_spec();
        let parsed = ScenarioSpec::from_toml_str(&spec.to_toml()).expect("round-trips");
        assert_eq!(spec, parsed);
        assert_eq!(spec.content_hash(), parsed.content_hash());
    }

    #[test]
    fn hash_ignores_formatting_but_not_fields() {
        let compact = "\
name = \"x\"
[topology]
nx = 2
ny = 2
nz = 2
[workload]
kind = \"md_exchange\"
steps = 3
values_per_msg = 4
compute_ns = 250.0
";
        let reordered = "\
name = \"x\"   # top-level keys precede any table

[workload]
compute_ns = 2.5e2   # same number, different spelling
steps = 3
kind = \"md_exchange\"
values_per_msg = 4

# comment lines and blank lines are free
[topology]
nz = 2
nx = 2
ny = 2
";
        let a = ScenarioSpec::from_toml_str(compact).expect("compact parses");
        let b = ScenarioSpec::from_toml_str(reordered).expect("reordered parses");
        assert_eq!(a.content_hash(), b.content_hash());

        let skewed = compact.replace("compute_ns = 250.0", "compute_ns = 251.0");
        let c = ScenarioSpec::from_toml_str(&skewed).expect("skewed parses");
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        let base = md_spec().to_toml();
        for mutation in [
            base.replace("steps = 30", "steps = 30\nturbo = true"),
            base.replace("[engine]", "[engine]\nwarp = 9"),
            base.replace("threads = 4", "threads = 0"),
            base.replace("\"adaptive\"", "\"psychic\""),
            base.replace("kind = \"md_exchange\"", "kind = \"md_exchnage\""),
            base.replace("drop_rate = 0.0", "drop_rate = 1.5"),
            base.replace("nx = 8", "nx = 0"),
        ] {
            assert!(
                ScenarioSpec::from_toml_str(&mutation).is_err(),
                "should reject: {mutation}"
            );
        }
    }

    #[test]
    fn workload_variants_round_trip() {
        let mut spec = md_spec();
        for workload in [
            Workload::AllReduce {
                algorithm: AlgorithmSpec::Butterfly,
                vlen: 4,
                seed: 42,
                reps: 6,
            },
            Workload::Recovering {
                vlen: 2,
                seed: 1,
                deaths: vec![(5, 900), (12, 1400)],
            },
            Workload::PingPong {
                from: (0, 0, 0),
                to: (4, 4, 4),
                payload_bytes: 32,
                bidirectional: true,
                reps: 8,
            },
        ] {
            spec.workload = workload;
            let parsed = ScenarioSpec::from_toml_str(&spec.to_toml()).expect("round-trips");
            assert_eq!(spec, parsed);
        }
    }

    #[test]
    fn out_of_range_coordinates_are_rejected() {
        let mut spec = md_spec();
        spec.workload = Workload::PingPong {
            from: (0, 0, 0),
            to: (8, 0, 0),
            payload_bytes: 0,
            bidirectional: false,
            reps: 1,
        };
        assert!(ScenarioSpec::from_toml_str(&spec.to_toml()).is_err());
        spec.workload = Workload::Recovering {
            vlen: 2,
            seed: 1,
            deaths: vec![(512, 900)],
        };
        assert!(ScenarioSpec::from_toml_str(&spec.to_toml()).is_err());
    }

    #[test]
    fn fields_the_workload_would_ignore_are_rejected() {
        let reject = |spec: &ScenarioSpec| {
            assert!(spec.validate().is_err(), "should reject: {spec:?}");
            assert!(ScenarioSpec::from_toml_str(&spec.to_toml()).is_err());
        };
        let accept = |spec: &ScenarioSpec| {
            spec.validate().expect("valid");
            ScenarioSpec::from_toml_str(&spec.to_toml()).expect("parses");
        };
        let all_reduce = Workload::AllReduce {
            algorithm: AlgorithmSpec::DimensionOrdered,
            vlen: 4,
            seed: 42,
            reps: 1,
        };
        let recovering = Workload::Recovering {
            vlen: 2,
            seed: 1,
            deaths: Vec::new(),
        };

        // Fault rates: rejected on the MD exchange, run by the others.
        let mut dropping = md_spec();
        dropping.fault.drop_rate = 0.01;
        reject(&dropping);
        let mut corrupting = md_spec();
        corrupting.fault.corrupt_rate = 0.01;
        reject(&corrupting);
        dropping.workload = all_reduce.clone();
        accept(&dropping);
        dropping.workload = recovering.clone();
        accept(&dropping);

        // Recovery: only the recovering collective runs it.
        let mut healing = md_spec();
        healing.recovery.enabled = true;
        reject(&healing);
        healing.workload = all_reduce;
        reject(&healing);
        healing.workload = recovering;
        accept(&healing);
    }

    #[test]
    fn accessors_map_to_engine_values() {
        let spec = md_spec();
        assert_eq!(spec.torus_dims(), TorusDims::new(8, 8, 8));
        let md = spec.md_params().expect("md workload");
        assert_eq!(md.steps, 30);
        assert_eq!(md.values_per_msg, 4);
        assert!(!spec.recovery_config().enabled);
        assert!(spec.deaths().is_empty());

        let mut rec = md_spec();
        rec.recovery = RecoverySpec {
            enabled: true,
            seed: 7,
        };
        rec.workload = Workload::Recovering {
            vlen: 2,
            seed: 1,
            deaths: vec![(5, 900)],
        };
        assert!(rec.recovery_config().enabled);
        assert_eq!(rec.deaths(), vec![(NodeId(5), SimTime::from_ns(900))]);
        let coords = rec.death_coords();
        assert_eq!(coords.len(), 1);
    }
}
