//! # anton-obs — unified instrumentation for the simulated machine
//!
//! The paper's headline number is a *decomposed* one: Figure 6 splits the
//! 162 ns end-to-end latency into sender overhead, injection, per-hop
//! router/wire time, delivery, and synchronization, and §IV.C's on-chip
//! logic analyzer (Figure 13) is how the authors saw where time went.
//! This crate is the software analogue of that measurement
//! infrastructure, layered *under* the network model so every nanosecond
//! of a simulation is attributable and exportable:
//!
//! - [`FlightEvent`] — one event per step of a packet's life (inject,
//!   link reserve, retransmit, hop enter/exit, deliver, counter update,
//!   and the recovery and loss events). The fabric builds each event once
//!   and hands it to its observer: a flight record keeps every event as a
//!   `Vec<FlightEvent>` for offline analysis, the [`StreamObserver`]
//!   folds it. With no observer installed the disabled path costs one
//!   branch per hook site.
//! - [`breakdown`] — folds recorded lifecycles into the paper's Figure 6
//!   stages; stage durations telescope, so they sum *exactly* to the
//!   measured end-to-end latency.
//! - [`MetricsRegistry`] — named counters, gauges, and log-bucketed
//!   latency histograms (p50/p99/max), snapshottable and diffable per MD
//!   phase.
//! - [`chrome_trace`] — Chrome `trace_event` JSON export, loadable in
//!   Perfetto or `about:tracing`, plus CSV/JSON summaries and a
//!   dependency-free JSON validator for CI smoke tests.
//! - [`causal`] — reconstructs the causal event DAG from a recorded
//!   stream and extracts the *measured* critical path, per-node slack,
//!   and per-stage blame that telescopes exactly to the makespan.
//! - [`mod@retime`] — what-if replay of the causal DAG under perturbed lags
//!   (hop latency ±10%, one slow link) without re-running the
//!   simulation.
//! - [`congestion`] — time-binned per-link/per-router utilization and
//!   queue telemetry, exportable as CSV, Chrome counter tracks, and an
//!   ASCII heatmap.
//! - [`runtime`] — the same exact-accounting discipline pointed at the
//!   *parallel runtime itself*: speedup attribution whose components
//!   telescope to the measured gap, deterministic lookahead/imbalance
//!   summaries, and Chrome-trace worker lanes for `des::par` profiles.
//! - [`regress`] — schema-versioned benchmark reports (the committed
//!   `BENCH_pr*.json` files) with per-metric direction metadata and
//!   threshold-based diffing.
//! - [`observatory`] — the continuous-benchmarking report model:
//!   metrics *plus* attribution sections (critical-path blame shares,
//!   congestion top-K, recovery stats) and component-level diffing with
//!   a human-readable triage.
//! - [`stream`] — bounded-memory observability for 100×-scale machines:
//!   mergeable quantile sketches, exact streaming moments, space-saving
//!   per-link heavy hitters, a seeded lifecycle reservoir, and the
//!   [`StreamObserver`] that folds packets into the Figure 6
//!   attribution at delivery and drops the events — O(nodes + links)
//!   state on one slab instead of O(events), bit-identical under shard
//!   merges.
//! - [`memory`] — the memory observatory: a feature-gated (`obs-alloc`)
//!   instrumented global allocator with scoped subsystem tags reporting
//!   live/peak bytes per subsystem, per node, and per event.
//! - [`fingerprint`] — stable FNV-1a digests of exported run state,
//!   backing the sequential-vs-parallel bit-identity cross-checks.

#![warn(missing_docs)]

pub mod breakdown;
pub mod causal;
pub mod chrome_trace;
pub mod congestion;
pub mod fingerprint;
pub mod json;
pub mod memory;
pub mod metrics;
pub mod observatory;
pub mod recorder;
pub mod regress;
pub mod retime;
pub mod runtime;
pub mod stream;

pub use breakdown::{fold_lifecycles, BreakdownSummary, FoldStats, PacketLifecycle, Stage};
pub use causal::{Blame, CEdge, CNode, CausalGraph, CriticalPath, EdgeKind, NodeKind};
pub use chrome_trace::{lifecycles_csv, ChromeTraceBuilder, ChromeTraceWriter, LifecycleCsvWriter};
pub use congestion::{CongestionMap, LinkLoad, RouterLoad};
pub use fingerprint::{fnv1a64, Fingerprint};
pub use json::{validate_json, Lex};
pub use memory::{MemReport, MemScope, MemTag};
pub use metrics::{LogHistogram, MetricsRegistry, MetricsSnapshot};
pub use observatory::{
    DiffConfig, ObservatoryDiff, ObservatoryReport, Section, SectionDiff, SectionKind,
    OBSERVATORY_SCHEMA_VERSION, SEC_ATTRIBUTION, SEC_BLAME, SEC_CONGESTION, SEC_RECOVERY,
};
pub use recorder::{FlightEvent, LossCause, PacketId, VerdictCause};
pub use regress::{BenchReport, Direction, RegressFinding, RegressReport, BENCH_SCHEMA_VERSION};
pub use retime::{retime, retime_blamed, Perturbation, Retimed};
pub use runtime::{profile_chrome_trace, RuntimeSummary, SpeedupAttribution};
pub use stream::{
    PacketTrail, QuantileSketch, Reservoir, SpaceSavingTopK, StreamConfig, StreamFootprint,
    StreamObserver, StreamSummary, StreamingMoments, TopKEntry,
};
