//! Runtime fault recovery: failure detectors and recovery policy
//! (DESIGN.md §12).
//!
//! PR 1 gave the fabric *static* fault handling: seeded transient loss,
//! CRC + ack/retransmit, and routes computed around *pre-declared* dead
//! links. This module adds the runtime half: per-link timeout-based
//! failure **detectors** that promote repeated loss to a
//! [`LinkDown`](anton_obs::FlightEvent::LinkDown) /
//! [`NodeDown`](anton_obs::FlightEvent::NodeDown) verdict at a
//! reproducible simulated time, a **recovery policy** (message-level
//! retry with seeded exponential backoff, bounded re-injection budget,
//! duplicate suppression), and the [`RecoveryStats`] counters the chaos
//! harness asserts over.
//!
//! Everything is deterministic: detection times are pure functions of
//! the event stream, backoff jitter comes from the same seeded
//! split-mix hash as the fault plan's transient draws, and verdicts are
//! strictly **node-local** — a verdict about node *n*'s outgoing link is
//! produced only by events at *n* and consulted only when routing at
//! *n*, so sequential and sharded-parallel runs observe identical
//! knowledge and stay bit-identical.

use crate::fault;
use anton_des::SimDuration;
use anton_des::SimTime;
use anton_obs::VerdictCause;
use anton_topo::{LinkDir, NodeId};

/// Domain-separation salt for backoff-jitter draws (keeps them
/// independent of the fault plan's transient-loss draws).
const BACKOFF_SALT: u64 = 0xB0FF_B0FF_B0FF_B0FF;

/// Domain-separation salt for the ack-ambiguity draw: did the final,
/// unacknowledged attempt's data actually cross the link?
const ACK_AMBIGUITY_SALT: u64 = 0xACC_1057;

/// Policy knobs for the runtime fault-recovery subsystem. Constructed
/// with [`RecoveryConfig::disabled`] (bit-identical to the pre-recovery
/// fabric) or [`RecoveryConfig::recovering`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Master switch. With `enabled == false` every code path in the
    /// fabric is byte-identical to the pre-recovery behavior.
    pub enabled: bool,
    /// Seed for backoff jitter and ack-ambiguity draws (independent of
    /// the fault plan's seed).
    pub seed: u64,
    /// Heartbeat/idle-deadline detector: a send onto a *silently* dead
    /// link (no nacks ever return) is promoted to a `LinkDown` verdict
    /// this long after the attempt started.
    pub heartbeat_timeout_ns: f64,
    /// Message-level retry backoff base (first re-injection waits this
    /// long after the verdict).
    pub backoff_base_ns: f64,
    /// Exponential backoff multiplier per successive re-injection of
    /// the same packet.
    pub backoff_factor: f64,
    /// Seeded uniform jitter added to every backoff, in `[0, this)` ns;
    /// decorrelates recovery bursts after a shared verdict.
    pub backoff_jitter_ns: f64,
    /// Per-packet re-injection budget; a packet stranded more times
    /// than this is counted in
    /// [`RecoveryStats::packets_lost_unrecovered`].
    pub max_reinjects: u32,
    /// Ack-ambiguity probability: when the retransmit budget exhausts,
    /// the chance that the final attempt's *data* crossed and only the
    /// ack was lost — producing a genuine duplicate downstream that the
    /// counted-write check must suppress. 0 disables the model.
    pub dup_delivery_rate: f64,
}

impl RecoveryConfig {
    /// Recovery off: the fabric behaves bit-identically to a build
    /// without this subsystem.
    pub fn disabled() -> RecoveryConfig {
        RecoveryConfig {
            enabled: false,
            seed: 0,
            heartbeat_timeout_ns: 0.0,
            backoff_base_ns: 0.0,
            backoff_factor: 1.0,
            backoff_jitter_ns: 0.0,
            max_reinjects: 0,
            dup_delivery_rate: 0.0,
        }
    }

    /// Recovery on, with defaults sized for the 162 ns-scale fabric:
    /// a 2 µs heartbeat deadline (an ack round trip is well under 1 µs
    /// at the paper's hop latencies), 200 ns base backoff doubling per
    /// attempt with 100 ns seeded jitter, a budget of 6 re-injections,
    /// and a 25% ack-ambiguity rate.
    pub fn recovering(seed: u64) -> RecoveryConfig {
        RecoveryConfig {
            enabled: true,
            seed,
            heartbeat_timeout_ns: 2_000.0,
            backoff_base_ns: 200.0,
            backoff_factor: 2.0,
            backoff_jitter_ns: 100.0,
            max_reinjects: 6,
            dup_delivery_rate: 0.25,
        }
    }

    /// Builder: override the heartbeat/idle deadline.
    pub fn with_heartbeat_timeout_ns(mut self, ns: f64) -> RecoveryConfig {
        assert!(ns >= 0.0 && ns.is_finite());
        self.heartbeat_timeout_ns = ns;
        self
    }

    /// Builder: override the re-injection budget.
    pub fn with_max_reinjects(mut self, n: u32) -> RecoveryConfig {
        self.max_reinjects = n;
        self
    }

    /// Builder: override the ack-ambiguity duplicate rate.
    pub fn with_dup_delivery_rate(mut self, rate: f64) -> RecoveryConfig {
        assert!((0.0..=1.0).contains(&rate));
        self.dup_delivery_rate = rate;
        self
    }

    /// Builder: override the backoff schedule.
    pub fn with_backoff_ns(mut self, base: f64, factor: f64, jitter: f64) -> RecoveryConfig {
        assert!(base >= 0.0 && factor >= 1.0 && jitter >= 0.0);
        self.backoff_base_ns = base;
        self.backoff_factor = factor;
        self.backoff_jitter_ns = jitter;
        self
    }

    /// Seeded exponential backoff before re-injection `attempt`
    /// (1-based) of packet `uid`: `base · factor^(attempt-1)` plus a
    /// uniform jitter drawn from the split-mix hash, so two packets
    /// stranded by the same verdict do not retry in lockstep.
    pub fn backoff_delay(&self, uid: u64, attempt: u32) -> SimDuration {
        let exp = self.backoff_base_ns * self.backoff_factor.powi(attempt.saturating_sub(1) as i32);
        let jitter = self.backoff_jitter_ns
            * fault::hash_unit(self.seed ^ BACKOFF_SALT, uid, u64::from(attempt));
        SimDuration::from_ns_f64(exp + jitter)
    }

    /// Ack-ambiguity draw: when packet `uid`'s retransmit budget
    /// exhausts on link index `link_idx`, did the final attempt's data
    /// cross (ack lost) so a duplicate continues downstream?
    pub fn final_attempt_crossed(&self, link_idx: u64, uid: u64) -> bool {
        self.enabled
            && self.dup_delivery_rate > 0.0
            && fault::hash_unit(self.seed ^ ACK_AMBIGUITY_SALT, link_idx, uid)
                < self.dup_delivery_rate
    }
}

/// One failure-detector verdict, in detection order. `link == None`
/// means the verdict is a `NodeDown` (all six outgoing links of `node`
/// condemned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureVerdict {
    /// The node owning the condemned outgoing link (or the condemned
    /// node itself for `NodeDown`).
    pub node: NodeId,
    /// The condemned link direction, `None` for a node verdict.
    pub link: Option<LinkDir>,
    /// Which detector fired.
    pub cause: VerdictCause,
    /// Simulated detection time.
    pub at: SimTime,
}

/// Counters of the recovery subsystem, kept *separate* from
/// [`NetStats`](crate::NetStats) on purpose: `NetStats` is hashed into
/// the determinism fingerprints, so growing it would shift every
/// committed baseline even for recovery-disabled runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// `LinkDown` verdicts issued.
    pub link_verdicts: u64,
    /// `NodeDown` verdicts issued (a node's sixth link condemned).
    pub node_verdicts: u64,
    /// Stranded packets re-injected with a recomputed route.
    pub reinjections: u64,
    /// Packets that exhausted the re-injection budget (or had no
    /// surviving route) and were dropped for good.
    pub packets_lost_unrecovered: u64,
    /// Deliveries suppressed by the counted-write duplicate check.
    pub duplicates_suppressed: u64,
    /// Ack-ambiguity events: the final unacked attempt's data crossed,
    /// creating the duplicate downstream.
    pub duplicate_forks: u64,
    /// In-order packets parked in a reassembly buffer because an
    /// earlier sequence number was still in flight.
    pub inorder_holds: u64,
}

impl RecoveryStats {
    /// Fold another shard's counters into this one (parallel runs).
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.link_verdicts += other.link_verdicts;
        self.node_verdicts += other.node_verdicts;
        self.reinjections += other.reinjections;
        self.packets_lost_unrecovered += other.packets_lost_unrecovered;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.duplicate_forks += other.duplicate_forks;
        self.inorder_holds += other.inorder_holds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_is_seeded() {
        let cfg = RecoveryConfig::recovering(11);
        let d1 = cfg.backoff_delay(5, 1);
        let d2 = cfg.backoff_delay(5, 2);
        let d3 = cfg.backoff_delay(5, 3);
        // Base 200/400/800 ns plus jitter in [0, 100): strictly ordered.
        assert!(d1 < d2 && d2 < d3, "{d1:?} {d2:?} {d3:?}");
        // Deterministic per (seed, uid, attempt)…
        assert_eq!(d1, RecoveryConfig::recovering(11).backoff_delay(5, 1));
        // …and decorrelated across uids (jitter differs).
        assert_ne!(d1, cfg.backoff_delay(6, 1));
    }

    #[test]
    fn ack_ambiguity_draw_is_deterministic_and_gated() {
        let cfg = RecoveryConfig::recovering(3).with_dup_delivery_rate(1.0);
        assert!(cfg.final_attempt_crossed(10, 99));
        let never = RecoveryConfig::recovering(3).with_dup_delivery_rate(0.0);
        assert!(!never.final_attempt_crossed(10, 99));
        assert!(!RecoveryConfig::disabled().final_attempt_crossed(10, 99));
        // Roughly rate-proportional over many draws.
        let cfg = RecoveryConfig::recovering(3).with_dup_delivery_rate(0.25);
        let hits = (0..4000)
            .filter(|&u| cfg.final_attempt_crossed(7, u))
            .count();
        assert!((800..1200).contains(&hits), "hits={hits}");
    }
}
