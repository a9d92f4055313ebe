//! Fault injection and the link-reliability model.
//!
//! Anton's network is lossless in normal operation, but the hardware
//! carries a link-level CRC + retransmission protocol underneath that
//! guarantee. This module models that sublayer so robustness experiments
//! can inject faults and measure their cost:
//!
//! - A [`FaultPlan`] is a *seeded, deterministic* description of what goes
//!   wrong: transient packet drops and payload corruptions at configurable
//!   per-traversal rates, plus permanent link/cable/node failures at
//!   configurable simulation times.
//! - Transient faults stand for what the hardware's link CRC (corruption)
//!   or ack timeout (drop) would catch, recovered by retransmission with
//!   exponential backoff, up to a per-traversal retry budget. No per-hop
//!   checksum is computed: the plan draws each traversal's outcome and the
//!   fabric folds the retransmission delay into the link reservation, so
//!   the fault-free plan ([`FaultPlan::none`]) is *bit-identical* to a
//!   fabric with no fault layer at all. The only CRC the simulator
//!   computes is the end-to-end [`payload_crc`], once at packet
//!   construction and once at delivery.
//! - Fault decisions are pure functions of `(seed, link, per-link tx
//!   sequence number)` — no RNG stream is consumed — so the same seed and
//!   plan reproduce the same event trace exactly.
//!
//! Unrecoverable problems surface as [`FabricError`] values recorded in
//! the fabric's error log (plus `NetStats` counters) rather than panics,
//! and lost packets are diagnosed by the stall watchdog (see
//! `world::RunReport` and [`WatchdogReport`]).

use crate::packet::{ClientKind, CounterId, PatternId, Payload};
use anton_des::{SimDuration, SimTime};
use anton_topo::{Coord, LinkDir, LinkMask, NodeId, TorusDims};
use std::fmt;

/// Link-layer retransmission parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Sender-side ack timeout before a dropped packet is retransmitted,
    /// nanoseconds. Covers the forward wire time plus the returning ack.
    pub ack_timeout_ns: f64,
    /// Receiver-side nack turnaround after a CRC failure, nanoseconds.
    /// Corruptions are detected as soon as the (bad) packet fully
    /// arrives, so recovery is cheaper than a drop.
    pub nack_ns: f64,
    /// Multiplier applied to the ack timeout per successive drop of the
    /// same packet (exponential backoff).
    pub backoff: f64,
    /// Retransmissions allowed per link traversal before the packet is
    /// declared lost (the retransmit budget).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            ack_timeout_ns: 500.0,
            nack_ns: 100.0,
            backoff: 2.0,
            max_retries: 8,
        }
    }
}

impl RetryPolicy {
    /// Delay between a dropped attempt's wire time and its retransmission
    /// (`attempt` counts prior failures of this traversal, from 0).
    pub fn drop_penalty(&self, attempt: u32) -> SimDuration {
        SimDuration::from_ns_f64(self.ack_timeout_ns * self.backoff.powi(attempt as i32))
    }

    /// Delay between a corrupted attempt's wire time and its
    /// retransmission.
    pub fn nack_penalty(&self) -> SimDuration {
        SimDuration::from_ns_f64(self.nack_ns)
    }
}

/// A transient fault injected on one link traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientFault {
    /// The packet vanished on the wire; the sender's ack timeout expires.
    Drop,
    /// The packet arrived with a payload error; the link CRC check fails
    /// and the receiver nacks.
    Corrupt,
}

/// What a permanent failure takes down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// One unidirectional link (traffic leaving `node` via `link`).
    Link {
        /// Node the link leaves from.
        node: Coord,
        /// Which of its six links.
        link: LinkDir,
    },
    /// A physical cable: both directions between `node` and its neighbor.
    Cable {
        /// Either endpoint of the cable.
        node: Coord,
        /// The link direction from that endpoint.
        link: LinkDir,
    },
    /// A whole node: all six outgoing and all six incoming links.
    Node {
        /// The failed node.
        node: Coord,
    },
}

/// A permanent failure and when it strikes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PermanentFault {
    /// Simulation time from which the target is dead.
    pub at: SimTime,
    /// What dies.
    pub target: FaultTarget,
}

/// Seeded deterministic fault-injection plan. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for per-traversal fault decisions.
    pub seed: u64,
    /// Probability a link traversal drops the packet.
    pub drop_rate: f64,
    /// Probability a link traversal corrupts the payload (caught by the
    /// link CRC and nacked).
    pub corrupt_rate: f64,
    /// Link-layer retransmission policy.
    pub retry: RetryPolicy,
    /// Permanent failures, each with an activation time.
    pub permanent: Vec<PermanentFault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The fault-free plan. A fabric built with it behaves bit-identically
    /// to one with no fault layer: no fault decisions are drawn and no
    /// timing is perturbed.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            retry: RetryPolicy::default(),
            permanent: Vec::new(),
        }
    }

    /// A transient-fault plan with the given seed (builder entry point).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Set the per-traversal drop rate (builder style).
    pub fn with_drop_rate(mut self, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "drop rate must be a probability");
        self.drop_rate = p;
        self.check_rates();
        self
    }

    /// Set the per-traversal corruption rate (builder style).
    pub fn with_corrupt_rate(mut self, p: f64) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&p),
            "corrupt rate must be a probability"
        );
        self.corrupt_rate = p;
        self.check_rates();
        self
    }

    /// Replace the retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> FaultPlan {
        self.retry = retry;
        self
    }

    fn check_rates(&self) {
        assert!(
            self.drop_rate + self.corrupt_rate <= 1.0,
            "drop + corrupt rates exceed 1"
        );
    }

    /// Schedule a permanent unidirectional-link failure at `at`.
    pub fn fail_link_at(mut self, node: Coord, link: LinkDir, at: SimTime) -> FaultPlan {
        self.permanent.push(PermanentFault {
            at,
            target: FaultTarget::Link { node, link },
        });
        self
    }

    /// Schedule a permanent cable failure (both directions) at `at`.
    pub fn fail_cable_at(mut self, node: Coord, link: LinkDir, at: SimTime) -> FaultPlan {
        self.permanent.push(PermanentFault {
            at,
            target: FaultTarget::Cable { node, link },
        });
        self
    }

    /// Schedule a permanent whole-node failure at `at`.
    pub fn fail_node_at(mut self, node: Coord, at: SimTime) -> FaultPlan {
        self.permanent.push(PermanentFault {
            at,
            target: FaultTarget::Node { node },
        });
        self
    }

    /// Whether any transient fault rate is nonzero.
    pub fn has_transients(&self) -> bool {
        self.drop_rate > 0.0 || self.corrupt_rate > 0.0
    }

    /// Whether any permanent failure is scheduled.
    pub fn has_permanent(&self) -> bool {
        !self.permanent.is_empty()
    }

    /// Whether the plan injects nothing (the zero-cost fast path).
    pub fn is_none(&self) -> bool {
        !self.has_transients() && !self.has_permanent()
    }

    /// Deterministic fault decision for transmission number `seq` over
    /// the unidirectional link with dense index `link_idx`. Pure function
    /// of `(seed, link_idx, seq)` — retransmissions get fresh sequence
    /// numbers and therefore fresh draws.
    pub fn transient_fault(&self, link_idx: usize, seq: u64) -> Option<TransientFault> {
        let u = hash_unit(self.seed, link_idx as u64, seq);
        if u < self.drop_rate {
            Some(TransientFault::Drop)
        } else if u < self.drop_rate + self.corrupt_rate {
            Some(TransientFault::Corrupt)
        } else {
            None
        }
    }

    /// Expand the permanent failures into per-link death times, indexed
    /// `node*6 + link` like every other link table. Overlapping failures
    /// keep the earliest time.
    pub fn link_death_times(&self, dims: TorusDims) -> Vec<Option<SimTime>> {
        let mut death: Vec<Option<SimTime>> = vec![None; dims.node_count() as usize * 6];
        let mut kill = |node: Coord, link: LinkDir, at: SimTime| {
            let idx = node.node_id(dims).index() * 6 + link.index();
            death[idx] = Some(match death[idx] {
                Some(t) => t.min(at),
                None => at,
            });
        };
        for pf in &self.permanent {
            match pf.target {
                FaultTarget::Link { node, link } => kill(node, link, pf.at),
                FaultTarget::Cable { node, link } => {
                    kill(node, link, pf.at);
                    kill(node.step(link, dims), link.reverse(), pf.at);
                }
                FaultTarget::Node { node } => {
                    for &l in &LinkDir::ALL {
                        kill(node, l, pf.at);
                        kill(node.step(l, dims), l.reverse(), pf.at);
                    }
                }
            }
        }
        death
    }

    /// The mask of links dead at or before `now` (used to route around
    /// permanent failures).
    pub fn mask_at(&self, dims: TorusDims, now: SimTime) -> LinkMask {
        let mut mask = LinkMask::none(dims);
        for (idx, t) in self.link_death_times(dims).iter().enumerate() {
            if matches!(t, Some(t) if *t <= now) {
                let node = NodeId((idx / 6) as u32).coord(dims);
                mask.kill_link(node, LinkDir::from_index(idx % 6));
            }
        }
        mask
    }
}

/// SplitMix64-style avalanche of `(seed, link, seq)` to a uniform value
/// in `[0, 1)`.
pub(crate) fn hash_unit(seed: u64, link: u64, seq: u64) -> f64 {
    let mut z =
        seed ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seq.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Slice-by-8 lookup tables for [`Crc32`], built at compile time.
/// `CRC_TABLES[k][b]` is the CRC step of byte `b` followed by `k` zero
/// bytes (`CRC_TABLES[0]` is the classic byte-at-a-time table), so the
/// byte at offset `j` of an 8-byte block looks up table `7 - j`, and one
/// block costs eight independent lookups instead of 64 dependent
/// shift/xor steps.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3 polynomial 0xEDB88320, reflected, init and final
/// xor `!0`; the same function as zlib's `crc32`) over a byte stream —
/// the end-to-end payload check of [`payload_crc`].
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feed bytes: eight at a time through the slice-by-8 tables, then the
    /// tail byte by byte.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.state;
        let mut blocks = bytes.chunks_exact(8);
        for b in &mut blocks {
            let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][b[4] as usize]
                ^ t[2][b[5] as usize]
                ^ t[1][b[6] as usize]
                ^ t[0][b[7] as usize];
        }
        for &b in blocks.remainder() {
            c = (c >> 8) ^ t[0][((c ^ b as u32) & 0xff) as usize];
        }
        self.state = c;
    }

    /// Finish and return the checksum.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Integrity checksum of a packet's logical payload. Computed at packet
/// construction, carried in the header, and verified on delivery.
pub fn payload_crc(payload: &Payload) -> u32 {
    let mut c = Crc32::new();
    match payload {
        Payload::Empty => c.update(&[0]),
        Payload::Token(t) => {
            c.update(&[1]);
            c.update(&t.to_le_bytes());
        }
        Payload::Bytes(b) => {
            c.update(&[2]);
            c.update(b);
        }
        Payload::F64s(v) => {
            c.update(&[3]);
            for x in v {
                c.update(&x.to_le_bytes());
            }
        }
        Payload::I32s(v) => {
            c.update(&[4]);
            for x in v {
                c.update(&x.to_le_bytes());
            }
        }
    }
    c.finish()
}

/// A recoverable fabric error. The hot delivery path records these in the
/// fabric's capped error log and bumps `NetStats` counters instead of
/// panicking; simulation always continues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// No surviving route from `src` to `dst` at injection time; the
    /// packet was not sent.
    Unreachable {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
    /// A traversal exhausted its retransmit budget; the packet is lost.
    RetryBudgetExhausted {
        /// Node the link leaves from.
        node: NodeId,
        /// The link that kept failing.
        link: LinkDir,
        /// Attempts made (initial + retransmissions).
        attempts: u32,
    },
    /// A packet in flight hit a permanently dead link and is lost.
    DeadLink {
        /// Node the dead link leaves from.
        node: NodeId,
        /// The dead link.
        link: LinkDir,
    },
    /// A multicast packet referenced a pattern id with no table entry.
    PatternUnknown {
        /// The unknown pattern.
        pattern: PatternId,
        /// Node whose table was consulted.
        node: NodeId,
    },
    /// Routing made no progress (should not happen on a healthy fabric).
    NoRoute {
        /// Node where routing stalled.
        node: NodeId,
        /// Intended destination.
        dst: NodeId,
    },
    /// An accumulation packet carried a non-`I32s` payload; discarded.
    BadAccumPayload {
        /// Delivery node.
        node: NodeId,
        /// Target client.
        client: ClientKind,
    },
    /// A FIFO packet targeted a client with no hardware FIFO; discarded.
    FifoToNonSlice {
        /// Delivery node.
        node: NodeId,
        /// Target client.
        client: ClientKind,
    },
    /// A `COUNTER_BY_SOURCE` packet arrived with no per-source mapping;
    /// the write landed but no counter was bumped.
    MissingSourceCounter {
        /// Delivery node.
        node: NodeId,
        /// Source node the mapping was missing for.
        src: NodeId,
    },
    /// End-to-end payload CRC mismatch at delivery; discarded.
    CorruptDelivery {
        /// Delivery node.
        node: NodeId,
        /// Target client.
        client: ClientKind,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Unreachable { src, dst } => {
                write!(
                    f,
                    "no surviving route from node {} to node {}",
                    src.0, dst.0
                )
            }
            FabricError::RetryBudgetExhausted {
                node,
                link,
                attempts,
            } => write!(
                f,
                "retry budget exhausted after {attempts} attempts on link {link} of node {}",
                node.0
            ),
            FabricError::DeadLink { node, link } => {
                write!(f, "packet lost on dead link {link} of node {}", node.0)
            }
            FabricError::PatternUnknown { pattern, node } => {
                write!(
                    f,
                    "multicast pattern {} unknown at node {}",
                    pattern.0, node.0
                )
            }
            FabricError::NoRoute { node, dst } => {
                write!(
                    f,
                    "routing stalled at node {} toward node {}",
                    node.0, dst.0
                )
            }
            FabricError::BadAccumPayload { node, client } => {
                write!(
                    f,
                    "non-I32s accumulation payload at node {} {client:?}",
                    node.0
                )
            }
            FabricError::FifoToNonSlice { node, client } => {
                write!(
                    f,
                    "FIFO packet for client without FIFO at node {} {client:?}",
                    node.0
                )
            }
            FabricError::MissingSourceCounter { node, src } => write!(
                f,
                "no source-counter mapping at node {} for packets from node {}",
                node.0, src.0
            ),
            FabricError::CorruptDelivery { node, client } => {
                write!(
                    f,
                    "payload CRC mismatch delivering to node {} {client:?}",
                    node.0
                )
            }
        }
    }
}

/// A watchdog deadline that expired: the watched counter had not reached
/// its target when the deadline struck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Node owning the stuck counter.
    pub node: NodeId,
    /// Client owning the stuck counter.
    pub client: ClientKind,
    /// The counter that missed its deadline.
    pub counter: CounterId,
    /// The value it was waiting for.
    pub target: u64,
    /// Its value when the deadline expired.
    pub current: u64,
    /// When the deadline expired.
    pub at: SimTime,
}

impl fmt::Display for WatchdogReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "watchdog: counter {} of node {} {:?} stuck at {}/{} (deadline {})",
            self.counter.0, self.node.0, self.client, self.current, self.target, self.at
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_topo::{Dim, Dir, TorusDims};

    #[test]
    fn none_plan_is_zero_cost() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert!(!p.has_transients());
        assert!(!p.has_permanent());
        // Even probing draws nothing: rates are zero.
        assert_eq!(p.transient_fault(0, 0), None);
        assert_eq!(p.transient_fault(123, 456), None);
    }

    #[test]
    fn fault_decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(7).with_drop_rate(0.3);
        let b = FaultPlan::seeded(7).with_drop_rate(0.3);
        let c = FaultPlan::seeded(8).with_drop_rate(0.3);
        let mut diff = 0;
        for i in 0..1000u64 {
            assert_eq!(a.transient_fault(3, i), b.transient_fault(3, i));
            if a.transient_fault(3, i) != c.transient_fault(3, i) {
                diff += 1;
            }
        }
        assert!(diff > 0, "different seeds must differ somewhere");
    }

    #[test]
    fn fault_rates_are_roughly_honored() {
        let p = FaultPlan::seeded(42)
            .with_drop_rate(0.1)
            .with_corrupt_rate(0.05);
        let mut drops = 0;
        let mut corrupts = 0;
        let n = 20_000u64;
        for i in 0..n {
            match p.transient_fault(1, i) {
                Some(TransientFault::Drop) => drops += 1,
                Some(TransientFault::Corrupt) => corrupts += 1,
                None => {}
            }
        }
        let dr = drops as f64 / n as f64;
        let cr = corrupts as f64 / n as f64;
        assert!((0.08..0.12).contains(&dr), "drop rate {dr}");
        assert!((0.035..0.065).contains(&cr), "corrupt rate {cr}");
    }

    #[test]
    fn backoff_grows_exponentially() {
        let r = RetryPolicy::default();
        assert_eq!(r.drop_penalty(1), r.drop_penalty(0) * 2);
        assert_eq!(r.drop_penalty(3), r.drop_penalty(0) * 8);
        assert!(r.nack_penalty() < r.drop_penalty(0));
    }

    #[test]
    fn death_times_cover_cables_and_nodes() {
        let dims = TorusDims::new(4, 4, 4);
        let t = SimTime(1000);
        let plan = FaultPlan::none()
            .fail_cable_at(
                Coord::new(0, 0, 0),
                LinkDir {
                    dim: Dim::X,
                    dir: Dir::Plus,
                },
                t,
            )
            .fail_node_at(Coord::new(2, 2, 2), SimTime(2000));
        let death = plan.link_death_times(dims);
        let idx = |c: Coord, l: LinkDir| c.node_id(dims).index() * 6 + l.index();
        assert_eq!(
            death[idx(
                Coord::new(0, 0, 0),
                LinkDir {
                    dim: Dim::X,
                    dir: Dir::Plus
                }
            )],
            Some(t)
        );
        assert_eq!(
            death[idx(
                Coord::new(1, 0, 0),
                LinkDir {
                    dim: Dim::X,
                    dir: Dir::Minus
                }
            )],
            Some(t)
        );
        // All 12 links touching the dead node die.
        let dead = Coord::new(2, 2, 2);
        for &l in &LinkDir::ALL {
            assert_eq!(death[idx(dead, l)], Some(SimTime(2000)));
            assert_eq!(
                death[idx(dead.step(l, dims), l.reverse())],
                Some(SimTime(2000))
            );
        }
        // Masks respect activation times.
        assert!(!plan.mask_at(dims, SimTime(999)).any_dead());
        assert_eq!(plan.mask_at(dims, SimTime(1000)).dead_links(), 2);
        assert_eq!(plan.mask_at(dims, SimTime(2000)).dead_links(), 14);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The definition the tables compute: one shift/xor step per bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut state = !0u32;
        for &b in bytes {
            state ^= b as u32;
            for _ in 0..8 {
                let mask = (state & 1).wrapping_neg();
                state = (state >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !state
    }

    #[test]
    fn table_crc32_equals_the_bitwise_definition() {
        let bytes: Vec<u8> = (0..300u64)
            .map(|i| (hash_unit(7, 0, i) * 256.0) as u8)
            .collect();
        for len in 0..=bytes.len() {
            assert_eq!(crc32(&bytes[..len]), crc32_bitwise(&bytes[..len]), "{len}");
        }
        // Streaming across a split gives the one-shot value.
        let block = &bytes[..64];
        for split in 0..=block.len() {
            let mut c = Crc32::new();
            c.update(&block[..split]);
            c.update(&block[split..]);
            assert_eq!(c.finish(), crc32(block), "split at {split}");
        }
        // One payload of each kind, pinned (these equal zlib's crc32 of
        // the kind tag followed by the little-endian contents).
        for (payload, want) in [
            (Payload::F64s(vec![1.0, 2.0]), 0x0d6d_6833),
            (Payload::I32s(vec![1, -2]), 0x1148_02ba),
            (Payload::Empty, 0xd202_ef8d),
            (Payload::Token(7), 0xfbb7_09f4),
            (Payload::Bytes(vec![1, 2, 3]), 0x21b0_4e98),
        ] {
            assert_eq!(payload_crc(&payload), want, "{payload:?}");
        }
    }

    #[test]
    fn payload_crc_distinguishes_kinds_and_contents() {
        let a = payload_crc(&Payload::I32s(vec![1, 2]));
        let b = payload_crc(&Payload::I32s(vec![2, 1]));
        let c = payload_crc(&Payload::Bytes(vec![1, 0, 0, 0, 2, 0, 0, 0]));
        assert_ne!(a, b);
        assert_ne!(a, c, "same bytes, different kind tag");
        assert_eq!(a, payload_crc(&Payload::I32s(vec![1, 2])));
    }
}
