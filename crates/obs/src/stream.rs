//! Streaming bounded-memory observability: mergeable sketches plus an
//! observer that folds lifecycles at delivery instead of keeping the
//! event stream.
//!
//! Every earlier observability layer (flight recording, causal graphs,
//! congestion maps) is O(events): fine on the paper's 512-node Anton 1
//! torus, fatal at the 10⁴-node scales the ROADMAP targets. This module
//! keeps the *same* Figure 6 attribution with O(nodes + links) state:
//!
//! - [`QuantileSketch`] — a DDSketch-style log-bucket histogram with
//!   **fixed** bucket boundaries (8 sub-buckets per power of two), so
//!   merging is an element-wise integer add: bit-deterministic,
//!   commutative, associative. Relative quantile error ≤ 1/8, well
//!   inside one [`crate::LogHistogram`] power-of-two bucket.
//! - [`StreamingMoments`] — count/sum/sum-of-squares kept as exact
//!   integers (no float accumulation), so merges are associative to the
//!   bit and the mean telescopes exactly against the offline
//!   [`crate::BreakdownSummary`].
//! - [`SpaceSavingTopK`] — bounded heavy-hitter table for per-link busy
//!   time. Per-shard streams evict (space-saving); merging is an exact
//!   union-sum, which stays bounded in sharded use because torus shards
//!   own disjoint links.
//! - [`Reservoir`] — seeded bottom-k priority sample of full
//!   [`PacketLifecycle`]s for causal/blame spot checks. The kept set
//!   depends only on (seed, packet id), never on arrival order, so
//!   shard merges reproduce the sequential sample bit-exactly.
//! - [`StreamObserver`] — the observer gluing it together: each
//!   unicast packet carries its lifecycle so far, a [`PacketTrail`], and
//!   the observer folds it into the 5-stage attribution at delivery
//!   (watermark-lazily, because the counter-visibility event lands at
//!   the same instant as delivery) and drops the events.
//!
//! Sharded runs attach one observer per slab. A trail travels inside its
//! packet, so the slab that delivers a packet holds its whole lifecycle
//! and folds it there: no slab keeps state for a packet it does not
//! hold, and per-slab summaries merge by adding.
//! [`StreamSummary::finalize`] then counts the unicast packets that never
//! folded. All aggregate state is order-independent, so the merged
//! summary equals the one-slab summary bit-for-bit — the cross-check
//! `scale_probe` asserts — and on every shard plan observer memory is
//! O(links plus packets in flight).

use crate::breakdown::{BreakdownSummary, FoldStats, PacketLifecycle, Stage};
use crate::memory::{MemScope, MemTag};
use crate::metrics::MetricsRegistry;
use crate::recorder::{FlightEvent, PacketId};
use anton_des::{SimDuration, SimTime};
use anton_topo::{LinkDir, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per power of two, i.e. a
/// worst-case relative bucket width of 1/8.
pub const SKETCH_SUB_BITS: u32 = 3;
const SUB: usize = 1 << SKETCH_SUB_BITS;
/// Total fixed bucket count of [`QuantileSketch`] (values 0..8 exactly,
/// then 8 sub-buckets for each of the 61 remaining u64 octaves).
pub const SKETCH_BUCKETS: usize = 8 + 61 * SUB;

/// Power-of-two bucket index of a picosecond value, matching the
/// [`crate::LogHistogram`] bucketing (`0 → 0`, else `64 - leading_zeros`).
/// Exposed so callers can assert "within one log-bucket" error bounds.
#[inline]
pub fn log2_bucket(ps: u64) -> u32 {
    64 - ps.leading_zeros()
}

/// A mergeable quantile sketch over picosecond durations with fixed
/// log-spaced bucket boundaries.
///
/// Because the boundaries are fixed (not data-dependent like a q-digest
/// collapse), two sketches merge by adding bucket counts element-wise:
/// the merge is bit-deterministic, commutative, and associative, and a
/// sharded run's merged sketch equals the sequential run's sketch
/// exactly. Count, sum, min, and max are exact; quantiles use the same
/// rank + midpoint rule as [`crate::LogHistogram`] but on buckets 8×
/// narrower.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    buckets: Vec<u64>,
    count: u64,
    sum_ps: u128,
    min_ps: u64,
    max_ps: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// New empty sketch. Allocates the full fixed bucket array
    /// (`SKETCH_BUCKETS` u64s ≈ 4 KiB) up front: footprint is constant,
    /// never data-dependent.
    pub fn new() -> QuantileSketch {
        QuantileSketch {
            buckets: vec![0; SKETCH_BUCKETS],
            count: 0,
            sum_ps: 0,
            min_ps: u64::MAX,
            max_ps: 0,
        }
    }

    /// Fixed bucket index of a picosecond value.
    #[inline]
    fn bucket_of(ps: u64) -> usize {
        if ps < 8 {
            return ps as usize;
        }
        let b = (64 - ps.leading_zeros()) as usize; // bit length, 4..=64
        let sub = ((ps >> (b - 4)) & 7) as usize; // low 3 of the top 4 bits
        (b - 3) * SUB + sub
    }

    /// Inclusive value range `[lo, hi]` covered by bucket `idx`.
    fn bucket_bounds(idx: usize) -> (u64, u64) {
        if idx < 8 {
            return (idx as u64, idx as u64);
        }
        let b = idx / SUB + 3; // bit length
        let sub = (idx % SUB) as u64;
        let scale = 1u64 << (b - 4);
        let lo = (8 + sub) * scale;
        (lo, lo + (scale - 1))
    }

    /// Record one duration.
    pub fn record(&mut self, d: SimDuration) {
        self.record_ps(d.as_ps());
    }

    /// Record one raw picosecond value.
    pub fn record_ps(&mut self, ps: u64) {
        self.buckets[Self::bucket_of(ps)] += 1;
        self.count += 1;
        self.sum_ps += ps as u128;
        self.min_ps = self.min_ps.min(ps);
        self.max_ps = self.max_ps.max(ps);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values, in picoseconds.
    pub fn sum_ps(&self) -> u128 {
        self.sum_ps
    }

    /// Exact mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_ps as f64 / self.count as f64 / 1e3
    }

    /// Smallest recorded value in picoseconds (`None` when empty).
    pub fn min_ps(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min_ps)
    }

    /// Largest recorded value in picoseconds (`None` when empty).
    pub fn max_ps(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max_ps)
    }

    /// Estimated quantile in picoseconds (`None` when empty). Exact at
    /// `q <= 0` (min) and `q >= 1` (max); otherwise within the one
    /// sub-bucket (≤ 1/8 relative width) that contains the rank sample.
    pub fn quantile_ps(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min_ps);
        }
        if q >= 1.0 {
            return Some(self.max_ps);
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                let frac = ((rank - seen) as f64 - 0.5) / n as f64;
                let est = lo as f64 + (hi - lo) as f64 * frac;
                let est = est.round() as u64;
                return Some(est.clamp(self.min_ps, self.max_ps));
            }
            seen += n;
        }
        Some(self.max_ps)
    }

    /// Estimated quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        self.quantile_ps(q).unwrap_or(0) as f64 / 1e3
    }

    /// Merge another sketch in: element-wise bucket add plus exact
    /// count/sum/min/max combination. Bit-deterministic in any order.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        self.min_ps = self.min_ps.min(other.min_ps);
        self.max_ps = self.max_ps.max(other.max_ps);
    }
}

/// Streaming count/mean/M2 moments kept as **exact integers** (count,
/// Σx, Σx² in picoseconds), so merging is a plain add: associative and
/// commutative to the bit, unlike Welford/Chan float updates. The mean
/// and variance are derived on read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamingMoments {
    count: u64,
    sum_ps: u128,
    /// Σx² saturates instead of wrapping: at u128 this needs ~10¹⁹
    /// samples of 200-day durations, but saturation keeps the merge
    /// law total anyway.
    sumsq_ps2: u128,
}

impl StreamingMoments {
    /// New empty accumulator.
    pub fn new() -> StreamingMoments {
        StreamingMoments::default()
    }

    /// Record one duration.
    pub fn record(&mut self, d: SimDuration) {
        let ps = d.as_ps();
        self.count += 1;
        self.sum_ps += ps as u128;
        self.sumsq_ps2 = self.sumsq_ps2.saturating_add((ps as u128) * (ps as u128));
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum in picoseconds.
    pub fn sum_ps(&self) -> u128 {
        self.sum_ps
    }

    /// Exact total as a [`SimDuration`]. Panics if the sum overflows
    /// u64 picoseconds (≫ 200 days of simulated latency).
    pub fn total(&self) -> SimDuration {
        SimDuration::from_ps(u64::try_from(self.sum_ps).expect("stage total overflows u64 ps"))
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_ps as f64 / self.count as f64 / 1e3
    }

    /// Population variance in ns² (0 when empty).
    pub fn variance_ns2(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean_ps = self.sum_ps as f64 / n;
        let var_ps2 = (self.sumsq_ps2 as f64 / n - mean_ps * mean_ps).max(0.0);
        var_ps2 / 1e6
    }

    /// Population standard deviation in nanoseconds.
    pub fn std_ns(&self) -> f64 {
        self.variance_ns2().sqrt()
    }

    /// Merge another accumulator in (exact integer adds).
    pub fn merge(&mut self, other: &StreamingMoments) {
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        self.sumsq_ps2 = self.sumsq_ps2.saturating_add(other.sumsq_ps2);
    }
}

/// One heavy-hitter table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TopKEntry {
    /// Estimated total weight (exact while the key never got evicted).
    pub count: u64,
    /// Maximum overestimation error inherited from evictions (0 means
    /// the count is exact).
    pub err: u64,
}

/// Space-saving heavy-hitter table with deterministic eviction and an
/// exact union-sum merge.
///
/// Streaming offers evict the smallest `(count, key)` entry when the
/// table is full (the classic space-saving bound: a kept count
/// overestimates by at most its `err`). Merging deliberately does *not*
/// evict — it is an exact union-sum, hence commutative and associative —
/// so a merged table can exceed `capacity`. In sharded torus use the
/// key sets are disjoint (each shard owns its links), so the union stays
/// O(links) and, when `capacity` ≥ distinct keys, every count is exact
/// and equals the offline [`crate::CongestionMap`] busy total.
#[derive(Debug, Clone)]
pub struct SpaceSavingTopK<K: Ord + Clone> {
    capacity: usize,
    entries: BTreeMap<K, TopKEntry>,
    /// `(count, key)` order for O(log n) min-eviction. Built from
    /// `entries` the first time a new key meets a full table and kept in
    /// step from then on, so a table that never fills pays for no index.
    order: Option<BTreeSet<(u64, K)>>,
}

/// Equal capacity and entries. The order index is a function of the
/// entries, so whether it has been built takes no part.
impl<K: Ord + Clone> PartialEq for SpaceSavingTopK<K> {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity && self.entries == other.entries
    }
}

impl<K: Ord + Clone> Eq for SpaceSavingTopK<K> {}

impl<K: Ord + Clone> SpaceSavingTopK<K> {
    /// New table holding at most `capacity` streamed keys (capacity 0
    /// disables recording).
    pub fn new(capacity: usize) -> SpaceSavingTopK<K> {
        SpaceSavingTopK {
            capacity,
            entries: BTreeMap::new(),
            order: None,
        }
    }

    /// Configured streaming capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Distinct keys currently held (may exceed capacity after merges).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no keys are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Estimated (count, max error) for a key.
    pub fn get(&self, key: &K) -> Option<TopKEntry> {
        self.entries.get(key).copied()
    }

    /// Add `weight` to `key`, evicting the smallest entry if the table
    /// is full and the key is new.
    pub fn offer(&mut self, key: K, weight: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(e) = self.entries.get_mut(&key) {
            if let Some(order) = &mut self.order {
                order.remove(&(e.count, key.clone()));
                order.insert((e.count + weight, key));
            }
            e.count += weight;
            return;
        }
        let mut entry = TopKEntry {
            count: weight,
            err: 0,
        };
        if self.entries.len() >= self.capacity {
            // Deterministic space-saving eviction: smallest (count, key).
            let entries = &self.entries;
            let order = self
                .order
                .get_or_insert_with(|| entries.iter().map(|(k, e)| (e.count, k.clone())).collect());
            let (min_count, min_key) = order.pop_first().expect("non-empty table at capacity");
            self.entries.remove(&min_key);
            entry.count += min_count;
            entry.err = min_count;
        }
        if let Some(order) = &mut self.order {
            order.insert((entry.count, key.clone()));
        }
        self.entries.insert(key, entry);
    }

    /// Merge another table in by exact union-sum (errors add; no
    /// eviction, so this is associative and commutative).
    pub fn merge(&mut self, other: &SpaceSavingTopK<K>) {
        for (k, e) in &other.entries {
            match self.entries.get_mut(k) {
                Some(mine) => {
                    if let Some(order) = &mut self.order {
                        order.remove(&(mine.count, k.clone()));
                        order.insert((mine.count + e.count, k.clone()));
                    }
                    mine.count += e.count;
                    mine.err += e.err;
                }
                None => {
                    if let Some(order) = &mut self.order {
                        order.insert((e.count, k.clone()));
                    }
                    self.entries.insert(k.clone(), *e);
                }
            }
        }
    }

    /// The `k` heaviest keys, sorted by count descending then key
    /// ascending (fully deterministic).
    pub fn top(&self, k: usize) -> Vec<(K, TopKEntry)> {
        let mut all: Vec<(K, TopKEntry)> =
            self.entries.iter().map(|(k, e)| (k.clone(), *e)).collect();
        all.sort_by(|a, b| b.1.count.cmp(&a.1.count).then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }
}

/// SplitMix64 — the stateless mixer used to derive reservoir priorities
/// from packet ids. Public so tests can reproduce priorities.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded bottom-k priority-sampling reservoir.
///
/// Each id gets a fixed pseudo-random priority `splitmix64(seed ^ id)`;
/// the reservoir keeps the `cap` items with the smallest priorities.
/// Unlike Vitter's algorithm R, the kept set is a pure function of the
/// offered id set — independent of arrival order — so shard merges
/// (union then re-trim) are commutative, associative, and reproduce the
/// sequential sample bit-exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservoir<T> {
    cap: usize,
    seed: u64,
    /// Keyed by (priority, id): unique per id, totally ordered.
    entries: BTreeMap<(u64, u64), T>,
}

impl<T> Reservoir<T> {
    /// New reservoir keeping at most `cap` items under `seed`.
    pub fn new(cap: usize, seed: u64) -> Reservoir<T> {
        Reservoir {
            cap,
            seed,
            entries: BTreeMap::new(),
        }
    }

    /// Maximum number of items kept.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Sampling seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Items currently kept.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is kept.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Offer one item; it is kept iff its priority is among the `cap`
    /// smallest seen so far. Returns the item the kept set leaves out:
    /// the offered one when it is not kept, else the one it evicts or
    /// replaces (`None` when nothing left).
    pub fn offer(&mut self, id: u64, value: T) -> Option<T> {
        if self.cap == 0 {
            return Some(value);
        }
        let pri = splitmix64(self.seed ^ id);
        if self.entries.len() >= self.cap {
            let &(worst, _) = self.entries.keys().next_back().expect("non-empty");
            if pri >= worst {
                return Some(value);
            }
        }
        if let Some(old) = self.entries.insert((pri, id), value) {
            return Some(old);
        }
        if self.entries.len() > self.cap {
            return self.entries.pop_last().map(|(_, v)| v);
        }
        None
    }

    /// Kept items in (priority, id) order.
    pub fn items(&self) -> impl Iterator<Item = &T> {
        self.entries.values()
    }

    /// Kept (id, item) pairs in (priority, id) order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &T)> {
        self.entries.iter().map(|(&(_, id), v)| (id, v))
    }
}

impl<T: Clone> Reservoir<T> {
    /// Merge another reservoir in: union of kept sets, re-trimmed to the
    /// bottom `cap` priorities. Requires matching seed and cap (asserted)
    /// so the priority spaces agree.
    pub fn merge(&mut self, other: &Reservoir<T>) {
        assert_eq!(self.seed, other.seed, "reservoir seeds differ");
        assert_eq!(self.cap, other.cap, "reservoir caps differ");
        for (k, v) in &other.entries {
            self.entries.insert(*k, v.clone());
        }
        while self.entries.len() > self.cap {
            self.entries.pop_last();
        }
    }
}

/// Full lifecycles a [`StreamObserver`] keeps for spot checks (the
/// bottom-k sample of its [`Reservoir`]).
pub const RESERVOIR: usize = 64;
/// Reservoir sampling seed (fixed, so every run keeps the same sample).
pub const RESERVOIR_SEED: u64 = 0x0162_0162_0162_0162;
/// Streaming capacity of the per-link heavy-hitter table (covers every
/// link of tori up to ~680 nodes exactly; beyond that the table
/// approximates).
pub const TOPK: usize = 4096;

/// The stream observer has no settings: its sample size, seed and
/// heavy-hitter capacity are [`RESERVOIR`], [`RESERVOIR_SEED`] and
/// [`TOPK`]. This fieldless value remains for the callers that still
/// pass one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamConfig;

/// One unicast packet's lifecycle so far, carried inside the packet
/// from injection to the slab that delivers it.
///
/// A counted remote write carries its synchronization state inside the
/// packet, so the receiver needs no second exchange (§III.B); the trail
/// does the same for observability. With the stream observer installed
/// the fabric opens one per unicast packet ([`StreamObserver::open_trail`]),
/// counts its retransmits, shows it to the observer at every hop, and
/// hands it over where the packet ends. The slab that delivers a packet
/// therefore holds its whole lifecycle and folds it there. A clone — the
/// ack-ambiguity fork — is a second copy with the history so far, and the
/// copy that is delivered is the one that folds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketTrail {
    issued: SimTime,
    inj_ready: SimTime,
    wire_ready: SimTime,
    hop_enters: Vec<SimTime>,
    retransmits: u32,
    /// Heading for a node of another slab: no observer counts the trail
    /// until it enters one.
    away: bool,
}

impl PacketTrail {
    /// Count one link-layer retransmission of the packet.
    pub fn retransmitted(&mut self) {
        self.retransmits += 1;
    }

    /// Modeled bytes of the hop list.
    fn hop_bytes(&self) -> u64 {
        (self.hop_enters.len() * std::mem::size_of::<SimTime>()) as u64
    }
}

/// A delivered packet waiting for the watermark to pass its instant.
#[derive(Debug)]
struct Pending {
    pkt: PacketId,
    src: NodeId,
    dst: NodeId,
    delivered: SimTime,
    fired: Option<SimTime>,
    payload_bytes: u32,
    trail: Box<PacketTrail>,
}

/// Nominal per-entry container overhead used by the deterministic
/// footprint model: intentionally round, not exact, and the same
/// whichever container holds the entry.
const MAP_OVERHEAD: u64 = 32;
/// Modeled bytes of the six fixed-size quantile sketches.
const SKETCH_BYTES: u64 = 6 * (SKETCH_BUCKETS * std::mem::size_of::<u64>()) as u64;
/// Modeled bytes of one heavy-hitter entry (map plus order index).
const TOPK_ENTRY_BYTES: u64 =
    std::mem::size_of::<((u32, u8), TopKEntry)>() as u64 + 2 * MAP_OVERHEAD;
/// Modeled bytes of one trail before its hop list: a nominal 112-byte
/// lifecycle record plus [`MAP_OVERHEAD`].
const TRAIL_BYTES: u64 = 112 + MAP_OVERHEAD;
/// Modeled bytes of one delivered packet waiting to fold: its 16-byte
/// `(node, instant)` delivery record, a 16-byte list entry and
/// [`MAP_OVERHEAD`].
const PENDING_BYTES: u64 = 16 + 16 + MAP_OVERHEAD;

/// Modeled bytes of one lifecycle kept in the reservoir.
fn kept_bytes(lc: &PacketLifecycle) -> u64 {
    (std::mem::size_of::<PacketLifecycle>() + lc.hop_enters.len() * std::mem::size_of::<SimTime>())
        as u64
        + MAP_OVERHEAD
}

/// The bounded-memory aggregate of one run (or one slab of one run).
///
/// Everything in here is mergeable: sketches and moments add, the
/// heavy-hitter table union-sums, the reservoir re-trims, and the fold
/// census and injection count add. After merging all slabs call
/// [`StreamSummary::finalize`] to count the packets that never folded; a
/// finalized merged summary is bit-identical to the finalized one-slab
/// summary of the same run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// Per-stage moments, pipeline order ([`Stage::ALL`]).
    pub stage_moments: [StreamingMoments; 5],
    /// Per-stage quantile sketches, pipeline order.
    pub stage_sketches: [QuantileSketch; 5],
    /// End-to-end latency moments.
    pub e2e_moments: StreamingMoments,
    /// End-to-end latency sketch.
    pub e2e_sketch: QuantileSketch,
    /// Per-link busy picoseconds, keyed `(node index, link index)`.
    pub link_busy: SpaceSavingTopK<(u32, u8)>,
    /// Seeded sample of full lifecycles.
    reservoir: Reservoir<PacketLifecycle>,
    /// [`kept_bytes`] summed over `reservoir`, kept in step with it.
    reservoir_bytes: u64,
    /// What was folded (complete) and what was skipped, matching the
    /// offline [`crate::fold_lifecycles`] classification. `incomplete`
    /// is set by [`StreamSummary::finalize`].
    pub fold: FoldStats,
    /// Total link-layer retransmissions over folded packets.
    pub retransmits: u64,
    /// Unicast packets injected: each one folds, or counts as incomplete.
    injected: u64,
}

impl StreamSummary {
    /// New empty summary.
    fn new() -> StreamSummary {
        StreamSummary {
            stage_moments: [StreamingMoments::new(); 5],
            stage_sketches: std::array::from_fn(|_| QuantileSketch::new()),
            e2e_moments: StreamingMoments::new(),
            e2e_sketch: QuantileSketch::new(),
            link_busy: SpaceSavingTopK::new(TOPK),
            reservoir: Reservoir::new(RESERVOIR, RESERVOIR_SEED),
            reservoir_bytes: 0,
            fold: FoldStats::default(),
            retransmits: 0,
            injected: 0,
        }
    }

    /// Seeded sample of full lifecycles.
    pub fn reservoir(&self) -> &Reservoir<PacketLifecycle> {
        &self.reservoir
    }

    /// Fold one complete unicast lifecycle into every aggregate.
    pub fn fold_lifecycle(&mut self, lc: PacketLifecycle) {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            let d = lc.stage(stage);
            self.stage_moments[i].record(d);
            self.stage_sketches[i].record(d);
        }
        let e2e = lc.end_to_end();
        self.e2e_moments.record(e2e);
        self.e2e_sketch.record(e2e);
        self.fold.complete += 1;
        self.retransmits += lc.retransmits as u64;
        self.reservoir_bytes += kept_bytes(&lc);
        if let Some(out) = self.reservoir.offer(lc.pkt.0, lc) {
            self.reservoir_bytes -= kept_bytes(&out);
        }
    }

    /// Merge another slab's summary in. Order-independent; call
    /// [`StreamSummary::finalize`] once after the last merge.
    pub fn merge(&mut self, other: StreamSummary) {
        for (a, b) in self.stage_moments.iter_mut().zip(&other.stage_moments) {
            a.merge(b);
        }
        for (a, b) in self.stage_sketches.iter_mut().zip(&other.stage_sketches) {
            a.merge(b);
        }
        self.e2e_moments.merge(&other.e2e_moments);
        self.e2e_sketch.merge(&other.e2e_sketch);
        self.link_busy.merge(&other.link_busy);
        self.reservoir.merge(&other.reservoir);
        self.reservoir_bytes = self.reservoir.items().map(kept_bytes).sum();
        self.fold.complete += other.fold.complete;
        self.fold.incomplete += other.fold.incomplete;
        self.fold.multicast += other.fold.multicast;
        self.retransmits += other.retransmits;
        self.injected += other.injected;
    }

    /// Count every unicast packet that never folded — lost, held, or
    /// still in flight — as incomplete, exactly like the offline
    /// [`crate::fold_lifecycles`]. A packet injected on one slab folds
    /// on the slab that delivers it, so only the summary of the whole
    /// machine balances: finalize that one.
    pub fn finalize(&mut self) {
        self.fold.incomplete = self
            .injected
            .checked_sub(self.fold.complete)
            .expect("more packets folded than injected: finalize the summary of every slab");
    }

    /// Exact total duration of one stage over all folded packets.
    pub fn stage_total(&self, stage: Stage) -> SimDuration {
        let idx = Stage::ALL.iter().position(|s| *s == stage).unwrap();
        self.stage_moments[idx].total()
    }

    /// Mean duration of one stage in nanoseconds.
    pub fn mean_ns(&self, stage: Stage) -> f64 {
        let idx = Stage::ALL.iter().position(|s| *s == stage).unwrap();
        self.stage_moments[idx].mean_ns()
    }

    /// The equivalent offline [`BreakdownSummary`]: because moment sums
    /// are exact integers, this equals
    /// [`BreakdownSummary::from_lifecycles`] over the same complete
    /// lifecycles bit-for-bit.
    pub fn breakdown(&self) -> BreakdownSummary {
        BreakdownSummary {
            packets: self.fold.complete,
            totals: std::array::from_fn(|i| self.stage_moments[i].total()),
            end_to_end: self.e2e_moments.total(),
        }
    }

    /// The `k` busiest links as `((node, link), entry)`, count order.
    pub fn hottest_links(&self, k: usize) -> Vec<((NodeId, LinkDir), TopKEntry)> {
        self.link_busy
            .top(k)
            .into_iter()
            .map(|((node, link), e)| ((NodeId(node), LinkDir::from_index(link as usize)), e))
            .collect()
    }

    /// Record the headline aggregates as metrics: fold counters,
    /// retransmits, and per-stage / end-to-end p50/p99 gauges (ns).
    pub fn record_metrics(&self, reg: &mut MetricsRegistry) {
        reg.set_counter("obs.stream.complete", self.fold.complete);
        reg.set_counter("obs.stream.incomplete", self.fold.incomplete);
        reg.set_counter("obs.stream.multicast", self.fold.multicast);
        reg.set_counter("obs.stream.retransmits", self.retransmits);
        reg.set_gauge("obs.stream.e2e_p50_ns", self.e2e_sketch.quantile_ns(0.5));
        reg.set_gauge("obs.stream.e2e_p99_ns", self.e2e_sketch.quantile_ns(0.99));
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            let name = match stage {
                Stage::SenderOverhead => "sender",
                Stage::Injection => "injection",
                Stage::RouterWire => "router_wire",
                Stage::Delivery => "delivery",
                Stage::Sync => "sync",
            };
            reg.set_gauge(
                &format!("obs.stream.{name}_p50_ns"),
                self.stage_sketches[i].quantile_ns(0.5),
            );
        }
    }

    /// Modeled bytes of the aggregates: the fixed sketches, the
    /// heavy-hitter table and the reservoir. O(1).
    fn aggregate_bytes(&self) -> u64 {
        SKETCH_BYTES + self.link_busy.len() as u64 * TOPK_ENTRY_BYTES + self.reservoir_bytes
    }
}

/// Deterministic footprint report of a [`StreamObserver`] after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamFootprint {
    /// Peak trails counted at once: those on the slab's nodes plus
    /// those waiting to fold.
    pub peak_partials: u64,
    /// Peak of the observer's modeled heap footprint
    /// ([`StreamObserver::approx_bytes`]), in bytes.
    pub peak_bytes: u64,
    /// Modeled footprint at the end of the run.
    pub final_bytes: u64,
}

impl StreamFootprint {
    /// Combine per-slab footprints (peaks max, finals add).
    pub fn combine(&mut self, other: &StreamFootprint) {
        self.peak_partials = self.peak_partials.max(other.peak_partials);
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
        self.final_bytes += other.final_bytes;
    }

    /// Record the footprint as gauges, normalized per node.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry, nodes: u64) {
        reg.set_gauge("obs.stream.peak_partials", self.peak_partials as f64);
        reg.set_gauge("obs.stream.peak_bytes", self.peak_bytes as f64);
        if nodes > 0 {
            reg.set_gauge(
                "obs.stream.peak_bytes_per_node",
                self.peak_bytes as f64 / nodes as f64,
            );
        }
    }
}

/// The bounded-memory observer: folds each delivered unicast packet's
/// [`PacketTrail`] into the 5-stage attribution and drops the events.
///
/// Trails fold **lazily behind a watermark**: the fabric reports the
/// synchronization-counter update at the *same instant* as the delivery
/// it belongs to, so a delivered trail waits until simulated time
/// strictly passes its delivery instant, then folds and frees. A trail
/// rides in its packet until then, so on every shard plan live state is
/// O(links plus packets in flight): an observer counts the trails on its
/// slab's nodes plus those waiting to fold, and a trail that crosses to
/// another slab's node leaves its count. Multicast packets carry no
/// trail; they are counted at injection, as the offline fold skips them.
#[derive(Debug)]
pub struct StreamObserver {
    agg: StreamSummary,
    /// `nodes[i]`: node `i` belongs to this observer's slab. `None`
    /// observes the whole machine.
    nodes: Option<Vec<bool>>,
    /// Trails counted: on the slab's nodes, or waiting to fold.
    trails: u64,
    /// Modeled hop-list bytes of the counted trails.
    trail_hop_bytes: u64,
    /// Delivered packets waiting for the watermark to pass their
    /// instant. Each was pushed after its `Deliver` raised the watermark to
    /// at least its instant, so every rise of the watermark folds all of
    /// them.
    pending: Vec<Pending>,
    watermark_ps: u64,
    peak_trails: u64,
    peak_bytes: u64,
}

impl StreamObserver {
    /// New observer of the whole machine.
    pub(crate) fn new() -> StreamObserver {
        StreamObserver {
            agg: StreamSummary::new(),
            nodes: None,
            trails: 0,
            trail_hop_bytes: 0,
            pending: Vec::new(),
            watermark_ps: 0,
            peak_trails: 0,
            peak_bytes: 0,
        }
    }

    /// New observer of one slab: `nodes[i]` is true for the nodes the
    /// slab owns, whose trails it counts.
    pub fn for_slab(nodes: Vec<bool>) -> StreamObserver {
        StreamObserver {
            nodes: Some(nodes),
            ..StreamObserver::new()
        }
    }

    /// Fold one flight event. The observer ticks on the events of a
    /// packet's way to its delivery and on phase marks: it raises its
    /// watermark to the event's time ([`FlightEvent::at`]), folding every
    /// delivery waiting behind it, and samples its footprint peak.
    /// `HopExit`, the recovery verdicts and re-injections, suppressed
    /// duplicates and discarded copies pass without a tick.
    pub fn record(&mut self, ev: &FlightEvent) {
        let _scope = MemScope::new(MemTag::Obs);
        match *ev {
            FlightEvent::Inject { dst, at, .. } => {
                self.tick(at);
                match dst {
                    Some(_) => self.agg.injected += 1,
                    None => self.agg.fold.multicast += 1,
                }
            }
            FlightEvent::LinkReserve {
                node,
                link,
                start,
                end,
                ..
            } => {
                self.tick(start);
                self.agg
                    .link_busy
                    .offer((node.0, link.index() as u8), end.since(start).as_ps());
            }
            FlightEvent::CounterUpdate {
                pkt, at, fire_at, ..
            } => {
                self.tick(at);
                if let Some(f) = fire_at {
                    // The delivery this update belongs to was just pushed.
                    if let Some(p) = self.pending.iter_mut().rev().find(|p| p.pkt == pkt) {
                        p.fired = Some(p.fired.map_or(f, |old| old.min(f)));
                    }
                }
            }
            FlightEvent::Retransmit { at, .. }
            | FlightEvent::HopEnter { at, .. }
            | FlightEvent::Deliver { at, .. }
            | FlightEvent::Phase { at, .. }
            | FlightEvent::Lost { at, .. } => self.tick(at),
            FlightEvent::HopExit { .. }
            | FlightEvent::LinkDown { .. }
            | FlightEvent::NodeDown { .. }
            | FlightEvent::Reinject { .. }
            | FlightEvent::DuplicateSuppressed { .. }
            | FlightEvent::Discarded { .. } => {}
        }
    }

    /// Current modeled heap footprint in bytes: the aggregates, the
    /// counted trails and the pending deliveries. A size *model*
    /// (element counts × nominal entry sizes), not an allocator
    /// measurement — pair with [`crate::memory`] for the real numbers —
    /// so it is deterministic across runs and budgets on it are
    /// CI-gateable. O(1): the reservoir's and the trails' vector bytes
    /// are counters kept in step with their containers, so every tick
    /// reads it for the peak.
    pub fn approx_bytes(&self) -> u64 {
        self.agg.aggregate_bytes()
            + self.trails * TRAIL_BYTES
            + self.trail_hop_bytes
            + self.pending.len() as u64 * PENDING_BYTES
    }

    /// Footprint report (peaks over the whole run).
    pub fn footprint(&self) -> StreamFootprint {
        StreamFootprint {
            peak_partials: self.peak_trails,
            peak_bytes: self.peak_bytes,
            final_bytes: self.approx_bytes(),
        }
    }

    /// The aggregate state, consuming the observer; deliveries still
    /// waiting for the watermark fold first. Merge every slab's summary,
    /// then [`StreamSummary::finalize`] the result.
    pub fn into_summary(mut self) -> StreamSummary {
        let _scope = MemScope::new(MemTag::Obs);
        self.flush_ready();
        self.agg
    }

    /// A trail for a unicast packet injected on this slab, after its
    /// [`FlightEvent::Inject`] was recorded. Allocated under
    /// [`MemTag::Obs`].
    pub fn open_trail(
        &mut self,
        issued: SimTime,
        inj_ready: SimTime,
        wire_ready: SimTime,
    ) -> Box<PacketTrail> {
        let _scope = MemScope::new(MemTag::Obs);
        self.trails += 1;
        self.note_peak_trails();
        Box::new(PacketTrail {
            issued,
            inj_ready,
            wire_ready,
            hop_enters: Vec::new(),
            retransmits: 0,
            away: false,
        })
    }

    /// The trail's packet entered one of this slab's nodes at `at`
    /// (after its [`FlightEvent::HopEnter`]); a trail from another slab
    /// joins the count.
    pub fn trail_enters(&mut self, trail: &mut PacketTrail, at: SimTime) {
        let _scope = MemScope::new(MemTag::Obs);
        if trail.away {
            trail.away = false;
            self.count(trail);
        }
        trail.hop_enters.push(at);
        self.trail_hop_bytes += std::mem::size_of::<SimTime>() as u64;
    }

    /// The trail's packet left for `next`: heading for another slab's
    /// node, it leaves this slab's count.
    pub fn trail_heads_to(&mut self, trail: &mut PacketTrail, next: NodeId) {
        let mine = self.nodes.as_ref().is_none_or(|nodes| nodes[next.index()]);
        if !mine {
            trail.away = true;
            self.trails -= 1;
            self.trail_hop_bytes -= trail.hop_bytes();
        }
    }

    /// A copy of a packet was forked here carrying a clone of its trail
    /// (the ack-ambiguity duplicate): count the copy.
    pub fn trail_forked(&mut self, trail: &PacketTrail) {
        self.count(trail);
    }

    /// The packet ended without a delivery — lost, suppressed as a
    /// duplicate, or discarded — so its trail is freed unfolded.
    pub fn close_trail(&mut self, trail: Box<PacketTrail>) {
        let _scope = MemScope::new(MemTag::Obs);
        self.trails -= 1;
        self.trail_hop_bytes -= trail.hop_bytes();
        drop(trail);
    }

    /// The unicast packet `pkt` from `src` was delivered at `dst` at
    /// `delivered` (after its [`FlightEvent::Deliver`]): its trail waits
    /// for the watermark to pass that instant, then folds.
    pub fn fold_trail(
        &mut self,
        pkt: PacketId,
        src: NodeId,
        dst: NodeId,
        delivered: SimTime,
        payload_bytes: u32,
        trail: Box<PacketTrail>,
    ) {
        let _scope = MemScope::new(MemTag::Obs);
        self.pending.push(Pending {
            pkt,
            src,
            dst,
            delivered,
            fired: None,
            payload_bytes,
            trail,
        });
    }

    #[inline]
    fn tick(&mut self, at: SimTime) {
        let t = at.as_ps();
        if t > self.watermark_ps {
            self.watermark_ps = t;
            self.flush_ready();
        }
        let bytes = self.approx_bytes();
        if bytes > self.peak_bytes {
            self.peak_bytes = bytes;
        }
    }

    /// Fold every pending delivery: the watermark just rose past all
    /// their instants, so all of their events (including the
    /// same-instant counter update) have been seen.
    fn flush_ready(&mut self) {
        let mut ready = std::mem::take(&mut self.pending);
        for p in ready.drain(..) {
            let trail = *p.trail;
            self.trails -= 1;
            self.trail_hop_bytes -= trail.hop_bytes();
            self.agg.fold_lifecycle(PacketLifecycle {
                pkt: p.pkt,
                src: p.src,
                dst: p.dst,
                issued: trail.issued,
                inj_ready: trail.inj_ready,
                wire_ready: trail.wire_ready,
                hop_enters: trail.hop_enters,
                delivered: p.delivered,
                fired: p.fired,
                retransmits: trail.retransmits,
                payload_bytes: p.payload_bytes,
            });
        }
        self.pending = ready;
    }

    /// Count a trail that arrived on this slab.
    fn count(&mut self, trail: &PacketTrail) {
        self.trails += 1;
        self.trail_hop_bytes += trail.hop_bytes();
        self.note_peak_trails();
    }

    fn note_peak_trails(&mut self) {
        if self.trails > self.peak_trails {
            self.peak_trails = self.trails;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakdown::fold_lifecycles;
    use crate::metrics::LogHistogram;
    use crate::recorder::{ev, LossCause, VerdictCause};

    #[test]
    fn sketch_buckets_partition_u64() {
        // Boundaries tile: every bucket's hi + 1 is the next bucket's lo.
        for idx in 0..SKETCH_BUCKETS - 1 {
            let (_, hi) = QuantileSketch::bucket_bounds(idx);
            let (next_lo, _) = QuantileSketch::bucket_bounds(idx + 1);
            assert_eq!(hi + 1, next_lo, "gap after bucket {idx}");
        }
        let (_, top) = QuantileSketch::bucket_bounds(SKETCH_BUCKETS - 1);
        assert_eq!(top, u64::MAX);
        // bucket_of lands inside its own bounds.
        for ps in [0, 1, 7, 8, 15, 16, 100, 1_000, u64::MAX / 3, u64::MAX] {
            let idx = QuantileSketch::bucket_of(ps);
            let (lo, hi) = QuantileSketch::bucket_bounds(idx);
            assert!(lo <= ps && ps <= hi, "ps {ps} outside bucket {idx}");
        }
    }

    #[test]
    fn sketch_relative_error_bounded() {
        let mut sk = QuantileSketch::new();
        let vals: Vec<u64> = (0..10_000u64).map(|i| 500 + i * 37).collect();
        for &v in &vals {
            sk.record_ps(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.1, 0.5, 0.9, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let exact = sorted[rank - 1] as f64;
            let est = sk.quantile_ps(q).unwrap() as f64;
            assert!(
                (est - exact).abs() <= exact / 8.0 + 1.0,
                "q={q}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(sk.quantile_ps(0.0), Some(*sorted.first().unwrap()));
        assert_eq!(sk.quantile_ps(1.0), Some(*sorted.last().unwrap()));
    }

    #[test]
    fn sketch_within_one_log_bucket_of_exact_histogram() {
        let mut sk = QuantileSketch::new();
        let mut hist = LogHistogram::new();
        for i in 0..5_000u64 {
            let v = 1 + (i * i) % 2_000_000;
            sk.record_ps(v);
            hist.record(SimDuration::from_ps(v));
        }
        for q in [0.5, 0.9, 0.99] {
            let a = log2_bucket(sk.quantile_ps(q).unwrap());
            let b = log2_bucket(hist.quantile(q).unwrap().as_ps());
            assert!(
                a.abs_diff(b) <= 1,
                "q={q}: sketch bucket {a} vs exact bucket {b}"
            );
        }
    }

    #[test]
    fn topk_exact_when_under_capacity() {
        let mut t = SpaceSavingTopK::new(8);
        t.offer("a", 5);
        t.offer("b", 3);
        t.offer("a", 2);
        let top = t.top(2);
        assert_eq!(top[0], ("a", TopKEntry { count: 7, err: 0 }));
        assert_eq!(top[1], ("b", TopKEntry { count: 3, err: 0 }));
    }

    #[test]
    fn topk_eviction_overestimates_boundedly() {
        let mut t = SpaceSavingTopK::new(2);
        t.offer(1u32, 10);
        t.offer(2, 1);
        t.offer(3, 5); // evicts key 2 (count 1): count 6, err 1
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&3), Some(TopKEntry { count: 6, err: 1 }));
        assert_eq!(t.get(&1), Some(TopKEntry { count: 10, err: 0 }));
    }

    #[test]
    fn reservoir_is_order_independent() {
        let mut fwd = Reservoir::new(4, 99);
        let mut rev = Reservoir::new(4, 99);
        for id in 0..100u64 {
            fwd.offer(id, id);
        }
        for id in (0..100u64).rev() {
            rev.offer(id, id);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.len(), 4);
    }

    /// The fabric's side, for tests: every event goes to a flight record
    /// and to a stream observer, and the observer also gets the trail
    /// calls the fabric makes around them.
    struct Both {
        flight: Vec<FlightEvent>,
        stream: StreamObserver,
    }

    impl Both {
        fn new() -> Both {
            Both {
                flight: Vec::new(),
                stream: StreamObserver::new(),
            }
        }

        fn record(&mut self, ev: FlightEvent) {
            self.stream.record(&ev);
            self.flight.push(ev);
        }

        /// Inject `pkt` at `src` with anchors `[issued, inj_ready,
        /// wire_ready]` in ns; a unicast packet gets its trail.
        fn inject(
            &mut self,
            pkt: u64,
            src: u32,
            dst: Option<u32>,
            anchors: [u64; 3],
            bytes: u32,
        ) -> Option<Box<PacketTrail>> {
            let [issued, inj_ready, wire_ready] = anchors;
            let ports = [issued, inj_ready, inj_ready, wire_ready];
            self.record(ev::inject(pkt, src, dst, ports, bytes));
            let [issued, inj_ready, wire_ready] = anchors.map(SimTime::from_ns);
            dst.map(|_| self.stream.open_trail(issued, inj_ready, wire_ready))
        }

        fn hop(&mut self, pkt: u64, trail: Option<&mut PacketTrail>, node: u32, at: u64) {
            self.record(ev::hop_enter(pkt, node, at));
            if let Some(trail) = trail {
                self.stream.trail_enters(trail, SimTime::from_ns(at));
            }
        }

        fn deliver(
            &mut self,
            pkt: u64,
            trail: Option<Box<PacketTrail>>,
            src: u32,
            node: u32,
            at: u64,
            fired: Option<u64>,
        ) {
            self.record(ev::deliver(pkt, node, at));
            if let Some(trail) = trail {
                let (src, node, at) = (NodeId(src), NodeId(node), SimTime::from_ns(at));
                self.stream
                    .fold_trail(PacketId(pkt), src, node, at, 32, trail);
            }
            self.record(ev::counter(pkt, node, 3, at, fired));
        }

        fn phase(&mut self, at: u64) {
            self.record(FlightEvent::Phase {
                label: "next".into(),
                at: SimTime::from_ns(at),
            });
        }
    }

    /// Drive one packet through the observer exactly as the fabric
    /// would, and cross-check against the offline fold.
    #[test]
    fn observer_matches_offline_fold() {
        let mut both = Both::new();
        let mut trail = both.inject(7, 0, Some(1), [0, 36, 55], 32);
        both.hop(7, trail.as_deref_mut(), 1, 95);
        both.deliver(7, trail, 0, 1, 120, Some(162));
        // A later event moves the watermark past the delivery.
        both.phase(200);
        let (lifecycles, stats) = fold_lifecycles(&both.flight);
        let exact = BreakdownSummary::from_lifecycles(&lifecycles);
        // The watermark flush already folded it: nothing is left.
        assert_eq!((both.stream.trails, both.stream.pending.len()), (0, 0));
        let mut summary = both.stream.into_summary();
        summary.finalize();
        assert_eq!(summary.fold, stats);
        assert_eq!(summary.breakdown(), exact);
        let kept: Vec<_> = summary.reservoir().items().collect();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0], &lifecycles[0]);
    }

    /// The observer ticks on the events of a packet's way to its
    /// delivery and on phase marks, and on nothing else. A delivery
    /// waiting for the watermark stays pending through a hop exit, a
    /// link and a node verdict, a re-injection, a suppressed duplicate
    /// and a discarded copy, all stamped later, and none of them samples
    /// the footprint peak; a later phase mark folds it.
    #[test]
    fn only_forward_path_events_and_phase_marks_tick() {
        let t = SimTime::from_ns;
        let mut both = Both::new();
        let trail = both.inject(7, 0, Some(1), [0, 36, 55], 32);
        both.deliver(7, trail, 0, 1, 120, Some(162));
        // Issued at the delivery instant, so the watermark stays put;
        // its trail lifts the footprint past the sampled peak, and any
        // tick from here on would sample it.
        let in_flight = both.inject(8, 2, Some(3), [120, 130, 140], 16);
        let peak = both.stream.footprint().peak_bytes;
        assert!(both.stream.approx_bytes() > peak);
        let (pkt, node) = (PacketId(8), NodeId(2));
        let link = LinkDir::from_index(0);
        for ev in [
            FlightEvent::HopExit {
                pkt,
                node,
                at: t(300),
            },
            FlightEvent::LinkDown {
                node,
                link,
                cause: VerdictCause::Heartbeat,
                at: t(310),
            },
            FlightEvent::NodeDown { node, at: t(320) },
            FlightEvent::Reinject {
                pkt,
                node,
                attempt: 1,
                at: t(330),
            },
            FlightEvent::DuplicateSuppressed {
                pkt: PacketId(7),
                node: NodeId(1),
                at: t(340),
            },
            FlightEvent::Discarded {
                pkt: PacketId(9),
                node: NodeId(1),
                at: t(350),
            },
        ] {
            both.stream.record(&ev);
            assert_eq!(both.stream.pending.len(), 1, "{ev:?} folded the delivery");
            assert_eq!(both.stream.footprint().peak_bytes, peak, "{ev:?} sampled");
        }
        both.phase(400);
        assert!(both.stream.pending.is_empty());
        assert_eq!(both.stream.agg.fold.complete, 1);
        drop(in_flight);
    }

    /// One packet's path, split over the observers `owner` assigns each
    /// node to: injected at node 0, one hop to node 4, across to node 9
    /// and delivered there. Each step runs on the observer owning its
    /// node, as it would on that node's slab.
    fn cross_path(obs: &mut [StreamObserver], owner: fn(u32) -> usize) {
        let t = SimTime::from_ns;
        obs[owner(0)].record(&ev::inject(1, 0, Some(9), [0, 30, 30, 50], 32));
        let mut trail = obs[owner(0)].open_trail(t(0), t(30), t(50));
        obs[owner(0)].record(&ev::reserve(1, 0, 0, [50, 50, 90]));
        obs[owner(0)].trail_heads_to(&mut trail, NodeId(4));
        obs[owner(4)].record(&ev::hop_enter(1, 4, 90));
        obs[owner(4)].trail_enters(&mut trail, t(90));
        obs[owner(4)].record(&ev::reserve(1, 4, 0, [100, 100, 140]));
        obs[owner(4)].trail_heads_to(&mut trail, NodeId(9));
        obs[owner(9)].record(&ev::hop_enter(1, 9, 150));
        obs[owner(9)].trail_enters(&mut trail, t(150));
        obs[owner(9)].record(&ev::deliver(1, 9, 200));
        obs[owner(9)].fold_trail(PacketId(1), NodeId(0), NodeId(9), t(200), 32, trail);
        obs[owner(9)].record(&ev::counter(1, 9, 3, 200, Some(240)));
        let end = FlightEvent::Phase {
            label: "end".into(),
            at: t(500),
        };
        for o in obs.iter_mut() {
            o.record(&end);
        }
    }

    /// A packet that crosses slabs folds on the slab that delivers it:
    /// its trail leaves the source slab's count as it heads across and
    /// joins the destination's as it enters. The merged summary equals
    /// one observer of the whole machine, and each slab counted the
    /// trail only while it held it.
    #[test]
    fn a_trail_folds_on_the_slab_that_delivers_it() {
        let mut whole = [StreamObserver::new()];
        cross_path(&mut whole, |_| 0);
        let halves = |low: bool| (0..10).map(|i| (i < 5) == low).collect();
        let mut slabs = [
            StreamObserver::for_slab(halves(true)),
            StreamObserver::for_slab(halves(false)),
        ];
        cross_path(&mut slabs, |node| usize::from(node >= 5));
        for slab in &slabs {
            assert_eq!((slab.trails, slab.trail_hop_bytes), (0, 0));
            assert_eq!(slab.footprint().peak_partials, 1);
        }
        let [src, dst] = slabs;
        let (src, dst) = (src.into_summary(), dst.into_summary());
        assert_eq!((src.fold.complete, dst.fold.complete), (0, 1));
        let mut merged = src;
        merged.merge(dst);
        merged.finalize();
        let [whole] = whole;
        let mut one = whole.into_summary();
        one.finalize();
        assert_eq!(merged, one);
        assert_eq!(one.fold.complete, 1);
        let lc = one.reservoir().items().next().expect("kept");
        assert_eq!(lc.hop_enters, [SimTime::from_ns(90), SimTime::from_ns(150)]);
    }

    #[test]
    fn multicast_and_incomplete_classified_like_offline_fold() {
        let mut both = Both::new();
        // Multicast: dst None, two deliveries, no trail.
        assert!(both.inject(1, 0, None, [0, 10, 20], 16).is_none());
        both.deliver(1, None, 0, 2, 50, None);
        both.deliver(1, None, 0, 3, 60, None);
        // Incomplete: injected, never delivered.
        let in_flight = both.inject(2, 4, Some(5), [0, 10, 20], 16);
        both.phase(1_000);
        let (_, stats) = fold_lifecycles(&both.flight);
        assert_eq!(
            both.stream.trails, 1,
            "the undelivered packet still holds its trail"
        );
        drop(in_flight);
        let mut summary = both.stream.into_summary();
        summary.finalize();
        assert_eq!(summary.fold, stats);
        assert_eq!(summary.fold.multicast, 1);
        assert_eq!(summary.fold.incomplete, 1);
    }

    #[test]
    fn footprint_is_bounded_and_tracked() {
        let mut both = Both::new();
        for i in 0..1_000u64 {
            let at = 10 * i;
            let trail = both.inject(i, 0, Some(1), [at; 3], 16);
            both.deliver(i, trail, 0, 1, at + 5, None);
        }
        both.phase(1_000_000);
        let obs = both.stream;
        let fp = obs.footprint();
        // Watermark folding keeps live trails to the in-flight few, not
        // the thousand folded packets.
        assert!(fp.peak_partials <= 4, "peak partials {}", fp.peak_partials);
        let mut s = obs.into_summary();
        s.finalize();
        assert_eq!(s.fold.complete, 1_000);
        assert_eq!(s.reservoir().len(), RESERVOIR);
        assert!(fp.peak_bytes < 128 * 1024, "peak bytes {}", fp.peak_bytes);
    }

    /// The footprint model computed by walking every container: the
    /// reference the O(1) [`StreamObserver::approx_bytes`] must equal.
    /// `in_flight` are the trails the observer counts that ride in
    /// packets; the pending deliveries hold the rest.
    fn walked_bytes<'a>(
        obs: &StreamObserver,
        in_flight: impl Iterator<Item = &'a PacketTrail>,
    ) -> u64 {
        use std::mem::size_of;
        let agg = &obs.agg;
        let sketches =
            (agg.stage_sketches.len() + 1) as u64 * (SKETCH_BUCKETS * size_of::<u64>()) as u64;
        let topk = agg.link_busy.len() as u64
            * (size_of::<((u32, u8), TopKEntry)>() as u64 + 2 * MAP_OVERHEAD);
        let reservoir: u64 = agg
            .reservoir
            .items()
            .map(|lc| {
                size_of::<PacketLifecycle>() as u64
                    + (lc.hop_enters.len() * size_of::<SimTime>()) as u64
                    + MAP_OVERHEAD
            })
            .sum();
        let trail =
            |t: &PacketTrail| TRAIL_BYTES + (t.hop_enters.len() * size_of::<SimTime>()) as u64;
        let flying: u64 = in_flight.map(trail).sum();
        let pending: u64 = obs
            .pending
            .iter()
            .map(|p| trail(&p.trail) + PENDING_BYTES)
            .sum();
        sketches + topk + reservoir + flying + pending
    }

    /// A synthesized stream past the reservoir's and the heavy-hitter
    /// table's capacity: a hundred overlapping unicast packets over 5,000
    /// distinct links, retransmits, a forked copy suppressed as a
    /// duplicate, a lost packet, a multicast packet and a packet never
    /// delivered. After every event and trail call the cached footprint
    /// equals the walked one.
    #[test]
    fn footprint_matches_the_walked_reference() {
        const PACKETS: u64 = 100;
        const LINKS_EACH: u64 = 50;
        let t = SimTime::from_ns;
        let mut both = Both::new();
        let mut flying: BTreeMap<u64, Box<PacketTrail>> = BTreeMap::new();
        let mut steps = 0;
        let mut check = |both: &Both, flying: &BTreeMap<u64, Box<PacketTrail>>| {
            steps += 1;
            let walked = walked_bytes(&both.stream, flying.values().map(|t| &**t));
            assert_eq!(both.stream.approx_bytes(), walked, "after step {steps}");
            assert_eq!(
                both.stream.trails as usize,
                flying.len() + both.stream.pending.len()
            );
        };
        for i in 0..PACKETS {
            let at = 50 * i;
            let trail = both.inject(i, i as u32 % 8, Some(9), [at, at + 10, at + 20], 32);
            flying.insert(i, trail.expect("unicast"));
            check(&both, &flying);
            // Each packet reserves links no other packet does: the
            // table fills at 4,096 and evicts from then on.
            for k in 0..LINKS_EACH {
                let key = i * LINKS_EACH + k;
                let (node, link) = ((key / 6) as u32, (key % 6) as usize);
                both.record(ev::reserve(i, node, link, [at + 20, at + 25, at + 60]));
                check(&both, &flying);
            }
            if i % 7 == 0 {
                both.record(FlightEvent::Retransmit {
                    pkt: PacketId(i),
                    node: NodeId(0),
                    link: LinkDir::from_index(0),
                    attempt: 1,
                    at: t(at + 30),
                });
                flying.get_mut(&i).unwrap().retransmitted();
                check(&both, &flying);
            }
            // Up to three hops, so packets overlap in flight.
            for h in 0..(i % 4) {
                let trail = flying.get_mut(&i).map(|t| &mut **t);
                both.hop(i, trail, h as u32, at + 70 + 40 * h);
                check(&both, &flying);
            }
            if i == 13 {
                // An ack-ambiguity fork: the copy counts until it is
                // suppressed as a duplicate.
                let copy = flying[&i].clone();
                both.stream.trail_forked(&copy);
                flying.insert(1_000 + i, copy);
                check(&both, &flying);
            }
            if i == 20 {
                both.record(FlightEvent::Lost {
                    pkt: PacketId(i),
                    node: NodeId(3),
                    cause: LossCause::NoRoute,
                    at: t(at + 150),
                });
                both.stream.close_trail(flying.remove(&i).unwrap());
                check(&both, &flying);
                continue;
            }
            let trail = flying.remove(&i);
            both.deliver(i, trail, i as u32 % 8, 9, at + 200, Some(at + 240));
            check(&both, &flying);
            if i == 13 {
                let copy = flying.remove(&(1_000 + i)).unwrap();
                both.record(FlightEvent::DuplicateSuppressed {
                    pkt: PacketId(i),
                    node: NodeId(9),
                    at: t(at + 260),
                });
                both.stream.close_trail(copy);
                check(&both, &flying);
            }
        }
        let end = 50 * PACKETS + 1_000;
        assert!(both
            .inject(PACKETS, 0, None, [end, end + 10, end + 20], 16)
            .is_none());
        check(&both, &flying);
        for (node, at) in [(2, end + 100), (3, end + 150)] {
            both.deliver(PACKETS, None, 0, node, at, None);
            check(&both, &flying);
        }
        let never = both.inject(
            PACKETS + 1,
            4,
            Some(5),
            [end + 200, end + 210, end + 220],
            16,
        );
        flying.insert(PACKETS + 1, never.expect("unicast"));
        check(&both, &flying);
        both.hop(
            PACKETS + 1,
            flying.get_mut(&(PACKETS + 1)).map(|t| &mut **t),
            5,
            end + 300,
        );
        check(&both, &flying);
        both.phase(end + 10_000);
        check(&both, &flying);

        // Both tables really overflowed.
        let obs = both.stream;
        assert_eq!(obs.agg.reservoir.len(), RESERVOIR);
        assert_eq!(obs.agg.link_busy.len(), TOPK);
        assert!(obs.agg.link_busy.top(TOPK).iter().any(|(_, e)| e.err > 0));
        assert!(obs.footprint().peak_bytes >= walked_bytes(&obs, flying.values().map(|t| &**t)));
        let mut s = obs.into_summary();
        s.finalize();
        assert_eq!(
            s.fold,
            FoldStats {
                complete: PACKETS - 1,
                incomplete: 2,
                multicast: 1,
            }
        );
        let walked: u64 = s.reservoir.items().map(kept_bytes).sum();
        assert_eq!(s.reservoir_bytes, walked);
    }

    /// The space-saving table as it was before its order index became
    /// lazy: the index kept in step with every offer and merge. The
    /// reference the lazy table must agree with.
    struct EagerTopK {
        capacity: usize,
        entries: BTreeMap<u32, TopKEntry>,
        order: BTreeSet<(u64, u32)>,
    }

    impl EagerTopK {
        fn new(capacity: usize) -> EagerTopK {
            EagerTopK {
                capacity,
                entries: BTreeMap::new(),
                order: BTreeSet::new(),
            }
        }

        fn offer(&mut self, key: u32, weight: u64) {
            if let Some(e) = self.entries.get_mut(&key) {
                self.order.remove(&(e.count, key));
                e.count += weight;
                self.order.insert((e.count, key));
                return;
            }
            let mut entry = TopKEntry {
                count: weight,
                err: 0,
            };
            if self.entries.len() >= self.capacity {
                let (min_count, min_key) = self.order.pop_first().expect("full table");
                self.entries.remove(&min_key);
                entry.count += min_count;
                entry.err = min_count;
            }
            self.order.insert((entry.count, key));
            self.entries.insert(key, entry);
        }

        fn merge(&mut self, other: &EagerTopK) {
            for (&k, e) in &other.entries {
                match self.entries.get_mut(&k) {
                    Some(mine) => {
                        self.order.remove(&(mine.count, k));
                        mine.count += e.count;
                        mine.err += e.err;
                        self.order.insert((mine.count, k));
                    }
                    None => {
                        self.entries.insert(k, *e);
                        self.order.insert((e.count, k));
                    }
                }
            }
        }

        fn agrees_with(&self, lazy: &SpaceSavingTopK<u32>) -> bool {
            lazy.entries == self.entries
                && lazy.order.as_ref().is_none_or(|order| *order == self.order)
        }
    }

    /// Random offers that cross the capacity, merges into an unindexed
    /// and an indexed table, and more offers after each: the lazy table
    /// holds the eager reference's entries (and, once built, its index)
    /// at every step, and builds no index before the table first fills.
    #[test]
    fn lazy_topk_matches_the_eager_reference() {
        let mut rng = 0u64;
        let mut draw = move || {
            rng = splitmix64(rng);
            ((rng % 24) as u32, rng >> 40)
        };
        let cap = 8;
        let fill = |n: usize, draw: &mut dyn FnMut() -> (u32, u64)| {
            let (mut lazy, mut eager) = (SpaceSavingTopK::new(cap), EagerTopK::new(cap));
            for _ in 0..n {
                let (key, weight) = draw();
                let full_before = lazy.len() >= cap && lazy.get(&key).is_none();
                let built_before = lazy.order.is_some();
                lazy.offer(key, weight);
                eager.offer(key, weight);
                assert!(eager.agrees_with(&lazy));
                assert_eq!(lazy.order.is_some(), built_before || full_before);
            }
            (lazy, eager)
        };
        let (mut a, mut ea) = fill(60, &mut draw);
        assert!(a.order.is_some(), "60 offers over 24 keys fill 8 slots");
        let (b, eb) = fill(5, &mut draw);
        assert!(b.order.is_none(), "5 offers cannot fill 8 slots");

        // Merge into an indexed table, then into an unindexed one; each
        // overflows its capacity and keeps taking offers.
        a.merge(&b);
        ea.merge(&eb);
        assert!(ea.agrees_with(&a));
        let mut c = b.clone();
        let mut ec = EagerTopK::new(cap);
        ec.merge(&eb);
        c.merge(&a);
        ec.merge(&ea);
        assert!(c.order.is_none() && c.len() > cap);
        for (table, eager) in [(&mut a, &mut ea), (&mut c, &mut ec)] {
            for _ in 0..40 {
                let (key, weight) = draw();
                table.offer(key, weight);
                eager.offer(key, weight);
                assert!(eager.agrees_with(table));
            }
            assert!(table.order.is_some());
        }

        // Equality ignores whether the index has been built.
        let mut copy = SpaceSavingTopK::new(cap);
        copy.merge(&a);
        assert!(copy.order.is_none() && a.order.is_some());
        assert_eq!(copy, a);
        copy.offer(0, 1);
        assert_ne!(copy, a);
    }
}
