//! Streaming bounded-memory observability: mergeable sketches plus a
//! [`Recorder`] that folds lifecycles at delivery instead of keeping the
//! event stream.
//!
//! Every earlier observability layer (flight recording, causal graphs,
//! congestion maps) is O(events): fine on the paper's 512-node Anton 1
//! torus, fatal at the 10⁴-node scales the ROADMAP targets. This module
//! keeps the *same* Figure 6 attribution with O(nodes + links) state on
//! one slab:
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
//! - [`StreamObserver`] — the [`Recorder`] gluing it together: it keeps
//!   only in-flight partial lifecycles, folds each packet into the
//!   5-stage attribution at delivery (watermark-lazily, because the
//!   counter-visibility event lands at the same instant as delivery),
//!   and drops the events.
//!
//! Sharded runs attach one observer per shard; a packet that crosses
//! shards is seen only partially by each (inject on the source shard,
//! delivery on the destination shard), so [`StreamSummary`] carries its
//! still-open partials and [`StreamSummary::merge`] *joins* them
//! field-wise before [`StreamSummary::finalize`] classifies what
//! remains. All aggregate state is order-independent, so the merged
//! summary equals the sequential one bit-for-bit — the cross-check
//! `scale_probe` asserts. Until that join each shard holds its side of
//! every cross-shard packet, so a sharded run's observer state grows
//! with its cross-shard traffic as well as with what is in flight.

use crate::breakdown::{BreakdownSummary, FoldStats, PacketLifecycle, Stage};
use crate::metrics::MetricsRegistry;
use crate::recorder::{PacketId, Recorder};
use anton_des::{SimDuration, SimTime};
use anton_topo::{LinkDir, NodeId};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

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

/// Configuration for [`StreamObserver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Full lifecycles kept for spot checks (bottom-k sample).
    pub reservoir: usize,
    /// Reservoir sampling seed.
    pub seed: u64,
    /// Streaming capacity of the per-link heavy-hitter table.
    pub topk: usize,
}

/// Default reservoir sample size.
pub const DEFAULT_RESERVOIR: usize = 64;
/// Default reservoir seed (fixed so runs are reproducible by default).
pub const DEFAULT_SEED: u64 = 0x0162_0162_0162_0162;
/// Default heavy-hitter streaming capacity (covers every link of tori
/// up to ~680 nodes exactly; beyond that the table approximates).
pub const DEFAULT_TOPK: usize = 4096;

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            reservoir: DEFAULT_RESERVOIR,
            seed: DEFAULT_SEED,
            topk: DEFAULT_TOPK,
        }
    }
}

/// An in-flight partial lifecycle (also carried inside summaries for
/// packets that crossed shard boundaries).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct StreamPartial {
    /// (src, dst, issued, inj_ready, wire_ready, payload_bytes), same
    /// tuple the offline fold keeps.
    inject: Option<(NodeId, Option<NodeId>, SimTime, SimTime, SimTime, u32)>,
    hop_enters: Vec<SimTime>,
    delivers: Vec<(NodeId, SimTime)>,
    fired: Option<SimTime>,
    retransmits: u32,
}

impl StreamPartial {
    /// Join another shard's view of the same packet. Every field is
    /// combined order-independently (sorted merges / min / add), so
    /// joining in any shard order yields the same partial.
    fn join(&mut self, other: &StreamPartial) {
        if self.inject.is_none() {
            self.inject = other.inject;
        }
        if !other.hop_enters.is_empty() {
            self.hop_enters.extend_from_slice(&other.hop_enters);
            self.hop_enters.sort_unstable();
        }
        if !other.delivers.is_empty() {
            self.delivers.extend_from_slice(&other.delivers);
            self.delivers.sort_unstable_by_key(|&(node, at)| (at, node));
        }
        self.fired = match (self.fired, other.fired) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.retransmits += other.retransmits;
    }

    fn heap_bytes(&self) -> u64 {
        (self.hop_enters.len() * std::mem::size_of::<SimTime>()
            + self.delivers.len() * std::mem::size_of::<(NodeId, SimTime)>()) as u64
    }
}

/// Hashes a packet uid with one SplitMix64 round, so a uid map has the
/// same table order on every run. Against fixed-key SipHash it was no
/// slower and left `scale_md_12`'s peak RSS lower (EXPERIMENTS.md,
/// "Stream observer hot path A/B").
#[derive(Debug, Default, Clone, Copy)]
struct UidHasher(u64);

impl Hasher for UidHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = splitmix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix64(self.0 ^ x);
    }
}

/// Partial lifecycles keyed by packet uid.
type PartialMap = HashMap<u64, StreamPartial, BuildHasherDefault<UidHasher>>;

/// An observer's live partial lifecycles: slots in a slab, found through
/// a uid index. Under a run's insert/remove churn a hash table's deleted
/// markers grow it past its live size; behind the index that growth
/// costs 16-byte buckets, not whole partials.
#[derive(Debug, Default)]
struct LivePartials {
    index: HashMap<u64, u32, BuildHasherDefault<UidHasher>>,
    slots: Vec<StreamPartial>,
    /// Slots of folded packets, reused before the slab grows.
    free: Vec<u32>,
}

impl LivePartials {
    fn len(&self) -> usize {
        self.index.len()
    }

    /// The partial of `pkt`, opened empty if it has none.
    fn entry(&mut self, pkt: u64) -> &mut StreamPartial {
        let (slots, free) = (&mut self.slots, &mut self.free);
        let i = *self.index.entry(pkt).or_insert_with(|| {
            free.pop().unwrap_or_else(|| {
                slots.push(StreamPartial::default());
                u32::try_from(slots.len() - 1).expect("under 2^32 live partials")
            })
        });
        &mut self.slots[i as usize]
    }

    fn remove(&mut self, pkt: u64) -> Option<StreamPartial> {
        let i = self.index.remove(&pkt)?;
        self.free.push(i);
        Some(std::mem::take(&mut self.slots[i as usize]))
    }

    fn into_map(mut self) -> PartialMap {
        self.index
            .into_iter()
            .map(|(pkt, i)| (pkt, std::mem::take(&mut self.slots[i as usize])))
            .collect()
    }
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
/// Modeled bytes of one partial lifecycle, before its heap vectors.
const PARTIAL_BYTES: u64 = std::mem::size_of::<StreamPartial>() as u64 + MAP_OVERHEAD;
/// Modeled bytes of one pending `(delivery ps, uid)` entry.
const PENDING_BYTES: u64 = std::mem::size_of::<(u64, u64)>() as u64 + MAP_OVERHEAD;

/// Modeled bytes of one lifecycle kept in the reservoir.
fn kept_bytes(lc: &PacketLifecycle) -> u64 {
    (std::mem::size_of::<PacketLifecycle>() + lc.hop_enters.len() * std::mem::size_of::<SimTime>())
        as u64
        + MAP_OVERHEAD
}

/// The bounded-memory aggregate of one run (or one shard of one run).
///
/// Everything in here is mergeable: sketches and moments add, the
/// heavy-hitter table union-sums, the reservoir re-trims, fold stats
/// add, and still-open cross-shard partials join field-wise. After
/// merging all shards call [`StreamSummary::finalize`] to classify the
/// remaining partials; a finalized merged summary is bit-identical to
/// the finalized sequential summary of the same run.
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
    /// offline [`crate::fold_lifecycles`] classification.
    pub fold: FoldStats,
    /// Total link-layer retransmissions over folded packets.
    pub retransmits: u64,
    /// Lifecycles not yet classifiable (cross-shard or in flight),
    /// keyed by packet id. Emptied by [`StreamSummary::finalize`].
    open: PartialMap,
}

impl StreamSummary {
    /// New empty summary under `cfg`.
    pub fn new(cfg: StreamConfig) -> StreamSummary {
        StreamSummary {
            stage_moments: [StreamingMoments::new(); 5],
            stage_sketches: std::array::from_fn(|_| QuantileSketch::new()),
            e2e_moments: StreamingMoments::new(),
            e2e_sketch: QuantileSketch::new(),
            link_busy: SpaceSavingTopK::new(cfg.topk),
            reservoir: Reservoir::new(cfg.reservoir, cfg.seed),
            reservoir_bytes: 0,
            fold: FoldStats::default(),
            retransmits: 0,
            open: PartialMap::default(),
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

    /// Open (unclassified) partial lifecycles currently carried.
    pub fn open_len(&self) -> usize {
        self.open.len()
    }

    /// Merge another shard's summary in, moving its open partials.
    /// Order-independent; call [`StreamSummary::finalize`] once after
    /// the last merge.
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
        for (pkt, p) in other.open {
            match self.open.entry(pkt) {
                Entry::Occupied(mut mine) => mine.get_mut().join(&p),
                Entry::Vacant(slot) => {
                    slot.insert(p);
                }
            }
        }
    }

    /// Classify and drain the remaining open partials: joined complete
    /// unicast lifecycles fold in; the rest count as incomplete or
    /// multicast exactly like the offline [`crate::fold_lifecycles`].
    pub fn finalize(&mut self) {
        for (pkt, p) in std::mem::take(&mut self.open) {
            self.classify(pkt, p);
        }
    }

    fn classify(&mut self, pkt: u64, p: StreamPartial) {
        let Some((src, dst, issued, inj_ready, wire_ready, payload_bytes)) = p.inject else {
            self.fold.incomplete += 1;
            return;
        };
        if dst.is_none() || p.delivers.len() > 1 {
            self.fold.multicast += 1;
            return;
        }
        let Some(&(dst_node, delivered)) = p.delivers.first() else {
            self.fold.incomplete += 1;
            return;
        };
        self.fold_lifecycle(PacketLifecycle {
            pkt: PacketId(pkt),
            src,
            dst: dst_node,
            issued,
            inj_ready,
            wire_ready,
            hop_enters: p.hop_enters,
            delivered,
            fired: p.fired,
            retransmits: p.retransmits,
            payload_bytes,
        });
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
    /// Peak simultaneous in-flight partial lifecycles.
    pub peak_partials: u64,
    /// Peak of the observer's modeled heap footprint
    /// ([`StreamObserver::approx_bytes`]), in bytes.
    pub peak_bytes: u64,
    /// Modeled footprint at the end of the run.
    pub final_bytes: u64,
}

impl StreamFootprint {
    /// Combine per-shard footprints (peaks max, finals add).
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

/// The bounded-memory [`Recorder`]: folds each packet into the 5-stage
/// attribution at delivery and drops the events.
///
/// Lifecycles are folded **lazily behind a watermark**: the fabric
/// reports the synchronization-counter update at the *same instant* as
/// the delivery it belongs to, so a delivered packet stays pending until
/// simulated time strictly passes its delivery instant, then folds and
/// frees. Multicast candidates (`dst = None`) are held until
/// [`StreamObserver::into_summary`] because any number of copies may
/// still deliver. Live state is therefore O(in-flight packets + links),
/// not O(events), on one slab. On several slabs a packet that crosses
/// one is complete on neither, so both of its partials stay until the
/// post-run join and live state grows with the run's cross-slab traffic.
#[derive(Debug)]
pub struct StreamObserver {
    cfg: StreamConfig,
    agg: StreamSummary,
    partials: LivePartials,
    /// Delivered unicast packets waiting for the watermark to pass their
    /// instant, as distinct `(delivery ps, pkt)` pairs. Each was pushed
    /// after its hook raised the watermark to at least its instant, so
    /// every rise of the watermark folds all of them.
    pending: Vec<(u64, u64)>,
    watermark_ps: u64,
    partial_heap_bytes: u64,
    peak_partials: u64,
    peak_bytes: u64,
}

impl StreamObserver {
    /// New observer under `cfg`.
    pub fn new(cfg: StreamConfig) -> StreamObserver {
        StreamObserver {
            cfg,
            agg: StreamSummary::new(cfg),
            partials: LivePartials::default(),
            pending: Vec::new(),
            watermark_ps: 0,
            partial_heap_bytes: 0,
            peak_partials: 0,
            peak_bytes: 0,
        }
    }

    /// The configuration this observer was built with.
    pub fn config(&self) -> StreamConfig {
        self.cfg
    }

    /// Current modeled heap footprint in bytes: the aggregates, the live
    /// partials and the pending set. A size *model* (element counts ×
    /// nominal entry sizes), not an allocator measurement — pair with
    /// [`crate::memory`] for the real numbers — so it is deterministic
    /// across runs and budgets on it are CI-gateable. O(1): the
    /// reservoir's and the partials' vector bytes are counters kept in
    /// step with their containers, so every hook reads it for the peak.
    pub fn approx_bytes(&self) -> u64 {
        self.agg.aggregate_bytes()
            + self.partials.len() as u64 * PARTIAL_BYTES
            + self.partial_heap_bytes
            + self.pending.len() as u64 * PENDING_BYTES
    }

    /// Footprint report (peaks over the whole run).
    pub fn footprint(&self) -> StreamFootprint {
        StreamFootprint {
            peak_partials: self.peak_partials,
            peak_bytes: self.peak_bytes,
            final_bytes: self.approx_bytes(),
        }
    }

    /// The aggregate state, consuming the observer. Still-live partials
    /// move into the summary as open entries (not yet classified), so
    /// sharded summaries can be merged first; call
    /// [`StreamSummary::finalize`] after the last merge.
    pub fn into_summary(self) -> StreamSummary {
        // The observer never opens partials on its aggregate.
        StreamSummary {
            open: self.partials.into_map(),
            ..self.agg
        }
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

    /// Fold every pending packet: the watermark just rose past all their
    /// delivery instants, so all of their events (including the
    /// same-instant counter update) have been seen.
    fn flush_ready(&mut self) {
        let mut ready = std::mem::take(&mut self.pending);
        for (_, pkt) in ready.drain(..) {
            if let Some(p) = self.partials.remove(pkt) {
                self.partial_heap_bytes -= p.heap_bytes();
                self.agg.classify(pkt, p);
            }
        }
        self.pending = ready;
    }

    #[inline]
    fn partial(&mut self, pkt: PacketId) -> &mut StreamPartial {
        self.partials.entry(pkt.0)
    }

    fn note_peak_partials(&mut self) {
        let n = self.partials.len() as u64;
        if n > self.peak_partials {
            self.peak_partials = n;
        }
    }
}

impl Recorder for StreamObserver {
    fn on_inject(
        &mut self,
        pkt: PacketId,
        node: NodeId,
        _client: u8,
        dst: Option<NodeId>,
        at: SimTime,
        inj_ready: SimTime,
        _inj_start: SimTime,
        wire_ready: SimTime,
        payload_bytes: u32,
    ) {
        let _scope = crate::memory::MemScope::new(crate::memory::MemTag::Obs);
        self.tick(at);
        let p = self.partial(pkt);
        p.inject = Some((node, dst, at, inj_ready, wire_ready, payload_bytes));
        self.note_peak_partials();
    }

    fn on_link_reserve(
        &mut self,
        _pkt: PacketId,
        node: NodeId,
        link: LinkDir,
        _ready: SimTime,
        start: SimTime,
        end: SimTime,
    ) {
        let _scope = crate::memory::MemScope::new(crate::memory::MemTag::Obs);
        self.tick(start);
        self.agg
            .link_busy
            .offer((node.0, link.index() as u8), end.since(start).as_ps());
    }

    fn on_retransmit(
        &mut self,
        pkt: PacketId,
        _node: NodeId,
        _link: LinkDir,
        _attempt: u32,
        at: SimTime,
    ) {
        let _scope = crate::memory::MemScope::new(crate::memory::MemTag::Obs);
        self.tick(at);
        self.partial(pkt).retransmits += 1;
        self.note_peak_partials();
    }

    fn on_hop_enter(&mut self, pkt: PacketId, _node: NodeId, at: SimTime) {
        let _scope = crate::memory::MemScope::new(crate::memory::MemTag::Obs);
        self.tick(at);
        self.partial(pkt).hop_enters.push(at);
        self.partial_heap_bytes += std::mem::size_of::<SimTime>() as u64;
        self.note_peak_partials();
    }

    fn on_deliver(&mut self, pkt: PacketId, node: NodeId, _client: u8, at: SimTime) {
        let _scope = crate::memory::MemScope::new(crate::memory::MemTag::Obs);
        self.tick(at);
        let p = self.partial(pkt);
        // A second delivery at one instant is already pending.
        let new_instant = p.delivers.iter().all(|&(_, t)| t != at);
        p.delivers.push((node, at));
        let fold_ready = new_instant && p.inject.is_some_and(|(_, dst, ..)| dst.is_some());
        self.partial_heap_bytes += std::mem::size_of::<(NodeId, SimTime)>() as u64;
        if fold_ready {
            // Unicast with its inject seen locally: safe to fold once
            // time passes this instant. Multicast (dst = None) is held
            // for into_summary() because more copies may deliver;
            // partials whose inject lives on another shard stay open for
            // the cross-shard join.
            self.pending.push((at.as_ps(), pkt.0));
        }
        self.note_peak_partials();
    }

    fn on_counter_update(
        &mut self,
        pkt: PacketId,
        _node: NodeId,
        _client: u8,
        _counter: u16,
        at: SimTime,
        fire_at: Option<SimTime>,
    ) {
        let _scope = crate::memory::MemScope::new(crate::memory::MemTag::Obs);
        self.tick(at);
        if let Some(f) = fire_at {
            let p = self.partial(pkt);
            p.fired = Some(p.fired.map_or(f, |old| old.min(f)));
            self.note_peak_partials();
        }
    }

    fn on_phase(&mut self, _label: &str, at: SimTime) {
        self.tick(at);
    }

    fn as_stream(&self) -> Option<&StreamObserver> {
        Some(self)
    }

    fn into_stream(self: Box<Self>) -> Option<StreamObserver> {
        Some(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakdown::fold_lifecycles;
    use crate::metrics::LogHistogram;
    use crate::recorder::{FlightRecorder, Recorder};

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

    /// Drive one packet through the observer exactly as the fabric
    /// would, and cross-check against the offline fold.
    #[test]
    fn observer_matches_offline_fold() {
        let t = SimTime::from_ns;
        let mut flight = FlightRecorder::new();
        let mut stream = StreamObserver::new(StreamConfig::default());
        for rec in [&mut flight as &mut dyn Recorder, &mut stream] {
            rec.on_inject(
                PacketId(7),
                NodeId(0),
                0,
                Some(NodeId(1)),
                t(0),
                t(36),
                t(36),
                t(55),
                32,
            );
            rec.on_hop_enter(PacketId(7), NodeId(1), t(95));
            rec.on_deliver(PacketId(7), NodeId(1), 0, t(120));
            rec.on_counter_update(PacketId(7), NodeId(1), 0, 3, t(120), Some(t(162)));
            // A later event moves the watermark past the delivery.
            rec.on_phase("next", t(200));
        }
        let (lifecycles, stats) = fold_lifecycles(flight.events());
        let exact = BreakdownSummary::from_lifecycles(&lifecycles);
        // The watermark flush already folded it: no open partials left.
        assert_eq!(stream.partials.len(), 0);
        let mut summary = stream.into_summary();
        assert_eq!(summary.open_len(), 0);
        summary.finalize();
        assert_eq!(summary.fold, stats);
        assert_eq!(summary.breakdown(), exact);
        let kept: Vec<_> = summary.reservoir().items().collect();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0], &lifecycles[0]);
    }

    /// Split the same packet across two observers (as a sharded run
    /// would); the merged + finalized summary must match a single
    /// observer that saw everything.
    #[test]
    fn cross_shard_join_matches_sequential() {
        let t = SimTime::from_ns;
        let mut seq = StreamObserver::new(StreamConfig::default());
        let mut src_shard = StreamObserver::new(StreamConfig::default());
        let mut dst_shard = StreamObserver::new(StreamConfig::default());
        for rec in [&mut seq, &mut src_shard] {
            rec.on_inject(
                PacketId(1),
                NodeId(0),
                0,
                Some(NodeId(9)),
                t(0),
                t(30),
                t(30),
                t(50),
                32,
            );
        }
        for rec in [&mut seq, &mut dst_shard] {
            rec.on_hop_enter(PacketId(1), NodeId(9), t(90));
            rec.on_deliver(PacketId(1), NodeId(9), 0, t(110));
            rec.on_phase("end", t(500));
        }
        let mut merged = src_shard.into_summary();
        merged.merge(dst_shard.into_summary());
        merged.finalize();
        let mut sequential = seq.into_summary();
        sequential.finalize();
        assert_eq!(merged, sequential);
        assert_eq!(merged.fold.complete, 1);
    }

    #[test]
    fn multicast_and_incomplete_classified_like_offline_fold() {
        let t = SimTime::from_ns;
        let mut flight = FlightRecorder::new();
        let mut stream = StreamObserver::new(StreamConfig::default());
        for rec in [&mut flight as &mut dyn Recorder, &mut stream] {
            // Multicast: dst None, two deliveries.
            rec.on_inject(
                PacketId(1),
                NodeId(0),
                0,
                None,
                t(0),
                t(10),
                t(10),
                t(20),
                16,
            );
            rec.on_deliver(PacketId(1), NodeId(2), 0, t(50));
            rec.on_deliver(PacketId(1), NodeId(3), 0, t(60));
            // Incomplete: injected, never delivered.
            rec.on_inject(
                PacketId(2),
                NodeId(4),
                0,
                Some(NodeId(5)),
                t(0),
                t(10),
                t(10),
                t(20),
                16,
            );
            rec.on_phase("end", t(1_000));
        }
        let (_, stats) = fold_lifecycles(flight.events());
        let mut summary = stream.into_summary();
        summary.finalize();
        assert_eq!(summary.fold, stats);
        assert_eq!(summary.fold.multicast, 1);
        assert_eq!(summary.fold.incomplete, 1);
    }

    #[test]
    fn footprint_is_bounded_and_tracked() {
        let t = SimTime::from_ns;
        let mut obs = StreamObserver::new(StreamConfig {
            reservoir: 2,
            seed: 1,
            topk: 8,
        });
        for i in 0..1_000u64 {
            let at = t(10 * i);
            obs.on_inject(
                PacketId(i),
                NodeId(0),
                0,
                Some(NodeId(1)),
                at,
                at,
                at,
                at,
                16,
            );
            obs.on_deliver(PacketId(i), NodeId(1), 0, t(10 * i + 5));
        }
        obs.on_phase("end", t(1_000_000));
        let fp = obs.footprint();
        // Watermark folding keeps live partials to the in-flight few,
        // not the thousand folded packets.
        assert!(fp.peak_partials <= 4, "peak partials {}", fp.peak_partials);
        let mut s = obs.into_summary();
        s.finalize();
        assert_eq!(s.fold.complete, 1_000);
        assert_eq!(s.reservoir().len(), 2);
        assert!(fp.peak_bytes < 128 * 1024, "peak bytes {}", fp.peak_bytes);
    }

    /// The footprint model computed by walking every container: the
    /// reference the O(1) [`StreamObserver::approx_bytes`] must equal.
    /// The pending list is counted as a set of `(instant, pkt)` pairs.
    fn walked_bytes(obs: &StreamObserver) -> u64 {
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
        let live = &obs.partials;
        let partials: u64 = live
            .index
            .values()
            .map(|&i| &live.slots[i as usize])
            .map(|p| size_of::<StreamPartial>() as u64 + p.heap_bytes() + MAP_OVERHEAD)
            .sum();
        let pending = obs.pending.iter().collect::<BTreeSet<_>>().len() as u64
            * (size_of::<(u64, u64)>() as u64 + MAP_OVERHEAD);
        sketches + topk + reservoir + partials + pending
    }

    /// A synthesized stream through a small reservoir and a small
    /// top-k: overlapping unicast packets over more links than the
    /// table holds, retransmits, a multicast packet, a packet never
    /// delivered and one delivered twice at one instant. After every
    /// hook the cached footprint equals the walked one.
    #[test]
    fn footprint_matches_the_walked_reference() {
        let t = SimTime::from_ns;
        let mut obs = StreamObserver::new(StreamConfig {
            reservoir: 3,
            seed: 5,
            topk: 4,
        });
        let mut hooks = 0;
        let mut check = |obs: &StreamObserver| {
            hooks += 1;
            assert_eq!(obs.approx_bytes(), walked_bytes(obs), "after hook {hooks}");
        };
        for i in 0..40u64 {
            let (pkt, at) = (PacketId(i), 50 * i);
            obs.on_inject(
                pkt,
                NodeId(i as u32 % 8),
                0,
                Some(NodeId(9)),
                t(at),
                t(at + 10),
                t(at + 10),
                t(at + 20),
                32,
            );
            check(&obs);
            // Eleven links: the four-entry table evicts.
            let link = LinkDir::from_index(i as usize % 6);
            obs.on_link_reserve(
                pkt,
                NodeId(i as u32 % 11),
                link,
                t(at + 20),
                t(at + 25),
                t(at + 60),
            );
            check(&obs);
            if i % 7 == 0 {
                obs.on_retransmit(pkt, NodeId(0), link, 1, t(at + 30));
                check(&obs);
            }
            // Up to three hops, so packets overlap in flight.
            for h in 0..(i % 4) {
                obs.on_hop_enter(pkt, NodeId(h as u32), t(at + 70 + 40 * h));
                check(&obs);
            }
            let delivered = t(at + 200);
            obs.on_deliver(pkt, NodeId(9), 0, delivered);
            check(&obs);
            if i == 13 {
                obs.on_deliver(pkt, NodeId(9), 1, delivered);
                check(&obs);
            }
            obs.on_counter_update(pkt, NodeId(9), 0, 1, delivered, Some(t(at + 240)));
            check(&obs);
        }
        let mcast = PacketId(100);
        obs.on_inject(
            mcast,
            NodeId(0),
            0,
            None,
            t(3_000),
            t(3_010),
            t(3_010),
            t(3_020),
            16,
        );
        check(&obs);
        for (node, at) in [(2, 3_100), (3, 3_150)] {
            obs.on_deliver(mcast, NodeId(node), 0, t(at));
            check(&obs);
        }
        let lost = PacketId(101);
        obs.on_inject(
            lost,
            NodeId(4),
            0,
            Some(NodeId(5)),
            t(3_200),
            t(3_210),
            t(3_210),
            t(3_220),
            16,
        );
        check(&obs);
        obs.on_hop_enter(lost, NodeId(5), t(3_300));
        check(&obs);
        obs.on_phase("end", t(10_000));
        check(&obs);

        // The small tables really overflowed.
        assert_eq!(obs.agg.reservoir.len(), 3);
        assert!(obs.agg.link_busy.top(4).iter().any(|(_, e)| e.err > 0));
        assert!(obs.footprint().peak_bytes >= walked_bytes(&obs));
        let mut s = obs.into_summary();
        s.finalize();
        assert_eq!(
            s.fold,
            FoldStats {
                complete: 39,
                incomplete: 1,
                multicast: 2,
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
