//! Memory observatory: an instrumented global allocator (feature
//! `obs-alloc`) with scoped subsystem tags.
//!
//! The streaming layer in [`crate::stream`] *models* its footprint
//! deterministically; this module *measures* it. Opting a binary in —
//!
//! ```ignore
//! #[cfg(feature = "obs-alloc")]
//! #[global_allocator]
//! static ALLOC: anton_obs::memory::ObsAlloc = anton_obs::memory::ObsAlloc;
//! ```
//!
//! — makes every allocation in the process update global and per-tag
//! live/peak byte counters. Code marks regions with a [`MemScope`]
//! guard; allocations (and frees) on that thread are attributed to the
//! scope's [`MemTag`] while the guard lives. The tag API is compiled
//! unconditionally and costs a thread-local `Cell` store, so library
//! code can scope freely whether or not the allocator is armed.
//!
//! Caveat worth stating: frees are attributed to the tag current *at
//! free time*, not at allocation time (per-pointer origin headers would
//! change allocation sizes and perturb what we're measuring). The
//! streaming observer allocates and frees inside its own scoped calls,
//! so its tag balance is accurate; long-lived cross-tag handoffs would
//! smear. Global live/peak are exact regardless.

#[cfg(feature = "obs-alloc")]
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use crate::metrics::MetricsRegistry;

/// Subsystem tags for scoped attribution. Index 0 (`Untagged`) is the
/// default outside any scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum MemTag {
    /// No scope active.
    Untagged = 0,
    /// Observability: recorders, sketches, summaries, exporters.
    Obs = 1,
    /// Simulation engine: event queues, scheduler state.
    Engine = 2,
    /// Network model: fabric, per-node router/link state.
    Fabric = 3,
    /// Workload programs and their buffers.
    Workload = 4,
}

impl MemTag {
    /// All tags, index order.
    pub const ALL: [MemTag; 5] = [
        MemTag::Untagged,
        MemTag::Obs,
        MemTag::Engine,
        MemTag::Fabric,
        MemTag::Workload,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            MemTag::Untagged => "untagged",
            MemTag::Obs => "obs",
            MemTag::Engine => "engine",
            MemTag::Fabric => "fabric",
            MemTag::Workload => "workload",
        }
    }
}

const NTAGS: usize = MemTag::ALL.len();

/// Live bytes per tag (signed: free-time attribution can transiently
/// push a tag negative; the global sum stays exact).
static TAG_LIVE: [AtomicI64; NTAGS] = [const { AtomicI64::new(0) }; NTAGS];
/// Peak live bytes per tag.
static TAG_PEAK: [AtomicI64; NTAGS] = [const { AtomicI64::new(0) }; NTAGS];
/// Exact global live bytes.
static GLOBAL_LIVE: AtomicI64 = AtomicI64::new(0);
/// Exact global peak live bytes.
static GLOBAL_PEAK: AtomicI64 = AtomicI64::new(0);
/// Total allocation calls observed (0 ⇔ allocator not armed).
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Total bytes ever allocated.
static TOTAL_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The active tag index on this thread. `const`-initialized so the
    /// first access inside the allocator never allocates.
    static CURRENT_TAG: Cell<usize> = const { Cell::new(0) };
}

/// RAII guard that attributes this thread's allocations to a
/// [`MemTag`] while alive. Nests: dropping restores the outer tag.
#[derive(Debug)]
pub struct MemScope {
    prev: usize,
}

impl MemScope {
    /// Enter `tag` on the current thread.
    pub fn new(tag: MemTag) -> MemScope {
        let prev = CURRENT_TAG
            .try_with(|c| c.replace(tag as usize))
            .unwrap_or(0);
        MemScope { prev }
    }
}

impl Drop for MemScope {
    fn drop(&mut self) {
        let _ = CURRENT_TAG.try_with(|c| c.set(self.prev));
    }
}

#[cfg_attr(not(any(test, feature = "obs-alloc")), allow(dead_code))]
#[inline]
fn current_tag() -> usize {
    CURRENT_TAG.try_with(|c| c.get()).unwrap_or(0)
}

#[cfg_attr(not(any(test, feature = "obs-alloc")), allow(dead_code))]
#[inline]
fn bump_peak(peak: &AtomicI64, live: i64) {
    let mut cur = peak.load(Ordering::Relaxed);
    while live > cur {
        match peak.compare_exchange_weak(cur, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(seen) => cur = seen,
        }
    }
}

#[cfg_attr(not(any(test, feature = "obs-alloc")), allow(dead_code))]
#[inline]
fn account(delta: i64) {
    let tag = current_tag();
    let tl = TAG_LIVE[tag].fetch_add(delta, Ordering::Relaxed) + delta;
    bump_peak(&TAG_PEAK[tag], tl);
    let gl = GLOBAL_LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    bump_peak(&GLOBAL_PEAK, gl);
    if delta > 0 {
        TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        TOTAL_ALLOC_BYTES.fetch_add(delta as u64, Ordering::Relaxed);
    }
}

/// True when the instrumented allocator is armed in this process (i.e.
/// a binary installed `ObsAlloc` as `#[global_allocator]` under the
/// `obs-alloc` feature and at least one allocation went through it).
pub fn instrumented() -> bool {
    TOTAL_ALLOCS.load(Ordering::Relaxed) > 0
}

/// Exact global live heap bytes (0 when not instrumented).
pub fn live_bytes() -> i64 {
    GLOBAL_LIVE.load(Ordering::Relaxed)
}

/// Exact global peak heap bytes (0 when not instrumented).
pub fn peak_bytes() -> i64 {
    GLOBAL_PEAK.load(Ordering::Relaxed)
}

/// Live bytes currently attributed to `tag`.
pub fn tag_live_bytes(tag: MemTag) -> i64 {
    TAG_LIVE[tag as usize].load(Ordering::Relaxed)
}

/// Peak bytes attributed to `tag`.
pub fn tag_peak_bytes(tag: MemTag) -> i64 {
    TAG_PEAK[tag as usize].load(Ordering::Relaxed)
}

/// Total allocation calls observed so far.
pub fn total_allocs() -> u64 {
    TOTAL_ALLOCS.load(Ordering::Relaxed)
}

/// Total bytes ever allocated.
pub fn total_alloc_bytes() -> u64 {
    TOTAL_ALLOC_BYTES.load(Ordering::Relaxed)
}

/// Reset every peak to the current live value (global and per tag), so
/// a measurement window can be bracketed. Live counters are never
/// reset — they track real outstanding memory.
pub fn reset_peaks() {
    GLOBAL_PEAK.store(GLOBAL_LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    for i in 0..NTAGS {
        TAG_PEAK[i].store(TAG_LIVE[i].load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Point-in-time snapshot of the memory observatory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemReport {
    /// Whether the counters are backed by a real armed allocator.
    pub instrumented: bool,
    /// Global live bytes.
    pub live_bytes: i64,
    /// Global peak bytes.
    pub peak_bytes: i64,
    /// Allocation calls so far.
    pub total_allocs: u64,
    /// Bytes ever allocated.
    pub total_alloc_bytes: u64,
    /// (live, peak) per tag, [`MemTag::ALL`] order.
    pub tags: [(i64, i64); NTAGS],
}

impl MemReport {
    /// Capture the current counters.
    pub fn capture() -> MemReport {
        MemReport {
            instrumented: instrumented(),
            live_bytes: live_bytes(),
            peak_bytes: peak_bytes(),
            total_allocs: total_allocs(),
            total_alloc_bytes: total_alloc_bytes(),
            tags: std::array::from_fn(|i| {
                (
                    TAG_LIVE[i].load(Ordering::Relaxed),
                    TAG_PEAK[i].load(Ordering::Relaxed),
                )
            }),
        }
    }

    /// Peak bytes of one tag in this snapshot.
    pub fn tag_peak(&self, tag: MemTag) -> i64 {
        self.tags[tag as usize].1
    }

    /// Record the snapshot as gauges (`obs.mem.*`), normalizing by
    /// `nodes` and `events` when nonzero. No-op when not instrumented,
    /// so reports never carry fake zeros.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry, nodes: u64, events: u64) {
        if !self.instrumented {
            return;
        }
        reg.set_gauge("obs.mem.live_bytes", self.live_bytes as f64);
        reg.set_gauge("obs.mem.peak_bytes", self.peak_bytes as f64);
        reg.set_gauge("obs.mem.total_allocs", self.total_allocs as f64);
        for tag in MemTag::ALL {
            let (live, peak) = self.tags[tag as usize];
            reg.set_gauge(&format!("obs.mem.{}.live_bytes", tag.name()), live as f64);
            reg.set_gauge(&format!("obs.mem.{}.peak_bytes", tag.name()), peak as f64);
        }
        if nodes > 0 {
            reg.set_gauge(
                "obs.mem.peak_bytes_per_node",
                self.peak_bytes as f64 / nodes as f64,
            );
            reg.set_gauge(
                "obs.mem.obs_peak_bytes_per_node",
                self.tag_peak(MemTag::Obs) as f64 / nodes as f64,
            );
        }
        if events > 0 {
            reg.set_gauge(
                "obs.mem.alloc_bytes_per_event",
                self.total_alloc_bytes as f64 / events as f64,
            );
        }
    }

    /// Human-readable multi-line table.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.instrumented {
            out.push_str("  (allocator not instrumented: build with --features obs-alloc)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "  {:<10} {:>14} {:>14}",
            "tag", "live bytes", "peak bytes"
        );
        for tag in MemTag::ALL {
            let (live, peak) = self.tags[tag as usize];
            let _ = writeln!(out, "  {:<10} {:>14} {:>14}", tag.name(), live, peak);
        }
        let _ = writeln!(
            out,
            "  {:<10} {:>14} {:>14}  ({} allocs, {} bytes total)",
            "global", self.live_bytes, self.peak_bytes, self.total_allocs, self.total_alloc_bytes
        );
        out
    }
}

/// The instrumented allocator. Install as `#[global_allocator]` in a
/// binary built with `--features obs-alloc`; forwards to [`System`]
/// and keeps the counters above. Zero-sized, const-constructible.
#[cfg(feature = "obs-alloc")]
pub struct ObsAlloc;

#[cfg(feature = "obs-alloc")]
// SAFETY: delegates every operation to `System` unchanged; the counter
// updates are lock-free atomics and the thread-local tag read never
// allocates (const-initialized Cell, `try_with`).
unsafe impl GlobalAlloc for ObsAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            account(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        account(-(layout.size() as i64));
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            account(layout.size() as i64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            account(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_restore() {
        assert_eq!(current_tag(), MemTag::Untagged as usize);
        {
            let _a = MemScope::new(MemTag::Obs);
            assert_eq!(current_tag(), MemTag::Obs as usize);
            {
                let _b = MemScope::new(MemTag::Fabric);
                assert_eq!(current_tag(), MemTag::Fabric as usize);
            }
            assert_eq!(current_tag(), MemTag::Obs as usize);
        }
        assert_eq!(current_tag(), MemTag::Untagged as usize);
    }

    #[test]
    fn accounting_math_tracks_peaks() {
        // Drive the counters directly (works without the feature armed).
        let before = MemReport::capture();
        {
            let _s = MemScope::new(MemTag::Workload);
            account(1024);
            account(-1024);
        }
        let after = MemReport::capture();
        assert_eq!(after.live_bytes, before.live_bytes);
        assert!(after.tag_peak(MemTag::Workload) >= before.tag_peak(MemTag::Workload));
        assert!(after.tag_peak(MemTag::Workload) >= 1024);
        assert!(after.total_allocs > before.total_allocs);
        assert!(after.instrumented);
        let mut reg = MetricsRegistry::new();
        after.record_metrics(&mut reg, 512, 1_000);
        assert!(reg.gauge("obs.mem.peak_bytes").is_some());
        assert!(after.table().contains("workload"));
    }
}
