//! Runtime profiling for the parallel DES executor.
//!
//! The paper's method is exact accounting: every nanosecond of the 162 ns
//! end-to-end path is attributed to a named stage, and the stages
//! telescope to the total. This module applies the same discipline to the
//! *runtime that runs the simulation*: when an N-thread
//! [`ParEngine`](crate::par::ParEngine) run falls short of N× speedup,
//! the gap must decompose into named, measured components — shard load
//! imbalance, barrier crossings, window/lookahead inefficiency, and
//! cross-shard merge work — with nothing left dark.
//!
//! Two kinds of numbers live side by side in a [`ParProfile`]:
//!
//! - **Event-level counts** (windows, events per shard, the cross-shard
//!   outbox traffic matrix) are *deterministic*: they are a pure function
//!   of the simulated workload and the shard plan, bit-identical at any
//!   thread count — tested like every other simulated observable.
//! - **Wall-clock spans** (busy, barrier-wait, outbox-import, window
//!   samples) are host-dependent by nature. They are captured with
//!   thread-local counters — two `Instant` reads per phase per *window*,
//!   never per event — and merged deterministically (worker order, then
//!   shard order) after the run, so enabling profiling perturbs neither
//!   the simulation (asserted by fingerprint tests) nor, measurably, the
//!   wall clock.
//!
//! The profile is read after the run
//! ([`ParEngine::take_profile`](crate::par::ParEngine::take_profile)); its
//! window count, event counts and per-window samples are what a live
//! progress report would show.

/// Default cap on retained per-window samples per worker (the summary
/// counters are always exact; samples only feed trace export).
pub const DEFAULT_SAMPLE_CAP: usize = 4096;

/// One window's execute phase as one worker saw it. Offsets are wall
/// nanoseconds since the enclosing `run_until` began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSample {
    /// Window index within the run (0-based, global — every worker
    /// executes the same window sequence).
    pub window: u64,
    /// Wall-clock offset of this worker's execute phase start.
    pub start_ns: u64,
    /// Wall-clock length of this worker's execute phase.
    pub exec_ns: u64,
    /// Events this worker executed in the window.
    pub events: u64,
    /// Simulated time at the window start (the global minimum head).
    pub sim_ps: u64,
}

/// One worker's accounting for a run: wall-clock time split into the
/// named phases of the window protocol, plus event/window counts. The
/// phases partition the worker's loop time, so
/// `busy + merge + barrier_publish + barrier_window + residue == loop`
/// — the telescoping the speedup attribution relies on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Worker index (block-partition order).
    pub worker: usize,
    /// First shard this worker owns.
    pub first_shard: usize,
    /// Number of shards this worker owns.
    pub shards: usize,
    /// Total wall time inside the worker loop.
    pub loop_ns: u64,
    /// Wall time executing events (the useful work).
    pub busy_ns: u64,
    /// Wall time draining cross-shard outboxes into owned queues.
    pub merge_ns: u64,
    /// Wall time waiting at the publish barrier (after import + head
    /// publication — crossing cost plus skew from uneven import work).
    pub barrier_publish_ns: u64,
    /// Wall time waiting at the post-execute barrier: this worker
    /// finished its window slice while others were still executing —
    /// the direct measure of shard load imbalance.
    pub barrier_window_ns: u64,
    /// Windows this worker participated in (== the run's window count).
    pub windows: u64,
    /// Windows in which this worker executed at least one event.
    pub active_windows: u64,
    /// Events this worker executed.
    pub events: u64,
    /// Events executed at or past the uniform global-bound window end —
    /// work an adaptive window recovered that a global window would have
    /// deferred behind another barrier crossing. Deterministic; always 0
    /// in [`LookaheadMode::Global`](crate::par::LookaheadMode::Global).
    pub recovered_events: u64,
    /// Per-shard windows in which at least one event was recovered (one
    /// shard extending once in one window counts once). Deterministic.
    pub extended_shard_windows: u64,
    /// Retained per-window samples (capped; see
    /// [`ParProfile::sample_cap`]).
    pub samples: Vec<WindowSample>,
}

impl WorkerProfile {
    /// Loop time not attributed to a named phase: window-decision
    /// computation and loop bookkeeping.
    pub fn windowing_ns(&self) -> u64 {
        self.loop_ns.saturating_sub(
            self.busy_ns + self.merge_ns + self.barrier_publish_ns + self.barrier_window_ns,
        )
    }

    fn absorb(&mut self, other: &WorkerProfile, cap: usize) {
        self.loop_ns += other.loop_ns;
        self.busy_ns += other.busy_ns;
        self.merge_ns += other.merge_ns;
        self.barrier_publish_ns += other.barrier_publish_ns;
        self.barrier_window_ns += other.barrier_window_ns;
        self.windows += other.windows;
        self.active_windows += other.active_windows;
        self.events += other.events;
        self.recovered_events += other.recovered_events;
        self.extended_shard_windows += other.extended_shard_windows;
        let room = cap.saturating_sub(self.samples.len());
        self.samples
            .extend(other.samples.iter().take(room).copied());
    }
}

/// The merged profile of one or more `run_until` calls on a
/// [`ParEngine`](crate::par::ParEngine): per-worker wall-clock phase
/// accounting, per-shard event totals, and the cross-shard traffic
/// matrix. Built from thread-local counters, merged in worker order —
/// the merge itself is deterministic; wall-clock *values* are not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParProfile {
    /// Worker threads the profiled run(s) actually used.
    pub threads: usize,
    /// Shard count of the engine.
    pub shards: usize,
    /// Wall time of the profiled `run_until` call(s), measured around
    /// the whole dispatch (including worker spawn/join).
    pub wall_ns: u64,
    /// Windows executed (deterministic, thread-count invariant).
    pub windows: u64,
    /// Events executed (deterministic).
    pub events: u64,
    /// Events recovered by adaptive window extension — executed past the
    /// uniform global-bound end of their window (deterministic; 0 under
    /// the global bound).
    pub recovered_events: u64,
    /// Per-shard windows that executed at least one recovered event
    /// (deterministic).
    pub extended_shard_windows: u64,
    /// Per-worker phase accounting, worker order.
    pub workers: Vec<WorkerProfile>,
    /// Events executed per shard (deterministic).
    pub shard_events: Vec<u64>,
    /// Wall busy time per shard.
    pub shard_busy_ns: Vec<u64>,
    /// Cross-shard events staged through the outboxes, row-major
    /// `src * shards + dst` (deterministic; the diagonal is always 0 —
    /// shard-local events never touch an outbox).
    pub traffic: Vec<u64>,
    /// Cap on retained [`WindowSample`]s per worker.
    pub sample_cap: usize,
}

impl ParProfile {
    pub(crate) fn new(threads: usize, shards: usize, sample_cap: usize) -> ParProfile {
        ParProfile {
            threads,
            shards,
            wall_ns: 0,
            windows: 0,
            events: 0,
            recovered_events: 0,
            extended_shard_windows: 0,
            workers: Vec::new(),
            shard_events: vec![0; shards],
            shard_busy_ns: vec![0; shards],
            traffic: vec![0; shards * shards],
            sample_cap,
        }
    }

    /// Cross-shard events staged from `src` to `dst` during profiled
    /// runs.
    pub fn traffic_between(&self, src: usize, dst: usize) -> u64 {
        self.traffic[src * self.shards + dst]
    }

    /// Total cross-shard events (the whole matrix; the diagonal is 0).
    pub fn cross_shard_events(&self) -> u64 {
        self.traffic.iter().sum()
    }

    /// Mean events per window across the run (the windowing efficiency:
    /// how much work one lookahead window amortizes over its two barrier
    /// crossings).
    pub fn events_per_window(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.events as f64 / self.windows as f64
        }
    }

    /// Mean events per shard per window — the lookahead efficiency in
    /// the conservative-parallel-DES sense: how many causally
    /// independent events each shard finds inside one lookahead.
    pub fn lookahead_efficiency(&self) -> f64 {
        if self.windows == 0 || self.shards == 0 {
            0.0
        } else {
            self.events as f64 / (self.windows as f64 * self.shards as f64)
        }
    }

    /// Event-count imbalance across shards in percent:
    /// `100 · (max/mean − 1)`. Zero means perfectly balanced shards;
    /// deterministic, so it is safe to commit to a bench baseline.
    pub fn shard_imbalance_pct(&self) -> f64 {
        let max = self.shard_events.iter().copied().max().unwrap_or(0);
        let total: u64 = self.shard_events.iter().sum();
        if total == 0 || self.shards == 0 {
            return 0.0;
        }
        let mean = total as f64 / self.shards as f64;
        100.0 * (max as f64 / mean - 1.0)
    }

    /// Fold another run's profile into this one (same engine, later
    /// `run_until` call).
    pub(crate) fn absorb(&mut self, other: &ParProfile) {
        debug_assert_eq!(self.shards, other.shards);
        self.threads = self.threads.max(other.threads);
        self.wall_ns += other.wall_ns;
        self.windows += other.windows;
        self.events += other.events;
        self.recovered_events += other.recovered_events;
        self.extended_shard_windows += other.extended_shard_windows;
        if self.workers.len() < other.workers.len() {
            self.workers
                .resize_with(other.workers.len(), WorkerProfile::default);
        }
        for (mine, theirs) in self.workers.iter_mut().zip(&other.workers) {
            mine.worker = theirs.worker;
            mine.first_shard = theirs.first_shard;
            mine.shards = theirs.shards;
            mine.absorb(theirs, self.sample_cap);
        }
        for (a, b) in self.shard_events.iter_mut().zip(&other.shard_events) {
            *a += b;
        }
        for (a, b) in self.shard_busy_ns.iter_mut().zip(&other.shard_busy_ns) {
            *a += b;
        }
        for (a, b) in self.traffic.iter_mut().zip(&other.traffic) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_derived_metrics() {
        let mut p = ParProfile::new(4, 2, 8);
        p.windows = 10;
        p.events = 40;
        p.shard_events = vec![30, 10];
        p.traffic = vec![0, 5, 3, 0];
        assert_eq!(p.events_per_window(), 4.0);
        assert_eq!(p.lookahead_efficiency(), 2.0);
        assert_eq!(p.cross_shard_events(), 8);
        assert_eq!(p.traffic_between(0, 1), 5);
        // max 30 vs mean 20 -> 50%.
        assert!((p.shard_imbalance_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = ParProfile::new(2, 2, 4);
        a.windows = 3;
        a.events = 5;
        a.shard_events = vec![2, 3];
        let mut w = WorkerProfile {
            worker: 0,
            shards: 2,
            busy_ns: 10,
            loop_ns: 30,
            merge_ns: 5,
            barrier_publish_ns: 5,
            barrier_window_ns: 5,
            windows: 3,
            active_windows: 2,
            events: 5,
            ..Default::default()
        };
        w.samples.push(WindowSample {
            window: 0,
            start_ns: 0,
            exec_ns: 10,
            events: 5,
            sim_ps: 0,
        });
        a.workers.push(w);
        let b = a.clone();
        a.absorb(&b);
        assert_eq!(a.windows, 6);
        assert_eq!(a.events, 10);
        assert_eq!(a.shard_events, vec![4, 6]);
        assert_eq!(a.workers[0].busy_ns, 20);
        assert_eq!(a.workers[0].windowing_ns(), 10);
        assert_eq!(a.workers[0].samples.len(), 2);
    }
}
