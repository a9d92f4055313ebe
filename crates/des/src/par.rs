//! Conservative parallel discrete-event execution over sharded queues.
//!
//! ## Model
//!
//! The event space is partitioned into **shards** by a caller-supplied
//! [`ShardMap`] (the network layer maps torus regions to shards). Each
//! shard owns its own priority queue and its own world state; a handler
//! running on shard *s* may schedule events for any shard, but every
//! **cross-shard** event must be scheduled at least [`ShardMap::lookahead`]
//! after the current time. That bound is exactly the paper's premise
//! turned inward: Anton's fixed, known minimum link latency means a node
//! cannot affect a remote node sooner than the wire allows — so a shard
//! cannot affect another shard sooner than the minimum cross-shard event
//! latency, and events closer than that are causally independent.
//!
//! Execution proceeds in **windows**. With `T` the global minimum pending
//! event time and `L` the lookahead, every shard may safely execute all
//! of its events in `[T, T + L)` without hearing from its neighbors:
//! any cross-shard event generated inside the window lands at or after
//! `T + L` (asserted at runtime). Cross-shard events are staged in
//! outboxes and exchanged at window boundaries.
//!
//! In the default [`LookaheadMode::Adaptive`], the uniform `T + L` end is
//! replaced per shard `b` by the minimum over live shards `a` of
//! `head(a) + dist(a, b)`, where `dist` is the min-plus closure of the
//! per-pair [`LookaheadMatrix`] and `dist(b, b)` is `b`'s shortest round
//! trip through a peer (an event `b` sends can come back). Shard pairs
//! coupled only through slow paths get windows far wider than the single
//! cheapest link allows, and a shard whose peers have drained runs ahead
//! until its own round trip could return instead of stopping at the
//! cheapest link (demand-driven window extension). Every bound is at
//! least the global one, so each adaptive window executes a superset of
//! the uniform window starting at the same `T` — same events, same
//! per-shard order, fewer barriers.
//!
//! One worker loop executes every run: with one worker it runs on the
//! calling thread, with more each runs on its own scoped thread, and all
//! of them cross the same barriers and exchange the same outboxes. A
//! sequential run is the one-shard case: a single window that drains one
//! queue in `(time, birth_key)` order on the calling thread.
//!
//! ## Determinism
//!
//! Every event carries a **birth key** `(birth_time, origin_shard, seq)`
//! assigned when it is scheduled: `birth_time` is the simulated time of
//! the scheduling handler, `origin_shard` the shard that scheduled it
//! (0 for pre-run seeds), and `seq` a per-shard schedule counter. The
//! key packs into 16 bytes, the time plus `origin << 48 | seq`, which
//! orders exactly as the triple because an engine has at most
//! [`MAX_SHARDS`] shards and a counter panics before it reaches 2^48;
//! a queue entry, `(time, key, handle)`, is 32 bytes. Each
//! shard executes its events in `(time, birth_key)` order, and the
//! conservative windows make that order the one a single global queue
//! over all shards would produce. Because shard worlds are disjoint, a
//! shard's execution depends only on its own event sequence — which the
//! window protocol makes identical whatever the worker count — so runs
//! are bit-identical at every thread count. `tests/par_equivalence.rs`
//! checks every thread count against such a global queue.

use crate::profile::{ParProfile, WindowSample, WorkerProfile, DEFAULT_SAMPLE_CAP};
use crate::queue::EventQueue;
use crate::sched::{EventHandler, RunOutcome, Scheduler};
use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as MemOrd};
use std::sync::Mutex;
use std::time::Instant;

/// Partition of the event space, plus the causality bound that makes
/// conservative windows safe.
pub trait ShardMap<E>: Sync {
    /// Number of shards. Fixed for the life of a run — and, crucially,
    /// independent of the worker-thread count, so the event partition
    /// (and therefore every birth key) is identical at any thread count.
    fn shard_count(&self) -> usize;

    /// The shard that executes `event`.
    fn shard_of(&self, event: &E) -> usize;

    /// Minimum delay of any cross-shard event: a handler executing at
    /// time `t` may only schedule events for *other* shards at or after
    /// `t + lookahead()`. Violations panic at schedule time.
    fn lookahead(&self) -> SimDuration;

    /// Per-pair minimum cross-shard latencies. The default is the uniform
    /// matrix at [`ShardMap::lookahead`]; maps that know the topology
    /// (the network layer's slab plans) override this with per-pair
    /// bounds, widening windows between shards only coupled through slow
    /// paths. Every finite entry must be at least `lookahead()` — the
    /// engine validates this at construction, because the runtime
    /// cross-shard assertion checks the per-pair bound in both modes.
    fn lookahead_matrix(&self) -> LookaheadMatrix {
        LookaheadMatrix::uniform(self.shard_count(), self.lookahead())
    }
}

/// Which window bound the engine applies per shard per window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LookaheadMode {
    /// Classic uniform windows: every shard runs to `T + lookahead()`,
    /// the single global bound. Kept as the comparison baseline and for
    /// maps whose matrix adds nothing over the global bound.
    Global,
    /// Per-shard windows from the lookahead matrix: shard `b` runs to the
    /// minimum over live shards `a` of `head(a) + dist(a, b)`, where
    /// `dist(b, b)` is `b`'s shortest round trip through a peer. Never
    /// narrower than a Global window at the same start time, and
    /// bit-identical in simulated results (the window partition is a pure
    /// function of published heads and the static matrix, so it is the
    /// same at every thread count).
    #[default]
    Adaptive,
}

impl std::fmt::Display for LookaheadMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LookaheadMode::Global => "global",
            LookaheadMode::Adaptive => "adaptive",
        })
    }
}

/// Per-shard-pair minimum cross-shard event latency, row-major in
/// picoseconds. `u64::MAX` marks a pair with no direct path (no single
/// event may cross it); the diagonal is unused. The engine takes the
/// min-plus closure ([`LookaheadMatrix::closure_ps`]) to bound multi-hop
/// relays, so `set` only needs the *direct* single-event bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookaheadMatrix {
    shards: usize,
    direct: Vec<u64>,
}

impl LookaheadMatrix {
    /// A matrix declaring every ordered pair directly reachable at
    /// exactly `look` — the classic single-bound model.
    pub fn uniform(shards: usize, look: SimDuration) -> LookaheadMatrix {
        let mut m = LookaheadMatrix::unreachable(shards);
        for a in 0..shards {
            for b in 0..shards {
                if a != b {
                    m.direct[a * shards + b] = look.0;
                }
            }
        }
        m
    }

    /// A matrix declaring no pair directly reachable; build topology up
    /// with [`LookaheadMatrix::set`].
    pub fn unreachable(shards: usize) -> LookaheadMatrix {
        assert!(shards > 0, "a lookahead matrix needs at least one shard");
        let mut direct = vec![u64::MAX; shards * shards];
        for a in 0..shards {
            direct[a * shards + a] = 0;
        }
        LookaheadMatrix { shards, direct }
    }

    /// Declare the minimum latency of a single event crossing
    /// `src -> dst`. Ignored for `src == dst` (local events are unbounded
    /// by construction).
    pub fn set(&mut self, src: usize, dst: usize, bound: SimDuration) {
        if src != dst {
            self.direct[src * self.shards + dst] = bound.0;
        }
    }

    /// Number of shards the matrix covers.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The direct bound for `src -> dst` in picoseconds (`u64::MAX` if
    /// unreachable, `0` on the diagonal).
    pub fn direct_ps(&self, src: usize, dst: usize) -> u64 {
        self.direct[src * self.shards + dst]
    }

    /// The direct bound for `src -> dst`, `None` if the pair has no
    /// direct path.
    pub fn direct(&self, src: usize, dst: usize) -> Option<SimDuration> {
        match self.direct_ps(src, dst) {
            u64::MAX => None,
            ps => Some(SimDuration(ps)),
        }
    }

    /// The smallest off-diagonal direct bound — the tightest coupling in
    /// the machine, which is what a single global lookahead must assume
    /// everywhere. `None` if no pair is directly reachable.
    pub fn min_direct(&self) -> Option<SimDuration> {
        (0..self.shards * self.shards)
            .filter(|i| i / self.shards != i % self.shards)
            .map(|i| self.direct[i])
            .filter(|&d| d != u64::MAX)
            .min()
            .map(SimDuration)
    }

    /// Min-plus (Floyd–Warshall) closure of the direct bounds: entry
    /// `a * shards + b` is the minimum total latency of *any* event chain
    /// carrying influence from shard `a` into shard `b`, relays included.
    /// `u64::MAX` means no chain exists; the diagonal is `0`.
    pub fn closure_ps(&self) -> Vec<u64> {
        let n = self.shards;
        let mut dist = self.direct.clone();
        for a in 0..n {
            dist[a * n + a] = 0;
        }
        for k in 0..n {
            for a in 0..n {
                let dak = dist[a * n + k];
                if dak == u64::MAX {
                    continue;
                }
                for b in 0..n {
                    let dkb = dist[k * n + b];
                    if dkb == u64::MAX {
                        continue;
                    }
                    let via = dak.saturating_add(dkb);
                    if via < dist[a * n + b] {
                        dist[a * n + b] = via;
                    }
                }
            }
        }
        dist
    }
}

/// The most shards an engine takes: origins `0..=MAX_SHARDS` (seeds, then
/// one per shard) must fit the 16 bits above a birth key's sequence.
pub const MAX_SHARDS: usize = (1 << 16) - 1;

/// Width of a birth key's per-origin schedule counter.
const SEQ_BITS: u32 = 48;

/// The deterministic total-order tie-break: where and when an event was
/// born. Seeds use origin 0; events scheduled by shard `s` use `s + 1`.
/// `origin_seq` is `origin << 48 | seq`, so the derived order is the
/// order of `(time, origin, seq)`: origins stay below 2^16
/// ([`MAX_SHARDS`]) and sequences below 2^48 ([`take_seq`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct BirthKey {
    time: SimTime,
    origin_seq: u64,
}

impl BirthKey {
    /// The key of the event born at `time` on `origin` (0 for a seed,
    /// `s + 1` for shard `s`), `seq`-th from that origin.
    fn new(time: SimTime, origin: usize, seq: u64) -> BirthKey {
        debug_assert!(origin <= MAX_SHARDS && seq >> SEQ_BITS == 0);
        BirthKey {
            time,
            origin_seq: (origin as u64) << SEQ_BITS | seq,
        }
    }
}

/// Take the next value of a schedule counter. Panics rather than let a
/// sequence reach 2^48 and spill into the origin bits of a birth key.
fn take_seq(counter: &mut u64) -> u64 {
    let seq = *counter;
    assert!(
        seq >> SEQ_BITS == 0,
        "birth-key sequence exhausted: an origin scheduled 2^48 events"
    );
    *counter += 1;
    seq
}

/// A cross-shard event in flight between windows: fires at `at`; ties in
/// time break by birth key.
struct ParScheduled<E> {
    at: SimTime,
    birth: BirthKey,
    event: E,
}

/// One shard's queue, keyed by `(at, birth)`, plus its deterministic
/// counters.
struct Shard<E> {
    queue: EventQueue<BirthKey, E>,
    /// Per-shard schedule counter feeding birth keys.
    birth_seq: u64,
    /// Time of the last event this shard executed.
    last_at: SimTime,
}

impl<E> Shard<E> {
    fn new() -> Shard<E> {
        Shard {
            queue: EventQueue::new(),
            birth_seq: 0,
            last_at: SimTime::ZERO,
        }
    }

    /// Head time in picoseconds, `u64::MAX` when drained — the exact
    /// value published to the coordination snapshot.
    fn head_ps(&self) -> u64 {
        self.queue.peek().map_or(u64::MAX, |(at, _)| at.0)
    }
}

/// The conservative parallel event engine: one queue per shard, windowed
/// execution, deterministic at any worker count. See the module docs for
/// the protocol and the determinism argument.
pub struct ParEngine<E, M> {
    map: M,
    threads: usize,
    shards: Vec<Shard<E>>,
    /// Which window bound each run applies.
    mode: LookaheadMode,
    /// The map's per-pair direct bounds (validated at construction).
    matrix: LookaheadMatrix,
    /// Adaptive window bounds: the min-plus closure of `matrix` off the
    /// diagonal, each shard's shortest round trip through a peer on it.
    dist: Vec<u64>,
    /// Seeds (pre-run scheduled events) number from a single counter.
    seed_seq: u64,
    events_processed: u64,
    now: SimTime,
    /// Whether runtime profiling is enabled.
    profiling: bool,
    /// Accumulated profile across `run_until` calls (profiling enabled).
    profile: Option<ParProfile>,
}

impl<E: Send, M: ShardMap<E>> ParEngine<E, M> {
    /// Build an engine over `map`'s shards, executing with `threads`
    /// workers (clamped to the shard count; a single worker runs on the
    /// calling thread).
    pub fn new(map: M, threads: usize) -> ParEngine<E, M> {
        let n = map.shard_count();
        assert!(n > 0, "shard map must define at least one shard");
        assert!(
            n <= MAX_SHARDS,
            "shard map defines {n} shards; birth keys hold at most {MAX_SHARDS}"
        );
        assert!(
            n == 1 || map.lookahead() > SimDuration::ZERO,
            "multi-shard execution requires a positive lookahead"
        );
        let matrix = map.lookahead_matrix();
        assert_eq!(
            matrix.shards(),
            n,
            "lookahead matrix must cover every shard"
        );
        // Both modes assert cross-shard events against the per-pair
        // bounds, and Global-mode windows span the single global bound —
        // so every finite pair bound must be positive and no tighter than
        // the global one, or a matrix-legal event could land inside a
        // Global window.
        let floor = map.lookahead().0;
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let d = matrix.direct_ps(a, b);
                assert!(
                    d == u64::MAX || (d > 0 && d >= floor),
                    "lookahead matrix entry {a}->{b} ({d} ps) is below the \
                     global bound ({floor} ps)"
                );
            }
        }
        // An event a shard sends can come back through a peer, so the
        // shard's own head bounds its window at its shortest round trip.
        let mut dist = matrix.closure_ps();
        for b in 0..n {
            dist[b * n + b] = (0..n)
                .filter(|&a| a != b)
                .map(|a| dist[b * n + a].saturating_add(dist[a * n + b]))
                .min()
                .unwrap_or(u64::MAX);
        }
        ParEngine {
            map,
            threads: threads.max(1),
            shards: (0..n).map(|_| Shard::new()).collect(),
            mode: LookaheadMode::default(),
            matrix,
            dist,
            seed_seq: 0,
            events_processed: 0,
            now: SimTime::ZERO,
            profiling: false,
            profile: None,
        }
    }

    /// Select the window bound for subsequent runs. Simulated results are
    /// bit-identical in both modes; only the window partition (and hence
    /// barrier count and wall time) changes.
    pub fn set_lookahead_mode(&mut self, mode: LookaheadMode) {
        self.mode = mode;
    }

    /// The validated per-pair lookahead matrix.
    pub fn lookahead_matrix(&self) -> &LookaheadMatrix {
        &self.matrix
    }

    /// The window policy a run applies: the mode plus owned copies of the
    /// static bounds, so workers can consult it while the engine's shard
    /// state is carved up.
    fn window_policy(&self) -> WindowPolicy {
        WindowPolicy {
            mode: self.mode,
            look_ps: self.map.lookahead().0,
            nshards: self.shards.len(),
            direct: self.matrix.direct.clone(),
            dist: self.dist.clone(),
        }
    }

    /// Enable runtime profiling with the default per-worker window-sample
    /// cap. Profiling captures wall-clock phase accounting per worker and
    /// deterministic event/window/traffic counts per shard; it never
    /// touches event ordering, so simulated results are bit-identical
    /// with profiling on or off.
    pub fn enable_profiling(&mut self) {
        self.profiling = true;
    }

    /// Take the accumulated profile, leaving the accumulator empty for
    /// subsequent runs.
    pub fn take_profile(&mut self) -> Option<ParProfile> {
        self.profile.take()
    }

    /// The shard map in force.
    pub fn map(&self) -> &M {
        &self.map
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Time of the last event processed (max across shards).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Events currently pending across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Seed an event at absolute time `at`, routed by the shard map.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let shard = self.map.shard_of(&event);
        self.schedule_at_shard(shard, at, event);
    }

    /// Seed an event on an explicit shard (for broadcast-style kickoff
    /// events whose shard the map cannot derive from the value alone).
    pub fn schedule_at_shard(&mut self, shard: usize, at: SimTime, event: E) {
        assert!(at >= self.now, "causality violation");
        let birth = BirthKey::new(self.now, 0, take_seq(&mut self.seed_seq));
        self.shards[shard].queue.push(at, birth, event);
    }

    /// Run until every shard's queue drains. Panics if the run stops for
    /// any other reason.
    pub fn run<W: EventHandler<E> + Send>(&mut self, worlds: &mut [W]) {
        match self.run_until(worlds, SimTime(u64::MAX), u64::MAX) {
            RunOutcome::Drained => {}
            other => unreachable!("unbounded run ended with {other:?}"),
        }
    }

    /// Run until drained, past `horizon`, or `max_events` processed.
    /// Events stamped exactly at the horizon fire. The event budget is
    /// checked before every event: in each window a shard may run at
    /// most its share, `ceil(left / nshards)`, of the budget left when
    /// the window opened, and the run stops at the first window start
    /// that finds the budget spent. So a one-shard run stops after
    /// exactly `max_events` events, an `n`-shard run after at least
    /// `max_events` and fewer than `max_events + n`, and every shard
    /// stops at the same event whatever the thread count.
    ///
    /// `worlds` holds one world per shard; worlds must be disjoint (no
    /// shared mutable state) for the determinism guarantee to hold.
    pub fn run_until<W: EventHandler<E> + Send>(
        &mut self,
        worlds: &mut [W],
        horizon: SimTime,
        max_events: u64,
    ) -> RunOutcome {
        assert_eq!(
            worlds.len(),
            self.shards.len(),
            "one world per shard required"
        );
        let nworkers = self.threads.min(self.shards.len());
        let t0 = Instant::now();
        let mut run_prof = self
            .profiling
            .then(|| ParProfile::new(nworkers, self.shards.len(), DEFAULT_SAMPLE_CAP));
        let outcome = self.run_windowed(worlds, horizon, max_events, nworkers, &mut run_prof, t0);
        if let Some(mut p) = run_prof {
            p.wall_ns = elapsed_ns(t0);
            match &mut self.profile {
                None => self.profile = Some(p),
                Some(acc) => acc.absorb(&p),
            }
        }
        self.now = self
            .shards
            .iter()
            .map(|s| s.last_at)
            .max()
            .unwrap_or(SimTime::ZERO);
        outcome
    }

    /// The windowed executor. Shards are block-partitioned across
    /// persistent workers; two spin-barrier crossings per window
    /// (import+reduce, execute). A single worker runs on the calling
    /// thread; two or more run on scoped threads.
    fn run_windowed<W: EventHandler<E> + Send>(
        &mut self,
        worlds: &mut [W],
        horizon: SimTime,
        max_events: u64,
        nworkers: usize,
        run_prof: &mut Option<ParProfile>,
        t0: Instant,
    ) -> RunOutcome {
        let nshards = self.shards.len();
        let policy = self.window_policy();
        let already = self.events_processed;

        // Block partition: worker w owns shards [bounds[w], bounds[w+1]).
        let bounds: Vec<usize> = (0..=nworkers).map(|w| w * nshards / nworkers).collect();

        let coord = Coordination::<E> {
            nshards,
            barrier: SpinBarrier::new(nworkers),
            poison: AtomicUsize::new(UNPOISONED),
            heads: (0..nshards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            executed: (0..nworkers).map(|_| AtomicU64::new(0)).collect(),
            outboxes: (0..nshards * nshards)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        };

        let prof_cap = run_prof.as_ref().map(|p| p.sample_cap);
        let map = &self.map;

        // Carve (shards, worlds) into per-worker jobs.
        let mut jobs = Vec::with_capacity(nworkers);
        let mut shard_rest = std::mem::take(&mut self.shards);
        let mut world_rest = worlds;
        for w in (0..nworkers).rev() {
            let (rest, mine) = world_rest.split_at_mut(bounds[w]);
            world_rest = rest;
            jobs.push((w, shard_rest.split_off(bounds[w]), mine));
        }
        jobs.reverse();

        let run = |(w, chunk, mine): (usize, Vec<Shard<E>>, &mut [W])| {
            let opts = WorkerOpts { prof_cap, t0 };
            worker_loop(
                w, bounds[w], chunk, mine, map, &policy, horizon, max_events, &coord, opts,
            )
        };
        let mut joined: Vec<std::thread::Result<_>> = if nworkers == 1 {
            jobs.into_iter().map(|job| Ok(run(job))).collect()
        } else {
            let run = &run;
            std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .into_iter()
                    .map(|job| scope.spawn(move || run(job)))
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            })
        };
        let poisoner = coord.poison.load(MemOrd::SeqCst);
        if poisoner != UNPOISONED {
            // Re-raise the first panicking worker's own payload: its
            // siblings only carry the abort notice.
            let cause = joined.swap_remove(poisoner).err();
            std::panic::resume_unwind(cause.expect("the poisoning worker panicked"));
        }

        let mut outcome = None;
        let mut total_executed = 0u64;
        // Merge in worker order — the deterministic merge the profile
        // docs promise.
        for done in joined {
            let (out, chunk, executed, wout) = done.expect("no worker panicked");
            // Every worker reaches the identical decision; keep one.
            outcome.get_or_insert(out);
            debug_assert_eq!(outcome, Some(out));
            if let (Some(p), Some(wo)) = (run_prof.as_mut(), wout) {
                let first = wo.wp.first_shard;
                for (i, &ev) in wo.shard_events.iter().enumerate() {
                    p.shard_events[first + i] += ev;
                }
                for (i, &b) in wo.shard_busy_ns.iter().enumerate() {
                    p.shard_busy_ns[first + i] += b;
                }
                for (i, &tr) in wo.traffic.iter().enumerate() {
                    p.traffic[(first + i / nshards) * nshards + i % nshards] += tr;
                }
                // Every worker participates in every window.
                p.windows = p.windows.max(wo.wp.windows);
                p.events += wo.wp.events;
                p.recovered_events += wo.wp.recovered_events;
                p.extended_shard_windows += wo.wp.extended_shard_windows;
                p.workers.push(wo.wp);
            }
            self.shards.extend(chunk);
            total_executed += executed;
        }
        self.events_processed = already + total_executed;
        outcome.expect("at least one worker")
    }
}

/// The per-window bound calculator a run applies: the mode plus owned
/// copies of the static per-pair bounds, shared read-only by every
/// worker. All arithmetic is in picoseconds with `u64::MAX` as the
/// unreachable/drained sentinel.
struct WindowPolicy {
    mode: LookaheadMode,
    /// The single global bound ([`ShardMap::lookahead`]).
    look_ps: u64,
    nshards: usize,
    /// Direct per-pair bounds, row-major (`u64::MAX` = unreachable).
    direct: Vec<u64>,
    /// Adaptive window bounds (see [`ParEngine`]'s `dist`).
    dist: Vec<u64>,
}

impl WindowPolicy {
    /// Exclusive end of a uniform window starting at `t`: one global
    /// lookahead out, clamped so events exactly at the horizon still
    /// fire. A single shard has no cross-shard constraint at all.
    fn global_end(&self, t: u64, horizon: SimTime) -> u64 {
        let look = if self.nshards == 1 {
            u64::MAX
        } else {
            self.look_ps.max(1)
        };
        t.saturating_add(look).min(horizon.0.saturating_add(1))
    }

    /// Exclusive end of shard `b`'s window given the published heads.
    ///
    /// Adaptive soundness: any event a live shard `a` can ever deliver
    /// into `b` — directly or through any relay chain — fires at or after
    /// `head(a) + dist(a, b)`, because every event `a` executes this
    /// window is at `head(a)` or later and every hop adds at least its
    /// direct bound (asserted at schedule time). That holds for `a == b`
    /// too: an event `b` sends can return through a peer, at or after
    /// `head(b) + dist(b, b)`, its shortest round trip. The min over live
    /// shards therefore bounds everything `b` cannot yet know about.
    /// Drained shards (`head == u64::MAX`) impose no bound, so a shard
    /// whose peers have drained runs until its own round trip could
    /// return — the demand-driven window extension, decided purely from
    /// the published snapshot so it is identical at every thread count.
    /// Since every off-diagonal `dist >= look`, every round trip is at
    /// least `2 * look`, and every live head is `>= t`, the result is
    /// never below [`WindowPolicy::global_end`]; the shard holding the
    /// minimum head always gets an end past its own head, so every window
    /// progresses. A lone shard has no round trip and runs to the horizon.
    fn shard_end(&self, heads: &[u64], b: usize, t: u64, horizon: SimTime) -> u64 {
        match self.mode {
            LookaheadMode::Global => self.global_end(t, horizon),
            LookaheadMode::Adaptive => {
                let n = self.nshards;
                let mut end = u64::MAX;
                for (a, &head) in heads.iter().enumerate() {
                    if head != u64::MAX {
                        end = end.min(head.saturating_add(self.dist[a * n + b]));
                    }
                }
                end.min(horizon.0.saturating_add(1))
            }
        }
    }

    /// Panic unless a cross-shard event born at `born` on `src` and
    /// firing at `at` on `dst` respects the declared direct bound. This
    /// guards both modes: it is what makes every window end provably
    /// conservative.
    fn assert_cross(&self, src: usize, dst: usize, born: SimTime, at: SimTime) {
        let bound = self.direct[src * self.nshards + dst];
        if bound == u64::MAX {
            panic!(
                "lookahead violation: shard {src} scheduled an event at {at} for \
                 shard {dst}, a pair the lookahead matrix declares unreachable"
            );
        }
        assert!(
            at.0 >= born.0.saturating_add(bound),
            "lookahead violation: shard {src} scheduled a cross-shard event \
             at {at}, less than {} after {born}",
            SimDuration(bound)
        );
    }
}

/// Monotonic wall nanoseconds since `t0`, saturating at `u64::MAX`.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-worker run options: profiling sample cap (None = profiling off)
/// and the run's wall-clock epoch.
struct WorkerOpts {
    prof_cap: Option<usize>,
    t0: Instant,
}

/// Profiling output one worker carries back to the engine at join time.
/// Shard-indexed vectors use *local* indices (0 = the worker's first
/// owned shard); the engine re-bases them when merging.
struct WorkerOut {
    wp: WorkerProfile,
    /// Events executed per owned shard.
    shard_events: Vec<u64>,
    /// Wall busy time per owned shard.
    shard_busy_ns: Vec<u64>,
    /// Cross-shard traffic rows for owned shards, row-major
    /// `local_src * nshards + dst`.
    traffic: Vec<u64>,
}

/// Shared state coordinating the workers of one windowed run.
struct Coordination<E> {
    nshards: usize,
    barrier: SpinBarrier,
    /// The first worker to panic, or [`UNPOISONED`].
    poison: AtomicUsize,
    /// Per-*shard* head time (`u64::MAX` = drained), published in phase 1
    /// — the snapshot every worker derives the identical per-shard window
    /// ends from.
    heads: Vec<AtomicU64>,
    /// Per-worker cumulative executed-event count.
    executed: Vec<AtomicU64>,
    /// Flattened `src * nshards + dst`: cross-shard events sent during a
    /// window, drained by `dst`'s worker at the next boundary. A barrier
    /// separates every window's sends from the imports before and after
    /// it, so a cell's sender and importer never contend for its lock.
    outboxes: Vec<Mutex<Vec<ParScheduled<E>>>>,
}

/// One worker: owns a contiguous block of shards (and their worlds) for
/// the whole run. Returns the run outcome, the shard block (queues and
/// counters survive for a later resume), its executed-event count, and
/// its profiling output when profiling is on.
///
/// Profiling cost discipline: `Instant` reads happen per *phase* per
/// window (import end, barrier exits, per-shard execute spans), never per
/// event; per-event profiling work is limited to local integer
/// increments behind an `Option` branch.
#[allow(clippy::too_many_arguments)]
fn worker_loop<E: Send, W: EventHandler<E>, M: ShardMap<E>>(
    widx: usize,
    first_shard: usize,
    mut shards: Vec<Shard<E>>,
    worlds: &mut [W],
    map: &M,
    policy: &WindowPolicy,
    horizon: SimTime,
    max_events: u64,
    co: &Coordination<E>,
    opts: WorkerOpts,
) -> (RunOutcome, Vec<Shard<E>>, u64, Option<WorkerOut>) {
    // If this worker panics (handler bug, lookahead violation), poison
    // the barrier so the others panic out instead of spinning forever.
    let _guard = PoisonGuard {
        poison: &co.poison,
        worker: widx,
    };
    let t0 = opts.t0;
    let nshards = co.nshards;
    let loop_start = opts.prof_cap.map(|_| elapsed_ns(t0));
    let mut out = opts.prof_cap.map(|cap| {
        (
            WorkerOut {
                wp: WorkerProfile {
                    worker: widx,
                    first_shard,
                    shards: shards.len(),
                    ..Default::default()
                },
                shard_events: vec![0; shards.len()],
                shard_busy_ns: vec![0; shards.len()],
                traffic: vec![0; shards.len() * co.nshards],
            },
            cap,
        )
    });
    let mut executed_total: u64 = 0;
    // Exclusive end of each owned shard's previous window; imports must
    // land at or after it or the window protocol was violated.
    let mut prev_ends = vec![0u64; shards.len()];
    let mut heads_buf = vec![u64::MAX; nshards];
    let mut sched = Scheduler::new();
    let outcome = loop {
        // Phase 1: import cross-shard events sent in the previous window,
        // then publish per-shard heads and this worker's event count.
        let phase_start = out.is_some().then(|| elapsed_ns(t0));
        for (i, shard) in shards.iter_mut().enumerate() {
            let dst = first_shard + i;
            for src in 0..nshards {
                let mut sent = co.outboxes[src * nshards + dst]
                    .lock()
                    .expect("outbox poisoned");
                for item in sent.drain(..) {
                    debug_assert!(
                        item.at.0 >= prev_ends[i],
                        "conservative window violated by an import at {}",
                        item.at
                    );
                    shard.queue.push(item.at, item.birth, item.event);
                }
            }
            co.heads[dst].store(shard.head_ps(), MemOrd::SeqCst);
        }
        co.executed[widx].store(executed_total, MemOrd::SeqCst);
        let merge_end = out.is_some().then(|| elapsed_ns(t0));
        co.barrier.wait(&co.poison);
        if let (Some((o, _)), Some(ps), Some(me)) = (out.as_mut(), phase_start, merge_end) {
            o.wp.merge_ns += me.saturating_sub(ps);
            o.wp.barrier_publish_ns += elapsed_ns(t0).saturating_sub(me);
        }

        // Phase 2: every worker independently computes the identical
        // window decision from the published per-shard head snapshot.
        for (s, h) in heads_buf.iter_mut().enumerate() {
            *h = co.heads[s].load(MemOrd::SeqCst);
        }
        let t = *heads_buf.iter().min().expect("at least one shard");
        let total: u64 = co.executed.iter().map(|h| h.load(MemOrd::SeqCst)).sum();
        // Each shard may spend its even share of what is left of the
        // budget at the window start; a pure function of the snapshot,
        // so deterministic. A shard stopped by its share resumes in the
        // next window, whose bounds come from the new heads as always.
        let share = max_events.saturating_sub(total).div_ceil(nshards as u64);
        if t == u64::MAX {
            break RunOutcome::Drained;
        }
        if t > horizon.0 {
            break RunOutcome::HorizonReached;
        }
        if total >= max_events {
            break RunOutcome::BudgetExhausted;
        }
        let g_end = policy.global_end(t, horizon);

        // Phase 3: execute each owned shard to its own window end,
        // pushing each cross-shard event into its (src, dst) outbox.
        let exec_start = out.is_some().then(|| elapsed_ns(t0));
        let mut window_events = 0u64;
        for (i, shard) in shards.iter_mut().enumerate() {
            let sidx = first_shard + i;
            let end_i = policy.shard_end(&heads_buf, sidx, t, horizon);
            let shard_start = out.is_some().then(|| elapsed_ns(t0));
            let mut shard_executed = 0u64;
            let mut recovered_here = false;
            while shard.head_ps() < end_i && shard_executed < share {
                let (at, _birth, event) = shard.queue.pop().expect("nonempty below end");
                shard.last_at = at;
                let born = at;
                sched.reset(born);
                worlds[i].handle(event, &mut sched);
                executed_total += 1;
                shard_executed += 1;
                if out.is_some() && policy.mode == LookaheadMode::Adaptive && at.0 >= g_end {
                    recovered_here = true;
                    if let Some((o, _)) = out.as_mut() {
                        o.wp.recovered_events += 1;
                    }
                }
                for (eat, event) in sched.drain() {
                    let birth = BirthKey::new(born, sidx + 1, take_seq(&mut shard.birth_seq));
                    let dst = map.shard_of(&event);
                    if dst == sidx {
                        shard.queue.push(eat, birth, event);
                    } else {
                        policy.assert_cross(sidx, dst, born, eat);
                        if let Some((o, _)) = out.as_mut() {
                            o.traffic[i * nshards + dst] += 1;
                        }
                        co.outboxes[sidx * nshards + dst]
                            .lock()
                            .expect("outbox poisoned")
                            .push(ParScheduled {
                                at: eat,
                                birth,
                                event,
                            });
                    }
                }
            }
            prev_ends[i] = end_i;
            if recovered_here {
                if let Some((o, _)) = out.as_mut() {
                    o.wp.extended_shard_windows += 1;
                }
            }
            if let (Some((o, _)), Some(ss)) = (out.as_mut(), shard_start) {
                o.shard_events[i] += shard_executed;
                o.shard_busy_ns[i] += elapsed_ns(t0).saturating_sub(ss);
            }
            window_events += shard_executed;
        }
        let exec_end = out.is_some().then(|| elapsed_ns(t0));
        if let (Some((o, cap)), Some(es), Some(ee)) = (out.as_mut(), exec_start, exec_end) {
            let exec_ns = ee.saturating_sub(es);
            o.wp.busy_ns += exec_ns;
            o.wp.windows += 1;
            o.wp.active_windows += u64::from(window_events > 0);
            o.wp.events += window_events;
            if o.wp.samples.len() < *cap {
                o.wp.samples.push(WindowSample {
                    window: o.wp.windows - 1,
                    start_ns: es,
                    exec_ns,
                    events: window_events,
                    sim_ps: t,
                });
            }
        }
        co.barrier.wait(&co.poison);
        if let (Some((o, _)), Some(ee)) = (out.as_mut(), exec_end) {
            o.wp.barrier_window_ns += elapsed_ns(t0).saturating_sub(ee);
        }
    };
    if let (Some((o, _)), Some(start)) = (out.as_mut(), loop_start) {
        o.wp.loop_ns = elapsed_ns(t0).saturating_sub(start);
    }
    (outcome, shards, executed_total, out.map(|(o, _)| o))
}

/// A reusable spin barrier (std's `Barrier` parks threads; windows are
/// microseconds apart, so spinning is the right trade). Poison-aware:
/// when a sibling panics, waiters panic out instead of hanging.
struct SpinBarrier {
    total: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(total: usize) -> SpinBarrier {
        SpinBarrier {
            total,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self, poison: &AtomicUsize) {
        let gen = self.generation.load(MemOrd::SeqCst);
        if self.arrived.fetch_add(1, MemOrd::SeqCst) + 1 == self.total {
            self.arrived.store(0, MemOrd::SeqCst);
            self.generation.fetch_add(1, MemOrd::SeqCst);
        } else {
            let mut spins = 0u32;
            while self.generation.load(MemOrd::SeqCst) == gen {
                if poison.load(MemOrd::SeqCst) != UNPOISONED {
                    panic!("parallel DES worker aborted: a sibling worker panicked");
                }
                // Spin briefly for the common in-cache handoff, then
                // yield: with more workers than cores a pure spin burns
                // whole scheduler quanta waiting for a descheduled peer.
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// [`Coordination::poison`] while no worker has panicked.
const UNPOISONED: usize = usize::MAX;

/// Records its worker as the poisoner if dropped during a panic unwind
/// and no sibling panicked first.
struct PoisonGuard<'a> {
    poison: &'a AtomicUsize,
    worker: usize,
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.poison.compare_exchange(
                UNPOISONED,
                self.worker,
                MemOrd::SeqCst,
                MemOrd::SeqCst,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy sharded machine: `nshards` counters passing tokens. Local
    /// hops may be arbitrarily fast; ring hops to the next shard respect
    /// the lookahead.
    const LOOK: SimDuration = SimDuration::from_ns(50);

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Token {
        shard: usize,
        hops_left: u32,
        tag: u64,
    }

    struct RingMap {
        n: usize,
    }

    impl ShardMap<Token> for RingMap {
        fn shard_count(&self) -> usize {
            self.n
        }
        fn shard_of(&self, ev: &Token) -> usize {
            ev.shard
        }
        fn lookahead(&self) -> SimDuration {
            LOOK
        }
    }

    /// Per-shard world: records (time, tag) pairs; forwards tokens.
    struct RingWorld {
        shard: usize,
        nshards: usize,
        log: Vec<(u64, u64)>,
    }

    impl EventHandler<Token> for RingWorld {
        fn handle(&mut self, ev: Token, sched: &mut Scheduler<Token>) {
            assert_eq!(ev.shard, self.shard, "event routed to the wrong shard");
            self.log.push((sched.now().as_ps(), ev.tag));
            if ev.hops_left == 0 {
                return;
            }
            // A fast local bounce (well under the lookahead) ...
            sched.after(
                SimDuration::from_ps(7),
                Token {
                    shard: self.shard,
                    hops_left: 0,
                    tag: ev.tag * 1000 + 1,
                },
            );
            // ... and a ring hop to the next shard at exactly the bound.
            sched.after(
                LOOK,
                Token {
                    shard: (self.shard + 1) % self.nshards,
                    hops_left: ev.hops_left - 1,
                    tag: ev.tag + 1,
                },
            );
        }
    }

    fn run_ring(threads: usize, nshards: usize, tokens: u32) -> (Vec<Vec<(u64, u64)>>, u64) {
        let mut eng = ParEngine::new(RingMap { n: nshards }, threads);
        let mut worlds: Vec<RingWorld> = (0..nshards)
            .map(|s| RingWorld {
                shard: s,
                nshards,
                log: Vec::new(),
            })
            .collect();
        for k in 0..tokens {
            eng.schedule_at(
                SimTime::from_ns(k as u64),
                Token {
                    shard: (k as usize) % nshards,
                    hops_left: 20,
                    tag: 10_000 * k as u64,
                },
            );
        }
        eng.run(&mut worlds);
        (
            worlds.into_iter().map(|w| w.log).collect(),
            eng.events_processed(),
        )
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        let (seq, n1) = run_ring(1, 4, 6);
        for threads in [2, 3, 4, 8] {
            let (par, np) = run_ring(threads, 4, 6);
            assert_eq!(seq, par, "{threads}-thread run diverged");
            assert_eq!(n1, np);
        }
    }

    #[test]
    fn horizon_and_budget_stop_consistently() {
        let run = |threads: usize, horizon: SimTime, budget: u64| {
            let nshards = 3;
            let mut eng = ParEngine::new(RingMap { n: nshards }, threads);
            let mut worlds: Vec<RingWorld> = (0..nshards)
                .map(|s| RingWorld {
                    shard: s,
                    nshards,
                    log: Vec::new(),
                })
                .collect();
            eng.schedule_at(
                SimTime::ZERO,
                Token {
                    shard: 0,
                    hops_left: 30,
                    tag: 0,
                },
            );
            let out = eng.run_until(&mut worlds, horizon, budget);
            let logs: Vec<_> = worlds.into_iter().map(|w| w.log).collect();
            (out, logs, eng.events_processed(), eng.pending())
        };
        // An event scheduled exactly at the horizon fires in both
        // executors (50 ns hops: the token lands at multiples of 50 ns).
        let h = SimTime::from_ns(150);
        let a = run(1, h, u64::MAX);
        let b = run(4, h, u64::MAX);
        assert_eq!(a, b);
        assert_eq!(a.0, RunOutcome::HorizonReached);
        assert!(a.1.iter().flatten().any(|&(t, _)| t == h.as_ps()));
        // Budget exhaustion is thread-count-invariant, and three shards
        // overshoot a budget by fewer than three events.
        let c = run(1, SimTime(u64::MAX), 9);
        let d = run(4, SimTime(u64::MAX), 9);
        assert_eq!(c, d);
        assert_eq!(c.0, RunOutcome::BudgetExhausted);
        assert!((9..12).contains(&c.2), "{} events", c.2);
    }

    /// In each window a shard runs at most its share of the budget left,
    /// and a shard stopped by its share resumes in the next window: one
    /// same-instant loop on three shards under a budget of 100 stops
    /// after exactly 100 events, and three loops stop after 3 × 34, not
    /// 3 × 100, at every thread count.
    #[test]
    fn budget_bounds_a_multi_shard_run() {
        struct Spin;
        impl EventHandler<Token> for Spin {
            fn handle(&mut self, ev: Token, sched: &mut Scheduler<Token>) {
                sched.now_event(ev);
            }
        }
        for (loops, want) in [(1, 100), (3, 102)] {
            for threads in [1, 3] {
                let mut eng = ParEngine::new(RingMap { n: 3 }, threads);
                for shard in 0..loops {
                    let token = Token {
                        shard,
                        hops_left: 0,
                        tag: 0,
                    };
                    eng.schedule_at(SimTime::ZERO, token);
                }
                let out = eng.run_until(&mut [Spin, Spin, Spin], SimTime(u64::MAX), 100);
                assert_eq!(out, RunOutcome::BudgetExhausted);
                assert_eq!(
                    eng.events_processed(),
                    want,
                    "{loops} loops at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn drained_run_reports_now_and_counts() {
        let nshards = 2;
        let mut eng = ParEngine::new(RingMap { n: nshards }, 2);
        let mut worlds: Vec<RingWorld> = (0..nshards)
            .map(|s| RingWorld {
                shard: s,
                nshards,
                log: Vec::new(),
            })
            .collect();
        eng.schedule_at(
            SimTime::ZERO,
            Token {
                shard: 0,
                hops_left: 4,
                tag: 0,
            },
        );
        eng.run(&mut worlds);
        // 5 ring arrivals + 4 local bounces (the last arrival has
        // hops_left == 0 and spawns nothing).
        assert_eq!(eng.events_processed(), 9);
        assert_eq!(eng.pending(), 0);
        // Last event: the final ring arrival at 4×50 ns (the last bounce
        // fires earlier, at 3×50 ns + 7 ps).
        assert_eq!(eng.now(), SimTime(4 * 50_000));
    }

    /// Run `run` at 1, 2 and 4 threads; each must panic with a message
    /// containing `expected` — the failing worker's own message, not a
    /// sibling's abort notice.
    fn panics_at_every_thread_count(expected: &str, run: impl Fn(usize)) {
        for threads in [1, 2, 4] {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(threads)))
                .expect_err("the run must panic");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains(expected),
                "{threads} threads: panic {msg:?} lacks {expected:?}"
            );
        }
    }

    #[test]
    fn undeclared_cross_shard_event_panics() {
        struct Cheater;
        impl EventHandler<Token> for Cheater {
            fn handle(&mut self, ev: Token, sched: &mut Scheduler<Token>) {
                if ev.hops_left > 0 {
                    // Cross-shard with a delay below the declared bound.
                    sched.after(
                        SimDuration::from_ns(1),
                        Token {
                            shard: 1,
                            hops_left: 0,
                            tag: 0,
                        },
                    );
                }
            }
        }
        panics_at_every_thread_count("less than 50.000 ns after", |threads| {
            let mut eng = ParEngine::new(RingMap { n: 2 }, threads);
            let mut worlds = vec![Cheater, Cheater];
            eng.schedule_at(
                SimTime::ZERO,
                Token {
                    shard: 0,
                    hops_left: 1,
                    tag: 0,
                },
            );
            eng.run(&mut worlds);
        });
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        struct Where(Vec<std::thread::ThreadId>);
        impl EventHandler<Token> for Where {
            fn handle(&mut self, _: Token, _: &mut Scheduler<Token>) {
                self.0.push(std::thread::current().id());
            }
        }
        let mut eng = ParEngine::new(RingMap { n: 2 }, 1);
        for shard in [0, 1] {
            let ev = Token {
                shard,
                hops_left: 0,
                tag: 0,
            };
            eng.schedule_at(SimTime::ZERO, ev);
        }
        let mut worlds = vec![Where(Vec::new()), Where(Vec::new())];
        eng.run(&mut worlds);
        let here = std::thread::current().id();
        for w in &worlds {
            assert_eq!(w.0, [here]);
        }
    }

    fn run_ring_profiled(
        threads: usize,
        nshards: usize,
        tokens: u32,
    ) -> (Vec<Vec<(u64, u64)>>, ParProfile) {
        let mut eng = ParEngine::new(RingMap { n: nshards }, threads);
        eng.enable_profiling();
        let mut worlds: Vec<RingWorld> = (0..nshards)
            .map(|s| RingWorld {
                shard: s,
                nshards,
                log: Vec::new(),
            })
            .collect();
        for k in 0..tokens {
            eng.schedule_at(
                SimTime::from_ns(k as u64),
                Token {
                    shard: (k as usize) % nshards,
                    hops_left: 20,
                    tag: 10_000 * k as u64,
                },
            );
        }
        eng.run(&mut worlds);
        let prof = eng.take_profile().expect("profiling was enabled");
        (worlds.into_iter().map(|w| w.log).collect(), prof)
    }

    #[test]
    fn profiling_perturbs_nothing_and_event_counts_are_thread_invariant() {
        // Profiling on must not change the simulated results...
        let (plain, _) = run_ring(1, 4, 6);
        let (seq, p1) = run_ring_profiled(1, 4, 6);
        assert_eq!(plain, seq, "profiling changed the simulation");
        // ...and the event-level profile fields are deterministic:
        // identical at any thread count, like every simulated observable.
        for threads in [2, 4] {
            let (par, pn) = run_ring_profiled(threads, 4, 6);
            assert_eq!(seq, par, "{threads}-thread profiled run diverged");
            assert_eq!(p1.windows, pn.windows, "window count diverged");
            assert_eq!(p1.events, pn.events);
            assert_eq!(p1.shard_events, pn.shard_events);
            assert_eq!(p1.traffic, pn.traffic);
            assert_eq!(pn.threads, threads.min(4));
            assert_eq!(pn.workers.len(), threads.min(4));
        }
        // Basic shape: events tally, workers account for all shards.
        assert_eq!(p1.events, p1.shard_events.iter().sum::<u64>());
        assert_eq!(p1.cross_shard_events(), p1.traffic.iter().sum::<u64>());
        for s in 0..4 {
            assert_eq!(p1.traffic_between(s, s), 0, "diagonal must be empty");
        }
    }

    #[test]
    fn worker_phase_accounting_telescopes_to_loop_time() {
        let (_, prof) = run_ring_profiled(4, 4, 8);
        assert_eq!(prof.workers.len(), 4);
        for w in &prof.workers {
            // The named phases are disjoint sub-spans of the loop, so
            // busy + merge + barriers never exceeds loop time, and the
            // residual accessor closes the sum exactly.
            let named = w.busy_ns + w.merge_ns + w.barrier_publish_ns + w.barrier_window_ns;
            assert!(named <= w.loop_ns, "phases exceed loop: {w:?}");
            assert_eq!(named + w.windowing_ns(), w.loop_ns);
            assert_eq!(w.windows, prof.windows);
        }
        // Every worker's loop fits inside the run's wall clock.
        for w in &prof.workers {
            assert!(w.loop_ns <= prof.wall_ns);
        }
    }

    #[test]
    fn lookahead_matrix_closure_covers_relays() {
        // A directed 4-ring: only a -> a+1 is directly reachable.
        let mut m = LookaheadMatrix::unreachable(4);
        for a in 0..4 {
            m.set(a, (a + 1) % 4, LOOK);
        }
        assert_eq!(m.min_direct(), Some(LOOK));
        assert_eq!(m.direct(0, 2), None);
        let dist = m.closure_ps();
        for a in 0..4usize {
            for b in 0..4usize {
                let hops = ((b + 4 - a) % 4) as u64;
                assert_eq!(dist[a * 4 + b], hops * LOOK.0, "closure {a}->{b}");
            }
        }
        // Uniform matrices close to themselves.
        let u = LookaheadMatrix::uniform(3, LOOK);
        let du = u.closure_ps();
        for a in 0..3usize {
            for b in 0..3usize {
                let want = if a == b { 0 } else { LOOK.0 };
                assert_eq!(du[a * 3 + b], want);
            }
        }
    }

    #[test]
    fn a_queue_entry_is_32_bytes() {
        assert_eq!(std::mem::size_of::<BirthKey>(), 16);
        assert!(std::mem::size_of::<(SimTime, BirthKey, u32)>() <= 32);
    }

    /// The `(time, origin, seq)` triple a packed key stands for.
    type Triple = (u64, usize, u64);

    fn packed(&(t, o, s): &Triple) -> BirthKey {
        BirthKey::new(SimTime(t), o, s)
    }

    #[test]
    fn packed_keys_order_as_triples_at_the_bounds() {
        let top = (1u64 << SEQ_BITS) - 1;
        let mut keys: Vec<Triple> = Vec::new();
        for t in [0, 1, 2, u64::MAX - 1, u64::MAX] {
            for o in [0, 1, 2, MAX_SHARDS - 1, MAX_SHARDS] {
                for s in [0, 1, 2, top - 1, top] {
                    keys.push((t, o, s));
                }
            }
        }
        for a in &keys {
            for b in &keys {
                assert_eq!(packed(a).cmp(&packed(b)), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn packed_keys_order_as_random_triples(
            t0 in 0u64..3, o0 in 0usize..MAX_SHARDS + 1, s0 in 0u64..1 << SEQ_BITS,
            t1 in 0u64..3, o1 in 0usize..MAX_SHARDS + 1, s1 in 0u64..1 << SEQ_BITS,
            tie in 0u8..4,
        ) {
            // `tie` forces equal origins and/or sequences, which
            // independent draws over these ranges almost never give.
            let o1 = if tie & 1 == 1 { o0 } else { o1 };
            let s1 = if tie & 2 == 2 { s0 } else { s1 };
            let (a, b) = ((t0, o0, s0), (t1, o1, s1));
            proptest::prop_assert_eq!(packed(&a).cmp(&packed(&b)), a.cmp(&b));
        }
    }

    #[test]
    #[should_panic(expected = "birth keys hold at most 65535")]
    fn more_shards_than_birth_keys_hold_is_rejected() {
        let _ = ParEngine::<Token, _>::new(RingMap { n: MAX_SHARDS + 1 }, 1);
    }

    #[test]
    fn an_exhausted_birth_sequence_panics() {
        panics_at_every_thread_count("birth-key sequence exhausted", |threads| {
            let mut eng = ParEngine::new(RingMap { n: 2 }, threads);
            for shard in &mut eng.shards {
                // Room for one more schedule: the first handler's
                // local bounce takes it and its ring hop must panic.
                shard.birth_seq = (1 << SEQ_BITS) - 1;
            }
            let mut worlds: Vec<RingWorld> = (0..2)
                .map(|s| RingWorld {
                    shard: s,
                    nshards: 2,
                    log: Vec::new(),
                })
                .collect();
            eng.schedule_at(
                SimTime::ZERO,
                Token {
                    shard: 0,
                    hops_left: 1,
                    tag: 0,
                },
            );
            eng.run(&mut worlds);
        });
    }

    #[test]
    #[should_panic(expected = "birth-key sequence exhausted")]
    fn an_exhausted_seed_sequence_panics() {
        let mut eng = ParEngine::new(RingMap { n: 2 }, 1);
        eng.seed_seq = 1 << SEQ_BITS;
        eng.schedule_at(
            SimTime::ZERO,
            Token {
                shard: 0,
                hops_left: 0,
                tag: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "below the global bound")]
    fn matrix_tighter_than_global_bound_is_rejected() {
        struct BadMap;
        impl ShardMap<Token> for BadMap {
            fn shard_count(&self) -> usize {
                2
            }
            fn shard_of(&self, ev: &Token) -> usize {
                ev.shard
            }
            fn lookahead(&self) -> SimDuration {
                LOOK
            }
            fn lookahead_matrix(&self) -> LookaheadMatrix {
                // Claims a pair tighter than the global bound: a
                // matrix-legal event could then land inside a Global
                // window, so construction must refuse it.
                LookaheadMatrix::uniform(2, SimDuration::from_ns(1))
            }
        }
        let _ = ParEngine::<Token, _>::new(BadMap, 2);
    }

    fn run_ring_mode(
        threads: usize,
        nshards: usize,
        tokens: u32,
        mode: LookaheadMode,
    ) -> (Vec<Vec<(u64, u64)>>, ParProfile) {
        let mut eng = ParEngine::new(RingMap { n: nshards }, threads);
        eng.set_lookahead_mode(mode);
        eng.enable_profiling();
        let mut worlds: Vec<RingWorld> = (0..nshards)
            .map(|s| RingWorld {
                shard: s,
                nshards,
                log: Vec::new(),
            })
            .collect();
        for k in 0..tokens {
            eng.schedule_at(
                SimTime::from_ns(k as u64),
                Token {
                    shard: (k as usize) % nshards,
                    hops_left: 20,
                    tag: 10_000 * k as u64,
                },
            );
        }
        eng.run(&mut worlds);
        let prof = eng.take_profile().expect("profiling was enabled");
        (worlds.into_iter().map(|w| w.log).collect(), prof)
    }

    #[test]
    fn adaptive_and_global_modes_agree_bit_for_bit() {
        let (g1, pg1) = run_ring_mode(1, 4, 6, LookaheadMode::Global);
        let (a1, pa1) = run_ring_mode(1, 4, 6, LookaheadMode::Adaptive);
        assert_eq!(g1, a1, "window bound changed simulated results");
        // Under the global bound nothing is ever recovered, by
        // construction; adaptive widening must not lose any window either
        // (every adaptive end is >= the global end at the same start).
        assert_eq!(pg1.recovered_events, 0);
        assert_eq!(pg1.extended_shard_windows, 0);
        assert!(
            pa1.windows <= pg1.windows,
            "adaptive windows {} > global windows {}",
            pa1.windows,
            pg1.windows
        );
        for threads in [2, 3, 4, 8] {
            for (mode, seq, pseq) in [
                (LookaheadMode::Global, &g1, &pg1),
                (LookaheadMode::Adaptive, &a1, &pa1),
            ] {
                let (par, pp) = run_ring_mode(threads, 4, 6, mode);
                assert_eq!(seq, &par, "{threads}-thread {mode} run diverged");
                assert_eq!(pseq.windows, pp.windows, "{mode} window count diverged");
                assert_eq!(pseq.events, pp.events);
                assert_eq!(
                    pseq.recovered_events, pp.recovered_events,
                    "{threads}-thread {mode} recovered count diverged"
                );
                assert_eq!(pseq.extended_shard_windows, pp.extended_shard_windows);
            }
        }
    }

    /// A map that knows the ring topology: only `a -> a+1` is directly
    /// reachable, so the closure gives distant pairs multi-hop bounds and
    /// adaptive windows stretch far past the single global lookahead.
    struct MatrixRingMap {
        n: usize,
    }

    impl ShardMap<Token> for MatrixRingMap {
        fn shard_count(&self) -> usize {
            self.n
        }
        fn shard_of(&self, ev: &Token) -> usize {
            ev.shard
        }
        fn lookahead(&self) -> SimDuration {
            LOOK
        }
        fn lookahead_matrix(&self) -> LookaheadMatrix {
            let mut m = LookaheadMatrix::unreachable(self.n);
            for a in 0..self.n {
                m.set(a, (a + 1) % self.n, LOOK);
            }
            m
        }
    }

    /// A world with a dense *local* event chain (20 ns steps, well under
    /// the 50 ns global bound) that occasionally sends a slow ring hop
    /// forward. Two such chains on ring-distant shards are exactly the
    /// shape adaptive windows exploit: the global bound forces a barrier
    /// every 50 ns although the shards cannot affect each other for
    /// 100+ ns.
    struct ChainWorld {
        shard: usize,
        nshards: usize,
        log: Vec<(u64, u64)>,
    }

    impl EventHandler<Token> for ChainWorld {
        fn handle(&mut self, ev: Token, sched: &mut Scheduler<Token>) {
            self.log.push((sched.now().as_ps(), ev.tag));
            if ev.hops_left == 0 {
                return;
            }
            sched.after(
                SimDuration::from_ns(20),
                Token {
                    shard: self.shard,
                    hops_left: ev.hops_left - 1,
                    tag: ev.tag + 1,
                },
            );
            if ev.hops_left.is_multiple_of(7) {
                sched.after(
                    SimDuration::from_ns(200),
                    Token {
                        shard: (self.shard + 1) % self.nshards,
                        hops_left: 0,
                        tag: ev.tag + 1000,
                    },
                );
            }
        }
    }

    #[test]
    fn matrix_map_recovers_windows_and_stays_exact() {
        let run = |threads: usize, mode: LookaheadMode| {
            let nshards = 4;
            let mut eng = ParEngine::new(MatrixRingMap { n: nshards }, threads);
            eng.set_lookahead_mode(mode);
            eng.enable_profiling();
            let mut worlds: Vec<ChainWorld> = (0..nshards)
                .map(|s| ChainWorld {
                    shard: s,
                    nshards,
                    log: Vec::new(),
                })
                .collect();
            for (shard, t_ns, tag) in [(0usize, 0u64, 0u64), (2, 3, 5_000_000)] {
                eng.schedule_at(
                    SimTime::from_ns(t_ns),
                    Token {
                        shard,
                        hops_left: 40,
                        tag,
                    },
                );
            }
            eng.run(&mut worlds);
            let prof = eng.take_profile().expect("profiling was enabled");
            (worlds.into_iter().map(|w| w.log).collect::<Vec<_>>(), prof)
        };
        let (g, pg) = run(1, LookaheadMode::Global);
        let (a, pa) = run(1, LookaheadMode::Adaptive);
        // The matrix changes window bounds, never results.
        assert_eq!(g, a);
        // The per-pair bounds genuinely recover deferred work here.
        assert!(
            pa.windows < pg.windows,
            "matrix map should need fewer windows ({} vs {})",
            pa.windows,
            pg.windows
        );
        assert!(pa.recovered_events > 0, "no events recovered");
        assert!(pa.extended_shard_windows > 0);
        assert_eq!(pg.recovered_events, 0);
        for threads in [2, 4] {
            let (ap, pap) = run(threads, LookaheadMode::Adaptive);
            assert_eq!(a, ap, "{threads}-thread adaptive matrix run diverged");
            assert_eq!(pa.windows, pap.windows);
            assert_eq!(pa.recovered_events, pap.recovered_events);
            assert_eq!(pa.extended_shard_windows, pap.extended_shard_windows);
        }
    }

    #[test]
    fn event_across_unreachable_pair_panics() {
        // RingWorld only sends a -> a+1; sending backwards crosses a pair
        // the matrix declares unreachable.
        struct BackwardsWorld;
        impl EventHandler<Token> for BackwardsWorld {
            fn handle(&mut self, ev: Token, sched: &mut Scheduler<Token>) {
                if ev.hops_left > 0 {
                    sched.after(
                        SimDuration::from_ns(500),
                        Token {
                            shard: 2,
                            hops_left: 0,
                            tag: 0,
                        },
                    );
                }
            }
        }
        // At 2 threads the violation happens on worker 1, so worker 0's
        // abort notice is joined first and must not be what surfaces.
        panics_at_every_thread_count("declares unreachable", |threads| {
            let mut eng = ParEngine::new(MatrixRingMap { n: 4 }, threads);
            let mut worlds = vec![
                BackwardsWorld,
                BackwardsWorld,
                BackwardsWorld,
                BackwardsWorld,
            ];
            eng.schedule_at_shard(
                3,
                SimTime::ZERO,
                Token {
                    shard: 3,
                    hops_left: 1,
                    tag: 0,
                },
            );
            eng.run(&mut worlds);
        });
    }

    /// Shard 0 pings shard 1, which replies one lookahead later. The
    /// reply lands before shard 0's next local event, though no peer is
    /// live early enough to bound shard 0's window: only shard 0's own
    /// round trip does.
    #[test]
    fn a_reply_through_a_peer_runs_in_time_order() {
        struct PingWorld(Vec<u64>);
        impl EventHandler<Token> for PingWorld {
            fn handle(&mut self, ev: Token, sched: &mut Scheduler<Token>) {
                self.0.push(sched.now().as_ps() / 1_000);
                if ev.hops_left > 0 {
                    let back = Token {
                        shard: 1 - ev.shard,
                        hops_left: ev.hops_left - 1,
                        tag: 0,
                    };
                    sched.after(LOOK, back);
                }
            }
        }
        for mode in [LookaheadMode::Adaptive, LookaheadMode::Global] {
            for threads in [1, 2] {
                let mut eng = ParEngine::new(RingMap { n: 2 }, threads);
                eng.set_lookahead_mode(mode);
                for (shard, t_ns, hops_left) in [(0, 0, 2), (0, 500, 0), (1, 1_000, 0)] {
                    let ev = Token {
                        shard,
                        hops_left,
                        tag: 0,
                    };
                    eng.schedule_at(SimTime::from_ns(t_ns), ev);
                }
                let mut worlds = vec![PingWorld(Vec::new()), PingWorld(Vec::new())];
                eng.run(&mut worlds);
                assert_eq!(worlds[0].0, [0, 100, 500], "{mode}, {threads} threads");
                assert_eq!(worlds[1].0, [50, 1_000], "{mode}, {threads} threads");
            }
        }
    }

    // The sequential semantics, on one shard: a single window that drains
    // one queue in `(time, birth_key)` order on the calling thread.

    #[derive(Debug, PartialEq, Eq, Clone)]
    enum Ev {
        Ping(u32),
        Stop,
    }

    /// The whole event space on one shard.
    struct OneShard;

    impl ShardMap<Ev> for OneShard {
        fn shard_count(&self) -> usize {
            1
        }
        fn shard_of(&self, _: &Ev) -> usize {
            0
        }
        fn lookahead(&self) -> SimDuration {
            SimDuration::ZERO
        }
    }

    fn one_shard() -> ParEngine<Ev, OneShard> {
        ParEngine::new(OneShard, 1)
    }

    struct Recorder {
        seen: Vec<(u64, Ev)>,
        chain: u32,
    }

    impl Recorder {
        fn new(chain: u32) -> [Recorder; 1] {
            [Recorder {
                seen: vec![],
                chain,
            }]
        }
    }

    impl EventHandler<Ev> for Recorder {
        fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
            self.seen.push((sched.now().as_ps(), event.clone()));
            if let Ev::Ping(n) = event {
                if n < self.chain {
                    sched.after(SimDuration::from_ns(10), Ev::Ping(n + 1));
                }
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut eng = one_shard();
        eng.schedule_at(SimTime::from_ns(30), Ev::Ping(3));
        eng.schedule_at(SimTime::from_ns(10), Ev::Ping(1));
        eng.schedule_at(SimTime::from_ns(20), Ev::Ping(2));
        let mut w = Recorder::new(0);
        eng.run(&mut w);
        let times: Vec<u64> = w[0].seen.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![10_000, 20_000, 30_000]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut eng = one_shard();
        let t = SimTime::from_ns(5);
        eng.schedule_at(t, Ev::Ping(100));
        eng.schedule_at(t, Ev::Ping(200));
        eng.schedule_at(t, Ev::Stop);
        let mut w = Recorder::new(0);
        eng.run(&mut w);
        assert_eq!(
            w[0].seen.iter().map(|(_, e)| e.clone()).collect::<Vec<_>>(),
            vec![Ev::Ping(100), Ev::Ping(200), Ev::Stop]
        );
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut eng = one_shard();
        eng.schedule_at(SimTime::ZERO, Ev::Ping(0));
        let mut w = Recorder::new(5);
        eng.run(&mut w);
        assert_eq!(w[0].seen.len(), 6); // Ping(0)..Ping(5)
        assert_eq!(eng.now(), SimTime::from_ns(50));
        assert_eq!(eng.events_processed(), 6);
    }

    #[test]
    fn horizon_stops_the_run() {
        let mut eng = one_shard();
        eng.schedule_at(SimTime::ZERO, Ev::Ping(0));
        let mut w = Recorder::new(1000);
        let out = eng.run_until(&mut w, SimTime::from_ns(25), u64::MAX);
        assert_eq!(out, RunOutcome::HorizonReached);
        // Events at 0, 10, 20 ns fired; 30 ns is pending.
        assert_eq!(w[0].seen.len(), 3);
        assert_eq!(eng.pending(), 1);
    }

    /// A budget of `k` stops a one-shard run after exactly `k` events,
    /// though the whole run is a single window, and it stops a handler
    /// that reschedules itself at the same instant forever.
    #[test]
    fn budget_stops_the_run() {
        let mut eng = one_shard();
        eng.schedule_at(SimTime::ZERO, Ev::Ping(0));
        let mut w = Recorder::new(1000);
        let out = eng.run_until(&mut w, SimTime(u64::MAX), 4);
        assert_eq!(out, RunOutcome::BudgetExhausted);
        assert_eq!(w[0].seen.len(), 4);
        assert_eq!(eng.events_processed(), 4);

        let mut ring = ParEngine::new(RingMap { n: 1 }, 1);
        let mut worlds = [RingWorld {
            shard: 0,
            nshards: 1,
            log: Vec::new(),
        }];
        let token = Token {
            shard: 0,
            hops_left: 30,
            tag: 0,
        };
        ring.schedule_at(SimTime::ZERO, token);
        let out = ring.run_until(&mut worlds, SimTime(u64::MAX), 9);
        assert_eq!(out, RunOutcome::BudgetExhausted);
        assert_eq!(ring.events_processed(), 9);
        assert_eq!(worlds[0].log.len(), 9);

        struct Forever;
        impl EventHandler<Ev> for Forever {
            fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
                sched.now_event(event);
            }
        }
        let mut eng = one_shard();
        eng.schedule_at(SimTime::ZERO, Ev::Stop);
        let out = eng.run_until(&mut [Forever], SimTime(u64::MAX), 100);
        assert_eq!(out, RunOutcome::BudgetExhausted);
        assert_eq!(eng.events_processed(), 100);
    }

    #[test]
    #[should_panic(expected = "causality")]
    fn scheduling_in_the_past_panics() {
        let mut eng = one_shard();
        eng.schedule_at(SimTime::from_ns(10), Ev::Stop);
        let mut w = Recorder::new(0);
        eng.run(&mut w);
        eng.schedule_at(SimTime::from_ns(5), Ev::Stop);
    }

    /// `now_event` calls made while handling an event at time T fire at
    /// T, *after* every event already queued for T that was scheduled
    /// earlier.
    #[test]
    fn now_event_fires_after_earlier_same_time_events() {
        struct Chainer {
            seen: Vec<Ev>,
        }
        impl EventHandler<Ev> for Chainer {
            fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
                if event == Ev::Ping(0) {
                    // Queued behind Ping(1)/Ping(2), which were scheduled
                    // for this same instant before this handler ran.
                    sched.now_event(Ev::Ping(99));
                }
                self.seen.push(event);
            }
        }
        let mut eng = one_shard();
        let t = SimTime::from_ns(7);
        eng.schedule_at(t, Ev::Ping(0));
        eng.schedule_at(t, Ev::Ping(1));
        eng.schedule_at(t, Ev::Ping(2));
        let mut w = [Chainer { seen: vec![] }];
        eng.run(&mut w);
        assert_eq!(
            w[0].seen,
            vec![Ev::Ping(0), Ev::Ping(1), Ev::Ping(2), Ev::Ping(99)]
        );
        assert_eq!(eng.now(), t);
    }

    /// A `now_event` scheduled by a handler firing exactly at the horizon
    /// still executes: horizon semantics are "events stamped at the
    /// horizon fire", including same-timestamp chains.
    #[test]
    fn now_event_chain_at_horizon_still_fires() {
        struct AtHorizon {
            fired: Vec<Ev>,
        }
        impl EventHandler<Ev> for AtHorizon {
            fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
                if event == Ev::Ping(0) {
                    sched.now_event(Ev::Stop);
                }
                self.fired.push(event);
            }
        }
        let horizon = SimTime::from_ns(25);
        let mut eng = one_shard();
        eng.schedule_at(horizon, Ev::Ping(0));
        // An event strictly beyond the horizon stays pending.
        eng.schedule_at(SimTime::from_ns(26), Ev::Ping(1));
        let mut w = [AtHorizon { fired: vec![] }];
        let out = eng.run_until(&mut w, horizon, u64::MAX);
        assert_eq!(out, RunOutcome::HorizonReached);
        assert_eq!(w[0].fired, vec![Ev::Ping(0), Ev::Stop]);
        assert_eq!(eng.pending(), 1);
    }

    /// Deep same-timestamp chains execute FIFO: each `now_event` goes to
    /// the back of the current instant's queue.
    #[test]
    fn same_timestamp_chains_are_fifo() {
        struct Deep {
            seen: Vec<u32>,
        }
        impl EventHandler<Ev> for Deep {
            fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
                if let Ev::Ping(n) = event {
                    self.seen.push(n);
                    if n < 5 {
                        sched.now_event(Ev::Ping(n + 10));
                        sched.now_event(Ev::Ping(n + 1));
                    }
                }
            }
        }
        let mut eng = one_shard();
        eng.schedule_at(SimTime::ZERO, Ev::Ping(0));
        let mut w = [Deep { seen: vec![] }];
        eng.run(&mut w);
        // Breadth-first through the instant: 0 spawns (10, 1); 10 is
        // inert; 1 spawns (11, 2); and so on.
        assert_eq!(w[0].seen, vec![0, 10, 1, 11, 2, 12, 3, 13, 4, 14, 5]);
        assert_eq!(eng.now(), SimTime::ZERO);
    }

    /// Two identical runs produce identical event sequences (determinism).
    #[test]
    fn determinism() {
        let run = || {
            let mut eng = one_shard();
            eng.schedule_at(SimTime::ZERO, Ev::Ping(0));
            eng.schedule_at(SimTime::ZERO, Ev::Ping(7));
            let [w] = {
                let mut w = Recorder::new(9);
                eng.run(&mut w);
                w
            };
            w.seen
        };
        assert_eq!(run(), run());
    }
}
