//! Property tests: the parallel engine executes every event in the
//! global `(time, birth key)` order of one windowless queue over all
//! shards, at every thread count and in both lookahead modes, under
//! randomized workloads with same-timestamp chains, `now_event` calls,
//! and cross-shard traffic at the lookahead bound.

use anton_des::par::{LookaheadMatrix, LookaheadMode, ParEngine, ShardMap};
use anton_des::{EventHandler, RunOutcome, Scheduler, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

const LOOK_NS: u64 = 54;

#[derive(Debug, Clone)]
struct Msg {
    shard: usize,
    depth: u32,
    tag: u64,
}

/// Splittable hash so handler behavior is a pure function of the event —
/// the "randomness" in the workload reproduces identically however the
/// event reaches the handler.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sharded test machine. Without a salt every pair is reachable at the
/// uniform lookahead; with one, only the forward ring `a -> a+1` is, at
/// randomized per-pair bounds of at least the global floor (a pure
/// function of `(salt, src)`, so the workload can respect them exactly).
#[derive(Clone, Copy)]
struct Net {
    n: usize,
    salt: Option<u64>,
}

impl Net {
    fn ring_bound_ps(salt: u64, src: usize) -> u64 {
        LOOK_NS * 1_000 + mix(salt, src as u64) % 50_000
    }

    /// The workload, as a pure function of the event and its time. Each
    /// event spawns 0–2 children: possibly a local child at a small (often
    /// zero) delay, possibly a cross-shard child at its pair's bound plus
    /// jitter, and on the uniform machine possibly a same-instant
    /// `now_event`.
    fn children(&self, ev: &Msg, now: SimTime) -> Vec<(SimTime, Msg)> {
        let mut out = Vec::new();
        if ev.depth == 0 {
            return out;
        }
        let h = mix(ev.tag, now.as_ps());
        let child = |shard, tag| Msg {
            shard,
            depth: ev.depth - 1,
            tag,
        };
        if h & 1 == 0 {
            // Local child; delay 0 exercises same-timestamp FIFO chains.
            let at = now + SimDuration::from_ps((h >> 8) % 3_000);
            out.push((at, child(ev.shard, mix(h, 11))));
        }
        if h & 2 == 0 && self.n > 1 {
            let (dst, bound) = match self.salt {
                None => (
                    (ev.shard + 1 + (h >> 16) as usize % (self.n - 1)) % self.n,
                    LOOK_NS * 1_000,
                ),
                Some(salt) => ((ev.shard + 1) % self.n, Net::ring_bound_ps(salt, ev.shard)),
            };
            let at = now + SimDuration(bound + (h >> 24) % 40_000);
            out.push((at, child(dst, mix(h, 13))));
        }
        if h & 4 == 0 && self.salt.is_none() {
            let ev = Msg {
                shard: ev.shard,
                depth: 0,
                tag: mix(h, 17),
            };
            out.push((now, ev));
        }
        out
    }
}

impl ShardMap<Msg> for Net {
    fn shard_count(&self) -> usize {
        self.n
    }
    fn shard_of(&self, ev: &Msg) -> usize {
        ev.shard
    }
    fn lookahead(&self) -> SimDuration {
        SimDuration::from_ns(LOOK_NS)
    }
    fn lookahead_matrix(&self) -> LookaheadMatrix {
        let Some(salt) = self.salt else {
            return LookaheadMatrix::uniform(self.n, self.lookahead());
        };
        let mut m = LookaheadMatrix::unreachable(self.n);
        for a in 0..self.n {
            let bound = SimDuration(Net::ring_bound_ps(salt, a));
            m.set(a, (a + 1) % self.n, bound);
        }
        m
    }
}

/// Every shard logs (time, tag, depth), then schedules the workload's
/// children.
struct World {
    net: Net,
    shard: usize,
    log: Vec<(u64, u64, u32)>,
}

impl EventHandler<Msg> for World {
    fn handle(&mut self, ev: Msg, sched: &mut Scheduler<Msg>) {
        assert_eq!(ev.shard, self.shard);
        self.log.push((sched.now().as_ps(), ev.tag, ev.depth));
        for (at, child) in self.net.children(&ev, sched.now()) {
            sched.at(at, child);
        }
    }
}

type Run = (RunOutcome, Vec<Vec<(u64, u64, u32)>>, u64, SimTime);

fn seed_msgs(net: Net, seeds: &[(u64, usize, u32)]) -> Vec<(SimTime, Msg)> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &(t_ns, shard, depth))| {
            let msg = Msg {
                shard: shard % net.n,
                depth,
                tag: mix(i as u64, 997),
            };
            (SimTime::from_ns(t_ns), msg)
        })
        .collect()
}

fn run(
    net: Net,
    threads: usize,
    mode: LookaheadMode,
    seeds: &[(u64, usize, u32)],
    horizon: SimTime,
    budget: u64,
) -> Run {
    let mut eng = ParEngine::new(net, threads);
    eng.set_lookahead_mode(mode);
    let mut worlds: Vec<World> = (0..net.n)
        .map(|shard| World {
            net,
            shard,
            log: Vec::new(),
        })
        .collect();
    for (at, msg) in seed_msgs(net, seeds) {
        eng.schedule_at(at, msg);
    }
    let out = eng.run_until(&mut worlds, horizon, budget);
    (
        out,
        worlds.into_iter().map(|w| w.log).collect(),
        eng.events_processed(),
        eng.now(),
    )
}

/// The reference: one global queue ordered by `(time, birth time,
/// origin, seq)`, with no windows. Seeds take origin 0 and a global
/// counter; events scheduled by shard `s` take origin `s + 1` and a
/// per-shard counter.
fn oracle(net: Net, seeds: &[(u64, usize, u32)]) -> Run {
    let mut queue = BTreeMap::new();
    for (seq, (at, msg)) in seed_msgs(net, seeds).into_iter().enumerate() {
        queue.insert((at, SimTime::ZERO, 0, seq as u64), msg);
    }
    let mut logs = vec![Vec::new(); net.n];
    let mut birth_seq = vec![0u64; net.n];
    let (mut events, mut now) = (0, SimTime::ZERO);
    while let Some(((at, ..), ev)) = queue.pop_first() {
        logs[ev.shard].push((at.as_ps(), ev.tag, ev.depth));
        events += 1;
        now = at;
        for (child_at, child) in net.children(&ev, at) {
            let key = (child_at, at, ev.shard as u32 + 1, birth_seq[ev.shard]);
            birth_seq[ev.shard] += 1;
            queue.insert(key, child);
        }
    }
    (RunOutcome::Drained, logs, events, now)
}

const MODES: [LookaheadMode; 2] = [LookaheadMode::Adaptive, LookaheadMode::Global];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unbounded runs match the oracle at 1, 2, 4, and 8 threads.
    #[test]
    fn parallel_matches_sequential(
        nshards in 1usize..6,
        s0 in 0u64..200, s1 in 0u64..200, s2 in 0u64..200,
        d0 in 1u32..12, d1 in 1u32..12, d2 in 1u32..12,
        p0 in 0usize..6, p1 in 0usize..6, p2 in 0usize..6,
    ) {
        let net = Net { n: nshards, salt: None };
        let seeds = [(s0, p0, d0), (s1, p1, d1), (s2, p2, d2)];
        let reference = oracle(net, &seeds);
        for mode in MODES {
            for threads in [1, 2, 4, 8] {
                let par = run(net, threads, mode, &seeds, SimTime(u64::MAX), u64::MAX);
                prop_assert_eq!(&reference, &par, "{} diverged at {} threads", mode, threads);
            }
        }
    }

    /// Bounded runs (horizon and event budget) stop at the same point and
    /// with the same state at every thread count. The budget is checked
    /// at window boundaries, which the oracle does not have, so these
    /// compare thread counts with each other.
    #[test]
    fn bounded_runs_agree(
        nshards in 2usize..5,
        s0 in 0u64..100, s1 in 0u64..100,
        d0 in 4u32..14, d1 in 4u32..14,
        horizon_ns in 50u64..600,
        budget in 1u64..60,
    ) {
        let net = Net { n: nshards, salt: None };
        let seeds = [(s0, 0, d0), (s1, 1, d1)];
        let h = SimTime::from_ns(horizon_ns);
        let unbounded = SimTime(u64::MAX);
        let mode = LookaheadMode::default();
        let by_horizon = run(net, 1, mode, &seeds, h, u64::MAX);
        let by_budget = run(net, 1, mode, &seeds, unbounded, budget);
        for threads in [2, 4] {
            prop_assert_eq!(&by_horizon, &run(net, threads, mode, &seeds, h, u64::MAX));
            prop_assert_eq!(&by_budget, &run(net, threads, mode, &seeds, unbounded, budget));
        }
        // Nothing past the horizon fired.
        for &(t, _, _) in by_horizon.1.iter().flatten() {
            prop_assert!(t <= h.as_ps());
        }
    }

    /// Under random per-pair matrices, both window modes match the oracle
    /// at every thread count — and the per-pair runtime assertion (armed
    /// in both modes) never fires, i.e. no event crosses shards faster
    /// than the matrix claims.
    #[test]
    fn adaptive_matrix_matches_global_at_every_thread_count(
        nshards in 2usize..6,
        salt in 0u64..u64::MAX,
        s0 in 0u64..200, s1 in 0u64..200,
        d0 in 1u32..12, d1 in 1u32..12,
        p0 in 0usize..6, p1 in 0usize..6,
    ) {
        let net = Net { n: nshards, salt: Some(salt) };
        let seeds = [(s0, p0, d0), (s1, p1, d1)];
        let reference = oracle(net, &seeds);
        for mode in MODES {
            for threads in [1, 2, 4, 8] {
                let par = run(net, threads, mode, &seeds, SimTime(u64::MAX), u64::MAX);
                prop_assert_eq!(&reference, &par, "{} diverged at {} threads", mode, threads);
            }
        }
        // Every adaptive per-pair bound dominates the global floor, so
        // the closure the windows use can never dip below it.
        let dist = net.lookahead_matrix().closure_ps();
        for a in 0..nshards {
            for b in 0..nshards {
                if a != b {
                    prop_assert!(dist[a * nshards + b] >= LOOK_NS * 1_000);
                }
            }
        }
    }
}
