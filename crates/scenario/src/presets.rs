//! The repo's standing experiments as [`ScenarioSpec`] constructors.
//!
//! Every bench binary that used to wire its own dims/params/fault
//! constants builds its world from one of these instead, so the spec
//! hash printed by the `scenario` CLI and the workload a bin like
//! `par_speedup` runs can never drift apart. The constants here are
//! the committed baselines' constants: changing one changes a content
//! hash, which is exactly the point.

use crate::spec::{
    AlgorithmSpec, ChaosSpec, FaultSpec, RecoverySpec, ScenarioSpec, TimingProfile, Workload,
};
use anton_des::LookaheadMode;
use anton_net::ObsMode;

/// Engine defaults shared by the presets: Anton-1 timing, 4 worker
/// threads, adaptive windows, no recorder.
fn base(name: &str, dims: (u32, u32, u32), workload: Workload) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_owned(),
        dims,
        timing: TimingProfile::Anton1,
        threads: 4,
        lookahead: LookaheadMode::Adaptive,
        obs: ObsMode::Off,
        chaos: ChaosSpec::default(),
        fault: FaultSpec::default(),
        recovery: RecoverySpec::default(),
        workload,
    }
}

/// The PR-4/PR-9 acceptance workload: a 30-step, perfectly balanced
/// 8×8×8 MD neighbor exchange (`par_speedup`'s balanced half).
pub fn md_balanced() -> ScenarioSpec {
    base(
        "md_balanced",
        (8, 8, 8),
        Workload::MdExchange {
            steps: 30,
            values_per_msg: 4,
            compute_ns: 250.0,
            compute_skew_ns: 0.0,
        },
    )
}

/// The spatially imbalanced variant: 40 ns of extra compute per unit Z
/// staggers the per-slab event streams — the regime where adaptive
/// per-pair lookahead beats the global bound (`par_speedup`'s skewed
/// half).
pub fn md_skewed() -> ScenarioSpec {
    base(
        "md_skewed",
        (8, 8, 8),
        Workload::MdExchange {
            steps: 30,
            values_per_msg: 4,
            compute_ns: 250.0,
            compute_skew_ns: 40.0,
        },
    )
}

/// The 8×8×8 dimension-ordered all-reduce batch from the PR-4 workload:
/// 4 values per node, seed 42, six back-to-back repetitions.
pub fn allreduce_888() -> ScenarioSpec {
    base(
        "allreduce_888",
        (8, 8, 8),
        Workload::AllReduce {
            algorithm: AlgorithmSpec::DimensionOrdered,
            vlen: 4,
            seed: 42,
            reps: 6,
        },
    )
}

/// The number of chaos-campaign intensity levels (0 = quiet fabric).
pub const CHAOS_LEVEL_COUNT: u32 = 4;

/// Per-level transient drop probability of the chaos campaign.
pub const CHAOS_DROP_RATES: [f64; CHAOS_LEVEL_COUNT as usize] = [0.0, 1e-3, 5e-3, 2e-2];

/// Per-level mid-collective node-death count of the chaos campaign.
pub const CHAOS_DEATHS: [usize; CHAOS_LEVEL_COUNT as usize] = [0, 1, 2, 3];

/// splitmix64 — the deterministic chooser for chaos death schedules.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seed-derived death schedule on the 4×4×4 chaos torus: `count`
/// distinct victims (never node 0, the immortal root) at times inside
/// the collective's ~4 µs active window, so deaths genuinely straddle
/// in-flight work.
fn chaos_death_schedule(seed: u64, level: u32, count: usize) -> Vec<(u32, u64)> {
    let n: u64 = 4 * 4 * 4;
    let mut out: Vec<(u32, u64)> = Vec::with_capacity(count);
    let mut k = 0u64;
    while out.len() < count {
        let h = mix(seed ^ mix(u64::from(level)) ^ k);
        k += 1;
        let node = 1 + (h % (n - 1)) as u32;
        if out.iter().any(|(v, _)| *v == node) {
            continue;
        }
        let at_ns = 200 + (h >> 32) % 3_500;
        out.push((node, at_ns));
    }
    out.sort_by_key(|&(v, at)| (at, v));
    out
}

/// One cell of the chaos campaign: the recovering all-reduce on the
/// 4×4×4 torus under the level's drop rate and seed-derived death
/// schedule, with recovery keyed to the same seed (`chaos_campaign`'s
/// cell wiring).
pub fn chaos_cell(seed: u64, level: u32) -> ScenarioSpec {
    assert!(level < CHAOS_LEVEL_COUNT, "chaos level must be 0..=3");
    let idx = level as usize;
    let mut spec = base(
        &format!("chaos_l{level}_seed{seed}"),
        (4, 4, 4),
        Workload::Recovering {
            vlen: 2,
            seed,
            deaths: chaos_death_schedule(seed, level, CHAOS_DEATHS[idx]),
        },
    );
    spec.threads = 2;
    spec.chaos = ChaosSpec { seed, level };
    spec.fault = FaultSpec {
        seed,
        drop_rate: CHAOS_DROP_RATES[idx],
        corrupt_rate: 0.0,
    };
    spec.recovery = RecoverySpec {
        enabled: true,
        seed,
    };
    spec
}

/// A scale-observatory probe: the MD exchange at `steps = 4` under the
/// streaming (bounded-memory) observer on an `n × n × n` torus
/// (`scale_probe`'s per-size run).
pub fn scale_md(n: u32) -> ScenarioSpec {
    let mut spec = base(
        &format!("scale_md_{n}x{n}x{n}"),
        (n, n, n),
        Workload::MdExchange {
            steps: 4,
            values_per_msg: 4,
            compute_ns: 250.0,
            compute_skew_ns: 0.0,
        },
    );
    spec.threads = 1;
    spec.obs = ObsMode::Stream;
    spec
}

/// Figure 6's instrumented transfer: a single-hop (+X) 0-byte
/// unidirectional counted remote write on the 512-node machine,
/// recorded over 8 repetitions (`fig6_breakdown`'s workload).
pub fn fig6_pingpong() -> ScenarioSpec {
    let mut spec = base(
        "fig6_pingpong",
        (8, 8, 8),
        Workload::PingPong {
            from: (0, 0, 0),
            to: (1, 0, 0),
            payload_bytes: 0,
            bidirectional: false,
            reps: 8,
        },
    );
    spec.threads = 1;
    spec.obs = ObsMode::Flight;
    spec
}

/// The observatory's causal-blame workload: the 512-node diameter
/// transfer (corner to node (4,4,4)), recorded over 4 repetitions.
pub fn causal_pingpong() -> ScenarioSpec {
    let mut spec = base(
        "causal_pingpong",
        (8, 8, 8),
        Workload::PingPong {
            from: (0, 0, 0),
            to: (4, 4, 4),
            payload_bytes: 0,
            bidirectional: false,
            reps: 4,
        },
    );
    spec.threads = 1;
    spec.obs = ObsMode::Flight;
    spec
}

/// The observatory's parallel-runtime workload: an 8-step balanced
/// 8×8×8 MD exchange profiled at 1 vs 2 threads.
pub fn observatory_md() -> ScenarioSpec {
    let mut spec = base(
        "observatory_md",
        (8, 8, 8),
        Workload::MdExchange {
            steps: 8,
            values_per_msg: 4,
            compute_ns: 250.0,
            compute_skew_ns: 0.0,
        },
    );
    spec.threads = 2;
    spec
}

/// The observatory's recovery cell: 0.1% transient drops plus one
/// mid-collective node death (node 5 at 900 ns) on the 4×4×4 torus,
/// everything keyed to seed 1.
pub fn observatory_recovery() -> ScenarioSpec {
    let mut spec = base(
        "observatory_recovery",
        (4, 4, 4),
        Workload::Recovering {
            vlen: 2,
            seed: 1,
            deaths: vec![(5, 900)],
        },
    );
    spec.threads = 1;
    spec.chaos = ChaosSpec { seed: 1, level: 1 };
    spec.fault = FaultSpec {
        seed: 1,
        drop_rate: 1e-3,
        corrupt_rate: 0.0,
    };
    spec.recovery = RecoverySpec {
        enabled: true,
        seed: 1,
    };
    spec
}

/// Every named preset, for CLI listing and exhaustive tests.
pub fn all() -> Vec<ScenarioSpec> {
    vec![
        md_balanced(),
        md_skewed(),
        allreduce_888(),
        chaos_cell(1, 1),
        scale_md(16),
        fig6_pingpong(),
        causal_pingpong(),
        observatory_md(),
        observatory_recovery(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_round_trip_and_hash_distinctly() {
        let mut hashes = std::collections::BTreeSet::new();
        for spec in all() {
            let parsed = crate::ScenarioSpec::from_toml_str(&spec.to_toml())
                .unwrap_or_else(|e| panic!("{} round-trips: {e}", spec.name));
            assert_eq!(spec, parsed, "{}", spec.name);
            assert!(
                hashes.insert(spec.content_hash()),
                "{} collides with another preset",
                spec.name
            );
        }
    }

    #[test]
    fn chaos_death_schedule_matches_campaign_wiring() {
        // Level 3 schedules three distinct victims, none of them the
        // immortal root, all inside the collective's active window.
        for seed in 1..=3 {
            let spec = chaos_cell(seed, 3);
            let deaths = match &spec.workload {
                Workload::Recovering { deaths, .. } => deaths.clone(),
                _ => unreachable!(),
            };
            assert_eq!(deaths.len(), 3);
            let nodes: std::collections::BTreeSet<u32> = deaths.iter().map(|&(n, _)| n).collect();
            assert_eq!(nodes.len(), 3, "victims are distinct");
            for &(node, at_ns) in &deaths {
                assert!((1..64).contains(&node), "victim on-torus, never root");
                assert!((200..3_700).contains(&at_ns), "death inside the window");
            }
            assert!(
                deaths.windows(2).all(|w| w[0].1 <= w[1].1),
                "sorted by time"
            );
        }
        // Level 0 is the quiet cell.
        let quiet = chaos_cell(1, 0);
        assert!(quiet.deaths().is_empty());
        assert_eq!(quiet.fault.drop_rate, 0.0);
    }
}
