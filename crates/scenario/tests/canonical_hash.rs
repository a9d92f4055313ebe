//! Property tests of the canonical spec encoding: the content hash
//! must be a pure function of the spec's *semantics* — invariant under
//! TOML formatting and round-trips, and moved by every semantic field.

use anton_des::LookaheadMode;
use anton_net::ObsMode;
use anton_scenario::{
    AlgorithmSpec, ChaosSpec, FaultSpec, RecoverySpec, ScenarioSpec, TimingProfile, Workload,
};
use proptest::prelude::*;

/// Build a spec from drawn numerics. Discrete choices are decoded from
/// integer draws (the in-repo proptest shim has no `prop_oneof`).
#[allow(clippy::too_many_arguments)]
fn build_spec(
    dims: (u32, u32, u32),
    timing: u8,
    threads: u32,
    lookahead: u8,
    obs: u8,
    chaos_seed: u64,
    chaos_level: u32,
    fault_seed: u64,
    drop_milli: u32,
    workload: Workload,
) -> ScenarioSpec {
    ScenarioSpec {
        name: "prop".to_owned(),
        dims,
        timing: if timing == 0 {
            TimingProfile::Anton1
        } else {
            TimingProfile::Anton3
        },
        threads,
        lookahead: if lookahead == 0 {
            LookaheadMode::Global
        } else {
            LookaheadMode::Adaptive
        },
        obs: match obs % 3 {
            0 => ObsMode::Off,
            1 => ObsMode::Flight,
            _ => ObsMode::Stream,
        },
        chaos: ChaosSpec {
            seed: chaos_seed,
            level: chaos_level,
        },
        fault: FaultSpec {
            seed: fault_seed,
            drop_rate: f64::from(drop_milli) / 1000.0,
            corrupt_rate: 0.0,
        },
        recovery: RecoverySpec::default(),
        workload,
    }
}

fn md_workload(steps: u32, vpm: u32, compute_ns: f64, skew_ns: f64) -> Workload {
    Workload::MdExchange {
        steps,
        values_per_msg: vpm,
        compute_ns,
        compute_skew_ns: skew_ns,
    }
}

proptest! {
    /// TOML round-trips preserve the spec exactly, hence the hash: the
    /// canonical encoding survives its own writer/parser pair for any
    /// drawn configuration.
    #[test]
    fn roundtrip_preserves_hash(
        nx in 1u32..9, ny in 1u32..9, nz in 1u32..9,
        threads in 1u32..9,
        knobs in (0u8..2, 0u8..2, 0u8..3),
        seeds in (0u64..1_000_000, 0u64..1_000_000),
        steps in 1u32..50,
        compute_ns in 0.0f64..1000.0,
    ) {
        let (timing, lookahead, obs) = knobs;
        let (chaos_seed, fault_seed) = seeds;
        let spec = |drop_milli: u32, workload: Workload| build_spec(
            (nx, ny, nz), timing, threads, lookahead, obs,
            chaos_seed, chaos_seed as u32 % 4, fault_seed, drop_milli, workload,
        );
        // The MD exchange takes no fault rates; the all-reduce carries
        // the drawn one.
        let all_reduce = Workload::AllReduce {
            algorithm: AlgorithmSpec::DimensionOrdered,
            vlen: steps,
            seed: chaos_seed,
            reps: 1,
        };
        for spec in [
            spec(0, md_workload(steps, 4, compute_ns, 0.0)),
            spec(fault_seed as u32 % 1000, all_reduce),
        ] {
            let parsed = ScenarioSpec::from_toml_str(&spec.to_toml())
                .expect("canonical TOML re-parses");
            prop_assert_eq!(&spec, &parsed);
            prop_assert_eq!(spec.content_hash(), parsed.content_hash());
            prop_assert_eq!(spec.hash_hex().len(), 16);
        }
    }

    /// Hash is formatting-independent: rewriting the canonical TOML
    /// with shuffled key order inside each section, extra whitespace,
    /// and comments parses to the same hash.
    #[test]
    fn hash_ignores_toml_formatting(
        steps in 1u32..50,
        vpm in 1u32..9,
        compute_ns in 0.0f64..1000.0,
        skew_ns in 0.0f64..100.0,
    ) {
        let spec = build_spec(
            (4, 4, 4), 0, 2, 1, 0, 1, 0, 1, 0,
            md_workload(steps, vpm, compute_ns, skew_ns),
        );
        // A differently-formatted document for the same semantics:
        // reversed key order per section, noise comments, underscores.
        let noisy = format!(
            "# scrambled by hand\nname = \"prop\"\n\n\
             [workload]\ncompute_skew_ns = {skew:?}\ncompute_ns = {cns:?}   # per-step cost\n\
             values_per_msg = {vpm}\nsteps = {steps}\nkind = \"md_exchange\"\n\n\
             [recovery]\nseed = 1\nenabled = false\n\n\
             [fault]\ncorrupt_rate = 0.0\ndrop_rate = 0.0\nseed = 1\n\n\
             [chaos]\nlevel = 0\nseed = 1\n\n\
             [engine]\nobs = \"off\"\nlookahead = \"adaptive\"\nthreads = 2\ntiming = \"anton1\"\n\n\
             [topology]\nnz = 4\nny = 4\nnx = 4\n",
            skew = skew_ns, cns = compute_ns,
        );
        let parsed = ScenarioSpec::from_toml_str(&noisy).expect("noisy TOML parses");
        prop_assert_eq!(spec.content_hash(), parsed.content_hash());
    }

    /// Flipping any single semantic field moves the hash: no knob is
    /// silently outside the content address.
    #[test]
    fn every_semantic_field_moves_the_hash(
        nx in 2u32..8,
        threads in 1u32..8,
        chaos_seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        drop_milli in 0u32..999,
        steps in 1u32..49,
        compute_ns in 0.0f64..999.0,
        skew_ns in 0.0f64..99.0,
    ) {
        let base = build_spec(
            (nx, 4, 4), 0, threads, 1, 0,
            chaos_seed, 0, fault_seed, drop_milli,
            md_workload(steps, 4, compute_ns, skew_ns),
        );
        let h = base.content_hash();

        let mut flipped = Vec::new();

        let mut s = base.clone();
        s.dims.0 = nx + 1;
        flipped.push(("dims", s));

        let mut s = base.clone();
        s.timing = TimingProfile::Anton3;
        flipped.push(("timing", s));

        let mut s = base.clone();
        s.threads = threads + 1;
        flipped.push(("threads", s));

        let mut s = base.clone();
        s.lookahead = LookaheadMode::Global;
        flipped.push(("lookahead", s));

        let mut s = base.clone();
        s.obs = ObsMode::Stream;
        flipped.push(("obs", s));

        let mut s = base.clone();
        s.chaos.seed = chaos_seed + 1;
        flipped.push(("chaos.seed", s));

        let mut s = base.clone();
        s.chaos.level = 3;
        flipped.push(("chaos.level", s));

        let mut s = base.clone();
        s.fault.seed = fault_seed + 1;
        flipped.push(("fault.seed", s));

        let mut s = base.clone();
        s.fault.drop_rate = f64::from(drop_milli + 1) / 1000.0;
        flipped.push(("fault.drop_rate", s));

        let mut s = base.clone();
        s.recovery = RecoverySpec { enabled: true, seed: 1 };
        flipped.push(("recovery.enabled", s));

        let mut s = base.clone();
        s.workload = md_workload(steps + 1, 4, compute_ns, skew_ns);
        flipped.push(("workload.steps", s));

        let mut s = base.clone();
        s.workload = md_workload(steps, 4, compute_ns + 1.0, skew_ns);
        flipped.push(("workload.compute_ns", s));

        let mut s = base.clone();
        s.workload = md_workload(steps, 4, compute_ns, skew_ns + 1.0);
        flipped.push(("workload.compute_skew_ns", s));

        let mut s = base.clone();
        s.workload = Workload::AllReduce {
            algorithm: AlgorithmSpec::DimensionOrdered,
            vlen: 4,
            seed: 42,
            reps: 1,
        };
        flipped.push(("workload.kind", s));

        for (field, s) in flipped {
            prop_assert_ne!(
                s.content_hash(), h,
                "flipping {} did not move the content hash", field
            );
        }
    }

    /// Recovering-workload death schedules are hash-affecting, entry by
    /// entry: dropping, reordering-with-change, or shifting a death
    /// moves the hash.
    #[test]
    fn death_schedule_moves_the_hash(
        seed in 0u64..1_000_000,
        node_a in 1u32..32, node_b in 32u32..63,
        at_a in 100u64..2000, at_b in 2000u64..4000,
    ) {
        let mk = |deaths: Vec<(u32, u64)>| {
            let mut s = build_spec(
                (4, 4, 4), 0, 1, 1, 0, seed, 1, seed, 1,
                Workload::Recovering { vlen: 2, seed, deaths },
            );
            s.recovery = RecoverySpec { enabled: true, seed };
            s
        };
        let both = mk(vec![(node_a, at_a), (node_b, at_b)]);
        let one = mk(vec![(node_a, at_a)]);
        let moved = mk(vec![(node_a, at_a + 1), (node_b, at_b)]);
        let swapped = mk(vec![(node_b, at_a), (node_a, at_b)]);
        prop_assert_ne!(both.content_hash(), one.content_hash());
        prop_assert_ne!(both.content_hash(), moved.content_hash());
        prop_assert_ne!(both.content_hash(), swapped.content_hash());
        // And the full spec still round-trips through TOML.
        let parsed = ScenarioSpec::from_toml_str(&both.to_toml()).expect("round-trip");
        prop_assert_eq!(both.content_hash(), parsed.content_hash());
    }
}
