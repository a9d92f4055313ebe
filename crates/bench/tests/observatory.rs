//! Acceptance tests of the perf observatory: a perturbed run must
//! triage to the *component* that regressed and the critical-path
//! blame shift, the committed profile must match a fresh collection,
//! and every committed result file must parse.

use anton_bench::observatory::collect;
use anton_obs::{BenchReport, DiffConfig, EdgeKind, Perturbation, SectionKind, SEC_BLAME};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// The headline acceptance: artificially slowing one attribution
/// component (delivery, 20×) must produce a triage that names the
/// regressed component by name and reports the critical path moving
/// off the wire onto it — not just a bare threshold breach.
#[test]
fn perturbed_run_triages_the_component_and_the_blame_shift() {
    let base = collect(None);
    let perturb = Perturbation::none().scale(EdgeKind::Delivery, 20.0);
    let cur = collect(Some(&perturb));

    let diff = cur.diff(&base, DiffConfig::default()).expect("comparable");
    assert!(diff.has_regressions(), "{}", diff.table());
    let triage = diff.triage();

    // The triage names the attribution component that regressed...
    assert!(
        triage.contains("delivery share rose"),
        "triage must name the regressed component:\n{triage}"
    );
    // ...and the critical-path blame shift, from wire onto delivery.
    assert!(
        triage.contains("critical path moved from wire to delivery"),
        "triage must report the blame shift:\n{triage}"
    );
    // The stretched makespan also breaches the plain metric gate.
    assert!(
        triage.contains("metric causal_critical_end_ns regressed"),
        "triage must flag the re-timed makespan:\n{triage}"
    );

    // The blame section itself gates, and the leader shift is machine-
    // readable.
    let blame = diff
        .sections
        .iter()
        .find(|s| s.name == SEC_BLAME)
        .expect("blame section diffed");
    assert!(blame.gated);
    assert_eq!(blame.kind, SectionKind::Shares);
    assert_eq!(
        blame.leader_shift,
        Some(("wire".to_owned(), "delivery".to_owned()))
    );
    let delivery = blame
        .components
        .iter()
        .find(|c| c.name == "delivery")
        .expect("delivery component");
    assert!(delivery.regressed && delivery.delta > 2.0);
    // The falling wire share is an improvement, never a regression.
    let wire = blame
        .components
        .iter()
        .find(|c| c.name == "wire")
        .expect("wire component");
    assert!(!wire.regressed && wire.delta < 0.0);
}

/// An unperturbed run diffed against itself is clean — the observatory
/// never cries wolf on a bit-identical profile.
#[test]
fn identical_runs_triage_clean() {
    let obs = collect(None);
    let diff = obs.diff(&obs, DiffConfig::default()).expect("comparable");
    assert!(!diff.has_regressions(), "{}", diff.table());
    assert!(diff.triage().contains("no regressions past thresholds"));

    // The report round-trips through its JSON form with sections.
    let back = anton_obs::ObservatoryReport::parse(&obs.to_json()).expect("parses");
    assert_eq!(back, obs);
    assert_eq!(back.sections.len(), 4);
}

/// The committed profile (`BENCH_pr7.json`) is byte for byte what a
/// fresh collection produces — the invariant CI's drift check
/// enforces, pinned here in a test.
#[test]
fn committed_quick_profile_matches_a_fresh_collection() {
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("BENCH_pr7.json")).expect("committed profile");
    let committed = BenchReport::parse(&text).expect("parses");
    let fresh = collect(None);
    assert_eq!(
        fresh.metrics.to_json(),
        text,
        "committed BENCH_pr7.json drifted from a fresh collection"
    );
    // Direction metadata survives the committed round trip.
    assert_eq!(
        committed.direction("md_lookahead_efficiency"),
        anton_obs::Direction::HigherIsBetter
    );
}

/// Every committed result is one `BENCH_pr*.json` at the repo root:
/// exactly pr3 to pr9, each a schema-2 report with a label.
#[test]
fn every_committed_result_file_parses() {
    let root = repo_root();
    let mut names: Vec<String> = std::fs::read_dir(&root)
        .expect("repo root lists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.starts_with("BENCH_pr") && n.ends_with(".json"))
        .collect();
    names.sort();
    let expected: Vec<String> = (3..=9).map(|i| format!("BENCH_pr{i}.json")).collect();
    assert_eq!(names, expected);
    for name in &names {
        let text = std::fs::read_to_string(root.join(name)).expect("readable");
        let report = BenchReport::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.schema, anton_obs::BENCH_SCHEMA_VERSION, "{name}");
        assert!(!report.label.is_empty(), "{name} has no label");
    }
}
