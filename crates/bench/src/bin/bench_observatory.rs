//! The perf observatory CLI: collect the attribution-aware report,
//! triage it against the committed profile `BENCH_pr7.json`, and
//! regenerate that profile.
//!
//! ```text
//! bench_observatory check [--scale KIND FACTOR] [--slow-link FACTOR]
//! ```
//!
//! `check` runs every workload, diffs the metrics against the committed
//! `BENCH_pr7.json` at [`DiffConfig::default`] (the file holds metrics
//! only, so the triage names metrics, not section components), prints
//! the triage, archives the full report as
//! `target/obs/observatory.json`, rewrites `BENCH_pr7.json` from the
//! fresh metrics, and exits non-zero on any gated regression. Both
//! sides come from the same collection, so any move is a model change;
//! CI's exact drift check then fails on any changed byte, and the
//! triage says which metric moved. The `--scale`/`--slow-link` flags
//! re-time the causal workload under a what-if perturbation, so a
//! triage can be rehearsed on demand; a perturbed run writes nothing.

use anton_bench::observatory::collect;
use anton_obs::{BenchReport, DiffConfig, EdgeKind, ObservatoryReport, Perturbation};
use anton_topo::{LinkDir, NodeId};
use std::process::ExitCode;

/// The committed profile: the baseline of the triage, and the file an
/// unperturbed check rewrites.
const PROFILE: &str = "BENCH_pr7.json";
/// Where the full report (metrics plus sections) is archived.
const ARCHIVE: &str = "target/obs/observatory.json";

fn usage() -> ExitCode {
    eprintln!("usage: bench_observatory check [--scale KIND FACTOR] [--slow-link FACTOR]");
    ExitCode::from(2)
}

fn edge_kind(name: &str) -> Option<EdgeKind> {
    EdgeKind::ALL.into_iter().find(|k| k.label() == name)
}

/// Parse `check [--scale KIND FACTOR] [--slow-link FACTOR]` into the
/// perturbation to rehearse, if any.
fn parse_args() -> Result<Option<Perturbation>, ExitCode> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) != Some("check") {
        return Err(usage());
    }
    let mut perturb: Option<Perturbation> = None;
    let mut it = argv.iter().skip(1);
    while let Some(a) = it.next() {
        let mut next = |flag: &str| -> Result<String, ExitCode> {
            it.next().cloned().ok_or_else(|| {
                eprintln!("bench_observatory: {flag} needs a value");
                usage()
            })
        };
        let p = perturb.take().unwrap_or_default();
        perturb = Some(match a.as_str() {
            "--scale" => {
                let kind = next("--scale")?;
                let factor: f64 = next("--scale")?.parse().map_err(|_| usage())?;
                let Some(kind) = edge_kind(&kind) else {
                    eprintln!("bench_observatory: unknown edge kind {kind:?}");
                    return Err(usage());
                };
                p.scale(kind, factor)
            }
            "--slow-link" => {
                let factor: f64 = next("--slow-link")?.parse().map_err(|_| usage())?;
                p.slow_link(NodeId(0), LinkDir::from_index(0), factor)
            }
            other => {
                eprintln!("bench_observatory: unknown flag {other:?}");
                return Err(usage());
            }
        });
    }
    Ok(perturb)
}

fn write_file(path: &str, contents: &str) -> Result<(), ExitCode> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("bench_observatory: {path}: {e}");
        ExitCode::FAILURE
    })
}

fn run() -> Result<ExitCode, ExitCode> {
    let perturb = parse_args()?;
    let fail = |e: String| {
        eprintln!("bench_observatory: {PROFILE}: {e}");
        ExitCode::FAILURE
    };
    let text = std::fs::read_to_string(PROFILE).map_err(|e| fail(e.to_string()))?;
    let committed = BenchReport::parse(&text).map_err(fail)?;
    let mut baseline = ObservatoryReport::from_metrics(committed);
    baseline.label = PROFILE.to_owned();

    let obs = collect(perturb.as_ref());
    let diff = obs.diff(&baseline, DiffConfig::default()).map_err(fail)?;
    print!("{}", diff.triage());

    if perturb.is_none() {
        write_file(ARCHIVE, &obs.to_json())?;
        write_file(PROFILE, &obs.metrics.to_json())?;
        println!("bench_observatory: wrote {ARCHIVE} and {PROFILE}");
    }
    if diff.has_regressions() {
        eprintln!(
            "bench_observatory: {} gated regression(s) vs {PROFILE}",
            diff.regression_count()
        );
        Ok(ExitCode::FAILURE)
    } else {
        println!("bench_observatory: clean vs {PROFILE}");
        Ok(ExitCode::SUCCESS)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(code) => code,
    }
}
