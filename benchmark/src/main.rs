//! `hostbench`: the host-time benchmark of the simulator (see README.md).
//!
//! Without `--workload` it runs every workload in a fresh process of its
//! own, one at a time, first timed and then traced, and writes
//! `target/benchmark/results.json`. With `--workload NAME` it is that one
//! process: the last line of its standard output is the result object.

mod calibrate;
mod layers;
mod results;
mod stats;
mod trace;
mod workload;

use anton_obs::json::escape;
use anton_obs::{BenchReport, Direction};
use calibrate::Calibration;
use layers::{layer_metrics, Desc, PER_LAYER};
use stats::{median, percentile, quartiles, tail_percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Run, Workload, NAMES};

use Direction::{HigherIsBetter as Higher, LowerIsBetter as Lower};

const USAGE: &str = "\
usage: hostbench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
                 [--quick] [--check]
       hostbench --compare A.json B.json

  --workload NAME  run one workload in this process (md_balanced, md_skewed_t2,
                   scale_md_12, chaos_sweep); the last output line is its result
  --seed N         draws chaos_sweep's all-reduce inputs (default 1); the MD
                   workloads are seedless
  --seconds N      timed-loop length per workload (default 20)
  --trace 0|1      1 runs the traced per-layer pass instead of the timed one
  --quick          smoke mode: 10 rounds per workload and no traced pass
  --check          exit non-zero if any run failed or a metric is missing
  --compare A B    compare two results.json files from the same host at the
                   bounds of BENCHMARK.json";

const OUT_DIR: &str = "target/benchmark";
const DEFAULT_SECONDS: u64 = 20;
const WARMUP_ROUNDS: usize = 3;
const QUICK_ROUNDS: usize = 10;
const QUICK_SETUPS: usize = 5;

/// The end-to-end metrics `BENCHMARK.json` lists and bounds; host times
/// at the reference host's speed (see `calibrate`).
const END_TO_END: [Desc; 4] = [
    ("wall_s_p50", "s", Lower),
    ("setup_s", "s", Lower),
    ("sim_ns_per_s", "ns/s", Higher),
    ("peak_rss_mb", "MB", Lower),
];
const EVENTS_PER_S: Desc = ("events_per_s", "1/s", Higher);
const FAIL_RATE: Desc = ("fail_rate", "ratio", Lower);
const SLOWDOWN: Desc = ("host.slowdown", "ratio", Lower);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    check: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        check: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.compare, &args.workload) {
        (Some((a, b)), _) => results::compare(Path::new(a), Path::new(b)),
        (None, Some(name)) => single(&args, name),
        (None, None) => full(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One process's metrics: values and directions in a `BenchReport`, with
/// each metric's unit beside it.
struct Metrics {
    report: BenchReport,
    units: BTreeMap<String, &'static str>,
}

impl Metrics {
    fn new(label: &str) -> Metrics {
        Metrics {
            report: BenchReport::new(label),
            units: BTreeMap::new(),
        }
    }

    fn set(&mut self, (name, unit, direction): (&str, &'static str, Direction), value: f64) {
        assert!(value.is_finite(), "metric {name} = {value} is not finite");
        self.report.set_directed(name, value, direction);
        self.units.insert(name.to_owned(), unit);
    }

    /// `{"name": {"value": v, "unit": u}, ..}` over the metrics `keep`
    /// admits, each value with all its digits.
    fn json(&self, keep: impl Fn(&str) -> bool) -> String {
        let fields: Vec<String> = self
            .report
            .values
            .iter()
            .filter(|(name, _)| keep(name))
            .map(|(name, value)| {
                format!(
                    "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                    escape(name),
                    escape(self.units[name])
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn detail_path(name: &str, traced: bool) -> PathBuf {
    let suffix = if traced { ".traced.json" } else { ".json" };
    Path::new(OUT_DIR).join(format!("{name}{suffix}"))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// One workload in this process: setup first, then references, warmup,
/// and the timed loop or the traced pass.
fn single(args: &Args, name: &str) -> Result<(), String> {
    let w = Workload::new(name, args.seed)?;
    let mut cal = Calibration::new();
    let samples = if args.quick {
        QUICK_SETUPS
    } else {
        w.setup_samples
    };
    let setup_s = median(&w.setup_times(samples, &mut cal)).expect("at least one setup");
    let refs = w.references()?;
    let mut runs: Vec<Run> = (0..WARMUP_ROUNDS).flat_map(|_| w.round(&refs)).collect();
    let warmup = runs.len();

    let mut tracer = Tracer::new();
    let mut metrics = Metrics::new(w.name);
    let mut required: Vec<Desc> = vec![FAIL_RATE];
    if args.trace {
        let layers = tracer.span("benchmark.traced_pass", |t| {
            layers::measure(&w, &refs, t, &mut runs)
        })?;
        for desc in layer_metrics(&w) {
            metrics.set(desc, layers[desc.0]);
            required.push(desc);
        }
        // The constructor-timed setup against the real runner's setup.
        if let Some(par_setup) = layers.get("net.par_setup_s") {
            println!("setup_over_par_setup {:.3}", setup_s / par_setup);
        }
    } else {
        // Closed loop: the next round starts when the previous returns,
        // after a calibration sample at most every 0.1 s.
        let deadline = Instant::now() + Duration::from_secs(args.seconds);
        let mut rounds = Vec::new();
        while rounds.is_empty()
            || (args.quick && rounds.len() < QUICK_ROUNDS)
            || (!args.quick && Instant::now() < deadline)
        {
            rounds.push(w.round(&refs));
            cal.tick();
        }
        runs.extend(rounds.iter().flatten());
        timed_metrics(&w, &rounds, setup_s, cal.slowdown(), &mut metrics)?;
        required.extend(END_TO_END);
        if w.is_md() {
            required.push(EVENTS_PER_S);
        }
    }

    let attempted = runs.len();
    let failed = runs.iter().filter(|r| !r.ok).count();
    metrics.set(FAIL_RATE, failed as f64 / attempted as f64);

    println!(
        "== {} ({}, {} thread{}, seed {}, {} runs after warmup)",
        w.name,
        if args.trace { "traced" } else { "timed" },
        w.threads,
        if w.threads == 1 { "" } else { "s" },
        args.seed,
        attempted - warmup
    );
    for (name, value) in &metrics.report.values {
        println!("  {name:<30} {value:>18.6} {}", metrics.units[name]);
    }
    if !args.trace {
        let walls: Vec<f64> = runs[warmup..].iter().map(|r| r.wall_s).collect();
        if let Some((q1, q3)) = quartiles(&walls) {
            println!("  wall quartiles: {q1:.6} s .. {q3:.6} s");
        }
    } else {
        println!("  spans (total s, self s):");
        for (depth, name, total, own) in tracer.self_times() {
            println!(
                "    {:indent$}{name:<40} {total:>10.6} {own:>10.6}",
                "",
                indent = 2 * depth
            );
        }
        let trace_path = Path::new(OUT_DIR).join(format!("{}.trace.json", w.name));
        write(
            &trace_path,
            &tracer.chrome_trace(&format!("hostbench {}", w.name)),
        )?;
        println!("  trace written to {}", trace_path.display());
    }

    let specs: Vec<String> = w
        .specs
        .iter()
        .zip(&refs)
        .map(|(s, r)| {
            format!(
                "{{\"name\": {}, \"hash\": {}, \"fingerprint\": {}}}",
                escape(&s.name),
                escape(&s.hash_hex()),
                escape(r)
            )
        })
        .collect();
    let units: Vec<String> = metrics
        .units
        .iter()
        .map(|(n, u)| format!("{}: {}", escape(n), escape(u)))
        .collect();
    let correct = failed == 0;
    let mut detail = format!(
        "{{\"workload\": {}, \"traced\": {}, \"quick\": {}, \"seed\": {}, \"seconds\": {}, \
         \"threads\": {}, \"specs\": [{}], \"runs\": {}, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"correct\": {correct}, \"units\": {{{}}}, \"report\": ",
        escape(w.name),
        args.trace,
        args.quick,
        args.seed,
        args.seconds,
        w.threads,
        specs.join(", "),
        attempted - warmup,
        units.join(", "),
    );
    metrics.report.write_json_into(&mut detail, 1);
    detail.push('}');
    write(&detail_path(w.name, args.trace), &detail)?;
    if args.check {
        let mut problems: Vec<String> = required
            .iter()
            .filter(|(m, ..)| metrics.report.get(m).is_none())
            .map(|(m, ..)| format!("{}: metric {m} missing", w.name))
            .collect();
        if !correct {
            problems.push(format!("{}: {failed} of {attempted} runs failed", w.name));
        }
        if !problems.is_empty() {
            return Err(problems.join("; "));
        }
    }

    let listed = |n: &str| {
        let table: &[Desc] = if args.trace { &PER_LAYER } else { &END_TO_END };
        table.iter().any(|(m, ..)| *m == n)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json(listed)
    );
    Ok(())
}

/// Wall-time percentiles over the runs that reproduced their reference,
/// the tail at the highest percentile that leaves ten runs beyond it;
/// rates are the median over fully correct rounds of the round's work per
/// wall second, so one stalled run moves them no more than the p50.
/// Host times are reported at the reference host's speed, given the
/// process's `slowdown`, and as measured under `raw.`.
fn timed_metrics(
    w: &Workload,
    rounds: &[Vec<Run>],
    setup_s: f64,
    slowdown: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let walls: Vec<f64> = rounds
        .iter()
        .flatten()
        .filter(|r| r.ok)
        .map(|r| r.wall_s)
        .collect();
    let good: Vec<&Vec<Run>> = rounds.iter().filter(|r| r.iter().all(|x| x.ok)).collect();
    if good.is_empty() {
        return Err(format!("{}: no timed round was correct", w.name));
    }
    let per_s = |f: fn(&Run) -> f64| {
        let rates: Vec<f64> = good
            .iter()
            .map(|r| r.iter().map(f).sum::<f64>() / r.iter().map(|x| x.wall_s).sum::<f64>())
            .collect();
        median(&rates).expect("rounds")
    };
    let mut host_time = |(name, unit, direction): (&str, &'static str, Direction), raw: f64| {
        let reference = if unit.ends_with("/s") {
            raw * slowdown
        } else {
            raw / slowdown
        };
        m.set((name, unit, direction), reference);
        m.set((&format!("raw.{name}"), unit, direction), raw);
    };
    host_time(END_TO_END[0], median(&walls).expect("runs"));
    if let Some(p) = tail_percentile(walls.len()) {
        let tail = percentile(&walls, p).expect("runs");
        host_time((&format!("wall_s_p{p}"), "s", Lower), tail);
    }
    host_time(END_TO_END[1], setup_s);
    if w.is_md() {
        host_time(EVENTS_PER_S, per_s(|r| r.events));
    }
    host_time(END_TO_END[2], per_s(|r| r.sim_ns));
    m.set(SLOWDOWN, slowdown);
    m.set(END_TO_END[3], peak_rss_mb());
    Ok(())
}

/// Every workload in a fresh process, timed and then traced; each
/// process's detail is gathered into `results.json`.
fn full(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let passes: &[bool] = if args.quick { &[false] } else { &[false, true] };
    let mut problems = Vec::new();
    let mut details = Vec::new();
    for &traced in passes {
        for name in NAMES {
            let path = detail_path(name, traced);
            let _ = std::fs::remove_file(&path);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }, "--check"]);
            if args.quick {
                cmd.arg("--quick");
            }
            match cmd.status() {
                Ok(s) if s.success() => {}
                Ok(s) => problems.push(format!("{name}: exited with {s}")),
                Err(e) => problems.push(format!("{name}: {e}")),
            }
            if let Ok(text) = std::fs::read_to_string(&path) {
                details.push(text);
            }
        }
    }
    let out = Path::new(OUT_DIR).join("results.json");
    write(
        &out,
        &results::document(args.seed, args.seconds, args.quick, &details),
    )?;
    println!("results written to {}", out.display());
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("  {p}");
        }
        if args.check {
            return Err(format!("{} process(es) failed", problems.len()));
        }
    }
    Ok(())
}
