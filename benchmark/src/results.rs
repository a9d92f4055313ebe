//! `results.json`: every process's detail, stamped with the host and the
//! commit, and `--compare` of two such files at the bounds of
//! `BENCHMARK.json`.

use anton_obs::json::escape;
use anton_obs::{validate_json, BenchReport, Lex};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// The results document over the processes' detail objects.
pub fn document(seed: u64, seconds: u64, quick: bool, details: &[String]) -> String {
    format!(
        "{{\"schema\": 1, \"host\": {}, \"git_head\": {}, \"seed\": {seed}, \
         \"seconds\": {seconds}, \"quick\": {quick},\n\"processes\": [\n{}\n]}}\n",
        host_json(),
        escape(&git_head()),
        details.join(",\n")
    )
}

/// CPU model, `nproc` and `rustc -V`, plus their hash: results from
/// different hosts are never compared.
fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .filter(|l| l.starts_with("model name"))
                .find_map(|l| l.split_once(':').map(|(_, v)| v.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = anton_scenario::toolchain_snapshot();
    let fingerprint = anton_obs::fnv1a64(format!("{cpu}|{nproc}|{rustc}").as_bytes());
    format!(
        "{{\"cpu\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"fingerprint\": \"{fingerprint:016x}\"}}",
        escape(&cpu),
        escape(&rustc)
    )
}

fn git_head() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

type Field<'f> = &'f mut dyn FnMut(&str, &mut Lex<'_>) -> Result<(), String>;

/// Walk a JSON object, handing each key to `field`, which consumes its
/// value.
fn object(p: &mut Lex<'_>, field: Field<'_>) -> Result<(), String> {
    p.expect(b'{')?;
    if p.peek() == Some(b'}') {
        return p.expect(b'}');
    }
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        field(&key, p)?;
        if !p.comma_or(b'}')? {
            return Ok(());
        }
    }
}

/// Walk a JSON array, handing each item to `item`, which consumes it.
fn array(
    p: &mut Lex<'_>,
    item: &mut dyn FnMut(&mut Lex<'_>) -> Result<(), String>,
) -> Result<(), String> {
    p.expect(b'[')?;
    if p.peek() == Some(b']') {
        return p.expect(b']');
    }
    loop {
        item(p)?;
        if !p.comma_or(b']')? {
            return Ok(());
        }
    }
}

/// Consume one value of any kind (the documents hold no `null`).
fn skip(p: &mut Lex<'_>) -> Result<(), String> {
    match p.peek() {
        Some(b'"') => p.string().map(drop),
        Some(b'{') => object(p, &mut |_, p| skip(p)),
        Some(b'[') => array(p, &mut skip),
        Some(b't' | b'f') => p.boolean().map(drop),
        _ => p.number().map(drop),
    }
}

fn parse_file(
    path: &Path,
    walk: impl FnOnce(&mut Lex<'_>) -> Result<(), String>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    validate_json(&text).map_err(|e| format!("{}: not valid JSON: {e:?}", path.display()))?;
    walk(&mut Lex::new(&text)).map_err(|e| format!("{}: {e}", path.display()))
}

/// A results file: its host fingerprint and each process's report, keyed
/// by workload and pass.
struct Results {
    host: String,
    reports: BTreeMap<String, BenchReport>,
}

fn load(path: &Path) -> Result<Results, String> {
    let (mut host, mut reports) = (None, BTreeMap::new());
    parse_file(path, |p| {
        object(p, &mut |key, p| match key {
            "host" => object(p, &mut |k, p| match k {
                "fingerprint" => p.string().map(|s| host = Some(s)),
                _ => skip(p),
            }),
            "processes" => array(p, &mut |p| {
                let (mut name, mut traced, mut report) = (String::new(), false, None);
                object(p, &mut |k, p| match k {
                    "workload" => p.string().map(|s| name = s),
                    "traced" => p.boolean().map(|b| traced = b),
                    "report" => BenchReport::parse_object(p).map(|r| report = Some(r)),
                    _ => skip(p),
                })?;
                let pass = if traced { "traced" } else { "timed" };
                let report = report.ok_or(format!("process {name} has no report"))?;
                reports.insert(format!("{name} ({pass})"), report);
                Ok(())
            }),
            _ => skip(p),
        })
    })?;
    let host = host.ok_or(format!("{}: no host fingerprint", path.display()))?;
    Ok(Results { host, reports })
}

/// The `end_to_end` bounds of `BENCHMARK.json`, as shares.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let mut bounds = BTreeMap::new();
    parse_file(Path::new("BENCHMARK.json"), |p| {
        object(p, &mut |key, p| match key {
            "end_to_end" => array(p, &mut |p| {
                let (mut name, mut bound) = (None, None);
                object(p, &mut |k, p| match k {
                    "name" => p.string().map(|s| name = Some(s)),
                    "bound" => p.number().map(|b| bound = Some(b)),
                    _ => skip(p),
                })?;
                let name = name.ok_or("an end_to_end metric without a name")?;
                let bound = bound.ok_or(format!("{name} has no bound"))?;
                bounds.insert(name, bound);
                Ok(())
            }),
            _ => skip(p),
        })
    })?;
    Ok(bounds)
}

/// Every metric of `b` against the same metric of `a`, direction-aware.
/// A bounded metric fails when it is worse than its bound; the others are
/// shown for information. Refuses files from different hosts.
pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let (ra, rb) = (load(a)?, load(b)?);
    if ra.host != rb.host {
        return Err(format!(
            "refusing to compare results from different hosts ({} vs {})",
            ra.host, rb.host
        ));
    }
    let bounds = bounds()?;
    let mut worse = 0;
    println!(
        "{:<32} {:>16} {:>16} {:>9}  verdict (A = {}, B = {})",
        "metric",
        "A",
        "B",
        "change",
        a.display(),
        b.display()
    );
    for (key, base) in &ra.reports {
        println!("== {key}");
        let Some(cur) = rb.reports.get(key) else {
            println!("  only in A");
            continue;
        };
        let names = base.values.keys().chain(cur.values.keys());
        let mut seen = Vec::new();
        for name in names {
            if seen.contains(&name) {
                continue;
            }
            seen.push(name);
            let only = |r: &BenchReport| {
                let mut one = BenchReport::new(key);
                if let Some(v) = r.get(name) {
                    one.set_directed(name, v, r.direction(name));
                }
                one
            };
            let bound = bounds.get(name);
            let threshold_pct = bound.map_or(f64::INFINITY, |b| 100.0 * b);
            let Ok(diff) = only(cur).diff(&only(base), threshold_pct) else {
                let side = if base.get(name).is_some() { "A" } else { "B" };
                println!("  {name:<30} only in {side}");
                continue;
            };
            for f in &diff.findings {
                let verdict = match bound {
                    None => "-".to_owned(),
                    Some(b) if f.regressed => format!("worse than bound {b}"),
                    Some(b) => format!("within bound {b}"),
                };
                worse += usize::from(f.regressed);
                println!(
                    "  {:<30} {:>16.6} {:>16.6} {:>+8.2}%  {verdict}",
                    f.name, f.baseline, f.current, f.delta_pct
                );
            }
        }
    }
    if worse > 0 {
        return Err(format!("{worse} metric(s) worse than their bound"));
    }
    Ok(())
}
