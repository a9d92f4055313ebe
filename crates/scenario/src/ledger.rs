//! The content-addressed run ledger.
//!
//! Every `scenario run` drops one [`RunRecord`] at
//! `target/obs/ledger/<spec-hash>.json`: the canonical spec text it ran
//! (so the record is self-reproducing), the engine fingerprints at each
//! probed thread count, the full observatory report, and a
//! toolchain/environment snapshot. The committed [`LedgerIndex`]
//! (`LEDGER.json`) maps hashes to human names and spec paths so
//! `scenario verify --all` can replay every committed experiment from
//! nothing but the index.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use anton_obs::{validate_json, Lex, ObservatoryReport};

use crate::spec::ScenarioSpec;

/// Environment knobs captured into every run record. These are the
/// engine-behavior knobs: anything here that differs between two hosts
/// can explain a fingerprint mismatch, which is why they're snapshotted.
pub const CAPTURED_ENV: [&str; 5] = [
    "ANTON_THREADS",
    "ANTON_LOOKAHEAD",
    "ANTON_CHAOS_SEED",
    "ANTON_CHAOS_LEVEL",
    "ANTON_CHAOS_EXTENDED",
];

/// The `ANTON_*` knobs that are actually set right now, as a map.
pub fn env_snapshot() -> BTreeMap<String, String> {
    CAPTURED_ENV
        .iter()
        .filter_map(|k| std::env::var(k).ok().map(|v| (k.to_string(), v)))
        .collect()
}

/// The compiler that built the engine (`rustc --version`), or
/// `"unknown"` when the toolchain isn't on PATH (records stay
/// comparable either way — an unknown toolchain simply can't vouch for
/// binary identity).
pub fn toolchain_snapshot() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One completed run: everything needed to reproduce it and everything
/// observed while running it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The spec's 16-hex content hash (the record's address).
    pub spec_hash: String,
    /// The spec's human name.
    pub spec_name: String,
    /// The canonical TOML form of the spec — re-parse this to re-run.
    pub spec_toml: String,
    /// Engine fingerprint per probed configuration (key `"t<threads>"`,
    /// value 16-hex). Bit-determinism means every key maps to the same
    /// value; the record keeps them separate so a violation is visible.
    pub fingerprints: BTreeMap<String, String>,
    /// `rustc --version` of the engine build.
    pub toolchain: String,
    /// The `ANTON_*` knobs set when the run happened.
    pub env: BTreeMap<String, String>,
    /// The full observatory report collected during the run.
    pub observatory: ObservatoryReport,
}

impl RunRecord {
    /// Assemble a record for `spec` with environment and toolchain
    /// snapshots taken now.
    pub fn new(
        spec: &ScenarioSpec,
        fingerprints: BTreeMap<String, String>,
        observatory: ObservatoryReport,
    ) -> RunRecord {
        RunRecord {
            spec_hash: spec.hash_hex(),
            spec_name: spec.name.clone(),
            spec_toml: spec.to_toml(),
            fingerprints,
            toolchain: toolchain_snapshot(),
            env: env_snapshot(),
            observatory,
        }
    }

    /// The record's path inside a ledger directory.
    pub fn path_in(dir: &Path, hash: &str) -> PathBuf {
        dir.join(format!("{hash}.json"))
    }

    /// Serialize. Deterministic for a given record (maps iterate
    /// sorted), so re-running an identical spec in an identical
    /// environment rewrites an identical file.
    pub fn to_json(&self) -> String {
        let esc = anton_obs::json::escape;
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"spec_hash\": {},\n", esc(&self.spec_hash)));
        out.push_str(&format!("  \"spec_name\": {},\n", esc(&self.spec_name)));
        out.push_str(&format!("  \"spec_toml\": {},\n", esc(&self.spec_toml)));
        out.push_str("  \"fingerprints\": {");
        push_string_map(&mut out, &self.fingerprints);
        out.push_str("},\n");
        out.push_str(&format!("  \"toolchain\": {},\n", esc(&self.toolchain)));
        out.push_str("  \"env\": {");
        push_string_map(&mut out, &self.env);
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"observatory\": {}\n",
            self.observatory.to_json().trim_end()
        ));
        out.push_str("}\n");
        out
    }

    /// Parse a serialized record (strict: validates the JSON, then
    /// requires exactly this schema's shape).
    pub fn parse(input: &str) -> Result<RunRecord, String> {
        validate_json(input).map_err(|e| e.to_string())?;
        let mut p = Lex::new(input);
        p.expect(b'{')?;
        let mut schema = None;
        let mut spec_hash = None;
        let mut spec_name = None;
        let mut spec_toml = None;
        let mut fingerprints = None;
        let mut toolchain = None;
        let mut env = None;
        let mut observatory = None;
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            match key.as_str() {
                "schema" => schema = Some(p.number()?),
                "spec_hash" => spec_hash = Some(p.string()?),
                "spec_name" => spec_name = Some(p.string()?),
                "spec_toml" => spec_toml = Some(p.string()?),
                "fingerprints" => fingerprints = Some(parse_string_map(&mut p)?),
                "toolchain" => toolchain = Some(p.string()?),
                "env" => env = Some(parse_string_map(&mut p)?),
                "observatory" => observatory = Some(ObservatoryReport::parse_object(&mut p)?),
                other => return Err(format!("unknown run-record key {other:?}")),
            }
            if !p.comma_or(b'}')? {
                break;
            }
        }
        if schema != Some(1.0) {
            return Err("run record schema must be 1".to_owned());
        }
        Ok(RunRecord {
            spec_hash: spec_hash.ok_or("missing spec_hash")?,
            spec_name: spec_name.ok_or("missing spec_name")?,
            spec_toml: spec_toml.ok_or("missing spec_toml")?,
            fingerprints: fingerprints.ok_or("missing fingerprints")?,
            toolchain: toolchain.ok_or("missing toolchain")?,
            env: env.ok_or("missing env")?,
            observatory: observatory.ok_or("missing observatory")?,
        })
    }

    /// Write the record into `dir` (created if needed) at its
    /// content-addressed path.
    pub fn store(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = RunRecord::path_in(dir, &self.spec_hash);
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Load and parse the record stored for `hash` in `dir`.
    pub fn load(dir: &Path, hash: &str) -> Result<RunRecord, String> {
        let path = RunRecord::path_in(dir, hash);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        RunRecord::parse(&text)
    }
}

fn push_string_map(out: &mut String, map: &BTreeMap<String, String>) {
    let esc = anton_obs::json::escape;
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    {}: {}", esc(k), esc(v)));
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
}

fn parse_string_map(p: &mut Lex<'_>) -> Result<BTreeMap<String, String>, String> {
    p.expect(b'{')?;
    let mut out = BTreeMap::new();
    if p.peek() == Some(b'}') {
        p.expect(b'}')?;
        return Ok(out);
    }
    loop {
        let k = p.string()?;
        p.expect(b':')?;
        let v = p.string()?;
        out.insert(k, v);
        if !p.comma_or(b'}')? {
            return Ok(out);
        }
    }
}

/// One committed index entry: where a spec lives and what it should
/// reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// The spec's content hash (16-hex).
    pub hash: String,
    /// The spec's human name.
    pub name: String,
    /// Repo-relative path of the committed spec file.
    pub spec_path: String,
    /// The engine fingerprint the spec must reproduce (16-hex).
    pub fingerprint: String,
    /// Free-form context for readers of the committed index.
    pub note: String,
}

/// The committed `LEDGER.json`: a name→hash→spec-path index over the
/// content-addressed records, small enough to live in git while the
/// records themselves stay under `target/`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LedgerIndex {
    /// The committed entries, sorted by name then hash.
    pub entries: Vec<LedgerEntry>,
}

impl LedgerIndex {
    /// Serialize, deterministically.
    pub fn to_json(&self) -> String {
        let esc = anton_obs::json::escape;
        let mut out = String::from("{\n  \"schema\": 1,\n  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"hash\": {},\n", esc(&e.hash)));
            out.push_str(&format!("      \"name\": {},\n", esc(&e.name)));
            out.push_str(&format!("      \"spec_path\": {},\n", esc(&e.spec_path)));
            out.push_str(&format!(
                "      \"fingerprint\": {},\n",
                esc(&e.fingerprint)
            ));
            out.push_str(&format!("      \"note\": {}\n", esc(&e.note)));
            out.push_str("    }");
        }
        if !self.entries.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parse a serialized index (strict shape, like [`RunRecord::parse`]).
    pub fn parse(input: &str) -> Result<LedgerIndex, String> {
        validate_json(input).map_err(|e| e.to_string())?;
        let mut p = Lex::new(input);
        p.expect(b'{')?;
        let mut schema = None;
        let mut entries = Vec::new();
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            match key.as_str() {
                "schema" => schema = Some(p.number()?),
                "entries" => {
                    p.expect(b'[')?;
                    if p.peek() == Some(b']') {
                        p.expect(b']')?;
                    } else {
                        loop {
                            entries.push(parse_entry(&mut p)?);
                            if !p.comma_or(b']')? {
                                break;
                            }
                        }
                    }
                }
                other => return Err(format!("unknown ledger-index key {other:?}")),
            }
            if !p.comma_or(b'}')? {
                break;
            }
        }
        if schema != Some(1.0) {
            return Err("ledger index schema must be 1".to_owned());
        }
        Ok(LedgerIndex { entries })
    }

    /// Load an index from disk; a missing file is an empty index (the
    /// first `scenario run --index` bootstraps it).
    pub fn load(path: &Path) -> Result<LedgerIndex, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => LedgerIndex::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(LedgerIndex::default()),
            Err(e) => Err(format!("read {}: {e}", path.display())),
        }
    }

    /// Write the index to disk.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Insert or replace the entry with this hash, keeping the index
    /// sorted by name then hash.
    pub fn upsert(&mut self, entry: LedgerEntry) {
        self.entries.retain(|e| e.hash != entry.hash);
        self.entries.push(entry);
        self.entries
            .sort_by(|a, b| (&a.name, &a.hash).cmp(&(&b.name, &b.hash)));
    }

    /// Find an entry by exact hash, unique hash prefix, or exact name.
    pub fn resolve(&self, key: &str) -> Option<&LedgerEntry> {
        if let Some(e) = self.entries.iter().find(|e| e.hash == key || e.name == key) {
            return Some(e);
        }
        let mut by_prefix = self.entries.iter().filter(|e| e.hash.starts_with(key));
        match (by_prefix.next(), by_prefix.next()) {
            (Some(e), None) => Some(e),
            _ => None,
        }
    }

    /// The names in the index, for "unknown name" hints.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }
}

fn parse_entry(p: &mut Lex<'_>) -> Result<LedgerEntry, String> {
    p.expect(b'{')?;
    let mut hash = None;
    let mut name = None;
    let mut spec_path = None;
    let mut fingerprint = None;
    let mut note = None;
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        match key.as_str() {
            "hash" => hash = Some(p.string()?),
            "name" => name = Some(p.string()?),
            "spec_path" => spec_path = Some(p.string()?),
            "fingerprint" => fingerprint = Some(p.string()?),
            "note" => note = Some(p.string()?),
            other => return Err(format!("unknown ledger-entry key {other:?}")),
        }
        if !p.comma_or(b'}')? {
            break;
        }
    }
    Ok(LedgerEntry {
        hash: hash.ok_or("entry missing hash")?,
        name: name.ok_or("entry missing name")?,
        spec_path: spec_path.ok_or("entry missing spec_path")?,
        fingerprint: fingerprint.ok_or("entry missing fingerprint")?,
        note: note.unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_obs::Section;

    fn sample_record() -> RunRecord {
        let spec = crate::presets::md_balanced();
        let mut obs = ObservatoryReport::new("test run");
        obs.metrics.set("makespan_us", 12.5);
        obs.set_section(
            "congestion",
            Section::values(BTreeMap::from([("hot0_busy_ns".to_owned(), 42.0)])),
        );
        let mut fps = BTreeMap::new();
        fps.insert("t1".to_owned(), "458e528e99e105c2".to_owned());
        fps.insert("t4".to_owned(), "458e528e99e105c2".to_owned());
        let mut rec = RunRecord::new(&spec, fps, obs);
        // Pin the host-dependent snapshots so the test is hermetic.
        rec.toolchain = "rustc 1.0.0-test".to_owned();
        rec.env = BTreeMap::from([("ANTON_THREADS".to_owned(), "4".to_owned())]);
        rec
    }

    #[test]
    fn run_record_round_trips() {
        let rec = sample_record();
        let json = rec.to_json();
        validate_json(&json).expect("valid JSON");
        let parsed = RunRecord::parse(&json).expect("parses");
        assert_eq!(rec, parsed);
        // The embedded spec text reproduces the hash it claims.
        let spec = ScenarioSpec::from_toml_str(&parsed.spec_toml).expect("spec parses");
        assert_eq!(spec.hash_hex(), parsed.spec_hash);
    }

    #[test]
    fn run_record_store_and_load() {
        let dir = std::env::temp_dir().join("anton_scenario_ledger_test");
        let _ = std::fs::remove_dir_all(&dir);
        let rec = sample_record();
        let path = rec.store(&dir).expect("store");
        assert!(path.ends_with(format!("{}.json", rec.spec_hash)));
        let loaded = RunRecord::load(&dir, &rec.spec_hash).expect("load");
        assert_eq!(rec, loaded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_round_trips_and_resolves() {
        let mut idx = LedgerIndex::default();
        idx.upsert(LedgerEntry {
            hash: "aaaa000011112222".to_owned(),
            name: "md_balanced".to_owned(),
            spec_path: "specs/md_balanced.toml".to_owned(),
            fingerprint: "458e528e99e105c2".to_owned(),
            note: "balanced MD exchange".to_owned(),
        });
        idx.upsert(LedgerEntry {
            hash: "bbbb000011112222".to_owned(),
            name: "md_skewed".to_owned(),
            spec_path: "specs/md_skewed.toml".to_owned(),
            fingerprint: "1111222233334444".to_owned(),
            note: String::new(),
        });
        let parsed = LedgerIndex::parse(&idx.to_json()).expect("parses");
        assert_eq!(idx, parsed);

        assert_eq!(idx.resolve("md_skewed").unwrap().hash, "bbbb000011112222");
        assert_eq!(idx.resolve("aaaa").unwrap().name, "md_balanced");
        assert_eq!(idx.resolve("aaaa000011112222").unwrap().name, "md_balanced");
        assert!(idx.resolve("cccc").is_none(), "unknown prefix");
        assert!(idx.resolve("").is_none(), "ambiguous prefix");
        assert_eq!(idx.names(), vec!["md_balanced", "md_skewed"]);

        // Upserting an existing hash replaces the entry.
        idx.upsert(LedgerEntry {
            hash: "aaaa000011112222".to_owned(),
            name: "md_balanced".to_owned(),
            spec_path: "specs/md_balanced.toml".to_owned(),
            fingerprint: "5555666677778888".to_owned(),
            note: "updated".to_owned(),
        });
        assert_eq!(idx.entries.len(), 2);
        assert_eq!(
            idx.resolve("md_balanced").unwrap().fingerprint,
            "5555666677778888"
        );
    }

    #[test]
    fn missing_index_is_empty() {
        let idx = LedgerIndex::load(Path::new("/nonexistent/LEDGER.json")).expect("empty");
        assert!(idx.entries.is_empty());
    }
}
