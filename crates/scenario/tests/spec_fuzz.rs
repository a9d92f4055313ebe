//! Fuzz test of the spec parser, which `scenario run <file>` feeds with
//! whatever the file holds: byte-level mutations of every committed spec
//! file and every preset's TOML form must parse to `Ok` or `Err`, never
//! panic, and a spec that parses must survive every accessor a runner
//! calls on it.

use anton_scenario::{presets, ScenarioSpec};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Bytes that steer mutations into the grammar's corners: brackets,
/// quotes, separators, escapes, number syntax and line breaks.
const STRUCTURAL: &[u8] = b"[]=\",.#\\\n\t -+_eE0123456789abcdefghijklmnopqrstuvwxyz";

/// The unmutated documents: `specs/*.toml` and every preset.
fn seeds() -> &'static [Vec<u8>] {
    static SEEDS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("specs/ is readable")
            .map(|e| e.expect("specs/ entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .collect();
        files.sort();
        assert!(!files.is_empty(), "no spec files under {dir}");
        files
            .iter()
            .map(|p| std::fs::read(p).expect("spec file is readable"))
            .chain(presets::all().iter().map(|s| s.to_toml().into_bytes()))
            .collect()
    })
}

/// Apply one edit: `op` 0 inserts, 1 replaces, 2 deletes the byte at
/// `pos` (taken modulo the length). `byte` below 256 is itself; above,
/// it picks from [`STRUCTURAL`].
fn mutate(doc: &mut Vec<u8>, op: u8, pos: usize, byte: u16) {
    let b = match u8::try_from(byte) {
        Ok(raw) => raw,
        Err(_) => STRUCTURAL[usize::from(byte) % STRUCTURAL.len()],
    };
    match op {
        0 => doc.insert(pos % (doc.len() + 1), b),
        _ if doc.is_empty() => {}
        1 => {
            let i = pos % doc.len();
            doc[i] = b;
        }
        _ => {
            doc.remove(pos % doc.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn mutated_specs_never_panic(
        which in 0usize..1_000,
        edits in prop::collection::vec((0u8..3, 0usize..1_000_000, 0u16..512), 1..4),
    ) {
        let seeds = seeds();
        let mut doc = seeds[which % seeds.len()].clone();
        for &(op, pos, byte) in &edits {
            mutate(&mut doc, op, pos, byte);
        }
        let text = String::from_utf8_lossy(&doc);
        if let Ok(spec) = ScenarioSpec::from_toml_str(&text) {
            let _ = spec.validate();
            let _ = spec.content_hash();
            let _ = spec.torus_dims();
            let _ = spec.fault_plan();
            let _ = spec.deaths();
        }
    }
}
