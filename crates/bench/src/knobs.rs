//! The `ANTON_*` environment knobs of the bench binaries.
//!
//! Library crates read no environment: a run is configured by the
//! [`RunConfig`](anton_net::RunConfig) its caller builds. The binaries
//! that expose a knob read it here, each through [`Knob::read`], the one
//! resolver: an unset variable gives the knob's default, a valid value
//! its parse, and an invalid value the default plus a warning on stderr,
//! printed once per knob per process so loops over runs do not repeat
//! it. A typo'd value therefore never changes a run silently.
//!
//! | Knob | Read by | Default |
//! |---|---|---|
//! | [`THREADS`] | `par_determinism` | 1 |
//! | [`LOOKAHEAD`] | `par_determinism` | `adaptive` |
//! | [`CHAOS_SEED`] | `chaos_campaign` | [`CHAOS_SEED_DEFAULT`] |
//! | [`CHAOS_LEVEL`] | `chaos_campaign` | [`CHAOS_LEVEL_MAX`] |
//! | [`CHAOS_EXTENDED`] | `chaos_campaign` | off |

use anton_des::LookaheadMode;
use anton_scenario::presets::CHAOS_LEVEL_COUNT;
use std::fmt::Display;
use std::sync::atomic::{AtomicBool, Ordering};

/// One environment variable: its name, its parser, its default, and
/// whether it has warned yet.
pub struct Knob<T> {
    var: &'static str,
    expected: &'static str,
    default: T,
    parse: fn(&str) -> Option<T>,
    warned: AtomicBool,
}

impl<T: Copy + Display> Knob<T> {
    const fn new(
        var: &'static str,
        expected: &'static str,
        default: T,
        parse: fn(&str) -> Option<T>,
    ) -> Knob<T> {
        Knob {
            var,
            expected,
            default,
            parse,
            warned: AtomicBool::new(false),
        }
    }

    /// The knob's value when the variable holds `raw` (`None`: unset),
    /// with the warning to print when `raw` is invalid and this knob has
    /// not warned before.
    fn resolve(&self, raw: Option<&str>) -> (T, Option<String>) {
        let Some(s) = raw else {
            return (self.default, None);
        };
        if let Some(v) = (self.parse)(s) {
            return (v, None);
        }
        let first = !self.warned.swap(true, Ordering::Relaxed);
        let warning = first.then(|| {
            format!(
                "warning: ignoring invalid {}={s:?} (expected {}); using {}",
                self.var, self.expected, self.default
            )
        });
        (self.default, warning)
    }

    /// The knob's value in this process's environment.
    pub fn read(&self) -> T {
        let raw = std::env::var(self.var).ok();
        let (value, warning) = self.resolve(raw.as_deref());
        if let Some(w) = warning {
            eprintln!("{w}");
        }
        value
    }
}

/// First seed of the chaos campaign's block when `ANTON_CHAOS_SEED` is
/// unset; the committed `BENCH_pr6.json` is this block's.
pub const CHAOS_SEED_DEFAULT: u64 = 1;

/// Highest chaos level the campaign defines, and the default sweep cap.
pub const CHAOS_LEVEL_MAX: u32 = CHAOS_LEVEL_COUNT - 1;

/// `ANTON_THREADS`: worker threads. Never changes a simulated result.
pub static THREADS: Knob<usize> = Knob::new("ANTON_THREADS", "a positive integer", 1, |s| {
    s.trim().parse().ok().filter(|&n| n > 0)
});

/// `ANTON_LOOKAHEAD`: the window bound, `adaptive` (alias `matrix`) or
/// `global` (alias `uniform`), case-insensitive. Never changes a
/// simulated result.
pub static LOOKAHEAD: Knob<LookaheadMode> = Knob::new(
    "ANTON_LOOKAHEAD",
    "adaptive|global",
    LookaheadMode::Adaptive,
    |s| match s.trim().to_ascii_lowercase().as_str() {
        "adaptive" | "matrix" => Some(LookaheadMode::Adaptive),
        "global" | "uniform" => Some(LookaheadMode::Global),
        _ => None,
    },
);

/// `ANTON_CHAOS_SEED`: first seed of the chaos campaign's block. Any
/// `u64`, zero included.
pub static CHAOS_SEED: Knob<u64> = Knob::new(
    "ANTON_CHAOS_SEED",
    "an unsigned integer",
    CHAOS_SEED_DEFAULT,
    |s| s.trim().parse().ok(),
);

/// `ANTON_CHAOS_LEVEL`: highest chaos level the campaign sweeps, in
/// `0..=`[`CHAOS_LEVEL_MAX`].
pub static CHAOS_LEVEL: Knob<u32> = Knob::new(
    "ANTON_CHAOS_LEVEL",
    "an integer in 0..=3",
    CHAOS_LEVEL_MAX,
    |s| s.trim().parse().ok().filter(|&n| n <= CHAOS_LEVEL_MAX),
);

/// `ANTON_CHAOS_EXTENDED`: `1` adds the campaign's extended sweep, `0`
/// leaves it off.
pub static CHAOS_EXTENDED: Knob<bool> = Knob::new("ANTON_CHAOS_EXTENDED", "0 or 1", false, |s| {
    match s.trim() {
        "1" => Some(true),
        "0" => Some(false),
        _ => None,
    }
});

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    /// Resolve `knob` unset, at every `valid` value and at every
    /// `invalid` one, on a copy whose warn-once flag starts clear.
    fn check<T: Copy + Display + Debug + PartialEq>(
        knob: &Knob<T>,
        valid: &[(&str, T)],
        invalid: &[&str],
    ) {
        let k = Knob::new(knob.var, knob.expected, knob.default, knob.parse);
        assert_eq!(k.resolve(None), (k.default, None), "{} unset", k.var);
        for &(s, want) in valid {
            assert_eq!(k.resolve(Some(s)), (want, None), "{}={s:?}", k.var);
        }
        let mut warnings = Vec::new();
        for &s in invalid {
            let (value, warning) = k.resolve(Some(s));
            assert_eq!(value, k.default, "{}={s:?} falls back", k.var);
            warnings.extend(warning);
        }
        assert_eq!(warnings.len(), 1, "{} warns exactly once", k.var);
        assert!(warnings[0].contains(k.var), "{}", warnings[0]);
        // After the warning, unset and valid values still resolve
        // silently.
        assert_eq!(k.resolve(None), (k.default, None));
        for &(s, want) in valid {
            assert_eq!(k.resolve(Some(s)), (want, None), "{}={s:?}", k.var);
        }
        // The shared static was never touched.
        assert!(!knob.warned.load(Ordering::Relaxed));
    }

    #[test]
    fn every_knob_resolves_unset_valid_and_invalid_values() {
        use LookaheadMode::{Adaptive, Global};
        check(
            &THREADS,
            &[("1", 1), ("3", 3), ("8", 8), (" 16 ", 16)],
            &["0", "abc", "-3", "4.5", "", "junk"],
        );
        check(
            &LOOKAHEAD,
            &[
                ("adaptive", Adaptive),
                ("matrix", Adaptive),
                (" Adaptive ", Adaptive),
                ("global", Global),
                ("uniform", Global),
                ("GLOBAL", Global),
            ],
            &["", "adaptve", "1", "on"],
        );
        check(
            &CHAOS_SEED,
            &[
                ("0", 0),
                ("9", 9),
                (" 42 ", 42),
                ("18446744073709551615", u64::MAX),
            ],
            &["bad", "", "-1", "3.5", "many"],
        );
        check(
            &CHAOS_LEVEL,
            &[("0", 0), ("1", 1), ("3", 3)],
            &["99", "4", "-2", "max"],
        );
        check(
            &CHAOS_EXTENDED,
            &[("1", true), ("0", false), (" 1 ", true)],
            &["yes", "true", "2", ""],
        );
    }
}
