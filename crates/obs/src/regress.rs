//! Schema-versioned benchmark reports and threshold-based regression
//! diffing — the data model of the committed `BENCH_pr*.json` files,
//! the [`observatory`](crate::observatory) triage and the host-time
//! benchmark's `--compare`.
//!
//! A [`BenchReport`] is a flat map of metric name → value (latencies in
//! nanoseconds or microseconds, the name says which) with a schema
//! version, a label, and optional per-metric [`Direction`] metadata.
//! It serializes to a small, stable JSON document and parses back
//! without any external dependency. Each committed `BENCH_pr*.json` is
//! the byte-exact output of one emitter, so CI gates them with an exact
//! `git diff`, not a threshold. [`BenchReport::diff`] compares a
//! current run against a baseline with a percentage threshold: a
//! lower-is-better metric regresses when it *grows* past the
//! threshold, a higher-is-better metric (e.g. `lookahead_efficiency`,
//! speedup ratios) when it *shrinks* past it — so improvements are
//! never reported as regressions in either direction. Metrics present
//! only in the baseline are reported but do not fail the diff.

use crate::json::{escape, validate_json, Lex};
use crate::metrics::fmt_f64;
use std::collections::BTreeMap;

/// Version of the `BENCH_*.json` schema this crate writes and reads:
/// version 2, with the optional per-metric direction map.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// Which way a metric is supposed to move.
///
/// The suite's latencies are [`Direction::LowerIsBetter`] (the
/// default); efficiency and speedup ratios are
/// [`Direction::HigherIsBetter`] and must never be flagged as
/// regressions when they rise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Growth past the threshold is a regression (latencies, losses).
    #[default]
    LowerIsBetter,
    /// Shrinkage past the threshold is a regression (efficiencies,
    /// speedups, bandwidths).
    HigherIsBetter,
}

impl Direction {
    /// Stable serialization tag.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "lower",
            Direction::HigherIsBetter => "higher",
        }
    }

    /// Inverse of [`Direction::as_str`].
    pub fn parse_str(s: &str) -> Result<Direction, String> {
        match s {
            "lower" => Ok(Direction::LowerIsBetter),
            "higher" => Ok(Direction::HigherIsBetter),
            other => Err(format!("unknown direction {other:?}")),
        }
    }
}

/// One benchmark run: named scalar results plus identifying metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`] when written by this
    /// crate).
    pub schema: u32,
    /// Free-form label of the run (suite name, PR tag).
    pub label: String,
    /// Metric name → value, sorted by name.
    pub values: BTreeMap<String, f64>,
    /// Metric name → direction for the metrics that deviate from the
    /// lower-is-better default. Only non-default entries serialize.
    pub directions: BTreeMap<String, Direction>,
}

impl BenchReport {
    /// An empty report with the current schema version.
    pub fn new(label: &str) -> BenchReport {
        BenchReport {
            schema: BENCH_SCHEMA_VERSION,
            label: label.to_owned(),
            values: BTreeMap::new(),
            directions: BTreeMap::new(),
        }
    }

    /// Record one metric (overwrites a previous value of that name).
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(value.is_finite(), "metric {name} is not finite");
        self.values.insert(name.to_owned(), value);
    }

    /// Record one metric with an explicit direction.
    pub fn set_directed(&mut self, name: &str, value: f64, direction: Direction) {
        self.set(name, value);
        self.set_direction(name, direction);
    }

    /// Tag one metric's direction without touching its value.
    pub fn set_direction(&mut self, name: &str, direction: Direction) {
        if direction == Direction::default() {
            self.directions.remove(name);
        } else {
            self.directions.insert(name.to_owned(), direction);
        }
    }

    /// Look up one metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The direction of one metric (lower-is-better unless tagged).
    pub fn direction(&self, name: &str) -> Direction {
        self.directions.get(name).copied().unwrap_or_default()
    }

    /// Serialize to the stable JSON document (validated before being
    /// returned, so it is always well-formed).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json_into(&mut out, 0);
        out.push('\n');
        validate_json(&out).expect("bench report JSON is well-formed by construction");
        out
    }

    /// Write the report object (no trailing newline) at `indent`
    /// leading spaces per nesting level base — the embeddable form the
    /// observatory report uses to nest a `BenchReport` verbatim.
    pub fn write_json_into(&self, out: &mut String, indent: usize) {
        let pad = " ".repeat(indent);
        out.push_str("{\n");
        out.push_str(&format!("{pad}  \"schema\": {},\n", self.schema));
        out.push_str(&format!("{pad}  \"label\": {},\n", escape(&self.label)));
        if !self.directions.is_empty() {
            out.push_str(&format!("{pad}  \"directions\": {{"));
            let mut first = true;
            for (name, dir) in &self.directions {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "\n{pad}    {}: {}",
                    escape(name),
                    escape(dir.as_str())
                ));
            }
            out.push_str(&format!("\n{pad}  }},\n"));
        }
        out.push_str(&format!("{pad}  \"values\": {{"));
        let mut first = true;
        for (name, value) in &self.values {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n{pad}    {}: {}", escape(name), fmt_f64(*value)));
        }
        out.push_str(&format!("\n{pad}  }}\n{pad}}}"));
    }

    /// Parse a report written by [`BenchReport::to_json`] (or edited by
    /// hand, as long as it keeps the flat shape: top-level `schema`,
    /// `label`, optional `directions`, and a `values` object of finite
    /// numbers).
    pub fn parse(s: &str) -> Result<BenchReport, String> {
        validate_json(s).map_err(|e| format!("not valid JSON: {e:?}"))?;
        let mut p = Lex::new(s);
        Self::parse_object(&mut p)
    }

    /// Parse the report object at the cursor (shared with the
    /// observatory parser, which embeds a report under `"metrics"`).
    pub fn parse_object(p: &mut Lex<'_>) -> Result<BenchReport, String> {
        let mut report = BenchReport {
            schema: 0,
            label: String::new(),
            values: BTreeMap::new(),
            directions: BTreeMap::new(),
        };
        let mut saw_schema = false;
        p.expect(b'{')?;
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            match key.as_str() {
                "schema" => {
                    report.schema = p.number()? as u32;
                    saw_schema = true;
                }
                "label" => report.label = p.string()?,
                "directions" => {
                    p.expect(b'{')?;
                    if p.peek() == Some(b'}') {
                        p.expect(b'}')?;
                    } else {
                        loop {
                            let name = p.string()?;
                            p.expect(b':')?;
                            let dir = Direction::parse_str(&p.string()?)?;
                            if dir != Direction::default() {
                                report.directions.insert(name, dir);
                            }
                            if !p.comma_or(b'}')? {
                                break;
                            }
                        }
                    }
                }
                "values" => {
                    p.expect(b'{')?;
                    if p.peek() == Some(b'}') {
                        p.expect(b'}')?;
                    } else {
                        loop {
                            let name = p.string()?;
                            p.expect(b':')?;
                            let value = p.number()?;
                            if !value.is_finite() {
                                return Err(format!("metric {name:?} is not finite ({value})"));
                            }
                            report.values.insert(name, value);
                            if !p.comma_or(b'}')? {
                                break;
                            }
                        }
                    }
                }
                other => return Err(format!("unexpected key {other:?}")),
            }
            if !p.comma_or(b'}')? {
                break;
            }
        }
        if !saw_schema {
            return Err("missing \"schema\"".to_owned());
        }
        if report.schema != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "schema version {} unsupported (this build reads {})",
                report.schema, BENCH_SCHEMA_VERSION
            ));
        }
        Ok(report)
    }

    /// Compare this (current) run against a `baseline`. A metric
    /// regresses when it moved more than `threshold_pct` percent in
    /// its bad direction over the baseline; it must exist in both
    /// reports to be compared, and at least one metric must be
    /// comparable. Direction metadata comes from the current report,
    /// falling back to the baseline's.
    pub fn diff(
        &self,
        baseline: &BenchReport,
        threshold_pct: f64,
    ) -> Result<RegressReport, String> {
        let mut findings = Vec::new();
        let mut missing_in_current = Vec::new();
        for (name, &base) in &baseline.values {
            match self.get(name) {
                None => missing_in_current.push(name.clone()),
                Some(cur) => {
                    let delta_pct = if base == 0.0 {
                        if cur == 0.0 {
                            0.0
                        } else {
                            f64::INFINITY
                        }
                    } else {
                        100.0 * (cur - base) / base
                    };
                    let direction = if self.directions.contains_key(name) {
                        self.direction(name)
                    } else {
                        baseline.direction(name)
                    };
                    let regressed = match direction {
                        Direction::LowerIsBetter => delta_pct > threshold_pct,
                        Direction::HigherIsBetter => delta_pct < -threshold_pct,
                    };
                    findings.push(RegressFinding {
                        name: name.clone(),
                        baseline: base,
                        current: cur,
                        delta_pct,
                        direction,
                        regressed,
                    });
                }
            }
        }
        if findings.is_empty() {
            return Err("no metric exists in both reports".to_owned());
        }
        let new_in_current = self
            .values
            .keys()
            .filter(|k| !baseline.values.contains_key(*k))
            .cloned()
            .collect();
        Ok(RegressReport {
            findings,
            missing_in_current,
            new_in_current,
            threshold_pct,
        })
    }
}

/// One compared metric of a [`RegressReport`].
#[derive(Debug, Clone)]
pub struct RegressFinding {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Percentage change versus the baseline (positive = grew).
    pub delta_pct: f64,
    /// Which way this metric is supposed to move.
    pub direction: Direction,
    /// Whether the change exceeds the threshold in the bad direction.
    pub regressed: bool,
}

/// The result of diffing a current [`BenchReport`] against a baseline.
#[derive(Debug, Clone)]
pub struct RegressReport {
    /// All metrics present in both reports, baseline order.
    pub findings: Vec<RegressFinding>,
    /// Baseline metrics the current run did not produce (quick suite
    /// versus full baseline) — informational, not failures.
    pub missing_in_current: Vec<String>,
    /// Current metrics with no baseline yet — informational.
    pub new_in_current: Vec<String>,
    /// The threshold the diff was taken at, in percent.
    pub threshold_pct: f64,
}

impl RegressReport {
    /// Whether any metric regressed beyond the threshold.
    pub fn has_regressions(&self) -> bool {
        self.findings.iter().any(|f| f.regressed)
    }

    /// Number of regressed metrics.
    pub fn regression_count(&self) -> usize {
        self.findings.iter().filter(|f| f.regressed).count()
    }

    /// A fixed-width text table of the comparison. Higher-is-better
    /// metrics are marked with `^` after the name.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<34} {:>12} {:>12} {:>9}  verdict (threshold {:.1}%)\n",
            "metric", "baseline", "current", "delta", self.threshold_pct
        );
        for f in &self.findings {
            let marker = match f.direction {
                Direction::LowerIsBetter => "",
                Direction::HigherIsBetter => " ^",
            };
            out.push_str(&format!(
                "{:<34} {:>12.3} {:>12.3} {:>+8.2}%  {}{}\n",
                f.name,
                f.baseline,
                f.current,
                f.delta_pct,
                if f.regressed { "REGRESSED" } else { "ok" },
                marker,
            ));
        }
        for name in &self.missing_in_current {
            out.push_str(&format!("{name:<34} (baseline only — skipped)\n"));
        }
        for name in &self.new_in_current {
            out.push_str(&format!("{name:<34} (new — no baseline)\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("test");
        r.set("one_way_1hop_ns", 162.0);
        r.set("allreduce_512_us", 1.77);
        r
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let json = r.to_json();
        validate_json(&json).expect("well-formed");
        let back = BenchReport::parse(&json).expect("parses");
        assert_eq!(back, r);
    }

    #[test]
    fn directions_round_trip_and_default_is_omitted() {
        let mut r = sample();
        r.set_directed("lookahead_efficiency", 182.45, Direction::HigherIsBetter);
        r.set_direction("one_way_1hop_ns", Direction::LowerIsBetter);
        let json = r.to_json();
        // Only the non-default direction serializes.
        assert!(
            json.contains("\"lookahead_efficiency\": \"higher\""),
            "{json}"
        );
        assert!(!json.contains("\"one_way_1hop_ns\": \"lower\""), "{json}");
        let back = BenchReport::parse(&json).expect("parses");
        assert_eq!(back, r);
        assert_eq!(
            back.direction("lookahead_efficiency"),
            Direction::HigherIsBetter
        );
        assert_eq!(back.direction("one_way_1hop_ns"), Direction::LowerIsBetter);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        for version in [1, 99] {
            let json = sample()
                .to_json()
                .replace("\"schema\": 2", &format!("\"schema\": {version}"));
            let err = BenchReport::parse(&json).unwrap_err();
            assert!(err.contains(&format!("schema version {version}")), "{err}");
        }
    }

    #[test]
    fn non_finite_values_are_rejected_at_parse() {
        // 1e999 overflows f64 to infinity while staying valid JSON.
        let json =
            "{\n  \"schema\": 2,\n  \"label\": \"x\",\n  \"values\": {\n    \"m\": 1e999\n  }\n}\n";
        let err = BenchReport::parse(json).unwrap_err();
        assert!(err.contains("not finite"), "{err}");
        // A bare NaN is not even valid JSON.
        let json = "{\"schema\": 2, \"label\": \"x\", \"values\": {\"m\": NaN}}";
        assert!(BenchReport::parse(json).is_err());
    }

    #[test]
    fn diff_flags_only_threshold_crossings() {
        let base = sample();
        let mut cur = sample();
        cur.set("one_way_1hop_ns", 190.0); // +17.3%
        cur.set("allreduce_512_us", 1.80); // +1.7%
        let d = cur.diff(&base, 10.0).expect("comparable");
        assert!(d.has_regressions());
        assert_eq!(d.regression_count(), 1);
        let reg = d.findings.iter().find(|f| f.regressed).unwrap();
        assert_eq!(reg.name, "one_way_1hop_ns");
        assert!(d.table().contains("REGRESSED"));
        // Improvements never fail.
        let mut fast = sample();
        fast.set("one_way_1hop_ns", 100.0);
        assert!(!fast.diff(&base, 10.0).unwrap().has_regressions());
    }

    #[test]
    fn higher_is_better_inverts_the_gate() {
        let mut base = BenchReport::new("base");
        base.set_directed("lookahead_efficiency", 180.0, Direction::HigherIsBetter);
        // A 20% efficiency jump is an improvement, not a regression.
        let mut up = BenchReport::new("cur");
        up.set_directed("lookahead_efficiency", 216.0, Direction::HigherIsBetter);
        assert!(!up.diff(&base, 10.0).unwrap().has_regressions());
        // A 20% drop is a regression.
        let mut down = BenchReport::new("cur");
        down.set_directed("lookahead_efficiency", 144.0, Direction::HigherIsBetter);
        let d = down.diff(&base, 10.0).unwrap();
        assert!(d.has_regressions());
        assert!(d.table().contains("REGRESSED ^"), "{}", d.table());
        // Direction metadata on the baseline alone (candidate untagged)
        // still applies — an untagged candidate can't flip it.
        let mut plain = BenchReport::new("cur");
        plain.set("lookahead_efficiency", 216.0);
        assert!(!plain.diff(&base, 10.0).unwrap().has_regressions());
    }

    #[test]
    fn threshold_exactly_at_boundary_is_not_a_regression() {
        let mut base = BenchReport::new("base");
        base.set("lat_ns", 100.0);
        base.set_directed("eff", 100.0, Direction::HigherIsBetter);
        let mut cur = BenchReport::new("cur");
        cur.set("lat_ns", 110.0); // exactly +10%
        cur.set_directed("eff", 90.0, Direction::HigherIsBetter); // exactly -10%
        let d = cur.diff(&base, 10.0).expect("comparable");
        assert!(!d.has_regressions(), "{}", d.table());
        // One ulp past the boundary trips it.
        cur.set("lat_ns", 110.1);
        assert!(cur.diff(&base, 10.0).unwrap().has_regressions());
    }

    #[test]
    fn candidate_only_metrics_are_informational() {
        let base = sample();
        let mut cur = sample();
        cur.set("brand_new_metric_ns", 5.0);
        let d = cur.diff(&base, 10.0).expect("comparable");
        assert!(!d.has_regressions());
        assert_eq!(d.new_in_current, vec!["brand_new_metric_ns".to_owned()]);
        assert!(d.table().contains("new — no baseline"));
    }

    #[test]
    fn baseline_only_keys_are_skipped_not_failed() {
        let mut base = sample();
        base.set("dhfr_step_us", 21.0); // full-suite metric
        let cur = sample(); // quick suite: no DHFR key
        let d = cur.diff(&base, 10.0).expect("comparable");
        assert!(!d.has_regressions());
        assert_eq!(d.missing_in_current, vec!["dhfr_step_us".to_owned()]);
        assert!(d.table().contains("baseline only"));
    }

    #[test]
    fn disjoint_reports_are_an_error() {
        let mut other = BenchReport::new("other");
        other.set("unrelated", 1.0);
        assert!(sample().diff(&other, 10.0).is_err());
    }
}
