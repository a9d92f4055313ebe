//! The continuous-benchmarking observatory data model: a
//! schema-versioned report that carries the canonical
//! [`BenchReport`] metrics *plus* the attribution components the
//! regression pipeline needs to explain a breach — critical-path blame
//! shares, speedup-attribution shares, per-link congestion top-K, and
//! recovery stats — together with component-level diffing.
//!
//! The `BENCH_pr*.json` drift check says *that* a metric moved; the
//! structures here say *why*. [`ObservatoryReport::diff`] compares a
//! candidate against a baseline and renders a
//! [triage](ObservatoryDiff::triage) that reads "wire share rose
//! 3.2 pt; critical path moved from delivery to wire; hot link busy
//! +7%" instead of a bare threshold breach. Every gated value is an
//! event-level (bit-deterministic) measurement, so a finding is always
//! a model change, never host noise; wall-clock-derived sections (the
//! parallel speedup attribution) are carried for context but never
//! gate.

use crate::json::{escape, validate_json, Lex};
use crate::metrics::fmt_f64;
use crate::regress::{BenchReport, RegressReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version of the observatory-report JSON schema.
pub const OBSERVATORY_SCHEMA_VERSION: u32 = 1;

/// Critical-path blame shares per [`EdgeKind`](crate::EdgeKind) label,
/// in percent — gated, deterministic.
pub const SEC_BLAME: &str = "blame_pct";
/// Parallel speedup-attribution shares in percent of the gap —
/// wall-clock-derived, informational only (never gated).
pub const SEC_ATTRIBUTION: &str = "attribution_pct";
/// Per-link congestion top-K (busy ns per hot link, queue totals) —
/// gated, deterministic.
pub const SEC_CONGESTION: &str = "congestion";
/// Fault-recovery stats from the chaos smoke — gated, deterministic.
pub const SEC_RECOVERY: &str = "recovery";

/// How a section's component values diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// Values are percentages of a whole (they sum to ~100); diffs are
    /// reported in *points* and only rises regress — a cost share
    /// growing means that component got relatively more expensive.
    Shares,
    /// Values are plain lower-is-better magnitudes (busy ns, losses);
    /// diffs are in percent like metric diffs.
    Values,
}

impl SectionKind {
    /// Stable serialization tag.
    pub fn as_str(self) -> &'static str {
        match self {
            SectionKind::Shares => "shares",
            SectionKind::Values => "values",
        }
    }

    /// Inverse of [`SectionKind::as_str`].
    pub fn parse_str(s: &str) -> Result<SectionKind, String> {
        match s {
            "shares" => Ok(SectionKind::Shares),
            "values" => Ok(SectionKind::Values),
            other => Err(format!("unknown section kind {other:?}")),
        }
    }
}

/// One attribution section of an [`ObservatoryReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Whether component regressions in this section fail a check.
    /// Only deterministic (event-level) sections should gate.
    pub gated: bool,
    /// How the component values diff.
    pub kind: SectionKind,
    /// Component name → value, sorted by name.
    pub values: BTreeMap<String, f64>,
}

impl Section {
    /// A gated [`SectionKind::Shares`] section from a share map.
    pub fn shares(values: BTreeMap<String, f64>) -> Section {
        Section {
            gated: true,
            kind: SectionKind::Shares,
            values,
        }
    }

    /// A gated [`SectionKind::Values`] section from a value map.
    pub fn values(values: BTreeMap<String, f64>) -> Section {
        Section {
            gated: true,
            kind: SectionKind::Values,
            values,
        }
    }

    /// Mark the section informational (diffed and rendered, never
    /// failing a check) — for wall-clock-derived components.
    pub fn informational(mut self) -> Section {
        self.gated = false;
        self
    }

    /// The component holding the largest value (the critical-path
    /// leader for a blame section). Ties resolve to the
    /// lexicographically first name.
    pub fn leader(&self) -> Option<&str> {
        let mut best: Option<(&str, f64)> = None;
        for (name, &v) in &self.values {
            match best {
                Some((_, bv)) if bv >= v => {}
                _ => best = Some((name, v)),
            }
        }
        best.map(|(n, _)| n)
    }
}

/// One observatory run: the canonical metrics plus the attribution
/// sections the triage pipeline diffs component by component.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservatoryReport {
    /// Schema version ([`OBSERVATORY_SCHEMA_VERSION`] when written by
    /// this crate).
    pub schema: u32,
    /// Free-form label of the run.
    pub label: String,
    /// The flat metric report (itself schema-versioned and
    /// direction-aware).
    pub metrics: BenchReport,
    /// Attribution sections by name ([`SEC_BLAME`] etc.), sorted.
    pub sections: BTreeMap<String, Section>,
}

impl ObservatoryReport {
    /// An empty report with the current schema version.
    pub fn new(label: &str) -> ObservatoryReport {
        ObservatoryReport {
            schema: OBSERVATORY_SCHEMA_VERSION,
            label: label.to_owned(),
            metrics: BenchReport::new(label),
            sections: BTreeMap::new(),
        }
    }

    /// Wrap a bare metric report (a committed `BENCH_pr*.json`
    /// baseline) as an observatory report with no sections, so it can
    /// serve as the baseline side of a [diff](ObservatoryReport::diff).
    pub fn from_metrics(metrics: BenchReport) -> ObservatoryReport {
        ObservatoryReport {
            schema: OBSERVATORY_SCHEMA_VERSION,
            label: metrics.label.clone(),
            metrics,
            sections: BTreeMap::new(),
        }
    }

    /// Insert or replace one section.
    pub fn set_section(&mut self, name: &str, section: Section) {
        self.sections.insert(name.to_owned(), section);
    }

    /// Look up one section.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.get(name)
    }

    /// Serialize to the stable JSON document (validated before being
    /// returned).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": {},", self.schema);
        let _ = writeln!(out, "  \"label\": {},", escape(&self.label));
        out.push_str("  \"metrics\": ");
        self.metrics.write_json_into(&mut out, 2);
        out.push_str(",\n  \"sections\": {");
        let mut first = true;
        for (name, sec) in &self.sections {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    {}: {{\n", escape(name));
            let _ = writeln!(out, "      \"gated\": {},", sec.gated);
            let _ = writeln!(out, "      \"kind\": {},", escape(sec.kind.as_str()));
            out.push_str("      \"values\": {");
            let mut vfirst = true;
            for (k, v) in &sec.values {
                if !vfirst {
                    out.push(',');
                }
                vfirst = false;
                let _ = write!(out, "\n        {}: {}", escape(k), fmt_f64(*v));
            }
            out.push_str("\n      }\n    }");
        }
        out.push_str("\n  }\n}\n");
        validate_json(&out).expect("observatory JSON is well-formed by construction");
        out
    }

    /// Parse a report written by [`ObservatoryReport::to_json`].
    pub fn parse(s: &str) -> Result<ObservatoryReport, String> {
        validate_json(s).map_err(|e| format!("not valid JSON: {e:?}"))?;
        let mut p = Lex::new(s);
        ObservatoryReport::parse_object(&mut p)
    }

    /// Parse the report object at the cursor — the embeddable form the
    /// scenario run ledger uses to nest a full observatory report
    /// inside its own document. The caller validates the enclosing
    /// JSON first.
    pub fn parse_object(p: &mut Lex<'_>) -> Result<ObservatoryReport, String> {
        let mut report = ObservatoryReport::new("");
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
                "metrics" => report.metrics = BenchReport::parse_object(p)?,
                "sections" => {
                    p.expect(b'{')?;
                    if p.peek() == Some(b'}') {
                        p.expect(b'}')?;
                    } else {
                        loop {
                            let name = p.string()?;
                            p.expect(b':')?;
                            report.sections.insert(name, parse_section(p)?);
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
        if report.schema != OBSERVATORY_SCHEMA_VERSION {
            return Err(format!(
                "observatory schema version {} unsupported (this build reads {})",
                report.schema, OBSERVATORY_SCHEMA_VERSION
            ));
        }
        Ok(report)
    }

    /// Component-level diff of this (candidate) run against a
    /// `baseline`. Metric comparison is direction-aware; each section
    /// present in both reports is diffed per component; sections on
    /// one side only are carried as informational lists.
    pub fn diff(
        &self,
        baseline: &ObservatoryReport,
        config: DiffConfig,
    ) -> Result<ObservatoryDiff, String> {
        let metrics = self
            .metrics
            .diff(&baseline.metrics, config.metric_threshold_pct)?;
        let mut sections = Vec::new();
        let mut missing_sections = Vec::new();
        for (name, base) in &baseline.sections {
            match self.sections.get(name) {
                None => missing_sections.push(name.clone()),
                Some(cur) => sections.push(diff_section(name, base, cur, &config)),
            }
        }
        let new_sections = self
            .sections
            .keys()
            .filter(|k| !baseline.sections.contains_key(*k))
            .cloned()
            .collect();
        Ok(ObservatoryDiff {
            baseline_label: baseline.label.clone(),
            metrics,
            sections,
            missing_sections,
            new_sections,
            config,
        })
    }
}

fn parse_section(p: &mut Lex<'_>) -> Result<Section, String> {
    let mut gated = true;
    let mut kind = SectionKind::Values;
    let mut values = BTreeMap::new();
    p.expect(b'{')?;
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        match key.as_str() {
            "gated" => gated = p.boolean()?,
            "kind" => kind = SectionKind::parse_str(&p.string()?)?,
            "values" => {
                p.expect(b'{')?;
                if p.peek() == Some(b'}') {
                    p.expect(b'}')?;
                } else {
                    loop {
                        let name = p.string()?;
                        p.expect(b':')?;
                        let v = p.number()?;
                        if !v.is_finite() {
                            return Err(format!("component {name:?} is not finite"));
                        }
                        values.insert(name, v);
                        if !p.comma_or(b'}')? {
                            break;
                        }
                    }
                }
            }
            other => return Err(format!("unexpected section key {other:?}")),
        }
        if !p.comma_or(b'}')? {
            break;
        }
    }
    Ok(Section {
        gated,
        kind,
        values,
    })
}

/// Thresholds for [`ObservatoryReport::diff`].
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Metric regression threshold, percent (the classic gate).
    pub metric_threshold_pct: f64,
    /// Share-section component threshold, in share *points*.
    pub share_threshold_pt: f64,
    /// Value-section component threshold, percent.
    pub value_threshold_pct: f64,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            metric_threshold_pct: 10.0,
            share_threshold_pt: 2.0,
            value_threshold_pct: 10.0,
        }
    }
}

/// One diffed component of a [`SectionDiff`].
#[derive(Debug, Clone)]
pub struct ComponentDelta {
    /// Component name.
    pub name: String,
    /// Baseline value (0 for a share absent from the baseline).
    pub baseline: f64,
    /// Current value (0 for a share absent from the candidate).
    pub current: f64,
    /// Share sections: `current − baseline` in points. Value
    /// sections: percent change versus the baseline.
    pub delta: f64,
    /// Whether the delta crosses the section threshold in the bad
    /// direction.
    pub regressed: bool,
}

/// The per-component diff of one section.
#[derive(Debug, Clone)]
pub struct SectionDiff {
    /// Section name.
    pub name: String,
    /// Whether regressions here fail the check.
    pub gated: bool,
    /// How deltas were computed.
    pub kind: SectionKind,
    /// Component deltas, sorted by component name.
    pub components: Vec<ComponentDelta>,
    /// `(baseline_leader, current_leader)` when the largest component
    /// changed — for a blame section, the critical path moved.
    pub leader_shift: Option<(String, String)>,
    /// Value-section components with no candidate measurement.
    pub only_in_baseline: Vec<String>,
    /// Value-section components with no baseline yet.
    pub only_in_current: Vec<String>,
}

impl SectionDiff {
    /// Components that crossed the threshold, worst first.
    pub fn regressions(&self) -> Vec<&ComponentDelta> {
        let mut out: Vec<&ComponentDelta> =
            self.components.iter().filter(|c| c.regressed).collect();
        out.sort_by(|a, b| {
            b.delta
                .partial_cmp(&a.delta)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }
}

fn diff_section(name: &str, base: &Section, cur: &Section, config: &DiffConfig) -> SectionDiff {
    let mut components = Vec::new();
    let mut only_in_baseline = Vec::new();
    let mut only_in_current = Vec::new();
    match cur.kind {
        SectionKind::Shares => {
            // Shares fold missing components as 0 so a vanished or
            // newborn share still shows as a full-size point delta.
            let mut names: Vec<&String> = base.values.keys().chain(cur.values.keys()).collect();
            names.sort();
            names.dedup();
            for n in names {
                let b = base.values.get(n).copied().unwrap_or(0.0);
                let c = cur.values.get(n).copied().unwrap_or(0.0);
                let delta = c - b;
                components.push(ComponentDelta {
                    name: n.clone(),
                    baseline: b,
                    current: c,
                    delta,
                    regressed: delta > config.share_threshold_pt,
                });
            }
        }
        SectionKind::Values => {
            for (n, &b) in &base.values {
                match cur.values.get(n) {
                    None => only_in_baseline.push(n.clone()),
                    Some(&c) => {
                        let delta = if b == 0.0 {
                            if c == 0.0 {
                                0.0
                            } else {
                                f64::INFINITY
                            }
                        } else {
                            100.0 * (c - b) / b
                        };
                        components.push(ComponentDelta {
                            name: n.clone(),
                            baseline: b,
                            current: c,
                            delta,
                            regressed: delta > config.value_threshold_pct,
                        });
                    }
                }
            }
            only_in_current = cur
                .values
                .keys()
                .filter(|k| !base.values.contains_key(*k))
                .cloned()
                .collect();
        }
    }
    let leader_shift = match (base.leader(), cur.leader()) {
        (Some(b), Some(c)) if b != c => Some((b.to_owned(), c.to_owned())),
        _ => None,
    };
    SectionDiff {
        name: name.to_owned(),
        gated: cur.gated && base.gated,
        kind: cur.kind,
        components,
        leader_shift,
        only_in_baseline,
        only_in_current,
    }
}

/// The component-level comparison of two [`ObservatoryReport`]s.
#[derive(Debug, Clone)]
pub struct ObservatoryDiff {
    /// Label of the baseline report.
    pub baseline_label: String,
    /// The direction-aware metric comparison.
    pub metrics: RegressReport,
    /// Per-section component diffs (sections present in both reports).
    pub sections: Vec<SectionDiff>,
    /// Baseline sections the candidate did not produce.
    pub missing_sections: Vec<String>,
    /// Candidate sections with no baseline counterpart.
    pub new_sections: Vec<String>,
    /// The thresholds the diff was taken at.
    pub config: DiffConfig,
}

impl ObservatoryDiff {
    /// Whether any metric or any gated section component regressed.
    pub fn has_regressions(&self) -> bool {
        self.metrics.has_regressions()
            || self
                .sections
                .iter()
                .any(|s| s.gated && s.components.iter().any(|c| c.regressed))
    }

    /// Total number of regressed metrics plus regressed gated
    /// components.
    pub fn regression_count(&self) -> usize {
        self.metrics.regression_count()
            + self
                .sections
                .iter()
                .filter(|s| s.gated)
                .map(|s| s.components.iter().filter(|c| c.regressed).count())
                .sum::<usize>()
    }

    /// The attribution-aware triage narrative: every regressed metric
    /// with its direction-aware delta, every regressed component with
    /// its share/percent movement, and every critical-path leader
    /// shift — the "why", not just the "that".
    pub fn triage(&self) -> String {
        let mut out = format!(
            "observatory triage vs '{}' (metrics ±{:.1}%, shares ±{:.1} pt, components ±{:.1}%)\n",
            self.baseline_label,
            self.config.metric_threshold_pct,
            self.config.share_threshold_pt,
            self.config.value_threshold_pct,
        );
        for f in self.metrics.findings.iter().filter(|f| f.regressed) {
            let _ = writeln!(
                out,
                "  metric {} regressed {:+.2}% ({} -> {})",
                f.name,
                f.delta_pct,
                fmt_f64(f.baseline),
                fmt_f64(f.current),
            );
        }
        for sec in &self.sections {
            for c in sec.regressions() {
                match sec.kind {
                    SectionKind::Shares => {
                        let _ = writeln!(
                            out,
                            "  {} {}: {} share rose {:+.1} pt ({:.1}% -> {:.1}%)",
                            if sec.gated { "component" } else { "info" },
                            sec.name,
                            c.name,
                            c.delta,
                            c.baseline,
                            c.current,
                        );
                    }
                    SectionKind::Values => {
                        let _ = writeln!(
                            out,
                            "  {} {}: {} regressed {:+.2}% ({} -> {})",
                            if sec.gated { "component" } else { "info" },
                            sec.name,
                            c.name,
                            c.delta,
                            fmt_f64(c.baseline),
                            fmt_f64(c.current),
                        );
                    }
                }
            }
            if let Some((from, to)) = &sec.leader_shift {
                let what = if sec.name == SEC_BLAME {
                    "critical path moved".to_owned()
                } else {
                    format!("{} leader moved", sec.name)
                };
                let _ = writeln!(out, "  {}: {what} from {from} to {to}", sec.name);
            }
        }
        let gated = self.regression_count();
        if gated == 0 {
            out.push_str("  no regressions past thresholds\n");
        } else {
            let _ = writeln!(out, "  {gated} gated regression(s)");
        }
        out
    }

    /// The full fixed-width comparison: the metric table followed by a
    /// component table per section.
    pub fn table(&self) -> String {
        let mut out = self.metrics.table();
        for sec in &self.sections {
            let unit = match sec.kind {
                SectionKind::Shares => "pt",
                SectionKind::Values => "%",
            };
            let _ = writeln!(
                out,
                "\nsection {} ({}, {})",
                sec.name,
                sec.kind.as_str(),
                if sec.gated { "gated" } else { "informational" }
            );
            for c in &sec.components {
                let _ = writeln!(
                    out,
                    "{:<34} {:>12.3} {:>12.3} {:>+8.2}{unit}  {}",
                    c.name,
                    c.baseline,
                    c.current,
                    c.delta,
                    if c.regressed { "REGRESSED" } else { "ok" }
                );
            }
            for n in &sec.only_in_baseline {
                let _ = writeln!(out, "{n:<34} (baseline only — skipped)");
            }
            for n in &sec.only_in_current {
                let _ = writeln!(out, "{n:<34} (new — no baseline)");
            }
            if let Some((from, to)) = &sec.leader_shift {
                let _ = writeln!(out, "leader: {from} -> {to}");
            }
        }
        for n in &self.missing_sections {
            let _ = writeln!(out, "section {n} (baseline only — skipped)");
        }
        for n in &self.new_sections {
            let _ = writeln!(out, "section {n} (new — no baseline)");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regress::Direction;

    fn shares(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn sample() -> ObservatoryReport {
        let mut r = ObservatoryReport::new("obs test");
        r.metrics.set("one_way_1hop_ns", 162.0);
        r.metrics
            .set_directed("lookahead_efficiency", 182.45, Direction::HigherIsBetter);
        r.set_section(
            SEC_BLAME,
            Section::shares(shares(&[
                ("wire", 48.0),
                ("delivery", 40.0),
                ("port-wait", 12.0),
            ])),
        );
        r.set_section(
            SEC_CONGESTION,
            Section::values(shares(&[
                ("hot0_busy_ns", 1000.0),
                ("total_queue_ns", 400.0),
            ])),
        );
        r.set_section(
            SEC_ATTRIBUTION,
            Section::shares(shares(&[("barrier", 60.0), ("merge", 40.0)])).informational(),
        );
        r
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let json = r.to_json();
        validate_json(&json).expect("well-formed");
        let back = ObservatoryReport::parse(&json).expect("parses");
        assert_eq!(back, r);
        // The embedded metric report kept its direction metadata.
        assert_eq!(
            back.metrics.direction("lookahead_efficiency"),
            Direction::HigherIsBetter
        );
    }

    #[test]
    fn identical_reports_diff_clean() {
        let r = sample();
        let d = r.diff(&r, DiffConfig::default()).expect("comparable");
        assert!(!d.has_regressions(), "{}", d.table());
        assert!(d.triage().contains("no regressions"));
    }

    #[test]
    fn component_shift_names_the_component_and_the_leader_move() {
        let base = sample();
        let mut cur = sample();
        // The critical path moved: delivery share overtakes wire.
        cur.set_section(
            SEC_BLAME,
            Section::shares(shares(&[
                ("wire", 30.0),
                ("delivery", 58.0),
                ("port-wait", 12.0),
            ])),
        );
        let d = cur.diff(&base, DiffConfig::default()).expect("comparable");
        assert!(d.has_regressions());
        let triage = d.triage();
        assert!(triage.contains("delivery share rose +18.0 pt"), "{triage}");
        assert!(
            triage.contains("critical path moved from wire to delivery"),
            "{triage}"
        );
        // The falling wire share is not a regression.
        let blame = d.sections.iter().find(|s| s.name == SEC_BLAME).unwrap();
        let wire = blame.components.iter().find(|c| c.name == "wire").unwrap();
        assert!(!wire.regressed);
    }

    #[test]
    fn informational_sections_never_gate() {
        let base = sample();
        let mut cur = sample();
        cur.set_section(
            SEC_ATTRIBUTION,
            Section::shares(shares(&[("barrier", 95.0), ("merge", 5.0)])).informational(),
        );
        let d = cur.diff(&base, DiffConfig::default()).expect("comparable");
        assert!(!d.has_regressions(), "{}", d.table());
        // It still shows up in the triage as info.
        assert!(
            d.triage().contains("info attribution_pct"),
            "{}",
            d.triage()
        );
    }

    #[test]
    fn value_sections_diff_in_percent() {
        let base = sample();
        let mut cur = sample();
        cur.set_section(
            SEC_CONGESTION,
            Section::values(shares(&[
                ("hot0_busy_ns", 1200.0),
                ("total_queue_ns", 400.0),
            ])),
        );
        let d = cur.diff(&base, DiffConfig::default()).expect("comparable");
        assert!(d.has_regressions());
        assert!(
            d.triage().contains("hot0_busy_ns regressed +20.00%"),
            "{}",
            d.triage()
        );
    }

    #[test]
    fn bare_metric_baselines_diff_without_sections() {
        let mut metrics = BenchReport::new("pr3");
        metrics.set("one_way_1hop_ns", 162.0);
        let base = ObservatoryReport::from_metrics(metrics);
        let cur = sample();
        let d = cur.diff(&base, DiffConfig::default()).expect("comparable");
        assert!(!d.has_regressions());
        assert_eq!(d.new_sections.len(), 3);
    }
}
