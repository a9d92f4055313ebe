//! Observing the parallel runtime itself: speedup attribution, summary
//! metrics, and Chrome-trace export for [`ParProfile`]s.
//!
//! PR 3's causal observatory holds the *simulated machine* to an exact
//! accounting standard: every picosecond of the critical path is blamed
//! on a named stage and the blames telescope to the makespan. This
//! module applies the same standard to the *parallel runtime that runs
//! the simulation*. [`SpeedupAttribution`] decomposes the gap between an
//! N-thread wall-clock and the ideal `seq/N` into five named components
//! — outbox merge, barrier crossing, shard imbalance, windowing
//! overhead, and excess execution time — that sum to the gap *by
//! construction* (each component is a measured phase average or an exact
//! residual), so the telescoping check in the test suite only tolerates
//! float rounding.
//!
//! [`RuntimeSummary`] is the deterministic face of the same profile:
//! window counts, events/window, lookahead efficiency, shard imbalance,
//! and cross-shard traffic are pure functions of the workload and shard
//! plan — bit-identical at any thread count — and therefore safe to
//! commit to a [`BenchReport`] baseline and gate for drift in CI.
//!
//! [`profile_chrome_trace`] renders worker lanes (one slice per window
//! execute-phase sample, wall-clock µs) plus per-worker phase-total bars
//! and events/window counter tracks, loadable in Perfetto next to the
//! simulated-fabric trace.

use crate::chrome_trace::ChromeTraceBuilder;
use crate::regress::BenchReport;
use anton_des::{ParProfile, SimTime, WorkerProfile};
use std::fmt::Write as _;

/// Exact decomposition of the parallel-speedup gap.
///
/// With `N` workers, ideal wall-clock is `seq/N`. The measured gap
/// `par_wall − seq/N` telescopes into:
///
/// - **merge** — mean wall time draining cross-shard outboxes,
/// - **barrier** — mean wait at the publish barrier (crossing cost plus
///   skew from uneven import work),
/// - **imbalance** — mean wait at the post-execute barrier (a worker
///   finished its window slice while others were still executing: the
///   direct cost of shard load imbalance),
/// - **windowing** — per-worker loop residue (window-decision
///   computation and loop bookkeeping) plus the dispatch
///   residual outside the worker loops (thread spawn/join),
/// - **exec excess** — mean per-worker busy time minus `seq/N`; positive
///   when parallel execution does more or slower work than an N-way
///   split of the sequential run would (cache effects, queue overheads),
///   negative when it does less.
///
/// Because windowing and exec-excess are defined as residuals against
/// the same measured quantities, the five components sum to the gap
/// *exactly* (modulo float rounding) — asserted by
/// [`telescoping_error_ns`](SpeedupAttribution::telescoping_error_ns)
/// checks in the test suite, mirroring the Figure 6 stage-sum invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupAttribution {
    /// Workers in the parallel run.
    pub threads: usize,
    /// Sequential (1-thread) reference wall time, ns.
    pub seq_wall_ns: f64,
    /// Parallel wall time, ns.
    pub par_wall_ns: f64,
    /// Ideal wall time `seq/N`, ns.
    pub ideal_ns: f64,
    /// `par_wall − ideal`: the time to attribute, ns (can be negative
    /// when the parallel run beats the ideal, e.g. cache effects).
    pub gap_ns: f64,
    /// Mean outbox-merge time per worker, ns.
    pub merge_ns: f64,
    /// Mean publish-barrier wait per worker, ns.
    pub barrier_ns: f64,
    /// Mean post-execute barrier wait per worker, ns.
    pub imbalance_ns: f64,
    /// Windowing overhead: mean loop residue + spawn/join residual, ns.
    pub windowing_ns: f64,
    /// Mean busy time minus `seq/N`, ns.
    pub exec_excess_ns: f64,
}

impl SpeedupAttribution {
    /// Attribute `prof`'s wall clock against a sequential reference run
    /// of `seq_wall_ns` nanoseconds. `prof` must come from a profiled
    /// run (its `workers` must be non-empty).
    pub fn from_profile(seq_wall_ns: u64, prof: &ParProfile) -> SpeedupAttribution {
        assert!(
            !prof.workers.is_empty(),
            "speedup attribution requires a profiled run with worker accounting"
        );
        let n = prof.workers.len() as f64;
        let avg = |f: fn(&WorkerProfile) -> u64| -> f64 {
            prof.workers.iter().map(|w| f(w) as f64).sum::<f64>() / n
        };
        let seq = seq_wall_ns as f64;
        let par = prof.wall_ns as f64;
        let ideal = seq / n;
        let avg_loop = avg(|w| w.loop_ns);
        let avg_busy = avg(|w| w.busy_ns);
        SpeedupAttribution {
            threads: prof.workers.len(),
            seq_wall_ns: seq,
            par_wall_ns: par,
            ideal_ns: ideal,
            gap_ns: par - ideal,
            merge_ns: avg(|w| w.merge_ns),
            barrier_ns: avg(|w| w.barrier_publish_ns),
            imbalance_ns: avg(|w| w.barrier_window_ns),
            // Loop residue (decision compute and bookkeeping)
            // plus the dispatch residual outside the loops (spawn/join).
            windowing_ns: avg(|w| w.windowing_ns()) + (par - avg_loop),
            exec_excess_ns: avg_busy - ideal,
        }
    }

    /// Sum of the five attribution components. Equals
    /// [`gap_ns`](SpeedupAttribution::gap_ns) by construction.
    pub fn components_sum_ns(&self) -> f64 {
        self.merge_ns
            + self.barrier_ns
            + self.imbalance_ns
            + self.windowing_ns
            + self.exec_excess_ns
    }

    /// Absolute telescoping error `|components − gap|`, ns. Pure float
    /// rounding; the exactness invariant says this stays negligible
    /// against the measured wall clock.
    pub fn telescoping_error_ns(&self) -> f64 {
        (self.components_sum_ns() - self.gap_ns).abs()
    }

    /// Measured speedup `seq/par`.
    pub fn speedup(&self) -> f64 {
        self.seq_wall_ns / self.par_wall_ns.max(1.0)
    }

    /// Parallel efficiency `speedup/N` (1.0 = ideal).
    pub fn efficiency(&self) -> f64 {
        self.speedup() / self.threads as f64
    }

    /// Human-readable attribution table (ns and share of the gap).
    pub fn table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "speedup attribution: {} workers, seq {:.3} ms, par {:.3} ms \
             (speedup {:.2}x, efficiency {:.0}%)",
            self.threads,
            self.seq_wall_ns / 1e6,
            self.par_wall_ns / 1e6,
            self.speedup(),
            100.0 * self.efficiency(),
        );
        let _ = writeln!(
            s,
            "  ideal seq/N {:>12.0} ns   gap {:>12.0} ns",
            self.ideal_ns, self.gap_ns
        );
        let denom = if self.gap_ns.abs() > 1.0 {
            self.gap_ns
        } else {
            1.0
        };
        for (name, v) in [
            ("merge (outbox import)", self.merge_ns),
            ("barrier (publish)", self.barrier_ns),
            ("imbalance (post-exec wait)", self.imbalance_ns),
            ("windowing (decide+dispatch)", self.windowing_ns),
            ("exec excess (busy - seq/N)", self.exec_excess_ns),
        ] {
            let _ = writeln!(s, "  {name:<28} {v:>12.0} ns  {:>6.1}%", 100.0 * v / denom);
        }
        let _ = writeln!(
            s,
            "  {:<28} {:>12.0} ns  (error {:.1} ns)",
            "sum",
            self.components_sum_ns(),
            self.telescoping_error_ns(),
        );
        s
    }
}

/// The deterministic summary of a [`ParProfile`]: every field is a pure
/// function of the simulated workload and the shard plan (bit-identical
/// at any thread count), so the whole struct is safe to commit to a
/// [`BenchReport`] baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeSummary {
    /// Shards in the plan.
    pub shards: usize,
    /// Windows executed.
    pub windows: u64,
    /// Events executed.
    pub events: u64,
    /// Mean events per window.
    pub events_per_window: f64,
    /// Mean events per shard per window (lookahead efficiency).
    pub lookahead_efficiency: f64,
    /// Shard event-count imbalance, `100·(max/mean − 1)` percent.
    pub shard_imbalance_pct: f64,
    /// Events staged through cross-shard outboxes.
    pub cross_shard_events: u64,
    /// Fraction of events whose scheduling crossed a shard boundary.
    pub cross_shard_fraction: f64,
    /// Events executed past the uniform global window bound — work the
    /// adaptive per-pair lookahead recovered that global windows would
    /// have deferred to a later window. Deterministic (a pure function
    /// of the window partition); 0 under global-bound windows.
    pub recovered_events: u64,
    /// Shard-windows whose adaptive bound extended past the global
    /// bound *and* executed at least one event there.
    pub extended_shard_windows: u64,
    /// `recovered_events / events` — how much of the workload the
    /// adaptive windows pulled forward.
    pub recovered_fraction: f64,
}

impl RuntimeSummary {
    /// Summarize the deterministic half of `prof`.
    pub fn from_profile(prof: &ParProfile) -> RuntimeSummary {
        RuntimeSummary {
            shards: prof.shards,
            windows: prof.windows,
            events: prof.events,
            events_per_window: prof.events_per_window(),
            lookahead_efficiency: prof.lookahead_efficiency(),
            shard_imbalance_pct: prof.shard_imbalance_pct(),
            cross_shard_events: prof.cross_shard_events(),
            cross_shard_fraction: if prof.events == 0 {
                0.0
            } else {
                prof.cross_shard_events() as f64 / prof.events as f64
            },
            recovered_events: prof.recovered_events,
            extended_shard_windows: prof.extended_shard_windows,
            recovered_fraction: if prof.events == 0 {
                0.0
            } else {
                prof.recovered_events as f64 / prof.events as f64
            },
        }
    }

    /// Record every field as `{prefix}_{name}` metrics in `report`.
    pub fn record_into(&self, report: &mut BenchReport, prefix: &str) {
        report.set(&format!("{prefix}_shards"), self.shards as f64);
        report.set(&format!("{prefix}_windows"), self.windows as f64);
        report.set(&format!("{prefix}_events"), self.events as f64);
        report.set(
            &format!("{prefix}_events_per_window"),
            self.events_per_window,
        );
        report.set_directed(
            &format!("{prefix}_lookahead_efficiency"),
            self.lookahead_efficiency,
            crate::regress::Direction::HigherIsBetter,
        );
        report.set(
            &format!("{prefix}_shard_imbalance_pct"),
            self.shard_imbalance_pct,
        );
        report.set(
            &format!("{prefix}_cross_shard_events"),
            self.cross_shard_events as f64,
        );
        report.set(
            &format!("{prefix}_cross_shard_fraction"),
            self.cross_shard_fraction,
        );
        report.set_directed(
            &format!("{prefix}_recovered_events"),
            self.recovered_events as f64,
            crate::regress::Direction::HigherIsBetter,
        );
        report.set(
            &format!("{prefix}_extended_shard_windows"),
            self.extended_shard_windows as f64,
        );
        report.set(
            &format!("{prefix}_recovered_fraction"),
            self.recovered_fraction,
        );
    }

    /// Human-readable one-paragraph summary.
    pub fn table(&self) -> String {
        format!(
            "runtime summary: {} shards, {} windows, {} events \
             ({:.2} ev/window, lookahead efficiency {:.2} ev/shard/window)\n\
             shard imbalance {:.1}%  cross-shard {} events ({:.1}%)\n\
             windowing recovered {} events ({:.1}%) across {} extended \
             shard-windows\n",
            self.shards,
            self.windows,
            self.events,
            self.events_per_window,
            self.lookahead_efficiency,
            self.shard_imbalance_pct,
            self.cross_shard_events,
            100.0 * self.cross_shard_fraction,
            self.recovered_events,
            100.0 * self.recovered_fraction,
            self.extended_shard_windows,
        )
    }
}

/// Render a [`ParProfile`] as a Chrome trace: one lane per worker with a
/// slice per retained window sample (wall-clock µs since the run began),
/// a per-worker phase-totals bar (busy/merge/barriers/windowing laid
/// end-to-end), and per-worker events-per-window counter tracks. Open in
/// Perfetto (<https://ui.perfetto.dev>) next to the simulated-fabric
/// trace from `trace_export`.
pub fn profile_chrome_trace(prof: &ParProfile) -> String {
    let mut b = ChromeTraceBuilder::new();
    let wall_ns = |ns: u64| SimTime::from_ps(ns.saturating_mul(1000));
    b.name_process(
        0,
        &format!(
            "par runtime ({} workers x {} shards)",
            prof.threads, prof.shards
        ),
    );
    b.name_process(1, "par runtime phase totals");
    for w in &prof.workers {
        let tid = w.worker as u64 + 1;
        b.name_thread(
            0,
            tid,
            &format!(
                "worker {} [shards {}..{}]",
                w.worker,
                w.first_shard,
                w.first_shard + w.shards
            ),
        );
        for s in &w.samples {
            if s.events == 0 {
                continue;
            }
            b.add_slice(
                0,
                tid,
                "window",
                &format!("w{} ({} ev)", s.window, s.events),
                wall_ns(s.start_ns),
                wall_ns(s.start_ns + s.exec_ns.max(1)),
            );
            b.add_counter(
                0,
                &format!("worker {} events/window", w.worker),
                wall_ns(s.start_ns),
                s.events as f64,
            );
        }
        // Phase totals as one stacked bar per worker: where the loop
        // time went, end to end.
        b.name_thread(1, tid, &format!("worker {} totals", w.worker));
        let mut at = 0u64;
        for (name, ns) in [
            ("busy", w.busy_ns),
            ("merge", w.merge_ns),
            ("barrier (publish)", w.barrier_publish_ns),
            ("barrier (imbalance)", w.barrier_window_ns),
            ("windowing", w.windowing_ns()),
        ] {
            if ns > 0 {
                b.add_slice(1, tid, "phase", name, wall_ns(at), wall_ns(at + ns));
            }
            at += ns;
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;
    use anton_des::WindowSample;

    /// A hand-built profile with known numbers: 2 workers, 2 shards.
    fn profile() -> ParProfile {
        let mut p = ParProfile {
            threads: 2,
            shards: 2,
            wall_ns: 1_000,
            windows: 4,
            events: 40,
            shard_events: vec![30, 10],
            shard_busy_ns: vec![600, 200],
            traffic: vec![0, 6, 2, 0],
            sample_cap: 8,
            recovered_events: 6,
            extended_shard_windows: 2,
            ..Default::default()
        };
        for (worker, busy) in [(0usize, 600u64), (1, 200)] {
            let mut w = WorkerProfile {
                worker,
                first_shard: worker,
                shards: 1,
                loop_ns: 900,
                busy_ns: busy,
                merge_ns: 50,
                barrier_publish_ns: 40,
                barrier_window_ns: 900 - busy - 50 - 40 - 60,
                windows: 4,
                active_windows: 3,
                events: if worker == 0 { 30 } else { 10 },
                ..Default::default()
            };
            w.samples.push(WindowSample {
                window: 0,
                start_ns: 10,
                exec_ns: 100,
                events: 5,
                sim_ps: 162_000,
            });
            p.workers.push(w);
        }
        p
    }

    #[test]
    fn attribution_telescopes_exactly() {
        let p = profile();
        let a = SpeedupAttribution::from_profile(1_600, &p);
        assert_eq!(a.threads, 2);
        assert_eq!(a.ideal_ns, 800.0);
        assert_eq!(a.gap_ns, 200.0);
        // Components must close the gap to float precision.
        assert!(
            a.telescoping_error_ns() < 1e-6,
            "error {} ns\n{}",
            a.telescoping_error_ns(),
            a.table()
        );
        // Spot values: avg merge 50, avg publish-barrier 40.
        assert_eq!(a.merge_ns, 50.0);
        assert_eq!(a.barrier_ns, 40.0);
        // Windowing = avg residue 60 + (wall 1000 − avg loop 900).
        assert_eq!(a.windowing_ns, 160.0);
        // Exec excess = avg busy 400 − ideal 800.
        assert_eq!(a.exec_excess_ns, -400.0);
        assert!((a.speedup() - 1.6).abs() < 1e-9);
        assert!(a.table().contains("sum"));
    }

    #[test]
    fn summary_is_deterministic_in_profile_fields() {
        let p = profile();
        let s = RuntimeSummary::from_profile(&p);
        assert_eq!(s.windows, 4);
        assert_eq!(s.events_per_window, 10.0);
        assert_eq!(s.lookahead_efficiency, 5.0);
        assert_eq!(s.cross_shard_events, 8);
        assert!((s.cross_shard_fraction - 0.2).abs() < 1e-12);
        assert!((s.shard_imbalance_pct - 50.0).abs() < 1e-9);
        assert_eq!(s.recovered_events, 6);
        assert_eq!(s.extended_shard_windows, 2);
        assert!((s.recovered_fraction - 0.15).abs() < 1e-12);
        let mut r = BenchReport::new("t");
        s.record_into(&mut r, "par4");
        assert_eq!(r.get("par4_windows"), Some(4.0));
        assert_eq!(r.get("par4_cross_shard_events"), Some(8.0));
        assert_eq!(r.get("par4_recovered_events"), Some(6.0));
        assert_eq!(r.get("par4_extended_shard_windows"), Some(2.0));
        assert!(s.table().contains("2 shards"));
        assert!(s.table().contains("windowing recovered 6 events"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_worker_lanes() {
        let json = profile_chrome_trace(&profile());
        validate_json(&json).unwrap();
        assert!(json.contains("worker 0 [shards 0..1]"), "{json}");
        assert!(json.contains("worker 1 totals"));
        assert!(json.contains("barrier (imbalance)"));
        assert!(json.contains("events/window"));
    }
}
