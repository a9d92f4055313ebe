//! Node programs and their machine interface.
//!
//! Application logic (the MD schedule, microbenchmarks, collectives) is
//! expressed as a [`NodeProgram`] — one instance per node, reacting to
//! counter fires, FIFO messages, and timers, and acting through [`Ctx`]
//! (send packets, read memories, set timers, model compute time). This is
//! exactly the event-driven shape of Anton's Tensilica-core software:
//! poll a counter, process, push results onward.

use crate::fabric::{Ev, Fabric, ProgEvent};
use crate::fault::WatchdogReport;
use crate::packet::{ClientAddr, ClientKind, CounterId, Packet, Payload};
use anton_des::{Activity, RunOutcome, Scheduler, SimDuration, SimTime, TrackId};
use anton_topo::{NodeId, TorusDims};
use std::fmt;

/// Per-node application logic.
pub trait NodeProgram {
    /// React to a program event on this node. `node` is this program's
    /// node id; `ctx` provides the machine interface.
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>);
}

/// The machine interface handed to node programs.
pub struct Ctx<'a, 'b> {
    fabric: &'a mut Fabric,
    sched: &'a mut Scheduler<Ev>,
    _marker: std::marker::PhantomData<&'b ()>,
}

impl<'a, 'b> Ctx<'a, 'b> {
    /// Assemble a context around a fabric and scheduler (used by the
    /// shard worlds in [`crate::par`]).
    pub(crate) fn new(fabric: &'a mut Fabric, sched: &'a mut Scheduler<Ev>) -> Ctx<'a, 'b> {
        Ctx {
            fabric,
            sched,
            _marker: std::marker::PhantomData,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Machine dimensions.
    pub fn dims(&self) -> TorusDims {
        self.fabric.dims()
    }

    /// Immutable access to the fabric (stats, timing, memories).
    pub fn fabric(&self) -> &Fabric {
        self.fabric
    }

    /// Mutable access for pattern (re)registration mid-run (bond-program
    /// regeneration reprograms multicast tables).
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        self.fabric
    }

    /// Send a packet now.
    pub fn send(&mut self, pkt: Packet) {
        let now = self.sched.now();
        self.fabric.send(pkt, now, self.sched);
    }

    /// Watch a counter: a `CounterReached` event fires when it hits
    /// `target` (immediately if already met).
    pub fn watch_counter(&mut self, addr: ClientAddr, id: CounterId, target: u64) {
        let now = self.sched.now();
        self.fabric.counter_watch(addr, id, target, now, self.sched);
    }

    /// Watch a counter with a stall deadline: like [`Ctx::watch_counter`],
    /// plus a watchdog check `deadline` from now. If the watch is still
    /// pending when the deadline strikes (e.g. the counted packet was
    /// lost), a [`WatchdogReport`] naming the stuck counter is recorded on
    /// the fabric; the simulation continues either way.
    pub fn watch_counter_deadline(
        &mut self,
        addr: ClientAddr,
        id: CounterId,
        target: u64,
        deadline: SimDuration,
    ) {
        self.watch_counter(addr, id, target);
        self.sched.after(
            deadline,
            Ev::WatchdogCheck {
                addr,
                counter: id,
                target,
            },
        );
    }

    /// Read a counter's current value.
    pub fn read_counter(&self, addr: ClientAddr, id: CounterId) -> u64 {
        self.fabric.counter_read(addr, id)
    }

    /// Reset a counter for the next phase.
    pub fn reset_counter(&mut self, addr: ClientAddr, id: CounterId) {
        self.fabric.counter_reset(addr, id);
    }

    /// Read local memory.
    pub fn mem_read(&self, addr: ClientAddr, a: u64) -> Option<&Payload> {
        self.fabric.mem_read(addr, a)
    }

    /// Consume local memory.
    pub fn mem_take(&mut self, addr: ClientAddr, a: u64) -> Option<Payload> {
        self.fabric.mem_take(addr, a)
    }

    /// Local (non-network) store into a client memory.
    pub fn mem_write(&mut self, addr: ClientAddr, a: u64, p: Payload) {
        self.fabric.mem_write(addr, a, p);
    }

    /// Drain an address range of local memory, sorted by address.
    pub fn mem_drain_range(&mut self, addr: ClientAddr, lo: u64, hi: u64) -> Vec<(u64, Payload)> {
        self.fabric.mem_drain_range(addr, lo, hi)
    }

    /// Read accumulation-memory words.
    pub fn accum_read(&self, addr: ClientAddr, a: u64, n: usize) -> Vec<i32> {
        self.fabric.accum_read(addr, a, n)
    }

    /// Zero accumulation-memory words.
    pub fn accum_clear(&mut self, addr: ClientAddr, a: u64, n: usize) {
        self.fabric.accum_clear(addr, a, n);
    }

    /// Arrange a `Timer { tag }` event for `client` after `delay`.
    pub fn set_timer(&mut self, node: NodeId, client: ClientKind, delay: SimDuration, tag: u64) {
        self.sched.after(
            delay,
            Ev::Prog {
                node,
                pe: ProgEvent::Timer { client, tag },
            },
        );
    }

    /// Model a computation of length `dur` on `client`: records a busy
    /// interval on `track` (if tracing) and fires `Timer { tag }` when it
    /// completes.
    pub fn compute(
        &mut self,
        node: NodeId,
        client: ClientKind,
        track: TrackId,
        dur: SimDuration,
        tag: u64,
        label: &str,
    ) {
        let now = self.sched.now();
        if self.fabric.tracer.is_enabled() {
            let l = self.fabric.tracer.intern_label(label);
            self.fabric
                .tracer
                .record(track, Activity::Busy, now, now + dur, l);
        }
        self.sched.after(
            dur,
            Ev::Prog {
                node,
                pe: ProgEvent::Timer { client, tag },
            },
        );
    }

    /// Record a stall interval (waiting for data) on a trace track.
    pub fn record_stall(&mut self, track: TrackId, from: SimTime, label: &str) {
        let now = self.sched.now();
        if self.fabric.tracer.is_enabled() && now > from {
            let l = self.fabric.tracer.intern_label(label);
            self.fabric
                .tracer
                .record(track, Activity::Stalled, from, now, l);
        }
    }

    /// Program a client's per-source buffer counter table.
    pub fn set_source_counter_map(
        &mut self,
        addr: ClientAddr,
        map: std::collections::HashMap<anton_topo::NodeId, crate::packet::CounterId>,
    ) {
        self.fabric.set_source_counter_map(addr, map);
    }

    /// Label subsequent traced link activity with a phase name.
    pub fn set_phase(&mut self, label: &str) {
        let now = self.sched.now();
        self.fabric.set_phase_label(label, now);
    }
}

/// One still-pending counter watch at the end of a guarded run: evidence
/// of who is stuck waiting for what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckWatch {
    /// Node owning the stuck counter.
    pub node: NodeId,
    /// Client owning the stuck counter.
    pub client: ClientKind,
    /// The watched counter.
    pub counter: CounterId,
    /// The value the watch waits for.
    pub target: u64,
    /// The value it reached.
    pub current: u64,
}

impl fmt::Display for StuckWatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} {:?} counter {} stuck at {}/{}",
            self.node.0, self.client, self.counter.0, self.current, self.target
        )
    }
}

/// Diagnosis of a run that failed to complete: why the engine stopped,
/// when, which watches were still pending (the quiescence detector), and
/// every watchdog deadline that expired along the way.
#[derive(Debug, Clone, PartialEq)]
pub struct StallReport {
    /// How the engine stopped (drained-but-stuck, horizon, or budget).
    pub outcome: RunOutcome,
    /// Simulated time when it stopped.
    pub at: SimTime,
    /// Watches still pending — the programs that never got their data.
    pub stuck: Vec<StuckWatch>,
    /// Watchdog deadlines that expired during the run.
    pub watchdog: Vec<WatchdogReport>,
    /// Snapshot of the fabric's traffic counters at the stall: how many
    /// packets were lost, unreachable, or budget-exhausted makes a
    /// chaos-induced stall diagnosable from the report alone.
    pub stats: crate::fabric::NetStats,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "simulation stalled ({:?} at {}): {} stuck watch(es), {} watchdog report(s)",
            self.outcome,
            self.at,
            self.stuck.len(),
            self.watchdog.len()
        )?;
        for s in &self.stuck {
            writeln!(f, "  stuck: {s}")?;
        }
        for w in &self.watchdog {
            writeln!(f, "  {w}")?;
        }
        writeln!(
            f,
            "  net: {} sent, {} delivered, {} lost, {} unreachable, {} retry-exhausted, {} delivery error(s)",
            self.stats.packets_sent,
            self.stats.packets_delivered,
            self.stats.packets_lost,
            self.stats.packets_unreachable,
            self.stats.retry_budget_exhausted,
            self.stats.delivery_errors,
        )?;
        Ok(())
    }
}

/// Outcome of [`ParSimulation::run_guarded`](crate::ParSimulation::run_guarded):
/// either the run completed (all watches satisfied before quiescence) or
/// it stalled with a diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub enum RunReport {
    /// The run completed; no watch was left pending.
    Completed(RunOutcome),
    /// The run did not complete; here is why.
    Stalled(StallReport),
}

impl RunReport {
    /// Whether the run completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunReport::Completed(_))
    }

    /// The stall diagnosis, if the run stalled.
    pub fn stall(&self) -> Option<&StallReport> {
        match self {
            RunReport::Completed(_) => None,
            RunReport::Stalled(s) => Some(s),
        }
    }
}
