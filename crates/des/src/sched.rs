//! The interface between the engine and a simulated world.
//!
//! Events are values of a caller-defined type `E`; the world implements
//! [`EventHandler`] and reacts to each event, scheduling further events
//! through the [`Scheduler`] handed to it. [`crate::ParEngine`] executes
//! them; with one shard it drains a single queue on the calling thread.
//!
//! Determinism is a hard requirement (traces are compared in tests and the
//! paper's figures must be exactly reproducible), so ties in time are broken
//! by birth order: two events a handler schedules for the same picosecond
//! fire in the order it scheduled them.

use crate::time::{SimDuration, SimTime};

/// The scheduling interface handed to event handlers.
///
/// Handlers may only schedule events at or after the current time; this is
/// checked and panics otherwise (a causality violation is always a bug).
pub struct Scheduler<E> {
    now: SimTime,
    /// Events the running handler scheduled, in the order it scheduled
    /// them; the executor drains them into its queue after each handler
    /// returns and reuses the buffer for the next event.
    pending: Vec<(SimTime, E)>,
}

impl<E> Scheduler<E> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `delay` after the current time.
    #[inline]
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.at(self.now + delay, event);
    }

    /// Schedule `event` at absolute time `at` (must not precede now).
    pub fn at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "causality violation: scheduling at {at} before now {}",
            self.now
        );
        self.pending.push((at, event));
    }

    /// Schedule `event` to fire immediately (same timestamp, after all
    /// events already queued for this instant that were scheduled earlier).
    #[inline]
    pub fn now_event(&mut self, event: E) {
        self.at(self.now, event);
    }

    /// An empty scheduler. Each worker of [`crate::ParEngine`] builds one
    /// per run call and moves it to every event's time with
    /// [`Scheduler::reset`], so the pending buffer is allocated once and
    /// reused instead of once per event.
    pub(crate) fn new() -> Scheduler<E> {
        Scheduler {
            now: SimTime::ZERO,
            pending: Vec::new(),
        }
    }

    /// Position the scheduler at `now` for the next handler call. The
    /// previous event's pending list must have been drained.
    #[inline]
    pub(crate) fn reset(&mut self, now: SimTime) {
        debug_assert!(self.pending.is_empty(), "pending events not drained");
        self.now = now;
    }

    /// Yield the pending events in the exact order the handler scheduled
    /// them, leaving the buffer empty with its capacity kept.
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, (SimTime, E)> {
        self.pending.drain(..)
    }
}

/// World types react to events through this trait.
pub trait EventHandler<E> {
    /// Handle one event at its firing time. New events go through `sched`.
    fn handle(&mut self, event: E, sched: &mut Scheduler<E>);
}

/// Outcome of [`ParEngine::run_until`](crate::ParEngine::run_until).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained before the horizon.
    Drained,
    /// The horizon was reached with events still pending.
    HorizonReached,
    /// The event budget was exhausted (runaway protection).
    BudgetExhausted,
}
