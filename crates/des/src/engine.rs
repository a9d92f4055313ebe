//! The discrete-event simulation engine.
//!
//! The engine is a strict-order event queue plus a user-supplied world.
//! Events are values of a caller-defined type `E`; the world implements
//! [`EventHandler`] and reacts to each event, scheduling further events
//! through the [`Scheduler`] handed to it.
//!
//! Determinism is a hard requirement (traces are compared in tests and the
//! paper's figures must be exactly reproducible), so ties in time are broken
//! by insertion sequence number: two events scheduled for the same
//! picosecond fire in the order they were scheduled.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A scheduled event: fires at `at`, with `seq` breaking ties. This is
/// the staging format handlers fill through a [`Scheduler`]; after each
/// handler returns, the executor drains them into its queue and the
/// buffer is reused for the next event.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// The scheduling interface handed to event handlers.
///
/// Handlers may only schedule events at or after the current time; this is
/// checked and panics otherwise (a causality violation is always a bug).
pub struct Scheduler<E> {
    now: SimTime,
    next_seq: u64,
    pending: Vec<Scheduled<E>>,
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
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(Scheduled { at, seq, event });
    }

    /// Schedule `event` to fire immediately (same timestamp, after all
    /// events already queued for this instant that were scheduled earlier).
    #[inline]
    pub fn now_event(&mut self, event: E) {
        self.at(self.now, event);
    }

    /// An empty scheduler. Each executor builds one per run call
    /// ([`Engine::run_until`], and each worker of the parallel engine in
    /// [`crate::par`]) and moves it to every event's time with
    /// [`Scheduler::reset`], so the pending buffer is allocated once and
    /// reused instead of once per event.
    pub(crate) fn new() -> Scheduler<E> {
        Scheduler {
            now: SimTime::ZERO,
            next_seq: 0,
            pending: Vec::new(),
        }
    }

    /// Position the scheduler at `now` for the next handler call, with
    /// sequence numbers continuing from `next_seq`. The previous event's
    /// pending list must have been drained.
    #[inline]
    pub(crate) fn reset(&mut self, now: SimTime, next_seq: u64) {
        debug_assert!(self.pending.is_empty(), "pending events not drained");
        self.now = now;
        self.next_seq = next_seq;
    }

    /// Yield the pending events in the exact order the handler scheduled
    /// them (`seq` order == push order), leaving the buffer empty with
    /// its capacity kept.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (SimTime, E)> + '_ {
        self.pending.drain(..).map(|s| (s.at, s.event))
    }
}

/// World types react to events through this trait.
pub trait EventHandler<E> {
    /// Handle one event at its firing time. New events go through `sched`.
    fn handle(&mut self, event: E, sched: &mut Scheduler<E>);
}

/// Outcome of [`Engine::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained before the horizon.
    Drained,
    /// The horizon was reached with events still pending.
    HorizonReached,
    /// The event budget was exhausted (runaway protection).
    BudgetExhausted,
}

/// The event queue plus clock. Generic over the event type.
///
/// The queue is keyed on `(time, insertion seq)`, so events at the same
/// picosecond fire in the order they were scheduled.
pub struct Engine<E> {
    queue: EventQueue<u64, E>,
    now: SimTime,
    next_seq: u64,
    events_processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Fresh engine at time zero.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            events_processed: 0,
        }
    }

    /// Current simulated time (time of the last event processed, or the
    /// last explicit schedule point).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events currently pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Seed the queue with an event at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "causality violation");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(at, seq, event);
    }

    /// Run until the queue drains. `world` handles each event.
    /// Panics if more than `u64::MAX` events are processed (never, in
    /// practice); use [`Engine::run_until`] to bound runaway simulations.
    pub fn run<W: EventHandler<E>>(&mut self, world: &mut W) {
        match self.run_until(world, SimTime(u64::MAX), u64::MAX) {
            RunOutcome::Drained => {}
            other => unreachable!("unbounded run ended with {other:?}"),
        }
    }

    /// Run until the queue drains, `horizon` is passed, or `max_events`
    /// events have been processed, whichever comes first. Events stamped
    /// exactly at the horizon still fire.
    pub fn run_until<W: EventHandler<E>>(
        &mut self,
        world: &mut W,
        horizon: SimTime,
        max_events: u64,
    ) -> RunOutcome {
        let mut budget = max_events;
        let mut sched = Scheduler::new();
        while let Some((head_at, _)) = self.queue.peek() {
            if head_at > horizon {
                return RunOutcome::HorizonReached;
            }
            if budget == 0 {
                return RunOutcome::BudgetExhausted;
            }
            budget -= 1;
            let (at, _seq, event) = self.queue.pop().expect("peeked");
            debug_assert!(at >= self.now, "event queue emitted out of order");
            self.now = at;
            self.events_processed += 1;

            sched.reset(at, self.next_seq);
            world.handle(event, &mut sched);
            self.next_seq = sched.next_seq;
            for s in sched.pending.drain(..) {
                self.queue.push(s.at, s.seq, s.event);
            }
        }
        RunOutcome::Drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq, Clone)]
    enum Ev {
        Ping(u32),
        Stop,
    }

    struct Recorder {
        seen: Vec<(u64, Ev)>,
        chain: u32,
    }

    impl EventHandler<Ev> for Recorder {
        fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
            self.seen.push((sched.now().as_ps(), event.clone()));
            if let Ev::Ping(n) = event {
                if n < self.chain {
                    sched.after(SimDuration::from_ns(10), Ev::Ping(n + 1));
                }
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_ns(30), Ev::Ping(3));
        eng.schedule_at(SimTime::from_ns(10), Ev::Ping(1));
        eng.schedule_at(SimTime::from_ns(20), Ev::Ping(2));
        let mut w = Recorder {
            seen: vec![],
            chain: 0,
        };
        eng.run(&mut w);
        let times: Vec<u64> = w.seen.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![10_000, 20_000, 30_000]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut eng = Engine::new();
        let t = SimTime::from_ns(5);
        eng.schedule_at(t, Ev::Ping(100));
        eng.schedule_at(t, Ev::Ping(200));
        eng.schedule_at(t, Ev::Stop);
        let mut w = Recorder {
            seen: vec![],
            chain: 0,
        };
        eng.run(&mut w);
        assert_eq!(
            w.seen.iter().map(|(_, e)| e.clone()).collect::<Vec<_>>(),
            vec![Ev::Ping(100), Ev::Ping(200), Ev::Stop]
        );
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::ZERO, Ev::Ping(0));
        let mut w = Recorder {
            seen: vec![],
            chain: 5,
        };
        eng.run(&mut w);
        assert_eq!(w.seen.len(), 6); // Ping(0)..Ping(5)
        assert_eq!(eng.now(), SimTime::from_ns(50));
        assert_eq!(eng.events_processed(), 6);
    }

    #[test]
    fn horizon_stops_the_run() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::ZERO, Ev::Ping(0));
        let mut w = Recorder {
            seen: vec![],
            chain: 1000,
        };
        let out = eng.run_until(&mut w, SimTime::from_ns(25), u64::MAX);
        assert_eq!(out, RunOutcome::HorizonReached);
        // Events at 0, 10, 20 ns fired; 30 ns is pending.
        assert_eq!(w.seen.len(), 3);
        assert_eq!(eng.pending(), 1);
    }

    #[test]
    fn budget_stops_the_run() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::ZERO, Ev::Ping(0));
        let mut w = Recorder {
            seen: vec![],
            chain: 1000,
        };
        let out = eng.run_until(&mut w, SimTime(u64::MAX), 4);
        assert_eq!(out, RunOutcome::BudgetExhausted);
        assert_eq!(w.seen.len(), 4);
    }

    #[test]
    #[should_panic(expected = "causality")]
    fn scheduling_in_the_past_panics() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_ns(10), Ev::Stop);
        let mut w = Recorder {
            seen: vec![],
            chain: 0,
        };
        eng.run(&mut w);
        eng.schedule_at(SimTime::from_ns(5), Ev::Stop);
    }

    /// `now_event` calls made while handling an event at time T fire at
    /// T, *after* every event already queued for T that was scheduled
    /// earlier — the tie-break the parallel engine must reproduce.
    #[test]
    fn now_event_fires_after_earlier_same_time_events() {
        struct Chainer {
            seen: Vec<Ev>,
        }
        impl EventHandler<Ev> for Chainer {
            fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
                if event == Ev::Ping(0) {
                    // Queued behind Ping(1)/Ping(2), which were scheduled
                    // for this same instant before this handler ran.
                    sched.now_event(Ev::Ping(99));
                }
                self.seen.push(event);
            }
        }
        let mut eng = Engine::new();
        let t = SimTime::from_ns(7);
        eng.schedule_at(t, Ev::Ping(0));
        eng.schedule_at(t, Ev::Ping(1));
        eng.schedule_at(t, Ev::Ping(2));
        let mut w = Chainer { seen: vec![] };
        eng.run(&mut w);
        assert_eq!(
            w.seen,
            vec![Ev::Ping(0), Ev::Ping(1), Ev::Ping(2), Ev::Ping(99)]
        );
        assert_eq!(eng.now(), t);
    }

    /// A `now_event` scheduled by a handler firing exactly at the horizon
    /// still executes: horizon semantics are "events stamped at the
    /// horizon fire", including same-timestamp chains.
    #[test]
    fn now_event_chain_at_horizon_still_fires() {
        struct AtHorizon {
            fired: Vec<Ev>,
        }
        impl EventHandler<Ev> for AtHorizon {
            fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
                if event == Ev::Ping(0) {
                    sched.now_event(Ev::Stop);
                }
                self.fired.push(event);
            }
        }
        let horizon = SimTime::from_ns(25);
        let mut eng = Engine::new();
        eng.schedule_at(horizon, Ev::Ping(0));
        // An event strictly beyond the horizon stays pending.
        eng.schedule_at(SimTime::from_ns(26), Ev::Ping(1));
        let mut w = AtHorizon { fired: vec![] };
        let out = eng.run_until(&mut w, horizon, u64::MAX);
        assert_eq!(out, RunOutcome::HorizonReached);
        assert_eq!(w.fired, vec![Ev::Ping(0), Ev::Stop]);
        assert_eq!(eng.pending(), 1);
    }

    /// Deep same-timestamp chains execute FIFO: each `now_event` goes to
    /// the back of the current instant's queue.
    #[test]
    fn same_timestamp_chains_are_fifo() {
        struct Deep {
            seen: Vec<u32>,
        }
        impl EventHandler<Ev> for Deep {
            fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
                if let Ev::Ping(n) = event {
                    self.seen.push(n);
                    if n < 5 {
                        sched.now_event(Ev::Ping(n + 10));
                        sched.now_event(Ev::Ping(n + 1));
                    }
                }
            }
        }
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::ZERO, Ev::Ping(0));
        let mut w = Deep { seen: vec![] };
        eng.run(&mut w);
        // Breadth-first through the instant: 0 spawns (10, 1); 10 is
        // inert; 1 spawns (11, 2); and so on.
        assert_eq!(w.seen, vec![0, 10, 1, 11, 2, 12, 3, 13, 4, 14, 5]);
        assert_eq!(eng.now(), SimTime::ZERO);
    }

    /// Two identical runs produce identical event sequences (determinism).
    #[test]
    fn determinism() {
        let run = || {
            let mut eng = Engine::new();
            eng.schedule_at(SimTime::ZERO, Ev::Ping(0));
            eng.schedule_at(SimTime::ZERO, Ev::Ping(7));
            let mut w = Recorder {
                seen: vec![],
                chain: 9,
            };
            eng.run(&mut w);
            w.seen
        };
        assert_eq!(run(), run());
    }
}
