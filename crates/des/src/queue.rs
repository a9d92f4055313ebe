//! The event queue of each [`ParEngine`](crate::ParEngine) shard: a
//! binary heap of `(time, key, handle)` entries over a free-list arena
//! that holds the payloads.
//!
//! Pops are totally ordered by `(time, key)`. Every key a queue sees is
//! unique (a birth key), so the handle never decides an order. Sifts move the small entries while
//! payloads stay put in the arena: a popped event moves exactly twice,
//! in at push and out at pop.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-queue of events keyed on `(time, key)`.
pub(crate) struct EventQueue<K, E> {
    heap: BinaryHeap<Reverse<(SimTime, K, u32)>>,
    arena: Arena<E>,
}

impl<K: Ord + Copy, E> EventQueue<K, E> {
    pub(crate) fn new() -> EventQueue<K, E> {
        EventQueue {
            heap: BinaryHeap::new(),
            arena: Arena::new(),
        }
    }

    /// Number of queued events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Queue `event` at `(at, key)`.
    pub(crate) fn push(&mut self, at: SimTime, key: K, event: E) {
        let handle = self.arena.insert(event);
        self.heap.push(Reverse((at, key, handle)));
    }

    /// The smallest queued `(time, key)`, if any.
    pub(crate) fn peek(&self) -> Option<(SimTime, K)> {
        self.heap.peek().map(|Reverse((at, key, _))| (*at, *key))
    }

    /// Remove and return the event with the smallest `(time, key)`.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, K, E)> {
        let Reverse((at, key, handle)) = self.heap.pop()?;
        Some((at, key, self.arena.take(handle)))
    }
}

/// A slab of events addressed by dense `u32` handles, with a free list,
/// so the slab never grows past the peak number of queued events.
struct Arena<E> {
    slots: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> Arena<E> {
    fn new() -> Arena<E> {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Store `event`, returning its handle.
    fn insert(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(event);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("arena full");
                self.slots.push(Some(event));
                idx
            }
        }
    }

    /// Remove and return the event behind `idx`. Panics if the handle
    /// was already taken (a queue/arena desync is always a bug).
    fn take(&mut self, idx: u32) -> E {
        let ev = self.slots[idx as usize].take().expect("stale arena handle");
        self.free.push(idx);
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_recycles_slots() {
        let mut a: Arena<String> = Arena::new();
        let i = a.insert("x".into());
        let j = a.insert("y".into());
        assert_eq!(a.take(i), "x");
        let k = a.insert("z".into());
        // The freed slot is reused: the slab never grows past the live peak.
        assert_eq!(k, i);
        assert_eq!(a.slots.len(), 2);
        assert_eq!(a.take(j), "y");
        assert_eq!(a.take(k), "z");
        assert_eq!(a.free.len(), a.slots.len());
    }

    #[test]
    #[should_panic(expected = "stale arena handle")]
    fn double_take_panics() {
        let mut a: Arena<u8> = Arena::new();
        let i = a.insert(1);
        a.take(i);
        a.take(i);
    }
}
