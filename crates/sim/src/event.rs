//! Pending-event set for discrete-event simulation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Cycles;

/// A deterministic pending-event queue.
///
/// Events are delivered in non-decreasing timestamp order; events scheduled
/// for the *same* instant are delivered in insertion order (FIFO), which keeps
/// simulations reproducible regardless of heap internals.
///
/// The queue is a data structure, not a framework: the simulation loop lives
/// with the model that owns the world state, which keeps borrow-checking
/// simple and avoids callback indirection.
///
/// # Example
///
/// ```
/// use hh_sim::{Cycles, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycles::new(10), "b");
/// q.push(Cycles::new(10), "c");
/// q.push(Cycles::new(5), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    key: Reverse<(Cycles, u64)>,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: Cycles, event: E) {
        let slot = self.reserve();
        self.push_reserved(at, slot, event);
    }

    /// Takes the next insertion-order position without scheduling
    /// anything yet: an event whose timestamp is not known at the moment
    /// its cause is processed gets it now and is pushed later with
    /// [`EventQueue::push_reserved`], delivered among equal-timestamp
    /// events exactly as if it had been pushed here.
    pub fn reserve(&mut self) -> Reserved {
        let seq = self.seq;
        self.seq += 1;
        Reserved(seq)
    }

    /// Schedules `event` at `at` in the insertion-order position `slot`
    /// reserved earlier.
    pub fn push_reserved(&mut self, at: Cycles, slot: Reserved, event: E) {
        self.heap.push(Entry {
            key: Reverse((at, slot.0)),
            event,
        });
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.heap.peek().map(|e| e.key.0 .0)
    }

    /// Removes and returns the earliest pending event, if any.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        self.heap.pop().map(|e| (e.key.0 .0, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// An insertion-order position taken by [`EventQueue::reserve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reserved(u64);

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(30), 3);
        q.push(Cycles::new(10), 1);
        q.push(Cycles::new(20), 2);
        assert_eq!(q.pop(), Some((Cycles::new(10), 1)));
        assert_eq!(q.pop(), Some((Cycles::new(20), 2)));
        assert_eq!(q.pop(), Some((Cycles::new(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycles::new(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycles::new(42), i)));
        }
    }

    #[test]
    fn reserved_positions_keep_fifo_order_at_equal_timestamps() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(7), "first");
        let second = q.reserve();
        q.push(Cycles::new(7), "third");
        let fourth = q.reserve();
        q.push(Cycles::new(3), "early");
        // Pushed last and out of order, but delivered in reservation order.
        q.push_reserved(Cycles::new(7), fourth, "fourth");
        q.push_reserved(Cycles::new(7), second, "second");
        assert_eq!(q.peek_time(), Some(Cycles::new(3)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["early", "first", "second", "third", "fourth"]);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(1), ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(5), "a");
        q.push(Cycles::new(1), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(Cycles::new(3), "c");
        q.push(Cycles::new(4), "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
        assert_eq!(q.pop().unwrap().1, "a");
    }
}
