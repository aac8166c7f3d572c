//! Bounded ring buffer for trace events.
//!
//! The tracer must never grow without bound during a long simulation, so
//! each session records into a fixed-capacity ring that overwrites the
//! *oldest* entry once full and counts every overwrite. Exporters can then
//! report "N events dropped" instead of silently truncating history.

/// Fixed-capacity ring buffer that overwrites the oldest element when full.
///
/// `capacity == 0` is legal: every push is dropped (and counted). Iteration
/// yields elements oldest-first.
#[derive(Debug, Clone)]
pub struct EventRing<T> {
    buf: Vec<T>,
    cap: usize,
    /// Index of the oldest element once the buffer has wrapped.
    head: usize,
    dropped: u64,
}

impl<T> EventRing<T> {
    /// Creates a ring holding at most `cap` elements.
    pub fn new(cap: usize) -> Self {
        EventRing {
            buf: Vec::with_capacity(cap.min(1 << 20)),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    /// Appends an element, evicting (and counting) the oldest when full.
    pub fn push(&mut self, value: T) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(value);
        } else {
            self.buf[self.head] = value;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Number of elements currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no elements are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of elements the ring can hold.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of elements evicted (or rejected, for `cap == 0`) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the held elements oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Consumes the ring, returning the held elements oldest-first.
    pub fn into_vec(mut self) -> Vec<T> {
        self.buf.rotate_left(self.head);
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_wraps_oldest_first() {
        let mut r = EventRing::new(3);
        for v in 0..3 {
            r.push(v);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        r.push(3); // evicts 0
        r.push(4); // evicts 1
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.into_vec(), vec![2, 3, 4]);
    }

    #[test]
    fn wraps_many_times() {
        let mut r = EventRing::new(4);
        for v in 0..103 {
            r.push(v);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 99);
        assert_eq!(
            r.iter().copied().collect::<Vec<_>>(),
            vec![99, 100, 101, 102]
        );
    }

    #[test]
    fn capacity_zero_drops_everything() {
        let mut r = EventRing::new(0);
        r.push(1);
        r.push(2);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.iter().count(), 0);
        assert!(r.into_vec().is_empty());
    }

    #[test]
    fn capacity_one_keeps_latest() {
        let mut r = EventRing::new(1);
        r.push(10);
        assert_eq!(r.dropped(), 0);
        r.push(20);
        r.push(30);
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.into_vec(), vec![30]);
    }

    #[test]
    fn empty_ring_iterates_nothing() {
        let r: EventRing<u8> = EventRing::new(8);
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 8);
        assert_eq!(r.iter().count(), 0);
    }
}
