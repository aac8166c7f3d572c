//! A per-VM logical request subqueue over physical RQ chunks, with the
//! in-memory overflow subqueue.

// A hot module: the per-access/per-event path must not hide panic branches.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::VecDeque;

use hh_sim::Cycles;
use serde::{Deserialize, Serialize};

/// Lifecycle of an entry in a subqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Status {
    /// Waiting to be dequeued.
    Ready,
    /// Dequeued by a core, currently executing. The entry stays resident
    /// so the request can re-enter `Blocked`/`Ready` without re-enqueueing.
    Running,
    /// Stalled on a blocking I/O call; the pointer stays in the subqueue
    /// (Section 4.1.5).
    Blocked,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Slot {
    token: u64,
    arrival: Cycles,
    status: Status,
}

/// Where an enqueued request landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Stored in an SRAM chunk entry.
    Hardware,
    /// The hardware subqueue was full; stored in the in-memory overflow
    /// subqueue (slower to access).
    Overflow,
}

/// Where a dequeued request came from (overflow dequeues pay a memory
/// access instead of an SRAM access).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DequeueSource {
    /// Served from an SRAM chunk.
    Hardware,
    /// Served after being promoted from the in-memory overflow subqueue.
    Overflow,
}

/// One VM's logical subqueue: a FIFO of request tokens over a set of RQ
/// chunks, spilling to the overflow queue when full.
///
/// Entries occupy a slot from enqueue until completion (running and blocked
/// requests keep their pointer resident, per Section 4.1.5).
///
/// # Example
///
/// ```
/// use hh_hwqueue::{EnqueueOutcome, Subqueue};
/// use hh_sim::Cycles;
///
/// let mut q = Subqueue::new(1, 2); // 1 chunk of 2 entries
/// assert_eq!(q.enqueue(10, Cycles::ZERO), EnqueueOutcome::Hardware);
/// assert_eq!(q.enqueue(11, Cycles::ZERO), EnqueueOutcome::Hardware);
/// assert_eq!(q.enqueue(12, Cycles::ZERO), EnqueueOutcome::Overflow);
/// let (token, _, _) = q.dequeue_ready().unwrap();
/// assert_eq!(token, 10);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Subqueue {
    /// Resident entries (hardware slots).
    slots: Vec<Slot>,
    /// Overflowed ready entries, FIFO.
    overflow: VecDeque<Slot>,
    /// Number of chunks currently owned.
    chunks: usize,
    /// Entries per chunk (64 in Table 1).
    entries_per_chunk: usize,
    /// Tokens whose slot came from the overflow queue (they pay the memory
    /// latency on dequeue).
    overflow_served: u64,
    /// Peak hardware occupancy observed.
    peak_occupancy: usize,
    /// Total enqueues since creation.
    enqueued_total: u64,
    /// Enqueues that landed in the overflow subqueue (hardware full).
    overflowed: u64,
}

impl Subqueue {
    /// Creates a subqueue owning `chunks` chunks of `entries_per_chunk`.
    ///
    /// # Panics
    /// Panics if `entries_per_chunk` is zero.
    pub fn new(chunks: usize, entries_per_chunk: usize) -> Self {
        assert!(entries_per_chunk > 0);
        Subqueue {
            slots: Vec::new(),
            overflow: VecDeque::new(),
            chunks,
            entries_per_chunk,
            overflow_served: 0,
            peak_occupancy: 0,
            enqueued_total: 0,
            overflowed: 0,
        }
    }

    /// Hardware capacity in entries.
    pub fn capacity(&self) -> usize {
        self.chunks * self.entries_per_chunk
    }

    /// Number of chunks currently owned.
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Entries resident in hardware (any status).
    pub fn occupancy(&self) -> usize {
        self.slots.len()
    }

    /// Entries waiting in the overflow subqueue.
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Ready entries resident anywhere.
    pub fn ready_len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.status == Status::Ready)
            .count()
            + self.overflow.len()
    }

    /// Whether any request is ready to run.
    pub fn has_ready(&self) -> bool {
        self.overflow.front().is_some() || self.slots.iter().any(|s| s.status == Status::Ready)
    }

    /// Peak hardware occupancy observed since creation.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Arrival stamps of all ready entries in the order `dequeue_ready`
    /// would serve them: hardware slots front to back, then the overflow
    /// subqueue. Because enqueue times are monotone and every internal
    /// movement (overflow promotion, chunk shedding, preemption) preserves
    /// relative order, this sequence must be non-decreasing — the FIFO
    /// invariant the `hh-check` suite and the `ServerSim` debug hook
    /// verify.
    pub fn ready_arrivals(&self) -> Vec<Cycles> {
        self.slots
            .iter()
            .filter(|s| s.status == Status::Ready)
            .map(|s| s.arrival)
            .chain(self.overflow.iter().map(|s| s.arrival))
            .collect()
    }

    /// Number of dequeues that had been demoted to the overflow queue.
    pub fn overflow_served(&self) -> u64 {
        self.overflow_served
    }

    /// Total enqueues since creation.
    pub fn enqueued_total(&self) -> u64 {
        self.enqueued_total
    }

    /// Enqueues that spilled to the overflow subqueue (hardware full).
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// Enqueues a ready request.
    pub fn enqueue(&mut self, token: u64, now: Cycles) -> EnqueueOutcome {
        let slot = Slot {
            token,
            arrival: now,
            status: Status::Ready,
        };
        self.enqueued_total += 1;
        if self.slots.len() < self.capacity() {
            self.slots.push(slot);
            self.peak_occupancy = self.peak_occupancy.max(self.slots.len());
            EnqueueOutcome::Hardware
        } else {
            self.overflow.push_back(slot);
            self.overflowed += 1;
            EnqueueOutcome::Overflow
        }
    }

    /// Dequeues the oldest ready request (FIFO within the VM,
    /// Section 4.1.5) and marks it running. Returns the token, its arrival
    /// time, and whether it was served from hardware or overflow.
    pub fn dequeue_ready(&mut self) -> Option<(u64, Cycles, DequeueSource)> {
        if let Some(pos) = self.slots.iter().position(|s| s.status == Status::Ready) {
            self.slots[pos].status = Status::Running;
            let s = self.slots[pos];
            return Some((s.token, s.arrival, DequeueSource::Hardware));
        }
        if let Some(mut s) = self.overflow.pop_front() {
            // Promote into hardware if a slot is free, else serve directly
            // from memory (it still occupies a logical slot while running).
            s.status = Status::Running;
            self.slots.push(s);
            self.peak_occupancy = self.peak_occupancy.max(self.slots.len());
            self.overflow_served += 1;
            return Some((s.token, s.arrival, DequeueSource::Overflow));
        }
        None
    }

    /// Marks a running request blocked on I/O; its slot stays resident.
    ///
    /// # Panics
    /// Panics if `token` is not currently running (a protocol violation).
    pub fn mark_blocked(&mut self, token: u64) {
        #[expect(
            clippy::expect_used,
            reason = "documented protocol panic; the scheduler contract (see # Panics) makes this state unreachable"
        )]
        let s = self
            .slots
            .iter_mut()
            .find(|s| s.token == token && s.status == Status::Running)
            .expect("mark_blocked: token not running");
        s.status = Status::Blocked;
    }

    /// Marks a blocked request ready again (its I/O response arrived).
    ///
    /// # Panics
    /// Panics if `token` is not currently blocked.
    pub fn mark_ready(&mut self, token: u64) {
        #[expect(
            clippy::expect_used,
            reason = "documented protocol panic; the scheduler contract (see # Panics) makes this state unreachable"
        )]
        let s = self
            .slots
            .iter_mut()
            .find(|s| s.token == token && s.status == Status::Blocked)
            .expect("mark_ready: token not blocked");
        s.status = Status::Ready;
    }

    /// Returns a preempted request to the ready state without losing its
    /// queue position (core reclaimed by its Primary VM, Figure 10).
    ///
    /// # Panics
    /// Panics if `token` is not currently running.
    pub fn preempt(&mut self, token: u64) {
        #[expect(
            clippy::expect_used,
            reason = "documented protocol panic; the scheduler contract (see # Panics) makes this state unreachable"
        )]
        let s = self
            .slots
            .iter_mut()
            .find(|s| s.token == token && s.status == Status::Running)
            .expect("preempt: token not running");
        s.status = Status::Ready;
    }

    /// Removes a completed request, freeing its slot and promoting one
    /// overflow entry if any is waiting.
    ///
    /// # Panics
    /// Panics if `token` is not resident.
    pub fn complete(&mut self, token: u64) {
        #[expect(
            clippy::expect_used,
            reason = "documented protocol panic; the scheduler contract (see # Panics) makes this state unreachable"
        )]
        let pos = self
            .slots
            .iter()
            .position(|s| s.token == token)
            .expect("complete: token not resident");
        self.slots.remove(pos);
        if self.slots.len() < self.capacity() {
            if let Some(s) = self.overflow.pop_front() {
                self.slots.push(s);
                self.peak_occupancy = self.peak_occupancy.max(self.slots.len());
            }
        }
    }

    /// Grows the subqueue by `n` chunks (received from a departing or
    /// donating VM). Promotes overflow entries into the new space.
    pub fn add_chunks(&mut self, n: usize) {
        self.chunks += n;
        while self.slots.len() < self.capacity() {
            match self.overflow.pop_front() {
                Some(s) => {
                    self.slots.push(s);
                    self.peak_occupancy = self.peak_occupancy.max(self.slots.len());
                }
                None => break,
            }
        }
    }

    /// Sheds `n` chunks from the tail (donated to a new VM). Entries that
    /// no longer fit move to the overflow subqueue (Section 4.1.2). Returns
    /// the number of chunks actually shed (a subqueue keeps at least one).
    pub fn shed_chunks(&mut self, n: usize) -> usize {
        let sheddable = self.chunks.saturating_sub(1).min(n);
        self.chunks -= sheddable;
        while self.slots.len() > self.capacity() {
            // Move the *youngest ready* entries out; running/blocked entries
            // must stay resident because a core or the NIC will touch them.
            if let Some(pos) = self.slots.iter().rposition(|s| s.status == Status::Ready) {
                let s = self.slots.remove(pos);
                self.overflow.push_front(s);
            } else {
                // Nothing movable: tolerate transient over-occupancy.
                break;
            }
        }
        sheddable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(chunks: usize) -> Subqueue {
        Subqueue::new(chunks, 4)
    }

    #[test]
    fn fifo_order() {
        let mut s = q(2);
        for t in 0..5 {
            s.enqueue(t, Cycles::new(t));
        }
        for t in 0..5 {
            let (tok, arr, _) = s.dequeue_ready().unwrap();
            assert_eq!(tok, t);
            assert_eq!(arr, Cycles::new(t));
            s.complete(tok);
        }
        assert!(s.dequeue_ready().is_none());
    }

    #[test]
    fn overflow_on_full() {
        let mut s = q(1); // 4 slots
        for t in 0..4 {
            assert_eq!(s.enqueue(t, Cycles::ZERO), EnqueueOutcome::Hardware);
        }
        assert_eq!(s.enqueue(4, Cycles::ZERO), EnqueueOutcome::Overflow);
        assert_eq!(s.overflow_len(), 1);
        assert_eq!(s.ready_len(), 5);
        // Completing one resident request promotes the overflowed one.
        let (tok, _, _) = s.dequeue_ready().unwrap();
        s.complete(tok);
        assert_eq!(s.overflow_len(), 0);
        assert_eq!(s.occupancy(), 4);
    }

    #[test]
    fn blocked_requests_keep_slots_and_resume_in_order() {
        let mut s = q(1);
        s.enqueue(1, Cycles::ZERO);
        s.enqueue(2, Cycles::ZERO);
        let (t1, _, _) = s.dequeue_ready().unwrap();
        s.mark_blocked(t1);
        // While 1 is blocked, 2 runs.
        let (t2, _, _) = s.dequeue_ready().unwrap();
        assert_eq!(t2, 2);
        assert!(!s.has_ready());
        // Response arrives: 1 becomes ready again.
        s.mark_ready(1);
        assert!(s.has_ready());
        let (t, _, src) = s.dequeue_ready().unwrap();
        assert_eq!(t, 1);
        assert_eq!(src, DequeueSource::Hardware);
    }

    #[test]
    fn preempt_requeues_without_losing_position() {
        let mut s = q(1);
        s.enqueue(7, Cycles::ZERO);
        s.enqueue(8, Cycles::ZERO);
        let (t, _, _) = s.dequeue_ready().unwrap();
        assert_eq!(t, 7);
        s.preempt(7);
        // 7 is ready again and still ahead of 8.
        let (t, _, _) = s.dequeue_ready().unwrap();
        assert_eq!(t, 7);
    }

    #[test]
    fn chunk_donation_spills_ready_entries() {
        let mut s = q(2); // 8 slots
        for t in 0..8 {
            s.enqueue(t, Cycles::ZERO);
        }
        let shed = s.shed_chunks(1);
        assert_eq!(shed, 1);
        assert_eq!(s.capacity(), 4);
        assert_eq!(s.occupancy(), 4);
        assert_eq!(s.overflow_len(), 4);
        // FIFO preserved across the spill.
        let mut order = Vec::new();
        while let Some((t, _, _)) = s.dequeue_ready() {
            order.push(t);
            s.complete(t);
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn shed_keeps_at_least_one_chunk() {
        let mut s = q(2);
        assert_eq!(s.shed_chunks(10), 1);
        assert_eq!(s.chunks(), 1);
    }

    #[test]
    fn add_chunks_promotes_overflow() {
        let mut s = q(1);
        for t in 0..6 {
            s.enqueue(t, Cycles::ZERO);
        }
        assert_eq!(s.overflow_len(), 2);
        s.add_chunks(1);
        assert_eq!(s.overflow_len(), 0);
        assert_eq!(s.occupancy(), 6);
    }

    #[test]
    fn running_blocked_entries_survive_shed() {
        let mut s = q(2);
        for t in 0..8 {
            s.enqueue(t, Cycles::ZERO);
        }
        // Run and block four of them.
        for _ in 0..4 {
            let (t, _, _) = s.dequeue_ready().unwrap();
            s.mark_blocked(t);
        }
        s.shed_chunks(1);
        // Blocked entries must still be resident (they were tokens 0..4).
        for t in 0..4 {
            s.mark_ready(t); // would panic if not resident/blocked
        }
    }

    #[test]
    fn overflow_dequeue_is_tagged() {
        let mut s = Subqueue::new(1, 1);
        s.enqueue(1, Cycles::ZERO);
        s.enqueue(2, Cycles::ZERO);
        let (t, _, src) = s.dequeue_ready().unwrap();
        assert_eq!((t, src), (1, DequeueSource::Hardware));
        // Token 1 still running and occupying the only hw slot; token 2
        // must be served from overflow.
        let (t, _, src) = s.dequeue_ready().unwrap();
        assert_eq!((t, src), (2, DequeueSource::Overflow));
        assert_eq!(s.overflow_served(), 1);
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn blocking_a_ready_request_panics() {
        let mut s = q(1);
        s.enqueue(1, Cycles::ZERO);
        s.mark_blocked(1);
    }

    #[test]
    fn ready_arrivals_stay_fifo_across_shed_and_promote() {
        let mut s = q(2); // 8 slots
        for t in 0..10 {
            s.enqueue(t, Cycles::new(t));
        }
        let check = |s: &Subqueue| {
            let arr = s.ready_arrivals();
            assert!(
                arr.windows(2).all(|w| w[0] <= w[1]),
                "ready arrivals out of order: {arr:?}"
            );
        };
        check(&s);
        s.shed_chunks(1); // spills youngest ready entries
        check(&s);
        let (t, _, _) = s.dequeue_ready().unwrap();
        s.complete(t); // promotes an overflow entry
        check(&s);
        s.add_chunks(2);
        check(&s);
        assert_eq!(s.ready_arrivals().len(), s.ready_len());
    }

    #[test]
    fn enqueue_counters_split_hardware_and_overflow() {
        let mut s = q(1); // 4 hardware slots
        for t in 0..6 {
            s.enqueue(t, Cycles::ZERO);
        }
        assert_eq!(s.enqueued_total(), 6);
        assert_eq!(s.overflowed(), 2);
        // Draining does not disturb the enqueue-side counters.
        while let Some((t, _, _)) = s.dequeue_ready() {
            s.complete(t);
        }
        assert_eq!(s.enqueued_total(), 6);
        assert_eq!(s.overflowed(), 2);
    }

    #[test]
    fn peak_occupancy_tracks_high_water() {
        let mut s = q(2);
        for t in 0..6 {
            s.enqueue(t, Cycles::ZERO);
        }
        for t in 0..6 {
            s.dequeue_ready();
            s.complete(t);
        }
        assert_eq!(s.peak_occupancy(), 6);
        assert_eq!(s.occupancy(), 0);
    }
}
