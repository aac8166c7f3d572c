//! Per-VM Queue Managers.

use hh_sim::{CoreId, Cycles, VmId};
use serde::{Deserialize, Serialize};

use crate::{DequeueSource, EnqueueOutcome, RqMap, Subqueue};

/// Whether a VM is latency-critical or a batch harvester.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VmKind {
    /// Latency-critical microservice VM with a fixed core allocation.
    Primary,
    /// Batch VM that grows by harvesting idle Primary cores.
    Harvest,
}

/// The hardware Queue Manager of one VM (Figure 9).
///
/// A QM owns the VM's request subqueue and RQ-Map, knows whether it manages
/// a Primary or Harvest VM, and tracks which bound cores are on loan. The
/// VM State Register Set and HarvestMask it also holds in hardware carry no
/// simulated behaviour; [`crate::storage`] counts their bytes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueueManager {
    vm: VmId,
    kind: VmKind,
    queue: Subqueue,
    /// Logical→physical chunk translation (Section 4.1.2).
    rq_map: RqMap,
    /// Cores logically bound to this VM (their `MyManager` register points
    /// here).
    bound: Vec<CoreId>,
    /// Bound cores currently executing Harvest work (only meaningful for a
    /// Primary QM).
    on_loan: Vec<CoreId>,
    /// Requests handed out and not yet completed.
    inflight: usize,
    enqueued: u64,
    completed: u64,
}

impl QueueManager {
    /// Creates a QM with the given subqueue.
    pub fn new(vm: VmId, kind: VmKind, queue: Subqueue) -> Self {
        QueueManager {
            vm,
            kind,
            queue,
            rq_map: RqMap::new(),
            bound: Vec::new(),
            on_loan: Vec::new(),
            inflight: 0,
            enqueued: 0,
            completed: 0,
        }
    }

    /// The managed VM.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// Primary or Harvest.
    pub fn kind(&self) -> VmKind {
        self.kind
    }

    /// Binds a core to this VM (sets its `MyManager` register).
    pub fn bind_core(&mut self, core: CoreId) {
        if !self.bound.contains(&core) {
            self.bound.push(core);
        }
    }

    /// Marks a bound core as on loan to the Harvest VM.
    ///
    /// # Panics
    /// Panics if the core is not bound to this VM or already on loan.
    pub fn lend_core(&mut self, core: CoreId) {
        assert!(self.bound.contains(&core), "core not bound to this VM");
        assert!(!self.on_loan.contains(&core), "core already on loan");
        self.on_loan.push(core);
    }

    /// Returns a loaned core to this VM.
    ///
    /// # Panics
    /// Panics if the core was not on loan.
    pub fn reclaim_core(&mut self, core: CoreId) {
        let pos = self
            .on_loan
            .iter()
            .position(|&c| c == core)
            .expect("core was not on loan");
        self.on_loan.remove(pos);
    }

    /// Cores currently on loan.
    pub fn loaned_cores(&self) -> &[CoreId] {
        &self.on_loan
    }

    /// Direct access to the subqueue.
    pub fn queue(&self) -> &Subqueue {
        &self.queue
    }

    /// Mutable access to the subqueue (chunk donation).
    pub fn queue_mut(&mut self) -> &mut Subqueue {
        &mut self.queue
    }

    /// The QM's RQ-Map.
    pub fn rq_map(&self) -> &RqMap {
        &self.rq_map
    }

    /// Mutable RQ-Map (used by the controller's donation protocol).
    pub fn rq_map_mut(&mut self) -> &mut RqMap {
        &mut self.rq_map
    }

    /// Enqueues an arriving request (NIC → QM path, Figure 8(a)).
    pub fn enqueue(&mut self, token: u64, now: Cycles) -> EnqueueOutcome {
        self.enqueued += 1;
        self.queue.enqueue(token, now)
    }

    /// Hands the oldest ready request to a spinning core.
    pub fn dequeue(&mut self) -> Option<(u64, Cycles, DequeueSource)> {
        let out = self.queue.dequeue_ready();
        if out.is_some() {
            self.inflight += 1;
        }
        out
    }

    /// Records a blocking I/O call for a running request.
    pub fn mark_blocked(&mut self, token: u64) {
        self.queue.mark_blocked(token);
        self.inflight -= 1;
    }

    /// Records an I/O response: the request is runnable again.
    pub fn mark_ready(&mut self, token: u64) {
        self.queue.mark_ready(token);
    }

    /// Returns a preempted Harvest request to the ready queue.
    pub fn preempt(&mut self, token: u64) {
        self.queue.preempt(token);
        self.inflight -= 1;
    }

    /// Retires a completed request.
    pub fn complete(&mut self, token: u64) {
        self.queue.complete(token);
        self.inflight -= 1;
        self.completed += 1;
    }

    /// Requests dequeued and currently executing on some core.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Total requests enqueued (including overflowed ones).
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Total requests completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Whether work is waiting.
    pub fn has_ready(&self) -> bool {
        self.queue.has_ready()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qm(kind: VmKind) -> QueueManager {
        QueueManager::new(VmId(1), kind, Subqueue::new(2, 4))
    }

    #[test]
    fn lend_and_reclaim() {
        let mut m = qm(VmKind::Primary);
        m.bind_core(CoreId(3));
        m.bind_core(CoreId(4));
        assert!(m.loaned_cores().is_empty());
        m.lend_core(CoreId(3));
        assert_eq!(m.loaned_cores(), &[CoreId(3)]);
        m.reclaim_core(CoreId(3));
        assert!(m.loaned_cores().is_empty());
    }

    #[test]
    #[should_panic(expected = "not bound")]
    fn lending_unbound_core_panics() {
        qm(VmKind::Primary).lend_core(CoreId(9));
    }

    #[test]
    #[should_panic(expected = "already on loan")]
    fn double_lend_panics() {
        let mut m = qm(VmKind::Primary);
        m.bind_core(CoreId(1));
        m.lend_core(CoreId(1));
        m.lend_core(CoreId(1));
    }

    #[test]
    fn request_lifecycle_counters() {
        let mut m = qm(VmKind::Primary);
        m.enqueue(1, Cycles::ZERO);
        m.enqueue(2, Cycles::ZERO);
        assert_eq!(m.enqueued(), 2);
        let (t, _, _) = m.dequeue().unwrap();
        assert_eq!(m.inflight(), 1);
        m.mark_blocked(t);
        assert_eq!(m.inflight(), 0);
        m.mark_ready(t);
        let (t2, _, _) = m.dequeue().unwrap();
        assert_eq!(t2, t, "blocked request resumes before newer one");
        m.complete(t2);
        assert_eq!(m.completed(), 1);
        assert!(m.has_ready());
    }

    #[test]
    fn bind_is_idempotent() {
        let mut m = qm(VmKind::Harvest);
        m.bind_core(CoreId(0));
        m.bind_core(CoreId(0));
        assert_eq!(m.bound, [CoreId(0)]);
        assert_eq!(m.kind(), VmKind::Harvest);
    }
}
