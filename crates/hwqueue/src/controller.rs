//! The centralized HardHarvest controller: chunk pool + Queue Managers.

use hh_sim::{Cycles, VmId};
use serde::{Deserialize, Serialize};

use crate::{ChunkPool, EnqueueOutcome, QueueManager, Subqueue, VmKind};

/// Controller sizing (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Physical RQ chunks (32).
    pub chunks: usize,
    /// Entries per chunk (64).
    pub entries_per_chunk: usize,
    /// QM / VM-State-Register-Set pairs provisioned (16).
    pub max_vms: usize,
}

impl ControllerConfig {
    /// Table 1 defaults: 32 chunks × 64 entries, 16 QMs.
    pub fn table1() -> Self {
        ControllerConfig {
            chunks: 32,
            entries_per_chunk: 64,
            max_vms: 16,
        }
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self::table1()
    }
}

/// The per-chip HardHarvest controller (Figure 9).
///
/// Registers VMs, assigns RQ chunks to their subqueues proportionally to
/// their core counts (Section 4.1.2), and routes NIC arrivals to the right
/// Queue Manager.
///
/// # Example
///
/// ```
/// use hh_hwqueue::{Controller, ControllerConfig, VmKind};
/// use hh_sim::{Cycles, VmId};
///
/// let mut ctrl = Controller::new(ControllerConfig::table1());
/// ctrl.register_vm(VmId(0), VmKind::Primary, 4);
/// ctrl.register_vm(VmId(1), VmKind::Harvest, 4);
/// ctrl.enqueue(VmId(0), 7, Cycles::ZERO);
/// let (token, _, _) = ctrl.qm_mut(VmId(0)).dequeue().unwrap();
/// assert_eq!(token, 7);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Controller {
    config: ControllerConfig,
    /// QM per registered VM, indexed by registration order.
    qms: Vec<QueueManager>,
    /// Core count per registered VM (drives chunk proportions).
    cores: Vec<usize>,
    /// Ownership of the physical chunks.
    pool: ChunkPool,
}

impl Controller {
    /// Creates an empty controller.
    ///
    /// # Panics
    /// Panics on a zero-sized configuration.
    pub fn new(config: ControllerConfig) -> Self {
        assert!(config.chunks > 0 && config.entries_per_chunk > 0 && config.max_vms > 0);
        assert!(
            config.max_vms <= config.chunks,
            "every VM needs at least one chunk"
        );
        Controller {
            config,
            qms: Vec::new(),
            cores: Vec::new(),
            pool: ChunkPool::new(config.chunks),
        }
    }

    /// Controller configuration.
    pub fn config(&self) -> ControllerConfig {
        self.config
    }

    /// Registers a VM, carving its subqueue out of the chunk pool and
    /// rebalancing every subqueue to the new proportional targets.
    ///
    /// # Panics
    /// Panics if the VM is already registered, the QM table is full, or
    /// `cores` is zero.
    pub fn register_vm(&mut self, vm: VmId, kind: VmKind, cores: usize) {
        assert!(cores > 0, "a VM needs at least one core");
        assert!(
            self.qms.len() < self.config.max_vms,
            "all QM/VM-state pairs in use"
        );
        assert!(
            self.qm_index(vm).is_none(),
            "VM already registered with the controller"
        );
        self.qms.push(QueueManager::new(
            vm,
            kind,
            Subqueue::new(0, self.config.entries_per_chunk),
        ));
        self.cores.push(cores);
        self.rebalance();
    }

    /// Deregisters a VM; its chunks return to the pool and are redistributed
    /// to the remaining subqueues.
    ///
    /// # Panics
    /// Panics if the VM is unknown.
    pub fn deregister_vm(&mut self, vm: VmId) {
        let idx = self.qm_index(vm).expect("VM not registered");
        let mut qm = self.qms.remove(idx);
        self.cores.remove(idx);
        while let Some(chunk) = qm.rq_map_mut().donate_tail() {
            self.pool.release(chunk, vm.0);
        }
        self.rebalance();
    }

    /// Re-splits chunks proportionally to core counts. Every registered VM
    /// keeps at least one chunk.
    fn rebalance(&mut self) {
        if self.qms.is_empty() {
            return;
        }
        let total_cores: usize = self.cores.iter().sum();
        let total_chunks = self.config.chunks;
        // Largest-remainder proportional split with a floor of 1.
        let n = self.qms.len();
        let mut targets: Vec<usize> = self
            .cores
            .iter()
            .map(|&c| ((total_chunks * c) as f64 / total_cores as f64).floor() as usize)
            .map(|t| t.max(1))
            .collect();
        let mut assigned: usize = targets.iter().sum();
        // Hand out leftovers (or claw back overshoot) round-robin by
        // largest fractional share — order by core count for determinism.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.cores[i]));
        let mut k = 0;
        while assigned < total_chunks {
            targets[order[k % n]] += 1;
            assigned += 1;
            k += 1;
        }
        while assigned > total_chunks {
            let i = order[k % n];
            if targets[i] > 1 {
                targets[i] -= 1;
                assigned -= 1;
            }
            k += 1;
        }

        // Phase 1: shed from over-target subqueues into the pool. Chunks
        // leave from the tail of each RQ-Map (Section 4.1.2).
        for (i, qm) in self.qms.iter_mut().enumerate() {
            let have = qm.queue().chunks();
            if have > targets[i] {
                let shed = qm.queue_mut().shed_chunks(have - targets[i]);
                let owner = qm.vm().0;
                for _ in 0..shed {
                    let chunk = qm
                        .rq_map_mut()
                        .donate_tail()
                        .expect("RQ-Map tracks the subqueue's chunks");
                    self.pool.release(chunk, owner);
                }
            }
        }
        // Phase 2: grow under-target subqueues from the pool; received
        // chunks append at the RQ-Map tail.
        for (i, qm) in self.qms.iter_mut().enumerate() {
            let have = qm.queue().chunks();
            if have < targets[i] {
                let want = targets[i] - have;
                let owner = qm.vm().0;
                let take = want.min(self.pool.free());
                for _ in 0..take {
                    let chunk = self.pool.allocate(owner).expect("free checked");
                    qm.rq_map_mut().append(chunk);
                }
                qm.queue_mut().add_chunks(take);
            }
        }
    }

    fn qm_index(&self, vm: VmId) -> Option<usize> {
        self.qms.iter().position(|q| q.vm() == vm)
    }

    /// The QM of a VM.
    ///
    /// # Panics
    /// Panics if the VM is unknown.
    pub fn qm(&self, vm: VmId) -> &QueueManager {
        let i = self.qm_index(vm).expect("VM not registered");
        &self.qms[i]
    }

    /// Mutable QM of a VM.
    ///
    /// # Panics
    /// Panics if the VM is unknown.
    pub fn qm_mut(&mut self, vm: VmId) -> &mut QueueManager {
        let i = self.qm_index(vm).expect("VM not registered");
        &mut self.qms[i]
    }

    /// All registered QMs.
    pub fn qms(&self) -> &[QueueManager] {
        &self.qms
    }

    /// Routes a NIC arrival to the destination VM's QM (Figure 8(a) steps
    /// 3–4).
    ///
    /// # Panics
    /// Panics if the VM is unknown.
    pub fn enqueue(&mut self, vm: VmId, token: u64, now: Cycles) -> EnqueueOutcome {
        self.qm_mut(vm).enqueue(token, now)
    }

    /// Chunks not currently owned by any subqueue.
    pub fn free_chunks(&self) -> usize {
        self.pool.free()
    }

    /// Invariant check: owned + free chunks equals the physical total, the
    /// pool's ownership records are consistent, and every QM's RQ-Map
    /// agrees with its subqueue's chunk count.
    pub fn chunk_accounting_ok(&self) -> bool {
        let owned: usize = self.qms.iter().map(|q| q.queue().chunks()).sum();
        owned + self.pool.free() == self.config.chunks
            && self.pool.accounting_ok()
            && self.qms.iter().all(|q| {
                q.rq_map().len() == q.queue().chunks()
                    && self.pool.owned_by(q.vm().0).len() == q.queue().chunks()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1_with_vms(vms: &[(u16, VmKind, usize)]) -> Controller {
        let mut c = Controller::new(ControllerConfig::table1());
        for &(id, kind, cores) in vms {
            c.register_vm(VmId(id), kind, cores);
        }
        c
    }

    #[test]
    fn single_vm_owns_all_chunks() {
        let c = table1_with_vms(&[(0, VmKind::Primary, 4)]);
        assert_eq!(c.qm(VmId(0)).queue().chunks(), 32);
        assert!(c.chunk_accounting_ok());
    }

    #[test]
    fn paper_configuration_split() {
        // 8 Primary VMs × 4 cores + 1 Harvest VM × 4 cores = 36 cores.
        let mut spec: Vec<(u16, VmKind, usize)> = (0..8).map(|i| (i, VmKind::Primary, 4)).collect();
        spec.push((8, VmKind::Harvest, 4));
        let c = table1_with_vms(&spec);
        assert!(c.chunk_accounting_ok());
        for vm in 0..9u16 {
            let chunks = c.qm(VmId(vm)).queue().chunks();
            assert!((3..=4).contains(&chunks), "vm{vm} got {chunks} chunks");
        }
        assert_eq!(c.free_chunks(), 0);
    }

    #[test]
    fn arrival_then_departure_rebalances() {
        let mut c = table1_with_vms(&[(0, VmKind::Primary, 4), (1, VmKind::Primary, 4)]);
        assert_eq!(c.qm(VmId(0)).queue().chunks(), 16);
        c.register_vm(VmId(2), VmKind::Harvest, 8);
        assert!(c.chunk_accounting_ok());
        assert_eq!(c.qm(VmId(2)).queue().chunks(), 16);
        assert_eq!(c.qm(VmId(0)).queue().chunks(), 8);
        c.deregister_vm(VmId(2));
        assert!(c.chunk_accounting_ok());
        assert_eq!(c.qm(VmId(0)).queue().chunks(), 16);
    }

    #[test]
    fn queued_entries_survive_rebalance() {
        let mut c = table1_with_vms(&[(0, VmKind::Primary, 4)]);
        for t in 0..100 {
            c.enqueue(VmId(0), t, Cycles::ZERO);
        }
        c.register_vm(VmId(1), VmKind::Harvest, 32);
        assert!(c.chunk_accounting_ok());
        // All 100 requests still dequeue in order.
        let mut got = Vec::new();
        while let Some((t, _, _)) = c.qm_mut(VmId(0)).dequeue() {
            got.push(t);
            c.qm_mut(VmId(0)).complete(t);
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_registration_panics() {
        table1_with_vms(&[(0, VmKind::Primary, 4), (0, VmKind::Primary, 4)]);
    }

    #[test]
    #[should_panic(expected = "all QM")]
    fn qm_exhaustion_panics() {
        let spec: Vec<(u16, VmKind, usize)> = (0..17).map(|i| (i, VmKind::Primary, 1)).collect();
        table1_with_vms(&spec);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_vm_panics() {
        table1_with_vms(&[(0, VmKind::Primary, 4)]).qm(VmId(9));
    }

    #[test]
    fn sixteen_vms_each_get_two_chunks() {
        let spec: Vec<(u16, VmKind, usize)> = (0..16).map(|i| (i, VmKind::Primary, 2)).collect();
        let c = table1_with_vms(&spec);
        assert!(c.chunk_accounting_ok());
        for vm in 0..16u16 {
            assert_eq!(c.qm(VmId(vm)).queue().chunks(), 2);
        }
    }
}
