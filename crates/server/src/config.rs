//! System specification: the five evaluated architectures, the ablation
//! knobs, and the reassignment latencies.

use hh_hwqueue::ControllerConfig;
use hh_mem::{HierarchyConfig, LlcConfig, PolicyKind};
use hh_sim::Cycles;
use hh_workload::{BatchCatalog, CatalogKind};
use serde::{Deserialize, Serialize};

/// When a Primary-VM core may be stolen (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HarvestMode {
    /// No harvesting; idle cores stay idle (the NoHarvest baseline).
    Disabled,
    /// Steal only cores idle because a request *terminated* (-Term).
    OnTermination,
    /// Also steal cores idle because a request *blocked on I/O* (-Block).
    OnBlock,
    /// The paper's Section 4.1.5 future-work policy, implemented here as an
    /// extension: steal on blocking calls only while the VM's observed
    /// block durations are long enough to amortize the switch; otherwise
    /// behave like `-Term`.
    Adaptive,
}

impl HarvestMode {
    /// Whether harvesting is on at all.
    pub fn enabled(self) -> bool {
        !matches!(self, HarvestMode::Disabled)
    }
}

/// The cumulative hardware-optimization flags of Figures 12/13/15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OptFlags {
    /// In-hardware request scheduling: QMs notify cores instantly instead
    /// of cores polling and the agent deciding at ticks (+Sched).
    pub hw_sched: bool,
    /// Dedicated SRAM request queues instead of memory-mapped queues
    /// (+Queue).
    pub hw_queue: bool,
    /// In-hardware context save/restore incl. VM state registers
    /// (+CtxtSw).
    pub hw_ctxtsw: bool,
    /// Harvest/non-harvest way partitioning of private caches and TLBs
    /// (+Part). Off ⇒ full flush on every cross-VM switch.
    pub partition: bool,
    /// Efficient hardware flush/invalidate engine (+Flush).
    pub fast_flush: bool,
    /// The Algorithm 1 replacement policy (the final HardHarvest step);
    /// off ⇒ LRU.
    pub smart_repl: bool,
}

impl OptFlags {
    /// Everything on — the full HardHarvest design.
    pub fn all() -> Self {
        OptFlags {
            hw_sched: true,
            hw_queue: true,
            hw_ctxtsw: true,
            partition: true,
            fast_flush: true,
            smart_repl: true,
        }
    }
}

/// Software-path detach/attach cost class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwReassign {
    /// Stock KVM hypervisor calls: ≈2.5 ms detach/attach + ≈2.5 ms context
    /// load (Section 3: "moving a core across VMs takes ~5 ms").
    Kvm,
    /// SmartHarvest's optimized path: ≈100 µs + ≈100 µs.
    Optimized,
}

// Latencies of the reassignment and dispatch paths, calibrated to the
// paper (Sections 3 and 4.1.1). The flush latencies live in
// `hh_mem::flush`.

/// KVM detach+attach hypervisor calls (with [`KVM_CTXT`], Section 3's
/// "moving a core across VMs takes ~5 ms").
pub(crate) const KVM_DETACH_ATTACH: Cycles = Cycles::from_ms(2.5);
/// KVM VM-context load.
pub(crate) const KVM_CTXT: Cycles = Cycles::from_ms(2.5);
/// SmartHarvest optimized detach+attach.
pub(crate) const OPT_DETACH_ATTACH: Cycles = Cycles::from_us(100.0);
/// SmartHarvest optimized context load.
pub(crate) const OPT_CTXT: Cycles = Cycles::from_us(100.0);
/// Hardware QM-mediated reassignment (no hypervisor): "a few µs".
pub(crate) const HW_REASSIGN: Cycles = Cycles::from_us(2.0);
/// Hardware context switch (µManycore-style): "a few 10s of ns".
pub(crate) const HW_CTXT: Cycles = Cycles::from_ns(50.0);
/// Software request-dispatch overhead (thread wake + queue pop).
pub(crate) const SW_DISPATCH: Cycles = Cycles::from_ns(600.0);
/// Median extra delay before a polling core notices ready work and the
/// software scheduler dispatches it (no hardware scheduler). Sampled
/// lognormally — the tail of software wake-ups is long.
pub(crate) const POLL_MEDIAN: Cycles = Cycles::from_us(18.0);
/// Extra per-dequeue cost of a memory-mapped queue vs the SRAM queue
/// (lock + coherence misses).
pub(crate) const MM_QUEUE: Cycles = Cycles::from_ns(500.0);
/// Software harvesting-agent monitoring period.
pub(crate) const AGENT_TICK: Cycles = Cycles::from_us(500.0);
/// Emergency-buffer attach cost (SmartHarvest keeps standby cores that
/// can be handed to a Primary VM quickly).
pub(crate) const BUFFER_ATTACH: Cycles = Cycles::from_us(30.0);

/// A complete evaluated system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemSpec {
    /// Figure label.
    pub name: &'static str,
    /// Harvesting aggressiveness.
    pub mode: HarvestMode,
    /// Hardware-optimization flags.
    pub opts: OptFlags,
    /// Software reassignment class used when `opts.hw_sched`/`hw_ctxtsw`
    /// are off.
    pub sw_reassign: SwReassign,
    /// Whether cross-VM switches flush at all (Figure 4 isolates
    /// reassignment cost by never flushing).
    pub flush_enabled: bool,
    /// Whether reassignment costs are paid (Figure 5's Flush-* bars
    /// isolate flushing by making reassignment free).
    pub reassign_enabled: bool,
    /// Whether the Harvest VM actually executes work (Figure 4 runs an
    /// always-idle Harvest VM so caches stay unpolluted).
    pub harvest_busy: bool,
    /// Emergency-buffer size for software harvesting (0 for hardware).
    pub buffer_cores: usize,
    /// Cap on simultaneously-loaned cores per Primary VM. The paper's
    /// Figure 4 characterization moves one core at a time; production
    /// software harvesting is similarly conservative. Hardware harvesting
    /// has no such cap (`usize::MAX`).
    pub max_loaned_per_vm: usize,
}

impl SystemSpec {
    fn base(name: &'static str, mode: HarvestMode) -> Self {
        SystemSpec {
            name,
            mode,
            opts: OptFlags::default(),
            sw_reassign: SwReassign::Optimized,
            flush_enabled: true,
            reassign_enabled: true,
            harvest_busy: true,
            // SmartHarvest steals per idle event (that is why it needs an
            // emergency buffer for the common reclaim), but leaves each VM
            // one resident core of headroom; the buffer and headroom serve
            // the median request, mispredicted bursts pay the full
            // software reassignment in the tail.
            buffer_cores: 2,
            max_loaned_per_vm: usize::MAX,
        }
    }

    /// The conventional no-harvesting system.
    pub fn no_harvest() -> Self {
        let mut s = Self::base("NoHarvest", HarvestMode::Disabled);
        s.buffer_cores = 0;
        s
    }

    /// [`SystemSpec::no_harvest`] under a figure-specific label (e.g.
    /// Figure 4's "No-Move", Figure 5's "No Flush").
    pub fn no_harvest_named(name: &'static str) -> Self {
        let mut s = Self::no_harvest();
        s.name = name;
        s
    }

    /// SmartHarvest-style software harvesting on request termination —
    /// the paper's baseline.
    pub fn harvest_term() -> Self {
        Self::base("Harvest-Term", HarvestMode::OnTermination)
    }

    /// Software harvesting that also steals on blocking I/O.
    pub fn harvest_block() -> Self {
        Self::base("Harvest-Block", HarvestMode::OnBlock)
    }

    /// HardHarvest stealing only on termination.
    pub fn hardharvest_term() -> Self {
        SystemSpec {
            opts: OptFlags::all(),
            buffer_cores: 0,
            max_loaned_per_vm: usize::MAX,
            ..Self::base("HardHarvest-Term", HarvestMode::OnTermination)
        }
    }

    /// HardHarvest stealing on termination and on blocking I/O — the
    /// paper's full proposal.
    pub fn hardharvest_block() -> Self {
        SystemSpec {
            opts: OptFlags::all(),
            buffer_cores: 0,
            max_loaned_per_vm: usize::MAX,
            ..Self::base("HardHarvest-Block", HarvestMode::OnBlock)
        }
    }

    /// The Section 4.1.5 future-work extension: HardHarvest that harvests
    /// on blocking calls only when a VM's blocks are long enough to be
    /// worth it.
    pub fn hardharvest_adaptive() -> Self {
        SystemSpec {
            opts: OptFlags::all(),
            buffer_cores: 0,
            max_loaned_per_vm: usize::MAX,
            ..Self::base("HardHarvest-Adaptive", HarvestMode::Adaptive)
        }
    }

    /// The five headline systems in figure order.
    pub fn evaluated_five() -> Vec<SystemSpec> {
        vec![
            Self::no_harvest(),
            Self::harvest_term(),
            Self::harvest_block(),
            Self::hardharvest_term(),
            Self::hardharvest_block(),
        ]
    }

    /// The Figure 12 cumulative ladder, starting from `harvest_block`.
    pub fn fig12_ladder() -> Vec<SystemSpec> {
        type Step = (&'static str, fn(&mut OptFlags));
        let mut out = vec![Self::harvest_term(), Self::harvest_block()];
        let mut s = Self::harvest_block();
        let steps: [Step; 6] = [
            ("+Sched", |o| o.hw_sched = true),
            ("+Queue", |o| o.hw_queue = true),
            ("+CtxtSw", |o| o.hw_ctxtsw = true),
            ("+Part", |o| o.partition = true),
            ("+Flush", |o| o.fast_flush = true),
            ("HardHarvest", |o| o.smart_repl = true),
        ];
        for (name, apply) in steps {
            apply(&mut s.opts);
            s.name = name;
            // The emergency buffer compensates for *expensive* software
            // reassignment; it becomes pointless only once context switch
            // and flush are both handled in hardware.
            if s.opts.hw_ctxtsw && s.opts.partition {
                s.buffer_cores = 0;
            }
            out.push(s);
        }
        out
    }

    /// The Figure 13 ablation: CtxtSw only, Sched only, both.
    pub fn fig13_ablation() -> Vec<SystemSpec> {
        let mk = |name, sched, ctxt| {
            let mut s = Self::harvest_block();
            s.name = name;
            s.opts.hw_sched = sched;
            s.opts.hw_ctxtsw = ctxt;
            s
        };
        vec![
            Self::harvest_block(),
            mk("+CtxtSw", false, true),
            mk("+Sched", true, false),
            mk("+CtxtSw&Sched", true, true),
        ]
    }

    /// The Figure 15 ladder: optimizations on NoHarvest (no harvesting, so
    /// partition/flush are irrelevant; the final step is the replacement
    /// policy alone).
    pub fn fig15_ladder() -> Vec<SystemSpec> {
        type Step = (&'static str, fn(&mut OptFlags));
        let mut out = vec![Self::no_harvest()];
        let mut s = Self::no_harvest();
        let steps: [Step; 4] = [
            ("+Sched", |o| o.hw_sched = true),
            ("+Queue", |o| o.hw_queue = true),
            ("+CtxtSw", |o| o.hw_ctxtsw = true),
            ("+ReplPolicy", |o| o.smart_repl = true),
        ];
        for (name, apply) in steps {
            apply(&mut s.opts);
            s.name = name;
            out.push(s);
        }
        out
    }

    /// The cache replacement policy this system runs in private
    /// caches/TLBs.
    pub fn cache_policy(&self) -> PolicyKind {
        if self.opts.smart_repl {
            PolicyKind::hardharvest_default()
        } else {
            PolicyKind::Lru
        }
    }
}

/// Everything needed to simulate one server.
#[derive(Debug, Clone, Serialize)]
pub struct ServerConfig {
    /// The evaluated system.
    pub system: SystemSpec,
    /// Cores per server (Table 1: 36).
    pub cores: usize,
    /// Number of Primary VMs (8).
    pub primary_vms: usize,
    /// Cores per Primary VM (4 — the most common Alibaba instance size).
    pub cores_per_primary: usize,
    /// Private-hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// Shared LLC geometry.
    pub llc: LlcConfig,
    /// Fraction of private-structure ways in the harvest region (Table 1:
    /// 50 %).
    pub harvest_frac: f64,
    /// Average offered load per Primary VM in requests/second (the paper
    /// drives 65–250 RPS per core on 4-core VMs).
    pub rps_per_vm: f64,
    /// Invocations to complete per Primary VM before stopping.
    pub requests_per_vm: usize,
    /// Which batch job index (into [`hh_workload::BatchCatalog`]) the
    /// Harvest VM runs.
    pub batch_job: usize,
    /// Multiplier applied to batch stall samples (the unit streams are
    /// subsampled for simulation speed; see DESIGN.md).
    pub batch_stall_scale: f64,
    /// Way-enable fraction for the Figure 7 capacity study (1.0 = full).
    pub capacity_frac: f64,
    /// Figure 7's idealized infinite caches/TLBs.
    pub infinite_cache: bool,
    /// Override of the eviction-candidate fraction `M` (Figure 19);
    /// `None` keeps the policy default of 0.75.
    pub eviction_candidate_frac: Option<f64>,
    /// Request-queue chunks in the controller (Table 1: 32; the overflow
    /// ablation shrinks this).
    pub rq_chunks: usize,
    /// Which microservice composition the Primary VMs run.
    pub catalog: CatalogKind,
    /// Random seed.
    pub seed: u64,
}

impl ServerConfig {
    /// The replacement policy of the private caches and TLBs: LRU, or
    /// Algorithm 1 ([`SystemSpec::cache_policy`]) with its
    /// eviction-candidate fraction overridden by
    /// [`ServerConfig::eviction_candidate_frac`] when set.
    pub fn cache_policy(&self) -> PolicyKind {
        match (self.system.cache_policy(), self.eviction_candidate_frac) {
            (PolicyKind::HardHarvest { .. }, Some(candidate_frac)) => {
                PolicyKind::HardHarvest { candidate_frac }
            }
            (policy, _) => policy,
        }
    }

    /// Table 1 server with the given system, at a moderate load.
    pub fn table1(system: SystemSpec) -> Self {
        ServerConfig {
            system,
            cores: 36,
            primary_vms: 8,
            cores_per_primary: 4,
            hierarchy: HierarchyConfig::table1(),
            llc: LlcConfig::table1(),
            harvest_frac: 0.5,
            rps_per_vm: 800.0, // 200 RPS/core, inside the paper's 65-250
            requests_per_vm: 1000,
            batch_job: 0,
            batch_stall_scale: 16.0,
            capacity_frac: 1.0,
            infinite_cache: false,
            eviction_candidate_frac: None,
            rq_chunks: 32,
            catalog: CatalogKind::SocialNet,
            seed: 0xC0FFEE,
        }
    }

    /// A scaled-down configuration for unit/integration tests: fewer cores
    /// and requests so a test finishes in milliseconds.
    pub fn small(system: SystemSpec) -> Self {
        let mut c = Self::table1(system);
        c.cores = 13;
        c.primary_vms = 2;
        c.requests_per_vm = 120;
        c
    }

    /// Total Primary cores.
    pub fn primary_cores(&self) -> usize {
        self.primary_vms * self.cores_per_primary
    }

    /// Sanity-checks the topology, the controller sizing and the memory
    /// model, so a config that would fail mid-run fails here instead.
    ///
    /// # Panics
    /// Panics with a message naming the field if the Primary VMs leave the
    /// Harvest VM no core, a Primary VM would get no cores, the controller
    /// cannot give every VM a QM and a request-queue chunk, `batch_job` is
    /// not a batch catalog index, MSHR modeling asks for zero MSHRs,
    /// `capacity_frac` or `eviction_candidate_frac` is outside `(0, 1]`,
    /// `batch_stall_scale` is below 1, `harvest_frac` is outside `(0, 1)`,
    /// `rps_per_vm` is not finite and positive, or `requests_per_vm` is
    /// zero.
    pub fn validate(&self) {
        assert!(self.primary_vms > 0, "primary_vms must be at least 1");
        assert!(
            self.cores_per_primary > 0,
            "cores_per_primary must be at least 1"
        );
        assert!(
            self.primary_cores() < self.cores,
            "Primary VMs oversubscribe the server: the Harvest VM needs at least one core"
        );
        // One QM per VM (Primary VMs plus the Harvest VM), each owning at
        // least one chunk; chunk ids are 5 bits wide.
        let vms = self.primary_vms + 1;
        let max_qms = ControllerConfig::table1().max_vms;
        assert!(
            vms <= max_qms,
            "{vms} VMs exceed the controller's {max_qms} QMs"
        );
        assert!(
            (vms..=32).contains(&self.rq_chunks),
            "rq_chunks {} is outside [{vms}, 32]: one chunk per VM, 5-bit chunk ids",
            self.rq_chunks
        );
        let jobs = BatchCatalog::paper().len();
        assert!(
            self.batch_job < jobs,
            "batch_job {} is not a batch catalog index (0..{jobs})",
            self.batch_job
        );
        assert!(
            self.hierarchy.mshrs != Some(0),
            "hierarchy.mshrs must be None or at least 1"
        );
        assert!(
            self.capacity_frac > 0.0 && self.capacity_frac <= 1.0,
            "capacity_frac {} is outside (0, 1]",
            self.capacity_frac
        );
        if let Some(m) = self.eviction_candidate_frac {
            assert!(
                m > 0.0 && m <= 1.0,
                "eviction_candidate_frac {m} is outside (0, 1]"
            );
        }
        assert!(
            self.batch_stall_scale >= 1.0,
            "batch_stall_scale {} must be at least 1",
            self.batch_stall_scale
        );
        assert!(
            self.harvest_frac > 0.0 && self.harvest_frac < 1.0,
            "harvest_frac {} is outside (0, 1)",
            self.harvest_frac
        );
        assert!(
            self.rps_per_vm.is_finite() && self.rps_per_vm > 0.0,
            "rps_per_vm {} must be finite and positive",
            self.rps_per_vm
        );
        assert!(
            self.requests_per_vm > 0,
            "requests_per_vm must be at least 1"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_systems_have_expected_shape() {
        let five = SystemSpec::evaluated_five();
        assert_eq!(five.len(), 5);
        assert_eq!(five[0].name, "NoHarvest");
        assert!(!five[0].mode.enabled());
        assert_eq!(five[1].mode, HarvestMode::OnTermination);
        assert_eq!(five[2].mode, HarvestMode::OnBlock);
        assert_eq!(five[3].opts, OptFlags::all());
        assert_eq!(five[4].name, "HardHarvest-Block");
        assert_eq!(five[4].mode, HarvestMode::OnBlock);
    }

    #[test]
    fn software_systems_keep_a_buffer_and_hardware_does_not() {
        assert_eq!(SystemSpec::harvest_term().buffer_cores, 2);
        assert_eq!(SystemSpec::hardharvest_block().buffer_cores, 0);
    }

    #[test]
    fn fig12_ladder_is_cumulative() {
        let ladder = SystemSpec::fig12_ladder();
        assert_eq!(ladder.len(), 8);
        assert_eq!(ladder[2].name, "+Sched");
        assert!(ladder[2].opts.hw_sched && !ladder[2].opts.hw_queue);
        assert!(ladder[4].opts.hw_ctxtsw && !ladder[4].opts.partition);
        let last = ladder.last().unwrap();
        assert_eq!(last.name, "HardHarvest");
        assert_eq!(last.opts, OptFlags::all());
    }

    #[test]
    fn fig13_ablation_combos() {
        let a = SystemSpec::fig13_ablation();
        assert_eq!(a.len(), 4);
        assert!(!a[1].opts.hw_sched && a[1].opts.hw_ctxtsw);
        assert!(a[2].opts.hw_sched && !a[2].opts.hw_ctxtsw);
        assert!(a[3].opts.hw_sched && a[3].opts.hw_ctxtsw);
    }

    #[test]
    fn fig15_ladder_never_harvests() {
        for s in SystemSpec::fig15_ladder() {
            assert!(!s.mode.enabled(), "{}", s.name);
            assert!(!s.opts.partition && !s.opts.fast_flush);
        }
    }

    #[test]
    fn config_cache_policy_applies_the_figure_19_fraction() {
        let mut c = ServerConfig::small(SystemSpec::hardharvest_block());
        assert_eq!(c.cache_policy(), PolicyKind::hardharvest_default());
        c.eviction_candidate_frac = Some(0.25);
        assert_eq!(
            c.cache_policy(),
            PolicyKind::HardHarvest {
                candidate_frac: 0.25
            }
        );
        // LRU systems have no candidate window to override.
        c.system = SystemSpec::no_harvest();
        assert_eq!(c.cache_policy(), PolicyKind::Lru);
    }

    #[test]
    fn cache_policy_tracks_smart_repl() {
        assert_eq!(SystemSpec::no_harvest().cache_policy(), PolicyKind::Lru);
        assert_eq!(
            SystemSpec::hardharvest_block().cache_policy(),
            PolicyKind::hardharvest_default()
        );
    }

    #[test]
    fn table1_config_validates() {
        let c = ServerConfig::table1(SystemSpec::hardharvest_block());
        c.validate();
        assert_eq!(c.primary_cores(), 32);
        ServerConfig::small(SystemSpec::no_harvest()).validate();
    }

    #[test]
    #[should_panic(expected = "oversubscribe")]
    fn oversubscription_panics() {
        let mut c = ServerConfig::table1(SystemSpec::no_harvest());
        c.cores = 8;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "hierarchy.mshrs must be None or at least 1")]
    fn zero_mshrs_are_rejected() {
        let mut c = ServerConfig::small(SystemSpec::hardharvest_block());
        c.hierarchy.mshrs = Some(0);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn capacity_fraction_outside_unit_interval_is_rejected() {
        let mut c = ServerConfig::small(SystemSpec::hardharvest_block());
        c.capacity_frac = 0.0;
        c.validate();
    }

    /// A `small` server with one field broken; `validate` must reject it.
    fn rejects(edit: impl FnOnce(&mut ServerConfig)) {
        let mut c = ServerConfig::small(SystemSpec::hardharvest_block());
        edit(&mut c);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "primary_vms must be at least 1")]
    fn zero_primary_vms_are_rejected() {
        rejects(|c| c.primary_vms = 0);
    }

    #[test]
    #[should_panic(expected = "cores_per_primary must be at least 1")]
    fn zero_cores_per_primary_are_rejected() {
        rejects(|c| c.cores_per_primary = 0);
    }

    #[test]
    #[should_panic(expected = "the Harvest VM needs at least one core")]
    fn harvest_vm_without_cores_is_rejected() {
        rejects(|c| c.cores = c.primary_cores());
    }

    #[test]
    #[should_panic(expected = "exceed the controller's 16 QMs")]
    fn more_vms_than_qms_are_rejected() {
        rejects(|c| {
            c.primary_vms = 16;
            c.cores = 16 * c.cores_per_primary + 1;
        });
    }

    #[test]
    #[should_panic(expected = "rq_chunks 2 is outside [3, 32]")]
    fn fewer_chunks_than_vms_are_rejected() {
        rejects(|c| c.rq_chunks = 2);
    }

    #[test]
    #[should_panic(expected = "rq_chunks 0 is outside")]
    fn zero_chunks_are_rejected() {
        rejects(|c| c.rq_chunks = 0);
    }

    #[test]
    #[should_panic(expected = "rq_chunks 33 is outside")]
    fn chunk_ids_past_five_bits_are_rejected() {
        rejects(|c| c.rq_chunks = 33);
    }

    #[test]
    #[should_panic(expected = "batch_job 99 is not a batch catalog index")]
    fn unknown_batch_job_is_rejected() {
        rejects(|c| c.batch_job = 99);
    }

    #[test]
    #[should_panic(expected = "eviction_candidate_frac 0 is outside (0, 1]")]
    fn zero_candidate_fraction_is_rejected() {
        rejects(|c| c.eviction_candidate_frac = Some(0.0));
    }

    #[test]
    #[should_panic(expected = "eviction_candidate_frac 2 is outside (0, 1]")]
    fn candidate_fraction_above_one_is_rejected() {
        rejects(|c| c.eviction_candidate_frac = Some(2.0));
    }

    #[test]
    #[should_panic(expected = "eviction_candidate_frac NaN is outside (0, 1]")]
    fn nan_candidate_fraction_is_rejected() {
        rejects(|c| c.eviction_candidate_frac = Some(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "batch_stall_scale 0.5 must be at least 1")]
    fn batch_stall_scale_below_one_is_rejected() {
        rejects(|c| c.batch_stall_scale = 0.5);
    }

    #[test]
    #[should_panic(expected = "batch_stall_scale NaN must be at least 1")]
    fn nan_batch_stall_scale_is_rejected() {
        rejects(|c| c.batch_stall_scale = f64::NAN);
    }

    #[test]
    #[should_panic(expected = "rps_per_vm inf must be finite and positive")]
    fn infinite_rate_is_rejected() {
        rejects(|c| c.rps_per_vm = f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "rps_per_vm 0 must be finite and positive")]
    fn zero_rate_is_rejected() {
        rejects(|c| c.rps_per_vm = 0.0);
    }

    #[test]
    #[should_panic(expected = "rps_per_vm NaN must be finite and positive")]
    fn nan_rate_is_rejected() {
        rejects(|c| c.rps_per_vm = f64::NAN);
    }

    #[test]
    #[should_panic(expected = "requests_per_vm must be at least 1")]
    fn zero_requests_are_rejected() {
        rejects(|c| c.requests_per_vm = 0);
    }

    #[test]
    #[should_panic(expected = "harvest_frac 0 is outside (0, 1)")]
    fn zero_harvest_fraction_is_rejected() {
        rejects(|c| c.harvest_frac = 0.0);
    }

    #[test]
    #[should_panic(expected = "harvest_frac 1 is outside (0, 1)")]
    fn full_harvest_fraction_is_rejected() {
        rejects(|c| c.harvest_frac = 1.0);
    }

    #[test]
    #[should_panic(expected = "harvest_frac NaN is outside (0, 1)")]
    fn nan_harvest_fraction_is_rejected() {
        rejects(|c| c.harvest_frac = f64::NAN);
    }

    #[test]
    fn latency_model_matches_paper_anchors() {
        use hh_mem::flush;
        // KVM total ≈ 5 ms; optimized ≈ 200 µs; hardware ≈ 2 µs; with
        // hardware context switching ≈ 50 ns.
        assert!(((KVM_DETACH_ATTACH + KVM_CTXT).as_ms() - 5.0).abs() < 0.01);
        assert!(((OPT_DETACH_ATTACH + OPT_CTXT).as_us() - 200.0).abs() < 0.1);
        assert!((HW_REASSIGN.as_us() - 2.0).abs() < 0.1);
        assert!((HW_CTXT.as_ns() - 50.0).abs() < 2.0);
        // wbinvd 300–500 µs; hardware full flush 3 µs; region flush 1000
        // cycles (Table 1).
        assert!((flush::SOFTWARE_MIN.as_us() - 300.0).abs() < 0.1);
        assert!((flush::SOFTWARE_MAX.as_us() - 500.0).abs() < 0.1);
        assert!((flush::HARDWARE_FULL.as_us() - 3.0).abs() < 0.1);
        assert_eq!(flush::HARDWARE_REGION, Cycles::new(1000));
        // A constant evaluated at compile time equals the same conversion
        // at run time, so the constants reproduce the tables exactly.
        let rt = std::hint::black_box;
        assert_eq!(KVM_CTXT, Cycles::from_ms(rt(2.5)));
        assert_eq!(OPT_CTXT, Cycles::from_us(rt(100.0)));
        assert_eq!(HW_CTXT, Cycles::from_ns(rt(50.0)));
        assert_eq!(POLL_MEDIAN, Cycles::from_us(rt(18.0)));
        assert_eq!(flush::SOFTWARE_MAX, Cycles::from_us(rt(500.0)));
    }
}
