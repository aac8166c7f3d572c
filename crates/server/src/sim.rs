//! The per-server discrete-event simulation.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use hh_hwqueue::{Controller, ControllerConfig, EnqueueOutcome, VmKind};
use hh_mem::{flush, CoreMem, Dram, Llc, Visibility, WalkTrace};
use hh_noc::{ControlTree, Mesh2D};
use hh_sim::invariant::{invariant, InvariantSet, InvariantViolation};
use hh_sim::{CoreId, Cycles, EventQueue, Reserved, Rng64, VmId};
use hh_trace::{trace_event, trace_gauge, trace_hist};
use hh_trace::{FlushScope, ReassignKind, TraceEvent, TraceSession, NO_INDEX};
use hh_workload::{
    BatchCatalog, BatchJob, LoadGen, RequestPlan, ServiceCatalog, ServiceId, StreamSpec,
};

use crate::config::{
    AGENT_TICK, BUFFER_ATTACH, HW_CTXT, HW_REASSIGN, KVM_CTXT, KVM_DETACH_ATTACH, MM_QUEUE,
    OPT_CTXT, OPT_DETACH_ATTACH, POLL_MEDIAN, SW_DISPATCH,
};
use crate::walks::{Board, HelperMode, Job, ThreadSlot};
use crate::{HarvestMode, ServerConfig, ServerMetrics, SwReassign};

/// Minimum EWMA block duration (µs) for [`HarvestMode::Adaptive`] to keep
/// stealing on blocking calls: shorter blocks cannot amortize a core's
/// round trip to the Harvest VM.
const ADAPTIVE_BLOCK_THRESHOLD_US: f64 = 120.0;

/// Why a core most recently became idle — determines stealability
/// (Term vs Block, Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IdleReason {
    /// Idle because a request completed (stealable in both modes).
    Termination,
    /// Idle because the running request blocked on I/O (stealable only in
    /// -Block systems).
    Blocked,
}

/// What a core does once its transition latency elapses.
#[derive(Debug, Clone, Copy, PartialEq)]
enum After {
    /// Become a Harvest-VM worker (extra `start_delay` before the first
    /// unit covers the side-channel-free flush window).
    ServeHarvest { start_delay: Cycles },
    /// Execute a specific dequeued request.
    ServeReq { token: u64 },
    /// Join the emergency buffer (software harvesting).
    JoinBuffer,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Run {
    Idle,
    Req { token: u64 },
    Unit { end: Cycles },
    Transition { after: After },
}

#[derive(Debug)]
struct Core {
    run: Run,
    /// The VM this core is logically bound to (its `MyManager`).
    bound: usize,
    /// VM whose microarchitectural state is resident, `None` right after a
    /// full flush.
    resident: Option<usize>,
    idle_reason: IdleReason,
    in_buffer: bool,
    /// If a buffer core is temporarily serving a VM, which one.
    temp_for: Option<usize>,
    /// Background harvest-region flush completion time.
    hidden_until: Cycles,
    /// Generation counter guarding against stale completion events.
    gen: u64,
}

#[derive(Debug)]
struct Req {
    plan: RequestPlan,
    phase: usize,
    arrival: Cycles,
    exec: Cycles,
    io: Cycles,
    reassign_wait: Cycles,
    flush_wait: Cycles,
}

#[derive(Debug)]
enum Ev {
    Arrival { vm: usize },
    IoDone { vm: usize, token: u64 },
    PhaseDone { core: usize, gen: u64 },
    UnitDone { core: usize, gen: u64 },
    TransitionDone { core: usize, gen: u64 },
    AgentTick,
}

/// What completes when a walk's stall is known.
#[derive(Debug, Clone, Copy)]
enum Then {
    /// A request phase: `PhaseDone` after `lead + compute + stalls`.
    Phase {
        vm: usize,
        token: u64,
        lead: Cycles,
        compute: Cycles,
    },
    /// A batch unit, started while `active` other units ran.
    Unit { lead: Cycles, active: usize },
}

/// What waits for the event loop, in issue order: walks and the DDIO
/// deposits issued between them.
#[derive(Debug)]
enum Pending {
    Walk(PendingWalk),
    /// Deposits of `keys` into `vm`'s LLC partition.
    Deposit {
        vm: VmId,
        keys: Vec<u64>,
    },
}

impl Pending {
    fn lower_bound(&self) -> Cycles {
        match self {
            Pending::Walk(w) => w.lower_bound,
            Pending::Deposit { .. } => Cycles::MAX,
        }
    }

    fn is_walk_on(&self, core: usize) -> bool {
        matches!(self, Pending::Walk(w) if w.core == core)
    }
}

/// A walk issued and not yet completed: its private pass is queued on the
/// [`Board`]; its LLC and timing passes and its completion wait for the
/// event loop.
#[derive(Debug)]
struct PendingWalk {
    core: usize,
    /// The core's generation the completion event carries.
    gen: u64,
    /// Issue time.
    start: Cycles,
    /// The completion event's place among equal-timestamp events.
    slot: Reserved,
    /// The earliest time the completion event can fire: the walk's stall
    /// is not known before its timing pass, but it is never negative.
    lower_bound: Cycles,
    dram_weight: f64,
    then: Then,
}

/// Cost breakdown of one cross-VM switch.
#[derive(Debug, Clone, Copy, Default)]
struct SwitchCost {
    /// Time the core is unavailable.
    block: Cycles,
    /// Extra delay before harvest work may start (side-channel window).
    start_delay: Cycles,
    /// Background-flush window hiding harvest ways from the Primary VM.
    hidden: Cycles,
    /// Portion attributable to reassignment machinery.
    reassign_part: Cycles,
    /// Portion attributable to flushing on the critical path.
    flush_part: Cycles,
}

/// One simulated server (Table 1: 36 cores, 8 Primary VMs, 1 Harvest VM).
///
/// # Example
///
/// ```no_run
/// use hh_server::{ServerConfig, ServerSim, SystemSpec};
///
/// let cfg = ServerConfig::small(SystemSpec::hardharvest_block());
/// let metrics = ServerSim::new(cfg).run();
/// assert!(metrics.completed() > 0);
/// ```
#[derive(Debug)]
pub struct ServerSim {
    cfg: ServerConfig,
    catalog: ServiceCatalog,
    job: BatchJob,
    now: Cycles,
    events: EventQueue<Ev>,
    cores: Vec<Core>,
    /// Each core's private hierarchy, shared with the walk executors.
    mems: Vec<Arc<Mutex<CoreMem>>>,
    llc: Llc,
    dram: Dram,
    /// Queued private passes (see the `walks` module).
    board: Arc<Board>,
    /// Walks issued and not yet completed, in issue order (the board's),
    /// and the deposits issued between them.
    pending: VecDeque<Pending>,
    /// The least lower bound in `pending` (`Cycles::MAX` when none).
    pending_bound: Cycles,
    /// Walk traces of completed walks, for reuse.
    spare_traces: Vec<WalkTrace>,
    helper: HelperMode,
    ctrl: Controller,
    tree: ControlTree,
    /// Regular NoC carrying Request-Context-Memory traffic (Section 4.1.8).
    mesh: Mesh2D,
    rng: Rng64,
    requests: BTreeMap<u64, Req>,
    /// Pre-generated arrival streams per Primary VM (reversed: pop()).
    pending_arrivals: Vec<Vec<Cycles>>,
    next_token: u64,
    next_invocation: u64,
    /// Remaining durations of preempted batch units.
    partial_units: Vec<Cycles>,
    next_unit: u64,
    /// Emergency-buffer membership (software harvesting).
    buffer: Vec<usize>,
    /// EWMA of busy cores per Primary VM (agent prediction).
    ewma_busy: Vec<f64>,
    /// EWMA of observed block durations per Primary VM, in µs (drives the
    /// Adaptive harvesting policy).
    ewma_block_us: Vec<f64>,
    /// The software harvesting agent is a single user-space actor: its
    /// detach/attach operations serialize. Busy-until horizon.
    agent_busy_until: Cycles,
    /// Cores currently executing batch units (drives the batch job's
    /// sub-linear parallel scaling).
    active_units: usize,
    /// Per-Primary-VM hypervisor-pause horizon: software detach/attach
    /// takes the VM's lock and stalls its vCPUs (the KVM pain the paper
    /// measures in Figure 4). Dispatches before this instant wait.
    vm_paused_until: Vec<Cycles>,
    metrics: ServerMetrics,
    total_requests: u64,
    completed: u64,
    /// Structured tracing session; `None` (one branch per site) unless
    /// tracing is enabled process-wide (`HH_TRACE`, see `hh-trace`).
    trace: Option<Box<TraceSession>>,
}

impl ServerSim {
    /// Builds a cold server.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`ServerConfig::validate`]).
    pub fn new(cfg: ServerConfig) -> Self {
        cfg.validate();
        let catalog = ServiceCatalog::of(cfg.catalog);
        let job = *BatchCatalog::paper().get(cfg.batch_job);
        let policy = cfg.cache_policy();

        let n_primary = cfg.primary_vms;
        let harvest_vm = n_primary; // last VM index
        let mut cores = Vec::with_capacity(cfg.cores);
        let mut mems = Vec::with_capacity(cfg.cores);
        for i in 0..cfg.cores {
            // Core-to-VM binding: `cores_per_primary` per Primary VM; every
            // remaining core binds to the Harvest VM (its base allocation,
            // `cores - primary_cores()`).
            let bound = if i < n_primary * cfg.cores_per_primary {
                i / cfg.cores_per_primary
            } else {
                harvest_vm
            };
            cores.push(Core {
                run: Run::Idle,
                bound,
                resident: None,
                idle_reason: IdleReason::Termination,
                in_buffer: false,
                temp_for: None,
                hidden_until: Cycles::ZERO,
                gen: 0,
            });
            let mut mem = CoreMem::new(&cfg.hierarchy, cfg.harvest_frac, policy);
            if cfg.capacity_frac < 1.0 {
                mem.set_capacity_fraction(cfg.capacity_frac);
            }
            mem.set_infinite(cfg.infinite_cache);
            mems.push(Arc::new(Mutex::new(mem)));
        }

        // LLC: CAT partition per VM, proportional to cores. The LLC scales
        // with the configured core count (`per_core_bytes` semantics).
        let mut vm_cores: Vec<usize> = vec![cfg.cores_per_primary; n_primary];
        vm_cores.push(cfg.cores - n_primary * cfg.cores_per_primary);
        let mut llc_conf = cfg.llc;
        llc_conf.cores = cfg.cores;
        let llc_cfg = llc_conf.as_cache();
        let llc = Llc::new(llc_cfg.sets(), llc_cfg.ways, &vm_cores);

        // Hardware controller bookkeeping (used as the queue substrate in
        // every system; software systems add access latencies on top).
        let base_ctrl = ControllerConfig::table1();
        let mut ctrl = Controller::new(ControllerConfig {
            chunks: cfg.rq_chunks,
            // A shrunken RQ (overflow ablation) provisions fewer QM pairs;
            // every VM still needs one chunk.
            max_vms: base_ctrl.max_vms.min(cfg.rq_chunks),
            ..base_ctrl
        });
        for (vm, &cores_of) in vm_cores.iter().enumerate() {
            let kind = if vm == harvest_vm {
                VmKind::Harvest
            } else {
                VmKind::Primary
            };
            ctrl.register_vm(VmId::from(vm), kind, cores_of);
        }
        for (i, c) in cores.iter().enumerate() {
            ctrl.qm_mut(VmId::from(c.bound)).bind_core(CoreId::from(i));
        }

        // Pre-generate open-loop arrivals per Primary VM.
        let mut pending_arrivals = Vec::with_capacity(n_primary);
        for vm in 0..n_primary {
            // 5x bursts of ~30 ms mean covering ~6% of the time: the
            // millisecond-scale burstiness of production microservice
            // traffic (Section 3, Figure 3).
            let mut lg =
                LoadGen::bursty(cfg.rps_per_vm, 5.0, 30.0, 0.06, cfg.seed ^ (vm as u64) << 8);
            let mut arr = lg.take_arrivals(cfg.requests_per_vm);
            arr.reverse(); // pop from the back in order
            pending_arrivals.push(arr);
        }

        let total_requests = (cfg.requests_per_vm * n_primary) as u64;
        let metrics = ServerMetrics::new(cfg.system.name, catalog.len());
        let trace = hh_trace::enabled().then(|| {
            Box::new(TraceSession::new(format!(
                "{}/seed={:#x}",
                cfg.system.name, cfg.seed
            )))
        });
        ServerSim {
            catalog,
            job,
            now: Cycles::ZERO,
            events: EventQueue::with_capacity(4096),
            cores,
            mems,
            llc,
            dram: Dram::default(),
            board: Arc::default(),
            pending: VecDeque::new(),
            pending_bound: Cycles::MAX,
            spare_traces: Vec::new(),
            helper: HelperMode::Auto,
            ctrl,
            tree: ControlTree::table1(),
            mesh: Mesh2D::table1(),
            rng: Rng64::stream(cfg.seed, 0xFEED),
            requests: BTreeMap::new(),
            pending_arrivals,
            next_token: 1,
            next_invocation: 0,
            partial_units: Vec::new(),
            next_unit: 0,
            buffer: Vec::new(),
            ewma_busy: vec![0.0; n_primary],
            ewma_block_us: vec![0.0; n_primary],
            agent_busy_until: Cycles::ZERO,
            active_units: 0,
            vm_paused_until: vec![Cycles::ZERO; n_primary],
            metrics,
            total_requests,
            completed: 0,
            trace,
            cfg,
        }
    }

    /// Runs the walk helper thread always (`true`) or never, whatever
    /// else the host runs.
    #[cfg(test)]
    pub(crate) fn force_helper(mut self, on: bool) -> Self {
        self.helper = HelperMode::Forced(on);
        self
    }

    fn harvest_vm(&self) -> usize {
        self.cfg.primary_vms
    }

    /// Runs to completion and returns the metrics.
    ///
    /// While the host has a core no other simulation or helper uses and no
    /// trace session records, a helper thread runs the private passes of
    /// queued hierarchy walks (see the `walks` module) for the duration of
    /// the call; the results are identical either way.
    ///
    /// # Panics
    /// Panics if the simulation deadlocks (events exhausted with requests
    /// outstanding) — that is a simulator bug, not a workload condition.
    pub fn run(mut self) -> ServerMetrics {
        let _slot = ThreadSlot::simulation();
        let board = Arc::clone(&self.board);
        // A trace records events as they happen, so a traced run completes
        // every walk at issue and has nothing for a helper to do.
        let helper = if self.trace.is_some() {
            HelperMode::Forced(false)
        } else {
            self.helper
        };
        std::thread::scope(|scope| {
            let _helper = board.start_helper(scope, helper);
            self.simulate();
        });

        // Final accounting.
        self.metrics.end_time = self.now;
        for mem in &self.mems {
            let s = lock(mem).l2_stats();
            self.metrics.l2_hits += s.hits;
            self.metrics.l2_misses += s.misses;
        }
        self.finish_trace();
        self.metrics
    }

    /// The event loop, from the seed events until every request completes
    /// and every issued walk has run.
    fn simulate(&mut self) {
        // Seed initial events.
        for vm in 0..self.cfg.primary_vms {
            self.schedule_next_arrival(vm);
        }
        if self.cfg.system.harvest_busy {
            // Harvest base cores start batch work immediately.
            let harvest = self.harvest_vm();
            let idle: Vec<usize> = (0..self.cores.len())
                .filter(|&i| self.cores[i].bound == harvest)
                .collect();
            for i in idle {
                self.cores[i].resident = Some(harvest);
                self.start_unit(i, Cycles::ZERO);
            }
        }
        // The software agent runs whenever its services matter: demand
        // prediction for the steal reserve, emergency-buffer upkeep, and
        // the placement safety net. A fully hardware design (cheap context
        // switch + partitioned flush) needs none of it.
        let full_hw = self.cfg.system.opts.hw_ctxtsw && self.cfg.system.opts.partition;
        let uses_agent =
            !full_hw && (self.cfg.system.mode.enabled() || self.cfg.system.buffer_cores > 0);
        if uses_agent {
            self.events.push(AGENT_TICK, Ev::AgentTick);
        }

        // Pure runaway backstop: real runs use a few million events; only a
        // scheduling livelock could approach this.
        let mut budget: u64 = 500_000_000;
        loop {
            // A pending walk whose completion may precede the next event
            // completes first.
            let next = self.events.peek_time();
            if next.is_none_or(|t| self.pending_bound <= t) && !self.pending.is_empty() {
                self.complete_walks_through(next.unwrap_or(Cycles::MAX));
                continue;
            }
            let Some((t, ev)) = self.events.pop() else {
                break;
            };
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            budget -= 1;
            if budget == 0 {
                panic!(
                    "event budget exhausted at {} with {}/{} done; queues: {:?}; cores: {:?}",
                    self.now,
                    self.completed,
                    self.total_requests,
                    (0..=self.cfg.primary_vms)
                        .map(|v| self.ctrl.qm(VmId::from(v)).queue().ready_len())
                        .collect::<Vec<_>>(),
                    self.cores
                        .iter()
                        .map(|c| format!("{:?}", c.run))
                        .collect::<Vec<_>>(),
                );
            }
            self.handle(ev);
            #[cfg(debug_assertions)]
            if budget.is_multiple_of(4096) {
                self.complete_walks_through(Cycles::MAX);
                if let Err(v) = self.check_invariants() {
                    self.report_invariant_violation(&v);
                    panic!("at {}: {v}", self.now);
                }
            }
            if self.completed >= self.total_requests {
                break;
            }
        }
        // Walks issued before the last completion still count in the
        // statistics.
        self.complete_walks_through(Cycles::MAX);
        assert!(
            self.completed >= self.total_requests,
            "simulation deadlocked: {}/{} requests completed at {}",
            self.completed,
            self.total_requests,
            self.now
        );
    }

    // ----- hierarchy walks ------------------------------------------------

    /// Runs `stream` through `core`'s hierarchy, then completes `then` with
    /// the walk's stall. The walk is queued; while a helper thread runs,
    /// the event loop completes it before the first event at or after its
    /// lower bound (and before anything else reads or changes what it
    /// touches), otherwise at once.
    fn issue_walk(
        &mut self,
        core: usize,
        gen: u64,
        stream: StreamSpec,
        vis: Visibility,
        then: Then,
    ) {
        debug_assert!(
            !self.pending.iter().any(|p| p.is_walk_on(core)),
            "one walk per core"
        );
        // Stalls are never negative, so the completion comes no earlier
        // than the phase's compute or the unit's base length.
        let (lower_bound, dram_weight) = match then {
            Then::Phase { lead, compute, .. } => (self.now + lead + compute, 1.0),
            Then::Unit { lead, .. } => (
                self.now + lead + self.job.unit_cycles(),
                self.cfg.batch_stall_scale.max(1.0),
            ),
        };
        let trace = self.spare_traces.pop().unwrap_or_default();
        let mem = Arc::clone(&self.mems[core]);
        self.board.issue(Job::new(core, mem, stream, vis, trace));
        self.pending_bound = self.pending_bound.min(lower_bound);
        self.pending.push_back(Pending::Walk(PendingWalk {
            core,
            gen,
            start: self.now,
            slot: self.events.reserve(),
            lower_bound,
            dram_weight,
            then,
        }));
        if !self.board.helper_alive() {
            self.complete_walks(self.pending.len());
        }
    }

    /// Completes, in issue order, every pending walk up to the last one
    /// whose lower bound is at most `t`.
    fn complete_walks_through(&mut self, t: Cycles) {
        if let Some(last) = self.pending.iter().rposition(|p| p.lower_bound() <= t) {
            self.complete_walks(last + 1);
        }
    }

    /// Completes the pending walk on `core`, if any, and every older one.
    fn complete_walk_on(&mut self, core: usize) {
        if let Some(i) = self.pending.iter().position(|p| p.is_walk_on(core)) {
            self.complete_walks(i + 1);
        }
    }

    /// Completes the `n` oldest pending walks and deposits: the LLC and
    /// timing passes in issue order, as the LLC, DRAM and the MSHRs saw
    /// them before the split.
    fn complete_walks(&mut self, n: usize) {
        for _ in 0..n {
            let walk = match self.pending.pop_front().expect("pending walk") {
                Pending::Walk(walk) => walk,
                Pending::Deposit { vm, keys } => {
                    for key in keys {
                        self.llc.ddio_deposit(key, vm);
                    }
                    continue;
                }
            };
            let mut job = self.board.take_front();
            debug_assert_eq!(job.core, walk.core, "board and pending list agree");
            job.trace.walk_llc(&mut self.llc);
            let stalls = lock(&self.mems[walk.core]).walk_timing(
                walk.start,
                &job.trace,
                walk.dram_weight,
                &mut self.dram,
            );
            self.spare_traces.push(job.trace);
            self.complete_walk(walk, stalls);
        }
        self.pending_bound = self
            .pending
            .iter()
            .map(Pending::lower_bound)
            .min()
            .unwrap_or(Cycles::MAX);
    }

    /// Deposits `keys` into `vm`'s LLC partition, after the LLC passes of
    /// the pending walks.
    fn ddio_deposit(&mut self, vm: VmId, keys: Vec<u64>) {
        if self.pending.is_empty() {
            for key in keys {
                self.llc.ddio_deposit(key, vm);
            }
        } else {
            self.pending.push_back(Pending::Deposit { vm, keys });
        }
    }

    /// Waits until no queued private pass touches `core`'s hierarchy.
    fn settle_core(&self, core: usize) {
        if !self.pending.is_empty() {
            self.board.settle_core(core);
        }
    }

    /// Finishes what a walk with `stalls` completes.
    fn complete_walk(&mut self, walk: PendingWalk, stalls: Cycles) {
        let core = walk.core;
        match walk.then {
            Then::Phase {
                vm,
                token,
                lead,
                compute,
            } => {
                let duration = compute + stalls;
                self.requests.get_mut(&token).expect("live request").exec += duration;
                if self.trace.is_some() {
                    trace_event!(
                        self.trace,
                        TraceEvent::PhaseSpan {
                            start: walk.start,
                            dur: lead + duration,
                            core: core as u32,
                            vm: vm as u32,
                            token,
                        }
                    );
                }
                self.events.push_reserved(
                    walk.start + lead + duration,
                    walk.slot,
                    Ev::PhaseDone {
                        core,
                        gen: walk.gen,
                    },
                );
            }
            Then::Unit { lead, active } => {
                let scaled =
                    Cycles::new((stalls.as_u64() as f64 * self.cfg.batch_stall_scale) as u64);
                let base = self.job.unit_cycles() + scaled;
                // Sub-linear parallel scaling: synchronization and
                // shared-state contention stretch each unit as more vCPUs
                // run concurrently (graph analytics and ML training scale
                // far from linearly).
                let n = active as f64;
                let duration = Cycles::new(
                    (base.as_u64() as f64 * (1.0 + self.job.scaling_penalty * n)) as u64,
                );
                self.schedule_unit_end(core, walk.gen, walk.start, lead, duration, walk.slot);
            }
        }
    }

    /// Records a structured report of a failed invariant check and ships
    /// the session to the collector so the evidence survives the ensuing
    /// panic.
    #[cfg(debug_assertions)]
    fn report_invariant_violation(&mut self, v: &InvariantViolation) {
        if let Some(mut t) = self.trace.take() {
            t.record(TraceEvent::InvariantViolation {
                t: self.now,
                message: v.to_string(),
            });
            hh_trace::submit(t.finish(self.now));
        }
    }

    /// Harvests the leaf crates' intrinsic counters into the session
    /// registry, attaches the metrics summary, and submits the session.
    fn finish_trace(&mut self) {
        let Some(mut t) = self.trace.take() else {
            return;
        };
        let mut split = hh_mem::VisSplit::default();
        let mut flushes = hh_mem::FlushStats::default();
        for mem in &self.mems {
            let mem = lock(mem);
            let s = mem.l2_split();
            split.primary_hits += s.primary_hits;
            split.primary_misses += s.primary_misses;
            split.harvest_hits += s.harvest_hits;
            split.harvest_misses += s.harvest_misses;
            let f = mem.flush_stats();
            flushes.full_flushes += f.full_flushes;
            flushes.region_flushes += f.region_flushes;
            flushes.lines_dropped += f.lines_dropped;
        }
        t.count("mem.l2_hits_primary", split.primary_hits);
        t.count("mem.l2_misses_primary", split.primary_misses);
        t.count("mem.l2_hits_harvest", split.harvest_hits);
        t.count("mem.l2_misses_harvest", split.harvest_misses);
        t.count("mem.flushes_full", flushes.full_flushes);
        t.count("mem.flushes_region", flushes.region_flushes);
        t.count("mem.flush_lines_dropped", flushes.lines_dropped);
        for vm in 0..=self.cfg.primary_vms {
            let q = self.ctrl.qm(VmId::from(vm)).queue();
            t.count("hwqueue.enqueued", q.enqueued_total());
            t.count("hwqueue.overflowed", q.overflowed());
            t.count("hwqueue.overflow_served", q.overflow_served());
        }
        t.count("server.requests_completed", self.completed);
        t.count("server.reassignments", self.metrics.reassignments);
        t.count("server.reclaims", self.metrics.reclaims);
        t.count("server.batch_units", self.metrics.batch_units);
        t.count("server.queue_overflows", self.metrics.queue_overflows);
        t.set_summary_json(self.metrics.summary().to_json());
        hh_trace::submit(t.finish(self.now));
    }

    /// Adjusts the busy-core level, mirroring it onto the trace gauge.
    fn busy_add(&mut self, delta: f64) {
        self.metrics.busy_cores.add(self.now, delta);
        if self.trace.is_some() {
            let now = self.now;
            let level = self.metrics.busy_cores.level();
            trace_gauge!(self.trace, "server.busy_cores", NO_INDEX, now, level);
        }
    }

    /// Records a flush span plus the cache-epoch marker for `core`.
    fn note_flush(
        &mut self,
        core: usize,
        scope: FlushScope,
        dur: Cycles,
        background: bool,
        dropped: u64,
    ) {
        if self.trace.is_none() {
            return;
        }
        let now = self.now;
        let stats = lock(&self.mems[core]).flush_stats();
        let epoch = stats.full_flushes + stats.region_flushes;
        trace_event!(
            self.trace,
            TraceEvent::FlushSpan {
                start: now,
                dur,
                core: core as u32,
                scope,
                background,
                dropped_lines: dropped,
            }
        );
        trace_event!(
            self.trace,
            TraceEvent::CacheEpoch {
                t: now,
                core: core as u32,
                epoch,
                dropped_lines: dropped
            }
        );
    }

    /// Records a reassignment marker plus its blocking-window span.
    fn note_reassign(&mut self, core: usize, kind: ReassignKind, block: Cycles) {
        if self.trace.is_none() {
            return;
        }
        let now = self.now;
        trace_event!(
            self.trace,
            TraceEvent::Reassign {
                t: now,
                core: core as u32,
                kind,
                cost: block
            }
        );
        trace_event!(
            self.trace,
            TraceEvent::TransitionSpan {
                start: now,
                dur: block,
                core: core as u32,
                kind
            }
        );
    }

    fn schedule_next_arrival(&mut self, vm: usize) {
        if let Some(t) = self.pending_arrivals[vm].pop() {
            self.events.push(t, Ev::Arrival { vm });
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival { vm } => self.on_arrival(vm),
            Ev::IoDone { vm, token } => self.on_io_done(vm, token),
            Ev::PhaseDone { core, gen } => {
                if self.cores[core].gen == gen {
                    self.on_phase_done(core);
                }
            }
            Ev::UnitDone { core, gen } => {
                if self.cores[core].gen == gen {
                    self.on_unit_done(core);
                }
            }
            Ev::TransitionDone { core, gen } => {
                if self.cores[core].gen == gen {
                    self.on_transition_done(core);
                }
            }
            Ev::AgentTick => self.on_agent_tick(),
        }
    }

    // ----- request arrival / readiness ---------------------------------

    fn on_arrival(&mut self, vm: usize) {
        self.schedule_next_arrival(vm);
        let service = ServiceId((vm % self.catalog.len()) as u8);
        let token = self.next_token;
        self.next_token += 1;
        let invocation = self.next_invocation;
        self.next_invocation += 1;
        let plan = RequestPlan::generate(
            service,
            self.catalog.get(service),
            VmId::from(vm),
            invocation,
            &mut self.rng,
        );
        // DDIO: the NIC deposits the payload into the destination VM's LLC
        // partition (Figure 8(a) step 2).
        let keys = (0..plan.payload_lines as u64).map(|l| (invocation << 8) | l);
        self.ddio_deposit(VmId::from(vm), keys.collect());
        self.requests.insert(
            token,
            Req {
                plan,
                phase: 0,
                arrival: self.now,
                exec: Cycles::ZERO,
                io: Cycles::ZERO,
                reassign_wait: Cycles::ZERO,
                flush_wait: Cycles::ZERO,
            },
        );
        let outcome = self.ctrl.enqueue(VmId::from(vm), token, self.now);
        if outcome == EnqueueOutcome::Overflow {
            self.metrics.queue_overflows += 1;
        }
        if self.trace.is_some() {
            let now = self.now;
            let depth = self.ctrl.qm(VmId::from(vm)).queue().ready_len() as u32;
            trace_event!(
                self.trace,
                TraceEvent::RequestArrival {
                    t: now,
                    vm: vm as u32,
                    token
                }
            );
            trace_event!(
                self.trace,
                TraceEvent::Enqueue {
                    t: now,
                    vm: vm as u32,
                    token,
                    depth,
                    overflow: outcome == EnqueueOutcome::Overflow,
                }
            );
            trace_gauge!(
                self.trace,
                "hwqueue.ready_depth",
                vm as u32,
                now,
                depth as f64
            );
        }
        self.try_serve(vm);
    }

    fn on_io_done(&mut self, vm: usize, token: u64) {
        self.ctrl.qm_mut(VmId::from(vm)).mark_ready(token);
        self.try_serve(vm);
    }

    /// Tries to place ready requests of `vm` on cores: idle bound cores
    /// first, then the emergency buffer, then reclamation of loaned cores.
    ///
    /// Every system takes all three paths on any readiness event (arrival,
    /// I/O completion, agent sweep). Software systems pay for it in the
    /// reassignment latencies, not in a delayed decision.
    fn try_serve(&mut self, vm: usize) {
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(guard < 100_000, "try_serve spinning on vm{vm}");
            if !self.ctrl.qm(VmId::from(vm)).has_ready() {
                return;
            }
            // 1. An idle core of this VM (bound or temporarily attached).
            if let Some(core) = self.find_idle_core(vm) {
                let (token, _, _) = self
                    .ctrl
                    .qm_mut(VmId::from(vm))
                    .dequeue()
                    .expect("has_ready");
                self.dispatch(core, vm, token, Cycles::ZERO, Cycles::ZERO);
                continue;
            }
            // 2. Emergency buffer (software harvesting): standby cores can
            // serve any starved Primary VM immediately.
            if !self.buffer.is_empty() {
                let core = self.buffer.remove(0);
                let (token, _, _) = self
                    .ctrl
                    .qm_mut(VmId::from(vm))
                    .dequeue()
                    .expect("has_ready");
                self.attach_buffer_core(core, vm, token);
                // Return one loaned core toward the buffer to conserve
                // capacity, if this VM has one out.
                if let Some(loaned) = self.find_reclaimable_core(vm) {
                    self.begin_return_to_buffer(loaned, vm);
                }
                continue;
            }
            // 3. Direct reclamation (Figure 8(c) / Figure 10).
            if !self.cfg.system.mode.enabled() {
                return;
            }
            if let Some(core) = self.find_reclaimable_core(vm) {
                let (token, _, _) = self
                    .ctrl
                    .qm_mut(VmId::from(vm))
                    .dequeue()
                    .expect("has_ready");
                self.reclaim(core, vm, token);
                continue;
            }
            return;
        }
    }

    fn find_idle_core(&self, vm: usize) -> Option<usize> {
        // Cores on loan to the Harvest VM are *not* idle cores of this VM,
        // even if momentarily idle (the Figure 4 idle-Harvest-VM mode);
        // they must come back through the reclaim path and pay its cost.
        let loaned = self.ctrl.qm(VmId::from(vm)).loaned_cores();
        let eligible = |i: usize, c: &Core| {
            matches!(c.run, Run::Idle)
                && !c.in_buffer
                && (c.temp_for == Some(vm) || (c.bound == vm && c.temp_for.is_none()))
                && !loaned.contains(&CoreId::from(i))
        };
        // Prefer a core whose caches already hold this VM's state.
        let mut fallback = None;
        for (i, c) in self.cores.iter().enumerate() {
            if eligible(i, c) {
                if c.resident == Some(vm) {
                    return Some(i);
                }
                fallback.get_or_insert(i);
            }
        }
        fallback
    }

    /// A loaned core currently running (or idling as) Harvest work.
    fn find_reclaimable_core(&self, vm: usize) -> Option<usize> {
        self.ctrl
            .qm(VmId::from(vm))
            .loaned_cores()
            .iter()
            .map(|c| c.index())
            .find(|&i| matches!(self.cores[i].run, Run::Unit { .. } | Run::Idle))
    }

    // ----- dispatch and execution ---------------------------------------

    /// Per-dispatch overhead: discovery (polling unless the hardware
    /// scheduler notifies), queue access, and request-context load.
    fn dispatch_overhead(&mut self, core: usize, vm: usize) -> Cycles {
        let o = &self.cfg.system.opts;
        let mut cost = Cycles::ZERO;
        if o.hw_sched {
            cost += self.tree.round_trip(CoreId::from(core));
        } else {
            // Software discovery: polling plus scheduler wake-up. Median is
            // a few µs but the tail is long (run-queue delays, preempted
            // pollers) — lognormal, like measured Linux wake-up latencies.
            let delay_ns =
                hh_sim::LogNormal::with_median(POLL_MEDIAN.as_ns(), 1.3).sample(&mut self.rng);
            cost += Cycles::from_ns(delay_ns);
        }
        if o.hw_queue {
            cost += Cycles::new(4); // SRAM chunk access
        } else {
            // Memory-mapped queue: lock + coherence misses; contention
            // grows with queue depth (cores, NIC-DDIO and the scheduler
            // all fight over the same lines, Section 4.1.6).
            let depth = self.ctrl.qm(VmId::from(vm)).queue().ready_len() as u64;
            let contention = 1 + depth.min(40) / 4;
            cost += MM_QUEUE * contention + Cycles::new(self.rng.below(MM_QUEUE.as_u64()));
        }
        cost += if o.hw_ctxtsw {
            // Hardware save/restore via the Request Context Memory on the
            // regular NoC (Section 4.1.8).
            HW_CTXT + self.mesh.latency_to_center(CoreId::from(core)) * 2
        } else {
            SW_DISPATCH
        };
        cost
    }

    /// Places `token`'s current phase on an idle `core` of the same VM.
    fn dispatch(&mut self, core: usize, vm: usize, token: u64, reassign: Cycles, flush: Cycles) {
        if self.trace.is_some() {
            let now = self.now;
            let depth = self.ctrl.qm(VmId::from(vm)).queue().ready_len() as u32;
            trace_event!(
                self.trace,
                TraceEvent::Dispatch {
                    t: now,
                    vm: vm as u32,
                    core: core as u32,
                    token,
                    depth
                }
            );
            trace_gauge!(
                self.trace,
                "hwqueue.ready_depth",
                vm as u32,
                now,
                depth as f64
            );
        }
        let mut overhead = self.dispatch_overhead(core, vm);
        // vCPUs stalled by an in-flight hypervisor detach/attach cannot
        // pick up work until the lock is released.
        let pause = self.vm_paused_until[vm].saturating_sub(self.now);
        overhead += pause;
        self.begin_phase(core, vm, token, overhead, reassign + pause, flush);
    }

    /// Starts executing the current phase after `lead` cycles of overhead.
    fn begin_phase(
        &mut self,
        core: usize,
        vm: usize,
        token: u64,
        lead: Cycles,
        reassign: Cycles,
        flush: Cycles,
    ) {
        let vis = if self.cores[core].hidden_until > self.now && self.cfg.system.opts.partition {
            Visibility::PrimaryFlushPending
        } else {
            Visibility::Primary
        };
        let (stream, compute) = {
            let req = self.requests.get_mut(&token).expect("live request");
            req.reassign_wait += reassign;
            req.flush_wait += flush;
            let phase = &req.plan.phases[req.phase];
            (phase.stream, phase.compute)
        };
        let c = &mut self.cores[core];
        c.run = Run::Req { token };
        c.resident = Some(vm);
        c.gen += 1;
        let gen = c.gen;
        self.busy_add(1.0);
        let then = Then::Phase {
            vm,
            token,
            lead,
            compute,
        };
        self.issue_walk(core, gen, stream, vis, then);
    }

    fn on_phase_done(&mut self, core: usize) {
        let token = match self.cores[core].run {
            Run::Req { token } => token,
            _ => unreachable!("phase-done on non-request core"),
        };
        self.busy_add(-1.0);
        let vm = self.requests[&token].plan.vm.index();
        let io_after = {
            let req = &self.requests[&token];
            req.plan.phases[req.phase].io_after
        };
        match io_after {
            Some(io) => {
                {
                    let req = self.requests.get_mut(&token).expect("live request");
                    req.phase += 1;
                    req.io += io;
                }
                self.ctrl.qm_mut(VmId::from(vm)).mark_blocked(token);
                // The adaptive policy learns each VM's typical block length.
                let e = &mut self.ewma_block_us[vm];
                *e = 0.8 * *e + 0.2 * io.as_us();
                if self.trace.is_some() {
                    let now = self.now;
                    trace_event!(
                        self.trace,
                        TraceEvent::RequestBlocked {
                            t: now,
                            core: core as u32,
                            token,
                            io
                        }
                    );
                }
                self.events.push(self.now + io, Ev::IoDone { vm, token });
                self.core_idle(core, IdleReason::Blocked);
            }
            None => {
                let req = self.requests.remove(&token).expect("live request");
                self.ctrl.qm_mut(VmId::from(vm)).complete(token);
                self.completed += 1;
                let latency = self.now - req.arrival;
                if self.trace.is_some() {
                    let now = self.now;
                    trace_event!(
                        self.trace,
                        TraceEvent::RequestComplete {
                            t: now,
                            vm: vm as u32,
                            core: core as u32,
                            token,
                            latency,
                        }
                    );
                    trace_hist!(self.trace, "server.latency_us", latency.as_us());
                }
                let svc = &mut self.metrics.services[req.plan.service.index()];
                svc.latency_ms.record(latency.as_ms());
                svc.exec += req.exec;
                svc.io += req.io;
                svc.reassign_wait += req.reassign_wait;
                svc.flush_wait += req.flush_wait;
                svc.completed += 1;
                self.core_idle(core, IdleReason::Termination);
            }
        }
    }

    /// A core finished or lost its work: serve the bound VM, else harvest.
    fn core_idle(&mut self, core: usize, reason: IdleReason) {
        let c = &mut self.cores[core];
        c.run = Run::Idle;
        c.idle_reason = reason;
        c.gen += 1;
        let harvest = self.harvest_vm();
        let temp_for = self.cores[core].temp_for;
        let bound = self.cores[core].bound;
        let serve_vm = temp_for.unwrap_or(bound);

        if self.ctrl.qm(VmId::from(serve_vm)).has_ready() {
            let (token, _, _) = self
                .ctrl
                .qm_mut(VmId::from(serve_vm))
                .dequeue()
                .expect("has_ready");
            self.dispatch(core, serve_vm, token, Cycles::ZERO, Cycles::ZERO);
            return;
        }
        // A buffer core with no more work returns to the buffer.
        if temp_for.is_some() {
            self.begin_return_to_buffer(core, serve_vm);
            return;
        }
        if bound == harvest {
            if self.cfg.system.harvest_busy {
                self.start_unit(core, Cycles::ZERO);
            }
            return;
        }
        // Steal as soon as the core idles: the QM forwards the spinning
        // core to the Harvest VM (Figure 8(b)), and the software agent
        // likewise moves cores per idle event.
        let stealable = match self.cfg.system.mode {
            HarvestMode::Disabled => false,
            HarvestMode::OnTermination => reason == IdleReason::Termination,
            HarvestMode::OnBlock => true,
            // Steal on a block only while this VM's blocks are long enough
            // to amortize the round trip (Section 4.1.5 future work).
            HarvestMode::Adaptive => {
                reason == IdleReason::Termination
                    || self.ewma_block_us[bound] >= ADAPTIVE_BLOCK_THRESHOLD_US
            }
        };
        if stealable && self.away_count(bound) < self.allowed_away(bound) {
            self.lend_to_harvest(core);
        }
    }

    // ----- cross-VM transitions -----------------------------------------

    /// Software detach/attach goes through the hypervisor and takes the
    /// VM's lock, briefly stalling its vCPUs (Section 3: hypervisor calls
    /// are half the 5 ms KVM cost). Hardware reassignment never enters the
    /// hypervisor.
    fn pause_vm_for_hypervisor(&mut self, vm: usize) {
        if self.cfg.system.opts.hw_sched || !self.cfg.system.reassign_enabled {
            return;
        }
        let pause = match self.cfg.system.sw_reassign {
            SwReassign::Kvm => KVM_DETACH_ATTACH,
            SwReassign::Optimized => OPT_DETACH_ATTACH,
        };
        let until = self.now + pause;
        self.vm_paused_until[vm] = self.vm_paused_until[vm].max(until);
    }

    /// Queueing delay behind the single software agent, and occupancy of
    /// the agent for `work` (no-op for hardware scheduling, where each QM
    /// acts independently — Section 4.1.1's "no global lock").
    fn agent_serialize(&mut self, work: Cycles) -> Cycles {
        if self.cfg.system.opts.hw_sched {
            return Cycles::ZERO;
        }
        let wait = self.agent_busy_until.saturating_sub(self.now);
        self.agent_busy_until = self.now + wait + work;
        wait
    }

    /// Latency decomposition of a cross-VM switch of `core`.
    fn switch_cost(&mut self, core: usize, to_harvest: bool) -> SwitchCost {
        let sys = self.cfg.system;
        let mut cost = SwitchCost::default();

        if sys.reassign_enabled {
            // Software hypervisor operations have heavy latency tails
            // (locks, RCU grace periods, scheduler interference): sample
            // lognormally around the median cost. KVM's 5 ms is dominated
            // by fixed work, so it only jitters mildly; the optimized
            // path's sub-millisecond syscalls have the long tail. The
            // hardware paths are deterministic.
            let mut sw_op = |median: Cycles, sigma: f64| {
                Cycles::from_ns(
                    hh_sim::LogNormal::with_median(median.as_ns(), sigma).sample(&mut self.rng),
                )
            };
            let detach = if sys.opts.hw_sched {
                HW_REASSIGN
            } else {
                match sys.sw_reassign {
                    SwReassign::Kvm => sw_op(KVM_DETACH_ATTACH, 0.3),
                    SwReassign::Optimized => sw_op(OPT_DETACH_ATTACH, 1.1),
                }
            };
            let ctxt = if sys.opts.hw_ctxtsw {
                HW_CTXT + self.mesh.latency_to_center(CoreId::from(core)) * 2
            } else {
                match sys.sw_reassign {
                    SwReassign::Kvm => sw_op(KVM_CTXT, 0.3),
                    SwReassign::Optimized => sw_op(OPT_CTXT, 1.1),
                }
            };
            let queue_behind_agent = self.agent_serialize(detach);
            cost.reassign_part = queue_behind_agent + detach + ctxt;
            cost.block += cost.reassign_part;
        }

        if sys.flush_enabled {
            if sys.opts.partition {
                let f = if sys.opts.fast_flush {
                    flush::HARDWARE_REGION
                } else {
                    // Software region flush: proportional share of wbinvd.
                    let full = flush::software(&mut self.rng);
                    Cycles::new((full.as_u64() as f64 * self.cfg.harvest_frac) as u64)
                };
                self.settle_core(core);
                let dropped = lock(&self.mems[core]).flush_harvest_region();
                self.note_flush(core, FlushScope::HarvestRegion, f, !to_harvest, dropped);
                if to_harvest {
                    // Harvest may not start until the worst-case flush
                    // window elapses (timing side channel, Section 4.2.1).
                    cost.start_delay = f;
                    cost.flush_part = f;
                } else {
                    // Reclaim: Primary restarts immediately; the harvest
                    // region is flushed in the background.
                    cost.hidden = f;
                }
            } else {
                let f = if sys.opts.fast_flush {
                    flush::HARDWARE_FULL
                } else {
                    flush::software(&mut self.rng)
                };
                self.settle_core(core);
                let dropped = lock(&self.mems[core]).flush_all();
                self.note_flush(core, FlushScope::Full, f, false, dropped);
                cost.flush_part = f;
                cost.block += f;
            }
        }
        cost
    }

    /// Primary→Harvest: the core starts pulling Harvest-VM work.
    fn lend_to_harvest(&mut self, core: usize) {
        let bound = self.cores[core].bound;
        debug_assert_ne!(bound, self.harvest_vm());
        let cost = self.switch_cost(core, true);
        self.note_reassign(core, ReassignKind::Lend, cost.block);
        self.pause_vm_for_hypervisor(bound);
        self.ctrl
            .qm_mut(VmId::from(bound))
            .lend_core(CoreId::from(core));
        self.metrics.reassignments += 1;
        let c = &mut self.cores[core];
        c.run = Run::Transition {
            after: After::ServeHarvest {
                start_delay: cost.start_delay,
            },
        };
        c.gen += 1;
        let gen = c.gen;
        self.events
            .push(self.now + cost.block, Ev::TransitionDone { core, gen });
    }

    /// Harvest→Primary: interrupt a loaned core and hand it `token`.
    fn reclaim(&mut self, core: usize, vm: usize, token: u64) {
        self.pause_vm_for_hypervisor(vm);
        self.preempt_unit(core);
        self.ctrl
            .qm_mut(VmId::from(vm))
            .reclaim_core(CoreId::from(core));
        self.metrics.reassignments += 1;
        self.metrics.reclaims += 1;
        let cost = self.switch_cost(core, false);
        self.note_reassign(core, ReassignKind::Reclaim, cost.block + cost.flush_part);
        if self.trace.is_some() {
            let us = (cost.block + cost.flush_part).as_us();
            trace_hist!(self.trace, "server.reclaim_latency_us", us);
        }
        let c = &mut self.cores[core];
        c.resident = Some(vm);
        c.hidden_until = self.now + cost.block + cost.hidden;
        c.run = Run::Transition {
            after: After::ServeReq { token },
        };
        c.gen += 1;
        let gen = c.gen;
        {
            let req = self.requests.get_mut(&token).expect("live request");
            req.reassign_wait += cost.reassign_part;
            req.flush_wait += cost.flush_part;
        }
        self.events.push(
            self.now + cost.block + cost.flush_part,
            Ev::TransitionDone { core, gen },
        );
    }

    /// A buffer core attaches to `vm` to serve `token` (SmartHarvest's
    /// fast path). Buffer cores were flushed when they joined, so no flush
    /// is needed — only the attach and context load.
    fn attach_buffer_core(&mut self, core: usize, vm: usize, token: u64) {
        let queue_behind_agent = self.agent_serialize(BUFFER_ATTACH);
        let block = queue_behind_agent
            + BUFFER_ATTACH
            + if self.cfg.system.opts.hw_ctxtsw {
                HW_CTXT
            } else {
                OPT_CTXT
            };
        self.metrics.reassignments += 1;
        self.note_reassign(core, ReassignKind::BufferAttach, block);
        let c = &mut self.cores[core];
        c.in_buffer = false;
        c.temp_for = Some(vm);
        c.resident = Some(vm);
        c.run = Run::Transition {
            after: After::ServeReq { token },
        };
        c.gen += 1;
        let gen = c.gen;
        {
            let req = self.requests.get_mut(&token).expect("live request");
            req.reassign_wait += block;
        }
        self.events
            .push(self.now + block, Ev::TransitionDone { core, gen });
    }

    /// Sends a core (idle or loaned) toward the emergency buffer: detach
    /// and flush so later attaches are fast.
    fn begin_return_to_buffer(&mut self, core: usize, owner_vm: usize) {
        // If the core is on loan to the Harvest VM, take it back first.
        if self
            .ctrl
            .qm(VmId::from(owner_vm))
            .loaned_cores()
            .contains(&CoreId::from(core))
        {
            self.preempt_unit(core);
            self.ctrl
                .qm_mut(VmId::from(owner_vm))
                .reclaim_core(CoreId::from(core));
        }
        let flush = flush::software(&mut self.rng);
        let block = OPT_DETACH_ATTACH + flush;
        self.settle_core(core);
        let dropped = lock(&self.mems[core]).flush_all();
        self.note_flush(core, FlushScope::Full, flush, false, dropped);
        self.note_reassign(core, ReassignKind::ReturnToBuffer, block);
        let c = &mut self.cores[core];
        c.temp_for = None;
        c.resident = None;
        c.run = Run::Transition {
            after: After::JoinBuffer,
        };
        c.gen += 1;
        let gen = c.gen;
        self.events
            .push(self.now + block, Ev::TransitionDone { core, gen });
    }

    fn on_transition_done(&mut self, core: usize) {
        let after = match self.cores[core].run {
            Run::Transition { after } => after,
            _ => unreachable!("transition-done on non-transitioning core"),
        };
        match after {
            After::ServeHarvest { start_delay } => {
                self.cores[core].resident = Some(self.harvest_vm());
                // If the owner already has work piled up and no free core,
                // hand the core straight back.
                let bound = self.cores[core].bound;
                if self.cfg.system.opts.hw_sched
                    && self.ctrl.qm(VmId::from(bound)).has_ready()
                    && self.find_idle_core(bound).is_none()
                {
                    let (token, _, _) = self
                        .ctrl
                        .qm_mut(VmId::from(bound))
                        .dequeue()
                        .expect("has_ready");
                    self.cores[core].run = Run::Idle;
                    self.reclaim(core, bound, token);
                    return;
                }
                if self.cfg.system.harvest_busy {
                    self.start_unit(core, start_delay);
                } else {
                    // Figure 4 mode: the Harvest VM is idle; the core just
                    // sits loaned.
                    self.cores[core].run = Run::Idle;
                    self.cores[core].gen += 1;
                }
            }
            After::ServeReq { token } => {
                let vm = self.requests[&token].plan.vm.index();
                self.begin_phase(core, vm, token, Cycles::ZERO, Cycles::ZERO, Cycles::ZERO);
            }
            After::JoinBuffer => {
                let c = &mut self.cores[core];
                c.run = Run::Idle;
                c.in_buffer = true;
                c.gen += 1;
                self.buffer.push(core);
                // A fresh buffer core may unblock a starved VM.
                self.sweep_ready_vms();
            }
        }
    }

    // ----- harvest batch execution ---------------------------------------

    fn start_unit(&mut self, core: usize, lead: Cycles) {
        let harvest = self.harvest_vm();
        let remainder = self.partial_units.pop();
        let active = self.active_units;
        self.active_units += 1;
        let c = &mut self.cores[core];
        // The end is set when the unit's walk completes.
        c.run = Run::Unit { end: Cycles::MAX };
        c.gen += 1;
        let gen = c.gen;
        self.busy_add(1.0);
        match remainder {
            // Preempted remainders are already scaled wall time; do not
            // re-apply the parallel-scaling multiplier.
            Some(rem) => {
                let slot = self.events.reserve();
                self.schedule_unit_end(core, gen, self.now, lead, rem, slot);
            }
            None => {
                let unit = self.next_unit;
                self.next_unit += 1;
                let vis = if self.cfg.system.opts.partition {
                    Visibility::Harvest
                } else {
                    Visibility::Primary
                };
                let spec = self.job.unit_stream(VmId::from(harvest), unit);
                let then = Then::Unit { lead, active };
                self.issue_walk(core, gen, spec, vis, then);
            }
        }
    }

    /// Sets the end of the unit `core` runs and schedules its `UnitDone`.
    fn schedule_unit_end(
        &mut self,
        core: usize,
        gen: u64,
        start: Cycles,
        lead: Cycles,
        duration: Cycles,
        slot: Reserved,
    ) {
        let end = start + lead + duration;
        debug_assert_eq!(self.cores[core].gen, gen, "the unit still runs");
        self.cores[core].run = Run::Unit { end };
        if self.trace.is_some() {
            trace_event!(
                self.trace,
                TraceEvent::UnitSpan {
                    start,
                    dur: lead + duration,
                    core: core as u32
                }
            );
        }
        self.events
            .push_reserved(end, slot, Ev::UnitDone { core, gen });
    }

    fn on_unit_done(&mut self, core: usize) {
        self.busy_add(-1.0);
        self.active_units = self.active_units.saturating_sub(1);
        self.metrics.batch_units += 1;
        // Between units, honour a pending reclaim by the owner VM — the
        // QM's interrupt logic exists only in hardware (Section 4.1.5); a
        // software Harvest VM cannot see the Primary VM's queue and keeps
        // running until the agent intervenes.
        let bound = self.cores[core].bound;
        let harvest = self.harvest_vm();
        if self.cfg.system.opts.hw_sched
            && bound != harvest
            && self.ctrl.qm(VmId::from(bound)).has_ready()
            && self.find_idle_core(bound).is_none()
        {
            let (token, _, _) = self
                .ctrl
                .qm_mut(VmId::from(bound))
                .dequeue()
                .expect("has_ready");
            // busy_cores was already decremented above; clear the run state
            // so the reclaim's preempt does not double-count it.
            self.cores[core].run = Run::Idle;
            self.reclaim(core, bound, token);
            return;
        }
        self.start_unit(core, Cycles::ZERO);
    }

    fn preempt_unit(&mut self, core: usize) {
        self.complete_walk_on(core);
        if let Run::Unit { end } = self.cores[core].run {
            if end > self.now {
                self.partial_units.push(end - self.now);
            }
            self.busy_add(-1.0);
            self.active_units = self.active_units.saturating_sub(1);
        }
        self.cores[core].gen += 1;
    }

    // ----- software harvesting agent -------------------------------------

    fn on_agent_tick(&mut self) {
        if self.completed >= self.total_requests {
            return;
        }
        // Update per-VM demand prediction: a decaying *peak* of concurrent
        // busy cores. SmartHarvest predicts near-future demand; predicting
        // the recent peak (not the mean) is what keeps typical requests
        // from ever touching the reclaim machinery.
        for vm in 0..self.cfg.primary_vms {
            let busy = self
                .cores
                .iter()
                .filter(|c| c.bound == vm && matches!(c.run, Run::Req { .. }))
                .count() as f64;
            self.ewma_busy[vm] = (self.ewma_busy[vm] * 0.97).max(busy);
        }
        // Release surplus buffer cores back to their bound VMs (the buffer
        // only needs `buffer_cores` standbys; extras just waste capacity).
        while self.buffer.len() > self.cfg.system.buffer_cores {
            let core = self.buffer.pop().expect("non-empty");
            let c = &mut self.cores[core];
            c.in_buffer = false;
            c.idle_reason = IdleReason::Termination;
            c.gen += 1;
        }
        // Refill the emergency buffer from idle (stealable) primary cores
        // whose VM still has headroom (at most one per tick; it joins the
        // list when its detach+flush transition completes).
        if self.buffer.len() < self.cfg.system.buffer_cores {
            let candidate = (0..self.cores.len()).find(|&i| {
                self.core_is_stealable_idx(i)
                    && self.away_count(self.cores[i].bound) < self.allowed_away(self.cores[i].bound)
            });
            if let Some(core) = candidate {
                let owner = self.cores[core].bound;
                self.begin_return_to_buffer(core, owner);
            }
        }
        // Lend predicted-idle cores to the Harvest VM.
        if self.cfg.system.mode.enabled() {
            for vm in 0..self.cfg.primary_vms {
                for _ in 0..2 {
                    if self.away_count(vm) >= self.allowed_away(vm) {
                        break;
                    }
                    if let Some(core) = self.find_stealable_core_of(vm) {
                        // Keep enough free cores to cover the predicted
                        // peak concurrency; lend the rest.
                        let busy = self
                            .cores
                            .iter()
                            .filter(|c| c.bound == vm && matches!(c.run, Run::Req { .. }))
                            .count() as f64;
                        let free = self
                            .cores
                            .iter()
                            .enumerate()
                            .filter(|(i, c)| c.bound == vm && self.core_is_stealable_idx(*i))
                            .count() as f64;
                        let needed_free = (self.ewma_busy[vm] - busy + 0.5).max(0.0);
                        if free > needed_free {
                            self.lend_to_harvest(core);
                            continue;
                        }
                    }
                    break;
                }
            }
        }
        // The tick also acts as the software scheduler's safety net: any
        // VM with work that slipped through event-driven serving gets
        // another placement attempt.
        self.sweep_ready_vms();
        self.events.push(self.now + AGENT_TICK, Ev::AgentTick);
    }

    /// Placement retry for every Primary VM with ready work.
    fn sweep_ready_vms(&mut self) {
        for vm in 0..self.cfg.primary_vms {
            if self.ctrl.qm(VmId::from(vm)).has_ready() {
                self.try_serve(vm);
            }
        }
    }

    /// How many cores the software agent may keep away from `vm` at once:
    /// the static cap, tightened by the demand prediction (reserve enough
    /// resident cores to cover the recent peak concurrency plus slack).
    /// Hardware harvesting ignores prediction — reclamation is cheap.
    fn allowed_away(&self, vm: usize) -> usize {
        let cap = self.cfg.system.max_loaned_per_vm;
        // Once a cross-VM switch is essentially free — hardware context
        // switching plus partitioned (background) flushing — prediction
        // buys nothing and the QM forwards every idle core (the full
        // HardHarvest behaviour). While switches are expensive, the agent
        // reserves enough resident cores to cover recent peak demand.
        let o = &self.cfg.system.opts;
        if o.hw_ctxtsw && o.partition {
            return cap;
        }
        let reserve = (self.ewma_busy[vm] + 0.5).ceil() as usize;
        cap.min(self.cfg.cores_per_primary.saturating_sub(reserve))
    }

    /// Cores of `vm` currently away from it: on loan to the Harvest VM,
    /// parked in the emergency buffer, or temporarily serving another VM.
    fn away_count(&self, vm: usize) -> usize {
        let loaned = self.ctrl.qm(VmId::from(vm)).loaned_cores().len();
        let parked = self
            .cores
            .iter()
            .filter(|c| c.bound == vm && (c.in_buffer || c.temp_for.is_some()))
            .count();
        loaned + parked
    }

    fn core_is_stealable_idx(&self, i: usize) -> bool {
        // A core already on loan (idle only because the Harvest VM itself
        // is idle, as in the Figure 4 setup) cannot be lent twice.
        let c = &self.cores[i];
        if c.bound != self.harvest_vm()
            && self
                .ctrl
                .qm(VmId::from(c.bound))
                .loaned_cores()
                .contains(&CoreId::from(i))
        {
            return false;
        }
        self.core_is_stealable(c)
    }

    fn core_is_stealable(&self, c: &Core) -> bool {
        matches!(c.run, Run::Idle)
            && !c.in_buffer
            && c.temp_for.is_none()
            && c.bound != self.harvest_vm()
            && match self.cfg.system.mode {
                HarvestMode::Disabled => self.cfg.system.buffer_cores > 0,
                HarvestMode::OnTermination => c.idle_reason == IdleReason::Termination,
                HarvestMode::OnBlock => true,
                HarvestMode::Adaptive => {
                    c.idle_reason == IdleReason::Termination
                        || self.ewma_block_us[c.bound] >= ADAPTIVE_BLOCK_THRESHOLD_US
                }
            }
    }

    /// The named structural invariants of a mid-simulation server state.
    /// A violation of any of them is a simulator bug, never a workload
    /// condition. Packaged as an [`InvariantSet`] so the `hh-check` oracle
    /// suite, property tests and the periodic debug hook all run the same
    /// rules and get the same pinpointed reports.
    fn invariant_set() -> InvariantSet<ServerSim> {
        InvariantSet::new()
            .with(invariant("busy-core-level-bounds", |s: &ServerSim| {
                let level = s.metrics.busy_cores.level();
                if (-1e-9..=s.cfg.cores as f64 + 1e-9).contains(&level) {
                    Ok(())
                } else {
                    Err(format!(
                        "busy-core level {level} outside [0, {}]",
                        s.cfg.cores
                    ))
                }
            }))
            .with(invariant("rq-chunk-conservation", |s: &ServerSim| {
                if s.ctrl.chunk_accounting_ok() {
                    Ok(())
                } else {
                    Err(format!(
                        "owned+free chunk accounting broken (free={})",
                        s.ctrl.free_chunks()
                    ))
                }
            }))
            .with(invariant("subqueue-fifo-order", |s: &ServerSim| {
                for vm in 0..=s.cfg.primary_vms {
                    let arr = s.ctrl.qm(VmId::from(vm)).queue().ready_arrivals();
                    if let Some(w) = arr.windows(2).find(|w| w[0] > w[1]) {
                        return Err(format!(
                            "vm{vm} ready entries out of FIFO order: {} after {}",
                            w[1], w[0]
                        ));
                    }
                }
                Ok(())
            }))
            .with(invariant("buffer-list-consistency", |s: &ServerSim| {
                for &b in &s.buffer {
                    if !s.cores[b].in_buffer {
                        return Err(format!("buffer list/flag mismatch on core {b}"));
                    }
                    if !matches!(s.cores[b].run, Run::Idle) {
                        return Err(format!("buffered core {b} is not idle"));
                    }
                }
                Ok(())
            }))
            .with(invariant("loaned-core-binding", |s: &ServerSim| {
                for vm in 0..s.cfg.primary_vms {
                    let qm = s.ctrl.qm(VmId::from(vm));
                    for c in qm.loaned_cores() {
                        let core = &s.cores[c.index()];
                        if core.bound != vm {
                            return Err(format!("loaned core {c} not bound to vm{vm}"));
                        }
                        if core.in_buffer {
                            return Err(format!("loaned core {c} sits in the buffer"));
                        }
                    }
                }
                Ok(())
            }))
            .with(invariant("live-request-tokens", |s: &ServerSim| {
                for (i, c) in s.cores.iter().enumerate() {
                    if let Run::Req { token } = c.run {
                        if !s.requests.contains_key(&token) {
                            return Err(format!("core {i} runs unknown request {token}"));
                        }
                    }
                }
                Ok(())
            }))
    }

    /// Checks every structural invariant against the current state,
    /// returning the first violation (named rule plus offending values).
    /// Run automatically every few thousand events in debug builds; also
    /// callable from tests and the `hh-check` harness at any point.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        Self::invariant_set().check_all(self)
    }

    fn find_stealable_core_of(&self, vm: usize) -> Option<usize> {
        (0..self.cores.len()).find(|&i| self.cores[i].bound == vm && self.core_is_stealable_idx(i))
    }
}

/// Locks a core's hierarchy.
fn lock(mem: &Mutex<CoreMem>) -> MutexGuard<'_, CoreMem> {
    mem.lock()
        .expect("a walk panicked while it held this hierarchy")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemSpec;

    fn run_small(system: SystemSpec, seed: u64) -> ServerMetrics {
        let mut cfg = ServerConfig::small(system);
        cfg.seed = seed;
        ServerSim::new(cfg).run()
    }

    #[test]
    fn no_harvest_completes_all_requests() {
        let m = run_small(SystemSpec::no_harvest(), 1);
        assert_eq!(m.completed(), 240);
        assert!(m.reassignments == 0, "NoHarvest never reassigns");
        assert!(m.batch_units > 0, "harvest VM works on its base cores");
    }

    #[test]
    fn hardharvest_block_completes_and_harvests() {
        let m = run_small(SystemSpec::hardharvest_block(), 2);
        assert_eq!(m.completed(), 240);
        assert!(m.reassignments > 0, "cores should move");
        assert!(m.reclaims > 0, "primaries should reclaim");
    }

    #[test]
    fn harvesting_increases_batch_throughput() {
        let none = run_small(SystemSpec::no_harvest(), 3);
        let hh = run_small(SystemSpec::hardharvest_block(), 3);
        assert!(
            hh.batch_units_per_sec() > none.batch_units_per_sec(),
            "hh {} <= none {}",
            hh.batch_units_per_sec(),
            none.batch_units_per_sec()
        );
    }

    #[test]
    fn software_harvesting_hurts_tail_latency_more_than_hardware() {
        let sw = run_small(SystemSpec::harvest_block(), 4);
        let hw = run_small(SystemSpec::hardharvest_block(), 4);
        let sw_p99 = sw.pooled_latency_ms().p99();
        let hw_p99 = hw.pooled_latency_ms().p99();
        assert!(
            sw_p99 > hw_p99,
            "software p99 {sw_p99} should exceed hardware p99 {hw_p99}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_small(SystemSpec::hardharvest_term(), 7);
        let b = run_small(SystemSpec::hardharvest_term(), 7);
        assert_eq!(
            a.pooled_latency_ms().values(),
            b.pooled_latency_ms().values()
        );
        assert_eq!(a.batch_units, b.batch_units);
        assert_eq!(a.reassignments, b.reassignments);
    }

    #[test]
    fn utilization_monotone_no_harvest_lowest() {
        let none = run_small(SystemSpec::no_harvest(), 5);
        let hh = run_small(SystemSpec::hardharvest_block(), 5);
        assert!(
            hh.avg_busy_cores() > none.avg_busy_cores(),
            "hh {} vs none {}",
            hh.avg_busy_cores(),
            none.avg_busy_cores()
        );
    }

    #[test]
    fn term_mode_reassigns_less_than_block_mode() {
        let term = run_small(SystemSpec::hardharvest_term(), 6);
        let block = run_small(SystemSpec::hardharvest_block(), 6);
        assert!(
            block.reassignments >= term.reassignments,
            "block {} < term {}",
            block.reassignments,
            term.reassignments
        );
    }

    #[test]
    fn adaptive_sits_between_term_and_block() {
        let term = run_small(SystemSpec::hardharvest_term(), 9);
        let adaptive = run_small(SystemSpec::hardharvest_adaptive(), 9);
        let block = run_small(SystemSpec::hardharvest_block(), 9);
        assert!(
            adaptive.reassignments >= term.reassignments,
            "adaptive {} < term {}",
            adaptive.reassignments,
            term.reassignments
        );
        assert!(
            adaptive.reassignments <= block.reassignments,
            "adaptive {} > block {}",
            adaptive.reassignments,
            block.reassignments
        );
        assert_eq!(adaptive.completed(), 240);
    }

    #[test]
    fn loan_cap_limits_concurrent_loans() {
        let mut capped = SystemSpec::hardharvest_block();
        capped.max_loaned_per_vm = 1;
        let capped_m = run_small(capped, 11);
        let free_m = run_small(SystemSpec::hardharvest_block(), 11);
        assert!(capped_m.batch_units < free_m.batch_units);
        assert_eq!(capped_m.completed(), 240);
    }

    #[test]
    fn walk_helper_changes_no_result() {
        let hardharvest = || ServerConfig::small(SystemSpec::hardharvest_block());
        let mut configs: Vec<ServerConfig> = SystemSpec::evaluated_five()
            .into_iter()
            .map(ServerConfig::small)
            .collect();
        let mut paced = hardharvest();
        paced.hierarchy.mshrs = Some(4);
        let mut half = hardharvest();
        half.capacity_frac = 0.5;
        let mut infinite = hardharvest();
        infinite.infinite_cache = true;
        let mut window = hardharvest();
        window.eviction_candidate_frac = Some(0.25);
        configs.extend([paced, half, infinite, window]);
        for (i, cfg) in configs.into_iter().enumerate() {
            let with = ServerSim::new(cfg.clone()).force_helper(true).run();
            let without = ServerSim::new(cfg).force_helper(false).run();
            assert_eq!(with.summary(), without.summary(), "config {i}");
            assert_eq!(
                with.pooled_latency_ms().values(),
                without.pooled_latency_ms().values(),
                "config {i}"
            );
        }
    }

    #[test]
    fn recycled_storage_changes_no_result() {
        let hardharvest = || ServerConfig::small(SystemSpec::hardharvest_block());
        let mut paced = hardharvest();
        paced.hierarchy.mshrs = Some(4);
        let mut half = hardharvest();
        half.capacity_frac = 0.5;
        let configs = [
            hardharvest(),
            ServerConfig::small(SystemSpec::harvest_block()),
            paced,
            half,
        ];
        // A server takes its caches' set blocks from the ones the last
        // server of its geometry dropped on the same thread; a new thread
        // has none, so its server starts on zeroed blocks.
        let run_after = |first: Option<ServerConfig>, cfg: ServerConfig| {
            std::thread::spawn(move || {
                if let Some(first) = first {
                    ServerSim::new(first).run();
                }
                ServerSim::new(cfg).run()
            })
            .join()
            .expect("simulation thread")
        };
        for (i, cfg) in configs.iter().enumerate() {
            // A different system and seed of the same geometry fills the
            // blocks with other lines first.
            let mut other = configs[(i + 1) % configs.len()].clone();
            other.seed ^= 0x5EED;
            let recycled = run_after(Some(other), cfg.clone());
            let fresh = run_after(None, cfg.clone());
            assert_eq!(recycled.summary(), fresh.summary(), "config {i}");
            assert_eq!(
                recycled.pooled_latency_ms().values(),
                fresh.pooled_latency_ms().values(),
                "config {i}"
            );
        }
    }

    #[test]
    fn invariants_hold_on_a_fresh_server() {
        let sim = ServerSim::new(ServerConfig::small(SystemSpec::hardharvest_block()));
        sim.check_invariants()
            .expect("fresh server must satisfy every structural invariant");
    }

    #[test]
    fn latencies_are_sub_50ms() {
        let m = run_small(SystemSpec::hardharvest_block(), 8);
        let lat = m.pooled_latency_ms();
        assert!(lat.p99() < 50.0, "p99 {}", lat.p99());
        assert!(lat.median() > 0.1, "median {}", lat.median());
    }
}
