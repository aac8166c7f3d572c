//! Private passes of hierarchy walks run off the event loop, by the
//! event-loop thread and, when the host has a core to spare, one helper
//! thread.
//!
//! A walk's private pass ([`CoreMem::walk_private`]) is most of its work
//! and touches only its core's caches and TLBs. The event loop queues it
//! as a [`Job`] when it issues the walk; either thread may run it once
//! every older walk on its core has finished its own, so each core's
//! hierarchy sees its walks in issue order. The event loop takes the
//! finished jobs back in issue order and runs the rest of each walk
//! itself: the LLC pass ([`WalkTrace::walk_llc`]) and the timing pass
//! ([`CoreMem::walk_timing`]), so the LLC, the MSHRs and DRAM see every
//! walk in issue order too.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use hh_mem::{CoreMem, Visibility, WalkTrace};
use hh_workload::StreamSpec;

/// Simulations running in this process plus their helper threads.
static BUSY_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Threads the host runs in parallel.
fn host_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One thread counted in [`BUSY_THREADS`] until dropped.
#[derive(Debug)]
pub(crate) struct ThreadSlot(());

impl ThreadSlot {
    /// Counts a running simulation.
    pub(crate) fn simulation() -> Self {
        BUSY_THREADS.fetch_add(1, Ordering::SeqCst);
        ThreadSlot(())
    }

    /// Counts a helper thread started whatever the host runs.
    fn forced() -> Self {
        Self::simulation()
    }

    /// Counts a helper thread, if the host has a core no simulation or
    /// helper uses.
    fn spare() -> Option<Self> {
        BUSY_THREADS
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < host_threads()).then_some(n + 1)
            })
            .ok()
            .map(|_| ThreadSlot(()))
    }
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        BUSY_THREADS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Whether a simulation runs a helper thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HelperMode {
    /// While the host has a spare core (see [`ThreadSlot`]); the helper
    /// stops once more threads run than the host has.
    Auto,
    /// Always (`true`) or never (`false`), whatever the host runs.
    Forced(bool),
}

/// One queued private pass: `stream` through `core`'s hierarchy, leaving
/// its outcome in `trace`.
#[derive(Debug)]
pub(crate) struct Job {
    pub core: usize,
    mem: Arc<Mutex<CoreMem>>,
    stream: StreamSpec,
    vis: Visibility,
    pub trace: WalkTrace,
    state: State,
}

/// Where a [`Job`] stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Queued,
    Running,
    Done,
}

impl Job {
    /// A private pass not yet run.
    pub(crate) fn new(
        core: usize,
        mem: Arc<Mutex<CoreMem>>,
        stream: StreamSpec,
        vis: Visibility,
        trace: WalkTrace,
    ) -> Self {
        Job {
            core,
            mem,
            stream,
            vis,
            trace,
            state: State::Queued,
        }
    }
}

/// The jobs issued and not yet taken back, oldest first, and who waits.
#[derive(Debug, Default)]
struct Jobs {
    queue: VecDeque<Job>,
    /// Issue number of `queue[0]`; numbers stay valid while jobs run.
    front: u64,
    helper_alive: bool,
    helper_asleep: bool,
    main_asleep: bool,
    shutdown: bool,
    helper_panicked: bool,
}

impl Jobs {
    /// The oldest job that may run: one whose older walks on its core have
    /// all finished.
    fn claimable(&self) -> Option<usize> {
        (0..self.queue.len()).find(|&i| {
            let job = &self.queue[i];
            job.state == State::Queued
                && !self
                    .queue
                    .range(..i)
                    .any(|o| o.core == job.core && o.state != State::Done)
        })
    }
}

/// The queue both executors share.
#[derive(Debug, Default)]
pub(crate) struct Board {
    jobs: Mutex<Jobs>,
    changed: Condvar,
}

impl Board {
    fn lock(&self) -> MutexGuard<'_, Jobs> {
        self.jobs
            .lock()
            .expect("no thread panicked holding the queue")
    }

    /// [`Board::lock`] for `Drop`, which must not panic: the queue's
    /// flags stay valid whatever step a panicking thread was in.
    fn lock_in_drop(&self) -> MutexGuard<'_, Jobs> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `queue[i]` with the lock released, and hands the lock back.
    fn execute<'a>(&'a self, mut jobs: MutexGuard<'a, Jobs>, i: usize) -> MutexGuard<'a, Jobs> {
        let id = jobs.front + i as u64;
        // The pass runs on the job's trace taken out of the queue, so the
        // queue stays unlocked meanwhile; the entry stays put, as an
        // unfinished job is never taken back, and keeps blocking its core.
        let job = &mut jobs.queue[i];
        job.state = State::Running;
        let mut trace = std::mem::take(&mut job.trace);
        let (mem, stream, vis) = (Arc::clone(&job.mem), job.stream, job.vis);
        drop(jobs);
        mem.lock()
            .expect("a walk panicked while it held this hierarchy")
            .walk_private(stream.iter(), vis, &mut trace);
        let mut jobs = self.lock();
        let i = (id - jobs.front) as usize;
        let job = &mut jobs.queue[i];
        job.state = State::Done;
        job.trace = trace;
        if jobs.main_asleep || jobs.helper_asleep {
            self.changed.notify_all();
        }
        jobs
    }

    /// Queues a job.
    pub(crate) fn issue(&self, job: Job) {
        let mut jobs = self.lock();
        jobs.queue.push_back(job);
        if jobs.helper_asleep {
            self.changed.notify_all();
        }
    }

    /// Whether a helper thread is running.
    pub(crate) fn helper_alive(&self) -> bool {
        self.lock().helper_alive
    }

    /// Returns once no job may use `core`'s hierarchy, running claimable
    /// steps meanwhile.
    pub(crate) fn settle_core(&self, core: usize) {
        let mut jobs = self.lock();
        while jobs
            .queue
            .iter()
            .any(|j| j.core == core && j.state != State::Done)
        {
            jobs = self.help_or_wait(jobs);
        }
    }

    /// Takes back the oldest job once its steps have run.
    pub(crate) fn take_front(&self) -> Job {
        let mut jobs = self.lock();
        loop {
            match jobs.queue.front().map(|j| j.state) {
                Some(State::Done) => break,
                Some(_) => jobs = self.help_or_wait(jobs),
                None => unreachable!("no walk is pending"),
            }
        }
        jobs.front += 1;
        jobs.queue.pop_front().expect("front job is done")
    }

    /// Runs the oldest claimable step, or sleeps until a step finishes.
    fn help_or_wait<'a>(&'a self, mut jobs: MutexGuard<'a, Jobs>) -> MutexGuard<'a, Jobs> {
        assert!(!jobs.helper_panicked, "the walk helper thread panicked");
        if let Some(i) = jobs.claimable() {
            return self.execute(jobs, i);
        }
        // The oldest unfinished job can always take its next step unless a
        // step of it runs, so the helper is running one and will wake us.
        jobs.main_asleep = true;
        let mut jobs = self
            .changed
            .wait(jobs)
            .expect("no thread panicked holding the queue");
        jobs.main_asleep = false;
        jobs
    }

    /// Starts the helper on `scope` when `mode` allows, returning the guard
    /// that stops it when dropped (also while unwinding).
    pub(crate) fn start_helper<'scope>(
        self: &Arc<Self>,
        scope: &'scope std::thread::Scope<'scope, '_>,
        mode: HelperMode,
    ) -> HelperGuard {
        let slot = match mode {
            HelperMode::Auto => ThreadSlot::spare(),
            HelperMode::Forced(on) => on.then(ThreadSlot::forced),
        };
        if let Some(slot) = slot {
            self.lock().helper_alive = true;
            let board = Arc::clone(self);
            let stay = matches!(mode, HelperMode::Forced(true));
            scope.spawn(move || board.helper(slot, stay));
        }
        HelperGuard(Arc::clone(self))
    }

    /// The helper thread: runs claimable jobs until shut down or, unless
    /// `stay`, until the process runs more threads than the host has.
    fn helper(&self, _slot: ThreadSlot, stay: bool) {
        struct Exit<'a>(&'a Board);
        impl Drop for Exit<'_> {
            fn drop(&mut self) {
                let mut jobs = self.0.lock_in_drop();
                jobs.helper_alive = false;
                jobs.helper_panicked |= std::thread::panicking();
                self.0.changed.notify_all();
            }
        }
        let _exit = Exit(self);
        let mut jobs = self.lock();
        while !jobs.shutdown && (stay || BUSY_THREADS.load(Ordering::SeqCst) <= host_threads()) {
            if let Some(i) = jobs.claimable() {
                jobs = self.execute(jobs, i);
                continue;
            }
            jobs.helper_asleep = true;
            jobs = self
                .changed
                .wait(jobs)
                .expect("no thread panicked holding the queue");
            jobs.helper_asleep = false;
        }
    }
}

/// Stops the helper thread when dropped.
#[derive(Debug)]
pub(crate) struct HelperGuard(Arc<Board>);

impl Drop for HelperGuard {
    fn drop(&mut self) {
        let mut jobs = self.0.lock_in_drop();
        jobs.shutdown = true;
        self.0.changed.notify_all();
    }
}
