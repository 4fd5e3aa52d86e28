//! The threaded executor: real concurrency, real buffers.
//!
//! One OS thread per simulated processor. Each processor owns a
//! fixed-capacity [`RmaHeap`]; permanent objects are laid out identically
//! and deterministically on every processor's heap (so their addresses are
//! globally known without notification, as in RAPID), while volatile
//! buffers are allocated at MAPs from a real first-fit [`Arena`] and their
//! offsets travel to the data producers through single-slot address
//! mailboxes. Data moves with one-sided `put`s into the destination heap;
//! per-message arrival flags give the release/acquire happens-before edge
//! `SHMEM_PUT` + flag polling gave on the T3D.
//!
//! Each thread steps the same per-processor protocol core the DES steps
//! (the crate's `protocol` module: the five-state machine of the paper's
//! Figure 3(b), whose RA and CQ service operations run in every blocking
//! wait — which is what breaks the circular-wait chains in the Theorem 1
//! proof). This module is its driver: wall-clock trace stamps, the real
//! arena, RMA puts plus arrival flags, the task body over heap buffers,
//! window checkpoints for recovery, and the waiting policy below. Stress
//! tests run many random graphs at exactly `MIN_MEM` capacity to exercise
//! the Theorem 1 argument under real interleavings.
//!
//! ## Hot-path layout
//!
//! The per-task fast path is hash-free and scan-free (the core provides
//! the first three properties to both drivers):
//!
//! - **Address resolution is O(1) array indexing** in the core's dense
//!   `local` (object → offset here) and `known` (`proc * num_objects +
//!   obj` → offset there) tables, seeded with the permanent layout.
//! - **CQ retry is incremental.** A send missing a destination address
//!   parks on its first missing object; an address package wakes exactly
//!   the sends parked on its entries (the two-watched-literal trick: a
//!   retried send still blocked re-parks on its next missing object).
//!   Woken sends retry in suspension order.
//! - **Address packages are batched.** A MAP's notifications arrive
//!   sorted by destination, so one package per collaborating processor
//!   is assembled in a reusable buffer and handed off with one
//!   [`Port::send_package`] each.
//! - **Blocking waits poll flat, then sleep on a doorbell.** A blocked
//!   worker re-steps its core with one spin hint between polls (a yield
//!   every [`YIELD_EVERY`]) for a bounded budget ([`SPIN_POLLS`]), then
//!   sleeps on its [`Doorbell`].
//!   Peers ring it exactly where the DES wakes a processor: a message
//!   put, an address-package hand-off (direct or flushed), a drained
//!   mailbox slot (its source may be blocked in MAP), and a poisoned
//!   run (every bell). The sleep is bounded ([`SLEEP`]), so the stall
//!   watchdog — which photographs every processor when a wait sees no
//!   progress for too long — and any missed ring cost latency, never
//!   liveness. When workers outnumber the online cores the spin budget
//!   is skipped: a spinning worker would steal the core its producer
//!   needs, so the worker yields [`YIELD_POLLS`] times and sleeps. Every step's service round flushes the aggregating port, so
//!   nothing deliverable sits in a sleeper's buffers.
//! - **The comm backend is pluggable.** The core is written once against
//!   the [`Machine`]/[`Port`] surface and monomorphized per backend;
//!   [`Backend::Direct`] is the paper-faithful single-slot scheme
//!   (senders block on a full slot), [`Backend::Aggregating`] coalesces
//!   logical packages per destination into batched hand-offs and never
//!   blocks the sender. END retires only once the port's buffers are
//!   drained, so the Theorem-1 obligations survive aggregation.
//! - **Workers can pin to cores.** [`ThreadedExecutor::with_pinning`]
//!   assigns workers to physical cores NUMA-aware (see
//!   [`rapid_machine::affinity`]) so the per-processor arena and RMA
//!   working sets stop migrating between caches.

use crate::inspector::StateBoard;
use crate::maps::{AccessOp, AccessViolation, ExecError, MapWindow, RtPlan};
use crate::protocol::{CoreEnv, Driver, ProcCore, RecovBoard, Step, NO_ADDR};
use crate::recover::RecoveryPolicy;
use rapid_core::graph::{ObjId, TaskGraph, TaskId};
use rapid_core::schedule::Schedule;
use rapid_machine::affinity;
use rapid_machine::arena::Arena;
use rapid_machine::fault::{FaultPlan, FaultSite};
use rapid_machine::machine::{AggregatingMachine, DirectMachine, Machine, Port};
use rapid_machine::rma::{Doorbell, FlagBoard, RmaHeap};
use rapid_trace::{
    decode_ring, FlatRing, LiveDrain, ProcMetrics, ProcTrace, StreamChecker, TraceConfig,
    TraceReport, TraceSet, TraceTier, Violation,
};
use std::sync::atomic::{AtomicBool, Ordering as AtOrd};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Sentinel for "object not in this task's access set".
const NO_SLOT: u32 = u32::MAX;
/// Default stall watchdog when `RAPID_WATCHDOG_MS` is unset or invalid.
const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);
/// Polls (re-steps, one spin hint apart) a blocked worker makes before it
/// sleeps on its doorbell, when every worker has a core of its own.
const SPIN_POLLS: u32 = 16384;
/// Every this many polls a spinning worker yields instead of spinning
/// (a power of two). The scheduler tends to queue a thread it wakes on
/// the waker's core; without the yield a worker that rings a peer and
/// then spins would keep that peer off the core for a whole timeslice.
const YIELD_EVERY: u32 = 256;
const _: () = assert!(YIELD_EVERY.is_power_of_two(), "the poll loop masks with YIELD_EVERY - 1");
/// Polls before the sleep when workers outnumber the online cores, each
/// one a yield: a spin would steal the core a producer needs, while a
/// yield hands it to a producer queued there, more cheaply than a sleep
/// and a ring.
const YIELD_POLLS: u32 = 4;
/// Longest doorbell sleep: bounds the cost of a missed ring and the
/// watchdog's reaction time.
const SLEEP: Duration = Duration::from_millis(1);

/// Online cores, read once per process (`available_parallelism` reads
/// cgroup files, which would cost more than a short run's protocol).
fn online_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(affinity::online_cpus)
}

/// Parse the `RAPID_WATCHDOG_MS` override: a positive integer number of
/// milliseconds; anything else falls back to [`DEFAULT_WATCHDOG`]. Pure so
/// it is testable without mutating process environment in parallel tests.
fn parse_watchdog_ms(var: Option<&str>) -> Duration {
    match var.and_then(|s| s.trim().parse::<u64>().ok()) {
        Some(ms) if ms > 0 => Duration::from_millis(ms),
        _ => DEFAULT_WATCHDOG,
    }
}

/// Render a caught panic payload for [`ExecError::WorkerPanicked`].
fn panic_payload_str(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string payload>".to_string()
    }
}

/// The buffers a task may touch while running: shared views of the objects
/// it reads, exclusive views of the objects it writes (an object both read
/// and written appears once, in the write set).
///
/// Lookups go through a dense per-object slot table precomputed when the
/// context is assembled, so [`TaskCtx::read`] / [`TaskCtx::write`] are
/// O(1) — no linear scan of the access set.
pub struct TaskCtx<'h> {
    reads: Vec<(u32, &'h [f64])>,
    writes: Vec<(u32, &'h mut [f64])>,
    /// Object id → `(slot << 1) | is_write`, [`NO_SLOT`] when absent.
    /// Pooled by the executor across tasks: entries touched by this task
    /// are reset when the context is dismantled.
    slots: Vec<u32>,
}

impl<'h> TaskCtx<'h> {
    /// Build a context, indexing the access sets into `slots` (a scratch
    /// table of at least `num_objects` entries, all [`NO_SLOT`]).
    fn assemble(
        reads: Vec<(u32, &'h [f64])>,
        writes: Vec<(u32, &'h mut [f64])>,
        mut slots: Vec<u32>,
    ) -> Self {
        for (i, &(o, _)) in reads.iter().enumerate() {
            slots[o as usize] = (i as u32) << 1;
        }
        for (i, (o, _)) in writes.iter().enumerate() {
            slots[*o as usize] = ((i as u32) << 1) | 1;
        }
        TaskCtx { reads, writes, slots }
    }

    /// Tear the context down, resetting the touched slot entries and
    /// returning the pooled parts for the next task.
    #[allow(clippy::type_complexity)]
    fn dismantle(mut self) -> (Vec<(u32, &'h [f64])>, Vec<(u32, &'h mut [f64])>, Vec<u32>) {
        for &(o, _) in &self.reads {
            self.slots[o as usize] = NO_SLOT;
        }
        for (o, _) in &self.writes {
            self.slots[*o as usize] = NO_SLOT;
        }
        self.reads.clear();
        self.writes.clear();
        (self.reads, self.writes, self.slots)
    }

    /// Buffer of a read object. If the task does not read `d` (or also
    /// writes it — use [`TaskCtx::write`]), panics with a typed
    /// [`AccessViolation`] payload; the threaded executor catches it at
    /// the task boundary and returns
    /// [`ExecError::AccessViolation`] instead of aborting the process.
    ///
    /// The returned borrow is tied to the underlying heap (`'h`), not to
    /// the context, so it can be held across a later [`TaskCtx::write`]
    /// call — read and write buffers are always distinct objects.
    #[inline]
    pub fn read(&self, d: ObjId) -> &'h [f64] {
        let e = self.slots.get(d.idx()).copied().unwrap_or(NO_SLOT);
        if e == NO_SLOT || e & 1 == 1 {
            std::panic::panic_any(AccessViolation { obj: d, op: AccessOp::Read });
        }
        self.reads[(e >> 1) as usize].1
    }

    /// Mutable buffer of a written object (reads the previous content for
    /// read-modify-write tasks). If the task does not write `d`, panics
    /// with a typed [`AccessViolation`] payload (see [`TaskCtx::read`]).
    #[inline]
    pub fn write(&mut self, d: ObjId) -> &mut [f64] {
        let e = self.slots.get(d.idx()).copied().unwrap_or(NO_SLOT);
        if e == NO_SLOT || e & 1 == 0 {
            std::panic::panic_any(AccessViolation { obj: d, op: AccessOp::Write });
        }
        &mut *self.writes[(e >> 1) as usize].1
    }

    /// Ids of read-only objects, in access-set order.
    pub fn read_ids(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.reads.iter().map(|&(o, _)| ObjId(o))
    }

    /// Ids of written objects, in access-set order.
    pub fn write_ids(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.writes.iter().map(|&(o, _)| ObjId(o))
    }
}

/// Result of a threaded run.
#[derive(Clone, Debug)]
pub struct ThreadedOutcome {
    /// MAPs performed per processor.
    pub maps: Vec<u32>,
    /// Peak units in use per processor (counting accounting, matching the
    /// DES executor and `MEM_REQ`).
    pub peak_mem: Vec<u64>,
    /// Real arena high-water mark per processor (includes fragmentation).
    pub arena_peak: Vec<u64>,
    /// Final contents of every object, gathered from the owners' heaps.
    pub objects: Vec<Vec<f64>>,
    /// Wall-clock duration of the parallel section.
    pub wall: Duration,
    /// Recorded event traces, when [`ThreadedExecutor::with_tracing`] was
    /// enabled at a tier other than [`TraceTier::Off`] (one ring per
    /// processor, decoded from the flat binary recording).
    pub trace: Option<TraceSet>,
    /// Per-processor aggregates replayed from the trace (present exactly
    /// when `trace` is).
    pub metrics: Option<Vec<ProcMetrics>>,
    /// Verdict of the concurrent streaming checker, when
    /// [`ThreadedExecutor::with_streaming_check`] was armed: the same
    /// typed result the post-hoc [`rapid_trace::check`] replay produces.
    pub stream_verdict: Option<Result<TraceReport, Violation>>,
}

/// Comm-backend selection for the threaded executor (see the module
/// docs; both run the identical protocol code behind [`Machine`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Paper-faithful single-slot address mailboxes: a sender whose
    /// destination slot is still occupied blocks in MAP
    /// (service-and-retry) until the receiver drains it.
    Direct,
    /// Native fast path: logical packages coalesce in per-destination
    /// sender-side buffers and travel as one physical batch. Senders
    /// never block; `threshold` is the entry count above which a
    /// destination buffer is opportunistically flushed on send.
    Aggregating {
        /// Entries per destination buffer before an eager flush.
        threshold: usize,
    },
}

/// The threaded executor.
pub struct ThreadedExecutor<'a> {
    g: &'a TaskGraph,
    sched: &'a Schedule,
    plan: RtPlan,
    capacity: u64,
    /// Watchdog: poison the run if no local progress (task completion,
    /// address arrival, or message hand-off) happens within this duration.
    /// Defaults to 30 s, overridable through the `RAPID_WATCHDOG_MS`
    /// environment variable or [`ThreadedExecutor::with_watchdog`].
    pub watchdog: Duration,
    backend: Backend,
    pinning: bool,
    faults: Option<FaultPlan>,
    tracing: Option<TraceConfig>,
    recovery: Option<RecoveryPolicy>,
    streaming: bool,
    /// Rings from the previous traced run, kept for reuse: on this
    /// machine class a multi-MB ring allocation (mmap + munmap per run)
    /// can cost more than the recording itself, so repeated runs on one
    /// executor — benchmarks, feedback loops — pay for their rings once.
    ring_pool: Mutex<Vec<FlatRing>>,
}

impl<'a> ThreadedExecutor<'a> {
    /// Prepare an executor. Requires an owner-compute schedule (every
    /// writer of an object runs on its owner) so that final object values
    /// live in the owners' permanent buffers.
    pub fn new(g: &'a TaskGraph, sched: &'a Schedule, capacity: u64) -> Self {
        assert!(
            rapid_sched::assign::is_owner_compute(g, &sched.assign),
            "threaded executor requires an owner-compute schedule"
        );
        let plan = RtPlan::new(g, sched);
        let watchdog = parse_watchdog_ms(std::env::var("RAPID_WATCHDOG_MS").ok().as_deref());
        ThreadedExecutor {
            g,
            sched,
            plan,
            capacity,
            watchdog,
            backend: Backend::Direct,
            pinning: false,
            faults: None,
            tracing: None,
            recovery: None,
            streaming: false,
            ring_pool: Mutex::new(Vec::new()),
        }
    }

    /// The protocol plan this executor runs. Pair with
    /// [`RtPlan::trace_spec`] to build the [`rapid_trace::ProtocolSpec`]
    /// the invariant checker replays a recorded trace against.
    pub fn plan(&self) -> &RtPlan {
        &self.plan
    }

    /// Record a per-processor event trace during the run (builder form).
    /// Recording goes through the flat binary rings: each worker writes
    /// fixed-width records with a single unsynchronized cursor bump, and
    /// decodes its own ring back into the typed [`rapid_trace::Event`]
    /// schema before its thread returns. The config's
    /// [`TraceTier`] picks how much is captured; `TraceTier::Off`
    /// behaves exactly like not calling this at all (no rings, no
    /// trace in the outcome). Every record site is a single `Option`
    /// branch, so runs without tracing keep the untraced hot path.
    pub fn with_tracing(mut self, cfg: TraceConfig) -> Self {
        self.tracing = Some(cfg);
        self
    }

    /// Check the Theorem-1 obligations *while the run executes* (builder
    /// form): a dedicated checker thread claims each worker's flat ring
    /// via seqlock-style epoch claims, replays the events through the
    /// same [`StreamChecker`] core the post-hoc [`rapid_trace::check`]
    /// uses, and delivers its verdict in
    /// [`ThreadedOutcome::stream_verdict`]. Requires
    /// [`ThreadedExecutor::with_tracing`] at a tier other than
    /// [`TraceTier::Off`]; otherwise the verdict is `None`.
    pub fn with_streaming_check(mut self) -> Self {
        self.streaming = true;
        self
    }

    /// Override the stall watchdog (builder form; takes precedence over
    /// the `RAPID_WATCHDOG_MS` default read by [`ThreadedExecutor::new`]).
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Select the comm backend (builder form; defaults to
    /// [`Backend::Direct`]).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Shorthand for the aggregating backend with the given flush
    /// threshold (entries per destination buffer; see
    /// [`rapid_machine::machine::DEFAULT_AGG_THRESHOLD`]).
    pub fn with_aggregation(self, threshold: usize) -> Self {
        self.with_backend(Backend::Aggregating { threshold })
    }

    /// Pin each worker thread to a physical core, NUMA-aware (builder
    /// form). When the host has fewer distinct cores than workers the
    /// plan degrades to floating threads, which is always safe.
    pub fn with_pinning(mut self, pinning: bool) -> Self {
        self.pinning = pinning;
        self
    }

    /// Inject a deterministic, seeded fault plan (chaos testing): mailbox
    /// send rejection/delay, RMA put delay, transient allocation failure
    /// and per-task worker jitter. Without a plan every injection site is
    /// a single `Option` branch, so the fault-free hot path is unchanged.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Arm self-healing window recovery (builder form): site-level
    /// retries under the policy's budgets, a checkpoint of every
    /// allocation window's write set, and window-granular rollback &
    /// re-execution on a task panic or access violation. A window still
    /// failing when its budget is exhausted surfaces
    /// [`ExecError::Unrecoverable`] naming the spent budget. Without
    /// this call every recovery site is a single `Option` branch and no
    /// checkpoint is captured — the fault-free hot path is unchanged.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Run the schedule, applying `body` to every task. Object buffers
    /// start zeroed.
    pub fn run<F>(&self, body: F) -> Result<ThreadedOutcome, ExecError>
    where
        F: Fn(TaskId, &mut TaskCtx<'_>) + Sync,
    {
        self.run_with_init(body, |_, _| {})
    }

    /// Run the schedule with owner-side data initialization: before the
    /// protocol starts, each processor fills the permanent buffers of the
    /// objects it owns with `init(obj, buf)` — the RAPID convention where
    /// irregular data is resident before the executor stage (it is *not*
    /// part of the task graph, so it does not constrain DTS slicing).
    ///
    /// Note: `init` affects only the owners' permanent copies. An object
    /// that is read remotely before ever being written would see zeros on
    /// the reading processor; dependence-complete graphs produced by the
    /// builders in this workspace always write an object before any
    /// remote read.
    pub fn run_with_init<F, I>(&self, body: F, init: I) -> Result<ThreadedOutcome, ExecError>
    where
        F: Fn(TaskId, &mut TaskCtx<'_>) + Sync,
        I: Fn(ObjId, &mut [f64]) + Sync,
    {
        // Monomorphize the protocol over the chosen backend: the worker
        // code below is compiled once per machine type with no dynamic
        // dispatch on the hot path.
        let nprocs = self.sched.assign.nprocs;
        match self.backend {
            Backend::Direct => self.run_on(&DirectMachine::new(nprocs), body, init),
            Backend::Aggregating { threshold } => {
                self.run_on(&AggregatingMachine::with_threshold(nprocs, threshold), body, init)
            }
        }
    }

    /// The backend-generic run: one worker per processor, each stepping
    /// its protocol core against the [`Machine`]/[`Port`] surface only.
    fn run_on<M, F, I>(&self, machine: &M, body: F, init: I) -> Result<ThreadedOutcome, ExecError>
    where
        M: Machine,
        F: Fn(TaskId, &mut TaskCtx<'_>) + Sync,
        I: Fn(ObjId, &mut [f64]) + Sync,
    {
        let nprocs = self.sched.assign.nprocs;
        let g = self.g;
        let sched = self.sched;

        // Deterministic permanent layout: objects in id order, bump
        // allocated from 0 on the owner's heap.
        let mut perm_off = vec![0u64; g.num_objects()];
        {
            let mut cursor = vec![0u64; nprocs];
            for d in g.objects() {
                let o = sched.assign.owner_of(d) as usize;
                perm_off[d.idx()] = cursor[o];
                cursor[o] += g.obj_size(d);
                if cursor[o] > self.capacity {
                    return Err(ExecError::NonExecutable {
                        proc: o as u32,
                        position: 0,
                        needed: cursor[o],
                        capacity: self.capacity,
                    });
                }
            }
        }

        let heaps: Vec<RmaHeap> = (0..nprocs).map(|_| RmaHeap::new(self.capacity)).collect();
        let flags = FlagBoard::new(self.plan.msgs.len());
        let bells: Vec<Doorbell> = (0..nprocs).map(|_| Doorbell::new()).collect();
        let env = CoreEnv {
            g,
            sched,
            plan: &self.plan,
            capacity: self.capacity,
            window: MapWindow::Greedy,
            managed: true,
            perm_off: &perm_off,
            recovery: self.recovery,
            board: StateBoard::new(nprocs),
            recov: RecovBoard::new(nprocs),
        };
        let poison = AtomicBool::new(false);
        let error: Mutex<Option<ExecError>> = Mutex::new(None);
        let error = &error;
        let pin_plan: Vec<Option<usize>> =
            if self.pinning { affinity::assign_cores(nprocs) } else { vec![None; nprocs] };

        // Flat binary recording: one ring per worker, sized with ~25%
        // headroom over the configured event capacity so object-list
        // continuation records do not eat into the event budget. Rings
        // from a previous run on this executor are reset and reused when
        // they still fit the configuration — the allocation (a multi-MB
        // mmap/munmap round trip at the default capacity) would otherwise
        // dwarf the recording cost on short runs.
        let tier = self.tracing.map_or(TraceTier::Off, |tc| tc.tier);
        let rings: Option<Vec<FlatRing>> = (tier != TraceTier::Off).then(|| {
            let cap = self.tracing.map_or(0, |tc| tc.capacity);
            let want = cap + cap / 4;
            let mut pool = match self.ring_pool.lock() {
                Ok(mut p) => std::mem::take(&mut *p),
                Err(_) => Vec::new(),
            };
            let fits = pool.len() == nprocs
                && pool.iter().enumerate().all(|(p, r)| {
                    r.proc == p as u32 && r.capacity_records() == FlatRing::rounded_capacity(want)
                });
            if fits {
                for r in &mut pool {
                    r.reset();
                }
                pool
            } else {
                (0..nprocs).map(|p| FlatRing::new(p as u32, want)).collect()
            }
        });
        let rings_ref: Option<&[FlatRing]> = rings.as_deref();

        let epoch = Instant::now();
        let shared = Shared {
            env: &env,
            heaps: &heaps,
            flags: &flags,
            bells: &bells,
            oversubscribed: nprocs > online_cores(),
            machine,
            pin_plan: &pin_plan,
            poison: &poison,
            watchdog: self.watchdog,
            faults: self.faults.as_ref(),
            rings: rings_ref,
            tier,
            epoch,
            body: &body,
            init: &init,
        };
        let shared = &shared;

        let fail = move |e: ExecError| {
            // First error wins; a poisoned lock just means another worker
            // panicked while reporting — recover and keep its error.
            let mut slot = error.lock().unwrap_or_else(|p| p.into_inner());
            if slot.is_none() {
                *slot = Some(e);
            }
            shared.poison.store(true, AtOrd::Release);
            for bell in shared.bells {
                bell.ring();
            }
        };
        let fail = &fail;

        // Quiesce signal for the streaming checker: raised after every
        // worker has joined, so its final drain sees quiesced rings.
        let quiesced = AtomicBool::new(false);
        let quiesced = &quiesced;

        type PerProc = (u32, u64, u64, Option<(ProcTrace, ProcMetrics)>);
        let (per_proc, stream_verdict): (Vec<PerProc>, _) = std::thread::scope(|scope| {
            let checker = match (self.streaming, rings_ref) {
                (true, Some(rs)) => Some(scope.spawn(move || {
                    let spec = self.plan.trace_spec(self.capacity);
                    let mut drain = LiveDrain::new(StreamChecker::new(g, sched, spec, tier));
                    while !quiesced.load(AtOrd::Acquire) {
                        if !drain.poll(rs) {
                            // Idle: nothing new published. Sleep rather
                            // than spin so the checker core does not
                            // perturb the measured run.
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    }
                    drain.finish(rs)
                })),
                _ => None,
            };
            let handles: Vec<_> =
                (0..nprocs).map(|p| scope.spawn(move || worker(p, shared, fail))).collect();
            let per_proc = handles
                .into_iter()
                .enumerate()
                .map(|(p, h)| {
                    // Task-body panics are caught inside the worker; a join
                    // error therefore means the worker itself died (an
                    // executor bug). Poison the run and surface it as a
                    // typed error instead of aborting the process.
                    h.join().unwrap_or_else(|payload| {
                        fail(ExecError::WorkerPanicked {
                            proc: p as u32,
                            task: None,
                            payload: panic_payload_str(payload.as_ref()),
                        });
                        (0, 0, 0, None)
                    })
                })
                .collect();
            quiesced.store(true, AtOrd::Release);
            let verdict = checker.and_then(|h| match h.join() {
                Ok(v) => Some(v),
                Err(payload) => {
                    fail(ExecError::WorkerPanicked {
                        proc: nprocs as u32,
                        task: None,
                        payload: panic_payload_str(payload.as_ref()),
                    });
                    None
                }
            });
            (per_proc, verdict)
        });
        let wall = epoch.elapsed();

        if poison.load(AtOrd::Acquire) {
            return Err(error
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take()
                .unwrap_or(ExecError::Stalled { remaining: 0, snapshot: None }));
        }

        // Gather final object contents from the owners' permanent buffers.
        // SAFETY: all worker threads have joined; no concurrent access.
        let objects = g
            .objects()
            .map(|d| {
                let o = sched.assign.owner_of(d) as usize;
                unsafe { heaps[o].slice(perm_off[d.idx()], g.obj_size(d)) }.to_vec()
            })
            .collect();

        let maps = per_proc.iter().map(|&(m, _, _, _)| m).collect();
        let peak_mem = per_proc.iter().map(|&(_, pk, _, _)| pk).collect();
        let arena_peak = per_proc.iter().map(|&(_, _, ap, _)| ap).collect();
        // Each worker decoded its own ring (and aggregated its metrics)
        // in parallel before its thread returned; a worker that died
        // without reporting still left its ring behind, so decode it
        // here.
        let (trace, metrics) = match &rings {
            Some(rs) => {
                let mut procs = Vec::with_capacity(nprocs);
                let mut ms = Vec::with_capacity(nprocs);
                for (p, (_, _, _, t)) in per_proc.into_iter().enumerate() {
                    let (t, m) = t.unwrap_or_else(|| {
                        let t = decode_ring(&rs[p]);
                        let m = ProcMetrics::from_trace(&t);
                        (t, m)
                    });
                    procs.push(t);
                    ms.push(m);
                }
                (Some(TraceSet::new(procs)), Some(ms))
            }
            None => (None, None),
        };

        // Park the rings for the next run on this executor (skipped if
        // the pool lock was poisoned — the next run simply reallocates).
        if let (Some(rs), Ok(mut pool)) = (rings, self.ring_pool.lock()) {
            *pool = rs;
        }

        Ok(ThreadedOutcome {
            maps,
            peak_mem,
            arena_peak,
            objects,
            wall,
            trace,
            metrics,
            stream_verdict,
        })
    }
}

/// Execute the schedule sequentially (one buffer per object) — the
/// reference the threaded executor is validated against.
pub fn run_sequential<F>(g: &TaskGraph, body: F) -> Vec<Vec<f64>>
where
    F: Fn(TaskId, &mut TaskCtx<'_>),
{
    run_sequential_with_init(g, body, |_, _| {})
}

/// [`run_sequential`] with data initialization (mirrors
/// [`ThreadedExecutor::run_with_init`]).
pub fn run_sequential_with_init<F, I>(g: &TaskGraph, body: F, init: I) -> Vec<Vec<f64>>
where
    F: Fn(TaskId, &mut TaskCtx<'_>),
    I: Fn(ObjId, &mut [f64]),
{
    let mut bufs: Vec<Vec<f64>> = g.objects().map(|d| vec![0.0; g.obj_size(d) as usize]).collect();
    for (i, buf) in bufs.iter_mut().enumerate() {
        init(ObjId(i as u32), buf);
    }
    // `TaskGraphBuilder::build` rejects cycles, so a constructed graph
    // always topo-sorts; return the initialized (untouched) buffers
    // rather than panicking if that invariant ever breaks.
    let Some(order) = rapid_core::algo::topo_sort(g) else { return bufs };
    let mut slots = vec![NO_SLOT; g.num_objects()];
    for t in order {
        // Split-borrow the buffers: writes mutably, reads shared.
        let writes_ids = g.writes(t);
        let mut writes: Vec<(u32, &mut [f64])> = Vec::with_capacity(writes_ids.len());
        let mut reads: Vec<(u32, &[f64])> = Vec::new();
        // SAFETY: object ids are distinct within each set and across the
        // two sets (reads that are also written are dropped below), and
        // `bufs` outlives the ctx; we hand out one &mut per distinct id.
        let base = bufs.as_mut_ptr();
        for &d in writes_ids {
            let slice = unsafe { &mut *base.add(d as usize) };
            writes.push((d, slice.as_mut_slice()));
        }
        for &d in g.reads(t) {
            if writes_ids.binary_search(&d).is_err() {
                let slice = unsafe { &*base.add(d as usize) };
                reads.push((d, slice.as_slice()));
            }
        }
        let mut ctx = TaskCtx::assemble(reads, writes, slots);
        body(t, &mut ctx);
        slots = ctx.dismantle().2;
    }
    bufs
}

/// Everything the workers share by reference — one immutable bundle so
/// the worker signature stays small.
struct Shared<'e, F, I, M> {
    env: &'e CoreEnv<'e>,
    heaps: &'e [RmaHeap],
    flags: &'e FlagBoard,
    /// One doorbell per worker, rung where the DES would wake it.
    bells: &'e [Doorbell],
    /// Workers outnumber the online cores: poll by yielding only.
    oversubscribed: bool,
    machine: &'e M,
    /// Worker → core plan (`None` = float); all-`None` unless
    /// [`ThreadedExecutor::with_pinning`] was requested.
    pin_plan: &'e [Option<usize>],
    poison: &'e AtomicBool,
    watchdog: Duration,
    faults: Option<&'e FaultPlan>,
    /// Flat recording rings, one per worker (`None` when tracing is off).
    rings: Option<&'e [FlatRing]>,
    /// Sampling tier the rings record at.
    tier: TraceTier,
    /// Epoch of the parallel section; trace timestamps are nanoseconds
    /// since this instant.
    epoch: Instant,
    body: &'e F,
    init: &'e I,
}

/// Progress pacing for a worker's blocking waits: the poll budget plus
/// the stall watchdog's progress clock. The watchdog measures time
/// since the last *local progress* (task completion, address arrival,
/// suspended send completing, or a mailbox hand-off) — not total wall
/// time, so long runs that keep making progress are never falsely
/// poisoned. Progress only raises a flag; the clock is read when the
/// worker runs out of polls, so the per-task path reads no clock.
struct Pacer {
    budget: u32,
    polls_left: u32,
    /// A poll yields when `polls_left & yield_mask == 0`.
    yield_mask: u32,
    progressed: bool,
    last_progress: Instant,
}

impl Pacer {
    fn new(oversubscribed: bool) -> Self {
        let (budget, yield_mask) =
            if oversubscribed { (YIELD_POLLS, 0) } else { (SPIN_POLLS, YIELD_EVERY - 1) };
        Pacer {
            budget,
            polls_left: budget,
            yield_mask,
            progressed: false,
            last_progress: Instant::now(),
        }
    }

    /// Record progress: refill the poll budget and restart the watchdog.
    #[inline]
    fn mark(&mut self) {
        self.polls_left = self.budget;
        self.progressed = true;
    }

    /// Spend one poll of the budget (a spin hint or a yield); `false`
    /// once it is spent and the worker should sleep.
    #[inline]
    fn poll(&mut self) -> bool {
        if self.polls_left == 0 {
            return false;
        }
        self.polls_left -= 1;
        if self.polls_left & self.yield_mask == 0 {
            std::thread::yield_now();
        } else {
            core::hint::spin_loop();
        }
        true
    }

    /// Has the watchdog period elapsed with no progress? Progress marked
    /// since the last call restarts the period now.
    fn stalled(&mut self, watchdog: Duration) -> bool {
        if std::mem::take(&mut self.progressed) {
            self.last_progress = Instant::now();
            return false;
        }
        self.last_progress.elapsed() > watchdog
    }
}

/// The threaded [`Driver`]: wall-clock time, a real arena, RMA puts plus
/// arrival flags, and the task body over heap buffers.
///
/// The trace clock is *cached*: only protocol-state transitions, MAP
/// boundaries and rollbacks always refresh it (`Instant::elapsed` is a
/// few tens of ns — comparable to the flat record write itself, and
/// much more than that inside a VM). Task boundaries and message
/// receipts refresh only at [`TraceTier::Full`], where per-task timeline
/// spans are worth the clock reads; high-frequency noise records reuse
/// the last refreshed timestamp. The dwell metrics depend only on state
/// transitions, and the checker ignores timestamps, so the cache never
/// changes a verdict.
struct Worker<'e, F, I, M> {
    sh: &'e Shared<'e, F, I, M>,
    p: usize,
    arena: Arena,
    last_ts: u64,
    /// Pooled task-context parts (no allocation in steady state).
    ctx_reads: Vec<(u32, &'e [f64])>,
    ctx_writes: Vec<(u32, &'e mut [f64])>,
    slots: Vec<u32>,
    /// Pre-window contents of the current window's write set, for
    /// EXE-phase rollback: `(obj, units, offset, start in ckpt_data)`.
    ckpt: Vec<(u32, u64, u64, usize)>,
    ckpt_data: Vec<f64>,
    ckpt_seen: Vec<bool>,
}

impl<'e, F, I, M, P> Driver<P> for Worker<'e, F, I, M>
where
    F: Fn(TaskId, &mut TaskCtx<'_>) + Sync,
    P: Port,
{
    const TASK_JITTER: bool = true;

    #[inline]
    fn stamp(&mut self, fresh: bool) -> u64 {
        if fresh {
            self.last_ts = self.sh.epoch.elapsed().as_nanos() as u64;
        }
        self.last_ts
    }

    fn arena(&mut self) -> Option<&mut Arena> {
        Some(&mut self.arena)
    }

    fn delay(&mut self, _: FaultSite, d: Duration) {
        std::thread::sleep(d);
    }

    #[inline]
    fn received(&mut self, mids: &[u32]) -> bool {
        mids.iter().all(|&mid| self.sh.flags.is_raised(mid as usize))
    }

    fn put(&mut self, mid: u32, local: &[u64], remote: &[u64]) {
        let (sh, p) = (self.sh, self.p);
        let msg = &sh.env.plan.msgs[mid as usize];
        for &d in &msg.objs {
            let len = sh.env.g.obj_size(d);
            debug_assert_ne!(local[d.idx()], NO_ADDR, "volatile {d:?} not allocated on P{p}");
            // SAFETY (module protocol): we produced this object (our task
            // wrote it and no later writer has run — dependence
            // completeness), and the destination buffer is exclusively
            // ours to fill until we raise the flag.
            unsafe {
                let src = sh.heaps[p].slice(local[d.idx()], len);
                sh.heaps[msg.dst_proc as usize].put(remote[d.idx()], src);
            }
        }
        sh.flags.raise(mid as usize);
        sh.bells[msg.dst_proc as usize].ring();
    }

    fn pkg_drained(&mut self, src: usize) {
        self.sh.bells[src].ring();
    }

    fn handed_off(&mut self, dst: usize) {
        self.sh.bells[dst].ring();
    }

    fn rejected(&mut self) {
        // Rung only if announced: then the coming sleep returns at once.
        self.sh.bells[self.p].ring();
    }

    fn execute(&mut self, t: TaskId, local: &[u64]) -> Result<(), ExecError> {
        let (g, heap, p) = (self.sh.env.g, &self.sh.heaps[self.p], self.p);
        let resolve = |d: ObjId| {
            let off = local[d.idx()];
            debug_assert_ne!(off, NO_ADDR, "volatile {d:?} not allocated on P{p}");
            off
        };
        let writes_ids = g.writes(t);
        for &d in writes_ids {
            let d = ObjId(d);
            // SAFETY (module protocol): this task is the unique writer of
            // `d` at this point of the dependence-complete schedule;
            // readers have either consumed earlier versions or are
            // ordered after us.
            self.ctx_writes.push((d.0, unsafe { heap.slice_mut(resolve(d), g.obj_size(d)) }));
        }
        for &d in g.reads(t) {
            if writes_ids.binary_search(&d).is_ok() {
                continue;
            }
            let d = ObjId(d);
            // SAFETY: arrival flags have been observed with Acquire; no
            // writer may touch this buffer until tasks ordered after us
            // run.
            self.ctx_reads.push((d.0, unsafe { heap.slice(resolve(d), g.obj_size(d)) }));
        }
        let mut ctx = TaskCtx::assemble(
            std::mem::take(&mut self.ctx_reads),
            std::mem::take(&mut self.ctx_writes),
            std::mem::take(&mut self.slots),
        );
        // A panicking body must not abort the process: catch it at the
        // task boundary and surface it typed. An [`AccessViolation`]
        // payload (raised by the ctx accessors) keeps its type.
        let body = self.sh.body;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(t, &mut ctx)));
        // Reclaim the pooled parts (and reset the slot table) on both
        // paths — a recovered window re-assembles contexts.
        (self.ctx_reads, self.ctx_writes, self.slots) = ctx.dismantle();
        outcome.map_err(|payload| match payload.downcast::<AccessViolation>() {
            Ok(v) => ExecError::AccessViolation { proc: p as u32, task: t, obj: v.obj, op: v.op },
            Err(other) => ExecError::WorkerPanicked {
                proc: p as u32,
                task: Some(t),
                payload: panic_payload_str(other.as_ref()),
            },
        })
    }

    /// Photograph the window's write set before any of its tasks run:
    /// bodies may read-modify-write their local permanents, so a rollback
    /// must restore pre-window contents. Volatiles are deliberately not
    /// captured — remote puts fill them, survive a rollback (flags stay
    /// raised), and this worker's tasks never write them (owner-compute).
    fn checkpoint(&mut self, tasks: &[TaskId], local: &[u64]) {
        let (g, heap) = (self.sh.env.g, &self.sh.heaps[self.p]);
        self.ckpt.clear();
        self.ckpt_data.clear();
        self.ckpt_seen.resize(g.num_objects(), false);
        for &wt in tasks {
            for &w in g.writes(wt) {
                if std::mem::replace(&mut self.ckpt_seen[w as usize], true) {
                    continue;
                }
                let (off, len) = (local[w as usize], g.obj_size(ObjId(w)));
                let start = self.ckpt_data.len();
                // SAFETY: our own permanent buffer (owner-compute makes
                // this worker its only writer), read before any task of
                // this window has run.
                self.ckpt_data.extend_from_slice(unsafe { heap.slice(off, len) });
                self.ckpt.push((w, len, off, start));
            }
        }
        for &(w, ..) in &self.ckpt {
            self.ckpt_seen[w as usize] = false;
        }
    }

    fn restore(&mut self) {
        let heap = &self.sh.heaps[self.p];
        for &(_, len, off, start) in &self.ckpt {
            // SAFETY: the same exclusive local permanents the checkpoint
            // read; no remote writer exists (owner-compute) and no local
            // task is running.
            unsafe { heap.slice_mut(off, len) }
                .copy_from_slice(&self.ckpt_data[start..start + len as usize]);
        }
    }
}

/// Per-thread worker: steps this processor's [`ProcCore`], polling flat
/// and then sleeping on its doorbell while blocked, under the stall
/// watchdog. Returns `(maps, peak_units, arena_peak, trace)`, the trace
/// already decoded from this worker's flat ring (with its aggregate
/// metrics) so the decode work runs in parallel across workers.
fn worker<F, I, M>(
    p: usize,
    sh: &Shared<'_, F, I, M>,
    fail: &(impl Fn(ExecError) + Sync),
) -> (u32, u64, u64, Option<(ProcTrace, ProcMetrics)>)
where
    F: Fn(TaskId, &mut TaskCtx<'_>) + Sync,
    I: Fn(ObjId, &mut [f64]) + Sync,
    M: Machine,
{
    let env = sh.env;
    let g = env.g;
    // Pin before touching any heap memory so first-touch pages land on
    // this worker's NUMA node. Failure leaves the thread floating.
    if let Some(cpu) = sh.pin_plan[p] {
        let _ = affinity::pin_current_thread(cpu);
    }
    let bell = &sh.bells[p];
    bell.bind();
    let ring = sh.rings.map(|rs| &rs[p]);
    let mut drv = Worker {
        sh,
        p,
        arena: Arena::new(env.capacity),
        last_ts: 0,
        ctx_reads: Vec::new(),
        ctx_writes: Vec::new(),
        slots: vec![NO_SLOT; g.num_objects()],
        ckpt: Vec::new(),
        ckpt_data: Vec::new(),
        ckpt_seen: Vec::new(),
    };
    let mut core = ProcCore::new(
        env,
        p,
        sh.machine.port(p),
        sh.faults.map(|f| f.for_proc(p)),
        ring.map(|r| r.writer(sh.tier)),
        &mut drv,
    );
    let decode = |r: &FlatRing| {
        let t = decode_ring(r);
        let m = ProcMetrics::from_trace(&t);
        (t, m)
    };

    // Reproduce the deterministic permanent layout and load resident data.
    for d in g.objects() {
        if env.sched.assign.owner_of(d) as usize != p {
            continue;
        }
        let Ok(off) = drv.arena.alloc(g.obj_size(d)) else {
            fail(ExecError::NonExecutable {
                proc: p as u32,
                position: 0,
                needed: env.plan.perm_units[p],
                capacity: env.capacity,
            });
            drop(core);
            return (0, 0, drv.arena.peak(), ring.map(decode));
        };
        debug_assert_eq!(off, env.perm_off[d.idx()]);
        // SAFETY: setup phase — no other thread touches our permanent
        // buffers before the protocol starts (the first remote put needs
        // an address package or a write by our own tasks).
        (sh.init)(d, unsafe { sh.heaps[p].slice_mut(off, g.obj_size(d)) });
    }

    let mut pacer = Pacer::new(sh.oversubscribed);
    // A step taken by the sleep handshake, still to be handled.
    let mut next = None;
    loop {
        match next.take().unwrap_or_else(|| core.step(&mut drv)) {
            Ok(Step::Done) => break,
            Ok(Step::Ran) | Ok(Step::Blocked(true)) => pacer.mark(),
            Ok(Step::Blocked(false)) => {
                if sh.poison.load(AtOrd::Acquire) {
                    break;
                }
                if pacer.poll() {
                    continue;
                }
                if pacer.stalled(sh.watchdog) {
                    let nprocs = env.sched.assign.nprocs;
                    let full_to = |q: usize| {
                        sh.machine
                            .board()
                            .map(|b| {
                                (0..nprocs)
                                    .filter(|&r| r != q && b.slot(q, r).is_full())
                                    .map(|r| r as u32)
                                    .collect()
                            })
                            .unwrap_or_default()
                    };
                    let snapshot = env.stall_snapshot(
                        p,
                        sh.watchdog.as_millis() as u64,
                        sh.flags.raised_count(),
                        ring,
                        full_to,
                        |q| sh.machine.pending_hint(q),
                    );
                    fail(ExecError::Stalled {
                        remaining: env.sched.order[p].len() - core.pos() as usize,
                        snapshot: Some(Box::new(snapshot)),
                    });
                    break;
                }
                // Out of polls: announce, re-check once (a full step,
                // whose service round also flushes the port), then sleep
                // unless the re-check or the poison flag found work.
                bell.announce();
                let again = core.step(&mut drv);
                if matches!(again, Ok(Step::Blocked(false))) && !sh.poison.load(AtOrd::Acquire) {
                    bell.sleep(SLEEP);
                } else {
                    bell.retract();
                    next = Some(again);
                }
            }
            Err(e) => {
                fail(e);
                break;
            }
        }
    }
    let (maps, peak) = core.finish();
    (maps, peak, drv.arena.peak(), ring.map(decode))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_core::fixtures;
    use rapid_core::memreq::min_mem;
    use rapid_core::schedule::CostModel;

    /// A deterministic task body: every written buffer cell becomes
    /// `task_id + 1 + Σ(read buffers) + previous content`.
    fn test_body(t: TaskId, ctx: &mut TaskCtx<'_>) {
        let acc: f64 = ctx.reads.iter().flat_map(|(_, s)| s.iter()).sum();
        for (_, w) in ctx.writes.iter_mut() {
            for x in w.iter_mut() {
                *x += t.0 as f64 + 1.0 + acc;
            }
        }
    }

    #[test]
    fn figure2_threaded_matches_sequential() {
        let g = fixtures::figure2_dag();
        for sched in [fixtures::figure2_schedule_b(), fixtures::figure2_schedule_c()] {
            let exec = ThreadedExecutor::new(&g, &sched, 64);
            let out = exec.run(test_body).unwrap();
            let reference = run_sequential(&g, test_body);
            assert_eq!(out.objects, reference);
            assert_eq!(out.maps, vec![1, 1]);
        }
    }

    #[test]
    fn figure2_threaded_at_exact_min_mem() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let mm = min_mem(&g, &sched).min_mem;
        let exec = ThreadedExecutor::new(&g, &sched, mm);
        let out = exec.run(test_body).unwrap();
        assert_eq!(out.objects, run_sequential(&g, test_body));
        assert!(out.peak_mem.iter().all(|&pk| pk <= mm));
        assert!(out.maps.iter().any(|&m| m > 1), "tight memory forces extra MAPs");
    }

    #[test]
    fn below_min_mem_fails_cleanly() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let mm = min_mem(&g, &sched).min_mem;
        let exec = ThreadedExecutor::new(&g, &sched, mm - 1);
        match exec.run(test_body) {
            Err(ExecError::NonExecutable { .. }) => {}
            other => panic!("expected NonExecutable, got {other:?}"),
        }
    }

    #[test]
    fn random_graph_stress_at_min_mem() {
        // The deadlock-freedom (Theorem 1) stress: random irregular graphs
        // on 4 threads at exactly MIN_MEM, MPO order.
        for seed in 0..8u64 {
            let g = fixtures::random_irregular_graph(seed, &fixtures::RandomGraphSpec::default());
            let owner = rapid_sched::assign::cyclic_owner_map(g.num_objects(), 4);
            let assign = rapid_sched::assign::owner_compute_assignment(&g, &owner, 4);
            let sched = rapid_sched::mpo::mpo_order(&g, &assign, &CostModel::unit());
            let mm = min_mem(&g, &sched).min_mem;
            let exec = ThreadedExecutor::new(&g, &sched, mm);
            match exec.run(test_body) {
                Ok(out) => {
                    assert_eq!(
                        out.objects,
                        run_sequential(&g, test_body),
                        "seed {seed}: results differ"
                    );
                }
                // A first-fit arena may fragment at exactly MIN_MEM with
                // mixed object sizes; that is a resource failure, not a
                // protocol failure.
                Err(ExecError::Fragmented { .. }) => {}
                Err(e) => panic!("seed {seed}: {e}"),
            }
        }
    }

    #[test]
    fn sequential_reference_accumulates_updates() {
        // w(d)=1; two chained updates add 2 and 3 => 6 per cell... the
        // body adds t+1 each time: t0 writes 1, t1 adds 2, t2 adds 3.
        let mut b = rapid_core::graph::TaskGraphBuilder::new();
        let d = b.add_object(3);
        let t0 = b.add_task(1.0, &[], &[d]);
        let t1 = b.add_task(1.0, &[], &[d]);
        let t2 = b.add_task(1.0, &[], &[d]);
        b.add_edge(t0, t1);
        b.add_edge(t1, t2);
        let g = b.build().unwrap();
        let out = run_sequential(&g, test_body);
        assert_eq!(out[0], vec![6.0, 6.0, 6.0]);
        let _ = (t0, t1, t2);
    }

    #[test]
    fn ctx_accessors_panic_on_wrong_set() {
        let mut b = rapid_core::graph::TaskGraphBuilder::new();
        let dr = b.add_object(1);
        let dw = b.add_object(1);
        let t0 = b.add_task(1.0, &[], &[dr]);
        let t1 = b.add_task(1.0, &[dr], &[dw]);
        b.add_edge(t0, t1);
        let g = b.build().unwrap();
        run_sequential(&g, |t, ctx| {
            if t == t1 {
                // Correct accesses work and are index-resolved.
                assert_eq!(ctx.read(dr).len(), 1);
                assert_eq!(ctx.write(dw).len(), 1);
                // Wrong-set accesses panic.
                assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ctx.read(dw);
                }))
                .is_err());
                let unknown = ObjId(999);
                assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ctx.read(unknown);
                }))
                .is_err());
            }
        });
    }

    /// Watchdog regression (satellite): a run whose *total* wall time far
    /// exceeds the watchdog must complete as long as every individual
    /// wait keeps seeing progress. Before the fix, `deadline` was
    /// computed once up front and any sufficiently long run was falsely
    /// poisoned as `Stalled`.
    #[test]
    fn long_steady_run_outlives_watchdog() {
        use rapid_core::graph::TaskGraphBuilder;
        use rapid_core::schedule::{Assignment, Schedule};
        // A two-processor ping-pong chain: task i (on proc i % 2) writes
        // object i and reads object i-1, so every task waits on the
        // previous one across the machine.
        let k = 30usize;
        let mut b = TaskGraphBuilder::new();
        let objs: Vec<_> = (0..k).map(|_| b.add_object(1)).collect();
        let mut tasks = Vec::new();
        for i in 0..k {
            let reads: Vec<_> = if i == 0 { vec![] } else { vec![objs[i - 1]] };
            let t = b.add_task(1.0, &reads, &[objs[i]]);
            if i > 0 {
                b.add_edge(tasks[i - 1], t);
            }
            tasks.push(t);
        }
        let g = b.build().unwrap();
        let assign = Assignment {
            task_proc: (0..k as u32).map(|i| i % 2).collect(),
            owner: (0..k as u32).map(|i| i % 2).collect(),
            nprocs: 2,
        };
        let order = vec![
            tasks.iter().copied().step_by(2).collect(),
            tasks.iter().copied().skip(1).step_by(2).collect(),
        ];
        let sched = Schedule { assign, order };
        let mut exec = ThreadedExecutor::new(&g, &sched, 64);
        // Each task sleeps 10 ms: total runtime ≈ 300 ms >> 120 ms
        // watchdog, while each single wait stays well under it.
        exec.watchdog = Duration::from_millis(120);
        let out = exec
            .run(|t, ctx| {
                std::thread::sleep(Duration::from_millis(10));
                test_body(t, ctx)
            })
            .expect("steady progress must never trip the watchdog");
        assert!(out.wall > exec.watchdog, "test must outlive the watchdog");
        assert_eq!(out.objects, run_sequential(&g, test_body));
    }

    /// The doorbell's oversubscribed path on real threads: a 40k-task
    /// ping-pong chain on one more worker than there are online cores,
    /// so waits skip the spin budget. Each task busy-waits 20 µs, longer
    /// than a waiter's few yields, so hops end sleeps; rings that never
    /// arrived would leave them to the 1 ms timeout (about 20 s in all,
    /// as the waiters' sleeps overlap).
    #[test]
    fn oversubscribed_ping_pong_chain_completes() {
        let nprocs = online_cores() + 1;
        let k = 40_000;
        let (g, sched) = fixtures::ping_pong_chain(k, nprocs as u32);
        let exec =
            ThreadedExecutor::new(&g, &sched, k as u64).with_watchdog(Duration::from_secs(5));
        let out = exec
            .run(|t, ctx| {
                let t0 = Instant::now();
                while t0.elapsed() < Duration::from_micros(20) {
                    std::hint::spin_loop();
                }
                test_body(t, ctx)
            })
            .expect("the chain completes under the watchdog");
        assert_eq!(out.objects, run_sequential(&g, test_body));
        assert!(out.wall < Duration::from_secs(10), "hops waited out their sleeps: {:?}", out.wall);
    }

    /// Pooled-ring reuse regression (satellite): a traced run whose rings
    /// wrapped must not leak its overwrite epoch into the next run on the
    /// same executor. The pool resets every ring on reuse; without the
    /// reset the second run's decoder would derive a huge phantom drop
    /// count from the stale head (and could claim the previous run's
    /// records as its own). A single-processor chain makes the event
    /// stream fully deterministic, so the two runs must decode
    /// identically — totals, drop counts, and the retained events.
    #[test]
    fn pooled_rings_reset_between_traced_runs() {
        use rapid_core::graph::TaskGraphBuilder;
        use rapid_core::schedule::{Assignment, Schedule};
        let k = 12usize;
        let mut b = TaskGraphBuilder::new();
        let objs: Vec<_> = (0..k).map(|_| b.add_object(1)).collect();
        let mut tasks = Vec::new();
        for i in 0..k {
            let reads: Vec<_> = if i == 0 { vec![] } else { vec![objs[i - 1]] };
            let t = b.add_task(1.0, &reads, &[objs[i]]);
            if i > 0 {
                b.add_edge(tasks[i - 1], t);
            }
            tasks.push(t);
        }
        let g = b.build().unwrap();
        let assign = Assignment { task_proc: vec![0; k], owner: vec![0; k], nprocs: 1 };
        let sched = Schedule { assign, order: vec![tasks.clone()] };
        let exec = ThreadedExecutor::new(&g, &sched, 64)
            .with_tracing(TraceConfig { capacity: 8, tier: TraceTier::Full });
        let out1 = exec.run(test_body).unwrap();
        let t1 = out1.trace.expect("tracing was enabled");
        assert!(t1.dropped() > 0, "capacity 8 must wrap on this workload");
        // Second run reuses the pooled rings (same proc set and capacity).
        let out2 = exec.run(test_body).unwrap();
        let t2 = out2.trace.expect("tracing was enabled");
        assert_eq!(out2.objects, out1.objects);
        for (p1, p2) in t1.procs.iter().zip(t2.procs.iter()) {
            assert_eq!(
                p2.total(),
                p1.total(),
                "proc {}: stale overwrite epoch leaked into the reused ring",
                p1.proc
            );
            assert_eq!(p2.dropped(), p1.dropped(), "proc {}: phantom drops", p1.proc);
            let e1: Vec<_> = p1.iter().map(|(_, e)| e.clone()).collect();
            let e2: Vec<_> = p2.iter().map(|(_, e)| e.clone()).collect();
            assert_eq!(e1, e2, "proc {}: stale records decoded", p1.proc);
        }
    }

    /// A wait with no observable progress for longer than the watchdog
    /// must still be detected: the progress-based deadline forgives long
    /// runs, not long silences.
    #[test]
    fn genuine_stall_is_detected() {
        use rapid_core::graph::TaskGraphBuilder;
        use rapid_core::schedule::{Assignment, Schedule};
        let mut b = TaskGraphBuilder::new();
        let d0 = b.add_object(1);
        let d1 = b.add_object(1);
        let t0 = b.add_task(1.0, &[], &[d0]);
        let t1 = b.add_task(1.0, &[d0], &[d1]);
        b.add_edge(t0, t1);
        let g = b.build().unwrap();
        let assign = Assignment { task_proc: vec![0, 1], owner: vec![0, 1], nprocs: 2 };
        let sched = Schedule { assign, order: vec![vec![t0], vec![t1]] };
        let mut exec = ThreadedExecutor::new(&g, &sched, 16);
        // P0 holds the d0 message hostage for far longer than the
        // watchdog; P1's REC wait sees zero progress in that window.
        exec.watchdog = Duration::from_millis(60);
        let out = exec.run(|t, ctx| {
            if t == t0 {
                std::thread::sleep(Duration::from_millis(500));
            }
            test_body(t, ctx)
        });
        match out {
            Err(ExecError::Stalled { snapshot, .. }) => {
                let snap = snapshot.expect("watchdog failure carries a diagnostic snapshot");
                assert_eq!(snap.procs.len(), 2);
                assert_eq!(snap.watchdog_ms, 60);
                // The render must be usable in a panic message.
                assert!(snap.to_string().contains("P0"));
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_env_override_parses() {
        assert_eq!(parse_watchdog_ms(None), DEFAULT_WATCHDOG);
        assert_eq!(parse_watchdog_ms(Some("250")), Duration::from_millis(250));
        assert_eq!(parse_watchdog_ms(Some(" 90000 ")), Duration::from_millis(90000));
        assert_eq!(parse_watchdog_ms(Some("0")), DEFAULT_WATCHDOG);
        assert_eq!(parse_watchdog_ms(Some("-5")), DEFAULT_WATCHDOG);
        assert_eq!(parse_watchdog_ms(Some("soon")), DEFAULT_WATCHDOG);
    }

    #[test]
    fn watchdog_builder_overrides_default() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_b();
        let exec = ThreadedExecutor::new(&g, &sched, 64).with_watchdog(Duration::from_millis(1234));
        assert_eq!(exec.watchdog, Duration::from_millis(1234));
        let out = exec.run(test_body).unwrap();
        assert_eq!(out.objects, run_sequential(&g, test_body));
    }

    #[test]
    fn task_panic_is_reported_not_propagated() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_b();
        let exec = ThreadedExecutor::new(&g, &sched, 64);
        let out = exec.run(|t, ctx| {
            if t == TaskId(3) {
                panic!("boom in task body");
            }
            test_body(t, ctx)
        });
        match out {
            Err(ExecError::WorkerPanicked { task: Some(t), payload, .. }) => {
                assert_eq!(t, TaskId(3));
                assert!(payload.contains("boom"), "payload was {payload:?}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn access_violation_is_typed_not_swallowed() {
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_b();
        let victim = ObjId(0);
        let exec = ThreadedExecutor::new(&g, &sched, 64);
        let out = exec.run(move |t, ctx| {
            if t == TaskId(5) {
                // t5 does not write d1: wrong-set access.
                ctx.write(victim);
            }
            test_body(t, ctx)
        });
        match out {
            Err(ExecError::AccessViolation { task, obj, op, .. }) => {
                assert_eq!(task, TaskId(5));
                assert_eq!(obj, victim);
                assert_eq!(op, AccessOp::Write);
            }
            other => panic!("expected AccessViolation, got {other:?}"),
        }
    }

    #[test]
    fn faulted_run_matches_reference() {
        // Smoke-level chaos (the full matrix lives in tests/chaos_stress.rs):
        // every scenario on the Figure 2 DAG must still produce the
        // sequential result.
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let reference = run_sequential(&g, test_body);
        for (name, plan) in FaultPlan::scenarios(17) {
            let exec = ThreadedExecutor::new(&g, &sched, 64).with_faults(plan);
            let out = exec.run(test_body).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(out.objects, reference, "{name}: results differ");
        }
    }

    #[test]
    fn armed_recovery_is_invisible_on_clean_runs() {
        // Arming recovery on a fault-free run must change nothing
        // observable: same results, same protocol skeleton, and not a
        // single rollback event in the trace.
        let g = fixtures::figure2_dag();
        let sched = fixtures::figure2_schedule_c();
        let mm = min_mem(&g, &sched).min_mem;
        let run = |armed: bool| {
            let mut exec = ThreadedExecutor::new(&g, &sched, mm)
                .with_tracing(rapid_trace::TraceConfig::default());
            if armed {
                exec = exec.with_recovery(crate::recover::RecoveryPolicy::new());
            }
            exec.run(test_body).expect("clean run")
        };
        let plain = run(false);
        let armed = run(true);
        assert_eq!(armed.objects, plain.objects);
        assert_eq!(armed.maps, plain.maps);
        let tr = armed.trace.as_ref().expect("tracing enabled");
        assert!(
            tr.procs.iter().flat_map(|p| p.iter()).all(|(_, e)| !matches!(
                e,
                rapid_trace::Event::WindowRollback { .. }
                    | rapid_trace::Event::AllocRollback { .. }
            )),
            "clean armed run must record no recovery events"
        );
        assert_eq!(
            rapid_trace::skeletons(tr),
            rapid_trace::skeletons(plain.trace.as_ref().expect("tracing enabled")),
            "arming recovery must not perturb the protocol skeleton"
        );
    }
}
