//! The per-processor protocol core: the paper's five-state machine
//! (Figure 3(b): REC / EXE / SND / MAP / END, with the RA and CQ service
//! operations) written once, for both executors.
//!
//! A [`ProcCore`] owns everything the protocol decides: the MAP planner
//! and its fragmentation/recovery ladder, the dense address tables, the
//! watched-literal suspended-send queue, address-package sequence
//! numbers, trace records and state-board publications, and every fault
//! site. [`ProcCore::step`] advances one processor as far as it can and
//! reports [`Step::Ran`] at each task boundary, [`Step::Blocked`] when it
//! waits on another processor, and [`Step::Done`] once END retires.
//!
//! What really differs between the executors sits behind the [`Driver`]
//! trait, monomorphized per driver so the threaded hot path has no
//! dynamic dispatch:
//!
//! - **time** — the DES charges the machine model's virtual costs in its
//!   hooks; the threaded driver reads the wall clock;
//! - **message delivery and receipt** — an arrival time versus RMA puts
//!   into a remote heap plus a raised arrival flag;
//! - **buffer placement** — counting-only versus a real first-fit arena;
//! - **task execution** — a simulated duration versus the task body over
//!   real buffers;
//! - **waiting** — the drivers' own loops: the DES event heap versus
//!   flat polling, then a doorbell sleep, with a watchdog. Both wake a
//!   processor at the same points (a message put, an address-package
//!   hand-off, a drained mailbox slot), from the same hooks.
//!
//! Service (RA, then CQ) runs at the top of every step: after each task
//! boundary, after each MAP, and on every retry of a blocking state.

use crate::inspector::{ProcDiag, StallSnapshot, StateBoard};
use crate::maps::{ExecError, MapPlanner, MapWindow, Notify, RtPlan};
use crate::recover::RecoveryPolicy;
use rapid_core::graph::{ProcId, TaskGraph, TaskId};
use rapid_core::schedule::Schedule;
use rapid_machine::arena::{Arena, ArenaError};
use rapid_machine::backoff::Retry;
use rapid_machine::fault::{FaultSite, ProcFaults};
use rapid_machine::machine::{Port, SendOutcome};
use rapid_machine::mailbox::{AddrEntry, AddrPackage};
use rapid_trace::{decode_ring, FlatRing, FlatWriter, ProtoState, TraceTier, NO_OFFSET};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering as AtOrd};
use std::time::Duration;

/// Sentinel for "address not (yet) known" in the dense tables.
pub(crate) const NO_ADDR: u64 = u64::MAX;
/// Bounded retries of a MAP-time placement that failed with
/// [`ArenaError::Fragmented`] before the window-truncation ladder kicks in.
const FRAG_RETRIES: u32 = 8;

/// What one [`ProcCore::step`] achieved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// A task completed its SND state: the processor is at a task
    /// boundary (the DES yields here so other processors interleave).
    Ran,
    /// Waiting on another processor. `true` when the step still made
    /// local progress (an address package drained or handed off, a
    /// suspended send completed) — the watchdog counts that as progress.
    Blocked(bool),
    /// END retired: every task ran and every send completed.
    Done,
}

/// The executor-specific half of the protocol. Each hook is called at a
/// fixed point of [`ProcCore::step`]; the virtual-time costs of the DES
/// are charged inside them, in the order the machine model defines.
pub(crate) trait Driver<P: Port> {
    /// Whether per-task jitter faults apply (the DES models no jitter).
    const TASK_JITTER: bool;

    /// Trace timestamp. `fresh` asks for a new clock reading; a
    /// wall-clock driver may otherwise return its cached value.
    fn stamp(&mut self, fresh: bool) -> u64;
    /// The arena volatile buffers are placed in, or `None` when placement
    /// only counts units (every buffer then sits at offset 0 and trace
    /// records carry [`NO_OFFSET`]).
    fn arena(&mut self) -> Option<&mut Arena>;
    /// An injected delay at `site` (sleep, or lengthen the next arrival).
    fn delay(&mut self, site: FaultSite, d: Duration);
    /// REC: have all of `mids` arrived? When they have, the task may
    /// start (DES: a message counts once sent, and the clock advances to
    /// the latest arrival).
    fn received(&mut self, mids: &[u32]) -> bool;
    /// Deliver message `mid`: `local` maps object ids to this
    /// processor's buffers, `remote` to the destination's.
    fn put(&mut self, mid: u32, local: &[u64], remote: &[u64]);
    /// Run task `t` over the buffers in `local`.
    fn execute(&mut self, t: TaskId, local: &[u64]) -> Result<(), ExecError>;

    /// RA is about to drain `port` (the DES gates it on its clock).
    fn before_drain(&mut self, _port: &mut P) {}
    /// One logical address package from `src` was consumed and its slot
    /// freed (DES: charge `ra_cost`; both drivers wake `src`, which may
    /// be blocked sending to us).
    fn pkg_drained(&mut self, _src: usize) {}
    /// A physical address-package hand-off toward `dst` happened, direct
    /// or by a flush (threaded: wake `dst`; the DES woke it at the
    /// arrival it dated in [`Driver::pkg_ready`]).
    fn handed_off(&mut self, _dst: usize) {}
    /// An injected rejection made the head package look blocked on a
    /// slot no peer holds, so no peer will wake this processor for it
    /// (threaded: wake itself so it retries instead of sleeping).
    fn rejected(&mut self) {}
    /// A MAP planned `actions` frees plus allocations (DES: charge
    /// `map_fixed_cost` and `alloc_cost`).
    fn map_planned(&mut self, _actions: usize) {}
    /// An address package of `entries` is about to be handed toward
    /// `dst`; `false` means the slot is known to be occupied (DES: probe
    /// the slot, then charge `addr_pkg_cost` and date the arrival).
    fn pkg_ready(&mut self, _port: &mut P, _dst: usize, _entries: usize) -> bool {
        true
    }
    /// Recovery is armed and a window of `tasks` begins: capture what a
    /// rollback must restore.
    fn checkpoint(&mut self, _tasks: &[TaskId], _local: &[u64]) {}
    /// Restore the last checkpoint (EXE-phase rollback).
    fn restore(&mut self) {}
}

/// Lock-free recovery telemetry for stall snapshots: per-processor
/// MAP-phase retry / EXE-phase rollback counters plus the most recent
/// recovery. Written only on the (rare) recovery paths.
pub(crate) struct RecovBoard {
    /// `[MAP-phase retries, EXE-phase rollbacks]` per processor.
    counts: Vec<[AtomicU32; 2]>,
    /// Packed `proc << 48 | pos << 16 | attempt`; `u64::MAX` = none yet.
    last: AtomicU64,
}

// sync-audit: the recovery counters are Relaxed by design — monotonic
// telemetry read after the workers join or for best-effort stall
// reports, never a publication edge.
impl RecovBoard {
    pub(crate) fn new(nprocs: usize) -> Self {
        RecovBoard {
            counts: (0..nprocs).map(|_| [AtomicU32::new(0), AtomicU32::new(0)]).collect(),
            last: AtomicU64::new(u64::MAX),
        }
    }

    /// Record one recovery on `p` (relaxed: diagnostics only).
    fn note(&self, p: usize, map_phase: bool, pos: u32, attempt: u32) {
        self.counts[p][usize::from(!map_phase)].fetch_add(1, AtOrd::Relaxed);
        let packed =
            ((p as u64) << 48) | ((pos as u64 & 0xFFFF_FFFF) << 16) | (attempt as u64 & 0xFFFF);
        self.last.store(packed, AtOrd::Relaxed);
    }

    /// `(total MAP retries, total window rollbacks)` across processors.
    fn totals(&self) -> (u32, u32) {
        self.counts.iter().fold((0, 0), |(r, rb), c| {
            (r + c[0].load(AtOrd::Relaxed), rb + c[1].load(AtOrd::Relaxed))
        })
    }

    /// Most recent recovery as `(proc, window position, attempt)`.
    fn last_recovery(&self) -> Option<(u32, u32, u32)> {
        let w = self.last.load(AtOrd::Relaxed);
        (w != u64::MAX).then_some((
            (w >> 48) as u32,
            ((w >> 16) & 0xFFFF_FFFF) as u32,
            w as u32 & 0xFFFF,
        ))
    }
}

/// The run-wide, read-only inputs every core shares.
pub(crate) struct CoreEnv<'a> {
    pub g: &'a TaskGraph,
    pub sched: &'a Schedule,
    pub plan: &'a RtPlan,
    pub capacity: u64,
    pub window: MapWindow,
    /// Active memory management. Off = the original RAPID: every
    /// volatile resident from the start, every address known, no MAPs.
    pub managed: bool,
    /// Offset of every object's permanent buffer on its owner.
    pub perm_off: &'a [u64],
    pub recovery: Option<RecoveryPolicy>,
    /// Where every core publishes its state transitions.
    pub board: StateBoard,
    pub recov: RecovBoard,
}

/// Where the state machine stands between steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// A MAP is due at `pos` and not yet planned.
    Map,
    /// The MAP is planned; its address packages are being handed off
    /// (blocks on an occupied single-slot mailbox).
    Pkgs,
    /// Waiting for the current task's incoming messages.
    Rec,
    /// A task failed under armed recovery: drain the suspended sends and
    /// buffered packages, then rewind to the window start.
    Rollback,
    /// All tasks done; draining the suspended queue and port buffers.
    End,
    /// Finished.
    Done,
}

/// One processor's protocol state machine.
pub(crate) struct ProcCore<'a, P> {
    env: &'a CoreEnv<'a>,
    p: usize,
    nobj: usize,
    port: P,
    phase: Phase,
    /// Next task position in this processor's order.
    pos: u32,
    /// Position before which the next MAP runs.
    next_map: u32,
    planner: MapPlanner,
    /// Object id → offset of its buffer here ([`NO_ADDR`] when not
    /// resident). Permanents are seeded; MAPs set and clear volatiles.
    local: Vec<u64>,
    /// `proc * nobj + obj` → offset of the object's buffer on `proc`.
    /// Permanents are seeded; volatiles arrive through RA.
    known: Vec<u64>,
    /// `waiters[obj]`: suspended sends parked on `obj`'s address, as
    /// `(suspension stamp, message)`. Each suspended send is parked in
    /// exactly one list (its first missing object).
    waiters: Vec<Vec<(u32, u32)>>,
    /// Scratch: sends woken by the current RA batch.
    woken: Vec<(u32, u32)>,
    /// Currently suspended sends.
    suspended: usize,
    /// Sends ever suspended; doubles as the next suspension stamp.
    suspensions: u32,
    /// The current MAP's notifications (offsets filled, sorted by
    /// destination) and the start of the next package to hand off.
    notifies: Vec<Notify>,
    pkg_at: usize,
    /// The head package is assembled in `pkg_buf` (its delay drawn).
    head_built: bool,
    pkg_buf: AddrPackage,
    /// A MailboxBusy was recorded for the head package.
    busy_reported: bool,
    pkg_send_seq: Vec<u32>,
    pkg_recv_seq: Vec<u32>,
    faults: Option<ProcFaults>,
    w: Option<FlatWriter<'a>>,
    obj_scratch: Vec<u32>,
    window_start: u32,
    window_attempts: u32,
    /// `sent[msg]`: completed messages (recovery only; a rolled-back
    /// window re-enters its SND states and must not re-send).
    sent: Vec<bool>,
}

impl<'a, P: Port> ProcCore<'a, P> {
    /// The core of processor `p`, published in the Setup state.
    pub(crate) fn new<D: Driver<P>>(
        env: &'a CoreEnv<'a>,
        p: usize,
        port: P,
        faults: Option<ProcFaults>,
        w: Option<FlatWriter<'a>>,
        drv: &mut D,
    ) -> Self {
        let (g, sched) = (env.g, env.sched);
        let nobj = g.num_objects();
        let nprocs = sched.assign.nprocs;
        let mut local = vec![NO_ADDR; nobj];
        let mut known = vec![NO_ADDR; nprocs * nobj];
        let mut resident = env.plan.perm_units[p];
        if env.managed {
            for d in g.objects() {
                let o = sched.assign.owner_of(d) as usize;
                known[o * nobj + d.idx()] = env.perm_off[d.idx()];
                if o == p {
                    local[d.idx()] = env.perm_off[d.idx()];
                }
            }
        } else {
            // Everything allocated up front, every address exchanged once.
            local.fill(0);
            known.fill(0);
            resident += env.plan.lv.procs[p].volatile.iter().map(|&d| g.obj_size(d)).sum::<u64>();
        }
        let mut core = ProcCore {
            env,
            p,
            nobj,
            port,
            phase: Phase::Map,
            pos: 0,
            next_map: if env.managed { 0 } else { u32::MAX },
            planner: MapPlanner::new(p as ProcId, env.capacity, resident),
            local,
            known,
            waiters: vec![Vec::new(); nobj],
            woken: Vec::new(),
            suspended: 0,
            suspensions: 0,
            notifies: Vec::new(),
            pkg_at: 0,
            head_built: false,
            pkg_buf: Vec::new(),
            busy_reported: false,
            pkg_send_seq: vec![0; nprocs],
            pkg_recv_seq: vec![0; nprocs],
            faults,
            w,
            obj_scratch: Vec::new(),
            window_start: 0,
            window_attempts: 0,
            sent: if env.recovery.is_some() {
                vec![false; env.plan.msgs.len()]
            } else {
                Vec::new()
            },
        };
        core.publish(drv, ProtoState::Setup);
        if !env.managed {
            // No MAP ever: straight to the first task (or END).
            core.next_phase(drv);
        }
        core
    }

    /// Units resident from the start (permanents, plus every volatile
    /// when unmanaged).
    pub(crate) fn resident(&self) -> u64 {
        self.planner.in_use()
    }

    /// Next task position.
    pub(crate) fn pos(&self) -> u32 {
        self.pos
    }

    /// Has END retired?
    pub(crate) fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Sends ever suspended on a missing address.
    pub(crate) fn suspensions(&self) -> usize {
        self.suspensions as usize
    }

    /// This processor's comm endpoint.
    pub(crate) fn port(&self) -> &P {
        &self.port
    }

    /// Publish a state transition to the state board and the trace.
    fn publish<D: Driver<P>>(&mut self, drv: &mut D, s: ProtoState) {
        self.env.board.publish(self.p, s, self.pos, self.suspended as u32);
        if let Some(w) = self.w.as_mut() {
            w.state(drv.stamp(true), s);
        }
    }

    /// Apply an injected delay drawn at `site`, if any: record the fault,
    /// then let the driver realise it.
    fn inject<D: Driver<P>>(&mut self, drv: &mut D, site: FaultSite, delay: Option<Duration>) {
        let Some(d) = delay else { return };
        if let Some(w) = self.w.as_mut() {
            w.fault(drv.stamp(false), site);
        }
        drv.delay(site, d);
    }

    /// Does the trace record Full-tier events (worth a fresh stamp and
    /// argument preparation)?
    fn full(&self) -> bool {
        self.w.as_ref().is_some_and(|w| w.tier() == TraceTier::Full)
    }

    /// Advance as far as possible: service RA/CQ, then run the current
    /// state until a task boundary, a blocking wait, or the end.
    pub(crate) fn step<D: Driver<P>>(&mut self, drv: &mut D) -> Result<Step, ExecError> {
        let mut progress = false;
        loop {
            progress |= self.service(drv);
            match self.phase {
                Phase::Map | Phase::Pkgs => {
                    // Planning and the first hand-off attempts form one
                    // action: no service round between them.
                    if self.phase == Phase::Map {
                        self.plan_map(drv, &mut progress)?;
                    }
                    if !self.send_pkgs(drv, &mut progress) {
                        return Ok(Step::Blocked(progress));
                    }
                }
                Phase::Rec => match self.run_task(drv)? {
                    true => return Ok(Step::Ran),
                    false if self.phase == Phase::Rec => return Ok(Step::Blocked(progress)),
                    // A failed task started a rollback.
                    false => progress = true,
                },
                // Both wait for every suspended send and buffered package.
                Phase::Rollback | Phase::End if !self.quiesced() => {
                    return Ok(Step::Blocked(progress));
                }
                Phase::Rollback => {
                    self.rewind(drv);
                    progress = true;
                }
                Phase::End => {
                    self.phase = Phase::Done;
                    self.publish(drv, ProtoState::Done);
                    return Ok(Step::Done);
                }
                Phase::Done => return Ok(Step::Done),
            }
        }
    }

    /// No suspended send and nothing buffered in the port.
    fn quiesced(&self) -> bool {
        self.suspended == 0 && self.port.pending() == 0
    }

    /// Move to the state that follows a MAP or a task at `pos`.
    fn next_phase<D: Driver<P>>(&mut self, drv: &mut D) {
        let len = self.env.sched.order[self.p].len() as u32;
        let (phase, s) = if self.pos == len {
            (Phase::End, ProtoState::End)
        } else if self.pos == self.next_map {
            (Phase::Map, ProtoState::Map)
        } else {
            (Phase::Rec, ProtoState::Rec)
        };
        self.phase = phase;
        // A MAP publishes itself when it is planned.
        if phase != Phase::Map {
            self.publish(drv, s);
        }
    }

    /// RA + incremental CQ: drain incoming address packages (one batched
    /// callback per source covering every logical package), then retry
    /// exactly the parked sends the new addresses may unblock, in
    /// suspension order. Every round is also a flush opportunity for
    /// packages buffered in the port. Returns `true` on any progress.
    fn service<D: Driver<P>>(&mut self, drv: &mut D) -> bool {
        drv.before_drain(&mut self.port);
        let nobj = self.nobj;
        let full = self.full();
        let (known, waiters, woken) = (&mut self.known, &mut self.waiters, &mut self.woken);
        let (w, recv_seq, scratch) = (&mut self.w, &mut self.pkg_recv_seq, &mut self.obj_scratch);
        let drained = self.port.drain_batched(|src, entries, seg_ends| {
            let base = src * nobj;
            for e in entries {
                known[base + e.obj as usize] = e.offset;
                woken.append(&mut waiters[e.obj as usize]);
            }
            // One PkgRecv per *logical* package: a physical batch replays
            // exactly like the unbatched package sequence.
            let mut start = 0usize;
            for &end in seg_ends {
                drv.pkg_drained(src);
                let seq = recv_seq[src];
                recv_seq[src] = seq + 1;
                if let Some(w) = w.as_mut().filter(|_| full) {
                    scratch.clear();
                    scratch.extend(entries[start..end as usize].iter().map(|e| e.obj));
                    w.pkg_recv(drv.stamp(false), src as u32, seq, scratch);
                }
                start = end as usize;
            }
        });
        let mut progress = drained > 0;
        progress |= self.port.pending() > 0 && self.port.flush(|dst| drv.handed_off(dst));
        self.woken.sort_unstable();
        for i in 0..self.woken.len() {
            let (stamp, mid) = self.woken[i];
            if let Some(w) = self.w.as_mut() {
                w.cq_retry(drv.stamp(false), mid);
            }
            match self.try_send(drv, mid) {
                Ok(()) => {
                    self.suspended -= 1;
                    progress = true;
                }
                // Still blocked: re-park on the next missing address.
                Err(missing) => self.waiters[missing as usize].push((stamp, mid)),
            }
        }
        self.woken.clear();
        progress
    }

    /// Send message `mid` if every destination address is known;
    /// otherwise return the first object whose address is missing.
    fn try_send<D: Driver<P>>(&mut self, drv: &mut D, mid: u32) -> Result<(), u32> {
        let msg = &self.env.plan.msgs[mid as usize];
        let base = msg.dst_proc as usize * self.nobj;
        let remote = base..base + self.nobj;
        if let Some(d) = msg.objs.iter().find(|d| self.known[base + d.idx()] == NO_ADDR) {
            return Err(d.0);
        }
        let delay = self.faults.as_mut().and_then(|f| f.put_delay());
        self.inject(drv, FaultSite::PutDelay, delay);
        drv.put(mid, &self.local, &self.known[remote]);
        if let Some(s) = self.sent.get_mut(mid as usize) {
            *s = true;
        }
        if let Some(w) = self.w.as_mut() {
            w.send_ok(drv.stamp(false), mid);
        }
        Ok(())
    }

    /// SND: send `mid` now, or park it on its first missing address.
    /// No-op for a message that already completed (only possible when a
    /// recovered window re-runs its SND states).
    fn send_or_suspend<D: Driver<P>>(&mut self, drv: &mut D, mid: u32) {
        if self.sent.get(mid as usize).copied().unwrap_or(false) {
            return;
        }
        if let Err(missing) = self.try_send(drv, mid) {
            if let Some(w) = self.w.as_mut() {
                w.send_suspend(drv.stamp(false), mid, missing);
            }
            self.waiters[missing as usize].push((self.suspensions, mid));
            self.suspensions += 1;
            self.suspended += 1;
        }
    }

    /// MAP: plan the window at `pos`, apply its free wave, place its
    /// allocations (with the degradation ladder) and queue its address
    /// packages.
    fn plan_map<D: Driver<P>>(
        &mut self,
        drv: &mut D,
        progress: &mut bool,
    ) -> Result<(), ExecError> {
        let env = self.env;
        let (g, pos, p) = (env.g, self.pos, self.p as ProcId);
        // A new allocation window gets a fresh re-execution budget
        // (rollbacks never rewind across a MAP).
        self.window_start = pos;
        self.window_attempts = 0;
        self.publish(drv, ProtoState::Map);
        if let Some(w) = self.w.as_mut() {
            w.map_begin(drv.stamp(true), pos);
        }
        let mut action = self.planner.run_map_with(g, env.sched, env.plan, pos, env.window)?;
        drv.map_planned(action.frees.len() + action.allocs.len());
        let counting = drv.arena().is_none();
        let traced = |off: u64| if counting { NO_OFFSET } else { off };
        for &d in &action.frees {
            let off = self.local[d.idx()];
            if off == NO_ADDR {
                return Err(ExecError::Internal {
                    proc: p,
                    detail: format!("MAP free of {d:?} but no live buffer is recorded"),
                });
            }
            self.local[d.idx()] = NO_ADDR;
            if let Some(a) = drv.arena() {
                a.free(off).map_err(|e| ExecError::Internal {
                    proc: p,
                    detail: format!("MAP free of {d:?} at offset {off} rejected: {e:?}"),
                })?;
            }
            if let Some(w) = self.w.as_mut() {
                w.free(drv.stamp(false), d.0, g.obj_size(d), traced(off));
            }
        }
        // Place the planned allocations. The counting planner guarantees
        // the units fit, but a first-fit arena can still be transiently
        // fragmented (and the fault layer can pretend it is).
        // Degradation ladder: retry with bounded backoff while servicing
        // RA/CQ, then truncate the window at the first *lookahead*
        // position that cannot be placed — those objects roll back and
        // are re-planned by the (now earlier) next MAP, whose free wave
        // may have coalesced room. Only the task at `pos` itself failing
        // to place is a hard `Fragmented` error.
        let alloc_budget = env.recovery.map_or(FRAG_RETRIES, |r| r.retry.alloc_attempts);
        let mut truncated = false;
        'wave: loop {
            let mut hard_fail: Option<usize> = None;
            for (ai, &d) in action.allocs.iter().enumerate() {
                let size = g.obj_size(d);
                let mut retry = Retry::new(alloc_budget);
                let off = loop {
                    if self.faults.as_mut().is_some_and(|f| f.alloc_fails()) {
                        if let Some(w) = self.w.as_mut() {
                            w.fault(drv.stamp(false), FaultSite::AllocFail);
                        }
                    } else {
                        match drv.arena().map_or(Ok(0), |a| a.alloc(size)) {
                            Ok(off) => break Some(off),
                            Err(ArenaError::Fragmented { .. }) => {}
                            Err(_) => {
                                return Err(ExecError::NonExecutable {
                                    proc: p,
                                    position: pos,
                                    needed: self.planner.in_use(),
                                    capacity: env.capacity,
                                });
                            }
                        }
                    }
                    // Keep servicing RA/CQ between attempts so the system
                    // keeps evolving while we wait (Theorem 1).
                    *progress |= self.service(drv);
                    if !retry.again() {
                        break None;
                    }
                };
                match off {
                    Some(off) => {
                        self.local[d.idx()] = off;
                        if let Some(w) = self.w.as_mut() {
                            w.alloc(drv.stamp(false), d.0, size, traced(off));
                        }
                    }
                    None if action.alloc_pos[ai] == pos => {
                        hard_fail = Some(ai);
                        break;
                    }
                    None => {
                        // The failing object and everything after it were
                        // never placed, so no Alloc records exist for them
                        // and the replay stays consistent with the rollback.
                        for &dd in &action.allocs[ai..] {
                            self.planner.rollback_alloc(g, dd);
                        }
                        action.next_map = action.alloc_pos[ai];
                        truncated = true;
                        break;
                    }
                }
            }
            let Some(ai) = hard_fail else { break 'wave };
            let frag = ExecError::Fragmented {
                proc: p,
                requested: g.obj_size(action.allocs[ai]),
                largest: drv.arena().map_or(0, |a| a.largest_free()),
            };
            match env.recovery.map(|r| r.retry.window_attempts) {
                Some(budget) if self.window_attempts < budget => {
                    // MAP-phase window retry: undo this attempt's
                    // placements and re-run the wave. The planner's
                    // accounting is untouched (the same objects are
                    // re-placed) and the arena free list restores, so the
                    // re-placed offsets depend only on the fault seed and
                    // the plan. No task ran yet, so nothing to restore.
                    self.window_attempts += 1;
                    for &dd in &action.allocs[..ai] {
                        let off = std::mem::replace(&mut self.local[dd.idx()], NO_ADDR);
                        if off == NO_ADDR {
                            continue;
                        }
                        if let Some(a) = drv.arena() {
                            a.free(off).map_err(|e| ExecError::Internal {
                                proc: p,
                                detail: format!(
                                    "recovery rollback of {dd:?} at offset {off} rejected: {e:?}"
                                ),
                            })?;
                        }
                        if let Some(w) = self.w.as_mut() {
                            w.alloc_rollback(drv.stamp(false), dd.0, g.obj_size(dd));
                        }
                    }
                    if let Some(w) = self.w.as_mut() {
                        w.window_rollback(drv.stamp(true), pos, self.window_attempts);
                    }
                    env.recov.note(self.p, true, pos, self.window_attempts);
                    // One service round between attempts: an injected
                    // fault stream drains its budget, a genuinely
                    // fragmented arena gets a chance to coalesce.
                    *progress |= self.service(drv);
                }
                Some(budget) => {
                    return Err(ExecError::Unrecoverable {
                        proc: p,
                        pos,
                        attempts: budget,
                        cause: Box::new(frag),
                    });
                }
                None => return Err(frag),
            }
        }
        if truncated {
            // Rolled-back objects have no address; the MAP that re-plans
            // them re-issues their notifications.
            action.notifies.retain(|n| self.local[n.obj as usize] != NO_ADDR);
        }
        self.next_map = action.next_map;
        for n in &mut action.notifies {
            n.offset = self.local[n.obj as usize];
        }
        self.notifies = action.notifies;
        self.pkg_at = 0;
        self.phase = Phase::Pkgs;
        Ok(())
    }

    /// Hand the MAP's address packages off, one per destination (the
    /// notifications arrive sorted by destination). Returns `false` when
    /// blocked on an occupied mailbox; otherwise closes the MAP.
    fn send_pkgs<D: Driver<P>>(&mut self, drv: &mut D, progress: &mut bool) -> bool {
        while self.pkg_at < self.notifies.len() {
            let dst = self.notifies[self.pkg_at].dst;
            let end = self.pkg_at
                + self.notifies[self.pkg_at..].iter().take_while(|n| n.dst == dst).count();
            if !self.head_built {
                self.head_built = true;
                self.busy_reported = false;
                self.pkg_buf.clear();
                self.pkg_buf.extend(
                    self.notifies[self.pkg_at..end]
                        .iter()
                        .map(|n| AddrEntry { obj: n.obj, offset: n.offset }),
                );
                let delay = self.faults.as_mut().and_then(|f| f.mailbox_delay());
                self.inject(drv, FaultSite::MailboxDelay, delay);
            }
            // An injected rejection is handled exactly like a slot the
            // receiver has not drained yet.
            let rejected = self.faults.as_mut().is_some_and(|f| f.mailbox_reject());
            if rejected {
                if let Some(w) = self.w.as_mut() {
                    w.fault(drv.stamp(false), FaultSite::MailboxReject);
                }
                drv.rejected();
            }
            let ready = !rejected && drv.pkg_ready(&mut self.port, dst as usize, end - self.pkg_at);
            let outcome = if ready {
                self.port.send_package(dst as usize, &mut self.pkg_buf)
            } else {
                SendOutcome::Busy
            };
            if outcome == SendOutcome::Busy {
                // Blocked in MAP (paper §3.3): RA/CQ keep running.
                if !self.busy_reported {
                    self.busy_reported = true;
                    if let Some(w) = self.w.as_mut() {
                        w.mailbox_busy(drv.stamp(false), dst);
                    }
                }
                return false;
            }
            // Delivered or Buffered: the port owns the entries now.
            if outcome == SendOutcome::Delivered {
                drv.handed_off(dst as usize);
            }
            let seq = self.pkg_send_seq[dst as usize];
            self.pkg_send_seq[dst as usize] = seq + 1;
            if let Some(w) = self.w.as_mut() {
                self.obj_scratch.clear();
                self.obj_scratch.extend(self.notifies[self.pkg_at..end].iter().map(|n| n.obj));
                w.pkg_send(drv.stamp(false), dst, seq, &self.obj_scratch);
            }
            self.head_built = false;
            self.pkg_at = end;
            *progress = true;
        }
        // Hand coalesced batches over eagerly: one flush attempt at MAP
        // end bounds notification latency under aggregation (a busy
        // slot leaves the batch for the service-round flushes).
        if self.port.pending() > 0 {
            self.port.flush(|dst| drv.handed_off(dst));
        }
        let pos = self.pos;
        if let Some(w) = self.w.as_mut() {
            let high = drv.arena().map_or(self.planner.peak(), |a| a.peak());
            w.map_end(drv.stamp(true), pos, self.next_map, self.planner.in_use(), high);
        }
        if self.env.recovery.is_some() {
            let order = &self.env.sched.order[self.p];
            let end = (self.next_map as usize).min(order.len());
            drv.checkpoint(&order[pos as usize..end], &self.local);
        }
        self.next_phase(drv);
        true
    }

    /// REC, EXE and SND of the task at `pos`. Returns `false` while an
    /// incoming message is still missing.
    fn run_task<D: Driver<P>>(&mut self, drv: &mut D) -> Result<bool, ExecError> {
        let env = self.env;
        let t = env.sched.order[self.p][self.pos as usize];
        let ins = &env.plan.in_msgs[t.idx()];
        if !drv.received(ins) {
            return Ok(false);
        }
        let full = self.full();
        if let Some(w) = self.w.as_mut() {
            let ts = drv.stamp(full);
            for &mid in ins {
                w.msg_recv(ts, mid);
            }
        }

        self.publish(drv, ProtoState::Exe);
        if D::TASK_JITTER {
            let jitter = self.faults.as_mut().and_then(|f| f.task_jitter());
            self.inject(drv, FaultSite::TaskJitter, jitter);
        }
        if let Some(w) = self.w.as_mut() {
            w.task_begin(drv.stamp(full), t.0, self.pos);
        }
        if let Err(cause) = drv.execute(t, &self.local) {
            let Some(pol) = env.recovery else { return Err(cause) };
            if self.window_attempts >= pol.retry.window_attempts {
                return Err(ExecError::Unrecoverable {
                    proc: self.p as ProcId,
                    pos: self.window_start,
                    attempts: self.window_attempts,
                    cause: Box::new(cause),
                });
            }
            // Quiesce before restoring: a send suspended (or a package
            // still buffered) earlier in this window must complete while
            // the written buffers hold the values it is meant to carry.
            self.window_attempts += 1;
            self.phase = Phase::Rollback;
            return Ok(false);
        }
        if let Some(w) = self.w.as_mut() {
            w.task_end(drv.stamp(full), t.0);
        }

        self.publish(drv, ProtoState::Snd);
        for &mid in &env.plan.out_msgs[t.idx()] {
            self.send_or_suspend(drv, mid);
        }
        self.pos += 1;
        self.next_phase(drv);
        Ok(true)
    }

    /// Finish an EXE-phase rollback: restore the window's write set and
    /// rewind to its start. Volatile allocations, arrival flags, received
    /// addresses and completed sends all stay valid and are kept.
    fn rewind<D: Driver<P>>(&mut self, drv: &mut D) {
        drv.restore();
        if let Some(w) = self.w.as_mut() {
            w.window_rollback(drv.stamp(true), self.window_start, self.window_attempts);
        }
        self.env.recov.note(self.p, false, self.window_start, self.window_attempts);
        self.pos = self.window_start;
        self.phase = Phase::Rec;
        self.publish(drv, ProtoState::Rec);
    }

    /// Retire the core, handing back `(maps, peak units)`; the trace
    /// writer is dropped, so the ring is quiesced.
    pub(crate) fn finish(self) -> (u32, u64) {
        (self.planner.maps(), self.planner.peak())
    }
}

impl CoreEnv<'_> {
    /// Photograph every processor for [`ExecError::Stalled`]: the states,
    /// positions and suspended-send depths the cores published,
    /// `mailbox_full_to(q)` (destinations whose slot from `q` is still
    /// occupied), `buffered(q)` (packages unsent in `q`'s port), the
    /// recovery telemetry, and — when the reporter traces — the tail of
    /// its event ring (what it did right before the silence).
    pub(crate) fn stall_snapshot(
        &self,
        reporter: usize,
        watchdog_ms: u64,
        msgs_arrived: usize,
        ring: Option<&FlatRing>,
        mailbox_full_to: impl Fn(usize) -> Vec<ProcId>,
        buffered: impl Fn(usize) -> usize,
    ) -> StallSnapshot {
        let procs = (0..self.sched.assign.nprocs)
            .map(|q| {
                let (state, pos, suspended) = self.board.read(q);
                ProcDiag {
                    proc: q as ProcId,
                    state,
                    pos,
                    order_len: self.sched.order[q].len() as u32,
                    suspended_sends: suspended,
                    mailbox_full_to: mailbox_full_to(q),
                    buffered_pkgs: buffered(q) as u32,
                }
            })
            .collect();
        // The reporter's writer is idle while it builds the snapshot, so
        // its ring decodes as if quiesced.
        let recent_events = ring
            .map(|r| {
                decode_ring(r)
                    .tail(16)
                    .into_iter()
                    .map(|(ts, ev)| format!("{:.3}ms {ev:?}", ts as f64 / 1e6))
                    .collect()
            })
            .unwrap_or_default();
        let (recovery_retries, recovery_rollbacks) = self.recov.totals();
        StallSnapshot {
            reporter: reporter as ProcId,
            watchdog_ms,
            msgs_arrived,
            msgs_total: self.plan.msgs.len(),
            procs,
            recent_events,
            recovery_retries,
            recovery_rollbacks,
            last_recovery: self.recov.last_recovery(),
            quarantined: Vec::new(),
        }
    }
}
