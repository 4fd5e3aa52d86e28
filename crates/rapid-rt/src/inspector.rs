//! The inspector stage of the run-time parallelization pipeline (paper
//! Figure 1): specify irregular data objects and the tasks that access
//! them; the system extracts a transformed task-dependence graph, picks an
//! assignment and an ordering, and hands back a schedule ready for
//! execution.
//!
//! This is the programmer-facing API of RAPID: "a set of library functions
//! for specifying irregular data objects and tasks that access these
//! objects".

// sync-audit: the worker-state board (`publish`/`read`) uses Relaxed
// single-word stores by design — it is a best-effort observability snapshot
// for stall diagnostics, racing with the workers on purpose; a torn
// *sequence* of observations is acceptable and no payload is published
// through it.

use rapid_core::ddg::{AccessKind, DdgStats, TraceBuilder, WritePolicy};
use rapid_core::graph::{GraphError, ObjId, ProcId, TaskGraph, TaskId};
use rapid_core::schedule::{CostModel, Schedule};
use rapid_sched::assign::{cyclic_owner_map, owner_compute_assignment};

/// The ordering heuristic to use at the second mapping stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ordering {
    /// Critical-path list scheduling (time-efficient baseline).
    Rcp,
    /// Memory-priority guided ordering (paper §4.1).
    Mpo,
    /// Data-access directed time-slicing (paper §4.2).
    Dts,
    /// DTS with slice merging under the given per-processor capacity.
    DtsMerged(u64),
}

/// Inspector: records the sequential task trace and extracts the
/// transformed dependence graph.
#[derive(Debug)]
pub struct Inspector {
    tb: TraceBuilder,
    reduce: bool,
}

impl Default for Inspector {
    fn default() -> Self {
        Self::new()
    }
}

impl Inspector {
    /// New inspector with write renaming (true-dependence-only graphs) and
    /// no transitive reduction.
    pub fn new() -> Self {
        Inspector { tb: TraceBuilder::new(WritePolicy::Rename), reduce: false }
    }

    /// Inspector keeping writes in place (anti/output dependencies become
    /// ordering edges).
    pub fn in_place() -> Self {
        Inspector { tb: TraceBuilder::new(WritePolicy::InPlace), reduce: false }
    }

    /// Enable transitive reduction of redundant dependence edges.
    pub fn with_reduction(mut self) -> Self {
        self.reduce = true;
        self
    }

    /// Declare a data object of `size` allocation units.
    pub fn object(&mut self, size: u64) -> ObjId {
        self.tb.add_object(size)
    }

    /// Declare the next task of the sequential computation: it reads
    /// `reads`, defines `writes` and updates `updates` in place.
    pub fn task(
        &mut self,
        weight: f64,
        reads: &[ObjId],
        writes: &[ObjId],
        updates: &[ObjId],
    ) -> TaskId {
        self.task_labeled(String::new(), weight, reads, writes, updates)
    }

    /// [`Inspector::task`] with a label for traces.
    pub fn task_labeled(
        &mut self,
        label: String,
        weight: f64,
        reads: &[ObjId],
        writes: &[ObjId],
        updates: &[ObjId],
    ) -> TaskId {
        let mut acc: Vec<(ObjId, AccessKind)> =
            Vec::with_capacity(reads.len() + writes.len() + updates.len());
        acc.extend(reads.iter().map(|&d| (d, AccessKind::Read)));
        acc.extend(writes.iter().map(|&d| (d, AccessKind::Write)));
        acc.extend(updates.iter().map(|&d| (d, AccessKind::Update)));
        self.tb.add_task_labeled(label, weight, &acc)
    }

    /// Extract the transformed task-dependence graph.
    ///
    /// A trace recorded through [`Inspector::task`] is a sequential
    /// program, so the dependence graph is a DAG by construction and the
    /// only way to see an error here is an id-space overflow in the
    /// builder — surfaced as a typed error rather than a panic.
    pub fn extract(self) -> Result<(TaskGraph, DdgStats), GraphError> {
        self.tb.build(self.reduce)
    }
}

/// One-stop scheduling: owner-compute clustering over `owner` (cyclic map
/// if `None`) followed by the chosen ordering.
pub fn plan_schedule(
    g: &TaskGraph,
    nprocs: usize,
    owner: Option<Vec<ProcId>>,
    ordering: Ordering,
    cost: &CostModel,
) -> Schedule {
    let owner = owner.unwrap_or_else(|| cyclic_owner_map(g.num_objects(), nprocs));
    let assign = owner_compute_assignment(g, &owner, nprocs);
    match ordering {
        Ordering::Rcp => rapid_sched::rcp::rcp_order(g, &assign, cost),
        Ordering::Mpo => rapid_sched::mpo::mpo_order(g, &assign, cost),
        Ordering::Dts => rapid_sched::dts::dts_order(g, &assign, cost),
        Ordering::DtsMerged(cap) => rapid_sched::dts::dts_order_merged(g, &assign, cost, cap),
    }
}

// ---------------------------------------------------------------------
// Runtime introspection: the live state board and the stall snapshot
// both executors attach to
// [`ExecError::Stalled`](crate::maps::ExecError::Stalled). The paper's
// five-state machine makes "where is every processor stuck?" the first
// diagnostic question; the protocol core publishes each processor's
// (state, position, suspended-send depth) through a lock-free board on
// every transition, which answers it without perturbing the run.
// ---------------------------------------------------------------------

use rapid_trace::ProtoState;
use std::sync::atomic::{AtomicU64, Ordering as AtOrd};

/// Lock-free board where every worker publishes `(state, position,
/// suspended sends)` on each state transition (one relaxed store), so the
/// first watchdog to fire can photograph the whole machine.
#[derive(Debug)]
pub struct StateBoard {
    /// Packed `state << 60 | pos << 32 | suspended` per processor.
    words: Vec<BoardWord>,
}

/// One processor's board word on a cache line (and its prefetch pair) of
/// its own: every worker rewrites its word several times per task, and
/// adjacent words would bounce one line between the workers' cores.
#[repr(align(128))]
#[derive(Debug, Default)]
struct BoardWord(AtomicU64);

impl StateBoard {
    /// Board for `nprocs` workers, all in [`ProtoState::Setup`].
    pub fn new(nprocs: usize) -> Self {
        StateBoard { words: (0..nprocs).map(|_| BoardWord::default()).collect() }
    }

    /// Publish worker `p`'s current state (relaxed: diagnostics only).
    #[inline]
    pub fn publish(&self, p: usize, st: ProtoState, pos: u32, suspended: u32) {
        let w = ((st.idx() as u64) << 60) | (((pos as u64) & 0x0FFF_FFFF) << 32) | suspended as u64;
        self.words[p].0.store(w, AtOrd::Relaxed);
    }

    /// Read worker `p`'s last published `(state, position, suspended)`.
    pub fn read(&self, p: usize) -> (ProtoState, u32, u32) {
        let w = self.words[p].0.load(AtOrd::Relaxed);
        let st = ProtoState::ALL[((w >> 60) as usize).min(ProtoState::ALL.len() - 1)];
        (st, ((w >> 32) & 0x0FFF_FFFF) as u32, w as u32)
    }
}

/// One processor's row of a [`StallSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcDiag {
    /// Processor id.
    pub proc: ProcId,
    /// Last published protocol state.
    pub state: ProtoState,
    /// Last published position in the processor's order.
    pub pos: u32,
    /// Length of the processor's order.
    pub order_len: u32,
    /// Suspended sends parked on missing remote addresses.
    pub suspended_sends: u32,
    /// Destinations whose incoming mailbox slot from this processor is
    /// still occupied (a potential blocked-in-MAP edge).
    pub mailbox_full_to: Vec<ProcId>,
    /// Logical address packages sitting in this processor's sender-side
    /// aggregation buffers, not yet physically handed off (always 0 on
    /// the direct backend; a stuck non-zero value under the aggregating
    /// backend points at flush starvation).
    pub buffered_pkgs: u32,
}

/// Diagnostic photograph of the machine taken by the worker whose stall
/// watchdog fired — or by the DES when its event heap runs dry with work
/// left — attached to
/// [`ExecError::Stalled`](crate::maps::ExecError::Stalled).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallSnapshot {
    /// Processor that tripped the watchdog.
    pub reporter: ProcId,
    /// The watchdog period that elapsed without local progress (0 when
    /// the DES reports: its stall is the event heap running dry).
    pub watchdog_ms: u64,
    /// Messages whose arrival flag has been raised, out of the plan total.
    pub msgs_arrived: usize,
    /// Total messages in the protocol plan.
    pub msgs_total: usize,
    /// One row per processor.
    pub procs: Vec<ProcDiag>,
    /// The tail of the reporting worker's event trace (pre-rendered
    /// `"<ms> <event>"` lines), when the run was recording one — what the
    /// stuck worker did right before the silence. Empty otherwise.
    pub recent_events: Vec<String>,
    /// MAP-phase recovery retries across all processors (allocation waves
    /// re-attempted inside a MAP) up to the moment of the snapshot. Always
    /// 0 when the run was not armed with window recovery.
    pub recovery_retries: u32,
    /// EXE-phase recovery rollbacks across all processors (windows rewound
    /// and re-executed) up to the moment of the snapshot. Always 0 when
    /// the run was not armed with window recovery.
    pub recovery_rollbacks: u32,
    /// Most recent window recovery on the machine as
    /// `(processor, window position, attempt)`, when any happened.
    pub last_recovery: Option<(ProcId, u32, u32)>,
    /// Processors a recovery supervisor had quarantined before this
    /// attempt ran. Empty for unsupervised runs; stamped by the
    /// supervisor when it gives up and surfaces the final error.
    pub quarantined: Vec<ProcId>,
}

impl std::fmt::Display for StallSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stall snapshot (reported by P{} ", self.reporter)?;
        match self.watchdog_ms {
            0 => write!(f, "when the simulation ran out of events")?,
            ms => write!(f, "after {ms} ms without progress")?,
        }
        writeln!(f, "; {}/{} messages arrived):", self.msgs_arrived, self.msgs_total)?;
        for d in &self.procs {
            write!(
                f,
                "  P{}: {:?} at {}/{} tasks, {} suspended sends",
                d.proc, d.state, d.pos, d.order_len, d.suspended_sends
            )?;
            if !d.mailbox_full_to.is_empty() {
                write!(f, ", undrained packages to {:?}", d.mailbox_full_to)?;
            }
            if d.buffered_pkgs > 0 {
                write!(f, ", {} packages buffered unsent", d.buffered_pkgs)?;
            }
            writeln!(f)?;
        }
        if self.recovery_retries > 0 || self.recovery_rollbacks > 0 {
            write!(
                f,
                "  recovery so far: {} MAP retries, {} window rollbacks",
                self.recovery_retries, self.recovery_rollbacks
            )?;
            if let Some((p, pos, attempt)) = self.last_recovery {
                write!(f, "; last P{p} window {pos} attempt {attempt}")?;
            }
            writeln!(f)?;
        }
        if !self.quarantined.is_empty() {
            writeln!(f, "  quarantined processors: {:?}", self.quarantined)?;
        }
        if !self.recent_events.is_empty() {
            writeln!(f, "  last events on P{}:", self.reporter)?;
            for line in &self.recent_events {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inspector_pipeline_end_to_end() {
        // A tiny reduction tree: 4 leaves write, 2 combiners, 1 root.
        let mut ins = Inspector::new();
        let leaves: Vec<_> = (0..4).map(|_| ins.object(2)).collect();
        let mids: Vec<_> = (0..2).map(|_| ins.object(2)).collect();
        let root = ins.object(2);
        for &l in &leaves {
            ins.task(1.0, &[], &[l], &[]);
        }
        ins.task(1.0, &leaves[0..2], &[mids[0]], &[]);
        ins.task(1.0, &leaves[2..4], &[mids[1]], &[]);
        ins.task(1.0, &mids, &[root], &[]);
        let (g, stats) = ins.extract().unwrap();
        assert_eq!(g.num_tasks(), 7);
        assert_eq!(stats.true_edges, 6);
        assert!(g.is_dependence_complete());

        for ord in [Ordering::Rcp, Ordering::Mpo, Ordering::Dts, Ordering::DtsMerged(64)] {
            let s = plan_schedule(&g, 2, None, ord, &CostModel::unit());
            assert!(s.is_valid(&g), "{ord:?}");
        }
    }

    #[test]
    fn state_board_roundtrip() {
        let b = StateBoard::new(3);
        assert_eq!(b.read(2), (ProtoState::Setup, 0, 0));
        b.publish(1, ProtoState::Rec, 17, 4);
        assert_eq!(b.read(1), (ProtoState::Rec, 17, 4));
        b.publish(1, ProtoState::Done, 20, 0);
        assert_eq!(b.read(1), (ProtoState::Done, 20, 0));
        // Large positions survive the packing.
        b.publish(0, ProtoState::Exe, 0x0ABC_DEF0, u32::MAX);
        assert_eq!(b.read(0), (ProtoState::Exe, 0x0ABC_DEF0, u32::MAX));
    }

    #[test]
    fn stall_snapshot_display_names_every_proc() {
        let s = StallSnapshot {
            reporter: 1,
            watchdog_ms: 250,
            msgs_arrived: 3,
            msgs_total: 9,
            procs: vec![
                ProcDiag {
                    proc: 0,
                    state: ProtoState::Map,
                    pos: 2,
                    order_len: 5,
                    suspended_sends: 1,
                    mailbox_full_to: vec![1],
                    buffered_pkgs: 2,
                },
                ProcDiag {
                    proc: 1,
                    state: ProtoState::Rec,
                    pos: 3,
                    order_len: 4,
                    suspended_sends: 0,
                    mailbox_full_to: vec![],
                    buffered_pkgs: 0,
                },
            ],
            recent_events: vec!["1.250ms MsgRecv { msg: 4 }".into()],
            recovery_retries: 2,
            recovery_rollbacks: 1,
            last_recovery: Some((0, 2, 3)),
            quarantined: vec![2],
        };
        let text = s.to_string();
        assert!(text.contains("reported by P1"));
        assert!(text.contains("3/9 messages"));
        assert!(text.contains("P0: Map at 2/5"));
        assert!(text.contains("undrained packages to [1]"));
        assert!(text.contains("2 packages buffered unsent"));
        assert!(text.contains("P1: Rec at 3/4"));
        assert!(text.contains("last events on P1"));
        assert!(text.contains("MsgRecv { msg: 4 }"));
        assert!(text.contains("2 MAP retries, 1 window rollbacks"));
        assert!(text.contains("last P0 window 2 attempt 3"));
        assert!(text.contains("quarantined processors: [2]"));
    }

    #[test]
    fn updates_chain_through_inspector() {
        let mut ins = Inspector::new();
        let acc = ins.object(4);
        let t0 = ins.task(1.0, &[], &[acc], &[]);
        let t1 = ins.task(1.0, &[], &[], &[acc]);
        let t2 = ins.task(1.0, &[], &[], &[acc]);
        let (g, _) = ins.extract().unwrap();
        assert!(g.has_edge(t0, t1));
        assert!(g.has_edge(t1, t2));
        assert_eq!(g.num_objects(), 1);
    }
}
