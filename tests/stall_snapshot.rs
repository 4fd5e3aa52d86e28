//! Both executors diagnose a stall the same way: a typed
//! `ExecError::Stalled` carrying a snapshot with one row per processor,
//! each naming its protocol state and position.
//!
//! The schedule is deliberately broken: each processor's order puts a
//! task that waits on the other processor ahead of the task the other
//! processor waits on, so both block in REC at position 0 forever. The
//! DES notices when its event heap runs dry; the threaded executor when
//! its watchdog fires.

use rapid::core::graph::TaskGraph;
use rapid::prelude::*;
use rapid::rt::des::{DesConfig, DesExecutor};
use rapid::rt::inspector::StallSnapshot;
use rapid::rt::{ExecError, TaskCtx};
use rapid::trace::ProtoState;
use std::time::Duration;

/// P0 runs `[a0, b0]`, P1 runs `[a1, b1]`; `a0` reads what `b1` writes and
/// `a1` reads what `b0` writes. Each object is written on its owner.
fn crossed() -> (TaskGraph, Schedule) {
    let mut b = TaskGraphBuilder::new();
    let x = b.add_object(1); // written by b1 on P1, read by a0 on P0
    let y = b.add_object(1); // written by b0 on P0, read by a1 on P1
    let u0 = b.add_object(1);
    let u1 = b.add_object(1);
    let b0 = b.add_task(1.0, &[], &[y]);
    let b1 = b.add_task(1.0, &[], &[x]);
    let a0 = b.add_task(1.0, &[x], &[u0]);
    let a1 = b.add_task(1.0, &[y], &[u1]);
    b.add_edge(b1, a0);
    b.add_edge(b0, a1);
    let g = b.build().expect("acyclic");
    let mut task_proc = vec![0; 4];
    task_proc[b1.idx()] = 1;
    task_proc[a1.idx()] = 1;
    let mut owner = vec![0; 4];
    owner[x.idx()] = 1;
    owner[u1.idx()] = 1;
    let assign = Assignment { task_proc, owner, nprocs: 2 };
    let sched = Schedule { assign, order: vec![vec![a0, b0], vec![a1, b1]] };
    (g, sched)
}

fn assert_both_blocked_in_rec(snap: &StallSnapshot) {
    assert_eq!(snap.procs.len(), 2, "one row per processor");
    for (q, row) in snap.procs.iter().enumerate() {
        assert_eq!(row.proc, q as u32);
        assert_eq!(row.state, ProtoState::Rec, "P{q} must be blocked in REC: {snap}");
        assert_eq!((row.pos, row.order_len), (0, 2), "P{q} never ran a task: {snap}");
    }
    assert_eq!(snap.msgs_arrived, 0, "no message can have been sent");
    let text = snap.to_string();
    for q in 0..2 {
        assert!(text.contains(&format!("P{q}: Rec at 0/2")), "{text}");
    }
}

#[test]
fn des_reports_a_stall_with_a_snapshot() {
    let (g, sched) = crossed();
    let out = DesExecutor::new(&g, &sched, DesConfig::managed(MachineConfig::unit(2, 64))).run();
    match out {
        Err(ExecError::Stalled { remaining, snapshot: Some(snap) }) => {
            assert_eq!(remaining, 4);
            assert_eq!(snap.watchdog_ms, 0, "the DES has no watchdog");
            assert_both_blocked_in_rec(&snap);
        }
        other => panic!("expected Stalled with a snapshot, got {other:?}"),
    }
}

#[test]
fn threaded_reports_the_same_stall() {
    let (g, sched) = crossed();
    let exec = ThreadedExecutor::new(&g, &sched, 64).with_watchdog(Duration::from_millis(250));
    match exec.run(|_t, _ctx: &mut TaskCtx<'_>| {}) {
        Err(ExecError::Stalled { remaining, snapshot: Some(snap) }) => {
            assert_eq!(remaining, 2, "the reporter never ran either of its tasks");
            assert_eq!(snap.watchdog_ms, 250);
            assert_both_blocked_in_rec(&snap);
        }
        other => panic!("expected Stalled with a snapshot, got {other:?}"),
    }
}
