//! The RAPID runtime (paper §3): inspector API, active memory management
//! and the five-state execution protocol, in two executors.
//!
//! - [`inspector`] — the run-time parallelization pipeline of Figure 1:
//!   register irregular data objects and the tasks that access them, get a
//!   transformed task graph, schedule it, execute it.
//! - [`maps`] — the memory-allocation-point (MAP) planner shared by both
//!   executors: dead-point tables, allocation windows, address packages.
//! - `protocol` (internal) — the per-processor protocol core: the
//!   REC/EXE/SND/MAP/END state machine with its RA and CQ service
//!   routines, written once as a step function over a driver trait that
//!   supplies time, delivery, placement and task execution.
//! - [`des`] — the deterministic discrete-event executor: drives the
//!   core in virtual time to model run-time behaviour (parallel time,
//!   #MAPs, blocking on address buffers and message arrivals) under a
//!   per-processor memory cap; it reproduces the paper's Tables 2–8.
//! - [`threaded`] — the real shared-memory executor: drives the core on
//!   one OS thread per simulated processor, with RMA stores into remote
//!   arenas and single-slot address mailboxes. Exercises the Theorem-1
//!   liveness argument under real concurrency and computes actual
//!   numeric results.
//! - [`recover`] — self-healing supervision: the recovery policy armed on
//!   the threaded executor (site retries, window checkpoints, rollback &
//!   re-execution) and the processor-quarantine supervisor that re-plans
//!   the remaining work onto survivors when a window is unrecoverable.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod des;
pub mod inspector;
pub mod maps;
mod protocol;
pub mod recover;
pub mod threaded;

pub use des::{ConfigError, DesConfig, DesExecutor, DesOutcome};
pub use inspector::Inspector;
pub use maps::{ExecError, MapPlacement, MapWindow, PlannedMap, RtPlan};
pub use rapid_trace::{TraceConfig, TraceSet};
pub use recover::{RecoveryPolicy, RecoveryReport, RetryPolicy, Supervisor};
pub use threaded::{run_sequential, Backend, TaskCtx, ThreadedExecutor, ThreadedOutcome};
