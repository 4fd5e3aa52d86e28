//! `paper-sweep`: the paper's §5 memory-constraint sweep on the DES.
//!
//! Two paper-scale models from the reproduction harness — `bcsstk24-like`
//! 2-D block Cholesky and `goodwin-like` 1-D LU — on p = 8 simulated
//! T3D processors, each under RCP, MPO and slice-merged DTS orders at
//! 100/75/50/40/25% of its RCP schedule's `TOT`. One measured operation
//! is one full sweep: every ordering, memory report and simulation.
//! Every executable plan is then placed and verified (untimed).

use crate::report::{proc_row, rss_peak_mb, Metric, RunResult};
use crate::spans::Spans;
use crate::stats::{another_setup, median};
use crate::threaded::CAPACITY_PCTS;
use rapid_bench::harness::{schedule, Order, Workload};
use rapid_core::memreq::min_mem;
use rapid_core::schedule::Schedule;
use rapid_machine::config::MachineConfig;
use rapid_rt::des::{run_unmanaged, DesConfig, DesExecutor, DesOutcome};
use rapid_rt::{ExecError, MapWindow};
use rapid_sparse::taskgen::{cholesky_2d_model, lu_1d_model};
use rapid_sparse::{gen, order, SparseMatrix};
use rapid_trace::TraceConfig;
use rapid_verify::verify;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Simulated processors.
const P: usize = 8;
/// Orderings compared at every capacity.
const ORDERS: [Order; 3] = [Order::Rcp, Order::Mpo, Order::DtsMerged];
/// Span names that are the timed layers of a sweep.
const TIMED_LAYERS: [&str; 4] = ["sched.order", "core.min_mem", "maps.rtplan", "des.run"];

/// One simulated cell: an ordering at a capacity.
#[derive(Clone, Debug, PartialEq)]
struct Cell {
    matrix: usize,
    pct: f64,
    order: Order,
    /// `None` when the plan is not executable under the capacity.
    out: Option<CellOut>,
}

/// What an executable cell produced.
#[derive(Clone, Debug, PartialEq)]
struct CellOut {
    parallel_time: f64,
    peak_mem: Vec<u64>,
    maps: Vec<u32>,
    msgs: usize,
    addr_pkgs: usize,
    suspended_sends: usize,
    bytes_put: u64,
}

/// One sweep's results.
struct SweepOut {
    cells: Vec<Cell>,
    /// Unmanaged RCP parallel time per matrix (the PT-increase base).
    base_pt: Vec<f64>,
    /// Seconds spent in the timed part.
    timed_s: f64,
    /// Verifier findings over every executable plan.
    findings: usize,
    /// Traced sweeps: DES trace events, drops and checker seconds.
    events: u64,
    dropped: u64,
    check_s: f64,
    /// Traced sweeps: `ProcMetrics` rows per executable cell (JSON).
    proc_rows: Vec<String>,
}

/// A traced sweep: its per-layer self times and its results.
type Traced = (BTreeMap<&'static str, f64>, SweepOut);

/// The two matrices, generated from the seed (not part of set-up time).
fn generate(seed: u64) -> (SparseMatrix, SparseMatrix) {
    (gen::bcsstk_like(24, 25, 6, seed), gen::goodwin_like(7320, 40, 1, seed))
}

/// Order and build both models (spans `sparse.order`, `sparse.taskgen`).
fn prepare(chol: &SparseMatrix, lu: &SparseMatrix, spans: &mut Spans) -> Vec<Workload> {
    let a = spans.leaf("sparse.order", || chol.permute_sym(&order::min_degree(chol)));
    let c = spans.leaf("sparse.taskgen", || Workload::Chol(cholesky_2d_model(&a, 24, 1)));
    let l = spans.leaf("sparse.taskgen", || Workload::Lu(lu_1d_model(lu, 48, 1, false)));
    vec![c, l]
}

/// Simulated time of the whole graph on one processor.
fn serial_time(w: &Workload) -> f64 {
    let g = w.graph();
    let m = MachineConfig::t3d(1);
    g.tasks().map(|t| m.task_time(g.weight(t))).sum()
}

/// The DES trace capacity (events per processor) for a traced cell.
fn trace_capacity(w: &Workload) -> usize {
    16 * w.graph().num_tasks().div_ceil(P) + 4096
}

/// Check one executable cell against the verifier's static report.
fn check_peaks(out: &DesOutcome, static_peak: &[u64], cap: u64) -> Result<(), String> {
    if out.peak_mem != static_peak {
        return Err(format!("DES peaks {:?} differ from verified {:?}", out.peak_mem, static_peak));
    }
    if let Some(p) = out.peak_mem.iter().position(|&u| u > cap) {
        return Err(format!("P{p} peak {} over cap {cap}", out.peak_mem[p]));
    }
    if !(out.parallel_time.is_finite() && out.parallel_time > 0.0) {
        return Err(format!("parallel time {}", out.parallel_time));
    }
    Ok(())
}

/// Run one sweep. Returns `Err` with every failure of the sweep.
fn sweep(
    ws: &[Workload],
    spans: &mut Spans,
    traced: bool,
    self_test: bool,
    res: &mut RunResult,
) -> Result<SweepOut, Vec<String>> {
    let mut errs = Vec::new();
    let mut timed = Duration::ZERO;
    let mut out = SweepOut {
        cells: Vec::new(),
        base_pt: Vec::new(),
        timed_s: 0.0,
        findings: 0,
        events: 0,
        dropped: 0,
        check_s: 0.0,
        proc_rows: Vec::new(),
    };
    let mut self_tested = !self_test;
    for (mi, w) in ws.iter().enumerate() {
        let g = w.graph();
        let t = Instant::now();
        let rcp = spans.leaf("sched.order", || schedule(w, P, Order::Rcp, u64::MAX));
        let tot = spans.leaf("core.min_mem", || min_mem(g, &rcp)).tot_no_recycle;
        let base = spans
            .leaf("des.run", || run_unmanaged(g, &rcp, MachineConfig::t3d(P).with_capacity(tot)));
        let mpo = spans.leaf("sched.order", || schedule(w, P, Order::Mpo, u64::MAX));
        timed += t.elapsed();
        match base {
            Ok(b) => out.base_pt.push(b.parallel_time),
            Err(e) => {
                errs.push(format!("matrix {mi}: unmanaged baseline: {e}"));
                out.base_pt.push(f64::NAN);
            }
        }
        for pct in CAPACITY_PCTS {
            let cap = (tot as f64 * pct).floor() as u64;
            let t = Instant::now();
            let dts = spans.leaf("sched.order", || schedule(w, P, Order::DtsMerged, cap));
            timed += t.elapsed();
            for (order, s) in ORDERS.into_iter().zip([&rcp, &mpo, &dts]) {
                let mut cfg = DesConfig::managed(MachineConfig::t3d(P).with_capacity(cap));
                if traced {
                    cfg = cfg.with_tracing(TraceConfig::with_capacity(trace_capacity(w)));
                }
                let t = Instant::now();
                let des = spans.leaf("maps.rtplan", || DesExecutor::new(g, s, cfg));
                let run = spans.leaf("des.run", || des.run());
                timed += t.elapsed();

                let cell_name = format!("matrix {mi} {} at {pct}", order.name());
                let check = spans.open("check");
                let placed = spans
                    .leaf("maps.place", || des.plan().place_maps(g, s, cap, MapWindow::default()));
                let cell_out = match (run, placed) {
                    (Ok(o), Ok(placement)) => {
                        let report =
                            spans.leaf("verify.verify", || verify(g, s, des.plan(), &placement));
                        out.findings += report.findings.len();
                        if !report.accepted() {
                            errs.push(format!(
                                "{cell_name}: verify rejected: {:?}",
                                report.findings.first()
                            ));
                        }
                        if let Err(e) = check_peaks(&o, &report.peak, cap) {
                            errs.push(format!("{cell_name}: {e}"));
                        }
                        if !self_tested {
                            self_tested = true;
                            let mut bad = o.clone();
                            bad.peak_mem[0] += 1;
                            if check_peaks(&bad, &report.peak, cap).is_ok() {
                                res.problem(
                                    "self-test: a corrupted DES peak passed the check".into(),
                                );
                            }
                        }
                        if traced {
                            trace_check(
                                g, s, &des, &o, cap, &cell_name, &mut out, &mut errs, spans,
                            );
                        }
                        Some(cell_out(&o, des.plan()))
                    }
                    (
                        Err(ExecError::NonExecutable { .. }),
                        Err(ExecError::NonExecutable { .. }),
                    ) => None,
                    (run, placed) => {
                        errs.push(format!(
                            "{cell_name}: DES {:?} but placement {:?}",
                            run.err(),
                            placed.err()
                        ));
                        None
                    }
                };
                spans.close(check);
                out.cells.push(Cell { matrix: mi, pct, order, out: cell_out });
            }
        }
    }
    out.timed_s = timed.as_secs_f64();
    if errs.is_empty() {
        Ok(out)
    } else {
        Err(errs)
    }
}

fn cell_out(o: &DesOutcome, plan: &rapid_rt::RtPlan) -> CellOut {
    CellOut {
        parallel_time: o.parallel_time,
        peak_mem: o.peak_mem.clone(),
        maps: o.maps.clone(),
        msgs: o.msgs_sent,
        addr_pkgs: o.addr_pkgs_sent,
        suspended_sends: o.suspended_sends,
        bytes_put: plan.msgs.iter().map(|m| m.units * 8).sum(),
    }
}

/// Replay a traced cell through the trace checker.
#[allow(clippy::too_many_arguments)]
fn trace_check(
    g: &rapid_core::graph::TaskGraph,
    s: &Schedule,
    des: &DesExecutor<'_>,
    o: &DesOutcome,
    cap: u64,
    cell_name: &str,
    out: &mut SweepOut,
    errs: &mut Vec<String>,
    spans: &mut Spans,
) {
    let Some(trace) = &o.trace else {
        errs.push(format!("{cell_name}: traced DES returned no trace"));
        return;
    };
    out.events += trace.total();
    out.dropped += trace.dropped();
    let spec = des.plan().trace_spec(cap);
    let t = Instant::now();
    if let Err(v) = spans.leaf("trace.check", || rapid_trace::check(g, s, &spec, trace)) {
        errs.push(format!("{cell_name}: trace checker: {v}"));
    }
    out.check_s += t.elapsed().as_secs_f64();
    if let Some(pm) = &o.metrics {
        let rows: Vec<String> = pm.iter().map(proc_row).collect();
        out.proc_rows
            .push(format!("{{\"cell\": \"{cell_name}\", \"rows\": [{}]}}", rows.join(", ")));
    }
}

/// The deterministic end-to-end numbers of one sweep.
struct Derived {
    pt_ratio: f64,
    speedup: f64,
    peak_mem_ratio: f64,
    executable_frac: f64,
}

fn derive(ws: &[Workload], s: &SweepOut) -> Derived {
    let s1: Vec<f64> = ws
        .iter()
        .map(|w| w.graph().objects().map(|d| w.graph().obj_size(d)).sum::<u64>() as f64)
        .collect();
    let t1: Vec<f64> = ws.iter().map(serial_time).collect();
    let (mut pt, mut sp, mut n_all) = (0.0, 0.0, 0usize);
    let (mut peak, mut n_exec) = (0.0, 0usize);
    for group in s.cells.chunks(ORDERS.len()) {
        let all = group.iter().all(|c| c.out.is_some());
        for c in group {
            let Some(o) = &c.out else { continue };
            n_exec += 1;
            let worst = o.peak_mem.iter().copied().max().unwrap_or(0) as f64;
            peak += worst / (s1[c.matrix] / P as f64);
            if all {
                n_all += 1;
                pt += o.parallel_time / s.base_pt[c.matrix];
                sp += t1[c.matrix] / o.parallel_time;
            }
        }
    }
    Derived {
        pt_ratio: pt / n_all as f64,
        speedup: sp / n_all as f64,
        peak_mem_ratio: peak / n_exec as f64,
        executable_frac: n_exec as f64 / s.cells.len() as f64,
    }
}

/// Run the `paper-sweep` workload.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let (chol, lu) = generate(seed);
    let mut spans = Spans::new(trace);
    let mut off = Spans::new(false);
    let mut setup_s = Vec::new();
    let mut ws = Vec::new();
    let mut setup_root = None;
    while another_setup(trace, &setup_s) {
        ws.clear();
        let t = Instant::now();
        let root = spans.open("setup");
        ws = prepare(&chol, &lu, &mut spans);
        setup_root = spans.close(root);
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut res = RunResult::default();
    let mut first: Option<SweepOut> = None;
    let (mut untraced_s, mut traced) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let missing = |u: &[f64], t: &[Traced]| u.is_empty() || trace && t.is_empty();
    while Instant::now() < deadline || missing(&untraced_s, &traced) && res.failed < 3 {
        for tracing in [false, true] {
            if tracing && !trace {
                continue;
            }
            res.attempted += 1;
            let log = if tracing { &mut spans } else { &mut off };
            let root = log.open("sweep");
            let s = sweep(&ws, log, tracing, first.is_none(), &mut res);
            let root = log.close(root);
            let s = match s {
                Ok(s) => s,
                Err(errs) => {
                    res.fail(errs.join("; "));
                    continue;
                }
            };
            // The DES is deterministic: every sweep must reproduce the
            // first one's cells exactly.
            if first.as_ref().is_some_and(|f| f.cells != s.cells) {
                res.fail("a sweep's cells differ from the first sweep's".into());
                continue;
            }
            if tracing {
                traced.push((root.map(|r| spans.self_times_under(r)).unwrap_or_default(), s));
            } else {
                untraced_s.push(s.timed_s);
                first.get_or_insert(s);
            }
        }
    }
    let Some(f) = first.filter(|_| !missing(&untraced_s, &traced)) else {
        return Err(format!("no sweep succeeded: {:?}", res.problems));
    };
    let d = derive(&ws, &f);

    if !trace {
        res.metrics = vec![
            Metric::median("setup_s", "s", &setup_s),
            Metric::median("run_s", "s", &untraced_s),
            Metric::tail("run_tail_s", "s", &untraced_s),
            Metric::one("speedup", "x", d.speedup),
            Metric::one("peak_mem_ratio", "ratio", d.peak_mem_ratio),
            Metric::one("pt_ratio", "ratio", d.pt_ratio),
            Metric::one("executable_frac", "ratio", d.executable_frac),
            Metric::one("rss_peak_mb", "MiB", rss_peak_mb().unwrap_or(f64::NAN)),
        ];
        return Ok(res);
    }

    let setup = setup_root.map(|r| spans.self_times_under(r)).unwrap_or_default();
    let med = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let layer = |name: &str| med(&|t| t.0.get(name).copied().unwrap_or(0.0));
    let accounted = med(&|t| {
        TIMED_LAYERS.iter().map(|n| t.0.get(n).copied().unwrap_or(0.0)).sum::<f64>() / t.1.timed_s
    });
    let cells: Vec<&CellOut> = f.cells.iter().filter_map(|c| c.out.as_ref()).collect();
    let total = |g: fn(&CellOut) -> f64| cells.iter().map(|c| g(c)).sum::<f64>();
    let dropped = traced.iter().map(|t| t.1.dropped).max().unwrap_or(0);
    if dropped > 0 {
        res.problem(format!("DES traces dropped {dropped} events"));
    }
    let zero = |name: &'static str, unit: &'static str| Metric::one(name, unit, 0.0);
    res.metrics = vec![
        Metric::one("sparse.order_s", "s", setup.get("sparse.order").copied().unwrap_or(0.0)),
        Metric::one("sparse.taskgen_s", "s", setup.get("sparse.taskgen").copied().unwrap_or(0.0)),
        Metric::one("sched.order_s", "s", layer("sched.order")),
        Metric::one("core.min_mem_s", "s", layer("core.min_mem")),
        Metric::one("maps.rtplan_s", "s", layer("maps.rtplan")),
        Metric::one("maps.place_s", "s", layer("maps.place")),
        Metric::one("maps.count", "count", total(|c| c.maps.iter().sum::<u32>() as f64)),
        Metric::one("verify.verify_s", "s", layer("verify.verify")),
        Metric::one("verify.findings", "count", f.findings as f64),
        zero("threaded.new_s", "s"),
        zero("threaded.setup_s", "s"),
        zero("threaded.map_s", "s"),
        zero("threaded.rec_s", "s"),
        zero("threaded.exe_s", "s"),
        zero("threaded.snd_s", "s"),
        zero("threaded.end_s", "s"),
        zero("threaded.spawn_join_s", "s"),
        zero("threaded.tasks", "count"),
        zero("threaded.msgs", "count"),
        zero("threaded.pkgs", "count"),
        zero("threaded.cq_retries", "count"),
        zero("threaded.suspended_peak", "count"),
        zero("threaded.cq_useful", "ratio"),
        zero("machine.mailbox_busy", "count"),
        zero("machine.arena_frag", "ratio"),
        zero("machine.truncated_windows", "count"),
        Metric::one("machine.bytes_put", "B", total(|c| c.bytes_put as f64)),
        zero("kernels.exe_s", "s"),
        zero("kernels.flops", "flop"),
        zero("kernels.gflops", "GFLOP/s"),
        Metric::one("des.run_s", "s", layer("des.run")),
        Metric::one("des.msgs", "count", total(|c| c.msgs as f64)),
        Metric::one("des.addr_pkgs", "count", total(|c| c.addr_pkgs as f64)),
        Metric::one("des.suspended_sends", "count", total(|c| c.suspended_sends as f64)),
        Metric::one("des.maps", "count", total(|c| c.maps.iter().sum::<u32>() as f64)),
        Metric::one("trace.overhead", "ratio", med(&|t| t.1.timed_s) / median(&untraced_s)),
        Metric::one("trace.events", "count", med(&|t| t.1.events as f64)),
        Metric::one("trace.dropped", "count", dropped as f64),
        Metric::one("trace.check_s", "s", med(&|t| t.1.check_s)),
        Metric::one("trace.accounted", "ratio", accounted),
    ];
    let rows = traced.last().map(|t| t.1.proc_rows.join(", ")).unwrap_or_default();
    res.check_accounted();
    res.extra_json.push(("spans".into(), spans.to_json()));
    res.extra_json.push(("proc_metrics".into(), format!("[{rows}]")));
    Ok(res)
}
