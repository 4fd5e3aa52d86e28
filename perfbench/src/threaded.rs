//! The two workloads that run on the threaded executor: `chol-bcsstk15`
//! (kernel-bound block Cholesky) and `irregular-50k` (protocol-bound
//! random DAG with a near-empty task body).

use crate::check::{bitwise_eq, corrupt_pivot, BlockSolver};
use crate::report::{proc_row, rss_peak_mb, Metric, RunResult};
use crate::spans::Spans;
use crate::stats::{another_setup, median};
use rapid_bench::harness::t3d_cost;
use rapid_core::fixtures::{random_irregular_graph, RandomGraphSpec};
use rapid_core::graph::{ObjId, ProcId, TaskGraph, TaskId};
use rapid_core::memreq::{min_mem, MemReport};
use rapid_core::schedule::Schedule;
use rapid_machine::config::MachineConfig;
use rapid_rt::des::{run_managed, run_unmanaged, DesOutcome};
use rapid_rt::threaded::{run_sequential_with_init, TaskCtx, ThreadedExecutor, ThreadedOutcome};
use rapid_rt::{MapPlacement, MapWindow, RtPlan};
use rapid_sched::assign::{cyclic_owner_map, owner_compute_assignment};
use rapid_sparse::taskgen::{cholesky_2d_model, CholeskyModel};
use rapid_sparse::{gen, order, SparseMatrix};
use rapid_trace::{Event, ProcMetrics, ProtoState, TraceConfig};
use rapid_verify::{verify, VerifyReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Worker threads (= processors of the schedule).
const WORKERS: usize = 2;
/// Capacities, as shares of `TOT`, at which `executable_frac` asks
/// whether the plan is executable (the paper's §5 sweep).
pub const CAPACITY_PCTS: [f64; 5] = [1.0, 0.75, 0.5, 0.4, 0.25];

/// Which threaded workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `chol-bcsstk15`.
    Chol,
    /// `irregular-50k`.
    Irregular,
}

/// Per-processor cap of `chol-bcsstk15`: 5% above `MIN_MEM`, about 57%
/// of `TOT` (the arena has room for fragmentation).
fn chol_cap(rep: &MemReport) -> u64 {
    (rep.min_mem as f64 * 1.05).ceil() as u64
}

/// Per-processor cap of `irregular-50k`: 2% above `MIN_MEM`. Tighter
/// (`MIN_MEM + 8`) fragments the first-fit arena on most runs.
fn irregular_cap(rep: &MemReport) -> u64 {
    (rep.min_mem as f64 * 1.02).ceil() as u64
}

/// The `irregular-50k` graph shape.
fn irregular_spec() -> RandomGraphSpec {
    RandomGraphSpec {
        tasks: 50_000,
        objects: 12_500,
        max_obj_size: 4,
        max_reads: 3,
        update_prob: 0.35,
        accum_prob: 0.05,
        ..RandomGraphSpec::default()
    }
}

/// A near-empty task body, shaped like the repository executor bench's
/// (read every input, add into every output), but in exact integer
/// arithmetic. Marked-commuting (`Accum`) updates may run in any order, and
/// the results still equal the sequential run's bit for bit. The bench's
/// own body sums unbounded floats, so its results depend on that order.
fn tiny_body(t: TaskId, ctx: &mut TaskCtx<'_>) {
    let acc: f64 = ctx.read_ids().map(|d| ctx.read(d).iter().sum::<f64>()).sum();
    let add = acc.min(1024.0).floor() + t.0 as f64 + 1.0;
    for d in ctx.write_ids().collect::<Vec<_>>() {
        for x in ctx.write(d) {
            *x += add;
        }
    }
}

/// A verified plan: schedule, memory report, cap, protocol plan, MAP
/// placement and the verifier's report.
struct Plan {
    sched: Schedule,
    rep: MemReport,
    cap: u64,
    rt: RtPlan,
    placement: MapPlacement,
    report: VerifyReport,
}

/// Schedule and verify `g` under `owner` (spans: `sched.order`,
/// `core.min_mem`, `maps.rtplan`, `maps.place`, `verify.verify`).
fn plan(
    g: &TaskGraph,
    owner: &[ProcId],
    cap_of: fn(&MemReport) -> u64,
    spans: &mut Spans,
) -> Result<Plan, String> {
    let sched = spans.leaf("sched.order", || {
        let assign = owner_compute_assignment(g, owner, WORKERS);
        rapid_sched::mpo::mpo_order(g, &assign, &t3d_cost())
    });
    let rep = spans.leaf("core.min_mem", || min_mem(g, &sched));
    let cap = cap_of(&rep);
    let rt = spans.leaf("maps.rtplan", || RtPlan::new(g, &sched));
    let placement: MapPlacement = spans
        .leaf("maps.place", || rt.place_maps(g, &sched, cap, MapWindow::default()))
        .map_err(|e| format!("MAP placement at cap {cap}: {e}"))?;
    let report = spans.leaf("verify.verify", || verify(g, &sched, &rt, &placement));
    Ok(Plan { sched, rep, cap, rt, placement, report })
}

/// What a workload's task bodies run on (one per run, so the variants'
/// size difference costs nothing).
#[allow(clippy::large_enum_variant)]
enum Source<'i> {
    /// `chol-bcsstk15`: the ordered matrix and its block model.
    Chol { a: SparseMatrix, model: CholeskyModel },
    /// `irregular-50k`: the generated graph itself.
    Graph(&'i TaskGraph),
}

/// A workload prepared up to its verified plan.
struct Prepared<'i> {
    source: Source<'i>,
    plan: Plan,
}

impl Prepared<'_> {
    fn graph(&self) -> &TaskGraph {
        match &self.source {
            Source::Chol { model, .. } => &model.graph,
            Source::Graph(g) => g,
        }
    }
}

/// Generated input of a workload (not part of set-up time).
#[allow(clippy::large_enum_variant)]
enum Input {
    Matrix(SparseMatrix),
    Graph(TaskGraph),
}

fn generate(kind: Kind, seed: u64) -> Input {
    match kind {
        Kind::Chol => Input::Matrix(gen::bcsstk_like(36, 36, 3, seed)),
        Kind::Irregular => Input::Graph(random_irregular_graph(seed, &irregular_spec())),
    }
}

/// Set-up up to the verified plan; [`ThreadedExecutor::new`] is timed by
/// the caller because the executor borrows the result.
fn prepare<'i>(input: &'i Input, spans: &mut Spans) -> Result<Prepared<'i>, String> {
    match input {
        Input::Matrix(a0) => {
            let a = spans.leaf("sparse.order", || a0.permute_sym(&order::min_degree(a0)));
            let model = spans.leaf("sparse.taskgen", || cholesky_2d_model(&a, 24, WORKERS));
            let plan = plan(&model.graph, &model.owner, chol_cap, spans)?;
            Ok(Prepared { source: Source::Chol { a, model }, plan })
        }
        Input::Graph(g) => {
            let owner = cyclic_owner_map(g.num_objects(), WORKERS);
            let plan = plan(g, &owner, irregular_cap, spans)?;
            Ok(Prepared { source: Source::Graph(g), plan })
        }
    }
}

/// Run one threaded workload.
pub fn run(kind: Kind, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let input = generate(kind, seed);
    let mut spans = Spans::new(trace);
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let mut setup_root = None;
    while another_setup(trace, &setup_s) {
        drop(prepared.take());
        let t = Instant::now();
        let root = spans.open("setup");
        let p = prepare(&input, &mut spans)?;
        let exec = spans
            .leaf("threaded.new", || ThreadedExecutor::new(p.graph(), &p.plan.sched, p.plan.cap));
        drop(exec);
        setup_root = spans.close(root);
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    let g = p.graph();
    let mut res = RunResult::default();
    if !p.plan.report.accepted() {
        res.problem(format!("verify rejected the plan: {:?}", p.plan.report.findings.first()));
    }

    let measured = match &p.source {
        Source::Chol { a, model } => {
            let solver = BlockSolver::new(model);
            let extra = |objs: &[Vec<f64>]| solver.check(a, objs);
            let corrupt = |objs: &mut Vec<Vec<f64>>| corrupt_pivot(model, objs);
            let job = Job { g, plan: &p.plan, extra: &extra, corrupt: &corrupt };
            job.measure(&model.body(), &model.init(a), seconds, trace, &mut spans, &mut res)
        }
        Source::Graph(_) => {
            let extra = |_: &[Vec<f64>]| Ok(());
            let corrupt = |objs: &mut Vec<Vec<f64>>| corrupt_first(objs);
            let job = Job { g, plan: &p.plan, extra: &extra, corrupt: &corrupt };
            job.measure(
                &tiny_body,
                &|_: ObjId, _: &mut [f64]| {},
                seconds,
                trace,
                &mut spans,
                &mut res,
            )
        }
    };

    let plan = &p.plan;
    let tot = plan.rep.tot_no_recycle;
    let sim = simulate(g, &plan.sched, plan.cap, tot, &mut spans);
    let pt_ratio = match &sim {
        Ok((ratio, _, _)) => *ratio,
        Err(e) => {
            res.problem(format!("DES of the plan: {e}"));
            f64::NAN
        }
    };
    let executable = CAPACITY_PCTS
        .iter()
        .filter(|&&pct| plan.rep.executable_under((tot as f64 * pct).floor() as u64))
        .count();

    if !trace {
        res.metrics = vec![
            Metric::median("setup_s", "s", &setup_s),
            measured.par_metric("run_s", false),
            measured.par_metric("run_tail_s", true),
            Metric::one("speedup", "x", measured.speedup()),
            Metric::one(
                "peak_mem_ratio",
                "ratio",
                measured.peak_max as f64 / (plan.rep.s1 as f64 / WORKERS as f64),
            ),
            Metric::one("pt_ratio", "ratio", pt_ratio),
            Metric::one("executable_frac", "ratio", executable as f64 / CAPACITY_PCTS.len() as f64),
            Metric::one("rss_peak_mb", "MiB", rss_peak_mb().unwrap_or(f64::NAN)),
        ];
        return Ok(res);
    }

    let setup = setup_root.map(|r| spans.self_times_under(r)).unwrap_or_default();
    let st = |name: &str| setup.get(name).copied().unwrap_or(0.0);
    let layers = measured.layers.as_ref().expect("traced runs collect layer samples");
    if layers.is_empty() || measured.par.is_empty() {
        return Err(format!("no traced and untraced run pair succeeded: {:?}", res.problems));
    }
    let med = |f: &dyn Fn(&LayerSample) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let flops: f64 = g.tasks().map(|t| g.weight(t)).sum();
    let bytes_put: u64 = plan.rt.msgs.iter().map(|m| m.units * 8).sum();
    let des = sim.as_ref().ok().map(|(_, o, _)| o);
    let des_run_s = sim.as_ref().map_or(0.0, |(_, _, secs)| *secs);
    let untraced = median(&measured.par);
    res.metrics = vec![
        Metric::one("sparse.order_s", "s", st("sparse.order")),
        Metric::one("sparse.taskgen_s", "s", st("sparse.taskgen")),
        Metric::one("sched.order_s", "s", st("sched.order")),
        Metric::one("core.min_mem_s", "s", st("core.min_mem")),
        Metric::one("maps.rtplan_s", "s", st("maps.rtplan")),
        Metric::one("maps.place_s", "s", st("maps.place")),
        Metric::one("maps.count", "count", med(&|l| l.maps)),
        Metric::one("verify.verify_s", "s", st("verify.verify")),
        Metric::one("verify.findings", "count", plan.report.findings.len() as f64),
        Metric::one("threaded.new_s", "s", st("threaded.new")),
    ];
    for (i, name) in DWELL_NAMES.iter().enumerate() {
        res.metrics.push(Metric::one(name, "s", med(&|l| l.dwell_s[i])));
    }
    res.metrics.extend([
        Metric::one("threaded.spawn_join_s", "s", med(&|l| l.spawn_join_s)),
        Metric::one("threaded.tasks", "count", med(&|l| l.tasks)),
        Metric::one("threaded.msgs", "count", med(&|l| l.msgs)),
        Metric::one("threaded.pkgs", "count", med(&|l| l.pkgs)),
        Metric::one("threaded.cq_retries", "count", med(&|l| l.cq_retries)),
        Metric::one("threaded.suspended_peak", "count", med(&|l| l.suspended_peak)),
        Metric::one("threaded.cq_useful", "ratio", med(&|l| l.cq_useful)),
        Metric::one("machine.mailbox_busy", "count", med(&|l| l.mailbox_busy)),
        Metric::one("machine.arena_frag", "ratio", med(&|l| l.arena_frag)),
        Metric::one("machine.truncated_windows", "count", med(&|l| l.truncated_windows)),
        Metric::one("machine.bytes_put", "B", bytes_put as f64),
        Metric::one("kernels.exe_s", "s", med(&|l| l.kernel_s)),
        Metric::one("kernels.flops", "flop", flops),
        Metric::one("kernels.gflops", "GFLOP/s", med(&|l| flops / l.kernel_s.max(1e-12) / 1e9)),
        Metric::one("des.run_s", "s", des_run_s),
        Metric::one("des.msgs", "count", des.map_or(0.0, |o| o.msgs_sent as f64)),
        Metric::one("des.addr_pkgs", "count", des.map_or(0.0, |o| o.addr_pkgs_sent as f64)),
        Metric::one("des.suspended_sends", "count", des.map_or(0.0, |o| o.suspended_sends as f64)),
        Metric::one("des.maps", "count", des.map_or(0.0, |o| o.maps.iter().sum::<u32>() as f64)),
        Metric::one("trace.overhead", "ratio", med(&|l| l.wall_s) / untraced),
        Metric::one("trace.events", "count", med(&|l| l.events)),
        Metric::one("trace.dropped", "count", layers.iter().map(|l| l.dropped).fold(0.0, f64::max)),
        Metric::one("trace.check_s", "s", med(&|l| l.check_s)),
        Metric::one("trace.accounted", "ratio", med(&|l| l.accounted)),
    ]);
    res.check_accounted();
    res.extra_json.push(("spans".into(), spans.to_json()));
    res.extra_json.push(("proc_metrics".into(), measured.proc_rows.clone()));
    Ok(res)
}

/// Names of the per-state dwell metrics, in [`ProtoState::ALL`] order
/// (`DONE` is terminal and has no dwell).
const DWELL_NAMES: [&str; 6] = [
    "threaded.setup_s",
    "threaded.map_s",
    "threaded.rec_s",
    "threaded.exe_s",
    "threaded.snd_s",
    "threaded.end_s",
];

/// Simulated parallel time under `cap` over the unmanaged baseline (all
/// space preallocated, `TOT`) on a T3D-like machine of [`WORKERS`]
/// processors, with the managed run's outcome and its wall seconds.
fn simulate(
    g: &TaskGraph,
    sched: &Schedule,
    cap: u64,
    tot: u64,
    spans: &mut Spans,
) -> Result<(f64, DesOutcome, f64), String> {
    let base = run_unmanaged(g, sched, MachineConfig::t3d(WORKERS).with_capacity(tot))
        .map_err(|e| format!("unmanaged: {e}"))?;
    let t = Instant::now();
    let out = spans
        .leaf("des.run", || run_managed(g, sched, MachineConfig::t3d(WORKERS).with_capacity(cap)))
        .map_err(|e| format!("managed at cap {cap}: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    Ok((out.parallel_time / base.parallel_time, out, secs))
}

/// Change one value of the first non-empty object.
fn corrupt_first(objs: &mut [Vec<f64>]) {
    if let Some(o) = objs.iter_mut().find(|o| !o.is_empty()) {
        o[0] += 1.0;
    }
}

/// An output check: `Err` says what is wrong.
type Check<'a> = &'a dyn Fn(&[Vec<f64>]) -> Result<(), String>;

/// What one workload's measurement needs besides its body and init.
struct Job<'a> {
    g: &'a TaskGraph,
    plan: &'a Plan,
    /// Workload-specific output check beyond equality with the reference.
    extra: Check<'a>,
    /// Corrupts one output value, for the check's self-test.
    corrupt: &'a dyn Fn(&mut Vec<Vec<f64>>),
}

/// Per traced run layer numbers.
struct LayerSample {
    wall_s: f64,
    dwell_s: [f64; 6],
    spawn_join_s: f64,
    accounted: f64,
    maps: f64,
    tasks: f64,
    msgs: f64,
    pkgs: f64,
    cq_retries: f64,
    suspended_peak: f64,
    cq_useful: f64,
    mailbox_busy: f64,
    truncated_windows: f64,
    arena_frag: f64,
    kernel_s: f64,
    events: f64,
    dropped: f64,
    check_s: f64,
}

/// Measurements of one run.
struct Measured {
    /// Successful parallel run wall times (untraced), seconds.
    par: Vec<f64>,
    /// Serial reference wall times, interleaved with `par`.
    ser: Vec<f64>,
    /// Largest per-processor counted peak seen.
    peak_max: u64,
    /// Traced mode: one sample per traced run.
    layers: Option<Vec<LayerSample>>,
    /// Traced mode: the `ProcMetrics` rows of the last traced run (JSON).
    proc_rows: String,
}

impl Measured {
    fn par_metric(&self, name: &'static str, tail: bool) -> Metric {
        match (self.par.is_empty(), tail) {
            (true, _) => Metric::one(name, "s", f64::NAN),
            (false, false) => Metric::median(name, "s", &self.par),
            (false, true) => Metric::tail(name, "s", &self.par),
        }
    }

    fn speedup(&self) -> f64 {
        if self.par.is_empty() || self.ser.is_empty() {
            return f64::NAN;
        }
        median(&self.ser) / median(&self.par)
    }
}

impl Job<'_> {
    /// Check one parallel outcome: objects, then the counted peaks against
    /// the cap. (They may sit below the verifier's static peaks: the
    /// executor truncates a MAP window when arena fragmentation blocks a
    /// lookahead allocation; traced runs count such windows.)
    fn check_outcome(&self, o: &ThreadedOutcome, check: Check<'_>) -> Result<(), String> {
        check(&o.objects)?;
        if let Some(p) = o.peak_mem.iter().position(|&u| u > self.plan.cap) {
            return Err(format!("P{p} peak {} units over cap {}", o.peak_mem[p], self.plan.cap));
        }
        Ok(())
    }

    fn measure<B, I>(
        &self,
        body: &B,
        init: &I,
        seconds: u64,
        trace: bool,
        spans: &mut Spans,
        res: &mut RunResult,
    ) -> Measured
    where
        B: Fn(TaskId, &mut TaskCtx<'_>) + Sync,
        I: Fn(ObjId, &mut [f64]) + Sync,
    {
        let (g, plan) = (self.g, self.plan);
        let reference = run_sequential_with_init(g, body, init);
        if let Err(e) = (self.extra)(&reference) {
            res.problem(format!("serial reference: {e}"));
        }
        let check =
            |objs: &[Vec<f64>]| bitwise_eq(objs, &reference).and_then(|()| (self.extra)(objs));
        let exec = ThreadedExecutor::new(g, &plan.sched, plan.cap);
        let mut out = Measured {
            par: Vec::new(),
            ser: Vec::new(),
            peak_max: 0,
            layers: trace.then(Vec::new),
            proc_rows: "[]".into(),
        };

        // Warm-up, and the self-test: a corrupted copy of a good output
        // must fail the same check every measured run goes through.
        res.attempted += 1;
        match exec.run_with_init(body, init) {
            Ok(o) => {
                if let Err(e) = self.check_outcome(&o, &check) {
                    res.fail(format!("warm-up run: {e}"));
                }
                let mut bad = o.objects.clone();
                (self.corrupt)(&mut bad);
                if check(&bad).is_ok() {
                    res.problem("self-test: a corrupted output passed the check".into());
                }
            }
            Err(e) => res.fail(format!("warm-up run: {e}")),
        }

        let kernel_ns = AtomicU64::new(0);
        let timed_body = |t: TaskId, ctx: &mut TaskCtx<'_>| {
            let start = Instant::now();
            body(t, ctx);
            // A statistic only; it publishes no other data.
            kernel_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        };
        let traced = trace.then(|| self.traced_executor(&timed_body, init, res));

        let deadline = Instant::now() + Duration::from_secs(seconds);
        while Instant::now() < deadline {
            res.attempted += 1;
            let t = Instant::now();
            let r = exec.run_with_init(body, init);
            let wall = t.elapsed().as_secs_f64();
            match r
                .map_err(|e| e.to_string())
                .and_then(|o| self.check_outcome(&o, &check).map(|()| o))
            {
                Ok(o) => {
                    out.par.push(wall);
                    out.peak_max = out.peak_max.max(o.peak_mem.iter().copied().max().unwrap_or(0));
                }
                Err(e) => res.fail(e),
            }
            if let Some(traced) = &traced {
                res.attempted += 1;
                kernel_ns.store(0, Ordering::Relaxed);
                let root = spans.open("run");
                let t = Instant::now();
                let r = spans.leaf("threaded.run", || traced.run_with_init(timed_body, init));
                let wall = t.elapsed().as_secs_f64();
                spans.close(root);
                let kernel_s = kernel_ns.load(Ordering::Relaxed) as f64 * 1e-9;
                match r
                    .map_err(|e| e.to_string())
                    .and_then(|o| self.check_outcome(&o, &check).map(|()| o))
                {
                    Ok(o) => {
                        let (sample, rows) = self.layer_sample(&o, traced, wall, kernel_s, res);
                        out.proc_rows = rows;
                        out.layers.as_mut().expect("traced").push(sample);
                    }
                    Err(e) => res.fail(format!("traced run: {e}")),
                }
            } else {
                let t = Instant::now();
                let s = run_sequential_with_init(g, body, init);
                out.ser.push(t.elapsed().as_secs_f64());
                if let Err(e) = bitwise_eq(&s, &reference) {
                    res.problem(format!("serial run differs from the first: {e}"));
                }
            }
        }
        if out.par.is_empty() {
            res.problem("no parallel run succeeded".into());
        }
        out
    }

    /// A traced executor whose rings hold a whole run with 25% headroom,
    /// sized from a first traced run.
    fn traced_executor<'e, B, I>(
        &'e self,
        body: &B,
        init: &I,
        res: &mut RunResult,
    ) -> ThreadedExecutor<'e>
    where
        B: Fn(TaskId, &mut TaskCtx<'_>) + Sync,
        I: Fn(ObjId, &mut [f64]) + Sync,
    {
        let new = |capacity| {
            ThreadedExecutor::new(self.g, &self.plan.sched, self.plan.cap)
                .with_tracing(TraceConfig::with_capacity(capacity))
        };
        // A ring's total counts wrapped-over events too, so one run with a
        // rough estimate gives the exact need.
        res.attempted += 1;
        let events = match new(12 * self.g.num_tasks().div_ceil(WORKERS)).run_with_init(body, init)
        {
            Ok(o) => o.trace.map_or(0, |t| t.procs.iter().map(|p| p.total()).max().unwrap_or(0)),
            Err(e) => {
                res.fail(format!("traced warm-up run: {e}"));
                0
            }
        } as usize;
        new(events + events / 4 + 4096)
    }

    /// Layer numbers of one traced run, and its `ProcMetrics` rows as JSON.
    fn layer_sample(
        &self,
        o: &ThreadedOutcome,
        exec: &ThreadedExecutor<'_>,
        wall_s: f64,
        kernel_s: f64,
        res: &mut RunResult,
    ) -> (LayerSample, String) {
        let trace = o.trace.as_ref().expect("traced executor records a trace");
        let pm = o.metrics.clone().unwrap_or_else(|| ProcMetrics::from_traces(trace));
        let spec = exec.plan().trace_spec(self.plan.cap);
        let t = Instant::now();
        if let Err(v) = rapid_trace::check(self.g, &self.plan.sched, &spec, trace) {
            res.problem(format!("trace checker: {v}"));
        }
        let check_s = t.elapsed().as_secs_f64();
        let dropped = trace.dropped();
        if dropped > 0 {
            res.problem(format!("trace dropped {dropped} events"));
        }
        let mut dwell_s = [0.0; 6];
        for m in &pm {
            for (i, s) in ProtoState::ALL.iter().take(6).enumerate() {
                dwell_s[i] += m.dwell_ns[s.idx()] as f64 * 1e-9;
            }
        }
        let busiest =
            pm.iter().map(|m| m.dwell_ns.iter().sum::<u64>()).max().unwrap_or(0) as f64 * 1e-9;
        let suspended: usize = trace
            .procs
            .iter()
            .map(|p| p.iter().filter(|(_, e)| matches!(e, Event::SendSuspend { .. })).count())
            .sum();
        let cq_retries: u32 = pm.iter().map(|m| m.cq_retries).sum();
        let truncated: usize = trace
            .procs
            .iter()
            .zip(&self.plan.placement.per_proc)
            .map(|(p, planned)| {
                let ends: Vec<u32> = p
                    .iter()
                    .filter_map(|(_, e)| match e {
                        Event::MapEnd { next_map, .. } => Some(*next_map),
                        _ => None,
                    })
                    .collect();
                let differ = ends.iter().zip(planned).filter(|(e, w)| **e != w.next_map).count();
                differ + ends.len().abs_diff(planned.len())
            })
            .sum();
        let counted = o.peak_mem.iter().copied().max().unwrap_or(0).max(1);
        let sum = |f: fn(&ProcMetrics) -> u32| pm.iter().map(f).sum::<u32>() as f64;
        let sample = LayerSample {
            wall_s,
            dwell_s,
            spawn_join_s: wall_s - busiest,
            accounted: busiest / wall_s,
            maps: o.maps.iter().sum::<u32>() as f64,
            tasks: sum(|m| m.tasks),
            msgs: sum(|m| m.msgs_sent),
            pkgs: sum(|m| m.pkgs_sent),
            cq_retries: cq_retries as f64,
            suspended_peak: pm.iter().map(|m| m.suspended_peak).max().unwrap_or(0) as f64,
            cq_useful: if cq_retries == 0 { 1.0 } else { suspended as f64 / cq_retries as f64 },
            mailbox_busy: sum(|m| m.mailbox_busy),
            truncated_windows: truncated as f64,
            arena_frag: o.arena_peak.iter().copied().max().unwrap_or(0) as f64 / counted as f64,
            kernel_s,
            events: trace.total() as f64,
            dropped: dropped as f64,
            check_s,
        };
        let rows: Vec<String> = pm.iter().map(proc_row).collect();
        (sample, format!("[{}]", rows.join(", ")))
    }
}
