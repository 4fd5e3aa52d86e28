//! Metrics, provenance and the result printing.

use crate::stats::{summarize, Summary};
use rapid_trace::{ProcMetrics, ProtoState};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Least share of a traced operation's wall time that the per-layer self
/// times must account for (`trace.accounted`); below it the traced run's
/// breakdown is not trusted and the run is reported incorrect.
pub const ACCOUNTED_FLOOR: f64 = 0.5;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value (the median for sampled metrics).
    pub value: f64,
    /// Sample summary, for metrics measured more than once.
    pub summary: Option<Summary>,
}

impl Metric {
    /// A metric with a single value.
    pub fn one(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value, summary: None }
    }

    /// A metric reported as the median of `samples`.
    pub fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let s = summarize(samples);
        Metric { name, unit, value: s.median, summary: Some(s) }
    }

    /// The tail of `samples` (see [`Summary::tail`]).
    pub fn tail(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let s = summarize(samples);
        Metric { name, unit, value: s.tail, summary: Some(s) }
    }
}

/// What one benchmark run found.
#[derive(Default)]
pub struct RunResult {
    /// Measured operations attempted.
    pub attempted: u64,
    /// Operations that failed: an executor error, a wrong result, or a
    /// DES error other than non-executable.
    pub failed: u64,
    /// Every check failure, in order (operation failures and failures of
    /// the run's own validity checks).
    pub problems: Vec<String>,
    /// The metrics for the run's mode.
    pub metrics: Vec<Metric>,
    /// Extra JSON members for the result file (`"key": value`).
    pub extra_json: Vec<(String, String)>,
}

impl RunResult {
    /// Record a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problem(what);
    }

    /// Record a check failure that is not an operation failure.
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 32 {
            self.problems.push(what);
        }
    }

    /// Check the traced breakdown's validity: `trace.accounted` at least
    /// [`ACCOUNTED_FLOOR`].
    pub fn check_accounted(&mut self) {
        let accounted = self.metrics.iter().find(|m| m.name == "trace.accounted").map(|m| m.value);
        if let Some(a) = accounted.filter(|a| a.is_nan() || *a < ACCOUNTED_FLOOR) {
            self.problem(format!(
                "per-layer self times account for {a:.3} of the run, below {ACCOUNTED_FLOOR}"
            ));
        }
    }

    /// The run is correct when no check failed and every metric is finite.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// Where and on what a run was made.
pub struct Provenance {
    /// `available_parallelism`.
    pub cores: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// The commit checked out, when the source tree is a git checkout.
    pub commit: String,
}

impl Provenance {
    /// Gather the host and source description.
    pub fn gather(root: &Path) -> Provenance {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let commit = git_head(root).unwrap_or_else(|| "unknown (not a git checkout)".to_string());
        Provenance { cores, cpu, commit }
    }
}

/// The commit `HEAD` names, read from the `.git` directory directly.
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else { return Some(head.to_string()) };
    if let Ok(id) = std::fs::read_to_string(git.join(refname)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == refname).then(|| id.to_string())
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (`null` when not finite).
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"tail\": {}, \"tail_beyond\": {}}}",
        s.n,
        jnum(s.median),
        jnum(s.q1),
        jnum(s.q3),
        jnum(s.tail),
        s.tail_beyond
    )
}

/// The run's identity, printed and stored with every result.
pub struct RunId<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced mode.
    pub trace: bool,
}

/// Print the human-readable report, write the result file and print the
/// one-line JSON result last.
pub fn emit(id: &RunId, prov: &Provenance, res: &RunResult, out_dir: &Path) {
    println!(
        "perfbench {} seed={} seconds={} trace={} | host: {} cores, {} | commit {}",
        id.workload,
        id.seed,
        id.seconds,
        u8::from(id.trace),
        prov.cores,
        prov.cpu,
        prov.commit
    );
    for m in &res.metrics {
        match &m.summary {
            Some(s) => println!(
                "  {:<24} {:>14.6} {:<7} median {:.6} q1 {:.6} q3 {:.6} tail {:.6} ({} beyond) n={}",
                m.name, m.value, m.unit, s.median, s.q1, s.q3, s.tail, s.tail_beyond, s.n
            ),
            None => println!("  {:<24} {:>14.6} {:<7} n=1", m.name, m.value, m.unit),
        }
    }
    for p in &res.problems {
        println!("  CHECK FAILED: {p}");
    }
    let correct = res.correct();

    let mut file = String::from("{\n");
    let _ = writeln!(file, "  \"workload\": {},", jstr(id.workload));
    let _ = writeln!(file, "  \"seed\": {},", id.seed);
    let _ = writeln!(file, "  \"seconds\": {},", id.seconds);
    let _ = writeln!(file, "  \"trace\": {},", id.trace);
    let _ = writeln!(
        file,
        "  \"host\": {{\"cores\": {}, \"cpu\": {}}},\n  \"commit\": {},",
        prov.cores,
        jstr(&prov.cpu),
        jstr(&prov.commit)
    );
    let _ = writeln!(
        file,
        "  \"correct\": {correct},\n  \"attempted\": {},\n  \"failed\": {},",
        res.attempted, res.failed
    );
    let problems: Vec<String> = res.problems.iter().map(|p| jstr(p)).collect();
    let _ = writeln!(file, "  \"problems\": [{}],", problems.join(", "));
    file.push_str("  \"metrics\": {\n");
    for (i, m) in res.metrics.iter().enumerate() {
        let summary = m.summary.as_ref().map_or("null".to_string(), summary_json);
        let _ = write!(
            file,
            "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {summary}}}",
            jstr(m.name),
            jnum(m.value),
            jstr(m.unit)
        );
        file.push_str(if i + 1 < res.metrics.len() { ",\n" } else { "\n" });
    }
    file.push_str("  }");
    for (k, v) in &res.extra_json {
        let _ = write!(file, ",\n  {}: {v}", jstr(k));
    }
    file.push_str("\n}\n");
    let path = result_path(out_dir, id);
    match std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, file)) {
        Ok(()) => println!("  result file: {}", path.display()),
        Err(e) => println!("  result file not written ({}): {e}", path.display()),
    }

    let metrics: Vec<String> = res
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                jstr(m.name),
                jnum(m.value),
                jstr(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.attempted,
        res.failed,
        metrics.join(", ")
    );
}

fn result_path(out_dir: &Path, id: &RunId) -> PathBuf {
    out_dir.join(format!("{}-seed{}-trace{}.json", id.workload, id.seed, u8::from(id.trace)))
}

/// One `ProcMetrics` row as JSON.
pub fn proc_row(m: &ProcMetrics) -> String {
    let dwell: Vec<String> = ProtoState::ALL
        .iter()
        .map(|s| format!("\"{}\": {}", s.name(), m.dwell_ns[s.idx()]))
        .collect();
    format!(
        "{{\"proc\": {}, \"events\": {}, \"dropped\": {}, \"dwell_ns\": {{{}}}, \"maps\": {}, \
         \"tasks\": {}, \"cq_retries\": {}, \"suspended_peak\": {}, \"pkgs_sent\": {}, \
         \"pkgs_recvd\": {}, \"msgs_sent\": {}, \"msgs_recvd\": {}, \"mailbox_busy\": {}, \
         \"peak_mem\": {}, \"arena_high\": {}}}",
        m.proc,
        m.events,
        m.dropped,
        dwell.join(", "),
        m.maps,
        m.tasks,
        m.cq_retries,
        m.suspended_peak,
        m.pkgs_sent,
        m.pkgs_recvd,
        m.msgs_sent,
        m.msgs_recvd,
        m.mailbox_busy,
        m.peak_mem,
        m.arena_high
    )
}
