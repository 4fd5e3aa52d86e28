//! Benchmark-side spans: the benchmark times each call it makes into a
//! layer's public function and records it as a span (name, start, end,
//! parent). Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `sched.order`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (`start_ns` until the span is closed).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// An in-memory span log. When disabled every call only runs its closure.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span (`None` when the log is disabled).
#[must_use = "close the span"]
pub struct Open(Option<usize>);

impl Spans {
    /// A log that records when `on`.
    pub fn new(on: bool) -> Spans {
        Spans { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close `open`, which must be the innermost open span. Returns its id.
    pub fn close(&mut self, open: Open) -> Option<usize> {
        let id = open.0?;
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
        Some(id)
    }

    /// Run `f` inside a span named `name`.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let r = f();
        self.close(open);
        r
    }

    /// Self time (duration minus the part covered by direct children) of
    /// every span in the subtree rooted at `root`, summed per name, in
    /// seconds.
    pub fn self_times_under(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            if self.is_under(id, root) {
                let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[id]);
                *out.entry(s.name).or_insert(0.0) += self_ns as f64 * 1e-9;
            }
        }
        out
    }

    /// Every span as a JSON array of `{name, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[{}]", rows.join(", "))
    }

    fn is_under(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        let root = s.open("root");
        s.leaf("child", || std::thread::sleep(std::time::Duration::from_millis(5)));
        let root = s.close(root).expect("recording");
        let st = s.self_times_under(root);
        let total = (s.spans[root].end_ns - s.spans[root].start_ns) as f64 * 1e-9;
        assert!(st["child"] >= 0.005);
        assert!((st["root"] + st["child"] - total).abs() < 1e-9);
        assert_eq!(s.spans[1].parent, Some(root));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut s = Spans::new(false);
        let v = s.leaf("x", || 7);
        assert_eq!(v, 7);
        assert!(s.spans.is_empty());
    }
}
