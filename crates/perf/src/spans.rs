//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files, *around* the calls into
//! each layer; the program itself carries no tracing for the benchmark.
//! Each span is `{name, start, end, parent, op_id}` plus the deltas of the
//! public `qt_telemetry` counters read at the same boundaries, kept in
//! memory and written as JSON when the run ends.

use qt_telemetry::counters;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span inside its [`Recorder`].
pub type SpanId = usize;

/// Process-wide telemetry counters read at a span boundary. Under
/// concurrency (the service's two workers) a delta covers everything the
/// process did during the span, not only the span's own work.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    pub flops: u64,
    pub bytes: u64,
    pub boundary_misses: u64,
    pub ws_fresh: u64,
}

impl Counts {
    pub fn now() -> Counts {
        Counts {
            flops: counters::total_flops(),
            bytes: counters::total_bytes(),
            boundary_misses: counters::total_boundary_misses(),
            ws_fresh: counters::total_ws_fresh(),
        }
    }

    pub fn since(self, start: Counts) -> Counts {
        Counts {
            flops: self.flops - start.flops,
            bytes: self.bytes - start.bytes,
            boundary_misses: self.boundary_misses - start.boundary_misses,
            ws_fresh: self.ws_fresh - start.ws_fresh,
        }
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one operation (one replayed solve, one request) share it.
    pub op_id: u64,
    pub counts: Counts,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Recorder {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Run `f` inside a new span; `f` receives the span's id to parent its
    /// own children on.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let c0 = Counts::now();
        let start = self.t0.elapsed().as_secs_f64();
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start,
                end: start,
                parent,
                op_id,
                counts: Counts::default(),
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.t0.elapsed().as_secs_f64();
        let counts = Counts::now().since(c0);
        let mut spans = self.lock();
        spans[id].end = end;
        spans[id].counts = counts;
        out
    }

    /// A leaf span around one call into a layer.
    pub fn leaf<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.scope(name, Some(parent), op_id, |_| f())
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Write `{"workload": .., "spans": [..]}` and return the span count;
    /// see the crate README for how to read the file.
    pub fn write_json(&self, workload: &str, path: &Path) -> Result<usize, String> {
        let spans = self.snapshot();
        let self_s = self_times(&spans);
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"self\": {}, \
                 \"parent\": {parent}, \"op_id\": {}, \"flops\": {}, \"bytes\": {}, \
                 \"boundary_misses\": {}, \"ws_fresh\": {}}}{sep}",
                s.name,
                s.start,
                s.end,
                self_s[i],
                s.op_id,
                s.counts.flops,
                s.counts.bytes,
                s.counts.boundary_misses,
                s.counts.ws_fresh,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        std::fs::write(path, out).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        Ok(spans.len())
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Durations of every span called `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op_id: 0,
            counts: Counts::default(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tree = vec![
            span("iter", 0.0, 10.0, None),
            span("gf", 1.0, 4.0, Some(0)),
            span("sse", 4.0, 9.0, Some(0)),
            // A grandchild belongs to `sse`, not to `iter`.
            span("sigma", 5.0, 7.0, Some(2)),
            // Overlapping siblings (concurrent requests) count once.
            span("a", 20.0, 30.0, None),
            span("a1", 21.0, 25.0, Some(4)),
            span("a2", 23.0, 28.0, Some(4)),
        ];
        let own = self_times(&tree);
        assert_eq!(own[0], 2.0); // 10 - (3 + 5)
        assert_eq!(own[1], 3.0);
        assert_eq!(own[2], 3.0); // 5 - 2
        assert_eq!(own[3], 2.0);
        assert_eq!(own[4], 3.0); // 10 - |[21, 28]|

        // Child self-times plus the parent's self time give the parent span.
        assert_eq!(own[0] + own[1] + own[2] + own[3], tree[0].duration());
    }

    #[test]
    fn recorder_nests_and_writes_parseable_json() {
        let rec = Recorder::new();
        let got = rec.scope("op", None, 7, |op| rec.leaf("child", op, 7, || 41) + 1);
        assert_eq!(got, 42);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op_id, 7);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(durations(&spans, "child").len(), 1);

        let path = crate::host::out_dir()
            .unwrap()
            .join("recorder-test.spans.json");
        rec.write_json("unit", &path).unwrap();
        let doc = qt_telemetry::json::Json::parse(&std::fs::read_to_string(&path).unwrap())
            .expect("span file is valid JSON");
        let arr = doc.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        std::fs::remove_file(path).unwrap();
    }
}
