//! Spans recorded around each call into a layer: name, start, end and
//! the span that caused it, kept in memory and written out when the
//! benchmark ends.

use crate::common::{Outcome, Params};
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// How far the traced run's top-level spans may stray from the untraced
/// wall time of the same work, as a share of the latter, before the
/// trace counts as unfaithful.
pub const TRACE_TOLERANCE: f64 = 0.25;

pub type SpanId = usize;

struct Span {
    name: String,
    parent: Option<SpanId>,
    start_us: f64,
    end_us: f64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn begin(&self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let start_us = self.now_us();
        let mut spans = self.spans.lock().expect("no span holder panics");
        spans.push(Span {
            name: name.into(),
            parent,
            start_us,
            end_us: f64::NAN,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: SpanId) {
        let end_us = self.now_us();
        self.spans.lock().expect("no span holder panics")[id].end_us = end_us;
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Total seconds of the spans whose name satisfies `pick`.
    pub fn seconds_where(&self, pick: impl Fn(&str) -> bool) -> f64 {
        let spans = self.spans.lock().expect("no span holder panics");
        spans
            .iter()
            .filter(|s| pick(&s.name))
            .map(|s| (s.end_us - s.start_us) / 1e6)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    }

    pub fn seconds(&self, name: &str) -> f64 {
        self.seconds_where(|n| n == name)
    }

    /// Total seconds of the direct children of the spans named `root`:
    /// the layer calls that make up each operation.
    pub fn child_seconds(&self, root: &str) -> f64 {
        let spans = self.spans.lock().expect("no span holder panics");
        spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| spans[p].name == root))
            .map(|s| (s.end_us - s.start_us) / 1e6)
            .sum()
    }

    /// Writes every span as one JSON array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("no span holder panics");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if id + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}{sep}",
                s.name, s.start_us, s.end_us
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Checks trace fidelity, records the overhead, and writes the spans.
pub fn finish(
    out: &mut Outcome,
    tracer: &Tracer,
    params: &Params,
    workload: &str,
    untraced_s: f64,
    traced_s: f64,
) -> Result<(), String> {
    let covered = tracer.child_seconds("op") / untraced_s;
    let overhead = traced_s / untraced_s - 1.0;
    out.set("trace.overhead", overhead);
    out.param("trace_coverage", format!("{covered:.4}"));
    out.param("trace_tolerance", TRACE_TOLERANCE);
    if (covered - 1.0).abs() > TRACE_TOLERANCE {
        eprintln!(
            "{workload}: top-level spans cover {covered:.3} of the untraced wall time \
             (tolerance {TRACE_TOLERANCE})"
        );
        out.checks_ok = false;
    }
    let path = params
        .work_dir
        .join(format!("trace-{workload}-{}.json", params.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.param("trace_file", path.display());
    Ok(())
}
