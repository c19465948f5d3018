//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around each public call it makes
//! into the program — never inside the program. Each span has a name, a
//! start and an end (nanoseconds since the run's epoch), the span that
//! caused it, and the request it belongs to. Spans stay in memory and are
//! written out as JSON lines when the run ends. With tracing off nothing is
//! recorded.

use ds_telemetry::Json;
use std::time::Instant;

/// Identifies a recorded span; `0` is "no span" (a root's parent).
pub type SpanId = u32;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call (for example `specialize` or `daemon.submit`).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The enclosing span, or 0.
    pub parent: SpanId,
    /// The request this call served, if any.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span log.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// `t` in nanoseconds since the tracer's epoch.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished call; returns its id (0 when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.record_ns(name, parent, request, start_ns, end_ns)
    }

    /// [`Tracer::record`] with times already in epoch nanoseconds.
    pub fn record_ns(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() as SpanId
    }

    /// Opens a span now; close it with [`Tracer::close`]. Children record
    /// the returned id as their parent.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, None, now, now)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let end = self.ns(Instant::now());
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, None, start, Instant::now());
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .collect()
    }

    /// Writes the spans as JSON lines (one object per span; `id` is the
    /// 1-based position, `parent` 0 for roots).
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::from(i as u64 + 1)),
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("parent", Json::from(u64::from(s.parent))),
                ("request", s.request.map_or(Json::Null, Json::from)),
            ]);
            writeln!(out, "{}", line.compact())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_round_trip() {
        let mut t = Tracer::new(true);
        let root = t.open("switch", 0);
        let v = t.time("specialize", root, || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, root);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.durations("specialize").len(), 1);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).expect("write spans");
        let text = std::fs::read_to_string(&path).expect("read spans");
        std::fs::remove_file(&path).expect("clean up");
        let second = ds_telemetry::parse(text.lines().nth(1).expect("two lines")).expect("json");
        assert_eq!(
            second.get("name").and_then(Json::as_str),
            Some("specialize")
        );
        assert_eq!(second.get("parent").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", 0);
        t.close(id);
        t.time("y", 0, || ());
        assert!(t.spans().is_empty());
    }
}
