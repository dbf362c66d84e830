//! In-memory spans of the traced run, written out as Chrome trace-event
//! JSON when the run ends (open the file in Perfetto or `chrome://tracing`).
//!
//! Spans are recorded from the benchmark's own code, around the facade
//! calls and the replays; nothing inside the program is instrumented.

use crate::push_str;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran. Static names keep span recording allocation-free.
    pub name: Cow<'static, str>,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one run.
    pub run: u32,
    /// Display track: spans replayed after the fact sit on their own track
    /// so they do not overlap the facade calls they attribute.
    pub track: u32,
    /// Extra numbers shown with the span.
    pub args: Vec<(String, f64)>,
}

impl Span {
    /// Duration, seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// The span log of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Names of the display tracks, by track number.
pub const TRACKS: [&str; 3] = ["facade calls", "report-phase replay", "layer replay"];

impl SpanLog {
    /// An empty log for run `run`, with room for `capacity` spans so that
    /// recording does not allocate while the counting allocator watches.
    pub fn new(run: u32, capacity: usize) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            run,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span on `track` as a child of the innermost open span.
    pub fn open(&mut self, name: impl Into<Cow<'static, str>>, track: u32) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
            track,
            args: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Opens a span with an explicit parent, for work that attributes an
    /// earlier span's cost (it is still closed by [`close`](Self::close)).
    pub fn open_under(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        track: u32,
        parent: usize,
    ) -> usize {
        let id = self.open(name, track);
        self.spans[id].parent = Some(parent);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Attaches a number to span `id`.
    pub fn arg(&mut self, id: usize, key: &str, value: f64) {
        self.spans[id].args.push((key.to_string(), value));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as Chrome trace-event JSON: one complete (`X`) event per
    /// span, timestamps in microseconds, parent and run id in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (tid, name) in TRACKS.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {tid}, \"args\": {{\"name\": \"{name}\"}}}},"
            );
        }
        for (id, span) in self.spans.iter().enumerate() {
            out.push_str("{\"ph\": \"X\", \"cat\": \"perfbench\", \"name\": ");
            push_str(&mut out, &span.name);
            let _ = write!(
                out,
                ", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"run\": {}",
                span.track,
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
                span.run,
            );
            match span.parent {
                Some(parent) => {
                    let _ = write!(out, ", \"parent\": {parent}");
                }
                None => out.push_str(", \"parent\": null"),
            }
            for (key, value) in &span.args {
                out.push_str(", ");
                push_str(&mut out, key);
                if value.is_finite() {
                    let _ = write!(out, ": {value}");
                } else {
                    out.push_str(": null");
                }
            }
            out.push_str("}}");
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}
