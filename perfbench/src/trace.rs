//! In-memory spans around calls into the program's layers, written out as
//! JSONL and as Chrome trace-event JSON (opens in Perfetto) when the run
//! ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start: u64,
    pub end: u64,
    /// The unit (partition or row group) the call worked on.
    pub unit: Option<String>,
    /// Recording thread, for the trace viewer's lanes.
    pub lane: usize,
    /// True when the interval was laid out from a duration the program
    /// reported (`StageTimings`) rather than timed around a call.
    pub derived: bool,
}

impl Span {
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end - self.start)
    }
}

/// Span recorder for one thread.
pub struct Spans {
    origin: Instant,
    lane: usize,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant, lane: usize) -> Self {
        Spans { origin, lane, spans: Vec::new() }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn set_unit(&mut self, id: usize, unit: &str) {
        self.spans[id].unit = Some(unit.to_owned());
    }

    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>, unit: Option<&str>) -> usize {
        let start = self.now();
        self.push(name, parent, unit, start, start, false)
    }

    pub fn end(&mut self, id: usize) -> Duration {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end = now;
        span.duration()
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        unit: Option<&str>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.begin(name, parent, unit);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Records a span whose duration the program measured itself, laid out
    /// from `start`; returns where it ends.
    pub fn derived(
        &mut self,
        name: &str,
        parent: usize,
        unit: Option<&str>,
        start: u64,
        duration: Duration,
    ) -> u64 {
        let end = start + u64::try_from(duration.as_nanos()).expect("short span");
        self.push(name, Some(parent), unit, start, end, true);
        end
    }

    fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        unit: Option<&str>,
        start: u64,
        end: u64,
        derived: bool,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_owned(),
            start,
            end,
            unit: unit.map(str::to_owned),
            lane: self.lane,
            derived,
        });
        id
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Moves another recorder's spans in, renumbering ids and parents.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        for mut span in other.spans {
            span.id += base;
            span.parent = span.parent.map(|p| p + base);
            self.spans.push(span);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes `<stem>.spans.jsonl` (one span per line) and
    /// `<stem>.trace.json` (Chrome trace events).
    pub fn write(&self, dir: &Path, stem: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut jsonl = String::new();
        for s in &self.spans {
            let _ = writeln!(
                jsonl,
                "{{\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"unit\":{},\"lane\":{},\"derived\":{}}}",
                s.id,
                s.parent.map_or("null".into(), |p| p.to_string()),
                json_str(&s.name),
                s.start,
                s.end,
                s.unit.as_deref().map_or("null".into(), json_str),
                s.lane,
                s.derived
            );
        }
        write_file(&dir.join(format!("{stem}.spans.jsonl")), &jsonl)?;

        let mut chrome = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                chrome,
                "{}{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"unit\":{},\"derived\":{}}}}}",
                if i == 0 { "" } else { "," },
                json_str(&s.name),
                json_str(s.name.split('.').next().unwrap_or("")),
                s.lane,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.id,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.unit.as_deref().map_or("null".into(), json_str),
                s.derived
            );
        }
        chrome.push_str("]}\n");
        write_file(&dir.join(format!("{stem}.trace.json")), &chrome)
    }
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(text.as_bytes())?;
    out.flush()
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
