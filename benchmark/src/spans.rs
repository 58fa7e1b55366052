//! Spans recorded from the benchmark's own files, around its calls into
//! the layers.
//!
//! A span is a name (the layer's module path plus the call), a start and
//! an end on one monotonic clock, the span that was open when it started,
//! the workload and the rep. Spans are kept in memory and written as JSON
//! lines when the run ends. Calls too short to time one by one (`poll()`,
//! codec loops) are recorded one span per sweep or batch, with a count.
//! With tracing off every method is one branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; [`NO_SPAN`] when tracing is off.
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The enclosing span, [`NO_SPAN`] for a rep's root.
    pub parent: SpanId,
    /// Library calls the span covers (1 unless it stands for a batch).
    pub count: u64,
    pub workload: &'static str,
    pub rep: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    workload: &'static str,
    rep: u32,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer::new(false)
    }

    pub fn on() -> Self {
        Tracer::new(true)
    }

    fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: "",
            rep: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Label the spans that follow. Reps of one workload are numbered by
    /// the caller.
    pub fn set_rep(&mut self, workload: &'static str, rep: u32) {
        self.workload = workload;
        self.rep = rep;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_SPAN),
            count: 1,
            workload: self.workload,
            rep: self.rep,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: SpanId) {
        self.exit_counted(id, 1);
    }

    /// Close a span that stands for `count` library calls.
    pub fn exit_counted(&mut self, id: SpanId, count: u64) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        span.count = count;
    }

    /// A span around one call that needs no tracer inside it.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per rep of `workload`, in rep order: total seconds by span name.
    pub fn seconds_by_name(&self, workload: &str) -> Vec<BTreeMap<&'static str, f64>> {
        let mut reps: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.workload == workload) {
            *reps.entry(s.rep).or_default().entry(s.name).or_default() += s.seconds();
        }
        reps.into_values().collect()
    }

    /// Per rep of `workload`, in rep order: Σ self time of the layer spans ÷
    /// the rep's wall time. The root span and the `setup` and `work`
    /// spans that group a rep's sections, and the benchmark's own work
    /// (`bench.*`), are not layer spans: their self time is the time the
    /// rep spent outside any call into a layer.
    pub fn coverage(&self, workload: &str) -> Vec<f64> {
        let own = self.self_ns();
        // rep -> (wall ns, layer self ns)
        let mut reps: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(own) {
            if s.workload != workload {
                continue;
            }
            let rep = reps.entry(s.rep).or_default();
            if s.parent == NO_SPAN {
                rep.0 += s.end_ns - s.start_ns;
            } else if !matches!(s.name, "setup" | "work") && !s.name.starts_with("bench.") {
                rep.1 += own_ns;
            }
        }
        reps.into_values()
            .map(|(wall, layers)| layers as f64 / wall.max(1) as f64)
            .collect()
    }

    /// Self time (duration minus children) of every span, by index.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_SPAN {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{}\",\"rep\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"count\":{}}}",
                s.name, s.workload, s.rep, s.start_ns, s.end_ns, own[id], s.count
            )?;
        }
        out.flush()
    }
}
