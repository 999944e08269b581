//! The benchmark's own spans: one per call into a layer's public entry
//! point, kept in memory and written out when the run ends.
//!
//! Spans are recorded from outside the simulator, around whole calls, so
//! a disabled tracer costs one branch per call and an enabled one two
//! clock reads per call.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer entry point, e.g. `sim.engine.run_pack`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one benchmark repetition.
    pub run: u32,
}

/// Records spans when enabled; otherwise only times the calls it wraps.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Starts a new repetition: later spans carry a fresh run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that encloses the spans recorded until [`Self::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` as one span and returns its result with its wall time in
    /// seconds (measured whether or not spans are recorded).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let t = Instant::now();
        let out = std::hint::black_box(f());
        let secs = t.elapsed().as_secs_f64();
        self.exit();
        (out, secs)
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "  {{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.run
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push(']');
        s
    }

    /// Seconds each span name spent in itself: its spans' durations minus
    /// the part their child spans cover.
    pub fn self_seconds(&self) -> std::collections::BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for sp in &self.spans {
            if let Some(p) = sp.parent {
                child_ns[p] += sp.end_ns - sp.start_ns;
            }
        }
        let mut out = std::collections::BTreeMap::new();
        for (sp, child) in self.spans.iter().zip(child_ns) {
            let own = (sp.end_ns - sp.start_ns).saturating_sub(child);
            *out.entry(sp.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }
}
