//! In-memory spans keyed by replicate and ticket, recorded around calls
//! into each layer's public functions and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The replicate the span was recorded in; tickets restart at 1 in
    /// each.
    pub replicate: usize,
    /// The ticket (or simulation repetition) the span belongs to.
    pub ticket: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    /// The replicate new spans belong to.
    pub replicate: usize,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            replicate: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as span `name` of `ticket`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, ticket: u64, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name, ticket);
        let out = f();
        self.end(idx);
        out
    }

    pub fn begin(&mut self, name: &'static str, ticket: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            replicate: self.replicate,
            ticket,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn end(&mut self, idx: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Record an already-measured interval (e.g. a request timed by the
    /// load generator from its due time).
    pub fn record(&mut self, name: &'static str, ticket: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            replicate: self.replicate,
            ticket,
            parent: None,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span named `name`.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Per ticket: the duration of the span named `outer` minus the
    /// time its direct children cover (its self time), in microseconds.
    pub fn self_micros(&self, outer: &str) -> Vec<f64> {
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == outer)
            .map(|(i, s)| {
                let own =
                    (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&i).copied().unwrap_or(0));
                own as f64 / 1e3
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"replicate\":{},\"ticket\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.replicate, s.ticket, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 7);
        t.span("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].ticket, 7);
        let own = t.self_micros("outer")[0];
        assert!(own < t.micros_of("outer")[0] - 1500.0);
    }
}
