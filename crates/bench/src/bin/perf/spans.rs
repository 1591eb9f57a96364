//! Harness-side tracing: spans recorded in memory from the harness's own
//! call sites (nothing inside the program under test is stamped), plus
//! the samples and counts taken at the same boundaries. Written out only
//! when the run ends.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// "No parent" / "no request" marker in a [`Span`].
pub const NONE: u64 = u64::MAX;

/// One timed interval at a layer boundary. `parent` is the index of the
/// span that caused it; spans of one request share `request` (the ticket).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u64,
    pub request: u64,
}

/// Span, sample and count sink. Off, every method is a no-op, so the
/// untraced run pays one branch per call site.
pub struct Rec {
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
}

impl Rec {
    pub fn new(on: bool) -> Self {
        Rec {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span; returns its index (a `parent` for its children).
    pub fn span(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) -> u64 {
        if !self.on {
            return NONE;
        }
        let s =
            Span { name, layer, start_ns: self.ns(start), end_ns: self.ns(end), parent, request };
        self.spans.push(s);
        (self.spans.len() - 1) as u64
    }

    /// Reserve a span whose end is not known yet (a round, a request).
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        request: u64,
    ) -> u64 {
        self.span(name, layer, start, start, NONE, request)
    }

    /// Close a span opened with [`Rec::open`].
    pub fn close(&mut self, idx: u64, end: Instant) {
        if self.on && idx != NONE {
            let ns = self.ns(end);
            self.spans[idx as usize].end_ns = ns;
        }
    }

    /// Name the request a span belongs to once it is known (a send's
    /// ticket arrives with its grant).
    pub fn set_request(&mut self, idx: u64, request: u64) {
        if self.on && idx != NONE {
            self.spans[idx as usize].request = request;
        }
    }

    /// One observation of a distribution (`key` is a metric stem).
    pub fn sample(&mut self, key: &'static str, v: f64) {
        if self.on {
            self.samples.entry(key).or_default().push(v);
        }
    }

    /// Add to a running count.
    pub fn add(&mut self, key: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(key).or_default() += v;
        }
    }

    /// Keep the maximum seen.
    pub fn max(&mut self, key: &'static str, v: f64) {
        if self.on {
            let e = self.counts.entry(key).or_default();
            *e = e.max(v);
        }
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Nearest-rank percentile of a sample set (0 when nothing was seen).
    pub fn pct(&self, key: &str, p: f64) -> f64 {
        let xs = self.samples(key);
        if xs.is_empty() {
            0.0
        } else {
            stats::percentile(xs, p)
        }
    }

    pub fn mean(&self, key: &str) -> f64 {
        stats::mean(self.samples(key))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in ns: each span's duration minus the part of
    /// it its direct children cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.layer).or_default() +=
                s.end_ns.saturating_sub(s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: u64| if v == NONE { "null".to_string() } else { v.to_string() };
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Rec::new(true);
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let round = rec.open("round", "harness", at(0), NONE);
        rec.span("shard.submit", "shard", at(10), at(30), round, 7);
        rec.span("shard.tick", "shard", at(40), at(90), round, NONE);
        rec.close(round, at(100));
        let own = rec.self_time_by_layer();
        assert_eq!(own["shard"], 70_000);
        assert_eq!(own["harness"], 30_000, "100 us round minus 70 us of children");
        assert_eq!(rec.spans()[1].request, 7);
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut rec = Rec::new(false);
        let t = Instant::now();
        assert_eq!(rec.span("x", "y", t, t, NONE, NONE), NONE);
        rec.sample("k", 1.0);
        rec.add("c", 1.0);
        assert!(rec.spans().is_empty() && rec.samples("k").is_empty());
        assert_eq!(rec.count("c"), 0.0);
        assert_eq!(rec.pct("k", 0.5), 0.0);
    }

    #[test]
    fn spans_serialise_as_json_lines() {
        let mut rec = Rec::new(true);
        let t = Instant::now();
        let p = rec.open("round", "harness", t, NONE);
        rec.span("shard.tick", "shard", t, t + Duration::from_nanos(5), p, 3);
        let path = std::env::temp_dir().join(format!("perf-spans-{}.jsonl", std::process::id()));
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = crate::jsonio::parse(lines[1]).unwrap();
        assert_eq!(crate::jsonio::num(&v, "parent"), Some(0.0));
        assert_eq!(crate::jsonio::num(&v, "request"), Some(3.0));
        assert_eq!(
            crate::jsonio::get(&crate::jsonio::parse(lines[0]).unwrap(), "parent"),
            Some(&serde_json::Value::Null)
        );
    }
}
