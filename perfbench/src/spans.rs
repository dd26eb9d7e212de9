//! In-memory span recorder for traced runs.
//!
//! Spans are recorded around the benchmark's own calls into each layer, kept
//! in memory, and written out once at the end as Chrome trace-event JSON
//! (the format Perfetto and `chrome://tracing` open), so spans emitted
//! inside the program later can merge into the same view.  A span's name is
//! `<layer>.<operation>`; its layer is the part before the first dot.
//!
//! A disabled recorder keeps nothing: [`Spans::span`] then only calls its
//! closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }
}

/// The layer of a `<layer>.<operation>` span name.
fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// A span recorder; see the module docs.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Spans {
    /// A recorder that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Open a span that encloses every span recorded until [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: nanos(now - self.origin),
            dur_ns: 0,
            parent: self.open.last().map(|&(i, _)| i),
        });
        self.open.push((self.spans.len() - 1, now));
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if let Some((i, start)) = self.open.pop() {
            self.spans[i].dur_ns = nanos(start.elapsed());
        }
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Number of spans recorded so far: a mark for [`Spans::self_seconds`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time in seconds — duration minus the time covered by child
    /// spans — summed per span name over the spans recorded since `mark`.
    pub fn self_seconds(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate().skip(mark) {
            let own = span.dur_ns.saturating_sub(child_ns[i]);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Self time per layer since `mark`, in seconds.
    pub fn layer_self_seconds(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, secs) in self.self_seconds(mark) {
            *out.entry(layer_of(name)).or_insert(0.0) += secs;
        }
        out
    }

    /// Every recorded span as a Chrome trace-event JSON document; `meta`
    /// goes into the document's `otherData`.
    pub fn chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1}}",
                span.name,
                span.layer(),
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(k), json_string(v));
        }
        out.push_str("}}\n");
        out
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut spans = Spans::new(true);
        spans.enter("bench.rep");
        spans.span("cache.open", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        spans.exit();
        let own = spans.self_seconds(0);
        assert!(own["cache.open"] >= 0.005);
        assert!(own["bench.rep"] < own["cache.open"]);
        assert_eq!(spans.spans[1].parent, Some(0));
        let doc = spans.chrome_json(&[("workload", "x\"y".to_string())]);
        assert!(doc.contains("\"cat\":\"cache\"") && doc.contains("x\\\"y"));

        let mut off = Spans::new(false);
        assert_eq!(off.span("cache.open", || 7), 7);
        assert_eq!(off.mark(), 0);
    }
}
