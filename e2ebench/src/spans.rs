//! Harness-owned spans: the benchmark's own record of when it entered and
//! left each engine crate.
//!
//! The engine's `mjoin-trace` spans cover operators and the executor but no
//! span says "this is TSV loading" or "this is Algorithm 1+2", so the replay
//! wraps every call it makes into a crate in one of these. A span has a
//! name (`layer.step`), a start, an end and the span that was open when it
//! began; all of them stay in memory until the replay ends, then go out as
//! Chrome trace JSON and as per-name totals.

use std::fmt::Write as _;
use std::time::Instant;

struct SpanRec {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// Open-span handle returned by [`Recorder::begin`].
#[must_use = "end the span with Recorder::end"]
pub struct SpanId(usize);

/// In-memory span log for one replay process.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under whichever span is innermost right now.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(SpanRec {
            name,
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span; returns its duration in milliseconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.now_us();
        let popped = self.open.pop();
        assert_eq!(popped, Some(id.0), "spans must close innermost-first");
        let s = &mut self.spans[id.0];
        s.end_us = now;
        (s.end_us - s.start_us) / 1e3
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// `(name, total milliseconds, count)` per span name, in first-seen order.
    pub fn totals(&self) -> Vec<(&'static str, f64, u64)> {
        let mut out: Vec<(&'static str, f64, u64)> = Vec::new();
        for s in &self.spans {
            let ms = (s.end_us - s.start_us) / 1e3;
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(slot) => {
                    slot.1 += ms;
                    slot.2 += 1;
                }
                None => out.push((s.name, ms, 1)),
            }
        }
        out
    }

    /// Chrome trace format ("JSON Array with metadata"), one complete event
    /// per span; the parent's index rides along in `args` because the viewer
    /// infers nesting from timestamps and a reader of the file should not
    /// have to.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                layer,
                s.start_us,
                s.end_us - s.start_us,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut r = Recorder::new();
        let root = r.begin("cli.op");
        r.time("relation.load", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.end(root);
        let totals = r.totals();
        assert_eq!(totals[0].0, "cli.op");
        assert_eq!(totals[1].0, "relation.load");
        assert!(totals[0].1 >= totals[1].1);
        let json = r.to_chrome_json();
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"parent\":null"));
    }
}
