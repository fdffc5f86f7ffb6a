//! The benchmark's own spans: recorded around its calls into each layer,
//! held in memory, and written out as Chrome trace-event JSON at exit
//! (load it in Perfetto or `chrome://tracing`).

use crate::json::Json;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based, in opening order).
    pub id: u64,
    /// Layer or step name.
    pub name: &'static str,
    /// Seconds since the recorder started.
    pub start: f64,
    /// Seconds since the recorder started.
    pub end: f64,
    /// The enclosing span (0 = none).
    pub parent: u64,
    /// The request (manifest) the span served (0 = none).
    pub request: u64,
}

/// An in-memory span recorder. Spans nest through an explicit stack of
/// open spans, so a span's parent is whatever span was open around it.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    open: Vec<(u64, &'static str, f64, u64)>,
    next: u64,
    /// Closed spans, in closing order.
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            open: Vec::new(),
            next: 1,
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span for `request`.
    pub fn open(&mut self, name: &'static str, request: u64) {
        let id = self.next;
        self.next += 1;
        let start = self.now();
        self.open.push((id, name, start, request));
    }

    /// Close the innermost open span; returns its duration in seconds.
    pub fn close(&mut self) -> f64 {
        let end = self.now();
        let (id, name, start, request) = self.open.pop().expect("close without open span");
        let parent = self.open.last().map_or(0, |o| o.0);
        self.spans.push(Span {
            id,
            name,
            start,
            end,
            parent,
            request,
        });
        end - start
    }

    /// Run `f` inside a span; returns its value and duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        self.open(name, request);
        let v = f(self);
        (v, self.close())
    }

    /// Chrome trace-event JSON ("X" complete events, microseconds).
    pub fn chrome_trace(&self) -> String {
        let events: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start * 1e6)),
                    ("dur", Json::Num((s.end - s.start) * 1e6)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Int(s.id)),
                            ("parent", Json::Int(s.parent)),
                            ("request", Json::Int(s.request)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))]).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_their_parent() {
        let mut r = Recorder::default();
        let ((), outer) = r.time("service", 7, |r| {
            r.time("dispatch", 7, |_| ());
        });
        assert_eq!(r.spans.len(), 2);
        let (inner, outer_span) = (&r.spans[0], &r.spans[1]);
        assert_eq!(
            (inner.name, inner.parent, inner.request),
            ("dispatch", outer_span.id, 7)
        );
        assert_eq!(outer_span.parent, 0);
        assert!(outer >= inner.end - inner.start);
        assert!(r.chrome_trace().contains("\"name\":\"dispatch\""));
    }
}
