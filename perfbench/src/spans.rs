//! Outside-in spans for the traced run.
//!
//! The benchmark records a span around each of its own calls into a
//! layer's public functions: name (`<layer>.<call>`), start, end, parent,
//! and the request id that every span of one served request shares. Spans
//! stay in memory and are written once, at the end, through the
//! `evolve_obs` Chrome-trace exporter ([`TraceCollector`]), with the span,
//! parent and request ids attached as event args.

use std::collections::BTreeMap;
use std::time::Instant;

use evolve_obs::{Json, TraceCollector};

/// Handle of a recorded span; [`SpanId::NONE`] when nothing was recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// No span: the parent of a root span, and the handle returned while
    /// recording is off.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    req: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    traced: bool,
    paused: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only in the traced run.
    pub fn new(traced: bool) -> Self {
        Tracer {
            traced,
            paused: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Suspends recording, for the traced run's untraced comparison passes.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    fn recording(&self) -> bool {
        self.traced && !self.paused
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        self.begin_at(name, parent, req, Instant::now())
    }

    /// Opens a span that started at `start` (a request timed from when it
    /// was due).
    pub fn begin_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
    ) -> SpanId {
        if !self.recording() {
            return SpanId::NONE;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span now.
    pub fn end(&mut self, id: SpanId) {
        self.end_at(id, Instant::now());
    }

    /// Closes a span at `end`.
    pub fn end_at(&mut self, id: SpanId, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(span) = self.spans.get_mut(id.0) {
            span.end_ns = end_ns.max(span.start_ns);
        }
    }

    /// Runs `f` inside a root span and returns its result.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, SpanId::NONE, 0);
        let out = f();
        self.end(id);
        out
    }

    /// Self time per layer, ms: each span's duration minus the part its
    /// children cover, summed by the `<layer>` prefix of its name.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = covered.get_mut(span.parent.0) {
                *parent += span.end_ns - span.start_ns;
            }
        }
        let mut layers = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *layers.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        layers
    }

    /// Writes every span as a Chrome trace (open it in Perfetto) and
    /// returns the span count.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_chrome_trace(&self, path: &str) -> std::io::Result<usize> {
        let us = |ns: u64| ns as f64 / 1e3;
        let mut collector = TraceCollector::new();
        for span in &self.spans {
            collector.push_span(span.name, us(span.start_ns), us(span.end_ns));
        }
        let mut doc = collector.to_chrome_trace();

        // Overlapping root spans (requests in flight together) go to
        // separate thread tracks; children share their root's track.
        let mut track = vec![0usize; self.spans.len()];
        let mut roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent == SpanId::NONE)
            .collect();
        roots.sort_by_key(|&i| self.spans[i].start_ns);
        let mut track_end: Vec<u64> = Vec::new();
        for i in roots {
            let span = &self.spans[i];
            let t = match track_end.iter().position(|&end| end <= span.start_ns) {
                Some(t) => t,
                None => {
                    track_end.push(0);
                    track_end.len() - 1
                }
            };
            track_end[t] = span.end_ns;
            track[i] = t;
        }
        for i in 0..self.spans.len() {
            if let Some(&t) = track.get(self.spans[i].parent.0) {
                track[i] = t;
            }
        }

        // The exporter emits host spans sorted by (start, end, name); walk
        // ours in that order to attach the ids it has no field for.
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by(|&a, &b| {
            let (x, y) = (&self.spans[a], &self.spans[b]);
            us(x.start_ns)
                .total_cmp(&us(y.start_ns))
                .then(us(x.end_ns).total_cmp(&us(y.end_ns)))
                .then_with(|| x.name.cmp(y.name))
        });
        if let Json::Object(fields) = &mut doc {
            if let Some((_, Json::Array(events))) =
                fields.iter_mut().find(|(k, _)| k == "traceEvents")
            {
                let mut next = order.iter();
                for event in events.iter_mut() {
                    let Json::Object(kv) = event else { continue };
                    let host_span = kv.contains(&("ph".to_string(), Json::str("X")))
                        && kv.contains(&("pid".to_string(), Json::U64(2)));
                    if !host_span {
                        continue;
                    }
                    let Some(&i) = next.next() else { break };
                    let span = &self.spans[i];
                    for (key, value) in kv.iter_mut() {
                        if key == "tid" {
                            *value = Json::U64(track[i] as u64 + 1);
                        }
                    }
                    let parent = if span.parent == SpanId::NONE {
                        Json::Null
                    } else {
                        Json::U64(span.parent.0 as u64)
                    };
                    kv.push((
                        "args".to_string(),
                        Json::object([
                            ("span", Json::U64(i as u64)),
                            ("parent", parent),
                            ("req", Json::U64(span.req)),
                        ]),
                    ));
                }
                for t in 1..track_end.len() {
                    events.push(Json::object([
                        ("name", Json::str("thread_name")),
                        ("ph", Json::str("M")),
                        ("pid", Json::U64(2)),
                        ("tid", Json::U64(t as u64 + 1)),
                        (
                            "args",
                            Json::object([("name", Json::str(format!("track {t}")))]),
                        ),
                    ]));
                }
            }
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())?;
        Ok(self.spans.len())
    }
}
