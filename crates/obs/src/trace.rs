//! Chrome trace-event export for Perfetto.
//!
//! [`TraceCollector`] records two clock domains side by side:
//!
//! - **observation time** (process 1): per-resource busy intervals of the
//!   model under evaluation, on the tick axis (1 tick = 1 ns = 1 µs/1000
//!   in the trace), built from a finished drive's execution records
//!   ([`TraceCollector::add_records`]). Raw record intervals are merged
//!   at export with exactly the `ResourceTrace::from_records`
//!   construction, so the Perfetto tracks equal the post-hoc trace bit
//!   for bit — also on fast-forwarded scenarios, whose replayed records
//!   sit in the drive's record log like swept ones.
//! - **host time** (process 2): spans pushed by the driver via
//!   [`TraceCollector::push_span`], against the collector's own
//!   monotonic epoch.
//!
//! The export is the Chrome trace-event JSON array format
//! (`{"traceEvents": [...]}`), which Perfetto's UI opens directly. Its
//! event and document helpers also render the flight recorder's dump
//! ([`crate::flight`]), so both documents come from one exporter.

use std::time::Instant;

use evolve_des::Time;
use evolve_model::ExecRecord;

use crate::json::Json;
use crate::metrics::merge_intervals;

/// Observation-time process id in the exported trace.
const PID_OBSERVATION: u64 = 1;
/// Host-time process id in the exported trace.
const PID_HOST: u64 = 2;

/// One observation-time track: a `(lane, resource)` pair.
#[derive(Clone, Debug)]
struct Track {
    lane: u32,
    resource: usize,
    /// Raw `[start, end)` intervals in ticks, unmerged.
    raw: Vec<(u64, u64)>,
}

/// A host-time span pushed by the driver.
#[derive(Clone, Debug)]
struct HostSpan {
    name: String,
    start_us: f64,
    end_us: f64,
}

/// Collects execution records and host-time spans for Chrome-trace
/// export.
#[derive(Debug)]
pub struct TraceCollector {
    epoch: Instant,
    tracks: Vec<Track>,
    spans: Vec<HostSpan>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceCollector {
    /// A fresh collector; host timestamps count from now.
    pub fn new() -> Self {
        TraceCollector {
            epoch: Instant::now(),
            tracks: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Microseconds since the collector's epoch (for
    /// [`push_span`](TraceCollector::push_span) endpoints).
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Adds a named host-time span (e.g. "drive scenario 3").
    pub fn push_span(&mut self, name: impl Into<String>, start_us: f64, end_us: f64) {
        self.spans.push(HostSpan {
            name: name.into(),
            start_us,
            end_us: end_us.max(start_us),
        });
    }

    /// Adds a drive's execution records to lane `lane`'s observation-time
    /// tracks, one per resource (`lane` is `0` for a scalar drive).
    pub fn add_records(&mut self, lane: u32, records: &[ExecRecord]) {
        for r in records {
            self.track_slot(lane, r.resource.index())
                .raw
                .push((r.start.ticks(), r.end.ticks()));
        }
    }

    fn track_slot(&mut self, lane: u32, resource: usize) -> &mut Track {
        if let Some(i) = self
            .tracks
            .iter()
            .position(|t| t.lane == lane && t.resource == resource)
        {
            return &mut self.tracks[i];
        }
        self.tracks.push(Track {
            lane,
            resource,
            raw: Vec::new(),
        });
        self.tracks.last_mut().expect("just pushed")
    }

    /// The merged busy intervals of one `(lane, resource)` track —
    /// constructed exactly like `ResourceTrace::from_records`, so a
    /// conformance test can compare them field for field.
    pub fn merged_intervals(&self, lane: u32, resource: usize) -> Vec<(Time, Time)> {
        let Some(track) = self
            .tracks
            .iter()
            .find(|t| t.lane == lane && t.resource == resource)
        else {
            return Vec::new();
        };
        merge_raw(&track.raw)
            .into_iter()
            .map(|(s, e)| (Time::from_ticks(s), Time::from_ticks(e)))
            .collect()
    }

    /// Lanes and resources with at least one recorded interval.
    pub fn tracks(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.tracks.iter().map(|t| (t.lane, t.resource))
    }

    /// Folds another collector into this one: raw intervals merge by
    /// `(lane, resource)` track, spans concatenate. Both
    /// collectors must share a host-time base (created back to back, or
    /// spans pushed with endpoints from one collector's
    /// [`now_us`](TraceCollector::now_us)); the export is deterministic
    /// under any merge order because [`to_chrome_trace`] orders tracks
    /// and spans canonically.
    ///
    /// [`to_chrome_trace`]: TraceCollector::to_chrome_trace
    pub fn merge(&mut self, other: TraceCollector) {
        for track in other.tracks {
            self.track_slot(track.lane, track.resource)
                .raw
                .extend(track.raw);
        }
        self.spans.extend(other.spans);
    }

    /// Renders the Chrome trace-event document.
    ///
    /// The output is deterministic for a given set of recorded data
    /// regardless of insertion or [`merge`](TraceCollector::merge)
    /// order: tracks are ordered by `(lane, resource)` and host spans by
    /// `(start, end, name)`.
    pub fn to_chrome_trace(&self) -> Json {
        let mut events: Vec<Json> = Vec::new();
        events.push(metadata_event(
            "process_name",
            PID_OBSERVATION,
            0,
            "observation time (ticks as \u{00b5}s/1000)",
        ));
        events.push(metadata_event("process_name", PID_HOST, 0, "host time"));
        let mut track_order: Vec<&Track> = self.tracks.iter().collect();
        track_order.sort_by_key(|t| (t.lane, t.resource));
        for (tid, track) in track_order.iter().enumerate() {
            let tid = tid as u64 + 1;
            events.push(metadata_event(
                "thread_name",
                PID_OBSERVATION,
                tid,
                &format!("lane {} / resource {}", track.lane, track.resource),
            ));
            for (s, e) in merge_raw(&track.raw) {
                let (ts, dur) = (s as f64 / 1000.0, (e - s) as f64 / 1000.0);
                let busy = complete_event("busy", None, PID_OBSERVATION, tid, ts, dur, None);
                events.push(busy);
            }
        }
        events.push(metadata_event("thread_name", PID_HOST, 1, "engine"));
        let mut span_order: Vec<&HostSpan> = self.spans.iter().collect();
        span_order.sort_by(|a, b| {
            a.start_us
                .total_cmp(&b.start_us)
                .then(a.end_us.total_cmp(&b.end_us))
                .then_with(|| a.name.cmp(&b.name))
        });
        for span in span_order {
            let (ts, dur) = (span.start_us, span.end_us - span.start_us);
            events.push(complete_event(&span.name, None, PID_HOST, 1, ts, dur, None));
        }
        chrome_document(events)
    }
}

/// A metadata (`M`) event: `name` is `process_name` or `thread_name`,
/// `label` the name it gives.
pub(crate) fn metadata_event(name: &str, pid: u64, tid: u64, label: &str) -> Json {
    Json::object([
        ("name", Json::str(name)),
        ("ph", Json::str("M")),
        ("pid", Json::U64(pid)),
        ("tid", Json::U64(tid)),
        ("args", Json::object([("name", Json::str(label))])),
    ])
}

/// A complete (`X`) event: a span of `dur` µs starting at `ts` µs, with
/// an optional category and arguments.
pub(crate) fn complete_event(
    name: &str,
    cat: Option<&str>,
    pid: u64,
    tid: u64,
    ts: f64,
    dur: f64,
    args: Option<Json>,
) -> Json {
    let mut fields = vec![("name", Json::str(name))];
    fields.extend(cat.map(|cat| ("cat", Json::str(cat))));
    fields.extend([
        ("ph", Json::str("X")),
        ("pid", Json::U64(pid)),
        ("tid", Json::U64(tid)),
        ("ts", Json::F64(ts)),
        ("dur", Json::F64(dur)),
    ]);
    fields.extend(args.map(|args| ("args", args)));
    Json::object(fields)
}

/// The Chrome trace-event document holding `events`.
pub(crate) fn chrome_document(events: Vec<Json>) -> Json {
    Json::object([
        ("traceEvents", Json::Array(events)),
        ("displayTimeUnit", Json::str("ns")),
    ])
}

/// Sort-and-merge of raw spans, dropping zero-width ones — byte-for-byte
/// the `ResourceTrace::from_records` interval construction.
fn merge_raw(raw: &[(u64, u64)]) -> Vec<(u64, u64)> {
    merge_intervals(raw.iter().copied().filter(|(s, e)| s < e).collect())
}

#[cfg(test)]
mod tests {
    use evolve_model::{FunctionId, ResourceId, ResourceTrace};

    use super::*;

    fn rec(resource: usize, start: u64, end: u64) -> ExecRecord {
        ExecRecord {
            resource: ResourceId::from_index(resource),
            function: FunctionId::from_index(0),
            stmt: 0,
            k: 0,
            start: Time::from_ticks(start),
            end: Time::from_ticks(end),
            ops: 1,
        }
    }

    #[test]
    fn merged_intervals_match_resource_trace() {
        let records = [
            rec(0, 20, 30),
            rec(0, 0, 10),
            rec(0, 5, 15),
            rec(0, 7, 7), // zero-width: dropped by both constructions
        ];
        let mut collector = TraceCollector::new();
        collector.add_records(0, &records);
        let trace = ResourceTrace::from_records(&records, ResourceId::from_index(0));
        assert_eq!(collector.merged_intervals(0, 0), trace.intervals);
        assert!(collector.merged_intervals(0, 9).is_empty());
    }

    #[test]
    fn chrome_trace_document_shape() {
        let mut collector = TraceCollector::new();
        collector.add_records(0, &[rec(1, 1000, 3000)]);
        let start = collector.now_us();
        collector.push_span("drive", start, start + 5.0);
        let doc = collector.to_chrome_trace().render();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"dur\":2")); // 2000 ticks = 2 µs
        assert!(doc.contains("lane 0 / resource 1"));
        assert!(doc.contains("\"name\":\"drive\""));
    }

    #[test]
    fn merged_shards_export_deterministically_in_either_order() {
        // Two "shard" collectors with interleaved spans and
        // overlapping (lane, resource) tracks: merging a⟵b and b⟵a must
        // render byte-identical documents.
        let build = |flip: bool| {
            let mut a = TraceCollector::new();
            let mut b = TraceCollector::new();
            a.push_span("dispatch batch 1", 10.0, 30.0);
            b.push_span("dispatch batch 2", 5.0, 12.0);
            a.push_span("dispatch batch 3", 5.0, 9.0);
            b.push_span("drain", 10.0, 30.0); // same interval as batch 1
            a.add_records(0, &[rec(0, 0, 10), rec(1, 4, 6)]);
            b.add_records(0, &[rec(0, 8, 20)]);
            b.add_records(2, &[rec(0, 0, 5)]);
            if flip {
                b.merge(a);
                b
            } else {
                a.merge(b);
                a
            }
        };
        let forward = build(false).to_chrome_trace().render();
        let backward = build(true).to_chrome_trace().render();
        assert_eq!(forward, backward);
        // Merged overlapping track intervals still coalesce.
        assert!(forward.contains("\"dur\":0.02")); // [0,20) ticks on (0,0)
    }

    #[test]
    fn push_span_order_does_not_leak_into_export() {
        let mut a = TraceCollector::new();
        a.push_span("later", 100.0, 110.0);
        a.push_span("earlier", 1.0, 2.0);
        let mut b = TraceCollector::new();
        b.push_span("earlier", 1.0, 2.0);
        b.push_span("later", 100.0, 110.0);
        assert_eq!(
            a.to_chrome_trace().render(),
            b.to_chrome_trace().render()
        );
        let doc = a.to_chrome_trace().render();
        let earlier = doc.find("earlier").expect("earlier span");
        let later = doc.find("later").expect("later span");
        assert!(earlier < later, "spans must export in start order");
    }

    #[test]
    fn lanes_get_separate_tracks() {
        let mut collector = TraceCollector::new();
        collector.add_records(0, &[rec(0, 0, 10)]);
        collector.add_records(1, &[rec(0, 0, 20)]);
        assert_eq!(collector.tracks().count(), 2);
        assert_eq!(
            collector.merged_intervals(1, 0),
            vec![(Time::ZERO, Time::from_ticks(20))]
        );
    }
}
