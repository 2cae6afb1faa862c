//! An always-on host-time flight recorder for the serving and partition
//! layers.
//!
//! [`FlightRecorder`] keeps the last N lifecycle spans per *track* (one
//! track per serve shard, one per partition worker) in bounded,
//! lock-free ring buffers, so a live daemon can answer "where did this
//! request's time go?" at any moment without ever blocking the hot path:
//!
//! - writers are wait-free: each track has exactly **one writer thread**
//!   (the shard loop, or one scoped partition worker), which publishes a
//!   span with plain atomic stores guarded by a per-slot sequence word;
//! - readers (a `Dump` protocol request, a SIGUSR1 handler, shutdown)
//!   walk the rings concurrently and *discard* any slot whose sequence
//!   word changed underneath them — the oldest spans are evicted by
//!   wrap-around, never torn;
//! - every recorded span also feeds a per-[`Phase`] [`LogHistogram`], so
//!   the same subsystem powers the `evolve_serve_phase_seconds`
//!   Prometheus families and p50/p95/p99 JSON summaries.
//!
//! The sequence protocol: slot `seq` is `2·(ticket+1)` once ticket
//! `ticket`'s span is fully published and `2·ticket+1` (odd) while it is
//! being written. Tickets are monotone per track, so a stable slot value
//! uniquely identifies *which* span occupies the slot — a reader accepts
//! a slot only when both sequence reads around the field loads equal the
//! expected even value for that ticket. All accesses are plain atomics
//! (this crate forbids `unsafe`); a lost span under extreme wrap pressure
//! degrades the diagnostic trace, never the evaluation.
//!
//! The export is Chrome trace-event JSON (process id 3, one thread per
//! track), loadable in Perfetto next to the observation-time and
//! host-time tracks of [`TraceCollector`](crate::TraceCollector).

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{LogHistogram, PhaseSnapshot};
use crate::trace::{chrome_document, complete_event, metadata_event};

/// Flight-recorder process id in the exported Chrome trace (the
/// `TraceCollector` uses 1 for observation time and 2 for host time).
const PID_FLIGHT: u64 = 3;

/// Words per ring slot: sequence, correlation id, start, duration,
/// packed phase/label, argument.
const SLOT_WORDS: usize = 6;

/// Cap on interned labels: lookup is a linear scan under a lock, and
/// hostile clients can mint label strings (named-model ids), so the
/// table must stay small and bounded.
pub const MAX_LABELS: usize = 1024;

/// A request-lifecycle (or partition-sweep) phase.
///
/// The first six phases are the serving pipeline a request traverses in
/// order; the last is emitted by the partitioned intra-graph sweep's
/// workers, so barrier stalls show up as gaps per worker and per level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Wire-frame decode on the connection reader thread.
    Decode = 0,
    /// Admission to shard-queue dequeue.
    QueueWait = 1,
    /// Affinity-group formation: first lane parked to batch dispatch.
    BatchForm = 2,
    /// Engine evaluation (batched or scalar drive).
    Eval = 3,
    /// Response encoding.
    Encode = 4,
    /// Response frame write on the client socket.
    Write = 5,
    /// One per-worker, per-level partition sweep.
    Sweep = 6,
}

/// Number of phases (and per-phase histograms).
pub const PHASE_COUNT: usize = 7;

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Decode,
        Phase::QueueWait,
        Phase::BatchForm,
        Phase::Eval,
        Phase::Encode,
        Phase::Write,
        Phase::Sweep,
    ];

    /// Stable lowercase name, used as the Prometheus `phase` label and
    /// the Chrome-trace span name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Decode => "decode",
            Phase::QueueWait => "queue_wait",
            Phase::BatchForm => "batch_form",
            Phase::Eval => "eval",
            Phase::Encode => "encode",
            Phase::Write => "write",
            Phase::Sweep => "sweep",
        }
    }

    fn from_u8(v: u8) -> Option<Phase> {
        Phase::ALL.get(v as usize).copied()
    }
}

/// Handle to one recorder track. Obtained from
/// [`FlightRecorder::register_track`]; the invalid sentinel (returned
/// when the track table is full) makes every record a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackId(u16);

impl TrackId {
    /// A handle that records nothing.
    pub const INVALID: TrackId = TrackId(u16::MAX);

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One readable span, as recovered from a ring by a dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightSpan {
    /// Track the span was recorded on.
    pub track: u16,
    /// Lifecycle phase.
    pub phase: Phase,
    /// Server-assigned correlation id (0 when not request-scoped).
    pub corr: u64,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Interned label id (0 = none); see [`FlightRecorder::intern`].
    pub label: u32,
    /// Phase-specific argument (lane count, level index, …).
    pub arg: u64,
}

/// One track's ring: a monotone ticket counter plus `capacity` slots of
/// [`SLOT_WORDS`] atomics each.
#[derive(Debug)]
struct Ring {
    head: AtomicU64,
    slots: Box<[AtomicU64]>,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            head: AtomicU64::new(0),
            slots: (0..capacity * SLOT_WORDS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// The bounded, per-track ring-buffer span recorder. See the module docs
/// for the concurrency contract.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    /// Slots per track; always a power of two.
    capacity: usize,
    rings: Box<[Ring]>,
    /// Registered track names; `names.len()` is the registration cursor.
    names: Mutex<Vec<String>>,
    /// Interned span labels (ModelSpec families); id 0 is "no label".
    labels: Mutex<Vec<String>>,
    /// Per-phase duration histograms (nanoseconds), fed on every record.
    phases: [PhaseHistogram; PHASE_COUNT],
}

impl FlightRecorder {
    /// A recorder with room for `max_tracks` tracks of
    /// `capacity_per_track` spans each (rounded up to a power of two,
    /// minimum 8). Memory is bounded at construction:
    /// `max_tracks × capacity × 48` bytes.
    pub fn new(max_tracks: usize, capacity_per_track: usize) -> FlightRecorder {
        let capacity = capacity_per_track.clamp(8, 1 << 20).next_power_of_two();
        FlightRecorder {
            epoch: Instant::now(),
            capacity,
            rings: (0..max_tracks.max(1)).map(|_| Ring::new(capacity)).collect(),
            names: Mutex::new(Vec::new()),
            labels: Mutex::new(Vec::new()),
            phases: std::array::from_fn(|_| PhaseHistogram::new()),
        }
    }

    /// Spans each track can hold before wrap-around eviction.
    pub fn capacity_per_track(&self) -> usize {
        self.capacity
    }

    /// Nanoseconds since the recorder's epoch — the time base for span
    /// endpoints.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Registers a named track (e.g. `"shard-0"`, `"shard-0/worker-1"`)
    /// and returns its handle. At most one thread may record on a track
    /// at a time. Returns [`TrackId::INVALID`] (a no-op handle) when the
    /// table is full.
    pub fn register_track(&self, name: &str) -> TrackId {
        let mut names = self.names.lock().expect("flight track registry");
        if names.len() >= self.rings.len() || names.len() >= usize::from(u16::MAX) {
            return TrackId::INVALID;
        }
        names.push(name.to_string());
        TrackId((names.len() - 1) as u16)
    }

    /// Interns a span label (a ModelSpec family name) and returns its
    /// id for [`record`](FlightRecorder::record). Takes a lock — cache
    /// the id rather than interning per span. The table is capped at
    /// [`MAX_LABELS`] entries (client-supplied names reach this path);
    /// past the cap new labels collapse to 0 ("no label").
    pub fn intern(&self, label: &str) -> u32 {
        let mut labels = self.labels.lock().expect("flight label table");
        if let Some(i) = labels.iter().position(|l| l == label) {
            return (i + 1) as u32;
        }
        if labels.len() >= MAX_LABELS {
            return 0;
        }
        labels.push(label.to_string());
        labels.len() as u32
    }

    /// Records one span on `track`. Wait-free; must only be called from
    /// the single thread that owns the track. A span on
    /// [`TrackId::INVALID`] is dropped (its duration still feeds the
    /// phase histogram).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        track: TrackId,
        phase: Phase,
        corr: u64,
        start_ns: u64,
        end_ns: u64,
        label: u32,
        arg: u64,
    ) {
        let dur_ns = end_ns.saturating_sub(start_ns);
        self.phases[phase as usize].record(dur_ns);
        let Some(ring) = self.rings.get(track.index()) else {
            return;
        };
        let ticket = ring.head.load(Ordering::Relaxed);
        let base = (ticket as usize & (self.capacity - 1)) * SLOT_WORDS;
        // Odd sequence: slot in flight. Readers racing with this write
        // see the odd value (or a mismatched even one) and skip the slot.
        // The release fence orders the odd store before the payload
        // stores: a reader that sees any new payload word then sees the
        // odd (or a later) sequence on its re-check (Boehm, MSPC 2012).
        ring.slots[base].store(ticket.wrapping_mul(2) + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        ring.slots[base + 1].store(corr, Ordering::Relaxed);
        ring.slots[base + 2].store(start_ns, Ordering::Relaxed);
        ring.slots[base + 3].store(dur_ns, Ordering::Relaxed);
        ring.slots[base + 4].store(u64::from(label) << 8 | phase as u64, Ordering::Relaxed);
        ring.slots[base + 5].store(arg, Ordering::Relaxed);
        // Even sequence unique to this ticket: slot published.
        ring.slots[base].store(ticket.wrapping_add(1).wrapping_mul(2), Ordering::Release);
        ring.head.store(ticket.wrapping_add(1), Ordering::Release);
    }

    /// Snapshot of every readable span, oldest first per track. Safe to
    /// call while writers are recording: slots overwritten mid-read fail
    /// their sequence check and are dropped (eviction, not tearing).
    pub fn spans(&self) -> Vec<FlightSpan> {
        let mut out = Vec::new();
        for (track, ring) in self.rings.iter().enumerate() {
            let head = ring.head.load(Ordering::Acquire);
            let lo = head.saturating_sub(self.capacity as u64);
            for ticket in lo..head {
                let base = (ticket as usize & (self.capacity - 1)) * SLOT_WORDS;
                let expected = ticket.wrapping_add(1).wrapping_mul(2);
                if ring.slots[base].load(Ordering::Acquire) != expected {
                    continue;
                }
                let corr = ring.slots[base + 1].load(Ordering::Relaxed);
                let start_ns = ring.slots[base + 2].load(Ordering::Relaxed);
                let dur_ns = ring.slots[base + 3].load(Ordering::Relaxed);
                let meta = ring.slots[base + 4].load(Ordering::Relaxed);
                let arg = ring.slots[base + 5].load(Ordering::Relaxed);
                // Pairs with the writer's release fence: the payload loads
                // above happen before the sequence re-check below.
                fence(Ordering::Acquire);
                if ring.slots[base].load(Ordering::Relaxed) != expected {
                    continue;
                }
                let Some(phase) = Phase::from_u8((meta & 0xff) as u8) else {
                    continue;
                };
                out.push(FlightSpan {
                    track: track as u16,
                    phase,
                    corr,
                    start_ns,
                    dur_ns,
                    label: (meta >> 8) as u32,
                    arg,
                });
            }
        }
        out
    }

    /// Per-phase duration histograms (nanosecond samples), in
    /// [`Phase::ALL`] order — the feed for the
    /// `evolve_serve_phase_seconds` Prometheus families.
    pub fn phase_snapshots(&self) -> Vec<PhaseSnapshot> {
        Phase::ALL
            .iter()
            .map(|p| PhaseSnapshot {
                phase: p.name(),
                hist: self.phases[*p as usize].snapshot(),
            })
            .collect()
    }

    /// Renders the recorder contents as a Chrome trace-event document
    /// (Perfetto-loadable): one named thread per track under process 3,
    /// spans annotated with correlation id, interned label, and the
    /// phase argument.
    pub fn to_chrome_trace(&self) -> Json {
        let names = self.names.lock().expect("flight track registry").clone();
        let labels = self.labels.lock().expect("flight label table").clone();
        let mut events = vec![metadata_event(
            "process_name",
            PID_FLIGHT,
            0,
            "flight recorder (host time)",
        )];
        for (i, name) in names.iter().enumerate() {
            let tid = i as u64 + 1;
            events.push(metadata_event("thread_name", PID_FLIGHT, tid, name));
        }
        let mut spans = self.spans();
        spans.sort_by(|a, b| {
            (a.track, a.start_ns, a.phase as u8).cmp(&(b.track, b.start_ns, b.phase as u8))
        });
        for span in spans {
            let label = (span.label > 0)
                .then(|| labels.get(span.label as usize - 1))
                .flatten();
            let mut args = vec![("corr", Json::U64(span.corr)), ("arg", Json::U64(span.arg))];
            args.extend(label.map(|label| ("family", Json::str(label.clone()))));
            events.push(complete_event(
                span.phase.name(),
                Some("flight"),
                PID_FLIGHT,
                u64::from(span.track) + 1,
                span.start_ns as f64 / 1000.0,
                span.dur_ns as f64 / 1000.0,
                Some(Json::object(args)),
            ));
        }
        chrome_document(events)
    }

    /// [`to_chrome_trace`](FlightRecorder::to_chrome_trace), rendered.
    pub fn render_chrome_trace(&self) -> String {
        self.to_chrome_trace().render()
    }
}

/// A lock-free [`LogHistogram`] twin recordable from any thread, frozen
/// into the exact [`LogHistogram`] on snapshot.
#[derive(Debug)]
struct PhaseHistogram {
    buckets: [AtomicU64; crate::metrics::HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl PhaseHistogram {
    fn new() -> PhaseHistogram {
        PhaseHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        self.buckets[LogHistogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LogHistogram {
        LogHistogram::from_parts(
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// The recorder handle an [`Engine`](../../evolve_core/struct.Engine.html)
/// carries so partition workers can emit per-level `sweep` spans: the
/// shared recorder, one pre-registered track per partition worker, and the
/// correlation id of the request currently being evaluated.
#[derive(Clone, Debug)]
pub struct PartitionTracer {
    /// The shared recorder.
    pub recorder: Arc<FlightRecorder>,
    /// One track per partition worker index (worker `p` records on
    /// `tracks[p]`; missing entries record nothing).
    pub tracks: Vec<TrackId>,
    /// Correlation id stamped on emitted spans (0 outside a request).
    pub corr: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_back_spans() {
        let rec = FlightRecorder::new(2, 16);
        let t0 = rec.register_track("shard-0");
        let label = rec.intern("pipeline/8");
        rec.record(t0, Phase::Eval, 7, 1_000, 5_000, label, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].phase, Phase::Eval);
        assert_eq!(spans[0].corr, 7);
        assert_eq!(spans[0].start_ns, 1_000);
        assert_eq!(spans[0].dur_ns, 4_000);
        assert_eq!(spans[0].label, label);
        assert_eq!(spans[0].arg, 3);
    }

    #[test]
    fn wraparound_evicts_oldest_spans() {
        let rec = FlightRecorder::new(1, 8);
        let t = rec.register_track("shard-0");
        for i in 0..20u64 {
            rec.record(t, Phase::QueueWait, i, i * 10, i * 10 + 5, 0, 0);
        }
        let spans = rec.spans();
        // Capacity 8: exactly the newest 8 survive, oldest first.
        assert_eq!(spans.len(), 8);
        assert_eq!(
            spans.iter().map(|s| s.corr).collect::<Vec<_>>(),
            (12..20).collect::<Vec<_>>()
        );
    }

    #[test]
    fn concurrent_dump_never_tears_spans() {
        // One writer hammering a tiny ring, one reader dumping until the
        // writer is done: every span the reader accepts must be
        // self-consistent (the writer always stores corr == arg ==
        // start_ns / 10).
        const SPANS: u64 = 50_000;
        let rec = Arc::new(FlightRecorder::new(1, 8));
        let track = rec.register_track("w");
        let writer = {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                for i in 0..SPANS {
                    rec.record(track, Phase::Sweep, i, i * 10, i * 10 + 1, 0, i);
                }
            })
        };
        let check = |span: &FlightSpan| {
            assert_eq!(span.corr, span.arg, "torn span: corr/arg mismatch");
            assert_eq!(span.start_ns, span.corr * 10, "torn span: start mismatch");
        };
        while !writer.is_finished() {
            rec.spans().iter().for_each(check);
        }
        writer.join().expect("writer");
        // Quiescent: the final dump holds exactly the newest `capacity`
        // spans, consecutive and oldest first.
        let last = rec.spans();
        last.iter().for_each(check);
        assert_eq!(
            last.iter().map(|s| s.corr).collect::<Vec<_>>(),
            (SPANS - 8..SPANS).collect::<Vec<_>>()
        );
    }

    #[test]
    fn full_track_table_returns_noop_handle() {
        let rec = FlightRecorder::new(1, 8);
        assert_ne!(rec.register_track("a"), TrackId::INVALID);
        let overflow = rec.register_track("b");
        assert_eq!(overflow, TrackId::INVALID);
        rec.record(overflow, Phase::Eval, 1, 0, 10, 0, 0);
        assert!(rec.spans().is_empty());
        // The histogram still sees the sample.
        let phases = rec.phase_snapshots();
        let eval = phases.iter().find(|p| p.phase == "eval").expect("eval");
        assert_eq!(eval.hist.count(), 1);
    }

    #[test]
    fn interning_dedupes_labels() {
        let rec = FlightRecorder::new(1, 8);
        let a = rec.intern("family-a");
        let b = rec.intern("family-b");
        assert_ne!(a, b);
        assert_eq!(rec.intern("family-a"), a);
    }

    #[test]
    fn chrome_trace_escapes_hostile_track_and_label_names() {
        let rec = FlightRecorder::new(2, 8);
        let t = rec.register_track("shard \"0\"\n\u{7f}");
        let label = rec.intern("evil\"model\u{1b}\u{2028}");
        rec.record(t, Phase::Eval, 1, 0, 100, label, 0);
        let doc = rec.render_chrome_trace();
        assert!(doc.contains("\\\"0\\\""));
        assert!(doc.contains("\\u007f"));
        assert!(doc.contains("\\u001b"));
        assert!(doc.contains("\\u2028"));
        assert!(!doc.contains('\n'), "raw control characters leaked");
        assert!(crate::json::parses(&doc), "trace must be valid JSON");
    }

    #[test]
    fn phase_histograms_power_prometheus_quantiles() {
        let rec = FlightRecorder::new(1, 8);
        let t = rec.register_track("shard-0");
        for dur in [100u64, 200, 400, 100_000] {
            rec.record(t, Phase::QueueWait, 0, 0, dur, 0, 0);
        }
        let phases = rec.phase_snapshots();
        let qw = phases
            .iter()
            .find(|p| p.phase == "queue_wait")
            .expect("queue_wait");
        assert_eq!(qw.hist.count(), 4);
        assert!(qw.hist.quantile(0.5) >= 200);
        assert!(qw.hist.quantile(0.99) >= 100_000);
    }
}
