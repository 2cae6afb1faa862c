//! Observation-time resource metrics folded from finished drives.
//!
//! [`TelemetrySink`] folds each drive once: its [`ExecRecord`]s, in
//! production order, into per-resource accumulators
//! ([`ResourceMetrics`]), and its engine and fast-forward counters, its
//! detected regime and its boundary exchanges into the counter sets.
//! Records produced by fast-forward template replay sit in the drive's
//! record log like swept ones, so the folded busy time stays exact under
//! promotion.
//!
//! A sink freezes into a [`MetricsSnapshot`]; snapshots of several shards
//! merge, and export as JSON or Prometheus text exposition (see
//! [`crate::export`]).

use std::collections::BTreeMap;

use evolve_model::ExecRecord;

use crate::export;
use crate::json::Json;

/// Number of [`LogHistogram`] buckets: one for zero plus one per power of
/// two up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log-bucketed (power-of-two) histogram of `u64` samples.
///
/// Bucket `0` counts zero samples; bucket `i ≥ 1` counts samples in
/// `[2^(i-1), 2^i)`. Fixed size, so recording is O(1) and merging two
/// histograms is exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// Bucket index of `value`.
    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Bucket index of `value`, for the lock-free atomic twin in
    /// [`crate::flight`].
    pub(crate) fn bucket_index(value: u64) -> usize {
        Self::bucket_of(value)
    }

    /// Reconstructs a histogram from raw parts (the atomic twin's
    /// snapshot path).
    pub(crate) fn from_parts(
        buckets: [u64; HISTOGRAM_BUCKETS],
        count: u64,
        sum: u64,
        max: u64,
    ) -> LogHistogram {
        LogHistogram {
            buckets,
            count,
            sum,
            max,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples (used by the analytic period fold).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.max = self.max.max(value);
    }

    /// Adds every bucket of `other` into this histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(upper_bound, count)` per non-empty bucket. The upper bound of
    /// bucket `i` is `2^i` (exclusive); the last bucket reports
    /// `u64::MAX`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                let upper = if i >= 64 { u64::MAX } else { 1u64 << i };
                (upper, *c)
            })
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0 < q <= 1.0`); 0 when empty. Power-of-two bucket resolution:
    /// the true quantile lies within 2x of the returned bound, which is
    /// what p50/p95/p99 latency summaries need.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return match i {
                    0 => 0,
                    i if i >= 64 => u64::MAX,
                    i => 1u64 << i,
                };
            }
        }
        self.max
    }

    /// Cumulative `(upper_bound, count ≤ upper_bound)` pairs over non-empty
    /// buckets — the shape Prometheus `le` buckets want.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut cum = 0u64;
        let mut out = Vec::new();
        for (i, c) in self.buckets.iter().enumerate() {
            cum += c;
            if *c > 0 {
                let upper = if i >= 64 { u64::MAX } else { 1u64 << i };
                out.push((upper, cum));
            }
        }
        out
    }
}

/// Per-resource accumulator.
///
/// Maintains the running busy time with a single open frontier interval:
/// records arriving in non-decreasing start order (the engines' production
/// order within one drive or lane) merge exactly, matching
/// [`ResourceTrace::from_records`](evolve_model::ResourceTrace::from_records).
/// A record starting before the frontier is clamped and counted in
/// [`out_of_order`](ResourceMetrics::out_of_order); busy time is exact iff
/// that counter is zero (it then under-approximates, never over-counts).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResourceMetrics {
    /// Busy ticks of already-closed merged intervals.
    closed_busy: u64,
    /// The open merged interval `[start, end)`, if any.
    frontier: Option<(u64, u64)>,
    /// Total abstract operations executed.
    pub ops: u64,
    /// Execution records observed (including zero-width ones).
    pub records: u64,
    /// Records that started before the frontier (clamped).
    pub out_of_order: u64,
    /// Largest end instant observed, in ticks.
    pub horizon_ticks: u64,
    /// Histogram of record durations (ticks).
    pub durations: LogHistogram,
}

impl ResourceMetrics {
    /// Folds one execution record into the accumulator.
    pub fn observe(&mut self, start: u64, end: u64, ops: u64) {
        self.records += 1;
        self.ops += ops;
        self.horizon_ticks = self.horizon_ticks.max(end);
        self.durations.record(end.saturating_sub(start));
        if end <= start {
            return; // zero-width records never contribute busy time
        }
        let (mut s, e) = (start, end);
        if let Some((fs, fe)) = self.frontier {
            if s < fs {
                self.out_of_order += 1;
                s = fs; // clamp: busy time becomes a lower bound
            }
            if s <= fe {
                self.frontier = Some((fs, fe.max(e)));
                return;
            }
            self.closed_busy += fe - fs;
        }
        if s < e {
            self.frontier = Some((s, e));
        }
    }

    /// Closes the open frontier (end of a drive's time axis).
    pub fn seal(&mut self) {
        if let Some((fs, fe)) = self.frontier.take() {
            self.closed_busy += fe - fs;
        }
    }

    /// Total busy ticks accumulated so far (frontier included).
    pub fn busy_ticks(&self) -> u64 {
        self.closed_busy + self.frontier.map_or(0, |(s, e)| e - s)
    }

    /// Utilization over the observed horizon; 0.0 at a zero horizon.
    pub fn utilization(&self) -> f64 {
        if self.horizon_ticks == 0 {
            0.0
        } else {
            self.busy_ticks() as f64 / self.horizon_ticks as f64
        }
    }

    /// Folds another accumulator (a different drive) into this one. Both
    /// frontiers are sealed: the time axes are unrelated.
    pub fn merge(&mut self, other: &ResourceMetrics) {
        self.seal();
        let mut other = other.clone();
        other.seal();
        self.closed_busy += other.closed_busy;
        self.ops += other.ops;
        self.records += other.records;
        self.out_of_order += other.out_of_order;
        self.horizon_ticks = self.horizon_ticks.max(other.horizon_ticks);
        self.durations.merge(&other.durations);
    }
}

/// Merge rules by exposition kind, named after the kinds so the counter
/// tables can pick them by `counter` or `gauge`.
mod merge {
    /// A counter is cumulative: merged shards add.
    pub(super) fn counter(ours: u64, theirs: u64) -> u64 {
        ours + theirs
    }

    /// A gauge holds a shape (a batch width): merged
    /// shards keep the largest value seen.
    pub(super) fn gauge(ours: u64, theirs: u64) -> u64 {
        ours.max(theirs)
    }
}

/// Declares one counter set from one table, so what a counter is called
/// and how it merges is decided in one place.
///
/// Each entry is one Prometheus family: its kind (`counter` or `gauge`,
/// which is also the field's merge rule), its name, its help line, and
/// the documented fields it exposes — one field for a plain series, or
/// several fields told apart by one label (`field label = "value"`). The
/// table generates the struct (every field a `pub u64`), `merge`,
/// `to_json` (keys are the field names) and the exposition lines, all in
/// declaration order. Adding a counter is one field line in one entry.
macro_rules! counter_set {
    (
        $(#[$attr:meta])*
        $set:ident {
            $(
                $kind:ident $family:literal $help:literal {
                    $(
                        $(#[doc = $doc:literal])*
                        $field:ident $($label:ident = $value:literal)?
                    ),+ $(,)?
                }
            )+
        }
    ) => {
        $(#[$attr])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $set {
            $($(
                $(#[doc = $doc])*
                pub $field: u64,
            )+)+
        }

        impl $set {
            /// Folds `other` into this set: counters add, gauges keep the
            /// larger value.
            pub fn merge(&mut self, other: &$set) {
                $($(self.$field = merge::$kind(self.$field, other.$field);)+)+
            }

            /// The set as one JSON object, keyed by field name.
            pub fn to_json(&self) -> Json {
                Json::object([$($((stringify!($field), Json::U64(self.$field)),)+)+])
            }

            /// Appends the set's exposition families to `out`.
            pub(crate) fn write_exposition(&self, out: &mut String) {
                $(
                    export::family(out, $family, $help, stringify!($kind));
                    $(
                        let labels = [$((stringify!($label), $value))?];
                        export::sample(out, $family, &labels, self.$field);
                    )+
                )+
            }
        }
    };
}

counter_set! {
    /// Engine work counters: `evolve-core`'s `Engine::stats` and
    /// `BatchedEngine::stats` return them directly.
    EngineCounters {
        counter "evolve_engine_nodes_computed_total" "Graph nodes computed across all iterations" {
            /// Nodes computed across all iterations.
            nodes_computed
        }
        counter "evolve_engine_arcs_evaluated_total" "Arc-weight evaluations performed" {
            /// Arc-weight evaluations performed.
            arcs_evaluated
        }
        counter "evolve_engine_iterations_completed_total" "Iterations fully computed" {
            /// Iterations fully computed.
            iterations_completed
        }
        counter "evolve_engine_lanes_evaluated_total"
            "Scenario lanes evaluated by batched engines" {
            /// Scenario lanes evaluated by batched engines (0 for a scalar engine
            /// and for a batched engine's per-lane view).
            lanes_evaluated
        }
        counter "evolve_engine_batched_iterations_total" "Lockstep batched sweeps performed" {
            /// Lockstep batched sweeps performed (0 for a scalar engine).
            batched_iterations
        }
    }
}

counter_set! {
    /// Fast-forward counters: `evolve-core`'s `FastForwardStats` minus its
    /// detected regime, which has no counter field (the snapshot counts
    /// regimes in a histogram of their own; `evolve-core` provides
    /// `From<FastForwardStats>`).
    FfCounters {
        counter "evolve_ff_promotions_total" "Fast-forward promotions to template replay" {
            /// Times a detector promoted to fast-forward replay.
            promotions
        }
        counter "evolve_ff_demotions_total" "Fast-forward demotions back to the full sweep" {
            /// Times a pattern break demoted back to the full sweep.
            demotions
        }
        counter "evolve_ff_fast_forwarded_iterations_total"
            "Iterations answered by template replay" {
            /// Iterations answered by template replay instead of a sweep.
            fast_forwarded_iterations
        }
    }
}

counter_set! {
    /// Batching counters of the sweep layer's lockstep scheduling
    /// (`evolve-explore`'s `SweepReport::batching`).
    BatchCounters {
        gauge "evolve_batch_width" "Configured lockstep batch width" {
            /// Configured lockstep batch width.
            batch_width
        }
        counter "evolve_batch_batches_formed_total" "Lockstep batches driven to completion" {
            /// Lockstep batches driven to completion.
            batches_formed
        }
        counter "evolve_batch_lanes_batched_total" "Scenarios evaluated as lanes of a batch" {
            /// Scenarios evaluated as lanes of a batch.
            lanes_batched
        }
        counter "evolve_batch_lanes_scalar_total" "Scenarios evaluated on the scalar path" {
            /// Scenarios evaluated on the scalar path.
            lanes_scalar
        }
        counter "evolve_batch_lockstep_iterations_total"
            "Lockstep sweeps executed across all batches" {
            /// Lockstep sweeps executed across all batches.
            lockstep_iterations
        }
        counter "evolve_batch_kernel_sweeps_total" "Lockstep sweeps by fold-kernel dispatch path" {
            /// Lockstep sweeps dispatched to the lane-chunked fold kernels
            /// (lane stride a multiple of the SIMD chunk).
            kernel_chunked_sweeps path = "chunked",
            /// Lockstep sweeps dispatched to the narrow-row loop (narrow
            /// batches below one chunk).
            kernel_scalar_sweeps path = "scalar",
        }
        counter "evolve_batch_ejections_total"
            "Scenarios ejected from batching to the scalar path, by reason" {
            /// Lanes ejected: model on the worklist backend.
            eject_worklist reason = "worklist",
            /// Lanes ejected: trace offers no tokens.
            eject_empty_trace reason = "empty_trace",
            /// Lanes ejected: leftover single lane of a model group.
            eject_single_lane reason = "single_lane",
            /// Lanes ejected: batched engine rejected the graph shape.
            eject_unsupported reason = "unsupported",
            /// Always 0: the partitioned backend this reason named is gone.
            /// Kept only because the benchmark crate still reports it; the
            /// next benchmark change (ROADMAP item 10) removes it.
            eject_partitioned reason = "partitioned",
        }
    }
}

counter_set! {
    /// Serving-layer counters recorded by the `evolve-serve` daemon: request
    /// admission, batch formation, and the evaluation path each request lane
    /// took. Counted by the shard workers and merged into the daemon's
    /// `/metrics` snapshot alongside the engine counters.
    ServeCounters {
        counter "evolve_serve_connections_total" "Client connections accepted by the serve daemon" {
            /// Client connections accepted.
            connections
        }
        counter "evolve_serve_requests_total" "Requests admitted into shard queues" {
            /// Requests admitted into a shard's queue.
            requests
        }
        counter "evolve_serve_rejected_total"
            "Requests shed with a BUSY response (queue over max_queue_depth)" {
            /// Requests shed with a BUSY response (queue over `max_queue_depth`).
            rejected
        }
        counter "evolve_serve_responses_total" "Successful evaluation responses written" {
            /// Successful evaluation responses written.
            responses
        }
        counter "evolve_serve_errors_total" "Error responses written" {
            /// Error responses written (malformed or failing requests).
            errors
        }
        counter "evolve_serve_batches_total" "Affinity batches dispatched, by trigger" {
            /// Affinity batches dispatched because lanes filled the batch width.
            batches_full trigger = "full",
            /// Affinity batches dispatched at once because their spec's recent
            /// arrivals predicted no lane-mate within `max_batch_delay`.
            batches_idle trigger = "idle",
            /// Affinity batches dispatched at the `max_batch_delay` deadline.
            batches_deadline trigger = "deadline",
        }
        counter "evolve_serve_lanes_total" "Request lanes evaluated, by path" {
            /// Request lanes evaluated inside a lockstep batch.
            lanes_batched path = "batched",
            /// Request lanes evaluated on the scalar path (ejected or singleton).
            lanes_scalar path = "scalar",
        }
    }
}

/// Telemetry folded from finished drives: counters, a regime histogram
/// and per-resource accumulators. The sweep folds its report's scenarios
/// into one; each serve shard keeps one and folds every lane it answers.
#[derive(Debug, Default)]
pub struct TelemetrySink {
    /// Engine work counters.
    pub engine: EngineCounters,
    /// Fast-forward counters.
    pub ff: FfCounters,
    /// Batching counters (recorded by the sweep layer or a serve shard).
    pub batch: BatchCounters,
    /// Serving-layer counters (recorded by the serve daemon's shards).
    pub serve: ServeCounters,
    /// Boundary exchanges: one per input offer and per output write.
    pub boundary_events: u64,
    /// Detected periodic regimes: drives per `(growth, period)`.
    pub regimes: BTreeMap<(u64, u64), u64>,
    /// Aggregate of folded drives, by resource.
    resources: Vec<ResourceMetrics>,
}

impl TelemetrySink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one drive (or one batch lane): its execution records in
    /// production order, which are a time axis of their own, its engine
    /// and fast-forward counters, the `(growth, period)` regime it settled
    /// into, if any, and its boundary exchanges.
    pub fn fold_drive(
        &mut self,
        records: &[ExecRecord],
        engine: &EngineCounters,
        ff: &FfCounters,
        regime: Option<(u64, u64)>,
        boundary_events: u64,
    ) {
        let mut drive: Vec<ResourceMetrics> = Vec::new();
        for r in records {
            resource_slot(&mut drive, r.resource.index()).observe(
                r.start.ticks(),
                r.end.ticks(),
                r.ops,
            );
        }
        for (idx, rm) in drive.iter().enumerate().filter(|(_, rm)| rm.records > 0) {
            resource_slot(&mut self.resources, idx).merge(rm);
        }
        self.engine.merge(engine);
        self.ff.merge(ff);
        if let Some(regime) = regime {
            *self.regimes.entry(regime).or_default() += 1;
        }
        self.boundary_events += boundary_events;
    }

    /// Freezes the sink into an exportable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let resources = self
            .resources
            .iter()
            .enumerate()
            .filter(|(_, rm)| rm.records > 0)
            .map(|(idx, rm)| ResourceSnapshot {
                resource: idx,
                busy_ticks: rm.busy_ticks(),
                ops: rm.ops,
                records: rm.records,
                out_of_order: rm.out_of_order,
                horizon_ticks: rm.horizon_ticks,
                utilization: rm.utilization(),
                durations: rm.durations.clone(),
            })
            .collect();
        MetricsSnapshot {
            engine: self.engine,
            ff: self.ff,
            batch: self.batch,
            serve: self.serve,
            boundary_events: self.boundary_events,
            regimes: self.regimes.clone(),
            resources,
            phases: Vec::new(),
            serve_gauges: None,
        }
    }
}

fn resource_slot(v: &mut Vec<ResourceMetrics>, idx: usize) -> &mut ResourceMetrics {
    if v.len() <= idx {
        v.resize(idx + 1, ResourceMetrics::default());
    }
    &mut v[idx]
}

/// Frozen per-resource metrics inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceSnapshot {
    /// Resource index.
    pub resource: usize,
    /// Total busy ticks (exact iff `out_of_order == 0`).
    pub busy_ticks: u64,
    /// Total abstract operations.
    pub ops: u64,
    /// Execution records observed.
    pub records: u64,
    /// Records clamped by the frontier.
    pub out_of_order: u64,
    /// Largest end instant observed.
    pub horizon_ticks: u64,
    /// `busy_ticks / horizon_ticks` (0.0 at a zero horizon).
    pub utilization: f64,
    /// Record-duration histogram.
    pub durations: LogHistogram,
}

/// One serving lifecycle phase's latency histogram
/// (nanosecond samples), fed by the flight recorder
/// ([`crate::flight::FlightRecorder::phase_snapshots`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Stable phase name ([`crate::flight::Phase::name`]).
    pub phase: &'static str,
    /// Duration histogram, nanoseconds.
    pub hist: LogHistogram,
}

/// Live serving gauges sampled at scrape time by the daemon's `/metrics`
/// listener (not accumulated per shard, so not part of shard merges).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServeGauges {
    /// Requests currently queued across all shards.
    pub queue_depth: u64,
    /// Live client connections.
    pub connections: u64,
    /// Seconds since the server started.
    pub uptime_seconds: f64,
}

/// An exportable, immutable view of everything a [`TelemetrySink`] (or a
/// merge of shards) collected.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Engine work counters.
    pub engine: EngineCounters,
    /// Fast-forward counters.
    pub ff: FfCounters,
    /// Batching counters.
    pub batch: BatchCounters,
    /// Serving-layer counters.
    pub serve: ServeCounters,
    /// Boundary exchanges: one per input offer and per output write.
    pub boundary_events: u64,
    /// Detected periodic regimes: drives per `(growth, period)`.
    pub regimes: BTreeMap<(u64, u64), u64>,
    /// Per-resource metrics, sorted by resource index.
    pub resources: Vec<ResourceSnapshot>,
    /// Per-phase request-lifecycle latency histograms (flight recorder).
    /// Empty when no recorder is attached.
    pub phases: Vec<PhaseSnapshot>,
    /// Live serving gauges, set by the daemon at scrape time.
    pub serve_gauges: Option<ServeGauges>,
}

impl MetricsSnapshot {
    /// The live event-ratio gauge (paper Table I column 3): kernel events
    /// the equivalent model avoids (internal instants computed
    /// arithmetically, `nodes_computed`) plus the boundary events it still
    /// simulates, over the boundary events. `None` before any boundary
    /// event. Table I maps this ratio to the attainable speed-up when the
    /// per-event dispatch cost dominates.
    pub fn event_ratio(&self) -> Option<f64> {
        let boundary = self.boundary_events;
        if boundary == 0 {
            return None;
        }
        Some((self.engine.nodes_computed + boundary) as f64 / boundary as f64)
    }

    /// Total busy ticks across all resources.
    pub fn total_busy_ticks(&self) -> u64 {
        self.resources.iter().map(|r| r.busy_ticks).sum()
    }

    /// Folds another snapshot into this one: counters and regime counts
    /// add, and per-resource metrics merge by resource index
    /// (busy/ops/records add, horizons take the max, utilization is
    /// recomputed over the merged horizon, histograms merge exactly).
    /// The serve daemon's `/metrics` listener folds the per-shard
    /// published snapshots into one exposition this way.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.engine.merge(&other.engine);
        self.ff.merge(&other.ff);
        self.batch.merge(&other.batch);
        self.serve.merge(&other.serve);
        self.boundary_events += other.boundary_events;
        for (regime, drives) in &other.regimes {
            *self.regimes.entry(*regime).or_default() += drives;
        }
        for theirs in &other.resources {
            match self
                .resources
                .iter_mut()
                .find(|r| r.resource == theirs.resource)
            {
                Some(ours) => {
                    ours.busy_ticks += theirs.busy_ticks;
                    ours.ops += theirs.ops;
                    ours.records += theirs.records;
                    ours.out_of_order += theirs.out_of_order;
                    ours.horizon_ticks = ours.horizon_ticks.max(theirs.horizon_ticks);
                    ours.utilization = if ours.horizon_ticks == 0 {
                        0.0
                    } else {
                        ours.busy_ticks as f64 / ours.horizon_ticks as f64
                    };
                    ours.durations.merge(&theirs.durations);
                }
                None => self.resources.push(theirs.clone()),
            }
        }
        self.resources.sort_by_key(|r| r.resource);
        for theirs in &other.phases {
            match self.phases.iter_mut().find(|p| p.phase == theirs.phase) {
                Some(ours) => ours.hist.merge(&theirs.hist),
                None => self.phases.push(theirs.clone()),
            }
        }
        if self.serve_gauges.is_none() {
            self.serve_gauges = other.serve_gauges;
        }
    }

    /// Renders the snapshot as a JSON document (see
    /// `docs/OBSERVABILITY.md` for the schema).
    pub fn to_json(&self) -> Json {
        let histogram_json = |h: &LogHistogram| {
            Json::object([
                ("count", Json::U64(h.count())),
                ("sum", Json::U64(h.sum())),
                ("max", Json::U64(h.max())),
                (
                    "buckets",
                    Json::Array(
                        h.nonzero_buckets()
                            .map(|(le, n)| {
                                Json::object([("le", Json::U64(le)), ("count", Json::U64(n))])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        let regimes = self
            .regimes
            .iter()
            .map(|(&(growth, period), &drives)| {
                Json::object([
                    ("growth", Json::U64(growth)),
                    ("period", Json::U64(period)),
                    ("drives", Json::U64(drives)),
                ])
            })
            .collect();
        Json::object([
            ("engine", self.engine.to_json()),
            (
                "fast_forward",
                with_key(self.ff.to_json(), "regimes", Json::Array(regimes)),
            ),
            ("batching", self.batch.to_json()),
            ("serve", self.serve.to_json()),
            ("boundary_events", Json::U64(self.boundary_events)),
            (
                "event_ratio",
                self.event_ratio().map_or(Json::Null, Json::F64),
            ),
            (
                "serve_phases",
                Json::Array(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::object([
                                ("phase", Json::str(p.phase)),
                                ("count", Json::U64(p.hist.count())),
                                (
                                    "p50_seconds",
                                    Json::F64(p.hist.quantile(0.50) as f64 / 1e9),
                                ),
                                (
                                    "p95_seconds",
                                    Json::F64(p.hist.quantile(0.95) as f64 / 1e9),
                                ),
                                (
                                    "p99_seconds",
                                    Json::F64(p.hist.quantile(0.99) as f64 / 1e9),
                                ),
                                ("mean_seconds", Json::F64(p.hist.mean() / 1e9)),
                                ("max_seconds", Json::F64(p.hist.max() as f64 / 1e9)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "serve_gauges",
                self.serve_gauges.map_or(Json::Null, |g| {
                    Json::object([
                        ("queue_depth", Json::U64(g.queue_depth)),
                        ("connections", Json::U64(g.connections)),
                        ("uptime_seconds", Json::F64(g.uptime_seconds)),
                    ])
                }),
            ),
            (
                "resources",
                Json::Array(
                    self.resources
                        .iter()
                        .map(|r| {
                            Json::object([
                                ("resource", Json::U64(r.resource as u64)),
                                ("busy_ticks", Json::U64(r.busy_ticks)),
                                ("ops", Json::U64(r.ops)),
                                ("records", Json::U64(r.records)),
                                ("out_of_order", Json::U64(r.out_of_order)),
                                ("horizon_ticks", Json::U64(r.horizon_ticks)),
                                ("utilization", Json::F64(r.utilization)),
                                ("durations", histogram_json(&r.durations)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// `object` with `key: value` appended after its own keys.
fn with_key(mut object: Json, key: &str, value: Json) -> Json {
    if let Json::Object(fields) = &mut object {
        fields.push((key.to_string(), value));
    }
    object
}

/// Merges `[start, end)` spans into sorted disjoint intervals (the same
/// construction as `ResourceTrace::from_records`).
pub(crate) fn merge_intervals(mut spans: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    spans.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    for (s, e) in spans {
        match out.last_mut() {
            Some((_, last_end)) if s <= *last_end => {
                if e > *last_end {
                    *last_end = e;
                }
            }
            _ => out.push((s, e)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use evolve_des::Time;
    use evolve_model::{ExecRecord, FunctionId, ResourceId};
    use proptest::prelude::*;

    use super::*;

    fn rec(resource: usize, start: u64, end: u64, ops: u64) -> ExecRecord {
        ExecRecord {
            resource: ResourceId::from_index(resource),
            function: FunctionId::from_index(0),
            stmt: 0,
            k: 0,
            start: Time::from_ticks(start),
            end: Time::from_ticks(end),
            ops,
        }
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = LogHistogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.max(), 1024);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(1, 1), (2, 1), (4, 2), (2048, 1)]);
        let cumulative = h.cumulative_buckets();
        assert_eq!(cumulative, vec![(1, 1), (2, 2), (4, 4), (2048, 5)]);
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        a.record(5);
        b.record(5);
        b.record(100);
        let mut merged = a.clone();
        merged.merge(&b);
        let mut direct = LogHistogram::default();
        direct.record(5);
        direct.record(5);
        direct.record(100);
        assert_eq!(merged, direct);
    }

    #[test]
    fn streaming_busy_matches_merged_intervals_in_order() {
        let mut rm = ResourceMetrics::default();
        rm.observe(0, 10, 5);
        rm.observe(5, 15, 5); // overlaps
        rm.observe(20, 30, 5); // disjoint
        assert_eq!(rm.busy_ticks(), 25);
        assert_eq!(rm.out_of_order, 0);
        assert_eq!(rm.ops, 15);
        assert_eq!(rm.horizon_ticks, 30);
    }

    #[test]
    fn zero_width_records_counted_but_not_busy() {
        let mut rm = ResourceMetrics::default();
        rm.observe(10, 10, 3);
        assert_eq!(rm.busy_ticks(), 0);
        assert_eq!(rm.records, 1);
        assert_eq!(rm.ops, 3);
        assert_eq!(rm.utilization(), 0.0); // horizon 10, busy 0
    }

    #[test]
    fn out_of_order_record_is_clamped_and_counted() {
        let mut rm = ResourceMetrics::default();
        rm.observe(10, 20, 1);
        rm.observe(0, 5, 1); // starts before the frontier
        assert_eq!(rm.out_of_order, 1);
        assert_eq!(rm.busy_ticks(), 10); // lower bound, never over-counts
    }

    #[test]
    fn utilization_zero_horizon_is_zero() {
        let rm = ResourceMetrics::default();
        assert_eq!(rm.utilization(), 0.0);
    }

    #[test]
    fn merge_seals_frontiers_across_scenarios() {
        let mut a = ResourceMetrics::default();
        a.observe(0, 10, 1);
        let mut b = ResourceMetrics::default();
        b.observe(0, 7, 1); // same time axis range, different scenario
        a.merge(&b);
        assert_eq!(a.busy_ticks(), 17);
        assert_eq!(a.records, 2);
    }

    /// Folds a drive that carries only `records`.
    fn fold(sink: &mut TelemetrySink, records: &[ExecRecord]) {
        sink.fold_drive(records, &EngineCounters::default(), &FfCounters::default(), None, 0);
    }

    #[test]
    fn sink_streams_records_and_counts_events() {
        let mut sink = TelemetrySink::new();
        let engine = EngineCounters {
            nodes_computed: 4,
            ..EngineCounters::default()
        };
        let ff = FfCounters {
            promotions: 1,
            fast_forwarded_iterations: 3,
            ..FfCounters::default()
        };
        let records = [rec(0, 0, 10, 100), rec(1, 2, 6, 50)];
        sink.fold_drive(&records, &engine, &ff, Some((7, 2)), 2);
        sink.fold_drive(&[], &engine, &ff, Some((7, 2)), 2);
        let snap = sink.snapshot();
        assert_eq!(snap.boundary_events, 4);
        assert_eq!(snap.engine.nodes_computed, 8);
        assert_eq!(snap.ff.promotions, 2);
        assert_eq!(snap.ff.fast_forwarded_iterations, 6);
        // One histogram entry per regime, counting the drives in it.
        assert_eq!(snap.regimes, BTreeMap::from([((7, 2), 2)]));
        assert_eq!(snap.resources.len(), 2);
        assert_eq!(snap.resources[0].busy_ticks, 10);
        assert_eq!(snap.resources[1].busy_ticks, 4);
        assert_eq!(snap.total_busy_ticks(), 14);
    }

    #[test]
    fn sink_reset_seals_time_axis() {
        let mut sink = TelemetrySink::new();
        fold(&mut sink, &[rec(0, 100, 110, 1)]);
        // The next drive (a reset engine) starts earlier on its own axis:
        // not out of order.
        fold(&mut sink, &[rec(0, 0, 10, 1)]);
        let snap = sink.snapshot();
        assert_eq!(snap.resources[0].busy_ticks, 20);
        assert_eq!(snap.resources[0].out_of_order, 0);
    }

    #[test]
    fn sink_lanes_have_independent_frontiers() {
        // Each lane of a batch folds as a drive of its own...
        let mut sink = TelemetrySink::new();
        fold(&mut sink, &[rec(0, 50, 60, 1), rec(0, 60, 70, 1)]);
        fold(&mut sink, &[rec(0, 0, 10, 1)]); // earlier, different lane
        let snap = sink.snapshot();
        assert_eq!(snap.resources[0].busy_ticks, 30);
        assert_eq!(snap.resources[0].out_of_order, 0);
        // ...while within one drive an earlier record is clamped.
        let mut one = TelemetrySink::new();
        fold(&mut one, &[rec(0, 50, 60, 1), rec(0, 0, 10, 1)]);
        assert_eq!(one.snapshot().resources[0].out_of_order, 1);
    }

    #[test]
    fn shard_merge_matches_single_sink() {
        let engine = EngineCounters {
            nodes_computed: 9,
            ..EngineCounters::default()
        };
        let ff = FfCounters::default();
        let drives = [
            ([rec(0, 0, 10, 5)], Some((7, 2)), 3),
            ([rec(0, 0, 20, 7)], Some((7, 2)), 4),
        ];
        let mut single = TelemetrySink::new();
        let mut frozen = MetricsSnapshot::default();
        for (records, regime, boundary) in &drives {
            single.fold_drive(records, &engine, &ff, *regime, *boundary);
            let mut shard = TelemetrySink::new();
            shard.fold_drive(records, &engine, &ff, *regime, *boundary);
            frozen.merge(&shard.snapshot());
        }
        let snap = single.snapshot();
        assert_eq!(frozen, snap);
        assert_eq!(snap.resources[0].busy_ticks, 30);
        assert_eq!(snap.resources[0].ops, 12);
        assert_eq!(snap.boundary_events, 7);
        assert_eq!(snap.engine.nodes_computed, 18);
        assert_eq!(snap.regimes, BTreeMap::from([((7, 2), 2)]));
    }

    #[test]
    fn event_ratio_counts_avoided_over_boundary() {
        let mut sink = TelemetrySink::new();
        let engine = EngineCounters {
            nodes_computed: 98,
            ..EngineCounters::default()
        };
        sink.fold_drive(&[], &engine, &FfCounters::default(), None, 2);
        let snap = sink.snapshot();
        assert_eq!(snap.event_ratio(), Some(50.0));
        assert_eq!(TelemetrySink::new().snapshot().event_ratio(), None);
    }

    #[test]
    fn snapshot_merge_matches_sink_merge() {
        let mut a = TelemetrySink::new();
        fold(&mut a, &[rec(0, 0, 10, 5)]);
        a.serve.merge(&ServeCounters {
            requests: 3,
            rejected: 1,
            ..ServeCounters::default()
        });
        let mut b = TelemetrySink::new();
        fold(&mut b, &[rec(0, 0, 20, 7), rec(1, 5, 9, 2)]);
        b.serve.merge(&ServeCounters {
            requests: 4,
            batches_idle: 2,
            lanes_batched: 4,
            ..ServeCounters::default()
        });

        // Freeze the shards first, then merge the snapshots...
        let mut frozen = a.snapshot();
        frozen.merge(&b.snapshot());
        // ...which must equal folding every drive into one sink.
        let mut direct = TelemetrySink::new();
        fold(&mut direct, &[rec(0, 0, 10, 5)]);
        fold(&mut direct, &[rec(0, 0, 20, 7), rec(1, 5, 9, 2)]);
        direct.serve.merge(&a.serve);
        direct.serve.merge(&b.serve);

        assert_eq!(frozen, direct.snapshot());
        assert_eq!(frozen.serve.requests, 7);
        assert_eq!(frozen.serve.rejected, 1);
        assert_eq!(frozen.serve.lanes_batched, 4);
        assert_eq!(frozen.serve.batches_idle, 2);
        assert_eq!(frozen.resources.len(), 2);
        assert_eq!(frozen.resources[0].busy_ticks, 30);
    }

    #[test]
    fn snapshot_merge_into_empty_is_identity() {
        let mut sink = TelemetrySink::new();
        fold(&mut sink, &[rec(2, 0, 10, 5)]);
        sink.serve.merge(&ServeCounters {
            responses: 9,
            ..ServeCounters::default()
        });
        let snap = sink.snapshot();
        let mut empty = MetricsSnapshot::default();
        empty.merge(&snap);
        assert_eq!(empty, snap);
    }

    #[test]
    fn snapshot_json_renders() {
        let mut sink = TelemetrySink::new();
        fold(&mut sink, &[rec(0, 0, 10, 100)]);
        let doc = sink.snapshot().to_json().render();
        assert!(doc.contains("\"busy_ticks\":10"));
        assert!(doc.contains("\"batches_idle\":0"));
        assert!(doc.contains("\"event_ratio\":null"));
    }

    proptest! {
        #[test]
        fn prop_streaming_busy_matches_resource_trace_for_sorted_records(
            mut starts in proptest::collection::vec(0u64..1000, 1..40),
            widths in proptest::collection::vec(0u64..50, 40),
        ) {
            starts.sort_unstable();
            let records: Vec<ExecRecord> = starts
                .iter()
                .zip(widths.iter())
                .map(|(s, w)| rec(0, *s, s + w, 1))
                .collect();
            let mut rm = ResourceMetrics::default();
            for r in &records {
                rm.observe(r.start.ticks(), r.end.ticks(), r.ops);
            }
            let trace =
                evolve_model::ResourceTrace::from_records(&records, ResourceId::from_index(0));
            prop_assert_eq!(rm.out_of_order, 0);
            prop_assert_eq!(rm.busy_ticks(), trace.busy_ticks());
        }
    }
}
