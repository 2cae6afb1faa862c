//! Streaming observation-time resource metrics with bounded memory.
//!
//! [`TelemetrySink`] is the workhorse [`Observer`]: it folds every streamed
//! [`ExecRecord`] into per-resource accumulators ([`ResourceMetrics`]) and
//! counts lifecycle events ([`EventCounters`]) — no record buffering, so a
//! billion-iteration drive observes in O(resources) memory. Records
//! produced by fast-forward template replay stream through the same path,
//! so the accumulated busy time stays exact under promotion; the analytic
//! alternative (fold the one-period template once, multiply by the period
//! count) is provided by [`PeriodUsage`] and verified against brute force.
//!
//! A finished sink (or several merged shards) freezes into a
//! [`MetricsSnapshot`], exportable as JSON or Prometheus text exposition
//! (see [`crate::export`]).

use std::any::Any;

use evolve_model::ExecRecord;

use crate::event::{BackendKind, EngineEvent};
use crate::export;
use crate::json::Json;
use crate::observer::{Observer, Sealed};

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

/// Streaming per-resource accumulator.
///
/// Maintains the running busy time with a single open frontier interval:
/// records arriving in non-decreasing start order (the engines' production
/// order within one lane) merge exactly, matching
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
    /// Records that started before the streaming frontier (clamped).
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

    /// Closes the open frontier (end of a scenario / time axis).
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

    /// Folds another accumulator (a different scenario / shard) into this
    /// one. Both frontiers are sealed: the time axes are unrelated.
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

    /// A gauge holds a shape (a batch width, a partition plan): merged
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
    /// detected regime, which has no counter field (regimes are listed
    /// separately in the snapshot; `evolve-core` provides
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
            /// Lockstep sweeps dispatched to the per-element reference kernels
            /// (narrow batches below one chunk).
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
            /// Lanes ejected: model runs the scalar partitioned backend.
            eject_partitioned reason = "partitioned",
        }
    }
}

counter_set! {
    /// Delta-evaluation counters: one engine's delta work (`evolve-core`'s
    /// `Engine::delta_stats`, whose chain-bookkeeping and `eject_*` fields
    /// stay zero) or a whole sweep's (`evolve-explore`'s
    /// `SweepReport::delta`).
    DeltaCounters {
        counter "evolve_delta_chains_formed_total"
            "Base+sibling delta chains formed by the sweep planner" {
            /// Base+sibling chains formed by the sweep planner.
            chains_formed
        }
        counter "evolve_delta_lanes_base_total"
            "Scenarios evaluated as fully-swept delta-chain bases" {
            /// Scenarios evaluated as the fully-swept base of a chain.
            lanes_base
        }
        counter "evolve_delta_lanes_delta_total" "Scenarios evaluated against a base cache" {
            /// Scenarios evaluated against a base cache.
            lanes_delta
        }
        counter "evolve_delta_calls_total" "Input offers answered by the delta sweep" {
            /// Calls answered by the delta sweep (clean copy or frontier recompute).
            calls_delta
        }
        counter "evolve_delta_calls_full_total" "Offers a delta-linked engine evaluated fully" {
            /// Calls a delta-linked engine evaluated fully (beyond the cached
            /// rows, after a worklist fallback, or once the sibling's trace
            /// diverged from the base).
            calls_full
        }
        counter "evolve_delta_nodes_reused_total" "Node instants copied from the base cache" {
            /// Node instants copied from the base cache without recomputation.
            nodes_reused
        }
        counter "evolve_delta_nodes_recomputed_total"
            "Node instants recomputed by the change frontier" {
            /// Node instants recomputed because an input of the fold changed.
            nodes_recomputed
        }
        counter "evolve_delta_nodes_settled_total"
            "Recomputed instants that matched the cache (frontier early-out)" {
            /// Recomputed nodes whose instant matched the cache (max-plus
            /// early-out: their downstream dependents stay clean).
            nodes_settled
        }
        counter "evolve_delta_frontier_collapses_total" "Delta calls that recomputed zero nodes" {
            /// Delta calls that recomputed zero nodes (the change frontier
            /// collapsed before reaching any instant).
            frontier_collapses
        }
        counter "evolve_delta_ejections_total"
            "Scenarios ejected from delta chains to full evaluation, by reason" {
            /// Lanes ejected: the graph has multiple external inputs.
            eject_multi_input reason = "multi_input",
            /// Lanes ejected: the graph has acknowledged outputs.
            eject_output_acks reason = "output_acks",
            /// Lanes ejected: the engine runs the worklist backend.
            eject_worklist reason = "worklist",
            /// Lanes ejected: the sibling's compiled structure differs from the
            /// base cache.
            eject_structure_mismatch reason = "structure_mismatch",
        }
    }
}

counter_set! {
    /// Partitioned-parallel-evaluation counters, as `evolve-core`'s
    /// `Engine::partition_stats` returns them. The plan-shape fields
    /// (`partitions`, `planned_barriers`, `frontier_arcs`) are gauges and
    /// merge by max; the rest are cumulative and add.
    PartitionCounters {
        counter "evolve_partition_parallel_iterations_total"
            "Iterations evaluated by the partitioned parallel sweep" {
            /// Iterations evaluated by the partitioned parallel sweep.
            parallel_iterations
        }
        counter "evolve_partition_serial_iterations_total"
            "Serial fast-path iterations while a partition runtime was attached" {
            /// Fast-path iterations that ran serially while a partition runtime
            /// was attached (delta hits, graphs under the engagement threshold).
            serial_iterations
        }
        gauge "evolve_partition_partitions"
            "Planned partitions of the largest partition plan seen" {
            /// Planned partitions (largest plan seen).
            partitions
        }
        gauge "evolve_partition_planned_barriers"
            "Levels with a planned barrier in the largest plan seen" {
            /// Levels with a planned barrier (largest plan seen).
            planned_barriers
        }
        gauge "evolve_partition_frontier_arcs"
            "Cross-partition zero-delay arcs in the largest plan seen" {
            /// Cross-partition zero-delay arcs in the plan (largest plan seen).
            frontier_arcs
        }
        counter "evolve_partition_barrier_crossings_total"
            "Spin-barrier crossings executed, summed over workers" {
            /// Spin-barrier crossings executed, summed over workers.
            barrier_crossings
        }
    }
}

counter_set! {
    /// Counts of observed [`EngineEvent`]s.
    EventCounters {
        counter "evolve_events_total" "Engine lifecycle events observed, by kind" {
            /// Observers attached to engines.
            attaches kind = "attach",
            /// Scalar input offers evaluated.
            offers kind = "offer",
            /// Offers answered by fast-forward replay.
            replayed_offers kind = "offer_replayed",
            /// Lockstep batched calls evaluated.
            batch_sweeps kind = "batch_sweep",
            /// Batched calls answered entirely from templates.
            replayed_batch_sweeps kind = "batch_sweep_replayed",
            /// Output acknowledgments fed back.
            output_acks kind = "output_ack",
            /// Fast-forward promotions observed.
            promotions kind = "ff_promoted",
            /// Fast-forward demotions observed.
            demotions kind = "ff_demoted",
            /// Lanes ejected to the scalar path.
            lane_ejections kind = "lane_ejected",
            /// Offers rejected with a tick overflow.
            overflows kind = "overflow",
            /// Engine resets (scenario boundaries under reuse).
            resets kind = "reset",
        }
    }
}

impl EventCounters {
    /// Boundary events: interface instants the equivalent model still
    /// simulates (offers in, acknowledgments out).
    pub fn boundary_events(&self) -> u64 {
        self.offers + self.output_acks
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
            /// Request lanes evaluated as a delta against a family base cache.
            lanes_delta path = "delta",
        }
    }
}

/// The streaming telemetry observer: counters plus per-lane per-resource
/// accumulators, mergeable across worker shards.
#[derive(Debug, Default)]
pub struct TelemetrySink {
    /// Engine work counters (recorded by the driver after each drive).
    pub engine: EngineCounters,
    /// Fast-forward counters (recorded by the driver after each drive).
    pub ff: FfCounters,
    /// Batching counters (recorded by the sweep layer).
    pub batch: BatchCounters,
    /// Delta-evaluation counters (recorded by the sweep layer).
    pub delta: DeltaCounters,
    /// Partitioned-parallel counters (recorded by the driving layer).
    pub partition: PartitionCounters,
    /// Serving-layer counters (recorded by the serve daemon's shards).
    pub serve: ServeCounters,
    /// Lifecycle event counts.
    pub events: EventCounters,
    /// Detected periodic regimes `(growth, period)`, one per promotion.
    pub regimes: Vec<(u64, u64)>,
    /// Live per-lane accumulators, indexed `[lane][resource]`.
    lanes: Vec<Vec<ResourceMetrics>>,
    /// Aggregate of sealed scenarios and merged shards, by resource.
    folded: Vec<ResourceMetrics>,
    /// Backends this sink has been attached to.
    pub backends: Vec<BackendKind>,
}

impl TelemetrySink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seals every live lane into the aggregate (end of a scenario).
    pub fn seal_lanes(&mut self) {
        let lanes = std::mem::take(&mut self.lanes);
        for lane in &lanes {
            for (idx, rm) in lane.iter().enumerate() {
                if rm.records == 0 && rm.durations.count() == 0 {
                    continue;
                }
                Self::resource_slot(&mut self.folded, idx).merge(rm);
            }
        }
    }

    fn resource_slot(v: &mut Vec<ResourceMetrics>, idx: usize) -> &mut ResourceMetrics {
        if v.len() <= idx {
            v.resize(idx + 1, ResourceMetrics::default());
        }
        &mut v[idx]
    }

    /// Folds another shard (a different worker or lane) into this sink.
    pub fn merge(&mut self, mut other: TelemetrySink) {
        other.seal_lanes();
        self.seal_lanes();
        self.engine.merge(&other.engine);
        self.ff.merge(&other.ff);
        self.batch.merge(&other.batch);
        self.delta.merge(&other.delta);
        self.partition.merge(&other.partition);
        self.serve.merge(&other.serve);
        self.events.merge(&other.events);
        self.regimes.extend(other.regimes);
        self.backends.extend(other.backends);
        for (idx, rm) in other.folded.iter().enumerate() {
            Self::resource_slot(&mut self.folded, idx).merge(rm);
        }
    }

    /// Freezes the sink into an exportable snapshot (seals live lanes).
    pub fn snapshot(&mut self) -> MetricsSnapshot {
        self.seal_lanes();
        let resources = self
            .folded
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
            delta: self.delta,
            partition: self.partition,
            serve: self.serve,
            events: self.events,
            regimes: self.regimes.clone(),
            resources,
            phases: Vec::new(),
            serve_gauges: None,
        }
    }
}

impl Sealed for TelemetrySink {}

impl Observer for TelemetrySink {
    fn on_event(&mut self, event: EngineEvent) {
        match event {
            EngineEvent::Attached { backend, .. } => {
                self.events.attaches += 1;
                self.backends.push(backend);
            }
            EngineEvent::Offer { replayed, .. } => {
                self.events.offers += 1;
                if replayed {
                    self.events.replayed_offers += 1;
                }
            }
            EngineEvent::BatchSweep { replayed, .. } => {
                self.events.batch_sweeps += 1;
                if replayed {
                    self.events.replayed_batch_sweeps += 1;
                }
            }
            EngineEvent::OutputAck { .. } => self.events.output_acks += 1,
            EngineEvent::FfPromoted { growth, period, .. } => {
                self.events.promotions += 1;
                self.regimes.push((growth, period));
            }
            EngineEvent::FfDemoted { .. } => self.events.demotions += 1,
            EngineEvent::LaneEjected { .. } => self.events.lane_ejections += 1,
            EngineEvent::Overflow { .. } => self.events.overflows += 1,
            EngineEvent::Reset => {
                self.events.resets += 1;
                self.seal_lanes();
            }
        }
    }

    fn on_records(&mut self, lane: u32, records: &[ExecRecord]) {
        let lane = lane as usize;
        if self.lanes.len() <= lane {
            self.lanes.resize_with(lane + 1, Vec::new);
        }
        for r in records {
            let idx = r.resource.index();
            Self::resource_slot(&mut self.lanes[lane], idx).observe(
                r.start.ticks(),
                r.end.ticks(),
                r.ops,
            );
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
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
    /// Records clamped by the streaming frontier.
    pub out_of_order: u64,
    /// Largest end instant observed.
    pub horizon_ticks: u64,
    /// `busy_ticks / horizon_ticks` (0.0 at a zero horizon).
    pub utilization: f64,
    /// Record-duration histogram.
    pub durations: LogHistogram,
}

/// One serving/partition lifecycle phase's latency histogram
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
    /// Delta-evaluation counters.
    pub delta: DeltaCounters,
    /// Partitioned-parallel counters.
    pub partition: PartitionCounters,
    /// Serving-layer counters.
    pub serve: ServeCounters,
    /// Lifecycle event counts.
    pub events: EventCounters,
    /// Detected periodic regimes `(growth, period)`.
    pub regimes: Vec<(u64, u64)>,
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
        let boundary = self.events.boundary_events();
        if boundary == 0 {
            return None;
        }
        Some((self.engine.nodes_computed + boundary) as f64 / boundary as f64)
    }

    /// Total busy ticks across all resources.
    pub fn total_busy_ticks(&self) -> u64 {
        self.resources.iter().map(|r| r.busy_ticks).sum()
    }

    /// Folds another snapshot into this one: counters add, regimes
    /// concatenate, and per-resource metrics merge by resource index
    /// (busy/ops/records add, horizons take the max, utilization is
    /// recomputed over the merged horizon, histograms merge exactly).
    ///
    /// This is the frozen-side counterpart of [`TelemetrySink::merge`],
    /// used where live sinks cannot be handed over — e.g. the serve
    /// daemon's `/metrics` listener folding per-shard published snapshots
    /// into one exposition.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.engine.merge(&other.engine);
        self.ff.merge(&other.ff);
        self.batch.merge(&other.batch);
        self.delta.merge(&other.delta);
        self.partition.merge(&other.partition);
        self.serve.merge(&other.serve);
        self.events.merge(&other.events);
        self.regimes.extend(other.regimes.iter().copied());
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
            .map(|(g, p)| Json::object([("growth", Json::U64(*g)), ("period", Json::U64(*p))]))
            .collect();
        Json::object([
            ("engine", self.engine.to_json()),
            (
                "fast_forward",
                with_key(self.ff.to_json(), "regimes", Json::Array(regimes)),
            ),
            ("batching", self.batch.to_json()),
            ("delta", self.delta.to_json()),
            ("partition", self.partition.to_json()),
            ("serve", self.serve.to_json()),
            (
                "events",
                with_key(
                    self.events.to_json(),
                    "boundary_events",
                    Json::U64(self.events.boundary_events()),
                ),
            ),
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

/// The one-period execution template of a promoted lane, foldable
/// analytically over `m` periods: per-period usage × period count, with
/// the union of time-shifted busy intervals computed exactly without
/// materialising `m` copies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeriodUsage {
    /// Per-resource merged busy intervals of one period, in ticks.
    per_resource: Vec<PeriodResource>,
    /// Ticks the template shifts per period (`growth`).
    pub growth: u64,
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct PeriodResource {
    resource: usize,
    intervals: Vec<(u64, u64)>,
    ops: u64,
    records: u64,
    durations: Vec<u64>,
}

/// The analytic fold of one resource over `m` periods.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FoldedResource {
    /// Resource index.
    pub resource: usize,
    /// Exact busy ticks of the union of `m` shifted template copies.
    pub busy_ticks: u64,
    /// Total operations (`m ×` per-period ops).
    pub ops: u64,
    /// Total records (`m ×` per-period records).
    pub records: u64,
    /// Duration histogram (`m ×` per-period multiplicities).
    pub durations: LogHistogram,
}

impl PeriodUsage {
    /// Builds the template from one period's execution records and its
    /// detected per-period growth.
    pub fn from_records(records: &[ExecRecord], growth: u64) -> Self {
        let mut per: Vec<PeriodResource> = Vec::new();
        for r in records {
            let idx = r.resource.index();
            let slot = match per.iter_mut().find(|p| p.resource == idx) {
                Some(p) => p,
                None => {
                    per.push(PeriodResource {
                        resource: idx,
                        ..PeriodResource::default()
                    });
                    per.last_mut().expect("just pushed")
                }
            };
            slot.ops += r.ops;
            slot.records += 1;
            slot.durations
                .push(r.end.ticks().saturating_sub(r.start.ticks()));
            if r.start < r.end {
                slot.intervals.push((r.start.ticks(), r.end.ticks()));
            }
        }
        for slot in &mut per {
            slot.intervals = merge_intervals(std::mem::take(&mut slot.intervals));
        }
        per.sort_by_key(|p| p.resource);
        PeriodUsage {
            per_resource: per,
            growth,
        }
    }

    /// Folds the template over `periods` repetitions, each shifted by
    /// [`growth`](PeriodUsage::growth) ticks from the previous one.
    /// Busy ticks are the exact measure of the union of all shifted
    /// copies, computed by materialising only as many copies as can
    /// overlap (the per-copy increment is constant beyond that depth).
    pub fn fold(&self, periods: u64) -> Vec<FoldedResource> {
        self.per_resource
            .iter()
            .map(|p| {
                let mut durations = LogHistogram::default();
                for d in &p.durations {
                    durations.record_n(*d, periods);
                }
                FoldedResource {
                    resource: p.resource,
                    busy_ticks: shifted_union_busy(&p.intervals, self.growth, periods),
                    ops: p.ops * periods,
                    records: p.records * periods,
                    durations,
                }
            })
            .collect()
    }
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

fn busy_of(intervals: &[(u64, u64)]) -> u64 {
    intervals.iter().map(|(s, e)| e - s).sum()
}

fn materialized_union_busy(intervals: &[(u64, u64)], shift: u64, copies: u64) -> u64 {
    let mut all = Vec::with_capacity(intervals.len() * copies as usize);
    for c in 0..copies {
        let off = shift * c;
        all.extend(intervals.iter().map(|(s, e)| (s + off, e + off)));
    }
    busy_of(&merge_intervals(all))
}

/// Exact busy ticks of the union of `m` copies of `intervals`, copy `c`
/// shifted by `c × shift` ticks.
///
/// Beyond the overlap depth `q` (once a copy no longer overlaps copy 0),
/// each additional copy adds a constant number of busy ticks, so the
/// union is evaluated by materialising `min(m, q)` copies and
/// extrapolating: `busy(m) = busy(q) + (m − q) × (busy(q) − busy(q−1))`.
fn shifted_union_busy(intervals: &[(u64, u64)], shift: u64, m: u64) -> u64 {
    if m == 0 || intervals.is_empty() {
        return 0;
    }
    if shift == 0 {
        // all copies coincide
        return busy_of(intervals);
    }
    let span = intervals.last().expect("nonempty").1 - intervals.first().expect("nonempty").0;
    let q = (span / shift + 2).min(m);
    if q == m {
        return materialized_union_busy(intervals, shift, m);
    }
    let busy_q = materialized_union_busy(intervals, shift, q);
    let busy_q1 = materialized_union_busy(intervals, shift, q - 1);
    busy_q + (m - q) * (busy_q - busy_q1)
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

    #[test]
    fn sink_streams_records_and_counts_events() {
        let mut sink = TelemetrySink::new();
        sink.on_event(EngineEvent::Attached {
            backend: BackendKind::Compiled,
            nodes: 4,
            ff_eligible: true,
        });
        sink.on_records(0, &[rec(0, 0, 10, 100), rec(1, 2, 6, 50)]);
        sink.on_event(EngineEvent::Offer {
            k: 0,
            lane: 0,
            replayed: false,
        });
        sink.on_event(EngineEvent::OutputAck { k: 0 });
        sink.on_event(EngineEvent::FfPromoted {
            k: 5,
            lane: 0,
            growth: 7,
            period: 2,
        });
        let snap = sink.snapshot();
        assert_eq!(snap.events.offers, 1);
        assert_eq!(snap.events.output_acks, 1);
        assert_eq!(snap.regimes, vec![(7, 2)]);
        assert_eq!(snap.resources.len(), 2);
        assert_eq!(snap.resources[0].busy_ticks, 10);
        assert_eq!(snap.resources[1].busy_ticks, 4);
        assert_eq!(snap.total_busy_ticks(), 14);
    }

    #[test]
    fn sink_reset_seals_time_axis() {
        let mut sink = TelemetrySink::new();
        sink.on_records(0, &[rec(0, 100, 110, 1)]);
        sink.on_event(EngineEvent::Reset);
        // new scenario starts earlier on its own axis: not out of order
        sink.on_records(0, &[rec(0, 0, 10, 1)]);
        let snap = sink.snapshot();
        assert_eq!(snap.resources[0].busy_ticks, 20);
        assert_eq!(snap.resources[0].out_of_order, 0);
    }

    #[test]
    fn sink_lanes_have_independent_frontiers() {
        let mut sink = TelemetrySink::new();
        sink.on_records(0, &[rec(0, 50, 60, 1)]);
        sink.on_records(1, &[rec(0, 0, 10, 1)]); // earlier, different lane
        sink.on_records(0, &[rec(0, 60, 70, 1)]);
        let snap = sink.snapshot();
        assert_eq!(snap.resources[0].busy_ticks, 30);
        assert_eq!(snap.resources[0].out_of_order, 0);
    }

    #[test]
    fn shard_merge_matches_single_sink() {
        let mut a = TelemetrySink::new();
        a.on_records(0, &[rec(0, 0, 10, 5)]);
        a.on_event(EngineEvent::Offer {
            k: 0,
            lane: 0,
            replayed: false,
        });
        let mut b = TelemetrySink::new();
        b.on_records(0, &[rec(0, 0, 20, 7)]);
        b.on_event(EngineEvent::Offer {
            k: 0,
            lane: 0,
            replayed: true,
        });
        a.merge(b);
        let snap = a.snapshot();
        assert_eq!(snap.resources[0].busy_ticks, 30);
        assert_eq!(snap.resources[0].ops, 12);
        assert_eq!(snap.events.offers, 2);
        assert_eq!(snap.events.replayed_offers, 1);
    }

    #[test]
    fn delta_merge_adds_counters() {
        let mut a = DeltaCounters {
            calls_delta: 1,
            calls_full: 2,
            nodes_reused: 3,
            nodes_recomputed: 4,
            nodes_settled: 5,
            frontier_collapses: 6,
            ..DeltaCounters::default()
        };
        a.merge(&a.clone());
        assert_eq!(a.calls_delta, 2);
        assert_eq!(a.frontier_collapses, 12);
        assert_eq!(a.nodes_settled, 10);
        assert_eq!(a.lanes_delta, 0, "chain bookkeeping stays zero");
    }

    #[test]
    fn event_ratio_counts_avoided_over_boundary() {
        let mut sink = TelemetrySink::new();
        sink.engine.merge(&EngineCounters {
            nodes_computed: 98,
            ..EngineCounters::default()
        });
        for k in 0..2 {
            sink.on_event(EngineEvent::Offer {
                k,
                lane: 0,
                replayed: false,
            });
        }
        let snap = sink.snapshot();
        assert_eq!(snap.event_ratio(), Some(50.0));
        assert_eq!(TelemetrySink::new().snapshot().event_ratio(), None);
    }

    #[test]
    fn snapshot_merge_matches_sink_merge() {
        let mut a = TelemetrySink::new();
        a.on_records(0, &[rec(0, 0, 10, 5)]);
        a.serve.merge(&ServeCounters {
            requests: 3,
            rejected: 1,
            ..ServeCounters::default()
        });
        let mut b = TelemetrySink::new();
        b.on_records(0, &[rec(0, 0, 20, 7)]);
        b.on_records(0, &[rec(1, 5, 9, 2)]);
        b.serve.merge(&ServeCounters {
            requests: 4,
            batches_idle: 2,
            lanes_batched: 4,
            ..ServeCounters::default()
        });

        // Freeze the shards first, then merge the snapshots...
        let mut frozen = a.snapshot();
        frozen.merge(&b.snapshot());
        // ...which must equal merging the live sinks and freezing once.
        a.merge(b);
        let direct = a.snapshot();

        assert_eq!(frozen, direct);
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
        sink.on_records(0, &[rec(2, 0, 10, 5)]);
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
        sink.on_records(0, &[rec(0, 0, 10, 100)]);
        let doc = sink.snapshot().to_json().render();
        assert!(doc.contains("\"busy_ticks\":10"));
        assert!(doc.contains("\"batches_idle\":0"));
        assert!(doc.contains("\"event_ratio\":null"));
    }

    #[test]
    fn period_fold_matches_brute_force_small() {
        // One period: busy [0,10) ∪ [15,20), growth 8 → copies overlap.
        let records = [rec(0, 0, 10, 100), rec(0, 15, 20, 50)];
        let usage = PeriodUsage::from_records(&records, 8);
        for m in 1..=50u64 {
            let folded = usage.fold(m);
            let mut all = Vec::new();
            for c in 0..m {
                all.push(rec(0, 8 * c, 10 + 8 * c, 100));
                all.push(rec(0, 15 + 8 * c, 20 + 8 * c, 50));
            }
            let trace = evolve_model::ResourceTrace::from_records(&all, ResourceId::from_index(0));
            assert_eq!(folded[0].busy_ticks, trace.busy_ticks(), "m={m}");
            assert_eq!(folded[0].ops, 150 * m);
            assert_eq!(folded[0].records, 2 * m);
            assert_eq!(folded[0].durations.count(), 2 * m);
        }
    }

    #[test]
    fn period_fold_zero_growth_and_zero_periods() {
        let records = [rec(0, 0, 10, 1)];
        let usage = PeriodUsage::from_records(&records, 0);
        assert_eq!(usage.fold(5)[0].busy_ticks, 10);
        assert_eq!(usage.fold(0)[0].busy_ticks, 0);
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

        #[test]
        fn prop_period_fold_matches_brute_force(
            spans in proptest::collection::vec((0u64..200, 1u64..60), 1..8),
            shift in 0u64..250,
            m in 1u64..120,
        ) {
            let records: Vec<ExecRecord> =
                spans.iter().map(|(s, w)| rec(0, *s, s + w, 1)).collect();
            let usage = PeriodUsage::from_records(&records, shift);
            let folded = usage.fold(m);
            let mut all = Vec::new();
            for c in 0..m {
                for (s, w) in &spans {
                    all.push(rec(0, s + shift * c, s + w + shift * c, 1));
                }
            }
            let trace =
                evolve_model::ResourceTrace::from_records(&all, ResourceId::from_index(0));
            prop_assert_eq!(folded[0].busy_ticks, trace.busy_ticks());
        }
    }
}
