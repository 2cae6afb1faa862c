//! Shared engine-preparation and drive machinery.
//!
//! Both consumers of the fast evaluation stack — the batch-mode
//! [`run_sweep`](crate::run_sweep) worker pool and the `evolve-serve`
//! daemon's shard workers — need the same three ingredients:
//!
//! 1. **Prepared engines**: derive a [`ModelSpec`]'s graph once, build an
//!    [`Engine`] (or [`BatchedEngine`]), and recycle it across traces via
//!    allocation-stable reset ([`PreparedModel`] / [`PreparedBatch`]);
//! 2. **Per-owner caches** keyed by [`ModelSpec`] ([`EngineCaches`]), so a
//!    worker thread or connection shard reuses engines without locking;
//! 3. **The drives** ([`drive_prepared`], [`drive_prepared_batch`]): one
//!    trace through a scalar engine, or one trace per lane through a
//!    batched engine, and the one telemetry fold of a finished drive
//!    ([`fold_drive`]).
//!
//! The sweep planner and the serve admission queue group work differently
//! (grid order vs. arrival order under a deadline), but once a unit of
//! work is formed both dispatch through this module, so conformance
//! guarantees proven for one path carry to the other.

use std::collections::HashMap;
use std::time::{Duration as HostDuration, Instant};

use evolve_core::{
    derive_tdg, synthetic, BatchUnsupported, BatchedEngine, Engine, FastForward, FastForwardStats,
    DEFAULT_CONFIRM_PERIODS,
};
use evolve_model::{Architecture, Arrival, ExecRecord, RelationId};
use evolve_obs::TelemetrySink;

use crate::sweep::{ModelSpec, ScenarioOutcome};

/// Engine-construction knobs shared by every consumer of the cache layer
/// (the sweep translates its [`SweepConfig`](crate::SweepConfig) into one
/// of these; the serve daemon builds its own).
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Whether engines replay observation (execution records and internal
    /// instants).
    pub record_observations: bool,
    /// Periodic steady-state fast-forward mode of scalar engines; batched
    /// engines never fast-forward.
    pub fast_forward: FastForward,
    /// Confirmation window, in detected periods, before promotion.
    pub ff_confirm_periods: u64,
    /// Always `None`, the only value of its type: the partitioned sweep
    /// this field configured is gone. Kept only because the benchmark
    /// crate builds this struct with every field named; the next
    /// benchmark change (ROADMAP item 10) removes it.
    pub partition: Option<std::convert::Infallible>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            record_observations: true,
            fast_forward: FastForward::On,
            ff_confirm_periods: DEFAULT_CONFIRM_PERIODS,
            partition: None,
        }
    }
}

/// A derived model cached by a worker: the engine (reset between traces)
/// plus the metadata the drive loop needs.
#[derive(Debug)]
pub struct PreparedModel {
    /// The reusable scalar engine.
    pub engine: Engine,
    /// The built architecture (kept for conventional-reference runs).
    pub arch: Architecture,
    /// External input relation.
    pub input: RelationId,
    /// External output relation.
    pub output: RelationId,
    /// Platform resource count (for busy-tick folding).
    pub resource_count: usize,
    /// Node count of the derived (and padded) graph.
    pub nodes: usize,
    /// Times this engine has been claimed for a drive (0 = fresh).
    pub uses: usize,
}

/// Builds and caches-ready a scalar engine for `spec`.
///
/// # Panics
///
/// Panics if the model fails to build or derive (specs are
/// programmer-controlled).
pub fn prepare(spec: &ModelSpec, options: &EngineOptions) -> PreparedModel {
    let (arch, input, output) = spec.build();
    let mut derived = derive_tdg(&arch).expect("cached models derive");
    if spec.padding > 0 {
        derived.map_tdg(|tdg| synthetic::pad(tdg, spec.padding));
    }
    let nodes = derived.tdg().node_count();
    let relation_count = arch.app().relations().len();
    let mut engine =
        Engine::with_backend(derived, relation_count, options.record_observations, spec.backend);
    engine.set_fast_forward_with(options.fast_forward, options.ff_confirm_periods);
    let resource_count = arch.platform().len();
    PreparedModel {
        engine,
        arch,
        input,
        output,
        resource_count,
        nodes,
        uses: 0,
    }
}

/// A batched model cached by a worker: one [`BatchedEngine`] reset (and
/// re-laned) between batches of the same [`ModelSpec`].
#[derive(Debug)]
pub struct PreparedBatch {
    /// The reusable lockstep engine.
    pub engine: BatchedEngine,
    /// The built architecture (kept for conventional-reference runs).
    pub arch: Architecture,
    /// External input relation.
    pub input: RelationId,
    /// External output relation.
    pub output: RelationId,
    /// Platform resource count (for busy-tick folding).
    pub resource_count: usize,
    /// Node count of the derived (and padded) graph.
    pub nodes: usize,
    /// Times this engine has been claimed for a drive (0 = fresh).
    pub uses: usize,
}

/// Builds a lockstep batched engine for `spec` with `lanes` lanes. Only
/// `options.record_observations` applies: batched engines do not
/// fast-forward.
///
/// # Errors
///
/// Returns the typed [`BatchUnsupported`] gate result when the graph shape
/// cannot run in lockstep (multi-input, output acks, long size-derivation
/// delays).
///
/// # Panics
///
/// Panics if the model fails to build or derive.
pub fn prepare_batch(
    spec: &ModelSpec,
    options: &EngineOptions,
    lanes: usize,
) -> Result<PreparedBatch, BatchUnsupported> {
    let (arch, input, output) = spec.build();
    let mut derived = derive_tdg(&arch).expect("cached models derive");
    if spec.padding > 0 {
        derived.map_tdg(|tdg| synthetic::pad(tdg, spec.padding));
    }
    let nodes = derived.tdg().node_count();
    let relation_count = arch.app().relations().len();
    let engine =
        BatchedEngine::try_new(derived, relation_count, options.record_observations, lanes)?;
    let resource_count = arch.platform().len();
    Ok(PreparedBatch {
        engine,
        arch,
        input,
        output,
        resource_count,
        nodes,
        uses: 0,
    })
}

/// Per-owner engine caches: scalar engines and batched engines are cached
/// separately (both keyed by [`ModelSpec`]), since an ejected lane must
/// not poison — or be poisoned by — the batch cache. One instance lives on
/// each sweep worker and each serve shard; no locking anywhere.
#[derive(Debug, Default)]
pub struct EngineCaches {
    /// Scalar engines, one per distinct spec.
    pub scalar: HashMap<ModelSpec, PreparedModel>,
    /// Batched engines (or the model's typed rejection, discovered once),
    /// one per distinct spec; an engine re-lanes on reset, so one serves
    /// every batch width.
    pub batch: HashMap<ModelSpec, Result<PreparedBatch, BatchUnsupported>>,
}

impl EngineCaches {
    /// The cached scalar engine for `spec`, prepared on first use.
    pub fn scalar_mut(&mut self, spec: &ModelSpec, options: &EngineOptions) -> &mut PreparedModel {
        self.scalar
            .entry(spec.clone())
            .or_insert_with(|| prepare(spec, options))
    }
}

/// Always [`DeltaMode::Off`], the only value of its type: the delta
/// chaining this argument of [`drive_prepared`] selected is gone. Kept
/// only because the benchmark crate passes it; the next benchmark change
/// (ROADMAP item 10) removes it.
#[derive(Clone, Copy, Debug)]
pub enum DeltaMode {
    /// Plain evaluation, the only mode.
    Off,
}

/// Everything one scalar drive produced.
#[derive(Debug)]
pub struct PreparedDrive {
    /// The deterministic evaluation outcome (busy ticks filled).
    pub outcome: ScenarioOutcome,
    /// Fast-forward counters of this drive.
    pub fast_forward: FastForwardStats,
    /// Whether the drive reused a previously derived engine.
    pub reused_engine: bool,
    /// Host wall-clock time of the engine drive alone.
    pub wall: HostDuration,
}

/// Drives one trace through a cached scalar engine. Neither `_options`
/// (the engine was built with its options by [`prepare`]), the inert
/// `_mode` nor `_tel` (telemetry folds the finished drive, see
/// [`fold_drive`]) is read; the benchmark crate passes all three, and its
/// next change (ROADMAP item 10) drops them.
///
/// Used by the sweep's scalar path and the serve daemon's shard workers,
/// so both dispatch through one drive implementation.
///
/// # Panics
///
/// Panics if the engine has more than one external input/output pending
/// or an acknowledgment fails to resolve (multi-input graphs).
pub fn drive_prepared(
    prepared: &mut PreparedModel,
    arrivals: &[Arrival],
    _options: &EngineOptions,
    _tel: &mut Option<Box<TelemetrySink>>,
    _mode: DeltaMode,
) -> PreparedDrive {
    let reused_engine = prepared.uses > 0;
    if reused_engine {
        prepared.engine.reset();
    }
    prepared.uses += 1;

    let start = Instant::now();
    let mut outcome = crate::sweep::drive_engine(&mut prepared.engine, arrivals);
    let wall = start.elapsed();
    let fast_forward = prepared.engine.fast_forward_stats();
    outcome.busy_ticks = busy_per_resource(&outcome.exec_records, prepared.resource_count);

    PreparedDrive {
        outcome,
        fast_forward,
        reused_engine,
        wall,
    }
}

/// The telemetry fold: one finished drive (or batch lane) into `sink` —
/// its execution records in production order, its engine counters, its
/// fast-forward counters and detected regime, and its boundary
/// exchanges. A sweep folds each of its scenarios, a serve shard each
/// lane it answers.
pub fn fold_drive(sink: &mut TelemetrySink, outcome: &ScenarioOutcome, ff: &FastForwardStats) {
    sink.fold_drive(
        &outcome.exec_records,
        &outcome.engine_stats,
        &(*ff).into(),
        ff.detected.map(|d| (d.growth, d.period)),
        outcome.boundary_events,
    );
}

/// Busy ticks per resource index, summed over execution records.
pub fn busy_per_resource(records: &[ExecRecord], resources: usize) -> Vec<u64> {
    let mut busy = vec![0u64; resources];
    for r in records {
        busy[r.resource.index()] += r.end.ticks() - r.start.ticks();
    }
    busy
}

/// Drives `traces.len()` independent traces through the lanes of a cached
/// batched engine (reset and re-laned on reuse), mirroring
/// [`drive_prepared`]'s role on the lockstep path: both the sweep's batch
/// units and the serve daemon's affinity batches dispatch through here.
///
/// Returns the per-lane outcomes (busy ticks and per-lane engine counters
/// filled), whether the engine was reused and the drive's wall time;
/// lanes have no fast-forward counters, since batches do not
/// fast-forward. `_tel` is not read (telemetry folds each finished lane,
/// see [`fold_drive`]); the benchmark crate passes it, and its next
/// change (ROADMAP item 10) drops it.
///
/// # Panics
///
/// Panics if an acknowledgment fails to resolve (batched engines are
/// gated to single-input, ack-free graphs at construction).
pub fn drive_prepared_batch(
    prepared: &mut PreparedBatch,
    traces: &[&[Arrival]],
    _tel: &mut Option<Box<TelemetrySink>>,
) -> (Vec<ScenarioOutcome>, bool, HostDuration) {
    let width = traces.len();
    let reused_engine = prepared.uses > 0;
    if reused_engine {
        prepared.engine.reset(width);
    }
    prepared.uses += 1;

    let start = Instant::now();
    let mut outcomes = crate::sweep::drive_batch(&mut prepared.engine, traces);
    let wall = start.elapsed();
    for outcome in &mut outcomes {
        outcome.busy_ticks = busy_per_resource(&outcome.exec_records, prepared.resource_count);
    }
    (outcomes, reused_engine, wall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{ModelKind, TraceSpec};
    use evolve_core::EvalBackend;

    fn spec(base: u64) -> ModelSpec {
        ModelSpec {
            kind: ModelKind::Pipeline { stages: 3, base, per_unit: 2 },
            padding: 0,
            backend: EvalBackend::Compiled,
        }
    }

    fn trace(seed: u64) -> TraceSpec {
        TraceSpec { tokens: 30, min_size: 1, max_size: 32, mean_period: 0, seed }
    }

    #[test]
    fn engines_are_reused_via_reset() {
        let options = EngineOptions::default();
        let mut caches = EngineCaches::default();
        let arrivals = trace(3).stimulus();
        let first = drive_prepared(
            caches.scalar_mut(&spec(50), &options),
            arrivals.arrivals(),
            &options,
            &mut None,
            DeltaMode::Off,
        );
        let second = drive_prepared(
            caches.scalar_mut(&spec(50), &options),
            arrivals.arrivals(),
            &options,
            &mut None,
            DeltaMode::Off,
        );
        assert!(!first.reused_engine);
        assert!(second.reused_engine);
        assert_eq!(first.outcome, second.outcome, "reset is allocation-stable and exact");
    }
}
