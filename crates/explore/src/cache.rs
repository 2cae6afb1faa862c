//! Shared engine-preparation and drive machinery.
//!
//! Both consumers of the fast evaluation stack — the batch-mode
//! [`run_sweep`](crate::run_sweep) worker pool and the `evolve-serve`
//! daemon's shard workers — need the same four ingredients:
//!
//! 1. **Prepared engines**: derive a [`ModelSpec`]'s graph once, build an
//!    [`Engine`] (or [`BatchedEngine`]), and recycle it across traces via
//!    allocation-stable reset ([`PreparedModel`] / [`PreparedBatch`]);
//! 2. **Per-owner caches** keyed by [`ModelSpec`] ([`EngineCaches`]), so a
//!    worker thread or connection shard reuses engines without locking;
//! 3. **The scalar drive with optional delta chaining**
//!    ([`drive_prepared`]): evaluate a trace fully, fully-under-capture,
//!    or as a delta against a sibling's captured base — bitwise identical
//!    on every path;
//! 4. **The structural family key** ([`delta_family_key`]) that decides
//!    which specs may share a [`DeltaCache`].
//!
//! The sweep planner and the serve admission queue group work differently
//! (grid order vs. arrival order under a deadline), but once a unit of
//! work is formed both dispatch through this module, so conformance
//! guarantees proven for one path carry to the other.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration as HostDuration, Instant};

use evolve_core::{
    derive_tdg, BatchUnsupported, BatchedEngine, DeltaCache, Engine, FastForward, FastForwardStats,
    ParallelConfig, PeriodicConfig,
};
use evolve_model::{Architecture, Arrival, ExecRecord, RelationId};
use evolve_obs::{downcast, DeltaCounters, TelemetrySink};

use crate::sweep::{ModelKind, ModelSpec, ScenarioOutcome};

/// Engine-construction knobs shared by every consumer of the cache layer
/// (the sweep translates its [`SweepConfig`](crate::SweepConfig) into one
/// of these; the serve daemon builds its own).
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Whether engines replay observation (execution records and internal
    /// instants).
    pub record_observations: bool,
    /// Periodic steady-state fast-forward mode.
    pub fast_forward: FastForward,
    /// Confirmation window, in detected periods, before promotion.
    pub ff_confirm_periods: u64,
    /// Partitioned intra-graph parallel evaluation for scalar compiled
    /// engines (`None` = serial sweep). Applies only above the config's
    /// own `min_nodes` engagement threshold; lockstep batched engines
    /// parallelize across lanes instead and ignore this.
    pub partition: Option<ParallelConfig>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            record_observations: true,
            fast_forward: FastForward::On,
            ff_confirm_periods: PeriodicConfig::default().confirm_periods,
            partition: None,
        }
    }
}

impl EngineOptions {
    /// The detector parameters these options translate to.
    pub fn periodic_config(&self) -> PeriodicConfig {
        PeriodicConfig {
            confirm_periods: self.ff_confirm_periods,
            ..PeriodicConfig::default()
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
        derived.map_tdg(|tdg| spec.pad_tdg(tdg));
    }
    let nodes = derived.tdg().node_count();
    let relation_count = arch.app().relations().len();
    let mut engine =
        Engine::with_backend(derived, relation_count, options.record_observations, spec.backend);
    engine.set_fast_forward_with(options.fast_forward, options.periodic_config());
    if options.partition.is_some() {
        // `None` must not strip the default runtime a `CompiledParallel`
        // backend attaches at construction.
        engine.set_partition(options.partition);
    }
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

/// Builds a lockstep batched engine for `spec` with `lanes` lanes.
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
        derived.map_tdg(|tdg| spec.pad_tdg(tdg));
    }
    let nodes = derived.tdg().node_count();
    let relation_count = arch.app().relations().len();
    let mut engine =
        BatchedEngine::try_new(derived, relation_count, options.record_observations, lanes)?;
    engine.set_fast_forward_with(options.fast_forward, options.periodic_config());
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

/// How a scalar evaluation participates in a delta chain.
#[derive(Debug)]
pub enum DeltaMode<'a> {
    /// Plain full evaluation (no chain, or a sibling after a failed
    /// capture).
    Off,
    /// Chain base: evaluate fully and capture the per-iteration cache.
    CaptureBase,
    /// Chain sibling: diff against the base cache.
    Sibling(&'a Arc<DeltaCache>),
}

/// What the delta layer did for one scalar evaluation.
#[derive(Debug)]
pub enum DeltaLaneOutcome {
    /// [`DeltaMode::Off`] — nothing requested.
    NotRequested,
    /// Base captured; siblings can attach this cache.
    Captured(Arc<DeltaCache>),
    /// The engine refused capture (reason string from
    /// [`DeltaUnsupported`](evolve_core::DeltaUnsupported)).
    CaptureFailed(&'static str),
    /// Sibling ran attached; counters for the whole drive.
    Attached(DeltaCounters),
    /// Sibling was refused attachment and evaluated fully.
    Ejected(&'static str),
}

/// Everything one scalar drive produced.
#[derive(Debug)]
pub struct PreparedDrive {
    /// The deterministic evaluation outcome (busy ticks filled).
    pub outcome: ScenarioOutcome,
    /// Fast-forward counters of this drive.
    pub fast_forward: FastForwardStats,
    /// What the delta layer did.
    pub delta: DeltaLaneOutcome,
    /// Whether the drive reused a previously derived engine.
    pub reused_engine: bool,
    /// Host wall-clock time of the engine drive alone.
    pub wall: HostDuration,
}

/// Drives one trace through a cached scalar engine, optionally capturing
/// or consuming a delta-chain cache, with an optional telemetry sink
/// attached for the duration of the drive (one `Box` round-trip, no
/// reallocation).
///
/// The outcome is bitwise identical across [`DeltaMode`]s and with or
/// without the sink — the conformance suites pin both down. Used by the
/// sweep's scalar path and the serve daemon's shard workers, so both
/// dispatch through one drive implementation.
///
/// # Panics
///
/// Panics if the engine has more than one external input/output pending
/// or an acknowledgment fails to resolve (multi-input graphs).
pub fn drive_prepared(
    prepared: &mut PreparedModel,
    arrivals: &[Arrival],
    options: &EngineOptions,
    tel: &mut Option<Box<TelemetrySink>>,
    mode: DeltaMode<'_>,
) -> PreparedDrive {
    let reused_engine = prepared.uses > 0;
    if reused_engine {
        prepared.engine.reset();
    }
    prepared.uses += 1;

    let mut delta_outcome = DeltaLaneOutcome::NotRequested;
    match &mode {
        DeltaMode::Off => {}
        DeltaMode::CaptureBase => {
            // Fast-forward replay stops row capture, which would truncate
            // the cache and starve the siblings; trade the base's
            // fast-forward (bitwise-invisible either way) for full
            // coverage. The configured mode is restored after the drive.
            prepared
                .engine
                .set_fast_forward_with(FastForward::Off, options.periodic_config());
            if let Err(e) = prepared.engine.begin_delta_capture() {
                delta_outcome = DeltaLaneOutcome::CaptureFailed(e.reason());
            }
        }
        DeltaMode::Sibling(base) => {
            if let Err(e) = prepared.engine.attach_delta_base(Arc::clone(base)) {
                delta_outcome = DeltaLaneOutcome::Ejected(e.reason());
            }
        }
    }

    if let Some(sink) = tel.take() {
        prepared.engine.attach_observer(sink);
    }
    let start = Instant::now();
    let mut outcome = crate::sweep::drive_engine(&mut prepared.engine, arrivals);
    let wall = start.elapsed();
    if let Some(ob) = prepared.engine.detach_observer() {
        let mut sink = downcast::<TelemetrySink>(ob);
        sink.seal_lanes();
        *tel = Some(sink);
    }
    if let Some(sink) = tel.as_deref_mut() {
        // Per-drive counters: `reset` (engine reuse) restarts them, and a
        // detached runtime reports all-zero, which merges as a no-op.
        sink.partition.merge(&prepared.engine.partition_stats());
    }
    let fast_forward = prepared.engine.fast_forward_stats();
    outcome.busy_ticks = busy_per_resource(&outcome.exec_records, prepared.resource_count);

    match &mode {
        DeltaMode::Off => {}
        DeltaMode::CaptureBase => {
            if matches!(delta_outcome, DeltaLaneOutcome::NotRequested) {
                delta_outcome = DeltaLaneOutcome::Captured(prepared.engine.finish_delta_capture());
            }
            // Put the cached engine back the way `prepare` left it, so
            // later plain reuses of this model see the configured
            // fast-forward mode. Reset first: the mode switch requires a
            // quiescent engine, and the outcome is already extracted.
            prepared.engine.reset();
            prepared
                .engine
                .set_fast_forward_with(options.fast_forward, options.periodic_config());
        }
        DeltaMode::Sibling(_) => {
            if matches!(delta_outcome, DeltaLaneOutcome::NotRequested) {
                delta_outcome = DeltaLaneOutcome::Attached(prepared.engine.detach_delta());
            }
        }
    }

    PreparedDrive {
        outcome,
        fast_forward,
        delta: delta_outcome,
        reused_engine,
        wall,
    }
}

/// Busy ticks per resource index, summed over execution records.
pub fn busy_per_resource(records: &[ExecRecord], resources: usize) -> Vec<u64> {
    let mut busy = vec![0u64; resources];
    for r in records {
        busy[r.resource.index()] += r.end.ticks() - r.start.ticks();
    }
    busy
}

/// Graph-shape component of a delta-family key: two specs may share a
/// [`DeltaCache`] only when their compiled graphs are structurally
/// identical, which for the built-in models means the same kind, stage
/// count, and padding — load parameters
/// ([`ModelKind::Pipeline`]'s `base`/`per_unit`) only move arc weights,
/// exactly the perturbations delta evaluation absorbs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum FamilyShape {
    Didactic { stages: usize },
    Pipeline { stages: usize },
    WidePipeline { stages: usize, chains: usize },
}

/// The structural delta-family key of a [`ModelSpec`]; see
/// [`delta_family_key`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DeltaFamilyKey {
    shape: FamilyShape,
    padding: usize,
}

/// The delta-family key of a model, or `None` when the model is
/// ineligible for delta chaining (worklist backend — the delta sweep is a
/// compiled-path optimization). Callers must additionally reject empty
/// traces (nothing to chain) and models whose capture the engine refuses
/// (multi-input, acked outputs) — both surface as typed ejections at
/// drive time.
pub fn delta_family_key(model: &ModelSpec) -> Option<DeltaFamilyKey> {
    if model.backend != evolve_core::EvalBackend::Compiled {
        return None;
    }
    let shape = match model.kind {
        ModelKind::Didactic { stages } => FamilyShape::Didactic { stages },
        ModelKind::Pipeline { stages, .. } => FamilyShape::Pipeline { stages },
        // `chains` reshapes the padded graph, so it is structural.
        ModelKind::WidePipeline { stages, chains, .. } => FamilyShape::WidePipeline { stages, chains },
    };
    Some(DeltaFamilyKey {
        shape,
        padding: model.padding,
    })
}

/// Drives `traces.len()` independent traces through the lanes of a cached
/// batched engine (reset and re-laned on reuse), mirroring
/// [`drive_prepared`]'s role on the lockstep path: both the sweep's batch
/// units and the serve daemon's affinity batches dispatch through here.
///
/// Returns the per-lane outcomes (busy ticks filled) and whether the
/// engine was reused. Per-lane engine and fast-forward counters are read
/// back off `prepared.engine` by the caller
/// ([`BatchedEngine::lane_stats`]/
/// [`lane_fast_forward_stats`](BatchedEngine::lane_fast_forward_stats)).
///
/// # Panics
///
/// Panics if an acknowledgment fails to resolve (batched engines are
/// gated to single-input, ack-free graphs at construction).
pub fn drive_prepared_batch(
    prepared: &mut PreparedBatch,
    traces: &[&[Arrival]],
    tel: &mut Option<Box<TelemetrySink>>,
) -> (Vec<ScenarioOutcome>, bool, HostDuration) {
    let width = traces.len();
    let reused_engine = prepared.uses > 0;
    if reused_engine {
        prepared.engine.reset(width);
    }
    prepared.uses += 1;

    if let Some(sink) = tel.take() {
        prepared.engine.attach_observer(sink);
    }
    let start = Instant::now();
    let mut outcomes = crate::sweep::drive_batch(&mut prepared.engine, traces);
    let wall = start.elapsed();
    if let Some(ob) = prepared.engine.detach_observer() {
        let mut sink = downcast::<TelemetrySink>(ob);
        sink.seal_lanes();
        *tel = Some(sink);
    }
    for outcome in &mut outcomes {
        outcome.busy_ticks = busy_per_resource(&outcome.exec_records, prepared.resource_count);
    }
    (outcomes, reused_engine, wall)
}

/// A cached [`DeltaCache`] per structural family — the cross-request
/// continuation of the sweep's per-chain base capture: the first scalar
/// evaluation of a family is captured, later requests of the same family
/// attach the frozen base and propagate only their change frontier.
#[derive(Debug, Default)]
pub struct DeltaBases {
    bases: HashMap<DeltaFamilyKey, Arc<DeltaCache>>,
}

impl DeltaBases {
    /// The cached base for `key`, if a capture completed earlier.
    pub fn get(&self, key: &DeltaFamilyKey) -> Option<&Arc<DeltaCache>> {
        self.bases.get(key)
    }

    /// Stores (or replaces) the base for `key`.
    pub fn insert(&mut self, key: DeltaFamilyKey, cache: Arc<DeltaCache>) {
        self.bases.insert(key, cache);
    }

    /// Number of captured bases held.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// Whether no base has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{drive_engine, TraceSpec};
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
    fn family_keys_group_by_shape_not_load() {
        let a = delta_family_key(&spec(50)).unwrap();
        let b = delta_family_key(&spec(90)).unwrap();
        assert_eq!(a, b, "load parameters only move arc weights");
        let worklist = ModelSpec { backend: EvalBackend::Worklist, ..spec(50) };
        assert!(delta_family_key(&worklist).is_none());
        let padded = ModelSpec { padding: 8, ..spec(50) };
        assert_ne!(delta_family_key(&padded).unwrap(), a);
    }

    #[test]
    fn capture_then_sibling_is_bitwise_identical_to_full() {
        let options = EngineOptions::default();
        let base_spec = spec(50);
        let sib_spec = spec(90);
        let base_arrivals = trace(1).stimulus();
        let sib_arrivals = trace(2).stimulus();

        // Reference: full evaluations on fresh engines.
        let mut reference = prepare(&sib_spec, &options);
        let full = drive_engine(&mut reference.engine, sib_arrivals.arrivals());

        // Chain: capture the base, attach the sibling.
        let mut caches = EngineCaches::default();
        let captured = drive_prepared(
            caches.scalar_mut(&base_spec, &options),
            base_arrivals.arrivals(),
            &options,
            &mut None,
            DeltaMode::CaptureBase,
        );
        let cache = match captured.delta {
            DeltaLaneOutcome::Captured(cache) => cache,
            other => panic!("capture must succeed: {other:?}"),
        };
        let sib = drive_prepared(
            caches.scalar_mut(&sib_spec, &options),
            sib_arrivals.arrivals(),
            &options,
            &mut None,
            DeltaMode::Sibling(&cache),
        );
        match sib.delta {
            DeltaLaneOutcome::Attached(stats) => {
                assert!(stats.calls_delta > 0, "{stats:?}")
            }
            other => panic!("sibling must attach: {other:?}"),
        }
        assert_eq!(sib.outcome.outputs, full.outputs);
        assert_eq!(sib.outcome.input_acks, full.input_acks);
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
