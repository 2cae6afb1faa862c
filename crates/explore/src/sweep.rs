//! Parallel scenario sweeps with engine reuse.
//!
//! The paper's motivation for the dynamic computation method is that early
//! design-space exploration must evaluate *many* scenarios — different graph
//! sizes, loads, and input traces — quickly. This module industrializes that
//! loop: a [`Sweep`](run_sweep) takes a batch of [`ScenarioSpec`]s, shards
//! them across a fixed pool of worker threads (plain `std::thread` plus
//! channels — no external runtime), and evaluates each scenario by driving
//! the [`Engine`] directly, without a simulation kernel in the loop.
//!
//! Two properties make the sharding safe and cheap:
//!
//! * **Determinism** — scenario traces are generated from per-scenario
//!   [`SplitMix64`] streams and the engine itself is a deterministic
//!   fixed-point computation, so the [`ScenarioOutcome`] of every scenario
//!   is bitwise independent of thread count and scheduling order. The
//!   differential conformance suite (`crates/core/tests/sweep_conformance.rs`)
//!   checks this against both the single-threaded path and the full
//!   discrete-event reference simulation.
//! * **Engine reuse** — each worker keeps one engine per distinct
//!   [`ModelSpec`] and [`Engine::reset`]s it between traces, so a sweep of
//!   hundreds of traces over a handful of models derives each graph once
//!   per worker and allocates no per-scenario ring buffers.
//!
//! With [`SweepConfig::batch_width`] above one, compiled-backend scenarios
//! sharing a [`ModelSpec`] are additionally grouped into lockstep lanes of a
//! [`BatchedEngine`], amortizing the schedule walk across the batch;
//! scenarios the batch gate rejects (worklist backend, empty traces,
//! leftover single lanes, unsupported graph shapes) are *ejected* to the
//! scalar path — never dropped — and counted per reason in
//! [`SweepReport::batching`].
//!
//! ```
//! use evolve_explore::{run_sweep, ModelKind, ModelSpec, ScenarioSpec, SweepConfig, TraceSpec};
//!
//! let scenarios: Vec<ScenarioSpec> = (0..8)
//!     .map(|i| ScenarioSpec {
//!         label: format!("didactic-{i}"),
//!         model: ModelSpec {
//!             kind: ModelKind::Didactic { stages: 2 },
//!             padding: 0,
//!             backend: Default::default(),
//!         },
//!         trace: TraceSpec { tokens: 50, min_size: 1, max_size: 64, mean_period: 0, seed: i },
//!     })
//!     .collect();
//! let report = run_sweep(&scenarios, &SweepConfig { threads: 4, ..SweepConfig::default() });
//! assert_eq!(report.scenarios.len(), 8);
//! assert!(report.scenarios.iter().all(|s| s.outcome.outputs.len() == 50));
//! ```

use std::collections::{HashMap, VecDeque};
use std::sync::{mpsc, Mutex};
use std::time::{Duration as HostDuration, Instant};

use evolve_core::{synthetic, BatchedEngine, Engine, EvalBackend, FastForward, FastForwardStats};
use evolve_des::{SplitMix64, Time};
use evolve_model::{
    didactic, elaborate, Architecture, Arrival, Environment, ExecRecord, RelationId, Stimulus,
};
use evolve_obs::json::Json;
use evolve_obs::{BatchCounters, EngineCounters, MetricsSnapshot, TelemetrySink, TraceCollector};

use crate::cache::{
    busy_per_resource, drive_prepared, drive_prepared_batch, fold_drive, prepare, prepare_batch,
    DeltaMode, EngineCaches, EngineOptions, PreparedModel,
};

/// Which architecture a scenario evaluates.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The paper's didactic two-function example, chained `stages` times
    /// ([`didactic::chained`]).
    Didactic {
        /// Number of chained didactic stages (≥ 1).
        stages: usize,
    },
    /// A synthetic linear pipeline ([`synthetic::pipeline`]) with
    /// `base + per_unit × size` loads.
    Pipeline {
        /// Pipeline length in functions (≥ 1).
        stages: usize,
        /// Base load in abstract operations.
        base: u64,
        /// Additional operations per token-size unit.
        per_unit: u64,
    },
}

/// A derivable model: the architecture kind, the graph-padding knob
/// (extra computation-only nodes, the paper's Fig. 5 x-axis), and the
/// engine evaluation backend.
///
/// `ModelSpec` is the engine-reuse key: scenarios sharing a spec share one
/// derived graph and one reset-recycled [`Engine`] per worker. The backend
/// is part of the key, so compiled and worklist evaluations of the same
/// graph get distinct cached engines.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ModelSpec {
    /// The architecture to derive.
    pub kind: ModelKind,
    /// Computation-only padding nodes appended to the derived graph.
    pub padding: usize,
    /// Engine evaluation backend (compiled CSR sweep or reference
    /// worklist).
    pub backend: EvalBackend,
}

impl ModelSpec {
    /// Builds the architecture with its external input/output handles.
    ///
    /// # Panics
    ///
    /// Panics on zero-stage models (specs are programmer-controlled).
    pub fn build(&self) -> (Architecture, RelationId, RelationId) {
        match self.kind {
            ModelKind::Didactic { stages } => {
                let d = didactic::chained(stages, didactic::Params::default())
                    .expect("didactic model builds");
                let (input, output) = (d.input(), d.output());
                (d.arch, input, output)
            }
            ModelKind::Pipeline {
                stages,
                base,
                per_unit,
            } => {
                let p = synthetic::pipeline(stages, base, per_unit).expect("pipeline builds");
                (p.arch, p.input, p.output)
            }
        }
    }
}

/// A deterministic input trace, generated from [`SplitMix64`] streams so
/// the same spec yields the same arrivals on any thread.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TraceSpec {
    /// Number of input tokens.
    pub tokens: u64,
    /// Minimum token size (abstract units driving data-dependent loads).
    pub min_size: u64,
    /// Maximum token size (inclusive).
    pub max_size: u64,
    /// Mean inter-arrival gap in ticks; `0` = saturating source (every
    /// token offered at time zero, the back-pressure regime).
    pub mean_period: u64,
    /// Seed of the per-scenario random streams.
    pub seed: u64,
}

impl TraceSpec {
    /// Materializes the arrivals.
    pub fn stimulus(&self) -> Stimulus {
        let root = SplitMix64::new(self.seed);
        let (lo, hi) = (self.min_size.min(self.max_size), self.max_size.max(self.min_size));
        let mut at = Time::ZERO;
        let arrivals = (0..self.tokens)
            .map(|k| {
                if self.mean_period > 0 && k > 0 {
                    // Uniform gap in [mean/2, 3·mean/2]: mean-preserving jitter.
                    let gap = root
                        .fork(2 * k)
                        .range_inclusive(self.mean_period / 2, 3 * self.mean_period / 2);
                    at = Time::from_ticks(at.ticks().saturating_add(gap));
                }
                Arrival {
                    at,
                    size: root.fork(2 * k + 1).range_inclusive(lo, hi),
                }
            })
            .collect();
        Stimulus::new(arrivals)
    }
}

/// One scenario of a sweep: a model and a trace to evaluate it under.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ScenarioSpec {
    /// Human-readable label carried into the report.
    pub label: String,
    /// The model to derive (and reuse across scenarios that share it).
    pub model: ModelSpec,
    /// The input trace.
    pub trace: TraceSpec,
}

/// The deterministic part of a scenario evaluation — everything here is
/// bitwise identical regardless of thread count, scheduling, or whether the
/// engine was fresh or reused.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Output sequence `(k, y(k) ticks, token size)`.
    pub outputs: Vec<(u64, u64, u64)>,
    /// Input acknowledgment instants in ticks (the boundary back-pressure).
    pub input_acks: Vec<u64>,
    /// Execution records replayed from computed instants.
    pub exec_records: Vec<ExecRecord>,
    /// Engine computation counters for this trace alone.
    pub engine_stats: EngineCounters,
    /// Busy ticks per resource index, summed over execution records.
    pub busy_ticks: Vec<u64>,
    /// Boundary exchanges a kernel would have simulated (one per input
    /// offer and per output write, the kernel's transfer count).
    pub boundary_events: u64,
}

/// One evaluated scenario: the deterministic outcome plus host-timing and
/// bookkeeping data that may vary run to run.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Index of the scenario in the sweep's input order.
    pub index: usize,
    /// The scenario's label.
    pub label: String,
    /// The deterministic evaluation outcome.
    pub outcome: ScenarioOutcome,
    /// Node count of the derived (and padded) graph.
    pub nodes: usize,
    /// Evaluation backend the scenario ran on.
    pub backend: EvalBackend,
    /// Whether this evaluation reused a previously derived engine.
    pub reused_engine: bool,
    /// Whether this scenario ran as a lane of a [`BatchedEngine`] (as
    /// opposed to the scalar per-scenario path).
    pub batched: bool,
    /// Host wall-clock time of the engine drive. For batched scenarios
    /// this is the batch drive time divided by the lane count — the
    /// per-lane amortized cost, comparable to the scalar wall.
    pub wall: HostDuration,
    /// Fast-forward counters of this scenario's drive (all zero when
    /// [`SweepConfig::fast_forward`] is off, the model is ineligible, no
    /// periodic regime was detected, or the scenario ran as a batched
    /// lane: batches do not fast-forward).
    pub fast_forward: FastForwardStats,
    /// Conventional-reference comparison, when requested.
    pub reference: Option<ReferenceComparison>,
}

/// Results of re-running a scenario on the conventional discrete-event
/// model (requested via [`SweepConfig::compare_conventional`]): an accuracy
/// and event-ratio check. It carries no speed-up: the engine drive runs
/// without a kernel, so it has nothing to race the conventional run's.
#[derive(Clone, Debug)]
pub struct ReferenceComparison {
    /// Relation-exchange events the conventional kernel simulated.
    pub events: u64,
    /// Whether output instants agreed exactly with the engine drive.
    pub accurate: bool,
}

impl ScenarioResult {
    /// Event ratio against the conventional reference (paper Table I
    /// column 3); `None` without a reference run.
    pub fn event_ratio(&self) -> Option<f64> {
        self.reference
            .as_ref()
            .map(|r| r.events as f64 / self.outcome.boundary_events.max(1) as f64)
    }
}

/// Sweep execution parameters.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Worker threads (≥ 1). `1` runs everything on the calling thread —
    /// the reference path of the conformance suite.
    pub threads: usize,
    /// Whether engines replay observation (execution records and internal
    /// instants). Disabling trades observability for speed.
    pub record_observations: bool,
    /// Also run the conventional discrete-event model per scenario and
    /// record the comparison ([`ScenarioResult::reference`]).
    pub compare_conventional: bool,
    /// Maximum lanes per [`BatchedEngine`] batch. `1` (the default)
    /// disables batching entirely and every scenario takes the scalar
    /// path; see `docs/SWEEP.md` for tuning guidance.
    pub batch_width: usize,
    /// Periodic steady-state fast-forward for scalar compiled engines;
    /// batched lanes never fast-forward and report zeroed
    /// [`FastForwardStats`]. [`FastForward::On`] by default: outcomes are
    /// guaranteed bitwise identical either way (aperiodic traces simply
    /// never promote), so the knob exists for A/B timing runs
    /// (`--no-fast-forward` on the sweep binary) rather than correctness.
    pub fast_forward: FastForward,
    /// Ignored: the delta chaining this field switched is gone. Kept only
    /// because the benchmark crate builds this struct with it named; the
    /// next benchmark change (ROADMAP item 10) removes it.
    pub delta: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            record_observations: true,
            compare_conventional: false,
            batch_width: 1,
            fast_forward: FastForward::On,
            delta: false,
        }
    }
}

/// What [`SweepReport::delta`] holds: the counters of the deleted
/// delta-chaining layer, every one 0, in neither the JSON report nor the
/// metrics snapshot. Kept only because the benchmark crate still reads
/// them; the next benchmark change (ROADMAP item 10) removes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Always 0.
    pub lanes_delta: u64,
    /// Always 0.
    pub nodes_reused: u64,
    /// Always 0.
    pub nodes_recomputed: u64,
}

/// A completed sweep: per-scenario results in input order plus aggregate
/// counters.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Worker threads used.
    pub threads: usize,
    /// Per-scenario results, ordered by [`ScenarioResult::index`].
    pub scenarios: Vec<ScenarioResult>,
    /// Counters of the batched scheduling layer. Every scenario is either
    /// a batched lane (`lanes_batched`) or a scalar evaluation
    /// (`lanes_scalar`); the `eject_*` counters break the scalar side down
    /// by the reason the batching layer turned the scenario away.
    pub batching: BatchCounters,
    /// All zero: see [`DeltaReport`].
    pub delta: DeltaReport,
    /// Host wall-clock time of the whole sweep.
    pub wall: HostDuration,
}

impl SweepReport {
    /// Sweep throughput in scenarios per second of host wall-clock — the
    /// headline exploration metric.
    pub fn scenarios_per_second(&self) -> f64 {
        self.scenarios.len() as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// Scenarios that reused a previously derived engine.
    pub fn reused_count(&self) -> usize {
        self.scenarios.iter().filter(|s| s.reused_engine).count()
    }

    /// Fast-forward counters folded over all scenarios.
    pub fn total_fast_forward_stats(&self) -> FastForwardStats {
        let mut total = FastForwardStats::default();
        for s in &self.scenarios {
            total.merge(&s.fast_forward);
        }
        total
    }

    /// One [`MetricsSnapshot`] of the whole sweep: every scenario folded
    /// in input order by [`fold_drive`] (its
    /// records, engine and fast-forward counters, detected regime and
    /// boundary exchanges), plus the batching counters — so the sweep
    /// exports through the same Prometheus/JSON exporters as the serve
    /// daemon, and the Table I event-ratio gauge reads the scenarios' own
    /// boundary events.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut sink = TelemetrySink::new();
        for s in &self.scenarios {
            fold_drive(&mut sink, &s.outcome, &s.fast_forward);
        }
        sink.batch = self.batching;
        sink.snapshot()
    }

    /// Writes the [`metrics_snapshot`](SweepReport::metrics_snapshot) to
    /// `path`: Prometheus text exposition, or a JSON document when the
    /// path ends in `.json`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_metrics(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let snap = self.metrics_snapshot();
        let body = if path.extension().is_some_and(|e| e == "json") {
            snap.to_json().render()
        } else {
            evolve_obs::prometheus(&snap)
        };
        std::fs::write(path, body)
    }

    /// Renders the report as a JSON document: the sweep's totals (engine,
    /// fast-forward, batching and boundary counters, the regime histogram
    /// and per-resource metrics) are its metrics snapshot, under
    /// `telemetry`.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("threads", Json::U64(self.threads as u64)),
            ("wall_ns", Json::U64(self.wall.as_nanos() as u64)),
            ("scenario_count", Json::U64(self.scenarios.len() as u64)),
            ("engines_reused", Json::U64(self.reused_count() as u64)),
            ("telemetry", self.metrics_snapshot().to_json()),
            (
                "scenarios",
                Json::Array(self.scenarios.iter().map(scenario_json).collect()),
            ),
        ])
    }

    /// Writes the JSON report to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json().render())
    }
}

fn fast_forward_json(f: &FastForwardStats) -> Json {
    let mut fields = vec![
        ("promotions", Json::U64(f.promotions)),
        ("demotions", Json::U64(f.demotions)),
        ("fast_forwarded_iterations", Json::U64(f.fast_forwarded_iterations)),
    ];
    if let Some(d) = f.detected {
        fields.push(("detected_growth", Json::U64(d.growth)));
        fields.push(("detected_period", Json::U64(d.period)));
    }
    Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn scenario_json(s: &ScenarioResult) -> Json {
    let makespan = s.outcome.outputs.last().map_or(0, |&(_, y, _)| y);
    let mut fields = vec![
        ("index", Json::U64(s.index as u64)),
        ("label", Json::str(s.label.clone())),
        ("nodes", Json::U64(s.nodes as u64)),
        ("backend", Json::str(s.backend.as_str())),
        ("reused_engine", Json::Bool(s.reused_engine)),
        ("batched", Json::Bool(s.batched)),
        ("outputs", Json::U64(s.outcome.outputs.len() as u64)),
        ("makespan_ticks", Json::U64(makespan)),
        ("boundary_events", Json::U64(s.outcome.boundary_events)),
        ("engine_stats", s.outcome.engine_stats.to_json()),
        ("fast_forward", fast_forward_json(&s.fast_forward)),
        (
            "busy_ticks",
            Json::Array(s.outcome.busy_ticks.iter().map(|&b| Json::U64(b)).collect()),
        ),
        ("wall_ns", Json::U64(s.wall.as_nanos() as u64)),
    ];
    if let Some(r) = &s.reference {
        fields.push((
            "reference",
            Json::object([
                ("events", Json::U64(r.events)),
                ("accurate", Json::Bool(r.accurate)),
                ("event_ratio", Json::F64(s.event_ratio().unwrap_or(0.0))),
            ]),
        ));
    }
    Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Applies `f` to every item on a fixed pool of `threads` scoped workers,
/// returning results in input order regardless of scheduling.
///
/// Each worker owns a state value created by `init` — the hook the sweep
/// uses for per-worker engine caches. With `threads <= 1` everything runs
/// on the calling thread (no pool, same results).
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers).
pub fn parallel_map_with<T, R, S, I, F>(items: Vec<T>, threads: usize, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, T) -> R + Sync,
{
    let count = items.len();
    if threads <= 1 || count <= 1 {
        let mut state = init();
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
    }

    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(count) {
            let tx = tx.clone();
            let queue = &queue;
            let init = &init;
            let f = &f;
            scope.spawn(move || {
                let mut state = init();
                loop {
                    let job = queue.lock().expect("queue poisoned").pop_front();
                    match job {
                        Some((i, item)) => {
                            let r = f(&mut state, i, item);
                            if tx.send((i, r)).is_err() {
                                return;
                            }
                        }
                        None => return,
                    }
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job produces a result"))
            .collect()
    })
}

/// [`parallel_map_with`] without worker state.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    parallel_map_with(items, threads, || (), |(), i, item| f(i, item))
}

/// The engine-construction options a sweep's knobs translate to (the
/// fast-forward detector keeps its default confirmation window); the
/// engine-preparation and drive machinery itself lives in
/// [`crate::cache`], shared with the `evolve-serve` daemon.
fn engine_options(config: &SweepConfig) -> EngineOptions {
    EngineOptions {
        record_observations: config.record_observations,
        fast_forward: config.fast_forward,
        ..EngineOptions::default()
    }
}

/// Drives a single-input, single-output engine through `arrivals` without a
/// simulation kernel, reproducing the boundary semantics of the equivalent
/// model's processes: the `k`-th offer lands at
/// `max(arrival(k), ack(k-1))` (a rendezvous source blocks until its
/// previous write completed), and the always-ready sink acknowledges each
/// output at its computed instant `y(k)`.
///
/// The engine must be fresh or [`Engine::reset`]; the returned outcome's
/// [`busy_ticks`](ScenarioOutcome::busy_ticks) is left empty (callers know
/// the platform's resource count — see [`ScenarioOutcome::exec_records`]).
/// Exposed so harnesses can sweep architectures beyond the built-in
/// [`ModelKind`]s (e.g. the LTE receiver case study) with the same
/// semantics the conformance suite pins down.
///
/// # Panics
///
/// Panics if the engine has more than one external input/output pending or
/// if an input acknowledgment fails to resolve (multi-input graphs).
pub fn drive_engine(engine: &mut Engine, arrivals: &[Arrival]) -> ScenarioOutcome {
    let mut outcome = ScenarioOutcome::default();
    let mut prev_ack: Option<Time> = None;
    for (k, arrival) in arrivals.iter().enumerate() {
        let k = k as u64;
        let offer = match prev_ack {
            Some(ack) if ack > arrival.at => ack,
            _ => arrival.at,
        };
        engine.set_input(0, k, offer, arrival.size);
        // The sink is always ready: acknowledge each output as soon as it
        // is computed, at the computed instant itself.
        while let Some((ok, y, size)) = engine.next_output(0) {
            if engine.needs_output_ack(0) {
                engine.set_output_ack(0, ok, y);
            }
            outcome.outputs.push((ok, y.ticks(), size));
        }
        let ack = engine
            .ack_instant(0, k)
            .expect("single-input scenario acks resolve once outputs are fed back");
        outcome.input_acks.push(ack.ticks());
        prev_ack = Some(ack);
        // No kernel events are registered; drop computed notifications.
        engine.drain_notifications();
    }
    // One boundary exchange per input offer and per output write — the
    // transfers a kernel would count for the equivalent model.
    outcome.boundary_events = arrivals.len() as u64 + outcome.outputs.len() as u64;
    outcome.engine_stats = engine.stats();
    outcome.exec_records = engine.exec_records().to_vec();
    outcome
}

/// Drives `traces.len()` independent input traces through the lanes of a
/// [`BatchedEngine`] in lockstep, reproducing [`drive_engine`]'s boundary
/// semantics per lane: lane `l`'s `k`-th offer lands at
/// `max(arrival(l, k), ack(l, k-1))` and the always-ready sink acknowledges
/// outputs at their computed instants. Lanes with shorter traces simply
/// stop offering — the engine keeps sweeping the remaining lanes.
///
/// The engine must be fresh or [`BatchedEngine::reset`] with exactly
/// `traces.len()` lanes. As with [`drive_engine`], the returned outcomes'
/// [`busy_ticks`](ScenarioOutcome::busy_ticks) are left empty.
///
/// Exec-record *order* within a lane may differ from the scalar engine's
/// (the batched sweep replays observations in schedule order, the scalar
/// worklist in drain order); the multiset of records is identical, as the
/// batched conformance suite pins down.
///
/// # Panics
///
/// Panics if the lane count mismatches or an acknowledgment fails to
/// resolve ([`BatchedEngine`]s are gated to single-input, ack-free graphs
/// at construction).
pub fn drive_batch(engine: &mut BatchedEngine, traces: &[&[Arrival]]) -> Vec<ScenarioOutcome> {
    let lanes = traces.len();
    assert_eq!(engine.lanes(), lanes, "one trace per engine lane");
    let mut outcomes = vec![ScenarioOutcome::default(); lanes];
    let mut prev_ack: Vec<Option<Time>> = vec![None; lanes];
    let mut offers: Vec<Option<(Time, u64)>> = vec![None; lanes];
    let steps = traces.iter().map(|t| t.len()).max().unwrap_or(0);
    for k in 0..steps as u64 {
        for (l, trace) in traces.iter().enumerate() {
            offers[l] = trace.get(k as usize).map(|arrival| {
                let offer = match prev_ack[l] {
                    Some(ack) if ack > arrival.at => ack,
                    _ => arrival.at,
                };
                (offer, arrival.size)
            });
        }
        engine.set_input_batch(k, &offers);
        for (l, offer) in offers.iter().enumerate() {
            if offer.is_none() {
                continue;
            }
            while let Some((ok, y, size)) = engine.next_output(l, 0) {
                outcomes[l].outputs.push((ok, y.ticks(), size));
            }
            let ack = engine
                .ack_instant(l, k)
                .expect("single-input batched lanes ack every lockstep iteration");
            outcomes[l].input_acks.push(ack.ticks());
            prev_ack[l] = Some(ack);
        }
    }
    for (l, outcome) in outcomes.iter_mut().enumerate() {
        outcome.boundary_events = traces[l].len() as u64 + outcome.outputs.len() as u64;
        outcome.engine_stats = engine.lane_stats(l);
        outcome.exec_records = engine.exec_records(l).to_vec();
    }
    outcomes
}

/// Re-runs one scenario on the conventional discrete-event model and
/// compares it against an engine-drive outcome (scalar or batched lane).
fn reference_for(
    arch: &Architecture,
    input: RelationId,
    output: RelationId,
    stimulus: &Stimulus,
    outcome: &ScenarioOutcome,
) -> ReferenceComparison {
    let env = Environment::new().stimulus(input, stimulus.clone());
    let report = elaborate(arch, &env).expect("conventional model builds").run();
    let accurate = report
        .instants(output)
        .iter()
        .map(|t| t.ticks())
        .eq(outcome.outputs.iter().map(|&(_, y, _)| y));
    ReferenceComparison {
        events: report.relation_events(),
        accurate,
    }
}

/// Evaluates one scenario on a worker-cached engine. The drive itself
/// lives in [`cache::drive_prepared`], shared with the serve daemon.
fn evaluate(
    cache: &mut HashMap<ModelSpec, PreparedModel>,
    index: usize,
    spec: &ScenarioSpec,
    config: &SweepConfig,
) -> ScenarioResult {
    let options = engine_options(config);
    let prepared = cache
        .entry(spec.model.clone())
        .or_insert_with(|| prepare(&spec.model, &options));
    let stimulus = spec.trace.stimulus();
    let drive = drive_prepared(prepared, stimulus.arrivals(), &options, &mut None, DeltaMode::Off);
    let reference = config.compare_conventional.then(|| {
        reference_for(
            &prepared.arch,
            prepared.input,
            prepared.output,
            &stimulus,
            &drive.outcome,
        )
    });

    ScenarioResult {
        index,
        label: spec.label.clone(),
        outcome: drive.outcome,
        nodes: prepared.nodes,
        backend: spec.model.backend,
        reused_engine: drive.reused_engine,
        batched: false,
        wall: drive.wall,
        fast_forward: drive.fast_forward,
        reference,
    }
}

/// Why the batching layer sent a scenario down the scalar path.
enum ScalarReason {
    /// Batching disabled (`batch_width <= 1`) — not an ejection.
    BatchingOff,
    /// The model runs on the worklist backend.
    Worklist,
    /// The trace offers no tokens.
    EmptyTrace,
    /// The model group's leftover lane after full batches were carved off.
    SingleLane,
}

/// A unit of worker-schedulable work: one scalar scenario or one lockstep
/// batch of scenarios sharing a [`ModelSpec`].
enum WorkUnit {
    Scalar {
        index: usize,
        spec: ScenarioSpec,
        reason: ScalarReason,
    },
    Batch(BatchGroup),
}

/// The lanes of one lockstep batch, in input order: `(grid index, spec)`.
/// All members share one [`ModelSpec`].
type BatchGroup = Vec<(usize, ScenarioSpec)>;

/// Partitions the sweep into work units: compiled-backend scenarios with
/// non-empty traces are grouped by [`ModelSpec`] into batches of up to
/// `batch_width` lanes (in input order, so grouping is deterministic);
/// everything else — and leftover single lanes — becomes a scalar unit.
fn plan_units(scenarios: &[ScenarioSpec], config: &SweepConfig) -> Vec<WorkUnit> {
    let width = config.batch_width.max(1);
    let mut units = Vec::new();
    if width == 1 {
        for (index, spec) in scenarios.iter().cloned().enumerate() {
            units.push(WorkUnit::Scalar {
                index,
                spec,
                reason: ScalarReason::BatchingOff,
            });
        }
        return units;
    }
    // First-seen order keeps unit formation deterministic; the model count
    // per sweep is small, so a linear scan beats a map here.
    let mut pending: Vec<(ModelSpec, BatchGroup)> = Vec::new();
    for (index, spec) in scenarios.iter().cloned().enumerate() {
        if spec.model.backend == EvalBackend::Worklist {
            units.push(WorkUnit::Scalar {
                index,
                spec,
                reason: ScalarReason::Worklist,
            });
        } else if spec.trace.tokens == 0 {
            units.push(WorkUnit::Scalar {
                index,
                spec,
                reason: ScalarReason::EmptyTrace,
            });
        } else {
            let pos = match pending.iter().position(|(m, _)| *m == spec.model) {
                Some(pos) => pos,
                None => {
                    pending.push((spec.model.clone(), Vec::new()));
                    pending.len() - 1
                }
            };
            let open = &mut pending[pos].1;
            open.push((index, spec));
            if open.len() == width {
                units.push(WorkUnit::Batch(std::mem::take(open)));
            }
        }
    }
    for (_, open) in pending {
        match open.len() {
            0 => {}
            1 => {
                let (index, spec) = open.into_iter().next().expect("len checked");
                units.push(WorkUnit::Scalar {
                    index,
                    spec,
                    reason: ScalarReason::SingleLane,
                });
            }
            // The leftover partial group is one more, narrower batch (the
            // model's engine re-lanes on reset).
            _ => units.push(WorkUnit::Batch(open)),
        }
    }
    units
}

/// Evaluates one lockstep batch of same-model lanes on the model's cached
/// batched engine. If the model turns out to be unsupported by
/// [`BatchedEngine`] (discovered once per model, then cached), every lane
/// is ejected to the scalar path.
fn evaluate_batch(
    state: &mut EngineCaches,
    group: BatchGroup,
    config: &SweepConfig,
    stats: &mut BatchCounters,
) -> Vec<ScenarioResult> {
    let options = engine_options(config);
    let width = group.len();
    let model = &group[0].1.model;
    let entry = state
        .batch
        .entry(model.clone())
        .or_insert_with(|| prepare_batch(model, &options, width));
    let Ok(prepared) = entry else {
        let mut out = Vec::with_capacity(width);
        for (index, spec) in &group {
            stats.eject_unsupported += 1;
            stats.lanes_scalar += 1;
            out.push(evaluate(&mut state.scalar, *index, spec, config));
        }
        return out;
    };

    let stimuli: Vec<Stimulus> = group.iter().map(|(_, s)| s.trace.stimulus()).collect();
    let traces: Vec<&[Arrival]> = stimuli.iter().map(|s| s.arrivals()).collect();
    let (outcomes, reused_engine, batch_wall) = drive_prepared_batch(prepared, &traces, &mut None);
    // Per-lane amortized cost, comparable to the scalar wall.
    let wall = batch_wall / width as u32;
    let kernel = prepared.engine.kernel_dispatch();
    stats.batches_formed += 1;
    stats.lanes_batched += width as u64;
    stats.lockstep_iterations += prepared.engine.stats().batched_iterations;
    stats.kernel_chunked_sweeps += kernel.chunked_sweeps;
    stats.kernel_scalar_sweeps += kernel.scalar_sweeps;

    group
        .into_iter()
        .zip(outcomes)
        .zip(stimuli)
        .map(|(((index, spec), outcome), stimulus)| {
            let reference = config.compare_conventional.then(|| {
                reference_for(
                    &prepared.arch,
                    prepared.input,
                    prepared.output,
                    &stimulus,
                    &outcome,
                )
            });
            ScenarioResult {
                index,
                label: spec.label,
                outcome,
                nodes: prepared.nodes,
                backend: spec.model.backend,
                reused_engine,
                batched: true,
                wall,
                // Batches do not fast-forward.
                fast_forward: FastForwardStats::default(),
                reference,
            }
        })
        .collect()
}

/// Books one scalar evaluation into the batching counters.
fn count_scalar(stats: &mut BatchCounters, reason: &ScalarReason) {
    stats.lanes_scalar += 1;
    match reason {
        ScalarReason::BatchingOff => {}
        ScalarReason::Worklist => stats.eject_worklist += 1,
        ScalarReason::EmptyTrace => stats.eject_empty_trace += 1,
        ScalarReason::SingleLane => stats.eject_single_lane += 1,
    }
}

fn process_unit(
    state: &mut EngineCaches,
    unit: WorkUnit,
    config: &SweepConfig,
) -> (Vec<ScenarioResult>, BatchCounters) {
    let mut stats = BatchCounters::default();
    match unit {
        WorkUnit::Scalar {
            index,
            spec,
            reason,
        } => {
            count_scalar(&mut stats, &reason);
            let result = evaluate(&mut state.scalar, index, &spec, config);
            (vec![result], stats)
        }
        WorkUnit::Batch(group) => {
            let results = evaluate_batch(state, group, config, &mut stats);
            (results, stats)
        }
    }
}

/// Runs every scenario on a pool of [`SweepConfig::threads`] workers and
/// returns the aggregated report, scenarios in input order.
///
/// Outcomes are deterministic: for any thread count the per-scenario
/// [`ScenarioOutcome`]s are bitwise identical (only host wall-clock fields
/// differ). Workers cache one engine per distinct [`ModelSpec`] and reuse
/// it via [`Engine::reset`] between traces; with
/// [`SweepConfig::batch_width`] above one, compiled scenarios additionally
/// share lockstep [`BatchedEngine`] batches.
///
/// # Panics
///
/// Panics if a scenario's model fails to build or derive (specs are
/// programmer-controlled), or if a worker panics.
pub fn run_sweep(scenarios: &[ScenarioSpec], config: &SweepConfig) -> SweepReport {
    let start = Instant::now();
    let units = plan_units(scenarios, config);
    let processed = parallel_map_with(
        units,
        config.threads,
        EngineCaches::default,
        |state, _, unit| process_unit(state, unit, config),
    );
    let mut batching = BatchCounters {
        batch_width: config.batch_width.max(1) as u64,
        ..BatchCounters::default()
    };
    let mut results = Vec::with_capacity(scenarios.len());
    for (unit_results, unit_stats) in processed {
        results.extend(unit_results);
        batching.merge(&unit_stats);
    }
    // The single ordering point of the report: units interleave scenario
    // indices (batches pull scattered indices together), so re-sort by
    // input index and assert the result is exactly a permutation back to
    // 0..n — batching can drop or duplicate nothing silently.
    results.sort_by_key(|r| r.index);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.index, i, "sweep results must cover every scenario exactly once");
    }
    SweepReport {
        threads: config.threads.max(1),
        scenarios: results,
        batching,
        delta: DeltaReport::default(),
        wall: start.elapsed(),
    }
}

/// Evaluates one scenario and returns the result together with a
/// [`TraceCollector`], ready for Chrome-trace export
/// (`collector.to_chrome_trace()`, loadable in Perfetto).
///
/// The collector's observation-time tracks are built from the drive's
/// execution records after the drive — including iterations answered by
/// fast-forward template replay — and its merged intervals equal
/// [`ResourceTrace::from_records`](evolve_model::ResourceTrace::from_records)
/// on the same records exactly (the telemetry-fold suite pins this down
/// on a promoted scenario). One host-time span covering the whole drive
/// is added alongside.
///
/// Requires [`SweepConfig::record_observations`] (off, there are no
/// records to trace).
///
/// # Panics
///
/// Panics if the scenario's model fails to build or derive.
pub fn trace_scenario(
    spec: &ScenarioSpec,
    config: &SweepConfig,
) -> (ScenarioResult, TraceCollector) {
    let mut prepared = prepare(&spec.model, &engine_options(config));
    // Host time counts from before the drive, so its span fits.
    let mut collector = TraceCollector::new();
    let stimulus = spec.trace.stimulus();
    let start = Instant::now();
    let mut outcome = drive_engine(&mut prepared.engine, stimulus.arrivals());
    let wall = start.elapsed();
    let fast_forward = prepared.engine.fast_forward_stats();
    outcome.busy_ticks = busy_per_resource(&outcome.exec_records, prepared.resource_count);
    collector.add_records(0, &outcome.exec_records);
    let end_us = collector.now_us();
    let start_us = (end_us - wall.as_secs_f64() * 1e6).max(0.0);
    collector.push_span(format!("drive {}", spec.label), start_us, end_us);
    let result = ScenarioResult {
        index: 0,
        label: spec.label.clone(),
        outcome,
        nodes: prepared.nodes,
        backend: spec.model.backend,
        reused_engine: false,
        batched: false,
        wall,
        fast_forward,
        reference: None,
    };
    (result, collector)
}

/// The default scenario grid shared by the sweep binary and the sweep
/// tests: didactic chains and synthetic pipelines of growing depth,
/// alternating saturating and jittered-periodic traces, exercising both
/// engine backends. Scenarios of the same model recur with different
/// traces, so the batching planner finds groups to batch.
pub fn default_grid(count: u64, tokens: u64) -> Vec<ScenarioSpec> {
    (0..count)
        .map(|i| {
            let kind = match i % 4 {
                0 => ModelKind::Didactic { stages: 1 + (i as usize / 8) % 3 },
                1 => ModelKind::Pipeline { stages: 4, base: 100, per_unit: 3 },
                2 => ModelKind::Pipeline { stages: 8, base: 60, per_unit: 1 },
                _ => ModelKind::Didactic { stages: 2 },
            };
            ScenarioSpec {
                label: format!("grid-{i}"),
                model: ModelSpec {
                    kind,
                    padding: if i % 2 == 0 { 0 } else { 64 },
                    // Exercise both engine backends across the grid.
                    backend: if i % 8 < 4 {
                        EvalBackend::Compiled
                    } else {
                        EvalBackend::Worklist
                    },
                },
                // Saturating traces use a fixed token size so the ack line
                // settles into a periodic regime the fast-forward detector
                // can exploit; jittered traces stay size-randomized.
                trace: TraceSpec {
                    tokens,
                    min_size: if i % 3 == 0 { 64 } else { 1 },
                    max_size: if i % 3 == 0 { 64 } else { 128 },
                    mean_period: if i % 3 == 0 { 0 } else { 400 * (1 + i % 5) },
                    seed: 0x5eed_0000 + i,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(n: u64) -> Vec<ScenarioSpec> {
        (0..n)
            .map(|i| ScenarioSpec {
                label: format!("s{i}"),
                model: ModelSpec {
                    kind: if i % 2 == 0 {
                        ModelKind::Didactic { stages: 1 }
                    } else {
                        ModelKind::Pipeline {
                            stages: 3,
                            base: 50,
                            per_unit: 2,
                        }
                    },
                    padding: 0,
                    backend: if i % 4 < 2 {
                        EvalBackend::Compiled
                    } else {
                        EvalBackend::Worklist
                    },
                },
                trace: TraceSpec {
                    tokens: 20,
                    min_size: 1,
                    max_size: 32,
                    mean_period: if i % 3 == 0 { 0 } else { 500 },
                    seed: i,
                },
            })
            .collect()
    }

    #[test]
    fn thread_count_does_not_change_outcomes() {
        let scenarios = specs(12);
        let seq = run_sweep(&scenarios, &SweepConfig { threads: 1, ..SweepConfig::default() });
        let par = run_sweep(&scenarios, &SweepConfig { threads: 4, ..SweepConfig::default() });
        for (a, b) in seq.scenarios.iter().zip(&par.scenarios) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.outcome, b.outcome, "scenario {}", a.label);
        }
    }

    #[test]
    fn engines_are_reused_within_workers() {
        let scenarios = specs(10);
        let report = run_sweep(&scenarios, &SweepConfig { threads: 1, ..SweepConfig::default() });
        // Four distinct (kind, backend) models over ten scenarios: six
        // reuse an engine.
        assert_eq!(report.reused_count(), 6);
    }

    #[test]
    fn conventional_reference_agrees() {
        let scenarios = specs(4);
        let config = SweepConfig {
            threads: 2,
            compare_conventional: true,
            ..SweepConfig::default()
        };
        let report = run_sweep(&scenarios, &config);
        for s in &report.scenarios {
            let r = s.reference.as_ref().expect("reference requested");
            assert!(r.accurate, "scenario {} diverged from the DES model", s.label);
            assert!(s.event_ratio().unwrap() >= 1.0);
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect::<Vec<u64>>(), 8, |i, x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn trace_spec_is_deterministic_and_monotone() {
        let spec = TraceSpec { tokens: 50, min_size: 4, max_size: 64, mean_period: 100, seed: 9 };
        let a = spec.stimulus();
        let b = spec.stimulus();
        assert_eq!(a.arrivals(), b.arrivals());
        assert!(a.arrivals().windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.arrivals().iter().all(|x| (4..=64).contains(&x.size)));
    }

    #[test]
    fn report_json_contains_every_scenario() {
        let report = run_sweep(&specs(3), &SweepConfig { threads: 2, ..SweepConfig::default() });
        let rendered = report.to_json().render();
        assert!(rendered.contains("\"scenario_count\":3"));
        assert!(rendered.contains("\"label\":\"s2\""));
        assert!(rendered.contains("\"batching\""));
        assert!(rendered.contains("\"lanes_scalar\":3"));
    }

    #[test]
    fn metrics_snapshot_folds_every_scenario() {
        let scenarios = specs(12);
        for batch_width in [1, 4] {
            let config = SweepConfig { threads: 2, batch_width, ..SweepConfig::default() };
            let report = run_sweep(&scenarios, &config);
            let snap = report.metrics_snapshot();
            let sum = |f: fn(&ScenarioOutcome) -> u64| {
                report.scenarios.iter().map(|s| f(&s.outcome)).sum::<u64>()
            };
            assert_eq!(snap.boundary_events, sum(|o| o.boundary_events), "width {batch_width}");
            assert_eq!(snap.engine.nodes_computed, sum(|o| o.engine_stats.nodes_computed));
            let records: u64 = snap.resources.iter().map(|r| r.records).sum();
            assert_eq!(records, sum(|o| o.exec_records.len() as u64));
            assert_eq!(snap.batch, report.batching);
        }
    }

    /// Execution records in a scheduling-independent canonical order: the
    /// batched sweep replays them in schedule order, the scalar drive in
    /// drain order, and only the multiset is part of the contract.
    fn canonical(mut records: Vec<ExecRecord>) -> Vec<ExecRecord> {
        records.sort_by_key(|r| (r.start, r.resource, r.function, r.stmt, r.k));
        records
    }

    #[test]
    fn batched_sweep_matches_scalar_outcomes() {
        // All-compiled scenarios over two models with mixed trace lengths,
        // so batches form, lanes end at different lockstep iterations, and
        // a leftover lane is ejected.
        let scenarios: Vec<ScenarioSpec> = (0..11)
            .map(|i| ScenarioSpec {
                label: format!("b{i}"),
                model: ModelSpec {
                    kind: if i % 2 == 0 {
                        ModelKind::Didactic { stages: 1 }
                    } else {
                        ModelKind::Pipeline { stages: 3, base: 50, per_unit: 2 }
                    },
                    padding: if i % 4 == 0 { 16 } else { 0 },
                    backend: EvalBackend::Compiled,
                },
                trace: TraceSpec {
                    tokens: 10 + 7 * (i % 3),
                    min_size: 1,
                    max_size: 32,
                    mean_period: if i % 3 == 0 { 0 } else { 400 },
                    seed: i,
                },
            })
            .collect();
        let scalar = run_sweep(
            &scenarios,
            &SweepConfig { threads: 1, batch_width: 1, ..SweepConfig::default() },
        );
        let batched = run_sweep(
            &scenarios,
            &SweepConfig { threads: 1, batch_width: 4, ..SweepConfig::default() },
        );
        assert!(batched.batching.lanes_batched > 0, "batches must actually form");
        for (a, b) in scalar.scenarios.iter().zip(&batched.scenarios) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.outcome.outputs, b.outcome.outputs, "scenario {}", a.label);
            assert_eq!(a.outcome.input_acks, b.outcome.input_acks, "scenario {}", a.label);
            assert_eq!(a.outcome.engine_stats.nodes_computed, b.outcome.engine_stats.nodes_computed);
            assert_eq!(a.outcome.engine_stats.arcs_evaluated, b.outcome.engine_stats.arcs_evaluated);
            assert_eq!(
                a.outcome.engine_stats.iterations_completed,
                b.outcome.engine_stats.iterations_completed
            );
            assert_eq!(a.outcome.busy_ticks, b.outcome.busy_ticks, "scenario {}", a.label);
            assert_eq!(a.outcome.boundary_events, b.outcome.boundary_events);
            assert_eq!(
                canonical(a.outcome.exec_records.clone()),
                canonical(b.outcome.exec_records.clone()),
                "scenario {}",
                a.label
            );
        }
    }

    #[test]
    fn fast_forward_sweeps_match_and_report_stats() {
        // Constant sizes + saturating source: offers ride the ack line,
        // which settles periodic, so scalar compiled scenarios promote —
        // and must stay bitwise identical to a fast-forward-off sweep and
        // to batched lanes, which only sweep.
        let scenarios: Vec<ScenarioSpec> = (0..4)
            .map(|i| ScenarioSpec {
                label: format!("ff{i}"),
                model: ModelSpec {
                    kind: ModelKind::Pipeline { stages: 3, base: 50, per_unit: 2 },
                    padding: 0,
                    backend: EvalBackend::Compiled,
                },
                trace: TraceSpec { tokens: 120, min_size: 8, max_size: 8, mean_period: 0, seed: i },
            })
            .collect();
        let sweep = |batch_width, fast_forward| {
            let config =
                SweepConfig { threads: 1, batch_width, fast_forward, ..SweepConfig::default() };
            run_sweep(&scenarios, &config)
        };
        let on = sweep(1, FastForward::On);
        let off = sweep(1, FastForward::Off);
        let batched = sweep(2, FastForward::On);
        for ((a, b), c) in on.scenarios.iter().zip(&off.scenarios).zip(&batched.scenarios) {
            assert_eq!(a.outcome, b.outcome, "scenario {}", a.label);
            assert_eq!(a.outcome, c.outcome, "scenario {} batched", a.label);
        }
        let ff = on.total_fast_forward_stats();
        assert!(ff.promotions >= scenarios.len() as u64, "{ff:?}");
        assert!(ff.fast_forwarded_iterations > 0, "{ff:?}");
        assert_eq!(off.total_fast_forward_stats(), FastForwardStats::default());
        assert_eq!(batched.batching.lanes_batched, 4);
        assert_eq!(batched.total_fast_forward_stats(), FastForwardStats::default());
        // The regime histogram counts every scenario that promoted once.
        let regimes = on.metrics_snapshot().regimes;
        assert_eq!(regimes.values().sum::<u64>(), scenarios.len() as u64, "{regimes:?}");
        let rendered = on.to_json().render();
        assert!(rendered.contains("\"fast_forward\""));
        assert!(rendered.contains("\"regimes\":[{\"growth\""));
    }

    #[test]
    fn report_is_ordered_by_index_under_threads_and_batching() {
        // Mixed backends scatter the indices across batch and scalar
        // units; the report must still come back dense and in input order.
        let scenarios = specs(13);
        let report = run_sweep(
            &scenarios,
            &SweepConfig { threads: 4, batch_width: 3, ..SweepConfig::default() },
        );
        assert_eq!(report.scenarios.len(), scenarios.len());
        for (i, s) in report.scenarios.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.label, format!("s{i}"));
        }
    }

    #[test]
    fn batching_stats_account_for_every_scenario() {
        let model = ModelSpec {
            kind: ModelKind::Didactic { stages: 1 },
            padding: 0,
            backend: EvalBackend::Compiled,
        };
        let trace = |tokens, seed| TraceSpec {
            tokens,
            min_size: 1,
            max_size: 16,
            mean_period: 0,
            seed,
        };
        let mut scenarios: Vec<ScenarioSpec> = (0..5)
            .map(|i| ScenarioSpec {
                label: format!("c{i}"),
                model: model.clone(),
                trace: trace(8, i),
            })
            .collect();
        scenarios.push(ScenarioSpec {
            label: "worklist".into(),
            model: ModelSpec { backend: EvalBackend::Worklist, ..model.clone() },
            trace: trace(8, 99),
        });
        scenarios.push(ScenarioSpec {
            label: "empty".into(),
            model: model.clone(),
            trace: trace(0, 100),
        });
        let report = run_sweep(
            &scenarios,
            &SweepConfig { threads: 1, batch_width: 4, ..SweepConfig::default() },
        );
        let b = &report.batching;
        assert_eq!(b.batch_width, 4);
        assert_eq!(b.batches_formed, 1, "five same-model lanes make one full batch");
        assert_eq!(b.lanes_batched, 4);
        assert_eq!(b.eject_single_lane, 1, "the fifth lane is a leftover");
        assert_eq!(b.eject_worklist, 1);
        assert_eq!(b.eject_empty_trace, 1);
        assert_eq!(b.eject_unsupported, 0);
        assert_eq!(b.lanes_scalar, 3);
        assert_eq!(b.lanes_batched + b.lanes_scalar, scenarios.len() as u64);
        assert!(b.lockstep_iterations >= 8, "one lockstep sweep per input iteration");
        for s in &report.scenarios {
            let expect_batched = s.index < 5 && s.label != "c4";
            // The leftover lane is whichever same-model scenario was left
            // after the batch filled — input order makes it c4.
            assert_eq!(s.batched, expect_batched, "scenario {}", s.label);
        }
    }

    #[test]
    fn kernel_dispatch_counters_reach_the_report() {
        // Nine same-model lanes at width 8: one chunked batch plus a
        // scalar leftover — the chunked counter must land in the report
        // and its JSON rendering.
        let scenarios: Vec<ScenarioSpec> = (0..9)
            .map(|i| ScenarioSpec {
                label: format!("k{i}"),
                model: ModelSpec {
                    kind: ModelKind::Didactic { stages: 1 },
                    padding: 0,
                    backend: EvalBackend::Compiled,
                },
                trace: TraceSpec { tokens: 10, min_size: 1, max_size: 16, mean_period: 0, seed: i },
            })
            .collect();
        let report = run_sweep(
            &scenarios,
            &SweepConfig { threads: 1, batch_width: 8, ..SweepConfig::default() },
        );
        assert!(report.batching.kernel_chunked_sweeps >= 10, "{:?}", report.batching);
        assert_eq!(report.batching.kernel_scalar_sweeps, 0);
        assert!(report.to_json().render().contains("\"kernel_chunked_sweeps\""));
    }

    #[test]
    fn scenarios_per_second_uses_measured_run_wall_clock() {
        // The headline metric must divide by the run's measured
        // wall-clock, never by summed per-scenario walls: with threads>1
        // the lanes overlap on the host, so the sum over-counts elapsed
        // time and would inflate throughput.
        let mut report = run_sweep(
            &default_grid(8, 20),
            &SweepConfig { threads: 4, ..SweepConfig::default() },
        );
        let expected = report.scenarios.len() as f64 / report.wall.as_secs_f64().max(1e-12);
        assert_eq!(report.scenarios_per_second(), expected);
        // Inflating every per-scenario wall far beyond the run wall must
        // not move the metric at all.
        for s in &mut report.scenarios {
            s.wall = HostDuration::from_secs(3600);
        }
        assert_eq!(report.scenarios_per_second(), expected);
        let summed: HostDuration = report.scenarios.iter().map(|s| s.wall).sum();
        assert!(summed > report.wall, "inflated lane walls exceed run wall");
    }
}
