//! Shared measurement machinery for the paper's evaluation harnesses.
//!
//! Every table and figure of the paper's Section IV/V is regenerated by a
//! binary in this crate, all built on [`measure`]: run the conventional and
//! the equivalent model of one architecture on identical stimuli, record
//! wall-clock times, kernel activity, and the event ratio, and verify that
//! evolution instants agree.
//!
//! # Kernel cost regimes
//!
//! The paper's absolute speed-ups are tied to its simulator's per-event
//! cost (the CoFluent/SystemC models of Table I average ≈1 ms of host time
//! per data item; our native kernel dispatch costs ≈50 ns). Measurements
//! therefore run in two regimes:
//!
//! * **native** — the kernel as-is; speed-ups are conservative because
//!   `ComputeInstant()` is not free relative to a 50 ns dispatch;
//! * **calibrated** — every dispatch burns a configurable host cost
//!   ([`evolve_des::Kernel::set_dispatch_cost_ns`]), reproducing the
//!   heavyweight-simulator regime in which the paper operates; speed-ups
//!   then track the event ratio, as in the paper.

use std::time::{Duration as HostDuration, Instant};

use evolve_core::{
    derive_tdg, simplify, synthetic, BatchedEngine, Engine, EquivalentModelBuilder, EvalBackend,
    FastForward,
};
use evolve_des::Time;
use evolve_model::{didactic, elaborate, varying_sizes, Architecture, Environment, Stimulus};
use evolve_obs::json::Json;
use evolve_obs::EngineCounters;

/// How much of the model the equivalent variant still observes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fidelity {
    /// Full observation: every internal exchange instant and execution
    /// record is replayed (the paper's headline configuration — "same
    /// accuracy … but with a significant improvement of the simulation
    /// time").
    Observing,
    /// Boundary-only: the graph is reduced to input/output behaviour and
    /// internal observation is disabled — the fastest configuration.
    BoundaryOnly,
}

/// One conventional-vs-equivalent comparison.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Scenario label.
    pub label: String,
    /// Wall-clock time of the conventional (fully event-driven) run.
    pub conventional_wall: HostDuration,
    /// Wall-clock time of the equivalent (dynamic computation) run.
    pub equivalent_wall: HostDuration,
    /// Relation-exchange events of the conventional run.
    pub conventional_events: u64,
    /// Boundary relation events of the equivalent run.
    pub equivalent_events: u64,
    /// Process activations (context switches) of the conventional run.
    pub conventional_activations: u64,
    /// Process activations of the equivalent run.
    pub equivalent_activations: u64,
    /// Node count of the executed temporal dependency graph.
    pub nodes: usize,
    /// Whether boundary instants agreed exactly.
    pub accurate: bool,
    /// Engine computation counters of the equivalent run — the work that
    /// replaced the saved kernel events.
    pub engine_stats: EngineCounters,
}

impl Measurement {
    /// Wall-clock speed-up (Table I column 4).
    pub fn speedup(&self) -> f64 {
        self.conventional_wall.as_secs_f64() / self.equivalent_wall.as_secs_f64().max(1e-12)
    }

    /// Event ratio (Table I column 3).
    pub fn event_ratio(&self) -> f64 {
        self.conventional_events as f64 / self.equivalent_events.max(1) as f64
    }
}

/// Runs both models of `arch` under `env` and measures them.
///
/// `dispatch_cost_ns` calibrates the kernel's per-activation host cost in
/// both runs (0 = native). `padding` adds computation-only graph nodes
/// (the Fig. 5 knob).
///
/// # Panics
///
/// Panics if either model fails to build — harness inputs are
/// programmer-controlled.
pub fn measure(
    label: impl Into<String>,
    arch: &Architecture,
    env: &Environment,
    fidelity: Fidelity,
    dispatch_cost_ns: u64,
    padding: usize,
) -> Measurement {
    measure_reps(label, arch, env, fidelity, dispatch_cost_ns, padding, 3)
}

/// Like [`measure`], taking the fastest of `reps` repetitions per model
/// (minimum wall time is the standard noise-robust estimator for
/// deterministic workloads).
///
/// # Panics
///
/// Panics if either model fails to build or `reps == 0`.
pub fn measure_reps(
    label: impl Into<String>,
    arch: &Architecture,
    env: &Environment,
    fidelity: Fidelity,
    dispatch_cost_ns: u64,
    padding: usize,
    reps: usize,
) -> Measurement {
    assert!(reps > 0, "at least one repetition required");
    // Conventional runs.
    let mut conventional = None;
    for _ in 0..reps {
        let mut sim = elaborate(arch, env).expect("conventional model builds");
        sim.kernel_mut().set_dispatch_cost_ns(dispatch_cost_ns);
        let report = sim.run();
        if conventional
            .as_ref()
            .is_none_or(|best: &evolve_model::RunReport| report.wall < best.wall)
        {
            conventional = Some(report);
        }
    }
    let conventional = conventional.expect("reps > 0");

    // Equivalent runs.
    let mut equivalent = None;
    let mut nodes = 0;
    for _ in 0..reps {
        let mut builder = EquivalentModelBuilder::new(arch);
        builder = match fidelity {
            Fidelity::Observing => builder.record_observations(true),
            Fidelity::BoundaryOnly => builder
                .record_observations(false)
                .simplify(simplify::Options {
                    preserve_observations: false,
                }),
        };
        if padding > 0 {
            builder = builder.padding(padding);
        }
        let mut sim = builder.build(env).expect("equivalent model builds");
        sim.kernel_mut().set_dispatch_cost_ns(dispatch_cost_ns);
        nodes = sim.node_count();
        let report = sim.run();
        if equivalent
            .as_ref()
            .is_none_or(|best: &evolve_core::equivalent::EquivalentReport| {
                report.run.wall < best.run.wall
            })
        {
            equivalent = Some(report);
        }
    }
    let equivalent = equivalent.expect("reps > 0");

    // Accuracy: boundary instants must agree in every fidelity.
    let mut accurate = true;
    for relation in arch
        .app()
        .external_inputs()
        .into_iter()
        .chain(arch.app().external_outputs())
    {
        if conventional.relation_logs[relation.index()].write_instants
            != equivalent.run.relation_logs[relation.index()].write_instants
        {
            accurate = false;
        }
    }

    Measurement {
        label: label.into(),
        conventional_wall: conventional.wall,
        equivalent_wall: equivalent.run.wall,
        conventional_events: conventional.relation_events(),
        equivalent_events: equivalent.boundary_relation_events,
        conventional_activations: conventional.stats.activations,
        equivalent_activations: equivalent.run.stats.activations,
        nodes,
        accurate,
        engine_stats: equivalent.engine_stats,
    }
}

/// Table I example `stages`: the didactic example chained `stages` times,
/// offered `tokens` back-to-back data items of varying size (1..=256,
/// seeded by `stages`) through `M1`.
///
/// # Panics
///
/// Panics if `stages == 0`.
pub fn table1_example(stages: usize, tokens: u64) -> (didactic::Didactic, Environment) {
    let d = didactic::chained(stages, didactic::Params::default()).expect("example builds");
    let env = Environment::new().stimulus(
        d.input(),
        Stimulus::saturating(tokens, varying_sizes(1, 256, stages as u64)),
    );
    (d, env)
}

/// Ends the process with status 1 when a harness lost accuracy. Harnesses
/// call it after printing, so the output still shows which row or series
/// reads `MISMATCH`.
pub fn exit_unless_exact(exact: bool) {
    if !exact {
        eprintln!("MISMATCH: the equivalent model diverged from the conventional model");
        std::process::exit(1);
    }
}

/// Engine counters summed over measurements (sweep-level aggregation).
pub fn total_engine_stats(measurements: &[Measurement]) -> EngineCounters {
    let mut total = EngineCounters::default();
    for m in measurements {
        total.merge(&m.engine_stats);
    }
    total
}

/// Formats a measurement table row (fixed-width, terminal friendly).
pub fn format_row(m: &Measurement) -> String {
    format!(
        "{:<18} {:>10.3} {:>10.3} {:>8.2} {:>8.2} {:>7} {:>9}",
        m.label,
        m.conventional_wall.as_secs_f64() * 1e3,
        m.equivalent_wall.as_secs_f64() * 1e3,
        m.event_ratio(),
        m.speedup(),
        m.nodes,
        if m.accurate { "exact" } else { "MISMATCH" },
    )
}

/// The header matching [`format_row`].
pub fn header() -> String {
    format!(
        "{:<18} {:>10} {:>10} {:>8} {:>8} {:>7} {:>9}",
        "model", "conv (ms)", "equiv (ms)", "ev.ratio", "speedup", "nodes", "accuracy"
    )
}

/// One point of the engine-backend comparison grid: per-iteration
/// `ComputeInstant()` cost at a given graph size, for both evaluation
/// backends (the Fig. 5 overhead curve, measured directly on the engine
/// with no kernel and no observation replay).
#[derive(Clone, Debug)]
pub struct BackendPoint {
    /// Node count of the evaluated graph (pipeline + padding).
    pub nodes: usize,
    /// Iterations driven per timed repetition.
    pub iterations: u64,
    /// Best-of-reps per-iteration cost of the worklist backend (ns).
    pub worklist_ns: f64,
    /// Best-of-reps per-iteration cost of the compiled backend (ns).
    pub compiled_ns: f64,
}

impl BackendPoint {
    /// Worklist-over-compiled per-iteration cost ratio (> 1 means the
    /// compiled sweep is cheaper).
    pub fn speedup(&self) -> f64 {
        self.worklist_ns / self.compiled_ns.max(1e-12)
    }
}

/// Drives a fresh or reset single-input engine through `iterations`
/// saturating tokens of `size`, draining outputs, and returns the wall
/// time plus an output-instant checksum.
fn drive_iterations_sized(
    engine: &mut Engine,
    iterations: u64,
    size: u64,
) -> (HostDuration, u64) {
    let mut checksum = 0u64;
    let start = Instant::now();
    for k in 0..iterations {
        engine.set_input(0, k, Time::from_ticks(k * 50), size);
        while let Some((_, y, _)) = engine.next_output(0) {
            checksum = checksum.wrapping_add(y.ticks());
        }
    }
    (start.elapsed(), checksum)
}

fn drive_iterations(engine: &mut Engine, iterations: u64) -> (HostDuration, u64) {
    drive_iterations_sized(engine, iterations, 3)
}

/// Measures per-iteration engine cost at each target node count for both
/// backends, on padded synthetic pipelines (the Fig. 5 graphs).
///
/// `budget` bounds total work per point: each point runs
/// `(budget / nodes).clamp(500, 200_000)` iterations, `reps` repetitions
/// per backend, keeping the fastest (minimum wall time is the standard
/// noise-robust estimator for deterministic workloads). Engines run with
/// observation replay off, so the measurement is the pure instant
/// propagation the backends differ on. Output checksums are compared
/// across backends as a built-in conformance check.
///
/// # Panics
///
/// Panics if `reps == 0`, if a pipeline fails to derive, or if the
/// backends disagree on any output instant checksum.
pub fn backend_grid(targets: &[usize], budget: u64, reps: usize) -> Vec<BackendPoint> {
    assert!(reps > 0, "at least one repetition required");
    targets
        .iter()
        .map(|&target| {
            let p = synthetic::pipeline(3, 200, 2).expect("pipeline builds");
            let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
            let padding = target.saturating_sub(derived.tdg().node_count());
            if padding > 0 {
                derived.map_tdg(|tdg| synthetic::pad(tdg, padding));
            }
            let nodes = derived.tdg().node_count();
            let relations = p.arch.app().relations().len();
            let iterations = (budget / nodes.max(1) as u64).clamp(500, 200_000);

            let mut best = [f64::INFINITY; 2];
            let mut checksums = [0u64; 2];
            for (slot, backend) in [EvalBackend::Worklist, EvalBackend::Compiled]
                .into_iter()
                .enumerate()
            {
                let mut engine =
                    Engine::with_backend(derived.clone(), relations, false, backend);
                for rep in 0..reps {
                    if rep > 0 {
                        engine.reset();
                    }
                    let (wall, checksum) = drive_iterations(&mut engine, iterations);
                    checksums[slot] = checksum;
                    best[slot] = best[slot].min(wall.as_secs_f64() * 1e9 / iterations as f64);
                }
            }
            assert_eq!(
                checksums[0], checksums[1],
                "backends disagree at {nodes} nodes"
            );
            BackendPoint {
                nodes,
                iterations,
                worklist_ns: best[0],
                compiled_ns: best[1],
            }
        })
        .collect()
}

/// One point of the fast-forward grid: per-iteration cost of the compiled
/// sweep against the promoted periodic fast-forward replay, on the same
/// strictly periodic stimulus (constant gap, constant token size) that the
/// detector promotes.
#[derive(Clone, Debug)]
pub struct FfPoint {
    /// Node count of the evaluated graph (pipeline + padding).
    pub nodes: usize,
    /// Iterations driven per timed repetition.
    pub iterations: u64,
    /// Best-of-reps per-iteration cost with fast-forward off (ns).
    pub compiled_ns: f64,
    /// Best-of-reps per-iteration cost with fast-forward on (ns).
    pub fast_forward_ns: f64,
    /// Iterations the fast-forward run answered by O(1) replay instead of
    /// a graph sweep (from the final repetition; runs are deterministic).
    pub fast_forwarded_iterations: u64,
}

impl FfPoint {
    /// Per-iteration cost ratio of the plain compiled sweep over the
    /// fast-forwarding run (> 1 means fast-forward pays).
    pub fn gain(&self) -> f64 {
        self.compiled_ns / self.fast_forward_ns.max(1e-12)
    }
}

/// Measures the steady-state benefit of periodic fast-forward at each
/// target node count, on the padded synthetic pipelines of
/// [`backend_grid`], compiled backend both sides.
///
/// The stimulus is strictly periodic (gap 50, size 3), so the detector
/// promotes after its confirmation window and the bulk of the run is
/// answered by O(1) template replay — per-iteration cost becomes
/// independent of the node count. Output checksums of the two runs are
/// compared as a built-in conformance check, and the fast-forward run must
/// actually promote (a point that never leaves the sweep path would
/// silently measure nothing).
///
/// # Panics
///
/// Panics if `reps == 0`, a pipeline fails to derive, the fast-forward run
/// fails to promote, or the checksums diverge.
pub fn ff_grid(targets: &[usize], budget: u64, reps: usize) -> Vec<FfPoint> {
    assert!(reps > 0, "at least one repetition required");
    targets
        .iter()
        .map(|&target| {
            let p = synthetic::pipeline(3, 200, 2).expect("pipeline builds");
            let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
            let padding = target.saturating_sub(derived.tdg().node_count());
            if padding > 0 {
                derived.map_tdg(|tdg| synthetic::pad(tdg, padding));
            }
            let nodes = derived.tdg().node_count();
            let relations = p.arch.app().relations().len();
            let iterations = (budget / nodes.max(1) as u64).clamp(500, 200_000);

            let mut best = [f64::INFINITY; 2];
            let mut checksums = [0u64; 2];
            let mut fast_forwarded = 0u64;
            for (slot, ff) in [FastForward::Off, FastForward::On].into_iter().enumerate() {
                let mut engine =
                    Engine::with_backend(derived.clone(), relations, false, EvalBackend::Compiled);
                engine.set_fast_forward(ff);
                for rep in 0..reps {
                    if rep > 0 {
                        engine.reset();
                    }
                    let (wall, checksum) = drive_iterations(&mut engine, iterations);
                    checksums[slot] = checksum;
                    best[slot] = best[slot].min(wall.as_secs_f64() * 1e9 / iterations as f64);
                }
                if ff == FastForward::On {
                    let stats = engine.fast_forward_stats();
                    assert!(
                        stats.promotions >= 1,
                        "fast-forward never promoted at {nodes} nodes: {stats:?}"
                    );
                    fast_forwarded = stats.fast_forwarded_iterations;
                }
            }
            assert_eq!(
                checksums[0], checksums[1],
                "fast-forward changed observables at {nodes} nodes"
            );
            FfPoint {
                nodes,
                iterations,
                compiled_ns: best[0],
                fast_forward_ns: best[1],
                fast_forwarded_iterations: fast_forwarded,
            }
        })
        .collect()
}

/// One point of the batch-width grid: per-lane iteration cost of the
/// batched lockstep engine at a given graph size and lane count
/// (`width == 1` is the batching-off baseline the wider points are
/// compared against).
#[derive(Clone, Debug)]
pub struct BatchPoint {
    /// Node count of the evaluated graph (pipeline + padding).
    pub nodes: usize,
    /// Lockstep lanes evaluated together.
    pub width: usize,
    /// Lockstep iterations driven per timed repetition.
    pub iterations: u64,
    /// Best-of-reps cost per lane-iteration (ns): wall time over
    /// `iterations × width`.
    pub ns_per_lane_iter: f64,
}

/// Measures per-lane iteration cost of the batched engine at each target
/// node count and batch width, on the same padded synthetic pipelines as
/// [`backend_grid`].
///
/// Every lane drives a distinct token size, and each lane's output-instant
/// checksum is verified against a scalar compiled engine driving that
/// lane's trace alone — the conformance check is built into the
/// measurement. The iteration count per point depends only on the node
/// budget, not the width, so `ns_per_lane_iter` across widths compares
/// equal work per lane.
///
/// # Panics
///
/// Panics if `reps == 0`, a pipeline fails to derive or batch, or any
/// lane's checksum diverges from the scalar engine.
pub fn batch_grid(
    targets: &[usize],
    widths: &[usize],
    budget: u64,
    reps: usize,
) -> Vec<BatchPoint> {
    assert!(reps > 0, "at least one repetition required");
    let lane_size = |lane: usize| 3 + (lane % 5) as u64;
    let mut out = Vec::new();
    for &target in targets {
        let p = synthetic::pipeline(3, 200, 2).expect("pipeline builds");
        let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
        derived.map_tdg(|tdg| synthetic::pad_to(tdg, target));
        let nodes = derived.tdg().node_count();
        let relations = p.arch.app().relations().len();
        let iterations = (budget / nodes.max(1) as u64).clamp(500, 200_000);

        // Scalar reference checksums, one per distinct lane size.
        let mut reference = [0u64; 5];
        for (slot, checksum) in reference.iter_mut().enumerate() {
            let mut engine =
                Engine::with_backend(derived.clone(), relations, false, EvalBackend::Compiled);
            *checksum = drive_iterations_sized(&mut engine, iterations, lane_size(slot)).1;
        }

        for &width in widths {
            assert!(width > 0, "batch width must be at least one lane");
            let mut engine = BatchedEngine::try_new(derived.clone(), relations, false, width)
                .expect("padded pipelines are batchable");
            let mut best = f64::INFINITY;
            for rep in 0..reps {
                if rep > 0 {
                    engine.reset(width);
                }
                let mut checksums = vec![0u64; width];
                let mut offers: Vec<Option<(Time, u64)>> = vec![None; width];
                let start = Instant::now();
                for k in 0..iterations {
                    for (l, offer) in offers.iter_mut().enumerate() {
                        *offer = Some((Time::from_ticks(k * 50), lane_size(l)));
                    }
                    engine.set_input_batch(k, &offers);
                    for (l, checksum) in checksums.iter_mut().enumerate() {
                        while let Some((_, y, _)) = engine.next_output(l, 0) {
                            *checksum = checksum.wrapping_add(y.ticks());
                        }
                    }
                }
                let wall = start.elapsed();
                for (l, &checksum) in checksums.iter().enumerate() {
                    assert_eq!(
                        checksum,
                        reference[l % 5],
                        "lane {l} diverged from the scalar engine at {nodes} nodes width {width}"
                    );
                }
                best = best
                    .min(wall.as_secs_f64() * 1e9 / (iterations as f64 * width as f64));
            }
            out.push(BatchPoint {
                nodes,
                width,
                iterations,
                ns_per_lane_iter: best,
            });
        }
    }
    out
}

/// Renders backend-grid points (and, when non-empty, the batch-width and
/// fast-forward grids) as the `results/bench_engine.json` document
/// (machine-readable nodes → ns/iteration per backend, nodes × width →
/// ns/lane-iteration, nodes → sweep vs replay ns/iteration).
pub fn backend_report_json(
    points: &[BackendPoint],
    batch_points: &[BatchPoint],
    ff_points: &[FfPoint],
) -> Json {
    let mut fields = vec![
        ("benchmark", Json::str("engine_backend")),
        ("unit", Json::str("ns_per_iteration")),
        (
            "points",
            Json::Array(
                points
                    .iter()
                    .map(|p| {
                        Json::object([
                            ("nodes", Json::U64(p.nodes as u64)),
                            ("iterations", Json::U64(p.iterations)),
                            ("worklist_ns_per_iter", Json::F64(p.worklist_ns)),
                            ("compiled_ns_per_iter", Json::F64(p.compiled_ns)),
                            ("speedup", Json::F64(p.speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if !batch_points.is_empty() {
        fields.push((
            "batch_points",
            Json::Array(
                batch_points
                    .iter()
                    .map(|p| {
                        Json::object([
                            ("nodes", Json::U64(p.nodes as u64)),
                            ("width", Json::U64(p.width as u64)),
                            ("iterations", Json::U64(p.iterations)),
                            ("ns_per_lane_iter", Json::F64(p.ns_per_lane_iter)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if !ff_points.is_empty() {
        fields.push((
            "ff_points",
            Json::Array(
                ff_points
                    .iter()
                    .map(|p| {
                        Json::object([
                            ("nodes", Json::U64(p.nodes as u64)),
                            ("iterations", Json::U64(p.iterations)),
                            ("compiled_ns_per_iter", Json::F64(p.compiled_ns)),
                            ("fast_forward_ns_per_iter", Json::F64(p.fast_forward_ns)),
                            (
                                "fast_forwarded_iterations",
                                Json::U64(p.fast_forwarded_iterations),
                            ),
                            ("gain", Json::F64(p.gain())),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Json::object(fields)
}

/// Writes the backend report to `path`, creating parent directories.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_backend_report(
    path: &std::path::Path,
    points: &[BackendPoint],
    batch_points: &[BatchPoint],
    ff_points: &[FfPoint],
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(
        path,
        backend_report_json(points, batch_points, ff_points).render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Held by every test that asserts on wall-clock ratios, so no two of
    /// them share the cores: on a two-core host a concurrent grid starves
    /// the run being timed.
    static TIMED: Mutex<()> = Mutex::new(());

    fn timed() -> MutexGuard<'static, ()> {
        // A test that panicked while holding the lock leaves nothing to
        // repair: the lock guards no data.
        TIMED.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn measure_didactic_smoke() {
        let (d, env) = table1_example(1, 200);
        for fidelity in [Fidelity::Observing, Fidelity::BoundaryOnly] {
            let m = measure("smoke", &d.arch, &env, fidelity, 0, 0);
            assert!(m.accurate, "{fidelity:?}");
            assert!((m.event_ratio() - 3.0).abs() < 1e-9);
            assert!(m.conventional_activations > m.equivalent_activations);
        }
    }

    #[test]
    fn calibrated_regime_tracks_event_ratio() {
        let _timed = timed();
        // Table I's first and last rows, both models on the kernel: with a
        // dispatch that outweighs the engine's work per activation, the
        // speed-up approaches the activation ratio. An equivalent run
        // without kernel activations would be no Table I row. Example 4's
        // graph is four times larger, so an unoptimized test build's engine
        // needs a heavier dispatch to stay small beside it (at 3 µs it
        // reads about half its activation ratio).
        for (stages, tokens, dispatch_cost_ns) in [(1, 300, 3_000), (4, 100, 20_000)] {
            let (d, env) = table1_example(stages, tokens);
            let m = measure("calibrated", &d.arch, &env, Fidelity::Observing, dispatch_cost_ns, 0);
            assert!(m.accurate, "example {stages}");
            assert!(m.equivalent_activations > 0, "example {stages}");
            let activation_ratio =
                m.conventional_activations as f64 / m.equivalent_activations as f64;
            assert!(
                m.speedup() > 0.6 * activation_ratio,
                "example {stages}: speedup {} vs activation ratio {}",
                m.speedup(),
                activation_ratio
            );
        }
    }

    #[test]
    fn backend_grid_smoke() {
        let _timed = timed();
        let points = backend_grid(&[10, 60], 20_000, 2);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].nodes.max(10), points[0].nodes, "padding only grows graphs");
        assert!(points[1].nodes >= 60);
        assert!(points.iter().all(|p| p.worklist_ns > 0.0 && p.compiled_ns > 0.0));
        let rendered = backend_report_json(&points, &[], &[]).render();
        assert!(rendered.contains("\"benchmark\":\"engine_backend\""));
        assert!(rendered.contains("\"compiled_ns_per_iter\""));
        assert!(rendered.contains("\"speedup\""));
        assert!(!rendered.contains("\"batch_points\""));
        assert!(!rendered.contains("\"ff_points\""));
    }

    #[test]
    fn batch_grid_smoke() {
        let _timed = timed();
        // The grid's built-in checksum assertions are the conformance
        // check; here we also pin the shape of the report.
        let points = batch_grid(&[60], &[1, 4], 20_000, 2);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.nodes >= 60));
        assert!(points.iter().all(|p| p.ns_per_lane_iter > 0.0));
        assert_eq!(points[0].iterations, points[1].iterations, "same work per lane across widths");
        let rendered = backend_report_json(&[], &points, &[]).render();
        assert!(rendered.contains("\"batch_points\""));
        assert!(rendered.contains("\"ns_per_lane_iter\""));
        assert!(rendered.contains("\"width\":4"));
    }

    #[test]
    fn ff_grid_smoke() {
        let _timed = timed();
        // The grid's internal assertions already cover checksum
        // conformance and the promotion requirement; here we pin the
        // replay benefit and the report shape.
        let points = ff_grid(&[200], 1_000_000, 2);
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert!(p.nodes >= 200);
        assert!(p.fast_forwarded_iterations > p.iterations / 2, "{p:?}");
        assert!(
            p.gain() > 1.0,
            "fast-forward slower than the sweep: {:.1} vs {:.1} ns/it",
            p.fast_forward_ns,
            p.compiled_ns
        );
        let rendered = backend_report_json(&[], &[], &points).render();
        assert!(rendered.contains("\"ff_points\""));
        assert!(rendered.contains("\"fast_forward_ns_per_iter\""));
        assert!(rendered.contains("\"gain\""));
    }

    #[test]
    fn row_formatting() {
        let d = didactic::chained(1, didactic::Params::default()).unwrap();
        let env = Environment::new().stimulus(d.input(), Stimulus::saturating(10, |_| 0));
        let m = measure("fmt", &d.arch, &env, Fidelity::Observing, 0, 0);
        let row = format_row(&m);
        assert!(row.contains("fmt"));
        assert!(row.contains("exact"));
        assert_eq!(header().split_whitespace().count(), 9);
    }
}
