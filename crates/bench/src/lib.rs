//! Shared measurement machinery for the paper's evaluation harnesses.
//!
//! Every table and figure of the paper's Section IV/V is regenerated by a
//! binary in this crate, all built on [`measure`]: run the conventional and
//! the equivalent model of one architecture on identical stimuli, time
//! both, count kernel activity and the event ratio, and verify that
//! evolution instants agree.
//!
//! # Paired timing
//!
//! Every ratio a harness prints or gates comes from [`paired`]: the two
//! sides of a comparison run alternately, order swapped pair by pair
//! (A B, B A, …), and the result is the median per-pair ratio with its
//! quartiles and the number of pairs each side won. A host's drift then
//! moves both sides of a pair alike, and neither side always runs first.
//! In-process work is timed on [`thread_cpu_ns`], which leaves out the
//! time a shared host's other tenants hold the CPU.
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

use std::fmt;

use evolve_core::{
    derive_tdg, simplify, synthetic, BatchedEngine, DerivedTdg, Engine, EquivalentModelBuilder,
    EvalBackend, FastForward, KernelDispatchStats,
};
use evolve_des::Time;
use evolve_model::{didactic, elaborate, varying_sizes, Architecture, Environment, Stimulus};
use evolve_obs::json::Json;
use evolve_obs::EngineCounters;

/// On-CPU time of the calling thread, ns (`CLOCK_THREAD_CPUTIME_ID`).
/// Unlike the wall clock, it leaves out the time the thread waits for a
/// CPU that other processes hold.
///
/// # Panics
///
/// Panics if the clock cannot be read.
pub fn thread_cpu_ns() -> u64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` of the layout the
    // C library expects, and the thread CPU-time clock always exists; the
    // call writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Runs `f`, returning its result and the thread CPU ns it took.
pub fn on_cpu<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = thread_cpu_ns();
    let r = f();
    (r, (thread_cpu_ns() - start) as f64)
}

/// Two sides of a comparison timed in pairs by [`paired`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Paired {
    /// Median over pairs of B's cost over A's: A's speed-up over B.
    pub ratio: f64,
    /// Lower quartile of the per-pair ratios.
    pub q1: f64,
    /// Upper quartile of the per-pair ratios.
    pub q3: f64,
    /// Pairs in which A cost less than B.
    pub wins: usize,
    /// Pairs timed, warm-ups left out.
    pub pairs: usize,
    /// Median cost of A, in the unit its closure returns.
    pub a: f64,
    /// Median cost of B.
    pub b: f64,
}

impl Paired {
    /// The ratio, its quartiles, A's wins and the pair count as a JSON
    /// object.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("ratio", Json::F64(self.ratio)),
            ("q1", Json::F64(self.q1)),
            ("q3", Json::F64(self.q3)),
            ("wins", Json::U64(self.wins as u64)),
            ("pairs", Json::U64(self.pairs as u64)),
        ])
    }
}

impl fmt::Display for Paired {
    /// `ratio [q1–q3] wins/pairs`, numbers at the formatter's precision
    /// (default 2), right-aligned to its width.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = f.precision().unwrap_or(2);
        let text = format!(
            "{:.p$} [{:.p$}–{:.p$}] {}/{}",
            self.ratio, self.q1, self.q3, self.wins, self.pairs
        );
        write!(f, "{text:>width$}", width = f.width().unwrap_or(0))
    }
}

/// Times two sides of a comparison in `pairs` alternating pairs.
///
/// `a` and `b` each run one unit of work and return its cost, both in one
/// unit (thread CPU ns, seconds per scenario, …). After one warm-up call of
/// each, pair `i` calls `a` then `b` when `i` is even and `b` then `a`
/// when it is odd (A B, B A, A B, …), so drift and warm state fall on both
/// sides alike. The result holds the median and quartiles of the per-pair
/// ratios `b / a`, the pairs A won, and each side's median cost.
///
/// # Panics
///
/// Panics if `pairs == 0`.
pub fn paired(pairs: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Paired {
    assert!(pairs > 0, "at least one pair required");
    a();
    b();
    let (mut costs_a, mut costs_b) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for i in 0..pairs {
        if i % 2 == 0 {
            costs_a.push(a());
            costs_b.push(b());
        } else {
            costs_b.push(b());
            costs_a.push(a());
        }
    }
    let wins = costs_a.iter().zip(&costs_b).filter(|(a, b)| a < b).count();
    let mut ratios: Vec<f64> = costs_a.iter().zip(&costs_b).map(|(a, b)| b / a).collect();
    let [q1, ratio, q3] = quartiles(&mut ratios);
    Paired {
        ratio,
        q1,
        q3,
        wins,
        pairs,
        a: quartiles(&mut costs_a)[1],
        b: quartiles(&mut costs_b)[1],
    }
}

/// Lower quartile, median and upper quartile of `xs`, sorting it in
/// place and interpolating linearly between neighbouring ranks.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn quartiles(xs: &mut [f64]) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = p * (xs.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

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

/// Pairs [`measure`] times the two models in.
pub const MEASURE_PAIRS: usize = 5;

/// One conventional-vs-equivalent comparison.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Scenario label.
    pub label: String,
    /// The equivalent run (A) against the conventional run (B), in thread
    /// CPU ns per run: the ratio is the speed-up (Table I column 4).
    pub timing: Paired,
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
    /// Speed-up (Table I column 4): the median per-pair ratio.
    pub fn speedup(&self) -> f64 {
        self.timing.ratio
    }

    /// Event ratio (Table I column 3).
    pub fn event_ratio(&self) -> f64 {
        self.conventional_events as f64 / self.equivalent_events.max(1) as f64
    }
}

/// Runs both models of `arch` under `env` in [`MEASURE_PAIRS`] pairs and
/// measures them.
///
/// `dispatch_cost_ns` calibrates the kernel's per-activation host cost in
/// both runs (0 = native). `padding` adds computation-only graph nodes
/// (the Fig. 5 knob). Each run is built untimed and its kernel run timed
/// on [`thread_cpu_ns`].
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
    let (mut conventional, mut equivalent, mut nodes) = (None, None, 0);
    let timing = paired(
        MEASURE_PAIRS,
        || {
            let mut sim = builder.build(env).expect("equivalent model builds");
            sim.kernel_mut().set_dispatch_cost_ns(dispatch_cost_ns);
            nodes = sim.node_count();
            let (report, ns) = on_cpu(|| sim.run());
            equivalent = Some(report);
            ns
        },
        || {
            let mut sim = elaborate(arch, env).expect("conventional model builds");
            sim.kernel_mut().set_dispatch_cost_ns(dispatch_cost_ns);
            let (report, ns) = on_cpu(|| sim.run());
            conventional = Some(report);
            ns
        },
    );
    let conventional = conventional.expect("paired runs both sides");
    let equivalent = equivalent.expect("paired runs both sides");

    // Accuracy: boundary instants must agree in every fidelity.
    let accurate = arch
        .app()
        .external_inputs()
        .into_iter()
        .chain(arch.app().external_outputs())
        .all(|relation| {
            conventional.relation_logs[relation.index()].write_instants
                == equivalent.run.relation_logs[relation.index()].write_instants
        });

    Measurement {
        label: label.into(),
        timing,
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

/// Formats a measurement table row (fixed-width, terminal friendly): the
/// median run times, the event ratio, the speed-up with its quartiles and
/// the pairs the equivalent run won.
pub fn format_row(m: &Measurement) -> String {
    format!(
        "{:<18} {:>10.3} {:>10.3} {:>8.2} {:>24.2} {:>7} {:>9}",
        m.label,
        m.timing.b / 1e6,
        m.timing.a / 1e6,
        m.event_ratio(),
        m.timing,
        m.nodes,
        if m.accurate { "exact" } else { "MISMATCH" },
    )
}

/// The header matching [`format_row`].
pub fn header() -> String {
    format!(
        "{:<18} {:>10} {:>10} {:>8} {:>24} {:>7} {:>9}",
        "model", "conv (ms)", "equiv (ms)", "ev.ratio", "speedup [q1–q3] won", "nodes", "accuracy"
    )
}

/// The padded synthetic pipeline every engine grid drives: a three-stage
/// pipeline padded with computation-only nodes to a target count (the
/// Fig. 5 graphs), and the iterations one timed drive runs.
struct Fixture {
    derived: DerivedTdg,
    relations: usize,
    nodes: usize,
    iterations: u64,
}

impl Fixture {
    /// The pipeline padded to `target` nodes; a drive runs
    /// `(budget / nodes).clamp(500, 200_000)` iterations.
    fn new(target: usize, budget: u64) -> Self {
        let p = synthetic::pipeline(3, 200, 2).expect("pipeline builds");
        let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
        derived.map_tdg(|tdg| synthetic::pad_to(tdg, target));
        let nodes = derived.tdg().node_count();
        Fixture {
            derived,
            relations: p.arch.app().relations().len(),
            nodes,
            iterations: (budget / nodes.max(1) as u64).clamp(500, 200_000),
        }
    }

    /// A scalar engine of the graph, observation replay off.
    fn engine(&self, backend: EvalBackend) -> Engine {
        Engine::with_backend(self.derived.clone(), self.relations, false, backend)
    }

    /// A lockstep engine of `width` lanes, observation replay off.
    fn batched(&self, width: usize) -> BatchedEngine {
        BatchedEngine::try_new(self.derived.clone(), self.relations, false, width)
            .expect("padded pipelines are batchable")
    }

    /// Rewinds `engine` and drives it through the fixture's iterations of
    /// saturating tokens of `size`, draining outputs: thread CPU ns per
    /// iteration, and an output-instant checksum.
    fn drive(&self, engine: &mut Engine, size: u64) -> (f64, u64) {
        engine.reset();
        let (checksum, ns) = on_cpu(|| {
            let mut checksum = 0u64;
            for k in 0..self.iterations {
                engine.set_input(0, k, Time::from_ticks(k * 50), size);
                while let Some((_, y, _)) = engine.next_output(0) {
                    checksum = checksum.wrapping_add(y.ticks());
                }
            }
            checksum
        });
        (ns / self.iterations as f64, checksum)
    }

    /// Rewinds `engine` and drives every lane through the fixture's
    /// iterations, lane `l` offering tokens of size [`lane_size`]`(l)`;
    /// asserts each lane's output checksum against `reference` (the scalar
    /// engine's, by lane size) and returns thread CPU ns per
    /// lane-iteration.
    fn drive_batch(&self, engine: &mut BatchedEngine, reference: &[u64]) -> f64 {
        let width = engine.lanes();
        engine.reset(width);
        let mut checksums = vec![0u64; width];
        let mut offers: Vec<Option<(Time, u64)>> = vec![None; width];
        let ((), ns) = on_cpu(|| {
            for k in 0..self.iterations {
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
        });
        for (l, &checksum) in checksums.iter().enumerate() {
            assert_eq!(
                checksum,
                reference[l % reference.len()],
                "lane {l} diverged from the scalar engine at {} nodes width {width}",
                self.nodes
            );
        }
        ns / (self.iterations as f64 * width as f64)
    }
}

/// The token size lane `l` of a batch-grid drive offers (five distinct
/// sizes, so lanes differ).
fn lane_size(lane: usize) -> u64 {
    3 + (lane % 5) as u64
}

/// Races engine `a` against engine `b` on the fixture's drive of size-3
/// tokens in `pairs` [`paired`] drives, asserting that both produce the
/// same output instants.
fn race(fx: &Fixture, pairs: usize, a: &mut Engine, b: &mut Engine, what: &str) -> Paired {
    let (mut sum_a, mut sum_b) = (0, 0);
    let timing = paired(
        pairs,
        || {
            let (ns, sum) = fx.drive(a, 3);
            sum_a = sum;
            ns
        },
        || {
            let (ns, sum) = fx.drive(b, 3);
            sum_b = sum;
            ns
        },
    );
    assert_eq!(sum_a, sum_b, "{what} at {} nodes", fx.nodes);
    timing
}

/// One point of the engine-backend comparison grid: per-iteration
/// `ComputeInstant()` cost at a given graph size, for both evaluation
/// backends (the Fig. 5 overhead curve, measured directly on the engine
/// with no kernel and no observation replay).
#[derive(Clone, Debug)]
pub struct BackendPoint {
    /// Node count of the evaluated graph (pipeline + padding).
    pub nodes: usize,
    /// Iterations driven per timed run.
    pub iterations: u64,
    /// The compiled backend (A) against the worklist (B), in thread CPU ns
    /// per iteration: the ratio is the compiled sweep's speed-up.
    pub timing: Paired,
}

/// Measures per-iteration engine cost at each target node count for both
/// backends, on padded synthetic pipelines (the Fig. 5 graphs), in `pairs`
/// [`paired`] drives.
///
/// `budget` bounds total work per point: each drive runs
/// `(budget / nodes).clamp(500, 200_000)` iterations. Engines run with
/// observation replay off, so the measurement is the pure instant
/// propagation the backends differ on. Output checksums are compared
/// across backends as a built-in conformance check.
///
/// # Panics
///
/// Panics if `pairs == 0`, if a pipeline fails to derive, or if the
/// backends disagree on any output instant checksum.
pub fn backend_grid(targets: &[usize], budget: u64, pairs: usize) -> Vec<BackendPoint> {
    targets
        .iter()
        .map(|&target| {
            let fx = Fixture::new(target, budget);
            let (mut compiled, mut worklist) = (
                fx.engine(EvalBackend::Compiled),
                fx.engine(EvalBackend::Worklist),
            );
            let timing = race(
                &fx,
                pairs,
                &mut compiled,
                &mut worklist,
                "backends disagree",
            );
            BackendPoint {
                nodes: fx.nodes,
                iterations: fx.iterations,
                timing,
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
    /// Iterations driven per timed run.
    pub iterations: u64,
    /// Fast-forward on (A) against off (B), in thread CPU ns per
    /// iteration: the ratio is fast-forward's gain.
    pub timing: Paired,
    /// Iterations the fast-forward run answered by O(1) replay instead of
    /// a graph sweep (from its last run; runs are deterministic).
    pub fast_forwarded_iterations: u64,
}

/// Measures the steady-state benefit of periodic fast-forward at each
/// target node count, on the padded synthetic pipelines of
/// [`backend_grid`], compiled backend both sides, in `pairs` [`paired`]
/// drives.
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
/// Panics if `pairs == 0`, a pipeline fails to derive, the fast-forward
/// run fails to promote, or the checksums diverge.
pub fn ff_grid(targets: &[usize], budget: u64, pairs: usize) -> Vec<FfPoint> {
    targets
        .iter()
        .map(|&target| {
            let fx = Fixture::new(target, budget);
            let (mut on, mut off) = (
                fx.engine(EvalBackend::Compiled),
                fx.engine(EvalBackend::Compiled),
            );
            on.set_fast_forward(FastForward::On);
            let timing = race(
                &fx,
                pairs,
                &mut on,
                &mut off,
                "fast-forward changed observables",
            );
            let stats = on.fast_forward_stats();
            assert!(
                stats.promotions >= 1,
                "fast-forward never promoted at {} nodes: {stats:?}",
                fx.nodes
            );
            FfPoint {
                nodes: fx.nodes,
                iterations: fx.iterations,
                timing,
                fast_forwarded_iterations: stats.fast_forwarded_iterations,
            }
        })
        .collect()
}

/// One point of the batch-width grid: per-lane iteration cost of the
/// batched lockstep engine at a given graph size and lane count, against
/// one lane of the same engine.
#[derive(Clone, Debug)]
pub struct BatchPoint {
    /// Node count of the evaluated graph (pipeline + padding).
    pub nodes: usize,
    /// Lockstep lanes evaluated together.
    pub width: usize,
    /// Lockstep iterations driven per timed run.
    pub iterations: u64,
    /// The batch of `width` lanes (A) against one lane (B), in thread CPU
    /// ns per lane-iteration: the ratio is batching's gain.
    pub timing: Paired,
    /// The kernel path of the batch's lockstep sweeps in its last run.
    pub dispatch: KernelDispatchStats,
}

/// Measures per-lane iteration cost of the batched engine at each target
/// node count and batch width, each width against a one-lane batch in
/// `pairs` [`paired`] drives, on the padded synthetic pipelines of
/// [`backend_grid`].
///
/// Every lane drives a distinct token size, and each lane's output-instant
/// checksum is verified against a scalar compiled engine driving that
/// lane's trace alone — the conformance check is built into the
/// measurement. The iteration count per point depends only on the node
/// budget, not the width, so both sides of a pair do equal work per lane.
///
/// # Panics
///
/// Panics if `pairs == 0`, a width is below 2, a pipeline fails to derive
/// or batch, or any lane's checksum diverges from the scalar engine.
pub fn batch_grid(
    targets: &[usize],
    widths: &[usize],
    budget: u64,
    pairs: usize,
) -> Vec<BatchPoint> {
    let mut out = Vec::new();
    for &target in targets {
        let fx = Fixture::new(target, budget);
        let mut scalar = fx.engine(EvalBackend::Compiled);
        let reference: Vec<u64> = (0..5)
            .map(|l| fx.drive(&mut scalar, lane_size(l)).1)
            .collect();
        let mut one = fx.batched(1);
        for &width in widths {
            assert!(width > 1, "each width is compared against one lane");
            let mut batch = fx.batched(width);
            let timing = paired(
                pairs,
                || fx.drive_batch(&mut batch, &reference),
                || fx.drive_batch(&mut one, &reference),
            );
            out.push(BatchPoint {
                nodes: fx.nodes,
                width,
                iterations: fx.iterations,
                timing,
                dispatch: batch.kernel_dispatch(),
            });
        }
    }
    out
}

/// Writes backend-grid points (and, when non-empty, the batch-width and
/// fast-forward grids) to `path` as the `results/bench_engine.json`
/// document: per point, both sides' median costs and the paired ratio.
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
    std::fs::create_dir_all(path.parent().unwrap_or(std::path::Path::new(".")))?;
    std::fs::write(
        path,
        backend_report_json(points, batch_points, ff_points).render(),
    )
}

/// The document [`write_backend_report`] writes.
pub fn backend_report_json(
    points: &[BackendPoint],
    batch_points: &[BatchPoint],
    ff_points: &[FfPoint],
) -> Json {
    let backend = |p: &BackendPoint| {
        Json::object([
            ("nodes", Json::U64(p.nodes as u64)),
            ("iterations", Json::U64(p.iterations)),
            ("worklist_ns_per_iter", Json::F64(p.timing.b)),
            ("compiled_ns_per_iter", Json::F64(p.timing.a)),
            ("speedup", p.timing.to_json()),
        ])
    };
    let batch = |p: &BatchPoint| {
        Json::object([
            ("nodes", Json::U64(p.nodes as u64)),
            ("width", Json::U64(p.width as u64)),
            ("iterations", Json::U64(p.iterations)),
            ("ns_per_lane_iter", Json::F64(p.timing.a)),
            ("one_lane_ns_per_lane_iter", Json::F64(p.timing.b)),
            ("gain", p.timing.to_json()),
        ])
    };
    let ff = |p: &FfPoint| {
        Json::object([
            ("nodes", Json::U64(p.nodes as u64)),
            ("iterations", Json::U64(p.iterations)),
            ("compiled_ns_per_iter", Json::F64(p.timing.b)),
            ("fast_forward_ns_per_iter", Json::F64(p.timing.a)),
            (
                "fast_forwarded_iterations",
                Json::U64(p.fast_forwarded_iterations),
            ),
            ("gain", p.timing.to_json()),
        ])
    };
    let mut fields = vec![
        ("benchmark", Json::str("engine_backend")),
        ("unit", Json::str("thread_cpu_ns_per_iteration")),
        ("points", Json::Array(points.iter().map(backend).collect())),
    ];
    if !batch_points.is_empty() {
        fields.push((
            "batch_points",
            Json::Array(batch_points.iter().map(batch).collect()),
        ));
    }
    if !ff_points.is_empty() {
        fields.push(("ff_points", Json::Array(ff_points.iter().map(ff).collect())));
    }
    Json::object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::{Mutex, MutexGuard};

    /// Held by every test that asserts on timed ratios, so no two of them
    /// share the cores: on a two-core host a concurrent grid starves the
    /// run being timed.
    static TIMED: Mutex<()> = Mutex::new(());

    fn timed() -> MutexGuard<'static, ()> {
        // A test that panicked while holding the lock leaves nothing to
        // repair: the lock guards no data.
        TIMED.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn paired_alternates_order_and_summarizes_ratios() {
        // Fixed costs: A's calls return 1, 2, 3, …; every B call costs 12.
        // Calls: warm-ups (A 1, B), then A B, B A, A B, B A, A B.
        let calls = RefCell::new(Vec::new());
        let a_cost = RefCell::new(0.0);
        let p = paired(
            5,
            || {
                calls.borrow_mut().push('A');
                *a_cost.borrow_mut() += 1.0;
                *a_cost.borrow()
            },
            || {
                calls.borrow_mut().push('B');
                12.0
            },
        );
        let order: String = calls.into_inner().into_iter().collect();
        assert_eq!(order, ["AB", "AB", "BA", "AB", "BA", "AB"].concat());
        // Timed A costs 2..=6: ratios 12/2, 12/3, 12/4, 12/5, 12/6 =
        // 6, 4, 3, 2.4, 2 — sorted 2, 2.4, 3, 4, 6.
        assert_eq!(p.pairs, 5);
        assert_eq!(p.ratio, 3.0);
        assert_eq!(p.q1, 2.4);
        assert_eq!(p.q3, 4.0);
        assert_eq!(p.wins, 5, "A cost less than 12 in every pair");
        assert_eq!(p.a, 4.0);
        assert_eq!(p.b, 12.0);
        assert_eq!(format!("{p:.1}"), "3.0 [2.4–4.0] 5/5");
        assert_eq!(format!("{p:>20.1}"), "   3.0 [2.4–4.0] 5/5");
    }

    #[test]
    fn paired_counts_wins_and_interpolates_quartiles() {
        // B's timed costs 1, 2, 3, 4 against a constant A of 2.5: ratios
        // 0.4, 0.8, 1.2, 1.6; A wins the two pairs where B costs 3 and 4.
        let b_calls = RefCell::new(0.0);
        let p = paired(
            4,
            || 2.5,
            || {
                let cost = *b_calls.borrow();
                *b_calls.borrow_mut() += 1.0;
                cost
            },
        );
        assert_eq!(p.wins, 2);
        assert_eq!(p.pairs, 4);
        assert!((p.ratio - 1.0).abs() < 1e-12, "{p:?}");
        assert!((p.q1 - 0.7).abs() < 1e-12, "{p:?}");
        assert!((p.q3 - 1.3).abs() < 1e-12, "{p:?}");
        assert_eq!(p.b, 2.5);
    }

    #[test]
    fn measure_didactic_smoke() {
        let (d, env) = table1_example(1, 200);
        for fidelity in [Fidelity::Observing, Fidelity::BoundaryOnly] {
            let m = measure("smoke", &d.arch, &env, fidelity, 0, 0);
            assert!(m.accurate, "{fidelity:?}");
            assert!((m.event_ratio() - 3.0).abs() < 1e-9);
            assert!(m.conventional_activations > m.equivalent_activations);
            assert_eq!(m.timing.pairs, MEASURE_PAIRS);
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
            let m = measure(
                "calibrated",
                &d.arch,
                &env,
                Fidelity::Observing,
                dispatch_cost_ns,
                0,
            );
            assert!(m.accurate, "example {stages}");
            assert!(m.equivalent_activations > 0, "example {stages}");
            let activation_ratio =
                m.conventional_activations as f64 / m.equivalent_activations as f64;
            assert!(
                m.speedup() > 0.6 * activation_ratio,
                "example {stages}: speedup {} vs activation ratio {}",
                m.timing,
                activation_ratio
            );
        }
    }

    #[test]
    fn backend_grid_smoke() {
        let _timed = timed();
        let points = backend_grid(&[10, 60], 20_000, 2);
        assert_eq!(points.len(), 2);
        assert_eq!(
            points[0].nodes.max(10),
            points[0].nodes,
            "padding only grows graphs"
        );
        assert!(points[1].nodes >= 60);
        assert!(points.iter().all(|p| p.timing.a > 0.0 && p.timing.b > 0.0));
        assert!(points.iter().all(|p| p.timing.pairs == 2));
        let rendered = backend_report_json(&points, &[], &[]).render();
        assert!(rendered.contains("\"benchmark\":\"engine_backend\""));
        assert!(rendered.contains("\"compiled_ns_per_iter\""));
        assert!(rendered.contains("\"speedup\":{\"ratio\""));
        assert!(!rendered.contains("\"batch_points\""));
        assert!(!rendered.contains("\"ff_points\""));
    }

    #[test]
    fn batch_grid_smoke() {
        let _timed = timed();
        // The grid's built-in checksum assertions are the conformance
        // check; here we also pin the shape of the report.
        let points = batch_grid(&[60], &[4, 8], 20_000, 2);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.nodes >= 60));
        assert!(points.iter().all(|p| p.timing.a > 0.0 && p.timing.b > 0.0));
        assert_eq!(
            points[0].iterations, points[1].iterations,
            "same work per lane across widths"
        );
        let rendered = backend_report_json(&[], &points, &[]).render();
        assert!(rendered.contains("\"batch_points\""));
        assert!(rendered.contains("\"ns_per_lane_iter\""));
        assert!(rendered.contains("\"width\":4"));
        assert!(rendered.contains("\"gain\":{\"ratio\""));
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
            p.timing.ratio > 1.0,
            "fast-forward slower than the sweep: {:.1} vs {:.1} ns/it",
            p.timing.a,
            p.timing.b
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
        assert!(row.contains(&format!("/{MEASURE_PAIRS}")), "{row}");
        assert_eq!(header().split_whitespace().count(), 11);
        assert_eq!(row.split_whitespace().count(), 9, "{row}");
    }
}
