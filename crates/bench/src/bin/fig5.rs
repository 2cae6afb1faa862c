//! Reproduces **Fig. 5**: "Evaluation of the influence of the computation
//! method complexity on the achieved simulation speed-up".
//!
//! For several sizes of the evolution-instant vector `X(k)` (pipelines of
//! increasing length), the temporal dependency graph is padded with
//! computation-only nodes and the simulation speed-up of the dynamic
//! computation path is measured against the node count. The paper observes
//! negligible influence below ~100 nodes, degradation beyond, and a
//! slow-down past ~1000 nodes.
//!
//! Every (stages × padding) cell is one [`measure`]: both models run on
//! the DES kernel at the same dispatch cost, the way the paper times its
//! equivalent model on the simulator; the harness exits with status 1,
//! after printing the table, when any cell is not `exact`. A second grid
//! compares the engine's evaluation backends (worklist vs.
//! compiled CSR sweep) directly — per-iteration `ComputeInstant()` cost at
//! 10/100/1000/5000 nodes — a third measures lockstep batching across
//! batch widths, and a fourth the periodic steady-state fast-forward (O(1)
//! template replay vs the full sweep); all are written to
//! `results/bench_engine.json`.
//!
//! Usage: `fig5 [tokens] [dispatch_cost_ns] [--quick] [--metrics PATH]
//! [--trace PATH]` (defaults: 5 000 tokens, 1 µs kernel dispatch cost).
//! `--quick` is the CI smoke mode: it skips the Fig. 5 table and runs
//! only the grids' 1000-node points with a bounded iteration budget
//! (asserting compiled > worklist, batched > scalar,
//! fast-forward > sweep, that a width-8 batch actually dispatches to the
//! lane-chunked fold kernels, that the detached-observer compiled/worklist cost ratio
//! stays within `EVOLVE_OVERHEAD_TOLERANCE` — default 10% — of the
//! baseline ratio in `results/fig5_gates.json`, and that the width-8
//! batching gain stays within `EVOLVE_BATCH_TOLERANCE` — default 10% —
//! of that file's gain), writing to `results/bench_engine_smoke.json` so
//! the committed full-grid artifact is not clobbered. No run writes
//! `fig5_gates.json`: re-baselining the gates is an explicit copy of a
//! full run's `points` and `batch_points` into it. `--metrics PATH`
//! writes a streaming-telemetry snapshot of a fast-forwarding pipeline
//! scenario (Prometheus text, or JSON for `.json` paths); `--trace PATH`
//! writes a Chrome trace-event file of the same scenario, loadable in
//! Perfetto.

use std::path::PathBuf;

use evolve_bench::{
    backend_grid, batch_grid, exit_unless_exact, ff_grid, format_row, header, measure,
    total_engine_stats, write_backend_report, BackendPoint, BatchPoint, FfPoint, Fidelity,
};
use evolve_core::{derive_tdg, synthetic};
use evolve_explore::{
    run_sweep, trace_scenario, ModelKind, ModelSpec, ScenarioSpec, SweepConfig, TraceSpec,
};
use evolve_model::{varying_sizes, Environment, Stimulus};

fn backend_section(targets: &[usize], budget: u64, reps: usize) -> Vec<BackendPoint> {
    println!("== engine backends: per-iteration ComputeInstant() cost ==");
    println!(
        "{:>7} {:>12} {:>15} {:>15} {:>8}",
        "nodes", "iterations", "worklist ns/it", "compiled ns/it", "ratio"
    );
    let points = backend_grid(targets, budget, reps);
    for p in &points {
        println!(
            "{:>7} {:>12} {:>15.1} {:>15.1} {:>8.2}",
            p.nodes, p.iterations, p.worklist_ns, p.compiled_ns, p.speedup()
        );
    }
    points
}

/// Cost per lane-iteration across batch widths; the `gain` column is the
/// width-1 baseline over this width (> 1 means batching pays).
fn batch_section(targets: &[usize], widths: &[usize], budget: u64, reps: usize) -> Vec<BatchPoint> {
    println!("== batched lanes: per-lane iteration cost vs batch width ==");
    println!(
        "{:>7} {:>6} {:>12} {:>15} {:>7}",
        "nodes", "width", "iterations", "ns/lane-iter", "gain"
    );
    let points = batch_grid(targets, widths, budget, reps);
    for p in &points {
        let baseline = points
            .iter()
            .find(|b| b.nodes == p.nodes && b.width == 1)
            .map_or(p.ns_per_lane_iter, |b| b.ns_per_lane_iter);
        println!(
            "{:>7} {:>6} {:>12} {:>15.1} {:>7.2}",
            p.nodes,
            p.width,
            p.iterations,
            p.ns_per_lane_iter,
            baseline / p.ns_per_lane_iter.max(1e-12),
        );
    }
    points
}

/// Steady-state replay against the full sweep on a strictly periodic
/// stimulus; the `gain` column is sweep cost over replay cost per
/// iteration (> 1 means fast-forward pays).
fn ff_section(targets: &[usize], budget: u64, reps: usize) -> Vec<FfPoint> {
    println!("== periodic fast-forward: steady-state replay vs compiled sweep ==");
    println!(
        "{:>7} {:>12} {:>15} {:>15} {:>12} {:>8}",
        "nodes", "iterations", "sweep ns/it", "replay ns/it", "replayed", "gain"
    );
    let points = ff_grid(targets, budget, reps);
    for p in &points {
        println!(
            "{:>7} {:>12} {:>15.1} {:>15.1} {:>12} {:>8.2}",
            p.nodes,
            p.iterations,
            p.compiled_ns,
            p.fast_forward_ns,
            p.fast_forwarded_iterations,
            p.gain()
        );
    }
    points
}

fn write_report(
    out: &str,
    points: &[BackendPoint],
    batch_points: &[BatchPoint],
    ff_points: &[FfPoint],
) {
    let path = std::path::Path::new(out);
    write_backend_report(path, points, batch_points, ff_points).expect("backend report written");
    println!("engine grids written to {}", path.display());
}

/// A saturating fixed-size pipeline stimulus the fast-forward detector
/// promotes — the exemplar scenario behind `--metrics` and `--trace`, so
/// the exported telemetry demonstrates exact observation-time usage across
/// template replay.
fn telemetry_scenario(tokens: u64) -> ScenarioSpec {
    ScenarioSpec {
        label: "telemetry-pipeline".into(),
        model: ModelSpec {
            kind: ModelKind::Pipeline { stages: 4, base: 100, per_unit: 3 },
            padding: 0,
            backend: Default::default(),
        },
        trace: TraceSpec {
            tokens,
            min_size: 64,
            max_size: 64,
            mean_period: 0,
            seed: 0x5eed,
        },
    }
}

/// Writes the `--metrics` / `--trace` artifacts of the telemetry scenario.
fn write_telemetry(metrics: Option<&PathBuf>, trace: Option<&PathBuf>, tokens: u64) {
    if let Some(path) = metrics {
        let report = run_sweep(
            &[telemetry_scenario(tokens)],
            &SweepConfig { telemetry: true, ..SweepConfig::default() },
        );
        report.write_metrics(path).expect("metrics written");
        println!("telemetry metrics written to {}", path.display());
    }
    if let Some(path) = trace {
        let (_, collector) = trace_scenario(&telemetry_scenario(tokens), &SweepConfig::default());
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("trace directory created");
        }
        std::fs::write(path, collector.to_chrome_trace().render()).expect("trace written");
        println!("Perfetto trace written to {}", path.display());
    }
}

/// The committed baseline of the quick-mode gates: the `points` and
/// `batch_points` arrays of a full run's `bench_engine.json`, copied by
/// hand, so regenerating Fig. 5 never moves the gates.
const GATES_BASELINE: &str = "results/fig5_gates.json";

/// Reads [`GATES_BASELINE`]; a gate without its baseline fails.
fn gates_baseline() -> String {
    std::fs::read_to_string(GATES_BASELINE)
        .unwrap_or_else(|e| panic!("gate baseline {GATES_BASELINE} unreadable: {e}"))
}

/// Pulls the 1000-node `(worklist_ns_per_iter, compiled_ns_per_iter)` pair
/// out of the gate baseline (a flat scan of the `points` array — the
/// arrays are in the format this binary writes, so the shape is known).
fn baseline_backend_ns(report: &str) -> Option<(f64, f64)> {
    // Restrict to the backend `points` array: `batch_points` repeats the
    // `"nodes":1000` key with different fields.
    let points = &report[..report.find("\"batch_points\"").unwrap_or(report.len())];
    let at = points.find("\"nodes\":1000,")?;
    let rest = &points[at..];
    let field = |key: &str| -> Option<f64> {
        let val = &rest[rest.find(key)? + key.len()..];
        let end = val.find([',', '}'])?;
        val[..end].parse().ok()
    };
    Some((
        field("\"worklist_ns_per_iter\":")?,
        field("\"compiled_ns_per_iter\":")?,
    ))
}

/// The disabled-observer overhead gate: the quick-mode compiled-to-worklist
/// cost ratio at 1000 nodes must stay within `EVOLVE_OVERHEAD_TOLERANCE`
/// (default 10%) of the [`GATES_BASELINE`] ratio. The engines in this run
/// carry the observer hooks but no attached observer, so a regression here
/// means the detached hot path got slower *relative to the worklist
/// reference measured seconds earlier in the same process* — comparing
/// ratios rather than absolute ns/it cancels the uniform wall-clock drift
/// (thermal throttling, host frequency scaling) that makes absolute
/// nanosecond gates unenforceable on shared boxes, while still catching the
/// failure mode this gate exists for: observer hooks leaking cost into the
/// compiled sweep, which does not slow the worklist.
fn overhead_gate(p: &BackendPoint) {
    let tolerance: f64 = std::env::var("EVOLVE_OVERHEAD_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.10);
    let (base_worklist, base_compiled) = baseline_backend_ns(&gates_baseline())
        .unwrap_or_else(|| panic!("no 1000-node backend point in {GATES_BASELINE}"));
    let measured_ratio = p.compiled_ns / p.worklist_ns.max(1e-12);
    let baseline_ratio = base_compiled / base_worklist.max(1e-12);
    let regression = measured_ratio / baseline_ratio - 1.0;
    assert!(
        regression < tolerance,
        "detached-observer hot path regressed {:.2}% over the recorded baseline \
         (compiled/worklist {measured_ratio:.3} vs {baseline_ratio:.3} at 1000 nodes, \
         tolerance {:.0}%)",
        regression * 100.0,
        tolerance * 100.0,
    );
    println!(
        "overhead gate: compiled/worklist {measured_ratio:.3} vs baseline {baseline_ratio:.3} \
         ({:+.2}%, tolerance {:.0}%) — ok",
        regression * 100.0,
        tolerance * 100.0,
    );
}

/// Pulls `ns_per_lane_iter` for one `(nodes, width)` cell out of the
/// gate baseline's `batch_points` array (same flat-scan approach as
/// [`baseline_backend_ns`]).
fn baseline_batch_ns(report: &str, nodes: u64, width: u64) -> Option<f64> {
    let start = report.find("\"batch_points\"")?;
    let section = &report[start..];
    let section = &section[..section.find(']').unwrap_or(section.len())];
    let needle = format!("\"nodes\":{nodes},\"width\":{width},");
    let rest = &section[section.find(&needle)?..];
    let key = "\"ns_per_lane_iter\":";
    let val = &rest[rest.find(key)? + key.len()..];
    let end = val.find([',', '}'])?;
    val[..end].parse().ok()
}

/// The batch-gain regression gate, mirroring [`overhead_gate`]'s
/// ratio-of-ratios shape: the quick-mode width-8 batching gain at 1000
/// nodes (width-1 cost over width-8 cost, both measured in this run) must
/// stay within `EVOLVE_BATCH_TOLERANCE` (default 10%) of the
/// [`GATES_BASELINE`] gain, so the lane-chunked kernel cannot silently
/// lose its advantage. Gating the gain rather than absolute ns/lane-iter
/// cancels uniform host drift for the same reason as the overhead gate.
fn batch_gate(scalar_ns: f64, batched_ns: f64) {
    let tolerance: f64 = std::env::var("EVOLVE_BATCH_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.10);
    let report = gates_baseline();
    let (Some(base_scalar), Some(base_batched)) = (
        baseline_batch_ns(&report, 1_000, 1),
        baseline_batch_ns(&report, 1_000, 8),
    ) else {
        panic!("no 1000-node batch points in {GATES_BASELINE}");
    };
    let measured_gain = scalar_ns / batched_ns.max(1e-12);
    let baseline_gain = base_scalar / base_batched.max(1e-12);
    let shortfall = 1.0 - measured_gain / baseline_gain;
    assert!(
        shortfall < tolerance,
        "batched width-8 gain regressed {:.2}% under the recorded baseline \
         ({measured_gain:.2}x vs {baseline_gain:.2}x at 1000 nodes, tolerance {:.0}%)",
        shortfall * 100.0,
        tolerance * 100.0,
    );
    println!(
        "batch gate: width 8 gain {measured_gain:.2}x vs baseline {baseline_gain:.2}x \
         ({:+.2}%, tolerance {:.0}%) — ok",
        -shortfall * 100.0,
        tolerance * 100.0,
    );
}

/// The kernel-dispatch smoke assert: a width-8 batch sweep must actually
/// take the lane-chunked fold kernels, not the per-element fallback.
fn kernel_dispatch_smoke() {
    use evolve_core::BatchedEngine;
    use evolve_des::Time;
    let p = synthetic::pipeline(3, 200, 2).expect("pipeline builds");
    let relations = p.arch.app().relations().len();
    let mut engine =
        BatchedEngine::try_new(derive_tdg(&p.arch).expect("derives"), relations, false, 8)
            .expect("pipelines are batchable");
    let offers: Vec<Option<(Time, u64)>> =
        (0..8).map(|l| Some((Time::from_ticks(l), 4))).collect();
    engine.set_input_batch(0, &offers);
    let dispatch = engine.kernel_dispatch();
    assert!(
        dispatch.chunked_sweeps > 0 && dispatch.scalar_sweeps == 0,
        "width-8 sweep did not take the chunked kernel path: {dispatch:?}"
    );
    println!(
        "kernel dispatch smoke: width 8 on the chunked path (simd level {}) — ok",
        evolve_core::kernel::simd_level()
    );
}

fn main() {
    let mut quick = false;
    let mut metrics: Option<PathBuf> = None;
    let mut trace: Option<PathBuf> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--metrics" => {
                metrics = Some(PathBuf::from(raw.next().expect("--metrics requires a path")));
            }
            "--trace" => {
                trace = Some(PathBuf::from(raw.next().expect("--trace requires a path")));
            }
            other if other.starts_with("--") => panic!("unknown flag {other}"),
            _ => positional.push(arg),
        }
    }
    let mut args = positional.into_iter();
    let tokens: u64 = args
        .next()
        .map(|s| s.parse().expect("tokens must be a number"))
        .unwrap_or(5_000);
    let cost: u64 = args
        .next()
        .map(|s| s.parse().expect("dispatch cost must be a number"))
        .unwrap_or(1_000);

    if quick {
        // CI smoke: the compiled backend must beat the worklist and the
        // batched engine must beat one-lane evaluation at the 1000-node
        // point. The backend budget matches the full grid's 1000-node
        // configuration (2000 iterations × 3 reps) so the measurement is
        // comparable against the committed baseline for the overhead gate.
        let points = backend_section(&[1_000], 2_000_000, 3);
        let p = &points[0];
        assert!(
            p.speedup() > 1.0,
            "compiled backend slower than worklist at {} nodes ({:.1} vs {:.1} ns/it)",
            p.nodes,
            p.compiled_ns,
            p.worklist_ns
        );
        overhead_gate(p);
        kernel_dispatch_smoke();
        // The batch budget matches the full grid's 1000-node configuration
        // (2000 iterations) so the width-8 point is comparable against the
        // committed baseline for the batch gate.
        let batch_points = batch_section(&[1_000], &[1, 8], 2_000_000, 2);
        let gain = batch_points[0].ns_per_lane_iter / batch_points[1].ns_per_lane_iter.max(1e-12);
        assert!(
            gain > 1.0,
            "batched lanes slower than scalar at {} nodes ({:.1} vs {:.1} ns/lane-iter)",
            batch_points[1].nodes,
            batch_points[1].ns_per_lane_iter,
            batch_points[0].ns_per_lane_iter
        );
        batch_gate(
            batch_points[0].ns_per_lane_iter,
            batch_points[1].ns_per_lane_iter,
        );
        // Fast-forward smoke: the grid itself asserts checksum conformance
        // and that the run promoted; the gate here is the replay benefit.
        let ff_points = ff_section(&[1_000], 1_000_000, 2);
        let f = &ff_points[0];
        assert!(
            f.gain() > 1.0,
            "fast-forward slower than the sweep at {} nodes ({:.1} vs {:.1} ns/it)",
            f.nodes,
            f.fast_forward_ns,
            f.compiled_ns
        );
        write_report("results/bench_engine_smoke.json", &points, &batch_points, &ff_points);
        println!(
            "quick mode: compiled backend {:.2}x, batch width 8 {:.2}x, fast-forward {:.2}x at {} nodes — ok",
            p.speedup(),
            gain,
            f.gain(),
            p.nodes
        );
        write_telemetry(metrics.as_ref(), trace.as_ref(), tokens.min(500));
        return;
    }

    println!("Fig. 5 reproduction — speed-up vs. graph node count");
    println!(
        "stimulus: {tokens} tokens; both models on the DES kernel at {cost} ns/dispatch, best of \
         3 runs each"
    );
    println!("(paper: curves for X sizes 6/10/20/30; flat < 100 nodes, slow-down > 1000)");
    println!();

    println!("{}", header());
    let mut measurements = Vec::new();
    // Pipeline stages chosen so the derived X vector sizes bracket the
    // paper's 6/10/20/30.
    for stages in [2usize, 3, 6, 10] {
        let p = synthetic::pipeline(stages, 200, 2).expect("pipeline builds");
        let x_size = derive_tdg(&p.arch).expect("derives").tdg().node_count() - 1;
        let env = Environment::new().stimulus(
            p.input,
            Stimulus::saturating(tokens, varying_sizes(1, 64, stages as u64)),
        );
        for padding in [0usize, 10, 30, 100, 300, 1_000, 3_000] {
            let label = format!("X={x_size} +{padding}");
            let m = measure(label, &p.arch, &env, Fidelity::Observing, cost, padding);
            println!("{}", format_row(&m));
            measurements.push(m);
        }
        println!();
    }
    let totals = total_engine_stats(&measurements);
    println!(
        "engine totals: {} nodes computed, {} arc evaluations, {} iterations",
        totals.nodes_computed, totals.arcs_evaluated, totals.iterations_completed
    );
    println!();
    exit_unless_exact(measurements.iter().all(|m| m.accurate));

    // The backend comparison underlying the overhead curve: the compiled
    // CSR sweep against the worklist, pure engine cost, no kernel.
    let points = backend_section(&[10, 100, 1_000, 5_000], 2_000_000, 3);
    println!();

    // The batch-width grid: amortizing one schedule walk over B lanes.
    // The 50 000-node point exercises the slot-ordered traversal at a
    // scale where accumulator rows no longer fit any cache level.
    let batch_points = batch_section(
        &[100, 1_000, 5_000, 50_000],
        &[1, 4, 8, 16, 32],
        2_000_000,
        3,
    );
    println!();

    // The steady-state headline: once promoted, an iteration is answered by
    // O(1) template replay — the budget puts the 1000-node point at 10 000
    // iterations, the acceptance configuration for the >= 5x replay gain.
    let ff_points = ff_section(&[10, 100, 1_000, 5_000], 10_000_000, 3);
    println!();

    write_report("results/bench_engine.json", &points, &batch_points, &ff_points);
    write_telemetry(metrics.as_ref(), trace.as_ref(), tokens.min(500));
}
