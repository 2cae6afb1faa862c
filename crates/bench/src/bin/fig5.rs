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
//! The whole (stages × padding) grid is one parallel scenario sweep: every
//! cell is a [`ScenarioSpec`] evaluated on a reused engine, with the
//! conventional reference simulation run per cell for the speed-up column.
//! A second grid compares the engine's evaluation backends (worklist vs.
//! compiled CSR sweep) directly — per-iteration `ComputeInstant()` cost at
//! 10/100/1000/5000 nodes — a third measures the periodic
//! steady-state fast-forward (O(1) template replay vs the full sweep), and
//! a fourth measures delta evaluation against a captured sibling cache,
//! and a fifth measures the intra-graph partitioned sweep against the
//! serial compiled sweep on wide padded graphs up to 200 000 nodes; all
//! are written to
//! `results/bench_engine.json`. Partition rows publish within-run ratios
//! (serial and partitioned cost measured seconds apart in one process)
//! because absolute nanoseconds drift with host load.
//!
//! Usage: `fig5 [tokens] [dispatch_cost_ns] [threads] [--quick]
//! [--metrics PATH] [--trace PATH]`
//! (defaults: 5 000 tokens, 1 µs reference calibration, host parallelism).
//! `--quick` is the CI smoke mode: it skips the conventional-reference
//! sweep and runs only the grids' 1000-node points with a bounded
//! iteration budget (asserting compiled > worklist, batched > scalar,
//! fast-forward > sweep, delta > full, that a delta-chained sweep over the
//! default 256-scenario grid is bitwise identical to the full compiled
//! path, that a width-8 batch actually dispatches to the lane-chunked
//! fold kernels, that a 2-worker partitioned sweep matches the serial
//! checksum (and beats serial where the host has >= 2 cores), that the
//! detached-observer
//! compiled/worklist cost ratio
//! stays within `EVOLVE_OVERHEAD_TOLERANCE` — default 10% — of the
//! committed `results/bench_engine.json` baseline's ratio, and that the
//! width-8 batching gain stays within `EVOLVE_BATCH_TOLERANCE` — default
//! 10% — of the committed grid's gain), writing to
//! `results/bench_engine_smoke.json` so the committed full-grid artifact
//! is not clobbered. `--metrics PATH` writes a streaming-telemetry
//! snapshot (Prometheus text, or JSON for `.json` paths); `--trace PATH`
//! writes a Chrome trace-event file loadable in Perfetto.

use std::path::PathBuf;

use evolve_bench::{
    backend_grid, batch_grid, delta_grid, ff_grid, format_row, header, partition_grid,
    sweep_measurements, total_engine_stats, write_backend_report, BackendPoint, BatchPoint,
    DeltaPoint, FfPoint, PartitionPoint,
};
use evolve_core::{derive_tdg, synthetic};
use evolve_explore::{
    default_grid, run_sweep, trace_scenario, ModelKind, ModelSpec, ScenarioSpec, SweepConfig,
    SweepReport, TraceSpec,
};

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

/// Partitioned level-parallel sweep against the serial compiled sweep on
/// wide padded graphs; the gain column is a within-run ratio against the
/// serial baseline measured in the same process, and every partitioned
/// run is bitwise-checked against the serial checksum inside the grid
/// itself.
fn partition_section(
    targets: &[usize],
    thread_counts: &[usize],
    budget: u64,
    reps: usize,
) -> Vec<PartitionPoint> {
    println!("== partitioned sweep: intra-graph workers vs serial compiled ==");
    println!(
        "{:>7} {:>4} {:>12} {:>13} {:>13} {:>8}",
        "nodes", "P", "iterations", "serial ns/it", "barrier ns/it", "b gain"
    );
    let points = partition_grid(targets, thread_counts, budget, reps);
    for p in &points {
        println!(
            "{:>7} {:>4} {:>12} {:>13.1} {:>13.1} {:>8.2}",
            p.nodes,
            p.threads,
            p.iterations,
            p.serial_ns,
            p.barrier_ns,
            p.barrier_speedup(),
        );
    }
    points
}

/// Full-evaluation cost against a sibling diffing the captured base cache;
/// the `gain` column is full over delta cost per iteration (> 1 means
/// delta evaluation pays).
fn delta_section(targets: &[usize], budget: u64, reps: usize) -> Vec<DeltaPoint> {
    println!("== delta evaluation: sibling cache replay vs full compiled sweep ==");
    println!(
        "{:>7} {:>12} {:>15} {:>15} {:>8} {:>8}",
        "nodes", "iterations", "full ns/it", "delta ns/it", "reused", "gain"
    );
    let points = delta_grid(targets, budget, reps);
    for p in &points {
        println!(
            "{:>7} {:>12} {:>15.1} {:>15.1} {:>8.2} {:>8.2}",
            p.nodes,
            p.iterations,
            p.compiled_ns,
            p.delta_ns,
            p.reused_fraction,
            p.gain()
        );
    }
    points
}

/// The delta-chained sweep conformance gate: the default sibling-heavy
/// scenario grid evaluated with delta chaining on must be bitwise
/// identical — outcomes and output-instant checksum — to the same sweep
/// with chaining off, and chains must actually have formed.
fn delta_sweep_gate(count: u64, tokens: u64, threads: usize) {
    let scenarios = default_grid(count, tokens);
    let base = SweepConfig { threads, batch_width: 1, ..SweepConfig::default() };
    let on = run_sweep(&scenarios, &SweepConfig { delta: true, ..base.clone() });
    let off = run_sweep(&scenarios, &SweepConfig { delta: false, ..base });
    let checksum = |r: &evolve_explore::SweepReport| {
        r.scenarios
            .iter()
            .flat_map(|s| s.outcome.outputs.iter())
            .fold(0u64, |acc, &(_, y, _)| acc.wrapping_add(y))
    };
    assert!(
        on.delta.lanes_delta > 0,
        "no delta lanes formed on the default grid: {:?}",
        on.delta
    );
    for (a, b) in on.scenarios.iter().zip(&off.scenarios) {
        assert_eq!(
            a.outcome, b.outcome,
            "delta chaining changed scenario {}",
            a.label
        );
    }
    assert_eq!(checksum(&on), checksum(&off), "delta sweep checksum diverged");
    println!(
        "delta sweep gate: {} scenarios, {} chains, {} delta lanes, checksum {:#x} — bitwise ok",
        on.scenarios.len(),
        on.delta.chains_formed,
        on.delta.lanes_delta,
        checksum(&on),
    );
}

fn write_report(
    out: &str,
    points: &[BackendPoint],
    batch_points: &[BatchPoint],
    ff_points: &[FfPoint],
    delta_points: &[DeltaPoint],
    partition_points: &[PartitionPoint],
) {
    let path = std::path::Path::new(out);
    write_backend_report(
        path,
        points,
        batch_points,
        ff_points,
        delta_points,
        partition_points,
    )
    .expect("backend report written");
    println!("engine grids written to {}", path.display());
}

/// A saturating fixed-size pipeline stimulus the fast-forward detector
/// promotes — the exemplar scenario behind `--trace` (and `--metrics` in
/// quick mode), so the exported telemetry demonstrates exact
/// observation-time usage across template replay.
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

/// Writes the `--metrics` / `--trace` artifacts. `report` is the main
/// sweep's report when one ran (full mode); otherwise a one-scenario
/// telemetry sweep is run on the spot.
fn write_telemetry(
    metrics: Option<&PathBuf>,
    trace: Option<&PathBuf>,
    report: Option<&SweepReport>,
    tokens: u64,
) {
    if let Some(path) = metrics {
        let standalone;
        let report = match report {
            Some(r) => r,
            None => {
                standalone = run_sweep(
                    &[telemetry_scenario(tokens)],
                    &SweepConfig { telemetry: true, ..SweepConfig::default() },
                );
                &standalone
            }
        };
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

/// Pulls the 1000-node `(worklist_ns_per_iter, compiled_ns_per_iter)` pair
/// out of the committed full-grid artifact (a flat scan of the `points`
/// array — the report format is written by this binary, so the shape is
/// known).
fn baseline_backend_ns(report: &str) -> Option<(f64, f64)> {
    // Restrict to the backend `points` array: `batch_points`/`ff_points`/
    // `delta_points` repeat the `"nodes":1000` key with different fields
    // (and `delta_points` even repeats `compiled_ns_per_iter`).
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
/// (default 10%) of the committed baseline's ratio. The engines in this run
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
    let Ok(report) = std::fs::read_to_string("results/bench_engine.json") else {
        println!("overhead gate skipped: no results/bench_engine.json baseline");
        return;
    };
    let Some((base_worklist, base_compiled)) = baseline_backend_ns(&report) else {
        println!("overhead gate skipped: no 1000-node backend point in the baseline");
        return;
    };
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
/// committed artifact's `batch_points` section (same flat-scan approach as
/// [`baseline_compiled_ns`]).
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
/// stay within `EVOLVE_BATCH_TOLERANCE` (default 10%) of the committed
/// full-grid baseline's gain, so the lane-chunked kernel cannot silently
/// lose its advantage. Gating the gain rather than absolute ns/lane-iter
/// cancels uniform host drift for the same reason as the overhead gate.
fn batch_gate(scalar_ns: f64, batched_ns: f64) {
    let tolerance: f64 = std::env::var("EVOLVE_BATCH_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.10);
    let Ok(report) = std::fs::read_to_string("results/bench_engine.json") else {
        println!("batch gate skipped: no results/bench_engine.json baseline");
        return;
    };
    let (Some(base_scalar), Some(base_batched)) = (
        baseline_batch_ns(&report, 1_000, 1),
        baseline_batch_ns(&report, 1_000, 8),
    ) else {
        println!("batch gate skipped: no 1000-node batch points in the baseline");
        return;
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
    let threads: usize = args
        .next()
        .map(|s| s.parse().expect("threads must be a number"))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));

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
        // Delta smoke: the grid asserts checksum conformance and frontier
        // collapse internally; the gate here is the sibling-replay benefit.
        let delta_points = delta_section(&[1_000], 2_000_000, 2);
        let d = &delta_points[0];
        assert!(
            d.gain() > 1.0,
            "delta sibling slower than the full sweep at {} nodes ({:.1} vs {:.1} ns/it)",
            d.nodes,
            d.delta_ns,
            d.compiled_ns
        );
        delta_sweep_gate(256, tokens.min(200), threads);
        // Partition smoke: conformance is asserted inside the grid; the
        // speed gate only applies where the host can actually run two
        // workers at once.
        let partition_points = partition_section(&[5_000], &[1, 2], 500_000, 2);
        let pp = partition_points
            .iter()
            .find(|p| p.threads == 2)
            .expect("2-worker partition point");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores >= 2 {
            assert!(
                pp.barrier_speedup() > 1.0,
                "2-worker barrier sweep slower than serial on a {cores}-core host \
                 ({:.1} vs {:.1} ns/it at {} nodes)",
                pp.barrier_ns,
                pp.serial_ns,
                pp.nodes
            );
        } else {
            println!(
                "partition speed gate skipped: single-core host \
                 (2-worker ratio {:.2}x, conformance still asserted)",
                pp.barrier_speedup()
            );
        }
        write_report(
            "results/bench_engine_smoke.json",
            &points,
            &batch_points,
            &ff_points,
            &delta_points,
            &partition_points,
        );
        println!(
            "quick mode: compiled backend {:.2}x, batch width 8 {:.2}x, fast-forward {:.2}x, delta {:.2}x at {} nodes — ok",
            p.speedup(),
            gain,
            f.gain(),
            d.gain(),
            p.nodes
        );
        write_telemetry(metrics.as_ref(), trace.as_ref(), None, tokens.min(500));
        return;
    }

    println!("Fig. 5 reproduction — speed-up vs. graph node count");
    println!(
        "stimulus: {tokens} tokens; reference kernel dispatch cost {cost} ns; {threads} sweep threads"
    );
    println!("(paper: curves for X sizes 6/10/20/30; flat < 100 nodes, slow-down > 1000)");
    println!();

    // Pipeline stages chosen so the derived X vector sizes bracket the
    // paper's 6/10/20/30.
    let stage_counts = [2usize, 3, 6, 10];
    let paddings = [0usize, 10, 30, 100, 300, 1_000, 3_000];

    let scenarios: Vec<ScenarioSpec> = stage_counts
        .iter()
        .flat_map(|&stages| {
            paddings.iter().map(move |&padding| ScenarioSpec {
                label: format!("s{stages}p{padding}"),
                model: ModelSpec {
                    kind: ModelKind::Pipeline { stages, base: 200, per_unit: 2 },
                    padding,
                    backend: Default::default(),
                },
                trace: TraceSpec {
                    tokens,
                    min_size: 1,
                    max_size: 64,
                    mean_period: 0,
                    seed: stages as u64,
                },
            })
        })
        .collect();

    let report = run_sweep(
        &scenarios,
        &SweepConfig {
            threads,
            compare_conventional: true,
            reference_dispatch_cost_ns: cost,
            telemetry: metrics.is_some(),
            ..SweepConfig::default()
        },
    );
    let measurements = sweep_measurements(&report);

    println!(
        "{:<9} {:>8} {}",
        "X size",
        "padding",
        header().split_once(' ').map_or("", |(_, rest)| rest.trim_start())
    );
    for (scenario, m) in scenarios.iter().zip(&measurements) {
        let (stages, padding) = match scenario.model.kind {
            ModelKind::Pipeline { stages, .. } => (stages, scenario.model.padding),
            _ => unreachable!("fig5 sweeps pipelines only"),
        };
        let x_size = derive_tdg(&synthetic::pipeline(stages, 200, 2).expect("builds").arch)
            .expect("derives")
            .tdg()
            .node_count()
            - 1;
        let row = format_row(m);
        let columns = row.split_once(' ').map_or("", |(_, rest)| rest.trim_start());
        println!("{:<9} {:>8} {}", format!("X={x_size}"), padding, columns);
    }
    println!();

    let totals = total_engine_stats(&measurements);
    println!(
        "sweep: {} scenarios on {} threads in {:.3} ms, {} engines reused;",
        report.scenarios.len(),
        report.threads,
        report.wall.as_secs_f64() * 1e3,
        report.reused_count(),
    );
    println!(
        "engine totals: {} nodes computed, {} arc evaluations, {} iterations",
        totals.nodes_computed, totals.arcs_evaluated, totals.iterations_completed
    );
    println!();

    // The backend comparison underlying the overhead curve: the compiled
    // CSR sweep against the worklist, pure engine cost, no kernel.
    let points = backend_section(&[10, 100, 1_000, 5_000], 2_000_000, 3);
    println!();

    // The batch-width grid: amortizing one schedule walk over B lanes.
    // The 50 000-node point exercises the level-blocked traversal at a
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

    // The sibling-heavy sweep headline: a delta sibling answers each
    // iteration from the base cache instead of sweeping the graph.
    let delta_points = delta_section(&[10, 100, 1_000, 5_000], 2_000_000, 3);
    println!();

    // The partitioned-sweep grid: intra-graph level-parallel workers on
    // wide padded graphs, up to the 200 000-node point where one sweep
    // has enough per-level work to amortize the exchange cost.
    let partition_points = partition_section(&[5_000, 50_000, 200_000], &[1, 2, 4, 8], 4_000_000, 2);
    delta_sweep_gate(256, tokens.min(200), threads);
    write_report(
        "results/bench_engine.json",
        &points,
        &batch_points,
        &ff_points,
        &delta_points,
        &partition_points,
    );
    write_telemetry(metrics.as_ref(), trace.as_ref(), Some(&report), tokens.min(500));
}
