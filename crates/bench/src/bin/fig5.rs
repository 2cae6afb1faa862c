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
//! batch widths against one lane, and a fourth the periodic steady-state
//! fast-forward (O(1) template replay vs the full sweep); all are written
//! to `results/bench_engine.json`. Every ratio is an
//! [`evolve_bench::paired`] median with its quartiles and the pairs its
//! first side won.
//!
//! Usage: `fig5 [tokens] [dispatch_cost_ns] [--quick] [--metrics PATH]
//! [--trace PATH]` (defaults: 5 000 tokens, 1 µs kernel dispatch cost).
//! `--quick` is the CI smoke mode: it skips the Fig. 5 table and runs
//! only the grids' 1000-node points, each comparison in
//! [`QUICK_PAIRS`] pairs (asserting compiled > worklist, batched > one
//! lane, fast-forward > sweep, that a width-8 batch actually dispatches
//! to the lane-chunked fold kernels, and the two gates against
//! `results/fig5_gates.json`: the compiled sweep's cost relative to the
//! worklist may rise at most 10% over the baseline, and the width-8
//! batching gain may fall at most 10% under it), writing to
//! `results/bench_engine_smoke.json` so the committed full-grid artifact
//! is not clobbered. No run writes `fig5_gates.json`: re-baselining the
//! gates is an explicit copy of the two ratios a `--quick` run prints.
//! `--metrics PATH` writes a streaming-telemetry snapshot of a
//! fast-forwarding pipeline scenario (Prometheus text, or JSON for
//! `.json` paths); `--trace PATH` writes a Chrome trace-event file of the
//! same scenario, loadable in Perfetto.

use std::path::{Path, PathBuf};

use evolve_bench::{
    backend_grid, batch_grid, exit_unless_exact, ff_grid, format_row, header, measure,
    total_engine_stats, write_backend_report, Fidelity, Paired, MEASURE_PAIRS,
};
use evolve_core::{derive_tdg, synthetic};
use evolve_explore::{
    run_sweep, trace_scenario, ModelKind, ModelSpec, ScenarioSpec, SweepConfig, TraceSpec,
};
use evolve_model::{varying_sizes, Environment, Stimulus};

/// Pairs each quick-mode comparison is timed in.
const QUICK_PAIRS: usize = 20;
/// Pairs each full-grid comparison is timed in.
const GRID_PAIRS: usize = 10;

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

/// The committed baseline of the quick-mode gates: a flat object holding
/// the two gated ratios (`compiled_speedup`, `batch8_gain`) and the
/// commit, core count, SIMD level and pair count of their capture, copied
/// by hand from a `--quick` run, so no run moves the gates.
const GATES_BASELINE: &str = "results/fig5_gates.json";
/// The disabled-observer overhead gate: how far the compiled sweep's cost
/// relative to the worklist's (the inverse of its speed-up) may rise over
/// the baseline. The engines carry the observer hooks but no attached
/// observer, so a regression here means the detached hot path got slower
/// *relative to the worklist reference timed in alternation with it* —
/// the failure mode this gate exists for: observer hooks leaking cost
/// into the compiled sweep, which does not slow the worklist.
const OVERHEAD_TOLERANCE: f64 = 0.10;
/// How far the width-8 batching gain may fall under its baseline, so the
/// lane-chunked kernel cannot silently lose its advantage.
const BATCH_TOLERANCE: f64 = 0.10;

/// The number stored under `key` in [`GATES_BASELINE`]; a gate without
/// its baseline fails.
fn baseline(key: &str) -> f64 {
    let doc = std::fs::read_to_string(GATES_BASELINE)
        .unwrap_or_else(|e| panic!("gate baseline {GATES_BASELINE} unreadable: {e}"));
    let needle = format!("\"{key}\":");
    let at = doc
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {GATES_BASELINE}"));
    let value = doc[at + needle.len()..].trim_start();
    let end = value.find([',', '}', '\n']).unwrap_or(value.len());
    value[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{key} in {GATES_BASELINE}: {e}"))
}

/// Fails when `loss(base)`, the fraction by which the paired ratio `p`
/// fell short of its baseline `base` under `key`, reaches `tolerance`.
fn gate(key: &str, p: &Paired, loss: impl Fn(f64) -> f64, tolerance: f64) {
    let base = baseline(key);
    let loss = loss(base);
    assert!(
        loss < tolerance,
        "{key} regressed {:.2}% against the recorded baseline \
         ({p} vs {base:.2} at 1000 nodes, tolerance {:.0}%)",
        loss * 100.0,
        tolerance * 100.0,
    );
    println!(
        "{key} gate: {p} vs baseline {base:.2} ({:+.2}%, tolerance {:.0}%) — ok",
        -loss * 100.0,
        tolerance * 100.0,
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

    if !quick {
        fig5_table(tokens, cost);
    }

    // The engine grids; quick mode runs only their 1000-node points, each
    // comparison in more pairs.
    let pairs = if quick { QUICK_PAIRS } else { GRID_PAIRS };
    let targets = |full: &'static [usize]| if quick { &[1_000][..] } else { full };

    // The backend comparison underlying the overhead curve: the compiled
    // CSR sweep against the worklist, pure engine cost, no kernel.
    println!("== engine backends: per-iteration ComputeInstant() cost, {pairs} pairs ==");
    println!(
        "{:>7} {:>12} {:>15} {:>15} {:>24}",
        "nodes", "iterations", "worklist ns/it", "compiled ns/it", "speed-up [q1–q3] won"
    );
    let points = backend_grid(targets(&[10, 100, 1_000, 5_000]), 2_000_000, pairs);
    for p in &points {
        println!(
            "{:>7} {:>12} {:>15.1} {:>15.1} {:>24.2}",
            p.nodes, p.iterations, p.timing.b, p.timing.a, p.timing
        );
    }

    // The batch-width grid: amortizing one schedule walk over B lanes,
    // each width against one lane. The 50 000-node point exercises the
    // slot-ordered traversal at a scale where accumulator rows no longer
    // fit any cache level.
    println!("\n== batched lanes: per-lane iteration cost vs batch width, {pairs} pairs ==");
    println!(
        "{:>7} {:>6} {:>12} {:>15} {:>15} {:>24}",
        "nodes", "width", "iterations", "ns/lane-iter", "one lane", "gain [q1–q3] won"
    );
    let widths: &[usize] = if quick { &[8] } else { &[4, 8, 16, 32] };
    let batch_targets = targets(&[100, 1_000, 5_000, 50_000]);
    let batch_points = batch_grid(batch_targets, widths, 2_000_000, pairs);
    for p in &batch_points {
        println!(
            "{:>7} {:>6} {:>12} {:>15.1} {:>15.1} {:>24.2}",
            p.nodes, p.width, p.iterations, p.timing.a, p.timing.b, p.timing
        );
    }

    // The steady-state headline: once promoted, an iteration is answered by
    // O(1) template replay — the full budget puts the 1000-node point at
    // 10 000 iterations.
    println!("\n== periodic fast-forward: steady-state replay vs compiled sweep, {pairs} pairs ==");
    println!(
        "{:>7} {:>12} {:>15} {:>15} {:>12} {:>24}",
        "nodes", "iterations", "sweep ns/it", "replay ns/it", "replayed", "gain [q1–q3] won"
    );
    let ff_budget = if quick { 1_000_000 } else { 10_000_000 };
    let ff_points = ff_grid(targets(&[10, 100, 1_000, 5_000]), ff_budget, pairs);
    for p in &ff_points {
        let (replay, sweep, replayed) = (p.timing.a, p.timing.b, p.fast_forwarded_iterations);
        println!(
            "{:>7} {:>12} {sweep:>15.1} {replay:>15.1} {replayed:>12} {:>24.2}",
            p.nodes, p.iterations, p.timing
        );
    }

    let out = if quick { "results/bench_engine_smoke.json" } else { "results/bench_engine.json" };
    write_backend_report(Path::new(out), &points, &batch_points, &ff_points)
        .expect("report written");
    println!("\nengine grids written to {out}");
    if quick {
        // CI smoke: at 1000 nodes the compiled backend must beat the
        // worklist, the width-8 batch one lane (on the lane-chunked fold
        // kernels, not the per-element fallback), and fast-forward the
        // sweep; the overhead and batch gates hold the first two against
        // their baselines.
        let (p, b, f) = (&points[0].timing, &batch_points[0], &ff_points[0].timing);
        for (what, t) in [("compiled sweep", p), ("width-8 batch", &b.timing), ("replay", f)] {
            assert!(t.ratio > 1.0, "{what} does not pay at 1000 nodes: {t}");
        }
        let dispatch = b.dispatch;
        assert!(
            dispatch.chunked_sweeps > 0 && dispatch.scalar_sweeps == 0,
            "width-8 sweeps did not take the chunked kernel path: {dispatch:?}"
        );
        gate("compiled_speedup", p, |base| base / p.ratio - 1.0, OVERHEAD_TOLERANCE);
        gate("batch8_gain", &b.timing, |base| 1.0 - b.timing.ratio / base, BATCH_TOLERANCE);
        println!(
            "quick mode at 1000 nodes, simd level {}: width 8 on the chunked kernels, compiled \
             backend {p}, batch width 8 {}, fast-forward {f} — ok",
            evolve_core::kernel::simd_level(),
            b.timing
        );
    }
    write_telemetry(metrics.as_ref(), trace.as_ref(), tokens.min(500));
}

/// The Fig. 5 table: every (stages × padding) cell as one [`measure`] on
/// the DES kernel; exits with status 1, after printing, when any cell is
/// not `exact`.
fn fig5_table(tokens: u64, cost: u64) {
    println!("Fig. 5 reproduction — speed-up vs. graph node count");
    println!(
        "stimulus: {tokens} tokens; both models on the DES kernel at {cost} ns/dispatch, \
         {MEASURE_PAIRS} alternating pairs of runs (medians)"
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
}
