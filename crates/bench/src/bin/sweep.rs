//! Parallel scenario-sweep driver.
//!
//! Times the default scenario grid on a worker pool against one thread,
//! and, with `--batch N` above 1, batched against unbatched, each
//! comparison in [`PAIRS`] [`paired`] sweeps on host wall time per sweep.
//! It checks
//! that the pool and the single thread give bitwise identical outcomes,
//! and writes a JSON report (the paired ratios and the last pooled sweep)
//! to `results/sweep.json`.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin sweep -- --threads 4
//! ```
//!
//! Options: `--threads N` (worker count, default: host parallelism),
//! `--scenarios N` (batch size, default 32), `--tokens N` (trace length,
//! default 200), `--batch N` (lockstep lanes per `BatchedEngine`, default
//! 1 as in `SweepConfig::default()`, since batching lost on this grid in
//! paired timings), `--no-fast-forward` (disable periodic steady-state
//! fast-forward of the
//! scalar engines, for A/B timing runs), `--compare` (also run the
//! conventional DES model per scenario, checking accuracy and the event
//! ratio), `--out PATH` (report path, default `results/sweep.json`),
//! `--metrics PATH` (also write the pooled sweep's metrics snapshot, the
//! one its JSON report holds under `telemetry` — Prometheus text
//! exposition, or JSON when the path ends in `.json`), `--trace PATH`
//! (re-run the first grid scenario and write its records and drive span
//! as a Chrome trace-event file loadable in Perfetto).
//!
//! Fast-forward runs only on scalar engines, so with `--batch N` above 1
//! the binary also reports the unbatched sweep's fast-forward totals (the
//! batching race's other side), in its diagnostics and in the JSON report
//! under `unbatched_fast_forward`.
//!
//! Diagnostics go to stderr, and a failed write there is ignored: a usage
//! error exits 2 even with stderr closed or full.

use std::io::Write as _;
use std::path::PathBuf;

use evolve_bench::{paired, Paired};
use evolve_explore::{
    default_grid, run_sweep, trace_scenario, FastForward, FastForwardStats, ScenarioSpec,
    SweepConfig, SweepReport,
};
use evolve_obs::json::Json;
use evolve_obs::FfCounters;

struct Options {
    threads: usize,
    scenarios: u64,
    tokens: u64,
    batch: usize,
    fast_forward: FastForward,
    compare: bool,
    out: PathBuf,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
}

const USAGE: &str = "usage: sweep [--threads N] [--scenarios N] [--tokens N] [--batch N] [--no-fast-forward] [--compare] [--out PATH] [--metrics PATH] [--trace PATH]";

/// Alternating pairs per timed comparison.
const PAIRS: usize = 10;

/// `eprintln!` that ignores a failed write.
macro_rules! diag {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

fn usage_error(message: &str) -> ! {
    diag!("error: {message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut options = Options {
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        scenarios: 32,
        tokens: 200,
        batch: 1,
        fast_forward: FastForward::On,
        compare: false,
        out: PathBuf::from("results/sweep.json"),
        metrics: None,
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
        };
        let parsed = |name: &str, raw: String| {
            raw.parse()
                .unwrap_or_else(|_| usage_error(&format!("{name} expects a number, got `{raw}`")))
        };
        match arg.as_str() {
            "--threads" => options.threads = parsed("--threads", value("--threads")) as usize,
            "--scenarios" => options.scenarios = parsed("--scenarios", value("--scenarios")),
            "--tokens" => options.tokens = parsed("--tokens", value("--tokens")),
            "--batch" => {
                options.batch = parsed("--batch", value("--batch")) as usize;
                if options.batch == 0 {
                    usage_error("--batch expects a width >= 1");
                }
            }
            "--no-fast-forward" => options.fast_forward = FastForward::Off,
            "--compare" => options.compare = true,
            "--out" => options.out = PathBuf::from(value("--out")),
            "--metrics" => options.metrics = Some(PathBuf::from(value("--metrics"))),
            "--trace" => options.trace = Some(PathBuf::from(value("--trace"))),
            "--help" | "-h" => {
                diag!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown option {other}")),
        }
    }
    options
}

/// Times sweeps `a` and `b` of `scenarios` in [`PAIRS`] [`paired`] pairs
/// on host wall time per sweep, returning the timing and each side's last
/// report.
fn race(
    scenarios: &[ScenarioSpec],
    a: &SweepConfig,
    b: &SweepConfig,
) -> (Paired, SweepReport, SweepReport) {
    let (mut last_a, mut last_b) = (None, None);
    let side = |config: &SweepConfig, last: &mut Option<SweepReport>| {
        let report = run_sweep(scenarios, config);
        let wall = report.wall.as_secs_f64();
        *last = Some(report);
        wall
    };
    let timing = paired(PAIRS, || side(a, &mut last_a), || side(b, &mut last_b));
    let last = |r: Option<SweepReport>| r.expect("paired runs each side");
    (timing, last(last_a), last(last_b))
}

fn main() {
    let options = parse_args();
    let scenarios = default_grid(options.scenarios, options.tokens);
    diag!(
        "sweeping {} scenarios × {} tokens on {} threads, batch width {}, {PAIRS} pairs per comparison",
        scenarios.len(),
        options.tokens,
        options.threads,
        options.batch,
    );

    let pooled = SweepConfig {
        threads: options.threads,
        compare_conventional: options.compare,
        batch_width: options.batch,
        fast_forward: options.fast_forward,
        ..SweepConfig::default()
    };
    let (speedup, parallel, sequential) = race(
        &scenarios,
        &pooled,
        &SweepConfig { threads: 1, ..pooled.clone() },
    );
    let mut identical = true;
    for (p, s) in parallel.scenarios.iter().zip(&sequential.scenarios) {
        if p.outcome != s.outcome {
            identical = false;
            diag!("MISMATCH: scenario {} differs between thread counts", p.label);
        }
    }
    diag!(
        "parallel {:.3} ms, sequential {:.3} ms (medians) — speed-up [q1–q3] won: {speedup}, outcomes {}",
        speedup.a * 1e3,
        speedup.b * 1e3,
        if identical { "bitwise identical" } else { "DIVERGED" },
    );
    // Batching: the pooled sweep against the same sweep without lockstep
    // lanes, whose fast-forward totals are reported too: batched lanes
    // never fast-forward.
    let batching = (options.batch > 1).then(|| {
        let (gain, batched, unbatched) = race(
            &scenarios,
            &pooled,
            &SweepConfig { batch_width: 1, ..pooled.clone() },
        );
        diag!(
            "batched {:.3} ms vs unbatched {:.3} ms (medians) — gain [q1–q3] won: {gain} (lanes batched: {})",
            gain.a * 1e3,
            gain.b * 1e3,
            batched.batching.lanes_batched,
        );
        (gain, unbatched.total_fast_forward_stats())
    });
    let report_ff = |sweep: &str, ff: &FastForwardStats| {
        diag!(
            "fast-forward ({sweep}): {} promotions, {} demotions, {} iterations replayed",
            ff.promotions,
            ff.demotions,
            ff.fast_forwarded_iterations,
        );
    };
    report_ff("scalar engines", &parallel.total_fast_forward_stats());
    if let Some((_, unbatched)) = &batching {
        report_ff("unbatched sweep", unbatched);
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("threads", Json::U64(parallel.threads as u64)),
        ("scenario_count", Json::U64(parallel.scenarios.len() as u64)),
        ("tokens_per_scenario", Json::U64(options.tokens)),
        ("batch_width", Json::U64(options.batch as u64)),
        ("host_cores", Json::U64(cores as u64)),
        ("simd_level", Json::str(evolve_core::kernel::simd_level())),
        ("parallel_wall_ns", Json::U64((speedup.a * 1e9) as u64)),
        ("sequential_wall_ns", Json::U64((speedup.b * 1e9) as u64)),
        ("parallel_speedup", speedup.to_json()),
        ("outcomes_identical", Json::Bool(identical)),
    ];
    if let Some((gain, unbatched)) = batching {
        fields.push(("unbatched_wall_ns", Json::U64((gain.b * 1e9) as u64)));
        fields.push(("batch_speedup", gain.to_json()));
        fields.push(("unbatched_fast_forward", FfCounters::from(unbatched).to_json()));
    }
    fields.push(("report", parallel.to_json()));
    let doc = Json::object(fields);
    if let Some(parent) = options.out.parent() {
        std::fs::create_dir_all(parent).expect("create results directory");
    }
    std::fs::write(&options.out, doc.render()).expect("write report");
    diag!("wrote {}", options.out.display());

    if let Some(path) = &options.metrics {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create metrics directory");
        }
        parallel.write_metrics(path).expect("write metrics");
        diag!("wrote {}", path.display());
    }
    if let Some(path) = &options.trace {
        // Re-run the first grid scenario (a saturating, fixed-size trace the
        // fast-forward detector promotes), and write its observation-time
        // resource activity plus its host-time drive span as a Chrome
        // trace-event file.
        let (result, collector) = trace_scenario(
            &scenarios[0],
            &SweepConfig {
                batch_width: 1,
                fast_forward: options.fast_forward,
                ..SweepConfig::default()
            },
        );
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create trace directory");
        }
        std::fs::write(path, collector.to_chrome_trace().render()).expect("write trace");
        diag!(
            "wrote {} ({} tracks from scenario {})",
            path.display(),
            collector.tracks().count(),
            result.label,
        );
    }
    assert!(identical, "parallel sweep diverged from the sequential path");
}
