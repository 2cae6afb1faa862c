//! Parallel scenario-sweep driver.
//!
//! Runs a batch of scenarios twice — once on a worker pool, once
//! sequentially — verifies the outcomes are bitwise identical, and writes a
//! JSON report (including the parallel-over-sequential wall-clock speed-up)
//! to `results/sweep.json`.
//!
//! ```text
//! cargo run --release -p evolve-explore --bin sweep -- --threads 4
//! ```
//!
//! Options: `--threads N` (worker count, default: host parallelism),
//! `--scenarios N` (batch size, default 32), `--tokens N` (trace length,
//! default 200), `--batch N` (lockstep lanes per `BatchedEngine`, default
//! 8; `1` disables batching), `--no-fast-forward` (disable periodic
//! steady-state fast-forward, for A/B timing runs), `--no-delta` (disable
//! delta chaining of sibling scenarios, for A/B timing runs),
//! `--partition-threads N` (intra-graph partition workers per engine
//! sweep, default 1 = serial; bitwise invisible either way), `--compare`
//! (also run the conventional DES model per scenario), `--out PATH` (report path,
//! default `results/sweep.json`), `--metrics PATH` (enable streaming
//! telemetry and write a metrics snapshot — Prometheus text exposition, or
//! JSON when the path ends in `.json`), `--trace PATH` (re-run the first
//! grid scenario under a trace collector and write a Chrome trace-event
//! file loadable in Perfetto).

use std::path::PathBuf;

use evolve_explore::{default_grid, run_sweep, trace_scenario, FastForward, SweepConfig};
use evolve_obs::json::Json;

struct Options {
    threads: usize,
    scenarios: u64,
    tokens: u64,
    batch: usize,
    fast_forward: FastForward,
    delta: bool,
    partition_threads: usize,
    compare: bool,
    out: PathBuf,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
}

const USAGE: &str = "usage: sweep [--threads N] [--scenarios N] [--tokens N] [--batch N] [--no-fast-forward] [--no-delta] [--partition-threads N] [--compare] [--out PATH] [--metrics PATH] [--trace PATH]";

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut options = Options {
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        scenarios: 32,
        tokens: 200,
        batch: 8,
        fast_forward: FastForward::On,
        delta: true,
        partition_threads: 1,
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
            "--no-delta" => options.delta = false,
            "--partition-threads" => {
                options.partition_threads =
                    parsed("--partition-threads", value("--partition-threads")) as usize;
            }
            "--compare" => options.compare = true,
            "--out" => options.out = PathBuf::from(value("--out")),
            "--metrics" => options.metrics = Some(PathBuf::from(value("--metrics"))),
            "--trace" => options.trace = Some(PathBuf::from(value("--trace"))),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown option {other}")),
        }
    }
    options
}

fn main() {
    let options = parse_args();
    let scenarios = default_grid(options.scenarios, options.tokens);
    eprintln!(
        "sweeping {} scenarios × {} tokens on {} threads, batch width {}",
        scenarios.len(),
        options.tokens,
        options.threads,
        options.batch,
    );

    let parallel = run_sweep(
        &scenarios,
        &SweepConfig {
            threads: options.threads,
            compare_conventional: options.compare,
            batch_width: options.batch,
            fast_forward: options.fast_forward,
            telemetry: options.metrics.is_some(),
            delta: options.delta,
            partition_threads: options.partition_threads,
            ..SweepConfig::default()
        },
    );
    let sequential = run_sweep(
        &scenarios,
        &SweepConfig {
            threads: 1,
            compare_conventional: options.compare,
            batch_width: options.batch,
            fast_forward: options.fast_forward,
            delta: options.delta,
            partition_threads: options.partition_threads,
            ..SweepConfig::default()
        },
    );
    // Batching headline: the same parallel sweep with lockstep lanes
    // disabled, so the report carries a scenarios/second comparison.
    let unbatched = (options.batch > 1).then(|| {
        run_sweep(
            &scenarios,
            &SweepConfig {
                threads: options.threads,
                compare_conventional: options.compare,
                batch_width: 1,
                fast_forward: options.fast_forward,
                delta: options.delta,
                ..SweepConfig::default()
            },
        )
    });

    let mut identical = true;
    for (p, s) in parallel.scenarios.iter().zip(&sequential.scenarios) {
        if p.outcome != s.outcome {
            identical = false;
            eprintln!("MISMATCH: scenario {} differs between thread counts", p.label);
        }
    }
    let speedup = sequential.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-12);
    eprintln!(
        "parallel {:.3} ms, sequential {:.3} ms — speed-up {:.2}×, outcomes {}",
        parallel.wall.as_secs_f64() * 1e3,
        sequential.wall.as_secs_f64() * 1e3,
        speedup,
        if identical { "bitwise identical" } else { "DIVERGED" },
    );
    let batch_speedup = unbatched.as_ref().map(|u| {
        let gain = parallel.scenarios_per_second() / u.scenarios_per_second().max(1e-12);
        eprintln!(
            "batched {:.0} scenarios/s vs unbatched {:.0} scenarios/s — {:.2}× (lanes batched: {})",
            parallel.scenarios_per_second(),
            u.scenarios_per_second(),
            gain,
            parallel.batching.lanes_batched,
        );
        gain
    });
    let ff = parallel.total_fast_forward_stats();
    eprintln!(
        "fast-forward: {} promotions, {} demotions, {} iterations replayed",
        ff.promotions, ff.demotions, ff.fast_forwarded_iterations,
    );
    let d = &parallel.delta;
    eprintln!(
        "delta: {} chains ({} base + {} delta lanes), {} nodes reused / {} recomputed",
        d.chains_formed, d.lanes_base, d.lanes_delta, d.nodes_reused, d.nodes_recomputed,
    );

    let mut fields = vec![
        ("threads", Json::U64(parallel.threads as u64)),
        ("scenario_count", Json::U64(parallel.scenarios.len() as u64)),
        ("tokens_per_scenario", Json::U64(options.tokens)),
        ("batch_width", Json::U64(options.batch as u64)),
        ("partition_threads", Json::U64(options.partition_threads as u64)),
        ("parallel_wall_ns", Json::U64(parallel.wall.as_nanos() as u64)),
        ("sequential_wall_ns", Json::U64(sequential.wall.as_nanos() as u64)),
        ("parallel_speedup", Json::F64(speedup)),
        ("scenarios_per_second", Json::F64(parallel.scenarios_per_second())),
        ("outcomes_identical", Json::Bool(identical)),
    ];
    if let (Some(gain), Some(u)) = (batch_speedup, unbatched.as_ref()) {
        fields.push(("unbatched_wall_ns", Json::U64(u.wall.as_nanos() as u64)));
        fields.push((
            "unbatched_scenarios_per_second",
            Json::F64(u.scenarios_per_second()),
        ));
        fields.push(("batch_speedup", Json::F64(gain)));
    }
    fields.push(("report", parallel.to_json()));
    let doc = Json::object(fields);
    if let Some(parent) = options.out.parent() {
        std::fs::create_dir_all(parent).expect("create results directory");
    }
    std::fs::write(&options.out, doc.render()).expect("write report");
    eprintln!("wrote {}", options.out.display());

    if let Some(path) = &options.metrics {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create metrics directory");
        }
        parallel.write_metrics(path).expect("write metrics");
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = &options.trace {
        // Re-run the first grid scenario (a saturating, fixed-size trace the
        // fast-forward detector promotes) under a trace collector, and write
        // the observation-time resource activity plus host-time engine spans
        // as a Chrome trace-event file.
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
        eprintln!(
            "wrote {} ({} tracks from scenario {})",
            path.display(),
            collector.tracks().count(),
            result.label,
        );
    }
    assert!(identical, "parallel sweep diverged from the sequential path");
}
