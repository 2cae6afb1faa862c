//! `perfbench` — the evolve repository benchmark.
//!
//! One process runs one seeded workload, so `setup_s` and `peak_rss_mb`
//! are per workload, and prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` is a separate run that records
//! outside-in spans around each layer call and reports the per-layer
//! metrics. `NOTES.md` documents the workloads and metrics; `run.py`
//! builds this crate and forwards its arguments.

mod common;
mod paper;
mod serve;
mod spans;
mod sweep;

use std::process::ExitCode;

use common::Report;
use spans::Tracer;

const USAGE: &str = "usage: perfbench --workload <paper-des|serve-open> \
--seed N --seconds S --trace 0|1 [--trace-out PATH]";

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input of the workload is generated from.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the measured run.
    pub trace: bool,
    /// Chrome-trace output path of the traced run.
    pub trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    match args.workload.as_str() {
        "paper-des" => paper::run(&args, &mut tracer, &mut report),
        "serve-open" => serve::run(&args, &mut tracer, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if args.trace {
        for (layer, ms) in tracer.self_ms_by_layer() {
            report.metric(format!("span.{layer}.self_ms"), ms);
        }
        let path = args.trace_out.clone().unwrap_or_else(|| {
            format!(".bench_out/{}-seed{}.trace.json", args.workload, args.seed)
        });
        match tracer.write_chrome_trace(&path) {
            Ok(n) => println!("trace: {n} spans written to {path}"),
            Err(e) => {
                eprintln!("perfbench: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        report.metric("peak_rss_mb", common::peak_rss_mb());
    }
    report.finish(args.trace)
}
