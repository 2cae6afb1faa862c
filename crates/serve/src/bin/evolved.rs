//! The `evolved` daemon binary.
//!
//! Serves engine evaluations over TCP and/or unix sockets with
//! ModelSpec-affinity continuous batching, and exposes live Prometheus
//! metrics. SIGTERM/SIGINT drain in-flight batches, answer every
//! admitted request, and exit 0.
//!
//! ```text
//! evolved --unix /tmp/evolved.sock --metrics 127.0.0.1:9464 \
//!         --preload default --state-file /tmp/evolved.state
//! ```
//!
//! Diagnostics go to stderr, and a failed write there is ignored: the
//! daemon serves, drains and exits as usual with stderr closed or full.

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use evolve_serve::{default_models, signal, Bind, ServeConfig, Server};

const USAGE: &str = "\
evolved - evaluation-as-a-service daemon

USAGE:
    evolved [OPTIONS]

OPTIONS:
    --tcp ADDR               listen for the binary protocol on a TCP address
    --unix PATH              listen on a unix domain socket
    --metrics ADDR           serve GET /metrics (Prometheus text) on a TCP address
    --shards N               shard worker threads [default: available cores]
    --batch-width N          lanes per affinity batch [default: SIMD chunk width]
    --max-batch-delay-us N   continuous-batching deadline in microseconds [default: 2000]
    --max-queue-depth N      per-shard admission cap [default: 1024]
    --max-connections N      concurrent connection cap [default: 1024]
    --write-timeout-ms N     response write timeout, 0 = none [default: 5000]
    --max-trace-tokens N     generated-trace arrivals cap [default: 524288]
    --trace-out PATH         write a Chrome-trace JSON dump of the flight
                             recorder on SIGUSR1 and at shutdown
    --flight-spans N         flight-recorder ring capacity per track, rounded
                             up to a power of two [default: 1024]
    --no-flight-recorder     disable the always-on flight recorder
    --naive                  baseline mode: fresh engine per request, no batching
    --no-fast-forward        disable periodic fast-forward
    --no-telemetry           do not attach per-shard telemetry sinks
    --record-observations    record full observation streams
    --preload default        register the built-in named models
    --state-file PATH        write `tcp=`/`unix=`/`metrics=`/`pid=` lines once ready
    -h, --help               print this help
";

/// `eprintln!` that ignores a failed write.
macro_rules! diag {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

fn fail(msg: &str) -> ExitCode {
    diag!("evolved: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut config = ServeConfig::default();
    let mut binds = Vec::new();
    let mut metrics: Option<String> = None;
    let mut preload = false;
    let mut state_file: Option<String> = None;
    let mut trace_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--tcp" => match value("--tcp") {
                Ok(v) => binds.push(Bind::Tcp(v)),
                Err(e) => return fail(&e),
            },
            "--unix" => match value("--unix") {
                Ok(v) => binds.push(Bind::Unix(v.into())),
                Err(e) => return fail(&e),
            },
            "--metrics" => match value("--metrics") {
                Ok(v) => metrics = Some(v),
                Err(e) => return fail(&e),
            },
            "--shards" => match value("--shards").and_then(parse_usize) {
                Ok(v) => config.shards = v.max(1),
                Err(e) => return fail(&e),
            },
            "--batch-width" => match value("--batch-width").and_then(parse_usize) {
                Ok(v) => config.batch_width = v.max(1),
                Err(e) => return fail(&e),
            },
            "--max-batch-delay-us" => match value("--max-batch-delay-us").and_then(parse_u64) {
                Ok(v) => config.max_batch_delay = Duration::from_micros(v),
                Err(e) => return fail(&e),
            },
            "--max-queue-depth" => match value("--max-queue-depth").and_then(parse_usize) {
                Ok(v) => config.max_queue_depth = v.max(1),
                Err(e) => return fail(&e),
            },
            "--max-connections" => match value("--max-connections").and_then(parse_usize) {
                Ok(v) => config.max_connections = v.max(1),
                Err(e) => return fail(&e),
            },
            "--write-timeout-ms" => match value("--write-timeout-ms").and_then(parse_u64) {
                Ok(v) => config.write_timeout = Duration::from_millis(v),
                Err(e) => return fail(&e),
            },
            "--max-trace-tokens" => match value("--max-trace-tokens").and_then(parse_u64) {
                Ok(v) => config.max_trace_tokens = v,
                Err(e) => return fail(&e),
            },
            "--trace-out" => match value("--trace-out") {
                Ok(v) => trace_out = Some(v),
                Err(e) => return fail(&e),
            },
            "--flight-spans" => match value("--flight-spans").and_then(parse_usize) {
                Ok(v) => config.flight_spans = v.max(1),
                Err(e) => return fail(&e),
            },
            "--no-flight-recorder" => config.flight_recorder = false,
            "--naive" => config.naive = true,
            "--no-fast-forward" => config.fast_forward = evolve_core::FastForward::Off,
            "--no-telemetry" => config.telemetry = false,
            "--record-observations" => config.record_observations = true,
            "--preload" => match value("--preload") {
                Ok(v) if v == "default" => preload = true,
                Ok(v) => return fail(&format!("unknown preload set {v:?}")),
                Err(e) => return fail(&e),
            },
            "--state-file" => match value("--state-file") {
                Ok(v) => state_file = Some(v),
                Err(e) => return fail(&e),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument {other:?}")),
        }
    }

    if binds.is_empty() {
        return fail("at least one of --tcp or --unix is required");
    }

    signal::install();
    let server = match Server::start(config, &binds, metrics.as_deref()) {
        Ok(server) => server,
        Err(e) => {
            diag!("evolved: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    if preload {
        for (name, spec) in default_models() {
            server.load_model(&name, spec);
        }
    }

    if let Some(tcp) = server.tcp_addr() {
        diag!("evolved: listening on tcp:{tcp}");
    }
    if let Some(path) = server.unix_path() {
        diag!("evolved: listening on unix:{}", path.display());
    }
    if let Some(addr) = server.metrics_addr() {
        diag!("evolved: metrics at http://{addr}/metrics");
    }

    if let Some(path) = &state_file {
        let mut state = String::new();
        if let Some(tcp) = server.tcp_addr() {
            state.push_str(&format!("tcp={tcp}\n"));
        }
        if let Some(p) = server.unix_path() {
            state.push_str(&format!("unix={}\n", p.display()));
        }
        if let Some(addr) = server.metrics_addr() {
            state.push_str(&format!("metrics={addr}\n"));
        }
        state.push_str(&format!("pid={}\n", std::process::id()));
        // Write-then-rename so a watcher never reads a partial file.
        let tmp = format!("{path}.tmp");
        let ok = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(state.as_bytes()).and_then(|()| f.sync_all()))
            .and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = ok {
            diag!("evolved: cannot write state file {path}: {e}");
        }
    }

    while !signal::triggered() {
        std::thread::sleep(Duration::from_millis(50));
        if signal::take_usr1() {
            dump_trace(&server, trace_out.as_deref());
        }
    }
    if trace_out.is_some() {
        // Final snapshot before the drain consumes the server; spans from
        // the drain itself are observable via a SIGUSR1 dump instead.
        dump_trace(&server, trace_out.as_deref());
    }
    diag!("evolved: draining in-flight batches");
    server.shutdown_and_join();
    diag!("evolved: drained, exiting");
    ExitCode::SUCCESS
}

/// Writes the flight-recorder dump atomically (write-then-rename, like the
/// state file) so a Perfetto user never loads a torn JSON document.
fn dump_trace(server: &Server, trace_out: Option<&str>) {
    let Some(json) = server.dump_trace() else {
        diag!("evolved: flight recorder disabled, nothing to dump");
        return;
    };
    let Some(path) = trace_out else {
        diag!("evolved: SIGUSR1 without --trace-out, dump discarded");
        return;
    };
    let tmp = format!("{path}.tmp");
    let ok = std::fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(json.as_bytes()).and_then(|()| f.sync_all()))
        .and_then(|()| std::fs::rename(&tmp, path));
    match ok {
        Ok(()) => diag!("evolved: trace dumped to {path}"),
        Err(e) => diag!("evolved: cannot write trace {path}: {e}"),
    }
}

fn parse_usize(v: String) -> Result<usize, String> {
    v.parse().map_err(|_| format!("not a number: {v:?}"))
}

fn parse_u64(v: String) -> Result<u64, String> {
    v.parse().map_err(|_| format!("not a number: {v:?}"))
}
