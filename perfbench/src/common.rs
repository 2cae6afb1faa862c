//! Result accounting: the metric catalogue, summary statistics, host
//! clocks, and the JSON line the driver reads.

use std::process::ExitCode;
use std::time::Instant;

use evolve_obs::Json;

/// End-to-end metrics `(name, unit)`. Every untraced run reports each of
/// them; NOTES.md defines them for every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_tokens_per_s", "tokens/s"),
    ("lat_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`. Every traced run reports each of
/// them, `0` for a layer its workload does not exercise.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Self time of the outside-in spans, by layer.
    ("span.cache.self_ms", "ms"),
    ("span.client.self_ms", "ms"),
    ("span.compile.self_ms", "ms"),
    ("span.derive.self_ms", "ms"),
    ("span.des.self_ms", "ms"),
    ("span.engine.self_ms", "ms"),
    ("span.equivalent.self_ms", "ms"),
    ("span.eval.self_ms", "ms"),
    ("span.model.self_ms", "ms"),
    ("span.net.self_ms", "ms"),
    ("span.protocol.self_ms", "ms"),
    ("span.sweep.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("lat.samples", "count"),
    ("lat.p90_ms", "ms"),
    // des kernel (paper-des)
    ("des.activations", "count"),
    ("des.events", "count"),
    ("des.event_ratio", "ratio"),
    ("des.dispatch_ms", "ms"),
    ("des.conv_ns_per_activation", "ns"),
    ("paper.speedup", "ratio"),
    ("account.paper_share", "ratio"),
    // model processes (paper-des)
    ("model.elaborate_ms", "ms"),
    ("model.conv_run_ms", "ms"),
    ("model.conv_tokens_per_s", "tokens/s"),
    // core::derive, core::compile
    ("derive.ms", "ms"),
    ("derive.nodes", "count"),
    ("compile.ms", "ms"),
    ("compile.elements", "count"),
    // core::engine scalar sweep and observation replay
    ("engine.ns_per_iter", "ns"),
    ("engine.ns_per_node", "ns"),
    ("engine.nodes_computed", "count"),
    ("engine.arcs_evaluated", "count"),
    ("observe.replay_ms", "ms"),
    // core::parallel
    ("partition.parallel_iterations", "count"),
    ("partition.serial_iterations", "count"),
    ("partition.barrier_crossings", "count"),
    // core::batch, core::kernel
    ("batch.ns_per_lane_iter", "ns"),
    ("batch.fill", "ratio"),
    ("batch.chunked_sweeps", "count"),
    ("batch.scalar_sweeps", "count"),
    ("batch.eject.worklist", "count"),
    ("batch.eject.empty_trace", "count"),
    ("batch.eject.single_lane", "count"),
    ("batch.eject.unsupported", "count"),
    ("batch.eject.partitioned", "count"),
    // core::periodic
    ("ff.promotions", "count"),
    ("ff.demotions", "count"),
    ("ff.replayed_share", "ratio"),
    // core::delta
    ("delta.lanes", "count"),
    ("delta.reused_share", "ratio"),
    // explore::cache, explore::sweep
    ("cache.prepare_ms", "ms"),
    ("cache.engines_reused", "count"),
    ("sweep.worker_busy_share", "ratio"),
    ("sweep.scenarios_per_s", "1/s"),
    // serve: protocol, net, eval, shard, load generator
    ("protocol.encode_ns", "ns"),
    ("protocol.decode_ns", "ns"),
    ("net.ping_rtt_us", "us"),
    ("eval.batch_us", "us"),
    ("eval.scalar_us", "us"),
    ("shard.batches.full", "count"),
    ("shard.batches.deadline", "count"),
    ("shard.lanes.batched", "count"),
    ("shard.lanes.scalar", "count"),
    ("shard.lanes.delta", "count"),
    ("shard.busy", "count"),
    ("serve.lat_p99_ms.low", "ms"),
    ("serve.lat_p50_ms.high", "ms"),
    ("serve.lat_p99_ms.high", "ms"),
    ("serve.capacity_rps", "1/s"),
    ("serve.unaccounted_ms", "ms"),
    ("account.serve_share", "ratio"),
    ("client.gen_lag_ms", "ms"),
    ("client.outstanding_max", "count"),
];

/// The quantile at which set-up times and `paper-des`'s run times are
/// reported: the fast decile. On a shared host, neighbours slow the same
/// code by up to 1.7x in spells that cover anywhere from none to most of a
/// run, in on-CPU time too; the median moves with the share of a run they
/// cover, the fast decile only when they cover nearly all of it.
pub const FAST: f64 = 0.1;

/// Checked operations and measured values of one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    values: Vec<(String, f64)>,
}

impl Report {
    /// Counts one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: failed: {}", what());
            }
        }
    }

    /// Records a measured value under a catalogue name.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalogue"
        );
        self.values.push((name, value));
    }

    /// Prints this run's catalogue (end-to-end, or per-layer when traced)
    /// and then the JSON result line. Fails without a result line when an
    /// end-to-end value is missing or a value is not finite.
    pub fn finish(self, traced: bool) -> ExitCode {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.values.iter().rev().find(|(n, _)| n == name) {
                Some(&(_, v)) if v.is_finite() => v,
                Some(&(_, v)) => {
                    eprintln!("perfbench: {name} is not finite ({v})");
                    return ExitCode::FAILURE;
                }
                None if traced => 0.0,
                None => {
                    eprintln!("perfbench: {name} was not measured");
                    return ExitCode::FAILURE;
                }
            };
            println!("  {name:<30} {value:>18.4} {unit}");
            metrics.push((
                name.to_string(),
                Json::object([("value", Json::F64(value)), ("unit", Json::str(unit))]),
            ));
        }
        if self.attempted == 0 {
            eprintln!("perfbench: no operation was checked");
            return ExitCode::FAILURE;
        }
        println!(
            "{}",
            Json::object([
                ("correct", Json::Bool(self.failed == 0)),
                ("attempted", Json::U64(self.attempted)),
                ("failed", Json::U64(self.failed)),
                ("metrics", Json::Object(metrics)),
            ])
            .render()
        );
        ExitCode::SUCCESS
    }
}

/// The `q`-quantile of `samples` by nearest rank.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Prints a timing's sample count and whether its tail quantile `q` has
/// the ten samples beyond it that reporting it needs.
pub fn state_samples(what: &str, n: usize, q: f64) {
    let beyond = n as f64 * (1.0 - q);
    let verdict = if beyond >= 10.0 - 1e-9 {
        "supported"
    } else {
        "UNSUPPORTED"
    };
    println!(
        "{what}: {n} samples, {beyond:.0} beyond p{:.0} ({verdict})",
        q * 100.0
    );
}

/// Calls `step(i)` until `seconds` have passed and at least `min` steps
/// ran, giving up on `min` at three times the budget. Returns the count.
pub fn measure_for(seconds: f64, min: usize, mut step: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut i = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && i >= min) || elapsed >= 3.0 * seconds {
            return i;
        }
        step(i);
        i += 1;
    }
}

/// Linux `clock_gettime` clock ids.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn cpu_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` of the layout the
    // C library expects, and `clock` is one of the CPU-time clock ids the
    // kernel always provides; the call writes only through `tp`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// On-CPU time of the calling thread, ns. Host time in this benchmark is
/// on-CPU time wherever the measured work runs on known threads: unlike
/// the wall clock, it leaves out the time a shared host's other tenants
/// hold the CPU (steal time), which would otherwise fold their load into
/// every figure.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// On-CPU time of the whole process, every thread that ever ran in it
/// included, ns.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
