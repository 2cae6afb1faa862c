//! The design-space sweep of Table I example 4 on which `paper-des`'s
//! traced run measures the sweep layers.
//!
//! The many-candidate evaluation loop of design-space exploration:
//! `run_sweep` with two worker threads and the sweep CLI's settings
//! (batch 8, fast-forward on, delta on). Half the traces are saturating
//! constant-size tokens, which promote to fast-forward; half are jittered
//! random sizes, which do not. Lockstep SIMD batches, fast-forward replay
//! and the worker pool do the work.

use evolve_core::EvalBackend;
use evolve_des::SplitMix64;
use evolve_explore::{
    run_sweep, FastForward, ModelKind, ModelSpec, ScenarioOutcome, ScenarioSpec, SweepConfig,
    SweepReport, TraceSpec,
};

use crate::common::{median, process_cpu_ns, Report};
use crate::spans::Tracer;

const TOKENS: u64 = 500;
const THREADS: usize = 2;
const BATCH: usize = 8;

/// Saturating constant-size tokens settle into a periodic regime the
/// fast-forward detector promotes; jittered random sizes never do.
fn trace(r: &mut SplitMix64, periodic: bool) -> TraceSpec {
    if periodic {
        let size = r.range_inclusive(8, 64);
        TraceSpec {
            tokens: TOKENS,
            min_size: size,
            max_size: size,
            mean_period: 0,
            seed: r.next_u64(),
        }
    } else {
        TraceSpec {
            tokens: TOKENS,
            min_size: 1,
            max_size: 128,
            mean_period: r.range_inclusive(200, 2_000),
            seed: r.next_u64(),
        }
    }
}

/// 32 scenarios of `didactic::chained(4)`, plain and padded to 256 nodes,
/// each model's first 8 traces periodic and last 8 jittered.
pub fn paper_grid(seed: u64) -> Vec<ScenarioSpec> {
    let root = SplitMix64::new(seed).fork(1 << 20);
    (0..32u64)
        .map(|i| ScenarioSpec {
            label: format!("paper-dse-{i}"),
            model: ModelSpec {
                kind: ModelKind::Didactic { stages: 4 },
                padding: if i < 16 { 0 } else { 256 },
                backend: EvalBackend::Compiled,
            },
            trace: trace(&mut root.fork(i), i % 16 < 8),
        })
        .collect()
}

/// FNV-1a over 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Digest of an outcome's outputs, input acknowledgements, busy ticks and
/// execution-record multiset (batched lanes record in another order).
fn fingerprint(o: &ScenarioOutcome) -> u64 {
    let mut records: Vec<_> = o
        .exec_records
        .iter()
        .map(|r| {
            [
                r.k,
                r.function.index() as u64,
                r.stmt as u64,
                r.start.ticks(),
                r.end.ticks(),
                r.ops,
            ]
        })
        .collect();
    records.sort_unstable();
    digest(
        o.outputs
            .iter()
            .flat_map(|&(k, y, size)| [k, y, size])
            .chain(o.input_acks.iter().copied())
            .chain(o.busy_ticks.iter().copied())
            .chain(records.into_iter().flatten()),
    )
}

/// A scenario grid with its scalar reference: the plain scalar path, one
/// thread and no batching, fast-forward or delta chaining.
pub struct Grid {
    scenarios: Vec<ScenarioSpec>,
    reference: Vec<u64>,
    tokens: u64,
}

/// What repeated sweeps of a [`Grid`] measured.
#[derive(Default)]
pub struct Sweeps {
    /// Grid tokens per second of on-CPU time per worker, one per sweep.
    rates: Vec<f64>,
    busy_shares: Vec<f64>,
    last: Option<SweepReport>,
}

impl Grid {
    pub fn new(scenarios: Vec<ScenarioSpec>) -> Grid {
        let plain = SweepConfig {
            threads: 1,
            batch_width: 1,
            fast_forward: FastForward::Off,
            delta: false,
            ..SweepConfig::default()
        };
        let reference = run_sweep(&scenarios, &plain)
            .scenarios
            .iter()
            .map(|s| fingerprint(&s.outcome))
            .collect();
        let tokens = scenarios.iter().map(|s| s.trace.tokens).sum();
        Grid {
            scenarios,
            reference,
            tokens,
        }
    }

    /// One sweep with the measured configuration (threads 2, batch 8,
    /// fast-forward and delta on), every scenario checked against the
    /// reference. `measure` false makes it a warm-up.
    pub fn sweep(&self, tr: &mut Tracer, report: &mut Report, into: &mut Sweeps, measure: bool) {
        let config = SweepConfig {
            threads: THREADS,
            batch_width: BATCH,
            fast_forward: FastForward::On,
            delta: true,
            ..SweepConfig::default()
        };
        let cpu = process_cpu_ns();
        let sweep = tr.span("sweep.run_sweep", || run_sweep(&self.scenarios, &config));
        let cpu_ns = (process_cpu_ns() - cpu) as f64;
        for (got, want) in sweep.scenarios.iter().zip(&self.reference) {
            report.check(fingerprint(&got.outcome) == *want, || {
                format!("scenario {} differs from the scalar reference", got.label)
            });
        }
        if measure {
            // On-CPU time of every thread, per worker: on an otherwise idle
            // host with both workers busy this is the sweep's wall time.
            into.rates
                .push(self.tokens as f64 * THREADS as f64 * 1e9 / cpu_ns);
            let busy_ns: f64 = sweep
                .scenarios
                .iter()
                .map(|s| s.wall.as_nanos() as f64)
                .sum();
            into.busy_shares
                .push(busy_ns / (THREADS as f64 * sweep.wall.as_nanos() as f64));
        }
        into.last = Some(sweep);
    }

    /// Reports the sweep, cache, batch, fast-forward and delta layers.
    pub fn report_layers(&self, sweeps: &Sweeps, report: &mut Report) {
        let sweep = sweeps.last.as_ref().expect("at least one sweep ran");
        let b = &sweep.batching;
        let (mut batched_ns, mut batched_iters) = (0.0, 0u64);
        for s in sweep.scenarios.iter().filter(|s| s.batched) {
            batched_ns += s.wall.as_nanos() as f64;
            batched_iters += s.outcome.engine_stats.iterations_completed;
        }
        let ff = sweep.total_fast_forward_stats();
        let d = &sweep.delta;
        let scenarios = self.scenarios.len() as f64;
        report.metric(
            "sweep.scenarios_per_s",
            median(&sweeps.rates) * scenarios / self.tokens as f64,
        );
        report.metric("sweep.worker_busy_share", median(&sweeps.busy_shares));
        report.metric("cache.engines_reused", sweep.reused_count() as f64);
        report.metric(
            "batch.ns_per_lane_iter",
            batched_ns / batched_iters.max(1) as f64,
        );
        report.metric(
            "batch.fill",
            b.lanes_batched as f64 / (b.batches_formed.max(1) * BATCH as u64) as f64,
        );
        report.metric("batch.chunked_sweeps", b.kernel_chunked_sweeps as f64);
        report.metric("batch.scalar_sweeps", b.kernel_scalar_sweeps as f64);
        report.metric("batch.eject.worklist", b.eject_worklist as f64);
        report.metric("batch.eject.empty_trace", b.eject_empty_trace as f64);
        report.metric("batch.eject.single_lane", b.eject_single_lane as f64);
        report.metric("batch.eject.unsupported", b.eject_unsupported as f64);
        report.metric("batch.eject.partitioned", b.eject_partitioned as f64);
        report.metric("ff.promotions", ff.promotions as f64);
        report.metric("ff.demotions", ff.demotions as f64);
        report.metric(
            "ff.replayed_share",
            ff.fast_forwarded_iterations as f64 / self.tokens as f64,
        );
        report.metric("delta.lanes", d.lanes_delta as f64);
        report.metric(
            "delta.reused_share",
            d.nodes_reused as f64 / (d.nodes_reused + d.nodes_recomputed).max(1) as f64,
        );
    }
}
