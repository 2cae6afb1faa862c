//! Property test: observer attachment must be invisible.
//!
//! The telemetry layer (`evolve_core::obs`) watches engines from outside the
//! evaluation path: events and execution records are diffed around the real
//! boundary calls, never threaded through them. The contract under test is
//! **bitwise identical observables** — outputs, input acknowledgments,
//! execution records (in order) and every
//! [`EngineCounters`](evolve_core::obs::EngineCounters) counter must be
//! the same whether a sink is attached, a null observer is attached, or no
//! observer at all, across the worklist, compiled, compiled + fast-forward
//! and batched evaluation paths.
//!
//! On top of invisibility, the deterministic tests pin the accuracy claims
//! of the telemetry itself on a promoted (fast-forwarded) scenario: the
//! streaming busy accumulation and the exported Perfetto intervals must
//! match [`ResourceTrace::from_records`] exactly even when most iterations
//! were answered by template replay.

use evolve_core::obs::{downcast, NullObserver, TelemetrySink, TraceCollector};
use evolve_core::{derive_tdg, synthetic, BatchedEngine, Engine, EvalBackend, FastForward};
use evolve_des::Time;
use evolve_explore::{drive_batch, drive_engine};
use evolve_model::{didactic, Arrival, ResourceId, ResourceTrace};
use proptest::prelude::*;

/// The architecture grid mirrored from `periodic_conformance`: didactic
/// chains and padded synthetic pipelines.
#[derive(Debug, Clone)]
enum Model {
    Didactic { stages: usize },
    Pipeline { stages: usize, base: u64, per_unit: u64, padding: usize },
}

fn model() -> impl Strategy<Value = Model> {
    prop_oneof![
        (1usize..=3).prop_map(|stages| Model::Didactic { stages }),
        (1usize..=4, 10u64..200, 0u64..5, 0usize..32).prop_map(
            |(stages, base, per_unit, padding)| Model::Pipeline { stages, base, per_unit, padding }
        ),
    ]
}

fn build_engine(model: &Model, backend: EvalBackend, ff: FastForward) -> Engine {
    let (arch, padding) = match model {
        Model::Didactic { stages } => (
            didactic::chained(*stages, didactic::Params::default()).expect("didactic builds").arch,
            0,
        ),
        Model::Pipeline { stages, base, per_unit, padding } => (
            synthetic::pipeline(*stages, *base, *per_unit).expect("pipeline builds").arch,
            *padding,
        ),
    };
    let relations = arch.app().relations().len();
    let mut derived = derive_tdg(&arch).expect("models derive");
    if padding > 0 {
        derived.map_tdg(|tdg| synthetic::pad(tdg, padding));
    }
    let mut engine = Engine::with_backend(derived, relations, true, backend);
    engine.set_fast_forward(ff);
    engine
}

fn build_batch(model: &Model, lanes: usize) -> BatchedEngine {
    let (arch, padding) = match model {
        Model::Didactic { stages } => (
            didactic::chained(*stages, didactic::Params::default()).expect("didactic builds").arch,
            0,
        ),
        Model::Pipeline { stages, base, per_unit, padding } => (
            synthetic::pipeline(*stages, *base, *per_unit).expect("pipeline builds").arch,
            *padding,
        ),
    };
    let relations = arch.app().relations().len();
    let mut derived = derive_tdg(&arch).expect("models derive");
    if padding > 0 {
        derived.map_tdg(|tdg| synthetic::pad(tdg, padding));
    }
    let mut batch = BatchedEngine::try_new(derived, relations, true, lanes)
        .expect("didactic and pipeline graphs are batchable");
    batch.set_fast_forward(FastForward::On);
    batch
}

/// Mixed trace families: periodic (promotes), aperiodic (never promotes),
/// and period-breaking (promotes then demotes) — the observer must be
/// invisible across every regime transition.
fn trace() -> impl Strategy<Value = Vec<Arrival>> {
    prop_oneof![
        (20u64..50, 10u64..400, 1u64..32).prop_map(|(n, gap, size)| {
            (0..n).map(|k| Arrival { at: Time::from_ticks(k * gap), size }).collect()
        }),
        proptest::collection::vec((0u64..500, 1u64..32), 20..50).prop_map(|gs| {
            let mut at = 0u64;
            gs.iter()
                .map(|&(gap, size)| {
                    at += gap;
                    Arrival { at: Time::from_ticks(at), size }
                })
                .collect()
        }),
        (40u64..70, 10u64..400, 1u64..32, 10u64..35, 1u64..5_000).prop_map(
            |(n, gap, size, brk, jump)| {
                (0..n)
                    .map(|k| Arrival {
                        at: Time::from_ticks(k * gap + if k >= brk { jump } else { 0 }),
                        size,
                    })
                    .collect()
            },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Attached vs detached drives across all scalar backends and the batch:
    /// the full outcome (outputs, acks, exec records in order, stats) must
    /// be bitwise identical.
    #[test]
    fn observer_attachment_is_invisible(
        model in model(),
        traces in proptest::collection::vec(trace(), 2..4),
    ) {
        let configs = [
            (EvalBackend::Worklist, FastForward::Off),
            (EvalBackend::Compiled, FastForward::Off),
            (EvalBackend::Compiled, FastForward::On),
        ];
        let mut bare_outcomes = Vec::new();
        for arrivals in &traces {
            for (backend, ff) in configs {
                let mut bare = build_engine(&model, backend, ff);
                let mut sunk = build_engine(&model, backend, ff);
                sunk.attach_observer(Box::new(TelemetrySink::new()));
                let mut nulled = build_engine(&model, backend, ff);
                nulled.attach_observer(Box::new(NullObserver));

                let b = drive_engine(&mut bare, arrivals);
                let s = drive_engine(&mut sunk, arrivals);
                let n = drive_engine(&mut nulled, arrivals);
                prop_assert_eq!(&b, &s, "telemetry sink must be invisible");
                prop_assert_eq!(&b, &n, "null observer must be invisible");
                prop_assert_eq!(&b.engine_stats, &sunk.stats(), "stats via engine");
                if backend == EvalBackend::Compiled && ff == FastForward::On {
                    bare_outcomes.push(b);
                }
            }
        }

        // The same traces as lockstep lanes, bare vs observed batch.
        let refs: Vec<&[Arrival]> = traces.iter().map(|t| t.as_slice()).collect();
        let mut bare_batch = build_batch(&model, traces.len());
        let mut sunk_batch = build_batch(&model, traces.len());
        sunk_batch.attach_observer(Box::new(TelemetrySink::new()));
        let bare_lanes = drive_batch(&mut bare_batch, &refs);
        let sunk_lanes = drive_batch(&mut sunk_batch, &refs);
        prop_assert_eq!(&bare_lanes, &sunk_lanes, "observed batch must match bare");
        for (lane, scalar) in bare_lanes.iter().zip(&bare_outcomes) {
            prop_assert_eq!(&lane.outputs, &scalar.outputs, "lanes match the scalar path");
        }
    }
}

/// A strictly periodic pipeline stimulus the detector promotes; most
/// iterations are answered by O(1) template replay.
fn promoting_arrivals() -> Vec<Arrival> {
    (0..200u64).map(|k| Arrival { at: Time::from_ticks(k * 40), size: 8 }).collect()
}

const PROMOTING_MODEL: Model = Model::Pipeline { stages: 3, base: 60, per_unit: 2, padding: 8 };

/// The streaming accumulators must equal the post-hoc `ResourceTrace`
/// analysis exactly on a promoted scenario — replayed iterations stream the
/// same records the full sweep would have produced.
#[test]
fn streaming_busy_is_exact_across_fast_forward() {
    let mut engine = build_engine(&PROMOTING_MODEL, EvalBackend::Compiled, FastForward::On);
    engine.attach_observer(Box::new(TelemetrySink::new()));
    let outcome = drive_engine(&mut engine, &promoting_arrivals());
    let ff = engine.fast_forward_stats();
    assert!(ff.promotions >= 1, "scenario must promote: {ff:?}");
    assert!(ff.fast_forwarded_iterations > 0, "{ff:?}");

    let mut sink = downcast::<TelemetrySink>(engine.detach_observer().expect("attached"));
    let snapshot = sink.snapshot();
    assert!(!snapshot.resources.is_empty(), "records were streamed");
    for rs in &snapshot.resources {
        let trace =
            ResourceTrace::from_records(&outcome.exec_records, ResourceId::from_index(rs.resource));
        assert_eq!(rs.out_of_order, 0, "resource {} streamed in order", rs.resource);
        assert_eq!(
            rs.busy_ticks,
            trace.busy_ticks(),
            "resource {}: streaming busy == merged-interval busy",
            rs.resource
        );
        let records = outcome
            .exec_records
            .iter()
            .filter(|r| r.resource.index() == rs.resource)
            .count() as u64;
        assert_eq!(rs.records, records, "resource {}: record count", rs.resource);
        let ops: u64 = outcome
            .exec_records
            .iter()
            .filter(|r| r.resource.index() == rs.resource)
            .map(|r| r.ops)
            .sum();
        assert_eq!(rs.ops, ops, "resource {}: ops", rs.resource);
    }
    assert_eq!(snapshot.events.offers, 200, "one offer per arrival");
    assert!(snapshot.events.replayed_offers > 0, "replayed offers were flagged");
    assert_eq!(snapshot.events.promotions as u64, ff.promotions);
    assert_eq!(snapshot.regimes.len() as u64, ff.promotions, "one regime per promotion");
}

/// The Perfetto export path: intervals merged by the trace collector must be
/// identical to `ResourceTrace::from_records` on the same drive — the
/// acceptance criterion for `sweep --trace` on a fast-forwarded scenario.
#[test]
fn trace_collector_matches_resource_trace_on_promoted_scenario() {
    let mut engine = build_engine(&PROMOTING_MODEL, EvalBackend::Compiled, FastForward::On);
    engine.attach_observer(Box::new(TraceCollector::new()));
    let outcome = drive_engine(&mut engine, &promoting_arrivals());
    assert!(engine.fast_forward_stats().promotions >= 1, "scenario must promote");

    let collector = downcast::<TraceCollector>(engine.detach_observer().expect("attached"));
    let resources: std::collections::BTreeSet<usize> =
        outcome.exec_records.iter().map(|r| r.resource.index()).collect();
    assert!(!resources.is_empty());
    for resource in resources {
        let expected =
            ResourceTrace::from_records(&outcome.exec_records, ResourceId::from_index(resource));
        assert_eq!(
            collector.merged_intervals(0, resource),
            expected.intervals,
            "resource {resource}: exported intervals == ResourceTrace"
        );
    }
}

/// Engine reuse across scenarios: `reset()` seals the previous scenario's
/// lanes instead of corrupting the accumulators with a rewound time axis.
#[test]
fn reset_seals_lanes_across_scenarios() {
    let mut engine = build_engine(&PROMOTING_MODEL, EvalBackend::Compiled, FastForward::On);
    engine.attach_observer(Box::new(TelemetrySink::new()));
    let first = drive_engine(&mut engine, &promoting_arrivals());
    engine.reset();
    let second = drive_engine(&mut engine, &promoting_arrivals());

    let mut sink = downcast::<TelemetrySink>(engine.detach_observer().expect("attached"));
    let snapshot = sink.snapshot();
    assert_eq!(snapshot.events.resets, 1);
    for rs in &snapshot.resources {
        let id = ResourceId::from_index(rs.resource);
        let busy = ResourceTrace::from_records(&first.exec_records, id).busy_ticks()
            + ResourceTrace::from_records(&second.exec_records, id).busy_ticks();
        assert_eq!(rs.out_of_order, 0, "sealed lanes never rewind");
        assert_eq!(rs.busy_ticks, busy, "resource {}: busy sums across scenarios", rs.resource);
    }
}
