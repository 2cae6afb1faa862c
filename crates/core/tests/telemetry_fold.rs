//! Exactness of the telemetry fold.
//!
//! Telemetry is computed after a drive from what the drive returns: its
//! execution records in production order, its engine counters and its
//! fast-forward statistics, folded once into a
//! [`TelemetrySink`](evolve_core::obs::TelemetrySink) by
//! [`fold_drive`]. These tests pin the fold's accuracy on a promoted
//! (fast-forwarded) scenario, where most iterations are answered by
//! template replay: the folded busy ticks, ops and record counts, and the
//! Perfetto intervals [`trace_scenario`] exports, must equal
//! [`ResourceTrace::from_records`] on the same drive exactly.

use evolve_core::obs::TelemetrySink;
use evolve_core::{derive_tdg, synthetic, Engine, EvalBackend, FastForward};
use evolve_des::Time;
use evolve_explore::cache::fold_drive;
use evolve_explore::{
    drive_engine, trace_scenario, ModelKind, ModelSpec, ScenarioSpec, SweepConfig, TraceSpec,
};
use evolve_model::{Arrival, ResourceId, ResourceTrace};

/// A padded three-stage pipeline with fast-forward on.
fn promoting_engine() -> Engine {
    let arch = synthetic::pipeline(3, 60, 2).expect("pipeline builds").arch;
    let relations = arch.app().relations().len();
    let mut derived = derive_tdg(&arch).expect("models derive");
    derived.map_tdg(|tdg| synthetic::pad(tdg, 8));
    let mut engine = Engine::with_backend(derived, relations, true, EvalBackend::Compiled);
    engine.set_fast_forward(FastForward::On);
    engine
}

/// A strictly periodic stimulus the detector promotes; most iterations
/// are answered by O(1) template replay.
fn promoting_arrivals() -> Vec<Arrival> {
    (0..200u64).map(|k| Arrival { at: Time::from_ticks(k * 40), size: 8 }).collect()
}

/// The folded per-resource metrics must equal the post-hoc
/// `ResourceTrace` analysis exactly on a promoted scenario: replayed
/// iterations leave the same records in the drive's log as the full sweep
/// would have.
#[test]
fn folded_busy_is_exact_across_fast_forward() {
    let mut engine = promoting_engine();
    let outcome = drive_engine(&mut engine, &promoting_arrivals());
    let ff = engine.fast_forward_stats();
    assert!(ff.promotions >= 1, "scenario must promote: {ff:?}");
    assert!(ff.fast_forwarded_iterations > 0, "{ff:?}");

    let mut sink = TelemetrySink::new();
    fold_drive(&mut sink, &outcome, &ff);
    let snapshot = sink.snapshot();
    assert!(!snapshot.resources.is_empty(), "records were folded");
    for rs in &snapshot.resources {
        let on_resource = || {
            outcome
                .exec_records
                .iter()
                .filter(|r| r.resource.index() == rs.resource)
        };
        let trace =
            ResourceTrace::from_records(&outcome.exec_records, ResourceId::from_index(rs.resource));
        assert_eq!(rs.out_of_order, 0, "resource {} folded in order", rs.resource);
        assert_eq!(
            rs.busy_ticks,
            trace.busy_ticks(),
            "resource {}: folded busy == merged-interval busy",
            rs.resource
        );
        assert_eq!(rs.records, on_resource().count() as u64, "resource {}: records", rs.resource);
        let ops: u64 = on_resource().map(|r| r.ops).sum();
        assert_eq!(rs.ops, ops, "resource {}: ops", rs.resource);
    }
    assert_eq!(snapshot.boundary_events, 400, "one offer and one output per arrival");
    assert_eq!(snapshot.engine, outcome.engine_stats);
    assert_eq!(snapshot.ff, ff.into());
    let d = ff.detected.expect("a promoted drive detected its regime");
    assert_eq!(snapshot.regimes.get(&(d.growth, d.period)), Some(&1), "one drive per regime");
}

/// The Perfetto export path: the intervals `trace_scenario` builds from
/// the drive's records must be identical to `ResourceTrace::from_records`
/// on the same records — the acceptance check for `sweep --trace` on a
/// fast-forwarded scenario.
#[test]
fn trace_collector_matches_resource_trace_on_promoted_scenario() {
    let spec = ScenarioSpec {
        label: "promoting".into(),
        model: ModelSpec {
            kind: ModelKind::Pipeline { stages: 3, base: 60, per_unit: 2 },
            padding: 8,
            backend: EvalBackend::Compiled,
        },
        trace: TraceSpec { tokens: 200, min_size: 8, max_size: 8, mean_period: 0, seed: 0 },
    };
    let (result, collector) = trace_scenario(&spec, &SweepConfig::default());
    assert!(result.fast_forward.promotions >= 1, "scenario must promote");

    let records = &result.outcome.exec_records;
    let resources: std::collections::BTreeSet<usize> =
        records.iter().map(|r| r.resource.index()).collect();
    assert!(!resources.is_empty());
    assert_eq!(collector.tracks().count(), resources.len(), "one track per busy resource");
    for resource in resources {
        let expected = ResourceTrace::from_records(records, ResourceId::from_index(resource));
        assert_eq!(
            collector.merged_intervals(0, resource),
            expected.intervals,
            "resource {resource}: exported intervals == ResourceTrace"
        );
    }
}

/// Engine reuse across scenarios: each drive of a reset engine folds on
/// its own time axis, so the second drive's rewound instants neither
/// clamp against the first drive's nor merge with them.
#[test]
fn reused_engine_drives_fold_on_their_own_time_axes() {
    let mut engine = promoting_engine();
    let mut sink = TelemetrySink::new();
    let first = drive_engine(&mut engine, &promoting_arrivals());
    fold_drive(&mut sink, &first, &engine.fast_forward_stats());
    engine.reset();
    let second = drive_engine(&mut engine, &promoting_arrivals());
    fold_drive(&mut sink, &second, &engine.fast_forward_stats());
    assert_eq!(first, second, "reset is exact");

    let snapshot = sink.snapshot();
    for rs in &snapshot.resources {
        let id = ResourceId::from_index(rs.resource);
        let busy = ResourceTrace::from_records(&first.exec_records, id).busy_ticks()
            + ResourceTrace::from_records(&second.exec_records, id).busy_ticks();
        assert_eq!(rs.out_of_order, 0, "drives never rewind each other's frontier");
        assert_eq!(rs.busy_ticks, busy, "resource {}: busy sums across drives", rs.resource);
    }
    assert_eq!(snapshot.regimes.values().sum::<u64>(), 2, "both drives promoted");
}
