//! Property test: periodic steady-state fast-forward against the plain
//! evaluation paths.
//!
//! Every scenario is evaluated four ways — worklist reference, compiled
//! sweep, compiled sweep with fast-forward, and batched lockstep lanes with
//! fast-forward — over three families of input traces: strictly periodic
//! (the promotion regime), aperiodic (the detector must never promote
//! incorrectly), and period-breaking (promotion followed by a clean
//! demotion mid-trace).
//!
//! The contract under test is the tentpole guarantee of the fast-forward
//! path: **bitwise identical observables**. Outputs, input acknowledgments,
//! and the full [`EngineCounters`](evolve_core::obs::EngineCounters) must match the
//! plain compiled sweep exactly — including `nodes_computed` and
//! `arcs_evaluated`, which fast-forward accounts analytically while
//! skipping the actual sweeps. Execution records are compared in exact
//! order between the compiled paths (replay preserves capture order) and as
//! a canonical multiset against the worklist and batched paths (those
//! backends emit in schedule order; only the multiset is contractual).
//!
//! The deterministic tests additionally pin the promote → demote →
//! re-promote sequence on a phase-jumping trace, alone and composed with an
//! attached delta base (`delta_composes_with_promote_demote_fast_forward`).

use evolve_core::{
    derive_tdg, synthetic, BatchedEngine, Engine, EvalBackend, FastForward,
};
use evolve_des::Time;
use evolve_explore::{drive_batch, drive_engine, ScenarioOutcome};
use evolve_model::{didactic, Arrival, ExecRecord};
use proptest::prelude::*;

/// The architecture grid: didactic chains (data-dependent loads,
/// back-pressure) and synthetic pipelines, optionally padded with
/// computation-only nodes.
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

fn build_engine(model: &Model, backend: EvalBackend, ff: FastForward) -> (Engine, usize) {
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
    (engine, relations)
}

fn build_batch(model: &Model, lanes: usize, ff: FastForward) -> BatchedEngine {
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
    batch.set_fast_forward(ff);
    batch
}

/// Strictly periodic arrivals: constant gap, constant size.
fn periodic_trace() -> impl Strategy<Value = Vec<Arrival>> {
    (20u64..60, 10u64..400, 1u64..32).prop_map(|(n, gap, size)| {
        (0..n).map(|k| Arrival { at: Time::from_ticks(k * gap), size }).collect()
    })
}

/// Random gaps and sizes: the detector must never promote off these.
fn aperiodic_trace() -> impl Strategy<Value = Vec<Arrival>> {
    proptest::collection::vec((0u64..500, 1u64..32), 20..60).prop_map(|gs| {
        let mut at = 0u64;
        gs.iter()
            .map(|&(gap, size)| {
                at += gap;
                Arrival { at: Time::from_ticks(at), size }
            })
            .collect()
    })
}

/// Periodic with a single phase jump mid-trace: promotion, then demotion,
/// then (trace permitting) re-promotion.
fn breaking_trace() -> impl Strategy<Value = Vec<Arrival>> {
    (40u64..80, 10u64..400, 1u64..32, 10u64..35, 1u64..5_000).prop_map(
        |(n, gap, size, brk, jump)| {
            (0..n)
                .map(|k| Arrival {
                    at: Time::from_ticks(k * gap + if k >= brk { jump } else { 0 }),
                    size,
                })
                .collect()
        },
    )
}

fn trace() -> impl Strategy<Value = Vec<Arrival>> {
    prop_oneof![periodic_trace(), aperiodic_trace(), breaking_trace()]
}

/// Execution records in a scheduling-independent canonical order.
fn canonical(mut records: Vec<ExecRecord>) -> Vec<ExecRecord> {
    records.sort_by_key(|r| (r.start, r.resource, r.function, r.stmt, r.k));
    records
}

fn assert_conformance(
    model: &Model,
    traces: &[Vec<Arrival>],
) -> Result<(), proptest::test_runner::TestCaseError> {
    // Per-trace scalar drives: worklist, compiled, compiled + fast-forward.
    let mut compiled_outcomes: Vec<ScenarioOutcome> = Vec::new();
    for (i, arrivals) in traces.iter().enumerate() {
        let (mut worklist, _) = build_engine(model, EvalBackend::Worklist, FastForward::Off);
        let (mut compiled, _) = build_engine(model, EvalBackend::Compiled, FastForward::Off);
        let (mut ff, _) = build_engine(model, EvalBackend::Compiled, FastForward::On);
        prop_assert!(ff.fast_forward_eligible(), "trace {i}: models are eligible");
        let w = drive_engine(&mut worklist, arrivals);
        let c = drive_engine(&mut compiled, arrivals);
        let f = drive_engine(&mut ff, arrivals);

        // Worklist vs compiled: observables agree, records as a multiset.
        prop_assert_eq!(&w.outputs, &c.outputs, "trace {}: Y(k)", i);
        prop_assert_eq!(&w.input_acks, &c.input_acks, "trace {}: acks", i);
        prop_assert_eq!(
            canonical(w.exec_records.clone()),
            canonical(c.exec_records.clone()),
            "trace {}: records",
            i
        );

        // Compiled vs compiled + fast-forward: the full outcome is bitwise
        // identical — exec-record order and every stats counter included.
        prop_assert_eq!(&c, &f, "trace {}: fast-forward must be invisible", i);
        compiled_outcomes.push(c);
    }

    // All traces again as lockstep lanes of one fast-forwarding batch.
    let mut batch = build_batch(model, traces.len(), FastForward::On);
    let refs: Vec<&[Arrival]> = traces.iter().map(|t| t.as_slice()).collect();
    let lanes = drive_batch(&mut batch, &refs);
    for (l, (lane, scalar)) in lanes.iter().zip(&compiled_outcomes).enumerate() {
        prop_assert_eq!(&lane.outputs, &scalar.outputs, "lane {}: Y(k)", l);
        prop_assert_eq!(&lane.input_acks, &scalar.input_acks, "lane {}: acks", l);
        prop_assert_eq!(
            canonical(lane.exec_records.clone()),
            canonical(scalar.exec_records.clone()),
            "lane {}: records",
            l
        );
        prop_assert_eq!(&lane.engine_stats, &scalar.engine_stats, "lane {}: stats", l);
    }
    Ok(())
}

proptest! {
    // Each case runs 3·traces scalar drives plus a batch; keep the case
    // count moderate so the suite stays in CI budget.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fast_forward_conforms_across_backends(
        model in model(),
        traces in proptest::collection::vec(trace(), 2..4),
    ) {
        assert_conformance(&model, &traces)?;
    }
}

/// A deterministic period-breaking scenario pinned end to end: the
/// fast-forward engine must actually promote, demote on the phase jump,
/// re-promote on the shifted line, and still match the plain sweep bitwise.
#[test]
fn breaking_trace_demotes_and_stays_bitwise_identical() {
    let model = Model::Pipeline { stages: 3, base: 60, per_unit: 2, padding: 8 };
    let arrivals: Vec<Arrival> = (0..160u64)
        .map(|k| Arrival {
            at: Time::from_ticks(k * 500 + if k >= 80 { 7_777 } else { 0 }),
            size: 4,
        })
        .collect();
    let (mut plain, _) = build_engine(&model, EvalBackend::Compiled, FastForward::Off);
    let (mut ff, _) = build_engine(&model, EvalBackend::Compiled, FastForward::On);
    let p = drive_engine(&mut plain, &arrivals);
    let f = drive_engine(&mut ff, &arrivals);
    assert_eq!(p, f, "fast-forward must be invisible across the break");
    let stats = ff.fast_forward_stats();
    assert!(stats.promotions >= 2, "promotes on both arrival lines: {stats:?}");
    assert_eq!(stats.demotions, 1, "exactly the phase jump demotes: {stats:?}");
    assert!(stats.fast_forwarded_iterations > 0, "{stats:?}");

    // The same trace on two batch lanes, one of which never breaks.
    let steady: Vec<Arrival> =
        (0..160u64).map(|k| Arrival { at: Time::from_ticks(k * 500), size: 4 }).collect();
    let mut batch = build_batch(&model, 2, FastForward::On);
    let lanes = drive_batch(&mut batch, &[&arrivals, &steady]);
    assert_eq!(lanes[0].outputs, p.outputs);
    assert_eq!(lanes[0].input_acks, p.input_acks);
    assert_eq!(lanes[0].engine_stats, p.engine_stats);
    assert_eq!(batch.lane_fast_forward_stats(0).demotions, 1);
    assert_eq!(batch.lane_fast_forward_stats(1).demotions, 0);
}

/// Delta × fast-forward matrix: a sibling with an attached delta base and
/// fast-forward enabled must promote on the steady prefix, demote on the
/// phase jump, resume the delta sweep inside the cached range, re-promote
/// on the shifted line — and stay bitwise identical to the plain compiled
/// sweep throughout.
#[test]
fn delta_composes_with_promote_demote_fast_forward() {
    let model = Model::Pipeline { stages: 3, base: 60, per_unit: 2, padding: 8 };
    // Base: 100 iterations of the steady periodic line, captured with
    // fast-forward off (replayed offers leave no rows to capture).
    let steady: Vec<Arrival> =
        (0..100u64).map(|k| Arrival { at: Time::from_ticks(k * 500), size: 4 }).collect();
    let (mut capture, _) = build_engine(&model, EvalBackend::Compiled, FastForward::Off);
    capture.begin_delta_capture().expect("pipelines are delta-eligible");
    drive_engine(&mut capture, &steady);
    let cache = capture.finish_delta_capture();
    assert_eq!(cache.iterations(), steady.len(), "fast-forward off captures every row");

    // Sibling: the same line with a phase jump at k = 40 — inside the
    // cached range, so the post-demotion sweeps ride the delta path.
    let breaking: Vec<Arrival> = (0..160u64)
        .map(|k| Arrival {
            at: Time::from_ticks(k * 500 + if k >= 40 { 7_777 } else { 0 }),
            size: 4,
        })
        .collect();
    let (mut plain, _) = build_engine(&model, EvalBackend::Compiled, FastForward::Off);
    let p = drive_engine(&mut plain, &breaking);

    let (mut both, _) = build_engine(&model, EvalBackend::Compiled, FastForward::On);
    both.attach_delta_base(cache).expect("identical structure");
    let b = drive_engine(&mut both, &breaking);
    assert_eq!(b, p, "delta + fast-forward must be invisible across the break");

    let ff = both.fast_forward_stats();
    assert!(ff.promotions >= 2, "promotes on both arrival lines: {ff:?}");
    assert_eq!(ff.demotions, 1, "exactly the phase jump demotes: {ff:?}");
    assert!(ff.fast_forwarded_iterations > 0, "{ff:?}");
    let delta = both.detach_delta();
    assert!(delta.calls_delta > 0, "the delta sweep answered real offers: {delta:?}");
    assert!(
        delta.calls_delta + delta.calls_full < breaking.len() as u64,
        "fast-forward replay absorbed part of the trace: {delta:?}"
    );
}
