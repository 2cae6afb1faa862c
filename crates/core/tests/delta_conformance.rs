//! Property test: delta evaluation against the full compiled sweep and the
//! worklist reference on randomized graphs and perturbation families.
//!
//! Each case evaluates a *base* scenario once under
//! [`Engine::begin_delta_capture`], freezes the run into a [`DeltaCache`],
//! then evaluates a perturbed *sibling* three ways — delta-attached
//! compiled, full compiled, and worklist — and requires the delta run to be
//! bitwise identical to the full compiled run (outputs, acknowledgments,
//! instant logs, execution records *in emission order*, and every
//! [`EngineCounters`] counter) and multiset-identical to the worklist.
//!
//! Two generators mirror `backend_conformance.rs`:
//!
//! 1. **Raw synthetic TDGs** — random DAGs-with-delays with a
//!    single-coefficient perturbation (one arc weight bumped) and a
//!    trace-suffix shift, driven input by input.
//! 2. **Derived pipeline scenarios** — `synthetic::pipeline` architectures
//!    under three perturbation families: a single duration coefficient
//!    (`base` load edit), a mapping/load-scaling edit (`per_unit`), and a
//!    trace-period edit (inter-arrival gaps scaled).
//!
//! Deterministic tests pin the frontier-collapse fast path (a no-op
//! perturbation recomputes zero nodes) and the typed negative paths: every
//! [`DeltaUnsupported`] variant with its stable `reason()` tag, plus full
//! evaluation still conforming after the ejection.

use evolve_core::obs::{DeltaCounters, EngineCounters};
use evolve_core::{
    derive_tdg, synthetic, DeltaUnsupported, DerivedTdg, Engine, EvalBackend, NodeKind, Tdg,
    TdgBuilder, Weight,
};
use evolve_des::Time;
use evolve_explore::drive_engine;
use evolve_model::{Arrival, ExecRecord, RelationId};
use proptest::prelude::*;

/// A random DAG-with-delays: node 0 is the input, the last node the
/// output, arcs go forward (delay 0) or anywhere (delay 1..=2).
#[derive(Debug, Clone)]
struct GraphSpec {
    nodes: usize,
    arcs: Vec<(usize, usize, u32, u64)>,
    offers: Vec<u64>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (3usize..12)
        .prop_flat_map(|nodes| {
            let arcs = proptest::collection::vec(
                (0..nodes, 0..nodes, 0u32..3, 0u64..500),
                nodes..nodes * 3,
            );
            let offers = proptest::collection::vec(0u64..2_000, 2..12);
            (Just(nodes), arcs, offers)
        })
        .prop_map(|(nodes, raw_arcs, mut offers)| {
            // Delay-0 arcs forward keeps the graph causal; offers
            // non-decreasing keeps the drive in iteration order.
            let arcs = raw_arcs
                .into_iter()
                .map(|(a, b, delay, w)| {
                    if delay == 0 {
                        let (lo, hi) = if a < b {
                            (a, b)
                        } else if b < a {
                            (b, a)
                        } else {
                            (a, (a + 1) % nodes)
                        };
                        if lo < hi { (lo, hi, 0, w) } else { (hi, lo, 0, w) }
                    } else {
                        (a, b, delay, w)
                    }
                })
                .filter(|(a, b, d, _)| !(a == b && *d == 0))
                .collect();
            let mut acc = 0u64;
            for o in &mut offers {
                acc += *o;
                *o = acc;
            }
            GraphSpec { nodes, arcs, offers }
        })
}

fn build(spec: &GraphSpec) -> Tdg {
    let mut b = TdgBuilder::new();
    let input_rel = RelationId::from_index(0);
    let output_rel = RelationId::from_index(1);
    let mut ids = Vec::new();
    for i in 0..spec.nodes {
        let kind = if i == 0 {
            NodeKind::Input { relation: input_rel }
        } else if i == spec.nodes - 1 {
            NodeKind::Output { relation: output_rel }
        } else {
            NodeKind::Padding
        };
        ids.push(b.add_node(format!("n{i}"), kind));
    }
    for &(src, dst, delay, w) in &spec.arcs {
        if dst == 0 {
            continue; // nothing feeds the input
        }
        b.add_arc(ids[src], ids[dst], delay, Weight::constant(w));
    }
    b.build().expect("forward delay-0 arcs keep the graph causal")
}

fn engine_for(tdg: &Tdg, backend: EvalBackend) -> Engine {
    let derived = DerivedTdg::new(
        tdg.clone(),
        vec![
            evolve_core::SizeRule::External,
            evolve_core::SizeRule::Derived { from: None, model: evolve_model::SizeModel::Same },
        ],
    );
    Engine::with_backend(derived, 2, true, backend)
}

/// Execution records in a scheduling-independent canonical order.
fn canonical(mut records: Vec<ExecRecord>) -> Vec<ExecRecord> {
    records.sort_by_key(|r| (r.start, r.resource, r.function, r.stmt, r.k));
    records
}

/// Everything a raw-TDG drive observes, for bitwise comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RawRun {
    outputs: Vec<Option<(u64, Time, u64)>>,
    instants: Vec<Vec<Time>>,
    stats: EngineCounters,
}

fn drive_raw(engine: &mut Engine, offers: &[u64]) -> RawRun {
    let mut outputs = Vec::with_capacity(offers.len());
    for (k, &u) in offers.iter().enumerate() {
        engine.set_input(0, k as u64, Time::from_ticks(u), 0);
        outputs.push(engine.next_output(0));
    }
    RawRun {
        outputs,
        instants: (0..2).map(|r| engine.instants(r).to_vec()).collect(),
        stats: engine.stats(),
    }
}

/// Shifts every offer from `at` onward by `shift` ticks (keeps the trace
/// non-decreasing).
fn shift_suffix(offers: &[u64], at: usize, shift: u64) -> Vec<u64> {
    offers
        .iter()
        .enumerate()
        .map(|(i, &o)| if i >= at { o + shift } else { o })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single-coefficient + trace perturbations on random DAGs: the delta
    /// sweep must match the full compiled sweep bitwise and the worklist
    /// reference on every observable.
    #[test]
    fn delta_agrees_on_random_tdgs(
        spec in graph_spec(),
        pick in 0usize..1_000_000,
        bump in 0u64..400,
        shift in 0u64..60,
    ) {
        // Base run: capture the delta cache while evaluating normally.
        let base_tdg = build(&spec);
        let mut base = engine_for(&base_tdg, EvalBackend::Compiled);
        base.begin_delta_capture().expect("single-input ack-free compiled graph");
        drive_raw(&mut base, &spec.offers);
        let cache = base.finish_delta_capture();
        prop_assert!(cache.node_count() > 0);

        // Sibling: one arc weight bumped (a no-op when the arc feeds the
        // input and is skipped by `build`, covering the collapse path) and
        // the offer suffix shifted.
        let mut sibling = spec.clone();
        if !sibling.arcs.is_empty() {
            let arc = pick % sibling.arcs.len();
            sibling.arcs[arc].3 += bump;
        }
        let at = pick % sibling.offers.len();
        sibling.offers = shift_suffix(&sibling.offers, at, shift);
        let sib_tdg = build(&sibling);

        let mut delta = engine_for(&sib_tdg, EvalBackend::Compiled);
        delta
            .attach_delta_base(cache.clone())
            .expect("same node/arc structure, only weights differ");
        let delta_run = drive_raw(&mut delta, &sibling.offers);
        let stats = delta.detach_delta();

        let mut full = engine_for(&sib_tdg, EvalBackend::Compiled);
        let full_run = drive_raw(&mut full, &sibling.offers);
        let mut worklist = engine_for(&sib_tdg, EvalBackend::Worklist);
        let worklist_run = drive_raw(&mut worklist, &sibling.offers);

        // Delta ≡ full compiled, bitwise: every observable and every
        // engine counter.
        prop_assert_eq!(&delta_run, &full_run);
        // Both ≡ worklist on the backend contract.
        prop_assert_eq!(&delta_run.outputs, &worklist_run.outputs);
        prop_assert_eq!(&delta_run.instants, &worklist_run.instants);
        prop_assert_eq!(delta_run.stats.nodes_computed, worklist_run.stats.nodes_computed);
        prop_assert_eq!(
            delta_run.stats.iterations_completed,
            worklist_run.stats.iterations_completed
        );

        // Ledger: every offer was answered by exactly one of the two
        // paths, and the cached range covers the whole base trace.
        prop_assert_eq!(cache.iterations(), spec.offers.len());
        prop_assert_eq!(stats.calls_delta + stats.calls_full, sibling.offers.len() as u64);
        if bump == 0 && shift == 0 {
            // Identical sibling: the frontier collapses on every call.
            prop_assert_eq!(stats.nodes_recomputed, 0);
            prop_assert_eq!(stats.frontier_collapses, stats.calls_delta);
        }
    }

    /// Derived-pipeline perturbation families: a single duration
    /// coefficient (`base`), a mapping/load-scaling edit (`per_unit`), and
    /// a trace-period edit, driven through the sweep boundary semantics.
    #[test]
    fn delta_agrees_on_perturbed_pipelines(
        stages in 1usize..5,
        base_load in 10u64..200,
        per_unit in 1u64..5,
        padding in 0usize..32,
        offers in proptest::collection::vec((0u64..900, 1u64..64), 2..12),
        perturb in 0u64..150,
    ) {
        // One packed parameter keeps the strategy tuple within the
        // six-element bound: which family, and how hard to perturb.
        let (family, magnitude) = (perturb % 3, 1 + perturb / 3);
        let arrivals = |gaps: &[(u64, u64)]| {
            let mut at = 0u64;
            let mut v = Vec::with_capacity(gaps.len());
            for &(gap, size) in gaps {
                at += gap;
                v.push(Arrival { at: Time::from_ticks(at), size });
            }
            v
        };
        let engine_of = |base: u64, per_unit: u64, backend: EvalBackend| {
            let p = synthetic::pipeline(stages, base, per_unit).expect("pipeline builds");
            let relations = p.arch.app().relations().len();
            let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
            if padding > 0 {
                derived.map_tdg(|tdg| synthetic::pad(tdg, padding));
            }
            Engine::with_backend(derived, relations, true, backend)
        };

        // Perturbation family: architecture and trace of the sibling.
        let (sib_base, sib_unit, sib_gaps) = match family {
            0 => (base_load + magnitude, per_unit, offers.clone()),
            1 => (base_load, per_unit + magnitude % 4, offers.clone()),
            _ => (
                base_load,
                per_unit,
                offers.iter().map(|&(gap, size)| (gap + magnitude * 10, size)).collect(),
            ),
        };

        let mut capture = engine_of(base_load, per_unit, EvalBackend::Compiled);
        capture.begin_delta_capture().expect("pipelines are delta-eligible");
        drive_engine(&mut capture, &arrivals(&offers));
        let cache = capture.finish_delta_capture();

        let mut delta_engine = engine_of(sib_base, sib_unit, EvalBackend::Compiled);
        delta_engine
            .attach_delta_base(cache)
            .expect("load edits keep the compiled structure");
        let d = drive_engine(&mut delta_engine, &arrivals(&sib_gaps));
        let stats = delta_engine.detach_delta();

        let mut full_engine = engine_of(sib_base, sib_unit, EvalBackend::Compiled);
        let c = drive_engine(&mut full_engine, &arrivals(&sib_gaps));
        let mut worklist_engine = engine_of(sib_base, sib_unit, EvalBackend::Worklist);
        let w = drive_engine(&mut worklist_engine, &arrivals(&sib_gaps));

        // Delta ≡ full compiled bitwise, including record emission order
        // and the full stats block.
        prop_assert_eq!(&d.outputs, &c.outputs, "Y(k)");
        prop_assert_eq!(&d.input_acks, &c.input_acks, "input acks");
        prop_assert_eq!(&d.exec_records, &c.exec_records, "record order");
        prop_assert_eq!(&d.engine_stats, &c.engine_stats, "engine stats");
        // Both ≡ worklist on the backend contract.
        prop_assert_eq!(&d.outputs, &w.outputs);
        prop_assert_eq!(&d.input_acks, &w.input_acks);
        prop_assert_eq!(
            canonical(d.exec_records.clone()),
            canonical(w.exec_records.clone()),
            "execution records"
        );
        prop_assert_eq!(d.engine_stats.nodes_computed, w.engine_stats.nodes_computed);
        prop_assert_eq!(
            d.engine_stats.iterations_completed,
            w.engine_stats.iterations_completed
        );
        prop_assert_eq!(stats.calls_delta + stats.calls_full, sib_gaps.len() as u64);
    }
}

/// A no-op perturbation (identical architecture, identical trace)
/// propagates zero nodes: every call collapses the frontier to a pure
/// cache replay, and the outcome stays bitwise identical.
#[test]
fn noop_perturbation_collapses_the_frontier() {
    let engine_of = |backend| {
        let p = synthetic::pipeline(3, 120, 2).expect("pipeline builds");
        let relations = p.arch.app().relations().len();
        let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
        derived.map_tdg(|tdg| synthetic::pad(tdg, 8));
        Engine::with_backend(derived, relations, true, backend)
    };
    let arrivals: Vec<Arrival> = (0..40u64)
        .map(|k| Arrival { at: Time::from_ticks(k * 97), size: 1 + (k * 5) % 32 })
        .collect();

    let mut capture = engine_of(EvalBackend::Compiled);
    capture.begin_delta_capture().expect("pipelines are delta-eligible");
    let base = drive_engine(&mut capture, &arrivals);
    let cache = capture.finish_delta_capture();
    assert_eq!(cache.iterations(), arrivals.len(), "every offer captured a row");

    let mut sibling = engine_of(EvalBackend::Compiled);
    sibling.attach_delta_base(cache).expect("identical structure");
    let replay = drive_engine(&mut sibling, &arrivals);
    let stats = sibling.detach_delta();

    assert_eq!(replay, base, "collapse replay is bitwise identical");
    assert_eq!(stats.calls_delta, arrivals.len() as u64, "every call stayed delta");
    assert_eq!(stats.calls_full, 0);
    assert_eq!(stats.nodes_recomputed, 0, "no-op perturbation propagates zero nodes");
    assert_eq!(
        stats.frontier_collapses, stats.calls_delta,
        "every call collapsed the frontier"
    );
    assert!(stats.nodes_reused > 0, "instants were served from the cache");
}

/// A sibling whose trace differs from the base from the first offer on
/// stops diffing: after two offers off the base trace, the first of whose
/// delta sweeps reused no node, every later offer takes the full compiled
/// sweep (counted in `calls_full`), bitwise identical to a plain drive. An
/// identical-trace sibling of the same base still collapses every call.
#[test]
fn diverged_sibling_takes_the_full_sweep() {
    let engine_of = || {
        let p = synthetic::pipeline(8, 60, 1).expect("pipeline builds");
        let relations = p.arch.app().relations().len();
        let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
        derived.map_tdg(|tdg| synthetic::pad(tdg, 64));
        Engine::with_backend(derived, relations, true, EvalBackend::Compiled)
    };
    let trace = |period: u64, salt: u64| -> Vec<Arrival> {
        (0..24u64)
            .map(|k| Arrival {
                at: Time::from_ticks(k * period),
                size: 1 + (k + 1) * salt % 64,
            })
            .collect()
    };
    let base_trace = trace(300, 7);
    let mut capture = engine_of();
    capture
        .begin_delta_capture()
        .expect("pipelines are delta-eligible");
    let base = drive_engine(&mut capture, &base_trace);
    let cache = capture.finish_delta_capture();

    let other = trace(280, 11);
    assert_ne!(other[0], base_trace[0], "the traces diverge at k = 0");
    let mut sibling = engine_of();
    sibling
        .attach_delta_base(cache.clone())
        .expect("identical structure");
    let d = drive_engine(&mut sibling, &other);
    let stats = sibling.detach_delta();
    let c = drive_engine(&mut engine_of(), &other);
    assert_eq!(
        d, c,
        "diverged sibling is bitwise identical to the full sweep"
    );
    assert_eq!(stats.calls_delta + stats.calls_full, other.len() as u64);
    // Offer 0 differs only in size, so its sweep still reuses the nodes
    // that do not read it; offer 1 is off the trace's instants too and its
    // sweep reuses nothing, so offer 2 starts the full sweeps.
    assert_eq!(stats.calls_delta, 2, "{stats:?}");

    let mut twin = engine_of();
    twin.attach_delta_base(cache).expect("identical structure");
    assert_eq!(
        drive_engine(&mut twin, &base_trace),
        base,
        "twin replays the base"
    );
    let stats = twin.detach_delta();
    assert_eq!(
        stats.calls_delta,
        base_trace.len() as u64,
        "every call stayed delta"
    );
    assert_eq!(
        stats.frontier_collapses, stats.calls_delta,
        "every call collapsed"
    );
    assert_eq!(stats.nodes_recomputed, 0);
}

/// Offers beyond the captured range leave the cache and are evaluated
/// fully — counted in `calls_full` — while staying bitwise conformant.
#[test]
fn offers_beyond_the_cache_fall_back_to_full_evaluation() {
    let engine_of = |backend| {
        let p = synthetic::pipeline(2, 80, 1).expect("pipeline builds");
        let relations = p.arch.app().relations().len();
        let derived = derive_tdg(&p.arch).expect("pipeline derives");
        Engine::with_backend(derived, relations, true, backend)
    };
    let short: Vec<Arrival> = (0..10u64)
        .map(|k| Arrival { at: Time::from_ticks(k * 300), size: 1 + k % 7 })
        .collect();
    let long: Vec<Arrival> = (0..25u64)
        .map(|k| Arrival { at: Time::from_ticks(k * 300), size: 1 + k % 7 })
        .collect();

    let mut capture = engine_of(EvalBackend::Compiled);
    capture.begin_delta_capture().expect("pipelines are delta-eligible");
    drive_engine(&mut capture, &short);
    let cache = capture.finish_delta_capture();
    assert_eq!(cache.iterations(), short.len());

    let mut delta_engine = engine_of(EvalBackend::Compiled);
    delta_engine.attach_delta_base(cache).expect("identical structure");
    let d = drive_engine(&mut delta_engine, &long);
    let stats = delta_engine.detach_delta();

    let mut full_engine = engine_of(EvalBackend::Compiled);
    let c = drive_engine(&mut full_engine, &long);

    assert_eq!(d, c, "beyond-cache run is bitwise identical");
    assert_eq!(stats.calls_delta, short.len() as u64, "cached range rode the delta path");
    assert_eq!(
        stats.calls_full,
        (long.len() - short.len()) as u64,
        "uncovered iterations evaluated fully"
    );
}

/// Two external inputs: delta capture and attach both eject with the
/// typed `MultiInput` error, and the graph still evaluates fully and
/// conformantly across backends (the ejection fallback).
#[test]
fn multi_input_graphs_eject_to_full_evaluation() {
    let build = || {
        let mut b = TdgBuilder::new();
        let a = b.add_node("inA", NodeKind::Input { relation: RelationId::from_index(0) });
        let c = b.add_node("inB", NodeKind::Input { relation: RelationId::from_index(1) });
        let m = b.add_node("merge", NodeKind::Padding);
        let o = b.add_node("out", NodeKind::Output { relation: RelationId::from_index(2) });
        b.add_arc(a, m, 0, Weight::constant(40));
        b.add_arc(c, m, 0, Weight::constant(55));
        b.add_arc(m, o, 0, Weight::constant(10));
        b.add_arc(m, m, 1, Weight::constant(5));
        let tdg = b.build().expect("diamond is causal");
        DerivedTdg::new(
            tdg,
            vec![
                evolve_core::SizeRule::External,
                evolve_core::SizeRule::External,
                evolve_core::SizeRule::Derived { from: None, model: evolve_model::SizeModel::Same },
            ],
        )
    };
    let mut engine = Engine::with_backend(build(), 3, true, EvalBackend::Compiled);
    let err = engine.begin_delta_capture().unwrap_err();
    assert_eq!(err, DeltaUnsupported::MultiInput { inputs: 2 });
    assert_eq!(err.reason(), "multi_input");

    // A cache from an eligible graph cannot attach either — same gate.
    let p = synthetic::pipeline(1, 50, 0).expect("pipeline builds");
    let relations = p.arch.app().relations().len();
    let mut donor = Engine::with_backend(
        derive_tdg(&p.arch).expect("pipeline derives"),
        relations,
        true,
        EvalBackend::Compiled,
    );
    donor.begin_delta_capture().expect("single input");
    drive_engine(&mut donor, &[Arrival { at: Time::from_ticks(0), size: 1 }]);
    let cache = donor.finish_delta_capture();
    assert_eq!(
        engine.attach_delta_base(cache).unwrap_err().reason(),
        "multi_input"
    );

    // Full evaluation still conforms: the ejection costs coverage, not
    // correctness.
    let mut worklist = Engine::with_backend(build(), 3, true, EvalBackend::Worklist);
    for k in 0..12u64 {
        engine.set_input(0, k, Time::from_ticks(k * 90), 0);
        engine.set_input(1, k, Time::from_ticks(k * 90 + 30), 0);
        worklist.set_input(0, k, Time::from_ticks(k * 90), 0);
        worklist.set_input(1, k, Time::from_ticks(k * 90 + 30), 0);
        assert_eq!(engine.next_output(0), worklist.next_output(0), "output at k={k}");
    }
    assert_eq!(engine.delta_stats(), DeltaCounters::default(), "no base ever attached");
}

/// Acknowledged outputs and the worklist backend eject with their typed
/// errors and stable reason tags.
#[test]
fn acked_outputs_and_worklist_backend_eject() {
    // Output-acknowledged graph: the ack node mutates completed
    // iterations, so neither capture nor attach is allowed.
    let mut b = TdgBuilder::new();
    let input = b.add_node("in", NodeKind::Input { relation: RelationId::from_index(0) });
    let out = b.add_node("out", NodeKind::Output { relation: RelationId::from_index(1) });
    let ack = b.add_node("ack", NodeKind::OutputAck { relation: RelationId::from_index(1) });
    b.add_arc(input, out, 0, Weight::constant(25));
    b.add_arc(ack, out, 1, Weight::constant(0));
    let tdg = b.build().expect("acked graph is causal");
    let derived = DerivedTdg::new(
        tdg,
        vec![
            evolve_core::SizeRule::External,
            evolve_core::SizeRule::Derived { from: None, model: evolve_model::SizeModel::Same },
        ],
    );
    let mut acked = Engine::with_backend(derived, 2, true, EvalBackend::Compiled);
    let err = acked.begin_delta_capture().unwrap_err();
    assert_eq!(err, DeltaUnsupported::OutputAcks);
    assert_eq!(err.reason(), "output_acks");

    // Worklist backend: delta is a mode of the compiled sweep.
    let p = synthetic::pipeline(2, 60, 1).expect("pipeline builds");
    let relations = p.arch.app().relations().len();
    let mut worklist = Engine::with_backend(
        derive_tdg(&p.arch).expect("pipeline derives"),
        relations,
        true,
        EvalBackend::Worklist,
    );
    let err = worklist.begin_delta_capture().unwrap_err();
    assert_eq!(err, DeltaUnsupported::WorklistBackend);
    assert_eq!(err.reason(), "worklist");
}

/// A structurally different sibling (more stages, or a different
/// observation configuration) cannot attach: the cache has no
/// node-for-node correspondence to diff against.
#[test]
fn structural_mismatch_rejects_the_attach() {
    let engine_of = |stages: usize, record: bool| {
        let p = synthetic::pipeline(stages, 100, 2).expect("pipeline builds");
        let relations = p.arch.app().relations().len();
        let derived = derive_tdg(&p.arch).expect("pipeline derives");
        Engine::with_backend(derived, relations, record, EvalBackend::Compiled)
    };
    let arrivals: Vec<Arrival> =
        (0..6u64).map(|k| Arrival { at: Time::from_ticks(k * 400), size: 1 }).collect();

    let mut capture = engine_of(3, true);
    capture.begin_delta_capture().expect("pipelines are delta-eligible");
    drive_engine(&mut capture, &arrivals);
    let cache = capture.finish_delta_capture();

    // Different schedule: more stages.
    let mut wider = engine_of(4, true);
    let err = wider.attach_delta_base(cache.clone()).unwrap_err();
    assert_eq!(err, DeltaUnsupported::StructureMismatch);
    assert_eq!(err.reason(), "structure_mismatch");

    // Same schedule, different observation replay: also a mismatch, since
    // the collapse fast path replays the base's recorded observations.
    let mut unobserved = engine_of(3, false);
    assert_eq!(
        unobserved.attach_delta_base(cache).unwrap_err().reason(),
        "structure_mismatch"
    );
}
