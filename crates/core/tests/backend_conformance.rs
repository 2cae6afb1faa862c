//! Property test: the compiled (levelized CSR) evaluation backend against
//! the worklist reference backend on randomized graphs and scenarios.
//!
//! Two generators cover the two ways graphs reach the engine:
//!
//! 1. **Raw synthetic TDGs** — random DAGs-with-delays (the shape used by
//!    `engine_reference.rs`), driven input by input; every observable
//!    instant and counter must agree.
//! 2. **Derived pipeline scenarios** — `synthetic::pipeline` architectures
//!    padded with computation-only nodes and driven through the sweep
//!    subsystem's `drive_engine` boundary semantics; outputs, input
//!    acknowledgments, execution records, and `nodes_computed` /
//!    `iterations_completed` must agree.
//!
//! Execution records are compared in a canonical order: the worklist emits
//! them in pop order, the compiled sweep in schedule order, and only the
//! multiset is part of the engine's contract.
//!
//! `generators_reach_every_slot_shape` reads the slot shapes of graphs the
//! two generators produce: every arm of the compiled slot evaluator,
//! the general one included, appears, so the proptests cover each arm.

use evolve_core::{
    derive_tdg, synthetic, DerivedTdg, Engine, EvalBackend, NodeKind, SlotShape, Tdg, TdgBuilder,
    Weight,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn backends_agree_on_random_tdgs(spec in graph_spec()) {
        let tdg = build(&spec);
        let mut compiled = engine_for(&tdg, EvalBackend::Compiled);
        let mut worklist = engine_for(&tdg, EvalBackend::Worklist);
        for (k, &u) in spec.offers.iter().enumerate() {
            compiled.set_input(0, k as u64, Time::from_ticks(u), 0);
            worklist.set_input(0, k as u64, Time::from_ticks(u), 0);
            prop_assert_eq!(
                compiled.next_output(0),
                worklist.next_output(0),
                "output at k={}",
                k
            );
        }
        for r in 0..2 {
            prop_assert_eq!(compiled.instants(r), worklist.instants(r), "relation {}", r);
        }
        let (cs, ws) = (compiled.stats(), worklist.stats());
        prop_assert_eq!(cs.nodes_computed, ws.nodes_computed);
        prop_assert_eq!(cs.iterations_completed, ws.iterations_completed);
    }

    #[test]
    fn backends_agree_on_padded_pipelines(
        stages in 1usize..6,
        base in 10u64..200,
        per_unit in 0u64..5,
        padding in 0usize..48,
        offers in proptest::collection::vec((0u64..900, 1u64..64), 2..16),
    ) {
        let p = synthetic::pipeline(stages, base, per_unit).expect("pipeline builds");
        let relations = p.arch.app().relations().len();
        let mut arrivals = Vec::with_capacity(offers.len());
        let mut at = 0u64;
        for &(gap, size) in &offers {
            at += gap;
            arrivals.push(Arrival { at: Time::from_ticks(at), size });
        }

        let mut outcomes = Vec::new();
        for backend in [EvalBackend::Compiled, EvalBackend::Worklist] {
            let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
            if padding > 0 {
                derived.map_tdg(|tdg| synthetic::pad(tdg, padding));
            }
            let mut engine = Engine::with_backend(derived, relations, true, backend);
            outcomes.push(drive_engine(&mut engine, &arrivals));
        }
        let (c, w) = (&outcomes[0], &outcomes[1]);
        prop_assert_eq!(&c.outputs, &w.outputs, "Y(k)");
        prop_assert_eq!(&c.input_acks, &w.input_acks, "input acks");
        prop_assert_eq!(
            canonical(c.exec_records.clone()),
            canonical(w.exec_records.clone()),
            "execution records"
        );
        prop_assert_eq!(
            c.engine_stats.nodes_computed,
            w.engine_stats.nodes_computed,
            "nodes computed"
        );
        prop_assert_eq!(
            c.engine_stats.iterations_completed,
            w.engine_stats.iterations_completed,
            "iterations completed"
        );
    }
}

/// The didactic chain — realistic derived structure with execution pairs,
/// back-pressure, and data-dependent loads — pinned exactly across
/// backends, including the exec-record multiset.
#[test]
fn backends_agree_on_didactic_chain() {
    for stages in 1..=3usize {
        let d = evolve_model::didactic::chained(stages, evolve_model::didactic::Params::default())
            .unwrap();
        let relations = d.arch.app().relations().len();
        let arrivals: Vec<Arrival> = (0..40u64)
            .map(|k| Arrival { at: Time::from_ticks(k * 333), size: 1 + (k * 7) % 61 })
            .collect();
        let mut outcomes = Vec::new();
        for backend in [EvalBackend::Compiled, EvalBackend::Worklist] {
            let derived = derive_tdg(&d.arch).unwrap();
            let mut engine = Engine::with_backend(derived, relations, true, backend);
            outcomes.push(drive_engine(&mut engine, &arrivals));
        }
        let (c, w) = (&outcomes[0], &outcomes[1]);
        assert_eq!(c.outputs, w.outputs, "stages={stages}");
        assert_eq!(c.input_acks, w.input_acks, "stages={stages}");
        assert_eq!(
            canonical(c.exec_records.clone()),
            canonical(w.exec_records.clone()),
            "stages={stages}"
        );
        assert_eq!(c.engine_stats.nodes_computed, w.engine_stats.nodes_computed);
        assert_eq!(c.engine_stats.iterations_completed, w.engine_stats.iterations_completed);
    }
}

/// The slot shapes a compiled engine folds: every slot but the inputs',
/// which the offers set.
fn folded_shapes(engine: &Engine) -> impl Iterator<Item = SlotShape> + '_ {
    let compiled = engine.compiled_tdg().expect("compiled backend");
    compiled
        .slot_shapes()
        .filter(|&(node, _)| {
            !matches!(
                engine.tdg().nodes()[node.index()].kind,
                NodeKind::Input { .. }
            )
        })
        .map(|(_, shape)| shape)
}

/// Every arm of the slot evaluator, the general one included, appears in
/// the graphs the two proptests above draw. Generation is deterministic
/// (the runner seeds each test by its name), so running a proptest's
/// strategy under its name redraws exactly its cases: the random DAGs
/// give the multi-arc constant shapes and the general arm, the padded
/// pipelines the exec and slow-arc shapes.
#[test]
fn proptests_reach_every_slot_shape() {
    use proptest::test_runner::TestRunner;
    let mut seen = std::collections::HashSet::new();
    let config = || ProptestConfig::with_cases(128);
    TestRunner::new_with_name(config(), "backends_agree_on_random_tdgs").run(
        &(graph_spec(),),
        |(spec,)| {
            seen.extend(folded_shapes(&engine_for(
                &build(&spec),
                EvalBackend::Compiled,
            )));
            Ok(())
        },
    );
    // `backends_agree_on_padded_pipelines`' strategies, in its order.
    let pipelines = (
        1usize..6,
        10u64..200,
        0u64..5,
        0usize..48,
        proptest::collection::vec((0u64..900, 1u64..64), 2..16),
    );
    TestRunner::new_with_name(config(), "backends_agree_on_padded_pipelines").run(
        &pipelines,
        |(stages, base, per_unit, padding, _offers)| {
            let p = synthetic::pipeline(stages, base, per_unit).expect("pipeline builds");
            let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
            if padding > 0 {
                derived.map_tdg(|tdg| synthetic::pad(tdg, padding));
            }
            let relations = p.arch.app().relations().len();
            let engine = Engine::with_backend(derived, relations, true, EvalBackend::Compiled);
            seen.extend(folded_shapes(&engine));
            Ok(())
        },
    );
    use SlotShape::*;
    for shape in [Const1, Const2, Exec1, Slow1Const1, General] {
        assert!(
            seen.contains(&shape),
            "no proptest graph has a {shape:?} slot"
        );
    }
}
