//! Property test: the batched lockstep engine against the scalar compiled
//! and worklist backends on randomized graphs and scenarios.
//!
//! Three layers of coverage:
//!
//! 1. **Raw synthetic TDGs** — random DAGs-with-delays driven through
//!    `set_input_batch` at widths straddling the fold kernel's 8-lane
//!    chunk (1, 3, 7, 9, 15, 16, 33) with mixed-length,
//!    per-lane-shifted offer sequences; every lane's observable instants,
//!    outputs, and counters must be bitwise identical to a scalar engine
//!    driven with that lane's trace alone (full [`EngineCounters`] equality
//!    against the compiled backend, node/iteration counters against the
//!    worklist reference).
//! 2. **Derived padded pipelines** — `synthetic::pipeline` architectures
//!    driven through the sweep subsystem's `drive_batch` boundary
//!    semantics with mixed-length lanes, against per-lane `drive_engine`
//!    runs on both scalar backends.
//! 3. **The ejection path** — graphs the batch gate rejects (multi-input)
//!    must fall back to a scalar engine that still agrees with the
//!    worklist reference, so ejecting a lane can never change results; the
//!    delta-chaining gate mirrors the same rejection on the same graph.
//! 4. **Delta × batching** — a sweep grid where lockstep lanes and delta
//!    chains both engage must stay bitwise identical to the plain scalar
//!    sweep, with the batching ledger untouched by delta chaining.
//!
//! Execution records are compared as canonical multisets: the batched
//! sweep replays them in schedule order, the scalar worklist in pop order,
//! and only the multiset is part of the engine's contract.
//!
//! `inputs_reach_every_slot_shape_at_both_kernel_widths` reads the slot
//! shapes of the graphs these suites draw: every arm of the batched slot
//! walk, the general one included, appears, and the widths straddle the
//! fold kernel's chunk, so each arm runs on both kernel paths.

use evolve_core::obs::EngineCounters;
use evolve_core::{
    derive_tdg, kernel, synthetic, BatchUnsupported, BatchedEngine, DerivedTdg, Engine,
    EvalBackend, NodeKind, SlotShape, Tdg, TdgBuilder, Weight,
};
use evolve_des::Time;
use evolve_explore::{drive_batch, drive_engine, ScenarioOutcome};
use evolve_model::{Arrival, ExecRecord, RelationId};
use proptest::prelude::*;

// Widths deliberately straddle the fold kernel's 8-lane chunk: below one
// chunk (per-element path), non-multiples with padded tails (9, 15, 33),
// and an exact multiple (16) — see `evolve_core::kernel`.
const WIDTHS: [usize; 7] = [1, 3, 7, 9, 15, 16, 33];
const MAX_WIDTH: usize = 33;

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

fn derived_for(tdg: &Tdg) -> DerivedTdg {
    DerivedTdg::new(
        tdg.clone(),
        vec![
            evolve_core::SizeRule::External,
            evolve_core::SizeRule::Derived { from: None, model: evolve_model::SizeModel::Same },
        ],
    )
}

fn engine_for(tdg: &Tdg, backend: EvalBackend) -> Engine {
    Engine::with_backend(derived_for(tdg), 2, true, backend)
}

/// Lane `l`'s offer sequence: the base offers shifted by a per-lane phase
/// and truncated to a per-lane length, so lanes end at different lockstep
/// iterations (the mixed-length case).
fn lane_offers(base: &[u64], lane: usize) -> Vec<u64> {
    let len = (base.len() - lane % base.len()).max(1);
    base[..len].iter().map(|&u| u + 37 * lane as u64).collect()
}

/// Execution records in a scheduling-independent canonical order.
fn canonical(mut records: Vec<ExecRecord>) -> Vec<ExecRecord> {
    records.sort_by_key(|r| (r.start, r.resource, r.function, r.stmt, r.k));
    records
}

/// Stats with the batching-only counters cleared, for comparing a batched
/// lane view against a scalar engine.
fn scalar_view(mut stats: EngineCounters) -> EngineCounters {
    stats.lanes_evaluated = 0;
    stats.batched_iterations = 0;
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batched_lanes_agree_on_random_tdgs(spec in graph_spec()) {
        let tdg = build(&spec);

        // Scalar references, one per lane variant (lane traces only depend
        // on the lane index, not the batch width).
        type LaneRef = (Vec<Option<(u64, Time, u64)>>, Engine, Engine);
        let mut scalar: Vec<LaneRef> = Vec::new();
        for lane in 0..MAX_WIDTH {
            let offers = lane_offers(&spec.offers, lane);
            let mut compiled = engine_for(&tdg, EvalBackend::Compiled);
            let mut worklist = engine_for(&tdg, EvalBackend::Worklist);
            let mut outputs = Vec::new();
            for (k, &u) in offers.iter().enumerate() {
                compiled.set_input(0, k as u64, Time::from_ticks(u), 0);
                worklist.set_input(0, k as u64, Time::from_ticks(u), 0);
                let out = compiled.next_output(0);
                prop_assert_eq!(out, worklist.next_output(0), "scalar backends at k={}", k);
                outputs.push(out);
            }
            scalar.push((outputs, compiled, worklist));
        }

        for width in WIDTHS {
            let lanes: Vec<Vec<u64>> = (0..width).map(|l| lane_offers(&spec.offers, l)).collect();
            let steps = lanes.iter().map(|o| o.len()).max().unwrap();
            let mut batch = BatchedEngine::try_new(derived_for(&tdg), 2, true, width)
                .expect("single-input constant-weight DAGs are batchable");
            let mut outputs: Vec<Vec<Option<(u64, Time, u64)>>> = vec![Vec::new(); width];
            let mut offers = vec![None; width];
            for k in 0..steps {
                for (l, lane) in lanes.iter().enumerate() {
                    offers[l] = lane.get(k).map(|&u| (Time::from_ticks(u), 0));
                }
                batch.set_input_batch(k as u64, &offers);
                for (l, offer) in offers.iter().enumerate() {
                    if offer.is_some() {
                        outputs[l].push(batch.next_output(l, 0));
                    }
                }
            }
            for l in 0..width {
                let (ref_outputs, compiled, worklist) = &scalar[l];
                prop_assert_eq!(&outputs[l], ref_outputs, "width={} lane={}", width, l);
                for r in 0..2 {
                    prop_assert_eq!(
                        batch.instants(l, r),
                        compiled.instants(r),
                        "width={} lane={} relation={}",
                        width, l, r
                    );
                }
                // Full counter equality against the scalar compiled engine;
                // the worklist evaluates arcs on demand, so only the
                // node/iteration counters are comparable there.
                prop_assert_eq!(
                    scalar_view(batch.lane_stats(l)),
                    compiled.stats(),
                    "width={} lane={}",
                    width, l
                );
                prop_assert_eq!(batch.lane_stats(l).nodes_computed, worklist.stats().nodes_computed);
                prop_assert_eq!(
                    batch.lane_stats(l).iterations_completed,
                    worklist.stats().iterations_completed
                );
            }
            prop_assert_eq!(batch.stats().lanes_evaluated, width as u64);
            prop_assert_eq!(batch.stats().batched_iterations, steps as u64);
        }
    }

    #[test]
    fn batched_lanes_agree_on_padded_pipelines(
        stages in 1usize..5,
        base in 10u64..200,
        per_unit in 0u64..5,
        padding in 0usize..32,
        offers in proptest::collection::vec((0u64..900, 1u64..64), 2..12),
    ) {
        let p = synthetic::pipeline(stages, base, per_unit).expect("pipeline builds");
        let relations = p.arch.app().relations().len();

        // Lane variants: shifted arrival phases, rotated sizes, truncated
        // lengths — every lane is a genuinely different scenario.
        let lane_arrivals = |lane: usize| -> Vec<Arrival> {
            let len = (offers.len() - lane % offers.len()).max(1);
            let mut at = 0u64;
            offers[..len]
                .iter()
                .map(|&(gap, size)| {
                    at += gap + 11 * lane as u64;
                    Arrival {
                        at: Time::from_ticks(at),
                        size: 1 + (size + 5 * lane as u64) % 64,
                    }
                })
                .collect()
        };

        let mut scalar: Vec<(ScenarioOutcome, ScenarioOutcome)> = Vec::new();
        for lane in 0..MAX_WIDTH {
            let arrivals = lane_arrivals(lane);
            let mut per_backend = Vec::new();
            for backend in [EvalBackend::Compiled, EvalBackend::Worklist] {
                let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
                if padding > 0 {
                    derived.map_tdg(|tdg| synthetic::pad(tdg, padding));
                }
                let mut engine = Engine::with_backend(derived, relations, true, backend);
                per_backend.push(drive_engine(&mut engine, &arrivals));
            }
            let worklist = per_backend.pop().unwrap();
            let compiled = per_backend.pop().unwrap();
            scalar.push((compiled, worklist));
        }

        for width in WIDTHS {
            let traces: Vec<Vec<Arrival>> = (0..width).map(&lane_arrivals).collect();
            let slices: Vec<&[Arrival]> = traces.iter().map(|t| t.as_slice()).collect();
            let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
            if padding > 0 {
                derived.map_tdg(|tdg| synthetic::pad(tdg, padding));
            }
            let mut batch = BatchedEngine::try_new(derived, relations, true, width)
                .expect("pipelines are batchable");
            let outcomes = drive_batch(&mut batch, &slices);
            for (l, outcome) in outcomes.iter().enumerate() {
                let (compiled, worklist) = &scalar[l];
                prop_assert_eq!(&outcome.outputs, &compiled.outputs, "width={} lane={}", width, l);
                prop_assert_eq!(&outcome.input_acks, &compiled.input_acks, "width={} lane={}", width, l);
                prop_assert_eq!(
                    canonical(outcome.exec_records.clone()),
                    canonical(compiled.exec_records.clone()),
                    "width={} lane={} exec records",
                    width, l
                );
                prop_assert_eq!(
                    scalar_view(outcome.engine_stats),
                    compiled.engine_stats,
                    "width={} lane={} counters",
                    width, l
                );
                prop_assert_eq!(&outcome.outputs, &worklist.outputs);
                prop_assert_eq!(
                    canonical(outcome.exec_records.clone()),
                    canonical(worklist.exec_records.clone())
                );
                prop_assert_eq!(
                    outcome.engine_stats.nodes_computed,
                    worklist.engine_stats.nodes_computed
                );
                prop_assert_eq!(
                    outcome.engine_stats.iterations_completed,
                    worklist.engine_stats.iterations_completed
                );
                prop_assert_eq!(outcome.boundary_events, compiled.boundary_events);
            }
        }
    }
}

/// The ejection path: a two-input graph is rejected by the batch gate with
/// a stable reason, and the scalar engine the lane falls back to still
/// matches the worklist reference bit for bit.
#[test]
fn ejected_lanes_fall_back_to_conforming_scalar_engines() {
    let mut b = TdgBuilder::new();
    let in_a = b.add_node("inA", NodeKind::Input { relation: RelationId::from_index(0) });
    let in_b = b.add_node("inB", NodeKind::Input { relation: RelationId::from_index(1) });
    let mid = b.add_node("mid", NodeKind::Padding);
    let out = b.add_node("out", NodeKind::Output { relation: RelationId::from_index(2) });
    b.add_arc(in_a, mid, 0, Weight::constant(40));
    b.add_arc(in_b, mid, 0, Weight::constant(60));
    b.add_arc(mid, out, 0, Weight::constant(10));
    b.add_arc(out, mid, 1, Weight::constant(5));
    let tdg = b.build().expect("two-input diamond builds");
    let rules = vec![
        evolve_core::SizeRule::External,
        evolve_core::SizeRule::External,
        evolve_core::SizeRule::Derived { from: None, model: evolve_model::SizeModel::Same },
    ];

    let err = BatchedEngine::try_new(DerivedTdg::new(tdg.clone(), rules.clone()), 3, true, 4)
        .expect_err("two inputs cannot run in lockstep lanes");
    assert!(matches!(err, BatchUnsupported::MultiInput { inputs: 2 }));
    assert_eq!(err.reason(), "multi_input");

    // The delta gate mirrors the batch gate on the same graph: the same
    // perturbation family that cannot run in lockstep lanes cannot be
    // delta-chained either, and reports the same stable reason.
    let mut gated = Engine::with_backend(
        DerivedTdg::new(tdg.clone(), rules.clone()),
        3,
        true,
        EvalBackend::Compiled,
    );
    let delta_err = gated.begin_delta_capture().expect_err("two inputs cannot delta-chain");
    assert!(matches!(delta_err, evolve_core::DeltaUnsupported::MultiInput { inputs: 2 }));
    assert_eq!(delta_err.reason(), "multi_input");

    // The fallback pair: scalar compiled vs worklist on the same drive.
    let mut compiled =
        Engine::with_backend(DerivedTdg::new(tdg.clone(), rules.clone()), 3, true, EvalBackend::Compiled);
    let mut worklist =
        Engine::with_backend(DerivedTdg::new(tdg, rules), 3, true, EvalBackend::Worklist);
    for k in 0..12u64 {
        for engine in [&mut compiled, &mut worklist] {
            engine.set_input(0, k, Time::from_ticks(k * 100), 8);
            engine.set_input(1, k, Time::from_ticks(k * 100 + 30), 8);
        }
        assert_eq!(compiled.next_output(0), worklist.next_output(0), "k={k}");
    }
    for r in 0..3 {
        assert_eq!(compiled.instants(r), worklist.instants(r), "relation {r}");
    }
    assert_eq!(compiled.stats().nodes_computed, worklist.stats().nodes_computed);
    assert_eq!(compiled.stats().iterations_completed, worklist.stats().iterations_completed);
}

/// Delta × batching matrix at the sweep level: a grid mixing same-spec
/// groups (which the planner batches into lockstep lanes) with a
/// cross-spec sibling family (which the planner delta-chains from the
/// batch leftovers) must produce bitwise-identical outcomes with delta
/// chaining on, off, and fully unbatched — while both mechanisms actually
/// engage and the batching ledger stays byte-for-byte unchanged by delta.
#[test]
fn delta_chains_compose_with_batched_lanes_in_sweeps() {
    use evolve_explore::{run_sweep, ModelKind, ModelSpec, ScenarioSpec, SweepConfig};

    let scenario = |label: &str, kind: ModelKind, backend: EvalBackend, seed: u64| ScenarioSpec {
        label: label.to_string(),
        model: ModelSpec { kind, padding: 0, backend },
        trace: evolve_explore::TraceSpec {
            tokens: 30,
            min_size: 1,
            max_size: 48,
            mean_period: 400,
            seed,
        },
    };
    let mut grid = Vec::new();
    // Three scenarios of one exact spec: a lockstep pair plus a leftover
    // the batch planner hands back as a single lane.
    for i in 0..3u64 {
        grid.push(scenario(
            &format!("batched-{i}"),
            ModelKind::Pipeline { stages: 3, base: 100, per_unit: 2 },
            EvalBackend::Compiled,
            0x90 + i,
        ));
    }
    // Two load-perturbed siblings of the same family shape: together with
    // the leftover they form a three-member delta chain.
    grid.push(scenario(
        "sibling-a",
        ModelKind::Pipeline { stages: 3, base: 130, per_unit: 2 },
        EvalBackend::Compiled,
        0xa0,
    ));
    grid.push(scenario(
        "sibling-b",
        ModelKind::Pipeline { stages: 3, base: 160, per_unit: 2 },
        EvalBackend::Compiled,
        0xa1,
    ));
    // A worklist straggler: family-ineligible, must stay on the plain
    // scalar path under every configuration.
    grid.push(scenario(
        "worklist",
        ModelKind::Didactic { stages: 1 },
        EvalBackend::Worklist,
        0xb0,
    ));

    let run = |batch_width: usize, delta: bool, threads: usize| {
        run_sweep(
            &grid,
            &SweepConfig { threads, batch_width, delta, ..SweepConfig::default() },
        )
    };
    let both = run(2, true, 2);
    let batch_only = run(2, false, 2);
    let plain = run(1, false, 1);

    assert!(both.batching.lanes_batched >= 2, "lockstep lanes engaged: {:?}", both.batching);
    assert!(both.delta.chains_formed >= 1, "a sibling chain formed: {:?}", both.delta);
    assert!(both.delta.lanes_delta >= 2, "siblings rode the delta path: {:?}", both.delta);
    let ejected = both.delta.eject_multi_input
        + both.delta.eject_output_acks
        + both.delta.eject_worklist
        + both.delta.eject_structure_mismatch;
    assert_eq!(ejected, 0, "nothing in this grid ejects: {:?}", both.delta);
    assert_eq!(both.batching, batch_only.batching, "delta leaves the batching ledger alone");

    for (a, b) in both.scenarios.iter().zip(&batch_only.scenarios) {
        assert_eq!(a.outcome, b.outcome, "{}: delta on vs off", a.label);
    }
    for (a, p) in both.scenarios.iter().zip(&plain.scenarios) {
        assert_eq!(a.outcome, p.outcome, "{}: batched+delta vs plain", a.label);
    }
}

/// Padded-tail chunks with mixed live/ended lanes: widths just above a
/// chunk multiple, lane traces staggered so the final chunk carries both
/// active lanes and lanes that stopped offering iterations ago. Outcomes
/// must stay bitwise identical to the scalar sweep on the plain compiled
/// path, under fast-forward promotion, and with delta chaining engaged.
#[test]
fn tail_chunk_mixed_lane_endings_stay_bitwise() {
    use evolve_core::FastForward;
    use evolve_explore::{run_sweep, ModelKind, ModelSpec, ScenarioSpec, SweepConfig, TraceSpec};

    for width in [9usize, 15] {
        // Constant sizes + saturating offers settle periodic, so the
        // fast-forward run actually promotes; staggered token counts end
        // lanes at different lockstep iterations inside the tail chunk.
        let scenarios: Vec<ScenarioSpec> = (0..width)
            .map(|i| ScenarioSpec {
                label: format!("tail-{width}-{i}"),
                model: ModelSpec {
                    kind: ModelKind::Pipeline { stages: 3, base: 50, per_unit: 2 },
                    padding: 0,
                    backend: EvalBackend::Compiled,
                },
                trace: TraceSpec {
                    tokens: 120 - 8 * i as u64,
                    min_size: 8,
                    max_size: 8,
                    mean_period: 0,
                    seed: i as u64,
                },
            })
            .collect();
        let scalar = run_sweep(
            &scenarios,
            &SweepConfig {
                threads: 1,
                batch_width: 1,
                delta: false,
                fast_forward: FastForward::Off,
                ..SweepConfig::default()
            },
        );
        let batched = run_sweep(
            &scenarios,
            &SweepConfig {
                threads: 1,
                batch_width: width,
                delta: false,
                fast_forward: FastForward::Off,
                ..SweepConfig::default()
            },
        );
        // Fast-forward on and delta chaining on: both layers engage on
        // this grid and must still agree bitwise.
        let promoted = run_sweep(
            &scenarios,
            &SweepConfig { threads: 1, batch_width: width, ..SweepConfig::default() },
        );
        assert_eq!(batched.batching.lanes_batched, width as u64, "one full-width batch forms");
        assert!(
            batched.batching.kernel_chunked_sweeps > 0,
            "padded width {width} takes the chunked kernel: {:?}",
            batched.batching
        );
        assert!(
            promoted.total_fast_forward_stats().promotions > 0,
            "saturating constant-size lanes promote"
        );
        for (a, b) in scalar.scenarios.iter().zip(&batched.scenarios) {
            assert_eq!(a.outcome, b.outcome, "{}: scalar vs batched", a.label);
        }
        for (a, b) in scalar.scenarios.iter().zip(&promoted.scenarios) {
            assert_eq!(a.outcome, b.outcome, "{}: scalar vs batched+ff+delta", a.label);
        }
    }
}

/// The didactic chain at every width, driven through the sweep boundary
/// semantics — the realistic derived structure with execution pairs,
/// back-pressure, and data-dependent loads.
#[test]
fn batched_lanes_agree_on_didactic_chains() {
    for stages in 1..=2usize {
        let d = evolve_model::didactic::chained(stages, evolve_model::didactic::Params::default())
            .unwrap();
        let relations = d.arch.app().relations().len();
        let lane_arrivals = |lane: usize| -> Vec<Arrival> {
            (0..30u64 - (lane as u64 % 29))
                .map(|k| Arrival {
                    at: Time::from_ticks(k * (250 + 40 * lane as u64)),
                    size: 1 + (k * 7 + lane as u64) % 61,
                })
                .collect()
        };
        for width in WIDTHS {
            let traces: Vec<Vec<Arrival>> = (0..width).map(&lane_arrivals).collect();
            let slices: Vec<&[Arrival]> = traces.iter().map(|t| t.as_slice()).collect();
            let mut batch =
                BatchedEngine::try_new(derive_tdg(&d.arch).unwrap(), relations, true, width)
                    .expect("didactic chains are batchable");
            let outcomes = drive_batch(&mut batch, &slices);
            for (l, outcome) in outcomes.iter().enumerate() {
                let mut engine = Engine::with_backend(
                    derive_tdg(&d.arch).unwrap(),
                    relations,
                    true,
                    EvalBackend::Compiled,
                );
                let reference = drive_engine(&mut engine, &traces[l]);
                assert_eq!(outcome.outputs, reference.outputs, "stages={stages} width={width} lane={l}");
                assert_eq!(outcome.input_acks, reference.input_acks);
                assert_eq!(
                    canonical(outcome.exec_records.clone()),
                    canonical(reference.exec_records.clone()),
                    "stages={stages} width={width} lane={l}"
                );
                assert_eq!(scalar_view(outcome.engine_stats), reference.engine_stats);
            }
        }
    }
}

/// The slot shapes a batched engine folds: every slot but the input's,
/// which the offers set.
fn folded_shapes(batch: &BatchedEngine) -> Vec<SlotShape> {
    batch
        .compiled_tdg()
        .slot_shapes()
        .filter(|&(node, _)| {
            !matches!(batch.tdg().nodes()[node.index()].kind, NodeKind::Input { .. })
        })
        .map(|(_, shape)| shape)
        .collect()
}

/// Every arm of the batched sweep's slot walk, the general one included,
/// appears in the graphs the suites above draw, and their widths fall on
/// both sides of the fold kernel's chunk: each arm is pinned on the
/// per-element and on the chunked kernels. Generation is deterministic
/// (the runner seeds each test by its name), so running a proptest's
/// strategy under its name redraws exactly its cases: the random DAGs give
/// the multi-arc constant shapes and the general arm, the padded pipelines
/// and didactic chains the exec and slow-arc shapes.
#[test]
fn inputs_reach_every_slot_shape_at_both_kernel_widths() {
    use proptest::test_runner::TestRunner;
    let mut seen = std::collections::HashSet::new();
    let config = || ProptestConfig::with_cases(96);
    TestRunner::new_with_name(config(), "batched_lanes_agree_on_random_tdgs").run(
        &(graph_spec(),),
        |(spec,)| {
            let batch = BatchedEngine::try_new(derived_for(&build(&spec)), 2, true, 1)
                .expect("single-input constant-weight DAGs are batchable");
            seen.extend(folded_shapes(&batch));
            Ok(())
        },
    );
    // `batched_lanes_agree_on_padded_pipelines`' strategies, in its order.
    let pipelines = (
        1usize..5,
        10u64..200,
        0u64..5,
        0usize..32,
        proptest::collection::vec((0u64..900, 1u64..64), 2..12),
    );
    TestRunner::new_with_name(config(), "batched_lanes_agree_on_padded_pipelines").run(
        &pipelines,
        |(stages, base, per_unit, padding, _offers)| {
            let p = synthetic::pipeline(stages, base, per_unit).expect("pipeline builds");
            let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
            if padding > 0 {
                derived.map_tdg(|tdg| synthetic::pad(tdg, padding));
            }
            let relations = p.arch.app().relations().len();
            let batch = BatchedEngine::try_new(derived, relations, true, 1)
                .expect("pipelines are batchable");
            seen.extend(folded_shapes(&batch));
            Ok(())
        },
    );
    // `batched_lanes_agree_on_didactic_chains`' models.
    for stages in 1..=2usize {
        let d = evolve_model::didactic::chained(stages, evolve_model::didactic::Params::default())
            .unwrap();
        let relations = d.arch.app().relations().len();
        let batch = BatchedEngine::try_new(derive_tdg(&d.arch).unwrap(), relations, true, 1)
            .expect("didactic chains are batchable");
        seen.extend(folded_shapes(&batch));
    }
    use SlotShape::*;
    for shape in [Const1, Const2, Exec1, Slow1Const1, General] {
        assert!(seen.contains(&shape), "no batched input has a {shape:?} slot");
    }
    let chunked = |w: usize| kernel::is_chunked(kernel::lane_stride(w));
    assert!(WIDTHS.iter().any(|&w| !chunked(w)), "a width below the chunk: {WIDTHS:?}");
    assert!(WIDTHS.iter().any(|&w| chunked(w)), "a chunked width: {WIDTHS:?}");
}
