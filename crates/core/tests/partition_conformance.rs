//! Property test: the partitioned parallel evaluation path against the
//! serial compiled sweep on randomized graphs and scenarios.
//!
//! The partitioned path's contract is stricter than the backend contract:
//! it must be **bitwise identical** to the serial compiled sweep —
//! outputs, input acknowledgments, instant logs, execution records *in
//! emission order* (both walk the same schedule order), and every
//! [`EngineCounters`](evolve_core::obs::EngineCounters) counter, at every
//! worker count.
//!
//! Two generators:
//!
//! 1. **Raw synthetic TDGs** — random DAGs-with-delays (the
//!    `backend_conformance.rs` shape) with `min_nodes: 0`, so even
//!    handful-of-node graphs engage all partitions and every level is a
//!    dense cross-partition frontier — the worst case for the exchange
//!    logic.
//! 2. **Wide padded pipelines** — `synthetic::pipeline` padded through
//!    [`synthetic::pad_wide`], the shape the partitioner is actually
//!    designed for, driven through `drive_engine` boundary semantics.
//!
//! Deterministic tests pin the degenerate configurations (one thread, an
//! engagement threshold larger than the graph), the
//! [`EvalBackend::CompiledParallel`] constructor, engine reuse across
//! [`Engine::reset`], and composition with fast-forward
//! promotion/demotion and delta chaining.

use evolve_core::{
    derive_tdg, synthetic, DerivedTdg, Engine, EvalBackend, FastForward, NodeKind, ParallelConfig,
    Tdg, TdgBuilder, Weight,
};
use evolve_des::Time;
use evolve_explore::drive_engine;
use evolve_model::{Arrival, RelationId};
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

fn engine_for(tdg: &Tdg) -> Engine {
    let derived = DerivedTdg::new(
        tdg.clone(),
        vec![
            evolve_core::SizeRule::External,
            evolve_core::SizeRule::Derived { from: None, model: evolve_model::SizeModel::Same },
        ],
    );
    Engine::with_backend(derived, 2, true, EvalBackend::Compiled)
}

/// A test configuration: engage on any graph size, never pin (the suite
/// runs under the test harness's own thread pool).
fn cfg(threads: usize) -> ParallelConfig {
    ParallelConfig { threads, min_nodes: 0, pin: false }
}

/// The partitioned configurations every generator is checked against.
fn matrix() -> [ParallelConfig; 3] {
    [cfg(2), cfg(3), cfg(4)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn partitioned_sweeps_agree_on_random_tdgs(spec in graph_spec()) {
        let tdg = build(&spec);
        let mut serial = engine_for(&tdg);
        let mut engines: Vec<Engine> = matrix()
            .iter()
            .map(|c| {
                let mut e = engine_for(&tdg);
                e.set_partition(Some(*c));
                e
            })
            .collect();
        for (k, &u) in spec.offers.iter().enumerate() {
            let want = {
                serial.set_input(0, k as u64, Time::from_ticks(u), 0);
                serial.next_output(0)
            };
            for (i, e) in engines.iter_mut().enumerate() {
                e.set_input(0, k as u64, Time::from_ticks(u), 0);
                prop_assert_eq!(e.next_output(0), want, "cfg {} output at k={}", i, k);
            }
        }
        for (i, e) in engines.iter().enumerate() {
            for r in 0..2 {
                prop_assert_eq!(e.instants(r), serial.instants(r), "cfg {} relation {}", i, r);
            }
            prop_assert_eq!(e.exec_records(), serial.exec_records(), "cfg {} records", i);
            prop_assert_eq!(e.stats(), serial.stats(), "cfg {} stats", i);
            let ps = e.partition_stats();
            prop_assert_eq!(
                ps.parallel_iterations + ps.serial_iterations,
                spec.offers.len() as u64,
                "cfg {} accounts for every iteration",
                i
            );
        }
    }

    #[test]
    fn partitioned_sweeps_agree_on_wide_pipelines(
        stages in 1usize..5,
        base in 10u64..200,
        per_unit in 0u64..5,
        padding in 0usize..200,
        chains in 1usize..9,
        offers in proptest::collection::vec((0u64..900, 1u64..64), 2..12),
    ) {
        let p = synthetic::pipeline(stages, base, per_unit).expect("pipeline builds");
        let relations = p.arch.app().relations().len();
        let mut arrivals = Vec::with_capacity(offers.len());
        let mut at = 0u64;
        for &(gap, size) in &offers {
            at += gap;
            arrivals.push(Arrival { at: Time::from_ticks(at), size });
        }
        let engine_of = || {
            let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
            if padding > 0 {
                derived.map_tdg(|tdg| synthetic::pad_wide(tdg, padding, chains));
            }
            Engine::with_backend(derived, relations, true, EvalBackend::Compiled)
        };

        let mut serial = engine_of();
        let want = drive_engine(&mut serial, &arrivals);
        for (i, c) in matrix().iter().enumerate() {
            let mut e = engine_of();
            e.set_partition(Some(*c));
            let got = drive_engine(&mut e, &arrivals);
            prop_assert_eq!(&got.outputs, &want.outputs, "cfg {} Y(k)", i);
            prop_assert_eq!(&got.input_acks, &want.input_acks, "cfg {} acks", i);
            prop_assert_eq!(&got.exec_records, &want.exec_records, "cfg {} record order", i);
            prop_assert_eq!(&got.engine_stats, &want.engine_stats, "cfg {} stats", i);
            prop_assert_eq!(&got.busy_ticks, &want.busy_ticks, "cfg {} busy ticks", i);
            prop_assert_eq!(
                e.partition_stats().parallel_iterations,
                arrivals.len() as u64,
                "cfg {} evaluated every offer in parallel",
                i
            );
        }
    }
}

/// `threads: 1` and a too-high engagement threshold both degrade to the
/// serial sweep: no runtime is built (or no iteration engages), stats
/// stay empty / serial-only, and the outcome is the serial outcome.
#[test]
fn degenerate_configurations_stay_serial() {
    let p = synthetic::pipeline(2, 50, 1).expect("pipeline builds");
    let relations = p.arch.app().relations().len();
    let arrivals: Vec<Arrival> = (0..12u64)
        .map(|k| Arrival { at: Time::from_ticks(k * 151), size: 1 + k % 16 })
        .collect();
    let engine_of = || {
        let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
        derived.map_tdg(|tdg| synthetic::pad_wide(tdg, 64, 4));
        Engine::with_backend(derived, relations, true, EvalBackend::Compiled)
    };

    let mut serial = engine_of();
    let want = drive_engine(&mut serial, &arrivals);

    // One worker: set_partition declines to build a runtime at all.
    let mut one = engine_of();
    one.set_partition(Some(cfg(1)));
    let got = drive_engine(&mut one, &arrivals);
    assert_eq!(got, want);
    assert_eq!(one.partition_stats(), Default::default(), "no runtime, no counters");

    // Engagement threshold above the graph size: the runtime exists but
    // every iteration takes the serial sweep and is counted as such.
    let mut high = engine_of();
    high.set_partition(Some(ParallelConfig { min_nodes: usize::MAX, ..cfg(4) }));
    let got = drive_engine(&mut high, &arrivals);
    assert_eq!(got, want);
    let ps = high.partition_stats();
    assert_eq!(ps.parallel_iterations, 0);
    assert_eq!(ps.serial_iterations, arrivals.len() as u64);

    // Detaching restores the plain compiled path.
    let mut detached = engine_of();
    detached.set_partition(Some(cfg(4)));
    detached.set_partition(None);
    let got = drive_engine(&mut detached, &arrivals);
    assert_eq!(got, want);
    assert_eq!(detached.partition_stats(), Default::default());
}

/// The `CompiledParallel` backend is the compiled backend plus a default
/// partition attach; an explicit `set_partition` overrides the default
/// (host-independent: the default thread count may be 1 on small boxes).
#[test]
fn compiled_parallel_backend_conforms() {
    let p = synthetic::pipeline(3, 70, 2).expect("pipeline builds");
    let relations = p.arch.app().relations().len();
    let arrivals: Vec<Arrival> = (0..16u64)
        .map(|k| Arrival { at: Time::from_ticks(k * 173), size: 1 + (k * 3) % 24 })
        .collect();
    let derived_of = || {
        let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
        derived.map_tdg(|tdg| synthetic::pad_wide(tdg, 96, 4));
        derived
    };

    let mut serial = Engine::with_backend(derived_of(), relations, true, EvalBackend::Compiled);
    let want = drive_engine(&mut serial, &arrivals);

    let mut e = Engine::with_backend(derived_of(), relations, true, EvalBackend::CompiledParallel);
    assert_eq!(e.backend(), EvalBackend::CompiledParallel);
    assert_eq!(e.backend().as_str(), "compiled-parallel");
    e.set_partition(Some(cfg(4)));
    let got = drive_engine(&mut e, &arrivals);
    assert_eq!(got, want);
    assert_eq!(e.partition_stats().parallel_iterations, arrivals.len() as u64);
}

/// Engine reuse: a partitioned engine driven, reset, and driven again on
/// a different trace matches a fresh engine on that trace, and the
/// partition counters restart from zero.
#[test]
fn reset_reuse_matches_a_fresh_engine() {
    let p = synthetic::pipeline(2, 90, 1).expect("pipeline builds");
    let relations = p.arch.app().relations().len();
    let engine_of = || {
        let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
        derived.map_tdg(|tdg| synthetic::pad_wide(tdg, 128, 4));
        let mut e = Engine::with_backend(derived, relations, true, EvalBackend::Compiled);
        e.set_partition(Some(cfg(4)));
        e
    };
    let trace_a: Vec<Arrival> =
        (0..10u64).map(|k| Arrival { at: Time::from_ticks(k * 131), size: 1 + k % 9 }).collect();
    let trace_b: Vec<Arrival> = (0..14u64)
        .map(|k| Arrival { at: Time::from_ticks(k * 257), size: 2 + (k * 5) % 17 })
        .collect();

    let mut reused = engine_of();
    drive_engine(&mut reused, &trace_a);
    reused.reset();
    let got = drive_engine(&mut reused, &trace_b);
    let got_stats = reused.partition_stats();

    let mut fresh = engine_of();
    let want = drive_engine(&mut fresh, &trace_b);
    assert_eq!(got, want, "reset clears all partition scratch");
    assert_eq!(got_stats, fresh.partition_stats(), "counters restart at zero on reset");
}

/// Fast-forward promotion and demotion compose with the partitioned
/// path: replayed offers bypass the sweep identically on both engines,
/// and the post-demotion sweeps conform again.
#[test]
fn fast_forward_composes_with_partitioned_sweeps() {
    let p = synthetic::pipeline(2, 60, 0).expect("pipeline builds");
    let relations = p.arch.app().relations().len();
    // Periodic prefix (promotes), a pattern break (demotes), periodic tail.
    let mut arrivals = Vec::new();
    let mut at = 0u64;
    for k in 0..40u64 {
        at += if k == 25 { 9_137 } else { 400 };
        arrivals.push(Arrival { at: Time::from_ticks(at), size: 8 });
    }
    let engine_of = |partition: Option<ParallelConfig>| {
        let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
        derived.map_tdg(|tdg| synthetic::pad_wide(tdg, 96, 4));
        let mut e = Engine::with_backend(derived, relations, true, EvalBackend::Compiled);
        e.set_fast_forward(FastForward::On);
        e.set_partition(partition);
        e
    };

    let mut serial = engine_of(None);
    let want = drive_engine(&mut serial, &arrivals);
    let want_ff = serial.fast_forward_stats();

    let mut e = engine_of(Some(cfg(4)));
    let got = drive_engine(&mut e, &arrivals);
    assert_eq!(got, want);
    assert_eq!(e.fast_forward_stats(), want_ff, "promotion trajectory");
    let ps = e.partition_stats();
    // Replayed offers never sweep; every remaining iteration does, in
    // parallel.
    assert_eq!(
        ps.parallel_iterations + want_ff.fast_forwarded_iterations,
        want.engine_stats.iterations_completed,
        "every full sweep (and only those) went parallel"
    );
    assert!(ps.parallel_iterations > 0, "post-demotion sweeps engage");
    assert!(want_ff.promotions > 0, "the periodic prefix must promote");
    assert!(want_ff.demotions > 0, "the pattern break must demote");
}

/// Flight-recorder attachment is bitwise invisible: a partitioned engine
/// with a recorder attached matches the detached engine exactly, while
/// the recorder fills with per-worker `sweep` spans under the set
/// correlation id.
#[test]
fn flight_recorder_attachment_is_bitwise_invisible() {
    use evolve_core::obs::{FlightRecorder, PartitionTracer, Phase};
    use std::sync::Arc;

    let engine_of = || {
        let p = synthetic::pipeline(2, 70, 2).expect("pipeline builds");
        let relations = p.arch.app().relations().len();
        let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
        derived.map_tdg(|tdg| synthetic::pad_wide(tdg, 128, 4));
        Engine::with_backend(derived, relations, true, EvalBackend::Compiled)
    };
    let arrivals: Vec<Arrival> = (0..12u64)
        .map(|k| Arrival { at: Time::from_ticks(k * 167), size: 1 + (k * 5) % 21 })
        .collect();

    let mut detached = engine_of();
    detached.set_partition(Some(cfg(3)));
    let want = drive_engine(&mut detached, &arrivals);

    let recorder = Arc::new(FlightRecorder::new(4, 256));
    let tracks: Vec<_> =
        (0..3).map(|p| recorder.register_track(&format!("worker-{p}"))).collect();
    let mut traced = engine_of();
    traced.set_partition(Some(cfg(3)));
    assert!(!traced.flight_attached());
    traced.set_flight_recorder(Some(PartitionTracer {
        recorder: Arc::clone(&recorder),
        tracks,
        corr: 0,
    }));
    assert!(traced.flight_attached());
    traced.set_flight_corr(77);
    let got = drive_engine(&mut traced, &arrivals);
    assert_eq!(got, want, "recorder must be bitwise invisible");

    let spans = recorder.spans();
    let sweeps: Vec<_> = spans.iter().filter(|s| s.phase == Phase::Sweep).collect();
    assert!(!sweeps.is_empty(), "sweeps must be recorded");
    assert!(sweeps.iter().all(|s| s.corr == 77), "corr id stamped");
    let worker_tracks: std::collections::BTreeSet<u16> =
        sweeps.iter().map(|s| s.track).collect();
    assert!(worker_tracks.len() >= 2, "several workers traced");

    // Detaching returns the engine to the recorder-free path.
    traced.set_flight_recorder(None);
    assert!(!traced.flight_attached());
}

/// Delta chaining composes with the partitioned path: a delta-attached
/// sibling with partitioning enabled matches the serial delta sibling
/// bitwise — delta hits run serially (and are counted as such), full
/// fallback calls take the parallel sweep.
#[test]
fn delta_chaining_composes_with_partitioned_sweeps() {
    let engine_of = |base: u64| {
        let p = synthetic::pipeline(2, base, 2).expect("pipeline builds");
        let relations = p.arch.app().relations().len();
        let mut derived = derive_tdg(&p.arch).expect("pipeline derives");
        derived.map_tdg(|tdg| synthetic::pad_wide(tdg, 80, 4));
        Engine::with_backend(derived, relations, true, EvalBackend::Compiled)
    };
    let arrivals: Vec<Arrival> = (0..18u64)
        .map(|k| Arrival { at: Time::from_ticks(k * 149), size: 1 + (k * 7) % 31 })
        .collect();

    let mut capture = engine_of(100);
    capture.begin_delta_capture().expect("pipelines are delta-eligible");
    drive_engine(&mut capture, &arrivals);
    let cache = capture.finish_delta_capture();

    // Perturbed sibling (base load edit), evaluated three ways.
    let mut serial_delta = engine_of(115);
    serial_delta.attach_delta_base(cache.clone()).expect("load edits keep the structure");
    let want = drive_engine(&mut serial_delta, &arrivals);
    let want_delta = serial_delta.detach_delta();

    let mut full = engine_of(115);
    let full_outcome = drive_engine(&mut full, &arrivals);
    assert_eq!(want, full_outcome, "delta reference is sound");

    let mut e = engine_of(115);
    e.attach_delta_base(cache).expect("load edits keep the structure");
    e.set_partition(Some(cfg(4)));
    let got = drive_engine(&mut e, &arrivals);
    let got_delta = e.detach_delta();
    assert_eq!(got, want);
    assert_eq!(got_delta.calls_delta, want_delta.calls_delta, "delta hits");
    assert_eq!(got_delta.calls_full, want_delta.calls_full, "full calls");
    let ps = e.partition_stats();
    assert_eq!(ps.serial_iterations, got_delta.calls_delta, "delta hits run serially");
    assert_eq!(ps.parallel_iterations, got_delta.calls_full, "full fallbacks sweep in parallel");
}
