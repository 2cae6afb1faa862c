//! Engine reuse: determinism of `Engine::reset` and allocation stability.
//!
//! The sweep subsystem reuses one engine per model across many traces.
//! These tests pin the contract that makes that safe — for both evaluation
//! backends: a reset engine is observationally identical to a fresh one
//! (same instants, same records, same statistics), and repeated
//! reset+drive cycles do not grow any of the engine's amortized
//! allocations, including the compiled backend's CSR buffers.

use evolve_core::{derive_tdg, AllocationFootprint, Engine, EvalBackend};
use evolve_des::Time;
use evolve_explore::{run_sweep, ModelKind, ModelSpec, ScenarioSpec, SweepConfig, TraceSpec};
use evolve_model::didactic;

const BACKENDS: [EvalBackend; 2] = [EvalBackend::Compiled, EvalBackend::Worklist];

/// Everything observable from one trace: outputs `(k, y, size)`, input
/// acknowledgment ticks, and the engine counters.
type TraceArtifacts = (Vec<(u64, u64, u64)>, Vec<u64>, Vec<u64>);

/// Drives the single-input didactic engine through a fixed trace,
/// returning every observable artefact.
fn drive_trace(engine: &mut Engine) -> TraceArtifacts {
    let mut outputs = Vec::new();
    let mut acks = Vec::new();
    let mut prev_ack: Option<Time> = None;
    for k in 0..64u64 {
        let arrival = Time::from_ticks(k * 700);
        let offer = prev_ack.filter(|&a| a > arrival).unwrap_or(arrival);
        engine.set_input(0, k, offer, 1 + (k * 13) % 50);
        while let Some((ok, y, size)) = engine.next_output(0) {
            if engine.needs_output_ack(0) {
                engine.set_output_ack(0, ok, y);
            }
            outputs.push((ok, y.ticks(), size));
        }
        let ack = engine.ack_instant(0, k).expect("didactic acks resolve");
        acks.push(ack.ticks());
        prev_ack = Some(ack);
        engine.drain_notifications();
    }
    let stats = engine.stats();
    (
        outputs,
        acks,
        vec![stats.nodes_computed, stats.arcs_evaluated, stats.iterations_completed],
    )
}

fn fresh_engine(backend: EvalBackend) -> Engine {
    let d = didactic::chained(2, didactic::Params::default()).unwrap();
    let relations = d.arch.app().relations().len();
    Engine::with_backend(derive_tdg(&d.arch).unwrap(), relations, true, backend)
}

#[test]
fn reset_engine_replays_identically() {
    for backend in BACKENDS {
        let mut engine = fresh_engine(backend);
        let first = drive_trace(&mut engine);
        engine.reset();
        let second = drive_trace(&mut engine);
        assert_eq!(
            first, second,
            "a reset {backend} engine must replay the trace bitwise"
        );
    }
}

#[test]
fn reset_clears_statistics_and_logs() {
    for backend in BACKENDS {
        let mut engine = fresh_engine(backend);
        let _ = drive_trace(&mut engine);
        assert!(engine.stats().iterations_completed > 0);
        assert!(!engine.exec_records().is_empty());
        engine.reset();
        assert_eq!(engine.stats(), Default::default(), "counters restart at zero");
        assert!(engine.exec_records().is_empty(), "observation logs clear");
        assert_eq!(engine.iterations_in_flight(), 0, "no live iterations");
        let relations = (0..engine.tdg().node_count()).take(1); // at least relation 0 exists
        for r in relations {
            assert!(engine.instants(r).is_empty(), "instant log {r} cleared");
        }
    }
}

#[test]
fn repeated_reset_cycles_do_not_grow_allocations() {
    for backend in BACKENDS {
        let mut engine = fresh_engine(backend);
        // Warm-up: let ring buffers, free lists, and worklists reach their
        // steady-state capacities.
        for _ in 0..3 {
            let _ = drive_trace(&mut engine);
            engine.reset();
        }
        let warm: AllocationFootprint = engine.allocation_footprint();
        assert_eq!(
            warm.compiled_elements > 0,
            backend == EvalBackend::Compiled,
            "compiled buffers accounted for exactly on the compiled backend"
        );
        for cycle in 0..20 {
            let _ = drive_trace(&mut engine);
            engine.reset();
            assert_eq!(
                engine.allocation_footprint(),
                warm,
                "{backend} allocation footprint grew at cycle {cycle}"
            );
        }
    }
}

#[test]
fn batched_reset_cycles_keep_padded_footprint_stable() {
    use evolve_core::BatchedEngine;
    // Width 9 pads accumulator rows to stride 16, so the footprint carries
    // a non-zero padding account that must stay constant across cycles.
    let d = didactic::chained(2, didactic::Params::default()).unwrap();
    let relations = d.arch.app().relations().len();
    let lanes = 9usize;
    let mut batch = BatchedEngine::try_new(derive_tdg(&d.arch).unwrap(), relations, true, lanes)
        .expect("didactic chain batches");
    let drive = |batch: &mut BatchedEngine| {
        for k in 0..48u64 {
            let offers: Vec<Option<(Time, u64)>> = (0..lanes)
                .map(|l| Some((Time::from_ticks(k * 500 + l as u64), 1 + (k + l as u64) % 32)))
                .collect();
            batch.set_input_batch(k, &offers);
            for l in 0..lanes {
                while batch.next_output(l, 0).is_some() {}
            }
        }
    };
    for _ in 0..3 {
        drive(&mut batch);
        batch.reset(lanes);
    }
    let warm: AllocationFootprint = batch.allocation_footprint();
    assert!(warm.lane_padding_elements > 0, "padded tails must be accounted");
    assert!(warm.lane_state_elements > warm.lane_padding_elements);
    for cycle in 0..10 {
        drive(&mut batch);
        batch.reset(lanes);
        assert_eq!(
            batch.allocation_footprint(),
            warm,
            "batched allocation footprint grew at cycle {cycle}"
        );
    }
}

#[test]
fn same_scenario_on_two_workers_is_identical() {
    for backend in BACKENDS {
        let scenario = ScenarioSpec {
            label: format!("twin-{backend}"),
            model: ModelSpec { kind: ModelKind::Didactic { stages: 2 }, padding: 16, backend },
            trace: TraceSpec { tokens: 80, min_size: 1, max_size: 64, mean_period: 300, seed: 42 },
        };
        // Two copies of the same scenario on two workers: each worker
        // derives its own engine, yet the outcomes must match — and must
        // also match a single-worker run where the second copy reuses a
        // reset engine.
        let twins = vec![scenario.clone(), scenario];
        let two_workers = run_sweep(&twins, &SweepConfig { threads: 2, ..SweepConfig::default() });
        let one_worker = run_sweep(&twins, &SweepConfig { threads: 1, ..SweepConfig::default() });
        assert_eq!(
            two_workers.scenarios[0].outcome,
            two_workers.scenarios[1].outcome,
            "parallel twins diverged ({backend})"
        );
        assert_eq!(
            one_worker.scenarios[0].outcome,
            one_worker.scenarios[1].outcome,
            "fresh vs reset-reused engine diverged ({backend})"
        );
        assert!(one_worker.scenarios[1].reused_engine, "second twin reuses the engine");
        assert_eq!(two_workers.scenarios[0].outcome, one_worker.scenarios[0].outcome);
    }
}
