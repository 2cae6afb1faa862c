//! Ablation of the design choices called out in DESIGN.md: what each part
//! of the method buys.
//!
//! Axes:
//! * observation replay on/off (accuracy vs. speed of `ComputeInstant()`),
//!   both on the DES kernel and as a kernel-free engine drive through the
//!   scenario-sweep path with reused engines,
//! * graph simplification on/off (node count vs. engine cost),
//! * kernel cost regime (how much the event savings are worth),
//! * partial abstraction (hybrid model) as a middle ground, timed against
//!   the conventional model in alternating pairs.
//!
//! Exits with status 1 when any row is not `exact`.
//!
//! Usage: `ablation [tokens]` (default: 20 000).

use evolve_bench::{
    exit_unless_exact, format_row, header, measure, on_cpu, paired, Fidelity, MEASURE_PAIRS,
};
use evolve_core::{derive_tdg, simplify, EvalBackend};
use evolve_explore::{run_sweep, ModelKind, ModelSpec, ScenarioSpec, SweepConfig, TraceSpec};
use evolve_model::{didactic, varying_sizes, Environment, Stimulus};

fn main() {
    let tokens: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("tokens must be a number"))
        .unwrap_or(20_000);

    let d = didactic::chained(2, didactic::Params::default()).expect("didactic builds");
    let env = Environment::new().stimulus(
        d.input(),
        Stimulus::saturating(tokens, varying_sizes(1, 256, 9)),
    );

    println!("Ablation — didactic x2, {tokens} tokens");
    println!();

    // Graph sizes across simplification options.
    let derived = derive_tdg(&d.arch).expect("derives");
    let observing = simplify::simplify_default(derived.tdg());
    let boundary = simplify::simplify(
        derived.tdg(),
        &simplify::Options {
            preserve_observations: false,
        },
    );
    println!(
        "graph nodes: derived={}, simplified(observing)={}, simplified(boundary)={}",
        derived.tdg().node_count(),
        observing.node_count(),
        boundary.node_count()
    );
    println!();

    let mut exact = true;
    for cost in [0u64, 1_000] {
        println!("== dispatch cost {cost} ns (kernel-hosted equivalent model) ==");
        println!("{}", header());
        for fidelity in [Fidelity::Observing, Fidelity::BoundaryOnly] {
            let m = measure(format!("{fidelity:?}"), &d.arch, &env, fidelity, cost, 0);
            println!("{}", format_row(&m));
            exact &= m.accurate;
        }
        println!();
    }

    // The kernel-free sweep path: evaluation backend × observation replay
    // over a reused engine. A drive with no kernel has no conventional run
    // to race, so the rows report its time, work and accuracy only.
    let scenario = |label: &str, backend: EvalBackend| ScenarioSpec {
        label: label.to_string(),
        model: ModelSpec { kind: ModelKind::Didactic { stages: 2 }, padding: 0, backend },
        trace: TraceSpec { tokens, min_size: 1, max_size: 256, mean_period: 0, seed: 9 },
    };
    println!("== engine drive (no kernel), backend x observation replay ==");
    println!(
        "{:<18} {:>10} {:>14} {:>14} {:>10} {:>9}",
        "drive", "wall (ms)", "nodes comp.", "arc evals", "iters", "accuracy"
    );
    let rows = [
        ("compiled+observe", EvalBackend::Compiled, true),
        ("compiled-only", EvalBackend::Compiled, false),
        ("worklist+observe", EvalBackend::Worklist, true),
        ("worklist-only", EvalBackend::Worklist, false),
    ];
    for (label, backend, record) in rows {
        let report = run_sweep(
            &[scenario(label, backend)],
            &SweepConfig {
                record_observations: record,
                compare_conventional: true,
                ..SweepConfig::default()
            },
        );
        let s = &report.scenarios[0];
        let accurate = s.reference.as_ref().is_some_and(|r| r.accurate);
        let stats = &s.outcome.engine_stats;
        println!(
            "{:<18} {:>10.3} {:>14} {:>14} {:>10} {:>9}",
            label,
            s.wall.as_secs_f64() * 1e3,
            stats.nodes_computed,
            stats.arcs_evaluated,
            stats.iterations_completed,
            if accurate { "exact" } else { "MISMATCH" }
        );
        exact &= accurate;
    }
    println!();

    // Partial abstraction: abstract only the P1 side of each stage.
    let group: Vec<evolve_model::FunctionId> = (0..8)
        .filter(|i| i % 4 < 2) // F1, F2 of both stages (P1/P1.1 exclusive)
        .map(evolve_model::FunctionId::from_index)
        .collect();
    let (mut conventional, mut hybrid) = (None, None);
    let timing = paired(
        MEASURE_PAIRS,
        || {
            let sim = evolve_core::partial::hybrid_simulation(&d.arch, &group, &env)
                .expect("hybrid builds");
            let (report, ns) = on_cpu(|| sim.run());
            hybrid = Some(report);
            ns
        },
        || {
            let sim = evolve_model::elaborate(&d.arch, &env).expect("builds");
            let (report, ns) = on_cpu(|| sim.run());
            conventional = Some(report);
            ns
        },
    );
    let conventional = conventional.expect("paired runs both sides");
    let hybrid = hybrid.expect("paired runs both sides");
    let hybrid_exact = (0..d.arch.app().relations().len()).all(|r| {
        conventional.relation_logs[r].write_instants == hybrid.run.relation_logs[r].write_instants
    });
    println!(
        "hybrid (P1-side abstracted): conv {:.3} ms vs hybrid {:.3} ms, speed-up [q1–q3] won \
         {timing}, activations {} -> {}, {}",
        timing.b / 1e6,
        timing.a / 1e6,
        conventional.stats.activations,
        hybrid.run.stats.activations,
        if hybrid_exact { "exact" } else { "MISMATCH" }
    );
    exit_unless_exact(exact && hybrid_exact);
}
