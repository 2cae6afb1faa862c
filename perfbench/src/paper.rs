//! `paper-des`: the paper's own path on Table I example 4.
//!
//! `didactic::chained(4)` — a 70-node observing temporal dependency graph
//! — runs on the native DES kernel under a saturating source of seeded
//! varying-size tokens, once as the conventional event-driven model and
//! once as the equivalent model (`EquivalentModelBuilder`, observations
//! on). Kernel dispatch and observation replay do most of the work here;
//! it is the only workload that runs the `des` kernel and the `model`
//! processes.
//!
//! The traced run also drives an engine of the same graph directly
//! (`drive_engine`, no kernel) with observations on and off, which splits
//! the equivalent run into kernel dispatch, the `ComputeInstant()` sweep
//! and observation replay.

use evolve_core::{derive_tdg, Engine, EquivalentModelBuilder, EvalBackend};
use evolve_des::KernelStats;
use evolve_explore::drive_engine;
use evolve_model::{
    didactic, elaborate, varying_sizes, Architecture, Environment, ExecRecord, RelationId,
    RunReport, Stimulus,
};

use crate::common::{measure_for, median, quantile, state_samples, thread_cpu_ns, Report, FAST};
use crate::spans::Tracer;
use crate::sweep::{paper_grid, Grid, Sweeps};
use crate::Args;

/// Tokens per stimulus.
const TOKENS: u64 = 2000;
const WARMUP_ROUNDS: usize = 3;
const MIN_ROUNDS: usize = 100;
/// Measured sweeps of the traced run's design-space sweep.
const DSE_SWEEPS: usize = 8;

/// The model under test: architecture, stimulus environment, and the
/// external input and output relations.
fn build(seed: u64) -> (Architecture, Environment, Stimulus, RelationId) {
    let d = didactic::chained(4, didactic::Params::default()).expect("Table I example 4 builds");
    let stimulus = Stimulus::saturating(TOKENS, varying_sizes(1, 64, seed));
    let env = Environment::new().stimulus(d.input(), stimulus.clone());
    let output = d.output();
    (d.arch, env, stimulus, output)
}

/// On-CPU time of one set-up, s: build the architecture and stimulus,
/// derive and lower the equivalent model, elaborate the conventional one.
fn set_up(seed: u64) -> f64 {
    let start = thread_cpu_ns();
    let (arch, env, ..) = build(seed);
    let equiv = EquivalentModelBuilder::new(&arch)
        .build(&env)
        .expect("equivalent model builds");
    let conv = elaborate(&arch, &env).expect("conventional model builds");
    let took = (thread_cpu_ns() - start) as f64 / 1e9;
    drop((equiv, conv));
    took
}

/// Every relation's exchange instants and the execution-record multiset
/// must agree between the two models.
fn mismatch(arch: &Architecture, conv: &RunReport, equiv: &RunReport) -> Option<String> {
    for (i, relation) in arch.app().relations().iter().enumerate() {
        let (a, b) = (&conv.relation_logs[i], &equiv.relation_logs[i]);
        if a.write_instants != b.write_instants || a.read_instants != b.read_instants {
            return Some(format!("relation {} instants differ", relation.name));
        }
    }
    let key = |r: &ExecRecord| {
        (
            r.k,
            r.function.index(),
            r.stmt,
            r.start.ticks(),
            r.end.ticks(),
            r.ops,
            r.resource.index(),
        )
    };
    let mut a: Vec<_> = conv.exec_records.iter().map(key).collect();
    let mut b: Vec<_> = equiv.exec_records.iter().map(key).collect();
    a.sort_unstable();
    b.sort_unstable();
    (a != b).then(|| "execution records differ".to_string())
}

/// Host times (ns) and kernel counters of one round.
struct Round {
    traced: bool,
    conv_ns: f64,
    equiv_ns: f64,
    elaborate_ns: f64,
    conv: KernelStats,
    conv_events: u64,
    equiv: KernelStats,
    equiv_boundary_events: u64,
    derive_ns: f64,
    compile_ns: f64,
    drive_obs_ns: f64,
    drive_ns: f64,
}

pub fn run(args: &Args, tr: &mut Tracer, report: &mut Report) {
    let (arch, env, stimulus, output) = build(args.seed);
    let relations = arch.app().relations().len();
    let derived = derive_tdg(&arch).expect("Table I example 4 derives");
    let nodes = derived.tdg().node_count();
    let mut engine_obs =
        Engine::with_backend(derived.clone(), relations, true, EvalBackend::Compiled);
    let mut engine = Engine::with_backend(derived, relations, false, EvalBackend::Compiled);
    let (mut nodes_computed, mut arcs_evaluated, mut compiled_elements) = (0, 0, 0);

    let mut rounds: Vec<Round> = Vec::new();
    let mut setup: Vec<f64> = Vec::new();
    let total = measure_for(
        args.seconds,
        (MIN_ROUNDS << u8::from(tr.traced())) + WARMUP_ROUNDS,
        |i| {
            // The traced run alternates traced and untraced rounds; the
            // untraced ones give its tracing-overhead comparison.
            let traced = tr.traced() && i % 2 == 0;
            tr.pause(!traced);
            // One set-up sample per round spreads them over the run, as the
            // round timings are, so no short slow spell of the host holds
            // all of them.
            let setup_s = set_up(args.seed);

            let start = thread_cpu_ns();
            let conv_sim = tr.span("model.elaborate", || {
                elaborate(&arch, &env).expect("conventional model builds")
            });
            let elaborate_ns = (thread_cpu_ns() - start) as f64;
            let start = thread_cpu_ns();
            let conv = tr.span("des.conventional_run", || conv_sim.run());
            let conv_ns = (thread_cpu_ns() - start) as f64;

            let equiv_sim = tr.span("equivalent.build", || {
                EquivalentModelBuilder::new(&arch)
                    .build(&env)
                    .expect("equivalent model builds")
            });
            let start = thread_cpu_ns();
            let equiv = tr.span("des.equivalent_run", || equiv_sim.run());
            let equiv_ns = (thread_cpu_ns() - start) as f64;
            report.check(mismatch(&arch, &conv, &equiv.run).is_none(), || {
                format!(
                    "round {i}: {}",
                    mismatch(&arch, &conv, &equiv.run).unwrap_or_default()
                )
            });

            let mut round = Round {
                traced,
                conv_ns,
                equiv_ns,
                elaborate_ns,
                conv: conv.stats,
                conv_events: conv.relation_events(),
                equiv: equiv.run.stats,
                equiv_boundary_events: equiv.boundary_relation_events,
                derive_ns: 0.0,
                compile_ns: 0.0,
                drive_obs_ns: 0.0,
                drive_ns: 0.0,
            };
            if traced {
                // The same graph and trace without the kernel: observations on,
                // then off. Their outputs must equal the equivalent model's.
                let start = thread_cpu_ns();
                let derived = tr.span("derive.derive_tdg", || derive_tdg(&arch).expect("derives"));
                round.derive_ns = (thread_cpu_ns() - start) as f64;
                let start = thread_cpu_ns();
                let lowered = tr.span("compile.lower", || {
                    Engine::with_backend(derived, relations, true, EvalBackend::Compiled)
                });
                round.compile_ns = (thread_cpu_ns() - start) as f64;
                compiled_elements = lowered.allocation_footprint().compiled_elements;

                let expected: Vec<u64> = equiv
                    .run
                    .instants(output)
                    .iter()
                    .map(|t| t.ticks())
                    .collect();
                for (observing, eng) in [(true, &mut engine_obs), (false, &mut engine)] {
                    eng.reset();
                    let start = thread_cpu_ns();
                    let outcome = tr.span(
                        if observing {
                            "engine.drive_observing"
                        } else {
                            "engine.drive"
                        },
                        || drive_engine(eng, stimulus.arrivals()),
                    );
                    let ns = (thread_cpu_ns() - start) as f64;
                    let ys: Vec<u64> = outcome.outputs.iter().map(|&(_, y, _)| y).collect();
                    report.check(ys == expected, || {
                        format!("round {i}: engine-only outputs differ")
                    });
                    if observing {
                        round.drive_obs_ns = ns;
                    } else {
                        round.drive_ns = ns;
                        nodes_computed = outcome.engine_stats.nodes_computed;
                        arcs_evaluated = outcome.engine_stats.arcs_evaluated;
                    }
                }
            }
            if i >= WARMUP_ROUNDS {
                rounds.push(round);
                setup.push(setup_s);
            }
        },
    );
    tr.pause(false);
    println!("paper-des: {total} rounds of {TOKENS} tokens on {nodes} nodes");

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let equiv_ns: Vec<f64> = untraced.iter().map(|r| r.equiv_ns).collect();
    state_samples("equivalent-run latency", equiv_ns.len(), 0.9);
    report.metric("setup_s", quantile(&setup, FAST));
    report.metric(
        "sim_tokens_per_s",
        TOKENS as f64 * 1e9 / quantile(&equiv_ns, FAST),
    );
    report.metric("lat_ms", quantile(&equiv_ns, FAST) / 1e6);
    report.metric("lat.p90_ms", quantile(&equiv_ns, 0.9) / 1e6);
    if !tr.traced() {
        return;
    }

    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let med = |f: fn(&Round) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let (conv_ns, equiv_traced_ns) = (med(|r| r.conv_ns), med(|r| r.equiv_ns));
    let (drive_obs_ns, drive_ns) = (med(|r| r.drive_obs_ns), med(|r| r.drive_ns));
    let last = traced.last().expect("traced rounds ran");
    let conv_ns_per_activation = conv_ns / last.conv.activations.max(1) as f64;
    let replay_ns = drive_obs_ns - drive_ns;
    report.metric("lat.samples", equiv_ns.len() as f64);
    report.metric("trace.overhead_ratio", median(&equiv_ns) / equiv_traced_ns);
    report.metric("des.activations", last.equiv.activations as f64);
    report.metric("des.events", last.equiv.total_events() as f64);
    report.metric(
        "des.event_ratio",
        last.conv_events as f64 / last.equiv_boundary_events.max(1) as f64,
    );
    report.metric("des.dispatch_ms", (equiv_traced_ns - drive_obs_ns) / 1e6);
    report.metric("des.conv_ns_per_activation", conv_ns_per_activation);
    report.metric("paper.speedup", conv_ns / equiv_traced_ns);
    // Husainov & Kudryashova-style accounting: equivalent-run time ≈
    // kernel activations × per-activation cost + sweep + replay.
    report.metric(
        "account.paper_share",
        (last.equiv.activations as f64 * conv_ns_per_activation + drive_ns + replay_ns)
            / equiv_traced_ns,
    );
    report.metric("model.elaborate_ms", med(|r| r.elaborate_ns) / 1e6);
    report.metric("model.conv_run_ms", conv_ns / 1e6);
    report.metric("model.conv_tokens_per_s", TOKENS as f64 * 1e9 / conv_ns);
    report.metric("derive.ms", med(|r| r.derive_ns) / 1e6);
    report.metric("derive.nodes", nodes as f64);
    report.metric("compile.ms", med(|r| r.compile_ns) / 1e6);
    report.metric("compile.elements", compiled_elements as f64);
    report.metric("engine.ns_per_iter", drive_ns / TOKENS as f64);
    report.metric(
        "engine.ns_per_node",
        drive_ns / nodes_computed.max(1) as f64,
    );
    report.metric("engine.nodes_computed", nodes_computed as f64);
    report.metric("engine.arcs_evaluated", arcs_evaluated as f64);
    report.metric("observe.replay_ms", replay_ns / 1e6);
    let partition = engine.partition_stats();
    report.metric(
        "partition.parallel_iterations",
        partition.parallel_iterations as f64,
    );
    report.metric(
        "partition.serial_iterations",
        partition.serial_iterations as f64,
    );
    report.metric(
        "partition.barrier_crossings",
        partition.barrier_crossings as f64,
    );

    // The sweep layers, measured on a design-space sweep of this model.
    let grid = Grid::new(paper_grid(args.seed));
    let mut sweeps = Sweeps::default();
    for i in 0..=DSE_SWEEPS {
        grid.sweep(tr, report, &mut sweeps, i > 0);
    }
    grid.report_layers(&sweeps, report);
}
