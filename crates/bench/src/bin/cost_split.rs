//! Where an equivalent-model run's time goes, on Table I example 4.
//!
//! Four comparisons of `didactic x4` on a saturating 2000-token stimulus,
//! each timed in alternating pairs on thread CPU time
//! ([`evolve_bench::paired`]):
//! * the equivalent run against the conventional run (the speed-up);
//! * an engine of the same graph driven without the kernel
//!   (`drive_engine`) with observations off against the same drive with
//!   observations on, whose cost leaves out the copy of the
//!   execution-record log that `drive_engine` hands back (the copy is
//!   timed on its own right after each observing drive);
//! * a one-lane `BatchedEngine` of the same graph under the same drive
//!   (`drive_batch`, whose boundary semantics are `drive_engine`'s)
//!   against the scalar compiled drive, with observations off and on,
//!   copies included: whether one lockstep lane could stand in for the
//!   scalar engine.
//!
//! The medians of the first two split the equivalent run into:
//! * the `ComputeInstant()` sweep (the drive with observations off:
//!   folds, weight evaluation, acknowledgments and outputs),
//! * observation logging (the drive with observations on, minus the sweep
//!   and the copy: execution records and instant logs),
//! * the kernel and the run's own bookkeeping (the rest of the equivalent
//!   run: dispatch, process wake-ups, log set-up and hand-over).
//!
//! Every drive is checked: the engine reproduces the kernel-driven
//! equivalent run's outputs and record count, and one lane answers as the
//! scalar engine.
//! Usage: `cost_split [pairs] [seed]` (defaults: 300, 4242).

use evolve_bench::{on_cpu, paired, quartiles};
use evolve_core::{derive_tdg, BatchedEngine, Engine, EquivalentModelBuilder, EvalBackend};
use evolve_explore::{drive_batch, drive_engine};
use evolve_model::{didactic, elaborate, varying_sizes, Environment, Stimulus};

/// Tokens per stimulus.
const TOKENS: u64 = 2000;

fn main() {
    let mut args = std::env::args().skip(1);
    let pairs: usize = args
        .next()
        .map(|s| s.parse().expect("pairs must be a number"))
        .unwrap_or(300)
        .max(1);
    let seed: u64 = args
        .next()
        .map(|s| s.parse().expect("seed must be a number"))
        .unwrap_or(4242);

    let d = didactic::chained(4, didactic::Params::default()).expect("Table I example 4 builds");
    let stimulus = Stimulus::saturating(TOKENS, varying_sizes(1, 64, seed));
    let arrivals = stimulus.arrivals();
    let env = Environment::new().stimulus(d.input(), stimulus.clone());
    let relations = d.arch.app().relations().len();
    let derived = derive_tdg(&d.arch).expect("Table I example 4 derives");
    let nodes = derived.tdg().node_count();
    let builder = EquivalentModelBuilder::new(&d.arch);

    // The kernel-driven equivalent run every drive must reproduce.
    let reference = builder.build(&env).expect("equivalent model builds").run();
    let expected: Vec<u64> = reference
        .instants(d.output())
        .iter()
        .map(|t| t.ticks())
        .collect();
    let records = reference.run.exec_records.len();
    drop(reference);

    let mut plain = Engine::with_backend(derived.clone(), relations, false, EvalBackend::Compiled);
    let mut observing =
        Engine::with_backend(derived.clone(), relations, true, EvalBackend::Compiled);
    // A scalar drive, checked against the equivalent run: its outcome and
    // thread CPU ns.
    let drive = |engine: &mut Engine| {
        engine.reset();
        let (outcome, ns) = on_cpu(|| drive_engine(engine, arrivals));
        let ys: Vec<u64> = outcome.outputs.iter().map(|&(_, y, _)| y).collect();
        assert_eq!(
            ys, expected,
            "the engine drive reproduces the equivalent run"
        );
        (outcome, ns)
    };
    let scalar_outputs = drive(&mut plain).0.outputs;

    let run = paired(
        pairs,
        || {
            let sim = builder.build(&env).expect("equivalent model builds");
            on_cpu(|| sim.run()).1
        },
        || {
            let sim = elaborate(&d.arch, &env).expect("conventional model builds");
            on_cpu(|| sim.run()).1
        },
    );

    let mut copies = Vec::with_capacity(pairs + 1);
    let split = paired(
        pairs,
        || drive(&mut plain).1,
        || {
            let (outcome, ns) = drive(&mut observing);
            assert_eq!(outcome.exec_records.len(), records);
            let (log, copy_ns) = on_cpu(|| observing.exec_records().to_vec());
            drop((outcome, log));
            copies.push(copy_ns);
            ns - copy_ns
        },
    );

    // One lockstep lane against the scalar drive, both observation
    // settings; `drive_batch` copies the record log too, as `drive_engine`
    // does.
    let one_lane = |record: bool, scalar: &mut Engine| {
        let mut lane = BatchedEngine::try_new(derived.clone(), relations, record, 1)
            .expect("Table I example 4 runs under the lockstep sweep");
        paired(
            pairs,
            || drive(scalar).1,
            || {
                lane.reset(1);
                let (lanes, ns) = on_cpu(|| drive_batch(&mut lane, &[arrivals]));
                assert_eq!(
                    lanes[0].outputs, scalar_outputs,
                    "one lane answers as the engine"
                );
                ns
            },
        )
    };
    let lane_plain = one_lane(false, &mut plain);
    let lane_observing = one_lane(true, &mut observing);

    let ms = |ns: f64| ns / 1e6;
    let (sweep, observed) = (ms(split.a), ms(split.b));
    println!(
        "Table I example 4 ({nodes} nodes), {TOKENS} tokens, seed {seed}: medians of {pairs} \
         alternating pairs, ms of thread CPU time per run"
    );
    println!("  conventional run                  {:8.3}", ms(run.b));
    println!(
        "  equivalent run                    {:8.3}   (speed-up [q1–q3] won {run})",
        ms(run.a)
    );
    println!("    ComputeInstant() sweep          {sweep:8.3}");
    println!(
        "    observation logging             {:8.3}",
        observed - sweep
    );
    println!(
        "    kernel and run bookkeeping      {:8.3}",
        ms(run.a) - observed
    );
    println!(
        "  record-log copy in drive_engine   {:8.3}   ({records} records)",
        ms(quartiles(&mut copies)[1])
    );
    println!(
        "one-lane BatchedEngine, same drive (drive_batch vs drive_engine, copies included; \
         the ratio is the lane's cost over the scalar's, won counts the scalar's wins)"
    );
    for (label, p) in [("off", lane_plain), ("on ", lane_observing)] {
        println!(
            "  observations {label}                  {:8.3}   ({p} against the scalar {:.3})",
            ms(p.b),
            ms(p.a)
        );
    }
}
