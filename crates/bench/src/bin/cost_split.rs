//! Where an equivalent-model run's time goes, on Table I example 4.
//!
//! Times the conventional run and the equivalent run of `didactic x4` on a
//! saturating 2000-token stimulus, then drives an engine of the same graph
//! without the kernel (`drive_engine`) with observations off and on, and
//! times the copy of the execution-record log that `drive_engine` hands
//! back. Per-round differences split the equivalent run into:
//! * the `ComputeInstant()` sweep (the drive with observations off:
//!   folds, weight evaluation, acknowledgments and outputs),
//! * observation logging (the drive with observations on, minus the sweep
//!   and the copy: execution records and instant logs),
//! * the kernel and the run's own bookkeeping (the rest of the equivalent
//!   run: dispatch, process wake-ups, log set-up and hand-over).
//!
//! Every figure is in ms of wall time per run, the fastest decile over the
//! rounds (as `perfbench` reports `lat_ms`): on a shared host the slower
//! rounds mostly measure the neighbours. The split is a difference of
//! those per-part figures.
//!
//! Two more rows time a one-lane `BatchedEngine` of the same graph under
//! the same drive (`drive_batch`, whose boundary semantics are
//! `drive_engine`'s) against the scalar compiled drives above, with
//! observations off and on: whether one lockstep lane could stand in for
//! the scalar engine.
//! Usage: `cost_split [rounds] [seed]` (defaults: 300, 4242).

use std::time::Instant;

use evolve_core::{derive_tdg, BatchedEngine, Engine, EquivalentModelBuilder, EvalBackend};
use evolve_explore::{drive_batch, drive_engine};
use evolve_model::{didactic, elaborate, varying_sizes, Environment, Stimulus};

/// Tokens per stimulus.
const TOKENS: u64 = 2000;
/// Rounds run before measuring.
const WARMUP: usize = 10;

/// Runs `f`, returning its result and its wall time in ms.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e3)
}

/// The fastest-decile boundary of `xs`.
fn fast(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 10]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rounds: usize = args
        .next()
        .map(|s| s.parse().expect("rounds must be a number"))
        .unwrap_or(300)
        .max(1);
    let seed: u64 = args
        .next()
        .map(|s| s.parse().expect("seed must be a number"))
        .unwrap_or(4242);

    let d = didactic::chained(4, didactic::Params::default()).expect("Table I example 4 builds");
    let stimulus = Stimulus::saturating(TOKENS, varying_sizes(1, 64, seed));
    let env = Environment::new().stimulus(d.input(), stimulus.clone());
    let relations = d.arch.app().relations().len();
    let derived = derive_tdg(&d.arch).expect("Table I example 4 derives");
    let nodes = derived.tdg().node_count();
    let mut observing =
        Engine::with_backend(derived.clone(), relations, true, EvalBackend::Compiled);
    let mut plain = Engine::with_backend(derived.clone(), relations, false, EvalBackend::Compiled);
    let one_lane = |record| {
        BatchedEngine::try_new(derived.clone(), relations, record, 1)
            .expect("Table I example 4 runs under the lockstep sweep")
    };
    let (mut lane_plain, mut lane_observing) = (one_lane(false), one_lane(true));

    let (mut conv, mut equiv, mut sweep, mut observed, mut copy) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut observing_drive, mut batch_plain, mut batch_observing) = (vec![], vec![], vec![]);
    let mut records = 0;
    for round in 0..WARMUP + rounds {
        let sim = elaborate(&d.arch, &env).expect("conventional model builds");
        let (_, conv_ms) = timed(|| sim.run());
        let sim = EquivalentModelBuilder::new(&d.arch)
            .build(&env)
            .expect("equivalent model builds");
        let (report, equiv_ms) = timed(|| sim.run());

        plain.reset();
        let (outcome, plain_ms) = timed(|| drive_engine(&mut plain, stimulus.arrivals()));
        let ys: Vec<u64> = outcome.outputs.iter().map(|&(_, y, _)| y).collect();
        let expected: Vec<u64> = report
            .instants(d.output())
            .iter()
            .map(|t| t.ticks())
            .collect();
        assert_eq!(
            ys, expected,
            "the engine drive reproduces the equivalent run"
        );
        observing.reset();
        let (outcome, observing_ms) = timed(|| drive_engine(&mut observing, stimulus.arrivals()));
        assert_eq!(outcome.exec_records.len(), report.run.exec_records.len());
        let (log, copy_ms) = timed(|| observing.exec_records().to_vec());
        records = log.len();

        // The same drive on one lockstep lane, both observation settings;
        // `drive_batch` copies the record log too, as `drive_engine` does.
        let mut one_lane_ms = [0.0; 2];
        for (lane, ms) in [&mut lane_plain, &mut lane_observing]
            .into_iter()
            .zip(&mut one_lane_ms)
        {
            lane.reset(1);
            let (lanes, lane_ms) = timed(|| drive_batch(lane, &[stimulus.arrivals()]));
            assert_eq!(
                lanes[0].outputs, outcome.outputs,
                "one lane answers as the engine"
            );
            *ms = lane_ms;
        }
        drop((report, outcome, log));

        if round >= WARMUP {
            conv.push(conv_ms);
            equiv.push(equiv_ms);
            sweep.push(plain_ms);
            observed.push(observing_ms - copy_ms);
            copy.push(copy_ms);
            observing_drive.push(observing_ms);
            batch_plain.push(one_lane_ms[0]);
            batch_observing.push(one_lane_ms[1]);
        }
    }

    let (conv, equiv, sweep, observed) = (fast(conv), fast(equiv), fast(sweep), fast(observed));
    let (observing, batch_plain, batch_observing) = (
        fast(observing_drive),
        fast(batch_plain),
        fast(batch_observing),
    );
    println!(
        "Table I example 4 ({nodes} nodes), {TOKENS} tokens, seed {seed}: \
         fastest decile of {rounds} rounds, ms per run"
    );
    println!("  conventional run                  {conv:8.3}");
    println!(
        "  equivalent run                    {equiv:8.3}   (speed-up {:.2})",
        conv / equiv
    );
    println!("    ComputeInstant() sweep          {sweep:8.3}");
    println!(
        "    observation logging             {:8.3}",
        observed - sweep
    );
    println!(
        "    kernel and run bookkeeping      {:8.3}",
        equiv - observed
    );
    println!(
        "  record-log copy in drive_engine   {:8.3}   ({records} records)",
        fast(copy)
    );
    println!("one-lane BatchedEngine, same drive (drive_batch vs drive_engine, copies included)");
    println!(
        "  observations off                  {batch_plain:8.3}   ({:.2}x the scalar {sweep:.3})",
        batch_plain / sweep
    );
    println!(
        "  observations on                   {batch_observing:8.3}   ({:.2}x the scalar {observing:.3})",
        batch_observing / observing
    );
}
