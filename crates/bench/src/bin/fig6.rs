//! Reproduces **Fig. 6**: "Observation of studied architecture evolution
//! over the simulation time (a) and over the observation time (b), (c)".
//!
//! One LTE frame of 14 symbols spaced 71.42 µs runs through the dynamic
//! computation path. Part (a) lists the simulation-time events — the input
//! offers `u(0..13)` and the computed outputs `y(k)` — and parts (b), (c)
//! print the computational complexity per time unit (GOPS) of the DSP and
//! of the dedicated hardware, derived purely from computed intermediate
//! instants (the observation-time axis). The same series from the
//! conventional model is diffed to confirm exactness; the harness exits
//! with status 1 when either series differs.
//!
//! The receiver is evaluated through the sweep primitives: frame-count
//! scenarios fan out over [`parallel_map_with`] workers, each holding one
//! derived engine that [`drive_engine`] re-drives after [`Engine::reset`]
//! — the case-study proof that custom architectures ride the same
//! machinery as the built-in sweep models.
//!
//! Usage: `fig6 [frames] [threads]` (defaults: 1 frame, host parallelism).

use evolve_bench::exit_unless_exact;
use evolve_core::{derive_tdg, Engine};
use evolve_explore::{drive_engine, parallel_map_with, ScenarioOutcome};
use evolve_lte::{frame_stimulus, receiver, Scenario, SYMBOLS_PER_FRAME};
use evolve_model::{elaborate, Environment, UsageSeries};

fn main() {
    let mut args = std::env::args().skip(1);
    let frames: u64 = args
        .next()
        .map(|s| s.parse().expect("frames must be a number"))
        .unwrap_or(1);
    let threads: usize = args
        .next()
        .map(|s| s.parse().expect("threads must be a number"))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));

    let rx = receiver(Scenario::default()).expect("receiver builds");
    let relation_count = rx.arch.app().relations().len();

    // Scenario per frame count 1..=frames, deterministically seeded; each
    // worker derives the receiver graph once and resets it between runs.
    let scenarios: Vec<u64> = (1..=frames).collect();
    let arch = rx.arch.clone();
    let scenario_rx = rx.scenario;
    let outcomes: Vec<(u64, ScenarioOutcome)> = parallel_map_with(
        scenarios,
        threads,
        || None::<Engine>,
        move |engine, _, frame_count| {
            let engine = engine.get_or_insert_with(|| {
                Engine::new(derive_tdg(&arch).expect("receiver derives"), relation_count, true)
            });
            engine.reset();
            let stimulus = frame_stimulus(scenario_rx, frame_count, 42);
            (frame_count, drive_engine(engine, stimulus.arrivals()))
        },
    );
    let (_, equivalent) = outcomes.last().expect("at least one frame");

    let env = Environment::new().stimulus(rx.input, frame_stimulus(rx.scenario, frames, 42));
    let conventional = elaborate(&rx.arch, &env).expect("conventional builds").run();

    println!("Fig. 6 reproduction — LTE receiver, {frames} frame(s) of {SYMBOLS_PER_FRAME} symbols");
    println!();

    // (a) evolution over the simulation time: u(k) offers and y(k) outputs.
    println!("(a) simulation-time events (µs)");
    print!("    u(k):");
    for &t in equivalent.input_acks.iter().take(SYMBOLS_PER_FRAME as usize) {
        print!(" {:8.2}", t as f64 / 1_000.0);
    }
    println!();
    print!("    y(k):");
    for &(_, y, _) in equivalent.outputs.iter().take(SYMBOLS_PER_FRAME as usize) {
        print!(" {:8.2}", y as f64 / 1_000.0);
    }
    println!();
    println!();

    // (b)/(c) usage over the observation time, from computed instants only.
    let bin = 20_000; // 20 µs bins
    let mut all_exact = true;
    for (tag, resource, description) in [
        ("(b)", rx.dsp, "digital signal processor"),
        ("(c)", rx.decoder_hw, "dedicated hardware resource"),
    ] {
        let computed = UsageSeries::from_records(&equivalent.exec_records, resource, bin);
        let simulated = UsageSeries::from_records(&conventional.exec_records, resource, bin);
        let exact = computed == simulated;
        all_exact &= exact;
        println!(
            "{tag} {description} — GOPS per {} µs bin (peak {:.2}, {} bins){}",
            bin / 1_000,
            computed.peak(),
            computed.bins.len(),
            if exact {
                " [identical to the simulated model]"
            } else {
                " [MISMATCH vs simulated model]"
            }
        );
        print!("    t(µs):");
        for (t, _) in computed.points().take(24) {
            print!(" {:6.0}", t.ticks() as f64 / 1_000.0);
        }
        println!();
        print!("    GOPS :");
        for (_, v) in computed.points().take(24) {
            print!(" {v:6.2}");
        }
        println!();
        // Coarse sparkline over the full horizon.
        let peak = computed.peak().max(1e-9);
        let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
        let line: String = computed
            .bins
            .iter()
            .map(|v| glyphs[((v / peak) * (glyphs.len() - 1) as f64).round() as usize])
            .collect();
        println!("    |{line}|");
        println!();
    }

    println!(
        "events: conventional={} equivalent(boundary)={}  ratio {:.2}",
        conventional.relation_events(),
        equivalent.boundary_events,
        conventional.relation_events() as f64 / equivalent.boundary_events.max(1) as f64,
    );
    println!(
        "engine: {} nodes computed, {} arc evaluations, {} iterations over {} swept scenario(s)",
        equivalent.engine_stats.nodes_computed,
        equivalent.engine_stats.arcs_evaluated,
        equivalent.engine_stats.iterations_completed,
        outcomes.len(),
    );
    exit_unless_exact(all_exact);
}
