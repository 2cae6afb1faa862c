//! Reproduces the **Section V measurement**: "A simulation speed-up by a
//! factor of 4 has been measured for the simulation of 20000 data symbols,
//! whereas the ratio of events between models is 4.2."
//!
//! Both models run on the DES kernel at the same dispatch cost; exits with
//! status 1 when any row is not `exact`.
//!
//! Usage: `lte_speedup [symbols] [dispatch_cost_ns]`
//! (defaults: 20 000 symbols; native and 1 µs-calibrated regimes).

use evolve_bench::{exit_unless_exact, format_row, header, measure, Fidelity};
use evolve_core::{derive_tdg, simplify};
use evolve_lte::{receiver, symbol_stimulus, Scenario};
use evolve_model::Environment;

fn main() {
    let mut args = std::env::args().skip(1);
    let symbols: u64 = args
        .next()
        .map(|s| s.parse().expect("symbols must be a number"))
        .unwrap_or(20_000);
    let costs: Vec<u64> = match args.next() {
        Some(s) => vec![s.parse().expect("dispatch cost must be a number")],
        None => vec![0, 1_000],
    };

    let rx = receiver(Scenario::default()).expect("receiver builds");
    let env = Environment::new().stimulus(rx.input, symbol_stimulus(rx.scenario, symbols, 42));

    let derived = derive_tdg(&rx.arch).expect("derives");
    let reduced = simplify::simplify(
        derived.tdg(),
        &simplify::Options {
            preserve_observations: false,
        },
    );
    println!("Section V reproduction — LTE receiver, {symbols} data symbols");
    println!(
        "graph: {} nodes derived, {} after boundary reduction (paper: 11)",
        derived.tdg().node_count(),
        reduced.node_count()
    );
    println!("paper reference: speed-up 4, event ratio 4.2");
    println!();

    let mut exact = true;
    for cost in costs {
        let regime = if cost == 0 { "native" } else { "calibrated" };
        println!("== {regime} kernel regime ({cost} ns/dispatch) ==");
        println!("{}", header());
        for fidelity in [Fidelity::Observing, Fidelity::BoundaryOnly] {
            let m = measure(
                format!("lte {fidelity:?}"),
                &rx.arch,
                &env,
                fidelity,
                cost,
                0,
            );
            println!("{}", format_row(&m));
            exact &= m.accurate;
        }
        println!();
    }
    exit_unless_exact(exact);
}
