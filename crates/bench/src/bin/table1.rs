//! Reproduces **Table I**: "Measurement of achieved simulation speed-up on
//! distinct architecture models".
//!
//! The paper's four rows are the didactic example (Fig. 1) chained ×1..×4,
//! each simulated with 20 000 data items of varying size through `M1`, in
//! the conventional and the dynamic-computation form. Reported per row:
//! execution time, event ratio, simulation speed-up, and the node count of
//! the temporal dependency graph.
//!
//! Each row is one [`measure`]: both models run on the DES kernel at the
//! same dispatch cost, the way the paper times its equivalent model on the
//! simulator, in alternating pairs; the speed-up is the median per-pair
//! ratio, printed with its quartiles and the pairs the equivalent model
//! won. Exits with status 1 when any row is not `exact`.
//!
//! Usage: `table1 [tokens] [dispatch_cost_ns]`
//! (defaults: 20 000 tokens; both native and 1 µs-calibrated regimes).

use evolve_bench::{
    exit_unless_exact, format_row, header, measure, table1_example, total_engine_stats, Fidelity,
    MEASURE_PAIRS,
};

fn main() {
    let mut args = std::env::args().skip(1);
    let tokens: u64 = args
        .next()
        .map(|s| s.parse().expect("tokens must be a number"))
        .unwrap_or(20_000);
    let costs: Vec<u64> = match args.next() {
        Some(s) => vec![s.parse().expect("dispatch cost must be a number")],
        None => vec![0, 1_000],
    };

    println!("Table I reproduction — didactic example chained x1..x4");
    println!(
        "stimulus: {tokens} data items with varying sizes through M1; both models on the DES \
         kernel, {MEASURE_PAIRS} alternating pairs of runs (medians)"
    );
    println!();

    let mut exact = true;
    for cost in costs {
        let regime = if cost == 0 {
            "native kernel (~50 ns/dispatch)".to_string()
        } else {
            format!("calibrated kernel ({cost} ns/dispatch — heavyweight-simulator regime)")
        };
        println!("== {regime} ==");
        println!("{}", header());
        let measurements: Vec<_> = (1..=4usize)
            .map(|stages| {
                let (d, env) = table1_example(stages, tokens);
                let label = format!("example {stages}");
                let m = measure(label, &d.arch, &env, Fidelity::Observing, cost, 0);
                println!("{}", format_row(&m));
                m
            })
            .collect();
        exact &= measurements.iter().all(|m| m.accurate);
        let totals = total_engine_stats(&measurements);
        println!(
            "engine totals: {} nodes computed, {} arc evaluations, {} iterations",
            totals.nodes_computed, totals.arcs_evaluated, totals.iterations_completed
        );
        println!();
    }
    println!("paper reference:   time 22/41.2/59.4/80.2 s, event ratio 2.33/4.66/7/9.33,");
    println!("                   speed-up 2.27/4.47/6.38/8.35, nodes 10/19/28/37");
    exit_unless_exact(exact);
}
