//! Integration tests of the LTE case study: real-time feasibility,
//! resource-usage observation (Fig. 6 shape), and equivalence of the two
//! model variants on the receiver architecture.

use evolve_core::validate::{assert_equivalent, compare_models};
use evolve_core::{derive_tdg, simplify};
use evolve_lte::{
    frame_stimulus, receiver, symbol_stimulus, Bandwidth, Modulation, Scenario, SYMBOLS_PER_FRAME,
    SYMBOL_PERIOD,
};
use evolve_model::{elaborate, Environment, ResourceTrace, UsageSeries};

#[test]
fn receiver_keeps_up_with_the_symbol_rate() {
    // Under maximum allocation the pipeline latency per symbol must stay
    // below a frame so the system reaches a steady state.
    let rx = receiver(Scenario::default()).unwrap();
    let env = Environment::new().stimulus(rx.input, frame_stimulus(rx.scenario, 5, 1));
    let report = elaborate(&rx.arch, &env).unwrap().run();
    let outs = report.instants(rx.output);
    assert_eq!(outs.len(), 5 * SYMBOLS_PER_FRAME as usize);
    // Steady state: inter-output spacing equals the symbol period.
    let spacing = outs[outs.len() - 1].ticks() - outs[outs.len() - 2].ticks();
    assert_eq!(spacing, SYMBOL_PERIOD.ticks(), "throughput-bound pipeline");
}

#[test]
fn dsp_usage_peaks_in_the_single_digit_gops() {
    // Fig. 6(b): the DSP's computational complexity per time unit peaks
    // around 8 GOPS at full allocation.
    let rx = receiver(Scenario::default()).unwrap();
    let env = Environment::new().stimulus(rx.input, frame_stimulus(rx.scenario, 3, 7));
    let report = elaborate(&rx.arch, &env).unwrap().run();
    let usage = UsageSeries::from_records(&report.exec_records, rx.dsp, 10_000);
    let peak = usage.peak();
    assert!(peak <= 8.0 + 1e-9, "DSP peak {peak} exceeds its speed");
    assert!(peak > 4.0, "DSP peak {peak} implausibly low");
}

#[test]
fn decoder_usage_peaks_near_its_speed() {
    // Fig. 6(c): the dedicated hardware peaks near 150 GOPS in bursts.
    let rx = receiver(Scenario::default()).unwrap();
    let env = Environment::new().stimulus(rx.input, frame_stimulus(rx.scenario, 3, 7));
    let report = elaborate(&rx.arch, &env).unwrap().run();
    let usage = UsageSeries::from_records(&report.exec_records, rx.decoder_hw, 1_000);
    let peak = usage.peak();
    assert!(peak <= 150.0 + 1e-9);
    assert!(peak > 75.0, "decoder peak {peak} should be bursty but high");
    // The decoder is idle most of the time (its bursts are short).
    let trace = ResourceTrace::from_records(&report.exec_records, rx.decoder_hw);
    let util = trace.utilization(report.end_time);
    assert!(util < 0.5, "decoder utilization {util} should be low");
}

#[test]
fn dsp_utilization_is_high_but_feasible() {
    let rx = receiver(Scenario::default()).unwrap();
    let env = Environment::new().stimulus(rx.input, frame_stimulus(rx.scenario, 10, 5));
    let report = elaborate(&rx.arch, &env).unwrap().run();
    let trace = ResourceTrace::from_records(&report.exec_records, rx.dsp);
    let util = trace.utilization(report.end_time);
    assert!(util < 1.0);
    assert!(util > 0.3, "DSP utilization {util} unrealistically low");
}

#[test]
fn equivalence_on_the_lte_receiver() {
    // The paper's case study: the equivalent model must reproduce every
    // instant of the conventional receiver model.
    let rx = receiver(Scenario::default()).unwrap();
    let env = Environment::new().stimulus(rx.input, frame_stimulus(rx.scenario, 8, 11));
    assert_equivalent(&rx.arch, &env);
}

#[test]
fn equivalence_across_scenarios() {
    for (bw, m) in [
        (Bandwidth::Mhz1_4, Modulation::Qpsk),
        (Bandwidth::Mhz5, Modulation::Qam16),
        (Bandwidth::Mhz10, Modulation::Qam64),
    ] {
        let scenario = Scenario {
            bandwidth: bw,
            modulation: m,
            code_rate: (1, 3),
            turbo_iterations: 5,
        };
        let rx = receiver(scenario).unwrap();
        let env = Environment::new().stimulus(rx.input, frame_stimulus(scenario, 4, 23));
        assert_equivalent(&rx.arch, &env);
    }
}

#[test]
fn event_ratio_matches_relation_structure() {
    // 9 relations conventionally vs 2 boundary: ratio 4.5 (the paper
    // measures 4.2 with its tool-specific extra events; same regime).
    let rx = receiver(Scenario::default()).unwrap();
    let env = Environment::new().stimulus(
        rx.input,
        symbol_stimulus(rx.scenario, 20 * SYMBOLS_PER_FRAME, 3),
    );
    let cmp = compare_models(&rx.arch, &env, 4).unwrap();
    assert!(cmp.is_accurate(), "{:?}", cmp.mismatches);
    assert!(
        (cmp.event_ratio() - 4.5).abs() < 1e-9,
        "event ratio {}",
        cmp.event_ratio()
    );
}

#[test]
fn derived_graph_is_near_the_papers_node_count() {
    // The paper reports an 11-node graph for this architecture. Our
    // mechanical derivation is larger; boundary-only simplification should
    // land in the same order of magnitude.
    let rx = receiver(Scenario::default()).unwrap();
    let derived = derive_tdg(&rx.arch).unwrap();
    assert_eq!(derived.tdg().node_count(), 1 + 9 + 9); // input + relations + exec ends + 1 start
    let reduced = simplify::simplify(
        derived.tdg(),
        &simplify::Options {
            preserve_observations: false,
        },
    );
    // 18 = input + 9 exchanges + 7 DSP exec-start nodes + the cross-
    // iteration exec-end (multi-predecessor nodes and nodes feeding delayed
    // arcs cannot be folded); the paper's hand-drawn 11-node graph merges
    // resource constraints into its exchange equations.
    assert!(
        reduced.node_count() <= 18,
        "reduced node count {} too large",
        reduced.node_count()
    );
}

#[test]
fn outputs_preserve_frame_structure() {
    let rx = receiver(Scenario::default()).unwrap();
    let frames = 4;
    let env = Environment::new().stimulus(rx.input, frame_stimulus(rx.scenario, frames, 17));
    let report = elaborate(&rx.arch, &env).unwrap().run();
    let outs = report.instants(rx.output);
    // One decoded block per symbol, strictly ordered.
    assert_eq!(outs.len(), (frames * SYMBOLS_PER_FRAME) as usize);
    assert!(outs.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn hybrid_abstract_dsp_chain_only() {
    // Partial abstraction: the seven DSP functions are computed; the turbo
    // decoder stays an event-driven process on its dedicated hardware.
    use evolve_core::partial::hybrid_simulation;
    let rx = receiver(Scenario::default()).unwrap();
    let group: Vec<evolve_model::FunctionId> =
        (0..7).map(evolve_model::FunctionId::from_index).collect();
    let env = Environment::new().stimulus(rx.input, frame_stimulus(rx.scenario, 5, 31));
    let conventional = elaborate(&rx.arch, &env).unwrap().run();
    let hybrid = hybrid_simulation(&rx.arch, &group, &env).unwrap().run();
    for ridx in 0..rx.arch.app().relations().len() {
        assert_eq!(
            conventional.relation_logs[ridx].write_instants,
            hybrid.run.relation_logs[ridx].write_instants,
            "relation {ridx}"
        );
    }
    assert!(hybrid.run.stats.activations < conventional.stats.activations);
}

#[test]
fn hybrid_abstract_decoder_only() {
    // Inverse split: only the decoder is computed.
    use evolve_core::partial::hybrid_simulation;
    let rx = receiver(Scenario::default()).unwrap();
    let env = Environment::new().stimulus(rx.input, frame_stimulus(rx.scenario, 4, 13));
    let conventional = elaborate(&rx.arch, &env).unwrap().run();
    let hybrid = hybrid_simulation(
        &rx.arch,
        &[evolve_model::FunctionId::from_index(7)],
        &env,
    )
    .unwrap()
    .run();
    for ridx in 0..rx.arch.app().relations().len() {
        assert_eq!(
            conventional.relation_logs[ridx].write_instants,
            hybrid.run.relation_logs[ridx].write_instants,
            "relation {ridx}"
        );
    }
}

#[test]
fn carrier_aggregation_equivalence() {
    // Two component carriers sharing a DSP: the equivalent model has two
    // coupled external inputs. Staggered stimuli exercise partial
    // iterations in the engine (one carrier ahead of the other).
    use evolve_lte::aggregated_receiver;
    let small = Scenario {
        bandwidth: Bandwidth::Mhz10,
        ..Scenario::default()
    };
    let rx = aggregated_receiver([Scenario::default(), small]).unwrap();
    let env = Environment::new()
        .stimulus(rx.inputs[0], frame_stimulus(rx.scenarios[0], 4, 51))
        .stimulus(rx.inputs[1], {
            // Offset the second carrier by half a symbol.
            let base = frame_stimulus(rx.scenarios[1], 4, 52);
            let arrivals = base
                .arrivals()
                .iter()
                .map(|a| evolve_model::Arrival {
                    at: a.at + evolve_des::Duration::from_ticks(35_710),
                    size: a.size,
                })
                .collect();
            evolve_model::Stimulus::new(arrivals)
        });
    assert_equivalent(&rx.arch, &env);
}

#[test]
fn carrier_aggregation_shares_the_dsp() {
    use evolve_lte::aggregated_receiver;
    let rx = aggregated_receiver([Scenario::default(), Scenario::default()]).unwrap();
    let env = Environment::new()
        .stimulus(rx.inputs[0], frame_stimulus(rx.scenarios[0], 3, 1))
        .stimulus(rx.inputs[1], frame_stimulus(rx.scenarios[1], 3, 2));
    let report = elaborate(&rx.arch, &env).unwrap().run();
    // Both carriers fully decoded.
    assert_eq!(report.instants(rx.outputs[0]).len(), 42);
    assert_eq!(report.instants(rx.outputs[1]).len(), 42);
    // The shared (double-speed) DSP carries both carriers' load.
    let trace = ResourceTrace::from_records(&report.exec_records, rx.dsp);
    let util = trace.utilization(report.end_time);
    assert!(util > 0.2 && util < 1.0, "utilization {util}");
}
