//! Golden test: the equivalent run's execution records *in emission order*
//! and every relation's instants, pinned by hash.
//!
//! `backend_conformance.rs` compares the record multiset only (the
//! worklist emits in pop order), so a change to the compiled sweep that
//! reorders records would pass it unseen. Record order is observable: the
//! equivalent run hands the log over as is, and `ResourceTrace`, the
//! telemetry fold and fast-forward's captured emissions all read it in
//! order.
//! This test hashes the log of the kernel-driven equivalent run of Table I
//! examples 1–4 and of the LTE receiver of Fig. 6, record by record, plus
//! each relation's write and read instants, and compares the hash with the
//! value the compiled sweep produced when the test was written.

use evolve_core::EquivalentModelBuilder;
use evolve_model::{didactic, varying_sizes, Architecture, Environment, Stimulus};

/// FNV-1a over 64-bit words: stable across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The hash of an equivalent run's record log, in order, and of every
/// relation's write and read instants; plus the record count.
fn run_hash(arch: &Architecture, env: &Environment) -> (u64, usize) {
    let report = EquivalentModelBuilder::new(arch)
        .build(env)
        .expect("equivalent model builds")
        .run();
    let mut h = Fnv::new();
    for r in &report.run.exec_records {
        h.word(r.resource.index() as u64);
        h.word(r.function.index() as u64);
        h.word(r.stmt as u64);
        h.word(r.k);
        h.word(r.start.ticks());
        h.word(r.end.ticks());
        h.word(r.ops);
    }
    for log in &report.run.relation_logs {
        h.word(log.write_instants.len() as u64);
        log.write_instants.iter().for_each(|t| h.word(t.ticks()));
        h.word(log.read_instants.len() as u64);
        log.read_instants.iter().for_each(|t| h.word(t.ticks()));
    }
    (h.0, report.run.exec_records.len())
}

#[test]
fn didactic_chains_keep_their_record_order() {
    let golden: [(u64, usize); 4] = [
        (6_471_360_015_137_613_532, 1800),
        (5_553_926_314_696_805_978, 3600),
        (15_484_625_456_727_982_310, 5400),
        (16_712_057_517_736_962_891, 7200),
    ];
    for (stages, expected) in (1..=4).zip(golden) {
        let d = didactic::chained(stages, didactic::Params::default()).unwrap();
        let stimulus = Stimulus::saturating(300, varying_sizes(1, 64, 4242));
        let env = Environment::new().stimulus(d.input(), stimulus);
        assert_eq!(
            run_hash(&d.arch, &env),
            expected,
            "Table I example {stages}"
        );
    }
}

#[test]
fn lte_receiver_keeps_its_record_order() {
    let rx = evolve_lte::receiver(evolve_lte::Scenario::default()).unwrap();
    let env = Environment::new().stimulus(rx.input, evolve_lte::frame_stimulus(rx.scenario, 2, 42));
    assert_eq!(
        run_hash(&rx.arch, &env),
        (3_160_678_782_792_481_495, 224),
        "LTE receiver"
    );
}
