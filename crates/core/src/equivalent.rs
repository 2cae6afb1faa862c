//! The equivalent executable model (paper Section IV, Fig. 4).
//!
//! "The development of a model implementing the proposed computation method
//! can be seen as designing a SystemC module, which computes evolution
//! instants from received events, stores output evolution instants, and
//! generates output events accordingly."
//!
//! For each external input a `Reception` process listens for offers,
//! feeds them to the shared [`Engine`] (`ComputeInstant()`), and completes
//! the exchange at the *computed* boundary instant. For each external
//! output an `Emission` process replays the stored output instants
//! (`YStored` in the paper's Fig. 4) into the real output channel. All
//! internal exchanges and resource waits are computed, not simulated — only
//! boundary events reach the kernel.

use std::cell::RefCell;
use std::rc::Rc;

use evolve_des::{
    Activation, Api, ChannelId, Completion, EventId, Kernel, ListenOutcome, Time, WriteOutcome,
};
use evolve_model::{
    attach_environment, Architecture, Environment, RelationId, RelationKind, RunReport, Token,
};
use evolve_obs::EngineCounters;

use crate::compile::EvalBackend;
use crate::derive::derive_tdg;
use crate::engine::{Engine, Notification};
use crate::error::EquivalentError;
use crate::simplify;

type SharedEngine = Rc<RefCell<Engine>>;

/// Forwards engine notifications to the kernel: immediate ones in this
/// delta cycle, output notifications at their computed instants.
fn deliver(api: &mut Api<'_, Token>, notifications: impl Iterator<Item = Notification>) {
    for n in notifications {
        match n.at {
            Some(at) if at > api.now() => api.notify_after(n.event, at.since(api.now())),
            _ => api.notify(n.event),
        }
    }
}

/// Reception process of one external input (paper Fig. 4, left process).
pub(crate) struct Reception {
    pub(crate) name: String,
    pub(crate) input_index: usize,
    pub(crate) channel: ChannelId,
    pub(crate) engine: SharedEngine,
    pub(crate) ack_event: EventId,
    pub(crate) k: u64,
    /// Offer awaiting its computed acknowledgment instant.
    pub(crate) pending: Option<PendingOffer>,
}

pub(crate) struct PendingOffer {
    /// The acknowledgment instant, once computed.
    ack: Option<Time>,
}

impl evolve_des::Process<Token> for Reception {
    fn resume(&mut self, api: &mut Api<'_, Token>) -> Activation {
        // An Offer completion delivers a newly arrived offer.
        if let Some(Completion::Offer(at)) = api.take_completion() {
            let (_, token) = api
                .offered(self.channel)
                .expect("offer completion implies a parked writer");
            let mut engine = self.engine.borrow_mut();
            engine.set_input(self.input_index, self.k, at, token.size);
            let ack = engine.ack_instant(self.input_index, self.k);
            deliver(api, engine.drain_notifications());
            drop(engine);
            self.pending = Some(PendingOffer { ack });
        }
        loop {
            match &mut self.pending {
                None => {
                    // Wait for the next offer.
                    match api.listen(self.channel) {
                        ListenOutcome::Offered(at) => {
                            let (_, token) = api
                                .offered(self.channel)
                                .expect("offered outcome implies a parked writer");
                            let mut engine = self.engine.borrow_mut();
                            engine.set_input(self.input_index, self.k, at, token.size);
                            let ack = engine.ack_instant(self.input_index, self.k);
                            deliver(api, engine.drain_notifications());
                            drop(engine);
                            self.pending = Some(PendingOffer { ack });
                        }
                        ListenOutcome::Blocked => return Activation::Blocked,
                    }
                }
                Some(pending) => {
                    // Resolve the acknowledgment instant if not yet known.
                    if pending.ack.is_none() {
                        pending.ack = self
                            .engine
                            .borrow()
                            .ack_instant(self.input_index, self.k);
                        if pending.ack.is_none() {
                            // Depends on other inputs still to arrive.
                            return Activation::WaitEvent(self.ack_event);
                        }
                    }
                    let ack = pending.ack.expect("checked above");
                    if api.now() < ack {
                        return Activation::WaitFor(ack.since(api.now()));
                    }
                    // Complete the exchange at the computed instant.
                    let _token = api.accept(self.channel);
                    self.pending = None;
                    self.k += 1;
                }
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Emission process of one external output (paper Fig. 4, right process).
pub(crate) struct Emission {
    pub(crate) name: String,
    pub(crate) output_index: usize,
    pub(crate) channel: ChannelId,
    pub(crate) engine: SharedEngine,
    pub(crate) ready_event: EventId,
    /// Output currently being replayed: `(iteration, instant, size)`.
    pub(crate) pending: Option<(u64, Time, u64)>,
    /// Waiting for a blocked write to complete.
    pub(crate) writing: bool,
}

impl Emission {
    /// Feeds the actual exchange instant back to the engine when the
    /// output requires acknowledgment (partial abstraction: the outside
    /// consumer may have taken the token later than it was offered).
    fn acknowledge(&mut self, api: &mut Api<'_, Token>, k: u64) {
        let mut engine = self.engine.borrow_mut();
        if engine.needs_output_ack(self.output_index) {
            engine.set_output_ack(self.output_index, k, api.now());
            deliver(api, engine.drain_notifications());
        }
    }
}

impl evolve_des::Process<Token> for Emission {
    fn resume(&mut self, api: &mut Api<'_, Token>) -> Activation {
        if let Some(Completion::WriteDone) = api.take_completion() {
            debug_assert!(self.writing);
            self.writing = false;
            let (k, ..) = self.pending.take().expect("completion implies a pending write");
            self.acknowledge(api, k);
        }
        loop {
            match self.pending {
                None => {
                    let next = self.engine.borrow_mut().next_output(self.output_index);
                    match next {
                        Some(pair) => self.pending = Some(pair),
                        None => return Activation::WaitEvent(self.ready_event),
                    }
                }
                Some((k, y, size)) => {
                    if api.now() < y {
                        // The engine scheduled a timed notification for y
                        // when it computed the output, and it is still
                        // pending while the clock is short of y. One missed
                        // while parked on a blocked write was for an
                        // instant the clock has reached, so that output
                        // is written at once, here.
                        return Activation::WaitEvent(self.ready_event);
                    }
                    // The k-th output data is produced at instant y(k),
                    // carrying the computed token size for downstream
                    // data-dependent consumers.
                    match api.write(self.channel, Token::new(size, k)) {
                        WriteOutcome::Done => {
                            self.pending = None;
                            self.acknowledge(api, k);
                        }
                        WriteOutcome::Blocked => {
                            self.writing = true;
                            return Activation::Blocked;
                        }
                    }
                }
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Configures and builds equivalent models.
///
/// # Examples
///
/// ```
/// use evolve_core::EquivalentModelBuilder;
/// use evolve_model::{didactic, Environment, Stimulus};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = didactic::chained(1, didactic::Params::default())?;
/// let env = Environment::new()
///     .stimulus(d.input(), Stimulus::saturating(10, |k| k));
/// let sim = EquivalentModelBuilder::new(&d.arch)
///     .record_observations(true)
///     .build(&env)?;
/// let report = sim.run();
/// assert_eq!(report.run.instants(d.output()).len(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EquivalentModelBuilder<'a> {
    arch: &'a Architecture,
    record_observations: bool,
    simplify: Option<simplify::Options>,
    padding: usize,
    backend: EvalBackend,
}

impl<'a> EquivalentModelBuilder<'a> {
    /// Starts a builder for the given architecture.
    pub fn new(arch: &'a Architecture) -> Self {
        EquivalentModelBuilder {
            arch,
            record_observations: true,
            simplify: None,
            padding: 0,
            backend: EvalBackend::default(),
        }
    }

    /// Enables or disables observation replay (exchange-instant logs and
    /// execution records). Disabling trades observability for speed.
    #[must_use]
    pub fn record_observations(mut self, record: bool) -> Self {
        self.record_observations = record;
        self
    }

    /// Applies simplification passes to the derived graph before running.
    #[must_use]
    pub fn simplify(mut self, options: simplify::Options) -> Self {
        self.simplify = Some(options);
        self
    }

    /// Pads the graph with `extra` computation-only nodes (the Fig. 5
    /// complexity knob).
    #[must_use]
    pub fn padding(mut self, extra: usize) -> Self {
        self.padding = extra;
        self
    }

    /// Selects the engine evaluation backend (compiled CSR sweep by
    /// default; the worklist is the bitwise reference).
    #[must_use]
    pub fn backend(mut self, backend: EvalBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Derives the graph, applies configured transformations, and builds a
    /// runnable equivalent simulation.
    ///
    /// # Errors
    ///
    /// Returns an [`EquivalentError`] if derivation fails or the
    /// environment is incomplete.
    pub fn build(&self, env: &Environment) -> Result<EquivalentSimulation, EquivalentError> {
        let mut derived = derive_tdg(self.arch)?;
        if let Some(options) = &self.simplify {
            derived.map_tdg(|tdg| simplify::simplify(tdg, options));
        }
        if self.padding > 0 {
            derived.map_tdg(|tdg| crate::synthetic::pad(tdg, self.padding));
        }
        let node_count = derived.tdg().node_count();
        let relation_count = self.arch.app().relations().len();
        let mut engine =
            Engine::with_backend(derived, relation_count, self.record_observations, self.backend);

        let mut kernel: Kernel<Token> = Kernel::new();
        // Channels: boundary inputs become listen/accept rendezvous; other
        // relations keep their declared kind (internal ones stay unused).
        let channels: Vec<ChannelId> = self
            .arch
            .app()
            .relations()
            .iter()
            .map(|r| match (r.producer.is_none(), r.kind) {
                (true, _) | (_, RelationKind::Rendezvous) => kernel.add_rendezvous(),
                (false, RelationKind::Fifo(cap)) => kernel.add_fifo(cap),
            })
            .collect();

        let inputs = self.arch.app().external_inputs();
        let outputs = self.arch.app().external_outputs();
        let mut input_events = Vec::new();
        let mut output_events = Vec::new();
        for (i, _) in inputs.iter().enumerate() {
            let ev = kernel.add_event();
            engine.set_input_event(i, ev);
            input_events.push(ev);
        }
        for (j, _) in outputs.iter().enumerate() {
            let ev = kernel.add_event();
            engine.set_output_event(j, ev);
            output_events.push(ev);
        }

        let engine: SharedEngine = Rc::new(RefCell::new(engine));
        for (i, &input) in inputs.iter().enumerate() {
            let name = format!("reception:{}", self.arch.app().relation(input).name);
            kernel.spawn(
                name.clone(),
                Reception {
                    name,
                    input_index: i,
                    channel: channels[input.index()],
                    engine: engine.clone(),
                    ack_event: input_events[i],
                    k: 0,
                    pending: None,
                },
            );
        }
        for (j, &output) in outputs.iter().enumerate() {
            let name = format!("emission:{}", self.arch.app().relation(output).name);
            kernel.spawn(
                name.clone(),
                Emission {
                    name,
                    output_index: j,
                    channel: channels[output.index()],
                    engine: engine.clone(),
                    ready_event: output_events[j],
                    pending: None,
                    writing: false,
                },
            );
        }

        // The environment (sources/sinks) is identical to the conventional
        // model's, so boundary behaviour is directly comparable.
        let total_inputs: u64 = env.stimuli.values().map(|s| s.len() as u64).sum();
        attach_environment(&mut kernel, self.arch, env, &channels, Some(total_inputs))?;
        // Iterations the run can complete: no input offers more tokens than
        // its stimulus holds.
        let offers = inputs
            .iter()
            .filter_map(|r| env.stimuli.get(r))
            .map(|s| s.len())
            .max()
            .unwrap_or(0);

        let fifo_inputs: Vec<RelationId> = inputs
            .iter()
            .copied()
            .filter(|r| {
                matches!(
                    self.arch.app().relation(*r).kind,
                    RelationKind::Fifo(_)
                )
            })
            .collect();
        Ok(EquivalentSimulation {
            kernel,
            channels,
            engine,
            boundary: inputs.iter().chain(outputs.iter()).copied().collect(),
            fifo_inputs,
            node_count,
            offers,
        })
    }
}

/// A ready-to-run equivalent model.
pub struct EquivalentSimulation {
    kernel: Kernel<Token>,
    channels: Vec<ChannelId>,
    engine: SharedEngine,
    boundary: Vec<RelationId>,
    /// External inputs declared FIFO: their boundary channel is an
    /// emulation rendezvous, so read instants come from the engine.
    fifo_inputs: Vec<RelationId>,
    node_count: usize,
    /// Longest stimulus over the external inputs: the most offers any
    /// input receives, which bounds the iterations the run computes.
    offers: usize,
}

impl std::fmt::Debug for EquivalentSimulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EquivalentSimulation")
            .field("nodes", &self.node_count)
            .field("boundary", &self.boundary)
            .finish()
    }
}

/// Results of an equivalent-model run.
#[derive(Clone, Debug)]
pub struct EquivalentReport {
    /// The run results in the same shape as the conventional model's
    /// report: boundary instants from the kernel, internal instants and
    /// execution records replayed from the engine.
    pub run: RunReport,
    /// Engine computation statistics.
    pub engine_stats: EngineCounters,
    /// Node count of the executed graph.
    pub node_count: usize,
    /// Simulation events that crossed the kernel (boundary only).
    pub boundary_relation_events: u64,
}

impl EquivalentReport {
    /// The write-exchange instants of a relation.
    pub fn instants(&self, relation: RelationId) -> &[Time] {
        self.run.instants(relation)
    }
}

impl EquivalentSimulation {
    /// Node count of the graph driving `ComputeInstant()`.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Mutable access to the kernel (e.g. for dispatch-cost calibration).
    pub fn kernel_mut(&mut self) -> &mut Kernel<Token> {
        &mut self.kernel
    }

    /// Runs to completion.
    pub fn run(mut self) -> EquivalentReport {
        // The stimulus length bounds every observation log: reserving here
        // (not in `build`) keeps the run free of log regrowth.
        self.engine.borrow_mut().reserve_observations(self.offers);
        let wall_start = std::time::Instant::now();
        let end_time = self.kernel.run();
        let wall = wall_start.elapsed();
        let stats = self.kernel.stats();
        let boundary_relation_events = self.kernel.relation_events();
        let kernel_logs: Vec<evolve_des::ChannelLog> = self
            .channels
            .iter()
            .map(|ch| self.kernel.channel_log(*ch).clone())
            .collect();
        // Release the processes (they hold engine handles) so the engine
        // can be unwrapped and its logs moved out.
        drop(self.kernel);
        let engine = Rc::try_unwrap(self.engine)
            .map(RefCell::into_inner)
            .unwrap_or_else(|_| panic!("engine uniquely owned after run"));
        let engine_stats = engine.stats();
        let node_count = self.node_count;
        let mut logs = engine.into_logs();

        // Merge logs: boundary relations from the kernel (real events),
        // internal relations from the engine (computed observation).
        let relation_logs = kernel_logs
            .into_iter()
            .enumerate()
            .map(|(ridx, mut kernel_log)| {
                let rid = RelationId::from_index(ridx);
                if self.boundary.contains(&rid) {
                    if self.fifo_inputs.contains(&rid) {
                        // Acks (writes) are real events; the internal pop
                        // instants are computed by the engine.
                        kernel_log.read_instants = logs.take_reads(ridx);
                    }
                    kernel_log
                } else {
                    logs.take_channel(ridx)
                }
            })
            .collect();

        EquivalentReport {
            run: RunReport {
                end_time,
                stats,
                relation_logs,
                exec_records: logs.exec_records,
                wall,
            },
            engine_stats,
            node_count,
            boundary_relation_events,
        }
    }
}

/// Builds the equivalent model of an architecture with default options
/// (observations recorded, no simplification, no padding).
///
/// # Errors
///
/// Returns an [`EquivalentError`] if derivation fails or an external input
/// lacks a stimulus.
pub fn equivalent_simulation(
    arch: &Architecture,
    env: &Environment,
) -> Result<EquivalentSimulation, EquivalentError> {
    EquivalentModelBuilder::new(arch).build(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::zero_delay_dependent;
    use crate::periodic::FastForward;
    use crate::tdg::NodeKind;
    use evolve_model::{
        didactic, varying_sizes, Application, Behavior, Concurrency, LoadModel, Mapping, Platform,
        Stimulus,
    };

    const TOKENS: u64 = 300;

    /// `in → F1 → m (rendezvous) → F2 → q (FIFO 2) → F3 → out`, with F3
    /// slow enough that `q`'s reads trail its writes. Constant sizes keep
    /// the steady state periodic (fast-forward can promote).
    fn fifo_pipeline() -> (Architecture, Environment, RelationId, RelationId) {
        let mut app = Application::new();
        let input = app.add_input("in", RelationKind::Rendezvous);
        let m = app.add_relation("m", RelationKind::Rendezvous);
        let q = app.add_relation("q", RelationKind::Fifo(2));
        let out = app.add_output("out", RelationKind::Rendezvous);
        let per_unit = |base| LoadModel::PerUnit { base, per_unit: 2 };
        let f1 = app.add_function(
            "F1",
            Behavior::new().read(input).execute(per_unit(10)).write(m),
        );
        let f2 = app.add_function("F2", Behavior::new().read(m).execute(per_unit(20)).write(q));
        let f3 = app.add_function(
            "F3",
            Behavior::new().read(q).execute(per_unit(90)).write(out),
        );
        let mut platform = Platform::new();
        let p1 = platform.add_resource("P1", Concurrency::Sequential, 1);
        let p2 = platform.add_resource("P2", Concurrency::Sequential, 1);
        let mut mapping = Mapping::new();
        mapping.assign(f1, p1).assign(f2, p1).assign(f3, p2);
        let arch = Architecture::new(app, platform, mapping).unwrap();
        let env = Environment::new().stimulus(input, Stimulus::saturating(TOKENS, |_| 8));
        (arch, env, m, q)
    }

    /// Runs the model and checks that no observation log grew past what
    /// `run()` reserved, and that rendezvous relations report one log.
    fn check_logs(backend: EvalBackend, fast_forward: bool) {
        let (arch, env, m, q) = fifo_pipeline();
        let sim = EquivalentModelBuilder::new(&arch)
            .backend(backend)
            .build(&env)
            .unwrap();
        if fast_forward {
            sim.engine.borrow_mut().set_fast_forward(FastForward::On);
        }
        let report = sim.run();

        // What `reserve_observations` sets aside: every offer plus the
        // look-ahead iteration (when the graph has an input-independent
        // prefix) for each ExecEnd node and each exchanged relation.
        let derived = derive_tdg(&arch).unwrap();
        let tdg = derived.tdg();
        let execs = tdg
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::ExecEnd { .. }))
            .count();
        let iterations =
            TOKENS as usize + usize::from(zero_delay_dependent(tdg).iter().any(|d| !d));
        let records = &report.run.exec_records;
        assert!(!records.is_empty());
        assert_eq!(records.capacity(), iterations * execs, "exec records regrew");
        for rel in [m, q] {
            let log = &report.run.relation_logs[rel.index()];
            assert_eq!(log.write_instants.len(), TOKENS as usize);
            assert_eq!(log.write_instants.capacity(), iterations, "instant log regrew");
        }
        let (mlog, qlog) = (
            &report.run.relation_logs[m.index()],
            &report.run.relation_logs[q.index()],
        );
        assert!(mlog.read_instants == mlog.write_instants, "rendezvous: reads are writes");
        assert_eq!(qlog.read_instants.len(), TOKENS as usize);
        assert!(qlog.read_instants != qlog.write_instants, "FIFO reads trail writes");
    }

    #[test]
    fn compiled_run_logs_fit_the_reservation() {
        check_logs(EvalBackend::Compiled, false);
    }

    #[test]
    fn worklist_run_logs_fit_the_reservation() {
        check_logs(EvalBackend::Worklist, false);
    }

    #[test]
    fn fast_forwarded_run_logs_fit_the_reservation() {
        check_logs(EvalBackend::Compiled, true);
        // The same run does promote: template replay wrote those logs.
        let (arch, env, ..) = fifo_pipeline();
        let mut sim = EquivalentModelBuilder::new(&arch).build(&env).unwrap();
        let engine = Rc::clone(&sim.engine);
        engine.borrow_mut().set_fast_forward(FastForward::On);
        sim.kernel.run();
        let stats = engine.borrow().fast_forward_stats();
        assert!(stats.promotions >= 1, "{stats:?}");
        assert!(stats.fast_forwarded_iterations > TOKENS / 2, "{stats:?}");
    }

    /// Table I example 4 at 2 000 tokens: each token schedules at most two
    /// timed kernel entries, the reception's acknowledgment wait and the
    /// output notification that wakes the emission, which arms no timer
    /// of its own; activations stay at the 10 003 the run took when it did.
    #[test]
    fn emission_wakes_on_the_output_notification_alone() {
        const N: u64 = 2_000;
        let d = didactic::chained(4, didactic::Params::default()).unwrap();
        let env = Environment::new()
            .stimulus(d.input(), Stimulus::saturating(N, varying_sizes(1, 256, 4)));
        let stats = EquivalentModelBuilder::new(&d.arch).build(&env).unwrap().run().run.stats;
        assert!(stats.scheduled <= 2 * N, "{stats:?}");
        assert!(stats.activations <= 10_003, "{stats:?}");
    }
}
