//! Partial abstraction: grouping *some* architecture processes into an
//! equivalent model while the rest stays event-driven.
//!
//! The paper's formulation is general — "the proposed method allows some
//! of the architecture processes to be combined into a single equivalent
//! executable model as seen by the simulator" (Section I) — even though its
//! experiments abstract the whole application. This module implements the
//! general case: [`partition`] carves a function group (with its exclusive
//! resources) out of an architecture as a self-contained sub-architecture,
//! and [`hybrid_simulation`] runs the group through the computed equivalent
//! model while the remaining functions execute conventionally on the same
//! kernel.
//!
//! Two couplings make this harder than full abstraction:
//!
//! * **inbound** — offers on boundary inputs may come from event-driven
//!   producer functions, not just environment sources; the listen/accept
//!   protocol already handles that uniformly;
//! * **outbound** — a grouped producer blocks until the *outside* consumer
//!   actually takes the token, an instant the graph cannot compute. The
//!   derivation therefore adds [`NodeKind::OutputAck`] feedback nodes for
//!   such outputs ([`DeriveOptions::acked_outputs`]), and the emission
//!   process reports each real exchange instant back into the engine.
//!
//! [`NodeKind::OutputAck`]: crate::NodeKind::OutputAck
//! [`DeriveOptions::acked_outputs`]: crate::derive::DeriveOptions

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use evolve_des::{ChannelId, Kernel, Time};
use evolve_model::{
    attach_environment, spawn_function_processes, Application, Architecture, Environment,
    ExecRecord, FunctionId, Mapping, Platform, RelationId, RelationKind, ResourceId, RunReport,
    SharedTrace, Stmt, Token,
};
use evolve_obs::EngineCounters;

use crate::derive::{derive_tdg_with, DeriveOptions};
use crate::engine::Engine;
use crate::equivalent::{Emission, Reception};
use crate::error::EquivalentError;

/// Failure to carve a group out of an architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PartitionError {
    /// The group is empty.
    EmptyGroup,
    /// The group references a function outside the architecture.
    UnknownFunction {
        /// The offending id.
        function: FunctionId,
    },
    /// A resource hosts both grouped and ungrouped functions; the
    /// equivalent model cannot compute a schedule it shares with
    /// event-driven processes.
    SharedResource {
        /// The shared resource.
        resource: ResourceId,
        /// A grouped function on it.
        inside: FunctionId,
        /// An ungrouped function on it.
        outside: FunctionId,
    },
    /// The group has no inbound boundary relation, so no event ever
    /// triggers its computation.
    NoBoundaryInput,
}

impl core::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PartitionError::EmptyGroup => write!(f, "abstraction group is empty"),
            PartitionError::UnknownFunction { function } => {
                write!(f, "group references unknown function {function}")
            }
            PartitionError::SharedResource {
                resource,
                inside,
                outside,
            } => write!(
                f,
                "resource {resource} is shared by grouped {inside} and ungrouped {outside}"
            ),
            PartitionError::NoBoundaryInput => {
                write!(f, "group has no inbound boundary relation")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// A function group carved out as a self-contained sub-architecture.
#[derive(Clone, Debug)]
pub struct Partition {
    /// The sub-architecture (group functions, their relations, their
    /// resources), with boundary relations as external inputs/outputs.
    pub sub: Architecture,
    /// The grouped functions (original ids).
    pub group: Vec<FunctionId>,
    /// Original relation per sub-architecture relation index.
    pub sub_relation_to_orig: Vec<RelationId>,
    /// Original function per sub-architecture function index.
    pub sub_function_to_orig: Vec<FunctionId>,
    /// Original resource per sub-architecture resource index.
    pub sub_resource_to_orig: Vec<ResourceId>,
    /// Boundary inputs in sub-architecture external-input order (original
    /// relation ids).
    pub boundary_inputs: Vec<RelationId>,
    /// Boundary outputs in sub-architecture external-output order
    /// (original relation ids).
    pub boundary_outputs: Vec<RelationId>,
    /// Sub-architecture relations requiring output-acknowledgment feedback
    /// (their original consumer is an event-driven function).
    pub acked_outputs: BTreeSet<RelationId>,
}

impl Partition {
    /// Whether `function` (original id) belongs to the group.
    pub fn contains(&self, function: FunctionId) -> bool {
        self.group.contains(&function)
    }
}

/// Carves `group` out of `arch`.
///
/// # Errors
///
/// See [`PartitionError`]; notably, every resource used by the group must
/// be used *only* by the group.
pub fn partition(arch: &Architecture, group: &[FunctionId]) -> Result<Partition, PartitionError> {
    if group.is_empty() {
        return Err(PartitionError::EmptyGroup);
    }
    let app = arch.app();
    let n_functions = app.functions().len();
    let in_group = {
        let mut v = vec![false; n_functions];
        for f in group {
            if f.index() >= n_functions {
                return Err(PartitionError::UnknownFunction { function: *f });
            }
            v[f.index()] = true;
        }
        v
    };

    // Resource exclusivity.
    let mut resource_user: BTreeMap<usize, (FunctionId, bool)> = BTreeMap::new();
    for (f, r) in arch.mapping().allocations() {
        let inside = in_group[f.index()];
        match resource_user.get(&r.index()) {
            Some((other, other_inside)) if *other_inside != inside => {
                let (inside_f, outside_f) = if inside { (*f, *other) } else { (*other, *f) };
                return Err(PartitionError::SharedResource {
                    resource: *r,
                    inside: inside_f,
                    outside: outside_f,
                });
            }
            _ => {
                resource_user.insert(r.index(), (*f, inside));
            }
        }
    }

    // Relations touched by the group, in original order.
    let mut sub_app = Application::new();
    let mut orig_to_sub_rel: BTreeMap<usize, RelationId> = BTreeMap::new();
    let mut sub_relation_to_orig = Vec::new();
    let mut acked_outputs = BTreeSet::new();
    for (ridx, relation) in app.relations().iter().enumerate() {
        let produced_inside = relation.producer.is_some_and(|p| in_group[p.index()]);
        let consumed_inside = relation.consumer.is_some_and(|c| in_group[c.index()]);
        if !produced_inside && !consumed_inside {
            continue;
        }
        let sub_id = sub_app.add_relation(relation.name.clone(), relation.kind);
        orig_to_sub_rel.insert(ridx, sub_id);
        sub_relation_to_orig.push(RelationId::from_index(ridx));
        if produced_inside && !consumed_inside && relation.consumer.is_some() {
            // An event-driven consumer: the exchange instant must be fed
            // back by the emission.
            acked_outputs.insert(sub_id);
        }
    }

    // Group functions, behaviours remapped.
    let mut sub_function_to_orig = Vec::new();
    let mut orig_to_sub_fn: BTreeMap<usize, FunctionId> = BTreeMap::new();
    for (fidx, function) in app.functions().iter().enumerate() {
        if !in_group[fidx] {
            continue;
        }
        let mut behavior = evolve_model::Behavior::new();
        for stmt in function.behavior.stmts() {
            behavior = match stmt {
                Stmt::Read(r) => behavior.read(orig_to_sub_rel[&r.index()]),
                Stmt::Write(r) => behavior.write(orig_to_sub_rel[&r.index()]),
                Stmt::Execute(load) => behavior.execute(load.clone()),
            };
        }
        let sub_id =
            sub_app.add_function_with_size(function.name.clone(), behavior, function.size_model);
        orig_to_sub_fn.insert(fidx, sub_id);
        sub_function_to_orig.push(FunctionId::from_index(fidx));
    }

    // Group resources.
    let mut sub_platform = Platform::new();
    let mut orig_to_sub_res: BTreeMap<usize, ResourceId> = BTreeMap::new();
    let mut sub_resource_to_orig = Vec::new();
    for (ridx, resource) in arch.platform().resources().iter().enumerate() {
        let used_by_group = matches!(resource_user.get(&ridx), Some((_, true)));
        if !used_by_group {
            continue;
        }
        let sub_id = sub_platform.add_resource(
            resource.name.clone(),
            resource.concurrency,
            resource.speed_ops_per_tick,
        );
        orig_to_sub_res.insert(ridx, sub_id);
        sub_resource_to_orig.push(ResourceId::from_index(ridx));
    }

    // Mapping in original allocation (schedule) order.
    let mut sub_mapping = Mapping::new();
    for (f, r) in arch.mapping().allocations() {
        if in_group[f.index()] {
            sub_mapping.assign(orig_to_sub_fn[&f.index()], orig_to_sub_res[&r.index()]);
        }
    }

    let sub = Architecture::new(sub_app, sub_platform, sub_mapping)
        .expect("a validated architecture restricted to a group stays valid");

    let boundary_inputs: Vec<RelationId> = sub
        .app()
        .external_inputs()
        .into_iter()
        .map(|r| sub_relation_to_orig[r.index()])
        .collect();
    let boundary_outputs: Vec<RelationId> = sub
        .app()
        .external_outputs()
        .into_iter()
        .map(|r| sub_relation_to_orig[r.index()])
        .collect();
    if boundary_inputs.is_empty() {
        return Err(PartitionError::NoBoundaryInput);
    }

    Ok(Partition {
        sub,
        group: group.to_vec(),
        sub_relation_to_orig,
        sub_function_to_orig,
        sub_resource_to_orig,
        boundary_inputs,
        boundary_outputs,
        acked_outputs,
    })
}

/// A ready-to-run hybrid simulation: grouped functions computed, the rest
/// event-driven.
pub struct HybridSimulation {
    kernel: Kernel<Token>,
    channels: Vec<ChannelId>,
    engine: Rc<RefCell<Engine>>,
    trace: SharedTrace,
    partition: Partition,
    node_count: usize,
    relation_count: usize,
}

impl std::fmt::Debug for HybridSimulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridSimulation")
            .field("group", &self.partition.group)
            .field("nodes", &self.node_count)
            .finish()
    }
}

/// Results of a hybrid run, in the same shape as the other reports.
#[derive(Clone, Debug)]
pub struct HybridReport {
    /// Merged run results: kernel instants for event-driven and boundary
    /// relations, computed instants for group-internal ones; execution
    /// records merged from both sides (group records remapped to original
    /// function/resource ids).
    pub run: RunReport,
    /// Engine statistics of the computed group.
    pub engine_stats: EngineCounters,
    /// Node count of the executed graph.
    pub node_count: usize,
}

impl HybridReport {
    /// The write-exchange instants of a relation.
    pub fn instants(&self, relation: RelationId) -> &[Time] {
        self.run.instants(relation)
    }
}

/// Builds a hybrid simulation of `arch` with `group` abstracted.
///
/// # Errors
///
/// Returns partitioning, derivation, or environment errors.
pub fn hybrid_simulation(
    arch: &Architecture,
    group: &[FunctionId],
    env: &Environment,
) -> Result<HybridSimulation, EquivalentError> {
    let part = partition(arch, group)?;

    let derived = derive_tdg_with(
        &part.sub,
        &DeriveOptions {
            acked_outputs: part.acked_outputs.clone(),
        },
    )?;
    let node_count = derived.tdg().node_count();
    let sub_relation_count = part.sub.app().relations().len();
    let mut engine = Engine::new(derived, sub_relation_count, true);

    let mut kernel: Kernel<Token> = Kernel::new();
    // Channels for all original relations; boundary inputs of the group
    // become listen/accept rendezvous (FIFO timing is computed).
    let channels: Vec<ChannelId> = arch
        .app()
        .relations()
        .iter()
        .enumerate()
        .map(|(ridx, r)| {
            let rid = RelationId::from_index(ridx);
            if part.boundary_inputs.contains(&rid) {
                kernel.add_rendezvous()
            } else {
                match r.kind {
                    RelationKind::Rendezvous => kernel.add_rendezvous(),
                    RelationKind::Fifo(cap) => kernel.add_fifo(cap),
                }
            }
        })
        .collect();

    // Event-driven part.
    let trace: SharedTrace = Rc::new(RefCell::new(Vec::new()));
    spawn_function_processes(&mut kernel, arch, &channels, &trace, |f| !part.contains(f));

    // Computed part: wire events, then spawn receptions and emissions on
    // the boundary around the shared engine.
    let input_events: Vec<_> = (0..part.boundary_inputs.len())
        .map(|i| {
            let ev = kernel.add_event();
            engine.set_input_event(i, ev);
            ev
        })
        .collect();
    let output_events: Vec<_> = (0..part.boundary_outputs.len())
        .map(|j| {
            let ev = kernel.add_event();
            engine.set_output_event(j, ev);
            ev
        })
        .collect();
    let engine = Rc::new(RefCell::new(engine));

    for (i, orig_rel) in part.boundary_inputs.iter().enumerate() {
        let name = format!("reception:{}", arch.app().relation(*orig_rel).name);
        kernel.spawn(
            name.clone(),
            Reception {
                name,
                input_index: i,
                channel: channels[orig_rel.index()],
                engine: engine.clone(),
                ack_event: input_events[i],
                k: 0,
                pending: None,
            },
        );
    }
    for (j, orig_rel) in part.boundary_outputs.iter().enumerate() {
        let name = format!("emission:{}", arch.app().relation(*orig_rel).name);
        kernel.spawn(
            name.clone(),
            Emission {
                name,
                output_index: j,
                channel: channels[orig_rel.index()],
                engine: engine.clone(),
                ready_event: output_events[j],
                pending: None,
                writing: false,
            },
        );
    }

    // Environment for the original architecture's external relations.
    let total_inputs: u64 = env.stimuli.values().map(|s| s.len() as u64).sum();
    attach_environment(&mut kernel, arch, env, &channels, Some(total_inputs))?;

    Ok(HybridSimulation {
        kernel,
        channels,
        engine,
        trace,
        relation_count: arch.app().relations().len(),
        partition: part,
        node_count,
    })
}

impl HybridSimulation {
    /// Mutable access to the kernel (e.g. for dispatch-cost calibration).
    pub fn kernel_mut(&mut self) -> &mut Kernel<Token> {
        &mut self.kernel
    }

    /// Node count of the graph driving the computed group.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The partition being executed.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Runs to completion and merges the two observation worlds.
    pub fn run(mut self) -> HybridReport {
        let wall_start = std::time::Instant::now();
        let end_time = self.kernel.run();
        let wall = wall_start.elapsed();
        let stats = self.kernel.stats();
        let kernel_logs: Vec<evolve_des::ChannelLog> = self
            .channels
            .iter()
            .map(|ch| self.kernel.channel_log(*ch).clone())
            .collect();
        drop(self.kernel);
        let engine = Rc::try_unwrap(self.engine)
            .map(RefCell::into_inner)
            .unwrap_or_else(|_| panic!("engine uniquely owned after run"));
        let engine_stats = engine.stats();

        // Sub-relation index per original relation, for merging.
        let mut orig_to_sub = vec![None; self.relation_count];
        for (sub_idx, orig) in self.partition.sub_relation_to_orig.iter().enumerate() {
            orig_to_sub[orig.index()] = Some(sub_idx);
        }
        let boundary: BTreeSet<usize> = self
            .partition
            .boundary_inputs
            .iter()
            .chain(&self.partition.boundary_outputs)
            .map(|r| r.index())
            .collect();
        let fifo_inputs: BTreeSet<usize> = self
            .partition
            .boundary_inputs
            .iter()
            .map(|r| r.index())
            .collect();

        let mut logs = engine.into_logs();
        let relation_logs = kernel_logs
            .into_iter()
            .enumerate()
            .map(|(ridx, mut log)| match orig_to_sub[ridx] {
                // Group-internal: computed instants.
                Some(sub_idx) if !boundary.contains(&ridx) => logs.take_channel(sub_idx),
                Some(sub_idx) if fifo_inputs.contains(&ridx) => {
                    // Boundary-in over an emulation rendezvous: reads are
                    // computed when the original relation was a FIFO.
                    let reads = logs.take_reads(sub_idx);
                    if !reads.is_empty() {
                        log.read_instants = reads;
                    }
                    log
                }
                _ => log,
            })
            .collect();

        // Merge execution records, remapping group ids back to originals.
        let mut exec_records: Vec<ExecRecord> = Rc::try_unwrap(self.trace)
            .map(RefCell::into_inner)
            .unwrap_or_else(|rc| rc.borrow().clone());
        exec_records.extend(logs.exec_records.iter().map(|r| ExecRecord {
            resource: self.partition.sub_resource_to_orig[r.resource.index()],
            function: self.partition.sub_function_to_orig[r.function.index()],
            ..*r
        }));

        HybridReport {
            run: RunReport {
                end_time,
                stats,
                relation_logs,
                exec_records,
                wall,
            },
            engine_stats,
            node_count: self.node_count,
        }
    }
}
