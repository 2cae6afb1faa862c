//! Automatic derivation of a temporal dependency graph from an architecture.
//!
//! The paper hand-writes the (max,+) equations of its examples and notes
//! "we are currently developing a tool to support automatic generation of
//! temporal dependency graphs". This module is that tool: it symbolically
//! unrolls one generic iteration `k` of the statically scheduled,
//! non-preemptive architecture and emits one node per evolution instant
//! with arcs encoding exactly the operational semantics of the conventional
//! model in [`evolve_model::elaborate`]:
//!
//! * **program order** — a statement completes no earlier than its
//!   predecessor in the behaviour loop (wrap-around arcs carry delay 1);
//! * **rendezvous** — the exchange instant is the `⊕` (max) of
//!   producer-ready and consumer-ready instants (paper footnote 1);
//! * **FIFO capacity `B`** — the `k`-th write also waits for the
//!   `(k−B)`-th read (a delay-`B` arc), and the `k`-th read for the `k`-th
//!   write;
//! * **static resource schedule** — an execute's start waits for the start
//!   of the previous slot in the resource's cyclic order and for the end of
//!   the slot `servers` positions earlier (sequential resources:
//!   the previous slot's end), reproducing the arbiter of the model layer;
//! * **data-dependent durations** — each execute's end is its start `⊗` a
//!   [`Weight`] holding the statement's load model, evaluated per iteration
//!   with the feeding token size.
//!
//! Because both the conventional interpreter and this derivation encode the
//! same semantics, the computed evolution instants must match the simulated
//! ones exactly — asserted by [`crate::validate`] and the test suite, which
//! is the executable form of the paper's accuracy claim.

use evolve_model::{Architecture, FunctionId, RelationId, RelationKind, SizeModel, Stmt};

use crate::error::DeriveError;
use crate::tdg::{ExecTerm, NodeId, NodeKind, Tdg, TdgBuilder, Weight};

/// How a relation's token size is obtained during computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeRule {
    /// The relation is an external input; sizes arrive with the offers.
    External,
    /// Size is the producer's size model applied to the token it read from
    /// `from` (with the given iteration delay), or to size 0 if the
    /// producer never reads.
    Derived {
        /// Feeding relation and iteration delay, if any.
        from: Option<(RelationId, u32)>,
        /// The producer's size transformation.
        model: SizeModel,
    },
}

/// Where the k-th token's size of each relation comes from, indexed by
/// relation.
pub type SizeRules = Vec<SizeRule>;

/// A derived graph plus its size-propagation rules and the cached
/// topological order of its zero-delay subgraph.
///
/// The order is computed once, here, instead of on every
/// [`Engine`](crate::Engine) construction: derivation is the only place a
/// graph enters the evaluation pipeline, so the cache can never go stale —
/// the fields are private and every mutation path ([`DerivedTdg::replace_tdg`],
/// [`DerivedTdg::map_tdg`]) recomputes it.
#[derive(Clone, Debug)]
pub struct DerivedTdg {
    tdg: Tdg,
    size_rules: SizeRules,
    topo: Vec<NodeId>,
}

impl DerivedTdg {
    /// Wraps a built graph with its size rules, caching the topological
    /// order of the zero-delay subgraph.
    ///
    /// # Panics
    ///
    /// Panics if the zero-delay subgraph is cyclic — impossible for graphs
    /// out of [`TdgBuilder::build`](crate::TdgBuilder::build), which rejects
    /// such cycles as [`DeriveError::CausalityCycle`].
    pub fn new(tdg: Tdg, size_rules: SizeRules) -> Self {
        let topo = tdg
            .topo_order()
            .expect("built graphs have an acyclic zero-delay subgraph");
        DerivedTdg {
            tdg,
            size_rules,
            topo,
        }
    }

    /// The temporal dependency graph.
    pub fn tdg(&self) -> &Tdg {
        &self.tdg
    }

    /// Size rules, indexed by [`RelationId`].
    pub fn size_rules(&self) -> &[SizeRule] {
        &self.size_rules
    }

    /// The cached topological order of the zero-delay subgraph.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Replaces the graph (simplification, padding), recomputing the cached
    /// topological order.
    ///
    /// # Panics
    ///
    /// Panics if the new graph's zero-delay subgraph is cyclic.
    pub fn replace_tdg(&mut self, tdg: Tdg) {
        self.topo = tdg
            .topo_order()
            .expect("built graphs have an acyclic zero-delay subgraph");
        self.tdg = tdg;
    }

    /// Transforms the graph in place (e.g. `simplify`, `pad`), recomputing
    /// the cached topological order.
    pub fn map_tdg(&mut self, f: impl FnOnce(&Tdg) -> Tdg) {
        let next = f(&self.tdg);
        self.replace_tdg(next);
    }

    /// Decomposes into `(graph, size rules, topological order)`.
    pub fn into_parts(self) -> (Tdg, SizeRules, Vec<NodeId>) {
        (self.tdg, self.size_rules, self.topo)
    }
}

/// Finds the relation feeding statement `stmt` of `behavior`: the closest
/// preceding `Read` in program order (delay 0), else the last `Read` of the
/// previous iteration (delay 1), else `None`.
pub(crate) fn feeding_read(
    stmts: &[Stmt],
    stmt: usize,
) -> Option<(RelationId, u32)> {
    for s in (0..stmt).rev() {
        if let Stmt::Read(r) = stmts[s] {
            return Some((r, 0));
        }
    }
    for s in (stmt..stmts.len()).rev() {
        if let Stmt::Read(r) = stmts[s] {
            return Some((r, 1));
        }
    }
    None
}

/// Options controlling derivation.
#[derive(Clone, Debug, Default)]
pub struct DeriveOptions {
    /// External output relations whose exchange completion must be fed
    /// back by the emission process ([`NodeKind::OutputAck`] nodes). Use
    /// for partial abstraction, where the consumer outside the abstracted
    /// group is not always ready; outputs consumed by environment sinks
    /// need no feedback (the sink is always ready, so the exchange
    /// completes at the computed output instant).
    pub acked_outputs: std::collections::BTreeSet<RelationId>,
}

/// Derives the temporal dependency graph of an architecture.
///
/// # Errors
///
/// * [`DeriveError::SelfRendezvous`] — a function reads and writes the same
///   rendezvous relation.
/// * [`DeriveError::CausalityCycle`] — the same-iteration synchronizations
///   form a cycle (the modeled architecture would deadlock).
pub fn derive_tdg(arch: &Architecture) -> Result<DerivedTdg, DeriveError> {
    derive_tdg_with(arch, &DeriveOptions::default())
}

/// Derives the temporal dependency graph with explicit [`DeriveOptions`].
///
/// # Errors
///
/// See [`derive_tdg`].
pub fn derive_tdg_with(
    arch: &Architecture,
    options: &DeriveOptions,
) -> Result<DerivedTdg, DeriveError> {
    let (mut b, size_rules) = derive_unreduced(arch, options)?;
    crate::simplify::reduce_derived(&mut b);
    let (tdg, topo) = b.build_ordered()?;
    Ok(DerivedTdg {
        tdg,
        size_rules,
        topo,
    })
}

/// The derived graph before its exact reduction
/// ([`simplify::reduce_derived`](crate::simplify)), still in its builder,
/// and the size rules.
pub(crate) fn derive_unreduced(
    arch: &Architecture,
    options: &DeriveOptions,
) -> Result<(TdgBuilder, SizeRules), DeriveError> {
    let app = arch.app();
    let mut b = TdgBuilder::new();

    // Guard against rendezvous self-loops.
    for (fidx, function) in app.functions().iter().enumerate() {
        let stmts = function.behavior.stmts();
        for stmt in stmts {
            let Stmt::Write(r) = *stmt else { continue };
            if stmts.contains(&Stmt::Read(r))
                && matches!(app.relation(r).kind, RelationKind::Rendezvous)
            {
                return Err(DeriveError::SelfRendezvous {
                    function: FunctionId::from_index(fidx),
                    relation: r,
                });
            }
        }
    }

    // -- Nodes ---------------------------------------------------------
    // Per relation: the exchange node (write instant) and, for FIFOs with
    // an internal consumer, a distinct read node.
    let relations = app.relations().len();
    let mut input_node: Vec<Option<NodeId>> = vec![None; relations];
    let mut write_node: Vec<NodeId> = Vec::with_capacity(relations);
    let mut read_node: Vec<Option<NodeId>> = vec![None; relations];
    // Output-acknowledgment nodes for acked external outputs.
    let mut ack_node: Vec<Option<NodeId>> = vec![None; relations];

    for (ridx, relation) in app.relations().iter().enumerate() {
        let rid = RelationId::from_index(ridx);
        let external_input = relation.producer.is_none();
        let external_output = relation.consumer.is_none();
        if external_input {
            input_node[ridx] = Some(b.add_node(
                format!("u({})", relation.name),
                NodeKind::Input { relation: rid },
            ));
        }
        let wkind = if external_output {
            NodeKind::Output { relation: rid }
        } else {
            NodeKind::Exchange { relation: rid }
        };
        let wname = if external_output {
            format!("y({})", relation.name)
        } else {
            format!("x{}", relation.name)
        };
        let w = b.add_node(wname, wkind);
        write_node.push(w);
        if external_output && options.acked_outputs.contains(&rid) {
            // The producer continues only once the outside consumer took
            // the token; the emission process feeds that instant back.
            let ack = b.add_node(
                format!("ack({})", relation.name),
                NodeKind::OutputAck { relation: rid },
            );
            ack_node[ridx] = Some(ack);
        }
        match relation.kind {
            RelationKind::Rendezvous => {
                // Rendezvous: read completes with the write.
                read_node[ridx] = Some(w);
            }
            RelationKind::Fifo(_) => {
                if relation.consumer.is_some() {
                    let r = b.add_node(
                        format!("r{}", relation.name),
                        NodeKind::FifoRead { relation: rid },
                    );
                    read_node[ridx] = Some(r);
                }
            }
        }
    }

    // Per execute statement: start and end nodes, at `first_stmt[function]
    // + stmt` of one flat table.
    let mut first_stmt = Vec::with_capacity(app.functions().len());
    let mut exec_nodes: Vec<(NodeId, NodeId)> = Vec::new();
    for (fidx, function) in app.functions().iter().enumerate() {
        first_stmt.push(exec_nodes.len());
        let fid = FunctionId::from_index(fidx);
        let resource = arch
            .mapping()
            .resource_of(fid)
            .expect("validated architecture maps every function");
        for (sidx, stmt) in function.behavior.stmts().iter().enumerate() {
            let unused = NodeId(usize::MAX);
            exec_nodes.push((unused, unused));
            if matches!(stmt, Stmt::Execute(_)) {
                let s = b.add_node(
                    format!("S({}.{sidx})", function.name),
                    NodeKind::ExecStart {
                        function: fid,
                        stmt: sidx,
                        resource,
                    },
                );
                let e = b.add_node(
                    format!("E({}.{sidx})", function.name),
                    NodeKind::ExecEnd {
                        function: fid,
                        stmt: sidx,
                        resource,
                    },
                );
                exec_nodes[first_stmt[fidx] + sidx] = (s, e);
            }
        }
    }

    // Completion node of a statement. A write to an acked external output
    // completes at the acknowledged exchange instant, not at emission.
    let completion = |fidx: usize, sidx: usize| -> NodeId {
        let function = &app.functions()[fidx];
        match &function.behavior.stmts()[sidx] {
            Stmt::Read(r) => read_node[r.index()].expect("a read relation has a read node"),
            Stmt::Write(r) => ack_node[r.index()].unwrap_or(write_node[r.index()]),
            Stmt::Execute(_) => exec_nodes[first_stmt[fidx] + sidx].1,
        }
    };
    let exec_start = |fidx: usize, sidx: usize| exec_nodes[first_stmt[fidx] + sidx].0;

    // Predecessor (program order) of statement `sidx`: the previous
    // statement's completion, wrapping to the last statement with delay 1.
    let prev_of = |fidx: usize, sidx: usize| -> (NodeId, u32) {
        let m = app.functions()[fidx].behavior.stmts().len();
        if sidx == 0 {
            (completion(fidx, m - 1), 1)
        } else {
            (completion(fidx, sidx - 1), 0)
        }
    };

    // -- Arcs ------------------------------------------------------------
    for (fidx, function) in app.functions().iter().enumerate() {
        let fid = FunctionId::from_index(fidx);
        let resource = arch
            .mapping()
            .resource_of(fid)
            .expect("validated architecture maps every function");
        let res = arch.platform().resource(resource);
        let schedule = arch.schedule(resource);
        let sched_len = schedule.len();
        let stmts = function.behavior.stmts();

        for (sidx, stmt) in stmts.iter().enumerate() {
            let (prev, prev_delay) = prev_of(fidx, sidx);
            match stmt {
                Stmt::Read(r) => {
                    // Consumer readiness constrains the exchange (rendezvous)
                    // or the read node (FIFO).
                    let target = read_node[r.index()].expect("a read relation has a read node");
                    b.add_arc(prev, target, prev_delay, Weight::e());
                }
                Stmt::Write(r) => {
                    let target = write_node[r.index()];
                    b.add_arc(prev, target, prev_delay, Weight::e());
                }
                Stmt::Execute(load) => {
                    let (s, e) = exec_nodes[first_stmt[fidx] + sidx];
                    b.add_arc(prev, s, prev_delay, Weight::e());
                    // Resource schedule constraints.
                    if let Some(n) = res.concurrency.servers() {
                        let p = schedule
                            .position(fid, sidx)
                            .expect("execute statements are scheduled") as i64;
                        let len = sched_len as i64;
                        // Start-order arc from the previous slot's start.
                        let (pp, pd) = wrap_slot(p - 1, len);
                        let prev_slot = schedule.slots[pp];
                        b.add_arc(
                            exec_start(prev_slot.function.index(), prev_slot.stmt),
                            s,
                            pd,
                            Weight::e(),
                        );
                        // Server-release arc from the end of slot `p − n`.
                        let (rp, rd) = wrap_slot(p - i64::from(n), len);
                        let rel_slot = schedule.slots[rp];
                        b.add_arc(
                            completion(rel_slot.function.index(), rel_slot.stmt),
                            s,
                            rd,
                            Weight::e(),
                        );
                    }
                    // Duration arc.
                    b.add_arc(
                        s,
                        e,
                        0,
                        Weight::exec(ExecTerm {
                            function: fid,
                            stmt: sidx,
                            load: load.clone(),
                            speed: res.speed_ops_per_tick,
                            size_from: feeding_read(stmts, sidx),
                        }),
                    );
                }
            }
        }
    }

    // Relation-level arcs.
    for (ridx, relation) in app.relations().iter().enumerate() {
        let w = write_node[ridx];
        if let Some(u) = input_node[ridx] {
            // External input offer constrains the exchange.
            b.add_arc(u, w, 0, Weight::e());
        }
        match relation.kind {
            RelationKind::Rendezvous => {
                // Producer/consumer readiness arcs were added per statement.
            }
            RelationKind::Fifo(capacity) => {
                if let Some(r) = read_node[ridx] {
                    if r != w {
                        // Read k needs write k; write k needs read k − B.
                        b.add_arc(w, r, 0, Weight::e());
                        b.add_arc(r, w, capacity as u32, Weight::e());
                    }
                }
            }
        }
    }

    // Size rules per relation.
    let size_rules: SizeRules = app
        .relations()
        .iter()
        .enumerate()
        .map(|(ridx, relation)| match relation.producer {
            None => SizeRule::External,
            Some(pfid) => {
                let function = app.function(pfid);
                let stmts = function.behavior.stmts();
                let write_stmt = stmts
                    .iter()
                    .position(|s| matches!(s, Stmt::Write(r) if r.index() == ridx))
                    .expect("validated producer writes the relation");
                SizeRule::Derived {
                    from: feeding_read(stmts, write_stmt),
                    model: function.size_model,
                }
            }
        })
        .collect();

    Ok((b, size_rules))
}

/// Wraps a (possibly negative) slot position into `(index, iteration
/// delay)` within a cyclic schedule of length `len`.
fn wrap_slot(pos: i64, len: i64) -> (usize, u32) {
    debug_assert!(len > 0);
    if pos >= 0 {
        (pos as usize, 0)
    } else {
        let delay = (-pos + len - 1) / len;
        ((pos + delay * len) as usize, delay as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evolve_model::{
        didactic, Application, Behavior, Concurrency as C, LoadModel, Mapping, Platform,
    };

    #[test]
    fn wrap_slot_cases() {
        assert_eq!(wrap_slot(3, 4), (3, 0));
        assert_eq!(wrap_slot(0, 4), (0, 0));
        assert_eq!(wrap_slot(-1, 4), (3, 1));
        assert_eq!(wrap_slot(-4, 4), (0, 1));
        assert_eq!(wrap_slot(-5, 4), (3, 2));
        assert_eq!(wrap_slot(-1, 1), (0, 1));
    }

    #[test]
    fn feeding_read_scans_backwards_then_wraps() {
        let r0 = RelationId::from_index(0);
        let r1 = RelationId::from_index(1);
        let stmts = vec![
            Stmt::Read(r0),
            Stmt::Execute(LoadModel::Constant(1)),
            Stmt::Read(r1),
            Stmt::Execute(LoadModel::Constant(1)),
        ];
        assert_eq!(feeding_read(&stmts, 1), Some((r0, 0)));
        assert_eq!(feeding_read(&stmts, 3), Some((r1, 0)));
        // First statement: feeds from the previous iteration's last read.
        assert_eq!(feeding_read(&stmts, 0), Some((r1, 1)));
        let no_reads = vec![Stmt::Execute(LoadModel::Constant(1))];
        assert_eq!(feeding_read(&no_reads, 0), None);
    }

    #[test]
    fn didactic_derives() {
        let d = didactic::chained(1, didactic::Params::default()).unwrap();
        let derived = derive_tdg(&d.arch).unwrap();
        let tdg = derived.tdg();
        // 1 input + 6 relation nodes + 6 exec ends + the one exec start
        // that is no copy of another instant = 14 nodes.
        assert_eq!(tdg.node_count(), 14);
        assert_eq!(tdg.inputs().len(), 1);
        assert_eq!(tdg.outputs().len(), 1);
        assert!(tdg.max_delay() >= 1);
        // Every node except inputs has at least one incoming arc.
        for (i, node) in tdg.nodes().iter().enumerate() {
            if !matches!(node.kind, NodeKind::Input { .. }) {
                assert!(
                    tdg.incoming_arcs(crate::tdg::NodeId(i)).count() > 0,
                    "node {} has no deps",
                    node.name
                );
            }
        }
        // Size rules: M1 external, others derived.
        assert_eq!(derived.size_rules()[d.input().index()], SizeRule::External);
        assert!(matches!(
            derived.size_rules()[d.stages[0].m2.index()],
            SizeRule::Derived { .. }
        ));
        // The cached topological order covers every node and respects the
        // zero-delay arcs.
        let topo = derived.topo_order();
        assert_eq!(topo.len(), tdg.node_count());
        let pos: std::collections::BTreeMap<_, _> =
            topo.iter().enumerate().map(|(p, &n)| (n, p)).collect();
        for arc in tdg.arcs() {
            if arc.delay == 0 {
                assert!(pos[&arc.src] < pos[&arc.dst]);
            }
        }
    }

    #[test]
    fn self_rendezvous_rejected() {
        let mut app = Application::new();
        let input = app.add_input("in", evolve_model::RelationKind::Rendezvous);
        let selfr = app.add_relation("self", evolve_model::RelationKind::Rendezvous);
        let f = app.add_function(
            "F",
            Behavior::new().read(input).write(selfr).read(selfr),
        );
        let mut platform = Platform::new();
        let p = platform.add_resource("P", C::Sequential, 1);
        let mut mapping = Mapping::new();
        mapping.assign(f, p);
        let arch = Architecture::new(app, platform, mapping).unwrap();
        assert!(matches!(
            derive_tdg(&arch),
            Err(DeriveError::SelfRendezvous { .. })
        ));
    }

    #[test]
    fn rendezvous_cycle_is_causality_error() {
        // F1 writes a to F2 and reads b from F2; F2 reads a then writes b —
        // but F1 writes a *after* reading b: a zero-delay cycle.
        let mut app = Application::new();
        let a = app.add_relation("a", evolve_model::RelationKind::Rendezvous);
        let bb = app.add_relation("b", evolve_model::RelationKind::Rendezvous);
        let f1 = app.add_function("F1", Behavior::new().read(bb).write(a));
        let f2 = app.add_function("F2", Behavior::new().read(a).write(bb));
        let mut platform = Platform::new();
        let p = platform.add_resource("P", C::Unlimited, 1);
        let mut mapping = Mapping::new();
        mapping.assign(f1, p).assign(f2, p);
        let arch = Architecture::new(app, platform, mapping).unwrap();
        // x_a(k) needs x_b(k) (F1 ready) and x_b(k) needs x_a(k) (F2 ready).
        assert!(matches!(
            derive_tdg(&arch),
            Err(DeriveError::CausalityCycle { .. })
        ));
    }

    #[test]
    fn fifo_capacity_appears_as_delay_arc() {
        let mut app = Application::new();
        let input = app.add_input("in", evolve_model::RelationKind::Rendezvous);
        let q = app.add_relation("q", evolve_model::RelationKind::Fifo(4));
        let out = app.add_output("out", evolve_model::RelationKind::Rendezvous);
        let f1 = app.add_function(
            "F1",
            Behavior::new()
                .read(input)
                .execute(LoadModel::Constant(5))
                .write(q),
        );
        let f2 = app.add_function(
            "F2",
            Behavior::new()
                .read(q)
                .execute(LoadModel::Constant(5))
                .write(out),
        );
        let mut platform = Platform::new();
        let p1 = platform.add_resource("P1", C::Sequential, 1);
        let p2 = platform.add_resource("P2", C::Sequential, 1);
        let mut mapping = Mapping::new();
        mapping.assign(f1, p1).assign(f2, p2);
        let arch = Architecture::new(app, platform, mapping).unwrap();
        let derived = derive_tdg(&arch).unwrap();
        assert!(
            derived
                .tdg()
                .arcs()
                .iter()
                .any(|a| a.delay == 4),
            "capacity-4 fifo produces a delay-4 arc"
        );
        assert_eq!(derived.tdg().max_delay(), 4);
    }
}
