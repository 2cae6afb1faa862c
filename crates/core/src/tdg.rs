//! Temporal dependency graphs (paper Section III.C, Fig. 3).
//!
//! A [`Tdg`] expresses the time dependencies among evolution instants of an
//! architecture model: "each node corresponds to a specific evolution
//! instant and weights of arcs define intervals between instants. Traversing
//! this graph leads to successive computation of evolution instants."
//!
//! Nodes are instants *per iteration* `k`; an arc `(src → dst, delay d,
//! weight w)` contributes the term `x_src(k − d) ⊗ w` to the `⊕` (max)
//! defining `x_dst(k)`. Arcs with `delay ≥ 1` are the `X(k−1)` terms of the
//! paper's eqs. (1)–(6); weight `e` (a zero lag) is the identity arc of
//! Fig. 3. Weights may be constants or data-dependent execution durations
//! evaluated at computation time — that evaluation is exactly the dynamic
//! part of `ComputeInstant()`.

use evolve_model::{FunctionId, LoadModel, RelationId, ResourceId};

/// Identifier of a node within a [`Tdg`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What evolution instant a node stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// External input offer instant `u_i(k)`; set by the reception process.
    Input {
        /// The external input relation.
        relation: RelationId,
    },
    /// Exchange instant `xMi(k)` of a relation (write completion; for
    /// rendezvous relations this is also the read completion).
    Exchange {
        /// The relation.
        relation: RelationId,
    },
    /// Read-completion instant of a FIFO relation (distinct from the write).
    FifoRead {
        /// The relation.
        relation: RelationId,
    },
    /// Start instant of an execute statement on its resource.
    ExecStart {
        /// The executing function.
        function: FunctionId,
        /// Statement index within the behaviour.
        stmt: usize,
        /// The serving resource.
        resource: ResourceId,
    },
    /// End instant of an execute statement.
    ExecEnd {
        /// The executing function.
        function: FunctionId,
        /// Statement index within the behaviour.
        stmt: usize,
        /// The serving resource.
        resource: ResourceId,
    },
    /// Output instant `y_j(k)` — the emission instant for an external
    /// output relation.
    Output {
        /// The external output relation.
        relation: RelationId,
    },
    /// Acknowledged completion of an external output exchange, set by the
    /// emission process once the outside consumer actually took the token.
    /// Used for partial abstraction, where the group's internal progress
    /// may depend on when the environment consumed an output; like
    /// [`NodeKind::Input`], these nodes have no incoming arcs.
    OutputAck {
        /// The external output relation.
        relation: RelationId,
    },
    /// Synthetic computation-only node (used by the Fig. 5 padding
    /// experiments); its value is computed but observes nothing.
    Padding,
}

/// One data-dependent duration term: the load of an execute statement
/// divided by its resource speed, evaluated per iteration with the feeding
/// token size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecTerm {
    /// The executing function.
    pub function: FunctionId,
    /// Statement index of the execute.
    pub stmt: usize,
    /// The load model to evaluate.
    pub load: LoadModel,
    /// Resource speed in ops per tick.
    pub speed: u64,
    /// Relation whose token size feeds the load, with its iteration delay,
    /// or `None` when the function reads nothing.
    pub size_from: Option<(RelationId, u32)>,
}

/// An arc weight: a constant lag `⊗`-composed with zero or more execution
/// durations (composition arises from chain contraction in
/// [`simplify`](crate::simplify)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Weight {
    /// Constant part of the lag, in ticks.
    pub constant: u64,
    /// Data-dependent duration terms, summed.
    pub execs: Vec<ExecTerm>,
}

impl Weight {
    /// The identity weight `e` (zero lag).
    pub fn e() -> Self {
        Weight::default()
    }

    /// A constant lag.
    pub fn constant(ticks: u64) -> Self {
        Weight {
            constant: ticks,
            execs: Vec::new(),
        }
    }

    /// A single execution-duration term.
    pub fn exec(term: ExecTerm) -> Self {
        Weight {
            constant: 0,
            execs: vec![term],
        }
    }

    /// `⊗`-composition (lag addition) of two weights.
    #[must_use]
    pub fn compose(&self, other: &Weight) -> Weight {
        let mut execs = self.execs.clone();
        execs.extend(other.execs.iter().cloned());
        Weight {
            constant: self.constant + other.constant,
            execs,
        }
    }

    /// Returns `true` for the identity weight.
    pub fn is_e(&self) -> bool {
        self.constant == 0 && self.execs.is_empty()
    }

    /// Returns `true` when the weight has no data-dependent terms.
    pub fn is_constant(&self) -> bool {
        self.execs.is_empty()
    }
}

/// A dependency arc: `x_dst(k) ⊇ x_src(k − delay) ⊗ weight`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Arc {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Iteration delay `d` (0 = same iteration, 1 = the paper's `k−1`
    /// dependencies, `B` for FIFO capacity constraints).
    pub delay: u32,
    /// The time lag along the arc.
    pub weight: Weight,
}

/// A node of the graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// Diagnostic name (`"xM2"`, `"S(F1.1)"`, …).
    pub name: String,
    /// What instant this node stands for.
    pub kind: NodeKind,
}

/// A temporal dependency graph.
///
/// Build with [`TdgBuilder`]; derive automatically from an architecture with
/// [`derive_tdg`](crate::derive_tdg). Evaluate with
/// [`Engine`](crate::Engine).
#[derive(Clone, Debug)]
pub struct Tdg {
    pub(crate) nodes: Vec<Node>,
    pub(crate) arcs: Vec<Arc>,
    /// Incoming arc indices per node.
    pub(crate) incoming: Vec<Vec<usize>>,
    /// Outgoing arc indices per node.
    pub(crate) outgoing: Vec<Vec<usize>>,
    /// Input nodes in external-input order.
    pub(crate) inputs: Vec<NodeId>,
    /// Output nodes in external-output order.
    pub(crate) outputs: Vec<NodeId>,
    /// Output-acknowledgment nodes in external-output order (`None` for
    /// outputs consumed by an always-ready environment).
    pub(crate) output_acks: Vec<Option<NodeId>>,
    /// History depth: the deepest arc delay the graph was built with (see
    /// [`Tdg::max_delay`]).
    pub(crate) max_delay: u32,
}

impl Tdg {
    /// Number of nodes — the complexity measure of the paper's Fig. 5 and
    /// the "Number of nodes" column of Table I.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// The nodes, indexed by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The arcs.
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Input nodes (`u_i`), in external-input order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Output nodes (`y_j`), in external-output order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Output-acknowledgment nodes, aligned with [`Tdg::outputs`]; `None`
    /// for outputs without acknowledgment feedback.
    pub fn output_acks(&self) -> &[Option<NodeId>] {
        &self.output_acks
    }

    /// How many past iterations the history must keep: the deepest arc
    /// delay added to the builder. Derivation's exact reduction may remove
    /// the deepest arcs, but not this depth, so the pruning horizon and
    /// fast-forward eligibility stay those of the unreduced graph (and at
    /// or above every token-size read delay).
    pub fn max_delay(&self) -> u32 {
        self.max_delay
    }

    /// The node holding the exchange instant of `relation`, if present.
    pub fn exchange_node(&self, relation: RelationId) -> Option<NodeId> {
        self.nodes.iter().position(|n| {
            matches!(&n.kind, NodeKind::Exchange { relation: r } if *r == relation)
                || matches!(&n.kind, NodeKind::Output { relation: r } if *r == relation)
        })
        .map(NodeId)
    }

    /// Incoming arcs of a node.
    pub fn incoming_arcs(&self, node: NodeId) -> impl Iterator<Item = &Arc> + '_ {
        self.incoming[node.0].iter().map(move |&i| &self.arcs[i])
    }

    /// Outgoing arcs of a node.
    pub fn outgoing_arcs(&self, node: NodeId) -> impl Iterator<Item = &Arc> + '_ {
        self.outgoing[node.0].iter().map(move |&i| &self.arcs[i])
    }

    /// Topological order of the zero-delay subgraph.
    ///
    /// # Errors
    ///
    /// Returns the name of a node on a zero-delay cycle, which would make
    /// instants undefined.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, String> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for arc in &self.arcs {
            if arc.delay == 0 {
                indeg[arc.dst.0] += 1;
            }
        }
        let mut queue: std::collections::VecDeque<usize> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(NodeId(i));
            for &ai in &self.outgoing[i] {
                let arc = &self.arcs[ai];
                if arc.delay == 0 {
                    indeg[arc.dst.0] -= 1;
                    if indeg[arc.dst.0] == 0 {
                        queue.push_back(arc.dst.0);
                    }
                }
            }
        }
        if order.len() != n {
            let on_cycle = (0..n)
                .find(|&i| indeg[i] > 0)
                .expect("cycle implies positive in-degree");
            return Err(self.nodes[on_cycle].name.clone());
        }
        Ok(order)
    }

    /// Zero-delay levels of the graph given a topological order of its
    /// zero-delay subgraph: `level[n]` is the length of the longest
    /// zero-delay path ending in `n`. All of a node's same-iteration
    /// dependencies live in strictly lower levels, so evaluating level by
    /// level (the compiled backend's schedule) is dependency-safe.
    ///
    /// # Panics
    ///
    /// Debug-panics if `topo` is not a valid topological order.
    pub(crate) fn zero_delay_levels(&self, topo: &[NodeId]) -> Vec<u32> {
        debug_assert_eq!(topo.len(), self.nodes.len());
        #[cfg(debug_assertions)]
        {
            let mut pos = vec![usize::MAX; self.nodes.len()];
            for (p, &n) in topo.iter().enumerate() {
                pos[n.0] = p;
            }
            for arc in &self.arcs {
                if arc.delay == 0 {
                    debug_assert!(
                        pos[arc.src.0] < pos[arc.dst.0],
                        "topo order violates arc {} -> {}",
                        arc.src,
                        arc.dst
                    );
                }
            }
        }
        let mut level = vec![0u32; self.nodes.len()];
        for &node in topo {
            let mut l = 0u32;
            for &ai in &self.incoming[node.0] {
                let arc = &self.arcs[ai];
                if arc.delay == 0 {
                    l = l.max(level[arc.src.0] + 1);
                }
            }
            level[node.0] = l;
        }
        level
    }

    /// Renders the graph in Graphviz DOT format (for documentation and
    /// debugging; the paper's Fig. 3 rendered mechanically).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph tdg {\n  rankdir=LR;\n");
        for (i, node) in self.nodes.iter().enumerate() {
            let shape = match node.kind {
                NodeKind::Input { .. } => "diamond",
                NodeKind::Output { .. } => "doublecircle",
                NodeKind::Padding => "point",
                _ => "ellipse",
            };
            let _ = writeln!(out, "  n{i} [label=\"{}\" shape={shape}];", node.name);
        }
        for arc in &self.arcs {
            let mut label = if arc.weight.is_e() {
                "e".to_string()
            } else if arc.weight.is_constant() {
                format!("{}", arc.weight.constant)
            } else {
                format!("{}+{} exec", arc.weight.constant, arc.weight.execs.len())
            };
            if arc.delay > 0 {
                label.push_str(&format!(" (k-{})", arc.delay));
            }
            let style = if arc.delay > 0 { " style=dashed" } else { "" };
            let _ = writeln!(
                out,
                "  n{} -> n{} [label=\"{label}\"{style}];",
                arc.src.0, arc.dst.0
            );
        }
        out.push_str("}\n");
        out
    }
}

/// Incremental builder for a [`Tdg`].
#[derive(Clone, Debug, Default)]
pub struct TdgBuilder {
    pub(crate) nodes: Vec<Node>,
    pub(crate) arcs: Vec<Arc>,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) outputs: Vec<NodeId>,
    /// `(relation index, node)` of OutputAck nodes, matched to outputs at
    /// build time.
    pub(crate) acks: Vec<(usize, NodeId)>,
    /// Deepest delay of any arc added, removed ones included.
    max_delay: u32,
}

impl TdgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TdgBuilder::default()
    }

    /// Adds a node.
    pub fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        if matches!(kind, NodeKind::Input { .. }) {
            self.inputs.push(id);
        }
        if matches!(kind, NodeKind::Output { .. }) {
            self.outputs.push(id);
        }
        if let NodeKind::OutputAck { relation } = kind {
            self.acks.push((relation.index(), id));
        }
        self.nodes.push(Node {
            name: name.into(),
            kind,
        });
        id
    }

    /// Adds an arc.
    pub fn add_arc(&mut self, src: NodeId, dst: NodeId, delay: u32, weight: Weight) {
        self.max_delay = self.max_delay.max(delay);
        self.arcs.push(Arc {
            src,
            dst,
            delay,
            weight,
        });
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DeriveError::CausalityCycle`] if the zero-delay
    /// subgraph has a cycle.
    pub fn build(self) -> Result<Tdg, crate::DeriveError> {
        self.build_ordered().map(|(tdg, _)| tdg)
    }

    /// [`TdgBuilder::build`], also returning the topological order of the
    /// zero-delay subgraph that its cycle check computes.
    pub(crate) fn build_ordered(self) -> Result<(Tdg, Vec<NodeId>), crate::DeriveError> {
        let n = self.nodes.len();
        let mut incoming = vec![Vec::new(); n];
        let mut outgoing = vec![Vec::new(); n];
        for (i, arc) in self.arcs.iter().enumerate() {
            incoming[arc.dst.0].push(i);
            outgoing[arc.src.0].push(i);
        }
        // Align acknowledgment nodes with the output order.
        let output_acks = self
            .outputs
            .iter()
            .map(|&o| {
                let NodeKind::Output { relation } = self.nodes[o.index()].kind else {
                    unreachable!("outputs only lists output nodes");
                };
                self.acks
                    .iter()
                    .find(|(r, _)| *r == relation.index())
                    .map(|(_, n)| *n)
            })
            .collect();
        let tdg = Tdg {
            nodes: self.nodes,
            arcs: self.arcs,
            incoming,
            outgoing,
            inputs: self.inputs,
            outputs: self.outputs,
            output_acks,
            max_delay: self.max_delay,
        };
        match tdg.topo_order() {
            Ok(order) => Ok((tdg, order)),
            Err(node) => Err(crate::DeriveError::CausalityCycle { node }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(i: usize) -> RelationId {
        RelationId::from_index(i)
    }

    #[test]
    fn builder_round_trip() {
        let mut b = TdgBuilder::new();
        let u = b.add_node("u", NodeKind::Input { relation: rel(0) });
        let x = b.add_node("x", NodeKind::Exchange { relation: rel(0) });
        let y = b.add_node("y", NodeKind::Output { relation: rel(1) });
        b.add_arc(u, x, 0, Weight::e());
        b.add_arc(x, y, 0, Weight::constant(5));
        b.add_arc(y, x, 1, Weight::e()); // history arc: allowed
        let tdg = b.build().unwrap();
        assert_eq!(tdg.node_count(), 3);
        assert_eq!(tdg.arc_count(), 3);
        assert_eq!(tdg.inputs(), &[u]);
        assert_eq!(tdg.outputs(), &[y]);
        assert_eq!(tdg.max_delay(), 1);
        assert_eq!(tdg.exchange_node(rel(0)), Some(x));
        assert_eq!(tdg.incoming_arcs(x).count(), 2);
        assert_eq!(tdg.outgoing_arcs(x).count(), 1);
    }

    #[test]
    fn zero_delay_cycle_rejected() {
        let mut b = TdgBuilder::new();
        let a = b.add_node("a", NodeKind::Padding);
        let c = b.add_node("b", NodeKind::Padding);
        b.add_arc(a, c, 0, Weight::e());
        b.add_arc(c, a, 0, Weight::e());
        assert!(matches!(
            b.build(),
            Err(crate::DeriveError::CausalityCycle { .. })
        ));
    }

    #[test]
    fn delayed_cycle_accepted() {
        let mut b = TdgBuilder::new();
        let a = b.add_node("a", NodeKind::Padding);
        let c = b.add_node("b", NodeKind::Padding);
        b.add_arc(a, c, 0, Weight::e());
        b.add_arc(c, a, 1, Weight::e());
        assert!(b.build().is_ok());
    }

    #[test]
    fn topo_order_respects_arcs() {
        let mut b = TdgBuilder::new();
        let n0 = b.add_node("0", NodeKind::Padding);
        let n1 = b.add_node("1", NodeKind::Padding);
        let n2 = b.add_node("2", NodeKind::Padding);
        b.add_arc(n2, n1, 0, Weight::e());
        b.add_arc(n1, n0, 0, Weight::e());
        let tdg = b.build().unwrap();
        let order = tdg.topo_order().unwrap();
        let pos = |n: NodeId| order.iter().position(|&m| m == n).unwrap();
        assert!(pos(n2) < pos(n1));
        assert!(pos(n1) < pos(n0));
    }

    #[test]
    fn weight_composition() {
        let a = Weight::constant(3);
        let term = ExecTerm {
            function: FunctionId::from_index(0),
            stmt: 1,
            load: LoadModel::Constant(10),
            speed: 1,
            size_from: None,
        };
        let b = Weight::exec(term.clone());
        let c = a.compose(&b);
        assert_eq!(c.constant, 3);
        assert_eq!(c.execs, vec![term]);
        assert!(!c.is_e());
        assert!(Weight::e().is_e());
        assert!(Weight::constant(0).is_e());
    }

    #[test]
    fn dot_export_mentions_nodes() {
        let mut b = TdgBuilder::new();
        let u = b.add_node("u", NodeKind::Input { relation: rel(0) });
        let y = b.add_node("y", NodeKind::Output { relation: rel(0) });
        b.add_arc(u, y, 1, Weight::constant(7));
        let dot = b.build().unwrap().to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("label=\"u\""));
        assert!(dot.contains("(k-1)"));
        assert!(dot.contains("style=dashed"));
    }
}
