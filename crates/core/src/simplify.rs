//! Graph simplification passes.
//!
//! The complexity of `ComputeInstant()` "is related to the number of nodes
//! and arcs that are necessary to determine output evolution instants"
//! (paper Section III.C), and Fig. 5 shows speed-up degrading as node count
//! grows. Every derived graph already leaves derivation through an exact
//! reduction that drops redundant arcs and exec starts copying another
//! instant (Fig. 3 has 10 nodes; our derivation of the same example yields
//! 14, 19 before that reduction). These passes shrink a graph further
//! toward the paper's minimal hand-drawn form:
//!
//! * **chain contraction** — a non-observable node whose value is defined
//!   by a single same-iteration arc is folded into its successors
//!   (`⊗`-composing the weights);
//! * **dead-node elimination** — nodes from which no kept node is reachable
//!   are dropped;
//! * **duplicate-arc merging** — parallel constant arcs keep only the
//!   dominant one.
//!
//! Contraction is exact: with a single predecessor `s` and lag `w`,
//! `x_n(k) = x_s(k) ⊗ w` always (both sides share the instant-0 baseline
//! because all weights are non-negative), so rewiring `n`'s dependents to
//! `s` with composed lags preserves every remaining node's value.

use std::collections::BTreeMap;

use crate::tdg::{Arc, NodeId, NodeKind, Tdg, TdgBuilder};

/// What the simplifier must preserve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Options {
    /// Keep every observable node (internal exchanges, FIFO reads, and
    /// execution start/end instants) so resource usage can still be
    /// replayed. With `false`, only boundary nodes survive — maximum event
    /// savings, no internal observation (the paper's speed-oriented
    /// extreme).
    pub preserve_observations: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            preserve_observations: true,
        }
    }
}

/// Whether chain contraction and dead-node elimination must keep `node`:
/// the boundary always, and when observing every exchange, FIFO read and
/// execution instant. Derivation has already folded every exec start that
/// copies another instant, so an observing simplification keeps the
/// remaining starts and every exec end, and removes nothing from a
/// derived graph.
fn is_protected(tdg: &Tdg, node: usize, options: &Options, ack_nodes: &[NodeId]) -> bool {
    let kind = &tdg.nodes()[node].kind;
    match kind {
        NodeKind::Input { .. } | NodeKind::Output { .. } | NodeKind::OutputAck { .. } => true,
        NodeKind::Exchange { .. } => {
            // Boundary acknowledgments must survive — the reception process
            // reads them.
            options.preserve_observations || ack_nodes.contains(&NodeId(node))
        }
        NodeKind::FifoRead { .. } | NodeKind::ExecStart { .. } | NodeKind::ExecEnd { .. } => {
            options.preserve_observations
        }
        NodeKind::Padding => false,
    }
}

/// Applies all passes until a fixed point and returns the reduced graph.
///
/// Node ids are renumbered; inputs and outputs keep their relative order.
pub fn simplify(tdg: &Tdg, options: &Options) -> Tdg {
    // Boundary ack nodes: exchange nodes of relations that have an input
    // node.
    let ack_nodes: Vec<NodeId> = tdg
        .inputs()
        .iter()
        .filter_map(|&u| {
            if let NodeKind::Input { relation } = tdg.nodes()[u.index()].kind {
                tdg.exchange_node(relation)
            } else {
                None
            }
        })
        .collect();

    let n = tdg.node_count();
    let mut alive = vec![true; n];
    let mut arcs: Vec<Option<Arc>> = tdg.arcs().iter().cloned().map(Some).collect();

    // -- Chain contraction to fixpoint ---------------------------------
    loop {
        // Incoming arc indices per node.
        let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, arc) in arcs.iter().enumerate() {
            if let Some(a) = arc {
                incoming[a.dst.index()].push(i);
            }
        }
        let mut changed = false;
        for node in 0..n {
            if !alive[node] || is_protected(tdg, node, options, &ack_nodes) {
                continue;
            }
            let [only] = incoming[node][..] else { continue };
            let Some(in_arc) = arcs[only].clone() else {
                continue;
            };
            if in_arc.delay != 0 || in_arc.src.index() == node {
                continue;
            }
            // Rewire every outgoing arc of `node` to come from its source —
            // but only if all of them stay within the same iteration.
            // Folding across a delayed arc would (a) shift the iteration at
            // which data-dependent weights evaluate and (b) change the
            // pre-history boundary condition: the original node contributes
            // its instant-0 baseline through `k − d` references, whereas a
            // folded lag would wrongly delay dependents of the first
            // iterations.
            let out_ids: Vec<usize> = arcs
                .iter()
                .enumerate()
                .filter(|(_, a)| a.as_ref().is_some_and(|a| a.src.index() == node))
                .map(|(i, _)| i)
                .collect();
            if out_ids
                .iter()
                .any(|&i| arcs[i].as_ref().is_some_and(|a| a.delay != 0))
            {
                continue;
            }
            for oi in out_ids {
                let out = arcs[oi].as_mut().expect("listed above");
                out.src = in_arc.src;
                out.weight = in_arc.weight.compose(&out.weight);
            }
            arcs[only] = None;
            alive[node] = false;
            changed = true;
        }
        if !changed {
            break;
        }
    }

    // -- Dead-node elimination ------------------------------------------
    // Keep nodes that reach a protected node (any delay), plus protected
    // nodes themselves.
    let mut keep = vec![false; n];
    let mut stack: Vec<usize> = (0..n)
        .filter(|&i| alive[i] && is_protected(tdg, i, options, &ack_nodes))
        .collect();
    for &i in &stack {
        keep[i] = true;
    }
    // Walk arcs backwards: a node feeding a kept node is kept.
    let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, arc) in arcs.iter().enumerate() {
        if let Some(a) = arc {
            incoming[a.dst.index()].push(i);
        }
    }
    while let Some(node) = stack.pop() {
        for &ai in &incoming[node] {
            let src = arcs[ai].as_ref().expect("indexed").src.index();
            if alive[src] && !keep[src] {
                keep[src] = true;
                stack.push(src);
            }
        }
    }
    for i in 0..n {
        alive[i] &= keep[i];
    }

    // -- Duplicate-arc merging -------------------------------------------
    let mut best: BTreeMap<(usize, usize, u32), usize> = BTreeMap::new();
    for i in 0..arcs.len() {
        let Some(a) = arcs[i].clone() else { continue };
        if !alive[a.src.index()] || !alive[a.dst.index()] {
            arcs[i] = None;
            continue;
        }
        if !a.weight.is_constant() {
            continue;
        }
        let key = (a.src.index(), a.dst.index(), a.delay);
        match best.get(&key) {
            None => {
                best.insert(key, i);
            }
            Some(&j) => {
                let other = arcs[j].as_ref().expect("tracked");
                if other.weight.constant >= a.weight.constant {
                    arcs[i] = None;
                } else {
                    arcs[j] = None;
                    best.insert(key, i);
                }
            }
        }
    }

    // -- Rebuild ------------------------------------------------------------
    let mut remap: Vec<Option<NodeId>> = vec![None; n];
    let mut b = TdgBuilder::new();
    for i in 0..n {
        if alive[i] {
            let node = &tdg.nodes()[i];
            remap[i] = Some(b.add_node(node.name.clone(), node.kind));
        }
    }
    for arc in arcs.into_iter().flatten() {
        let (Some(src), Some(dst)) = (remap[arc.src.index()], remap[arc.dst.index()]) else {
            continue;
        };
        b.add_arc(src, dst, arc.delay, arc.weight);
    }
    b.build()
        .expect("simplification preserves acyclicity of the zero-delay subgraph")
}

/// Convenience: simplify keeping observations (the default trade-off).
pub fn simplify_default(tdg: &Tdg) -> Tdg {
    simplify(tdg, &Options::default())
}

/// The exact reduction every derived graph gets, applied to the builder's
/// nodes and arcs before [`TdgBuilder::build`], so derivation emits the
/// reduced graph in one pass. Two rules:
///
/// * **redundant arcs** — a zero-lag constant arc `u → v` of delay `d` goes
///   when another path of two or more arcs runs from `u` to `v` with delays
///   summing to `d`;
/// * **copy exec-starts** — an `ExecStart` whose only remaining in-arc is a
///   same-iteration zero-lag constant arc is a copy of that arc's source:
///   its out-arcs move to the source, and the node goes.
///
/// Both keep every remaining instant. Lags are never negative and every
/// instant is folded with the baseline E, so the other path already gives
/// `x_v(k) ≥ x_u(k − d)`, and before iteration `d` the arc contributes
/// only E. Removing every such arc at once is a transitive reduction of
/// the unrolled graph, which is acyclic, so each removed arc keeps a path
/// of surviving arcs. A copy start equals its source at every iteration,
/// history included, so its out-arcs may carry any delay; its execution
/// record keeps its start, because the duration arc stashes its source's
/// instant ([`crate::compile`]'s stash-arc test). A graph with a
/// zero-delay cycle is left as it is, for `build` to reject.
pub(crate) fn reduce_derived(b: &mut TdgBuilder) {
    let n = b.nodes.len();
    // Out-arcs per node in CSR form, a topological order of the zero-delay
    // arcs, and each node's zero-delay level (longest zero-delay path to it).
    let mut first = vec![0usize; n + 1];
    let mut indeg = vec![0u32; n];
    for a in &b.arcs {
        first[a.src.0 + 1] += 1;
        indeg[a.dst.0] += u32::from(a.delay == 0);
    }
    for i in 0..n {
        first[i + 1] += first[i];
    }
    let mut out = vec![(0usize, 0u32); b.arcs.len()];
    let mut fill = first.clone();
    for a in &b.arcs {
        out[fill[a.src.0]] = (a.dst.0, a.delay);
        fill[a.src.0] += 1;
    }
    let mut order: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut level = vec![0u32; n];
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for &(w, delay) in &out[first[u]..first[u + 1]] {
            if delay == 0 {
                level[w] = level[w].max(level[u] + 1);
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    order.push(w);
                }
            }
        }
    }
    if order.len() < n {
        return;
    }
    // `low[x]`: the lowest level a delay-1 arc from `x` or from a zero-delay
    // descendant of `x` lands on.
    let mut low = vec![u32::MAX; n];
    for &x in order.iter().rev() {
        for &(w, delay) in &out[first[x]..first[x + 1]] {
            low[x] = low[x].min(match delay {
                0 => low[w],
                1 => level[w],
                _ => u32::MAX,
            });
        }
    }

    // Redundant arcs: a breadth-first search from `(u, 0)` for `(v, d)` over
    // (node, delay so far) states, the arc under test and its parallel
    // copies excluded, so any path found has two or more arcs. A state that
    // has spent the whole delay reaches `v` only along zero-delay arcs, so
    // it needs a lower level than `v`; one with a delay of 1 left needs a
    // delay-1 arc that lands no higher than `v`. The alternative paths of
    // derived graphs are a few arcs long: a search stops after
    // `SEARCH_STATES` states, and an arc whose search runs out (or whose
    // delay passes the 64 a state's delay mask holds) is kept, which keeps
    // derivation linear in the graph's size. `seen[x]`: the arc whose search
    // last visited `x`, and a mask of the delays it reached `x` with.
    const SEARCH_STATES: usize = 64;
    let mut seen = vec![(usize::MAX, 0u64); n];
    let mut queue: Vec<(usize, u32)> = Vec::new();
    let mut removed = vec![false; b.arcs.len()];
    for (ai, arc) in b.arcs.iter().enumerate() {
        let (u, v, d) = (arc.src.0, arc.dst.0, arc.delay);
        if !arc.weight.is_e() || d >= 64 {
            continue;
        }
        queue.clear();
        queue.push((u, 0));
        seen[u] = (ai, 1);
        let mut head = 0;
        'search: while head < queue.len().min(SEARCH_STATES) {
            let (x, j) = queue[head];
            head += 1;
            for &(w, delay) in &out[first[x]..first[x + 1]] {
                let j = j + delay;
                if j > d {
                    continue;
                }
                if j == d {
                    if w == v && (x, delay) != (u, d) {
                        removed[ai] = true;
                        break 'search;
                    }
                    if level[w] >= level[v] {
                        continue;
                    }
                } else if j + 1 == d && low[w] > level[v] {
                    continue;
                }
                if seen[w].0 != ai {
                    seen[w] = (ai, 0);
                }
                if seen[w].1 & (1 << j) == 0 {
                    seen[w].1 |= 1 << j;
                    queue.push((w, j));
                }
            }
        }
    }

    // Copy exec-starts, in topological order so a copy of a copy resolves
    // to the first source: `source[s]` is the node `s` copies.
    let mut in_arcs = vec![0u32; n];
    let mut only_in = vec![usize::MAX; n];
    for (ai, arc) in b.arcs.iter().enumerate() {
        if !removed[ai] {
            in_arcs[arc.dst.0] += 1;
            only_in[arc.dst.0] = ai;
        }
    }
    let mut source: Vec<usize> = (0..n).collect();
    for &s in &order {
        if !matches!(b.nodes[s].kind, NodeKind::ExecStart { .. }) || in_arcs[s] != 1 {
            continue;
        }
        let arc = &b.arcs[only_in[s]];
        if arc.delay == 0 && arc.weight.is_e() {
            source[s] = source[arc.src.0];
            removed[only_in[s]] = true;
        }
    }

    // Renumber the surviving nodes and rewrite the arcs.
    let mut remap = vec![NodeId(usize::MAX); n];
    let mut kept = 0;
    for (i, slot) in remap.iter_mut().enumerate() {
        if source[i] == i {
            *slot = NodeId(kept);
            kept += 1;
        }
    }
    let mut ai = 0;
    b.arcs.retain_mut(|arc| {
        let keep = !removed[ai];
        ai += 1;
        arc.src = remap[source[arc.src.0]];
        arc.dst = remap[arc.dst.0];
        keep
    });
    let mut i = 0;
    b.nodes.retain(|_| {
        i += 1;
        source[i - 1] == i - 1
    });
    for id in b.inputs.iter_mut().chain(&mut b.outputs) {
        *id = remap[id.0];
    }
    for (_, id) in &mut b.acks {
        *id = remap[id.0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive_tdg;
    use crate::tdg::Weight as W;
    use evolve_model::didactic;

    #[test]
    fn contraction_folds_unlimited_exec_starts() {
        let d = didactic::chained(1, didactic::Params::default()).unwrap();
        let derived = derive_tdg(&d.arch).unwrap();
        let full = derived.tdg().node_count();
        let reduced = simplify(
            derived.tdg(),
            &Options {
                preserve_observations: false,
            },
        );
        assert!(
            reduced.node_count() < full,
            "no reduction: {} -> {}",
            full,
            reduced.node_count()
        );
        // Boundary nodes survive.
        assert_eq!(reduced.inputs().len(), 1);
        assert_eq!(reduced.outputs().len(), 1);
        // The paper's hand graph for this example has 10 nodes; the
        // mechanical reduction should be in that vicinity.
        assert!(
            reduced.node_count() <= 12,
            "expected near-minimal graph, got {}",
            reduced.node_count()
        );
    }

    #[test]
    fn observation_preserving_mode_keeps_exchanges() {
        let d = didactic::chained(1, didactic::Params::default()).unwrap();
        let derived = derive_tdg(&d.arch).unwrap();
        let reduced = simplify(derived.tdg(), &Options::default());
        // All six exchange instants still present.
        let exchanges = reduced
            .nodes()
            .iter()
            .filter(|n| {
                matches!(
                    n.kind,
                    NodeKind::Exchange { .. } | NodeKind::Output { .. }
                )
            })
            .count();
        assert_eq!(exchanges, 6);
    }

    #[test]
    fn padding_is_removed_as_dead() {
        let d = didactic::chained(1, didactic::Params::default()).unwrap();
        let derived = derive_tdg(&d.arch).unwrap();
        let padded = crate::synthetic::pad(derived.tdg(), 50);
        assert_eq!(padded.node_count(), derived.tdg().node_count() + 50);
        let reduced = simplify(&padded, &Options::default());
        assert!(
            reduced.node_count() <= derived.tdg().node_count(),
            "padding nodes are dead and must be eliminated"
        );
    }

    #[test]
    fn duplicate_constant_arcs_keep_the_max() {
        let mut b = crate::tdg::TdgBuilder::new();
        let u = b.add_node(
            "u",
            NodeKind::Input {
                relation: evolve_model::RelationId::from_index(0),
            },
        );
        let y = b.add_node(
            "y",
            NodeKind::Output {
                relation: evolve_model::RelationId::from_index(1),
            },
        );
        b.add_arc(u, y, 0, W::constant(3));
        b.add_arc(u, y, 0, W::constant(9));
        b.add_arc(u, y, 1, W::constant(100)); // different delay: kept
        let tdg = b.build().unwrap();
        let reduced = simplify(&tdg, &Options::default());
        assert_eq!(reduced.arc_count(), 2);
        let max_const = reduced
            .arcs()
            .iter()
            .filter(|a| a.delay == 0)
            .map(|a| a.weight.constant)
            .max();
        assert_eq!(max_const, Some(9));
    }

    /// The exact reduction of derived graphs (`reduce_derived`) keeps
    /// every observable: each graph is evaluated reduced and unreduced on
    /// the worklist backend with observations on, and the outputs with
    /// their token sizes, the input acknowledgments, every relation's
    /// instants and the execution-record multiset must agree.
    mod reduction_is_exact {
        use crate::derive::{derive_unreduced, DeriveOptions, SizeRule, SizeRules};
        use crate::tdg::{ExecTerm, NodeKind, TdgBuilder, Weight};
        use crate::{DerivedTdg, Engine, EvalBackend};
        use evolve_des::Time;
        use evolve_model::{
            didactic, Application, Architecture, Behavior, Concurrency, ExecRecord, FunctionId,
            LoadModel, Mapping, Platform, RelationId, RelationKind, ResourceId, SizeModel,
        };
        use proptest::prelude::*;

        /// Everything a drive observes.
        #[derive(Debug, PartialEq)]
        struct Observed {
            outputs: Vec<(usize, u64, Time, u64)>,
            acks: Vec<Option<Time>>,
            instants: Vec<(Vec<Time>, Vec<Time>)>,
            records: Vec<ExecRecord>,
        }

        /// Drives one graph on the worklist with `offers` (gap, size); an
        /// acknowledged output is taken `ack_lag` ticks after emission.
        fn drive(
            b: TdgBuilder,
            rules: &SizeRules,
            relations: usize,
            offers: &[(u64, u64)],
            ack_lag: u64,
        ) -> Observed {
            let tdg = b.build().expect("causal graph");
            let derived = DerivedTdg::new(tdg, rules.clone());
            let mut e = Engine::with_backend(derived, relations, true, EvalBackend::Worklist);
            let outs = e.tdg().outputs().len();
            let (mut at, mut outputs, mut acks) = (0, Vec::new(), Vec::new());
            for (k, &(gap, size)) in offers.iter().enumerate() {
                at += gap;
                e.set_input(0, k as u64, Time::from_ticks(at), size);
                acks.push(e.ack_instant(0, k as u64));
                for j in 0..outs {
                    while let Some((ok, t, size)) = e.next_output(j) {
                        outputs.push((j, ok, t, size));
                        if e.needs_output_ack(j) {
                            e.set_output_ack(j, ok, t + evolve_des::Duration::from_ticks(ack_lag));
                        }
                    }
                }
            }
            let instants = (0..relations)
                .map(|r| (e.instants(r).to_vec(), e.read_instants(r).to_vec()))
                .collect();
            let mut records = e.exec_records().to_vec();
            records.sort_by_key(|r| (r.k, r.function, r.stmt, r.start));
            Observed {
                outputs,
                acks,
                instants,
                records,
            }
        }

        /// `b` evaluated unreduced and reduced.
        fn both(
            b: TdgBuilder,
            rules: &SizeRules,
            relations: usize,
            offers: &[(u64, u64)],
            ack_lag: u64,
        ) -> (Observed, Observed) {
            let mut reduced = b.clone();
            super::super::reduce_derived(&mut reduced);
            (
                drive(b, rules, relations, offers, ack_lag),
                drive(reduced, rules, relations, offers, ack_lag),
            )
        }

        fn offers() -> impl Strategy<Value = Vec<(u64, u64)>> {
            proptest::collection::vec((0u64..400, 1u64..64), 1..24)
        }

        /// A random DAG-with-delays as the suites draw them: node 0 is the
        /// input, the last node the output, delay-0 arcs go forward. Most
        /// constant arcs have a zero lag, inner nodes are exec starts,
        /// exec ends or padding, and each exec end gets at most one
        /// duration arc, as in a derived graph.
        fn random_graph() -> impl Strategy<Value = TdgBuilder> {
            (3usize..12)
                .prop_flat_map(|nodes| {
                    let kinds = proptest::collection::vec(0u8..3, nodes);
                    let arcs = proptest::collection::vec(
                        (
                            0..nodes,
                            0..nodes,
                            0u32..3,
                            prop_oneof![Just(0u64), 0u64..200],
                        ),
                        nodes..nodes * 3,
                    );
                    let durations = proptest::collection::vec(
                        proptest::option::of((0..nodes, 0u64..100)),
                        nodes,
                    );
                    (Just(nodes), kinds, arcs, durations)
                })
                .prop_map(|(nodes, kinds, arcs, durations)| {
                    let mut b = TdgBuilder::new();
                    let resource = ResourceId::from_index(0);
                    let ids: Vec<_> = (0..nodes)
                        .map(|i| {
                            let function = FunctionId::from_index(i);
                            let kind = match (i, kinds[i]) {
                                (0, _) => NodeKind::Input {
                                    relation: RelationId::from_index(0),
                                },
                                (i, _) if i == nodes - 1 => NodeKind::Output {
                                    relation: RelationId::from_index(1),
                                },
                                (_, 0) => NodeKind::ExecStart {
                                    function,
                                    stmt: 0,
                                    resource,
                                },
                                (_, 1) => NodeKind::ExecEnd {
                                    function,
                                    stmt: 0,
                                    resource,
                                },
                                _ => NodeKind::Padding,
                            };
                            b.add_node(format!("n{i}"), kind)
                        })
                        .collect();
                    let mut same_iteration = Vec::new();
                    for (src, dst, delay, lag) in arcs {
                        let (src, dst) = match (delay, src.cmp(&dst)) {
                            (0, std::cmp::Ordering::Equal) => continue,
                            (0, std::cmp::Ordering::Greater) => (dst, src),
                            _ => (src, dst),
                        };
                        if dst != 0 {
                            b.add_arc(ids[src], ids[dst], delay, Weight::constant(lag));
                            if delay == 0 {
                                same_iteration.push((src, dst));
                            }
                        }
                    }
                    // A duration reads the offered size only from a node
                    // that waits for the offer, as in a derived graph
                    // (`TdgBuilder::build` rejects the rest); delay-0 arcs
                    // go forward, so one pass in node order settles it.
                    let mut waits = vec![false; nodes];
                    waits[0] = true;
                    for (dst, duration) in durations.into_iter().enumerate() {
                        for &(src, _) in same_iteration.iter().filter(|a| a.1 == dst) {
                            waits[dst] |= waits[src];
                        }
                        let Some((src, base)) = duration else {
                            continue;
                        };
                        if kinds[dst] != 1 || dst == 0 || dst == nodes - 1 || src >= dst {
                            continue;
                        }
                        let term = ExecTerm {
                            function: FunctionId::from_index(dst),
                            stmt: 0,
                            load: LoadModel::PerUnit { base, per_unit: 1 },
                            speed: 1,
                            size_from: waits[src].then_some((RelationId::from_index(0), 0)),
                        };
                        b.add_arc(ids[src], ids[dst], 0, Weight::exec(term));
                        waits[dst] |= waits[src];
                    }
                    b
                })
        }

        /// The derived architectures: the didactic chain, the LTE receiver,
        /// a FIFO pipeline with capacity arcs, a two-server resource and a
        /// pipeline with an acknowledged output.
        fn architectures() -> Vec<(&'static str, Architecture, DeriveOptions)> {
            let plain = DeriveOptions::default;
            let fifo = {
                let mut app = Application::new();
                let input = app.add_input("in", RelationKind::Rendezvous);
                let q = app.add_relation("q", RelationKind::Fifo(2));
                let r = app.add_relation("r", RelationKind::Fifo(1));
                let out = app.add_output("out", RelationKind::Rendezvous);
                let load = |base| LoadModel::PerUnit { base, per_unit: 2 };
                let f1 =
                    app.add_function("F1", Behavior::new().read(input).execute(load(10)).write(q));
                let f2 = app.add_function("F2", Behavior::new().read(q).execute(load(30)).write(r));
                let f3 =
                    app.add_function("F3", Behavior::new().read(r).execute(load(20)).write(out));
                let mut platform = Platform::new();
                let p1 = platform.add_resource("P1", Concurrency::Sequential, 1);
                let p2 = platform.add_resource("P2", Concurrency::Sequential, 1);
                let mut mapping = Mapping::new();
                mapping.assign(f1, p1).assign(f2, p2).assign(f3, p1);
                Architecture::new(app, platform, mapping).unwrap()
            };
            let two_servers = {
                let mut app = Application::new();
                let input = app.add_input("in", RelationKind::Rendezvous);
                let m = app.add_relation("m", RelationKind::Rendezvous);
                let n = app.add_relation("n", RelationKind::Rendezvous);
                let out = app.add_output("out", RelationKind::Rendezvous);
                let load = |base| LoadModel::PerUnit { base, per_unit: 3 };
                let f1 = app.add_function(
                    "F1",
                    Behavior::new()
                        .read(input)
                        .execute(load(40))
                        .write(m)
                        .execute(load(5)),
                );
                let f2 = app.add_function("F2", Behavior::new().read(m).execute(load(60)).write(n));
                let f3 =
                    app.add_function("F3", Behavior::new().read(n).execute(load(50)).write(out));
                let mut platform = Platform::new();
                let p = platform.add_resource("P", Concurrency::Limited(2), 1);
                let mut mapping = Mapping::new();
                mapping.assign(f1, p).assign(f2, p).assign(f3, p);
                Architecture::new(app, platform, mapping).unwrap()
            };
            let acked = crate::synthetic::pipeline(3, 40, 2).unwrap();
            let acked_options = DeriveOptions {
                acked_outputs: [acked.output].into_iter().collect(),
            };
            vec![
                (
                    "didactic x1",
                    didactic::chained(1, Default::default()).unwrap().arch,
                    plain(),
                ),
                (
                    "didactic x2",
                    didactic::chained(2, Default::default()).unwrap().arch,
                    plain(),
                ),
                (
                    "LTE receiver",
                    evolve_lte::receiver(Default::default()).unwrap().arch,
                    plain(),
                ),
                ("FIFO pipeline", fifo, plain()),
                ("two-server resource", two_servers, plain()),
                ("acked output", acked.arch, acked_options),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn on_random_graphs(b in random_graph(), offers in offers()) {
                let rules = vec![
                    SizeRule::External,
                    SizeRule::Derived {
                        from: Some((RelationId::from_index(0), 0)),
                        model: SizeModel::Same,
                    },
                ];
                let (unreduced, reduced) = both(b, &rules, 2, &offers, 0);
                prop_assert_eq!(unreduced, reduced);
            }

            #[test]
            fn on_derived_architectures(offers in offers(), ack_lag in 0u64..300) {
                for (name, arch, options) in architectures() {
                    let (b, rules) = derive_unreduced(&arch, &options).unwrap();
                    let relations = arch.app().relations().len();
                    let before = b.nodes.len();
                    let (unreduced, reduced) = both(b, &rules, relations, &offers, ack_lag);
                    prop_assert!(!reduced.records.is_empty(), "{}: records", name);
                    prop_assert_eq!(unreduced, reduced, "{} ({} nodes unreduced)", name, before);
                }
            }
        }

        /// The reduction does remove arcs and exec starts on every derived
        /// architecture above, so the properties test something.
        #[test]
        fn reduces_every_derived_architecture() {
            for (name, arch, options) in architectures() {
                let (b, _) = derive_unreduced(&arch, &options).unwrap();
                let mut reduced = b.clone();
                super::super::reduce_derived(&mut reduced);
                assert!(reduced.arcs.len() < b.arcs.len(), "{name}: no arc removed");
                assert!(
                    reduced.nodes.len() < b.nodes.len(),
                    "{name}: no start removed"
                );
            }
        }
    }
}
