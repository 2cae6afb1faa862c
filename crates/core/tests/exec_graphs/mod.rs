//! Random DAGs-with-delays whose arcs carry execution durations, for the
//! backend conformance suite.
//!
//! The suites' constant-weight DAGs and derived pipelines give the compiled
//! sweep's single exec arc only one form: a per-unit load at speed 1
//! reading its token size at the swept iteration. Here every node between
//! the input and the output ends an execution of its own statement, and an
//! arc may carry a constant, per-unit or uniform load at speed 1 or 3, a
//! lag, and a token-size read of the input relation up to two iterations
//! back. So a slot with one exec arc lowers both ways: inline (an affine
//! term reading its size at the swept iteration, at any speed and lag) and
//! through the duration table (a non-affine load, or a delayed size read).
//! [`exec1_forms`] names the forms a graph's slots take, for the suites'
//! reachability tests.

use std::collections::HashSet;

use evolve_core::{
    DerivedTdg, Engine, EvalBackend, ExecTerm, NodeKind, SizeRule, SlotShape, Tdg, TdgBuilder,
    Weight,
};
use evolve_model::{FunctionId, LoadModel, RelationId, ResourceId, SizeModel};
use proptest::prelude::*;

/// One arc's execution term.
#[derive(Debug, Clone, Copy)]
pub struct TermSpec {
    /// 0: constant, 1: per-unit, 2: uniform (not affine).
    pub load: u8,
    pub base: u64,
    pub per_unit: u64,
    pub speed: u64,
    /// Iteration delay of the input-size read, or `None` for no read.
    pub size_delay: Option<u32>,
}

impl TermSpec {
    fn term(self, function: usize) -> ExecTerm {
        let load = match self.load {
            0 => LoadModel::Constant(self.base),
            1 => LoadModel::PerUnit {
                base: self.base,
                per_unit: self.per_unit,
            },
            _ => LoadModel::Uniform {
                min: self.base,
                max: self.base + 50,
                seed: 7,
            },
        };
        ExecTerm {
            function: FunctionId::from_index(function),
            stmt: 0,
            load,
            speed: self.speed,
            size_from: self.size_delay.map(|d| (RelationId::from_index(0), d)),
        }
    }
}

/// A random DAG-with-delays: node 0 is the input (relation 0), the last
/// node the output (relation 1), every other node an `ExecEnd`.
#[derive(Debug, Clone)]
pub struct ExecGraphSpec {
    pub nodes: usize,
    /// `(src, dst, delay, lag, term)`.
    pub arcs: Vec<(usize, usize, u32, u64, Option<TermSpec>)>,
    /// `(instant, token size)` per offer, instants non-decreasing.
    pub offers: Vec<(u64, u64)>,
}

fn term_spec() -> impl Strategy<Value = TermSpec> {
    let speed = prop_oneof![Just(1u64), Just(3u64)];
    let size_delay = prop_oneof![Just(None), Just(Some(0u32)), (1u32..3).prop_map(Some)];
    (0u8..3, 0u64..200, 0u64..4, speed, size_delay).prop_map(
        |(load, base, per_unit, speed, size_delay)| TermSpec {
            load,
            base,
            per_unit,
            speed,
            size_delay,
        },
    )
}

pub fn exec_graph_spec() -> impl Strategy<Value = ExecGraphSpec> {
    (3usize..10)
        .prop_flat_map(|nodes| {
            let lag = prop_oneof![3 => Just(0u64), 1 => 1u64..50];
            let term = prop_oneof![3 => term_spec().prop_map(Some), 2 => Just(None)];
            let arcs = proptest::collection::vec(
                (0..nodes, 0..nodes, 0u32..3, lag, term),
                nodes..nodes * 2,
            );
            let offers = proptest::collection::vec((0u64..2_000, 1u64..64), 2..12);
            (Just(nodes), arcs, offers)
        })
        .prop_map(|(nodes, raw_arcs, mut offers)| {
            // Delay-0 arcs forward keeps the graph causal.
            let mut arcs: Vec<_> = raw_arcs
                .into_iter()
                .map(|(a, b, delay, lag, term)| {
                    if delay == 0 {
                        let (lo, hi) = if a == b { (a, (a + 1) % nodes) } else { (a, b) };
                        (lo.min(hi), lo.max(hi), 0, lag, term)
                    } else {
                        (a, b, delay, lag, term)
                    }
                })
                .filter(|&(a, b, d, _, _)| !(a == b && d == 0) && b != 0)
                .collect();
            // Size reads stay within the history the graph keeps (its
            // deepest arc delay), and a read of the swept iteration's size
            // sits on a same-iteration arc from a node that waits for the
            // offer: derived graphs read a size only once its token has
            // arrived, and the two backends resolve other arcs at different
            // moments relative to the offer.
            let horizon = arcs.iter().map(|a| a.2).max().unwrap_or(0);
            let mut waits = vec![false; nodes];
            waits[0] = true;
            for _ in 0..nodes {
                for &(a, b, d, _, _) in &arcs {
                    waits[b] |= d == 0 && waits[a];
                }
            }
            for arc in &mut arcs {
                let offered = arc.2 == 0 && waits[arc.0];
                if let Some(t) = &mut arc.4 {
                    t.size_delay = match t.size_delay {
                        Some(0) if !offered => (horizon > 0).then_some(1),
                        d => d.map(|d| d.min(horizon)),
                    };
                }
            }
            // At most one duration arc (lag 0, one term) per `ExecEnd`: a
            // second would make the recorded start depend on which arc
            // resolves last, which derived graphs never leave open.
            let mut stashed = vec![false; nodes];
            for arc in &mut arcs {
                let end = arc.1 != nodes - 1;
                if end && arc.3 == 0 && arc.4.is_some() {
                    if stashed[arc.1] {
                        arc.3 = 1;
                    }
                    stashed[arc.1] = true;
                }
            }
            let mut at = 0u64;
            for o in &mut offers {
                at += o.0;
                o.0 = at;
            }
            ExecGraphSpec {
                nodes,
                arcs,
                offers,
            }
        })
}

pub fn build(spec: &ExecGraphSpec) -> Tdg {
    let mut b = TdgBuilder::new();
    let ids: Vec<_> = (0..spec.nodes)
        .map(|i| {
            let kind = if i == 0 {
                NodeKind::Input {
                    relation: RelationId::from_index(0),
                }
            } else if i == spec.nodes - 1 {
                NodeKind::Output {
                    relation: RelationId::from_index(1),
                }
            } else {
                NodeKind::ExecEnd {
                    function: FunctionId::from_index(i),
                    stmt: 0,
                    resource: ResourceId::from_index(i % 2),
                }
            };
            b.add_node(format!("n{i}"), kind)
        })
        .collect();
    for &(src, dst, delay, lag, term) in &spec.arcs {
        let weight = match term {
            Some(t) => Weight::constant(lag).compose(&Weight::exec(t.term(dst))),
            None => Weight::constant(lag),
        };
        b.add_arc(ids[src], ids[dst], delay, weight);
    }
    b.build()
        .expect("forward delay-0 arcs keep the graph causal")
}

/// An observing engine of `tdg` on `backend`.
pub fn engine_for(tdg: &Tdg, backend: EvalBackend) -> Engine {
    let derived = DerivedTdg::new(
        tdg.clone(),
        vec![
            SizeRule::External,
            SizeRule::Derived {
                from: None,
                model: SizeModel::Same,
            },
        ],
    );
    Engine::with_backend(derived, 2, true, backend)
}

/// The forms the single exec arcs of a compiled engine's slots take:
/// lowered inline (`"inline"`, and `"inline at speed 3"` and `"inline with
/// a lag"` for those paths of the inline duration), or evaluated through
/// the duration table (`"table: non-affine load"`, `"table: delayed size
/// read"`).
pub fn exec1_forms(engine: &Engine) -> HashSet<&'static str> {
    let tdg = engine.tdg();
    let compiled = engine.compiled_tdg().expect("compiled backend");
    let mut forms = HashSet::new();
    for ((node, shape), (_, inline)) in compiled.slot_shapes().zip(compiled.inline_slots()) {
        if shape != SlotShape::Exec1 {
            continue;
        }
        let arc = tdg
            .arcs()
            .iter()
            .find(|a| a.dst == node)
            .expect("an Exec1 slot has one arc");
        let term = &arc.weight.execs[0];
        if inline {
            forms.insert("inline");
            if term.speed != 1 {
                forms.insert("inline at speed 3");
            }
            if arc.weight.constant != 0 {
                forms.insert("inline with a lag");
            }
        } else {
            if !matches!(
                term.load,
                LoadModel::Constant(_) | LoadModel::PerUnit { .. }
            ) {
                forms.insert("table: non-affine load");
            }
            if term.size_from.is_some_and(|(_, d)| d > 0) {
                forms.insert("table: delayed size read");
            }
        }
    }
    forms
}

/// Every form [`exec1_forms`] names.
pub const EXEC1_FORMS: [&str; 5] = [
    "inline",
    "inline at speed 3",
    "inline with a lag",
    "table: non-affine load",
    "table: delayed size read",
];
