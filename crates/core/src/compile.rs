//! Compile-time lowering of a derived TDG into a flat evaluation program.
//!
//! The paper's Fig. 5 shows `ComputeInstant()` cost growing with graph size
//! until the dynamic computation method stops paying past ~1000 nodes. The
//! worklist engine reproduces that ceiling faithfully: every node costs a
//! queue pop, an in-degree decrement, and a walk over nested-`Vec`
//! adjacency. For a *static* graph all of that bookkeeping is knowable at
//! build time — so this module compiles it away.
//!
//! [`CompiledTdg`] is the lowered form of a
//! [`DerivedTdg`](crate::DerivedTdg):
//!
//! * a **levelized schedule** — node ids in topological order of the
//!   zero-delay subgraph, with [`level offsets`](CompiledTdg::level_count)
//!   marking the longest-path depth boundaries (every node's same-iteration
//!   dependencies sit in strictly earlier levels);
//! * incoming arcs flattened into **CSR** (one contiguous source/weight
//!   slice per stream plus per-node offset ranges), partitioned into three
//!   streams by what varies: same-iteration constant arcs (the branch-light
//!   common case — `acc ⊕= x_src(k) ⊗ w` over a contiguous range), delayed
//!   constant arcs, and data-dependent exec arcs. The first two are pure
//!   *structure* — identical for every scenario of the model, with lags
//!   pre-lifted into the semiring — while exec arcs carry the per-scenario
//!   duration tables evaluated with each trace's token sizes. That
//!   structure/weight separation is what lets the batched engine
//!   ([`BatchedEngine`](crate::BatchedEngine)) fetch arc metadata once per
//!   arc and fold many scenario lanes under it;
//! * a [`SlotShape`] tag per slot with the slot's first arc in each stream:
//!   which straight-line arm of the sweeps' slot evaluator folds it;
//! * one self-contained op per slot for the scalar sweeps: the node it
//!   writes, its observation action (exchange log, acknowledgment or
//!   output, execution record) and the operands its arm reads — sources,
//!   lags and, for a single exec arc, its duration inline — so a slot reads
//!   one op instead of a lookup per stream.
//!
//! [`Engine`](crate::Engine) evaluates one iteration of the compiled
//! program as a single linear sweep (`max`-fold over arc ranges instead of
//! worklist pops); the original worklist path remains available as the
//! reference backend behind [`EvalBackend`], and the randomized conformance
//! suite (`tests/backend_conformance.rs`) pins the two bitwise-equal.

use evolve_des::Time;
use evolve_maxplus::MaxPlus;
use evolve_model::{
    ExecRecord, FunctionId, LoadContext, LoadModel, RelationId, ResourceId, SizeModel,
};

use crate::derive::SizeRule;
use crate::tdg::{ExecTerm, NodeId, NodeKind, Tdg, Weight};

/// Which evaluation strategy an [`Engine`](crate::Engine) uses for
/// `ComputeInstant()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EvalBackend {
    /// Dependency-counting worklist propagation — the reference
    /// implementation, driven purely by arc resolution and therefore able
    /// to interleave partially known iterations in any order.
    Worklist,
    /// Levelized CSR sweep over a [`CompiledTdg`] lowered at engine-build
    /// time. Iterations whose history is complete evaluate as one linear
    /// pass; situations the sweep cannot express (multiple external inputs,
    /// acknowledged outputs, incomplete older iterations) fall back to the
    /// worklist within the same engine.
    #[default]
    Compiled,
}

impl EvalBackend {
    /// Stable lower-case name, used as the report/JSON tag.
    pub fn as_str(self) -> &'static str {
        match self {
            EvalBackend::Worklist => "worklist",
            EvalBackend::Compiled => "compiled",
        }
    }
}

impl std::fmt::Display for EvalBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Precompiled observation action of a node (what [`Engine::observe`]
/// dispatches on — shared by both backends).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Obs {
    None,
    Exchange {
        relation: u32,
        /// Input index acknowledged by this node, or `u32::MAX`.
        ack_input: u32,
        /// Output index produced by this node, or `u32::MAX`.
        output: u32,
        /// The relation whose token size this relation's tokens carry: the
        /// root of its forwarding chain ([`SizePlan`]).
        size_root: u32,
    },
    FifoRead {
        relation: u32,
    },
    ExecEnd {
        site: ExecSite,
        dense: u32,
    },
}

/// The statement an `ExecEnd` node times: what its execution records name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ExecSite {
    pub(crate) function: FunctionId,
    pub(crate) stmt: u32,
    pub(crate) resource: ResourceId,
}

impl ExecSite {
    /// The record of this statement's execution at iteration `k` — the one
    /// constructor behind every record an engine logs or replays.
    #[inline(always)]
    pub(crate) fn record(self, k: u64, start: Time, end: Time, ops: u64) -> ExecRecord {
        ExecRecord {
            resource: self.resource,
            function: self.function,
            stmt: self.stmt as usize,
            k,
            start,
            end,
            ops,
        }
    }
}

/// Token sizes resolved at lowering. A relation whose size rule is `Same`
/// from a delay-0 read carries its source's size at every iteration, so
/// each chain of such rules resolves to its root, and every reader reads
/// the root: exec terms, other size rules, published output sizes and the
/// worklist. Only relations that compute a size
/// keep a rule, so the sweeps' size passes skip the forwarded ones.
pub(crate) struct SizePlan {
    /// Per relation, the relation whose size it carries (itself unless it
    /// forwards).
    pub(crate) root: Vec<u32>,
    /// Per relation, its rule with the source read resolved to a root;
    /// [`SizeRule::External`] for a forwarded relation too, since no pass
    /// derives its size.
    pub(crate) rules: Vec<SizeRule>,
}

impl SizePlan {
    /// Resolves `size_rules` for a graph of `relation_count` relations.
    pub(crate) fn lower(size_rules: &[SizeRule], relation_count: usize) -> SizePlan {
        let forwards = |r: usize| match size_rules.get(r) {
            Some(&SizeRule::Derived {
                from: Some((src, 0)),
                model: SizeModel::Same,
            }) => Some(src.index()),
            _ => None,
        };
        // A chain longer than the relation count is a cycle, which no
        // causal graph has; such a relation keeps its own rule.
        let root: Vec<u32> = (0..relation_count)
            .map(|r| {
                let mut at = r;
                for _ in 0..relation_count {
                    match forwards(at) {
                        Some(src) => at = src,
                        None => return at as u32,
                    }
                }
                r as u32
            })
            .collect();
        let rules = (0..relation_count)
            .map(|r| match size_rules.get(r) {
                _ if root[r] as usize != r => SizeRule::External,
                Some(&SizeRule::Derived { from, model }) => SizeRule::Derived {
                    from: from
                        .map(|(src, d)| (RelationId::from_index(root[src.index()] as usize), d)),
                    model,
                },
                _ => SizeRule::External,
            })
            .collect();
        SizePlan { root, rules }
    }
}

/// Per-node evaluation metadata, lowered once per engine and shared by both
/// backends.
pub(crate) struct NodeMeta {
    /// Observation action per node.
    pub(crate) obs: Vec<Obs>,
    /// Arcs whose resolution stashes exec info (duration arcs into an
    /// `ExecEnd`).
    pub(crate) stash_arc: Vec<bool>,
    /// Number of `ExecEnd` nodes (width of the dense exec stash).
    pub(crate) n_execs: usize,
    /// Per relation: whether it has a separate FIFO read node. Only those
    /// relations keep a read log; a rendezvous read is its write.
    pub(crate) fifo_read: Vec<bool>,
    /// The token sizes resolved to their roots.
    pub(crate) sizes: SizePlan,
}

/// Lowers the per-node observation actions, stash-arc table and token-size
/// plan of a graph.
pub(crate) fn lower_node_meta(
    tdg: &Tdg,
    size_rules: &[SizeRule],
    relation_count: usize,
) -> NodeMeta {
    let n = tdg.node_count();
    let sizes = SizePlan::lower(size_rules, relation_count);
    let ack_nodes: Vec<NodeId> = tdg
        .inputs()
        .iter()
        .map(|&u| {
            let NodeKind::Input { relation } = tdg.nodes()[u.index()].kind else {
                unreachable!("inputs() only lists input nodes");
            };
            // Hand-built graphs without a boundary exchange acknowledge
            // at the offer instant itself.
            tdg.exchange_node(relation).unwrap_or(u)
        })
        .collect();
    let mut fifo_read = vec![false; relation_count];
    for node in tdg.nodes() {
        if let NodeKind::FifoRead { relation } = node.kind {
            fifo_read[relation.index()] = true;
        }
    }

    // Dense exec indices and observation actions.
    let mut n_execs = 0usize;
    let mut exec_dense = vec![u32::MAX; n];
    for (i, node) in tdg.nodes().iter().enumerate() {
        if matches!(node.kind, NodeKind::ExecEnd { .. }) {
            exec_dense[i] = n_execs as u32;
            n_execs += 1;
        }
    }
    let obs: Vec<Obs> = tdg
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| match node.kind {
            NodeKind::Exchange { relation } | NodeKind::Output { relation } => {
                let ack_input = ack_nodes
                    .iter()
                    .position(|a| a.index() == i)
                    .map_or(u32::MAX, |p| p as u32);
                let output = tdg
                    .outputs()
                    .iter()
                    .position(|o| o.index() == i)
                    .map_or(u32::MAX, |p| p as u32);
                Obs::Exchange {
                    relation: relation.index() as u32,
                    ack_input,
                    output,
                    size_root: sizes.root[relation.index()],
                }
            }
            NodeKind::FifoRead { relation } => Obs::FifoRead {
                relation: relation.index() as u32,
            },
            NodeKind::ExecEnd {
                function,
                stmt,
                resource,
            } => Obs::ExecEnd {
                site: ExecSite {
                    function,
                    stmt: stmt as u32,
                    resource,
                },
                dense: exec_dense[i],
            },
            _ => Obs::None,
        })
        .collect();

    // Duration arcs into an `ExecEnd` stash observation data: the start is
    // the source's instant, from an `ExecStart` or from the node a copy
    // start was folded into (`simplify::reduce_derived`). A weight of one
    // term and no constant is exactly the statement's duration.
    let stash_arc: Vec<bool> = tdg
        .arcs()
        .iter()
        .map(|arc| {
            arc.weight.constant == 0
                && arc.weight.execs.len() == 1
                && matches!(tdg.nodes()[arc.dst.index()].kind, NodeKind::ExecEnd { .. })
        })
        .collect();

    NodeMeta {
        obs,
        stash_arc,
        n_execs,
        fifo_read,
        sizes,
    }
}

/// The token-size read of a duration term: relation `rel`'s size at
/// iteration `k − delay`, or none.
#[derive(Clone, Copy, Debug)]
struct SizeRead {
    /// Relation index, or [`SizeRead::NONE`].
    rel: u32,
    /// Iteration delay of the read.
    delay: u32,
}

impl SizeRead {
    /// `rel` of a term that reads no token size.
    const NONE: u32 = u32::MAX;

    /// The read of `term`, from the root of the relation it names.
    fn of(term: &ExecTerm, root: &[u32]) -> SizeRead {
        term.size_from.map_or(
            SizeRead {
                rel: SizeRead::NONE,
                delay: 0,
            },
            |(rel, delay)| SizeRead {
                rel: root.get(rel.index()).map_or(rel.index() as u32, |&r| r),
                delay,
            },
        )
    }

    /// The size read at iteration `k` (0 without a source or before it).
    #[inline(always)]
    fn at(self, k: u64, size_at: &impl Fn(usize, u64) -> u64) -> u64 {
        let delay = u64::from(self.delay);
        if self.rel == SizeRead::NONE || delay > k {
            0
        } else {
            size_at(self.rel as usize, delay)
        }
    }
}

/// A [`LoadModel::Constant`] (`per_unit == 0`, the size is never read) or
/// [`LoadModel::PerUnit`] term as inline arithmetic: `base + per_unit ×
/// size` operations (saturating) on a resource of `speed` ops per tick.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AffineTerm {
    base: u64,
    per_unit: u64,
    speed: u64,
    size: SizeRead,
}

/// One execution-duration term of a lowered multi-term weight.
#[derive(Clone, Debug)]
enum LoweredTerm {
    Affine(AffineTerm),
    /// Any other load model, evaluated at the term's coordinates.
    Model {
        load: LoadModel,
        function: usize,
        stmt: usize,
        speed: u64,
        size: SizeRead,
    },
}

/// Duration in ticks of `ops` operations at `speed` ops per tick.
#[inline(always)]
fn ticks(ops: u64, speed: u64) -> u64 {
    if speed == 1 {
        ops
    } else {
        evolve_model::duration_for(ops, speed).ticks()
    }
}

impl AffineTerm {
    /// `(ticks, ops)` at iteration `k`.
    #[inline(always)]
    pub(crate) fn eval(self, k: u64, size_at: &impl Fn(usize, u64) -> u64) -> (u64, u64) {
        let ops = if self.per_unit == 0 {
            self.base
        } else {
            self.base
                .saturating_add(self.per_unit.saturating_mul(self.size.at(k, size_at)))
        };
        (ticks(ops, self.speed), ops)
    }
}

impl AffineTerm {
    /// The affine form of a constant or per-unit term, if it is one.
    fn of(term: &ExecTerm, root: &[u32]) -> Option<AffineTerm> {
        let (base, per_unit) = match term.load {
            LoadModel::Constant(n) => (n, 0),
            LoadModel::PerUnit { base, per_unit } => (base, per_unit),
            _ => return None,
        };
        Some(AffineTerm {
            base,
            per_unit,
            speed: term.speed,
            size: SizeRead::of(term, root),
        })
    }
}

impl LoweredTerm {
    fn lower(term: &ExecTerm, root: &[u32]) -> LoweredTerm {
        AffineTerm::of(term, root).map_or_else(
            || LoweredTerm::Model {
                load: term.load.clone(),
                function: term.function.index(),
                stmt: term.stmt,
                speed: term.speed,
                size: SizeRead::of(term, root),
            },
            LoweredTerm::Affine,
        )
    }

    /// `(ticks, ops)` at iteration `k`.
    #[inline(always)]
    fn eval(&self, k: u64, size_at: &impl Fn(usize, u64) -> u64) -> (u64, u64) {
        match self {
            LoweredTerm::Affine(term) => term.eval(k, size_at),
            LoweredTerm::Model {
                load,
                function,
                stmt,
                speed,
                size,
            } => {
                let ops = load.ops(LoadContext {
                    function: *function,
                    stmt: *stmt,
                    k,
                    size: size.at(k, size_at),
                });
                (ticks(ops, *speed), ops)
            }
        }
    }

    #[cfg(test)]
    fn size(&self) -> SizeRead {
        match self {
            LoweredTerm::Affine(term) => term.size,
            LoweredTerm::Model { size, .. } => *size,
        }
    }
}

/// One exec arc's lowered weight.
#[derive(Clone, Copy, Debug)]
enum ArcDuration {
    /// The common case inline: a constant lag plus one constant or
    /// per-unit term.
    Affine { constant: u64, term: AffineTerm },
    /// Any other weight: a constant lag plus the terms `lo..hi` of the
    /// shared table.
    Terms { constant: u64, lo: u32, hi: u32 },
}

/// The flat duration evaluator of a program's exec arcs (aligned with the
/// exec stream): each arc's [`Weight`] lowered once, so evaluation walks no
/// per-weight `Vec<ExecTerm>` — a single constant or per-unit term is
/// inline affine arithmetic, anything else a range of one shared term
/// table. Both compiled sweeps, serial and batched, evaluate exec arcs
/// through [`Durations::eval`]; the worklist keeps the
/// raw-weight evaluation as the reference, and a property test pins the
/// two bitwise-equal.
#[derive(Clone, Debug, Default)]
pub(crate) struct Durations {
    arcs: Vec<ArcDuration>,
    terms: Vec<LoweredTerm>,
}

impl Durations {
    /// Appends the lowered form of one exec arc's weight, its size reads
    /// resolved through `root` (relation → the relation whose size it
    /// carries; relations past its end read themselves).
    pub(crate) fn push(&mut self, weight: &Weight, root: &[u32]) {
        let constant = weight.constant;
        let single = match weight.execs.as_slice() {
            [term] => AffineTerm::of(term, root),
            _ => None,
        };
        let arc = match single {
            Some(term) => ArcDuration::Affine { constant, term },
            None => {
                let lo = self.terms.len() as u32;
                self.terms
                    .extend(weight.execs.iter().map(|t| LoweredTerm::lower(t, root)));
                ArcDuration::Terms {
                    constant,
                    lo,
                    hi: self.terms.len() as u32,
                }
            }
        };
        self.arcs.push(arc);
    }

    /// Evaluates exec arc `i` at iteration `k`: the total lag in ticks plus
    /// the raw operation count (for observation) — bitwise what the
    /// worklist's evaluation of the raw weight returns. `size_at(rel, d)`
    /// reads relation `rel`'s token size at iteration `k − d`; it is only
    /// called with `d <= k`.
    #[inline(always)]
    pub(crate) fn eval(&self, i: usize, k: u64, size_at: impl Fn(usize, u64) -> u64) -> (u64, u64) {
        match self.arcs[i] {
            ArcDuration::Affine { constant, term } => {
                let (ticks, ops) = term.eval(k, &size_at);
                (constant + ticks, ops)
            }
            ArcDuration::Terms { constant, lo, hi } => {
                let mut lag = constant;
                let mut ops_total = 0u64;
                for term in &self.terms[lo as usize..hi as usize] {
                    let (ticks, ops) = term.eval(k, &size_at);
                    ops_total += ops;
                    lag += ticks;
                }
                (lag, ops_total)
            }
        }
    }

    /// The `(relation, delay)` token-size reads of exec arc `i`.
    #[cfg(test)]
    pub(crate) fn size_reads(&self, i: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (single, terms) = match self.arcs[i] {
            ArcDuration::Affine { term, .. } => (Some(term.size), &self.terms[..0]),
            ArcDuration::Terms { lo, hi, .. } => (None, &self.terms[lo as usize..hi as usize]),
        };
        single
            .into_iter()
            .chain(terms.iter().map(LoweredTerm::size))
            .filter(|s| s.rel != SizeRead::NONE)
            .map(|s| (s.rel as usize, u64::from(s.delay)))
    }

    /// Total element capacity of the lowered tables.
    fn buffer_elements(&self) -> usize {
        self.arcs.capacity() + self.terms.capacity()
    }
}

/// The arc shape of a schedule slot, tagged at lowering: which arm of the
/// sweeps' slot evaluator folds it. The first four read the slot's CSR
/// ranges in straight-line code; [`SlotShape::General`] walks them. The
/// four are the shapes derived graphs have.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SlotShape {
    /// One same-iteration constant arc.
    Const1,
    /// Two same-iteration constant arcs.
    Const2,
    /// One same-iteration exec arc.
    Exec1,
    /// One delay-1 slow arc plus one constant arc.
    Slow1Const1,
    /// Any other mix of arcs (including none).
    General,
}

/// A slot's [`SlotShape`] and first constant (`c`), slow (`s`) and exec
/// (`e`) arc: where the batched walk finds the slot's arcs, in one load.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SlotArcs {
    pub(crate) shape: SlotShape,
    pub(crate) c: u32,
    pub(crate) s: u32,
    pub(crate) e: u32,
}

/// One schedule slot as the scalar sweeps evaluate it, self-contained: the
/// node it writes, its observation action, and the operands its [`Arm`]
/// reads, copied out of the CSR streams at lowering.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SlotOp {
    pub(crate) arm: Arm,
    pub(crate) obs: Obs,
    pub(crate) dst: u32,
}

/// How a [`SlotOp`] folds its arcs. The first four arms carry all they
/// read; [`Arm::Exec1Table`] and [`Arm::General`] keep the lowered
/// duration table and the CSR walk.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Arm {
    /// `x_src(k) ⊗ lag`.
    Const1 { src: u32, lag: MaxPlus },
    /// `x_src[0](k) ⊗ lag[0] ⊕ x_src[1](k) ⊗ lag[1]`.
    Const2 { src: [u32; 2], lag: [MaxPlus; 2] },
    /// `x_slow(k − 1) ⊗ slow_lag ⊕ x_src(k) ⊗ lag`.
    Slow1Const1 {
        slow: u32,
        slow_lag: MaxPlus,
        src: u32,
        lag: MaxPlus,
    },
    /// `x_src(k) ⊗ (constant + T(k))`, `T` one constant or per-unit term
    /// that reads its token size (if any) at iteration `k` itself. `stash`
    /// is the dense `ExecEnd` index the arc's `(start, ops)` go to, or
    /// `u32::MAX` when it is not a duration arc.
    Exec1 {
        src: u32,
        stash: u32,
        constant: u64,
        term: AffineTerm,
    },
    /// One same-iteration exec arc of any other duration: arc `e` of the
    /// exec stream, evaluated through [`Durations::eval`].
    Exec1Table { src: u32, e: u32 },
    /// Any other mix of arcs: the walk over slot `slot`'s CSR ranges.
    General { slot: u32 },
    /// An input's slot, whose instant the offer sets: the fold leaves it
    /// as it is.
    Offered,
}

impl Arm {
    /// Whether the arm folds arcs from its own operands alone (with the
    /// iteration's instants, sizes and previous row).
    pub(crate) fn is_inline(self) -> bool {
        matches!(
            self,
            Arm::Const1 { .. } | Arm::Const2 { .. } | Arm::Slow1Const1 { .. } | Arm::Exec1 { .. }
        )
    }
}

/// The nodes one serial sweep computes and the arcs it folds, counted at
/// lowering.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SweepCount {
    pub(crate) nodes: u64,
    pub(crate) arcs: u64,
}

impl SweepCount {
    /// The nodes `pick` keeps, and their in-arcs.
    fn of(tdg: &Tdg, pick: impl Fn(usize) -> bool) -> SweepCount {
        let mut count = SweepCount::default();
        for node in (0..tdg.node_count()).filter(|&node| pick(node)) {
            count.nodes += 1;
            count.arcs += tdg.incoming[node].len() as u64;
        }
        count
    }
}

/// A derived TDG lowered into a levelized, CSR-flattened evaluation program:
/// a level-ordered schedule, incoming arcs in three CSR streams (constant,
/// delayed-constant and data-dependent), per-slot observation actions and
/// [`SlotShape`] tags.
///
/// All buffers are immutable after lowering —
/// [`Engine::reset`](crate::Engine::reset) and steady-state evaluation
/// never touch them, so their capacity contributes a constant term to
/// [`AllocationFootprint`](crate::AllocationFootprint).
#[derive(Clone, Debug)]
pub struct CompiledTdg {
    /// Evaluation schedule: node ids, topologically ordered by zero-delay
    /// level (stable within a level).
    pub(crate) schedule: Vec<u32>,
    /// Slot ranges per level: level `l` spans
    /// `schedule[level_offsets[l] .. level_offsets[l + 1]]`.
    pub(crate) level_offsets: Vec<u32>,
    /// The scalar sweeps' op per schedule slot: destination, observation
    /// action and operands.
    pub(crate) ops: Vec<SlotOp>,
    /// CSR offsets (per slot, length `slots + 1`) into the same-iteration
    /// constant-arc stream — the branch-light common case.
    pub(crate) const_offsets: Vec<u32>,
    /// Source node per constant arc.
    pub(crate) const_srcs: Vec<u32>,
    /// Constant lag per constant arc (`⊗`-applied to the source instant),
    /// pre-lifted into the semiring so the sweep skips per-arc conversion.
    pub(crate) const_lags: Vec<MaxPlus>,
    /// CSR offsets (per slot) into the slow-arc stream: delayed arcs with
    /// constant weights — still pure structure, shared across scenario
    /// lanes, just read through the history ring.
    pub(crate) slow_offsets: Vec<u32>,
    /// Source node per slow arc.
    pub(crate) slow_srcs: Vec<u32>,
    /// Iteration delay per slow arc (always ≥ 1).
    pub(crate) slow_delays: Vec<u32>,
    /// Constant lag per slow arc, pre-lifted into the semiring.
    pub(crate) slow_lags: Vec<MaxPlus>,
    /// CSR offsets (per slot) into the exec-arc stream: arcs whose weight
    /// is data-dependent and must be evaluated per iteration (and, when
    /// batched, per lane) with the feeding token sizes.
    pub(crate) exec_offsets: Vec<u32>,
    /// Source node per exec arc.
    pub(crate) exec_srcs: Vec<u32>,
    /// Iteration delay per exec arc.
    pub(crate) exec_delays: Vec<u32>,
    /// Dense `ExecEnd` index per exec arc whose stash captures `(start,
    /// ops)` for observation replay, or `u32::MAX` when the arc is not a
    /// duration arc (aligned with the exec stream).
    pub(crate) exec_stash_dense: Vec<u32>,
    /// The exec weights lowered into the flat duration evaluator (aligned
    /// with the exec stream).
    pub(crate) durations: Durations,
    /// Arc shape and first arcs per schedule slot (the batched walk's).
    pub(crate) slots: Vec<SlotArcs>,
    /// Schedule slot of each node (`pos_of_node[schedule[s]] == s`): the
    /// inverse permutation of the schedule. Lane state indexed by *slot*
    /// instead of node id makes consecutive schedule writes land in
    /// consecutive rows — the destination-contiguous retiling the batched
    /// sweep's chunked kernels fold over.
    pub(crate) pos_of_node: Vec<u32>,
    /// Constant-arc sources translated to schedule slots (aligned with
    /// `const_srcs`). Zero-delay sources sit in strictly earlier levels, so
    /// `const_src_pos[i]` is always strictly below the destination slot —
    /// which is what lets the batched sweep split its accumulator at the
    /// destination row and fold sources from the prefix in one pass.
    pub(crate) const_src_pos: Vec<u32>,
    /// Slow-arc sources translated to schedule slots (aligned with
    /// `slow_srcs`); read through the history ring, any slot order.
    pub(crate) slow_src_pos: Vec<u32>,
    /// Exec-arc sources translated to schedule slots (aligned with
    /// `exec_srcs`); zero-delay exec sources are also strictly below their
    /// destination slot.
    pub(crate) exec_src_pos: Vec<u32>,
    /// Exchange slots whose relation computes its token size (forwarded
    /// relations excluded, see [`SizePlan`]), in schedule order: the size
    /// pre-pass ahead of a sweep walks these (sizes depend only on other
    /// sizes, never on instants).
    pub(crate) derived_exchanges: Vec<u32>,
    /// The exchange slots that acknowledge an input or produce an output,
    /// in schedule order: all a serial sweep publishes after its folds
    /// (its logs are written by the sweep itself).
    pub(crate) boundary_slots: Vec<u32>,
    /// What a serial sweep of a fresh iteration computes: every slot but
    /// the inputs'.
    pub(crate) fresh_sweep: SweepCount,
    /// What a serial sweep of a look-ahead tail computes: the slots with a
    /// zero-delay path from an input ([`zero_delay_dependent`]), the
    /// inputs' excepted, since the look-ahead computed the others.
    pub(crate) main_sweep: SweepCount,
}

impl CompiledTdg {
    /// Lowers a graph given its cached topological order, node metadata and
    /// which nodes depend on an input in the same iteration
    /// ([`zero_delay_dependent`]).
    pub(crate) fn lower(
        tdg: &Tdg,
        topo: &[NodeId],
        meta: &NodeMeta,
        dependent: &[bool],
    ) -> CompiledTdg {
        let n = tdg.node_count();
        let levels = tdg.zero_delay_levels(topo);

        // The FIFO Kahn order out of `Tdg::topo_order` is already
        // level-monotone (the queue holds nodes in non-decreasing level
        // order); the stable sort is then the identity, and a guarantee
        // against future order providers that are not.
        let mut schedule: Vec<u32> = topo.iter().map(|&nd| nd.index() as u32).collect();
        schedule.sort_by_key(|&i| levels[i as usize]);

        let level_count = schedule
            .last()
            .map_or(0, |&i| levels[i as usize] as usize + 1);
        let mut level_offsets = Vec::with_capacity(level_count + 1);
        level_offsets.push(0u32);
        for (slot, &node) in schedule.iter().enumerate() {
            while level_offsets.len() <= levels[node as usize] as usize {
                level_offsets.push(slot as u32);
            }
        }
        while level_offsets.len() <= level_count {
            level_offsets.push(schedule.len() as u32);
        }

        let input = |node: usize| matches!(tdg.nodes()[node].kind, NodeKind::Input { .. });
        let mut ops = Vec::with_capacity(n);
        let mut const_offsets = Vec::with_capacity(n + 1);
        let mut const_srcs = Vec::new();
        let mut const_lags = Vec::new();
        let mut slow_offsets = Vec::with_capacity(n + 1);
        let mut slow_srcs = Vec::new();
        let mut slow_delays = Vec::new();
        let mut slow_lags = Vec::new();
        let mut exec_offsets = Vec::with_capacity(n + 1);
        let mut exec_srcs = Vec::new();
        let mut exec_delays = Vec::new();
        let mut exec_stash_dense = Vec::new();
        let mut durations = Durations::default();
        let mut slots = Vec::with_capacity(n);
        const_offsets.push(0u32);
        slow_offsets.push(0u32);
        exec_offsets.push(0u32);
        for &slot_node in &schedule {
            let node = slot_node as usize;
            let (c, s, e) = (const_srcs.len(), slow_srcs.len(), exec_srcs.len());
            for &ai in &tdg.incoming[node] {
                let arc = &tdg.arcs[ai];
                if !arc.weight.execs.is_empty() {
                    exec_srcs.push(arc.src.index() as u32);
                    exec_delays.push(arc.delay);
                    let stash_dense = if meta.stash_arc[ai] {
                        match meta.obs[node] {
                            Obs::ExecEnd { dense, .. } => dense,
                            _ => u32::MAX,
                        }
                    } else {
                        u32::MAX
                    };
                    durations.push(&arc.weight, &meta.sizes.root);
                    exec_stash_dense.push(stash_dense);
                } else if arc.delay == 0 {
                    const_srcs.push(arc.src.index() as u32);
                    const_lags.push(MaxPlus::new(arc.weight.constant as i64));
                } else {
                    slow_srcs.push(arc.src.index() as u32);
                    slow_delays.push(arc.delay);
                    slow_lags.push(MaxPlus::new(arc.weight.constant as i64));
                }
            }
            const_offsets.push(const_srcs.len() as u32);
            slow_offsets.push(slow_srcs.len() as u32);
            exec_offsets.push(exec_srcs.len() as u32);
            let consts = const_srcs.len() - c;
            let shape = match (consts, &slow_delays[s..], &exec_delays[e..]) {
                (1, [], []) => SlotShape::Const1,
                (2, [], []) => SlotShape::Const2,
                (0, [], [0]) => SlotShape::Exec1,
                (1, [1], []) => SlotShape::Slow1Const1,
                _ => SlotShape::General,
            };
            let arm = match shape {
                _ if input(node) => Arm::Offered,
                SlotShape::Const1 => Arm::Const1 {
                    src: const_srcs[c],
                    lag: const_lags[c],
                },
                SlotShape::Const2 => Arm::Const2 {
                    src: [const_srcs[c], const_srcs[c + 1]],
                    lag: [const_lags[c], const_lags[c + 1]],
                },
                SlotShape::Slow1Const1 => Arm::Slow1Const1 {
                    slow: slow_srcs[s],
                    slow_lag: slow_lags[s],
                    src: const_srcs[c],
                    lag: const_lags[c],
                },
                SlotShape::Exec1 => match durations.arcs[e] {
                    ArcDuration::Affine { constant, term } if term.size.delay == 0 => Arm::Exec1 {
                        src: exec_srcs[e],
                        stash: exec_stash_dense[e],
                        constant,
                        term,
                    },
                    _ => Arm::Exec1Table {
                        src: exec_srcs[e],
                        e: e as u32,
                    },
                },
                SlotShape::General => Arm::General {
                    slot: slots.len() as u32,
                },
            };
            ops.push(SlotOp {
                arm,
                obs: meta.obs[node],
                dst: slot_node,
            });
            let (c, s, e) = (c as u32, s as u32, e as u32);
            slots.push(SlotArcs { shape, c, s, e });
        }

        // Retiling: the inverse schedule permutation plus src streams
        // re-expressed in schedule slots, so slot-indexed lane state can be
        // walked destination-contiguously.
        let mut pos_of_node = vec![0u32; n];
        for (slot, &node) in schedule.iter().enumerate() {
            pos_of_node[node as usize] = slot as u32;
        }
        let const_src_pos: Vec<u32> = const_srcs.iter().map(|&s| pos_of_node[s as usize]).collect();
        let slow_src_pos: Vec<u32> = slow_srcs.iter().map(|&s| pos_of_node[s as usize]).collect();
        let exec_src_pos: Vec<u32> = exec_srcs.iter().map(|&s| pos_of_node[s as usize]).collect();
        let slots_where = |keep: &dyn Fn(Obs) -> bool| -> Vec<u32> {
            (0..ops.len())
                .filter(|&slot| keep(ops[slot].obs))
                .map(|slot| slot as u32)
                .collect()
        };
        let derived_exchanges = slots_where(&|o| {
            matches!(o, Obs::Exchange { relation, .. }
                if matches!(meta.sizes.rules[relation as usize], SizeRule::Derived { .. }))
        });
        let boundary_slots = slots_where(&|o| {
            matches!(o, Obs::Exchange { ack_input, output, .. }
                if ack_input != u32::MAX || output != u32::MAX)
        });
        let fresh_sweep = SweepCount::of(tdg, |node| !input(node));
        let main_sweep = SweepCount::of(tdg, |node| dependent[node] && !input(node));

        CompiledTdg {
            schedule,
            level_offsets,
            ops,
            const_offsets,
            const_srcs,
            const_lags,
            slow_offsets,
            slow_srcs,
            slow_delays,
            slow_lags,
            exec_offsets,
            exec_srcs,
            exec_delays,
            exec_stash_dense,
            durations,
            slots,
            pos_of_node,
            const_src_pos,
            slow_src_pos,
            exec_src_pos,
            derived_exchanges,
            boundary_slots,
            fresh_sweep,
            main_sweep,
        }
    }

    /// Number of scheduled nodes.
    pub fn node_count(&self) -> usize {
        self.schedule.len()
    }

    /// Number of zero-delay levels (schedule depth).
    pub fn level_count(&self) -> usize {
        self.level_offsets.len().saturating_sub(1)
    }

    /// Same-iteration constant arcs in the fast CSR stream.
    pub fn const_arc_count(&self) -> usize {
        self.const_srcs.len()
    }

    /// Delayed constant arcs in the slow CSR stream.
    pub fn slow_arc_count(&self) -> usize {
        self.slow_srcs.len()
    }

    /// Data-dependent arcs in the exec CSR stream.
    pub fn exec_arc_count(&self) -> usize {
        self.exec_srcs.len()
    }

    /// Slot `slot`'s constant, slow and exec arcs: index ranges into the
    /// three CSR streams.
    #[inline(always)]
    pub(crate) fn arc_ranges(&self, slot: usize) -> [std::ops::Range<usize>; 3] {
        [&self.const_offsets, &self.slow_offsets, &self.exec_offsets]
            .map(|offsets| offsets[slot] as usize..offsets[slot + 1] as usize)
    }

    /// Every scheduled node with the arc shape of its slot, in schedule
    /// order.
    pub fn slot_shapes(&self) -> impl Iterator<Item = (NodeId, SlotShape)> + '_ {
        self.schedule
            .iter()
            .zip(&self.slots)
            .map(|(&node, arcs)| (NodeId(node as usize), arcs.shape))
    }

    /// Every scheduled node with whether the scalar sweeps fold its slot
    /// from operands lowered into the slot's op, in schedule order: every
    /// straight-line shape, and an [`SlotShape::Exec1`] whose duration is
    /// one constant or per-unit term reading its token size, if any, at
    /// the swept iteration. The others walk the CSR streams
    /// ([`SlotShape::General`]) or the lowered duration table (any other
    /// `Exec1`), or fold nothing (an input's slot, which its offer sets).
    pub fn inline_slots(&self) -> impl Iterator<Item = (NodeId, bool)> + '_ {
        self.ops
            .iter()
            .map(|op| (NodeId(op.dst as usize), op.arm.is_inline()))
    }

    /// Total element capacity across the compiled buffers — the term the
    /// lowering adds to [`AllocationFootprint`](crate::AllocationFootprint).
    /// Constant after lowering: evaluation and engine reset never touch the
    /// compiled program.
    pub fn buffer_elements(&self) -> usize {
        self.schedule.capacity()
            + self.level_offsets.capacity()
            + self.ops.capacity()
            + self.const_offsets.capacity()
            + self.const_srcs.capacity()
            + self.const_lags.capacity()
            + self.slow_offsets.capacity()
            + self.slow_srcs.capacity()
            + self.slow_delays.capacity()
            + self.slow_lags.capacity()
            + self.exec_offsets.capacity()
            + self.exec_srcs.capacity()
            + self.exec_delays.capacity()
            + self.exec_stash_dense.capacity()
            + self.durations.buffer_elements()
            + self.slots.capacity()
            + self.pos_of_node.capacity()
            + self.const_src_pos.capacity()
            + self.slow_src_pos.capacity()
            + self.exec_src_pos.capacity()
            + self.derived_exchanges.capacity()
            + self.boundary_slots.capacity()
    }
}

/// Marks the nodes reachable from an `Input` or `OutputAck` node through
/// zero-delay arcs only — the nodes whose value for iteration `k` can
/// depend on the external offer at `k`. The complement (the *prefix*) is
/// resolvable from history alone, which is what look-ahead evaluation and
/// the batched engine's prefix pass exploit.
pub(crate) fn zero_delay_dependent(tdg: &Tdg) -> Vec<bool> {
    let n = tdg.node_count();
    let mut dependent = vec![false; n];
    let mut queue: std::collections::VecDeque<usize> = (0..n)
        .filter(|&i| {
            matches!(
                tdg.nodes()[i].kind,
                NodeKind::Input { .. } | NodeKind::OutputAck { .. }
            )
        })
        .collect();
    for &i in &queue {
        dependent[i] = true;
    }
    while let Some(u) = queue.pop_front() {
        for &ai in &tdg.outgoing[u] {
            let arc = &tdg.arcs[ai];
            if arc.delay == 0 && !dependent[arc.dst.index()] {
                dependent[arc.dst.index()] = true;
                queue.push_back(arc.dst.index());
            }
        }
    }
    dependent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{derive_tdg, synthetic};

    fn lowered(stages: usize, padding: usize) -> (crate::DerivedTdg, CompiledTdg, NodeMeta) {
        let p = synthetic::pipeline(stages, 50, 1).unwrap();
        let mut derived = derive_tdg(&p.arch).unwrap();
        if padding > 0 {
            derived.map_tdg(|t| synthetic::pad(t, padding));
        }
        let relations = p.arch.app().relations().len();
        let meta = lower_node_meta(derived.tdg(), derived.size_rules(), relations);
        let dependent = zero_delay_dependent(derived.tdg());
        let compiled = CompiledTdg::lower(derived.tdg(), derived.topo_order(), &meta, &dependent);
        (derived, compiled, meta)
    }

    /// Every slot of the paper's models that a sweep folds has one of the
    /// four specialized shapes, and its op carries all its operands (no
    /// exec arc falls back to the duration table): Table I examples 1–8,
    /// the LTE receiver of Fig. 6, and pipelines of 1–8 stages, unpadded
    /// and padded by 64 nodes as in Fig. 5 and `serve-open`. The input slot
    /// has no arcs (the offer sets it) and is never folded.
    #[test]
    fn paper_models_need_no_general_arm() {
        let check = |name: String, arch: &evolve_model::Architecture, padding: usize| {
            let mut derived = derive_tdg(arch).unwrap();
            if padding > 0 {
                derived.map_tdg(|t| synthetic::pad(t, padding));
            }
            let tdg = derived.tdg();
            let relations = arch.app().relations().len();
            let meta = lower_node_meta(tdg, derived.size_rules(), relations);
            let dependent = zero_delay_dependent(tdg);
            let c = CompiledTdg::lower(tdg, derived.topo_order(), &meta, &dependent);
            for ((node, shape), (_, inline)) in c.slot_shapes().zip(c.inline_slots()) {
                let kind = &tdg.nodes()[node.index()].kind;
                if matches!(kind, NodeKind::Input { .. }) {
                    assert_eq!(shape, SlotShape::General, "{name}: the input has no arcs");
                } else {
                    assert_ne!(
                        shape,
                        SlotShape::General,
                        "{name}: {kind:?} takes the general arm"
                    );
                    assert!(inline, "{name}: {kind:?} reads the duration table");
                }
            }
        };
        for stages in 1..=8 {
            let d = evolve_model::didactic::chained(stages, Default::default()).unwrap();
            check(format!("Table I example {stages}"), &d.arch, 0);
            let p = synthetic::pipeline(stages, 60, 1).unwrap();
            check(format!("{stages}-stage pipeline"), &p.arch, 0);
            check(format!("{stages}-stage pipeline + 64"), &p.arch, 64);
        }
        let rx = evolve_lte::receiver(evolve_lte::Scenario::default()).unwrap();
        check("LTE receiver".to_string(), &rx.arch, 0);
    }

    #[test]
    fn schedule_is_a_level_monotone_permutation() {
        let (derived, c, _) = lowered(4, 32);
        let tdg = derived.tdg();
        assert_eq!(c.node_count(), tdg.node_count());
        let mut seen = vec![false; tdg.node_count()];
        for &s in &c.schedule {
            assert!(!seen[s as usize], "node scheduled twice");
            seen[s as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Slots are grouped by non-decreasing level, and every zero-delay
        // arc crosses a level boundary forward.
        let levels = tdg.zero_delay_levels(derived.topo_order());
        let slot_levels: Vec<u32> = c.schedule.iter().map(|&s| levels[s as usize]).collect();
        assert!(slot_levels.windows(2).all(|w| w[0] <= w[1]));
        for arc in tdg.arcs() {
            if arc.delay == 0 {
                assert!(levels[arc.src.index()] < levels[arc.dst.index()]);
            }
        }
        // Level offsets bracket exactly the slots of each level.
        assert_eq!(c.level_count(), *slot_levels.last().unwrap() as usize + 1);
        for l in 0..c.level_count() {
            let (lo, hi) = (c.level_offsets[l] as usize, c.level_offsets[l + 1] as usize);
            assert!(lo < hi, "level {l} is empty");
            assert!(slot_levels[lo..hi].iter().all(|&x| x as usize == l));
        }
    }

    #[test]
    fn csr_streams_partition_the_arcs() {
        let (derived, c, meta) = lowered(6, 100);
        let tdg = derived.tdg();
        assert_eq!(
            c.const_arc_count() + c.slow_arc_count() + c.exec_arc_count(),
            tdg.arc_count()
        );
        // Constant stream holds exactly the same-iteration constant arcs.
        let expected_const = tdg
            .arcs()
            .iter()
            .filter(|a| a.delay == 0 && a.weight.execs.is_empty())
            .count();
        assert_eq!(c.const_arc_count(), expected_const);
        // Slow arcs are the delayed constant ones — structure shared across
        // lanes, never data-dependent.
        assert!(c.slow_delays.iter().all(|&d| d >= 1));
        assert_eq!(
            c.slow_arc_count(),
            tdg.arcs()
                .iter()
                .filter(|a| a.delay >= 1 && a.weight.execs.is_empty())
                .count()
        );
        // The exec stream carries exactly the data-dependent arcs: slot by
        // slot, the node's incoming arcs with an exec weight, in order,
        // each lowered duration evaluating bitwise like its raw weight.
        assert_eq!(
            c.exec_arc_count(),
            tdg.arcs().iter().filter(|a| !a.weight.execs.is_empty()).count()
        );
        assert_eq!(c.exec_stash_dense.len(), c.exec_arc_count());
        let size_at = |rel: usize, d: u64| 1 + 7 * rel as u64 + d;
        for (slot, &node) in c.schedule.iter().enumerate() {
            let execs: Vec<_> = tdg.incoming[node as usize]
                .iter()
                .map(|&ai| &tdg.arcs[ai])
                .filter(|a| !a.weight.execs.is_empty())
                .collect();
            let range = c.exec_offsets[slot] as usize..c.exec_offsets[slot + 1] as usize;
            assert_eq!(range.len(), execs.len(), "slot {slot}");
            for (i, arc) in range.zip(execs) {
                assert_eq!(c.exec_srcs[i] as usize, arc.src.index());
                assert_eq!(c.exec_delays[i], arc.delay);
                // Lowering resolves each size read to its relation's root.
                let root = &meta.sizes.root;
                let raw_at = |rel: usize, d: u64| size_at(root[rel] as usize, d);
                for k in [0, 1, 2, 9] {
                    assert_eq!(
                        c.durations.eval(i, k, size_at),
                        crate::engine::eval_weight(&arc.weight, k, raw_at),
                        "exec arc {i} at k = {k}"
                    );
                }
            }
        }
        assert!(c.buffer_elements() > 0);
    }

    #[test]
    fn padding_chain_extends_the_levels() {
        let (_, plain, _) = lowered(3, 0);
        let (_, padded, _) = lowered(3, 50);
        // The padding chain hangs off the input, one node per level.
        assert!(padded.level_count() >= plain.level_count());
        assert!(padded.level_count() >= 50);
        assert_eq!(padded.node_count(), plain.node_count() + 50);
    }

    #[test]
    fn retiled_streams_point_at_earlier_slots() {
        let (derived, c, _) = lowered(4, 64);
        let tdg = derived.tdg();
        // The inverse permutation really inverts the schedule.
        for (slot, &node) in c.schedule.iter().enumerate() {
            assert_eq!(c.pos_of_node[node as usize] as usize, slot);
        }
        // Position streams name the same sources as the node-id streams,
        // and same-iteration sources sit strictly before their destination
        // slot (what the split-at-destination fold relies on).
        for slot in 0..c.node_count() {
            for i in c.const_offsets[slot] as usize..c.const_offsets[slot + 1] as usize {
                assert_eq!(c.schedule[c.const_src_pos[i] as usize], c.const_srcs[i]);
                assert!((c.const_src_pos[i] as usize) < slot);
            }
            for i in c.slow_offsets[slot] as usize..c.slow_offsets[slot + 1] as usize {
                assert_eq!(c.schedule[c.slow_src_pos[i] as usize], c.slow_srcs[i]);
            }
            for i in c.exec_offsets[slot] as usize..c.exec_offsets[slot + 1] as usize {
                assert_eq!(c.schedule[c.exec_src_pos[i] as usize], c.exec_srcs[i]);
                if c.exec_delays[i] == 0 {
                    assert!((c.exec_src_pos[i] as usize) < slot);
                }
            }
        }
        // The padding chain is a run of unobserved one-constant-arc slots,
        // the batched sweep's single-kernel-call shape.
        let chain = (0..c.node_count())
            .filter(|&slot| {
                c.slots[slot].shape == SlotShape::Const1 && c.ops[slot].obs == Obs::None
            })
            .count();
        assert!(chain >= 64, "the padding chain takes the Const1 arm");
        let _ = tdg;
    }

    mod lowered_durations {
        use super::super::Durations;
        use crate::engine::eval_weight;
        use crate::tdg::{ExecTerm, Weight};
        use evolve_model::{FunctionId, LoadModel, RelationId};
        use proptest::prelude::*;

        /// Operation counts, sizes and constants at the saturating extremes.
        fn extreme() -> impl Strategy<Value = u64> {
            prop_oneof![Just(0u64), 1u64..1_000, Just(u64::MAX / 2), Just(u64::MAX)]
        }

        fn affine() -> impl Strategy<Value = LoadModel> {
            prop_oneof![
                extreme().prop_map(LoadModel::Constant),
                (extreme(), extreme())
                    .prop_map(|(base, per_unit)| LoadModel::PerUnit { base, per_unit }),
            ]
        }

        /// Every `LoadModel` variant.
        fn load() -> impl Strategy<Value = LoadModel> {
            prop_oneof![
                affine(),
                (0u64..100, 0u64..100, any::<u64>()).prop_map(|(a, b, seed)| {
                    LoadModel::Uniform {
                        min: a.min(b),
                        max: a.max(b),
                        seed,
                    }
                }),
                proptest::collection::vec((0u64..64, extreme()), 1..4).prop_map(|mut entries| {
                    entries.sort_by_key(|e| e.0);
                    LoadModel::Table(entries)
                }),
                proptest::collection::vec(extreme(), 1..5).prop_map(LoadModel::from_trace),
                (0u64..4, 1u64..4, any::<u64>(), affine())
                    .prop_map(|(num, den, seed, inner)| LoadModel::gated(num, den, seed, inner)),
            ]
        }

        fn term() -> impl Strategy<Value = ExecTerm> {
            let speed = prop_oneof![Just(1u64), Just(3u64), Just(u64::MAX)];
            // Size delays up to 3 reach past `k` for the early iterations.
            let size_from = proptest::option::of((0usize..3, 0u32..4));
            (0usize..4, 0usize..6, load(), speed, size_from).prop_map(
                |(function, stmt, load, speed, size_from)| ExecTerm {
                    function: FunctionId::from_index(function),
                    stmt,
                    load,
                    speed,
                    size_from: size_from.map(|(rel, d)| (RelationId::from_index(rel), d)),
                },
            )
        }

        /// A constant lag composed with one to three duration terms — the
        /// multi-term weights chain contraction builds with
        /// [`Weight::compose`].
        fn weight() -> impl Strategy<Value = Weight> {
            let constant = prop_oneof![Just(0u64), 1u64..1_000, Just(u64::MAX / 2)];
            (constant, proptest::collection::vec(term(), 1..4)).prop_map(|(constant, terms)| {
                terms.into_iter().fold(Weight::constant(constant), |w, t| {
                    w.compose(&Weight::exec(t))
                })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            #[test]
            fn lowered_durations_match_the_raw_weights(
                weights in proptest::collection::vec(weight(), 1..4),
                sizes in proptest::collection::vec(proptest::collection::vec(extreme(), 3), 4),
                k in prop_oneof![0u64..3, 3u64..1_000],
            ) {
                let mut durations = Durations::default();
                for w in &weights {
                    durations.push(w, &[]);
                }
                let size_at = |rel: usize, d: u64| {
                    assert!(d <= k, "size read before the model start");
                    sizes[d as usize][rel]
                };
                for (i, w) in weights.iter().enumerate() {
                    // Lag sums past `u64::MAX` overflow the same way in
                    // both (a panic in debug builds, wrapping in release).
                    let reference = std::panic::catch_unwind(|| eval_weight(w, k, size_at)).ok();
                    let lowered = std::panic::catch_unwind(|| durations.eval(i, k, size_at)).ok();
                    prop_assert_eq!(lowered, reference);
                    let reads: Vec<(usize, u64)> = durations.size_reads(i).collect();
                    let expected: Vec<(usize, u64)> = w
                        .execs
                        .iter()
                        .filter_map(|t| t.size_from.map(|(r, d)| (r.index(), u64::from(d))))
                        .collect();
                    prop_assert_eq!(reads, expected);
                }
            }
        }
    }

    #[test]
    fn backend_tags_are_stable() {
        assert_eq!(EvalBackend::default(), EvalBackend::Compiled);
        assert_eq!(EvalBackend::Compiled.as_str(), "compiled");
        assert_eq!(EvalBackend::Worklist.to_string(), "worklist");
    }
}
