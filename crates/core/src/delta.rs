//! Incremental cross-scenario delta evaluation over the compiled schedule.
//!
//! Design-space sweeps evaluate families of *sibling* scenarios that differ
//! in a single parameter — one duration coefficient, one trace period, one
//! mapping edge — yet a conventional sweep recomputes every instant of every
//! sibling from scratch. The paper's dynamic-computation pitch cuts the
//! other way: most of a sibling's timing state is identical to its
//! neighbor's, so most of the work is redundant.
//!
//! This module adds semi-naive delta propagation to the compiled backend:
//!
//! 1. **Capture** — a *base* scenario is evaluated once with
//!    [`Engine::begin_delta_capture`](crate::Engine::begin_delta_capture);
//!    after each fast-path sweep the engine clones the finished iteration's
//!    per-node instants, token sizes, and exec stashes into a [`DeltaRow`].
//!    [`Engine::finish_delta_capture`](crate::Engine::finish_delta_capture)
//!    freezes the rows (plus the offer trace and the base's compiled
//!    program) into a shared [`DeltaCache`].
//! 2. **Seed** — attaching the cache to a sibling engine
//!    ([`Engine::attach_delta_base`](crate::Engine::attach_delta_base))
//!    structurally compares the two compiled programs. Identical arc
//!    structure is required (anything else is
//!    [`DeltaUnsupported::StructureMismatch`]); slots whose constant lags or
//!    exec weights differ become the *seed frontier* — the only places a
//!    perturbation can enter the max-plus fold.
//! 3. **Propagate** — each sweep walks the schedule comparing the live fold
//!    inputs of every node against the cached row. Clean nodes copy their
//!    cached instant in O(in-degree) comparisons; dirty nodes recompute, and
//!    a recomputed instant that *matches* the cache settles the frontier
//!    (max-plus is monotone: equal inputs produce equal folds, so downstream
//!    comparisons see no difference and stay clean). When the sibling's
//!    offers match the base trace and the seed frontier is empty, the whole
//!    sweep collapses to an O(nodes) copy — the steady-state regime the
//!    `delta_points` benchmark grid measures. A sibling whose trace has
//!    diverged (two offers in a row off the base trace, the first sweep
//!    reusing no node) takes the full sweep for its remaining offers.
//!
//! Emissions (outputs, acknowledgments, logs, exec records) are produced by
//! the ordinary observation path in both branches, so a delta-evaluated
//! sibling is bitwise identical to a full compiled evaluation — including
//! [`EngineCounters`](evolve_obs::EngineCounters) — which
//! `tests/delta_conformance.rs` pins down against both backends.

use std::sync::Arc;

use evolve_maxplus::MaxPlus;
use evolve_obs::DeltaCounters;

use crate::compile::{CompiledTdg, Obs};
use crate::derive::SizeRule;

/// Why an engine cannot capture or attach a delta base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaUnsupported {
    /// The graph has more than one external input; the delta sweep rides
    /// the single-input compiled fast path.
    MultiInput {
        /// How many inputs the graph actually has.
        inputs: usize,
    },
    /// The graph has acknowledged outputs: acknowledgments mutate completed
    /// iterations, so cached rows would go stale.
    OutputAcks,
    /// The engine runs the worklist backend; delta evaluation is a mode of
    /// the compiled schedule sweep.
    WorklistBackend,
    /// The sibling's compiled structure (schedule, arc streams, observation
    /// actions, or size rules) differs from the base cache; there is no
    /// node-for-node correspondence to diff against.
    StructureMismatch,
}

impl DeltaUnsupported {
    /// Stable snake_case tag for reports and metrics labels.
    pub fn reason(&self) -> &'static str {
        match self {
            DeltaUnsupported::MultiInput { .. } => "multi_input",
            DeltaUnsupported::OutputAcks => "output_acks",
            DeltaUnsupported::WorklistBackend => "worklist",
            DeltaUnsupported::StructureMismatch => "structure_mismatch",
        }
    }
}

impl std::fmt::Display for DeltaUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaUnsupported::MultiInput { inputs } => {
                write!(f, "delta evaluation needs exactly 1 input, graph has {inputs}")
            }
            DeltaUnsupported::OutputAcks => {
                write!(f, "delta evaluation does not support acknowledged outputs")
            }
            DeltaUnsupported::WorklistBackend => {
                write!(f, "delta evaluation requires the compiled backend")
            }
            DeltaUnsupported::StructureMismatch => {
                write!(f, "sibling's compiled structure differs from the delta base")
            }
        }
    }
}

impl std::error::Error for DeltaUnsupported {}

/// One captured iteration of the base run: the finished ring state after
/// the sweep and its look-ahead completed. Without output acknowledgments
/// (a capture gate) nothing mutates a completed iteration afterwards, so a
/// row is final at capture time.
#[derive(Clone, Debug)]
pub(crate) struct DeltaRow {
    /// Per-node instants of the iteration.
    pub(crate) acc: Vec<MaxPlus>,
    /// Per-relation token sizes of the iteration.
    pub(crate) sizes: Vec<u64>,
    /// Dense exec stashes `(start, ops)` written by duration arcs.
    pub(crate) stash: Vec<(MaxPlus, u64)>,
}

/// A frozen base evaluation: per-iteration rows, the offer trace that
/// produced them, and the base's compiled program for structural diffing.
///
/// Shareable across sibling engines (and worker threads) via
/// [`Arc`](std::sync::Arc); the cache is immutable after
/// [`finish_delta_capture`](crate::Engine::finish_delta_capture).
#[derive(Clone, Debug)]
pub struct DeltaCache {
    /// Captured iterations, indexed by `k`.
    pub(crate) rows: Vec<DeltaRow>,
    /// The base trace's `(offer ticks, size)` per iteration.
    pub(crate) offers: Vec<(u64, u64)>,
    /// The base engine's compiled program (shared with the base engine).
    pub(crate) compiled: Arc<CompiledTdg>,
    /// Whether the base replayed observation (exec records / instant logs).
    pub(crate) record_observations: bool,
    /// Relation count of the base model.
    pub(crate) relation_count: usize,
    /// Size-propagation rules of the base model: part of the structural
    /// gate, since the collapse fast path skips live size comparisons.
    pub(crate) size_rules: Vec<SizeRule>,
}

impl DeltaCache {
    /// Number of iterations the base run captured.
    pub fn iterations(&self) -> usize {
        self.rows.len()
    }

    /// Number of scheduled nodes per captured row.
    pub fn node_count(&self) -> usize {
        self.compiled.node_count()
    }
}

/// Live link between a sibling engine and its base cache.
pub(crate) struct DeltaLink {
    /// The shared base evaluation.
    pub(crate) cache: std::sync::Arc<DeltaCache>,
    /// Seed frontier per schedule slot: `true` where the sibling's lags or
    /// exec weights differ from the base program.
    pub(crate) seeds: Vec<bool>,
    /// Number of seeded slots (0 = structurally identical sibling).
    pub(crate) seed_count: usize,
    /// Whether every offer so far matched the base trace; with an empty
    /// seed frontier this enables the O(nodes) collapse fast path.
    pub(crate) offers_matched: bool,
    /// Whether the last delta sweep's offer missed the base trace and the
    /// sweep reused no node.
    pub(crate) cold: bool,
    /// Set when an offer misses the base trace right after a cold sweep:
    /// this and every later offer take the full compiled sweep.
    pub(crate) diverged: bool,
    /// Precomputed constants of the bulk collapse over a fresh tail.
    pub(crate) collapse: CollapsePlan,
    /// Work counters of this link.
    pub(crate) stats: DeltaCounters,
}

/// Constants of the bulk-collapse fast path, precomputed at attach time.
///
/// When a sweep starts on a *fresh* tail (no look-ahead prefix computed
/// anything yet) with an empty seed frontier and a matching offer trace,
/// every slot but the input's takes the clean branch — so the per-slot walk
/// reduces to one `memcpy` of the cached row plus the observation calls,
/// and the statistics it would have accumulated are these constants.
pub(crate) struct CollapsePlan {
    /// `nodes_computed` contribution of the sweep (input + every other
    /// scheduled slot; the schedule is a permutation of all nodes).
    pub(crate) nodes: u64,
    /// `arcs_evaluated` contribution: all compiled arcs minus the skipped
    /// input slot's.
    pub(crate) arcs: u64,
    /// Cache copies per collapsed sweep (every slot but the input's).
    pub(crate) reused: u64,
    /// Nodes with a non-trivial observation action, in schedule order, the
    /// input node excluded (its slot is skipped as already computed).
    pub(crate) observed: Vec<u32>,
}

impl CollapsePlan {
    /// Derives the plan from a compiled program and its single input node.
    pub(crate) fn build(ct: &CompiledTdg, input_node: usize) -> CollapsePlan {
        let slots = ct.schedule.len();
        let input_slot = ct
            .schedule
            .iter()
            .position(|&nd| nd as usize == input_node)
            .expect("schedule is a permutation of all nodes");
        let input_arcs: usize = ct.arc_ranges(input_slot).iter().map(|r| r.len()).sum();
        let arcs = ct.const_arc_count() + ct.slow_arc_count() + ct.exec_arc_count() - input_arcs;
        let observed = ct
            .ops
            .iter()
            .filter(|op| op.dst as usize != input_node && !matches!(op.obs, Obs::None))
            .map(|op| op.dst)
            .collect();
        CollapsePlan {
            nodes: slots as u64,
            arcs: arcs as u64,
            reused: (slots - 1) as u64,
            observed,
        }
    }
}

/// In-progress base capture riding inside the engine.
pub(crate) struct DeltaCaptureState {
    /// Rows captured so far (row `k` after call `k`'s sweep).
    pub(crate) rows: Vec<DeltaRow>,
    /// Offers captured so far.
    pub(crate) offers: Vec<(u64, u64)>,
    /// Cleared when a call leaves the fast path (worklist fallback,
    /// fast-forward replay): the capture stops extending rather than
    /// recording a hole.
    pub(crate) active: bool,
}

/// Structurally compares two compiled programs and computes the sibling's
/// seed frontier against the base.
///
/// Everything *positional* must be identical — schedule, level boundaries,
/// CSR offsets, arc sources, delays, observation actions, and stash slots —
/// otherwise there is no node-for-node correspondence and the sibling is
/// rejected with [`DeltaUnsupported::StructureMismatch`]. The *values*
/// (constant lags, lowered exec durations) may differ: slots where they do
/// are seeded.
pub(crate) fn compute_seeds(
    base: &CompiledTdg,
    sib: &CompiledTdg,
) -> Result<(Vec<bool>, usize), DeltaUnsupported> {
    let structure_equal = base.schedule == sib.schedule
        && base.level_offsets == sib.level_offsets
        && base
            .ops
            .iter()
            .map(|op| op.obs)
            .eq(sib.ops.iter().map(|op| op.obs))
        && base.const_offsets == sib.const_offsets
        && base.const_srcs == sib.const_srcs
        && base.slow_offsets == sib.slow_offsets
        && base.slow_srcs == sib.slow_srcs
        && base.slow_delays == sib.slow_delays
        && base.exec_offsets == sib.exec_offsets
        && base.exec_srcs == sib.exec_srcs
        && base.exec_delays == sib.exec_delays
        && base.exec_stash_dense == sib.exec_stash_dense;
    if !structure_equal {
        return Err(DeltaUnsupported::StructureMismatch);
    }

    let slots = base.schedule.len();
    let mut seeds = vec![false; slots];
    let mut seed_count = 0usize;
    for (slot, seed) in seeds.iter_mut().enumerate() {
        let [cs, ss, es] = base.arc_ranges(slot);
        let seeded = base.const_lags[cs.clone()] != sib.const_lags[cs]
            || base.slow_lags[ss.clone()] != sib.slow_lags[ss]
            || es
                .into_iter()
                .any(|i| !base.durations.same_arc(&sib.durations, i));
        if seeded {
            *seed = true;
            seed_count += 1;
        }
    }
    Ok((seeds, seed_count))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsupported_reasons_are_stable() {
        assert_eq!(DeltaUnsupported::MultiInput { inputs: 2 }.reason(), "multi_input");
        assert_eq!(DeltaUnsupported::OutputAcks.reason(), "output_acks");
        assert_eq!(DeltaUnsupported::WorklistBackend.reason(), "worklist");
        assert_eq!(DeltaUnsupported::StructureMismatch.reason(), "structure_mismatch");
        assert!(DeltaUnsupported::OutputAcks.to_string().contains("acknowledged"));
    }
}
