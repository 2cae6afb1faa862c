//! Batched multi-lane evaluation: many scenarios of one model in lockstep.
//!
//! Design-space exploration evaluates *many* input traces of the *same*
//! architecture model (paper Section V sweeps graph size and event ratio;
//! the sweep subsystem groups scenarios by model). The scalar compiled
//! sweep ([`Engine`](crate::Engine) with
//! [`EvalBackend::Compiled`](crate::EvalBackend::Compiled)) is memory-bound
//! on the CSR streams:
//! every scenario re-fetches the same schedule slots, arc offsets, sources,
//! and lags. [`BatchedEngine`] amortizes that traffic the way batched
//! inference amortizes weight fetches — it carries `B` independent scenario
//! *lanes* over one [`CompiledTdg`] and evaluates all of them in a single
//! linear sweep per lockstep iteration: arc metadata is fetched once per
//! arc, and the per-lane `(max,+)` fold runs over lane-contiguous
//! structure-of-arrays state indexed by *schedule slot*
//! (`acc[slot * stride + lane]`, with `stride` the lane count padded to a
//! whole number of [`kernel`](crate::kernel) chunks), so the sweep's writes
//! land in consecutive rows and the folds run through the branch-free
//! lane-chunked kernels.
//!
//! The three-stream split of [`CompiledTdg`] is what makes this work: const
//! and slow arcs are pure *structure* (same sources, delays, and pre-lifted
//! lags for every lane), so their folds run full-width with no per-lane
//! branching — `ε ⊗ lag = ε` and `⊕ ε` is a no-op, so inactive or
//! not-yet-computed lanes need no mask. Only the exec stream (data-dependent
//! durations) evaluates weights per lane, against each lane's own token
//! sizes.
//!
//! # One slot walk over the scalar engine's shapes
//!
//! A lockstep pass walks the schedule slot by slot and folds each slot by
//! its [`SlotShape`], the tag the scalar engine's slot evaluator dispatches
//! on. The straight-line constant and slow shapes (`Const1`, `Const2`,
//! `Slow1Const1`) run as full-width chunked kernel folds
//! over every lane; `Exec1` and the exec arcs of `General` fold once per
//! offered lane, through the exec-term helper of the scalar sweep. Every
//! zero-delay source sits at a strictly earlier slot (the retiled
//! `*_src_pos` streams of [`CompiledTdg`]), so each destination row is
//! split off the accumulator (`split_at_mut(slot * stride)`) and written in
//! place, in one pass. The main pass and the look-ahead prefix pass are the
//! same walk over different slots. [`KernelDispatchStats`] counts which
//! kernel family served each sweep.
//!
//! Each lane's observable output — exchange and read instants, execution
//! records, outputs and acknowledgments — goes to its own emission log,
//! the type the scalar engine writes.
//!
//! Batches do not fast-forward: every lockstep call sweeps. Periodic
//! replay ([`crate::periodic`]) runs in the scalar [`Engine`](crate::Engine)
//! alone (DESIGN.md, "Negative result: fast-forward inside lockstep
//! batches").
//!
//! # Lockstep semantics and lane ejection
//!
//! All lanes share the iteration counter: one
//! [`set_input_batch`](BatchedEngine::set_input_batch) call offers
//! iteration `k` to every lane at once, `None` for lanes whose trace has
//! ended. Lane activity is monotone — once a lane stops offering it may
//! never resume (shorter traces simply go quiet early; their stale state
//! keeps being swept full-width, which is safe because saturating `(max,+)`
//! arithmetic cannot fault and nothing ever reads an inactive lane's
//! values). Situations the lockstep sweep cannot express are rejected at
//! construction by [`BatchedEngine::try_new`] as [`BatchUnsupported`] — the
//! sweep scheduler catches the error and *ejects* those scenarios to the
//! scalar path instead of poisoning the batch.
//!
//! Per-lane observable state (outputs, acks, instant logs, execution
//! records, [`EngineCounters`]) is bitwise identical to running each lane
//! through a scalar compiled [`Engine`](crate::Engine) — pinned by the
//! randomized conformance suite (`tests/batch_conformance.rs`); execution
//! records match as multisets (the look-ahead emits them in schedule order
//! here, drain order in the scalar engine).

use std::collections::VecDeque;

use evolve_des::Time;
use evolve_maxplus::MaxPlus;
use evolve_model::ExecRecord;
use evolve_obs::EngineCounters;

use crate::compile::{lower_node_meta, zero_delay_dependent, CompiledTdg, Obs, SlotShape};
use crate::derive::{DerivedTdg, SizeRule};
use crate::engine::{derived_size, exec_term, AllocationFootprint, EmissionLog, History};
use crate::kernel;
use crate::tdg::{NodeKind, Tdg};

/// Upper bound on recycled [`LaneBlock`]s retained by the free list.
const FREE_LIST_CAP: usize = 16;

/// Why a model cannot be evaluated by the batched lockstep sweep. The sweep
/// scheduler treats any of these as "eject to the scalar path".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchUnsupported {
    /// The graph has a number of external inputs other than one; lockstep
    /// batching drives exactly one offer stream per lane.
    MultiInput {
        /// How many inputs the graph actually has.
        inputs: usize,
    },
    /// The graph needs output-acknowledgment feedback, which makes iteration
    /// completion depend on per-lane environment timing — the scalar
    /// engine's worklist territory.
    OutputAcks,
    /// A size dependency reaches further back than the graph's maximum arc
    /// delay, so the history the batch retains (bounded by the arc horizon)
    /// would not cover it.
    LongSizeDelay,
}

impl BatchUnsupported {
    /// Stable snake_case tag for reports and JSON.
    pub fn reason(&self) -> &'static str {
        match self {
            BatchUnsupported::MultiInput { .. } => "multi_input",
            BatchUnsupported::OutputAcks => "output_acks",
            BatchUnsupported::LongSizeDelay => "long_size_delay",
        }
    }
}

impl std::fmt::Display for BatchUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchUnsupported::MultiInput { inputs } => {
                write!(f, "batched evaluation needs exactly 1 input, graph has {inputs}")
            }
            BatchUnsupported::OutputAcks => {
                f.write_str("batched evaluation does not support output-acknowledgment feedback")
            }
            BatchUnsupported::LongSizeDelay => {
                f.write_str("a size dependency reaches past the graph's arc-delay horizon")
            }
        }
    }
}

impl std::error::Error for BatchUnsupported {}

/// Per-iteration state of all lanes. Accumulator rows are indexed by
/// *schedule slot*, lane innermost, and padded to the kernel stride
/// (`acc[slot * stride + lane]`) so the full-width folds run whole rows
/// branch-free. Token sizes and exec stashes are only read lane by lane,
/// so each lane keeps the scalar engine's row of them
/// (`sizes[lane * relations + relation]`, `exec_stash[lane * execs + dense]`).
struct LaneBlock {
    /// Computed instant per schedule slot per lane (stride-padded rows).
    acc: Vec<MaxPlus>,
    /// Token size per lane per relation.
    sizes: Vec<u64>,
    /// `(start, ops)` per lane per dense exec-end index.
    exec_stash: Vec<(MaxPlus, u64)>,
}

impl LaneBlock {
    fn fresh(nodes: usize, relations: usize, execs: usize, b: usize, stride: usize) -> Self {
        LaneBlock {
            acc: vec![MaxPlus::EPSILON; nodes * stride],
            sizes: vec![0; relations * b],
            exec_stash: vec![(MaxPlus::EPSILON, 0); execs * b],
        }
    }

    fn elements(&self) -> usize {
        self.acc.capacity() + self.sizes.capacity() + self.exec_stash.capacity()
    }
}

/// What one lockstep pass reads besides the block it writes: the program,
/// the history blocks, the lane geometry, and the lanes offered this call.
struct Lanes<'a> {
    ct: &'a CompiledTdg,
    hist: History<'a, LaneBlock>,
    stride: usize,
    relations: usize,
    execs: usize,
    current: &'a [bool],
}

impl Lanes<'_> {
    /// Schedule slot `slot`'s row of every lane in `acc`.
    #[inline(always)]
    fn row<'b>(&self, acc: &'b [MaxPlus], slot: u32) -> &'b [MaxPlus] {
        &acc[slot as usize * self.stride..][..self.stride]
    }

    /// Const arc `i` stored over the process-start baseline in every lane
    /// of `dst`; `lo` holds the rows of the slots before `dst`'s.
    #[inline(always)]
    fn store_const(&self, lo: &[MaxPlus], dst: &mut [MaxPlus], i: usize) {
        let src = self.row(lo, self.ct.const_src_pos[i]);
        kernel::store_base_otimes(dst, src, self.ct.const_lags[i]);
    }

    /// Const arc `i` folded into every lane of `dst`.
    #[inline(always)]
    fn fold_const(&self, lo: &[MaxPlus], dst: &mut [MaxPlus], i: usize) {
        let src = self.row(lo, self.ct.const_src_pos[i]);
        kernel::fold_max_otimes(dst, src, self.ct.const_lags[i]);
    }

    /// Slow arc `i` folded into every lane of `dst`: its source row of
    /// iteration `k − delay`, or the process-start baseline before history.
    #[inline(always)]
    fn fold_slow(&self, dst: &mut [MaxPlus], i: usize) {
        let ct = self.ct;
        match self.hist.row(u64::from(ct.slow_delays[i])) {
            Some(blk) => {
                let src = self.row(&blk.acc, ct.slow_src_pos[i]);
                kernel::fold_max_otimes(dst, src, ct.slow_lags[i]);
            }
            // E ⊗ lag = lag, uniformly across lanes.
            None => kernel::fold_max_value(dst, ct.slow_lags[i]),
        }
    }

    /// Exec arc `i` folded into each offered lane of `dst` by the scalar
    /// sweep's exec term, against that lane's token sizes and into its exec
    /// stash row; `lo` holds the rows of the slots before `dst`'s.
    #[inline(always)]
    fn fold_exec(
        &self,
        lo: &[MaxPlus],
        dst: &mut [MaxPlus],
        sizes: &[u64],
        mut stash: Option<&mut [(MaxPlus, u64)]>,
        i: usize,
    ) {
        let (delay, src) = (self.ct.exec_delays[i], self.ct.exec_src_pos[i] as usize);
        for l in (0..self.current.len()).filter(|&l| self.current[l]) {
            let src_val = if delay == 0 {
                lo[src * self.stride + l]
            } else {
                self.hist
                    .row(u64::from(delay))
                    .map_or(MaxPlus::E, |blk| blk.acc[src * self.stride + l])
            };
            let now = &sizes[l * self.relations..][..self.relations];
            let mut lane_stash = stash
                .as_deref_mut()
                .map(|s| &mut s[l * self.execs..][..self.execs]);
            let size_at = |rel, d| self.size(now, l, rel, d);
            let (term, _) = exec_term(self.ct, self.hist.k, i, src_val, size_at, &mut lane_stash);
            dst[l] = dst[l].oplus(term);
        }
    }

    /// Lane `l`'s token size of relation `rel` at iteration `k − d`: the
    /// swept iteration itself from the lane's row `now`.
    #[inline(always)]
    fn size(&self, now: &[u64], l: usize, rel: usize, d: u64) -> u64 {
        if d == 0 {
            now[rel]
        } else {
            self.hist
                .row(d)
                .map_or(0, |blk| blk.sizes[l * self.relations + rel])
        }
    }
}

/// How many lockstep sweeps dispatched to the chunked (SIMD-friendly)
/// fold kernels vs the narrow-row loop. The split is decided once per
/// engine by the padded lane stride (`kernel::is_chunked`): batches of 8+
/// lanes run chunked, narrower ones the narrow-row loop. Purely
/// diagnostic — both paths are bitwise identical — and deliberately *not*
/// part of [`EngineCounters`], whose per-lane values must stay comparable
/// with the scalar engine's.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelDispatchStats {
    /// Lockstep sweeps answered by the lane-chunked kernels (portable or
    /// AVX2, per [`kernel::simd_level`]).
    pub chunked_sweeps: u64,
    /// Lockstep sweeps answered by the narrow-row loop (rows narrower than
    /// a chunk).
    pub scalar_sweeps: u64,
}

/// Lockstep evaluator of `B` independent scenario lanes over one compiled
/// graph: each lockstep call folds every lane in one sweep of the schedule,
/// and every lane's observables stay bitwise those of a scalar compiled
/// [`Engine`](crate::Engine) driven with that lane's trace.
///
/// # Examples
///
/// ```
/// use evolve_core::{derive_tdg, BatchedEngine};
/// use evolve_des::Time;
/// use evolve_model::didactic;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = didactic::chained(1, didactic::Params::default())?;
/// let derived = derive_tdg(&d.arch)?;
/// let relations = d.arch.app().relations().len();
/// let mut batch = BatchedEngine::try_new(derived, relations, true, 4)?;
/// // Offer iteration 0 on all four lanes at once, with different sizes.
/// let offers: Vec<_> = (0..4).map(|l| Some((Time::ZERO, l as u64))).collect();
/// batch.set_input_batch(0, &offers);
/// for lane in 0..4 {
///     let (k, y, _size) = batch.next_output(lane, 0).expect("output computed");
///     assert_eq!(k, 0);
///     assert!(y > Time::ZERO);
/// }
/// # Ok(())
/// # }
/// ```
pub struct BatchedEngine {
    tdg: Tdg,
    /// Size rules resolved to their roots (see `compile::SizePlan`).
    size_rules: Vec<SizeRule>,
    relation_count: usize,
    compiled: CompiledTdg,
    n_execs: usize,
    input_relation: usize,
    n_outputs: usize,
    record_observations: bool,
    /// Lane count `B`.
    lanes: usize,
    /// Padded accumulator-row width (`kernel::lane_stride(lanes)`).
    stride: usize,
    /// Schedule slot of the injected input node.
    input_slot: usize,
    /// Whether `schedule[slot]`'s node has a zero-delay path from an
    /// external node: the main pass's slots once a look-ahead computed the
    /// others.
    slot_dependent: Vec<bool>,
    has_prefix: bool,
    /// Chunked-vs-narrow kernel dispatch counters.
    kernel_dispatch: KernelDispatchStats,
    /// History depth (maximum arc delay).
    horizon: u64,
    /// Analytic per-lane stats delta of the first lockstep call (`k == 0`).
    delta_first: EngineCounters,
    /// Analytic per-lane stats delta of every later call.
    delta_steady: EngineCounters,
    ring: VecDeque<LaneBlock>,
    base_k: u64,
    free: Vec<LaneBlock>,
    next_k: u64,
    /// Whether a look-ahead pass has opened the next iteration (its prefix
    /// slots are then skipped by the main sweep).
    lookahead_ran: bool,
    /// Lanes offered in the current call.
    current: Vec<bool>,
    /// Lanes still offering (monotone: once `false`, never `true` again).
    active: Vec<bool>,
    lane_stats: Vec<EngineCounters>,
    /// Per relation: whether it has a FIFO read node (the lane logs' layout).
    fifo_read: Vec<bool>,
    /// Each lane's logs, outputs and acknowledgment.
    logs: Vec<EmissionLog>,
    stats: EngineCounters,
}

impl std::fmt::Debug for BatchedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedEngine")
            .field("nodes", &self.tdg.node_count())
            .field("lanes", &self.lanes)
            .field("in_flight", &self.ring.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl BatchedEngine {
    /// Builds a batched engine with `lanes` scenario lanes over the derived
    /// graph, or reports why the model cannot run under the lockstep sweep.
    ///
    /// # Errors
    ///
    /// [`BatchUnsupported`] when the graph has other than one external
    /// input, needs output-acknowledgment feedback, or carries a size
    /// dependency deeper than its arc-delay horizon.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn try_new(
        derived: DerivedTdg,
        relation_count: usize,
        record_observations: bool,
        lanes: usize,
    ) -> Result<Self, BatchUnsupported> {
        assert!(lanes > 0, "a batch needs at least one lane");
        // Gate before consuming the derived graph.
        {
            let tdg = derived.tdg();
            if tdg.inputs().len() != 1 {
                return Err(BatchUnsupported::MultiInput {
                    inputs: tdg.inputs().len(),
                });
            }
            if tdg.output_acks().iter().any(Option::is_some)
                || tdg
                    .nodes()
                    .iter()
                    .any(|n| matches!(n.kind, NodeKind::OutputAck { .. }))
            {
                return Err(BatchUnsupported::OutputAcks);
            }
            let max_delay = u64::from(tdg.max_delay());
            let too_deep = tdg.arcs().iter().any(|arc| {
                arc.weight
                    .execs
                    .iter()
                    .any(|t| matches!(t.size_from, Some((_, d)) if u64::from(d) > max_delay))
            });
            let rule_too_deep = derived.size_rules().iter().any(|rule| {
                matches!(
                    rule,
                    SizeRule::Derived { from: Some((_, d)), .. } if u64::from(*d) > max_delay
                )
            });
            if too_deep || rule_too_deep {
                return Err(BatchUnsupported::LongSizeDelay);
            }
        }

        let (tdg, size_rules, topo) = derived.into_parts();
        let dependent = zero_delay_dependent(&tdg);
        let meta = lower_node_meta(&tdg, &size_rules, relation_count);
        let compiled = CompiledTdg::lower(&tdg, &topo, &meta, &dependent);
        let n_execs = meta.n_execs;
        let input_node = tdg.inputs()[0].index();
        let NodeKind::Input { relation } = tdg.nodes()[input_node].kind else {
            unreachable!("inputs() only lists input nodes");
        };
        let input_relation = relation.index();
        let n_outputs = tdg.outputs().len();

        let has_prefix = dependent.iter().any(|d| !d);
        let slot_dependent: Vec<bool> = compiled
            .schedule
            .iter()
            .map(|&s| dependent[s as usize])
            .collect();
        let input_slot = compiled.pos_of_node[input_node] as usize;

        // Analytic per-lane statistics deltas, mirroring exactly what the
        // scalar compiled engine counts per `set_input` call: the main
        // sweep charges each computed node's full in-arc range, and the
        // look-ahead (when the graph has an input-independent prefix)
        // resolves every delayed arc plus the prefix's zero-delay fan-out
        // through the worklist. Pinned against the scalar engine by the
        // batch-conformance suite.
        let n = tdg.node_count() as u64;
        let a = tdg.arc_count() as u64;
        let iin = tdg.incoming_arcs(tdg.inputs()[0]).count() as u64;
        let d = tdg.arcs().iter().filter(|arc| arc.delay > 0).count() as u64;
        let mut p = 0u64; // prefix node count
        let mut in_p = 0u64; // in-arcs of prefix nodes
        let mut z = 0u64; // zero-delay out-arcs of prefix nodes
        for (i, dep) in dependent.iter().enumerate() {
            if !dep {
                p += 1;
                let node = crate::tdg::NodeId(i);
                in_p += tdg.incoming_arcs(node).count() as u64;
                z += tdg.outgoing_arcs(node).filter(|arc| arc.delay == 0).count() as u64;
            }
        }
        let (delta_first, delta_steady) = if has_prefix {
            (
                EngineCounters {
                    nodes_computed: n + p,
                    arcs_evaluated: a - iin + d + z,
                    iterations_completed: 1,
                    ..EngineCounters::default()
                },
                EngineCounters {
                    nodes_computed: n,
                    arcs_evaluated: a - iin - in_p + d + z,
                    iterations_completed: 1,
                    ..EngineCounters::default()
                },
            )
        } else {
            let delta = EngineCounters {
                nodes_computed: n,
                arcs_evaluated: a - iin,
                iterations_completed: 1,
                ..EngineCounters::default()
            };
            (delta, delta)
        };

        let horizon = u64::from(tdg.max_delay());
        let logs = (0..lanes)
            .map(|_| EmissionLog::new(meta.fifo_read.clone(), 1, n_outputs))
            .collect();
        Ok(BatchedEngine {
            size_rules: meta.sizes.rules,
            relation_count,
            compiled,
            n_execs,
            input_relation,
            n_outputs,
            record_observations,
            lanes,
            stride: kernel::lane_stride(lanes),
            input_slot,
            slot_dependent,
            has_prefix,
            kernel_dispatch: KernelDispatchStats::default(),
            horizon,
            delta_first,
            delta_steady,
            ring: VecDeque::new(),
            base_k: 0,
            free: Vec::new(),
            next_k: 0,
            lookahead_ran: false,
            current: vec![false; lanes],
            active: vec![false; lanes],
            lane_stats: vec![EngineCounters::default(); lanes],
            fifo_read: meta.fifo_read,
            logs,
            stats: EngineCounters::default(),
            tdg,
        })
    }

    /// The underlying graph.
    pub fn tdg(&self) -> &Tdg {
        &self.tdg
    }

    /// The shared compiled program.
    pub fn compiled_tdg(&self) -> &CompiledTdg {
        &self.compiled
    }

    /// Lane count `B`.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Aggregate statistics: per-lane computation summed over all lanes,
    /// plus the batch-level counters
    /// ([`lanes_evaluated`](EngineCounters::lanes_evaluated),
    /// [`batched_iterations`](EngineCounters::batched_iterations)).
    pub fn stats(&self) -> EngineCounters {
        self.stats
    }

    /// Statistics of one lane — bitwise what a scalar compiled
    /// [`Engine`](crate::Engine) would report for the same trace.
    pub fn lane_stats(&self, lane: usize) -> EngineCounters {
        self.lane_stats[lane]
    }

    /// Kernel dispatch counters: how many lockstep sweeps ran through the
    /// chunked fold kernels vs the narrow-row loop.
    pub fn kernel_dispatch(&self) -> KernelDispatchStats {
        self.kernel_dispatch
    }

    /// The computed acknowledgment instant of lane `lane`'s `k`-th offer,
    /// if known.
    pub fn ack_instant(&self, lane: usize, k: u64) -> Option<Time> {
        self.logs[lane].ack_instant(0, k)
    }

    /// Pops the next computed output of `output` on lane `lane`, if any:
    /// `(iteration, emission instant, token size)`.
    pub fn next_output(&mut self, lane: usize, output: usize) -> Option<(u64, Time, u64)> {
        self.logs[lane].next_output(output)
    }

    /// Exchange-instant log of a relation on one lane.
    pub fn instants(&self, lane: usize, relation: usize) -> &[Time] {
        self.logs[lane].instants(relation)
    }

    /// Read-instant log of a relation on one lane.
    pub fn read_instants(&self, lane: usize, relation: usize) -> &[Time] {
        self.logs[lane].read_instants(relation)
    }

    /// Execution records of one lane, replayed from computed instants.
    pub fn exec_records(&self, lane: usize) -> &[ExecRecord] {
        &self.logs[lane].exec_records
    }

    /// Rewinds the engine for a fresh batch of `lanes` scenarios, keeping
    /// allocations where the lane count allows: lane blocks are recycled
    /// through the free list when `lanes` is unchanged and dropped (their
    /// stride no longer fits) otherwise.
    pub fn reset(&mut self, lanes: usize) {
        assert!(lanes > 0, "a batch needs at least one lane");
        if lanes == self.lanes {
            while let Some(blk) = self.ring.pop_front() {
                if self.free.len() < FREE_LIST_CAP {
                    self.free.push(blk);
                }
            }
        } else {
            self.ring.clear();
            self.free.clear();
            self.lanes = lanes;
            self.stride = kernel::lane_stride(lanes);
            self.current = vec![false; lanes];
            self.active = vec![false; lanes];
            self.lane_stats = vec![EngineCounters::default(); lanes];
            let (fifo_read, outputs) = (&self.fifo_read, self.n_outputs);
            self.logs
                .resize_with(lanes, || EmissionLog::new(fifo_read.clone(), 1, outputs));
        }
        self.base_k = 0;
        self.next_k = 0;
        self.lookahead_ran = false;
        self.current.fill(false);
        self.active.fill(false);
        self.lane_stats.fill(EngineCounters::default());
        self.logs.iter_mut().for_each(EmissionLog::clear);
        self.stats = EngineCounters::default();
        self.kernel_dispatch = KernelDispatchStats::default();
    }

    /// A snapshot of the engine's allocation footprint; constant across
    /// [`BatchedEngine::reset`] cycles of equal lane count and trace length.
    pub fn allocation_footprint(&self) -> AllocationFootprint {
        AllocationFootprint {
            iteration_states: self.ring.len() + self.free.len(),
            ring_capacity: self.ring.capacity(),
            free_capacity: self.free.capacity(),
            work_capacity: 0,
            notification_capacity: 0,
            compiled_elements: self.compiled.buffer_elements(),
            lane_state_elements: self
                .ring
                .iter()
                .chain(self.free.iter())
                .map(LaneBlock::elements)
                .sum::<usize>(),
            lane_padding_elements: (self.stride - self.lanes)
                * self.tdg.node_count()
                * (self.ring.len() + self.free.len()),
        }
    }

    /// Records the `k`-th offers of all lanes at once — `offers[lane]` is
    /// `Some((instant, size))` for lanes whose trace still runs, `None` for
    /// lanes that have ended — and evaluates iteration `k` of every
    /// offering lane in one lockstep sweep over the compiled schedule.
    ///
    /// # Panics
    ///
    /// Panics if `offers` does not have one entry per lane, if `k` is out
    /// of lockstep order, if no lane offers at all, or if an ended lane
    /// tries to resume.
    pub fn set_input_batch(&mut self, k: u64, offers: &[Option<(Time, u64)>]) {
        assert_eq!(offers.len(), self.lanes, "one offer slot per lane");
        assert_eq!(k, self.next_k, "lockstep offers must arrive in iteration order");
        if k > 0 {
            for (l, offer) in offers.iter().enumerate() {
                assert!(
                    self.active[l] || offer.is_none(),
                    "lane {l} cannot resume after its trace ended"
                );
            }
        }
        assert!(
            offers.iter().any(Option::is_some),
            "at least one lane must offer per lockstep call"
        );

        self.next_k = k + 1;
        let mut offered = 0u64;
        for (l, offer) in offers.iter().enumerate() {
            let offering = offer.is_some();
            if k == 0 && offering {
                self.stats.lanes_evaluated += 1;
            }
            self.active[l] = offering;
            self.current[l] = offering;
            offered += u64::from(offering);
        }

        // Acquire iteration `k`'s block: the look-ahead block at the ring
        // tail when one was opened, a recycled or fresh block otherwise.
        let tail_k = self.base_k + self.ring.len() as u64;
        let mut tail = if k + 1 == tail_k {
            self.ring.pop_back().expect("look-ahead block exists")
        } else {
            debug_assert_eq!(k, tail_k, "lockstep keeps the ring contiguous");
            self.take_block()
        };
        for (l, offer) in offers.iter().enumerate() {
            if let Some((at, size)) = *offer {
                tail.sizes[l * self.relation_count + self.input_relation] = size;
                tail.acc[self.input_slot * self.stride + l] = MaxPlus::new(at.ticks() as i64);
            }
        }
        self.sweep(k, &mut tail, false);
        self.ring.push_back(tail);

        // Look-ahead: open iteration `k + 1` and compute its
        // input-independent prefix, mirroring the scalar engine's (and the
        // conventional model's) eager run-ahead; the prefix's execution
        // records must appear even when a lane's trace ends here.
        if self.has_prefix {
            let mut la = self.take_block();
            self.sweep(k + 1, &mut la, true);
            self.ring.push_back(la);
            self.lookahead_ran = true;
        }

        // Statistics: every offered lane performed the same structural
        // work; the delta is analytic (see `try_new`).
        let delta = if k == 0 { self.delta_first } else { self.delta_steady };
        for (l, &cur) in self.current.iter().enumerate() {
            if cur {
                let s = &mut self.lane_stats[l];
                s.nodes_computed += delta.nodes_computed;
                s.arcs_evaluated += delta.arcs_evaluated;
                s.iterations_completed += delta.iterations_completed;
            }
        }
        self.stats.nodes_computed += delta.nodes_computed * offered;
        self.stats.arcs_evaluated += delta.arcs_evaluated * offered;
        self.stats.iterations_completed += delta.iterations_completed * offered;
        self.stats.batched_iterations += 1;
        if kernel::is_chunked(self.stride) {
            self.kernel_dispatch.chunked_sweeps += 1;
        } else {
            self.kernel_dispatch.scalar_sweeps += 1;
        }

        // Prune history beyond the arc-delay horizon (size dependencies are
        // gated to the same horizon by `try_new`).
        let keep = self.horizon as usize + 2;
        while self.ring.len() > keep {
            let blk = self.ring.pop_front().expect("length checked");
            self.base_k += 1;
            if self.free.len() < FREE_LIST_CAP {
                self.free.push(blk);
            }
        }
    }

    /// One lockstep pass of iteration `k` into `blk`: the look-ahead
    /// prefix's slots when `prefix`, else every slot not computed yet (all
    /// but the input's, and the prefix's once a look-ahead has run). Each
    /// slot folds by its [`SlotShape`] — the straight-line shapes as
    /// full-width kernel folds over every lane, exec arcs once per offered
    /// lane — and the offered lanes then observe it.
    fn sweep(&mut self, k: u64, blk: &mut LaneBlock, prefix: bool) {
        let lanes = Lanes {
            ct: &self.compiled,
            hist: History::new(&self.ring, self.base_k, k),
            stride: self.stride,
            relations: self.relation_count,
            execs: self.n_execs,
            current: &self.current,
        };
        let (ct, stride) = (lanes.ct, lanes.stride);
        let (rels, execs) = (lanes.relations, lanes.execs);
        let LaneBlock {
            acc,
            sizes,
            exec_stash,
        } = blk;
        for slot in 0..ct.schedule.len() {
            let dependent = self.slot_dependent[slot];
            let computed = if prefix {
                dependent
            } else {
                slot == self.input_slot || (self.lookahead_ran && !dependent)
            };
            if computed {
                continue;
            }
            // Same-iteration sources sit at strictly earlier slots: the
            // destination row splits off above them.
            let (lo, rest) = acc.split_at_mut(slot * stride);
            let dst = &mut rest[..stride];
            let mut stash = self.record_observations.then_some(&mut exec_stash[..]);
            let op = ct.slots[slot];
            let (c, s, e) = (op.c as usize, op.s as usize, op.e as usize);
            match op.shape {
                SlotShape::Const1 => lanes.store_const(lo, dst, c),
                SlotShape::Const2 => {
                    lanes.store_const(lo, dst, c);
                    lanes.fold_const(lo, dst, c + 1);
                }
                SlotShape::Slow1Const1 => {
                    lanes.store_const(lo, dst, c);
                    lanes.fold_slow(dst, s);
                }
                SlotShape::Exec1 => {
                    dst.fill(MaxPlus::E);
                    lanes.fold_exec(lo, dst, sizes, stash, e);
                }
                SlotShape::General => {
                    let [cs, ss, es] = ct.arc_ranges(slot);
                    dst.fill(MaxPlus::E); // process-start baseline
                    for i in ss {
                        lanes.fold_slow(dst, i);
                    }
                    // Stash writes are last-wins in arc order, as in the
                    // scalar sweep.
                    for i in es {
                        lanes.fold_exec(lo, dst, sizes, stash.as_deref_mut(), i);
                    }
                    for i in cs {
                        lanes.fold_const(lo, dst, i);
                    }
                }
            }
            let obs = ct.ops[slot].obs;
            if matches!(obs, Obs::None) {
                continue;
            }
            // The offered lanes observe the slot: an exchange derives its
            // token size, is logged (it reads no exec stash) and published;
            // a read or an execution end is only logged.
            let record = self.record_observations;
            if let Obs::Exchange { relation, .. } = obs {
                let rule = self.size_rules[relation as usize];
                for (l, log) in self.logs.iter_mut().enumerate() {
                    if !self.current[l] {
                        continue;
                    }
                    let now = &mut sizes[l * rels..][..rels];
                    if let Some(size) = derived_size(rule, k, |rel, d| lanes.size(now, l, rel, d)) {
                        now[relation as usize] = size;
                    }
                    if record {
                        log.log(k, obs, dst[l], &[]);
                    }
                    log.publish(k, obs, dst[l], now);
                }
            } else if record {
                for (l, log) in self.logs.iter_mut().enumerate() {
                    if self.current[l] {
                        log.log(k, obs, dst[l], &exec_stash[l * execs..][..execs]);
                    }
                }
            }
        }
    }

    /// A recycled or fresh lane block. Sizes and exec stashes start clear,
    /// as a scalar iteration's do (a size reads 0 until its relation's
    /// exchange derives it); every accumulator an offered lane reads is
    /// written earlier in the same sweep.
    fn take_block(&mut self) -> LaneBlock {
        match self.free.pop() {
            Some(mut blk) => {
                blk.sizes.fill(0);
                blk.exec_stash.fill((MaxPlus::EPSILON, 0));
                blk
            }
            None => LaneBlock::fresh(
                self.tdg.node_count(),
                self.relation_count,
                self.n_execs,
                self.lanes,
                self.stride,
            ),
        }
    }
}

// Sweep workers move batched engines across threads, like scalar ones.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<BatchedEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tdg::{ExecTerm, TdgBuilder, Weight};
    use crate::{derive_tdg, DerivedTdg, Engine};
    use evolve_model::{didactic, LoadModel, RelationId, SizeModel};

    fn didactic_derived() -> (DerivedTdg, usize) {
        let d = didactic::chained(1, didactic::Params::default()).unwrap();
        let relations = d.arch.app().relations().len();
        (derive_tdg(&d.arch).unwrap(), relations)
    }

    #[test]
    fn rejects_multi_input_graphs() {
        let mut b = TdgBuilder::new();
        let i0 = b.add_node("u0", NodeKind::Input { relation: RelationId::from_index(0) });
        let i1 = b.add_node("u1", NodeKind::Input { relation: RelationId::from_index(1) });
        let out = b.add_node("y", NodeKind::Output { relation: RelationId::from_index(2) });
        b.add_arc(i0, out, 0, Weight::constant(1));
        b.add_arc(i1, out, 0, Weight::constant(1));
        let tdg = b.build().unwrap();
        let derived = DerivedTdg::new(
            tdg,
            vec![SizeRule::External; 3],
        );
        assert_eq!(
            BatchedEngine::try_new(derived, 3, true, 2).err(),
            Some(BatchUnsupported::MultiInput { inputs: 2 })
        );
        assert_eq!(BatchUnsupported::MultiInput { inputs: 2 }.reason(), "multi_input");
    }

    #[test]
    fn rejects_output_ack_graphs() {
        let mut b = TdgBuilder::new();
        let i0 = b.add_node("u0", NodeKind::Input { relation: RelationId::from_index(0) });
        let out = b.add_node("y", NodeKind::Output { relation: RelationId::from_index(1) });
        let ack = b.add_node("a", NodeKind::OutputAck { relation: RelationId::from_index(1) });
        b.add_arc(i0, out, 0, Weight::constant(1));
        b.add_arc(ack, out, 1, Weight::constant(0));
        let tdg = b.build().unwrap();
        let derived = DerivedTdg::new(tdg, vec![SizeRule::External; 2]);
        assert_eq!(
            BatchedEngine::try_new(derived, 2, true, 2).err(),
            Some(BatchUnsupported::OutputAcks)
        );
    }

    #[test]
    fn rejects_size_dependencies_past_the_horizon() {
        let mut b = TdgBuilder::new();
        let i0 = b.add_node("u0", NodeKind::Input { relation: RelationId::from_index(0) });
        let out = b.add_node("y", NodeKind::Output { relation: RelationId::from_index(1) });
        let term = ExecTerm {
            function: evolve_model::FunctionId::from_index(0),
            stmt: 0,
            load: LoadModel::Constant(5),
            speed: 1,
            // Reaches 5 iterations back while the only arc delay is 1.
            size_from: Some((RelationId::from_index(0), 5)),
        };
        b.add_arc(i0, out, 1, Weight::exec(term));
        let tdg = b.build().unwrap();
        let derived = DerivedTdg::new(
            tdg,
            vec![
                SizeRule::External,
                SizeRule::Derived { from: None, model: SizeModel::Same },
            ],
        );
        assert_eq!(
            BatchedEngine::try_new(derived, 2, true, 2).err(),
            Some(BatchUnsupported::LongSizeDelay)
        );
    }

    #[test]
    fn lanes_match_the_scalar_engine_on_the_didactic_chain() {
        let (derived, relations) = didactic_derived();
        let lanes = 3usize;
        let mut batch = BatchedEngine::try_new(derived, relations, true, lanes).unwrap();
        let mut scalars: Vec<Engine> = (0..lanes)
            .map(|_| {
                let (derived, relations) = didactic_derived();
                Engine::new(derived, relations, true)
            })
            .collect();
        for k in 0..8u64 {
            let offers: Vec<Option<(Time, u64)>> = (0..lanes)
                .map(|l| Some((Time::from_ticks(k * (40 + l as u64 * 13)), 1 + (k + l as u64) % 5)))
                .collect();
            batch.set_input_batch(k, &offers);
            for (l, scalar) in scalars.iter_mut().enumerate() {
                let (at, size) = offers[l].unwrap();
                scalar.set_input(0, k, at, size);
                assert_eq!(batch.ack_instant(l, k), scalar.ack_instant(0, k), "lane {l} k {k}");
                assert_eq!(batch.next_output(l, 0), scalar.next_output(0), "lane {l} k {k}");
            }
        }
        for (l, scalar) in scalars.iter().enumerate() {
            for r in 0..relations {
                assert_eq!(batch.instants(l, r), scalar.instants(r), "lane {l} relation {r}");
                assert_eq!(
                    batch.read_instants(l, r),
                    scalar.read_instants(r),
                    "lane {l} relation {r}"
                );
            }
            assert_eq!(batch.lane_stats(l), scalar.stats(), "lane {l} stats");
        }
        let agg = batch.stats();
        assert_eq!(agg.lanes_evaluated, lanes as u64);
        assert_eq!(agg.batched_iterations, 8);
        assert_eq!(
            agg.nodes_computed,
            (0..lanes).map(|l| batch.lane_stats(l).nodes_computed).sum::<u64>()
        );
    }

    #[test]
    fn reset_cycles_keep_the_allocation_footprint_stable() {
        let (derived, relations) = didactic_derived();
        let mut batch = BatchedEngine::try_new(derived, relations, true, 4).unwrap();
        let trace = |batch: &mut BatchedEngine| {
            for k in 0..32u64 {
                let offers: Vec<Option<(Time, u64)>> =
                    (0..4).map(|l| Some((Time::from_ticks(k * 50 + l), 1))).collect();
                batch.set_input_batch(k, &offers);
                for l in 0..4 {
                    while batch.next_output(l, 0).is_some() {}
                }
            }
        };
        trace(&mut batch);
        batch.reset(4);
        trace(&mut batch);
        let warmed = batch.allocation_footprint();
        assert!(warmed.lane_state_elements > 0);
        for _ in 0..10 {
            batch.reset(4);
            trace(&mut batch);
            assert_eq!(batch.allocation_footprint(), warmed);
        }
        // Changing the lane count reconfigures the strides.
        batch.reset(2);
        assert_eq!(batch.lanes(), 2);
        for k in 0..4u64 {
            batch.set_input_batch(k, &[Some((Time::from_ticks(k * 50), 1)), None]);
        }
        assert_eq!(batch.stats().lanes_evaluated, 1);
    }

    #[test]
    fn kernel_dispatch_tracks_stride_chunking() {
        let (derived, relations) = didactic_derived();
        let mut batch = BatchedEngine::try_new(derived, relations, true, 8).unwrap();
        let offers: Vec<Option<(Time, u64)>> =
            (0..8).map(|l| Some((Time::from_ticks(l as u64 * 10), 1))).collect();
        batch.set_input_batch(0, &offers);
        assert_eq!(
            batch.kernel_dispatch(),
            KernelDispatchStats { chunked_sweeps: 1, scalar_sweeps: 0 },
            "a whole-chunk batch runs the chunked kernels"
        );

        // Narrow batches take the narrow-row loop.
        let (derived, relations) = didactic_derived();
        let mut narrow = BatchedEngine::try_new(derived, relations, true, 3).unwrap();
        let offers: Vec<Option<(Time, u64)>> =
            (0..3).map(|l| Some((Time::from_ticks(l as u64 * 10), 1))).collect();
        narrow.set_input_batch(0, &offers);
        assert_eq!(
            narrow.kernel_dispatch(),
            KernelDispatchStats { chunked_sweeps: 0, scalar_sweeps: 1 },
            "sub-chunk batches run the narrow-row loop"
        );

        // Reset clears the counters; width 9 pads to stride 16 and is
        // chunked again.
        narrow.reset(9);
        assert_eq!(narrow.kernel_dispatch(), KernelDispatchStats::default());
        let offers: Vec<Option<(Time, u64)>> =
            (0..9).map(|l| Some((Time::from_ticks(l as u64 * 10), 1))).collect();
        narrow.set_input_batch(0, &offers);
        assert_eq!(
            narrow.kernel_dispatch(),
            KernelDispatchStats { chunked_sweeps: 1, scalar_sweeps: 0 },
            "padded batches run the chunked kernels"
        );
    }

    #[test]
    fn padded_lanes_show_up_in_the_allocation_footprint() {
        let (derived, relations) = didactic_derived();
        let mut batch = BatchedEngine::try_new(derived, relations, true, 9).unwrap();
        for k in 0..8u64 {
            let offers: Vec<Option<(Time, u64)>> =
                (0..9).map(|l| Some((Time::from_ticks(k * 50 + l), 1))).collect();
            batch.set_input_batch(k, &offers);
        }
        let fp = batch.allocation_footprint();
        // Stride 16 over 9 lanes: 7 padding elements per accumulator row.
        let nodes = batch.tdg().node_count();
        assert_eq!(fp.lane_padding_elements, 7 * nodes * fp.iteration_states);
        assert!(fp.lane_state_elements > fp.lane_padding_elements);

        // No padding below one chunk.
        batch.reset(4);
        for k in 0..8u64 {
            let offers: Vec<Option<(Time, u64)>> =
                (0..4).map(|l| Some((Time::from_ticks(k * 50 + l), 1))).collect();
            batch.set_input_batch(k, &offers);
        }
        assert_eq!(batch.allocation_footprint().lane_padding_elements, 0);
    }

    #[test]
    #[should_panic(expected = "cannot resume")]
    fn ended_lanes_cannot_resume() {
        let (derived, relations) = didactic_derived();
        let mut batch = BatchedEngine::try_new(derived, relations, true, 2).unwrap();
        batch.set_input_batch(0, &[Some((Time::ZERO, 1)), Some((Time::ZERO, 1))]);
        batch.set_input_batch(1, &[Some((Time::from_ticks(10), 1)), None]);
        batch.set_input_batch(2, &[Some((Time::from_ticks(20), 1)), Some((Time::from_ticks(20), 1))]);
    }
}
