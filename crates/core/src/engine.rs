//! The `ComputeInstant()` engine: incremental evaluation of a temporal
//! dependency graph.
//!
//! "Once input evolution instant `u(k)` is known, it is possible to
//! successively determine each intermediate instant and output evolution
//! instant" (paper Section III.C). The [`Engine`] does precisely that, in
//! zero *simulated* time: each call to [`Engine::set_input`] runs a
//! worklist propagation that computes every node whose dependencies are now
//! satisfied, across however many iterations are in flight.
//!
//! The engine simultaneously performs the paper's *observation over a local
//! time* (Fig. 2(b)): every computed exchange instant is logged per
//! relation, and every computed execution interval is replayed into
//! [`ExecRecord`]s — identical in format to the conventional simulation's
//! records, enabling a bitwise accuracy comparison without any simulator
//! involvement.
//!
//! Negative-iteration history (`k − d < 0`) resolves to instant 0, the
//! model start, mirroring the simulator where every process is ready at
//! time zero.
//!
//! # Performance
//!
//! `ComputeInstant()` replaces kernel events, so its cost *is* the method's
//! overhead (paper Fig. 5). The implementation therefore avoids per-event
//! allocation entirely in steady state: iteration states live in a ring
//! buffer and are recycled, per-node observation actions are precompiled,
//! and arc evaluation reads weights in place. On top of that, the default
//! [`EvalBackend::Compiled`] lowers the graph into a [`CompiledTdg`] —
//! a levelized schedule with CSR-flattened arcs and pre-lowered durations —
//! and evaluates steady-state iterations as one linear sweep that writes
//! its observation logs in place, instead of worklist propagation. That
//! sweep folds each slot through one evaluator, `eval_slot`, whose
//! straight-line arms (one per [`SlotShape`](crate::SlotShape))
//! read the operands lowered into the slot's op; [`EvalBackend::Worklist`]
//! keeps the propagation path as the bitwise reference (see
//! `tests/backend_conformance.rs`).

use std::collections::VecDeque;
use std::sync::Arc;

use evolve_des::{ChannelLog, EventId, Time};
use evolve_maxplus::MaxPlus;
use evolve_model::{ExecRecord, LoadContext};
use evolve_obs::{BackendKind, EngineCounters, EngineEvent, Observer};

use crate::compile::{
    lower_node_meta, zero_delay_dependent, Arm, CompiledTdg, EvalBackend, ExecSite, Obs, SlotOp,
};
use crate::derive::{DerivedTdg, SizeRule};
use crate::error::EngineError;
use crate::periodic::{
    self, CallEmissions, CallObservation, ExecEmission, FastForward, FastForwardStats, Observed,
    OutputEmission, PeriodicState, ReplayPlan, TailObservation, Template, DEFAULT_CONFIRM_PERIODS,
};
use crate::tdg::{NodeId, NodeKind, Tdg, Weight};

/// A kernel notification requested by the engine: wake `event` immediately
/// (`at == None`) or at the given computed instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notification {
    /// The event to notify.
    pub event: EventId,
    /// When to notify; `None` = in the current delta cycle.
    pub at: Option<Time>,
}

/// Upper bound on recycled [`IterState`]s retained by the free list.
const FREE_LIST_CAP: usize = 16;

/// What [`Engine::partition_stats`] returns: the counters of the deleted
/// partitioned sweep, every one 0. Kept only because the benchmark crate
/// still reports them; the next benchmark change (ROADMAP item 10)
/// removes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Always 0.
    pub parallel_iterations: u64,
    /// Always 0.
    pub serial_iterations: u64,
    /// Always 0.
    pub barrier_crossings: u64,
}

/// Allocation-footprint snapshot of an [`Engine`] (see
/// [`Engine::allocation_footprint`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocationFootprint {
    /// Materialized iteration states (in the ring or the free list).
    pub iteration_states: usize,
    /// Capacity of the iteration ring buffer.
    pub ring_capacity: usize,
    /// Capacity of the iteration free list.
    pub free_capacity: usize,
    /// Capacity of the propagation worklist.
    pub work_capacity: usize,
    /// Capacity of the pending-notification buffer.
    pub notification_capacity: usize,
    /// Total element capacity of the compiled backend's buffers (schedule,
    /// CSR arc streams, instruction stream); `0` for the worklist backend.
    /// Constant after engine construction — the compiled program is
    /// immutable.
    pub compiled_elements: usize,
    /// Total element capacity of per-lane SoA state (accumulators, sizes,
    /// exec stashes across the ring and free list). `0` for the scalar
    /// [`Engine`]; the batched engine
    /// ([`BatchedEngine`](crate::BatchedEngine)) reports its lane blocks
    /// here.
    pub lane_state_elements: usize,
    /// Of [`lane_state_elements`](AllocationFootprint::lane_state_elements),
    /// how many are chunk-padding tails: accumulator rows are padded to the
    /// kernel stride (`kernel::lane_stride`), and the padded lanes hold
    /// harmless never-read values. `0` for the scalar [`Engine`] and for
    /// batches narrower than one chunk.
    pub lane_padding_elements: usize,
}

/// Per-iteration evaluation state (recycled through a free list).
#[derive(Default)]
pub(crate) struct IterState {
    /// Running `⊕` accumulator per node; the final value once computed.
    acc: Vec<MaxPlus>,
    /// Unresolved incoming arcs per node.
    remaining: Vec<u32>,
    computed: Vec<bool>,
    /// Token size per relation (0 until the defining node computes).
    sizes: Vec<u64>,
    /// `(start, ops)` per dense exec-end index, captured when the duration
    /// arc resolves.
    exec_stash: Vec<(MaxPlus, u64)>,
    nodes_pending: usize,
}

impl IterState {
    /// A state with the in-degree template applied.
    fn fresh(template: &[u32], relations: usize, execs: usize) -> Self {
        let nodes = template.len();
        IterState {
            acc: vec![MaxPlus::EPSILON; nodes],
            remaining: template.to_vec(),
            computed: vec![false; nodes],
            sizes: vec![0; relations],
            exec_stash: vec![(MaxPlus::EPSILON, 0); execs],
            nodes_pending: nodes,
        }
    }

    fn reset(&mut self, template: &[u32]) {
        self.acc.fill(MaxPlus::EPSILON);
        self.remaining.copy_from_slice(template);
        self.computed.fill(false);
        self.sizes.fill(0);
        self.exec_stash.fill((MaxPlus::EPSILON, 0));
        self.nodes_pending = self.acc.len();
    }
}

/// Iteration `k`'s state in a ring holding iterations `base ..`.
#[inline]
fn iter_at<R>(ring: &VecDeque<R>, base: u64, k: u64) -> Option<&R> {
    if k < base {
        return None;
    }
    ring.get((k - base) as usize)
}

#[inline]
fn iter_at_mut(ring: &mut VecDeque<IterState>, base: u64, k: u64) -> Option<&mut IterState> {
    if k < base {
        return None;
    }
    ring.get_mut((k - base) as usize)
}

/// Evaluates a raw weight at iteration `k`: total lag in ticks plus the raw
/// operation count (for observation). The worklist's reference evaluation;
/// the compiled sweeps use the lowered [`crate::compile::Durations`].
#[inline]
pub(crate) fn eval_weight(
    weight: &Weight,
    k: u64,
    size_at: impl Fn(usize, u64) -> u64,
) -> (u64, u64) {
    let mut lag = weight.constant;
    let mut ops_total = 0u64;
    for term in &weight.execs {
        let size = match term.size_from {
            None => 0,
            Some((rel, delay)) => {
                if u64::from(delay) > k {
                    0
                } else {
                    size_at(rel.index(), u64::from(delay))
                }
            }
        };
        let ops = term.load.ops(LoadContext {
            function: term.function.index(),
            stmt: term.stmt,
            k,
            size,
        });
        ops_total += ops;
        lag += evolve_model::duration_for(ops, term.speed).ticks();
    }
    (lag, ops_total)
}

/// The history rows a compiled sweep of iteration `k` reads: older
/// iterations through the ring, with row `k − 1` (the common resource and
/// back-pressure arcs) looked up once per sweep. Pre-history and pruned
/// iterations read as the process-start baseline E and token size 0. The
/// batched sweep reads its lane blocks through the same type.
pub(crate) struct History<'a, R = IterState> {
    ring: &'a VecDeque<R>,
    base_k: u64,
    pub(crate) k: u64,
    prev: Option<&'a R>,
}

impl<'a, R> History<'a, R> {
    pub(crate) fn new(ring: &'a VecDeque<R>, base_k: u64, k: u64) -> Self {
        let prev = (k >= 1).then(|| iter_at(ring, base_k, k - 1)).flatten();
        History {
            ring,
            base_k,
            k,
            prev,
        }
    }

    /// Iteration `k − delay` (`delay >= 1`), if still materialized.
    #[inline(always)]
    pub(crate) fn row(&self, delay: u64) -> Option<&'a R> {
        if delay == 1 {
            self.prev
        } else {
            (delay <= self.k)
                .then(|| iter_at(self.ring, self.base_k, self.k - delay))
                .flatten()
        }
    }
}

impl History<'_> {
    /// Node `src`'s instant at iteration `k − delay` (`delay >= 1`).
    #[inline(always)]
    fn acc(&self, delay: u32, src: u32) -> MaxPlus {
        self.row(u64::from(delay))
            .map_or(MaxPlus::E, |it| it.acc[src as usize])
    }

    /// Relation `rel`'s token size at iteration `k − delay`: iteration `k`
    /// itself from `now`, which the sweep holds outside the ring.
    #[inline(always)]
    fn size(&self, now: &[u64], rel: usize, delay: u64) -> u64 {
        if delay == 0 {
            now[rel]
        } else {
            self.row(delay).map_or(0, |it| it.sizes[rel])
        }
    }
}

/// `x ⊗ lag` for a finite `lag`, as every lowered lag is: [`MaxPlus::otimes`]
/// without its check of the lag.
#[inline(always)]
fn plus_lag(x: MaxPlus, lag: MaxPlus) -> MaxPlus {
    debug_assert!(lag.is_finite());
    if x.is_epsilon() {
        x
    } else {
        MaxPlus::from_raw(
            x.raw()
                .saturating_add(lag.raw())
                .clamp(i64::MIN + 1, i64::MAX - 1),
        )
    }
}

/// [`plus_lag`] for a constant or slow arc's lag. A zero lag folds `x`
/// itself, skipping the add: `plus_lag(x, E)` is `x` for every `x`, since
/// finite instants never leave `MIN ..= MAX` (`MaxPlus` saturates at
/// `MAX`). Every constant arc of a derived graph has a zero lag.
#[inline(always)]
fn plus_const_lag(x: MaxPlus, lag: MaxPlus) -> MaxPlus {
    if lag == MaxPlus::E {
        x
    } else {
        plus_lag(x, lag)
    }
}

/// The `(start, ops)` of a fold that stashed nothing: an `ExecEnd` with
/// this pair emits no record, as if its execute never ran.
const UNSTASHED: (MaxPlus, u64) = (MaxPlus::EPSILON, 0);

/// Exec arc `i`'s term at iteration `k` for source instant `src_val`, its
/// duration evaluated against the token sizes `size_at(rel, d)` reads
/// (relation `rel` at iteration `k − d`), and the `(start, ops)` a
/// duration arc stashes (written into `stash` when one is given;
/// [`UNSTASHED`] for any other arc). An `ε` source contributes nothing and
/// evaluates no duration. Every compiled sweep's table-evaluated exec arcs
/// fold through here, the batched sweep's once per lane.
#[inline(always)]
pub(crate) fn exec_term(
    ct: &CompiledTdg,
    k: u64,
    i: usize,
    src_val: MaxPlus,
    size_at: impl Fn(usize, u64) -> u64,
    stash: &mut Option<&mut [(MaxPlus, u64)]>,
) -> (MaxPlus, (MaxPlus, u64)) {
    if src_val.is_epsilon() {
        return (MaxPlus::EPSILON, UNSTASHED);
    }
    let (lag, ops) = ct.durations.eval(i, k, size_at);
    let stashed = stash_exec(ct.exec_stash_dense[i], (src_val, ops), stash);
    (plus_lag(src_val, MaxPlus::new(lag as i64)), stashed)
}

/// Writes a duration arc's `(start, ops)` into dense stash slot `dense`
/// (when a stash is given) and returns it; a `dense` of `u32::MAX` marks an
/// arc that stashes nothing.
#[inline(always)]
fn stash_exec(
    dense: u32,
    exec: (MaxPlus, u64),
    stash: &mut Option<&mut [(MaxPlus, u64)]>,
) -> (MaxPlus, u64) {
    if dense == u32::MAX {
        return UNSTASHED;
    }
    if let Some(stash) = stash.as_deref_mut() {
        stash[dense as usize] = exec;
    }
    exec
}

/// The slot body of the serial compiled sweep: `op`'s arcs `⊕`-folded over
/// the process-start baseline E for iteration `hist.k`, by straight-line
/// code per [`Arm`] from the operands the op carries. `now` holds
/// iteration `k`'s instants, `sizes` its token sizes. Returns the instant
/// and the `(start, ops)` a single exec arc would stash ([`UNSTASHED`] for
/// every other arm). Only a general slot writes `stash`: the others
/// return their one pair instead, and nothing else reads it.
#[inline(always)]
fn eval_slot(
    ct: &CompiledTdg,
    op: &SlotOp,
    hist: &History<'_>,
    sizes: &[u64],
    mut stash: Option<&mut [(MaxPlus, u64)]>,
    now: &[MaxPlus],
) -> (MaxPlus, (MaxPlus, u64)) {
    let konst = |src: u32, lag: MaxPlus| plus_const_lag(now[src as usize], lag);
    let fold = |acc: MaxPlus| MaxPlus::E.oplus(acc);
    match op.arm {
        Arm::Const1 { src, lag } => (fold(konst(src, lag)), UNSTASHED),
        Arm::Const2 { src, lag } => (
            fold(konst(src[0], lag[0]).oplus(konst(src[1], lag[1]))),
            UNSTASHED,
        ),
        Arm::Slow1Const1 {
            slow,
            slow_lag,
            src,
            lag,
        } => {
            let prev = hist.prev.map_or(MaxPlus::E, |it| it.acc[slow as usize]);
            (
                fold(plus_const_lag(prev, slow_lag).oplus(konst(src, lag))),
                UNSTASHED,
            )
        }
        Arm::Exec1 {
            src,
            stash: dense,
            constant,
            term,
        } => {
            let start = now[src as usize];
            if start.is_epsilon() {
                return (fold(start), UNSTASHED);
            }
            // The term reads its size, if any, at iteration `k` itself.
            let (ticks, ops) = term.eval(hist.k, &|rel, _| sizes[rel]);
            let stashed = stash_exec(dense, (start, ops), &mut None);
            let lag = MaxPlus::new((constant + ticks) as i64);
            (fold(plus_lag(start, lag)), stashed)
        }
        Arm::Exec1Table { src, e } => {
            let size_at = |rel, d| hist.size(sizes, rel, d);
            let src_val = now[src as usize];
            let (term, stashed) = exec_term(ct, hist.k, e as usize, src_val, size_at, &mut None);
            (fold(term), stashed)
        }
        Arm::General { slot } => (
            eval_general(ct, slot as usize, hist, sizes, &mut stash, now),
            UNSTASHED,
        ),
        Arm::Offered => (now[op.dst as usize], UNSTASHED),
    }
}

/// The general arm of [`eval_slot`]: the walk over the slot's three CSR
/// ranges. Out of line, so the sweeps' hot loops inline only the shapes.
#[inline(never)]
fn eval_general(
    ct: &CompiledTdg,
    slot: usize,
    hist: &History<'_>,
    sizes: &[u64],
    stash: &mut Option<&mut [(MaxPlus, u64)]>,
    now: &[MaxPlus],
) -> MaxPlus {
    let [cs, ss, es] = ct.arc_ranges(slot);
    let mut acc = MaxPlus::E;
    for i in ss {
        acc = acc.oplus(plus_const_lag(
            hist.acc(ct.slow_delays[i], ct.slow_srcs[i]),
            ct.slow_lags[i],
        ));
    }
    for i in es {
        let (delay, src) = (ct.exec_delays[i], ct.exec_srcs[i]);
        let src_val = if delay == 0 {
            now[src as usize]
        } else {
            hist.acc(delay, src)
        };
        let size_at = |rel, d| hist.size(sizes, rel, d);
        acc = acc.oplus(exec_term(ct, hist.k, i, src_val, size_at, stash).0);
    }
    for i in cs {
        acc = acc.oplus(plus_const_lag(
            now[ct.const_srcs[i] as usize],
            ct.const_lags[i],
        ));
    }
    acc
}

/// A computed instant as a kernel time (`ε` and negatives clamp to 0).
#[inline(always)]
fn instant(value: MaxPlus) -> Time {
    Time::from_ticks(value.finite().unwrap_or(0).max(0) as u64)
}

/// The folds of one serial compiled sweep: each slot the tail has not
/// computed yet folds its arcs ([`eval_slot`]) into `tail.acc`, in
/// schedule order, and with `log` duration arcs stash their `(start, ops)`
/// and each slot writes its log in place. On a `fresh` tail that is every
/// slot (an input's op leaves its offered instant as it is); on a
/// look-ahead tail, the slots neither the look-ahead nor the offer set.
#[inline(never)]
fn sweep_serial(
    ct: &CompiledTdg,
    hist: &History<'_>,
    tail: &mut IterState,
    log: Option<&mut EmissionLog>,
    fresh: bool,
) {
    // One copy of the loop per logging mode and tail: the logging loop
    // keeps more state live per slot, which would slow the plain one down,
    // and a fresh tail's loop tests no computed mark.
    match (log, fresh) {
        (Some(log), true) => sweep_slots::<true>(ct, hist, tail, Some(log)),
        (Some(log), false) => sweep_slots::<false>(ct, hist, tail, Some(log)),
        (None, true) => sweep_slots::<true>(ct, hist, tail, None),
        (None, false) => sweep_slots::<false>(ct, hist, tail, None),
    }
}

#[inline(always)]
fn sweep_slots<const FRESH: bool>(
    ct: &CompiledTdg,
    hist: &History<'_>,
    tail: &mut IterState,
    mut log: Option<&mut EmissionLog>,
) {
    for op in &ct.ops {
        if !FRESH && tail.computed[op.dst as usize] {
            continue;
        }
        let stash = log.is_some().then_some(&mut tail.exec_stash[..]);
        let (acc, stashed) = eval_slot(ct, op, hist, &tail.sizes, stash, &tail.acc);
        tail.acc[op.dst as usize] = acc;
        if let Some(log) = log.as_mut() {
            match op.obs {
                // An `ExecEnd` records straight from the `(start, ops)` its
                // fold returned; only a general slot, several of whose arcs
                // may stash, reads its stash back.
                Obs::ExecEnd { site, dense } => {
                    let exec = match op.arm {
                        Arm::General { .. } => tail.exec_stash[dense as usize],
                        _ => stashed,
                    };
                    log.record(site, hist.k, exec, acc);
                }
                obs => log.log(hist.k, obs, acc, &tail.exec_stash),
            }
        }
    }
}

/// The token size `rule` gives its relation at iteration `k`, when the rule
/// derives it from another relation's size: `size_at(rel, d)` reads
/// relation `rel` at iteration `k − d` (only called with `d <= k`).
#[inline]
pub(crate) fn derived_size(
    rule: SizeRule,
    k: u64,
    size_at: impl Fn(usize, u64) -> u64,
) -> Option<u64> {
    let SizeRule::Derived { from, model } = rule else {
        return None;
    };
    let input_size = match from {
        Some((rel, delay)) if u64::from(delay) <= k => size_at(rel.index(), u64::from(delay)),
        _ => 0,
    };
    Some(model.apply(input_size))
}

/// Everything one evaluation lane emits: the exchange-instant and FIFO
/// read logs and execution records (the observation over local time,
/// written while recording), the computed outputs and input
/// acknowledgments, and the kernel notifications they wake. [`Engine`]
/// owns one and [`BatchedEngine`](crate::BatchedEngine) one per lane. Both
/// write it during a sweep ([`EmissionLog::log`], [`EmissionLog::publish`]);
/// the scalar engine's fast-forward also diffs it around a call it captures
/// ([`EmissionLog::mark`], [`EmissionLog::collect`]) and appends replayed
/// calls to it ([`EmissionLog::replay`]).
pub(crate) struct EmissionLog {
    /// Exchange-instant log per relation (write instants).
    instants: Vec<Vec<Time>>,
    /// Read-instant log per relation, kept only for relations with a FIFO
    /// read node: a rendezvous read is its write, so
    /// [`EmissionLog::read_instants`] serves those from `instants`.
    reads: Vec<Vec<Time>>,
    /// Per relation: whether it has a FIFO read node (owns a `reads` log).
    fifo_read: Vec<bool>,
    /// Execution records, in emission order.
    pub(crate) exec_records: Vec<ExecRecord>,
    /// Computed outputs per output index: `(iteration, instant, token size)`.
    outputs: Vec<VecDeque<(u64, Time, u64)>>,
    /// Most recent acknowledgment instant per input: `(k, instant)`.
    acks: Vec<Option<(u64, Time)>>,
    /// Kernel event to wake per input acknowledgment and per output, when
    /// one is registered (only a kernel-attached [`Engine`] registers).
    input_events: Vec<Option<EventId>>,
    output_events: Vec<Option<EventId>>,
    /// Wake-ups owed to the kernel ([`Engine::drain_notifications`]).
    notifications: Vec<Notification>,
    /// What [`EmissionLog::mark`] recorded before a captured call.
    marks: Marks,
}

/// Log lengths, acknowledgment and work counters before a captured call.
#[derive(Default)]
struct Marks {
    instants: Vec<usize>,
    reads: Vec<usize>,
    outputs: Vec<usize>,
    records: usize,
    ack: Option<(u64, Time)>,
    stats: EngineCounters,
}

impl EmissionLog {
    /// Empty logs for a graph with `fifo_read.len()` relations and the
    /// given numbers of inputs and outputs.
    pub(crate) fn new(fifo_read: Vec<bool>, inputs: usize, outputs: usize) -> Self {
        EmissionLog {
            instants: vec![Vec::new(); fifo_read.len()],
            reads: vec![Vec::new(); fifo_read.len()],
            fifo_read,
            exec_records: Vec::new(),
            outputs: vec![VecDeque::new(); outputs],
            acks: vec![None; inputs],
            input_events: vec![None; inputs],
            output_events: vec![None; outputs],
            notifications: Vec::new(),
            marks: Marks::default(),
        }
    }

    /// Empties every log and queue in place (keeping their capacity) and
    /// drops the event registrations.
    pub(crate) fn clear(&mut self) {
        self.instants.iter_mut().for_each(Vec::clear);
        self.reads.iter_mut().for_each(Vec::clear);
        self.exec_records.clear();
        self.outputs.iter_mut().for_each(VecDeque::clear);
        self.acks.fill(None);
        self.input_events.fill(None);
        self.output_events.fill(None);
        self.notifications.clear();
    }

    /// Exchange-instant log of a relation.
    pub(crate) fn instants(&self, relation: usize) -> &[Time] {
        &self.instants[relation]
    }

    /// Read-instant log of a relation.
    pub(crate) fn read_instants(&self, relation: usize) -> &[Time] {
        if self.fifo_read[relation] {
            &self.reads[relation]
        } else {
            &self.instants[relation]
        }
    }

    /// The acknowledgment instant of `input`'s `k`-th offer, if computed.
    pub(crate) fn ack_instant(&self, input: usize, k: u64) -> Option<Time> {
        match self.acks[input] {
            Some((stored_k, t)) if stored_k == k => Some(t),
            _ => None,
        }
    }

    /// Pops the next computed output of `output`.
    pub(crate) fn next_output(&mut self, output: usize) -> Option<(u64, Time, u64)> {
        self.outputs[output].pop_front()
    }

    /// Reserves room for `iterations` iterations of observation logs: one
    /// instant per exchange and FIFO read in `node_obs`, and `execs`
    /// execution records per iteration.
    fn reserve(&mut self, node_obs: &[Obs], iterations: usize, execs: usize) {
        for obs in node_obs {
            match *obs {
                Obs::Exchange { relation, .. } => {
                    self.instants[relation as usize].reserve_exact(iterations);
                }
                Obs::FifoRead { relation } => {
                    self.reads[relation as usize].reserve_exact(iterations);
                }
                Obs::None | Obs::ExecEnd { .. } => {}
            }
        }
        self.exec_records.reserve_exact(iterations * execs);
    }

    /// Moves out a relation's read instants (a rendezvous relation's reads
    /// are a copy of its writes, which stay for [`EmissionLog::take_channel`]).
    pub(crate) fn take_reads(&mut self, relation: usize) -> Vec<Time> {
        if self.fifo_read[relation] {
            std::mem::take(&mut self.reads[relation])
        } else {
            self.instants[relation].clone()
        }
    }

    /// Moves out a relation's write and read instants as a channel log.
    pub(crate) fn take_channel(&mut self, relation: usize) -> ChannelLog {
        let read_instants = self.take_reads(relation);
        ChannelLog {
            write_instants: std::mem::take(&mut self.instants[relation]),
            read_instants,
        }
    }

    /// Logs the observation of a node with action `obs` that computed
    /// `value` for iteration `k`: an exchange's write instant, a FIFO
    /// read's read instant, or an `ExecEnd`'s execution record from its
    /// iteration's `stash`.
    #[inline(always)]
    pub(crate) fn log(&mut self, k: u64, obs: Obs, value: MaxPlus, stash: &[(MaxPlus, u64)]) {
        match obs {
            Obs::None => {}
            Obs::Exchange { relation, .. } => {
                let log = &mut self.instants[relation as usize];
                debug_assert_eq!(log.len() as u64, k, "exchange instants compute in order");
                log.push(instant(value));
            }
            Obs::FifoRead { relation } => self.reads[relation as usize].push(instant(value)),
            Obs::ExecEnd { site, dense } => self.record(site, k, stash[dense as usize], value),
        }
    }

    /// Logs the execution record of `site` at iteration `k` from its
    /// stashed `(start, ops)` and computed end instant, unless the execute
    /// never ran (an `ε` start that performed no operations).
    #[inline(always)]
    fn record(&mut self, site: ExecSite, k: u64, (start, ops): (MaxPlus, u64), end: MaxPlus) {
        if start.is_finite() || ops > 0 {
            let record = site.record(k, instant(start), instant(end), ops);
            self.exec_records.push(record);
        }
    }

    /// Publishes an exchange at the boundary: the acknowledgment instant of
    /// the input it acks and the token of the output it produces (its size
    /// from the iteration's `sizes`, read at the relation's size root), with
    /// the kernel notifications they wake.
    #[inline(always)]
    pub(crate) fn publish(&mut self, k: u64, obs: Obs, value: MaxPlus, sizes: &[u64]) {
        let Obs::Exchange {
            ack_input,
            output,
            size_root,
            ..
        } = obs
        else {
            return;
        };
        let time = instant(value);
        if ack_input != u32::MAX {
            self.acks[ack_input as usize] = Some((k, time));
            self.wake(self.input_events[ack_input as usize], None);
        }
        if output != u32::MAX {
            let size = sizes[size_root as usize];
            self.outputs[output as usize].push_back((k, time, size));
            // Wake the emission directly at the output instant.
            self.wake(self.output_events[output as usize], Some(time));
        }
    }

    #[inline(always)]
    fn wake(&mut self, event: Option<EventId>, at: Option<Time>) {
        if let Some(event) = event {
            self.notifications.push(Notification { event, at });
        }
    }

    /// Marks the log lengths, the acknowledgment and the work counters
    /// `stats` so [`EmissionLog::collect`] can diff out exactly what the
    /// upcoming call emits.
    pub(crate) fn mark(&mut self, stats: EngineCounters) {
        let m = &mut self.marks;
        m.instants.clear();
        m.instants.extend(self.instants.iter().map(Vec::len));
        m.reads.clear();
        m.reads.extend(self.reads.iter().map(Vec::len));
        m.outputs.clear();
        m.outputs.extend(self.outputs.iter().map(VecDeque::len));
        m.records = self.exec_records.len();
        m.ack = self.acks[0];
        m.stats = stats;
    }

    /// Diffs the log against the marks: the complete emission set of the
    /// call at iteration `k`, whose work counters now read `stats` (a
    /// consumer cannot pop outputs mid-call, so queue-length diffs are
    /// exact).
    pub(crate) fn collect(&self, k: u64, stats: EngineCounters) -> CallEmissions {
        let m = &self.marks;
        let mut e = CallEmissions::default();
        for (rel, (log, &from)) in self.instants.iter().zip(&m.instants).enumerate() {
            let ticks = log[from..].iter().map(|t| (rel as u32, t.ticks()));
            e.instants.extend(ticks);
        }
        for (rel, (log, &from)) in self.reads.iter().zip(&m.reads).enumerate() {
            let ticks = log[from..].iter().map(|t| (rel as u32, t.ticks()));
            e.reads.extend(ticks);
        }
        for r in &self.exec_records[m.records..] {
            debug_assert!(r.k >= k, "a call's records belong to k or the look-ahead");
            e.execs.push(ExecEmission {
                k_off: r.k - k,
                resource: r.resource,
                function: r.function,
                stmt: r.stmt,
                start: r.start.ticks(),
                end: r.end.ticks(),
                ops: r.ops,
            });
        }
        for (out, (queue, &from)) in self.outputs.iter().zip(&m.outputs).enumerate() {
            for &(ok, t, s) in queue.iter().skip(from) {
                debug_assert!(ok >= k);
                e.outputs.push(OutputEmission {
                    output: out as u32,
                    k_off: ok - k,
                    at: t.ticks(),
                    size: s,
                });
            }
        }
        if self.acks[0] != m.ack {
            if let Some((ak, t)) = self.acks[0] {
                debug_assert!(ak >= k);
                e.ack = Some((ak - k, t.ticks()));
            }
        }
        e.nodes = stats.nodes_computed - m.stats.nodes_computed;
        e.arcs = stats.arcs_evaluated - m.stats.arcs_evaluated;
        e.iters = stats.iterations_completed - m.stats.iterations_completed;
        e
    }

    /// Appends a replayed call at iteration `k`: the captured emissions
    /// `e`, their instants taken in emission order from `shifted` (as
    /// [`periodic::extrapolate_emissions`] produced them), in the order the
    /// captured call appended them — log order is part of the observable
    /// contract.
    pub(crate) fn replay(
        &mut self,
        k: u64,
        e: &CallEmissions,
        shifted: &mut impl Iterator<Item = u64>,
    ) {
        let mut next = || Time::from_ticks(shifted.next().expect("one shifted instant each"));
        for &(rel, _) in &e.instants {
            self.instants[rel as usize].push(next());
        }
        for &(rel, _) in &e.reads {
            self.reads[rel as usize].push(next());
        }
        for r in &e.execs {
            let (start, end) = (next(), next());
            let site = ExecSite {
                function: r.function,
                stmt: r.stmt as u32,
                resource: r.resource,
            };
            self.exec_records
                .push(site.record(k + r.k_off, start, end, r.ops));
        }
        for o in &e.outputs {
            let at = next();
            self.outputs[o.output as usize].push_back((k + o.k_off, at, o.size));
            self.wake(self.output_events[o.output as usize], Some(at));
        }
        if let Some((k_off, _)) = e.ack {
            self.acks[0] = Some((k + k_off, next()));
            self.wake(self.input_events[0], None);
        }
    }
}

/// Incremental evaluator of a derived temporal dependency graph.
///
/// # Examples
///
/// ```
/// use evolve_core::{derive_tdg, Engine};
/// use evolve_des::Time;
/// use evolve_model::didactic;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = didactic::chained(1, didactic::Params::default())?;
/// let derived = derive_tdg(&d.arch)?;
/// let mut engine = Engine::new(derived, d.arch.app().relations().len(), true);
/// // Offer the first token at t = 0 with size 8.
/// engine.set_input(0, 0, Time::ZERO, 8);
/// // The output instant y(0) is now computed.
/// let (k, y, _size) = engine.next_output(0).expect("output computed");
/// assert_eq!(k, 0);
/// assert!(y > Time::ZERO);
/// # Ok(())
/// # }
/// ```
pub struct Engine {
    tdg: Tdg,
    /// Size rules resolved to their roots (see `compile::SizePlan`).
    size_rules: Vec<SizeRule>,
    /// Per relation, the relation whose size it carries: the worklist's
    /// raw weights read their sizes there.
    size_root: Vec<u32>,
    relation_count: usize,
    /// In-degree per node (ring-state reset template).
    remaining_template: Vec<u32>,
    /// Precompiled observation action per node.
    node_obs: Vec<Obs>,
    /// Arcs whose resolution stashes exec info (duration arcs into an
    /// `ExecEnd`).
    stash_arc: Vec<bool>,
    n_execs: usize,
    /// Arc indices with delay ≥ 1 (scanned when opening an iteration).
    delayed_arcs: Vec<u32>,
    /// Non-input nodes with no incoming arcs (take the baseline on open).
    baseline_nodes: Vec<NodeId>,
    /// Output-acknowledgment node per output, if feedback is required.
    output_ack_nodes: Vec<Option<NodeId>>,
    /// Whether any output needs acknowledgment feedback (disables the
    /// single-sweep fast path: iterations then complete only after the
    /// environment consumed the outputs).
    has_output_acks: bool,
    /// Whether any node is independent of all external instants (the
    /// look-ahead has something to compute).
    has_prefix: bool,
    /// Next expected acknowledgment iteration per output.
    next_output_ack_k: Vec<u64>,
    /// Which evaluation strategy this engine was built with.
    backend: EvalBackend,
    /// The lowered evaluation program for the steady-state linear sweep;
    /// `None` for [`EvalBackend::Worklist`]. Immutable and shared: the
    /// sweeps move the handle out of `self` for every iteration.
    compiled: Option<Arc<CompiledTdg>>,
    /// Iterations `base_k ..` currently materialized.
    ring: VecDeque<IterState>,
    base_k: u64,
    free: Vec<IterState>,
    /// Reused propagation worklist.
    work: VecDeque<(u64, NodeId)>,
    /// Next expected iteration per input.
    next_input_k: Vec<u64>,
    /// Logs, outputs, acknowledgments and kernel notifications.
    log: EmissionLog,
    record_observations: bool,
    stats: EngineCounters,
    prune_counter: u32,
    /// Periodic fast-forward knob (Off by default for bare engines).
    fast_forward: FastForward,
    /// Structural eligibility for fast-forward, fixed at construction.
    ff_eligible: bool,
    /// Distinct `k`-periods of all execution loads; `None` when some load
    /// is aperiodic in `k` (which also makes the engine ineligible).
    ff_load_periods: Option<Vec<u64>>,
    /// Online periodic-regime detector and template; `Some` iff fast-forward
    /// is enabled and the engine is eligible.
    periodic: Option<Box<PeriodicState>>,
    /// Reusable two-pass extrapolation scratch (replayed instants).
    ff_scratch: Vec<u64>,
    /// Reusable two-pass extrapolation scratch (reconstructed accumulators).
    ff_acc_scratch: Vec<i64>,
    /// Attached telemetry observer; `None` (the default) reduces the whole
    /// telemetry layer to one branch per boundary call.
    observer: Option<Box<dyn Observer>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("nodes", &self.tdg.node_count())
            .field("in_flight", &self.ring.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Engine {
    /// Creates an engine over a derived graph with the default
    /// (compiled) backend — see [`Engine::with_backend`].
    ///
    /// `relation_count` is the total number of relations in the source
    /// application (sizes and logs are indexed by relation);
    /// `record_observations` enables the exchange-instant and execution
    /// logs (disable for maximum speed when only boundary instants matter).
    pub fn new(derived: DerivedTdg, relation_count: usize, record_observations: bool) -> Self {
        Self::with_backend(
            derived,
            relation_count,
            record_observations,
            EvalBackend::default(),
        )
    }

    /// Creates an engine with an explicit [`EvalBackend`].
    ///
    /// [`EvalBackend::Compiled`] lowers the graph into a [`CompiledTdg`]
    /// once, here; [`EvalBackend::Worklist`] skips the lowering and
    /// evaluates every iteration through the reference worklist.
    pub fn with_backend(
        derived: DerivedTdg,
        relation_count: usize,
        record_observations: bool,
        backend: EvalBackend,
    ) -> Self {
        let (tdg, size_rules, topo) = derived.into_parts();
        let n = tdg.node_count();

        // Input-independent prefix: nodes with no zero-delay path from any
        // externally set node. They compute during look-ahead, mirroring
        // the conventional model's eager run-ahead; graphs without such
        // nodes (every behaviour starts with a read) skip the look-ahead
        // entirely.
        let dependent = zero_delay_dependent(&tdg);
        let has_prefix = dependent.iter().any(|d| !d);

        let meta = lower_node_meta(&tdg, &size_rules, relation_count);
        let compiled = match backend {
            EvalBackend::Compiled => {
                Some(Arc::new(CompiledTdg::lower(&tdg, &topo, &meta, &dependent)))
            }
            EvalBackend::Worklist => None,
        };
        let node_obs = meta.obs;
        let stash_arc = meta.stash_arc;
        let n_execs = meta.n_execs;

        let mut remaining_template = vec![0u32; n];
        for arc in tdg.arcs() {
            remaining_template[arc.dst.index()] += 1;
        }

        let delayed_arcs: Vec<u32> = tdg
            .arcs()
            .iter()
            .enumerate()
            .filter(|(_, a)| a.delay > 0)
            .map(|(i, _)| i as u32)
            .collect();
        let baseline_nodes: Vec<NodeId> = (0..n)
            .filter(|&i| {
                remaining_template[i] == 0
                    && !matches!(
                        tdg.nodes()[i].kind,
                        NodeKind::Input { .. } | NodeKind::OutputAck { .. }
                    )
            })
            .map(NodeId)
            .collect();
        let output_ack_nodes: Vec<Option<NodeId>> = tdg.output_acks().to_vec();
        let has_output_acks = output_ack_nodes.iter().any(Option::is_some);

        // Fast-forward eligibility: the structural conditions under which a
        // detected periodic steady state can be replayed exactly (see
        // `crate::periodic`): a compiled schedule, a single externally
        // driven input, no acknowledgment feedback, every load eventually
        // periodic in `k`, and no token-size read deeper than the history
        // horizon the demotion path reconstructs.
        let mut ff_load_periods: Option<Vec<u64>> = Some(Vec::new());
        let mut max_size_delay = 0u64;
        for arc in tdg.arcs() {
            for term in &arc.weight.execs {
                match (term.load.k_period(), ff_load_periods.as_mut()) {
                    (Some(q), Some(periods)) => {
                        if !periods.contains(&q) {
                            periods.push(q);
                        }
                    }
                    _ => ff_load_periods = None,
                }
                if let Some((_, delay)) = term.size_from {
                    max_size_delay = max_size_delay.max(u64::from(delay));
                }
            }
        }
        for rule in &size_rules {
            if let SizeRule::Derived {
                from: Some((_, delay)),
                ..
            } = rule
            {
                max_size_delay = max_size_delay.max(u64::from(*delay));
            }
        }
        let ff_eligible = compiled.is_some()
            && tdg.inputs().len() == 1
            && !has_output_acks
            && ff_load_periods.is_some()
            && max_size_delay <= u64::from(tdg.max_delay());

        let n_inputs = tdg.inputs().len();
        let n_outputs = tdg.outputs().len();
        Engine {
            size_rules: meta.sizes.rules,
            size_root: meta.sizes.root,
            relation_count,
            remaining_template,
            node_obs,
            stash_arc,
            n_execs,
            delayed_arcs,
            baseline_nodes,
            output_ack_nodes,
            has_output_acks,
            has_prefix,
            next_output_ack_k: vec![0; n_outputs],
            backend,
            compiled,
            ring: VecDeque::new(),
            base_k: 0,
            free: Vec::new(),
            work: VecDeque::new(),
            next_input_k: vec![0; n_inputs],
            log: EmissionLog::new(meta.fifo_read, n_inputs, n_outputs),
            record_observations,
            stats: EngineCounters::default(),
            prune_counter: 0,
            fast_forward: FastForward::Off,
            ff_eligible,
            ff_load_periods,
            periodic: None,
            ff_scratch: Vec::new(),
            ff_acc_scratch: Vec::new(),
            observer: None,
            tdg,
        }
    }

    /// Attaches a telemetry observer. The engine emits one
    /// [`EngineEvent::Attached`] immediately, then lifecycle events and
    /// execution-record batches at every boundary call — including records
    /// synthesised by fast-forward template replay, so a streaming
    /// observer sees exactly what [`Engine::exec_records`] accumulates.
    pub fn attach_observer(&mut self, mut observer: Box<dyn Observer>) {
        observer.on_event(EngineEvent::Attached {
            backend: match self.backend {
                EvalBackend::Compiled => BackendKind::Compiled,
                EvalBackend::Worklist => BackendKind::Worklist,
            },
            nodes: self.tdg.node_count() as u64,
        });
        self.observer = Some(observer);
    }

    /// Detaches and returns the observer, if one was attached (downcast it
    /// back with [`evolve_obs::downcast`]).
    pub fn detach_observer(&mut self) -> Option<Box<dyn Observer>> {
        self.observer.take()
    }

    /// Whether a telemetry observer is currently attached.
    pub fn has_observer(&self) -> bool {
        self.observer.is_some()
    }

    /// The underlying graph.
    pub fn tdg(&self) -> &Tdg {
        &self.tdg
    }

    /// The evaluation backend this engine was built with.
    pub fn backend(&self) -> EvalBackend {
        self.backend
    }

    /// The lowered evaluation program, when the engine runs the compiled
    /// backend.
    pub fn compiled_tdg(&self) -> Option<&CompiledTdg> {
        self.compiled.as_deref()
    }

    /// Enables or disables periodic steady-state fast-forward with the
    /// default confirmation window ([`DEFAULT_CONFIRM_PERIODS`]) — see
    /// [`Engine::set_fast_forward_with`].
    pub fn set_fast_forward(&mut self, ff: FastForward) {
        self.set_fast_forward_with(ff, DEFAULT_CONFIRM_PERIODS);
    }

    /// Enables or disables periodic steady-state fast-forward.
    ///
    /// When on (and the engine is [eligible](Engine::fast_forward_eligible)),
    /// the engine watches input offers for a periodic pattern; once the
    /// per-iteration state deltas have repeated through a confirmation
    /// window, `set_input` answers in O(1) by shifting a cached template
    /// instead of sweeping the compiled schedule — bitwise identical
    /// outputs, logs, records and statistics. An offer that breaks the
    /// pattern demotes back to the compiled sweep transparently.
    /// `confirm_periods` is the confirmation window, in verified periods
    /// after the reference period (raised to at least 2).
    ///
    /// # Panics
    ///
    /// Panics when called after offers have started: pick the mode before
    /// driving the engine (or right after [`Engine::reset`]).
    pub fn set_fast_forward_with(&mut self, ff: FastForward, confirm_periods: u64) {
        assert!(
            self.next_input_k.iter().all(|&k| k == 0),
            "set the fast-forward mode before offering inputs"
        );
        self.fast_forward = ff;
        self.periodic = match (ff, self.ff_eligible) {
            (FastForward::On, true) => Some(Box::new(PeriodicState::new(
                confirm_periods,
                u64::from(self.tdg.max_delay()),
                self.ff_load_periods
                    .clone()
                    .expect("eligibility implies periodic loads"),
            ))),
            _ => None,
        };
    }

    /// The configured fast-forward mode.
    pub fn fast_forward(&self) -> FastForward {
        self.fast_forward
    }

    /// Whether this engine can structurally support fast-forward: compiled
    /// backend, a single input, no output-acknowledgment feedback, loads
    /// periodic in `k`, and size reads within the history horizon. Enabling
    /// fast-forward on an ineligible engine is a silent no-op.
    pub fn fast_forward_eligible(&self) -> bool {
        self.ff_eligible
    }

    /// Fast-forward statistics so far (all zero while disabled or
    /// ineligible).
    pub fn fast_forward_stats(&self) -> FastForwardStats {
        self.periodic.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// Rewinds the engine to its just-constructed state while keeping every
    /// allocation: ring-buffer iteration states move to the free list, logs
    /// and statistics clear in place, and the derived graph (with all its
    /// precompiled evaluation tables) is untouched.
    ///
    /// This is the sweep-workload reuse path: one engine evaluates the same
    /// derived graph across many input traces without re-deriving the graph
    /// or reallocating per-iteration state, so per-scenario cost collapses
    /// to the `ComputeInstant()` propagation itself. After `reset` the
    /// engine behaves exactly like a freshly built one ([`EngineCounters`]
    /// counters restart at zero); kernel event registrations
    /// ([`Engine::set_input_event`] / [`Engine::set_output_event`]) are
    /// cleared and must be re-registered if the engine is re-attached to a
    /// kernel.
    pub fn reset(&mut self) {
        while let Some(state) = self.ring.pop_front() {
            if self.free.len() < FREE_LIST_CAP {
                self.free.push(state);
            }
        }
        self.base_k = 0;
        self.work.clear();
        self.next_input_k.fill(0);
        self.next_output_ack_k.fill(0);
        self.log.clear();
        self.stats = EngineCounters::default();
        self.prune_counter = 0;
        // Fast-forward: keep the knob and eligibility, restart detection.
        if let Some(pd) = &mut self.periodic {
            pd.reset();
        }
        // The observer stays attached across scenarios; Reset marks the
        // time-axis boundary so streaming accumulators seal their frontier.
        if let Some(ob) = &mut self.observer {
            ob.on_event(EngineEvent::Reset);
        }
    }

    /// A snapshot of the engine's allocation footprint, for asserting
    /// steady-state stability: once warmed up, reusing the engine (more
    /// iterations, or [`Engine::reset`] plus another trace of the same
    /// length) must not grow any of these numbers.
    pub fn allocation_footprint(&self) -> AllocationFootprint {
        AllocationFootprint {
            iteration_states: self.ring.len() + self.free.len(),
            ring_capacity: self.ring.capacity(),
            free_capacity: self.free.capacity(),
            work_capacity: self.work.capacity(),
            notification_capacity: self.log.notifications.capacity(),
            compiled_elements: self
                .compiled
                .as_deref()
                .map_or(0, CompiledTdg::buffer_elements),
            lane_state_elements: 0,
            lane_padding_elements: 0,
        }
    }

    /// Computation statistics so far.
    pub fn stats(&self) -> EngineCounters {
        self.stats
    }

    /// Zeroed [`PartitionStats`], kept only for the benchmark crate; the
    /// next benchmark change (ROADMAP item 10) removes it.
    pub fn partition_stats(&self) -> PartitionStats {
        PartitionStats::default()
    }

    /// Number of materialized (in-flight or retained) iterations.
    pub fn iterations_in_flight(&self) -> usize {
        self.ring.len()
    }

    /// Registers the kernel event to notify when an ack instant for input
    /// `input` becomes computable.
    pub fn set_input_event(&mut self, input: usize, event: EventId) {
        self.log.input_events[input] = Some(event);
    }

    /// Registers the kernel event to notify when a new output instant for
    /// output `output` becomes known.
    pub fn set_output_event(&mut self, output: usize, event: EventId) {
        self.log.output_events[output] = Some(event);
    }

    /// Drains the notifications that must be delivered as a result of
    /// recent computation (the caller forwards them to the kernel). The
    /// pending buffer keeps its capacity, so steady-state offers allocate
    /// nothing; dropping the iterator discards whatever it did not yield.
    pub fn drain_notifications(&mut self) -> std::vec::Drain<'_, Notification> {
        self.log.notifications.drain(..)
    }

    /// Reserves log capacity for a run of `offers` offers per input, so
    /// recording observations never regrows a log mid-run: one exchange
    /// instant per logged relation, one FIFO read per FIFO relation, and
    /// one execution record per `ExecEnd` node, for every iteration the
    /// run computes (the offers, plus the look-ahead iteration when the
    /// graph has an input-independent prefix).
    pub(crate) fn reserve_observations(&mut self, offers: usize) {
        if !self.record_observations {
            return;
        }
        let iterations = offers + usize::from(self.has_prefix);
        self.log.reserve(&self.node_obs, iterations, self.n_execs);
    }

    /// Consumes the engine, moving its observation logs out.
    pub(crate) fn into_logs(self) -> EmissionLog {
        self.log
    }

    /// Records the `k`-th offer on input `input` at instant `at` with the
    /// given token size, and propagates all now-computable instants — the
    /// paper's `ComputeInstant()`.
    ///
    /// # Panics
    ///
    /// Panics if offers arrive out of iteration order for an input, or if a
    /// fast-forward extrapolation overflows `u64` ticks (use
    /// [`Engine::try_set_input`] to handle that as a typed error).
    pub fn set_input(&mut self, input: usize, k: u64, at: Time, size: u64) {
        if let Err(e) = self.try_set_input(input, k, at, size) {
            panic!("{e}");
        }
    }

    /// [`Engine::set_input`], surfacing fast-forward extrapolation overflow
    /// as [`EngineError::TimeOverflow`] instead of panicking. On error the
    /// engine state is unchanged (extrapolation is two-pass: every shifted
    /// instant is computed before any is applied), so the offer was not
    /// consumed.
    ///
    /// # Panics
    ///
    /// Panics if offers arrive out of iteration order for an input.
    pub fn try_set_input(
        &mut self,
        input: usize,
        k: u64,
        at: Time,
        size: u64,
    ) -> Result<(), EngineError> {
        // Telemetry is observed from outside the evaluation path: diff the
        // record log and fast-forward counters around the real call, so
        // the hot loop below stays byte-identical whether or not an
        // observer is attached.
        let Some(mut ob) = self.observer.take() else {
            return self.try_set_input_impl(input, k, at, size);
        };
        let rec_mark = self.log.exec_records.len();
        let ff_before = self.fast_forward_stats();
        let result = self.try_set_input_impl(input, k, at, size);
        let ff_after = self.fast_forward_stats();
        match &result {
            Ok(()) => {
                ob.on_event(EngineEvent::Offer {
                    k,
                    lane: 0,
                    replayed: ff_after.fast_forwarded_iterations
                        > ff_before.fast_forwarded_iterations,
                });
                if ff_after.promotions > ff_before.promotions {
                    let d = ff_after.detected.expect("promotion implies a regime");
                    ob.on_event(EngineEvent::FfPromoted {
                        k,
                        lane: 0,
                        growth: d.growth,
                        period: d.period,
                    });
                }
                if ff_after.demotions > ff_before.demotions {
                    ob.on_event(EngineEvent::FfDemoted { k, lane: 0 });
                }
                if self.log.exec_records.len() > rec_mark {
                    ob.on_records(0, &self.log.exec_records[rec_mark..]);
                }
            }
            Err(_) => ob.on_event(EngineEvent::Overflow { k }),
        }
        self.observer = Some(ob);
        result
    }

    fn try_set_input_impl(
        &mut self,
        input: usize,
        k: u64,
        at: Time,
        size: u64,
    ) -> Result<(), EngineError> {
        assert_eq!(
            k, self.next_input_k[input],
            "input offers must arrive in iteration order"
        );
        let node = self.tdg.inputs[input];
        let NodeKind::Input { relation } = self.tdg.nodes[node.index()].kind else {
            unreachable!()
        };
        // Promoted fast-forward: answer the offer by shifting the cached
        // periodic template; an offer off the detected pattern demotes (the
        // ring is reconstructed from the template) and falls through to the
        // normal evaluation below.
        if self.periodic.as_ref().is_some_and(|p| p.is_promoted()) {
            let mut pd = self.periodic.take().expect("just checked");
            let outcome = self.ff_offer(&mut pd, k, at, size);
            self.periodic = Some(pd);
            if outcome? {
                self.next_input_k[input] = k + 1;
                return Ok(());
            }
        }
        self.next_input_k[input] = k + 1;
        // Steady-state fast path: with a compiled program, a single input,
        // and all older history complete, the iteration evaluates in one
        // levelized linear sweep with no dependency bookkeeping. Iteration
        // `k` itself may already exist as the look-ahead (its
        // input-independent prefix computed); the sweep then fills in the
        // rest.
        let tail_k = self.base_k + self.ring.len() as u64;
        let fast_ok = self.compiled.is_some()
            && self.tdg.inputs.len() == 1
            && !self.has_output_acks
            && (k == tail_k
                || (k + 1 == tail_k
                    && !self
                        .ring
                        .back()
                        .expect("tail exists")
                        .computed[node.index()]))
            && self
                .ring
                .iter()
                .take((k.saturating_sub(self.base_k)) as usize)
                .all(|it| it.nodes_pending == 0);
        if fast_ok {
            // The detector observes fast-path calls only; capture the
            // observable-state marks before the sweep while confirming.
            let capture = self.periodic.as_ref().is_some_and(|p| p.wants_capture());
            if capture {
                self.log.mark(self.stats);
            }
            self.compute_iteration_compiled(k, node, relation.index(), at, size);
            self.ensure_lookahead();
            if self.periodic.is_some() {
                let mut pd = self.periodic.take().expect("just checked");
                self.ff_observe(&mut pd, k, at, size, capture);
                self.periodic = Some(pd);
            }
            self.maybe_prune();
            return Ok(());
        }
        // A call off the fast path breaks the observed call sequence; any
        // in-progress detection restarts from scratch.
        if let Some(pd) = &mut self.periodic {
            pd.abandon();
        }
        self.open_to(k);
        {
            let it = iter_at_mut(&mut self.ring, self.base_k, k).expect("just opened");
            it.sizes[relation.index()] = size;
            it.acc[node.index()] = MaxPlus::new(at.ticks() as i64);
        }
        self.work.push_back((k, node));
        self.drain();
        self.ensure_lookahead();
        self.maybe_prune();
        Ok(())
    }

    /// Keeps one look-ahead iteration materialized past the last complete
    /// one, mirroring the conventional model's eager run-ahead: processes
    /// execute the input-independent prefix of their next iteration before
    /// blocking on a read. The opened iteration computes exactly those
    /// prefix nodes (everything else waits for its input), so execution
    /// records match the event-driven model even at stream end.
    fn ensure_lookahead(&mut self) {
        if self.has_prefix
            && self
                .ring
                .back()
                .is_none_or(|it| it.nodes_pending == 0)
        {
            self.open_next();
        }
    }

    /// Evaluates (the remainder of) iteration `k` in one linear pass over
    /// the compiled schedule; all dependencies are guaranteed available
    /// (same-iteration sources precede their targets in the levelized
    /// order, history is complete). `k` is either fresh (one past the ring)
    /// or the partially computed look-ahead at the tail. Three passes: the
    /// size pre-pass, the folds and logs ([`sweep_serial`]), and the
    /// boundary exchanges' acknowledgments and outputs, in schedule order.
    fn compute_iteration_compiled(
        &mut self,
        k: u64,
        input_node: NodeId,
        input_relation: usize,
        at: Time,
        size: u64,
    ) {
        // Iteration `k`'s state is held out of the ring for the sweep: owned
        // access sidesteps the ring's bounds-checked `back()`/`back_mut()`
        // on every node. Older iterations keep their ring indices, so
        // delayed reads via `iter_at` stay valid.
        let (mut tail, fresh) = self.take_tail(k);
        tail.sizes[input_relation] = size;
        tail.acc[input_node.index()] = MaxPlus::new(at.ticks() as i64);
        tail.nodes_pending = 0;
        // The input node's value is set: the size pre-pass and the boundary
        // publishing below skip it like the look-ahead's nodes.
        tail.computed[input_node.index()] = true;
        self.stats.iterations_completed += 1;

        // Moved out of `self` for the duration of the sweep so arc ranges
        // can be read while the ring and logs are mutated.
        let ct = self.compiled.take().expect("compiled backend gated by fast_ok");
        // A fresh tail computes every slot but the input's; a look-ahead
        // tail only the slots its prefix left.
        let sweep = if fresh { ct.fresh_sweep } else { ct.main_sweep };
        self.derive_sizes(&ct, k, &mut tail);
        let log = self.record_observations.then_some(&mut self.log);
        let hist = History::new(&self.ring, self.base_k, k);
        sweep_serial(&ct, &hist, &mut tail, log, fresh);
        for &pos in &ct.boundary_slots {
            let op = &ct.ops[pos as usize];
            let node = op.dst as usize;
            if !tail.computed[node] {
                self.log.publish(k, op.obs, tail.acc[node], &tail.sizes);
            }
        }
        tail.computed.fill(true);
        self.stats.nodes_computed += 1 + sweep.nodes; // plus the set input
        self.stats.arcs_evaluated += sweep.arcs;
        self.ring.push_back(tail);
        self.compiled = Some(ct);
    }

    /// The computed acknowledgment instant (boundary exchange) of the
    /// `k`-th offer on `input`, if known yet.
    pub fn ack_instant(&self, input: usize, k: u64) -> Option<Time> {
        self.log.ack_instant(input, k)
    }

    /// Pops the next computed output of output `output`, if any:
    /// `(iteration, emission instant, token size)`.
    pub fn next_output(&mut self, output: usize) -> Option<(u64, Time, u64)> {
        self.log.next_output(output)
    }

    /// Returns `true` when `output` requires acknowledgment feedback
    /// ([`Engine::set_output_ack`]) after each emitted token.
    pub fn needs_output_ack(&self, output: usize) -> bool {
        self.output_ack_nodes[output].is_some()
    }

    /// Records that the `k`-th token of `output` was actually consumed at
    /// instant `at`, unblocking the producer's internal successors.
    ///
    /// # Panics
    ///
    /// Panics if the output has no acknowledgment node or acknowledgments
    /// arrive out of iteration order.
    pub fn set_output_ack(&mut self, output: usize, k: u64, at: Time) {
        let rec_mark = self.log.exec_records.len();
        self.set_output_ack_impl(output, k, at);
        if let Some(mut ob) = self.observer.take() {
            ob.on_event(EngineEvent::OutputAck { k });
            if self.log.exec_records.len() > rec_mark {
                ob.on_records(0, &self.log.exec_records[rec_mark..]);
            }
            self.observer = Some(ob);
        }
    }

    fn set_output_ack_impl(&mut self, output: usize, k: u64, at: Time) {
        let node = self.output_ack_nodes[output]
            .expect("output has an acknowledgment node");
        assert_eq!(
            k, self.next_output_ack_k[output],
            "output acknowledgments must arrive in iteration order"
        );
        self.next_output_ack_k[output] = k + 1;
        self.open_to(k);
        {
            let it = iter_at_mut(&mut self.ring, self.base_k, k).expect("just opened");
            it.acc[node.index()] = MaxPlus::new(at.ticks() as i64);
        }
        self.work.push_back((k, node));
        self.drain();
        self.ensure_lookahead();
        self.maybe_prune();
    }

    /// Exchange-instant log of a relation (write instants, in iteration
    /// order) — the computed counterpart of the simulator's channel log.
    pub fn instants(&self, relation: usize) -> &[Time] {
        self.log.instants(relation)
    }

    /// Read-instant log of a relation (differs from writes for FIFOs).
    pub fn read_instants(&self, relation: usize) -> &[Time] {
        self.log.read_instants(relation)
    }

    /// Execution records replayed from computed instants (the observation
    /// over local time of paper Fig. 2(b)).
    pub fn exec_records(&self) -> &[ExecRecord] {
        &self.log.exec_records
    }

    // -- internals ---------------------------------------------------------

    /// Materializes iteration states up to and including `k`.
    fn open_to(&mut self, k: u64) {
        while self.base_k + self.ring.len() as u64 <= k {
            self.open_next();
        }
    }

    /// Opens the next iteration after the current back of the ring.
    fn open_next(&mut self) {
        let k = self.base_k + self.ring.len() as u64;
        let mut state = self.take_state();
        // Nodes with no incoming arcs (other than inputs) take the
        // process-start baseline immediately.
        for idx in 0..self.baseline_nodes.len() {
            let node = self.baseline_nodes[idx];
            state.acc[node.index()] = MaxPlus::E;
            self.work.push_back((k, node));
        }
        self.ring.push_back(state);
        // Resolve arcs whose sources are history (negative iterations get
        // the process-start baseline 0; computed past nodes their value).
        for di in 0..self.delayed_arcs.len() {
            let ai = self.delayed_arcs[di] as usize;
            let arc = &self.tdg.arcs[ai];
            let delay = u64::from(arc.delay);
            let src_val = if delay > k {
                Some(MaxPlus::E)
            } else {
                iter_at(&self.ring, self.base_k, k - delay).and_then(|it| {
                    if it.computed[arc.src.index()] {
                        Some(it.acc[arc.src.index()])
                    } else {
                        None
                    }
                })
            };
            if let Some(v) = src_val {
                self.resolve_arc(k, ai, v);
            }
        }
        self.drain();
    }

    /// Applies one resolved arc contribution; queues the destination when
    /// all of its arcs are resolved.
    #[inline]
    fn resolve_arc(&mut self, k: u64, arc_idx: usize, src_val: MaxPlus) {
        let arc = &self.tdg.arcs[arc_idx];
        let dst = arc.dst;
        self.stats.arcs_evaluated += 1;
        let contribution = if src_val.is_epsilon() {
            MaxPlus::EPSILON
        } else if arc.weight.execs.is_empty() {
            // Fast path: constant lag.
            src_val.otimes(MaxPlus::new(arc.weight.constant as i64))
        } else {
            let (lag, ops) = eval_weight(&arc.weight, k, |rel, d| {
                let root = self.size_root[rel] as usize;
                iter_at(&self.ring, self.base_k, k - d).map_or(0, |it| it.sizes[root])
            });
            if self.record_observations && self.stash_arc[arc_idx] {
                if let Obs::ExecEnd { dense, .. } = self.node_obs[dst.index()] {
                    if let Some(it) = iter_at_mut(&mut self.ring, self.base_k, k) {
                        it.exec_stash[dense as usize] = (src_val, ops);
                    }
                }
            }
            src_val.otimes(MaxPlus::new(lag as i64))
        };
        let it = iter_at_mut(&mut self.ring, self.base_k, k).expect("iteration open");
        debug_assert!(!it.computed[dst.index()], "arc resolved after compute");
        debug_assert!(it.remaining[dst.index()] > 0, "arc resolved twice");
        it.acc[dst.index()] = it.acc[dst.index()].oplus(contribution);
        it.remaining[dst.index()] -= 1;
        if it.remaining[dst.index()] == 0 {
            self.work.push_back((k, dst));
        }
    }

    /// Pops ready nodes, finalizes their values, observes them, and
    /// propagates along all outgoing arcs.
    fn drain(&mut self) {
        while let Some((j, node)) = self.work.pop_front() {
            let value = {
                let it = iter_at_mut(&mut self.ring, self.base_k, j).expect("iteration open");
                if it.computed[node.index()] {
                    continue;
                }
                it.computed[node.index()] = true;
                // Baseline ⊕ contributions: instants are never negative.
                let v = it.acc[node.index()].oplus(MaxPlus::E);
                it.acc[node.index()] = v;
                it.nodes_pending -= 1;
                if it.nodes_pending == 0 {
                    self.stats.iterations_completed += 1;
                }
                v
            };
            self.stats.nodes_computed += 1;
            self.observe(j, node, value);
            // Propagate.
            let n_out = self.tdg.outgoing[node.index()].len();
            for idx in 0..n_out {
                let ai = self.tdg.outgoing[node.index()][idx];
                let arc = &self.tdg.arcs[ai];
                let delay = u64::from(arc.delay);
                let dst = arc.dst;
                let target_k = j + delay;
                if delay == 0 {
                    self.resolve_arc(target_k, ai, value);
                } else {
                    let pending = iter_at(&self.ring, self.base_k, target_k)
                        .is_some_and(|it| !it.computed[dst.index()]);
                    if pending {
                        self.resolve_arc(target_k, ai, value);
                    }
                }
            }
        }
    }

    /// Observation side effects of a freshly computed node (worklist): the
    /// exchange's token size is derived first, then everything is emitted.
    /// Iteration `k`'s state is lifted out of the ring for the call, so
    /// observation reads it like a sweep's tail.
    #[inline]
    fn observe(&mut self, k: u64, node: NodeId, value: MaxPlus) {
        let obs = self.node_obs[node.index()];
        if matches!(obs, Obs::None) {
            return;
        }
        let idx = (k - self.base_k) as usize;
        let mut it = std::mem::take(&mut self.ring[idx]);
        if let Obs::Exchange { relation, .. } = obs {
            self.derive_size(relation as usize, k, &mut it);
        }
        self.emit(k, obs, value, &it);
        self.ring[idx] = it;
    }

    /// Sets the token size relation `relation` carries at iteration `k`
    /// when its size rule derives it from another relation's size.
    #[inline]
    fn derive_size(&self, relation: usize, k: u64, it: &mut IterState) {
        let size = derived_size(self.size_rules[relation], k, |rel, d| match d {
            0 => it.sizes[rel],
            d => iter_at(&self.ring, self.base_k, k - d).map_or(0, |row| row.sizes[rel]),
        });
        if let Some(size) = size {
            it.sizes[relation] = size;
        }
    }

    /// Emits the observations of a node with action `obs` that computed
    /// `value` for iteration `k`, whose token sizes in `it` are final: the
    /// exchange-instant and FIFO read logs and execution records (from
    /// the stashed `(start, ops)`) when recording, then acknowledgments
    /// and outputs.
    #[inline(always)]
    fn emit(&mut self, k: u64, obs: Obs, value: MaxPlus, it: &IterState) {
        if self.record_observations {
            self.log.log(k, obs, value, &it.exec_stash);
        }
        self.log.publish(k, obs, value, &it.sizes);
    }

    /// Size pre-pass of a compiled sweep: derives iteration `k`'s token
    /// sizes in schedule order ahead of the folds, whose durations read
    /// them (sizes depend only on other sizes, never on instants).
    /// Exchanges the look-ahead already observed keep their sizes.
    fn derive_sizes(&self, ct: &CompiledTdg, k: u64, tail: &mut IterState) {
        for &pos in &ct.derived_exchanges {
            let op = &ct.ops[pos as usize];
            if tail.computed[op.dst as usize] {
                continue;
            }
            let Obs::Exchange { relation, .. } = op.obs else {
                unreachable!("derived_exchanges holds Exchange slots only")
            };
            self.derive_size(relation as usize, k, tail);
        }
    }

    /// Frees fully computed iterations that can no longer be referenced.
    fn maybe_prune(&mut self) {
        self.prune_counter += 1;
        if self.prune_counter < 8 {
            return;
        }
        self.prune_counter = 0;
        let min_next = self
            .next_input_k
            .iter()
            .chain(
                self.next_output_ack_k
                    .iter()
                    .zip(&self.output_ack_nodes)
                    .filter(|(_, n)| n.is_some())
                    .map(|(k, _)| k),
            )
            .copied()
            .min()
            .unwrap_or(0);
        // First incomplete iteration bounds what can be referenced again.
        let mut first_incomplete = self.base_k + self.ring.len() as u64;
        for (off, it) in self.ring.iter().enumerate() {
            if it.nodes_pending > 0 {
                first_incomplete = self.base_k + off as u64;
                break;
            }
        }
        let bound = min_next.min(first_incomplete);
        let horizon = u64::from(self.tdg.max_delay);
        while let Some(front) = self.ring.front() {
            if front.nodes_pending == 0 && self.base_k + horizon < bound {
                let state = self.ring.pop_front().expect("peeked");
                self.base_k += 1;
                if self.free.len() < FREE_LIST_CAP {
                    self.free.push(state);
                }
            } else {
                break;
            }
        }
    }

    // -- periodic fast-forward ---------------------------------------------

    /// A recycled (or fresh) iteration state with the in-degree template
    /// applied.
    fn take_state(&mut self) -> IterState {
        match self.free.pop() {
            Some(mut s) => {
                s.reset(&self.remaining_template);
                s
            }
            None => IterState::fresh(&self.remaining_template, self.relation_count, self.n_execs),
        }
    }

    /// Iteration `k`'s state for a fast-path sweep, held out of the ring
    /// until the sweep pushes it back, and whether it is fresh: a recycled
    /// (or new) state when `k` is one past the ring, else the look-ahead
    /// tail, whose input-independent prefix is computed.
    ///
    /// A fresh tail reuses the ring's oldest row as soon as the sweep of
    /// `k` can no longer read it (complete, and more than `max_delay`
    /// iterations back: what [`Engine::maybe_prune`] would free), instead
    /// of leaving it for the next prune scan; otherwise it comes from the
    /// free list.
    fn take_tail(&mut self, k: u64) -> (IterState, bool) {
        if k == self.base_k + self.ring.len() as u64 {
            let expired = self.base_k + u64::from(self.tdg.max_delay) < k
                && self.ring.front().is_some_and(|it| it.nodes_pending == 0);
            let recycled = if expired {
                self.base_k += 1;
                self.ring.pop_front()
            } else {
                self.free.pop()
            };
            // Every sweep writes all instants and reads no in-degrees, so
            // a recycled state resets only its marks, sizes and stashes.
            let Some(mut s) = recycled else {
                let s =
                    IterState::fresh(&self.remaining_template, self.relation_count, self.n_execs);
                return (s, true);
            };
            s.computed.fill(false);
            s.sizes.fill(0);
            s.exec_stash.fill((MaxPlus::EPSILON, 0));
            (s, true)
        } else {
            (self.ring.pop_back().expect("look-ahead tail exists"), false)
        }
    }

    /// Feeds a completed fast-path call to the detector; on a confirmed
    /// window, attempts promotion (arc soundness condition) and drops the
    /// ring — the template now carries everything replay needs.
    fn ff_observe(&mut self, pd: &mut PeriodicState, k: u64, at: Time, size: u64, captured: bool) {
        let emissions = captured.then(|| self.log.collect(k, self.stats));
        let it = iter_at(&self.ring, self.base_k, k).expect("iteration just computed");
        let tail = if self.has_prefix {
            debug_assert_eq!(self.base_k + self.ring.len() as u64, k + 2);
            let t = self.ring.back().expect("look-ahead open");
            Some(TailObservation {
                computed: &t.computed,
                acc: &t.acc,
                sizes: &t.sizes,
            })
        } else {
            None
        };
        let obs = CallObservation {
            k,
            at: at.ticks(),
            size,
            acc: &it.acc,
            sizes: &it.sizes,
            tail,
            emissions,
        };
        if pd.observe_fast_call(&obs) == Observed::ReadyToPromote {
            let arcs = self
                .tdg
                .arcs()
                .iter()
                .map(|a| (a.src.index(), a.dst.index()));
            if pd.try_promote(arcs).is_some() {
                self.ff_debug_oracle_check(pd);
                // Promoted: no sweep will run until demotion, and demotion
                // reconstructs its own history; release the ring.
                while let Some(state) = self.ring.pop_front() {
                    self.base_k += 1;
                    if self.free.len() < FREE_LIST_CAP {
                        self.free.push(state);
                    }
                }
            }
        }
    }

    /// Handles an offer while promoted: `Ok(true)` replayed it, `Ok(false)`
    /// demoted (ring reconstructed; the caller re-evaluates the offer
    /// normally), `Err` means an extrapolation overflowed with no state
    /// change.
    fn ff_offer(
        &mut self,
        pd: &mut PeriodicState,
        k: u64,
        at: Time,
        size: u64,
    ) -> Result<bool, EngineError> {
        match pd.check_offer(k, at.ticks(), size) {
            Some(plan) => {
                let t = pd.template().expect("promoted");
                self.ff_replay(t, plan, k)?;
                pd.note_fast_forwarded();
                Ok(true)
            }
            None => {
                // Reconstruct before leaving promoted mode: if extrapolating
                // the history accumulators overflows, the engine must stay
                // promoted (state unchanged) rather than lose the template.
                let t = pd.template().expect("promoted");
                self.ff_reconstruct(t, k)?;
                let _ = pd.demote();
                Ok(false)
            }
        }
    }

    /// Answers the offer at iteration `k` by shifting template position
    /// `plan.pos` forward `plan.m` periods — the O(1) steady-state path.
    fn ff_replay(&mut self, t: &Template, plan: ReplayPlan, k: u64) -> Result<(), EngineError> {
        let r = &t.refs[plan.pos];
        let d = r.deltas.as_ref().expect("promoted template has deltas");
        let mut scratch = std::mem::take(&mut self.ff_scratch);
        scratch.clear();
        let extrapolated = periodic::extrapolate_emissions(r, d, plan.m, &mut scratch);
        if let Err(e) = extrapolated {
            self.ff_scratch = scratch;
            return Err(e);
        }
        // Pass 2: apply — infallible.
        let mut shifted = scratch.iter().copied();
        self.log.replay(k, &r.emissions, &mut shifted);
        debug_assert!(shifted.next().is_none());
        self.stats.nodes_computed += r.emissions.nodes;
        self.stats.arcs_evaluated += r.emissions.arcs;
        self.stats.iterations_completed += r.emissions.iters;
        self.ff_scratch = scratch;
        Ok(())
    }

    /// Demotion: rebuild the iteration ring — `max_delay` complete history
    /// iterations plus the look-ahead tail for `k_b` — from the template
    /// (`refs[pos] + m × D`), so the compiled sweep resumes exactly where a
    /// never-promoted engine would stand. Two-pass like replay: all shifted
    /// accumulators are computed before any state changes.
    fn ff_reconstruct(&mut self, t: &Template, k_b: u64) -> Result<(), EngineError> {
        let start = k_b.saturating_sub(u64::from(self.tdg.max_delay));
        let mut scratch = std::mem::take(&mut self.ff_acc_scratch);
        scratch.clear();
        if let Err(e) = periodic::shift_history(t, start, k_b, self.has_prefix, &mut scratch) {
            self.ff_acc_scratch = scratch;
            return Err(e);
        }
        // Pass 2: rebuild, one node-indexed row per iteration.
        while let Some(state) = self.ring.pop_front() {
            if self.free.len() < FREE_LIST_CAP {
                self.free.push(state);
            }
        }
        self.base_k = start;
        let mut rows = scratch.chunks_exact(self.tdg.node_count());
        for (j, row) in (start..k_b).zip(&mut rows) {
            let mut state = self.take_state();
            for (acc, &v) in state.acc.iter_mut().zip(row) {
                *acc = MaxPlus::new(v);
            }
            state.computed.fill(true);
            state.remaining.fill(0);
            state.sizes.copy_from_slice(&t.refs[t.locate(j).0].sizes);
            // Stashes are re-captured by the sweep; history never reads them.
            state.exec_stash.fill((MaxPlus::EPSILON, 0));
            state.nodes_pending = 0;
            self.ring.push_back(state);
        }
        if let Some(row) = rows.next() {
            let tt = t.lookahead(k_b);
            let mut state = self.take_state();
            for (node, &v) in row.iter().enumerate() {
                if tt.computed[node] {
                    state.acc[node] = MaxPlus::new(v);
                    state.computed[node] = true;
                    state.nodes_pending -= 1;
                }
            }
            state.sizes.copy_from_slice(&tt.sizes);
            self.ring.push_back(state);
        }
        self.work.clear();
        self.prune_counter = 0;
        self.ff_acc_scratch = scratch;
        Ok(())
    }

    /// Cross-checks a fresh promotion against the static (max,+) oracle in
    /// debug builds — see [`periodic::debug_check_against_oracle`].
    fn ff_debug_oracle_check(&self, pd: &PeriodicState) {
        if let Some(t) = pd.template() {
            periodic::debug_check_against_oracle(&self.tdg, t);
        }
    }
}

// Sweep workers move engines (and the graphs inside them) across threads;
// keep that guarantee explicit so a future field cannot silently break it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Engine>();
    assert_send::<Tdg>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive_tdg;
    use evolve_model::didactic;

    fn const_params() -> didactic::Params {
        didactic::Params {
            ti1: (10, 0),
            tj1: (20, 0),
            ti2: (30, 0),
            ti3: (40, 0),
            tj3: (50, 0),
            ti4: (60, 0),
        }
    }

    fn engine() -> Engine {
        let d = didactic::chained(1, const_params()).unwrap();
        let derived = derive_tdg(&d.arch).unwrap();
        Engine::new(derived, d.arch.app().relations().len(), true)
    }

    fn engine_with(backend: EvalBackend) -> Engine {
        let d = didactic::chained(1, const_params()).unwrap();
        let derived = derive_tdg(&d.arch).unwrap();
        Engine::with_backend(derived, d.arch.app().relations().len(), true, backend)
    }

    #[test]
    fn didactic_first_iteration_matches_hand_values() {
        // Mirrors the conventional-model integration test in evolve-model.
        let mut e = engine();
        e.set_input(0, 0, Time::ZERO, 0);
        assert_eq!(e.instants(0), &[Time::from_ticks(0)]); // xM1
        assert_eq!(e.instants(1), &[Time::from_ticks(10)]); // xM2
        assert_eq!(e.instants(2), &[Time::from_ticks(30)]); // xM3
        assert_eq!(e.instants(3), &[Time::from_ticks(70)]); // xM4
        assert_eq!(e.instants(4), &[Time::from_ticks(120)]); // xM5
        assert_eq!(e.instants(5), &[Time::from_ticks(180)]); // xM6
        assert_eq!(e.next_output(0), Some((0, Time::from_ticks(180), 0)));
        assert_eq!(e.ack_instant(0, 0), Some(Time::ZERO));
    }

    #[test]
    fn didactic_second_iteration_matches_hand_values() {
        let mut e = engine();
        e.set_input(0, 0, Time::ZERO, 0);
        e.set_input(0, 1, Time::ZERO, 0);
        assert_eq!(e.instants(0)[1], Time::from_ticks(30));
        assert_eq!(e.instants(1)[1], Time::from_ticks(130));
        assert_eq!(e.instants(2)[1], Time::from_ticks(150));
        assert_eq!(e.instants(3)[1], Time::from_ticks(190));
        assert_eq!(e.instants(4)[1], Time::from_ticks(240));
        assert_eq!(e.instants(5)[1], Time::from_ticks(300));
        // Ack of u(1): xM1(1) = 30 even though the offer was at 0.
        assert_eq!(e.ack_instant(0, 1), Some(Time::from_ticks(30)));
    }

    #[test]
    fn exec_records_are_replayed() {
        let mut e = engine();
        e.set_input(0, 0, Time::ZERO, 0);
        let mut records = e.exec_records().to_vec();
        records.sort_by_key(|r| (r.start, r.function.index(), r.stmt));
        assert_eq!(records.len(), 6);
        // Ti1: 0→10 on P1.
        assert_eq!(records[0].start, Time::ZERO);
        assert_eq!(records[0].end, Time::from_ticks(10));
        assert_eq!(records[0].ops, 10);
        // Total ops = all loads.
        let total: u64 = records.iter().map(|r| r.ops).sum();
        assert_eq!(total, 10 + 20 + 30 + 40 + 50 + 60);
    }

    #[test]
    fn long_run_prunes_history() {
        let mut e = engine();
        for k in 0..10_000 {
            e.set_input(0, k, Time::from_ticks(k * 10), 0);
        }
        assert!(
            e.iterations_in_flight() < 200,
            "history pruned, {} iterations retained",
            e.iterations_in_flight()
        );
        assert_eq!(e.stats().iterations_completed, 10_000);
        assert_eq!(e.instants(5).len(), 10_000);
    }

    #[test]
    fn stats_count_work() {
        let mut e = engine();
        e.set_input(0, 0, Time::ZERO, 0);
        let s = e.stats();
        assert_eq!(s.nodes_computed, 14, "all nodes of iteration 0 computed");
        assert!(s.arcs_evaluated >= s.nodes_computed);
        assert_eq!(s.iterations_completed, 1);
    }

    #[test]
    #[should_panic(expected = "iteration order")]
    fn out_of_order_offers_rejected() {
        let mut e = engine();
        e.set_input(0, 1, Time::ZERO, 0);
    }

    #[test]
    fn default_backend_is_compiled() {
        let e = engine();
        assert_eq!(e.backend(), EvalBackend::Compiled);
        assert!(e.compiled_tdg().is_some());
        let w = engine_with(EvalBackend::Worklist);
        assert_eq!(w.backend(), EvalBackend::Worklist);
        assert!(w.compiled_tdg().is_none());
    }

    #[test]
    fn worklist_backend_matches_compiled() {
        let mut c = engine_with(EvalBackend::Compiled);
        let mut w = engine_with(EvalBackend::Worklist);
        for k in 0..5 {
            let at = Time::from_ticks(k * 17);
            c.set_input(0, k, at, k % 3);
            w.set_input(0, k, at, k % 3);
            assert_eq!(c.ack_instant(0, k), w.ack_instant(0, k));
            assert_eq!(c.next_output(0), w.next_output(0));
        }
        for r in 0..6 {
            assert_eq!(c.instants(r), w.instants(r), "relation {r}");
            assert_eq!(c.read_instants(r), w.read_instants(r), "relation {r}");
        }
        let (cs, ws) = (c.stats(), w.stats());
        assert_eq!(cs.nodes_computed, ws.nodes_computed);
        assert_eq!(cs.iterations_completed, ws.iterations_completed);
    }

    /// Drains both engines' output queues and asserts bitwise equality of
    /// every observable: outputs, acks, logs, exec records, and stats.
    fn assert_bitwise_equal(a: &mut Engine, b: &mut Engine, relations: usize, last_k: u64) {
        loop {
            match (a.next_output(0), b.next_output(0)) {
                (None, None) => break,
                (x, y) => assert_eq!(x, y, "output stream diverged"),
            }
        }
        assert_eq!(a.ack_instant(0, last_k), b.ack_instant(0, last_k));
        for r in 0..relations {
            assert_eq!(a.instants(r), b.instants(r), "relation {r}");
            assert_eq!(a.read_instants(r), b.read_instants(r), "relation {r}");
        }
        assert_eq!(a.exec_records(), b.exec_records());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn fast_forward_promotes_and_matches_bitwise() {
        let mut ff = engine();
        assert!(ff.fast_forward_eligible());
        ff.set_fast_forward(FastForward::On);
        let mut plain = engine();
        for k in 0..200 {
            let at = Time::from_ticks(k * 40);
            ff.set_input(0, k, at, 3);
            plain.set_input(0, k, at, 3);
        }
        let s = ff.fast_forward_stats();
        assert_eq!(s.promotions, 1, "periodic trace must promote: {s:?}");
        assert_eq!(s.demotions, 0);
        assert!(s.fast_forwarded_iterations > 100, "{s:?}");
        let detected = s.detected.expect("regime recorded");
        assert_eq!(detected.period, 1);
        assert_eq!(plain.fast_forward_stats(), FastForwardStats::default());
        assert_bitwise_equal(&mut ff, &mut plain, 6, 199);
    }

    #[test]
    fn fast_forward_demotes_on_pattern_break_and_repromotes() {
        let mut ff = engine();
        ff.set_fast_forward(FastForward::On);
        let mut plain = engine();
        let mut at = 0u64;
        for k in 0..300 {
            at += if k == 150 { 9_999 } else { 40 };
            ff.set_input(0, k, Time::from_ticks(at), 0);
            plain.set_input(0, k, Time::from_ticks(at), 0);
        }
        let s = ff.fast_forward_stats();
        assert_eq!(s.demotions, 1, "{s:?}");
        assert_eq!(s.promotions, 2, "re-promoted after the break: {s:?}");
        assert_bitwise_equal(&mut ff, &mut plain, 6, 299);
    }

    #[test]
    fn fast_forward_aperiodic_trace_never_promotes() {
        let mut ff = engine();
        ff.set_fast_forward(FastForward::On);
        let mut plain = engine();
        let mut at = 0u64;
        for k in 0..100 {
            at += 11 + k * k % 37; // aperiodic inter-arrival pattern
            ff.set_input(0, k, Time::from_ticks(at), 0);
            plain.set_input(0, k, Time::from_ticks(at), 0);
        }
        let s = ff.fast_forward_stats();
        assert_eq!(s.promotions, 0, "{s:?}");
        assert_eq!(s.fast_forwarded_iterations, 0);
        assert_bitwise_equal(&mut ff, &mut plain, 6, 99);
    }

    #[test]
    fn fast_forward_overflow_is_typed_and_recoverable() {
        let mut e = engine();
        e.set_fast_forward(FastForward::On);
        let gap = u64::MAX / 100;
        let mut err = None;
        let mut k = 0;
        while k <= 100 {
            match e.try_set_input(0, k, Time::from_ticks(k * gap), 0) {
                Ok(()) => k += 1,
                Err(ov) => {
                    err = Some(ov);
                    break;
                }
            }
        }
        let err = err.expect("extrapolation near u64::MAX must overflow");
        assert!(matches!(err, crate::EngineError::TimeOverflow { .. }), "{err}");
        assert!(e.fast_forward_stats().promotions >= 1, "overflow hit on the replay path");
        // The failed offer was not consumed, and at this magnitude demotion
        // cannot reconstruct history either (accumulators would exceed the
        // MaxPlus range): the engine surfaces the same typed error and stays
        // promoted instead of corrupting state.
        let demote = e.try_set_input(0, k, Time::from_ticks((k - 1) * gap + 500), 0);
        assert!(matches!(demote, Err(crate::EngineError::TimeOverflow { .. })));
        assert_eq!(e.fast_forward_stats().demotions, 0);
    }

    #[test]
    fn fast_forward_reset_restarts_detection() {
        let mut e = engine();
        e.set_fast_forward(FastForward::On);
        for k in 0..50 {
            e.set_input(0, k, Time::from_ticks(k * 40), 0);
        }
        assert_eq!(e.fast_forward_stats().promotions, 1);
        e.reset();
        assert_eq!(e.fast_forward_stats(), FastForwardStats::default());
        let mut plain = engine();
        for k in 0..50 {
            e.set_input(0, k, Time::from_ticks(k * 40), 0);
            plain.set_input(0, k, Time::from_ticks(k * 40), 0);
        }
        assert_eq!(e.fast_forward_stats().promotions, 1, "knob survives reset");
        assert_bitwise_equal(&mut e, &mut plain, 6, 49);
    }

    #[test]
    fn footprint_reports_compiled_buffers() {
        let c = engine_with(EvalBackend::Compiled);
        let w = engine_with(EvalBackend::Worklist);
        assert!(c.allocation_footprint().compiled_elements > 0);
        assert_eq!(w.allocation_footprint().compiled_elements, 0);
    }
}
