//! Intra-graph partitioned parallel evaluation of the compiled sweep.
//!
//! Batching (PR 3) and delta chaining (PR 6) parallelize *across*
//! scenarios; one huge model still walks its whole levelized CSR schedule
//! on a single thread. This module splits that walk: at plan time the
//! schedule's slots are partitioned, per zero-delay level, into `P`
//! contiguous load-balanced ranges (cut on the same ~32 KiB tile size the
//! fused [`SweepSegment`](crate::compile::SweepSegment) planner uses), and
//! each iteration is then swept by `P` workers walking their ranges
//! level-by-level. Only *cross-partition zero-delay arcs* — the partition
//! frontier — need synchronization; delayed arcs read the immutable
//! history ring and are always safe.
//!
//! Two synchronization modes share the plan:
//!
//! * **Barrier** — the conservative bitwise reference. A greedy pass over
//!   the levels places a spin barrier before level `l` only when some
//!   cross-partition zero-delay arc into `l` starts at or above the last
//!   barriered level, so partition-aligned graphs (e.g.
//!   [`synthetic::pad_wide`](crate::synthetic::pad_wide) chains) cross few
//!   or no barriers at all.
//! * **Optimistic** — workers never wait. A cross-partition read checks the
//!   owner partition's published level counter; if the source is not yet
//!   published the worker *speculates* on the frontier cache (the
//!   source's value from the previous iteration) and logs the read. After
//!   the join, the coordinator validates every speculation and rolls back
//!   — recomputes, in ascending schedule order, exactly the slots whose
//!   zero-delay inputs changed. (max,+) monotonicity keeps the cascade
//!   bounded: a late frontier value only ever *raises* an instant, so the
//!   dirty set propagates along zero-delay arcs and never reaches slots
//!   the frontier cannot influence.
//!
//! Both modes leave ring state, observation logs, and
//! [`EngineStats`](crate::EngineStats) bitwise identical to the serial
//! compiled sweep — the sweep itself runs in `crate::engine`
//! (`compute_iteration_parallel`); this module owns the plan, the runtime
//! scratch, the knobs, and the counters.

use std::sync::atomic::{AtomicI64, AtomicU32, Ordering};

use evolve_maxplus::MaxPlus;
use evolve_obs::{FlightRecorder, Phase, TrackId};

use crate::compile::CompiledTdg;

/// How partition workers synchronize at the cross-partition frontier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PartitionMode {
    /// Spin barriers at the planned level boundaries — the conservative
    /// bitwise reference mode.
    #[default]
    Barrier,
    /// Run ahead on cached frontier instants, validate after the join, and
    /// roll back the affected level window (bitwise identical results; the
    /// rollback is observable only in [`PartitionStats`]).
    Optimistic,
}

impl PartitionMode {
    /// Stable lower-case name, used as the report/JSON tag.
    pub fn as_str(self) -> &'static str {
        match self {
            PartitionMode::Barrier => "barrier",
            PartitionMode::Optimistic => "optimistic",
        }
    }
}

impl std::fmt::Display for PartitionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration of the partitioned parallel evaluation path
/// ([`Engine::set_partition`](crate::Engine::set_partition)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker count `P` (the caller doubles as worker 0). Values below 2
    /// disable the path; values above [`ParallelConfig::MAX_THREADS`] are
    /// clamped.
    pub threads: usize,
    /// Frontier synchronization mode.
    pub mode: PartitionMode,
    /// Smallest graph (node count) the parallel path engages on; smaller
    /// graphs stay on the serial sweep, whose single linear pass is
    /// already cache-resident.
    pub min_nodes: usize,
    /// Testing knob: treat *every* cross-partition read as unpublished, so
    /// optimistic sweeps always speculate and the rollback path runs
    /// deterministically (no dependence on worker timing).
    pub force_speculation: bool,
    /// Best-effort `sched_setaffinity` pinning of worker `p` to CPU `p`
    /// (Linux only; failures are ignored).
    pub pin: bool,
}

impl ParallelConfig {
    /// Upper bound on the worker count.
    pub const MAX_THREADS: usize = 32;

    /// Default engagement threshold (nodes).
    pub const DEFAULT_MIN_NODES: usize = 4096;
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            mode: PartitionMode::default(),
            min_nodes: Self::DEFAULT_MIN_NODES,
            force_speculation: false,
            pin: true,
        }
    }
}

/// Cumulative counters of the partitioned evaluation path. Collected per
/// engine via [`Engine::partition_stats`](crate::Engine::partition_stats).
///
/// Unlike [`EngineStats`](crate::EngineStats), the speculation counters
/// depend on worker *timing* (how far the owner had published when the
/// reader arrived) and are therefore not deterministic run to run — except
/// under [`ParallelConfig::force_speculation`], which removes the timing
/// dependence for the conformance suite.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Iterations evaluated by the partitioned parallel sweep.
    pub parallel_iterations: u64,
    /// Fast-path iterations that ran serially while the runtime was
    /// attached (delta hits, graphs under `min_nodes`, worklist fallback).
    pub serial_iterations: u64,
    /// Planned partitions (`P`), fixed at plan time.
    pub partitions: u64,
    /// Levels with a planned barrier, fixed at plan time (barrier mode
    /// crossing cost per iteration).
    pub planned_barriers: u64,
    /// Cross-partition zero-delay arcs in the plan (the frontier size).
    pub frontier_arcs: u64,
    /// Barrier crossings executed (summed over workers; barrier mode only).
    pub barrier_crossings: u64,
    /// Cross-partition reads served from the frontier cache (optimistic).
    pub speculative_reads: u64,
    /// Speculative reads whose cached value differed from the final one.
    pub speculation_misses: u64,
    /// Iterations that entered the rollback pass (≥ 1 miss).
    pub rollbacks: u64,
    /// Slots recomputed by rollback change-propagation.
    pub slots_recomputed: u64,
}

impl PartitionStats {
    /// Folds another stats block into this one (counters add; the
    /// plan-shape gauges `partitions`/`planned_barriers`/`frontier_arcs`
    /// take the maximum, so merging engines of one plan is idempotent).
    pub fn merge(&mut self, other: &PartitionStats) {
        self.parallel_iterations += other.parallel_iterations;
        self.serial_iterations += other.serial_iterations;
        self.partitions = self.partitions.max(other.partitions);
        self.planned_barriers = self.planned_barriers.max(other.planned_barriers);
        self.frontier_arcs = self.frontier_arcs.max(other.frontier_arcs);
        self.barrier_crossings += other.barrier_crossings;
        self.speculative_reads += other.speculative_reads;
        self.speculation_misses += other.speculation_misses;
        self.rollbacks += other.rollbacks;
        self.slots_recomputed += other.slots_recomputed;
    }
}

impl From<PartitionStats> for evolve_obs::PartitionCounters {
    fn from(p: PartitionStats) -> Self {
        evolve_obs::PartitionCounters {
            parallel_iterations: p.parallel_iterations,
            serial_iterations: p.serial_iterations,
            partitions: p.partitions,
            planned_barriers: p.planned_barriers,
            frontier_arcs: p.frontier_arcs,
            barrier_crossings: p.barrier_crossings,
            speculative_reads: p.speculative_reads,
            speculation_misses: p.speculation_misses,
            rollbacks: p.rollbacks,
            slots_recomputed: p.slots_recomputed,
        }
    }
}

/// Partition cut granularity in slots. Matches the compiled sweep's fused
/// segment cap (`32 KiB / 8-byte accumulator row`, see
/// `crate::batch::plan` and [`CompiledTdg::plan_segments`]): cuts land on
/// the same ~32 KiB tile boundaries, so a partition's per-level range is a
/// whole number of cache-resident sweep tiles.
const TILE_SLOTS: usize = 32 * 1024 / std::mem::size_of::<i64>() / 4;

/// The compile-time partition plan: per-level contiguous slot ranges, the
/// barrier schedule, and the frontier/rollback adjacency.
#[derive(Debug)]
pub(crate) struct PartitionPlan {
    /// Worker count `P` (≥ 2 when a runtime is built).
    pub(crate) threads: usize,
    /// Zero-delay level count.
    pub(crate) levels: usize,
    /// `levels × (threads + 1)` flattened schedule-position bounds:
    /// partition `p` of level `l` sweeps
    /// `bounds[l*(P+1)+p] .. bounds[l*(P+1)+p+1]`.
    pub(crate) bounds: Vec<u32>,
    /// Barrier-mode: wait before entering this level.
    pub(crate) barrier_before: Vec<bool>,
    /// Owning partition per node.
    pub(crate) owner_of: Vec<u32>,
    /// Zero-delay level per node.
    pub(crate) level_of: Vec<u32>,
    /// Nodes read across a partition boundary at delay 0 (the frontier
    /// cache refresh set).
    pub(crate) boundary_srcs: Vec<u32>,
    /// Cross-partition zero-delay arc count.
    pub(crate) cross_arcs: u64,
    /// CSR of *all* zero-delay successors per node (rollback propagation).
    pub(crate) succ0_offsets: Vec<u32>,
    pub(crate) succ0_targets: Vec<u32>,
    /// Schedule positions whose exec stream can stash execution info.
    pub(crate) stash_slots: Vec<u32>,
}

/// Builds the partition plan for `threads` workers over a compiled
/// schedule. Purely structural — no engine state involved.
pub(crate) fn plan_partitions(ct: &CompiledTdg, threads: usize) -> PartitionPlan {
    let threads = threads.clamp(1, ParallelConfig::MAX_THREADS);
    let n = ct.schedule.len();
    let levels = ct.level_count();
    let t1 = threads + 1;

    // Per-level contiguous cost-balanced cuts, aligned to sweep tiles.
    let mut bounds = vec![0u32; levels * t1];
    let cost = |pos: usize| -> u64 {
        let arcs: usize = ct.arc_ranges(pos).iter().map(|r| r.len()).sum();
        1 + arcs as u64
    };
    for l in 0..levels {
        let lo = ct.level_offsets[l] as usize;
        let hi = ct.level_offsets[l + 1] as usize;
        let total: u64 = (lo..hi).map(cost).sum();
        let row = &mut bounds[l * t1..(l + 1) * t1];
        row[0] = lo as u32;
        row[threads] = hi as u32;
        let mut pos = lo;
        let mut acc = 0u64;
        for p in 1..threads {
            let target = total * p as u64 / threads as u64;
            while pos < hi && acc < target {
                acc += cost(pos);
                pos += 1;
            }
            // Snap wide levels onto tile boundaries so each range is a
            // whole number of ~32 KiB sweep tiles.
            let cut = if hi - lo >= threads * TILE_SLOTS {
                lo + (pos - lo) / TILE_SLOTS * TILE_SLOTS
            } else {
                pos
            };
            row[p] = (cut.max(row[p - 1] as usize).min(hi)) as u32;
        }
    }

    // Node → (owner, level) maps.
    let mut owner_of = vec![0u32; n];
    let mut level_of = vec![0u32; n];
    for l in 0..levels {
        for p in 0..threads {
            let (lo, hi) = (bounds[l * t1 + p] as usize, bounds[l * t1 + p + 1] as usize);
            for pos in lo..hi {
                owner_of[ct.schedule[pos] as usize] = p as u32;
                level_of[ct.schedule[pos] as usize] = l as u32;
            }
        }
    }

    // Frontier analysis + greedy barrier placement. `published` is the
    // level below which every partition is known complete (0 = nothing):
    // a cross-partition zero-delay arc whose source sits at or above it
    // forces a barrier before its destination level, which then raises
    // the floor — arcs from deeper history ride the earlier barrier free.
    let mut barrier_before = vec![false; levels];
    let mut boundary = vec![false; n];
    let mut cross_arcs = 0u64;
    let mut published = 0u32;
    for (l, barrier) in barrier_before.iter_mut().enumerate() {
        let (lo, hi) = (ct.level_offsets[l] as usize, ct.level_offsets[l + 1] as usize);
        let mut need = false;
        for pos in lo..hi {
            let dst_owner = owner_of[ct.schedule[pos] as usize];
            let [c, _, e] = ct.arc_ranges(pos);
            let zero_srcs = ct.const_srcs[c]
                .iter()
                .copied()
                .chain(e.filter(|&i| ct.exec_delays[i] == 0).map(|i| ct.exec_srcs[i]));
            for src in zero_srcs {
                if owner_of[src as usize] != dst_owner {
                    cross_arcs += 1;
                    boundary[src as usize] = true;
                    need |= level_of[src as usize] >= published;
                }
            }
        }
        if need {
            *barrier = true;
            published = l as u32;
        }
    }
    let boundary_srcs: Vec<u32> = (0..n as u32).filter(|&i| boundary[i as usize]).collect();

    // Zero-delay successor CSR (rollback change-propagation).
    let mut succ0_offsets = vec![0u32; n + 1];
    let zero_arcs = |pos: usize| {
        let [c, _, e] = ct.arc_ranges(pos);
        ct.const_srcs[c]
            .iter()
            .copied()
            .chain(e.filter(|&i| ct.exec_delays[i] == 0).map(|i| ct.exec_srcs[i]))
    };
    for pos in 0..n {
        for src in zero_arcs(pos) {
            succ0_offsets[src as usize + 1] += 1;
        }
    }
    for i in 0..n {
        succ0_offsets[i + 1] += succ0_offsets[i];
    }
    let mut succ0_targets = vec![0u32; succ0_offsets[n] as usize];
    let mut cursor = succ0_offsets.clone();
    for pos in 0..n {
        let dst = ct.schedule[pos];
        for src in zero_arcs(pos) {
            succ0_targets[cursor[src as usize] as usize] = dst;
            cursor[src as usize] += 1;
        }
    }

    // Coordinator stash-pass indices, in schedule order (the size
    // pre-pass and the observation replay walk the program's own lists).
    let stash_slots: Vec<u32> = (0..n)
        .filter(|&pos| {
            let [_, _, e] = ct.arc_ranges(pos);
            e.into_iter().any(|i| ct.exec_stash_dense[i] != u32::MAX)
        })
        .map(|pos| pos as u32)
        .collect();

    PartitionPlan {
        threads,
        levels,
        bounds,
        barrier_before,
        owner_of,
        level_of,
        boundary_srcs,
        cross_arcs,
        succ0_offsets,
        succ0_targets,
        stash_slots,
    }
}

impl PartitionPlan {
    /// Planned barrier count.
    pub(crate) fn planned_barriers(&self) -> u64 {
        self.barrier_before.iter().filter(|&&b| b).count() as u64
    }

    /// Zero-delay successors of `node`.
    pub(crate) fn succ0(&self, node: usize) -> &[u32] {
        &self.succ0_targets
            [self.succ0_offsets[node] as usize..self.succ0_offsets[node + 1] as usize]
    }
}

/// The per-engine runtime of the parallel path: the plan plus the shared
/// scratch the workers sweep into. The accumulator scratch doubles as the
/// previous iteration's value store — unswept entries keep last
/// iteration's instants, which is exactly the optimistic frontier cache.
#[derive(Debug)]
pub(crate) struct ParallelRuntime {
    pub(crate) config: ParallelConfig,
    pub(crate) plan: PartitionPlan,
    /// Raw (max,+) accumulator per node, shared across workers.
    pub(crate) acc: Vec<AtomicI64>,
    /// Frontier cache: per-node snapshot of the boundary sources taken
    /// before each sweep (only `plan.boundary_srcs` entries are refreshed).
    pub(crate) frontier: Vec<i64>,
    /// Published-level counter per partition (optimistic mode).
    pub(crate) progress: Vec<AtomicU32>,
    /// Rollback dirty flags, node-indexed (cleared after each rollback).
    pub(crate) dirty: Vec<bool>,
    pub(crate) stats: PartitionStats,
}

impl ParallelRuntime {
    pub(crate) fn new(ct: &CompiledTdg, config: ParallelConfig) -> Self {
        let plan = plan_partitions(ct, config.threads);
        let n = ct.schedule.len();
        let stats = PartitionStats {
            partitions: plan.threads as u64,
            planned_barriers: plan.planned_barriers(),
            frontier_arcs: plan.cross_arcs,
            ..PartitionStats::default()
        };
        ParallelRuntime {
            config,
            acc: (0..n).map(|_| AtomicI64::new(MaxPlus::EPSILON.raw())).collect(),
            frontier: vec![MaxPlus::EPSILON.raw(); n],
            progress: (0..plan.threads).map(|_| AtomicU32::new(0)).collect(),
            dirty: vec![false; n],
            plan,
            stats,
        }
    }

    /// Restores the deterministic post-construction state (engine reuse:
    /// a reset engine must speculate exactly like a fresh one).
    pub(crate) fn reset(&mut self) {
        let eps = MaxPlus::EPSILON.raw();
        for a in &self.acc {
            a.store(eps, Ordering::Relaxed);
        }
        self.frontier.fill(eps);
        for p in &self.progress {
            p.store(0, Ordering::Relaxed);
        }
        self.dirty.fill(false);
        self.stats = PartitionStats {
            partitions: self.plan.threads as u64,
            planned_barriers: self.plan.planned_barriers(),
            frontier_arcs: self.plan.cross_arcs,
            ..PartitionStats::default()
        };
    }
}

/// Per-worker view of an attached [`FlightRecorder`]: the recorder, the
/// per-partition-worker track table, and the correlation id of the request
/// currently being evaluated. `Copy` so [`ParSweepCtx`](crate::engine) can
/// hand one to every scoped worker; when no recorder is attached the sweep
/// carries `None` and pays a single branch per level.
///
/// Track ownership mirrors the seqlock's single-writer contract: worker
/// `p` records only on `tracks[p]`, and a worker beyond the registered
/// table falls back to [`TrackId::INVALID`] — the span is dropped from the
/// ring but still feeds the per-phase latency histograms.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WorkerFlight<'a> {
    pub(crate) recorder: &'a FlightRecorder,
    pub(crate) tracks: &'a [TrackId],
    pub(crate) corr: u64,
}

impl WorkerFlight<'_> {
    /// Nanoseconds since the recorder epoch (the shared span time base).
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.recorder.now_ns()
    }

    /// Records a finished `[start_ns, end_ns]` span on worker `p`'s track.
    #[inline]
    pub(crate) fn record(&self, p: usize, phase: Phase, start_ns: u64, end_ns: u64, arg: u64) {
        let track = self.tracks.get(p).copied().unwrap_or(TrackId::INVALID);
        self.recorder
            .record(track, phase, self.corr, start_ns, end_ns, 0, arg);
    }
}

/// A sense-reversing spin barrier for the level-boundary waits. Spins
/// briefly, then yields — the sweep's level gaps are sub-microsecond when
/// the plan is balanced, but oversubscribed hosts must not livelock.
#[derive(Debug)]
pub(crate) struct SpinBarrier {
    waiting: AtomicU32,
    generation: AtomicU32,
    total: u32,
}

impl SpinBarrier {
    pub(crate) fn new(total: u32) -> Self {
        SpinBarrier {
            waiting: AtomicU32::new(0),
            generation: AtomicU32::new(0),
            total,
        }
    }

    pub(crate) fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.waiting.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.waiting.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Best-effort pinning of the calling thread to `cpu` (modulo the host's
/// CPU count). No-op off Linux; failures (e.g. a restricted affinity
/// mask) are ignored — pinning is a throughput hint, never a correctness
/// requirement.
#[cfg(target_os = "linux")]
pub(crate) fn pin_current_thread(cpu: usize) {
    #[allow(unsafe_code)]
    mod ffi {
        extern "C" {
            pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        pub fn set(cpu: usize) {
            let mut mask = [0u64; 16]; // up to 1024 CPUs
            let cpu = cpu % (mask.len() * 64);
            mask[cpu / 64] = 1u64 << (cpu % 64);
            // SAFETY: `mask` outlives the call and `cpusetsize` matches its
            // byte length; pid 0 targets the calling thread.
            let _ = unsafe {
                sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr())
            };
        }
    }
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    ffi::set(cpu % cpus);
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn pin_current_thread(_cpu: usize) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{pad_wide, pipeline};
    use crate::{derive_tdg, Engine};

    fn compiled_of(chains: usize, extra: usize) -> Engine {
        let p = pipeline(3, 100, 2).unwrap();
        let derived = derive_tdg(&p.arch).unwrap();
        let rels = p.arch.app().relations().len();
        let padded = crate::derive::DerivedTdg::new(
            pad_wide(derived.tdg(), extra, chains),
            derived.size_rules().to_vec(),
        );
        Engine::new(padded, rels, true)
    }

    #[test]
    fn plan_covers_every_slot_exactly_once() {
        let e = compiled_of(8, 5_000);
        let ct = e.compiled_tdg().unwrap();
        let plan = plan_partitions(ct, 4);
        let t1 = plan.threads + 1;
        let mut seen = vec![false; ct.schedule.len()];
        for l in 0..plan.levels {
            assert_eq!(plan.bounds[l * t1], ct.level_offsets[l]);
            assert_eq!(plan.bounds[l * t1 + plan.threads], ct.level_offsets[l + 1]);
            for p in 0..plan.threads {
                let (lo, hi) = (plan.bounds[l * t1 + p], plan.bounds[l * t1 + p + 1]);
                assert!(lo <= hi);
                for pos in lo..hi {
                    assert!(!seen[pos as usize], "slot {pos} covered twice");
                    seen[pos as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every slot must be covered");
    }

    #[test]
    fn aligned_chains_need_few_barriers() {
        let e = compiled_of(16, 20_000);
        let ct = e.compiled_tdg().unwrap();
        let plan = plan_partitions(ct, 4);
        // The padding chains never cross partitions mid-chain; only the
        // handful of pipeline levels at the head can force barriers.
        assert!(
            plan.planned_barriers() < 20,
            "chain-aligned plan must need few barriers, got {}",
            plan.planned_barriers()
        );
    }

    #[test]
    fn single_chain_degenerates_to_one_busy_partition() {
        let e = compiled_of(1, 2_000);
        let ct = e.compiled_tdg().unwrap();
        let plan = plan_partitions(ct, 4);
        // A chain is one slot per level: cost balancing keeps each chain
        // level whole, so only the handful of multi-slot pipeline-head
        // levels can contribute frontier arcs — the 2 000 chain levels
        // must contribute none.
        assert!(
            plan.cross_arcs < 50,
            "chain levels must not cross partitions, got {} frontier arcs",
            plan.cross_arcs
        );
        assert!(plan.planned_barriers() < 20);
    }

    #[test]
    fn succ0_mirrors_zero_delay_arcs() {
        let e = compiled_of(4, 1_000);
        let ct = e.compiled_tdg().unwrap();
        let plan = plan_partitions(ct, 2);
        let mut arcs = 0usize;
        for pos in 0..ct.schedule.len() {
            arcs += (ct.const_offsets[pos + 1] - ct.const_offsets[pos]) as usize;
            let e0 = ct.exec_offsets[pos] as usize..ct.exec_offsets[pos + 1] as usize;
            arcs += e0.filter(|&i| ct.exec_delays[i] == 0).count();
        }
        assert_eq!(plan.succ0_targets.len(), arcs);
        // Every listed successor is strictly deeper than its source.
        for node in 0..ct.schedule.len() {
            for &succ in plan.succ0(node) {
                assert!(plan.level_of[succ as usize] > plan.level_of[node]);
            }
        }
    }

    #[test]
    fn spin_barrier_synchronizes() {
        use std::sync::atomic::AtomicU64;
        let barrier = SpinBarrier::new(3);
        let hits = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                    barrier.wait();
                });
            }
            barrier.wait();
            assert_eq!(hits.load(Ordering::SeqCst), 2);
        });
    }
}
