//! Intra-graph partitioned parallel evaluation of the compiled sweep.
//!
//! Batching (PR 3) and delta chaining (PR 6) parallelize *across*
//! scenarios; one huge model still walks its whole levelized CSR schedule
//! on a single thread. This module splits that walk: at plan time the
//! schedule's slots are partitioned, per zero-delay level, into `P`
//! contiguous load-balanced ranges (cut on ~32 KiB tiles of accumulator
//! rows), and each iteration is then swept by `P` workers walking their ranges
//! level-by-level. Only *cross-partition zero-delay arcs* — the partition
//! frontier — need synchronization; delayed arcs read the immutable
//! history ring and are always safe.
//!
//! Workers synchronize only through spin barriers at planned level
//! boundaries. A greedy pass over the levels places a barrier before level
//! `l` only when some cross-partition zero-delay arc into `l` starts at or
//! above the last barriered level, so partition-aligned graphs (e.g.
//! [`synthetic::pad_wide`](crate::synthetic::pad_wide) chains) cross few
//! or no barriers at all.
//!
//! The partitioned sweep leaves ring state, observation logs, and
//! [`EngineCounters`](evolve_obs::EngineCounters) bitwise identical to the
//! serial compiled sweep — the sweep itself runs in `crate::engine`
//! (`compute_iteration_parallel`); this module owns the plan, the runtime
//! scratch, the knobs, and the counters.

use std::sync::atomic::{AtomicI64, AtomicU32, Ordering};

use evolve_maxplus::MaxPlus;
use evolve_obs::{FlightRecorder, PartitionCounters, Phase, TrackId};

use crate::compile::CompiledTdg;

/// Configuration of the partitioned parallel evaluation path
/// ([`Engine::set_partition`](crate::Engine::set_partition)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker count `P` (the caller doubles as worker 0). Values below 2
    /// disable the path; values above [`ParallelConfig::MAX_THREADS`] are
    /// clamped.
    pub threads: usize,
    /// Smallest graph (node count) the parallel path engages on; smaller
    /// graphs stay on the serial sweep, whose single linear pass is
    /// already cache-resident.
    pub min_nodes: usize,
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
            min_nodes: Self::DEFAULT_MIN_NODES,
            pin: true,
        }
    }
}

/// Partition cut granularity in slots: a quarter of 32 KiB of 8-byte
/// accumulators, so a partition's per-level range is a whole number of
/// cache-resident sweep tiles.
const TILE_SLOTS: usize = 32 * 1024 / std::mem::size_of::<i64>() / 4;

/// The compile-time partition plan: per-level contiguous slot ranges and
/// the barrier schedule.
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
    /// Wait at a barrier before entering this level.
    pub(crate) barrier_before: Vec<bool>,
    /// Cross-partition zero-delay arc count.
    pub(crate) cross_arcs: u64,
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
                    need |= level_of[src as usize] >= published;
                }
            }
        }
        if need {
            *barrier = true;
            published = l as u32;
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
        cross_arcs,
        stash_slots,
    }
}

impl PartitionPlan {
    /// Planned barrier count.
    pub(crate) fn planned_barriers(&self) -> u64 {
        self.barrier_before.iter().filter(|&&b| b).count() as u64
    }

    /// Counters of a runtime that has evaluated nothing yet: the plan-shape
    /// gauges set, every cumulative counter zero.
    fn fresh_counters(&self) -> PartitionCounters {
        PartitionCounters {
            partitions: self.threads as u64,
            planned_barriers: self.planned_barriers(),
            frontier_arcs: self.cross_arcs,
            ..PartitionCounters::default()
        }
    }
}

/// The per-engine runtime of the parallel path: the plan plus the shared
/// accumulator scratch the workers sweep into.
#[derive(Debug)]
pub(crate) struct ParallelRuntime {
    pub(crate) config: ParallelConfig,
    pub(crate) plan: PartitionPlan,
    /// Raw (max,+) accumulator per node, shared across workers.
    pub(crate) acc: Vec<AtomicI64>,
    pub(crate) stats: PartitionCounters,
}

impl ParallelRuntime {
    pub(crate) fn new(ct: &CompiledTdg, config: ParallelConfig) -> Self {
        let plan = plan_partitions(ct, config.threads);
        ParallelRuntime {
            config,
            acc: (0..ct.schedule.len())
                .map(|_| AtomicI64::new(MaxPlus::EPSILON.raw()))
                .collect(),
            stats: plan.fresh_counters(),
            plan,
        }
    }

    /// Restarts the counters (engine reuse). The scratch needs no
    /// clearing: every sweep writes each entry before any worker reads it.
    pub(crate) fn reset(&mut self) {
        self.stats = self.plan.fresh_counters();
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

    /// The whole correctness condition of the partitioned sweep: every
    /// cross-partition zero-delay arc (const arcs, and exec arcs with delay
    /// 0) has a planned barrier at some level `b` with
    /// `level(src) < b <= level(dst)`, so its source is final before its
    /// destination reads it. The arcs are enumerated here from the CSR
    /// streams, independently of the planner's own walk.
    #[test]
    fn every_cross_partition_zero_delay_arc_crosses_a_barrier() {
        for (chains, padding) in [(1, 300), (4, 1_000), (8, 5_000), (64, 20_000)] {
            let e = compiled_of(chains, padding);
            let ct = e.compiled_tdg().unwrap();
            let n = ct.schedule.len();
            for threads in 2..=4 {
                let plan = plan_partitions(ct, threads);
                let t1 = plan.threads + 1;
                let (mut owner, mut level) = (vec![0usize; n], vec![0usize; n]);
                for l in 0..plan.levels {
                    for p in 0..plan.threads {
                        for pos in plan.bounds[l * t1 + p]..plan.bounds[l * t1 + p + 1] {
                            owner[ct.schedule[pos as usize] as usize] = p;
                            level[ct.schedule[pos as usize] as usize] = l;
                        }
                    }
                }
                let mut cross = 0u64;
                for pos in 0..n {
                    let dst = ct.schedule[pos] as usize;
                    let consts = ct.const_offsets[pos] as usize..ct.const_offsets[pos + 1] as usize;
                    let execs = ct.exec_offsets[pos] as usize..ct.exec_offsets[pos + 1] as usize;
                    let zero_srcs = consts.map(|i| ct.const_srcs[i]).chain(
                        execs
                            .filter(|&i| ct.exec_delays[i] == 0)
                            .map(|i| ct.exec_srcs[i]),
                    );
                    for src in zero_srcs.map(|s| s as usize) {
                        if owner[src] == owner[dst] {
                            continue;
                        }
                        cross += 1;
                        assert!(
                            (level[src] + 1..=level[dst]).any(|b| plan.barrier_before[b]),
                            "{chains}x{padding} P={threads}: arc {src}->{dst} (levels {} -> {}) \
                             crosses partitions {} -> {} with no barrier between",
                            level[src],
                            level[dst],
                            owner[src],
                            owner[dst],
                        );
                    }
                }
                assert_eq!(cross, plan.cross_arcs, "{chains}x{padding} P={threads}");
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
