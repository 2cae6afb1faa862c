//! Workload models: computation loads and their mapping to durations.
//!
//! A workload model expresses "the computation and communication loads that
//! an application causes when executed" (paper Section II) without modeling
//! functionality. An [`Execute`](crate::Stmt::Execute) statement carries a
//! [`LoadModel`] producing an abstract operation count; the processing
//! resource's speed converts operations into simulated time, and the raw
//! operation count feeds the computational-complexity (GOPS) observation of
//! the paper's Fig. 6.
//!
//! All load evaluation is **deterministic in `(function, statement, k,
//! size)`** — the conventional event-driven model and the equivalent model
//! computed through the temporal dependency graph must observe *identical*
//! durations, otherwise the paper's exact-accuracy claim cannot be checked.
//! Randomized loads therefore derive from a counter-based hash of those
//! coordinates rather than from a stateful generator.

use evolve_des::Duration;

/// Deterministic 64-bit mix (SplitMix64 finalizer); counter-based so both
/// model variants sample identical values for the same coordinates.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Coordinates identifying one execute-statement instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LoadContext {
    /// Index of the executing function.
    pub function: usize,
    /// Statement index within the function's behaviour.
    pub stmt: usize,
    /// Iteration `k` of the function.
    pub k: u64,
    /// Size of the most recently read token in this iteration.
    pub size: u64,
}

/// A computation load in abstract operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadModel {
    /// A fixed operation count.
    Constant(u64),
    /// `base + per_unit * size`: load proportional to the data size, the
    /// paper's "execution durations … can depend on data size information".
    PerUnit {
        /// Load independent of the data size.
        base: u64,
        /// Additional load per size unit.
        per_unit: u64,
    },
    /// A uniformly distributed load in `min..=max`, drawn deterministically
    /// from `(seed, function, stmt, k)`.
    Uniform {
        /// Inclusive lower bound.
        min: u64,
        /// Inclusive upper bound.
        max: u64,
        /// Stream seed, so distinct models decorrelate.
        seed: u64,
    },
    /// Step table: the load of the first entry whose size bound is `>= size`
    /// (entries must be sorted by size); sizes beyond the last bound use the
    /// last entry.
    Table(Vec<(u64, u64)>),
    /// Replay of a captured per-iteration load trace: iteration `k` uses
    /// `samples[k % samples.len()]`, independent of data size. Lets models
    /// be driven by measured workloads instead of analytic ones.
    Trace(std::sync::Arc<Vec<u64>>),
    /// Conditionally active computation — the paper's "conditioning in the
    /// evolution of the application": with probability `num/den` (drawn
    /// deterministically per iteration) the inner load runs, otherwise the
    /// execute contributes zero operations and zero time. Because activity
    /// is a pure function of `(seed, k)`, the computed model evaluates the
    /// same condition without the simulator, exactly as the paper's
    /// Section III.C control statements.
    Gated {
        /// Activation numerator.
        num: u64,
        /// Activation denominator (must be nonzero).
        den: u64,
        /// Stream seed.
        seed: u64,
        /// The load performed when active.
        inner: std::sync::Arc<LoadModel>,
    },
}

impl LoadModel {
    /// Evaluates the operation count for one statement instance.
    ///
    /// # Panics
    ///
    /// Panics if a [`LoadModel::Table`] is empty or if a
    /// [`LoadModel::Uniform`] has `min > max`.
    #[inline]
    pub fn ops(&self, ctx: LoadContext) -> u64 {
        match self {
            LoadModel::Constant(n) => *n,
            LoadModel::PerUnit { base, per_unit } => {
                base.saturating_add(per_unit.saturating_mul(ctx.size))
            }
            LoadModel::Uniform { min, max, seed } => {
                assert!(min <= max, "uniform load with min > max");
                let span = max - min + 1;
                let h = mix64(
                    seed ^ mix64(ctx.function as u64)
                        ^ mix64(ctx.stmt as u64).rotate_left(17)
                        ^ mix64(ctx.k).rotate_left(34),
                );
                min + h % span
            }
            LoadModel::Table(entries) => {
                assert!(!entries.is_empty(), "empty load table");
                entries
                    .iter()
                    .find(|(bound, _)| ctx.size <= *bound)
                    .or_else(|| entries.last())
                    .map(|(_, ops)| *ops)
                    .expect("table checked non-empty")
            }
            LoadModel::Trace(samples) => {
                assert!(!samples.is_empty(), "empty load trace");
                samples[(ctx.k % samples.len() as u64) as usize]
            }
            LoadModel::Gated {
                num,
                den,
                seed,
                inner,
            } => {
                assert!(*den > 0, "gated load with zero denominator");
                let h = mix64(seed ^ mix64(ctx.k).rotate_left(21));
                if h % den < *num {
                    inner.ops(ctx)
                } else {
                    0
                }
            }
        }
    }

    /// The period of this model in the iteration index `k`, if the model is
    /// (eventually) periodic in `k`: `ops` restricted to any fixed `size`
    /// satisfies `ops(k + q) == ops(k)` for the returned `q`. `None` means
    /// the load is a pseudo-random function of `k` with no short period.
    ///
    /// Size-only and constant models report `Some(1)`. This is the
    /// eligibility gate for periodic steady-state fast-forwarding: a
    /// detected state period `p` is only sound to extrapolate when every
    /// load's `k`-period divides `p` (checked via `p % q == 0`), otherwise
    /// operation counts would diverge from the skipped evaluations.
    pub fn k_period(&self) -> Option<u64> {
        match self {
            LoadModel::Constant(_) | LoadModel::PerUnit { .. } | LoadModel::Table(_) => Some(1),
            LoadModel::Uniform { min, max, .. } => (min == max).then_some(1),
            LoadModel::Trace(samples) => Some(samples.len().max(1) as u64),
            LoadModel::Gated {
                num, den, inner, ..
            } => {
                if *num == 0 {
                    Some(1) // never active: ops are identically zero
                } else if num >= den {
                    inner.k_period() // always active: inner decides
                } else {
                    None // genuinely random activation per k
                }
            }
        }
    }

    /// Convenience constructor for [`LoadModel::Gated`].
    pub fn gated(num: u64, den: u64, seed: u64, inner: LoadModel) -> Self {
        LoadModel::Gated {
            num,
            den,
            seed,
            inner: std::sync::Arc::new(inner),
        }
    }

    /// Convenience constructor for [`LoadModel::Trace`].
    pub fn from_trace(samples: Vec<u64>) -> Self {
        LoadModel::Trace(std::sync::Arc::new(samples))
    }
}

/// Converts an operation count to a duration on a resource of the given
/// speed (operations per tick), rounding up so nonzero work always takes
/// nonzero time.
///
/// # Panics
///
/// Panics if `speed_ops_per_tick` is zero.
#[inline]
pub fn duration_for(ops: u64, speed_ops_per_tick: u64) -> Duration {
    assert!(speed_ops_per_tick > 0, "resource speed must be nonzero");
    Duration::from_ticks(ops.div_ceil(speed_ops_per_tick))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(k: u64, size: u64) -> LoadContext {
        LoadContext {
            function: 1,
            stmt: 2,
            k,
            size,
        }
    }

    #[test]
    fn constant_and_per_unit() {
        assert_eq!(LoadModel::Constant(7).ops(ctx(0, 100)), 7);
        assert_eq!(
            LoadModel::PerUnit {
                base: 10,
                per_unit: 3
            }
            .ops(ctx(0, 4)),
            22
        );
    }

    #[test]
    fn uniform_is_deterministic_and_in_range() {
        let m = LoadModel::Uniform {
            min: 5,
            max: 9,
            seed: 42,
        };
        for k in 0..100 {
            let a = m.ops(ctx(k, 0));
            let b = m.ops(ctx(k, 0));
            assert_eq!(a, b, "same coordinates, same draw");
            assert!((5..=9).contains(&a));
        }
        // Different k gives (almost surely) different draws somewhere.
        let distinct: std::collections::HashSet<u64> =
            (0..100).map(|k| m.ops(ctx(k, 0))).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn uniform_decorrelates_across_seeds_and_stmts() {
        let a = LoadModel::Uniform {
            min: 0,
            max: 1_000_000,
            seed: 1,
        };
        let b = LoadModel::Uniform {
            min: 0,
            max: 1_000_000,
            seed: 2,
        };
        let same: usize = (0..200)
            .filter(|&k| a.ops(ctx(k, 0)) == b.ops(ctx(k, 0)))
            .count();
        assert!(same < 5, "seeds should decorrelate, {same} collisions");
    }

    #[test]
    fn table_lookup() {
        let m = LoadModel::Table(vec![(10, 100), (20, 200), (30, 300)]);
        assert_eq!(m.ops(ctx(0, 5)), 100);
        assert_eq!(m.ops(ctx(0, 10)), 100);
        assert_eq!(m.ops(ctx(0, 11)), 200);
        assert_eq!(m.ops(ctx(0, 99)), 300, "beyond last bound uses last entry");
    }

    #[test]
    fn duration_rounds_up() {
        assert_eq!(duration_for(10, 3), Duration::from_ticks(4));
        assert_eq!(duration_for(9, 3), Duration::from_ticks(3));
        assert_eq!(duration_for(0, 3), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "speed must be nonzero")]
    fn zero_speed_rejected() {
        let _ = duration_for(1, 0);
    }

    #[test]
    #[should_panic(expected = "empty load table")]
    fn empty_table_rejected() {
        let _ = LoadModel::Table(vec![]).ops(ctx(0, 0));
    }

    #[test]
    fn trace_replays_cyclically() {
        let m = LoadModel::from_trace(vec![5, 9, 1]);
        assert_eq!(m.ops(ctx(0, 100)), 5);
        assert_eq!(m.ops(ctx(1, 0)), 9);
        assert_eq!(m.ops(ctx(2, 0)), 1);
        assert_eq!(m.ops(ctx(3, 0)), 5, "wraps around");
    }

    #[test]
    #[should_panic(expected = "empty load trace")]
    fn empty_trace_rejected() {
        let _ = LoadModel::Trace(std::sync::Arc::new(vec![])).ops(ctx(0, 0));
    }

    #[test]
    fn gated_load_is_deterministic_and_sometimes_zero() {
        let m = LoadModel::gated(1, 3, 7, LoadModel::Constant(100));
        let draws: Vec<u64> = (0..300).map(|k| m.ops(ctx(k, 0))).collect();
        let again: Vec<u64> = (0..300).map(|k| m.ops(ctx(k, 0))).collect();
        assert_eq!(draws, again);
        let active = draws.iter().filter(|&&d| d == 100).count();
        let idle = draws.iter().filter(|&&d| d == 0).count();
        assert_eq!(active + idle, 300, "only 0 or the inner load");
        // Roughly a third active.
        assert!((60..=140).contains(&active), "{active} active of 300");
    }

    #[test]
    fn gated_always_and_never() {
        let always = LoadModel::gated(1, 1, 0, LoadModel::Constant(9));
        let never = LoadModel::gated(0, 5, 0, LoadModel::Constant(9));
        for k in 0..50 {
            assert_eq!(always.ops(ctx(k, 0)), 9);
            assert_eq!(never.ops(ctx(k, 0)), 0);
        }
    }
}
