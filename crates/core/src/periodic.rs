//! Periodic steady-state detection and O(1) fast-forward.
//!
//! The equivalent model's recurrence `X(k) = A ⊗ X(k−1) ⊕ B ⊗ u(k)` is
//! eventually periodic when the input offers are: after a transient,
//! `X(k) = X(k−p) + D` for a constant per-node delta vector `D` (max-plus
//! spectral theory: `x(k+c) = λ·c ⊗ x(k)` for autonomous systems, extended
//! here to periodically driven ones). Because [`Time`] is exact integer
//! ticks, that regime can be **fast-forwarded bitwise exactly**: instead of
//! sweeping the compiled schedule, `set_input` answers by shifting a cached
//! per-position template of the whole observable call effect — exchange
//! instants, read instants, execution records, output emissions, the input
//! acknowledgment, and the
//! [`EngineCounters`](evolve_obs::EngineCounters) increments.
//!
//! # Why shifting is exact
//!
//! Suppose the engine has verified, over a confirmation window, that
//!
//! 1. input offers are `p`-periodic: `at(k) = at(k−p) + Δ_in` with repeating
//!    token sizes,
//! 2. every node value satisfies `x_j(k) = x_j(k−p) + D_j` for a constant
//!    per-node delta `D_j ≥ 0`,
//! 3. for every arc `src → dst` of the graph, `D_src ≤ D_dst`,
//! 4. every execution load is `k`-periodic with a period dividing `p`
//!    ([`LoadModel::k_period`](evolve_model::LoadModel::k_period)), and
//!    every derived token size repeats per position.
//!
//! Then the shift persists by induction. A node value is
//! `x_dst(k) = max_i (x_{src_i}(k − d_i) + w_i)` over its in-arcs (the
//! process-start baseline `0` never binds in steady state because every
//! instant and every lag is non-negative, so all finite terms are ≥ 0).
//! Shifting every source by its own delta moves the binding term by exactly
//! `D_src` of its source; condition 3 makes every term with a *smaller*
//! source delta only more slack relative to terms shifting by `D_dst`, so
//! the arg-max never changes and `x_dst` advances by exactly `D_dst` — the
//! deltas need **not** be uniform across nodes. (Non-uniform deltas occur in
//! practice: input-paced padding chains advance by `Δ_in` while a saturated
//! core advances by the cycle mean λ·p ≥ Δ_in.)
//!
//! Condition 3 is checked against the full arc list at promotion; the
//! window itself must span at least `max_delay + 1` verified iterations so
//! every history read used by a steady-state sweep has been verified to
//! shift linearly.
//!
//! # Detector lifecycle
//!
//! `Idle` → (offer scan finds a candidate period) → `Confirming` (one
//! reference period is captured per position, then at least
//! `confirm_periods` further periods — [`DEFAULT_CONFIRM_PERIODS`] unless the
//! caller widens the window — establish and verify the per-node and
//! per-emission deltas) → `Promoted` (O(1) replay). Any
//! offer that breaks the pattern — during confirmation or after promotion —
//! **demotes**: the engine reconstructs the iteration ring from the
//! template (`refs[pos] + m·D`) and resumes the compiled sweep; the offer
//! that broke the period is evaluated exactly, never guessed.
//!
//! All extrapolation arithmetic is checked: a shift that would leave `u64`
//! ticks surfaces [`EngineError::TimeOverflow`] instead of saturating.
//!
//! Only the scalar [`Engine`](crate::Engine) fast-forwards:
//! [`BatchedEngine`](crate::BatchedEngine) lanes sweep every lockstep call.

use std::collections::VecDeque;

use evolve_des::{Duration, Time};
use evolve_maxplus::{max_cycle_mean, CycleMean, MaxPlus, Vector};
use evolve_model::{FunctionId, ResourceId};

use crate::error::EngineError;
use crate::tdg::Tdg;

/// Whether a scalar engine may promote periodic steady states to
/// fast-forward replay. Orthogonal to [`EvalBackend`](crate::EvalBackend):
/// fast-forward rides on top of the compiled sweep (worklist engines never
/// promote, and batched lanes never fast-forward).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FastForward {
    /// Detect periodic regimes and replay them in O(1) per iteration.
    On,
    /// Always evaluate through the configured backend (the default for a
    /// bare [`Engine`](crate::Engine); sweeps enable fast-forward
    /// explicitly).
    #[default]
    Off,
}

/// Verified periods the detector requires after the reference period
/// before promotion, unless the caller widens the window (never fewer than
/// 2: one establishes the deltas, one confirms their linearity). The window
/// additionally extends until `max_delay + 1` iterations are verified.
pub const DEFAULT_CONFIRM_PERIODS: u64 = 2;

/// Largest input-offer period considered by the scanner.
const PERIOD_MAX: u64 = 32;

/// Offer-history rescan cadence while idle, in calls.
const SCAN_INTERVAL: u64 = 8;

/// Hard cap on the effective template period after extending a detected
/// offer period to the LCM of the load periods.
const MAX_EFFECTIVE_PERIOD: u64 = 256;

/// A detected periodic regime: the fastest node's growth per period and the
/// period length in iterations (the online analogue of the spectral pair
/// `(λ·c, c)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DetectedPeriod {
    /// Ticks the fastest-growing node advances per period (`≈ λ·c`).
    pub growth: u64,
    /// The period in iterations (`c`).
    pub period: u64,
}

/// Fast-forward counters of one scalar engine (all zero for a batch lane,
/// which never fast-forwards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FastForwardStats {
    /// Times the detector promoted to fast-forward replay.
    pub promotions: u64,
    /// Times a pattern-breaking offer demoted back to the compiled sweep.
    pub demotions: u64,
    /// Iterations answered by template replay instead of a schedule sweep.
    pub fast_forwarded_iterations: u64,
    /// The most recently detected regime, if any.
    pub detected: Option<DetectedPeriod>,
}

impl FastForwardStats {
    /// Folds another stats snapshot into this one (histogram-style: keeps
    /// the other's detection if this one has none).
    pub fn merge(&mut self, other: &FastForwardStats) {
        self.promotions += other.promotions;
        self.demotions += other.demotions;
        self.fast_forwarded_iterations += other.fast_forwarded_iterations;
        if self.detected.is_none() {
            self.detected = other.detected;
        }
    }
}

impl From<FastForwardStats> for evolve_obs::FfCounters {
    fn from(s: FastForwardStats) -> Self {
        evolve_obs::FfCounters {
            promotions: s.promotions,
            demotions: s.demotions,
            fast_forwarded_iterations: s.fast_forwarded_iterations,
        }
    }
}

/// Static (max,+) prediction of the periodic regime, from the frozen graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OraclePrediction {
    /// The eigenvalue λ: asymptotic growth per iteration under saturation.
    pub lambda: CycleMean,
    /// The cyclicity `c` of the autonomous trajectory from `x(0) = e`.
    pub cyclicity: u64,
    /// Steps before that trajectory enters the periodic regime — a bound on
    /// the transient the online detector has to sit out.
    pub transient: u64,
}

/// Predicts `(λ, c)` and the transient length of a graph's autonomous
/// recurrence by Karp's algorithm plus power iteration on the one-step
/// matrix `A0* ⊗ A1` (multi-delay arcs expanded into unit-delay chains),
/// with loads frozen at `reference_size`.
///
/// Returns `None` for acyclic graphs (no eigenvalue: the input rate alone
/// paces the system) or when periodicity is not reached within `max_steps`
/// power-iteration steps. In debug builds the engine cross-checks a
/// promotion against this prediction when the loads are constant (the
/// observed growth can never undercut λ).
pub fn predict_periodic_regime(
    tdg: &Tdg,
    reference_size: u64,
    max_steps: u64,
) -> Option<OraclePrediction> {
    let m = crate::analysis::one_step_matrix(tdg, reference_size);
    let lambda = max_cycle_mean(&m)?;
    let t = evolve_maxplus::transient(&m, &Vector::e(m.rows()), max_steps)?;
    debug_assert_eq!(
        CycleMean::new(t.growth_per_period, t.cyclicity),
        lambda,
        "power iteration and Karp must agree on the eigenvalue"
    );
    Some(OraclePrediction {
        lambda,
        cyclicity: t.cyclicity,
        transient: t.length,
    })
}

/// Extrapolates `base + periods × growth` with checked arithmetic,
/// surfacing [`EngineError::TimeOverflow`] instead of saturating.
pub fn extrapolate(base: Time, growth: Duration, periods: u64) -> Result<Time, EngineError> {
    growth
        .checked_mul(periods)
        .and_then(|d| base.checked_add(d))
        .ok_or(EngineError::TimeOverflow {
            base,
            growth,
            periods,
        })
}

/// [`extrapolate`] over raw ticks.
pub(crate) fn shift_ticks(base: u64, growth: u64, periods: u64) -> Result<u64, EngineError> {
    extrapolate(Time::from_ticks(base), Duration::from_ticks(growth), periods).map(Time::ticks)
}

/// Shifts a signed accumulator value by `periods × growth`, checked
/// (staying strictly below `i64::MAX`, which [`MaxPlus::new`] clamps).
pub(crate) fn shift_acc(base: i64, growth: u64, periods: u64) -> Result<i64, EngineError> {
    let v = i128::from(base) + i128::from(growth) * i128::from(periods);
    if v < i128::from(i64::MAX) {
        Ok(v as i64)
    } else {
        Err(EngineError::TimeOverflow {
            base: Time::from_ticks(base.max(0) as u64),
            growth: Duration::from_ticks(growth),
            periods,
        })
    }
}

/// Pass 1 of template replay: extrapolates every emitted instant of
/// position `r` forward `m` periods, appending the shifted ticks to `out`
/// in emission order. Touches no other state, so a failed call leaves
/// nothing to undo; the caller applies `out` afterwards in the same order.
pub(crate) fn extrapolate_emissions(
    r: &PosTemplate,
    d: &EmissionDeltas,
    m: u64,
    out: &mut Vec<u64>,
) -> Result<(), EngineError> {
    for (e, &delta) in r.emissions.instants.iter().zip(&d.instants) {
        out.push(shift_ticks(e.1, delta, m)?);
    }
    for (e, &delta) in r.emissions.reads.iter().zip(&d.reads) {
        out.push(shift_ticks(e.1, delta, m)?);
    }
    for (e, &(ds, de)) in r.emissions.execs.iter().zip(&d.execs) {
        out.push(shift_ticks(e.start, ds, m)?);
        out.push(shift_ticks(e.end, de, m)?);
    }
    for (e, &delta) in r.emissions.outputs.iter().zip(&d.outputs) {
        out.push(shift_ticks(e.at, delta, m)?);
    }
    if let (Some((_, at0)), Some(delta)) = (r.emissions.ack, d.ack) {
        out.push(shift_ticks(at0, delta, m)?);
    }
    Ok(())
}

/// Pass 1 of a demotion: the accumulators template `t` predicts for the
/// history iterations `start..k_b`, one node-indexed row per iteration,
/// and with `lookahead` the look-ahead prefix the call at `k_b − 1` left
/// behind (0 for the nodes it does not compute), shifted with checked
/// arithmetic and appended to `out`. Touches no other state, so a failed
/// call leaves nothing to undo; each engine then writes the rows into its
/// own ring layout.
pub(crate) fn shift_history(
    t: &Template,
    start: u64,
    k_b: u64,
    lookahead: bool,
    out: &mut Vec<i64>,
) -> Result<(), EngineError> {
    debug_assert!(
        start >= t.k0 + t.p,
        "the confirmation window spans the history horizon"
    );
    for j in start..k_b {
        let (pos, m) = t.locate(j);
        for (&acc, &d) in t.refs[pos].acc.iter().zip(&t.d) {
            out.push(shift_acc(acc, d, m)?);
        }
    }
    if lookahead {
        let (_, m) = t.locate(k_b - 1);
        let tt = t.lookahead(k_b);
        for ((&done, &acc), &d) in tt.computed.iter().zip(&tt.acc).zip(&t.d) {
            out.push(if done { shift_acc(acc, d, m)? } else { 0 });
        }
    }
    Ok(())
}

/// Debug-only cross-check of a fresh promotion against the static (max,+)
/// oracle: with constant, size-independent loads the observed steady-state
/// growth of the fastest node can never undercut the spectral lower bound λ
/// (`x(k) ≽ A ⊗ x(k−1)` regardless of inputs).
#[cfg(debug_assertions)]
pub(crate) fn debug_check_against_oracle(tdg: &Tdg, t: &Template) {
    if tdg.node_count() > 160 {
        return;
    }
    let constant_loads = tdg.arcs().iter().all(|a| {
        a.weight.execs.iter().all(|e| {
            e.size_from.is_none() && matches!(e.load, evolve_model::LoadModel::Constant(_))
        })
    });
    if !constant_loads {
        return;
    }
    if let Some(o) = predict_periodic_regime(tdg, 0, 2_000) {
        let dmax = t.d.iter().copied().max().unwrap_or(0);
        debug_assert!(
            i128::from(dmax) * i128::from(o.lambda.denominator())
                >= i128::from(o.lambda.numerator()) * i128::from(t.p),
            "promoted growth {dmax} per {} iterations undercuts the spectral bound {}",
            t.p,
            o.lambda,
        );
    }
}

#[cfg(not(debug_assertions))]
pub(crate) fn debug_check_against_oracle(_tdg: &Tdg, _t: &Template) {}

/// One execution record emitted by a call, relative to the call iteration
/// (`k_off`: the record's iteration minus the offered `k` — the lookahead
/// prefix can emit records for `k + 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExecEmission {
    pub k_off: u64,
    pub resource: ResourceId,
    pub function: FunctionId,
    pub stmt: usize,
    pub start: u64,
    pub end: u64,
    pub ops: u64,
}

/// One output emission of a call: `(output index, iteration offset, instant
/// ticks, token size)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OutputEmission {
    pub output: u32,
    pub k_off: u64,
    pub at: u64,
    pub size: u64,
}

/// Everything one `set_input` call appended to the engine's observable
/// state, diffed by the caller around the compiled sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct CallEmissions {
    /// `(relation, ticks)` pushed to the exchange-instant log, in order.
    pub instants: Vec<(u32, u64)>,
    /// `(relation, ticks)` pushed to the read-instant log, in order.
    pub reads: Vec<(u32, u64)>,
    pub execs: Vec<ExecEmission>,
    pub outputs: Vec<OutputEmission>,
    /// New input acknowledgment: `(iteration offset, ticks)`.
    pub ack: Option<(u64, u64)>,
    /// `EngineCounters` increments of the call.
    pub nodes: u64,
    pub arcs: u64,
    pub iters: u64,
}

/// Per-entry growth of a position's emissions over one period, established
/// at the first revisit and verified linear afterwards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct EmissionDeltas {
    pub instants: Vec<u64>,
    pub reads: Vec<u64>,
    pub execs: Vec<(u64, u64)>,
    pub outputs: Vec<u64>,
    pub ack: Option<u64>,
}

/// Lookahead-tail snapshot: the input-independent prefix of the *next*
/// iteration, as it stood after the captured call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TailTemplate {
    pub computed: Vec<bool>,
    /// Finite accumulator ticks where `computed`, 0 elsewhere.
    pub acc: Vec<i64>,
    pub sizes: Vec<u64>,
}

/// Reference capture of one period position `s`: the complete observable
/// effect of the call at iteration `k_ref = k0 + s`.
#[derive(Debug, Clone)]
pub(crate) struct PosTemplate {
    pub k_ref: u64,
    pub offer_at: u64,
    pub offer_size: u64,
    /// Finite accumulator ticks per node of the completed iteration.
    pub acc: Vec<i64>,
    pub sizes: Vec<u64>,
    pub tail: Option<TailTemplate>,
    pub emissions: CallEmissions,
    /// Filled at the first revisit (`m == 1`).
    pub deltas: Option<EmissionDeltas>,
}

/// A confirmed periodic regime, ready for replay and reconstruction.
#[derive(Debug, Clone)]
pub(crate) struct Template {
    pub p: u64,
    pub delta_in: u64,
    pub k0: u64,
    pub refs: Vec<PosTemplate>,
    /// Per-node growth per period.
    pub d: Vec<u64>,
}

impl Template {
    /// Period position and elapsed periods of iteration `j ≥ k0`.
    pub(crate) fn locate(&self, j: u64) -> (usize, u64) {
        debug_assert!(j >= self.k0, "located iteration precedes the template");
        let off = j - self.k0;
        let (pos, m) = ((off % self.p) as usize, off / self.p);
        debug_assert_eq!(self.refs[pos].k_ref + m * self.p, j);
        (pos, m)
    }

    /// The look-ahead tail iteration `k_b` starts from: the prefix the
    /// captured call at `k_b − 1` left behind.
    pub(crate) fn lookahead(&self, k_b: u64) -> &TailTemplate {
        let (pos, _) = self.locate(k_b - 1);
        self.refs[pos]
            .tail
            .as_ref()
            .expect("engines with a look-ahead prefix capture tails")
    }
}

/// Replay directive for a promoted offer: shift position `pos` by `m`
/// periods.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplayPlan {
    pub pos: usize,
    pub m: u64,
}

/// What the engine observed during one fast-path call, handed to the
/// detector after the sweep (and before pruning).
#[derive(Debug)]
pub(crate) struct CallObservation<'a> {
    pub k: u64,
    pub at: u64,
    pub size: u64,
    /// Completed iteration `k`: accumulators (all nodes computed).
    pub acc: &'a [MaxPlus],
    pub sizes: &'a [u64],
    /// Lookahead iteration `k + 1`, when the graph has a prefix.
    pub tail: Option<TailObservation<'a>>,
    /// Diffed emissions; `Some` only while the detector is confirming.
    pub emissions: Option<CallEmissions>,
}

/// Borrowed view of the lookahead tail state.
#[derive(Debug)]
pub(crate) struct TailObservation<'a> {
    pub computed: &'a [bool],
    pub acc: &'a [MaxPlus],
    pub sizes: &'a [u64],
}

#[derive(Debug)]
enum Mode {
    Idle,
    Confirming(Box<Confirm>),
    Promoted(Box<Template>),
}

#[derive(Debug)]
struct Confirm {
    p: u64,
    delta_in: u64,
    k0: u64,
    refs: Vec<PosTemplate>,
    d: Vec<u64>,
    d_known: bool,
    /// Verified iterations past the reference period.
    verified: u64,
}

/// Outcome of feeding one observed call to the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Observed {
    /// Keep evaluating normally.
    Continue,
    /// The confirmation window closed: the engine may attempt promotion.
    ReadyToPromote,
}

/// Online periodic-regime detector and template store of one scalar
/// engine.
#[derive(Debug)]
pub(crate) struct PeriodicState {
    confirm_periods: u64,
    max_delay: u64,
    /// Distinct `k`-periods of the graph's loads (all finite, or the engine
    /// would not have built this state).
    load_periods: Vec<u64>,
    stats: FastForwardStats,
    mode: Mode,
    offers: VecDeque<(u64, u64)>,
    since_scan: u64,
}

impl PeriodicState {
    pub(crate) fn new(confirm_periods: u64, max_delay: u64, load_periods: Vec<u64>) -> Self {
        PeriodicState {
            confirm_periods: confirm_periods.max(2),
            max_delay,
            load_periods,
            stats: FastForwardStats::default(),
            mode: Mode::Idle,
            offers: VecDeque::new(),
            since_scan: 0,
        }
    }

    pub(crate) fn stats(&self) -> FastForwardStats {
        self.stats
    }

    /// Engine reset: back to idle with cleared counters.
    pub(crate) fn reset(&mut self) {
        self.stats = FastForwardStats::default();
        self.abandon();
    }

    /// Abandons any in-progress detection or confirmation (pattern break,
    /// verification failure, or a call that left the fast path). Counters
    /// are kept.
    pub(crate) fn abandon(&mut self) {
        self.mode = Mode::Idle;
        self.offers.clear();
        self.since_scan = 0;
    }

    pub(crate) fn is_promoted(&self) -> bool {
        matches!(self.mode, Mode::Promoted(_))
    }

    /// Whether the next fast-path call must be captured (emission diffs).
    pub(crate) fn wants_capture(&self) -> bool {
        matches!(self.mode, Mode::Confirming(_))
    }

    pub(crate) fn template(&self) -> Option<&Template> {
        match &self.mode {
            Mode::Promoted(t) => Some(t),
            _ => None,
        }
    }

    /// Leaves promoted mode, returning the template for ring
    /// reconstruction.
    pub(crate) fn demote(&mut self) -> Box<Template> {
        let Mode::Promoted(t) = std::mem::replace(&mut self.mode, Mode::Idle) else {
            unreachable!("demote called while not promoted")
        };
        self.stats.demotions += 1;
        self.offers.clear();
        self.since_scan = 0;
        t
    }

    pub(crate) fn note_fast_forwarded(&mut self) {
        self.stats.fast_forwarded_iterations += 1;
    }

    /// Checks a promoted-mode offer against the template. `Ok(Some(plan))`
    /// means replay; `Ok(None)` means the offer broke the pattern (demote
    /// and evaluate normally — including the case where the *expected*
    /// offer instant would overflow, which a representable actual offer can
    /// never match).
    pub(crate) fn check_offer(&self, k: u64, at: u64, size: u64) -> Option<ReplayPlan> {
        let Mode::Promoted(t) = &self.mode else {
            unreachable!("check_offer called while not promoted")
        };
        let (pos, m) = t.locate(k);
        let r = &t.refs[pos];
        match shift_ticks(r.offer_at, t.delta_in, m) {
            Ok(expected) if expected == at && size == r.offer_size => {
                Some(ReplayPlan { pos, m })
            }
            _ => None,
        }
    }

    /// Feeds one observed fast-path call while idle or confirming.
    pub(crate) fn observe_fast_call(&mut self, obs: &CallObservation<'_>) -> Observed {
        match &mut self.mode {
            Mode::Promoted(_) => Observed::Continue,
            Mode::Idle => {
                self.offers.push_back((obs.at, obs.size));
                let cap = (2 * PERIOD_MAX + 1) as usize;
                while self.offers.len() > cap {
                    self.offers.pop_front();
                }
                self.since_scan += 1;
                if self.since_scan >= SCAN_INTERVAL {
                    self.since_scan = 0;
                    if let Some((p, delta_in)) = self.scan_candidate() {
                        self.mode = Mode::Confirming(Box::new(Confirm {
                            p,
                            delta_in,
                            k0: obs.k + 1,
                            refs: Vec::with_capacity(p as usize),
                            d: Vec::new(),
                            d_known: false,
                            verified: 0,
                        }));
                        self.offers.clear();
                    }
                }
                Observed::Continue
            }
            Mode::Confirming(c) => {
                let max_delay = self.max_delay;
                let confirm_periods = self.confirm_periods;
                match Self::feed_confirm(c, obs, max_delay, confirm_periods) {
                    Some(ready) => {
                        if ready {
                            Observed::ReadyToPromote
                        } else {
                            Observed::Continue
                        }
                    }
                    None => {
                        self.abandon();
                        Observed::Continue
                    }
                }
            }
        }
    }

    /// Attempts the promotion the last [`Observed::ReadyToPromote`]
    /// announced: checks the arc soundness condition `D_src ≤ D_dst` and
    /// flips to replay mode. Returns the detected regime on success;
    /// abandons detection on failure.
    pub(crate) fn try_promote(
        &mut self,
        arcs: impl Iterator<Item = (usize, usize)>,
    ) -> Option<DetectedPeriod> {
        let Mode::Confirming(c) = &self.mode else {
            unreachable!("try_promote without a confirmation window")
        };
        debug_assert!(c.d_known && c.refs.len() == c.p as usize);
        for (src, dst) in arcs {
            if c.d[src] > c.d[dst] {
                self.abandon();
                return None;
            }
        }
        let Mode::Confirming(c) = std::mem::replace(&mut self.mode, Mode::Idle) else {
            unreachable!("checked above")
        };
        let detected = DetectedPeriod {
            growth: c.d.iter().copied().max().unwrap_or(0),
            period: c.p,
        };
        self.mode = Mode::Promoted(Box::new(Template {
            p: c.p,
            delta_in: c.delta_in,
            k0: c.k0,
            refs: c.refs,
            d: c.d,
        }));
        self.stats.promotions += 1;
        self.stats.detected = Some(detected);
        self.offers.clear();
        self.since_scan = 0;
        Some(detected)
    }

    /// Smallest period `p` such that the trailing `2p` offers repeat with a
    /// constant non-negative inter-period growth, extended to the LCM of
    /// the load periods.
    fn scan_candidate(&self) -> Option<(u64, u64)> {
        let n = self.offers.len();
        'periods: for p in 1..=PERIOD_MAX {
            let pu = p as usize;
            if n < 2 * pu + 1 {
                break;
            }
            let delta = self.offers[n - 1].0.checked_sub(self.offers[n - 1 - pu].0)?;
            for i in 0..(n - pu) {
                let (late, early) = (self.offers[i + pu], self.offers[i]);
                if late.0.checked_sub(early.0) != Some(delta) || late.1 != early.1 {
                    continue 'periods;
                }
            }
            return self.extend_by_loads(p, delta);
        }
        None
    }

    /// Extends a candidate offer period to the LCM of the graph's load
    /// periods (a state period is only sound when every load's `k`-period
    /// divides it).
    fn extend_by_loads(&self, p: u64, delta: u64) -> Option<(u64, u64)> {
        let mut eff = p;
        for &q in &self.load_periods {
            eff = lcm(eff, q)?;
            if eff > MAX_EFFECTIVE_PERIOD {
                return None;
            }
        }
        let factor = eff / p;
        Some((eff, delta.checked_mul(factor)?))
    }

    /// Advances the confirmation window by one observed call. Returns
    /// `None` to abandon, `Some(ready)` otherwise.
    fn feed_confirm(
        c: &mut Confirm,
        obs: &CallObservation<'_>,
        max_delay: u64,
        confirm_periods: u64,
    ) -> Option<bool> {
        debug_assert_eq!(
            obs.k,
            c.k0 + c.refs.len() as u64 + c.verified,
            "confirmation observes strictly sequential iterations"
        );
        let emissions = obs.emissions.as_ref()?;
        if (c.refs.len() as u64) < c.p {
            // Reference period: capture position `s = refs.len()`.
            let mut acc = Vec::with_capacity(obs.acc.len());
            for v in obs.acc {
                acc.push(v.finite()?);
            }
            let tail = match &obs.tail {
                None => None,
                Some(t) => {
                    let mut tacc = vec![0i64; t.acc.len()];
                    for (i, v) in t.acc.iter().enumerate() {
                        if t.computed[i] {
                            tacc[i] = v.finite()?;
                        }
                    }
                    Some(TailTemplate {
                        computed: t.computed.to_vec(),
                        acc: tacc,
                        sizes: t.sizes.to_vec(),
                    })
                }
            };
            c.refs.push(PosTemplate {
                k_ref: obs.k,
                offer_at: obs.at,
                offer_size: obs.size,
                acc,
                sizes: obs.sizes.to_vec(),
                tail,
                emissions: emissions.clone(),
                deltas: None,
            });
            return Some(false);
        }

        // Verification: position s, elapsed periods m ≥ 1.
        let off = obs.k - c.k0;
        let (s, m) = ((off % c.p) as usize, off / c.p);
        let establish = m == 1;
        {
            // Offer pattern.
            let r = &c.refs[s];
            if shift_ticks(r.offer_at, c.delta_in, m).ok()? != obs.at
                || r.offer_size != obs.size
            {
                return None;
            }
            if r.sizes != obs.sizes {
                return None;
            }
        }
        // Per-node state deltas (established at the first revisit of
        // position 0, verified linear everywhere else).
        if !c.d_known {
            debug_assert!(establish && s == 0);
            let r = &c.refs[0];
            let mut d = Vec::with_capacity(obs.acc.len());
            for (j, v) in obs.acc.iter().enumerate() {
                let v = v.finite()?;
                d.push(u64::try_from(v.checked_sub(r.acc[j])?).ok()?);
            }
            c.d = d;
            c.d_known = true;
        } else {
            let r = &c.refs[s];
            for (j, v) in obs.acc.iter().enumerate() {
                if v.finite()? != shift_acc(r.acc[j], c.d[j], m).ok()? {
                    return None;
                }
            }
        }
        // Tail state.
        {
            let r = &c.refs[s];
            match (&r.tail, &obs.tail) {
                (None, None) => {}
                (Some(rt), Some(ot)) => {
                    if rt.computed != ot.computed || rt.sizes != ot.sizes {
                        return None;
                    }
                    for (j, &done) in rt.computed.iter().enumerate() {
                        if done
                            && ot.acc[j].finite()? != shift_acc(rt.acc[j], c.d[j], m).ok()?
                        {
                            return None;
                        }
                    }
                }
                _ => return None,
            }
        }
        // Emissions: structural repeat plus linear per-entry growth.
        let r = &mut c.refs[s];
        if establish {
            r.deltas = Some(Self::establish_deltas(&r.emissions, emissions)?);
        } else {
            let deltas = r.deltas.as_ref()?;
            if !Self::verify_emissions(&r.emissions, deltas, emissions, m) {
                return None;
            }
        }
        c.verified += 1;
        Some(s as u64 + 1 == c.p && m >= confirm_periods && c.verified > max_delay)
    }

    /// First revisit of a position: check structural identity and derive
    /// per-entry growth.
    fn establish_deltas(base: &CallEmissions, now: &CallEmissions) -> Option<EmissionDeltas> {
        if base.nodes != now.nodes || base.arcs != now.arcs || base.iters != now.iters {
            return None;
        }
        if base.instants.len() != now.instants.len()
            || base.reads.len() != now.reads.len()
            || base.execs.len() != now.execs.len()
            || base.outputs.len() != now.outputs.len()
            || base.ack.is_some() != now.ack.is_some()
        {
            return None;
        }
        let pair_delta = |b: &(u32, u64), n: &(u32, u64)| -> Option<u64> {
            (b.0 == n.0).then(|| n.1.checked_sub(b.1))?
        };
        let instants = base
            .instants
            .iter()
            .zip(&now.instants)
            .map(|(b, n)| pair_delta(b, n))
            .collect::<Option<Vec<_>>>()?;
        let reads = base
            .reads
            .iter()
            .zip(&now.reads)
            .map(|(b, n)| pair_delta(b, n))
            .collect::<Option<Vec<_>>>()?;
        let execs = base
            .execs
            .iter()
            .zip(&now.execs)
            .map(|(b, n)| {
                (b.k_off == n.k_off
                    && b.resource == n.resource
                    && b.function == n.function
                    && b.stmt == n.stmt
                    && b.ops == n.ops)
                    .then(|| {
                        Some((n.start.checked_sub(b.start)?, n.end.checked_sub(b.end)?))
                    })
                    .flatten()
            })
            .collect::<Option<Vec<_>>>()?;
        let outputs = base
            .outputs
            .iter()
            .zip(&now.outputs)
            .map(|(b, n)| {
                (b.output == n.output && b.k_off == n.k_off && b.size == n.size)
                    .then(|| n.at.checked_sub(b.at))
                    .flatten()
            })
            .collect::<Option<Vec<_>>>()?;
        let ack = match (base.ack, now.ack) {
            (None, None) => None,
            (Some((bk, bt)), Some((nk, nt))) => {
                if bk != nk {
                    return None;
                }
                Some(nt.checked_sub(bt)?)
            }
            _ => return None,
        };
        Some(EmissionDeltas {
            instants,
            reads,
            execs,
            outputs,
            ack,
        })
    }

    /// Later revisits: every entry must sit exactly on its line
    /// `base + m × delta`.
    fn verify_emissions(
        base: &CallEmissions,
        deltas: &EmissionDeltas,
        now: &CallEmissions,
        m: u64,
    ) -> bool {
        if base.nodes != now.nodes || base.arcs != now.arcs || base.iters != now.iters {
            return false;
        }
        let on_line = |b: u64, d: u64, n: u64| shift_ticks(b, d, m).ok() == Some(n);
        base.instants.len() == now.instants.len()
            && base
                .instants
                .iter()
                .zip(&deltas.instants)
                .zip(&now.instants)
                .all(|((b, &d), n)| b.0 == n.0 && on_line(b.1, d, n.1))
            && base.reads.len() == now.reads.len()
            && base
                .reads
                .iter()
                .zip(&deltas.reads)
                .zip(&now.reads)
                .all(|((b, &d), n)| b.0 == n.0 && on_line(b.1, d, n.1))
            && base.execs.len() == now.execs.len()
            && base
                .execs
                .iter()
                .zip(&deltas.execs)
                .zip(&now.execs)
                .all(|((b, &(ds, de)), n)| {
                    b.k_off == n.k_off
                        && b.resource == n.resource
                        && b.function == n.function
                        && b.stmt == n.stmt
                        && b.ops == n.ops
                        && on_line(b.start, ds, n.start)
                        && on_line(b.end, de, n.end)
                })
            && base.outputs.len() == now.outputs.len()
            && base
                .outputs
                .iter()
                .zip(&deltas.outputs)
                .zip(&now.outputs)
                .all(|((b, &d), n)| {
                    b.output == n.output && b.k_off == n.k_off && b.size == n.size
                        && on_line(b.at, d, n.at)
                })
            && match (base.ack, deltas.ack, now.ack) {
                (None, None, None) => true,
                (Some((bk, bt)), Some(d), Some((nk, nt))) => bk == nk && on_line(bt, d, nt),
                _ => false,
            }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

fn lcm(a: u64, b: u64) -> Option<u64> {
    (a / gcd(a, b)).checked_mul(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extrapolate_checked() {
        let t = Time::from_ticks(100);
        assert_eq!(
            extrapolate(t, Duration::from_ticks(7), 3),
            Ok(Time::from_ticks(121))
        );
        let near = Time::from_ticks(u64::MAX - 10);
        let err = extrapolate(near, Duration::from_ticks(7), 3).unwrap_err();
        assert!(matches!(err, EngineError::TimeOverflow { periods: 3, .. }));
        // Multiplication overflow is also caught.
        assert!(extrapolate(Time::ZERO, Duration::from_ticks(u64::MAX), 2).is_err());
    }

    #[test]
    fn shift_acc_checked() {
        assert_eq!(shift_acc(5, 10, 3), Ok(35));
        assert!(shift_acc(i64::MAX - 1, 1, 2).is_err());
    }

    #[test]
    fn lcm_extension() {
        let st = PeriodicState::new(DEFAULT_CONFIRM_PERIODS, 1, vec![1, 3]);
        assert_eq!(st.extend_by_loads(2, 10), Some((6, 30)));
        let huge = PeriodicState::new(DEFAULT_CONFIRM_PERIODS, 1, vec![257]);
        assert_eq!(huge.extend_by_loads(2, 10), None, "capped effective period");
    }

    #[test]
    fn scan_finds_smallest_period() {
        let mut st = PeriodicState::new(DEFAULT_CONFIRM_PERIODS, 1, vec![1]);
        for i in 0..9u64 {
            st.offers.push_back((i * 50, 4));
        }
        assert_eq!(st.scan_candidate(), Some((1, 50)));
        // Alternating sizes force period 2.
        st.offers.clear();
        for i in 0..9u64 {
            st.offers.push_back((i * 50, i % 2));
        }
        assert_eq!(st.scan_candidate(), Some((2, 100)));
    }

    #[test]
    fn scan_sees_through_periodic_jitter() {
        // i % 3 jitter is itself 3-periodic: the scan must skip the broken
        // period-1 hypothesis and land on the true period.
        let mut st = PeriodicState::new(DEFAULT_CONFIRM_PERIODS, 1, vec![1]);
        for i in 0..9u64 {
            st.offers.push_back((i * 50 + (i % 3), 4));
        }
        assert_eq!(st.scan_candidate(), Some((3, 150)));
    }

    #[test]
    fn scan_rejects_aperiodic_offers() {
        let mut st = PeriodicState::new(DEFAULT_CONFIRM_PERIODS, 1, vec![1]);
        for i in 0..20u64 {
            st.offers.push_back((i * 50 + i * i, 4));
        }
        assert_eq!(st.scan_candidate(), None);
    }

    #[test]
    fn default_config_is_sane() {
        const { assert!(DEFAULT_CONFIRM_PERIODS >= 2) };
        const { assert!(PERIOD_MAX >= 1 && PERIOD_MAX <= MAX_EFFECTIVE_PERIOD) };
    }
}
