//! Structured engine lifecycle events.
//!
//! The engines emit these through an attached [`Observer`](crate::Observer)
//! at their boundary calls only — one event per input offer, never one per
//! graph node — so an attached observer costs O(boundary events) and a
//! detached engine costs a single branch per call.

/// Which evaluation machinery emitted an event stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// The reference worklist propagation.
    Worklist,
    /// The compiled levelized-CSR sweep.
    Compiled,
    /// The lockstep multi-lane batched sweep.
    Batched,
}

impl BackendKind {
    /// Stable lowercase label (Prometheus/JSON value).
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Worklist => "worklist",
            BackendKind::Compiled => "compiled",
            BackendKind::Batched => "batched",
        }
    }
}

/// Why the batching layer sent a scenario lane down the scalar path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EjectReason {
    /// The lane's model runs on the worklist backend.
    Worklist,
    /// The lane's trace offers no tokens.
    EmptyTrace,
    /// The lane was a leftover single lane of its model group.
    SingleLane,
    /// The batched engine rejected the graph shape.
    Unsupported,
}

impl EjectReason {
    /// Stable lowercase label (Prometheus/JSON value).
    pub fn as_str(self) -> &'static str {
        match self {
            EjectReason::Worklist => "worklist",
            EjectReason::EmptyTrace => "empty_trace",
            EjectReason::SingleLane => "single_lane",
            EjectReason::Unsupported => "unsupported",
        }
    }
}

/// One engine lifecycle event.
///
/// Fields are plain integers so the event layer stays below the engine
/// crates in the dependency order; `lane` is `0` for scalar engines and
/// the lane index for batched ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineEvent {
    /// An observer was attached to an engine (backend selection record).
    Attached {
        /// The engine's evaluation backend.
        backend: BackendKind,
        /// Node count of the derived graph.
        nodes: u64,
    },
    /// One scalar input offer was evaluated (an iteration sweep, or an
    /// O(1) template replay while promoted).
    Offer {
        /// The offer's iteration index.
        k: u64,
        /// Lane index (`0` on scalar engines).
        lane: u32,
        /// `true` when the offer was answered by fast-forward replay.
        replayed: bool,
    },
    /// One lockstep batched call was swept across all offering lanes
    /// (batches never fast-forward).
    BatchSweep {
        /// The lockstep iteration index.
        k: u64,
        /// Number of lanes that offered in this call.
        lanes_offering: u32,
    },
    /// An output acknowledgment was fed back into the engine.
    OutputAck {
        /// The acknowledged iteration.
        k: u64,
    },
    /// The fast-forward detector promoted to O(1) template replay.
    FfPromoted {
        /// Iteration at which the promotion took effect.
        k: u64,
        /// Lane index (`0` on scalar engines).
        lane: u32,
        /// Detected per-period time growth in ticks.
        growth: u64,
        /// Detected period length in iterations.
        period: u64,
    },
    /// A pattern break demoted the engine back to the full sweep.
    FfDemoted {
        /// Iteration at which the demotion happened.
        k: u64,
        /// Lane index (`0` on scalar engines).
        lane: u32,
    },
    /// The batching layer ejected a scenario lane to the scalar path.
    LaneEjected {
        /// Scenario index of the ejected lane.
        lane: u32,
        /// Why the lane was turned away.
        reason: EjectReason,
    },
    /// A fast-forward extrapolation overflowed `u64` ticks; the offer was
    /// rejected with a typed error and the engine state is unchanged.
    Overflow {
        /// The offending iteration.
        k: u64,
    },
    /// The engine was rewound for a fresh trace ([`reset`]: scenario
    /// boundary under engine reuse).
    ///
    /// [`reset`]: EngineEvent::Reset
    Reset,
}
