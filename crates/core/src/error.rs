//! Errors of the dynamic computation method.

use evolve_model::{FunctionId, RelationId};

/// Failure to derive a temporal dependency graph from an architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeriveError {
    /// A function both writes and reads the same rendezvous relation — a
    /// guaranteed self-deadlock under the rendezvous protocol.
    SelfRendezvous {
        /// The offending function.
        function: FunctionId,
        /// The self-connected relation.
        relation: RelationId,
    },
    /// The derived graph has a zero-delay dependency cycle: the
    /// architecture's same-iteration synchronizations are not causal (e.g. a
    /// rendezvous cycle), so evolution instants cannot be computed.
    CausalityCycle {
        /// Name of one node on the cycle.
        node: String,
    },
    /// An execution duration reads its own iteration's token size on an
    /// arc that is resolved before that iteration's offer: a delayed arc,
    /// or a zero-delay arc whose source has no zero-delay path from an
    /// input or output acknowledgment. The worklist would read the size
    /// before the offer writes it and the compiled sweep after, so the two
    /// evaluators would compute different instants.
    EarlySizeRead {
        /// Name of the arc's destination node.
        node: String,
    },
}

impl core::fmt::Display for DeriveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeriveError::SelfRendezvous { function, relation } => write!(
                f,
                "function {function} writes and reads rendezvous relation {relation}: self-deadlock"
            ),
            DeriveError::CausalityCycle { node } => {
                write!(f, "zero-delay dependency cycle through node {node}")
            }
            DeriveError::EarlySizeRead { node } => write!(
                f,
                "an arc into node {node} reads its iteration's token size before the offer"
            ),
        }
    }
}

impl std::error::Error for DeriveError {}

/// Runtime failure inside an [`Engine`](crate::Engine).
///
/// The engine's normal evaluation is total: instants are exact `u64` ticks
/// and every computable value is computed. The only runtime failure mode is
/// arithmetic leaving the representable tick range, which the fast-forward
/// extrapolation path (`template + periods × growth`) can reach long before
/// any simulated event would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// An extrapolated instant exceeded `u64` ticks. Carries the base
    /// instant and the periodic growth whose scaled sum overflowed.
    TimeOverflow {
        /// The template instant the extrapolation started from.
        base: evolve_des::Time,
        /// Growth per detected period, in ticks.
        growth: evolve_des::Duration,
        /// Number of periods the extrapolation spanned.
        periods: u64,
    },
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::TimeOverflow {
                base,
                growth,
                periods,
            } => write!(
                f,
                "fast-forward extrapolation overflowed u64 ticks: {base} + {periods} x {growth}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Failure constructing or running an equivalent model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EquivalentError {
    /// Derivation failed.
    Derive(DeriveError),
    /// The underlying model layer rejected the elaboration.
    Model(evolve_model::ModelError),
    /// Partitioning for partial abstraction failed.
    Partition(crate::partial::PartitionError),
}

impl core::fmt::Display for EquivalentError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EquivalentError::Derive(e) => write!(f, "derivation failed: {e}"),
            EquivalentError::Model(e) => write!(f, "model error: {e}"),
            EquivalentError::Partition(e) => write!(f, "partition error: {e}"),
        }
    }
}

impl std::error::Error for EquivalentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EquivalentError::Derive(e) => Some(e),
            EquivalentError::Model(e) => Some(e),
            EquivalentError::Partition(e) => Some(e),
        }
    }
}

impl From<DeriveError> for EquivalentError {
    fn from(e: DeriveError) -> Self {
        EquivalentError::Derive(e)
    }
}

impl From<evolve_model::ModelError> for EquivalentError {
    fn from(e: evolve_model::ModelError) -> Self {
        EquivalentError::Model(e)
    }
}

impl From<crate::partial::PartitionError> for EquivalentError {
    fn from(e: crate::partial::PartitionError) -> Self {
        EquivalentError::Partition(e)
    }
}
