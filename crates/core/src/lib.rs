//! The dynamic computation method — the primary contribution of *"A Dynamic
//! Computation Method for Fast and Accurate Performance Evaluation of
//! Multi-Core Architectures"* (Le Nours, Postula, Bergmann — DATE 2014).
//!
//! The paper's idea: in an event-driven performance model, every exchange
//! between application functions costs simulation events and kernel context
//! switches. For statically scheduled, non-preemptive architectures, the
//! time dependencies among those *evolution instants* can be written in
//! (max,+) algebra and encoded as a **temporal dependency graph** (TDG).
//! An **equivalent model** then replaces the architecture processes: each
//! time an input arrives it runs `ComputeInstant()` — a zero-time graph
//! traversal — obtaining every intermediate and output instant, and only
//! the boundary exchanges remain as simulation events. Intermediate
//! instants are replayed over a local *observation time*, so resource-usage
//! accuracy is fully preserved.
//!
//! # Modules
//!
//! * [`Tdg`] / [`TdgBuilder`] — the graph (paper Fig. 3).
//! * [`derive_tdg`] — automatic derivation from an
//!   [`Architecture`](evolve_model::Architecture) (the paper's announced
//!   generation tool).
//! * [`simplify`] — node-count reduction passes (chain contraction, dead
//!   node elimination); the node count is the x-axis of the paper's Fig. 5.
//! * [`Engine`] — incremental `ComputeInstant()` evaluation with
//!   observation replay, with a choice of [`EvalBackend`]: the compiled
//!   levelized-CSR sweep ([`CompiledTdg`]) or the reference worklist.
//! * [`BatchedEngine`] — lockstep evaluation of many scenario lanes over
//!   one compiled graph, amortizing schedule and arc fetches across a
//!   sweep batch.
//! * [`equivalent`] — the equivalent model on the DES kernel: `Reception`
//!   and `Emission` processes around the engine (paper Fig. 4).
//! * [`validate`] — instant-for-instant comparison of conventional vs.
//!   equivalent models (the paper's accuracy claim, made executable).
//! * [`synthetic`] — padded graphs and pipelines for the Fig. 5 sweep.
//! * [`analysis`] — (max,+) throughput analysis of derived graphs.
//!
//! # Quickstart
//!
//! ```
//! use evolve_core::{equivalent_simulation, derive_tdg};
//! use evolve_des::Duration;
//! use evolve_model::{didactic, Environment, Stimulus};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let d = didactic::chained(1, didactic::Params::default())?;
//! let env = Environment::new().stimulus(
//!     d.input(),
//!     Stimulus::periodic(100, Duration::from_ticks(5_000), |k| 32 + k % 64),
//! );
//! let report = equivalent_simulation(&d.arch, &env)?.run();
//! assert_eq!(report.instants(d.output()).len(), 100);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the lane-chunked fold kernel opts back in
// (`kernel.rs` carries `#![allow(unsafe_code)]` + `#![deny(unsafe_op_in_unsafe_fn)]`)
// for its runtime-dispatched AVX2 path and the `repr(transparent)` slice
// casts it rests on. It is the only module that does; every other module
// stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod analysis;
mod batch;
mod compile;
mod derive;
mod engine;
pub mod equivalent;
mod error;
pub mod kernel;
pub mod partial;
pub mod periodic;
pub mod simplify;
pub mod synthetic;
mod tdg;
pub mod validate;

/// The telemetry layer engines report through (see `docs/OBSERVABILITY.md`).
pub use evolve_obs as obs;

pub use batch::{BatchUnsupported, BatchedEngine, KernelDispatchStats};
pub use compile::{CompiledTdg, EvalBackend, SlotShape};
pub use derive::{derive_tdg, derive_tdg_with, DeriveOptions, DerivedTdg, SizeRule, SizeRules};
pub use engine::{AllocationFootprint, Engine, Notification, PartitionStats};
pub use equivalent::{equivalent_simulation, EquivalentModelBuilder, EquivalentSimulation};
pub use error::{DeriveError, EngineError, EquivalentError};
pub use partial::{hybrid_simulation, partition, HybridReport, HybridSimulation, Partition, PartitionError};
pub use periodic::{
    predict_periodic_regime, DetectedPeriod, FastForward, FastForwardStats, OraclePrediction,
    DEFAULT_CONFIRM_PERIODS,
};
pub use tdg::{Arc, ExecTerm, Node, NodeId, NodeKind, Tdg, TdgBuilder, Weight};
