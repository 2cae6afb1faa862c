//! Observation-time telemetry for the evolve engines.
//!
//! The paper's equivalent model promises *zero observability loss*: every
//! intermediate instant a conventional simulation would produce can be
//! replayed on the local observation-time axis (PAPER.md §1, Figs. 7–8).
//! Every drive already returns that replay as its execution records,
//! next to its engine and fast-forward counters, so this crate computes
//! telemetry by folding finished drives:
//!
//! - [`TelemetrySink`] — one fold per drive of its records (in production
//!   order: frontier-merged busy intervals, ops, log-bucketed duration
//!   histograms, [`LogHistogram`]), its counters, its detected
//!   fast-forward regime and its boundary exchanges, which feed the
//!   event-ratio gauge of the paper's Table I;
//! - exporters — Prometheus text exposition ([`prometheus`]), JSON
//!   ([`MetricsSnapshot::to_json`] over the in-tree [`json::Json`]
//!   emitter), and Chrome trace-event JSON for Perfetto
//!   ([`TraceCollector`], whose observation-time tracks are built from a
//!   drive's records).
//!
//! Dependency-wise the crate sits between `evolve-model` (record types)
//! and `evolve-core`/`evolve-explore` (whose drives it folds), so every
//! layer of the stack reports through one telemetry surface.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod trace;

pub use export::prometheus;
pub use flight::{FlightRecorder, FlightSpan, Phase, TrackId};
pub use json::Json;
pub use metrics::{
    BatchCounters, EngineCounters, FfCounters, LogHistogram, MetricsSnapshot, PhaseSnapshot,
    ResourceMetrics, ResourceSnapshot, ServeCounters, ServeGauges, TelemetrySink,
};
pub use trace::TraceCollector;
