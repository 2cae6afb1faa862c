//! Evaluation-as-a-service for the evolve engine stack.
//!
//! The paper's dynamic computation method makes one evaluation cheap;
//! this crate makes *many concurrent* evaluations cheap. `evolved` is a
//! long-running daemon speaking a length-prefixed binary protocol
//! ([`protocol`]) over TCP and unix sockets, built entirely on
//! std-library networking (the workspace is offline — no async
//! runtime):
//!
//! - **thread-per-core shards** ([`Server`]): connections are assigned
//!   round-robin to shard workers, each owning its engine caches
//!   (`evolve_explore::cache`) outright — no locks on the evaluation
//!   path;
//! - **ModelSpec-affinity continuous batching**: a shard groups pending
//!   requests by exact model spec and dispatches a group the moment it
//!   fills the SIMD chunk width — or at the
//!   [`max_batch_delay`](ServeConfig::max_batch_delay) deadline when
//!   underfull, or at once when the spec's recent arrival rate predicts
//!   no lane-mate within that deadline — through the same
//!   `drive_prepared_batch` path the sweep uses, so daemon and sweep
//!   share one batching implementation;
//! - **admission control**: beyond
//!   [`max_queue_depth`](ServeConfig::max_queue_depth) pending requests
//!   a shard sheds load with a typed BUSY response instead of queueing
//!   without bound;
//! - **live telemetry**: each shard folds every lane it answers into
//!   its [`TelemetrySink`](evolve_obs::TelemetrySink), and a dedicated
//!   `/metrics` listener merges the shards' published snapshots into one
//!   Prometheus text exposition.
//!
//! Responses are bitwise identical to a fresh scalar
//! [`Engine`](evolve_core::Engine) evaluation regardless of which path
//! (batched or scalar) served them — the
//! conformance suite pins this down. `docs/SERVING.md` documents the
//! wire protocol and tuning knobs.

#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
pub mod net;
pub mod protocol;
pub mod server;
mod shard;
pub mod signal;

pub use client::{ClientError, ServeClient};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, EvalRequest, EvalResponse,
    FrameError, FrameReader, ModelRef, Request, Response, TracePayload, WireError,
};
pub use server::{default_models, Bind, ServeConfig, Server};
