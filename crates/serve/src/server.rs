//! The `evolved` daemon: sharded accept loops, admission control, and
//! the live `/metrics` listener.
//!
//! Connections are assigned round-robin to shard workers
//! (the `shard` module); each connection's requests all land on its shard,
//! so a client hammering one model keeps feeding the same affinity
//! group. Admission is a per-shard depth gauge: beyond
//! [`ServeConfig::max_queue_depth`] pending requests the daemon sheds
//! load with a [`Response::Busy`] instead of queueing without bound.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use evolve_core::{kernel, EvalBackend, FastForward, DEFAULT_CONFIRM_PERIODS};
use evolve_explore::cache::EngineOptions;
use evolve_explore::{ModelKind, ModelSpec};
use evolve_obs::{prometheus, FlightRecorder, MetricsSnapshot, ServeGauges};

use crate::net::Conn;
use crate::protocol::{
    decode_request, encode_response, write_frame, FrameReader, ModelRef, Request, Response,
    TracePayload, DEFAULT_MAX_FRAME,
};
use crate::shard::{spawn_shard, Job, ShardHandle};

/// Tuning knobs of the daemon.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Shard worker threads (thread-per-core: one engine-cache-owning
    /// evaluation loop each).
    pub shards: usize,
    /// Lanes an affinity group accumulates before dispatching; defaults
    /// to the SIMD chunk width so full batches hit the chunked kernels.
    pub batch_width: usize,
    /// Longest a pending request waits for lane-mates: an underfull
    /// group launches at this deadline (continuous batching). A request
    /// waits at all only when its spec's recent arrivals at the shard
    /// predict a lane-mate within this window.
    pub max_batch_delay: Duration,
    /// Pending-request cap per shard; beyond it requests are shed with
    /// BUSY.
    pub max_queue_depth: usize,
    /// Per-frame payload cap, enforced before any allocation.
    pub max_frame_len: usize,
    /// Concurrent-connection cap across all listeners; a connection past
    /// it gets one typed error frame and is closed.
    pub max_connections: usize,
    /// Response write timeout (`SO_SNDTIMEO`): a client that stops
    /// reading is disconnected instead of blocking a shard on its full
    /// send buffer. `Duration::ZERO` disables the timeout.
    pub write_timeout: Duration,
    /// Cap on the arrivals a generated trace may materialise, enforced
    /// at admission before any allocation. Matches the ~512 Ki offers an
    /// explicit trace can carry in a default-cap frame.
    pub max_trace_tokens: u64,
    /// Cap on wire-supplied model stages (a model must also have at
    /// least one stage).
    pub max_model_stages: usize,
    /// Cap on wire-supplied padding nodes.
    pub max_model_padding: usize,
    /// Record full observation streams (slower; only needed when
    /// replaying per-resource timelines).
    pub record_observations: bool,
    /// Fast-forward promotion of periodic steady states, for requests
    /// evaluated on a scalar engine; lanes of an affinity batch never
    /// fast-forward and answer with zeroed fast-forward counters.
    pub fast_forward: FastForward,
    /// Fast-forward confirmation window (periods).
    pub ff_confirm_periods: u64,
    /// Baseline mode: a fresh engine per request, immediate dispatch, no
    /// caches — the strategy the affinity-batched path is measured
    /// against.
    pub naive: bool,
    /// Always-on request-lifecycle flight recorder (per-shard span rings
    /// + per-phase latency histograms). Disable to measure its cost.
    pub flight_recorder: bool,
    /// Spans each flight-recorder track retains before wrap-around
    /// eviction (rounded up to a power of two).
    pub flight_spans: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            batch_width: kernel::CHUNK,
            max_batch_delay: Duration::from_millis(2),
            max_queue_depth: 1024,
            max_frame_len: DEFAULT_MAX_FRAME,
            max_connections: 1024,
            write_timeout: Duration::from_secs(5),
            max_trace_tokens: 1 << 19,
            max_model_stages: 4096,
            max_model_padding: 1 << 16,
            record_observations: false,
            fast_forward: FastForward::On,
            ff_confirm_periods: DEFAULT_CONFIRM_PERIODS,
            naive: false,
            flight_recorder: true,
            flight_spans: 1024,
        }
    }
}

impl ServeConfig {
    pub(crate) fn engine_options(&self) -> EngineOptions {
        // The naive baseline shares every engine option: the measured
        // gap isolates serving strategy, not engine features.
        EngineOptions {
            record_observations: self.record_observations,
            fast_forward: self.fast_forward,
            ff_confirm_periods: self.ff_confirm_periods,
            partition: None,
        }
    }
}

/// Where the daemon listens for the binary protocol.
#[derive(Clone, Debug)]
pub enum Bind {
    /// TCP address, e.g. `127.0.0.1:0` for an ephemeral port.
    Tcp(String),
    /// Unix domain socket path (unlinked and re-bound on start).
    Unix(PathBuf),
}

/// The models `--preload default` registers, addressable by name over
/// the wire.
pub fn default_models() -> Vec<(String, ModelSpec)> {
    vec![
        (
            "didactic".to_string(),
            ModelSpec {
                kind: ModelKind::Didactic { stages: 2 },
                padding: 0,
                backend: EvalBackend::Compiled,
            },
        ),
        (
            "pipeline".to_string(),
            ModelSpec {
                kind: ModelKind::Pipeline {
                    stages: 4,
                    base: 100,
                    per_unit: 3,
                },
                padding: 0,
                backend: EvalBackend::Compiled,
            },
        ),
        (
            "pipeline-padded".to_string(),
            ModelSpec {
                kind: ModelKind::Pipeline {
                    stages: 8,
                    base: 60,
                    per_unit: 1,
                },
                padding: 64,
                backend: EvalBackend::Compiled,
            },
        ),
    ]
}

#[derive(Default)]
struct GlobalCounters {
    connections: AtomicU64,
    rejected: AtomicU64,
    /// Currently-open protocol connections (the live gauge; `connections`
    /// above is cumulative).
    live: AtomicU64,
}

struct ShardPort {
    sender: std::sync::mpsc::Sender<Job>,
    depth: Arc<AtomicUsize>,
}

struct ServerCtx {
    cfg: Arc<ServeConfig>,
    shutdown: Arc<AtomicBool>,
    ports: Vec<ShardPort>,
    next_shard: AtomicUsize,
    registry: Mutex<HashMap<String, ModelSpec>>,
    counters: GlobalCounters,
    reader_joins: Mutex<Vec<JoinHandle<()>>>,
    /// The request-lifecycle flight recorder; `None` when disabled.
    flight: Option<Arc<FlightRecorder>>,
    /// Correlation-id source: assigned once per admitted request.
    next_corr: AtomicU64,
    /// Daemon start, for the uptime gauge.
    started: Instant,
}

/// A running daemon; dropping it without
/// [`shutdown_and_join`](Server::shutdown_and_join) leaks its threads.
pub struct Server {
    ctx: Arc<ServerCtx>,
    shutdown: Arc<AtomicBool>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    metrics_addr: Option<SocketAddr>,
    accept_joins: Vec<JoinHandle<()>>,
    metrics_join: Option<JoinHandle<()>>,
    shards: Vec<ShardHandle>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("tcp_addr", &self.tcp_addr)
            .field("unix_path", &self.unix_path)
            .field("metrics_addr", &self.metrics_addr)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl Server {
    /// Starts the daemon: binds every listener, spawns the shard
    /// workers, accept loops, and (when `metrics_bind` is set) the
    /// `/metrics` listener.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(
        config: ServeConfig,
        binds: &[Bind],
        metrics_bind: Option<&str>,
    ) -> std::io::Result<Server> {
        let cfg = Arc::new(config);
        let shutdown = Arc::new(AtomicBool::new(false));
        let shard_count = cfg.shards.max(1);
        // One track per shard loop; the table is sized exactly, so
        // registration can never overflow into the no-op handle.
        let flight = cfg
            .flight_recorder
            .then(|| Arc::new(FlightRecorder::new(shard_count, cfg.flight_spans)));
        let shards: Vec<ShardHandle> = (0..shard_count)
            .map(|i| spawn_shard(i, Arc::clone(&cfg), flight.clone()))
            .collect();
        let ports = shards
            .iter()
            .map(|s| ShardPort {
                sender: s.sender.clone(),
                depth: Arc::clone(&s.depth),
            })
            .collect();
        let ctx = Arc::new(ServerCtx {
            cfg: Arc::clone(&cfg),
            shutdown: Arc::clone(&shutdown),
            ports,
            next_shard: AtomicUsize::new(0),
            registry: Mutex::new(HashMap::new()),
            counters: GlobalCounters::default(),
            reader_joins: Mutex::new(Vec::new()),
            flight,
            next_corr: AtomicU64::new(1),
            started: Instant::now(),
        });

        let mut accept_joins = Vec::new();
        let mut tcp_addr = None;
        let mut unix_path = None;
        for bind in binds {
            match bind {
                Bind::Tcp(addr) => {
                    let listener = TcpListener::bind(addr.as_str())?;
                    tcp_addr = Some(listener.local_addr()?);
                    listener.set_nonblocking(true)?;
                    let ctx = Arc::clone(&ctx);
                    accept_joins.push(
                        std::thread::Builder::new()
                            .name("evolve-accept-tcp".into())
                            .spawn(move || accept_tcp(listener, ctx))
                            .expect("spawn accept loop"),
                    );
                }
                Bind::Unix(path) => {
                    let _ = std::fs::remove_file(path);
                    let listener = UnixListener::bind(path)?;
                    unix_path = Some(path.clone());
                    listener.set_nonblocking(true)?;
                    let ctx = Arc::clone(&ctx);
                    accept_joins.push(
                        std::thread::Builder::new()
                            .name("evolve-accept-unix".into())
                            .spawn(move || accept_unix(listener, ctx))
                            .expect("spawn accept loop"),
                    );
                }
            }
        }

        let mut metrics_addr = None;
        let mut metrics_join = None;
        if let Some(addr) = metrics_bind {
            let listener = TcpListener::bind(addr)?;
            metrics_addr = Some(listener.local_addr()?);
            listener.set_nonblocking(true)?;
            let slots: Vec<_> = shards.iter().map(|s| Arc::clone(&s.published)).collect();
            let ctx = Arc::clone(&ctx);
            metrics_join = Some(
                std::thread::Builder::new()
                    .name("evolve-metrics".into())
                    .spawn(move || metrics_loop(listener, slots, ctx))
                    .expect("spawn metrics listener"),
            );
        }

        Ok(Server {
            ctx,
            shutdown,
            tcp_addr,
            unix_path,
            metrics_addr,
            accept_joins,
            metrics_join,
            shards,
        })
    }

    /// The bound TCP address, when a [`Bind::Tcp`] was requested.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound unix socket path, when a [`Bind::Unix`] was requested.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// The `/metrics` listener address, when one was requested.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Registers a named model server-side (what `--preload` does).
    pub fn load_model(&self, name: &str, spec: ModelSpec) {
        self.ctx
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), spec);
    }

    /// Requests shed with BUSY so far.
    pub fn rejected(&self) -> u64 {
        self.ctx.counters.rejected.load(Ordering::SeqCst)
    }

    /// Renders the flight recorder as Chrome trace JSON (what a
    /// [`Request::Dump`] or SIGUSR1 produces); `None` when the daemon
    /// runs with the recorder disabled.
    pub fn dump_trace(&self) -> Option<String> {
        self.ctx.flight.as_ref().map(|r| r.render_chrome_trace())
    }

    /// Graceful shutdown: stops accepting, lets reader threads drain
    /// buffered frames, evaluates and answers every admitted request,
    /// then joins all threads.
    pub fn shutdown_and_join(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for j in self.accept_joins {
            let _ = j.join();
        }
        loop {
            let joins: Vec<_> = {
                let mut guard = self
                    .ctx
                    .reader_joins
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                guard.drain(..).collect()
            };
            if joins.is_empty() {
                break;
            }
            for j in joins {
                let _ = j.join();
            }
        }
        // Every sender clone lives in ctx (accept/reader threads are
        // gone): dropping ctx disconnects the shard channels, which is
        // the shards' signal to drain and exit.
        drop(self.ctx);
        for shard in self.shards {
            drop(shard.sender);
            let _ = shard.join.join();
        }
        if let Some(j) = self.metrics_join {
            let _ = j.join();
        }
        if let Some(path) = self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn accept_tcp(listener: TcpListener, ctx: Arc<ServerCtx>) {
    while !ctx.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(false).is_ok() {
                    let _ = stream.set_nodelay(true);
                    spawn_reader(Conn::Tcp(stream), &ctx);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn accept_unix(listener: UnixListener, ctx: Arc<ServerCtx>) {
    while !ctx.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(false).is_ok() {
                    spawn_reader(Conn::Unix(stream), &ctx);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn spawn_reader(mut conn: Conn, ctx: &Arc<ServerCtx>) {
    let mut joins = ctx.reader_joins.lock().unwrap_or_else(|e| e.into_inner());
    // Reap readers whose connections already closed, so a long-running
    // daemon neither leaks JoinHandles nor counts dead connections
    // against the cap.
    joins.retain(|j| !j.is_finished());
    if joins.len() >= ctx.cfg.max_connections {
        // Best-effort typed refusal, then close; the write timeout keeps
        // a non-reading peer from blocking the accept loop.
        let _ = conn.set_write_timeout(Some(Duration::from_millis(100)));
        let payload = encode_response(&Response::Error {
            id: 0,
            message: format!("connection limit {} reached", ctx.cfg.max_connections),
        });
        let _ = write_frame(&mut conn, &payload, ctx.cfg.max_frame_len);
        return;
    }
    ctx.counters.connections.fetch_add(1, Ordering::SeqCst);
    ctx.counters.live.fetch_add(1, Ordering::SeqCst);
    let shard_idx =
        ctx.next_shard.fetch_add(1, Ordering::SeqCst) % ctx.ports.len().max(1);
    let ctx2 = Arc::clone(ctx);
    let join = std::thread::Builder::new()
        .name("evolve-conn".into())
        .spawn(move || {
            reader_loop(conn, shard_idx, Arc::clone(&ctx2));
            ctx2.counters.live.fetch_sub(1, Ordering::SeqCst);
        })
        .expect("spawn connection reader");
    joins.push(join);
}

fn reader_loop(mut conn: Conn, shard_idx: usize, ctx: Arc<ServerCtx>) {
    let writer = match conn.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    if conn.set_read_timeout(Some(Duration::from_millis(100))).is_err() {
        return;
    }
    // SO_SNDTIMEO lives on the shared socket, so setting it here also
    // bounds the shard workers' response writes through the clone: a
    // peer that stops reading gets disconnected, not waited on forever.
    if ctx.cfg.write_timeout > Duration::ZERO
        && conn.set_write_timeout(Some(ctx.cfg.write_timeout)).is_err()
    {
        return;
    }
    let mut frames = FrameReader::new(ctx.cfg.max_frame_len);
    let mut buf = [0u8; 16 * 1024];
    loop {
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                frames.extend(&buf[..n]);
                if !drain_frames(&mut frames, &writer, shard_idx, &ctx) {
                    break;
                }
                // Re-check shutdown on the hot path too: a peer that
                // streams continuously never hits the timeout arm and
                // must not stall graceful drain indefinitely.
                if ctx.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // A partial frame at disconnect is simply discarded — a hostile or
    // crashed client must not take the daemon with it.
}

/// Returns `false` when the connection should close (unsynchronizable
/// stream).
fn drain_frames(
    frames: &mut FrameReader,
    writer: &Arc<Mutex<Conn>>,
    shard_idx: usize,
    ctx: &Arc<ServerCtx>,
) -> bool {
    loop {
        match frames.next_frame() {
            Ok(Some(payload)) => {
                if !handle_payload(&payload, writer, shard_idx, ctx) {
                    return false;
                }
            }
            Ok(None) => return true,
            Err(e) => {
                // An oversize prefix leaves no way to find the next
                // frame boundary: answer with a typed error and close.
                respond(
                    writer,
                    &Response::Error {
                        id: 0,
                        message: e.to_string(),
                    },
                    ctx,
                );
                return false;
            }
        }
    }
}

/// Admission validation of a wire-supplied model: `spec.build()` asserts
/// on zero stages and allocates proportionally to stages + padding, so
/// both are bounded here — before the spec reaches a shard — and the
/// client gets a typed error instead of a dead shard or an OOM.
fn validate_spec(spec: &ModelSpec, cfg: &ServeConfig) -> Result<(), String> {
    let (ModelKind::Didactic { stages } | ModelKind::Pipeline { stages, .. }) = spec.kind;
    if stages == 0 {
        return Err("model must have at least one stage".to_string());
    }
    if stages > cfg.max_model_stages {
        return Err(format!(
            "model stages {stages} exceed cap {}",
            cfg.max_model_stages
        ));
    }
    if spec.padding > cfg.max_model_padding {
        return Err(format!(
            "model padding {} exceeds cap {}",
            spec.padding, cfg.max_model_padding
        ));
    }
    Ok(())
}

/// Admission validation of the trace: a generated trace materialises
/// `tokens` arrivals, so the count is bounded before any allocation.
/// (Explicit offers are already bounded by the frame cap.)
fn validate_trace(trace: &TracePayload, cfg: &ServeConfig) -> Result<(), String> {
    if let TracePayload::Generated(spec) = trace {
        if spec.tokens > cfg.max_trace_tokens {
            return Err(format!(
                "generated trace tokens {} exceed cap {}",
                spec.tokens, cfg.max_trace_tokens
            ));
        }
    }
    Ok(())
}

/// Short family tag of an inline spec, used as the flight-recorder span
/// label (named models use their registry name instead).
fn family_of(spec: &ModelSpec) -> &'static str {
    match spec.kind {
        ModelKind::Didactic { .. } => "didactic",
        ModelKind::Pipeline { .. } => "pipeline",
    }
}

fn handle_payload(
    payload: &[u8],
    writer: &Arc<Mutex<Conn>>,
    shard_idx: usize,
    ctx: &Arc<ServerCtx>,
) -> bool {
    // Decode is timed on the reader thread but recorded by the shard
    // worker (per-track single-writer discipline), so the pair of
    // instants travels with the job.
    let decode_start = ctx.flight.as_ref().map_or(0, |f| f.now_ns());
    let request = match decode_request(payload) {
        Ok(req) => req,
        Err(e) => {
            // Frame boundaries are intact; the connection stays usable.
            respond(
                writer,
                &Response::Error {
                    id: 0,
                    message: format!("malformed request: {e}"),
                },
                ctx,
            );
            return true;
        }
    };
    let decode_end = ctx.flight.as_ref().map_or(0, |f| f.now_ns());
    match request {
        Request::Ping { nonce } => {
            respond(writer, &Response::Pong { nonce }, ctx);
        }
        Request::Dump => {
            let json = match &ctx.flight {
                Some(rec) => rec.render_chrome_trace(),
                None => "{\"traceEvents\":[]}".to_string(),
            };
            // A dump larger than the frame cap would poison the stream
            // (write_frame refuses it and the connection closes); answer
            // with a typed error instead.
            if json.len() + 16 > ctx.cfg.max_frame_len {
                respond(
                    writer,
                    &Response::Error {
                        id: 0,
                        message: format!(
                            "trace dump ({} bytes) exceeds frame cap {}; lower --flight-spans",
                            json.len(),
                            ctx.cfg.max_frame_len
                        ),
                    },
                    ctx,
                );
            } else {
                respond(writer, &Response::Trace { json }, ctx);
            }
        }
        Request::Load { name, spec } => {
            if let Err(message) = validate_spec(&spec, &ctx.cfg) {
                respond(writer, &Response::Error { id: 0, message }, ctx);
                return true;
            }
            ctx.registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(name.clone(), spec);
            respond(writer, &Response::Loaded { name }, ctx);
        }
        Request::Eval(req) => {
            let (spec, label) = match req.model {
                ModelRef::Inline(spec) => {
                    let label = ctx.flight.as_ref().map_or(0, |f| f.intern(family_of(&spec)));
                    (spec, label)
                }
                ModelRef::Named(name) => {
                    let found = ctx
                        .registry
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .get(&name)
                        .cloned();
                    match found {
                        Some(spec) => {
                            // The client-supplied name becomes the span
                            // label; the exporter escapes it.
                            let label = ctx.flight.as_ref().map_or(0, |f| f.intern(&name));
                            (spec, label)
                        }
                        None => {
                            respond(
                                writer,
                                &Response::Error {
                                    id: req.id,
                                    message: format!("unknown model {name:?}"),
                                },
                                ctx,
                            );
                            return true;
                        }
                    }
                }
            };
            if let Err(message) = validate_spec(&spec, &ctx.cfg)
                .and_then(|()| validate_trace(&req.trace, &ctx.cfg))
            {
                respond(writer, &Response::Error { id: req.id, message }, ctx);
                return true;
            }
            let port = &ctx.ports[shard_idx];
            let admitted = port
                .depth
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |d| {
                    (d < ctx.cfg.max_queue_depth).then_some(d + 1)
                })
                .is_ok();
            if !admitted {
                ctx.counters.rejected.fetch_add(1, Ordering::SeqCst);
                respond(writer, &Response::Busy { id: req.id }, ctx);
                return true;
            }
            // Correlation id assigned at admission: shed requests never
            // consume one, so ids in a trace are exactly the admitted set.
            let corr = ctx.next_corr.fetch_add(1, Ordering::Relaxed);
            let admitted_ns = ctx.flight.as_ref().map_or(0, |f| f.now_ns());
            let job = Job {
                id: req.id,
                spec,
                arrivals: req.trace.arrivals(),
                writer: Arc::clone(writer),
                corr,
                admitted_ns,
                decode: (decode_start, decode_end),
                label,
            };
            if port.sender.send(job).is_err() {
                port.depth.fetch_sub(1, Ordering::SeqCst);
                respond(
                    writer,
                    &Response::Error {
                        id: req.id,
                        message: "shard unavailable".to_string(),
                    },
                    ctx,
                );
            }
        }
    }
    true
}

fn respond(writer: &Arc<Mutex<Conn>>, resp: &Response, ctx: &Arc<ServerCtx>) {
    let payload = encode_response(resp);
    let mut conn = writer.lock().unwrap_or_else(|e| e.into_inner());
    if write_frame(&mut *conn, &payload, ctx.cfg.max_frame_len).is_err() {
        // A failed (or timed-out, partial) write leaves the frame stream
        // unsynchronisable; close both halves so the reader exits too.
        conn.shutdown();
    }
}

// ---------------------------------------------------------------------------
// /metrics listener
// ---------------------------------------------------------------------------

fn merged_snapshot(slots: &[Arc<Mutex<MetricsSnapshot>>], ctx: &ServerCtx) -> MetricsSnapshot {
    let mut total = MetricsSnapshot::default();
    for slot in slots {
        let shard = slot.lock().unwrap_or_else(|e| e.into_inner());
        total.merge(&shard);
    }
    total.serve.connections += ctx.counters.connections.load(Ordering::SeqCst);
    total.serve.rejected += ctx.counters.rejected.load(Ordering::SeqCst);
    if let Some(rec) = &ctx.flight {
        total.phases = rec.phase_snapshots();
    }
    total.serve_gauges = Some(ServeGauges {
        queue_depth: ctx
            .ports
            .iter()
            .map(|p| p.depth.load(Ordering::SeqCst) as u64)
            .sum(),
        connections: ctx.counters.live.load(Ordering::SeqCst),
        uptime_seconds: ctx.started.elapsed().as_secs_f64(),
    });
    total
}

fn metrics_loop(
    listener: TcpListener,
    slots: Vec<Arc<Mutex<MetricsSnapshot>>>,
    ctx: Arc<ServerCtx>,
) {
    while !ctx.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => serve_http(stream, &slots, &ctx),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn serve_http(mut stream: TcpStream, slots: &[Arc<Mutex<MetricsSnapshot>>], ctx: &ServerCtx) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    while head.len() < 4096 && !head.windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    let line = String::from_utf8_lossy(&head);
    let line = line.lines().next().unwrap_or("");
    let (status, content_type, body) = if line.starts_with("GET /metrics") {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus(&merged_snapshot(slots, ctx)),
        )
    } else {
        ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string())
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}
