//! `serve-open`: an in-process `evolved` server driven open-loop.
//!
//! A [`Server`] with the default [`ServeConfig`] is driven by one
//! generator thread over two non-blocking TCP connections
//! (`encode_request` + [`FrameReader`]) on a seeded Poisson schedule. Each
//! request is timed from when it was due, so a stalled generator or
//! server charges its wait to every later request; the generator's own
//! lateness is reported. Traffic is mostly one shared affinity spec plus a
//! minority of distinct-padding "tail" specs that take the scalar/delta
//! path.
//!
//! At the `low` rate requests arrive alone and wait out the 2 ms
//! `max_batch_delay` before a one-lane scalar dispatch; at the `high` rate
//! affinity batches fill toward 8 lanes — the same shard and batch layers
//! used in two opposite ways. Before both, saturation passes measure
//! capacity: the answer rate with a fixed window of requests in flight.
//! Throughput is the serving cost at `high`: answers per second of the
//! server threads' on-CPU time. Every `EvalOk` is checked bitwise against
//! a scalar-engine reference; `Busy`, `Error` and timeouts count as
//! failed, each request once.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use evolve_core::EvalBackend;
use evolve_des::SplitMix64;
use evolve_explore::cache::{
    drive_prepared, drive_prepared_batch, prepare, prepare_batch, DeltaMode, EngineOptions,
};
use evolve_explore::{ModelKind, ModelSpec, TraceSpec};
use evolve_model::{Arrival, Stimulus};
use evolve_serve::protocol::DEFAULT_MAX_FRAME;
use evolve_serve::{
    decode_response, encode_request, Bind, EvalRequest, FrameReader, ModelRef, Request, Response,
    ServeClient, ServeConfig, Server, TracePayload,
};

use crate::common::{
    measure_for, median, process_cpu_ns, quantile, state_samples, thread_cpu_ns, Report, FAST,
};
use crate::spans::{SpanId, Tracer};
use crate::Args;

const TOKENS: u64 = 24;
/// Distinct request traces, drawn per request.
const TRACES: u64 = 32;
/// Paddings of the tail specs; the shared spec has 64.
const TAIL_PADDINGS: [usize; 3] = [72, 96, 128];
const TAIL_PERCENT: u64 = 10;
const LOW_RPS: f64 = 200.0;
const HIGH_RPS: f64 = 10_000.0;
/// Requests per `low`/`high` phase at least: p99 needs 1000 samples.
const MIN_PHASE: usize = 1_000;
/// Shares of the run's budget given to the saturation passes and to the
/// `low` and `high` phases.
const SATURATION_SHARE: f64 = 0.15;
const LOW_SHARE: f64 = 0.4;
const HIGH_SHARE: f64 = 0.4;
/// Answers per server on-CPU time window.
const CPU_WINDOW: usize = 2_500;
/// Requests per saturation pass, and passes at least: capacity is the
/// median over many short passes.
const PASS_REQUESTS: usize = 5_000;
const MIN_PASSES: usize = 8;
/// Requests in flight during saturation: well inside both shards'
/// admission queues (1024 each), so nothing is shed.
const WINDOW: usize = 512;
/// How long a request may stay unanswered before it counts as failed.
const TIMEOUT: Duration = Duration::from_secs(10);
/// Longest idle sleep of the generator loop.
const POLL: Duration = Duration::from_micros(50);

/// A reference answer: output instants and input acknowledgements.
type Answer = (Vec<(u64, u64, u64)>, Vec<u64>);

/// What a request asks for: a model and a trace, by index.
#[derive(Clone, Copy, Debug)]
struct Job {
    model: usize,
    trace: usize,
}

/// The request mix and its scalar-engine reference answers.
struct Workload {
    models: Vec<ModelSpec>,
    traces: Vec<TraceSpec>,
    /// Reference `(outputs, input_acks)` per `(model, trace)`.
    reference: Vec<Vec<Answer>>,
}

impl Workload {
    fn new(seed: u64) -> Self {
        let spec = |padding| ModelSpec {
            kind: ModelKind::Pipeline {
                stages: 8,
                base: 60,
                per_unit: 1,
            },
            padding,
            backend: EvalBackend::Compiled,
        };
        let models: Vec<ModelSpec> = std::iter::once(64).chain(TAIL_PADDINGS).map(spec).collect();
        let root = SplitMix64::new(seed);
        let traces: Vec<TraceSpec> = (0..TRACES)
            .map(|i| TraceSpec {
                tokens: TOKENS,
                min_size: 1,
                max_size: 64,
                mean_period: 300,
                seed: root.fork(i).next_u64(),
            })
            .collect();
        let options = server_options();
        let reference = models
            .iter()
            .map(|m| {
                let mut prepared = prepare(m, &options);
                traces
                    .iter()
                    .map(|t| {
                        let o = drive_prepared(
                            &mut prepared,
                            t.stimulus().arrivals(),
                            &options,
                            &mut None,
                            DeltaMode::Off,
                        )
                        .outcome;
                        (o.outputs, o.input_acks)
                    })
                    .collect()
            })
            .collect();
        Workload {
            models,
            traces,
            reference,
        }
    }

    fn request(&self, id: u64, job: Job) -> Request {
        Request::Eval(EvalRequest {
            id,
            model: ModelRef::Inline(self.models[job.model].clone()),
            trace: TracePayload::Generated(self.traces[job.trace].clone()),
        })
    }

    /// A seeded open-loop schedule: `n` requests at Poisson `rate` (all due
    /// at once when `rate` is infinite), each due at its offset.
    fn schedule(&self, seed: u64, phase: u64, rate: f64, n: usize) -> Vec<(Duration, Job)> {
        let root = SplitMix64::new(seed).fork(1_000 + phase);
        let mut at = 0.0f64;
        (0..n as u64)
            .map(|i| {
                let mut r = root.fork(i);
                if rate.is_finite() {
                    // Exponential gap from a uniform in (0, 1].
                    let u = (r.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    at += -(1.0 - u).ln() / rate;
                }
                let model = if r.range_inclusive(0, 99) < TAIL_PERCENT {
                    1 + r.range_inclusive(0, TAIL_PADDINGS.len() as u64 - 1) as usize
                } else {
                    0
                };
                let trace = r.range_inclusive(0, TRACES - 1) as usize;
                (Duration::from_secs_f64(at), Job { model, trace })
            })
            .collect()
    }
}

/// On-CPU time of every thread of the process but this one, ns: the
/// in-process server's threads, without the load generator's.
fn server_cpu_ns() -> u64 {
    process_cpu_ns() - thread_cpu_ns()
}

/// The daemon's default engine options (`ServeConfig::default()`).
fn server_options() -> EngineOptions {
    let cfg = ServeConfig::default();
    EngineOptions {
        record_observations: cfg.record_observations,
        fast_forward: cfg.fast_forward,
        ff_confirm_periods: cfg.ff_confirm_periods,
        partition: None,
    }
}

/// One non-blocking client connection.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    frames: FrameReader,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream.set_nonblocking(true).expect("non-blocking socket");
        Conn {
            stream,
            out: Vec::new(),
            sent: 0,
            frames: FrameReader::new(DEFAULT_MAX_FRAME),
        }
    }

    /// Writes what the socket takes; returns whether anything was written.
    fn flush(&mut self) -> std::io::Result<bool> {
        let mut wrote = false;
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.sent += n;
                    wrote = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
        Ok(wrote)
    }

    /// Reads what the socket has; returns whether anything arrived.
    fn fill(&mut self, buf: &mut [u8]) -> std::io::Result<bool> {
        let mut got = false;
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.frames.extend(&buf[..n]);
                    got = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(got),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    /// Latency of every answered request from its due instant, ms.
    lat_ms: Vec<f64>,
    /// First due instant to last answer, s.
    wall_s: f64,
    max_lag_ms: f64,
    outstanding_max: usize,
    batched: u64,
    /// Batches behind the batched answers: each lane adds 1 / its lanes.
    batches: f64,
    delta_attached: u64,
    nodes_reused: u64,
    nodes_recomputed: u64,
    /// A few raw response frames, for the decode timing.
    samples: Vec<Vec<u8>>,
    /// Server on-CPU time at the start and after every `CPU_WINDOW`
    /// answers, ns.
    server_cpu_ns: Vec<u64>,
}

impl Phase {
    /// Answers per second of server on-CPU time, one per `CPU_WINDOW`
    /// answers.
    fn per_cpu_s(&self) -> Vec<f64> {
        self.server_cpu_ns
            .windows(2)
            .map(|w| CPU_WINDOW as f64 * 1e9 / (w[1] - w[0]) as f64)
            .collect()
    }
}

/// Drives one schedule over both connections from a single thread, with
/// at most `window` requests in flight.
fn drive(
    conns: &mut [Conn; 2],
    w: &Workload,
    schedule: &[(Duration, Job)],
    window: usize,
    first_id: u64,
    tr: &mut Tracer,
    report: &mut Report,
) -> Phase {
    let t0 = Instant::now() + Duration::from_millis(1);
    let due: Vec<Instant> = schedule.iter().map(|&(at, _)| t0 + at).collect();
    let mut spans = vec![SpanId::NONE; schedule.len()];
    let mut inflight: HashMap<u64, usize> = HashMap::new();
    let mut phase = Phase::default();
    phase.server_cpu_ns.push(server_cpu_ns());
    let mut buf = vec![0u8; 1 << 16];
    let (mut next, mut last_answer) = (0, t0);
    let deadline = due.last().copied().unwrap_or(t0) + TIMEOUT;
    loop {
        let now = Instant::now();
        let mut progress = false;
        while next < schedule.len() && due[next] <= now && inflight.len() < window {
            let id = first_id + next as u64;
            let root = tr.begin_at("client.request", SpanId::NONE, id, due[next]);
            spans[next] = root;
            let encode = tr.begin("protocol.encode", root, id);
            let payload = encode_request(&w.request(id, schedule[next].1));
            tr.end(encode);
            let conn = &mut conns[next % 2];
            conn.out
                .extend_from_slice(&(payload.len() as u32).to_le_bytes());
            conn.out.extend_from_slice(&payload);
            phase.max_lag_ms = phase.max_lag_ms.max((now - due[next]).as_secs_f64() * 1e3);
            inflight.insert(id, next);
            next += 1;
            progress = true;
        }
        phase.outstanding_max = phase.outstanding_max.max(inflight.len());
        for conn in conns.iter_mut() {
            let write = if conn.out.is_empty() {
                SpanId::NONE
            } else {
                tr.begin("net.write", SpanId::NONE, 0)
            };
            let wrote = conn.flush();
            tr.end(write);
            let got = wrote.and_then(|wrote| Ok(wrote | conn.fill(&mut buf)?));
            match got {
                Ok(got) => progress |= got,
                Err(e) => {
                    report.check(false, || format!("connection failed: {e}"));
                    return phase;
                }
            }
            loop {
                let payload = match conn.frames.next_frame() {
                    Ok(Some(payload)) => payload,
                    Ok(None) => break,
                    Err(e) => {
                        report.check(false, || format!("bad frame: {e}"));
                        return phase;
                    }
                };
                let received = Instant::now();
                let decoded = decode_response(&payload);
                let decode_end = Instant::now();
                if phase.samples.len() < 64 {
                    phase.samples.push(payload);
                }
                let ok = match decoded {
                    Ok(Response::EvalOk(ok)) => ok,
                    other => {
                        // A refused or failed request counts once: it
                        // leaves the in-flight set, so it cannot time out.
                        if let Ok(Response::Busy { id } | Response::Error { id, .. }) = &other {
                            inflight.remove(id);
                        }
                        report.check(false, || format!("unexpected response {other:?}"));
                        continue;
                    }
                };
                let Some(i) = inflight.remove(&ok.id) else {
                    report.check(false, || format!("response to unknown request {}", ok.id));
                    continue;
                };
                let job = schedule[i].1;
                let (outputs, acks) = &w.reference[job.model][job.trace];
                report.check(ok.outputs == *outputs && ok.input_acks == *acks, || {
                    format!(
                        "request {} (model {}, trace {}) differs from the scalar reference",
                        ok.id, job.model, job.trace
                    )
                });
                let decode = tr.begin_at("protocol.decode", spans[i], ok.id, received);
                tr.end_at(decode, decode_end);
                tr.end_at(spans[i], decode_end);
                phase.lat_ms.push((received - due[i]).as_secs_f64() * 1e3);
                if phase.lat_ms.len() % CPU_WINDOW == 0 {
                    phase.server_cpu_ns.push(server_cpu_ns());
                }
                last_answer = received;
                if ok.batched {
                    phase.batched += 1;
                    phase.batches += 1.0 / f64::from(ok.lanes_in_batch.max(1));
                }
                if ok.delta_attached {
                    phase.delta_attached += 1;
                    phase.nodes_reused += ok.delta[2];
                    phase.nodes_recomputed += ok.delta[3];
                }
            }
        }
        if next == schedule.len() && inflight.is_empty() {
            break;
        }
        if now > deadline {
            for _ in 0..inflight.len() {
                report.check(false, || "request timed out".to_string());
            }
            break;
        }
        if !progress {
            let wait = due
                .get(next)
                .map_or(POLL, |d| d.saturating_duration_since(now));
            std::thread::sleep(wait.min(POLL));
        }
    }
    phase.wall_s = (last_answer - t0).as_secs_f64();
    phase
}

/// Scrapes the daemon's `/metrics` exposition.
fn scrape(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("metrics listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .expect("metrics request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("metrics response");
    body
}

/// The value of one Prometheus series, `0` when absent.
fn series(body: &str, name: &str) -> f64 {
    body.lines()
        .find_map(|line| {
            line.strip_prefix(name)?
                .strip_prefix(' ')?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

/// Median host time per call of `f` over `reps` rounds of `per` calls, ns.
fn per_call_ns(reps: usize, per: usize, mut f: impl FnMut(usize)) -> f64 {
    let rounds: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for i in 0..per {
                f(i);
            }
            start.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    median(&rounds)
}

/// Starts a server and returns it with its set-up time, s: `Server::start`
/// plus the first `Ping` round trip once the connection is accepted (the
/// accept loop polls every 5 ms, a delay left out so set-up time does not
/// depend on that phase).
fn set_up(report: &mut Report, nonce: u64) -> (Server, f64) {
    let start = Instant::now();
    let server = Server::start(
        ServeConfig::default(),
        &[Bind::Tcp("127.0.0.1:0".into())],
        Some("127.0.0.1:0"),
    )
    .expect("server starts");
    let boot = start.elapsed();
    let addr = server.tcp_addr().expect("TCP listener").to_string();
    let mut client = ServeClient::connect_tcp(&addr).expect("connect");
    std::thread::sleep(Duration::from_millis(10));
    let start = Instant::now();
    let pong = client.call(&Request::Ping { nonce });
    let took = (boot + start.elapsed()).as_secs_f64();
    report.check(
        matches!(pong, Ok(Response::Pong { nonce: n }) if n == nonce),
        || format!("ping answered with {pong:?}"),
    );
    (server, took)
}

pub fn run(args: &Args, tr: &mut Tracer, report: &mut Report) {
    let w = Workload::new(args.seed);

    let (server, first) = set_up(report, 0);
    let mut setup = vec![first];
    let addr = server.tcp_addr().expect("TCP listener").to_string();
    let metrics_addr = server.metrics_addr().expect("metrics listener").to_string();
    let mut conns = [Conn::open(&addr), Conn::open(&addr)];

    // Warm-up: every (model, trace) on both connections, so each shard
    // has prepared its engines and captured its delta bases.
    let warm: Vec<(Duration, Job)> = (0..2 * w.models.len() * TRACES as usize)
        .map(|i| {
            let k = i / 2;
            (
                Duration::from_micros(250 * i as u64),
                Job {
                    model: k % w.models.len(),
                    trace: k / w.models.len(),
                },
            )
        })
        .collect();
    tr.pause(true);
    drive(&mut conns, &w, &warm, usize::MAX, 1 << 40, tr, report);
    tr.pause(false);

    // Capacity: back-to-back saturation passes, each keeping `WINDOW`
    // requests in flight. In the traced run traced and untraced passes
    // alternate: the tracing-overhead comparison.
    let (mut capacity, mut traced_capacity) = (Vec::new(), Vec::new());
    measure_for(SATURATION_SHARE * args.seconds, MIN_PASSES, |pass| {
        let traced = tr.traced() && pass % 2 == 1;
        tr.pause(!traced);
        let schedule = w.schedule(args.seed, 10 + pass as u64, f64::INFINITY, PASS_REQUESTS);
        let first_id = (pass as u64 + 2) << 40;
        // A set-up sample per pass, from a server of its own, spreads them
        // over the run.
        let (scratch, took) = set_up(report, pass as u64 + 1);
        scratch.shutdown_and_join();
        setup.push(took);
        let phase = drive(&mut conns, &w, &schedule, WINDOW, first_id, tr, report);
        let rate = phase.lat_ms.len() as f64 / phase.wall_s;
        if traced {
            traced_capacity.push(rate);
        } else {
            capacity.push(rate);
        }
    });
    tr.pause(false);
    let capacity_rps = median(&capacity);
    println!(
        "capacity: {capacity_rps:.0} req/s, median of {} passes of {PASS_REQUESTS}; \
         high = {HIGH_RPS} req/s is {:.0}% of it",
        capacity.len(),
        100.0 * HIGH_RPS / capacity_rps
    );
    report.metric("setup_s", quantile(&setup, FAST));

    // Shards republish their counters on an idle tick.
    let counters = || {
        std::thread::sleep(Duration::from_millis(300));
        scrape(&metrics_addr)
    };
    let before = tr.traced().then(counters);
    let n_low = MIN_PHASE.max((LOW_RPS * LOW_SHARE * args.seconds) as usize);
    let low = drive(
        &mut conns,
        &w,
        &w.schedule(args.seed, 0, LOW_RPS, n_low),
        usize::MAX,
        0,
        tr,
        report,
    );
    state_samples("low-rate latency", low.lat_ms.len(), 0.99);
    let between = tr.traced().then(counters);
    let n_high = MIN_PHASE.max((HIGH_RPS * HIGH_SHARE * args.seconds) as usize);
    let high = drive(
        &mut conns,
        &w,
        &w.schedule(args.seed, 1, HIGH_RPS, n_high),
        usize::MAX,
        1 << 32,
        tr,
        report,
    );
    state_samples("high-rate latency", high.lat_ms.len(), 0.99);
    let per_cpu_s = high.per_cpu_s();
    // Serving cost at a fixed load: unlike the saturation rate, which
    // the generator and server threads set by how they share the two
    // cores, it does not depend on the host's scheduling.
    report.metric("sim_tokens_per_s", median(&per_cpu_s) * TOKENS as f64);

    report.metric("lat_ms", median(&low.lat_ms));
    report.metric("lat.p90_ms", quantile(&low.lat_ms, 0.9));
    if !tr.traced() {
        drop(conns);
        server.shutdown_and_join();
        return;
    }
    let after = counters();
    let (before, between) = (
        before.expect("scraped in the traced run"),
        between.expect("scraped in the traced run"),
    );
    let delta = |name: &str| series(&after, name) - series(&before, name);
    let full = "evolve_serve_batches_total{trigger=\"full\"}";
    let deadline = "evolve_serve_batches_total{trigger=\"deadline\"}";
    println!(
        "high phase: {} full and {} deadline batches, batch fill {:.3}",
        series(&after, full) - series(&between, full),
        series(&after, deadline) - series(&between, deadline),
        high.batched as f64 / (high.batches.max(1.0) * 8.0)
    );

    // Layer costs measured from outside on the workload's own frames.
    let requests: Vec<Request> = (0..TRACES as usize)
        .map(|t| w.request(t as u64, Job { model: 0, trace: t }))
        .collect();
    let encode_ns = per_call_ns(21, 1_000, |i| {
        std::hint::black_box(encode_request(&requests[i % requests.len()]));
    });
    let samples = &low.samples;
    let decode_ns = per_call_ns(21, 1_000, |i| {
        std::hint::black_box(decode_response(&samples[i % samples.len()]).is_ok());
    });
    let mut client = ServeClient::connect_tcp(&addr).expect("connect");
    let rtt: Vec<f64> = (0..200)
        .map(|nonce| {
            let start = Instant::now();
            let pong = client.call(&Request::Ping { nonce });
            let took = start.elapsed().as_secs_f64() * 1e6;
            report.check(matches!(pong, Ok(Response::Pong { .. })), || {
                format!("ping answered with {pong:?}")
            });
            took
        })
        .collect();
    let options = server_options();
    let arrivals: Vec<Stimulus> = w.traces.iter().map(TraceSpec::stimulus).collect();
    let start = Instant::now();
    let mut scalar = tr.span("cache.prepare", || prepare(&w.models[0], &options));
    report.metric("cache.prepare_ms", start.elapsed().as_secs_f64() * 1e3);
    let scalar_ns = per_call_ns(21, 8, |i| {
        let a = arrivals[i % arrivals.len()].arrivals();
        tr.span("eval.scalar", || {
            drive_prepared(&mut scalar, a, &options, &mut None, DeltaMode::Off)
        });
    });
    let lanes: Vec<&[Arrival]> = arrivals.iter().take(8).map(Stimulus::arrivals).collect();
    let mut batch =
        prepare_batch(&w.models[0], &options, lanes.len()).expect("the shared spec batches");
    let batch_ns = per_call_ns(21, 4, |_| {
        tr.span("eval.batch", || {
            drive_prepared_batch(&mut batch, &lanes, &mut None)
        });
    });

    let p50_low = median(&low.lat_ms);
    let named_ms = (encode_ns + decode_ns + scalar_ns) / 1e6 + median(&rtt) / 1e3;
    report.metric("lat.samples", low.lat_ms.len() as f64);
    report.metric(
        "trace.overhead_ratio",
        median(&traced_capacity) / capacity_rps,
    );
    report.metric("serve.capacity_rps", capacity_rps);
    report.metric("serve.lat_p99_ms.low", quantile(&low.lat_ms, 0.99));
    report.metric("serve.lat_p50_ms.high", median(&high.lat_ms));
    report.metric("serve.lat_p99_ms.high", quantile(&high.lat_ms, 0.99));
    report.metric("serve.unaccounted_ms", p50_low - named_ms);
    report.metric("account.serve_share", named_ms / p50_low);
    report.metric("protocol.encode_ns", encode_ns);
    report.metric("protocol.decode_ns", decode_ns);
    report.metric("net.ping_rtt_us", median(&rtt));
    report.metric("eval.scalar_us", scalar_ns / 1e3);
    report.metric("eval.batch_us", batch_ns / 1e3);
    report.metric("shard.batches.full", delta(full));
    report.metric("shard.batches.deadline", delta(deadline));
    report.metric(
        "shard.lanes.batched",
        delta("evolve_serve_lanes_total{path=\"batched\"}"),
    );
    report.metric(
        "shard.lanes.scalar",
        delta("evolve_serve_lanes_total{path=\"scalar\"}"),
    );
    report.metric(
        "shard.lanes.delta",
        delta("evolve_serve_lanes_total{path=\"delta\"}"),
    );
    report.metric("shard.busy", delta("evolve_serve_rejected_total"));
    report.metric(
        "batch.chunked_sweeps",
        delta("evolve_batch_kernel_sweeps_total{path=\"chunked\"}"),
    );
    report.metric(
        "batch.scalar_sweeps",
        delta("evolve_batch_kernel_sweeps_total{path=\"scalar\"}"),
    );
    report.metric(
        "batch.fill",
        high.batched as f64 / (high.batches.max(1.0) * 8.0),
    );
    report.metric(
        "delta.lanes",
        (low.delta_attached + high.delta_attached) as f64,
    );
    report.metric(
        "delta.reused_share",
        (low.nodes_reused + high.nodes_reused) as f64
            / (low.nodes_reused + high.nodes_reused + low.nodes_recomputed + high.nodes_recomputed)
                .max(1) as f64,
    );
    report.metric("client.gen_lag_ms", low.max_lag_ms.max(high.max_lag_ms));
    report.metric(
        "client.outstanding_max",
        low.outstanding_max.max(high.outstanding_max) as f64,
    );
    drop((conns, client));
    server.shutdown_and_join();
}
