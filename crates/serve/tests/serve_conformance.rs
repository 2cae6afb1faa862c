//! Daemon conformance: every response must be bitwise identical to a
//! fresh scalar [`Engine`](evolve_core::Engine) evaluation of the same
//! request, whichever serving path answered it — affinity-batched or
//! scalar (ejected, singleton, or on a reused engine).
//!
//! The reference runs with fast-forward *off*, so the comparison also
//! re-pins (end-to-end, through the wire) the engine invariants the core
//! conformance suites establish: fast-forward and lockstep batching are
//! observationally invisible.

use std::collections::HashMap;
use std::time::Duration;

use evolve_core::{EvalBackend, FastForward};
use evolve_explore::cache::{drive_prepared, prepare, DeltaMode, EngineOptions};
use evolve_explore::{ModelKind, ModelSpec, TraceSpec};
use evolve_serve::{
    Bind, EvalRequest, EvalResponse, ModelRef, Request, Response, ServeClient, ServeConfig,
    Server, TracePayload,
};
use proptest::prelude::*;

fn reference(spec: &ModelSpec, trace: &TracePayload) -> (Vec<(u64, u64, u64)>, Vec<u64>) {
    let options = EngineOptions {
        record_observations: false,
        fast_forward: FastForward::Off,
        ..EngineOptions::default()
    };
    let arrivals = trace.arrivals();
    let mut prepared = prepare(spec, &options);
    let drive = drive_prepared(&mut prepared, &arrivals, &options, &mut None, DeltaMode::Off);
    (drive.outcome.outputs, drive.outcome.input_acks)
}

fn eval(id: u64, spec: &ModelSpec, trace: &TracePayload) -> Request {
    Request::Eval(EvalRequest {
        id,
        model: ModelRef::Inline(spec.clone()),
        trace: trace.clone(),
    })
}

fn expect_ok(resp: Response) -> EvalResponse {
    match resp {
        Response::EvalOk(ok) => ok,
        other => panic!("expected EvalOk, got {other:?}"),
    }
}

fn pipeline(stages: usize, base: u64, per_unit: u64, padding: usize) -> ModelSpec {
    ModelSpec {
        kind: ModelKind::Pipeline {
            stages,
            base,
            per_unit,
        },
        padding,
        backend: EvalBackend::Compiled,
    }
}

fn generated(tokens: u64, seed: u64) -> TracePayload {
    TracePayload::Generated(TraceSpec {
        tokens,
        min_size: 1,
        max_size: 96,
        mean_period: 300,
        seed,
    })
}

/// Pipelining enough same-model requests fills the affinity group to the
/// batch width and dispatches one lockstep batch — and every lane stays
/// bitwise identical to the scalar reference.
#[test]
fn full_affinity_batch_matches_scalar_reference() {
    let config = ServeConfig {
        shards: 1,
        batch_width: 4,
        max_batch_delay: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let server = Server::start(config, &[Bind::Tcp("127.0.0.1:0".into())], None).unwrap();
    let addr = server.tcp_addr().unwrap();
    let mut client = ServeClient::connect_tcp(&addr.to_string()).unwrap();

    let spec = pipeline(4, 100, 3, 0);
    let traces: Vec<TracePayload> = (0..4).map(|i| generated(12, 0xfeed + i)).collect();
    for (i, trace) in traces.iter().enumerate() {
        client.send(&eval(i as u64, &spec, trace)).unwrap();
    }
    let mut by_id = HashMap::new();
    for _ in 0..4 {
        let ok = expect_ok(client.recv().unwrap());
        by_id.insert(ok.id, ok);
    }
    for (i, trace) in traces.iter().enumerate() {
        let ok = &by_id[&(i as u64)];
        assert!(ok.batched, "lane {i} should have been served in a batch");
        assert_eq!(ok.lanes_in_batch, 4);
        let (outputs, acks) = reference(&spec, trace);
        assert_eq!(ok.outputs, outputs, "lane {i} outputs diverged");
        assert_eq!(ok.input_acks, acks, "lane {i} acks diverged");
    }
    server.shutdown_and_join();
}

/// With batching effectively disabled (width 1), two sequential requests
/// of one spec take the scalar path on one shard, the second on the
/// engine the first left in the shard's cache — and both stay bitwise
/// identical to the reference.
#[test]
fn repeated_scalar_requests_match_scalar_reference() {
    let config = ServeConfig {
        shards: 1,
        batch_width: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(config, &[Bind::Tcp("127.0.0.1:0".into())], None).unwrap();
    let mut client = ServeClient::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();

    let spec = pipeline(4, 100, 3, 16);
    let traces = [generated(16, 0xabcd), generated(16, 0xbcde)];
    for (id, trace) in traces.iter().enumerate() {
        let resp = expect_ok(client.call(&eval(id as u64, &spec, trace)).unwrap());
        assert!(!resp.batched, "request {id} takes the scalar path");
        let (outputs, acks) = reference(&spec, trace);
        assert_eq!(resp.outputs, outputs, "request {id} outputs diverged");
        assert_eq!(resp.input_acks, acks, "request {id} acks diverged");
    }
    server.shutdown_and_join();
}

/// Worklist-backend and empty-trace requests are ejected to the scalar
/// path even when grouped, and still match the reference.
#[test]
fn ejected_requests_match_scalar_reference() {
    let config = ServeConfig {
        shards: 1,
        batch_width: 2,
        max_batch_delay: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let server = Server::start(config, &[Bind::Tcp("127.0.0.1:0".into())], None).unwrap();
    let mut client = ServeClient::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();

    let worklist_spec = ModelSpec {
        kind: ModelKind::Didactic { stages: 2 },
        padding: 0,
        backend: EvalBackend::Worklist,
    };
    let trace = generated(10, 0x77);
    let ok = expect_ok(client.call(&eval(7, &worklist_spec, &trace)).unwrap());
    assert!(!ok.batched, "worklist lanes can never run in lockstep");
    let (outputs, acks) = reference(&worklist_spec, &trace);
    assert_eq!(ok.outputs, outputs);
    assert_eq!(ok.input_acks, acks);

    let empty = TracePayload::Offers(Vec::new());
    let ok = expect_ok(client.call(&eval(8, &pipeline(4, 100, 3, 0), &empty)).unwrap());
    assert!(ok.outputs.is_empty());
    assert!(ok.input_acks.is_empty());
    server.shutdown_and_join();
}

/// Named models resolve through the registry and evaluate exactly like
/// their inline equivalents.
#[test]
fn named_models_match_inline_requests() {
    let server = Server::start(
        ServeConfig {
            shards: 1,
            batch_width: 1,
            ..ServeConfig::default()
        },
        &[Bind::Tcp("127.0.0.1:0".into())],
        None,
    )
    .unwrap();
    let mut client = ServeClient::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();

    let spec = pipeline(4, 100, 3, 0);
    let loaded = client
        .call(&Request::Load {
            name: "p4".into(),
            spec: spec.clone(),
        })
        .unwrap();
    assert_eq!(loaded, Response::Loaded { name: "p4".into() });

    let trace = generated(8, 0x1234);
    let named = expect_ok(
        client
            .call(&Request::Eval(EvalRequest {
                id: 1,
                model: ModelRef::Named("p4".into()),
                trace: trace.clone(),
            }))
            .unwrap(),
    );
    let (outputs, acks) = reference(&spec, &trace);
    assert_eq!(named.outputs, outputs);
    assert_eq!(named.input_acks, acks);

    let missing = client
        .call(&Request::Eval(EvalRequest {
            id: 2,
            model: ModelRef::Named("absent".into()),
            trace,
        }))
        .unwrap();
    assert!(matches!(missing, Response::Error { id: 2, .. }));
    server.shutdown_and_join();
}

/// Once a spec's last `batch_width` arrivals at the shard span more than
/// `batch_width` deadlines, fewer than one lane-mate is expected in the
/// window: a lone request dispatches at once (trigger `idle`) instead of
/// waiting out `max_batch_delay`, and stays bitwise identical to the
/// scalar reference.
#[test]
fn idle_spec_dispatches_without_waiting_for_its_deadline() {
    let window = Duration::from_millis(50);
    let config = ServeConfig {
        shards: 1,
        batch_width: 4,
        max_batch_delay: window,
        ..ServeConfig::default()
    };
    let server = Server::start(
        config,
        &[Bind::Tcp("127.0.0.1:0".into())],
        Some("127.0.0.1:0"),
    )
    .unwrap();
    let mut client = ServeClient::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();

    // One full batch puts four arrivals on record...
    let spec = pipeline(4, 100, 3, 0);
    for i in 0..4 {
        client.send(&eval(i, &spec, &generated(12, 0xfeed + i))).unwrap();
    }
    for _ in 0..4 {
        assert!(expect_ok(client.recv().unwrap()).batched);
    }
    // ...and a pause of more than four deadlines stretches the span of
    // the last four past 4 x 50 ms when the next request arrives.
    std::thread::sleep(5 * window);
    let trace = generated(12, 0xcafe);
    let ok = expect_ok(client.call(&eval(4, &spec, &trace)).unwrap());
    assert!(!ok.batched, "a lone lane runs on the scalar path");
    assert_eq!(ok.lanes_in_batch, 1);
    let (outputs, acks) = reference(&spec, &trace);
    assert_eq!(ok.outputs, outputs);
    assert_eq!(ok.input_acks, acks);

    let metrics = scrape_until(&server, |m| series(m, IDLE) > Some(0));
    assert_eq!(series(&metrics, IDLE), Some(1), "the lone request dispatched idle");
    assert_eq!(series(&metrics, DEADLINE), Some(0), "nothing waited out its deadline");
    assert_eq!(series(&metrics, FULL), Some(1));
    server.shutdown_and_join();
}

/// `2 x batch_width + 1` pipelined requests for a fresh spec come back as
/// exactly two full batches, in arrival order, and one deadline lane,
/// however the shard's drains happened to group them: a group splits at
/// `batch_width` lanes, and the remainder waits, since arrivals this
/// close together predict lane-mates.
#[test]
fn pipelined_burst_splits_into_full_batches_and_one_deadline_lane() {
    let width = 4;
    let config = ServeConfig {
        shards: 1,
        batch_width: width,
        max_batch_delay: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let server = Server::start(
        config,
        &[Bind::Tcp("127.0.0.1:0".into())],
        Some("127.0.0.1:0"),
    )
    .unwrap();
    let mut client = ServeClient::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();

    let spec = pipeline(5, 90, 2, 0);
    let traces: Vec<TracePayload> = (0..2 * width as u64 + 1)
        .map(|i| generated(10, 0x5eed + i))
        .collect();
    for (i, trace) in traces.iter().enumerate() {
        client.send(&eval(i as u64, &spec, trace)).unwrap();
    }
    for _ in 0..traces.len() {
        let ok = expect_ok(client.recv().unwrap());
        let (outputs, acks) = reference(&spec, &traces[ok.id as usize]);
        assert_eq!(ok.outputs, outputs, "request {} outputs diverged", ok.id);
        assert_eq!(ok.input_acks, acks, "request {} acks diverged", ok.id);
        if ok.id < 2 * width as u64 {
            assert!(ok.batched, "request {} should ride a full batch", ok.id);
            assert_eq!(ok.lanes_in_batch, width as u32);
        } else {
            assert!(!ok.batched, "the last request is the remainder lane");
            assert_eq!(ok.lanes_in_batch, 1);
        }
    }

    let metrics = scrape_until(&server, |m| series(m, DEADLINE) > Some(0));
    assert_eq!(series(&metrics, FULL), Some(2));
    assert_eq!(series(&metrics, DEADLINE), Some(1));
    assert_eq!(series(&metrics, IDLE), Some(0));
    server.shutdown_and_join();
}

/// A lane whose answer exceeds the frame cap is never sent: the frames of
/// its batch that fit go out, then that connection closes and the lane
/// counts as an error, while other connections keep being served.
#[test]
fn oversize_answer_closes_its_connection_after_the_frames_that_fit() {
    let config = ServeConfig {
        shards: 1,
        batch_width: 2,
        max_batch_delay: Duration::from_secs(5),
        max_frame_len: 4096,
        ..ServeConfig::default()
    };
    let server = Server::start(
        config,
        &[Bind::Tcp("127.0.0.1:0".into())],
        Some("127.0.0.1:0"),
    )
    .unwrap();
    let addr = server.tcp_addr().unwrap().to_string();
    let mut client = ServeClient::connect_tcp(&addr).unwrap();

    // One 2-lane batch: 4 outputs fit in 4096 bytes, 400 do not.
    let spec = pipeline(2, 50, 1, 0);
    let small = generated(4, 0x51);
    client.send(&eval(0, &spec, &small)).unwrap();
    client.send(&eval(1, &spec, &generated(400, 0x52))).unwrap();
    let ok = expect_ok(client.recv().unwrap());
    assert_eq!(ok.id, 0);
    assert!(ok.batched);
    let (outputs, acks) = reference(&spec, &small);
    assert_eq!(ok.outputs, outputs);
    assert_eq!(ok.input_acks, acks);
    assert!(client.recv().is_err(), "the oversize answer must not be sent");

    let mut other = ServeClient::connect_tcp(&addr).unwrap();
    let pong = other.call(&Request::Ping { nonce: 3 }).unwrap();
    assert_eq!(pong, Response::Pong { nonce: 3 });
    let metrics = scrape_until(&server, |m| series(m, ERRORS) > Some(0));
    assert_eq!(series(&metrics, ERRORS), Some(1));
    assert_eq!(series(&metrics, RESPONSES), Some(1));
    server.shutdown_and_join();
}

/// Every batch books its own lockstep iterations and kernel sweeps, also
/// when it reuses a pooled engine, which the drive resets: two full
/// batches of one spec, every trace `T` tokens long with random sizes that
/// never settle into a pattern fast-forward could promote, export `2 T`
/// lockstep iterations, each one a kernel sweep.
#[test]
fn reused_batch_engines_book_every_lockstep_iteration() {
    const TOKENS: u64 = 12;
    const BATCHES: u64 = 2;
    let width = 4;
    let config = ServeConfig {
        shards: 1,
        batch_width: width,
        max_batch_delay: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let server = Server::start(
        config,
        &[Bind::Tcp("127.0.0.1:0".into())],
        Some("127.0.0.1:0"),
    )
    .unwrap();
    let mut client = ServeClient::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();

    let spec = pipeline(4, 100, 3, 0);
    for batch in 0..BATCHES {
        for lane in 0..width as u64 {
            let id = batch * width as u64 + lane;
            client.send(&eval(id, &spec, &generated(TOKENS, 0xb00 + id))).unwrap();
        }
        for _ in 0..width {
            let ok = expect_ok(client.recv().unwrap());
            assert!(ok.batched, "request {} rides a batch", ok.id);
            assert_eq!(ok.lanes_in_batch, width as u32);
        }
    }

    let metrics = scrape_until(&server, |m| series(m, LOCKSTEP) >= Some(BATCHES * TOKENS));
    assert_eq!(series(&metrics, BATCHES_FORMED), Some(BATCHES));
    let lockstep = series(&metrics, LOCKSTEP).unwrap();
    assert_eq!(lockstep, TOKENS * BATCHES, "T lockstep iterations per batch");
    let sweeps =
        series(&metrics, CHUNKED_SWEEPS).unwrap() + series(&metrics, SCALAR_SWEEPS).unwrap();
    assert_eq!(sweeps, lockstep, "one kernel sweep per lockstep iteration");
    server.shutdown_and_join();
}

const ERRORS: &str = "evolve_serve_errors_total";
const RESPONSES: &str = "evolve_serve_responses_total";
const FULL: &str = "evolve_serve_batches_total{trigger=\"full\"}";
const IDLE: &str = "evolve_serve_batches_total{trigger=\"idle\"}";
const DEADLINE: &str = "evolve_serve_batches_total{trigger=\"deadline\"}";
const BATCHES_FORMED: &str = "evolve_batch_batches_formed_total";
const LOCKSTEP: &str = "evolve_batch_lockstep_iterations_total";
const CHUNKED_SWEEPS: &str = "evolve_batch_kernel_sweeps_total{path=\"chunked\"}";
const SCALAR_SWEEPS: &str = "evolve_batch_kernel_sweeps_total{path=\"scalar\"}";

/// One series' value in a `/metrics` exposition, if exported.
fn series(metrics: &str, name: &str) -> Option<u64> {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Scrapes `/metrics` until `done` holds or two 25 ms publish intervals
/// have passed (a throttled shard publish lands by its interval's end),
/// and returns the last exposition.
fn scrape_until(server: &Server, done: impl Fn(&str) -> bool) -> String {
    let addr = server.metrics_addr().unwrap().to_string();
    let deadline = std::time::Instant::now() + 2 * Duration::from_millis(25);
    loop {
        let metrics = http_get(&addr, "/metrics");
        if done(&metrics) || std::time::Instant::now() >= deadline {
            return metrics;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn http_get(addr: &str, path: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn spec_strategy() -> impl Strategy<Value = ModelSpec> {
    prop_oneof![
        (1usize..4, 0usize..2, any::<bool>()).prop_map(|(stages, pad, worklist)| ModelSpec {
            kind: ModelKind::Didactic { stages },
            padding: pad * 32,
            backend: if worklist {
                EvalBackend::Worklist
            } else {
                EvalBackend::Compiled
            },
        }),
        (2usize..6, 40u64..120, 1u64..5, 0usize..2).prop_map(|(stages, base, per_unit, pad)| {
            ModelSpec {
                kind: ModelKind::Pipeline {
                    stages,
                    base,
                    per_unit,
                },
                padding: pad * 16,
                backend: EvalBackend::Compiled,
            }
        }),
    ]
}

fn trace_strategy() -> impl Strategy<Value = TracePayload> {
    prop_oneof![
        (1u64..16, 1u64..64, 0u64..600, any::<u64>()).prop_map(
            |(tokens, size, period, seed)| TracePayload::Generated(TraceSpec {
                tokens,
                min_size: 1,
                max_size: size.max(1),
                mean_period: period,
                seed,
            })
        ),
        proptest::collection::vec((0u64..4000, 1u64..64), 0..12)
            .prop_map(TracePayload::Offers),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random request streams — mixed models, mixed traces, pipelined on
    /// one connection so affinity groups form and dissolve arbitrarily —
    /// always come back bitwise identical to the scalar reference.
    #[test]
    fn random_streams_match_scalar_reference(
        requests in proptest::collection::vec((spec_strategy(), trace_strategy()), 1..10)
    ) {
        let config = ServeConfig {
            shards: 1,
            batch_width: 3,
            max_batch_delay: Duration::from_millis(2),
            ..ServeConfig::default()
        };
        let server = Server::start(config, &[Bind::Tcp("127.0.0.1:0".into())], None).unwrap();
        let mut client =
            ServeClient::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();
        for (i, (spec, trace)) in requests.iter().enumerate() {
            client.send(&eval(i as u64, spec, trace)).unwrap();
        }
        let mut by_id = HashMap::new();
        for _ in 0..requests.len() {
            let ok = expect_ok(client.recv().unwrap());
            by_id.insert(ok.id, ok);
        }
        server.shutdown_and_join();
        for (i, (spec, trace)) in requests.iter().enumerate() {
            let ok = &by_id[&(i as u64)];
            let (outputs, acks) = reference(spec, trace);
            prop_assert_eq!(&ok.outputs, &outputs, "request {} outputs diverged", i);
            prop_assert_eq!(&ok.input_acks, &acks, "request {} acks diverged", i);
        }
    }
}
