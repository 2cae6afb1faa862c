//! Daemon conformance: every response must be bitwise identical to a
//! fresh scalar [`Engine`](evolve_core::Engine) evaluation of the same
//! request, whichever serving path answered it — affinity-batched,
//! ejected-to-scalar, or delta-chained.
//!
//! The reference runs with fast-forward *off* and no delta chain, so the
//! comparison also re-pins (end-to-end, through the wire) the engine
//! invariants the core conformance suites establish: fast-forward,
//! lockstep batching, and delta attachment are observationally
//! invisible.

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

/// With batching effectively disabled (width 1), sequential same-family
/// requests chain through the delta cache: the first captures a base,
/// the second attaches it — and both stay bitwise identical to the
/// reference.
#[test]
fn delta_chained_requests_match_scalar_reference() {
    let config = ServeConfig {
        shards: 1,
        batch_width: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(config, &[Bind::Tcp("127.0.0.1:0".into())], None).unwrap();
    let mut client = ServeClient::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();

    // Same structural family (shape + padding), different load: the
    // second request can reuse the first's captured base cache.
    let base_spec = pipeline(4, 100, 3, 16);
    let sibling_spec = pipeline(4, 80, 5, 16);
    let trace = generated(16, 0xabcd);

    let first = expect_ok(client.call(&eval(1, &base_spec, &trace)).unwrap());
    let second = expect_ok(client.call(&eval(2, &sibling_spec, &trace)).unwrap());
    assert!(
        second.delta_attached,
        "second same-family request should attach the captured base"
    );
    assert!(
        second.delta.iter().any(|&v| v > 0),
        "attached lane should report delta counters"
    );
    for (resp, spec) in [(&first, &base_spec), (&second, &sibling_spec)] {
        let (outputs, acks) = reference(spec, &trace);
        assert_eq!(resp.outputs, outputs);
        assert_eq!(resp.input_acks, acks);
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

/// A wide padded model on the partitioned backend, served with intra-graph
/// workers enabled, round-trips the new wire tags, stays bitwise identical
/// to the serial scalar reference, and actually engages the parallel sweep
/// (the graph is above `min_nodes`, so the daemon's partition counters
/// must move).
#[test]
fn partitioned_wide_models_match_scalar_reference() {
    let config = ServeConfig {
        shards: 1,
        batch_width: 2,
        max_batch_delay: Duration::from_millis(5),
        partition_threads: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(
        config,
        &[Bind::Tcp("127.0.0.1:0".into())],
        Some("127.0.0.1:0"),
    )
    .unwrap();
    let mut client = ServeClient::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();

    let spec = ModelSpec {
        kind: ModelKind::WidePipeline {
            stages: 4,
            base: 100,
            per_unit: 3,
            chains: 32,
        },
        padding: 4_500,
        backend: EvalBackend::CompiledParallel,
    };
    let trace = generated(24, 0xbeef);
    let ok = expect_ok(client.call(&eval(9, &spec, &trace)).unwrap());
    assert!(
        !ok.batched,
        "partitioned lanes eject from lockstep batching"
    );
    let (outputs, acks) = reference(&spec, &trace);
    assert_eq!(ok.outputs, outputs);
    assert_eq!(ok.input_acks, acks);

    // A shard publishes its metrics at most once per 25 ms interval, and
    // a throttled update must land by the interval's end: scrape until the
    // counter moves or two intervals have passed.
    let metrics_addr = server.metrics_addr().unwrap().to_string();
    let deadline = std::time::Instant::now() + 2 * Duration::from_millis(25);
    let parallel_iterations = loop {
        let metrics = http_get(&metrics_addr, "/metrics");
        let parallel_iterations = metrics
            .lines()
            .find_map(|l| l.strip_prefix("evolve_partition_parallel_iterations_total "))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .expect("partition family exported");
        if parallel_iterations > 0 || std::time::Instant::now() >= deadline {
            break parallel_iterations;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(
        parallel_iterations > 0,
        "served evaluation never took the partitioned sweep"
    );
    server.shutdown_and_join();
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
