//! End-to-end flight-recorder coverage over the wire protocol: a `Dump`
//! request must return a Perfetto-loadable Chrome-trace JSON document
//! with per-shard tracks carrying a span for every lifecycle phase of
//! every admitted request — and must stay well-formed when hostile
//! client-supplied model names reach the trace output via `Load`.

use evolve_core::EvalBackend;
use evolve_explore::{ModelKind, ModelSpec, TraceSpec};
use evolve_obs::json;
use evolve_serve::{
    Bind, EvalRequest, ModelRef, Request, Response, ServeClient, ServeConfig, Server,
    TracePayload,
};

fn pipeline(stages: usize, padding: usize) -> ModelSpec {
    ModelSpec {
        kind: ModelKind::Pipeline {
            stages,
            base: 40,
            per_unit: 1,
        },
        padding,
        backend: EvalBackend::Compiled,
    }
}

fn generated(tokens: u64, seed: u64) -> TracePayload {
    TracePayload::Generated(TraceSpec {
        tokens,
        min_size: 1,
        max_size: 32,
        mean_period: 200,
        seed,
    })
}

fn eval(id: u64, model: ModelRef) -> Request {
    Request::Eval(EvalRequest {
        id,
        model,
        trace: generated(16, id.wrapping_mul(0x9e37_79b9)),
    })
}

fn dump(client: &mut ServeClient) -> String {
    match client.call(&Request::Dump).expect("dump call") {
        Response::Trace { json } => json,
        other => panic!("Dump answered with {other:?}"),
    }
}

/// Every admitted request leaves one span per serve lifecycle phase in
/// the dump, on a shard track, tagged with its correlation id.
#[test]
fn dump_contains_every_phase_for_every_admitted_request() {
    let config = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(config, &[Bind::Tcp("127.0.0.1:0".into())], None).unwrap();
    let target = format!("tcp:{}", server.tcp_addr().unwrap());
    let mut client = ServeClient::connect(&target).unwrap();

    const REQUESTS: u64 = 7;
    for id in 0..REQUESTS {
        let resp = client.call(&eval(id, ModelRef::Inline(pipeline(4, 16)))).unwrap();
        assert!(matches!(resp, Response::EvalOk(_)), "eval failed: {resp:?}");
    }

    let trace = dump(&mut client);
    assert!(json::parses(&trace), "trace dump is not valid JSON");
    assert!(
        trace.contains("\"args\":{\"name\":\"shard-0\"}"),
        "no shard-0 thread_name metadata in the trace"
    );
    for phase in ["decode", "queue_wait", "batch_form", "eval"] {
        let spans = trace.matches(&format!("\"name\":\"{phase}\"")).count() as u64;
        assert!(
            spans >= REQUESTS,
            "expected >= {REQUESTS} {phase:?} spans, found {spans}"
        );
    }
    // Encode/Write spans are published *after* the response frame is on
    // the wire (the Write span must cover the write), so a Dump racing
    // right behind the last response may not see that response's pair.
    for phase in ["encode", "write"] {
        let spans = trace.matches(&format!("\"name\":\"{phase}\"")).count() as u64;
        assert!(
            spans >= REQUESTS - 1,
            "expected >= {} {phase:?} spans, found {spans}",
            REQUESTS - 1
        );
    }
    // Correlation ids are assigned densely at admission, starting at 1.
    for corr in 1..=REQUESTS {
        assert!(
            trace.contains(&format!("\"corr\":{corr}")),
            "no span carries correlation id {corr}"
        );
    }
    server.shutdown_and_join();
}

/// Hostile named-model ids (quotes, control characters, newlines) reach
/// the trace as span annotations via `Load` + named `Eval`; the dumped
/// document must still parse.
#[test]
fn hostile_model_names_cannot_break_the_trace_json() {
    let server =
        Server::start(ServeConfig::default(), &[Bind::Tcp("127.0.0.1:0".into())], None).unwrap();
    let target = format!("tcp:{}", server.tcp_addr().unwrap());
    let mut client = ServeClient::connect(&target).unwrap();

    let hostile = "evil\"model\n\u{1}\\u2028\u{2028}";
    let resp = client
        .call(&Request::Load {
            name: hostile.into(),
            spec: pipeline(3, 8),
        })
        .unwrap();
    assert!(matches!(resp, Response::Loaded { .. }), "load failed: {resp:?}");
    let resp = client.call(&eval(1, ModelRef::Named(hostile.into()))).unwrap();
    assert!(matches!(resp, Response::EvalOk(_)), "named eval failed: {resp:?}");

    let trace = dump(&mut client);
    assert!(
        json::parses(&trace),
        "hostile model name produced an unparsable trace"
    );
    assert!(
        trace.contains("evil\\\"model\\n"),
        "hostile name was not escaped into the trace"
    );
    server.shutdown_and_join();
}

/// With the recorder disabled, `Dump` still answers — with an empty but
/// valid trace document — rather than erroring or closing the stream.
#[test]
fn dump_with_recorder_disabled_returns_empty_trace() {
    let config = ServeConfig {
        flight_recorder: false,
        ..ServeConfig::default()
    };
    let server = Server::start(config, &[Bind::Tcp("127.0.0.1:0".into())], None).unwrap();
    let target = format!("tcp:{}", server.tcp_addr().unwrap());
    let mut client = ServeClient::connect(&target).unwrap();

    let resp = client.call(&eval(1, ModelRef::Inline(pipeline(4, 16)))).unwrap();
    assert!(matches!(resp, Response::EvalOk(_)));
    let trace = dump(&mut client);
    assert!(json::parses(&trace));
    assert_eq!(trace, "{\"traceEvents\":[]}");
    server.shutdown_and_join();
}
