//! Daemon lifecycle: admission-control load shedding, graceful SIGTERM
//! drain of in-flight batches, and the live `/metrics` listener.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use evolve_core::EvalBackend;
use evolve_explore::{ModelKind, ModelSpec, TraceSpec};
use evolve_serve::{
    Bind, EvalRequest, ModelRef, Request, Response, ServeClient, ServeConfig, Server,
    TracePayload,
};

#[allow(unsafe_code)]
mod sys {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }

    pub fn sigterm(pid: u32) {
        // SAFETY: plain kill(2) on a child this test spawned.
        unsafe {
            kill(pid as i32, 15);
        }
    }

    pub fn sigusr1(pid: u32) {
        // SAFETY: as above.
        unsafe {
            kill(pid as i32, 10);
        }
    }
}

fn spec() -> ModelSpec {
    ModelSpec {
        kind: ModelKind::Pipeline {
            stages: 4,
            base: 100,
            per_unit: 3,
        },
        padding: 0,
        backend: EvalBackend::Compiled,
    }
}

fn eval(id: u64) -> Request {
    Request::Eval(EvalRequest {
        id,
        model: ModelRef::Inline(spec()),
        trace: TracePayload::Generated(TraceSpec {
            tokens: 8,
            min_size: 1,
            max_size: 64,
            mean_period: 300,
            seed: 0x100 + id,
        }),
    })
}

/// Beyond `max_queue_depth` pending requests the daemon sheds load with
/// BUSY instead of queueing; the admitted requests still drain to
/// completion at shutdown.
#[test]
fn overload_sheds_busy_and_drains_admitted_requests() {
    let server = Server::start(
        ServeConfig {
            shards: 1,
            batch_width: 8,
            max_batch_delay: Duration::from_secs(30),
            max_queue_depth: 3,
            ..ServeConfig::default()
        },
        &[Bind::Tcp("127.0.0.1:0".into())],
        None,
    )
    .unwrap();
    let mut client = ServeClient::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();

    // Five pipelined requests against depth 3: the batch (width 8, 30 s
    // deadline) cannot dispatch, so exactly two are shed.
    for id in 0..5 {
        client.send(&eval(id)).unwrap();
    }
    let busy_a = client.recv().unwrap();
    let busy_b = client.recv().unwrap();
    assert_eq!(busy_a, Response::Busy { id: 3 });
    assert_eq!(busy_b, Response::Busy { id: 4 });
    assert_eq!(server.rejected(), 2);

    // Graceful shutdown answers every admitted request.
    server.shutdown_and_join();
    let mut drained = Vec::new();
    for _ in 0..3 {
        match client.recv().unwrap() {
            Response::EvalOk(ok) => drained.push(ok.id),
            other => panic!("expected a drained EvalOk, got {other:?}"),
        }
    }
    drained.sort_unstable();
    assert_eq!(drained, vec![0, 1, 2]);
    assert!(client.recv().is_err(), "connection should close after drain");
}

/// The `/metrics` listener serves a parsable Prometheus exposition with
/// the serve counter families, folded across shards.
#[test]
fn metrics_listener_serves_prometheus_text() {
    let server = Server::start(
        ServeConfig {
            shards: 2,
            batch_width: 1,
            ..ServeConfig::default()
        },
        &[Bind::Tcp("127.0.0.1:0".into())],
        Some("127.0.0.1:0"),
    )
    .unwrap();
    let mut client = ServeClient::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();
    for id in 0..4 {
        match client.call(&eval(id)).unwrap() {
            Response::EvalOk(_) => {}
            other => panic!("expected EvalOk, got {other:?}"),
        }
    }

    let metrics_addr = server.metrics_addr().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let body = loop {
        let body = http_get(&metrics_addr.to_string(), "/metrics");
        if body.contains("evolve_serve_requests_total 4") || Instant::now() > deadline {
            break body;
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(body.contains("# TYPE evolve_serve_requests_total counter"));
    assert!(body.contains("evolve_serve_requests_total 4"));
    assert!(body.contains("evolve_serve_responses_total 4"));
    assert!(body.contains("evolve_serve_rejected_total 0"));
    assert!(body.contains("evolve_serve_connections_total 1"));
    assert!(body.contains(r#"evolve_serve_lanes_total{path="scalar"}"#));
    // Engine families flow through the same exposition.
    assert!(body.contains("evolve_engine_nodes_computed_total"));
    // Live gauges, identity, and the flight-recorder phase histograms.
    assert!(body.contains("evolve_serve_queue_depth "));
    assert!(body.contains("evolve_serve_connections 1"));
    assert!(body.contains("# TYPE evolve_build_info gauge"));
    assert!(body.contains("evolve_uptime_seconds "));
    assert!(body.contains("# TYPE evolve_serve_phase_seconds histogram"));
    assert!(body.contains("evolve_serve_phase_seconds_count{phase=\"eval\"} "));

    let missing = http_get(&metrics_addr.to_string(), "/nope");
    assert!(missing.contains("not found"));
    server.shutdown_and_join();
}

fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("metrics listener reachable");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn wait_for_state(path: &PathBuf, child: &mut Child) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(state) = std::fs::read_to_string(path) {
            if state.contains("pid=") {
                return state;
            }
        }
        if let Some(status) = child.try_wait().unwrap() {
            panic!("evolved exited early: {status}");
        }
        assert!(Instant::now() < deadline, "state file never appeared");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// SIGTERM on the real daemon binary drains in-flight batches — every
/// admitted request is answered — and the process exits 0, also with its
/// stderr on `/dev/full`, where every diagnostic write fails.
#[test]
fn sigterm_drains_in_flight_batches_and_exits_zero() {
    let full = || std::fs::OpenOptions::new().write(true).open("/dev/full").unwrap();
    for (run, stderr) in [("null", Stdio::null()), ("full", Stdio::from(full()))] {
        let dir = std::env::temp_dir().join(format!("evolved-test-{}-{run}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("evolved.sock");
        let state = dir.join("evolved.state");
        let _ = std::fs::remove_file(&state);

        let mut child = Command::new(env!("CARGO_BIN_EXE_evolved"))
            .args([
                "--unix",
                socket.to_str().unwrap(),
                "--shards",
                "1",
                "--batch-width",
                "8",
                "--max-batch-delay-us",
                "30000000",
                "--state-file",
                state.to_str().unwrap(),
            ])
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .expect("spawn evolved");
        wait_for_state(&state, &mut child);

        let mut client = ServeClient::connect_unix(&socket).unwrap();
        // Three pipelined requests parked behind a 30 s batching deadline:
        // only the drain can answer them.
        for id in 0..3 {
            client.send(&eval(id)).unwrap();
        }
        std::thread::sleep(Duration::from_millis(300));
        sys::sigterm(child.id());

        let mut drained = Vec::new();
        for _ in 0..3 {
            match client.recv().expect("drained response") {
                Response::EvalOk(ok) => drained.push(ok.id),
                other => panic!("expected a drained EvalOk, got {other:?}"),
            }
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2], "stderr {run}");

        let status = child.wait().unwrap();
        assert!(status.success(), "evolved should exit 0 with stderr {run}, got {status}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// SIGUSR1 on the real daemon binary dumps the flight recorder to the
/// `--trace-out` path without disturbing service, and shutdown writes a
/// final dump.
#[cfg(target_os = "linux")]
#[test]
fn sigusr1_dumps_flight_recorder_to_trace_out() {
    let dir = std::env::temp_dir().join(format!("evolved-usr1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("evolved.sock");
    let state = dir.join("evolved.state");
    let trace = dir.join("trace.json");

    let mut child = Command::new(env!("CARGO_BIN_EXE_evolved"))
        .args([
            "--unix",
            socket.to_str().unwrap(),
            "--shards",
            "1",
            "--state-file",
            state.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn evolved");
    wait_for_state(&state, &mut child);

    let mut client = ServeClient::connect_unix(&socket).unwrap();
    for id in 0..3 {
        match client.call(&eval(id)).unwrap() {
            Response::EvalOk(_) => {}
            other => panic!("expected EvalOk, got {other:?}"),
        }
    }

    sys::sigusr1(child.id());
    let deadline = Instant::now() + Duration::from_secs(10);
    let dumped = loop {
        if let Ok(body) = std::fs::read_to_string(&trace) {
            break body;
        }
        assert!(Instant::now() < deadline, "SIGUSR1 never produced a trace dump");
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(evolve_obs::json::parses(&dumped), "dumped trace is not valid JSON");
    assert!(dumped.contains("\"name\":\"eval\""), "dump has no eval spans");

    // Service is undisturbed after the dump.
    match client.call(&eval(99)).unwrap() {
        Response::EvalOk(ok) => assert_eq!(ok.id, 99),
        other => panic!("post-dump eval failed: {other:?}"),
    }

    sys::sigterm(child.id());
    let status = child.wait().unwrap();
    assert!(status.success(), "evolved should exit 0, got {status}");
    let final_dump = std::fs::read_to_string(&trace).expect("shutdown trace dump");
    assert!(evolve_obs::json::parses(&final_dump));
    let _ = std::fs::remove_dir_all(&dir);
}
