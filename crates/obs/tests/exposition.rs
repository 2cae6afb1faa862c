//! Golden exports of a fixture `MetricsSnapshot` in which every counter
//! holds a distinct nonzero value, plus the metric-catalogue check that
//! every exported family is documented in `docs/OBSERVABILITY.md`.

use evolve_obs::{
    prometheus, BatchCounters, EngineCounters, EventCounters, FfCounters,
    LogHistogram, MetricsSnapshot, PhaseSnapshot, ResourceSnapshot, ServeCounters, ServeGauges,
};

fn hist(samples: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::default();
    for s in samples {
        h.record(*s);
    }
    h
}

/// Every counter of the five sets distinct and nonzero; resources,
/// phases and serve gauges set.
fn fixture() -> MetricsSnapshot {
    MetricsSnapshot {
        engine: EngineCounters {
            nodes_computed: 1001,
            arcs_evaluated: 1002,
            iterations_completed: 1003,
            lanes_evaluated: 1004,
            batched_iterations: 1005,
        },
        ff: FfCounters {
            promotions: 2001,
            demotions: 2002,
            fast_forwarded_iterations: 2003,
        },
        batch: BatchCounters {
            batch_width: 3001,
            batches_formed: 3002,
            lanes_batched: 3003,
            lanes_scalar: 3004,
            lockstep_iterations: 3005,
            kernel_chunked_sweeps: 3006,
            kernel_scalar_sweeps: 3007,
            eject_worklist: 3008,
            eject_empty_trace: 3009,
            eject_single_lane: 3010,
            eject_unsupported: 3011,
            eject_partitioned: 3012,
        },
        serve: ServeCounters {
            connections: 6001,
            requests: 6002,
            rejected: 6003,
            responses: 6004,
            errors: 6005,
            batches_full: 6006,
            batches_idle: 6007,
            batches_deadline: 6008,
            lanes_batched: 6009,
            lanes_scalar: 6010,
        },
        events: EventCounters {
            attaches: 7001,
            offers: 7002,
            replayed_offers: 7003,
            batch_sweeps: 7004,
            output_acks: 7006,
            promotions: 7007,
            demotions: 7008,
            lane_ejections: 7009,
            overflows: 7010,
            resets: 7011,
        },
        regimes: vec![(12, 3), (40, 5)],
        resources: vec![
            ResourceSnapshot {
                resource: 0,
                busy_ticks: 900,
                ops: 77,
                records: 4,
                out_of_order: 1,
                horizon_ticks: 1200,
                utilization: 0.75,
                durations: hist(&[0, 3, 100, 100]),
            },
            ResourceSnapshot {
                resource: 4,
                busy_ticks: 50,
                ops: 8,
                records: 2,
                out_of_order: 0,
                horizon_ticks: 400,
                utilization: 0.125,
                durations: hist(&[20, 30]),
            },
        ],
        phases: vec![
            PhaseSnapshot {
                phase: "queue_wait",
                hist: hist(&[1_500, 2_500, 40_000]),
            },
            PhaseSnapshot {
                phase: "eval",
                hist: hist(&[9_000]),
            },
        ],
        serve_gauges: Some(ServeGauges {
            queue_depth: 8101,
            connections: 8102,
            uptime_seconds: 12.25,
        }),
    }
}

/// The exposition with the build-dependent `evolve_build_info` labels
/// masked.
fn exposition() -> String {
    prometheus(&fixture())
        .replace(
            concat!("version=\"", env!("CARGO_PKG_VERSION"), "\""),
            "version=\"VERSION\"",
        )
        .replace("profile=\"debug\"", "profile=\"PROFILE\"")
        .replace("profile=\"release\"", "profile=\"PROFILE\"")
}

fn assert_golden(actual: &str, expected: &str) {
    if actual == expected {
        return;
    }
    let line = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
    panic!(
        "output differs from the golden file at line {}:\n  actual:   {:?}\n  expected: {:?}",
        line + 1,
        actual.lines().nth(line),
        expected.lines().nth(line),
    );
}

#[test]
fn prometheus_exposition_matches_golden() {
    assert_golden(&exposition(), include_str!("golden/metrics.prom"));
}

#[test]
fn snapshot_json_matches_golden() {
    assert_golden(
        &fixture().to_json().render(),
        include_str!("golden/metrics.json").trim_end(),
    );
}

/// `(family, kind)` rows of the catalogue table in docs/OBSERVABILITY.md.
/// A row may name several families, each in full inside backticks; a
/// `{label=}` suffix is not part of the name.
fn catalogue() -> Vec<(String, String)> {
    let doc = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/OBSERVABILITY.md"
    ));
    let section = doc
        .split("## Metric catalogue")
        .nth(1)
        .expect("docs/OBSERVABILITY.md has a metric catalogue");
    let section = section.split("\n## ").next().unwrap_or(section);
    let mut rows = Vec::new();
    for line in section.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let (names, kind) = (cells[1], cells[2]);
        for name in names.split('`').skip(1).step_by(2) {
            let name = name.split('{').next().unwrap_or(name);
            rows.push((name.to_string(), kind.to_string()));
        }
    }
    rows
}

#[test]
fn every_exported_family_is_in_the_catalogue() {
    let catalogue = catalogue();
    let mut missing = Vec::new();
    for line in exposition().lines() {
        let Some(rest) = line.strip_prefix("# TYPE ") else {
            continue;
        };
        let (family, kind) = rest.split_once(' ').expect("# TYPE <family> <kind>");
        if !catalogue.iter().any(|(n, k)| n == family && k == kind) {
            missing.push(format!("{family} ({kind})"));
        }
    }
    assert!(
        missing.is_empty(),
        "families missing from the docs/OBSERVABILITY.md catalogue: {missing:?}"
    );
}
