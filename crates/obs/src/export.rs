//! Prometheus text-exposition rendering of a [`MetricsSnapshot`].
//!
//! The format is the plain-text exposition format (version 0.0.4): one
//! `# HELP` / `# TYPE` header per family, `evolve_`-prefixed metric
//! names, labels for per-resource series, and `_bucket`/`_sum`/`_count`
//! series for the log-bucketed duration histograms.

use std::fmt::{Display, Write as _};

use crate::metrics::{LogHistogram, MetricsSnapshot, ResourceSnapshot};

/// Writes a family's `# HELP` and `# TYPE` header lines.
pub(crate) fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes one sample line, `name{key="label",...} value`.
pub(crate) fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: impl Display) {
    out.push_str(name);
    for (i, (key, label)) in labels.iter().enumerate() {
        let _ = write!(out, "{}{key}=\"{label}\"", if i == 0 { '{' } else { ',' });
    }
    if !labels.is_empty() {
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// Writes one labelled histogram's cumulative `_bucket` series (closed
/// by `+Inf`), `_sum` and `_count`; `unit` renders bucket bounds and the
/// sum.
fn histogram(
    out: &mut String,
    name: &str,
    label: (&str, &str),
    hist: &LogHistogram,
    unit: impl Fn(u64) -> String,
) {
    let bucket = format!("{name}_bucket");
    for (le, cum) in hist.cumulative_buckets() {
        sample(out, &bucket, &[label, ("le", &unit(le))], cum);
    }
    sample(out, &bucket, &[label, ("le", "+Inf")], hist.count());
    sample(out, &format!("{name}_sum"), &[label], unit(hist.sum()));
    sample(out, &format!("{name}_count"), &[label], hist.count());
}

/// Renders `snapshot` in the Prometheus text exposition format.
pub fn prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();

    // Build metadata first, so a scrape that is truncated mid-stream
    // still identifies the producing binary.
    let name = "evolve_build_info";
    family(&mut out, name, "Build metadata; value is always 1", "gauge");
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let labels = [("version", env!("CARGO_PKG_VERSION")), ("profile", profile)];
    sample(&mut out, name, &labels, 1);

    snapshot.engine.write_exposition(&mut out);
    snapshot.ff.write_exposition(&mut out);
    snapshot.batch.write_exposition(&mut out);
    snapshot.serve.write_exposition(&mut out);

    if let Some(gauges) = &snapshot.serve_gauges {
        for (name, help, value) in [
            (
                "evolve_serve_queue_depth",
                "Requests currently queued across all shards",
                gauges.queue_depth.to_string(),
            ),
            (
                "evolve_serve_connections",
                "Live client connections",
                gauges.connections.to_string(),
            ),
            (
                "evolve_uptime_seconds",
                "Seconds since the server started",
                gauges.uptime_seconds.to_string(),
            ),
        ] {
            family(&mut out, name, help, "gauge");
            sample(&mut out, name, &[], value);
        }
    }

    if !snapshot.phases.is_empty() {
        let name = "evolve_serve_phase_seconds";
        let help = "Request-lifecycle phase latency (flight recorder; power-of-two buckets)";
        family(&mut out, name, help, "histogram");
        for p in &snapshot.phases {
            let seconds = |ns: u64| (ns as f64 / 1e9).to_string();
            histogram(&mut out, name, ("phase", p.phase), &p.hist, seconds);
        }
    }

    snapshot.events.write_exposition(&mut out);

    let name = "evolve_boundary_events_total";
    family(
        &mut out,
        name,
        "Interface instants the equivalent model still simulates",
        "counter",
    );
    sample(&mut out, name, &[], snapshot.events.boundary_events());

    let name = "evolve_event_ratio";
    family(
        &mut out,
        name,
        "Kernel events avoided plus boundary events, over boundary events (Table I)",
        "gauge",
    );
    let ratio = snapshot.event_ratio().map(|r| r.to_string());
    sample(&mut out, name, &[], ratio.as_deref().unwrap_or("NaN"));

    type Column = fn(&ResourceSnapshot) -> String;
    let columns: [(&str, &str, &str, Column); 5] = [
        (
            "evolve_resource_busy_ticks_total",
            "Observation-time busy ticks per resource",
            "counter",
            |r| r.busy_ticks.to_string(),
        ),
        (
            "evolve_resource_ops_total",
            "Abstract operations executed per resource",
            "counter",
            |r| r.ops.to_string(),
        ),
        (
            "evolve_resource_records_total",
            "Execution records observed per resource",
            "counter",
            |r| r.records.to_string(),
        ),
        (
            "evolve_resource_out_of_order_total",
            "Records clamped by the streaming frontier (busy time exact iff 0)",
            "counter",
            |r| r.out_of_order.to_string(),
        ),
        (
            "evolve_resource_utilization",
            "Busy ticks over observed horizon per resource",
            "gauge",
            |r| r.utilization.to_string(),
        ),
    ];
    for (name, help, kind, value) in columns {
        family(&mut out, name, help, kind);
        for r in &snapshot.resources {
            let resource = r.resource.to_string();
            sample(&mut out, name, &[("resource", &resource)], value(r));
        }
    }
    let name = "evolve_resource_exec_duration_ticks";
    family(
        &mut out,
        name,
        "Execution record durations per resource (power-of-two buckets)",
        "histogram",
    );
    for r in &snapshot.resources {
        let resource = r.resource.to_string();
        let ticks = |t: u64| t.to_string();
        histogram(&mut out, name, ("resource", &resource), &r.durations, ticks);
    }

    out
}

#[cfg(test)]
mod tests {
    use evolve_des::Time;
    use evolve_model::{ExecRecord, FunctionId, ResourceId};

    use crate::metrics::TelemetrySink;
    use crate::Observer as _;

    use super::*;

    #[test]
    fn prometheus_exposition_shape() {
        let mut sink = TelemetrySink::new();
        sink.on_records(
            0,
            &[ExecRecord {
                resource: ResourceId::from_index(2),
                function: FunctionId::from_index(0),
                stmt: 0,
                k: 0,
                start: Time::from_ticks(0),
                end: Time::from_ticks(10),
                ops: 100,
            }],
        );
        sink.on_event(crate::EngineEvent::Offer {
            k: 0,
            lane: 0,
            replayed: false,
        });
        sink.serve.merge(&crate::ServeCounters {
            requests: 5,
            rejected: 2,
            batches_full: 1,
            batches_idle: 3,
            lanes_batched: 4,
            ..crate::ServeCounters::default()
        });
        let text = prometheus(&sink.snapshot());
        assert!(text.contains("# TYPE evolve_engine_nodes_computed_total counter"));
        assert!(text.contains("evolve_serve_requests_total 5"));
        assert!(text.contains("evolve_serve_rejected_total 2"));
        assert!(text.contains("evolve_serve_batches_total{trigger=\"full\"} 1"));
        assert!(text.contains("evolve_serve_batches_total{trigger=\"idle\"} 3"));
        assert!(text.contains("evolve_serve_batches_total{trigger=\"deadline\"} 0"));
        assert!(text.contains("evolve_serve_lanes_total{path=\"batched\"} 4"));
        assert!(text.contains("evolve_resource_busy_ticks_total{resource=\"2\"} 10"));
        assert!(text.contains("evolve_events_total{kind=\"offer\"} 1"));
        assert!(text.contains("evolve_resource_exec_duration_ticks_bucket{resource=\"2\",le=\"16\"} 1"));
        assert!(text.contains("evolve_resource_exec_duration_ticks_bucket{resource=\"2\",le=\"+Inf\"} 1"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn empty_snapshot_renders_nan_ratio() {
        let text = prometheus(&TelemetrySink::new().snapshot());
        assert!(text.contains("evolve_event_ratio NaN"));
    }

    #[test]
    fn build_info_always_present() {
        let text = prometheus(&TelemetrySink::new().snapshot());
        assert!(text.contains("# TYPE evolve_build_info gauge"));
        assert!(text.contains(&format!(
            "evolve_build_info{{version=\"{}\",profile=\"",
            env!("CARGO_PKG_VERSION")
        )));
    }

    #[test]
    fn serve_gauges_and_phase_histograms_render() {
        use crate::flight::{FlightRecorder, Phase, TrackId};
        use crate::metrics::ServeGauges;

        let recorder = FlightRecorder::new(1, 8);
        let track = recorder.register_track("shard-0");
        assert_ne!(track, TrackId::INVALID);
        recorder.record(track, Phase::QueueWait, 1, 0, 1_500, 0, 0);
        recorder.record(track, Phase::Eval, 1, 1_500, 9_000, 0, 1);

        let mut snapshot = TelemetrySink::new().snapshot();
        snapshot.phases = recorder.phase_snapshots();
        snapshot.serve_gauges = Some(ServeGauges {
            queue_depth: 3,
            connections: 2,
            uptime_seconds: 1.5,
        });
        let text = prometheus(&snapshot);
        assert!(text.contains("evolve_serve_queue_depth 3"));
        assert!(text.contains("evolve_serve_connections 2"));
        assert!(text.contains("evolve_uptime_seconds 1.5"));
        assert!(text.contains("# TYPE evolve_serve_phase_seconds histogram"));
        assert!(text.contains("evolve_serve_phase_seconds_count{phase=\"queue_wait\"} 1"));
        assert!(text.contains("evolve_serve_phase_seconds_bucket{phase=\"eval\",le=\"+Inf\"} 1"));
        // 1500 ns rounds into the 2^11 bucket = 2048 ns = 2.048e-6 s.
        assert!(text.contains("evolve_serve_phase_seconds_bucket{phase=\"queue_wait\",le=\"0.000002048\"} 1"));
    }
}
