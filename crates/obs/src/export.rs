//! Prometheus text-exposition rendering of a [`MetricsSnapshot`].
//!
//! The format is the plain-text exposition format (version 0.0.4): one
//! `# HELP` / `# TYPE` header per family, `evolve_`-prefixed metric
//! names, labels for per-resource series, and `_bucket`/`_sum`/`_count`
//! series for the log-bucketed duration histograms.

use std::fmt::Write as _;

use crate::metrics::MetricsSnapshot;

fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    family(out, name, help, "counter");
    let _ = writeln!(out, "{name} {value}");
}

fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    family(out, name, help, "gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Renders `snapshot` in the Prometheus text exposition format.
pub fn prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();

    // Build metadata first, so a scrape that is truncated mid-stream
    // still identifies the producing binary.
    family(
        &mut out,
        "evolve_build_info",
        "Build metadata; value is always 1",
        "gauge",
    );
    let _ = writeln!(
        out,
        "evolve_build_info{{version=\"{}\",profile=\"{}\"}} 1",
        env!("CARGO_PKG_VERSION"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );

    counter(
        &mut out,
        "evolve_engine_nodes_computed_total",
        "Graph nodes computed across all iterations",
        snapshot.engine.nodes_computed,
    );
    counter(
        &mut out,
        "evolve_engine_arcs_evaluated_total",
        "Arc-weight evaluations performed",
        snapshot.engine.arcs_evaluated,
    );
    counter(
        &mut out,
        "evolve_engine_iterations_completed_total",
        "Iterations fully computed",
        snapshot.engine.iterations_completed,
    );
    counter(
        &mut out,
        "evolve_engine_lanes_evaluated_total",
        "Scenario lanes evaluated by batched engines",
        snapshot.engine.lanes_evaluated,
    );
    counter(
        &mut out,
        "evolve_engine_batched_iterations_total",
        "Lockstep batched sweeps performed",
        snapshot.engine.batched_iterations,
    );

    counter(
        &mut out,
        "evolve_ff_promotions_total",
        "Fast-forward promotions to template replay",
        snapshot.ff.promotions,
    );
    counter(
        &mut out,
        "evolve_ff_demotions_total",
        "Fast-forward demotions back to the full sweep",
        snapshot.ff.demotions,
    );
    counter(
        &mut out,
        "evolve_ff_fast_forwarded_iterations_total",
        "Iterations answered by template replay",
        snapshot.ff.fast_forwarded_iterations,
    );

    family(
        &mut out,
        "evolve_batch_width",
        "Configured lockstep batch width",
        "gauge",
    );
    let _ = writeln!(out, "evolve_batch_width {}", snapshot.batch.batch_width);
    counter(
        &mut out,
        "evolve_batch_batches_formed_total",
        "Lockstep batches driven to completion",
        snapshot.batch.batches_formed,
    );
    counter(
        &mut out,
        "evolve_batch_lanes_batched_total",
        "Scenarios evaluated as lanes of a batch",
        snapshot.batch.lanes_batched,
    );
    counter(
        &mut out,
        "evolve_batch_lanes_scalar_total",
        "Scenarios evaluated on the scalar path",
        snapshot.batch.lanes_scalar,
    );
    counter(
        &mut out,
        "evolve_batch_lockstep_iterations_total",
        "Lockstep sweeps executed across all batches",
        snapshot.batch.lockstep_iterations,
    );
    family(
        &mut out,
        "evolve_batch_kernel_sweeps_total",
        "Lockstep sweeps by fold-kernel dispatch path",
        "counter",
    );
    for (path, value) in [
        ("chunked", snapshot.batch.kernel_chunked_sweeps),
        ("scalar", snapshot.batch.kernel_scalar_sweeps),
    ] {
        let _ = writeln!(out, "evolve_batch_kernel_sweeps_total{{path=\"{path}\"}} {value}");
    }
    family(
        &mut out,
        "evolve_batch_ejections_total",
        "Scenarios ejected from batching to the scalar path, by reason",
        "counter",
    );
    for (reason, value) in [
        ("worklist", snapshot.batch.eject_worklist),
        ("empty_trace", snapshot.batch.eject_empty_trace),
        ("single_lane", snapshot.batch.eject_single_lane),
        ("unsupported", snapshot.batch.eject_unsupported),
        ("partitioned", snapshot.batch.eject_partitioned),
    ] {
        let _ = writeln!(out, "evolve_batch_ejections_total{{reason=\"{reason}\"}} {value}");
    }

    counter(
        &mut out,
        "evolve_delta_chains_formed_total",
        "Base+sibling delta chains formed by the sweep planner",
        snapshot.delta.chains_formed,
    );
    counter(
        &mut out,
        "evolve_delta_lanes_base_total",
        "Scenarios evaluated as fully-swept delta-chain bases",
        snapshot.delta.lanes_base,
    );
    counter(
        &mut out,
        "evolve_delta_lanes_delta_total",
        "Scenarios evaluated against a base cache",
        snapshot.delta.lanes_delta,
    );
    counter(
        &mut out,
        "evolve_delta_calls_total",
        "Input offers answered by the delta sweep",
        snapshot.delta.calls_delta,
    );
    counter(
        &mut out,
        "evolve_delta_calls_full_total",
        "Offers a delta-linked engine evaluated fully",
        snapshot.delta.calls_full,
    );
    counter(
        &mut out,
        "evolve_delta_nodes_reused_total",
        "Node instants copied from the base cache",
        snapshot.delta.nodes_reused,
    );
    counter(
        &mut out,
        "evolve_delta_nodes_recomputed_total",
        "Node instants recomputed by the change frontier",
        snapshot.delta.nodes_recomputed,
    );
    counter(
        &mut out,
        "evolve_delta_nodes_settled_total",
        "Recomputed instants that matched the cache (frontier early-out)",
        snapshot.delta.nodes_settled,
    );
    counter(
        &mut out,
        "evolve_delta_frontier_collapses_total",
        "Delta calls that recomputed zero nodes",
        snapshot.delta.frontier_collapses,
    );
    family(
        &mut out,
        "evolve_delta_ejections_total",
        "Scenarios ejected from delta chains to full evaluation, by reason",
        "counter",
    );
    for (reason, value) in [
        ("multi_input", snapshot.delta.eject_multi_input),
        ("output_acks", snapshot.delta.eject_output_acks),
        ("worklist", snapshot.delta.eject_worklist),
        ("structure_mismatch", snapshot.delta.eject_structure_mismatch),
    ] {
        let _ = writeln!(out, "evolve_delta_ejections_total{{reason=\"{reason}\"}} {value}");
    }

    counter(
        &mut out,
        "evolve_partition_parallel_iterations_total",
        "Iterations evaluated by the partitioned parallel sweep",
        snapshot.partition.parallel_iterations,
    );
    counter(
        &mut out,
        "evolve_partition_serial_iterations_total",
        "Serial fast-path iterations while a partition runtime was attached",
        snapshot.partition.serial_iterations,
    );
    gauge(
        &mut out,
        "evolve_partition_partitions",
        "Planned partitions of the largest partition plan seen",
        snapshot.partition.partitions,
    );
    gauge(
        &mut out,
        "evolve_partition_planned_barriers",
        "Levels with a planned barrier in the largest plan seen",
        snapshot.partition.planned_barriers,
    );
    gauge(
        &mut out,
        "evolve_partition_frontier_arcs",
        "Cross-partition zero-delay arcs in the largest plan seen",
        snapshot.partition.frontier_arcs,
    );
    counter(
        &mut out,
        "evolve_partition_barrier_crossings_total",
        "Spin-barrier crossings executed, summed over workers",
        snapshot.partition.barrier_crossings,
    );
    counter(
        &mut out,
        "evolve_partition_speculative_reads_total",
        "Optimistic cross-partition reads served from the frontier cache",
        snapshot.partition.speculative_reads,
    );
    counter(
        &mut out,
        "evolve_partition_speculation_misses_total",
        "Speculative reads whose cached value turned out stale",
        snapshot.partition.speculation_misses,
    );
    counter(
        &mut out,
        "evolve_partition_rollbacks_total",
        "Iterations that ran the rollback pass",
        snapshot.partition.rollbacks,
    );
    counter(
        &mut out,
        "evolve_partition_slots_recomputed_total",
        "Slots recomputed by rollback change propagation",
        snapshot.partition.slots_recomputed,
    );

    counter(
        &mut out,
        "evolve_serve_connections_total",
        "Client connections accepted by the serve daemon",
        snapshot.serve.connections,
    );
    counter(
        &mut out,
        "evolve_serve_requests_total",
        "Requests admitted into shard queues",
        snapshot.serve.requests,
    );
    counter(
        &mut out,
        "evolve_serve_rejected_total",
        "Requests shed with a BUSY response (queue over max_queue_depth)",
        snapshot.serve.rejected,
    );
    counter(
        &mut out,
        "evolve_serve_responses_total",
        "Successful evaluation responses written",
        snapshot.serve.responses,
    );
    counter(
        &mut out,
        "evolve_serve_errors_total",
        "Error responses written",
        snapshot.serve.errors,
    );
    family(
        &mut out,
        "evolve_serve_batches_total",
        "Affinity batches dispatched, by trigger",
        "counter",
    );
    for (trigger, value) in [
        ("full", snapshot.serve.batches_full),
        ("idle", snapshot.serve.batches_idle),
        ("deadline", snapshot.serve.batches_deadline),
    ] {
        let _ = writeln!(out, "evolve_serve_batches_total{{trigger=\"{trigger}\"}} {value}");
    }
    family(
        &mut out,
        "evolve_serve_lanes_total",
        "Request lanes evaluated, by path",
        "counter",
    );
    for (path, value) in [
        ("batched", snapshot.serve.lanes_batched),
        ("scalar", snapshot.serve.lanes_scalar),
        ("delta", snapshot.serve.lanes_delta),
    ] {
        let _ = writeln!(out, "evolve_serve_lanes_total{{path=\"{path}\"}} {value}");
    }

    if let Some(gauges) = &snapshot.serve_gauges {
        gauge(
            &mut out,
            "evolve_serve_queue_depth",
            "Requests currently queued across all shards",
            gauges.queue_depth,
        );
        gauge(
            &mut out,
            "evolve_serve_connections",
            "Live client connections",
            gauges.connections,
        );
        family(
            &mut out,
            "evolve_uptime_seconds",
            "Seconds since the server started",
            "gauge",
        );
        let _ = writeln!(out, "evolve_uptime_seconds {}", gauges.uptime_seconds);
    }

    if !snapshot.phases.is_empty() {
        family(
            &mut out,
            "evolve_serve_phase_seconds",
            "Request-lifecycle phase latency (flight recorder; power-of-two buckets)",
            "histogram",
        );
        for p in &snapshot.phases {
            for (le_ns, cum) in p.hist.cumulative_buckets() {
                let _ = writeln!(
                    out,
                    "evolve_serve_phase_seconds_bucket{{phase=\"{}\",le=\"{}\"}} {cum}",
                    p.phase,
                    le_ns as f64 / 1e9
                );
            }
            let _ = writeln!(
                out,
                "evolve_serve_phase_seconds_bucket{{phase=\"{}\",le=\"+Inf\"}} {}",
                p.phase,
                p.hist.count()
            );
            let _ = writeln!(
                out,
                "evolve_serve_phase_seconds_sum{{phase=\"{}\"}} {}",
                p.phase,
                p.hist.sum() as f64 / 1e9
            );
            let _ = writeln!(
                out,
                "evolve_serve_phase_seconds_count{{phase=\"{}\"}} {}",
                p.phase,
                p.hist.count()
            );
        }
    }

    family(
        &mut out,
        "evolve_events_total",
        "Engine lifecycle events observed, by kind",
        "counter",
    );
    for (kind, value) in [
        ("attach", snapshot.events.attaches),
        ("offer", snapshot.events.offers),
        ("offer_replayed", snapshot.events.replayed_offers),
        ("batch_sweep", snapshot.events.batch_sweeps),
        ("batch_sweep_replayed", snapshot.events.replayed_batch_sweeps),
        ("output_ack", snapshot.events.output_acks),
        ("ff_promoted", snapshot.events.promotions),
        ("ff_demoted", snapshot.events.demotions),
        ("lane_ejected", snapshot.events.lane_ejections),
        ("overflow", snapshot.events.overflows),
        ("reset", snapshot.events.resets),
    ] {
        let _ = writeln!(out, "evolve_events_total{{kind=\"{kind}\"}} {value}");
    }

    counter(
        &mut out,
        "evolve_boundary_events_total",
        "Interface instants the equivalent model still simulates",
        snapshot.events.boundary_events(),
    );

    family(
        &mut out,
        "evolve_event_ratio",
        "Kernel events avoided plus boundary events, over boundary events (Table I)",
        "gauge",
    );
    match snapshot.event_ratio() {
        Some(ratio) => {
            let _ = writeln!(out, "evolve_event_ratio {ratio}");
        }
        None => {
            let _ = writeln!(out, "evolve_event_ratio NaN");
        }
    }

    family(
        &mut out,
        "evolve_resource_busy_ticks_total",
        "Observation-time busy ticks per resource",
        "counter",
    );
    for r in &snapshot.resources {
        let _ = writeln!(
            out,
            "evolve_resource_busy_ticks_total{{resource=\"{}\"}} {}",
            r.resource, r.busy_ticks
        );
    }
    family(
        &mut out,
        "evolve_resource_ops_total",
        "Abstract operations executed per resource",
        "counter",
    );
    for r in &snapshot.resources {
        let _ = writeln!(
            out,
            "evolve_resource_ops_total{{resource=\"{}\"}} {}",
            r.resource, r.ops
        );
    }
    family(
        &mut out,
        "evolve_resource_records_total",
        "Execution records observed per resource",
        "counter",
    );
    for r in &snapshot.resources {
        let _ = writeln!(
            out,
            "evolve_resource_records_total{{resource=\"{}\"}} {}",
            r.resource, r.records
        );
    }
    family(
        &mut out,
        "evolve_resource_out_of_order_total",
        "Records clamped by the streaming frontier (busy time exact iff 0)",
        "counter",
    );
    for r in &snapshot.resources {
        let _ = writeln!(
            out,
            "evolve_resource_out_of_order_total{{resource=\"{}\"}} {}",
            r.resource, r.out_of_order
        );
    }
    family(
        &mut out,
        "evolve_resource_utilization",
        "Busy ticks over observed horizon per resource",
        "gauge",
    );
    for r in &snapshot.resources {
        let _ = writeln!(
            out,
            "evolve_resource_utilization{{resource=\"{}\"}} {}",
            r.resource, r.utilization
        );
    }
    family(
        &mut out,
        "evolve_resource_exec_duration_ticks",
        "Execution record durations per resource (power-of-two buckets)",
        "histogram",
    );
    for r in &snapshot.resources {
        for (le, cum) in r.durations.cumulative_buckets() {
            let _ = writeln!(
                out,
                "evolve_resource_exec_duration_ticks_bucket{{resource=\"{}\",le=\"{le}\"}} {cum}",
                r.resource
            );
        }
        let _ = writeln!(
            out,
            "evolve_resource_exec_duration_ticks_bucket{{resource=\"{}\",le=\"+Inf\"}} {}",
            r.resource,
            r.durations.count()
        );
        let _ = writeln!(
            out,
            "evolve_resource_exec_duration_ticks_sum{{resource=\"{}\"}} {}",
            r.resource,
            r.durations.sum()
        );
        let _ = writeln!(
            out,
            "evolve_resource_exec_duration_ticks_count{{resource=\"{}\"}} {}",
            r.resource,
            r.durations.count()
        );
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
        sink.record_serve(crate::ServeCounters {
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
