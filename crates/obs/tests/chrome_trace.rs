//! Golden Chrome-trace documents of the flight recorder and the trace
//! collector.

use evolve_des::Time;
use evolve_model::{ExecRecord, FunctionId, ResourceId};
use evolve_obs::{FlightRecorder, Phase, TraceCollector};

fn rec(resource: usize, start: u64, end: u64) -> ExecRecord {
    ExecRecord {
        resource: ResourceId::from_index(resource),
        function: FunctionId::from_index(0),
        stmt: 0,
        k: 0,
        start: Time::from_ticks(start),
        end: Time::from_ticks(end),
        ops: 1,
    }
}

#[test]
fn flight_recorder_document_matches_golden() {
    let recorder = FlightRecorder::new(2, 8);
    let shard = recorder.register_track("shard-0");
    // A track without spans still gets its thread-name metadata.
    recorder.register_track("shard-0/worker-1");
    let pipeline = recorder.intern("pipeline/8");
    let named = recorder.intern("named \"model\"");
    recorder.record(shard, Phase::QueueWait, 1, 1_000, 2_500, 0, 0);
    recorder.record(shard, Phase::Eval, 1, 2_500, 9_000, pipeline, 4);
    recorder.record(shard, Phase::Eval, 2, 2_500, 7_250, named, 4);
    recorder.record(shard, Phase::Write, 2, 9_000, 9_100, 0, 512);
    assert_eq!(
        recorder.render_chrome_trace(),
        include_str!("golden/flight.json").trim_end()
    );
}

#[test]
fn trace_collector_document_matches_golden() {
    let mut collector = TraceCollector::new();
    collector.add_records(1, &[rec(0, 0, 1_500), rec(0, 1_000, 2_000)]);
    collector.add_records(0, &[rec(2, 500, 750), rec(0, 3_000, 3_000)]);
    collector.add_records(0, &[rec(0, 4_000, 6_500)]);
    collector.push_span("drive b", 5.0, 9.5);
    collector.push_span("drive a", 1.0, 2.25);
    assert_eq!(
        collector.to_chrome_trace().render(),
        include_str!("golden/trace.json").trim_end()
    );
}
