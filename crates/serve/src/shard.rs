//! Shard workers: per-core evaluation loops with ModelSpec-affinity
//! continuous batching.
//!
//! Each shard owns its engine caches outright (no locks on the hot
//! path). Admitted requests are grouped by exact [`ModelSpec`]; a group
//! dispatches the moment it fills the configured batch width, or at the
//! `max_batch_delay` deadline if it is still underfull — so lanes fill
//! toward the SIMD chunk width under load while a lone request never
//! waits longer than the deadline. A new group waits only when its
//! spec's recent arrival rate at the shard predicts a lane-mate within
//! that deadline ([`lane_mate_unlikely`]); otherwise it dispatches at
//! once.

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use evolve_core::{EvalBackend, FastForwardStats};
use evolve_explore::cache::{
    drive_prepared, drive_prepared_batch, fold_drive, prepare, prepare_batch, DeltaMode,
    EngineCaches, EngineOptions, PreparedDrive,
};
use evolve_explore::{ModelSpec, ScenarioOutcome};
use evolve_model::Arrival;
use evolve_obs::{
    BatchCounters, FlightRecorder, MetricsSnapshot, Phase, ServeCounters, TelemetrySink, TrackId,
};

use crate::net::Conn;
use crate::protocol::{put_response_frame, EvalResponse, Response};
use crate::server::ServeConfig;

/// How often a shard republishes its metrics snapshot at most.
const PUBLISH_INTERVAL: Duration = Duration::from_millis(25);

/// Receiver poll granularity while no group is pending.
const IDLE_TICK: Duration = Duration::from_millis(200);

/// One admitted evaluation request, en route to its shard.
pub(crate) struct Job {
    pub id: u64,
    pub spec: ModelSpec,
    pub arrivals: Vec<Arrival>,
    pub writer: Arc<Mutex<Conn>>,
    /// Server-assigned correlation id (admission order).
    pub corr: u64,
    /// Recorder instant of admission (queue-wait span start).
    pub admitted_ns: u64,
    /// Recorder instants around wire decode, measured on the reader
    /// thread and recorded here (single writer per track).
    pub decode: (u64, u64),
    /// Interned span label: the named-model id or the inline family tag.
    pub label: u32,
}

/// A shard's public face: the job queue, its admission depth gauge, and
/// the snapshot slot the metrics listener folds.
pub(crate) struct ShardHandle {
    pub sender: Sender<Job>,
    pub depth: Arc<AtomicUsize>,
    pub published: Arc<Mutex<MetricsSnapshot>>,
    pub join: JoinHandle<()>,
}

/// Spawns one shard worker thread.
pub(crate) fn spawn_shard(
    index: usize,
    cfg: Arc<ServeConfig>,
    flight: Option<Arc<FlightRecorder>>,
) -> ShardHandle {
    let (sender, receiver) = mpsc::channel::<Job>();
    let depth = Arc::new(AtomicUsize::new(0));
    let published = Arc::new(Mutex::new(MetricsSnapshot::default()));
    let worker_depth = Arc::clone(&depth);
    let worker_published = Arc::clone(&published);
    // Track registration happens here, before the thread exists, so the
    // dump's track order is deterministic: shard-0, shard-1…
    let flight = flight.map(|recorder| {
        let track = recorder.register_track(&format!("shard-{index}"));
        ShardFlight { recorder, track }
    });
    let join = std::thread::Builder::new()
        .name(format!("evolve-shard-{index}"))
        .spawn(move || {
            Worker::new(cfg, worker_depth, worker_published, flight).run(receiver);
        })
        .expect("spawn shard worker");
    ShardHandle {
        sender,
        depth,
        published,
        join,
    }
}

struct Group {
    jobs: Vec<Job>,
    first_at: Instant,
    /// Recorder instant of group creation (batch-form span start).
    formed_ns: u64,
}

/// Why an affinity group dispatched; each counts in its own
/// `evolve_serve_batches_total` series.
#[derive(Clone, Copy, Debug)]
enum Trigger {
    /// The group holds `batch_width` lanes.
    Full,
    /// The spec's recent arrivals predict no lane-mate before the
    /// deadline.
    Idle,
    /// The oldest lane waited out `max_batch_delay`, or the shard is
    /// draining for shutdown.
    Deadline,
}

/// Whether waiting is unlikely to collect a lane-mate. `recent` holds a
/// spec's latest arrival instants at this shard, oldest first. When
/// `width` of them span more than `width × window`, their mean gap
/// exceeds the window, so fewer than one lane-mate is expected before the
/// deadline. With fewer than `width` on record there is no rate to go by
/// and the group waits.
fn lane_mate_unlikely(recent: &VecDeque<Instant>, width: usize, window: Duration) -> bool {
    let (Some(first), Some(last)) = (recent.front(), recent.back()) else {
        return false;
    };
    let horizon = u32::try_from(width)
        .ok()
        .and_then(|w| window.checked_mul(w))
        .unwrap_or(Duration::MAX);
    recent.len() >= width && last.saturating_duration_since(*first) > horizon
}

/// A shard's view of the flight recorder: its own track (the single
/// writer is the shard thread).
struct ShardFlight {
    recorder: Arc<FlightRecorder>,
    track: TrackId,
}

impl ShardFlight {
    fn record(&self, phase: Phase, corr: u64, start_ns: u64, end_ns: u64, label: u32, arg: u64) {
        self.recorder
            .record(self.track, phase, corr, start_ns, end_ns, label, arg);
    }
}

struct Worker {
    cfg: Arc<ServeConfig>,
    options: EngineOptions,
    caches: EngineCaches,
    /// Every answered lane, folded once.
    sink: TelemetrySink,
    counters: ServeCounters,
    depth: Arc<AtomicUsize>,
    published: Arc<Mutex<MetricsSnapshot>>,
    last_publish: Option<Instant>,
    /// A publish was throttled: the run loop wakes by the end of the
    /// interval and publishes then.
    publish_pending: bool,
    flight: Option<ShardFlight>,
    /// Response frames bound for one connection, reused across
    /// dispatches.
    out: Vec<u8>,
}

impl Worker {
    fn new(
        cfg: Arc<ServeConfig>,
        depth: Arc<AtomicUsize>,
        published: Arc<Mutex<MetricsSnapshot>>,
        flight: Option<ShardFlight>,
    ) -> Self {
        let options = cfg.engine_options();
        Worker {
            cfg,
            options,
            caches: EngineCaches::default(),
            sink: TelemetrySink::new(),
            counters: ServeCounters::default(),
            depth,
            published,
            last_publish: None,
            publish_pending: false,
            flight,
            out: Vec::new(),
        }
    }

    /// Recorder time, or 0 when detached (nothing will be recorded).
    fn flight_now(flight: &Option<ShardFlight>) -> u64 {
        flight.as_ref().map_or(0, |f| f.recorder.now_ns())
    }

    fn run(mut self, receiver: Receiver<Job>) {
        let width = self.cfg.batch_width.max(1);
        let window = self.cfg.max_batch_delay;
        let immediate = self.cfg.naive || width == 1;
        let mut groups: Vec<(ModelSpec, Group)> = Vec::new();
        // Groups that reached `width` lanes during a drain.
        let mut full: Vec<(ModelSpec, Group)> = Vec::new();
        // Each spec's last `width` arrival instants at this shard. Like
        // the engine caches it keeps every spec it has served: a
        // forgotten spec would park its next request for the full
        // deadline.
        let mut arrivals: HashMap<ModelSpec, VecDeque<Instant>> = HashMap::new();
        self.publish(true);
        loop {
            let timeout = groups
                .iter()
                .map(|(_, g)| g.first_at + window)
                .chain(self.publish_deadline())
                .map(|deadline| deadline.saturating_duration_since(Instant::now()))
                .min()
                .unwrap_or(IDLE_TICK);
            match receiver.recv_timeout(timeout) {
                Ok(job) if immediate => {
                    self.counters.requests += 1;
                    let spec = job.spec.clone();
                    let formed_ns = Self::flight_now(&self.flight);
                    self.dispatch(&spec, vec![job], Trigger::Full, formed_ns);
                    continue;
                }
                Ok(job) => {
                    // Park every queued job before evaluating anything,
                    // so a burst that is already queued groups together.
                    // Groups created from here on were formed in this
                    // drain (their `first_at` is not earlier).
                    let drained_at = Instant::now();
                    let mut next = Some(job);
                    while let Some(job) = next {
                        self.counters.requests += 1;
                        let now = Instant::now();
                        let recent = arrivals
                            .entry(job.spec.clone())
                            .or_insert_with(|| VecDeque::with_capacity(width));
                        if recent.len() == width {
                            recent.pop_front();
                        }
                        recent.push_back(now);
                        let i = match groups.iter().position(|(spec, _)| *spec == job.spec) {
                            Some(i) => i,
                            None => {
                                let formed_ns = Self::flight_now(&self.flight);
                                let group = Group {
                                    jobs: Vec::with_capacity(width),
                                    first_at: now,
                                    formed_ns,
                                };
                                groups.push((job.spec.clone(), group));
                                groups.len() - 1
                            }
                        };
                        groups[i].1.jobs.push(job);
                        if groups[i].1.jobs.len() == width {
                            full.push(groups.swap_remove(i));
                        }
                        next = receiver.try_recv().ok();
                    }
                    for (spec, group) in full.drain(..) {
                        self.dispatch(&spec, group.jobs, Trigger::Full, group.formed_ns);
                    }
                    self.dispatch_where(&mut groups, Trigger::Idle, |spec, group| {
                        group.first_at >= drained_at
                            && lane_mate_unlikely(&arrivals[spec], width, window)
                    });
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Idle tick or the end of a throttled interval:
                    // counters accrued since the last publish become
                    // visible.
                    self.publish(false);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Graceful drain: every already-admitted request is
                    // evaluated and answered before the shard exits.
                    for (spec, group) in groups.drain(..) {
                        self.dispatch(&spec, group.jobs, Trigger::Deadline, group.formed_ns);
                    }
                    self.publish(true);
                    return;
                }
            }
            if self.publish_pending {
                // Busy shards may never time out: land the throttled
                // update as soon as its interval has passed.
                self.publish(false);
            }
            let now = Instant::now();
            self.dispatch_where(&mut groups, Trigger::Deadline, |_, group| {
                now.saturating_duration_since(group.first_at) >= window
            });
        }
    }

    /// Takes every parked group `due` picks out of `groups` and
    /// dispatches it with `trigger`.
    fn dispatch_where(
        &mut self,
        groups: &mut Vec<(ModelSpec, Group)>,
        trigger: Trigger,
        due: impl Fn(&ModelSpec, &Group) -> bool,
    ) {
        let mut i = 0;
        while i < groups.len() {
            if due(&groups[i].0, &groups[i].1) {
                let (spec, group) = groups.swap_remove(i);
                self.dispatch(&spec, group.jobs, trigger, group.formed_ns);
            } else {
                i += 1;
            }
        }
    }

    fn dispatch(&mut self, spec: &ModelSpec, jobs: Vec<Job>, trigger: Trigger, formed_ns: u64) {
        match trigger {
            Trigger::Full => self.counters.batches_full += 1,
            Trigger::Idle => self.counters.batches_idle += 1,
            Trigger::Deadline => self.counters.batches_deadline += 1,
        }
        let n = jobs.len();
        if let Some(f) = &self.flight {
            // Per-request lifecycle spans up to dispatch: decode
            // (measured on the reader thread), queue wait (admission →
            // here), and group formation (first lane parked → here,
            // annotated with the lane count and model family).
            let now = f.recorder.now_ns();
            for job in &jobs {
                f.record(Phase::Decode, job.corr, job.decode.0, job.decode.1, job.label, 0);
                f.record(Phase::QueueWait, job.corr, job.admitted_ns, now, 0, 0);
                f.record(Phase::BatchForm, job.corr, formed_ns, now, job.label, n as u64);
            }
        }
        let batchable = !self.cfg.naive
            && n >= 2
            && spec.backend == EvalBackend::Compiled
            && jobs.iter().all(|j| !j.arrivals.is_empty());
        if batchable {
            self.dispatch_batched(spec, jobs);
        } else {
            for job in jobs {
                self.eval_scalar(spec, job, n as u32);
            }
        }
        self.depth.fetch_sub(n, Ordering::SeqCst);
        self.publish(false);
    }

    fn dispatch_batched(&mut self, spec: &ModelSpec, jobs: Vec<Job>) {
        let n = jobs.len();
        let options = self.options;
        let entry = self
            .caches
            .batch
            .entry(spec.clone())
            .or_insert_with(|| prepare_batch(spec, &options, n));
        let Ok(prepared) = entry else {
            self.sink.batch.eject_unsupported += n as u64;
            for job in jobs {
                self.eval_scalar(spec, job, n as u32);
            }
            return;
        };
        let traces: Vec<&[Arrival]> = jobs.iter().map(|j| j.arrivals.as_slice()).collect();
        let eval_start = Self::flight_now(&self.flight);
        let (outcomes, _reused, _wall) = drive_prepared_batch(prepared, &traces, &mut None);
        let eval_end = Self::flight_now(&self.flight);
        if let Some(f) = &self.flight {
            // One eval span per lane (every admitted request gets one),
            // all covering the shared lockstep drive.
            for job in &jobs {
                f.record(Phase::Eval, job.corr, eval_start, eval_end, job.label, n as u64);
            }
        }
        // The drive resets a reused engine, so its counters after the
        // drive are this batch's alone.
        let kernel = prepared.engine.kernel_dispatch();
        self.sink.batch.merge(&BatchCounters {
            batch_width: self.cfg.batch_width as u64,
            batches_formed: 1,
            lanes_batched: n as u64,
            lockstep_iterations: prepared.engine.stats().batched_iterations,
            kernel_chunked_sweeps: kernel.chunked_sweeps,
            kernel_scalar_sweeps: kernel.scalar_sweeps,
            ..BatchCounters::default()
        });
        let mut lanes = Vec::with_capacity(n);
        for (job, outcome) in jobs.into_iter().zip(outcomes) {
            // Batches do not fast-forward: the lane's `ff` reads zeros.
            let ff = FastForwardStats::default();
            fold_drive(&mut self.sink, &outcome, &ff);
            self.counters.lanes_batched += 1;
            let resp = eval_ok(job.id, &outcome, ff, true, n as u32);
            lanes.push((job, Response::EvalOk(resp)));
        }
        // One write per connection: the stable sort brings each
        // connection's lanes together in their batch order.
        lanes.sort_by_key(|(job, _)| Arc::as_ptr(&job.writer));
        for same_conn in lanes.chunk_by(|a, b| Arc::ptr_eq(&a.0.writer, &b.0.writer)) {
            self.respond(same_conn);
        }
    }

    fn eval_scalar(&mut self, spec: &ModelSpec, job: Job, lanes_in_batch: u32) {
        let options = self.options;
        let eval_start = Self::flight_now(&self.flight);
        let drive = if self.cfg.naive {
            // Baseline serving strategy: a fresh engine per request, no
            // cache — what a one-request-per-process evaluator would do.
            let mut fresh = prepare(spec, &options);
            drive_prepared(&mut fresh, &job.arrivals, &options, &mut None, DeltaMode::Off)
        } else {
            let prepared = self.caches.scalar_mut(spec, &options);
            drive_prepared(prepared, &job.arrivals, &options, &mut None, DeltaMode::Off)
        };
        if let Some(f) = &self.flight {
            f.record(Phase::Eval, job.corr, eval_start, f.recorder.now_ns(), job.label, 1);
        }
        let PreparedDrive {
            outcome,
            fast_forward,
            ..
        } = drive;
        fold_drive(&mut self.sink, &outcome, &fast_forward);
        self.counters.lanes_scalar += 1;
        let resp = eval_ok(job.id, &outcome, fast_forward, false, lanes_in_batch);
        self.respond(&[(job, Response::EvalOk(resp))]);
    }

    /// Answers lanes that share one connection (`lanes[0]`'s): every
    /// frame goes into the shard's reused buffer, then out with one
    /// `write_all` under one lock. The shard only answers evaluations, so
    /// each lane written counts as a response.
    fn respond(&mut self, lanes: &[(Job, Response)]) {
        let Some((first, _)) = lanes.first() else { return };
        let max = self.cfg.max_frame_len;
        self.out.clear();
        let mut encoded = 0;
        for (job, resp) in lanes {
            let encode_start = Self::flight_now(&self.flight);
            if put_response_frame(&mut self.out, resp, max).is_err() {
                break;
            }
            if let Some(f) = &self.flight {
                f.record(Phase::Encode, job.corr, encode_start, f.recorder.now_ns(), 0, 0);
            }
            encoded += 1;
        }
        let write_start = Self::flight_now(&self.flight);
        let mut conn = first.writer.lock().unwrap_or_else(|e| e.into_inner());
        let written = conn.write_all(&self.out).and_then(|()| conn.flush()).is_ok();
        let answered = if written { encoded } else { 0 };
        if answered < lanes.len() {
            // Peer gone, write timed out mid-response, or a frame over
            // the cap: the frame stream is unsynchronisable, so close
            // both halves (unblocking the connection's reader) and count
            // every unanswered lane.
            conn.shutdown();
        }
        drop(conn);
        self.counters.responses += answered as u64;
        self.counters.errors += (lanes.len() - answered) as u64;
        if let Some(f) = &self.flight {
            // The write span includes lock acquisition: contention on the
            // connection writer is response-path latency too. Each lane's
            // span covers the shared write and carries its own payload
            // length, read back from its frame's prefix.
            let write_end = f.recorder.now_ns();
            let mut frames = self.out.as_slice();
            for (job, _) in lanes {
                let payload = match frames.split_first_chunk::<4>() {
                    Some((prefix, rest)) => {
                        let len = u32::from_le_bytes(*prefix) as usize;
                        frames = &rest[len..];
                        len
                    }
                    None => 0,
                };
                f.record(Phase::Write, job.corr, write_start, write_end, 0, payload as u64);
            }
        }
    }

    /// When a throttled publish is due, if one is pending.
    fn publish_deadline(&self) -> Option<Instant> {
        self.last_publish
            .filter(|_| self.publish_pending)
            .map(|last| last + PUBLISH_INTERVAL)
    }

    /// Publishes the metrics snapshot — at most once per
    /// [`PUBLISH_INTERVAL`] unless `force`d. A throttled publish stays
    /// pending, and the run loop caps its receive timeout so the update
    /// lands by the end of the interval (not at the next idle tick).
    fn publish(&mut self, force: bool) {
        if !force && self.last_publish.is_some_and(|last| last.elapsed() < PUBLISH_INTERVAL) {
            self.publish_pending = true;
            return;
        }
        self.publish_pending = false;
        self.last_publish = Some(Instant::now());
        let mut snap = self.sink.snapshot();
        snap.serve = self.counters;
        *self.published.lock().unwrap_or_else(|e| e.into_inner()) = snap;
    }
}

/// Builds the wire response for one evaluated lane.
fn eval_ok(
    id: u64,
    outcome: &ScenarioOutcome,
    ff: FastForwardStats,
    batched: bool,
    lanes_in_batch: u32,
) -> EvalResponse {
    let es = outcome.engine_stats;
    EvalResponse {
        id,
        outputs: outcome.outputs.clone(),
        input_acks: outcome.input_acks.clone(),
        engine: [
            es.nodes_computed,
            es.arcs_evaluated,
            es.iterations_completed,
            es.lanes_evaluated,
            es.batched_iterations,
        ],
        ff: [ff.promotions, ff.demotions, ff.fast_forwarded_iterations],
        delta_attached: false,
        delta: [0; 6],
        batched,
        lanes_in_batch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` arrival instants, `gap` apart.
    fn arrivals(n: u32, gap: Duration) -> VecDeque<Instant> {
        let t0 = Instant::now();
        (0..n).map(|i| t0 + gap * i).collect()
    }

    #[test]
    fn fewer_arrivals_than_the_width_wait() {
        let window = Duration::from_millis(2);
        assert!(!lane_mate_unlikely(&VecDeque::new(), 4, window));
        assert!(!lane_mate_unlikely(&arrivals(3, Duration::from_secs(60)), 4, window));
    }

    #[test]
    fn a_span_of_exactly_width_windows_waits_and_a_longer_one_dispatches() {
        let window = Duration::from_millis(2);
        let t0 = Instant::now();
        let span = 4 * window;
        let recent: VecDeque<Instant> = [t0, t0, t0, t0 + span].into();
        assert!(!lane_mate_unlikely(&recent, 4, window));
        let recent: VecDeque<Instant> = [t0, t0, t0, t0 + span + Duration::from_nanos(1)].into();
        assert!(lane_mate_unlikely(&recent, 4, window));
        assert!(lane_mate_unlikely(&arrivals(8, 2 * window), 8, window));
        assert!(!lane_mate_unlikely(&arrivals(8, window / 2), 8, window));
    }

    #[test]
    fn a_horizon_past_duration_max_saturates() {
        let recent = arrivals(8, Duration::from_secs(3600));
        assert!(!lane_mate_unlikely(&recent, 8, Duration::MAX));
        assert!(!lane_mate_unlikely(&recent, 8, Duration::MAX / 4));
    }
}
