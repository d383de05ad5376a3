//! The job-oriented execution engine.
//!
//! [`PatternEngine`] wraps any [`PatternService`] in a pluggable
//! execution backend (see [`crate::backend`]) behind a shared result
//! broker (the cache + coalescer layer), turning the blocking trait
//! into a submission API:
//!
//! * [`PatternEngine::submit`] enqueues a request and returns a
//!   [`JobHandle`] immediately (or [`Error::QueueFull`] when the
//!   target bounded queue is at capacity);
//! * [`JobHandle::wait`] blocks for the result,
//!   [`JobHandle::try_status`] polls without blocking, and
//!   [`JobHandle::cancel`] detaches a handle whose result has not been
//!   delivered yet, reporting [`Error::Cancelled`] to that handle only;
//! * the engine itself implements [`PatternService`], so
//!   [`PatternService::execute_many`] becomes a submit-all/wait-all
//!   loop that runs batches in parallel (on the threaded backends).
//!
//! Because every request carries its own RNG seed, parallel execution
//! returns byte-identical payloads to the serial default — the batch is
//! a pure function of the request list, independent of worker
//! interleaving or backend choice.
//!
//! Deterministic requests (everything except `Chat { seed: None }`)
//! flow through the result broker: completed results replay from a
//! request-level LRU cache, and identical requests submitted while one
//! is still queued or executing **coalesce** — they attach as waiters
//! to the single in-flight execution and all receive the same payload,
//! counted in [`EngineStats::coalesced`] and flagged in
//! [`Timing::coalesced`]. `Chat` with `seed: null` bypasses both, same
//! as the long-standing cache-bypass rule. [`Timing`] distinguishes
//! queue wait from execution time for every job. The full semantics
//! are documented in `docs/ENGINE.md`.

use crate::backend::{
    BackendKind, ExecBackend, InlineBackend, ShardedBackend, TaskFn, ThreadPoolBackend,
};
use crate::broker::{Admission, ExecTask, JobShared, ResultBroker, TaskPhase};
use crate::{Error, PatternRequest, PatternResponse, PatternService, ResponsePayload, Timing};
use cp_qos::{QosConfig, QosGate, TenantLaneStats, TenantLedger};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Scale knobs of a [`PatternEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Execution strategy (see [`BackendKind`]).
    pub backend: BackendKind,
    /// Worker threads executing jobs (≥ 1; split across shards for
    /// [`BackendKind::Sharded`], ignored by [`BackendKind::Inline`]).
    pub workers: usize,
    /// Bound of each submission queue (≥ 1); [`PatternEngine::submit`]
    /// reports [`Error::QueueFull`] beyond it. Per shard for the
    /// sharded backend; ignored by the inline backend.
    pub queue_depth: usize,
    /// Entries in the request-level result cache (0 disables caching;
    /// coalescing of in-flight requests stays active either way).
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            backend: BackendKind::ThreadPool,
            workers: thread_count(),
            queue_depth: 256,
            cache_capacity: 128,
        }
    }
}

fn thread_count() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

impl EngineConfig {
    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when `workers` or `queue_depth` is
    /// zero, or — for the sharded backend — when `shards` is zero or
    /// exceeds `workers` (every shard needs a dedicated worker to
    /// drain its queue).
    pub fn validate(&self) -> Result<(), Error> {
        if self.workers == 0 {
            return Err(Error::config("engine needs at least 1 worker (got 0)"));
        }
        if self.queue_depth == 0 {
            return Err(Error::config("queue_depth must be at least 1 (got 0)"));
        }
        if let BackendKind::Sharded { shards } = self.backend {
            if shards == 0 {
                return Err(Error::config(
                    "the sharded backend needs at least 1 shard (got 0)",
                ));
            }
            // Each shard drains its own queue, so a shard without a
            // dedicated worker would never make progress; silently
            // spawning extra threads would exceed the configured cap.
            if shards > self.workers {
                return Err(Error::config(format!(
                    "the sharded backend needs at least 1 worker per shard \
                     ({shards} shards > {} workers)",
                    self.workers
                )));
            }
        }
        Ok(())
    }
}

/// Observable lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in a backend queue.
    Queued,
    /// The shared execution is running.
    Running,
    /// Finished (successfully or with an error); `wait` returns
    /// immediately.
    Done,
    /// This handle was cancelled; `wait` returns [`Error::Cancelled`].
    Cancelled,
}

/// Counters describing engine activity since construction.
///
/// Serializable: a [`PatternRequest::Stats`] request returns this
/// struct over the wire, and the `chatpattern-router` merges one per
/// worker into a fleet view with [`EngineStats::merge`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EngineStats {
    /// Jobs accepted by `submit`/`submit_blocking` (cache hits and
    /// coalesced waiters included).
    pub submitted: u64,
    /// Jobs whose result was delivered successfully (cache hits and
    /// coalesced waiters included).
    pub completed: u64,
    /// Jobs whose result was an error.
    pub failed: u64,
    /// Handles cancelled before their result was delivered.
    pub cancelled: u64,
    /// Requests served straight from the result cache.
    pub cache_hits: u64,
    /// Cacheable requests that started a backend execution.
    pub cache_misses: u64,
    /// Requests that attached to an identical in-flight execution
    /// instead of starting their own (for keyed submissions,
    /// `cache_hits + cache_misses + coalesced` partitions them).
    pub coalesced: u64,
    /// Chat sessions currently open in the wrapped service (a gauge;
    /// zero for services without session support).
    pub sessions_open: u64,
    /// Sessions destroyed: expired past their TTL, or evicted for
    /// capacity with no persist layer attached.
    pub sessions_evicted: u64,
    /// Sessions spilled to the persist layer on capacity eviction
    /// (instead of being destroyed).
    pub sessions_spilled: u64,
    /// Spilled sessions rehydrated by a later turn, snapshot or close.
    pub sessions_restored: u64,
    /// Warm sessions snapshotted ahead of any eviction by the
    /// spill-ahead writer (turn-count or cadence trigger). Absent on
    /// the wire from older peers — defaults to zero.
    #[serde(default)]
    pub sessions_spilled_ahead: u64,
    /// Transcript bytes trimmed by snapshot compaction on the persist
    /// path, cumulative. Absent on the wire from older peers —
    /// defaults to zero.
    #[serde(default)]
    pub snapshot_bytes_saved: u64,
    /// Session turns executed.
    pub turns: u64,
    /// Jobs currently waiting in each backend queue, one entry per
    /// queue: empty for [`BackendKind::Inline`], one entry for
    /// [`BackendKind::ThreadPool`], one per shard for
    /// [`BackendKind::Sharded`].
    pub queue_depths: Vec<usize>,
    /// Per-(tenant, lane) QoS accounting rows, sorted by tenant then
    /// lane name. Empty until the first tagged (or default-tenant)
    /// submission; [`EngineStats::merge`] sums matching rows across a
    /// fleet.
    pub tenants: Vec<TenantLaneStats>,
    /// Transport connections currently open against this engine (a
    /// gauge; zero unless a server attached [`ConnCounters`]). Absent
    /// on the wire from older peers — defaults to zero.
    #[serde(default)]
    pub connections_live: u64,
    /// High-water mark of concurrently open transport connections.
    /// Under [`EngineStats::merge`] this is the *sum* of per-worker
    /// peaks — an upper bound on the fleet-wide simultaneous peak.
    #[serde(default)]
    pub connections_peak: u64,
    /// Connections that ended normally: peer EOF, reset, or a write to
    /// a vanished peer.
    #[serde(default)]
    pub disconnects_clean: u64,
    /// Connections the event-loop transport killed because their
    /// outbound queue exceeded its high-water mark (a slow reader
    /// accumulating unread replies).
    #[serde(default)]
    pub disconnects_backpressure: u64,
}

impl EngineStats {
    /// Stats for a bare service that hosts sessions but no engine
    /// (every engine counter zero, the session gauges filled in) —
    /// what a direct [`PatternRequest::Stats`] against a
    /// [`ChatPattern`](crate::ChatPattern) reports.
    #[must_use]
    pub fn from_sessions(sessions: crate::session::SessionStats) -> EngineStats {
        EngineStats {
            sessions_open: sessions.open,
            sessions_evicted: sessions.evicted,
            sessions_spilled: sessions.spilled,
            sessions_restored: sessions.restored,
            sessions_spilled_ahead: sessions.spilled_ahead,
            snapshot_bytes_saved: sessions.bytes_saved,
            turns: sessions.turns,
            ..EngineStats::default()
        }
    }

    /// Folds another snapshot into this one: counters add, and
    /// `queue_depths` concatenates (one entry per queue across the
    /// whole fleet). This is how the router builds its fleet view out
    /// of per-worker snapshots.
    pub fn merge(&mut self, other: &EngineStats) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.cancelled += other.cancelled;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.coalesced += other.coalesced;
        self.sessions_open += other.sessions_open;
        self.sessions_evicted += other.sessions_evicted;
        self.sessions_spilled += other.sessions_spilled;
        self.sessions_restored += other.sessions_restored;
        self.sessions_spilled_ahead += other.sessions_spilled_ahead;
        self.snapshot_bytes_saved += other.snapshot_bytes_saved;
        self.turns += other.turns;
        self.queue_depths.extend_from_slice(&other.queue_depths);
        self.tenants = cp_qos::merge_rows(&[&self.tenants, &other.tenants]);
        self.connections_live += other.connections_live;
        self.connections_peak += other.connections_peak;
        self.disconnects_clean += other.disconnects_clean;
        self.disconnects_backpressure += other.disconnects_backpressure;
    }
}

/// Transport-connection telemetry: live/peak gauges plus disconnect
/// reasons, kept engine-side so a [`PatternRequest::Stats`] request
/// (and the router's fleet fan-in) reports them like any other
/// counter. Servers call [`ConnCounters::connected`] /
/// `disconnected_*`; the engine folds the numbers into
/// [`EngineStats`].
#[derive(Debug, Default)]
pub struct ConnCounters {
    live: AtomicU64,
    peak: AtomicU64,
    clean: AtomicU64,
    backpressure: AtomicU64,
}

impl ConnCounters {
    /// One connection accepted.
    pub fn connected(&self) {
        let now = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// One connection ended normally (EOF, reset, vanished peer).
    pub fn disconnected_clean(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
        self.clean.fetch_add(1, Ordering::Relaxed);
    }

    /// One connection was killed for exceeding its outbound
    /// high-water mark (event-loop back-pressure).
    pub fn disconnected_backpressure(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
        self.backpressure.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds the current counter values into a stats snapshot.
    pub fn fill(&self, stats: &mut EngineStats) {
        stats.connections_live = self.live.load(Ordering::Relaxed);
        stats.connections_peak = self.peak.load(Ordering::Relaxed);
        stats.disconnects_clean = self.clean.load(Ordering::Relaxed);
        stats.disconnects_backpressure = self.backpressure.load(Ordering::Relaxed);
    }
}

#[derive(Default)]
pub(crate) struct AtomicStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    coalesced: AtomicU64,
}

impl AtomicStats {
    fn snapshot(
        &self,
        queue_depths: Vec<usize>,
        sessions: crate::session::SessionStats,
        tenants: Vec<TenantLaneStats>,
    ) -> EngineStats {
        EngineStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            sessions_open: sessions.open,
            sessions_evicted: sessions.evicted,
            sessions_spilled: sessions.spilled,
            sessions_restored: sessions.restored,
            sessions_spilled_ahead: sessions.spilled_ahead,
            snapshot_bytes_saved: sessions.bytes_saved,
            turns: sessions.turns,
            queue_depths,
            tenants,
            ..EngineStats::default()
        }
    }

    fn add(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Cache/coalescing key of a request — a thin alias for
/// [`crate::routing::request_key`], the single source of truth shared
/// with the multi-process router.
pub(crate) fn cache_key(request: &PatternRequest) -> Option<String> {
    crate::routing::request_key(request)
}

/// Stable backend-routing hash for a string (request key or session
/// id): identical inputs always map to the same value, so a
/// [`ShardedBackend`] keeps cache-hot keys — and every turn of one
/// session — shard-local. Delegates to
/// [`crate::routing::route_hash`] so in-process shards and the
/// `chatpattern-router` fleet agree on placement.
fn stable_route(input: &str) -> u64 {
    crate::routing::route_hash(input)
}

/// A submitted job: wait for, poll, or cancel it.
///
/// Several handles may share one backend execution (request
/// coalescing); each handle still gets its own result delivery, so
/// [`JobHandle::cancel`] detaches only this handle. Dropping the
/// handle does not cancel anything; the shared execution still runs
/// (and a cacheable result still lands in the cache).
#[must_use = "a JobHandle should be waited on, polled or cancelled"]
pub struct JobHandle {
    shared: Arc<JobShared>,
    /// `None` only for handles born finished (cache hits). Inline
    /// handles carry a live attachment whose task is already
    /// `Finished` by the time `submit` returns.
    attachment: Option<Attachment>,
}

struct Attachment {
    task: Arc<ExecTask>,
    broker: Arc<ResultBroker>,
    stats: Arc<AtomicStats>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("status", &self.try_status())
            .finish()
    }
}

impl JobHandle {
    fn done(result: Result<PatternResponse, Error>) -> JobHandle {
        JobHandle {
            shared: JobShared::finished(result),
            attachment: None,
        }
    }

    /// Blocks until the job finishes and returns its result.
    ///
    /// # Errors
    ///
    /// Returns whatever the underlying service reported (including
    /// [`Error::Internal`] when the service panicked), or
    /// [`Error::Cancelled`] when [`JobHandle::cancel`] won the race.
    /// [`Error::QueueFull`] never reaches a handle: an accepted
    /// submission always resolves to a result — waiters can only
    /// coalesce onto executions whose dispatch already succeeded.
    pub fn wait(self) -> Result<PatternResponse, Error> {
        self.shared.wait()
    }

    /// Current lifecycle stage, without blocking.
    #[must_use]
    pub fn try_status(&self) -> JobStatus {
        match self.shared.done_state() {
            Some(true) => JobStatus::Cancelled,
            Some(false) => JobStatus::Done,
            None => match &self.attachment {
                Some(attachment) => match attachment.task.phase() {
                    TaskPhase::Queued => JobStatus::Queued,
                    // `Finished` here means the fan-out is about to
                    // deliver; report Running for the last instants.
                    TaskPhase::Running | TaskPhase::Finished => JobStatus::Running,
                },
                None => JobStatus::Running,
            },
        }
    }

    /// Cancels this handle if its result has not been delivered yet.
    /// Returns `true` when the cancellation took effect —
    /// [`JobHandle::wait`] will then report [`Error::Cancelled`].
    ///
    /// Cancellation **detaches**, it never preempts: when other
    /// handles share the execution (coalesced identical requests),
    /// the execution proceeds and every other handle still receives
    /// its payload; only the canceller sees [`Error::Cancelled`].
    /// When this was the *only* handle and the job is still queued,
    /// the backend skips it entirely. A job already running runs to
    /// completion (a cacheable result still lands in the cache) —
    /// its result is simply discarded. Finished handles are
    /// unaffected and `false` is returned.
    pub fn cancel(&self) -> bool {
        if !self.shared.cancel_if_pending() {
            return false;
        }
        if let Some(attachment) = &self.attachment {
            attachment.stats.add(&attachment.stats.cancelled);
            // Atomic detach: when this empties a still-queued task,
            // the broker frees the key in the same critical section so
            // a fresh identical submit re-executes instead of joining
            // the abandoned task.
            attachment.broker.detach(&attachment.task, &self.shared);
        }
        true
    }
}

/// Service + broker + stats + QoS gate: everything a backend's task
/// closure needs.
struct EngineCore<S> {
    service: S,
    broker: Arc<ResultBroker>,
    stats: Arc<AtomicStats>,
    /// Per-tenant admission control; a slot admitted in `submit_inner`
    /// is released here once the task leaves the system (executed,
    /// abandoned, rejected or drained).
    gate: Arc<QosGate>,
    /// Per-(tenant, lane) accounting behind [`EngineStats::tenants`].
    ledger: Arc<TenantLedger>,
}

impl<S: PatternService> EngineCore<S> {
    /// Rolls back everything [`QosGate::try_admit`] granted for a task
    /// that will never produce a result for its leader.
    fn release_task_qos(&self, task: &ExecTask) {
        if task.opens_session() {
            self.gate.release_session(task.tenant());
        }
        self.gate.release(task.tenant());
    }

    /// Executes the task a backend handed over and fans its result out
    /// to its subscribers (the leader plus any coalesced waiters).
    fn run_task(&self, task: &Arc<ExecTask>) {
        let Some(request) = task.claim() else {
            // Every subscriber detached while the task was queued; the
            // leader's QoS grants die with it.
            self.release_task_qos(task);
            return;
        };
        let closes_session = matches!(request, crate::PatternRequest::SessionClose(_));
        let started = Instant::now();
        // A panicking service must not poison the broker: without the
        // catch, `complete` would never run, the key would stay
        // registered, and every future identical submission would
        // coalesce onto the dead task and hang. Convert the panic into
        // an error result instead (and keep the worker thread alive).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.service.execute(request)
        }))
        .unwrap_or_else(|panic| Err(Error::internal(panic_message(panic.as_ref()))));
        let exec_micros = elapsed_micros(started);
        self.finish_task(task, result, closes_session, exec_micros);
    }

    /// The completion tail of one executed task: cache insert, session
    /// and QoS bookkeeping, broker fan-out, per-subscriber timing and
    /// stats.
    fn finish_task(
        &self,
        task: &Arc<ExecTask>,
        result: Result<PatternResponse, Error>,
        closes_session: bool,
        exec_micros: u64,
    ) {
        // The cache copy is deep-cloned here, outside the broker lock;
        // `complete` only moves the Arc under it.
        let cache_copy = match (&result, task.is_keyed()) {
            (Ok(response), true) => Some(Arc::new(response.payload.clone())),
            _ => None,
        };
        // Session-slot bookkeeping: a failed open/restore never made a
        // session, a successful close retires one; the in-flight slot
        // itself is released unconditionally now that execution is
        // over.
        if task.opens_session() && result.is_err() {
            self.gate.release_session(task.tenant());
        }
        if closes_session && result.is_ok() {
            self.gate.release_session(task.tenant());
        }
        self.gate.release(task.tenant());
        let subscribers = self.broker.complete(task, cache_copy);
        for (job, coalesced) in subscribers {
            // Each handle's timing runs from its own submission:
            // `micros` is the handle's real submission-to-completion
            // latency, so a waiter that attached mid-execution reports
            // zero queue wait and only the slice of the shared
            // execution it actually overlapped with.
            let total = elapsed_micros(job.submitted_at);
            let exec_share = exec_micros.min(total);
            let queue_micros = total - exec_share;
            if !coalesced {
                // The leader's queue wait is the per-tenant QoS
                // signal (coalesced waiters only count as admitted).
                self.ledger
                    .record_completed(task.tenant(), task.lane(), queue_micros);
            }
            let shared = match &result {
                Ok(response) => {
                    let timing = if coalesced {
                        Timing::coalesced(queue_micros, exec_share)
                    } else {
                        Timing::queued(queue_micros, exec_share)
                    };
                    Ok(PatternResponse {
                        payload: response.payload.clone(),
                        timing,
                    })
                }
                Err(error) => Err(error.clone()),
            };
            let ok = shared.is_ok();
            job.finish_if_pending(shared, || {
                self.stats.add(if ok {
                    &self.stats.completed
                } else {
                    &self.stats.failed
                });
            });
        }
    }
}

fn elapsed_micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Best-effort rendering of a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = panic.downcast_ref::<&str>() {
        format!("service panicked: {message}")
    } else if let Some(message) = panic.downcast_ref::<String>() {
        format!("service panicked: {message}")
    } else {
        String::from("service panicked")
    }
}

/// A parallel, caching, coalescing executor over any
/// [`PatternService`].
///
/// See the [module docs](self) for the full story and `docs/ENGINE.md`
/// for the backend matrix. The engine is `Sync`: submit from as many
/// threads as you like. Dropping it stops the workers after their
/// current job and cancels everything still queued.
pub struct PatternEngine<S: PatternService + Send + Sync + 'static> {
    core: Arc<EngineCore<S>>,
    backend: Box<dyn ExecBackend>,
    config: EngineConfig,
    /// Round-robin routing for unkeyed (uncacheable) requests.
    route_counter: AtomicU64,
    /// Transport-connection telemetry, updated by whatever server
    /// fronts this engine and reported through [`PatternEngine::stats`].
    conn: Arc<ConnCounters>,
}

impl<S: PatternService + Send + Sync + 'static> std::fmt::Debug for PatternEngine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatternEngine")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<S: PatternService + Send + Sync + 'static> PatternEngine<S> {
    /// Wraps `service` with the default [`EngineConfig`].
    #[must_use]
    pub fn new(service: S) -> PatternEngine<S> {
        PatternEngine::with_config(service, EngineConfig::default())
            .expect("default config is valid")
    }

    /// Wraps `service` with an explicit configuration and no QoS
    /// limits (unlimited default quota, default lane weights).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the configuration is invalid.
    pub fn with_config(service: S, config: EngineConfig) -> Result<PatternEngine<S>, Error> {
        PatternEngine::with_qos(service, config, QosConfig::default())
    }

    /// Wraps `service` with an explicit configuration **and** a
    /// multi-tenant QoS policy: per-tenant admission quotas
    /// ([`QosConfig::default_quota`] / overrides) and the lane weights
    /// the queued backends dequeue with.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the configuration is invalid.
    pub fn with_qos(
        service: S,
        config: EngineConfig,
        qos: QosConfig,
    ) -> Result<PatternEngine<S>, Error> {
        config.validate()?;
        let weights = qos.lane_weights;
        let core = Arc::new(EngineCore {
            service,
            broker: Arc::new(ResultBroker::new(config.cache_capacity)),
            stats: Arc::new(AtomicStats::default()),
            gate: Arc::new(QosGate::new(qos)),
            ledger: Arc::new(TenantLedger::new()),
        });
        let run: TaskFn = {
            let core = Arc::clone(&core);
            Arc::new(move |task| core.run_task(task))
        };
        let backend: Box<dyn ExecBackend> = match config.backend {
            BackendKind::Inline => Box::new(InlineBackend::new(run)),
            BackendKind::ThreadPool => Box::new(ThreadPoolBackend::new(
                "pattern-engine",
                config.workers,
                config.queue_depth,
                weights,
                run,
            )),
            BackendKind::Sharded { shards } => Box::new(ShardedBackend::new(
                shards,
                config.workers,
                config.queue_depth,
                weights,
                &run,
            )),
        };
        Ok(PatternEngine {
            core,
            backend,
            config,
            route_counter: AtomicU64::new(0),
            conn: Arc::new(ConnCounters::default()),
        })
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// A snapshot of the activity counters, including the live
    /// per-queue depths of the active backend and the wrapped
    /// service's session gauges.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.core.stats.snapshot(
            self.backend.queue_depths(),
            self.core.service.session_stats(),
            self.core.ledger.snapshot(),
        );
        self.conn.fill(&mut stats);
        stats
    }

    /// The engine's transport-connection counters. A server fronting
    /// this engine clones the `Arc` and records connects/disconnects;
    /// the numbers surface in [`PatternEngine::stats`] (and therefore
    /// in `Stats` over the wire).
    #[must_use]
    pub fn conn_counters(&self) -> Arc<ConnCounters> {
        Arc::clone(&self.conn)
    }

    /// The wrapped service.
    #[must_use]
    pub fn service(&self) -> &S {
        &self.core.service
    }

    /// Submits a request without blocking.
    ///
    /// Cache hits complete immediately (the returned handle is already
    /// [`JobStatus::Done`]), identical in-flight requests coalesce onto
    /// the existing execution, and anything else is dispatched to the
    /// backend.
    ///
    /// # Errors
    ///
    /// Returns [`Error::QueueFull`] when the target bounded queue is at
    /// capacity (the request is not enqueued; retry or use
    /// [`PatternEngine::submit_blocking`]) and [`Error::Overloaded`]
    /// when the default tenant's QoS quota refuses the admission.
    pub fn submit(&self, request: PatternRequest) -> Result<JobHandle, Error> {
        self.submit_as(None, request)
    }

    /// [`PatternEngine::submit`] on behalf of a tenant (`None` = the
    /// QoS default tenant): the tenant's quota gates admission, its
    /// lane/tenant identity drives weighted-fair dequeue, and the
    /// request lands in that tenant's [`EngineStats::tenants`] rows.
    ///
    /// # Errors
    ///
    /// [`Error::Overloaded`] (with a retry-after hint) when the
    /// tenant's quota refuses the request; [`Error::QueueFull`] when
    /// the target bounded queue is at capacity.
    pub fn submit_as(
        &self,
        tenant: Option<&str>,
        request: PatternRequest,
    ) -> Result<JobHandle, Error> {
        self.submit_inner(tenant.unwrap_or(cp_qos::DEFAULT_TENANT), request, false)
    }

    /// Submits a request, blocking until queue space is available
    /// (the back-pressure path batch drivers want). A QoS quota
    /// rejection does not block — it surfaces as an already-failed
    /// handle carrying [`Error::Overloaded`].
    pub fn submit_blocking(&self, request: PatternRequest) -> JobHandle {
        self.submit_blocking_as(None, request)
    }

    /// [`PatternEngine::submit_blocking`] on behalf of a tenant
    /// (`None` = the QoS default tenant).
    pub fn submit_blocking_as(&self, tenant: Option<&str>, request: PatternRequest) -> JobHandle {
        self.submit_inner(tenant.unwrap_or(cp_qos::DEFAULT_TENANT), request, true)
            .unwrap_or_else(|error| JobHandle::done(Err(error)))
    }

    fn submit_inner(
        &self,
        tenant: &str,
        request: PatternRequest,
        block: bool,
    ) -> Result<JobHandle, Error> {
        // Stats is answered inline from the live counters — it never
        // queues behind real work (a stats poll during a drain must
        // not wait for a diffusion job) and is exempt from the
        // counters themselves, so polling does not perturb what it
        // measures.
        if matches!(request, PatternRequest::Stats) {
            let started = Instant::now();
            let snapshot = self.stats();
            return Ok(JobHandle::done(Ok(PatternResponse {
                payload: ResponsePayload::Stats(snapshot),
                timing: Timing::direct(elapsed_micros(started)),
            })));
        }
        let stats = &self.core.stats;
        // QoS admission happens before the broker sees the request: a
        // tenant over quota is refused with a typed retry-after hint
        // and costs the system nothing. On success the in-flight slot
        // (plus any session reservation) is held until the task leaves
        // the system — released below for cache hits, coalesced
        // waiters and dispatch rejections, by `run_task` for executed
        // and abandoned tasks, and by `Drop` for drained ones.
        let lane = request.lane();
        let class = request.admit_class();
        if let Err(rejection) = self.core.gate.try_admit(tenant, class) {
            self.core.ledger.record_rejected(tenant, lane);
            return Err(Error::overloaded(rejection.retry_after_ms));
        }
        self.core.ledger.record_admitted(tenant, lane);
        let release_admission = || {
            if class.opens_session {
                self.core.gate.release_session(tenant);
            }
            self.core.gate.release(tenant);
        };
        let key = cache_key(&request);
        // Routing priority: keyed requests go by key hash (cache
        // affinity), session requests go by *session-id* hash (every
        // turn of one session lands on the same shard, keeping its
        // state shard-local and its turn order the shard queue's FIFO
        // order), and everything else spreads round-robin.
        let route = match (&key, request.session_id()) {
            (Some(key), _) => stable_route(key),
            (None, Some(session)) => stable_route(session),
            (None, None) => self.route_counter.fetch_add(1, Ordering::Relaxed),
        };
        let lookup = Instant::now();
        // Keyed non-blocking submits dispatch *inside* the admission
        // lock: a try-push into a bounded queue never blocks and never
        // re-enters the broker, and doing it there means a QueueFull
        // rejection can never strand a coalesced waiter — nobody can
        // attach to a task whose dispatch has not succeeded. Blocking
        // dispatch must stay outside the lock (waiting for queue space
        // while holding it would deadlock against worker completions),
        // and the inline backend executes the task during dispatch (it
        // would re-enter the broker), but neither can fail.
        let try_dispatch = |task: Arc<ExecTask>| self.backend.dispatch(task, false);
        let in_lock_dispatch: Option<&dyn Fn(Arc<ExecTask>) -> Result<(), Error>> =
            if !block && !matches!(self.config.backend, BackendKind::Inline) {
                Some(&try_dispatch)
            } else {
                None
            };
        let dispatched_in_lock = in_lock_dispatch.is_some();
        match self
            .core
            .broker
            .admit(key, route, tenant, lane, request, in_lock_dispatch)
        {
            Admission::CacheHit(payload) => {
                stats.add(&stats.submitted);
                stats.add(&stats.cache_hits);
                stats.add(&stats.completed);
                // The request never reaches the executor: the slot
                // frees immediately and the hit counts as a completed
                // request with zero queue wait.
                release_admission();
                self.core.ledger.record_completed(tenant, lane, 0);
                Ok(JobHandle::done(Ok(PatternResponse {
                    // Deep clone outside the broker lock.
                    payload: ResponsePayload::clone(&payload),
                    timing: Timing::cache_hit(elapsed_micros(lookup)),
                })))
            }
            Admission::Coalesced { task, job } => {
                stats.add(&stats.submitted);
                stats.add(&stats.coalesced);
                // The leader's slot covers the execution; a waiter
                // holds nothing while it waits.
                release_admission();
                Ok(JobHandle {
                    shared: job,
                    attachment: Some(self.attachment(task)),
                })
            }
            Admission::Rejected(error) => {
                release_admission();
                Err(error)
            }
            Admission::Lead { task, job } => {
                let outcome = if dispatched_in_lock && task.is_keyed() {
                    Ok(())
                } else {
                    self.backend.dispatch(Arc::clone(&task), block)
                };
                match outcome {
                    Ok(()) => {
                        stats.add(&stats.submitted);
                        if task.is_keyed() {
                            stats.add(&stats.cache_misses);
                        }
                        Ok(JobHandle {
                            shared: job,
                            attachment: Some(self.attachment(task)),
                        })
                    }
                    Err(error) => {
                        // Only reachable for unkeyed tasks, which are
                        // never registered — reject returns just the
                        // leader, so nobody else is affected.
                        let _ = self.core.broker.reject(&task);
                        release_admission();
                        Err(error)
                    }
                }
            }
        }
    }

    fn attachment(&self, task: Arc<ExecTask>) -> Attachment {
        Attachment {
            task,
            broker: Arc::clone(&self.core.broker),
            stats: Arc::clone(&self.core.stats),
        }
    }
}

impl<S: PatternService + Send + Sync + 'static> Drop for PatternEngine<S> {
    fn drop(&mut self) {
        // Anything still queued will never run; release its waiters
        // (and the QoS grants its leader still holds).
        for task in self.backend.shutdown() {
            self.core.release_task_qos(&task);
            for (job, _) in self.core.broker.reject(&task) {
                job.finish_if_pending(Err(Error::Cancelled), || {
                    self.core.stats.add(&self.core.stats.cancelled);
                });
            }
        }
    }
}

/// The engine is itself a service: `execute` is submit-and-wait, and
/// `execute_many` runs batches in parallel (on threaded backends)
/// while preserving input order (and, thanks to per-request seeds,
/// exact payloads).
impl<S: PatternService + Send + Sync + 'static> PatternService for PatternEngine<S> {
    fn execute(&self, request: PatternRequest) -> Result<PatternResponse, Error> {
        self.submit_blocking(request).wait()
    }

    fn execute_many(&self, requests: Vec<PatternRequest>) -> Vec<Result<PatternResponse, Error>> {
        let handles: Vec<JobHandle> = requests
            .into_iter()
            .map(|request| self.submit_blocking(request))
            .collect();
        handles.into_iter().map(JobHandle::wait).collect()
    }

    fn session_stats(&self) -> crate::session::SessionStats {
        self.core.service.session_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChatParams, GenerateParams, ResponsePayload};
    use cp_dataset::Style;
    use std::thread;
    use std::time::Duration;

    /// A service slow enough to keep jobs queued while the test pokes
    /// at them. `Generate.rows == 0` selects the error path; everything
    /// else echoes an empty payload after `delay`.
    struct SlowService {
        delay: Duration,
    }

    impl PatternService for SlowService {
        fn execute(&self, request: PatternRequest) -> Result<PatternResponse, Error> {
            thread::sleep(self.delay);
            match request {
                PatternRequest::Generate(p) if p.rows == 0 => {
                    Err(Error::invalid_request("zero rows"))
                }
                _ => Ok(PatternResponse {
                    payload: ResponsePayload::Generate(Vec::new()),
                    timing: Timing::direct(self.delay.as_micros() as u64),
                }),
            }
        }
    }

    fn generate(seed: u64) -> PatternRequest {
        PatternRequest::Generate(GenerateParams {
            style: Style::Layer10001,
            rows: 4,
            cols: 4,
            count: 1,
            seed,
        })
    }

    fn slow_engine(workers: usize, queue_depth: usize) -> PatternEngine<SlowService> {
        PatternEngine::with_config(
            SlowService {
                delay: Duration::from_millis(30),
            },
            EngineConfig {
                backend: BackendKind::ThreadPool,
                workers,
                queue_depth,
                cache_capacity: 0,
            },
        )
        .expect("valid config")
    }

    #[test]
    fn config_validation_rejects_zeros() {
        let service = SlowService {
            delay: Duration::ZERO,
        };
        let err = PatternEngine::with_config(
            service,
            EngineConfig {
                backend: BackendKind::ThreadPool,
                workers: 0,
                queue_depth: 1,
                cache_capacity: 0,
            },
        )
        .expect_err("zero workers rejected");
        assert!(matches!(err, Error::Config { .. }));
        let err = EngineConfig {
            backend: BackendKind::Sharded { shards: 0 },
            workers: 2,
            queue_depth: 1,
            cache_capacity: 0,
        }
        .validate()
        .expect_err("zero shards rejected");
        assert!(matches!(err, Error::Config { .. }));
        let err = EngineConfig {
            backend: BackendKind::Sharded { shards: 8 },
            workers: 2,
            queue_depth: 1,
            cache_capacity: 0,
        }
        .validate()
        .expect_err("a shard without a worker could never drain");
        assert!(matches!(err, Error::Config { .. }));
    }

    #[test]
    fn submit_reports_queue_full() {
        // One worker sleeping, depth-1 queue: distinct-seed submits
        // must eventually find the queue occupied.
        let engine = slow_engine(1, 1);
        let first = engine.submit_blocking(generate(1));
        let second = engine.submit_blocking(generate(2));
        let mut saw_full = false;
        for seed in 3..100 {
            match engine.submit(generate(seed)) {
                Err(Error::QueueFull { depth }) => {
                    assert_eq!(depth, 1);
                    saw_full = true;
                    break;
                }
                Ok(handle) => drop(handle.wait()),
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(saw_full, "depth-1 queue never filled");
        first.wait().expect("first job completes");
        second.wait().expect("second job completes");
    }

    #[test]
    fn queue_full_submit_does_not_disturb_coalescing_state() {
        // Fill the queue, fail a submit, then verify the same request
        // can be submitted (blocking) and completes: the rejected
        // lead's registration was rolled back.
        let engine = slow_engine(1, 1);
        let _running = engine.submit_blocking(generate(1));
        let _queued = engine.submit_blocking(generate(2));
        let mut rejected_seed = None;
        for seed in 3..100 {
            match engine.submit(generate(seed)) {
                Err(Error::QueueFull { .. }) => {
                    rejected_seed = Some(seed);
                    break;
                }
                Ok(handle) => drop(handle.wait()),
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        let seed = rejected_seed.expect("queue filled");
        let retry = engine.submit_blocking(generate(seed));
        retry.wait().expect("retried request executes");
    }

    #[test]
    fn cancel_detaches_a_queued_job() {
        let engine = slow_engine(1, 8);
        let running = engine.submit_blocking(generate(1));
        let queued = engine.submit_blocking(generate(2));
        assert_eq!(queued.try_status(), JobStatus::Queued);
        assert!(queued.cancel(), "queued job cancels");
        assert_eq!(queued.try_status(), JobStatus::Cancelled);
        assert!(matches!(queued.wait(), Err(Error::Cancelled)));
        let done = running.wait().expect("running job unaffected");
        assert!(!done.timing.cached);
        let finished = engine.submit_blocking(generate(3));
        finished.wait().expect("completes");
    }

    #[test]
    fn cancel_after_completion_is_a_no_op() {
        let engine = slow_engine(2, 8);
        let handle = engine.submit_blocking(generate(1));
        while handle.try_status() != JobStatus::Done {
            thread::sleep(Duration::from_millis(5));
        }
        assert!(!handle.cancel(), "finished jobs cannot be cancelled");
        handle.wait().expect("result still delivered");
    }

    #[test]
    fn drop_cancels_queued_jobs() {
        let engine = slow_engine(1, 8);
        let _running = engine.submit_blocking(generate(1));
        let queued = engine.submit_blocking(generate(2));
        drop(engine);
        assert!(matches!(queued.wait(), Err(Error::Cancelled)));
    }

    #[test]
    fn timing_records_queue_wait() {
        let engine = slow_engine(1, 8);
        let _first = engine.submit_blocking(generate(1));
        let second = engine.submit_blocking(generate(2));
        let response = second.wait().expect("completes");
        // The second job waited behind the 30 ms first job.
        assert!(
            response.timing.queue_micros >= 10_000,
            "queue wait was {} µs",
            response.timing.queue_micros
        );
        assert_eq!(
            response.timing.micros,
            response.timing.queue_micros + response.timing.exec_micros
        );
        assert!(!response.timing.coalesced, "no identical request in flight");
    }

    #[test]
    fn errors_count_as_failed_in_stats() {
        let engine = slow_engine(2, 8);
        let bad = PatternRequest::Generate(GenerateParams {
            style: Style::Layer10001,
            rows: 0,
            cols: 4,
            count: 1,
            seed: 1,
        });
        assert!(engine.submit_blocking(bad).wait().is_err());
        engine.submit_blocking(generate(1)).wait().expect("ok");
        let stats = engine.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn identical_queued_submissions_coalesce() {
        // One worker busy with seed 1; two identical seed-2 submits
        // queue behind it and must share one execution.
        let engine = slow_engine(1, 8);
        let busy = engine.submit_blocking(generate(1));
        let leader = engine.submit_blocking(generate(2));
        let waiter = engine.submit_blocking(generate(2));
        let a = leader.wait().expect("leader completes");
        let b = waiter.wait().expect("waiter completes");
        assert_eq!(a.payload, b.payload);
        assert!(!a.timing.coalesced, "leader ran the execution");
        assert!(b.timing.coalesced, "waiter attached to it");
        busy.wait().expect("busy completes");
        let stats = engine.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn coalescing_survives_cache_disabled() {
        // cache_capacity is 0 in slow_engine: coalescing is in-flight
        // sharing, not cache replay, so it must still work.
        let engine = slow_engine(1, 8);
        let _busy = engine.submit_blocking(generate(7));
        let first = engine.submit_blocking(generate(8));
        let second = engine.submit_blocking(generate(8));
        first.wait().expect("completes");
        second.wait().expect("completes");
        let stats = engine.stats();
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.cache_hits, 0, "cache is disabled");
    }

    #[test]
    fn inline_backend_completes_on_submit() {
        let engine = PatternEngine::with_config(
            SlowService {
                delay: Duration::from_millis(1),
            },
            EngineConfig {
                backend: BackendKind::Inline,
                workers: 1,
                queue_depth: 1,
                cache_capacity: 4,
            },
        )
        .expect("valid config");
        let handle = engine.submit(generate(1)).expect("inline never overflows");
        assert_eq!(handle.try_status(), JobStatus::Done);
        let response = handle.wait().expect("completes");
        assert!(!response.timing.cached);
        // Replay is a cache hit even inline.
        let hit = engine
            .submit(generate(1))
            .expect("submits")
            .wait()
            .expect("hits");
        assert!(hit.timing.cached);
        let stats = engine.stats();
        assert_eq!(stats.queue_depths.len(), 0, "inline has no queues");
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn sharded_backend_reports_per_shard_depths() {
        let engine = PatternEngine::with_config(
            SlowService {
                delay: Duration::from_millis(5),
            },
            EngineConfig {
                backend: BackendKind::Sharded { shards: 3 },
                workers: 3,
                queue_depth: 8,
                cache_capacity: 0,
            },
        )
        .expect("valid config");
        assert_eq!(engine.stats().queue_depths, vec![0, 0, 0]);
        let handles: Vec<JobHandle> = (0..6)
            .map(|s| engine.submit_blocking(generate(s)))
            .collect();
        for handle in handles {
            handle.wait().expect("completes");
        }
        assert_eq!(engine.stats().completed, 6);
    }

    /// A service that panics on every request.
    struct PanickingService;

    impl PatternService for PanickingService {
        fn execute(&self, _request: PatternRequest) -> Result<PatternResponse, Error> {
            panic!("boom");
        }
    }

    #[test]
    fn service_panic_becomes_internal_error_and_frees_the_key() {
        let engine = PatternEngine::with_config(
            PanickingService,
            EngineConfig {
                backend: BackendKind::ThreadPool,
                workers: 1,
                queue_depth: 8,
                cache_capacity: 4,
            },
        )
        .expect("valid config");
        let err = engine
            .submit_blocking(generate(1))
            .wait()
            .expect_err("panicking service reports an error");
        assert!(matches!(err, Error::Internal { .. }), "{err:?}");
        assert!(err.to_string().contains("boom"), "{err}");
        // The key is not poisoned: an identical resubmit executes
        // again (and fails again) instead of hanging on a dead task.
        let err = engine
            .submit_blocking(generate(1))
            .wait()
            .expect_err("re-executes, does not hang");
        assert!(matches!(err, Error::Internal { .. }));
        let stats = engine.stats();
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.coalesced, 0, "nothing attached to a dead task");
    }

    #[test]
    fn cache_key_skips_unseeded_chat_and_sessions() {
        assert!(cache_key(&PatternRequest::Chat(ChatParams {
            request: "x".into(),
            seed: None,
        }))
        .is_none());
        // Session requests are stateful: never keyed, but routed by a
        // stable session-id hash so a session stays shard-local.
        let open = PatternRequest::SessionOpen(crate::SessionOpenParams {
            session: "s".into(),
            seed: Some(1),
        });
        let turn = PatternRequest::SessionTurn(crate::SessionTurnParams {
            session: "s".into(),
            utterance: "x".into(),
        });
        let close = PatternRequest::SessionClose(crate::SessionCloseParams {
            session: "s".into(),
        });
        for request in [&open, &turn, &close] {
            assert!(cache_key(request).is_none(), "{request:?}");
            assert_eq!(request.session_id(), Some("s"));
        }
        assert_eq!(stable_route("s"), stable_route("s"));
        assert_ne!(stable_route("s"), stable_route("t"));
        assert!(cache_key(&PatternRequest::Chat(ChatParams {
            request: "x".into(),
            seed: Some(1),
        }))
        .is_some());
        let a = cache_key(&generate(1)).expect("seeded requests have keys");
        let b = cache_key(&generate(1)).expect("seeded requests have keys");
        assert_eq!(a, b, "identical requests share a key");
        assert_ne!(a, cache_key(&generate(2)).expect("key"));
    }

    /// An engine over [`SlowService`] with one tenant-quota override.
    fn qos_engine(
        delay: Duration,
        tenant: &str,
        quota: cp_qos::TenantQuota,
    ) -> PatternEngine<SlowService> {
        let mut qos = QosConfig::new();
        qos.tenant_quotas.insert(tenant.to_owned(), quota);
        PatternEngine::with_qos(
            SlowService { delay },
            EngineConfig {
                backend: BackendKind::ThreadPool,
                workers: 1,
                queue_depth: 8,
                cache_capacity: 0,
            },
            qos,
        )
        .expect("valid config")
    }

    fn tenant_row(stats: &EngineStats, tenant: &str) -> (u64, u64, u64) {
        stats
            .tenants
            .iter()
            .filter(|row| row.tenant == tenant)
            .fold((0, 0, 0), |acc, row| {
                (
                    acc.0 + row.admitted,
                    acc.1 + row.rejected,
                    acc.2 + row.completed,
                )
            })
    }

    #[test]
    fn qos_inflight_quota_rejects_with_retry_after_and_recovers() {
        let engine = qos_engine(
            Duration::from_millis(40),
            "flood",
            cp_qos::TenantQuota {
                max_inflight: 1,
                ..cp_qos::TenantQuota::default()
            },
        );
        let first = engine
            .submit_as(Some("flood"), generate(1))
            .expect("first fills the quota");
        let over = engine.submit_as(Some("flood"), generate(2));
        match over {
            Err(Error::Overloaded { retry_after_ms }) => assert!(retry_after_ms > 0),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Another tenant is untouched by the flooder's quota.
        engine
            .submit_as(Some("calm"), generate(3))
            .expect("other tenants admit")
            .wait()
            .expect("completes");
        first.wait().expect("quota holder completes");
        // The slot is free again once the job finished.
        engine
            .submit_as(Some("flood"), generate(4))
            .expect("slot released on completion")
            .wait()
            .expect("completes");
        let stats = engine.stats();
        let (admitted, rejected, completed) = tenant_row(&stats, "flood");
        assert_eq!(admitted, 2);
        assert_eq!(rejected, 1);
        assert_eq!(completed, 2);
        let (admitted, rejected, completed) = tenant_row(&stats, "calm");
        assert_eq!((admitted, rejected, completed), (1, 0, 1));
    }

    #[test]
    fn qos_blocking_submit_surfaces_overloaded_as_failed_handle() {
        let engine = qos_engine(
            Duration::from_millis(40),
            "flood",
            cp_qos::TenantQuota {
                max_inflight: 1,
                ..cp_qos::TenantQuota::default()
            },
        );
        let first = engine
            .submit_as(Some("flood"), generate(1))
            .expect("admits");
        let over = engine.submit_blocking_as(Some("flood"), generate(2));
        assert!(matches!(over.wait(), Err(Error::Overloaded { .. })));
        first.wait().expect("completes");
    }

    #[test]
    fn qos_session_cap_holds_until_close() {
        let open = |id: &str| {
            PatternRequest::SessionOpen(crate::SessionOpenParams {
                session: id.into(),
                seed: Some(1),
            })
        };
        let engine = qos_engine(
            Duration::ZERO,
            "t",
            cp_qos::TenantQuota {
                max_sessions: 1,
                ..cp_qos::TenantQuota::default()
            },
        );
        engine
            .submit_as(Some("t"), open("a"))
            .expect("first session admits")
            .wait()
            .expect("opens");
        let err = engine.submit_as(Some("t"), open("b"));
        assert!(matches!(err, Err(Error::Overloaded { .. })));
        // SlowService treats SessionClose like any request and
        // succeeds, which must release the reservation.
        engine
            .submit_as(
                Some("t"),
                PatternRequest::SessionClose(crate::SessionCloseParams {
                    session: "a".into(),
                }),
            )
            .expect("close admits")
            .wait()
            .expect("closes");
        engine
            .submit_as(Some("t"), open("b"))
            .expect("slot freed by the close")
            .wait()
            .expect("opens");
    }

    #[test]
    fn qos_turn_budget_rejects_burst_turns() {
        let turn = || {
            PatternRequest::SessionTurn(crate::SessionTurnParams {
                session: "s".into(),
                utterance: "x".into(),
            })
        };
        let engine = qos_engine(
            Duration::ZERO,
            "t",
            cp_qos::TenantQuota {
                turns_per_sec: 0.001,
                turn_burst: 1.0,
                ..cp_qos::TenantQuota::default()
            },
        );
        engine
            .submit_as(Some("t"), turn())
            .expect("budget covers one turn")
            .wait()
            .expect("turn runs");
        match engine.submit_as(Some("t"), turn()) {
            Err(Error::Overloaded { retry_after_ms }) => {
                assert!(retry_after_ms > 0, "refill hint present");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Generate does not consume turn tokens.
        engine
            .submit_as(Some("t"), generate(9))
            .expect("non-turn work unaffected")
            .wait()
            .expect("completes");
    }

    #[test]
    fn qos_default_tenant_rows_accumulate_without_config() {
        let engine = slow_engine(2, 8);
        engine.submit_blocking(generate(1)).wait().expect("runs");
        let stats = engine.stats();
        let (admitted, rejected, completed) = tenant_row(&stats, cp_qos::DEFAULT_TENANT);
        assert_eq!((admitted, rejected, completed), (1, 0, 1));
        assert!(
            stats.tenants.iter().all(|row| row.lane == "standard"),
            "generate rides the standard lane: {:?}",
            stats.tenants
        );
    }
}
