//! The result broker: one LRU result cache plus an in-flight request
//! coalescer, shared by every execution backend.
//!
//! The broker sits between [`PatternEngine`](crate::PatternEngine)
//! submission and the [`ExecBackend`](crate::backend::ExecBackend)
//! that actually runs jobs. Every keyed request (anything except
//! `Chat { seed: None }`, see [`cache_key`](crate::engine::cache_key))
//! is admitted through [`ResultBroker::admit`], which resolves it one
//! of three ways:
//!
//! 1. **Cache hit** — a completed identical request left its payload in
//!    the LRU cache; the submitter gets it immediately.
//! 2. **Coalesced** — an identical request is already queued or
//!    executing; the submitter attaches to that [`ExecTask`] as a
//!    waiter and will receive a clone of the same payload when the one
//!    shared execution finishes.
//! 3. **Lead** — nothing identical is in flight; a fresh [`ExecTask`]
//!    is registered and the caller must dispatch it to a backend.
//!
//! Cancellation detaches only the cancelling handle from the shared
//! task (the other waiters still get their payload); when the *last*
//! subscriber of a still-queued task detaches, the task is abandoned
//! and a worker that later pops it skips execution entirely.
//!
//! Completion is atomic with respect to admission: the cache insert
//! and the in-flight deregistration happen under one lock, so a
//! concurrent identical submit either coalesces onto the live task or
//! hits the cache — it can never slip between the two and re-execute.

use crate::cache::LruCache;
use crate::{Error, PatternRequest, PatternResponse, ResponsePayload};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Lifecycle of one submitter's view of a job.
pub(crate) enum JobState {
    /// The result has not been delivered to this handle yet.
    Pending,
    /// Finished; `wait` returns immediately.
    Done {
        /// Whether this handle was cancelled (detached) rather than
        /// served.
        cancelled: bool,
        /// `Some` until `wait` takes it. Boxed: a response dwarfs the
        /// `Pending` variant every live handle carries.
        result: Option<Box<Result<PatternResponse, Error>>>,
    },
}

/// The state one [`JobHandle`](crate::JobHandle) observes. Each
/// submitter gets its own `JobShared`, even when several of them share
/// one execution — that is what lets a waiter cancel (detach) without
/// touching anyone else's result.
pub(crate) struct JobShared {
    state: Mutex<JobState>,
    done: Condvar,
    /// When this submitter handed the request in (per-handle, so a
    /// coalesced waiter's queue time starts at its own submission).
    pub(crate) submitted_at: Instant,
}

impl JobShared {
    /// A job still waiting for its result.
    pub(crate) fn pending() -> Arc<JobShared> {
        Arc::new(JobShared {
            state: Mutex::new(JobState::Pending),
            done: Condvar::new(),
            submitted_at: Instant::now(),
        })
    }

    /// A job born finished (cache hits, inline completions).
    pub(crate) fn finished(result: Result<PatternResponse, Error>) -> Arc<JobShared> {
        Arc::new(JobShared {
            state: Mutex::new(JobState::Done {
                cancelled: false,
                result: Some(Box::new(result)),
            }),
            done: Condvar::new(),
            submitted_at: Instant::now(),
        })
    }

    /// Publishes `result` unless the handle already finished (a
    /// cancelled waiter keeps its `Error::Cancelled`). Returns whether
    /// the result was delivered. On delivery, `counted` runs under the
    /// job lock *before* any waiter can observe the result — this is
    /// what keeps stats counters consistent with what `wait` returned.
    pub(crate) fn finish_if_pending(
        &self,
        result: Result<PatternResponse, Error>,
        counted: impl FnOnce(),
    ) -> bool {
        let mut state = self.state.lock().expect("job lock");
        match *state {
            JobState::Pending => {
                *state = JobState::Done {
                    cancelled: false,
                    result: Some(Box::new(result)),
                };
                counted();
                self.done.notify_all();
                true
            }
            JobState::Done { .. } => false,
        }
    }

    /// Marks the handle cancelled if its result has not been delivered
    /// yet. Returns whether the cancellation won.
    pub(crate) fn cancel_if_pending(&self) -> bool {
        let mut state = self.state.lock().expect("job lock");
        match *state {
            JobState::Pending => {
                *state = JobState::Done {
                    cancelled: true,
                    result: Some(Box::new(Err(Error::Cancelled))),
                };
                self.done.notify_all();
                true
            }
            JobState::Done { .. } => false,
        }
    }

    /// Blocks until finished and takes the result.
    pub(crate) fn wait(&self) -> Result<PatternResponse, Error> {
        let mut state = self.state.lock().expect("job lock");
        loop {
            if let JobState::Done { result, .. } = &mut *state {
                return *result
                    .take()
                    .expect("wait consumes the handle, so the result is untaken");
            }
            state = self.done.wait(state).expect("job lock");
        }
    }

    /// `Some(cancelled)` when done, `None` while pending.
    pub(crate) fn done_state(&self) -> Option<bool> {
        match &*self.state.lock().expect("job lock") {
            JobState::Pending => None,
            JobState::Done { cancelled, .. } => Some(*cancelled),
        }
    }
}

/// Where a shared execution stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskPhase {
    /// Waiting in a backend queue.
    Queued,
    /// A worker claimed it and is executing.
    Running,
    /// Executed, abandoned, or rejected; no worker will touch it again.
    Finished,
}

/// One subscriber of a task: the handle to notify, plus whether it
/// coalesced onto an execution another submitter started (`true`) or
/// is the leader that triggered it (`false`).
type Subscriber = (Arc<JobShared>, bool);

struct TaskState {
    phase: TaskPhase,
    /// Taken by the worker that claims the task.
    request: Option<PatternRequest>,
    subscribers: Vec<Subscriber>,
}

/// One shared execution: a request, the backend routing hash, the
/// tenant/lane QoS context, and every submitter waiting on the
/// result. This is the unit an
/// [`ExecBackend`](crate::backend::ExecBackend) queues and runs.
pub struct ExecTask {
    key: Option<String>,
    route: u64,
    tenant: String,
    lane: cp_qos::Lane,
    /// Whether admission reserved a session slot for this request
    /// (kept here so abandoned and drained tasks can roll the
    /// reservation back without access to the request).
    opens_session: bool,
    state: Mutex<TaskState>,
}

impl std::fmt::Debug for ExecTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().expect("task lock");
        f.debug_struct("ExecTask")
            .field("key", &self.key)
            .field("route", &self.route)
            .field("phase", &state.phase)
            .field("subscribers", &state.subscribers.len())
            .finish()
    }
}

impl ExecTask {
    fn new(
        key: Option<String>,
        route: u64,
        tenant: &str,
        lane: cp_qos::Lane,
        request: PatternRequest,
        leader: Arc<JobShared>,
    ) -> Arc<ExecTask> {
        let opens_session = request.admit_class().opens_session;
        Arc::new(ExecTask {
            key,
            route,
            tenant: tenant.to_owned(),
            lane,
            opens_session,
            state: Mutex::new(TaskState {
                phase: TaskPhase::Queued,
                request: Some(request),
                subscribers: vec![(leader, false)],
            }),
        })
    }

    /// Stable routing hash: identical request keys always map to the
    /// same value, so a [`ShardedBackend`](crate::backend::ShardedBackend)
    /// keeps cache-hot keys shard-local. Unkeyed requests carry a
    /// round-robin counter value instead.
    #[must_use]
    pub fn route(&self) -> u64 {
        self.route
    }

    /// The tenant whose submission leads this execution (QoS
    /// accounting and fair queuing).
    #[must_use]
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The priority lane of the leading request.
    #[must_use]
    pub fn lane(&self) -> cp_qos::Lane {
        self.lane
    }

    /// Whether this task's admission reserved an open-session slot.
    pub(crate) fn opens_session(&self) -> bool {
        self.opens_session
    }

    /// Claims the task for execution: returns the request, or `None`
    /// when every subscriber already detached while it was queued (the
    /// worker then skips it — the abandoned-task fast path).
    pub(crate) fn claim(&self) -> Option<PatternRequest> {
        let mut state = self.state.lock().expect("task lock");
        if state.phase != TaskPhase::Queued {
            return None;
        }
        if state.subscribers.is_empty() {
            state.phase = TaskPhase::Finished;
            return None;
        }
        state.phase = TaskPhase::Running;
        state.request.take()
    }

    /// Adds a coalesced waiter. Caller must hold the broker lock (this
    /// is what makes attach-vs-complete race-free).
    fn attach(&self, job: Arc<JobShared>) {
        self.state
            .lock()
            .expect("task lock")
            .subscribers
            .push((job, true));
    }

    /// Removes one subscriber (a cancelled handle). Returns `true`
    /// when that was the last subscriber of a still-queued task — the
    /// caller ([`ResultBroker::detach`], under the broker lock) then
    /// unregisters the task so a fresh identical submit starts a new
    /// execution instead of joining a dead one.
    fn detach(&self, job: &Arc<JobShared>) -> bool {
        let mut state = self.state.lock().expect("task lock");
        state
            .subscribers
            .retain(|(subscriber, _)| !Arc::ptr_eq(subscriber, job));
        state.subscribers.is_empty() && state.phase == TaskPhase::Queued
    }

    /// Marks the task finished and drains everyone still subscribed.
    pub(crate) fn take_subscribers(&self) -> Vec<Subscriber> {
        let mut state = self.state.lock().expect("task lock");
        state.phase = TaskPhase::Finished;
        std::mem::take(&mut state.subscribers)
    }

    /// Current phase (drives [`JobStatus`](crate::JobStatus) for
    /// pending handles).
    pub(crate) fn phase(&self) -> TaskPhase {
        self.state.lock().expect("task lock").phase
    }

    /// Whether this task is registered with the broker (cacheable and
    /// coalescable) or a private unkeyed execution.
    pub(crate) fn is_keyed(&self) -> bool {
        self.key.is_some()
    }
}

/// How [`ResultBroker::admit`] resolved a submission. The broker
/// creates the [`JobShared`] itself so the cache-hit fast path
/// allocates nothing.
pub(crate) enum Admission {
    /// A completed identical request left this payload in the cache
    /// (behind an `Arc`; the caller deep-clones outside the lock).
    CacheHit(Arc<ResponsePayload>),
    /// Attached as a waiter to this already-in-flight task.
    Coalesced {
        /// The shared execution.
        task: Arc<ExecTask>,
        /// This submitter's freshly attached handle state.
        job: Arc<JobShared>,
    },
    /// A fresh task: either already dispatched (when the caller passed
    /// an in-lock dispatcher) or for the caller to dispatch.
    Lead {
        /// The new execution.
        task: Arc<ExecTask>,
        /// The leader's handle state.
        job: Arc<JobShared>,
    },
    /// The in-lock dispatcher refused the task (`QueueFull`). Nothing
    /// was registered and — because the broker lock was held across
    /// the dispatch attempt — no waiter can have attached, so only
    /// the submitter sees this error.
    Rejected(Error),
}

struct BrokerState {
    /// Payloads behind `Arc` so cache hits and inserts are pointer
    /// clones under the lock; the deep clone happens at the call
    /// sites, outside the critical section.
    cache: LruCache<Arc<ResponsePayload>>,
    /// Request key → the single in-flight execution for that key.
    inflight: HashMap<String, Arc<ExecTask>>,
}

/// The shared result layer: cache + coalescer under one lock.
pub(crate) struct ResultBroker {
    state: Mutex<BrokerState>,
}

impl ResultBroker {
    pub(crate) fn new(cache_capacity: usize) -> ResultBroker {
        ResultBroker {
            state: Mutex::new(BrokerState {
                cache: LruCache::new(cache_capacity),
                inflight: HashMap::new(),
            }),
        }
    }

    /// Resolves one submission. Unkeyed requests (`key == None`)
    /// always lead a private task — they bypass the cache *and* the
    /// coalescer, the same exemption `Chat { seed: null }` already has
    /// from caching.
    ///
    /// When `dispatch` is `Some`, it is invoked for a fresh lead task
    /// *inside the admission critical section*; on failure the task is
    /// unregistered before the lock drops, so no concurrent identical
    /// submit can ever coalesce onto an undispatched task (the
    /// [`Admission::Rejected`] outcome affects only this submitter).
    /// Callers must only pass dispatchers that cannot block and cannot
    /// re-enter the broker (a bounded-queue try-push qualifies; an
    /// inline-executing backend does not — it would deadlock in
    /// [`ResultBroker::complete`]).
    pub(crate) fn admit(
        &self,
        key: Option<String>,
        route: u64,
        tenant: &str,
        lane: cp_qos::Lane,
        request: PatternRequest,
        dispatch: Option<&dyn Fn(Arc<ExecTask>) -> Result<(), Error>>,
    ) -> Admission {
        let Some(key) = key else {
            let job = JobShared::pending();
            let task = ExecTask::new(None, route, tenant, lane, request, Arc::clone(&job));
            return Admission::Lead { task, job };
        };
        let mut state = self.state.lock().expect("broker lock");
        if let Some(payload) = state.cache.get(&key) {
            return Admission::CacheHit(payload);
        }
        if let Some(task) = state.inflight.get(&key) {
            let task = Arc::clone(task);
            let job = JobShared::pending();
            task.attach(Arc::clone(&job));
            return Admission::Coalesced { task, job };
        }
        let job = JobShared::pending();
        let task = ExecTask::new(
            Some(key.clone()),
            route,
            tenant,
            lane,
            request,
            Arc::clone(&job),
        );
        if let Some(dispatch) = dispatch {
            if let Err(error) = dispatch(Arc::clone(&task)) {
                return Admission::Rejected(error);
            }
            // Safe even though a worker may already be running the
            // task: completion also needs the broker lock, so the
            // entry lands in `inflight` before `complete` can look.
        }
        state.inflight.insert(key, Arc::clone(&task));
        Admission::Lead { task, job }
    }

    /// Completes an executed task: caches a successful payload,
    /// deregisters the key, and returns every subscriber to notify —
    /// all atomically, so a concurrent identical submit sees either
    /// the in-flight task or the cached payload, never neither.
    pub(crate) fn complete(
        &self,
        task: &Arc<ExecTask>,
        ok_payload: Option<Arc<ResponsePayload>>,
    ) -> Vec<Subscriber> {
        let mut state = self.state.lock().expect("broker lock");
        if let Some(key) = &task.key {
            if let Some(payload) = ok_payload {
                state.cache.insert(key.clone(), payload);
            }
            Self::remove_inflight(&mut state, key, task);
        }
        task.take_subscribers()
    }

    /// Rolls back a `Lead` admission whose out-of-lock dispatch failed
    /// (`QueueFull` on an unkeyed task): deregisters the task and
    /// returns everyone attached so far. Keyed non-blocking leads
    /// dispatch inside [`ResultBroker::admit`], so for them this path
    /// is unreachable; it remains as defense in depth.
    pub(crate) fn reject(&self, task: &Arc<ExecTask>) -> Vec<Subscriber> {
        let mut state = self.state.lock().expect("broker lock");
        if let Some(key) = &task.key {
            Self::remove_inflight(&mut state, key, task);
        }
        task.take_subscribers()
    }

    /// Detaches one cancelled handle from its task. When that empties
    /// a still-queued task, the in-flight registration is dropped *in
    /// the same critical section* — so a concurrent identical submit
    /// either coalesced before the detach (keeping the task alive) or
    /// finds the key free and leads a fresh execution. Holding the
    /// broker lock here is what makes abandonment atomic with
    /// admission; without it, a worker could skip the emptied task
    /// while the stale registration still accepts waiters that would
    /// then never be notified.
    pub(crate) fn detach(&self, task: &Arc<ExecTask>, job: &Arc<JobShared>) {
        let mut state = self.state.lock().expect("broker lock");
        if task.detach(job) {
            if let Some(key) = &task.key {
                Self::remove_inflight(&mut state, key, task);
            }
        }
    }

    /// Removes the key → task binding, but only if it still points at
    /// `task` (a fresh execution may have replaced a rejected one).
    fn remove_inflight(state: &mut BrokerState, key: &str, task: &Arc<ExecTask>) {
        if let Some(current) = state.inflight.get(key) {
            if Arc::ptr_eq(current, task) {
                state.inflight.remove(key);
            }
        }
    }

    /// Number of keys with a live in-flight execution.
    #[cfg(test)]
    pub(crate) fn inflight_len(&self) -> usize {
        self.state.lock().expect("broker lock").inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GenerateParams, Timing};
    use cp_dataset::Style;

    /// Tenant/lane context for admissions whose QoS fields are
    /// irrelevant to the property under test.
    const T: &str = "test-tenant";
    const L: cp_qos::Lane = cp_qos::Lane::Standard;

    fn request(seed: u64) -> PatternRequest {
        PatternRequest::Generate(GenerateParams {
            style: Style::Layer10001,
            rows: 4,
            cols: 4,
            count: 1,
            seed,
        })
    }

    fn payload() -> ResponsePayload {
        ResponsePayload::Generate(Vec::new())
    }

    fn response() -> PatternResponse {
        PatternResponse {
            payload: payload(),
            timing: Timing::direct(1),
        }
    }

    #[test]
    fn identical_submissions_coalesce_onto_one_task() {
        let broker = ResultBroker::new(8);
        let Admission::Lead { task, .. } =
            broker.admit(Some("k".into()), 0, T, L, request(1), None)
        else {
            panic!("first submission leads");
        };
        match broker.admit(Some("k".into()), 0, T, L, request(1), None) {
            Admission::Coalesced { task: shared, .. } => assert!(Arc::ptr_eq(&shared, &task)),
            _ => panic!("second identical submission coalesces"),
        }
        // Completion delivers to both, caches the payload, clears the key.
        let subscribers = broker.complete(&task, Some(Arc::new(payload())));
        assert_eq!(subscribers.len(), 2);
        assert!(!subscribers[0].1, "leader is not coalesced");
        assert!(subscribers[1].1, "waiter is coalesced");
        assert_eq!(broker.inflight_len(), 0);
        assert!(matches!(
            broker.admit(Some("k".into()), 0, T, L, request(1), None),
            Admission::CacheHit(_)
        ));
    }

    #[test]
    fn unkeyed_requests_never_share_a_task() {
        let broker = ResultBroker::new(8);
        let first = broker.admit(None, 0, T, L, request(1), None);
        let second = broker.admit(None, 1, T, L, request(1), None);
        assert!(matches!(first, Admission::Lead { .. }));
        assert!(matches!(second, Admission::Lead { .. }));
        assert_eq!(broker.inflight_len(), 0, "unkeyed tasks are unregistered");
    }

    #[test]
    fn last_detach_abandons_a_queued_task() {
        let broker = ResultBroker::new(8);
        let Admission::Lead { task, job } =
            broker.admit(Some("k".into()), 0, T, L, request(1), None)
        else {
            panic!("leads");
        };
        broker.detach(&task, &job);
        assert_eq!(
            broker.inflight_len(),
            0,
            "emptying a queued task atomically drops its registration"
        );
        assert!(task.claim().is_none(), "abandoned tasks are never executed");
        // A fresh identical submit starts a new execution.
        assert!(matches!(
            broker.admit(Some("k".into()), 0, T, L, request(1), None),
            Admission::Lead { .. }
        ));
    }

    #[test]
    fn detach_of_one_waiter_keeps_the_execution_alive() {
        let broker = ResultBroker::new(8);
        let Admission::Lead { task, .. } =
            broker.admit(Some("k".into()), 0, T, L, request(1), None)
        else {
            panic!("leads");
        };
        let Admission::Coalesced { job: waiter, .. } =
            broker.admit(Some("k".into()), 0, T, L, request(1), None)
        else {
            panic!("coalesces");
        };
        broker.detach(&task, &waiter);
        assert_eq!(broker.inflight_len(), 1, "execution still registered");
        assert!(task.claim().is_some(), "still runnable for the leader");
    }

    #[test]
    fn cancelled_handle_refuses_late_results() {
        let job = JobShared::pending();
        assert!(job.cancel_if_pending());
        let mut counted = false;
        assert!(
            !job.finish_if_pending(Ok(response()), || counted = true),
            "already cancelled"
        );
        assert!(!counted, "skipped deliveries are not counted");
        assert!(matches!(job.wait(), Err(Error::Cancelled)));
        assert!(!job.cancel_if_pending(), "double cancel is a no-op");
    }

    #[test]
    fn reject_returns_every_attached_subscriber() {
        let broker = ResultBroker::new(8);
        let Admission::Lead { task, .. } =
            broker.admit(Some("k".into()), 0, T, L, request(1), None)
        else {
            panic!("leads");
        };
        let _ = broker.admit(Some("k".into()), 0, T, L, request(1), None);
        let subscribers = broker.reject(&task);
        assert_eq!(subscribers.len(), 2);
        assert_eq!(broker.inflight_len(), 0);
    }
}
