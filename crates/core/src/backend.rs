//! Pluggable execution backends.
//!
//! A [`PatternEngine`](crate::PatternEngine) no longer owns one
//! hard-coded worker pool: the execution strategy is the
//! [`ExecBackend`] trait, selected through
//! [`EngineConfig::backend`](crate::EngineConfig) via [`BackendKind`]:
//!
//! | backend | threads | queues | for |
//! |---|---|---|---|
//! | [`InlineBackend`] | 0 | none | tests, WASM-ish hosts, strict determinism |
//! | [`ThreadPoolBackend`] | `workers` | 1 bounded | the default server workload |
//! | [`ShardedBackend`] | `workers` split across shards | 1 bounded per shard | key-affine routing at scale |
//!
//! Backends schedule [`ExecTask`]s; everything about *what* a task does
//! (service execution, caching, coalescing fan-out, stats) lives in the
//! engine closure they are constructed with, so a backend is pure
//! scheduling policy. The sharded backend routes by
//! [`ExecTask::route`] — a stable hash of the request key — so repeated
//! identical requests land on the same shard and stay cache-hot there.
//!
//! Queued backends dequeue **weighted-fair**, not FIFO: every task
//! carries a QoS lane and tenant ([`ExecTask::lane`] /
//! [`ExecTask::tenant`]), and the pool queue is a
//! [`cp_qos::FairQueue`] — lanes share by
//! [`cp_qos::LaneWeights`] credits and tenants round-robin within a
//! lane, so one flooding tenant cannot starve everyone else's queued
//! work.

pub use crate::broker::ExecTask;
use crate::Error;
use cp_qos::{FairQueue, LaneWeights};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

/// Which execution strategy an engine runs
/// ([`EngineConfig::backend`](crate::EngineConfig)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Serial, zero threads: `submit` executes the job on the caller's
    /// thread and returns an already-finished handle. `workers` and
    /// `queue_depth` are unused at runtime (validation still requires
    /// them ≥ 1, so one config passes for any backend); `QueueFull`
    /// never happens.
    Inline,
    /// One bounded queue feeding `workers` threads — the default.
    ThreadPool,
    /// `shards` independent bounded queues (each `queue_depth` deep),
    /// each with its own slice of the `workers` threads (`workers`
    /// must be ≥ `shards` so every shard can drain its queue). Jobs
    /// are routed by request-key hash, so identical and repeated
    /// requests stay shard-local.
    Sharded {
        /// Number of independent queue+worker groups (≥ 1, ≤ workers).
        shards: usize,
    },
}

impl BackendKind {
    /// The name used on the `chatpattern-serve` command line and in
    /// bench output.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Inline => "inline",
            BackendKind::ThreadPool => "threadpool",
            BackendKind::Sharded { .. } => "sharded",
        }
    }
}

/// What a backend runs for every task it schedules. The engine builds
/// this once (service execution + broker completion + stats) and hands
/// it to the backend at construction.
pub type TaskFn = Arc<dyn Fn(&Arc<ExecTask>) + Send + Sync>;

/// An execution strategy: accepts tasks, runs them (somehow), and can
/// shut down. Implementations are pure scheduling policy — the task
/// closure owns all engine semantics.
pub trait ExecBackend: Send + Sync {
    /// Schedules one task. With `block` set, waits for queue space
    /// (back-pressure); otherwise reports [`Error::QueueFull`] when the
    /// target queue is at capacity and the task was not accepted.
    ///
    /// # Errors
    ///
    /// [`Error::QueueFull`] — only possible when `block` is `false`.
    fn dispatch(&self, task: Arc<ExecTask>, block: bool) -> Result<(), Error>;

    /// Jobs currently waiting in each internal queue, one entry per
    /// queue (empty for queueless backends). Feeds
    /// [`EngineStats::queue_depths`](crate::EngineStats).
    fn queue_depths(&self) -> Vec<usize>;

    /// Stops accepting work, joins all workers, and returns every task
    /// that never ran so the caller can fail its subscribers.
    fn shutdown(&mut self) -> Vec<Arc<ExecTask>>;
}

/// Serial, zero-thread execution: the submitting thread runs the job.
pub struct InlineBackend {
    run: TaskFn,
}

impl InlineBackend {
    pub(crate) fn new(run: TaskFn) -> InlineBackend {
        InlineBackend { run }
    }
}

impl ExecBackend for InlineBackend {
    fn dispatch(&self, task: Arc<ExecTask>, _block: bool) -> Result<(), Error> {
        (self.run)(&task);
        Ok(())
    }

    fn queue_depths(&self) -> Vec<usize> {
        Vec::new()
    }

    fn shutdown(&mut self) -> Vec<Arc<ExecTask>> {
        Vec::new()
    }
}

struct PoolQueue {
    /// Weighted-fair across lanes, round-robin across tenants, FIFO
    /// within a tenant — see [`cp_qos::FairQueue`].
    tasks: FairQueue<Arc<ExecTask>>,
    shutdown: bool,
}

struct PoolShared {
    depth: usize,
    run: TaskFn,
    queue: Mutex<PoolQueue>,
    /// Signalled when a task is pushed or shutdown begins (workers wait).
    task_ready: Condvar,
    /// Signalled when a task is popped (blocking dispatchers wait).
    space_ready: Condvar,
}

/// The bounded-queue worker pool (the engine's original strategy),
/// dequeuing in weighted-fair order.
pub struct ThreadPoolBackend {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPoolBackend {
    /// `label` names the worker threads (`{label}-{i}`).
    pub(crate) fn new(
        label: &str,
        workers: usize,
        queue_depth: usize,
        weights: LaneWeights,
        run: TaskFn,
    ) -> ThreadPoolBackend {
        let shared = Arc::new(PoolShared {
            depth: queue_depth,
            run,
            queue: Mutex::new(PoolQueue {
                tasks: FairQueue::new(queue_depth, weights),
                shutdown: false,
            }),
            task_ready: Condvar::new(),
            space_ready: Condvar::new(),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("{label}-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn engine worker")
            })
            .collect();
        ThreadPoolBackend { shared, workers }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some((task, _queued_for)) = queue.tasks.pop() {
                    shared.space_ready.notify_one();
                    break task;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.task_ready.wait(queue).expect("queue lock");
            }
        };
        (shared.run)(&task);
    }
}

impl ExecBackend for ThreadPoolBackend {
    fn dispatch(&self, task: Arc<ExecTask>, block: bool) -> Result<(), Error> {
        {
            let mut queue = self.shared.queue.lock().expect("queue lock");
            while queue.tasks.is_full() {
                if !block {
                    return Err(Error::QueueFull {
                        depth: self.shared.depth,
                    });
                }
                queue = self.shared.space_ready.wait(queue).expect("queue lock");
            }
            let lane = task.lane();
            let tenant = task.tenant().to_owned();
            queue
                .tasks
                .push(lane, &tenant, task)
                .map_err(|_| ())
                .expect("space was awaited under the queue lock");
        }
        self.shared.task_ready.notify_one();
        Ok(())
    }

    fn queue_depths(&self) -> Vec<usize> {
        vec![self.shared.queue.lock().expect("queue lock").tasks.len()]
    }

    fn shutdown(&mut self) -> Vec<Arc<ExecTask>> {
        let drained = {
            let mut queue = self.shared.queue.lock().expect("queue lock");
            queue.shutdown = true;
            queue.tasks.drain()
        };
        self.shared.task_ready.notify_all();
        self.shared.space_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        drained
    }
}

impl Drop for ThreadPoolBackend {
    fn drop(&mut self) {
        // Idempotent: the engine normally shuts the pool down first and
        // `workers` is already empty.
        let _ = self.shutdown();
    }
}

/// Per-shard queues and workers, routed by request-key hash.
pub struct ShardedBackend {
    shards: Vec<ThreadPoolBackend>,
}

impl ShardedBackend {
    /// Splits `workers` threads as evenly as possible across `shards`
    /// pools; each shard's queue is `queue_depth` deep. Callers
    /// guarantee `workers >= shards >= 1`
    /// ([`EngineConfig::validate`](crate::EngineConfig::validate)), so
    /// every shard gets at least one worker without oversubscribing
    /// the configured thread count.
    pub(crate) fn new(
        shards: usize,
        workers: usize,
        queue_depth: usize,
        weights: LaneWeights,
        run: &TaskFn,
    ) -> ShardedBackend {
        let base = workers / shards;
        let extra = workers % shards;
        let shards = (0..shards)
            .map(|s| {
                let shard_workers = base + usize::from(s < extra);
                ThreadPoolBackend::new(
                    &format!("pattern-shard-{s}"),
                    shard_workers,
                    queue_depth,
                    weights,
                    Arc::clone(run),
                )
            })
            .collect();
        ShardedBackend { shards }
    }
}

impl ExecBackend for ShardedBackend {
    fn dispatch(&self, task: Arc<ExecTask>, block: bool) -> Result<(), Error> {
        let shard = usize::try_from(task.route() % self.shards.len() as u64)
            .expect("shard index fits usize");
        self.shards[shard].dispatch(task, block)
    }

    fn queue_depths(&self) -> Vec<usize> {
        self.shards
            .iter()
            .flat_map(ThreadPoolBackend::queue_depths)
            .collect()
    }

    fn shutdown(&mut self) -> Vec<Arc<ExecTask>> {
        self.shards
            .iter_mut()
            .flat_map(ThreadPoolBackend::shutdown)
            .collect()
    }
}
