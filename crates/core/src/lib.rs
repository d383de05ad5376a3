//! ChatPattern: the assembled system.
//!
//! This crate wires the paper's two halves together:
//!
//! * the **generative back-end** — a conditional discrete diffusion model
//!   ([`cp_diffusion`]) trained on synthetic layout datasets
//!   ([`cp_dataset`]), with free-size extension ([`cp_extend`]) and
//!   explainable legalization ([`cp_legalize`]);
//! * the **LLM agent front-end** ([`cp_agent`]) — requirement
//!   auto-formatting, task planning, tool execution and mistake
//!   recovery.
//!
//! # The service API
//!
//! [`ChatPattern`] is the engine; the [`api`] module is the one way in:
//! a typed [`PatternRequest`] (Chat / Generate / Extend / Modify /
//! Legalize / Evaluate) served by the [`PatternService`] trait into a
//! [`PatternResponse`] with timing metadata. Every fallible path —
//! including [`ChatPatternBuilder::build`] — reports the workspace-wide
//! [`Error`].
//!
//! The direct methods ([`ChatPattern::generate`],
//! [`ChatPattern::extend`], [`ChatPattern::modify`],
//! [`ChatPattern::legalize`], [`ChatPattern::evaluate`],
//! [`ChatPattern::chat`]) remain available for in-process callers; they
//! are exactly what [`PatternService::execute`] dispatches to.
//!
//! # The engine and the wire
//!
//! For batch and server workloads, wrap any service in a
//! [`PatternEngine`]: a job-submission executor
//! ([`PatternEngine::submit`] → [`JobHandle`]) over a pluggable
//! execution [`backend`] ([`BackendKind`]: inline, thread pool, or
//! sharded), with a shared result broker that replays completed
//! results from a request-level LRU cache and **coalesces** identical
//! in-flight requests onto one execution, all reported in
//! [`EngineStats`] counters (see `docs/ENGINE.md`). The [`wire`]
//! module defines the JSON-lines envelopes the `chatpattern-serve`
//! binary speaks over stdin/stdout.
//!
//! # Example
//!
//! ```
//! use chatpattern_core::ChatPattern;
//!
//! let system = ChatPattern::builder()
//!     .window(16)
//!     .training_patterns(8)
//!     .diffusion_steps(6)
//!     .seed(1)
//!     .build()?;
//! let report = system.chat(
//!     "Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, \
//!      style Layer-10001.",
//! )?;
//! assert_eq!(report.library.len(), 2);
//! # Ok::<(), chatpattern_core::Error>(())
//! ```

pub mod api;
pub mod backend;
mod broker;
mod cache;
pub mod engine;
pub mod error;
pub mod routing;
pub mod session;
pub mod wire;

pub use api::{
    ChatOutcome, ChatParams, EvaluateParams, ExtendParams, GenerateParams, LegalizeParams,
    ModifyParams, PatternRequest, PatternResponse, PatternService, ResponsePayload,
    SessionCloseParams, SessionInfo, SessionOpenParams, SessionRestoreParams,
    SessionSnapshotParams, SessionTurnParams, Timing, TurnOutcome,
};
pub use backend::BackendKind;
/// The QoS vocabulary (lanes, quotas, fair queue, tenant stats),
/// re-exported so engine embedders need no direct `cp_qos` dependency.
pub use cp_qos as qos;
pub use engine::{ConnCounters, EngineConfig, EngineStats, JobHandle, JobStatus, PatternEngine};
pub use error::Error;
pub use session::{
    JsonDirPersist, MemoryPersist, SessionConfig, SessionPersist, SessionStats, SessionStore,
    SpillAheadConfig,
};
pub use wire::{RequestEnvelope, ResponseEnvelope, WireError, WireOutcome};

use cp_agent::{
    try_auto_format, AgentSession, AgentSnapshot, ExpertPolicy, KnowledgeBase, Message, Role,
    SessionReport, ToolContext, ToolRegistry,
};
use cp_dataset::{Dataset, DatasetBuilder, Style};
use cp_diffusion::{DiffusionModel, Mask, MrfDenoiser, NoiseSchedule, PatternSampler};
use cp_drc::{check_pattern, DesignRules};
use cp_extend::ExtensionMethod;
use cp_legalize::Legalizer;
use cp_metrics::LibraryStats;
use cp_squish::{SquishPattern, Topology};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Builder for a [`ChatPattern`] system.
///
/// Defaults are the CPU-scale configuration documented in DESIGN.md:
/// 64-cell window (paper: 128), 16 nm mean grid pitch, 12 diffusion steps
/// (paper: 1000 — β endpoints preserved), 64 training patterns per style.
///
/// Setters record values verbatim; [`ChatPatternBuilder::build`]
/// validates the whole configuration and reports [`Error::Config`]
/// instead of clamping or panicking.
#[derive(Debug, Clone)]
pub struct ChatPatternBuilder {
    window: usize,
    diffusion_steps: usize,
    training_patterns: usize,
    seed: u64,
    rules: DesignRules,
    styles: Vec<Style>,
    sessions: SessionConfig,
    durability: SessionDurability,
    spill_ahead: SpillAheadConfig,
    persist_shards: usize,
}

/// Where evicted chat sessions go (see
/// [`ChatPatternBuilder::session_spill_memory`] /
/// [`ChatPatternBuilder::session_dir`]).
#[derive(Debug, Clone, PartialEq, Eq)]
enum SessionDurability {
    /// Eviction destroys (the pre-durability behavior).
    None,
    /// Eviction spills to process memory.
    Memory,
    /// Eviction spills to one JSON file per session under this
    /// directory; spilled sessions survive a process restart.
    Dir(PathBuf),
}

impl Default for ChatPatternBuilder {
    fn default() -> ChatPatternBuilder {
        ChatPatternBuilder {
            window: 64,
            diffusion_steps: 12,
            training_patterns: 64,
            seed: 0,
            rules: DesignRules::reference(),
            styles: Style::ALL.to_vec(),
            sessions: SessionConfig::default(),
            durability: SessionDurability::None,
            spill_ahead: SpillAheadConfig::default(),
            persist_shards: 1,
        }
    }
}

/// Smallest window the denoiser can be trained at.
const MIN_WINDOW: usize = 4;

impl ChatPatternBuilder {
    /// Native model window size `L` (training resolution).
    #[must_use]
    pub fn window(mut self, window: usize) -> ChatPatternBuilder {
        self.window = window;
        self
    }

    /// Diffusion chain length `K`.
    #[must_use]
    pub fn diffusion_steps(mut self, steps: usize) -> ChatPatternBuilder {
        self.diffusion_steps = steps;
        self
    }

    /// Training patterns per style.
    #[must_use]
    pub fn training_patterns(mut self, count: usize) -> ChatPatternBuilder {
        self.training_patterns = count;
        self
    }

    /// Master RNG seed (training data and sessions are reproducible).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> ChatPatternBuilder {
        self.seed = seed;
        self
    }

    /// Design rules for legalization and evaluation.
    #[must_use]
    pub fn rules(mut self, rules: DesignRules) -> ChatPatternBuilder {
        self.rules = rules;
        self
    }

    /// Styles to train on (default: both layers).
    #[must_use]
    pub fn styles(mut self, styles: Vec<Style>) -> ChatPatternBuilder {
        self.styles = styles;
        self
    }

    /// Maximum simultaneously open chat sessions (default 64). Opening
    /// one more evicts the least-recently-used session.
    #[must_use]
    pub fn max_sessions(mut self, max_sessions: usize) -> ChatPatternBuilder {
        self.sessions.capacity = max_sessions;
        self
    }

    /// Idle lifetime of a chat session (default 15 minutes). Sessions
    /// untouched for longer expire lazily on the next session
    /// operation. The same TTL bounds *spilled* sessions in the
    /// durability layer.
    #[must_use]
    pub fn session_ttl(mut self, ttl: Duration) -> ChatPatternBuilder {
        self.sessions.ttl = ttl;
        self
    }

    /// Spills evicted sessions to process memory instead of destroying
    /// them: an over-capacity store keeps serving turns on *every*
    /// opened session (eviction rehydrates transparently) until the
    /// TTL really runs out.
    #[must_use]
    pub fn session_spill_memory(mut self) -> ChatPatternBuilder {
        self.durability = SessionDurability::Memory;
        self
    }

    /// Spills evicted sessions to one JSON file per session under
    /// `dir` (`chatpattern-serve --session-dir`). Like
    /// [`ChatPatternBuilder::session_spill_memory`], plus spilled
    /// sessions survive a process restart: a new system built over the
    /// same directory (and an equivalent model configuration)
    /// rehydrates them on first touch.
    #[must_use]
    pub fn session_dir(mut self, dir: impl Into<PathBuf>) -> ChatPatternBuilder {
        self.durability = SessionDurability::Dir(dir.into());
        self
    }

    /// Spill-ahead turn trigger (`chatpattern-serve
    /// --spill-ahead-turns`): with [`ChatPatternBuilder::session_dir`],
    /// every N-th turn on a session also writes its snapshot to disk
    /// while the session stays warm, so a crash loses at most the
    /// in-flight turn. The write runs on the turn's own thread holding
    /// only that session's lock — turns on other sessions never block.
    #[must_use]
    pub fn spill_ahead_turns(mut self, every_turns: u64) -> ChatPatternBuilder {
        self.spill_ahead.every_turns = Some(every_turns.max(1));
        self
    }

    /// Spill-ahead cadence trigger (`chatpattern-serve
    /// --spill-ahead-secs`): a background maintenance thread flushes
    /// every warm session with unpersisted turns on this interval (and
    /// purges expired sessions while at it).
    #[must_use]
    pub fn spill_ahead_interval(mut self, interval: Duration) -> ChatPatternBuilder {
        self.spill_ahead.interval = Some(interval);
        self
    }

    /// Fans the session directory out over `shards` subdirectories
    /// (`chatpattern-serve --persist-shards`, default 1 = flat
    /// layout), each with its own lock, so a 10k-session store neither
    /// serializes every spill on one directory lock nor makes restart
    /// scans quadratic. Files spilled by an earlier unsharded run are
    /// still found in the directory root.
    #[must_use]
    pub fn persist_shards(mut self, shards: usize) -> ChatPatternBuilder {
        self.persist_shards = shards;
        self
    }

    /// Checks the configuration without building.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] describing the first invalid setting.
    pub fn validate(&self) -> Result<(), Error> {
        if self.window < MIN_WINDOW {
            return Err(Error::config(format!(
                "window must be at least {MIN_WINDOW} cells (got {})",
                self.window
            )));
        }
        if self.diffusion_steps == 0 {
            return Err(Error::config("diffusion_steps must be at least 1 (got 0)"));
        }
        if self.training_patterns == 0 {
            return Err(Error::config(
                "training_patterns must be at least 1 (got 0)",
            ));
        }
        if self.styles.is_empty() {
            return Err(Error::config("at least one style is required"));
        }
        self.sessions.validate()?;
        if self.persist_shards == 0 {
            return Err(Error::config(
                "persist_shards must be at least 1 (got 0); 1 keeps the flat layout",
            ));
        }
        let has_dir = matches!(self.durability, SessionDurability::Dir(_));
        if self.spill_ahead.is_enabled() && !has_dir {
            return Err(Error::config(
                "spill-ahead needs a session directory to write to; configure session_dir \
                 (serve: --session-dir) alongside the spill-ahead triggers",
            ));
        }
        if self.persist_shards > 1 && !has_dir {
            return Err(Error::config(
                "persist_shards only applies to a session directory; configure session_dir \
                 (serve: --session-dir) alongside it",
            ));
        }
        Ok(())
    }

    /// Builds the system: generates the synthetic training datasets,
    /// fits the conditional denoiser, and assembles the agent plumbing.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the configuration is invalid (bad
    /// window or step counts, no styles); this replaces the panics of
    /// earlier revisions.
    pub fn build(self) -> Result<ChatPattern, Error> {
        self.validate()?;
        // 16 nm mean grid pitch, like the paper's 2048 nm / 128 cells.
        let patch_nm = (self.window as i64) * 16;
        let datasets: Vec<Dataset> = self
            .styles
            .iter()
            .enumerate()
            .map(|(i, &style)| {
                DatasetBuilder::new(style)
                    .patch_nm(patch_nm)
                    .topology_size(self.window)
                    .count(self.training_patterns)
                    .seed(self.seed.wrapping_add(i as u64))
                    .build()
            })
            .collect();
        let topo_store: Vec<(u32, Vec<Topology>)> = datasets
            .iter()
            .map(|d| {
                (
                    d.style().id(),
                    d.patterns().iter().map(|p| p.topology().clone()).collect(),
                )
            })
            .collect();
        let fit_refs: Vec<(u32, &[Topology])> = topo_store
            .iter()
            .map(|(id, v)| (*id, v.as_slice()))
            .collect();
        let denoiser = MrfDenoiser::fit(&fit_refs, 1.0);
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(self.diffusion_steps),
            denoiser,
            self.window,
        );
        let model = Arc::new(model);
        let legalizer = Legalizer::new(self.rules);
        let snapshot_bytes_saved = Arc::new(AtomicU64::new(0));
        let sessions = match self.durability {
            SessionDurability::None => SessionStore::new(self.sessions),
            SessionDurability::Memory => SessionStore::with_persist(
                self.sessions,
                Arc::new(MemoryPersist::new(self.sessions.ttl)),
            ),
            SessionDurability::Dir(dir) => {
                // The decode closure re-injects the trained sampler and
                // the legalizer — the snapshot carries only session
                // state, so spilled files stay small and a restart with
                // an equivalent model configuration rehydrates them.
                // The encode closure additionally *compacts* the
                // snapshot (rolling digest + bounded transcript tail):
                // the transcript dominates snapshot size, yet future
                // turns never read past the current turn's messages,
                // so persisted files stay bounded as dialogs grow.
                let decode_model = Arc::clone(&model);
                let decode_legalizer = legalizer.clone();
                let encode_saved = Arc::clone(&snapshot_bytes_saved);
                SessionStore::with_persist(
                    self.sessions,
                    Arc::new(JsonDirPersist::sharded(
                        dir,
                        self.sessions.ttl,
                        self.persist_shards,
                        move |session: &ChatSession| {
                            let mut snapshot = session.snapshot();
                            let saved = snapshot.compact(SNAPSHOT_TRANSCRIPT_TAIL);
                            encode_saved.fetch_add(saved, Ordering::Relaxed);
                            serde_json::to_string(&snapshot)
                                .map_err(|e| Error::session_persist(e.to_string()))
                        },
                        move |text| {
                            let snapshot: SessionSnapshot =
                                serde_json::from_str(text).map_err(|e| {
                                    Error::session_persist(format!(
                                        "corrupt spilled session file: {e}"
                                    ))
                                })?;
                            ChatSession::restore(
                                snapshot,
                                Box::new(SharedSampler(Arc::clone(&decode_model))),
                                decode_legalizer.clone(),
                            )
                        },
                    )?),
                )
            }
        };
        let sessions = Arc::new(sessions.with_spill_ahead(self.spill_ahead));
        let maintenance = self
            .spill_ahead
            .interval
            .map(|interval| Maintenance::spawn(Arc::clone(&sessions), interval));
        Ok(ChatPattern {
            model,
            legalizer,
            rules: self.rules,
            datasets,
            knowledge: KnowledgeBase::new(),
            patch_nm,
            seed: self.seed,
            sessions,
            snapshot_bytes_saved,
            _maintenance: maintenance,
        })
    }
}

/// The background session-maintenance thread: on the spill-ahead
/// cadence it purges expired sessions (which spills them — see
/// [`SessionStore::purge_expired`]) and flushes warm sessions with
/// unpersisted turns. Stops (and joins) when the owning [`ChatPattern`]
/// drops.
struct Maintenance {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Maintenance {
    fn spawn(sessions: Arc<SessionStore<ChatSession>>, interval: Duration) -> Maintenance {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("cp-session-maintenance".into())
            .spawn(move || {
                let (lock, cvar) = &*stop_flag;
                let mut stopped = lock.lock().expect("maintenance stop lock");
                loop {
                    let (guard, timeout) = cvar
                        .wait_timeout(stopped, interval)
                        .expect("maintenance stop lock");
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    if timeout.timed_out() {
                        // Run the sweep with the stop lock released so
                        // shutdown never waits behind persist I/O more
                        // than one tick.
                        drop(stopped);
                        sessions.purge_expired();
                        sessions.spill_ahead_pass();
                        stopped = lock.lock().expect("maintenance stop lock");
                    }
                }
            })
            .expect("maintenance thread spawns");
        Maintenance {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Maintenance {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().expect("maintenance stop lock") = true;
        cvar.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A sampler handle sharing the trained model across sessions.
#[derive(Clone)]
struct SharedSampler(Arc<DiffusionModel<MrfDenoiser>>);

impl PatternSampler for SharedSampler {
    fn window(&self) -> usize {
        self.0.native_size()
    }

    fn generate(
        &self,
        rows: usize,
        cols: usize,
        condition: Option<u32>,
        rng: &mut dyn RngCore,
    ) -> Topology {
        self.0.generate(rows, cols, condition, rng)
    }

    fn modify(
        &self,
        known: &Topology,
        mask: &Mask,
        condition: Option<u32>,
        rng: &mut dyn RngCore,
    ) -> Topology {
        PatternSampler::modify(&*self.0, known, mask, condition, rng)
    }
}

/// One live multi-turn chat dialog: a resumable
/// [`AgentSession`] plus its identity. Normally managed by the
/// system's [`SessionStore`] via [`ChatPattern::session_open`] /
/// [`ChatPattern::session_turn`] / [`ChatPattern::session_close`];
/// exposed so in-process callers (tests, examples, embedders) can
/// drive a session directly.
pub struct ChatSession {
    id: String,
    seed: u64,
    inner: AgentSession<ExpertPolicy>,
}

impl std::fmt::Debug for ChatSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChatSession")
            .field("id", &self.id)
            .field("seed", &self.seed)
            .field("turns", &self.inner.turns())
            .finish_non_exhaustive()
    }
}

impl ChatSession {
    /// The session id.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The resolved session seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Turns processed so far.
    #[must_use]
    pub fn turns(&self) -> usize {
        self.inner.turns()
    }

    /// The pattern library accumulated so far.
    #[must_use]
    pub fn library(&self) -> &[SquishPattern] {
        self.inner.library()
    }

    /// Runs one user turn. The first turn must parse into requirement
    /// lists (like [`ChatPattern::chat`]); follow-up turns inherit
    /// unmentioned fields from the previous turn's requirement, so
    /// short refinements ("now make them denser") are valid.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Requirement`] when the utterance is unusable.
    pub fn turn(&mut self, utterance: &str) -> Result<TurnOutcome, Error> {
        if self.inner.turns() == 0 {
            try_auto_format(utterance)?;
        } else if utterance.trim().is_empty() {
            return Err(Error::Requirement(cp_agent::RequirementError::new(
                "the turn utterance is empty; describe the refinement",
            )));
        }
        let report = self.inner.turn(utterance);
        Ok(TurnOutcome {
            session: self.id.clone(),
            turn: report.turn,
            summary: report.summary,
            tool_calls: report.tool_calls,
            library: self.inner.library().to_vec(),
            transcript: report.transcript,
        })
    }

    /// Consumes the session into its final outcome (full transcript,
    /// cumulative library, last summary).
    #[must_use]
    pub fn into_outcome(self) -> ChatOutcome {
        let report = self.inner.close();
        ChatOutcome {
            summary: report.summary,
            tool_calls: report.tool_calls,
            library: report.library,
            transcript: report.transcript,
        }
    }

    /// Exports the session's complete between-turns state as a
    /// serializable [`SessionSnapshot`]. Non-destructive: the session
    /// keeps running, and follow-up turns on a
    /// [`ChatSession::restore`]d copy are byte-identical to turns on
    /// the original.
    #[must_use]
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            format: SESSION_SNAPSHOT_FORMAT,
            session: self.id.clone(),
            seed: self.seed,
            agent: self.inner.snapshot(),
            compaction: None,
        }
    }

    /// Rebuilds a session from a [`SessionSnapshot`] plus freshly
    /// injected dependencies (the trained sampler and the legalizer —
    /// snapshots carry state, not models). In-process callers restore
    /// through [`ChatPattern::session_restore`], which injects the
    /// system's own back-end.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionPersist`] for an unknown snapshot
    /// format or corrupt state, and [`Error::InvalidRequest`] for an
    /// empty session id.
    pub fn restore(
        snapshot: SessionSnapshot,
        sampler: Box<dyn cp_diffusion::PatternSampler>,
        legalizer: Legalizer,
    ) -> Result<ChatSession, Error> {
        if snapshot.format < SESSION_SNAPSHOT_FORMAT_MIN
            || snapshot.format > SESSION_SNAPSHOT_FORMAT
        {
            return Err(Error::session_persist(format!(
                "unknown session snapshot format {} (this build reads formats \
                 {SESSION_SNAPSHOT_FORMAT_MIN}..={SESSION_SNAPSHOT_FORMAT})",
                snapshot.format
            )));
        }
        if snapshot.session.is_empty() {
            return Err(Error::invalid_request(
                "session snapshot carries an empty session id",
            ));
        }
        let inner =
            AgentSession::restore(snapshot.agent, ToolRegistry::standard(), sampler, legalizer)?;
        Ok(ChatSession {
            id: snapshot.session,
            seed: snapshot.seed,
            inner,
        })
    }
}

/// Version tag of the serialized session snapshot layout. Bump it when
/// [`SessionSnapshot`] (or anything nested in it) changes shape;
/// [`ChatSession::restore`] rejects snapshots from unknown formats
/// with a typed error instead of misreading them. Format 2 added the
/// optional [`TranscriptCompaction`] record; format-1 snapshots (no
/// `compaction` field) still restore unchanged
/// ([`SESSION_SNAPSHOT_FORMAT_MIN`]).
pub const SESSION_SNAPSHOT_FORMAT: u32 = 2;

/// Oldest snapshot format [`ChatSession::restore`] still reads.
pub const SESSION_SNAPSHOT_FORMAT_MIN: u32 = 1;

/// Transcript messages a compacted snapshot keeps after the system
/// prompt ([`SessionSnapshot::compact`]). Between turns the policy
/// only ever reads the *current* turn's messages (requirement
/// carry-over lives in [`cp_agent::PolicySnapshot`], the library and
/// RNG in [`cp_agent::ContextSnapshot`]), so any tail is behaviorally
/// safe; a short one keeps spill files bounded while preserving
/// recent context for humans reading the file.
pub const SNAPSHOT_TRANSCRIPT_TAIL: usize = 8;

/// Rolling record of transcript messages trimmed from a snapshot by
/// [`SessionSnapshot::compact`]: how many were dropped, a running
/// digest of their contents (so two snapshots with different trimmed
/// histories never look identical), and the content bytes saved.
/// Folds across repeated compactions of the same dialog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TranscriptCompaction {
    /// Messages dropped from the head of the transcript (the system
    /// prompt is never dropped).
    pub dropped: u64,
    /// FNV-1a digest folded over every dropped message, in order.
    pub digest: u64,
    /// Transcript content bytes trimmed, cumulative.
    pub bytes: u64,
}

/// Folds `message` into a running FNV-1a digest (`seed` 0 starts a
/// fresh chain).
fn fold_digest(seed: u64, message: &Message) -> u64 {
    let mut hash = if seed == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        seed
    };
    let role = match message.role {
        Role::System => 0u8,
        Role::User => 1,
        Role::Assistant => 2,
        Role::Observation => 3,
    };
    for byte in std::iter::once(role).chain(message.content.bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The complete serializable state of one [`ChatSession`] between
/// turns: identity (id + resolved seed) plus the agent's transcript,
/// policy carry-over, working store, library, knowledge and RNG
/// position. JSON round-trippable — this is both the spill format of
/// [`JsonDirPersist`] and the wire payload of
/// `PatternRequest::{SessionSnapshot, SessionRestore}` (cross-process
/// handoff; see `docs/SESSIONS.md`). Wire snapshots are exported
/// full-fidelity; the persist path compacts them first
/// ([`SessionSnapshot::compact`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Snapshot layout version ([`SESSION_SNAPSHOT_FORMAT`]).
    pub format: u32,
    /// The session id.
    pub session: String,
    /// The session seed resolved at open.
    pub seed: u64,
    /// The agent's between-turns state.
    pub agent: AgentSnapshot,
    /// Compaction record (`None` = full-fidelity transcript; also what
    /// a format-1 snapshot deserializes to).
    #[serde(default)]
    pub compaction: Option<TranscriptCompaction>,
}

impl SessionSnapshot {
    /// Compacts the snapshot in place: drops every transcript message
    /// between the system prompt and the last `max_tail` entries,
    /// folding the dropped messages into the rolling
    /// [`TranscriptCompaction`] record. Returns the content bytes
    /// trimmed by *this* call (0 when the transcript is already within
    /// bounds).
    ///
    /// Restoring a compacted snapshot changes no future behavior: the
    /// policy re-reads only the current turn's messages, and all
    /// cross-turn state (requirement carry-over, library, knowledge,
    /// RNG position) lives outside the transcript. Only artifacts that
    /// replay the full dialog history (`session_close` transcripts,
    /// wire snapshot exports) see the shorter transcript.
    pub fn compact(&mut self, max_tail: usize) -> u64 {
        let transcript = &mut self.agent.transcript;
        if transcript.len() <= max_tail.saturating_add(1) {
            return 0;
        }
        let keep_from = transcript.len() - max_tail;
        let mut record = self.compaction.unwrap_or_default();
        let mut saved = 0u64;
        for message in transcript.drain(1..keep_from) {
            record.dropped += 1;
            saved += message.content.len() as u64;
            record.digest = fold_digest(record.digest, &message);
        }
        record.bytes += saved;
        self.compaction = Some(record);
        saved
    }
}

/// The assembled ChatPattern system.
///
/// Obtain one through [`ChatPattern::builder`]; drive it through the
/// [`PatternService`] trait or the direct methods below. All entry
/// points return `Result<_, `[`Error`]`>`.
pub struct ChatPattern {
    model: Arc<DiffusionModel<MrfDenoiser>>,
    legalizer: Legalizer,
    rules: DesignRules,
    datasets: Vec<Dataset>,
    knowledge: KnowledgeBase,
    patch_nm: i64,
    seed: u64,
    sessions: Arc<SessionStore<ChatSession>>,
    /// Transcript bytes trimmed by persist-path snapshot compaction
    /// (bumped by the encode closure; surfaced via
    /// [`ChatPattern::session_stats`]).
    snapshot_bytes_saved: Arc<AtomicU64>,
    /// Background cadence thread (spill-ahead + TTL purge). Held only
    /// for its `Drop` (signals the thread to stop and joins it).
    _maintenance: Option<Maintenance>,
}

impl std::fmt::Debug for ChatPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChatPattern")
            .field("window", &self.model.native_size())
            .field("patch_nm", &self.patch_nm)
            .field("datasets", &self.datasets.len())
            .finish_non_exhaustive()
    }
}

impl ChatPattern {
    /// Starts a builder.
    #[must_use]
    pub fn builder() -> ChatPatternBuilder {
        ChatPatternBuilder::default()
    }

    /// Native model window size.
    #[must_use]
    pub fn window(&self) -> usize {
        self.model.native_size()
    }

    /// Physical patch size the defaults assume (16 nm × window).
    #[must_use]
    pub fn patch_nm(&self) -> i64 {
        self.patch_nm
    }

    /// Design rules in force.
    #[must_use]
    pub fn rules(&self) -> &DesignRules {
        &self.rules
    }

    /// Training datasets (the "real patterns" references).
    #[must_use]
    pub fn datasets(&self) -> &[Dataset] {
        &self.datasets
    }

    /// The trained diffusion model (back-end access for experiments).
    #[must_use]
    pub fn model(&self) -> &DiffusionModel<MrfDenoiser> {
        &self.model
    }

    /// The agent's knowledge base.
    #[must_use]
    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.knowledge
    }

    /// Mutable knowledge base (seed it with Figure-10 statistics).
    pub fn knowledge_mut(&mut self) -> &mut KnowledgeBase {
        &mut self.knowledge
    }

    /// Runs a full agent session on a natural-language request.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Requirement`] when the request cannot be parsed
    /// into requirement lists.
    pub fn chat(&self, request: &str) -> Result<SessionReport, Error> {
        self.chat_with_seed(request, self.seed)
    }

    /// [`ChatPattern::chat`] with an explicit session seed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Requirement`] when the request cannot be parsed
    /// into requirement lists.
    pub fn chat_with_seed(&self, request: &str, seed: u64) -> Result<SessionReport, Error> {
        // Validate the request up front so callers get a typed error
        // instead of an agent transcript that went nowhere.
        try_auto_format(request)?;
        Ok(self.new_agent_session(seed).run(request))
    }

    fn new_agent_session(&self, seed: u64) -> AgentSession<ExpertPolicy> {
        let ctx = ToolContext::new(
            Box::new(SharedSampler(Arc::clone(&self.model))),
            self.legalizer.clone(),
            self.knowledge.clone(),
            seed,
        );
        AgentSession::new(ExpertPolicy::default(), ToolRegistry::standard(), ctx)
    }

    /// Opens a stateful multi-turn chat session in the system's
    /// session store under the client-chosen `id`. The store is
    /// bounded (TTL + LRU eviction, see [`SessionStore`]); opening at
    /// capacity evicts the least-recently-used session.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] when `id` is empty or already
    /// names a live session.
    pub fn session_open(&self, id: &str, seed: Option<u64>) -> Result<SessionInfo, Error> {
        let seed = seed.unwrap_or(self.seed);
        self.sessions.open(id, || ChatSession {
            id: id.to_owned(),
            seed,
            inner: self.new_agent_session(seed),
        })?;
        Ok(SessionInfo {
            session: id.to_owned(),
            seed,
        })
    }

    /// Runs one user turn on the open session `id`. Turns on one
    /// session serialize; turns on distinct sessions run in parallel.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionNotFound`] when `id` is not live
    /// (never opened, closed, expired, or evicted) and
    /// [`Error::Requirement`] when the utterance is unusable.
    pub fn session_turn(&self, id: &str, utterance: &str) -> Result<TurnOutcome, Error> {
        self.sessions.turn(id, |session| session.turn(utterance))
    }

    /// Closes session `id`, returning the dialog's final outcome
    /// (full transcript, cumulative library, last summary).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionNotFound`] when `id` is not live.
    pub fn session_close(&self, id: &str) -> Result<ChatOutcome, Error> {
        Ok(self.sessions.close(id)?.into_outcome())
    }

    /// Exports a live (or spilled) session as a serializable
    /// [`SessionSnapshot`] without disturbing it: the session stays
    /// open, and its follow-up turns are unaffected by the export.
    /// Import the snapshot into another system — or another
    /// `chatpattern-serve` process, via `PatternRequest::SessionRestore`
    /// — with [`ChatPattern::session_restore`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionNotFound`] when `id` is not live.
    pub fn session_snapshot(&self, id: &str) -> Result<SessionSnapshot, Error> {
        self.sessions.inspect(id, |session| Ok(session.snapshot()))
    }

    /// Imports a [`SessionSnapshot`], making the session live under
    /// its embedded id with this system's back-end injected. The
    /// restored session's follow-up turns are byte-identical to the
    /// donor session's, provided both systems were built with an
    /// equivalent model configuration (same window, training set,
    /// diffusion steps and rules).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionPersist`] for a corrupt or
    /// wrong-format snapshot and [`Error::InvalidRequest`] when the
    /// snapshot's id already names a live session here.
    pub fn session_restore(&self, snapshot: SessionSnapshot) -> Result<SessionInfo, Error> {
        let session = ChatSession::restore(
            snapshot,
            Box::new(SharedSampler(Arc::clone(&self.model))),
            self.legalizer.clone(),
        )?;
        let info = SessionInfo {
            session: session.id().to_owned(),
            seed: session.seed(),
        };
        self.sessions.open(&info.session, move || session)?;
        Ok(info)
    }

    /// Session activity counters (open / evicted / spilled / restored
    /// / spilled-ahead / turns, plus compaction savings).
    #[must_use]
    pub fn session_stats(&self) -> SessionStats {
        let mut stats = self.sessions.stats();
        stats.bytes_saved = self.snapshot_bytes_saved.load(Ordering::Relaxed);
        stats
    }

    /// Direct API: conditional generation of `count` topologies.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] when `rows` or `cols` is zero.
    pub fn generate(
        &self,
        style: Style,
        rows: usize,
        cols: usize,
        count: usize,
        seed: u64,
    ) -> Result<Vec<Topology>, Error> {
        if rows == 0 || cols == 0 {
            return Err(Error::invalid_request(format!(
                "topology size {rows}x{cols} must be non-empty"
            )));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Ok((0..count)
            .map(|_| self.model.sample(rows, cols, Some(style.id()), &mut rng))
            .collect())
    }

    /// Batch generation: the seed-stream fan-out path behind
    /// [`PatternService::execute_many`]. Every request draws from its
    /// own [`ChaCha8Rng`] stream seeded by `GenerateParams::seed`, so
    /// the output is a pure function of the request list — independent
    /// of execution order and ready for parallel dispatch.
    ///
    /// # Errors
    ///
    /// Returns the first [`Error::InvalidRequest`] among the requests;
    /// nothing is partially delivered. All parameters are validated
    /// before any sampling starts, so a bad request late in the batch
    /// cannot waste the earlier requests' diffusion work.
    pub fn generate_many(&self, requests: &[GenerateParams]) -> Result<Vec<Vec<Topology>>, Error> {
        for p in requests {
            if p.rows == 0 || p.cols == 0 {
                return Err(Error::invalid_request(format!(
                    "topology size {}x{} must be non-empty",
                    p.rows, p.cols
                )));
            }
        }
        requests
            .iter()
            .map(|p| self.generate(p.style, p.rows, p.cols, p.count, p.seed))
            .collect()
    }

    /// Direct API: free-size extension of an existing topology.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] when the target is smaller than
    /// the seed topology, (unless it equals the seed shape) smaller
    /// than the model window, or — for in-painting — when the seed is
    /// not exactly window-sized.
    pub fn extend(
        &self,
        seed_topology: &Topology,
        rows: usize,
        cols: usize,
        method: ExtensionMethod,
        style: Style,
        seed: u64,
    ) -> Result<Topology, Error> {
        let (seed_rows, seed_cols) = seed_topology.shape();
        if (rows, cols) != (seed_rows, seed_cols) {
            if rows < seed_rows || cols < seed_cols {
                return Err(Error::invalid_request(format!(
                    "extension target {rows}x{cols} is smaller than the seed \
                     {seed_rows}x{seed_cols}"
                )));
            }
            let window = self.window();
            if rows < window || cols < window {
                return Err(Error::invalid_request(format!(
                    "extension target {rows}x{cols} is below the model window {window}"
                )));
            }
            // In-painting tiles the canvas in window-sized steps and
            // places the seed as the first tile, so it requires an
            // exactly window-sized seed.
            if method == ExtensionMethod::InPainting && (seed_rows, seed_cols) != (window, window) {
                return Err(Error::invalid_request(format!(
                    "in-painting needs a window-sized ({window}x{window}) seed, \
                     got {seed_rows}x{seed_cols}"
                )));
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Ok(cp_extend::extend(
            &SharedSampler(Arc::clone(&self.model)),
            seed_topology,
            rows,
            cols,
            method,
            Some(style.id()),
            &mut rng,
        ))
    }

    /// Direct API: RePaint modification of a masked region.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] when the mask shape does not
    /// match the topology shape.
    pub fn modify(
        &self,
        known: &Topology,
        mask: &Mask,
        style: Style,
        seed: u64,
    ) -> Result<Topology, Error> {
        if mask.shape() != known.shape() {
            let (mr, mc) = mask.shape();
            let (kr, kc) = known.shape();
            return Err(Error::invalid_request(format!(
                "mask shape {mr}x{mc} does not match topology shape {kr}x{kc}"
            )));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Ok(self
            .model
            .modify(known, mask, Some(style.id()), 1, &mut rng))
    }

    /// Direct API: legalization into a physical frame.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] for a non-positive frame and
    /// [`Error::Legalize`] with the explainable failure otherwise.
    pub fn legalize(
        &self,
        topology: &Topology,
        width_nm: i64,
        height_nm: i64,
        seed: u64,
    ) -> Result<SquishPattern, Error> {
        if width_nm <= 0 || height_nm <= 0 {
            return Err(Error::invalid_request(format!(
                "physical frame {width_nm}x{height_nm} nm must be positive"
            )));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Ok(self
            .legalizer
            .legalize(topology, width_nm, height_nm, &mut rng)?)
    }

    /// Direct API: Table-1-style evaluation of a topology library.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] for a non-positive frame.
    pub fn evaluate<'a>(
        &self,
        topologies: impl Iterator<Item = &'a Topology>,
        frame_nm: i64,
        seed: u64,
    ) -> Result<LibraryStats, Error> {
        if frame_nm <= 0 {
            return Err(Error::invalid_request(format!(
                "evaluation frame {frame_nm} nm must be positive"
            )));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Ok(LibraryStats::evaluate(
            topologies,
            frame_nm,
            &self.rules,
            &mut rng,
        ))
    }

    /// Direct API: independent DRC verification of a physical pattern.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Drc`] carrying every violation when the pattern
    /// is not clean.
    pub fn drc_check(&self, pattern: &SquishPattern) -> Result<(), Error> {
        let report = check_pattern(pattern, &self.rules);
        if report.is_clean() {
            Ok(())
        } else {
            Err(Error::from(&report))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_squish::Region;

    fn small_system() -> ChatPattern {
        ChatPattern::builder()
            .window(16)
            .training_patterns(8)
            .diffusion_steps(6)
            .seed(3)
            .build()
            .expect("valid configuration")
    }

    #[test]
    fn builder_produces_working_system() {
        let system = small_system();
        assert_eq!(system.window(), 16);
        assert_eq!(system.patch_nm(), 256);
        assert_eq!(system.datasets().len(), 2);
    }

    #[test]
    fn builder_rejects_bad_configurations() {
        let tiny = ChatPattern::builder().window(2).build();
        assert!(matches!(tiny, Err(Error::Config { .. })), "{tiny:?}");
        let no_steps = ChatPattern::builder().diffusion_steps(0).build();
        assert!(matches!(no_steps, Err(Error::Config { .. })));
        let no_training = ChatPattern::builder().training_patterns(0).build();
        assert!(matches!(no_training, Err(Error::Config { .. })));
        let no_styles = ChatPattern::builder().styles(Vec::new()).build();
        assert!(matches!(no_styles, Err(Error::Config { .. })));
    }

    #[test]
    fn direct_generation_is_conditional_and_reproducible() {
        let system = small_system();
        let a = system
            .generate(Style::Layer10001, 16, 16, 2, 7)
            .expect("generates");
        let b = system
            .generate(Style::Layer10001, 16, 16, 2, 7)
            .expect("generates");
        assert_eq!(a, b);
        let dense: f64 = a.iter().map(Topology::density).sum::<f64>() / 2.0;
        let sparse: f64 = system
            .generate(Style::Layer10003, 16, 16, 2, 7)
            .expect("generates")
            .iter()
            .map(Topology::density)
            .sum::<f64>()
            / 2.0;
        assert!(dense > sparse, "dense {dense:.3} vs sparse {sparse:.3}");
    }

    #[test]
    fn generate_many_fans_out_independent_seed_streams() {
        let system = small_system();
        let requests = [
            GenerateParams {
                style: Style::Layer10001,
                rows: 16,
                cols: 16,
                count: 2,
                seed: 1,
            },
            GenerateParams {
                style: Style::Layer10003,
                rows: 16,
                cols: 16,
                count: 1,
                seed: 2,
            },
        ];
        let batch = system.generate_many(&requests).expect("generates");
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].len(), 2);
        assert_eq!(batch[1].len(), 1);
        // Each request equals its standalone execution: order-free.
        let solo = system
            .generate(Style::Layer10003, 16, 16, 1, 2)
            .expect("generates");
        assert_eq!(batch[1], solo);
    }

    #[test]
    fn chat_delivers_requested_library() {
        let system = small_system();
        let report = system
            .chat(
                "Generate 3 patterns, topology size 16*16, physical size 512nm x 512nm, \
                 style Layer-10003.",
            )
            .expect("parses and runs");
        assert_eq!(report.library.len(), 3, "summary: {}", report.summary);
        for p in &report.library {
            assert_eq!(p.physical_width(), 512);
        }
    }

    #[test]
    fn chat_rejects_unparseable_requests() {
        let system = small_system();
        let err = system.chat("   ").expect_err("empty request must fail");
        assert!(matches!(err, Error::Requirement(_)), "{err:?}");
    }

    #[test]
    fn extend_and_evaluate_round_trip() {
        let system = small_system();
        let seed = system
            .generate(Style::Layer10003, 16, 16, 1, 5)
            .expect("generates")
            .remove(0);
        let big = system
            .extend(
                &seed,
                32,
                32,
                ExtensionMethod::OutPainting,
                Style::Layer10003,
                5,
            )
            .expect("extends");
        assert_eq!(big.shape(), (32, 32));
        let library = [big];
        let stats = system.evaluate(library.iter(), 512, 5).expect("evaluates");
        assert_eq!(stats.total, 1);
    }

    #[test]
    fn extend_rejects_shrinking_targets() {
        let system = small_system();
        let seed = system
            .generate(Style::Layer10001, 16, 16, 1, 5)
            .expect("generates")
            .remove(0);
        let err = system
            .extend(
                &seed,
                8,
                8,
                ExtensionMethod::OutPainting,
                Style::Layer10001,
                5,
            )
            .expect_err("shrinking must fail");
        assert!(matches!(err, Error::InvalidRequest { .. }));
    }

    #[test]
    fn extend_rejects_non_window_seed_for_in_painting() {
        let system = small_system();
        let small_seed = Topology::filled(8, 8, true);
        let err = system
            .extend(
                &small_seed,
                32,
                32,
                ExtensionMethod::InPainting,
                Style::Layer10001,
                5,
            )
            .expect_err("8x8 seed under a 16-cell window must be rejected");
        assert!(matches!(err, Error::InvalidRequest { .. }), "{err:?}");
        // Out-painting accepts sub-window seeds.
        let ok = system
            .extend(
                &small_seed,
                32,
                32,
                ExtensionMethod::OutPainting,
                Style::Layer10001,
                5,
            )
            .expect("out-painting grows sub-window seeds");
        assert_eq!(ok.shape(), (32, 32));
    }

    #[test]
    fn generate_many_validates_before_sampling() {
        let system = small_system();
        let requests = [
            GenerateParams {
                style: Style::Layer10001,
                rows: 16,
                cols: 16,
                count: 1,
                seed: 1,
            },
            GenerateParams {
                style: Style::Layer10001,
                rows: 0,
                cols: 16,
                count: 1,
                seed: 2,
            },
        ];
        let err = system
            .generate_many(&requests)
            .expect_err("zero-row request must fail the batch");
        assert!(matches!(err, Error::InvalidRequest { .. }));
    }

    #[test]
    fn legalize_direct_api_is_explainable() {
        let system = small_system();
        let topology = system
            .generate(Style::Layer10003, 16, 16, 1, 9)
            .expect("generates")
            .remove(0);
        // Either outcome is valid; the call must be explainable on failure.
        if let Err(Error::Legalize(failure)) = system.legalize(&topology, 256, 256, 1) {
            assert!(!failure.log.is_empty());
        }
    }

    #[test]
    fn legalize_rejects_empty_frames() {
        let system = small_system();
        let topology = Topology::filled(4, 4, true);
        let err = system
            .legalize(&topology, 0, 100, 1)
            .expect_err("zero frame must fail");
        assert!(matches!(err, Error::InvalidRequest { .. }));
    }

    #[test]
    fn modify_respects_mask_through_facade() {
        let system = small_system();
        let known = system
            .generate(Style::Layer10001, 16, 16, 1, 11)
            .expect("generates")
            .remove(0);
        let mask = Mask::keep_outside(16, 16, Region::new(4, 4, 12, 12));
        let out = system
            .modify(&known, &mask, Style::Layer10001, 11)
            .expect("modifies");
        for r in 0..16 {
            for c in 0..16 {
                if mask.keeps(r, c) {
                    assert_eq!(out.get(r, c), known.get(r, c));
                }
            }
        }
    }

    #[test]
    fn modify_rejects_mismatched_mask() {
        let system = small_system();
        let known = Topology::filled(16, 16, false);
        let mask = Mask::keep_all(8, 8);
        let err = system
            .modify(&known, &mask, Style::Layer10001, 1)
            .expect_err("shape mismatch must fail");
        assert!(matches!(err, Error::InvalidRequest { .. }));
    }

    #[test]
    fn session_lifecycle_round_trips() {
        let system = small_system();
        let info = system.session_open("s1", Some(9)).expect("opens");
        assert_eq!(info.seed, 9);
        let t1 = system
            .session_turn(
                "s1",
                "Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, \
                 style Layer-10001.",
            )
            .expect("turn 1 runs");
        assert_eq!(t1.turn, 1);
        assert_eq!(t1.library.len(), 2, "summary: {}", t1.summary);
        // A follow-up with only a count inherits size/style/frame and
        // grows the same library.
        let t2 = system
            .session_turn("s1", "1 more pattern.")
            .expect("turn 2 runs");
        assert_eq!(t2.turn, 2);
        assert_eq!(t2.library.len(), 3, "summary: {}", t2.summary);
        assert_eq!(t2.library[..2], t1.library[..], "earlier patterns kept");
        let outcome = system.session_close("s1").expect("closes");
        assert_eq!(outcome.library.len(), 3);
        assert_eq!(outcome.tool_calls, t1.tool_calls + t2.tool_calls);
        let err = system
            .session_turn("s1", "anything")
            .expect_err("closed sessions are gone");
        assert!(matches!(err, Error::SessionNotFound { .. }), "{err:?}");
        let stats = system.session_stats();
        assert_eq!((stats.open, stats.evicted, stats.turns), (0, 0, 2));
    }

    #[test]
    fn first_session_turn_matches_one_shot_chat() {
        let request = "Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, \
                       style Layer-10003.";
        let system = small_system();
        let chat = system.chat_with_seed(request, 11).expect("chats");
        system.session_open("s", Some(11)).expect("opens");
        let turn = system.session_turn("s", request).expect("turn runs");
        assert_eq!(turn.library, chat.library, "same seed, same first turn");
        assert_eq!(turn.summary, chat.summary);
        let _ = system.session_close("s").expect("closes");
    }

    #[test]
    fn session_capacity_evicts_lru_with_typed_error() {
        let system = ChatPattern::builder()
            .window(16)
            .training_patterns(8)
            .diffusion_steps(6)
            .max_sessions(1)
            .build()
            .expect("valid configuration");
        system.session_open("old", Some(1)).expect("opens");
        system
            .session_open("new", Some(2))
            .expect("opens, evicting old");
        let err = system
            .session_turn("old", "Generate 1 pattern.")
            .expect_err("evicted session is gone");
        assert!(matches!(err, Error::SessionNotFound { .. }), "{err:?}");
        let stats = system.session_stats();
        assert_eq!((stats.open, stats.evicted), (1, 1));
    }

    #[test]
    fn session_spill_memory_keeps_over_capacity_sessions_alive() {
        let system = ChatPattern::builder()
            .window(16)
            .training_patterns(8)
            .diffusion_steps(6)
            .max_sessions(1)
            .session_spill_memory()
            .build()
            .expect("valid configuration");
        system.session_open("old", Some(1)).expect("opens");
        system
            .session_open("new", Some(2))
            .expect("opens, spilling old");
        // The evicted id still serves turns: it rehydrates from the
        // spill (and spills "new" to make room).
        let turn = system
            .session_turn(
                "old",
                "Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, \
                 style Layer-10001.",
            )
            .expect("spilled session rehydrates");
        assert_eq!(turn.library.len(), 1, "summary: {}", turn.summary);
        let turn = system
            .session_turn(
                "new",
                "Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, \
                 style Layer-10003.",
            )
            .expect("the other session rehydrates too");
        assert_eq!(turn.turn, 1);
        let stats = system.session_stats();
        assert_eq!(stats.evicted, 0, "nothing destroyed");
        assert_eq!(stats.spilled, 3);
        assert_eq!(stats.restored, 2);
        // Close both; closed ids stay closed.
        let _ = system.session_close("old").expect("closes");
        let _ = system.session_close("new").expect("closes");
        assert!(matches!(
            system.session_turn("old", "more"),
            Err(Error::SessionNotFound { .. })
        ));
    }

    #[test]
    fn session_snapshot_exports_without_disturbing_the_session() {
        let system = small_system();
        system.session_open("s", Some(4)).expect("opens");
        let t1 = system
            .session_turn(
                "s",
                "Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, \
                 style Layer-10001.",
            )
            .expect("turn runs");
        let snapshot = system.session_snapshot("s").expect("exports");
        assert_eq!(snapshot.format, SESSION_SNAPSHOT_FORMAT);
        assert_eq!(snapshot.session, "s");
        assert_eq!(snapshot.seed, 4);
        assert_eq!(snapshot.agent.turns, 1);
        // The export did not count as a turn or close the session.
        assert_eq!(system.session_stats().turns, 1);
        let t2 = system.session_turn("s", "1 more pattern.").expect("runs");
        assert_eq!(t2.turn, 2);
        assert_eq!(t2.library[..1], t1.library[..]);
        // Restoring over the live id is rejected.
        let err = system
            .session_restore(system.session_snapshot("s").expect("exports"))
            .expect_err("id is live");
        assert!(matches!(err, Error::InvalidRequest { .. }), "{err:?}");
        // A wrong-format snapshot is a typed persist error.
        let mut bad = system.session_snapshot("s").expect("exports");
        bad.format = 999;
        let err = system.session_restore(bad).expect_err("unknown format");
        assert!(matches!(err, Error::SessionPersist { .. }), "{err:?}");
    }

    #[test]
    fn session_restore_resumes_a_closed_donor_session() {
        let system = small_system();
        system.session_open("donor", Some(7)).expect("opens");
        let t1 = system
            .session_turn(
                "donor",
                "Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, \
                 style Layer-10003.",
            )
            .expect("turn runs");
        let snapshot = system.session_snapshot("donor").expect("exports");
        let _ = system.session_close("donor").expect("closes");
        // The snapshot survives JSON (the handoff wire format).
        let text = serde_json::to_string(&snapshot).expect("serializes");
        let snapshot: SessionSnapshot = serde_json::from_str(&text).expect("parses");
        let info = system.session_restore(snapshot).expect("restores");
        assert_eq!(info.session, "donor");
        assert_eq!(info.seed, 7);
        let t2 = system
            .session_turn("donor", "1 more pattern.")
            .expect("restored session continues");
        assert_eq!(t2.turn, 2, "turn numbering continues from the snapshot");
        assert_eq!(t2.library.len(), 3);
        assert_eq!(t2.library[..2], t1.library[..]);
    }

    #[test]
    fn format_one_snapshots_restore_unchanged() {
        let system = small_system();
        system.session_open("v1", Some(9)).expect("opens");
        let t1 = system
            .session_turn(
                "v1",
                "Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, \
                 style Layer-10001.",
            )
            .expect("turn runs");
        let snapshot = system.session_snapshot("v1").expect("exports");
        let _ = system.session_close("v1").expect("closes");
        // Rewrite the JSON exactly as a format-1 producer wrote it:
        // format tag 1 and no `compaction` member at all.
        let mut value = serde_json::to_value(&snapshot);
        let serde_json::Value::Object(object) = &mut value else {
            panic!("snapshot is an object");
        };
        object.insert("format".to_owned(), serde_json::to_value(&1u32));
        object.remove("compaction");
        let text = serde_json::to_string(&value).expect("serializes");
        let legacy: SessionSnapshot = serde_json::from_str(&text).expect("format 1 parses");
        assert_eq!(legacy.format, 1);
        assert_eq!(legacy.compaction, None);
        assert_eq!(legacy.agent, snapshot.agent, "payload untouched");
        let info = system.session_restore(legacy).expect("format 1 restores");
        assert_eq!(info.seed, 9);
        let t2 = system
            .session_turn("v1", "1 more pattern.")
            .expect("restored session continues");
        assert_eq!(t2.turn, 2);
        assert_eq!(t2.library[..1], t1.library[..]);
    }

    #[test]
    fn compaction_trims_transcript_without_changing_future_turns() {
        let reference = small_system();
        reference.session_open("c", Some(11)).expect("opens");
        for _ in 0..3 {
            reference
                .session_turn(
                    "c",
                    "Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, \
                     style Layer-10001.",
                )
                .expect("turn runs");
        }
        let full = reference.session_snapshot("c").expect("exports");
        assert_eq!(full.compaction, None, "wire snapshots stay full fidelity");

        let mut compacted = full.clone();
        let saved = compacted.compact(2);
        assert!(saved > 0, "three turns exceed a 2-message tail");
        let record = compacted.compaction.expect("compaction recorded");
        assert_eq!(record.bytes, saved);
        assert!(record.dropped > 0);
        assert_ne!(record.digest, 0, "digest covers the dropped messages");
        assert_eq!(compacted.agent.transcript.len(), 3, "system prompt + tail");
        assert_eq!(compacted.agent.transcript[0], full.agent.transcript[0]);
        assert_eq!(
            compacted.agent.transcript[1..],
            full.agent.transcript[full.agent.transcript.len() - 2..]
        );

        // Re-compacting an already-bounded snapshot is a no-op that
        // preserves the rolling record.
        let mut again = compacted.clone();
        assert_eq!(again.compact(2), 0);
        assert_eq!(again, compacted);

        // The follow-up turn is byte-identical whether it runs on the
        // full-fidelity restore or the compacted one.
        let next = "1 more pattern.";
        let on_full = {
            let system = small_system();
            system.session_restore(full).expect("restores");
            system.session_turn("c", next).expect("turn runs")
        };
        let on_compacted = {
            let system = small_system();
            system.session_restore(compacted).expect("restores");
            system.session_turn("c", next).expect("turn runs")
        };
        assert_eq!(on_full.turn, on_compacted.turn);
        assert_eq!(on_full.summary, on_compacted.summary);
        assert_eq!(on_full.library, on_compacted.library);
        assert_eq!(on_full.transcript, on_compacted.transcript);
    }

    #[test]
    fn builder_rejects_zero_session_capacity() {
        let err = ChatPattern::builder().max_sessions(0).validate();
        assert!(matches!(err, Err(Error::Config { .. })), "{err:?}");
    }

    #[test]
    fn drc_check_reports_violations_as_error() {
        let system = small_system();
        // A 10 nm sliver violates the reference width rule.
        let bad = SquishPattern::new(Topology::from_ascii("1."), vec![10, 40], vec![50]);
        let err = system.drc_check(&bad).expect_err("sliver must violate");
        match err {
            Error::Drc { violations } => assert!(!violations.is_empty()),
            other => panic!("wrong variant {other:?}"),
        }
    }
}
