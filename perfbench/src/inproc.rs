//! The in-process replay: the served inputs run again through the
//! program's public functions in this process, with a span around each
//! call. The samplers are timing wrappers around the public `Denoiser`
//! and `PatternSampler` traits over a copy of the served model's fitted
//! `MrfDenoiser`. Every replayed payload must equal the served one,
//! which proves the spans time the code the server runs.

use crate::served::{payload_text, DialogLog, Kept};
use chatpattern_core::{
    ChatPattern, ChatSession, Error, JsonDirPersist, PatternRequest, RequestEnvelope,
    ResponseEnvelope, ResponsePayload, SessionPersist, SessionSnapshot, TurnOutcome, WireOutcome,
    SNAPSHOT_TRANSCRIPT_TAIL,
};
use cp_dataset::{DatasetBuilder, Style};
use cp_diffusion::{Denoiser, DiffusionModel, Mask, MrfDenoiser, PatternSampler};
use cp_drc::{check_pattern, DesignRules};
use cp_extend::ExtensionMethod;
use cp_legalize::Legalizer;
use cp_metrics::LibraryStats;
use cp_squish::Topology;
use perfbench::gen::{self, Dialog, Step};
use perfbench::trace;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// `MrfDenoiser` with a span around every `predict_x0`.
#[derive(Debug, Clone)]
struct TimedDenoiser(MrfDenoiser);

impl Denoiser for TimedDenoiser {
    fn predict_x0(
        &self,
        x_k: &Topology,
        k: usize,
        total_steps: usize,
        condition: Option<u32>,
    ) -> Vec<f32> {
        trace::span("diffusion.predict_x0", || {
            self.0.predict_x0(x_k, k, total_steps, condition)
        })
    }

    fn native_size(&self) -> usize {
        self.0.native_size()
    }
}

type Model = DiffusionModel<TimedDenoiser>;

/// The sampler handed to restored sessions and to `cp_extend::extend`.
#[derive(Clone)]
struct TimedSampler(Arc<Model>);

impl PatternSampler for TimedSampler {
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
        trace::span("diffusion.sample", || {
            PatternSampler::generate(&*self.0, rows, cols, condition, rng)
        })
    }

    fn modify(
        &self,
        known: &Topology,
        mask: &Mask,
        condition: Option<u32>,
        rng: &mut dyn RngCore,
    ) -> Topology {
        trace::span("diffusion.modify", || {
            PatternSampler::modify(&*self.0, known, mask, condition, rng)
        })
    }
}

/// Encoded snapshot sizes, shared with the persist layer's encoder.
pub type SnapshotSizes = Arc<Mutex<Vec<f64>>>;

/// Counts the replay keeps besides its spans.
#[derive(Debug, Default)]
pub struct Tally {
    pub legalize_attempts: u64,
    pub legalize_ok: u64,
    /// Replayed operations (requests or turns).
    pub ops: u64,
    /// Encoded snapshot sizes written through `JsonDirPersist`.
    pub snapshot_bytes: Vec<f64>,
}

/// The in-process replica of the served system.
pub struct InProc {
    system: ChatPattern,
    model: Arc<Model>,
    legalizer: Legalizer,
    pub tally: Tally,
}

impl InProc {
    /// Builds the system with the server's defaults and wraps a copy of
    /// its fitted denoiser.
    pub fn new() -> Result<InProc, String> {
        let system = ChatPattern::builder()
            .build()
            .map_err(|e| format!("in-process build: {e}"))?;
        let model = DiffusionModel::new(
            system.model().schedule().clone(),
            TimedDenoiser(system.model().denoiser().clone()),
            system.window(),
        );
        let legalizer = Legalizer::new(*system.rules());
        Ok(InProc {
            system,
            model: Arc::new(model),
            legalizer,
            tally: Tally::default(),
        })
    }

    /// The served design rules.
    #[must_use]
    pub fn rules(&self) -> &DesignRules {
        self.system.rules()
    }

    /// Rebuilds the training datasets and refits the denoiser the way
    /// the builder does, under `dataset.build` and `diffusion.fit`.
    pub fn time_setup_layers(&self) {
        let window = self.system.window();
        let patch_nm = self.system.patch_nm();
        let shapes: Vec<(Style, usize)> = self
            .system
            .datasets()
            .iter()
            .map(|d| (d.style(), d.len()))
            .collect();
        let topologies: Vec<(u32, Vec<Topology>)> = trace::span("dataset.build", || {
            shapes
                .iter()
                .enumerate()
                .map(|(i, &(style, count))| {
                    let dataset = DatasetBuilder::new(style)
                        .patch_nm(patch_nm)
                        .topology_size(window)
                        .count(count)
                        .seed(i as u64)
                        .build();
                    (style.id(), dataset.topologies().cloned().collect())
                })
                .collect()
        });
        let refs: Vec<(u32, &[Topology])> = topologies
            .iter()
            .map(|(id, t)| (*id, t.as_slice()))
            .collect();
        let _ = trace::span("diffusion.fit", || MrfDenoiser::fit(&refs, 1.0));
    }

    fn sampler(&self) -> TimedSampler {
        TimedSampler(Arc::clone(&self.model))
    }

    /// Replays one kept `Generate` / `Legalize` / `Evaluate` pair and
    /// compares payloads byte for byte.
    pub fn replay_pair(&mut self, kept: &Kept) -> Result<(), String> {
        let seq = kept.planned.seq;
        trace::set_request(seq);
        let envelope: RequestEnvelope =
            trace::span("wire.decode", || serde_json::from_str(&kept.planned.line))
                .map_err(|e| format!("request {seq} does not decode: {e}"))?;
        let response: ResponseEnvelope = serde_json::from_str(&kept.reply)
            .map_err(|e| format!("reply {seq} does not decode: {e}"))?;
        let _ = trace::span("wire.encode", || serde_json::to_string(&response));
        self.tally.ops += 1;
        let rules = *self.system.rules();
        let replayed = match envelope.request {
            PatternRequest::Generate(p) => {
                let model = &self.model;
                let topologies = trace::span("op.generate", || {
                    let mut rng = ChaCha8Rng::seed_from_u64(p.seed);
                    (0..p.count)
                        .map(|_| {
                            trace::span("diffusion.sample", || {
                                model.sample(p.rows, p.cols, Some(p.style.id()), &mut rng)
                            })
                        })
                        .collect::<Vec<_>>()
                });
                Ok(ResponsePayload::Generate(topologies))
            }
            PatternRequest::Legalize(p) => {
                let legalizer = &self.legalizer;
                let result = trace::span("op.legalize", || {
                    trace::span("legalize.solve", || {
                        let mut rng = ChaCha8Rng::seed_from_u64(p.seed);
                        legalizer.legalize(&p.topology, p.width_nm, p.height_nm, &mut rng)
                    })
                });
                self.tally.legalize_attempts += 1;
                match result {
                    Ok(pattern) => {
                        self.tally.legalize_ok += 1;
                        if !trace::span("drc.check", || check_pattern(&pattern, &rules).is_clean())
                        {
                            return Err(format!(
                                "Legalize {seq}: the replayed pattern is DRC-dirty"
                            ));
                        }
                        Ok(ResponsePayload::Legalize(pattern))
                    }
                    Err(failure) => Err(Error::from(failure)),
                }
            }
            PatternRequest::Evaluate(p) => {
                let stats = trace::span("op.evaluate", || {
                    trace::span("metrics.evaluate", || {
                        let mut rng = ChaCha8Rng::seed_from_u64(p.seed);
                        LibraryStats::evaluate(p.topologies.iter(), p.frame_nm, &rules, &mut rng)
                    })
                });
                Ok(ResponsePayload::Evaluate(stats))
            }
            other => return Err(format!("request {seq} is not replayable: {other:?}")),
        };
        match (replayed, &response.outcome) {
            (Ok(payload), WireOutcome::Ok(_)) => {
                let ours = serde_json::to_string(&payload).map_err(|e| e.to_string())?;
                if payload_text(&kept.reply) != Some(ours.as_str()) {
                    return Err(format!(
                        "{} {seq}: the in-process payload differs from the served one",
                        kept.planned.expect.kind()
                    ));
                }
                Ok(())
            }
            (Err(error), WireOutcome::Err(served)) if served.message == error.to_string() => Ok(()),
            _ => Err(format!(
                "{} {seq}: in-process and served outcomes disagree",
                kept.planned.expect.kind()
            )),
        }
    }

    /// A persist layer like the server's `--session-dir`: the same
    /// compacting encode, and a decode that restores through the timed
    /// sampler. Encoded sizes land in the tally.
    pub fn persist(
        &self,
        dir: &Path,
    ) -> Result<(JsonDirPersist<ChatSession>, SnapshotSizes), String> {
        let sizes = Arc::new(Mutex::new(Vec::new()));
        let encode_sizes = Arc::clone(&sizes);
        let sampler = self.sampler();
        let legalizer = self.legalizer.clone();
        let persist = JsonDirPersist::new(
            dir,
            Duration::from_secs(3600),
            move |session: &ChatSession| {
                let mut snapshot = session.snapshot();
                snapshot.compact(SNAPSHOT_TRANSCRIPT_TAIL);
                let text = serde_json::to_string(&snapshot)
                    .map_err(|e| Error::session_persist(e.to_string()))?;
                encode_sizes
                    .lock()
                    .expect("sizes lock")
                    .push(text.len() as f64);
                Ok(text)
            },
            move |text| {
                let snapshot: SessionSnapshot = serde_json::from_str(text)
                    .map_err(|e| Error::session_persist(e.to_string()))?;
                ChatSession::restore(snapshot, Box::new(sampler.clone()), legalizer.clone())
            },
        )
        .map_err(|e| format!("persist dir: {e}"))?;
        Ok((persist, sizes))
    }

    /// Replays one dialog's turns from its served snapshot: each turn
    /// under `op.turn` (the agent turn plus the spill-ahead write the
    /// server makes after it), then a spill and rehydrate through the
    /// persist layer. Extend turns get an extra direct
    /// `cp_extend::extend` call on the previous turn's patterns, and
    /// the delivered library is legalized and DRC-checked directly.
    pub fn replay_dialog(
        &mut self,
        dialog: &Dialog,
        log: &DialogLog,
        persist: &JsonDirPersist<ChatSession>,
        first_request: u64,
    ) -> Result<(), String> {
        let snapshot_reply = log.snapshot.as_deref().ok_or("dialog has no snapshot")?;
        let snapshot = match serde_json::from_str::<ResponseEnvelope>(snapshot_reply)
            .map_err(|e| format!("snapshot reply: {e}"))?
            .outcome
        {
            WireOutcome::Ok(response) => match response.payload {
                ResponsePayload::SessionSnapshot(snapshot) => *snapshot,
                _ => return Err("snapshot reply carries no snapshot".into()),
            },
            WireOutcome::Err(e) => return Err(format!("snapshot failed: {}", e.message)),
        };
        let mut session =
            ChatSession::restore(snapshot, Box::new(self.sampler()), self.legalizer.clone())
                .map_err(|e| format!("restore {}: {e}", dialog.session))?;
        let id = dialog.session.as_str();
        for (n, (i, reply)) in log.turns.iter().enumerate() {
            if *i != n {
                return Err(format!("{id}: turns were not kept in order"));
            }
            let request = first_request + n as u64;
            trace::set_request(request);
            let response: ResponseEnvelope =
                serde_json::from_str(reply).map_err(|e| format!("turn reply: {e}"))?;
            let wire_id = response.id.as_u64().unwrap_or(0);
            let line = gen::request_line(wire_id, &gen::chat_request(dialog, Step::Turn(*i)));
            let _ = trace::span("wire.decode", || {
                serde_json::from_str::<RequestEnvelope>(&line)
            });
            let _ = trace::span("wire.encode", || serde_json::to_string(&response));
            let served: TurnOutcome = match response.outcome {
                WireOutcome::Ok(r) => match r.payload {
                    ResponsePayload::SessionTurn(outcome) => outcome,
                    _ => return Err(format!("{id}: turn reply is not a turn")),
                },
                WireOutcome::Err(e) => {
                    return Err(format!("{id}: served turn failed: {}", e.message))
                }
            };
            if *i == gen::EXTEND_TURN {
                self.extend_directly(&session, dialog, request);
            }
            let utterance = dialog.turns[*i].as_str();
            let outcome = trace::span("op.turn", || {
                let outcome = trace::span("agent.turn", || session.turn(utterance));
                let _ = trace::span("session.persist", || persist.spill_ahead(id, &session));
                outcome
            })
            .map_err(|e| format!("{id}: in-process turn failed: {e}"))?;
            self.tally.ops += 1;
            let same = outcome.turn == served.turn
                && outcome.tool_calls == served.tool_calls
                && serde_json::to_string(&outcome.library).ok()
                    == serde_json::to_string(&served.library).ok();
            if !same {
                return Err(format!(
                    "{id} turn {}: the in-process library differs from the served one",
                    i + 1
                ));
            }
            session = match persist.spill(id, session) {
                Ok(()) => trace::span("session.rehydrate", || persist.take(id))
                    .map_err(|e| format!("{id}: rehydrate: {e}"))?
                    .ok_or_else(|| format!("{id}: spilled session vanished"))?,
                Err((_, e)) => return Err(format!("{id}: spill: {e}")),
            };
        }
        self.check_library(&session, dialog)
    }

    /// `cp_extend::extend` on the last patterns of the library, to the
    /// size the extend turn asks for (a representative direct call: the
    /// agent's own call happens inside `agent.turn`).
    fn extend_directly(&self, session: &ChatSession, dialog: &Dialog, request: u64) {
        let library = session.library();
        let sampler = self.sampler();
        let size = gen::SIZE * gen::EXTEND_FACTOR;
        let mut rng = ChaCha8Rng::seed_from_u64(dialog.seed ^ request);
        for pattern in library.iter().rev().take(dialog.count) {
            let _ = trace::span("extend.extend", || {
                cp_extend::extend(
                    &sampler,
                    pattern.topology(),
                    size,
                    size,
                    ExtensionMethod::default(),
                    Some(Style::Layer10001.id()),
                    &mut rng,
                )
            });
        }
    }

    /// Re-legalizes and DRC-checks every delivered library pattern.
    fn check_library(&mut self, session: &ChatSession, dialog: &Dialog) -> Result<(), String> {
        let rules = *self.system.rules();
        let mut rng = ChaCha8Rng::seed_from_u64(dialog.seed);
        for pattern in session.library() {
            if !trace::span("drc.check", || check_pattern(pattern, &rules).is_clean()) {
                return Err(format!(
                    "{}: a delivered pattern is DRC-dirty",
                    dialog.session
                ));
            }
            let legalizer = &self.legalizer;
            let legal = trace::span("legalize.solve", || {
                legalizer
                    .legalize(
                        pattern.topology(),
                        gen::CHAT_FRAME_NM,
                        gen::CHAT_FRAME_NM,
                        &mut rng,
                    )
                    .is_ok()
            });
            self.tally.legalize_attempts += 1;
            self.tally.legalize_ok += u64::from(legal);
        }
        Ok(())
    }
}
