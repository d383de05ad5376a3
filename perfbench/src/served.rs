//! The served path: per-user request sources, reply checks and the
//! closed loop that runs them (one connection and one thread per user).

use crate::fleet::{Conn, Fleet};
use chatpattern_core::{
    GenerateParams, PatternRequest, ResponseEnvelope, ResponsePayload, Timing, WireOutcome,
};
use cp_drc::{check_pattern, DesignRules};
use cp_squish::{SquishPattern, Topology};
use perfbench::gen::{self, ChatUser, Dialog, Step, VerifyOp, VerifyPlan};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Generate operations whose topologies feed `legality`/`diversity`.
pub const GENERATE_QUALITY_OPS: u64 = 32;
/// Verify operations whose Legalize outcomes feed `legality`/`diversity`.
pub const VERIFY_QUALITY_OPS: u64 = 256;
/// Dialogs per user whose final libraries feed chat `legality`/`diversity`.
pub const CHAT_QUALITY_DIALOGS: u64 = 4;

/// What a request is, for checking its reply.
#[derive(Debug, Clone)]
pub enum Expect {
    Generate(GenerateParams),
    Verify(VerifyOp),
    Open(u64),
    Turn(u64, usize),
    Close(u64),
    /// A `SessionSnapshot` taken right after open, for the in-process
    /// replay; not an operation.
    Snapshot(u64),
}

impl Expect {
    /// Short kind name for reports.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Expect::Generate(_) => "Generate",
            Expect::Verify(VerifyOp::Legalize { .. }) => "Legalize",
            Expect::Verify(VerifyOp::Evaluate { .. }) => "Evaluate",
            Expect::Open(_) => "SessionOpen",
            Expect::Turn(..) => "SessionTurn",
            Expect::Close(_) => "SessionClose",
            Expect::Snapshot(_) => "SessionSnapshot",
        }
    }

    /// Whether the request counts as an operation (a turn on chat).
    #[must_use]
    pub fn is_op(&self) -> bool {
        !matches!(
            self,
            Expect::Open(_) | Expect::Close(_) | Expect::Snapshot(_)
        )
    }
}

/// One request about to be sent.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Wire id (the operation index on generate and verify).
    pub seq: u64,
    /// The exact line sent.
    pub line: String,
    /// What the reply must look like.
    pub expect: Expect,
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Record {
    pub seq: u64,
    pub is_op: bool,
    pub sent: Instant,
    pub rtt: Duration,
    pub request_bytes: usize,
    pub reply_bytes: usize,
    /// Present on `Ok` replies.
    pub timing: Option<Timing>,
    pub tool_calls: Option<usize>,
    pub ok: bool,
}

/// A kept request/reply pair for the in-process replay.
#[derive(Debug, Clone)]
pub struct Kept {
    pub planned: Planned,
    pub reply: String,
}

/// Per-dialog progress of one chat user.
#[derive(Debug, Clone, Default)]
pub struct DialogLog {
    /// `SessionSnapshot` reply taken right after open, if requested.
    pub snapshot: Option<String>,
    /// `(utterance index, reply line)` of each turn, when kept.
    pub turns: Vec<(usize, String)>,
    /// Library size after the latest turn.
    pub library_len: usize,
}

/// Where one user's requests come from, and what its replies left.
#[derive(Debug)]
pub enum Source<'p> {
    Generate {
        seed: u64,
        next: u64,
        outputs: BTreeMap<u64, Vec<Topology>>,
    },
    Verify {
        plan: &'p VerifyPlan,
        next: u64,
        /// Legalize outcome (the pattern's topology, if one came back)
        /// per operation index of the quality prefix.
        outputs: BTreeMap<u64, Option<Topology>>,
        repeats: u64,
        issued: u64,
    },
    Chat {
        user: ChatUser,
        user_index: u64,
        next_id: u64,
        snapshots: bool,
        pending: Vec<Planned>,
        dialogs: HashMap<u64, Dialog>,
        logs: BTreeMap<u64, DialogLog>,
        /// Final libraries of the quality-prefix dialogs.
        outputs: BTreeMap<u64, Vec<SquishPattern>>,
    },
}

impl<'p> Source<'p> {
    /// Generate user `user`: operations `user`, `user + 2`, ...
    #[must_use]
    pub fn generate(seed: u64, user: usize) -> Source<'p> {
        Source::Generate {
            seed,
            next: user as u64,
            outputs: BTreeMap::new(),
        }
    }

    /// Verify user `user`: operations `user`, `user + 2`, ...
    #[must_use]
    pub fn verify(plan: &'p VerifyPlan, user: usize) -> Source<'p> {
        Source::Verify {
            plan,
            next: user as u64,
            outputs: BTreeMap::new(),
            repeats: 0,
            issued: 0,
        }
    }

    /// Chat user `user`.
    #[must_use]
    pub fn chat(seed: u64, user: usize) -> Source<'p> {
        Source::Chat {
            user: ChatUser::new(seed, user),
            user_index: user as u64,
            next_id: 1,
            snapshots: false,
            pending: Vec::new(),
            dialogs: HashMap::new(),
            logs: BTreeMap::new(),
            outputs: BTreeMap::new(),
        }
    }

    /// A chat user with a single open dialog at a time.
    #[must_use]
    pub fn chat_single(seed: u64, user: usize) -> Source<'p> {
        let mut source = Source::chat(seed, user);
        if let Source::Chat { user: chat, .. } = &mut source {
            *chat = ChatUser::with_dialogs(seed, user, 1);
        }
        source
    }

    /// Chat only: take a `SessionSnapshot` after every open from now on.
    pub fn set_snapshots(&mut self, on: bool) {
        if let Source::Chat { snapshots, .. } = self {
            *snapshots = on;
        }
    }

    /// The next request of this user.
    pub fn next(&mut self) -> Planned {
        match self {
            Source::Generate { seed, next, .. } => {
                let index = *next;
                *next += gen::USERS as u64;
                let params = gen::generate_op(*seed, index);
                Planned {
                    seq: index,
                    line: gen::request_line(index, &PatternRequest::Generate(params)),
                    expect: Expect::Generate(params),
                }
            }
            Source::Verify {
                plan,
                next,
                repeats,
                issued,
                ..
            } => {
                let index = *next;
                *next += gen::USERS as u64;
                *issued += 1;
                if plan.repeat_of(index).is_some() {
                    *repeats += 1;
                }
                let op = plan.op(index);
                Planned {
                    seq: index,
                    line: plan.line(index, &op),
                    expect: Expect::Verify(op),
                }
            }
            Source::Chat {
                user,
                next_id,
                pending,
                dialogs,
                ..
            } => {
                if let Some(planned) = pending.pop() {
                    return planned;
                }
                let (k, step) = user.next_step();
                let dialog = dialogs.entry(k).or_insert_with(|| user.dialog(k));
                let request = gen::chat_request(dialog, step);
                let id = *next_id;
                *next_id += 1;
                let expect = match step {
                    Step::Open => Expect::Open(k),
                    Step::Turn(i) => Expect::Turn(k, i),
                    Step::Close => Expect::Close(k),
                };
                Planned {
                    seq: id,
                    line: gen::request_line(id, &request),
                    expect,
                }
            }
        }
    }

    /// Checks one reply; on success records what the quality metrics
    /// and the replay need. `keep` asks to keep chat turn replies.
    pub fn check(
        &mut self,
        planned: &Planned,
        reply: &str,
        rules: &DesignRules,
        keep: bool,
    ) -> Result<Checked, String> {
        let envelope: ResponseEnvelope =
            serde_json::from_str(reply).map_err(|e| format!("malformed reply: {e}"))?;
        if envelope.id.as_u64() != Some(planned.seq) {
            return Err(format!(
                "reply id {:?} does not answer request {}",
                envelope.id, planned.seq
            ));
        }
        let response = match envelope.outcome {
            WireOutcome::Ok(response) => response,
            WireOutcome::Err(error) => {
                let typed_legalize_failure = error.kind == "Legalize"
                    && matches!(planned.expect, Expect::Verify(VerifyOp::Legalize { .. }));
                if !typed_legalize_failure {
                    return Err(format!(
                        "{} {} failed: {}: {}",
                        planned.expect.kind(),
                        planned.seq,
                        error.kind,
                        error.message
                    ));
                }
                if let Source::Verify { outputs, .. } = self {
                    if planned.seq < VERIFY_QUALITY_OPS {
                        outputs.insert(planned.seq, None);
                    }
                }
                return Ok(Checked::default());
            }
        };
        let timing = Some(response.timing);
        let mut tool_calls = None;
        match (&planned.expect, response.payload, &mut *self) {
            (
                Expect::Generate(params),
                ResponsePayload::Generate(topologies),
                Source::Generate { outputs, .. },
            ) => {
                if topologies.len() != params.count
                    || topologies
                        .iter()
                        .any(|t| t.shape() != (params.rows, params.cols))
                {
                    return Err(format!(
                        "Generate {} payload has the wrong shape",
                        planned.seq
                    ));
                }
                if planned.seq < GENERATE_QUALITY_OPS {
                    outputs.insert(planned.seq, topologies);
                }
            }
            (
                Expect::Verify(VerifyOp::Legalize { topology, .. }),
                ResponsePayload::Legalize(pattern),
                Source::Verify { plan, outputs, .. },
            ) => {
                let want = plan.pool()[*topology].shape();
                if pattern.topology().shape() != want
                    || pattern.physical_width() != gen::VERIFY_FRAME_NM
                    || pattern.physical_height() != gen::VERIFY_FRAME_NM
                {
                    return Err(format!(
                        "Legalize {} payload has the wrong shape",
                        planned.seq
                    ));
                }
                if planned.seq < VERIFY_QUALITY_OPS {
                    outputs.insert(planned.seq, Some(pattern.topology().clone()));
                }
            }
            (
                Expect::Verify(VerifyOp::Evaluate { topologies, .. }),
                ResponsePayload::Evaluate(stats),
                _,
            ) => {
                if stats.total != topologies.len() || stats.legal > stats.total {
                    return Err(format!(
                        "Evaluate {} payload has the wrong shape",
                        planned.seq
                    ));
                }
            }
            (
                Expect::Open(k),
                ResponsePayload::SessionOpen(info),
                Source::Chat {
                    dialogs,
                    logs,
                    snapshots,
                    pending,
                    next_id,
                    ..
                },
            ) => {
                let dialog = &dialogs[k];
                if info.session != dialog.session || info.seed != dialog.seed {
                    return Err(format!(
                        "SessionOpen {} echoes the wrong session",
                        planned.seq
                    ));
                }
                logs.insert(*k, DialogLog::default());
                if *snapshots {
                    let id = *next_id;
                    *next_id += 1;
                    let request =
                        PatternRequest::SessionSnapshot(chatpattern_core::SessionSnapshotParams {
                            session: dialog.session.clone(),
                        });
                    pending.push(Planned {
                        seq: id,
                        line: gen::request_line(id, &request),
                        expect: Expect::Snapshot(*k),
                    });
                }
            }
            (
                Expect::Snapshot(k),
                ResponsePayload::SessionSnapshot(snapshot),
                Source::Chat { dialogs, logs, .. },
            ) => {
                if snapshot.session != dialogs[k].session {
                    return Err(format!(
                        "SessionSnapshot {} is of the wrong session",
                        planned.seq
                    ));
                }
                if let Some(log) = logs.get_mut(k) {
                    log.snapshot = Some(reply.to_owned());
                }
            }
            (
                Expect::Turn(k, i),
                ResponsePayload::SessionTurn(outcome),
                Source::Chat { dialogs, logs, .. },
            ) => {
                let dialog = &dialogs[k];
                let log = logs
                    .get_mut(k)
                    .ok_or("turn on a dialog that never opened")?;
                if outcome.session != dialog.session || outcome.turn != i + 1 {
                    return Err(format!(
                        "SessionTurn {} answered turn {} of {}, wanted turn {} of {}",
                        planned.seq,
                        outcome.turn,
                        outcome.session,
                        i + 1,
                        dialog.session
                    ));
                }
                check_library(&outcome.library, log.library_len, *i, rules)
                    .map_err(|e| format!("SessionTurn {}: {e}", planned.seq))?;
                log.library_len = outcome.library.len();
                if keep {
                    log.turns.push((*i, reply.to_owned()));
                }
                tool_calls = Some(outcome.tool_calls);
            }
            (
                Expect::Close(k),
                ResponsePayload::SessionClose(outcome),
                Source::Chat {
                    logs,
                    outputs,
                    user_index,
                    ..
                },
            ) => {
                let log = logs
                    .get_mut(k)
                    .ok_or("close of a dialog that never opened")?;
                if outcome.library.len() != log.library_len {
                    return Err(format!(
                        "SessionClose {} delivered {} patterns, the last turn {}",
                        planned.seq,
                        outcome.library.len(),
                        log.library_len
                    ));
                }
                if *k < CHAT_QUALITY_DIALOGS {
                    outputs.insert(*k * gen::USERS as u64 + *user_index, outcome.library);
                }
            }
            (expect, payload, _) => {
                return Err(format!(
                    "{} {} answered with a {} payload",
                    expect.kind(),
                    planned.seq,
                    payload_kind(&payload)
                ));
            }
        }
        Ok(Checked { timing, tool_calls })
    }
}

/// A chat library after turn `turn` (0-based): it never shrinks, grows
/// on every turn, holds only 64×64 or extended 128×128 patterns, and
/// every pattern is DRC-clean under the served rules.
fn check_library(
    library: &[SquishPattern],
    before: usize,
    turn: usize,
    rules: &DesignRules,
) -> Result<(), String> {
    if library.len() <= before {
        return Err(format!(
            "library went from {before} to {} patterns",
            library.len()
        ));
    }
    let extended = gen::SIZE * gen::EXTEND_FACTOR;
    for pattern in library {
        let shape = pattern.topology().shape();
        let allowed = shape == (gen::SIZE, gen::SIZE)
            || (turn >= gen::EXTEND_TURN && shape == (extended, extended));
        if !allowed {
            return Err(format!("library pattern of shape {shape:?}"));
        }
        if !check_pattern(pattern, rules).is_clean() {
            return Err("delivered a DRC-dirty library pattern".into());
        }
    }
    Ok(())
}

fn payload_kind(payload: &ResponsePayload) -> &'static str {
    match payload {
        ResponsePayload::Chat(_) => "Chat",
        ResponsePayload::SessionOpen(_) => "SessionOpen",
        ResponsePayload::SessionTurn(_) => "SessionTurn",
        ResponsePayload::SessionClose(_) => "SessionClose",
        ResponsePayload::SessionSnapshot(_) => "SessionSnapshot",
        ResponsePayload::SessionRestore(_) => "SessionRestore",
        ResponsePayload::Generate(_) => "Generate",
        ResponsePayload::Extend(_) => "Extend",
        ResponsePayload::Modify(_) => "Modify",
        ResponsePayload::Legalize(_) => "Legalize",
        ResponsePayload::Evaluate(_) => "Evaluate",
        ResponsePayload::Stats(_) => "Stats",
    }
}

/// What a successful check extracted from the reply.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    pub timing: Option<Timing>,
    pub tool_calls: Option<usize>,
}

/// When a measured window ends.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Measure at least this long...
    pub min: Duration,
    /// ...and until this many operations completed...
    pub min_ops: u64,
    /// ...but never longer than this.
    pub max: Duration,
}

/// Which replies to keep for the in-process replay.
#[derive(Debug, Clone, Copy)]
pub struct Keep {
    /// Keep generate/verify pairs with `seq` below this...
    pub below_seq: u64,
    /// ...and at most this many per user.
    pub max_pairs: usize,
    /// Keep chat turn replies.
    pub chat_turns: bool,
}

/// What one user's window produced.
#[derive(Debug)]
pub struct UserRun<'p> {
    pub source: Source<'p>,
    pub records: Vec<Record>,
    pub kept: Vec<Kept>,
    pub failures: Vec<String>,
    /// Time between a reply and the next request (client work).
    pub think: Duration,
}

/// Runs every user closed-loop on its own connection and thread until
/// the window closes. A transport error ends that user's window and
/// counts as a failure.
pub fn drive<'p>(
    fleet: &Fleet,
    sources: Vec<Source<'p>>,
    window: Window,
    keep: Keep,
    rules: &DesignRules,
) -> Vec<UserRun<'p>> {
    let ops = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .into_iter()
            .map(|source| {
                let ops = &ops;
                scope.spawn(move || user_loop(fleet, source, window, keep, rules, ops, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("user thread"))
            .collect()
    })
}

fn user_loop<'p>(
    fleet: &Fleet,
    mut source: Source<'p>,
    window: Window,
    keep: Keep,
    rules: &DesignRules,
    ops: &AtomicU64,
    start: Instant,
) -> UserRun<'p> {
    let mut run = UserRun {
        source: Source::Generate {
            seed: 0,
            next: 0,
            outputs: BTreeMap::new(),
        },
        records: Vec::new(),
        kept: Vec::new(),
        failures: Vec::new(),
        think: Duration::ZERO,
    };
    let mut conn: Conn = match fleet.connect() {
        Ok(conn) => conn,
        Err(e) => {
            run.failures.push(e);
            run.source = source;
            return run;
        }
    };
    let mut replied: Option<Instant> = None;
    let mut deferred: Vec<(usize, Planned, String)> = Vec::new();
    let mut deferred_bytes = 0;
    loop {
        let elapsed = start.elapsed();
        if elapsed >= window.max
            || (elapsed >= window.min && ops.load(Ordering::Relaxed) >= window.min_ops)
        {
            break;
        }
        let planned = source.next();
        let sent = Instant::now();
        if let Some(replied) = replied {
            run.think += sent - replied;
        }
        let (reply, rtt) = match conn.call(&planned.line) {
            Ok(answer) => answer,
            Err(e) => {
                run.failures
                    .push(format!("{} {}: {e}", planned.expect.kind(), planned.seq));
                break;
            }
        };
        replied = Some(sent + rtt);
        let is_op = planned.expect.is_op();
        if is_op {
            ops.fetch_add(1, Ordering::Relaxed);
        }
        let mut record = Record {
            seq: planned.seq,
            is_op,
            sent,
            rtt,
            request_bytes: planned.line.len(),
            reply_bytes: reply.len(),
            timing: None,
            tool_calls: None,
            ok: false,
        };
        // Replies are checked after the window while memory allows, so
        // the client competes less with the server for CPU while it is
        // measured. A chat user taking snapshots plans its next request
        // from the open reply, so it checks at once.
        let deferrable = !matches!(
            source,
            Source::Chat {
                snapshots: true,
                ..
            }
        );
        if deferrable && deferred_bytes + reply.len() <= DEFERRED_REPLY_BYTES {
            deferred_bytes += reply.len();
            deferred.push((run.records.len(), planned, reply));
        } else {
            settle(
                &mut source,
                &mut run.failures,
                &mut run.kept,
                &mut record,
                planned,
                reply,
                rules,
                keep,
            );
        }
        run.records.push(record);
    }
    if conn.has_extra_line(Duration::from_millis(20)) {
        run.failures
            .push("a reply arrived that answers no request".into());
    }
    for (index, planned, reply) in deferred {
        let record = &mut run.records[index];
        settle(
            &mut source,
            &mut run.failures,
            &mut run.kept,
            record,
            planned,
            reply,
            rules,
            keep,
        );
    }
    run.source = source;
    run
}

/// Reply text one user may hold back for checking after the window.
const DEFERRED_REPLY_BYTES: usize = 128 << 20;

/// Checks one reply, fills its record and keeps the pair if asked.
#[allow(clippy::too_many_arguments)]
fn settle(
    source: &mut Source<'_>,
    failures: &mut Vec<String>,
    kept: &mut Vec<Kept>,
    record: &mut Record,
    planned: Planned,
    reply: String,
    rules: &DesignRules,
    keep: Keep,
) {
    match source.check(&planned, &reply, rules, keep.chat_turns) {
        Ok(checked) => {
            record.ok = true;
            record.timing = checked.timing;
            record.tool_calls = checked.tool_calls;
        }
        Err(e) => failures.push(e),
    }
    if planned.seq < keep.below_seq
        && kept.len() < keep.max_pairs
        && matches!(planned.expect, Expect::Generate(_) | Expect::Verify(_))
    {
        kept.push(Kept { planned, reply });
    }
}

/// The exact payload text of an `Ok` reply line (keys are sorted, so
/// `payload` precedes the trailing `timing` object).
#[must_use]
pub fn payload_text(reply: &str) -> Option<&str> {
    let start = reply.find("{\"Ok\":{\"payload\":")? + "{\"Ok\":{\"payload\":".len();
    let end = reply.rfind(",\"timing\":")?;
    (end > start).then(|| &reply[start..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_text_cuts_the_payload_out_of_an_ok_line() {
        let line = r#"{"id":3,"outcome":{"Ok":{"payload":{"Generate":[]},"timing":{"micros":1}}}}"#;
        assert_eq!(payload_text(line), Some(r#"{"Generate":[]}"#));
        assert_eq!(payload_text(r#"{"id":3,"outcome":{"Err":{}}}"#), None);
    }
}
