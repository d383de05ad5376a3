//! Seeded input generators for the three workloads.
//!
//! Every input is a pure function of the workload seed and the
//! operation's position, so the same seed always produces the same
//! request lines, whatever the timing of the run. The server only ever
//! sees the generated lines.

use chatpattern_core::api::{EvaluateParams, GenerateParams, LegalizeParams};
use chatpattern_core::routing::route_hash;
use chatpattern_core::PatternRequest;
use cp_dataset::{DatasetBuilder, Style};
use cp_squish::Topology;

/// Topology rows and columns of every `generate` and `verify` input.
pub const SIZE: usize = 64;
/// Topologies per `Generate` request.
pub const GENERATE_COUNT: usize = 4;
/// Physical frame of `verify` requests: the default 64-cell window at
/// the default 16 nm pitch.
pub const VERIFY_FRAME_NM: i64 = 1024;
/// Physical frame named in chat requirements; large enough that the
/// 2x extension (128 cells) still legalizes at 16 nm per cell.
pub const CHAT_FRAME_NM: i64 = 2048;
/// Topologies drawn from `DatasetBuilder` per style for `verify`.
pub const VERIFY_POOL_PER_STYLE: usize = 48;
/// Topologies per `Evaluate` request.
pub const EVALUATE_TOPOLOGIES: usize = 4;
/// Chance that a `verify` operation repeats an earlier one exactly.
pub const VERIFY_REPEAT_CHANCE: (u64, u64) = (1, 4);
/// How far back a repeat may reach (well inside the default LRU).
pub const VERIFY_REPEAT_WINDOW: u64 = 16;
/// Chance that a fresh `verify` operation is an `Evaluate`.
pub const VERIFY_EVALUATE_CHANCE: (u64, u64) = (1, 8);
/// Dialogs each chat user keeps open at once.
pub const DIALOGS_PER_USER: usize = 4;
/// `--max-sessions` given to each serve worker under the router.
pub const MAX_SESSIONS_PER_WORKER: usize = 3;
/// Closed-loop users (one connection and one thread each).
pub const USERS: usize = 2;

/// SplitMix64: a tiny, stable generator owned by the benchmark, so the
/// inputs never change when the program's RNG code does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `(seed, stream)`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        SplitMix64(mix(seed, stream))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        finalize(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, (num, den): (u64, u64)) -> bool {
        self.below(den) < num
    }
}

/// The SplitMix64 output permutation (a bijection on `u64`).
#[must_use]
pub fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of `(seed, index)`; distinct indices give distinct values for
/// one seed because both steps are bijections.
#[must_use]
pub fn mix(seed: u64, index: u64) -> u64 {
    finalize(finalize(seed).wrapping_add(index))
}

/// Stream tags, so the workloads never share random numbers.
const STREAM_GENERATE: u64 = 0x47_454e;
const STREAM_VERIFY: u64 = 0x56_4552;
const STREAM_CHAT: u64 = 0x43_4854;

/// One wire line: `{"id":ID,"request":REQUEST}`.
#[must_use]
pub fn request_line(id: u64, request: &PatternRequest) -> String {
    let body = serde_json::to_string(request).expect("requests serialize");
    format!("{{\"id\":{id},\"request\":{body}}}")
}

// ------------------------------------------------------------ generate

/// The `index`-th `generate` request: 64×64, count 4, alternating the
/// two styles, with a seed no other index of this workload seed uses.
#[must_use]
pub fn generate_op(seed: u64, index: u64) -> GenerateParams {
    GenerateParams {
        style: if index.is_multiple_of(2) {
            Style::Layer10001
        } else {
            Style::Layer10003
        },
        rows: SIZE,
        cols: SIZE,
        count: GENERATE_COUNT,
        seed: mix(seed ^ STREAM_GENERATE, index),
    }
}

// -------------------------------------------------------------- verify

/// What a `verify` operation asks for, by pool index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyOp {
    /// `Legalize` one pool topology into the 1024 nm frame.
    Legalize { topology: usize, seed: u64 },
    /// `Evaluate` a few pool topologies.
    Evaluate { topologies: Vec<usize>, seed: u64 },
}

/// The `verify` inputs: a topology pool from `DatasetBuilder` at the
/// workload seed, and a seeded sequence of operations over it.
#[derive(Debug, Clone)]
pub struct VerifyPlan {
    seed: u64,
    pool: Vec<Topology>,
    /// The pool topologies' JSON, encoded once.
    pool_json: Vec<String>,
}

impl VerifyPlan {
    /// Builds the pool: `VERIFY_POOL_PER_STYLE` 64×64 topologies per style.
    #[must_use]
    pub fn new(seed: u64) -> VerifyPlan {
        let mut pool = Vec::new();
        for (i, style) in Style::ALL.into_iter().enumerate() {
            let dataset = DatasetBuilder::new(style)
                .patch_nm(VERIFY_FRAME_NM)
                .topology_size(SIZE)
                .count(VERIFY_POOL_PER_STYLE)
                .seed(mix(seed ^ STREAM_VERIFY, i as u64))
                .build();
            pool.extend(dataset.topologies().cloned());
        }
        let pool_json = pool
            .iter()
            .map(|t| serde_json::to_string(t).expect("topologies serialize"))
            .collect();
        VerifyPlan {
            seed,
            pool,
            pool_json,
        }
    }

    /// The topology pool.
    #[must_use]
    pub fn pool(&self) -> &[Topology] {
        &self.pool
    }

    /// The earlier operation `index` repeats exactly, if any.
    #[must_use]
    pub fn repeat_of(&self, index: u64) -> Option<u64> {
        if index == 0 {
            return None;
        }
        let mut rng = SplitMix64::new(self.seed ^ STREAM_VERIFY, index);
        rng.chance(VERIFY_REPEAT_CHANCE)
            .then(|| index - 1 - rng.below(index.min(VERIFY_REPEAT_WINDOW)))
    }

    /// The operation at `index` (a repeat resolves to its original).
    #[must_use]
    pub fn op(&self, index: u64) -> VerifyOp {
        let mut base = index;
        while let Some(earlier) = self.repeat_of(base) {
            base = earlier;
        }
        let mut rng = SplitMix64::new(self.seed ^ STREAM_VERIFY ^ 1, base);
        let n = self.pool.len() as u64;
        let seed = rng.next_u64();
        if rng.chance(VERIFY_EVALUATE_CHANCE) {
            VerifyOp::Evaluate {
                topologies: (0..EVALUATE_TOPOLOGIES)
                    .map(|_| rng.below(n) as usize)
                    .collect(),
                seed,
            }
        } else {
            VerifyOp::Legalize {
                topology: rng.below(n) as usize,
                seed,
            }
        }
    }

    /// The typed request for `op`.
    #[must_use]
    pub fn request(&self, op: &VerifyOp) -> PatternRequest {
        match op {
            VerifyOp::Legalize { topology, seed } => PatternRequest::Legalize(LegalizeParams {
                topology: self.pool[*topology].clone(),
                width_nm: VERIFY_FRAME_NM,
                height_nm: VERIFY_FRAME_NM,
                seed: *seed,
            }),
            VerifyOp::Evaluate { topologies, seed } => PatternRequest::Evaluate(EvaluateParams {
                topologies: topologies.iter().map(|&i| self.pool[i].clone()).collect(),
                frame_nm: VERIFY_FRAME_NM,
                seed: *seed,
            }),
        }
    }

    /// The wire line for `op` under `id`, spliced from pre-encoded
    /// topology JSON; identical to encoding [`VerifyPlan::request`].
    /// Encoding the topology per request instead keeps the client busy
    /// between requests, which on a 2-CPU host lowered the median
    /// `verify` throughput over ten seeds from 1211 to 973 ops/s and
    /// widened its quartile spread from 0.055 to 0.134 of the median.
    #[must_use]
    pub fn line(&self, id: u64, op: &VerifyOp) -> String {
        match op {
            VerifyOp::Legalize { topology, seed } => format!(
                "{{\"id\":{id},\"request\":{{\"Legalize\":{{\"height_nm\":{VERIFY_FRAME_NM},\
                 \"seed\":{seed},\"topology\":{},\"width_nm\":{VERIFY_FRAME_NM}}}}}}}",
                self.pool_json[*topology]
            ),
            VerifyOp::Evaluate { topologies, seed } => {
                let list: Vec<&str> = topologies
                    .iter()
                    .map(|&i| self.pool_json[i].as_str())
                    .collect();
                format!(
                    "{{\"id\":{id},\"request\":{{\"Evaluate\":{{\"frame_nm\":{VERIFY_FRAME_NM},\
                     \"seed\":{seed},\"topologies\":[{}]}}}}}}",
                    list.join(",")
                )
            }
        }
    }
}

// ---------------------------------------------------------------- chat

/// One scripted dialog: open, four turns, close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dialog {
    /// Client-chosen session id.
    pub session: String,
    /// Session seed sent with `SessionOpen`.
    pub seed: u64,
    /// Patterns requested per generating turn.
    pub count: usize,
    /// Style named in the first turn.
    pub style: Style,
    /// The four utterances, in order.
    pub turns: [String; 4],
}

/// Index of the extend turn within [`Dialog::turns`].
pub const EXTEND_TURN: usize = 3;
/// Factor the extend turn scales the topology by.
pub const EXTEND_FACTOR: usize = 2;

const FIRST_TURN: [&str; 3] = [
    "Generate {n} patterns, topology size 64*64, physical size 2048nm x 2048nm, style {style}.",
    "Please generate {n} layout patterns with topology size 64*64 and physical size \
     2048nm x 2048nm in style {style}.",
    "I need {n} patterns in style {style}: topology size 64*64, physical size 2048nm x 2048nm.",
];
const DENSER_TURN: [&str; 2] = ["now make them denser", "Now make them denser, please."];
const MORE_TURN: [&str; 2] = ["{n} more patterns", "{n} more patterns please"];
const EXTEND_TURN_TEXT: [&str; 2] = ["extend the last ones to 2x", "Extend the last ones to 2x."];

/// Serve workers behind the router on `chat_sessions`.
pub const CHAT_WORKERS: u64 = 2;

/// The `k`-th dialog of `user`, with a session id the router sends to
/// worker `worker` (`route_hash(id) % CHAT_WORKERS`). Pinning each of
/// a user's open-dialog slots to one worker keeps the fleet's balance
/// the same for every seed. N alternates 1, 2 with `k`.
#[must_use]
pub fn dialog(seed: u64, user: usize, k: u64, worker: u64) -> Dialog {
    let mut rng = SplitMix64::new(seed ^ STREAM_CHAT, ((user as u64) << 40) | k);
    let count = 1 + (k % 2) as usize;
    let style = Style::ALL[rng.below(2) as usize];
    let pick = |rng: &mut SplitMix64, options: &[&str]| {
        options[rng.below(options.len() as u64) as usize]
            .replace("{n}", &count.to_string())
            .replace("{style}", style.name())
    };
    let turns = [
        pick(&mut rng, &FIRST_TURN),
        pick(&mut rng, &DENSER_TURN),
        pick(&mut rng, &MORE_TURN),
        pick(&mut rng, &EXTEND_TURN_TEXT),
    ];
    let session = (0..)
        .map(|salt| format!("bench-{seed:x}-u{user}-d{k}-{salt}"))
        .find(|id| route_hash(id) % CHAT_WORKERS == worker)
        .expect("some salt routes to every worker");
    Dialog {
        session,
        seed: rng.next_u64() >> 12,
        count,
        style,
        turns,
    }
}

/// One step of a dialog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// `SessionOpen`.
    Open,
    /// `SessionTurn` with utterance `turns[i]`.
    Turn(usize),
    /// `SessionClose`.
    Close,
}

impl Step {
    fn after(self) -> Option<Step> {
        match self {
            Step::Open => Some(Step::Turn(0)),
            Step::Turn(i) if i + 1 < 4 => Some(Step::Turn(i + 1)),
            Step::Turn(_) => Some(Step::Close),
            Step::Close => None,
        }
    }
}

/// A chat user cycling through [`DIALOGS_PER_USER`] open dialogs,
/// picking which one to advance at random (seeded), so sessions are
/// touched in an order an LRU cannot simply follow.
#[derive(Debug, Clone)]
pub struct ChatUser {
    seed: u64,
    user: usize,
    rng: SplitMix64,
    slots: Vec<(u64, Step)>,
    next_dialog: u64,
    /// Worker of each dialog started so far (its slot's worker).
    workers: std::collections::HashMap<u64, u64>,
}

impl ChatUser {
    /// User `user` of the workload seed.
    #[must_use]
    pub fn new(seed: u64, user: usize) -> ChatUser {
        ChatUser::with_dialogs(seed, user, DIALOGS_PER_USER)
    }

    /// A user keeping `open` dialogs at once.
    #[must_use]
    pub fn with_dialogs(seed: u64, user: usize, open: usize) -> ChatUser {
        let slots = (0..open as u64).map(|k| (k, Step::Open)).collect();
        ChatUser {
            seed,
            user,
            rng: SplitMix64::new(seed ^ STREAM_CHAT ^ 2, user as u64),
            slots,
            next_dialog: open as u64,
            workers: (0..open as u64).map(|k| (k, k % CHAT_WORKERS)).collect(),
        }
    }

    /// The next request: dialog index and step.
    pub fn next_step(&mut self) -> (u64, Step) {
        let slot = self.rng.below(self.slots.len() as u64) as usize;
        let (k, step) = self.slots[slot];
        self.slots[slot] = match step.after() {
            Some(next) => (k, next),
            None => {
                let fresh = self.next_dialog;
                self.next_dialog += 1;
                self.workers.insert(fresh, slot as u64 % CHAT_WORKERS);
                (fresh, Step::Open)
            }
        };
        (k, step)
    }

    /// The dialog with index `k` for this user (`k` must have been
    /// returned by [`ChatUser::next_step`]).
    #[must_use]
    pub fn dialog(&self, k: u64) -> Dialog {
        dialog(self.seed, self.user, k, self.workers[&k])
    }
}

/// The typed request for one dialog step.
#[must_use]
pub fn chat_request(dialog: &Dialog, step: Step) -> PatternRequest {
    use chatpattern_core::api::{SessionCloseParams, SessionOpenParams, SessionTurnParams};
    match step {
        Step::Open => PatternRequest::SessionOpen(SessionOpenParams {
            session: dialog.session.clone(),
            seed: Some(dialog.seed),
        }),
        Step::Turn(i) => PatternRequest::SessionTurn(SessionTurnParams {
            session: dialog.session.clone(),
            utterance: dialog.turns[i].clone(),
        }),
        Step::Close => PatternRequest::SessionClose(SessionCloseParams {
            session: dialog.session.clone(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_inputs_are_deterministic_and_fresh() {
        let a: Vec<_> = (0..64).map(|i| generate_op(7, i)).collect();
        let b: Vec<_> = (0..64).map(|i| generate_op(7, i)).collect();
        assert_eq!(a, b);
        let mut seeds: Vec<u64> = a.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64, "every generate seed is fresh");
        assert_ne!(generate_op(8, 0).seed, a[0].seed);
        assert_eq!(a[0].style, Style::Layer10001);
        assert_eq!(a[1].style, Style::Layer10003);
    }

    #[test]
    fn verify_lines_match_typed_encoding() {
        let plan = VerifyPlan::new(3);
        for index in 0..200 {
            let op = plan.op(index);
            let spliced = plan.line(index, &op);
            assert_eq!(spliced, request_line(index, &plan.request(&op)));
        }
    }

    #[test]
    fn verify_inputs_are_deterministic_with_a_quarter_repeats() {
        let a = VerifyPlan::new(11);
        let b = VerifyPlan::new(11);
        assert_eq!(a.pool(), b.pool());
        let n = 4000;
        let mut repeats = 0;
        for index in 0..n {
            assert_eq!(a.op(index), b.op(index));
            if let Some(earlier) = a.repeat_of(index) {
                repeats += 1;
                assert!(earlier < index && index - earlier <= VERIFY_REPEAT_WINDOW);
                assert_eq!(a.op(index), a.op(earlier));
            }
        }
        let share = f64::from(repeats) / n as f64;
        assert!((0.22..0.28).contains(&share), "repeat share {share}");
    }

    #[test]
    fn chat_users_are_deterministic_and_finish_dialogs() {
        let mut a = ChatUser::new(5, 1);
        let mut b = ChatUser::new(5, 1);
        let steps: Vec<_> = (0..300).map(|_| a.next_step()).collect();
        assert_eq!(steps, (0..300).map(|_| b.next_step()).collect::<Vec<_>>());
        // Each dialog's steps come in order: open, 4 turns, close.
        let mut seen: std::collections::HashMap<u64, Vec<Step>> = Default::default();
        for (k, step) in steps {
            seen.entry(k).or_default().push(step);
        }
        let full = [
            Step::Open,
            Step::Turn(0),
            Step::Turn(1),
            Step::Turn(2),
            Step::Turn(3),
            Step::Close,
        ];
        for (k, got) in &seen {
            assert_eq!(got[..], full[..got.len()], "dialog {k}");
        }
        assert!(seen.values().filter(|s| s.len() == 6).count() >= 40);
        assert_eq!(a.dialog(3), dialog(5, 1, 3, 1));
        assert_ne!(dialog(5, 0, 3, 1).session, dialog(5, 1, 3, 1).session);
    }

    #[test]
    fn open_dialogs_stay_balanced_across_workers() {
        let mut user = ChatUser::new(12, 0);
        let mut open: std::collections::HashMap<u64, u64> = Default::default();
        for _ in 0..500 {
            let (k, step) = user.next_step();
            let worker = route_hash(&user.dialog(k).session) % CHAT_WORKERS;
            match step {
                Step::Open => {
                    open.insert(k, worker);
                }
                Step::Close => {
                    open.remove(&k);
                }
                Step::Turn(_) => assert_eq!(open.get(&k), Some(&worker)),
            }
            let on_zero = open.values().filter(|w| **w == 0).count();
            assert!(
                on_zero <= DIALOGS_PER_USER / 2 && open.len() - on_zero <= DIALOGS_PER_USER / 2
            );
        }
    }

    #[test]
    fn dialogs_follow_the_grammar() {
        for k in 0..50 {
            let d = dialog(9, 0, k, k % 2);
            assert!(d.turns[0].contains("64*64") && d.turns[0].contains(d.style.name()));
            assert!(d.turns[0].contains(&format!("{} ", d.count)));
            assert!(d.turns[1].contains("denser"));
            assert!(d.turns[2].starts_with(&format!("{} more", d.count)));
            assert!(d.turns[3].contains("2x"));
            assert!((1..=2).contains(&d.count));
        }
    }
}
