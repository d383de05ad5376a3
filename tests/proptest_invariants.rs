//! Property-based tests on cross-crate invariants.
//!
//! The original version of this file used the `proptest` crate; the
//! offline build environment has no registry access, so the same
//! invariants are exercised with a tiny in-repo harness instead:
//! [`shrink::check`] runs 64 deterministic seeded cases per property
//! and, on failure, **greedily shrinks** the failing input through a
//! property-specific candidate function before reporting — so a
//! failure message carries a minimal counterexample (plus its seed),
//! not whatever 8-rect layout the generator happened to produce.

use chatpattern::dataset::Style;
use chatpattern::drc::{check_pattern, DesignRules};
use chatpattern::geom::{Layout, Rect};
use chatpattern::legalize::Legalizer;
use chatpattern::squish::{complexity, normalize_to, SquishPattern, Topology};
use chatpattern::{
    BackendKind, ChatParams, ChatPattern, EngineConfig, Error, EvaluateParams, GenerateParams,
    LegalizeParams, MemoryPersist, PatternEngine, PatternRequest, SessionConfig, SessionStore,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const CASES: u64 = 64;

/// The shrinking harness: seeded generation plus greedy minimization.
mod shrink {
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::fmt::Debug;

    /// Upper bound on accepted shrink steps, a runaway guard for
    /// cyclic or non-reducing shrinkers.
    const MAX_STEPS: usize = 10_000;

    /// Greedily minimizes `failing`: repeatedly replaces it with the
    /// first shrink candidate that still fails `prop`, until no
    /// candidate fails (a local minimum) or the step budget runs out.
    /// The returned case always still fails.
    pub fn minimize<T>(
        mut failing: T,
        shrink: impl Fn(&T) -> Vec<T>,
        prop: impl Fn(&T) -> Result<(), String>,
    ) -> T {
        'steps: for _ in 0..MAX_STEPS {
            for candidate in shrink(&failing) {
                if prop(&candidate).is_err() {
                    failing = candidate;
                    continue 'steps;
                }
            }
            break;
        }
        failing
    }

    /// Runs `prop` on `cases` inputs drawn from per-case seeded RNG
    /// streams. On the first failure, shrinks the input to a local
    /// minimum and panics with the minimal case, its message, and the
    /// seed that produced the original input.
    pub fn check<T: Debug>(
        name: &str,
        cases: u64,
        seed_base: u64,
        generate: impl Fn(&mut ChaCha8Rng) -> T,
        shrink: impl Fn(&T) -> Vec<T>,
        prop: impl Fn(&T) -> Result<(), String>,
    ) {
        for case in 0..cases {
            let seed = seed_base + case;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let input = generate(&mut rng);
            if let Err(first_message) = prop(&input) {
                let minimal = minimize(input, &shrink, &prop);
                let message = prop(&minimal).err().unwrap_or(first_message);
                panic!(
                    "property {name} failed (seed {seed}): {message}\n\
                     minimal failing case: {minimal:?}"
                );
            }
        }
    }
}

/// Halving-then-decrement candidates for a counter — the standard
/// integer shrink ladder.
fn shrink_u32(n: &u32) -> Vec<u32> {
    let mut out = Vec::new();
    if *n > 0 {
        out.push(n / 2);
        out.push(n - 1);
    }
    out.dedup();
    out
}

#[test]
fn harness_minimizes_to_the_boundary() {
    // Property: n < 10. Failing input 37 must shrink to exactly 10 —
    // the smallest value that still fails.
    let prop = |n: &u32| {
        if *n < 10 {
            Ok(())
        } else {
            Err(format!("{n} is not < 10"))
        }
    };
    assert_eq!(shrink::minimize(37, shrink_u32, prop), 10);
    // Already-minimal inputs are returned unchanged.
    assert_eq!(shrink::minimize(10, shrink_u32, prop), 10);
}

#[test]
fn harness_survives_non_reducing_shrinkers() {
    // A shrinker that keeps proposing the same failing value must not
    // loop forever: the step budget breaks the cycle.
    let minimal = shrink::minimize(5u32, |n| vec![*n], |_| Err("always fails".into()));
    assert_eq!(minimal, 5);
}

#[test]
fn harness_reports_seed_and_minimal_case() {
    // Drive `check` against a property that always fails and verify
    // the panic message carries the shrunken case and the seed.
    let outcome = std::panic::catch_unwind(|| {
        shrink::check(
            "always_fails",
            1,
            7,
            |rng| rng.gen_range(100..200u32),
            shrink_u32,
            |n| {
                if *n < 10 {
                    Ok(())
                } else {
                    Err(format!("{n} is not < 10"))
                }
            },
        );
    });
    let payload = outcome.expect_err("failing property must panic");
    let message = payload
        .downcast_ref::<String>()
        .expect("panic carries a String");
    assert!(message.contains("seed 7"), "message was: {message}");
    assert!(
        message.contains("minimal failing case: 10"),
        "shrunk all the way to the boundary; message was: {message}"
    );
}

#[test]
fn harness_passes_clean_properties() {
    shrink::check(
        "tautology",
        CASES,
        0,
        |rng| rng.gen::<bool>(),
        |_| Vec::new(),
        |_| Ok(()),
    );
}

/// Random small layout: up to 8 snapped rects in a 512 nm frame.
fn arb_layout(rng: &mut ChaCha8Rng) -> Layout {
    let mut layout = Layout::new(Rect::new(0, 0, 512, 512));
    for _ in 0..rng.gen_range(0..8usize) {
        let x: i64 = rng.gen_range(0..28);
        let y: i64 = rng.gen_range(0..28);
        let w: i64 = rng.gen_range(1..12);
        let h: i64 = rng.gen_range(1..12);
        layout.push(Rect::from_origin_size(x * 16, y * 16, w * 16, h * 16));
    }
    layout
}

/// Layout shrink candidates: drop one rect at a time (a minimal
/// counterexample usually needs only the interacting pair).
fn shrink_layout(layout: &Layout) -> Vec<Layout> {
    (0..layout.len())
        .map(|skip| {
            Layout::with_rects(
                layout.frame(),
                layout
                    .rects()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, r)| *r),
            )
        })
        .collect()
}

/// Random dense-ish 8×8 topology.
fn arb_topology(rng: &mut ChaCha8Rng) -> Topology {
    let bits: Vec<bool> = (0..64).map(|_| rng.gen::<bool>()).collect();
    Topology::from_fn(8, 8, |r, c| bits[r * 8 + c])
}

/// Topology shrink candidates: clear one set cell at a time.
fn shrink_topology(topology: &Topology) -> Vec<Topology> {
    let (rows, cols) = topology.shape();
    let mut out = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if topology.get(r, c) {
                let mut smaller = topology.clone();
                smaller.set(r, c, false);
                out.push(smaller);
            }
        }
    }
    out
}

#[test]
fn squish_round_trip_preserves_union_area() {
    shrink::check(
        "squish_round_trip_preserves_union_area",
        CASES,
        0,
        arb_layout,
        shrink_layout,
        |layout| {
            let squish = SquishPattern::from_layout(layout);
            let round_tripped = squish.to_layout().union_area();
            if round_tripped == layout.union_area() {
                Ok(())
            } else {
                Err(format!(
                    "union area {round_tripped} != {}",
                    layout.union_area()
                ))
            }
        },
    );
}

#[test]
fn minimized_preserves_area_and_complexity() {
    shrink::check(
        "minimized_preserves_area_and_complexity",
        CASES,
        1000,
        arb_layout,
        shrink_layout,
        |layout| {
            let squish = SquishPattern::from_layout(layout);
            let min = squish.minimized();
            if min.drawn_area() != squish.drawn_area() {
                return Err(format!(
                    "drawn area {} != {}",
                    min.drawn_area(),
                    squish.drawn_area()
                ));
            }
            if complexity(min.topology()) != complexity(squish.topology()) {
                return Err("complexity changed under minimization".into());
            }
            Ok(())
        },
    );
}

#[test]
fn normalization_preserves_geometry() {
    shrink::check(
        "normalization_preserves_geometry",
        CASES,
        2000,
        arb_layout,
        shrink_layout,
        |layout| {
            let squish = SquishPattern::from_layout(layout).minimized();
            let Some(normalized) = normalize_to(&squish, 64, 64) else {
                return Ok(());
            };
            if normalized.physical_width() != squish.physical_width() {
                return Err("physical width changed".into());
            }
            if normalized.drawn_area() != squish.drawn_area() {
                return Err("drawn area changed".into());
            }
            if complexity(normalized.topology()) != complexity(squish.topology()) {
                return Err("complexity changed".into());
            }
            Ok(())
        },
    );
}

#[test]
fn legalization_success_implies_drc_clean() {
    let rules = DesignRules::new(20, 20, 400);
    let legalizer = Legalizer::new(rules);
    shrink::check(
        "legalization_success_implies_drc_clean",
        CASES,
        3000,
        |rng| (arb_topology(rng), ChaCha8Rng::seed_from_u64(rng.gen())),
        |(topology, rng)| {
            shrink_topology(topology)
                .into_iter()
                .map(|t| (t, rng.clone()))
                .collect()
        },
        |(topology, rng)| {
            let Ok(pattern) = legalizer.legalize(topology, 2000, 2000, &mut rng.clone()) else {
                return Ok(());
            };
            if !check_pattern(&pattern, &rules).is_clean() {
                return Err("legal output failed independent DRC".into());
            }
            if pattern.physical_width() != 2000 || pattern.physical_height() != 2000 {
                return Err("legalized frame size drifted".into());
            }
            Ok(())
        },
    );
}

#[test]
fn legalization_failure_region_is_in_bounds() {
    let rules = DesignRules::new(20, 20, 400);
    let legalizer = Legalizer::new(rules);
    shrink::check(
        "legalization_failure_region_is_in_bounds",
        CASES,
        4000,
        |rng| (arb_topology(rng), ChaCha8Rng::seed_from_u64(rng.gen())),
        |(topology, rng)| {
            shrink_topology(topology)
                .into_iter()
                .map(|t| (t, rng.clone()))
                .collect()
        },
        |(topology, rng)| {
            // A frame this tight fails often; the region must stay in
            // bounds.
            let Err(failure) = legalizer.legalize(topology, 90, 90, &mut rng.clone()) else {
                return Ok(());
            };
            if failure.region.row1() > topology.rows() || failure.region.col1() > topology.cols() {
                return Err(format!("failure region {} out of bounds", failure.region));
            }
            if failure.region.is_empty() {
                return Err("failure region is empty".into());
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// SessionStore invariants
// ---------------------------------------------------------------------

/// One step of a random session-store workload over a small id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionOp {
    Open(u8),
    Turn(u8),
    Close(u8),
}

const SESSION_IDS: u8 = 6;
const SESSION_CAPACITY: usize = 3;

fn arb_session_ops(rng: &mut ChaCha8Rng) -> Vec<SessionOp> {
    let len = rng.gen_range(1..40usize);
    (0..len)
        .map(|_| {
            let id = rng.gen_range(0..SESSION_IDS);
            match rng.gen_range(0..10u32) {
                0..=2 => SessionOp::Open(id),
                3..=7 => SessionOp::Turn(id),
                _ => SessionOp::Close(id),
            }
        })
        .collect()
}

/// Shrink candidates: drop one op at a time (a minimal counterexample
/// is usually a short open/evict/turn dance).
fn shrink_session_ops(ops: &[SessionOp]) -> Vec<Vec<SessionOp>> {
    (0..ops.len())
        .map(|skip| {
            ops.iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, op)| *op)
                .collect()
        })
        .collect()
}

/// A naive reference model of the store: open ids with their value
/// history, in logical-recency order (front = LRU victim).
struct SessionModel {
    capacity: usize,
    entries: Vec<(u8, Vec<u64>)>,
}

impl SessionModel {
    fn position(&self, id: u8) -> Option<usize> {
        self.entries.iter().position(|(k, _)| *k == id)
    }

    fn touch(&mut self, pos: usize) {
        let entry = self.entries.remove(pos);
        self.entries.push(entry);
    }
}

/// Replays `ops` against a real store and the model in lockstep. Any
/// divergence — wrong Ok/Err outcome, resurrected state after an
/// eviction, out-of-order or lost turn, capacity overrun — fails the
/// property with the op index.
fn check_session_ops(ops: &[SessionOp]) -> Result<(), String> {
    let store: SessionStore<Vec<u64>> = SessionStore::new(SessionConfig {
        capacity: SESSION_CAPACITY,
        ttl: Duration::from_secs(3600),
    });
    let mut model = SessionModel {
        capacity: SESSION_CAPACITY,
        entries: Vec::new(),
    };
    for (step, op) in ops.iter().enumerate() {
        match *op {
            SessionOp::Open(id) => {
                let outcome = store.open(&id.to_string(), Vec::new);
                match model.position(id) {
                    Some(_) => {
                        if !matches!(outcome, Err(Error::InvalidRequest { .. })) {
                            return Err(format!(
                                "op {step}: reopening live session {id} gave {outcome:?}"
                            ));
                        }
                    }
                    None => {
                        if outcome.is_err() {
                            return Err(format!("op {step}: open({id}) failed: {outcome:?}"));
                        }
                        while model.entries.len() >= model.capacity {
                            model.entries.remove(0);
                        }
                        // A reopened id must start fresh — evicted or
                        // closed state never resurrects.
                        model.entries.push((id, Vec::new()));
                    }
                }
            }
            SessionOp::Turn(id) => {
                let outcome = store.turn(&id.to_string(), |v| {
                    v.push(step as u64);
                    Ok(v.clone())
                });
                match model.position(id) {
                    Some(pos) => {
                        model.touch(pos);
                        let last = model.entries.last_mut().expect("just touched");
                        last.1.push(step as u64);
                        match outcome {
                            Ok(seen) if seen == last.1 => {}
                            other => {
                                return Err(format!(
                                    "op {step}: turn({id}) saw {other:?}, model has {:?} \
                                     (lost, reordered or resurrected turns)",
                                    last.1
                                ))
                            }
                        }
                    }
                    None => {
                        if !matches!(outcome, Err(Error::SessionNotFound { .. })) {
                            return Err(format!(
                                "op {step}: turn on dead session {id} gave {outcome:?} \
                                 instead of SessionNotFound"
                            ));
                        }
                    }
                }
            }
            SessionOp::Close(id) => {
                let outcome = store.close(&id.to_string());
                match model.position(id) {
                    Some(pos) => {
                        let (_, expect) = model.entries.remove(pos);
                        match outcome {
                            Ok(value) if value == expect => {}
                            other => {
                                return Err(format!(
                                    "op {step}: close({id}) returned {other:?}, model \
                                     has {expect:?}"
                                ))
                            }
                        }
                    }
                    None => {
                        if !matches!(outcome, Err(Error::SessionNotFound { .. })) {
                            return Err(format!(
                                "op {step}: close on dead session {id} gave {outcome:?}"
                            ));
                        }
                    }
                }
            }
        }
        if store.len() > SESSION_CAPACITY {
            return Err(format!(
                "op {step}: store holds {} sessions, capacity is {SESSION_CAPACITY}",
                store.len()
            ));
        }
        if store.len() != model.entries.len() {
            return Err(format!(
                "op {step}: store has {} sessions, model has {}",
                store.len(),
                model.entries.len()
            ));
        }
    }
    Ok(())
}

#[test]
fn session_store_interleavings_respect_capacity_order_and_eviction() {
    shrink::check(
        "session_store_interleavings_respect_capacity_order_and_eviction",
        CASES,
        5000,
        arb_session_ops,
        |ops| shrink_session_ops(ops),
        |ops| check_session_ops(ops),
    );
}

// ---------------------------------------------------------------------
// Spill/rehydrate invariants (durable store vs. naive model)
// ---------------------------------------------------------------------

/// Naive model of a store with a persist layer: live entries in
/// logical-recency order (front = LRU victim) plus a spilled map.
/// Closed ids land in neither — they never resurrect.
struct SpillModel {
    capacity: usize,
    live: Vec<(u8, Vec<u64>)>,
    spilled: Vec<(u8, Vec<u64>)>,
    spill_count: u64,
    restore_count: u64,
}

impl SpillModel {
    fn live_position(&self, id: u8) -> Option<usize> {
        self.live.iter().position(|(k, _)| *k == id)
    }

    fn spilled_position(&self, id: u8) -> Option<usize> {
        self.spilled.iter().position(|(k, _)| *k == id)
    }

    /// Mirrors `SessionStore::make_room`: spill LRU live entries until
    /// one slot is free.
    fn make_room(&mut self) {
        while self.live.len() >= self.capacity {
            let victim = self.live.remove(0);
            self.spilled.push(victim);
            self.spill_count += 1;
        }
    }
}

/// Replays `ops` against a durable (MemoryPersist) store and the spill
/// model in lockstep. Divergence — a `SessionNotFound` on a spilled id
/// before TTL, a resurrected closed id, lost turns across a
/// spill/rehydrate cycle, wrong counters — fails the property.
fn check_spill_ops(ops: &[SessionOp]) -> Result<(), String> {
    let ttl = Duration::from_secs(3600);
    let store: SessionStore<Vec<u64>> = SessionStore::with_persist(
        SessionConfig {
            capacity: SESSION_CAPACITY,
            ttl,
        },
        Arc::new(MemoryPersist::new(ttl)),
    );
    let mut model = SpillModel {
        capacity: SESSION_CAPACITY,
        live: Vec::new(),
        spilled: Vec::new(),
        spill_count: 0,
        restore_count: 0,
    };
    for (step, op) in ops.iter().enumerate() {
        match *op {
            SessionOp::Open(id) => {
                let outcome = store.open(&id.to_string(), Vec::new);
                if model.live_position(id).is_some() || model.spilled_position(id).is_some() {
                    // Live *or* spilled: the id is taken (a spilled
                    // session is still alive until TTL).
                    if !matches!(outcome, Err(Error::InvalidRequest { .. })) {
                        return Err(format!(
                            "op {step}: reopening live/spilled session {id} gave {outcome:?}"
                        ));
                    }
                } else {
                    if outcome.is_err() {
                        return Err(format!("op {step}: open({id}) failed: {outcome:?}"));
                    }
                    model.make_room();
                    model.live.push((id, Vec::new()));
                }
            }
            SessionOp::Turn(id) => {
                let outcome = store.turn(&id.to_string(), |v| {
                    v.push(step as u64);
                    Ok(v.clone())
                });
                let entry = match model.live_position(id) {
                    Some(pos) => {
                        let entry = model.live.remove(pos);
                        model.live.push(entry);
                        model.live.last_mut().expect("just pushed")
                    }
                    None => match model.spilled_position(id) {
                        Some(pos) => {
                            // Rehydrate: free a live slot first (may
                            // spill another session), then promote.
                            let entry = model.spilled.remove(pos);
                            model.make_room();
                            model.restore_count += 1;
                            model.live.push(entry);
                            model.live.last_mut().expect("just pushed")
                        }
                        None => {
                            if !matches!(outcome, Err(Error::SessionNotFound { .. })) {
                                return Err(format!(
                                    "op {step}: turn on dead session {id} gave {outcome:?} \
                                     instead of SessionNotFound"
                                ));
                            }
                            continue;
                        }
                    },
                };
                entry.1.push(step as u64);
                match outcome {
                    Ok(seen) if seen == entry.1 => {}
                    other => {
                        return Err(format!(
                            "op {step}: turn({id}) saw {other:?}, model has {:?} (turns \
                             lost across a spill/rehydrate cycle?)",
                            entry.1
                        ))
                    }
                }
            }
            SessionOp::Close(id) => {
                let outcome = store.close(&id.to_string());
                let expect = match model.live_position(id) {
                    Some(pos) => Some(model.live.remove(pos).1),
                    None => match model.spilled_position(id) {
                        Some(pos) => {
                            // Close of a spilled id rehydrates through
                            // the live map: at capacity that spills
                            // the LRU victim first.
                            let entry = model.spilled.remove(pos);
                            model.make_room();
                            model.restore_count += 1;
                            Some(entry.1)
                        }
                        None => None,
                    },
                };
                match (outcome, expect) {
                    (Ok(value), Some(expected)) if value == expected => {}
                    (Err(Error::SessionNotFound { .. }), None) => {}
                    (outcome, expect) => {
                        return Err(format!(
                            "op {step}: close({id}) returned {outcome:?}, model expected \
                             {expect:?} (closed sessions must never resurrect)"
                        ))
                    }
                }
            }
        }
        let stats = store.stats();
        if store.len() > SESSION_CAPACITY {
            return Err(format!(
                "op {step}: store holds {} sessions, capacity is {SESSION_CAPACITY}",
                store.len()
            ));
        }
        if store.len() != model.live.len() {
            return Err(format!(
                "op {step}: store has {} live sessions, model has {}",
                store.len(),
                model.live.len()
            ));
        }
        if stats.evicted != 0 {
            return Err(format!(
                "op {step}: a durable store destroyed {} session(s)",
                stats.evicted
            ));
        }
        if (stats.spilled, stats.restored) != (model.spill_count, model.restore_count) {
            return Err(format!(
                "op {step}: counters (spilled {}, restored {}) diverged from the model \
                 (spilled {}, restored {})",
                stats.spilled, stats.restored, model.spill_count, model.restore_count
            ));
        }
    }
    Ok(())
}

#[test]
fn durable_session_store_spills_and_rehydrates_like_the_model() {
    shrink::check(
        "durable_session_store_spills_and_rehydrates_like_the_model",
        CASES,
        6000,
        arb_session_ops,
        |ops| shrink_session_ops(ops),
        |ops| check_spill_ops(ops),
    );
}

// ---------------------------------------------------------------------
// Snapshot/restore round-trip (random turn scripts on real sessions)
// ---------------------------------------------------------------------

/// The utterance pool for random turn scripts. Index 0 is a full
/// requirement (a session's first turn must parse); the rest exercise
/// the context-inheriting follow-up grammar.
const SCRIPT_UTTERANCES: [&str; 4] = [
    "Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, style Layer-10001.",
    "Now make them denser.",
    "1 more pattern.",
    "Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, style Layer-10003.",
];

/// A random script: 1–4 turns (first always the full requirement) and
/// a snapshot point strictly inside `0..=turns`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SnapshotCase {
    turns: Vec<usize>,
    cut: usize,
}

fn arb_snapshot_case(rng: &mut ChaCha8Rng) -> SnapshotCase {
    let len = rng.gen_range(1..=4usize);
    let mut turns = vec![0usize];
    for _ in 1..len {
        turns.push(rng.gen_range(0..SCRIPT_UTTERANCES.len()));
    }
    let cut = rng.gen_range(0..=turns.len());
    SnapshotCase { turns, cut }
}

/// Shrink: drop a non-first turn, or move the cut earlier.
fn shrink_snapshot_case(case: &SnapshotCase) -> Vec<SnapshotCase> {
    let mut out = Vec::new();
    for skip in 1..case.turns.len() {
        let turns: Vec<usize> = case
            .turns
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, t)| *t)
            .collect();
        out.push(SnapshotCase {
            cut: case.cut.min(turns.len()),
            turns,
        });
    }
    if case.cut > 0 {
        out.push(SnapshotCase {
            turns: case.turns.clone(),
            cut: case.cut - 1,
        });
    }
    out
}

/// Runs one case: the script uninterrupted on system A vs. snapshot at
/// `cut` → restore into system B → remaining turns. The final close
/// outcomes must serialize identically.
fn check_snapshot_case(
    donor: &ChatPattern,
    successor: &ChatPattern,
    tag: usize,
    case: &SnapshotCase,
) -> Result<(), String> {
    let seed = 40 + tag as u64;
    let whole_id = format!("ref-{tag}");
    let cut_id = format!("cut-{tag}");
    donor
        .session_open(&whole_id, Some(seed))
        .map_err(|e| format!("open reference: {e}"))?;
    for (i, &t) in case.turns.iter().enumerate() {
        donor
            .session_turn(&whole_id, SCRIPT_UTTERANCES[t])
            .map_err(|e| format!("reference turn {i}: {e}"))?;
    }
    let reference = donor
        .session_close(&whole_id)
        .map_err(|e| format!("close reference: {e}"))?;

    donor
        .session_open(&cut_id, Some(seed))
        .map_err(|e| format!("open donor: {e}"))?;
    for (i, &t) in case.turns[..case.cut].iter().enumerate() {
        donor
            .session_turn(&cut_id, SCRIPT_UTTERANCES[t])
            .map_err(|e| format!("donor turn {i}: {e}"))?;
    }
    let snapshot = donor
        .session_snapshot(&cut_id)
        .map_err(|e| format!("snapshot: {e}"))?;
    let _ = donor
        .session_close(&cut_id)
        .map_err(|e| format!("close donor: {e}"))?;
    successor
        .session_restore(snapshot)
        .map_err(|e| format!("restore: {e}"))?;
    for (i, &t) in case.turns[case.cut..].iter().enumerate() {
        successor
            .session_turn(&cut_id, SCRIPT_UTTERANCES[t])
            .map_err(|e| format!("restored turn {i}: {e}"))?;
    }
    let restored = successor
        .session_close(&cut_id)
        .map_err(|e| format!("close restored: {e}"))?;

    let reference = serde_json::to_string(&reference).map_err(|e| e.to_string())?;
    let restored = serde_json::to_string(&restored).map_err(|e| e.to_string())?;
    if reference != restored {
        return Err(String::from(
            "snapshot → restore → remaining turns diverged from the uninterrupted run",
        ));
    }
    Ok(())
}

#[test]
fn snapshot_restore_round_trip_matches_uninterrupted_runs() {
    // Real agent turns are orders of magnitude slower than store ops,
    // so this property runs fewer, richer cases. Both systems are
    // built once, equivalently (snapshots carry state, not models);
    // every case gets fresh session ids.
    let build = || {
        ChatPattern::builder()
            .window(16)
            .training_patterns(8)
            .diffusion_steps(6)
            .seed(3)
            .build()
            .expect("valid configuration")
    };
    let donor = build();
    let successor = build();
    let tag = std::cell::Cell::new(0usize);
    shrink::check(
        "snapshot_restore_round_trip_matches_uninterrupted_runs",
        6,
        7000,
        arb_snapshot_case,
        shrink_snapshot_case,
        |case| {
            tag.set(tag.get() + 1);
            check_snapshot_case(&donor, &successor, tag.get(), case)
        },
    );
}

// ---------------------------------------------------------------------

/// One step of a random weighted-fair-queue workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueOp {
    /// Push an item for (lane index, tenant index).
    Push(u8, u8),
    /// Pop one item.
    Pop,
}

const QUEUE_TENANTS: u8 = 4;
const QUEUE_CAPACITY: usize = 24;

/// A workload plus the lane weights it runs under.
#[derive(Debug, Clone)]
struct QueueCase {
    weights: [u32; 3],
    ops: Vec<QueueOp>,
}

fn arb_queue_case(rng: &mut ChaCha8Rng) -> QueueCase {
    let weights = [
        rng.gen_range(0..5u32),
        rng.gen_range(0..5u32),
        rng.gen_range(0..5u32),
    ];
    let len = rng.gen_range(1..120usize);
    let ops = (0..len)
        .map(|_| {
            if rng.gen_range(0..10u32) < 7 {
                QueueOp::Push(rng.gen_range(0..3u8), rng.gen_range(0..QUEUE_TENANTS))
            } else {
                QueueOp::Pop
            }
        })
        .collect();
    QueueCase { weights, ops }
}

/// Shrink candidates: drop one op at a time, then pull each weight
/// toward the 4/2/1 default.
fn shrink_queue_case(case: &QueueCase) -> Vec<QueueCase> {
    let mut out: Vec<QueueCase> = (0..case.ops.len())
        .map(|skip| QueueCase {
            weights: case.weights,
            ops: case
                .ops
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, op)| *op)
                .collect(),
        })
        .collect();
    let defaults = [4u32, 2, 1];
    for lane in 0..3 {
        if case.weights[lane] != defaults[lane] {
            let mut weights = case.weights;
            weights[lane] = defaults[lane];
            out.push(QueueCase {
                weights,
                ops: case.ops.clone(),
            });
        }
    }
    out
}

/// Replays a workload against [`chatpattern::qos::FairQueue`] and a
/// naive per-(lane, tenant) FIFO model, then drains the remainder
/// checking the fairness invariants:
///
/// * **per-tenant FIFO** — every popped item is the oldest
///   outstanding item of its (lane, tenant) pair;
/// * **conservation** — accepted pushes and pops/drains balance
///   exactly, and rejected pushes only happen at capacity;
/// * **lane starvation bound** — during the final drain, a non-empty
///   lane never waits more than one full credit cycle between
///   services;
/// * **tenant round-robin bound** — during the final drain, while a
///   non-empty tenant waits, no other tenant of its lane is served
///   twice.
fn check_queue_case(case: &QueueCase) -> Result<(), String> {
    use chatpattern::qos::{FairQueue, LaneWeights, LANES};
    use std::collections::HashMap;
    use std::collections::VecDeque;

    let weights = LaneWeights {
        interactive: case.weights[0],
        standard: case.weights[1],
        batch: case.weights[2],
    };
    let credits = weights.credits();
    let cycle = weights.cycle() as usize;
    let mut queue: FairQueue<(usize, u8, u64)> = FairQueue::new(QUEUE_CAPACITY, weights);
    let mut model: HashMap<(usize, u8), VecDeque<u64>> = HashMap::new();
    let mut outstanding = 0usize;
    let mut seq = 0u64;
    let mut accepted = 0usize;
    let mut removed = 0usize;

    let pop_checked = |queue: &mut FairQueue<(usize, u8, u64)>,
                       model: &mut HashMap<(usize, u8), VecDeque<u64>>,
                       outstanding: &mut usize|
     -> Result<Option<(usize, u8)>, String> {
        match queue.pop() {
            None => {
                if *outstanding != 0 {
                    return Err(format!("pop returned None with {outstanding} items queued"));
                }
                Ok(None)
            }
            Some(((lane, tenant, got), _queued_for)) => {
                let fifo = model
                    .get_mut(&(lane, tenant))
                    .ok_or_else(|| format!("popped unknown stream ({lane}, {tenant})"))?;
                let expected = fifo
                    .pop_front()
                    .ok_or_else(|| format!("stream ({lane}, {tenant}) over-drained"))?;
                if got != expected {
                    return Err(format!(
                        "per-tenant FIFO violated on ({lane}, {tenant}): \
                         popped #{got}, oldest is #{expected}"
                    ));
                }
                *outstanding -= 1;
                Ok(Some((lane, tenant)))
            }
        }
    };

    for (step, op) in case.ops.iter().enumerate() {
        match op {
            QueueOp::Push(lane_idx, tenant_idx) => {
                let lane = LANES[*lane_idx as usize];
                let tenant = format!("t{tenant_idx}");
                match queue.push(lane, &tenant, (*lane_idx as usize, *tenant_idx, seq)) {
                    Ok(()) => {
                        if outstanding >= QUEUE_CAPACITY {
                            return Err(format!("op {step}: push accepted past capacity"));
                        }
                        model
                            .entry((*lane_idx as usize, *tenant_idx))
                            .or_default()
                            .push_back(seq);
                        outstanding += 1;
                        accepted += 1;
                    }
                    Err(returned) => {
                        if outstanding != QUEUE_CAPACITY {
                            return Err(format!(
                                "op {step}: push rejected with {outstanding}/{QUEUE_CAPACITY} used"
                            ));
                        }
                        if returned != (*lane_idx as usize, *tenant_idx, seq) {
                            return Err(format!(
                                "op {step}: rejected push returned a different item"
                            ));
                        }
                    }
                }
                seq += 1;
            }
            QueueOp::Pop => {
                if pop_checked(&mut queue, &mut model, &mut outstanding)?.is_some() {
                    removed += 1;
                }
            }
        }
        if queue.len() != outstanding {
            return Err(format!(
                "op {step}: len {} != model {outstanding}",
                queue.len()
            ));
        }
    }

    // Static drain: no more pushes, so the fairness bounds are exact.
    // `lane_wait[l]` counts pops since lane l was last served while
    // non-empty; `served_since[(l, t)]` is the set of lane-l tenants
    // served since tenant t was last served — round-robin means no
    // tenant appears in it twice while t waits non-empty.
    let mut lane_wait = [0usize; 3];
    let mut served_since: HashMap<(usize, u8), std::collections::HashSet<u8>> = HashMap::new();
    let non_empty = |model: &HashMap<(usize, u8), VecDeque<u64>>, lane: usize| -> Vec<u8> {
        model
            .iter()
            .filter(|((l, _), fifo)| *l == lane && !fifo.is_empty())
            .map(|((_, t), _)| *t)
            .collect()
    };
    while outstanding > 0 {
        let before: Vec<Vec<u8>> = (0..3).map(|lane| non_empty(&model, lane)).collect();
        let Some((lane, tenant)) = pop_checked(&mut queue, &mut model, &mut outstanding)? else {
            return Err("drain ended early".to_owned());
        };
        removed += 1;
        lane_wait[lane] = 0;
        served_since.insert((lane, tenant), std::collections::HashSet::new());
        for (l, tenants) in before.iter().enumerate() {
            if l == lane {
                for t in tenants {
                    if *t == tenant {
                        continue;
                    }
                    let served = served_since.entry((l, *t)).or_default();
                    if !served.insert(tenant) {
                        return Err(format!(
                            "tenant t{t} starved in lane {l}: t{tenant} was served \
                             twice while it waited"
                        ));
                    }
                }
            } else if !tenants.is_empty() {
                lane_wait[l] += 1;
                if lane_wait[l] > cycle {
                    return Err(format!(
                        "lane {l} (credit {}) starved: waited {} pops, cycle is {cycle}",
                        credits[l], lane_wait[l]
                    ));
                }
            }
        }
    }
    if removed != accepted {
        return Err(format!(
            "conservation violated: {accepted} in, {removed} out"
        ));
    }
    if queue.pop().is_some() {
        return Err("queue non-empty after the model drained".to_owned());
    }
    Ok(())
}

#[test]
fn fair_queue_matches_fifo_model_and_fairness_bounds() {
    shrink::check(
        "fair_queue_matches_fifo_model_and_fairness_bounds",
        CASES,
        9000,
        arb_queue_case,
        shrink_queue_case,
        check_queue_case,
    );
}

#[test]
fn fair_queue_weight_shares_are_exact_under_saturation() {
    // With every lane saturated (>= one full cycle of items queued),
    // the first credit cycle of pops serves each lane exactly its
    // clamped weight — the "weights respected" half of weighted-fair.
    use chatpattern::qos::{FairQueue, LaneWeights, LANES};
    shrink::check(
        "fair_queue_weight_shares_are_exact_under_saturation",
        CASES,
        9500,
        |rng| {
            [
                rng.gen_range(0..5u32),
                rng.gen_range(0..5u32),
                rng.gen_range(0..5u32),
            ]
        },
        |w| {
            let mut out = Vec::new();
            for lane in 0..3 {
                if w[lane] > 0 {
                    let mut smaller = *w;
                    smaller[lane] -= 1;
                    out.push(smaller);
                }
            }
            out
        },
        |w| {
            let weights = LaneWeights {
                interactive: w[0],
                standard: w[1],
                batch: w[2],
            };
            let credits = weights.credits();
            let cycle = weights.cycle() as usize;
            let mut queue: FairQueue<usize> = FairQueue::new(3 * cycle, weights);
            for i in 0..cycle {
                for (lane_idx, lane) in LANES.iter().enumerate() {
                    queue
                        .push(*lane, &format!("t{}", i % 2), lane_idx)
                        .map_err(|_| "saturation push rejected".to_owned())?;
                }
            }
            let mut served = [0usize; 3];
            for _ in 0..cycle {
                let (lane_idx, _) = queue.pop().ok_or("pop on a saturated queue")?;
                served[lane_idx] += 1;
            }
            for lane in 0..3 {
                if served[lane] != credits[lane] as usize {
                    return Err(format!(
                        "lane {lane} served {} of its {} credits in the first cycle \
                         (weights {w:?})",
                        served[lane], credits[lane]
                    ));
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------

/// One submission in a random queued workload: a tenant index, a
/// request-kind selector, and a deliberately small seed space so
/// duplicate requests (the coalescer's and cache's input) arise
/// naturally.
#[derive(Debug, Clone, Copy)]
struct QueuedItem {
    tenant: u8,
    kind: u8,
    seed: u64,
}

/// A random submission queue plus the engine knobs under test.
#[derive(Debug, Clone)]
struct QueuedCase {
    cache_capacity: usize,
    items: Vec<QueuedItem>,
}

const QUEUED_TENANTS: u8 = 3;

fn queued_tenant(i: u8) -> &'static str {
    ["t0", "t1", "t2"][i as usize % QUEUED_TENANTS as usize]
}

fn arb_queued_case(rng: &mut ChaCha8Rng) -> QueuedCase {
    let len = rng.gen_range(4..=12usize);
    QueuedCase {
        cache_capacity: if rng.gen_range(0..2u32) == 0 { 0 } else { 8 },
        items: (0..len)
            .map(|_| QueuedItem {
                tenant: rng.gen_range(0..QUEUED_TENANTS),
                kind: rng.gen_range(0..8u8),
                seed: rng.gen_range(0..6u64),
            })
            .collect(),
    }
}

fn shrink_queued_case(case: &QueuedCase) -> Vec<QueuedCase> {
    let mut out = Vec::new();
    if case.items.len() > 1 {
        let half = case.items.len() / 2;
        out.push(QueuedCase {
            items: case.items[..half].to_vec(),
            ..case.clone()
        });
        out.push(QueuedCase {
            items: case.items[half..].to_vec(),
            ..case.clone()
        });
    }
    for i in 0..case.items.len() {
        let mut items = case.items.clone();
        items.remove(i);
        out.push(QueuedCase {
            items,
            ..case.clone()
        });
    }
    if case.cache_capacity != 0 {
        out.push(QueuedCase {
            cache_capacity: 0,
            ..case.clone()
        });
    }
    out
}

/// Kinds 0-4 map to Generate, the served path's main request; 5-7
/// interleave the other request kinds.
fn queued_request(item: QueuedItem, topology: &Topology) -> PatternRequest {
    match item.kind {
        0..=4 => PatternRequest::Generate(GenerateParams {
            style: if item.seed.is_multiple_of(2) {
                Style::Layer10001
            } else {
                Style::Layer10003
            },
            rows: 16,
            cols: 16,
            count: 1,
            seed: item.seed,
        }),
        5 => PatternRequest::Evaluate(EvaluateParams {
            topologies: vec![topology.clone()],
            frame_nm: 512,
            seed: item.seed,
        }),
        6 => PatternRequest::Legalize(LegalizeParams {
            topology: topology.clone(),
            width_nm: 512,
            height_nm: 512,
            seed: item.seed,
        }),
        _ => PatternRequest::Chat(ChatParams {
            request: "Generate 1 pattern, topology size 16*16, physical size \
                      512nm x 512nm, style Layer-10001."
                .into(),
            seed: Some(item.seed),
        }),
    }
}

fn check_queued_case(
    system: &Arc<ChatPattern>,
    topology: &Topology,
    case: &QueuedCase,
) -> Result<(), String> {
    let engine = |backend| {
        PatternEngine::with_config(
            Arc::clone(system),
            EngineConfig {
                backend,
                workers: 1,
                queue_depth: 64,
                cache_capacity: case.cache_capacity,
            },
        )
        .expect("valid config")
    };

    // Reference: the inline backend executes each submission on the
    // caller thread in order.
    let inline = engine(BackendKind::Inline);
    let expected = case
        .items
        .iter()
        .map(|&item| {
            let response = inline
                .submit_blocking_as(
                    Some(queued_tenant(item.tenant)),
                    queued_request(item, topology),
                )
                .wait()
                .map_err(|e| format!("inline execution failed: {e:?}"))?;
            serde_json::to_string(&response.payload).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<String>, String>>()?;

    // Under test: a single worker pinned by a blocker while the case's
    // items queue behind it, so they dequeue in weighted-fair order.
    let pool = engine(BackendKind::ThreadPool);
    let blocker = pool.submit_blocking_as(
        Some("blocker"),
        PatternRequest::Generate(GenerateParams {
            style: Style::Layer10001,
            rows: 4,
            cols: 4,
            count: 1,
            seed: 0,
        }),
    );
    let handles: Vec<_> = case
        .items
        .iter()
        .map(|&item| {
            pool.submit_blocking_as(
                Some(queued_tenant(item.tenant)),
                queued_request(item, topology),
            )
        })
        .collect();
    blocker
        .wait()
        .map_err(|e| format!("blocker failed: {e:?}"))?;
    for (i, handle) in handles.into_iter().enumerate() {
        let response = handle
            .wait()
            .map_err(|e| format!("request {i} failed: {e:?}"))?;
        let got = serde_json::to_string(&response.payload).map_err(|e| e.to_string())?;
        if got != expected[i] {
            return Err(format!(
                "request {i} ({:?}) diverged from the inline reference",
                case.items[i]
            ));
        }
    }

    // Ledger consistency: every submission (blocker included) was
    // admitted exactly once under its own tenant, nothing was
    // rejected, and each job counts once — every
    // submission was delivered (`completed` includes cache hits and
    // coalesced waiters), while the QoS ledger's completed rows count
    // executions and cache hits only (waiters are admitted-only).
    let stats = pool.stats();
    let total = case.items.len() as u64 + 1;
    if stats.submitted != total {
        return Err(format!("submitted {} of {total}", stats.submitted));
    }
    if stats.completed != total {
        return Err(format!(
            "completed {} of {total} (failed {}, cancelled {})",
            stats.completed, stats.failed, stats.cancelled
        ));
    }
    let mut expected_admitted: BTreeMap<&str, u64> = BTreeMap::new();
    expected_admitted.insert("blocker", 1);
    for item in &case.items {
        *expected_admitted
            .entry(queued_tenant(item.tenant))
            .or_insert(0) += 1;
    }
    let mut admitted: BTreeMap<&str, u64> = BTreeMap::new();
    let mut completed_rows = 0u64;
    for row in &stats.tenants {
        if row.rejected != 0 {
            return Err(format!(
                "tenant {} lane {} rejected {} without any quota configured",
                row.tenant, row.lane, row.rejected
            ));
        }
        *admitted.entry(row.tenant.as_str()).or_insert(0) += row.admitted;
        completed_rows += row.completed;
    }
    if admitted != expected_admitted {
        return Err(format!(
            "per-tenant admissions {admitted:?} != submissions {expected_admitted:?}"
        ));
    }
    if completed_rows + stats.coalesced != stats.completed {
        return Err(format!(
            "per-tenant completed rows sum to {completed_rows}, but the \
             global counters say {} completed with {} coalesced waiters",
            stats.completed, stats.coalesced
        ));
    }
    Ok(())
}

#[test]
fn threadpool_matches_inline_and_ledger_counts_each_job_once() {
    // Real model executions dominate, so this property runs fewer,
    // richer cases over one shared system (seeded requests carry all
    // per-case variation).
    let system = Arc::new(
        ChatPattern::builder()
            .window(16)
            .training_patterns(8)
            .diffusion_steps(6)
            .seed(3)
            .build()
            .expect("valid configuration"),
    );
    let topology = system
        .generate(Style::Layer10001, 16, 16, 1, 99)
        .expect("generates")
        .remove(0);
    shrink::check(
        "threadpool_matches_inline_and_ledger_counts_each_job_once",
        8,
        11000,
        arb_queued_case,
        shrink_queued_case,
        |case| check_queued_case(&system, &topology, case),
    );
}
