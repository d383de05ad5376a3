//! `perfbench` — the served-path benchmark.
//!
//! ```text
//! perfbench --workload generate|chat_sessions|verify [--seed N]
//!           [--seconds S] [--trace 0|1] [--untimed]
//!           --bin-dir DIR --out-dir DIR
//! ```
//!
//! Spawns the release `chatpattern-serve` (or a `chatpattern-router`
//! fleet), drives the workload closed-loop from two users over two TCP
//! connections, checks every reply, and prints every metric by name
//! with its unit. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod fleet;
mod inproc;
mod served;

use chatpattern_core::Timing;
use fleet::{Fleet, FleetKind};
use inproc::InProc;
use perfbench::gen::{self, ChatUser, VerifyPlan};
use perfbench::registry::{END_TO_END, PER_LAYER};
use perfbench::stats::{self, MIN_BEYOND_TAIL};
use perfbench::{quality, trace};
use served::{Keep, Record, Source, UserRun, Window};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fleet spawns per timed run; `setup_s` is their median. About half
/// come before the window and the rest after it, so one burst of
/// outside load cannot move most of them.
const SETUP_REPS: usize = 11;
/// Equal time slices of the window; throughput and latencies are
/// reported as medians over them.
const SLICES: usize = 5;
/// Untimed warm-up before the measured window.
const WARMUP: Duration = Duration::from_millis(1000);
/// Operations of the `--untimed` correctness run.
const UNTIMED_OPS: u64 = 320;
/// Leading generate/verify operations replayed in-process on timed runs.
const CHECK_PREFIX: u64 = 16;
/// Request lines written next to the input properties.
const INPUT_LINES_WRITTEN: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Generate,
    ChatSessions,
    Verify,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "generate" => Some(Workload::Generate),
            "chat_sessions" => Some(Workload::ChatSessions),
            "verify" => Some(Workload::Verify),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Generate => "generate",
            Workload::ChatSessions => "chat_sessions",
            Workload::Verify => "verify",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Untimed,
    Timed,
    Traced,
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    mode: Mode,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut untimed = false;
    let mut bin_dir = None;
    let mut out_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--untimed" {
            untimed = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        mode: match (untimed, trace) {
            (true, _) => Mode::Untimed,
            (false, false) => Mode::Timed,
            (false, true) => Mode::Traced,
        },
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

/// A metric value with its unit, printed and emitted in the JSON.
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

/// Attempts and failures across the whole run.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    succeeded: u64,
    failures: Vec<String>,
}

impl Ledger {
    fn absorb(&mut self, runs: &[UserRun<'_>]) {
        for run in runs {
            self.attempted += run.records.len() as u64;
            self.succeeded += run.records.iter().filter(|r| r.ok).count() as u64;
            // Transport errors and stray replies leave no record but
            // count as failed attempts.
            let recorded = run.records.iter().filter(|r| !r.ok).count();
            self.attempted += run.failures.len().saturating_sub(recorded) as u64;
            self.failures.extend(run.failures.iter().cloned());
        }
    }

    fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failures.push(message);
    }

    /// Counts one in-process replay check.
    fn replayed(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        match result {
            Ok(()) => self.succeeded += 1,
            Err(message) => self.failures.push(message),
        }
    }

    fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let tmp = options.out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let result = run(&options, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok((ledger, metrics)) => {
            for failure in ledger.failures.iter().take(20) {
                println!("FAILED: {failure}");
            }
            println!(
                "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
                ledger.failures.is_empty(),
                ledger.attempted.max(1),
                ledger.failed(),
                metrics.json()
            );
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(options: &Options, tmp: &Path) -> Result<(Ledger, Metrics), String> {
    let workload = options.workload;
    println!(
        "perfbench workload={} seed={} seconds={} mode={:?}",
        workload.name(),
        options.seed,
        options.seconds,
        options.mode
    );
    let plan = (workload == Workload::Verify).then(|| VerifyPlan::new(options.seed));
    let mut inproc = InProc::new()?;
    let mut ledger = Ledger::default();
    let spawns = std::cell::Cell::new(0usize);
    let spawn = || -> Result<(Fleet, f64), String> {
        let n = spawns.get();
        spawns.set(n + 1);
        let kind = match workload {
            Workload::ChatSessions => FleetKind::Router {
                session_dir: tmp.join(format!("sessions-{n}")),
                max_sessions: gen::MAX_SESSIONS_PER_WORKER,
            },
            _ => FleetKind::Serve,
        };
        Fleet::spawn(&options.bin_dir, &kind, &tmp.join(format!("fleet-{n}.log")))
    };
    let sources = || -> Vec<Source<'_>> {
        (0..gen::USERS)
            .map(|user| match workload {
                Workload::Generate => Source::generate(options.seed, user),
                Workload::Verify => Source::verify(plan.as_ref().expect("plan"), user),
                Workload::ChatSessions => Source::chat(options.seed, user),
            })
            .collect()
    };
    let rules = *inproc.rules();
    match options.mode {
        Mode::Untimed | Mode::Timed => {
            let timed = options.mode == Mode::Timed;
            let mut setups = Vec::new();
            let spawn_reps = |setups: &mut Vec<f64>, reps: usize| -> Result<(), String> {
                for _ in 0..reps {
                    let (fleet, setup) = spawn()?;
                    setups.push(setup);
                    fleet.shutdown();
                }
                Ok(())
            };
            if timed {
                spawn_reps(&mut setups, SETUP_REPS - 1 - SETUP_REPS / 2)?;
            }
            let (fleet, setup) = spawn()?;
            setups.push(setup);
            let keep = Keep {
                below_seq: if timed { CHECK_PREFIX } else { u64::MAX },
                max_pairs: usize::MAX,
                chat_turns: false,
            };
            let mut users = sources();
            // Pairs kept during the warm-up: on timed runs these hold
            // most of the first CHECK_PREFIX operations.
            let mut warm_kept = Vec::new();
            if timed {
                let warm = Window {
                    min: WARMUP,
                    min_ops: 0,
                    max: WARMUP,
                };
                let runs = served::drive(&fleet, users, warm, keep, &rules);
                ledger.absorb(&runs);
                users = runs
                    .into_iter()
                    .map(|r| {
                        warm_kept.extend(r.kept);
                        r.source
                    })
                    .collect();
            }
            let window = if timed {
                let seconds = Duration::from_secs_f64(options.seconds);
                Window {
                    min: seconds,
                    min_ops: (stats::samples_for_tail(0.99, MIN_BEYOND_TAIL)
                        * stats::MIN_TAIL_SLICES) as u64,
                    max: seconds * 3,
                }
            } else {
                Window {
                    min: Duration::ZERO,
                    min_ops: UNTIMED_OPS,
                    max: Duration::from_secs(120),
                }
            };
            let started = Instant::now();
            let runs = served::drive(&fleet, users, window, keep, &rules);
            ledger.absorb(&runs);
            let elapsed = runs
                .iter()
                .filter_map(|r| r.records.last())
                .map(|r| r.sent + r.rtt)
                .max()
                .map_or(Duration::ZERO, |end| end - started);
            replay_checks(
                &mut inproc,
                &fleet,
                &runs,
                &warm_kept,
                options,
                tmp,
                &rules,
                &mut ledger,
            )?;
            let peak_rss = fleet.peak_rss_mib();
            fleet.shutdown();
            if timed {
                spawn_reps(&mut setups, SETUP_REPS / 2)?;
            }
            write_inputs(options, workload, &runs)?;
            let metrics = end_to_end(
                workload,
                &runs,
                started,
                elapsed,
                &setups,
                peak_rss,
                &rules,
                &mut ledger,
            );
            print_summary(&ledger, &runs);
            Ok((ledger, if timed { metrics } else { Metrics(Vec::new()) }))
        }
        Mode::Traced => traced(
            options,
            tmp,
            &mut inproc,
            spawn,
            sources,
            &rules,
            &mut ledger,
        )
        .map(|metrics| (ledger, metrics)),
    }
}

/// The in-process replay on timed and untimed runs: the kept leading
/// generate/verify pairs of the warm-up and the window, or one fresh
/// chat dialog driven after the window with a snapshot after open.
/// A replay that covers less than the first `CHECK_PREFIX` operations
/// (or no chat dialog) is itself a failed check.
#[allow(clippy::too_many_arguments)]
fn replay_checks(
    inproc: &mut InProc,
    fleet: &Fleet,
    runs: &[UserRun<'_>],
    warm_kept: &[served::Kept],
    options: &Options,
    tmp: &Path,
    rules: &cp_drc::DesignRules,
    ledger: &mut Ledger,
) -> Result<(), String> {
    if options.workload != Workload::ChatSessions {
        let mut kept: Vec<&served::Kept> = warm_kept
            .iter()
            .chain(runs.iter().flat_map(|r| &r.kept))
            .collect();
        kept.sort_by_key(|k| k.planned.seq);
        let prefix = kept.iter().filter(|k| k.planned.seq < CHECK_PREFIX).count() as u64;
        if prefix < CHECK_PREFIX {
            ledger.replayed(Err(format!(
                "the in-process replay holds {prefix} of the first {CHECK_PREFIX} operations"
            )));
        }
        for pair in kept {
            ledger.replayed(inproc.replay_pair(pair));
        }
        return Ok(());
    }
    // One dialog of a user index the workload never uses.
    let check_user = gen::USERS;
    let mut source = Source::chat_single(options.seed, check_user);
    source.set_snapshots(true);
    let window = Window {
        min: Duration::ZERO,
        min_ops: 4,
        max: Duration::from_secs(60),
    };
    let keep = Keep {
        below_seq: 0,
        max_pairs: 0,
        chat_turns: true,
    };
    let check = served::drive(fleet, vec![source], window, keep, rules);
    ledger.absorb(&check);
    let dir = tmp.join("replay");
    let (persist, _) = inproc.persist(&dir)?;
    let mut dialogs_replayed = 0;
    for run in &check {
        if let Source::Chat { logs, dialogs, .. } = &run.source {
            for (k, log) in logs {
                ledger.replayed(inproc.replay_dialog(&dialogs[k], log, &persist, 0));
                dialogs_replayed += 1;
            }
        }
    }
    if dialogs_replayed == 0 {
        ledger.replayed(Err("the in-process replay holds no chat dialog".to_string()));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn op_records<'a>(runs: &'a [UserRun<'_>]) -> impl Iterator<Item = &'a Record> + 'a {
    runs.iter()
        .flat_map(|r| &r.records)
        .filter(|r| r.is_op && r.ok)
}

#[allow(clippy::too_many_arguments)]
fn end_to_end(
    workload: Workload,
    runs: &[UserRun<'_>],
    started: Instant,
    elapsed: Duration,
    setups: &[f64],
    peak_rss: f64,
    rules: &cp_drc::DesignRules,
    ledger: &mut Ledger,
) -> Metrics {
    let samples: Vec<(f64, f64)> = op_records(runs)
        .map(|r| {
            let done = (r.sent + r.rtt).saturating_duration_since(started);
            (done.as_secs_f64(), r.rtt.as_secs_f64() * 1e3)
        })
        .collect();
    let ops = samples.len();
    let summary = stats::sliced(&samples, elapsed.as_secs_f64(), SLICES);
    let throughput = summary.map_or(0.0, |s| s.throughput);
    let p50 = summary.map(|s| s.p50);
    let p99 = summary.map(|s| s.p99);
    if let Some(s) = summary {
        println!(
            "  medians over {SLICES} slices of {:.3} s; p99 is the median over {} run(s) of consecutive operations",
            elapsed.as_secs_f64() / SLICES as f64,
            s.p99_slices
        );
    }
    let (legality, diversity, prefix) = quality_metrics(workload, runs, rules);
    let think: Duration = runs.iter().map(|r| r.think).sum();
    println!(
        "  client think time {:.3} s ({:.4} of the users' window)",
        think.as_secs_f64(),
        think.as_secs_f64() / (elapsed.as_secs_f64() * runs.len() as f64).max(1e-9)
    );
    if !prefix {
        ledger.fail("the run did not complete the quality prefix".into());
    }
    println!(
        "  window {:.3} s, {ops} operations; setups {} (median of {})",
        elapsed.as_secs_f64(),
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
        setups.len()
    );
    if let Some(p99) = p99 {
        println!(
            "  latency_p99 over {} samples, {} beyond{}",
            p99.samples,
            p99.beyond,
            if p99.beyond < MIN_BEYOND_TAIL {
                " (fewer than 10: tail is thin)"
            } else {
                ""
            }
        );
    }
    let values = [
        throughput,
        p50.unwrap_or(0.0),
        p99.map_or(0.0, |t| t.value),
        stats::median(setups).unwrap_or(0.0),
        peak_rss,
        legality,
        diversity,
    ];
    let metrics = Metrics(
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
    );
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<22} {value:>14.6} {unit}");
    }
    metrics
}

/// `legality` and `diversity` on the seed-ordered quality prefix; the
/// flag says whether the prefix was complete.
fn quality_metrics(
    workload: Workload,
    runs: &[UserRun<'_>],
    rules: &cp_drc::DesignRules,
) -> (f64, f64, bool) {
    match workload {
        Workload::Generate => {
            let mut all = BTreeMap::new();
            for run in runs {
                if let Source::Generate { outputs, .. } = &run.source {
                    all.extend(outputs.iter().map(|(k, v)| (*k, v.clone())));
                }
            }
            match quality::seed_ordered_prefix(&all, served::GENERATE_QUALITY_OPS as usize) {
                Some(prefix) => {
                    let topologies: Vec<_> = prefix.into_iter().flatten().collect();
                    (
                        quality::legality(&topologies, gen::VERIFY_FRAME_NM, rules),
                        quality::diversity(&topologies),
                        true,
                    )
                }
                None => (0.0, 0.0, false),
            }
        }
        Workload::Verify => {
            let mut all = BTreeMap::new();
            for run in runs {
                if let Source::Verify { outputs, .. } = &run.source {
                    all.extend(outputs.iter().map(|(k, v)| (*k, v.clone())));
                }
            }
            // Evaluate operations leave gaps; the prefix is complete
            // when the run got past its last index.
            let reached = runs.iter().all(|r| {
                r.records
                    .iter()
                    .any(|rec| rec.seq + 2 >= served::VERIFY_QUALITY_OPS)
            });
            let legal: Vec<_> = all
                .range(..served::VERIFY_QUALITY_OPS)
                .map(|(_, v)| v.clone())
                .collect();
            let returned: Vec<_> = legal.iter().flatten().cloned().collect();
            let share = returned.len() as f64 / legal.len().max(1) as f64;
            (share, quality::diversity(&returned), reached)
        }
        Workload::ChatSessions => {
            let mut all = BTreeMap::new();
            for run in runs {
                if let Source::Chat { outputs, .. } = &run.source {
                    all.extend(outputs.iter().map(|(k, v)| (*k, v.clone())));
                }
            }
            let len = (served::CHAT_QUALITY_DIALOGS * gen::USERS as u64) as usize;
            match quality::seed_ordered_prefix(&all, len) {
                Some(prefix) => {
                    let patterns: Vec<_> = prefix.into_iter().flatten().collect();
                    let topologies: Vec<_> =
                        patterns.iter().map(|p| p.topology().clone()).collect();
                    (
                        quality::clean_share(&patterns, rules),
                        quality::diversity(&topologies),
                        true,
                    )
                }
                None => (0.0, 0.0, false),
            }
        }
    }
}

fn print_summary(ledger: &Ledger, runs: &[UserRun<'_>]) {
    let requests: usize = runs.iter().map(|r| r.records.len()).sum();
    println!(
        "  sent={} succeeded={} failed={} error_rate={:.6} (requests this window: {requests})",
        ledger.attempted,
        ledger.succeeded,
        ledger.failed(),
        ledger.failed() as f64 / ledger.attempted.max(1) as f64
    );
}

/// Writes the workload's input properties and its first request lines
/// to `OUT/<workload>-s<seed>.inputs.jsonl`.
fn write_inputs(options: &Options, workload: Workload, runs: &[UserRun<'_>]) -> Result<(), String> {
    let records: Vec<&Record> = runs.iter().flat_map(|r| &r.records).collect();
    let requests: Vec<f64> = records.iter().map(|r| r.request_bytes as f64).collect();
    let replies: Vec<f64> = records.iter().map(|r| r.reply_bytes as f64).collect();
    let mut properties = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"requests\":{},\"request_bytes_p50\":{},\"reply_bytes_p50\":{}",
        workload.name(),
        options.seed,
        records.len(),
        stats::median(&requests).unwrap_or(0.0),
        stats::median(&replies).unwrap_or(0.0),
    );
    match workload {
        Workload::Verify => {
            let (mut repeats, mut issued) = (0, 0);
            for run in runs {
                if let Source::Verify {
                    repeats: r,
                    issued: i,
                    ..
                } = &run.source
                {
                    repeats += r;
                    issued += i;
                }
            }
            let share = repeats as f64 / issued.max(1) as f64;
            println!("  verify repeat share {share:.4} ({repeats} of {issued} requests)");
            let _ = write!(properties, ",\"repeat_share\":{share}");
        }
        Workload::ChatSessions => {
            let in_flight = gen::USERS * gen::DIALOGS_PER_USER;
            let capacity = 2 * gen::MAX_SESSIONS_PER_WORKER;
            println!(
                "  dialogs in flight {in_flight} against --max-sessions {} per worker ({capacity} fleet-wide)",
                gen::MAX_SESSIONS_PER_WORKER
            );
            let _ = write!(
                properties,
                ",\"dialogs_in_flight\":{in_flight},\"max_sessions_per_worker\":{},\"fleet_session_capacity\":{capacity}",
                gen::MAX_SESSIONS_PER_WORKER
            );
        }
        Workload::Generate => {}
    }
    properties.push_str("}\n");
    let mut text = properties;
    let mut lines: Vec<String> = Vec::new();
    match workload {
        Workload::Generate => {
            for seq in 0..INPUT_LINES_WRITTEN as u64 {
                let params = gen::generate_op(options.seed, seq);
                lines.push(gen::request_line(
                    seq,
                    &chatpattern_core::PatternRequest::Generate(params),
                ));
            }
        }
        Workload::Verify => {
            let plan = VerifyPlan::new(options.seed);
            for seq in 0..INPUT_LINES_WRITTEN as u64 {
                lines.push(plan.line(seq, &plan.op(seq)));
            }
        }
        Workload::ChatSessions => {
            for user in 0..gen::USERS {
                let mut chat = ChatUser::new(options.seed, user);
                for n in 0..INPUT_LINES_WRITTEN / gen::USERS {
                    let (k, step) = chat.next_step();
                    let request = gen::chat_request(&chat.dialog(k), step);
                    lines.push(gen::request_line(n as u64 + 1, &request));
                }
            }
        }
    }
    for line in lines {
        text.push_str(&line);
        text.push('\n');
    }
    let path = options.out_dir.join(format!(
        "{}-s{}.inputs.jsonl",
        workload.name(),
        options.seed
    ));
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

// ------------------------------------------------------------- traced run

fn traced<'p>(
    options: &Options,
    tmp: &Path,
    inproc: &mut InProc,
    spawn: impl Fn() -> Result<(Fleet, f64), String>,
    sources: impl Fn() -> Vec<Source<'p>>,
    rules: &cp_drc::DesignRules,
    ledger: &mut Ledger,
) -> Result<Metrics, String> {
    let workload = options.workload;
    trace::install(trace::Tracer::new(Instant::now()));
    inproc.time_setup_layers();
    let (fleet, _) = spawn()?;
    let half = Duration::from_secs_f64(options.seconds / 2.0);
    let phase = Window {
        min: half,
        min_ops: 0,
        max: half,
    };
    let no_keep = Keep {
        below_seq: 0,
        max_pairs: 0,
        chat_turns: false,
    };
    // (a0) untraced served phase.
    let started = Instant::now();
    let runs = served::drive(&fleet, sources(), phase, no_keep, rules);
    ledger.absorb(&runs);
    let untraced_ops = op_records(&runs).count() as f64 / started.elapsed().as_secs_f64();
    let mut users: Vec<Source<'p>> = runs.into_iter().map(|r| r.source).collect();
    for user in &mut users {
        user.set_snapshots(true);
    }
    // (a) traced served phase: keep every pair for the replay.
    let keep = Keep {
        below_seq: u64::MAX,
        max_pairs: 4096,
        chat_turns: true,
    };
    let started = Instant::now();
    let runs = served::drive(&fleet, users, phase, keep, rules);
    ledger.absorb(&runs);
    let traced_ops = op_records(&runs).count() as f64 / started.elapsed().as_secs_f64();
    let stats = fleet_stats(&fleet);
    fleet.shutdown();

    let mut tracer = trace::uninstall().expect("tracer");
    for record in runs.iter().flat_map(|r| &r.records) {
        record_rpc(&mut tracer, record);
    }
    trace::install(tracer);

    // (b) in-process replay, bounded to another half window.
    let deadline = Instant::now() + half;
    let mut exec: BTreeMap<u64, u64> = BTreeMap::new();
    if workload == Workload::ChatSessions {
        let dir = tmp.join("replay");
        let (persist, sizes) = inproc.persist(&dir)?;
        let mut request = 1u64 << 40;
        'users: for run in &runs {
            let Source::Chat { logs, dialogs, .. } = &run.source else {
                continue;
            };
            for (k, log) in logs {
                if Instant::now() >= deadline {
                    break 'users;
                }
                if log.snapshot.is_none() || log.turns.is_empty() {
                    continue;
                }
                ledger.replayed(inproc.replay_dialog(&dialogs[k], log, &persist, request));
                for (n, (_, reply)) in log.turns.iter().enumerate() {
                    if let Some(timing) = reply_timing(reply) {
                        exec.insert(request + n as u64, timing.exec_micros);
                    }
                }
                request += 8;
            }
        }
        inproc.tally.snapshot_bytes = sizes.lock().expect("sizes").clone();
    } else {
        let mut kept: Vec<&served::Kept> = runs.iter().flat_map(|r| &r.kept).collect();
        kept.sort_by_key(|k| k.planned.seq);
        for pair in kept {
            if Instant::now() >= deadline {
                break;
            }
            ledger.replayed(inproc.replay_pair(pair));
            // Cached or coalesced replies did not execute; their exec
            // time is not comparable with a fresh in-process run.
            if let Some(timing) = reply_timing(&pair.reply) {
                if !timing.cached && !timing.coalesced {
                    exec.insert(pair.planned.seq, timing.exec_micros);
                }
            }
        }
    }
    let spans = trace::uninstall().expect("tracer").take();
    let layers = per_layer(
        &spans,
        &runs,
        &stats,
        inproc,
        &exec,
        traced_ops / untraced_ops.max(1e-9),
    );
    write_trace(options, workload, &spans, &layers, &exec)?;
    print_summary(ledger, &runs);
    Ok(layers)
}

fn reply_timing(reply: &str) -> Option<Timing> {
    match serde_json::from_str::<chatpattern_core::ResponseEnvelope>(reply)
        .ok()?
        .outcome
    {
        chatpattern_core::WireOutcome::Ok(response) => Some(response.timing),
        chatpattern_core::WireOutcome::Err(_) => None,
    }
}

/// The `rpc` span of one served request, with `engine.queue` and
/// `engine.exec` children placed from the reply's timing, centred in
/// the round trip (the client cannot see where the server's interval
/// sits, only its length).
fn record_rpc(tracer: &mut trace::Tracer, record: &Record) {
    tracer.set_request(record.seq);
    let start = tracer.at(record.sent);
    let end = start + record.rtt.as_nanos() as u64;
    let rpc = tracer.record("rpc", start, end, None);
    if let Some(timing) = record.timing {
        let server = (timing.micros * 1000).min(end - start);
        let queue_start = start + (end - start - server) / 2;
        let queue_end = queue_start + (timing.queue_micros * 1000).min(server);
        tracer.record("engine.queue", queue_start, queue_end, Some(rpc));
        let exec_end = (queue_end + timing.exec_micros * 1000).min(queue_start + server);
        tracer.record("engine.exec", queue_end, exec_end, Some(rpc));
    }
}

fn fleet_stats(fleet: &Fleet) -> serde_json::Value {
    let reply = fleet
        .connect()
        .and_then(|mut conn| conn.call("{\"id\":0,\"request\":\"Stats\"}"))
        .map(|(line, _)| line)
        .unwrap_or_default();
    let value: serde_json::Value = serde_json::from_str(&reply).unwrap_or(serde_json::Value::Null);
    value
        .get("outcome")
        .and_then(|o| o.get("Ok"))
        .and_then(|o| o.get("payload"))
        .and_then(|p| p.get("Stats"))
        .cloned()
        .unwrap_or(serde_json::Value::Null)
}

fn per_layer(
    spans: &[trace::Span],
    runs: &[UserRun<'_>],
    stats: &serde_json::Value,
    inproc: &InProc,
    exec: &BTreeMap<u64, u64>,
    overhead: f64,
) -> Metrics {
    let selves = trace::self_times(spans);
    let durations = |name: &str, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / scale)
            .collect()
    };
    let self_of = |name: &str, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .zip(&selves)
            .filter(|(s, _)| s.name == name)
            .map(|(_, v)| *v as f64 / scale)
            .collect()
    };
    let med = |v: Vec<f64>| stats::median(&v).unwrap_or(0.0);
    let records: Vec<&Record> = op_records(runs).collect();
    let timings: Vec<Timing> = records.iter().filter_map(|r| r.timing).collect();
    let queue: Vec<f64> = timings.iter().map(|t| t.queue_micros as f64).collect();
    let overheads: Vec<f64> = records
        .iter()
        .filter_map(|r| Some(r.rtt.as_secs_f64() * 1e6 - r.timing?.micros as f64))
        .collect();
    let cache_hits = timings.iter().filter(|t| t.cached || t.coalesced).count();
    let tool_calls: Vec<f64> = records
        .iter()
        .filter_map(|r| Some(r.tool_calls? as f64))
        .collect();
    let counter = |name: &str| {
        stats
            .get(name)
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0)
    };
    let turns = counter("turns");
    let per_turn = |name: &str| {
        if turns > 0.0 {
            counter(name) / turns
        } else {
            0.0
        }
    };
    let tally = &inproc.tally;
    let layer_ns = trace::descendant_self_times(spans, |s| s.name.starts_with("op."));
    let (mut layers_sum, mut exec_sum) = (0.0, 0.0);
    for (request, exec_us) in exec {
        if let Some(ns) = layer_ns.get(request) {
            layers_sum += *ns as f64 / 1e3;
            exec_sum += *exec_us as f64;
        }
    }
    let residual = if exec_sum > 0.0 {
        1.0 - layers_sum / exec_sum
    } else {
        0.0
    };
    println!(
        "  residual: served exec {:.3} ms over {} replayed operations, layer self time {:.3} ms, residual {:.3} ms ({:.4} of exec)",
        exec_sum / 1e3,
        exec.len(),
        layers_sum / 1e3,
        (exec_sum - layers_sum) / 1e3,
        residual
    );
    let predict_calls = spans
        .iter()
        .filter(|s| s.name == "diffusion.predict_x0")
        .count() as f64;
    let values: Vec<f64> = vec![
        med(overheads),
        med(queue.clone()),
        stats::percentile(&queue, 0.99).map_or(0.0, |t| t.value),
        med(timings.iter().map(|t| t.exec_micros as f64).collect()),
        cache_hits as f64 / timings.len().max(1) as f64,
        med(durations("wire.decode", 1e3)),
        med(records.iter().map(|r| r.request_bytes as f64).collect()),
        med(durations("wire.encode", 1e3)),
        med(records.iter().map(|r| r.reply_bytes as f64).collect()),
        med(durations("diffusion.predict_x0", 1e3)),
        predict_calls / tally.ops.max(1) as f64,
        med(self_of("diffusion.sample", 1e6)),
        med(self_of("extend.extend", 1e6)),
        med(self_of("agent.turn", 1e6)),
        stats::mean(&tool_calls).unwrap_or(0.0),
        med(durations("legalize.solve", 1e3)),
        tally.legalize_ok as f64 / tally.legalize_attempts.max(1) as f64,
        med(durations("drc.check", 1e3)),
        med(durations("metrics.evaluate", 1e6)),
        med(durations("session.persist", 1e3)),
        med(durations("session.rehydrate", 1e3)),
        med(tally.snapshot_bytes.clone()),
        per_turn("sessions_spilled"),
        per_turn("sessions_restored"),
        med(durations("dataset.build", 1e6)),
        med(durations("diffusion.fit", 1e6)),
        residual,
        overhead,
    ];
    let metrics = Metrics(
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
    );
    println!(
        "  queue_us_p99 over {} samples; {} replayed operations; {} spans",
        queue.len(),
        tally.ops,
        spans.len()
    );
    for ((name, value, unit), layer) in metrics.0.iter().zip(PER_LAYER.iter()) {
        println!(
            "  {name:<34} {value:>14.6} {unit:<6} moves {:<32} on {}",
            layer.moves, layer.workloads
        );
    }
    metrics
}

/// Writes `OUT/<workload>-s<seed>.spans.jsonl` and the per-layer table
/// `OUT/<workload>-s<seed>.layers.txt`.
fn write_trace(
    options: &Options,
    workload: Workload,
    spans: &[trace::Span],
    layers: &Metrics,
    exec: &BTreeMap<u64, u64>,
) -> Result<(), String> {
    let stem = format!("{}-s{}", workload.name(), options.seed);
    let spans_path = options.out_dir.join(format!("{stem}.spans.jsonl"));
    std::fs::write(&spans_path, trace::to_json_lines(spans))
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    let mut table = format!(
        "# per-layer metrics, workload {} seed {} ({} replayed operations with served exec)\n",
        workload.name(),
        options.seed,
        exec.len()
    );
    let _ = writeln!(
        table,
        "{:<34} {:>14} {:<6} {:<34} on workload",
        "metric", "value", "unit", "should move"
    );
    for ((name, value, unit), layer) in layers.0.iter().zip(PER_LAYER.iter()) {
        let _ = writeln!(
            table,
            "{name:<34} {value:>14.6} {unit:<6} {:<34} {}",
            layer.moves, layer.workloads
        );
    }
    let table_path = options.out_dir.join(format!("{stem}.layers.txt"));
    std::fs::write(&table_path, table)
        .map_err(|e| format!("cannot write {}: {e}", table_path.display()))
}
