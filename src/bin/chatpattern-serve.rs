//! `chatpattern-serve` — the JSON-lines wire front-end.
//!
//! Reads one [`RequestEnvelope`](chatpattern_core::RequestEnvelope)
//! per line, executes it on a [`PatternEngine`], and writes one
//! [`ResponseEnvelope`](chatpattern_core::ResponseEnvelope) per line,
//! echoing the client-chosen `id`. Each accepted job gets a
//! completion-writer thread, so responses go out the moment the job
//! finishes — an interactive client can hold its stream open and
//! still receive every reply immediately — and may arrive out of
//! submission order; the `id` is the correlation key. The format is
//! documented with worked examples in `docs/WIRE_PROTOCOL.md`.
//!
//! ```text
//! chatpattern-serve [--listen ADDR] [--transport threads|event-loop]
//!                   [--max-connections N]
//!                   [--backend inline|threadpool|sharded] [--shards N]
//!                   [--workers N] [--queue-depth N] [--cache-capacity N]
//!                   [--tenant-quota [TENANT:]SPEC]... [--lane-weights W]
//!                   [--max-sessions N] [--session-ttl-secs N]
//!                   [--session-dir PATH]
//!                   [--window N] [--diffusion-steps N]
//!                   [--training-patterns N] [--seed N] [--stats]
//! ```
//!
//! Two transports, one protocol (byte-identical envelopes): the
//! default stdin/stdout pipe, and — with `--listen ADDR` — an
//! NDJSON-over-TCP server (`cp_net`) where every connection is its
//! own request stream over the same shared engine. `--backend`
//! selects the engine's execution strategy (see `docs/ENGINE.md`);
//! duplicate in-flight requests coalesce onto one execution
//! regardless of backend. Stateful multi-turn sessions (`SessionOpen`
//! / `SessionTurn` / `SessionClose`, see `docs/SESSIONS.md`) are
//! bounded by `--max-sessions` and `--session-ttl-secs`; with
//! `--session-dir`, capacity eviction *spills* sessions to disk, and
//! the `SessionSnapshot` / `SessionRestore` request kinds export a
//! live session from one serve process and import it into another
//! (what the `chatpattern-router` uses to rebalance a fleet). The
//! `Stats` request kind answers the engine's
//! [`EngineStats`](chatpattern_core::EngineStats) counters over the
//! wire mid-stream; `--stats` additionally prints them to stderr at
//! every EOF/disconnect — including a broken pipe, which is treated
//! as a clean close (a client that got what it wanted and went away
//! is not an error). Malformed lines produce an error envelope
//! immediately (with the line's `id` when one is recoverable, `null`
//! otherwise) and never abort the stream.

use chatpattern_core::qos::{LaneWeights, QosConfig};
use chatpattern_core::{BackendKind, ChatPattern, EngineConfig, PatternEngine};
use cp_net::{
    ConnectionHandler, EngineHandler, EventLoopConfig, EventLoopServer, LineSink, NdjsonServer,
};
use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;

/// Which TCP execution shape serves `--listen`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Transport {
    /// Blocking thread-per-connection with a bounded accept pool.
    Threads,
    /// Readiness-driven event loop (epoll, `poll(2)` fallback).
    EventLoop,
}

/// Everything the command line can configure.
struct Options {
    engine: EngineConfig,
    qos: QosConfig,
    window: usize,
    diffusion_steps: usize,
    training_patterns: usize,
    seed: u64,
    max_sessions: usize,
    session_ttl_secs: u64,
    session_dir: Option<String>,
    spill_ahead_turns: Option<u64>,
    spill_ahead_secs: Option<u64>,
    persist_shards: usize,
    stats: bool,
    listen: Option<String>,
    transport: Transport,
    /// `None` until `--max-connections` is given, so each transport
    /// can apply its own default (64 threads vs. 4096 multiplexed).
    max_connections: Option<usize>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            engine: EngineConfig::default(),
            qos: QosConfig::default(),
            // The builder's defaults, restated so `--help` can print
            // them without constructing a builder.
            window: 64,
            diffusion_steps: 12,
            training_patterns: 64,
            seed: 0,
            max_sessions: 64,
            session_ttl_secs: 900,
            session_dir: None,
            spill_ahead_turns: None,
            spill_ahead_secs: None,
            persist_shards: 1,
            stats: false,
            listen: None,
            transport: Transport::Threads,
            max_connections: None,
        }
    }
}

const USAGE: &str = "\
chatpattern-serve: JSON-lines PatternRequest server over stdin/stdout or TCP

Each input line: {\"id\": <scalar>, \"request\": <PatternRequest>}
Each output line: {\"id\": <same>, \"outcome\": {\"Ok\": ...} | {\"Err\": ...}}
(see docs/WIRE_PROTOCOL.md)

Options:
  --listen ADDR          serve the same protocol over TCP instead of
                         stdin/stdout (use port 0 for an OS-assigned
                         port; the bound address is announced on
                         stderr as 'listening on HOST:PORT'); every
                         connection is an independent NDJSON stream
                         over one shared engine
  --transport NAME       TCP execution shape for --listen: 'threads'
                         (default; one blocking thread per connection,
                         bounded accept pool) or 'event-loop'
                         (readiness-driven epoll/poll multiplexing —
                         thousands of mostly-idle connections on one
                         loop thread; slow readers are disconnected
                         past an outbound high-water mark)
  --max-connections N    concurrently served TCP connections (default
                         64 for --transport threads, 4096 for
                         event-loop)
  --backend NAME         execution backend: inline, threadpool (default)
                         or sharded (per-shard queues + workers, jobs
                         routed by request-key hash; needs
                         --workers >= shards)
  --shards N             shard count for --backend sharded
                         (default min(4, workers))
  --workers N            engine worker threads (default: CPU count)
  --queue-depth N        bounded submission queue, per shard when
                         sharded (default 256)
  --cache-capacity N     LRU result-cache entries, 0 disables (default 128)
  --tenant-quota SPEC    per-tenant admission limits; SPEC is
                         comma-separated name=value with names
                         inflight, sessions, tps, burst (0/omitted =
                         unlimited), e.g. inflight=4,sessions=8,tps=2.
                         Prefix TENANT: to limit one tenant, bare SPEC
                         sets the default quota; repeatable. Over-quota
                         requests answer an Overloaded error envelope
                         with retry_after_ms instead of queuing
  --lane-weights W       weighted-fair dequeue credits for the
                         interactive/standard/batch lanes, either bare
                         \"4,2,1\" (the default) or named
                         \"interactive=4,standard=2,batch=1\"; zero
                         weights are clamped to 1 so no lane starves
  --max-sessions N       open chat sessions held at once; opening more
                         evicts the least-recently-used (default 64)
  --session-ttl-secs N   idle seconds before a session expires (default 900;
                         also bounds spilled sessions in --session-dir)
  --session-dir PATH     spill evicted sessions to one JSON file per
                         session under PATH instead of destroying them;
                         a turn on a spilled id rehydrates it
                         transparently, and spilled sessions survive a
                         serve restart over the same PATH (default: off
                         — eviction destroys). Cross-process handoff
                         without a shared directory uses the
                         SessionSnapshot / SessionRestore request kinds
                         (docs/SESSIONS.md)
  --spill-ahead-turns N  with --session-dir: snapshot a warm session to
                         disk after every N completed turns, so a crash
                         loses at most the in-flight turn (default: off)
  --spill-ahead-secs N   with --session-dir: background cadence thread
                         that snapshots every dirty session at least
                         every N seconds, off the turn path (default:
                         off; combines with --spill-ahead-turns)
  --persist-shards N     fan the --session-dir store out over N
                         shard-{i} subdirectories with per-shard
                         locking; spilled sessions rehydrate lazily on
                         first touch, so restarting over a huge
                         directory does not stall startup (default 1 =
                         flat layout; flat files from earlier runs are
                         still found and migrated on touch)
  --window N             model window L (default 64)
  --diffusion-steps N    diffusion chain length K (default 12)
  --training-patterns N  training patterns per style (default 64)
  --seed N               master seed (default 0)
  --stats                print engine counters to stderr at every
                         EOF/disconnect (counters are also queryable
                         in-band via the Stats request kind)
  --help                 this text";

fn parse_args() -> Result<Options, String> {
    let mut options = Options::default();
    let mut shards: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            std::process::exit(0);
        }
        if flag == "--stats" {
            options.stats = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |name: &str| {
            value
                .parse::<usize>()
                .map_err(|_| format!("{name} needs an unsigned integer, got {value:?}"))
        };
        match flag.as_str() {
            "--backend" => {
                options.engine.backend = match value.as_str() {
                    "inline" => BackendKind::Inline,
                    "threadpool" => BackendKind::ThreadPool,
                    // The shard count is applied after the full parse
                    // so --shards works in either flag order.
                    "sharded" => BackendKind::Sharded { shards: 0 },
                    other => {
                        return Err(format!(
                            "--backend must be inline, threadpool or sharded, got {other:?}"
                        ))
                    }
                }
            }
            "--shards" => shards = Some(number("--shards")?),
            "--workers" => options.engine.workers = number("--workers")?,
            "--queue-depth" => options.engine.queue_depth = number("--queue-depth")?,
            "--cache-capacity" => options.engine.cache_capacity = number("--cache-capacity")?,
            "--tenant-quota" => {
                options
                    .qos
                    .apply_quota_flag(&value)
                    .map_err(|e| format!("--tenant-quota: {e}"))?;
            }
            "--lane-weights" => {
                options.qos.lane_weights =
                    LaneWeights::parse(&value).map_err(|e| format!("--lane-weights: {e}"))?;
            }
            "--max-sessions" => options.max_sessions = number("--max-sessions")?,
            "--session-ttl-secs" => options.session_ttl_secs = number("--session-ttl-secs")? as u64,
            "--session-dir" => options.session_dir = Some(value.clone()),
            "--spill-ahead-turns" => {
                options.spill_ahead_turns = Some(number("--spill-ahead-turns")? as u64);
            }
            "--spill-ahead-secs" => {
                options.spill_ahead_secs = Some(number("--spill-ahead-secs")? as u64);
            }
            "--persist-shards" => options.persist_shards = number("--persist-shards")?,
            "--window" => options.window = number("--window")?,
            "--diffusion-steps" => options.diffusion_steps = number("--diffusion-steps")?,
            "--training-patterns" => options.training_patterns = number("--training-patterns")?,
            "--seed" => options.seed = number("--seed")? as u64,
            "--listen" => options.listen = Some(value.clone()),
            "--transport" => {
                options.transport = match value.as_str() {
                    "threads" => Transport::Threads,
                    "event-loop" => Transport::EventLoop,
                    other => {
                        return Err(format!(
                            "--transport must be threads or event-loop, got {other:?}"
                        ))
                    }
                }
            }
            "--max-connections" => options.max_connections = Some(number("--max-connections")?),
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    match (options.engine.backend, shards) {
        (BackendKind::Sharded { .. }, shards) => {
            // Default shard count: 4, clamped so the documented
            // defaults stay valid on small hosts (validation requires
            // workers >= shards).
            options.engine.backend = BackendKind::Sharded {
                shards: shards.unwrap_or_else(|| options.engine.workers.clamp(1, 4)),
            };
        }
        (_, Some(_)) => {
            return Err("--shards only applies with --backend sharded".to_owned());
        }
        _ => {}
    }
    Ok(options)
}

/// One stderr line of engine counters — the shape `wire_smoke.sh`
/// greps, flushed at every EOF/disconnect when `--stats` is on.
fn print_stats(engine: &PatternEngine<ChatPattern>) {
    let stats = engine.stats();
    eprintln!(
        "chatpattern-serve: backend={} submitted={} completed={} failed={} cancelled={} \
         cache_hits={} cache_misses={} coalesced={} sessions_open={} \
         sessions_evicted={} sessions_spilled={} sessions_restored={} turns={} \
         queue_depths={:?} conns_live={} conns_peak={} disconnects_clean={} \
         disconnects_backpressure={} sessions_spilled_ahead={} snapshot_bytes_saved={}",
        engine.config().backend.name(),
        stats.submitted,
        stats.completed,
        stats.failed,
        stats.cancelled,
        stats.cache_hits,
        stats.cache_misses,
        stats.coalesced,
        stats.sessions_open,
        stats.sessions_evicted,
        stats.sessions_spilled,
        stats.sessions_restored,
        stats.turns,
        stats.queue_depths,
        stats.connections_live,
        stats.connections_peak,
        stats.disconnects_clean,
        stats.disconnects_backpressure,
        stats.sessions_spilled_ahead,
        stats.snapshot_bytes_saved,
    );
    // One extra line per (tenant, lane) QoS row, after the main
    // counter line so existing log scrapers keep matching it.
    for row in &stats.tenants {
        eprintln!(
            "chatpattern-serve: tenant={} lane={} admitted={} rejected={} completed={} \
             queue_micros={}",
            row.tenant, row.lane, row.admitted, row.rejected, row.completed, row.queue_micros,
        );
    }
}

/// TCP-mode handler: the shared [`EngineHandler`] plus the `--stats`
/// flush on every disconnect.
struct ServeHandler {
    inner: EngineHandler<ChatPattern>,
    stats: bool,
}

impl ConnectionHandler for ServeHandler {
    fn on_line(&self, line: &str, sink: &Arc<LineSink>) {
        self.inner.on_line(line, sink);
    }

    fn on_disconnect(&self, _sink: &Arc<LineSink>) {
        if self.stats {
            print_stats(self.inner.engine());
        }
    }
}

/// The stdin/stdout transport: one NDJSON stream, EOF ends it. A
/// broken stdout pipe is a clean close (stop reading, still report
/// stats); only real I/O errors fail the process.
fn serve_stdio(handler: &EngineHandler<ChatPattern>, stats: bool) -> ExitCode {
    let stdin = std::io::stdin();
    let sink = Arc::new(LineSink::stdout());
    let mut io_failed = false;

    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(error) => {
                eprintln!("chatpattern-serve: stdin error: {error}");
                io_failed = true;
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        // Submission inside is non-blocking: a full queue or an
        // exhausted tenant quota answers an error envelope with
        // retry_after_ms immediately, and accepted work still bounds
        // the live writer threads to roughly queue_depth + workers.
        handler.on_line(&line, &sink);
        if sink.is_closed() || sink.has_failed() {
            break;
        }
    }

    // EOF (or a gone client): wait for everything still in flight so
    // the final counters include it.
    handler.drain();
    if let Some(error) = sink.error() {
        eprintln!("chatpattern-serve: stdout error: {error}");
        io_failed = true;
    }
    if stats {
        print_stats(handler.engine());
    }
    if io_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("chatpattern-serve: {message}");
            return ExitCode::FAILURE;
        }
    };
    let mut builder = ChatPattern::builder()
        .window(options.window)
        .diffusion_steps(options.diffusion_steps)
        .training_patterns(options.training_patterns)
        .seed(options.seed)
        .max_sessions(options.max_sessions)
        .session_ttl(std::time::Duration::from_secs(options.session_ttl_secs));
    if let Some(dir) = &options.session_dir {
        builder = builder.session_dir(dir);
    }
    if let Some(turns) = options.spill_ahead_turns {
        builder = builder.spill_ahead_turns(turns);
    }
    if let Some(secs) = options.spill_ahead_secs {
        builder = builder.spill_ahead_interval(std::time::Duration::from_secs(secs));
    }
    if options.persist_shards != 1 {
        builder = builder.persist_shards(options.persist_shards);
    }
    let system = match builder.build() {
        Ok(system) => system,
        Err(error) => {
            eprintln!("chatpattern-serve: {error}");
            return ExitCode::FAILURE;
        }
    };
    let engine = match PatternEngine::with_qos(system, options.engine, options.qos.clone()) {
        Ok(engine) => Arc::new(engine),
        Err(error) => {
            eprintln!("chatpattern-serve: {error}");
            return ExitCode::FAILURE;
        }
    };
    let counters = engine.conn_counters();
    let handler = EngineHandler::new(engine);

    match &options.listen {
        None => serve_stdio(&handler, options.stats),
        Some(addr) => {
            let handler = Arc::new(ServeHandler {
                inner: handler,
                stats: options.stats,
            });
            match options.transport {
                Transport::Threads => {
                    let max = options
                        .max_connections
                        .unwrap_or(cp_net::DEFAULT_MAX_CONNECTIONS);
                    let server = match NdjsonServer::bind(addr.as_str(), max) {
                        Ok(server) => server.conn_counters(counters),
                        Err(error) => {
                            eprintln!("chatpattern-serve: cannot listen on {addr}: {error}");
                            return ExitCode::FAILURE;
                        }
                    };
                    // The announcement line is part of the CLI
                    // contract: the router and the smoke scripts parse
                    // it to learn the OS-assigned port under
                    // `--listen 127.0.0.1:0`.
                    eprintln!("chatpattern-serve: listening on {}", server.local_addr());
                    server.spawn(handler).join();
                }
                Transport::EventLoop => {
                    // Thousands of sockets need fd headroom beyond the
                    // usual shell default of 1024.
                    cp_net::raise_nofile_limit();
                    let config = EventLoopConfig {
                        max_connections: options
                            .max_connections
                            .unwrap_or(cp_net::DEFAULT_EVENT_LOOP_CONNECTIONS),
                        ..EventLoopConfig::default()
                    };
                    let server = match EventLoopServer::bind(addr.as_str(), config) {
                        Ok(server) => server.conn_counters(counters),
                        Err(error) => {
                            eprintln!("chatpattern-serve: cannot listen on {addr}: {error}");
                            return ExitCode::FAILURE;
                        }
                    };
                    // Same announcement contract as the thread
                    // transport: clients cannot tell them apart.
                    eprintln!("chatpattern-serve: listening on {}", server.local_addr());
                    match server.spawn(handler) {
                        Ok(handle) => handle.join(),
                        Err(error) => {
                            eprintln!("chatpattern-serve: cannot start event loop: {error}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            ExitCode::SUCCESS
        }
    }
}
