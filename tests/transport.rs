//! Event-loop transport acceptance suite (ISSUE 9).
//!
//! Everything here runs the real engine behind an in-process
//! [`EventLoopServer`] and drives it over real sockets:
//!
//! * **Incremental framing** — a request dribbled in byte-sized chunks
//!   and two requests coalesced into one `write` both produce exactly
//!   the right replies (the loop's framer reassembles and splits lines
//!   independently of read-boundary luck).
//! * **Oversize rejection** — a line past `max_line_bytes` earns one
//!   error envelope and the connection keeps working.
//! * **Byte-identical transports** — the same requests through the
//!   thread transport and the event loop produce byte-identical
//!   payloads (only `timing` may differ — that is the wire contract).
//! * **Portable fallback** — the same round trip with
//!   `force_poll_fallback`, proving the `poll(2)` backend serves too.
//! * **Backpressure** — a client that requests far more than it reads
//!   is killed once its outbound queue passes the high-water mark, and
//!   the disconnect is accounted as a backpressure kill, not a clean
//!   close.

#![cfg(unix)]

use chatpattern::ChatPattern;
use chatpattern_core::wire::{RequestEnvelope, ResponseEnvelope, WireOutcome};
use chatpattern_core::{BackendKind, EngineConfig, GenerateParams, PatternEngine, PatternRequest};
use cp_dataset::Style;
use cp_net::{
    ClientConfig, EngineHandler, EventLoopConfig, EventLoopServer, NdjsonClient, NdjsonServer,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn build_engine() -> Arc<PatternEngine<Arc<ChatPattern>>> {
    let system = Arc::new(
        ChatPattern::builder()
            .window(16)
            .training_patterns(8)
            .diffusion_steps(6)
            .seed(7)
            .build()
            .expect("valid configuration"),
    );
    Arc::new(
        PatternEngine::with_config(
            system,
            EngineConfig {
                backend: BackendKind::ThreadPool,
                workers: 2,
                queue_depth: 512,
                cache_capacity: 0,
            },
        )
        .expect("valid engine config"),
    )
}

fn spawn_event_loop(
    engine: &Arc<PatternEngine<Arc<ChatPattern>>>,
    config: EventLoopConfig,
) -> cp_net::EventLoopHandle {
    EventLoopServer::bind("127.0.0.1:0", config)
        .expect("loopback bind")
        .conn_counters(engine.conn_counters())
        .spawn(Arc::new(EngineHandler::new(Arc::clone(engine))))
        .expect("event loop spawns")
}

fn generate_line(id: &str, seed: u64) -> String {
    let envelope = RequestEnvelope {
        id: serde_json::to_value(&id),
        tenant: None,
        request: PatternRequest::Generate(GenerateParams {
            style: Style::Layer10001,
            rows: 16,
            cols: 16,
            count: 1,
            seed,
        }),
    };
    serde_json::to_string(&envelope).expect("serializes")
}

/// Reads one NDJSON reply off a raw socket.
fn read_reply(reader: &mut BufReader<TcpStream>) -> ResponseEnvelope {
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply line reads");
    serde_json::from_str(line.trim_end()).expect("reply parses")
}

#[test]
fn framer_reassembles_split_and_coalesced_writes() {
    let engine = build_engine();
    let handle = spawn_event_loop(&engine, EventLoopConfig::default());

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout set");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Split: the first request arrives one byte at a time, flushed
    // after every byte — dozens of partial reads, one framed line.
    let split = format!("{}\n", generate_line("split", 1));
    for byte in split.as_bytes() {
        stream
            .write_all(std::slice::from_ref(byte))
            .expect("byte written");
        stream.flush().expect("byte flushed");
    }
    let reply = read_reply(&mut reader);
    assert_eq!(reply.id.as_str(), Some("split"));
    assert!(matches!(reply.outcome, WireOutcome::Ok(_)));

    // Coalesced: two complete requests (CRLF and LF mixed) in a single
    // write call — one read, two framed lines, two replies.
    let coalesced = format!(
        "{}\r\n{}\n",
        generate_line("co-1", 2),
        generate_line("co-2", 3)
    );
    stream
        .write_all(coalesced.as_bytes())
        .expect("pair written");
    let mut seen: Vec<String> = (0..2)
        .map(|_| {
            let reply = read_reply(&mut reader);
            assert!(matches!(reply.outcome, WireOutcome::Ok(_)));
            reply.id.as_str().expect("string id").to_owned()
        })
        .collect();
    seen.sort();
    assert_eq!(seen, ["co-1", "co-2"]);

    drop(stream);
    handle.shutdown();
}

#[test]
fn oversize_line_is_rejected_and_the_connection_survives() {
    let engine = build_engine();
    let handle = spawn_event_loop(
        &engine,
        EventLoopConfig {
            max_line_bytes: 1024,
            ..EventLoopConfig::default()
        },
    );

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout set");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // 4 KiB of non-newline garbage, then the terminator: one error
    // envelope (null id — the line never parsed), stream still open.
    let mut oversize = vec![b'x'; 4096];
    oversize.push(b'\n');
    stream.write_all(&oversize).expect("oversize written");
    let reply = read_reply(&mut reader);
    assert!(
        reply.id.is_null(),
        "oversize rejection has no id: {reply:?}"
    );
    let WireOutcome::Err(error) = &reply.outcome else {
        panic!("oversize line must error: {reply:?}");
    };
    assert!(
        error.message.contains("exceeds"),
        "error names the limit: {error:?}"
    );

    // The same connection still serves normal requests afterwards.
    let valid = format!("{}\n", generate_line("after", 4));
    stream.write_all(valid.as_bytes()).expect("valid written");
    let reply = read_reply(&mut reader);
    assert_eq!(reply.id.as_str(), Some("after"));
    assert!(matches!(reply.outcome, WireOutcome::Ok(_)));

    drop(stream);
    handle.shutdown();
}

/// Serializes a reply with its `timing` blanked — the only field the
/// wire contract allows to differ between transports.
fn normalized(reply: &ResponseEnvelope) -> String {
    let mut value = serde_json::to_value(reply);
    if let serde_json::Value::Object(envelope) = &mut value {
        if let Some(serde_json::Value::Object(outcome)) = envelope.get_mut("outcome") {
            if let Some(serde_json::Value::Object(ok)) = outcome.get_mut("Ok") {
                let removed = ok.remove("timing");
                assert!(removed.is_some(), "replies carry timing");
            }
        }
    }
    serde_json::to_string(&value).expect("serializes")
}

#[test]
fn event_loop_payloads_are_byte_identical_to_thread_transport() {
    // One deterministic system per transport (identical seed), the
    // same request sequence, byte-compared after timing removal.
    let requests: Vec<(String, u64)> = (0..4).map(|i| (format!("eq-{i}"), 100 + i)).collect();

    let collect = |addr: String| -> Vec<String> {
        let mut client = NdjsonClient::connect(&addr, ClientConfig::default()).expect("dial");
        requests
            .iter()
            .map(|(id, seed)| {
                let reply = client
                    .call(&RequestEnvelope {
                        id: serde_json::to_value(id),
                        tenant: None,
                        request: PatternRequest::Generate(GenerateParams {
                            style: Style::Layer10003,
                            rows: 16,
                            cols: 16,
                            count: 1,
                            seed: *seed,
                        }),
                    })
                    .expect("call round-trips");
                assert!(matches!(reply.outcome, WireOutcome::Ok(_)));
                normalized(&reply)
            })
            .collect()
    };

    let threads_engine = build_engine();
    let threads = NdjsonServer::bind("127.0.0.1:0", 8)
        .expect("bind")
        .conn_counters(threads_engine.conn_counters())
        .spawn(Arc::new(EngineHandler::new(Arc::clone(&threads_engine))));
    let over_threads = collect(threads.local_addr().to_string());
    threads.shutdown();

    let loop_engine = build_engine();
    let event_loop = spawn_event_loop(&loop_engine, EventLoopConfig::default());
    let over_loop = collect(event_loop.local_addr().to_string());
    event_loop.shutdown();

    assert_eq!(
        over_threads, over_loop,
        "transports must be byte-identical after timing removal"
    );
}

#[test]
fn poll_fallback_backend_serves_round_trips() {
    let engine = build_engine();
    let handle = spawn_event_loop(
        &engine,
        EventLoopConfig {
            force_poll_fallback: true,
            ..EventLoopConfig::default()
        },
    );
    let mut client =
        NdjsonClient::connect(&handle.local_addr().to_string(), ClientConfig::default())
            .expect("dial");
    let reply = client
        .call(&RequestEnvelope {
            id: serde_json::to_value(&"fallback"),
            tenant: None,
            request: PatternRequest::Stats,
        })
        .expect("round trip over poll(2)");
    assert!(matches!(reply.outcome, WireOutcome::Ok(_)));
    drop(client);
    handle.shutdown();
}

#[test]
fn shutdown_drains_replies_queued_before_close() {
    let engine = build_engine();
    let handler = Arc::new(EngineHandler::new(Arc::clone(&engine)));
    let handle = EventLoopServer::bind("127.0.0.1:0", EventLoopConfig::default())
        .expect("loopback bind")
        .spawn(Arc::clone(&handler))
        .expect("event loop spawns");

    // Send a batch of requests and read NOTHING: every reply lands in
    // the connection's outbound queue (and whatever slice of it the
    // loop already pushed into the kernel buffer).
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout set");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    const REQUESTS: u64 = 8;
    for i in 0..REQUESTS {
        let line = format!("{}\n", generate_line(&format!("drain-{i}"), 200 + i));
        stream.write_all(line.as_bytes()).expect("request written");
    }

    // Wait until every reply has been accepted into the outbound path,
    // then shut the server down with all of them still unread. The
    // engine counts a job completed before its reply is handed to the
    // connection, so once all requests are submitted, wait on the
    // handler: it counts a request answered only once its reply line
    // is queued.
    let deadline = Instant::now() + Duration::from_secs(120);
    while engine.stats().submitted < REQUESTS {
        assert!(
            Instant::now() < deadline,
            "requests never reached the engine: {:?}",
            engine.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    handler.drain();
    handle.shutdown();

    // Accepted replies must not vanish: the teardown write pass drains
    // queued bytes before the close, so all eight replies arrive,
    // followed by a clean EOF.
    let mut seen: Vec<String> = (0..REQUESTS)
        .map(|_| {
            let reply = read_reply(&mut reader);
            assert!(matches!(reply.outcome, WireOutcome::Ok(_)), "{reply:?}");
            reply.id.as_str().expect("string id").to_owned()
        })
        .collect();
    seen.sort();
    let expected: Vec<String> = (0..REQUESTS).map(|i| format!("drain-{i}")).collect();
    assert_eq!(seen, expected);
    let mut rest = String::new();
    reader.read_line(&mut rest).expect("EOF reads");
    assert!(
        rest.is_empty(),
        "nothing after the drained replies: {rest:?}"
    );
}

#[test]
fn slow_reader_is_killed_at_the_high_water_mark() {
    let engine = build_engine();
    let handle = spawn_event_loop(
        &engine,
        EventLoopConfig {
            outbound_high_water: 4096,
            ..EventLoopConfig::default()
        },
    );

    // Request plenty, read nothing: once the kernel's socket buffers
    // fill, replies pile into the outbound queue until the 4 KiB
    // high-water mark kills the connection.
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut sent = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = engine.stats();
        if stats.disconnects_backpressure >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no backpressure kill after {sent} unread replies: {stats:?}"
        );
        let line = format!("{}\n", generate_line(&format!("bp-{sent}"), sent));
        if stream.write_all(line.as_bytes()).is_err() {
            // The kill closed the socket under us — the counter flip
            // is what the loop above is waiting for.
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        sent += 1;
    }
    let stats = engine.stats();
    assert_eq!(stats.disconnects_backpressure, 1, "{stats:?}");
    assert_eq!(stats.connections_live, 0, "{stats:?}");
    handle.shutdown();
}
