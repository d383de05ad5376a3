//! Many-connection soak for the event-loop transport: `CP_SOAK_CONNS`
//! clients (default 256) against one in-process `EventLoopServer`,
//! every client pipelining several requests before any reply is read —
//! so hundreds of connections hold outstanding replies in the loop's
//! outbound queues at once. The run fails (non-zero exit) on any
//! dropped, garbled, or mis-correlated reply, and checks the engine's
//! connection counters end-to-end: peak ≥ the client count, zero
//! backpressure kills, and every disconnect observed as clean once the
//! clients hang up.
//!
//! This is the CI gate behind the "event loop sustains hundreds of
//! concurrent connections without losing a byte" claim; scale knobs
//! are the usual `CP_*` variables plus `CP_SOAK_CONNS`.

#[cfg(unix)]
fn run() -> Result<(), String> {
    use chatpattern_core::wire::{RequestEnvelope, WireOutcome};
    use chatpattern_core::{
        BackendKind, EngineConfig, GenerateParams, PatternEngine, PatternRequest,
    };
    use cp_bench::BenchConfig;
    use cp_dataset::Style;
    use cp_net::{ClientConfig, EngineHandler, EventLoopConfig, EventLoopServer, NdjsonClient};
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let conns: usize = std::env::var("CP_SOAK_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&c| c > 0)
        .unwrap_or(256);
    // Stats pipelined per client; every 32nd client also runs one real
    // Generate so the soak exercises diffusion work, not just framing.
    let stats_per_conn = 4usize;

    let cfg = BenchConfig::from_env();
    cfg.print_banner("Connection soak: pipelined clients vs. the event-loop transport");
    cp_net::raise_nofile_limit();

    let system = Arc::new(cfg.build_system());
    let engine = Arc::new(
        PatternEngine::with_config(
            Arc::clone(&system),
            EngineConfig {
                backend: BackendKind::ThreadPool,
                workers: 2,
                queue_depth: conns * (stats_per_conn + 1),
                cache_capacity: 0,
            },
        )
        .map_err(|e| format!("engine config: {e}"))?,
    );
    let counters = engine.conn_counters();
    let server = EventLoopServer::bind("127.0.0.1:0", EventLoopConfig::default())
        .map_err(|e| format!("bind: {e}"))?
        .conn_counters(counters);
    let addr = server.local_addr().to_string();
    let handle = server
        .spawn(Arc::new(EngineHandler::new(Arc::clone(&engine))))
        .map_err(|e| format!("spawn: {e}"))?;

    let config = ClientConfig::default();
    let started = Instant::now();
    let mut clients = Vec::with_capacity(conns);
    for i in 0..conns {
        clients.push(
            NdjsonClient::connect(&addr, config.clone())
                .map_err(|e| format!("connect {i}: {e}"))?,
        );
    }
    println!(
        "  {conns} connections open in {:.1} ms",
        started.elapsed().as_secs_f64() * 1e3
    );

    // Phase 1: every client writes its whole pipeline before anyone
    // reads a reply — the loop must buffer replies per connection.
    let mut expected: Vec<HashSet<u64>> = Vec::with_capacity(conns);
    for (i, client) in clients.iter_mut().enumerate() {
        let mut ids = HashSet::new();
        for seq in 0..stats_per_conn {
            let id = (i * 16 + seq) as u64;
            client
                .send(&RequestEnvelope {
                    id: serde_json::to_value(&id),
                    tenant: None,
                    request: PatternRequest::Stats,
                })
                .map_err(|e| format!("send conn {i} seq {seq}: {e}"))?;
            ids.insert(id);
        }
        if i % 32 == 0 {
            let id = (i * 16 + stats_per_conn) as u64;
            client
                .send(&RequestEnvelope {
                    id: serde_json::to_value(&id),
                    tenant: None,
                    request: PatternRequest::Generate(GenerateParams {
                        style: Style::Layer10001,
                        rows: cfg.window,
                        cols: cfg.window,
                        count: 1,
                        seed: i as u64,
                    }),
                })
                .map_err(|e| format!("send conn {i} generate: {e}"))?;
            ids.insert(id);
        }
        expected.push(ids);
    }

    // Phase 2: drain every connection and tick off every id. Any
    // missing, duplicated, or unparseable reply fails the soak.
    let mut replies = 0usize;
    for (i, client) in clients.iter_mut().enumerate() {
        let want = &mut expected[i];
        while !want.is_empty() {
            let reply = client.recv().map_err(|e| format!("recv conn {i}: {e}"))?;
            if !matches!(reply.outcome, WireOutcome::Ok(_)) {
                return Err(format!("conn {i}: request errored"));
            }
            let id = reply
                .id
                .as_f64()
                .ok_or_else(|| format!("conn {i}: non-numeric reply id"))?;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let id = id as u64;
            if !want.remove(&id) {
                return Err(format!("conn {i}: unexpected or duplicate reply id {id}"));
            }
            replies += 1;
        }
    }
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    let stats = engine.stats();
    if (stats.connections_live as usize) != conns {
        return Err(format!(
            "live connection counter {} != {conns} open clients",
            stats.connections_live
        ));
    }
    if (stats.connections_peak as usize) < conns {
        return Err(format!(
            "peak connection counter {} < {conns}",
            stats.connections_peak
        ));
    }
    if stats.disconnects_backpressure != 0 {
        return Err(format!(
            "{} backpressure kill(s) during a well-behaved soak",
            stats.disconnects_backpressure
        ));
    }

    // Hang up everything and wait for the loop to observe each EOF.
    drop(clients);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = engine.stats();
        if stats.connections_live == 0 && (stats.disconnects_clean as usize) >= conns {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!(
                "disconnects not all observed: live={} clean={} (want 0 / ≥{conns})",
                stats.connections_live, stats.disconnects_clean
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();

    println!(
        "  soak OK: {replies} replies over {conns} connections in {elapsed_ms:.1} ms, \
         peak {} live, 0 dropped, 0 garbled, 0 backpressure kills",
        conns
    );
    Ok(())
}

#[cfg(not(unix))]
fn run() -> Result<(), String> {
    println!("conn_soak: event-loop transport is unix-only; nothing to soak");
    Ok(())
}

fn main() {
    if let Err(message) = run() {
        eprintln!("conn_soak FAILED: {message}");
        std::process::exit(1);
    }
}
