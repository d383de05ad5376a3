//! Spawning, connecting to and stopping the served processes.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a fleet may take to announce its address and answer.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(60);
/// How long one reply may take before the run is declared broken.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGKILL: i32 = 9;

/// What to spawn.
#[derive(Debug, Clone)]
pub enum FleetKind {
    /// One `chatpattern-serve --listen`.
    Serve,
    /// `chatpattern-router --workers 2` over single-worker serve
    /// children with a session directory and spill-ahead every turn.
    Router {
        session_dir: PathBuf,
        max_sessions: usize,
    },
}

/// A running server or router fleet.
#[derive(Debug)]
pub struct Fleet {
    child: Option<Child>,
    addr: String,
    router: bool,
}

impl Fleet {
    /// Spawns the fleet and waits for its first `Ok` reply. Returns
    /// the fleet and the seconds from spawn to that reply.
    pub fn spawn(bin_dir: &Path, kind: &FleetKind, log: &Path) -> Result<(Fleet, f64), String> {
        let stderr =
            File::create(log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let (bin, args): (&str, Vec<String>) = match kind {
            FleetKind::Serve => (
                "chatpattern-serve",
                vec!["--listen".into(), "127.0.0.1:0".into()],
            ),
            FleetKind::Router {
                session_dir,
                max_sessions,
            } => (
                "chatpattern-router",
                vec![
                    "--listen".into(),
                    "127.0.0.1:0".into(),
                    "--workers".into(),
                    "2".into(),
                    "--serve-arg".into(),
                    "--workers".into(),
                    "--serve-arg".into(),
                    "1".into(),
                    "--serve-arg".into(),
                    "--max-sessions".into(),
                    "--serve-arg".into(),
                    max_sessions.to_string(),
                    "--session-dir".into(),
                    session_dir.display().to_string(),
                    "--spill-ahead-turns".into(),
                    "1".into(),
                ],
            ),
        };
        let started = Instant::now();
        let child = Command::new(bin_dir.join(bin))
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn {bin}: {e}"))?;
        let mut fleet = Fleet {
            child: Some(child),
            addr: String::new(),
            router: matches!(kind, FleetKind::Router { .. }),
        };
        fleet.addr = wait_for_address(log, bin, fleet.child.as_mut().expect("child"), started)?;
        let mut conn = fleet.connect()?;
        let reply = conn.call("{\"id\":0,\"request\":\"Stats\"}")?.0;
        if !reply.contains("\"Ok\"") {
            return Err(format!("{bin}: first reply is not Ok: {reply}"));
        }
        let setup = started.elapsed().as_secs_f64();
        Ok((fleet, setup))
    }

    /// A fresh client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    /// Process ids of the fleet: the spawned process and its children.
    #[must_use]
    pub fn pids(&self) -> Vec<u32> {
        let Some(child) = &self.child else {
            return Vec::new();
        };
        let root = child.id();
        let mut pids = vec![root];
        pids.extend(children_of(root));
        pids
    }

    /// Sum of `VmHWM` over the fleet's processes, in MiB.
    #[must_use]
    pub fn peak_rss_mib(&self) -> f64 {
        self.pids().into_iter().map(vm_hwm_kib).sum::<u64>() as f64 / 1024.0
    }

    /// Stops every process of the fleet and waits for each.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        let workers = if self.router {
            children_of(child.id())
        } else {
            Vec::new()
        };
        if self.router {
            // The router kills its spawned workers on Shutdown.
            if let Ok(mut conn) = self.connect() {
                let _ = conn.call("{\"id\":\"bye\",\"control\":\"Shutdown\"}");
            }
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline {
                if let Ok(Some(_)) = child.try_wait() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        for &pid in &workers {
            if is_alive(pid) {
                // SAFETY: plain syscall on a pid this benchmark spawned
                // (through the router); no memory is shared.
                unsafe {
                    kill(pid as i32, SIGKILL);
                }
            }
        }
        let _ = child.kill();
        let _ = child.wait();
        // Workers are reaped by the router or, once it is gone, by
        // init: wait until none is left running.
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline && workers.iter().any(|&pid| is_alive(pid)) {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Polls the stderr log for `BIN: listening on HOST:PORT`.
fn wait_for_address(
    log: &Path,
    bin: &str,
    child: &mut Child,
    started: Instant,
) -> Result<String, String> {
    let announcement = format!("{bin}: listening on ");
    loop {
        let mut text = String::new();
        if let Ok(mut file) = File::open(log) {
            let _ = file.read_to_string(&mut text);
        }
        if let Some(rest) = text.split(announcement.as_str()).nth(1) {
            // `eprintln!` writes the line in pieces: only a finished
            // line holds the whole port.
            if let Some((addr, _)) = rest.split_once('\n') {
                return Ok(addr.trim().to_owned());
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("server exited during startup ({status}): {text}"));
        }
        if started.elapsed() > STARTUP_TIMEOUT {
            return Err(format!(
                "no listening address after {STARTUP_TIMEOUT:?}: {text}"
            ));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// Direct children of `pid`, from `/proc/*/stat`.
fn children_of(pid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| parent_of(p) == Some(pid))
        .collect()
}

fn parent_of(pid: u32) -> Option<u32> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name: state, ppid, ...
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(1)?.parse().ok()
}

fn is_alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map(|s| !s.contains(") Z "))
        .unwrap_or(false)
}

fn vm_hwm_kib(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// One NDJSON client connection with one request in flight at a time.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
            out: Vec::with_capacity(1 << 14),
        })
    }

    /// Sends one line and waits for one reply line. Returns the reply
    /// (without its newline) and the round-trip time.
    pub fn call(&mut self, line: &str) -> Result<(String, Duration), String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        let mut reply = String::new();
        let sent = Instant::now();
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        let rtt = sent.elapsed();
        if n == 0 {
            return Err("connection closed before the reply".into());
        }
        if reply.ends_with('\n') {
            reply.pop();
        }
        Ok((reply, rtt))
    }

    /// True when a further (unexpected) line arrives within `wait`.
    pub fn has_extra_line(&mut self, wait: Duration) -> bool {
        let _ = self.reader.get_ref().set_read_timeout(Some(wait));
        let mut line = String::new();
        let extra = matches!(self.reader.read_line(&mut line), Ok(n) if n > 0);
        let _ = self.reader.get_ref().set_read_timeout(Some(REPLY_TIMEOUT));
        extra
    }
}
