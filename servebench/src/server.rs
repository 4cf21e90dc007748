//! The server under test as a subprocess: the `netmark` CLI binary, or
//! this binary's federation router mode.
//!
//! `netmark --dir D [--shards N] serve --bind 127.0.0.1:0 [--dropbox F]`
//! prints its address on its first stdout line, and so does
//! `servebench --serve-router ADDR,ADDR`. The handle SIGKILLs and reaps the
//! process when dropped, so no server outlives the benchmark.

use crate::http::Conn;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a server may take to print its address and answer.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server process.
pub struct Server {
    child: Option<Child>,
    _stdout: Option<BufReader<ChildStdout>>,
    /// Bound address.
    pub addr: SocketAddr,
}

type Ready = std::io::Result<(BufReader<ChildStdout>, String)>;

impl Server {
    /// Starts `bin` on `dir` (watching `dropbox`, if given) and waits
    /// until it answers `GET /xdb/capabilities`.
    pub fn start(
        bin: &Path,
        dir: &Path,
        shards: Option<usize>,
        dropbox: Option<&Path>,
    ) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("--dir").arg(dir);
        if let Some(n) = shards {
            cmd.arg("--shards").arg(n.to_string());
        }
        cmd.args(["serve", "--bind", "127.0.0.1:0"]);
        if let Some(d) = dropbox {
            cmd.arg("--dropbox").arg(d);
        }
        Server::launch(cmd)
    }

    /// Spawns `cmd`, a server that prints `serving on http://ADDR` as its
    /// first stdout line, and waits until it answers
    /// `GET /xdb/capabilities`.
    pub fn launch(mut cmd: Command) -> Result<Server, String> {
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel::<Ready>();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            let mut line = String::new();
            let res = r.read_line(&mut line).map(|_| (r, line));
            let _ = tx.send(res);
        });
        let mut server = Server {
            child: Some(child),
            _stdout: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let first = rx.recv_timeout(READY_TIMEOUT);
        if first.is_err() {
            // Killing the child closes the pipe, which ends the reader.
            server.kill();
        }
        reader
            .join()
            .map_err(|_| "stdout reader panicked".to_string())?;
        let (stdout, line) = first
            .map_err(|_| "server printed no address in time".to_string())?
            .map_err(|e| format!("reading server stdout: {e}"))?;
        server._stdout = Some(stdout);
        server.addr = line
            .trim()
            .strip_prefix("serving on http://")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        wait_ready(server.addr)?;
        Ok(server)
    }

    /// Process id (0 once killed).
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, |c| c.id())
    }

    /// SIGKILLs the process and waits until it is gone.
    pub fn kill(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Polls `GET /xdb/capabilities` until it answers 200.
pub fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        let mut c = Conn::new(addr, Duration::from_secs(5));
        match c.get("/xdb/capabilities") {
            Ok(r) if r.status == 200 => return Ok(()),
            _ if t0.elapsed() > READY_TIMEOUT => {
                return Err(format!("server at {addr} never became ready"))
            }
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// `/proc/<pid>/io` read counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcIo {
    /// `read`-family syscalls (`syscr`).
    pub syscr: u64,
    /// Bytes returned by them (`rchar`).
    pub rchar: u64,
}

impl ProcIo {
    /// Counters for `pid` (zeros when unreadable).
    pub fn of(pid: u32) -> ProcIo {
        let text = std::fs::read_to_string(format!("/proc/{pid}/io")).unwrap_or_default();
        let field = |k: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(k))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        ProcIo {
            syscr: field("syscr:"),
            rchar: field("rchar:"),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: ProcIo) -> ProcIo {
        ProcIo {
            syscr: self.syscr.saturating_sub(earlier.syscr),
            rchar: self.rchar.saturating_sub(earlier.rchar),
        }
    }
}

/// Peak resident set (`VmHWM`) of `pid` in MiB (0 when unreadable).
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            match e.file_type() {
                Ok(t) if t.is_dir() => total += dir_bytes(&e.path()),
                Ok(t) if t.is_file() => total += e.metadata().map_or(0, |m| m.len()),
                _ => {}
            }
        }
    }
    total
}

/// Recursively copies `from` to `to` and syncs the copy to disk, so
/// that writing it back does not fall into a timed reopen of the copy
/// (which checkpoints and fsyncs).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        let target = to.join(e.file_name());
        if e.file_type()?.is_dir() {
            copy_dir(&e.path(), &target)?;
        } else {
            std::fs::copy(e.path(), &target)?;
            std::fs::File::open(&target)?.sync_all()?;
        }
    }
    std::fs::File::open(to)?.sync_all()
}
