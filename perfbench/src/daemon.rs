//! Driving the real `stage-serve` binary: spawn, first reply, kill,
//! restart, orderly shutdown, and one-line-per-request clients.
//!
//! A [`Daemon`] owns its child process and its data directory: dropping
//! it (on success, on an early `?` return, or while a panic unwinds)
//! kills the process, waits for it, and removes the directory, so no
//! failure path leaves a daemon running or a data directory behind.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;

/// Longest wait for one reply; a daemon slower than this is broken.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One NDJSON connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    /// Connects to `addr` with Nagle off (one short line per request).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends `request` (one line, no newline) and returns the reply line.
    pub fn call(&mut self, request: &str) -> io::Result<&str> {
        let mut framed = Vec::with_capacity(request.len() + 1);
        framed.extend_from_slice(request.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    /// Sends `request` and parses a reply that must carry `ok: true`.
    pub fn call_ok(&mut self, request: &str) -> Result<Value, String> {
        let reply = self.call(request).map_err(|e| format!("{request}: {e}"))?;
        let value: Value =
            serde_json::from_str(reply).map_err(|e| format!("{request}: bad reply: {e}"))?;
        if value.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("{request}: refused: {reply}"));
        }
        Ok(value)
    }
}

/// A running `stage-serve` with its own data directory.
pub struct Daemon {
    exe: PathBuf,
    args: Vec<String>,
    data_dir: PathBuf,
    child: Option<Child>,
    addr: String,
}

impl Daemon {
    /// Spawns `exe` on an ephemeral loopback port over a fresh
    /// `data_dir`, and returns once the daemon has answered its first
    /// request, with the time that took.
    pub fn start(
        exe: &Path,
        args: &[String],
        data_dir: &Path,
    ) -> Result<(Daemon, Duration), String> {
        if data_dir.exists() {
            std::fs::remove_dir_all(data_dir).map_err(|e| format!("clear {data_dir:?}: {e}"))?;
        }
        let mut daemon = Daemon {
            exe: exe.to_path_buf(),
            args: args.to_vec(),
            data_dir: data_dir.to_path_buf(),
            child: None,
            addr: String::new(),
        };
        let took = daemon.launch()?;
        Ok((daemon, took))
    }

    fn launch(&mut self) -> Result<Duration, String> {
        let started = Instant::now();
        let mut child = Command::new(&self.exe)
            .args(&self.args)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(&self.data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {:?}: {e}", self.exe))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        self.child = Some(child);
        let mut banner = String::new();
        BufReader::new(stdout).read_line(&mut banner).map_err(|e| format!("banner: {e}"))?;
        self.addr = banner
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected banner {banner:?}"))?
            .to_string();
        self.client()?.call_ok(r#"{"verb":"metrics"}"#)?;
        Ok(started.elapsed())
    }

    /// A new connection to the daemon.
    pub fn client(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().ok_or("daemon not running")?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("read status of {pid}: {e}"))?;
        crate::vm_hwm_mib(&status)
    }

    /// Kills the daemon with SIGKILL, restarts it on the same data
    /// directory, and returns the time from the restart to its first
    /// reply.
    pub fn kill_and_restart(&mut self) -> Result<Duration, String> {
        self.kill();
        self.launch()
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Asks the daemon to drain and waits for it to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.client()?.call_ok(r#"{"verb":"shutdown"}"#)?;
        let mut child = self.child.take().expect("running daemon");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("stage-serve exited with {status}")),
                None if Instant::now() > deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("stage-serve did not drain within 20 s".to_string());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

/// Starts and drains a daemon `repeats` times on a fresh data directory
/// each time; returns the start-to-first-reply times in seconds.
pub fn setup_times(
    exe: &Path,
    args: &[String],
    data_dir: &Path,
    repeats: usize,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let (daemon, took) = Daemon::start(exe, args, data_dir)?;
        daemon.shutdown()?;
        times.push(took.as_secs_f64());
    }
    Ok(times)
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}
