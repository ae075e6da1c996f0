//! `sls-serve` child processes: start a server or router on an ephemeral
//! port and wait until it answers `/healthz`, run a one-shot subcommand
//! while sampling its peak memory, and stop every child on every exit path.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to announce its address and turn healthy.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A long-running `sls-serve serve` or `route` process. Dropping it kills
/// the process and waits for it.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `bin args... --addr 127.0.0.1:0`, reads the bound address
    /// from the line starting with `announce` on its stderr, then polls
    /// `/healthz` until it answers 200.
    pub fn start(bin: &Path, args: &[&str], announce: &'static str) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Keeps draining stderr after the announcement so the child can
        // never block on a full pipe.
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                let addr = line
                    .strip_prefix(announce)
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|addr| addr.parse::<SocketAddr>().ok());
                if let Some(addr) = addr {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr);
                    }
                }
            }
        });
        let mut server = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        server.addr = rx.recv_timeout(START_TIMEOUT).map_err(|_| {
            format!(
                "`{} {}` never announced its address",
                bin.display(),
                args[0]
            )
        })?;
        server.wait_healthy()?;
        Ok(server)
    }

    fn wait_healthy(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if matches!(crate::load::get(self.addr, "/v1/healthz"), Ok((200, _))) {
                return Ok(());
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("server on {} exited with {status}", self.addr));
            }
            if Instant::now() > deadline {
                return Err(format!("server on {} never turned healthy", self.addr));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set size so far (`VmHWM`), in kB.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        vm_hwm_kb(self.child.id())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// A finished one-shot subcommand.
pub struct Finished {
    pub status: ExitStatus,
    pub stderr: String,
    /// Wall-clock from spawn to exit.
    pub elapsed: Duration,
    /// Largest `VmHWM` sampled while it ran, in kB.
    pub peak_rss_kb: u64,
}

/// Runs `bin args...` to completion, sampling its peak memory from a side
/// thread so the wall-clock measured here stays exact.
pub fn run(bin: &Path, args: &[&str]) -> Result<Finished, String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting {}: {e}", bin.display()))?;
    let pid = child.id();
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let done = AtomicBool::new(false);
    let (status, text, peak) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut text = String::new();
            let _ = std::io::Read::read_to_string(&mut stderr, &mut text);
            text
        });
        let sampler = scope.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::SeqCst) {
                peak = peak.max(vm_hwm_kb(pid).unwrap_or(0));
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });
        let status = child.wait();
        let elapsed = start.elapsed();
        done.store(true, Ordering::SeqCst);
        let peak = sampler.join().expect("sampler thread panicked");
        let text = reader.join().expect("stderr thread panicked");
        (status.map(|s| (s, elapsed)), text, peak)
    });
    let (status, elapsed) = status.map_err(|e| format!("waiting for {}: {e}", bin.display()))?;
    Ok(Finished {
        status,
        stderr: text,
        elapsed,
        peak_rss_kb: peak,
    })
}

/// `VmHWM` of a live process, in kB.
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
