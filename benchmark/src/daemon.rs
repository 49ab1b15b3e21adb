//! The real release `fednumd`, spawned as a child process — what a
//! deployment runs — so its CPU and memory are read from `/proc/<pid>`
//! from outside. The guard kills the child and removes its scratch
//! directory on drop, so neither leaks when the benchmark panics.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use crate::sys::{self, Cpu};
use crate::OUT_DIR;

/// How long the daemon may take to print its listening line or to exit.
const PATIENCE: Duration = Duration::from_secs(20);

pub struct Daemon {
    child: Child,
    /// Held open: the daemon treats EOF on stdin as the stop signal.
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
    /// Scratch directory holding the log and any `--state-dir`.
    dir: PathBuf,
}

/// What a stopped daemon left behind.
pub struct Exit {
    pub code: Option<i32>,
    /// Everything the daemon printed.
    pub log: String,
}

impl Exit {
    /// The number before `label` on the daemon's summary lines, e.g.
    /// `count("protocol error(s)")`.
    pub fn count(&self, label: &str) -> Option<u64> {
        self.log.lines().rev().find_map(|line| {
            let at = line.find(label)?;
            line[..at].split_whitespace().last()?.parse().ok()
        })
    }
}

/// Where the release `fednumd` is: `$FEDNUMD` (set by `run.sh`), else
/// beside this executable, else the repository's own target directory.
fn fednumd_path() -> Result<PathBuf, String> {
    let mut candidates = Vec::new();
    if let Some(p) = std::env::var_os("FEDNUMD") {
        candidates.push(PathBuf::from(p));
    }
    if let Some(dir) = std::env::current_exe()
        .ok()
        .as_deref()
        .and_then(Path::parent)
    {
        candidates.push(dir.join("fednumd"));
    }
    candidates.push(PathBuf::from("target/release/fednumd"));
    candidates
        .iter()
        .find(|p| p.is_file())
        .cloned()
        .ok_or_else(|| format!("no fednumd binary among {candidates:?}; run benchmark/run.sh"))
}

impl Daemon {
    /// Spawns `fednumd --addr 127.0.0.1:0 <args>` and waits for its
    /// listening line. `{state}` in an argument becomes a fresh directory
    /// inside the scratch directory.
    pub fn spawn(args: &[&str]) -> Result<Self, String> {
        static SERIAL: AtomicU32 = AtomicU32::new(0);
        let dir = PathBuf::from(OUT_DIR).join(format!(
            "tmp-{}-{}",
            std::process::id(),
            SERIAL.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log_path = dir.join("fednumd.log");
        let log = std::fs::File::create(&log_path).map_err(|e| e.to_string())?;
        let state = dir.join("state");
        let args: Vec<String> = args
            .iter()
            .map(|a| a.replace("{state}", &state.to_string_lossy()))
            .collect();
        // Output goes to a file, not a pipe: a fleet run prints one line
        // per round at exit, more than a pipe holds unread.
        let mut child = Command::new(fednumd_path()?)
            .args(["--addr", "127.0.0.1:0"])
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(log.try_clone().map_err(|e| e.to_string())?)
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn fednumd: {e}"))?;
        let stdin = child.stdin.take();
        let mut daemon = Self {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            dir,
        };
        let deadline = Instant::now() + PATIENCE;
        loop {
            let text = std::fs::read_to_string(&log_path).unwrap_or_default();
            let addr = text
                .lines()
                .find_map(|l| l.strip_prefix("fednumd listening on "))
                .and_then(|a| a.trim().parse().ok());
            if let Some(addr) = addr {
                daemon.addr = addr;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("fednumd exited at start-up ({status}): {text}"));
            }
            if Instant::now() > deadline {
                return Err(format!("fednumd never listened: {text}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn cpu(&self) -> Cpu {
        sys::cpu_of(Some(self.pid()))
    }

    pub fn peak_rss_mb(&self) -> f64 {
        sys::peak_rss_mb(Some(self.pid()))
    }

    /// Closes the daemon's stdin — its graceful stop signal — and waits
    /// for it to exit. The scratch directory is removed.
    pub fn stop(mut self) -> Result<Exit, String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + PATIENCE;
        let code = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.code(),
                Ok(None) if Instant::now() > deadline => {
                    return Err("fednumd did not exit after its stdin closed".to_string());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("wait for fednumd: {e}")),
            }
        };
        let log = std::fs::read_to_string(self.dir.join("fednumd.log")).unwrap_or_default();
        Ok(Exit { code, log })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After `stop` the child is already reaped and both calls are
        // no-ops; on a panic or an early return they end it.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
