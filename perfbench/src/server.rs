//! The program under test, driven as a user would: the release `usi`
//! binary builds the index and serves it as a child process.

use crate::client;
use crate::stats::Scrape;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to come up, and to shut down.
const START_TIMEOUT: Duration = Duration::from_secs(60);
const STOP_TIMEOUT: Duration = Duration::from_secs(30);

/// The repository root: this package sits one level below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("package has a parent").to_path_buf()
}

fn failed(what: impl Into<String>) -> io::Error {
    io::Error::other(what.into())
}

/// Builds the release `usi` binary from the repository's sources and
/// returns its path (Cargo's target directory honours
/// `CARGO_TARGET_DIR`, relative to the working directory).
pub fn build_usi() -> io::Result<PathBuf> {
    let root = repo_root();
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "usi", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(failed(format!("cargo build of usi failed: {status}")));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()?.join(dir),
        None => root.join("target"),
    };
    let usi = target.join("release").join("usi");
    if !usi.is_file() {
        return Err(failed(format!("no usi binary at {}", usi.display())));
    }
    Ok(usi)
}

/// `usi build TEXT --weights W --k K --threads 2 -o OUT`.
pub fn usi_build(usi: &Path, text: &Path, weights: &Path, k: usize, out: &Path) -> io::Result<()> {
    let output = Command::new(usi)
        .arg("build")
        .arg(text)
        .arg("--weights")
        .arg(weights)
        .args(["--k", &k.to_string(), "--threads", "2", "-o"])
        .arg(out)
        .stdin(Stdio::null())
        .output()?;
    if !output.status.success() {
        return Err(failed(format!(
            "usi build failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        )));
    }
    Ok(())
}

/// The exact `usi serve` arguments after the index path.
pub fn serve_flags(ingest_wal: Option<&Path>) -> Vec<String> {
    let mut flags = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
    if let Some(dir) = ingest_wal {
        flags.push("--ingest-wal".into());
        flags.push(dir.display().to_string());
    }
    flags
}

/// A running `usi serve` child. Stdin held open keeps it serving;
/// closing it shuts the server down gracefully.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stderr: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `usi serve INDEX FLAGS…` and waits until `/healthz`
    /// answers 200.
    pub fn start(usi: &Path, index: &Path, flags: &[String]) -> io::Result<Self> {
        let mut child = Command::new(usi)
            .arg("serve")
            .arg(index)
            .args(flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // reads the bound address from the startup banner, then keeps
        // draining stderr so the child never blocks on a full pipe
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split_once(" on http://").map(|(_, r)| r) {
                    if let (Some(tx), Some(addr)) = (tx.take(), rest.split_whitespace().next()) {
                        let _ = tx.send(addr.to_string());
                    }
                }
            }
        });
        let mut server = Self {
            child,
            stdin,
            stderr: Some(reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let addr = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| failed("usi serve printed no address (did it start?)"))?;
        server.addr = addr.parse().map_err(|_| failed(format!("bad serve address {addr}")))?;
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            match client::get(server.addr, "/healthz") {
                Ok(r) if r.status == 200 => return Ok(server),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                _ => return Err(failed("usi serve never answered /healthz")),
            }
        }
    }

    pub fn scrape(&self) -> io::Result<Scrape> {
        let r = client::get(self.addr, "/metrics")?;
        if r.status != 200 {
            return Err(failed(format!("/metrics answered {}", r.status)));
        }
        Ok(Scrape::parse(&String::from_utf8_lossy(&r.body)))
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| failed("no VmHWM in /proc status"))?;
        Ok(kib / 1024.0)
    }

    /// Closes stdin and waits for a graceful exit (killing the child if
    /// it overstays).
    pub fn stop(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let deadline = Instant::now() + STOP_TIMEOUT;
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break status;
            }
            if Instant::now() > deadline {
                self.child.kill()?;
                break self.child.wait()?;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(failed(format!("usi serve exited with {status}")))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.shutdown();
        }
    }
}
