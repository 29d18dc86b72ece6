//! Building, starting and stopping the real `hdsd-serve` binary.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::Conn;

/// The repository root: the benchmark package sits one level below it.
pub fn repo_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().expect("the benchmark package lives inside the repository").to_path_buf()
}

/// Builds the release `hdsd-serve` from the repository's own workspace
/// (its release profile, its lock file) and returns the executable path.
/// `CARGO_TARGET_DIR` is honoured, relative to the working directory.
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(&cargo)
        .args(["build", "--release", "--offline", "-p", "hdsd-service", "--bin", "hdsd-serve"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run {cargo}: {e}"))?;
    if !status.success() {
        return Err(format!("building hdsd-serve failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir().map_err(|e| e.to_string())?.join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("hdsd-serve");
    if !bin.is_file() {
        return Err(format!("built hdsd-serve not found at {}", bin.display()));
    }
    Ok(bin)
}

/// A free loopback port: bind port 0, note the port, release it.
fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind probe port: {e}"))?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.port())
}

/// A running server. Dropping it kills the process and waits for it.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    /// The full command line, as recorded with every result.
    pub command: Vec<String>,
    log: PathBuf,
}

impl ServerProc {
    /// Starts `bin` with `args` plus `--listen 127.0.0.1:<free port>`;
    /// stderr goes to `log`.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<ServerProc, String> {
        let port = free_port()?;
        let mut full: Vec<String> = args.to_vec();
        full.extend(["--listen".to_string(), format!("127.0.0.1:{port}")]);
        let stderr = std::fs::File::create(log).map_err(|e| format!("create server log: {e}"))?;
        let child = Command::new(bin)
            .args(&full)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut command = vec![bin.display().to_string()];
        command.extend(full);
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        Ok(ServerProc { child, addr, command, log: log.to_path_buf() })
    }

    /// Connects once the server listens (it binds after building its
    /// engine), retrying every millisecond until `timeout`.
    pub fn connect(&mut self, timeout: Duration) -> Result<Conn, String> {
        let deadline = Instant::now() + timeout;
        loop {
            match Conn::connect(self.addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("server exited ({status}): {}", self.log_tail()));
                    }
                    if Instant::now() >= deadline {
                        return Err(format!("server not listening after {timeout:?}: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// The server's peak resident set (VmHWM) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(kb / 1024.0)
    }

    /// Sends `shutdown` on `conn` and waits for the process to exit.
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        conn.request(r#"{"op":"shutdown"}"#)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("server exited with {status}")),
                None if Instant::now() >= deadline => return Err("server did not exit".into()),
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    fn log_tail(&self) -> String {
        let log = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = log.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
