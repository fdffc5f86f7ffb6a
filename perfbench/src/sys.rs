//! Host plumbing: the `repro` processes the served and remote tiers run
//! in, peak memory, and provenance.

use crate::json::Json;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// A spawned `repro` process, killed and reaped on drop.
pub struct Proc {
    child: Child,
    /// Kept open so the process never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Addresses it announced, in announcement order.
    pub addrs: Vec<String>,
}

impl Proc {
    /// Spawn `cmd` and wait for it to announce `announce.len()` addresses,
    /// the i-th on a stdout line starting `announce[i] `.
    pub fn spawn(mut cmd: Command, announce: &[&str]) -> Result<Proc, String> {
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {cmd:?}: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addrs = Vec::new();
        for tag in announce {
            let mut line = String::new();
            let read = stdout.read_line(&mut line);
            match line.trim().strip_prefix(tag).map(str::trim) {
                Some(addr) if read.is_ok() => addrs.push(addr.to_string()),
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("{cmd:?}: expected `{tag} <addr>`, got {line:?}"));
                }
            }
        }
        Ok(Proc {
            child,
            _stdout: stdout,
            addrs,
        })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `n` loopback TCP worker peers (`repro --worker --listen 127.0.0.1:0`).
///
/// Peers run at nice 10, as batch workers sharing a host with an
/// interactive front end would: on a 2-vCPU host two computing peers
/// otherwise hold both CPUs, and the daemon's answers to cache hits wait
/// in the scheduler for whole time slices, a delay of the host rather
/// than of any layer measured here.
pub fn spawn_peers(repro: &Path, n: usize) -> Result<Vec<Proc>, String> {
    (0..n)
        .map(|_| {
            let mut cmd = Command::new("nice");
            cmd.args(["-n", "10"])
                .arg(repro)
                .args(["--worker", "--listen", "127.0.0.1:0"]);
            Proc::spawn(cmd, &["listening"])
        })
        .collect()
}

/// `VmHWM` of a `/proc/<pid>/status` file in MiB (0 if unreadable, e.g.
/// the process already exited).
fn peak_rss_mb_of(status: &str) -> f64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Largest peak RSS (MiB) of this process and its live child processes
/// (worker subprocesses the fleet pool spawned included).
pub fn peak_rss_mb_tree() -> f64 {
    let me = std::process::id();
    let mut peak = peak_rss_mb_of("/proc/self/status");
    let children =
        std::fs::read_to_string(format!("/proc/{me}/task/{me}/children")).unwrap_or_default();
    // Threads other than the main one may have spawned children too.
    let mut pids: Vec<String> = children.split_whitespace().map(str::to_string).collect();
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{me}/task")) {
        for t in tasks.flatten() {
            if let Ok(c) = std::fs::read_to_string(t.path().join("children")) {
                pids.extend(c.split_whitespace().map(str::to_string));
            }
        }
    }
    for pid in pids {
        peak = peak.max(peak_rss_mb_of(&format!("/proc/{pid}/status")));
    }
    peak
}

/// A scratch directory under the benchmark's output directory, removed
/// on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Create `<out>/tmp-<pid>-<tag>`, emptying any leftover.
    pub fn new(out: &Path, tag: &str) -> TempDir {
        let dir = out.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under the output dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and how this result was measured.
pub fn provenance() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let (rev, dirty) = match command_line("git", &["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty = command_line("git", &["status", "--porcelain", "--untracked-files=no"])
                .map(|s| Json::Bool(!s.is_empty()))
                .unwrap_or(Json::Null);
            (Json::str(rev), dirty)
        }
        None => (Json::str("unknown (not a git checkout)"), Json::Null),
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::obj([
        ("cpu", Json::str(cpu)),
        ("nproc", Json::Int(nproc as u64)),
        ("rustc", Json::str(rustc)),
        ("git_rev", rev),
        ("git_dirty", dirty),
        ("date_utc", Json::str(utc_now())),
        ("profile", Json::str(profile)),
    ])
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (H. Hinnant's algorithm), days since 1970-01-01.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// Sleep until `deadline` (return at once if it has passed).
pub fn sleep_until(deadline: std::time::Instant) {
    let now = std::time::Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}
