//! Host metadata and process memory, read from `/proc` and the toolchain.

use std::process::Command;

/// Peak resident set size of this process so far, MiB (`VmHWM`).
/// `None` where `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then_some(())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// What the committed numbers were measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores available.
    pub nproc: usize,
    /// CPU model name.
    pub cpu_model: String,
    /// Frequency governor, if the host exposes one.
    pub governor: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, when run from a git checkout.
    pub git_commit: String,
}

impl Host {
    /// Reads the metadata, substituting `unknown` for anything unreadable.
    pub fn read() -> Host {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let governor =
            std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .map_or_else(|_| unknown(), |s| s.trim().to_string());
        Host {
            nproc: nproc(),
            cpu_model,
            governor,
            rustc: first_line("rustc", &["--version"]).unwrap_or_else(unknown),
            git_commit: first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        }
    }
}
