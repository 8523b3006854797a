//! Readings of the process and the machine, from `/proc`.

use std::fs;

/// `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`. Linux
/// fixes it at 100 for user space on every architecture.
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of this process so far, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 here.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// What identifies the machine and the commit a result came from, so a
/// comparison across machines or commits is recognisable as one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub commit: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
}

impl Fingerprint {
    pub fn read(commit: &str) -> Self {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string());
        Fingerprint {
            commit: commit.to_string(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
        }
    }
}
