//! What the machine is: core count, CPU model, cache sizes, peak memory.

use std::fs;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cache sizes of cpu0 in KiB, level by level as sysfs lists them (L1d, L1i,
/// L2, L3 on x86).
pub fn cache_sizes_kib() -> Vec<u64> {
    (0..8)
        .map_while(|i| {
            fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size")).ok()
        })
        .filter_map(|s| s.trim().trim_end_matches('K').parse().ok())
        .collect()
}

/// The last-level cache in MiB, as reported (a VM may report the host's).
pub fn llc_mib() -> Option<f64> {
    cache_sizes_kib().last().map(|&k| k as f64 / 1024.0)
}

pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `git rev-parse HEAD` of the enclosing repository, or "unknown" in a
/// checkout that is not one.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
