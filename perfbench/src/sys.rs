//! What the benchmark reads about its own process from `/proc`: CPU time
//! per process and per named thread, peak memory, and the host facts
//! recorded with every result.

use std::collections::BTreeMap;
use std::path::Path;

/// `/proc/.../stat` reports CPU time in USER_HZ ticks, fixed at 100 on Linux.
const TICKS_PER_S: f64 = 100.0;

/// utime + stime, in seconds, from the text of a `/proc/.../stat` file.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// A thread's CPU time in seconds: nanoseconds from `schedstat` where the
/// kernel provides it, whole ticks from `stat` otherwise.
fn task_cpu_s(dir: &Path) -> Option<f64> {
    let precise = std::fs::read_to_string(dir.join("schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map(|ns| ns as f64 / 1e9);
    precise.or_else(|| stat_cpu_s(&std::fs::read_to_string(dir.join("stat")).ok()?))
}

/// CPU seconds of every live thread, keyed by thread id, with its name.
pub type ThreadCpu = BTreeMap<u32, (String, f64)>;

/// Snapshots every live thread's name and CPU time.
pub fn threads() -> ThreadCpu {
    let mut out = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let dir = task.path();
        let name = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if let Some(cpu) = task_cpu_s(&dir) {
            out.insert(tid, (name.trim().to_string(), cpu));
        }
    }
    out
}

/// CPU seconds spent between two snapshots by threads whose name
/// satisfies `select` (threads born inside the window count from zero).
/// The workloads keep every working thread alive until the closing
/// snapshot, so no thread's work escapes the sum.
pub fn thread_cpu_delta(start: &ThreadCpu, end: &ThreadCpu, select: impl Fn(&str) -> bool) -> f64 {
    end.iter()
        .filter(|(_, (name, _))| select(name))
        .map(|(tid, (_, cpu))| cpu - start.get(tid).map_or(0.0, |(_, c)| *c))
        .sum()
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of the process so far (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of the process (VmRSS), in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// The CPU model named in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `path` (from `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            // `id parent dev root mountpoint opts [optional...] - fstype source opts`
            let mount_point = line.split(' ').nth(4)?;
            let fs = line.split(" - ").nth(1)?.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The commit of the source tree, when it is a git checkout.
pub fn commit() -> String {
    if !Path::new(".git").exists() {
        return "none (source tree without git metadata)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_skips_names_with_spaces() {
        let stat = "42 (a b) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0";
        assert_eq!(stat_cpu_s(stat), Some(3.0));
    }
}
