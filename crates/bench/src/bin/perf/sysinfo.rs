//! What the harness reads about its own process and environment: CPU time
//! and peak RSS from `/proc`, and the build/host facts recorded with every
//! report.

use serde_json::{json, Value};
use std::process::Command;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// CPU seconds consumed so far by the threads of this process that are
/// alive now: the sum of their on-CPU nanoseconds from
/// `/proc/self/task/*/schedstat`. Differences are exact as long as no
/// thread exits between the two reads, which holds across a block (the
/// pool, the ingress threads and the pump all outlive it). Falls back to
/// the 10 ms ticks of `/proc/self/stat`, and to 0 without `/proc`.
pub fn cpu_seconds() -> f64 {
    schedstat_ns().map(|ns| ns as f64 / 1e9).unwrap_or_else(stat_seconds)
}

fn schedstat_ns() -> Option<u64> {
    let mut total = 0u64;
    let mut seen = false;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        // A thread that exited since the listing is simply gone.
        let Ok(text) = std::fs::read_to_string(task.ok()?.path().join("schedstat")) else {
            continue;
        };
        total += text.split_whitespace().next()?.parse::<u64>().ok()?;
        seen = true;
    }
    seen.then_some(total)
}

fn stat_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the ')'.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return 0.0 };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / USER_HZ
}

/// Peak resident set of this process in MB (`VmHWM`). 0 where missing.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Host and build facts that a result depends on.
pub fn environment() -> Value {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    json!({
        "nproc": nproc,
        "pool_workers": nt_tensor::pool::num_threads(),
        "nt_threads_env": std::env::var("NT_THREADS").unwrap_or_default(),
        "rustc": command_line("rustc", &["-V"]),
        "rustflags": std::env::var("RUSTFLAGS").unwrap_or_default(),
        "git_commit": command_line("git", &["rev-parse", "HEAD"]),
        "debug_assertions": cfg!(debug_assertions),
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn proc_readers_return_plausible_values() {
        let t0 = super::cpu_seconds();
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(super::cpu_seconds() > t0, "30M multiply-adds take CPU time");
        assert!(super::stat_seconds() >= 0.0);
        assert!(super::peak_rss_mb() > 1.0, "a running test binary holds more than 1 MB");
    }
}
