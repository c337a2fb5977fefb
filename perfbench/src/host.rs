//! Host facts: core count, CPU model, resident-set peaks, and the
//! drift probe.

use std::hint::black_box;
use std::time::Instant;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo` (`"unknown"` elsewhere).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set (`VmHWM`) of `pid` in KiB; 0 when unreadable.
pub fn vm_hwm_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Live child processes of this process (every thread's children).
pub fn child_pids() -> Vec<u32> {
    let mut pids = Vec::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return pids;
    };
    for task in tasks.flatten() {
        if let Ok(s) = std::fs::read_to_string(task.path().join("children")) {
            pids.extend(s.split_whitespace().filter_map(|p| p.parse::<u32>().ok()));
        }
    }
    pids.sort_unstable();
    pids.dedup();
    pids
}

/// Times a fixed single-threaded reference loop (xorshift scatter into a
/// 16 MiB table), in ms. The table outgrows the per-core L2 cache, so
/// the loop waits on the shared cache and memory the way the sparse
/// kernels do, and slows when a neighbour contends for them. Taken
/// before and after every run so a run that fell in a slow host window
/// can be seen; never used to rescale another metric.
pub fn calib_ms() -> f64 {
    let mut table = vec![1u64; 1 << 21];
    let mask = table.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let start = Instant::now();
    for _ in 0..1_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        table[i] = table[i].wrapping_add(x);
    }
    black_box(&table);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(vm_hwm_kb(std::process::id()) > 0);
        assert!(nproc() >= 1);
        assert!(calib_ms() > 0.0);
    }
}
