//! Host and process readings from `/proc`: peak RSS, process CPU time
//! and load average — the contention record kept beside every run.

use std::fs;

/// The process's peak resident set (`VmHWM`), in MiB; 0 if unreadable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds this process has used so far, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s).
#[must_use]
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after its ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime/stime are at 11/12.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// The 1-minute load average; 0 if unreadable.
#[must_use]
pub fn load_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

/// Host-wide CPU time so far, in clock ticks: `(total, steal)` from the
/// first line of `/proc/stat`. Steal is time the hypervisor ran
/// something else while this machine's CPUs wanted to run; `(0, 0)` if
/// unreadable.
#[must_use]
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings.
#[must_use]
pub fn steal_frac(start: (u64, u64), end: (u64, u64)) -> f64 {
    let total = end.0.saturating_sub(start.0);
    if total == 0 {
        return 0.0;
    }
    end.1.saturating_sub(start.1) as f64 / total as f64
}

/// Hardware threads available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_plausible() {
        assert!(peak_rss_mb() > 0.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() >= 0.0);
        assert!(load_1m() >= 0.0);
        let t = cpu_ticks();
        assert!(t.0 >= t.1);
        assert_eq!(steal_frac((10, 1), (110, 6)), 0.05);
        assert_eq!(steal_frac(t, t), 0.0);
        assert!(nproc() >= 1);
    }
}
