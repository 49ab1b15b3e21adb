//! What the benchmark reads from outside the program: `/proc` counters
//! for CPU, memory and the listen queue, a monotonic clock, and order
//! statistics over samples.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux fixes
/// `USER_HZ` at 100 on every architecture it exports these files on.
const USER_HZ: f64 = 100.0;

/// Nanoseconds since the first call: one clock for every span and sample.
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// User and system CPU seconds a process (all threads) has consumed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl Cpu {
    pub fn total(self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// CPU of `pid` (`None` = this process) from `/proc/<pid>/stat`.
pub fn cpu_of(pid: Option<u32>) -> Cpu {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let Ok(stat) = std::fs::read_to_string(path) else {
        return Cpu::default();
    };
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (user, sys) = (ticks(), ticks());
    Cpu {
        user_s: user / USER_HZ,
        sys_s: sys / USER_HZ,
    }
}

fn status_kb(pid: Option<u32>, key: &str) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set of `pid` (`None` = this process), MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    status_kb(pid, "VmHWM:") / 1024.0
}

/// Current resident set of this process, bytes.
pub fn rss_bytes() -> f64 {
    status_kb(None, "VmRSS:") * 1024.0
}

/// `TcpExt ListenOverflows`: connections the kernel dropped because a
/// listen queue was full. Host-wide, so only deltas mean anything.
pub fn listen_overflows() -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/net/netstat") else {
        return 0;
    };
    let mut lines = text.lines().filter(|l| l.starts_with("TcpExt:"));
    let (Some(names), Some(values)) = (lines.next(), lines.next()) else {
        return 0;
    };
    names
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(name, _)| *name == "ListenOverflows")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `setup_s` from two groups of repeated set-ups, one before the run and
/// one after it: the lower of the two group medians. The host's CPU runs
/// in a fast and a roughly 40 % slower mode for tens of seconds at a time;
/// two groups a run apart see the fast one more often than one group does.
pub fn setup_s(before: &[f64], after: &[f64]) -> f64 {
    median(before).min(median(after))
}

/// Times `f` and returns its result with the elapsed nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn own_cpu_and_rss_are_readable() {
        assert!(peak_rss_mb(None) > 0.0);
        let before = cpu_of(None);
        let mut x = 0u64;
        while cpu_of(None).since(before).total() < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
    }
}
