//! Timing on a shared host. Other tenants only ever add time, in bursts
//! that last from a fraction of a second to minutes (a DRAM-latency
//! microbenchmark on this host moves by a tenth from second to second),
//! so a statistic over the whole timed section moves by a fifth or more
//! from run to run with no change in the program. Each timed section is
//! therefore cut into [`WINDOWS`] windows of equal length, every window
//! yields its own statistic, and a metric is read from the least-disturbed
//! window: the lowest median round wall, the highest rate, the lowest CPU
//! per client. Over recorded round walls of eight unchanged runs this cut
//! the run-to-run spread of the plain median by a third; no statistic
//! removes it. Whole-section medians and tails are still reported, ungated, as
//! `round.wall_*`.

use std::time::Instant;

use crate::report::Report;
use crate::sys::{median, quantile};

/// Windows per timed section: one second each at the contract's run
/// length.
pub const WINDOWS: usize = 15;

/// A section whose first and last thirds differ by more than this factor
/// in median round wall changed regime while it was being timed.
pub const REGIME_FACTOR: f64 = 2.0;

/// What one window of consecutive rounds measured.
#[derive(Debug, Default, Clone)]
pub struct Window {
    pub walls_s: Vec<f64>,
    pub reports: u64,
    /// CPU seconds (every measured process) spent during the window.
    pub cpu_s: f64,
    /// Median and 99th percentile of the latency samples (ns) handed to
    /// the window; the samples themselves are dropped when it closes.
    pub latency_p50_ns: f64,
    pub latency_p99_ns: f64,
}

impl Window {
    fn wall_s(&self) -> f64 {
        self.walls_s.iter().sum()
    }
}

/// Collects rounds into windows as they complete.
pub struct Windowed {
    window_s: f64,
    started: Instant,
    cpu_at_open: f64,
    closed: Vec<Window>,
    open: Window,
    latency_ns: Vec<f64>,
}

impl Windowed {
    /// A section of `seconds`, starting now, with `cpu_now` CPU seconds on
    /// the clock.
    pub fn new(seconds: f64, cpu_now: f64) -> Self {
        Self {
            window_s: seconds / WINDOWS as f64,
            started: Instant::now(),
            cpu_at_open: cpu_now,
            closed: Vec::new(),
            open: Window::default(),
            latency_ns: Vec::new(),
        }
    }

    /// Records one completed round. `cpu_now` is read only when the round
    /// ends a window.
    pub fn round(&mut self, wall_s: f64, reports: u64, cpu_now: impl FnOnce() -> f64) {
        self.open.walls_s.push(wall_s);
        self.open.reports += reports;
        let due = (self.closed.len() + 1) as f64 * self.window_s;
        if self.closed.len() + 1 < WINDOWS && self.started.elapsed().as_secs_f64() >= due {
            self.close(cpu_now());
        }
    }

    /// Hands latency samples (ns) to the open window.
    pub fn latencies(&mut self, samples_ns: &mut Vec<f64>) {
        self.latency_ns.append(samples_ns);
    }

    fn close(&mut self, cpu_now: f64) {
        let mut w = std::mem::take(&mut self.open);
        w.cpu_s = cpu_now - self.cpu_at_open;
        w.latency_p50_ns = median(&self.latency_ns);
        w.latency_p99_ns = quantile(&self.latency_ns, 0.99);
        self.latency_ns.clear();
        self.cpu_at_open = cpu_now;
        self.closed.push(w);
    }

    /// Closes the last window and returns them all. A trailing stub, with
    /// fewer than half the rounds of the first window, is dropped: it is
    /// not a window's worth of rounds.
    pub fn finish(mut self, cpu_now: f64) -> Vec<Window> {
        if !self.open.walls_s.is_empty() {
            self.close(cpu_now);
        }
        let full = self.closed.first().map_or(0, |w| w.walls_s.len());
        if self.closed.len() > 1
            && self
                .closed
                .last()
                .is_some_and(|w| 2 * w.walls_s.len() < full)
        {
            self.closed.pop();
        }
        self.closed
    }
}

/// Picks a statistic over the windows that sit in the section's own
/// regime: a window whose median round wall is more than [`REGIME_FACTOR`]
/// below the median over every round is a stretch of another regime (the
/// first second after a warm-up that did not quite settle), not a quiet
/// stretch of this one, and must not be read as the section's best.
fn fold(windows: &[Window], f: impl Fn(&Window) -> f64, pick: impl Fn(f64, f64) -> f64) -> f64 {
    let floor = median(&all_walls_s(windows)) / REGIME_FACTOR;
    windows
        .iter()
        .filter(|w| w.reports > 0 && median(&w.walls_s) >= floor)
        .map(f)
        .reduce(pick)
        .unwrap_or(0.0)
}

/// Lowest window median of the round wall, seconds.
pub fn best_wall_p50_s(windows: &[Window]) -> f64 {
    fold(windows, |w| median(&w.walls_s), f64::min)
}

/// Highest window rate: reports per second of round wall.
pub fn best_clients_per_s(windows: &[Window]) -> f64 {
    fold(windows, |w| w.reports as f64 / w.wall_s(), f64::max)
}

/// Lowest window CPU seconds per million reports.
pub fn best_cpu_s_per_mclient(windows: &[Window]) -> f64 {
    fold(windows, |w| w.cpu_s / (w.reports as f64 / 1e6), f64::min)
}

/// Lowest window latency median and 99th percentile, milliseconds.
pub fn best_latency_ms(windows: &[Window]) -> (f64, f64) {
    (
        fold(windows, |w| w.latency_p50_ns, f64::min) / 1e6,
        fold(windows, |w| w.latency_p99_ns, f64::min) / 1e6,
    )
}

/// Every round wall of the section, in order.
pub fn all_walls_s(windows: &[Window]) -> Vec<f64> {
    windows
        .iter()
        .flat_map(|w| w.walls_s.iter().copied())
        .collect()
}

pub fn total_reports(windows: &[Window]) -> u64 {
    windows.iter().map(|w| w.reports).sum()
}

/// Reports the ungated whole-section figures: the plain median over every
/// round, the tail, and how many rounds there were.
pub fn report_tails(report: &mut Report, windows: &[Window]) {
    let walls = all_walls_s(windows);
    report.set("round.wall_p50_all_s", median(&walls));
    report.set("round.wall_p75_s", quantile(&walls, 0.75));
    report.set(
        "round.wall_max_s",
        walls.iter().copied().fold(0.0, f64::max),
    );
    report.set("round.samples", walls.len() as f64);
}

/// Whether the section changed regime while it was timed: the median
/// round walls of its first and last thirds differ by more than
/// [`REGIME_FACTOR`]. The warm-up exists so that this never happens; a
/// section it happens to is timed again.
pub fn straddles_regimes(windows: &[Window]) -> bool {
    let walls = all_walls_s(windows);
    let third = walls.len() / 3;
    if third < 2 {
        return false;
    }
    let first = median(&walls[..third]);
    let last = median(&walls[walls.len() - third..]);
    first.max(last) > REGIME_FACTOR * first.min(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(walls: &[f64], reports: u64, cpu_s: f64) -> Window {
        Window {
            walls_s: walls.to_vec(),
            reports,
            cpu_s,
            latency_p50_ns: walls[0] * 1e9,
            latency_p99_ns: walls[0] * 2e9,
        }
    }

    #[test]
    fn metrics_come_from_the_least_disturbed_window() {
        let ws = [
            window(&[0.10, 0.12, 0.11], 300, 0.40),
            window(&[0.08, 0.08, 0.09], 300, 0.30),
            window(&[0.20, 0.25, 0.22], 300, 0.70),
        ];
        assert_eq!(best_wall_p50_s(&ws), 0.08);
        assert_eq!(best_clients_per_s(&ws), 300.0 / 0.25);
        assert_eq!(best_cpu_s_per_mclient(&ws), 0.30 / 300e-6);
        assert_eq!(best_latency_ms(&ws), (80.0, 160.0));
        assert_eq!(all_walls_s(&ws).len(), 9);
        assert_eq!(total_reports(&ws), 900);
    }

    #[test]
    fn a_window_of_another_regime_is_not_the_best() {
        let ws = [
            window(&[0.10, 0.10, 0.10], 300, 0.1),
            window(&[0.50, 0.52, 0.51], 300, 0.5),
            window(&[0.48, 0.47, 0.49], 300, 0.4),
            window(&[0.50, 0.55, 0.51], 300, 0.5),
        ];
        assert_eq!(best_wall_p50_s(&ws), 0.48);
        assert_eq!(best_cpu_s_per_mclient(&ws), 0.4 / 300e-6);
    }

    #[test]
    fn a_short_section_is_one_window_and_a_stub_tail_is_dropped() {
        let mut w = Windowed::new(1000.0, 1.0);
        for _ in 0..4 {
            w.round(0.5, 10, || {
                unreachable!("no window ends in a 1000 s section")
            });
        }
        let ws = w.finish(3.0);
        assert_eq!(ws.len(), 1);
        assert_eq!((ws[0].reports, ws[0].cpu_s), (40, 2.0));

        // Every round of a zero-length section closes a window, except in
        // the last window, which `finish` closes.
        let mut w = Windowed::new(0.0, 0.0);
        for _ in 0..WINDOWS - 1 {
            w.round(0.1, 5, || 1.0);
        }
        w.round(0.1, 5, || unreachable!("the last window closes in finish"));
        let ws = w.finish(2.5);
        assert_eq!(ws.len(), WINDOWS);
        assert!(ws.iter().all(|w| w.reports == 5));
    }

    #[test]
    fn a_trailing_stub_is_dropped() {
        let mut w = Windowed::new(0.0, 0.0);
        w.open.walls_s = vec![0.1; 4];
        w.open.reports = 20;
        w.round(0.1, 5, || 1.0);
        w.round(0.1, 5, || 2.0);
        let ws = w.finish(3.0);
        // Five rounds, then one, then nothing open: the one-round window
        // is less than half the first.
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].walls_s.len(), 5);
    }

    #[test]
    fn a_regime_change_shows_between_the_thirds() {
        let steady = [window(&[0.10, 0.12, 0.11, 0.10, 0.13, 0.12], 6, 1.0)];
        assert!(!straddles_regimes(&steady));
        let switched = [
            window(&[0.10, 0.10, 0.11], 3, 1.0),
            window(&[0.30, 0.50, 0.52], 3, 1.0),
            window(&[0.50, 0.51, 0.55], 3, 1.0),
        ];
        assert!(straddles_regimes(&switched));
        assert!(!straddles_regimes(&steady[..0]));
    }
}
