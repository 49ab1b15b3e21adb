//! Host calibration probes. They share no code with the program, so a
//! shift in them explains a shift in a socket metric that the code did not
//! cause. Loopback round-trip time on this class of VM has two regimes,
//! near 7 us while two communicating threads share a core and near 50 us
//! once the scheduler has spread them (a few seconds of sustained traffic
//! does that); the socket workloads take the ping-pong probe right before
//! and right after their timed section and report both.
//!
//! The probes are reported, not enforced: the probe's own two threads are
//! placed independently of the workload's, and on an unchanged host it
//! read 7 and 40 us at random (6 of 13 sections "disagreed"). What is
//! enforced is the workload's own evidence, `window::straddles_regimes`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::report::Report;
use crate::sys::median;
use crate::window::{straddles_regimes, Window};

/// Sustained socket traffic takes a few seconds to move loopback into its
/// slow regime; a warm-up this long puts every timed round there.
pub const FULL_WARMUP_S: f64 = 5.0;

/// Seconds of real rounds a socket workload runs before it times any.
pub fn warmup_s(run_seconds: f64) -> f64 {
    (run_seconds / 2.0).min(FULL_WARMUP_S)
}

/// Records that a timed section changed regime even when it was timed a
/// second time. After a full warm-up that makes the run
/// incorrect; after the shortened warm-up of a `--quick` run the regime was
/// never settled, so it is only a warning.
pub fn regime_violation(report: &mut Report, warmup_s: f64, message: String) {
    if warmup_s >= FULL_WARMUP_S {
        report.violations.push(message);
    } else {
        eprintln!(
            "{}: warning: {message} (warm-up of {warmup_s} s)",
            report.workload
        );
    }
}

/// The two ping-pong probes around a timed section, and how often the
/// section was timed again.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    pub rtt_before_us: f64,
    pub rtt_after_us: f64,
    pub reruns: u64,
}

impl Probes {
    /// Folds in the probes of the section timed just before this one, so
    /// the pair reads as one bracket.
    pub fn after(&mut self, earlier: &Probes) {
        self.rtt_before_us = earlier.rtt_before_us;
        self.reruns += earlier.reruns;
    }

    pub fn report(&self, report: &mut Report) {
        report.set("host.pingpong_rtt_us_before", self.rtt_before_us);
        report.set("host.pingpong_rtt_us_after", self.rtt_after_us);
        report.set("host.regime_reruns", self.reruns as f64);
    }
}

/// Times a section between the two probes. When the section's own round
/// walls show that the regime changed under it, it is timed once more.
pub fn probed<T>(
    workload: &str,
    windows: impl Fn(&T) -> &[Window],
    mut time: impl FnMut() -> Result<T, String>,
) -> Result<(T, Probes), String> {
    let mut reruns = 0;
    loop {
        let rtt_before_us = pingpong_rtt_us(400).map_err(|e| e.to_string())?;
        let section = time()?;
        let rtt_after_us = pingpong_rtt_us(400).map_err(|e| e.to_string())?;
        if !straddles_regimes(windows(&section)) || reruns == 1 {
            let probes = Probes {
                rtt_before_us,
                rtt_after_us,
                reruns,
            };
            return Ok((section, probes));
        }
        eprintln!(
            "{workload}: round walls changed regime across the timed section; timing it once more"
        );
        reruns += 1;
    }
}

/// Median round-trip time, microseconds, of `rounds` one-byte exchanges
/// with an echo thread over loopback TCP.
pub fn pingpong_rtt_us(rounds: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let mut byte = [0u8; 1];
        while peer.read(&mut byte)? == 1 {
            peer.write_all(&byte)?;
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut byte = [7u8; 1];
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        stream.write_all(&byte)?;
        stream.read_exact(&mut byte)?;
        samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(stream);
    echo.join().expect("echo thread does not panic")?;
    Ok(median(&samples))
}

/// Median microseconds for one loopback `connect` + `accept`, one at a
/// time.
pub fn connect_us(rounds: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        let client = TcpStream::connect(addr)?;
        let (server, _) = listener.accept()?;
        samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
        drop((client, server));
    }
    Ok(median(&samples))
}

/// What an unpaced burst of connections cost.
pub struct Burst {
    /// Dials that took longer than a tenth of a second: a dropped SYN
    /// costs a one-second retransmit.
    pub stalls: u64,
    pub wall_s: f64,
}

/// Dials `count` connections to `addr` back to back, never waiting for
/// the listener to accept, then closes them. This is the dial
/// `ClientPool::join` performs; `BENCH_fleet`'s 17 s connect is its stalls.
pub fn burst_dial(addr: SocketAddr, count: usize) -> std::io::Result<Burst> {
    let started = Instant::now();
    let mut held = Vec::with_capacity(count);
    let mut stalls = 0;
    for _ in 0..count {
        let t0 = Instant::now();
        held.push(TcpStream::connect(addr)?);
        if t0.elapsed() > Duration::from_millis(100) {
            stalls += 1;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    drop(held);
    Ok(Burst { stalls, wall_s })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_measure_loopback() {
        assert!(pingpong_rtt_us(50).unwrap() > 0.0);
        assert!(connect_us(10).unwrap() > 0.0);
    }
}
