//! The three in-process workloads: `sync_front_door`, `mem_planes` and
//! `mem_secagg`. Each is a closed loop of `RoundBuilder` rounds over one
//! dataset drawn from the seed; they differ only in the builder shape.

use std::time::Instant;

use fednum::fedsim::round::SecAggSettings;
use fednum::fedsim::{Direction, FedError};
use fednum::transport::InMemoryTransport;
use fednum::workloads::Dataset;
use fednum::{RoundBuilder, RoundOutcome};

use crate::check::{binomial_band, Checker, RoundResult};
use crate::layers;
use crate::proto::{self, BITS, CHUNK, DROPOUT};
use crate::report::Report;
use crate::sys::{self, median};
use crate::trace::Tracer;
use crate::window::{self, Window, Windowed};
use crate::Args;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    SyncFrontDoor,
    MemPlanes,
    MemSecagg,
}

impl Shape {
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "sync_front_door" => Some(Self::SyncFrontDoor),
            "mem_planes" => Some(Self::MemPlanes),
            "mem_secagg" => Some(Self::MemSecagg),
            _ => None,
        }
    }

    fn clients(self) -> usize {
        match self {
            Self::SyncFrontDoor | Self::MemPlanes => 1_000_000,
            Self::MemSecagg => 50_000,
        }
    }

    fn secagg(self) -> Option<SecAggSettings> {
        (self == Self::MemSecagg).then(SecAggSettings::default)
    }

    /// One round through the shape's front door.
    fn run(self, values: &[f64], round_seed: u64) -> Result<RoundOutcome, FedError> {
        let builder = RoundBuilder::new(proto::config(round_seed)).seed(round_seed);
        match self {
            Self::SyncFrontDoor => builder.run(values),
            Self::MemPlanes => {
                let mut transport = InMemoryTransport::new(round_seed);
                builder.via(&mut transport).batched(CHUNK).run(values)
            }
            Self::MemSecagg => {
                let mut transport = InMemoryTransport::new(round_seed);
                builder
                    .secure(SecAggSettings::default())
                    .via(&mut transport)
                    .batched(CHUNK)
                    .run(values)
            }
        }
    }
}

/// What a stretch of rounds measured.
#[derive(Default)]
struct Stretch {
    windows: Vec<Window>,
    uplink_bytes: u64,
    downlink_bytes: u64,
    waves_used: u32,
    dropouts_recovered: u64,
}

/// The closed loop: one dataset, rounds numbered from 0, every round
/// scored.
struct Loop<'a> {
    shape: Shape,
    values: &'a [f64],
    truth: f64,
    seed: u64,
    next_round: u64,
    checker: Checker,
}

impl Loop<'_> {
    /// Runs rounds until `seconds` have passed, and at least `min_rounds`.
    fn run(&mut self, seconds: f64, min_rounds: u64, tracer: &mut Tracer) -> Stretch {
        let expected_reports = binomial_band(self.values.len(), 1.0 - DROPOUT);
        let cpu_now = || sys::cpu_of(None).total();
        let mut windows = Windowed::new(seconds, cpu_now());
        let mut stretch = Stretch::default();
        let started = Instant::now();
        let first = self.next_round;
        while self.next_round - first < min_rounds || started.elapsed().as_secs_f64() < seconds {
            let k = self.next_round;
            self.next_round += 1;
            let round_seed = proto::round_seed(self.seed, k);
            let round = tracer.begin("round", None, k);
            let run = tracer.begin("run", tracer.parent(round), k);
            let t0 = Instant::now();
            let result = self.shape.run(self.values, round_seed);
            let wall = t0.elapsed().as_secs_f64();
            tracer.end(run);
            tracer.end(round);
            let out = match result {
                Ok(out) => out,
                Err(e) => {
                    self.checker.op_failed(format!("round {k}: {e}"));
                    continue;
                }
            };
            let flat = out.flat().expect("flat round");
            self.checker.round(
                k,
                RoundResult {
                    estimate: out.estimate(),
                    predicted_std: flat.outcome.predicted_std,
                    truth: self.truth,
                    reports: flat.reports,
                    expected_reports,
                },
            );
            let traffic = &flat.robustness.traffic;
            stretch.uplink_bytes += traffic.direction_total(Direction::Uplink).bytes;
            stretch.downlink_bytes += traffic.direction_total(Direction::Downlink).bytes;
            stretch.waves_used = stretch.waves_used.max(flat.waves_used);
            if let Some(s) = flat.secagg {
                stretch.dropouts_recovered += s.recovered_pairwise as u64;
            }
            windows.round(wall, flat.reports, cpu_now);
        }
        stretch.windows = windows.finish(cpu_now());
        stretch
    }
}

/// Set-up is the dataset draw; repeated so its median is reportable, and
/// more often when one draw takes only milliseconds. Returns the last
/// dataset and the seconds each draw took.
fn draw_group(n: usize, seed: u64) -> (Dataset, Vec<f64>) {
    let mut setup_s = Vec::new();
    loop {
        let t0 = Instant::now();
        let dataset = proto::draw(n, seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() >= 5 && (setup_s.iter().sum::<f64>() >= 0.25 || setup_s.len() >= 50) {
            return (dataset, setup_s);
        }
    }
}

/// The untraced run: end-to-end metrics only.
pub fn run_end_to_end(shape: Shape, args: &Args, report: &mut Report) {
    let n = shape.clients();
    let (dataset, setup_before) = draw_group(n, args.seed);
    let mut lp = Loop {
        shape,
        values: dataset.values(),
        truth: proto::truth(dataset.values()),
        seed: args.seed,
        next_round: 0,
        checker: Checker::new(),
    };
    let mut tracer = Tracer::new(false);
    // Warm-up rounds fill the allocator and caches; scored, not timed.
    lp.run(0.0, 2, &mut tracer);
    let timed = lp.run(args.seconds, 5, &mut tracer);
    lp.checker.finish(report);
    let (_, setup_after) = draw_group(n, args.seed);

    let p50 = window::best_wall_p50_s(&timed.windows);
    report.set("setup_s", sys::setup_s(&setup_before, &setup_after));
    report.set("round_wall_p50_s", p50);
    report.set("clients_per_s", window::best_clients_per_s(&timed.windows));
    report.set(
        "cpu_s_per_mclient",
        window::best_cpu_s_per_mclient(&timed.windows),
    );
    report.set("peak_rss_mb", sys::peak_rss_mb(None));
    let (up, down) = bytes_per_client(shape, &timed);
    report.set("uplink_bytes_per_client", up);
    report.set("downlink_bytes_per_client", down);
    // No per-report acknowledgement exists on a round-at-a-time path: a
    // report is acknowledged when its round returns.
    report.set("report_ack_p50_ms", p50 * 1e3);
}

/// Bytes per aggregated report. The transport engine meters its frames;
/// the sync engine has no wire, so it reports the paper's count: `b_send`
/// payload bits up, one bit-index assignment down.
fn bytes_per_client(shape: Shape, stretch: &Stretch) -> (f64, f64) {
    if shape == Shape::SyncFrontDoor {
        let cfg = proto::config(0);
        let index_bits = f64::from(BITS).log2().ceil();
        return (f64::from(cfg.protocol.b_send) / 8.0, index_bits / 8.0);
    }
    let reports = window::total_reports(&stretch.windows).max(1) as f64;
    (
        stretch.uplink_bytes as f64 / reports,
        stretch.downlink_bytes as f64 / reports,
    )
}

/// The traced run: spans around every call the benchmark makes, the
/// decomposed round beside them, and the layer probes.
pub fn run_traced(shape: Shape, args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let n = shape.clients();
    let t0 = Instant::now();
    let dataset = proto::draw(n, args.seed);
    report.set(
        "workloads.draw_ns_per_value",
        t0.elapsed().as_nanos() as f64 / n as f64,
    );
    let values = dataset.values();
    let mut lp = Loop {
        shape,
        values,
        truth: proto::truth(values),
        seed: args.seed,
        next_round: 0,
        checker: Checker::new(),
    };
    tracer.set_enabled(false);

    // The first round of the process: what the round adds to the resident
    // set on top of the dataset is its own working memory.
    let rss_before = sys::rss_bytes();
    lp.run(0.0, 1, tracer);
    let round_rss = (sys::peak_rss_mb(None) * 1024.0 * 1024.0 - rss_before).max(0.0);
    lp.run(0.0, 1, tracer);

    // Untraced then traced, a quarter of the run each: the difference of
    // their medians is what tracing costs.
    let quarter = args.seconds / 4.0;
    let plain = lp.run(quarter, 3, tracer);
    tracer.set_enabled(true);
    let traced = lp.run(quarter, 3, tracer);
    let p50 = window::best_wall_p50_s(&traced.windows);
    let walls = window::all_walls_s(&traced.windows);
    report.set(
        "trace.overhead_frac",
        p50 / window::best_wall_p50_s(&plain.windows) - 1.0,
    );
    report.set(
        "trace.round_cover_frac",
        median(&tracer.child_cover("round")),
    );
    window::report_tails(report, &traced.windows);
    report.set(
        "transport.coordinator.waves_used",
        f64::from(traced.waves_used),
    );
    let engine_ns_per_client = p50 * 1e9 / n as f64;

    // The decomposed round: the same round by hand, three times, the
    // first with spans. Its estimate must equal the engine's.
    let mut steps: Vec<layers::Decomposed> = Vec::new();
    let mut identical = 0u64;
    for i in 0..3u64 {
        let round_seed = proto::round_seed(args.seed, 1_000_000 + i);
        let cfg = proto::config(round_seed);
        tracer.set_enabled(i == 0);
        let dec = layers::decomposed_round(
            &cfg,
            values,
            round_seed,
            CHUNK,
            shape.secagg(),
            tracer,
            1_000_000 + i,
        );
        // Checked against the batched engine: the sync door publishes the
        // same estimate per seed, but only the batched engine performs
        // these steps.
        let engine = match shape {
            Shape::SyncFrontDoor => Shape::MemPlanes,
            other => other,
        };
        match engine.run(values, round_seed) {
            Ok(out) if out.estimate().to_bits() == dec.estimate.to_bits() => {
                identical += 1;
                lp.checker.ops_ok(1);
            }
            Ok(out) => lp.checker.op_failed(format!(
                "decomposed round {i}: estimate {} differs from the engine's {}",
                dec.estimate,
                out.estimate()
            )),
            Err(e) => lp
                .checker
                .op_failed(format!("decomposed round {i}: engine failed: {e}")),
        }
        steps.push(dec);
    }
    tracer.set_enabled(true);
    report.set("round.decomposed_matches_engine", identical as f64);
    let step = |name: &str| {
        let xs: Vec<f64> = steps
            .iter()
            .map(|d| d.step_ns.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&xs) / n as f64
    };
    report.set("core.encoding.encode_ns_per_value", step("encode"));
    report.set("core.sampling.assign_ns_per_client", step("assign"));
    report.set("core.bits.record_ns_per_client", step("record"));
    report.set("core.wire.batch_encode_ns_per_client", step("batch_encode"));
    report.set("core.wire.batch_decode_ns_per_client", step("batch_decode"));
    report.set(
        "core.wire.frame_decoder_ns_per_frame",
        step("frame_decode") * n as f64 / n.div_ceil(CHUNK) as f64,
    );
    report.set("core.bits.merge_ns_per_client", step("merge"));
    report.set("core.bits.counts_ns_per_client", step("counts"));
    report.set(
        "core.protocol.estimate_ns_per_round",
        step("estimate") * n as f64,
    );
    report.set(
        "ldp.rr_ns_per_bit",
        layers::rr_ns_per_bit(&proto::config(0), n, args.seed),
    );
    let layer_ns: Vec<f64> = steps.iter().map(layers::Decomposed::layer_ns).collect();
    match shape {
        Shape::SyncFrontDoor => {
            report.set("fedsim.round.ns_per_client", engine_ns_per_client);
            report.set("fedsim.round.rss_bytes_per_client", round_rss / n as f64);
        }
        Shape::MemPlanes | Shape::MemSecagg => {
            report.set(
                "transport.coordinator.engine_self_ns_per_client",
                engine_ns_per_client - median(&layer_ns) / n as f64,
            );
            report.set(
                "transport.scheduler.push_pop_ns_per_event",
                layers::scheduler_push_pop_ns(100_000, args.seed),
            );
            report.set(
                "transport.net.inmemory_ns_per_envelope",
                layers::inmemory_ns_per_envelope(100_000, args.seed),
            );
        }
    }
    if shape == Shape::MemPlanes {
        let probe_seed = proto::round_seed(args.seed, 2_000_000);
        report.set(
            "transport.coordinator.scalar_ns_per_client",
            layers::scalar_ns_per_client(
                &proto::config(probe_seed),
                &values[..100_000],
                probe_seed,
            ),
        );
    }
    if let Some(settings) = shape.secagg() {
        report.set("secagg.planes_tally_ns_per_client", step("secagg_tally"));
        report.set(
            "core.bits.counts_masked_ns_per_client",
            layers::counts_masked_ns_per_client(BITS, n),
        );
        let (mask, unmask, shamir) =
            layers::secagg_primitives(settings, 2 * BITS as usize, args.seed);
        report.set("secagg.mask_ns_per_client", mask);
        report.set("secagg.unmask_ns_per_client", unmask);
        report.set("secagg.shamir_recover_us_per_dropout", shamir);
        report.set(
            "secagg.dropouts_recovered",
            traced.dropouts_recovered as f64 / walls.len().max(1) as f64,
        );
    }
    report.set("core.protocol.nrmse", lp.checker.nrmse());
    report.set("core.protocol.z_rms", lp.checker.z_rms());
    report.set("host.cpu_spin_ms", layers::cpu_spin_ms());
    lp.checker.finish(report);
}
