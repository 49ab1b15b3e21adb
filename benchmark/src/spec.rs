//! The benchmark's contract in one place: workload names, metric names,
//! units, directions and regression bounds. `BENCHMARK.json` at the root of
//! the repository mirrors these tables; the `spec_matches_benchmark_json`
//! test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: gated, with the share of the parent's median by
/// which it may get worse.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The five workloads and why each exists (one line each, as recorded in
/// `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "sync_front_door",
        "RoundBuilder::new(cfg).run over 1M clients: the sync engine every figure and the quick-start use; no wire, socket or secagg, so a refactor of the other engines must not move it",
    ),
    (
        "mem_planes",
        "same 1M clients via InMemoryTransport batched(512): transport engine, bit planes, batch wire and scheduler do the work; sockets idle",
    ),
    (
        "mem_secagg",
        "50k clients, secure(default) via InMemoryTransport batched(512): secagg rounds, dropout recovery and masked plane counts dominate; plain tally is a few percent",
    ),
    (
        "tcp_campaign",
        "child fednumd --state-dir, one TcpTransport, durable campaign of scalar-wire rounds, 5k clients: per-client wire codecs, tcp pipelining, daemon reactor and ledger fsync",
    ),
    (
        "fleet_live",
        "child fednumd fleet mode, 2000 live ClientSession sockets on one generator thread, 500-client cohorts: many idle sockets and tiny frames, registry scans, heartbeats, per-report acks",
    ),
];

/// The eight end-to-end metrics. The contract allows one bound per metric,
/// not per workload, so each bound is the loosest any workload needs: a
/// quarter, the most the contract allows, on every timing, because this
/// host's memory system is shared and unchanged runs move that much (see
/// the README); a fifth on memory; a twentieth on bytes. The README lists
/// what each metric means on each workload.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "round_wall_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "clients_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_mclient",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "uplink_bytes_per_client",
        unit: "B",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "downlink_bytes_per_client",
        unit: "B",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "report_ack_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Per-layer metrics: `(name, unit, better)`. Ungated. A traced run prints
/// every one; a layer that is not on the workload's path reads 0.
pub const PER_LAYER: [(&str, &str, Better); 70] = [
    ("workloads.draw_ns_per_value", "ns", Better::Lower),
    ("core.encoding.encode_ns_per_value", "ns", Better::Lower),
    ("core.sampling.assign_ns_per_client", "ns", Better::Lower),
    ("ldp.rr_ns_per_bit", "ns", Better::Lower),
    ("core.bits.record_ns_per_client", "ns", Better::Lower),
    ("core.bits.counts_ns_per_client", "ns", Better::Lower),
    ("core.bits.merge_ns_per_client", "ns", Better::Lower),
    ("core.bits.counts_masked_ns_per_client", "ns", Better::Lower),
    ("core.wire.batch_encode_ns_per_client", "ns", Better::Lower),
    ("core.wire.batch_decode_ns_per_client", "ns", Better::Lower),
    ("core.wire.report_encode_ns_per_frame", "ns", Better::Lower),
    ("core.wire.report_decode_ns_per_frame", "ns", Better::Lower),
    ("core.wire.frame_decoder_ns_per_frame", "ns", Better::Lower),
    ("core.wire.fleet_encode_ns_per_frame", "ns", Better::Lower),
    ("core.wire.fleet_decode_ns_per_frame", "ns", Better::Lower),
    ("core.protocol.estimate_ns_per_round", "ns", Better::Lower),
    ("core.protocol.nrmse", "ratio", Better::Lower),
    ("core.protocol.z_rms", "ratio", Better::Lower),
    ("secagg.mask_ns_per_client", "ns", Better::Lower),
    ("secagg.unmask_ns_per_client", "ns", Better::Lower),
    ("secagg.shamir_recover_us_per_dropout", "us", Better::Lower),
    ("secagg.planes_tally_ns_per_client", "ns", Better::Lower),
    ("secagg.dropouts_recovered", "count", Better::Lower),
    ("fedsim.round.ns_per_client", "ns", Better::Lower),
    ("fedsim.round.rss_bytes_per_client", "B", Better::Lower),
    (
        "transport.coordinator.engine_self_ns_per_client",
        "ns",
        Better::Lower,
    ),
    (
        "transport.coordinator.scalar_ns_per_client",
        "ns",
        Better::Lower,
    ),
    ("transport.coordinator.waves_used", "count", Better::Lower),
    (
        "transport.scheduler.push_pop_ns_per_event",
        "ns",
        Better::Lower,
    ),
    (
        "transport.net.inmemory_ns_per_envelope",
        "ns",
        Better::Lower,
    ),
    ("transport.tcp.connect_ms", "ms", Better::Lower),
    ("transport.tcp.close_ms", "ms", Better::Lower),
    ("transport.tcp.frames_per_s", "1/s", Better::Higher),
    ("transport.tcp.driver_cpu_us_per_frame", "us", Better::Lower),
    (
        "transport.daemon.cpu_user_us_per_frame",
        "us",
        Better::Lower,
    ),
    ("transport.daemon.cpu_sys_us_per_frame", "us", Better::Lower),
    ("transport.daemon.peak_rss_mb", "MiB", Better::Lower),
    ("transport.daemon.protocol_errors", "count", Better::Lower),
    (
        "transport.reactor.wait_us_at_2k_idle_fds",
        "us",
        Better::Lower,
    ),
    ("transport.reactor.accept_us_per_conn", "us", Better::Lower),
    ("transport.reactor.listen_overflows", "count", Better::Lower),
    (
        "transport.reactor.burst_dial_stalls",
        "count",
        Better::Lower,
    ),
    (
        "transport.reactor.burst_listen_overflows",
        "count",
        Better::Lower,
    ),
    ("transport.fleet.engine_ns_per_message", "ns", Better::Lower),
    (
        "transport.fleet.tick_us_at_2k_registered",
        "us",
        Better::Lower,
    ),
    ("transport.fleet.rendezvous_rtt_p50_ms", "ms", Better::Lower),
    (
        "transport.fleet.assign_to_report_p50_ms",
        "ms",
        Better::Lower,
    ),
    ("transport.fleet.report_ack_p99_ms", "ms", Better::Lower),
    ("transport.fleet.round_gap_p50_ms", "ms", Better::Lower),
    ("transport.fleet.heartbeat_rtt_p50_ms", "ms", Better::Lower),
    (
        "transport.fleet.heartbeats_per_report",
        "ratio",
        Better::Lower,
    ),
    ("transport.fleet.resumes", "count", Better::Lower),
    ("transport.fleet.dup_reports", "count", Better::Lower),
    ("core.privacy.durable.admit_ms_p50", "ms", Better::Lower),
    ("core.privacy.durable.commit_ms_p50", "ms", Better::Lower),
    ("core.privacy.durable.fsync_commit_us", "us", Better::Lower),
    (
        "core.privacy.durable.wal_bytes_per_round",
        "B",
        Better::Lower,
    ),
    ("round.wall_p50_all_s", "s", Better::Lower),
    ("round.wall_p75_s", "s", Better::Lower),
    ("round.wall_max_s", "s", Better::Lower),
    ("round.samples", "count", Better::Higher),
    ("round.decomposed_matches_engine", "count", Better::Higher),
    ("host.pingpong_rtt_us_before", "us", Better::Lower),
    ("host.pingpong_rtt_us_after", "us", Better::Lower),
    ("host.connect_us", "us", Better::Lower),
    ("host.cpu_spin_ms", "ms", Better::Lower),
    ("host.regime_reruns", "count", Better::Lower),
    ("trace.overhead_frac", "ratio", Better::Lower),
    ("trace.round_cover_frac", "ratio", Better::Higher),
    ("trace.spans", "count", Better::Higher),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}
