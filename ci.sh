#!/usr/bin/env bash
# Repository CI gate. Run from the repo root:
#
#   ./ci.sh          # full gate: build, tests, clippy, fmt
#   ./ci.sh quick    # skip clippy/fmt (inner-loop smoke)
#
# Everything runs --offline: the workspace vendors all dependencies
# (vendor/) and must never reach a registry.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$1"; }

# exact_test <cargo test target args...> <test name>: runs one pinned test
# by exact name and fails unless exactly one test ran — a moved or renamed
# test matches zero tests, which `cargo test` alone reports as green.
exact_test() {
    local log ran
    log=$(mktemp)
    cargo test --release --offline "$@" -- --exact 2>&1 | tee "$log"
    ran=$(awk '/^test result: ok\./ { ran += $4 } END { print ran + 0 }' "$log")
    rm -f "$log"
    [[ "$ran" -eq 1 ]] \
        || { echo "expected exactly one test to run for: $*; ran $ran"; exit 1; }
}

step "cargo build --release"
cargo build --release --offline --workspace

step "proptest regression seeds (deterministic smoke)"
# The shrunk cases recorded in tests/proptests.proptest-regressions are
# replayed twice: once as explicit unit tests (runner-independent), once by
# the proptest runner itself, which reads the seed file before generating
# novel cases. PROPTEST_CASES=1 keeps the second pass to (seeds + 1 case).
exact_test --test proptests \
    regression_constant_population_v945_seed0_n2
PROPTEST_CASES=1 cargo test --release --offline --test proptests \
    constant_population_underestimates_by_unsampled_bits
# Transport wire-codec regression anchors (boundary frames pinned as unit
# tests), plus a 1-case proptest replay of the round-trip property.
exact_test -p fednum-transport --test proptest_messages \
    regression_max_varint_fields_round_trip
# The batched secure-aggregation frame, table-driven over its four steps:
# every truncation, step tag, count and field element out of range must
# fail closed, the counts before anything is allocated; then the frame's
# recorded proptest seeds (tests/proptest_messages.proptest-regressions).
exact_test -p fednum-transport --test proptest_messages \
    regression_hostile_secagg_frame_fails_closed
exact_test -p fednum-transport --test proptest_messages \
    regression_secagg_batch_seeds_round_trip
# Batched-wire anchors: a hostile chunk frame claiming 2^40 slots, a
# non-canonical padding bit past the slot count, and a slot occupied on
# two planes (a client counted twice) must all fail closed.
exact_test -p fednum-transport --test proptest_messages \
    regression_hostile_batch_slot_count_fails_closed
exact_test -p fednum-transport --test proptest_messages \
    regression_batch_noncanonical_padding_rejected
exact_test -p fednum-transport --test proptest_messages \
    regression_batch_slot_on_two_planes_rejected
PROPTEST_CASES=1 cargo test --release --offline -p fednum-transport \
    --test proptest_messages encode_decode_identity
# Straggler-salvage regression anchor: a pinned seed that must keep
# recovering >50 stragglers and replaying bit-identically.
exact_test -p fednum-transport --test salvage \
    regression_salvage_seed_0x5a17_recovers_and_stays_pinned
# Batched-wire parity seeds: batched plain/secagg rounds must stay
# bit-identical to the scalar path per seed across chunk sizes.
exact_test -p fednum-transport --lib \
    coordinator::tests::batched_plain_round_is_bit_identical_per_seed
exact_test -p fednum-transport --lib \
    coordinator::tests::batched_secagg_round_is_bit_identical_per_seed
# The secure-aggregation message rounds stream: bytes queued between send
# and poll stay under the in-flight bound, frames under their byte budget.
exact_test -p fednum-transport --lib \
    coordinator::tests::secagg_rounds_stream_within_the_in_flight_bound_and_the_frame_budget
# TcpTransport predicts every echo: a wrong, surplus or missing one fails
# the session closed, and a round blocks once per batch, never per event.
exact_test -p fednum-transport --lib \
    tcp::tests::tampered_or_missing_echoes_fail_closed
exact_test -p fednum-transport --lib \
    tcp::tests::a_scalar_round_blocks_once_per_batch_not_per_event
# ...and touches the socket without blocking once per TAKE_IN_EVERY
# deliveries, not once per delivery; a lie deep inside a wide echo window
# still fails the round closed; and a window's echoes stay far below the
# daemon's per-connection output bound. Both ends frame in place: every
# header width emits exactly `varint(len) ‖ payload`.
exact_test -p fednum-transport --lib \
    tcp::tests::a_scalar_round_takes_in_echoes_once_per_k_deliveries_not_per_delivery
exact_test -p fednum-transport --lib \
    tcp::tests::a_lie_deep_inside_a_wide_window_still_fails_closed
exact_test -p fednum-transport --lib \
    tcp::tests::twice_the_echo_window_fits_under_the_daemon_output_bound
exact_test -p fednum-core --lib \
    wire::tests::frames_carry_the_same_bytes_at_every_header_width
# The vendored `rand`'s bounded draw skips the exact-zone division below
# `u64::MAX - span` and must accept exactly the draws it did before.
# vendor/ runs only in the workspace step, hence the explicit package.
exact_test -p rand --lib \
    tests::uniform_below_matches_the_exact_zone_at_its_boundaries
# A fleet round's downlink is its cohort's: one CohortAssign per draftee,
# nothing to standbys, a CohortWait only for a mid-round (re)registration.
# And a peer that never reads its replies still hits the outgoing bound
# now that the reactor scans only the connections it read.
exact_test -p fednum-transport --lib \
    fleet::tests::round_start_sends_one_frame_per_draftee_and_none_to_standbys
exact_test -p fednum-transport --lib \
    daemon::tests::a_peer_that_never_reads_its_replies_is_dropped_at_the_outgoing_bound
# An envelope at the frame cap, whose echo cannot be framed, drops its
# peer as a protocol error instead of taking the daemon down.
exact_test -p fednum-transport --lib \
    daemon::tests::an_envelope_whose_echo_would_pass_the_frame_cap_drops_its_peer_not_the_daemon
# The event queue's in-order lane pops exactly what one heap over every
# entry would, under random interleavings of push, pop and peek.
exact_test -p fednum-transport --lib \
    scheduler::tests::lane_queue_pops_exactly_like_a_plain_heap
# Over a scalar per-client round the wave rides the lane: the heap never
# holds more than the one reply in flight.
exact_test -p fednum-transport --lib \
    net::tests::a_scalar_round_keeps_at_most_one_entry_in_the_queue_heap
# `Message::validate` gives `decode`'s verdict on every frame, prefix and
# bit flip without allocating; report frames keep their recorded bytes.
exact_test -p fednum-transport --test proptest_messages \
    validate_gives_the_decode_verdict_on_every_prefix_and_bit_flip
exact_test -p fednum-core --lib \
    wire::tests::report_frames_match_their_golden_bytes
# TcpTransport carries an envelope exactly at MAX_ENVELOPE_PAYLOAD and
# refuses one byte more with a typed error, before writing any of it.
exact_test -p fednum-transport --lib \
    tcp::tests::an_envelope_at_the_payload_cap_round_trips_and_one_byte_more_fails_typed
# RoundBuilder fails closed on `b_send > 1` (Corollary 3.2): no round
# shape sends more than one bit per client, so the option must never be
# dropped silently.
exact_test -p fednum-transport --lib \
    builder::tests::b_send_above_one_is_rejected_not_dropped
# Algorithm 2 sends one bit per client too: its driver returns
# `InvalidConfig` for `b_send > 1` on every path, the `MeanMechanism` one
# included.
exact_test -p fednum-fedsim --lib \
    adaptive_round::tests::b_send_above_one_is_rejected_not_dropped
# Pooled `b_send` rounds each run under their own session seed (round 0
# under the configured one): distinct fault plans, masks and ledger rounds.
exact_test -p fednum-fedsim --lib \
    protocol::basic::tests::pooled_rounds_each_run_under_their_own_session_seed
# The mask graph's neighborhood is window arithmetic: it matches a
# ring-distance reference, the plane tally matches the share-level
# protocol on every small dropout plan and degree, and the framer sends
# one key share per ring neighbor.
exact_test -p fednum-secagg --lib \
    masking::tests::ring_neighbors_match_a_ring_distance_reference
exact_test -p fednum-secagg --lib \
    protocol::tests::plane_path_matches_share_path_on_every_small_plan
exact_test -p fednum-transport --lib \
    coordinator::tests::key_shares_follow_the_ring_mask_graph

step "cargo test (workspace)"
# --include-ignored: the process-spawning suites (fleet_e2e, chaos_e2e) are
# `#[ignore]`d out of a bare `cargo test` and run here.
cargo test -q --release --offline --workspace -- --include-ignored

step "benchmark selftest + quick traced run (correctness harness, 10 min budget)"
# benchmark/ is its own Cargo workspace (own target dir), so neither the
# workspace build nor the workspace tests above touch it. selftest runs
# its unit tests (wrong-truth detection, decomposed round == engine);
# --quick --trace runs all five workloads at a tenth of the length with
# every check on, untraced then traced, and exits non-zero on any failed
# op. The three in-process workloads must each publish all three
# decomposed rounds bit-identically to the engine. Timings printed here
# are not gated: claims go through `benchmark/run.sh compare`.
timeout 600 bash benchmark/run.sh selftest
BENCH_QUICK_LOG=$(mktemp)
timeout 600 bash benchmark/run.sh --quick --trace | tee "$BENCH_QUICK_LOG"
[[ $(grep -Ec 'round\.decomposed_matches_engine +3\.0+ count' "$BENCH_QUICK_LOG") -eq 3 ]] \
    || { echo "a decomposed round diverged from the engine"; exit 1; }
rm -f "$BENCH_QUICK_LOG"

step "hierarchical chaos matrix (both secagg tiers under fault injection)"
exact_test -q --test chaos \
    chaos_matrix_composes_with_hierarchical_secagg

step "salvage chaos pass (salvage never worse than discard)"
exact_test -q --test chaos \
    salvage_never_worsens_the_estimate_across_the_chaos_grid

step "fleet smoke (fednumd + 50 fednumc processes, 5 seeded kills)"
# The real binaries end to end: fednumd hosts a 2-round, 40-cohort fleet
# campaign over a 50-participant population; 5 seeded victims die
# mid-round (3 hang up on assignment, 2 go silent for the heartbeat
# monitor). The daemon must salvage every death, complete both rounds
# with nothing abandoned, dismiss every survivor, and exit 0 (a leaked
# worker thread is exit 2); every fednumc must exit 0 (scripted deaths
# count their own fault as success).
FLEET_LOG=$(mktemp)
FLEET_FIFO=$(mktemp -u)
mkfifo "$FLEET_FIFO"
./target/release/fednumd --addr 127.0.0.1:0 \
    --fleet-cohort 40 --fleet-population 50 --fleet-rounds 2 \
    --fleet-heartbeat-ms 300 --fleet-liveness-ms 3000 \
    --fleet-deadline-ms 30000 --fleet-seed 7 --fleet-value-seed 99 \
    > "$FLEET_LOG" < "$FLEET_FIFO" &
FLEET_PID=$!
exec 9> "$FLEET_FIFO"
rm -f "$FLEET_FIFO"
FLEET_ADDR=""
for _ in $(seq 100); do
    FLEET_ADDR=$(sed -n 's/^fednumd listening on //p' "$FLEET_LOG")
    [[ -n "$FLEET_ADDR" ]] && break
    sleep 0.1
done
[[ -n "$FLEET_ADDR" ]] || { echo "fleet fednumd never came up"; exit 1; }
# Seeded victim selection: ids (29*k mod 50)+1 for k=1..5 — same seed,
# same victims, every run. First 3 hang up on assignment, last 2 mute.
FLEET_KILL_SEED=29
FLEET_PIDS=()
for id in $(seq 50); do
    FAIL=none
    for k in 1 2 3; do
        [[ "$id" -eq $(( FLEET_KILL_SEED * k % 50 + 1 )) ]] && FAIL=assign
    done
    for k in 4 5; do
        [[ "$id" -eq $(( FLEET_KILL_SEED * k % 50 + 1 )) ]] && FAIL=mute
    done
    ./target/release/fednumc --addr "$FLEET_ADDR" --client-id "$id" \
        --fail-at "$FAIL" --max-seconds 120 > /dev/null &
    FLEET_PIDS+=($!)
done
for pid in "${FLEET_PIDS[@]}"; do
    wait "$pid" || { echo "a fednumc participant failed"; exit 1; }
done
wait "$FLEET_PID" || { echo "fleet fednumd exited unclean"; cat "$FLEET_LOG"; exit 1; }
exec 9>&-
cat "$FLEET_LOG"
[[ $(grep -c 'fednumd: fleet round .* 0 abandoned$' "$FLEET_LOG") -eq 2 ]] \
    || { echo "fleet rounds did not all complete cleanly"; exit 1; }
grep 'fednumd: fleet round' "$FLEET_LOG" \
    | grep -Eq 'salvage [1-9][0-9]* hangup|hangup / [1-9][0-9]* heartbeat' \
    || { echo "the seeded kills were never salvaged"; exit 1; }
grep -q ' 0 protocol error(s)' "$FLEET_LOG" \
    || { echo "fleet participants tripped the daemon protocol"; exit 1; }
rm -f "$FLEET_LOG"

step "chaos smoke (fednumd + 50 fednumc through the fednumx fault proxy)"
# The same 2-round fleet campaign, but every participant connection now
# crosses the seeded fednumx fault-injection proxy: 30% of connections
# are reset mid-frame, 10% stalled mid-frame for 100ms, 10% deliver a
# duplicated frame, and every frame may be split at seeded boundaries
# (corruption stays 0 so the zero-protocol-error gate below keeps its
# meaning). Participants must reconnect with Resume and retransmit;
# the daemon must dedup retransmitted reports. Gates: every fednumc
# exits 0, both rounds complete with a full cohort and 0 abandoned, at
# least one session actually resumed, no report was double-counted, and
# the daemon saw zero protocol errors.
CHAOS_LOG=$(mktemp)
CHAOS_FIFO=$(mktemp -u)
mkfifo "$CHAOS_FIFO"
./target/release/fednumd --addr 127.0.0.1:0 \
    --fleet-cohort 40 --fleet-population 50 --fleet-rounds 2 \
    --fleet-heartbeat-ms 300 --fleet-liveness-ms 3000 \
    --fleet-deadline-ms 30000 --fleet-seed 7 --fleet-value-seed 99 \
    > "$CHAOS_LOG" < "$CHAOS_FIFO" &
CHAOS_PID=$!
exec 9> "$CHAOS_FIFO"
rm -f "$CHAOS_FIFO"
CHAOS_ADDR=""
for _ in $(seq 100); do
    CHAOS_ADDR=$(sed -n 's/^fednumd listening on //p' "$CHAOS_LOG")
    [[ -n "$CHAOS_ADDR" ]] && break
    sleep 0.1
done
[[ -n "$CHAOS_ADDR" ]] || { echo "chaos fednumd never came up"; exit 1; }
CHAOS_X_LOG=$(mktemp)
CHAOS_X_FIFO=$(mktemp -u)
mkfifo "$CHAOS_X_FIFO"
./target/release/fednumx --upstream "$CHAOS_ADDR" --seed 11 \
    --reset-frac 0.3 --stall-frac 0.1 --dup-frac 0.1 --stall-ms 100 \
    > "$CHAOS_X_LOG" < "$CHAOS_X_FIFO" &
CHAOS_X_PID=$!
exec 7> "$CHAOS_X_FIFO"
rm -f "$CHAOS_X_FIFO"
CHAOS_X_ADDR=""
for _ in $(seq 100); do
    CHAOS_X_ADDR=$(sed -n 's/^fednumx listening on //p' "$CHAOS_X_LOG")
    [[ -n "$CHAOS_X_ADDR" ]] && break
    sleep 0.1
done
[[ -n "$CHAOS_X_ADDR" ]] || { echo "fednumx never came up"; exit 1; }
CHAOS_PIDS=()
for id in $(seq 50); do
    ./target/release/fednumc --addr "$CHAOS_X_ADDR" --client-id "$id" \
        --retries 20 --backoff-ms 25 --max-seconds 120 > /dev/null &
    CHAOS_PIDS+=($!)
done
for pid in "${CHAOS_PIDS[@]}"; do
    wait "$pid" || { echo "a fednumc participant failed under chaos"; exit 1; }
done
wait "$CHAOS_PID" \
    || { echo "chaos fednumd exited unclean"; cat "$CHAOS_LOG"; exit 1; }
exec 9>&-
exec 7>&-
wait "$CHAOS_X_PID" \
    || { echo "fednumx exited unclean"; cat "$CHAOS_X_LOG"; exit 1; }
cat "$CHAOS_LOG"
cat "$CHAOS_X_LOG"
[[ $(grep -c 'fednumd: fleet round .* 0 abandoned$' "$CHAOS_LOG") -eq 2 ]] \
    || { echo "chaos rounds did not all complete cleanly"; exit 1; }
# A double-counted report would overfill the cohort: both rounds must
# report exactly cohort-many accepted reports.
[[ $(grep -c '40 report(s) from a cohort of 40' "$CHAOS_LOG") -eq 2 ]] \
    || { echo "a chaos round did not gather exactly its cohort"; exit 1; }
grep -Eq 'fleet resilience: [1-9][0-9]* resume' "$CHAOS_LOG" \
    || { echo "no session ever resumed under chaos"; exit 1; }
grep -q ' 0 protocol error(s)' "$CHAOS_LOG" \
    || { echo "chaos faults tripped the daemon protocol"; exit 1; }
grep -Eq '[1-9][0-9]* reset' "$CHAOS_X_LOG" \
    || { echo "the fault proxy never injected a reset"; exit 1; }
rm -f "$CHAOS_LOG" "$CHAOS_X_LOG"

step "amplification regression anchor (fixed (eps, n, delta) pinned to 1e-12)"
# The shuffle tier's amplification-by-shuffling bound: three pinned
# (local epsilon, cohort, delta) triples must reproduce their recorded
# amplified epsilons to 1e-12, so a numerics drift can never silently
# loosen what the durable ledger bills.
exact_test -p fednum-core --lib \
    privacy::amplification::tests::regression_amplified_epsilon_pinned_to_1e12

step "crash-recovery smoke (kill -9 mid-round, restart, bit-identical ledger)"
# Starts fednumd with a durable state dir, runs a reference 3-round
# campaign to completion, then repeats it on a fresh state dir with the
# driver halting before round 2's commit and the daemon SIGKILLed mid
# campaign. A restart on the same --state-dir must replay the WAL,
# discard the uncommitted round's staged charges, resume at round 2, and
# finish with a ledger digest identical to the uninterrupted reference.
CRASH_DIR=$(mktemp -d)
CRASH_LOG=$(mktemp)
# Helper: launch fednumd on an OS-assigned port with stdin held open on
# fd 8 (EOF is its graceful hang-up signal); sets CRASH_PID/CRASH_ADDR.
start_crash_daemon() {
    : > "$CRASH_LOG"
    CRASH_FIFO=$(mktemp -u)
    mkfifo "$CRASH_FIFO"
    ./target/release/fednumd --addr 127.0.0.1:0 "$@" \
        > "$CRASH_LOG" < "$CRASH_FIFO" &
    CRASH_PID=$!
    exec 8> "$CRASH_FIFO"
    rm -f "$CRASH_FIFO"
    CRASH_ADDR=""
    for _ in $(seq 100); do
        CRASH_ADDR=$(sed -n 's/^fednumd listening on //p' "$CRASH_LOG")
        [[ -n "$CRASH_ADDR" ]] && break
        sleep 0.1
    done
    [[ -n "$CRASH_ADDR" ]] \
        || { echo "fednumd never came up"; cat "$CRASH_LOG"; exit 1; }
}

# Reference: uninterrupted 3-round campaign, clean shutdown (exit 0).
start_crash_daemon --state-dir "$CRASH_DIR/ref"
REF_DIGEST=$(./target/release/fednum_campaign --addr "$CRASH_ADDR" --rounds 3 \
    | sed -n 's/^campaign digest: //p')
exec 8>&-
wait "$CRASH_PID"
[[ -n "$REF_DIGEST" ]] || { echo "reference campaign printed no digest"; exit 1; }

# Crash: rounds 0-1 committed, round 2 run but never committed, SIGKILL.
start_crash_daemon --state-dir "$CRASH_DIR/crash"
./target/release/fednum_campaign --addr "$CRASH_ADDR" --rounds 3 \
    --halt-before-commit 2 | grep -q 'halted before commit of round 2' \
    || { echo "crash driver never reached the halt point"; exit 1; }
kill -9 "$CRASH_PID"
wait "$CRASH_PID" 2>/dev/null || true
exec 8>&-

# Restart on the same state dir: WAL replay must report the recovered
# campaign and discard the staged (uncommitted) round-2 charges.
start_crash_daemon --state-dir "$CRASH_DIR/crash"
grep -q 'recovered 1 campaign(s)' "$CRASH_LOG" \
    || { echo "restart did not report a recovered campaign"; cat "$CRASH_LOG"; exit 1; }
grep -Eq '[1-9][0-9]* staged charge' "$CRASH_LOG" \
    || { echo "restart discarded no staged charges"; cat "$CRASH_LOG"; exit 1; }
CRASH_DIGEST=$(./target/release/fednum_campaign --addr "$CRASH_ADDR" --rounds 3 \
    | sed -n 's/^campaign digest: //p')
exec 8>&-
wait "$CRASH_PID"
[[ "$CRASH_DIGEST" == "$REF_DIGEST" ]] \
    || { echo "ledger digests diverged: crash $CRASH_DIGEST vs ref $REF_DIGEST"; exit 1; }
echo "crash-recovery smoke: resumed ledger digest $CRASH_DIGEST matches reference"
rm -rf "$CRASH_DIR" "$CRASH_LOG"

if [[ "${1:-}" != "quick" ]]; then
    step "cargo doc --no-deps"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

    step "cargo clippy --workspace --all-targets -- -D warnings"
    # The vendored offline stand-ins (vendor/) are excluded — they mirror
    # external crates and are not held to repo lint standards.
    cargo clippy --workspace \
        --exclude serde --exclude serde_derive --exclude serde_json \
        --exclude rand --exclude proptest \
        --all-targets --offline -- -D warnings

    step "cargo fmt --check"
    cargo fmt --check
fi

step "CI gate passed"
