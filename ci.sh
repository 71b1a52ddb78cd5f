#!/bin/bash
# Local CI: formatting, lints, release build, and the full test suite —
# all offline (the workspace has no registry dependencies; see the
# hermetic-build policy in Cargo.toml).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --offline --all-targets -- -D warnings

# --workspace repeats what `default-members` in Cargo.toml already says:
# the figure binaries and dapctl live in dap-bench, not the root package.
echo "== cargo build --release --offline --workspace"
cargo build --release --offline --workspace

echo "== cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "== cargo build --offline --features telemetry-off"
cargo build --offline --features telemetry-off

echo "== cargo build --offline --features audit-off"
cargo build --offline --features audit-off

# The extracted decision crate must keep building without std (core +
# alloc only) — the whole point of the extraction is embeddability.
echo "== dap-decide no_std build"
cargo build --offline -p dap-decide --no-default-features

# Fault-injection smoke: a tiny grid with one injected panic cell and a
# permanent channel-outage schedule must complete with exactly one
# CellError and bit-identical sibling cells (release: the grid is slow
# under debug assertions, and the release build already exists).
echo "== fault-injection smoke"
cargo test --release --offline -q -p experiments --test fault_tolerance \
    injected_panic_isolates_to_one_cell

# Strict-audit smoke: a small fig01 run with the checked-mode auditor
# failing fast must finish with zero invariant violations.
echo "== strict-audit fig01 smoke"
DAP_INSTRUCTIONS=20000 ./target/release/fig01_bw_vs_hitrate --audit >/dev/null

# SIGINT resume smoke: for each figure, an uninterrupted run is the
# reference. A second run checkpoints into a fresh DAP_RESUME manifest and
# is interrupted once its first cell is on disk; it must exit with the
# graceful-shutdown code (130), and a resume over the same manifest must
# print byte-identical output. Timing-tolerant: if a run finishes before
# the signal lands, a clean exit (0) also passes and is compared directly.
echo "== SIGINT resume smoke (interrupt, resume, cmp)"
ckpt_dir=$(mktemp -d)
trap 'rm -rf "$ckpt_dir"' EXIT
export DAP_INSTRUCTIONS=20000 DAP_THREADS=1
for fig in fig06_dap_sectored fig_fault_degradation; do
    ./target/release/$fig > "$ckpt_dir/$fig.ref"
    DAP_RESUME="$ckpt_dir/$fig.ckpt" ./target/release/$fig \
        > "$ckpt_dir/$fig.out" 2>/dev/null &
    smoke_pid=$!
    for _ in $(seq 500); do
        [ -s "$ckpt_dir/$fig.ckpt" ] && break
        sleep 0.01
    done
    kill -INT "$smoke_pid" 2>/dev/null || true
    smoke_status=0
    wait "$smoke_pid" || smoke_status=$?
    if [ "$smoke_status" -eq 130 ]; then
        DAP_RESUME="$ckpt_dir/$fig.ckpt" ./target/release/$fig > "$ckpt_dir/$fig.out"
    elif [ "$smoke_status" -ne 0 ]; then
        echo "ci: SIGINT smoke ($fig) exited with unexpected status $smoke_status" >&2
        exit 1
    fi
    cmp "$ckpt_dir/$fig.ref" "$ckpt_dir/$fig.out" || {
        echo "ci: resumed $fig output differs from the uninterrupted run" >&2
        exit 1
    }
done
unset DAP_INSTRUCTIONS DAP_THREADS

# Run-twice determinism: no other check runs the OS-visible flat tier
# twice. Its epoch migrator charges page moves to both DRAMs, so the
# order it migrates in is part of the timing, and two runs of Extension D
# must print byte-identical tables. 300k instructions per core (~15 s a
# run) is a budget at which a migration order taken from hash-map
# iteration made two runs differ.
echo "== ext_os_visible run-twice determinism"
for run in 1 2; do
    DAP_INSTRUCTIONS=300000 DAP_THREADS=1 ./target/release/ext_os_visible \
        > "$ckpt_dir/ext_os_visible.$run"
done
cmp "$ckpt_dir/ext_os_visible.1" "$ckpt_dir/ext_os_visible.2" || {
    echo "ci: two ext_os_visible runs printed different tables" >&2
    exit 1
}

# Benchmark smoke: dapbench runs every workload briefly and exits 0 only
# when every correctness and bit-identity check holds. Its passes agreeing
# with each other says nothing about agreeing with the previous commit, so
# the seed-0 digest it prints per workload ("== <workload>: ... digest
# <hex>") must also match the checked-in golden.
echo "== dapbench smoke (1 s per workload) + seed-0 digest golden"
bench_out=$(./target/release/dapbench --seconds 1)
digest_golden=crates/bench/golden/dapbench-seed0.digests
diff <(grep -v '^#' "$digest_golden" | sort) \
    <(echo "$bench_out" | sed -n 's/^== \([^:]*\): .* digest \([0-9a-f]*\)$/\1 \2/p' | sort) || {
    echo "ci: dapbench digests differ from $digest_golden (< golden, > this build)" >&2
    exit 1
}

# dapd smoke: start the daemon on a temp Unix socket, drive 10k requests
# through it with a mid-run throttle, and require a clean shutdown plus
# non-empty stats showing the daemon actually decided something.
echo "== dapd daemon smoke (serve + loadgen over a Unix socket)"
dapd_sock=$(mktemp -u /tmp/dapd-ci-XXXXXX.sock)
dapd_log=$(mktemp)
./target/release/dapctl serve --socket "$dapd_sock" > "$dapd_log" 2>&1 &
dapd_pid=$!
for _ in $(seq 50); do
    [ -S "$dapd_sock" ] && break
    sleep 0.1
done
[ -S "$dapd_sock" ] || {
    echo "ci: dapd never bound its socket" >&2
    cat "$dapd_log" >&2
    exit 1
}
loadgen_out=$(./target/release/dapctl loadgen --socket "$dapd_sock"     --requests 10000 --throttle-after 5000 --throttle-factor 0.25 --shutdown)
wait "$dapd_pid" || {
    echo "ci: dapd did not shut down cleanly" >&2
    cat "$dapd_log" >&2
    exit 1
}
grep -q "dapd: clean shutdown" "$dapd_log" || {
    echo "ci: dapd log is missing the clean-shutdown line" >&2
    cat "$dapd_log" >&2
    exit 1
}
echo "$loadgen_out" | grep -q "dapd_decisions_total 10000" || {
    echo "ci: dapd stats missing or wrong decision count" >&2
    echo "$loadgen_out" >&2
    exit 1
}
[ ! -e "$dapd_sock" ] || {
    echo "ci: dapd left its socket file behind" >&2
    exit 1
}
rm -f "$dapd_log"

# Ops-plane scrape smoke: daemon on ephemeral TCP + HTTP metrics ports,
# real load, then every ops endpoint is fetched AND validated by
# `dapctl scrape --check` (exposition format checker / flight-dump
# parser / JSON parser — exit 4 on malformed output). SIGUSR1 must dump
# a parseable flight-recorder JSONL, and the shutdown path stays clean.
echo "== dapd ops-plane smoke (/metrics scrape + SIGUSR1 flight dump)"
ops_dir=$(mktemp -d)
ops_log="$ops_dir/serve.log"
./target/release/dapctl serve --tcp 127.0.0.1:0 \
    --metrics-addr 127.0.0.1:0 --flight-dump "$ops_dir/flight.jsonl" \
    > "$ops_log" 2>&1 &
ops_pid=$!
dapd_addr=""
metrics_addr=""
for _ in $(seq 50); do
    dapd_addr=$(sed -n 's/^dapd listening on tcp //p' "$ops_log")
    metrics_addr=$(sed -n 's|^dapd metrics on http://||p' "$ops_log")
    [ -n "$dapd_addr" ] && [ -n "$metrics_addr" ] && break
    sleep 0.1
done
[ -n "$dapd_addr" ] && [ -n "$metrics_addr" ] || {
    echo "ci: dapd never printed its tcp/metrics addresses" >&2
    cat "$ops_log" >&2
    exit 1
}
./target/release/dapctl loadgen --tcp "$dapd_addr" --requests 2000 >/dev/null
./target/release/dapctl scrape "$metrics_addr" --check > "$ops_dir/metrics.prom"
grep -q 'dapd_decisions_total 2000' "$ops_dir/metrics.prom" || {
    echo "ci: scraped /metrics is missing the decision count" >&2
    cat "$ops_dir/metrics.prom" >&2
    exit 1
}
./target/release/dapctl scrape "$metrics_addr" --path /varz --check >/dev/null
./target/release/dapctl scrape "$metrics_addr" --path /debug/flight --check >/dev/null
./target/release/dapctl scrape "$metrics_addr" --path /healthz >/dev/null
kill -USR1 "$ops_pid"
for _ in $(seq 50); do
    [ -s "$ops_dir/flight.jsonl" ] && break
    sleep 0.1
done
grep -q '"schema":"dap-flight"' "$ops_dir/flight.jsonl" || {
    echo "ci: SIGUSR1 flight dump is missing or untagged" >&2
    exit 1
}
./target/release/dapctl scrape "$ops_dir/flight.jsonl" --check >/dev/null
./target/release/dapctl loadgen --tcp "$dapd_addr" --requests 1 --shutdown >/dev/null
wait "$ops_pid" || {
    echo "ci: dapd (ops smoke) did not shut down cleanly" >&2
    cat "$ops_log" >&2
    exit 1
}
rm -rf "$ops_dir"

# The whole dapd test package again, in release. It includes the chaos
# soak: the seeded in-process fault proxy (fixed seed, temp Unix sockets)
# drives corruption/drops/stalls/partial writes at the daemon and asserts
# it sheds with Reject(Overloaded), converges back to the measured Eq. 4
# optimum, conserves the tenant ledger exactly, shuts down cleanly, and
# that every fault class actually fired. Release matters beyond speed:
# the client polls for each reply for a few tens of microseconds before
# it blocks, and only release replies are fast enough to land inside
# that window, so the debug run above mostly exercises the blocking
# fallback.
echo "== dapd test package in release (chaos soak included)"
cargo test --release --offline -q -p dapd

# Sharded-explorer smoke: a serial reference run of the smoke grid, then
# a 3-worker fleet with one worker killed (SIGKILL-class abort) right
# after winning its second claim. The fleet must survive the death — the
# orphaned lease expires after one TTL and a survivor steals it — drain
# the grid, and produce a merged manifest byte-identical to the serial
# reference (the merge writes cells in canonical key order, so `cmp` is
# the whole check).
echo "== sharded explore smoke (3 workers, one killed mid-claim)"
explore_dir=$(mktemp -d)
./target/release/dapctl explore --grid smoke --workers 1 \
    --instructions 20000 --out "$explore_dir/serial" >/dev/null
DAP_SHARD_KILL="1:1:2:after-claim" ./target/release/dapctl explore \
    --grid smoke --workers 3 --instructions 20000 --ttl-ms 1000 \
    --out "$explore_dir/fleet" >/dev/null
cmp "$explore_dir/serial/merged.ckpt" "$explore_dir/fleet/merged.ckpt" || {
    echo "ci: fleet merged manifest differs from the serial reference" >&2
    exit 1
}
rm -rf "$explore_dir"

# Shard kill-chaos harness: a 4-worker fleet with staged faults in every
# crash window (abort holding a fresh lease, abort between manifest
# record and lease done, mid-run interrupt) must merge bit-identical to
# a serial in-process reference, and a poisoned cell must be quarantined
# after K fleet-wide failures. Release: each worker is a real process
# running real simulations.
echo "== shard kill-chaos harness"
cargo test --release --offline -q -p experiments --test shard_chaos

# telemetry-off must compile the whole observability stack away without
# changing a figure's output: the same fig01 run from a telemetry-off
# release build must be byte-identical. The feature build targets
# dap-bench directly — the figure binaries live there, and a workspace-
# root `--features` never reaches them. Runs late: each feature build
# replaces the binaries in target/release.
echo "== telemetry-off fig01 byte-identical check"
DAP_INSTRUCTIONS=20000 ./target/release/fig01_bw_vs_hitrate > target/fig01_default.txt
cargo build --release --offline -p dap-bench --features telemetry-off
DAP_INSTRUCTIONS=20000 ./target/release/fig01_bw_vs_hitrate > target/fig01_telemetry_off.txt
cmp target/fig01_default.txt target/fig01_telemetry_off.txt || {
    echo "ci: telemetry-off changed fig01 output" >&2
    exit 1
}

# The epoch-skipping kernel must be bit-identical to the retained
# per-quantum reference loop: rebuild with the reference-kernel feature
# (which flips System::run to the reference loop) and diff the same
# fig01 run against the default build's output captured above.
echo "== reference-kernel fig01 byte-identical check"
cargo build --release --offline -p dap-bench --features reference-kernel
DAP_INSTRUCTIONS=20000 ./target/release/fig01_bw_vs_hitrate > target/fig01_reference_kernel.txt
cmp target/fig01_default.txt target/fig01_reference_kernel.txt || {
    echo "ci: reference-kernel changed fig01 output" >&2
    exit 1
}

# Restore the default-feature binaries so a later local run of this
# script (or an ad-hoc figure run) starts from the default build.
cargo build --release --offline -p dap-bench

echo "ci: all checks passed"
