#!/usr/bin/env bash
# Tier-1 gate, run exactly as CI does: hermetic build + tests, formatting
# and lints (every target, props suites and the benchmark package too) and
# rustdoc links as errors, every example binary, randomized-seed replays,
# every property suite, the mutation catalog (scripts/mutants.sh), the
# end-to-end benchmark's contract tests, and
# every seeded bench producer run twice with byte-identical output.
# Each producer asserts its own paper claims and panics when one fails;
# benchdiff then gates every artifact value against the committed
# copies under baselines/.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== tier-1: offline release build =="
cargo build --release

echo "== test suites (whole workspace, root package included) =="
cargo test --workspace -q

echo "== rustfmt (check only) =="
cargo fmt --all -- --check

echo "== clippy (every target of every package, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --all-targets -p splice-repro -p ksim -p kbuf -p kfs -p khw -p kdev -p kproc \
    --features splice-repro/props,ksim/props,kbuf/props,kfs/props,khw/props,kdev/props,kproc/props \
    -- -D warnings
cargo clippy --offline --all-targets --manifest-path perfbench/Cargo.toml -- -D warnings

echo "== rustdoc (every package, broken or private intra-doc links are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --keep-going

echo "== examples =="
for ex in quickstart movie_player network_relay framebuffer_stream cpu_availability; do
    echo "-- example: $ex"
    cargo run -q --release --example "$ex"
done

echo "== fault suite, randomized seed =="
FAULT_SEED=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
echo "-- FAULT_SEED=$FAULT_SEED"
FAULT_SEED="$FAULT_SEED" cargo test -q --test faults any_seed_transient_faults_recover ||
    { echo "fault suite FAILED with FAULT_SEED=$FAULT_SEED (export it to reproduce)"; exit 1; }
FAULT_SEED="$FAULT_SEED" cargo test -q --test ring ring_runs_are_deterministic_under_fault_seed ||
    { echo "ring suite FAILED with FAULT_SEED=$FAULT_SEED (export it to reproduce)"; exit 1; }

echo "== server scenario replays (scenario and request records), randomized seed =="
SERVER_SEED=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
echo "-- SERVER_SEED=$SERVER_SEED"
SERVER_SEED="$SERVER_SEED" cargo test -q --test server replay ||
    { echo "server suite FAILED with SERVER_SEED=$SERVER_SEED (export it to reproduce)"; exit 1; }

echo "== property suites (differential models, props feature) =="
cargo test -q -p splice-repro -p ksim -p kbuf -p kfs -p khw -p kdev -p kproc \
    --features splice-repro/props,ksim/props,kbuf/props,kfs/props,khw/props,kdev/props,kproc/props \
    --test props --test props_kernel

echo "== mutation catalog: every scripts/mutants/*.patch is caught by its named check =="
scripts/mutants.sh

echo "== end-to-end benchmark contract (perfbench, its own package) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== bench artifacts: every seeded producer, run twice, emits identical bytes =="
# Each entry: producer command | artifacts it writes. The server row runs
# at 10k connections only; the full sweep below runs once.
BENCH="cargo run --release -p bench --bin"
PRODUCERS=(
    "$BENCH table1|BENCH_table1.json"
    "$BENCH table2|BENCH_table2.json"
    "$BENCH sweeps|BENCH_sweeps.json"
    "$BENCH endpoint_matrix|BENCH_endpoints.json"
    "$BENCH faults|BENCH_faults.json"
    "$BENCH ring|BENCH_ring.json"
    "env SERVER_CONNS=10000 $BENCH server|BENCH_server.json"
    "$BENCH tracedump -- scp_ram|TRACE_scp_ram.json"
    "$BENCH tracedump -- server|TRACE_server.json"
    "$BENCH profile|BENCH_profile.json"
    "$BENCH analyze|REPORT_scp_ram.json REPORT_spool.json REPORT_movie.json REPORT_ring.json REPORT_server.json"
)
FIRST=$(mktemp -d)
for entry in "${PRODUCERS[@]}"; do
    cmd=${entry%%|*}
    artifacts=${entry#*|}
    echo "-- $cmd"
    rm -f $artifacts
    $cmd
    for a in $artifacts; do
        test -s "$a"
        mv "$a" "$FIRST/$a"
    done
    $cmd
    for a in $artifacts; do
        cmp "$FIRST/$a" "$a" ||
            { echo "determinism gate FAILED: $a differs between identical seeded runs"; exit 1; }
    done
done
rm -rf "$FIRST"
echo "-- all producer artifacts identical across runs"

echo "== server sweep (scaled connection counts) =="
cargo run --release -p bench --bin server

echo "== simulator speed table =="
cargo run --release -p bench --bin simspeed

echo "== bench regression gate: artifacts vs committed baselines =="
cargo run --release -p bench --bin benchdiff

echo "ci.sh: all green"
