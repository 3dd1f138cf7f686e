#!/usr/bin/env bash
# Tier-1 gate, run exactly as CI does: hermetic build + tests, formatting
# and lints as errors, every example binary, and smoke runs of the bench
# binaries proving the BENCH JSON artifacts are written and parseable.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== tier-1: offline release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== crate test suites (whole workspace) =="
cargo test --workspace -q

echo "== rustfmt (check only) =="
cargo fmt --all -- --check

echo "== clippy (workspace, warnings are errors) =="
cargo clippy --workspace -- -D warnings

echo "== examples =="
for ex in quickstart movie_player network_relay framebuffer_stream cpu_availability; do
    echo "-- example: $ex"
    cargo run -q --release --example "$ex"
done

echo "== fault suite, fixed seeds =="
cargo test -q --test faults

echo "== fault suite, randomized seed =="
FAULT_SEED=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
echo "-- FAULT_SEED=$FAULT_SEED"
FAULT_SEED="$FAULT_SEED" cargo test -q --test faults any_seed_transient_faults_recover ||
    { echo "fault suite FAILED with FAULT_SEED=$FAULT_SEED (export it to reproduce)"; exit 1; }
FAULT_SEED="$FAULT_SEED" cargo test -q --test ring ring_runs_are_deterministic_under_fault_seed ||
    { echo "ring suite FAILED with FAULT_SEED=$FAULT_SEED (export it to reproduce)"; exit 1; }

echo "== server scenario suite =="
cargo test -q --test server

echo "== server scenario replay, randomized seed =="
SERVER_SEED=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
echo "-- SERVER_SEED=$SERVER_SEED"
SERVER_SEED="$SERVER_SEED" cargo test -q --test server server_scenario_replays_identically_under_seed ||
    { echo "server suite FAILED with SERVER_SEED=$SERVER_SEED (export it to reproduce)"; exit 1; }

echo "== bench artifacts: every seeded producer, run twice, emits identical bytes =="
# Each entry: producer command | artifacts it writes. The server row runs
# at 10k connections only; the full sweep below runs once.
BENCH="cargo run --release -p bench --bin"
PRODUCERS=(
    "$BENCH table1|BENCH_table1.json"
    "$BENCH table2|BENCH_table2.json"
    "$BENCH endpoint_matrix|BENCH_endpoints.json"
    "$BENCH faults|BENCH_faults.json"
    "$BENCH ring|BENCH_ring.json"
    "env SERVER_CONNS=10000 $BENCH server|BENCH_server.json"
    "$BENCH obs|BENCH_obs.json FLIGHT_server.json"
    "$BENCH tracedump -- scp_ram|TRACE_scp_ram.json"
    "$BENCH tracedump -- server|TRACE_server.json"
    "$BENCH profile|BENCH_profile.json TS_scp_ram.json TS_spool.json TS_movie.json TS_ring.json TS_server.json"
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

echo "== server SLO sweep smoke run (scaled connection counts) =="
rm -f BENCH_server.json
cargo run --release -p bench --bin server
test -s BENCH_server.json

echo "== property suites (differential models, props feature) =="
cargo test -q -p ksim --features props --test props
cargo test -q -p kbuf --features props --test props
cargo test -q --features props --test props_kernel

echo "== simspeed smoke run =="
rm -f BENCH_simspeed.json
cargo run --release -p bench --bin simspeed
test -s BENCH_simspeed.json

# Parse the artifacts with the same in-tree parser the snapshot uses.
cargo test -q --test observability snapshot_json_round_trips
python3 - <<'EOF'
import json

doc = json.load(open("BENCH_table1.json"))
assert doc["table"] == "table1", doc.get("table")
rows = doc["rows"]
assert len(rows) == 3, len(rows)
for row in rows:
    # The paper's availability ordering: splice leaves more CPU to the
    # test program than the copying environment does.
    assert row["scp"]["slowdown"] <= row["cp"]["slowdown"], row
print("BENCH_table1.json: ok (%d rows)" % len(rows))

doc = json.load(open("BENCH_table2.json"))
assert doc["table"] == "table2", doc.get("table")
rows = doc["rows"]
assert len(rows) == 3, len(rows)
for row in rows:
    scp = row["scp"]["metrics"]
    assert scp["copy"]["copyin_bytes"] == 0
    assert scp["copy"]["copyout_bytes"] == 0
    assert len(scp["splice"]["spans"]) >= 1
    for span in scp["splice"]["spans"]:
        # Span schema the dashboards key on: the sampled flow-control
        # series plus the truncation marker.
        assert isinstance(span["samples_truncated"], bool), span
        assert isinstance(span["flow_samples"], (int, float)), span
    assert row["cp"]["metrics"]["copy"]["copyin_bytes"] > 0
print("BENCH_table2.json: ok (%d rows)" % len(rows))

doc = json.load(open("BENCH_endpoints.json"))
assert doc["table"] == "endpoints", doc.get("table")
rows = doc["rows"]
# Every supported pair of the capability table: 3 sources x 4 sinks.
assert len(rows) == 12, len(rows)
for row in rows:
    assert row["kb_per_s"] > 0, row
print("BENCH_endpoints.json: ok (%d rows)" % len(rows))

doc = json.load(open("BENCH_faults.json"))
assert doc["table"] == "faults", doc.get("table")
rows = doc["rows"]
assert len(rows) == 5, len(rows)
base = rows[0]
assert base["rate"] == 0 and base["errors"] == 0 and base["retries"] == 0, base
for row in rows:
    # Transient faults always recover: no row may abort, and every
    # injected error must surface as a retry.
    assert row["aborted"] == 0, row
    assert row["retries"] == row["errors"], row
    if row["rate"] > 0:
        assert row["retries"] > 0, row
    # Recovery stays cheap: within 25% of fault-free throughput.
    assert row["kb_per_s"] >= 0.75 * base["kb_per_s"], row
print("BENCH_faults.json: ok (%d rows)" % len(rows))

# The connection-scale SLO sweep: four nominal counts x three serve
# modes, each row carrying the full latency digest and drop accounting.
# The paper's availability claim at scale: both in-kernel paths leave
# the compute program strictly more CPU than the user-space relay at
# 10k connections and beyond.
doc = json.load(open("BENCH_server.json"))
assert doc["table"] == "server", doc.get("table")
rows = doc["rows"]
assert len(rows) == 12, len(rows)
assert {r["mode"] for r in rows} == {"splice", "ring", "cp-relay"}
for row in rows:
    for key in ("nominal_conns", "conns", "mode", "p50_ms", "p99_ms",
                "p999_ms", "completed", "dropped_backlog", "dropped_rcv_full",
                "lost_link", "snd_blocked", "compute_cpu_share", "elapsed_s"):
        assert key in row, (key, row)
    assert row["completed"] == row["conns"], row
    assert row["p50_ms"] <= row["p99_ms"] <= row["p999_ms"], row
by = {(r["nominal_conns"], r["mode"]): r for r in rows}
for nominal in (10_000, 100_000, 1_000_000):
    relay = by[(nominal, "cp-relay")]["compute_cpu_share"]
    for mode in ("splice", "ring"):
        assert by[(nominal, mode)]["compute_cpu_share"] > relay, \
            (nominal, mode, by[(nominal, mode)]["compute_cpu_share"], relay)
print("BENCH_server.json: ok (%d rows, 10k shares splice %.3f ring %.3f"
      " cp-relay %.3f)"
      % (len(rows), by[(10_000, "splice")]["compute_cpu_share"],
         by[(10_000, "ring")]["compute_cpu_share"],
         by[(10_000, "cp-relay")]["compute_cpu_share"]))

doc = json.load(open("BENCH_ring.json"))
assert doc["table"] == "ring", doc.get("table")
rows = doc["rows"]
# The legacy baseline plus the measured ring depths.
assert [row["depth"] for row in rows] == [0, 1, 8, 64, 256], rows
legacy = rows[0]
ring = rows[1:]
for row in rows:
    for key in ("mode", "crossings", "bytes", "crossings_per_mb",
                "elapsed_s", "copier_cpu_s", "compute_cpu_share"):
        assert key in row, (key, row)
    assert row["crossings"] > 0 and row["bytes"] > 0, row
# Batching must amortise crossings: strictly monotone in ring depth.
per_mb = [row["crossings_per_mb"] for row in ring]
assert all(a > b for a, b in zip(per_mb, per_mb[1:])), per_mb
# Deep rings leave the compute program more CPU than one-at-a-time.
for row in ring:
    if row["depth"] >= 64:
        assert row["compute_cpu_share"] > legacy["compute_cpu_share"], row
# Depth-1 is the equivalence baseline: same protocol, one splice per
# wave, so its copier CPU cost must match legacy within tolerance.
ratio = doc["depth1_vs_legacy_cpu_ratio"]
assert 0.95 <= ratio <= 1.05, ratio
assert abs(ratio - ring[0]["copier_cpu_s"] / legacy["copier_cpu_s"]) < 1e-9, ratio
print("BENCH_ring.json: ok (%d rows, depth-1/legacy cpu ratio %.3f)"
      % (len(rows), ratio))

# The simulator-speed table: the three pinned loops plus the recorded
# pre-refactor baseline. The one hard gate is the timing wheel's live
# speedup over the retained BTreeMap reference — both are measured on
# this host in the same process, so the ratio is machine-independent.
doc = json.load(open("BENCH_simspeed.json"))
assert doc["table"] == "simspeed", doc.get("table")
rows = {r["bench"]: r for r in doc["rows"]}
assert set(rows) == {"callout_churn", "event_churn", "scp_ram_e2e"}, set(rows)
co = rows["callout_churn"]
assert co["ops_per_sec"] > 0 and co["reference_ops_per_sec"] > 0, co
assert co["speedup_vs_btree"] >= 10, co["speedup_vs_btree"]
assert rows["event_churn"]["ops_per_sec"] > 0, rows["event_churn"]
e2e = rows["scp_ram_e2e"]
assert e2e["blocks_per_sec"] > 0, e2e
assert e2e["blocks"] == e2e["runs"] * e2e["file_bytes"] / 8192, e2e
base = doc["meta"]["baseline"]
for key in ("commit", "callout_churn_ops_per_sec",
            "event_churn_ops_per_sec", "scp_ram_blocks_per_sec"):
    assert key in base, key
print("BENCH_simspeed.json: ok (wheel %.0fx over btree reference)"
      % co["speedup_vs_btree"])

# The Chrome trace export: structurally valid and per-track monotone,
# i.e. exactly what Perfetto / chrome://tracing require to load it.
# tracedump runs sampler-free, so the profiler must have left no
# counter ("C") events in it — sampling is a strict opt-in.
doc = json.load(open("TRACE_scp_ram.json"))
events = doc["traceEvents"]
assert isinstance(events, list) and events, "traceEvents empty"
assert not any(ev.get("ph") == "C" for ev in events), \
    "sampler-free trace contains counter events"
last = {}
for ev in events:
    key = (ev["pid"], ev["tid"])
    ts = ev["ts"]
    assert ts >= last.get(key, ts), "ts regressed on track %r" % (key,)
    last[key] = ts
print("TRACE_scp_ram.json: ok (%d events, %d tracks)" % (len(events), len(last)))

# The profiler artifacts: per-stage digests for every workload, the
# accounting-derived contention ordering, and monotone gauge series.
doc = json.load(open("BENCH_profile.json"))
assert doc["table"] == "profile", doc.get("table")
wls = {w["workload"]: w for w in doc["workloads"]}
assert set(wls) == {"scp_ram", "spool", "movie", "ring", "server"}, set(wls)
for stage in ("sqe_wait", "read_queue_wait", "read_service", "read_to_write",
              "write_service", "retry_backoff", "end_to_end"):
    dig = wls["scp_ram"]["stages"][stage]
    for key in ("count", "p50", "p90", "p99"):
        assert key in dig, (stage, key)
    # retry_backoff needs injected faults, sqe_wait the batched ring
    # path — neither fires on the plain scp workload.
    if stage not in ("retry_backoff", "sqe_wait"):
        assert dig["count"] > 0, (stage, dig)
        assert dig["p50"] <= dig["p90"] <= dig["p99"], (stage, dig)
# The batched ring records one admission wait per submitted SQE.
assert wls["ring"]["stages"]["sqe_wait"]["count"] == 256, \
    wls["ring"]["stages"]["sqe_wait"]
cont = doc["contention"]
cp, scp = cont["cp"], cont["scp"]
assert scp["test_cpu_share"] >= cp["test_cpu_share"], cont
assert cont["share_improvement"] >= 1.0, cont
print("BENCH_profile.json: ok (%d workloads, share %.3f -> %.3f)"
      % (len(wls), cp["test_cpu_share"], scp["test_cpu_share"]))

# The observability overhead table: tracing off / head-sampled (the
# resident 1-in-64 default) / full, with the sampled-mode throughput
# cost gated against the budget the bench itself asserts in-binary.
doc = json.load(open("BENCH_obs.json"))
assert doc["table"] == "obs", doc.get("table")
budget = doc["overhead_budget_pct"]
rows = {r["mode"]: r for r in doc["rows"]}
assert set(rows) == {"off", "sampled", "full"}, set(rows)
for row in rows.values():
    for key in ("mode", "sample_period", "requests", "spans_committed",
                "trace_emitted", "events_per_request", "elapsed_s",
                "throughput_rps", "overhead_pct", "compute_cpu_share"):
        assert key in row, (key, row)
assert rows["off"]["spans_committed"] == 0, rows["off"]
assert rows["sampled"]["sample_period"] == 64, rows["sampled"]
assert rows["sampled"]["overhead_pct"] <= budget, \
    (rows["sampled"]["overhead_pct"], budget)
# Head sampling actually samples; full mode commits every request.
assert rows["sampled"]["spans_committed"] < rows["sampled"]["requests"] / 8
assert rows["full"]["spans_committed"] == rows["full"]["requests"]
# The audit rode along: sampled p99 vs the full hist, tail retention.
audit = doc["audit"]
assert audit["pass"], audit
assert {o["law"] for o in audit["outcomes"]} == \
    {"sampling.p99", "sampling.tail_retention"}, audit
print("BENCH_obs.json: ok (sampled overhead %.2f%% of %.0f%% budget)"
      % (rows["sampled"]["overhead_pct"], budget))

# The flight recorder artifact: the frozen trace window around the SLO
# alert, schema-versioned and per-record well-formed.
doc = json.load(open("FLIGHT_server.json"))
assert doc["schema_version"] == 1, doc.get("schema_version")
assert doc["workload"] == "server", doc.get("workload")
alert = doc["alert"]
assert alert["window_viol"] > 0 and alert["window_req"] >= alert["window_viol"]
assert alert["burn_milli"] > 0, alert
recs = doc["records"]
assert recs, "flight froze no records"
seqs = [r["seq"] for r in recs]
assert seqs == sorted(seqs), "flight records out of order"
for r in recs:
    for key in ("seq", "at_ns", "name", "args"):
        assert key in r, (key, r)
assert any(r["name"] == "slo.alert" for r in recs), \
    "the alert itself must be inside its own flight window"
print("FLIGHT_server.json: ok (%d records, burn %d milli)"
      % (len(recs), alert["burn_milli"]))

ts_doc = json.load(open("TS_scp_ram.json"))
samples = ts_doc["samples"]
assert samples, "sampler recorded nothing"
stamps = [s["t_ns"] for s in samples]
assert all(a < b for a, b in zip(stamps, stamps[1:])), "t_ns not monotone"
for s in samples:
    for key in ("inflight_reads", "inflight_writes", "cache_resident",
                "cache_dirty", "cpu_share"):
        assert key in s, (key, s)
print("TS_scp_ram.json: ok (%d samples, monotone)" % len(samples))

# The analysis reports: shared schema envelope, a gap-free decomposition
# whose non-informational components sum to the independently recorded
# end-to-end latency within 1%, and all three queueing-law audits
# passing within their stated tolerances.
for wl in ("scp_ram", "spool", "movie", "ring", "server"):
    doc = json.load(open("REPORT_%s.json" % wl))
    assert doc["schema_version"] == 1, doc.get("schema_version")
    assert doc["meta"]["workload"] == wl, doc.get("meta")
    assert doc["meta"]["expected_bytes"] > 0, doc["meta"]
    d = doc["decomposition"]
    assert d["blocks"] > 0 and d["partial_spans"] == 0, (wl, d)
    cl = d["closure"]
    assert cl["tolerance"] <= 0.01, (wl, cl)
    assert cl["pass"] and cl["rel_error"] <= cl["tolerance"], (wl, cl)
    comp = sum(r["total_ns"] for r in d["table"] if not r["informational"])
    assert comp == cl["components_ns"], (wl, comp, cl)
    laws = {a["law"] for a in doc["audits"]["outcomes"]}
    assert {"little.inflight_reads", "little.inflight_writes",
            "byte_conservation"} <= laws, (wl, laws)
    assert any(l.startswith("utilization.") for l in laws), (wl, laws)
    assert doc["audits"]["pass"], (wl, doc["audits"])
    for a in doc["audits"]["outcomes"]:
        assert a["pass"], (wl, a)
    print("REPORT_%s.json: ok (dominant %s, closure %.4f%%, %d audits)"
          % (wl, d["dominant"], cl["rel_error"] * 100,
             len(doc["audits"]["outcomes"])))
EOF

echo "== bench regression gate: artifacts vs committed baselines =="
cargo run --release -p bench --bin benchdiff

echo "ci.sh: all green"
