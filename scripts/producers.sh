# shellcheck shell=bash
# The seeded bench producers, sourced by scripts/ci.sh and
# scripts/artifacts_vs.sh. Each entry is `command|artifacts`: the command
# writes the space-separated artifacts into the current directory. The
# server row runs at 10k connections only.
BENCH="cargo run --release -p bench --bin"
# shellcheck disable=SC2034  # read by the sourcing script
PRODUCERS=(
    "$BENCH table1|BENCH_table1.json"
    "$BENCH table2|BENCH_table2.json"
    "$BENCH sweeps|BENCH_sweeps.json"
    "$BENCH endpoint_matrix|BENCH_endpoints.json"
    "$BENCH faults|BENCH_faults.json"
    "env SERVER_CONNS=10000 $BENCH server|BENCH_server.json"
    "$BENCH tracedump -- scp_ram|TRACE_scp_ram.json"
    "$BENCH tracedump -- server|TRACE_server.json"
    "$BENCH profile|BENCH_profile.json"
    "$BENCH analyze|REPORT_scp_ram.json REPORT_spool.json REPORT_movie.json REPORT_server.json"
)
