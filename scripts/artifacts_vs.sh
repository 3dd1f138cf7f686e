#!/usr/bin/env bash
# Byte-identity check against another revision: exports <rev> under
# target/artifacts_vs/, runs every seeded producer of scripts/producers.sh
# on that tree and on the working tree, and `cmp`s each artifact pair
# (BENCH_*, REPORT_* and TRACE_* alike). A change that must not move any
# simulated value passes only if every artifact is identical.
#
# Usage: scripts/artifacts_vs.sh <rev>      e.g. scripts/artifacts_vs.sh HEAD~
#
# The export is a plain `git archive` of <rev> (no worktree is
# registered) with its own target directory, so dependencies build once
# across runs. Both trees are run with the producer list of the working
# tree.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$PWD
rev=${1:?usage: scripts/artifacts_vs.sh <rev>}
commit=$(git rev-parse --verify "$rev^{commit}")
export CARGO_NET_OFFLINE=true

# shellcheck source=scripts/producers.sh
. scripts/producers.sh

WORK="$ROOT/target/artifacts_vs"
rm -rf "$WORK/tree" "$WORK/base" "$WORK/head"
mkdir -p "$WORK/tree" "$WORK/base" "$WORK/head"
git archive "$commit" | tar -x -C "$WORK/tree"

# run_producers <tree> <target dir> <output dir>
run_producers() {
    local entry cmd artifacts a
    for entry in "${PRODUCERS[@]}"; do
        cmd=${entry%%|*}
        artifacts=${entry#*|}
        echo "-- [$1] $cmd"
        # shellcheck disable=SC2086  # artifact lists and commands split on spaces
        (cd "$1" && rm -f $artifacts && CARGO_TARGET_DIR="$2" $cmd >/dev/null)
        for a in $artifacts; do
            test -s "$1/$a" || { echo "artifacts_vs: $cmd wrote no $a in $1"; exit 1; }
            cp "$1/$a" "$3/$a"
        done
    done
}

echo "== $rev ($commit) =="
run_producers "$WORK/tree" "$WORK/target" "$WORK/base"
echo "== working tree =="
run_producers "$ROOT" "$ROOT/target" "$WORK/head"

differ=0
n=0
for entry in "${PRODUCERS[@]}"; do
    for a in ${entry#*|}; do
        n=$((n + 1))
        if cmp -s "$WORK/base/$a" "$WORK/head/$a"; then
            echo "identical  $a"
        else
            echo "DIFFERS    $a"
            differ=$((differ + 1))
        fi
    done
done
test "$differ" = 0 || { echo "artifacts_vs: $differ of $n artifacts differ from $rev"; exit 1; }
echo "artifacts_vs: all $n artifacts identical to $rev"
