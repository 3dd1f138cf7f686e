#!/usr/bin/env bash
# Mutation catalog: each scripts/mutants/*.patch breaks the program on
# purpose and names, in its `# check:` header line, the `cargo test`
# arguments of the check that must catch it. For every patch this script
# applies it to a scratch copy of the tree, requires the mutant to build,
# and fails unless the named check then fails. Each check must pass on
# the unmutated copy first, so a failure is the mutant's doing.
#
# The copy lives under target/mutants/ with its own target directory, so
# dependencies build once; only the crates a patch touches rebuild.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$PWD
export CARGO_NET_OFFLINE=true
export CARGO_TARGET_DIR="$ROOT/target/mutants/target"
TREE="$ROOT/target/mutants/tree"

check_of() {
    local args
    args=$(sed -n 's/^# check: //p' "$1")
    test -n "$args" || { echo "mutants: $1 has no '# check:' line"; exit 1; }
    echo "$args"
}

# A fresh copy of every tracked and unignored file. `--touch` stamps
# each file now, so nothing built from an earlier run's mutant survives.
rm -rf "$TREE"
mkdir -p "$TREE"
git ls-files -z --cached --others --exclude-standard |
    tar --null -T - -c | tar -x --touch -C "$TREE"
cd "$TREE"

patches=("$ROOT"/scripts/mutants/*.patch)
for p in "${patches[@]}"; do
    # shellcheck disable=SC2046  # the check is a list of cargo arguments
    cargo test -q $(check_of "$p") >/dev/null 2>&1 ||
        { echo "mutants: check of $(basename "$p") fails on the unmutated tree"; exit 1; }
done

failed=0
for p in "${patches[@]}"; do
    name=$(basename "$p" .patch)
    check=$(check_of "$p")
    patch -p1 -F0 -s -N --no-backup-if-mismatch -r - <"$p" ||
        { echo "mutants: $name no longer applies cleanly"; exit 1; }
    # shellcheck disable=SC2086
    if ! cargo test -q --no-run $check >/dev/null 2>&1; then
        echo "mutants: $name does not build"
        failed=1
    # shellcheck disable=SC2086
    elif cargo test -q $check >/dev/null 2>&1; then
        echo "mutants: $name SURVIVED: 'cargo test $check' passed"
        failed=1
    else
        echo "-- $name: killed by 'cargo test $check'"
    fi
    patch -R -p1 -F0 -s --no-backup-if-mismatch -r - <"$p"
done
test "$failed" = 0 || exit 1
echo "mutants: all ${#patches[@]} killed"
