#!/usr/bin/env bash
# The mutation ledger: each tests/mutants/*.patch breaks one guarantee the
# code states, and names in its header the test that must notice:
#
#   Test: <arguments to `cargo test --release`>
#
# For every patch this script applies it with `git apply`, builds and runs
# only that test in release, and reverts the patch. It fails when a patch no
# longer applies, when the mutated tree does not build, or when the named
# test passes — the mutant survived, so the test no longer guards what the
# patch breaks. Run it from a clean checkout: ./scripts/mutants.sh
set -uo pipefail
cd "$(git rev-parse --show-toplevel)" || exit 1

applied=""
revert() {
    if [ -n "$applied" ]; then
        git apply -R "$applied"
        applied=""
    fi
}
trap revert EXIT

status=0
for patch in tests/mutants/*.patch; do
    args=$(sed -n 's/^Test: //p' "$patch" | head -n 1)
    if [ -z "$args" ]; then
        echo "$patch: no 'Test:' header line"
        status=1
        continue
    fi
    if ! git apply --check "$patch"; then
        echo "$patch: no longer applies to this tree"
        status=1
        continue
    fi
    git apply "$patch"
    applied=$patch
    # Word splitting of $args is intended: it is a cargo argument list.
    # shellcheck disable=SC2086
    if ! cargo test --release --no-run -q $args; then
        echo "$patch: the mutated tree does not build"
        status=1
    # shellcheck disable=SC2086
    elif cargo test --release -q $args; then
        echo "SURVIVED $patch: \`cargo test --release $args\` passed"
        status=1
    else
        echo "killed   $patch"
    fi
    revert
done
exit $status
