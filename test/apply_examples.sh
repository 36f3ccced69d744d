#!/usr/bin/env bash
# Runs `loopt apply -v` on every example script x nest pair and prints
# each pair's output and exit status. CI diffs the result against
# test/apply_examples.expected, so a change to a legality verdict, a
# per-stage vector set or a generated nest shows up as a diff.
#
# Usage: bash test/apply_examples.sh [path/to/loopt.exe]
set -u
cd "$(dirname "$0")/.."
loopt=${1:-./_build/default/bin/loopt.exe}
for seq in examples/nests/*.seq; do
  for nest in examples/nests/*.loop; do
    echo "### apply -v $nest $seq"
    "$loopt" apply -v "$nest" "$seq" 2>&1
    echo "### exit $?"
  done
done
