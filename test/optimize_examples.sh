#!/usr/bin/env bash
# Runs `loopt optimize --stats` at n = 16, steps 2, one domain, on every
# e2e nest x both objectives and prints each run's output and exit
# status, without the wall-clock `time:` lines. CI diffs the result
# against test/optimize_examples.expected, so a change to a winner, a
# search counter, the exact tier's stream coverage (`memsim stream`) or
# the root's Fourier-Motzkin calls shows up as a diff.
#
# Usage: bash test/optimize_examples.sh [path/to/loopt.exe]
set -u
cd "$(dirname "$0")/.."
loopt=${1:-./_build/default/bin/loopt.exe}
for nest in bench/e2e/nests/*.loop; do
  for objective in locality parallel; do
    echo "### optimize --objective $objective $nest"
    "$loopt" optimize --stats --domains 1 -p n=16 --steps 2 \
      --objective "$objective" "$nest" 2>&1 | grep -v '^time:'
    echo "### exit ${PIPESTATUS[0]}"
  done
done
