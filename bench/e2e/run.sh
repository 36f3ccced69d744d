#!/usr/bin/env bash
# Build the daemon and the load generator from source, then run the
# end-to-end benchmark. Run from the repository root; every argument is
# passed on (see bench/e2e/README.md).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

if [[ ! -f dune-project || ! -f bin/loopt.ml || ! -d lib/serve ]]; then
  echo "bench/e2e: $root is not a loopt source tree (no dune-project, bin/ or lib/)" >&2
  exit 2
fi

# Keep every build artifact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build ./bin/loopt.exe ./bench/e2e/e2e.exe 1>&2

exec ./_build/default/bench/e2e/e2e.exe "$@"
