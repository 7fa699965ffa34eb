#!/usr/bin/env bash
# Builds cmd/treecached and the load generator from source, then runs one
# benchmark workload against the built daemon. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, daemon
# state directories, span files) lands under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# With telemetry on (the default "local" mode), the first go command under
# a fresh config dir forks a detached sidecar that outlives the script.
# "go telemetry off" itself never starts it.
go telemetry off >&2

go build -o "$out/bin/treecached" ./cmd/treecached >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" --daemon "$out/bin/treecached" --work "$out" "$@"
