#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Every file the build and the run write stays
# under .perfbench/ in the current directory (Go build cache included).
set -euo pipefail
# The standard install location, for environments whose PATH lacks Go.
command -v go >/dev/null || export PATH="$PATH:/usr/local/go/bin"
root="$(pwd)"
state="$root/.perfbench"
mkdir -p "$state/home" "$state/tmp"
export HOME="$state/home"
export XDG_CONFIG_HOME="$state/home/.config"
export XDG_CACHE_HOME="$state/home/.cache"
export GOCACHE="$state/gocache"
export GOPATH="$state/gopath"
export GOMODCACHE="$state/gopath/pkg/mod"
export GOTMPDIR="$state/tmp"
export TMPDIR="$state/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$state/perfbench" .)
exec "$state/perfbench" "$@"
