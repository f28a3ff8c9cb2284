#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload lookup|query|churn --seed N --seconds S --trace 0|1
#
# Every file the build and the run write lands under .bench_build at the
# root of the checkout (Go build cache, temporary files, the binary, the
# durable overlay directory of the churn workload and the span dumps of a
# traced run). The build fails, and the script exits non-zero without
# printing a result, when the dlpt module is not beside this directory.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/gopath"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

# The benchmark runs on one CPU: the last one this process may use. Its
# Go runtime has one P either way (see main.go); pinned, its threads
# also stay on one CPU instead of waking each other across two, so those
# wake-ups are not part of what is measured (README.md, "One CPU").
# Without taskset it runs unpinned.
cd "$root"
cpus="$(taskset -cp $$ 2>/dev/null | sed 's/.*: *//')" || cpus=""
if [ -n "$cpus" ]; then
	cpu="${cpus##*[-,]}"
	echo "perfbench: pinned to CPU $cpu of $cpus" >&2
	exec taskset -c "$cpu" "$build/perfbench" "$@"
fi
echo "perfbench: no taskset, running unpinned" >&2
exec "$build/perfbench" "$@"
