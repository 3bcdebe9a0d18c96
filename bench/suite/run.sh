#!/usr/bin/env bash
# Builds ompcbench from this checkout's sources (Release, into
# bench/suite/build-release) and runs it.
#
#   bench/suite/run.sh [--workload NAME] [--seed N] [--trace 0|1|FILE]
#                      [--out FILE]
#   bench/suite/run.sh --selftest
#
# Without --workload every workload runs in turn, each in its own process;
# a trace FILE then becomes FILE.<workload>.json, one per workload. Each run
# prints `workload metric value unit n=N` lines and, last, its result
# object; the script exits non-zero when any run fails its oracle or
# throws. Build output goes to bench/suite/build-release/build.log.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$here/build-release"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src/core" ]]; then
  echo "run.sh: the runtime sources are not in $root" >&2
  exit 2
fi

mkdir -p "$build"
jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4
if ! {
  [[ -f "$build/CMakeCache.txt" ]] ||
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" -j "$jobs"
} >"$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  echo "run.sh: build failed (log: $build/build.log)" >&2
  exit 3
fi

bin="$build/ompcbench"
for arg in "$@"; do
  if [[ "$arg" == "--workload" || "$arg" == "--selftest" || "$arg" == "--list" ]]; then
    exec "$bin" "$@"
  fi
done

status=0
for workload in $("$bin" --list); do
  args=()
  prev=""
  for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" != 0 && "$arg" != 1 ]]; then
      args+=("$arg.$workload.json")
    else
      args+=("$arg")
    fi
    prev="$arg"
  done
  "$bin" --workload "$workload" ${args[@]+"${args[@]}"} || status=1
done
exit "$status"
