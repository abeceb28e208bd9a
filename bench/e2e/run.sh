#!/usr/bin/env bash
# End-to-end benchmark of the paper's workloads through QueryEngine; see
# bench/e2e/README.md.
#
#   bench/e2e/run.sh                      full pass over every workload
#   bench/e2e/run.sh --traced             traced pass: per-layer metrics
#   bench/e2e/run.sh --quick              smoke pass: tiny corpora, ~2 s each
#   bench/e2e/run.sh --repeat N           N full passes (seeds 1..N)
#   bench/e2e/run.sh compare PARENT CHANGE
#                                         compare two sets of result files
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; the last stdout line is
#                                         the JSON result
#
# Pass options: --seed N (first seed, default 1), --seconds S (default:
# run_seconds of BENCHMARK.json), --out DIR (default
# .bench_build/results/<time>). mdseq_e2e is built on first use into
# .bench_build/e2e at the repository root; build output goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
work="$root/.bench_build/work"
workloads=(filter_mem verified_disk_cold sharded4_filter live_ingest_verified)

usage() {
  awk 'NR > 1 && /^#/ { sub(/^# ?/, ""); print; next } NR > 1 { exit }' \
    "${BASH_SOURCE[0]}"
}

if [[ "${1:-}" == compare ]]; then
  shift
  exec python3 "$here/compare.py" compare \
    --benchmark "$root/BENCHMARK.json" "$@"
fi

workload="" seed=1 seconds="" trace=0 quick=0 repeat=1 out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    --quick) quick=1; shift ;;
    --repeat) repeat="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    -h|--help) usage; exit 0 ;;
    *) echo "run.sh: unknown argument: $1" >&2; usage >&2; exit 2 ;;
  esac
done
if [[ -z "$seconds" ]]; then
  seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' \
    "$root/BENCHMARK.json" 2>/dev/null || true)"
  seconds="${seconds:-20}"
  if [[ $quick == 1 ]]; then seconds=2; fi
fi

if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
  generator=()
  if command -v ninja >/dev/null; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target mdseq_e2e -j "$(nproc)" >&2

commit=unknown
if [[ -d "$root/.git" ]]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
args=(--seconds "$seconds" --trace "$trace" --workdir "$work"
      --commit "$commit")
if [[ $quick == 1 ]]; then args+=(--quick); fi

if [[ -n "$workload" ]]; then
  exec "$build/mdseq_e2e" --workload "$workload" --seed "$seed" "${args[@]}"
fi

out="${out:-$root/.bench_build/results/$(date +%Y%m%d-%H%M%S)}"
status=0
for ((i = 0; i < repeat; i++)); do
  s=$((seed + i))
  dir="$out"
  if [[ $repeat -gt 1 ]]; then dir="$out/run-$s"; fi
  mkdir -p "$dir"
  for w in "${workloads[@]}"; do
    if ! "$build/mdseq_e2e" --workload "$w" --seed "$s" "${args[@]}" \
        --result-out "$dir/$w.json" | grep -v '^{'; then
      echo "run.sh: $w (seed $s) failed" >&2
      status=1
    fi
  done
done
echo "results: $out"
exit "$status"
