#!/usr/bin/env bash
# Regenerates the committed plum-diff baselines under bench/baselines/.
#
# Run this (and commit the result) whenever a deliberate change shifts a
# deterministic bench metric and CI's plum-diff regression gate reports a
# breach. The invocation mirrors the bench-smoke CI job exactly: small
# problem sizes, two engine threads, reports written via
# PLUM_BENCH_JSON_DIR. Wall-clock fields in the reports differ machine to
# machine by construction; plum-diff treats them as report-only, so the
# committed values are only illustrative.
#
# The benches write into a temporary directory. The script first prints
# the non-wall rows of `plum-diff <committed> <fresh>`: exactly the gated
# values that moved, to paste into the change description. A breach does
# not stop the script, since moving the baselines is what it is for. It
# then replaces only what moved: a fresh report is copied when no baseline
# of that name is committed or when plum-diff finds a breach (exit 1) or
# cannot compare the two (exit 2, e.g. after a schema change). A report
# whose only changes are wall-clock values keeps its committed file, so a
# baseline diff carries no wall noise. Committed baselines that no bench
# writes any more are removed.
#
# Usage: tools/regen_baselines.sh [build-dir]   (default: build-baselines)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-baselines}"
out_dir="${repo_root}/bench/baselines"
fresh_dir="$(mktemp -d)"
trap 'rm -rf "${fresh_dir}"' EXIT

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j --target \
  bench_micro bench_fig4 bench_fig5 bench_fig6 bench_table2 bench_distributed \
  plum-diff

# Same flags as .github/workflows/ci.yml bench-smoke.
export PLUM_BENCH_SMALL=1
export PLUM_BENCH_JSON_DIR="${fresh_dir}"
# bench_micro writes BENCH_bench_micro_scope.json (flight-recorder ring
# survival counts are deterministic and gated; ns/event is wall,
# report-only); its arena benchmarks are wall-clock only and write no
# report.
"${build_dir}/bench/bench_micro" --threads 2 \
  --benchmark_filter='ScopeRecorder|Arena' --benchmark_min_time=0.05
"${build_dir}/bench/bench_fig4"
"${build_dir}/bench/bench_fig5"
"${build_dir}/bench/bench_fig6"
"${build_dir}/bench/bench_table2"
"${build_dir}/bench/bench_distributed" --threads 2
# Weak scaling at P=64/128/256/512 (exits 1 unless MaxV accepts at every P
# and traffic per rank stays O(1) in P); modeled metrics are
# transport-invariant (the framed cross-transport tests in ctest pin that
# at P=64).
"${build_dir}/bench/bench_distributed" --weak --threads 2

echo "gated values that moved (plum-diff committed -> fresh, wall rows omitted):"
"${build_dir}/tools/plum-diff/plum-diff" "${out_dir}" "${fresh_dir}" \
  | grep -v '^wall ' || true

mkdir -p "${out_dir}"
for committed in "${out_dir}"/BENCH_*.json; do
  [[ -e "${committed}" ]] || continue
  name="$(basename "${committed}")"
  [[ -e "${fresh_dir}/${name}" ]] || rm -v "${committed}"
done
for fresh in "${fresh_dir}"/BENCH_*.json; do
  name="$(basename "${fresh}")"
  if [[ -e "${out_dir}/${name}" ]] &&
     "${build_dir}/tools/plum-diff/plum-diff" "${out_dir}/${name}" "${fresh}" \
       > /dev/null 2>&1; then
    echo "kept (no gated change): ${name}"
  else
    cp -v "${fresh}" "${out_dir}/${name}"
  fi
done

echo "baselines:"
ls -l "${out_dir}"
