#!/usr/bin/env bash
# Runs the gated benchmarks and writes their machine-readable reports at
# the repo root:
#
#   BENCH_ENGINES.json   (bench/batch_throughput,     ppk-bench-engines-v4)
#   BENCH_TOPOLOGY.json  (bench/topology_sensitivity, ppk-bench-topology-v1)
#   BENCH_FAIRNESS.json  (bench/fairness_matrix,      ppk-bench-fairness-v1)
#   BENCH_EXACT.json     (bench/exact_vs_monte_carlo, ppk-bench-exact-v1)
#
# The engines report covers the {n, k} throughput grid for all four
# engines (agent/jump/batch/sharded), the sampler-setup
# amortization numbers, and the sharded_scale deep-trial block (n = 1e8
# full, 4e6 smoke) whose verdict fingerprints pin the sharded engine's
# bit-determinism across worker counts 1/2/4/8, and the auto_crossover
# block (agent vs jump to stabilization below n = 1024) that gates
# kAuto's small-n pick.
#
# Usage:
#   scripts/run_benchmarks.sh [--smoke]
#                             [--only engines|topology|fairness|exact|serve]
#                             [--reps N] [--build-dir DIR]
#                             [--out FILE] [--topology-out FILE]
#                             [--fairness-out FILE] [--exact-out FILE]
#
#   --smoke         small grids + short budgets (CI-sized, ~seconds)
#   --only WHICH    run just one report (default: both); 'serve' runs the
#                   ppkd end-to-end smoke (scripts/ppkd_smoke.py) instead
#                   of a benchmark -- no JSON report, pass/fail only
#   --reps N        measurements per point, best figure kept (default 1;
#                   use >= 3 when regenerating a committed baseline)
#   --build-dir     build tree holding the bench binaries
#                   (default: ./build, configured+built if missing)
#   --out           engines JSON path (default: BENCH_ENGINES.json)
#   --topology-out  topology JSON path (default: BENCH_TOPOLOGY.json)
#   --fairness-out  fairness JSON path (default: BENCH_FAIRNESS.json)
#   --exact-out     exact JSON path (default: BENCH_EXACT.json)
#
# The fairness report gates interaction COUNTS, not wall-clock times, so
# --reps does not apply to it and any machine can regenerate the
# complete-graph rows bit-identically (live-edge rows are libm-specific).
# The exact report gates solver answers and configuration counts -- also
# machine-independent, so --reps does not apply to it either; --smoke only
# shrinks its ungated Monte-Carlo cross-check.
#
# The committed reports are the regression baselines checked by
# scripts/check_bench_regression.py; regenerate them with a full
# (non-smoke) run on a quiet machine.
#
# Both benches write their JSON atomically (temp + rename) and latch
# SIGINT, so Ctrl-C here finishes the in-flight point, flushes a complete
# report flagged "interrupted": true, and exits 130 (which aborts this
# script before it announces the report as written).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"
out="${repo_root}/BENCH_ENGINES.json"
topology_out="${repo_root}/BENCH_TOPOLOGY.json"
fairness_out="${repo_root}/BENCH_FAIRNESS.json"
exact_out="${repo_root}/BENCH_EXACT.json"
smoke=""
reps="1"
only="both"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) smoke="--smoke"; shift ;;
    --only) only="$2"; shift 2 ;;
    --reps) reps="$2"; shift 2 ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --topology-out) topology_out="$2"; shift 2 ;;
    --fairness-out) fairness_out="$2"; shift 2 ;;
    --exact-out) exact_out="$2"; shift 2 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
done
case "${only}" in
  both|engines|topology|fairness|exact|serve) ;;
  *) echo "--only must be 'engines', 'topology', 'fairness', 'exact' or" \
          "'serve', got '${only}'" >&2
     exit 2 ;;
esac

ensure_built() {
  local bench="$1"
  if [[ ! -x "${build_dir}/bench/${bench}" ]]; then
    echo "== ${bench} not built; configuring ${build_dir} (Release) =="
    cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
    cmake --build "${build_dir}" --target "${bench}"
  fi
}

git_rev="$(git -C "${repo_root}" rev-parse --short HEAD 2>/dev/null || echo unknown)"

if [[ "${only}" == "both" || "${only}" == "engines" ]]; then
  ensure_built batch_throughput
  "${build_dir}/bench/batch_throughput" ${smoke} --reps "${reps}" \
    --json "${out}" --git-rev "${git_rev}"
  echo "== wrote ${out} (git ${git_rev}) =="
fi

if [[ "${only}" == "both" || "${only}" == "topology" ]]; then
  ensure_built topology_sensitivity
  # --threads 0 = one worker per hardware core: the sweep's per-draw rows
  # burn their budget on every wedged trial, so they parallelize well.
  "${build_dir}/bench/topology_sensitivity" ${smoke} --reps "${reps}" \
    --threads 0 --json "${topology_out}" --git-rev "${git_rev}"
  echo "== wrote ${topology_out} (git ${git_rev}) =="
fi

if [[ "${only}" == "both" || "${only}" == "fairness" ]]; then
  ensure_built fairness_matrix
  # --threads 0 = one worker per hardware core: the livelock rows (the
  # negative controls) burn their full interaction budget every trial and
  # parallelize perfectly.  No --reps: every gated figure is an
  # interaction count, not a time, so one measurement is exact.
  "${build_dir}/bench/fairness_matrix" ${smoke} --threads 0 \
    --json "${fairness_out}" --git-rev "${git_rev}"
  echo "== wrote ${fairness_out} (git ${git_rev}) =="
fi

if [[ "${only}" == "both" || "${only}" == "exact" ]]; then
  ensure_built exact_vs_monte_carlo
  # No --reps and no --threads: every gated figure is an exact solver
  # answer or a configuration count, so one single-threaded run suffices
  # on any machine.
  "${build_dir}/bench/exact_vs_monte_carlo" ${smoke} \
    --json "${exact_out}" --git-rev "${git_rev}"
  echo "== wrote ${exact_out} (git ${git_rev}) =="
fi

if [[ "${only}" == "serve" ]]; then
  # The daemon binaries live under tests/, not bench/.
  if [[ ! -x "${build_dir}/tests/ppkd" ]]; then
    echo "== ppkd not built; configuring ${build_dir} (Release) =="
    cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
    cmake --build "${build_dir}" --target ppkd --target conformance_fuzz
  fi
  python3 "${repo_root}/scripts/ppkd_smoke.py" \
    --daemon "${build_dir}/tests/ppkd" \
    --fuzz "${build_dir}/tests/conformance_fuzz" \
    ${smoke:+--quick}
  echo "== ppkd smoke passed =="
fi
