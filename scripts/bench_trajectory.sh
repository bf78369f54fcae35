#!/usr/bin/env bash
# Perf-trajectory snapshot: runs the key benchmarks with JSON output and
# consolidates them into one machine-readable file at the repo root
# (BENCH_pr<N>.json) so future PRs can diff against a recorded baseline
# instead of prose numbers in commit messages.
#
# Covered surfaces: E1 extent scan (query model) plus the batch-size-256
# vs batch-size-1 scan pair, E2 class-hierarchy index lookups, E3 nested
# index / residual-fetch batch-size pair, E4 traversal / cached
# point gets (object cache A/B), E5 durable commit throughput (untraced
# and with the flight recorder armed -- the delta is the tracing
# overhead), E7 lock granularity / per-class writer scaling, E12 OQL vs
# relational join plans (the shape the cost-based optimizer must rank),
# the buffer-pool hit/miss/readahead sweep, the E13 soak monitor
# whose per-window commit p99 trajectory (p99_w<i> counters, parsed from
# the MetricsReporter JSONL) lands in the consolidated file, and the E14
# served loadgen (N pipelined wire connections of mixed traffic against
# kimdb_server -- its group_commit_batch_mean at >= 8 connections is the
# ISSUE 10 acceptance number, with request p50/p95/p99).
#
# Usage: scripts/bench_trajectory.sh [build-dir] [out-file]
#   build-dir defaults to build; out-file to $KIMDB_BENCH_OUT, falling
#   back to BENCH_pr10.json (bump the default when a PR re-records the
#   trajectory). Prior snapshots (BENCH_pr5.json, ...) stay in the tree
#   for diffing.
# Benchmarks not built in the tree are skipped with a warning, and the
# consolidated file records which ran. Filters keep the wall time sane;
# pass KIMDB_BENCH_FILTER_<NAME>= to override one benchmark's filter.
set -uo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT="${2:-${KIMDB_BENCH_OUT:-BENCH_pr10.json}}"

TMPDIR_BENCH="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_BENCH"' EXIT

run_bench() {
  # run_bench <binary> <filter> [suite-name] [extra-args...]: suite-name
  # lets one binary contribute several datapoints (e.g. E4 at two cache
  # budgets); extra-args pass straight to the benchmark binary.
  local name="$1" filter="$2" suite="${3:-$1}"
  shift; shift; [[ $# -gt 0 ]] && shift
  local bin="$BUILD_DIR/bench/$name"
  if [[ ! -x "$bin" ]]; then
    echo "WARN: $bin not built; skipping" >&2
    return 0
  fi
  echo "== $suite (filter: ${filter:-all})" >&2
  local args=(--benchmark_format=json "$@")
  [[ -n "$filter" ]] && args+=("--benchmark_filter=$filter")
  if ! "$bin" "${args[@]}" > "$TMPDIR_BENCH/$suite.json" 2> "$TMPDIR_BENCH/$suite.err"; then
    echo "WARN: $suite failed:" >&2
    cat "$TMPDIR_BENCH/$suite.err" >&2
    rm -f "$TMPDIR_BENCH/$suite.json"
  fi
}

run_bench bench_e1_query_model    "${KIMDB_BENCH_FILTER_E1:-BM_SingleClassScope_Simple}"
# Batch-size pairs (E1 scan, E3 residual fetch; size 1 runs the same
# batch operators one row at a time): recorded with
# repetitions + random interleaving so a noisy host cannot flip the
# comparison -- the medians are the numbers DESIGN.md §16 quotes.
PAIR_ARGS=(--benchmark_repetitions=5 --benchmark_enable_random_interleaving=true
           --benchmark_report_aggregates_only=true)
run_bench bench_e1_query_model    "BM_Scan_BatchSize" bench_e1_batch_pair "${PAIR_ARGS[@]}"
# E2/E3: the plan shapes the cost-based optimizer pins (class-hierarchy
# index lookup, nested index + residual), with the E3 batch-size
# residual-fetch pair quantifying the NextBatch protocol.
run_bench bench_e2_ch_index       "${KIMDB_BENCH_FILTER_E2:-BM_Lookup_ClassHierarchyIndex}"
run_bench bench_e3_nested_index   "${KIMDB_BENCH_FILTER_E3:-BM_NestedIndex/}"
run_bench bench_e3_nested_index   "BM_NestedIndexResidual_BatchSize" bench_e3_batch_pair "${PAIR_ARGS[@]}"
# E12: OQL against its relational equivalents -- the optimizer's eq-vs-
# range and index-vs-scan pricing plays out on this fleet.
run_bench bench_e12_oql_vs_rel    "${KIMDB_BENCH_FILTER_E12:-(BM_OqlWithIndexes|BM_OqlExtentScan|BM_RelIndexedJoinPlan)}"
run_bench bench_e4_swizzling      "${KIMDB_BENCH_FILTER_E4:-(BM_PointGet|BM_Traversal_OidLookup|BM_ConcurrentGet)}"
run_bench bench_e5_oo1            "${KIMDB_BENCH_FILTER_E5:-BM_Oo1DurableCommit}"
# E7: per-class writer scaling (distinct-class vs same-class writers) and
# reader latency under a full-speed writer.
run_bench bench_e7_locking        "${KIMDB_BENCH_FILTER_E7:-(BM_MultiClassWriters|BM_ConcurrentGet_WithWriter)}"
# E13: fixed-duration soak (KIMDB_SOAK_SECONDS, default 4s) emitting the
# per-window commit p99s the reporter recorded.
run_bench bench_e13_soak          "${KIMDB_BENCH_FILTER_E13:-BM_SoakCommitQuery}"
# E14: served multi-client loadgen over the wire protocol. The /8 and /16
# rows carry group_commit_batch_mean + fsyncs_per_commit (the WAL group
# commit fed by independent connections) and req_p50/p95/p99_us.
run_bench bench_e14_loadgen       "${KIMDB_BENCH_FILTER_E14:-(BM_ServedMixedLoad|BM_ServedPipelinedGets)}"
run_bench bench_buffer_pool       "${KIMDB_BENCH_FILTER_BP:-(BM_Fetch_HitHeavy|BM_SequentialSweep)}"
# E8: object-cache capacity. The default 4 MiB budget thrashes a 20k-object
# working set (oc-hit ratio ~0.716 on the cached-get workloads); the same
# workloads at 32 MiB quantify what a right-sized cache buys.
KIMDB_OBJECT_CACHE_BYTES="${KIMDB_BENCH_E8_CACHE_BYTES:-33554432}" \
  run_bench bench_e4_swizzling "${KIMDB_BENCH_FILTER_E8:-(BM_PointGet|BM_ConcurrentGet)}" bench_e8_cache_32m

python3 - "$OUT" "$TMPDIR_BENCH" <<'EOF'
import json
import os
import sys

out_path, tmpdir = sys.argv[1], sys.argv[2]
consolidated = {"schema": "kimdb-bench-trajectory-v1", "suites": {}}
for fname in sorted(os.listdir(tmpdir)):
    if not fname.endswith(".json"):
        continue
    suite = fname[: -len(".json")]
    with open(os.path.join(tmpdir, fname)) as f:
        data = json.load(f)
    consolidated["suites"][suite] = {
        "context": data.get("context", {}),
        "benchmarks": data.get("benchmarks", []),
    }
if not consolidated["suites"]:
    print("ERROR: no benchmark produced output", file=sys.stderr)
    sys.exit(1)
with open(out_path, "w") as f:
    json.dump(consolidated, f, indent=1, sort_keys=True)
    f.write("\n")
n = sum(len(s["benchmarks"]) for s in consolidated["suites"].values())
print(f"bench_trajectory OK: {len(consolidated['suites'])} suite(s), "
      f"{n} benchmark(s) -> {out_path}")
EOF
