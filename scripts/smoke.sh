#!/usr/bin/env bash
# Runs every registered bench at a reduced scale and fails on the first
# non-zero exit, so bench bit-rot is caught cheaply in CI.
#
# Usage: scripts/smoke.sh [build-dir]   (default: build)
#
# TINPROV_SMOKE_LOG, when set, collects every bench's stdout into that
# file (CI uploads it as the bench-smoke-<compiler> artifact); without
# it output is discarded as before. TINPROV_LAZY_SMOKE_LOG additionally
# captures bench_lazy's output on its own for the per-job bench-lazy
# artifact, and TINPROV_SERVE_SMOKE_LOG does the same for bench_serve's
# serving-latency table. TINPROV_RECORDER_SMOKE_OUT names the file the
# ops-endpoint smoke leaves the Recorder time-series JSON in.
set -euo pipefail

BUILD_DIR="${1:-build}"
export TINPROV_SCALE="${TINPROV_SCALE:-0.1}"
LOG_FILE="${TINPROV_SMOKE_LOG:-/dev/null}"

# Files this script mktemp's, removed on any exit. Paths the caller
# names through TINPROV_*_SMOKE_OUT are theirs to keep and never land
# here.
TEMP_FILES=()
cleanup() {
  if ((${#TEMP_FILES[@]})); then
    rm -f "${TEMP_FILES[@]}"
  fi
}
trap cleanup EXIT

if [[ ! -d "${BUILD_DIR}/bench" ]]; then
  echo "error: ${BUILD_DIR}/bench not found — configure and build first:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

run() {
  local name="$1"
  shift
  local exe="${BUILD_DIR}/bench/${name}"
  if [[ ! -x "${exe}" ]]; then
    echo "--- skipping ${name} (not built)"
    return 0
  fi
  echo "--- ${name} (TINPROV_SCALE=${TINPROV_SCALE})"
  echo "=== ${name} (TINPROV_SCALE=${TINPROV_SCALE}) ===" >>"${LOG_FILE}"
  "${exe}" "$@" >>"${LOG_FILE}"
  echo "    OK"
}

# Pins TINPROV_SCALE for one bench regardless of the caller's value: the
# scalable benches sweep W/C/k grids, so their smoke cost is bounded
# even when someone exports a large scale for the classic benches.
run_pinned() {
  local scale="$1"
  shift
  TINPROV_SCALE="${scale}" run "$@"
}

# Like run, but additionally copies the bench's output into its own file
# when extra_log is non-empty — CI uploads bench_lazy's crossover table
# as a separate per-job artifact without paying a second run.
run_logged() {
  local extra_log="$1"
  shift
  if [[ -z "${extra_log}" ]]; then
    run "$@"
    return
  fi
  local saved_log="${LOG_FILE}"
  LOG_FILE="${extra_log}"
  : >"${extra_log}"
  run "$@"
  LOG_FILE="${saved_log}"
  if [[ "${saved_log}" != "/dev/null" ]]; then
    cat "${extra_log}" >>"${saved_log}"
  fi
}

run bench_datasets
run bench_policies
run bench_cumulative
run_pinned 0.1 bench_selective_grouped
run_pinned 0.1 bench_windowing
run_pinned 0.1 bench_budget
# bench_lazy's query cost is O(queries x stream) per strategy, so its
# smoke scale stays pinned like the scalable sweeps above; its output
# additionally lands in TINPROV_LAZY_SMOKE_LOG when set.
TINPROV_SCALE=0.1 run_logged "${TINPROV_LAZY_SMOKE_LOG:-}" bench_lazy
# bench_parallel replays each preset once per thread count (and each
# shard re-scans the stream), so its smoke scale stays pinned too.
run_pinned 0.1 bench_parallel
# bench_stream replays each preset three times (materialized, streaming,
# streaming+sharded) plus the 1x/4x buffering-flatness check, so its
# smoke scale stays pinned like the other multi-pass harnesses.
run_pinned 0.1 bench_stream
# bench_serve runs one full ingest per reader count with closed-loop
# reader threads, so its smoke scale stays pinned too; its latency table
# additionally lands in TINPROV_SERVE_SMOKE_LOG when set (CI uploads it
# as the per-job bench-serve artifact).
TINPROV_SCALE=0.1 run_logged "${TINPROV_SERVE_SMOKE_LOG:-}" bench_serve
# bench_storage writes and recovers real on-disk logs; pinned so the
# smoke's disk and fsync cost stays bounded.
run_pinned 0.1 bench_storage
run bench_micro --benchmark_min_time=0.01

# Crash-recovery smoke: kill -9 a durable ingest mid-flight and verify
# the restart resumes bit-identically (scripts/crash_smoke.sh drives
# bench_storage's ingest/verify roles). One round per tracker here —
# the dedicated CI step runs the longer loop.
echo "--- crash smoke"
"$(dirname "$0")/crash_smoke.sh" "${BUILD_DIR}" 1

# Observability smoke: the obs unit tests guard the metrics/trace
# exporters the trace check below depends on, so run them first when the
# build has tests at all.
if [[ -f "${BUILD_DIR}/CTestTestfile.cmake" ]]; then
  echo "--- ctest -L obs"
  ctest --test-dir "${BUILD_DIR}" -L obs --output-on-failure
fi

# Ops-endpoint smoke: bench_serve's TINPROV_OPS_PORT mode stands up a
# real ProvenanceService with EnableOpsServer on an ephemeral port and
# holds while this script curls the live endpoints, validating status
# codes and JSON shape with python3. The recorder's time-series JSON
# lands in TINPROV_RECORDER_SMOKE_OUT (CI uploads it per leg).
if [[ -x "${BUILD_DIR}/bench/bench_serve" ]] && command -v curl >/dev/null; then
  echo "--- ops endpoint smoke"
  OPS_PORT_FILE="$(mktemp /tmp/tinprov-ops-port.XXXXXX)"
  TEMP_FILES+=("${OPS_PORT_FILE}" "${OPS_PORT_FILE}.done")
  if [[ -n "${TINPROV_RECORDER_SMOKE_OUT:-}" ]]; then
    RECORDER_OUT="${TINPROV_RECORDER_SMOKE_OUT}"
  else
    RECORDER_OUT="$(mktemp /tmp/tinprov-recorder.XXXXXX.json)"
    TEMP_FILES+=("${RECORDER_OUT}")
  fi
  : >"${OPS_PORT_FILE}"
  rm -f "${OPS_PORT_FILE}.done"
  TINPROV_SCALE=0.05 TINPROV_OPS_PORT=0 \
    TINPROV_OPS_PORT_FILE="${OPS_PORT_FILE}" TINPROV_OPS_HOLD_S=60 \
    TINPROV_RECORDER_OUT="${RECORDER_OUT}" \
    "${BUILD_DIR}/bench/bench_serve" >>"${LOG_FILE}" &
  OPS_PID=$!
  for _ in $(seq 1 150); do
    [[ -s "${OPS_PORT_FILE}" ]] && break
    sleep 0.2
  done
  OPS_PORT="$(tr -d '[:space:]' <"${OPS_PORT_FILE}")"
  if [[ -z "${OPS_PORT}" ]]; then
    echo "error: bench_serve never published its ops port" >&2
    kill "${OPS_PID}" 2>/dev/null || true
    exit 1
  fi
  # curl -f fails the script on any non-2xx status; python3 rejects
  # malformed JSON and missing fields.
  BASE="http://127.0.0.1:${OPS_PORT}"
  curl -fsS "${BASE}/metrics" | grep -q '# TYPE'
  curl -fsS "${BASE}/metricsz" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert "counters" in doc and "gauges" in doc, sorted(doc)
'
  curl -fsS "${BASE}/healthz" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["healthy"] is True, doc
assert "serve.epoch_age" in doc["checks"], sorted(doc["checks"])
assert "ingest.watermark_lag" in doc["checks"], sorted(doc["checks"])
'
  curl -fsS "${BASE}/statusz" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
for key in ("service", "epoch", "publish", "ingest", "queries", "memory",
            "recorder"):
    assert key in doc, f"statusz missing {key}"
assert doc["epoch"]["prefix"] >= 0
assert "publish_ns_p50" in doc["publish"], sorted(doc["publish"])
'
  curl -fsS "${BASE}/tracez?slow=1" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert "queries" in doc, sorted(doc)
assert doc["recorded"] >= 1, doc["recorded"]  # ops mode marks all slow
'
  touch "${OPS_PORT_FILE}.done"
  wait "${OPS_PID}"
  python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["samples"], "recorder exported no samples"
' "${RECORDER_OUT}"
  echo "    OK (port ${OPS_PORT}, recorder ${RECORDER_OUT})"
fi

# Trace smoke: re-run bench_stream with TINPROV_TRACE set and verify the
# exported chrome://tracing JSON parses and covers the ingest spans. The
# shard-replay/exchange spans are only required when this machine can
# actually take the parallel path — bench_stream runs nproc - 1 shard
# workers beside its producer, so a box of 2 CPUs or fewer falls back to
# the sequential replay.
if [[ -n "${TINPROV_TRACE_SMOKE_OUT:-}" ]]; then
  TRACE_FILE="${TINPROV_TRACE_SMOKE_OUT}"
else
  TRACE_FILE="$(mktemp /tmp/tinprov-trace.XXXXXX.json)"
  TEMP_FILES+=("${TRACE_FILE}")
fi
if [[ -x "${BUILD_DIR}/bench/bench_stream" ]]; then
  echo "--- trace smoke (TINPROV_TRACE=${TRACE_FILE})"
  TINPROV_SCALE=0.1 TINPROV_TRACE="${TRACE_FILE}" \
    "${BUILD_DIR}/bench/bench_stream" >>"${LOG_FILE}"
  if [[ -s "${TRACE_FILE}" ]]; then
    python3 - "${TRACE_FILE}" <<'PY'
import json
import os
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
names = {e["name"] for e in events}
assert events, "trace file has no events"
assert "ingest.batch" in names, f"no ingest span in {sorted(names)}"
if (os.cpu_count() or 1) > 2:
    # bench_stream's streaming ReplayStream: one span per worker, plus
    # the exchange that interleaves their label slices.
    assert "replay.worker" in names, f"no worker span in {sorted(names)}"
    assert "replay.exchange" in names, f"no exchange span in {sorted(names)}"
print(f"    OK ({len(events)} events, {len(names)} span names)")
PY
  else
    # A TINPROV_METRICS=OFF build never registers the atexit exporter.
    echo "    skipped (no trace emitted — metrics disabled in this build?)"
  fi
fi

echo "smoke: all registered benches completed"
