#!/usr/bin/env bash
# Kill-loop crash test: repeatedly kill -9 a durable ingest mid-flight,
# then recover the directory it left behind and verify the contract —
# the trusted log is an exact prefix of the stream, the recovered
# tracker state is bit-identical to a clean replay of that prefix, and
# a service restarted over the directory answers historical queries
# like clean prefix replays (bench_storage's TINPROV_CRASH_ROLE=
# ingest/verify modes do the work).
#
# Usage: scripts/crash_smoke.sh [build-dir] [rounds]
#   build-dir  default: build
#   rounds     kill-9 iterations per tracker (default 3)
#
# Environment:
#   TINPROV_SCALE             dataset scale (default 0.1)
#   TINPROV_CRASH_SPECS       space-separated tracker names to cycle
#                             (default "Prop-sparse FIFO Windowed")
#   TINPROV_CRASH_ARTIFACTS   on failure, the durable dir (log segments,
#                             snapshots, MANIFEST.txt, diff-*.bin) is
#                             moved here for CI upload (default
#                             crash-artifacts)
set -uo pipefail

BUILD_DIR="${1:-build}"
ROUNDS="${2:-3}"
export TINPROV_SCALE="${TINPROV_SCALE:-0.1}"
SPECS="${TINPROV_CRASH_SPECS:-Prop-sparse FIFO Windowed}"
ARTIFACTS="${TINPROV_CRASH_ARTIFACTS:-crash-artifacts}"
BENCH="${BUILD_DIR}/bench/bench_storage"

if [[ ! -x "${BENCH}" ]]; then
  echo "error: ${BENCH} not found — configure and build first" >&2
  exit 1
fi

fail() {
  local dir="$1"
  shift
  echo "crash_smoke: FAILED — $*" >&2
  mkdir -p "${ARTIFACTS}"
  mv "${dir}" "${ARTIFACTS}/" 2>/dev/null || true
  echo "crash_smoke: durable dir preserved under ${ARTIFACTS}/" >&2
  exit 1
}

round=0
for spec in ${SPECS}; do
  for i in $(seq 1 "${ROUNDS}"); do
    round=$((round + 1))
    DIR="$(mktemp -d /tmp/tinprov-crash.XXXXXX)/log"
    # Stagger the kill so different rounds die in different phases:
    # early (first segment), mid-stream, and near/after the drain.
    DELAY_MS=$((50 + (round * 97) % 400))

    TINPROV_CRASH_ROLE=ingest TINPROV_CRASH_DIR="${DIR}" \
      TINPROV_CRASH_SPEC="${spec}" TINPROV_CRASH_THROTTLE_US=1500 \
      "${BENCH}" >/dev/null 2>&1 &
    PID=$!
    # Busy-poll instead of a plain sleep: if the ingest drains before
    # the delay elapses, that round degenerates to a clean-shutdown
    # check, which is also worth verifying.
    for _ in $(seq 1 $((DELAY_MS / 10))); do
      kill -0 "${PID}" 2>/dev/null || break
      sleep 0.01
    done
    if kill -9 "${PID}" 2>/dev/null; then
      verdict="killed at ~${DELAY_MS}ms"
    else
      verdict="drained before the kill"
    fi
    wait "${PID}" 2>/dev/null

    OUT="$(TINPROV_CRASH_ROLE=verify TINPROV_CRASH_DIR="${DIR}" \
      TINPROV_CRASH_SPEC="${spec}" "${BENCH}" 2>&1)" ||
      fail "${DIR}" "round ${round} (${spec}, ${verdict}): ${OUT}"
    echo "crash_smoke: round ${round} ${spec} (${verdict}): ${OUT##*$'\n'}"
    rm -rf "$(dirname "${DIR}")"
  done
done

echo "crash_smoke: all $((round)) kill/recover rounds verified"
