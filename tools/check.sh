#!/bin/sh
# One-command verification: the tier-1 build + test suite, one fuzz sweep
# over every differential axis plus the regression corpus, bench smokes and
# a dbpcd end-to-end smoke, then the concurrency-sensitive service and
# daemon tests again under ThreadSanitizer, the storage, engine, sorting,
# dump, data-copy, transformation, facade and wire-facing tests under
# AddressSanitizer, and the store, database, index, sorting, relational and
# wire-facing tests under UndefinedBehaviorSanitizer.
#
#   tools/check.sh [jobs]
#
# Build trees: build/ (plain), build-tsan/ (-DDBPC_SANITIZE=thread),
# build-asan/ (-DDBPC_SANITIZE=address) and build-ubsan/
# (-DDBPC_SANITIZE=undefined); see the DBPC_SANITIZE option in the
# top-level CMakeLists.txt.
set -eu

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc 2>/dev/null || echo 2)}"

echo "== tier-1: configure + build + ctest (build/, ${JOBS} jobs) =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== facade: tools/ and examples/ stay behind the public API =="
# The only src/ headers a facade consumer may include are the facade
# itself and the public request/response types. (tests/testing fixtures
# are not src/ modules and stay allowed.)
BAD_INCLUDES="$(grep -RnE '#include "[a-z_]+/' tools/*.cc examples/*.cpp \
  | grep -vE '#include "(api/dbpc\.h|api/types\.h|testing/)' || true)"
if [ -n "$BAD_INCLUDES" ]; then
  echo "facade lint: tools/ and examples/ must include only api/dbpc.h or"
  echo "api/types.h from src/. Offending includes:"
  echo "$BAD_INCLUDES"
  exit 1
fi
echo "facade lint ok"

# One sweep runs every axis (rewrite, emulation, bridge, optimizer, index,
# columnar, cache, trace) on each case; see the axis table in
# src/fuzz/driver.cc.
echo "== fuzz: fixed-seed sweep over every axis + regression corpus =="
./build/tools/dbpc_fuzz --seed 1 --iterations 200
for repro in samples/fuzz-regressions/*.repro; do
  ./build/tools/dbpc_fuzz --replay "$repro"
done

echo "== observability: span trace + provenance on the company example =="
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
./build/tools/dbpcc --schema samples/company.ddl --plan samples/fig44.plan \
  --provenance --trace-json "$TRACE_DIR/trace.json" \
  samples/sales_report.cpl samples/seniors.cpl \
  > "$TRACE_DIR/provenance.txt"
python3 tools/validate_trace.py "$TRACE_DIR/trace.json" \
  "$TRACE_DIR/provenance.txt"

echo "== bench: cost-based optimizer sanity (E10 --smoke) =="
./build/bench/bench_optimizer --smoke

echo "== bench: indexed access-path sanity (E11 --smoke) =="
./build/bench/bench_index_paths --smoke

echo "== bench: daemon load sanity (E13/E16 --smoke) =="
./build/bench/bench_daemon --smoke

echo "== bench: columnar bulk translation sanity (E14 --smoke) =="
./build/bench/bench_data_translation --smoke

echo "== bench: conversion cache sanity (E15 --smoke) =="
./build/bench/bench_conversion_cache --smoke

# The end-to-end smoke: dbpcd must serve a mixed burst and an open-loop
# (fixed offered rate) dbpc_load leg, which measures latency from each
# request's scheduled send instant — the coordinated-omission-corrected
# view — and then drain cleanly on SIGTERM.
echo "== daemon: dbpcd end-to-end smoke =="
./build/tools/dbpcd --schema samples/company.ddl --plan samples/fig44.plan \
  --port 0 --port-file "$TRACE_DIR/dbpcd.port" --jobs 4 \
  --admin-port 0 --admin-port-file "$TRACE_DIR/dbpcd.admin.port" \
  --slow-request-ms 2000 --drain-linger-ms 2000 \
  --metrics-json "$TRACE_DIR/dbpcd.metrics.json" \
  2> "$TRACE_DIR/dbpcd.log" &
DBPCD_PID=$!
PORT=""
for _ in $(seq 1 100); do
  [ -s "$TRACE_DIR/dbpcd.port" ] && { PORT="$(cat "$TRACE_DIR/dbpcd.port")"; break; }
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "dbpcd smoke: daemon did not report a port"
  cat "$TRACE_DIR/dbpcd.log"
  kill "$DBPCD_PID" 2>/dev/null || true
  exit 1
fi
ADMIN_PORT="$(cat "$TRACE_DIR/dbpcd.admin.port")"
# A short mixed burst (10% malformed payloads exercise the failed-job
# path); dbpc_load exits nonzero if any request went unanswered, and the
# --scrape-url leg folds the daemon-side queue depth and conversions/sec
# into its report.
./build/tools/dbpc_load --port "$PORT" --connections 16 --duration-ms 1000 \
  --malformed-pct 10 --trace-pct 5 --quiet \
  --scrape-url "http://127.0.0.1:$ADMIN_PORT" \
  --report "$TRACE_DIR/dbpc_load.json"
./build/tools/dbpc_load --port "$PORT" --connections 8 \
  --duration-ms 1000 --rps 200 --open-loop --quiet \
  --report "$TRACE_DIR/dbpc_load_open.json"
# The admin plane serves well-formed Prometheus exposition with every
# operational family, a healthy /healthz + /readyz, and JSON /varz.
python3 tools/validate_metrics.py --base "http://127.0.0.1:$ADMIN_PORT"
# Graceful shutdown under SIGTERM must drain every admitted job (exit 0)
# and keep /readyz scrapeable — answering 503 — through the
# --drain-linger-ms lame-duck window.
kill -TERM "$DBPCD_PID"
python3 tools/validate_metrics.py --base "http://127.0.0.1:$ADMIN_PORT" \
  --readyz-only --readyz-expect 503 --retries 40
wait "$DBPCD_PID"
grep -q "drained" "$TRACE_DIR/dbpcd.log"
grep -q "io=epoll" "$TRACE_DIR/dbpcd.log"
grep -q "daemon_started" "$TRACE_DIR/dbpcd.log"
grep -q "drain_started" "$TRACE_DIR/dbpcd.log"
# The metrics snapshot and the load report must both be valid JSON.
python3 - "$TRACE_DIR/dbpcd.metrics.json" "$TRACE_DIR/dbpc_load.json" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        json.load(f)
print("daemon smoke: metrics and load report parse as JSON")
EOF

echo "== tsan: service and daemon tests under -DDBPC_SANITIZE=thread (build-tsan/) =="
cmake -B build-tsan -S . -DDBPC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" \
  --target service_test worker_pool_test metrics_test log_test \
           sock_buffer_test daemon_test reactor_test admin_test store_test \
           extent_test template_cache_test
(cd build-tsan/tests/service && ./worker_pool_test && ./service_test)
(cd build-tsan/tests/common && ./metrics_test && ./log_test)
(cd build-tsan/tests/daemon && ./sock_buffer_test && ./daemon_test \
  && ./reactor_test && ./admin_test)
(cd build-tsan/tests/storage && ./store_test && ./extent_test)
(cd build-tsan/tests/convert && ./template_cache_test)

# The wire-facing tests: everything that parses bytes from a peer, plus the
# session teardown that runs through shared_ptr/weak_ptr wakes.
WIRE_TESTS="protocol_test sock_buffer_test daemon_options_test daemon_test
  reactor_test admin_test"

# The record store hands out raw pointers into the records it owns, and the
# engine and the bulk copy engine hold them across inserts, adoptions and
# promotions; AddressSanitizer checks every such pointer these tests take.
# The transformation, split and dump tests run the extra_connects hooks,
# which store helper records into a target the bulk engine holds set
# linkers and record pointers into. The interpreter, CODASYL machine,
# hierarchical and relational tests erase through the engine into the
# store's tombstoned per-type directory, which they walk afterwards. The
# find-query and value-join tests sort and read keys through SortRecords'
# flat key array, indexed by row times key count.
echo "== asan: storage, engine, copy, transformation, facade and wire tests under -DDBPC_SANITIZE=address (build-asan/) =="
cmake -B build-asan -S . -DDBPC_SANITIZE=address >/dev/null
# shellcheck disable=SC2086  # WIRE_TESTS is a word list
cmake --build build-asan -j "$JOBS" \
  --target store_test extent_test database_test index_test bulk_load_test \
           textio_test find_query_test value_join_test data_copy_test \
           transformation_test split_test \
           interpreter_test interpreter_edge_test machine_test \
           hierarchical_test relational_test $WIRE_TESTS
(cd build-asan/tests/storage && ./store_test && ./extent_test)
(cd build-asan/tests/engine && ./database_test && ./index_test \
  && ./bulk_load_test && ./textio_test && ./find_query_test \
  && ./value_join_test)
(cd build-asan/tests/restructure && ./data_copy_test \
  && ./transformation_test && ./split_test)
(cd build-asan/tests/lang && ./interpreter_test && ./interpreter_edge_test)
(cd build-asan/tests/codasyl && ./machine_test)
(cd build-asan/tests/hierarchical && ./hierarchical_test)
(cd build-asan/tests/relational && ./relational_test)
(cd build-asan/tests/daemon && for t in $WIRE_TESTS; do ./"$t" || exit 1; done)

# The store packs a tombstone into a directory entry's top bit; the store,
# database and index tests erase through it, so UBSan checks those shifts
# and masks as well as the wire parsers. The find-query, value-join and
# relational tests (ORDER BY shares SortRecords) index the sort's flat key
# array by row times key count.
echo "== ubsan: store, database, index, sorting, relational and wire tests under -DDBPC_SANITIZE=undefined (build-ubsan/) =="
cmake -B build-ubsan -S . -DDBPC_SANITIZE=undefined >/dev/null
# shellcheck disable=SC2086  # WIRE_TESTS is a word list
cmake --build build-ubsan -j "$JOBS" \
  --target store_test database_test index_test find_query_test \
           value_join_test relational_test $WIRE_TESTS
(cd build-ubsan/tests/storage && ./store_test)
(cd build-ubsan/tests/engine && ./database_test && ./index_test \
  && ./find_query_test && ./value_join_test)
(cd build-ubsan/tests/relational && ./relational_test)
(cd build-ubsan/tests/daemon && for t in $WIRE_TESTS; do ./"$t" || exit 1; done)

echo "== check.sh: all green =="
