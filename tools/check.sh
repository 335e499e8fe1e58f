#!/usr/bin/env bash
# Sanitized robustness gate: builds everything with ASan+UBSan, runs the
# unit suite, then feeds the malformed-model corpus through pase_cli and
# checks that every file exits with its documented code (tests/corpus/
# README.md) instead of crashing or tripping a sanitizer. A second build
# under TSan (-DPASE_SANITIZE=thread) runs the concurrency-relevant tests
# (ThreadPool, LayerClasses, Determinism, DpSolver) to catch data races in the
# parallel search engine, and a third build under UBSan alone
# (-DPASE_SANITIZE=undefined) re-runs the full unit suite — UBSan combined
# with ASan suppresses some checks, so the standalone stage is stricter.
# A gcov coverage build (-DPASE_COVERAGE=ON) then runs the fast test tier
# and enforces a line-coverage floor over src/ (COV_FLOOR, default 70%).
# Finally a docs gate cross-checks README.md against `pase_cli --help` so
# flag documentation cannot drift. Golden/zoo-sweep tests carry the ctest
# label `slow` and are excluded from the sanitizer lanes (`-LE slow`); the
# wall-clock gates (`*IsOnTime`, label `timing`) measure optimized builds
# and are excluded from every instrumented lane.
#
# Usage: tools/check.sh [build-dir]   (default: build-asan; the TSan build
# goes in <build-dir>-tsan)
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-asan}"
JOBS="$(nproc 2>/dev/null || echo 4)"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export ASAN_OPTIONS="abort_on_error=0"

fail=0
note() { printf '== %s\n' "$*"; }
bad() { printf 'FAIL: %s\n' "$*"; fail=1; }

note "configuring sanitized build in $BUILD"
cmake -B "$BUILD" -S "$ROOT" -DPASE_SANITIZE=address,undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > "$BUILD.configure.log" 2>&1 \
  || { bad "cmake configure (see $BUILD.configure.log)"; exit 1; }

note "building (-j$JOBS)"
cmake --build "$BUILD" -j "$JOBS" > "$BUILD.build.log" 2>&1 \
  || { bad "build (see $BUILD.build.log)"; exit 1; }

note "running unit tests under sanitizers (fast tier: -LE 'slow|timing')"
(cd "$BUILD" && ctest --output-on-failure -LE 'slow|timing' -j "$JOBS") \
  || bad "ctest"

CLI="$BUILD/tools/pase_cli"

# expect <exit-code> <description> -- <cli args...>
expect() {
  local want="$1" what="$2"
  shift 3
  "$CLI" "$@" > /dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    bad "$what: expected exit $want, got $got ($CLI $*)"
  else
    note "ok ($want) $what"
  fi
}

note "malformed-model corpus"
expect 0 "valid control model" -- "$ROOT/tests/corpus/valid_tiny.pase" --devices 4
for f in dup_key nonpositive_dim negative_dim unknown_op bad_edge \
         missing_header unknown_directive garbage; do
  expect 1 "corpus $f" -- "$ROOT/tests/corpus/$f.pase" --devices 4
done
expect 3 "infeasible model" -- \
  "$ROOT/tests/corpus/infeasible.pase" --devices 4 --memory-gb 1
expect 1 "corpus overflow_dims" -- \
  "$ROOT/tests/corpus/overflow_dims.pase" --devices 4
expect 0 "oversized model without a limit" -- \
  "$ROOT/tests/corpus/oversized.pase" --devices 4
expect 1 "oversized model under --max-model-nodes 8" -- \
  "$ROOT/tests/corpus/oversized.pase" --devices 4 --max-model-nodes 8

note "machine-spec corpus (--machine-spec, src/hetero/machine_file.h)"
expect 0 "valid machine spec (heterogeneous control)" -- \
  "$ROOT/tests/corpus/valid_tiny.pase" \
  --machine-spec "$ROOT/tests/corpus/machine_valid.json"
for f in machine_negative_flops machine_missing_link \
         machine_count_mismatch; do
  expect 1 "corpus $f" -- \
    "$ROOT/tests/corpus/valid_tiny.pase" \
    --machine-spec "$ROOT/tests/corpus/$f.json"
done
expect 1 "unreadable machine spec" -- \
  "$ROOT/tests/corpus/valid_tiny.pase" \
  --machine-spec "$ROOT/tests/corpus/no_such_machine.json"
expect 2 "machine spec combined with --machine" -- \
  "$ROOT/tests/corpus/valid_tiny.pase" --machine 2080ti \
  --machine-spec "$ROOT/tests/corpus/machine_valid.json"
expect 2 "machine spec vs --devices mismatch" -- \
  "$ROOT/tests/corpus/valid_tiny.pase" --devices 8 \
  --machine-spec "$ROOT/tests/corpus/machine_valid.json"
# Named presets come from the one table the daemon also reads
# (kMachinePresets, src/cost/machine.h).
expect 0 "named heterogeneous preset" -- \
  --zoo mlp --machine mixed_pod --devices 8
expect 2 "unknown machine preset" -- \
  --zoo mlp --machine abacus --devices 8

note "CLI usage errors"
expect 2 "no arguments" --
expect 2 "bad numeric flag" -- \
  "$ROOT/tests/corpus/valid_tiny.pase" --devices banana
expect 2 "bad fault spec" -- \
  "$ROOT/tests/corpus/valid_tiny.pase" --devices 4 --faults wobble=1
expect 2 "bad comm model" -- \
  "$ROOT/tests/corpus/valid_tiny.pase" --devices 4 --comm-model warp
expect 0 "auto comm model" -- \
  "$ROOT/tests/corpus/valid_tiny.pase" --devices 4 --comm-model auto

note "widened strategy space flags (--split-dims / --pipeline-stages)"
expect 2 "bad split dims" -- \
  "$ROOT/tests/corpus/valid_tiny.pase" --devices 4 --split-dims bogus
expect 2 "trailing comma in split dims" -- \
  "$ROOT/tests/corpus/valid_tiny.pase" --devices 4 --split-dims batch,
# Spatial splits on an all-MatMul model: nothing to open, but that is a
# note in the report, not an error.
expect 0 "spatial split dims on a matmul-only model" -- \
  "$ROOT/tests/corpus/valid_tiny.pase" --devices 4 --split-dims spatial
expect 2 "bad pipeline stage count" -- \
  "$ROOT/tests/corpus/valid_tiny.pase" --devices 4 --pipeline-stages 0
expect 2 "pipeline stages not dividing devices" -- \
  "$ROOT/tests/corpus/valid_tiny.pase" --devices 4 --pipeline-stages 3
expect 2 "pipeline stages exceeding the layer count" -- \
  "$ROOT/tests/corpus/valid_tiny.pase" --devices 4 --pipeline-stages 4
expect 0 "explicit single pipeline stage" -- \
  "$ROOT/tests/corpus/valid_tiny.pase" --devices 4 --pipeline-stages 1
"$CLI" "$ROOT/tests/corpus/valid_tiny.pase" --devices 4 --split-dims spatial \
  2>/dev/null | grep -q "no eligible spatial/channel dims" \
  || bad "spatial split on a matmul-only model must report no eligible dims"
# A searched stage count that settles on one stage still reports the stage
# solve's K, M and thread count.
auto_out="$("$CLI" "$ROOT/tests/corpus/valid_tiny.pase" --devices 4 \
  --pipeline-stages auto --threads 2 2>/dev/null)"
if grep -q "K: 10   M: 1 " <<< "$auto_out" && \
   grep -q "^threads: 2$" <<< "$auto_out"; then
  note "ok auto pipeline stages report K, M and threads"
else
  bad "--pipeline-stages auto must report K: 10, M: 1 and threads: 2"
fi

note "degraded-mode acceptance (guard trip must still exit 0)"
expect 0 "dense model degrades gracefully" -- \
  "$ROOT/tools/dense_model.pase" --devices 4
expect 1 "dense model under --strict" -- \
  "$ROOT/tools/dense_model.pase" --devices 4 --strict
# A deadline trip on a 6004-layer stack: the fallback narrows its width to
# its share of the deadline, so a degraded strategy comes back in well
# under a second (a width-256 beam would take seconds).
stack_out="$(timeout 10 "$CLI" --zoo transformer_stack_1000 --devices 8 \
  --deadline 0.02 2>/dev/null)"
stack_rc=$?
if [ "$stack_rc" -eq 0 ] && grep -q "DEGRADED STRATEGY" <<< "$stack_out" \
   && grep -q "transformer_stack_1000 on 8x .* \[degraded\]" <<< "$stack_out"; then
  note "ok (0) deadline-degraded 1000-block stack within 10 s"
else
  bad "transformer_stack_1000 --deadline 0.02 must print a degraded strategy within 10 s (exit $stack_rc)"
fi

note "observability flags (--trace-out / --metrics-out)"
OBS_TMP="${TMPDIR:-/tmp}/pase_check_obs"
mkdir -p "$OBS_TMP"
expect 0 "trace + metrics outputs" -- \
  "$ROOT/tools/example_model.pase" --devices 8 \
  --trace-out "$OBS_TMP/trace.json" --metrics-out "$OBS_TMP/metrics.json"
for phase in ordering configs dep_sets table_fill pricing reduce \
             back_substitution; do
  grep -q "\"name\":\"$phase\"" "$OBS_TMP/trace.json" \
    || bad "trace missing phase span: $phase"
done
grep -q '"dp.combinations"' "$OBS_TMP/metrics.json" \
  || bad "metrics snapshot missing dp.combinations"
# The structural sections (counters + histograms; everything before the
# volatile gauges) must be byte-identical across thread counts.
"$CLI" "$ROOT/tools/example_model.pase" --devices 8 --threads 1 \
  --metrics-out "$OBS_TMP/m1.json" > /dev/null 2>&1 || bad "metrics at -t1"
"$CLI" "$ROOT/tools/example_model.pase" --devices 8 --threads 8 \
  --metrics-out "$OBS_TMP/m8.json" > /dev/null 2>&1 || bad "metrics at -t8"
sed '/"gauges"/,$d' "$OBS_TMP/m1.json" > "$OBS_TMP/m1.structural"
sed '/"gauges"/,$d' "$OBS_TMP/m8.json" > "$OBS_TMP/m8.structural"
if cmp -s "$OBS_TMP/m1.structural" "$OBS_TMP/m8.structural"; then
  note "ok structural metrics identical at 1 vs 8 threads"
else
  bad "structural metrics differ between --threads 1 and --threads 8"
fi

note "Prometheus metrics exposition (--metrics-format prom)"
expect 0 "prom metrics snapshot" -- \
  "$ROOT/tools/example_model.pase" --devices 8 \
  --metrics-out "$OBS_TMP/metrics.prom" --metrics-format prom
grep -q '^# TYPE pase_dp_combinations counter$' "$OBS_TMP/metrics.prom" \
  || bad "prom snapshot missing pase_dp_combinations counter"
grep -q '_bucket{le="+Inf"}' "$OBS_TMP/metrics.prom" \
  || bad "prom snapshot missing histogram +Inf bucket"
# Gauges must come last: no counter/histogram TYPE line after the first
# gauge TYPE line (the prom analogue of the structural-prefix contract).
if sed -n '/ gauge$/,$p' "$OBS_TMP/metrics.prom" | \
     grep -qE ' (counter|histogram)$'; then
  bad "prom snapshot interleaves counters/histograms after gauges"
else
  note "ok prom gauges are emitted last"
fi
expect 2 "bad metrics format" -- \
  "$ROOT/tools/example_model.pase" --devices 8 --metrics-format yaml

note "serve smoke: daemon + loadgen bursts (sanitized binaries)"
SERVE="$BUILD/tools/pase_serve"
LOADGEN="$BUILD/tools/pase_loadgen"
SOCK="$OBS_TMP/serve.sock"

# serve_burst <label> <loadgen-json> <event-log|""> <serve args...>: starts
# the daemon, fires a 60-request mixed burst, requests shutdown, and checks
# that both sides exit cleanly (loadgen exits 0 only when every response
# was classified, repeated queries answered byte-identically and — when an
# event log is given — every client-observed response joins a logged server
# record by seq with a matching code).
serve_burst() {
  local label="$1" json="$2" evlog="$3"
  shift 3
  rm -f "$SOCK"
  "$SERVE" --socket "$SOCK" "$@" > "$OBS_TMP/serve_$label.log" 2>&1 &
  local serve_pid=$!
  local up=0
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && { up=1; break; }
    sleep 0.1
  done
  [ "$up" -eq 1 ] || { bad "serve $label: daemon never bound $SOCK"; return; }
  local extra=()
  [ -n "$evlog" ] && extra=(--log-out "$evlog")
  if "$LOADGEN" --socket "$SOCK" --requests 60 --connections 4 \
       --zoo mlp,alexnet --devices 4,8 --json "$json" --shutdown \
       ${extra[@]+"${extra[@]}"} \
       > "$OBS_TMP/loadgen_$label.log" 2>&1; then
    note "ok serve $label burst (all responses classified)"
  else
    bad "serve $label burst (see $OBS_TMP/loadgen_$label.log)"
  fi
  if wait "$serve_pid"; then
    note "ok serve $label clean shutdown"
  else
    bad "serve $label: daemon exited non-zero (see $OBS_TMP/serve_$label.log)"
  fi
}

if [ -x "$SERVE" ] && [ -x "$LOADGEN" ]; then
  serve_burst healthy "$OBS_TMP/loadgen_healthy.json" \
    "$OBS_TMP/serve_healthy.events.jsonl" \
    --workers 2 --deadline-ms 10000 \
    --log-out "$OBS_TMP/serve_healthy.events.jsonl" \
    --trace-out "$OBS_TMP/serve_healthy.trace.json"
  grep -q '"watchdog_kills":0' "$OBS_TMP/loadgen_healthy.json" 2>/dev/null \
    || bad "healthy serve run reported watchdog kills (or no metrics)"
  grep -q '"log_mismatches":0' "$OBS_TMP/loadgen_healthy.json" 2>/dev/null \
    || bad "healthy serve run: event-log cross-check found mismatches"
  grep -q '"queue_ms"' "$OBS_TMP/serve_healthy.events.jsonl" 2>/dev/null \
    || bad "healthy event log carries no queue_ms (queue wait not recorded)"
  # The merged trace must show one request end to end: transport read,
  # admission, the solve, and the solver's own phase spans.
  for span in socket_read admission solve table_fill response_write; do
    grep -q "\"name\":\"$span\"" "$OBS_TMP/serve_healthy.trace.json" \
      || bad "serve trace missing span: $span"
  done
  # Fault-injected burst: stalls must be watchdog-killed into `error`
  # responses, poisoned cache entries detected on re-query — and the
  # daemon must still classify everything, log every request, and shut
  # down cleanly.
  serve_burst injected "$OBS_TMP/loadgen_injected.json" \
    "$OBS_TMP/serve_injected.events.jsonl" \
    --workers 2 --deadline-ms 300 --watchdog-grace-ms 200 \
    --inject "slow=0.3:0.05,stall=0.05:2,poison=0.2" --seed 7 \
    --log-out "$OBS_TMP/serve_injected.events.jsonl" \
    --trace-out "$OBS_TMP/serve_injected.trace.json"
  grep -q '"log_mismatches":0' "$OBS_TMP/loadgen_injected.json" 2>/dev/null \
    || bad "injected serve run: event-log cross-check found mismatches"
  grep -q '"name":"inject_' "$OBS_TMP/serve_injected.trace.json" \
    || bad "injected serve trace shows no inject_* spans"
else
  bad "serve smoke: pase_serve / pase_loadgen not built"
fi

TSAN_BUILD="$BUILD-tsan"
note "configuring TSan build in $TSAN_BUILD"
cmake -B "$TSAN_BUILD" -S "$ROOT" -DPASE_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > "$TSAN_BUILD.configure.log" 2>&1 \
  || bad "TSan cmake configure (see $TSAN_BUILD.configure.log)"
if [ -f "$TSAN_BUILD/CMakeCache.txt" ]; then
  note "building TSan tests (-j$JOBS)"
  cmake --build "$TSAN_BUILD" -j "$JOBS" --target pase_tests \
        > "$TSAN_BUILD.build.log" 2>&1 \
    || bad "TSan build (see $TSAN_BUILD.build.log)"
  if [ -x "$TSAN_BUILD/tests/pase_tests" ]; then
    note "running concurrency tests under TSan"
    TSAN_OPTIONS="halt_on_error=1" "$TSAN_BUILD/tests/pase_tests" \
        --gtest_filter='ThreadPool.*:LayerClasses.*:Determinism.*:DpSolver*.*:Serve*.*:HaloCost.*-*IsOnTime' \
      || bad "TSan concurrency tests"
  fi
fi

UBSAN_BUILD="$BUILD-ubsan"
note "configuring UBSan build in $UBSAN_BUILD"
cmake -B "$UBSAN_BUILD" -S "$ROOT" -DPASE_SANITIZE=undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > "$UBSAN_BUILD.configure.log" 2>&1 \
  || bad "UBSan cmake configure (see $UBSAN_BUILD.configure.log)"
if [ -f "$UBSAN_BUILD/CMakeCache.txt" ]; then
  note "building UBSan tests (-j$JOBS)"
  cmake --build "$UBSAN_BUILD" -j "$JOBS" --target pase_tests \
        > "$UBSAN_BUILD.build.log" 2>&1 \
    || bad "UBSan build (see $UBSAN_BUILD.build.log)"
  if [ -x "$UBSAN_BUILD/tests/pase_tests" ]; then
    note "running full test suite under UBSan"
    "$UBSAN_BUILD/tests/pase_tests" --gtest_filter='-*Golden*:ObsZoo*:*IsOnTime' \
        > "$UBSAN_BUILD.test.log" 2>&1 \
      || bad "UBSan test suite (see $UBSAN_BUILD.test.log)"
  fi
fi

COV_BUILD="$BUILD-cov"
COV_FLOOR="${COV_FLOOR:-70}"
note "configuring coverage build in $COV_BUILD"
cmake -B "$COV_BUILD" -S "$ROOT" -DPASE_COVERAGE=ON \
      -DCMAKE_BUILD_TYPE=Debug > "$COV_BUILD.configure.log" 2>&1 \
  || bad "coverage cmake configure (see $COV_BUILD.configure.log)"
if [ -f "$COV_BUILD/CMakeCache.txt" ]; then
  note "building coverage tests (-j$JOBS)"
  cmake --build "$COV_BUILD" -j "$JOBS" --target pase_tests \
        > "$COV_BUILD.build.log" 2>&1 \
    || bad "coverage build (see $COV_BUILD.build.log)"
  if [ -x "$COV_BUILD/tests/pase_tests" ]; then
    note "running fast test tier with gcov instrumentation"
    (cd "$COV_BUILD" && ctest -LE 'slow|timing' -j "$JOBS" > ctest.log 2>&1) \
      || bad "coverage test run (see $COV_BUILD/ctest.log)"
    note "aggregating line coverage over src/ (floor: $COV_FLOOR%)"
    # gcov per .gcda; -r drops system headers, -s makes paths repo-relative.
    # Pair each "File 'src/...'" line with its "Lines executed:P% of N".
    mkdir -p "$COV_BUILD/gcov-scratch"
    COV_PCT="$(cd "$COV_BUILD/gcov-scratch" && \
      find "$COV_BUILD" -name '*.gcda' \
          -exec gcov -r -s "$ROOT" {} + 2>/dev/null | \
      awk "
        /^File /            { keep = (\$0 ~ /'src\//) }
        keep && /^Lines executed:/ {
          line = \$0
          sub(/^Lines executed:/, \"\", line)
          split(line, parts, /% of /)
          covered += parts[1] / 100 * parts[2]
          total   += parts[2]
          keep = 0
        }
        END { printf \"%.1f\", total ? 100 * covered / total : 0 }
      ")"
    if awk -v p="$COV_PCT" -v f="$COV_FLOOR" 'BEGIN{exit !(p+0 >= f+0)}'; then
      note "ok line coverage on src/: $COV_PCT% (floor $COV_FLOOR%)"
    else
      bad "line coverage on src/ is $COV_PCT%, below the $COV_FLOOR% floor"
    fi
  fi
fi

# Perf-regression gate: bench_serve latencies from a *non-sanitized* build
# (ASan/UBSan inflate latencies several-fold, so the checked-in baseline is
# only comparable against plain RelWithDebInfo numbers) diffed against
# BENCH_serve.json by bench_gate. The gated statistic is the element-wise
# MINIMUM over three fresh bench_serve runs — the minimum prices the
# code's uncontended cost, so shared-box noise has to land on all three
# runs before it can move the comparison. Tolerance: 25% on per-model
# cached-hit p50/p99 and burst p50; a baseline more than ~35% slower than
# reality is flagged stale. Refresh after an intentional perf change with:
#   PASE_UPDATE_BENCH=1 tools/check.sh
# which writes the same min-of-3-runs statistic back to BENCH_serve.json,
# keeping both sides of the comparison on equal footing.
BENCH_BUILD="$ROOT/build-bench"
note "perf gate: configuring non-sanitized bench build in $BENCH_BUILD"
cmake -B "$BENCH_BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      > "$BENCH_BUILD.configure.log" 2>&1 \
  || bad "bench cmake configure (see $BENCH_BUILD.configure.log)"
if [ -f "$BENCH_BUILD/CMakeCache.txt" ]; then
  note "building bench_serve + bench_gate (-j$JOBS)"
  cmake --build "$BENCH_BUILD" -j "$JOBS" --target bench_serve bench_gate \
        > "$BENCH_BUILD.build.log" 2>&1 \
    || bad "bench build (see $BENCH_BUILD.build.log)"
fi
BENCH_SERVE="$BENCH_BUILD/bench/bench_serve"
BENCH_GATE="$BENCH_BUILD/tools/bench_gate"
if [ -x "$BENCH_SERVE" ] && [ -x "$BENCH_GATE" ]; then
  BENCH_RUNS=()
  BENCH_OK=1
  for i in 1 2 3; do
    note "running bench_serve (non-sanitized, run $i of 3)"
    if "$BENCH_SERVE" > "$OBS_TMP/bench_serve_run$i.json" \
         2> "$OBS_TMP/bench_serve_run$i.log"; then
      BENCH_RUNS+=("$OBS_TMP/bench_serve_run$i.json")
    else
      bad "bench_serve run $i failed (see $OBS_TMP/bench_serve_run$i.log)"
      BENCH_OK=0
      break
    fi
  done
  if [ "$BENCH_OK" = 1 ]; then
    if [ -n "${PASE_UPDATE_BENCH:-}" ]; then
      "$BENCH_GATE" --update "$ROOT/BENCH_serve.json" "${BENCH_RUNS[@]}" \
        || bad "perf gate: baseline refresh failed"
      note "refreshed BENCH_serve.json (min of 3 runs, PASE_UPDATE_BENCH)"
    elif "$BENCH_GATE" "$ROOT/BENCH_serve.json" "${BENCH_RUNS[@]}"; then
      note "ok perf gate (cached-hit p50/p99 + burst p50 within 25%)"
    else
      bad "perf gate: serve latencies regressed vs BENCH_serve.json (see \
table above; PASE_UPDATE_BENCH=1 tools/check.sh to accept a new baseline)"
    fi
    # Gate self-test: a baseline inflated 2x must be flagged stale, and a
    # baseline deflated 2x must read as a regression — both directions of
    # the two-sided gate must actually fire.
    if "$BENCH_GATE" --scale-baseline 2 "$ROOT/BENCH_serve.json" \
         "${BENCH_RUNS[@]}" > /dev/null 2>&1; then
      bad "perf gate self-test: 2x-inflated baseline was not flagged"
    else
      note "ok perf gate self-test (2x baseline trips stale check)"
    fi
    if "$BENCH_GATE" --scale-baseline 0.5 "$ROOT/BENCH_serve.json" \
         "${BENCH_RUNS[@]}" > /dev/null 2>&1; then
      bad "perf gate self-test: 0.5x-deflated baseline was not flagged"
    else
      note "ok perf gate self-test (0.5x baseline trips regression check)"
    fi
  fi
else
  bad "perf gate: bench_serve / bench_gate not built"
fi

# Search-time scaling gate: bench_table1 (cold solves of the
# transformer_stack family, docs/BENCHMARKS.md) from the same non-sanitized
# build, diffed against BENCH_table1.json. The binary itself enforces the
# structural claims (every solve succeeds; ordering + dep_sets take under
# 10% of the N=1000 solve) and exits non-zero on violation; the gate then
# bands the absolute search times — min over three runs, each itself a
# min of 3 trials. Refresh after an intentional perf change with
# PASE_UPDATE_BENCH=1 tools/check.sh.
if [ -f "$BENCH_BUILD/CMakeCache.txt" ]; then
  note "building bench_table1 (-j$JOBS)"
  cmake --build "$BENCH_BUILD" -j "$JOBS" --target bench_table1 \
        >> "$BENCH_BUILD.build.log" 2>&1 \
    || bad "bench_table1 build (see $BENCH_BUILD.build.log)"
fi
BENCH_TABLE1="$BENCH_BUILD/bench/bench_table1"
if [ -x "$BENCH_TABLE1" ] && [ -x "$BENCH_GATE" ]; then
  T1_RUNS=()
  T1_OK=1
  for i in 1 2 3; do
    note "running bench_table1 (non-sanitized, run $i of 3; ~1s each)"
    if "$BENCH_TABLE1" > "$OBS_TMP/bench_table1_run$i.json" \
         2> "$OBS_TMP/bench_table1_run$i.log"; then
      T1_RUNS+=("$OBS_TMP/bench_table1_run$i.json")
    else
      bad "bench_table1 run $i failed a structural claim or crashed \
(see $OBS_TMP/bench_table1_run$i.log)"
      T1_OK=0
      break
    fi
  done
  if [ "$T1_OK" = 1 ]; then
    if [ -n "${PASE_UPDATE_BENCH:-}" ]; then
      "$BENCH_GATE" --update "$ROOT/BENCH_table1.json" "${T1_RUNS[@]}" \
        || bad "scaling gate: baseline refresh failed"
      note "refreshed BENCH_table1.json (min of 3 runs, PASE_UPDATE_BENCH)"
    elif "$BENCH_GATE" "$ROOT/BENCH_table1.json" "${T1_RUNS[@]}"; then
      note "ok scaling gate (cold search times within 25%)"
    else
      bad "scaling gate: search times regressed vs BENCH_table1.json (see \
table above; PASE_UPDATE_BENCH=1 tools/check.sh to accept a new baseline)"
    fi
  fi
else
  bad "scaling gate: bench_table1 / bench_gate not built"
fi

# Heterogeneity gate: ablation_heterogeneous replays DataParallel /
# homogeneous-assumption PaSE / hetero-aware PaSE strategies under the
# heterogeneity-aware simulator on the mixed-pod and multi-tier scenarios.
# The binary enforces the win claims itself (hetero-aware search dominates
# the homogeneous assumption on the mixed pod and wins on geometric mean
# everywhere) and exits non-zero on violation; the gate then diffs the
# simulated step times against BENCH_hetero.json. Those numbers are
# deterministic (no wall-clock anywhere), so a single run suffices and any
# drift means the cost/comm/hetero model itself changed — refresh with
# PASE_UPDATE_BENCH=1 tools/check.sh after an intentional model change.
if [ -f "$BENCH_BUILD/CMakeCache.txt" ]; then
  note "building ablation_heterogeneous (-j$JOBS)"
  cmake --build "$BENCH_BUILD" -j "$JOBS" --target ablation_heterogeneous \
        >> "$BENCH_BUILD.build.log" 2>&1 \
    || bad "ablation_heterogeneous build (see $BENCH_BUILD.build.log)"
fi
BENCH_HETERO="$BENCH_BUILD/bench/ablation_heterogeneous"
if [ -x "$BENCH_HETERO" ] && [ -x "$BENCH_GATE" ]; then
  note "running ablation_heterogeneous (win claims + gate)"
  if "$BENCH_HETERO" > "$OBS_TMP/bench_hetero.json" \
       2> "$OBS_TMP/bench_hetero.log"; then
    if [ -n "${PASE_UPDATE_BENCH:-}" ]; then
      "$BENCH_GATE" --update "$ROOT/BENCH_hetero.json" \
          "$OBS_TMP/bench_hetero.json" \
        || bad "hetero gate: baseline refresh failed"
      note "refreshed BENCH_hetero.json (PASE_UPDATE_BENCH)"
    elif "$BENCH_GATE" "$ROOT/BENCH_hetero.json" \
           "$OBS_TMP/bench_hetero.json"; then
      note "ok hetero gate (simulated step times match BENCH_hetero.json)"
    else
      bad "hetero gate: simulated step times drifted vs BENCH_hetero.json \
(the cost/comm/hetero model changed; PASE_UPDATE_BENCH=1 tools/check.sh to \
accept)"
    fi
  else
    bad "ablation_heterogeneous failed a win claim or crashed \
(see $OBS_TMP/bench_hetero.log)"
  fi
else
  bad "hetero gate: ablation_heterogeneous / bench_gate not built"
fi

# Widened-space gate: ablation_split_dims solves resnet_large_p with the
# legacy vs widened (--split-dims all) per-layer space on 64 devices and
# runs the auto pipeline-stage search on transformer_pipelined over the
# mixed cluster. The binary enforces the win claims itself (the widened
# space never costs more under the DP's metric and strictly beats the
# legacy strategy under simulation; auto pipelining strictly beats the
# single-stage reference) and exits non-zero on violation; the gate then
# diffs the DP costs / simulated steps / pipeline steps against
# BENCH_splits.json. Deterministic (no wall-clock), so a single run
# suffices — drift means the config/cost/comm/pipeline model changed;
# refresh with PASE_UPDATE_BENCH=1 tools/check.sh after an intentional
# model change.
if [ -f "$BENCH_BUILD/CMakeCache.txt" ]; then
  note "building ablation_split_dims (-j$JOBS)"
  cmake --build "$BENCH_BUILD" -j "$JOBS" --target ablation_split_dims \
        >> "$BENCH_BUILD.build.log" 2>&1 \
    || bad "ablation_split_dims build (see $BENCH_BUILD.build.log)"
fi
BENCH_SPLITS="$BENCH_BUILD/bench/ablation_split_dims"
if [ -x "$BENCH_SPLITS" ] && [ -x "$BENCH_GATE" ]; then
  note "running ablation_split_dims (win claims + gate; ~30s)"
  if "$BENCH_SPLITS" > "$OBS_TMP/bench_splits.json" \
       2> "$OBS_TMP/bench_splits.log"; then
    if [ -n "${PASE_UPDATE_BENCH:-}" ]; then
      "$BENCH_GATE" --update "$ROOT/BENCH_splits.json" \
          "$OBS_TMP/bench_splits.json" \
        || bad "splits gate: baseline refresh failed"
      note "refreshed BENCH_splits.json (PASE_UPDATE_BENCH)"
    elif "$BENCH_GATE" "$ROOT/BENCH_splits.json" \
           "$OBS_TMP/bench_splits.json"; then
      note "ok splits gate (DP costs and step times match BENCH_splits.json)"
    else
      bad "splits gate: DP costs / step times drifted vs BENCH_splits.json \
(the config/cost/comm/pipeline model changed; PASE_UPDATE_BENCH=1 \
tools/check.sh to accept)"
    fi
  else
    bad "ablation_split_dims failed a win claim or crashed \
(see $OBS_TMP/bench_splits.log)"
  fi
else
  bad "splits gate: ablation_split_dims / bench_gate not built"
fi

note "docs gate: README.md vs pase_cli --help"
HELP="$("$CLI" --help 2>/dev/null)" || bad "pase_cli --help exited non-zero"
HELP_FLAGS="$(printf '%s\n' "$HELP" | grep -oE -- '--[a-z][a-z0-9-]+' | sort -u)"
# README side: only --flags inside fenced code blocks that mention pase_cli
# (the building/bench blocks legitimately use cmake/ctest flags).
README_FLAGS="$(awk '
  /^```/ { if (inblock && block ~ /pase_cli/) printf "%s", block;
           block = ""; inblock = !inblock; next }
  inblock { block = block $0 "\n" }
' "$ROOT/README.md" | grep -oE -- '--[a-z][a-z0-9-]+' | sort -u)"
for flag in $HELP_FLAGS; do
  grep -qF -- "$flag" "$ROOT/README.md" \
    || bad "docs gate: $flag is in pase_cli --help but not README.md"
done
for flag in $README_FLAGS; do
  printf '%s\n' "$HELP_FLAGS" | grep -qxF -- "$flag" \
    || bad "docs gate: $flag is in README.md but not pase_cli --help"
done
[ "$fail" -eq 0 ] && note "ok docs gate ($(printf '%s\n' "$HELP_FLAGS" | wc -l) flags cross-checked)"

if [ "$fail" -ne 0 ]; then
  printf '\ncheck.sh: FAILURES\n'
  exit 1
fi
printf '\ncheck.sh: all checks passed\n'
