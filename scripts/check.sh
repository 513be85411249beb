#!/usr/bin/env bash
# Ten-stage verification gate:
#   1. default build (-DFF_WERROR=ON) → the fast `tier1` test label
#      (all unit suites) plus the `codegen` differential suite,
#      warnings promoted to errors;
#   2. ffgen drift gate: the committed src/proto/generated/ tree must be
#      byte-identical to what tools/ffgen emits from the current IR —
#      a changed Program with a stale generated tree fails here (the
#      fingerprint selection would silently fall back to the
#      interpreter, and hand edits to generated files would dodge
#      regeneration);
#   3. default build  → the `tier2-fuzz` label (wall-clock-bounded smoke
#      fuzz campaign per seed protocol);
#   4. FF_SANITIZE=thread build → the multi-threaded suites (label `tsan`,
#      i.e. the frontier-explorer differential harness — the frontier's
#      workers share one lane arena (sched/lane_space.hpp) — with a
#      worker's exception rethrown to the caller, and the real-thread
#      stress suites, the crashed-and-restarted worker threads of the
#      recoverable-consensus campaign included, and the census cache's
#      concurrent same-key writers) under ThreadSanitizer;
#   5. FF_SANITIZE=address build → the memory-heavy fuzzer/explorer suites,
#      the post-join cycle scan's CSR, peel and Tarjan indexing, the
#      lane-space lockstep suite with the DFS Report pin, the
#      out-of-range access rule, the step rule's Definition 1 property
#      tests and the covering adversary (label `asan`) under
#      AddressSanitizer + UndefinedBehaviorSanitizer, with NDEBUG undefined
#      so every assert in src/ runs;
#      stages 4 and 5 build the ff_tsan_tests / ff_asan_tests targets,
#      which tests/CMakeLists.txt derives from the label lists;
#   6. ff-lint (label `lint`): the rule-engine test suite plus a tree
#      scan of the shipped sources, with the JSON report summarized;
#   7. ffcheck (label `analysis`): the IR-analyzer test suite (A1-A5
#      fixtures + the A2 pruning differential) plus a registry-wide
#      `ffcheck --json` run, with the obligation report summarized —
#      any violated obligation fails the stage;
#   8. clang-tidy (advisory) when clang-tidy is on PATH, against the
#      compile database stage 1 exported; skipped with a notice if not;
#   9. frontier differential (label `frontier`: the BFS engine's census
#      vs the sequential explorer across the registry grid, forced-spill
#      parity included), then bench smoke: bench_b3_explorer/
#      bench_b4_fuzzer/bench_b5_crash/bench_b6_frontier --json --smoke,
#      then scripts/bench_gate.py asserts the B3 state-space reduction
#      is >= 5x with a matching differential census, the
#      generated-machine overhead on random-walk campaigns (which step a
#      machine on every transition) is <= 2% with every registry
#      protocol's generated census matching the interpreter, the A2
#      immunity pruning leaves the census bit-identical with a prune
#      factor >= 1, the B5 crash growth/latency bounds hold, and the B6
#      frontier engine on every hardware thread reaches >= 0.65x the
#      sequential DFS's states/sec (an interim floor, see
#      scripts/bench_gate.py) with the DFS's census, and the same census
#      under forced spilling;
#  10. verify-cache (label `verify-cache`: the canonical job layer —
#      JobSpec round-trips, strict validation, and the persistent
#      census cache's hit/miss/soundness matrix), then
#      bench_b7_cache --json --smoke and scripts/bench_gate.py asserts
#      a warm cache hit is >= 100x faster than the cold search with a
#      bit-identical Report and zero fresh states expanded.
# Usage: scripts/check.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

echo "== [1/10] default build (FF_WERROR=ON) · ctest -L 'tier1|codegen' =="
cmake -B build -S . -DFF_WERROR=ON >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build -L 'tier1|codegen' --output-on-failure -j "$JOBS"

echo "== [2/10] ffgen drift gate =="
./build/tools/ffgen/ffgen --check --out src/proto/generated

echo "== [3/10] default build · ctest -L tier2-fuzz =="
ctest --test-dir build -L tier2-fuzz --output-on-failure -j "$JOBS"

echo "== [4/10] FF_SANITIZE=thread build · ctest -L tsan =="
cmake -B build-tsan -S . -DFF_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target ff_tsan_tests
ctest --test-dir build-tsan -L tsan --output-on-failure -j "$JOBS"

echo "== [5/10] FF_SANITIZE=address build · ctest -L asan =="
cmake -B build-asan -S . -DFF_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS" --target ff_asan_tests
ctest --test-dir build-asan -L asan --output-on-failure -j "$JOBS"

echo "== [6/10] ff-lint · ctest -L lint + tree scan =="
ctest --test-dir build -L lint --output-on-failure -j "$JOBS"
lint_status=0
./build/tools/fflint/fflint --root . --json --quiet \
  > build/fflint-report.json || lint_status=$?
if [ "$lint_status" -ge 2 ]; then
  echo "ff-lint failed to run (exit $lint_status)" >&2
  exit "$lint_status"
fi
python3 scripts/fflint_summary.py build/fflint-report.json
if [ "$lint_status" -ne 0 ]; then
  echo "ff-lint: unsuppressed findings — see build/fflint-report.json" >&2
  exit 1
fi

echo "== [7/10] ffcheck · ctest -L analysis + registry obligations =="
ctest --test-dir build -L analysis --output-on-failure -j "$JOBS"
ffcheck_status=0
./build/tools/ffcheck/ffcheck --json \
  > build/ffcheck-report.json || ffcheck_status=$?
if [ "$ffcheck_status" -ge 2 ]; then
  echo "ffcheck failed to run (exit $ffcheck_status)" >&2
  exit "$ffcheck_status"
fi
python3 scripts/ffcheck_summary.py build/ffcheck-report.json
if [ "$ffcheck_status" -ne 0 ]; then
  echo "ffcheck: violated obligations — see build/ffcheck-report.json" >&2
  exit 1
fi

echo "== [8/10] clang-tidy (advisory) =="
if command -v clang-tidy >/dev/null 2>&1; then
  # Tidy the first-party sources only; the compile database from stage 1
  # (CMAKE_EXPORT_COMPILE_COMMANDS) keeps flags identical to the build.
  git ls-files 'src/**/*.cpp' 'tools/**/*.cpp' \
    | xargs clang-tidy -p build --quiet
else
  echo "notice: clang-tidy not on PATH — stage skipped (advisory only)"
fi

echo "== [9/10] frontier differential + bench smoke · scripts/bench_gate.py =="
ctest --test-dir build -L frontier --output-on-failure -j "$JOBS"
./build/bench/bench_b3_explorer --json build/BENCH_B3.smoke.json --smoke
./build/bench/bench_b4_fuzzer --json build/BENCH_B4.smoke.json --smoke
./build/bench/bench_b5_crash --json build/BENCH_B5.smoke.json --smoke
./build/bench/bench_b6_frontier --json build/BENCH_B6.smoke.json --smoke
python3 scripts/bench_gate.py build/BENCH_B3.smoke.json \
                              build/BENCH_B5.smoke.json \
                              build/BENCH_B6.smoke.json

echo "== [10/10] verify-cache suite + B7 warm-hit gate =="
ctest --test-dir build -L verify-cache --output-on-failure -j "$JOBS"
./build/bench/bench_b7_cache --json build/BENCH_B7.smoke.json --smoke
python3 scripts/bench_gate.py build/BENCH_B7.smoke.json

echo "OK: all ten stages passed"
