#!/usr/bin/env bash
# Full pre-merge check: build and test the release, asan, and tsan
# presets.
#
# Usage: scripts/check.sh [preset...]
#   With no arguments, runs all three presets. Pass `release`, `asan`,
#   or `tsan` to run a subset. Build trees land in build-<preset>/
#   (gitignored).
#
# Usage: scripts/check.sh --bench-smoke
#   Builds the release preset and runs every bench_* binary at a tiny
#   size: the google-benchmark benches get --benchmark_min_time=0.01,
#   bench_native runs --quick and bench_persist --smoke. Fails if any
#   bench crashes or exits non-zero — a cheap guard that the measured
#   code paths still run and that bench_native's and bench_persist's
#   pass/fail checks hold, without caring about the numbers.
#
# Usage: scripts/check.sh --chaos [seed...]
#   Builds the asan and tsan presets and sweeps the seeded chaos suite
#   (GTEST_FILTER='Chaos*' in test_workers) under both sanitizers, once
#   per seed (default seeds: 11 23 97; each run also covers the suite's
#   built-in seeds 1/7/42 via PSNAP_CHAOS_SEED). This is the fault
#   model's gate: injected task throws, worker stalls, transfer
#   failures, and pool saturation must converge — exact results or typed
#   substrate errors — with no data race or memory error underneath.
#   Each preset then runs, once, the block-level degrade and error pins
#   (GTEST_FILTER='ChaosBlocks.*' in test_core: report blocks converge
#   exactly under each fault, launch twins fail typed) and the mapReduce
#   Job's input-snapshot test (a list mutated while the job runs never
#   reaches it), and test_async three times in one process
#   (--gtest_repeat=3: no async test may lean on process-wide state an
#   earlier iteration left behind, such as a ring the native tier made
#   hot). After the sweep, runs the mapReduce differential suite
#   (GTEST_FILTER='*ShuffleDifferential*' in test_properties) once under
#   asan: every engine path (pooled at each width, sequential, and
#   degraded by a saturated pool) against an in-test reference shuffle.
#   Then runs that suite and test_mapreduce once under tsan: the stage-1
#   slices share the read-only input and keep per-slice key memos. The
#   Chaos* sweep includes a dictionary-coded input (a text list loaded
#   from a snapshot), whose job-wide dictionary classes the first coded
#   stage-1 slice builds under a lock and every other one then reads
#   while retried slices rewrite their own counts and bins.
#
# Usage: scripts/check.sh --native
#   Builds the asan preset and runs the native-tier suites (test_native:
#   the promotion pipeline, golden byte-identical rings, compile-failure
#   chaos) under AddressSanitizer — the dlopen'd kernels, the marshalling
#   buffers, and the async install path must be memory-clean. Then builds
#   the tsan preset and runs the native chaos suite (NativeChaos.*) under
#   ThreadSanitizer: a pool thread installs a kernel's function pointers
#   and publishes its state while callers acquire-load it and dispatch.
#   Skips gracefully (exit 0 with a notice) when no C compiler is on
#   PATH, since the tier itself degrades to the interpreter there.
#
# Usage: scripts/check.sh --differential
#   Builds the asan preset and runs the cross-path differential suites
#   once under AddressSanitizer: opcode parity (the VM against the worker
#   evaluator, values and error classes, plus the pure-op table guard)
#   and dispatch parity (ById against ByString), the mapReduce shuffle
#   differential (boxed pairs and numeric columns) and the text split
#   differential (the split block and the reference word count against
#   the copying tokenizer they replaced) in test_properties; the corpus
#   generator pins (test_data's Corpus suite: the generateText digests and
#   the words snapshot against the generated text) and the weighted-pick
#   differential (test_support); then, in test_native, the native tier's random-ring property sweep,
#   its error-contract test (every `err` helper at boundary inputs against
#   applyPure), and the mapReduce block with native numeric map and fold
#   entries against the same block with the tier off. The native suites
#   skip themselves when no C compiler is on PATH.
#
# Usage: scripts/check.sh --persist
#   Builds the asan preset and runs the persistence suites (test_persist:
#   snapshot round-trips, mmap aliasing, the property sweep, and the
#   SnapshotWriteFailure/MmapFailure + corrupt-file chaos tests, corrupt
#   coded-list sections and version-1 headers among them) under
#   AddressSanitizer — the placement-imaged slots, text fixups, and
#   mapping lifetimes must be memory-clean. Then smoke-runs bench_persist
#   (release preset, --smoke) so the measured cold-open path stays alive.
#
# Usage: scripts/check.sh --serve [seed...]
#   The multi-tenant analogue of --chaos: builds the asan and tsan
#   presets and sweeps the serving-layer chaos suite
#   (GTEST_FILTER='ServeChaos*' in test_serve) under both sanitizers,
#   once per seed (same defaults as --chaos). The gate here is fault
#   *isolation*: admission faults reject typed, a fault aimed at one
#   tenant degrades or fails that tenant alone, and every other session
#   completes with its exact output — race- and leak-free underneath. A
#   shed tenant's launched pool work is joined before its ledger is
#   freed (ShedJoinsTheTenantsLaunchedPoolWork). Each preset then runs
#   the SessionServer.* suite once in one process: no serving test may
#   lean on a native kernel an earlier test left compiling. Each preset
#   also runs test_sched once: the server drives its sessions through
#   the scheduler's idle loop (sched::runIdleLoop), so the scheduler's
#   own suite gates the serving layer's loop too.
#
# Usage: scripts/check.sh --supervise [seed...]
#   The recovery gate: builds the asan preset and sweeps the supervision
#   suites (Supervise* + SuperviseChaos* in test_serve) once per seed,
#   covering checkpoint write failures, restart storms, recovery
#   corruption with generation fallback, the seeded random-kill property
#   sweep, and the fork+SIGKILL crash-kill test (a real dead writer, a
#   real successor, byte-identical recovered outputs). Also runs the
#   suites once under tsan (the pooled checkpoint writes are the
#   concurrency surface).
#
# The asan test preset sets ASAN_OPTIONS=detect_leaks=0: rings are
# shared_ptr closures over their defining environment, so storing a ring
# into a variable of that environment forms a reference cycle (Snap!
# itself relies on the JS garbage collector here). ASan/UBSan error
# detection stays fully on; only end-of-process leak accounting is off.
#
# The tsan preset builds and runs only the concurrency-bearing suites
# (test_workers, test_mapreduce, test_sched, test_serve, test_async,
# test_persist, test_native) — the interpreter suites are single-threaded
# and would just multiply the ~10x tsan slowdown.
# src/workers, src/mapreduce, src/core and src/native also compile with
# -Werror in every preset, so the substrate and the parallel blocks that
# drive it stay warning-clean by contract.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)

if [ "${1:-}" = "--bench-smoke" ]; then
  cmake --preset release
  cmake --build --preset release -j "${jobs}"
  scratch=$(mktemp -d)
  trap 'rm -rf "${scratch}"' EXIT
  status=0
  for bin in build-release/bench/bench_*; do
    [ -x "${bin}" ] || continue
    name=$(basename "${bin}")
    case "${name}" in
      bench_native) args=(--quick) ;;
      bench_persist) args=(--smoke) ;;
      *) args=(--benchmark_min_time=0.01) ;;
    esac
    echo "== bench smoke: ${name} =="
    if ! "${bin}" "${args[@]}" > "${scratch}/${name}.log" 2>&1; then
      echo "!! ${name} failed; last lines:"
      tail -n 20 "${scratch}/${name}.log"
      status=1
    fi
  done
  if [ "${status}" -eq 0 ]; then
    echo "== bench smoke green =="
  fi
  exit "${status}"
fi

if [ "${1:-}" = "--chaos" ]; then
  shift
  seeds=("$@")
  if [ ${#seeds[@]} -eq 0 ]; then
    seeds=(11 23 97)
  fi
  for preset in asan tsan; do
    cmake --preset "${preset}"
    cmake --build --preset "${preset}" -j "${jobs}" \
      --target test_workers test_core test_mapreduce test_async
    for seed in "${seeds[@]}"; do
      echo "== chaos: ${preset}, seed ${seed} =="
      # Same leak-accounting stance as the asan ctest preset (see header).
      ASAN_OPTIONS=detect_leaks=0 PSNAP_CHAOS_SEED="${seed}" \
        "build-${preset}/tests/test_workers" \
        --gtest_filter='Chaos*'
    done
    echo "== chaos: ${preset}, block pins and the Job input snapshot =="
    ASAN_OPTIONS=detect_leaks=0 "build-${preset}/tests/test_core" \
      --gtest_filter='ChaosBlocks.*'
    ASAN_OPTIONS=detect_leaks=0 "build-${preset}/tests/test_mapreduce" \
      --gtest_filter='MapReduceJob.InputMutatedAfterLaunchDoesNotLeak'
    echo "== chaos: ${preset}, async blocks three times in one process =="
    ASAN_OPTIONS=detect_leaks=0 "build-${preset}/tests/test_async" \
      --gtest_repeat=3
  done
  cmake --build --preset asan -j "${jobs}" --target test_properties
  echo "== chaos: asan, mapReduce differential =="
  ASAN_OPTIONS=detect_leaks=0 "build-asan/tests/test_properties" \
    --gtest_filter='*ShuffleDifferential*'
  cmake --build --preset tsan -j "${jobs}" \
    --target test_properties test_mapreduce
  echo "== chaos: tsan, mapReduce differential and engine suite =="
  "build-tsan/tests/test_properties" --gtest_filter='*ShuffleDifferential*'
  "build-tsan/tests/test_mapreduce"
  echo "== chaos sweep green: seeds ${seeds[*]} under asan + tsan," \
    "block pins and differential under asan + tsan =="
  exit 0
fi

if [ "${1:-}" = "--native" ]; then
  if ! command -v cc >/dev/null 2>&1 && ! command -v gcc >/dev/null 2>&1; then
    echo "== native sweep skipped: no C compiler on PATH =="
    exit 0
  fi
  cmake --preset asan
  cmake --build --preset asan -j "${jobs}" --target test_native
  echo "== native tier: asan =="
  # Same leak-accounting stance as the asan ctest preset (see header).
  ASAN_OPTIONS=detect_leaks=0 "build-asan/tests/test_native"
  cmake --preset tsan
  cmake --build --preset tsan -j "${jobs}" --target test_native
  echo "== native tier: tsan, NativeChaos.* =="
  "build-tsan/tests/test_native" --gtest_filter='NativeChaos.*'
  echo "== native tier sweep green: asan, and NativeChaos.* under tsan =="
  exit 0
fi

if [ "${1:-}" = "--differential" ]; then
  cmake --preset asan
  cmake --build --preset asan -j "${jobs}" \
    --target test_properties test_native test_data test_support
  echo "== differential: asan, VM vs worker vs shuffle reference =="
  # Same leak-accounting stance as the asan ctest preset (see header).
  ASAN_OPTIONS=detect_leaks=0 "build-asan/tests/test_properties" \
    --gtest_filter='*OpcodeParity*:*DispatchParity*:*ShuffleDifferential*:*TextSplitDifferential*'
  echo "== differential: asan, corpus generator pins and weighted picks =="
  ASAN_OPTIONS=detect_leaks=0 "build-asan/tests/test_data" \
    --gtest_filter='Corpus.*'
  ASAN_OPTIONS=detect_leaks=0 "build-asan/tests/test_support" \
    --gtest_filter='Rng.Weighted*'
  echo "== differential: asan, native tier vs applyPure and the tier-off block =="
  ASAN_OPTIONS=detect_leaks=0 "build-asan/tests/test_native" \
    --gtest_filter='*NativeTierProperty*:*ErrCallsMatchTheApplyPureContract:*NativeTierMapReduce*'
  echo "== differential sweep green under asan =="
  exit 0
fi

if [ "${1:-}" = "--persist" ]; then
  cmake --preset asan
  cmake --build --preset asan -j "${jobs}" --target test_persist
  echo "== persist: asan =="
  # Same leak-accounting stance as the asan ctest preset (see header).
  ASAN_OPTIONS=detect_leaks=0 "build-asan/tests/test_persist"
  cmake --preset release
  cmake --build --preset release -j "${jobs}" --target bench_persist
  echo "== persist: bench smoke =="
  build-release/bench/bench_persist --smoke
  echo "== persist sweep green: asan + chaos + bench smoke =="
  exit 0
fi

if [ "${1:-}" = "--serve" ]; then
  shift
  seeds=("$@")
  if [ ${#seeds[@]} -eq 0 ]; then
    seeds=(11 23 97)
  fi
  for preset in asan tsan; do
    cmake --preset "${preset}"
    cmake --build --preset "${preset}" -j "${jobs}" --target test_serve test_sched
    for seed in "${seeds[@]}"; do
      echo "== serve chaos: ${preset}, seed ${seed} =="
      # Same leak-accounting stance as the asan ctest preset (see header).
      ASAN_OPTIONS=detect_leaks=0 PSNAP_CHAOS_SEED="${seed}" \
        "build-${preset}/tests/test_serve" \
        --gtest_filter='ServeChaos*'
    done
    echo "== serve: ${preset}, SessionServer.* in one process =="
    ASAN_OPTIONS=detect_leaks=0 "build-${preset}/tests/test_serve" \
      --gtest_filter='SessionServer.*'
    echo "== sched: ${preset}, test_sched =="
    ASAN_OPTIONS=detect_leaks=0 "build-${preset}/tests/test_sched"
  done
  echo "== serve chaos sweep green: seeds ${seeds[*]} under asan + tsan =="
  exit 0
fi

if [ "${1:-}" = "--supervise" ]; then
  shift
  seeds=("$@")
  if [ ${#seeds[@]} -eq 0 ]; then
    seeds=(11 23 97)
  fi
  cmake --preset asan
  cmake --build --preset asan -j "${jobs}" --target test_serve
  for seed in "${seeds[@]}"; do
    echo "== supervise: asan, seed ${seed} =="
    # Same leak-accounting stance as the asan ctest preset (see header).
    ASAN_OPTIONS=detect_leaks=0 PSNAP_CHAOS_SEED="${seed}" \
      "build-asan/tests/test_serve" \
      --gtest_filter='Supervise*:SuperviseChaos*'
  done
  cmake --preset tsan
  cmake --build --preset tsan -j "${jobs}" --target test_serve
  echo "== supervise: tsan =="
  "build-tsan/tests/test_serve" --gtest_filter='Supervise*:SuperviseChaos*'
  echo "== supervise sweep green: seeds ${seeds[*]} under asan and tsan =="
  exit 0
fi

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(release asan tsan)
fi

for preset in "${presets[@]}"; do
  echo "== preset: ${preset} =="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}" -j "${jobs}"
done

echo "== all presets green: ${presets[*]} =="
