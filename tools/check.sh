#!/usr/bin/env bash
# Full verification harness: plain tier-1 suite, the same suite under
# ASan+UBSan, a bounded model-check run, the secret-hygiene lint, and —
# when the binary is installed — clang-tidy over the library sources.
#
# Usage: tools/check.sh [--fast|--bench|--chaos|--durable|--analyze|--tsan|--trace|--obs|--tidy|--perfbench]
#   (none)    plain build (fails on any compiler warning it prints), tier-1
#             tests, the behaviour digests of the plain build, analyzer,
#             model check, lint, then the ASan+UBSan tier-1 pass
#   --fast    skip the sanitizer rebuild (plain build and tests + behaviour
#             digests + model check + lint)
#   --bench   build Release (fails on any compiler warning it prints, kept
#             in build-release/build.log), run the crypto + update
#             microbenches pinned to one CPU with 5 repetitions, write
#             BENCH_crypto.json / BENCH_update_microbench.json (medians,
#             min, cv) at the repo root; the update file also records the
#             disabled-tracer cost vs the previously committed one
#             (overhead_vs_baseline); both gates compare medians through
#             the BM_HostAnchor host-speed rung
#   --chaos   fixed-seed 200-schedule fault-injection sweep (Daric + all
#             baselines) plus the downtime-boundary scan and the committed
#             regression schedules, under ASan+UBSan; the sweep, crash-replay
#             and boundary reports must match tests/golden/behaviour.sha256
#             byte for byte
#   --durable crash-replay gate under ASan+UBSan: 200 + 600 schedules that
#             kill a party at a message boundary (with torn/garbage log
#             tails) and recover it from the durable store, plus the store
#             unit tests
#   --analyze run only the static script/transaction analyzer gate
#   --tidy    run only clang-tidy, and FAIL if the binary is missing
#             (the default flow skips it with a note unless
#             DARIC_REQUIRE_TIDY=1 makes the missing binary fatal there too)
#   --tsan    build with ThreadSanitizer and run the tier-1 suite under it
#   --trace   observability gate: run daric_trace on canned scenarios and a
#             chaos schedule replay, then validate every artifact with
#             tools/validate_trace.py; the artifacts of all 12 canned
#             scenarios and of the funds-loss schedule replay must match
#             tests/golden/behaviour.sha256 byte for byte
#   --obs     telemetry gate: the sharded-registry torture tests under
#             ThreadSanitizer, a daric_monitor --once smoke run (Theorem-1
#             SLO must hold), and a Prometheus-exposition lint of the
#             monitor's output via tools/validate_trace.py --prom
#   --perfbench  end-to-end benchmark determinism: perfbench/run.py
#             --self-test (same seed, same counts, traced or not), then every
#             BENCHMARK.json workload for 2 s untraced and traced from a fresh
#             build tree; each run must exit 0 with "correct": true
#
# tests/golden/behaviour.sha256 pins the behaviour of an accepted commit;
# regenerate it (tools/behaviour_digest.py --write) only when a change is
# meant to alter protocol behaviour, and say so in the change.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
BENCH=0
CHAOS=0
DURABLE=0
ANALYZE=0
TSAN=0
TRACE=0
OBS=0
TIDY=0
PERFBENCH=0
[[ "${1:-}" == "--fast" ]] && FAST=1
[[ "${1:-}" == "--bench" ]] && BENCH=1
[[ "${1:-}" == "--chaos" ]] && CHAOS=1
[[ "${1:-}" == "--durable" ]] && DURABLE=1
[[ "${1:-}" == "--analyze" ]] && ANALYZE=1
[[ "${1:-}" == "--tsan" ]] && TSAN=1
[[ "${1:-}" == "--trace" ]] && TRACE=1
[[ "${1:-}" == "--obs" ]] && OBS=1
[[ "${1:-}" == "--tidy" ]] && TIDY=1
[[ "${1:-}" == "--perfbench" ]] && PERFBENCH=1

step() { printf '\n=== %s ===\n' "$*"; }

if [[ "$PERFBENCH" == 1 ]]; then
  step "end-to-end benchmark self-test (perfbench/run.py)"
  python3 perfbench/run.py --self-test

  step "every workload builds, runs and passes its output checks"
  # A fresh build tree, so the gate sees what a clean checkout builds: a
  # src/ API change that breaks perfbench/ fails here, not in a later
  # benchmark run.
  target_dir="$(mktemp -d)"
  trap 'rm -rf "$target_dir"' EXIT
  workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
  for workload in $workloads; do
    for trace in 0 1; do
      if ! out="$(CARGO_TARGET_DIR="$target_dir" python3 perfbench/run.py \
                  --workload "$workload" --seed 1 --seconds 2 --trace "$trace")"; then
        printf '%s\n' "$out" | tail -n 5 >&2
        echo "ERROR: perfbench $workload --trace $trace exited nonzero" >&2
        exit 1
      fi
      if ! printf '%s\n' "$out" | tail -n 1 | python3 -c \
          'import json, sys; sys.exit(json.loads(sys.stdin.read()).get("correct") is not True)'; then
        echo "ERROR: perfbench $workload --trace $trace: last line lacks \"correct\": true" >&2
        exit 1
      fi
      echo "$workload --trace $trace: ok"
    done
  done
  echo; echo "check.sh --perfbench: every workload repeats its counts per seed and runs correctly"
  exit 0
fi

run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "ERROR: clang-tidy is required but not installed (config: .clang-tidy)" >&2
    return 1
  fi
  step "clang-tidy (src/)"
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  git ls-files 'src/*.cpp' | xargs clang-tidy -p build --quiet
}

if [[ "$TIDY" == 1 ]]; then
  run_tidy
  echo; echo "check.sh --tidy: clean"
  exit 0
fi

if [[ "$ANALYZE" == 1 ]]; then
  step "static script/transaction analyzer (lints + spend graph + authorization)"
  cmake -B build -S . >/dev/null
  cmake --build build -j --target daric_analyze >/dev/null
  ./build/tools/daric_analyze --auth --json build/analyze_report.json
  python3 tools/validate_trace.py --analyzer build/analyze_report.json
  echo; echo "check.sh --analyze: all templates sound, spenders authorized, Theorem-1 bounds hold"
  exit 0
fi

if [[ "$TRACE" == 1 ]]; then
  step "build trace tooling"
  cmake -B build -S . >/dev/null
  cmake --build build -j --target daric_trace daric_chaos >/dev/null

  step "daric force-close scenario (Theorem 1 timeline)"
  ./build/tools/daric_trace --engine daric --scenario force-close \
    --out build/trace-forceclose
  # Static cross-check: the spend-graph bound at the trace scenario's
  # parameters (Δ=2, T=8) must cover the punish gap the trace observed.
  cmake --build build -j --target daric_analyze >/dev/null
  ./build/tools/daric_analyze --graph --engine daric --tpunish 8 --delta 2 \
    --quiet --json build/trace-forceclose/analyze_report.json
  python3 tools/validate_trace.py \
    --jsonl build/trace-forceclose/trace.jsonl \
    --require-kind force_close --require-kind punish \
    --chrome build/trace-forceclose/trace_chrome.json \
    --metrics build/trace-forceclose/metrics.json \
    --analyzer build/trace-forceclose/analyze_report.json \
    --theorem1-engine daric

  step "daric multi-hop HTLC scenario"
  ./build/tools/daric_trace --engine daric --scenario htlc --out build/trace-htlc
  python3 tools/validate_trace.py \
    --jsonl build/trace-htlc/trace.jsonl \
    --require-kind htlc_lock --require-kind payment_settle \
    --chrome build/trace-htlc/trace_chrome.json \
    --metrics build/trace-htlc/metrics.json

  step "chaos schedule replay with tracer attached"
  ./build/tools/daric_chaos --emit 7 > build/trace-seed7.sched
  ./build/tools/daric_trace --replay build/trace-seed7.sched --protocol daric \
    --out build/trace-replay
  python3 tools/validate_trace.py \
    --jsonl build/trace-replay/trace.jsonl \
    --chrome build/trace-replay/trace_chrome.json \
    --metrics build/trace-replay/metrics.json

  step "behaviour digests: trace artifacts vs tests/golden/behaviour.sha256"
  python3 tools/behaviour_digest.py --build build --group trace \
    --check tests/golden/behaviour.sha256

  echo; echo "check.sh --trace: all trace artifacts valid"
  exit 0
fi

if [[ "$OBS" == 1 ]]; then
  step "TSan build: sharded-registry torture tests"
  cmake -B build-tsan -S . -DDARIC_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target test_obs test_obs_concurrency >/dev/null
  ./build-tsan/tests/test_obs_concurrency
  ./build-tsan/tests/test_obs

  step "daric_monitor --once smoke (Theorem-1 SLO gate)"
  cmake -B build -S . >/dev/null
  cmake --build build -j --target daric_monitor >/dev/null
  ./build/tools/daric_monitor --once --cheat-every 1 \
    --out build/monitor_metrics.log --prom build/monitor.prom

  step "Prometheus exposition lint + durable snapshot sanity"
  python3 tools/validate_trace.py --prom build/monitor.prom
  test -s build/monitor_metrics.log

  echo; echo "check.sh --obs: sharded registry race-free, monitor SLO holds"
  exit 0
fi

if [[ "$TSAN" == 1 ]]; then
  step "TSan build + tier-1 tests"
  cmake -B build-tsan -S . -DDARIC_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j >/dev/null
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)"
  echo; echo "check.sh --tsan: OK"
  exit 0
fi

if [[ "$BENCH" == 1 ]]; then
  step "Release build for benchmarks (no compiler warnings)"
  # As for the plain build: the output goes to build-release/build.log, and
  # any warning the -O3 compiles print fails the gate.
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  if ! cmake --build build-release -j --target bench_crypto bench_update_microbench \
      bench_obs_scale >build-release/build.log 2>&1; then
    tail -n 40 build-release/build.log >&2
    echo "ERROR: the Release build failed (build-release/build.log)" >&2
    exit 1
  fi
  if grep -n 'warning:' build-release/build.log >&2; then
    echo "ERROR: the Release build printed compiler warnings (build-release/build.log)" >&2
    exit 1
  fi

  # Both microbenches run pinned to the last CPU, five repetitions of every
  # rung in random order, so a burst of host noise lands on random rungs
  # (the anchor among them) instead of on every repetition of one. The
  # BENCH files record the median, min and cv of every rung; single runs on
  # a shared VM swing by 30%, so no gate below reads one run.
  PIN=()
  if command -v taskset >/dev/null; then PIN=(taskset -c "$(( $(nproc) - 1 ))"); fi
  REPS=(--benchmark_repetitions=5 --benchmark_enable_random_interleaving=true)

  step "bench_crypto -> BENCH_crypto.json"
  "${PIN[@]}" ./build-release/bench/bench_crypto "${REPS[@]}" \
    --benchmark_out=build-release/bench_crypto_raw.json \
    --benchmark_out_format=json
  python3 tools/bench_to_json.py --name crypto \
    --in build-release/bench_crypto_raw.json --out BENCH_crypto.json \
    --ratio schnorr_verify_speedup_vs_naive_ladder=BM_SchnorrVerifyNaiveLadder/BM_SchnorrVerify \
    --ratio mul_var_point_speedup_vs_naive_ladder=BM_MulVarPointNaiveLadder/BM_MulVarPointWnaf \
    --ratio cached_verify_speedup_vs_plain=BM_SchnorrVerify/BM_SchnorrVerifyCached

  step "bench_update_microbench -> BENCH_update_microbench.json"
  # The committed file is the previous change's baseline; keep it aside
  # before overwriting so the gates below can compare against it. The same
  # run records the disabled-tracer overhead against that baseline.
  # BM_HostAnchor is the only anchor: a multiply-and-load chain that calls
  # nothing in the library, so it moves with the host and with no change to
  # the code. Crypto rungs cannot anchor: they are optimization targets, and
  # anchoring on them would fold genuine speedups into the correction.
  cp BENCH_update_microbench.json build-release/BENCH_update_baseline.json
  "${PIN[@]}" ./build-release/bench/bench_update_microbench "${REPS[@]}" \
    --benchmark_out=build-release/bench_update_raw.json \
    --benchmark_out_format=json
  python3 tools/bench_to_json.py --name update_microbench \
    --in build-release/bench_update_raw.json --out BENCH_update_microbench.json \
    --baseline build-release/BENCH_update_baseline.json \
    --anchor BM_HostAnchor \
    --overhead daric_update=BM_DaricUpdate \
    --overhead lightning_update=BM_LightningUpdate \
    --overhead eltoo_update=BM_EltooUpdate \
    --overhead generalized_update=BM_GeneralizedUpdate

  step "disabled-tracer overhead gate"
  python3 - <<'PY'
import json, sys
ov = json.load(open("BENCH_update_microbench.json"))["overhead_vs_baseline"]
worst = max(ov, key=ov.get)
print(f"trace overhead vs baseline (medians): worst {worst} = {ov[worst]:.4f}x")
if ov[worst] > 1.05:
    sys.exit(f"ERROR: disabled tracer costs >5% on {worst} ({ov[worst]:.4f}x)")
if ov[worst] > 1.02:
    print(f"WARNING: overhead above the 2% budget on {worst} "
          f"(may be machine noise; re-run to confirm)")
PY

  step "BM_DaricUpdate throughput regression gate"
  # Anchor-corrected median updates/s must not drop more than 10% below the
  # committed baseline's median.
  python3 - <<'PY'
import json, sys
now = json.load(open("BENCH_update_microbench.json"))["results"]
base = json.load(open("build-release/BENCH_update_baseline.json"))["results"]
anchor = now["BM_HostAnchor"]["real_time_ns"] / base["BM_HostAnchor"]["real_time_ns"]
ips_now = now["BM_DaricUpdate"]["items_per_second"]
ips_base = base["BM_DaricUpdate"]["items_per_second"]
corrected = ips_now * anchor  # updates/s at the baseline machine's speed
ratio = corrected / ips_base
print(f"BM_DaricUpdate: {ips_now:.1f} updates/s now, {ips_base:.1f} baseline (medians), "
      f"anchor factor {anchor:.4f} -> corrected ratio {ratio:.3f}x")
if ratio < 0.90:
    sys.exit(f"ERROR: BM_DaricUpdate throughput regressed >10% "
             f"({ratio:.3f}x of baseline after anchor correction)")
PY

  step "bench_obs_scale -> BENCH_obs_scale.json"
  ./build-release/bench/bench_obs_scale \
    --benchmark_out=build-release/bench_obs_raw.json \
    --benchmark_out_format=json
  python3 tools/bench_to_json.py --name obs_scale \
    --in build-release/bench_obs_raw.json --out BENCH_obs_scale.json \
    --ratio span_enabled_vs_disabled=BM_SpanEnabled/BM_SpanDisabled

  step "sharded-registry scaling gate"
  # Sharded counters must beat the mutex registry at every thread count
  # >= 2, and aggregate throughput must not collapse as threads double
  # (flat is acceptable: on a 1-core host ideal scaling IS flat — the
  # mutex registry, by contrast, loses throughput to contention).
  python3 - <<'PY'
import json, sys
res = json.load(open("BENCH_obs_scale.json"))["results"]
def ips(bm, n):
    return res[f"{bm}/real_time/threads:{n}"]["items_per_second"]
for n in (2, 4, 8):
    sharded, mutexed = ips("BM_CounterSharded", n), ips("BM_CounterMutexRegistry", n)
    print(f"threads={n}: sharded {sharded/1e6:.1f}M/s vs mutex {mutexed/1e6:.1f}M/s")
    if sharded < mutexed:
        sys.exit(f"ERROR: sharded registry slower than mutex registry at {n} threads")
for n in (2, 4, 8):
    if ips("BM_CounterSharded", n) < 0.70 * ips("BM_CounterSharded", n // 2):
        sys.exit(f"ERROR: sharded counter throughput collapsed "
                 f"{n//2}->{n} threads (>30% drop)")
span = json.load(open("BENCH_obs_scale.json"))["results"]["BM_SpanDisabled"]
print(f"disabled span: {span['real_time_ns']:.2f} ns/op")
if span["real_time_ns"] > 5.0:
    sys.exit("ERROR: disabled OBS_SPAN costs >5ns — not one relaxed load")
PY

  step "BENCH build-type sanity"
  python3 - <<'PY'
import json, sys
for f in ("BENCH_crypto.json", "BENCH_update_microbench.json", "BENCH_obs_scale.json"):
    bt = json.load(open(f))["context"]["build_type"]
    if bt != "release":
        sys.exit(f"ERROR: {f} records build_type={bt!r}, expected 'release'")
    print(f"{f}: build_type=release ok")
PY

  echo; echo "check.sh --bench: BENCH files written"
  exit 0
fi

if [[ "$CHAOS" == 1 ]]; then
  step "ASan+UBSan build (chaos driver)"
  cmake -B build-asan -S . -DDARIC_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j --target daric_chaos >/dev/null

  step "fixed-seed 200-schedule sweep, all protocols"
  ./build-asan/tools/daric_chaos --sweep 200 --seed 1

  step "watchtower-downtime boundary scan (Theorem 1)"
  ./build-asan/tools/daric_chaos --boundary

  step "committed regression schedules"
  for sched in tests/schedules/*.sched; do
    echo "replay $sched"
    ./build-asan/tools/daric_chaos --replay "$sched" --protocol daric
  done

  step "behaviour digests: chaos reports vs tests/golden/behaviour.sha256"
  python3 tools/behaviour_digest.py --build build-asan --group chaos \
    --check tests/golden/behaviour.sha256

  echo; echo "check.sh --chaos: all sweeps clean"
  exit 0
fi

if [[ "$DURABLE" == 1 ]]; then
  step "ASan+UBSan build (chaos driver + store tests)"
  cmake -B build-asan -S . -DDARIC_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j --target daric_chaos test_store >/dev/null

  step "durable store unit + torn-tail fuzz tests"
  ./build-asan/tests/test_store

  step "crash-replay sweep: 200 schedules, every message boundary"
  ./build-asan/tools/daric_chaos --durable-sweep 200 --seed 1

  step "crash-replay sweep: 600 schedules from seed 1000003"
  ./build-asan/tools/daric_chaos --durable-sweep 600 --seed 1000003

  echo; echo "check.sh --durable: crash recovery never violates Theorem 1"
  exit 0
fi

step "plain build (no compiler warnings) + tier-1 tests"
# The build's output goes to build/build.log, and any warning it prints
# fails the gate. Only what this run compiles can print one, so a tree
# built afresh checks every file.
cmake -B build -S . >/dev/null
if ! cmake --build build -j >build/build.log 2>&1; then
  tail -n 40 build/build.log >&2
  echo "ERROR: the plain build failed (build/build.log)" >&2
  exit 1
fi
if grep -n 'warning:' build/build.log >&2; then
  echo "ERROR: the plain build printed compiler warnings (build/build.log)" >&2
  exit 1
fi
ctest --test-dir build --output-on-failure -j "$(nproc)"

step "behaviour digests: chaos reports, trace artifacts and analyzer report vs tests/golden/behaviour.sha256"
python3 tools/behaviour_digest.py --build build --check tests/golden/behaviour.sha256

step "static script/transaction analyzer (all engines, lints + spend graph + auth)"
./build/tools/daric_analyze --graph --json build/analyze_report.json
python3 tools/validate_trace.py --analyzer build/analyze_report.json

step "bounded model check (default safe config)"
./build/tools/daric_modelcheck

step "bounded model check (broken watchtower must fail)"
if ./build/tools/daric_modelcheck --break=watchtower --quiet; then
  echo "ERROR: disabling the watchtowers should trip balance security" >&2
  exit 1
fi
echo "counterexample found, as expected"

step "secret-hygiene lint (src/crypto)"
python3 tools/lint_secrets.py

if command -v clang-tidy >/dev/null 2>&1; then
  run_tidy
elif [[ "${DARIC_REQUIRE_TIDY:-0}" == 1 ]]; then
  echo "ERROR: DARIC_REQUIRE_TIDY=1 but clang-tidy is not installed" >&2
  exit 1
else
  echo "clang-tidy not installed; skipping (config: .clang-tidy," \
       "enforce with --tidy or DARIC_REQUIRE_TIDY=1)"
fi

if [[ "$FAST" == 1 ]]; then
  echo; echo "check.sh --fast: OK (sanitizer pass skipped)"
  exit 0
fi

step "ASan+UBSan build + tier-1 tests"
cmake -B build-asan -S . -DDARIC_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j >/dev/null
ctest --test-dir build-asan --output-on-failure -j "$(nproc)"

step "bounded model check under sanitizers"
./build-asan/tools/daric_modelcheck --updates 2 --horizon 16

echo; echo "check.sh: all gates passed"
