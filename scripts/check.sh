#!/usr/bin/env bash
# Full verification gate: plain build + tests, ASan/UBSan, TSan, quick bench
# smoke, examples, and the soak/fuzz tools. Run from the repository root.
#
#   scripts/check.sh            # everything (slow: three full builds)
#   scripts/check.sh --fast     # plain build + tests + smoke only
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

run() { echo "+ $*"; "$@"; }

echo "=== plain build + tests ==="
run cmake -B build-check -G Ninja
run cmake --build build-check
run ctest --test-dir build-check --output-on-failure

echo "=== header self-containment (each src/ header as a standalone TU) ==="
run cmake --build build-check --target header_selfcontained

echo "=== examples ==="
for ex in quickstart kv_cache order_book adversarial_find; do
  run "./build-check/examples/${ex}" > /dev/null
done

echo "=== bench smoke (short cells) ==="
for b in build-check/bench/*; do
  [[ -x "$b" && ! -d "$b" ]] || continue
  if [[ "$b" == *bench_latency* ]]; then
    run "$b" --benchmark_min_time=0.01 > /dev/null
  else
    EFRB_BENCH_MS=20 run "$b" > /dev/null
  fi
done

echo "=== perfbench smoke (every workload's ledger, validate() and scan checks) ==="
# Builds perfbench/ into .bench_build (or $CARGO_TARGET_DIR) and runs each
# workload untraced and traced on shrunken inputs; exits nonzero on any
# failed op, failed check or missing metric.
run python3 perfbench/run.py --smoke

echo "=== tools ==="
run ./build-check/tools/stress_tool --seconds 1 > /dev/null
run ./build-check/tools/fuzz_lincheck --seconds 2 > /dev/null

echo "=== observability: metrics + trace export round-trip ==="
# obs_probe runs a traced, latency-sampled workload and writes both machine-
# readable artifacts; both must parse as JSON and carry the schema the docs
# promise (docs/OBSERVABILITY.md).
run ./build-check/tools/obs_probe --metrics build-check/obs_metrics.json \
    --trace build-check/obs_trace.json --prom build-check/obs_probe.prom \
    --duration 60 --interval 10 > /dev/null
run python3 -m json.tool build-check/obs_metrics.json /dev/null
run python3 -m json.tool build-check/obs_trace.json /dev/null
python3 - <<'EOF'
import json
m = json.load(open('build-check/obs_metrics.json'))
for k in ('schema', 'schema_version', 'tool', 'cells'):
    assert k in m, f'metrics missing {k}'
assert m['schema'] == 'efrb-metrics' and m['schema_version'] == 4, m['schema']
assert m['cells'], 'metrics document has no cells'
cell = m['cells'][0]
for k in ('name', 'config', 'result', 'tree_stats', 'gauges', 'latency',
          'timeseries', 'heatmap', 'causality'):
    assert k in cell, f'cell missing {k}'
for op in ('find', 'insert', 'erase', 'retried',
           'self_completed', 'helper_completed'):
    h = cell['latency'][op]
    for k in ('count', 'mean_ns', 'p50_ns', 'p99_ns', 'saturated', 'buckets'):
        assert k in h, f'latency[{op}] missing {k}'
assert cell['latency']['insert']['count'] > 0, 'no latency samples recorded'
# v3 causal split: every sampled op lands in exactly one of the two sides.
split = (cell['latency']['self_completed']['count']
         + cell['latency']['helper_completed']['count'])
sampled = sum(cell['latency'][op]['count'] for op in ('find', 'insert', 'erase'))
assert split == sampled, f'causal latency split {split} != sampled {sampled}'
cz = cell['causality']
for k in ('total_helps', 'dropped_unattributed', 'helped_by',
          'helps_received'):
    assert k in cz, f'causality missing {k}'
assert sum(sum(row.values()) for row in cz['helped_by'].values()) \
    == cz['total_helps'], 'causality matrix does not sum to total_helps'
ts = cell['timeseries']
assert ts['samples'], 'timeseries has no samples'
assert len(ts['windows']) == len(ts['samples']) - 1, 'windows != samples-1'
for k in ('t_ns', 'ops', 'cas_attempts', 'cas_failures', 'helps', 'retries',
          'retired', 'freed', 'backlog'):
    assert k in ts['samples'][0], f'timeseries sample missing {k}'
for k in ('t_ns', 'window_s', 'ops_per_s', 'cas_failure_rate', 'helps_per_s',
          'retries_per_s', 'retired_per_s', 'freed_per_s', 'backlog_slope'):
    assert k in ts['windows'][0], f'timeseries window missing {k}'
hm = cell['heatmap']
for k in ('key_range', 'buckets', 'dropped', 'strip', 'cells'):
    assert k in hm, f'heatmap missing {k}'
assert len(hm['cells']) == hm['buckets'], 'heatmap cell count != buckets'
assert sum(c[0] for c in hm['cells']) > 0, 'heatmap recorded no attempts'
t = json.load(open('build-check/obs_trace.json'))
assert t.get('traceEvents'), 'trace has no events'
phases = {e['ph'] for e in t['traceEvents']}
assert 'B' in phases and 'E' in phases, f'no spans in trace: {phases}'
print(f"observability OK: {len(t['traceEvents'])} trace events, "
      f"{len(m['cells'])} metrics cell(s), {len(ts['samples'])} poll samples")
EOF
# The shared --json flag must work in every bench binary; smoke the heaviest.
# EFRB_BENCH_SEED pins the op/key streams so the fixed-op shard/balance cells
# in this document are reproducible inputs for the gates below.
EFRB_BENCH_MS=20 EFRB_BENCH_SEED=1234 run ./build-check/bench/bench_throughput \
    --json build-check/bench_throughput_smoke.json > /dev/null
run python3 -m json.tool build-check/bench_throughput_smoke.json /dev/null
# The sharded front end's `sharding` cell (metrics v2): balance report +
# per-shard reclaimer gauges, shape per docs/OBSERVABILITY.md.
python3 - <<'EOF'
import json
cells = json.load(open('build-check/bench_throughput_smoke.json'))['cells']
shard_cells = [c for c in cells if 'sharding' in c]
assert shard_cells, 'no cell carries a sharding section'
sh = shard_cells[0]['sharding']
for k in ('router', 'shards', 'imbalance', 'hottest', 'total_attempts',
          'total_contended', 'dropped', 'per_shard'):
    assert k in sh, f'sharding cell missing {k}'
assert len(sh['per_shard']) == sh['shards'], 'per_shard count != shards'
for k in ('attempts', 'contended', 'share', 'retired', 'freed', 'backlog',
          'orphans'):
    assert k in sh['per_shard'][0], f'sharding per_shard entry missing {k}'
assert sh['total_attempts'] == sum(s['attempts'] for s in sh['per_shard']), \
    'shard attribution does not conserve totals'
assert sh['imbalance'] >= 1.0, 'imbalance below the even-split floor'
print(f"sharding cell OK: {sh['router']} x{sh['shards']}, "
      f"imbalance {sh['imbalance']:.2f}")
EOF

echo "=== continuous telemetry: efrb_top headless + Prometheus exposition ==="
# efrb_top --once renders a single plain frame (no escape codes) after the
# run — the headless CI path. The frame must carry the windowed-rate table,
# the heatmap strip, and the reclaim gauge line.
run ./build-check/tools/efrb_top --once --ms 80 --interval 10 --threads 2 \
    > build-check/efrb_top_once.txt
for needle in 'ops/s' 'cas fail %' 'backlog slope' 'heatmap' 'reclaim' \
    'causal' 'stalls' 'poller samples' 'latency' 'saturated=' 'profile' \
    'descent' 'cas_protocol'; do
  grep -q "$needle" build-check/efrb_top_once.txt \
    || { echo "efrb_top --once output missing '$needle'"; exit 1; }
done
# No live-mode escape codes may leak into the --once path.
if grep -q $'\x1b' build-check/efrb_top_once.txt; then
  echo "efrb_top --once emitted ANSI escapes"; exit 1
fi
# --shards N adds the per-shard row (load share + per-shard reclaimer gauges)
# under the same frame; the table and the balance summary line must render.
run ./build-check/tools/efrb_top --once --ms 80 --interval 10 --threads 2 \
    --shards 4 > build-check/efrb_top_shards.txt
for needle in 'shards' 'imbalance' 'load %' 'backlog' 'orphans' \
    'poller samples'; do
  grep -q "$needle" build-check/efrb_top_shards.txt \
    || { echo "efrb_top --shards output missing '$needle'"; exit 1; }
done
# The shared --prom flag writes Prometheus text exposition; lint it line by
# line against the exposition-format grammar (docs/OBSERVABILITY.md).
EFRB_BENCH_MS=20 run ./build-check/bench/bench_throughput \
    --prom build-check/bench_throughput_smoke.prom > /dev/null
python3 - <<'EOF'
import re
NAME = r'[a-zA-Z_:][a-zA-Z0-9_:]*'
LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"'
sample_re = re.compile(rf'^({NAME})(?:\{{{LABEL}(?:,{LABEL})*\}})? (\S+)$')
help_re = re.compile(rf'^# HELP ({NAME}) \S.*$')
type_re = re.compile(rf'^# TYPE ({NAME}) (counter|gauge)$')
typed, samples, pending_help = set(), 0, None
for ln, line in enumerate(open('build-check/bench_throughput_smoke.prom'), 1):
    line = line.rstrip('\n')
    if not line:
        continue
    if line.startswith('# HELP'):
        m = help_re.match(line)
        assert m, f'line {ln}: malformed HELP: {line}'
        assert m.group(1) not in typed, f'line {ln}: duplicate HELP for {m.group(1)}'
        pending_help = m.group(1)
    elif line.startswith('# TYPE'):
        m = type_re.match(line)
        assert m, f'line {ln}: malformed TYPE: {line}'
        assert m.group(1) == pending_help, f'line {ln}: TYPE without its HELP'
        typed.add(m.group(1))
    else:
        m = sample_re.match(line)
        assert m, f'line {ln}: malformed sample: {line}'
        assert m.group(1) in typed, f'line {ln}: sample before # TYPE'
        float(m.group(2))  # raises on a malformed value
        samples += 1
assert samples > 0, 'prom exposition has no samples'
for want in ('efrb_ops_total', 'efrb_cas_attempts_total',
             'efrb_reclaim_backlog', 'efrb_throughput_mops',
             'efrb_shard_count', 'efrb_shard_imbalance',
             'efrb_shard_attempts_total', 'efrb_shard_contended_total',
             'efrb_shard_reclaim_backlog', 'efrb_shard_reclaim_orphans'):
    assert want in typed, f'prom exposition missing {want}'
print(f'prometheus OK: {samples} samples across {len(typed)} metrics')
EOF
# obs_probe's exposition additionally carries the causality + watchdog
# families (the bench binaries do not wire a CausalRegistry).
for needle in efrb_help_given_total efrb_help_received_total \
    efrb_help_unattributed_total efrb_stalled_ops efrb_stall_events_total \
    efrb_latency_count; do
  grep -q "^# TYPE $needle " build-check/obs_probe.prom \
    || { echo "obs_probe prom missing $needle"; exit 1; }
done

echo "=== profile: phase attribution + hardware-counter fallback ==="
# obs_probe --profile attaches the phase profiler and per-thread perf
# counter groups; the v4 `profile` cell must carry the attribution totals
# with the phase-sum invariant, and the hw/sw/derived sections must follow
# the absent-not-zero rule in whichever availability tier this host lands.
run ./build-check/tools/obs_probe --profile --metrics build-check/obs_profile.json \
    --prom build-check/obs_profile.prom --duration 60 --interval 10 > /dev/null
python3 - <<'EOF'
import json
m = json.load(open('build-check/obs_profile.json'))
assert m['schema_version'] == 4, m['schema_version']
p = m['cells'][0]['profile']
for k in ('available', 'sw_available', 'source', 'paranoid', 'ops', 'cycles',
          'span_cycles', 'cycles_per_op', 'phase_cycles_sum',
          'events_outside_op', 'dropped', 'phases'):
    assert k in p, f'profile cell missing {k}'
assert p['ops'] > 0, 'profile attributed no operations'
assert p['cycles'] > 0, 'profile measured no cycles'
assert p['phase_cycles_sum'] <= p['cycles'], \
    f"phase attribution {p['phase_cycles_sum']} exceeds total {p['cycles']}"
for name in ('descent', 'cas_protocol', 'helping', 'rebalance_cleanup',
             'reclamation', 'pool_alloc'):
    ph = p['phases'][name]
    for k in ('cycles', 'enters', 'share'):
        assert k in ph, f'phase {name} missing {k}'
assert p['phases']['descent']['cycles'] > 0, 'no descent time attributed'
if p['available']:
    assert 'hw' in p and 'derived' in p, 'available profile lacks hw/derived'
    assert p['hw']['cycles'] > 0, 'hw cycles claimed available but zero'
else:
    # Absent-not-zero: unavailable sections must not appear at all.
    assert 'hw' not in p and 'derived' not in p, \
        'unavailable profile still renders hw/derived sections'
    assert p['unavailable_reason'], 'no explanation for hw unavailability'
print(f"profile OK: {p['ops']} ops, {p['cycles_per_op']:.0f} "
      f"{p['source']}/op, hw={'yes' if p['available'] else 'no'} "
      f"({p.get('unavailable_reason', '')})")
EOF
for needle in efrb_profile_available efrb_profile_ops_total \
    efrb_profile_cycles_total efrb_profile_cycles_per_op \
    efrb_profile_phase_cycles_total efrb_profile_phase_enters_total \
    efrb_profile_phase_share; do
  grep -q "^# TYPE $needle " build-check/obs_profile.prom \
    || { echo "profile prom missing $needle"; exit 1; }
done
# The kill switch forces the cycle-stamp fallback on ANY host: the same
# command must still succeed, with available=false, an explanation, and no
# hw/sw/derived sections (absent, never zero-filled).
EFRB_PERFCTR_DISABLE=1 run ./build-check/tools/obs_probe --profile \
    --metrics build-check/obs_profile_fallback.json --duration 40 > /dev/null
python3 - <<'EOF'
import json
p = json.load(open('build-check/obs_profile_fallback.json'))['cells'][0]['profile']
assert p['available'] is False and p['sw_available'] is False
assert 'hw' not in p and 'sw' not in p and 'derived' not in p
assert 'EFRB_PERFCTR_DISABLE' in p['unavailable_reason'], \
    p['unavailable_reason']
assert p['ops'] > 0 and p['phase_cycles_sum'] <= p['cycles']
print(f"profile fallback OK: {p['unavailable_reason']}")
EOF

echo "=== perfdiff: snapshot regression pipeline ==="
# Identity: a snapshot diffed against itself must compare clean (exit 0).
run ./build-check/tools/efrb_perfdiff BENCH_throughput.json BENCH_throughput.json \
    > /dev/null
# Sensitivity: a doctored copy with every throughput halved must be flagged
# (exit 1) and rendered as REGRESSED rows.
python3 - <<'EOF'
import json
doc = json.load(open('BENCH_throughput.json'))
for c in doc['cells']:
    c['result']['mops'] /= 2.0
json.dump(doc, open('build-check/bench_doctored.json', 'w'))
EOF
set +e
./build-check/tools/efrb_perfdiff BENCH_throughput.json build-check/bench_doctored.json \
    > build-check/perfdiff_doctored.txt
diff_rc=$?
set -e
[[ "$diff_rc" -eq 1 ]] \
  || { echo "perfdiff missed the doctored 2x regression (exit $diff_rc)"; exit 1; }
grep -q 'REGRESSED' build-check/perfdiff_doctored.txt \
  || { echo "perfdiff table has no REGRESSED rows"; exit 1; }
# Drift vs the checked-in snapshot (advisory): the smoke run above uses
# short 20 ms cells and may come from a different machine than the archived
# snapshot, so a swing only warns; EFRB_PERFDIFF_STRICT=1 enforces it.
set +e
./build-check/tools/efrb_perfdiff --allow-cross-host \
    BENCH_throughput.json build-check/bench_throughput_smoke.json \
    > build-check/perfdiff_drift.txt
drift_rc=$?
set -e
if [[ "$drift_rc" -eq 1 ]]; then
  if [[ "${EFRB_PERFDIFF_STRICT:-0}" == "1" ]]; then
    cat build-check/perfdiff_drift.txt
    echo "perf drift vs checked-in snapshot (EFRB_PERFDIFF_STRICT=1)"
    exit 1
  fi
  echo "WARNING: perf drift vs checked-in snapshot (advisory: short smoke" \
       "cells; set EFRB_PERFDIFF_STRICT=1 to enforce)"
  grep 'REGRESSED' build-check/perfdiff_drift.txt || true
elif [[ "$drift_rc" -ne 0 ]]; then
  cat build-check/perfdiff_drift.txt
  echo "perfdiff drift comparison errored (exit $drift_rc)"
  exit 1
fi
echo "perfdiff OK: identical clean, doctored flagged, drift advisory"

echo "=== postmortem: abort-injected flight dump must decode ==="
# obs_probe --abort raises SIGABRT after the run; the installed flight
# handler must leave a decodable black box behind (signal-safe write path),
# and efrb_postmortem must reconstruct gauges, the progress table, and the
# per-thread timelines from it.
rm -f build-check/obs_crash.bin
set +e
./build-check/tools/obs_probe --ms 60 --abort --flight build-check/obs_crash.bin \
    > /dev/null 2>&1
probe_rc=$?
set -e
[[ "$probe_rc" -ne 0 ]] \
  || { echo "obs_probe --abort exited 0 (expected a SIGABRT death)"; exit 1; }
[[ -s build-check/obs_crash.bin ]] \
  || { echo "flight handler wrote no dump"; exit 1; }
run ./build-check/tools/efrb_postmortem build-check/obs_crash.bin > build-check/postmortem.txt
for needle in 'flight dump v1' 'gauges' 'progress table' \
    'per-thread timeline' 'inferred help graph'; do
  grep -q "$needle" build-check/postmortem.txt \
    || { echo "efrb_postmortem output missing '$needle'"; exit 1; }
done
echo "postmortem OK: exit $probe_rc, $(wc -c < build-check/obs_crash.bin) byte dump"

if [[ "$FAST" == "0" ]]; then
  echo "=== ASan + UBSan ==="
  run cmake -B build-asan -G Ninja -DEFRB_BUILD_BENCH=OFF -DEFRB_BUILD_EXAMPLES=OFF \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  run cmake --build build-asan
  run ctest --test-dir build-asan --output-on-failure --timeout 600

  echo "=== TSan ==="
  run cmake -B build-tsan -G Ninja -DEFRB_BUILD_BENCH=OFF -DEFRB_BUILD_EXAMPLES=OFF \
      -DEFRB_SANITIZE_THREAD=ON
  run cmake --build build-tsan
  run ctest --test-dir build-tsan --output-on-failure --timeout 900

  echo "=== TSan + forced stats (kCountStats=true shards under the race detector) ==="
  # EFRB_TEST_FORCE_STATS switches the concurrent suites to StatsTraits so the
  # per-handle stat shards and the shared counter block race under TSan too.
  run cmake -B build-tsan-stats -G Ninja -DEFRB_BUILD_BENCH=OFF -DEFRB_BUILD_EXAMPLES=OFF \
      -DEFRB_SANITIZE_THREAD=ON \
      -DCMAKE_CXX_FLAGS="-DEFRB_TEST_FORCE_STATS"
  run cmake --build build-tsan-stats
  run ctest --test-dir build-tsan-stats --output-on-failure --timeout 900 \
      -R 'Handle|Stats|Concurrent|Chaos'

  echo "=== allocation: pooled configuration under ASan/TSan + A/B throughput gate ==="
  # EFRB_TEST_POOLED switches the concurrent suites to PooledTraits, so every
  # schedule also exercises the ObjectPool (per-handle caches, the global
  # free list, retire-to-pool through the reclaimers) under both sanitizers.
  # The alloc_test suite (pool unit + differential + fault-injection cells)
  # rides along in the same builds.
  run cmake -B build-asan-pooled -G Ninja -DEFRB_BUILD_BENCH=OFF -DEFRB_BUILD_EXAMPLES=OFF \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -DEFRB_TEST_POOLED" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  run cmake --build build-asan-pooled --target alloc_test core_concurrent_test
  run ./build-asan-pooled/tests/alloc_test --gtest_color=no
  run ./build-asan-pooled/tests/core_concurrent_test --gtest_color=no
  run cmake -B build-tsan-pooled -G Ninja -DEFRB_BUILD_BENCH=OFF -DEFRB_BUILD_EXAMPLES=OFF \
      -DEFRB_SANITIZE_THREAD=ON \
      -DCMAKE_CXX_FLAGS="-DEFRB_TEST_POOLED"
  run cmake --build build-tsan-pooled --target alloc_test core_concurrent_test
  run ./build-tsan-pooled/tests/alloc_test --gtest_color=no \
      --gtest_filter='-BlockPoolDeathTest.*'  # fork-based death test under TSan is unreliable
  run ./build-tsan-pooled/tests/core_concurrent_test --gtest_color=no
  # A/B gate: the opt-in pooled allocator (Traits::kPooledAlloc, with the
  # lean find) must not regress below the heap baseline on the uniform
  # read-mostly cell (E1c); the default configuration is heap + lean find.
  # Summed over thread counts to average scheduler noise.
  EFRB_BENCH_MS="${EFRB_ALLOC_GATE_MS:-60}" run ./build-check/bench/bench_throughput \
      --json build-check/alloc_gate.json > /dev/null
  python3 - <<'EOF'
import json
cells = json.load(open('build-check/alloc_gate.json'))['cells']
def total(name):
    t = sum(c['result']['mops'] for c in cells if c['name'] == name)
    assert t > 0, f'no {name} cells in alloc ablation output'
    return t
heap_full = total('alloc:heap+fullsearch')
heap_lean = total('alloc:heap+lean')
pool_lean = total('alloc:pooled+lean')
total('alloc:pooled+fullsearch')  # presence check for the full 2x2 grid
print(f'alloc gate: heap+full={heap_full:.2f} heap+lean={heap_lean:.2f} '
      f'pooled+lean={pool_lean:.2f} summed Mops over thread counts')
assert pool_lean >= 0.95 * heap_lean, (
    f'pooled allocation regressed below the heap baseline on the same read '
    f'path: {pool_lean:.2f} < 0.95 * {heap_lean:.2f}')
assert pool_lean >= 0.95 * heap_full, (
    f'pooled allocation (pooled+lean) lost to the full-Search heap '
    f'baseline (heap+fullsearch): {pool_lean:.2f} < 0.95 * {heap_full:.2f}')
print('alloc gate OK')
EOF

  echo "=== balanced tree: chromatic suites under the pooled sanitizer builds + balance gate ==="
  # The plain ASan/TSan ctest sweeps above already run the chromatic suites;
  # here the same suites additionally run with -DEFRB_TEST_POOLED (every
  # schedule through the ObjectPool, including pooled ScxRecord recycling)
  # under both sanitizers — together with ordered_query_test, so the ordered
  # walks both trees share run over pooled nodes for each of them.
  run cmake --build build-asan-pooled --target chromatic_test chromatic_concurrent_test ordered_query_test
  run ./build-asan-pooled/tests/chromatic_test --gtest_color=no
  run ./build-asan-pooled/tests/chromatic_concurrent_test --gtest_color=no
  run ./build-asan-pooled/tests/ordered_query_test --gtest_color=no
  run cmake --build build-tsan-pooled --target chromatic_test chromatic_concurrent_test ordered_query_test
  run ./build-tsan-pooled/tests/chromatic_test --gtest_color=no
  run ./build-tsan-pooled/tests/chromatic_concurrent_test --gtest_color=no
  run ./build-tsan-pooled/tests/ordered_query_test --gtest_color=no
  # A/B gate over the E1d balance ablation: the chromatic tree must crush the
  # EFRB tree on its pathological input (sorted insert: the vine vs O(log n)
  # rebalancing) while paying at most 10% rent on the uniform balanced mix.
  # Summed over thread counts to average scheduler noise. Wall-clock ratios
  # from short runs are still noisy on loaded or heterogeneous machines, so
  # the thresholds are ADVISORY by default (a miss prints a warning, the
  # pipeline continues); EFRB_BALANCE_GATE_STRICT=1 enforces them, with one
  # longer-run retry first so a scheduler hiccup alone cannot fail CI.
  # EFRB_BENCH_SEED pins the key/op streams; with the fixed-op cells below the
  # A/B pair then does IDENTICAL work and the ratio is a property of the trees,
  # not of where the duration timer happened to cut each run off.
  balance_bench() {
    EFRB_BENCH_MS="$1" EFRB_BENCH_SEED=1234 run ./build-check/bench/bench_throughput \
        --json build-check/balance_gate.json > /dev/null
  }
  balance_eval() {
    python3 - <<'EOF'
import json
cells = json.load(open('build-check/balance_gate.json'))['cells']
def total(name):
    t = sum(c['result']['mops'] for c in cells if c['name'] == name)
    assert t > 0, f'no {name} cells in balance ablation output'
    return t
sorted_ratio = (total('balance:sorted-insert chromatic')
                / total('balance:sorted-insert efrb'))
# The uniform-rent gate reads the FIXED-OP cells (balance:uniform-ops ...):
# both trees execute the same pinned-seed op stream to completion, so the
# ratio compares time-per-identical-work instead of whatever each tree got
# done before a wall clock expired. That basis is much tighter run-to-run
# (observed ~0.80-0.84 vs 0.90-0.97 spread for the duration cells) but sits
# lower, because equal work makes the chromatic tree pay for its rebalancing
# ops rather than silently doing fewer of them; hence >= 0.75, not >= 0.9.
uniform_ratio = (total('balance:uniform-ops chromatic')
                 / total('balance:uniform-ops efrb'))
total('balance:uniform chromatic')  # presence checks for the full grid
total('balance:zipf chromatic')
print(f'balance gate: sorted-insert {sorted_ratio:.1f}x, '
      f'uniform-ops {uniform_ratio:.2f}x (chromatic/efrb, summed over threads)')
assert sorted_ratio >= 5.0, (
    f'chromatic tree lost its reason to exist: only {sorted_ratio:.1f}x over '
    f'EFRB on sorted insert (gate: >= 5x)')
assert uniform_ratio >= 0.75, (
    f'chromatic rebalancing rent too high on the uniform fixed-op mix: '
    f'{uniform_ratio:.2f}x of EFRB (gate: >= 0.75x)')
print('balance gate OK')
EOF
  }
  balance_bench "${EFRB_BALANCE_GATE_MS:-120}"  # a bench crash stays fatal
  if balance_eval; then
    :
  elif [[ "${EFRB_BALANCE_GATE_STRICT:-0}" == "1" ]]; then
    echo "balance gate missed on the short run; retrying with a longer run"
    balance_bench "${EFRB_BALANCE_GATE_MS_RETRY:-600}"
    balance_eval
  else
    echo "WARNING: balance gate below thresholds (advisory on this machine;" \
         "set EFRB_BALANCE_GATE_STRICT=1 to enforce)"
  fi

  echo "=== sharded front end: suites under both sanitizers + advisory scaling gate ==="
  # The sharded suites (routing, tree-of-trees surface, ordered oracle,
  # balance scoring, mixed-op storms) and the sharded linearizability burst
  # replays run under the pooled ASan and TSan builds, so cross-shard handle
  # affinity and per-shard reclaimer plumbing face both sanitizers with the
  # ObjectPool in the loop.
  run cmake --build build-asan-pooled --target sharded_map_test map_lincheck_test
  run ./build-asan-pooled/tests/sharded_map_test --gtest_color=no
  run ./build-asan-pooled/tests/map_lincheck_test --gtest_color=no \
      --gtest_filter='ShardedMapLinearizabilityTest.*'
  run cmake --build build-tsan-pooled --target sharded_map_test map_lincheck_test
  run ./build-tsan-pooled/tests/sharded_map_test --gtest_color=no
  run ./build-tsan-pooled/tests/map_lincheck_test --gtest_color=no \
      --gtest_filter='ShardedMapLinearizabilityTest.*'
  # Scaling gate over the E1e shard ablation (fixed-op, pinned-seed cells from
  # the smoke --json above): the best sharded 16-thread configuration should
  # beat the single tree by >= 1.5x once real cores back the threads. ADVISORY
  # always — on a single-CPU host every shard count bottoms out at the same
  # core and the ratio is ~1x by construction, which is not a code defect.
  python3 - <<'EOF' || echo "WARNING: sharded scaling gate below threshold" \
      "(advisory: expected on hosts without enough cores)"
import json
cells = json.load(open('build-check/bench_throughput_smoke.json'))['cells']
def mops(name):
    t = sum(c['result']['mops'] for c in cells if c['name'] == name)
    assert t > 0, f'no {name} cells in shard ablation output'
    return t
single = mops('shard:single')
best_n, best = max(
    ((n, mops(f'shard:uniform s={n}')) for n in (2, 4, 8, 16)),
    key=lambda p: p[1])
print(f'sharded gate: single {single:.2f} Mops, best sharded {best:.2f} Mops '
      f'(s={best_n}) -> {best / single:.2f}x at 16 threads')
assert best >= 1.5 * single
print('sharded gate OK')
EOF

  echo "=== debug-hooks instrumented build (live non-Noop on_cas/at callbacks) ==="
  # EFRB_TEST_FORCE_HOOKS switches the concurrent suites to traits whose
  # on_cas/at hooks run real code, proving every emission point in
  # protocol.hpp survives refactors (NoopTraits compiles them away).
  run cmake -B build-hooks -G Ninja -DEFRB_BUILD_BENCH=OFF -DEFRB_BUILD_EXAMPLES=OFF \
      -DCMAKE_CXX_FLAGS="-DEFRB_TEST_FORCE_HOOKS"
  run cmake --build build-hooks
  run ctest --test-dir build-hooks --output-on-failure --timeout 600 \
      -R 'Concurrent|Instrumented|StateMachine|Schedule'

  echo "=== fault injection (hooks-forced build, then TSan) ==="
  # The suite prints its chaos seed ([chaos] EFRB_FAULT_SEED=...); tee it
  # into a persistent log so a failing run can be replayed bit-for-bit with
  # EFRB_FAULT_SEED=<seed> scripts/... (set -o pipefail keeps failures fatal
  # through the tee).
  FAULT_LOG=build-check/fault_injection.log
  : > "$FAULT_LOG"
  run cmake --build build-hooks --target fault_injection_test
  ./build-hooks/tests/fault_injection_test --gtest_color=no 2>&1 | tee -a "$FAULT_LOG"
  run cmake --build build-tsan --target fault_injection_test
  ./build-tsan/tests/fault_injection_test --gtest_color=no 2>&1 | tee -a "$FAULT_LOG"
  echo "fault-injection output (incl. chaos seeds) saved to $FAULT_LOG"
fi

echo "ALL CHECKS PASSED"
