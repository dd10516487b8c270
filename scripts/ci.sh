#!/usr/bin/env sh
# Pre-merge gate: the full tier-1 test suite, then the staticcheck lint.
# Both must pass before a change lands (see ROADMAP.md).
set -eu

cd "$(dirname "$0")/.."

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "==> pytest"
python -m pytest -x -q

echo "==> staticcheck lint (stale-baseline check + per-pass stats)"
LINT_STATS_OUT="${TMPDIR:-/tmp}/staticcheck_ci_stats.json"
python -c 'import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))' \
    lint --fail-on error --check-baseline reports/staticcheck_baseline.txt \
    --format json > "$LINT_STATS_OUT"
# The footprint pass must actually have analyzed the registry: a registry
# import error would otherwise let the pass run vacuously over zero rules.
python -c "import json, sys; r = json.load(open(sys.argv[1])); \
stats = {s['pass']: s for s in r['stats']}; \
assert 'footprint' in stats, 'footprint pass did not run'; \
assert stats['footprint']['metrics'].get('rules_analyzed', 0) > 0, \
    'footprint pass analyzed zero rules'" \
    "$LINT_STATS_OUT"
python -c 'import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))' \
    lint --stats --fail-on error --check-baseline reports/staticcheck_baseline.txt
rm -f "$LINT_STATS_OUT"

echo "==> fuzz smoke (200 iterations, seed 1)"
python -c 'import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))' \
    fuzz --iterations 200 --seed 1

echo "==> fuzz corpus replay"
python -c 'import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))' \
    fuzz --replay tests/fuzz_corpus

echo "==> tokenizer equivalence (bytes scanner vs per-character reference)"
python -m pytest -x -q tests/html/test_tokenizer_equivalence.py \
    tests/html/test_bytes_tokenizer.py

echo "==> tree-builder parity (end-tag shortcut vs handler-only reference builders)"
python -m pytest -x -q tests/html/test_parse_parity.py

echo "==> serve smoke (ephemeral port, full surface, graceful drain)"
python scripts/serve_smoke.py

echo "==> incremental replay smoke (two-snapshot study -> manifest -> replay)"
python scripts/replay_smoke.py

echo "==> bench smoke (one quick iteration + JSON snapshot)"
BENCH_SMOKE_OUT="${TMPDIR:-/tmp}/BENCH_ci_smoke.json"
python -c 'import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))' \
    bench --quick --output "$BENCH_SMOKE_OUT"
python -c "import json, sys; s = json.load(open(sys.argv[1])); \
assert s['schema'] == 'repro-bench/1' and s['cases'], 'bad bench snapshot'; \
pcases = {n: c for n, c in s['cases'].items() if c['kind'] == 'parse'}; \
assert pcases, 'no parse cases in snapshot'; \
assert all(c['tokenize_seconds'] > 0.0 and c['tree_build_seconds'] >= 0.0 \
           for c in pcases.values()), \
    'parse-stage attribution fields missing or inconsistent'; \
bcases = {n: c for n, c in s['cases'].items() if c['kind'] == 'tokenize_bytes'}; \
assert bcases, 'no bytes-domain tokenizer cases in snapshot'; \
assert all(0.0 <= c['bytes_decoded_ratio'] <= 1.0 for c in bcases.values()), \
    'bytes_decoded_ratio missing or out of range'; \
assert bcases['tokenizer_bytes_clean']['bytes_decoded_ratio'] < 0.2, \
    'lazy bytes path regressed to eager decode (clean fixture)'; \
assert bcases['tokenizer_bytes_large']['bytes_decoded_ratio'] < 0.1, \
    'lazy bytes path regressed to eager decode (large fixture)'" \
    "$BENCH_SMOKE_OUT"
rm -f "$BENCH_SMOKE_OUT"

echo "==> end-to-end benchmark smoke (unit tests + all four workloads + slowdown gate)"
# --smoke runs study-full, study-parallel, study-incremental and serve-mix
# once each at reduced size; its correctness oracle checks every
# workload's result digest and serve bodies, and a mismatch exits nonzero.
# The gate then fails any workload whose probe-adjusted cpu_ms_per_item
# is 2x or more the median of reports/e2e_smoke_record.ndjson
python -m pytest benchmarks/e2e/tests -q
E2E_SMOKE_RECORD="${TMPDIR:-/tmp}/e2e_ci_smoke.ndjson"
rm -f "$E2E_SMOKE_RECORD"
python3 benchmarks/e2e/run.py --all --smoke --record "$E2E_SMOKE_RECORD"
python scripts/e2e_smoke_gate.py "$E2E_SMOKE_RECORD"
rm -f "$E2E_SMOKE_RECORD"

echo "==> traced end-to-end smoke (every entry point layers.py names still exists)"
# a traced run wraps each name benchmarks/e2e/layers.py lists and fails
# when one is gone or renamed; the untraced smoke above never looks
python3 benchmarks/e2e/run.py --all --smoke --trace 1

echo "==> pinned corpora (two expected.json corpora rebuilt, input digests compared)"
# the smoke's sizes are pinned nowhere, so a planner or archive-builder
# change that alters a corpus is caught here; expected.json is only read
python scripts/pinned_corpus_check.py

echo "==> ci OK"
