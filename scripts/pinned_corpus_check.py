"""CI check: the corpus planner still builds the pinned benchmark corpora.

Rebuilds two of the corpora that ``benchmarks/e2e/expected.json`` pins,
study-full's first seed-11 corpus and study-incremental's second seed-23
corpus, in a throwaway directory.  It then compares every archive file's
canonical digest (``benchmarks.e2e.oracle.input_digests``: collinfo,
ground truth, CDX, WARC) with the pinned one.  The e2e smoke runs sizes
that nothing pins, so without this a planner or builder change that
alters a corpus would pass CI.  Reads ``expected.json`` and never writes
it; exits 1 on any mismatch.

    PYTHONPATH=src python scripts/pinned_corpus_check.py
"""
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.e2e.oracle import input_digests, load  # noqa: E402
from repro.study import StudyConfig, build_archive  # noqa: E402

CONFIGS = (
    StudyConfig(num_domains=6, max_pages=20, seed=1100),
    StudyConfig(num_domains=16, max_pages=20, seed=2301, overlap_fraction=0.9),
)


def main() -> int:
    pinned = load()["corpora"]
    failures = 0
    with tempfile.TemporaryDirectory(prefix="repro_ci_pinned.") as cache:
        for config in CONFIGS:
            key = config.key()
            expected = pinned[key]["inputs"]
            actual = input_digests(build_archive(config, Path(cache)))
            differing = sorted(
                path for path in expected.keys() | actual.keys()
                if expected.get(path) != actual.get(path)
            )
            if differing:
                failures += 1
                print(f"MISMATCH {key}: {len(differing)} file(s) differ from "
                      f"expected.json: {', '.join(differing)}")
            else:
                print(f"ok {key}: {len(actual)} files match expected.json")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
