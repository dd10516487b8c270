"""Correctness oracle: digests of generated inputs and of study results.

``expected.json`` pins, for the pinned seeds (11 and 23) of the full
profile:

* the sha256 of every file of each study corpus's archive (WARC record
  ids and the offsets they shift left out: they are random per build)
  and of the serve workload's documents, so a changed generator cannot
  pass as a faster program;
* each study corpus's ``aggregate_sha256`` (the provenance-free digest of
  the results tables).  It comes from the sequential full path; while
  writing the file, the parallel runner and, for the overlap corpus, the
  incremental path must reproduce it, or nothing is written.

Regenerate after a change that legitimately alters results (a rule
change, a corpus-generator change)::

    PYTHONPATH=src python3 -m benchmarks.e2e.oracle --write

Seeds that are not pinned are checked inside the run against the other
runner instead (see ``study.py``).
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import itertools
import json
import re
import shutil
import sys
from pathlib import Path

from .metrics import BENCHMARK
from .workloads import FULL, PINNED_SEEDS, WORK_DIR

EXPECTED_PATH = Path(__file__).with_name("expected.json")
SCHEMA = "e2e-expected/1"


#: WARC record ids are fresh uuid4s on every build
_RECORD_ID = re.compile(rb"WARC-Record-ID: <urn:uuid:[0-9a-f-]{36}>\r\n")


def _canonical(path: Path) -> bytes:
    """A file's bytes minus what legitimately differs between builds.

    The archive builder stamps each WARC record with a random id, so the
    compressed record sizes, and with them the CDX ``offset``/``length``
    fields, change from build to build while every page stays the same.
    """
    data = path.read_bytes()
    if path.name.endswith(".warc.gz"):
        return _RECORD_ID.sub(b"", gzip.decompress(data))
    if path.suffix == ".cdxj":
        lines = []
        for line in data.decode("utf-8").splitlines():
            key, stamp, fields = line.split(" ", 2)
            record = json.loads(fields)
            del record["offset"], record["length"]
            lines.append(f"{key} {stamp} {json.dumps(record, sort_keys=True)}")
        return "\n".join(lines).encode("utf-8")
    return data


def input_digests(archive: Path) -> dict[str, str]:
    """sha256 of every file under an archive, keyed by relative path."""
    return {
        str(path.relative_to(archive)):
            hashlib.sha256(_canonical(path)).hexdigest()
        for path in sorted(archive.rglob("*"))
        if path.is_file()
    }


def documents_sha256(documents: list[bytes]) -> str:
    """One digest over a document list, length-prefixed so the split counts."""
    hasher = hashlib.sha256()
    for document in documents:
        hasher.update(b"%d:" % len(document))
        hasher.update(document)
    return hasher.hexdigest()


def load(path: Path = EXPECTED_PATH) -> dict:
    expected = json.loads(path.read_text())
    if expected.get("schema") != SCHEMA:
        raise ValueError(f"{path}: schema is not {SCHEMA!r}")
    return expected


def _manifest(study) -> dict:
    manifest = json.loads(study.manifest_path.read_text())
    study.close()
    return manifest


def _aggregate(study) -> str:
    return _manifest(study)["results"]["aggregate_sha256"]


def generate(seeds: tuple[int, ...], work: Path) -> dict:
    """Build every pinned corpus and cross-check its result digest."""
    from repro.study import build_archive, run_study

    from . import serve

    corpora: dict[str, dict] = {}
    for seed in seeds:
        for spec, corpus in itertools.product(FULL.studies, range(FULL.setups)):
            config = spec.config(seed, corpus)
            if config.key() in corpora:
                continue
            cache = work / config.key()
            archive = build_archive(config, cache)
            sequential = _aggregate(run_study(config, cache_dir=cache,
                                              force=True, workers=1))
            others = {"parallel": _aggregate(run_study(
                config, cache_dir=cache, force=True, workers=2))}
            entry = {"inputs": input_digests(archive),
                     "aggregate_sha256": sequential}
            if spec.incremental:
                manifest = _manifest(run_study(
                    config, cache_dir=cache, force=True, incremental=True))
                others["incremental"] = manifest["results"]["aggregate_sha256"]
                # the share of pages whose findings were carried forward:
                # serve-mix's popular-document share is set from it
                counters = manifest["dedup_counters"]
                entry["carried_share"] = counters["carried"] / counters["pages"]
            for path, digest in others.items():
                if digest != sequential:
                    raise RuntimeError(
                        f"{config.key()}: {path} aggregate {digest} !="
                        f" sequential {sequential}; refusing to pin either"
                    )
            corpora[config.key()] = entry
            shutil.rmtree(cache)
    # the documents a full-profile run of BENCHMARK.json's run_seconds sends
    seconds = BENCHMARK["run_seconds"]
    return {
        "schema": SCHEMA,
        "corpora": corpora,
        "serve": {
            FULL.serve.key(seed, seconds): serve.input_digests(
                FULL.serve, serve.plan(FULL.serve, seed, seconds).docs)
            for seed in seeds
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e.oracle",
        description="regenerate benchmarks/e2e/expected.json",
    )
    parser.add_argument("--write", action="store_true",
                        help="write expected.json (otherwise print it)")
    args = parser.parse_args(argv)
    work = WORK_DIR / "oracle"
    work.mkdir(parents=True, exist_ok=True)
    try:
        expected = generate(PINNED_SEEDS, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(expected, indent=1, sort_keys=True) + "\n"
    if args.write:
        EXPECTED_PATH.write_text(text)
        print(f"wrote {EXPECTED_PATH}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
