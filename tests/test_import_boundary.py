"""Import boundary: the CLI and the service start without numpy or scipy.

Only the corpus planner (numpy, ``scipy.special``) and two section 5
analyses (``scipy.stats.spearmanr``) need them.  ``serve``, ``check``,
``fix``, ``fuzz`` and ``lint`` must not pay their import time, and no
study process needs ``scipy.stats`` at all.  The archive layout module
stays free of them too: the fuzz harness's dedup oracle imports its
naming helpers.  Each probe is a fresh interpreter: this
test process has long since imported everything.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _modules_after_importing(*modules: str) -> set[str]:
    code = "".join(f"import {module}\n" for module in modules)
    code += "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    return set(json.loads(result.stdout))


def test_cli_and_service_load_neither_scipy_nor_numpy():
    modules = ("repro.cli", "repro.service.app", "repro.commoncrawl.snapshot")
    loaded = _modules_after_importing(*modules)
    assert set(modules) <= loaded
    assert not {"scipy", "numpy"} & loaded


def test_study_loads_scipy_special_but_not_scipy_stats():
    loaded = _modules_after_importing("repro.study")
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded
