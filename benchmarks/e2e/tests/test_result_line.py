"""The result line carries exactly the declared metrics of its kind."""
from __future__ import annotations

from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, RunResult


def test_result_line_has_exactly_the_contract_keys():
    metrics = dict.fromkeys([*END_TO_END, *PER_LAYER], 1.5)
    for trace, declared in ((False, END_TO_END), (True, PER_LAYER)):
        result = RunResult("serve-mix", 11, trace, attempted=4, failed=0,
                           metrics=metrics)
        line = result.summary()
        assert list(line) == ["correct", "attempted", "failed", "metrics"]
        assert list(line["metrics"]) == list(declared)
        first = next(iter(declared.values()))
        assert line["metrics"][first["name"]] == {"value": 1.5,
                                                  "unit": first["unit"]}


def test_an_oracle_mismatch_fails_every_operation():
    failing = RunResult("study-full", 11, False, attempted=4, failed=0,
                        metrics={}, problems=["digest mismatch"])
    assert failing.failed_total == 4 and not failing.correct
