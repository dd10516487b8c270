"""The run record, with metric names, units and directions from BENCHMARK.json.

``BENCHMARK.json`` at the checkout root is the one declaration of the
metrics; the README says what each one measures and, for the per-layer
ones, which end-to-end metric on which workload it should move.

Every run prints every metric of its kind: an untraced run the
end-to-end set, a traced run the per-layer set.  A layer a workload does
not exercise reads 0.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .workloads import ROOT

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
BENCHMARK = json.loads(BENCHMARK_JSON.read_text())
#: name -> {"name", "unit", "better"[, "bound"]}, in declaration order
END_TO_END = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in BENCHMARK["per_layer"]}
PER_LAYER_NAMES = tuple(PER_LAYER)


@dataclass(slots=True)
class RunResult:
    """What one workload run measured and whether its outputs were right."""

    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    #: oracle mismatches; any one fails the whole run
    problems: list[str] = field(default_factory=list)
    #: context for the human-readable report (sample counts, percentiles)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    @property
    def failed_total(self) -> int:
        """Failed operations; a mismatch against the oracle fails them all."""
        return self.attempted if self.problems else self.failed

    def declared(self) -> dict[str, dict]:
        """The BENCHMARK.json entries of the metrics this run reports."""
        return PER_LAYER if self.trace else END_TO_END

    def summary(self) -> dict:
        """The result line: exactly correct/attempted/failed/metrics."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed_total,
            "metrics": {
                name: {"value": self.metrics[name], "unit": metric["unit"]}
                for name, metric in self.declared().items()
            },
        }
