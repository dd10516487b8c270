"""End-to-end benchmark of the paths production runs.

Three ``repro-study run`` workloads (sequential, parallel, incremental)
and an open-loop ``repro-study serve`` mix, each measured untraced for
the end-to-end metrics and, separately, traced for per-layer numbers.
See README.md; the entry point is ``run.py``.
"""
