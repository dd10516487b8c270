"""repro — reproduction of "HTML Violations and Where to Find Them"
(Hantke & Stock, IMC 2022).

A measurement framework for security-relevant HTML specification
violations, together with every substrate it needs: a from-scratch WHATWG
HTML parser instrumented for error-tolerance fix-ups (:mod:`repro.html`),
a WARC/CDX archive layer (:mod:`repro.warc`), a calibrated synthetic
Common Crawl (:mod:`repro.commoncrawl`), the crawling pipeline
(:mod:`repro.pipeline`) and the paper's analyses (:mod:`repro.analysis`).

Quickstart::

    from repro import Checker
    report = Checker().check_html('<img src="/a.png"onerror="x()">')
    [f.violation for f in report.findings]   # ['FB2']

Full study::

    from repro.study import run_study
    study = run_study()
    print(study.figure9().fractions())
"""
from .core import (
    ALL_IDS,
    AUTO_FIXABLE_IDS,
    REGISTRY,
    Category,
    Checker,
    CheckReport,
    Finding,
    Group,
    ViolationType,
    autofix,
    measure_mitigations_html,
)
from .html import parse, parse_fragment, serialize

__version__ = "1.0.0"

#: resolved on first access: the study driver loads the corpus planner
#: (numpy, scipy.special), which the checker, ``serve``, ``check``, ``fix``
#: and ``lint`` never need
_STUDY_EXPORTS = frozenset({"Study", "StudyConfig", "run_study"})


def __getattr__(name: str):
    if name in _STUDY_EXPORTS:
        from . import study

        return getattr(study, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALL_IDS",
    "AUTO_FIXABLE_IDS",
    "Category",
    "CheckReport",
    "Checker",
    "Finding",
    "Group",
    "REGISTRY",
    "Study",
    "StudyConfig",
    "ViolationType",
    "__version__",
    "autofix",
    "measure_mitigations_html",
    "parse",
    "parse_fragment",
    "run_study",
    "serialize",
]
