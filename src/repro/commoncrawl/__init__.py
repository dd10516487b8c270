"""`repro.commoncrawl` — archive simulation: Tranco lists, a calibrated
synthetic web corpus, and a local Common-Crawl-compatible archive with the
index/fetch client the pipeline consumes.
"""
from importlib import import_module

from . import calibration
from .client import Collection, CommonCrawlClient
from .templates import INJECTORS, Injector, PageDraft, build_page
from .tranco import (
    TrancoList,
    build_study_dataset,
    generate_domain_pool,
    generate_tranco_lists,
    load_tranco_csv,
    save_tranco_csv,
    synth_domain_name,
)

#: resolved on first access: the corpus planner imports numpy and
#: scipy.special, and the pipeline's client and the service need neither
_LAZY = {
    **dict.fromkeys(
        (
            "CopulaLoadings", "CorpusConfig", "CorpusPlan", "CorpusPlanner",
            "InjectorTarget", "PageSpec", "build_injector_targets",
            "calibrate_loadings", "injector_cluster", "render_page",
        ),
        "corpusgen",
    ),
    **dict.fromkeys(
        ("ArchiveBuilder", "BuiltSnapshot", "snapshot_name"), "snapshot"
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__all__ = [
    "ArchiveBuilder",
    "BuiltSnapshot",
    "Collection",
    "CommonCrawlClient",
    "CorpusConfig",
    "CorpusPlan",
    "CorpusPlanner",
    "INJECTORS",
    "Injector",
    "InjectorTarget",
    "PageDraft",
    "PageSpec",
    "TrancoList",
    "build_injector_targets",
    "build_page",
    "build_study_dataset",
    "CopulaLoadings",
    "calibrate_loadings",
    "injector_cluster",
    "calibration",
    "generate_domain_pool",
    "generate_tranco_lists",
    "load_tranco_csv",
    "render_page",
    "save_tranco_csv",
    "snapshot_name",
    "synth_domain_name",
]
