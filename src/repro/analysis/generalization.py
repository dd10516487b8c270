"""Section 5.2 — do the results generalize beyond popular sites?

The paper sampled random non-popular websites from Common Crawl and found
"the distribution of violations on less popular websites is again similar
to the one on top websites.  However, as expected, popular websites seem
to have more violations on average than less popular websites" — top
sites are larger, more complex (more SVG), and refactored more often.

This module reproduces that comparison: a long-tail population is
generated with the same injector model but damped prevalence and smaller
pages, both populations are run through the same checker, and the
comparison reports the rank correlation of their violation distributions
plus the mean violations-per-domain gap.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from ..commoncrawl.corpusgen import build_injector_targets
from ..commoncrawl.templates import INJECTORS, build_page
from ..core import Checker
from ..core.violations import ALL_IDS

#: damping applied to per-injector prevalence for the long tail (the paper
#: observed *fewer* violations per non-popular domain)
TAIL_PREVALENCE_SCALE = 0.7
#: long-tail pages are smaller and plainer (less SVG, fewer sections)
TAIL_PAGES_PER_DOMAIN = 3
POPULAR_PAGES_PER_DOMAIN = 6


@dataclass(frozen=True, slots=True)
class PopulationStats:
    label: str
    domains: int
    violating_domains: int
    mean_violation_types_per_domain: float
    distribution: dict[str, int]

    @property
    def violating_fraction(self) -> float:
        return self.violating_domains / self.domains if self.domains else 0.0


@dataclass(frozen=True, slots=True)
class GeneralizationComparison:
    popular: PopulationStats
    tail: PopulationStats

    @property
    def rank_correlation(self) -> float:
        """Spearman correlation of per-violation domain counts."""
        from scipy.stats import spearmanr  # scipy.stats costs ~1 s to import

        popular = [self.popular.distribution.get(v, 0) for v in ALL_IDS]
        tail = [self.tail.distribution.get(v, 0) for v in ALL_IDS]
        correlation, _p = spearmanr(popular, tail)
        return float(correlation)

    @property
    def popular_has_more_violations(self) -> bool:
        return (
            self.popular.mean_violation_types_per_domain
            > self.tail.mean_violation_types_per_domain
        )


def _measure_population(
    label: str,
    *,
    num_domains: int,
    pages: int,
    prevalence_scale: float,
    svg_rate: float,
    seed: int,
    checker: Checker,
) -> PopulationStats:
    targets = build_injector_targets()
    year_index = len(targets["FB2"].yearly) - 1  # 2022 rates
    distribution: Counter = Counter()
    violating = 0
    total_types = 0
    for index in range(num_domains):
        domain = f"{label}{index:05d}.example"
        active = [
            name
            for name, target in targets.items()
            if INJECTORS[name].effects
            and random.Random(f"{seed}:{label}:trait:{domain}:{name}").random()
            < target.yearly[year_index] * prevalence_scale
        ]
        violated: set[str] = set()
        for page_index in range(pages):
            rng = random.Random(f"{seed}:{label}:{domain}:{page_index}")
            draft = build_page(
                domain, f"/p{page_index}", rng, use_svg=rng.random() < svg_rate
            )
            page_injectors = [
                name
                for name in active
                if random.Random(
                    f"{seed}:{label}:hit:{domain}:{name}:{page_index}"
                ).random() < 0.4
            ]
            page_injectors.sort(key=lambda name: INJECTORS[name].terminal)
            for name in page_injectors:
                INJECTORS[name].apply(draft, rng)
            report = checker.check_html(draft.render())
            violated |= report.violated
        if violated:
            violating += 1
        total_types += len(violated)
        for violation in violated:
            distribution[violation] += 1
    return PopulationStats(
        label=label,
        domains=num_domains,
        violating_domains=violating,
        mean_violation_types_per_domain=total_types / num_domains,
        distribution=dict(distribution),
    )


def run_generalization_study(
    *,
    num_domains: int = 80,
    seed: int = 42,
    checker: Checker | None = None,
) -> GeneralizationComparison:
    """Measure a popular and a long-tail population with the same checker."""
    checker = checker or Checker()
    popular = _measure_population(
        "popular",
        num_domains=num_domains,
        pages=POPULAR_PAGES_PER_DOMAIN,
        prevalence_scale=1.0,
        svg_rate=0.4,
        seed=seed,
        checker=checker,
    )
    tail = _measure_population(
        "tail",
        num_domains=num_domains,
        pages=TAIL_PAGES_PER_DOMAIN,
        prevalence_scale=TAIL_PREVALENCE_SCALE,
        svg_rate=0.1,
        seed=seed,
        checker=checker,
    )
    return GeneralizationComparison(popular=popular, tail=tail)


def render_generalization(comparison: GeneralizationComparison) -> str:
    popular, tail = comparison.popular, comparison.tail
    return (
        "Section 5.2: Generalization to less popular websites\n"
        f"  popular: {popular.violating_domains}/{popular.domains} violating "
        f"({popular.violating_fraction:.1%}), "
        f"{popular.mean_violation_types_per_domain:.2f} violation types/domain\n"
        f"  tail:    {tail.violating_domains}/{tail.domains} violating "
        f"({tail.violating_fraction:.1%}), "
        f"{tail.mean_violation_types_per_domain:.2f} violation types/domain\n"
        f"  distribution rank correlation: {comparison.rank_correlation:.2f} "
        "(paper: 'again similar')\n"
        f"  popular > tail on average: "
        f"{comparison.popular_has_more_violations} "
        "(paper: 'popular websites seem to have more violations')\n"
    )
