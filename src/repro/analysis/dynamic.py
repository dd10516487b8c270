"""Section 5.1 — the dynamic-content pre-study.

The paper: "We analyzed 100 pages for each of the top 1K Tranco websites
in July 2021 and collected all dynamically loaded HTML fragments. ...
more than 60% of the websites have at least one violation.  The
distribution of the violations is also similar to the one seen in this
study."

This module runs that pre-study over synthesized dynamic fragments
(:mod:`repro.commoncrawl.fragmentgen`), checking each fragment with the
innerHTML parsing algorithm, and quantifies "similar distribution" with a
Spearman rank correlation against the static study's Figure 8 ranking.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..commoncrawl import calibration as cal
from ..commoncrawl.fragmentgen import generate_domain_fragments
from ..commoncrawl.tranco import generate_domain_pool
from ..core import Checker
from ..core.violations import ALL_IDS


@dataclass(frozen=True, slots=True)
class DynamicPrestudy:
    domains: int
    fragments_checked: int
    domains_with_violation: int
    #: per violation id: domains with >=1 violating fragment
    distribution: dict[str, int]

    @property
    def violating_fraction(self) -> float:
        if not self.domains:
            return 0.0
        return self.domains_with_violation / self.domains

    paper_violating_fraction: float = cal.DYNAMIC_PRESTUDY_VIOLATING

    def top_violations(self, count: int = 3) -> list[str]:
        ranked = sorted(
            self.distribution, key=self.distribution.__getitem__, reverse=True
        )
        return ranked[:count]

    def rank_correlation_with_static(
        self, static_counts: dict[str, int]
    ) -> float:
        """Spearman rank correlation of per-violation domain counts between
        dynamic and static measurements ("the distribution ... is similar").
        Only violations observable in fragments are compared (head/body
        structure does not exist in a fragment).
        """
        from scipy.stats import spearmanr  # scipy.stats costs ~1 s to import

        comparable = [
            violation
            for violation in ALL_IDS
            if violation not in ("HF1", "HF2", "HF3", "DM1", "DM2_1",
                                 "DM2_2", "DM2_3", "DE1", "DE2", "DE3_3")
        ]
        dynamic = [self.distribution.get(v, 0) for v in comparable]
        static = [static_counts.get(v, 0) for v in comparable]
        correlation, _p = spearmanr(dynamic, static)
        return float(correlation)


def run_dynamic_prestudy(
    *,
    num_domains: int = 100,
    fragments_per_domain: int = 20,
    seed: int = 42,
    checker: Checker | None = None,
) -> DynamicPrestudy:
    """Generate and check dynamic fragments for the top domains."""
    checker = checker or Checker()
    pool = generate_domain_pool(num_domains)
    distribution: Counter = Counter()
    domains_with_violation = 0
    fragments_checked = 0
    for domain in pool:
        violated: set[str] = set()
        for spec in generate_domain_fragments(
            domain, count=fragments_per_domain, seed=seed
        ):
            report = checker.check_fragment(spec.html, url=f"https://{domain}/x")
            fragments_checked += 1
            violated |= report.violated
        if violated:
            domains_with_violation += 1
        for violation in violated:
            distribution[violation] += 1
    return DynamicPrestudy(
        domains=len(pool),
        fragments_checked=fragments_checked,
        domains_with_violation=domains_with_violation,
        distribution=dict(distribution),
    )


def render_dynamic(prestudy: DynamicPrestudy, static_counts: dict[str, int] | None = None) -> str:
    lines = [
        "Section 5.1: Dynamic-content pre-study",
        f"  domains: {prestudy.domains}, fragments checked: "
        f"{prestudy.fragments_checked}",
        f"  domains with >=1 violating fragment: "
        f"{prestudy.domains_with_violation} "
        f"({prestudy.violating_fraction:.1%}; paper: >60%)",
        f"  top violations: {', '.join(prestudy.top_violations())} "
        "(paper: FB2 and DM3 in top positions)",
    ]
    if static_counts is not None:
        correlation = prestudy.rank_correlation_with_static(static_counts)
        lines.append(
            f"  Spearman rank correlation with static Figure 8: "
            f"{correlation:.2f} (paper: 'distribution is similar')"
        )
    return "\n".join(lines) + "\n"
