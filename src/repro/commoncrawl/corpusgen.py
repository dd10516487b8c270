"""Calibrated synthetic web corpus generation.

This module decides *which* domains violate *what*, *when* — the workload
substitution for Common Crawl described in DESIGN.md.  The statistical
model has three layers:

1. **Injector targets.**  Rule-level targets (Figures 8 and 16–21, via
   :mod:`repro.commoncrawl.calibration`) are converted to injector-level
   targets.  Most rules map 1:1 to an injector; HF1/HF2/HF3 are solved
   jointly because the realistic "stray element in head" mistake cascades
   through all three (see templates.py).

2. **A one-factor Gaussian copula** correlates violations across injectors
   within a domain: sloppy sites violate in many ways at once.  Without
   this, the per-year "any violation" rate would come out near 92% instead
   of the paper's ~68–75% (Figure 9).  The factor loading ``rho`` is
   calibrated by bisection against the mean of Figure 9.

3. **Persistence.**  Each (domain, injector) pair has a persistent latent
   trait (hit at the Figure 8 *union* rate); in each year the trait
   activates with probability ``yearly/union``, reproducing both the
   yearly trends and the much higher all-time union.

Every decision is a pure function of the seed (``random.Random`` with
string seeding), so corpora are fully reproducible.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from . import calibration as cal
from .templates import INJECTORS, build_page
from .tranco import build_study_dataset, generate_domain_pool, generate_tranco_lists

# ------------------------------------------------------------ injector model


@dataclass(frozen=True, slots=True)
class InjectorTarget:
    """Calibrated prevalence targets for one injector."""

    name: str
    union: float                   # P(trait): violates at least once ever
    yearly: tuple[float, ...]      # P(active in year), aligned with YEARS

    def conditional(self, year_index: int) -> float:
        if self.union <= 0:
            return 0.0
        return min(1.0, self.yearly[year_index] / self.union)


def _complement_solve(total: float, other: float) -> float:
    """p such that 1-(1-other)(1-p) == total (rates combine independently)."""
    if other >= 1.0:
        return 0.0
    return max(0.0, 1.0 - (1.0 - total) / (1.0 - other))


def build_injector_targets() -> dict[str, InjectorTarget]:
    """Derive injector-level targets from the paper's rule-level targets."""
    targets: dict[str, InjectorTarget] = {}

    # HF1/HF2/HF3 via the cascade decomposition: the cascade injector fires
    # all three; dedicated injectors top each rule up to its target.
    hf3_union = cal.union("HF3")
    cascade_union = 0.5 * hf3_union
    cascade_yearly = tuple(0.5 * value for value in cal.YEARLY_PREVALENCE["HF3"])
    targets["HF_CASCADE"] = InjectorTarget("HF_CASCADE", cascade_union, cascade_yearly)
    for injector_name, rule in (
        ("HF1_LATE", "HF1"), ("HF2_NOBODY", "HF2"), ("HF3_SECOND", "HF3")
    ):
        union = _complement_solve(cal.union(rule), cascade_union)
        yearly = tuple(
            _complement_solve(value, cascade_yearly[index])
            for index, value in enumerate(cal.YEARLY_PREVALENCE[rule])
        )
        targets[injector_name] = InjectorTarget(injector_name, union, yearly)

    # 1:1 rules.
    for rule in (
        "FB1", "FB2", "DM1", "DM2_1", "DM2_2", "DM2_3", "DM3", "HF4",
        "HF5_1", "HF5_2", "HF5_3", "DE1", "DE2", "DE3_1", "DE3_2", "DE3_3",
        "DE4",
    ):
        targets[rule] = InjectorTarget(
            rule, cal.union(rule), cal.YEARLY_PREVALENCE[rule]
        )

    # Newline-only URLs (section 4.5 measurement, not a Table 1 rule).
    nl_yearly = cal.EXTRA_FEATURE_YEARLY["NL_URL"]
    targets["NL_URL"] = InjectorTarget("NL_URL", max(nl_yearly) * 2.1, nl_yearly)
    return targets


def injector_cluster(name: str) -> str:
    """'fixable' (FB/DM effects) or 'manual' (HF/DE effects) cluster.

    The two clusters carry different copula loadings because the paper's
    data pins down two different union statistics: Figure 9 (any violation,
    dominated by FB2/DM3) and the section 4.4 after-autofix number (any
    HF/DE violation, 37% in 2022).
    """
    effects = INJECTORS[name].effects
    if not effects:
        return "fixable"  # NL_URL: cluster choice is irrelevant
    return "manual" if effects[0][:2] in ("HF", "DE") else "fixable"


@dataclass(frozen=True, slots=True)
class CopulaLoadings:
    """Per-cluster loadings, each on its own independent factor.

    The clusters get *separate* factors because the paper's numbers pin
    both unions independently: with P(any violation) = 68% (Figure 9) and
    P(any HF/DE violation) = 37% (section 4.4), the implied FB/DM union is
    (0.68-0.37)/(1-0.37) = 49% — almost exactly what independence between
    the clusters predicts.  A single shared factor would push the overall
    rate several points above 68%.
    """

    fixable: float
    manual: float

    def of(self, name: str) -> float:
        return self.manual if injector_cluster(name) == "manual" else self.fixable


def calibrate_loadings(
    targets: dict[str, InjectorTarget],
    *,
    samples: int = 20_000,
    seed: int = 1234,
) -> CopulaLoadings:
    """Fit the two copula loadings against the paper's union statistics.

    For factor value ``z`` the probability that injector ``i``'s latent
    trait fires is ``Phi((Phi^-1(union_i) - rho_i*z) / sqrt(1-rho_i^2))``;
    year activation given the trait is independent, so any-violation rates
    are ``E_z[1 - prod_i(1 - p_i(z) q_i(year))]``.

    Solved by two independent bisections: the manual-cluster loading
    against the section 4.4 target (37% of 2022 domains still violating
    after the automated repair), and the fixable-cluster loading against
    the FB/DM union that Figure 9 implies once the HF/DE union is fixed:
    ``F_y = 1 - (1 - any_y) / (1 - M_y)`` under cluster independence.

    ``Phi`` and ``Phi^-1`` are ``scipy.special.ndtr`` and ``ndtri``, the
    kernels ``scipy.stats.norm`` evaluates after its argument handling.
    The loadings are part of the corpus (every planned violation and
    ``ground_truth.json`` depend on them), so this arithmetic is pinned
    to the last bit: a new kernel, reduction order or array layout must
    reproduce the pinned loadings in tests/commoncrawl/test_corpusgen.py.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(samples)          # trait factor
    w = rng.standard_normal(samples)          # year-activation factor
    names = [name for name in targets if INJECTORS[name].effects]
    manual_mask = np.array(
        [injector_cluster(name) == "manual" for name in names]
    )
    thresholds = ndtri(
        np.clip(np.array([targets[name].union for name in names]), 1e-9, 1 - 1e-9)
    )
    conditionals = np.array(
        [
            [targets[name].conditional(index) for name in names]
            for index in range(len(cal.YEARS))
        ]
    )  # (years, injectors)
    act_thresholds = ndtri(np.clip(conditionals, 1e-9, 1 - 1e-9))

    def trait_probs(rho: float, mask: np.ndarray) -> np.ndarray:
        """P(trait | z) per sample and cluster injector; year-independent."""
        denom = np.sqrt(max(1e-12, 1.0 - rho * rho))
        return ndtr((thresholds[mask][None, :] - rho * z[:, None]) / denom)

    def union_rate(
        rho: float, mask: np.ndarray, traits: np.ndarray, year_index: int
    ) -> float:
        """P(any cluster injector active in the year) under loading rho.

        The loading applies at both levels — trait (is this domain the kind
        that makes this mistake?) and year activation (did it show this
        year?) — because the paper's per-year any-violation rate is far
        below what independent yearly flicker would produce.  ``traits``
        is ``trait_probs(rho, mask)``, computed once per loading.
        """
        denom = np.sqrt(max(1e-12, 1.0 - rho * rho))
        activations = ndtr(
            (act_thresholds[year_index][mask][None, :] - rho * w[:, None]) / denom
        )
        keep = np.prod(1.0 - traits * activations, axis=1)
        return float(np.mean(1.0 - keep))

    def bisect(function, goal: float) -> float:
        low, high = 0.0, 0.995
        if function(low) < goal:
            return low
        for _ in range(22):
            mid = (low + high) / 2.0
            if function(mid) > goal:
                low = mid
            else:
                high = mid
        return (low + high) / 2.0

    # 1. manual cluster vs the 4.4 target (HF/DE union in 2022 = 37%).
    year_2022 = len(cal.YEARS) - 1
    manual_goal = cal.AUTOFIX["violating_after_autofix"] / cal.SNAPSHOT_BY_YEAR[
        2022
    ].succeeded
    rho_manual = bisect(
        lambda rho: union_rate(
            rho, manual_mask, trait_probs(rho, manual_mask), year_2022
        ),
        manual_goal,
    )

    # 2. fixable cluster vs the FB/DM union implied by Figure 9 under
    # cluster independence: F_y = 1 - (1 - any_y) / (1 - M_y).
    fixable_mask = ~manual_mask
    year_range = range(len(cal.YEARS))
    manual_traits = trait_probs(rho_manual, manual_mask)
    manual_unions = [
        union_rate(rho_manual, manual_mask, manual_traits, i) for i in year_range
    ]
    implied = []
    for index, year in enumerate(cal.YEARS):
        goal_any = cal.OVERALL_VIOLATING[year]
        keep_manual = 1.0 - manual_unions[index]
        implied.append(
            max(0.0, 1.0 - (1.0 - goal_any) / max(keep_manual, 1e-9))
        )
    fixable_goal = float(np.mean(implied))

    def fixable_mean(rho: float) -> float:
        traits = trait_probs(rho, fixable_mask)
        return float(
            np.mean(
                [union_rate(rho, fixable_mask, traits, i) for i in year_range]
            )
        )

    rho_fixable = bisect(fixable_mean, fixable_goal)
    return CopulaLoadings(fixable=rho_fixable, manual=rho_manual)


# ------------------------------------------------------------- corpus plan


@dataclass(slots=True)
class CorpusConfig:
    """Scale and determinism knobs for one synthetic corpus."""

    num_domains: int = 200
    #: scaled-down page cap; the paper used 100 pages/domain
    max_pages: int = 8
    years: tuple[int, ...] = cal.YEARS
    seed: int = 42
    #: extra non-UTF-8 pages (exercise the encoding filter)
    non_utf8_fraction: float = 0.03
    #: extra non-HTML records (exercise the MIME filter)
    non_html_fraction: float = 0.03
    #: fraction of each domain-year's planned pages that are *stable*:
    #: injector-free and rendered from a year-free seed, so the same slot
    #: yields byte-identical payloads in every snapshot the domain
    #: appears in — the unchanged web that cross-snapshot dedup carries
    #: forward.  0.0 (the default) reproduces legacy corpora exactly;
    #: at least one volatile page per domain-year is always kept so the
    #: calibrated injector ground truth stays meaningful.
    overlap_fraction: float = 0.0

    def scale(self) -> float:
        return self.num_domains / cal.TRANCO_DATASET_SIZE


@dataclass(slots=True)
class PageSpec:
    """Ground truth for one generated page."""

    domain: str
    url: str
    year: int
    injectors: tuple[str, ...]
    utf8: bool = True
    html: bool = True
    #: benign foreign-root usage (section 4.2 adoption measurement);
    #: decided per domain-year by the planner so domain-level usage rates
    #: match the calibration targets
    use_svg: bool = False
    use_math: bool = False
    #: stable slot: rendered from a year-free seed with no injectors or
    #: foreign-root usage, byte-identical across snapshots
    stable: bool = False


@dataclass(slots=True)
class CorpusPlan:
    """The full ground truth of a generated corpus."""

    config: CorpusConfig
    loadings: CopulaLoadings
    domains: list[tuple[str, float]]                 # (name, avg tranco rank)
    present: dict[int, list[str]] = field(default_factory=dict)
    succeeded: dict[int, list[str]] = field(default_factory=dict)
    #: (domain, year) -> active injector names
    active: dict[tuple[str, int], tuple[str, ...]] = field(default_factory=dict)
    pages: dict[tuple[str, int], list[PageSpec]] = field(default_factory=dict)

    def expected_rule_rate(self, rule: str, year: int) -> float:
        """Ground-truth fraction of succeeded domains violating ``rule``."""
        succeeded = self.succeeded[year]
        if not succeeded:
            return 0.0
        hits = sum(
            1
            for domain in succeeded
            if any(
                rule in INJECTORS[name].effects
                for name in self.active.get((domain, year), ())
            )
        )
        return hits / len(succeeded)

    def domains_violating(self, year: int) -> int:
        return sum(
            1
            for domain in self.succeeded[year]
            if any(
                INJECTORS[name].effects
                for name in self.active.get((domain, year), ())
            )
        )


class CorpusPlanner:
    """Plan a corpus: who exists when, who violates what, page layouts."""

    def __init__(self, config: CorpusConfig) -> None:
        self.config = config
        self.targets = build_injector_targets()

    # ------------------------------------------------------------- planning

    def plan(self) -> CorpusPlan:
        config = self.config
        # Over-provision the pool so that the Tranco intersection (which
        # removes churned/trending entries) still yields num_domains.
        pool = generate_domain_pool(int(config.num_domains * 1.8) + 16)
        lists = generate_tranco_lists(
            pool, num_lists=5, seed=config.seed, churn=0.02
        )
        dataset = build_study_dataset(lists, cutoff=int(config.num_domains * 1.5) + 8)
        dataset = dataset[: config.num_domains]
        plan = CorpusPlan(
            config=config,
            loadings=calibrate_loadings(self.targets, seed=config.seed),
            domains=dataset,
        )
        self._plan_presence(plan)
        self._plan_violations(plan)
        self._plan_pages(plan)
        return plan

    def _rng(self, *parts: object) -> random.Random:
        return random.Random(":".join(str(part) for part in (self.config.seed, *parts)))

    def _plan_presence(self, plan: CorpusPlan) -> None:
        """Scale Table 2's presence and success counts to our pool."""
        for domain, _rank in plan.domains:
            rng = self._rng("presence", domain)
            # One persistent uniform per domain makes presence comonotone
            # across years: snapshot sizes then track Table 2's counts
            # exactly in order (e.g. the strong 2017 growth), instead of
            # drowning the ~5% year-over-year deltas in sampling noise.
            position = rng.random()
            for year in self.config.years:
                spec = cal.SNAPSHOT_BY_YEAR[year]
                plan.present.setdefault(year, [])
                plan.succeeded.setdefault(year, [])
                present_rate = spec.domains / cal.TRANCO_DATASET_SIZE
                if position >= present_rate:
                    continue
                plan.present[year].append(domain)
                if rng.random() < spec.succeeded / spec.domains:
                    plan.succeeded[year].append(domain)

    def _plan_violations(self, plan: CorpusPlan) -> None:
        names = list(self.targets)
        loadings = plan.loadings
        denoms = {
            name: float(np.sqrt(max(1e-12, 1.0 - loadings.of(name) ** 2)))
            for name in names
        }
        thresholds = {
            name: float(ndtri(np.clip(self.targets[name].union, 1e-9, 1 - 1e-9)))
            for name in names
        }

        def gate(name: str, factor: float, noise: float, probability: float) -> bool:
            """Gaussian-copula Bernoulli with marginal ``probability``."""
            if probability <= 0.0:
                return False
            if probability >= 1.0:
                return True
            threshold = float(ndtri(probability))
            return loadings.of(name) * factor + denoms[name] * noise < threshold

        for domain, _rank in plan.domains:
            factor_rng = self._rng("factor", domain)
            trait_factors = {
                "fixable": factor_rng.gauss(0.0, 1.0),
                "manual": factor_rng.gauss(0.0, 1.0),
            }
            traits = []
            for name in names:
                z = trait_factors[injector_cluster(name)]
                epsilon = self._rng("trait", domain, name).gauss(0.0, 1.0)
                if loadings.of(name) * z + denoms[name] * epsilon < thresholds[name]:
                    traits.append(name)
            for year_index, year in enumerate(self.config.years):
                if domain not in plan.succeeded.get(year, ()):
                    continue
                year_rng = self._rng("yearfactor", domain, year)
                year_factors = {
                    "fixable": year_rng.gauss(0.0, 1.0),
                    "manual": year_rng.gauss(0.0, 1.0),
                }
                active = []
                for name in traits:
                    noise = self._rng("year", domain, name, year).gauss(0.0, 1.0)
                    if gate(
                        name,
                        year_factors[injector_cluster(name)],
                        noise,
                        self.targets[name].conditional(year_index),
                    ):
                        active.append(name)
                if active:
                    plan.active[(domain, year)] = tuple(active)

    _PATHS = (
        "/", "/about", "/contact", "/products", "/blog", "/news",
        "/pricing", "/docs", "/careers", "/terms", "/help", "/team",
        "/press", "/status", "/features", "/changelog",
    )

    def _plan_pages(self, plan: CorpusPlan) -> None:
        config = self.config
        for year in config.years:
            spec = cal.SNAPSHOT_BY_YEAR[year]
            # avg_pages/100 is the fill level of the paper's 100-page cap;
            # reproduce the same fill level at our (smaller) cap.
            fill = spec.avg_pages / 100.0
            p_full = max(0.0, min(1.0, (fill - 0.6) / 0.4))
            for domain in plan.succeeded[year]:
                rng = self._rng("pages", domain, year)
                if rng.random() < p_full:
                    count = config.max_pages
                else:
                    count = max(1, round(rng.uniform(0.2, 1.0) * config.max_pages))
                usage_rng = self._rng("usage", domain, year)
                year_pos = cal.YEARS.index(year) if year in cal.YEARS else 0
                svg_user = (
                    usage_rng.random()
                    < cal.EXTRA_FEATURE_YEARLY["SVG_USE"][year_pos]
                )
                math_user = (
                    usage_rng.random()
                    < cal.EXTRA_FEATURE_YEARLY["MATH_USE"][year_pos]
                )
                active = plan.active.get((domain, year), ())
                # Stable slots model the unchanged web: the low indexes
                # (same path every year) render from a year-free seed, so
                # injectors and year-varying foreign-root usage must stay
                # on the volatile slots.  At least one volatile slot is
                # always kept so the injector ground truth has somewhere
                # to land; stable_count == 0 reproduces legacy draws bit
                # for bit (``range(0, count)`` is ``range(count)``).
                stable_count = min(
                    count - 1, round(config.overlap_fraction * count)
                )
                stable_count = max(0, stable_count)
                page_injectors: list[list[str]] = [[] for _ in range(count)]
                for name in active:
                    share = self._rng("share", domain, name).uniform(0.1, 0.5)
                    affected = max(1, round(share * count))
                    affected = min(affected, count - stable_count)
                    picks = self._rng("pick", domain, name, year).sample(
                        range(stable_count, count), affected
                    )
                    for index in picks:
                        page_injectors[index].append(name)
                specs = []
                for index in range(count):
                    path = (
                        self._PATHS[index]
                        if index < len(self._PATHS)
                        else f"/page/{index}"
                    )
                    stable = index < stable_count
                    injectors = page_injectors[index]
                    # terminal injectors (unclosed textarea/select) last
                    injectors.sort(key=lambda name: INJECTORS[name].terminal)
                    page_rng = self._rng("pageuse", domain, year, index)
                    # the first volatile page always carries the domain's
                    # foreign-root usage so domain-level adoption equals
                    # the calibrated rate exactly
                    anchor = index == stable_count
                    specs.append(
                        PageSpec(
                            domain=domain,
                            url=f"https://{domain}{path}",
                            year=year,
                            injectors=tuple(injectors),
                            use_svg=not stable and svg_user
                            and (anchor or page_rng.random() < 0.5),
                            use_math=not stable and math_user
                            and (anchor or page_rng.random() < 0.3),
                            stable=stable,
                        )
                    )
                extra_rng = self._rng("extras", domain, year)
                if extra_rng.random() < config.non_utf8_fraction * count:
                    # '~' sorts after every regular path in the CDX index,
                    # so the legacy page never displaces a planned page
                    # from the per-domain fetch cap.
                    specs.append(
                        PageSpec(
                            domain=domain,
                            url=f"https://{domain}/~legacy-{year}.html",
                            year=year,
                            injectors=(),
                            utf8=False,
                        )
                    )
                if extra_rng.random() < config.non_html_fraction * count:
                    specs.append(
                        PageSpec(
                            domain=domain,
                            url=f"https://{domain}/api/data-{year}.json",
                            year=year,
                            injectors=(),
                            html=False,
                        )
                    )
                plan.pages[(domain, year)] = specs


# ------------------------------------------------------------- page render


def render_page(spec: PageSpec, seed: int) -> bytes:
    """Render one planned page to bytes (the WARC payload).

    Stable slots seed without the year ("static" cannot collide with a
    year), so the same slot renders byte-identically in every snapshot —
    the cross-snapshot overlap the incremental engine deduplicates.
    """
    epoch = "static" if spec.stable else spec.year
    rng = random.Random(f"{seed}:render:{spec.domain}:{epoch}:{spec.url}")
    if not spec.html:
        return (
            '{"status": "ok", "domain": "%s", "year": %d}'
            % (spec.domain, spec.year)
        ).encode()
    path = spec.url.split(spec.domain, 1)[1] or "/"
    draft = build_page(
        spec.domain, path, rng, use_svg=spec.use_svg, use_math=spec.use_math
    )
    for name in spec.injectors:
        INJECTORS[name].apply(draft, rng)
    text = draft.render()
    if spec.utf8:
        return text.encode("utf-8")
    # Legacy page: latin-1 bytes that do not decode as UTF-8.
    legacy = text.replace("</body>", "<p>caf\xe9 \xfcber legacy</p></body>")
    return legacy.encode("latin-1", "replace")
