"""Corpus planner tests: determinism, calibration quality, ground truth."""
from __future__ import annotations

import math

import pytest

from repro.commoncrawl import calibration as cal
from repro.commoncrawl.corpusgen import (
    CopulaLoadings,
    CorpusConfig,
    CorpusPlanner,
    build_injector_targets,
    calibrate_loadings,
    injector_cluster,
    render_page,
)
from repro.commoncrawl.templates import INJECTORS


@pytest.fixture(scope="module")
def plan():
    return CorpusPlanner(CorpusConfig(num_domains=300, max_pages=4, seed=3)).plan()


class TestInjectorTargets:
    def test_all_injectors_have_targets(self):
        targets = build_injector_targets()
        assert set(targets) == set(INJECTORS)

    def test_yearly_never_exceeds_union(self):
        for target in build_injector_targets().values():
            assert all(value <= target.union + 1e-9 for value in target.yearly)

    def test_conditional_bounded(self):
        for target in build_injector_targets().values():
            for index in range(len(cal.YEARS)):
                assert 0.0 <= target.conditional(index) <= 1.0

    def test_hf_cascade_decomposition_sums(self):
        """cascade + dedicated rates must combine to the rule targets."""
        targets = build_injector_targets()
        cascade = targets["HF_CASCADE"].union
        for injector_name, rule in (
            ("HF1_LATE", "HF1"), ("HF2_NOBODY", "HF2"), ("HF3_SECOND", "HF3")
        ):
            dedicated = targets[injector_name].union
            combined = 1 - (1 - cascade) * (1 - dedicated)
            assert math.isclose(combined, cal.union(rule), rel_tol=1e-6)

    def test_clusters(self):
        assert injector_cluster("FB2") == "fixable"
        assert injector_cluster("DM2_1") == "fixable"
        assert injector_cluster("HF4") == "manual"
        assert injector_cluster("DE1") == "manual"


class TestCalibration:
    def test_loadings_in_range(self):
        loadings = calibrate_loadings(build_injector_targets(), samples=4000)
        assert 0.0 <= loadings.fixable <= 0.995
        assert 0.0 <= loadings.manual <= 0.995

    def test_deterministic(self):
        targets = build_injector_targets()
        a = calibrate_loadings(targets, samples=4000, seed=5)
        b = calibrate_loadings(targets, samples=4000, seed=5)
        assert a == b

    @pytest.mark.parametrize(
        ("seed", "fixable", "manual"),
        [
            # repro-study run's default seed
            (42, 0.9843358391523361, 0.32016122162342076),
            # the first corpus of the e2e benchmark's study-full workload
            (1100, 0.9839909118413924, 0.3203479188680649),
        ],
    )
    def test_production_loadings_pinned(self, seed, fixable, manual):
        """The 20,000-sample fit, to the last bit.

        The loadings decide every planned violation and are written to
        ground_truth.json, so any change to the fit's arithmetic, however
        small, changes the corpus.
        """
        loadings = calibrate_loadings(build_injector_targets(), seed=seed)
        assert loadings == CopulaLoadings(fixable=fixable, manual=manual)


class TestPlan:
    def test_plan_deterministic(self):
        config = CorpusConfig(num_domains=60, max_pages=3, seed=9)
        a = CorpusPlanner(config).plan()
        b = CorpusPlanner(config).plan()
        assert a.domains == b.domains
        assert a.active == b.active
        assert {k: [(s.url, s.injectors) for s in v] for k, v in a.pages.items()} == {
            k: [(s.url, s.injectors) for s in v] for k, v in b.pages.items()
        }

    def test_requested_domain_count(self, plan):
        assert len(plan.domains) == 300

    def test_presence_tracks_table2_shape(self, plan):
        """2017 grew strongly vs 2016 and ~97-99% of present domains
        succeed, as in Table 2."""
        assert len(plan.present[2017]) > len(plan.present[2015])
        for year in plan.present:
            present = len(plan.present[year])
            succeeded = len(plan.succeeded[year])
            assert succeeded <= present
            if present > 50:
                assert succeeded / present > 0.93

    def test_active_only_for_succeeded(self, plan):
        for (domain, year) in plan.active:
            assert domain in plan.succeeded[year]

    def test_overall_violating_rate_near_figure9(self, plan):
        """The 2022 any-violation rate should land near the paper's 68%."""
        rate = plan.domains_violating(2022) / len(plan.succeeded[2022])
        assert abs(rate - cal.OVERALL_VIOLATING[2022]) < 0.10

    def test_fb2_rate_near_target(self, plan):
        rate = plan.expected_rule_rate("FB2", 2015)
        assert abs(rate - cal.yearly("FB2", 2015)) < 0.10

    def test_rare_violations_rare(self, plan):
        assert plan.expected_rule_rate("DE1", 2022) < 0.05
        assert plan.expected_rule_rate("HF5_3", 2022) < 0.05

    def test_terminal_injectors_last_on_pages(self, plan):
        for specs in plan.pages.values():
            for spec in specs:
                flags = [INJECTORS[name].terminal for name in spec.injectors]
                assert flags == sorted(flags)

    def test_page_counts_within_cap(self, plan):
        for (domain, year), specs in plan.pages.items():
            html_pages = [s for s in specs if s.html and s.utf8]
            assert 1 <= len(html_pages) <= plan.config.max_pages


class TestRenderPage:
    def test_render_deterministic(self, plan):
        spec = next(iter(plan.pages.values()))[0]
        assert render_page(spec, 3) == render_page(spec, 3)

    def test_non_utf8_page_does_not_decode(self, plan):
        for specs in plan.pages.values():
            for spec in specs:
                if not spec.utf8:
                    payload = render_page(spec, 3)
                    with pytest.raises(UnicodeDecodeError):
                        payload.decode("utf-8")
                    return
        pytest.skip("no non-utf8 page in this plan")

    def test_json_page(self, plan):
        for specs in plan.pages.values():
            for spec in specs:
                if not spec.html:
                    import json

                    payload = render_page(spec, 3)
                    assert json.loads(payload)["domain"] == spec.domain
                    return
        pytest.skip("no json page in this plan")


class TestOverlap:
    """The overlap knob that feeds the incremental dedup engine."""

    def test_zero_overlap_is_bit_identical_to_legacy_plans(self):
        """overlap_fraction=0 must not perturb any existing draw: the
        planner's RNG streams and page specs are unchanged."""
        legacy = CorpusPlanner(
            CorpusConfig(num_domains=30, max_pages=4, seed=7)
        ).plan()
        explicit = CorpusPlanner(
            CorpusConfig(num_domains=30, max_pages=4, seed=7,
                         overlap_fraction=0.0)
        ).plan()
        assert legacy.pages == explicit.pages
        assert all(
            not spec.stable
            for specs in legacy.pages.values()
            for spec in specs
        )

    def test_stable_pages_render_identically_across_years(self):
        config = CorpusConfig(num_domains=30, max_pages=4, seed=7,
                              years=(2020, 2021, 2022),
                              overlap_fraction=0.75)
        plan = CorpusPlanner(config).plan()
        by_url: dict[tuple, dict[int, bytes]] = {}
        stable_seen = 0
        for (domain, year), specs in plan.pages.items():
            for spec in specs:
                if spec.stable:
                    stable_seen += 1
                    assert not spec.injectors, (
                        "injectors must stay on volatile slots"
                    )
                    by_url.setdefault(spec.url, {})[year] = render_page(
                        spec, config.seed
                    )
        assert stable_seen > 0
        multi_year = {
            url: renders for url, renders in by_url.items()
            if len(renders) > 1
        }
        assert multi_year, "no page was stable across two snapshots"
        for renders in multi_year.values():
            assert len(set(renders.values())) == 1

    def test_every_domain_keeps_a_volatile_slot(self):
        plan = CorpusPlanner(
            CorpusConfig(num_domains=30, max_pages=2, seed=7,
                         overlap_fraction=1.0)
        ).plan()
        for specs in plan.pages.values():
            injectable = [s for s in specs if s.html and s.utf8]
            assert any(not s.stable for s in injectable)
