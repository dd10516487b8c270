"""The percentile support rule and the compare verdicts."""
from __future__ import annotations

import pytest

from benchmarks.e2e.compare import compare, derived
from benchmarks.e2e.stats import MIN_BEYOND, beyond, percentile


@pytest.mark.parametrize("n", [1000, 1009, 3600])
def test_p99_reported_when_ten_samples_lie_beyond(n):
    reported = percentile([float(i) for i in range(n)], 0.99)
    assert reported.q == 0.99
    assert reported.n == n
    assert beyond(n, reported.q) >= MIN_BEYOND


@pytest.mark.parametrize("n, q", [(500, 0.98), (200, 0.95), (100, 0.9)])
def test_falls_back_to_highest_supported_percentile(n, q):
    reported = percentile([float(i) for i in range(n)], 0.99)
    assert reported.q == q
    assert beyond(n, reported.q) == MIN_BEYOND
    assert reported.value == float(n - MIN_BEYOND - 1)
    assert reported.label() == f"p{q * 100:g} of n={n}"


def test_small_samples_report_the_median():
    reported = percentile([4.0, 1.0, 3.0, 2.0], 0.99)
    assert (reported.q, reported.value, reported.n) == (0.5, 2.5, 4)


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]


def test_same_numbers_are_no_change():
    result = compare(PARENT, list(PARENT), better="higher", bound=0.10)
    assert result.verdict == "no change"
    assert result.wins == 0 and result.pairs == 10


def test_consistent_gain_beyond_the_parent_spread_is_improved():
    change = [value * 1.05 for value in PARENT]
    result = compare(PARENT, change, better="higher", bound=0.10)
    assert result.verdict == "improved"
    assert result.gain == pytest.approx(0.05)


def test_gain_inside_the_parent_spread_is_no_change():
    change = [value + 0.3 for value in PARENT]
    assert compare(PARENT, change, better="higher", bound=0.10).verdict == "no change"


def test_worse_by_more_than_the_bound_is_regressed():
    change = [value * 1.2 for value in PARENT]
    result = compare(PARENT, change, better="lower", bound=0.10)
    assert result.verdict == "regressed"
    assert result.gain == pytest.approx(-0.2)


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    result = compare(PARENT, noisy, better="higher", bound=0.10)
    assert result.verdict == "unresolved"


def test_wide_spread_but_every_run_better_is_not_unresolved():
    parent = [80.0, 100.0, 120.0, 90.0, 110.0] * 2
    change = [200.0, 260.0, 230.0, 250.0, 210.0] * 2
    assert compare(parent, change, better="higher", bound=0.10).verdict == "improved"


def test_a_gain_needs_ten_pairs():
    change = [value * 1.05 for value in PARENT]
    result = compare(PARENT[:5], change[:5], better="higher", bound=0.10)
    assert result.wins == 5 and result.verdict == "no change"


def test_a_metric_that_repeats_an_earlier_one_is_derived():
    earlier = {"throughput_per_s": PARENT, "cpu_ms_per_item": PARENT[::-1]}
    assert derived([1000 / value for value in PARENT], earlier) == (
        "1000 / throughput_per_s")
    assert derived(list(PARENT), earlier) == "1 × throughput_per_s"
    assert derived([value + 1 for value in PARENT], earlier) is None
